"""Content-addressed disk cache for Betti tables.

A key is the SHA-256 of a fixed header (tag, oracle version, ambient,
characteristic, generator count, lattice cap) and the ideal's exponent
matrix as little-endian int64 bytes, so a hit can only ever replay the exact
same computation, and a cell the cap skips is skipped whatever the cache
holds.  Entries are written atomically (temp file + rename) and validated on
read; anything corrupt, in an older layout, or stored by another oracle
version, is evicted and recomputed.

An entry, ``<key>.pibt``, is binary and big-endian: a 54-byte header, the
table's arrays, and the SHA-256 of everything before it (32 bytes).  The
header holds, in order:

- the magic ``PIBT`` (4 bytes);
- the SHA-256 of the key's text (32 bytes);
- the oracle version, the ambient n, the characteristic p and the entry
  count k (4-byte unsigned each);
- w, the byte width of the (i, b) values, and r, that of the ranks (1
  byte each; 1, 2, 4 or 8, the narrowest that holds every value).

Then come k rows of n + 1 unsigned values w bytes wide, the homological
index i and the multidegree b, in strictly increasing (i, b) order, and k
ranks r bytes wide.  A read checks the digest, the magic, the key, the oracle
version, the widths, that the length is the one the header gives, that the
rows increase strictly (big-endian rows of one width compare as byte
strings, so one comparison of consecutive rows does it, and rules out
repeats), that no value reads as negative in 64 bits, and that every rank is
at least 1.  Older releases keyed entries by JSON and named them
``<key>.json``; no key names those files, so they are never read.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import SizeCapExceededError
from .monomials import MonomialIdeal
from .oracle import (
    DEFAULT_LATTICE_CAP,
    ORACLE_VERSION,
    BettiTable,
    FieldSpec,
    _big_endian,
    betti_tables,
)

__all__ = ["CACHE_ENV_VAR", "DEFAULT_CACHE_DIR", "BettiCache", "betti_cache_key",
           "cached_betti_table", "cached_betti_tables", "resolve_cache_dir"]

log = logging.getLogger(__name__)

CACHE_ENV_VAR = "PATHIDEAL_CACHE"
DEFAULT_CACHE_DIR = ".pathideal-cache"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """Explicit argument wins, then $PATHIDEAL_CACHE, then the default."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


# tag, oracle version, ambient, characteristic, generator count, lattice cap
_KEY_HEADER = struct.Struct("<4sIIIQq")


def betti_cache_key(
    ideal: MonomialIdeal,
    characteristic: int,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> str:
    """SHA-256 over a fixed header and the generators' little-endian int64 bytes.

    The exponent matrix is canonical, so the key does not depend on how the
    ideal was built; rows of ambient 0 have no bytes, hence the row count.
    The walk refuses when its point count exceeds the cap, so every negative
    cap acts as -1, and every cap from 2^63 - 1 up admits any lattice.
    """
    E, cap = ideal.exponents, min(max(lattice_cap, -1), (1 << 63) - 1)
    header = _KEY_HEADER.pack(b"PIK1", ORACLE_VERSION, ideal.ambient, characteristic,
                              len(E), cap)
    return hashlib.sha256(header + E.astype("<i8", copy=False).tobytes()).hexdigest()


# magic, SHA-256 of the key, oracle version, ambient, characteristic, entry
# count, and the byte widths of the (i, b) values and of the ranks
_HEADER = struct.Struct(">4s32sIIIIBB")
_MAGIC = b"PIBT"
_WIDTHS = (1, 2, 4, 8)
_DIGEST_BYTES = 32


def _sealed(body: bytes) -> bytes:
    """An entry: its body, then the SHA-256 of the body."""
    return body + hashlib.sha256(body).digest()


def _key_digest(key: str) -> bytes:
    return hashlib.sha256(key.encode("utf-8")).digest()


def _encode(key: str, table: BettiTable) -> bytes:
    """The entry of a table, as the module docstring lays it out."""
    rows = _big_endian(np.column_stack((table.index, table.degrees)))
    ranks = _big_endian(table.ranks)
    header = _HEADER.pack(
        _MAGIC, _key_digest(key), ORACLE_VERSION, table.ambient,
        table.characteristic, ranks.size, rows.itemsize, ranks.itemsize,
    )
    return _sealed(header + rows.tobytes() + ranks.tobytes())


def _decode(raw: bytes, key: str) -> BettiTable:
    """The table of an entry; ValueError if the entry is unsound."""
    body = memoryview(raw)[:-_DIGEST_BYTES]
    if len(body) < _HEADER.size:
        raise ValueError("entry shorter than its header")
    if hashlib.sha256(body).digest() != raw[-_DIGEST_BYTES:]:
        raise ValueError("digest mismatch")
    magic, stored_key, version, ambient, char, count, width, rank_width = (
        _HEADER.unpack_from(raw)
    )
    if magic != _MAGIC:
        raise ValueError("not a binary table entry")
    if stored_key != _key_digest(key):
        raise ValueError("stored key mismatch")
    if version != ORACLE_VERSION:
        raise ValueError(f"oracle version {version}, not {ORACLE_VERSION}")
    if width not in _WIDTHS or rank_width not in _WIDTHS:
        raise ValueError(f"value widths {width} and {rank_width}")
    row_bytes = (ambient + 1) * width
    if len(body) != _HEADER.size + count * (row_bytes + rank_width):
        raise ValueError("entry length disagrees with its header")
    # Big-endian rows of one width compare as byte strings in (i, b) order
    # (oracle._big_endian).
    if count > 1:
        keys = np.frombuffer(raw, dtype=f"S{row_bytes}", count=count, offset=_HEADER.size)
        if not (keys[1:] > keys[:-1]).all():
            raise ValueError("entries not in strictly increasing (i, b) order")
    # One column per value, so that the degrees are column-major and the
    # row sums of the roll-ups add whole columns.
    columns = np.frombuffer(
        raw, dtype=f">u{width}", count=count * (ambient + 1), offset=_HEADER.size
    ).reshape(count, ambient + 1).T.astype(np.int64)
    ranks = np.frombuffer(
        raw, dtype=f">u{rank_width}", count=count, offset=_HEADER.size + count * row_bytes
    ).astype(np.int64)
    # 8-byte values of 2^63 and above turn negative as int64
    if count and (columns.min() < 0 or ranks.min() < 1):
        raise ValueError("index or exponent above 2^63, or rank below 1")
    return BettiTable(ambient, char, columns[0], columns[1:].T, ranks)


class BettiCache:
    """Directory of cached Betti tables, one file per key.

    evictions counts the corrupt or outdated entries lookup has removed.
    Each is logged at DEBUG only: after a layout change every stored table
    is evicted once, so a sweep reports their total in one line instead.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = resolve_cache_dir(directory)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._write_failed = False

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pibt")

    def lookup(self, key: str) -> BettiTable | None:
        path = self._path(key)
        try:
            with open(path, "rb", buffering=0) as fh:
                raw = fh.readall()
        except OSError:
            self.misses += 1
            return None
        try:
            table = _decode(raw, key)
        except ValueError as exc:
            log.debug("evicting cache entry %s (%s)", path, exc)
            try:
                os.unlink(path)
            except OSError:
                pass
            self.evictions += 1
            self.misses += 1
            return None
        self.hits += 1
        return table

    def store(self, key: str, table: BettiTable) -> None:
        if self._write_failed:
            return
        payload = _encode(key, table)
        try:
            try:
                self._write(key, payload)
            except FileNotFoundError:
                # the directory is made on the first store, or again if removed
                self.directory.mkdir(parents=True, exist_ok=True)
                self._write(key, payload)
        except OSError as exc:
            # Warn once, then keep computing without the cache.
            self._write_failed = True
            log.warning("cache directory %s not writable (%s); continuing "
                        "without cache", self.directory, exc)

    def _write(self, key: str, payload: bytes) -> None:
        """Write an entry atomically: a temp file, then a rename over the key."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".tmp-", suffix=".pibt")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def cached_betti_tables(
    ideals: Iterable[MonomialIdeal],
    fieldspec: FieldSpec,
    cache: BettiCache,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> list[BettiTable | SizeCapExceededError]:
    """betti_tables through a read-through disk cache.

    Each key is looked up once, the misses are settled in one betti_tables
    call, and each new table is stored under its key.  A refused ideal gets
    its SizeCapExceededError, as betti_tables gives it, and is not stored.
    """
    ideals, p = list(ideals), fieldspec.characteristic
    keys = [betti_cache_key(ideal, p, lattice_cap) for ideal in ideals]
    tables: dict = {}
    misses: dict = {}
    for key, ideal in zip(keys, ideals):
        if key not in tables and key not in misses:
            found = cache.lookup(key)
            if found is None:
                misses[key] = ideal
            else:
                tables[key] = found
    if misses:
        for key, table in zip(misses, betti_tables(misses.values(), fieldspec, lattice_cap)):
            if isinstance(table, BettiTable):
                cache.store(key, table)
            tables[key] = table
    return [tables[key] for key in keys]


def cached_betti_table(
    ideal: MonomialIdeal,
    fieldspec: FieldSpec,
    cache: BettiCache,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> BettiTable:
    """betti_table through a read-through disk cache: one item of cached_betti_tables."""
    table = cached_betti_tables([ideal], fieldspec, cache, lattice_cap)[0]
    if isinstance(table, SizeCapExceededError):
        raise table
    return table
