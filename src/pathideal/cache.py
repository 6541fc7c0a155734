"""Content-addressed disk cache for Betti tables.

Keys are SHA-256 hashes of the canonical serialization of (generators,
characteristic, lattice cap, oracle version), so a hit can only ever replay
the exact same computation, and a cell the cap skips is skipped whatever the
cache holds.  Entries are written atomically (temp file + rename) and
validated on read; anything corrupt, in an older layout, or stored by another
oracle version, is evicted and recomputed.

An entry is one JSON object: ``key``, ``oracle_version``, ``ambient``,
``char``, then the table as flat int arrays in sorted entry order, ``i`` (the
homological index), ``b`` (the multidegrees, ``ambient`` exponents per entry)
and ``rank``, and last ``sha256``, the SHA-256 of the entry's text before
that field.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from itertools import chain, repeat
from pathlib import Path

from .monomials import MonomialIdeal
from .oracle import (
    DEFAULT_LATTICE_CAP,
    ORACLE_VERSION,
    BettiTable,
    FieldSpec,
    betti_table,
)

__all__ = ["CACHE_ENV_VAR", "DEFAULT_CACHE_DIR", "BettiCache", "betti_cache_key",
           "cached_betti_table", "resolve_cache_dir"]

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


def betti_cache_key(
    ideal: MonomialIdeal,
    characteristic: int,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> str:
    """SHA-256 over the canonical JSON of the generators, field, cap and oracle."""
    payload = {
        "ambient": ideal.ambient,
        "char": characteristic,
        "generators": [g.exponents for g in ideal.generators],
        "lattice_cap": lattice_cap,
        "oracle_version": ORACLE_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_DIGEST_FIELD = b',"sha256":"'


def _sealed(entry: dict) -> bytes:
    """The text of an entry: its compact JSON with a digest of the text before it."""
    body = json.dumps(entry, separators=(",", ":"))[:-1].encode("ascii")
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return body + _DIGEST_FIELD + digest + b'"}'


def _encode(key: str, table: BettiTable) -> dict:
    """The fields of a table's entry, as the module docstring lays them out."""
    degrees = sorted(table.entries)
    return {
        "key": key,
        "oracle_version": ORACLE_VERSION,
        "ambient": table.ambient,
        "char": table.characteristic,
        "i": [index for index, _ in degrees],
        "b": list(chain.from_iterable(multidegree for _, multidegree in degrees)),
        "rank": list(map(table.entries.__getitem__, degrees)),
    }


def _decode(raw: bytes, key: str) -> BettiTable:
    """The table of an entry's text; ValueError, KeyError or TypeError if unsound."""
    body, _, digest = raw.rpartition(_DIGEST_FIELD)
    if digest != hashlib.sha256(body).hexdigest().encode("ascii") + b'"}':
        raise ValueError("digest mismatch")
    data = json.loads(raw)  # it ends in '"}', so it is an object if it parses
    if data.get("key") != key:
        raise ValueError("stored key mismatch")
    if data.get("oracle_version") != ORACLE_VERSION:
        raise ValueError(
            f"oracle version {data.get('oracle_version')!r}, not {ORACLE_VERSION}"
        )
    ambient, char = data["ambient"], data["char"]
    i, b, rank = data["i"], data["b"], data["rank"]
    if not (type(i) is type(b) is type(rank) is list):
        raise ValueError("i, b and rank must be arrays")
    # bool and float are refused too: an exact table holds only ints
    if {type(ambient), type(char), *map(type, i), *map(type, b), *map(type, rank)} != {int}:
        raise ValueError("non-integer value")
    if len(rank) != len(i) or len(b) != ambient * len(i):
        raise ValueError("array lengths disagree with ambient")
    if min(ambient, min(i, default=0), min(b, default=0)) < 0 or min(rank, default=1) < 1:
        raise ValueError("negative index or exponent, or rank below 1")
    multidegrees = zip(*[iter(b)] * ambient) if ambient else repeat((), len(i))
    entries = dict(zip(zip(i, multidegrees), rank))
    if len(entries) != len(i):
        raise ValueError("repeated (i, multidegree)")
    return BettiTable(ambient, char, entries)


class BettiCache:
    """Directory of cached Betti tables, one JSON file per key.

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

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def lookup(self, key: str) -> BettiTable | None:
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            table = _decode(raw, key)
        except (ValueError, KeyError, TypeError) as exc:
            log.debug("evicting cache entry %s (%s)", path, exc)
            try:
                path.unlink()
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
        payload = _sealed(_encode(key, table))
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
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".tmp-", suffix=".json")
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


def cached_betti_table(
    ideal: MonomialIdeal,
    fieldspec: FieldSpec,
    cache: BettiCache,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> BettiTable:
    """betti_table through a read-through disk cache."""
    key = betti_cache_key(ideal, fieldspec.characteristic, lattice_cap)
    found = cache.lookup(key)
    if found is not None:
        return found
    table = betti_table(ideal, fieldspec, lattice_cap)
    cache.store(key, table)
    return table
