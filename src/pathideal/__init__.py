"""Powers of path ideals of path graphs: exact invariants plus a brute-force
homological oracle and a sweep harness that confronts the two.
"""

from ._version import __version__
from .errors import (
    AmbientMismatchError,
    ColonFormMismatchError,
    ExponentOverflowError,
    PathIdealError,
    SizeCapExceededError,
)
from .monomials import (
    EXPONENT_CAP,
    Monomial,
    MonomialIdeal,
    colon_by_monomial,
    format_monomial,
    ideal_power,
    minimalize,
)
from .path_ideals import (
    Composition,
    PathIdealSpec,
    composition_count,
    line_graph_generators,
    path_ideal,
    power_generators,
)
from .oracle import (
    DEFAULT_LATTICE_CAP,
    GF2,
    BettiTable,
    FieldSpec,
    betti_table,
    lcm_lattice,
)
from .linearity import (
    QuasiLinearBreak,
    QuasiLinearResult,
    QuotientCertificate,
    QuotientFailure,
    closed_form_colon,
    linear_quotients_check,
    quasi_linear_check,
    quasi_linear_witness,
)
from .formulas import (
    betti_closed_form,
    gamma,
    linear_resolution_predicate,
    pd_closed_form,
    reg_power,
    reg_power_augmented,
    s_k_closed_form,
)
from .cache import BettiCache, betti_cache_key, cached_betti_table
from .verify import (
    Row,
    SweepConfig,
    VerificationReport,
    emit_table,
    run_sweep,
    sweep_cells,
)

__all__ = [
    "__version__",
    "PathIdealError",
    "AmbientMismatchError",
    "ExponentOverflowError",
    "SizeCapExceededError",
    "ColonFormMismatchError",
    "EXPONENT_CAP",
    "Monomial",
    "MonomialIdeal",
    "format_monomial",
    "minimalize",
    "colon_by_monomial",
    "ideal_power",
    "PathIdealSpec",
    "Composition",
    "line_graph_generators",
    "path_ideal",
    "power_generators",
    "composition_count",
    "DEFAULT_LATTICE_CAP",
    "FieldSpec",
    "GF2",
    "BettiTable",
    "lcm_lattice",
    "betti_table",
    "QuotientCertificate",
    "QuotientFailure",
    "QuasiLinearResult",
    "QuasiLinearBreak",
    "closed_form_colon",
    "linear_quotients_check",
    "quasi_linear_check",
    "quasi_linear_witness",
    "gamma",
    "reg_power",
    "betti_closed_form",
    "pd_closed_form",
    "s_k_closed_form",
    "linear_resolution_predicate",
    "reg_power_augmented",
    "BettiCache",
    "betti_cache_key",
    "cached_betti_table",
    "SweepConfig",
    "Row",
    "VerificationReport",
    "sweep_cells",
    "run_sweep",
    "emit_table",
]
