"""Balanced locally repairable erasure codes.

Construction and validation of balanced LRCs, repair-bandwidth and
decodability analysis, stochastic search for low-repair-cost codes, Markov
reliability modeling, and reference models (Reed-Solomon, local/global
parity layouts, replication) for comparison.
"""

from .analysis import (
    DoubleRepairStats,
    MetricsReport,
    RepairPlan,
    avg_repair_bandwidth_double,
    avg_repair_bandwidth_single,
    build_report,
    decodability_profile,
    minimal_repair,
    minimum_distance,
    repair_values,
)
from .code import (
    BlrcCode,
    CodeSpec,
    ConstructionError,
    SupportPattern,
    SystematicCode,
    UndecodableError,
    ValidationReport,
    assign_coefficients,
    check_support,
    decodable,
    decode_erasure,
    encode,
    gopalan_bound,
    support_of,
    update_complexity,
    validate,
)
from .gf import GF256, FieldMismatchError, FieldSpec
from .linalg import GfMatrix, rank

__version__ = "0.1.0"
