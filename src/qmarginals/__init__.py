"""Bipartite quantum states with fixed marginals.

Tools for composite density matrices whose reduced states are prescribed:
building composite states from Kraus families, checking marginals, ranks
and PPT entanglement, deciding extremality in the fixed-marginals convex
set (two independence criteria plus a perturbation-counting oracle), and
searching for new extreme points by operator Sinkhorn scaling.

>>> import qmarginals as qm
>>> kmap = qm.extremal_qubit_qutrit_map()
>>> state = qm.choi_state(kmap)
>>> qm.ppt_check(state).verdict
'entangled'
>>> qm.doubly_constrained_extremality(kmap).verdict
True
"""

__version__ = "0.1.0"

from .bipartite import (
    BipartiteState,
    PptReport,
    Violation,
    check_rank_bound,
    max_entangled_projector,
    parthasarathy_bound,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_a,
    partial_transpose_b,
    perturbation_freedom_dim,
    ppt_check,
    random_separable,
    state_from_json,
    state_to_json,
    state_violations,
    validate_state,
)
from .cpmaps import (
    ExtremalityReport,
    KrausMap,
    apply,
    choi_extremality,
    choi_state,
    choi_vector,
    doubly_constrained_extremality,
    dual_apply,
    extremal_qubit_qutrit_map,
    kraus_from_json,
    kraus_from_state,
    kraus_to_json,
    marginal_K,
    marginal_L,
    mix_ops,
)
from .errors import (
    DimensionMismatch,
    InfeasibleRank,
    NoConvergence,
    NotHermitian,
    NotPSD,
    NotUnitary,
    QMarginalsError,
    SingularScaling,
    TraceNotOne,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianEigen,
    RankDecision,
    eigh,
    eigvalsh,
    kron,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    rank_with_margin,
)
from .scaling import (
    ScalingConfig,
    ScalingReport,
    find_extremal_candidate,
    random_kraus,
    residuals,
    sinkhorn_scale,
    uniform_targets,
)

__all__ = [
    "__version__",
    # linalg
    "DEFAULT_TOL",
    "HermitianEigen",
    "RankDecision",
    "eigh",
    "eigvalsh",
    "kron",
    "matrix_from_json",
    "matrix_to_json",
    "numerical_rank",
    "rank_with_margin",
    # bipartite
    "BipartiteState",
    "PptReport",
    "Violation",
    "check_rank_bound",
    "max_entangled_projector",
    "parthasarathy_bound",
    "partial_trace_a",
    "partial_trace_b",
    "partial_transpose_a",
    "partial_transpose_b",
    "perturbation_freedom_dim",
    "ppt_check",
    "random_separable",
    "state_from_json",
    "state_to_json",
    "state_violations",
    "validate_state",
    # cpmaps
    "ExtremalityReport",
    "KrausMap",
    "apply",
    "choi_extremality",
    "choi_state",
    "choi_vector",
    "doubly_constrained_extremality",
    "dual_apply",
    "extremal_qubit_qutrit_map",
    "kraus_from_json",
    "kraus_from_state",
    "kraus_to_json",
    "marginal_K",
    "marginal_L",
    "mix_ops",
    # scaling
    "ScalingConfig",
    "ScalingReport",
    "find_extremal_candidate",
    "random_kraus",
    "residuals",
    "sinkhorn_scale",
    "uniform_targets",
    # errors
    "QMarginalsError",
    "DimensionMismatch",
    "NotHermitian",
    "NotPSD",
    "TraceNotOne",
    "NotUnitary",
    "NoConvergence",
    "SingularScaling",
    "InfeasibleRank",
]
