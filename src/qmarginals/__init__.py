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

Every tolerance, the ``tol`` of each check and a scaling run's
``residual_tol`` alike, must lie in the open interval (0, 1): zero or less
could never be met, and 1 or more lets every check pass vacuously.  One
rule, ``check_tol``, refuses any other value, NaN included, with a
``ValueError``.  The library applies it once on entry to each check, never
inside an iteration, and the CLI's parser applies it to ``--tol``.
"""

import importlib

__version__ = "0.1.0"

#: Relative rank / positivity tolerance used when the caller does not pass
#: one.  Defined here, without numpy, so the CLI's parser reads it before
#: any layer loads; ``linalg`` re-exports it.
DEFAULT_TOL = 1e-8


def check_tol(tol: float, name: str = "tol") -> float:
    """Return ``tol`` if it lies in (0, 1); raise ``ValueError`` naming
    ``name`` otherwise.  The only tolerance rule, defined without numpy
    next to ``DEFAULT_TOL`` for the same reason."""
    if not 0.0 < tol < 1.0:  # NaN compares false, so it is refused too
        raise ValueError(f"{name} must lie in (0, 1), got {tol}")
    return tol


#: Each public name and the submodule that defines it.  A name is imported
#: on first access (PEP 562), so ``import qmarginals`` alone loads neither
#: the submodules nor numpy.
_EXPORTS = {
    name: module
    for module, names in (
        ("linalg", "RankDecision eigh matrix_from_json matrix_to_json "
                   "numerical_rank rank_of_values rank_with_margin"),
        ("bipartite", "BipartiteState PptReport Violation check_rank_bound "
                      "max_entangled_projector parthasarathy_bound partial_trace_a "
                      "partial_trace_b partial_transpose_b perturbation_freedom_dim "
                      "ppt_check random_separable state_from_json state_to_json "
                      "state_violations validate_state"),
        ("cpmaps", "ExtremalityReport KrausMap apply choi_extremality choi_state "
                   "doubly_constrained_extremality dual_apply extremal_qubit_qutrit_map "
                   "kraus_from_json kraus_from_state kraus_to_json marginal_K marginal_L mix_ops"),
        ("scaling", "ScalingConfig ScalingReport find_extremal_candidate random_kraus "
                    "residuals sinkhorn_scale uniform_targets"),
        ("errors", "QMarginalsError DimensionMismatch NotHermitian NotPSD TraceNotOne "
                   "NotUnitary NoConvergence SingularScaling InfeasibleRank"),
    )
    for name in names.split()
}
_SUBMODULES = {*_EXPORTS.values(), "cli", "sampling"}

__all__ = ["__version__", "DEFAULT_TOL", "check_tol", *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups, and ``vars(qmarginals)``, find it here
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
