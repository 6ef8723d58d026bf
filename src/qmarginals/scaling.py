"""Operator Sinkhorn scaling: steering a Kraus family toward prescribed
marginal sums.

Each right half-step congruence-scales the family so that
sum V^dagger V hits the target K exactly; each left half-step does the same
for sum V V^dagger and L, disturbing the first sum a little.  Alternating
the two empirically contracts both residuals at the desk scales used here;
there is no convergence theorem behind it, so budget exhaustion raises
``NoConvergence`` with the full residual history attached rather than
returning a silently truncated family.

Feeding converged candidates through the doubly-constrained extremality
test is the search pipeline for new extreme points of fixed-marginals
state sets (``find_extremal_candidate``).
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import sampling
from .bipartite import BipartiteState
from .cpmaps import (
    ExtremalityReport,
    KrausMap,
    choi_state,
    doubly_constrained_extremality,
)
from .errors import (
    DimensionMismatch,
    InfeasibleRank,
    NoConvergence,
    NotPSD,
    SingularScaling,
    TraceNotOne,
)
from .linalg import DEFAULT_TOL, as_matrix, dagger, eigh, frobenius


@dataclass(frozen=True)
class ScalingConfig:
    """Targets and budget for the alternating scaling iteration.

    Both targets must be PSD with unit trace (the marginals of any state
    are), checked to 1e-12 at construction: ``TraceNotOne`` or ``NotPSD``
    otherwise.
    """

    target_K: np.ndarray  # m x m, for sum V^dagger V
    target_L: np.ndarray  # n x n, for sum V V^dagger
    max_iter: int = 10000
    residual_tol: float = 1e-10

    def __post_init__(self):
        for name, target in (("target_K", self.target_K), ("target_L", self.target_L)):
            mat = as_matrix(target)
            if mat.shape[0] != mat.shape[1]:
                raise DimensionMismatch(f"{name} must be square, got {mat.shape}")
            trace = float(np.trace(mat).real)
            if abs(trace - 1.0) > 1e-12:
                raise TraceNotOne(f"{name} has trace {trace:.12g}, expected 1", trace=trace)
            lam_min = float(eigh(mat).eigenvalues[0])
            if lam_min < -1e-12:
                raise NotPSD(
                    f"{name} has eigenvalue {lam_min:.3e} below -1e-12",
                    min_eigenvalue=lam_min,
                )
            mat = mat.copy()
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class ScalingReport:
    """Iteration trace: residuals are Frobenius distances of the two
    operator sums from their targets.  ``history`` is a read-only
    ``(iterations + 1, 2)`` float64 array of ``(residual_K, residual_L)``
    rows: row 0 is the state of the input family; one row follows per
    completed iteration.  Any sequence of pairs is accepted and converted."""

    iterations: int
    residual_K: float
    residual_L: float
    converged: bool
    history: np.ndarray = ()

    def __post_init__(self):
        history = np.array(self.history, dtype=np.float64).reshape(-1, 2)
        history.setflags(write=False)
        object.__setattr__(self, "history", history)

    def to_json(self, max_history: int = 0) -> dict:
        """JSON form; ``max_history`` > 0 keeps only the last that many
        history entries (the report value itself is never truncated)."""
        history = self.history.tolist()
        if max_history > 0:
            history = history[-max_history:]
        return {
            "iterations": self.iterations,
            "residual_k": float(self.residual_K),
            "residual_l": float(self.residual_L),
            "converged": self.converged,
            "history": history,
        }


def random_kraus(n: int, m: int, r: int, seed: int) -> KrausMap:
    """``r`` seeded Ginibre operators of shape n x m, normalized globally so
    the trace of sum V^dagger V is exactly 1.  Bit-for-bit deterministic per
    seed."""
    if r < 1:
        raise ValueError("need at least one operator")
    rng = sampling.generator(seed)
    ops = [sampling.ginibre(rng, n, m) for _ in range(r)]
    total = sum(float(np.vdot(op, op).real) for op in ops)
    scale = 1.0 / np.sqrt(total)
    return KrausMap(n, m, tuple(op * scale for op in ops))


def _marginal_sums(ops, n: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    sum_k = np.zeros((m, m), dtype=np.complex128)
    sum_l = np.zeros((n, n), dtype=np.complex128)
    for op in ops:
        sum_k += dagger(op) @ op
        sum_l += op @ dagger(op)
    return sum_k, sum_l


def residuals(kmap: KrausMap, target_K, target_L) -> Tuple[float, float]:
    """Frobenius distances (||sum V^dagger V - K||, ||sum V V^dagger - L||)."""
    target_K = as_matrix(target_K)
    target_L = as_matrix(target_L)
    if target_K.shape != (kmap.m, kmap.m):
        raise DimensionMismatch(
            f"target_K is {target_K.shape}, expected ({kmap.m}, {kmap.m})"
        )
    if target_L.shape != (kmap.n, kmap.n):
        raise DimensionMismatch(
            f"target_L is {target_L.shape}, expected ({kmap.n}, {kmap.n})"
        )
    sum_k, sum_l = _marginal_sums(kmap.ops, kmap.n, kmap.m)
    return frobenius(sum_k - target_K), frobenius(sum_l - target_L)


def _sqrt_and_inv_sqrt(mat: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray, int]:
    """One eigendecomposition serving the root, the pseudo-inverse root and
    the support rank of a PSD matrix."""
    values, vectors = eigh(mat, tol)
    values = np.clip(values, 0.0, None)
    lam_max = float(values[-1])
    support = values > tol * max(1.0, lam_max)
    roots = np.sqrt(values)
    inv_roots = np.zeros_like(values)
    inv_roots[support] = 1.0 / roots[support]
    sqrt_mat = (vectors * roots) @ dagger(vectors)
    inv_sqrt_mat = (vectors * inv_roots) @ dagger(vectors)
    return sqrt_mat, inv_sqrt_mat, int(np.count_nonzero(support))


def sinkhorn_scale(
    kmap: KrausMap, config: ScalingConfig, tol: float = DEFAULT_TOL
) -> Tuple[KrausMap, ScalingReport]:
    """Alternate exact-enforcement steps until both marginal sums sit within
    ``config.residual_tol`` of their targets.

    Right step: V <- V (sum V^dagger V)^(-1/2) K^(1/2), making the first sum
    equal K on its support.  Left step: V <- L^(1/2) (sum V V^dagger)^(-1/2) V.
    A family already at its targets returns unchanged after zero iterations.

    Raises ``SingularScaling`` as soon as an intermediate sum has smaller
    support than its target (the scaling can then never reach it), and
    ``NoConvergence`` -- carrying the report and the partially scaled family
    -- when the budget runs out.
    """
    target_K = as_matrix(config.target_K)
    target_L = as_matrix(config.target_L)
    if target_K.shape != (kmap.m, kmap.m) or target_L.shape != (kmap.n, kmap.n):
        raise DimensionMismatch(
            f"targets of shapes {target_K.shape}, {target_L.shape} do not match a "
            f"({kmap.n}, {kmap.m}) family"
        )
    sqrt_k, _, rank_k = _sqrt_and_inv_sqrt(target_K, tol)
    sqrt_l, _, rank_l = _sqrt_and_inv_sqrt(target_L, tol)

    def current_residuals(ops):
        sum_k, sum_l = _marginal_sums(ops, kmap.n, kmap.m)
        return frobenius(sum_k - target_K), frobenius(sum_l - target_L)

    ops = list(kmap.ops)
    res_k, res_l = current_residuals(ops)
    history: List[Tuple[float, float]] = [(res_k, res_l)]

    iterations = 0
    while max(res_k, res_l) > config.residual_tol:
        if iterations >= config.max_iter:
            report = ScalingReport(iterations, res_k, res_l, False, history)
            raise NoConvergence(
                f"residuals ({res_k:.3e}, {res_l:.3e}) above {config.residual_tol:.1e} "
                f"after {iterations} iterations",
                report=report,
                kraus=KrausMap(kmap.n, kmap.m, tuple(ops)),
            )
        sum_k, _ = _marginal_sums(ops, kmap.n, kmap.m)
        _, inv_sqrt_sk, rank_sk = _sqrt_and_inv_sqrt(sum_k, tol)
        if rank_sk < rank_k:
            raise SingularScaling(
                f"sum V^dagger V has rank {rank_sk}, below the target rank {rank_k}"
            )
        right = inv_sqrt_sk @ sqrt_k
        ops = [op @ right for op in ops]

        _, sum_l = _marginal_sums(ops, kmap.n, kmap.m)
        _, inv_sqrt_sl, rank_sl = _sqrt_and_inv_sqrt(sum_l, tol)
        if rank_sl < rank_l:
            raise SingularScaling(
                f"sum V V^dagger has rank {rank_sl}, below the target rank {rank_l}"
            )
        left = sqrt_l @ inv_sqrt_sl
        ops = [left @ op for op in ops]

        iterations += 1
        res_k, res_l = current_residuals(ops)
        history.append((res_k, res_l))

    scaled = KrausMap(kmap.n, kmap.m, tuple(ops))
    return scaled, ScalingReport(iterations, res_k, res_l, True, history)


def find_extremal_candidate(
    n: int,
    m: int,
    r: int,
    config: ScalingConfig,
    seed: int,
    tol: float = DEFAULT_TOL,
) -> Tuple[KrausMap, ExtremalityReport, BipartiteState]:
    """Search pipeline: seeded random family -> scaling to the target
    marginals -> doubly-constrained extremality test -> composite state.

    Rejects r with r^2 > n^2 + m^2 up front (``InfeasibleRank``): the
    independence test can never pass there.  Scaling failures propagate.
    """
    if r * r > n * n + m * m:
        raise InfeasibleRank(
            f"r^2 = {r * r} exceeds n^2 + m^2 = {n * n + m * m}; "
            "no such family can be independent"
        )
    scaled, report = sinkhorn_scale(random_kraus(n, m, r, seed), config, tol)
    verdict = doubly_constrained_extremality(scaled, tol)
    state = choi_state(scaled, max(tol, 10.0 * config.residual_tol))
    return scaled, verdict, state


def uniform_targets(n: int, m: int) -> ScalingConfig:
    """Config steering toward the maximally mixed marginals 1_m/m, 1_n/n."""
    return ScalingConfig(np.eye(m, dtype=np.complex128) / m, np.eye(n, dtype=np.complex128) / n)
