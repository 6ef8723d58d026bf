"""Operator Sinkhorn scaling: steering a Kraus family toward prescribed
marginal sums.

Each right half-step congruence-scales the family so that
sum V^dagger V hits the target K exactly; each left half-step does the same
for sum V V^dagger and L, disturbing the first sum a little.  Both targets
are states, checked to 1e-12 at construction of a ``ScalingConfig``.

What is proven, and what is not.  For uniform targets and n = m, the
iteration converges exactly when the map is rank non-decreasing (Gurvits,
J. Comput. Syst. Sci. 69, 2004); Garg, Gurvits, Oliveira and Wigderson
(arXiv:1511.03730) bound the number of iterations to a given residual.
Which non-uniform targets can be reached at all is characterised by Franks
(arXiv:1801.01412).  No check here decides either condition up front, and
no bound here predicts an iteration count: the budget is a plain cap, and
its exhaustion raises ``NoConvergence`` with the full residual history
attached rather than returning a silently truncated family.

How an iteration runs in place on one ``(n, r, m)`` buffer, one thin SVD
per half-step, and how support is counted is described once, at
``sinkhorn_scale``.  A search is configured by its ``ScalingConfig`` alone:
support cuts and verdicts use the package's ``DEFAULT_TOL``.

Feeding converged candidates through the doubly-constrained extremality
test is the search pipeline for new extreme points of fixed-marginals
state sets (``find_extremal_candidate``).  Each ``ScalingConfig`` takes
its targets' spectra and roots from LAPACK (``numpy.linalg.eigh``); this
module calls no eigen-solver of ``linalg``.  ``uniform_targets`` builds the
config of a shape once and returns that same frozen object afterwards, so
a search over one shape diagonalises its targets once, not per candidate.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import check_tol, sampling
from .bipartite import BipartiteState, _validated, parthasarathy_bound
from .cpmaps import (
    ExtremalityReport,
    KrausMap,
    choi_state,
    doubly_constrained_extremality,
)
from .errors import DimensionMismatch, InfeasibleRank, NoConvergence, SingularScaling
from .linalg import DEFAULT_TOL, as_matrix, check_counts, check_dims, is_positive_int


@dataclass(frozen=True, eq=False)
class ScalingConfig:
    """Targets and budget for the alternating scaling iteration.

    Each target must be square and a state (the marginals of any state
    are), checked to 1e-12 at construction by ``validate_state``'s rule on
    a (1, d) split: its first violation's error otherwise, named for the
    target.  ``max_iter`` must be a positive integer, numpy's included, and
    ``residual_tol`` must lie in (0, 1), the package's one tolerance rule
    (``check_tol``): ``ValueError`` otherwise.

    A family scaled to these targets has a composite state (``choi_state``)
    whose B-marginal is ``target_K`` and whose A-marginal is the entrywise
    conjugate of ``target_L``.

    Each target is kept as the rule's read-only ``mat``, its Hermitian
    part, and diagonalised once by LAPACK (``numpy.linalg.eigh``): its
    spectrum, clipped at zero, and its principal square root are kept, and
    ``sinkhorn_scale`` reads the root instead of diagonalising again.
    """

    target_K: np.ndarray  # m x m, for sum V^dagger V
    target_L: np.ndarray  # n x n, for sum V V^dagger
    max_iter: int = 10000
    residual_tol: float = 1e-10
    _spectrum_K: np.ndarray = field(init=False, repr=False)
    _root_K: np.ndarray = field(init=False, repr=False)
    _spectrum_L: np.ndarray = field(init=False, repr=False)
    _root_L: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not is_positive_int(self.max_iter):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        check_tol(self.residual_tol, "residual_tol")
        for side in ("K", "L"):
            name = f"target_{side}"
            mat = as_matrix(getattr(self, name))
            if mat.shape[0] != mat.shape[1]:
                raise DimensionMismatch(f"{name} must be square, got {mat.shape}")
            mat = _validated(mat, 1, len(mat), 1e-12, f"{name}: ").mat
            values, vectors = np.linalg.eigh(mat)
            values = np.clip(values, 0.0, None)
            root = (vectors * np.sqrt(values)) @ vectors.conj().T
            kept = {name: mat, f"_spectrum_{side}": values, f"_root_{side}": root}
            for attr, value in kept.items():
                value.setflags(write=False)
                object.__setattr__(self, attr, value)


@dataclass(frozen=True, eq=False)
class ScalingReport:
    """Iteration trace: residuals are Frobenius distances of the two
    operator sums from their targets.  ``history`` is a read-only
    ``(iterations + 1, 2)`` float64 array of ``(residual_K, residual_L)``
    rows: row 0 is the state of the input family; one row follows per
    completed iteration.  It is always an owned copy of the pairs or array
    given, so no caller's buffer is shared.

    ``contraction_rate`` is read off ``history`` when asked for, never
    during the iteration."""

    iterations: int
    residual_K: float
    residual_L: float
    converged: bool
    history: np.ndarray = ()

    def __post_init__(self):
        history = np.array(np.reshape(self.history, (-1, 2)), dtype=np.float64)
        history.setflags(write=False)
        object.__setattr__(self, "history", history)

    @property
    def contraction_rate(self) -> Optional[float]:
        """Median ratio of successive worst residuals max(residual_K,
        residual_L) over the last (at most) ten history rows, or ``None``
        with fewer than two iterations.  Below 1 the iteration contracts;
        the closer to 1, the slower."""
        if len(self.history) < 3:
            return None
        worst = self.history[-10:].max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.sort(worst[1:] / worst[:-1])
        # np.median's answer, without the numpy.ma import it costs: a NaN
        # (0/0) sorts last and makes the median NaN
        if math.isnan(ratios[-1]):
            return float(ratios[-1])
        half = len(ratios) // 2
        if len(ratios) % 2:
            return float(ratios[half])
        return (float(ratios[half - 1]) + float(ratios[half])) / 2

    def to_json(self, max_history: int = 0) -> dict:
        """JSON form; ``max_history`` > 0 keeps only the last that many
        history entries (the report value itself is never truncated).
        ``"contraction_rate"`` is computed from the full history."""
        history = self.history.tolist()
        if max_history > 0:
            history = history[-max_history:]
        return {
            "iterations": self.iterations,
            "residual_k": float(self.residual_K),
            "residual_l": float(self.residual_L),
            "converged": self.converged,
            "contraction_rate": self.contraction_rate,
            "history": history,
        }


def random_kraus(n: int, m: int, r: int, seed: int) -> KrausMap:
    """``r`` seeded Ginibre operators of shape n x m, normalized globally so
    the trace of sum V^dagger V is exactly 1.  Bit-for-bit deterministic per
    seed, which must be a non-negative integer (``sampling.generator``)."""
    check_dims(n=n, m=m)
    check_counts(r=r)
    if r < 1:
        raise ValueError("need at least one operator")
    rng = sampling.generator(seed)
    ops = [sampling.ginibre(rng, n, m) for _ in range(r)]
    total = sum(float(np.vdot(op, op).real) for op in ops)
    scale = 1.0 / np.sqrt(total)
    return KrausMap(n, m, [op * scale for op in ops])


def _residual_meter(
    family: np.ndarray, target_K: np.ndarray, target_L: np.ndarray
) -> Callable[[], Tuple[float, float]]:
    """A function returning the residuals of the ``(n, r, m)`` buffer
    ``family`` as it stands when called, from its ``_stacks`` A and B.  The
    conjugate of the family and the two Grams are written into buffers
    allocated here, once; each residual is ``numpy.linalg.norm``'s
    arithmetic for a complex array, sqrt(re . re + im . im) over the
    flattened Gram, so the values are identical to it."""
    cols, rows = _stacks(family)
    conj = np.empty_like(family)
    conj_cols, conj_rows = (stack.T for stack in _stacks(conj))
    n, _, m = family.shape
    gram_k = np.empty((m, m), dtype=np.complex128)
    gram_l = np.empty((n, n), dtype=np.complex128)
    re_k, im_k = gram_k.ravel().real, gram_k.ravel().imag
    re_l, im_l = gram_l.ravel().real, gram_l.ravel().imag

    def measure() -> Tuple[float, float]:
        np.conjugate(family, out=conj)
        conj_cols.dot(cols, out=gram_k)
        np.subtract(gram_k, target_K, out=gram_k)
        rows.dot(conj_rows, out=gram_l)
        np.subtract(gram_l, target_L, out=gram_l)
        res_k = math.sqrt(re_k.dot(re_k) + im_k.dot(im_k))
        return res_k, math.sqrt(re_l.dot(re_l) + im_l.dot(im_l))

    return measure


def _check_shapes(kmap: KrausMap, target_K: np.ndarray, target_L: np.ndarray) -> None:
    """Refuse targets that do not fit the family: K must be m x m, L n x n."""
    for name, target, dim in (("target_K", target_K, kmap.m), ("target_L", target_L, kmap.n)):
        if target.shape != (dim, dim):
            raise DimensionMismatch(f"{name} is {target.shape}, expected {(dim, dim)}")


def _family(kmap: KrausMap) -> np.ndarray:
    """A fresh C-contiguous ``(n, r, m)`` copy of the family, F[i, l] row i
    of V_l."""
    return kmap.ops.transpose(1, 0, 2).copy()


def _stacks(family: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The nr x m column stack A, with A^dagger A = sum V^dagger V, and the
    n x rm row stack B, with B B^dagger = sum V V^dagger, of a C-contiguous
    ``(n, r, m)`` family: two views of it, so every write to a stack lands
    in ``family``."""
    n, r, m = family.shape
    return family.reshape(n * r, m), family.reshape(n, r * m)


def residuals(kmap: KrausMap, target_K, target_L) -> Tuple[float, float]:
    """Frobenius distances (||sum V^dagger V - K||, ||sum V V^dagger - L||)."""
    target_K, target_L = as_matrix(target_K), as_matrix(target_L)
    _check_shapes(kmap, target_K, target_L)
    return _residual_meter(_family(kmap), target_K, target_L)()


def _support_mask(values: np.ndarray, largest: float, tol: float) -> np.ndarray:
    """Which of the nonnegative ``values``, the largest of which is
    ``largest``, count as support: those above ``tol * max(1, largest)``.
    Applied to the targets' eigenvalues and to the squared singular values
    of the family's stacks alike."""
    return values > tol * max(1.0, largest)


def _polar_on_support(stack: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Factors U_k, V_k^dagger of the polar factor U_k V_k^dagger of
    ``stack`` on its support, from one thin SVD: the k leading singular
    vectors, k counting the squared singular values above
    ``tol * max(1, sigma_max^2)`` (``_support_mask``).  The singular values
    come in descending order and the rule is monotone, so the support is a
    prefix, and it is all of them exactly when the smallest passes: that
    case, the usual one, returns the thin factors as they are, and only a
    stack short of full support has its prefix counted and cut."""
    u, sigmas, vh = np.linalg.svd(stack, full_matrices=False)
    largest, smallest = float(sigmas[0]), float(sigmas[-1])
    if smallest * smallest > tol * max(1.0, largest * largest):
        return u, vh
    grams = sigmas * sigmas
    k = int(np.count_nonzero(_support_mask(grams, float(grams[0]), tol)))
    return u[:, :k], vh[:k]


def sinkhorn_scale(kmap: KrausMap, config: ScalingConfig) -> Tuple[KrausMap, ScalingReport]:
    """Alternate exact-enforcement steps until both marginal sums sit within
    ``config.residual_tol`` of their targets.

    Right step: V <- V (sum V^dagger V)^(-1/2) K^(1/2), making the first sum
    equal K on its support.  Left step: V <- L^(1/2) (sum V V^dagger)^(-1/2) V.
    A family already at its targets returns unchanged after zero iterations.
    The roots K^(1/2), L^(1/2) and the targets' spectra, from which their
    support ranks are counted, come from ``config``: scaling diagonalises
    nothing and never forms a sum.

    The family lives in one C-contiguous ``(n, r, m)`` buffer F, F[i, l]
    row i of V_l, copied from the ``KrausMap``'s ``(r, n, m)`` array on
    entry and transposed once into the returned ``KrausMap``.  Its nr x m
    column stack A (A^dagger A = sum V^dagger V) and n x rm row stack B
    (B B^dagger = sum V V^dagger) are two views of that buffer, made once.
    With U_k, V_k^dagger the support part of a thin SVD of a stack, the
    right step writes A <- U_k V_k^dagger K^(1/2) = A (A^dagger A)^(-1/2)
    K^(1/2) and the left step B <- L^(1/2) U_k V_k^dagger = L^(1/2)
    (B B^dagger)^(-1/2) B straight into the buffer (``ndarray.dot`` with
    ``out=`` the view), inverse roots on the support without forming either.
    An iteration is thus two thin SVDs, two small products per half-step
    and the two residuals; every product is ``ndarray.dot``, the same BLAS
    call as ``@`` and bit-identical to it, with less call overhead.  The
    residuals write the family's conjugate and their two Grams into buffers
    allocated once per run (``_residual_meter``).  Support, of the targets'
    eigenvalues and of the stacks' squared singular values alike, is
    ``value > DEFAULT_TOL * max(1, largest)`` (``_support_mask``,
    ``_polar_on_support``).  The residual pairs are appended to a list, so a
    large ``max_iter`` costs nothing up front, and copied once into the
    report's read-only ``history``.

    Raises ``SingularScaling`` as soon as an intermediate sum has smaller
    support than its target (the scaling can then never reach it), and
    ``NoConvergence`` -- carrying the report and the partially scaled
    family, and naming the side further from its target and the report's
    ``contraction_rate`` -- when the budget runs out.
    """
    target_K, target_L = config.target_K, config.target_L
    _check_shapes(kmap, target_K, target_L)
    sqrt_k, sqrt_l = config._root_K, config._root_L
    spectrum_k, spectrum_l = config._spectrum_K, config._spectrum_L
    rank_k = int(np.count_nonzero(_support_mask(spectrum_k, float(spectrum_k[-1]), DEFAULT_TOL)))
    rank_l = int(np.count_nonzero(_support_mask(spectrum_l, float(spectrum_l[-1]), DEFAULT_TOL)))

    family = _family(kmap)
    cols, rows = _stacks(family)
    measure = _residual_meter(family, target_K, target_L)
    res_k, res_l = measure()
    history = [(res_k, res_l)]

    iterations = 0
    while max(res_k, res_l) > config.residual_tol and iterations < config.max_iter:
        u, vh = _polar_on_support(cols, DEFAULT_TOL)
        if len(vh) < rank_k:
            raise SingularScaling(
                f"sum V^dagger V has rank {len(vh)}, below the target rank {rank_k}"
            )
        u.dot(vh.dot(sqrt_k), out=cols)

        u, vh = _polar_on_support(rows, DEFAULT_TOL)
        if len(vh) < rank_l:
            raise SingularScaling(
                f"sum V V^dagger has rank {len(vh)}, below the target rank {rank_l}"
            )
        sqrt_l.dot(u.dot(vh), out=rows)

        iterations += 1
        res_k, res_l = measure()
        history.append((res_k, res_l))

    converged = max(res_k, res_l) <= config.residual_tol
    report = ScalingReport(iterations, res_k, res_l, converged, history)
    # a NoConvergence traceback keeps this frame alive: keep only the
    # report's compact copy of the history, not the list of pairs, and
    # drop the residual buffers
    del history, measure
    scaled = KrausMap(kmap.n, kmap.m, family.transpose(1, 0, 2))
    if not converged:
        side = "sum V^dagger V" if res_k >= res_l else "sum V V^dagger"
        rate = report.contraction_rate
        rate_text = "n/a" if rate is None else f"{rate:.6f} per iteration"
        raise NoConvergence(
            f"residuals ({res_k:.3e}, {res_l:.3e}) above {config.residual_tol:.1e} "
            f"after {iterations} iterations; {side} is further from its target, "
            f"contraction rate {rate_text}",
            report=report,
            kraus=scaled,
        )
    return scaled, report


def find_extremal_candidate(
    n: int, m: int, r: int, config: ScalingConfig, seed: int
) -> Tuple[KrausMap, ExtremalityReport, BipartiteState]:
    """Search pipeline: seeded random family -> scaling to the target
    marginals -> doubly-constrained extremality test -> composite state.

    ``random_kraus`` draws first and refuses the counts and the seed.  r
    above ``parthasarathy_bound(n, m)``, that is r^2 >= n^2 + m^2, is then
    rejected before any scaling (``InfeasibleRank``): the r^2 Landau-Streater
    rows satisfy one trace relation, so they span at most n^2 + m^2 - 1
    dimensions and the independence test can never pass there.  The verdict is taken at
    ``DEFAULT_TOL`` and the composite state is checked at
    ``max(DEFAULT_TOL, 10 * residual_tol)``, looser because the scaled
    marginals are only within ``residual_tol`` of their targets; so a
    ``config.residual_tol`` of 0.1 or more, which would make that check
    vacuous, is refused up front too (``ValueError``, by ``check_tol``).
    Scaling failures propagate.
    """
    state_tol = check_tol(10.0 * config.residual_tol, "10 * residual_tol")
    kmap = random_kraus(n, m, r, seed)
    bound = parthasarathy_bound(n, m)
    if r > bound:
        raise InfeasibleRank(
            f"r = {r} exceeds the Parthasarathy bound {bound} of ({n}, {m}); "
            "no such family can be independent"
        )
    scaled, report = sinkhorn_scale(kmap, config)
    verdict = doubly_constrained_extremality(scaled, DEFAULT_TOL)
    state = choi_state(scaled, max(DEFAULT_TOL, state_tol))
    return scaled, verdict, state


def uniform_targets(n: int, m: int) -> ScalingConfig:
    """Config steering toward the maximally mixed marginals 1_m/m, 1_n/n.

    Built once per ``(n, m)`` (the 64 most recently used shapes are kept)
    and the same object is returned on every later call: a
    ``ScalingConfig`` is frozen and its arrays are read-only, so sharing it
    is safe, and a search over one shape diagonalises its targets once.
    ``check_dims`` runs before the cache, which takes ``2.0`` for ``2``."""
    check_dims(n=n, m=m)
    return _uniform_targets(n, m)


@functools.lru_cache(maxsize=64)
def _uniform_targets(n: int, m: int) -> ScalingConfig:
    return ScalingConfig(np.eye(m, dtype=np.complex128) / m, np.eye(n, dtype=np.complex128) / n)
