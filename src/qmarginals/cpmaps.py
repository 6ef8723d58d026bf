"""Completely positive maps in Kraus form and their composite-state picture.

A map M_n -> M_m is carried by operators V_1..V_r of shape n x m acting as
A -> sum_l V_l^dagger A V_l.  Its associated composite state on
C^n (x) C^m has one marginal equal to the map's value on the identity and
the other equal to the dual map's; fixing one or both marginals carves out
convex sets of maps, and linear-independence rank tests on the operator
products decide extremality in each:

* ``choi_extremality``   - independence of {V_i^dagger V_j}, extremality
  with the output-sum marginal fixed (Choi's criterion).
* ``doubly_constrained_extremality`` - joint independence of
  {V_i^dagger V_j (+) V_j V_i^dagger}, extremality with both marginals
  fixed (Landau-Streater / Rudolph criterion).  Through the state
  correspondence this decides extremality of the composite state among all
  states with the same pair of marginals.

``extremal_qubit_qutrit_map`` builds the bundled two-operator example whose
composite state is a rank-two entangled extreme point with uniform
marginals; the verification battery in the CLI replays all of its claimed
properties.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bipartite import BipartiteState, _support, validate_state
from .errors import DimensionMismatch, TraceNotOne
from .linalg import DEFAULT_TOL, RankDecision, as_matrix, dagger, rank_with_margin

CRITERION_CHOI = "choi"
CRITERION_LANDAU_STREATER = "landau_streater"


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Finite Kraus family {V_l} of n x m matrices, r >= 1.

    Built from any sequence of matrices, an ``(r, n, m)`` array included,
    and held as one read-only, C-contiguous complex128 ``(r, n, m)`` array
    ``ops``: ``ops[l]`` is V_l, and iterating over ``ops`` or taking its
    ``len`` gives the operators.  The operators are copied in, so a later
    write to the input leaves the family as it was.  Two families are equal
    only when they are the same object."""

    n: int
    m: int
    ops: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DimensionMismatch("factor dimensions must be positive")
        if len(self.ops) < 1:
            raise DimensionMismatch("a Kraus family needs at least one operator")
        family = np.empty((len(self.ops), self.n, self.m), dtype=np.complex128)
        for k, op in enumerate(self.ops):
            op = as_matrix(op)
            if op.shape != (self.n, self.m):
                raise DimensionMismatch(
                    f"operator {k} is {op.shape}, expected ({self.n}, {self.m})"
                )
            family[k] = op
        family.setflags(write=False)
        object.__setattr__(self, "ops", family)

    @property
    def r(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class ExtremalityReport:
    """Verdict of a linear-independence rank test over an operator family.

    ``stacked_rank`` is the numerical rank of the r^2 stacked product rows;
    the family is independent, and ``verdict`` says the map is extreme in
    the corresponding convex set, exactly when it reaches ``family_size``.
    ``margin`` keeps the Gram eigenvalues bracketing the rank cutoff for
    auditability.
    """

    criterion: str
    family_size: int
    stacked_rank: int
    verdict: bool
    margin: RankDecision

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "family_size": self.family_size,
            "stacked_rank": self.stacked_rank,
            "verdict": self.verdict,
            "margin": {
                "smallest_retained": self.margin.smallest_retained,
                "largest_discarded": self.margin.largest_discarded,
            },
        }


def apply(kmap: KrausMap, a) -> np.ndarray:
    """Map value sum_l V_l^dagger A V_l (an m x m matrix).  Positive inputs
    go to positive outputs."""
    a = as_matrix(a)
    if a.shape != (kmap.n, kmap.n):
        raise DimensionMismatch(f"input is {a.shape}, expected ({kmap.n}, {kmap.n})")
    out = np.zeros((kmap.m, kmap.m), dtype=np.complex128)
    for op in kmap.ops:
        out += dagger(op) @ a @ op
    return out


def dual_apply(kmap: KrausMap, b) -> np.ndarray:
    """Dual map value sum_l V_l B V_l^dagger (an n x n matrix), the adjoint
    of ``apply`` under the trace pairing."""
    b = as_matrix(b)
    if b.shape != (kmap.m, kmap.m):
        raise DimensionMismatch(f"input is {b.shape}, expected ({kmap.m}, {kmap.m})")
    out = np.zeros((kmap.n, kmap.n), dtype=np.complex128)
    for op in kmap.ops:
        out += op @ b @ dagger(op)
    return out


def marginal_K(kmap: KrausMap) -> np.ndarray:
    """Value on the identity, sum_l V_l^dagger V_l; equals the second
    marginal of the map's composite state."""
    return apply(kmap, np.eye(kmap.n))


def marginal_L(kmap: KrausMap) -> np.ndarray:
    """Dual value on the identity, sum_l V_l V_l^dagger.

    The composite state's first-factor marginal is the entrywise conjugate
    of this matrix (a quirk of the unit-matrix expansion underlying
    ``choi_state``); the two coincide exactly for real operator families,
    including the bundled example.
    """
    return dual_apply(kmap, np.eye(kmap.m))


def choi_vector(op: np.ndarray) -> np.ndarray:
    """Vectorization pairing an operator V with the composite vector w such
    that the composite state of {V_l} is sum_l |w_l><w_l|: row-major
    flattening of the entrywise conjugate."""
    return np.conj(as_matrix(op)).ravel()


def _composite_matrix(ops: np.ndarray) -> np.ndarray:
    """sum_l |w_l><w_l| over the Choi vectors w_l of ``ops``, the already
    validated ``(r, n, m)`` array of a ``KrausMap``: its operators
    flattened and conjugated, with no second conversion."""
    vectors = ops.reshape(len(ops), -1).conj()  # r x nm, row l = w_l
    return vectors.T @ vectors.conj()


def choi_state(kmap: KrausMap, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Composite state sum_ij E_ij (x) phi(E_ij) of the map, as a validated
    (n*m)-dimensional bipartite state.

    Requires sum_l V_l^dagger V_l to have unit trace, which is exactly what
    makes the result a state; raises ``TraceNotOne`` otherwise.

    Marginals: tracing out the first factor gives ``marginal_K`` exactly;
    tracing out the second gives the entrywise conjugate of ``marginal_L``
    (equal to it whenever the operators are real).
    """
    trace_k = float(np.real(sum(np.vdot(op, op) for op in kmap.ops)))
    if abs(trace_k - 1.0) > tol:
        raise TraceNotOne(
            f"sum of V^dagger V has trace {trace_k:.12g}, expected 1", trace=trace_k
        )
    return validate_state(_composite_matrix(kmap.ops), kmap.n, kmap.m, tol)


def _independence_report(
    criterion: str, kmap: KrausMap, both_sums: bool, tol: float
) -> ExtremalityReport:
    """Rank test on the r^2 rows of the pairs (i, j), pair (i, j) at row
    i * r + j: vec(V_i^dagger V_j), followed by vec(V_j V_i^dagger) when
    ``both_sums``.  The family is independent exactly when the stacked rows
    have full rank r^2.

    Each block is one broadcast ``matmul`` over the family's ``(r, n, m)``
    array, which forms every pair's product exactly as a separate
    ``V_i^dagger @ V_j`` would, so rows and margins are bit-identical to the
    pairwise construction."""
    r = kmap.r
    ops = kmap.ops
    adj = ops.conj().transpose(0, 2, 1)  # the V_l^dagger
    blocks = [np.matmul(adj[:, None], ops[None])]  # [i, j] = V_i^dagger V_j
    if both_sums:
        blocks.append(np.matmul(ops[None], adj[:, None]))  # [i, j] = V_j V_i^dagger
    rows = np.concatenate([block.reshape(r * r, -1) for block in blocks], axis=1)
    decision = rank_with_margin(rows, tol)
    return ExtremalityReport(criterion, r * r, decision.rank, decision.rank == r * r, decision)


def choi_extremality(kmap: KrausMap, tol: float = DEFAULT_TOL) -> ExtremalityReport:
    """Extremality among CP maps with the same value on the identity:
    rank test on the r^2 products V_i^dagger V_j stacked as rows."""
    return _independence_report(CRITERION_CHOI, kmap, False, tol)


def doubly_constrained_extremality(
    kmap: KrausMap, tol: float = DEFAULT_TOL
) -> ExtremalityReport:
    """Extremality among CP maps with both identity values fixed: joint
    rank test on rows [vec(V_i^dagger V_j), vec(V_j V_i^dagger)].

    The verdict transfers verbatim to the composite state: it is extreme in
    the set of states sharing both its marginals iff the family is
    independent.  Coefficients live over the complex field, so the rank is
    computed there.
    """
    return _independence_report(CRITERION_LANDAU_STREATER, kmap, True, tol)


def kraus_from_state(state: BipartiteState, tol: float = DEFAULT_TOL) -> KrausMap:
    """Kraus family whose composite state reproduces ``state``: one operator
    per eigenvalue above ``tol`` (relative), ordered by descending
    eigenvalue, each phased so its largest-magnitude entry is real positive.

    Round trip: ``choi_state(kraus_from_state(rho))`` matches ``rho`` up to
    the rank cutoff.  The family itself is unique only up to a unitary
    mixing, which the ordering and phase convention pin down for tests.
    """
    values, vectors = _support(state, tol)
    ops = []
    for value, vector in zip(values[::-1], vectors.T[::-1]):  # descending eigenvalue
        w = np.sqrt(value) * vector
        op = np.conj(w).reshape(state.dim_a, state.dim_b)
        anchor = op.ravel()[int(np.argmax(np.abs(op)))]
        if abs(anchor) > 0.0:
            op = op * (abs(anchor) / anchor)
        ops.append(op)
    return KrausMap(state.dim_a, state.dim_b, ops)


def extremal_qubit_qutrit_map() -> KrausMap:
    """The bundled two-operator family M_2 -> M_3 with uniform marginal
    sums (identity/3 and identity/2) whose composite state is a rank-two,
    entangled extreme point of the uniform-marginals state set."""
    s6 = 1.0 / np.sqrt(6.0)
    s3 = 1.0 / np.sqrt(3.0)
    v1 = np.array([[0.0, s6, 0.0], [s3, 0.0, 0.0]], dtype=np.complex128)
    v2 = np.array([[0.0, 0.0, s3], [0.0, s6, 0.0]], dtype=np.complex128)
    return KrausMap(2, 3, (v1, v2))


def mix_ops(kmap: KrausMap, unitary) -> KrausMap:
    """Replace V_l by sum_k u_lk V_k for an r x r unitary u.  Leaves the
    composite state and both marginal sums unchanged."""
    u = as_matrix(unitary)
    if u.shape != (kmap.r, kmap.r):
        raise DimensionMismatch(f"mixing matrix is {u.shape}, expected ({kmap.r}, {kmap.r})")
    return KrausMap(kmap.n, kmap.m, np.einsum("lk,kij->lij", u, kmap.ops))


def kraus_to_json(kmap: KrausMap) -> dict:
    """Wire format: {"n": n, "m": m, "ops": [<matrix object>, ...]}."""
    return {
        "n": kmap.n,
        "m": kmap.m,
        "ops": [linalg.matrix_to_json(op) for op in kmap.ops],
    }


def kraus_from_json(obj) -> KrausMap:
    """Parse the Kraus wire format."""
    n, m, ops_json = linalg._wire_fields(obj, "kraus", ("n", "m", "ops"))
    if not isinstance(ops_json, list) or not ops_json:
        raise ValueError("field 'ops': expected a nonempty list of matrices")
    return KrausMap(n, m, [linalg.matrix_from_json(item) for item in ops_json])
