"""Bipartite density matrices and their marginal structure.

A state on an (n*m)-dimensional space is tagged with its factor dimensions
(dim_a=n, dim_b=m).  The product basis is ordered lexicographically:
e_i (x) f_k sits at index i*m + k, the order of ``numpy.kron``.

Includes the partial traces, the partial transpose, the PPT verdict
(conclusive at 2x2, 2x3 and with a 1-dimensional factor), maximally
entangled two-qubit projectors, the extremality rank bound for
fixed-marginal state sets, and a representation-free extremality oracle:
the kernel dimension of the linear map taking a matrix X on the state's
range to the two marginals of B X B^dagger, B an isometry onto that range
(Landau-Streater).

A state comes only from the state rule, ``_checked``, which every factory
here and in ``cpmaps`` goes through, and always carries its spectrum,
``BipartiteState.spectrum``: the LAPACK eigenvalues of the rule's
positivity check, which the rank bound, the oracle's support and the Kraus
recovery read.  The partial-transpose spectrum goes through
``linalg.eigvalsh`` and the support basis through ``linalg.eigh``
(``_support``); this module has no cutoff of its own.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import check_tol, linalg, sampling
from .errors import DimensionMismatch, NotHermitian, NotPSD, TraceNotOne
from .linalg import DEFAULT_TOL, as_matrix, check_counts, eigh, eigvalsh, numerical_rank

#: Factor-dimension pairs where PPT is necessary *and sufficient* for
#: separability, besides a 1-dimensional factor (every state a product).
CONCLUSIVE_DIMS = frozenset({(2, 2), (2, 3), (3, 2)})

VERDICT_SEPARABLE = "separable"
VERDICT_ENTANGLED = "entangled"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False, init=False)
class BipartiteState:
    """A density matrix on C^dim_a (x) C^dim_b.

    Made only by the state rule (``_checked``), once the matrix passes it:
    ``validate_state`` and every factory of the package go through that
    rule, and calling the class or ``dataclasses.replace`` raises
    ``TypeError``.  ``mat`` and its ascending ``spectrum`` are read-only.
    Two states are equal only when they are the same object.
    """

    dim_a: int
    dim_b: int
    mat: np.ndarray
    spectrum: np.ndarray


@dataclass(frozen=True)
class Violation:
    """One failed density-matrix invariant."""

    kind: str  # "dimension" | "not_hermitian" | "not_psd" | "trace_not_one"
    message: str
    value: Optional[float] = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "message": self.message, "value": self.value}


@dataclass(frozen=True, eq=False)
class PptReport:
    """Outcome of the partial-transpose test.

    ``spectrum`` is the ascending spectrum of the partially transposed
    matrix.  ``is_ppt`` holds when ``min_eigenvalue`` is at or above
    ``threshold = -tol * max(1, ||PT||_F)``, so their difference is the
    margin of the decision.  The verdict is "separable" only in conclusive
    dimensions, "entangled" whenever PPT fails (sufficient in any
    dimension), and "inconclusive" otherwise.
    """

    spectrum: np.ndarray
    min_eigenvalue: float
    is_ppt: bool
    verdict: str
    threshold: float

    def to_json(self) -> dict:
        return {
            "spectrum": [float(x) for x in self.spectrum],
            "min_eigenvalue": float(self.min_eigenvalue),
            "is_ppt": bool(self.is_ppt),
            "verdict": self.verdict,
            "threshold": float(self.threshold),
        }


def state_violations(mat, dim_a: int, dim_b: int, tol: float = DEFAULT_TOL) -> List[Violation]:
    """Every density-matrix invariant that ``mat`` violates, in check order
    (dimensions, Hermiticity, positivity, trace).  Empty list means valid.
    Raises ``ValueError`` if ``||mat||_F`` overflows or ``tol`` lies outside
    (0, 1)."""
    return _checked(as_matrix(mat), dim_a, dim_b, tol)[0]


def _checked(
    mat: np.ndarray, dim_a: int, dim_b: int, tol: float
) -> Tuple[List[Violation], Optional[BipartiteState]]:
    """``state_violations`` of a matrix ``as_matrix`` has already converted
    and, when there are none, the state made from it: the only code that
    makes a ``BipartiteState``, holding a read-only copy of ``mat``.

    One Hermiticity pass (``linalg._hermitian_split``) gives the scale
    ``max(1, ||mat||_F)``, the deviation from Hermitian and the Hermitian
    part, whose LAPACK eigenvalues become the state's read-only
    ``spectrum``."""
    check_tol(tol)
    if dim_a < 1 or dim_b < 1:
        return [Violation("dimension", "factor dimensions must be positive")], None
    d = dim_a * dim_b
    if mat.shape != (d, d):
        return [
            Violation(
                "dimension",
                f"matrix is {mat.shape[0]}x{mat.shape[1]}, expected {d}x{d} "
                f"for dims ({dim_a}, {dim_b})",
            )
        ], None
    herm, norm, herm_dev = linalg._hermitian_split(mat, "state_violations")
    out: List[Violation] = []
    scale = max(1.0, norm)
    if herm_dev > tol * scale:
        out.append(
            Violation("not_hermitian", f"Hermiticity deviation {herm_dev:.3e}", herm_dev)
        )
    else:
        spectrum = np.linalg.eigvalsh(herm)
        lam_min = float(spectrum[0])
        if lam_min < -tol * scale:
            out.append(
                Violation(
                    "not_psd",
                    f"minimum eigenvalue {lam_min:.3e} below {-tol * scale:.3e}",
                    lam_min,
                )
            )
    trace = complex(np.trace(mat))
    if abs(trace - 1.0) > tol:
        out.append(Violation("trace_not_one", f"trace is {trace.real:.12g}", trace.real))
    if out:
        return out, None
    mat = mat.copy()
    mat.setflags(write=False)
    spectrum.setflags(write=False)
    state = object.__new__(BipartiteState)
    vars(state).update(dim_a=dim_a, dim_b=dim_b, mat=mat, spectrum=spectrum)
    return out, state


def validate_state(mat, dim_a: int, dim_b: int, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Check the density-matrix invariants and wrap ``mat`` as a state.

    ``mat`` is converted once (``as_matrix``), and the state keeps the
    spectrum of the positivity check.  Raises the error named by the first
    violation; the exception's message includes every finding.  Use
    ``state_violations`` for the structured list without the raise.
    """
    return _validated(as_matrix(mat), dim_a, dim_b, tol)


def _validated(mat: np.ndarray, dim_a: int, dim_b: int, tol: float, prefix: str = ""):
    """``validate_state`` of a converted matrix, ``prefix`` opening the
    message of a refusal."""
    violations, state = _checked(mat, dim_a, dim_b, tol)
    if state is not None:
        return state
    summary = prefix + "; ".join(v.message for v in violations)
    first = violations[0]
    if first.kind == "dimension":
        raise DimensionMismatch(summary)
    if first.kind == "not_hermitian":
        raise NotHermitian(summary)
    if first.kind == "not_psd":
        raise NotPSD(summary, min_eigenvalue=first.value)
    raise TraceNotOne(summary, trace=first.value)


def _blocks(mat: np.ndarray, n: int, m: int) -> np.ndarray:
    return mat.reshape(n, m, n, m)


def partial_trace_b(state: BipartiteState) -> np.ndarray:
    """First marginal: trace out the second factor, leaving dim_a x dim_a."""
    return np.einsum("ikjk->ij", _blocks(state.mat, state.dim_a, state.dim_b))


def partial_trace_a(state: BipartiteState) -> np.ndarray:
    """Second marginal: trace out the first factor, leaving dim_b x dim_b."""
    return np.einsum("ikil->kl", _blocks(state.mat, state.dim_a, state.dim_b))


def partial_transpose_b(state: BipartiteState) -> np.ndarray:
    """Transpose the second factor in place: each dim_b x dim_b block of the
    product-basis matrix is transposed.  Hermitian and trace preserving, but
    the result need not be positive."""
    blocks = _blocks(state.mat, state.dim_a, state.dim_b)
    d = state.dim_a * state.dim_b
    return np.ascontiguousarray(blocks.transpose(0, 3, 2, 1).reshape(d, d))


def ppt_check(state: BipartiteState, tol: float = DEFAULT_TOL) -> PptReport:
    """Spectrum test of the partial transpose.

    A negative eigenvalue certifies entanglement in any dimension.  A
    positive partial transpose certifies separability at 2x2, 2x3 and with
    a 1-dimensional factor; anywhere else the verdict stays "inconclusive".
    """
    pt = partial_transpose_b(state)
    spectrum = eigvalsh(pt, tol)
    lam_min = float(spectrum[0])
    threshold = -tol * max(1.0, float(np.linalg.norm(pt)))
    is_ppt = lam_min >= threshold
    if not is_ppt:
        verdict = VERDICT_ENTANGLED
    elif min(state.dim_a, state.dim_b) == 1 or (state.dim_a, state.dim_b) in CONCLUSIVE_DIMS:
        verdict = VERDICT_SEPARABLE
    else:
        verdict = VERDICT_INCONCLUSIVE
    return PptReport(spectrum, lam_min, is_ppt, verdict, threshold)


def max_entangled_projector(f_basis, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Rank-one projector onto (e_1 (x) f_1 + e_2 (x) f_2)/sqrt(2) in
    C^2 (x) C^2, where f_1, f_2 are the columns of the unitary ``f_basis``:
    a state with both marginals maximally mixed, made by the state rule at
    ``tol`` (``TraceNotOne`` for a basis so near the unitarity limit that
    the trace strays past ``tol``)."""
    f = linalg._unitary(f_basis, 2, tol, "basis matrix")
    vec = f.T.ravel() / np.sqrt(2.0)  # (e_1 (x) f_1 + e_2 (x) f_2) / sqrt(2)
    return _validated(np.outer(vec, vec.conj()), 2, 2, tol)


def parthasarathy_bound(dim_a: int, dim_b: int) -> int:
    """Largest rank an extreme point of a fixed-marginals state set can
    have: floor(sqrt(dim_a^2 + dim_b^2 - 1))."""
    return math.isqrt(dim_a * dim_a + dim_b * dim_b - 1)


def check_rank_bound(state: BipartiteState, tol: float = DEFAULT_TOL) -> bool:
    """Whether the rank of the state's spectrum (``rank_of_values``) respects
    ``parthasarathy_bound``; a violation rules out extremality outright."""
    rank = linalg.rank_of_values(state.spectrum, tol).rank
    return rank <= parthasarathy_bound(state.dim_a, state.dim_b)


def _support(state: BipartiteState, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of ``state`` on its support:
    the top ``rank_of_values`` values of ``state.spectrum``, the count
    ``check_rank_bound`` reads, with the matching top columns of ``eigh``,
    whose input contract checks ``state.mat`` at ``tol``."""
    _, vectors = eigh(state.mat, tol)
    start = len(state.spectrum) - linalg.rank_of_values(state.spectrum, tol).rank
    return state.spectrum[start:], vectors[:, start:]


def perturbation_freedom_dim(state: BipartiteState, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the real vector space of Hermitian perturbations that
    stay on the state's range and leave both marginals untouched.

    Zero means the state is an extreme point of the convex set of states
    sharing its marginals; any nonzero direction generates a segment inside
    that set.  Works directly on the state, with no reference to a Kraus
    presentation.

    With the support eigenvectors as the columns of B, reshaped to
    (n, m, r), the count is the kernel dimension of the complex-linear
    constraint map X -> (tr_A B X B^dagger, tr_B B X B^dagger) on r x r
    matrices.  That kernel is closed under the adjoint, so its complex
    dimension equals the real dimension of its Hermitian part.
    """
    _, basis = _support(state, tol)
    r = basis.shape[1]
    b = basis.reshape(state.dim_a, state.dim_b, r)
    to_a = np.einsum("ika,ilb->klab", b, b.conj()).reshape(-1, r * r)  # tr_A, m^2 rows
    to_b = np.einsum("ika,jkb->ijab", b, b.conj()).reshape(-1, r * r)  # tr_B, n^2 rows
    return r * r - numerical_rank(np.concatenate([to_a, to_b]), tol)


def random_separable(dim_a: int, dim_b: int, k: int, seed: int) -> BipartiteState:
    """Convex combination of ``k`` product states with random weights,
    deterministic per seed, a non-negative integer (``sampling.generator``).
    Separable by construction, so its partial transpose is positive in any
    dimension.

    Any k >= 1 is accepted; nothing ties the number of terms to the factor
    dimensions.
    """
    check_counts(dim_a=dim_a, dim_b=dim_b, k=k)
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatch("factor dimensions must be positive")
    if k < 1:
        raise ValueError("need at least one product term")
    rng = sampling.generator(seed)
    weights = sampling.random_probability_vector(rng, k)
    d = dim_a * dim_b
    mat = np.zeros((d, d), dtype=np.complex128)
    for weight in weights:
        rho_a = sampling.random_density_matrix(rng, dim_a)
        rho_b = sampling.random_density_matrix(rng, dim_b)
        mat += weight * np.kron(rho_a, rho_b)
    return validate_state(mat, dim_a, dim_b)


def state_to_json(state: BipartiteState) -> dict:
    """Wire format: {"dim_a": n, "dim_b": m, "matrix": <matrix object>}."""
    return {
        "dim_a": state.dim_a,
        "dim_b": state.dim_b,
        "matrix": linalg.matrix_to_json(state.mat),
    }


#: The fields of the state wire object.
STATE_FIELDS = ("dim_a", "dim_b", "matrix")


def _state_fields(obj) -> Tuple[int, int, np.ndarray]:
    """``(dim_a, dim_b, matrix)`` of a state wire object, not yet validated."""
    dim_a, dim_b, matrix = linalg._wire_fields(obj, "state", STATE_FIELDS)
    return dim_a, dim_b, linalg.matrix_from_json(matrix)


def state_from_json(obj, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Parse and validate the state wire format."""
    dim_a, dim_b, mat = _state_fields(obj)
    return validate_state(mat, dim_a, dim_b, tol)
