"""Dense complex matrix kernel.

Everything downstream works with 2-D ``numpy.ndarray`` values of dtype
complex128.  Numerical ranks and their margins come from one rule,
``rank_of_values``, on ascending real values: a state's spectrum, or LAPACK
singular values (``numpy.linalg.svd``) in ``rank_with_margin``.  Questions
that read eigenvalues only (positivity, the partial-transpose spectrum, a
reported spectrum) go to LAPACK through ``eigvalsh``
(``numpy.linalg.eigvalsh``).  Eigenvectors come from ``eigh``,
a single pure-Python cyclic Jacobi kernel, due to become
``numpy.linalg.eigh``: every matrix it sees is small (dimension <= 64), it
is deterministic for a fixed input, and its rotation count is easy to audit.
Both share one input contract (``_hermitian_part``), built on a
non-raising core (``_hermitian_split``) that the state validator reads too,
so a state's Hermiticity is checked once.  ``frobenius`` applies the
formula of ``numpy.linalg.norm`` without its argument handling.

All tolerances are relative and flow in as parameters; ``DEFAULT_TOL`` is the
single documented default.
"""

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

#: Relative rank / positivity tolerance used when the caller does not pass one.
DEFAULT_TOL = 1e-8

#: Sweep budget and relative off-diagonal termination threshold for Jacobi.
JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_FACTOR = 1e-12


def as_matrix(value) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries (one
    ``isfinite`` pass: a complex entry is finite when both parts are)."""
    mat = np.asarray(value, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return mat.conj().T


def frobenius(mat: np.ndarray) -> float:
    """Frobenius norm of a complex matrix, by the formula of
    ``numpy.linalg.norm`` without its argument handling, so the values are
    identical: the square root of the dot products of the flattened real and
    imaginary parts with themselves.  The sum of squares is not rescaled,
    so a norm above about 1.3e154 comes out inf, with numpy's overflow
    warning unless the caller silences it."""
    flat = np.asarray(mat, dtype=np.complex128).ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in the lexicographic product-basis convention:
    basis vector e_i (x) f_j of the product maps to index i * dim_b + j."""
    return np.kron(as_matrix(a), as_matrix(b))


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascending; column k of ``eigenvectors`` pairs with
    eigenvalue k, and the input equals U diag(w) U^dagger within tolerance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _jacobi_cyclic(a: np.ndarray, v: np.ndarray, max_sweeps: int, off_tol: float) -> int:
    """Diagonalize the Hermitian matrix ``a`` in place by cyclic Jacobi sweeps.

    ``a`` is overwritten with the (numerically) diagonal matrix and ``v``,
    which must start as the identity, accumulates the unitary so that the
    original matrix equals ``v @ a @ v.conj().T``.  Eigenvalues end up on the
    diagonal of ``a`` unsorted.

    Returns the number of completed sweeps on convergence (off-diagonal
    Frobenius norm <= ``off_tol``), or -1 if ``max_sweeps`` was not enough.
    """
    n = a.shape[0]
    for sweep in range(max_sweeps + 1):
        if _offdiag_norm(a) <= off_tol:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag < 1e-150:  # negligible pivot; rotating risks overflow
                    continue
                phase = apq / mag
                app = a[p, p].real
                aqq = a[q, q].real
                theta = (aqq - app) / (2.0 * mag)
                if abs(theta) > 1e150:
                    t = -1.0 / (2.0 * theta)
                else:
                    sgn = 1.0 if theta >= 0.0 else -1.0
                    t = -sgn / (abs(theta) + np.sqrt(1.0 + theta * theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                new_p = c * col_p + s * np.conj(phase) * col_q
                new_q = -s * phase * col_p + c * col_q
                a[:, p] = new_p
                a[:, q] = new_q
                a[p, :] = np.conj(new_p)
                a[q, :] = np.conj(new_q)
                a[p, p] = c * c * app + 2.0 * c * s * mag + s * s * aqq
                a[q, q] = s * s * app - 2.0 * c * s * mag + c * c * aqq
                a[p, q] = 0.0
                a[q, p] = 0.0

                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p + s * np.conj(phase) * vec_q
                v[:, q] = -s * phase * vec_p + c * vec_q
    return -1


def _hermitian_split(h: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """The non-raising core of the input contract of ``eigh`` and
    ``eigvalsh``, for a square complex128 matrix ``h``: its Hermitian part
    ``(h + h^dagger) / 2``, ``frobenius(h)`` and the deviation
    ``frobenius(h - h^dagger)``.  The norm is inf when its sum of squares
    overflows (finite entries, norm above about 1.3e154); no warning is
    raised for it."""
    adj = dagger(h)
    with np.errstate(over="ignore"):
        return (h + adj) / 2.0, frobenius(h), frobenius(h - adj)


def _hermitian_part(h, tol: float, name: str) -> Tuple[np.ndarray, float]:
    """The input contract shared by ``eigh`` and ``eigvalsh``.

    Returns the Hermitian part ``(h + h^dagger) / 2`` and ``frobenius(h)``
    from ``_hermitian_split``.  Raises ``DimensionMismatch`` for a
    non-square matrix, ``ValueError`` if ``frobenius(h)`` overflows, and
    ``NotHermitian`` if ``h`` deviates from Hermitian by more than
    ``tol * max(1, ||h||_F)``.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"{name} needs a square matrix, got {h.shape}")
    herm, norm, deviation = _hermitian_split(h)
    if not math.isfinite(norm):
        raise ValueError(f"{name}: the matrix's Frobenius norm overflows")
    limit = tol * max(1.0, norm)
    if deviation > limit:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {deviation:.3e} (limit {limit:.3e})"
        )
    return herm, norm


def eigh(
    h: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    For callers that read eigenvectors; a caller that needs eigenvalues
    only uses ``eigvalsh``, which has the same input contract.
    Deterministic for a fixed input: sweeps run in a fixed pivot order and
    stop once the off-diagonal Frobenius norm drops below
    ``JACOBI_OFF_FACTOR * ||h||_F``.  Within degenerate eigenvalue clusters
    the eigenvector order is whatever the rotation sequence produces.

    Raises ``ValueError`` if ``frobenius(h)`` overflows (finite entries,
    norm above about 1.3e154), since the stopping threshold would be inf;
    ``NotHermitian`` if ``h`` is not Hermitian within ``tol``; and
    ``NoConvergence`` if ``max_sweeps`` sweeps do not suffice.
    """
    herm, norm = _hermitian_part(h, tol, "eigh")
    work = np.ascontiguousarray(herm)
    vecs = np.eye(work.shape[0], dtype=np.complex128)
    sweeps = _jacobi_cyclic(work, vecs, max_sweeps, JACOBI_OFF_FACTOR * norm)
    if sweeps < 0:
        raise NoConvergence(f"Jacobi iteration did not converge in {max_sweeps} sweeps")
    values = np.diagonal(work).real.copy()
    order = np.argsort(values, kind="stable")
    return HermitianEigen(values[order], np.ascontiguousarray(vecs[:, order]))


def eigvalsh(h: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, from LAPACK
    (``numpy.linalg.eigvalsh``) on its Hermitian part.

    Same input contract as ``eigh``: ``DimensionMismatch`` for a non-square
    matrix, ``ValueError`` if ``frobenius(h)`` overflows, ``NotHermitian``
    beyond ``tol * max(1, ||h||_F)``.
    """
    herm, _ = _hermitian_part(h, tol, "eigvalsh")
    return np.linalg.eigvalsh(herm)


class RankDecision(NamedTuple):
    """Numerical rank plus the squared values bracketing the cutoff, so a
    near-threshold decision can be audited."""

    rank: int
    smallest_retained: Optional[float]
    largest_discarded: Optional[float]


def rank_of_values(values: np.ndarray, tol: float = DEFAULT_TOL) -> RankDecision:
    """The one rank rule: how many of the ascending real ``values`` lie above
    ``tol * max(largest, 0)``, with the smallest retained and the largest
    discarded value, squared, as the margins.  A negative value is never
    retained and counts as zero in a margin; all-zero input gives
    ``(0, None, 0.0)``.  Squared as Python floats, so that past about 1.3e154
    a margin is inf without numpy's overflow warning."""
    rank = int(np.count_nonzero(values > tol * max(float(values[-1]), 0.0)))
    kept = float(values[-rank]) if rank else None
    dropped = max(float(values[-rank - 1]), 0.0) if rank < len(values) else None
    return RankDecision(
        rank,
        None if kept is None else kept * kept,
        None if dropped is None else dropped * dropped,
    )


def rank_with_margin(mat: np.ndarray, tol: float = DEFAULT_TOL) -> RankDecision:
    """Numerical rank of a rectangular matrix with the decision margin:
    ``rank_of_values`` of its singular values, margins on the Gram (squared)
    scale.  The singular values come from LAPACK (``numpy.linalg.svd``) on the
    matrix itself, never from a formed product, whose rounding noise (about
    1e-15 of the top Gram eigenvalue) would drown the ``tol^2`` cutoff."""
    return rank_of_values(np.linalg.svd(as_matrix(mat), compute_uv=False)[::-1], tol)


def numerical_rank(mat: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``tol`` relative to the largest."""
    return rank_with_margin(mat, tol).rank


def matrix_to_json(mat: np.ndarray) -> dict:
    """Wire format: {"rows": r, "cols": c, "entries": [[re, im], ...]} with
    entries row-major."""
    mat = as_matrix(mat)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in mat.ravel()],
    }


def is_positive_int(value) -> bool:
    """Whether a parsed JSON value is a positive integer; JSON booleans,
    which Python treats as ints, are not."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _wire_fields(obj, kind: str, fields: Tuple[str, ...]) -> list:
    """The ``fields`` of the parsed ``kind`` wire object ``obj``, in order;
    every field but the last is a count and must be ``is_positive_int``.
    Each failure is one ``ValueError`` that names the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} object: expected a JSON object")
    for field in fields:
        if field not in obj:
            raise ValueError(f"{kind} object: missing field '{field}'")
    for field in fields[:-1]:
        if not is_positive_int(obj[field]):
            raise ValueError(f"field '{field}': expected a positive integer")
    return [obj[field] for field in fields]


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix wire format, naming the offending field on error.

    Refuses integers too large for a double, non-finite entries, and
    matrices whose ``frobenius`` norm is not finite (its sum of squares
    overflows above about 1.3e154): every later tolerance is relative to
    that norm."""
    rows, cols, entries = _wire_fields(obj, "matrix", ("rows", "cols", "entries"))
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(
            f"field 'entries': expected {rows * cols} [re, im] pairs, "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    flat = np.empty(rows * cols, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ValueError(f"field 'entries[{k}]': expected an [re, im] number pair")
        try:
            flat[k] = complex(pair[0], pair[1])
        except OverflowError:  # a JSON integer beyond the double range
            raise ValueError(f"field 'entries[{k}]': number too large for a double") from None
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise ValueError("field 'entries': entries must be finite")
    with np.errstate(over="ignore"):
        norm = frobenius(flat)
    if not np.isfinite(norm):
        raise ValueError("field 'entries': the matrix's Frobenius norm overflows")
    return flat.reshape(rows, cols)
