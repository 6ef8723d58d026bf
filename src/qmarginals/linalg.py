"""Dense complex matrix kernel, keeping only what numpy lacks.

Values are 2-D complex128 arrays; norms, adjoints and Kronecker products
are numpy's (``numpy.linalg.norm``, ``.conj().T``, ``numpy.kron``, whose
basis order is the package's).  Kept here:

* ``as_matrix``: numpy's conversion refuses neither NaN/inf nor a shape.
* The Hermitian contract (``_hermitian_split``, ``_hermitian_part``):
  ``numpy.linalg.eigh`` reads one triangle and checks nothing.  The state
  validator reads the split too, so a state's Hermiticity is checked once.
* The rank rule ``rank_of_values`` with the margins ``matrix_rank`` does
  not report, for a state's spectrum and, in ``rank_with_margin``, LAPACK
  singular values.  Sinkhorn's support counts use
  ``DEFAULT_TOL * max(1, largest)`` instead (``scaling._support_mask``).
* The unitarity rule ``_unitary``, the wire format (``matrix_to_json``,
  ``matrix_from_json``) and the count rules: numpy has none of them.
* ``eigh``, the Jacobi kernel, until it becomes ``numpy.linalg.eigh``.
  Which eigen-solver answers which question is said once, at ``eigvalsh``
  (eigenvalues only, LAPACK) and ``eigh`` (eigenvectors, Jacobi).

All tolerances are relative and flow in as parameters, except the Sinkhorn
search's, which is ``DEFAULT_TOL``, the single documented default.  It is
defined in the package root, where the CLI reads it without numpy, and
re-exported here.  Every tolerance obeys the package's one rule
(``check_tol``: 0 < tol < 1), which ``_hermitian_part`` and
``rank_of_values`` apply.
"""

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import DEFAULT_TOL, check_tol
from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotUnitary

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


def _hermitian_split(h: np.ndarray, name: str) -> Tuple[np.ndarray, float, float]:
    """The core of the input contract of ``eigh``, ``eigvalsh`` and the
    state rule, for a square complex128 matrix ``h``: its Hermitian part
    ``(h + h^dagger) / 2``, ``||h||_F`` and ``||h - h^dagger||_F``
    (``numpy.linalg.norm``).  An overflowing norm (finite entries, above
    about 1.3e154) raises, warning-free, ``ValueError`` naming ``name``."""
    adj = h.conj().T
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(h))
        if not math.isfinite(norm):
            raise ValueError(f"{name}: the matrix's Frobenius norm overflows")
        return (h + adj) / 2.0, norm, float(np.linalg.norm(h - adj))


def _hermitian_part(h, tol: float, name: str) -> Tuple[np.ndarray, float]:
    """The input contract shared by ``eigh`` and ``eigvalsh``.

    Returns the Hermitian part ``(h + h^dagger) / 2`` and ``||h||_F``
    from ``_hermitian_split``, which refuses an overflowing ``||h||_F``.
    Raises ``DimensionMismatch`` for a non-square matrix and
    ``NotHermitian`` if ``h`` deviates from Hermitian by more than
    ``tol * max(1, ||h||_F)``.  A ``tol`` outside (0, 1) is refused
    (``check_tol``).
    """
    check_tol(tol)
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"{name} needs a square matrix, got {h.shape}")
    herm, norm, deviation = _hermitian_split(h, name)
    limit = tol * max(1.0, norm)
    if deviation > limit:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {deviation:.3e} (limit {limit:.3e})"
        )
    return herm, norm


def eigh(h: np.ndarray, tol: float = DEFAULT_TOL) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations:
    the pair ``(eigenvalues, eigenvectors)`` that ``numpy.linalg.eigh``
    returns, eigenvalues ascending and column k of the unitary paired with
    eigenvalue k, so that ``h`` equals U diag(w) U^dagger within tolerance.

    For callers that read eigenvectors; a caller that needs eigenvalues
    only uses ``eigvalsh``, which has the same input contract.  A single
    pure-Python kernel, due to become ``numpy.linalg.eigh``: its rotation
    count is easy to audit, but every rotation is a few numpy calls, so a
    256 x 256 state takes about 9 s on a 2-core host.  Its one caller is
    ``bipartite._support``, the support basis behind the perturbation
    oracle and the Kraus recovery; the Sinkhorn targets' roots come from
    LAPACK (``numpy.linalg.eigh``) in ``scaling.ScalingConfig``.
    Deterministic for a fixed input: sweeps run in a fixed pivot order and
    stop once the off-diagonal Frobenius norm drops below
    ``JACOBI_OFF_FACTOR * ||h||_F``.  Within degenerate eigenvalue clusters
    the eigenvector order is whatever the rotation sequence produces.

    Raises ``ValueError`` if ``||h||_F`` overflows (finite entries,
    norm above about 1.3e154), since the stopping threshold would be inf;
    ``NotHermitian`` if ``h`` is not Hermitian within ``tol``; and
    ``NoConvergence`` if ``JACOBI_MAX_SWEEPS`` sweeps do not suffice.
    """
    herm, norm = _hermitian_part(h, tol, "eigh")
    work = np.ascontiguousarray(herm)
    vecs = np.eye(work.shape[0], dtype=np.complex128)
    sweeps = _jacobi_cyclic(work, vecs, JACOBI_MAX_SWEEPS, JACOBI_OFF_FACTOR * norm)
    if sweeps < 0:
        raise NoConvergence(f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    values = np.diagonal(work).real.copy()
    order = np.argsort(values, kind="stable")
    return values[order], np.ascontiguousarray(vecs[:, order])


def eigvalsh(h: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, from LAPACK
    (``numpy.linalg.eigvalsh``) on its Hermitian part.

    Questions that read eigenvalues only go to LAPACK: a state's once, in
    the state rule (``bipartite._checked``), kept as
    ``BipartiteState.spectrum``; any other matrix, the partial transpose
    say, through this function.

    Same input contract as ``eigh``: ``DimensionMismatch`` for a non-square
    matrix, ``ValueError`` if ``||h||_F`` overflows, ``NotHermitian``
    beyond ``tol * max(1, ||h||_F)``.
    """
    herm, _ = _hermitian_part(h, tol, "eigvalsh")
    return np.linalg.eigvalsh(herm)


def _unitary(value, size: int, tol: float, name: str) -> np.ndarray:
    """The one unitarity rule: ``value`` as a size x size matrix u with
    ||u^dagger u - 1||_F <= tol * max(1, ||u||_F), finite; else
    ``DimensionMismatch`` or ``NotUnitary`` naming ``name``."""
    check_tol(tol)
    u = np.asarray(value, dtype=np.complex128)
    if u.shape != (size, size):
        raise DimensionMismatch(f"{name} is {u.shape}, expected ({size}, {size})")
    u = as_matrix(u)
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = float(np.linalg.norm(u.conj().T @ u - np.eye(size)))
        limit = tol * max(1.0, float(np.linalg.norm(u)))
    if not deviation <= limit < math.inf:
        raise NotUnitary(f"{name} deviates from unitary by {deviation:.3e} (limit {limit:.3e})")
    return u


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
    a margin is inf without numpy's overflow warning.  A ``tol`` outside
    (0, 1) is refused (``check_tol``)."""
    check_tol(tol)
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


def _is_int(value) -> bool:
    """An integer, Python or numpy; booleans, Python's ints, are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_positive_int(value) -> bool:
    """Whether ``value`` is an integer (``_is_int``) of at least 1."""
    return _is_int(value) and int(value) >= 1


def check_counts(**counts) -> None:
    """``ValueError`` naming the first of ``counts`` that is not an integer
    (``_is_int``); one below 1 is left to the caller's own error."""
    for name, value in counts.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


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
    matrices whose Frobenius norm is not finite (its sum of squares
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
        norm = np.linalg.norm(flat)
    if not np.isfinite(norm):
        raise ValueError("field 'entries': the matrix's Frobenius norm overflows")
    return flat.reshape(rows, cols)
