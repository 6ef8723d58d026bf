"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes a different route from the package code:
numpy.linalg for spectra, bra-ket sums for partial traces, index loops for
partial transposes, the definitional double sum for composite states, and
operator Sinkhorn scaling through eigendecompositions of formed sums where
the package takes SVDs of stacked operators, and independence rows formed
one operator pair at a time where the package forms them for the whole
stack at once.
The exceptions are ``np_rank``, since the package also counts singular
values from LAPACK (rank checks that do not lean on the same routine live
in ``test_properties.py`` and take their expected ranks from the
construction), ``sinkhorn_by_svd`` with its ``polar_by_mask``, a
frozen copy of the package's earlier SVD loop that the current one must
match bit for bit, and ``apply_by_loop``, ``dual_apply_by_loop`` and
``kraus_ops_by_loop``, frozen copies of the per-operator loops that the
map's action and the Kraus recovery ran before they read the family as one
array, which must match them bit for bit too.
"""

import numpy as np


def np_rank(mat, tol=1e-10):
    return int(np.linalg.matrix_rank(np.asarray(mat, dtype=complex), tol=tol))


def ptrace_b_bra_ket(mat, n, m):
    """Trace out the second factor via sum_k (1 (x) <k|) M (1 (x) |k>)."""
    mat = np.asarray(mat, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for k in range(m):
        ket = np.zeros((m, 1), dtype=complex)
        ket[k, 0] = 1.0
        bra = np.kron(eye, ket.conj().T)  # n x (n*m)
        out += bra @ mat @ bra.conj().T
    return out


def ptrace_a_bra_ket(mat, n, m):
    """Trace out the first factor via sum_k (<k| (x) 1) M (|k> (x) 1)."""
    mat = np.asarray(mat, dtype=complex)
    out = np.zeros((m, m), dtype=complex)
    eye = np.eye(m)
    for k in range(n):
        ket = np.zeros((n, 1), dtype=complex)
        ket[k, 0] = 1.0
        bra = np.kron(ket.conj().T, eye)  # m x (n*m)
        out += bra @ mat @ bra.conj().T
    return out


def ptranspose_b_loops(mat, n, m):
    """Second-factor transpose by explicit index permutation."""
    mat = np.asarray(mat, dtype=complex)
    out = np.empty_like(mat)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    out[i * m + k, j * m + l] = mat[i * m + l, j * m + k]
    return out


def choi_by_definition(ops, n, m):
    """Composite state as the double sum of unit matrices tensored with map
    values, entirely from the definition."""
    d = n * m
    out = np.zeros((d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            phi = np.zeros((m, m), dtype=complex)
            for op in ops:
                phi += op.conj().T @ unit @ op
            out += np.kron(unit, phi)
    return out


def perturbation_dim_brute(mat, n, m, tol=1e-10):
    """Count trace-compatible perturbation directions by brute force.

    Parametrizes Hermitian matrices supported on the range of ``mat`` over
    an explicit real basis, stacks the real-linear marginal constraints and
    measures the nullspace with an SVD rank.  Uses numpy.linalg throughout.
    """
    mat = np.asarray(mat, dtype=complex)
    w, u = np.linalg.eigh(mat)
    keep = w > tol * w.max()
    vecs = u[:, keep]
    r = vecs.shape[1]
    basis = []
    for i in range(r):
        basis.append(np.outer(vecs[:, i], vecs[:, i].conj()))
    for i in range(r):
        for j in range(i + 1, r):
            x = np.outer(vecs[:, i], vecs[:, j].conj())
            basis.append(x + x.conj().T)
            basis.append(1j * (x - x.conj().T))
    rows = []
    for delta in basis:
        ta = ptrace_a_bra_ket(delta, n, m)
        tb = ptrace_b_bra_ket(delta, n, m)
        rows.append(
            np.concatenate([ta.real.ravel(), ta.imag.ravel(), tb.real.ravel(), tb.imag.ravel()])
        )
    constraints = np.array(rows)
    return r * r - int(np.linalg.matrix_rank(constraints, tol=1e-10))


def random_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return g @ g.conj().T


def _np_root_and_inv_root(mat, tol):
    """Root, pseudo-inverse root and support rank of a PSD matrix from
    numpy.linalg.eigh; eigenvalues above tol * max(1, lambda_max) count as
    support."""
    w, u = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    support = w > tol * max(1.0, w[-1])
    inv = np.zeros_like(w)
    inv[support] = 1.0 / np.sqrt(w[support])
    return (u * np.sqrt(w)) @ u.conj().T, (u * inv) @ u.conj().T, int(support.sum())


def sinkhorn_by_eigh(ops, target_k, target_l, max_iter, residual_tol=1e-10, tol=1e-8):
    """Operator Sinkhorn scaling over a list of operators, with each inverse
    root taken from numpy.linalg.eigh of the explicitly formed sum.

    Returns ``(outcome, iterations, ops)`` with outcome "converged",
    "no_convergence" or "singular"; ``ops`` is None for "singular".
    """
    ops = [np.asarray(op, dtype=complex) for op in ops]
    target_k = np.asarray(target_k, dtype=complex)
    target_l = np.asarray(target_l, dtype=complex)
    sqrt_k, _, rank_k = _np_root_and_inv_root(target_k, tol)
    sqrt_l, _, rank_l = _np_root_and_inv_root(target_l, tol)

    def off_target(ops):
        sum_k = sum(op.conj().T @ op for op in ops)
        sum_l = sum(op @ op.conj().T for op in ops)
        worst = max(np.linalg.norm(sum_k - target_k), np.linalg.norm(sum_l - target_l))
        return worst > residual_tol

    iterations = 0
    while off_target(ops):
        if iterations == max_iter:
            return "no_convergence", iterations, ops
        _, inv_sk, rank_sk = _np_root_and_inv_root(sum(op.conj().T @ op for op in ops), tol)
        if rank_sk < rank_k:
            return "singular", iterations, None
        ops = [op @ inv_sk @ sqrt_k for op in ops]
        _, inv_sl, rank_sl = _np_root_and_inv_root(sum(op @ op.conj().T for op in ops), tol)
        if rank_sl < rank_l:
            return "singular", iterations, None
        ops = [sqrt_l @ inv_sl @ op for op in ops]
        iterations += 1
    return "converged", iterations, ops


def polar_by_mask(stack, tol):
    """Factors U_k, V_k^dagger of a stack's polar factor on its support, k
    counted by masking every squared singular value against
    ``tol * max(1, sigma_max^2)`` and the thin SVD cut to that prefix."""
    u, sigmas, vh = np.linalg.svd(stack, full_matrices=False)
    grams = sigmas * sigmas
    k = int(np.count_nonzero(grams > tol * max(1.0, float(grams[0]))))
    return u[:, :k], vh[:k]


def sinkhorn_by_svd(ops, config, tol=1e-8):
    """The SVD half-step Sinkhorn loop as it stood before its half-steps
    wrote into one buffer, kept as a reference for that rewrite: each
    half-step reshapes the ``(n, r, m)`` family into a stack, builds a new
    family from the stack's polar factor on its support times the target
    root, and the residuals come from ``np.linalg.norm``.  Reads the targets,
    roots and spectra of the ``ScalingConfig`` ``config``.

    Returns ``(outcome, iterations, message, family, history)`` with outcome
    "converged", "no_convergence" or "singular"; ``message`` is the text of
    the exception the loop raised (None when converged), and ``family``
    (``(r, n, m)``) and ``history`` are None for "singular".
    """
    family = np.stack([np.asarray(op, dtype=complex) for op in ops], axis=1)
    n, r, m = family.shape
    target_k, target_l = config.target_K, config.target_L
    sqrt_k, sqrt_l = config._root_K, config._root_L

    def support_rank(values, largest):
        return int(np.count_nonzero(values > tol * max(1.0, largest)))

    def residuals(family):
        cols = family.reshape(n * r, m)
        rows = family.reshape(n, r * m)
        return (
            float(np.linalg.norm(cols.conj().T @ cols - target_k)),
            float(np.linalg.norm(rows @ rows.conj().T - target_l)),
        )

    rank_k = support_rank(config._spectrum_K, float(config._spectrum_K[-1]))
    rank_l = support_rank(config._spectrum_L, float(config._spectrum_L[-1]))
    history = [residuals(family)]
    iterations = 0
    while max(history[-1]) > config.residual_tol and iterations < config.max_iter:
        u, vh = polar_by_mask(family.reshape(n * r, m), tol)
        if len(vh) < rank_k:
            message = f"sum V^dagger V has rank {len(vh)}, below the target rank {rank_k}"
            return "singular", iterations, message, None, None
        family = (u @ (vh @ sqrt_k)).reshape(n, r, m)
        u, vh = polar_by_mask(family.reshape(n, r * m), tol)
        if len(vh) < rank_l:
            message = f"sum V V^dagger has rank {len(vh)}, below the target rank {rank_l}"
            return "singular", iterations, message, None, None
        family = (sqrt_l @ (u @ vh)).reshape(n, r, m)
        iterations += 1
        history.append(residuals(family))
    res_k, res_l = history[-1]
    if max(res_k, res_l) <= config.residual_tol:
        outcome, message = "converged", None
    else:
        outcome = "no_convergence"
        message = (
            f"residuals ({res_k:.3e}, {res_l:.3e}) above {config.residual_tol:.1e} "
            f"after {iterations} iterations"
        )
    return outcome, iterations, message, family.transpose(1, 0, 2), np.array(history)


def extremality_rows_by_pairs(ops, both_sums):
    """The r^2 rows of the independence tests built one pair at a time, pair
    (i, j) at row i * r + j: vec(V_i^dagger V_j), followed by
    vec(V_j V_i^dagger) when ``both_sums``."""
    rows = []
    for vi in ops:
        for vj in ops:
            row = [np.ravel(vi.conj().T @ vj)]
            if both_sums:
                row.append(np.ravel(vj @ vi.conj().T))
            rows.append(np.concatenate(row))
    return np.array(rows)


def apply_by_loop(ops, a):
    """sum_l V_l^dagger A V_l accumulated one operator at a time."""
    out = np.zeros((ops[0].shape[1],) * 2, dtype=np.complex128)
    for op in ops:
        out += op.conj().T @ a @ op
    return out


def dual_apply_by_loop(ops, b):
    """sum_l V_l B V_l^dagger accumulated one operator at a time."""
    out = np.zeros((ops[0].shape[0],) * 2, dtype=np.complex128)
    for op in ops:
        out += op @ b @ op.conj().T
    return out


def kraus_ops_by_loop(values, vectors, n, m):
    """Kraus operators from a state's support (ascending eigenvalues and
    their eigenvector columns): one per value, in descending order, each
    phased so its largest-magnitude entry is real positive, with the guard
    for a zero anchor that the loop once carried."""
    ops = []
    for value, vector in zip(values[::-1], vectors.T[::-1]):
        w = np.sqrt(value) * vector
        op = np.conj(w).reshape(n, m)
        anchor = op.ravel()[int(np.argmax(np.abs(op)))]
        if abs(anchor) > 0.0:
            op = op * (abs(anchor) / anchor)
        ops.append(op)
    return ops
