import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import np_rank, random_hermitian, random_psd

from qmarginals import (
    DEFAULT_TOL,
    NoConvergence,
    NotHermitian,
    ScalingConfig,
    check_rank_bound,
    check_tol,
    choi_extremality,
    choi_state,
    doubly_constrained_extremality,
    eigh,
    extremal_qubit_qutrit_map,
    kraus_from_state,
    matrix_from_json,
    matrix_to_json,
    max_entangled_projector,
    numerical_rank,
    partial_transpose_b,
    perturbation_freedom_dim,
    ppt_check,
    random_kraus,
    rank_of_values,
    rank_with_margin,
    state_violations,
    validate_state,
)
from qmarginals import DimensionMismatch
from qmarginals.linalg import as_matrix, is_positive_int
from qmarginals.scaling import _residual_meter


def test_kron_identities():
    assert np.array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_block_placement():
    c = np.arange(9).reshape(3, 3).astype(complex)
    out = np.kron(np.array([[0, 1], [0, 0]]), c)
    assert np.array_equal(out[:3, 3:], c)
    out[:3, 3:] = 0
    assert not out.any()


def test_kron_block_contribution_of_example(example_matrix):
    # the (0,0) block of the example state is exactly diag(0, 1/6, 1/3)
    block = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1 / 6, 1 / 3]))
    assert np.abs(block[:3, :3] - example_matrix[:3, :3]).max() < 1e-15
    assert not block[3:, :].any() and not block[:, 3:].any()


def test_kron_associative_and_trace_multiplicative():
    rng = np.random.default_rng(7)
    a = rng.integers(-3, 4, size=(2, 2)).astype(complex)
    b = rng.integers(-3, 4, size=(3, 2)).astype(complex)
    c = rng.integers(-3, 4, size=(2, 3)).astype(complex)
    assert np.array_equal(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)))
    sq = rng.integers(-3, 4, size=(3, 3)).astype(complex)
    assert np.isclose(np.trace(np.kron(a, sq)), np.trace(a) * np.trace(sq))


def test_eigh_diagonal():
    values, vectors = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(values, [1.0, 2.0, 3.0], atol=1e-14)
    assert np.allclose(vectors @ vectors.conj().T, np.eye(3), atol=1e-12)


def test_eigh_two_by_two_closed_form():
    c = 1.0 / (3.0 * np.sqrt(2.0))
    values, _ = eigh(np.array([[0.0, c], [c, 1 / 6]], dtype=complex))
    assert np.allclose(values, [-1 / 6, 1 / 3], atol=1e-14)


def test_eigh_example_state_spectrum(example_state):
    values, _ = eigh(example_state.mat)
    assert np.allclose(values, [0, 0, 0, 0, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 6, 13, 36])
def test_eigh_against_numpy_and_invariants(dim):
    rng = np.random.default_rng(dim)
    h = random_hermitian(rng, dim)
    values, vectors = eigh(h)
    assert np.allclose(values, np.linalg.eigvalsh(h), atol=1e-10)
    # reconstruction and unitarity as stated by the decomposition contract
    scale = max(1.0, np.linalg.norm(h))
    recon = vectors @ np.diag(values) @ vectors.conj().T
    assert np.linalg.norm(recon - h) <= 1e-10 * scale
    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(dim)) <= 1e-10
    assert abs(values.sum() - np.trace(h).real) <= 1e-10 * scale


def test_eigh_deterministic():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 8)
    first_values, first_vectors = eigh(h)
    second_values, second_vectors = eigh(h)
    assert np.array_equal(first_values, second_values)
    assert np.array_equal(first_vectors, second_vectors)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        eigh(np.zeros((2, 3), dtype=complex))


def test_eigh_refuses_overflowing_norm():
    # finite entries whose Frobenius norm overflows would make the stopping
    # threshold inf and return the unrotated diagonal as the spectrum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm overflows"):
            eigh(np.full((6, 6), 1e200, dtype=complex))


@pytest.mark.parametrize(
    "call, name",
    [
        (eigh, "eigh"),
        (lambda mat: state_violations(mat, 2, 3), "state_violations"),
    ],
    ids=["eigh", "state_violations"],
)
def test_overflowing_norm_is_refused_in_the_callers_name(call, name):
    # one function raises the refusal, with the name its caller passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name}: the matrix's Frobenius norm overflows$"):
            call(np.full((6, 6), 1e200, dtype=complex))


def test_eigh_budget_exhaustion_raises(monkeypatch):
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 12)
    monkeypatch.setattr("qmarginals.linalg.JACOBI_MAX_SWEEPS", 1)  # eigh reads it at call time
    with pytest.raises(NoConvergence):
        eigh(h)


def test_eigh_tolerates_deviation_within_tol():
    # the Hermitian part (h + h^dagger) / 2 is diagonalised; on a degenerate
    # diagonal its off-diagonal half moves the eigenvalues at first order,
    # where one triangle alone would give (1, 1)
    h = np.array([[1.0, 1e-9], [0.0, 1.0]], dtype=complex)
    assert np.abs(eigh(h)[0] - [1 - 5e-10, 1 + 5e-10]).max() <= 1e-15
    with pytest.raises(NotHermitian):
        eigh(h, tol=1e-10)


# ---------------------------------------------------------------------------
# Jacobi eigh against LAPACK's eigenvalues (numpy.linalg.eigvalsh)

EIGVALSH_SETTINGS = settings(deadline=None, derandomize=True, max_examples=60)


@st.composite
def hermitian_inputs(draw):
    """A random Hermitian matrix scaled by a power of ten, a rank-deficient
    PSD state G G^dagger / tr, or the partial transpose of a random Choi
    state (not PSD in general)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["hermitian", "low_rank_state", "partial_transpose"]))
    if kind == "hermitian":
        return random_hermitian(rng, draw(st.integers(1, 12)), 10.0 ** draw(st.integers(-12, 12)))
    if kind == "low_rank_state":
        dim = draw(st.integers(1, 12))
        g = random_psd(rng, dim, rank=draw(st.integers(1, dim)))
        return g / np.trace(g).real
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kmap = random_kraus(n, m, draw(st.integers(1, n * m)), int(rng.integers(0, 2**31)))
    return partial_transpose_b(choi_state(kmap))


@EIGVALSH_SETTINGS
@given(hermitian_inputs())
def test_eigvalsh_matches_jacobi_eigh(h):
    # two independent kernels: LAPACK and the pure-Python Jacobi rotations
    values = np.linalg.eigvalsh(h)
    assert values.dtype == np.float64 and values.shape == (h.shape[0],)
    assert np.all(np.diff(values) >= 0.0)
    scale = max(1.0, np.linalg.norm(h))
    assert np.abs(values - eigh(h)[0]).max() <= 1e-12 * scale


@EIGVALSH_SETTINGS
@given(hermitian_inputs())
def test_eigvalsh_sums_to_trace_and_frobenius(h):
    values = np.linalg.eigvalsh(h)
    norm = np.linalg.norm(h)
    scale = max(1.0, norm)
    assert abs(values.sum() - np.trace(h).real) <= 1e-12 * scale
    assert abs(np.sum(values**2) - norm**2) <= 1e-12 * scale**2


@EIGVALSH_SETTINGS
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(-300, 300),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_frobenius_is_numpy_norm_bit_for_bit(rows, cols, exponent, transposed, seed):
    # the Sinkhorn residual meter's own arithmetic is numpy's Frobenius norm:
    # on a zero family its residuals are the norms of the targets' negatives
    rng = np.random.default_rng(seed)
    targets = []
    for dim in (rows, cols):
        mat = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * 10.0**exponent
        targets.append(mat.T if transposed else mat)  # the transpose is not C-contiguous
    measure = _residual_meter(np.zeros((cols, 1, rows), dtype=complex), *targets)
    with np.errstate(over="ignore"):
        expected = tuple(float(np.linalg.norm(np.ascontiguousarray(mat))) for mat in targets)
        assert measure() == expected


@pytest.mark.parametrize(
    "entry", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0), complex(1.0, np.nan)]
)
def test_as_matrix_rejects_each_non_finite_part(entry):
    mat = np.ones((2, 2), dtype=complex)
    mat[1, 0] = entry
    with pytest.raises(ValueError, match="finite"):
        as_matrix(mat)


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((4, 4), dtype=complex)) == 0


def test_numerical_rank_example_state(example_state):
    assert numerical_rank(example_state.mat) == 2


def test_numerical_rank_stacked_products(example_map):
    # the 13 x 4 matrix stacking both product families column-wise has full
    # column rank
    ops = example_map.ops
    cols = []
    for i in range(2):
        for j in range(2):
            cols.append(
                np.concatenate(
                    [
                        np.ravel(ops[i].conj().T @ ops[j]),
                        np.ravel(ops[j] @ ops[i].conj().T),
                    ]
                )
            )
    stacked = np.array(cols).T
    assert stacked.shape == (13, 4)
    assert numerical_rank(stacked) == 4
    assert np_rank(stacked) == 4


@pytest.mark.parametrize("shape,rank", [((5, 3), 2), ((3, 5), 3), ((6, 6), 4)])
def test_numerical_rank_matches_numpy_and_adjoint(shape, rank):
    rng = np.random.default_rng(shape[0] * 10 + rank)
    left = rng.normal(size=(shape[0], rank)) + 1j * rng.normal(size=(shape[0], rank))
    right = rng.normal(size=(rank, shape[1])) + 1j * rng.normal(size=(rank, shape[1]))
    mat = left @ right
    assert numerical_rank(mat) == min(rank, *shape)
    assert numerical_rank(mat) == np_rank(mat)
    assert numerical_rank(mat.conj().T) == numerical_rank(mat)


def test_rank_margin_brackets_cutoff():
    decision = rank_with_margin(np.diag([1.0, 1e-3, 1e-12]).astype(complex), tol=1e-4)
    assert decision.rank == 2
    assert decision.smallest_retained == pytest.approx(1e-6)  # Gram eigenvalue
    assert decision.largest_discarded == pytest.approx(1e-24, rel=1e-6)


def test_rank_margin_overflows_to_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision = rank_with_margin(np.diag([1e200, 1.0]))
    assert decision.rank == 1
    assert decision.smallest_retained == np.inf
    assert decision.largest_discarded == 1.0


@pytest.mark.parametrize(
    "values, expected",
    [
        # -8e-9 is larger in magnitude than the cutoff 1e-8 * 0.5, but negative
        ([-8e-9, -1e-17, 2e-18, 0.1, 0.5], (2, 0.1 * 0.1, 2e-18 * 2e-18)),
        ([0.0, 0.0, 0.0], (0, None, 0.0)),
        ([-3.0, -1.0], (0, None, 0.0)),  # the cutoff is tol * max(largest, 0) = 0
        ([-1e-20, 0.25], (1, 0.0625, 0.0)),  # a discarded negative counts as zero
        ([0.5, 1.0], (2, 0.25, None)),
    ],
)
def test_rank_of_values_never_counts_a_negative_value(values, expected):
    assert tuple(rank_of_values(np.array(values))) == expected


def test_rank_of_values_refuses_empty_values():
    with pytest.raises(ValueError, match="^values must not be empty$"):
        rank_of_values(np.array([]))


def test_rank_of_values_overflows_to_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signed = rank_of_values(np.array([-1e200, 1e200]))
        both = rank_of_values(np.array([1e170, 1e200]), tol=1e-150)
    assert signed == (1, np.inf, 0.0)
    assert both == (2, np.inf, None)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    again = matrix_from_json(matrix_to_json(mat))
    assert np.array_equal(again, mat)


ONE = [[1.0, 0.0]]


@pytest.mark.parametrize(
    "broken, message",
    [
        pytest.param({"rows": 2, "cols": 2}, "matrix object: missing field 'entries'",
                     id="broken0"),
        pytest.param({"rows": 0, "cols": 2, "entries": []},
                     "field 'rows': expected a positive integer", id="broken1"),
        pytest.param({"rows": 1, "cols": 2, "entries": [[0.0, 0.0]]},
                     "field 'entries': expected 2 [re, im] pairs, got 1", id="broken2"),
        pytest.param({"rows": 1, "cols": 1, "entries": [[0.0]]},
                     "field 'entries[0]': expected an [re, im] number pair", id="broken3"),
        pytest.param("not an object", "matrix object: expected a JSON object", id="not an object"),
        pytest.param({"cols": 1, "entries": ONE}, "matrix object: missing field 'rows'",
                     id="missing-rows"),
        pytest.param({"rows": 1, "entries": ONE}, "matrix object: missing field 'cols'",
                     id="missing-cols"),
        pytest.param({"rows": True, "cols": 1, "entries": ONE},
                     "field 'rows': expected a positive integer", id="rows-true"),
        pytest.param({"rows": 1, "cols": True, "entries": ONE},
                     "field 'cols': expected a positive integer", id="cols-true"),
        pytest.param({"rows": 1, "cols": 0, "entries": ONE},
                     "field 'cols': expected a positive integer", id="cols-zero"),
    ],
)
def test_matrix_json_rejects_malformed(broken, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        matrix_from_json(broken)


@pytest.mark.parametrize(
    "value, expected",
    [
        (1, True),
        (100, True),
        (np.int64(100), True),
        (np.int32(1), True),
        (np.uint64(7), True),
        (0, False),
        (np.int64(0), False),
        (-3, False),
        (True, False),
        (np.bool_(True), False),
        (2.0, False),
        (np.float64(2.0), False),
        ("3", False),
    ],
)
def test_is_positive_int_takes_any_integer_type_but_no_boolean(value, expected):
    assert is_positive_int(value) is expected


# ---------------------------------------------------------------------------
# the one tolerance rule


EXAMPLE_KRAUS = extremal_qubit_qutrit_map()
EXAMPLE_STATE = choi_state(EXAMPLE_KRAUS)

#: Each library entry point that takes a tolerance, called with ``tol``.  A
#: tol of 1 or more would let ``ppt_check`` call the paper's entangled state
#: separable.
TOL_ENTRY_POINTS = {
    "rank_of_values": lambda tol: rank_of_values(np.array([0.0, 1.0]), tol),
    "rank_with_margin": lambda tol: rank_with_margin(np.eye(2), tol),
    "numerical_rank": lambda tol: numerical_rank(np.eye(2), tol),
    "eigh": lambda tol: eigh(np.eye(2), tol),
    "validate_state": lambda tol: validate_state(np.diag([5.0, -3.0]), 1, 2, tol),
    "state_violations": lambda tol: state_violations(np.diag([5.0, -3.0]), 1, 2, tol),
    "max_entangled_projector": lambda tol: max_entangled_projector(np.eye(2), tol),
    "ppt_check": lambda tol: ppt_check(EXAMPLE_STATE, tol),
    "check_rank_bound": lambda tol: check_rank_bound(EXAMPLE_STATE, tol),
    "perturbation_freedom_dim": lambda tol: perturbation_freedom_dim(EXAMPLE_STATE, tol),
    "choi_state": lambda tol: choi_state(EXAMPLE_KRAUS, tol),
    "kraus_from_state": lambda tol: kraus_from_state(EXAMPLE_STATE, tol),
    "choi_extremality": lambda tol: choi_extremality(EXAMPLE_KRAUS, tol),
    "doubly_constrained_extremality":
        lambda tol: doubly_constrained_extremality(EXAMPLE_KRAUS, tol),
    "ScalingConfig": lambda tol: ScalingConfig(np.eye(3) / 3, np.eye(2) / 2, residual_tol=tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 1.0, 10.0])
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_every_entry_point_refuses_a_tolerance_outside_the_open_unit_interval(entry, tol):
    with pytest.raises(ValueError, match=rf"^(residual_)?tol must lie in \(0, 1\), got {tol}$"):
        TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize(
    "tol", [1e-300, DEFAULT_TOL, 0.5, np.nextafter(1.0, 0.0), np.float64(0.25)]
)
def test_tolerances_inside_the_open_unit_interval_pass_unchanged(tol):
    assert check_tol(tol) is tol
    assert rank_of_values(np.array([0.0, 1.0]), tol).rank == 1
