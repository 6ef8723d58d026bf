import dataclasses
import warnings

import numpy as np
import pytest
from oracles import (
    perturbation_dim_brute,
    ptrace_a_bra_ket,
    ptrace_b_bra_ket,
    ptranspose_b_loops,
    random_hermitian,
)

from qmarginals import (
    BipartiteState,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotUnitary,
    TraceNotOne,
    bipartite,
    check_rank_bound,
    choi_state,
    kraus_from_state,
    max_entangled_projector,
    numerical_rank,
    parthasarathy_bound,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_b,
    perturbation_freedom_dim,
    ppt_check,
    random_kraus,
    random_separable,
    rank_of_values,
    sampling,
    state_from_json,
    state_to_json,
    state_violations,
    validate_state,
)


def maximally_mixed(n, m):
    d = n * m
    return validate_state(np.eye(d, dtype=complex) / d, n, m)


# ---------------------------------------------------------------------------
# validation


def test_validate_maximally_mixed():
    state = maximally_mixed(2, 3)
    assert state.dim_a == 2 and state.dim_b == 3


def test_validate_example(example_matrix):
    state = validate_state(example_matrix, 2, 3)
    assert not state_violations(state.mat, 2, 3)


def test_validate_rejects_negative(example_matrix):
    bad = example_matrix - np.diag([0.5, 0, 0, 0, 0, 0.0])
    with pytest.raises(NotPSD) as info:
        validate_state(bad, 2, 3)
    assert info.value.min_eigenvalue < -0.1
    kinds = {v.kind for v in state_violations(bad, 2, 3)}
    assert "not_psd" in kinds and "trace_not_one" in kinds


def test_validate_rejects_wrong_dims(example_matrix):
    with pytest.raises(DimensionMismatch):
        validate_state(example_matrix, 2, 2)


def test_validate_rejects_non_hermitian():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 0.3
    with pytest.raises(NotHermitian):
        validate_state(mat, 2, 2)


def test_validate_rejects_wrong_trace():
    with pytest.raises(TraceNotOne) as info:
        validate_state(np.eye(4, dtype=complex), 2, 2)
    assert info.value.trace == pytest.approx(4.0)


def test_validation_takes_one_hermiticity_pass(monkeypatch, example_matrix):
    # the scale, the deviation and the Hermitian part handed to LAPACK come
    # from one pass: two Frobenius norms per validated state
    calls = []
    norm = np.linalg.norm

    def counting(mat, *args, **kwargs):
        calls.append(np.shape(mat))
        return norm(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    state = validate_state(example_matrix, 2, 3)
    assert calls == [(6, 6), (6, 6)]
    assert np.array_equal(state.mat, example_matrix)


def test_validation_refuses_overflowing_norm():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm overflows"):
            state_violations(np.full((6, 6), 1e200), 2, 3)


def test_state_matrix_is_read_only(example_state):
    with pytest.raises(ValueError):
        example_state.mat[0, 0] = 1.0


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_of_product_state():
    rng = sampling.generator(10)
    a = sampling.random_density_matrix(rng, 2)
    b = sampling.random_density_matrix(rng, 3)
    state = validate_state(np.kron(a, b), 2, 3)
    assert np.abs(partial_trace_b(state) - a).max() < 1e-12
    assert np.abs(partial_trace_a(state) - b).max() < 1e-12


def test_partial_trace_example(example_state):
    assert np.abs(partial_trace_b(example_state) - np.eye(2) / 2).max() < 1e-14
    assert np.abs(partial_trace_a(example_state) - np.eye(3) / 3).max() < 1e-14


def test_partial_trace_max_entangled():
    state = max_entangled_projector(np.eye(2))
    assert np.abs(partial_trace_b(state) - np.eye(2) / 2).max() < 1e-14
    assert np.abs(partial_trace_a(state) - np.eye(2) / 2).max() < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_partial_trace_against_bra_ket_oracle(seed):
    state = random_separable(2, 3, 3, seed)
    assert np.abs(partial_trace_b(state) - ptrace_b_bra_ket(state.mat, 2, 3)).max() < 1e-13
    assert np.abs(partial_trace_a(state) - ptrace_a_bra_ket(state.mat, 2, 3)).max() < 1e-13
    assert np.trace(partial_trace_a(state)).real == pytest.approx(1.0, abs=1e-10)
    assert np.trace(partial_trace_b(state)).real == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_linearity():
    rho = random_separable(2, 3, 2, 0)
    sigma = random_separable(2, 3, 2, 1)
    for alpha in (0.25, 0.5, 0.9):
        mixed = validate_state(alpha * rho.mat + (1 - alpha) * sigma.mat, 2, 3)
        direct = partial_trace_b(mixed)
        combined = alpha * partial_trace_b(rho) + (1 - alpha) * partial_trace_b(sigma)
        assert np.abs(direct - combined).max() < 1e-12


def test_expectation_compatibility(example_state):
    # tr(A rho_1) equals tr((A (x) 1) rho), observable by observable
    rng = np.random.default_rng(77)
    rho1 = partial_trace_b(example_state)
    for _ in range(50):
        obs = random_hermitian(rng, 2)
        lhs = np.trace(obs @ rho1)
        rhs = np.trace(np.kron(obs, np.eye(3)) @ example_state.mat)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(obs)


# ---------------------------------------------------------------------------
# partial transpose


def test_partial_transpose_of_product():
    rng = sampling.generator(4)
    a = sampling.random_density_matrix(rng, 2)
    b = sampling.random_density_matrix(rng, 3)
    state = validate_state(np.kron(a, b), 2, 3)
    assert np.abs(partial_transpose_b(state) - np.kron(a, b.T)).max() < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_partial_transpose_is_involution(seed):
    # a separable state's partial transpose is a state, so it can be
    # transposed again; the example's is not PSD and is refused
    state = random_separable(2, 3, 3, seed)
    again = partial_transpose_b(validate_state(partial_transpose_b(state), 2, 3))
    assert np.array_equal(again, state.mat)


def test_partial_transpose_matches_loop_oracle(example_state):
    expected = ptranspose_b_loops(example_state.mat, 2, 3)
    assert np.array_equal(partial_transpose_b(example_state), expected)


def test_partial_transpose_example_spectrum(example_state):
    report = ppt_check(example_state)
    expected = np.array([-1 / 6, -1 / 6, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
    assert np.abs(report.spectrum - expected).max() < 1e-12
    assert report.spectrum.sum() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# PPT verdicts


def test_ppt_product_state_separable():
    state = random_separable(2, 3, 1, 5)
    report = ppt_check(state)
    assert report.is_ppt
    assert report.verdict == "separable"


def test_ppt_example_entangled(example_state):
    report = ppt_check(example_state)
    assert not report.is_ppt
    assert report.verdict == "entangled"
    assert report.min_eigenvalue == pytest.approx(-1 / 6, abs=1e-12)


def test_ppt_inconclusive_outside_small_dims():
    report = ppt_check(maximally_mixed(3, 3))
    assert report.is_ppt
    assert report.verdict == "inconclusive"


def test_ppt_failure_is_entangled_in_any_dims():
    # generalized maximally entangled two-qutrit state violates PPT
    vec = np.zeros(9, dtype=complex)
    for i in range(3):
        vec[i * 3 + i] = 1 / np.sqrt(3.0)
    state = validate_state(np.outer(vec, vec.conj()), 3, 3)
    report = ppt_check(state)
    assert not report.is_ppt
    assert report.verdict == "entangled"


def test_ppt_never_separable_outside_conclusive_dims():
    for seed in range(10):
        report = ppt_check(random_separable(3, 3, 4, seed))
        assert report.is_ppt
        assert report.verdict == "inconclusive"


@pytest.mark.parametrize("dims", [(1, 3), (3, 1), (1, 1)])
def test_ppt_separable_with_a_one_dimensional_factor(dims):
    # every state on C^1 (x) C^m is 1 (x) rho_B, a product
    d = dims[0] * dims[1]
    rho = sampling.random_density_matrix(sampling.generator(5), d)
    report = ppt_check(validate_state(rho, *dims))
    assert report.is_ppt
    assert report.verdict == "separable"


# ---------------------------------------------------------------------------
# near-threshold verdicts: each flips exactly at the limit it reports


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_psd_verdict_flips_at_reported_limit(tol, factor):
    # a 2 x 3 state with minimum eigenvalue -factor * tol in a random basis;
    # its Frobenius norm is below 1, so the limit is -tol
    weights = np.array([-factor * tol, 0.1, 0.15, 0.2, 0.25, 0.3])
    weights[1:] *= (1.0 + factor * tol) / weights[1:].sum()
    u = sampling.random_unitary(sampling.generator(21), 6)
    mat = (u * weights) @ u.conj().T
    limit = -tol * max(1.0, np.linalg.norm(mat))
    assert limit == -tol
    violations = state_violations(mat, 2, 3, tol)
    if factor < 1.0:
        assert violations == []
        assert validate_state(mat, 2, 3, tol).dim_b == 3
        return
    (violation,) = violations
    assert violation.kind == "not_psd"
    assert violation.value == pytest.approx(-factor * tol, abs=1e-15)
    assert violation.value < limit
    assert violation.message == f"minimum eigenvalue {violation.value:.3e} below {limit:.3e}"
    with pytest.raises(NotPSD, match="below") as info:
        validate_state(mat, 2, 3, tol)
    assert info.value.min_eigenvalue == violation.value


def _isotropic_state(d, p, seed):
    """p |Phi><Phi| + (1 - p) 1/d^2 on d x d, |Phi> maximally entangled,
    under a random local unitary.  Its partial transpose has minimum
    eigenvalue (1 - p) / d^2 - p / d."""
    phi = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    mat = p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(d * d) / (d * d)
    rng = sampling.generator(seed)
    local = np.kron(sampling.random_unitary(rng, d), sampling.random_unitary(rng, d))
    return validate_state(local @ mat @ local.conj().T, d, d)


@pytest.mark.parametrize("d,ppt_verdict", [(2, "separable"), (3, "inconclusive")])
@pytest.mark.parametrize("tol", [1e-8, 1e-6])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_ppt_verdict_flips_at_reported_threshold(d, ppt_verdict, tol, factor):
    # p chosen so that the partial transpose has minimum eigenvalue -factor * tol
    p = (1.0 + factor * tol * d * d) / (1.0 + d)
    state = _isotropic_state(d, p, seed=d)
    report = ppt_check(state, tol)
    assert report.threshold == -tol * max(1.0, np.linalg.norm(partial_transpose_b(state)))
    assert report.threshold == -tol  # the partial transpose keeps the norm below 1
    assert report.min_eigenvalue == pytest.approx(-factor * tol, abs=1e-14)
    assert report.is_ppt == (report.min_eigenvalue >= report.threshold) == (factor < 1.0)
    assert report.verdict == (ppt_verdict if factor < 1.0 else "entangled")
    assert report.to_json()["threshold"] == report.threshold


# ---------------------------------------------------------------------------
# maximally entangled projectors


def test_max_entangled_identity_basis():
    state = max_entangled_projector(np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.abs(state.mat - expected).max() < 1e-15
    assert numerical_rank(state.mat) == 1


@pytest.mark.parametrize("seed", range(6))
def test_max_entangled_random_basis(seed):
    u = sampling.random_unitary(sampling.generator(seed), 2)
    state = max_entangled_projector(u)
    assert np.abs(partial_trace_b(state) - np.eye(2) / 2).max() < 1e-12
    assert np.abs(partial_trace_a(state) - np.eye(2) / 2).max() < 1e-12
    assert numerical_rank(state.mat) == 1


def test_max_entangled_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        max_entangled_projector(np.array([[1.0, 0.0], [1.0, 0.0]]))


def _frozen_projector(f_basis):
    """The projector's matrix and spectrum as built before it went through
    the state rule: the Hermitian part of the outer product and its LAPACK
    eigenvalues."""
    f = np.asarray(f_basis, dtype=np.complex128)
    vec = f.T.ravel() / np.sqrt(2.0)
    outer = np.outer(vec, vec.conj())
    mat = (outer + outer.conj().T) / 2.0
    return mat, np.linalg.eigvalsh(mat)


def _unitarity_ratio(f, tol):
    """||f^dagger f - 1||_F over the limit ``tol * max(1, ||f||_F)``."""
    deviation = np.linalg.norm(f.conj().T @ f - np.eye(2))
    return deviation / (tol * max(1.0, np.linalg.norm(f)))


@pytest.mark.parametrize("tol", [1e-8, 1e-4])
def test_projector_through_the_state_rule_is_bit_identical(tol):
    rng = sampling.generator(2026)
    for _ in range(200):
        u = sampling.random_unitary(rng, 2)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (g + g.conj().T) / 2.0
        # f = u (1 + eps h) pushed to 0.9 of the unitarity limit, to first order
        probe = 1e-3 * tol
        eps = probe * 0.9 / _unitarity_ratio(u @ (np.eye(2) + probe * h), tol)
        near_limit = u @ (np.eye(2) + eps * h)
        assert 0.85 < _unitarity_ratio(near_limit, tol) < 0.95
        for basis in (u, near_limit):
            state = max_entangled_projector(basis, tol)
            mat, spectrum = _frozen_projector(basis)
            assert np.array_equal(state.mat, mat)
            assert np.array_equal(state.spectrum, spectrum)


def test_every_state_factory_goes_through_the_state_rule(monkeypatch, example_map, example_state):
    made = []
    checked = bipartite._checked

    def recording(*args):
        violations, state = checked(*args)
        made.append(state)
        return violations, state

    monkeypatch.setattr(bipartite, "_checked", recording)
    wire = state_to_json(example_state)
    factories = {
        "validate_state": lambda: validate_state(np.eye(6) / 6, 2, 3),
        "state_from_json": lambda: state_from_json(wire),
        "random_separable": lambda: random_separable(2, 3, 2, 0),
        "choi_state": lambda: choi_state(example_map),
        "max_entangled_projector": lambda: max_entangled_projector(np.eye(2)),
    }
    for name, factory in factories.items():
        state = factory()
        assert made and made[-1] is state, name


# ---------------------------------------------------------------------------
# rank bound


def test_parthasarathy_bound_values():
    assert parthasarathy_bound(2, 2) == 2  # floor(sqrt(7))
    assert parthasarathy_bound(2, 3) == 3  # floor(sqrt(12))
    assert parthasarathy_bound(3, 3) == 4  # floor(sqrt(17))


@pytest.mark.parametrize(
    "dims, error, message",
    [
        ((0, 0), DimensionMismatch, "factor dimensions must be positive"),
        ((-5, 3), DimensionMismatch, "factor dimensions must be positive"),
        ((2.0, 3), ValueError, "dim_a must be a positive integer, got 2.0"),
        ((2, True), ValueError, "dim_b must be a positive integer, got True"),
    ],
)
def test_parthasarathy_bound_refuses_a_bad_dimension_by_name(dims, error, message):
    # not math.isqrt's unnamed error, nor the bound of |dim_a|
    with pytest.raises(error, match=f"^{message}$"):
        parthasarathy_bound(*dims)


def test_check_rank_bound(example_state):
    assert check_rank_bound(example_state)
    assert not check_rank_bound(maximally_mixed(2, 3))


# ---------------------------------------------------------------------------
# perturbation freedom oracle


def test_perturbation_freedom_pure_product():
    rng = sampling.generator(12)
    a = sampling.random_density_matrix(rng, 2)
    # rank-one factors: project onto the top eigenvector
    w, u = np.linalg.eigh(a)
    pa = np.outer(u[:, -1], u[:, -1].conj())
    b = sampling.random_density_matrix(rng, 3)
    w, u = np.linalg.eigh(b)
    pb = np.outer(u[:, -1], u[:, -1].conj())
    state = validate_state(np.kron(pa, pb), 2, 3)
    assert perturbation_freedom_dim(state) == 0


def test_perturbation_freedom_example(example_state):
    assert perturbation_freedom_dim(example_state) == 0


def test_perturbation_freedom_maximally_mixed_matches_brute_force():
    state = maximally_mixed(2, 3)
    dim = perturbation_freedom_dim(state)
    assert dim == perturbation_dim_brute(state.mat, 2, 3)
    assert dim == 24  # frozen from the brute-force oracle


def test_perturbation_freedom_mixture_of_entangled_projectors():
    plus = max_entangled_projector(np.eye(2))
    minus = max_entangled_projector(np.diag([1.0, -1.0]))
    state = validate_state(0.5 * (plus.mat + minus.mat), 2, 2)
    dim = perturbation_freedom_dim(state)
    assert dim == perturbation_dim_brute(state.mat, 2, 2)
    assert dim > 0


def near_cutoff_state(seed):
    """A rank-3 2x3 state whose null direction is lifted to the rank cutoff
    1e-8 * lambda_max, give or take a relative 2e-14: within rounding of it."""
    rho = choi_state(random_kraus(2, 3, 3, seed)).mat
    values, vectors = np.linalg.eigh(rho)
    null = vectors[:, 0]
    jitter = (np.random.default_rng(seed).random() - 0.5) * 4e-14
    mat = rho + 1e-8 * values[-1] * (1.0 + jitter) * np.outer(null, null.conj())
    mat = (mat + mat.conj().T) / 2.0
    return validate_state(mat / np.trace(mat).real, 2, 3)


def test_rank_bound_and_oracle_count_one_spectrum_near_the_cutoff():
    # a rank r above the bound has r^2 > n^2 + m^2 - 1 unknowns, while the
    # constraint map's n^2 + m^2 rows carry the trace twice, so its rank is
    # at most n^2 + m^2 - 1 and the oracle must find freedom
    above = 0
    for seed in range(40):
        state = near_cutoff_state(seed)
        if not check_rank_bound(state):
            above += 1
            assert perturbation_freedom_dim(state) >= 1, seed
    assert 0 < above < 40


@pytest.mark.parametrize(
    "mat, error, kind",
    [
        (np.zeros((6, 6)), TraceNotOne, "trace_not_one"),
        (-np.eye(6) / 6, NotPSD, "not_psd"),
        (np.full((6, 6), 1e200), ValueError, None),
    ],
    ids=["zero", "negative", "overflowing-norm"],
)
def test_non_states_get_a_refusal_not_a_verdict(example_state, mat, error, kind):
    # a state exists only after the state rule has passed: no verdict can be
    # asked of these matrices, which the rule refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            validate_state(mat, 2, 3)
        if kind is None:
            with pytest.raises(ValueError, match="norm overflows"):
                state_violations(mat, 2, 3)
        else:
            assert state_violations(mat, 2, 3)[0].kind == kind
    with pytest.raises(TypeError):
        BipartiteState(2, 3, mat)
    with pytest.raises(TypeError):
        dataclasses.replace(example_state, mat=mat)


@pytest.mark.parametrize("dims", [(-1, -6), (0, 3), (2, 0), (-2, 3)])
def test_non_positive_factor_dimensions_are_a_dimension_violation(dims):
    mat = np.eye(6) / 6
    assert [(v.kind, v.message) for v in state_violations(mat, *dims)] == [
        ("dimension", "factor dimensions must be positive")
    ]
    with pytest.raises(DimensionMismatch, match="^factor dimensions must be positive$"):
        validate_state(mat, *dims)


@pytest.mark.parametrize(
    "rule, dims, name",
    [
        (state_violations, (2.5, 2.4), "dim_a"),
        (validate_state, (2.0, 3), "dim_a"),
        (validate_state, (True, 6), "dim_a"),
        (validate_state, (2, 3.0), "dim_b"),
    ],
)
def test_non_integer_factor_dimensions_are_refused_by_name(rule, dims, name):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got "):
        rule(np.eye(6) / 6, *dims)
    state = validate_state(np.eye(6) / 6, np.int64(2), np.int64(3))
    assert np.array_equal(partial_trace_b(state), np.eye(2) / 2)


def test_state_accepted_at_a_loose_tol_gets_verdicts_at_the_default(example_state):
    """A state the rule accepts at 1e-4 although it is 1e-6 off Hermitian
    is the Hermitian matrix it was judged as: every later default-tol
    verdict holds, and its matrix has the rank of its spectrum."""
    mat = np.array(example_state.mat)
    mat[1, 3] += 1e-6j
    mat[3, 1] += 1e-6j
    state = validate_state(mat, 2, 3, tol=1e-4)
    assert np.array_equal(state.mat, example_state.mat)
    assert perturbation_freedom_dim(state) == 0
    assert kraus_from_state(state).r == 2
    assert ppt_check(state).verdict == "entangled"
    assert numerical_rank(state.mat) == rank_of_values(state.spectrum).rank == 2


# ---------------------------------------------------------------------------
# separable sampling


def test_random_separable_deterministic():
    s1 = random_separable(2, 3, 3, 9)
    s2 = random_separable(2, 3, 3, 9)
    assert np.array_equal(s1.mat, s2.mat)


def test_random_separable_product_case():
    state = random_separable(2, 3, 1, 2)
    report = ppt_check(state)
    assert report.is_ppt


@pytest.mark.parametrize("seed", range(30))
def test_random_separable_always_ppt(seed):
    assert ppt_check(random_separable(2, 3, 1 + seed % 4, seed)).is_ppt


def test_random_separable_rejects_zero_terms():
    with pytest.raises(ValueError):
        random_separable(2, 3, 0, 1)


@pytest.mark.parametrize("dims", [(0, 3), (2, 0), (-1, 3)])
def test_random_separable_refuses_non_positive_dimensions_before_drawing(dims):
    with pytest.raises(DimensionMismatch, match="^factor dimensions must be positive$"):
        random_separable(*dims, 2, 1)


# ---------------------------------------------------------------------------
# JSON


def test_state_json_round_trip(example_state):
    again = state_from_json(state_to_json(example_state))
    assert np.array_equal(again.mat, example_state.mat)
    assert (again.dim_a, again.dim_b) == (2, 3)


def test_state_json_rejects_missing_fields(example_state):
    with pytest.raises(ValueError, match="^state object: expected a JSON object$"):
        state_from_json([2, 3])
    for field in ("dim_a", "dim_b", "matrix"):
        doc = state_to_json(example_state)
        del doc[field]
        with pytest.raises(ValueError, match=f"^state object: missing field '{field}'$"):
            state_from_json(doc)
    for field in ("dim_a", "dim_b"):
        for value in (True, 0):
            doc = state_to_json(example_state)
            doc[field] = value
            message = f"^field '{field}': expected a positive integer$"
            with pytest.raises(ValueError, match=message):
                state_from_json(doc)
