"""Property tests for the rank decision and the extremality verdicts.

``oracles.np_rank`` calls the same LAPACK SVD the package uses for ranks, so
these checks take their expected answers from the construction instead: a
product of Ginibre factors through a k-dimensional space has rank exactly k,
and a random Kraus family is independent exactly when its size respects
Parthasarathy's bound.  The invariance properties compare a family with its
unitary mixtures and its local-unitary images: neither may move the PPT
spectrum, the rank, the two extremality verdicts or the perturbation
freedom.  The perturbation oracle is compared with the brute-force count in
``oracles``, which builds a real Hermitian basis and takes bra-ket partial
traces.  The Kraus family recovered from a state must rebuild the state
and, when the original operators are linearly independent, be a unitary
mixing of them.  Matrices, states and Kraus families survive a JSON text
round trip bit for bit.  Hypothesis draws shapes and fixed generator seeds;
runs are derandomized so the suite stays reproducible.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import extremality_rows_by_pairs, perturbation_dim_brute

from qmarginals import (
    KrausMap,
    choi_extremality,
    choi_state,
    doubly_constrained_extremality,
    kraus_from_json,
    kraus_from_state,
    kraus_to_json,
    matrix_from_json,
    matrix_to_json,
    mix_ops,
    numerical_rank,
    parthasarathy_bound,
    perturbation_freedom_dim,
    ppt_check,
    random_kraus,
    rank_with_margin,
    state_from_json,
    state_to_json,
    validate_state,
)
from qmarginals import cpmaps, sampling

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, max_examples=60)
# each example runs the perturbation oracle twice on the pure-Python eigh
INVARIANCE_SETTINGS = settings(deadline=None, derandomize=True, max_examples=25)
# states reach 16 x 16, diagonalised by the pure-Python eigh
ORACLE_SETTINGS = settings(deadline=None, derandomize=True, max_examples=40)


def _ginibre(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


@st.composite
def low_rank_products(draw):
    """(a x k)(k x b) Ginibre product, Hermitian G G^dagger when drawn so,
    scaled by a power of ten so that only a relative cutoff gets it right."""
    a = draw(st.integers(1, 9))
    hermitian = draw(st.booleans())
    b = a if hermitian else draw(st.integers(1, 9))
    k = draw(st.integers(1, min(a, b)))
    scale = 10.0 ** draw(st.integers(-12, 12))
    rng = np.random.default_rng(draw(SEEDS))
    left = _ginibre(rng, a, k)
    right = left.conj().T if hermitian else _ginibre(rng, k, b)
    return scale * (left @ right), k, min(a, b)


@PROPERTY_SETTINGS
@given(low_rank_products(), st.sampled_from([1e-8, 1e-6, 1e-10]))
def test_rank_of_ginibre_product_is_inner_dimension(case, tol):
    mat, k, small = case
    decision = rank_with_margin(mat, tol)
    cutoff = tol**2 * np.linalg.norm(mat, 2) ** 2
    assert decision.rank == k
    assert decision.smallest_retained > cutoff
    if k < small:
        assert decision.largest_discarded < cutoff
    else:
        assert decision.largest_discarded is None


@PROPERTY_SETTINGS
@given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 6), SEEDS)
def test_independence_oracle_and_bound_agree(n, m, r, seed):
    # r <= bound, not r^2 <= n^2 + m^2: at (3, 4, 5) the two differ and the
    # family is dependent
    kmap = random_kraus(n, m, r, seed)
    verdict = doubly_constrained_extremality(kmap).verdict
    no_freedom = perturbation_freedom_dim(choi_state(kmap)) == 0
    assert verdict == no_freedom == (r <= parthasarathy_bound(n, m))


@PROPERTY_SETTINGS
@given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 6), SEEDS)
def test_stacked_independence_rows_match_pairwise_rows(n, m, r, seed):
    kmap = random_kraus(n, m, r, seed)
    for criterion, both_sums in ((choi_extremality, False), (doubly_constrained_extremality, True)):
        captured = []

        def capture(rows, tol):
            captured.append(rows)
            return rank_with_margin(rows, tol)

        with mock.patch.object(cpmaps, "rank_with_margin", capture):
            report = criterion(kmap)
        (rows,) = captured
        reference = extremality_rows_by_pairs(kmap.ops, both_sums)
        assert rows.shape == reference.shape == (r * r, m * m + (n * n if both_sums else 0))
        assert np.abs(rows - reference).max() <= 1e-15
        expected = rank_with_margin(reference)
        assert report.stacked_rank == expected.rank
        assert report.verdict == (expected.rank == r * r)
        assert report.margin == expected


def _state_invariants(state):
    return ppt_check(state).spectrum, numerical_rank(state.mat), perturbation_freedom_dim(state)


def _verdicts(kmap):
    return choi_extremality(kmap).verdict, doubly_constrained_extremality(kmap).verdict


def _assert_same_state_invariants(first, second):
    spectrum, rank, freedom = first
    assert np.abs(second[0] - spectrum).max() <= 1e-10
    assert (second[1], second[2]) == (rank, freedom)


@INVARIANCE_SETTINGS
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 4), SEEDS, SEEDS)
def test_invariants_unchanged_by_mixing(n, m, r, seed, mix_seed):
    kmap = random_kraus(n, m, r, seed)
    mixed = mix_ops(kmap, sampling.random_unitary(sampling.generator(mix_seed), r))
    _assert_same_state_invariants(
        _state_invariants(choi_state(kmap)), _state_invariants(choi_state(mixed))
    )
    assert _verdicts(mixed) == _verdicts(kmap)


@INVARIANCE_SETTINGS
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 4), SEEDS, SEEDS)
def test_invariants_unchanged_by_local_unitaries(n, m, r, seed, unitary_seed):
    kmap = random_kraus(n, m, r, seed)
    rng = sampling.generator(unitary_seed)
    u, w = sampling.random_unitary(rng, n), sampling.random_unitary(rng, m)
    state = choi_state(kmap)
    local = np.kron(u, w)
    rotated = validate_state(local @ state.mat @ local.conj().T, n, m)
    # the family V -> conj(U) V W^dagger has the rotated state as its composite state
    moved = KrausMap(n, m, tuple(u.conj() @ op @ w.conj().T for op in kmap.ops))
    assert np.abs(choi_state(moved).mat - rotated.mat).max() <= 1e-12
    _assert_same_state_invariants(_state_invariants(state), _state_invariants(rotated))
    assert _verdicts(moved) == _verdicts(kmap)


@st.composite
def family_or_product_mixture_states(draw):
    """Composite state of a random family of r operators, or a separable
    mixture of r random pure product states, r in 1..8."""
    n, m, r = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 8))
    seed = draw(SEEDS)
    if draw(st.booleans()):
        return choi_state(random_kraus(n, m, r, seed))
    rng = sampling.generator(seed)
    weights = sampling.random_probability_vector(rng, r)
    mat = np.zeros((n * m, n * m), dtype=complex)
    for weight in weights:
        a = sampling.ginibre(rng, n, 1)
        b = sampling.ginibre(rng, m, 1)
        product = np.kron(a, b) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
        mat += weight * (product @ product.conj().T)
    return validate_state(mat, n, m)


@ORACLE_SETTINGS
@given(family_or_product_mixture_states())
def test_perturbation_oracle_matches_brute_force(state):
    brute = perturbation_dim_brute(state.mat, state.dim_a, state.dim_b)
    assert perturbation_freedom_dim(state) == brute


@ORACLE_SETTINGS
@given(family_or_product_mixture_states())
def test_recovered_family_rebuilds_the_state(state):
    rebuilt = choi_state(kraus_from_state(state))
    assert np.abs(rebuilt.mat - state.mat).max() <= 1e-12


@st.composite
def independent_families(draw):
    """(n, m, r, seed) with r <= n m, so the operators of a random family are
    linearly independent and its composite state has rank r."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    return n, m, draw(st.integers(1, n * m)), draw(SEEDS)


@ORACLE_SETTINGS
@given(independent_families())
def test_recovered_family_is_a_unitary_mixing(case):
    n, m, r, seed = case
    kmap = random_kraus(n, m, r, seed)
    recovered = kraus_from_state(choi_state(kmap))
    assert recovered.r == r
    # the Choi vectors of mix_ops(kmap, u) are the rows of conj(u) @ w_in
    w_in = np.array([np.conj(op).ravel() for op in kmap.ops])
    w_out = np.array([np.conj(op).ravel() for op in recovered.ops])
    u = np.linalg.lstsq(w_in.T, w_out.T, rcond=None)[0].conj().T
    assert np.abs(u @ u.conj().T - np.eye(r)).max() <= 1e-10
    assert np.abs(np.stack(mix_ops(kmap, u).ops) - np.stack(recovered.ops)).max() <= 1e-10


# ---------------------------------------------------------------------------
# exact JSON round trips


def _through_text(obj):
    return json.loads(json.dumps(obj))


def _same_bits(a, b):
    """Equal shapes and identical float64 bit patterns of every real and
    imaginary part (stricter than ``np.array_equal``: -0.0 differs from 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300])
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def finite_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = 2 * rows * cols
    parts = draw(st.lists(st.one_of(EDGE_FLOATS, ANY_FINITE), min_size=size, max_size=size))
    return np.array(parts).view(np.complex128).reshape(rows, cols)


@PROPERTY_SETTINGS
@given(finite_matrices())
@example(np.array([[5e-324 - 5e-324j, -0.0 + 2.5e-310j]]))
@example(np.array([[1e300 - 1e300j]]))
def test_matrix_json_round_trip_is_exact_or_refused(mat):
    wire = _through_text(matrix_to_json(mat))
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(np.linalg.norm(mat))
    if overflows:
        # every later tolerance is relative to this norm, so the parser
        # refuses the matrix although its text carries each entry exactly
        assert [complex(*pair) for pair in wire["entries"]] == mat.ravel().tolist()
        with pytest.raises(ValueError, match="norm overflows"):
            matrix_from_json(wire)
    else:
        assert _same_bits(matrix_from_json(wire), mat)


@PROPERTY_SETTINGS
@given(n=st.integers(1, 3), m=st.integers(1, 3), seed=SEEDS)
def test_state_json_round_trip_is_exact(n, m, seed):
    mat = sampling.random_density_matrix(sampling.generator(seed), n * m)
    state = validate_state(mat, n, m)
    again = state_from_json(_through_text(state_to_json(state)))
    assert (again.dim_a, again.dim_b) == (n, m)
    assert _same_bits(again.mat, state.mat)


@PROPERTY_SETTINGS
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    seed=SEEDS,
    scale=st.sampled_from([1.0, 2.5e-310, 1e150]),
)
def test_kraus_json_round_trip_is_exact(shape, seed, scale):
    n, m, r = shape
    kmap = KrausMap(n, m, tuple(op * scale for op in random_kraus(n, m, r, seed).ops))
    again = kraus_from_json(_through_text(kraus_to_json(kmap)))
    assert (again.n, again.m, again.r) == (n, m, r)
    assert all(_same_bits(a, b) for a, b in zip(again.ops, kmap.ops))
