"""Property tests for the rank decision and the extremality verdicts.

``oracles.np_rank`` calls the same LAPACK SVD the package uses for ranks, so
these checks take their expected answers from the construction instead: a
product of Ginibre factors through a k-dimensional space has rank exactly k,
and a random Kraus family is independent exactly when its size respects
Parthasarathy's bound.  The invariance properties compare a family with its
unitary mixtures and its local-unitary images: neither may move the PPT
spectrum, the rank, the two extremality verdicts or the perturbation
freedom.  Hypothesis draws shapes and fixed generator seeds; runs are
derandomized so the suite stays reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarginals import (
    KrausMap,
    choi_extremality,
    choi_state,
    doubly_constrained_extremality,
    kron,
    mix_ops,
    numerical_rank,
    parthasarathy_bound,
    perturbation_freedom_dim,
    ppt_check,
    random_kraus,
    rank_with_margin,
    validate_state,
)
from qmarginals import sampling

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, max_examples=60)
# each example runs the perturbation oracle twice on the pure-Python eigh
INVARIANCE_SETTINGS = settings(deadline=None, derandomize=True, max_examples=25)


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
    local = kron(u, w)
    rotated = validate_state(local @ state.mat @ local.conj().T, n, m)
    # the family V -> conj(U) V W^dagger has the rotated state as its composite state
    moved = KrausMap(n, m, tuple(u.conj() @ op @ w.conj().T for op in kmap.ops))
    assert np.abs(choi_state(moved).mat - rotated.mat).max() <= 1e-12
    _assert_same_state_invariants(_state_invariants(state), _state_invariants(rotated))
    assert _verdicts(moved) == _verdicts(kmap)
