"""Property tests for the rank decision and the extremality verdicts.

``oracles.np_rank`` calls the same LAPACK SVD the package uses for ranks, so
these checks take their expected answers from the construction instead: a
product of Ginibre factors through a k-dimensional space has rank exactly k,
and a random Kraus family is independent exactly when its size respects
Parthasarathy's bound.  Hypothesis draws shapes and fixed generator seeds;
runs are derandomized so the suite stays reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarginals import (
    choi_state,
    doubly_constrained_extremality,
    parthasarathy_bound,
    perturbation_freedom_dim,
    random_kraus,
    rank_with_margin,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, max_examples=60)


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
