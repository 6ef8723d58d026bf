"""Acceptance battery.

One test per criterion; each prints a single PASS/FAIL line so the suite
doubles as a checklist (`pytest tests/test_acceptance.py -v -s`).  Expected
values marked as derived were computed with the independent oracles in
``oracles.py`` and frozen here.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from oracles import perturbation_dim_brute

from qmarginals import (
    InfeasibleRank,
    check_rank_bound,
    choi_state,
    doubly_constrained_extremality,
    find_extremal_candidate,
    kraus_from_state,
    marginal_K,
    marginal_L,
    max_entangled_projector,
    mix_ops,
    numerical_rank,
    parthasarathy_bound,
    partial_trace_a,
    partial_trace_b,
    perturbation_freedom_dim,
    ppt_check,
    random_kraus,
    random_separable,
    sampling,
    uniform_targets,
    validate_state,
)
from qmarginals.linalg import eigh


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {title}")
        raise
    print(f"criterion {number:02d} PASS: {title}")


def test_criterion_01_composite_state_reconstruction(example_map, example_matrix):
    with criterion(1, "composite state matches its closed form to 1e-14"):
        state = choi_state(example_map)
        assert np.abs(state.mat - example_matrix).max() <= 1e-14


def test_criterion_02_uniform_marginals(example_state):
    with criterion(2, "marginals are identity/2 and identity/3 to 1e-14"):
        assert np.abs(partial_trace_b(example_state) - np.eye(2) / 2).max() <= 1e-14
        assert np.abs(partial_trace_a(example_state) - np.eye(3) / 3).max() <= 1e-14


def test_criterion_03_rank_and_spectrum(example_state):
    with criterion(3, "rank 2 and spectrum (0 x4, 1/2 x2) to 1e-12"):
        assert numerical_rank(example_state.mat) == 2
        spectrum, _ = eigh(example_state.mat)
        assert np.abs(spectrum - np.array([0, 0, 0, 0, 0.5, 0.5])).max() <= 1e-12


def test_criterion_04_rank_bound(example_state):
    with criterion(4, "rank bound floor(sqrt(12)) = 3 holds; full rank is flagged"):
        assert parthasarathy_bound(2, 3) == 3
        assert numerical_rank(example_state.mat) <= 3
        assert check_rank_bound(example_state)
        mixed = validate_state(np.eye(6, dtype=complex) / 6, 2, 3)
        assert numerical_rank(mixed.mat) == 6
        assert not check_rank_bound(mixed)


def test_criterion_05_entanglement(example_state):
    with criterion(5, "partial transpose spectrum (-1/6 x2, 1/3 x4); entangled"):
        report = ppt_check(example_state)
        expected = np.array([-1 / 6, -1 / 6, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
        assert np.abs(report.spectrum - expected).max() <= 1e-12
        assert report.verdict == "entangled"


def test_criterion_06_extremality(example_map, example_state):
    with criterion(6, "independence rank 4 = r^2, perturbation freedom 0, agreement"):
        report = doubly_constrained_extremality(example_map)
        assert report.stacked_rank == 4 == report.family_size
        assert report.verdict
        freedom = perturbation_freedom_dim(example_state)
        assert freedom == 0
        assert (freedom == 0) == report.verdict


def test_criterion_07_two_qubit_characterization():
    with criterion(7, "maximally entangled projectors are exactly the extremes at 2x2"):
        for seed in range(20):
            u = sampling.random_unitary(sampling.generator(seed), 2)
            state = max_entangled_projector(u)
            assert np.abs(partial_trace_b(state) - np.eye(2) / 2).max() <= 1e-12
            assert np.abs(partial_trace_a(state) - np.eye(2) / 2).max() <= 1e-12
            assert numerical_rank(state.mat) == 1
            kmap = kraus_from_state(state)
            assert kmap.r == 1
            assert doubly_constrained_extremality(kmap).verdict

        plus = max_entangled_projector(np.eye(2))
        minus = max_entangled_projector(np.diag([1.0, -1.0]))
        mixture = validate_state(0.5 * (plus.mat + minus.mat), 2, 2)
        assert np.abs(partial_trace_b(mixture) - np.eye(2) / 2).max() <= 1e-12
        assert np.abs(partial_trace_a(mixture) - np.eye(2) / 2).max() <= 1e-12
        freedom = perturbation_freedom_dim(mixture)
        assert freedom > 0
        assert freedom == perturbation_dim_brute(mixture.mat, 2, 2)


def test_criterion_08_correspondence_identities():
    with criterion(8, "marginal identities and mixing invariance on 100 random maps"):
        for seed in range(100):
            kmap = random_kraus(2, 3, 1 + seed % 3, seed)
            state = choi_state(kmap)
            assert np.abs(marginal_K(kmap) - partial_trace_a(state)).max() <= 1e-12
            # the first-factor marginal equals the conjugate of the dual
            # identity value (they agree verbatim only for real operators)
            assert np.abs(np.conj(marginal_L(kmap)) - partial_trace_b(state)).max() <= 1e-12
            u = sampling.random_unitary(sampling.generator(1000 + seed), kmap.r)
            mixed_state = choi_state(mix_ops(kmap, u))
            assert np.abs(mixed_state.mat - state.mat).max() <= 1e-10


def test_criterion_09_ppt_soundness():
    with criterion(9, "100 random separable 2x3 states pass PPT; no stray separable"):
        for seed in range(100):
            report = ppt_check(random_separable(2, 3, 1 + seed % 4, seed))
            assert report.is_ppt
        for seed in range(10):
            report = ppt_check(random_separable(3, 3, 2, seed))
            assert report.is_ppt
            assert report.verdict == "inconclusive"


def test_criterion_10_search_pipeline():
    with criterion(10, "search converges and certifies extremes for >= 18/20 seeds"):
        config = uniform_targets(2, 3)
        successes = 0
        for seed in range(20):
            try:
                kmap, verdict, state = find_extremal_candidate(2, 3, 2, config, seed)
            except Exception:
                continue
            res_k = np.abs(marginal_K(kmap) - config.target_K).max()
            res_l = np.abs(marginal_L(kmap) - config.target_L).max()
            if max(res_k, res_l) <= 1e-10 and verdict.verdict:
                assert check_rank_bound(state)
                successes += 1
        assert successes >= 18
        with pytest.raises(InfeasibleRank):
            find_extremal_candidate(2, 3, 4, config, seed=0)
