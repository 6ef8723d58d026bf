import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _np_root_and_inv_root, polar_by_mask, sinkhorn_by_eigh, sinkhorn_by_svd

from qmarginals import (
    InfeasibleRank,
    KrausMap,
    NoConvergence,
    NotPSD,
    ScalingConfig,
    ScalingReport,
    SingularScaling,
    TraceNotOne,
    check_rank_bound,
    choi_state,
    find_extremal_candidate,
    linalg,
    mix_ops,
    numerical_rank,
    partial_trace_a,
    partial_trace_b,
    perturbation_freedom_dim,
    random_kraus,
    residuals,
    sampling,
    scaling,
    sinkhorn_scale,
    state_violations,
    uniform_targets,
)

UNIFORM_23 = uniform_targets(2, 3)


# ---------------------------------------------------------------------------
# configuration and sampling


def test_config_requires_unit_trace_targets():
    with pytest.raises(TraceNotOne):
        ScalingConfig(np.eye(3, dtype=complex), np.eye(2, dtype=complex) / 2)


def test_config_rejects_non_psd_targets():
    with pytest.raises(NotPSD) as info:
        ScalingConfig(np.diag([1.5, -0.5]).astype(complex), np.eye(2, dtype=complex) / 2)
    assert info.value.min_eigenvalue == pytest.approx(-0.5)
    with pytest.raises(NotPSD):
        ScalingConfig(np.eye(3, dtype=complex) / 3, np.diag([1.25, -0.25]).astype(complex))


@pytest.mark.parametrize("residual_tol", [float("nan"), float("inf"), 0.0, -1e-10])
def test_config_rejects_unusable_residual_tol(residual_tol):
    with pytest.raises(ValueError, match="residual_tol"):
        ScalingConfig(np.eye(3) / 3, np.eye(2) / 2, residual_tol=residual_tol)


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, True])
def test_config_rejects_non_positive_integer_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        ScalingConfig(np.eye(3) / 3, np.eye(2) / 2, max_iter=max_iter)


def test_config_accepts_rank_deficient_targets():
    config = ScalingConfig(np.diag([1.0, 0.0, 0.0]).astype(complex), np.eye(2) / 2)
    assert config.target_K.shape == (3, 3)


def test_random_kraus_normalization_and_determinism():
    kmap1 = random_kraus(2, 3, 2, 123)
    kmap2 = random_kraus(2, 3, 2, 123)
    total = sum(np.vdot(op, op).real for op in kmap1.ops)
    assert abs(total - 1.0) < 1e-12
    for a, b in zip(kmap1.ops, kmap2.ops):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("pair", [(0, 1), (2, 3), (4, 50), (7, 99)])
def test_random_kraus_distinct_seeds_differ(pair):
    kmap1 = random_kraus(2, 3, 2, pair[0])
    kmap2 = random_kraus(2, 3, 2, pair[1])
    distance = sum(np.linalg.norm(a - b) for a, b in zip(kmap1.ops, kmap2.ops))
    assert distance > 0


def test_random_kraus_rejects_zero_ops():
    with pytest.raises(ValueError):
        random_kraus(2, 3, 0, 1)


# ---------------------------------------------------------------------------
# residuals


def test_residuals_zero_at_example(example_map):
    res_k, res_l = residuals(example_map, np.eye(3) / 3, np.eye(2) / 2)
    assert res_k < 1e-15 and res_l < 1e-15


def test_residuals_positive_off_target():
    op = np.zeros((2, 3), dtype=complex)
    op[0, 0] = 1.0
    from qmarginals import KrausMap

    res_k, res_l = residuals(KrausMap(2, 3, (op,)), np.eye(3) / 3, np.eye(2) / 2)
    assert res_k > 0.1 and res_l > 0.1


def test_residuals_invariant_under_mixing():
    kmap = random_kraus(2, 3, 2, 5)
    u = sampling.random_unitary(sampling.generator(6), 2)
    mixed = mix_ops(kmap, u)
    first = residuals(kmap, UNIFORM_23.target_K, UNIFORM_23.target_L)
    second = residuals(mixed, UNIFORM_23.target_K, UNIFORM_23.target_L)
    assert first[0] == pytest.approx(second[0], abs=1e-12)
    assert first[1] == pytest.approx(second[1], abs=1e-12)


# ---------------------------------------------------------------------------
# the scaling iteration


def test_example_is_a_fixed_point(example_map):
    scaled, report = sinkhorn_scale(example_map, UNIFORM_23)
    assert report.converged
    assert report.iterations == 0
    assert max(report.residual_K, report.residual_L) < 1e-14
    for a, b in zip(scaled.ops, example_map.ops):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(20))
def test_scaling_converges_for_random_starts(seed):
    scaled, report = sinkhorn_scale(random_kraus(2, 3, 2, seed), UNIFORM_23)
    assert report.converged
    assert max(report.residual_K, report.residual_L) <= 1e-10
    assert report.history[0][0] > report.residual_K  # it actually moved


def test_right_half_step_enforces_K_exactly():
    kmap = random_kraus(2, 3, 2, 31)
    target_k = UNIFORM_23.target_K
    sum_k = sum(op.conj().T @ op for op in kmap.ops)
    _, inv_root_k, _ = _np_root_and_inv_root(sum_k, 1e-8)
    root_target, _, _ = _np_root_and_inv_root(target_k, 1e-8)
    right = inv_root_k @ root_target
    scaled_ops = [op @ right for op in kmap.ops]
    new_sum = sum(op.conj().T @ op for op in scaled_ops)
    assert np.linalg.norm(new_sum - target_k) <= 1e-12


def test_left_half_step_enforces_L_exactly():
    kmap = random_kraus(2, 3, 2, 32)
    target_l = UNIFORM_23.target_L
    sum_l = sum(op @ op.conj().T for op in kmap.ops)
    root_target, _, _ = _np_root_and_inv_root(target_l, 1e-8)
    _, inv_root_l, _ = _np_root_and_inv_root(sum_l, 1e-8)
    left = root_target @ inv_root_l
    scaled_ops = [left @ op for op in kmap.ops]
    new_sum = sum(op @ op.conj().T for op in scaled_ops)
    assert np.linalg.norm(new_sum - target_l) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_residual_history_tail_is_monotone(seed):
    _, report = sinkhorn_scale(random_kraus(2, 3, 2, seed), UNIFORM_23)
    tail = [max(a, b) for a, b in report.history[-10:]]
    assert all(x >= y - 1e-16 for x, y in zip(tail, tail[1:]))


@pytest.mark.parametrize("seed", range(5))
def test_converged_output_is_valid_and_on_target(seed):
    scaled, report = sinkhorn_scale(random_kraus(2, 3, 2, seed), UNIFORM_23)
    state = choi_state(scaled)
    assert not state_violations(state.mat, 2, 3)
    slack = 10 * UNIFORM_23.residual_tol
    assert np.abs(partial_trace_a(state) - UNIFORM_23.target_K).max() <= slack
    assert np.abs(partial_trace_b(state) - UNIFORM_23.target_L).max() <= slack


def test_single_op_hits_rank_obstruction():
    # one 2x3 operator: sum V^dagger V has rank <= 2 < 3
    with pytest.raises(SingularScaling):
        sinkhorn_scale(random_kraus(2, 3, 1, 0), UNIFORM_23)


def test_budget_exhaustion_carries_report():
    config = ScalingConfig(UNIFORM_23.target_K, UNIFORM_23.target_L, max_iter=2)
    with pytest.raises(NoConvergence) as info:
        sinkhorn_scale(random_kraus(2, 3, 2, 0), config)
    report = info.value.report
    assert report is not None and not report.converged
    assert report.iterations == 2
    assert len(report.history) == 3  # initial residuals plus one per iteration
    assert info.value.kraus is not None


def test_report_history_is_read_only_array():
    _, report = sinkhorn_scale(random_kraus(2, 3, 2, 1), UNIFORM_23)
    history = report.history
    assert history.dtype == np.float64
    assert history.shape == (report.iterations + 1, 2)
    assert tuple(history[-1]) == (report.residual_K, report.residual_L)
    with pytest.raises(ValueError):
        history[0, 0] = 0.0
    assert ScalingReport(0, 0.0, 0.0, True).history.shape == (0, 2)


def test_report_history_truncation_only_in_json():
    _, report = sinkhorn_scale(random_kraus(2, 3, 2, 1), UNIFORM_23)
    doc_full = report.to_json()
    doc_cut = report.to_json(max_history=5)
    assert len(doc_full["history"]) == len(report.history)
    assert len(doc_cut["history"]) == 5
    assert doc_cut["history"] == doc_full["history"][-5:]
    assert len(report.history) > 5  # the value itself stays complete


def test_report_adopts_read_only_history_without_copy():
    history = np.zeros((3, 2))
    history.setflags(write=False)
    assert ScalingReport(2, 0.0, 0.0, True, history).history is history
    writable = np.zeros((3, 2))
    copied = ScalingReport(2, 0.0, 0.0, True, writable).history
    assert copied is not writable and not copied.flags.writeable


def test_exhausted_budget_report_holds_the_trimmed_history():
    uniform = uniform_targets(3, 3)
    config = ScalingConfig(uniform.target_K, uniform.target_L, max_iter=100)
    with pytest.raises(NoConvergence) as info:
        sinkhorn_scale(random_kraus(3, 3, 3, 2), config)  # needs 153 iterations
    history = info.value.report.history
    assert history.shape == (101, 2) and history.base is None


def test_huge_budget_is_not_preallocated():
    config = ScalingConfig(UNIFORM_23.target_K, UNIFORM_23.target_L, max_iter=10**12)
    _, report = sinkhorn_scale(random_kraus(2, 3, 2, 3), config)
    assert report.converged
    assert report.history.shape == (report.iterations + 1, 2)


def _geometric_history(first, rate, rows):
    worst = first * rate ** np.arange(rows)
    return np.stack([worst, worst / 3.0], axis=1)


@pytest.mark.parametrize("rate", [0.5, 0.97, 0.999])
def test_contraction_rate_of_geometric_history(rate):
    # ten rows at the final rate after forty at a faster one: only the last
    # ten rows count
    head = _geometric_history(1.0, rate / 2, 40)
    tail = _geometric_history(head[-1, 0] * rate, rate, 10)
    report = ScalingReport(49, tail[-1, 0], tail[-1, 1], False, np.concatenate([head, tail]))
    assert report.contraction_rate == pytest.approx(rate, rel=1e-12)
    assert report.to_json()["contraction_rate"] == report.contraction_rate
    assert report.to_json(max_history=2)["contraction_rate"] == report.contraction_rate


def test_contraction_rate_needs_two_iterations():
    assert ScalingReport(0, 0.0, 0.0, True).contraction_rate is None
    assert ScalingReport(1, 0.1, 0.1, False, _geometric_history(1.0, 0.5, 2)).contraction_rate is None
    two = ScalingReport(2, 0.25, 0.25, False, _geometric_history(1.0, 0.5, 3))
    assert two.contraction_rate == 0.5
    assert ScalingReport(0, 0.0, 0.0, True).to_json()["contraction_rate"] is None


def test_exhausted_budget_names_stalled_side_and_rate():
    # a skewed (2,3,2) candidate that needs more than 500 iterations
    target_k, target_l = _targets(2, 3, skewed=True, seed=0)
    config = ScalingConfig(target_k, target_l, max_iter=500)
    with pytest.raises(NoConvergence) as info:
        sinkhorn_scale(random_kraus(2, 3, 2, 0), config)
    report = info.value.report
    worst = np.maximum(report.history[-10:, 0], report.history[-10:, 1])
    rate = float(np.median(worst[1:] / worst[:-1]))
    assert report.contraction_rate == rate
    assert 0.9 < rate < 1.0
    # the left step comes last, so the K side is the one left off target
    assert report.residual_K > report.residual_L
    message = str(info.value)
    assert "sum V^dagger V is further from its target" in message
    assert f"contraction rate {rate:.6f} per iteration" in message


def test_one_iteration_budget_reports_no_rate():
    config = ScalingConfig(UNIFORM_23.target_K, UNIFORM_23.target_L, max_iter=1)
    with pytest.raises(NoConvergence, match="contraction rate n/a"):
        sinkhorn_scale(random_kraus(2, 3, 2, 0), config)


# ---------------------------------------------------------------------------
# agreement with an independent eigh-based reference


def _density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _targets(n, m, skewed, seed):
    if not skewed:
        return np.eye(m) / m, np.eye(n) / n
    rng = np.random.default_rng([seed, n, m])
    return (
        0.5 * _density(rng, m) + 0.5 * np.eye(m) / m,
        0.5 * _density(rng, n) + 0.5 * np.eye(n) / n,
    )


def _outcome(kmap, config):
    try:
        scaled, report = sinkhorn_scale(kmap, config)
        return "converged", report.iterations, np.stack(scaled.ops)
    except NoConvergence as exc:
        return "no_convergence", exc.report.iterations, np.stack(exc.kraus.ops)
    except SingularScaling:
        return "singular", None, None


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "shape", [(2, 3, 2), (3, 3, 3), (4, 4, 4), (2, 2, 1), (3, 2, 2), (1, 3, 2)]
)
def test_scaling_matches_eigh_reference(shape, seed, skewed):
    n, m, r = shape
    target_k, target_l = _targets(n, m, skewed, seed)
    kmap = random_kraus(n, m, r, seed)
    kind, iterations, family = _outcome(kmap, ScalingConfig(target_k, target_l, max_iter=500))
    ref_kind, ref_iterations, ref_ops = sinkhorn_by_eigh(kmap.ops, target_k, target_l, 500)
    assert kind == ref_kind
    if kind != "singular":
        assert iterations == ref_iterations
        assert np.abs(family - np.stack(ref_ops)).max() <= 1e-11


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("shape", [(1, 3, 2), (1, 4, 3)])
def test_partial_support_scaling_matches_eigh_reference(shape, seed):
    # r n < m: the column stack has only k = r n < m singular directions, so
    # the right step's polar factor is a partial isometry; a target K of
    # rank r n is still reachable
    n, m, r = shape
    rng = np.random.default_rng([seed, n, m, r])
    g = rng.normal(size=(m, r * n)) + 1j * rng.normal(size=(m, r * n))
    target_k = g @ g.conj().T / np.vdot(g, g).real
    target_l = np.eye(n) / n
    kmap = random_kraus(n, m, r, seed)
    kind, iterations, family = _outcome(kmap, ScalingConfig(target_k, target_l, max_iter=500))
    ref_kind, ref_iterations, ref_ops = sinkhorn_by_eigh(kmap.ops, target_k, target_l, 500)
    assert kind == ref_kind == "converged"
    assert iterations == ref_iterations
    assert np.abs(family - np.stack(ref_ops)).max() <= 1e-11


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
@pytest.mark.parametrize("n, m", [(2, 3), (3, 3), (4, 4)])
def test_config_roots_match_eigh_reference(n, m, skewed):
    target_k, target_l = _targets(n, m, skewed, seed=0)
    config = ScalingConfig(target_k, target_l)
    for target, root in ((target_k, config._root_K), (target_l, config._root_L)):
        ref_root, _, _ = _np_root_and_inv_root(target, 1e-8)
        assert np.abs(root - ref_root).max() <= 1e-12


def test_config_root_of_rank_deficient_target():
    config = ScalingConfig(np.diag([0.64, 0.36, 0.0]), np.eye(2) / 2)
    assert np.abs(config._root_K - np.diag([0.8, 0.6, 0.0])).max() <= 1e-12
    assert np.abs(config._spectrum_K - [0.0, 0.36, 0.64]).max() <= 1e-12
    assert config._spectrum_K.min() >= 0.0


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
def test_sinkhorn_scale_makes_no_eigh_call(monkeypatch, skewed):
    target_k, target_l = _targets(2, 3, skewed, seed=1)
    config = ScalingConfig(target_k, target_l, max_iter=500)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called after the config was built")

    monkeypatch.setattr(scaling, "eigh", refuse)
    monkeypatch.setattr(linalg, "eigh", refuse)
    kmap = random_kraus(2, 3, 2, 3)
    kind, iterations, family = _outcome(kmap, config)
    ref_kind, ref_iterations, ref_ops = sinkhorn_by_eigh(kmap.ops, target_k, target_l, 500)
    assert kind == ref_kind == "converged"
    assert iterations == ref_iterations
    assert np.abs(family - np.stack(ref_ops)).max() <= 1e-11


@pytest.mark.parametrize("column_scale, singular", [(1e-3, False), (1e-5, True)])
def test_support_cutoff_is_on_squared_singular_values(column_scale, singular):
    # shrinking one column gives sum V^dagger V an eigenvalue near
    # column_scale^2, on either side of the 1e-8 support cutoff
    family = np.stack(random_kraus(2, 3, 2, 7).ops)
    family[:, :, 2] *= column_scale
    kmap = KrausMap(2, 3, tuple(family))
    kind, iterations, _ = _outcome(kmap, UNIFORM_23)
    ref_kind, ref_iterations, _ = sinkhorn_by_eigh(
        kmap.ops, UNIFORM_23.target_K, UNIFORM_23.target_L, 10000
    )
    assert kind == ref_kind == ("singular" if singular else "converged")
    if not singular:
        assert iterations == ref_iterations


SCALING_SETTINGS = settings(deadline=None, derandomize=True, max_examples=40)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


# powers of two keep the cutoff tol * max(1, sigma_max^2) and its square
# root exact, so a diagonal stack can put sigma_min^2 on the cutoff itself
CUTOFF_TOL = 2.0**-28


@SCALING_SETTINGS
@given(
    shape=st.sampled_from([(4, 3), (3, 9), (9, 3), (2, 6), (6, 2), (16, 4), (4, 16), (2, 2)]),
    largest=st.sampled_from([0.5, 1.0, 4.0]),
    factor=st.sampled_from([0.5, 1.0, 2.0]),
    rotated=st.booleans(),
    seed=SEEDS,
)
def test_polar_support_matches_the_mask_rule_at_the_cutoff(shape, largest, factor, rotated, seed):
    rows, cols = shape
    p = min(shape)
    rng = np.random.default_rng(seed)
    smallest = np.sqrt(factor * CUTOFF_TOL * max(1.0, largest * largest))
    middle = np.sort(rng.uniform(largest / 8, largest, size=p - 2))[::-1]
    sigmas = np.concatenate([[largest], middle, [smallest]])
    stack = np.zeros(shape, dtype=complex)
    stack[range(p), range(p)] = sigmas
    if rotated:
        left = sampling.random_unitary(rng, rows)
        right = sampling.random_unitary(rng, cols)
        stack = left @ stack @ right
    u, vh = scaling._polar_on_support(stack, CUTOFF_TOL)
    ref_u, ref_vh = polar_by_mask(stack, CUTOFF_TOL)
    assert u.shape == ref_u.shape and vh.shape == ref_vh.shape
    assert np.array_equal(u, ref_u) and np.array_equal(vh, ref_vh)
    # on the cutoff itself only the exact diagonal stack decides; the mask
    # rule is strict, so a value equal to the cutoff is not support
    if factor != 1.0 or not rotated:
        assert len(vh) == (p if factor > 1.0 else p - 1)


def test_uniform_targets_are_built_once_per_shape():
    config = uniform_targets(3, 4)
    assert uniform_targets(3, 4) is config
    assert uniform_targets(4, 3) is not config
    fresh = ScalingConfig(np.eye(4) / 4, np.eye(3) / 3)
    for name in ("target_K", "target_L", "_spectrum_K", "_root_K", "_spectrum_L", "_root_L"):
        value = getattr(config, name)
        assert not value.flags.writeable
        assert np.array_equal(value, getattr(fresh, name))
    assert (config.max_iter, config.residual_tol) == (fresh.max_iter, fresh.residual_tol)
    with pytest.raises(ValueError):
        config.target_K[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_iter = 1


@SCALING_SETTINGS
@given(
    shape=st.sampled_from([(2, 3, 2), (3, 3, 3), (2, 2, 2), (3, 2, 2)]),
    seed=SEEDS,
    mix_seed=SEEDS,
)
def test_scaling_commutes_with_mixing(shape, seed, mix_seed):
    n, m, r = shape
    config = uniform_targets(n, m)
    kmap = random_kraus(n, m, r, seed)
    u = sampling.random_unitary(sampling.generator(mix_seed), r)
    scaled, report = sinkhorn_scale(kmap, config)
    scaled_mixed, report_mixed = sinkhorn_scale(mix_ops(kmap, u), config)
    assert report_mixed.iterations == report.iterations
    expected = np.stack(mix_ops(scaled, u).ops)
    assert np.abs(np.stack(scaled_mixed.ops) - expected).max() <= 1e-10


EQUIVALENCE_SHAPES = [
    (2, 3, 2), (3, 3, 3), (4, 4, 4), (2, 2, 1), (3, 2, 2), (1, 3, 2), (1, 4, 3), (2, 4, 3)
]


def _rank_deficient_targets(n, m, r, seed):
    """A K of rank min(m - 1, r n) with a uniform L."""
    rng = np.random.default_rng([seed, n, m, r])
    k = min(m - 1, r * n)
    g = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    return g @ g.conj().T / np.vdot(g, g).real, np.eye(n) / n


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    shape=st.sampled_from(EQUIVALENCE_SHAPES),
    targets=st.sampled_from(["uniform", "skewed", "rank_deficient_k"]),
    seed=SEEDS,
)
def test_in_place_loop_matches_frozen_svd_loop(shape, targets, seed):
    n, m, r = shape
    if targets == "rank_deficient_k":
        target_k, target_l = _rank_deficient_targets(n, m, r, seed)
    else:
        target_k, target_l = _targets(n, m, targets == "skewed", seed)
    config = ScalingConfig(target_k, target_l, max_iter=500)
    kmap = random_kraus(n, m, r, seed)
    ref_outcome, ref_iterations, ref_message, ref_family, ref_history = sinkhorn_by_svd(
        kmap.ops, config
    )
    try:
        scaled, report = sinkhorn_scale(kmap, config)
        outcome, message = "converged", None
    except NoConvergence as exc:
        scaled, report = exc.kraus, exc.report
        outcome, message = "no_convergence", str(exc)
    except SingularScaling as exc:
        assert ("singular", str(exc)) == (ref_outcome, ref_message)
        return
    assert (outcome, report.iterations) == (ref_outcome, ref_iterations)
    if message is not None:
        # the frozen loop's message, then the side and the contraction rate
        assert message.startswith(ref_message + "; ")
    assert np.array_equal(np.stack(scaled.ops), ref_family)
    assert np.array_equal(report.history, ref_history)


@st.composite
def short_families(draw):
    """(n, m, r) with r n < m: sum V^dagger V has rank below m."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    m = draw(st.integers(r * n + 1, r * n + 3))
    return n, m, r


@SCALING_SETTINGS
@given(shape=short_families(), seed=SEEDS)
def test_too_few_operators_always_raise_singular_scaling(shape, seed):
    n, m, r = shape
    with pytest.raises(SingularScaling):
        sinkhorn_scale(random_kraus(n, m, r, seed), uniform_targets(n, m))


# ---------------------------------------------------------------------------
# the candidate pipeline


def test_find_extremal_candidate_produces_extreme_state(example_matrix):
    kmap, verdict, state = find_extremal_candidate(2, 3, 2, UNIFORM_23, seed=11)
    assert verdict.verdict
    assert numerical_rank(state.mat) == 2
    assert perturbation_freedom_dim(state) == 0
    assert check_rank_bound(state)
    # generically distinct from the bundled example
    assert np.abs(state.mat - example_matrix).max() > 1e-3


def test_find_extremal_candidate_rejects_infeasible_rank():
    with pytest.raises(InfeasibleRank):
        find_extremal_candidate(2, 3, 4, UNIFORM_23, seed=0)


def test_two_qubit_single_op_candidate_is_maximally_entangled():
    config = uniform_targets(2, 2)
    kmap, verdict, state = find_extremal_candidate(2, 2, 1, config, seed=3)
    assert verdict.verdict
    assert numerical_rank(state.mat) == 1
    assert np.abs(partial_trace_b(state) - np.eye(2) / 2).max() < 1e-9
    assert np.abs(partial_trace_a(state) - np.eye(2) / 2).max() < 1e-9
