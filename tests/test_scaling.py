import dataclasses
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _np_root_and_inv_root, polar_by_mask, sinkhorn_by_eigh, sinkhorn_by_svd

from qmarginals import (
    DimensionMismatch,
    InfeasibleRank,
    KrausMap,
    NoConvergence,
    NotHermitian,
    NotPSD,
    ScalingConfig,
    ScalingReport,
    SingularScaling,
    TraceNotOne,
    check_rank_bound,
    choi_state,
    doubly_constrained_extremality,
    extremal_qubit_qutrit_map,
    find_extremal_candidate,
    linalg,
    mix_ops,
    numerical_rank,
    partial_trace_a,
    partial_trace_b,
    perturbation_freedom_dim,
    ppt_check,
    random_kraus,
    random_separable,
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


def _skewed_uniform_k(skew):
    """1_3/3 plus ``skew`` i at entry (0, 1): that far from Hermitian."""
    target_k = np.eye(3, dtype=complex) / 3
    target_k[0, 1] += 1j * skew
    return target_k


def test_config_refuses_a_target_off_hermitian_before_any_iteration():
    # its Hermitian part converges in 55 iterations, but the residual of the
    # target itself stays at 7.07e-10 for the whole 10,000-iteration budget
    with pytest.raises(NotHermitian, match=r"^target_K: Hermiticity deviation 1\.414e-09$"):
        ScalingConfig(_skewed_uniform_k(1e-9), np.eye(2) / 2)


def test_config_accepts_a_target_within_the_state_rule_of_hermitian():
    config = ScalingConfig(_skewed_uniform_k(1e-13), np.eye(2) / 2)
    _, report = sinkhorn_scale(random_kraus(2, 3, 2, 0), config)
    assert report.converged and report.iterations == 55


def test_config_raises_the_state_rules_first_violation():
    # off Hermitian and of trace 3: the Hermiticity error, naming both findings
    with pytest.raises(NotHermitian, match=r"^target_L: Hermiticity deviation .*; trace is 3$"):
        ScalingConfig(np.eye(3) / 3, np.array([[1.5, 1.0], [0.0, 1.5]]))
    # not positive and of trace 2: the positivity error, carrying its eigenvalue
    with pytest.raises(NotPSD, match=r"^target_K: minimum eigenvalue .*; trace is 2$") as info:
        ScalingConfig(np.diag([2.5, -0.5]), np.eye(2) / 2)
    assert info.value.min_eigenvalue == pytest.approx(-0.5)
    with pytest.raises(TraceNotOne, match=r"^target_K: trace is 3$") as info:
        ScalingConfig(np.eye(3), np.eye(2) / 2)
    assert info.value.trace == pytest.approx(3.0)


def test_config_refuses_a_target_whose_norm_overflows():
    with pytest.raises(ValueError, match="^state_violations: the matrix's Frobenius norm overflows$"):
        ScalingConfig(np.eye(3) / 3, np.array([[0.5, 1e200], [1e200, 0.5]]))


@pytest.mark.parametrize("max_iter", [100, np.int64(100)])
def test_config_accepts_max_iter_of_any_integer_type(max_iter):
    config = ScalingConfig(UNIFORM_23.target_K, UNIFORM_23.target_L, max_iter=max_iter)
    assert config.max_iter == 100
    assert sinkhorn_scale(random_kraus(2, 3, 2, 0), config)[1].converged


@pytest.mark.parametrize("residual_tol", [float("nan"), float("inf"), 0.0, -1e-10])
def test_config_rejects_unusable_residual_tol(residual_tol):
    with pytest.raises(ValueError, match="residual_tol"):
        ScalingConfig(np.eye(3) / 3, np.eye(2) / 2, residual_tol=residual_tol)


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, np.bool_(True), np.int64(0)])
def test_config_rejects_non_positive_integer_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        ScalingConfig(np.eye(3) / 3, np.eye(2) / 2, max_iter=max_iter)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ScalingConfig(np.ones((3, 2)) / 2, np.eye(2) / 2), "target_K must be square"),
        (lambda: ScalingConfig(np.eye(3) / 3, np.ones((2, 3)) / 2), "target_L must be square"),
        (lambda: residuals(random_kraus(2, 3, 2, 0), np.eye(2) / 2, np.eye(2) / 2), "target_K"),
        (lambda: residuals(random_kraus(2, 3, 2, 0), np.eye(3) / 3, np.eye(3) / 3), "target_L"),
        (
            lambda: sinkhorn_scale(random_kraus(2, 3, 2, 0), uniform_targets(3, 3)),
            "target_L is (3, 3), expected (2, 2)",
        ),
    ],
    ids=["config-K", "config-L", "residuals-K", "residuals-L", "sinkhorn"],
)
def test_targets_of_other_shapes_raise_dimension_mismatch(call, message):
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "make",
    [
        extremal_qubit_qutrit_map,
        lambda: ppt_check(choi_state(extremal_qubit_qutrit_map())),
        lambda: ScalingConfig(np.eye(3) / 3, np.eye(2) / 2),
        lambda: sinkhorn_scale(random_kraus(2, 3, 2, 7), UNIFORM_23)[1],
    ],
    ids=["KrausMap", "PptReport", "ScalingConfig", "ScalingReport"],
)
def test_array_holding_values_compare_by_identity(make):
    first, second = make(), make()
    assert first == first and first != second
    assert len({first, second, first}) == 2 and hash(first) == hash(first)
    copy = dataclasses.replace(first)
    assert copy is not first and copy != first
    for name in first.__dataclass_fields__:
        value = getattr(first, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(copy, name), value)
        else:
            assert getattr(copy, name) == value


def test_state_compares_by_identity_and_is_never_copied_unchecked():
    first, second = (choi_state(extremal_qubit_qutrit_map()) for _ in range(2))
    assert first == first and first != second
    assert len({first, second, first}) == 2 and hash(first) == hash(first)
    # dataclasses.replace would build a state past the state rule
    with pytest.raises(TypeError):
        dataclasses.replace(first)
    with pytest.raises(TypeError):
        dataclasses.replace(first, mat=np.zeros((6, 6)))


def test_extremality_report_compares_by_value():
    kmap = extremal_qubit_qutrit_map()
    first, second = doubly_constrained_extremality(kmap), doubly_constrained_extremality(kmap)
    assert first is not second and first == second and hash(first) == hash(second)


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


@pytest.mark.parametrize("dims", [(0, 3), (2, 0), (-1, 3)])
def test_random_kraus_refuses_non_positive_dimensions_before_drawing(dims):
    # no draw, so no division by a zero total under the suite's
    # error::RuntimeWarning filter
    with pytest.raises(DimensionMismatch, match="^factor dimensions must be positive$"):
        random_kraus(*dims, 2, 1)


@pytest.mark.parametrize("value", [2.0, np.float64(3.0), True, np.bool_(True), "2", None])
@pytest.mark.parametrize(
    "call, names",
    [
        (lambda *counts: random_kraus(*counts, 1), ("n", "m", "r")),
        (lambda *counts: random_separable(*counts, 1), ("dim_a", "dim_b", "k")),
        (lambda *counts: find_extremal_candidate(*counts, UNIFORM_23, seed=0), ("n", "m", "r")),
    ],
    ids=["random_kraus", "random_separable", "find_extremal_candidate"],
)
def test_factories_refuse_a_count_that_is_not_an_integer(monkeypatch, call, names, value):
    # refused by name before any draw or bound; integers below 1 keep each
    # factory's own error
    monkeypatch.setattr(sampling, "generator", None)
    monkeypatch.setattr(scaling, "parthasarathy_bound", None)
    for position, name in enumerate(names):
        counts = [2, 3, 2]
        counts[position] = value
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got "):
            call(*counts)


@pytest.mark.parametrize("counts", [(0, 0, 1), (-5, 3, 2)])
def test_find_extremal_candidate_refuses_non_positive_dimensions_before_bounding(
    monkeypatch, counts
):
    # the draw refuses the dimensions, so the rank bound is never taken for
    # them: neither math.isqrt's unnamed error nor the bound of |n|
    monkeypatch.setattr(scaling, "parthasarathy_bound", None)
    with pytest.raises(DimensionMismatch, match="^factor dimensions must be positive$"):
        find_extremal_candidate(*counts, UNIFORM_23, seed=0)


SEEDED_FACTORIES = pytest.mark.parametrize(
    "draw",
    [
        lambda seed: random_kraus(2, 3, 2, seed).ops,
        lambda seed: random_separable(2, 3, 2, seed).mat,
        lambda seed: find_extremal_candidate(2, 3, 2, UNIFORM_23, seed=seed)[2].mat,
    ],
    ids=["random_kraus", "random_separable", "find_extremal_candidate"],
)


@pytest.mark.parametrize("seed", [None, True, np.bool_(True), 1.5, -1, np.int64(-1), "1"])
@SEEDED_FACTORIES
def test_factories_refuse_a_seed_that_is_not_a_non_negative_integer(monkeypatch, draw, seed):
    # no draw from OS entropy, no bool taken as 0 or 1, and no unnamed
    # numpy error; the bound is never reached
    monkeypatch.setattr(scaling, "parthasarathy_bound", None)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
        draw(seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.int8(7)])
@SEEDED_FACTORIES
def test_factories_take_a_numpy_integer_seed_as_its_value(draw, seed):
    assert np.array_equal(draw(seed), draw(7))


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


def _read_only(array):
    array.setflags(write=False)
    return array


@pytest.mark.parametrize(
    "given",
    [
        [(1.0, 0.5), (0.25, 0.125), (0.0625, 0.03125)],
        np.array([[1.0, 0.5], [0.25, 0.125], [0.0625, 0.03125]]),
        _read_only(np.array([[1.0, 0.5], [0.25, 0.125], [0.0625, 0.03125]])),
    ],
    ids=["list", "writable-array", "read-only-array"],
)
def test_report_history_is_an_owned_read_only_copy(given):
    history = ScalingReport(2, 0.0625, 0.03125, True, given).history
    assert history is not given and history.base is None
    assert history.dtype == np.float64 and not history.flags.writeable
    assert history.tolist() == np.asarray(given).tolist()


def _bytes_kept_by_exhausted_run(max_iter):
    """Bytes still allocated, after ``gc.collect()``, while the
    ``NoConvergence`` of a budget-exhausted run, traceback included, is
    alive."""
    uniform = uniform_targets(3, 3)
    config = ScalingConfig(uniform.target_K, uniform.target_L, max_iter=max_iter)
    kmap = random_kraus(3, 3, 3, 2)  # needs 153 iterations
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            sinkhorn_scale(kmap, config)
        except NoConvergence as exc:
            kept = exc
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept.report.iterations == max_iter
    return after - before


def test_exhausted_run_keeps_one_history_row_per_iteration():
    # The traceback holds sinkhorn_scale's frame.  The report's float64 rows
    # cost 16 bytes per iteration; a list of residual pairs left in the
    # frame would keep about 128 more, a float pair and its tuple.
    _bytes_kept_by_exhausted_run(150)  # warm caches outside the measurement
    growth = _bytes_kept_by_exhausted_run(150) - _bytes_kept_by_exhausted_run(50)
    assert growth <= 100 * 32


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


@st.composite
def residual_histories(draw):
    """(rows, 2) residual histories of 3 to 12 rows, so the last (at most)
    ten give odd and even ratio counts; some rows are zero, so 0/0 and x/0
    ratios occur, and some runs stall, so ratios are exactly 1."""
    rows = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    history = rng.random((rows, 2)) * 10.0 ** rng.integers(-20, 3, size=(rows, 1))
    for row in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        history[row] = 0.0
    for row in draw(st.lists(st.integers(1, rows - 1), max_size=4)):
        history[row] = history[row - 1]
    if draw(st.booleans()):
        history[draw(st.integers(0, rows - 2)):] = history[-1]
    return history


def _median_of_ratios(history):
    """What the report's rate was before: np.median of the last (at most)
    nine ratios of successive worst residuals."""
    worst = np.asarray(history)[-10:].max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.median(worst[1:] / worst[:-1]))


def _same_float(a, b):
    """Equal bit for bit, or both NaN."""
    return (np.isnan(a) and np.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(deadline=None, derandomize=True, max_examples=300)
@given(residual_histories())
def test_contraction_rate_is_numpy_median_bit_for_bit(history):
    report = ScalingReport(len(history) - 1, 0.0, 0.0, False, history)
    assert _same_float(report.contraction_rate, _median_of_ratios(history))


@pytest.mark.parametrize(
    "worst, rate",
    [
        ([1.0, 0.5, 0.1], (0.5 + 0.2) / 2),  # even count: mean of the middle two
        ([1.0, 0.5, 0.25, 0.2], 0.5),  # odd count
        ([1.0, 0.0, 0.0], float("nan")),  # 0/0
        ([0.3] * 5, 1.0),  # stalled
        ([1.0, 0.0, 2.0], float("inf")),  # 0/1 and 2/0
    ],
    ids=["even", "odd", "zero-over-zero", "stalled", "zero-then-growth"],
)
def test_contraction_rate_edge_histories(worst, rate):
    history = np.stack([worst, np.divide(worst, 3.0)], axis=1)
    report = ScalingReport(len(history) - 1, 0.0, 0.0, False, history)
    assert _same_float(report.contraction_rate, rate)
    assert _same_float(_median_of_ratios(history), rate)


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

    kmap = random_kraus(2, 3, 2, 3)
    # neither the package's Jacobi nor LAPACK's; the reference below uses the latter
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "eigh", refuse)
        patch.setattr(np.linalg, "eigh", refuse)
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


@pytest.mark.parametrize("targets", ["uniform", "rank_deficient_k"])
def test_each_half_step_solves_one_svd(monkeypatch, targets):
    # the rank-deficient K leaves the column stack short of full support
    # after the first right step, so the support prefix is cut on that path
    n, m, r = 2, 3, 2
    if targets == "rank_deficient_k":
        target_k, target_l = _rank_deficient_targets(n, m, r, 0)
    else:
        target_k, target_l = _targets(n, m, False, 0)
    config = ScalingConfig(target_k, target_l, max_iter=500)
    svd = np.linalg.svd
    short = []

    def counting(*args, **kwargs):
        u, sigmas, vh = svd(*args, **kwargs)
        short.append(sigmas[-1] ** 2 <= 1e-8 * max(1.0, sigmas[0] ** 2))
        return u, sigmas, vh

    monkeypatch.setattr(np.linalg, "svd", counting)
    _, report = sinkhorn_scale(random_kraus(n, m, r, 0), config)
    assert report.iterations > 1
    assert len(short) == 2 * report.iterations
    assert any(short) == (targets == "rank_deficient_k")


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


def test_find_extremal_candidate_rejects_rank_at_the_trace_relation(monkeypatch):
    # r^2 = n^2 + m^2: the 25 rows span at most 24 dimensions, one above
    # parthasarathy_bound(3, 4) = 4
    monkeypatch.setattr(scaling, "sinkhorn_scale", None)  # refused before any scaling
    refusal = r"^r = 5 exceeds the Parthasarathy bound 4 of \(3, 4\)"
    with pytest.raises(InfeasibleRank, match=refusal):
        find_extremal_candidate(3, 4, 5, uniform_targets(3, 4), seed=0)


def test_candidate_search_toward_skewed_targets_runs_no_jacobi(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Jacobi eigh was called")

    # ``linalg.eigh`` and its kernel, which any module holding ``eigh`` reaches
    monkeypatch.setattr(linalg, "eigh", refuse)
    monkeypatch.setattr(linalg, "_jacobi_cyclic", refuse)
    target_k, target_l = _targets(2, 3, True, seed=3)
    config = ScalingConfig(target_k, target_l, max_iter=500)
    for target, root in ((target_k, config._root_K), (target_l, config._root_L)):
        assert np.abs(root @ root - target).max() <= 1e-14
    kmap, verdict, state = find_extremal_candidate(2, 3, 2, config, seed=0)
    assert verdict.verdict
    assert np.abs(partial_trace_a(state) - target_k).max() <= 1e-9


def test_find_extremal_candidate_refuses_a_residual_tol_that_voids_its_state_check(monkeypatch):
    # the candidate's state is checked at max(tol, 10 * residual_tol)
    loose = ScalingConfig(UNIFORM_23.target_K, UNIFORM_23.target_L, residual_tol=0.05)
    kmap, verdict, state = find_extremal_candidate(2, 3, 2, loose, seed=11)
    assert (kmap.r, state.dim_a, state.dim_b) == (2, 2, 3)
    too_loose = ScalingConfig(UNIFORM_23.target_K, UNIFORM_23.target_L, residual_tol=0.1)
    monkeypatch.setattr(scaling, "sinkhorn_scale", None)  # refused before any scaling
    with pytest.raises(ValueError, match=r"^10 \* residual_tol must lie in \(0, 1\), got 1.0$"):
        find_extremal_candidate(2, 3, 2, too_loose, seed=11)


def test_two_qubit_single_op_candidate_is_maximally_entangled():
    config = uniform_targets(2, 2)
    kmap, verdict, state = find_extremal_candidate(2, 2, 1, config, seed=3)
    assert verdict.verdict
    assert numerical_rank(state.mat) == 1
    assert np.abs(partial_trace_b(state) - np.eye(2) / 2).max() < 1e-9
    assert np.abs(partial_trace_a(state) - np.eye(2) / 2).max() < 1e-9
