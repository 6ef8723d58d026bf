import re

import numpy as np
import pytest
from oracles import choi_by_definition, np_rank, random_psd

from qmarginals import (
    BipartiteState,
    DimensionMismatch,
    KrausMap,
    TraceNotOne,
    apply,
    choi_extremality,
    choi_state,
    doubly_constrained_extremality,
    dual_apply,
    kraus_from_json,
    kraus_from_state,
    kraus_to_json,
    marginal_K,
    marginal_L,
    max_entangled_projector,
    mix_ops,
    numerical_rank,
    partial_trace_a,
    partial_trace_b,
    perturbation_freedom_dim,
    random_kraus,
    sampling,
    validate_state,
)
from qmarginals.linalg import as_matrix


# ---------------------------------------------------------------------------
# construction


def test_kraus_map_requires_consistent_shapes():
    good = np.zeros((2, 3), dtype=complex)
    with pytest.raises(DimensionMismatch):
        KrausMap(2, 3, (good, np.zeros((3, 2), dtype=complex)))
    with pytest.raises(DimensionMismatch):
        KrausMap(2, 3, ())


def test_kraus_ops_read_only(example_map):
    with pytest.raises(ValueError):
        example_map.ops[0][0, 0] = 1.0


def test_kraus_ops_is_one_array_that_does_not_alias_its_input():
    source = np.arange(12, dtype=np.complex128).reshape(2, 2, 3)
    kmap = KrausMap(2, 3, source)
    ops = kmap.ops
    assert ops.shape == (2, 2, 3) and ops.dtype == np.complex128
    assert ops.flags.c_contiguous and not ops.flags.writeable
    source[0, 0, 0] = 99.0  # the writable input changes afterwards
    assert ops[0, 0, 0] == 0.0 and np.array_equal(ops.ravel(), np.arange(12))
    assert len(ops) == 2 and [op.shape for op in ops] == [(2, 3), (2, 3)]
    assert np.array_equal(KrausMap(2, 3, list(source)).ops, source)


# ---------------------------------------------------------------------------
# apply / dual_apply


def test_apply_identity_gives_uniform_K(example_map):
    assert np.abs(apply(example_map, np.eye(2)) - np.eye(3) / 3).max() < 1e-14


def test_apply_unit_matrix(example_map):
    out = apply(example_map, np.diag([1.0, 0.0]))
    assert np.abs(out - np.diag([0.0, 1 / 6, 1 / 3])).max() < 1e-14


def test_apply_zero_map():
    zero = KrausMap(2, 3, (np.zeros((2, 3), dtype=complex),))
    assert not apply(zero, np.eye(2)).any()
    assert not dual_apply(zero, np.eye(3)).any()


def test_apply_dimension_check(example_map):
    with pytest.raises(DimensionMismatch):
        apply(example_map, np.eye(3))
    with pytest.raises(DimensionMismatch):
        dual_apply(example_map, np.eye(2))


def test_apply_preserves_positivity():
    rng = np.random.default_rng(21)
    kmap = random_kraus(2, 3, 2, 21)
    for _ in range(50):
        psd = random_psd(rng, 2)
        out = apply(kmap, psd)
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_dual_identity_gives_uniform_L(example_map):
    assert np.abs(dual_apply(example_map, np.eye(3)) - np.eye(2) / 2).max() < 1e-14


def test_duality_pairing():
    rng = np.random.default_rng(33)
    kmap = random_kraus(2, 3, 3, 33)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = np.trace(apply(kmap, a) @ b)
        rhs = np.trace(a @ dual_apply(kmap, b))
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# composite state


def test_choi_state_matches_definition_oracle():
    for seed in range(10):
        kmap = random_kraus(2, 3, 1 + seed % 3, seed)
        state = choi_state(kmap)
        oracle = choi_by_definition(kmap.ops, 2, 3)
        assert np.abs(state.mat - oracle).max() < 1e-14


def test_choi_state_converts_its_matrix_once(monkeypatch):
    # KrausMap validated the operators; validate_state converts the composite
    # matrix once and BipartiteState checks that array once more
    from qmarginals import bipartite, cpmaps, linalg

    kmap = random_kraus(2, 3, 2, 0)
    expected = choi_state(kmap).mat
    calls = []

    def counting(value):
        calls.append(1)
        return as_matrix(value)

    for module in (linalg, bipartite, cpmaps):
        monkeypatch.setattr(module, "as_matrix", counting)
    assert np.array_equal(choi_state(kmap).mat, expected)
    assert len(calls) <= 2


@pytest.mark.parametrize(
    "mat, error",
    [
        (np.full((6, 6), np.nan), ValueError),
        (np.full((6, 6), 1j * np.inf), ValueError),
        (np.zeros((6, 5)), DimensionMismatch),
        (np.zeros(36), DimensionMismatch),
    ],
    ids=["nan", "inf", "shape", "1-d"],
)
def test_direct_state_construction_still_checks_its_input(mat, error):
    with pytest.raises(error):
        BipartiteState(2, 3, mat)


def test_choi_state_example_entries(example_map, example_matrix):
    state = choi_state(example_map)
    assert np.abs(state.mat - example_matrix).max() < 1e-15


def test_choi_state_single_unit_op():
    op = np.zeros((2, 3), dtype=complex)
    op[0, 0] = 1.0
    state = choi_state(KrausMap(2, 3, (op,)))
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 0] = 1.0  # unit matrix tensored with itself
    assert np.array_equal(state.mat, expected)


def test_choi_state_rank_equals_family_size():
    for seed, r in [(0, 1), (1, 2), (2, 3)]:
        kmap = random_kraus(2, 3, r, seed)
        assert numerical_rank(choi_state(kmap).mat) == r


def test_choi_state_requires_unit_trace():
    op = np.ones((2, 3), dtype=complex)
    with pytest.raises(TraceNotOne) as info:
        choi_state(KrausMap(2, 3, (op,)))
    assert info.value.trace == pytest.approx(6.0)


def test_choi_trace_equals_marginal_trace():
    for seed in range(10):
        kmap = random_kraus(2, 3, 2, seed)
        state = choi_state(kmap)
        assert abs(np.trace(state.mat) - np.trace(marginal_K(kmap))) < 1e-12


# ---------------------------------------------------------------------------
# marginal identities


def test_marginals_example(example_map):
    assert np.abs(marginal_K(example_map) - np.eye(3) / 3).max() < 1e-14
    assert np.abs(marginal_L(example_map) - np.eye(2) / 2).max() < 1e-14


def test_marginals_match_partial_traces():
    # the first-factor marginal is the conjugate of the dual identity value;
    # both are Hermitian, so this is a transpose, invisible on real families
    for seed in range(20):
        kmap = random_kraus(2, 3, 1 + seed % 3, seed)
        state = choi_state(kmap)
        assert np.abs(marginal_K(kmap) - partial_trace_a(state)).max() < 1e-12
        assert np.abs(np.conj(marginal_L(kmap)) - partial_trace_b(state)).max() < 1e-12


def test_marginal_L_single_isometry_like_op():
    op = np.zeros((2, 3), dtype=complex)
    op[0, 0] = op[1, 1] = 1 / np.sqrt(2.0)
    kmap = KrausMap(2, 3, (op,))
    assert np.abs(marginal_L(kmap) - np.eye(2) / 2).max() < 1e-14


# ---------------------------------------------------------------------------
# extremality criteria


def test_choi_extremality_single_op():
    op = sampling.ginibre(sampling.generator(1), 2, 3)
    report = choi_extremality(KrausMap(2, 3, (op,)))
    assert report.family_size == 1
    assert report.stacked_rank == 1
    assert report.verdict


def test_choi_extremality_example(example_map):
    report = choi_extremality(example_map)
    assert report.criterion == "choi"
    assert report.family_size == 4
    assert report.stacked_rank == 4
    assert report.verdict is True
    assert "independent" not in report.to_json()


def test_choi_extremality_duplicated_ops():
    op = sampling.ginibre(sampling.generator(2), 2, 3)
    report = choi_extremality(KrausMap(2, 3, (op, op)))
    assert not report.verdict
    assert report.stacked_rank < report.family_size


def test_doubly_constrained_example(example_map):
    report = doubly_constrained_extremality(example_map)
    assert report.criterion == "landau_streater"
    assert report.family_size == 4
    assert report.stacked_rank == 4
    assert report.verdict
    assert report.margin.smallest_retained > 0


def test_doubly_constrained_single_op_always_extreme():
    op = sampling.ginibre(sampling.generator(3), 2, 3)
    assert doubly_constrained_extremality(KrausMap(2, 3, (op,))).verdict


def test_doubly_constrained_generic_r3_extreme_r4_never():
    for seed in range(5):
        kmap = random_kraus(2, 3, 3, seed)
        assert doubly_constrained_extremality(kmap).verdict  # 9 <= 13
    for seed in range(3):
        kmap = random_kraus(2, 3, 4, seed)
        report = doubly_constrained_extremality(kmap)
        assert not report.verdict  # 16 rows in a 13-dimensional space
        assert report.stacked_rank <= 13


def test_stacked_rank_agrees_with_numpy(example_map):
    ops = example_map.ops
    rows = [
        np.concatenate(
            [np.ravel(ops[i].conj().T @ ops[j]), np.ravel(ops[j] @ ops[i].conj().T)]
        )
        for i in range(2)
        for j in range(2)
    ]
    assert np_rank(np.array(rows)) == 4


# ---------------------------------------------------------------------------
# state -> Kraus inversion


def test_kraus_from_state_round_trips_example(example_state):
    kmap = kraus_from_state(example_state)
    assert kmap.r == 2
    again = choi_state(kmap)
    assert np.abs(again.mat - example_state.mat).max() < 1e-10


def test_kraus_from_state_pure_product():
    rng = sampling.generator(8)
    vec_a = sampling.ginibre(rng, 2, 1).ravel()
    vec_a /= np.linalg.norm(vec_a)
    vec_b = sampling.ginibre(rng, 3, 1).ravel()
    vec_b /= np.linalg.norm(vec_b)
    product = np.kron(vec_a, vec_b)
    state = validate_state(np.outer(product, product.conj()), 2, 3)
    kmap = kraus_from_state(state)
    assert kmap.r == 1
    assert np.linalg.norm(kmap.ops[0]) == pytest.approx(1.0, abs=1e-12)


def test_kraus_from_state_full_rank():
    state = validate_state(np.eye(6, dtype=complex) / 6, 2, 3)
    assert kraus_from_state(state).r == 6


def test_kraus_from_state_random_round_trips():
    for seed in range(20):
        kmap = random_kraus(2, 3, 1 + seed % 3, seed)
        state = choi_state(kmap)
        again = choi_state(kraus_from_state(state))
        assert np.abs(again.mat - state.mat).max() < 1e-8


def test_kraus_from_state_phase_convention(example_state):
    for op in kraus_from_state(example_state).ops:
        anchor = op.ravel()[int(np.argmax(np.abs(op)))]
        assert anchor.imag == pytest.approx(0.0, abs=1e-12)
        assert anchor.real > 0


# ---------------------------------------------------------------------------
# unitary mixing invariance


def test_mix_ops_leaves_state_and_verdicts_alone():
    for seed in range(10):
        kmap = random_kraus(2, 3, 2, seed)
        u = sampling.random_unitary(sampling.generator(100 + seed), 2)
        mixed = mix_ops(kmap, u)
        assert np.abs(choi_state(mixed).mat - choi_state(kmap).mat).max() < 1e-10
        assert (
            doubly_constrained_extremality(mixed).verdict
            == doubly_constrained_extremality(kmap).verdict
        )
        assert choi_extremality(mixed).verdict == choi_extremality(kmap).verdict


def test_mix_ops_rejects_wrong_size(example_map):
    with pytest.raises(DimensionMismatch):
        mix_ops(example_map, np.eye(3))


# ---------------------------------------------------------------------------
# oracle equivalence and the two-qubit characterization


def test_independence_verdict_matches_perturbation_oracle():
    for seed in range(40):
        r = 1 + seed % 3
        kmap = random_kraus(2, 3, r, seed)
        state = choi_state(kmap)
        if numerical_rank(state.mat) != r:
            continue  # dependent family: state rank differs, criteria diverge
        verdict = doubly_constrained_extremality(kmap).verdict
        assert verdict == (perturbation_freedom_dim(state) == 0)


def test_two_qubit_uniform_marginals_characterization():
    # maximally entangled pure states pass; their rank-two mixtures fail
    for seed in range(20):
        u = sampling.random_unitary(sampling.generator(seed), 2)
        state = max_entangled_projector(u)
        kmap = kraus_from_state(state)
        assert kmap.r == 1
        assert np.abs(marginal_K(kmap) - np.eye(2) / 2).max() < 1e-12
        assert np.abs(marginal_L(kmap) - np.eye(2) / 2).max() < 1e-12
        assert doubly_constrained_extremality(kmap).verdict

    plus = max_entangled_projector(np.eye(2))
    minus = max_entangled_projector(np.diag([1.0, -1.0]))
    mixture = validate_state(0.5 * (plus.mat + minus.mat), 2, 2)
    assert np.abs(partial_trace_b(mixture) - np.eye(2) / 2).max() < 1e-14
    assert np.abs(partial_trace_a(mixture) - np.eye(2) / 2).max() < 1e-14
    kmap = kraus_from_state(mixture)
    assert kmap.r == 2
    assert not doubly_constrained_extremality(kmap).verdict
    assert perturbation_freedom_dim(mixture) > 0


# ---------------------------------------------------------------------------
# JSON


def test_kraus_json_round_trip(example_map):
    again = kraus_from_json(kraus_to_json(example_map))
    assert again.n == 2 and again.m == 3 and again.r == 2
    for mine, theirs in zip(again.ops, example_map.ops):
        assert np.array_equal(mine, theirs)


ONE_OP = [{"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}]


@pytest.mark.parametrize(
    "broken, message",
    [
        pytest.param({"n": 2, "m": 3}, "kraus object: missing field 'ops'", id="broken0"),
        pytest.param({"n": 2, "m": 3, "ops": []},
                     "field 'ops': expected a nonempty list of matrices", id="broken1"),
        pytest.param({"n": 0, "m": 3, "ops": ONE_OP},
                     "field 'n': expected a positive integer", id="broken2"),
        pytest.param([1, 2, 3], "kraus object: expected a JSON object", id="broken3"),
        pytest.param({"m": 1, "ops": ONE_OP}, "kraus object: missing field 'n'", id="missing-n"),
        pytest.param({"n": 1, "ops": ONE_OP}, "kraus object: missing field 'm'", id="missing-m"),
        pytest.param({"n": True, "m": 1, "ops": ONE_OP},
                     "field 'n': expected a positive integer", id="n-true"),
        pytest.param({"n": 1, "m": True, "ops": ONE_OP},
                     "field 'm': expected a positive integer", id="m-true"),
        pytest.param({"n": 1, "m": 0, "ops": ONE_OP},
                     "field 'm': expected a positive integer", id="m-zero"),
    ],
)
def test_kraus_json_rejects_malformed(broken, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kraus_from_json(broken)
