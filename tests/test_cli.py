import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmarginals
from qmarginals import (
    KrausMap,
    check_rank_bound,
    choi_state,
    extremal_qubit_qutrit_map,
    kraus_from_json,
    kraus_from_state,
    kraus_to_json,
    matrix_to_json,
    mix_ops,
    ppt_check,
    random_kraus,
    sinkhorn_scale,
    state_to_json,
    state_violations,
    uniform_targets,
    validate_state,
)
from qmarginals.cli import main


@pytest.fixture()
def example_kraus_file(tmp_path):
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(kraus_to_json(extremal_qubit_qutrit_map())))
    return str(path)


@pytest.fixture()
def example_state_file(tmp_path):
    state = choi_state(extremal_qubit_qutrit_map())
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(state)))
    return str(path)


# ---------------------------------------------------------------------------
# demo


def test_demo_passes(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_demo_json_report(capsys):
    assert main(["demo", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"]
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names)) >= 12
    assert all(c["passed"] for c in report["checks"])


# ---------------------------------------------------------------------------
# verify-state


def test_verify_state_example(example_state_file, capsys):
    assert main(["verify-state", example_state_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"]
    assert report["rank"] == 2
    assert report["rank_bound"] == {"bound": 3, "within_bound": True}
    assert report["ppt"]["verdict"] == "entangled"
    assert report["perturbation_freedom"] == 0
    marginal = np.array(report["marginal_a"]["entries"]).reshape(2, 2, 2)
    assert np.allclose(marginal[..., 0], np.eye(2) / 2, atol=1e-12)


def test_verify_state_shows_rank_margin(example_state_file, capsys):
    assert main(["verify-state", example_state_file, "--json"]) == 0
    margin = json.loads(capsys.readouterr().out)["rank_margin"]
    # Gram scale: squared singular values, the eigenvalues being 1/2, 1/2, 0, ...
    assert abs(margin["smallest_retained"] - 0.25) <= 1e-12
    assert 0.0 <= margin["largest_discarded"] <= 1e-28
    assert main(["verify-state", example_state_file]) == 0
    text = capsys.readouterr().out
    assert (
        f"rank: 2 (retained {margin['smallest_retained']:.2g}, "
        f"discarded {margin['largest_discarded']:.2g}; extremality bound 3)"
    ) in text


@pytest.mark.parametrize("factor, rank", [(0.5, 2), (2.0, 3)])
def test_verify_state_rank_margin_brackets_the_cutoff(tmp_path, capsys, factor, rank):
    # one eigenvalue at factor x the cutoff tol * lambda_max = 6e-9
    small = factor * 1e-8 * 0.6
    state = validate_state(np.diag([0.6, 0.4 - small, small, 0.0, 0.0, 0.0]), 2, 3)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(state_to_json(state)))
    assert main(["verify-state", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    margin = report["rank_margin"]
    assert report["rank"] == rank
    if rank == 2:
        assert margin["largest_discarded"] == pytest.approx(small**2, rel=1e-9)
        assert margin["smallest_retained"] == pytest.approx((0.4 - small) ** 2, rel=1e-9)
    else:
        assert margin["smallest_retained"] == pytest.approx(small**2, rel=1e-9)
        assert margin["largest_discarded"] == 0.0
    assert main(["verify-state", str(path)]) == 0
    assert f"rank: {rank} (retained " in capsys.readouterr().out


def test_rank_bound_and_oracle_read_one_rank_rule(tmp_path, capsys):
    # a rank-3 state with its null eigenvalue pushed to -8e-9: larger in
    # magnitude than the cutoff 1e-8 * lambda_max, but not support
    rho = choi_state(random_kraus(2, 3, 3, 0))
    null = np.linalg.eigh(rho.mat)[1][:, 0]
    state = validate_state(rho.mat - 8e-9 * np.outer(null, null.conj()), 2, 3)
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(state_to_json(state)))
    assert main(["verify-state", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eigenvalues"][0] == pytest.approx(-8e-9, rel=1e-6)
    assert report["rank"] == 3
    assert report["rank_bound"] == {"bound": 3, "within_bound": True}
    assert report["perturbation_freedom"] == 0
    assert check_rank_bound(state)
    assert kraus_from_state(state).r == 3
    assert main(["verify-state", str(path)]) == 0
    assert "cannot be an extreme point" not in capsys.readouterr().out


def test_verify_state_with_kraus_section(example_state_file, example_kraus_file, capsys):
    code = main(["verify-state", example_state_file, "--kraus", example_kraus_file, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["doubly_constrained"]["verdict"] is True
    assert main(["verify-state", example_state_file, "--kraus", example_kraus_file]) == 0
    text = capsys.readouterr().out
    assert "doubly-constrained criterion: stacked rank 4 of 4 -> extreme" in text


def test_verify_state_shows_ppt_threshold(example_state_file, capsys):
    assert main(["verify-state", example_state_file, "--json"]) == 0
    ppt = json.loads(capsys.readouterr().out)["ppt"]
    assert ppt["threshold"] == -1e-8  # -tol * max(1, ||PT||_F), the norm being below 1
    assert main(["verify-state", example_state_file]) == 0
    text = capsys.readouterr().out
    assert f"(min eigenvalue {ppt['min_eigenvalue']:.6g}, threshold {ppt['threshold']:.6g})" in text


def test_verify_state_not_psd_names_its_limit(tmp_path, capsys, example_matrix):
    bad = example_matrix.copy()
    bad[0, 0] = -1.2e-7
    bad[2, 2] += 1.2e-7  # keep the trace at one
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 3, "matrix": matrix_to_json(bad)}))
    assert main(["verify-state", "--json", str(path)]) == 1
    (violation,) = json.loads(capsys.readouterr().out)["violations"]
    assert violation["kind"] == "not_psd"
    assert violation["message"] == f"minimum eigenvalue {violation['value']:.3e} below -1.000e-08"


def _write_state_and_family(tmp_path, state_kmap, family):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state_to_json(choi_state(state_kmap))))
    kraus_path = tmp_path / "family.json"
    kraus_path.write_text(json.dumps(kraus_to_json(family)))
    return str(state_path), str(kraus_path)


def test_verify_state_accepts_mixed_own_family(tmp_path, capsys):
    kmap = random_kraus(2, 3, 2, 5)
    unitary = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    paths = _write_state_and_family(tmp_path, kmap, mix_ops(kmap, unitary))
    assert main(["verify-state", paths[0], "--kraus", paths[1], "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["doubly_constrained"]["verdict"] is True


def test_verify_state_refuses_family_of_other_dimensions(tmp_path, capsys):
    paths = _write_state_and_family(tmp_path, random_kraus(2, 3, 2, 5), random_kraus(3, 3, 5, 7))
    assert main(["verify-state", paths[0], "--kraus", paths[1]]) == 2
    _assert_one_line_error(capsys)


def test_verify_state_refuses_family_of_other_state(tmp_path, capsys):
    paths = _write_state_and_family(tmp_path, random_kraus(2, 3, 2, 5), random_kraus(2, 3, 2, 6))
    assert main(["verify-state", paths[0], "--kraus", paths[1], "--json"]) == 2
    _assert_one_line_error(capsys)


def test_verify_state_refuses_overflowing_family_with_one_line(tmp_path, capsys):
    # the family's composite state has entries near 1e280: its deviation
    # from the state overflows the Frobenius norm
    kmap = extremal_qubit_qutrit_map()
    paths = _write_state_and_family(tmp_path, kmap, KrausMap(2, 3, kmap.ops * 1e140))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify-state", paths[0], "--kraus", paths[1]]) == 2
    assert caught == []
    _assert_one_line_error(capsys)


def test_verify_state_maximally_mixed_flags_bound(tmp_path, capsys):
    state = validate_state(np.eye(6, dtype=complex) / 6, 2, 3)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(state_to_json(state)))
    assert main(["verify-state", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"]
    assert report["rank"] == 6
    assert not report["rank_bound"]["within_bound"]
    capsys.readouterr()
    assert main(["verify-state", str(path)]) == 0
    text = capsys.readouterr().out
    assert "cannot be an extreme point" in text


def test_verify_state_invalid_reports_violations(tmp_path, capsys):
    state = choi_state(extremal_qubit_qutrit_map())
    doc = state_to_json(state)
    doc["matrix"]["entries"][0] = [0.5, 0.0]  # breaks trace and positivity is kept
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-state", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"]
    assert any(v["kind"] == "trace_not_one" for v in report["violations"])
    assert main(["verify-state", str(path)]) == 1
    text = capsys.readouterr().out
    assert "valid density matrix: NO" in text
    assert "  violation [trace_not_one]: trace is " in text


def test_verify_state_bare_matrix_needs_dims(tmp_path, capsys):
    from qmarginals import matrix_to_json

    path = tmp_path / "bare.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(6) / 6)))
    assert main(["verify-state", str(path)]) == 2
    assert main(["verify-state", str(path), "--dims", "2,3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["dim_a"] == 2 and report["dim_b"] == 3


@pytest.mark.parametrize(
    "dims, reason",
    [
        ("2", "expected two comma-separated integers"),
        ("a,b", "dimensions must be integers"),
        ("0,3", "dimensions must be positive"),
    ],
)
def test_verify_state_rejects_bad_dims(tmp_path, capsys, dims, reason):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(6) / 6)))
    assert main(["verify-state", str(path), "--dims", dims]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0].startswith("usage: qmarginals")
    assert f"error: argument --dims: {reason}" in lines[-1]


def test_verify_state_truncated_file(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"dim_a": 2, "dim_b": 3, "matrix"')
    assert main(["verify-state", str(path)]) == 2
    err = capsys.readouterr().err
    assert "byte offset" in err


def test_verify_state_missing_file():
    assert main(["verify-state", "/nonexistent/state.json"]) == 2


# ---------------------------------------------------------------------------
# choi / kraus conversions


def test_choi_writes_expected_state(example_kraus_file, tmp_path, example_matrix):
    out = tmp_path / "state.json"
    assert main(["choi", example_kraus_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    entries = np.array(doc["matrix"]["entries"])
    mat = (entries[:, 0] + 1j * entries[:, 1]).reshape(6, 6)
    assert np.abs(mat - example_matrix).max() < 1e-15


def test_choi_stdout_equals_file_output(example_kraus_file, tmp_path, capsys):
    assert main(["choi", example_kraus_file]) == 0
    stdout_doc = capsys.readouterr().out
    out = tmp_path / "state.json"
    assert main(["choi", example_kraus_file, "-o", str(out)]) == 0
    assert json.loads(stdout_doc) == json.loads(out.read_text())


def test_choi_rejects_empty_ops(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 2, "m": 3, "ops": []}))
    assert main(["choi", str(path)]) == 2


def test_choi_rejects_unnormalized_family(tmp_path):
    kmap = kraus_to_json(extremal_qubit_qutrit_map())
    kmap["ops"][0]["entries"] = [[x * 3, y * 3] for x, y in kmap["ops"][0]["entries"]]
    path = tmp_path / "off.json"
    path.write_text(json.dumps(kmap))
    assert main(["choi", str(path)]) == 1


def test_kraus_choi_round_trip(tmp_path):
    for seed in range(20):
        kmap = random_kraus(2, 3, 1 + seed % 3, seed)
        state = choi_state(kmap)
        state_path = tmp_path / f"state{seed}.json"
        state_path.write_text(json.dumps(state_to_json(state)))
        kraus_path = tmp_path / f"kraus{seed}.json"
        assert main(["kraus", str(state_path), "-o", str(kraus_path)]) == 0
        back_path = tmp_path / f"back{seed}.json"
        assert main(["choi", str(kraus_path), "-o", str(back_path)]) == 0
        doc = json.loads(back_path.read_text())
        entries = np.array(doc["matrix"]["entries"])
        mat = (entries[:, 0] + 1j * entries[:, 1]).reshape(6, 6)
        assert np.abs(mat - state.mat).max() <= 1e-8


def test_stdin_stdout_dash(example_kraus_file, capsys, monkeypatch):
    payload = open(example_kraus_file).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["choi", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_a"] == 2 and doc["dim_b"] == 3


# ---------------------------------------------------------------------------
# extremal-check


def test_extremal_check_example(example_kraus_file, capsys):
    assert main(["extremal-check", example_kraus_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["single_marginal"]["verdict"] is True
    assert report["double_marginal"]["verdict"] is True
    assert report["perturbation_freedom"] == 0
    assert report["agreement"] is True


def test_extremal_check_duplicated_ops(tmp_path):
    base = kraus_to_json(extremal_qubit_qutrit_map())
    scale = 1 / np.sqrt(2.0)
    ops = []
    for op in (base["ops"][0], base["ops"][0]):
        ops.append(
            {
                "rows": op["rows"],
                "cols": op["cols"],
                "entries": [[x * scale, y * scale] for x, y in op["entries"]],
            }
        )
    # duplicated operator scaled to keep unit trace: never independent
    doc = {"n": 2, "m": 3, "ops": ops}
    doc["ops"].append(base["ops"][1])
    total = 0.0
    for op in doc["ops"]:
        total += sum(x * x + y * y for x, y in op["entries"])
    norm = 1 / np.sqrt(total)
    for op in doc["ops"]:
        op["entries"] = [[x * norm, y * norm] for x, y in op["entries"]]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert main(["extremal-check", str(path)]) == 1


def test_extremal_check_r4_infeasible_count(tmp_path, capsys):
    # 16 product rows can never be independent in a 13-dimensional space
    path = tmp_path / "r4.json"
    path.write_text(json.dumps(kraus_to_json(random_kraus(2, 3, 4, 0))))
    assert main(["extremal-check", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["double_marginal"]["verdict"] is False
    assert report["double_marginal"]["stacked_rank"] <= 13


def test_kraus_rejects_invalid_state(tmp_path):
    doc = state_to_json(choi_state(extremal_qubit_qutrit_map()))
    doc["matrix"]["entries"][0] = [-0.5, 0.0]  # negative eigenvalue
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main(["kraus", str(path)]) == 1


def test_extremal_check_dimension_mismatch(tmp_path):
    doc = {
        "n": 2,
        "m": 3,
        "ops": [{"rows": 3, "cols": 2, "entries": [[1.0, 0.0]] * 6}],
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    assert main(["extremal-check", str(path)]) == 2


# ---------------------------------------------------------------------------
# sinkhorn


def test_sinkhorn_converges_and_feeds_extremal_check(tmp_path, capsys):
    out = tmp_path / "scaled.json"
    code = main(["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--seed", "7", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["converged"]
    assert doc["report"]["residual_k"] <= 1e-10
    assert doc["report"]["residual_l"] <= 1e-10
    capsys.readouterr()
    assert main(["extremal-check", str(out)]) == 0  # wrapper document accepted


def test_sinkhorn_output_matches_in_process_scaling(capsys):
    assert main(["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    scaled, report = sinkhorn_scale(random_kraus(2, 3, 2, 7), uniform_targets(2, 3))
    parsed = kraus_from_json(doc["kraus"])
    assert (parsed.n, parsed.m, parsed.r) == (2, 3, 2)
    for op, expected in zip(parsed.ops, scaled.ops):
        assert np.array_equal(op.real, expected.real)
        assert np.array_equal(op.imag, expected.imag)
    assert doc["report"]["iterations"] == report.iterations
    assert doc["report"]["history"] == report.history.tolist()


def test_sinkhorn_rank_obstruction_fails(tmp_path, capsys):
    code = main(["sinkhorn", "--n", "2", "--m", "3", "--r", "1", "--seed", "0"])
    assert code == 1
    assert "rank" in capsys.readouterr().err


def test_sinkhorn_rejects_zero_ops(capsys):
    assert main(["sinkhorn", "--n", "2", "--m", "3", "--r", "0"]) == 2
    _assert_one_line_error(capsys)
    for n, m in (("0", "3"), ("2", "0")):
        assert main(["sinkhorn", "--n", n, "--m", m, "--r", "2"]) == 2
        _assert_one_line_error(capsys)


def test_sinkhorn_json_summary_when_writing_a_file(tmp_path, capsys):
    out = tmp_path / "scaled.json"
    argv = ["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--seed", "7", "-o", str(out)]
    assert main(argv + ["--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == json.loads(out.read_text())["report"]
    assert summary["converged"]


def test_sinkhorn_deterministic_documents(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--seed", "5"]
    assert main(argv + ["-o", str(first)]) == 0
    assert main(argv + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sinkhorn_history_truncation(tmp_path):
    out = tmp_path / "cut.json"
    argv = ["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--seed", "5", "-o", str(out)]
    assert main(argv + ["--history", "4"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["report"]["history"]) == 4
    assert doc["report"]["iterations"] > 4


def test_sinkhorn_rejects_negative_history(capsys):
    argv = ["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--history", "-5"]
    assert main(argv) == 2
    _assert_one_line_error(capsys)
    assert main(["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be 0 or more\n"


@pytest.mark.parametrize("message", ["Unable to allocate 149. GiB for an array", ""])
def test_out_of_memory_is_one_line_usage_error(monkeypatch, capsys, message):
    # raised by a stand-in: a real oversized request may be granted by an
    # overcommitting host and then filled
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("qmarginals.cli.ScalingConfig", refuse)
    assert main(["sinkhorn", "--n", "2", "--m", "3", "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.strip().splitlines()
    assert line == f"error: out of memory: {message or 'allocation refused'}"


def test_sinkhorn_custom_targets(tmp_path):
    from qmarginals import matrix_to_json

    target_k = tmp_path / "k.json"
    target_k.write_text(json.dumps(matrix_to_json(np.diag([0.5, 0.3, 0.2]))))
    out = tmp_path / "scaled.json"
    code = main(
        [
            "sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--seed", "1",
            "--target-k", str(target_k), "-o", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["converged"]


# ---------------------------------------------------------------------------
# report determinism and mode equivalence


def test_reports_are_byte_identical_across_runs(example_state_file, capsys):
    assert main(["verify-state", example_state_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-state", example_state_file, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_text_and_json_agree_on_values(example_state_file, capsys):
    assert main(["verify-state", example_state_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["verify-state", example_state_file]) == 0
    text = capsys.readouterr().out
    assert f"rank: {report['rank']}" in text
    assert report["ppt"]["verdict"] in text
    # six-significant-digit rendering of the most negative PT eigenvalue
    assert f"{report['ppt']['min_eigenvalue']:.6g}" in text


# ---------------------------------------------------------------------------
# malformed input: exit 2 with a one-line error, never a traceback


def _assert_one_line_error(capsys, usage=False):
    """Input errors print one ``error:`` line; argparse puts its usage text
    above it."""
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    if usage:
        assert lines[0].startswith("usage: qmarginals")
        assert lines[-1].startswith("qmarginals") and ": error: " in lines[-1]
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def _state_doc():
    return state_to_json(choi_state(extremal_qubit_qutrit_map()))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["matrix"].update(rows=True),
        lambda doc: doc["matrix"].update(cols=True),
        lambda doc: doc["matrix"]["entries"].__setitem__(0, [True, 0.0]),
        lambda doc: doc["matrix"]["entries"].__setitem__(1, [0.0, False]),
        lambda doc: doc.update(dim_a=True),
        lambda doc: doc.update(dim_b=True),
    ],
    ids=["rows", "cols", "entry-re", "entry-im", "dim_a", "dim_b"],
)
def test_verify_state_rejects_json_booleans(tmp_path, capsys, corrupt):
    doc = _state_doc()
    corrupt(doc)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-state", str(path), "--json"]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "corrupt",
    [lambda doc: doc.pop("dim_a"), lambda doc: doc.update(dim_b=0)],
    ids=["missing-dim_a", "zero-dim_b"],
)
def test_verify_state_reads_state_objects_like_kraus(tmp_path, capsys, corrupt):
    doc = _state_doc()
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["kraus", str(path)]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("error: ") and expected.count("\n") == 1
    assert main(["verify-state", str(path)]) == 2
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize(
    "command, field",
    [("kraus", "dim_a"), ("kraus", "dim_b"), ("choi", "n"), ("extremal-check", "m")],
)
def test_state_and_kraus_parsers_reject_json_booleans(tmp_path, capsys, command, field):
    if command == "kraus":
        doc = _state_doc()
    else:
        doc = kraus_to_json(extremal_qubit_qutrit_map())
    doc[field] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "command, offers_json",
    [
        ("verify-state", True),
        ("choi", False),
        ("kraus", False),
        ("extremal-check", True),
        ("sinkhorn", True),
        ("demo", True),
    ],
)
def test_subcommand_help_lists_its_options(capsys, command, offers_json):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: qmarginals {command} ")
    assert "--tol" in out
    assert ("--json" in out) == offers_json


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf", "abc"])
@pytest.mark.parametrize(
    "argv",
    [
        ["demo"],
        ["verify-state", "-"],
        ["choi", "-"],
        ["kraus", "-"],
        ["extremal-check", "-"],
        ["sinkhorn", "--n", "2", "--m", "3", "--r", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_tol_must_be_finite_and_positive(capsys, argv, tol):
    assert main(argv + ["--tol", tol]) == 2
    _assert_one_line_error(capsys, usage=True)


@pytest.mark.parametrize("command", ["verify-state", "choi", "kraus", "extremal-check"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main([command, str(path)]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("command", ["verify-state", "kraus"])
def test_matrix_with_overflowing_norm_is_refused(tmp_path, capsys, command):
    # every entry is finite, but the Frobenius norm is not
    doc = {"dim_a": 2, "dim_b": 3, "matrix": {"rows": 6, "cols": 6, "entries": [[1e308, 0]] * 36}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(path)]) == 2
    assert caught == []
    _assert_one_line_error(capsys)


def test_entry_past_the_frobenius_limit_is_refused_naming_entries(tmp_path, capsys):
    # the wire format does not rescale the sum of squares: 1e300 squared overflows
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[1e300, 0]]}))
    assert main(["verify-state", "--dims", "1,1", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'entries'" in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_nan_entry_is_refused_naming_entries(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[float("nan"), 0.0]]}))
    assert "NaN" in path.read_text()
    assert main(["verify-state", "--dims", "1,1", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: field 'entries': entries must be finite\n"


def test_extremal_check_huge_entry_fails_with_one_line(tmp_path, capsys):
    # a finite norm, but the rank tests square singular values past the double range
    op = {"rows": 2, "cols": 3, "entries": [[1e80, 0]] + [[0.0, 0.0]] * 5}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "m": 3, "ops": [op]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["extremal-check", str(path)]) == 1
    assert caught == []
    _assert_one_line_error(capsys)


def test_tol_accepts_small_positive_values(capsys):
    assert main(["demo", "--tol", "1e-9"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_sinkhorn_rejects_non_psd_target(tmp_path, capsys):
    from qmarginals import matrix_to_json

    target_l = tmp_path / "l.json"
    target_l.write_text(json.dumps(matrix_to_json(np.diag([1.5, -0.5]))))
    argv = ["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--target-l", str(target_l)]
    assert main(argv) == 1
    assert "target_L has eigenvalue" in capsys.readouterr().err


HUGE_INTEGERS = st.sampled_from([2**53 + 1, 10**20, 10**150, 10**200, 10**308, 10**309, 10**400]).flatmap(
    lambda x: st.sampled_from([x, -x])
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | HUGE_INTEGERS
    | st.floats()
    | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)

SINKHORN = ["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--max-iter", "50"]
# each command reading one JSON document from stdin, with a valid document for it
FUZZED_COMMANDS = [
    (["verify-state", "--json", "-"], _state_doc),
    (["kraus", "-"], _state_doc),
    (["choi", "-"], lambda: kraus_to_json(extremal_qubit_qutrit_map())),
    (["extremal-check", "--json", "-"], lambda: kraus_to_json(extremal_qubit_qutrit_map())),
    (SINKHORN + ["--target-k", "-"], lambda: matrix_to_json(np.eye(3) / 3)),
    (SINKHORN + ["--target-l", "-"], lambda: matrix_to_json(np.eye(2) / 2)),
]


def _json_paths(doc, prefix=()):
    """Every key path into ``doc`` below its root."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@st.composite
def _damaged(draw, doc):
    """``doc`` with one field dropped, retyped, made overlong or replaced by
    a huge integer."""
    path = draw(st.sampled_from(list(_json_paths(doc))))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    key = path[-1]
    how = draw(st.sampled_from(["drop", "retype", "overlong", "huge"]))
    if how == "drop":
        del holder[key]
    elif how == "retype":
        holder[key] = draw(JSON_VALUES)
    elif how == "overlong":
        value = holder[key]
        holder[key] = value + value if isinstance(value, list) else [value, value]
    else:
        holder[key] = draw(HUGE_INTEGERS)
    return doc


@st.composite
def _fuzz_cases(draw):
    argv, valid = draw(st.sampled_from(FUZZED_COMMANDS))
    return argv, draw(st.one_of(JSON_VALUES, _damaged(valid()), st.just(valid())))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(case=_fuzz_cases())
@example(
    case=(
        ["verify-state", "--json", "-"],
        {"dim_a": 1, "dim_b": 1, "matrix": {"rows": 1, "cols": 1, "entries": [[10**400, 0]]}},
    )
)
def test_fuzzed_json_exits_0_1_or_2_with_one_line_errors(case):
    argv, doc = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


# ---------------------------------------------------------------------------
# module entry point


def _run_python(*args):
    """A fresh interpreter with this checkout's package on its path."""
    src_dir = os.path.dirname(os.path.dirname(qmarginals.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_module_entry_point_runs_demo():
    proc = _run_python("-m", "qmarginals.cli", "demo")
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout


def test_import_leaves_numpy_random_unloaded(capsys):
    # numpy.random loads when a seeded factory first runs, not at import;
    # the demo, which draws nothing, passes without it
    probe = (
        "import sys\n"
        "from qmarginals import cli\n"
        "loaded = 'numpy.random' in sys.modules\n"
        "code = cli.main(['demo'])\n"
        "print(loaded, code, 'numpy.random' in sys.modules)"
    )
    proc = _run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False 0 False"
    # a seeded family made after the lazy import equals one made in a
    # process that loaded numpy.random up front
    argv = ["sinkhorn", "--n", "2", "--m", "3", "--r", "2", "--seed", "7"]
    proc = _run_python("-m", "qmarginals.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    import numpy.random  # noqa: F401
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_export_table_names_each_attribute_once():
    names = qmarginals.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qmarginals, name)] == []


# ---------------------------------------------------------------------------
# eigenvalue-only paths: LAPACK, never the Jacobi kernel


def test_eigenvalue_only_paths_never_reach_jacobi(
    monkeypatch, capsys, example_map, example_matrix, example_state_file
):
    from qmarginals import bipartite, cli, linalg

    state = validate_state(example_matrix, 2, 3)
    freedom = bipartite.perturbation_freedom_dim(state)

    def refuse(*args, **kwargs):
        raise AssertionError("the Jacobi kernel was called")

    monkeypatch.setattr(linalg, "_jacobi_cyclic", refuse)
    with pytest.raises(AssertionError, match="Jacobi"):
        linalg.eigh(example_matrix)  # the patch is in effect
    assert state_violations(example_matrix, 2, 3) == []
    assert validate_state(example_matrix, 2, 3).dim_b == 3
    assert np.abs(choi_state(example_map).mat - example_matrix).max() < 1e-14
    assert ppt_check(state).verdict == "entangled"

    # the perturbation oracle reads eigenvectors; it answers from the real
    # kernel for the one state both commands see
    def known_freedom(seen, tol):
        assert np.abs(seen.mat - state.mat).max() <= 1e-14
        return freedom

    monkeypatch.setattr(cli, "perturbation_freedom_dim", known_freedom)
    assert main(["verify-state", "--json", example_state_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["ppt"]["verdict"] == "entangled"
    assert np.allclose(report["eigenvalues"], [0, 0, 0, 0, 0.5, 0.5], atol=1e-12)
    assert main(["demo", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"]
