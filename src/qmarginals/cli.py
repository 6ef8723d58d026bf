"""Command-line surface.

Subcommands wire the library together around JSON files:

* ``verify-state``   - density-matrix validity plus the full marginal /
  rank / PPT / extremality report for a state file.  The reported
  spectrum, the rank and its margin (the smallest retained and largest
  discarded squared eigenvalues) come from one ``eigvalsh`` through
  ``linalg.rank_of_values``, the rule and spectrum the oracle reads too.
* ``choi`` / ``kraus`` - convert between Kraus families and composite
  states (inverse directions of the same correspondence).
* ``extremal-check`` - both linear-independence criteria and the
  perturbation oracle for a Kraus file.
* ``sinkhorn``       - scale a seeded random family toward target marginals
  and emit the family plus the iteration report.
* ``demo``           - replay the bundled qubit-qutrit extremal example and
  verify every claimed property of it.

Exit codes are uniform: 0 success/pass, 1 semantic failure (invalid state,
not extreme, no convergence), 2 input or usage error, a request too large
for memory included.  "-" stands for
stdin/stdout.  Reports are deterministic functions of the inputs and flags;
JSON mode prints doubles round-trip exactly, text mode rounds to 6
significant digits.
"""

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import __version__
from .bipartite import (
    BipartiteState,
    _state_fields,
    partial_trace_a,
    partial_trace_b,
    parthasarathy_bound,
    perturbation_freedom_dim,
    ppt_check,
    state_from_json,
    state_to_json,
    state_violations,
)
from .cpmaps import (
    KrausMap,
    _composite_matrix,
    choi_extremality,
    choi_state,
    doubly_constrained_extremality,
    extremal_qubit_qutrit_map,
    kraus_from_json,
    kraus_from_state,
    kraus_to_json,
    marginal_K,
    marginal_L,
)
from .errors import DimensionMismatch, NoConvergence, QMarginalsError
from .linalg import (
    DEFAULT_TOL,
    eigvalsh,
    frobenius,
    matrix_from_json,
    matrix_to_json,
    rank_of_values,
)
from .scaling import ScalingConfig, random_kraus, sinkhorn_scale

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# I/O helpers


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _write_text(path: str, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit(report: dict, as_json: bool, render) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(render(report))


def _load_target(path: Optional[str], dim: int) -> np.ndarray:
    """A target marginal from a matrix file; identity/dim without one."""
    return matrix_from_json(_read_json(path)) if path else np.eye(dim, dtype=np.complex128) / dim


def _load_kraus(path: str) -> KrausMap:
    obj = _read_json(path)
    if isinstance(obj, dict) and "kraus" in obj:
        obj = obj["kraus"]  # accept sinkhorn output documents directly
    return kraus_from_json(obj)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_margin(x: Optional[float]) -> str:
    return "none" if x is None else f"{x:.2g}"


def _fmt_matrix(mat: np.ndarray, indent: str = "  ") -> str:
    lines = []
    for row in np.atleast_2d(mat):
        cells = [f"{z.real:.6g}{z.imag:+.6g}i" for z in row]
        lines.append(indent + "[ " + "  ".join(cells) + " ]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verify-state


def _check_family_reproduces(kmap: KrausMap, state: BipartiteState, tol: float) -> None:
    """Refuse a Kraus family whose composite state differs from ``state`` by
    more than ``tol * max(1, ||state||_F)`` in the Frobenius norm."""
    with np.errstate(over="ignore"):  # an overflow is a deviation of inf, refused below
        deviation = frobenius(_composite_matrix(kmap.ops) - state.mat)
    limit = tol * max(1.0, frobenius(state.mat))
    if deviation > limit:
        raise ValueError(
            f"Kraus family does not reproduce the state: its composite state "
            f"differs by {deviation:.3e} (limit {limit:.3e})"
        )


def _analyze_state(state: BipartiteState, tol: float, kmap: Optional[KrausMap]) -> dict:
    spectrum = eigvalsh(state.mat, tol)
    decision = rank_of_values(spectrum, tol)
    bound = parthasarathy_bound(state.dim_a, state.dim_b)
    freedom = perturbation_freedom_dim(state, tol)
    report = {
        "marginal_a": matrix_to_json(partial_trace_b(state)),
        "marginal_b": matrix_to_json(partial_trace_a(state)),
        "eigenvalues": [float(x) for x in spectrum],
        "rank": decision.rank,
        "rank_margin": {
            "smallest_retained": decision.smallest_retained,
            "largest_discarded": decision.largest_discarded,
        },
        "rank_bound": {"bound": bound, "within_bound": decision.rank <= bound},
        "ppt": ppt_check(state, tol).to_json(),
        "perturbation_freedom": freedom,
        "extreme_in_marginal_set": freedom == 0,
    }
    if kmap is not None:
        report["doubly_constrained"] = doubly_constrained_extremality(kmap, tol).to_json()
    return report


def _render_analysis(report: dict) -> str:
    lines = []
    ma = matrix_from_json(report["marginal_a"])
    mb = matrix_from_json(report["marginal_b"])
    lines.append("marginal on factor A:")
    lines.append(_fmt_matrix(ma))
    lines.append("marginal on factor B:")
    lines.append(_fmt_matrix(mb))
    lines.append("eigenvalues: " + ", ".join(_fmt(x) for x in report["eigenvalues"]))
    rb, margin = report["rank_bound"], report["rank_margin"]
    lines.append(
        f"rank: {report['rank']} (retained {_fmt_margin(margin['smallest_retained'])}, "
        f"discarded {_fmt_margin(margin['largest_discarded'])}; extremality bound {rb['bound']})"
    )
    if not rb["within_bound"]:
        lines.append("rank exceeds the bound: cannot be an extreme point of its marginal set")
    ppt = report["ppt"]
    lines.append(
        "partial transpose spectrum: " + ", ".join(_fmt(x) for x in ppt["spectrum"])
    )
    lines.append(
        f"ppt: {'yes' if ppt['is_ppt'] else 'no'} "
        f"(min eigenvalue {_fmt(ppt['min_eigenvalue'])}, threshold {_fmt(ppt['threshold'])}) "
        f"-> verdict: {ppt['verdict']}"
    )
    lines.append(f"perturbation freedom dimension: {report['perturbation_freedom']}")
    lines.append(
        "extreme in its fixed-marginals set: "
        + ("yes" if report["extreme_in_marginal_set"] else "no")
    )
    if "doubly_constrained" in report:
        dc = report["doubly_constrained"]
        lines.append(
            f"doubly-constrained criterion: stacked rank {dc['stacked_rank']} of "
            f"{dc['family_size']} -> {'extreme' if dc['verdict'] else 'not extreme'}"
        )
    return "\n".join(lines)


def cmd_verify_state(args) -> int:
    obj = _read_json(args.state_file)
    if isinstance(obj, dict) and "matrix" in obj:
        *dims, mat = _state_fields(obj)
    else:
        if args.dims is None:
            raise ValueError(
                "input is a bare matrix object: pass --dims N,M to fix the factor split"
            )
        dims = args.dims
        mat = matrix_from_json(obj)

    kmap = _load_kraus(args.kraus) if args.kraus else None
    if kmap is not None and (kmap.n, kmap.m) != tuple(dims):
        raise ValueError(
            f"Kraus family is {kmap.n} x {kmap.m} but the state is on "
            f"{dims[0]} x {dims[1]} factors"
        )
    violations = state_violations(mat, dims[0], dims[1], args.tol)
    report = {
        "tolerance": args.tol,
        "dim_a": dims[0],
        "dim_b": dims[1],
        "valid": not violations,
        "violations": [v.to_json() for v in violations],
    }
    if not violations:
        state = BipartiteState(dims[0], dims[1], mat)
        if kmap is not None:
            _check_family_reproduces(kmap, state, args.tol)
        report.update(_analyze_state(state, args.tol, kmap))

    def render(rep: dict) -> str:
        lines = [f"state on {rep['dim_a']} x {rep['dim_b']} factors (tol {_fmt(rep['tolerance'])})"]
        if rep["valid"]:
            lines.append("valid density matrix: yes")
            lines.append(_render_analysis(rep))
        else:
            lines.append("valid density matrix: NO")
            for v in rep["violations"]:
                lines.append(f"  violation [{v['kind']}]: {v['message']}")
        return "\n".join(lines)

    _emit(report, args.json, render)
    return EXIT_OK if report["valid"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# choi / kraus conversions


def cmd_choi(args) -> int:
    kmap = _load_kraus(args.kraus_file)
    state = choi_state(kmap, args.tol)
    _write_text(args.output, json.dumps(state_to_json(state), indent=2))
    return EXIT_OK


def cmd_kraus(args) -> int:
    state = state_from_json(_read_json(args.state_file), args.tol)
    kmap = kraus_from_state(state, args.tol)
    _write_text(args.output, json.dumps(kraus_to_json(kmap), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# extremal-check


def cmd_extremal_check(args) -> int:
    kmap = _load_kraus(args.kraus_file)
    single = choi_extremality(kmap, args.tol)
    double = doubly_constrained_extremality(kmap, args.tol)
    state = choi_state(kmap, args.tol)
    freedom = perturbation_freedom_dim(state, args.tol)
    report = {
        "tolerance": args.tol,
        "n": kmap.n,
        "m": kmap.m,
        "r": kmap.r,
        "single_marginal": single.to_json(),
        "double_marginal": double.to_json(),
        "perturbation_freedom": freedom,
        "agreement": (freedom == 0) == double.verdict,
    }

    def render(rep: dict) -> str:
        s, d = rep["single_marginal"], rep["double_marginal"]
        return "\n".join(
            [
                f"family: r={rep['r']} operators, {rep['n']} x {rep['m']}",
                f"one-marginal criterion ({s['criterion']}): rank {s['stacked_rank']}/"
                f"{s['family_size']} -> {'extreme' if s['verdict'] else 'not extreme'}",
                f"two-marginal criterion ({d['criterion']}): rank {d['stacked_rank']}/"
                f"{d['family_size']} -> {'extreme' if d['verdict'] else 'not extreme'}",
                f"perturbation freedom dimension: {rep['perturbation_freedom']}",
                f"oracle agreement: {'yes' if rep['agreement'] else 'NO'}",
            ]
        )

    _emit(report, args.json, render)
    return EXIT_OK if double.verdict else EXIT_FAIL


# ---------------------------------------------------------------------------
# sinkhorn


def cmd_sinkhorn(args) -> int:
    if args.r < 1:
        raise ValueError("--r must be at least 1")
    if args.n < 1 or args.m < 1:
        raise ValueError("--n and --m must be at least 1")
    if args.history < 0:
        raise ValueError("--history must be 0 or more")
    if args.seed < 0:
        raise ValueError("--seed must be 0 or more")
    target_k = _load_target(args.target_k, args.m)
    target_l = _load_target(args.target_l, args.n)
    config = ScalingConfig(target_k, target_l, max_iter=args.max_iter, residual_tol=args.tol)
    start = random_kraus(args.n, args.m, args.r, args.seed)

    def render(rep: dict) -> str:
        r = rep["report"]
        status = "converged" if r["converged"] else "did NOT converge"
        return "\n".join(
            [
                f"scaling {status} after {r['iterations']} iterations",
                f"residuals: K {_fmt(r['residual_k'])}, L {_fmt(r['residual_l'])}",
                f"history entries: {len(r['history'])}",
            ]
        )

    try:
        scaled, report = sinkhorn_scale(start, config)
        converged = True
    except NoConvergence as exc:
        scaled, report = exc.kraus, exc.report
        converged = False

    doc = {"kraus": kraus_to_json(scaled), "report": report.to_json(args.history)}
    _write_text(args.output, json.dumps(doc, indent=2))
    if args.output != "-":
        if args.json:
            print(json.dumps(doc["report"], indent=2))
        else:
            print(render(doc))
    return EXIT_OK if converged else EXIT_FAIL


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args) -> int:
    checks = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    kmap = extremal_qubit_qutrit_map()
    dev_k = float(np.abs(marginal_K(kmap) - np.eye(3) / 3).max())
    check("marginal K equals identity/3", dev_k <= 1e-12, f"max deviation {dev_k:.3e}")
    dev_l = float(np.abs(marginal_L(kmap) - np.eye(2) / 2).max())
    check("marginal L equals identity/2", dev_l <= 1e-12, f"max deviation {dev_l:.3e}")

    state = choi_state(kmap)
    expected = np.zeros((6, 6))
    c = 1.0 / (3.0 * np.sqrt(2.0))
    expected[1, 1] = expected[4, 4] = 1.0 / 6.0
    expected[2, 2] = expected[3, 3] = 1.0 / 3.0
    expected[1, 3] = expected[3, 1] = expected[2, 4] = expected[4, 2] = c
    dev_state = float(np.abs(state.mat - expected).max())
    check("composite state matches its closed form", dev_state <= 1e-14,
          f"max entry deviation {dev_state:.3e}")

    dev_ma = float(np.abs(partial_trace_b(state) - np.eye(2) / 2).max())
    dev_mb = float(np.abs(partial_trace_a(state) - np.eye(3) / 3).max())
    check("state marginal on A is identity/2", dev_ma <= 1e-12, f"max deviation {dev_ma:.3e}")
    check("state marginal on B is identity/3", dev_mb <= 1e-12, f"max deviation {dev_mb:.3e}")

    spectrum = eigvalsh(state.mat, args.tol)
    expected_spec = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.5])
    dev_spec = float(np.abs(spectrum - expected_spec).max())
    check("eigenvalues are (0, 0, 0, 0, 1/2, 1/2)", dev_spec <= 1e-12,
          f"spectrum {np.array2string(spectrum, precision=6)}")

    rank = rank_of_values(spectrum, args.tol).rank
    check("rank is 2", rank == 2, f"rank {rank}")
    bound = parthasarathy_bound(2, 3)
    check("rank respects the extremality bound", rank <= bound, f"{rank} <= {bound}")

    ppt = ppt_check(state, args.tol)
    expected_pt = np.array([-1 / 6, -1 / 6, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
    dev_pt = float(np.abs(ppt.spectrum - expected_pt).max())
    check("partial transpose spectrum is (-1/6 x2, 1/3 x4)", dev_pt <= 1e-12,
          f"spectrum {np.array2string(ppt.spectrum, precision=6)}")
    check("verdict is entangled", ppt.verdict == "entangled", f"verdict {ppt.verdict}")

    single = choi_extremality(kmap, args.tol)
    check("one-marginal independence holds", single.verdict,
          f"stacked rank {single.stacked_rank}/{single.family_size}")
    double = doubly_constrained_extremality(kmap, args.tol)
    check("two-marginal independence holds", double.verdict,
          f"stacked rank {double.stacked_rank}/{double.family_size}")

    freedom = perturbation_freedom_dim(state, args.tol)
    check("perturbation oracle finds no freedom", freedom == 0, f"dimension {freedom}")

    all_passed = all(c["passed"] for c in checks)
    report = {
        "tolerance": args.tol,
        "state": state_to_json(state),
        "checks": checks,
        "all_passed": all_passed,
    }

    def render(rep: dict) -> str:
        lines = ["bundled qubit-qutrit extremal example"]
        for c in rep["checks"]:
            lines.append(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
        lines.append("all checks passed" if rep["all_passed"] else "SOME CHECKS FAILED")
        return "\n".join(lines)

    _emit(report, args.json, render)
    return EXIT_OK if all_passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser / dispatch


def _parse_dims(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated integers, e.g. 2,3")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("dimensions must be integers") from exc
    if n < 1 or m < 1:
        raise argparse.ArgumentTypeError("dimensions must be positive")
    return n, m


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from exc
    if not (np.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarginals",
        description="Bipartite states with fixed marginals: verification, "
        "Kraus/composite-state conversion, extremality tests and marginal scaling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    report = argparse.ArgumentParser(add_help=False, parents=[tol])
    report.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify-state", parents=[report],
                       help="validate a state file and report its structure")
    p.add_argument("state_file", help="state JSON (or bare matrix JSON with --dims); - for stdin")
    p.add_argument("--dims", type=_parse_dims, default=None, metavar="N,M",
                   help="factor dimensions when the input is a bare matrix")
    p.add_argument("--kraus", default=None, metavar="FILE",
                   help="optional Kraus file to include the two-marginal criterion")
    p.set_defaults(handler=cmd_verify_state)

    p = sub.add_parser("choi", parents=[tol], help="composite state of a Kraus file")
    p.add_argument("kraus_file", help="Kraus JSON; - for stdin")
    p.add_argument("-o", "--output", default="-", help="state JSON destination; - for stdout")
    p.set_defaults(handler=cmd_choi)

    p = sub.add_parser("kraus", parents=[tol], help="Kraus family reproducing a state file")
    p.add_argument("state_file", help="state JSON; - for stdin")
    p.add_argument("-o", "--output", default="-", help="Kraus JSON destination; - for stdout")
    p.set_defaults(handler=cmd_kraus)

    p = sub.add_parser("extremal-check", parents=[report],
                       help="extremality criteria for a Kraus file")
    p.add_argument("kraus_file", help="Kraus JSON; - for stdin")
    p.set_defaults(handler=cmd_extremal_check)

    p = sub.add_parser("sinkhorn", help="scale a seeded random family to target marginals")
    p.add_argument("--n", type=int, required=True, help="domain dimension")
    p.add_argument("--m", type=int, required=True, help="codomain dimension")
    p.add_argument("--r", type=int, required=True, help="number of operators")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-k", default=None, metavar="FILE",
                   help="m x m target for sum V^dagger V (default identity/m)")
    p.add_argument("--target-l", default=None, metavar="FILE",
                   help="n x n target for sum V V^dagger (default identity/n)")
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--tol", type=_parse_tol, default=1e-10, help="residual tolerance")
    p.add_argument("--history", type=int, default=0, metavar="N",
                   help="keep only the last N history entries in the output (0 = all)")
    p.add_argument("-o", "--output", default="-",
                   help="destination for {kraus, report}; - for stdout")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary when writing to a file")
    p.set_defaults(handler=cmd_sinkhorn)

    p = sub.add_parser("demo", parents=[report],
                       help="verify the bundled qubit-qutrit extremal example")
    p.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except json.JSONDecodeError as exc:
        print(f"error: JSON parse failure at byte offset {exc.pos}: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, DimensionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return EXIT_USAGE
    except QMarginalsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
