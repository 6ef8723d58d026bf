"""Benchmark command for qmarginals.

Run from the root of a checkout (the package is imported from ``src``)::

    python3 perfbench/run.py --workload search --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --baseline perfbench/BENCH_<commit>.json

One run sets up one workload, repeats its rounds of operations for
``--seconds`` seconds (finishing the round in progress), checks every output
and prints its metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` is a separate run
that gives the per-layer metrics from spans recorded around the package's
public functions (see ``tracer.py``).  Workloads are described in
``workloads.py`` and in README.md next to this file.
"""

import argparse
import compileall
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "perfbench", ".work")
#: Set-ups (and fresh-interpreter import probes) per run; set-up time is
#: their median.
SETUP_REPEATS = 7
#: The timed loop is cut into this many consecutive parts of about equal
#: numbers of rounds.  Throughput, median latency and CPU per operation are
#: the medians of the parts' values, so a slowdown from other work on a
#: shared machine that covers less than half of a run does not move them.
PARTS = 5
#: The package's import time in a fresh interpreter.  numpy is imported
#: first and not timed: its import (about 145 ms on the baseline host, six
#: times the package's own) is the same for every commit, and it moved with
#: the host independently of the host probe, by up to 60% between two sets
#: of runs ten minutes apart.
IMPORT_PROBE = ("import time, numpy; t = time.perf_counter(); import qmarginals; "
                "print(time.perf_counter() - t)")
WORKLOAD_NAMES = ("search", "search-skewed", "audit", "cli")
#: Seed of the committed baseline, and a second seed kept for validating
#: later claims on inputs not used while the change was written.
BASELINE_SEED = 1
HELD_OUT_SEED = 20261017
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: (metric, span name, span field, unit).  Values are per
#: traced operation; a layer the workload never calls reports 0.
SPAN_METRICS = (
    ("linalg.eigh.calls", "linalg.eigh", "calls", "calls/op"),
    ("linalg.eigh.self_s", "linalg.eigh", "self_s", "s/op"),
    ("linalg.eigh.dim3_sum", "linalg.eigh", "count", "dim3/op"),
    ("linalg.rank_with_margin.calls", "linalg.rank_with_margin", "calls", "calls/op"),
    ("linalg.rank_with_margin.total_s", "linalg.rank_with_margin", "total_s", "s/op"),
    ("scaling.sinkhorn_scale.calls", "scaling.sinkhorn_scale", "calls", "calls/op"),
    ("scaling.sinkhorn_scale.total_s", "scaling.sinkhorn_scale", "total_s", "s/op"),
    ("scaling.sinkhorn_scale.self_s", "scaling.sinkhorn_scale", "self_s", "s/op"),
    ("scaling.sinkhorn_scale.iterations", "scaling.sinkhorn_scale", "count", "iter/op"),
    ("scaling.random_kraus.total_s", "scaling.random_kraus", "total_s", "s/op"),
    ("cpmaps.doubly_constrained_extremality.total_s", "cpmaps.doubly_constrained_extremality", "total_s", "s/op"),
    ("cpmaps.choi_extremality.total_s", "cpmaps.choi_extremality", "total_s", "s/op"),
    ("cpmaps.choi_state.total_s", "cpmaps.choi_state", "total_s", "s/op"),
    ("cpmaps.kraus_from_state.total_s", "cpmaps.kraus_from_state", "total_s", "s/op"),
    ("bipartite.perturbation_freedom_dim.total_s", "bipartite.perturbation_freedom_dim", "total_s", "s/op"),
    ("bipartite.perturbation_freedom_dim.self_s", "bipartite.perturbation_freedom_dim", "self_s", "s/op"),
    ("bipartite.ppt_check.total_s", "bipartite.ppt_check", "total_s", "s/op"),
    ("bipartite.validate_state.total_s", "bipartite.validate_state", "total_s", "s/op"),
    ("cli.main.total_s", "cli.main", "total_s", "s/op"),
    ("linalg.json.self_s", "linalg.json", "self_s", "s/op"),
)
OTHER_LAYER_UNITS = {
    "scaling.sinkhorn_scale.s_per_iteration": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "trace.overhead_ms_per_op": "ms/op",
}
#: Exact counts that must repeat for a fixed list of operations.
EXACT_COUNTS = (
    ("linalg.eigh.calls", "linalg.eigh", "calls"),
    ("linalg.eigh.dim3_sum", "linalg.eigh", "count"),
    ("scaling.sinkhorn_scale.iterations", "scaling.sinkhorn_scale", "count"),
)


def per_layer_units() -> dict:
    units = {metric: unit for metric, _, _, unit in SPAN_METRICS}
    units.update(OTHER_LAYER_UNITS)
    return units


# ---------------------------------------------------------------------------
# environment


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(
        ["git", "-C", ROOT, "status", "--porcelain", "--", "src", "pyproject.toml", "setup.py"],
        capture_output=True,
        text=True,
    )
    return head.stdout.strip() + (" (src modified)" if dirty.stdout.strip() else "")


def environment() -> dict:
    import numpy as np

    import qmarginals

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    backend = getattr(qmarginals, "jacobi_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_vars": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "jacobi_backend": backend() if backend else "n/a",
        "qmarginals": getattr(qmarginals, "__version__", "unknown"),
        "platform": platform.platform(),
        "commit": commit(),
    }


# ---------------------------------------------------------------------------
# running operations


def run_op(op):
    """(op, output, error, latency_s) for one operation."""
    start = perf_counter()
    try:
        output, error = op.call(), None
    except Exception as exc:  # a raising operation is a failed operation
        output, error = None, f"{type(exc).__name__}: {exc}"
    return op, output, error, perf_counter() - start


def failures(outcomes) -> list:
    """One reason per failed operation: it raised or its output is wrong."""
    from workloads import CheckFailed

    reasons = []
    for op, output, error, _ in outcomes:
        if error is None:
            try:
                error = op.check(output)
            except CheckFailed as exc:
                error = str(exc)
            except Exception as exc:  # malformed output breaks the check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            reasons.append(f"{op.label}: {error}")
    return reasons


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def load(name: str, seed: int, workdir: str):
    """Set the workload up ``SETUP_REPEATS`` times.

    Returns (workload, setup_s, raw setup_s, warm-up outcomes).  The raw
    set-up time is the median import time of the package in a fresh
    interpreter that has already imported numpy, plus the median time of
    input generation and warm-up.
    ``setup_s`` is that divided by the host's slowness over the set-ups,
    from three probes before each of them.
    """
    import workloads

    env = workloads.child_env(ROOT)
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, ROOT, workdir) if name == "cli" else cls(seed)
    imports, times, probes, warm = [], [], [], []
    hostspeed.probe()  # the first run of the probe is slower
    for _ in range(SETUP_REPEATS):
        probes.extend(hostspeed.probe() for _ in range(3))
        imports.append(float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                                            env=env, cwd=ROOT, check=True).stdout))
        start = perf_counter()
        workload.setup()
        warm.extend(run_op(op) for op in workload.warmup())
        times.append(perf_counter() - start)
    raw = statistics.median(imports) + statistics.median(times)
    return workload, raw / slowness(probes), raw, warm


def slowness(probe_times) -> float:
    """How much slower than the reference host this host ran the probe."""
    return statistics.median(probe_times) / hostspeed.REFERENCE_S


def finished(rounds_done: int, start: float, seconds: float, rounds) -> bool:
    """Stop after ``rounds`` rounds if given, else once ``seconds`` passed."""
    if rounds is not None:
        return rounds_done >= rounds
    return perf_counter() - start >= seconds


def end_to_end(workload, seconds: float, rounds):
    """Untraced closed loop; returns (outcomes, metrics, details).

    The host probe runs after every operation.  Its wall and CPU time are
    left out of throughput and CPU per operation, and each part's times are
    divided by the host's slowness in that part (``hostspeed.py``)."""
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    outcomes, probes = [], []
    probe_wall = probe_cpu = 0.0
    start = perf_counter()
    # (operations, time, CPU, probe time, probe CPU) after each round
    marks = [(0, start, cpu_seconds(who), 0.0, 0.0)]
    index = 0
    while True:
        for op in workload.round(index):
            outcomes.append(run_op(op))
            cpu = cpu_seconds(who)
            probes.append(hostspeed.probe())
            probe_wall += probes[-1]
            probe_cpu += cpu_seconds(who) - cpu
        index += 1
        marks.append((len(outcomes), perf_counter(), cpu_seconds(who), probe_wall, probe_cpu))
        if finished(index, start, seconds, rounds):
            break
    in_order = [latency for *_, latency in outcomes]
    parts = {"slowness": [], "throughput": [], "p50": [], "cpu": []}
    raw = {"throughput": [], "p50": [], "cpu": []}
    normalised = []  # every latency divided by its part's slowness
    cuts = sorted({round(j * index / PARTS) for j in range(PARTS + 1)})
    for first, last in zip(cuts, cuts[1:]):
        (ops0, time0, cpu0, pw0, pc0), (ops1, time1, cpu1, pw1, pc1) = marks[first], marks[last]
        slow = slowness(probes[ops0:ops1])
        count = ops1 - ops0
        raw["throughput"].append(count / ((time1 - time0) - (pw1 - pw0)))
        raw["p50"].append(statistics.median(in_order[ops0:ops1]))
        raw["cpu"].append(((cpu1 - cpu0) - (pc1 - pc0)) / count)
        parts["slowness"].append(slow)
        parts["throughput"].append(raw["throughput"][-1] * slow)
        parts["p50"].append(raw["p50"][-1] / slow)
        parts["cpu"].append(raw["cpu"][-1] / slow)
        normalised.extend(latency / slow for latency in in_order[ops0:ops1])
    count = len(in_order)
    by_label: dict = {}
    for op, *_, latency in outcomes:
        by_label.setdefault(op.label, []).append(latency * 1e3)
    # the highest percentile with at least ten samples above it
    tail_index = count - 11 if count > 10 else count - 1
    metrics = {
        "throughput_ops_per_s": statistics.median(parts["throughput"]),
        "latency_p50_ms": statistics.median(parts["p50"]) * 1e3,
        "latency_tail_ms": sorted(normalised)[tail_index] * 1e3,
        "cpu_ms_per_op": statistics.median(parts["cpu"]) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    wall = marks[-1][1] - start - probe_wall
    details = {
        "rounds": index,
        "wall_s": wall,
        "parts": parts,
        "host_probe_median_s": statistics.median(probes),
        "host_probe_reference_s": hostspeed.REFERENCE_S,
        "raw": {
            "throughput_ops_per_s": statistics.median(raw["throughput"]),
            "latency_p50_ms": statistics.median(raw["p50"]) * 1e3,
            "latency_tail_ms": sorted(in_order)[tail_index] * 1e3,
            "cpu_ms_per_op": statistics.median(raw["cpu"]) * 1e3,
        },
        "raw_parts": raw,
        "raw_whole_run": {
            "throughput_ops_per_s": count / wall,
            "latency_p50_ms": statistics.median(in_order) * 1e3,
            "cpu_ms_per_op": ((marks[-1][2] - marks[0][2]) - probe_cpu) / count * 1e3,
        },
        "latency_tail_percentile": 100.0 * (tail_index + 1) / count,
        "latency_samples": count,
        "cpu_source": "RUSAGE_SELF" if workload.in_process else "RUSAGE_CHILDREN",
        "latency_ms_by_label": {
            label: {"count": len(v), "median": statistics.median(v), "min": min(v), "max": max(v)}
            for label, v in by_label.items()
        },
    }
    return outcomes, metrics, details


def traced(workload, seconds: float, rounds):
    """Per-layer run.  Each round runs untraced and traced on the same
    inputs, in alternating order; the difference is the tracing overhead.
    For ``cli`` the rounds call ``cli.main`` in this process and each round
    adds two interpreter probes."""
    import qmarginals
    from tracer import Tracer

    tracer = Tracer(qmarginals)
    is_cli = not workload.in_process
    probe_times: dict = {"probe-pass": [], "probe-import": []}
    outcomes = []
    wall = {False: 0.0, True: 0.0}
    traced_ops = 0
    start = perf_counter()
    index = 0
    while True:
        ops = workload.round(index, workload.run_in_process) if is_cli else workload.round(index)
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            if with_trace:
                tracer.install()
            pass_start = perf_counter()
            for op in ops:
                tracer.op = len(outcomes)
                outcomes.append(run_op(op))
            wall[with_trace] += perf_counter() - pass_start
            if with_trace:
                tracer.uninstall()
                traced_ops += len(ops)
        if is_cli:
            for op in workload.probes():
                outcomes.append(run_op(op))
                probe_times[op.label].append(outcomes[-1][3])
        index += 1
        if finished(index, start, seconds, rounds):
            break
    totals = tracer.aggregate()
    metrics = {}
    for metric, span, field, _ in SPAN_METRICS:
        value = getattr(totals[span], field) if span in totals else 0.0
        metrics[metric] = value / traced_ops
    sinkhorn = totals.get("scaling.sinkhorn_scale")
    metrics["scaling.sinkhorn_scale.s_per_iteration"] = (
        sinkhorn.total_s / sinkhorn.count if sinkhorn and sinkhorn.count else 0.0
    )
    if is_cli:
        interpreter = statistics.median(probe_times["probe-pass"])
        metrics["cli.interpreter_s"] = interpreter
        metrics["cli.import_s"] = statistics.median(probe_times["probe-import"]) - interpreter
    else:
        metrics["cli.interpreter_s"] = 0.0
        metrics["cli.import_s"] = 0.0
    metrics["trace.overhead_ms_per_op"] = (wall[True] - wall[False]) / traced_ops * 1e3
    details = {
        "rounds": index,
        "traced_ops": traced_ops,
        "spans": len(tracer.spans),
        "untraced_wall_s": wall[False],
        "traced_wall_s": wall[True],
        "tracing_overhead_frac": wall[True] / wall[False] - 1.0,
        "exact_counts": {
            metric: (getattr(totals[span], field) if span in totals else 0)
            for metric, span, field in EXACT_COUNTS
        },
        "layers": {name: t._asdict() for name, t in sorted(totals.items())},
    }
    return outcomes, metrics, details


@contextlib.contextmanager
def scratch_dir():
    """A directory for this process's input files, removed afterwards."""
    path = os.path.join(WORKDIR, str(os.getpid()))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)


def bench(name: str, seed: int, seconds: float, trace: bool, rounds=None) -> dict:
    with scratch_dir() as workdir:
        workload, setup_s, raw_setup_s, warm = load(name, seed, workdir)
        if trace:
            outcomes, metrics, details = traced(workload, seconds, rounds)
            units = per_layer_units()
        else:
            outcomes, metrics, details = end_to_end(workload, seconds, rounds)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    outcomes = warm + outcomes
    reasons = failures(outcomes)
    details["failed_ops_frac"] = len(reasons) / len(outcomes)
    details["failures"] = reasons[:20]
    details["setup_s"] = setup_s
    details["raw_setup_s"] = raw_setup_s
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not reasons,
        "attempted": len(outcomes),
        "failed": len(reasons),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "details": details,
        "environment": environment(),
    }


# ---------------------------------------------------------------------------
# self-test, baseline


def self_test() -> bool:
    """Run one round of every workload, check it passes, then corrupt one
    output per workload and check that exactly that operation fails."""
    import dataclasses

    import numpy as np

    import workloads

    def flip_verdict(output):
        kmap, verdict, state = output
        return kmap, dataclasses.replace(verdict, verdict=not verdict.verdict), state

    def scale_family(output):
        config, (kmap, verdict, state) = output
        bad = type(kmap)(kmap.n, kmap.m, tuple(np.asarray(op) * 1.001 for op in kmap.ops))
        return config, (bad, verdict, state)

    def flip_rank_verdict(output):
        double = dataclasses.replace(output.double, verdict=not output.double.verdict)
        return dataclasses.replace(output, double=double)

    def wrong_exit_code(output):
        return output._replace(code=1)

    corruptions = {
        "search": ("2x3r2", flip_verdict),
        "search-skewed": ("3x3r3", scale_family),
        "audit": ("kraus(4, 4, 4)", flip_rank_verdict),
        "cli": ("malformed", wrong_exit_code),
    }
    ok = True
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as handle:
            declared = json.load(handle)
        e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
        same = e2e == END_TO_END_UNITS and layers == per_layer_units()
        print(f"BENCHMARK.json metric names and units match the output: {same}")
        ok &= same
    for name, (label, corrupt) in corruptions.items():
        with scratch_dir() as workdir:
            workload, *_ = load(name, BASELINE_SEED, workdir)
            outcomes = [run_op(op) for op in workload.round(0)]
        clean = failures(outcomes)
        target = next(i for i, outcome in enumerate(outcomes) if outcome[0].label == label)
        op, output, error, latency = outcomes[target]
        corrupted = list(outcomes)
        corrupted[target] = (op, corrupt(output), error, latency)
        caught = failures(corrupted)
        passed = not clean and len(caught) == 1 and caught[0].startswith(label)
        print(
            f"{name:<14} clean: {len(clean)}/{len(outcomes)} failed; corrupted {label}: "
            f"failed_ops_frac {len(caught) / len(outcomes):.3f} ({'; '.join(caught) or 'not caught'})"
            f" -> {'PASS' if passed else 'FAIL'}"
        )
        ok &= passed
    return ok


def baseline(path: str, seconds: float) -> int:
    """Write a trajectory point: every workload untraced and traced, two
    fixed-length traced runs whose exact counts must agree, the self-test,
    and the environment."""
    point = {"seed": BASELINE_SEED, "held_out_seed": HELD_OUT_SEED, "run_seconds": seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        runs = {
            "untraced": child(name, seconds, 0),
            "traced": child(name, seconds, 1),
            "repeat_1": child(name, seconds, 1, rounds=2),
            "repeat_2": child(name, seconds, 1, rounds=2),
        }
        first, second = (runs[key]["details"]["exact_counts"] for key in ("repeat_1", "repeat_2"))
        untraced, traced_run = runs["untraced"], runs["traced"]
        point["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "end_to_end_before_host_speed": dict(untraced["details"]["raw"],
                                                 setup_s=untraced["details"]["raw_setup_s"]),
            "host_slowness_per_part": untraced["details"]["parts"]["slowness"],
            "correct": untraced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "failed_ops_frac": untraced["details"]["failed_ops_frac"],
            "latency_tail_percentile": untraced["details"]["latency_tail_percentile"],
            "latency_samples": untraced["details"]["latency_samples"],
            "per_layer": traced_run["metrics"],
            "tracing_overhead": {
                "traced_minus_untraced_ms_per_op": traced_run["metrics"]["trace.overhead_ms_per_op"]["value"],
                "fraction": traced_run["details"]["tracing_overhead_frac"],
            },
            "exact_counts_two_traced_runs": {"first": first, "second": second, "identical": first == second},
            "layers": traced_run["details"]["layers"],
        }
        point["environment"] = untraced["environment"]
        print(f"{name}: e2e, traced and repeat runs done; exact counts identical: {first == second}")
    point["self_test_passed"] = self_test()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(point, handle, indent=1)
        handle.write("\n")
    return 0


def child(name: str, seconds: float, trace: int, rounds=None) -> dict:
    """One benchmark run in a fresh interpreter, so imports and peak memory
    are measured per run."""
    with scratch_dir() as workdir:
        os.makedirs(workdir)
        out = os.path.join(workdir, "result.json")
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(BASELINE_SEED),
                "--seconds", str(seconds), "--trace", str(trace), "--out", out]
        if rounds is not None:
            argv += ["--rounds", str(rounds)]
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


# ---------------------------------------------------------------------------


def report(result: dict) -> None:
    details = result["details"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<46} {metric['value']:.6g} {metric['unit']}")
    if not result["trace"]:
        print(f"  latency_tail_ms is p{details['latency_tail_percentile']:.2f} of "
              f"{details['latency_samples']} samples")
        print(f"  host slowness per part {[round(x, 3) for x in details['parts']['slowness']]}; before "
              f"dividing by it: " + ", ".join(f"{k} {v:.6g}" for k, v in details["raw"].items())
              + f", setup_s {details['raw_setup_s']:.6g}")
    else:
        print(f"  tracing overhead {details['tracing_overhead_frac']:.3f} of untraced wall time; "
              f"exact counts {details['exact_counts']}")
    print(f"  failed_ops_frac {details['failed_ops_frac']:.6g}")
    for reason in details["failures"]:
        print(f"  FAILED {reason}")
    print("  environment " + json.dumps(result["environment"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of --seconds")
    parser.add_argument("--out", default=None, help="also write the full result as JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="show that the output checks catch a corrupted output")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="write a BENCH trajectory point for all workloads")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qmarginals", "__init__.py")):
        print(f"error: no package source at {SRC}; run from the root of a qmarginals checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "qmarginals"), quiet=1)
    sys.path.insert(0, SRC)
    if args.self_test:
        return 0 if self_test() else 1
    if args.baseline:
        return baseline(args.baseline, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.rounds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
