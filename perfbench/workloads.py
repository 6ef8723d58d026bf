"""The four benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop with one caller.  Its inputs are made from
the workload seed with numpy's own generator, never with the package's
sampling code, so the program under test only receives them.  One *round*
is a fixed list of operations; the runner repeats rounds (round ``i`` uses
the ``i``-th input set of a seeded pool, cycling) and only stops between
rounds, so every run holds the same mix of operation kinds.

An operation is an ``Op``: ``call()`` runs the program and returns its
output; ``check(output)`` returns ``None`` when the output is right, and a
one-line reason (or raises ``CheckFailed`` with one) otherwise.  Checks
recompute what they can with plain numpy instead of asking the package
again.
"""

import io
import json
import os
import subprocess
import sys
import tomllib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import numpy as np

import qmarginals as qm

#: (n, m, r) shapes of the candidate searches; ``search-skewed`` runs one
#: candidate of each per round.
SEARCH_SHAPES = ((2, 3, 2), (3, 3, 3))
#: Sinkhorn budget per skewed candidate.  At (2, 3, 2) the iterations to
#: converge toward non-uniform targets are heavy-tailed: about a third of the
#: candidates need more than 500, a few percent exceed the default budget of
#: 10000 and some never converge.  A candidate that exhausts this budget is a
#: rejected candidate, as in a seed scan; it keeps every operation bounded
#: and makes the slowest tenth of the operations the cost of exactly this
#: many iterations.
SKEWED_MAX_ITER = 500
#: Input sets generated per set-up; rounds cycle through them.
POOL_ROUNDS = 512
#: Variants per audit input kind.
AUDIT_VARIANTS = 2
#: Absolute slack for comparing a recomputed matrix with the program's.
MATRIX_TOL = 1e-9


class CheckFailed(Exception):
    """Raised by a check that cannot go on: the output is wrong."""


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


# ---------------------------------------------------------------------------
# numpy reference helpers, independent of the package


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = ginibre(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def kraus_family(rng: np.random.Generator, n: int, m: int, r: int) -> List[np.ndarray]:
    """``r`` Ginibre n x m operators scaled so sum tr(V^dagger V) = 1."""
    ops = [ginibre(rng, n, m) for _ in range(r)]
    total = sum(float(np.vdot(op, op).real) for op in ops)
    return [op / np.sqrt(total) for op in ops]


def choi_matrix(ops) -> np.ndarray:
    """sum_l |w_l><w_l| with w_l the row-major flattening of conj(V_l)."""
    vecs = np.array([np.conj(np.asarray(op)).ravel() for op in ops])
    return vecs.T @ vecs.conj()


def trace_out_a(mat: np.ndarray, n: int, m: int) -> np.ndarray:
    return np.einsum("ikil->kl", mat.reshape(n, m, n, m))


def trace_out_b(mat: np.ndarray, n: int, m: int) -> np.ndarray:
    return np.einsum("ikjk->ij", mat.reshape(n, m, n, m))


def transpose_b(mat: np.ndarray, n: int, m: int) -> np.ndarray:
    return mat.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)


def operator_sums(ops):
    """(sum V^dagger V, sum V V^dagger)."""
    return (sum(op.conj().T @ op for op in ops), sum(op @ op.conj().T for op in ops))


def max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def matrix_json(mat) -> dict:
    mat = np.asarray(mat)
    return {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in mat.ravel()],
    }


def matrix_parse(obj) -> np.ndarray:
    pairs = np.array(obj["entries"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(obj["rows"], obj["cols"])


def first_failure(*problems: Optional[str]) -> Optional[str]:
    return next((p for p in problems if p), None)


# ---------------------------------------------------------------------------
# search and search-skewed


def check_candidate(output, n: int, m: int, target_k, target_l, residual_tol: float) -> Optional[str]:
    """Output of ``find_extremal_candidate``: scaled family, verdict, state."""
    kmap, verdict, state = output
    ops = [np.asarray(op) for op in kmap.ops]
    sum_k, sum_l = operator_sums(ops)
    res_k = float(np.linalg.norm(sum_k - target_k))
    res_l = float(np.linalg.norm(sum_l - target_l))
    if max(res_k, res_l) > residual_tol:
        return f"residuals ({res_k:.3e}, {res_l:.3e}) above {residual_tol:.1e}"
    if (state.dim_a, state.dim_b) != (n, m):
        return f"state dims {(state.dim_a, state.dim_b)}, expected {(n, m)}"
    if max_dev(state.mat, choi_matrix(ops)) > MATRIX_TOL:
        return "composite state differs from the family's Choi matrix"
    # tracing out the second factor yields the entrywise conjugate of
    # sum V V^dagger (the package's documented convention)
    if max_dev(trace_out_a(state.mat, n, m), target_k) > MATRIX_TOL:
        return "state marginal on B differs from target K"
    if max_dev(trace_out_b(state.mat, n, m), np.conj(target_l)) > MATRIX_TOL:
        return "state marginal on A differs from target L"
    if verdict.verdict is not True:
        return "doubly-constrained verdict is not extreme"
    return None


def check_exhausted(exc, target_k, target_l, config) -> Optional[str]:
    """A ``NoConvergence`` raised at the iteration budget."""
    report = exc.report
    if report is None or exc.kraus is None:
        return "NoConvergence without report or family"
    if report.converged or report.iterations != config.max_iter:
        return f"budget exhausted after {report.iterations} of {config.max_iter} iterations"
    if len(report.history) != config.max_iter + 1:
        return f"history has {len(report.history)} entries"
    sum_k, sum_l = operator_sums([np.asarray(op) for op in exc.kraus.ops])
    res_k = float(np.linalg.norm(sum_k - target_k))
    res_l = float(np.linalg.norm(sum_l - target_l))
    if abs(res_k - report.residual_K) > 1e-12 or abs(res_l - report.residual_L) > 1e-12:
        return "reported residuals differ from the returned family's"
    if max(res_k, res_l) <= config.residual_tol:
        return "NoConvergence raised for a converged family"
    return None


class Search:
    """``find_extremal_candidate`` with ``uniform_targets``; one round is one
    candidate seed per entry of ``SHAPES``.

    With uniform targets the latencies of the two shapes form two separate
    clusters, about 40 and 95 ms.  With one candidate of each per round, the
    median latency would lie in the gap between them and move with the few
    operations at its edges; with two (2,3,2) candidates it lies inside the
    (2,3,2) cluster."""

    name = "search"
    in_process = True
    SHAPES = ((2, 3, 2), (2, 3, 2), (3, 3, 3))

    def __init__(self, seed: int):
        self.seed = seed
        self.pool: list = []

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.pool = [
            [int(s) for s in rng.integers(0, 2**31, size=len(self.SHAPES))]
            for _ in range(POOL_ROUNDS)
        ]

    def warmup(self) -> List[Op]:
        return self.round(0)

    def round(self, index: int) -> List[Op]:
        return [self._op(shape, s) for shape, s in zip(self.SHAPES, self.pool[index % len(self.pool)])]

    @staticmethod
    def _op(shape, cand_seed: int) -> Op:
        n, m, r = shape

        def call():
            config = qm.uniform_targets(n, m)
            return qm.find_extremal_candidate(n, m, r, config, seed=cand_seed)

        def check(output):
            return check_candidate(output, n, m, np.eye(m) / m, np.eye(n) / n, 1e-10)

        return Op(f"{n}x{m}r{r}", call, check)


class SearchSkewed(Search):
    """The search at the same shapes, toward non-uniform full-rank targets
    (1/2) rho + (1/2) identity/d, drawn afresh for every candidate."""

    name = "search-skewed"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.pool = []
        for _ in range(POOL_ROUNDS):
            inputs = []
            for n, m, _ in SEARCH_SHAPES:
                target_k = 0.5 * density_matrix(rng, m) + 0.5 * np.eye(m) / m
                target_l = 0.5 * density_matrix(rng, n) + 0.5 * np.eye(n) / n
                inputs.append((target_k, target_l, int(rng.integers(0, 2**31))))
            self.pool.append(inputs)

    def warmup(self) -> List[Op]:
        # the (3, 3, 3) candidate: its iteration count stays small
        return self.round(0)[1:]

    def round(self, index: int) -> List[Op]:
        return [self._skewed_op(shape, *inp) for shape, inp in zip(SEARCH_SHAPES, self.pool[index % len(self.pool)])]

    @staticmethod
    def _skewed_op(shape, target_k, target_l, cand_seed: int) -> Op:
        n, m, r = shape

        def call():
            config = qm.ScalingConfig(target_k, target_l, max_iter=SKEWED_MAX_ITER)
            try:
                return config, qm.find_extremal_candidate(n, m, r, config, seed=cand_seed)
            except qm.NoConvergence as exc:
                return config, exc

        def check(output):
            config, result = output
            if isinstance(result, qm.NoConvergence):
                return check_exhausted(result, target_k, target_l, config)
            return check_candidate(result, n, m, target_k, target_l, config.residual_tol)

        return Op(f"{n}x{m}r{r}", call, check)


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True)
class AuditOutput:
    kraus: object
    state: object
    single: object
    double: object
    rank: int
    ppt: object
    freedom: int


def run_battery(kraus=None, state=None) -> AuditOutput:
    """The verdict battery on a Kraus family or on a state."""
    if kraus is None:
        kraus = qm.kraus_from_state(state)
    else:
        state = qm.choi_state(kraus)
    single = qm.choi_extremality(kraus)
    double = qm.doubly_constrained_extremality(kraus)
    rank = qm.numerical_rank(state.mat)
    ppt = qm.ppt_check(state)
    freedom = qm.perturbation_freedom_dim(state)
    return AuditOutput(kraus, state, single, double, rank, ppt, freedom)


def check_audit(out: AuditOutput, reference: np.ndarray, extreme: Optional[bool], separable: bool) -> Optional[str]:
    """``reference`` is the state the input stands for, built with numpy."""
    n, m = out.state.dim_a, out.state.dim_b
    if max_dev(out.state.mat, reference) > MATRIX_TOL:
        return "state differs from the input's reference matrix"
    if max_dev(choi_matrix([np.asarray(op) for op in out.kraus.ops]), reference) > MATRIX_TOL:
        return "Choi <-> Kraus round trip does not reproduce the state"
    if out.double.verdict != (out.freedom == 0):
        return f"rank verdict {out.double.verdict} but perturbation freedom {out.freedom}"
    if extreme is not None and out.double.verdict != extreme:
        return f"extremality verdict {out.double.verdict}, expected {extreme}"
    expected_rank = int(np.linalg.matrix_rank(reference, rtol=1e-8))
    if out.rank != expected_rank:
        return f"numerical rank {out.rank}, expected {expected_rank}"
    spectrum = np.linalg.eigvalsh(transpose_b(reference, n, m))
    if max_dev(out.ppt.spectrum, spectrum) > MATRIX_TOL:
        return "partial-transpose spectrum differs from numpy's"
    if separable and not (out.ppt.is_ppt and out.ppt.verdict == "separable"):
        return f"separable mixture judged {out.ppt.verdict}"
    return None


def check_example(out: AuditOutput) -> Optional[str]:
    """The bundled qubit-qutrit example: rank 2, entangled, extreme."""
    expected_pt = np.array([-1 / 6, -1 / 6, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
    if out.rank != 2:
        return f"bundled example has rank {out.rank}, expected 2"
    if max_dev(out.ppt.spectrum, expected_pt) > 1e-12:
        return f"bundled example PT spectrum {out.ppt.spectrum}"
    if out.ppt.verdict != "entangled":
        return f"bundled example judged {out.ppt.verdict}"
    return None


class Audit:
    """The verdict battery on inputs prebuilt during set-up.  One round runs
    it once on each of these inputs:

    * ``random_kraus`` families at (2,3,2), (3,3,3) and three at (4,4,4):
      extreme.  The (4,4,4) families are the slowest operations.  With
      three per round, the eleventh-slowest operation of a run, which sets
      ``latency_tail_ms``, is one of them from four rounds on; with one,
      it would fall among the next-slowest kinds or not, depending on the
      number of rounds;
    * ``random_kraus`` families at (3,3,5), where r^2 > n^2 + m^2: not extreme;
    * ``random_separable`` mixtures at 2x2 and 2x3: PPT and separable;
    * the bundled example.

    Families and mixtures come from package factories with seeds drawn from
    the workload seed; the checks compare against numpy-built references.
    """

    name = "audit"
    in_process = True
    EXTREME_SHAPES = ((2, 3, 2), (3, 3, 3), (4, 4, 4), (4, 4, 4), (4, 4, 4))
    NON_EXTREME_SHAPES = ((3, 3, 5),)
    SEPARABLE_DIMS = ((2, 2), (2, 3))

    def __init__(self, seed: int):
        self.seed = seed
        self.variants: list = []

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        example = qm.extremal_qubit_qutrit_map()
        example_ref = choi_matrix(example.ops)
        self.variants = []
        for _ in range(AUDIT_VARIANTS):
            ops = []
            for shape in self.EXTREME_SHAPES + self.NON_EXTREME_SHAPES:
                kmap = qm.random_kraus(*shape, seed=int(rng.integers(0, 2**31)))
                extreme = shape in self.EXTREME_SHAPES
                ops.append(self._kraus_op(f"kraus{shape}", kmap, choi_matrix(kmap.ops), extreme))
            for dims in self.SEPARABLE_DIMS:
                state = qm.random_separable(*dims, dims[0] * dims[1], seed=int(rng.integers(0, 2**31)))
                ops.append(self._state_op(f"separable{dims}", state))
            ops.append(self._example_op(example, example_ref))
            self.variants.append(ops)

    def warmup(self) -> List[Op]:
        return self.variants[0][-1:]

    def round(self, index: int) -> List[Op]:
        return self.variants[index % len(self.variants)]

    @staticmethod
    def _kraus_op(label, kmap, reference, extreme) -> Op:
        return Op(label, lambda: run_battery(kraus=kmap), lambda out: check_audit(out, reference, extreme, False))

    @staticmethod
    def _state_op(label, state) -> Op:
        reference = np.array(state.mat)
        return Op(label, lambda: run_battery(state=state), lambda out: check_audit(out, reference, None, True))

    @staticmethod
    def _example_op(kmap, reference) -> Op:
        def check(out):
            return first_failure(check_audit(out, reference, True, False), check_example(out))

        return Op("example", lambda: run_battery(kraus=kmap), check)


# ---------------------------------------------------------------------------
# cli


class CliOutput(NamedTuple):
    code: int
    stdout: str
    stderr: str


def entry_point_command(root) -> List[str]:
    """Interpreter command running the console script declared in
    pyproject.toml, as its generated wrapper would."""
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["qmarginals"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.argv[0] = 'qmarginals'; sys.exit({func}())"
    return [sys.executable, "-c", code]


def child_env(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def expect_exit(out: CliOutput, code: int) -> None:
    if out.code != code:
        raise CheckFailed(f"exit code {out.code}, expected {code}: {out.stderr.strip()[:200]}")


def expect_json(out: CliOutput, code: int):
    """Parsed stdout of a command that must exit with ``code``."""
    expect_exit(out, code)
    try:
        return json.loads(out.stdout)
    except ValueError:
        raise CheckFailed("stdout is not JSON") from None


class Cli:
    """Each operation is a fresh process through the declared entry point.
    One round: ``demo --json``, ``verify-state --json``,
    ``extremal-check --json``, ``choi``, ``kraus``, ``sinkhorn`` and a
    malformed-JSON input that must exit 2."""

    name = "cli"
    in_process = False
    VARIANTS = 4
    SHAPE = (2, 3, 2)

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.command = entry_point_command(root)
        self.env = child_env(root)
        self.files: list = []
        self.sinkhorn_seeds: list = []

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        n, m, r = self.SHAPE
        os.makedirs(self.workdir, exist_ok=True)
        self.files = []
        for k in range(self.VARIANTS):
            ops = kraus_family(rng, n, m, r)
            state = choi_matrix(ops)
            kraus_path = os.path.join(self.workdir, f"kraus{k}.json")
            state_path = os.path.join(self.workdir, f"state{k}.json")
            with open(kraus_path, "w", encoding="utf-8") as handle:
                json.dump({"n": n, "m": m, "ops": [matrix_json(op) for op in ops]}, handle)
            with open(state_path, "w", encoding="utf-8") as handle:
                json.dump({"dim_a": n, "dim_b": m, "matrix": matrix_json(state)}, handle)
            self.files.append((kraus_path, state_path, ops, state))
        self.malformed = os.path.join(self.workdir, "malformed.json")
        with open(self.malformed, "w", encoding="utf-8") as handle:
            handle.write('{"dim_a": 2, "dim_b": 3, "matrix": {"rows": 6,')
        self.sinkhorn_seeds = [int(s) for s in rng.integers(0, 2**31, size=POOL_ROUNDS)]

    def warmup(self) -> List[Op]:
        return self.round(0)[:1]

    def round(self, index: int, runner=None) -> List[Op]:
        """``runner(argv) -> CliOutput`` defaults to a subprocess."""
        runner = runner or self.run_process
        kraus_path, state_path, ops, state = self.files[index % len(self.files)]
        n, m, r = self.SHAPE
        sk_seed = self.sinkhorn_seeds[index % len(self.sinkhorn_seeds)]
        commands = [
            ("demo", ["demo", "--json"], self._check_demo),
            ("verify-state", ["verify-state", "--json", state_path], lambda o: self._check_verify(o, state)),
            ("extremal-check", ["extremal-check", "--json", kraus_path], self._check_extremal),
            ("choi", ["choi", kraus_path], lambda o: self._check_choi(o, state)),
            ("kraus", ["kraus", state_path], lambda o: self._check_kraus(o, state)),
            ("sinkhorn", ["sinkhorn", "--n", str(n), "--m", str(m), "--r", str(r), "--seed", str(sk_seed)],
             self._check_sinkhorn),
            ("malformed", ["verify-state", "--json", self.malformed], self._check_malformed),
        ]
        return [Op(label, (lambda argv=argv: runner(argv)), check) for label, argv, check in commands]

    def run_process(self, argv) -> CliOutput:
        return self._spawn(self.command + argv)

    def probes(self) -> List[Op]:
        """Interpreter start alone, and with the CLI module imported."""
        return [
            Op(f"probe-{key}", lambda code=code: self._spawn([sys.executable, "-c", code]), self._check_exit_zero)
            for key, code in (("pass", "pass"), ("import", "import qmarginals.cli"))
        ]

    def _spawn(self, command) -> CliOutput:
        proc = subprocess.run(command, capture_output=True, text=True, env=self.env, cwd=self.root)
        return CliOutput(proc.returncode, proc.stdout, proc.stderr)

    @staticmethod
    def run_in_process(argv) -> CliOutput:
        """``cli.main`` in this process, with its output captured."""
        from qmarginals import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return CliOutput(code, out.getvalue(), err.getvalue())

    @staticmethod
    def _check_demo(out):
        doc = expect_json(out, 0)
        if doc.get("all_passed") is not True or not all(c["passed"] for c in doc["checks"]):
            return "demo: not all checks passed"
        return None

    @staticmethod
    def _check_verify(out, state):
        doc = expect_json(out, 0)
        n, m = doc["dim_a"], doc["dim_b"]
        if doc.get("valid") is not True:
            return "verify-state: valid state reported invalid"
        if doc["rank"] != int(np.linalg.matrix_rank(state, rtol=1e-8)):
            return f"verify-state: rank {doc['rank']}"
        if doc["extreme_in_marginal_set"] is not True or doc["perturbation_freedom"] != 0:
            return "verify-state: extreme state reported not extreme"
        if max_dev(matrix_parse(doc["marginal_a"]), trace_out_b(state, n, m)) > MATRIX_TOL:
            return "verify-state: marginal on A differs"
        if max_dev(matrix_parse(doc["marginal_b"]), trace_out_a(state, n, m)) > MATRIX_TOL:
            return "verify-state: marginal on B differs"
        if max_dev(doc["ppt"]["spectrum"], np.linalg.eigvalsh(transpose_b(state, n, m))) > MATRIX_TOL:
            return "verify-state: partial-transpose spectrum differs"
        return None

    @staticmethod
    def _check_extremal(out):
        doc = expect_json(out, 0)
        if doc.get("agreement") is not True:
            return "extremal-check: criteria and oracle disagree"
        if doc["double_marginal"]["verdict"] is not True or doc["perturbation_freedom"] != 0:
            return "extremal-check: extreme family reported not extreme"
        return None

    @staticmethod
    def _check_choi(out, state):
        doc = expect_json(out, 0)
        if max_dev(matrix_parse(doc["matrix"]), state) > MATRIX_TOL:
            return "choi: state differs from the numpy Choi matrix"
        return None

    @staticmethod
    def _check_kraus(out, state):
        doc = expect_json(out, 0)
        if max_dev(choi_matrix([matrix_parse(op) for op in doc["ops"]]), state) > MATRIX_TOL:
            return "kraus: family does not reproduce the state"
        return None

    @staticmethod
    def _check_sinkhorn(out):
        doc = expect_json(out, 0)
        report, kraus = doc["report"], doc["kraus"]
        if report["converged"] is not True:
            return "sinkhorn: not converged"
        n, m = kraus["n"], kraus["m"]
        sum_k, sum_l = operator_sums([matrix_parse(op) for op in kraus["ops"]])
        res = max(np.linalg.norm(sum_k - np.eye(m) / m), np.linalg.norm(sum_l - np.eye(n) / n))
        if res > 1e-10 or max(report["residual_k"], report["residual_l"]) > 1e-10:
            return f"sinkhorn: residual {res:.3e} above 1e-10"
        return None

    @staticmethod
    def _check_malformed(out):
        expect_exit(out, 2)
        if not out.stderr.startswith("error:") or "Traceback" in out.stderr:
            return "malformed input: no one-line error"
        return None

    @staticmethod
    def _check_exit_zero(out):
        expect_exit(out, 0)
        return None


WORKLOADS = {cls.name: cls for cls in (Search, SearchSkewed, Audit, Cli)}
