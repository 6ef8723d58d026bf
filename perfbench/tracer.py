"""Outside-in layer tracing.

The package's modules import each other's functions by name
(``from .linalg import eigh``), so a wrapper set on ``linalg.eigh`` alone
would miss the calls made from ``bipartite``, ``cpmaps`` or ``scaling``.
``Tracer.install`` therefore rebinds every traced function in every package
module that holds it.  Each call becomes a span (name, start, end, parent
span, operation id, count) kept in memory; ``aggregate`` turns the spans
into per-name call counts, total time and self time (a span's duration
minus the time covered by its child spans) when the run ends.
"""

import functools
import importlib
import json
import types
from time import perf_counter
from typing import Dict, List, NamedTuple

LAYERS = ("linalg", "bipartite", "cpmaps", "scaling", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    count: float


class Totals(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    count: float


def _eigh_count(args, kwargs, result) -> float:
    """Sum of dim^3 over eigh calls: the cubic cost of a dense eigensolver."""
    mat = args[0] if args else kwargs["h"]
    return float(len(mat)) ** 3


def _sinkhorn_count(args, kwargs, result) -> float:
    """Iterations of one scaling run, also when it ends in NoConvergence."""
    if isinstance(result, BaseException):
        report = getattr(result, "report", None)
        return float(report.iterations) if report is not None else 0.0
    return float(result[1].iterations)


COUNTERS = {"linalg.eigh": _eigh_count, "scaling.sinkhorn_scale": _sinkhorn_count}
#: Spans named after the layer's JSON codec rather than the function.
JSON_CODEC = {"linalg.matrix_to_json", "linalg.matrix_from_json"}


class Tracer:
    """Records spans for the public functions of the package's layers."""

    def __init__(self, package):
        self.modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        self._cli = cli = self.modules[-1]
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = 0
        self._wrappers: Dict[int, object] = {}
        self._saved: list = []
        for name in package.__all__:
            func = getattr(package, name)
            if isinstance(func, types.FunctionType):
                self._add(func)
        for name, func in vars(cli).items():
            if isinstance(func, types.FunctionType) and (name == "main" or name.startswith("cmd_")):
                self._add(func)
        self._json_proxy = types.ModuleType("json")
        self._json_proxy.__dict__.update(json.__dict__)
        self._json_proxy.dumps = self._wrap("linalg.json", json.dumps)
        self._json_proxy.loads = self._wrap("linalg.json", json.loads)

    def _add(self, func) -> None:
        layer = func.__module__.rsplit(".", 1)[-1]
        if layer not in LAYERS:
            return
        name = f"{layer}.{func.__name__}"
        if name in JSON_CODEC:
            name = "linalg.json"
        self._wrappers[id(func)] = self._wrap(name, func)

    def _wrap(self, name: str, func):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                count = counter(args, kwargs, result) if counter else 0.0
                spans[index] = Span(name, start, end, parent, self.op, count)

        return traced

    def install(self) -> None:
        """Rebind every traced function in every module that holds it."""
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
            if module is self._cli:
                self._saved.append((module, "json", module.json))
                module.json = self._json_proxy

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def aggregate(self) -> Dict[str, Totals]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        totals: Dict[str, list] = {}
        for span, child in zip(self.spans, covered):
            duration = span.end - span.start
            entry = totals.setdefault(span.name, [0, 0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
            entry[3] += span.count
        return {name: Totals(*entry) for name, entry in totals.items()}
