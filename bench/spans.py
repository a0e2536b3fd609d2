"""In-memory spans around the public functions each plancell module calls.

While a ``Tracer`` is installed it replaces module attributes with timing
wrappers: both the name in the defining module and every copy another
module imported (``plancell.evaluation`` and ``plancell.cli`` bind their
own names). Uninstalling restores the originals, so untraced rounds run the
program unchanged. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter


def _cuts(args, kwargs, result):
    return {"cuts": sum(len(c) for c in result.cuts.values())}


def _nodes(args, kwargs, result):
    return {"nodes": result.node_count, "mode": result.mode}


def _kb_size(args, kwargs, result):
    return {"facts": result.fact_count, "rules": result.rule_count}


def _generations(args, kwargs, result):
    return {"generations": len(result) - 1}


def _cell(args, kwargs, result):
    return {"cell": f"{result.method}.{result.mode}"}


def _solve_method(args, kwargs, result):
    return {"method": kwargs.get("method", args[3] if len(args) > 3 else "bfs")}


def _plan_count(args, kwargs, result):
    return {"plans": len(result.plans)}


# (layer, function, modules that hold a name for it, note on the result)
TARGETS = [
    ("discretize", "discretize_supervised", ["discretize"], _cuts),
    ("discretize", "discretize_unsupervised", ["discretize"], None),
    ("discretize", "apply_map", ["discretize", "evaluation", "cli"], None),
    ("knn", "fit_knn", ["knn", "evaluation"], None),
    ("knn", "classify_knn", ["knn", "evaluation"], None),
    ("tree", "grow", ["tree"], None),
    ("tree", "rep_prune", ["tree"], None),
    ("tree", "induce", ["tree", "evaluation", "cli"], _nodes),
    ("tree", "classify_tree", ["tree", "evaluation", "cli"], None),
    ("tree", "model_to_json", ["tree", "cli"], None),
    ("tree", "model_from_json", ["tree", "cli"], None),
    ("casi", "compile_tree", ["casi", "evaluation", "cli"], _kb_size),
    ("casi", "classify_casi", ["casi", "evaluation", "cli"], None),
    ("casi", "infer", ["casi"], _generations),
    ("casi", "kb_to_json", ["casi", "cli"], None),
    ("casi", "kb_from_json", ["casi", "cli"], None),
    ("evaluation", "evaluate_grid", ["evaluation", "cli"], None),
    ("evaluation", "cross_validate", ["evaluation", "cli"], _cell),
    ("evaluation", "make_folds", ["evaluation"], None),
    ("dataset", "subset", ["dataset", "evaluation"], None),
    ("dataset", "load_csv", ["dataset", "cli"], None),
    ("dataset", "save_csv", ["dataset", "cli"], None),
    ("blocksworld", "solve", ["blocksworld"], _solve_method),
    ("blocksworld", "generate_runs", ["blocksworld"], None),
    ("blocksworld", "generate_corpus", ["blocksworld"], None),
    ("project", "parse_project", ["project", "cli"], None),
    ("plans", "enumerate_plans", ["plans", "cli"], _plan_count),
]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    stage: str
    note: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``stage`` tags each span's stage."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.stage = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, layer: str, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _Open(self, layer, name)

    def _begin(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _end(self, idx, parent, layer, name, start, note):
        self._stack.pop()
        self.spans[idx] = Span(name, layer, start, perf_counter(), parent,
                               self.stage, note)

    def wrap(self, layer, name, fn, describe):
        tracer = self

        def traced(*args, **kwargs):
            idx, parent = tracer._begin()
            start = perf_counter()
            note = {}
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    note = describe(args, kwargs, result)
                return result
            finally:
                tracer._end(idx, parent, layer, name, start, note)

        return traced

    def install(self):
        for layer, name, holders, describe in TARGETS:
            origin = importlib.import_module(f"plancell.{layer}")
            wrapped = self.wrap(layer, f"{layer}.{name}", getattr(origin, name),
                                describe)
            for holder in holders:
                module = importlib.import_module(f"plancell.{holder}")
                self._saved.append((module, name, getattr(module, name)))
                setattr(module, name, wrapped)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class _Open:
    def __init__(self, tracer, layer, name):
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        self.idx, self.parent = self.tracer._begin()
        self.start = perf_counter()

    def __exit__(self, *exc):
        self.tracer._end(self.idx, self.parent, self.layer, self.name,
                         self.start, {})
        return False


def self_times(spans) -> dict:
    """Per layer: span time minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    out: dict = {}
    for s, inner in zip(spans, child):
        out[s.layer] = out.get(s.layer, 0.0) + s.seconds - inner
    return out


def fold_seconds(spans) -> list[float]:
    """One CV fold runs from its training subset to the next fold's.

    ``cross_validate`` calls ``subset`` once per fold, first thing in the
    fold, so the subset spans directly under a cross_validate span mark
    where each fold starts; the last fold ends with the cross_validate span.
    """
    starts: dict[int, list[float]] = {}
    for s in spans:
        if s.name == "dataset.subset" and s.parent >= 0 \
                and spans[s.parent].name == "evaluation.cross_validate":
            starts.setdefault(s.parent, []).append(s.start)
    out = []
    for parent, marks in starts.items():
        ends = marks[1:] + [spans[parent].end]
        out += [b - a for a, b in zip(marks, ends)]
    return out
