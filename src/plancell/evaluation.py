"""Stratified cross-validation and comparison tables for all classifiers.

Folds are stratified by shuffle-then-deal: within each class the instances
are shuffled (seeded) and dealt onto folds through one rolling pointer, so
class counts per fold differ by at most one and small datasets spread as
evenly as possible. Discretization is fit inside each fold on the training
split only, unless the caller explicitly asks for one global map.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .casi import classify_casi, compile_tree
from .dataset import NUMERIC, TrainingSet, class_members, subset
from .discretize import MODES, DiscretizationMap, apply_map, encode, fit_map
from .errors import DataError, PlancellError, UnknownValueError
from .knn import classify_knn, fit_knn
from .tree import classify_tree, induce, majority_label

METHODS = ("j48", "reptree", "knn", "majority")
ENGINES = ("tree", "casi")

UNKNOWN = "?"


@dataclass(frozen=True)
class FoldPlan:
    """Instance-to-fold assignment for one seeded stratified split."""

    assignment: tuple[int, ...]
    folds: int
    seed: int

    def test_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignment) if f == fold]

    def train_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignment) if f != fold]


def make_folds(ts: TrainingSet, folds: int = 10, seed: int = 0) -> FoldPlan:
    """Stratified shuffle-then-deal assignment of instances to folds."""
    if folds < 2:
        raise DataError(f"need at least 2 folds, got {folds}")
    if len(ts.instances) < folds:
        raise DataError(
            f"{len(ts.instances)} instances cannot fill {folds} folds")
    rng = random.Random(seed)
    assignment = [0] * len(ts.instances)
    pointer = 0
    for members in class_members(ts).values():
        rng.shuffle(members)
        for m in members:
            assignment[m] = pointer % folds
            pointer += 1
    return FoldPlan(tuple(assignment), folds, seed)


@dataclass(frozen=True)
class EvalReport:
    """Outcome of one cross-validated method/mode combination."""

    method: str
    mode: str
    seed: int
    folds: int
    total: int
    correct: int
    incorrect: int
    errors: int
    per_fold: tuple[float, ...]
    confusion: tuple[tuple[str, str, int], ...]

    @property
    def rate(self) -> float:
        return 100.0 * self.correct / self.total


def predict(classify, values) -> str | None:
    """The label ``classify`` gives a case, or None if it cannot place it."""
    try:
        return classify(values)
    except UnknownValueError:
        return None


def _fit_predictor(method: str, fitted: TrainingSet,
                   dmap: DiscretizationMap | None, engine: str,
                   seed: int, k: int, min_leaf: int):
    """Train one fold's classifier; returns a raw values -> label callable.

    Trees and rule bases bin raw values themselves; kNN encodes them first.
    """
    if method == "majority":
        label = majority_label(Counter(i.label for i in fitted.instances))
        return lambda values: label
    if method == "knn":
        model = fit_knn(fitted, k)
        return lambda values: classify_knn(
            model, encode(dmap, fitted.attributes, values))
    graph = induce(fitted, method, min_leaf=min_leaf, seed=seed,
                   discretization=dmap)
    if engine == "casi":
        kb = compile_tree(graph)
        return lambda values: classify_casi(kb, values)
    return lambda values: classify_tree(graph, values)[0]


def cross_validate(ts: TrainingSet, method: str, mode: str = "supervised",
                   seed: int = 0, folds: int = 10, k: int = 1,
                   bins: int = 10, min_leaf: int = 2, engine: str = "tree",
                   global_discretize: bool = False) -> EvalReport:
    """Evaluate one method under one discretization mode, fold by fold.

    Every instance is tested exactly once. A test instance the classifier
    cannot place (unknown value) counts as misclassified. Mode "none" skips
    discretization and only suits classifiers that accept numeric values.
    """
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {METHODS}")
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}; expected one of {MODES}")
    if engine not in ENGINES:
        raise DataError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    has_numeric = any(s.kind == NUMERIC for s in ts.attributes)
    if mode == "none" and has_numeric and method in ("j48", "reptree"):
        raise DataError(f"method {method!r} needs discretized data; "
                        f"mode 'none' leaves numeric attributes raw")

    plan = make_folds(ts, folds, seed)
    global_map = fit_map(ts, mode, bins) if global_discretize else None

    correct = errors = 0
    per_fold: list[float] = []
    confusion: Counter = Counter()
    for fold in range(folds):
        train = subset(ts, plan.train_indices(fold))
        dmap = global_map if global_discretize else fit_map(train, mode, bins)
        fitted = apply_map(dmap, train)
        try:
            classify = _fit_predictor(method, fitted, dmap, engine,
                                      seed, k, min_leaf)
        except PlancellError as exc:
            raise type(exc)(f"fold {fold}: {exc}") from exc

        test = plan.test_indices(fold)
        fold_correct = 0
        for i in test:
            inst = ts.instances[i]
            predicted = predict(classify, inst.values)
            if predicted is None:
                errors += 1
                predicted = UNKNOWN
            elif predicted == inst.label:
                fold_correct += 1
            confusion[inst.label, predicted] += 1
        correct += fold_correct
        per_fold.append(100.0 * fold_correct / len(test))

    table = tuple(sorted((a, p, n) for (a, p), n in confusion.items()))
    incorrect = len(ts.instances) - correct - errors
    return EvalReport(method, mode, seed, folds, len(ts.instances),
                      correct, incorrect, errors, tuple(per_fold), table)


def evaluate_grid(ts: TrainingSet, methods, modes, seed: int = 0,
                  **options) -> list[EvalReport]:
    """cross_validate over the full methods x modes grid, in given order."""
    return [cross_validate(ts, method, mode, seed, **options)
            for method in methods for mode in modes]


def _mode_heading(mode: str) -> str:
    if mode == "none":
        return "Raw values"
    return mode.capitalize() + " mode"


def _grid(results) -> tuple[list[str], list[str], dict]:
    """Methods, modes and each cell's 2-decimal rate text."""
    if not results:
        raise DataError("nothing to report")
    methods = list(dict.fromkeys(r.method for r in results))
    modes = list(dict.fromkeys(r.mode for r in results))
    cells = {(r.method, r.mode): f"{r.rate:.2f}" for r in results}
    return methods, modes, cells


def report(results: list[EvalReport]) -> str:
    """Plain-text table: methods as rows, modes as columns, 2-decimal rates."""
    methods, modes, cells = _grid(results)
    headings = [_mode_heading(m) for m in modes]
    left = max(len("Method"), max(len(m) for m in methods))
    widths = [max(len(h), 6) for h in headings]
    lines = ["  ".join([f"{'Method':<{left}}"]
                       + [f"{h:>{w}}" for h, w in zip(headings, widths)])]
    for method in methods:
        row = [f"{cells.get((method, mode), ''):>{w}}"
               for mode, w in zip(modes, widths)]
        lines.append("  ".join([f"{method:<{left}}"] + row).rstrip())
    return "\n".join(lines)


def report_csv(results: list[EvalReport]) -> str:
    """The same table as comma-separated values."""
    methods, modes, cells = _grid(results)
    lines = [",".join(["method"] + modes)]
    for method in methods:
        lines.append(",".join([method] + [cells.get((method, mode), "")
                                          for mode in modes]))
    return "\n".join(lines) + "\n"
