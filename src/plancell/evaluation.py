"""Stratified cross-validation and comparison tables for all classifiers.

Folds are stratified by shuffle-then-deal: within each class the instances
are shuffled (seeded) and dealt onto folds through one rolling pointer, so
class counts per fold differ by at most one and small datasets spread as
evenly as possible. Discretization is fit inside each fold on the training
split only, unless the caller explicitly asks for one global map. One
loop, fold then mode then method, serves one cell and a whole grid: each
mode bins a fold's rows once, and every method labels each distinct
encoded case once (``label_cases``); the counts still cover every case.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product

import numpy as np

from .casi import classify_casi, compile_tree
from .dataset import (NUMERIC, UNKNOWN, TrainingSet, distinct_rows,
                      shuffled_classes, subset)
from .discretize import MODES, apply_map, fit_map, fit_supervised_maps
from .errors import DataError, PlancellError, UnknownValueError
from .knn import classify_knn, fit_knn
from .tree import (J48, REPTREE, _stratified_thirds, classify_tree, induce,
                   majority_label)

METHODS = (J48, REPTREE, "knn", "majority")
ENGINES = ("tree", "casi")


@dataclass(frozen=True)
class FoldPlan:
    """Instance-to-fold assignment for one seeded stratified split."""

    assignment: tuple[int, ...]
    folds: int
    seed: int

    @cached_property
    def _folds(self) -> np.ndarray:
        return np.array(self.assignment, dtype=np.intp)

    def _test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self._folds == fold)

    def _train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self._folds != fold)

    def test_indices(self, fold: int) -> list[int]:
        return self._test_rows(fold).tolist()

    def train_indices(self, fold: int) -> list[int]:
        return self._train_rows(fold).tolist()


def make_folds(ts: TrainingSet, folds: int = 10, seed: int = 0) -> FoldPlan:
    """Stratified shuffle-then-deal assignment of instances to folds."""
    if folds < 2:
        raise DataError(f"need at least 2 folds, got {folds}")
    if len(ts) < folds:
        raise DataError(f"{len(ts)} instances cannot fill {folds} folds")
    assignment = [0] * len(ts)
    for pointer, m in enumerate(chain.from_iterable(shuffled_classes(ts, seed))):
        assignment[m] = pointer % folds
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


def label_cases(classify, cases: TrainingSet) -> list[str | None]:
    """``predict``'s label for every case of an encoded set, in case order.

    Each distinct case, found from the set's codes (``distinct_rows``), is
    labelled once, in order of first appearance, so a failure other than an
    unknown value stops at the same case as a case-by-case loop would.
    """
    firsts, _, inverse = distinct_rows(cases, labels=False)
    labels = [predict(classify, row) for row in cases.take(firsts).rows]
    return [labels[i] for i in inverse.tolist()]


def _fit_predictor(method: str, fitted: TrainingSet, engine: str,
                   seed: int, k: int, min_leaf: int, split):
    """Train one fold's classifier; returns a values -> label callable.

    It is handed cases binned as ``fitted`` was, so trees and rule bases
    carry no map of their own. ``reptree`` takes the fold's REP ``split``.
    """
    if method == "majority":
        label = majority_label(Counter(fitted.labels))
        return lambda values: label
    if method == "knn":
        model = fit_knn(fitted, k)
        return lambda values: classify_knn(model, values)
    graph = induce(fitted, method, min_leaf=min_leaf, seed=seed, split=split)
    if engine == "casi":
        kb = compile_tree(graph)
        return lambda values: classify_casi(kb, values)
    return lambda values: classify_tree(graph, values)[0]


def _check(ts: TrainingSet, method: str, mode: str, engine: str) -> None:
    """Refuse a cell whose method, mode or engine is unknown, a set with the
    class ``UNKNOWN``, which kNN and majority would never refuse, or a tree
    method on raw numeric values."""
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {METHODS}")
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}; expected one of {MODES}")
    if engine not in ENGINES:
        raise DataError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if UNKNOWN in ts.classes:
        raise DataError(f"class {UNKNOWN!r} marks an unplaceable case")
    has_numeric = any(s.kind == NUMERIC for s in ts.attributes)
    if mode == "none" and has_numeric and method in (J48, REPTREE):
        raise DataError(f"method {method!r} needs discretized data; "
                        f"mode 'none' leaves numeric attributes raw")


def cross_validate(ts: TrainingSet, method: str, mode: str = "supervised",
                   seed: int = 0, folds: int = 10, k: int = 1,
                   bins: int = 10, min_leaf: int = 2, engine: str = "tree",
                   global_discretize: bool = False) -> EvalReport:
    """Evaluate one method under one discretization mode, fold by fold.

    Every instance is tested exactly once. A test instance the classifier
    cannot place (unknown value) counts as misclassified. Mode "none" skips
    discretization and only suits classifiers that accept numeric values.
    """
    _check(ts, method, mode, engine)
    return _cross_validate(ts, [method], [mode], make_folds(ts, folds, seed),
                           k, bins, min_leaf, engine, global_discretize)[0]


def evaluate_grid(ts: TrainingSet, methods, modes, seed: int = 0, *,
                  folds: int = 10, k: int = 1, bins: int = 10,
                  min_leaf: int = 2, engine: str = "tree",
                  global_discretize: bool = False) -> list[EvalReport]:
    """cross_validate over the full methods x modes grid, in given order.

    Every cell is checked before anything is fit, and an empty grid fits
    nothing. All cells share one fold loop (``_cross_validate``).
    """
    methods, modes = list(methods), list(modes)
    for method, mode in product(methods, modes):
        _check(ts, method, mode, engine)
    if len(methods) * len(modes) < 2:
        # the same loop, but bench/spans.py times a one-cell grid and its
        # folds by the cross_validate span and the subset spans inside it
        return [cross_validate(ts, method, mode, seed, folds, k, bins,
                               min_leaf, engine, global_discretize)
                for method in methods for mode in modes]
    return _cross_validate(ts, methods, modes, make_folds(ts, folds, seed),
                           k, bins, min_leaf, engine, global_discretize)


def _cross_validate(ts: TrainingSet, methods: list[str], modes: list[str],
                    plan: FoldPlan, k: int, bins: int, min_leaf: int,
                    engine: str, global_discretize: bool) -> list[EvalReport]:
    """One report per cell, in methods x modes order. A fold's rows are taken
    once and binned once per mode for every method; a repeated method or
    mode is a cell of its own and runs again. Binning keeps the labels, so
    one REP split of the fold serves ``reptree`` in every mode."""
    if global_discretize:
        maps = {mode: [fit_map(ts, mode, bins)] * plan.folds for mode in modes}
    elif "supervised" in modes:
        # the training folds get their supervised maps from one pass
        maps = {"supervised": fit_supervised_maps(
            ts, [plan._train_rows(fold) for fold in range(plan.folds)])}
    else:
        maps = {}
    cells = list(product(methods, modes))
    correct, errors = [0] * len(cells), [0] * len(cells)
    per_fold: list[list[float]] = [[] for _ in cells]
    confusion = [Counter() for _ in cells]
    for fold in range(plan.folds):
        train = subset(ts, plan._train_rows(fold))
        test = ts.take(plan._test_rows(fold))
        split = _stratified_thirds(train, plan.seed) if REPTREE in methods else None
        for col, mode in enumerate(modes):
            dmap = maps[mode][fold] if mode in maps else fit_map(train, mode, bins)
            fitted, held = apply_map(dmap, train), apply_map(dmap, test)
            for row, method in enumerate(methods):
                cell = row * len(modes) + col
                try:
                    classify = _fit_predictor(method, fitted, engine,
                                              plan.seed, k, min_leaf, split)
                except PlancellError as exc:
                    raise type(exc)(f"fold {fold}: {exc}") from exc
                predicted = label_cases(classify, held)
                hits = sum(a == p for a, p in zip(held.labels, predicted))
                errors[cell] += predicted.count(None)
                confusion[cell].update(zip(held.labels, [
                    UNKNOWN if p is None else p for p in predicted]))
                correct[cell] += hits
                per_fold[cell].append(100.0 * hits / len(held))

    total = len(ts)
    return [EvalReport(method, mode, plan.seed, plan.folds, total, correct[c],
                       total - correct[c] - errors[c], errors[c],
                       tuple(per_fold[c]),
                       tuple(sorted((a, p, n)
                                    for (a, p), n in confusion[c].items())))
            for c, (method, mode) in enumerate(cells)]


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
