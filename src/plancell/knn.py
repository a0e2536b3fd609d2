"""k-nearest-neighbor classification over mixed nominal/numeric data.

Distances are Euclidean over per-attribute differences: numeric values are
range-normalized against the training data, nominal values contribute 0 or
1. A query is compared with every stored row at once, one attribute column
at a time. All tie-breaking is pinned down so results are reproducible:
equal distances keep training order, vote ties go to the label with the
nearest member and then lexicographically.

Only the distinct rows are stored, in order of first appearance, each with
its first copy's label: copies are at bit-identical distances, so the first
distinct row at the least distance is the first training row there. For
k > 1 the distances are expanded to every training row before the vote.
When every attribute is nominal, as in every binned CV fold, a k = 1 query
equal to a stored row is answered by a dict lookup; with a numeric
attribute an underflowing square can put a row that is not a copy at
distance 0, so such a set always measures.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dataset import NUMERIC, TrainingSet, case_values, is_finite_number
from .errors import DataError, UnknownValueError


@dataclass(frozen=True)
class KnnModel:
    """The stored training rows, column by column.

    Per attribute, ``columns`` holds the raw values of a numeric column as
    floats, or the integer codes of a nominal one; ``spans`` holds the
    numeric normalization range (hi - lo of the domain), None for a nominal
    attribute, and ``codes`` the nominal value-to-code map, None for a
    numeric attribute. ``labels`` holds each distinct row's label, and
    ``inverse`` each training row's place among them. ``positions`` maps a
    distinct row's values to its place when every attribute is nominal, and
    is None otherwise.
    """

    training: TrainingSet
    k: int
    columns: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    spans: tuple[float | None, ...] = field(repr=False, compare=False)
    codes: tuple[dict | None, ...] = field(repr=False, compare=False)
    labels: tuple[str, ...] = field(repr=False, compare=False)
    positions: dict | None = field(repr=False, compare=False)
    inverse: np.ndarray = field(repr=False, compare=False)


def fit_knn(ts: TrainingSet, k: int = 1) -> KnnModel:
    """Memorize the training set column by column; k must fit within it."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if k > len(ts):
        raise DataError(f"k={k} exceeds the {len(ts)} training instances")
    positions = {}
    places = [positions.setdefault(row, len(positions)) for row in ts.rows]
    # reversed, the last label written for a place is its first copy's
    first = dict(zip(reversed(places), reversed(ts.labels)))
    labels = tuple(first[p] for p in range(len(positions)))
    stored = tuple(zip(*positions))
    columns, spans, codes = [], [], []
    for spec, raw in zip(ts.attributes, stored):
        if spec.kind == NUMERIC:
            columns.append(np.array(raw, dtype=float))
            spans.append(float(spec.domain[1]) - float(spec.domain[0]))
            codes.append(None)
        else:
            index: dict = {}
            coded = [index.setdefault(v, len(index)) for v in raw]
            columns.append(np.array(coded, dtype=np.intp))
            spans.append(None)
            codes.append(index)
    return KnnModel(ts, k, tuple(columns), tuple(spans), tuple(codes), labels,
                    positions if all(s is None for s in spans) else None,
                    np.array(places, dtype=np.intp))


def _stored_distances(model: KnnModel, values: tuple) -> np.ndarray:
    """The distance from a query's values to every stored row, in order.

    Squares are added one attribute at a time in attribute order, as a
    scalar sum per row adds them, so equal distances stay equal. A zero
    span adds nothing and an unseen nominal value, unhashable or not,
    mismatches every row; a numeric value ``is_finite_number`` refuses
    (NaN, an infinity, an int beyond +-2**53) is near no row and raises
    UnknownValueError. A span or difference beyond the float range is taken
    between halves of the values, which leaves every finite quotient as is.
    """
    total = np.zeros(len(model.labels))
    for spec, column, span, codes, x in zip(model.training.attributes,
                                            model.columns, model.spans,
                                            model.codes, values):
        if codes is not None:
            try:
                code = codes.get(x, -1)
            except TypeError:  # an unhashable value, which no row holds
                code = -1
            # a mismatch adds 1.0, its own square
            total += column != code
        elif not is_finite_number(x):
            raise UnknownValueError(f"value {x!r} of attribute {spec.name!r} "
                                    f"has no distance to the training rows")
        elif span:
            lo, hi, x = float(spec.domain[0]), float(spec.domain[1]), float(x)
            if math.isinf(span) or math.isinf(hi - x) or math.isinf(x - lo):
                d = np.abs(column / 2 - x / 2) / (hi / 2 - lo / 2)
            else:
                d = np.abs(column - x) / span
            total += d * d
    return np.sqrt(total)


def _distances(model: KnnModel, query) -> np.ndarray:
    """The distance from the query to every training row, in training order."""
    return _stored_distances(model, case_values(query, len(model.columns)))[
        model.inverse]


def classify_knn(model: KnnModel, query) -> str:
    """Majority label among the k nearest training instances."""
    values = case_values(query, len(model.columns))
    if model.k == 1:
        if model.positions is not None:
            try:
                place = model.positions.get(values)
            except TypeError:  # an unhashable value, which no row holds
                place = None
            if place is not None:
                return model.labels[place]
        return model.labels[int(np.argmin(_stored_distances(model, values)))]
    dists = _distances(model, values)
    labels = model.training.labels
    # stable sort: equal distances keep training order, and each label's
    # first neighbour is its nearest
    neighbors = np.argsort(dists, kind="stable")[:model.k].tolist()
    nearest = [labels[i] for i in neighbors]
    votes = Counter(nearest)
    return min(votes, key=lambda label: (
        -votes[label], dists[neighbors[nearest.index(label)]], label))
