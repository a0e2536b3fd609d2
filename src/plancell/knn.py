"""k-nearest-neighbor classification over mixed nominal/numeric data.

Distances are Euclidean over per-attribute differences: numeric values are
range-normalized against the training data, nominal values contribute 0 or
1. A query is compared with every training row at once, one attribute
column at a time. All tie-breaking is pinned down so results are
reproducible: equal distances keep training order, vote ties go to the
label with the nearest member and then lexicographically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dataset import NUMERIC, TrainingSet, case_values, is_finite_number
from .errors import DataError, UnknownValueError


@dataclass(frozen=True)
class KnnModel:
    """The stored training data, column by column.

    Per attribute, ``columns`` holds the raw values of a numeric column as
    floats, or the integer codes of a nominal one; ``spans`` holds the
    numeric normalization range (hi - lo of the domain), None for a nominal
    attribute, and ``codes`` the nominal value-to-code map, None for a
    numeric attribute.
    """

    training: TrainingSet
    k: int
    columns: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    spans: tuple[float | None, ...] = field(repr=False, compare=False)
    codes: tuple[dict | None, ...] = field(repr=False, compare=False)


def fit_knn(ts: TrainingSet, k: int = 1) -> KnnModel:
    """Memorize the training set column by column; k must fit within it."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if k > len(ts):
        raise DataError(f"k={k} exceeds the {len(ts)} training instances")
    columns, spans, codes = [], [], []
    for spec, raw in zip(ts.attributes, ts.columns):
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
    return KnnModel(ts, k, tuple(columns), tuple(spans), tuple(codes))


def _distances(model: KnnModel, query) -> np.ndarray:
    """The distance from the query to every training row, in training order.

    Squares are added one attribute at a time in attribute order, as a
    scalar sum per row adds them, so equal distances stay equal. A zero
    span adds nothing and an unseen nominal value, unhashable or not,
    mismatches every row; a numeric value ``is_finite_number`` refuses
    (NaN, an infinity, an int beyond +-2**53) is near no row and raises
    UnknownValueError.
    """
    values = case_values(query, len(model.columns))
    total = np.zeros(len(model.training))
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
            d = np.abs(column - float(x)) / span
            total += d * d
    return np.sqrt(total)


def classify_knn(model: KnnModel, query) -> str:
    """Majority label among the k nearest training instances."""
    dists = _distances(model, query)
    labels = model.training.labels
    if model.k == 1:
        return labels[int(np.argmin(dists))]
    # stable sort: equal distances keep training order, and each label's
    # first neighbour is its nearest
    neighbors = np.argsort(dists, kind="stable")[:model.k].tolist()
    nearest = [labels[i] for i in neighbors]
    votes = Counter(nearest)
    return min(votes, key=lambda label: (
        -votes[label], dists[neighbors[nearest.index(label)]], label))
