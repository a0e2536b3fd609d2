"""Numeric-attribute discretization: equal-width and entropy/MDL binning.

This module alone decides whether and how data is binned: ``fit_map`` takes
one of ``MODES``, and mode "none" fits no map (``None``), through which
``apply_map`` and ``encode`` pass values unchanged. Both fitters produce a
DiscretizationMap, a per-attribute list of strictly increasing cut points.
A value v falls into bin ``count of cuts < v``, so a value equal to a cut
maps to the bin on its left. ``bin_label`` is the one path from a raw value
to a model value; ``encode`` maps a case through it, and ``apply_map``
rewrites the numeric columns of a training set into nominal bin codes b0,
b1, ... ``schema_to_json``/``schema_from_json`` are the one JSON form of a
model's schema and cut points, shared by tree models and cellular rule bases.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .dataset import (NOMINAL, NUMERIC, AttributeSpec, Instance, TrainingSet,
                      is_finite_number, is_number)
from .errors import DataError, ModelIntegrityError

MODES = ("supervised", "unsupervised", "none")


@dataclass(frozen=True)
class DiscretizationMap:
    """Sorted cut points per numeric attribute."""

    cuts: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name, cs in self.cuts.items():
            if list(cs) != sorted(set(cs)):
                raise DataError(f"cuts for {name!r} must be strictly increasing")

    def bin_label(self, attribute: str, value):
        """One raw value as a model value.

        A value is binned only when this map has cuts for its attribute and
        it is an int or float (not a bool) other than NaN; every other value,
        bin labels included, passes through, so encoding twice changes
        nothing and a NaN matches no branch.
        """
        if attribute in self.cuts and is_number(value) and value == value:
            return f"b{bisect_left(self.cuts[attribute], value)}"
        return value

    def bin_count(self, attribute: str) -> int:
        return len(self.cuts[attribute]) + 1


def encode(dmap: DiscretizationMap | None, attributes, values) -> tuple:
    """A raw case as model values, one ``bin_label`` per attribute spec; a
    model without a map (``None``) encodes nothing."""
    if dmap is None:
        return tuple(values)
    return tuple(dmap.bin_label(spec.name, v)
                 for spec, v in zip(attributes, values))


def schema_to_json(attributes, classes, dmap: DiscretizationMap | None) -> dict:
    """The attributes, classes and cut points of a model, JSON-ready."""
    return {
        "attributes": [{"name": s.name, "kind": s.kind, "domain": list(s.domain)}
                       for s in attributes],
        "classes": list(classes),
        "discretization": None if dmap is None
        else {a: list(c) for a, c in dmap.cuts.items()},
    }


def schema_from_json(data: dict):
    """Inverse of ``schema_to_json``: (attributes, classes, map or None).

    Raises ModelIntegrityError on any malformed part: repeated attribute
    names, unsorted, non-numeric or non-finite cuts (``json`` reads NaN and
    Infinity), classes or domains not in lists, classes or nominal values
    that are not strings.
    """
    try:
        for value in [data["classes"], *(a["domain"] for a in data["attributes"])]:
            if not isinstance(value, list):
                raise ModelIntegrityError(
                    f"classes and domains must be lists, not {value!r}")
        attributes = tuple(AttributeSpec(a["name"], a["kind"], tuple(a["domain"]))
                           for a in data["attributes"])
        if len({a.name for a in attributes}) != len(attributes):
            raise ModelIntegrityError("attribute names repeat")
        classes = tuple(data["classes"])
        for label in classes:
            if not isinstance(label, str):
                raise ModelIntegrityError(f"class {label!r} is not a string")
        cuts = data.get("discretization")
        if cuts is None:
            return attributes, classes, None
        for name, cs in cuts.items():
            if not all(map(is_finite_number, cs)):
                raise ModelIntegrityError(f"cuts for {name!r} are not finite numbers")
        return attributes, classes, DiscretizationMap(
            {a: tuple(c) for a, c in cuts.items()})
    except (KeyError, TypeError, AttributeError, DataError) as exc:
        raise ModelIntegrityError(f"malformed schema: {exc}") from exc


def discretize_unsupervised(ts: TrainingSet, bins: int = 10) -> DiscretizationMap:
    """Equal-width cuts over each numeric attribute's observed range.

    ``bins`` intervals give ``bins - 1`` interior cuts; a constant column
    gets no cuts at all.
    """
    if bins < 1:
        raise DataError(f"bins must be >= 1, got {bins}")
    cuts = {}
    for spec in ts.attributes:
        if spec.kind != NUMERIC:
            continue
        lo, hi = spec.domain
        if lo == hi:
            cuts[spec.name] = ()
        else:
            width = (hi - lo) / bins
            cuts[spec.name] = tuple(lo + k * width for k in range(1, bins))
    return DiscretizationMap(cuts)


def discretize_supervised(ts: TrainingSet) -> DiscretizationMap:
    """Recursive entropy minimization with the MDL stopping rule.

    Candidate cuts sit at midpoints between consecutive distinct values
    whose class sets differ; a cut is kept only when its information gain
    clears the MDL threshold, then both sides are discretized recursively.
    """
    labels = [inst.label for inst in ts.instances]
    cuts: dict[str, tuple[float, ...]] = {}
    for spec in ts.attributes:
        if spec.kind != NUMERIC:
            continue
        pairs = sorted(zip(ts.column(spec.name), labels))
        found: list[float] = []
        _mdl_split(pairs, found)
        cuts[spec.name] = tuple(sorted(found))
    return DiscretizationMap(cuts)


def entropy(dist) -> float:
    """Shannon entropy in bits of a class-count distribution."""
    counts = list(dist.values()) if hasattr(dist, "values") else list(dist)
    if any(n < 0 for n in counts):
        raise DataError("negative class count")
    total = sum(counts)
    if total == 0:
        raise DataError("entropy of an all-zero distribution")
    return -sum((n / total) * math.log2(n / total) for n in counts if n)


def boundary_candidates(pairs: list[tuple[float, str]]) -> list[float]:
    """Midpoints between consecutive distinct values with differing class sets.

    ``pairs`` must be sorted by value. These are the only cut positions a
    best entropy split can occupy.
    """
    groups: list[tuple[float, set[str]]] = []
    for value, label in pairs:
        if groups and groups[-1][0] == value:
            groups[-1][1].add(label)
        else:
            groups.append((value, {label}))
    out = []
    for (v1, c1), (v2, c2) in zip(groups, groups[1:]):
        if c1 != c2:
            out.append((v1 + v2) / 2.0)
    return out


def _mdl_split(pairs: list[tuple[float, str]], found: list[float]) -> None:
    """Fayyad-Irani recursion over value-sorted (value, label) pairs.

    A candidate cut sends the values ``<= cut`` left. Every candidate is
    scored in one sorted pass (``_screen``); only the near-best ones are
    re-scored exactly, so the chosen cut is the first one with the least
    weighted entropy, as if every candidate were scored exactly.
    """
    candidates = boundary_candidates(pairs)
    if not candidates:
        return

    n = len(pairs)
    values = [value for value, _ in pairs]
    sizes = [bisect_right(values, cut) for cut in candidates]
    # row positions per label, labels in order of first appearance
    rows: dict[str, list[int]] = {}
    for i, (_, label) in enumerate(pairs):
        rows.setdefault(label, []).append(i)
    positions = list(rows.values())
    total = [len(p) for p in positions]
    parent = entropy(total)

    screened = _screen(positions, n, sizes)
    best = None
    for i in np.flatnonzero(screened <= screened.min() + _tolerance(n)):
        nl = sizes[i]
        left = [bisect_left(p, nl) for p in positions]
        right = [t - c for t, c in zip(total, left)]
        # a midpoint can overflow to -inf and leave nothing left, or round
        # onto the largest value and leave nothing right
        h_left = entropy(left) if nl else 0.0
        h_right = entropy(right) if nl < n else 0.0
        weighted = nl / n * h_left + (n - nl) / n * h_right
        if best is None or weighted < best[0]:
            best = (weighted, candidates[i], nl, left, right, h_left, h_right)

    weighted, cut, nl, left, right, h_left, h_right = best
    gain = parent - weighted
    k, k1, k2 = len(total), sum(map(bool, left)), sum(map(bool, right))
    delta = math.log2(3**k - 2) - (k * parent - k1 * h_left - k2 * h_right)
    if gain <= (math.log2(n - 1) + delta) / n:
        return

    found.append(cut)
    _mdl_split(pairs[:nl], found)
    _mdl_split(pairs[nl:], found)


def _xlog2x(x: np.ndarray) -> np.ndarray:
    return x * np.log2(np.maximum(x, 1))


def _screen(positions: list[list[int]], n: int, sizes: list[int]) -> np.ndarray:
    """Weighted entropy of every split, to within ``_tolerance(n)``.

    With F(x) = x log2 x, a split with m rows on the left scores
    (F(m) - S_L(m) + F(n - m) - S_R(m)) / n, where S_L and S_R sum F over
    the class counts on each side. Moving row i to the left raises its
    label's left count by one and lowers its right count by one, so S_L
    and S_R are running sums of per-row deltas: O(n) time and memory.
    """
    seen = np.empty(n)     # rows of the same label before row i
    label_n = np.empty(n)  # rows of row i's label
    for p in positions:
        seen[p] = np.arange(len(p))
        label_n[p] = len(p)
    after = label_n - seen
    s_left = np.cumsum(_xlog2x(seen + 1) - _xlog2x(seen))
    s_right = _xlog2x(np.array([len(p) for p in positions], float)).sum() \
        + np.cumsum(_xlog2x(after - 1) - _xlog2x(after))
    m = np.asarray(sizes)
    nl, nr = m.astype(float), (n - m).astype(float)
    return (_xlog2x(nl) - s_left[m - 1] + _xlog2x(nr) - s_right[m - 1]) / n


def _tolerance(n: int) -> float:
    """Bound on the screening error: running sums of n terms below n log2 n."""
    return 64 * np.finfo(float).eps * (1.0 + n * math.log2(max(n, 2)))


def apply_map(dmap: DiscretizationMap | None, ts: TrainingSet) -> TrainingSet:
    """Rewrite numeric attributes as nominal bin codes.

    Nominal attributes, instance order and class labels are untouched. Every
    numeric attribute of ``ts`` must be covered by the map; no map (``None``)
    returns ``ts`` as it is.
    """
    if dmap is None:
        return ts
    for spec in ts.attributes:
        if spec.kind == NUMERIC and spec.name not in dmap.cuts:
            raise DataError(f"attribute {spec.name!r} missing from discretization map")

    new_specs = tuple(
        AttributeSpec(spec.name, NOMINAL,
                      tuple(f"b{i}" for i in range(dmap.bin_count(spec.name))))
        if spec.kind == NUMERIC else spec
        for spec in ts.attributes)
    new_instances = tuple(
        Instance(encode(dmap, ts.attributes, inst.values), inst.label)
        for inst in ts.instances)
    return TrainingSet(new_specs, ts.classes, new_instances)


def fit_map(ts: TrainingSet, mode: str, bins: int = 10) -> DiscretizationMap | None:
    """The map ``mode`` fits on ``ts``; mode "none" fits none (``None``)."""
    if mode == "supervised":
        return discretize_supervised(ts)
    if mode == "unsupervised":
        return discretize_unsupervised(ts, bins)
    if mode == "none":
        return None
    raise DataError(f"unknown discretization mode {mode!r}; expected one of {MODES}")
