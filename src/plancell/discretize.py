"""Numeric-attribute discretization: equal-width and entropy/MDL binning.

This module alone decides whether and how data is binned: ``fit_map`` takes
one of ``MODES`` and fits no map (``None``) where it would bin nothing;
``apply_map`` passes a set unchanged through ``None`` and is the one check
that a map covers every numeric attribute. Both fitters produce a
DiscretizationMap, a per-attribute list of strictly increasing cut points.
A value v falls into bin ``count of cuts < v``, so a value equal to a cut
maps to the bin on its left. ``bin_label`` is the one path from a raw value
to a model value and ``bin_column`` its form for a whole column;
``apply_map`` rewrites the numeric columns of a set, training data or cases
to classify, into nominal bin codes b0, b1, ... through the second.
A ``Schema`` holds a model's attributes, classes and cut points, checked to
agree, and is their one JSON form, for tree models and cellular rule bases.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .dataset import (NOMINAL, NUMERIC, UNKNOWN, AttributeSpec, TrainingSet,
                      is_finite_number, is_number)
from .errors import DataError, ModelIntegrityError

MODES = ("supervised", "unsupervised", "none")

# the float epsilon of ``_tolerance``, looked up once
_EPSILON = np.finfo(float).eps


@dataclass(frozen=True)
class DiscretizationMap:
    """Sorted cut points per numeric attribute: values ``is_finite_number``
    accepts, strictly increasing, or DataError. ``cuts`` is a read-only copy
    of the mapping given, each attribute's cuts a tuple, so the cuts and
    their cached bin labels stay as checked."""

    cuts: Mapping[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        cuts = {name: tuple(cs) for name, cs in self.cuts.items()}
        for name, cs in cuts.items():
            if not all(map(is_finite_number, cs)):
                raise DataError(
                    f"cuts for {name!r} are not finite numbers a float holds exactly")
            if list(cs) != sorted(set(cs)):
                raise DataError(f"cuts for {name!r} must be strictly increasing")
        object.__setattr__(self, "cuts", MappingProxyType(cuts))

    def bin_label(self, attribute: str, value):
        """One raw value as a model value.

        A value is binned only when this map has cuts for its attribute and
        it is an int or float (not a bool) other than NaN; every other value,
        bin labels included, passes through, so encoding twice changes
        nothing and a NaN matches no branch.
        """
        if attribute in self.cuts and is_number(value) and value == value:
            return self._bins[attribute][0][bisect_left(self.cuts[attribute], value)]
        return value

    @cached_property
    def _bins(self) -> dict[str, tuple]:
        """Per attribute, its bin labels b0, b1, ..., its cuts as a float
        array, and the same labels in an object array."""
        bins = {name: tuple(f"b{i}" for i in range(len(cs) + 1))
                for name, cs in self.cuts.items()}
        return {name: (bins[name], np.array(cs, dtype=float),
                       np.array(bins[name], dtype=object))
                for name, cs in self.cuts.items()}

    def bin_column(self, attribute: str, column) -> tuple:
        """``bin_label`` of every value of a numeric column of an attribute
        with cuts, in order: one ``searchsorted``, which equals
        ``bisect_left`` because a float holds every value a checked set may
        hold (``is_finite_number``) and every cut exactly, then one ``take``
        of the map's own label strings. A NaN passes through.
        """
        _, cuts, labels = self._bins[attribute]
        values = np.fromiter(column, float, len(column))
        out = labels.take(cuts.searchsorted(values))
        for i in np.isnan(values).nonzero()[0].tolist():
            out[i] = column[i]
        return tuple(out.tolist())


@dataclass(frozen=True)
class Schema:
    """A model's attributes, classes and cut points, checked together.

    Attribute names are unique and classes are strings other than
    ``UNKNOWN``. The map cuts only attributes of the schema, and each
    attribute it cuts is nominal with domain exactly the bin labels
    ``apply_map`` writes for it, b0, b1, ... in order, so a model bins a
    case as its training data was binned. DataError otherwise.
    """

    attributes: tuple[AttributeSpec, ...]
    classes: tuple[str, ...]
    discretization: DiscretizationMap | None = None

    def __post_init__(self):
        if len(self.index) != len(self.attributes):
            raise DataError("attribute names repeat")
        for label in self.classes:
            if not isinstance(label, str):
                raise DataError(f"class {label!r} is not a string")
            if label == UNKNOWN:
                raise DataError(f"class {UNKNOWN!r} marks an unplaceable case")
        dmap = self.discretization
        for name, (bins, *_) in dmap._bins.items() if dmap is not None else ():
            if name not in self.index:
                raise DataError(f"cut points for {name!r}, which the schema lacks")
            spec = self.attributes[self.index[name]]
            if spec.kind != NOMINAL or tuple(spec.domain) != bins:
                raise DataError(f"attribute {name!r}: domain {spec.domain!r} "
                                f"is not its bins {bins!r}")

    @cached_property
    def index(self) -> dict[str, int]:
        """Each attribute's position in the schema, by name."""
        return {spec.name: i for i, spec in enumerate(self.attributes)}

    def to_json(self) -> dict:
        """The attributes, classes and cut points, JSON-ready."""
        return {
            "attributes": [{"name": s.name, "kind": s.kind, "domain": list(s.domain)}
                           for s in self.attributes],
            "classes": list(self.classes),
            "discretization": self.discretization and {
                a: list(c) for a, c in self.discretization.cuts.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> Schema:
        """Inverse of ``to_json``; ModelIntegrityError on classes or domains
        not in lists, or on whatever the constructors refuse (``json`` reads
        NaN and Infinity)."""
        try:
            for value in [data["classes"], *(a["domain"] for a in data["attributes"])]:
                if not isinstance(value, list):
                    raise ModelIntegrityError(
                        f"classes and domains must be lists, not {value!r}")
            cuts = data.get("discretization")
            return cls(tuple(AttributeSpec(a["name"], a["kind"], tuple(a["domain"]))
                             for a in data["attributes"]),
                       tuple(data["classes"]),
                       None if cuts is None
                       else DiscretizationMap({a: tuple(c) for a, c in cuts.items()}))
        except (KeyError, TypeError, AttributeError, DataError) as exc:
            raise ModelIntegrityError(f"malformed schema: {exc}") from exc


def discretize_unsupervised(ts: TrainingSet, bins: int = 10) -> DiscretizationMap:
    """Equal-width cuts over each numeric attribute's observed range.

    ``bins`` intervals give ``bins - 1`` interior cuts; a constant column
    gets no cuts at all. A width that overflows splits the range as
    ``lo / bins * (bins - k) + hi / bins * k``, and a cut that rounds onto
    the one before it (a range a few ulps wide) is dropped.
    """
    if bins < 1:
        raise DataError(f"bins must be >= 1, got {bins}")
    cuts = {}
    for spec in ts.attributes:
        if spec.kind != NUMERIC:
            continue
        lo, hi = spec.domain
        width = (hi - lo) / bins
        if math.isinf(width):
            points = {lo / bins * (bins - k) + hi / bins * k for k in range(1, bins)}
        else:
            points = {lo + k * width for k in range(1, bins)}
        # the points never decrease in k, so sorting the set drops the repeats
        cuts[spec.name] = tuple(sorted(points)) if lo < hi else ()
    return DiscretizationMap(cuts)


def discretize_supervised(ts: TrainingSet) -> DiscretizationMap:
    """Recursive entropy minimization with the MDL stopping rule.

    Candidate cuts sit at midpoints between consecutive distinct values
    whose class sets differ; a cut is kept only when its information gain
    clears the MDL threshold, then both sides are discretized recursively.
    The labels are coded once per fit (``_coded_labels``), and each
    attribute's candidates are found once, by array operations over its
    column (``_candidates``).
    """
    codes, firsts, table = _coded_labels(ts.labels)
    cuts: dict[str, tuple[float, ...]] = {}
    for spec, column in zip(ts.attributes, ts.columns):
        if spec.kind != NUMERIC:
            continue
        found: list[float] = []
        _mdl_split(column, codes, firsts, table, found)
        cuts[spec.name] = tuple(sorted(found))
    return DiscretizationMap(cuts)


def _coded_labels(labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each label's rank among the sorted distinct labels, in the smallest
    unsigned type that holds them; each label's first row in the rows
    sorted by label; and x log2 x for x = 0, 1, ..., len(labels)."""
    names = {y: i for i, y in enumerate(sorted(set(labels)))}
    codes = np.fromiter(map(names.__getitem__, labels),
                        np.min_scalar_type(max(len(names) - 1, 0)), len(labels))
    rows = np.bincount(codes, minlength=len(names))
    x = np.arange(len(labels) + 1, dtype=float)
    return codes, rows.cumsum() - rows, x * np.log2(np.maximum(x, 1))


def entropy(dist) -> float:
    """Shannon entropy in bits of a class-count distribution."""
    counts = list(dist.values()) if hasattr(dist, "values") else list(dist)
    if any(n < 0 for n in counts):
        raise DataError("negative class count")
    total = sum(counts)
    if total == 0:
        raise DataError("entropy of an all-zero distribution")
    return -sum((n / total) * math.log2(n / total) for n in counts if n)


def _candidates(values: list, codes: np.ndarray, firsts: np.ndarray):
    """The column's distinct (value, label) pairs in order, and its boundary
    candidates.

    ``codes`` are the rows' label codes, in the smallest unsigned type that
    holds them, and ``firsts`` each label's first row in the rows sorted by
    label. One argsort of the values, in any order among equal ones, numbers
    the groups of equal values; one sort of the integers group * labels +
    label then orders each group by label, and its runs are the pairs, in
    the order of a stable sort by value, then label. Returns the candidates;
    the first pair of the group right of each one; the pairs whose values
    are ``<=`` each one; per pair, its label code; the rows before each
    pair, then all the rows; per pair, the rows of its label in the pairs
    before it, counted from ``firsts`` in a stable (radix) sort of the pairs
    by their small label codes; and per sorted row, its label code.
    """
    keys = np.fromiter(values, float, len(values))
    if not len(keys):
        empty = np.zeros(0, np.intp)
        return keys, empty, empty, empty, np.zeros(1, np.intp), empty, empty
    order = keys.argsort()
    v = keys[order]
    new = v[1:] != v[:-1]  # row i + 1 starts a group of equal values
    classes = len(firsts)
    key = np.concatenate(([0], new.cumsum())) * classes + codes[order]
    key.sort()
    # each distinct (value, label) pair: its group and label, and the rows
    # before it
    offsets = np.concatenate(
        ([0], (key[1:] != key[:-1]).nonzero()[0] + 1, [len(key)]))
    pair_group, label = np.divmod(key[offsets[:-1]], classes)
    width = np.bincount(pair_group)  # labels per group
    differ = width[:-1] != width[1:]
    # equally wide neighbours: each pair's counterpart lies ``width`` pairs on
    j = (~differ[pair_group[:len(pair_group) - width[-1]]]).nonzero()[0]
    mismatch = label[j] != label[j + width[pair_group[j]]]
    differ[pair_group[j[mismatch]]] = True
    left = differ.nonzero()[0]  # the groups left of the candidates
    ends = width.cumsum()  # each group's end: the first pair of the next
    starts = ends[left]
    right = offsets[starts]  # the first row right of each candidate
    below, above = v[right - 1], v[right]
    with np.errstate(over="ignore"):
        cuts = (below + above) / 2.0
    wide = np.isinf(cuts)  # the sum left the float range
    cuts[wide] = below[wide] / 2 + above[wide] / 2
    # a midpoint rounded onto the value above sends that group left too
    sizes = ends[left + (cuts == above)]
    weights = offsets[1:] - offsets[:-1]
    by_label = label.astype(codes.dtype).argsort(kind="stable")
    counted = weights[by_label]
    ranks = np.empty_like(counted)
    ranks[by_label] = counted.cumsum() - counted - firsts[label[by_label]]
    return cuts, starts, sizes, label, offsets, ranks, key % classes


def _mdl_split(values: list, codes: np.ndarray, firsts: np.ndarray,
               table: np.ndarray, found: list[float]) -> None:
    """Fayyad-Irani recursion over one numeric column and its coded labels.

    A candidate cut sends the values ``<= cut`` left. A cut never splits a
    run of equal values, so the candidates of a sub-range are the whole
    column's candidates that start a group inside it: ``_candidates`` finds
    them once, with the pairs each sends left, and the column's distinct
    (value, label) pairs with their rows and label ranks; the recursion
    passes ranges of pairs.

    Every candidate of a range is scored from running sums over ``table``,
    F(x) = x log2 x, to within ``_tolerance(n)``: a split with m of the n
    rows on the left has weighted entropy (F(m) - S_L(m) + F(n - m) -
    S_R(m)) / n, where S_L and S_R sum F over the label counts on each
    side. Moving a pair of c rows left raises its label's left count by c
    and lowers its right count by c, so S_L and S_R are running sums of
    per-pair differences of F, and a range costs its pairs, not its rows.
    The screen decides a range alone when one candidate is within
    ``_tolerance(n)`` of the least score, and so is the one exact minimum,
    sends rows to both sides, and has an MDL margin (``_margin``), taken
    from the same sums and from the labels' first and last pairs, more than
    ``2 * _tolerance(n)`` from 0. Otherwise the near-best candidates are
    re-scored exactly, the first with the least weighted entropy is taken
    and its margin computed exactly; either way the cuts are those of
    scoring every candidate exactly.
    """
    cuts, starts, sizes, labels, offsets, ranks, rows = _candidates(
        values, codes, firsts)
    cuts, starts, row_at = cuts.tolist(), starts.tolist(), offsets.tolist()
    weights = offsets[1:] - offsets[:-1]
    classes = len(firsts)

    def split(lo: int, hi: int) -> None:
        first, last = bisect_right(starts, lo), bisect_left(starts, hi)
        if first == last:
            return
        start, stop = row_at[lo], row_at[hi]
        n = stop - start
        # a candidate whose midpoint rounds onto the last value sends all left
        end = np.minimum(sizes[first:last], hi)
        here = offsets[end] - start  # rows sent left
        edge = end - (lo + 1)  # the last pair sent left, in the range
        pairs, own = labels[lo:hi], weights[lo:hi]
        counts = np.bincount(rows[start:stop], minlength=classes)
        # per pair, the rows of its label in the range before it, through
        # it, from it on and after it
        seen = ranks[lo:hi] - np.bincount(rows[:start], minlength=classes)[pairs]
        upto, after = seen + own, counts[pairs] - seen
        beyond = after - own
        total_f = table[counts].sum()
        s_left = (table[upto] - table[seen]).cumsum()[edge]
        s_right = total_f - (table[after] - table[beyond]).cumsum()[edge]
        screened = (table[here] - s_left + table[n - here] - s_right) / n
        tolerance = _tolerance(n)
        least = screened[screened.argmin()]
        near = (screened <= least + tolerance).nonzero()[0]
        i, nl, p = near[0], int(here[near[0]]), int(end[near[0]]) - lo
        margin = 0.0  # undecided: score exactly below
        if len(near) == 1 and 0 < nl < n:
            # label counts as Python ints: 3**k overflows a numpy int; a
            # label's first pair has none of its rows before it, its last
            # none after it
            margin = _margin(n, int(np.count_nonzero(counts)),
                             int(np.count_nonzero(seen[:p] == 0)),
                             int(np.count_nonzero(beyond[p:] == 0)),
                             (table[n] - total_f) / n, screened[i],
                             (table[nl] - s_left[i]) / nl,
                             (table[n - nl] - s_right[i]) / (n - nl))
        if abs(margin) <= 2 * tolerance:
            # label codes in order of first appearance
            order = pairs[seen == 0]
            total = counts[order].tolist()
            parent = entropy(total)
            best = None
            for j in near:
                nl = int(here[j])
                left = np.bincount(rows[start:start + nl],
                                   minlength=classes)[order].tolist()
                right = [t - c for t, c in zip(total, left)]
                # entropy() refuses an empty side, whose entropy is 0
                h_left = entropy(left) if nl else 0.0
                h_right = entropy(right) if nl < n else 0.0
                weighted = nl / n * h_left + (n - nl) / n * h_right
                if best is None or weighted < best[0]:
                    best = (weighted, j, nl, left, right, h_left, h_right)
            weighted, i, nl, left, right, h_left, h_right = best
            p = int(end[i]) - lo
            margin = _margin(n, len(total), sum(map(bool, left)),
                             sum(map(bool, right)), parent, weighted, h_left,
                             h_right)
        if margin <= 0:
            return
        found.append(cuts[first + i])
        split(lo, lo + p)
        split(lo + p, hi)

    split(0, len(labels))


def _margin(n: int, k: int, k1: int, k2: int, parent: float, weighted: float,
            h_left: float, h_right: float) -> float:
    """How far a split's information gain clears the MDL threshold
    (Fayyad & Irani 1993); the split is kept when this is above 0.

    ``n`` rows with ``k`` labels and entropy ``parent`` go to two sides with
    ``k1`` and ``k2`` labels and entropies ``h_left`` and ``h_right``,
    ``weighted`` by their rows. A float difference is above 0 exactly when
    the gain is above the threshold.
    """
    delta = math.log2(3**k - 2) - (k * parent - k1 * h_left - k2 * h_right)
    return parent - weighted - (math.log2(n - 1) + delta) / n


def _tolerance(n: int) -> float:
    """Bound on the screening error in a range of n rows: of a weighted
    entropy against its exact score, and, doubled, of an MDL margin.

    Let e be the float epsilon and T = n log2 n, and let log2 be within 2
    ulps. Then each table entry F(x) is within 3eF(x), and each step
    F(b) - F(a), a < b, by which a pair of b - a rows moves its label's sum,
    within 7eF(b). The steps summed into S_L(m) reach F(b) once per pair,
    for b among 1, 2, ... up to each label's count on the left: some of the
    F(j) that one step per row would reach, which add up to under
    (n + 1)T / 2. The running sum has at most m terms, one per pair, so its
    own error is under (m - 1)e/2 times S_L(m), and S_L(m) is within 6enT.
    S_R(m), the F over all label counts less such a sum, is within 8.5enT.
    So a screened weighted entropy is within 18eT, and an exact one, a
    Python sum of k <= n terms, within 3eT. Two candidates whose screened
    scores are more than 42eT apart can neither swap places nor tie when
    scored exactly.

    In the margin, the screened parent entropy is within 4eT. A side's
    entropy (F(m) - S_L(m)) / m is within (6enT + 4eT) / m, and it is
    multiplied by at most m labels. So the terms of delta add up to under
    27enT, and the margin, delta divided by n, is within 51eT of its true
    value. The exact margin is within 17eT of its own true value. 64e(1 + T)
    covers 42eT, and twice that covers 68eT.
    """
    return 64 * _EPSILON * (1.0 + n * math.log2(max(n, 2)))


def apply_map(dmap: DiscretizationMap | None, ts: TrainingSet) -> TrainingSet:
    """Rewrite numeric attributes as nominal bin codes.

    Nominal attributes, instance order and class labels are untouched; an
    encoded attribute is nominal, so encoding twice changes nothing. Every
    numeric attribute of ``ts`` must be covered by the map (the one such
    check); no map (``None``) returns ``ts`` as it is.
    """
    if dmap is None:
        return ts
    for spec in ts.attributes:
        if spec.kind == NUMERIC and spec.name not in dmap.cuts:
            raise DataError(f"attribute {spec.name!r} is numeric but has no cut points")

    columns = tuple(dmap.bin_column(spec.name, column) if spec.kind == NUMERIC
                    else column for spec, column in zip(ts.attributes, ts.columns))
    new_specs = tuple(
        AttributeSpec(spec.name, NOMINAL, dmap._bins[spec.name][0])
        if spec.kind == NUMERIC else spec
        for spec in ts.attributes)
    return TrainingSet(new_specs, ts.classes, columns, ts.labels)


def fit_map(ts: TrainingSet, mode: str, bins: int = 10) -> DiscretizationMap | None:
    """The map ``mode`` fits on ``ts``; ``None`` where it would bin nothing:
    mode "none", or a set without numeric attributes (bins still checked)."""
    if mode == "supervised":
        dmap = discretize_supervised(ts)
    elif mode == "unsupervised":
        dmap = discretize_unsupervised(ts, bins)
    elif mode == "none":
        return None
    else:
        raise DataError(f"unknown discretization mode {mode!r}; expected one of {MODES}")
    return dmap if dmap.cuts else None
