"""Training-set data model and CSV I/O.

A training set is stored by column, in two forms. Its values are one tuple
per descriptive attribute plus one tuple of class labels. Its codes are one
integer array per nominal attribute, each value's index into the domain,
one float array per numeric attribute, and one array of each label's index
into the classes. A set built from values (``build_training_set``,
``load_csv``, the ``TrainingSet`` constructor) makes its codes on first
read; a set made by ``take``, ``subset`` or ``discretize.apply_map`` is made
from its parent's codes, indexed by one array, and builds its value tuples
only on first read. A case is a value sequence; ``rows``, one per row, is a
view built on first read. Attributes are either nominal or numeric; the
class column is always the last one and is named ``class``. Missing cells
are a hard parse error.
"""

from __future__ import annotations

import csv
import io
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

NOMINAL = "nominal"
NUMERIC = "numeric"
CLASS_ATTRIBUTE = "class"
UNKNOWN = "?"  # the answer for a case no classifier can place, never a class


@dataclass(frozen=True)
class AttributeSpec:
    """One descriptive attribute: its name, kind, and observed domain.

    For nominal attributes ``domain`` is the list of values, all strings,
    in first-seen order; for numeric attributes it is the observed
    ``(min, max)`` pair, of values ``is_finite_number`` accepts. The name
    may not be ``class`` nor contain ``=``: rule bases spell a fact
    ``name=value`` and the class fact ``class=label``, so either would let
    two facts share one descriptor.
    """

    name: str
    kind: str
    domain: tuple

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"attribute 'name' must be a string, not {self.name!r}")
        if self.name == CLASS_ATTRIBUTE or "=" in self.name:
            raise DataError(f"attribute {self.name!r}: reserved name")
        if self.kind not in (NOMINAL, NUMERIC):
            raise DataError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == NOMINAL and not self.domain:
            raise DataError(f"attribute {self.name!r}: empty nominal domain")
        for value in self.domain if self.kind == NOMINAL else ():
            if not isinstance(value, str):
                raise DataError(
                    f"attribute {self.name!r}: nominal value {value!r} is not a string")
        if self.kind == NUMERIC and not (
                len(self.domain) == 2 and all(map(is_finite_number, self.domain))
                and self.domain[0] <= self.domain[1]):
            raise DataError(f"attribute {self.name!r}: numeric domain "
                            f"{self.domain!r} is not a finite (min, max) pair")


@dataclass(frozen=True)
class Instance:
    """One labelled row of ``TrainingSet.instances``, kept for the benchmark
    only: no engine reads one, as a case is a value sequence."""

    values: tuple
    label: str


@dataclass(frozen=True)
class TrainingSet:
    """One tuple of values per attribute, in order, and one label per row,
    with their codes (see the module docstring); a set holds one form as
    made and builds the other on first read."""

    attributes: tuple[AttributeSpec, ...]
    classes: tuple[str, ...]
    columns: tuple[tuple, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        # a rule base spells a fact name=value: one name, one attribute
        if len(set(self.attribute_names)) != len(self.attributes):
            raise DataError("duplicate attribute names")
        width, n = len(self.attributes), len(self.labels)
        if len(self.columns) != width:
            raise DataError(f"{len(self.columns)} columns for {width} attributes")
        for spec, column in zip(self.attributes, self.columns):
            if len(column) != n:
                raise DataError(f"column {spec.name!r}: {len(column)} values, {n} labels")

    def __getattr__(self, name):
        # only a set made from codes lacks its value tuples, until first read
        if name == "columns":
            value = tuple(
                _decode(spec.domain, codes) if given is None else _pick(given, self._rows)
                for spec, codes, given in zip(self.attributes, self.codes, self._given))
        elif name == "labels":
            value = _pick(self._given[-1], self._rows)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __len__(self):
        labels = self.__dict__.get("labels")
        return len(self.label_codes if labels is None else labels)

    @cached_property
    def codes(self) -> tuple[np.ndarray, ...]:
        """Per attribute: a nominal value's index into the domain, a numeric
        value as a float; DataError naming a value outside its domain."""
        return tuple(
            np.fromiter(column, float, len(column)) if spec.kind == NUMERIC
            else _encode(spec.domain, column, np.intp, f"attribute {spec.name!r}: "
                         "instance {} has value {!r}, which is not in its domain")
            for spec, column in zip(self.attributes, self.columns))

    @cached_property
    def label_codes(self) -> np.ndarray:
        """Each label's index into the classes, in the smallest unsigned type
        that holds them; DataError naming a label outside the classes."""
        return _encode(self.classes, self.labels, _code_type(len(self.classes)),
                       "instance {} has label {!r}, which is not one of the classes")

    @cached_property
    def _given(self) -> tuple:
        """Per column, then for the labels, the values of the set built from
        values that this set's rows come from, in an object array; None for
        a column ``apply_map`` binned, which its domain decodes."""
        return tuple(np.fromiter(values, object, len(values))
                     for values in (*self.columns, self.labels))

    @cached_property
    def _rows(self) -> np.ndarray:
        """Each row's place in the values of ``_given``."""
        return np.arange(len(self))

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        """The values of each row, one tuple each, built on first read."""
        return tuple(zip(*self.columns)) if self.columns else ((),) * len(self)

    @cached_property
    def instances(self) -> tuple[Instance, ...]:
        """The rows, one Instance each: the benchmark's view, built on
        first read; nothing in this package reads it."""
        return tuple(map(Instance, self.rows, self.labels))

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def take(self, indices) -> TrainingSet:
        """The rows ``indices``, ints or an int array, under this set's own
        attributes and classes, made from its codes."""
        rows = np.asarray(indices, dtype=np.intp)
        return _from_codes(self.attributes, self.classes,
                           tuple(codes[rows] for codes in self.codes),
                           self.label_codes[rows], self._given, self._rows[rows])


def _from_codes(attributes, classes, codes, label_codes, given,
                rows) -> TrainingSet:
    """A set made from codes that index ``attributes`` and ``classes``, its
    values those of ``given`` at ``rows`` (see ``TrainingSet._given``),
    without the constructor's checks."""
    ts = object.__new__(TrainingSet)
    for name, value in (("attributes", attributes), ("classes", classes),
                        ("codes", codes), ("label_codes", label_codes),
                        ("_given", given), ("_rows", rows)):
        object.__setattr__(ts, name, value)
    return ts


def _recoded(ts: TrainingSet, attributes, codes) -> TrainingSet:
    """The rows and labels of ``ts`` under new ``attributes`` and column
    ``codes``: a column that keeps its code array keeps its values, and any
    other is decoded by its new domain."""
    given = tuple(values if new is old else None for values, new, old
                  in zip(ts._given, codes, ts.codes))
    return _from_codes(attributes, ts.classes, codes, ts.label_codes,
                       given + ts._given[-1:], ts._rows)


def _code_type(count: int) -> np.dtype:
    """The smallest unsigned type that holds the codes 0, 1, ..., count - 1."""
    return np.min_scalar_type(max(count - 1, 0))


def _encode(values: tuple, column, dtype, fault: str) -> np.ndarray:
    """Each value of ``column`` as its index into ``values``; DataError
    ``fault``, formatted with the first row and value that has none."""
    index = {v: i for i, v in enumerate(values)}
    try:
        return np.fromiter(map(index.__getitem__, column), dtype, len(column))
    except (KeyError, TypeError):  # TypeError: an unhashable value
        for i, v in enumerate(column):
            try:
                index[v]
            except (KeyError, TypeError):
                raise DataError(fault.format(i, v)) from None
        raise


def _decode(values: tuple, codes: np.ndarray) -> tuple:
    """The values ``codes`` index, as a tuple of the objects in ``values``."""
    return _pick(np.fromiter(values, object, len(values)), codes)


def _pick(values: np.ndarray, rows: np.ndarray) -> tuple:
    """The objects of ``values`` at ``rows``, as a tuple."""
    return tuple(values.take(rows).tolist())


def distinct_rows(ts: TrainingSet, labels: bool = True
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The set's distinct rows, by their values and, with ``labels``, their
    label, in order of first appearance: each one's first row, the rows it
    stands for, and each row's place among them.

    The codes of a row are packed into one integer key, a numeric column
    by its place among the column's distinct floats; a key past 2**62 is
    first renumbered densely. One sort of the keys groups equal rows.
    """
    n = len(ts)
    key, span = np.zeros(n, np.int64), 1
    columns = [_dense(codes) if spec.kind == NUMERIC else (len(spec.domain), codes)
               for spec, codes in zip(ts.attributes, ts.codes)]
    if labels:
        columns.append((len(ts.classes), ts.label_codes))
    for size, codes in columns:
        if span * size > 2**62:
            span, key = _dense(key)
        key = key * size + codes
        span *= size
    if not n:
        empty = np.zeros(0, np.intp)
        return empty, empty, empty
    order = key.argsort()
    key = key[order]
    bounds = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    firsts = np.minimum.reduceat(order, bounds[:-1])
    weights = bounds[1:] - bounds[:-1]
    by_first = firsts.argsort()
    place = np.empty_like(by_first)
    place[by_first] = np.arange(len(by_first))
    inverse = np.empty(n, np.intp)
    inverse[order] = np.repeat(place, weights)
    return firsts[by_first], weights[by_first], inverse


def _dense(values: np.ndarray) -> tuple[int, np.ndarray]:
    """How many distinct values there are, and each one's place among them."""
    distinct, places = np.unique(values, return_inverse=True)
    return len(distinct), places


def case_values(case, width: int) -> tuple:
    """The values of a case, a value sequence, as a tuple; DataError unless
    there are ``width`` of them, one per attribute."""
    values = tuple(case)
    if len(values) != width:
        raise DataError(
            f"case has {len(values)} values, the schema width is {width}")
    return values


def is_number(v) -> bool:
    """An int or a float, bools excluded."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """What a numeric value or a cut point may be: a finite float, or an int
    within +-2**53, which a float holds exactly. The comparison is exact, so
    a huge int does not raise."""
    return is_number(v) and abs(v) <= (
        sys.float_info.max if isinstance(v, float) else 2**53)


def build_training_set(columns: list[tuple[str, str]], rows: list[tuple]) -> TrainingSet:
    """Assemble a TrainingSet from descriptive ``(name, kind)`` column specs.

    Each row is the attribute values followed by the class label: one more
    cell than there are columns, or DataError. Nominal domains are taken in
    first-seen order; numeric domains are the observed min/max, and numeric
    values must pass ``is_finite_number``. Nominal values and labels must be
    strings ``load_csv`` reads back as they are: neither empty nor padded
    with whitespace. Classes are the sorted set of labels that occur.
    """
    if not rows:
        raise DataError("empty dataset: no instances")
    for n, row in enumerate(rows, 1):
        if len(row) != len(columns) + 1:
            raise DataError(f"row {n}: expected {len(columns) + 1} cells, got {len(row)}")
    *values, labels = zip(*rows)
    for (name, kind), column in zip(columns, values):
        if kind == NUMERIC:
            for v in column:
                if not is_finite_number(v):
                    raise DataError(
                        f"attribute {name!r}: {v!r} is not a finite number "
                        f"a float holds exactly")
        elif kind == NOMINAL:
            _check_readable(f"attribute {name!r}: nominal value", column)
        else:
            raise DataError(f"attribute {name!r}: unknown kind {kind!r}")
    _check_readable("class label", labels)
    return _with_schema(columns, tuple(values), labels)


def _check_readable(what: str, values) -> None:
    """DataError unless every value is a string ``load_csv`` reads back."""
    for v in dict.fromkeys(values):
        if not isinstance(v, str) or not v or v != v.strip():
            raise DataError(f"{what} {v!r} is not a string CSV reads back as itself")


def _with_schema(specs, columns: tuple[tuple, ...], labels: tuple) -> TrainingSet:
    """A TrainingSet over checked ``(name, kind)`` columns, its domains and
    classes inferred from them as ``build_training_set`` documents."""
    attributes = tuple(
        AttributeSpec(name, kind, (min(column), max(column)) if kind == NUMERIC
                      else tuple(dict.fromkeys(column)))
        for (name, kind), column in zip(specs, columns))
    return TrainingSet(attributes, tuple(sorted(set(labels))), columns, labels)


def load_csv(text: str) -> TrainingSet:
    """Parse a training set from CSV text.

    The header declares each column as ``name:kind``; the last column must
    be ``class:nominal``. Numeric cells must parse as finite floats, and every
    row must have exactly as many cells as the header. A line the csv module
    cannot read (a cell over its field size limit) is a DataError too.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        return _parse_records(reader)
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: {exc}") from None


def _parse_records(reader) -> TrainingSet:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty dataset: missing header") from None

    columns = []
    for i, token in enumerate(header):
        name, sep, kind = token.strip().partition(":")
        if not sep or not name or kind not in (NOMINAL, NUMERIC):
            raise DataError(f"bad header column {i + 1}: {token!r} (expected name:kind)")
        columns.append((name, kind))
    if columns[-1] != ("class", NOMINAL):
        raise DataError("last column must be class:nominal")

    rows = []
    for lineno, raw in enumerate(reader, start=2):
        if not raw:
            continue
        if len(raw) != len(columns):
            raise DataError(f"row {lineno}: expected {len(columns)} cells, got {len(raw)}")
        row = []
        for (name, kind), cell in zip(columns, raw):
            cell = cell.strip()
            if not cell:
                raise DataError(f"row {lineno}: missing value in column {name!r}")
            if kind == NUMERIC:
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"row {lineno}: non-numeric value {cell!r} in column {name!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"row {lineno}: non-finite value {cell!r} in column {name!r}")
                row.append(value)
            else:
                row.append(cell)
        rows.append(tuple(row))

    return build_training_set(columns[:-1], rows)


def save_csv(ts: TrainingSet) -> str:
    """Serialize a TrainingSet back to CSV (inverse of load_csv).

    Floats are written with repr, which round-trips exactly.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"{a.name}:{a.kind}" for a in ts.attributes] + ["class:nominal"])
    for row in zip(*ts.columns, ts.labels):
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return out.getvalue()


def class_distribution(ts: TrainingSet) -> dict[str, int]:
    """Count instances per class label."""
    return dict(Counter(ts.labels))


def shuffled_classes(ts: TrainingSet, seed: int) -> list[list[int]]:
    """Each class's instance indices, in ``ts.classes`` order, each list
    shuffled in that order by one ``random.Random(seed)``; DataError for an
    instance whose label is not one of the classes. The shuffle is
    ``Random.shuffle``'s Fisher-Yates written out, with the same draws."""
    codes = ts.label_codes
    by_class = codes.argsort(kind="stable").tolist()
    ends = np.bincount(codes, minlength=len(ts.classes)).cumsum().tolist()
    members = [by_class[a:b] for a, b in zip([0] + ends, ends)]
    getrandbits = random.Random(seed).getrandbits
    for x in members:
        for i in reversed(range(1, len(x))):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
    return members


def subset(ts: TrainingSet, indices) -> TrainingSet:
    """A new TrainingSet over the given instance indices, ints or an int
    array, made from the parent's codes.

    The values are the parent's own and are not checked again. Domains
    and classes are re-inferred from the subset, so fitting on a fold never
    sees values that only occur outside it: a numeric domain is the first
    least and greatest value, a nominal one the values present in order of
    first appearance, and the classes the sorted labels present. The codes
    are renumbered to index them.
    """
    if not len(indices):
        raise DataError("empty dataset: no instances")
    part = ts.take(indices)
    n = len(part)
    attributes, codes = [], []
    for spec, column, given in zip(part.attributes, part.codes, part._given):
        if spec.kind == NUMERIC:
            domain = (given[part._rows[column.argmin()]],
                      given[part._rows[column.argmax()]])
        else:
            first = np.full(len(spec.domain), n)
            np.minimum.at(first, column, np.arange(n))
            order = first.argsort()[:np.count_nonzero(first < n)]
            domain = tuple(spec.domain[i] for i in order.tolist())
            column = _renumbered(order, len(spec.domain))[column]
        attributes.append(AttributeSpec(spec.name, spec.kind, domain))
        codes.append(column)
    kept = np.bincount(part.label_codes, minlength=len(ts.classes)).nonzero()[0]
    names = [ts.classes[i] for i in kept.tolist()]
    order = sorted(range(len(names)), key=names.__getitem__)
    labels = _renumbered(kept[order], len(ts.classes), _code_type(len(order)))
    return _from_codes(tuple(attributes), tuple(names[i] for i in order),
                       tuple(codes), labels[part.label_codes], part._given,
                       part._rows)


def _renumbered(order: np.ndarray, count: int, dtype=np.intp) -> np.ndarray:
    """A table from the codes 0, 1, ..., count - 1 to each one's place in
    ``order``; the codes not in ``order``, which no row holds, map to 0."""
    table = np.zeros(count, dtype)
    table[order] = np.arange(len(order))
    return table
