"""Training-set data model and CSV I/O.

A training set is stored by column: one tuple of values per descriptive
attribute plus one tuple of class labels, every reader's layout. A case is
a value sequence; ``rows``, one per row, is a view built on first read.
Attributes are either nominal or numeric; the class column is always the
last one and is named ``class``. Missing cells are a hard parse error.
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
from operator import itemgetter

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
    """One tuple of values per attribute, in order, and one label per row."""

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

    def __len__(self):
        return len(self.labels)

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

    def take(self, indices: list[int]) -> TrainingSet:
        """The rows ``indices`` under this set's own attributes and classes."""
        if len(indices) > 1:
            pick = itemgetter(*indices)
        else:  # itemgetter returns a bare value for one index, and needs one
            pick = lambda seq: tuple([seq[i] for i in indices])
        return TrainingSet(self.attributes, self.classes,
                           tuple(map(pick, self.columns)), pick(self.labels))


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
    members: dict[str, list[int]] = {label: [] for label in ts.classes}
    for i, label in enumerate(ts.labels):
        if label not in members:
            raise DataError(f"instance {i} has label {label!r}, "
                            f"which is not one of the classes")
        members[label].append(i)
    getrandbits = random.Random(seed).getrandbits
    for x in members.values():
        for i in reversed(range(1, len(x))):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
    return list(members.values())


def subset(ts: TrainingSet, indices: list[int]) -> TrainingSet:
    """A new TrainingSet over the given instance indices.

    The values are the parent's own and are not checked again. Domains
    and classes are re-inferred from the subset, so fitting on a fold never
    sees values that only occur outside it.
    """
    if not indices:
        raise DataError("empty dataset: no instances")
    part = ts.take(indices)
    return _with_schema([(a.name, a.kind) for a in ts.attributes],
                        part.columns, part.labels)
