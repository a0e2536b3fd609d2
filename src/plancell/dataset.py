"""Training-set data model and CSV I/O.

A training set is a list of instances, each carrying one value per
descriptive attribute plus a class label. Attributes are either nominal
or numeric; the class column is always the last one and is named
``class``. Missing cells are a hard parse error.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections import Counter
from dataclasses import dataclass

from .errors import DataError

NOMINAL = "nominal"
NUMERIC = "numeric"
CLASS_ATTRIBUTE = "class"


@dataclass(frozen=True)
class AttributeSpec:
    """One descriptive attribute: its name, kind, and observed domain.

    For nominal attributes ``domain`` is the list of values, all strings,
    in first-seen order; for numeric attributes it is the observed
    ``(min, max)`` pair. The name may not be ``class`` nor contain ``=``:
    rule bases spell a fact ``name=value`` and the class fact
    ``class=label``, so either would let two facts share one descriptor.
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


@dataclass(frozen=True)
class Instance:
    """One labelled case: a value per attribute plus its class."""

    values: tuple
    label: str


@dataclass(frozen=True)
class TrainingSet:
    attributes: tuple[AttributeSpec, ...]
    classes: tuple[str, ...]
    instances: tuple[Instance, ...]

    def __post_init__(self):
        # a rule base spells a fact name=value: one name, one attribute
        if len(set(self.attribute_names)) != len(self.attributes):
            raise DataError("duplicate attribute names")

    def __len__(self):
        return len(self.instances)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def attribute(self, name: str) -> AttributeSpec:
        for spec in self.attributes:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def column(self, name: str) -> list:
        """All values of one attribute, in instance order."""
        idx = self.attribute_names.index(name)
        return [inst.values[idx] for inst in self.instances]


def case_values(case, width: int) -> tuple:
    """The values of an Instance or a plain value sequence, as a tuple;
    DataError unless there are ``width`` of them, one per attribute."""
    values = case.values if isinstance(case, Instance) else tuple(case)
    if len(values) != width:
        raise DataError(
            f"case has {len(values)} values, the schema width is {width}")
    return values


def is_number(v) -> bool:
    """An int or a float, bools excluded."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """A number a float holds finitely: what a numeric attribute or a cut
    point may be. The comparison is exact, so a huge int does not raise."""
    return is_number(v) and abs(v) <= sys.float_info.max


def build_training_set(columns: list[tuple[str, str]], rows: list[tuple]) -> TrainingSet:
    """Assemble a TrainingSet from descriptive ``(name, kind)`` column specs.

    Each row is the attribute values followed by the class label: one more
    cell than there are columns, or DataError. Nominal domains are taken in
    first-seen order; numeric domains are the observed min/max, and numeric
    values must be finite ints or floats. Classes are the sorted set of
    labels that occur.
    """
    if not rows:
        raise DataError("empty dataset: no instances")
    for n, row in enumerate(rows, 1):
        if len(row) != len(columns) + 1:
            raise DataError(f"row {n}: expected {len(columns) + 1} cells, got {len(row)}")
    for col, (name, kind) in enumerate(columns):
        if kind == NUMERIC:
            for row in rows:
                if not is_finite_number(row[col]):
                    raise DataError(
                        f"attribute {name!r}: {row[col]!r} is not a finite number")
        elif kind != NOMINAL:
            raise DataError(f"attribute {name!r}: unknown kind {kind!r}")
    instances = tuple(Instance(tuple(row[:-1]), row[-1]) for row in rows)
    for label in dict.fromkeys(inst.label for inst in instances):
        if not isinstance(label, str):
            raise DataError(f"class label {label!r} is not a string")
    return _with_schema(columns, instances)


def _with_schema(columns, instances: tuple[Instance, ...]) -> TrainingSet:
    """A TrainingSet over checked instances, its domains and classes
    inferred from them as ``build_training_set`` documents."""
    specs = []
    for col, (name, kind) in enumerate(columns):
        values = [inst.values[col] for inst in instances]
        domain = ((min(values), max(values)) if kind == NUMERIC
                  else tuple(dict.fromkeys(values)))
        specs.append(AttributeSpec(name, kind, domain))
    classes = tuple(sorted(dict.fromkeys(inst.label for inst in instances)))
    return TrainingSet(tuple(specs), classes, instances)


def load_csv(text: str) -> TrainingSet:
    """Parse a training set from CSV text.

    The header declares each column as ``name:kind``; the last column must
    be ``class:nominal``. Numeric cells must parse as finite floats, and every
    row must have exactly as many cells as the header.
    """
    reader = csv.reader(io.StringIO(text))
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
    for inst in ts.instances:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in inst.values]
                        + [inst.label])
    return out.getvalue()


def class_distribution(ts: TrainingSet) -> dict[str, int]:
    """Count instances per class label."""
    return dict(Counter(inst.label for inst in ts.instances))


def class_members(ts: TrainingSet) -> dict[str, list[int]]:
    """Instance indices per class, in ``ts.classes`` and index order (one pass)."""
    members: dict[str, list[int]] = {label: [] for label in ts.classes}
    for i, inst in enumerate(ts.instances):
        if inst.label not in members:
            raise DataError(f"instance {i} has label {inst.label!r}, "
                            f"which is not one of the classes")
        members[inst.label].append(i)
    return members


def subset(ts: TrainingSet, indices: list[int]) -> TrainingSet:
    """A new TrainingSet over the given instance indices.

    The instances are the parent's own and are not checked again. Domains
    and classes are re-inferred from the subset, so fitting on a fold never
    sees values that only occur outside it.
    """
    instances = tuple(ts.instances[i] for i in indices)
    if not instances:
        raise DataError("empty dataset: no instances")
    return _with_schema([(a.name, a.kind) for a in ts.attributes], instances)
