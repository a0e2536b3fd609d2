import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plancell import (DataError, build_training_set, class_distribution,
                      load_csv, save_csv, subset)
from plancell.dataset import (NOMINAL, NUMERIC, AttributeSpec, Instance,
                              TrainingSet, shuffled_classes)
from plancell.discretize import apply_map, fit_map

from oracles import encode

CSV = """problem:nominal,time:numeric,steps:numeric,class:nominal
blocks-4,0.5,6,P1
blocks-5,0.25,10,P2
blocks-4,0.125,6,P1
"""


def test_load_basic():
    ts = load_csv(CSV)
    assert len(ts) == 3
    assert ts.attribute_names == ("problem", "time", "steps")
    assert ts.classes == ("P1", "P2")
    assert ts.rows[1] == ("blocks-5", 0.25, 10.0)
    assert ts.labels[1] == "P2"


def test_nominal_domain_first_seen_order():
    ts = load_csv("x:nominal,class:nominal\nc,A\na,A\nb,B\na,B\n")
    assert ts.attributes[0].domain == ("c", "a", "b")


def test_numeric_domain_min_max():
    ts = load_csv(CSV)
    assert ts.attributes[1].domain == (0.125, 0.5)
    assert ts.attributes[2].domain == (6.0, 10.0)


def test_round_trip_exact():
    ts = load_csv(CSV)
    again = load_csv(save_csv(ts))
    assert again == ts
    # floats survive another lap byte-identically
    assert save_csv(again) == save_csv(ts)


def test_column_and_value_helpers():
    ts = load_csv(CSV)
    assert ts.columns[2] == (6.0, 10.0, 6.0)


def test_class_distribution():
    assert class_distribution(load_csv(CSV)) == {"P1": 2, "P2": 1}


def test_missing_header():
    with pytest.raises(DataError, match="missing header"):
        load_csv("")


def test_untyped_header_rejected():
    with pytest.raises(DataError, match="bad header column 1"):
        load_csv("problem,class:nominal\nx,P1\n")


def test_last_column_must_be_class():
    with pytest.raises(DataError, match="class:nominal"):
        load_csv("a:nominal,b:nominal\nx,y\n")


def test_ragged_row_rejected():
    with pytest.raises(DataError, match="row 3"):
        load_csv("a:nominal,class:nominal\nx,P1\ny\n")


@pytest.mark.parametrize("columns,rows,message", [
    ([("x", "nominal"), ("y", "nominal")], [("a", "b", "A"), ("c", "B")],
     "row 2: expected 3 cells, got 2"),
    ([("x", "nominal")], [("a", "b", "A")], "row 1: expected 2 cells, got 3"),
], ids=["short", "long"])
def test_built_row_width_checked(columns, rows, message):
    # a short row used to raise IndexError, a long one to build an instance
    # wider than its schema
    with pytest.raises(DataError, match=message):
        build_training_set(columns, rows)


def test_missing_cell_rejected():
    with pytest.raises(DataError, match="column 'a'"):
        load_csv("a:nominal,class:nominal\n,P1\n")


def test_non_numeric_cell_rejected():
    with pytest.raises(DataError, match="non-numeric value 'abc'"):
        load_csv("t:numeric,class:nominal\nabc,P1\n")


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e999"])
def test_non_finite_cell_rejected(cell):
    message = f"row 3: non-finite value '{cell}' in column 't'"
    with pytest.raises(DataError, match=re.escape(message)):
        load_csv(f"t:numeric,class:nominal\n1,P1\n{cell},P2\n")


@pytest.mark.parametrize("header", [False, True])
def test_a_cell_over_the_csv_field_limit_names_its_row(header):
    long = "x" * 200_000
    text = (f"{long}:nominal,class:nominal\na,P1\n" if header
            else f"a:nominal,class:nominal\na,P1\n{long},P2\n")
    with pytest.raises(DataError, match=f"^row {1 if header else 3}: field larger"):
        load_csv(text)


def test_empty_body_rejected():
    with pytest.raises(DataError, match="no instances"):
        load_csv("a:nominal,class:nominal\n")


def test_duplicate_attribute_names_rejected():
    with pytest.raises(DataError, match="duplicate attribute"):
        build_training_set([("a", "nominal"), ("a", "nominal")],
                           [("x", "y", "P1")])
    # a set built directly is refused too, not first at compile_tree
    spec = AttributeSpec("x", "nominal", ("a", "b"))
    with pytest.raises(DataError, match="duplicate attribute names"):
        TrainingSet((spec, spec), ("A", "B"), (("a", "b"), ("a", "b")),
                    ("A", "B"))


def test_unknown_kind_rejected():
    with pytest.raises(DataError, match="unknown kind"):
        build_training_set([("a", "ordinal")], [("x", "P1")])


@pytest.mark.parametrize("name", [5, None, ("a",)])
def test_attribute_name_must_be_a_string(name):
    with pytest.raises(DataError, match="attribute 'name' must be a string"):
        AttributeSpec(name, "nominal", ("x",))


@pytest.mark.parametrize("domain", [(1, 2), ("a", 1), (True,), (None,)])
def test_nominal_values_must_be_strings(domain):
    bad = next(v for v in domain if not isinstance(v, str))
    with pytest.raises(DataError, match=re.escape(
            f"attribute 'x': nominal value {bad!r} is not a string")):
        AttributeSpec("x", "nominal", domain)
    # a tree over int values would write a model its own loader refuses
    with pytest.raises(DataError, match="nominal value"):
        build_training_set([("x", "nominal")], [(v, "A") for v in domain])


@pytest.mark.parametrize("domain", [
    ("a", None, 3), (), (1.0,), (0.0, 1.0, 2.0), ("0", "1"), (True, 1),
    (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0), (0, 2**53 + 1)])
def test_numeric_domain_must_be_a_finite_min_max_pair(domain):
    with pytest.raises(DataError, match=re.escape(
            f"attribute 'x': numeric domain {domain!r} is not a finite "
            f"(min, max) pair")):
        AttributeSpec("x", "numeric", domain)
    assert AttributeSpec("x", "numeric", (-2**53, 2.5)).domain == (-2**53, 2.5)


@pytest.mark.parametrize("labels", [(1, 2), ("A", 1), ("A", None)])
def test_class_labels_must_be_strings(labels):
    bad = next(v for v in labels if not isinstance(v, str))
    with pytest.raises(DataError,
                       match=re.escape(f"class label {bad!r} is not a string")):
        build_training_set([("x", "nominal")],
                           [("a", label) for label in labels])


@pytest.mark.parametrize("value", ["a", True, None, math.nan, math.inf,
                                   pytest.param(10**400, id="10**400"),
                                   pytest.param(10**308, id="10**308"),
                                   pytest.param(2**53 + 1, id="2**53+1"),
                                   pytest.param(-(2**53 + 1), id="-(2**53+1)")])
def test_numeric_values_must_be_finite_numbers(value):
    # a numeric column of strings used to get a string domain, and fitting
    # cuts on it a raw TypeError
    with pytest.raises(DataError, match=re.escape(
            f"attribute 'x': {value!r} is not a finite number a float holds exactly")):
        build_training_set([("x", "numeric")],
                           [(1.0, "A"), (value, "B"), (3, "A")])


def test_subset_reinfers_domains():
    ts = load_csv(CSV)
    sub = subset(ts, [0, 2])
    assert sub.classes == ("P1",)
    assert sub.attributes[0].domain == ("blocks-4",)
    assert sub.attributes[1].domain == (0.125, 0.5)
    assert len(sub) == 2


def test_subset_schema_equals_building_from_its_rows():
    ts = load_csv(CSV + "blocks-6,0.75,14,P3\nblocks-5,0.5,10,P2\n")
    columns = [(a.name, a.kind) for a in ts.attributes]
    for indices in ([0], [1, 3], [4, 2, 0], [3, 1, 4, 2], list(range(5))):
        sub = subset(ts, indices)
        built = build_training_set(columns, [
            ts.rows[i] + (ts.labels[i],) for i in indices])
        assert sub == built
        # the subset holds the parent's own values
        for mine, parents in zip(sub.columns + (sub.labels,),
                                 ts.columns + (ts.labels,)):
            assert all(v is parents[i] for v, i in zip(mine, indices))


def test_subset_of_no_rows_is_refused():
    with pytest.raises(DataError, match="no instances"):
        subset(load_csv(CSV), [])


def test_subset_keeps_instance_order():
    ts = load_csv(CSV)
    sub = subset(ts, [2, 0])
    assert [row[1] for row in sub.rows] == [0.125, 0.5]


def test_training_set_checks_its_shape(runs11):
    # one column per attribute ...
    with pytest.raises(DataError, match="2 columns for 3 attributes"):
        TrainingSet(runs11.attributes, runs11.classes, runs11.columns[:2],
                    runs11.labels)
    # ... each as long as the labels
    short = runs11.columns[:2] + (runs11.columns[2][:-1],)
    with pytest.raises(DataError, match="column 'steps': 10 values, 11 labels"):
        TrainingSet(runs11.attributes, runs11.classes, short, runs11.labels)


def test_a_set_without_attributes():
    text = "class:nominal\nP1\nP2\nP1\n"
    ts = load_csv(text)
    assert save_csv(ts) == text
    assert len(ts) == 3
    assert ts.instances == (Instance((), "P1"), Instance((), "P2"),
                            Instance((), "P1"))


@pytest.mark.parametrize("bad", ["", " a", "a ", "\ta", "a\n"])
@pytest.mark.parametrize("column", [0, 1])
def test_values_csv_cannot_read_back_are_refused(bad, column):
    # load_csv strips every cell and refuses an empty one, so such a value
    # would read back as another value, or not at all
    rows = [("a", "P1"), ("b", "P2")]
    rows[1] = (bad, "P2") if column == 0 else ("b", bad)
    what = "attribute 'x': nominal value" if column == 0 else "class label"
    with pytest.raises(DataError, match=re.escape(f"{what} {bad!r}")):
        build_training_set([("x", "nominal")], rows)


@st.composite
def row_sets(draw):
    """0-3 attributes of mixed kinds and 1-20 rows over them."""
    kinds = draw(st.lists(st.sampled_from([NOMINAL, NUMERIC]), max_size=3))
    cell = {NOMINAL: st.sampled_from(["a", "b c", "d,e", 'f"g', "b0"]),
            NUMERIC: st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3))}
    rows = draw(st.lists(st.tuples(*[cell[k] for k in kinds],
                                   st.sampled_from(["P1", "P2", "P3"])),
                         min_size=1, max_size=20))
    return [(f"x{i}", k) for i, k in enumerate(kinds)], rows


def assert_rows(ts, rows):
    """The row views of ``ts`` are ``rows``, and each column is its values."""
    assert ts.rows == tuple(tuple(r[:-1]) for r in rows)
    assert ts.instances == tuple(Instance(tuple(r[:-1]), r[-1]) for r in rows)
    for i, column in enumerate(ts.columns):
        assert column == tuple(row[i] for row in ts.rows)
    assert all(type(column) is tuple for column in ts.columns + (ts.labels,))


@settings(max_examples=150, deadline=None)
@given(row_sets(), st.data())
def test_columns_agree_with_the_row_model(case, data):
    specs, rows = case
    ts = build_training_set(specs, rows)
    assert_rows(ts, rows)
    assert_rows(load_csv(save_csv(ts)), rows)
    indices = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=25))
    assert_rows(ts.take(indices), [rows[i] for i in indices])
    if indices:
        assert_rows(subset(ts, indices), [rows[i] for i in indices])
    for mode in ("supervised", "unsupervised"):
        dmap = fit_map(ts, mode)
        assert_rows(apply_map(dmap, ts),
                    [encode(dmap, ts.attributes, r[:-1]) + r[-1:] for r in rows])


def class_sizes_set(sizes, order=None):
    """A one-attribute set with ``sizes[c]`` rows of class ``c`` (none for
    size 0), its rows in the class order ``order``, or dealt round-robin."""
    if order is None:
        order = [c for k in range(max(sizes)) for c, n in enumerate(sizes)
                 if k < n]
    classes = tuple(f"c{c}" for c in range(len(sizes)))
    labels = tuple(classes[c] for c in order)
    return TrainingSet((AttributeSpec("x", NOMINAL, ("a",)),), classes,
                       (("a",) * len(labels),), labels)


@st.composite
def labelled_sets(draw):
    """Up to four classes of 0-140 rows each, rows in any class order."""
    sizes = draw(st.lists(st.integers(0, 140), min_size=1, max_size=4))
    order = draw(st.permutations(
        [c for c, n in enumerate(sizes) for _ in range(n)]))
    return class_sizes_set(sizes, order)


def stdlib_shuffled_classes(ts, seed):
    rng = random.Random(seed)
    members = []
    for label in ts.classes:
        indices = [i for i, y in enumerate(ts.labels) if y == label]
        rng.shuffle(indices)
        members.append(indices)
    return members


# Classes of 0, 1, 2, 64 and 65 members: a size just above a power of two
# makes the redraw loop run.
@settings(max_examples=150, deadline=None)
@given(labelled_sets(), st.integers(0, 2**40))
@example(class_sizes_set([0, 1, 2, 64, 65]), 0)
@example(class_sizes_set([65, 64, 2, 1, 0]), 17)
def test_shuffled_classes_is_the_stdlib_shuffle(ts, seed):
    assert shuffled_classes(ts, seed) == stdlib_shuffled_classes(ts, seed)
