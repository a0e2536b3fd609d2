"""A set's integer codes: where they are made, what they decode to, and the
distinct rows every fit reads from them.

Each set is checked against a reference built from its values alone, as a
set was built before it carried codes: ``take`` picks rows, ``subset``
re-infers domains (first appearance) and classes (sorted), ``apply_map``
bins value by value through ``bin_label``.
"""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancell import DataError, build_training_set, load_csv, save_csv, subset
from plancell.dataset import (NOMINAL, NUMERIC, AttributeSpec, TrainingSet,
                              distinct_rows, shuffled_classes)
from plancell.discretize import apply_map, discretize_supervised, fit_map
from plancell.knn import fit_knn
from plancell.tree import grow

NUMBERS = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -0.0, 0.0, 1.25,
                                                          2**53, -2**53]),
                    st.floats(-1e3, 1e3))
CELLS = {NOMINAL: st.sampled_from(["a", "b", "c", "d"]), NUMERIC: NUMBERS}


@st.composite
def built_sets(draw):
    """0-3 attributes of mixed kinds and 1-25 rows, built from values by
    ``build_training_set`` or read back by ``load_csv``."""
    kinds = draw(st.lists(st.sampled_from([NOMINAL, NUMERIC]), max_size=3))
    rows = draw(st.lists(st.tuples(*[CELLS[k] for k in kinds],
                                   st.sampled_from(["P1", "P2", "P3", "P4"])),
                         min_size=1, max_size=25))
    ts = build_training_set([(f"x{i}", k) for i, k in enumerate(kinds)], rows)
    return load_csv(save_csv(ts)) if draw(st.booleans()) else ts


def reference(attributes, classes, columns, labels):
    """A set built from values, which codes itself on first read."""
    return TrainingSet(tuple(attributes), tuple(classes), tuple(map(tuple, columns)),
                       tuple(labels))


def picked(ts, rows):
    return ([[column[i] for i in rows] for column in ts.columns],
            [ts.labels[i] for i in rows])


def taken(ts, rows):
    return reference(ts.attributes, ts.classes, *picked(ts, rows))


def subset_reference(ts, rows):
    columns, labels = picked(ts, rows)
    attributes = [AttributeSpec(spec.name, spec.kind,
                                (min(column), max(column)) if spec.kind == NUMERIC
                                else tuple(dict.fromkeys(column)))
                  for spec, column in zip(ts.attributes, columns)]
    return reference(attributes, sorted(set(labels)), columns, labels)


def binned_reference(dmap, ts):
    if dmap is None:
        return ts
    attributes = [AttributeSpec(spec.name, NOMINAL, dmap._bins[spec.name][0])
                  if spec.kind == NUMERIC else spec for spec in ts.attributes]
    columns = [[dmap.bin_label(spec.name, v) for v in column]
               for spec, column in zip(ts.attributes, ts.columns)]
    return reference(attributes, ts.classes, columns, ts.labels)


def assert_same_set(ts, expected):
    """``ts`` holds the values and schema of ``expected``, value for value of
    the same type, and its codes decode to them."""
    assert ts == expected
    assert len(ts) == len(expected)
    for mine, theirs in zip(ts.columns + (ts.labels,),
                            expected.columns + (expected.labels,)):
        assert type(mine) is tuple
        assert [type(v) for v in mine] == [type(v) for v in theirs]
    assert_decodes(ts)


def assert_decodes(ts):
    """The codes of ``ts`` are its values: a nominal value's index into its
    domain, a numeric value as a float, a label's index into the classes in
    the smallest unsigned type that holds them."""
    for spec, codes, column in zip(ts.attributes, ts.codes, ts.columns):
        assert len(codes) == len(column)
        if spec.kind == NUMERIC:
            assert codes.dtype == float
            assert codes.tolist() == [float(v) for v in column]
        else:
            assert codes.dtype.kind == "i"
            assert tuple(spec.domain[c] for c in codes.tolist()) == column
    assert ts.label_codes.dtype == np.min_scalar_type(max(len(ts.classes) - 1, 0))
    assert tuple(ts.classes[c] for c in ts.label_codes.tolist()) == ts.labels


@st.composite
def rows_of(draw, ts, min_size=0):
    """Row indices of ``ts``, repeats allowed, as a list or an int array."""
    rows = draw(st.lists(st.integers(0, len(ts) - 1), min_size=min_size,
                         max_size=30))
    return np.array(rows, dtype=np.intp) if draw(st.booleans()) else rows


@st.composite
def chains(draw):
    """A built set and the sets one to four steps of ``take``, ``subset``,
    ``apply_map`` of a map fitted on the set (either mode) and a CV fold
    (a subset, a take of other rows, both binned by the subset's map) make
    from it, each with its reference."""
    ts = draw(built_sets())
    pairs = [(ts, ts)]
    for _ in range(draw(st.integers(1, 4))):
        if not len(ts):
            break
        step = draw(st.sampled_from(["take", "subset", "map", "fold"]))
        if step == "take":
            rows = draw(rows_of(ts))
            made = [(ts.take(rows), taken(ts, rows))]
        elif step == "subset":
            rows = draw(rows_of(ts, min_size=1))
            made = [(subset(ts, rows), subset_reference(ts, rows))]
        else:
            mode = draw(st.sampled_from(["supervised", "unsupervised"]))
            if step == "map":
                dmap = fit_map(ts, mode)
                made = [(apply_map(dmap, ts), binned_reference(dmap, ts))]
            else:
                train = draw(rows_of(ts, min_size=1))
                test = draw(rows_of(ts))
                fold = subset(ts, train)
                dmap = fit_map(fold, mode)
                made = [(fold, subset_reference(ts, train)),
                        (apply_map(dmap, fold),
                         binned_reference(dmap, subset_reference(ts, train))),
                        (apply_map(dmap, ts.take(test)),
                         binned_reference(dmap, taken(ts, test)))]
        pairs += made
        ts = made[-1][0]
    return pairs


@settings(max_examples=200, deadline=None)
@given(chains())
def test_every_set_of_a_chain_decodes_to_its_reference(pairs):
    for ts, expected in pairs:
        assert_same_set(ts, expected)


def counted_rows(ts, labels=True):
    """The reference: the set's (values, label) rows, or its value rows, in
    order of first appearance with their counts."""
    return Counter(zip(*ts.columns, ts.labels) if labels else ts.rows)


@settings(max_examples=200, deadline=None)
@given(chains())
def test_coded_distinct_rows_equal_a_counter_of_rows(pairs):
    for ts, _ in pairs:
        for labels in (True, False):
            firsts, weights, inverse = distinct_rows(ts, labels)
            counted = counted_rows(ts, labels)
            keys = list(zip(*ts.columns, ts.labels) if labels else ts.rows)
            assert [keys[i] for i in firsts.tolist()] == list(counted)
            assert weights.tolist() == list(counted.values())
            place = {key: i for i, key in enumerate(counted)}
            assert inverse.tolist() == [place[key] for key in keys]


def test_distinct_rows_of_wide_sets_renumber_their_keys():
    # 40 attributes of 4 values pack into 80 bits: the key is renumbered
    # before it passes 2**62, and rows equal in every value still meet
    rows = [tuple("abcd"[(i * j) % 4] for j in range(40)) + ("P1",)
            for i in range(12)]
    ts = build_training_set([(f"x{j}", NOMINAL) for j in range(40)], rows * 2)
    firsts, weights, inverse = distinct_rows(ts)
    assert list(counted_rows(ts)) == [ts.rows[i] + ("P1",) for i in firsts]
    assert weights.tolist() == list(counted_rows(ts).values())
    assert inverse.tolist() == [place for _ in (1, 2)
                                for place in inverse[:12].tolist()]


@settings(max_examples=200, deadline=None)
@given(chains())
def test_fit_knn_stores_a_tuple_keyed_references_rows(pairs):
    for ts, _ in pairs:
        if not len(ts):
            continue
        model = fit_knn(ts, 1)
        positions = {}
        places = [positions.setdefault(row, len(positions)) for row in ts.rows]
        first = {}
        for place, label in zip(places, ts.labels):
            first.setdefault(place, label)
        assert model.inverse.tolist() == places
        assert model.labels == tuple(first[p] for p in range(len(positions)))
        stored = [codes.tolist() if spec.kind == NUMERIC
                  else [spec.domain[c] for c in codes.tolist()]
                  for spec, codes in zip(ts.attributes, model.columns)]
        rows = list(zip(*stored)) if stored else [()] * len(model.labels)
        assert rows == list(positions)
        numeric = any(spec.kind == NUMERIC for spec in ts.attributes)
        assert model.positions == (None if numeric else positions)


def hand_set(value="a", label="A"):
    """One nominal attribute of domain ("a", "b"), classes ("A", "B"), and
    the rows a/A, b/B and ``value``/``label``."""
    return TrainingSet((AttributeSpec("x", NOMINAL, ("a", "b")),), ("A", "B"),
                       (("a", "b", value),), ("A", "B", label))


FITS = {"distinct_rows": distinct_rows, "subset": lambda ts: subset(ts, [0, 2]),
        "take": lambda ts: ts.take([2]).codes, "fit_knn": fit_knn,
        "grow": lambda ts: grow(ts, min_leaf=1)}


@pytest.mark.parametrize("fit", FITS)
def test_a_nominal_value_outside_its_domain_is_refused(fit):
    with pytest.raises(DataError, match=re.escape(
            "attribute 'x': instance 2 has value 'z', which is not in its domain")):
        FITS[fit](hand_set(value="z"))


@pytest.mark.parametrize("fit", [*FITS, "shuffled_classes", "supervised fit"])
def test_a_label_outside_the_classes_is_refused(fit):
    fits = {**FITS, "shuffled_classes": lambda ts: shuffled_classes(ts, 0),
            "supervised fit": discretize_supervised}
    with pytest.raises(DataError, match=re.escape(
            "instance 2 has label 'x', which is not one of the classes")):
        fits[fit](hand_set(label="x"))


def test_an_unhashable_value_is_refused_by_name():
    with pytest.raises(DataError, match=re.escape("has value ['a']")):
        hand_set(value=["a"]).codes


def test_subset_renumbers_codes_to_the_folds_first_appearance():
    ts = load_csv("x:nominal,class:nominal\nc,B\na,A\nb,C\na,B\nc,A\n")
    fold = subset(ts, np.array([3, 2, 4]))
    assert fold.attributes[0].domain == ("a", "b", "c")
    assert fold.codes[0].tolist() == [0, 1, 2]
    assert fold.classes == ("A", "B", "C")
    assert fold.label_codes.tolist() == [1, 2, 0]
    assert fold.columns == (("a", "b", "c"),)
