"""One encoding path: ``DiscretizationMap.bin_label`` and the JSON round trips.

Property tests: encoding a case equals the row ``apply_map`` writes and is
idempotent; binning a whole column equals ``bin_label`` value by value; the
tree walk (with and without its majority fallback) and the cellular engine
answer on raw cases as the tree walk does on encoded ones, out-of-range and
unseen values included; the tree walk answers, paths and errors included, as
the walk as first written in ``oracles`` does; models, rule bases and CSV
files survive their round trips unchanged.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancell.casi import classify_casi, compile_tree, kb_from_json, kb_to_json
from plancell.dataset import (NOMINAL, NUMERIC, AttributeSpec, TrainingSet,
                              build_training_set, load_csv, save_csv)
from plancell.discretize import DiscretizationMap, apply_map, fit_map
from plancell.errors import DataError, UnknownValueError
from plancell.tree import (classify_tree, grow, induce, model_from_json,
                           model_to_json)

from oracles import encode, tree_walk

NOMINAL_VALUES = ["a", "b", "c"]
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def training_sets(draw):
    """Mixed numeric/nominal rows; numeric values on a quarter grid in [-5, 5]."""
    kinds = draw(st.lists(st.sampled_from([NUMERIC, NOMINAL]),
                          min_size=1, max_size=4))
    cell = {NUMERIC: st.integers(-20, 20).map(lambda k: k / 4),
            NOMINAL: st.sampled_from(NOMINAL_VALUES)}
    labels = st.sampled_from(["K0", "K1", "K2", "K3"][:draw(st.integers(1, 4))])
    rows = draw(st.lists(st.tuples(*[cell[k] for k in kinds], labels),
                         min_size=2, max_size=40))
    return build_training_set([(f"x{i}", k) for i, k in enumerate(kinds)], rows)


@st.composite
def fitted(draw):
    """A training set, a fitted map, and raw cases around the training range.

    Numeric case values run on an eighth grid over [-8, 8], so they fall
    below, inside and above the training range and can land on cuts;
    nominal ones include a value no training row has.
    """
    ts = draw(training_sets())
    dmap = fit_map(ts, draw(st.sampled_from(["supervised", "unsupervised"])),
                   draw(st.integers(1, 6)))
    cell = {NUMERIC: st.integers(-64, 64).map(lambda k: k / 8),
            NOMINAL: st.sampled_from(NOMINAL_VALUES + ["unseen"])}
    cases = draw(st.lists(st.tuples(*[cell[s.kind] for s in ts.attributes]),
                          min_size=1, max_size=10))
    return ts, dmap, cases


def outcome(classify, values):
    try:
        return classify(values)
    except UnknownValueError:
        return "?"


def trained(ts, dmap, method, seed):
    tree = induce(apply_map(dmap, ts), method, min_leaf=1, seed=seed,
                  discretization=dmap)
    return tree, compile_tree(tree)


@PROPERTY
@given(fitted())
def test_encode_equals_apply_map_and_is_idempotent(case):
    ts, dmap, cases = case
    binned = apply_map(dmap, ts)
    for raw, row in zip(ts.rows, binned.rows):
        assert encode(dmap, ts.attributes, raw) == row
        assert encode(dmap, ts.attributes, row) == row
    for raw in cases:
        once = encode(dmap, ts.attributes, raw)
        assert encode(dmap, ts.attributes, once) == once
        assert encode(None, ts.attributes, raw) == raw


# cuts up to +-2**53, the largest ints a checked set holds, and a float
# beyond them
COLUMN_CUTS = (-2**53, -1.5, 0.0, 2.5, 2**53 - 1, 2**53, 1e300)
EXACT = [-1.5, 0.0, 2.5, 2**53 - 1, float(2**53), float(2**53 + 4), 1e300,
         -2**53, 2**53]


@st.composite
def mixed_columns(draw):
    """A map and a directly built set whose numeric columns hold what a
    checked set holds, floats and ints within +-2**53, and NaN, which a
    case to classify may hold."""
    cuts = tuple(sorted(draw(st.sets(st.sampled_from(COLUMN_CUTS)))))
    number = st.one_of(st.integers(-8, 8), st.integers(-2**53, 2**53),
                       st.sampled_from(EXACT), st.floats(-1e6, 1e6),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.just(math.nan))
    n = draw(st.integers(0, 12))
    columns = [draw(st.lists(number, min_size=n, max_size=n)) for _ in range(2)]
    specs = (AttributeSpec("x0", NUMERIC, (0, 1)),
             AttributeSpec("x1", NUMERIC, (0, 1)),
             AttributeSpec("tag", NOMINAL, ("t",)))
    dmap = DiscretizationMap({"x0": cuts, "x1": cuts[1:]})
    return dmap, TrainingSet(specs, ("K",), (*map(tuple, columns), ("t",) * n),
                             ("K",) * n)


@settings(max_examples=300, deadline=None)
@given(mixed_columns())
def test_column_binning_equals_bin_label_value_for_value(case):
    dmap, ts = case
    binned = apply_map(dmap, ts)
    assert len(binned.rows) == len(ts.rows)
    for raw, row in zip(ts.rows, binned.rows):
        expected = tuple(dmap.bin_label(spec.name, v)
                         for spec, v in zip(ts.attributes, raw))
        # the same object or an equal value of the same type: NaN and the
        # nominal tag pass through as they are
        assert all(a is b or (type(a) is type(b) and a == b)
                   for a, b in zip(row, expected)), (row, expected)
    # each binned value is one of the map's own label strings, and a NaN is
    # the value given
    for name, raw, column in zip(("x0", "x1"), ts.columns, binned.columns):
        own = {id(label) for label in dmap._bins[name][0]}
        for value, binned_value in zip(raw, column):
            if value != value:
                assert binned_value is value
            else:
                assert id(binned_value) in own, (value, binned_value)


def test_a_cut_no_float_holds_is_refused():
    # 2**53 + 3 would round to the float 2**53 + 4, and a float column
    # would bin against a cut that is not the one given
    with pytest.raises(DataError, match="not finite numbers a float holds exactly"):
        DiscretizationMap({"x": (float(2**53), 2**53 + 3)})
    dmap = DiscretizationMap({"x": (-2**53, 0, 2**53)})
    column = (-2**53, 1, 2**53, 2.0**60)
    assert dmap.bin_column("x", column) == ("b0", "b2", "b2", "b3")
    assert dmap.bin_column("x", column) == \
        tuple(dmap.bin_label("x", v) for v in column)


def test_encode_bins_only_numbers_with_cuts(runs11):
    dmap = DiscretizationMap({"steps": (8.0, 11.0)})
    assert encode(dmap, runs11.attributes, ("blocks-4", 0.5, 11.0)) == \
        ("blocks-4", 0.5, "b1")
    assert encode(dmap, runs11.attributes, ("blocks-4", 0.5, 12)) == \
        ("blocks-4", 0.5, "b2")
    # bools, strings and bin labels pass through unchanged
    assert encode(dmap, runs11.attributes, ("x", 0.5, True)) == ("x", 0.5, True)
    assert encode(dmap, runs11.attributes, ("x", 0.5, "b0")) == ("x", 0.5, "b0")


@PROPERTY
@given(fitted(), st.sampled_from(["j48", "reptree"]), st.integers(0, 3))
def test_cellular_engine_on_raw_cases_equals_tree_on_encoded(case, method, seed):
    ts, dmap, cases = case
    tree, kb = trained(ts, dmap, method, seed)
    for raw in cases + list(ts.rows):
        encoded = encode(dmap, ts.attributes, raw)
        expected = outcome(lambda v: classify_tree(tree, v)[0], encoded)
        assert outcome(lambda v: classify_tree(tree, v)[0], raw) == expected
        assert outcome(lambda v: classify_casi(kb, v), raw) == expected
        assert classify_tree(tree, raw, fallback=True) == \
            classify_tree(tree, encoded, fallback=True)


def walked(walk, tree, values, fallback):
    """A walk's (class, path), or the message of its UnknownValueError."""
    try:
        return walk(tree, values, fallback)
    except UnknownValueError as exc:
        return str(exc)


@PROPERTY
@given(fitted(), st.sampled_from(["j48", "reptree"]), st.integers(0, 3))
def test_tree_walk_equals_the_walk_as_first_written(case, method, seed):
    ts, dmap, cases = case
    tree, _ = trained(ts, dmap, method, seed)
    rows = list(ts.rows)
    # each training row with its nominal values unseen and its numbers one
    # training range above the maximum, as the benchmark's out-of-domain copy
    beyond = [tuple(v + (spec.domain[1] - spec.domain[0]) + 1.0
                    if spec.kind == NUMERIC else f"{v}-unseen"
                    for spec, v in zip(ts.attributes, values)) for values in rows]
    for raw in cases + rows + beyond:
        for values in (raw, encode(dmap, ts.attributes, raw)):
            for fallback in (False, True):
                assert walked(classify_tree, tree, values, fallback) == \
                    walked(tree_walk, tree, values, fallback)


class Text(str):
    """A string of a str subclass, as numpy's ``str_`` is."""


@pytest.mark.parametrize("domain,value", [
    (("1", "2"), 1), (("1", "2"), 1.0), (("1", "2"), True), (("1", "2"), "1"),
    (("1", "2"), "3"), (("True", "False"), True), (("1", "2"), ["1"]),
    (("1", "2"), Text("1"))],
    ids=["1", "1.0", "True", "'1'", "'3'", "True on 'True'", "['1']",
         "str subclass '1'"])
def test_both_engines_place_only_equal_values(domain, value):
    # a non-string value never takes the branch its spelling names; an
    # unhashable one takes no branch at all; a string of a str subclass
    # takes the branch of the equal str
    tree = grow(build_training_set([("x", NOMINAL)],
                                   [(v, c) for v, c in zip(domain, "AB")]),
                min_leaf=1)
    expected = "A" if value == domain[0] and isinstance(value, str) else "?"
    assert outcome(lambda v: classify_tree(tree, v)[0], (value,)) == expected
    assert classify_tree(tree, (value,), fallback=True)[0] == (
        tree.root.majority if expected == "?" else expected)
    assert outcome(lambda v: classify_casi(compile_tree(tree), v),
                   (value,)) == expected


@PROPERTY
@given(fitted(), st.sampled_from(["j48", "reptree"]))
def test_model_and_rule_base_json_round_trips(case, method):
    ts, dmap, cases = case
    tree, kb = trained(ts, dmap, method, 0)

    doc = model_to_json(tree)
    rebuilt = model_from_json(json.loads(json.dumps(doc)))
    assert json.dumps(model_to_json(rebuilt)) == json.dumps(doc)
    assert rebuilt.schema.discretization == dmap
    kb_doc = kb_to_json(kb)
    rebuilt_kb = kb_from_json(json.loads(json.dumps(kb_doc)))
    assert json.dumps(kb_to_json(rebuilt_kb)) == json.dumps(kb_doc)
    assert json.dumps(kb_to_json(compile_tree(rebuilt))) == json.dumps(kb_doc)

    for raw in cases + list(ts.rows):
        encoded = encode(dmap, ts.attributes, raw)
        assert outcome(lambda v: classify_tree(rebuilt, v), encoded) == \
            outcome(lambda v: classify_tree(tree, v), encoded)
        assert outcome(lambda v: classify_casi(rebuilt_kb, v), raw) == \
            outcome(lambda v: classify_casi(kb, v), raw)


# nominal cells survive the CSV round trip unless they are empty or padded
CSV_TEXT = st.text(alphabet=list("ab ,\"'x:"), min_size=1) \
    .filter(lambda s: s == s.strip())


@PROPERTY
@given(st.lists(st.sampled_from([NUMERIC, NOMINAL]), min_size=1, max_size=4)
       .flatmap(lambda kinds: st.tuples(st.just(kinds), st.lists(
           st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)
                       if k == NUMERIC else CSV_TEXT for k in kinds],
                     CSV_TEXT), min_size=1, max_size=20))))
def test_csv_round_trip(drawn):
    kinds, rows = drawn
    ts = build_training_set([(f"x{i}", k) for i, k in enumerate(kinds)], rows)
    text = save_csv(ts)
    assert load_csv(text) == ts
    assert save_csv(load_csv(text)) == text
