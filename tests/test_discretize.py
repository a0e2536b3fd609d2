import argparse
import json
import math
import random
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _boundary_candidates, encode, mdl_cuts
from plancell import cli, discretize, evaluation
from plancell.casi import compile_tree, kb_from_json, kb_to_json
from plancell.dataset import (NOMINAL, AttributeSpec, TrainingSet,
                              build_training_set, subset)
from plancell.discretize import (MODES, DiscretizationMap, Schema, _candidates,
                                 _coded_labels, _mdl_split, apply_map,
                                 discretize_supervised,
                                 discretize_unsupervised, entropy, fit_map,
                                 fit_supervised_maps)
from plancell.errors import DataError, ModelIntegrityError
from plancell.tree import grow, model_from_json, model_to_json


def column_set(values, labels):
    """A set of one numeric column, ``values`` as they are, and ``labels``."""
    return build_training_set([("x", "numeric")], list(zip(values, labels)))


def boundary_candidates(pairs):
    """The cut candidates the MDL fit finds for (value, label) rows in any
    order."""
    ts = column_set([v for v, _ in pairs], [y for _, y in pairs])
    codes, firsts, _ = _coded_labels(ts.label_codes, len(ts.classes))
    return _candidates(ts.codes[0], codes, firsts)[0].tolist()


def numeric_set(values, labels):
    rows = [(float(v), y) for v, y in zip(values, labels)]
    return build_training_set([("x", "numeric")], rows)


def assert_batched_cuts(ts, values, labels, cuts):
    """The batched pass of ``fit_supervised_maps`` (``_mdl_steps``) gives
    the column ``ts`` of ``values`` and ``labels`` the cuts ``cuts`` beside
    the cuts of its first rows, which the oracle checks: the shorter range
    is padded in the steps both are screened in."""
    head = len(values) // 2 + 1
    with patch.object(discretize, "_SHARED_WIDTH", len(ts)):
        whole, part = fit_supervised_maps(
            ts, [np.arange(len(ts)), np.arange(head)])
    assert list(map(repr, whole.cuts["x"])) == list(map(repr, cuts))
    assert list(map(repr, part.cuts["x"])) == \
        list(map(repr, mdl_cuts(values[:head], labels[:head])))


def test_equal_width_cut_spacing(runs11):
    dmap = discretize_unsupervised(runs11, bins=10)
    cuts = dmap.cuts["time"]
    assert len(cuts) == 9
    steps = [b - a for a, b in zip(cuts, cuts[1:])]
    for step in steps:
        assert step == pytest.approx(0.0750434, abs=1e-6)
    lo, hi = runs11.attributes[1].domain
    assert cuts[0] == pytest.approx(lo + (hi - lo) / 10)


def test_equal_width_steps_cuts(runs11):
    cuts = discretize_unsupervised(runs11, bins=10).cuts["steps"]
    assert cuts == tuple(pytest.approx(6 + 0.6 * k) for k in range(1, 10))


def test_constant_column_gets_no_cuts():
    ts = numeric_set([5, 5, 5], ["A", "B", "A"])
    assert discretize_unsupervised(ts, bins=10).cuts["x"] == ()


def test_equal_width_cuts_of_a_range_a_few_ulps_wide():
    # lo + k * width rounds onto lo, the next float or hi: repeats drop
    ts = numeric_set([1.0, 1.0000000000000004], ["A", "B"])
    assert discretize_unsupervised(ts, bins=10).cuts["x"] == (
        1.0, 1.0000000000000002, 1.0000000000000004)


def test_equal_width_cuts_of_a_range_whose_width_overflows():
    ts = numeric_set([-1e308, 1e308], ["A", "B"])
    assert discretize_unsupervised(ts, bins=2).cuts["x"] == (0.0,)
    cuts = discretize_unsupervised(ts, bins=10).cuts["x"]
    assert cuts == tuple(pytest.approx(k * 2e307) for k in range(-4, 5))
    assert list(cuts) == sorted(set(cuts))


def test_bins_must_be_positive(runs11):
    with pytest.raises(DataError, match="bins"):
        discretize_unsupervised(runs11, bins=0)


def test_nominal_attributes_not_mapped(runs11):
    dmap = discretize_unsupervised(runs11, bins=4)
    assert set(dmap.cuts) == {"time", "steps"}


def test_supervised_textbook_case():
    ts = numeric_set([1, 2, 9, 10], ["A", "A", "B", "B"])
    assert discretize_supervised(ts).cuts["x"] == (5.5,)


def test_supervised_runs_cuts(runs11):
    cuts = discretize_supervised(runs11).cuts
    assert cuts["steps"] == (8.0, 11.0)
    assert cuts["time"] == ()


def test_boundary_candidates_are_midpoints():
    pairs = [(1.0, "A"), (2.0, "A"), (2.0, "B"), (4.0, "B"), (7.0, "C")]
    assert boundary_candidates(pairs) == [1.5, 3.0, 5.5]


def test_boundary_candidates_skip_same_class_runs():
    pairs = [(1.0, "A"), (2.0, "A"), (3.0, "A")]
    assert boundary_candidates(pairs) == []


def test_boundary_candidate_whose_sum_overflows_is_half_of_each_value():
    pairs = [(1e308, "A")] * 20 + [(1.7e308, "B")] * 20
    assert boundary_candidates(pairs) == [1.35e308]
    ts = numeric_set([v for v, _ in pairs], [y for _, y in pairs])
    assert discretize_supervised(ts).cuts["x"] == (1.35e308,)
    negated = [(-v, y) for v, y in pairs]
    assert boundary_candidates(negated) == [-1.35e308]
    assert _boundary_candidates(sorted(pairs)) == [1.35e308]


def test_int_column_a_float_cannot_hold_is_refused():
    # +-2**53 are the largest ints a float holds exactly; 10**308 is within
    # the float range, but no float holds it exactly (the float form of the
    # column, 1e308 and 1.7e308, is covered above)
    ts = build_training_set([("x", "numeric")], [(-2**53, "A"), (2**53, "B")] * 2)
    assert discretize_supervised(ts).cuts["x"] == (0.0,)
    rows = [(10**308, "A"), (10**308 + 7 * 10**307, "B"), (0, "A")]
    with pytest.raises(DataError, match="is not a finite number a float holds exactly"):
        build_training_set([("x", "numeric")], rows)


def entropy_of(labels):
    counts = Counter(labels)
    n = len(labels)
    return -sum(c / n * math.log2(c / n) for c in counts.values())


def split_score(pairs, cut):
    left = [y for v, y in pairs if v <= cut]
    right = [y for v, y in pairs if v > cut]
    n = len(pairs)
    return len(left) / n * entropy_of(left) + len(right) / n * entropy_of(right)


def test_accepted_cuts_achieve_the_brute_force_minimum():
    # cuts must sit on class-boundary midpoints, and the best of them
    # must score as well as an exhaustive scan of every midpoint
    rng = random.Random(41)
    nonempty = 0
    for _ in range(25):
        n = rng.randint(8, 30)
        values = [rng.randint(0, 12) for _ in range(n)]
        t1, t2 = sorted(rng.sample(range(1, 12), 2))
        labels = ["A" if v < t1 else "B" if v < t2 else "C" for v in values]
        flip = rng.randrange(n)
        labels[flip] = rng.choice("ABC")
        cuts = discretize_supervised(numeric_set(values, labels)).cuts["x"]
        pairs = sorted(zip((float(v) for v in values), labels))
        assert set(cuts) <= set(boundary_candidates(pairs))
        if not cuts:
            continue
        nonempty += 1
        distinct = sorted({v for v, _ in pairs})
        brute = min(split_score(pairs, (a + b) / 2.0)
                    for a, b in zip(distinct, distinct[1:]))
        assert min(split_score(pairs, c) for c in cuts) == \
            pytest.approx(brute, abs=1e-9)
    assert nonempty > 5


def test_bin_label_value_on_cut_goes_left():
    dmap = DiscretizationMap({"x": (2.0, 4.0)})
    assert dmap.bin_label("x", 1.9) == "b0"
    assert dmap.bin_label("x", 2.0) == "b0"
    assert dmap.bin_label("x", 2.1) == "b1"
    assert dmap.bin_label("x", 4.0) == "b1"
    assert dmap.bin_label("x", 4.1) == "b2"
    assert dmap.bin_label("x", 5.0) == "b2"
    binned = apply_map(dmap, numeric_set([1.0, 5.0], ["A", "B"]))
    assert binned.attributes[0].domain == ("b0", "b1", "b2")


def test_bin_label_passes_nan_through():
    dmap = DiscretizationMap({"x": (2.0, 4.0), "e": ()})
    for name in ("x", "e"):
        value = dmap.bin_label(name, math.nan)
        assert isinstance(value, float) and math.isnan(value)
    assert dmap.bin_label("x", -math.inf) == "b0"
    assert dmap.bin_label("x", math.inf) == "b2"


def test_cuts_must_be_strictly_increasing():
    with pytest.raises(DataError, match="strictly increasing"):
        DiscretizationMap({"x": (2.0, 2.0)})
    with pytest.raises(DataError, match="strictly increasing"):
        DiscretizationMap({"x": (3.0, 1.0)})
    # a NaN cut orders against nothing; it is refused as not finite
    for cuts in [(math.nan,), (1.0, math.nan)]:
        with pytest.raises(DataError, match="not finite numbers"):
            DiscretizationMap({"x": cuts})


@pytest.mark.parametrize("cut", [math.inf, -math.inf, math.nan, 10**400, "8", True,
                                 2**53 + 1, -(2**53 + 1)],
                         ids=["inf", "-inf", "nan", "10**400", "'8'", "True",
                              "2**53+1", "-(2**53+1)"])
def test_cuts_must_be_finite_numbers(cut):
    # a map built in code refuses what a model file may not hold
    with pytest.raises(DataError, match="cuts for 'x' are not finite numbers"):
        DiscretizationMap({"x": (cut,)})


def test_cuts_of_a_built_map_cannot_change():
    # a cut set after the check would pass it by, and the cached bin
    # labels would no longer match the cuts
    cuts = {"x": [1.0]}
    dmap = DiscretizationMap(cuts)
    assert dmap.bin_label("x", 2.0) == "b1"
    with pytest.raises(TypeError):
        dmap.cuts["x"] = (math.inf, 5.0)
    cuts["x"].append(3.0)
    cuts["y"] = (0.0,)
    assert dmap.cuts == {"x": (1.0,)} and dmap.bin_label("x", 2.0) == "b1"
    assert dmap == DiscretizationMap({"x": (1.0,)})
    schema = Schema((AttributeSpec("x", NOMINAL, ("b0", "b1")),), (), dmap)
    assert schema.to_json()["discretization"] == {"x": [1.0]}


CUT_LISTS = st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.integers(-2**53, 2**53)),
    max_size=5).map(lambda cs: tuple(sorted(set(cs))))


def json_copy(doc):
    return json.loads(json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(["x", "y", "z"]), CUT_LISTS, max_size=3),
       st.lists(st.sampled_from(["b0", "b1", "b2", "b3", "c"]), min_size=1,
                unique=True))
def test_every_map_the_constructor_accepts_round_trips_through_model_files(
        cuts, domain):
    dmap = DiscretizationMap(cuts)
    raw = build_training_set([("n", "nominal"), *((a, "numeric") for a in cuts)],
                             [("u", *[0.0] * len(cuts), "A"),
                              ("v", *[1.0] * len(cuts), "B")])
    ts = apply_map(dmap, raw)
    tree = grow(ts, min_leaf=1, discretization=dmap)
    model_doc, kb_doc = model_to_json(tree), kb_to_json(compile_tree(tree))
    model = model_from_json(json_copy(model_doc))
    kb = kb_from_json(json_copy(kb_doc))
    assert model.schema == kb.schema == tree.schema
    assert model.schema.discretization.cuts == dmap.cuts
    # a drawn domain in place of the first binned attribute's bins b0..bk:
    # the set, the model file and the rule-base file are refused unless the
    # domain is exactly those bins
    if not cuts or domain == list(ts.attributes[1].domain):
        return
    specs = list(ts.attributes)
    specs[1] = AttributeSpec(specs[1].name, NOMINAL, tuple(domain))
    with pytest.raises(DataError, match="is not its bins"):
        grow(TrainingSet(tuple(specs), ts.classes, ts.columns, ts.labels),
             min_leaf=1, discretization=dmap)
    for doc, load in ((model_doc, model_from_json), (kb_doc, kb_from_json)):
        doc = json_copy(doc)
        doc["attributes"][1]["domain"] = domain
        with pytest.raises(ModelIntegrityError, match="is not its bins"):
            load(doc)


def test_apply_map_rewrites_numeric_columns(runs11):
    dmap = discretize_supervised(runs11)
    binned = apply_map(dmap, runs11)
    problem, time, steps = binned.attributes
    assert binned.attribute_names == ("problem", "time", "steps")
    assert steps.kind == "nominal"
    assert steps.domain == ("b0", "b1", "b2")
    assert time.domain == ("b0",)
    assert problem == runs11.attributes[0]
    assert binned.classes == runs11.classes
    assert binned.labels == runs11.labels
    for raw, cooked in zip(runs11.rows, binned.rows):
        assert cooked[0] == raw[0]
        assert cooked[2] == dmap.bin_label("steps", raw[2])


def test_apply_map_requires_full_coverage(runs11):
    dmap = DiscretizationMap({"time": (0.1,)})
    with pytest.raises(DataError, match="steps"):
        apply_map(dmap, runs11)


def test_apply_map_bin_domain_lists_every_bin():
    ts = numeric_set([1, 2, 3], ["A", "B", "A"])
    dmap = DiscretizationMap({"x": (0.0, 10.0, 20.0)})
    binned = apply_map(dmap, ts)
    assert binned.attributes[0].domain == ("b0", "b1", "b2", "b3")
    assert [row[0] for row in binned.rows] == ["b1", "b1", "b1"]


def test_fit_map_dispatch(runs11):
    assert fit_map(runs11, "supervised").cuts == discretize_supervised(runs11).cuts
    assert fit_map(runs11, "unsupervised", bins=5).cuts == \
        discretize_unsupervised(runs11, 5).cuts
    with pytest.raises(DataError, match="mode"):
        fit_map(runs11, "semi")
    # a set without numeric attributes gets no map, but bins are still checked
    nominal = build_training_set([("x", "nominal")], [("a", "A"), ("b", "B")])
    assert fit_map(nominal, "supervised") is None
    assert fit_map(nominal, "unsupervised") is None
    with pytest.raises(DataError, match="bins"):
        fit_map(nominal, "unsupervised", bins=0)


def test_mode_none_fits_no_map_and_applying_it_changes_nothing(runs11):
    assert fit_map(runs11, "none") is None
    assert apply_map(None, runs11) is runs11
    values = runs11.rows[0]
    assert encode(None, runs11.attributes, values) == values


def test_every_module_reads_the_one_mode_tuple():
    parser = cli._build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert MODES == ("supervised", "unsupervised", "none")
    assert evaluation.MODES is MODES
    for command, option in (("train", "--discretize"), ("knn", "--mode")):
        assert commands[command]._option_string_actions[option].choices is MODES


# --- the one-pass MDL search against the quadratic oracle -------------------

LABELS = "ABCDEFGHIJKL"


@st.composite
def labelled_columns(draw):
    """A numeric column with labels: duplicates, near-equal floats, few or
    many classes, labels that follow the value (so cuts get accepted) or not.
    """
    n = draw(st.integers(2, 60))
    k = draw(st.integers(1, len(LABELS)))
    kind = draw(st.sampled_from(["few", "many", "ulps", "wide"]))
    if kind == "few":
        values = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    elif kind == "many":
        values = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    elif kind == "ulps":
        # adjacent floats: a midpoint can round onto either neighbour
        base = draw(st.floats(-1e6, 1e6, allow_nan=False))
        values = []
        for steps in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)):
            v = base
            for _ in range(steps):
                v = math.nextafter(v, math.inf)
            values.append(v)
    else:
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=n, max_size=n))
    values = [float(v) for v in values]
    return values, draw_labels(draw, values, k)


def draw_labels(draw, values, k, names=LABELS):
    """Labels from the first ``k`` of ``names``: at random, or following the
    value's rank (so cuts get accepted) with a few redrawn."""
    n = len(values)
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(names[:k]), min_size=n, max_size=n))
    order = sorted(range(n), key=lambda i: values[i])
    labels = [""] * n
    for rank, i in enumerate(order):
        labels[i] = names[rank * k // n]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        labels[i] = draw(st.sampled_from(names[:k]))
    return labels


@settings(max_examples=300, deadline=None)
@given(labelled_columns())
def test_mdl_cuts_equal_the_quadratic_oracle(column):
    values, labels = column
    ts = numeric_set(values, labels)
    got = discretize_supervised(ts).cuts["x"]
    assert got == mdl_cuts(values, labels)
    assert set(got) <= set(boundary_candidates(sorted(zip(values, labels))))
    assert_batched_cuts(ts, values, labels, got)


@st.composite
def int_columns(draw):
    """A numeric column of ints: small ones, ones up to +-2**53 (the largest
    a checked set holds, each one a float holds exactly) among floats around
    and beyond it, or small ints some of which are floats of equal value (3
    and 3.0)."""
    n = draw(st.integers(2, 60))
    k = draw(st.integers(1, len(LABELS)))
    kind = draw(st.sampled_from(["small", "huge", "mixed"]))
    if kind == "small":
        values = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    elif kind == "huge":
        base = draw(st.sampled_from([2**53, -2**53]))
        inward = -1 if base > 0 else 1
        values = draw(st.lists(st.one_of(
            st.integers(0, 8).map(lambda d: base + inward * d),
            st.integers(-4, 4).map(lambda d: float(base + 2 * d)),
            st.integers(-5, 5)), min_size=n, max_size=n))
    else:
        values = [float(v) if as_float else v for v, as_float in draw(st.lists(
            st.tuples(st.integers(0, 6), st.booleans()), min_size=n, max_size=n))]
    return values, draw_labels(draw, values, k)


@settings(max_examples=300, deadline=None)
@given(int_columns())
def test_mdl_cuts_equal_the_quadratic_oracle_on_int_columns(column):
    values, labels = column
    ts = build_training_set([("x", "numeric")], list(zip(values, labels)))
    got = discretize_supervised(ts).cuts["x"]
    assert list(map(repr, got)) == list(map(repr, mdl_cuts(values, labels)))
    assert_batched_cuts(ts, values, labels, got)
    pairs = sorted(zip(values, labels))
    assert list(map(repr, boundary_candidates(pairs))) == \
        list(map(repr, _boundary_candidates(pairs)))


@pytest.mark.parametrize("values, labels", [
    ([0, 1], ["A", "B"]),                       # two rows
    ([3, 3], ["A", "B"]),                       # two rows, one value
    ([0, 1, 2, 3], ["A", "A", "A", "A"]),       # one class
    ([0, 1, 2, 3, 4, 5], list("ABCDEF")),       # a class per row
    ([0, 0, 1, 1, 2, 2, 3, 3], list("AABBBBAA")),   # mirror-image cuts tie
    ([1, 1, 2, 2, 2, 9, 9, 9, 10, 10], list("AABABBBABB")),
    # the last midpoint rounds onto the largest value: nothing goes right
    ([1.0, 1.0000000000000002, 1.0000000000000004] * 4, list("ABBABBAABBBA")),
    # the first midpoint's sum overflows: it is half of each value instead
    ([0.0] * 9 + [-8.881489377429503e+293, -1.797693134862307e+308,
                  -1.797693134862307e+308], list("CCDEEFGGHBAA")),
])
def test_mdl_cuts_equal_the_oracle_on_edge_cases(values, labels):
    values = [float(v) for v in values]
    ts = numeric_set(values, labels)
    got = discretize_supervised(ts).cuts["x"]
    assert got == mdl_cuts(values, labels)
    assert_batched_cuts(ts, values, labels, got)


def test_tied_splits_keep_the_first_cut():
    # mirror-image cuts at 19.5 and 39.5 score the same; the first is
    # taken first, then the second splits the right-hand side
    values = [float(v) for v in range(60)]
    labels = ["A"] * 20 + ["B"] * 20 + ["A"] * 20
    pairs = sorted(zip(values, labels))
    assert split_score(pairs, 19.5) == split_score(pairs, 39.5)
    found = []
    ts = column_set(values, labels)
    codes, firsts, table = _coded_labels(ts.label_codes, len(ts.classes))
    _mdl_split(_candidates(ts.codes[0], codes, firsts), len(firsts), table,
               found)
    assert found == [19.5, 39.5]
    assert tuple(found) == mdl_cuts(values, labels)
    assert_batched_cuts(ts, values, labels, (19.5, 39.5))


# --- the sorted pairs and candidates against one np.lexsort ----------------

@st.composite
def coded_columns(draw):
    """A column and its labels, drawn from a seed: small ints with ties,
    ints mixed with floats of equal value (3 and 3.0), -0.0 beside 0.0,
    adjacent floats (a midpoint can round onto either neighbour) or
    near-distinct floats; and 1 to 300 labels, so the label codes are uint8
    (up to 256 labels) or uint16 and a column can hold more than 255 value
    groups."""
    n = draw(st.integers(1, 700))
    k = draw(st.sampled_from([1, 2, 7, 100, 256, 257, 300]))
    kind = draw(st.sampled_from(["ties", "mixed", "zeros", "ulps", "distinct"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        values = [rng.randint(-5, 5) for _ in range(n)]
    elif kind == "mixed":
        values = [rng.choice([v, float(v)]) for v in
                  (rng.randint(-20, 20) for _ in range(n))]
    elif kind == "zeros":
        values = [rng.choice([0.0, -0.0, 0, 1.5, -1.5]) for _ in range(n)]
    elif kind == "ulps":
        steps = [1.0]
        for _ in range(3):
            steps.append(math.nextafter(steps[-1], math.inf))
        values = [rng.choice(steps) for _ in range(n)]
    else:
        values = [rng.uniform(-1e3, 1e3) for _ in range(n)]
    # every label at least once where the rows allow it
    codes = [*range(min(n, k)), *(rng.randrange(k) for _ in range(n - k))]
    rng.shuffle(codes)
    return values, [f"L{code:03d}" for code in codes]


@settings(max_examples=100, deadline=None)
@given(coded_columns())
def test_candidates_equal_a_lexsort_reference(column):
    values, labels = column
    ts = column_set(values, labels)
    codes, firsts, _ = _coded_labels(ts.label_codes, len(ts.classes))
    assert codes.dtype == (np.uint8 if len(set(labels)) <= 256 else np.uint16)
    cuts, starts, sizes, pair_labels, offsets, ranks, rows = _candidates(
        ts.codes[0], codes, firsts)
    keys = np.array(values, dtype=float)
    order = np.lexsort((codes, keys))
    v, lab = keys[order].tolist(), codes[order].tolist()
    assert rows.tolist() == lab
    # the pairs: their first rows, labels and the rows of their label before
    heads = [i for i in range(len(v))
             if i == 0 or (v[i], lab[i]) != (v[i - 1], lab[i - 1])]
    offsets = offsets.tolist()
    assert offsets == heads + [len(v)]
    assert pair_labels.tolist() == [lab[i] for i in heads]
    seen, reference, firsts = Counter(), [], set(heads)
    for i, code in enumerate(lab):
        if i in firsts:
            reference.append(seen[code])
        seen[code] += 1
    assert ranks.tolist() == reference
    # the candidates, the first row right of each and the rows <= each
    groups = []
    for i, (value, code) in enumerate(zip(v, lab)):
        if groups and groups[-1][0] == value:
            groups[-1][2].add(code)
        else:
            groups.append((value, i, {code}))
    right = [g2[1] for g1, g2 in zip(groups, groups[1:]) if g1[2] != g2[2]]
    ordered = sorted(zip(values, labels))
    assert list(map(repr, cuts.tolist())) == \
        list(map(repr, _boundary_candidates(ordered)))
    assert [offsets[p] for p in starts.tolist()] == right
    assert [offsets[p] for p in sizes.tolist()] == \
        np.searchsorted(v, cuts, side="right").tolist()


# --- ranges the screen decides alone, and ranges it leaves to exact scoring -

PLANS = tuple(f"P{i:02d}" for i in range(100))


@st.composite
def benchmark_columns(draw):
    """A column shaped like those of the benchmark corpus: up to 100 plan
    labels, and either runs of 1-30 equal values, as ``steps`` has, or
    near-unique noisy times, as ``time`` has."""
    k = draw(st.integers(1, len(PLANS)))
    if draw(st.booleans()):
        runs = draw(st.lists(st.tuples(st.integers(0, 80), st.integers(1, 30)),
                             min_size=1, max_size=30))
        values = [float(v) for v, size in runs for _ in range(size)]
    else:
        n = draw(st.integers(2, 200))
        values = [round(t, 9) for t in draw(st.lists(
            st.floats(1e-3, 2e-2), min_size=n, max_size=n))]
    return values, draw_labels(draw, values, k, PLANS)


@settings(max_examples=200, deadline=None)
@given(benchmark_columns())
def test_mdl_cuts_equal_the_quadratic_oracle_on_benchmark_columns(column):
    values, labels = column
    ts = numeric_set(values, labels)
    got = discretize_supervised(ts).cuts["x"]
    assert got == mdl_cuts(values, labels)
    assert_batched_cuts(ts, values, labels, got)


def counted_entropy(monkeypatch) -> list:
    """The distributions ``discretize.entropy`` is called on from now."""
    calls = []

    def counting(dist):
        calls.append(dist)
        return entropy(dist)

    monkeypatch.setattr(discretize, "entropy", counting)
    return calls


def test_a_clear_split_is_decided_by_the_screen(monkeypatch):
    calls = counted_entropy(monkeypatch)
    values = [float(v) for v in range(40)]
    labels = ["A"] * 20 + ["B"] * 20
    ts = numeric_set(values, labels)
    assert discretize_supervised(ts).cuts["x"] == \
        mdl_cuts(values, labels) == (19.5,)
    assert_batched_cuts(ts, values, labels, (19.5,))
    assert calls == []


@pytest.mark.parametrize("values, labels, cuts", [
    # the tie of test_tied_splits_keep_the_first_cut: two candidates lie
    # within the tolerance of the least score
    ([float(v) for v in range(60)], ["A"] * 20 + ["B"] * 20 + ["A"] * 20,
     (19.5, 39.5)),
    # one candidate, whose gain clears the MDL threshold by 1.6e-10 bits:
    # inside twice the tolerance, 6.1e-10 at 1,966 rows
    ([0.0] * 12 + [1.0] * 1954, ["A"] * 892 + ["B"] * 1074, (0.5,)),
], ids=["tie", "near-threshold"])
def test_near_ties_and_near_threshold_gains_are_scored_exactly(
        monkeypatch, values, labels, cuts):
    calls = counted_entropy(monkeypatch)
    ts = numeric_set(values, labels)
    assert discretize_supervised(ts).cuts["x"] == \
        mdl_cuts(values, labels) == cuts
    assert calls
    calls.clear()
    assert [m.cuts["x"] for m in fit_supervised_maps(
        ts, [np.arange(len(ts))] * 2)] == [cuts] * 2
    assert calls


def test_a_padded_range_is_scored_exactly_on_its_own_pairs(monkeypatch):
    # x's range, three pairs, the last the first of its label, is padded to
    # z's five in the step that screens both; its exact re-score must count
    # x's own pairs only, and then keeps no cut
    calls = counted_entropy(monkeypatch)
    x, labels = [0.0, 1.0, 1.0, 1.0, 3.0], list("ABBBC")
    ts = build_training_set([("x", "numeric"), ("z", "numeric")], [
        (v, float(i), y) for i, (v, y) in enumerate(zip(x, labels))])
    (dmap,) = fit_supervised_maps(ts, [np.arange(len(ts))])
    assert calls
    assert dmap == discretize_supervised(ts)
    assert dmap.cuts["x"] == mdl_cuts(x, labels) == ()


# --- the supervised maps of many row sets, as of a CV cell's folds ----------

@st.composite
def fold_sets(draw):
    """A set of a nominal and two numeric attributes, one of them sometimes
    constant, with repeated values, and 2-10 row sets of it: the training
    folds of a CV split, or rows drawn at random, some sets holding rows of
    one class only."""
    n = draw(st.integers(2, 80))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([2, 8, 40]))
    x = [float(rng.randrange(spread)) for _ in range(n)]
    y = ([2.5] * n if draw(st.booleans())
         else [rng.choice([-1.0, 0.0, 0.5, 7.25]) for _ in range(n)])
    labels = draw_labels(draw, x, draw(st.integers(1, 4)))
    ts = build_training_set(
        [("kind", "nominal"), ("x", "numeric"), ("y", "numeric")],
        [(f"k{rng.randrange(3)}", a, b, label)
         for a, b, label in zip(x, y, labels)])
    folds = draw(st.integers(2, min(10, n)))
    if draw(st.booleans()):
        plan = evaluation.make_folds(ts, folds, rng.randrange(100))
        return ts, [plan._train_rows(fold) for fold in range(folds)]
    by_label = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    row_sets = []
    for _ in range(folds):
        pool = (rng.choice(list(by_label.values())) if rng.random() < 0.3
                else range(n))
        rows = [i for i in pool if rng.random() < 0.7] or [min(pool)]
        row_sets.append(np.array(rows, dtype=np.intp))
    return ts, row_sets


@settings(max_examples=100, deadline=None)
@given(fold_sets(), st.sampled_from([0, 3, 512]))
def test_each_row_sets_map_is_its_subsets_own_fit(case, width):
    # a width of 0 sends every column through _mdl_split, 512 every one
    # through _mdl_steps, and 3 some each way
    ts, row_sets = case
    with patch.object(discretize, "_SHARED_WIDTH", width):
        maps = fit_supervised_maps(ts, row_sets)
    assert len(maps) == len(row_sets)
    for dmap, rows in zip(maps, row_sets):
        own = fit_map(subset(ts, rows), "supervised")
        assert {name: list(map(repr, cuts)) for name, cuts in dmap.cuts.items()} \
            == {name: list(map(repr, cuts)) for name, cuts in own.cuts.items()}


def test_row_sets_without_numeric_attributes_get_no_map():
    ts = build_training_set([("kind", "nominal")],
                            [(f"k{i % 3}", "AB"[i % 2]) for i in range(12)])
    row_sets = [np.arange(0, 12, 2), np.arange(1, 12)]
    assert fit_supervised_maps(ts, row_sets) == [None, None]
    assert [fit_map(subset(ts, rows), "supervised") for rows in row_sets] == \
        [None, None]


def schema_doc():
    return {"attributes": [{"name": "x", "kind": "nominal", "domain": ["a", "b"]}],
            "classes": ["A", "B"], "discretization": None}


@pytest.mark.parametrize("fault,message", [
    (lambda doc: doc.update(classes="AB"),
     "classes and domains must be lists, not 'AB'"),
    (lambda doc: doc["attributes"][0].update(domain="ab"),
     "classes and domains must be lists, not 'ab'"),
    (lambda doc: doc["attributes"][0].update(name=5),
     "attribute 'name' must be a string"),
    (lambda doc: doc["classes"].append(5), "class 5 is not a string"),
    (lambda doc: doc["attributes"][0]["domain"].append(1),
     "attribute 'x': nominal value 1 is not a string"),
    (lambda doc: doc.update(discretization={"x": [1.0, math.inf]}),
     "malformed schema: cuts for 'x' are not finite numbers"),
    (lambda doc: doc.update(discretization={"y": []}),
     "malformed schema: cut points for 'y', which the schema lacks"),
    (lambda doc: doc.update(discretization={"x": [1.0]}),
     r"malformed schema: attribute 'x': domain \('a', 'b'\) is not its bins"),
])
def test_schema_from_json_refuses_fields_of_the_wrong_type(fault, message):
    doc = schema_doc()
    fault(doc)
    with pytest.raises(ModelIntegrityError, match=message):
        Schema.from_json(doc)
