"""Tree induction against its references: split choice, REP and numbering.

Property tests: the public ``information_gain``/``gain_ratio`` follow
their textbook formulas, and every split ``grow`` makes is their first
argmax over the node's rows; ``rep_prune`` and ``induce(..., "reptree")``
equal the two-walk REP in ``oracles`` on random nominal sets and prune sets
(empty ones, and rows whose value has no branch, included); ``grow``
writes the same model JSON as the recounting growth in ``oracles``, also
on sets of a few distinct rows repeated many times, which ``grow`` counts
once each with their multiplicity; node
ids s0, s1, ... follow breadth-first order in grown, pruned and reloaded
trees, and the trees ``grow`` and ``rep_prune`` build without the
constructor's checks pass them exactly as built. ``rep_prune`` shares no node with its input, also where it stops
early or where no prune row reaches a subtree.
"""

import json
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from plancell.dataset import TrainingSet, build_training_set, load_csv
from plancell.discretize import apply_map, fit_map
from plancell.tree import (GAIN_RATIO, INFO_GAIN, InductionGraph, entropy,
                           gain_ratio, grow, induce, information_gain,
                           model_from_json, model_to_json, rep_prune)

PROPERTY = settings(max_examples=80, deadline=None)
GOLDEN = Path(__file__).resolve().parent / "golden" / "inputs"


def nominal_set(columns, rows):
    return build_training_set([(name, "nominal") for name in columns], rows)


@st.composite
def nominal_sets(draw):
    """1-3 nominal attributes over a, b, c and up to three classes."""
    width = draw(st.integers(1, 3))
    labels = st.sampled_from("ABC"[:draw(st.integers(1, 3))])
    rows = draw(st.lists(st.tuples(*[st.sampled_from("abc")] * width, labels),
                         min_size=1, max_size=40))
    return nominal_set([f"x{i}" for i in range(width)], rows)


@st.composite
def pruning_cases(draw):
    """A training set and a prune set under its schema, possibly empty.

    Prune values include d, which no training row has, and a class D no
    training row has; values the grown node never saw have no branch.
    """
    ts = draw(nominal_sets())
    width = len(ts.attributes)
    rows = draw(st.lists(
        st.tuples(st.tuples(*[st.sampled_from("abcd")] * width),
                  st.sampled_from("ABCD")), max_size=30))
    return ts, with_rows(ts, rows)


def with_rows(schema, rows):
    """A training set of the ``(values, label)`` pairs ``rows`` under the
    attributes and classes of ``schema``."""
    columns = tuple(tuple(values[i] for values, _ in rows)
                    for i in range(len(schema.attributes)))
    return TrainingSet(schema.attributes, schema.classes, columns,
                       tuple(label for _, label in rows))


def subset(ts, rows):
    return with_rows(ts, [(ts.rows[i], ts.labels[i]) for i in rows])


def breadth_first(root):
    out, queue = [], deque([root])
    while queue:
        node = queue.popleft()
        out.append(node)
        queue.extend(node.children.values())
    return out


def check_splits(tree, ts, min_leaf):
    """Each node is what grow's rule makes of its rows, scored publicly."""
    score = information_gain if tree.mode == INFO_GAIN else gain_ratio

    def visit(node, rows, attrs):
        here = subset(ts, rows)
        assert node.counts == dict(Counter(here.labels))
        scores = [score(here, a) for a in attrs]
        best = attrs[scores.index(max(scores))] if scores else None
        col = ts.attribute_names.index(best) if scores else None
        if node.is_leaf:
            if len(node.counts) > 1 and scores and max(scores) > 0:
                assert min(Counter(here.columns[col]).values()) < min_leaf
            return
        assert max(scores) > 0 and node.attribute == best
        present = set(here.columns[col])
        assert list(node.children) == [v for v in ts.attributes[col].domain
                                       if v in present]
        remaining = tuple(a for a in attrs if a != best)
        for value, child in node.children.items():
            visit(child, [i for i in rows if ts.rows[i][col] == value],
                  remaining)

    visit(tree.root, list(range(len(ts))), ts.attribute_names)


@PROPERTY
@given(nominal_sets())
def test_public_scores_follow_their_formulas(ts):
    labels = ts.labels
    for name, values in zip(ts.attribute_names, ts.columns):
        rest = sum(values.count(v) / len(values) * entropy(Counter(
            y for x, y in zip(values, labels) if x == v)) for v in set(values))
        gain = entropy(Counter(labels)) - rest
        split = entropy(Counter(values))
        assert information_gain(ts, name) == pytest.approx(gain, abs=1e-12)
        assert gain_ratio(ts, name) == (
            pytest.approx(gain / split, abs=1e-12) if split else 0.0)


@PROPERTY
@given(nominal_sets(), st.sampled_from([GAIN_RATIO, INFO_GAIN]),
       st.sampled_from([1, 2, 5]))
def test_each_split_is_the_first_argmax_of_the_public_score(ts, mode, min_leaf):
    check_splits(grow(ts, mode, min_leaf), ts, min_leaf)


@st.composite
def tied_sets(draw):
    """1-5 nominal attributes over up to four classes, where an attribute
    may copy an earlier one (exact score ties) or hold one value (zero split
    info); labels at random or following the first attribute."""
    n = draw(st.integers(1, 60))
    classes = "ABCD"[:draw(st.integers(1, 4))]
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["free", "copy", "constant"]))
        if kind == "copy" and columns:
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "constant":
            columns.append(["a"] * n)
        else:
            columns.append(draw(st.lists(st.sampled_from("abcd"),
                                         min_size=n, max_size=n)))
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    else:
        labels = [classes["abcd".index(v) % len(classes)] for v in columns[0]]
    rows = [(*values, y) for values, y in zip(zip(*columns), labels)]
    return nominal_set([f"x{i}" for i in range(len(columns))], rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(tied_sets(), nominal_sets()),
       st.sampled_from([GAIN_RATIO, INFO_GAIN]), st.integers(1, 3))
def test_grow_equals_the_recounting_oracle(ts, mode, min_leaf):
    assert json.dumps(model_to_json(grow(ts, mode, min_leaf))) == \
        json.dumps(model_to_json(oracles.grow_tree(ts, mode, min_leaf)))
    assert_scores_as_the_oracle(ts, mode)


def assert_scores_as_the_oracle(ts, mode):
    """Every attribute's score equals the oracle's bit for bit."""
    score = information_gain if mode == INFO_GAIN else gain_ratio
    for name, values in zip(ts.attribute_names, ts.columns):
        assert score(ts, name) == \
            oracles._split_score(mode, values, ts.labels)


@st.composite
def repeated_rows(draw):
    """1-8 distinct rows, each repeated 1-5 times and interleaved. Rows
    draw their values from at most three value tuples, so some rows share
    values and differ only in their label."""
    width = draw(st.integers(1, 3))
    values = draw(st.lists(st.tuples(*[st.sampled_from("abc")] * width),
                           min_size=1, max_size=3, unique=True))
    distinct = draw(st.lists(
        st.tuples(st.sampled_from(values), st.sampled_from("ABC")),
        min_size=1, max_size=8, unique=True))
    times = draw(st.lists(st.integers(1, 5), min_size=len(distinct),
                          max_size=len(distinct)))
    order = draw(st.permutations(
        [row for row, k in zip(distinct, times) for _ in range(k)]))
    return nominal_set([f"x{i}" for i in range(width)],
                       [(*row, y) for row, y in order])


# In the part x0=a, the label B first appears after A, on the row
# (a, q, B), which stands for three rows.
LATE_LABEL = nominal_set(["x0", "x1"], [
    ("a", "p", "A"), ("b", "q", "B"), ("a", "q", "B"), ("a", "q", "B"),
    ("a", "p", "A"), ("b", "q", "A"), ("a", "q", "B"), ("b", "p", "A")])


@settings(max_examples=200, deadline=None)
@given(repeated_rows(), st.sampled_from([GAIN_RATIO, INFO_GAIN]),
       st.integers(1, 3))
@example(LATE_LABEL, GAIN_RATIO, 1)
@example(LATE_LABEL, INFO_GAIN, 2)
def test_repeated_rows_grow_and_score_as_the_oracle(ts, mode, min_leaf):
    assert json.dumps(model_to_json(grow(ts, mode, min_leaf))) == \
        json.dumps(model_to_json(oracles.grow_tree(ts, mode, min_leaf)))
    assert_scores_as_the_oracle(ts, mode)


def split_subtree_case(prune_rows, a_rows=2, b_p_rows=2):
    """x splits the root; its b branch splits again on y (p -> B, q -> C),
    and its a branch is a leaf A. ``prune_rows`` are (x, y, label)."""
    rows = ([("a", "pq"[i % 2], "A") for i in range(a_rows)]
            + [("b", "p", "B")] * b_p_rows + [("b", "q", "C")] * 2)
    ts = nominal_set(["x", "y"], rows)
    return ts, with_rows(ts, [((x, y), label) for x, y, label in prune_rows])


# Node b (majority B) errs once; its first child p already errs once too,
# so b is a leaf before its child q is visited.
EARLY_EXIT = split_subtree_case([("b", "p", "C"), ("b", "q", "B")])
# The root (majority B) errs on the one prune row, its leaf a does not; no
# row reaches b's subtree, which stays as grown.
UNREACHED = split_subtree_case([("a", "p", "A")], b_p_rows=3)


@PROPERTY
@given(pruning_cases(), st.sampled_from([1, 2]))
@example(EARLY_EXIT, 1)
@example(UNREACHED, 1)
def test_rep_prune_equals_the_two_walk_oracle(case, min_leaf):
    ts, prune_set = case
    tree = grow(ts, INFO_GAIN, min_leaf)
    before = model_to_json(tree)
    pruned = rep_prune(tree, prune_set)
    assert model_to_json(pruned) == \
        model_to_json(oracles.rep_prune(tree, prune_set))
    assert model_to_json(tree) == before
    assert not {id(n) for n in pruned.nodes()} & {id(n) for n in tree.nodes()}


def test_the_examples_prune_as_described():
    ts, prune_set = EARLY_EXIT
    pruned = rep_prune(grow(ts, INFO_GAIN, 1), prune_set)
    assert [n.is_leaf for n in pruned.nodes()] == [False, True, True]
    ts, prune_set = UNREACHED
    grown = grow(ts, INFO_GAIN, 1)
    assert model_to_json(rep_prune(grown, prune_set)) == model_to_json(grown)
    assert grown.node_count == 5


@PROPERTY
@given(nominal_sets(), st.sampled_from([1, 2]), st.integers(0, 9))
def test_induce_reptree_equals_the_oracle(ts, min_leaf, seed):
    grow_idx, prune_idx = oracles.stratified_thirds(ts, seed)
    want = grow(subset(ts, grow_idx), INFO_GAIN, min_leaf)
    if prune_idx:
        want = oracles.rep_prune(want, subset(ts, prune_idx))
    got = induce(ts, "reptree", min_leaf=min_leaf, seed=seed)
    assert model_to_json(got) == model_to_json(want)


def two_level_case():
    """Both children of the root split again: depth-first order differs."""
    rows = [("a", "p", "A"), ("a", "q", "B"), ("b", "p", "C"), ("b", "q", "D")]
    ts = nominal_set(["x", "y"], rows * 2)
    return ts, with_rows(ts, [])


@PROPERTY
@given(pruning_cases(), st.sampled_from([GAIN_RATIO, INFO_GAIN]),
       st.sampled_from([1, 2]))
@example(two_level_case(), GAIN_RATIO, 2)
def test_ids_follow_breadth_first_order(case, mode, min_leaf):
    ts, prune_set = case
    grown = grow(ts, mode, min_leaf)
    pruned = rep_prune(grown, prune_set)
    for tree in (grown, pruned, model_from_json(model_to_json(pruned))):
        nodes = tree.nodes()
        assert [id(n) for n in nodes] == [id(n) for n in breadth_first(tree.root)]
        assert [n.node_id for n in nodes] == [f"s{i}" for i in range(len(nodes))]


def assert_passes_as_built(tree):
    """``tree``'s nodes, exactly as built, pass every check of the
    ``InductionGraph`` constructor, which holds them unchanged."""
    doc = model_to_json(tree)
    checked = InductionGraph(tree.root, tree.schema, tree.mode)
    assert checked.root is tree.root
    assert model_to_json(checked) == doc


@PROPERTY
@given(pruning_cases(), st.sampled_from([GAIN_RATIO, INFO_GAIN]),
       st.sampled_from([1, 2]))
@example(EARLY_EXIT, INFO_GAIN, 1)
@example(UNREACHED, INFO_GAIN, 1)
def test_built_trees_pass_the_checked_constructor(case, mode, min_leaf):
    ts, prune_set = case
    grown = grow(ts, mode, min_leaf)
    assert_passes_as_built(grown)
    assert_passes_as_built(rep_prune(grown, prune_set))


@pytest.mark.parametrize("corpus", ["quick.csv", "bfs.csv"])
@pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
def test_golden_corpus_trees_pass_the_checked_constructor(corpus, mode):
    ts = load_csv((GOLDEN / corpus).read_text())
    dmap = fit_map(ts, mode)
    binned = apply_map(dmap, ts)
    for min_leaf in (1, 2, 3):
        assert_passes_as_built(grow(binned, GAIN_RATIO, min_leaf, dmap))
        grown = grow(binned, INFO_GAIN, min_leaf, dmap)
        assert_passes_as_built(grown)
        assert_passes_as_built(rep_prune(grown, binned))
        assert_passes_as_built(induce(binned, "reptree", min_leaf, 1, dmap))


def stump_and_prune(rows):
    tree = grow(nominal_set(["x"], [("a", "c1"), ("a", "c1"), ("b", "c2")]),
                INFO_GAIN, min_leaf=1)
    return tree, with_rows(tree.schema, [((x,), y) for x, y in rows])


def test_prune_tie_goes_to_the_leaf():
    # leaf c1: one error (b/c2); subtree: one error (b/c1)
    tree, prune_set = stump_and_prune([("a", "c1"), ("b", "c1"), ("b", "c2")])
    assert rep_prune(tree, prune_set).root.is_leaf


def test_prune_counts_a_row_without_branch_as_an_error():
    # leaf c1: two errors; subtree: c has no branch, a/c2 is wrong: two
    tree, prune_set = stump_and_prune([("c", "c1"), ("b", "c2"), ("a", "c2")])
    assert rep_prune(tree, prune_set).root.is_leaf
