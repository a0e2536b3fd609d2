import json
import math
import random
import re

import pytest

from plancell.casi import ClassificationRule, compile_tree
from plancell.dataset import (AttributeSpec, TrainingSet, build_training_set,
                              class_distribution)
from plancell.discretize import (DiscretizationMap, Schema, apply_map,
                                 discretize_supervised)
from plancell.errors import DataError, ModelIntegrityError, UnknownValueError
from plancell.tree import (INFO_GAIN, GAIN_RATIO, InductionGraph, TreeNode,
                           classify_tree, entropy, gain_ratio, grow, induce,
                           information_gain, model_from_json, model_to_json,
                           rep_prune)


def nominal_set(columns, rows):
    return build_training_set([(name, "nominal") for name in columns], rows)


@pytest.fixture
def binned(runs11):
    return apply_map(discretize_supervised(runs11), runs11)


@pytest.fixture
def stump():
    return grow(nominal_set(["x"], [("a", "c1"), ("b", "c2")]), min_leaf=1)


def test_entropy_values():
    assert entropy({"A": 7}) == 0.0
    assert entropy({"A": 5, "B": 5}) == 1.0
    assert entropy([2, 2, 2, 2]) == 2.0


def test_entropy_runs_distribution(runs11):
    value = entropy(class_distribution(runs11))
    assert value == pytest.approx(2.2999, abs=1e-4)


def test_entropy_rejects_degenerate_input():
    with pytest.raises(DataError, match="all-zero"):
        entropy({"A": 0, "B": 0})
    with pytest.raises(DataError, match="negative"):
        entropy({"A": -1, "B": 3})


def test_information_gain_on_binned_runs(binned):
    assert information_gain(binned, "steps") == pytest.approx(1.4949, abs=1e-3)
    assert information_gain(binned, "problem") == pytest.approx(1.0031, abs=1e-3)
    assert information_gain(binned, "time") == 0.0


def test_gain_ratio_zero_for_single_valued(binned):
    # time collapses to one bin, so its split info is zero
    assert gain_ratio(binned, "time") == 0.0


def test_unique_id_attribute_gains_full_entropy():
    rows = [(f"row{i}", label) for i, label in enumerate("AABBC")]
    ts = nominal_set(["id"], rows)
    assert information_gain(ts, "id") == \
        pytest.approx(entropy(class_distribution(ts)))


def test_grow_single_class_is_one_leaf():
    tree = grow(nominal_set(["x"], [("a", "C"), ("b", "C")]))
    assert tree.root.is_leaf
    assert tree.root.node_id == "s0"
    assert tree.node_count == 1


def test_grow_stump_structure(stump):
    assert stump.root.attribute == "x"
    assert [n.node_id for n in stump.nodes()] == ["s0", "s1", "s2"]
    assert stump.root.children["a"].majority == "c1"
    assert stump.root.children["b"].majority == "c2"
    assert stump.depth() == 1


def test_grow_runs_tree_shape(binned):
    tree = grow(binned, INFO_GAIN, min_leaf=1)
    assert tree.node_count == 12
    assert tree.depth() == 2
    assert tree.root.attribute == "steps"
    assert sorted(tree.root.children) == ["b0", "b1", "b2"]
    assert tree.root.children["b0"].counts == {"P1": 3, "P5": 2}
    assert tree.root.children["b1"].counts == {"P2": 2, "P4": 2}
    b2 = tree.root.children["b2"]
    assert b2.is_leaf and b2.counts == {"P3": 2}


def test_node_ids_are_breadth_first(binned):
    tree = grow(binned, INFO_GAIN, min_leaf=1)
    assert [n.node_id for n in tree.nodes()] == [f"s{i}" for i in range(12)]


HAND_SCHEMA = Schema((AttributeSpec("x", "nominal", ("a", "b")),
                      AttributeSpec("y", "nominal", ("p", "q")),
                      AttributeSpec("z", "numeric", (0.0, 1.0))), ("c1", "c2"))


def hand_tree():
    """x=a leads to a split on y, x=b to a leaf; every id is a placeholder."""
    under_a = TreeNode("?", {"c1": 2, "c2": 1}, "y", {
        "p": TreeNode("?", {"c1": 2}), "q": TreeNode("?", {"c2": 1})})
    return TreeNode("?", {"c1": 2, "c2": 2}, "x",
                    {"a": under_a, "b": TreeNode("?", {"c2": 1})})


def test_graph_numbers_the_nodes_it_is_given():
    graph = InductionGraph(hand_tree(), HAND_SCHEMA, INFO_GAIN)
    assert [n.node_id for n in graph.nodes()] == ["s0", "s1", "s2", "s3", "s4"]
    assert graph.root.children["b"].node_id == "s2"


@pytest.mark.parametrize("placeholder", ["?", ""])
def test_graph_numbers_copies_of_the_nodes_it_is_given(placeholder):
    root = hand_tree()
    nodes = [root, *root.children.values(), *root.children["a"].children.values()]
    for node in nodes:
        node.node_id = placeholder
    graph = InductionGraph(root, HAND_SCHEMA, INFO_GAIN)
    assert [n.node_id for n in graph.nodes()] == ["s0", "s1", "s2", "s3", "s4"]
    assert [n.node_id for n in nodes] == [placeholder] * 5


def test_a_graph_over_another_graphs_nodes_leaves_that_graph_unchanged():
    rows = [("a", "p", "A"), ("a", "q", "A"), ("b", "p", "B"), ("b", "q", "C")] * 2
    grown = grow(nominal_set(["x", "y"], rows), INFO_GAIN, min_leaf=1)
    doc = model_to_json(grown)
    assert [n.node_id for n in grown.nodes()] == ["s0", "s1", "s2", "s3", "s4"]
    under_b = InductionGraph(grown.root.children["b"], grown.schema, grown.mode)
    assert [n.node_id for n in under_b.nodes()] == ["s0", "s1", "s2"]
    assert [n.node_id for n in grown.nodes()] == ["s0", "s1", "s2", "s3", "s4"]
    assert model_to_json(grown) == doc
    assert model_to_json(model_from_json(model_to_json(grown))) == doc


def _set(path, **fields):
    """A fault that sets ``fields`` on the node the branch values ``path``
    lead to from the root; a callable field value is called on the root."""
    def fault(args):
        node = root = args["root"]
        for value in path:
            node = node.children[value]
        for name, value in fields.items():
            setattr(node, name, value(root) if callable(value) else value)
    return fault


CODE_BUILT_FAULTS = {
    "split outside the schema": (_set((), attribute="colour"), "'colour'"),
    "split on a numeric attribute": (_set(("a",), attribute="z"), "'z'"),
    "branch outside the domain": (
        _set((), children=lambda root: {"a": root.children["a"],
                                        "r": root.children["b"]}),
        "branch 'r' is not in the domain of 'x'"),
    "child shared by two parents": (
        _set((), children=lambda root: {"a": root.children["a"],
                                        "b": root.children["a"].children["p"]}),
        "two parents"),
    "child linking back to the root": (
        _set(("a",), children=lambda root: {"p": root}), "cycle"),
    "split without children": (_set(("a",), children={}), "no children"),
    "leaf with children": (_set(("b",), children={"p": TreeNode("?", {"c1": 1})}),
                           "leaf s2 has children"),
    "negative count": (_set(("b",), counts={"c2": -1}), "node s2 counts"),
    "count that is not an int": (_set(("b",), counts={"c2": 1.0}),
                                 "node s2 counts"),
    "boolean count": (_set(("b",), counts={"c2": True}), "node s2 counts"),
    "no counts": (_set(("b",), counts={}), "node s2 counts"),
    "counted class the schema lacks": (_set(("a", "p"), counts={"c9": 1}),
                                       "node s3 counts"),
    "unknown mode": (lambda args: args.update(mode="gini"),
                     "unknown growth mode 'gini'"),
}


@pytest.mark.parametrize("fault", CODE_BUILT_FAULTS)
def test_graph_refuses_a_code_built_fault(fault):
    change, message = CODE_BUILT_FAULTS[fault]
    args = {"root": hand_tree(), "schema": HAND_SCHEMA, "mode": INFO_GAIN}
    change(args)
    with pytest.raises(DataError, match=re.escape(message)):
        InductionGraph(**args)


def test_perfect_training_accuracy_with_min_leaf_one(binned):
    tree = grow(binned, INFO_GAIN, min_leaf=1)
    for row, label in zip(binned.rows, binned.labels):
        assert classify_tree(tree, row)[0] == label


def test_min_leaf_blocks_best_split_without_fallback():
    # x separates perfectly but has a one-instance branch; y scores lower.
    # the node must become a leaf rather than fall back to y.
    ts = nominal_set(["x", "y"], [
        ("a", "p", "c1"), ("a", "p", "c1"),
        ("b", "p", "c2"), ("b", "q", "c2"), ("c", "q", "c2")])
    tree = grow(ts, INFO_GAIN, min_leaf=2)
    assert tree.root.is_leaf
    assert tree.root.majority == "c2"


def test_score_tie_goes_to_first_declared_attribute():
    rows = [("a", "p", "c1"), ("b", "q", "c2")]
    assert grow(nominal_set(["x", "y"], rows), min_leaf=1).root.attribute == "x"
    assert grow(nominal_set(["y", "x"],
                            [(r[1], r[0], r[2]) for r in rows]),
                min_leaf=1).root.attribute == "y"


def test_branches_only_for_values_present_at_node():
    ts = nominal_set(["x", "y"], [
        ("a", "p", "c1"), ("a", "p", "c1"), ("a", "q", "c2"), ("a", "q", "c2"),
        ("b", "p", "c3"), ("b", "q", "c3"), ("b", "r", "c3")])
    tree = grow(ts, INFO_GAIN, min_leaf=1)
    assert tree.root.attribute == "x"
    under_a = tree.root.children["a"]
    assert under_a.attribute == "y"
    assert sorted(under_a.children) == ["p", "q"]  # r never occurs under a


def test_grow_rejects_bad_input(runs11):
    with pytest.raises(DataError, match="discretize"):
        grow(runs11)
    with pytest.raises(DataError, match="mode"):
        grow(nominal_set(["x"], [("a", "A")]), mode="gini")
    with pytest.raises(DataError, match="min_leaf"):
        grow(nominal_set(["x"], [("a", "A")]), min_leaf=0)
    with pytest.raises(DataError, match="empty"):
        grow(TrainingSet((), ("A",), (), ()))


def test_grow_refuses_an_unknown_mode_before_it_grows(monkeypatch):
    import plancell.tree as tree

    def no_growth(ts):
        raise AssertionError("grew under an unknown mode")

    monkeypatch.setattr(tree, "_distinct_rows", no_growth)
    two_classes = nominal_set(["x"], [("a", "A"), ("b", "B")] * 2)
    with pytest.raises(DataError, match="^unknown growth mode 'gini'$"):
        grow(two_classes, mode="gini", min_leaf=1)


def test_grow_is_deterministic(binned):
    one = model_to_json(grow(binned, GAIN_RATIO))
    two = model_to_json(grow(binned, GAIN_RATIO))
    assert one == two


def test_classify_returns_root_to_leaf_path(binned):
    tree = grow(binned, INFO_GAIN, min_leaf=1)
    label, path = classify_tree(tree, binned.rows[3])
    assert label == "P3"
    assert path[0] == "s0"
    assert len(path) == 2  # steps=b2 is pure one level down
    by_id = {n.node_id: n for n in tree.nodes()}
    assert by_id[path[-1]].is_leaf


def test_classify_unknown_value_and_fallback():
    ts = nominal_set(["x", "y"], [
        ("a", "p", "c1"), ("a", "p", "c1"), ("a", "q", "c2"), ("a", "q", "c2"),
        ("b", "p", "c3"), ("b", "q", "c3"), ("b", "r", "c3")])
    tree = grow(ts, INFO_GAIN, min_leaf=1)
    with pytest.raises(UnknownValueError, match="'r'"):
        classify_tree(tree, ("a", "r"))
    label, path = classify_tree(tree, ("a", "r"), fallback=True)
    assert label == "c1"  # majority tie at the x=a node breaks low
    assert path == ("s0", "s1")


def test_unknown_value_message_names_the_raw_value():
    dmap = DiscretizationMap({"x": (0.0, 1.0)})
    ts = apply_map(dmap, build_training_set([("x", "numeric")],
                                            [(-1.0, "c1"), (1.5, "c2")]))
    assert ts.attributes[0].domain == ("b0", "b1", "b2")
    assert ts.columns[0] == ("b0", "b2")
    tree = grow(ts, min_leaf=1, discretization=dmap)
    assert classify_tree(tree, (1.5,))[0] == "c2"
    # 0.5 falls in b1, which no branch of s0 takes
    with pytest.raises(UnknownValueError) as error:
        classify_tree(tree, (0.5,))
    assert str(error.value) == "value 0.5 of attribute 'x' has no branch at node s0"


@pytest.mark.parametrize("cuts,message", [
    ({"steps": (8.0,)}, r"attribute 'steps': domain \('b0', 'b1', 'b2'\) is not "
                        r"its bins \('b0', 'b1'\)"),
    ({"steps": (8.0, 11.0, 15.0)}, "attribute 'steps': domain .* is not its bins"),
    ({"ghost": (1.0,)}, "cut points for 'ghost', which the schema lacks"),
    ({"problem": ()}, "attribute 'problem': domain .* is not its bins"),
])
def test_grow_refuses_a_map_that_disagrees_with_its_set(runs11, cuts, message):
    dmap = discretize_supervised(runs11)
    binned = apply_map(dmap, runs11)
    with pytest.raises(DataError, match=message):
        grow(binned, min_leaf=1,
             discretization=DiscretizationMap({**dmap.cuts, **cuts}))


def test_classify_refuses_nan_where_its_attribute_is_tested(runs11):
    dmap = discretize_supervised(runs11)
    tree = grow(apply_map(dmap, runs11), INFO_GAIN, min_leaf=1,
                discretization=dmap)
    with pytest.raises(UnknownValueError, match="value nan of attribute 'steps'"):
        classify_tree(tree, ("blocks-4", 0.032237, math.nan))
    # time is never tested, so a NaN there changes nothing
    assert classify_tree(tree, ("blocks-4", math.nan, 6.0))[0] == "P1"


def test_classify_checks_schema_width(stump):
    with pytest.raises(DataError, match="values"):
        classify_tree(stump, ("a", "extra"))


def test_compile_tree_rules_stump(stump):
    rules = compile_tree(stump).rules
    assert list(rules) == [
        ClassificationRule(("s0", "x=a"), "s1"),
        ClassificationRule(("s0", "x=b"), "s2"),
        ClassificationRule(("s1",), "class=c1"),
        ClassificationRule(("s2",), "class=c2"),
    ]
    assert str(rules[0]) == "s0 & x=a -> s1"


def test_compile_tree_rules_single_leaf():
    tree = grow(nominal_set(["x"], [("a", "C")]))
    assert list(compile_tree(tree).rules) == [ClassificationRule(("s0",), "class=C")]


def test_rule_count_is_edges_plus_leaves(binned):
    tree = grow(binned, INFO_GAIN, min_leaf=1)
    leaves = sum(1 for n in tree.nodes() if n.is_leaf)
    assert len(compile_tree(tree).rules) == (tree.node_count - 1) + leaves == 20


def test_rule_invariants():
    with pytest.raises(DataError, match="empty"):
        ClassificationRule((), "x")
    with pytest.raises(DataError, match="own premise"):
        ClassificationRule(("a", "b"), "a")


def test_prune_collapses_losing_subtree():
    ts = nominal_set(["x"], [("a", "c1"), ("a", "c1"), ("b", "c2")])
    tree = grow(ts, INFO_GAIN, min_leaf=1)
    prune_set = nominal_set(["x"], [("b", "c1")])
    pruned = rep_prune(tree, prune_set)
    assert pruned.root.is_leaf
    assert pruned.root.majority == "c1"
    assert pruned.root.node_id == "s0"


def test_prune_keeps_unvisited_subtree():
    ts = nominal_set(["x", "y"], [
        ("a", "p", "c1"), ("a", "p", "c1"), ("a", "q", "c2"),
        ("b", "p", "c3"), ("b", "q", "c3")])
    tree = grow(ts, INFO_GAIN, min_leaf=1)
    assert tree.root.children["a"].attribute == "y"
    prune_set = nominal_set(["x", "y"], [("b", "p", "c3"), ("b", "p", "c3")])
    pruned = rep_prune(tree, prune_set)
    assert pruned.root.attribute == "x"
    assert pruned.root.children["a"].attribute == "y"  # untouched: no visits
    assert pruned.root.children["b"].is_leaf


def test_prune_with_empty_prune_set_is_identity(binned):
    tree = grow(binned, INFO_GAIN, min_leaf=1)
    empty = TrainingSet(binned.attributes, binned.classes,
                        tuple(() for _ in binned.attributes), ())
    assert model_to_json(rep_prune(tree, empty)) == model_to_json(tree)


def test_prune_requires_matching_schema(stump):
    other = nominal_set(["z"], [("a", "c1")])
    with pytest.raises(DataError, match="schema"):
        rep_prune(stump, other)


def error_count(tree, ts):
    wrong = 0
    for row, label in zip(ts.rows, ts.labels):
        try:
            got, _ = classify_tree(tree, row)
        except UnknownValueError:
            wrong += 1
            continue
        if got != label:
            wrong += 1
    return wrong


def test_pruning_never_hurts_on_the_prune_set():
    rng = random.Random(100)
    for _ in range(15):
        n = rng.randint(18, 36)
        rows = [(rng.choice("ab"), rng.choice("pqr"), rng.choice("uv"),
                 rng.choice("AB")) for _ in range(n)]
        cut = 2 * n // 3
        ts = nominal_set(["x", "y", "z"], rows[:cut])
        prune_set = nominal_set(["x", "y", "z"], rows[cut:])
        tree = grow(ts, INFO_GAIN, min_leaf=1)
        pruned = rep_prune(tree, prune_set)
        assert error_count(pruned, prune_set) <= error_count(tree, prune_set)
        ids = [node.node_id for node in pruned.nodes()]
        assert ids == [f"s{i}" for i in range(len(ids))]


def test_induce_reptree(binned):
    tree = induce(binned, "reptree", min_leaf=1, seed=0)
    assert tree.mode == INFO_GAIN
    assert [n.node_id for n in tree.nodes()] == \
        [f"s{i}" for i in range(tree.node_count)]
    for row in binned.rows:
        classify_tree(tree, row, fallback=True)


def test_induce_is_seed_deterministic(binned):
    one = model_to_json(induce(binned, "reptree", seed=5))
    two = model_to_json(induce(binned, "reptree", seed=5))
    assert one == two


def test_induce_unknown_method(binned):
    with pytest.raises(DataError, match="method"):
        induce(binned, "cart")


def full_model(runs11):
    dmap = discretize_supervised(runs11)
    cooked = apply_map(dmap, runs11)
    return model_to_json(grow(cooked, INFO_GAIN, min_leaf=1, discretization=dmap))


def test_model_json_round_trip(runs11):
    doc = full_model(runs11)
    rebuilt = model_from_json(json.loads(json.dumps(doc)))
    assert model_to_json(rebuilt) == doc
    assert rebuilt.schema.discretization.cuts["steps"] == (8.0, 11.0)


def test_model_rejects_wrong_format():
    with pytest.raises(ModelIntegrityError, match="induction-graph"):
        model_from_json({"format": "something-else"})


def test_model_rejects_duplicate_id(runs11):
    doc = full_model(runs11)
    doc["nodes"][1]["id"] = doc["nodes"][0]["id"]
    with pytest.raises(ModelIntegrityError, match="duplicate node id"):
        model_from_json(doc)


def test_model_rejects_leaf_class_count_mismatch(runs11):
    doc = full_model(runs11)
    leaf = next(n for n in doc["nodes"] if "leaf_class" in n)
    leaf["leaf_class"] = "P9"
    with pytest.raises(ModelIntegrityError, match="disagrees"):
        model_from_json(doc)


def test_model_rejects_unknown_child(runs11):
    doc = full_model(runs11)
    split = next(n for n in doc["nodes"] if "children" in n)
    value = next(iter(split["children"]))
    split["children"][value] = "s99"
    with pytest.raises(ModelIntegrityError, match="unknown child"):
        model_from_json(doc)


def test_model_rejects_double_parenting(runs11):
    doc = full_model(runs11)
    splits = [n for n in doc["nodes"] if "children" in n]
    value = next(iter(splits[1]["children"]))
    splits[1]["children"][value] = next(iter(splits[0]["children"].values()))
    with pytest.raises(ModelIntegrityError, match="two parents"):
        model_from_json(doc)


def test_model_rejects_unreachable_nodes(runs11):
    doc = full_model(runs11)
    split = next(n for n in doc["nodes"] if "children" in n)
    value = next(iter(split["children"]))
    del split["children"][value]
    with pytest.raises(ModelIntegrityError, match="unreachable"):
        model_from_json(doc)


def test_model_rejects_linked_first_node(runs11):
    doc = full_model(runs11)
    doc["nodes"].append(doc["nodes"].pop(0))
    with pytest.raises(ModelIntegrityError, match="root"):
        model_from_json(doc)


def test_model_rejects_childless_split():
    doc = {
        "format": "induction-graph", "mode": INFO_GAIN,
        "attributes": [{"name": "x", "kind": "nominal", "domain": ["a"]}],
        "classes": ["A"], "discretization": None,
        "nodes": [{"id": "s0", "counts": {"A": 1},
                   "split": "x", "children": {}}],
    }
    with pytest.raises(ModelIntegrityError, match="no children"):
        model_from_json(doc)


def test_model_rejects_empty_node_table():
    doc = {
        "format": "induction-graph", "mode": INFO_GAIN,
        "attributes": [], "classes": ["A"], "discretization": None,
        "nodes": [],
    }
    with pytest.raises(ModelIntegrityError, match="no nodes"):
        model_from_json(doc)
