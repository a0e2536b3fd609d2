import json
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from plancell import casi
from plancell.casi import (CellularKnowledgeBase, ClassificationRule,
                           classify_casi, compile_tree, established_facts,
                           format_fact_table, format_incidence,
                           format_rule_table, infer, instance_facts,
                           kb_from_json, kb_to_json)
from plancell.dataset import AttributeSpec, build_training_set
from plancell.discretize import Schema, apply_map, discretize_supervised
from plancell.errors import (DataError, ModelIntegrityError,
                             UnknownValueError)
from plancell.tree import (INFO_GAIN, InductionGraph, TreeNode, classify_tree,
                           grow)
from test_casi_trace import table_kb


def nominal_set(columns, rows):
    return build_training_set([(name, "nominal") for name in columns], rows)


@pytest.fixture
def stump_kb():
    tree = grow(nominal_set(["x"], [("a", "c1"), ("b", "c2")]), min_leaf=1)
    return compile_tree(tree)


@pytest.fixture
def runs_model(runs11):
    dmap = discretize_supervised(runs11)
    cooked = apply_map(dmap, runs11)
    tree = grow(cooked, INFO_GAIN, min_leaf=1, discretization=dmap)
    return tree, compile_tree(tree), cooked


def facts_of(kb, config):
    return set(established_facts(kb, config))


def test_stump_compilation_layout(stump_kb):
    kb = stump_kb
    assert kb.facts == ("s0", "s1", "s2", "x=a", "x=b", "class=c1", "class=c2")
    assert kb.fact_count == 7
    assert kb.rule_count == 4
    assert list(kb.input_flags) == [False, False, False, True, True, True, True]
    # rule 0 is s0 & x=a -> s1
    premise_col = kb.premise_matrix[:, 0]
    assert [kb.facts[i] for i in np.flatnonzero(premise_col)] == ["s0", "x=a"]
    conclusion_col = kb.conclusion_matrix[:, 0]
    assert [kb.facts[i] for i in np.flatnonzero(conclusion_col)] == ["s1"]


def test_single_leaf_compilation():
    kb = compile_tree(grow(nominal_set(["x"], [("a", "C"), ("b", "C")])))
    assert kb.facts == ("s0", "class=C")
    assert kb.rule_count == 1


def test_runs_kb_layout(runs_model):
    _, kb, _ = runs_model
    assert kb.fact_count == 24
    assert kb.rule_count == 20
    assert kb.facts[:12] == tuple(f"s{i}" for i in range(12))
    assert kb.facts[12:] == (
        "problem=blocks-4", "problem=blocks-7", "problem=blocks-6",
        "problem=blocks-5", "steps=b0", "steps=b1", "steps=b2",
        "class=P1", "class=P2", "class=P3", "class=P4", "class=P5")
    # each rule concludes exactly one fact and needs one or two
    assert list(kb.conclusion_matrix.sum(axis=0)) == [1] * 20
    assert set(kb.premise_matrix.sum(axis=0)) == {1, 2}


def test_input_flags_mark_non_node_facts(runs_model):
    _, kb, _ = runs_model
    for fact, flag in zip(kb.facts, kb.input_flags):
        assert flag == ("=" in fact)


def test_input_tables_equal_the_per_attribute_scan():
    # attribute names that prefix each other (a, ab), one spelled like a
    # node fact (s1), and values that hold "="
    domain = ("x", "y=z", "=")
    schema = Schema(tuple(AttributeSpec(name, "nominal", domain)
                          for name in ("a", "ab", "s1")), ("C",))
    facts = ("s0", "s1", "a=x", "ab=x", "a=y=z", "ab==", "s1=x", "ab=y=z",
             "a==", "class=C")
    kb = CellularKnowledgeBase(
        facts, (ClassificationRule(("s0",), "class=C"),), schema)
    scan = [(spec.name, [(f[len(spec.name) + 1:], f) for f in facts
                         if f.startswith(spec.name + "=")])
            for spec in schema.attributes]
    assert [(name, list(table.items())) for name, table in kb._input_tables] \
        == scan
    assert scan[0][1] == [("x", "a=x"), ("y=z", "a=y=z"), ("=", "a==")]


def test_fact_index_unknown(stump_kb):
    with pytest.raises(UnknownValueError, match="unknown fact"):
        infer(stump_kb, ["x=z"])


def test_initial_configuration(stump_kb):
    config = infer(stump_kb, ["s0", "x=a"])[0]
    assert facts_of(stump_kb, config) == {"s0", "x=a"}
    assert not config.SF.any()
    assert not config.ER.any()
    assert config.IR.all()
    assert not config.SR.any()
    assert config.generation == 0
    assert np.array_equal(config.IF, stump_kb.input_flags)


def test_initial_configuration_shares_the_read_only_input_flags(runs_model):
    _, kb, _ = runs_model
    for base in (kb, kb_from_json(kb_to_json(kb))):
        assert infer(base, ())[0].IF is base.input_flags
        assert not base.input_flags.flags.writeable


# The trace stops at the first configuration whose successor has the same
# registers; the dense oracle's comparison is the reference for that rule.

def test_configuration_equality_ignores_generation(stump_kb):
    config = oracles.casi_initial(stump_kb, ["s0"])
    assert oracles.same_registers(replace(config, generation=99), config)
    assert not oracles.same_registers(replace(config, EF=~config.EF), config)


@pytest.mark.parametrize("register", oracles.REGISTERS)
def test_configuration_equality_reads_every_register(stump_kb, register):
    config = oracles.casi_initial(stump_kb, ["s0"])
    cells = getattr(config, register)
    assert not oracles.same_registers(
        replace(config, **{register: ~cells}), config)
    assert oracles.same_registers(
        replace(config, **{register: cells.copy()}), config)


def test_assessment_pass_marks_satisfied_rules(stump_kb):
    kb = stump_kb
    config = infer(kb, ["s0", "x=a"])[1]
    assert [kb.rules[j].conclusion for j in np.flatnonzero(config.ER)] == ["s1"]
    assert facts_of(kb, replace(config, EF=config.SF)) == {"s0", "x=a"}


def test_assessment_needs_every_premise(stump_kb):
    kb = stump_kb
    # both edge rules also need their x fact
    assert not any(config.ER.any() for config in infer(kb, ["s0"]))
    assert not any(config.ER.any() for config in infer(kb, []))


def test_execution_pass_establishes_conclusions(stump_kb):
    kb = stump_kb
    config = infer(kb, ["s0", "x=a"])[1]
    assert facts_of(kb, config) == {"s0", "x=a", "s1"}
    assert list(config.SR) == [not e for e in config.ER]


def test_execution_with_no_eligible_rules(stump_kb):
    kb = stump_kb
    after = infer(kb, ["s0"])[1]
    assert facts_of(kb, after) == {"s0"}
    assert after.SR.all()


def test_execution_runs_all_eligible_rules_at_once(stump_kb):
    kb = stump_kb
    after = infer(kb, ["s1", "s2"])[1]
    assert facts_of(kb, after) == {"s1", "s2", "class=c1", "class=c2"}


def test_inference_trace_on_stump(stump_kb):
    kb = stump_kb
    trace = infer(kb, ["s0", "x=a"])
    assert [c.generation for c in trace] == [0, 1, 2, 3]
    assert facts_of(kb, trace[-1]) == {"s0", "x=a", "s1", "class=c1"}
    assert facts_of(kb, trace[1]) == {"s0", "x=a", "s1"}
    # the last generation only lets the echo registers catch up
    assert facts_of(kb, trace[2]) == facts_of(kb, trace[3])


def test_trace_is_a_lazy_sequence(stump_kb):
    trace = infer(stump_kb, ["s0", "x=a"])
    assert len(trace) == 4
    assert [c.generation for c in trace] == [0, 1, 2, 3]
    assert [trace[g].generation for g in (-4, -1, 0, 3)] == [0, 3, 0, 3]
    assert [c.generation for c in trace[1:3]] == [1, 2]
    assert [c.generation for c in reversed(trace)] == [3, 2, 1, 0]
    for index in (4, -5, 99):
        with pytest.raises(IndexError):
            trace[index]


@pytest.mark.parametrize("register", oracles.REGISTERS)
def test_trace_registers_are_read_only(stump_kb, register):
    for trace in (infer(stump_kb, ["s0", "x=a"]), infer(stump_kb, [])):
        for config in trace:
            with pytest.raises(ValueError, match="read-only"):
                getattr(config, register)[0] = True
    with pytest.raises(ValueError, match="read-only"):
        getattr(infer(stump_kb, ["s0"])[0], register)[0] = True


def test_inference_from_nothing_stops_immediately(stump_kb):
    trace = infer(stump_kb, [])
    assert len(trace) == 2
    assert not trace[-1].EF.any()
    assert trace[-1].SR.all()


def chain_tree(depth):
    """A degenerate tree: one branch per level, to pace the inference."""
    root = TreeNode("s0", {"C": 1}, "a0")
    node = root
    for level in range(1, depth):
        child = TreeNode(f"s{level}", {"C": 1}, f"a{level}")
        node.children["u"] = child
        node = child
    node.children["u"] = TreeNode(f"s{depth}", {"C": 1})
    attrs = tuple(build_training_set(
        [(f"a{i}", "nominal") for i in range(depth)],
        [tuple(["u"] * depth) + ("C",)]).attributes)
    return InductionGraph(root, Schema(attrs, ("C",)), INFO_GAIN)


@pytest.mark.parametrize("depth", [1, 2, 4, 7])
def test_inference_length_tracks_tree_depth(depth):
    kb = compile_tree(chain_tree(depth))
    seeds = ["s0"] + [f"a{i}=u" for i in range(depth)]
    trace = infer(kb, seeds)
    # one generation per level, one for the class fact, one echo step
    assert trace[-1].generation == depth + 2
    for earlier, later in zip(trace, trace[1:]):
        assert not (earlier.EF & ~later.EF).any()
        assert not (earlier.ER & ~later.ER).any()
        assert later.IR.all()
    assert "class=C" in facts_of(kb, trace[-1])


def test_classification_matches_tree_on_training_data(runs_model):
    tree, kb, cooked = runs_model
    for inst in cooked.instances:
        expected, path = classify_tree(tree, inst)
        assert classify_casi(kb, inst) == expected == inst.label
        final = infer(kb, [kb.facts[0]] + instance_facts(kb, inst))[-1]
        node_facts = {f for f in facts_of(kb, final) if "=" not in f}
        assert node_facts == set(path)


def test_classification_bins_raw_numerics(runs_model):
    _, kb, _ = runs_model
    assert classify_casi(kb, ("blocks-4", 0.032237, 6.0)) == "P1"
    assert classify_casi(kb, ("blocks-5", 0.092918, 12.0)) == "P3"


def test_classification_refuses_nan_where_the_tree_walk_does(runs_model):
    tree, kb, _ = runs_model
    case = ("blocks-4", 0.032237, math.nan)
    assert instance_facts(kb, case) == ["problem=blocks-4"]
    with pytest.raises(UnknownValueError, match="no class fact"):
        classify_casi(kb, case)
    with pytest.raises(UnknownValueError):
        classify_tree(tree, case)
    case = ("blocks-4", math.nan, 6.0)  # time is never tested
    assert classify_casi(kb, case) == classify_tree(tree, case)[0] == "P1"


def test_instance_facts_drop_untested_descriptors(runs_model):
    _, kb, _ = runs_model
    facts = instance_facts(kb, ("blocks-4", 0.032237, 6.0))
    assert facts == ["problem=blocks-4", "steps=b0"]  # time is never tested


def test_instance_facts_check_schema_width(runs_model):
    _, kb, _ = runs_model
    with pytest.raises(DataError, match="values"):
        instance_facts(kb, ("blocks-4", 6.0))


def test_unknown_value_when_no_class_fact_fires():
    ts = nominal_set(["x", "y"], [
        ("a", "p", "c1"), ("a", "p", "c1"), ("a", "q", "c2"), ("a", "q", "c2"),
        ("b", "p", "c3"), ("b", "q", "c3"), ("b", "r", "c3")])
    kb = compile_tree(grow(ts, INFO_GAIN, min_leaf=1))
    with pytest.raises(UnknownValueError, match="no class fact"):
        classify_casi(kb, ("a", "r"))


def test_multiple_class_facts_flag_inconsistency():
    doc = {
        "format": "cellular-kb",
        "facts": [{"descriptor": "s0", "input": 0},
                  {"descriptor": "class=A", "input": 1},
                  {"descriptor": "class=B", "input": 1}],
        "rules": [{"premises": ["s0"], "conclusion": "class=A"},
                  {"premises": ["s0"], "conclusion": "class=B"}],
        "R_E": ["11", "00", "00"],
        "R_S": ["00", "10", "01"],
        "attributes": [], "classes": ["A", "B"], "discretization": None,
    }
    kb = kb_from_json(doc)
    with pytest.raises(ModelIntegrityError, match="multiple class facts"):
        classify_casi(kb, ())


def test_classification_runs_module_infer_once_per_case(runs_model,
                                                        monkeypatch):
    # a traced run reads generations from the calls of the module-level name
    _, kb, cooked = runs_model
    cases = [inst.values for inst in cooked.instances]
    cases += [("blocks-9", 0.5, 6.0), ("blocks-4", 0.032237, 99.0)]
    seeds = []
    real = casi.infer

    def counting(kb, initial_facts):
        seeds.append(list(initial_facts))
        return real(kb, initial_facts)

    monkeypatch.setattr(casi, "infer", counting)
    for values in cases:
        try:
            classify_casi(kb, values)
        except UnknownValueError:
            pass
    assert seeds == [[kb.facts[0]] + instance_facts(kb, v) for v in cases]


@pytest.mark.parametrize("field", ["input_flags", "premise_matrix",
                                   "conclusion_matrix"])
def test_wiring_is_read_only(runs_model, field):
    _, kb, _ = runs_model
    for base in (kb, kb_from_json(kb_to_json(kb))):
        with pytest.raises(ValueError, match="read-only"):
            getattr(base, field)[0] = True


@pytest.mark.parametrize("facts,rules,message", [
    ([], [(["s0"], "s1")], "rule base has no facts"),
    (["s0", "s1"], [], "rule base has no rules"),
    (["s0", "s1", "s0"], [(["s0"], "s1")], "duplicate fact descriptors"),
    (["s0", "s1"], [(["s0", "s2"], "s1")], "rule premise 's2' is not a fact"),
    (["s0", "s1"], [(["s0"], "s2")], "rule conclusion 's2' is not a fact"),
])
def test_base_checks_its_tables(facts, rules, message):
    with pytest.raises(ModelIntegrityError, match=message):
        table_kb(facts, rules)


def test_repeated_premise_counts_once():
    kb = table_kb(["a", "x=u", "b"], [(["a", "x=u", "a"], "b")])
    assert kb.premise_matrix[:, 0].tolist() == [True, True, False]
    assert kb.input_flags.tolist() == [False, True, False]
    assert infer(kb, ["a", "x=u"]).fact_gen == (0, 0, 1)
    assert infer(kb, ["a"]).fact_gen == (0, casi.NEVER, casi.NEVER)


@pytest.mark.parametrize("premises", [["p", "q2"], ["q2", "p"]])
def test_two_derived_premises_fire_after_the_later_wave(premises):
    # p lands in wave 1 and q2 in wave 2, so the rule reading both fires
    # at 3, whichever premise it lists first
    kb = table_kb(["s", "p", "q1", "q2", "r"],
                  [(["s"], "p"), (["s"], "q1"), (["q1"], "q2"), (premises, "r")])
    assert infer(kb, ["s"]).fact_gen == (0, 1, 1, 2, 3)
    assert infer(kb, ["s", "q2"]).fact_gen == (0, 1, 1, 0, 2)


def test_an_unseeded_premise_no_rule_concludes_blocks_its_rule():
    # no rule concludes x=u or y=v: only a seed sets them
    kb = table_kb(["s", "p", "x=u", "y=v", "r", "t"],
                  [(["s"], "p"), (["p", "x=u"], "r"), (["x=u", "y=v"], "t")])
    never = casi.NEVER
    assert infer(kb, ["s"]).fact_gen == (0, 1, never, never, never, never)
    assert infer(kb, ["s", "y=v"]).fact_gen == (0, 1, never, 0, never, never)
    assert infer(kb, ["s", "x=u"]).fact_gen == (0, 1, 0, never, 2, never)
    assert infer(kb, ["y=v", "x=u", "s"]).fact_gen == (0, 1, 0, 0, 2, 1)


def test_runaway_inference_is_capped():
    # a chain f0 -> f1 -> f2 -> f3 of three rules reaches the bound of
    # rule_count + 2 configurations: three waves, then the echo catches up
    kb = table_kb([f"f{i}" for i in range(4)],
                  [([f"f{i}"], f"f{i + 1}") for i in range(3)])
    trace = infer(kb, ["f0"])
    assert len(trace) == kb.rule_count + 2 == 5
    assert list(trace.fact_gen) == [0, 1, 2, 3]


def test_vectorized_passes_match_scalar_loops():
    # the dense oracle passes, and the engine's first generation, against
    # per-cell loops over random rule tables (repeated premises included)
    rng = random.Random(77)
    for _ in range(30):
        l, r = rng.randint(2, 9), rng.randint(1, 9)
        facts = [f"f{i}" for i in range(l)]
        rules = []
        for _ in range(r):
            conclusion = rng.choice(facts)
            others = [f for f in facts if f != conclusion]
            rules.append((rng.choices(others, k=rng.randint(1, 3)), conclusion))
        kb = table_kb(facts, rules)
        ef = np.array([rng.random() < 0.5 for _ in range(l)])
        er = np.array([rng.random() < 0.5 for _ in range(r)])

        def eligible(ef):
            return [all(ef[facts.index(p)] for p in premises)
                    for premises, _ in rules]

        def executed(ef, er):
            return [ef[i] or any(c == f and er[j]
                                 for j, (_, c) in enumerate(rules))
                    for i, f in enumerate(facts)]

        assert list(oracles.casi_eligible(kb, ef)) == eligible(ef)
        config = replace(oracles.casi_initial(kb), EF=ef, ER=er)
        assert list(oracles.casi_delta_rule(kb, config).EF) == executed(ef, er)
        first = infer(kb, [f for f, on in zip(facts, ef) if on])[1]
        assert list(first.ER) == eligible(ef)
        assert list(first.EF) == executed(ef, first.ER)


def random_training_set(rng):
    n_attrs = rng.randint(1, 4)
    columns = [f"x{i}" for i in range(n_attrs)]
    values = ["v0", "v1", "v2", "v3", "v4"][:rng.randint(2, 5)]
    classes = [f"K{i}" for i in range(rng.randint(2, 5))]
    rows = [tuple(rng.choice(values) for _ in columns) + (rng.choice(classes),)
            for _ in range(rng.randint(5, 25))]
    return nominal_set(columns, rows), values


def test_cellular_engine_agrees_with_tree_walks():
    rng = random.Random(4242)
    for _ in range(30):
        ts, values = random_training_set(rng)
        tree = grow(ts, INFO_GAIN, min_leaf=rng.choice([1, 2]))
        kb = compile_tree(tree)
        for _ in range(20):
            inst = tuple(rng.choice(values) for _ in ts.attributes)
            try:
                expected, path = classify_tree(tree, inst)
            except UnknownValueError:
                with pytest.raises(UnknownValueError):
                    classify_casi(kb, inst)
                continue
            assert classify_casi(kb, inst) == expected
            final = infer(kb, [kb.facts[0]] + instance_facts(kb, inst))[-1]
            node_facts = {f for f in facts_of(kb, final) if "=" not in f}
            assert node_facts == set(path)


def test_kb_json_round_trip(runs_model):
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    rebuilt = kb_from_json(json.loads(json.dumps(doc)))
    assert rebuilt.facts == kb.facts
    assert rebuilt.rules == kb.rules
    assert np.array_equal(rebuilt.premise_matrix, kb.premise_matrix)
    assert np.array_equal(rebuilt.conclusion_matrix, kb.conclusion_matrix)
    assert list(rebuilt.input_flags) == list(kb.input_flags)
    assert rebuilt.schema == kb.schema
    assert classify_casi(rebuilt, ("blocks-4", 0.032237, 6.0)) == "P1"


def test_kb_json_rejects_wrong_format():
    with pytest.raises(ModelIntegrityError, match="cellular-kb"):
        kb_from_json({"format": "induction-graph"})


def test_kb_json_rejects_flipped_matrix_bit(runs_model):
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    row = doc["R_E"][0]
    doc["R_E"][0] = ("1" if row[0] == "0" else "0") + row[1:]
    with pytest.raises(ModelIntegrityError, match="disagrees"):
        kb_from_json(doc)


@pytest.mark.parametrize("matrix", ["R_E", "R_S"])
@pytest.mark.parametrize("bit", ["x", "2", " "])
def test_kb_json_rejects_bits_other_than_0_and_1(runs_model, matrix, bit):
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    doc[matrix][0] = doc[matrix][0].replace("0", bit, 1)
    with pytest.raises(ModelIntegrityError, match="bits other than 0 and 1"):
        kb_from_json(doc)


@pytest.mark.parametrize("flag", ["no", "1", 2, -1, 1.0, True, None])
def test_kb_json_rejects_input_flags_other_than_0_and_1(runs_model, flag):
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    doc["facts"][0]["input"] = flag
    with pytest.raises(ModelIntegrityError, match="input flags"):
        kb_from_json(doc)


@pytest.mark.parametrize("index", [0, 12])
def test_kb_json_rejects_input_flag_that_disagrees_with_descriptor(runs_model,
                                                                   index):
    # s0 flagged as an input, problem=blocks-4 flagged as none
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    fact = doc["facts"][index]
    fact["input"] = 1 - fact["input"]
    with pytest.raises(ModelIntegrityError, match=(
            f"input flag {fact['input']} of fact {fact['descriptor']!r} "
            f"disagrees with its descriptor")):
        kb_from_json(doc)


def test_kb_json_rejects_a_first_fact_that_is_not_the_root(runs_model):
    # s0 and s1 swapped along with their matrix rows: every other check
    # passes, and inference would seed s1 as the root
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    for key in ("facts", "R_E", "R_S"):
        doc[key][0], doc[key][1] = doc[key][1], doc[key][0]
    with pytest.raises(ModelIntegrityError, match=re.escape(
            "the first fact, 's1', must be the only node fact no rule "
            "concludes; those are ['s0']")):
        kb_from_json(doc)


def test_classify_refuses_a_base_whose_first_fact_is_not_the_root(runs_model,
                                                                  runs11):
    # built directly, not loaded: classification used to seed s1 as the root
    # and label 6 of the 11 runs differently from the tree walk
    _, kb, _ = runs_model
    swapped = replace(kb, facts=(kb.facts[1], kb.facts[0], *kb.facts[2:]))
    for inst in runs11.instances:
        with pytest.raises(ModelIntegrityError, match=re.escape(
                "the first fact, 's1', must be the only node fact no rule "
                "concludes; those are ['s0']")):
            classify_casi(swapped, inst)


@pytest.mark.parametrize("old,new", [("problem=blocks-4", "problem=zzz"),
                                     ("problem=blocks-4", "colour=red"),
                                     ("class=P1", "class=P9")])
def test_kb_json_rejects_input_fact_outside_the_schema(runs_model, old, new):
    _, kb, _ = runs_model
    doc = json.loads(json.dumps(kb_to_json(kb)).replace(f'"{old}"', f'"{new}"'))
    with pytest.raises(ModelIntegrityError, match=re.escape(
            f"input fact {new!r} names no domain value or class")):
        kb_from_json(doc)


def test_kb_json_rejects_unknown_premise(runs_model):
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    doc["rules"][0]["premises"] = ["ghost"]
    with pytest.raises(ModelIntegrityError, match="not a fact"):
        kb_from_json(doc)


def test_kb_json_rejects_unknown_conclusion(runs_model):
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    doc["rules"][0]["conclusion"] = "ghost"
    with pytest.raises(ModelIntegrityError,
                       match="rule conclusion 'ghost' is not a fact"):
        kb_from_json(doc)


def test_kb_json_rejects_bad_shape(runs_model):
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    doc["R_S"] = doc["R_S"][:-1]
    with pytest.raises(ModelIntegrityError, match="shape"):
        kb_from_json(doc)


def test_kb_json_rejects_duplicate_facts(runs_model):
    _, kb, _ = runs_model
    doc = kb_to_json(kb)
    doc["facts"][1] = dict(doc["facts"][0])
    with pytest.raises(ModelIntegrityError, match="duplicate fact"):
        kb_from_json(doc)


def test_fact_table_rendering(stump_kb):
    table = format_fact_table(stump_kb, infer(stump_kb, ["s0"])[0])
    lines = table.splitlines()
    assert lines[0].split() == ["Facts", "EF", "IF", "SF"]
    assert len(lines) == 1 + stump_kb.fact_count
    assert lines[1].split() == ["s0", "1", "0", "0"]
    assert lines[4].split() == ["x=a", "0", "1", "0"]


def test_rule_table_rendering(stump_kb):
    table = format_rule_table(stump_kb)
    lines = table.splitlines()
    assert lines[0].split() == ["Rules", "ER", "IR", "SR"]
    assert lines[1].startswith("R1: s0 & x=a -> s1")
    assert lines[1].split()[-3:] == ["0", "1", "0"]


def test_incidence_rendering(stump_kb):
    text = format_incidence(stump_kb)
    assert "Input relation:" in text
    assert "Output relation:" in text
    assert "R1  R2  R3  R4" in text
