"""The cellular engine against the dense, copy-per-pass engine in ``oracles``.

Property tests: ``infer`` gives the oracle's trace configuration by
configuration (all six registers, every generation number, the trace
length) and the oracle's fact generations on random rule tables and on
compiled trees, a bench-sized nominal base among them; each configuration
is the dense assessment and execution passes applied to its predecessor;
``instance_facts`` seeds what spelling every value ``name=value`` seeds;
``classify_casi`` answers or fails as the oracle does.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plancell.casi import (CellularKnowledgeBase, ClassificationRule,
                           classify_casi, compile_tree, infer, instance_facts,
                           kb_from_json)
from plancell.dataset import (NOMINAL, NUMERIC, AttributeSpec, TrainingSet,
                              build_training_set)
from plancell.discretize import DiscretizationMap, Schema, apply_map
from plancell.errors import ModelIntegrityError, PlancellError
from plancell.tree import induce
from test_encoding import fitted, trained

PROPERTY = settings(max_examples=60, deadline=None)


def outcome(fn, *args):
    """A result, or the type and message of the error raised instead."""
    try:
        return fn(*args)
    except PlancellError as exc:
        return type(exc), str(exc)


def assert_same_trace(got, want):
    assert len(got) == len(want)
    assert type(got.fact_gen) is tuple
    assert got.fact_gen == oracles.casi_generations(want)[0]
    for g, w in zip(got, want):
        assert g.generation == w.generation
        for name in oracles.REGISTERS:
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def table_kb(facts, rules):
    """A base from descriptors and (premises, conclusion) pairs, no schema."""
    return CellularKnowledgeBase(
        tuple(facts), tuple(ClassificationRule(tuple(p), c) for p, c in rules),
        Schema((), ()))


@st.composite
def wirings(draw):
    """A random rule table and seeds (some repeated) over 6-12 facts.

    Some facts carry an input flag. Every draw has a two-rule cycle between
    two facts, a fact that several rules conclude, a rule with a repeated
    premise, a rule with two premises that other rules conclude, rules with
    premises that no rule concludes (first, or all of them), a fact that no
    rule reads and a seed that some rule concludes, among 6-13 rules in
    random order.
    """
    l = draw(st.integers(6, 12))
    facts = [f"x=v{i}" if draw(st.booleans()) else f"f{i}" for i in range(l)]
    a, b, c, d, free, unread = draw(st.permutations(facts))[:6]
    readable = [f for f in facts if f != unread]
    rules = [([a], b), ([b], a), ([c, c], b), ([a, b], d), ([free, c], d),
             ([c, a], d)]
    for _ in range(draw(st.integers(0, 7))):
        conclusion = draw(st.sampled_from([f for f in facts if f not in (c, free)]))
        rules.append((draw(st.lists(
            st.sampled_from([f for f in readable if f != conclusion]),
            min_size=1, max_size=3)), conclusion))
    kb = table_kb(facts, draw(st.permutations(rules)))
    seeds = draw(st.lists(st.sampled_from(facts), max_size=2 * l))
    seeds.insert(draw(st.integers(0, len(seeds))), draw(st.sampled_from([a, b, d])))
    return kb, seeds


@given(wirings())
@PROPERTY
def test_trace_equals_oracle_on_random_wiring(drawn):
    kb, seeds = drawn
    trace = infer(kb, seeds)
    assert_same_trace(trace, oracles.casi_infer(kb, seeds))
    assert len(trace) <= kb.rule_count + 2


@given(wirings())
@PROPERTY
def test_each_generation_is_the_dense_passes_of_its_predecessor(drawn):
    kb, seeds = drawn
    trace = infer(kb, seeds)
    for config, succ in zip(trace, list(trace[1:]) + [trace[-1]]):
        assessed = oracles.casi_delta_fact(kb, config)
        assert np.array_equal(assessed.SF, succ.SF)
        assert np.array_equal(assessed.ER, succ.ER)
        executed = oracles.casi_delta_rule(kb, assessed)
        assert np.array_equal(executed.EF, succ.EF)
        assert np.array_equal(executed.SR, succ.SR)


@given(wirings())
@PROPERTY
def test_each_rule_waits_on_its_concluded_premises_or_its_first(drawn):
    # a premise no rule concludes can only be a seed, so only a rule none
    # of whose premises is concluded needs a watch of its own: its first
    kb, _ = drawn
    concluded = {rule.conclusion for rule in kb.rules}
    want = Counter()
    for rule in kb.rules:
        watched = {p for p in rule.premises if p in concluded}
        for w in watched or {rule.premises[0]}:
            want[w, frozenset(rule.premises), rule.conclusion] += 1
    name = kb.facts.__getitem__
    got = Counter((name(w), frozenset(map(name, (w, other, *more))), name(c))
                  for w, entries in enumerate(kb._watches)
                  for other, more, c in entries)
    assert got == want


@st.composite
def tree_bases(draw):
    """A compiled j48 or reptree base, its training rows and raw cases."""
    ts, dmap, cases = draw(fitted())
    _, kb = trained(ts, dmap, draw(st.sampled_from(["j48", "reptree"])),
                    draw(st.integers(0, 3)))
    return kb, cases + list(ts.rows)


@given(tree_bases())
@PROPERTY
def test_trace_equals_oracle_on_compiled_trees(drawn):
    kb, cases = drawn
    for values in cases:
        seeds = [kb.facts[0]] + instance_facts(kb, values)
        assert seeds[1:] == oracles.casi_instance_facts(kb, values)
        assert_same_trace(infer(kb, seeds), oracles.casi_infer(kb, seeds))


def test_trace_equals_oracle_on_a_bench_sized_base():
    """A j48 base over 8 nominal attributes of 4 values and 10 noisy
    classes, hundreds of facts and rules deep, as the benchmark's deep base
    is: the hypothesis draws reach only small bases. Some cases carry a
    value the base never tests."""
    rng = random.Random(7)
    rows = []
    for _ in range(2000):
        x = [rng.randrange(4) for _ in range(8)]
        label = (3 * x[0] + 2 * x[1] + x[2] + x[3]) % 10
        if rng.random() < 0.08:
            label = rng.randrange(10)
        rows.append(tuple(f"v{v}" for v in x) + (f"c{label}",))
    ts = build_training_set([(f"a{i}", NOMINAL) for i in range(8)], rows)
    kb = compile_tree(induce(ts, "j48"))
    assert kb.fact_count > 300 and kb.rule_count > 300
    cases = [list(values[:-1]) for values in rng.sample(rows, 20)]
    for values in cases[::4]:
        values[rng.randrange(4)] = "v9"
    answers = []
    for values in cases:
        seeds = [kb.facts[0]] + instance_facts(kb, values)
        assert_same_trace(infer(kb, seeds), oracles.casi_infer(kb, seeds))
        answers.append(outcome(classify_casi, kb, values))
        assert answers[-1] == outcome(oracles.casi_label, kb, values)
    assert 0 < sum(type(a) is tuple for a in answers) < len(answers)


# Strings a fact may spell after "name=", and further strings a case may
# carry: bin labels, spellings of numbers and bools, '=' inside a value.
SPELLINGS = ["a", "b", "a=b", "=", "b0", "b1", "b2", "1", "1.5", "True",
             "nan", "inf"]
CASE_STRINGS = SPELLINGS + ["unseen", "a=b=c", "x0=a", ""]


def binned_spec(dmap, spec):
    """The spec ``apply_map`` writes for a numeric attribute ``dmap`` cuts."""
    one_row = TrainingSet((spec,), ("K",), ((0.0,),), ("K",))
    return apply_map(dmap, one_row).attributes[0]


@st.composite
def input_bases(draw):
    """A base over 1-4 attributes whose facts spell some values of each,
    and raw cases for it.

    The base has no map, or a map that cuts some numeric attributes (some
    with no cuts at all) and leaves the others out; an attribute it cuts
    carries the nominal spec of bins ``apply_map`` writes. Case values are ints,
    halves and quarters (on and between cuts), bools, NaN, infinities and
    strings, a fact's own among them.
    """
    kinds = draw(st.lists(st.sampled_from([NOMINAL, NUMERIC]),
                          min_size=1, max_size=4))
    names = [f"x{i}" for i in range(len(kinds))]
    halves = st.lists(st.integers(-8, 8), max_size=3, unique=True).map(
        lambda cs: tuple(c / 2 for c in sorted(cs)))
    cuts = {name: draw(halves) for name, kind in zip(names, kinds)
            if kind == NUMERIC and draw(st.booleans())}
    dmap = DiscretizationMap(cuts) if draw(st.booleans()) else None
    domain = st.lists(st.sampled_from(SPELLINGS), min_size=1, unique=True)
    specs = tuple(AttributeSpec(name, kind, (-5.0, 5.0) if kind == NUMERIC
                                else tuple(draw(domain)))
                  for name, kind in zip(names, kinds))
    if dmap is not None:
        specs = tuple(binned_spec(dmap, s) if s.name in cuts else s for s in specs)
    facts = ["s0"] + [f"{name}={value}" for name in names for value in
                      draw(st.lists(st.sampled_from(SPELLINGS), unique=True))]
    kb = CellularKnowledgeBase(
        tuple(facts + ["class=K"]), (ClassificationRule(("s0",), "class=K"),),
        Schema(specs, ("K",), dmap))
    value = st.one_of(st.integers(-6, 6),
                      st.integers(-24, 24).map(lambda k: k / 4), st.booleans(),
                      st.sampled_from([math.nan, math.inf, -math.inf]),
                      st.sampled_from(CASE_STRINGS))
    cases = draw(st.lists(st.tuples(*[value] * len(names)), min_size=1,
                          max_size=10))
    return kb, cases


@given(input_bases())
@PROPERTY
def test_instance_facts_equal_the_spelling_oracle(drawn):
    kb, cases = drawn
    for values in cases:
        assert instance_facts(kb, values) == oracles.casi_instance_facts(kb, values)


@given(tree_bases())
@PROPERTY
def test_classification_equals_oracle_on_compiled_trees(drawn):
    kb, cases = drawn
    for values in cases:
        assert (outcome(classify_casi, kb, values)
                == outcome(oracles.casi_label, kb, values))


def hand_built(facts, rules, attributes=()):
    """A rule-base document from descriptors and (premises, conclusion) pairs."""
    def rows(column_of):
        return ["".join("1" if f in column_of(rule) else "0" for rule in rules)
                for f in facts]
    return kb_from_json({
        "format": "cellular-kb",
        "facts": [{"descriptor": f, "input": int("=" in f)} for f in facts],
        "rules": [{"premises": p, "conclusion": c} for p, c in rules],
        "R_E": rows(lambda rule: rule[0]),
        "R_S": rows(lambda rule: [rule[1]]),
        "attributes": [{"name": name, "kind": "nominal", "domain": domain}
                       for name, domain in attributes],
        "classes": sorted(f.removeprefix("class=") for f in facts
                          if f.startswith("class=")),
        "discretization": None,
    })


@pytest.mark.parametrize("kb, values", [
    (hand_built(["s0", "class=A", "class=B"],
                [(["s0"], "class=A"), (["s0"], "class=B")]), ()),
    (hand_built(["s0", "s1", "x=u", "class=A", "class=B", "class=C"],
                [(["s0", "x=u"], "s1"), (["s1"], "class=A"),
                 (["s1"], "class=C"), (["s0"], "class=B")],
                [("x", ["u", "v"])]), ("u",)),
    (hand_built(["s0", "s1", "class=P=1", "class=P=2"],
                [(["s0"], "s1"), (["s1"], "class=P=1"), (["s0"], "class=P=2")]),
     ()),
])
def test_inconsistent_bases_fail_as_the_oracle_does(kb, values):
    got = outcome(classify_casi, kb, values)
    assert got[0] is ModelIntegrityError
    assert "multiple class facts" in got[1]
    assert got == outcome(oracles.casi_label, kb, values)


def test_a_class_label_holding_an_equals_sign_is_read_whole():
    # the class is all that follows the first "class=", later "=" included
    kb = hand_built(["s0", "class=P=1", "class=P=2"], [(["s0"], "class=P=1")])
    assert classify_casi(kb, ()) == oracles.casi_label(kb, ()) == "P=1"
