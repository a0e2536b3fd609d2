import json
import math
import random
import sys
from graphlib import TopologicalSorter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancell import enumerate_plans, first_plan, parse_project, plans
from plancell.errors import DataError
from plancell.plans import Plan, _linearize
from plancell.project import ProjectGraph, ProjectParseError, Task

from oracles import (brute_force_plans, dfs_find_cycle, reference_solutions,
                     reference_truncation, wave_linearize)

FIRE_P1 = ("Begin", "FU1", "PU1", "FU(L0,L1)", "PU(L0,L1)",
           "fireman", "police", "extinguish_fire")


def build(tasks, entry, exit):
    return parse_project(json.dumps({"entry": entry, "exit": exit, "tasks": tasks}))


def ranked(chosen):
    """A topological rank of a closed, acyclic choice map."""
    order = TopologicalSorter(chosen).static_order()
    return {task: i for i, task in enumerate(order)}


def test_fire_has_eight_plans(fire):
    result = enumerate_plans(fire)
    assert len(result.plans) == 8
    assert not result.truncated


def test_fire_first_plan_sequence(fire):
    plans = enumerate_plans(fire).plans
    assert plans[0].steps == FIRE_P1


def test_labels_follow_sorted_order(fire):
    plans = enumerate_plans(fire).plans
    assert [p.id for p in plans] == [f"P{i}" for i in range(1, 9)]
    assert list(plans) == sorted(plans, key=lambda p: p.steps)


def test_fire_matches_brute_force(fire):
    got = {p.steps for p in enumerate_plans(fire).plans}
    assert got == brute_force_plans(fire)


def test_every_fire_plan_starts_and_ends_right(fire):
    for plan in enumerate_plans(fire).plans:
        assert plan.steps[0] == "Begin"
        assert plan.steps[-1] == "extinguish_fire"


def test_alternative_count_multiplies():
    # two independent 3-way choices feeding the exit: 3 * 3 plans
    tasks = [{"id": "t0", "pre": []}]
    for side in ("a", "b"):
        for i in range(3):
            tasks.append({"id": f"{side}{i}", "pre": [["t0"]]})
        tasks.append({"id": f"{side}x",
                      "pre": [[f"{side}{i}"] for i in range(3)]})
    tasks.append({"id": "t9", "pre": [["ax", "bx"]]})
    graph = build(tasks, "t0", "t9")
    result = enumerate_plans(graph)
    assert len(result.plans) == 9
    assert {p.steps for p in result.plans} == brute_force_plans(graph)


def test_truncation(fire):
    result = enumerate_plans(fire, max_plans=3)
    assert len(result.plans) == 3
    assert result.truncated
    full = enumerate_plans(fire).plans
    assert [p.steps for p in result.plans] == [p.steps for p in full[:3]]


def test_max_plans_must_be_positive(fire):
    with pytest.raises(DataError, match="max_plans"):
        enumerate_plans(fire, max_plans=0)


def test_first_plan_is_one_of_the_enumeration(fire):
    plan = first_plan(fire)
    assert plan is not None
    assert plan.steps in {p.steps for p in enumerate_plans(fire).plans}


def test_unsolvable_graph_yields_nothing():
    # a graph without a plan never constructs, so no enumeration sees one
    with pytest.raises(ProjectParseError, match="unknown task reference 'ghost'"):
        ProjectGraph(
            tasks={"t0": Task(id="t0"),
                   "t9": Task(id="t9", preconditions=(frozenset({"ghost"}),))},
            entry="t0", exit="t9")


def test_linearize_orders_by_wave_then_id():
    chosen = {"a": frozenset(), "c": frozenset({"a"}), "b": frozenset({"c"}),
              "d": frozenset()}
    assert _linearize(chosen, ranked(chosen)) == ("a", "d", "c", "b")


def test_wide_solution_enumerates_without_recursing_per_task():
    # one solution of more tasks than the recursion limit, two waves deep
    n = sys.getrecursionlimit() + 100
    tasks = [{"id": "Begin", "pre": []}]
    tasks += [{"id": f"p{i:04d}", "pre": [["Begin"]]} for i in range(n)]
    tasks.append({"id": "Done", "pre": [[f"p{i:04d}" for i in range(n)]]})
    plans = enumerate_plans(build(tasks, "Begin", "Done")).plans
    assert len(plans) == 1
    assert plans[0].steps[0] == "Begin" and plans[0].steps[-1] == "Done"
    assert len(plans[0].steps) == n + 2


def test_chain_beyond_the_recursion_limit_enumerates():
    # neither the ranking nor the wave pass recurses
    n = sys.getrecursionlimit() + 100
    tasks = [{"id": "c0000", "pre": []}]
    tasks += [{"id": f"c{i:04d}", "pre": [[f"c{i - 1:04d}"]]} for i in range(1, n)]
    graph = build(tasks, "c0000", f"c{n - 1:04d}")
    plan = first_plan(graph)
    assert plan.steps == tuple(t["id"] for t in tasks)
    assert enumerate_plans(graph).plans == (plan,)


def test_plan_rejects_empty_steps():
    with pytest.raises(DataError, match="empty"):
        Plan("P1", ())


def test_plan_rejects_duplicate_steps():
    with pytest.raises(DataError, match="duplicate"):
        Plan("P1", ("a", "b", "a"))


def random_layered_graph(rng, layers=3, width=3):
    """Random solvable AND/OR DAG: tasks only reference earlier layers."""
    tasks = [{"id": "t0", "pre": []}]
    previous = ["t0"]
    for layer in range(1, layers + 1):
        current = []
        for slot in range(rng.randint(1, width)):
            tid = f"L{layer}_{slot}"
            groups = []
            for _ in range(rng.randint(1, 2)):
                size = rng.randint(1, min(2, len(previous)))
                groups.append(sorted(rng.sample(previous, size)))
            tasks.append({"id": tid, "pre": groups})
            current.append(tid)
        previous = current
    size = rng.randint(1, min(2, len(previous)))
    tasks.append({"id": "t9", "pre": [sorted(rng.sample(previous, size))]})
    return build(tasks, "t0", "t9")


def test_random_graphs_match_brute_force():
    rng = random.Random(20240217)
    for _ in range(12):
        graph = random_layered_graph(rng)
        got = {p.steps for p in enumerate_plans(graph).plans}
        assert got == brute_force_plans(graph)


def test_random_plans_are_well_formed():
    rng = random.Random(99)
    for _ in range(8):
        graph = random_layered_graph(rng, layers=4, width=3)
        for plan in enumerate_plans(graph).plans:
            assert len(set(plan.steps)) == len(plan.steps)
            assert plan.steps[0] == "t0"
            assert plan.steps[-1] == "t9"
            seen = set()
            for step in plan.steps:
                pre = graph.tasks[step].preconditions
                assert not pre or any(g <= seen for g in pre)
                seen.add(step)


@st.composite
def task_maps(draw, wild):
    """2-6 tasks wired straight from ``Task`` objects, keyed by id.

    The first task is the entry, the last the exit. Precondition groups
    name earlier tasks, so the graph constructs. With ``wild``, some groups
    may name any task, a later one or the task itself included, or a task
    the graph lacks, so forward references, cycles and dangling groups occur.
    """
    ids = [f"t{i}" for i in range(draw(st.integers(2, 6)))]
    anywhere = st.frozensets(st.sampled_from(ids + ["ghost"]), min_size=1,
                             max_size=2)
    tasks = {ids[0]: Task(ids[0])}
    for i, t in enumerate(ids[1:], 1):
        earlier = st.frozensets(st.sampled_from(ids[:i]), min_size=1,
                                max_size=2)
        group = st.one_of(earlier, earlier, anywhere) if wild else earlier
        groups = draw(st.lists(group, min_size=1, max_size=3))
        tasks[t] = Task(t, preconditions=tuple(groups))
    return tasks


def graph_of(tasks):
    ids = list(tasks)
    return ProjectGraph(tasks=tasks, entry=ids[0], exit=ids[-1])


@given(task_maps(wild=False).map(graph_of))
@settings(max_examples=150, deadline=None)
def test_hand_built_graphs_match_brute_force(graph):
    result = enumerate_plans(graph)
    assert not result.truncated
    assert [p.steps for p in result.plans] == sorted(brute_force_plans(graph))


@given(task_maps(wild=False).map(graph_of))
@settings(max_examples=150, deadline=None)
def test_every_valid_graph_has_a_first_plan(graph):
    # the constructor has no reachability check: its other invariants imply one
    plan = first_plan(graph)
    assert plan.steps[0] == graph.entry and plan.steps[-1] == graph.exit
    assert plan.steps in brute_force_plans(graph)


@given(task_maps(wild=True))
@settings(max_examples=300, deadline=None)
def test_cycle_message_equals_the_dfs_oracle(tasks):
    cycle = dfs_find_cycle(tasks)
    unknown = {ref for task in tasks.values() for group in task.preconditions
               for ref in group} - tasks.keys()
    if not cycle and not unknown:
        graph_of(tasks)  # constructs: every other invariant holds by the draw
        return
    with pytest.raises(ProjectParseError) as error:
        graph_of(tasks)
    messages = str(error.value).split("; ")
    assert [m for m in messages if "reachable from itself" in m] == cycle


@given(task_maps(wild=False).map(graph_of))
@settings(max_examples=150, deadline=None)
def test_solutions_build_only_closed_acyclic_maps(graph):
    # the wave oracle raises on a map that names a task outside it or holds
    # a cycle, the two cases _linearize does not check for
    seen = []

    def checked(chosen, rank):
        expected = wave_linearize(chosen)
        assert _linearize(chosen, rank) == expected
        seen.append(expected)
        return expected

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plans, "_linearize", checked)
        result = enumerate_plans(graph)
    assert [p.steps for p in result.plans] == sorted(brute_force_plans(graph))
    assert seen == list(reference_solutions(graph))  # one call per solution


@st.composite
def chosen_maps(draw):
    """1-7 tasks in random order, each mapped to a group of earlier tasks.

    Groups name only tasks that come earlier in id order, so every map is
    closed and acyclic, as the maps ``_solutions`` builds are.
    """
    ids = [f"t{i}" for i in range(draw(st.integers(1, 7)))]
    chosen = {t: draw(st.frozensets(st.sampled_from(ids[:i]), max_size=3)
                      if i else st.just(frozenset()))
              for i, t in enumerate(ids)}
    return {t: chosen[t] for t in draw(st.permutations(ids))}


@given(chosen_maps())
@settings(max_examples=300, deadline=None)
def test_linearize_equals_the_wave_oracle(chosen):
    assert _linearize(chosen, ranked(chosen)) == wave_linearize(chosen)


def layered_graph(widths):
    """Layers of OR alternatives, each closed by a join that accepts any
    one of them; the exit needs the last join and a side permit. Built as
    the benchmark's layered project, so it has prod(widths) plans."""
    tasks = [{"id": "Begin", "pre": []}, {"id": "Permit", "pre": [["Begin"]]}]
    previous = "Begin"
    for i, width in enumerate(widths, start=1):
        options = [f"L{i}.{j}" for j in range(width)]
        tasks += [{"id": t, "pre": [[previous]]} for t in options]
        previous = f"J{i}"
        tasks.append({"id": previous, "pre": [[t] for t in options]})
    tasks.append({"id": "Done", "pre": [[previous, "Permit"]]})
    return build(tasks, "Begin", "Done")


def assert_reference_order(graph):
    """Same solutions in the same order as the reference search, so the
    first plan and every truncation agree with it too."""
    want = list(reference_solutions(graph))
    assert list(plans._solutions(graph)) == want
    assert first_plan(graph).steps == want[0]
    for max_plans in range(1, len(set(want)) + 1):
        result = enumerate_plans(graph, max_plans)
        steps, truncated = reference_truncation(graph, max_plans)
        assert [p.steps for p in result.plans] == steps
        assert result.truncated == truncated


@pytest.mark.parametrize("widths", [(2, 3, 3, 4), (1,), (4, 1, 2)])
def test_layered_projects_keep_the_reference_order(widths):
    graph = layered_graph(widths)
    assert len(enumerate_plans(graph).plans) == math.prod(widths)
    assert_reference_order(graph)


def test_fire_and_random_graphs_keep_the_reference_order(fire):
    assert_reference_order(fire)
    rng = random.Random(36)
    for _ in range(12):
        assert_reference_order(random_layered_graph(rng, layers=4, width=3))


@given(task_maps(wild=False).map(graph_of))
@settings(max_examples=150, deadline=None)
def test_hand_built_graphs_keep_the_reference_order(graph):
    assert_reference_order(graph)
