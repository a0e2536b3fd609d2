import json

import pytest
from hypothesis import given, settings

from plancell import enumerate_plans, parse_project
from plancell.project import ProjectGraph, ProjectParseError, Task
from test_plans import graph_of, layered_graph, task_maps


def doc(tasks, entry="t0", exit="t9"):
    return json.dumps({"entry": entry, "exit": exit, "tasks": tasks})


def chain(*ids):
    """t0 -> t1 -> ... as a plain AND chain."""
    tasks = [{"id": ids[0], "pre": []}]
    tasks += [{"id": b, "pre": [[a]]} for a, b in zip(ids, ids[1:])]
    return tasks


def test_parse_fire_project(fire):
    assert len(fire.tasks) == 12
    assert fire.entry == "Begin"
    assert fire.exit == "extinguish_fire"
    assert fire.tasks["police"].preconditions == (
        frozenset({"PU(L0,L1)"}), frozenset({"PU(L2,L1)"}))
    assert fire.tasks["extinguish_fire"].preconditions == (
        frozenset({"police", "fireman"}),)
    assert fire.tasks["PU1"].resource == "Police"
    assert (fire.tasks["Begin"].description, fire.tasks["Begin"].resource) == (
        "Start project", None)
    assert len(set(fire.tasks.values())) == 12  # every task hashes


def test_predecessors_union(fire):
    assert fire.predecessors("police") == {"PU(L0,L1)", "PU(L2,L1)"}
    assert fire.predecessors("Begin") == set()


def test_syntax_error_reports_position():
    with pytest.raises(ProjectParseError, match=r"line 2, column"):
        parse_project('{"entry": "a",\n "exit }')


def test_top_level_must_be_object():
    with pytest.raises(ProjectParseError, match="top-level"):
        parse_project("[1, 2]")


def test_missing_keys():
    with pytest.raises(ProjectParseError, match="'exit'"):
        parse_project('{"entry": "a", "tasks": []}')


def test_duplicate_task_id():
    tasks = [{"id": "t0", "pre": []}, {"id": "t0", "pre": [["t0"]]}]
    with pytest.raises(ProjectParseError, match="duplicate task id"):
        parse_project(doc(tasks, exit="t0"))


@pytest.mark.parametrize("field,value,message", [
    ("desc", 5, "'desc' must be a string"),
    ("desc", None, "'desc' must be a string"),
    ("resource", [1], "'resource' must be a string or null"),
    ("resource", 3, "'resource' must be a string or null"),
])
def test_task_text_fields_must_be_strings(field, value, message):
    tasks = chain("t0", "t9")
    tasks[1][field] = value
    with pytest.raises(ProjectParseError, match=f"task 't9': {message}"):
        parse_project(doc(tasks))


def test_unknown_reference():
    tasks = [{"id": "t0", "pre": []}, {"id": "t9", "pre": [["ghost"]]}]
    with pytest.raises(ProjectParseError, match="unknown task reference 'ghost'"):
        parse_project(doc(tasks))


def test_empty_group_rejected():
    tasks = [{"id": "t0", "pre": []}, {"id": "t9", "pre": [[]]}]
    with pytest.raises(ProjectParseError, match="empty precondition group"):
        parse_project(doc(tasks))


def test_entry_must_have_no_preconditions():
    tasks = [{"id": "t0", "pre": [["t9"]]}, {"id": "t9", "pre": [["t0"]]}]
    with pytest.raises(ProjectParseError, match="must have no preconditions"):
        parse_project(doc(tasks))


def test_only_entry_may_lack_preconditions():
    tasks = [{"id": "t0", "pre": []}, {"id": "tx", "pre": []},
             {"id": "t9", "pre": [["tx"]]}]
    with pytest.raises(ProjectParseError, match="not the entry"):
        parse_project(doc(tasks))


def test_cycle_detected():
    tasks = [{"id": "t0", "pre": []},
             {"id": "a", "pre": [["b"]]},
             {"id": "b", "pre": [["a"]]},
             {"id": "t9", "pre": [["a"], ["t0"]]}]
    with pytest.raises(ProjectParseError, match="reachable from itself"):
        parse_project(doc(tasks))


def test_cycle_through_and_group():
    # t9 needs both t0 and x in one group, but x needs t9
    tasks = [{"id": "t0", "pre": []},
             {"id": "x", "pre": [["t9"]]},
             {"id": "t9", "pre": [["t0", "x"]]}]
    with pytest.raises(ProjectParseError, match="reachable from itself"):
        parse_project(doc(tasks))


def test_exit_unreachable_reported_on_hand_built_graph():
    # an exit whose single group names a task that is never derivable:
    # the constructor refuses it as parse_project does
    with pytest.raises(ProjectParseError, match="unknown task reference 'lost'"):
        ProjectGraph(
            tasks={
                "t0": Task(id="t0"),
                "t9": Task(id="t9", preconditions=(frozenset({"lost"}),)),
            },
            entry="t0",
            exit="t9",
        )


def test_validate_lists_all_violations(fire):
    # a graph that constructs has none; the constructor joins all it finds
    assert ProjectGraph(fire.tasks, fire.entry, fire.exit) == fire
    with pytest.raises(ProjectParseError) as error:
        ProjectGraph({"t0": Task("t0", preconditions=(frozenset(),)),
                      "t9": Task("t9")}, entry="t0", exit="tx")
    assert str(error.value) == (
        "exit task 'tx' not found; task 't0': empty precondition group; "
        "entry task 't0' must have no preconditions; "
        "task 't9' has no preconditions but is not the entry")


def test_task_filed_under_another_key_is_refused():
    # enumeration would otherwise plan task 'c' under the name 'b'
    tasks = {"a": Task("a"), "b": Task("c", preconditions=(frozenset({"a"}),))}
    with pytest.raises(ProjectParseError, match="^task key 'b' holds task 'c'$"):
        ProjectGraph(tasks=tasks, entry="a", exit="b")


def test_tasks_of_a_built_graph_cannot_change(fire):
    # a task added after the check would name a task that does not exist
    with pytest.raises(TypeError):
        fire.tasks["police"] = Task("police", preconditions=(frozenset({"ghost"}),))
    with pytest.raises(TypeError):
        del fire.tasks["police"]
    tasks = dict(fire.tasks)
    graph = ProjectGraph(tasks, fire.entry, fire.exit)
    tasks["police"] = Task("police", preconditions=(frozenset({"ghost"}),))
    assert graph == fire and len(enumerate_plans(graph).plans) == 8


def test_valid_chain_parses():
    graph = parse_project(doc(chain("t0", "t5", "t9")))
    assert list(graph.tasks) == ["t0", "t5", "t9"]


def assert_ranked(graph):
    """``rank`` numbers every task once and puts each after its predecessors."""
    rank = graph.rank
    assert rank.keys() == graph.tasks.keys()
    assert sorted(rank.values()) == list(range(len(graph.tasks)))
    for tid in graph.tasks:
        assert all(rank[pred] < rank[tid] for pred in graph.predecessors(tid))


@pytest.mark.parametrize("widths", [(2, 3, 3, 4), (1,), (4, 1, 2)])
def test_rank_puts_predecessors_first(fire, widths):
    assert_ranked(fire)
    assert_ranked(layered_graph(widths))


@given(task_maps(wild=False).map(graph_of))
@settings(max_examples=150, deadline=None)
def test_rank_of_hand_built_graphs_puts_predecessors_first(graph):
    assert_ranked(graph)
