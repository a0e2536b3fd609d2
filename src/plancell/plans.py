"""Enumerate solution plans of an AND/OR project graph.

A solution picks one precondition group for every task it needs, starting
from the exit task and chaining backwards; the solution's task set is
exactly the backward closure of the exit under those choices. Each solution
is linearized into a deterministic step sequence: tasks are emitted in
waves of readiness (all chosen predecessors already emitted), smallest id
first inside a wave, all waves found in one pass over a topological order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .project import ProjectGraph

DEFAULT_MAX_PLANS = 10_000


@dataclass(frozen=True)
class Plan:
    """An ordered, duplicate-free sequence of task or action identifiers."""

    id: str
    steps: tuple[str, ...]

    def __post_init__(self):
        if not self.steps:
            raise DataError(f"plan {self.id!r}: empty step sequence")
        if len(set(self.steps)) != len(self.steps):
            raise DataError(f"plan {self.id!r}: duplicate steps")


@dataclass(frozen=True)
class PlanEnumeration:
    plans: tuple[Plan, ...]
    truncated: bool


def enumerate_plans(graph: ProjectGraph, max_plans: int = DEFAULT_MAX_PLANS) -> PlanEnumeration:
    """All distinct solution plans, sorted by step sequence.

    Plans are labelled P1, P2, ... in sorted order. Enumeration stops once
    more than ``max_plans`` distinct sequences have been found, returning
    the first ``max_plans`` of them with the truncated flag set.
    """
    if max_plans < 1:
        raise DataError(f"max_plans must be >= 1, got {max_plans}")

    sequences: set[tuple[str, ...]] = set()
    for steps in _solutions(graph):
        sequences.add(steps)
        if len(sequences) > max_plans:
            break
    ordered = sorted(sequences)[:max_plans]
    plans = tuple(Plan(f"P{i + 1}", steps) for i, steps in enumerate(ordered))
    return PlanEnumeration(plans, len(sequences) > max_plans)


def first_plan(graph: ProjectGraph) -> Plan:
    """The first solution in backward-chaining order; a graph that
    constructs always has one."""
    return Plan("P1", next(_solutions(graph)))


def _solutions(graph: ProjectGraph):
    """Yield each solution's step sequence, backward chaining from the exit.

    Tasks are resolved smallest-id first and groups tried in declaration
    order; only a task with two or more groups stacks partial solutions.
    The graph has no cycle or unknown task, so every choice linearizes.
    """
    rank = graph.rank
    stack = [({}, {graph.exit})]
    while stack:
        chosen, pending = stack.pop()
        while pending:
            task_id = min(pending)
            pending.remove(task_id)
            if task_id in chosen:  # a later group named it again
                continue
            groups = graph.tasks[task_id].preconditions or (frozenset(),)
            for group in groups[:0:-1]:  # last to first: the second pops next
                stack.append(({**chosen, task_id: group}, pending | group))
            chosen[task_id] = groups[0]
            pending |= groups[0]
        yield _linearize(chosen, rank)


def _linearize(chosen: dict[str, frozenset[str]],
               rank: dict[str, int]) -> tuple[str, ...]:
    """Order a solution's tasks by readiness wave, then id.

    ``chosen`` maps each task of the solution to its chosen precondition
    group (empty for the entry); ``_solutions`` builds only maps that are
    closed and acyclic. ``rank`` is a topological order of the graph, so
    one pass over the tasks in rank order finds every wave.
    """
    wave: dict[str, int] = {}
    for task in sorted(chosen, key=rank.__getitem__):
        level = 0
        for pred in chosen[task]:
            if wave[pred] >= level:
                level = wave[pred] + 1
        wave[task] = level
    return tuple(sorted(sorted(chosen), key=wave.__getitem__))
