"""Enumerate solution plans of an AND/OR project graph.

A solution picks one precondition group for every task it needs, starting
from the exit task and chaining backwards; the solution's task set is
exactly the backward closure of the exit under those choices. Each solution
is linearized into a deterministic step sequence: tasks are emitted in
waves of readiness (all chosen predecessors already emitted), smallest id
first inside a wave.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

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
    the first ``max_plans`` of them with the truncated flag set. An
    unsolvable graph yields an empty, untruncated enumeration.
    """
    if max_plans < 1:
        raise DataError(f"max_plans must be >= 1, got {max_plans}")

    sequences: set[tuple[str, ...]] = set()
    truncated = False
    for steps in _solutions(graph):
        sequences.add(steps)
        if len(sequences) > max_plans:
            truncated = True
            break

    ordered = sorted(sequences)[:max_plans]
    plans = tuple(Plan(f"P{i + 1}", steps) for i, steps in enumerate(ordered))
    return PlanEnumeration(plans, truncated)


def first_plan(graph: ProjectGraph) -> Plan | None:
    """The first solution in backward-chaining order, or None if unsolvable."""
    for steps in _solutions(graph):
        return Plan("P1", steps)
    return None


def _solutions(graph: ProjectGraph):
    """Yield each solution's step sequence, backward chaining from the exit.

    Tasks are resolved smallest-id first; groups are tried in declaration
    order, so the yield order is deterministic. Choices whose groups form a
    cycle, or that reach a task the graph lacks, are discarded.
    """

    def recurse(chosen: dict[str, frozenset[str]], pending: set[str]):
        if not pending:
            try:
                steps = linearize(chosen)
            except DataError:
                return
            yield steps
            return
        task_id = min(pending)
        rest = pending - {task_id}
        task = graph.tasks.get(task_id)
        if task is None:
            return
        for group in task.preconditions or (frozenset(),):
            chosen[task_id] = group
            new = {t for t in group if t not in chosen}
            yield from recurse(chosen, rest | new)
            del chosen[task_id]

    yield from recurse({}, {graph.exit})


def linearize(chosen: dict[str, frozenset[str]]) -> tuple[str, ...]:
    """Order a solution's tasks by readiness wave, then id.

    ``chosen`` maps each task of the solution to its chosen precondition
    group (empty for the entry). A task's wave is one past the latest wave
    among its chosen predecessors, which makes the ordering a topological
    sort of the chosen-group precedence relation with ties broken
    lexicographically. Raises DataError if some task never becomes ready.
    """
    if not chosen.keys() >= set().union(*chosen.values()):
        raise DataError("solution names a task outside it")
    sorter = TopologicalSorter(chosen)
    try:
        sorter.prepare()
    except CycleError:
        raise DataError("solution contains a precedence cycle") from None
    steps: list[str] = []
    while sorter.is_active():
        wave = sorted(sorter.get_ready())
        steps += wave
        sorter.done(*wave)
    return tuple(steps)
