"""Enumerate solution plans of an AND/OR project graph.

A solution picks one precondition group for every task it needs, starting
from the exit task and chaining backwards; the solution's task set is
exactly the backward closure of the exit under those choices. Each solution
is linearized into a deterministic step sequence: tasks are emitted in
waves of readiness (all chosen predecessors already emitted), smallest id
first inside a wave.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import DataError, LimitError
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
    truncated = False
    for steps in _solutions(graph):
        sequences.add(steps)
        if len(sequences) > max_plans:
            truncated = True
            break

    ordered = sorted(sequences)[:max_plans]
    plans = tuple(Plan(f"P{i + 1}", steps) for i, steps in enumerate(ordered))
    return PlanEnumeration(plans, truncated)


def first_plan(graph: ProjectGraph) -> Plan:
    """The first solution in backward-chaining order; a graph that
    constructs always has one."""
    return Plan("P1", next(_solutions(graph)))


def _solutions(graph: ProjectGraph):
    """Yield each solution's step sequence, backward chaining from the exit.

    Tasks are resolved smallest-id first; groups are tried in declaration
    order, so the yield order is deterministic. The graph's constructor
    refuses cycles and unknown tasks, so every complete choice linearizes.
    """
    stack = [({}, frozenset({graph.exit}))]
    while stack:
        chosen, pending = stack.pop()
        if not pending:
            yield linearize(chosen)
            continue
        task_id = min(pending)
        task = graph.tasks[task_id]
        # pushed last to first, so the first group is popped first
        for group in reversed(task.preconditions or (frozenset(),)):
            now = {**chosen, task_id: group}
            stack.append((now, pending - {task_id} | (group - now.keys())))


def linearize(chosen: dict[str, frozenset[str]]) -> tuple[str, ...]:
    """Order a solution's tasks by readiness wave, then id.

    ``chosen`` maps each task of the solution to its chosen precondition
    group (empty for the entry). A task's wave is one past the latest wave
    among its chosen predecessors, which makes the ordering a topological
    sort of the chosen-group precedence relation with ties broken
    lexicographically. Raises DataError if some task never becomes ready,
    and LimitError if a precedence chain is deeper than the recursion limit.
    """
    if not chosen.keys() >= set().union(*chosen.values()):
        raise DataError("solution names a task outside it")
    wave: dict[str, int] = {}

    def place(task: str) -> int:
        if task not in wave:
            wave[task] = -1  # in progress: meeting it again closes a cycle
            level = 0
            for pred in chosen[task]:  # a plain loop: one frame per chain link
                level = max(level, place(pred) + 1)
            wave[task] = level
        elif wave[task] < 0:
            raise DataError("solution contains a precedence cycle")
        return wave[task]

    try:
        return tuple(sorted(chosen, key=lambda t: (place(t), t)))
    except RecursionError:
        raise LimitError(f"a precedence chain is deeper than the recursion "
                         f"limit ({sys.getrecursionlimit()})") from None
