"""Project descriptions as AND/OR task graphs.

A project is a set of tasks with predecessor constraints in disjunctive
normal form: each task lists alternative groups of predecessors (OR over
groups), and every task in the chosen group must precede it (AND within a
group). The file format is JSON:

    {"entry": id, "exit": id,
     "tasks": [{"id": str, "desc": str, "resource": str|null,
                "pre": [[id, ...], ...]}]}

An empty "pre" list marks the entry task.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from types import MappingProxyType

from .errors import DataError


class ProjectParseError(DataError):
    """The project file is not valid JSON or violates a graph invariant."""


@dataclass(frozen=True)
class Task:
    id: str
    description: str = ""
    resource: str | None = None
    preconditions: tuple[frozenset[str], ...] = ()


@dataclass(frozen=True)
class ProjectGraph:
    """Immutable AND/OR graph over tasks; the constructor raises
    ProjectParseError, every violation joined by "; ", unless the graph
    meets every invariant ``_violations`` checks. ``tasks`` is a read-only
    copy of the mapping given, so the graph stays as checked."""

    tasks: Mapping[str, Task]
    entry: str
    exit: str

    def __post_init__(self):
        object.__setattr__(self, "tasks", MappingProxyType(dict(self.tasks)))
        violations = _violations(self)
        if violations:
            raise ProjectParseError("; ".join(violations))

    def predecessors(self, task_id: str) -> set[str]:
        """Union of all tasks referenced by any precondition group."""
        return {t for group in self.tasks[task_id].preconditions for t in group}

    @cached_property
    def rank(self) -> dict[str, int]:
        """Each task's place in a topological order of the union precedence
        relation, predecessors first, the same under every hash seed;
        CycleError on a cycle. The constructor's cycle check caches it."""
        # Edges run task -> predecessor, so graphlib reports a cycle as x <- y <- x.
        sorter = TopologicalSorter()
        for tid in self.tasks:
            sorter.add(tid)
            for pred in sorted(self.predecessors(tid)):
                if pred in self.tasks:
                    sorter.add(pred, tid)
        return {task: i for i, task in enumerate(reversed([*sorter.static_order()]))}


def parse_project(text: str, name: str = "project") -> ProjectGraph:
    """Parse and validate the project file ``name``; raises ProjectParseError on any fault."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProjectParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ProjectParseError(f"{name} nests too deeply") from None

    if not isinstance(doc, dict):
        raise ProjectParseError("top-level value must be an object")
    for key in ("entry", "exit", "tasks"):
        if key not in doc:
            raise ProjectParseError(f"missing required key {key!r}")

    if not isinstance(doc["tasks"], list):
        raise ProjectParseError("'tasks' must be a list")
    tasks: dict[str, Task] = {}
    for i, item in enumerate(doc["tasks"]):
        if not isinstance(item, dict):
            raise ProjectParseError(f"task #{i + 1}: must be an object")
        tid = item.get("id")
        if not tid or not isinstance(tid, str):
            raise ProjectParseError(f"task #{i + 1}: missing or empty id")
        if tid in tasks:
            raise ProjectParseError(f"duplicate task id {tid!r}")
        pre = item.get("pre", [])
        if not isinstance(pre, list) or any(not isinstance(g, list) for g in pre):
            raise ProjectParseError(f"task {tid!r}: 'pre' must be a list of lists")
        if any(not isinstance(ref, str) for group in pre for ref in group):
            raise ProjectParseError(f"task {tid!r}: 'pre' may only name task ids")
        desc, resource = item.get("desc", ""), item.get("resource")
        if not isinstance(desc, str):
            raise ProjectParseError(f"task {tid!r}: 'desc' must be a string")
        if not isinstance(resource, (str, type(None))):
            raise ProjectParseError(
                f"task {tid!r}: 'resource' must be a string or null")
        tasks[tid] = Task(tid, desc, resource, tuple(frozenset(g) for g in pre))

    for key in ("entry", "exit"):
        if not isinstance(doc[key], str):
            raise ProjectParseError(f"{key!r} must be a task id")
    return ProjectGraph(tasks=tasks, entry=doc["entry"], exit=doc["exit"])


def _violations(graph: ProjectGraph) -> list[str]:
    """One message per broken ProjectGraph invariant.

    Each task sits under its own id, entry and exit exist, only the entry
    lacks precondition groups, every group is non-empty and names known
    tasks, and the union precedence relation is acyclic. These imply that
    the exit is reachable: in a topological order every task has a group
    of earlier, reachable tasks.
    """
    tasks = graph.tasks
    violations = [f"task key {key!r} holds task {task.id!r}"
                  for key, task in tasks.items() if key != task.id]

    if graph.entry not in tasks:
        violations.append(f"entry task {graph.entry!r} not found")
    if graph.exit not in tasks:
        violations.append(f"exit task {graph.exit!r} not found")

    for task in tasks.values():
        for group in task.preconditions:
            if not group:
                violations.append(f"task {task.id!r}: empty precondition group")
            for ref in sorted(group):
                if ref not in tasks:
                    violations.append(f"task {task.id!r}: unknown task reference {ref!r}")

    if graph.entry in tasks and tasks[graph.entry].preconditions:
        violations.append(f"entry task {graph.entry!r} must have no preconditions")
    for task in tasks.values():
        if task.id != graph.entry and not task.preconditions:
            violations.append(f"task {task.id!r} has no preconditions but is not the entry")

    try:
        graph.rank
    except CycleError as exc:
        cycle = exc.args[1]
        violations.append(
            f"task {cycle[0]!r} is reachable from itself: " + " <- ".join(cycle))
    return violations
