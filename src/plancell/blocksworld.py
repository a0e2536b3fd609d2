"""STRIPS blocksworld: states, the four actions, validation, solving, corpora.

A state is its support function (Slaney & Thiebaux 2001): per block, in
sorted-name order, the index of the block it rests on, the table or the
arm. ``apply``, goal tests and both solvers work on that tuple; one reader
turns a goal into a target per block. The solver comes in two flavours:
exhaustive breadth-first search (optimal, used for small instances) and a
greedy two-phase strategy (put misplaced blocks on the table, then build
goal towers bottom-up) that is fast enough for the larger corpus sizes.
"""

from __future__ import annotations

import random
import string
import time
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .dataset import TrainingSet, build_training_set
from .errors import DataError, InapplicableActionError, LimitError

ACTION_ARITY = {"pick-up": 1, "put-down": 1, "stack": 2, "unstack": 2}

# goal atoms: ("on", x, y) or ("on-table", x)
Atom = tuple

# Support entries that are not block indices.
_TABLE, _HELD = -1, -2


@dataclass(frozen=True)
class Action:
    name: str
    args: tuple[str, ...]

    def __post_init__(self):
        if self.name not in ACTION_ARITY:
            raise DataError(f"unknown action {self.name!r}")
        if len(self.args) != ACTION_ARITY[self.name]:
            raise DataError(
                f"{self.name} takes {ACTION_ARITY[self.name]} argument(s), "
                f"got {len(self.args)}"
            )

    def __str__(self):
        return " ".join((self.name,) + self.args)

    @classmethod
    def parse(cls, text: str) -> "Action":
        parts = text.strip().strip("()").split()
        if not parts:
            raise DataError("empty action string")
        return cls(parts[0], tuple(parts[1:]))


class BlockState:
    """One blocksworld configuration: the sorted block ``names`` and, per
    block, the ``support`` index it rests on, ``_TABLE`` or ``_HELD``.

    ``on``, ``on_table``, ``holding``, ``blocks``, ``clear`` and
    ``arm_empty`` are views. The constructor raises DataError unless the
    state is a set of towers on the table: every block in one position and
    on a known block, at most one block on any block, none on the held
    block, and every chain of supports ending on the table.
    """

    __slots__ = ("names", "support")

    def __init__(self, on: dict[str, str] | None = None,
                 on_table: set[str] | frozenset[str] = frozenset(),
                 holding: str | None = None):
        on = on or {}
        located = [*on, *on_table] + ([holding] if holding else [])
        self.names = names = tuple(sorted(set(located)))
        if len(names) < len(located):
            b, n = Counter(located).most_common(1)[0]
            raise DataError(f"block {b!r} occupies {n} positions")
        index = {b: i for i, b in enumerate(names)}
        for b, under in on.items():
            if under not in index:
                raise DataError(f"block {b!r} rests on unknown block {under!r}")
        self.support = support = tuple(
            index[on[b]] if b in on else _TABLE if b in on_table else _HELD
            for b in names)
        for b, under in zip(names, support):
            if under >= 0 and support[under] == _HELD:
                raise DataError(f"block {b!r} rests on the held block {names[under]!r}")
        stacked = [s for s in support if s >= 0]
        if len(set(stacked)) < len(stacked):
            under, n = Counter(stacked).most_common(1)[0]
            raise DataError(f"{n} blocks rest on block {names[under]!r}")
        if _cyclic(support):
            raise DataError("block supports contain a cycle")

    @classmethod
    def _packed(cls, names, support) -> "BlockState":
        """A state from fields that already form towers, unchecked."""
        state = object.__new__(cls)
        state.names, state.support = names, support
        return state

    @property
    def on(self) -> dict[str, str]:
        return {b: self.names[s] for b, s in zip(self.names, self.support) if s >= 0}

    @property
    def on_table(self) -> frozenset[str]:
        return frozenset(b for b, s in zip(self.names, self.support) if s == _TABLE)

    @property
    def holding(self) -> str | None:
        return self.names[self.support.index(_HELD)] if _HELD in self.support else None

    @property
    def blocks(self) -> frozenset[str]:
        return frozenset(self.names)

    @property
    def clear(self) -> frozenset[str]:
        return frozenset(b for i, b in enumerate(self.names)
                         if i not in self.support and self.support[i] != _HELD)

    @property
    def arm_empty(self) -> bool:
        return _HELD not in self.support

    def __eq__(self, other):
        return (isinstance(other, BlockState) and self.names == other.names
                and self.support == other.support)

    def __hash__(self):
        return hash((self.names, self.support))

    def __repr__(self):
        above = {s: i for i, s in enumerate(self.support) if s >= 0}
        towers = []
        for base in (i for i, s in enumerate(self.support) if s == _TABLE):
            tower = [base]
            while tower[-1] in above:
                tower.append(above[tower[-1]])
            towers.append("/".join(self.names[i] for i in tower))
        hold = f" holding={self.holding}" if self.holding else ""
        return f"<BlockState {' '.join(towers)}{hold}>"


def all_on_table(blocks) -> BlockState:
    return BlockState(on_table=set(blocks))


def apply(state: BlockState, action: Action) -> BlockState:
    """Successor state under classical STRIPS semantics.

    Raises InapplicableActionError naming the first failed precondition.
    """
    names, support = state.names, state.support
    index = {b: i for i, b in enumerate(names)}

    def need(cond: bool, what: str):
        if not cond:
            raise InapplicableActionError(f"{action}: requires {what}")

    x, y = action.args[0], action.args[-1]
    at = support[index[x]] if x in index else None
    if action.name in ("put-down", "stack"):
        need(at == _HELD, f"holding({x})")
        need(action.name == "put-down" or y in state.clear, f"clear({y})")
        now = _TABLE if action.name == "put-down" else index[y]
    else:
        if action.name == "pick-up":
            need(at == _TABLE, f"on-table({x})")
        else:
            need(y in index and at == index[y], f"on({x},{y})")
        need(x in state.clear, f"clear({x})")
        need(state.arm_empty, "arm-empty")
        now = _HELD
    succ = list(support)
    succ[index[x]] = now
    return BlockState._packed(names, tuple(succ))


def validate_plan(initial: BlockState, plan, goal) -> tuple[bool, str | None]:
    """Replay a plan; (True, None) iff every step applies and the goal holds.

    ``plan`` is a sequence of action strings, such as ``solve(...).plan``.
    As in ``solve`` and before any step is replayed, a goal no state
    satisfies raises UnsolvableGoalError.
    """
    target = _read_goal(initial.names, goal)
    state = initial
    for i, step in enumerate(plan):
        try:
            state = apply(state, Action.parse(step))
        except InapplicableActionError as exc:
            return False, f"step {i + 1} inapplicable: {exc}"
    for atom in goal:
        x = state.names.index(atom[1])
        if state.support[x] != target[x]:
            return False, f"goal atom {atom} not satisfied in final state"
    return True, None


@dataclass(frozen=True)
class SolveResult:
    """A solution plan (action strings) plus solver metrics."""

    plan: tuple[str, ...]
    cpu_time: float


def solve(initial: BlockState, goal, budget: int = 500_000,
          method: str = "bfs") -> SolveResult:
    """Find a plan reaching the goal; BFS is optimal, greedy is fast.

    ``budget`` caps the number of states expanded (BFS only). The returned
    plan always validates against (initial, goal).
    """
    target = _read_goal(initial.names, goal)
    start = time.perf_counter()
    if method == "bfs":
        actions = _solve_bfs(initial, target, budget)
    elif method == "greedy":
        actions = _solve_greedy(initial, target)
    else:
        raise DataError(f"unknown solve method {method!r}")
    elapsed = time.perf_counter() - start
    return SolveResult(tuple(str(a) for a in actions), elapsed)


class UnsolvableGoalError(DataError):
    pass


def _read_goal(names: tuple[str, ...], goal) -> list[int | None]:
    """Target support per block: an index, ``_TABLE`` or None (free).

    Raises UnsolvableGoalError, naming the atom or block, if no state
    satisfies the goal."""
    index = {b: i for i, b in enumerate(names)}
    target: list[int | None] = [None] * len(names)
    for atom in goal:
        if not (len(atom) == 3 and atom[0] == "on"
                or len(atom) == 2 and atom[0] == "on-table"):
            raise UnsolvableGoalError(f"malformed goal atom {atom!r}")
        for b in atom[1:]:
            if b not in index:
                raise UnsolvableGoalError(f"goal references unknown block {b!r}")
        x = index[atom[1]]
        want = index[atom[2]] if atom[0] == "on" else _TABLE
        if want == x:
            raise UnsolvableGoalError(f"block {atom[1]!r} cannot rest on itself")
        if target[x] not in (None, want):
            raise UnsolvableGoalError(f"block {atom[1]!r} has two goal positions")
        target[x] = want
    stacked = [t for t in target if t is not None and t >= 0]
    if len(set(stacked)) < len(stacked):
        y = Counter(stacked).most_common(1)[0][0]
        raise UnsolvableGoalError(f"two blocks stacked on {names[y]!r} in goal")
    if _cyclic(target):
        raise UnsolvableGoalError("goal stacking contains a cycle")
    return target


def _reached(support, target) -> bool:
    return all(t is None or s == t for s, t in zip(support, target))


def _cyclic(support) -> bool:
    """Whether some block's support links never reach the table, the arm or
    a free (``None``) entry: a walk still on a block after n links loops."""
    n = len(support)
    for b in range(n):
        for _ in range(n):
            b = support[b]
            if b is None or b < 0:
                break
        else:
            return True
    return False


def _solve_bfs(initial: BlockState, target: list, budget: int) -> list[Action]:
    """Shortest plan by breadth-first search over support tuples.

    Successors are generated for clear blocks by name, ``put-down`` before
    any ``stack``; each is tested against the goal when first generated,
    and each dequeued state counts against ``budget``. Every state maps to
    its predecessor, and the plan is read back from that map at the end.
    """
    start = initial.support
    if _reached(start, target):
        return []
    blocks = range(len(start))
    at_goal = itemgetter(*(b for b in blocks if target[b] is not None))
    goal = at_goal(target)
    predecessor = {start: None}
    frontier = [start]
    expanded = 0
    while frontier:
        next_frontier = []
        for state in frontier:
            expanded += 1
            if expanded > budget:
                raise LimitError(f"search budget of {budget} states exhausted")
            clear = [b for b in blocks if b not in state and state[b] != _HELD]
            if _HELD in state:
                held = state.index(_HELD)
                moves = [(held, _TABLE)] + [(held, y) for y in clear]
            else:
                moves = [(x, _HELD) for x in clear]
            for x, to in moves:
                succ = list(state)
                succ[x] = to
                succ = tuple(succ)
                if succ in predecessor:
                    continue
                predecessor[succ] = state
                if at_goal(succ) == goal:
                    return _unpack_plan(initial.names, predecessor, succ)
                next_frontier.append(succ)
        frontier = next_frontier
    raise UnsolvableGoalError("goal unreachable from the initial state")


def _move(names: tuple[str, ...], x: int, was: int, now: int) -> Action:
    """The action that moves block ``x`` from support ``was`` to ``now``."""
    if now == _HELD:
        return (Action("pick-up", (names[x],)) if was == _TABLE
                else Action("unstack", (names[x], names[was])))
    if now == _TABLE:
        return Action("put-down", (names[x],))
    return Action("stack", (names[x], names[now]))


def _unpack_plan(names: tuple[str, ...], predecessor: dict, state: tuple) -> list[Action]:
    """The actions leading to ``state``: each moves the one block whose entry changed."""
    actions = []
    while (prev := predecessor[state]) is not None:
        x = next(b for b in range(len(names)) if prev[b] != state[b])
        actions.append(_move(names, x, prev[x], state[x]))
        state = prev
    return actions[::-1]


def _solve_greedy(initial: BlockState, target: list) -> list[Action]:
    """Two phases: clear misplaced blocks to the table, then build towers.

    The arm is empty between moves, so a clear block is one no entry names.
    """
    names, support = initial.names, list(initial.support)
    actions: list[Action] = []

    def move(x: int, now: int):
        actions.append(_move(names, x, support[x], now))
        support[x] = now

    bases = {t for t in target if t is not None and t >= 0}

    def placed(b: int) -> bool:
        """Block b and every block below it rest where the goal wants them;
        a free block may not rest on a block the goal stacks another onto."""
        want, under = target[b], support[b]
        if want != under and (want is not None or under in bases):
            return False
        return under < 0 or placed(under)

    if _HELD in support:
        move(support.index(_HELD), _TABLE)

    # phase 1: tear down everything not already in final position
    moved = True
    while moved:
        moved = False
        for x in [b for b in range(len(names)) if b not in support]:
            if support[x] >= 0 and not placed(x):
                move(x, _HELD)
                move(x, _TABLE)
                moved = True

    # phase 2: build goal towers bottom-up
    stacks = [(x, y) for x, y in enumerate(target) if y is not None and y >= 0]
    progress = True
    while progress:
        progress = False
        for x, y in stacks:
            if placed(x) or x in support or y in support or not placed(y):
                continue
            move(x, _HELD)
            move(x, y)
            progress = True

    if not _reached(support, target):
        raise UnsolvableGoalError("greedy construction failed to reach the goal")
    return actions


def random_state(blocks: list[str], rng: random.Random) -> BlockState:
    """Uniform-ish random configuration: shuffled blocks dealt into towers."""
    order = list(blocks)
    rng.shuffle(order)
    on: dict[str, str] = {}
    on_table: set[str] = set()
    towers: list[str] = []  # current top of each tower
    for b in order:
        spot = rng.randrange(len(towers) + 1)
        if spot == len(towers):
            on_table.add(b)
            towers.append(b)
        else:
            on[b] = towers[spot]
            towers[spot] = b
    return BlockState(on, on_table)


def state_goal_atoms(state: BlockState) -> list[Atom]:
    """Full description of a configuration as on/on-table atoms."""
    atoms: list[Atom] = [("on-table", b) for b in sorted(state.on_table)]
    atoms += [("on", x, y) for x, y in sorted(state.on.items())]
    return atoms


@dataclass(frozen=True)
class CorpusRun:
    """One solved instance: problem, plan, and the label it received."""

    problem: str
    initial: BlockState
    goal: tuple[Atom, ...]
    plan: tuple[str, ...]
    cpu_time: float
    label: str


def generate_runs(sizes: list[int], per_size: int, seed: int,
                  pool: int = 5, method: str = "greedy") -> list[CorpusRun]:
    """Solve ``per_size`` draws per block count and label the plans.

    Draws are sampled from a pool of ``pool`` distinct problems per size so
    identical plans recur across instances, as in a corpus built by re-running
    a planner. Each distinct problem is solved once, on its first draw; its
    later draws share that plan and that measured cpu time. Labels P1, P2,
    ... are assigned in first-seen order of distinct step sequences, shared
    across sizes. Deterministic given the seed, except for the measured cpu
    time.
    """
    if not sizes:
        raise DataError("sizes must be nonempty")
    for n in sizes:
        if not 1 <= n <= len(string.ascii_lowercase):
            raise DataError(f"block counts must be in 1..26, got {n}")
    if per_size < 1:
        raise DataError(f"per_size must be >= 1, got {per_size}")
    if pool < 1:
        raise DataError(f"pool must be >= 1, got {pool}")

    rng = random.Random(seed)
    labels: dict[tuple[str, ...], str] = {}
    runs: list[CorpusRun] = []
    for n in sizes:
        blocks = list(string.ascii_lowercase[:n])
        problems = []
        for _ in range(pool):
            initial = random_state(blocks, rng)
            goal = tuple(state_goal_atoms(random_state(blocks, rng)))
            problems.append((initial, goal))
        solved: dict[int, SolveResult] = {}
        for _ in range(per_size):
            index = rng.randrange(pool)
            initial, goal = problems[index]
            if index not in solved:
                solved[index] = solve(initial, goal, method=method)
            result = solved[index]
            steps = result.plan
            if steps not in labels:
                labels[steps] = f"P{len(labels) + 1}"
            runs.append(CorpusRun(f"blocks-{n}", initial, goal, steps,
                                  result.cpu_time, labels[steps]))
    return runs


def corpus_training_set(runs: list[CorpusRun]) -> TrainingSet:
    columns = [("problem", "nominal"), ("time", "numeric"), ("steps", "numeric")]
    rows = [(r.problem, r.cpu_time, float(len(r.plan)), r.label) for r in runs]
    return build_training_set(columns, rows)


def generate_corpus(sizes: list[int], per_size: int, seed: int,
                    pool: int = 5, method: str = "greedy") -> TrainingSet:
    """Training set over solved instances: problem name, cpu time, plan length."""
    return corpus_training_set(generate_runs(sizes, per_size, seed, pool, method))
