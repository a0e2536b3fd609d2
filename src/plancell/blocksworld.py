"""STRIPS blocksworld: states, the four actions, validation, solving, corpora.

States are immutable values; ``apply`` returns a fresh successor. The
solver comes in two flavours: exhaustive breadth-first search (optimal,
used for small instances; it searches over packed tuples of support
indices, not BlockState objects) and a greedy two-phase strategy
(put misplaced blocks on the table, then build goal towers bottom-up) that
is fast enough to generate training corpora for the larger sizes.
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
    """One blocksworld configuration.

    ``on`` maps a block to the block it sits on, ``on_table`` holds the
    blocks on the table, ``holding`` is the block in the arm (or None).
    ``clear`` and ``arm_empty`` are derived, so they can never disagree
    with the rest of the state.
    """

    __slots__ = ("on", "on_table", "holding", "_key")

    def __init__(self, on: dict[str, str] | None = None,
                 on_table: set[str] | frozenset[str] = frozenset(),
                 holding: str | None = None):
        self.on = dict(on or {})
        self.on_table = frozenset(on_table)
        self.holding = holding
        self._key = (frozenset(self.on.items()), self.on_table, holding)

    @property
    def blocks(self) -> frozenset[str]:
        extra = {self.holding} if self.holding else set()
        return frozenset(self.on) | frozenset(self.on.values()) | self.on_table | extra

    @property
    def clear(self) -> frozenset[str]:
        covered = set(self.on.values())
        if self.holding:
            covered.add(self.holding)
        return self.blocks - covered

    @property
    def arm_empty(self) -> bool:
        return self.holding is None

    def check(self) -> None:
        """Raise DataError unless the state is a set of towers on the table.

        Every block occupies exactly one position (on a block, on the
        table or in the arm) and rests only on a known block; at most one
        block rests on any block, none on the held block, and every chain
        of supports ends on the table.
        """
        located = [*self.on, *self.on_table] + ([self.holding] if self.holding else [])
        known = set(located)
        if len(known) < len(located):
            b, n = Counter(located).most_common(1)[0]
            raise DataError(f"block {b!r} occupies {n} positions")
        for b, under in self.on.items():
            if under not in known:
                raise DataError(f"block {b!r} rests on unknown block {under!r}")
            if under == self.holding:
                raise DataError(f"block {b!r} rests on the held block {under!r}")
        if len(set(self.on.values())) < len(self.on):
            under, n = Counter(self.on.values()).most_common(1)[0]
            raise DataError(f"{n} blocks rest on block {under!r}")
        if _cyclic(self.on):
            raise DataError("block supports contain a cycle")

    def __eq__(self, other):
        return isinstance(other, BlockState) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        towers = []
        for base in sorted(self.on_table):
            tower = [base]
            inverse = {v: k for k, v in self.on.items()}
            while tower[-1] in inverse:
                tower.append(inverse[tower[-1]])
            towers.append("/".join(tower))
        hold = f" holding={self.holding}" if self.holding else ""
        return f"<BlockState {' '.join(towers)}{hold}>"


def all_on_table(blocks) -> BlockState:
    return BlockState(on_table=set(blocks))


def apply(state: BlockState, action: Action) -> BlockState:
    """Successor state under classical STRIPS semantics.

    Raises InapplicableActionError naming the first failed precondition.
    """
    name, args = action.name, action.args

    def need(cond: bool, what: str):
        if not cond:
            raise InapplicableActionError(f"{action}: requires {what}")

    if name == "pick-up":
        (x,) = args
        need(x in state.on_table, f"on-table({x})")
        need(x in state.clear, f"clear({x})")
        need(state.arm_empty, "arm-empty")
        return BlockState(state.on, state.on_table - {x}, x)

    if name == "put-down":
        (x,) = args
        need(state.holding == x, f"holding({x})")
        return BlockState(state.on, state.on_table | {x}, None)

    if name == "stack":
        x, y = args
        need(state.holding == x, f"holding({x})")
        need(y in state.clear, f"clear({y})")
        on = dict(state.on)
        on[x] = y
        return BlockState(on, state.on_table, None)

    x, y = args  # unstack
    need(state.on.get(x) == y, f"on({x},{y})")
    need(x in state.clear, f"clear({x})")
    need(state.arm_empty, "arm-empty")
    on = dict(state.on)
    del on[x]
    return BlockState(on, state.on_table, x)


def holds(state: BlockState, atom: Atom) -> bool:
    if atom[0] == "on":
        return state.on.get(atom[1]) == atom[2]
    if atom[0] == "on-table":
        return atom[1] in state.on_table
    raise DataError(f"unknown goal atom {atom!r}")


def satisfies(state: BlockState, goal) -> bool:
    return all(holds(state, atom) for atom in goal)


def validate_plan(initial: BlockState, plan, goal) -> tuple[bool, str | None]:
    """Replay a plan; (True, None) iff every step applies and the goal holds.

    ``plan`` is a sequence of action strings or Action objects, such as
    ``solve(...).plan``.
    """
    state = initial
    for i, step in enumerate(plan):
        action = step if isinstance(step, Action) else Action.parse(step)
        try:
            state = apply(state, action)
        except InapplicableActionError as exc:
            return False, f"step {i + 1} inapplicable: {exc}"
    for atom in goal:
        if not holds(state, atom):
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
    initial.check()
    _check_goal_consistency(initial, goal)
    start = time.perf_counter()
    if method == "bfs":
        actions = _solve_bfs(initial, goal, budget)
    elif method == "greedy":
        actions = _solve_greedy(initial, goal)
    else:
        raise DataError(f"unknown solve method {method!r}")
    elapsed = time.perf_counter() - start
    return SolveResult(tuple(str(a) for a in actions), elapsed)


class UnsolvableGoalError(DataError):
    pass


def _check_goal_consistency(initial: BlockState, goal) -> None:
    known = initial.blocks
    support: dict[str, str] = {}
    for atom in goal:
        if not (len(atom) == 3 and atom[0] == "on"
                or len(atom) == 2 and atom[0] == "on-table"):
            raise UnsolvableGoalError(f"malformed goal atom {atom!r}")
        for b in atom[1:]:
            if b not in known:
                raise UnsolvableGoalError(f"goal references unknown block {b!r}")
        if atom[0] == "on":
            x, y = atom[1], atom[2]
            if x == y:
                raise UnsolvableGoalError(f"block {x!r} cannot rest on itself")
            if support.get(x, y) != y:
                raise UnsolvableGoalError(f"block {x!r} has two goal positions")
            support[x] = y
        elif atom[0] == "on-table":
            if atom[1] in support:
                raise UnsolvableGoalError(f"block {atom[1]!r} has two goal positions")
    if len(set(support.values())) < len(support):
        y = Counter(support.values()).most_common(1)[0][0]
        raise UnsolvableGoalError(f"two blocks stacked on {y!r} in goal")
    if _cyclic(support):
        raise UnsolvableGoalError("goal stacking contains a cycle")


# Kept by hand: ~1.6 us a call on 8-block states, a graphlib sorter ~18 us.
def _cyclic(support: dict[str, str]) -> bool:
    """Whether following block -> support links ever returns to a block."""
    finished: set[str] = set()
    for start in support:
        path = set()
        b = start
        while b in support and b not in finished:
            if b in path:
                return True
            path.add(b)
            b = support[b]
        finished |= path
    return False


# A packed state has one entry per block, in sorted-name order: the index
# of the block it rests on, _TABLE or _HELD. Packing maps one-to-one onto
# BlockState._key, so the search meets exactly the states BlockState would.
_TABLE, _HELD = -1, -2


def _solve_bfs(initial: BlockState, goal, budget: int) -> list[Action]:
    """Shortest plan by breadth-first search over packed states.

    Successors are generated for clear blocks by name, ``put-down`` before
    any ``stack``; each is tested against the goal when first generated,
    and each dequeued state counts against ``budget``. Every state maps to
    its predecessor, and the plan is read back from that map at the end.
    """
    if satisfies(initial, goal):
        return []
    names = sorted(initial.blocks)
    index = {b: i for i, b in enumerate(names)}
    blocks = range(len(names))
    start = tuple(index[initial.on[b]] if b in initial.on
                  else _TABLE if b in initial.on_table else _HELD for b in names)
    want = {index[a[1]]: (index[a[2]] if a[0] == "on" else _TABLE) for a in goal}
    at_goal = itemgetter(*want)
    target = at_goal([want.get(b) for b in blocks])
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
                if at_goal(succ) == target:
                    return _unpack_plan(names, predecessor, succ)
                next_frontier.append(succ)
        frontier = next_frontier
    raise UnsolvableGoalError("goal unreachable from the initial state")


def _unpack_plan(names: list[str], predecessor: dict, state: tuple) -> list[Action]:
    """The actions leading to ``state``: each moves the one block whose entry changed."""
    actions = []
    while (prev := predecessor[state]) is not None:
        x = next(b for b in range(len(names)) if prev[b] != state[b])
        was, now = prev[x], state[x]
        if now == _HELD:
            actions.append(Action("pick-up", (names[x],)) if was == _TABLE
                           else Action("unstack", (names[x], names[was])))
        elif now == _TABLE:
            actions.append(Action("put-down", (names[x],)))
        else:
            actions.append(Action("stack", (names[x], names[now])))
        state = prev
    return actions[::-1]


def _solve_greedy(initial: BlockState, goal) -> list[Action]:
    """Two phases: clear misplaced blocks to the table, then build towers."""
    want_on = {a[1]: a[2] for a in goal if a[0] == "on"}
    want_table = {a[1] for a in goal if a[0] == "on-table"}

    actions: list[Action] = []
    state = initial

    def do(action: Action):
        nonlocal state
        state = apply(state, action)
        actions.append(action)

    def placed(b: str) -> bool:
        """Block b is in its final position (support chain included)."""
        if b in want_on:
            under = state.on.get(b)
            return under == want_on[b] and placed(under)
        if b in want_table:
            return b in state.on_table
        # unconstrained: stable unless resting on something unplaced
        under = state.on.get(b)
        return under is None or placed(under)

    if state.holding:
        do(Action("put-down", (state.holding,)))

    # phase 1: tear down everything not already in final position
    moved = True
    while moved:
        moved = False
        for x in sorted(state.clear):
            if x in state.on and not placed(x):
                do(Action("unstack", (x, state.on[x])))
                do(Action("put-down", (x,)))
                moved = True

    # phase 2: build goal towers bottom-up
    progress = True
    while progress:
        progress = False
        for x in sorted(want_on):
            y = want_on[x]
            if placed(x) or x not in state.clear or y not in state.clear:
                continue
            if not placed(y):
                continue
            do(Action("pick-up", (x,)) if x in state.on_table
               else Action("unstack", (x, state.on[x])))
            do(Action("stack", (x, y)))
            progress = True

    if not satisfies(state, goal):
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
    a planner. Labels P1, P2, ... are assigned in first-seen order of
    distinct step sequences, shared across sizes. Deterministic given the
    seed, except for the measured cpu time.
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
        for _ in range(per_size):
            initial, goal = problems[rng.randrange(pool)]
            result = solve(initial, goal, method=method)
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
