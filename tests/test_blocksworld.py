import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancell import blocksworld
from plancell.blocksworld import (Action, BlockState, all_on_table, apply,
                                  corpus_training_set, generate_corpus,
                                  generate_runs, random_state, solve,
                                  state_goal_atoms, validate_plan,
                                  UnsolvableGoalError)
from plancell.errors import DataError, InapplicableActionError, LimitError

from oracles import (bfs_blocks, bfs_plan, blocks_successors, greedy_plan,
                     satisfies, support_cycle)

TOWER_PLAN = ("pick-up b", "stack b a", "pick-up c",
              "stack c b", "pick-up d", "stack d c")
TOWER_GOAL = (("on", "d", "c"), ("on", "c", "b"), ("on", "b", "a"))


def test_pick_up_effects():
    state = all_on_table("abcd")
    succ = apply(state, Action("pick-up", ("b",)))
    assert succ.holding == "b"
    assert "b" not in succ.clear
    assert "b" not in succ.on_table
    assert state.arm_empty  # input untouched


def test_stack_effects():
    state = BlockState(on_table={"a", "c", "d"}, holding="b")
    succ = apply(state, Action("stack", ("b", "a")))
    assert succ.on["b"] == "a"
    assert succ.arm_empty
    assert "b" in succ.clear
    assert "a" not in succ.clear


def test_unstack_requires_on():
    state = all_on_table("abcd")
    with pytest.raises(InapplicableActionError, match=r"on\(a,b\)"):
        apply(state, Action("unstack", ("a", "b")))


def test_pick_up_requires_empty_arm():
    state = BlockState(on_table={"a", "b"}, holding="c")
    with pytest.raises(InapplicableActionError, match="arm-empty"):
        apply(state, Action("pick-up", ("a",)))


def test_pick_up_requires_clear():
    state = BlockState(on={"b": "a"}, on_table={"a"})
    with pytest.raises(InapplicableActionError, match=r"clear\(a\)"):
        apply(state, Action("pick-up", ("a",)))


# Each ``state`` is constructor arguments, which the constructor refuses:
# no solver or plan replay ever sees a state that is not a set of towers.
@pytest.mark.parametrize("state,message", [
    (dict(on={"a": "b"}, on_table={"a", "b"}), "occupies 2 positions"),
    (dict(on={"a": "z"}), "unknown block 'z'"),
    (dict(on={"a": "b", "b": "a"}), "cycle"),
    (dict(on={"a": "a"}), "cycle"),
    (dict(on={"a": "c", "b": "c"}, on_table={"c"}), "2 blocks rest on block 'c'"),
    (dict(on={"a": "b"}, holding="b"), "held block 'b'"),
])
def test_check_rejects_non_towers(state, message):
    with pytest.raises(DataError, match=message):
        BlockState(**state)


def test_action_parse_and_str():
    action = Action.parse("stack b a")
    assert action == Action("stack", ("b", "a"))
    assert str(action) == "stack b a"
    assert Action.parse("(pick-up c)") == Action("pick-up", ("c",))


def test_action_arity_checked():
    with pytest.raises(DataError, match="argument"):
        Action("pick-up", ("a", "b"))
    with pytest.raises(DataError, match="unknown action"):
        Action("fly", ("a",))


def random_applicable(state, rng):
    return rng.choice(list(blocks_successors(state)))


def test_apply_preserves_invariant():
    rng = random.Random(7)
    for _ in range(40):
        state = random_state(list("abcde"), rng)
        for _ in range(12):
            state = apply(state, random_applicable(state, rng))
            # the constructor refuses anything but towers
            assert BlockState(state.on, state.on_table, state.holding) == state


def test_inverse_actions_restore_state():
    rng = random.Random(8)
    for _ in range(40):
        state = random_state(list("abcde"), rng)
        action = random_applicable(state, rng)
        succ = apply(state, action)
        if action.name == "pick-up":
            back = Action("put-down", action.args)
        elif action.name == "put-down":
            back = Action("pick-up", action.args)
        elif action.name == "stack":
            back = Action("unstack", action.args)
        else:
            back = Action("stack", action.args)
        assert apply(succ, back) == state


def test_validate_tower_plan():
    ok, detail = validate_plan(all_on_table("abcd"), TOWER_PLAN, TOWER_GOAL)
    assert ok and detail is None


def test_validate_rejects_swapped_steps():
    steps = (TOWER_PLAN[1], TOWER_PLAN[0]) + TOWER_PLAN[2:]
    ok, detail = validate_plan(all_on_table("abcd"), steps, TOWER_GOAL)
    assert not ok
    assert "step 1" in detail


def test_validate_empty_plan_when_goal_holds():
    state = all_on_table("ab")
    ok, detail = validate_plan(state, (), [("on-table", "a")])
    assert ok and detail is None


def test_validate_reports_unmet_goal():
    ok, detail = validate_plan(all_on_table("ab"), (), [("on", "a", "b")])
    assert not ok
    assert "goal atom" in detail


def test_solve_tower_is_six_steps():
    result = solve(all_on_table("abcd"), TOWER_GOAL)
    assert len(result.plan) == 6
    assert validate_plan(all_on_table("abcd"), result.plan, TOWER_GOAL)[0]


def test_solve_satisfied_goal_is_empty():
    result = solve(all_on_table("ab"), [("on-table", "a")])
    assert result.plan == ()
    assert len(result.plan) == 0


def test_solve_three_block_double_stack():
    goal = (("on", "a", "b"), ("on", "b", "c"))
    result = solve(all_on_table("abc"), goal)
    assert len(result.plan) == 4


def test_bfs_matches_independent_oracle():
    rng = random.Random(31)
    for _ in range(10):
        initial = random_state(list("abcd"), rng)
        goal = tuple(state_goal_atoms(random_state(list("abcd"), rng)))
        expected = bfs_blocks(initial, goal, apply, blocks_successors, satisfies)
        result = solve(initial, goal, method="bfs")
        assert len(result.plan) == expected


@st.composite
def blocks_problems(draw):
    """1-6 blocks, maybe one of them held, and a full or partial goal."""
    names = list(string.ascii_lowercase[:draw(st.integers(1, 6))])

    def towers():
        order = draw(st.permutations(names))
        new_tower = [True] + draw(st.lists(st.booleans(), min_size=len(names) - 1,
                                           max_size=len(names) - 1))
        on, on_table = {}, set()
        for below, block, starts in zip([None, *order], order, new_tower):
            if starts:
                on_table.add(block)
            else:
                on[block] = below
        return BlockState(on, on_table)

    initial = towers()
    if draw(st.booleans()):
        held = draw(st.sampled_from(sorted(initial.clear)))
        initial = BlockState({b: u for b, u in initial.on.items() if b != held},
                             initial.on_table - {held}, held)
    goal = state_goal_atoms(towers())
    if draw(st.booleans()):
        goal = [a for a in goal if draw(st.booleans())]
    return initial, tuple(goal)


@settings(max_examples=60, deadline=None)
@given(blocks_problems())
def test_bfs_plan_equals_the_object_search(problem):
    initial, goal = problem
    plan = solve(initial, goal, method="bfs").plan
    assert plan == bfs_plan(initial, goal, 500_000)
    assert validate_plan(initial, plan, goal) == (True, None)


@settings(max_examples=60, deadline=None)
@given(blocks_problems())
def test_greedy_plan_equals_the_object_construction(problem):
    initial, goal = problem
    plan = solve(initial, goal, method="greedy").plan
    assert validate_plan(initial, plan, goal) == (True, None)
    try:
        expected = tuple(str(a) for a in greedy_plan(initial, goal))
    except UnsolvableGoalError:
        # the construction leaves a free block on a goal base; greedy moves it
        return
    assert plan == expected


def test_greedy_clears_a_free_block_off_a_goal_base():
    tower = BlockState({"b": "a", "c": "b", "d": "c", "e": "d"}, {"a"})
    goal = (("on", "e", "c"),)
    plan = solve(tower, goal, method="greedy").plan
    assert plan == ("unstack e d", "put-down e", "unstack d c", "put-down d",
                    "pick-up e", "stack e c")
    assert validate_plan(tower, plan, goal) == (True, None)


@settings(max_examples=60, deadline=None)
@given(blocks_problems())
def test_state_rebuilt_from_its_views_is_equal(problem):
    state, _ = problem
    again = BlockState(state.on, state.on_table, state.holding)
    assert again == state
    assert hash(again) == hash(state)
    assert repr(again) == repr(state)


def _smallest_oracle_budget(initial, goal):
    fails, succeeds = 0, 500_000
    while succeeds - fails > 1:
        mid = (fails + succeeds) // 2
        try:
            bfs_plan(initial, goal, mid)
            succeeds = mid
        except LimitError:
            fails = mid
    return succeeds


def test_bfs_spends_the_oracle_budget():
    rng = random.Random(33)
    for n in (3, 4, 4, 5, 5, 6):
        blocks = list(string.ascii_lowercase[:n])
        initial = random_state(blocks, rng)
        goal = tuple(state_goal_atoms(random_state(blocks, rng)))
        if not bfs_plan(initial, goal, 500_000):
            continue
        budget = _smallest_oracle_budget(initial, goal)
        assert solve(initial, goal, budget=budget).plan == \
            bfs_plan(initial, goal, budget)
        with pytest.raises(LimitError,
                           match=f"^search budget of {budget - 1} states exhausted$"):
            solve(initial, goal, budget=budget - 1)


def test_greedy_validates_and_is_no_shorter_than_bfs():
    rng = random.Random(32)
    for _ in range(10):
        initial = random_state(list("abcde"), rng)
        goal = tuple(state_goal_atoms(random_state(list("abcde"), rng)))
        greedy = solve(initial, goal, method="greedy")
        assert validate_plan(initial, greedy.plan, goal)[0]
        optimal = solve(initial, goal, method="bfs")
        assert len(greedy.plan) >= len(optimal.plan)


def test_budget_exhaustion():
    goal = (("on", "g", "f"), ("on", "f", "e"), ("on", "e", "d"),
            ("on", "d", "c"), ("on", "c", "b"), ("on", "b", "a"))
    with pytest.raises(LimitError, match="budget"):
        solve(all_on_table("abcdefg"), goal, budget=50)


def test_unknown_method():
    with pytest.raises(DataError, match="method"):
        solve(all_on_table("ab"), [], method="dfs")


@pytest.mark.parametrize("goal,message", [
    ((("on", "a", "a"),), "itself"),
    ((("on", "a", "b"), ("on", "a", "c")), "two goal positions"),
    ((("on", "a", "b"), ("on-table", "a")), "two goal positions"),
    ((("on", "a", "b"), ("on", "c", "b")), "two blocks stacked"),
    ((("on", "a", "b"), ("on", "b", "c"), ("on", "c", "a")), "cycle"),
    ((("on", "a", "z"),), "unknown block"),
    ((("on-table", "a"), ("on", "a", "b")), "two goal positions"),
])
def test_inconsistent_goals_rejected(goal, message):
    with pytest.raises(UnsolvableGoalError, match=message):
        solve(all_on_table("abc"), goal)
    with pytest.raises(UnsolvableGoalError, match=message):
        validate_plan(all_on_table("abc"), (), goal)


@st.composite
def support_vectors(draw):
    """0-12 entries, each a block index, the table, the arm or free."""
    n = draw(st.integers(0, 12))
    entry = st.sampled_from([*range(n), -1, -2, None])
    return draw(st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=500, deadline=None)
@given(support_vectors())
def test_cyclic_equals_the_depth_first_oracle(support):
    assert blocksworld._cyclic(support) == support_cycle(support)


@pytest.mark.parametrize("last,cyclic", [(-1, False), (0, True)],
                         ids=["26-block tower", "26-block loop"])
def test_cyclic_beyond_the_drawn_sizes(last, cyclic):
    support = tuple(range(1, 26)) + (last,)
    assert blocksworld._cyclic(support) is support_cycle(support) is cyclic


@pytest.mark.parametrize("reader", ["bfs", "greedy", "validate_plan"])
@pytest.mark.parametrize("atom", [("on", "a"), ("on-table", "a", "b"),
                                  ("clear", "a")],
                         ids=["on a", "on-table a b", "clear a"])
def test_malformed_goal_atoms_rejected(atom, reader):
    with pytest.raises(UnsolvableGoalError,
                       match=re.escape(f"malformed goal atom {atom!r}")):
        if reader == "validate_plan":
            validate_plan(all_on_table("abc"), (), (atom,))
        else:
            solve(all_on_table("abc"), (atom,), method=reader)


def test_generate_runs_deterministic_except_time():
    first = generate_runs([4, 5], 6, seed=3)
    second = generate_runs([4, 5], 6, seed=3)
    assert [(r.problem, r.initial, r.goal, r.plan, r.label) for r in first] \
        == [(r.problem, r.initial, r.goal, r.plan, r.label) for r in second]


def test_generate_runs_solves_each_drawn_problem_once(monkeypatch):
    calls = []

    def counting_solve(initial, goal, method):
        calls.append((initial, goal))
        return solve(initial, goal, method=method)

    monkeypatch.setattr(blocksworld, "solve", counting_solve)
    runs = generate_runs([4, 5], 20, seed=5, pool=3)
    assert len(runs) == 40
    assert len(calls) <= 6
    assert len(calls) == len(set(calls)) == len({(r.initial, r.goal)
                                                 for r in runs})


@pytest.mark.parametrize("method", ["greedy", "bfs"])
def test_generated_plans_equal_a_fresh_solve(method):
    for run in generate_runs([3, 4], 6, seed=4, pool=2, method=method):
        assert run.plan == solve(run.initial, run.goal, method=method).plan


def test_draws_of_one_problem_share_one_cpu_time():
    runs = generate_runs([4, 5], 20, seed=5, pool=3)
    times = {}
    for run in runs:
        times.setdefault((run.initial, run.goal), set()).add(run.cpu_time)
    assert len(times) < len(runs)  # some problem is drawn more than once
    assert all(len(t) == 1 for t in times.values())


def test_generate_runs_rejects_bad_arguments():
    for size in (0, -1, 27):
        with pytest.raises(DataError, match=f"1..26, got {size}"):
            generate_runs([4, size], 3, seed=0)
    with pytest.raises(DataError, match="per_size"):
        generate_runs([4], 0, seed=0)
    with pytest.raises(DataError, match="sizes"):
        generate_runs([], 3, seed=0)
    with pytest.raises(DataError, match="pool"):
        generate_runs([4], 3, seed=0, pool=0)


def test_labels_first_seen_and_shared_across_sizes():
    runs = generate_runs([4, 5], 20, seed=5)
    seen = {}
    for run in runs:
        if run.plan not in seen:
            expected = f"P{len(seen) + 1}"
            assert run.label == expected
            seen[run.plan] = run.label
        else:
            assert run.label == seen[run.plan]


def test_every_generated_plan_validates():
    for run in generate_runs([4, 5, 6], 10, seed=9):
        assert validate_plan(run.initial, run.plan, run.goal)[0]
        assert run.cpu_time > 0


def test_golden_run_seed_zero():
    (run,) = generate_runs([4], 1, seed=0)
    assert run.problem == "blocks-4"
    assert run.label == "P1"
    assert run.plan == ("unstack d a", "put-down d", "unstack a b",
                        "put-down a", "pick-up c", "stack c a")
    assert run.cpu_time > 0


def test_corpus_schema():
    ts = generate_corpus([4], 5, seed=1)
    assert ts.attribute_names == ("problem", "time", "steps")
    assert [a.kind for a in ts.attributes] == ["nominal", "numeric", "numeric"]
    assert len(ts) == 5
    for inst in ts.instances:
        assert inst.values[0] == "blocks-4"
        assert inst.values[2] == float(int(inst.values[2]))


def test_corpus_steps_column_matches_plan_length():
    runs = generate_runs([4, 5], 8, seed=2)
    ts = corpus_training_set(runs)
    for run, inst in zip(runs, ts.instances):
        assert inst.values[2] == float(len(run.plan))
        assert inst.label == run.label
