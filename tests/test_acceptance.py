"""Acceptance gate: one test per shipping criterion, with pinned tolerances.

Each test prints one line with the measured values, so a verbose run reads
as a checklist. Tolerances and limits are stated inline; everything else in
the suite backs these checks with finer-grained cases.
"""

import random
import time

import pytest

from plancell.blocksworld import all_on_table, generate_corpus, generate_runs, \
    solve, validate_plan
from plancell.casi import classify_casi, compile_tree, established_facts, \
    infer, instance_facts
from plancell.dataset import build_training_set, class_distribution
from plancell.discretize import apply_map, discretize_supervised, \
    discretize_unsupervised
from plancell.errors import UnknownValueError
from plancell.evaluation import cross_validate, evaluate_grid, make_folds
from plancell.plans import enumerate_plans
from plancell.tree import INFO_GAIN, classify_tree, entropy, grow, \
    information_gain

from oracles import _boundary_candidates, brute_force_plans


def random_nominal_set(rng):
    n_attrs = rng.randint(1, 6)
    columns = [f"x{i}" for i in range(n_attrs)]
    pools = [[f"v{j}" for j in range(rng.randint(2, 5))] for _ in columns]
    n_classes = rng.randint(2, 8)
    classes = [f"K{j}" for j in range(n_classes)]
    rows = [tuple(rng.choice(pool) for pool in pools) + (rng.choice(classes),)
            for _ in range(rng.randint(max(5, n_classes), 60))]
    ts = build_training_set([(c, "nominal") for c in columns], rows)
    return ts, pools


def test_cellular_engine_equals_tree_walks_everywhere():
    # >= 200 random trees x 50 in-domain instances: identical labels,
    # identical unknown-value failures, node facts == visited path; < 5 s
    rng = random.Random(20240605)
    start = time.perf_counter()
    cases = agreed = 0
    for _ in range(200):
        ts, pools = random_nominal_set(rng)
        tree = grow(ts, INFO_GAIN, min_leaf=rng.choice([1, 2]))
        kb = compile_tree(tree)
        for _ in range(50):
            inst = tuple(rng.choice(pool) for pool in pools)
            cases += 1
            try:
                expected, path = classify_tree(tree, inst)
            except UnknownValueError:
                try:
                    classify_casi(kb, inst)
                except UnknownValueError:
                    agreed += 1
                continue
            final = infer(kb, [kb.facts[0]] + instance_facts(kb, inst))[-1]
            nodes = {f for f in established_facts(kb, final) if "=" not in f}
            if classify_casi(kb, inst) == expected and nodes == set(path):
                agreed += 1
    elapsed = time.perf_counter() - start
    assert cases == 10000
    assert agreed == cases
    assert elapsed < 5.0
    print(f"PASS cellular-tree equivalence: {agreed}/{cases} cases "
          f"on 200 trees in {elapsed:.2f}s")


def test_entropy_and_root_split_values(runs11_nominal):
    dist = class_distribution(runs11_nominal)
    assert sorted(dist.values(), reverse=True) == [3, 2, 2, 2, 2]
    h = entropy(dist)
    assert h == pytest.approx(2.2999, abs=1e-4)

    gain_steps = information_gain(runs11_nominal, "steps")
    gain_problem = information_gain(runs11_nominal, "problem")
    assert gain_steps == pytest.approx(1.4949, abs=1e-3)
    assert gain_problem == pytest.approx(1.0031, abs=1e-3)
    assert gain_steps > gain_problem

    tree = grow(runs11_nominal, INFO_GAIN, min_leaf=1)
    assert tree.root.attribute == "steps"
    assert len(tree.root.children) == 3
    twelve = tree.root.children["12"]
    assert twelve.is_leaf and twelve.counts == {"P3": 2}
    print(f"PASS entropy/root split: H={h:.4f} bits, gain(steps)="
          f"{gain_steps:.4f} > gain(problem)={gain_problem:.4f}, "
          f"root=steps with 3 branches, steps=12 -> pure P3")


def test_unpruned_tree_reproduces_its_training_data(runs11):
    dmap = discretize_supervised(runs11)
    cooked = apply_map(dmap, runs11)
    tree = grow(cooked, INFO_GAIN, min_leaf=1)
    hits = sum(classify_tree(tree, row)[0] == label
               for row, label in zip(cooked.rows, cooked.labels))
    assert hits == 11
    print(f"PASS training-accuracy identity: {hits}/11 on the solved-runs "
          f"corpus ({tree.node_count} nodes)")


def test_emergency_project_has_exactly_eight_plans(fire):
    start = time.perf_counter()
    plans = {p.steps for p in enumerate_plans(fire).plans}
    oracle = brute_force_plans(fire)
    elapsed = time.perf_counter() - start
    assert len(plans) == 8
    assert plans == oracle
    assert elapsed < 1.0
    print(f"PASS plan enumeration: 8/8 plans match the subset-enumeration "
          f"oracle in {elapsed:.2f}s")


def test_every_generated_blocksworld_plan_validates():
    goal = (("on", "d", "c"), ("on", "c", "b"), ("on", "b", "a"))
    tower = solve(all_on_table("abcd"), goal)
    assert len(tower.plan) == 6
    assert validate_plan(all_on_table("abcd"), tower.plan, goal)[0]

    runs = generate_runs([4, 5, 6, 7], 50, seed=11)
    assert len(runs) == 200
    valid = sum(validate_plan(r.initial, r.plan, r.goal)[0] for r in runs)
    assert valid == 200
    print(f"PASS plan validity: 6-step tower plan plus {valid}/200 "
          f"generated plans validate")


def test_discretization_oracle_values():
    ts = build_training_set(
        [("x", "numeric")],
        [(1.0, "A"), (2.0, "A"), (9.0, "B"), (10.0, "B")])
    assert discretize_supervised(ts).cuts["x"] == (5.5,)

    rng = random.Random(60)
    checked = 0
    for _ in range(40):
        n = rng.randint(6, 30)
        values = [float(rng.randint(0, 14)) for _ in range(n)]
        pivot = rng.randint(2, 12)
        labels = ["A" if v < pivot else "B" for v in values]
        labels[rng.randrange(n)] = rng.choice("AB")
        rows = list(zip(values, labels))
        cuts = discretize_supervised(
            build_training_set([("x", "numeric")], rows)).cuts["x"]
        midpoints = set(_boundary_candidates(sorted(rows)))
        assert set(cuts) <= midpoints
        checked += len(cuts)
    assert checked > 10

    sample = build_training_set(
        [("time", "numeric")],
        [(0.032237, "P1"), (0.782671, "P4"), (0.1, "P2")])
    cuts = discretize_unsupervised(sample, bins=10).cuts["time"]
    assert len(cuts) == 9
    steps = {round(b - a, 7) for a, b in zip(cuts, cuts[1:])}
    for width in steps:
        assert width == pytest.approx(0.0750434, abs=1e-6)
    print(f"PASS discretization: cut 5.5 on the textbook case, {checked} "
          f"supervised cuts all on boundary midpoints, unsupervised step "
          f"{cuts[1] - cuts[0]:.7f}")


def test_cross_validation_integrity(runs11):
    corpus = generate_corpus([4, 5], 15, seed=2)
    for ts in (runs11, corpus):
        plan = make_folds(ts, 10, seed=0)
        seen = sorted(i for fold in range(10) for i in plan.test_indices(fold))
        assert seen == list(range(len(ts)))

    rates = []
    for seed in (0, 3, 17):
        result = cross_validate(runs11, "majority", "supervised", seed=seed)
        assert result.rate == pytest.approx(27.27, abs=0.01)
        rates.append(result.rate)
    again = cross_validate(runs11, "majority", "supervised", seed=0)
    assert again == cross_validate(runs11, "majority", "supervised", seed=0)
    print(f"PASS cross-validation integrity: every instance tested once, "
          f"majority baseline {rates[0]:.2f}%, seeded reruns identical")


def test_generated_corpus_benchmark_grid():
    start = time.perf_counter()
    ts = generate_corpus([4, 5, 6, 7], 50, seed=11)
    assert len(ts) == 200

    baseline = cross_validate(ts, "majority", "supervised", seed=0).rate
    results = evaluate_grid(ts, ["j48", "reptree", "knn"],
                            ["supervised", "unsupervised"], seed=0)
    elapsed = time.perf_counter() - start
    rates = {(r.method, r.mode): r.rate for r in results}
    for method in ("j48", "reptree"):
        for mode in ("supervised", "unsupervised"):
            assert rates[(method, mode)] >= baseline
    assert elapsed < 30.0
    cells = ", ".join(f"{m}/{d[:5]}={rates[(m, d)]:.2f}%"
                      for m in ("j48", "reptree", "knn")
                      for d in ("supervised", "unsupervised"))
    print(f"PASS benchmark grid: 200-instance corpus, baseline "
          f"{baseline:.2f}%, {cells}, {elapsed:.1f}s")
