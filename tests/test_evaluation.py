import random
from collections import Counter
from dataclasses import replace

import pytest

import plancell.evaluation as evaluation
from plancell.blocksworld import generate_corpus
from plancell.dataset import build_training_set, class_members
from plancell.errors import DataError
from plancell.evaluation import (EvalReport, cross_validate, evaluate_grid,
                                 make_folds, report, report_csv)
from plancell.tree import _stratified_thirds

from oracles import fold_assignment, stratified_thirds


def many_classes(seed, n=1_000, classes=100):
    """Seeded instances over about 100 classes, labels in no order."""
    rng = random.Random(seed)
    rows = [(f"v{rng.randrange(5)}", f"c{rng.randrange(classes)}")
            for _ in range(n)]
    return build_training_set([("x", "nominal")], rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class_grouping_matches_per_class_scans(seed):
    ts = many_classes(seed)
    assert len(ts.classes) >= 95
    for folds in (2, 10):
        assert make_folds(ts, folds, seed).assignment == \
            fold_assignment(ts, folds, seed)
    assert _stratified_thirds(ts, seed) == stratified_thirds(ts, seed)


def test_a_label_outside_the_classes_is_refused_not_dropped():
    ts = build_training_set([("x", "nominal")],
                            [(f"v{i % 3}", "AB"[i % 2]) for i in range(12)])
    stray = replace(ts, columns=(ts.columns[0] + ("v0",),),
                    labels=ts.labels + ("C",))
    with pytest.raises(DataError, match="instance 12 has label 'C'"):
        class_members(stray)
    with pytest.raises(DataError, match="instance 12 has label 'C'"):
        make_folds(stray, folds=2)
    with pytest.raises(DataError, match="instance 12 has label 'C'"):
        _stratified_thirds(stray, 0)


def test_fold_sizes_eleven_over_ten(runs11):
    plan = make_folds(runs11, folds=10, seed=0)
    sizes = Counter(plan.assignment)
    assert sorted(sizes.values()) == [1] * 9 + [2]


def test_fold_zero_gets_the_two_three_member_leftovers(runs11):
    # P1 has three members; the rolling pointer wraps exactly once, so the
    # doubled fold always holds one P1 and one P5 regardless of the seed
    for seed in (0, 1, 7, 123):
        plan = make_folds(runs11, folds=10, seed=seed)
        doubled = [i for i in plan.test_indices(0)]
        labels = sorted(runs11.instances[i].label for i in doubled)
        assert labels == ["P1", "P5"]


def test_even_split_when_divisible():
    ts = build_training_set(
        [("x", "nominal")],
        [(v, label) for label in "AB" for v in "abcde"])
    plan = make_folds(ts, folds=5, seed=3)
    sizes = Counter(plan.assignment)
    assert sorted(sizes.values()) == [2] * 5
    for fold in range(5):
        labels = [ts.instances[i].label for i in plan.test_indices(fold)]
        assert sorted(labels) == ["A", "B"]


def test_per_class_fold_spread_is_at_most_one(runs11):
    plan = make_folds(runs11, folds=5, seed=2)
    for label in runs11.classes:
        counts = Counter(plan.assignment[i]
                         for i, inst in enumerate(runs11.instances)
                         if inst.label == label)
        per_fold = [counts.get(f, 0) for f in range(5)]
        assert max(per_fold) - min(per_fold) <= 1


def test_fold_plan_validation(runs11):
    with pytest.raises(DataError, match="at least 2"):
        make_folds(runs11, folds=1)
    with pytest.raises(DataError, match="cannot fill"):
        make_folds(runs11, folds=12)


def test_fold_plan_is_seed_deterministic(runs11):
    assert make_folds(runs11, 10, seed=4) == make_folds(runs11, 10, seed=4)
    assert make_folds(runs11, 10, seed=4) != make_folds(runs11, 10, seed=5)


def test_train_and_test_indices_partition(runs11):
    plan = make_folds(runs11, folds=10, seed=0)
    for fold in range(10):
        test = set(plan.test_indices(fold))
        train = set(plan.train_indices(fold))
        assert test | train == set(range(11))
        assert not test & train


def test_every_instance_tested_exactly_once(runs11):
    result = cross_validate(runs11, "majority", "supervised", seed=0)
    assert result.total == 11
    assert result.correct + result.incorrect + result.errors == 11
    assert sum(n for _, _, n in result.confusion) == 11


def test_majority_baseline_rate(runs11):
    # the doubled fold trains without one P1, so its majority answer is
    # still P1 and exactly the three P1 instances come back correct
    for seed in (0, 5, 99):
        result = cross_validate(runs11, "majority", "supervised", seed=seed)
        assert result.rate == pytest.approx(27.27, abs=0.01)
        assert result.correct == 3


def test_single_class_dataset_is_perfect():
    ts = build_training_set(
        [("x", "nominal")],
        [(v, "only") for v in "abcdefghij"])
    result = cross_validate(ts, "majority", "none", folds=5)
    assert result.rate == 100.0
    assert result.errors == 0


def test_same_seed_reproduces_the_report(runs11):
    one = cross_validate(runs11, "j48", "supervised", seed=9)
    two = cross_validate(runs11, "j48", "supervised", seed=9)
    assert one == two


def test_rejects_unknown_arguments(runs11):
    with pytest.raises(DataError, match="unknown method"):
        cross_validate(runs11, "svm")
    with pytest.raises(DataError, match="unknown mode"):
        cross_validate(runs11, "j48", "fuzzy")
    with pytest.raises(DataError, match="unknown engine"):
        cross_validate(runs11, "j48", "supervised", engine="gpu")
    with pytest.raises(DataError, match="needs discretized"):
        cross_validate(runs11, "j48", "none")


def test_cellular_engine_reports_match_tree_walks():
    ts = generate_corpus([4, 5], 12, seed=21)
    via_tree = cross_validate(ts, "j48", "supervised", seed=1, engine="tree")
    via_cells = cross_validate(ts, "j48", "supervised", seed=1, engine="casi")
    assert via_cells == via_tree


def test_unknown_values_count_as_errors():
    # a unique-valued attribute: every test instance shows the classifier
    # a value it has never seen, so nothing can be placed
    rows = [(f"id{i}", "A" if i % 2 else "B") for i in range(10)]
    ts = build_training_set([("uid", "nominal")], rows)
    result = cross_validate(ts, "j48", "none", folds=5, min_leaf=1)
    assert result.errors == result.total == 10
    assert result.correct == 0 and result.rate == 0.0
    assert all(predicted == "?" for _, predicted, _ in result.confusion)


def test_discretization_is_fit_per_fold(runs11, monkeypatch):
    calls = []
    real = evaluation.fit_map

    def spy(ts, mode, bins=10):
        calls.append(len(ts.instances))
        return real(ts, mode, bins)

    monkeypatch.setattr(evaluation, "fit_map", spy)
    cross_validate(runs11, "majority", "supervised", seed=0, folds=10)
    assert len(calls) == 10
    assert sorted(calls) == [9] + [10] * 9  # complement of each fold size


def test_global_discretization_fits_once(runs11, monkeypatch):
    calls = []
    real = evaluation.fit_map

    def spy(ts, mode, bins=10):
        calls.append(len(ts.instances))
        return real(ts, mode, bins)

    monkeypatch.setattr(evaluation, "fit_map", spy)
    cross_validate(runs11, "majority", "supervised", seed=0,
                   global_discretize=True)
    assert calls == [11]


def test_fit_failures_name_the_fold(runs11, monkeypatch):
    def boom(*args, **kwargs):
        raise DataError("induction failed")

    monkeypatch.setattr(evaluation, "induce", boom)
    with pytest.raises(DataError, match="fold 0: induction failed"):
        cross_validate(runs11, "j48", "supervised", seed=0)


def test_grid_prepares_each_fold_once_per_mode(runs11, monkeypatch):
    calls = []
    real = evaluation.fit_map

    def spy(ts, mode, bins=10):
        calls.append(mode)
        return real(ts, mode, bins)

    monkeypatch.setattr(evaluation, "fit_map", spy)
    evaluate_grid(runs11, ["j48", "reptree", "knn"],
                  ["supervised", "unsupervised"], seed=0)
    assert len(calls) == 20  # 10 folds x 2 modes, shared by 3 methods
    calls.clear()
    evaluate_grid(runs11, ["j48", "reptree", "knn"],
                  ["supervised", "unsupervised"], seed=0,
                  global_discretize=True)
    assert calls == ["supervised", "unsupervised"]


@pytest.mark.parametrize("engine", ["tree", "casi"])
@pytest.mark.parametrize("global_discretize", [False, True])
def test_grid_reports_equal_one_cross_validate_per_cell(engine,
                                                        global_discretize):
    ts = generate_corpus([4, 5], 12, seed=21)
    options = dict(folds=5, k=3, bins=4, min_leaf=1, engine=engine,
                   global_discretize=global_discretize)
    for methods, modes in [(["j48", "reptree", "knn", "majority"],
                            ["supervised", "unsupervised"]),
                           (["knn", "majority"], ["none", "supervised"])]:
        grid = evaluate_grid(ts, methods, modes, seed=3, **options)
        assert grid == [cross_validate(ts, method, mode, 3, **options)
                        for method in methods for mode in modes]


def test_grid_checks_every_cell_before_fitting(runs11, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("fit before the arguments were checked")

    monkeypatch.setattr(evaluation, "fit_map", boom)
    with pytest.raises(DataError, match="unknown method 'svm'"):
        evaluate_grid(runs11, ["majority", "svm"], ["supervised"])
    with pytest.raises(DataError, match="unknown mode 'fuzzy'"):
        evaluate_grid(runs11, ["majority"], ["supervised", "fuzzy"])
    with pytest.raises(DataError, match="'j48' needs discretized"):
        evaluate_grid(runs11, ["knn", "j48"], ["supervised", "none"])


def test_grid_covers_methods_times_modes(runs11):
    results = evaluate_grid(runs11, ["majority", "knn"],
                            ["supervised", "unsupervised"], seed=0)
    assert [(r.method, r.mode) for r in results] == [
        ("majority", "supervised"), ("majority", "unsupervised"),
        ("knn", "supervised"), ("knn", "unsupervised")]


def test_report_layout(runs11):
    results = evaluate_grid(runs11, ["majority", "knn"],
                            ["supervised", "unsupervised"], seed=0)
    text = report(results)
    lines = text.splitlines()
    assert lines[0].split() == ["Method", "Supervised", "mode",
                                "Unsupervised", "mode"]
    assert len(lines) == 3
    assert lines[1].startswith("majority")
    assert "27.27" in lines[1]
    for line in lines[1:]:
        for cell in line.split()[1:]:
            float(cell)  # every cell renders as a number


def test_report_csv_layout(runs11):
    results = evaluate_grid(runs11, ["majority"], ["supervised"], seed=0)
    text = report_csv(results)
    assert text == "method,supervised\nmajority,27.27\n"


def test_report_single_cell(runs11):
    result = cross_validate(runs11, "majority", "unsupervised", seed=0)
    text = report([result])
    assert text.splitlines()[1].split() == ["majority", "27.27"]


def test_empty_report_rejected():
    with pytest.raises(DataError, match="nothing to report"):
        report([])
    with pytest.raises(DataError, match="nothing to report"):
        report_csv([])


def test_rate_property():
    result = EvalReport("m", "none", 0, 2, 8, 6, 1, 1, (75.0, 75.0), ())
    assert result.rate == 75.0
