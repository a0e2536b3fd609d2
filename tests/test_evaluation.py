import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plancell.evaluation as evaluation
from plancell.blocksworld import (corpus_training_set, generate_corpus,
                                  generate_runs)
from plancell.dataset import build_training_set, shuffled_classes, subset
from plancell.discretize import apply_map, fit_map
from plancell.errors import DataError
from plancell.evaluation import (ENGINES, METHODS, EvalReport, cross_validate,
                                 evaluate_grid, make_folds, report, report_csv)
from plancell.knn import classify_knn, fit_knn
from plancell.tree import (GAIN_RATIO, INFO_GAIN, _stratified_thirds, grow,
                           induce, model_to_json)

from oracles import (cv_case_by_case, fold_assignment, grow_tree, knn_label,
                     rep_prune, stratified_thirds)


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
        shuffled_classes(stray, 0)
    with pytest.raises(DataError, match="instance 12 has label 'C'"):
        make_folds(stray, folds=2)
    with pytest.raises(DataError, match="instance 12 has label 'C'"):
        _stratified_thirds(stray, 0)


@pytest.mark.parametrize("method", METHODS)
def test_a_class_named_like_an_unplaced_case_is_refused(method):
    # kNN and majority build no Schema, so the grid's own check refuses it;
    # a confusion ('?', '?', n) would hide n unplaceable cases
    ts = build_training_set([("x", "nominal")],
                            [("a", "?"), ("a", "?"), ("b", "P"), ("b", "P")])
    assert evaluation.UNKNOWN == "?"
    for cell in (lambda: cross_validate(ts, method, "none", folds=2),
                 lambda: evaluate_grid(ts, [method, "majority"], ["none"],
                                       folds=2)):
        with pytest.raises(DataError, match=r"class '\?' marks an unplaceable"):
            cell()


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
        labels = sorted(runs11.labels[i] for i in doubled)
        assert labels == ["P1", "P5"]


def test_even_split_when_divisible():
    ts = build_training_set(
        [("x", "nominal")],
        [(v, label) for label in "AB" for v in "abcde"])
    plan = make_folds(ts, folds=5, seed=3)
    sizes = Counter(plan.assignment)
    assert sorted(sizes.values()) == [2] * 5
    for fold in range(5):
        labels = [ts.labels[i] for i in plan.test_indices(fold)]
        assert sorted(labels) == ["A", "B"]


def test_per_class_fold_spread_is_at_most_one(runs11):
    plan = make_folds(runs11, folds=5, seed=2)
    for label in runs11.classes:
        counts = Counter(plan.assignment[i]
                         for i, y in enumerate(runs11.labels) if y == label)
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
    # on a larger plan, the exact lists: ascending Python ints
    plan = make_folds(many_classes(3, n=2_000), folds=10, seed=1)
    for fold in range(10):
        test, train = plan.test_indices(fold), plan.train_indices(fold)
        assert test == [i for i, f in enumerate(plan.assignment) if f == fold]
        assert train == [i for i, f in enumerate(plan.assignment) if f != fold]
        assert all(type(i) is int for i in test + train)


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


def test_every_held_out_case_of_a_bw_gen_corpus_has_a_copy_in_training():
    # bw-gen --sizes 4,5,6,7 --per-size 50 --pool 5 --seed 1: every draw of
    # a pool problem shares its values, the solver's time included, and its
    # label, so the grid measures recall of rows seen in training
    ts = generate_corpus([4, 5, 6, 7], 50, seed=1, pool=5)
    plan = make_folds(ts, 10, 1)
    rows = list(zip(ts.rows, ts.labels))
    copies = 0
    for fold in range(plan.folds):
        seen = {rows[i] for i in plan.train_indices(fold)}
        copies += sum(rows[i] in seen for i in plan.test_indices(fold))
    assert (copies, len(ts)) == (200, 200)


def test_unknown_values_count_as_errors():
    # a unique-valued attribute: every test instance shows the classifier
    # a value it has never seen, so nothing can be placed
    rows = [(f"id{i}", "A" if i % 2 else "B") for i in range(10)]
    ts = build_training_set([("uid", "nominal")], rows)
    result = cross_validate(ts, "j48", "none", folds=5, min_leaf=1)
    assert result.errors == result.total == 10
    assert result.correct == 0 and result.rate == 0.0
    assert all(predicted == "?" for _, predicted, _ in result.confusion)


def spied(monkeypatch, name):
    """Rebind ``evaluation.name`` to a wrapper that records its arguments."""
    calls = []
    real = getattr(evaluation, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(evaluation, name, spy)
    return calls


def test_discretization_is_fit_per_fold(runs11, monkeypatch):
    # supervised maps come from one pass over every fold's training rows,
    # unsupervised ones from one fit per fold
    plan = evaluation.make_folds(runs11, 10, 0)
    batched, single = (spied(monkeypatch, name)
                       for name in ("fit_supervised_maps", "fit_map"))
    cross_validate(runs11, "majority", "supervised", seed=0, folds=10)
    assert single == []
    [(ts, row_sets)] = batched
    assert ts is runs11
    assert [rows.tolist() for rows in row_sets] == \
        [plan.train_indices(fold) for fold in range(10)]
    cross_validate(runs11, "majority", "unsupervised", seed=0, folds=10)
    assert len(batched) == 1
    assert sorted(len(ts) for ts, *_ in single) == [9] + [10] * 9


def test_global_discretization_fits_once(runs11, monkeypatch):
    calls = []
    real = evaluation.fit_map

    def spy(ts, mode, bins=10):
        calls.append(len(ts))
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
    batched, single = (spied(monkeypatch, name)
                       for name in ("fit_supervised_maps", "fit_map"))
    evaluate_grid(runs11, ["j48", "reptree", "knn"],
                  ["supervised", "unsupervised"], seed=0)
    # one pass for the 10 folds' supervised maps, and 10 unsupervised fits,
    # shared by 3 methods
    assert [len(row_sets) for _, row_sets in batched] == [10]
    assert [mode for _, mode, _ in single] == ["unsupervised"] * 10
    batched.clear()
    single.clear()
    evaluate_grid(runs11, ["j48", "reptree", "knn"],
                  ["supervised", "unsupervised"], seed=0,
                  global_discretize=True)
    assert batched == []
    assert [mode for _, mode, _ in single] == ["supervised", "unsupervised"]


@pytest.mark.parametrize("engine", ["tree", "casi"])
@pytest.mark.parametrize("global_discretize", [False, True])
def test_grid_reports_equal_one_cross_validate_per_cell(engine,
                                                        global_discretize):
    ts = generate_corpus([4, 5], 12, seed=21)
    options = dict(folds=5, k=3, bins=4, min_leaf=1, engine=engine,
                   global_discretize=global_discretize)
    for methods, modes in [(["j48", "reptree", "knn", "majority"],
                            ["supervised", "unsupervised"]),
                           (["knn", "majority"], ["none", "supervised"]),
                           (["j48", "j48"], ["supervised"]),
                           (["j48", "knn", "j48"], ["unsupervised"] * 2),
                           (["reptree"], ["supervised", "supervised"]),
                           (["knn"], ["none"]),
                           ([], ["supervised"]), (["j48", "knn"], []),
                           ([], [])]:
        grid = evaluate_grid(ts, methods, modes, seed=3, **options)
        assert grid == [cross_validate(ts, method, mode, 3, **options)
                        for method in methods for mode in modes]


def test_an_empty_grid_fits_nothing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an empty grid took a fold")

    monkeypatch.setattr(evaluation, "subset", boom)
    ts = build_training_set([("x", "nominal")], [("a", "A"), ("b", "B")])
    for methods, modes in [([], ["supervised"]), (["j48", "knn"], []), ([], [])]:
        assert evaluate_grid(ts, methods, modes) == []


@pytest.mark.parametrize("methods", [["j48", "reptree", "knn"], ["knn"]])
def test_a_grid_takes_each_folds_training_rows_once(runs11, monkeypatch,
                                                    methods):
    calls = []
    real = evaluation.subset

    def spy(ts, indices):
        calls.append(len(indices))
        return real(ts, indices)

    monkeypatch.setattr(evaluation, "subset", spy)
    evaluate_grid(runs11, methods, ["supervised", "unsupervised"], seed=0)
    assert sorted(calls) == [9] + [10] * 9  # 10 folds, not 10 x 2 modes


def test_a_one_cell_grid_is_one_cross_validate_call(runs11, monkeypatch):
    calls = []
    real = evaluation.cross_validate

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "cross_validate", spy)
    assert evaluate_grid(runs11, ["knn"], ["unsupervised"], seed=0) == \
        [real(runs11, "knn", "unsupervised", 0)]
    assert calls == [("knn", "unsupervised")]
    calls.clear()
    evaluate_grid(runs11, ["knn", "majority"], ["supervised"], seed=0)
    assert calls == []


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


@st.composite
def mixed_sets(draw):
    """8-30 rows over 0-3 nominal or numeric attributes and 1-3 classes.
    Values repeat, and numeric columns mix ints and floats, -0.0 included."""
    n = draw(st.integers(8, 30))
    kinds = draw(st.lists(st.sampled_from(["nominal", "numeric"]), max_size=3))
    values = {"nominal": st.sampled_from(["a", "b", "c"]),
              "numeric": st.one_of(st.integers(-3, 3),
                                   st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.5]))}
    columns = [draw(st.lists(values[kind], min_size=n, max_size=n))
               for kind in kinds]
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    rows = [(*(column[i] for column in columns), labels[i]) for i in range(n)]
    return build_training_set([(f"x{i}", kind) for i, kind in enumerate(kinds)],
                              rows)


@settings(max_examples=60, deadline=None)
@given(mixed_sets(), st.integers(2, 4), st.integers(0, 9), st.sampled_from([1, 3]),
       st.sampled_from([2, 10]), st.sampled_from([1, 2]),
       st.sampled_from(ENGINES), st.booleans())
def test_grid_equals_one_classification_per_raw_case(ts, folds, seed, k, bins,
                                                     min_leaf, engine,
                                                     global_discretize):
    options = dict(folds=folds, k=k, bins=bins, min_leaf=min_leaf,
                   engine=engine, global_discretize=global_discretize)
    modes = ["supervised", "unsupervised"]
    got = evaluate_grid(ts, METHODS, modes, seed, **options) \
        + evaluate_grid(ts, ["knn"], ["none"], seed, **options)
    cells = [(method, mode) for method in METHODS for mode in modes]
    assert got == [cv_case_by_case(ts, method, mode, seed, **options)
                   for method, mode in cells + [("knn", "none")]]


def test_a_set_without_attributes_reports_as_before():
    ts = build_training_set([], [("a",), ("b",), ("a",), ("a",), ("b",)] * 4)
    for method in METHODS:
        result = cross_validate(ts, method, "supervised", folds=2)
        assert result == cv_case_by_case(ts, method, "supervised", folds=2)
        if method == "knn":
            assert (result.correct, result.per_fold) == (10, (60.0, 40.0))
        else:
            assert (result.correct, result.per_fold) == (12, (60.0, 60.0))


@pytest.fixture
def predict_calls(monkeypatch):
    """The (classify, values) pair of every ``evaluation.predict`` call."""
    calls = []
    real = evaluation.predict

    def spy(classify, values):
        calls.append((classify, values))
        return real(classify, values)

    monkeypatch.setattr(evaluation, "predict", spy)
    return calls


def test_raw_numbers_that_compare_equal_share_one_knn_label(predict_calls):
    # 0.0 == -0.0 and 1 == 1.0: under mode none each pair is one case
    rng = random.Random(5)
    rows = [(rng.choice([0.0, -0.0, 1, 1.0, 2]), rng.choice("ab"),
             rng.choice("AB")) for _ in range(40)]
    ts = build_training_set([("x", "numeric"), ("y", "nominal")], rows)
    for k in (1, 3):
        for seed in (0, 1, 2):
            predict_calls.clear()
            result = cross_validate(ts, "knn", "none", seed=seed, folds=4, k=k)
            assert result == cv_case_by_case(ts, "knn", "none", seed, folds=4, k=k)
            assert len(predict_calls) <= 4 * 6  # at most 3 x 2 distinct cases a fold


def test_every_copy_of_an_unplaceable_case_counts_as_an_error(predict_calls):
    # three copies of one case whose value only occurs in fold 0's test
    # split: the tree cannot place it, so all three count, labelled once
    labels = ["A", "B"] * 10
    plan = make_folds(build_training_set([], [(y,) for y in labels]), 2, 0)
    copies = plan.test_indices(0)[:3]
    rows = [("z" if i in copies else y.lower(), y) for i, y in enumerate(labels)]
    ts = build_training_set([("x", "nominal")], rows)
    assert make_folds(ts, 2, 0) == plan
    result = cross_validate(ts, "j48", "none", folds=2, min_leaf=1)
    assert result == cv_case_by_case(ts, "j48", "none", folds=2, min_leaf=1)
    assert result.errors == 3
    assert sum(n for _, predicted, n in result.confusion if predicted == "?") == 3
    assert [values for _, values in predict_calls].count(("z",)) == 1


def benchmark_corpus():
    """The benchmark's seed-1 2,000-instance corpus: its wall-clock time
    column is replaced by the benchmark's seeded values."""
    runs = generate_runs([4, 5, 6, 7, 8], 400, 1, pool=20)
    rng = random.Random("cpu-time/1")
    return corpus_training_set([replace(r, cpu_time=round(
        (2e-4 * len(r.initial.blocks) ** 2 + 5e-5 * len(r.plan))
        * rng.lognormvariate(0.0, 0.3), 9)) for r in runs])


@pytest.mark.parametrize("k", [1, 3])
def test_knn_cells_of_the_benchmark_corpus_match_case_by_case(k):
    # binned folds are all-nominal, so kNN stores their distinct rows and
    # answers copies by lookup; the case-by-case loop labels every case
    ts = benchmark_corpus()
    plan = make_folds(ts, 10, seed=1)
    for mode in ("supervised", "unsupervised"):
        result = cross_validate(ts, "knn", mode, seed=1, k=k)
        assert result == cv_case_by_case(ts, "knn", mode, seed=1, k=k)
        # and fold 0's distinct cases against the scalar vote
        train = subset(ts, plan.train_indices(0))
        dmap = fit_map(train, mode)
        fitted = apply_map(dmap, train)
        model = fit_knn(fitted, k)
        for case in set(apply_map(dmap, ts.take(plan.test_indices(0))).rows):
            assert classify_knn(model, case) == knn_label(fitted, k, case)


def test_tree_fits_of_a_benchmark_fold_equal_the_oracles():
    # 100 classes and distinct rows that stand for up to hundreds of rows:
    # growth's counts and scores far past the property tests' draws
    ts = benchmark_corpus()
    train = subset(ts, make_folds(ts, 10, seed=1).train_indices(0))

    def model(graph):
        return json.dumps(model_to_json(graph))

    for mode in ("supervised", "unsupervised"):
        binned = apply_map(fit_map(train, mode), train)
        assert max(Counter(binned.rows).values()) >= 100
        for growth in (GAIN_RATIO, INFO_GAIN):
            assert model(grow(binned, growth)) == \
                model(grow_tree(binned, growth, 2))
        grow_idx, prune_idx = stratified_thirds(binned, 1)
        # take keeps the fit-time domains, as induce does
        assert model(induce(binned, "reptree", seed=1)) == model(rep_prune(
            grow_tree(binned.take(grow_idx), INFO_GAIN, 2),
            binned.take(prune_idx)))


def test_each_distinct_encoded_case_is_labelled_once_per_method_and_fold(
        predict_calls):
    ts = benchmark_corpus()
    assert len(ts) == 2_000
    for mode, distinct in [("supervised", 405), ("unsupervised", 786)]:
        predict_calls.clear()
        evaluate_grid(ts, ["majority", "knn"], [mode], seed=1)
        # one classifier per method and fold
        assert len({id(classify) for classify, _ in predict_calls}) == 2 * 10
        assert len(predict_calls) == 2 * distinct
