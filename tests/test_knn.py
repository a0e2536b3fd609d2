import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import knn_distance, knn_label
from plancell.dataset import build_training_set
from plancell.errors import DataError, UnknownValueError
from plancell.knn import _distances, classify_knn, fit_knn


@pytest.fixture
def runs_knn(runs11):
    return fit_knn(runs11, k=1)


def test_distance_to_self_is_zero(runs11, runs_knn):
    for i, inst in enumerate(runs11.instances):
        assert knn_distance(inst, inst, runs_knn) == 0.0
        assert _distances(runs_knn, inst)[i] == 0.0


def test_single_nominal_difference_is_one(runs_knn):
    a = ("blocks-4", 0.1, 6.0)
    b = ("blocks-5", 0.1, 6.0)
    assert knn_distance(a, b, runs_knn) == 1.0


def test_distance_between_first_and_fifth_runs(runs11, runs_knn):
    # both blocks-4 with 6 steps; only the solve time differs
    a, b = runs11.instances[0], runs11.instances[4]
    d = knn_distance(a, b, runs_knn)
    assert d == pytest.approx(0.000621, abs=1e-6)
    assert d == pytest.approx(0.0006209739963807624)
    assert _distances(runs_knn, a)[4] == d


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("at", [1, 2])
def test_nan_query_value_is_refused(runs11, k, at):
    # NaN distances to every row used to send argmin to row 0
    query = ["blocks-4", 0.032237, 6.0]
    query[at] = math.nan
    name = runs11.attributes[at].name
    with pytest.raises(UnknownValueError,
                       match=f"value nan of attribute '{name}'"):
        classify_knn(fit_knn(runs11, k), tuple(query))


def test_distance_is_symmetric(runs11, runs_knn):
    for a in runs11.instances[:4]:
        for b in runs11.instances[:4]:
            assert knn_distance(a, b, runs_knn) == knn_distance(b, a, runs_knn)


def test_distance_normalizes_by_training_range(runs11, runs_knn):
    lo, hi = runs11.attributes[2].domain
    a = ("blocks-4", 0.1, lo)
    b = ("blocks-4", 0.1, hi)
    assert knn_distance(a, b, runs_knn) == 1.0


def test_constant_numeric_column_contributes_nothing():
    ts = build_training_set(
        [("x", "numeric"), ("y", "numeric")],
        [(5.0, 1.0, "A"), (5.0, 2.0, "B")])
    model = fit_knn(ts)
    assert knn_distance((5.0, 1.0), (5.0, 2.0), model) == 1.0
    assert _distances(model, (5.0, 1.0)).tolist() == [0.0, 1.0]


def test_distance_checks_width(runs_knn):
    with pytest.raises(DataError, match="width"):
        knn_distance(("blocks-4", 0.1), ("blocks-4", 0.1, 6.0), runs_knn)
    with pytest.raises(DataError, match="width"):
        _distances(runs_knn, ("blocks-4", 0.1))


def test_k_bounds(runs11):
    with pytest.raises(DataError, match="k must be"):
        fit_knn(runs11, k=0)
    with pytest.raises(DataError, match="exceeds"):
        fit_knn(runs11, k=12)
    assert fit_knn(runs11, k=11).k == 11


def test_training_instances_classify_as_themselves(runs11, runs_knn):
    for inst in runs11.instances:
        assert classify_knn(runs_knn, inst) == inst.label


def test_nearby_query(runs_knn):
    assert classify_knn(runs_knn, ("blocks-4", 0.033, 6.0)) == "P1"


def test_k_equal_to_n_votes_globally(runs11):
    # P1 holds three of eleven instances, every other class two
    model = fit_knn(runs11, k=11)
    assert classify_knn(model, ("blocks-4", 0.033, 6.0)) == "P1"


def test_distance_ties_keep_training_order():
    ts = build_training_set(
        [("x", "nominal")],
        [("a", "B"), ("a", "A"), ("a", "A")])
    model = fit_knn(ts, k=1)
    # all three neighbors at distance 0; the first in training order wins
    assert classify_knn(model, ("a",)) == "B"


def test_vote_ties_go_to_nearest_member():
    ts = build_training_set(
        [("x", "numeric")],
        [(0.0, "A"), (4.0, "B"), (10.0, "B"), (10.0, "A")])
    model = fit_knn(ts, k=2)
    # neighbors of 1.0 are A at 0.1 and B at 0.3: one vote each, A closer
    assert classify_knn(model, (1.0,)) == "A"
    # neighbors of 3.5 are B at 0.05 and A at 0.35
    assert classify_knn(model, (3.5,)) == "B"


def test_vote_ties_at_equal_distance_break_lexicographically():
    ts = build_training_set(
        [("x", "numeric")],
        [(0.0, "B"), (2.0, "A"), (10.0, "B"), (10.0, "A")])
    model = fit_knn(ts, k=2)
    # query 1.0 sees B at 0.1 and A at 0.1: fully tied, A sorts first
    assert classify_knn(model, (1.0,)) == "A"


# --- column-wise classification against the scalar reference ----------------

@st.composite
def knn_problems(draw):
    """A mixed training set, k, and queries with seen and unseen values.

    Few distinct values make equal distances and vote ties common; a
    constant numeric column has a zero span.
    """
    n = draw(st.integers(1, 25))
    kinds = draw(st.lists(st.sampled_from(["numeric", "constant", "nominal"]),
                          min_size=1, max_size=4))
    columns, cells = [], []
    for j, kind in enumerate(kinds):
        if kind == "nominal":
            pool = st.sampled_from("abc")
        elif kind == "constant":
            pool = st.just(2.5)
        else:
            pool = st.sampled_from([0.0, 0.1, 0.3, 1.0, 7.5])
        columns.append((f"a{j}", "nominal" if kind == "nominal" else "numeric"))
        cells.append(draw(st.lists(pool, min_size=n, max_size=n)))
    labels = draw(st.lists(st.sampled_from("PQR"), min_size=n, max_size=n))
    ts = build_training_set(columns, [row + (y,) for row, y in
                                      zip(zip(*cells), labels)])
    k = draw(st.integers(1, n))
    query_pools = [st.sampled_from(["a", "b", "c", "unseen"])
                   if kind == "nominal" else
                   st.sampled_from([-3.0, 0.0, 0.2, 1.0, 2.5, 9.0])
                   for kind in kinds]
    queries = draw(st.lists(st.tuples(*query_pools), min_size=1, max_size=5))
    return ts, k, queries


@settings(max_examples=300, deadline=None)
@given(knn_problems())
def test_classify_knn_equals_the_scalar_oracle(problem):
    ts, k, queries = problem
    model = fit_knn(ts, k)
    for query in queries:
        assert classify_knn(model, query) == knn_label(ts, k, query)
        assert _distances(model, query).tolist() == \
            [knn_distance(query, inst, model) for inst in ts.instances]
        with pytest.raises(DataError, match="width"):
            classify_knn(model, query + query[:1])


def test_unseen_nominal_value_is_distance_one_to_every_row(runs11, runs_knn):
    query = ("blocks-9", 0.1, 6.0)
    for got, inst in zip(_distances(runs_knn, query), runs11.instances):
        assert got == knn_distance(query, inst, runs_knn)
        assert got >= 1.0


def test_classify_knn_checks_query_width(runs_knn):
    with pytest.raises(DataError, match="width"):
        classify_knn(runs_knn, ("blocks-4", 0.1))
    with pytest.raises(DataError, match="width"):
        classify_knn(runs_knn, ("blocks-4", 0.1, 6.0, 1.0))

