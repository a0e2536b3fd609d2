import math
import re

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
    # NaN distances to every row used to send argmin to row 0, as infinite
    # ones did; 10**400 raised OverflowError and 2**53 + 1 was rounded
    model = fit_knn(runs11, k)
    name = runs11.attributes[at].name
    for value in (math.nan, math.inf, -math.inf, 10**400, 2**53 + 1):
        query = ["blocks-4", 0.032237, 6.0]
        query[at] = value
        with pytest.raises(UnknownValueError, match=re.escape(
                f"value {value!r} of attribute '{name}' has no distance "
                f"to the training rows")):
            classify_knn(model, tuple(query))


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
    """A training set, k, and queries with seen and unseen values.

    Half the sets are all-nominal, as every binned CV fold is, and k = 1
    answers their copies of training rows by lookup; their queries add a
    copy holding a list, which no row holds. Every set repeats some rows,
    with labels of their own, and every set stores its distinct rows. Few
    distinct values make equal distances and vote ties common; a constant
    numeric column has a zero span, 0.0 and -0.0 are one row value, a
    wide column's ranges and differences leave the float range, and a tiny
    column's quotients and squares do.
    """
    n = draw(st.integers(1, 25))
    nominal = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(
        ["nominal"] if nominal else
        ["numeric", "constant", "wide", "tiny", "nominal"]),
        min_size=1, max_size=4))
    wide = [-1e308, -9e307, 0.0, 9e307, 1e308]
    tiny = [0.0, 5e-324, 1e-300, 2e-300]
    columns, cells, query_pools = [], [], []
    for j, kind in enumerate(kinds):
        if kind == "nominal":
            pool = st.sampled_from("abc")
            query_pools.append(st.sampled_from(["a", "b", "c", "unseen"]))
        elif kind == "wide":
            pool = st.sampled_from(wide)
            query_pools.append(st.sampled_from(wide))
        elif kind == "tiny":
            pool = st.sampled_from(tiny)
            query_pools.append(st.sampled_from(
                tiny + [-1e10, -1.0, 1.0, 1e10, -1e200, 1e200]))
        else:
            pool = st.just(2.5) if kind == "constant" else \
                st.sampled_from([0.0, -0.0, 0.1, 0.3, 1.0, 7.5])
            query_pools.append(st.sampled_from([-3.0, 0.0, 0.2, 1.0, 2.5, 9.0]))
        columns.append((f"a{j}", "nominal" if kind == "nominal" else "numeric"))
        cells.append(draw(st.lists(pool, min_size=n, max_size=n)))
    rows = list(zip(*cells))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, n - 1), max_size=n))]
    labels = draw(st.lists(st.sampled_from("PQR"), min_size=len(rows),
                           max_size=len(rows)))
    ts = build_training_set(columns, [row + (y,) for row, y in
                                      zip(rows, labels)])
    k = draw(st.integers(1, len(ts)))
    queries = draw(st.lists(st.tuples(*query_pools), min_size=1, max_size=5))
    queries += draw(st.lists(st.sampled_from(ts.rows), min_size=1, max_size=4))
    if nominal:
        row = draw(st.sampled_from(ts.rows))
        at = draw(st.integers(0, len(row) - 1))
        queries.append(row[:at] + ([row[at]],) + row[at + 1:])
    return ts, k, queries


@settings(max_examples=300, deadline=None)
@given(knn_problems())
def test_classify_knn_equals_the_scalar_oracle(problem):
    ts, drawn_k, queries = problem
    for k in {1, min(3, len(ts)), drawn_k}:
        model = fit_knn(ts, k)
        for query in queries:
            assert classify_knn(model, query) == knn_label(ts, k, query)
            assert _distances(model, query).tolist() == \
                [knn_distance(query, inst, model) for inst in ts.instances]
            with pytest.raises(DataError, match="width"):
                classify_knn(model, query + query[:1])


def test_an_underflowing_square_puts_an_earlier_row_at_distance_zero():
    # 1e-170 squared underflows to 0.0, so row 0 ties the query's exact
    # copy, row 1, and wins by training order: a set with a numeric
    # attribute cannot answer a copy by lookup
    ts = build_training_set([("x", "numeric"), ("y", "nominal")],
                            [(1e-170, "a", "A"), (0.0, "a", "B"),
                             (1.0, "b", "C")])
    model = fit_knn(ts)
    assert _distances(model, (0.0, "a")).tolist() == [0.0, 0.0, math.sqrt(2)]
    assert classify_knn(model, (0.0, "a")) == knn_label(ts, 1, (0.0, "a")) == "A"


def test_a_range_beyond_the_float_range_is_halved():
    # the span 1e308 - -1e308 overflows: it used to give the distances
    # [0, nan, 0], and argmin answered the farthest row, HIGH
    ts = build_training_set([("x", "numeric")],
                            [(-1e308, "LOW"), (1e308, "HIGH"), (0.0, "MID")])
    model = fit_knn(ts)
    assert _distances(model, (-1e308,)).tolist() == [0.0, 1.0, 0.5]
    assert classify_knn(model, (-1e308,)) == knn_label(ts, 1, (-1e308,)) == "LOW"


def test_a_difference_beyond_the_float_range_is_halved():
    # 1e308 - -1e308 and 9e307 - -1e308 both overflow: the distances used
    # to be [inf, inf], and the tie went to A although B is nearer
    ts = build_training_set([("x", "numeric"), ("y", "nominal")],
                            [(1e308, "a", "A"), (9e307, "b", "B")])
    model = fit_knn(ts, k=1)
    query = (-1e308, "b")
    dists = _distances(model, query).tolist()
    assert dists == [knn_distance(query, inst, model) for inst in ts.instances]
    assert dists == pytest.approx([math.sqrt(20.0 ** 2 + 1), 19.0])
    assert classify_knn(model, query) == knn_label(ts, 1, query) == "B"
    # inside the float range nothing is halved
    span = 1e308 - 9e307
    d = [abs(5e307 - 1e308) / span, abs(5e307 - 9e307) / span]
    assert _distances(model, (5e307, "a")).tolist() == [
        math.sqrt(d[0] * d[0]), math.sqrt(d[1] * d[1] + 1.0)]


@pytest.mark.parametrize("train, query", [
    ([(0.0, "A"), (1e-300, "B")], (1e10,)),  # 1e10 / 1e-300 overflows
    ([(0.0, "A"), (1.0, "B")], (1e200,)),    # (1e200 / 1.0) ** 2 overflows
])
def test_a_quotient_or_square_beyond_the_float_range_ties_at_inf(train, query):
    # in float arithmetic 1e10 - 1e-300 is 1e10 and 1e200 - 1 is 1e200, so
    # both rows are at +inf, as in the scalar reference: the tie keeps
    # training order, and numpy warns of no overflow
    ts = build_training_set([("x", "numeric")], train)
    for k in (1, 2):
        model = fit_knn(ts, k)
        dists = _distances(model, query).tolist()
        assert dists == [knn_distance(query, inst, model)
                         for inst in ts.instances] == [math.inf, math.inf]
        assert classify_knn(model, query) == knn_label(ts, k, query) == "A"


def test_mixed_sets_store_their_distinct_rows():
    # 0.0 and -0.0 are one row value: every distance to them is the same
    ts = build_training_set([("x", "numeric"), ("y", "nominal")],
                            [(0.0, "a", "A"), (1.0, "a", "B"), (-0.0, "a", "C"),
                             (1.0, "a", "D"), (0.0, "b", "E")])
    for k in (1, 3):
        model = fit_knn(ts, k)
        assert model.labels == ("A", "B", "E")
        assert model.inverse.tolist() == [0, 1, 0, 1, 2]
        assert model.positions is None  # measured, never looked up
        for query in [(0.0, "a"), (-0.0, "b"), (1.0, "a"), (0.5, "c")]:
            assert classify_knn(model, query) == knn_label(ts, k, query)


def test_unseen_nominal_value_is_distance_one_to_every_row(runs11, runs_knn):
    for problem in ("blocks-9", ["blocks-4"]):  # an unhashable value is unseen
        query = (problem, 0.1, 6.0)
        for got, inst in zip(_distances(runs_knn, query), runs11.instances):
            assert got == knn_distance(query, inst, runs_knn)
            assert got >= 1.0


def test_classify_knn_checks_query_width(runs_knn):
    with pytest.raises(DataError, match="width"):
        classify_knn(runs_knn, ("blocks-4", 0.1))
    with pytest.raises(DataError, match="width"):
        classify_knn(runs_knn, ("blocks-4", 0.1, 6.0, 1.0))

