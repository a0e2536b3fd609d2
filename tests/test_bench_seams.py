"""The names the benchmark's tracer rebinds are bound where it looks.

``bench/spans.py`` times each layer by rebinding a public function in its
defining module and in every module that imported a copy of the name (its
``TARGETS`` table). A module that stops binding such a name, for example
after an import it no longer uses is dropped, would otherwise fail only the
traced benchmark runs. spans.py is loaded from its file as a module of its
own, so nothing is added to ``sys.path``. Calls that go around a rebound name
would empty its spans, so ``induce`` must reach growth and pruning through
the ``plancell.tree`` attributes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from plancell import evaluation, tree
from plancell.dataset import build_training_set

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("plancell_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


TARGETS = [(layer, name, holders)
           for layer, name, holders, _ in load_spans().TARGETS]


@pytest.mark.parametrize("layer, name, holders", TARGETS,
                         ids=[f"{layer}.{name}" for layer, name, _ in TARGETS])
def test_every_holder_binds_the_origin_function(layer, name, holders):
    origin = getattr(importlib.import_module(f"plancell.{layer}"), name)
    assert callable(origin)
    for holder in holders:
        module = importlib.import_module(f"plancell.{holder}")
        assert getattr(module, name, None) is origin, f"plancell.{holder}.{name}"


# The tracer reads ``tree.grow_ms`` and ``tree.rep_prune_ms`` from the spans
# of the rebound names; a helper called directly would leave them empty, and
# the median of no spans raises.
def counting(monkeypatch, module, name, *copies):
    """Rebind ``module.name``, and the same name in ``copies``, to one
    wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for holder in (module, *copies):
        monkeypatch.setattr(holder, name, counted)
    return calls


def two_class_set():
    rows = [(f"v{i % 3}", f"w{i % 2}", "AB"[i % 3 == 0]) for i in range(18)]
    return build_training_set([("x", "nominal"), ("y", "nominal")], rows)


def test_reptree_reaches_grow_and_rep_prune_through_the_module(monkeypatch):
    grown = counting(monkeypatch, tree, "grow")
    pruned = counting(monkeypatch, tree, "rep_prune")
    tree.induce(two_class_set(), "reptree", min_leaf=1, seed=3)
    assert (len(grown), len(pruned)) == (1, 1)


def test_j48_reaches_grow_through_the_module(monkeypatch):
    grown = counting(monkeypatch, tree, "grow")
    pruned = counting(monkeypatch, tree, "rep_prune")
    tree.induce(two_class_set(), "j48", min_leaf=1)
    assert (len(grown), len(pruned)) == (1, 0)


def test_a_grid_splits_each_fold_for_rep_once(monkeypatch):
    # binning keeps a fold's labels, so both modes share the fold's split
    rows = [(float(i % 7), f"v{i % 3}", "AB"[i % 3 == 0]) for i in range(30)]
    ts = build_training_set([("t", "numeric"), ("x", "nominal")], rows)
    splits = counting(monkeypatch, tree, "_stratified_thirds", evaluation)
    grown = counting(monkeypatch, tree, "grow")
    evaluation.evaluate_grid(ts, ["j48", "reptree"],
                             ["supervised", "unsupervised"], seed=1, folds=3)
    assert len(splits) == 3
    assert len(grown) == 3 * 2 * 2
    splits.clear()
    evaluation.evaluate_grid(ts, ["j48"], ["supervised", "unsupervised"],
                             seed=1, folds=3)
    assert splits == []
