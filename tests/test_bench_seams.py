"""The names the benchmark's tracer rebinds are bound where it looks.

``bench/spans.py`` times each layer by rebinding a public function in its
defining module and in every module that imported a copy of the name (its
``TARGETS`` table). A module that stops binding such a name, for example
after an import it no longer uses is dropped, would otherwise fail only the
traced benchmark runs. spans.py is loaded from its file as a module of its
own, so nothing is added to ``sys.path``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
