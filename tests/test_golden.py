"""The CLI reproduces its golden outputs byte for byte.

Every step of ``golden/regen.py`` re-runs through ``plancell.cli.run`` on
the committed inputs and must give back the exit code, stdout, stderr and
written files recorded under ``golden/expected/``. Rewrite them with
``PYTHONPATH=src python tests/golden/regen.py`` only for a change that means
to alter these bytes.
"""

import pytest

from golden.regen import STEPS, expected, run_steps


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return run_steps(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("step", [name for name, _ in STEPS])
def test_cli_step_reproduces_golden_bytes(step, produced):
    want, got = expected(step), produced[step]
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].decode() == want[name].decode(), name


@pytest.mark.parametrize("tree,casi", [
    ("classify-j48", "classify-j48-casi"),
    ("classify-reptree", "classify-reptree-casi"),
    ("classify-bfs", "classify-bfs-casi"),
    ("eval-tree", "eval-casi"),
])
def test_casi_steps_give_the_tree_steps_bytes(tree, casi, produced):
    # the exit code, stdout, stderr and written file; only the file's name differs
    assert sorted(produced[tree].values()) == sorted(produced[casi].values())
