"""Every script under ``demos/`` and the README's library tour run to
completion; the corpus demo also replays every plan it built."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plancell

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


def run_python(args, cwd):
    """Run ``python args`` in ``cwd`` against the plancell this test process
    imported: the checkout's ``src/``, or site-packages when installed."""
    home = str(Path(plancell.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=home + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


# A line a demo must print, beyond exiting with 0.
EXPECTED_LINES = {"build_corpus": "replayed plans: 100/100 valid",
                  "cellular_inference": "classification: class=P3"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr
    if demo.stem in EXPECTED_LINES:
        assert EXPECTED_LINES[demo.stem] in done.stdout.splitlines(), done.stdout


def test_readme_library_tour_prints_p1(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    snippet = tour.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python(["-c", snippet], tmp_path)
    # the tree walk and the cellular engine, on the same raw case
    assert (done.returncode, done.stdout) == (0, "P1\nP1\n"), done.stderr
