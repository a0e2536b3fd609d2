"""Apply each planted fault of ``tests/planted_faults.py`` to a temporary
copy of ``src/`` and ``tests/`` and run its test files with ``-x``.

    python tests/run_faults.py [NAME-SUBSTRING ...]

Run it from the root of a checkout. It prints one line per fault, caught
or survived, and exits 1 when a fault that is not equivalent survives.
It is not a tier-1 test: each fault runs its test files once more.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from planted_faults import FAULTS  # noqa: E402


def run(fault: dict, workdir: Path) -> bool:
    """Whether the fault's test files fail with the fault applied."""
    target = workdir / "src" / "plancell" / fault["file"]
    text = target.read_text(encoding="utf-8")
    target.write_text(text.replace(fault["old"], fault["new"], 1),
                      encoding="utf-8")
    try:
        env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *fault["tests"]], cwd=workdir, env=env, capture_output=True)
        return done.returncode != 0
    finally:
        target.write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    chosen = [f for f in FAULTS if not argv or any(a in f["name"] for a in argv)]
    gaps = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", workdir)
        for fault in chosen:
            start = time.perf_counter()
            caught = run(fault, workdir)
            equivalent = "equivalent" in fault
            gaps += not caught and not equivalent
            verdict = ("caught" if caught else
                       "survived (equivalent)" if equivalent else "SURVIVED")
            print(f"{verdict:<22} {time.perf_counter() - start:6.1f} s  "
                  f"{fault['name']}", flush=True)
    print(f"{len(chosen)} faults, {gaps} not caught")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
