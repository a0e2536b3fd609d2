"""Rewrite the golden CLI outputs that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

``STEPS`` run in order through ``plancell.cli.run`` in one scratch
directory that starts with a copy of ``inputs/``, so later steps read the
models that earlier steps wrote. Each step's expected bytes are a
directory under ``expected/``: ``exit_code``, ``stdout``, ``stderr`` and
every file the step wrote or changed. The two corpora in ``inputs/`` come
from ``bw-gen`` and are written only when missing: their ``time`` column is
wall-clock, so a rerun would not give the same bytes. A change that alters
the expected bytes says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from plancell import cli
from plancell.sample_data import sample_project_text

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

INPUT_COMMANDS = {
    "quick.csv": ["bw-gen", "--sizes", "4,5,6,7", "--per-size", "50",
                  "--seed", "11"],
    "bfs.csv": ["bw-gen", "--method", "bfs", "--sizes", "3,4",
                "--per-size", "20", "--seed", "11"],
}

STEPS = [
    ("dataset-info-quick", ["dataset-info", "--in", "quick.csv"]),
    ("dataset-info-bfs", ["dataset-info", "--in", "bfs.csv"]),
    ("discretize-supervised", ["discretize", "--in", "quick.csv",
                               "--mode", "supervised", "--out", "sup.csv"]),
    ("discretize-unsupervised", ["discretize", "--in", "quick.csv",
                                 "--mode", "unsupervised", "--out", "unsup.csv"]),
    ("train-j48", ["train", "--in", "quick.csv", "--mode", "j48",
                   "--out", "j48.json"]),
    ("train-reptree", ["train", "--in", "quick.csv", "--mode", "reptree",
                       "--out", "reptree.json"]),
    ("classify-j48", ["classify", "--model", "j48.json", "--in", "quick.csv",
                      "--out", "j48-tree.csv"]),
    ("classify-j48-casi", ["classify", "--casi", "--model", "j48.json",
                           "--in", "quick.csv", "--out", "j48-casi.csv"]),
    ("classify-reptree", ["classify", "--model", "reptree.json",
                          "--in", "quick.csv", "--out", "reptree-tree.csv"]),
    ("classify-reptree-casi", ["classify", "--casi", "--model", "reptree.json",
                               "--in", "quick.csv", "--out", "reptree-casi.csv"]),
    # sizes 3 and 4 under a model trained on 4 to 7: unknown values
    ("classify-bfs", ["classify", "--model", "j48.json", "--in", "bfs.csv"]),
    ("classify-bfs-casi", ["classify", "--casi", "--model", "j48.json",
                           "--in", "bfs.csv"]),
    ("casi-dump", ["casi-dump", "--model", "j48.json", "--out", "kb.json"]),
    ("casi-dump-kb", ["casi-dump", "--model", "kb.json"]),
    ("eval-tree", ["eval", "--in", "quick.csv", "--engine", "tree",
                   "--out", "eval-tree.csv"]),
    ("eval-casi", ["eval", "--in", "quick.csv", "--engine", "casi",
                   "--out", "eval-casi.csv"]),
    ("knn", ["knn", "--in", "quick.csv"]),
    ("knn-k3-supervised", ["knn", "--in", "quick.csv", "--k", "3",
                           "--mode", "supervised"]),
    ("plans", ["plans", "--project", "fire.json"]),
    ("plans-first", ["plans", "--project", "fire.json", "--first"]),
    ("plans-truncated", ["plans", "--project", "fire.json",
                         "--max-plans", "3"]),
]


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_steps(workdir: Path) -> dict[str, dict[str, bytes]]:
    """Run every step in ``workdir``; per step, its outputs by file name."""
    for path in INPUTS.iterdir():
        shutil.copyfile(path, workdir / path.name)
    results = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in STEPS:
            before = _files(workdir)
            code, out, err = _run(argv)
            after = _files(workdir)
            written = {f: data for f, data in after.items()
                       if before.get(f) != data}
            results[name] = {"exit_code": f"{code}\n".encode(),
                             "stdout": out.encode(), "stderr": err.encode(),
                             **written}
    finally:
        os.chdir(previous)
    return results


def expected(name: str) -> dict[str, bytes]:
    return _files(EXPECTED / name)


def _write_inputs() -> None:
    INPUTS.mkdir(exist_ok=True)
    fire = INPUTS / "fire.json"
    if not fire.exists():
        fire.write_text(sample_project_text(), encoding="utf-8")
    for name, argv in INPUT_COMMANDS.items():
        if not (INPUTS / name).exists():
            code, _, err = _run(argv + ["--out", str(INPUTS / name)])
            if code:
                sys.exit(f"{' '.join(argv)} failed: {err}")


def main() -> None:
    _write_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        results = run_steps(Path(tmp))
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for name, files in results.items():
        (EXPECTED / name).mkdir(parents=True)
        for filename, data in files.items():
            (EXPECTED / name / filename).write_bytes(data)
    size = sum(len(d) for files in results.values() for d in files.values())
    print(f"wrote {len(results)} steps ({size} bytes) to {EXPECTED}")


if __name__ == "__main__":
    main()
