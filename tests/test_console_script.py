"""The ``plancell`` command as a real process.

Each test runs ``python -m plancell.cli``, which calls the same ``main()``
as the ``plancell`` console script, as a child process in a temporary
directory. The child imports the plancell this test process imported: the
checkout's ``src/``, or site-packages when the package is installed. Only
what a process shows is checked here: the exit status of each documented
code (0, 2 usage, 3 bad data, 4 bad model, 5 limit), that a failure
prints exactly one ``plancell:`` line on stderr, and that the bundled data
is found through the package. What the commands print and write is checked
in-process, by test_cli.py and test_golden.py.
"""

import json
from pathlib import Path

import pytest

import plancell
from plancell.cli import run
from plancell.sample_data import sample_project_text, sample_runs_text
from test_cli import KB_FAULTS, MODEL_FAULTS
from test_demos import run_python

FIRST_PLAN = ("P1: Begin; FU1; PU1; FU(L0,L1); PU(L0,L1); fireman; police; "
              "extinguish_fire\n")

# Malformed inputs, as file name: bytes.
BAD_INPUTS = {
    "not_utf8.csv": b"steps:numeric,class:nominal\n\xff,P1\n",
    "nested.json": b"[" * 100_000 + b"\n",
    # a group naming a missing task, and a precedence cycle
    "missing.json": b'{"entry": "t0", "exit": "t9", "tasks": [{"id": "t0", '
                    b'"pre": []}, {"id": "t9", "pre": [["ghost"]]}]}\n',
    "cycle.json": b'{"entry": "t0", "exit": "t9", "tasks": [{"id": "t0", '
                  b'"pre": []}, {"id": "a", "pre": [["b"]]}, {"id": "b", '
                  b'"pre": [["a"]]}, {"id": "t9", "pre": [["a"], ["t0"]]}]}\n',
}

# Malformed model files, as file name: (the file it corrupts, the fault).
BAD_MODELS = {
    "bad_mode.json": ("model.json", MODEL_FAULTS["unknown growth mode"]),
    "bad_domain.json": ("model.json",
                        MODEL_FAULTS["numeric domain not a finite pair"]),
    "bad_cuts.json": ("model.json",
                      MODEL_FAULTS["cuts for an attribute the schema lacks"]),
    "bad_ids.json": ("model.json",
                     MODEL_FAULTS["node id spelling an unseen value's fact"]),
    "bad_kb_cuts.json": ("kb.json",
                         KB_FAULTS["cuts for an attribute the schema lacks"]),
}

GHOST_CUTS = "model error: malformed schema: cut points for 'ghost', which " \
             "the schema lacks"

# (argv, exit status, the one stderr line after "plancell: ")
FAILURES = [
    (["dataset-info", "--in", "not_utf8.csv"], 3,
     "cannot read not_utf8.csv: 'utf-8' codec can't decode byte 0xff in "
     "position 28: invalid start byte"),
    (["plans", "--project", "nested.json"], 3, "nested.json nests too deeply"),
    (["plans", "--project", "missing.json"], 3,
     "task 't9': unknown task reference 'ghost'"),
    (["plans", "--project", "cycle.json"], 3,
     "task 'a' is reachable from itself: a <- b <- a"),
    (["classify", "--in", "runs.csv", "--model", "bad_mode.json"], 4,
     "model error: unknown growth mode 'bogus'"),
    (["classify", "--in", "runs.csv", "--model", "bad_domain.json"], 4,
     "model error: malformed schema: attribute 'time': numeric domain "
     "('a', None, 3) is not a finite (min, max) pair"),
    (["classify", "--in", "runs.csv", "--model", "bad_cuts.json"], 4,
     GHOST_CUTS),
    (["classify", "--casi", "--in", "runs.csv", "--model", "bad_ids.json"], 4,
     "model error: node 'problem=ghost' is node s1 in breadth-first order"),
    (["casi-dump", "--model", "bad_kb_cuts.json"], 4, GHOST_CUTS),
]


def plancell_process(cwd, *argv):
    """(exit status, stdout, stderr) of ``plancell argv`` run in ``cwd``."""
    done = run_python(["-m", "plancell.cli", *argv], cwd)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The fire project, the bundled corpus with its model and rule base, and
    every malformed file above, written in-process. A fresh ``bw-gen`` corpus
    would not do: its ``time`` column is wall-clock, and now and then its
    tree is one leaf, which has no node s1 to rename."""
    root = tmp_path_factory.mktemp("console")
    runs, model, kb = (str(root / n) for n in ("runs.csv", "model.json",
                                                "kb.json"))
    (root / "fire.json").write_text(sample_project_text())
    (root / "runs.csv").write_text(sample_runs_text())
    assert run(["train", "--in", runs, "--min-leaf", "1", "--out", model]) == 0
    assert run(["casi-dump", "--model", model, "--out", kb]) == 0
    for name, data in BAD_INPUTS.items():
        (root / name).write_bytes(data)
    for name, (source, fault) in BAD_MODELS.items():
        doc = json.loads((root / source).read_text())
        (root / name).write_text(json.dumps(fault(doc) or doc))
    return root


def test_the_bundled_data_is_found_through_the_package(tmp_path):
    done = run_python(["-c", "import plancell\n"
                             "print(plancell.__file__)\n"
                             "plans = plancell.enumerate_plans("
                             "plancell.sample_project()).plans\n"
                             "print(len(plans), len(plancell.sample_runs()))"],
                      tmp_path)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    home, counts = done.stdout.splitlines()
    assert Path(home).resolve() == Path(plancell.__file__).resolve()
    assert counts == "8 11"


def test_success_exits_0(workdir):
    assert plancell_process(workdir, "plans", "--project", "fire.json",
                            "--first") == (0, FIRST_PLAN, "")


def test_a_truncated_enumeration_prints_its_first_plans_and_exits_5(workdir):
    code, out, err = plancell_process(workdir, "plans", "--project",
                                      "fire.json", "--max-plans", "3")
    assert (code, err) == (5, "enumeration truncated at 3 plans\n")
    assert out.startswith(FIRST_PLAN) and len(out.splitlines()) == 3


def test_a_usage_error_exits_2(workdir):
    code, out, err = plancell_process(workdir, "prove")
    assert (code, out) == (2, "")
    # argparse words the usage, which varies between Python versions
    lines = err.splitlines()
    assert lines[0].startswith("usage: plancell ")
    assert [line for line in lines if line.startswith("plancell")] == [lines[-1]]
    assert lines[-1].startswith(
        "plancell: error: argument command: invalid choice: 'prove'")


@pytest.mark.parametrize("argv,code,message", FAILURES,
                         ids=[" ".join(argv) for argv, _, _ in FAILURES])
def test_a_failure_exits_with_its_code_and_one_line(argv, code, message,
                                                    workdir):
    assert plancell_process(workdir, *argv) == (code, "",
                                                f"plancell: {message}\n")
