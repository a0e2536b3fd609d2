"""A regression net over malformed input files.

Each property mutates one valid input file (a model JSON, a rule-base JSON,
a project JSON or a corpus CSV) and runs it through every command that
reads it. Whatever the mutation, a command exits 0, 3 (bad data) or 4 (bad
model), and a failure prints one ``plancell:`` line, never a traceback.
The byte-level cases (invalid UTF-8, a NUL byte, an over-long CSV cell,
deeply nested JSON) also pin the code: 3 for a corpus or project file, 4
for a model or rule-base file.
"""

import contextlib
import copy
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancell.cli import run
from plancell.sample_data import sample_project_text, sample_runs_text

NET = settings(max_examples=40, deadline=None)

BIG = "@1e400@"  # written as the JSON number 1e400, which reads as inf
SWAPS = [None, True, False, 0, -1, 2.5, "", "x", "s0", "class=P1", [], {},
         ["x"], {"x": 1}]
CELLS = ["", " ", "nan", "NaN", "1e400", "-1e400", "inf", "x", "1", "0.5",
         "-0", "b0", "P1", "class", "a=b", "x:numeric", "x:nominal", ":",
         '"', "numeric"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of a valid corpus, model, rule base and project, plus a
    scratch file name for the files each example writes."""
    root = tmp_path_factory.mktemp("net")
    paths = {name: str(root / name) for name in
             ("runs.csv", "model.json", "kb.json", "project.json", "case",
              "out")}
    with open(paths["runs.csv"], "w") as fh:
        fh.write(sample_runs_text())
    with open(paths["project.json"], "w") as fh:
        fh.write(sample_project_text())
    assert quiet(["train", "--in", paths["runs.csv"], "--min-leaf", "1",
                  "--out", paths["model.json"]])[0] == 0
    assert quiet(["casi-dump", "--model", paths["model.json"],
                  "--out", paths["kb.json"]])[0] == 0
    return paths


def quiet(argv):
    """Run the CLI in-process; return its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def check(argv):
    code, err = quiet(argv)
    assert code in (0, 3, 4), (argv, code, err)
    if code:
        assert err.count("\n") == 1 and err.startswith("plancell: "), err
    return code


def _paths(doc, path=()):
    """The path to every value of a JSON document, the root first."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_json(draw, text):
    """One to three type swaps, deleted keys or items, NaNs or 1e400s."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["swap", "delete", "nan", "1e400"]))
        if kind == "swap":
            value = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        else:
            value = {"delete": None, "nan": float("nan"), "1e400": BIG}[kind]
        if not path:
            doc = {} if kind == "delete" else value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(doc).replace(f'"{BIG}"', "1e400")


@st.composite
def mutated_csv(draw, text):
    """One to three stray, dropped or rewritten cells, or extra or missing
    columns; the header row is fair game."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["cell", "stray", "drop", "extra column", "missing column"]))
        row = draw(st.sampled_from(rows))
        if kind == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(CELLS))
        elif kind == "stray":
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(CELLS)))
        elif kind == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif kind == "extra column":
            at = draw(st.integers(0, len(rows[0])))
            header = draw(st.sampled_from(["z:nominal", "z:numeric", "z"]))
            for i, r in enumerate(rows):
                r.insert(min(at, len(r)), header if i == 0
                         else draw(st.sampled_from(CELLS)))
        elif kind == "missing column":
            at = draw(st.integers(0, len(rows[0])))
            for r in rows:
                if at < len(r):
                    del r[at]
    return "\n".join(",".join(r) for r in rows) + "\n"


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


@NET
@given(data=st.data())
def test_mutated_model_json(files, data):
    with open(files["model.json"]) as fh:
        model = _write(files["case"], data.draw(mutated_json(fh.read())))
    for argv in (["classify", "--model", model, "--in", files["runs.csv"]],
                 ["classify", "--casi", "--model", model,
                  "--in", files["runs.csv"]],
                 ["casi-dump", "--model", model]):
        check(argv)


@NET
@given(data=st.data())
def test_mutated_rule_base_json(files, data):
    with open(files["kb.json"]) as fh:
        kb = _write(files["case"], data.draw(mutated_json(fh.read())))
    check(["casi-dump", "--model", kb])


@NET
@given(data=st.data())
def test_mutated_project_json(files, data):
    project = _write(files["case"], data.draw(mutated_json(sample_project_text())))
    check(["plans", "--project", project])
    check(["plans", "--first", "--project", project])


@NET
@given(data=st.data())
def test_mutated_corpus_csv(files, data):
    corpus = _write(files["case"], data.draw(mutated_csv(sample_runs_text())))
    for argv in (["dataset-info", "--in", corpus],
                 ["train", "--in", corpus, "--out", files["out"]],
                 ["classify", "--model", files["model.json"], "--in", corpus],
                 ["classify", "--casi", "--model", files["model.json"],
                  "--in", corpus]):
        check(argv)


# Byte-level inputs. Each kind of file maps to the commands that read it
# and the exit code README gives a malformed one.
SOURCES = {"csv": "runs.csv", "model": "model.json", "kb": "kb.json",
           "project": "project.json"}
NOT_UTF8 = [b"\xff", b"\xfe\xff", b"\x80", b"\xc3", b"\xed\xa0\x80",
            b"\xf4\x90\x80\x80"]


def readers(files, path, kind):
    """(argv, exit code for a malformed file) of every command reading
    ``path`` as a ``kind`` file."""
    if kind == "csv":
        model = files["model.json"]
        return [(argv, 3) for argv in (
            ["dataset-info", "--in", path],
            ["discretize", "--in", path, "--out", files["out"]],
            ["train", "--in", path, "--out", files["out"]],
            ["knn", "--in", path],
            ["eval", "--in", path],
            ["classify", "--model", model, "--in", path],
            ["classify", "--casi", "--model", model, "--in", path])]
    if kind == "project":
        return [(["plans", "--project", path], 3),
                (["plans", "--first", "--project", path], 3)]
    argvs = [["casi-dump", "--model", path]]
    if kind == "model":
        argvs += [["classify", "--model", path, "--in", files["runs.csv"]],
                  ["classify", "--casi", "--model", path,
                   "--in", files["runs.csv"]]]
    return [(argv, 4) for argv in argvs]


def _source_bytes(files, kind):
    with open(files[SOURCES[kind]], "rb") as fh:
        raw = fh.read()
    assert raw.isascii()  # so every spliced sequence stays invalid UTF-8
    return raw


def _write_bytes(path, raw):
    with open(path, "wb") as fh:
        fh.write(raw)
    return path


def _csv_reads_nul():
    try:
        next(csv.reader(["a\0b"]))
    except csv.Error:
        return False
    return True


@NET
@given(kind=st.sampled_from(sorted(SOURCES)), bad=st.sampled_from(NOT_UTF8),
       data=st.data())
def test_invalid_utf8_at_any_offset(files, kind, bad, data):
    raw = _source_bytes(files, kind)
    at = data.draw(st.integers(0, len(raw)))
    path = _write_bytes(files["case"], raw[:at] + bad + raw[at:])
    for argv, code in readers(files, path, kind):
        assert check(argv) == code, argv


@st.composite
def csv_cell(draw):
    """The sample corpus's lines, then a row, a column and an offset into
    that cell; the header is fair game."""
    rows = sample_runs_text().splitlines()
    row = draw(st.integers(0, len(rows) - 1))
    cells = rows[row].split(",")
    column = draw(st.integers(0, len(cells) - 1))
    return rows, row, column, draw(st.integers(0, len(cells[column])))


def _with_cell(rows, row, column, edit):
    cells = rows[row].split(",")
    cells[column] = edit(cells[column])
    return "\n".join(rows[:row] + [",".join(cells)] + rows[row + 1:]) + "\n"


@settings(max_examples=20, deadline=None)
@given(where=csv_cell())
def test_a_nul_byte_in_a_cell(files, where):
    rows, row, column, at = where
    text = _with_cell(rows, row, column, lambda cell: cell[:at] + "\0" + cell[at:])
    path = _write(files["case"], text)
    for argv, _ in readers(files, path, "csv"):
        assert check(argv) in ((0, 3) if _csv_reads_nul() else (3,)), argv


@settings(max_examples=20, deadline=None)
@given(where=csv_cell())
def test_a_cell_beyond_the_csv_field_limit(files, where):
    rows, row, column, _ = where
    path = _write(files["case"],
                  _with_cell(rows, row, column, lambda _: "x" * 200_000))
    for argv, code in readers(files, path, "csv"):
        assert check(argv) == code, argv


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize("kind", ["model", "kb", "project"])
def test_deeply_nested_json(files, kind, depth):
    raw = _source_bytes(files, kind)
    path = _write_bytes(files["case"], b"[" * depth + raw + b"]" * depth)
    for argv, code in readers(files, path, kind):
        assert check(argv) == code, argv
