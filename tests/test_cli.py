import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from pathlib import Path

import pytest

from plancell import cli
from plancell.casi import classify_casi, compile_tree, kb_from_json
from plancell.cli import run
from plancell.dataset import load_csv
from plancell.errors import ModelIntegrityError, UnknownValueError
from plancell.evaluation import ENGINES, METHODS
from plancell.sample_data import sample_project_text, sample_runs_text
from plancell.tree import J48, REPTREE, classify_tree, model_from_json


@pytest.fixture
def project_file(tmp_path):
    path = tmp_path / "fire.json"
    path.write_text(sample_project_text())
    return str(path)


@pytest.fixture
def runs_file(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(sample_runs_text())
    return str(path)


@pytest.fixture
def model_file(tmp_path, runs_file):
    path = tmp_path / "model.json"
    assert run(["train", "--in", runs_file, "--mode", "j48",
                "--min-leaf", "1", "--out", str(path)]) == 0
    return str(path)


def test_plans_lists_all_eight(project_file, capsys):
    assert run(["plans", "--project", project_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert lines[0] == ("P1: Begin; FU1; PU1; FU(L0,L1); PU(L0,L1); "
                        "fireman; police; extinguish_fire")
    assert all(line.startswith(f"P{i + 1}: ") for i, line in enumerate(lines))


def test_plans_first_prints_one_line(project_file, capsys):
    assert run(["plans", "--project", project_file, "--first"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1


def test_plans_to_file(project_file, tmp_path, capsys):
    out = tmp_path / "plans.txt"
    assert run(["plans", "--project", project_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().strip().splitlines()) == 8


def test_plans_truncation_exit_code(project_file, capsys):
    assert run(["plans", "--project", project_file, "--max-plans", "2"]) == 5
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 2
    assert "truncated" in captured.err


def test_precedence_chain_deeper_than_the_recursion_limit_prints_its_plan(
        tmp_path, capsys):
    # nothing on the way from the project file to the plan recurses
    n = sys.getrecursionlimit() + 100
    tasks = [{"id": "c0000", "pre": []}]
    tasks += [{"id": f"c{i:04d}", "pre": [[f"c{i - 1:04d}"]]} for i in range(1, n)]
    path = tmp_path / "chain.json"
    path.write_text(_project(tasks=tasks, entry="c0000", exit=f"c{n - 1:04d}"))
    for first in ([], ["--first"]):
        assert run(["plans", "--project", str(path)] + first) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == f"P1: {'; '.join(t['id'] for t in tasks)}\n"


def test_missing_project_file(tmp_path, capsys):
    assert run(["plans", "--project", str(tmp_path / "nope.json")]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_invalid_project_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"entry": }')
    assert run(["plans", "--project", str(path)]) == 3
    assert "syntax error" in capsys.readouterr().err


def _project(**fields):
    doc = {"entry": "t0", "exit": "t9",
           "tasks": [{"id": "t0", "pre": []}, {"id": "t9", "pre": [["t0"]]}]}
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize("text,message", [
    (_project(tasks=5), "'tasks' must be a list"),
    (_project(tasks=[1]), "task #1: must be an object"),
    (_project(entry=["t0"]), "'entry' must be a task id"),
    (_project(exit=["t9"]), "'exit' must be a task id"),
    (_project(tasks=[{"id": "t0", "pre": []}, {"id": "t9", "pre": [["t0", 5]]}]),
     "task 't9': 'pre' may only name task ids"),
    (_project(tasks=[{"id": "t0", "pre": [], "desc": 5},
                     {"id": "t9", "pre": [["t0"]]}]),
     "task 't0': 'desc' must be a string"),
    (_project(tasks=[{"id": "t0", "pre": []},
                     {"id": "t9", "pre": [["t0"]], "resource": [1]}]),
     "task 't9': 'resource' must be a string or null"),
    (_project(entry="t5"), "entry task 't5' not found"),
    (_project(exit="t5"), "exit task 't5' not found"),
])
def test_malformed_project_exits_3(text, message, tmp_path, capsys):
    path = tmp_path / "project.json"
    path.write_text(text)
    assert run(["plans", "--project", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"plancell: {message}")


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)])
def test_output_files_follow_the_umask(umask, mode, project_file, tmp_path,
                                       capsys):
    out = tmp_path / "plans.txt"
    old = os.umask(umask)
    try:
        assert run(["plans", "--project", project_file, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode


@pytest.mark.parametrize("where,reason", [
    ("missing/runs.csv", "No such file or directory"),
    ("a directory", "Is a directory"),
])
def test_a_failed_write_names_out_and_leaves_no_temp_file(where, reason,
                                                          tmp_path, capsys):
    (tmp_path / "a directory").mkdir()
    out = str(tmp_path / where)
    assert run(["bw-gen", "--sizes", "3", "--per-size", "2", "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"plancell: cannot write {out}: {reason}\n"
    assert not list(tmp_path.rglob(".plancell-*"))


@pytest.mark.parametrize("sizes", ["30", "4,-1", "0"])
def test_bw_gen_rejects_block_counts_outside_1_to_26(sizes, tmp_path, capsys):
    out = tmp_path / "runs.csv"
    assert run(["bw-gen", f"--sizes={sizes}", "--per-size", "2",
                "--out", str(out)]) == 3
    assert "block counts must be in 1..26" in capsys.readouterr().err
    assert not out.exists()


def test_bw_gen_reruns_identically_except_time(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bw-gen", "--sizes", "4", "--per-size", "6", "--seed", "3"]
    assert run(args + ["--out", str(a)]) == 0
    assert "wrote 6 instances" in capsys.readouterr().out
    assert run(args + ["--out", str(b)]) == 0

    def stable(path):
        ts = load_csv(path.read_text())
        return [(row[0], row[2], label)
                for row, label in zip(ts.rows, ts.labels)]

    assert stable(a) == stable(b)


def test_bw_gen_solves_by_breadth_first_search(tmp_path, capsys):
    out = tmp_path / "bfs.csv"
    assert run(["bw-gen", "--method", "bfs", "--sizes", "3,4", "--per-size", "4",
                "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr() == (
        f"wrote 8 instances (7 plan classes) to {out}\n", "")
    ts = load_csv(out.read_text())
    assert ts.columns[0] == ("blocks-3",) * 4 + ("blocks-4",) * 4
    assert ts.columns[2] == (0.0, 2.0, 4.0, 2.0, 4.0, 6.0, 6.0, 6.0)
    assert ts.labels == ("P1", "P2", "P3", "P2", "P4", "P5", "P6", "P7")


def test_dataset_info(runs_file, capsys):
    assert run(["dataset-info", "--in", runs_file]) == 0
    out = capsys.readouterr().out
    assert "instances: 11" in out
    assert "problem: nominal (4 values)" in out
    assert "steps: numeric" in out
    assert "classes: 5" in out
    assert "  P1: 3" in out


def test_a_byte_order_mark_is_not_part_of_the_first_attribute(
        runs_file, tmp_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(runs_file).read_bytes())
    assert run(["dataset-info", "--in", str(bom)]) == 0
    assert capsys.readouterr().out.splitlines()[2] == \
        "  problem: nominal (4 values)"
    model = tmp_path / "model.json"
    assert run(["train", "--in", str(bom), "--min-leaf", "1",
                "--out", str(model)]) == 0
    assert run(["classify", "--model", str(model), "--in", runs_file]) == 0
    assert "11/11 cases match" in capsys.readouterr().err


def test_discretize_writes_binned_copy(runs_file, tmp_path, capsys):
    out = tmp_path / "binned.csv"
    assert run(["discretize", "--in", runs_file, "--mode", "supervised",
                "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "steps: [8.0, 11.0]" in printed
    assert "time: []" in printed
    binned = load_csv(out.read_text())
    assert binned.attribute_names[2] == "steps"
    assert binned.attributes[2].kind == "nominal"
    assert set(binned.columns[2]) == {"b0", "b1", "b2"}


def test_train_writes_loadable_model(model_file, capsys):
    model = model_from_json(json.loads(Path(model_file).read_text()))
    assert model.node_count == 12
    assert model.schema.discretization.cuts["steps"] == (8.0, 11.0)


def test_train_reports_shape(tmp_path, runs_file, capsys):
    out = tmp_path / "m.json"
    assert run(["train", "--in", runs_file, "--min-leaf", "1",
                "--out", str(out)]) == 0
    assert "12 nodes, depth 2" in capsys.readouterr().out


def test_classify_through_both_engines(model_file, runs_file, capsys):
    for extra in ([], ["--casi"]):
        assert run(["classify", "--model", model_file,
                    "--in", runs_file] + extra) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "index,actual,predicted"
        assert len(lines) == 12
        for line in lines[1:]:
            _, actual, predicted = line.split(",")
            assert predicted == actual
        assert "11/11 cases match" in captured.err


def test_classify_writes_csv(model_file, runs_file, tmp_path, capsys):
    out = tmp_path / "preds.csv"
    assert run(["classify", "--model", model_file, "--in", runs_file,
                "--out", str(out)]) == 0
    assert out.read_text().startswith("index,actual,predicted\n0,P1,P1\n")


@pytest.mark.parametrize("engine", [[], ["--casi"]])
def test_classify_quotes_labels_as_csv(engine, tmp_path, capsys):
    labels = ["P1,x", 'say "hi"', "two\nlines"]
    train, model, out = (tmp_path / n for n in ("t.csv", "m.json", "p.csv"))
    train.write_text('x:nominal,class:nominal\n'
                     'a,"P1,x"\nb,"say ""hi"""\nc,"two\nlines"\n')
    assert run(["train", "--in", str(train), "--min-leaf", "1",
                "--out", str(model)]) == 0
    capsys.readouterr()
    argv = ["classify", "--model", str(model), "--in", str(train)] + engine
    assert run(argv) == 0
    printed = capsys.readouterr().out
    assert run(argv + ["--out", str(out)]) == 0
    want = [["index", "actual", "predicted"]] + [
        [str(i), label, label] for i, label in enumerate(labels)]
    assert out.read_text() == printed
    assert list(csv.reader(io.StringIO(printed))) == want


def test_option_choices_are_the_library_names():
    def choices(command, dest):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return next(a.choices for a in sub.choices[command]._actions
                    if a.dest == dest)

    assert choices("train", "mode") == (J48, REPTREE)
    assert choices("eval", "engine") == ENGINES
    assert set(choices("train", "mode")) < set(METHODS)


def test_the_shared_parser_leaves_no_state_between_calls(
        project_file, runs_file, capsys, monkeypatch):
    # run() reuses one parser per process: each call must print what a
    # freshly built parser would, whatever ran before it
    calls = [["plans", "--project", project_file, "--first"],
             ["plans", "--project", project_file],
             ["eval", "--in", runs_file, "--methods", "j48"],
             ["eval", "--in", runs_file]]

    def outputs():
        return [(run(argv), capsys.readouterr()) for argv in calls]

    assert cli._build_parser() is cli._build_parser()
    shared = outputs()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = outputs()
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 0, 0]
    assert [len(out.splitlines()) for _, (out, _) in shared[:2]] == [1, 8]
    j48_only, grid = shared[2][1].out, shared[3][1].out
    assert "reptree" not in j48_only and "reptree" in grid and "knn" in grid
    defaults = cli._build_parser().parse_args(["eval", "--in", runs_file])
    assert defaults.methods == (J48, REPTREE, "knn")
    assert defaults.modes == ("supervised", "unsupervised")


def test_classify_rejects_schema_mismatch(model_file, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("foo:nominal,class:nominal\na,P1\n")
    assert run(["classify", "--model", model_file, "--in", str(other)]) == 3
    assert "do not match" in capsys.readouterr().err


def test_nominal_corpus_trains_without_a_map(tmp_path, capsys):
    corpus, model, binned = (tmp_path / n for n in ("c.csv", "m.json", "b.csv"))
    corpus.write_text("x:nominal,class:nominal\n1,A\n2,B\n1,A\n2,B\n")
    assert run(["train", "--in", str(corpus), "--out", str(model)]) == 0
    assert json.loads(model.read_text())["discretization"] is None
    capsys.readouterr()
    assert run(["discretize", "--in", str(corpus), "--out", str(binned)]) == 0
    assert capsys.readouterr().out == ""
    assert binned.read_text() == corpus.read_text()
    # a bad bin count is refused, as eval and knn refuse it
    assert run(["train", "--in", str(corpus), "--discretize", "unsupervised",
                "--bins", "0", "--out", str(model)]) == 3
    assert "bins must be >= 1" in capsys.readouterr().err


def test_classify_rejects_numeric_column_without_cut_points(tmp_path, capsys):
    train, cases, model = (tmp_path / n for n in ("t.csv", "c.csv", "m.json"))
    train.write_text("x:nominal,class:nominal\n1,A\n2,B\n1,A\n2,B\n")
    cases.write_text("x:numeric,class:nominal\n1,A\n")
    assert run(["train", "--in", str(train), "--out", str(model)]) == 0
    capsys.readouterr()
    assert run(["classify", "--model", str(model), "--in", str(cases)]) == 3
    assert "has no cut points" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_csv_cell_exits_3(cell, model_file, runs_file, tmp_path,
                                     capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(Path(runs_file).read_text().replace("0.032237", cell))
    for argv in (["dataset-info"], ["train", "--out", str(tmp_path / "m.json")],
                 ["classify", "--model", model_file],
                 ["eval", "--methods", "knn", "--modes", "none"]):
        assert run(argv + ["--in", str(bad)]) == 3
        assert capsys.readouterr().err == (
            f"plancell: row 2: non-finite value {cell!r} in column 'time'\n")


@pytest.mark.parametrize("rows,bins", [
    (["1.0,A", "1.0000000000000004,B"], "10"),
    (["-1e308,A", "1e308,B"], "10"),
    (["-1e308,A", "1e308,B"], "2"),
], ids=["few ulps wide", "overflowing width", "overflowing width, 2 bins"])
def test_unsupervised_cuts_of_extreme_ranges_train_and_classify(rows, bins,
                                                                tmp_path):
    data, model = tmp_path / "x.csv", str(tmp_path / "m.json")
    data.write_text("\n".join(["x:numeric,class:nominal", *rows]) + "\n")
    assert run(["train", "--in", str(data), "--discretize", "unsupervised",
                "--bins", bins, "--out", model]) == 0
    for engine in ([], ["--casi"]):
        assert run(["classify", "--model", model, "--in", str(data)]
                   + engine) == 0


def test_supervised_cut_between_values_beyond_half_the_float_range(tmp_path):
    data, model = tmp_path / "x.csv", tmp_path / "m.json"
    data.write_text("x:numeric,class:nominal\n"
                    + "1e308,A\n" * 20 + "1.7e308,B\n" * 20)
    assert run(["train", "--in", str(data), "--discretize", "supervised",
                "--out", str(model)]) == 0
    graph = model_from_json(json.loads(model.read_text()))
    assert graph.schema.discretization.cuts["x"] == (1.35e308,)
    assert graph.depth() == 1


@pytest.mark.parametrize("column", ["class", "a=b"])
def test_reserved_attribute_name_in_csv_exits_3(column, tmp_path, capsys):
    path = tmp_path / "runs.csv"
    path.write_text(f"{column}:nominal,class:nominal\nx,P1\ny,P2\n")
    assert run(["train", "--in", str(path), "--out",
                str(tmp_path / "m.json")]) == 3
    assert f"attribute {column!r}: reserved name" in capsys.readouterr().err


def test_classify_prints_unknown_values_as_question_marks(model_file,
                                                          tmp_path, capsys):
    cases = tmp_path / "unseen.csv"
    cases.write_text("problem:nominal,time:numeric,steps:numeric,class:nominal\n"
                     "blocks-9,0.1,6.0,P1\n")
    assert run(["classify", "--model", model_file, "--in", str(cases)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,P1,?"


def test_unseen_and_out_of_range_values_by_tree_casi_and_fallback(tmp_path,
                                                                capsys):
    # both engines bin only values that are not strings: a row with an unseen
    # nominal value is "?" by tree and CASI alike, numbers beyond the training
    # range land in the end bins, and the majority fallback labels every row
    train, cases, model = (tmp_path / n for n in ("mixed.csv", "odd.csv",
                                                  "mixed.json"))
    train.write_text("problem:nominal,steps:numeric,class:nominal\n"
                     "a,1,P1\na,2,P1\na,8,P2\na,9,P2\n"
                     "b,1,P3\nb,2,P3\nb,8,P3\nb,9,P3\n")
    cases.write_text("problem:nominal,steps:numeric,class:nominal\n"
                     "a,1,P1\na,9,P2\nb,2,P3\nc,1,P1\na,1000,P2\na,-50,P1\n")
    assert run(["train", "--in", str(train), "--min-leaf", "1", "--discretize",
                "unsupervised", "--bins", "2", "--out", str(model)]) == 0
    capsys.readouterr()
    predictions = ("index,actual,predicted\n0,P1,P1\n1,P2,P2\n2,P3,P3\n"
                   "3,P1,{}\n4,P2,P2\n5,P1,P1\n")
    for engine, unseen in (([], "?"), (["--casi"], "?"),
                           (["--fallback-majority"], "P3")):
        assert run(["classify", "--model", str(model), "--in", str(cases)]
                   + engine) == 0
        assert capsys.readouterr() == (
            predictions.format(unseen), "5/6 cases match their recorded labels\n")


def test_classify_fallback_majority_places_unknown_values(model_file, tmp_path,
                                                         capsys):
    cases = tmp_path / "unseen.csv"
    cases.write_text("problem:nominal,time:numeric,steps:numeric,class:nominal\n"
                     "blocks-9,0.1,6.0,P1\nblocks-4,0.1,6.0,P2\n")
    assert run(["classify", "--model", model_file, "--in", str(cases),
                "--fallback-majority"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["0,P1,P1", "1,P2,P1"]
    assert "1/2 cases match" in captured.err


def test_classify_rejects_casi_with_fallback_majority(model_file, runs_file,
                                                      capsys):
    assert run(["classify", "--model", model_file, "--in", runs_file,
                "--casi", "--fallback-majority"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("engine", [[], ["--casi"]])
def test_unplaced_case_never_matches_its_label(engine, model_file, tmp_path,
                                               capsys):
    cases = tmp_path / "unseen.csv"
    cases.write_text("problem:nominal,time:numeric,steps:numeric,class:nominal\n"
                     "blocks-9,0.1,6.0,?\nblocks-4,0.1,6.0,P1\n")
    assert run(["classify", "--model", model_file, "--in", str(cases)]
               + engine) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == ["0,?,?", "1,P1,P1"]
    assert "1/2 cases match" in captured.err


def test_a_class_named_like_an_unplaced_case_is_refused(tmp_path, capsys):
    # classify writes "?" for a case it cannot place, so no class may be "?";
    # a case file may still record "?" as a case's label (test above)
    corpus = tmp_path / "question.csv"
    corpus.write_text("x:nominal,class:nominal\na,?\na,?\nb,P\nb,P\n")
    refused = "plancell: class '?' marks an unplaceable case\n"
    for argv in (["train", "--min-leaf", "1", "--out", str(tmp_path / "m.json")],
                 ["eval", "--methods", "knn"], ["knn"]):
        assert run(argv + ["--in", str(corpus)]) == 3
        assert capsys.readouterr().err == refused
    # the same model and rule base with a class renamed to "?" do not load
    corpus.write_text(corpus.read_text().replace("?", "Q"))
    model, kb = tmp_path / "m.json", tmp_path / "kb.json"
    assert run(["train", "--min-leaf", "1", "--in", str(corpus),
                "--out", str(model)]) == 0
    assert run(["casi-dump", "--model", str(model), "--out", str(kb)]) == 0
    capsys.readouterr()
    for path in (model, kb):
        path.write_text(path.read_text().replace('"Q"', '"?"')
                        .replace('class=Q"', 'class=?"'))
    for argv in (["classify", "--in", str(corpus), "--model", str(model)],
                 ["classify", "--casi", "--in", str(corpus), "--model", str(model)],
                 ["casi-dump", "--model", str(model)],
                 ["casi-dump", "--model", str(kb)]):
        _assert_model_error(argv, capsys)


@pytest.mark.parametrize("engine", ["classify_tree", "classify_casi"])
def test_classify_integrity_fault_exits_4(model_file, runs_file, capsys,
                                          monkeypatch, engine):
    def corrupt(*args, **kwargs):
        raise ModelIntegrityError("multiple class facts established")

    monkeypatch.setattr(cli, engine, corrupt)
    extra = ["--casi"] if engine == "classify_casi" else []
    assert run(["classify", "--model", model_file,
                "--in", runs_file] + extra) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "multiple class facts" in captured.err


def test_corrupt_model_json(tmp_path, runs_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert run(["classify", "--model", str(path), "--in", runs_file]) == 4
    assert "model error" in capsys.readouterr().err


def test_wrong_format_model(tmp_path, runs_file, capsys):
    path = tmp_path / "odd.json"
    path.write_text('{"format": "mystery"}')
    assert run(["classify", "--model", str(path), "--in", runs_file]) == 4


def _put(*path, value=None, drop=False):
    """A fault that sets, or with ``drop`` deletes, the entry at ``path``."""
    def fault(doc):
        *parents, key = path
        for k in parents:
            doc = doc[k]
        if drop:
            del doc[key]
        else:
            doc[key] = value
    return fault


def _branch_outside_domain(doc):
    children = doc["nodes"][0]["children"]
    children["b9"] = children.pop("b2")


def _rename_nodes(names):
    """A fault that renames nodes, old id to new in ``names``, in the node
    table's ids and child references."""
    def fault(doc):
        for node in doc["nodes"]:
            node["id"] = names.get(node["id"], node["id"])
            if "children" in node:
                node["children"] = {value: names.get(child, child)
                                    for value, child in node["children"].items()}
    return fault


def _rename_time(name):
    """A fault that renames the never-split ``time`` attribute and its cuts."""
    def fault(doc):
        doc["attributes"][1]["name"] = name
        doc["discretization"][name] = doc["discretization"].pop("time")
    return fault


MODEL_FAULTS = {
    "node without id": _put("nodes", 1, "id", drop=True),
    "node without counts": _put("nodes", 1, "counts", drop=True),
    "non-integer count": _put("nodes", 0, "counts", "P1", value="many"),
    "split without children": _put("nodes", 0, "children", drop=True),
    "leaf with children": _put("nodes", 3, "children", value={"b0": "s4"}),
    "node id spelling a fact": _rename_nodes({"s2": "problem=blocks-9"}),
    "node id spelling an unseen value's fact": _rename_nodes(
        {"s1": "problem=ghost"}),
    "node ids out of breadth-first order": _rename_nodes({"s1": "s2", "s2": "s1"}),
    "list discretization": _put("discretization", value=[[8.0, 11.0]]),
    "scalar cut list": _put("discretization", "steps", value=8.0),
    "unsorted cuts": _put("discretization", "steps", value=[11.0, 8.0]),
    "non-numeric cuts": _put("discretization", "steps", value=["a", "b"]),
    "NaN cut": _put("discretization", "steps", value=[math.nan]),
    "infinite cut": _put("discretization", "steps", value=[8.0, math.inf]),
    "cut beyond the float range": _put("discretization", "steps",
                                       value=[8.0, 10**400]),
    "int cut beyond 2**53": _put("discretization", "steps", value=[8.0, 2**53 + 1]),
    "cuts drop a bin": _put("discretization", "steps", value=[8.0]),
    "cuts add a bin": _put("discretization", "steps", value=[8.0, 11.0, 15.0]),
    "cuts for an attribute the schema lacks": _put("discretization", "ghost",
                                                   value=[1.0]),
    "top-level array": lambda doc: [doc],
    "repeated attribute name": lambda doc: doc["attributes"].append(
        dict(doc["attributes"][0])),
    "split outside the schema": _put("nodes", 0, "split", value="colour"),
    "leaf class outside the classes": _put("classes", value=["P1"]),
    "branch outside the domain": _branch_outside_domain,
    "attribute named class": _rename_time("class"),
    "attribute name with =": _rename_time("a=b"),
    "attribute name 5": _rename_time(5),
    "domain string": _put("attributes", 0, "domain", value="blocks-4"),
    "classes string": _put("classes", value="P1P2P3P4P5"),
    "class 5": lambda doc: doc["classes"].append(5),
    "nominal value 1": lambda doc: doc["attributes"][0]["domain"].append(1),
    "unknown growth mode": _put("mode", value="bogus"),
    "growth mode object": _put("mode", value={"x": [1]}),
    "numeric domain not a finite pair": _put(
        "attributes", 1, value={"name": "time", "kind": "numeric",
                                "domain": ["a", None, 3]}),
}


def _bit(name, char):
    """A fault that writes ``char`` over the first 0 bit of a matrix."""
    def fault(doc):
        row = next(i for i, bits in enumerate(doc[name]) if "0" in bits)
        doc[name][row] = doc[name][row].replace("0", char, 1)
    return fault


def _swap_first_two_facts(doc):
    for key in ("facts", "R_E", "R_S"):
        doc[key][0], doc[key][1] = doc[key][1], doc[key][0]


def _rename_fact(old, new):
    """A fault that renames fact ``old`` in the fact and rule tables."""
    def fault(doc):
        for entry in doc["facts"]:
            if entry["descriptor"] == old:
                entry["descriptor"] = new
        for rule in doc["rules"]:
            rule["premises"] = [new if p == old else p for p in rule["premises"]]
    return fault


KB_FAULTS = {
    "unsorted cuts": _put("discretization", "steps", value=[11.0, 8.0]),
    "NaN cut": _put("discretization", "steps", value=[math.nan]),
    "infinite cut": _put("discretization", "steps", value=[8.0, math.inf]),
    "int cut beyond 2**53": _put("discretization", "steps", value=[8.0, 2**53 + 1]),
    "cuts drop a bin": _put("discretization", "steps", value=[8.0]),
    "cuts add a bin": _put("discretization", "steps", value=[8.0, 11.0, 15.0]),
    "cuts for an attribute the schema lacks": _put("discretization", "ghost",
                                                   value=[1.0]),
    "list discretization": _put("discretization", value=[[8.0, 11.0]]),
    "rule with empty premises": _put("rules", 0, "premises", value=[]),
    "premise bit x": _bit("R_E", "x"),
    "conclusion bit 2": _bit("R_S", "2"),
    "input flag string": _put("facts", 0, "input", value="no"),
    "input flag 2": _put("facts", 0, "input", value=2),
    "input flag boolean": _put("facts", 5, "input", value=True),
    "input flag against descriptor": _put("facts", 0, "input", value=1),
    "no rules": lambda doc: doc.update(rules=[], R_E=[""] * len(doc["R_E"]),
                                       R_S=[""] * len(doc["R_S"])),
    "descriptor 5": _put("facts", 0, "descriptor", value=5),
    "conclusion list": _put("rules", 0, "conclusion", value=["s1"]),
    "premises string": _put("rules", 0, "premises", value="s0"),
    "premise 5": _put("rules", 0, "premises", value=["s0", 5]),
    "class 5": lambda doc: doc["classes"].append(5),
    "root swapped with a child": _swap_first_two_facts,
    "input fact outside the domain": _rename_fact("steps=b0", "steps=b9"),
    "input fact outside the schema": _rename_fact("steps=b0", "colour=red"),
    "numeric domain not a finite pair": _put(
        "attributes", 1, value={"name": "time", "kind": "numeric",
                                "domain": ["a", None, 3]}),
}


def _assert_model_error(argv, capsys):
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("plancell: model error: ")


@pytest.mark.parametrize("fault", MODEL_FAULTS)
def test_malformed_model_exits_4(fault, model_file, runs_file, tmp_path, capsys):
    doc = json.loads(Path(model_file).read_text())
    doc = MODEL_FAULTS[fault](doc) or doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["classify", "--in", runs_file], ["classify", "--casi", "--in",
                 runs_file], ["casi-dump"]):
        _assert_model_error(argv + ["--model", str(bad)], capsys)


def test_node_id_spelling_an_input_fact_does_not_load(tmp_path, capsys):
    quick = Path(__file__).parent / "golden" / "inputs" / "quick.csv"
    path = tmp_path / "quick.json"
    assert run(["train", "--in", str(quick), "--out", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    renamed = json.loads(path.read_text())
    _rename_nodes({"s2": "problem=blocks-9"})(renamed)
    with pytest.raises(ModelIntegrityError, match="breadth-first"):
        model_from_json(renamed)
    # Loaded as it is, the file's node fact would double as the input fact
    # problem=blocks-9: that value would seed node s2 mid-tree, and CASI
    # would answer a case the tree walk refuses.
    tree = model_from_json(doc)
    tree.nodes()[2].node_id = "problem=blocks-9"
    case = ("blocks-9", "b1", "b3")
    with pytest.raises(UnknownValueError):
        classify_tree(tree, case)
    assert classify_casi(compile_tree(tree), case) == "P3"


def _faulty_kb(fault, model_file, tmp_path, capsys):
    kb_path = tmp_path / "kb.json"
    assert run(["casi-dump", "--model", model_file, "--out", str(kb_path)]) == 0
    capsys.readouterr()
    doc = json.loads(kb_path.read_text())
    KB_FAULTS[fault](doc)
    kb_path.write_text(json.dumps(doc))
    return str(kb_path)


@pytest.mark.parametrize("fault", KB_FAULTS)
def test_malformed_rule_base_exits_4(fault, model_file, tmp_path, capsys):
    kb_path = _faulty_kb(fault, model_file, tmp_path, capsys)
    _assert_model_error(["casi-dump", "--model", kb_path], capsys)


KB_TYPE_MESSAGES = {
    "descriptor 5": "fact descriptor 5 is not a string",
    "conclusion list": "rule 1: conclusion must be a string, not ['s1']",
    "premises string": "rule 1: premises must be a list of strings, not 's0'",
    "premise 5": "rule 1: premises must be a list of strings, not ['s0', 5]",
}


@pytest.mark.parametrize("fault", KB_TYPE_MESSAGES)
def test_rule_base_field_of_the_wrong_type_is_named(fault, model_file, tmp_path,
                                                    capsys):
    kb_path = _faulty_kb(fault, model_file, tmp_path, capsys)
    assert run(["casi-dump", "--model", kb_path]) == 4
    assert capsys.readouterr().err == (
        f"plancell: model error: {KB_TYPE_MESSAGES[fault]}\n")


def test_rule_base_without_rules_exits_4(tmp_path, capsys):
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(json.dumps({
        "format": "cellular-kb", "facts": [{"descriptor": "s0", "input": 0}],
        "rules": [], "R_E": [""], "R_S": [""],
        "attributes": [], "classes": ["A"], "discretization": None}))
    assert run(["casi-dump", "--model", str(kb_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "plancell: model error: rule base has no rules\n"


def test_casi_dump_prints_layers(model_file, capsys):
    assert run(["casi-dump", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert "facts: 24  rules: 20" in out
    assert "Facts" in out and "EF  IF  SF" in out
    assert "Rules" in out and "ER  IR  SR" in out
    assert "Input relation:" in out
    assert "Output relation:" in out
    assert "R1: s0 & steps=b0 -> s1" in out


def test_casi_dump_round_trips_through_kb_file(model_file, tmp_path, capsys):
    kb_path = tmp_path / "kb.json"
    assert run(["casi-dump", "--model", model_file, "--out", str(kb_path)]) == 0
    from_tree = capsys.readouterr().out
    kb = kb_from_json(json.loads(kb_path.read_text()))
    assert kb.fact_count == 24
    # the dump command accepts its own output as a model, and prints the same
    assert run(["casi-dump", "--model", str(kb_path)]) == 0
    assert capsys.readouterr().out == from_tree
    assert "facts: 24  rules: 20" in from_tree


def test_knn_subcommand(runs_file, capsys):
    assert run(["knn", "--in", runs_file, "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("knn (k=1, none, 10-fold):")
    assert "/11" in out


WIDE = ("x:numeric,y:nominal,class:nominal\n"
        + "-1e308,a,LOW\n1e308,a,HIGH\n0.0,b,MID\n" * 4)
TINY = "x:numeric,class:nominal\n" + "0.0,A\n1e-300,B\n" * 5 + "1e10,C\n"


@pytest.mark.parametrize("corpus,k,score", [
    (WIDE, 1, "100.00% (12/12)"), (WIDE, 3, "100.00% (12/12)"),
    (TINY, 1, "36.36% (4/11)"), (TINY, 3, "27.27% (3/11)"),
], ids=["wide, k 1", "wide, k 3", "tiny, k 1", "tiny, k 3"])
def test_knn_over_values_at_the_float_range_ends(corpus, k, score, tmp_path,
                                                 capsys):
    # the span 1e308 - -1e308 overflows; kNN takes it, and any difference that
    # would overflow, between halves, so no distance is NaN. Over the span
    # 1e-300 the query 1e10 puts every row at +inf, as the scalar reference
    # does: the rows tie in training order. numpy warns on neither corpus.
    path = tmp_path / "corpus.csv"
    path.write_text(corpus)
    assert run(["knn", "--in", str(path), "--k", str(k)]) == 0
    assert capsys.readouterr() == (f"knn (k={k}, none, 10-fold): {score}\n", "")


def test_knn_rejects_bad_cv_spec(runs_file, capsys):
    assert run(["knn", "--in", runs_file, "--eval", "five"]) == 2
    assert run(["knn", "--in", runs_file, "--eval", "cvx"]) == 2


def test_knn_eval_spec_sets_the_fold_count(runs_file, capsys, monkeypatch):
    folds = []
    real = cli.cross_validate

    def spy(*args, **kwargs):
        folds.append(kwargs["folds"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "cross_validate", spy)
    assert run(["knn", "--in", runs_file, "--eval", "cv5"]) == 0
    assert capsys.readouterr().out.startswith("knn (k=1, none, 5-fold):")
    assert run(["knn", "--in", runs_file, "--eval", "cv1"]) == 3
    assert "fold" in capsys.readouterr().err
    assert folds == [5, 1]


def test_eval_writes_report(runs_file, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run(["eval", "--in", runs_file, "--methods", "majority,knn",
                "--modes", "supervised", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0].split() == ["Method", "Supervised", "mode"]
    body = out.read_text()
    assert body.startswith("method,supervised\n")
    assert "majority,27.27" in body


def test_a_set_without_attributes_trains_and_evaluates(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("class:nominal\nP1\nP2\nP1\n")
    model = tmp_path / "model.json"
    assert run(["train", "--in", str(labels), "--out", str(model)]) == 0
    assert len(model_from_json(json.loads(model.read_text())).nodes()) == 1
    capsys.readouterr()
    assert run(["eval", "--in", str(labels), "--methods", "j48,knn,majority",
                "--modes", "none", "--folds", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split() for row in rows] == [
        ["j48", "66.67"], ["knn", "66.67"], ["majority", "66.67"]]


def test_eval_requires_input(capsys):
    assert run(["eval"]) == 2


def test_unknown_subcommand(capsys):
    assert run(["prove"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "plancell" in capsys.readouterr().out
