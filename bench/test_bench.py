"""Smoke tests: every workload, every stage and check, at a tiny size.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import harness  # noqa: E402
import hostpace  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace,
                              smoke=True)
    assert result["problems"] == []
    assert set(result["end_to_end"]) == set(harness.END_TO_END)
    assert all(v > 0 for v in result["end_to_end"].values())
    if trace:
        assert set(result["per_layer"]) == set(harness.PER_LAYER)
    rounds = 2 if trace else 1
    # the bw-gen reproducibility operation fails while the solver's time
    # column is wall-clock; nothing else may fail
    want_failed = rounds if harness.WORKLOADS[workload]["repro"] else 0
    assert result["failed"] == want_failed


def test_result_line_is_last_and_complete():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-pipeline-200",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(harness.END_TO_END)


def test_refuses_to_run_without_sources(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cv-grid-2000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stdout == ""


def test_input_builder_is_deterministic(tmp_path):
    cfg = harness.workload_config("classify-2000", smoke=True)
    a = inputs.build_inputs(cfg, 5, str(tmp_path))
    b = inputs.build_inputs(cfg, 5, str(tmp_path))
    assert a.small.csv == b.small.csv and a.big.csv == b.big.csv
    assert len(set(inst.values[1] for inst in a.big.training.instances)) > 10


def test_host_pace_takes_out_probes_and_slowdown():
    pace = hostpace.HostPace()
    assert pace.seconds(1.0, 3.0) == 2.0      # no probes: taken as it is
    pace.starts, pace.ends = [1.5, 2.5, 9.0], [1.6, 2.6, 9.1]
    pace.logs = [math.log(2.0), math.log(2.0), math.log(4.0)]
    # both probes inside are subtracted; the one far after is not near
    assert pace.seconds(1.0, 3.0) == pytest.approx((2.0 - 0.2) / 2.0)
    # no probe near a timing: the closest one gives its slowdown
    assert pace.seconds(6.5, 7.0) == pytest.approx(0.5 / 4.0)
    assert pace.seconds(4.0, 4.5) == pytest.approx(0.5 / 2.0)


def test_small_corpora_differ_and_repeat(tmp_path):
    cfg = harness.workload_config("cli-pipeline-200", smoke=True)
    a = inputs.build_inputs(cfg, 5, str(tmp_path))
    b = inputs.build_inputs(cfg, 5, str(tmp_path))
    csvs = [c.csv for c in (a.small, *a.more)]
    assert len(csvs) == cfg["corpora"] == len(set(csvs))
    assert csvs == [c.csv for c in (b.small, *b.more)]


def test_blocksworld_checks():
    from plancell.blocksworld import all_on_table
    start = all_on_table("abcd")
    tower = (("on", "d", "c"), ("on", "c", "b"), ("on", "b", "a"))
    assert verify.shortest_plan(start, tower) == 6
    good = ["pick-up b", "stack b a", "pick-up c", "stack c b",
            "pick-up d", "stack d c"]
    assert verify.replay(start, tower, good) is None
    assert verify.replay(start, tower, good[:-1]) is not None
    assert verify.replay(start, tower, ["stack b a"] + good) is not None


def test_rule_table_and_plan_checks(tmp_path):
    kb = {"facts": [{"descriptor": "s0"}, {"descriptor": "x=a"},
                    {"descriptor": "class=P1"}],
          "rules": [{"premises": ["s0", "x=a"], "conclusion": "class=P1"}],
          "R_E": ["1", "1", "0"], "R_S": ["0", "0", "1"]}
    assert verify.incidence_matches_rules(kb) == []
    kb["R_E"] = ["1", "0", "0"]
    assert verify.incidence_matches_rules(kb) != []

    project = inputs.layered_project([2, 3])
    plans = tmp_path / "plans.txt"
    plans.write_text("P1: Begin; L1.0; J1; Permit; L2.0; J2; Done\n")
    assert verify.plan_file(str(plans), project, 1) == []
    plans.write_text("P1: Begin; J1; L1.0; Permit; L2.0; J2; Done\n")
    assert verify.plan_file(str(plans), project, 1) != []


def test_value_checks():
    assert verify.boundary_midpoints([1.0, 2.0, 2.0, 3.0],
                                     ["a", "a", "b", "b"]) == {1.5, 2.5}
    from plancell.dataset import build_training_set
    train = build_training_set([("x", "numeric")],
                               [(0.0, "A"), (2.0, "B"), (4.0, "C")])
    # 1.0 is as far from 0.0 as from 2.0: the earlier training row wins
    assert verify.nearest_label(train, (1.0,)) == "A"
