"""Seeded benchmark of the plancell pipeline.

    python3 bench/run.py --workload cv-grid-2000 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
``--workload all`` runs every workload in this one process. ``--trace 1``
alternates untraced and traced rounds and reports per-layer metrics, each
layer's self time, and the tracing overhead. ``--smoke`` runs every stage
and check at a tiny size. Human-readable lines go to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One thread: numpy must not start a BLAS pool behind the benchmark's back.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, pace=None) -> dict:
    """Set up, run rounds for ``seconds``, check; return counts and metrics.

    ``pace`` is the running ``hostpace.HostPace`` that turns timings into
    seconds on an unloaded host; without it timings are taken as they are.
    """
    import harness
    import hostpace
    import inputs
    import spans
    import verify

    cfg = harness.workload_config(name, smoke)
    pace = pace or hostpace.HostPace()
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        setups, built = [], None
        problems = []
        begin = perf_counter()
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            fresh = inputs.build_inputs(cfg, seed, workdir)
            setups.append((start, perf_counter()))
            if built is not None and _csvs(fresh) != _csvs(built):
                problems.append("inputs: one seed gave different corpus CSVs")
            built = fresh
        for corpus in _corpora(built):
            problems += verify.greedy_plans(corpus.runs)

        run = harness.Run(name, cfg, seed, workdir, built)
        run.pace = pace
        run.problems += problems
        # A CLI user's process holds only its own objects: keep the inputs
        # out of the collector, so collections in timed calls do not walk them.
        gc.collect()
        gc.freeze()
        rounds, layer_rows, plain_s, traced_s, kept = 0, [], [], [], []
        first = perf_counter()
        while True:
            plain_s.append(_timed(run.round, pace))
            run.after_round(run.outputs)
            rounds += 1
            if trace:
                tracer = spans.Tracer()
                # traced rounds must not feed the untraced samples
                run.tracer, untraced, run.samples = tracer, run.samples, {}
                with tracer:
                    traced_s.append(_timed(run.round, pace))
                run.tracer, run.samples = None, untraced
                run.after_round(run.outputs)
                layer_rows.append(harness.layer_metrics(tracer.spans, run))
                kept.append(tracer.spans)
            if perf_counter() - first >= seconds:
                break

        slowdown = pace.slowdown(begin, perf_counter())
        measured = run.end_to_end(setups)
        metrics = {k: measured[k] for k in harness.END_TO_END}
        layers = {k: measured[k] for k in harness.STEP_RATES}
        if trace:
            layers.update({k: harness.median([row[k] for row in layer_rows])
                           for k in layer_rows[0]})
            layers["trace.overhead_s"] = (harness.median(traced_s)
                                          - harness.median(plain_s))
            _write_spans(name, kept)
        return {"correct": not run.problems, "attempted": run.attempted,
                "failed": run.failed, "problems": run.problems,
                "end_to_end": metrics, "per_layer": layers,
                "rounds": rounds, "slowdown": slowdown}
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def _corpora(built) -> list:
    return [built.small, *built.more] + ([built.big] if built.big else [])


def _csvs(built) -> list[str]:
    return [corpus.csv for corpus in _corpora(built)]


def _timed(work, pace) -> float:
    """Seconds ``work()`` took, on an unloaded host."""
    start = perf_counter()
    work()
    return pace.seconds(start, perf_counter())


def _write_spans(name, rounds):
    """The traced rounds' spans; each run replaces its workload's file."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    rows = [[i, s.name, s.stage, s.start, s.end, s.parent]
            for i, trace in enumerate(rounds) for s in trace]
    with open(out / f"spans-{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"columns": ["round", "name", "stage", "start", "end",
                               "parent"], "spans": rows}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="cv-grid-2000, classify-2000, cli-pipeline-200 or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every stage and check in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plancell" / "__init__.py").is_file():
        print(f"bench: no plancell sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import harness
    import hostpace

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in harness.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    with hostpace.HostPace() as pace:
        results = {n: run_workload(n, args.seed, args.seconds,
                                   bool(args.trace), args.smoke, pace)
                   for n in names}

    for n, r in results.items():
        for problem in r["problems"]:
            print(f"bench: {n}: check failed: {problem}", file=sys.stderr)
        print(f"{n}: seed {args.seed}, {r['rounds']} rounds, "
              f"attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}, host slowdown {r['slowdown']:.3f}")
        for table, units in (("end_to_end", harness.END_TO_END),
                             ("per_layer", harness.PER_LAYER)):
            for key, value in r[table].items():
                print(f"  {key:<34} {value:>14.6g} {units[key]}")

    chosen = harness.PER_LAYER if args.trace else harness.END_TO_END
    table = "per_layer" if args.trace else "end_to_end"
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": chosen[k]}
                   for k, v in results[names[0]][table].items()}
    else:
        metrics = {f"{n}:{k}": {"value": v, "unit": chosen[k]}
                   for n in names for k, v in results[n][table].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
