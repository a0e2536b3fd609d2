"""Workloads, their stages, and the metrics each round yields.

Every workload runs the same stages in the same order: a cross-validated
grid, training, classification through the tree walk and CASI, CASI on a
deep rule base, and the CLI chain of the README quick start. The stage a
workload is named after runs at its full size; the others run at the
200-instance size, so every workload reports every metric. Checks run
after each round's stages and are never timed or traced.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import statistics
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

from plancell import casi, cli, dataset, discretize, evaluation, knn, tree
from plancell.errors import UnknownValueError

import hostpace
import inputs
import spans
import verify

FOLDS = 10
METHODS = ("j48", "reptree", "knn")
MODES = ("supervised", "unsupervised")
TREE_MODELS = ("j48", "reptree")
REPRO_SEED = 11          # fixed: the reproducibility check must not vary
KNN_SAMPLE = 30          # queries checked against brute-force 1-NN
PATH_SAMPLE = 50         # cases whose CASI node facts are compared to paths

CASE_CHUNK = 100         # cases per timed sample in the classify stage
DEEP_CHUNK = 20          # cases per timed sample on the deep rule base
TREE_PASSES = 20         # tree walks take ~3 us; time 20 passes per sample
BFS_SEED = 11            # see README: BFS cost varies 100x between problems

_BASE = dict(
    small=inputs.SIZES_200, corpora=4, big=None, grid="small", train="small",
    deep_rows=3000, deep_cases=160,
    bfs=dict(sizes=[4, 5, 6], per_size=6), layers=[2, 3, 3, 3, 3, 3, 4],
    repro=False)

# reps: how many times each stage runs in one round, on each of its corpora
# (one at 2,000 instances; ``corpora`` at 200, see the README). Stages repeat
# so that every piece of work is timed several times in a run. focus: the
# stages run at the workload's own size; per-call layer figures come from
# them when they call the function at all.
WORKLOADS = {
    "cv-grid-2000": dict(_BASE, big=inputs.SIZES_2000, grid="big",
                         reps=dict(grid=1, train=6, classify=2, deep=2, cli=2),
                         focus=("grid",)),
    "classify-2000": dict(_BASE, big=inputs.SIZES_2000, train="big",
                          deep_cases=200,
                          reps=dict(grid=1, train=2, classify=1, deep=2, cli=2),
                          focus=("train", "classify", "deep")),
    "cli-pipeline-200": dict(_BASE, repro=True,
                             reps=dict(grid=1, train=4, classify=1, deep=2,
                                       cli=1),
                             focus=("cli",)),
}

# Tiny sizes for the smoke mode: every stage and check, in seconds.
_SMOKE = dict(
    small=dict(sizes=[4, 5], per_size=12, pool=3), corpora=2,
    deep_rows=300, deep_cases=10,
    bfs=dict(sizes=[4], per_size=2), layers=[2, 3],
    reps=dict(grid=1, train=1, classify=1, deep=1, cli=1))


def workload_config(name: str, smoke: bool = False) -> dict:
    cfg = dict(WORKLOADS[name])
    if smoke:
        cfg.update(_SMOKE)
        if cfg["big"]:
            cfg["big"] = dict(sizes=[4, 5], per_size=15, pool=3)
    return cfg


END_TO_END = {
    "setup_s": "s",
    "grid_s": "s",
    "train_s": "s",
    "tree_cases_per_s": "cases/s",
    "casi_cases_per_s": "cases/s",
    "casi_deep_cases_per_s": "cases/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# Rates of one CLI step each, taken from untraced rounds like the metrics
# above; reported with the per-layer metrics because each times one layer
# (the BFS solver, plan enumeration) in samples too short to hold a bound
# on this machine (see the README).
STEP_RATES = {
    "bfs_instances_per_s": "instances/s",
    "plans_per_s": "plans/s",
}

CLI_COMMANDS = ("bw-gen", "dataset-info", "train", "classify", "classify-casi",
                "casi-dump", "eval", "knn", "plans")
LAYERS = ("discretize", "knn", "tree", "casi", "evaluation", "dataset",
          "blocksworld", "project", "plans", "cli")

PER_LAYER = {
    **STEP_RATES,
    "discretize.supervised_fit_ms": "ms",
    "discretize.unsupervised_fit_ms": "ms",
    "discretize.apply_map_ms": "ms",
    "discretize.cuts": "count",
    "knn.fit_ms": "ms",
    "knn.query_us": "us",
    "knn.queries": "count",
    "tree.grow_ms": "ms",
    "tree.rep_prune_ms": "ms",
    "tree.nodes": "count",
    "tree.classify_us": "us",
    "tree.model_json_ms": "ms",
    "casi.classify_us": "us",
    "casi.classify_deep_us": "us",
    "casi.generations": "count",
    "casi.facts": "count",
    "casi.rules": "count",
    "casi.deep_facts": "count",
    "casi.deep_rules": "count",
    "casi.compile_ms": "ms",
    "casi.kb_json_ms": "ms",
    "evaluation.fold_ms": "ms",
    **{f"evaluation.cell_s.{m}.{d}": "s" for m in METHODS for d in MODES},
    "dataset.subset_ms": "ms",
    "dataset.load_csv_ms": "ms",
    "dataset.save_csv_ms": "ms",
    "blocksworld.solve_bfs_ms": "ms",
    "blocksworld.solve_greedy_us": "us",
    "blocksworld.solves": "count",
    "project.parse_ms": "ms",
    "plans.enumerate_ms": "ms",
    "plans.count": "count",
    **{f"cli.{c}_ms": "ms" for c in CLI_COMMANDS},
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload run: its inputs, counters, samples and problems found."""

    def __init__(self, name, cfg, seed, workdir, inputs_):
        self.name, self.cfg, self.seed = name, cfg, seed
        self.workdir = workdir
        self.inputs = inputs_
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict = {}
        self.models: dict = {}
        self.outputs: dict = {}
        self.tracer = None
        self.pace = hostpace.HostPace()
        self._bfs_runs = None
        self._oracle: dict = {}

    def corpora(self, which: str) -> tuple:
        """The 2,000-instance corpus, or every 200-instance one."""
        if which == "big":
            return (self.inputs.big,)
        return (self.inputs.small,) + self.inputs.more

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def span(self, layer, name):
        return self.tracer.span(layer, name) if self.tracer else nullcontext()

    def stage(self, name):
        if self.tracer:
            self.tracer.stage = name

    def sample(self, key, start, end=None, passes=1):
        """One timing of a piece of work: from ``start`` to ``end`` (now)."""
        end = perf_counter() if end is None else end
        self.samples.setdefault(key, []).append((start, end, passes))

    def check(self, found):
        self.problems.extend(found)

    # --- stages -----------------------------------------------------------
    #
    # Each stage is a generator that yields after every unit of work: one
    # grid cell, one model's training, one chunk of cases, one CLI command.
    # ``round`` interleaves the units of all stages, so every metric's
    # samples spread over the whole round instead of one stretch of it.

    def units(self) -> dict:
        """Units per stage in one round, for interleaving them evenly."""
        reps = self.cfg["reps"]
        grids = len(self.corpora(self.cfg["grid"]))
        trained = self.corpora(self.cfg["train"])
        chunks = sum(math.ceil(2 * len(c.training) / CASE_CHUNK)
                     for c in trained)
        return {
            "grid": reps["grid"] * grids * len(METHODS) * len(MODES),
            "train": reps["train"] * len(trained) * len(TREE_MODELS),
            "classify": reps["classify"] * len(TREE_MODELS) * chunks,
            "deep": (reps["deep"]
                     * math.ceil(len(self.inputs.deep_cases) / DEEP_CHUNK)),
            "cli": reps["cli"] * len(self.chain()),
        }

    def grid(self):
        """``evaluate_grid`` one cell at a time; keeps the last full grids."""
        corpora = self.corpora(self.cfg["grid"])
        self.outputs["grid"] = {}
        for _ in range(self.cfg["reps"]["grid"]):
            for k, corpus in enumerate(corpora):
                reports = []
                for method in METHODS:
                    for mode in MODES:
                        start = perf_counter()
                        reports += evaluation.evaluate_grid(
                            corpus.training, [method], [mode], seed=self.seed,
                            folds=FOLDS, engine="tree")
                        self.sample(("grid", k, method, mode), start)
                        self.attempted += 1
                        yield True
                self.outputs["grid"][k] = reports

    def train(self):
        corpora = self.corpora(self.cfg["train"])
        for _ in range(self.cfg["reps"]["train"]):
            for k, corpus in enumerate(corpora):
                ts = corpus.training
                for method in TREE_MODELS:
                    start = perf_counter()
                    dmap = discretize.fit_map(ts, "supervised")
                    graph = tree.induce(discretize.apply_map(dmap, ts), method,
                                        seed=self.seed, discretization=dmap)
                    self.models[k, method] = (dmap, graph,
                                              casi.compile_tree(graph))
                    self.sample(("train", k, method), start)
                    self.attempted += 1
                    yield True

    def classify(self):
        """Every case and its out-of-domain copy, through both engines.

        Each chunk of ``CASE_CHUNK`` cases is one sample per engine: the
        seconds it took (per tree pass), keyed by corpus, model and chunk.
        """
        corpora = self.corpora(self.cfg["train"])
        for _ in range(self.cfg["reps"]["classify"]):
            results = {}
            for k, corpus in enumerate(corpora):
                ts = corpus.training
                raw = [inst.values for inst in ts.instances] + corpus.out_of_domain
                for method in TREE_MODELS:
                    while (k, method) not in self.models:
                        yield False
                    dmap, graph, kb = self.models[k, method]
                    cases = [_binned(dmap, ts, values) for values in raw]
                    by_tree, by_casi = [], []
                    for at in range(0, len(cases), CASE_CHUNK):
                        chunk = cases[at:at + CASE_CHUNK]
                        start = perf_counter()
                        for _ in range(TREE_PASSES):
                            labels = [_label(tree.classify_tree, graph, v)
                                      for v in chunk]
                        self.sample(("tree", k, method, at), start,
                                    passes=TREE_PASSES)
                        by_tree += labels
                        start = perf_counter()
                        by_casi += [_label(casi.classify_casi, kb, v)
                                    for v in chunk]
                        self.sample(("casi", k, method, at), start)
                        yield True
                    results[k, method] = (cases, by_tree, by_casi)
                    self.attempted += len(cases)
            self.outputs["classify"] = results

    def deep(self):
        kb, cases = self.inputs.deep_kb, self.inputs.deep_cases
        for _ in range(self.cfg["reps"]["deep"]):
            labels = []
            for at in range(0, len(cases), DEEP_CHUNK):
                chunk = cases[at:at + DEEP_CHUNK]
                start = perf_counter()
                labels += [casi.classify_casi(kb, v) for v in chunk]
                self.sample(("deep", at), start)
                yield True
            self.attempted += len(cases)
            self.outputs["deep"] = labels

    def _cli(self, command, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with self.span("cli", f"cli.{command}"):
            start = perf_counter()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.run(argv)
            end = perf_counter()
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"plancell {' '.join(argv)} exited {code}: "
                                 f"{stderr.getvalue().strip()}")
        return (start, end), stdout.getvalue()

    def chain(self) -> list[tuple[str, str, list]]:
        """The README quick start: (step, subcommand, argv) per command."""
        f, p, seed = self.inputs.files, self.path, str(self.seed)
        small, bfs = self.cfg["small"], self.cfg["bfs"]
        steps = [
            ("bw-gen", "bw-gen", _bw_gen(small, seed, p("gen.csv"))),
            ("dataset-info", "dataset-info", ["dataset-info", "--in", f["corpus"]]),
        ]
        for m in TREE_MODELS:
            steps.append((f"train {m}", "train",
                          ["train", "--in", f["corpus"], "--mode", m,
                           "--seed", seed, "--out", p(f"{m}.json")]))
        for m in TREE_MODELS:
            base = ["classify", "--model", p(f"{m}.json"), "--in", f["corpus"]]
            steps.append((f"classify {m}", "classify",
                          base + ["--out", p(f"{m}-tree.csv")]))
            steps.append((f"classify --casi {m}", "classify-casi",
                          base + ["--casi", "--out", p(f"{m}-casi.csv")]))
        for engine in ("tree", "casi"):
            steps.append((f"eval {engine}", "eval",
                          ["eval", "--in", f["corpus"], "--engine", engine,
                           "--seed", seed, "--out", p(f"eval-{engine}.csv")]))
        steps += [
            ("casi-dump", "casi-dump", ["casi-dump", "--model", p("j48.json"),
                                        "--out", p("kb.json")]),
            ("knn", "knn", ["knn", "--in", f["corpus"], "--seed", seed]),
            ("bw-gen bfs", "bw-gen",
             _bw_gen(dict(bfs, pool=bfs["per_size"]), str(BFS_SEED),
                     p("bfs.csv")) + ["--method", "bfs"]),
            ("plans fire", "plans", ["plans", "--project", f["fire"],
                                     "--out", p("fire.txt")]),
            ("plans layered", "plans", ["plans", "--project", f["layered"],
                                        "--out", p("layered.txt")]),
        ]
        return steps

    def cli_chain(self):
        for _ in range(self.cfg["reps"]["cli"]):
            printed = {}
            for step, command, argv in self.chain():
                (start, end), printed[step] = self._cli(command, argv)
                self.sample(("cli", step), start, end)
                yield True
            self.outputs["cli"] = printed

    def repro(self):
        """bw-gen twice with one fixed seed must write the same bytes."""
        texts = []
        for name in ("repro-a.csv", "repro-b.csv"):
            self._cli("bw-gen", _bw_gen(self.cfg["small"], str(REPRO_SEED),
                                        self.path(name)))
            with open(self.path(name), "rb") as fh:
                texts.append(fh.read())
        self.attempted += 1
        if texts[0] != texts[1]:
            self.failed += 1

    # --- one round --------------------------------------------------------

    def round(self) -> dict:
        """Every stage's units, interleaved; returns the last outputs.

        The next unit comes from the stage that has done the smallest share
        of its units, so each stage's units spread evenly over the round.
        A stage waiting for another's output (classify needs this round's
        models) lets the next stage go first.
        """
        self.models, self.outputs = {}, {}
        totals = self.units()
        running = {"grid": self.grid(), "train": self.train(),
                   "classify": self.classify(), "deep": self.deep(),
                   "cli": self.cli_chain()}
        done = dict.fromkeys(running, 0)
        while running:
            order = sorted(running, key=lambda s: done[s] / totals[s])
            for stage in order:
                self.stage(stage)
                try:
                    progressed = next(running[stage])
                except StopIteration:
                    del running[stage]
                    break
                if progressed:
                    done[stage] += 1
                    break
        self.stage("")
        return self.outputs

    def after_round(self, outputs):
        """The reproducibility operation and every check; never traced."""
        if self.cfg["repro"]:
            self.repro()
        self._check(outputs["grid"], self.models, outputs["classify"],
                    outputs["deep"], outputs["cli"])

    def end_to_end(self, setups) -> dict:
        """End-to-end metrics from the median timing of each piece of work.

        A piece of work is a chunk of cases, one model's training, one CLI
        command or one grid cell; a metric adds up the median time of each
        of its pieces, every timing first turned into seconds on an
        unloaded host by ``self.pace`` (see ``hostpace``). ``grid_s`` and
        ``train_s`` are per corpus: the mean over the stage's corpora. Set-up
        time is the median of the set-ups, ``setups`` being their (start,
        end).
        """
        seconds = self.pace.seconds
        best: dict = {}
        for key, timings in self.samples.items():
            best.setdefault(key[0], []).append((key, median(
                [seconds(start, end) / passes
                 for start, end, passes in timings])))

        def total(kind, keep=lambda key: True):
            return sum(v for key, v in best[kind] if keep(key))

        def step(name):
            return total("cli", lambda key: key[1] == name)

        trained = self.corpora(self.cfg["train"])
        cases = len(TREE_MODELS) * 2 * sum(len(c.training) for c in trained)
        bfs = self.cfg["bfs"]
        plans = 8 + math.prod(self.inputs.layered_widths)
        return {
            "setup_s": median([seconds(*span) for span in setups]),
            "grid_s": total("grid") / len(self.corpora(self.cfg["grid"])),
            "train_s": total("train") / len(trained),
            "tree_cases_per_s": cases / total("tree"),
            "casi_cases_per_s": cases / total("casi"),
            "casi_deep_cases_per_s": len(self.inputs.deep_cases) / total("deep"),
            "pipeline_s": total("cli"),
            "bfs_instances_per_s": (len(bfs["sizes"]) * bfs["per_size"]
                                    / step("bw-gen bfs")),
            "plans_per_s": plans / (step("plans fire") + step("plans layered")),
            "peak_rss_mb": peak_rss_mb(),
        }

    def _check(self, reports, models, classified, deep, printed):
        for k, corpus in enumerate(self.corpora(self.cfg["grid"])):
            grid_ts = corpus.training
            plan = evaluation.make_folds(grid_ts, FOLDS, self.seed)
            self.check(verify.cv_reports(
                reports[k], len(grid_ts), plan.assignment,
                [inst.label for inst in grid_ts.instances], FOLDS))
            self._check_knn(grid_ts, plan)

        trained = self.corpora(self.cfg["train"])
        for (k, method), (dmap, graph, kb) in models.items():
            self.check(verify.mdl_cuts(trained[k].training, dmap))
            cases, by_tree, by_casi = classified[k, method]
            model_json = tree.model_to_json(graph)
            self.check(verify.tree_matches_json(model_json, cases, by_tree))
            self.check(verify.engines_agree(cases, by_tree, by_casi, method))
            step = max(1, len(cases) // PATH_SAMPLE)
            for values, label in zip(cases[::step], by_tree[::step]):
                if label is verify.UNKNOWN:
                    continue
                path = tree.classify_tree(graph, values)[1]
                seeds = [kb.facts[0]] + casi.instance_facts(kb, values)
                final = casi.infer(kb, seeds)[-1]
                self.check(verify.node_facts_follow_path(
                    casi.established_facts(kb, final), path, values))

        deep_tree = [_label(tree.classify_tree, self.inputs.deep_tree, v)
                     for v in self.inputs.deep_cases]
        self.check(verify.engines_agree(self.inputs.deep_cases, deep_tree,
                                        deep, "deep rule base"))
        self._check_cli(printed)

    def _check_knn(self, ts, plan):
        train = dataset.subset(ts, plan.train_indices(0))
        test = plan.test_indices(0)
        step = max(1, len(test) // KNN_SAMPLE)
        queries = [ts.instances[i].values for i in test[::step]]
        model = knn.fit_knn(train, 1)
        got = [knn.classify_knn(model, q) for q in queries]
        self.check(verify.knn_sample(train, queries, got))

    def _check_cli(self, printed):
        p, small = self.path, self.inputs.small
        self.check(verify.same_runs(p("gen.csv"), small.runs))
        self.check(verify.dataset_info(printed["dataset-info"],
                                       small.training))
        for m in TREE_MODELS:
            self.check(verify.classify_outputs(
                p(f"{m}.json"), small.training, p(f"{m}-tree.csv"),
                p(f"{m}-casi.csv")))
        with open(p("kb.json"), encoding="utf-8") as fh:
            self.check(verify.incidence_matches_rules(json.load(fh)))
        self.check(verify.reports_equal(p("eval-tree.csv"),
                                        p("eval-casi.csv")))
        self.check(verify.knn_output(printed["knn"], len(small.training)))
        if self._bfs_runs is None:
            bfs = self.cfg["bfs"]
            self._bfs_runs = inputs.seeded_runs(
                bfs["sizes"], bfs["per_size"], BFS_SEED, bfs["per_size"])
        self.check(verify.bfs_lengths(p("bfs.csv"), self._bfs_runs,
                                      self._oracle))
        self.check(verify.plan_file(p("fire.txt"),
                                    _read(self.inputs.files["fire"]), 8))
        self.check(verify.plan_file(p("layered.txt"),
                                    _read(self.inputs.files["layered"]),
                                    math.prod(self.inputs.layered_widths)))


def _bw_gen(params, seed, out):
    return ["bw-gen", "--sizes", ",".join(map(str, params["sizes"])),
            "--per-size", str(params["per_size"]), "--pool",
            str(params["pool"]), "--seed", seed, "--out", out]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _label(classify, model, values):
    try:
        result = classify(model, values)
    except UnknownValueError:
        return verify.UNKNOWN
    return result[0] if isinstance(result, tuple) else result


def _binned(dmap, ts, values) -> tuple:
    return tuple(dmap.bin_label(spec.name, v) if spec.name in dmap.cuts else v
                 for spec, v in zip(ts.attributes, values))


def median(values) -> float:
    return statistics.median(values)


def layer_metrics(trace: list, run: Run) -> dict:
    """Per-layer metrics of one traced round, from its spans.

    Per-call figures are medians over the calls the workload's focus
    stages make, or over every call when those stages make none.
    """
    by: dict = {}
    for s in trace:
        by.setdefault(s.name, []).append(s)
    focus = run.cfg["focus"]

    def per_call(name, scale, keep=lambda s: True):
        calls = [s for s in by.get(name, []) if keep(s)]
        own = [s for s in calls if s.stage in focus]
        return median([s.seconds for s in own or calls]) * scale

    def notes(name, key, keep=lambda s: True):
        return [s.note[key] for s in by.get(name, []) if keep(s)]

    def in_stage(stage):
        return lambda s: s.stage == stage

    def solved_by(method):
        return lambda s: s.note["method"] == method

    m = {
        "discretize.supervised_fit_ms":
            per_call("discretize.discretize_supervised", 1e3),
        "discretize.unsupervised_fit_ms":
            per_call("discretize.discretize_unsupervised", 1e3),
        "discretize.apply_map_ms": per_call("discretize.apply_map", 1e3),
        "discretize.cuts": sum(notes("discretize.discretize_supervised", "cuts")),
        "knn.fit_ms": per_call("knn.fit_knn", 1e3),
        "knn.query_us": per_call("knn.classify_knn", 1e6),
        "knn.queries": len(by.get("knn.classify_knn", [])),
        "tree.grow_ms": per_call("tree.grow", 1e3),
        "tree.rep_prune_ms": per_call("tree.rep_prune", 1e3),
        "tree.nodes": sum(notes("tree.induce", "nodes")),
        "tree.classify_us": per_call("tree.classify_tree", 1e6),
        "tree.model_json_ms": per_call("tree.model_to_json", 1e3),
        "casi.classify_us": per_call("casi.classify_casi", 1e6,
                                     lambda s: s.stage != "deep"),
        "casi.classify_deep_us": per_call("casi.classify_casi", 1e6,
                                          in_stage("deep")),
        "casi.generations": median(notes("casi.infer", "generations",
                                         in_stage("deep"))),
        "casi.facts": statistics.mean(notes("casi.compile_tree", "facts",
                                            in_stage("train"))),
        "casi.rules": statistics.mean(notes("casi.compile_tree", "rules",
                                            in_stage("train"))),
        "casi.deep_facts": run.inputs.deep_kb.fact_count,
        "casi.deep_rules": run.inputs.deep_kb.rule_count,
        "casi.compile_ms": per_call("casi.compile_tree", 1e3),
        "casi.kb_json_ms": per_call("casi.kb_to_json", 1e3),
        "evaluation.fold_ms": median(spans.fold_seconds(trace)) * 1e3,
        "dataset.subset_ms": per_call("dataset.subset", 1e3),
        "dataset.load_csv_ms": per_call("dataset.load_csv", 1e3),
        "dataset.save_csv_ms": per_call("dataset.save_csv", 1e3),
        "blocksworld.solve_bfs_ms": per_call("blocksworld.solve", 1e3,
                                             solved_by("bfs")),
        "blocksworld.solve_greedy_us": per_call("blocksworld.solve", 1e6,
                                                solved_by("greedy")),
        "blocksworld.solves": len(by.get("blocksworld.solve", [])),
        "project.parse_ms": per_call("project.parse_project", 1e3),
        "plans.enumerate_ms": per_call("plans.enumerate_plans", 1e3),
        "plans.count": sum(notes("plans.enumerate_plans", "plans")),
        "trace.spans": len(trace),
    }
    for method in METHODS:
        for mode in MODES:
            cell = f"{method}.{mode}"
            m[f"evaluation.cell_s.{cell}"] = per_call(
                "evaluation.cross_validate", 1.0,
                lambda s: s.stage == "grid" and s.note["cell"] == cell)
    for command in CLI_COMMANDS:
        m[f"cli.{command}_ms"] = 1e3 / run.cfg["reps"]["cli"] * sum(
            s.seconds for s in by.get(f"cli.{command}", [])
            if s.stage == "cli")
    own = spans.self_times(trace)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = own.get(layer, 0.0)
    return m
