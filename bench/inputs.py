"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed and the size settings,
so one seed gives one set of inputs, byte for byte. The solver records
wall-clock time in each run's ``cpu_time``; the corpora here replace it with
a value drawn from the benchmark's own generator, so the ``time`` column
keeps many distinct values, as a measured one does, without depending on
how fast this machine is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from plancell import blocksworld, casi, dataset, sample_data, tree

SIZES_2000 = dict(sizes=[4, 5, 6, 7, 8], per_size=400, pool=20)
SIZES_200 = dict(sizes=[4, 5, 6, 7], per_size=50, pool=5)

# The deep rule base: nominal attributes, values per attribute, classes,
# and the share of labels redrawn at random. Its rows come from the fixed
# DEEP_SEED, and only the cases classified from the workload seed: the
# base's size varied over 651-742 facts between seeds, which alone moved
# the deep CASI rate by a quarter.
DEEP_ATTRIBUTES = 8
DEEP_VALUES = 4
DEEP_CLASSES = 10
DEEP_NOISE = 0.08
DEEP_SEED = 11


def seeded_cpu_time(run: blocksworld.CorpusRun, rng: random.Random) -> float:
    """A solve time that grows with block count and plan length, plus noise."""
    blocks = len(run.initial.blocks)
    base = 2e-4 * blocks * blocks + 5e-5 * len(run.plan)
    return round(base * rng.lognormvariate(0.0, 0.3), 9)


def seeded_runs(sizes, per_size, seed, pool, method="greedy"):
    """``generate_runs`` with its time column replaced by seeded values."""
    runs = blocksworld.generate_runs(sizes, per_size, seed, pool=pool,
                                     method=method)
    rng = random.Random(f"cpu-time/{seed}")
    return [replace(r, cpu_time=seeded_cpu_time(r, rng)) for r in runs]


@dataclass(frozen=True)
class Corpus:
    """Solved runs, their training set, its CSV text, out-of-domain cases."""

    runs: tuple
    training: dataset.TrainingSet
    csv: str
    out_of_domain: list


def build_corpus(params: dict, seed: int) -> Corpus:
    runs = seeded_runs(params["sizes"], params["per_size"], seed,
                       params["pool"])
    ts = blocksworld.corpus_training_set(runs)
    return Corpus(tuple(runs), ts, dataset.save_csv(ts), out_of_domain(ts))


def derived_seed(seed: int, k: int) -> int:
    """The seed of the ``k``-th further small corpus of a workload seed."""
    return random.Random(f"small/{seed}/{k}").randrange(1, 2**31)


def deep_training_set(rows: int, seed: int) -> dataset.TrainingSet:
    """Nominal rows whose class is a fixed function of four attributes.

    The function is the same for every seed; the rows and the label noise
    come from the seed.
    """
    rng = random.Random(f"deep/{seed}")
    out = []
    for _ in range(rows):
        x = [rng.randrange(DEEP_VALUES) for _ in range(DEEP_ATTRIBUTES)]
        label = (3 * x[0] + 2 * x[1] + x[2] + x[3]) % DEEP_CLASSES
        if rng.random() < DEEP_NOISE:
            label = rng.randrange(DEEP_CLASSES)
        out.append(tuple(f"v{v}" for v in x) + (f"c{label}",))
    columns = [(f"a{i + 1}", "nominal") for i in range(DEEP_ATTRIBUTES)]
    return dataset.build_training_set(columns, out)


def layered_widths(seed: int, widths) -> list[int]:
    """The layer widths in a seeded order; their product is the plan count."""
    order = list(widths)
    random.Random(f"layers/{seed}").shuffle(order)
    return order


def layered_project(widths) -> str:
    """Project JSON: layers of OR alternatives, closed by an AND join.

    Layer i offers ``widths[i]`` alternative tasks that each follow the
    previous join; its join task accepts any one of them. The exit needs
    the last join and a side permit (an AND group), so the project has
    exactly prod(widths) plans.
    """
    tasks = [{"id": "Begin", "pre": []},
             {"id": "Permit", "pre": [["Begin"]]}]
    previous = "Begin"
    for i, width in enumerate(widths, start=1):
        options = [f"L{i}.{j}" for j in range(width)]
        tasks += [{"id": t, "pre": [[previous]]} for t in options]
        previous = f"J{i}"
        tasks.append({"id": previous, "pre": [[t] for t in options]})
    tasks.append({"id": "Done", "pre": [[previous, "Permit"]]})
    return json.dumps({"entry": "Begin", "exit": "Done", "tasks": tasks},
                      indent=1)


def out_of_domain(ts: dataset.TrainingSet) -> list[tuple]:
    """Each case with every value moved outside the training domain.

    Nominal values get a suffix no training value has; numeric values are
    shifted one full range above the observed maximum.
    """
    cases = []
    for inst in ts.instances:
        values = []
        for spec, v in zip(ts.attributes, inst.values):
            if spec.kind == dataset.NUMERIC:
                lo, hi = spec.domain
                values.append(v + (hi - lo) + 1.0)
            else:
                values.append(f"{v}-unseen")
        cases.append(tuple(values))
    return cases


@dataclass
class Inputs:
    """Everything one workload run reads: corpora, deep base, projects."""

    small: Corpus
    more: tuple         # further small corpora, from seeds derived from it
    big: Corpus | None
    deep_tree: tree.InductionGraph
    deep_kb: casi.CellularKnowledgeBase
    deep_cases: list
    layered_widths: list[int]
    files: dict


def build_inputs(cfg: dict, seed: int, workdir: str) -> Inputs:
    """Build a workload's inputs and write the files its CLI stage reads."""
    small = build_corpus(cfg["small"], seed)
    more = tuple(build_corpus(cfg["small"], derived_seed(seed, k))
                 for k in range(1, cfg["corpora"]))
    big = build_corpus(cfg["big"], seed) if cfg.get("big") else None
    deep_set = deep_training_set(cfg["deep_rows"], DEEP_SEED)
    deep_tree = tree.induce(deep_set, "j48")
    deep_kb = casi.compile_tree(deep_tree)
    rng = random.Random(f"deep-cases/{seed}")
    deep_cases = [inst.values for inst in
                  rng.sample(deep_set.instances, cfg["deep_cases"])]
    widths = layered_widths(seed, cfg["layers"])
    files = {
        "corpus": f"{workdir}/corpus.csv",
        "fire": f"{workdir}/fire.json",
        "layered": f"{workdir}/layered.json",
    }
    texts = {
        "corpus": small.csv,
        "fire": sample_data.sample_project_text(),
        "layered": layered_project(widths),
    }
    for key, path in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[key])
    return Inputs(small, more, big, deep_tree, deep_kb, deep_cases, widths,
                  files)
