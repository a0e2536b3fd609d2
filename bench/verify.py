"""Independent checks of the pipeline's outputs.

Each check either recomputes a result without the package's code or tests
a property the method must have. Every function returns a list of problem
descriptions; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from collections import Counter, deque

UNKNOWN = object()


# --- cross-validation -----------------------------------------------------

def cv_reports(reports, n_instances, assignment, labels, folds):
    """Every instance tested once; class counts per fold differ by <= 1."""
    out = []
    for r in reports:
        where = f"{r.method}/{r.mode}"
        if r.correct + r.incorrect + r.errors != r.total or r.total != n_instances:
            out.append(f"cv {where}: {r.correct}+{r.incorrect}+{r.errors} "
                       f"!= {n_instances}")
        if sum(n for _, _, n in r.confusion) != n_instances:
            out.append(f"cv {where}: confusion table does not cover every case")
        if len(r.per_fold) != folds:
            out.append(f"cv {where}: {len(r.per_fold)} fold rates, want {folds}")
    if len(assignment) != n_instances or set(assignment) != set(range(folds)):
        out.append("cv: fold assignment does not cover every fold")
    per_class: dict = {}
    for label, fold in zip(labels, assignment):
        per_class.setdefault(label, Counter())[fold] += 1
    for label, counts in per_class.items():
        sizes = [counts.get(f, 0) for f in range(folds)]
        if max(sizes) - min(sizes) > 1:
            out.append(f"cv: class {label} fold sizes {sizes} differ by > 1")
    return out


# --- discretization -------------------------------------------------------

def boundary_midpoints(values, labels) -> set:
    """Midpoints between consecutive distinct values whose class sets differ."""
    classes: dict = {}
    for v, y in zip(values, labels):
        classes.setdefault(v, set()).add(y)
    distinct = sorted(classes)
    return {(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])
            if classes[a] != classes[b]}


def mdl_cuts(ts, dmap):
    out = []
    labels = [inst.label for inst in ts.instances]
    for i, spec in enumerate(ts.attributes):
        if spec.kind != "numeric":
            continue
        cuts = dmap.cuts[spec.name]
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            out.append(f"mdl {spec.name}: cuts not strictly increasing")
        values = [inst.values[i] for inst in ts.instances]
        stray = set(cuts) - boundary_midpoints(values, labels)
        if stray:
            out.append(f"mdl {spec.name}: cuts {sorted(stray)} are not "
                       f"boundary midpoints")
    return out


# --- kNN ------------------------------------------------------------------

def nearest_label(train, query) -> str:
    """Brute-force range-normalized 1-NN; ties keep training order."""
    ranges = [s.domain if s.kind == "numeric" else None for s in train.attributes]
    best, label = None, None
    for inst in train.instances:
        total = 0.0
        for rng, x, y in zip(ranges, query, inst.values):
            if rng is None:
                d = 0.0 if x == y else 1.0
            else:
                span = rng[1] - rng[0]
                d = 0.0 if span == 0 else abs(x - y) / span
            total += d * d
        dist = math.sqrt(total)
        if best is None or dist < best:
            best, label = dist, inst.label
    return label


def knn_sample(train, queries, predicted):
    out = []
    for q, p in zip(queries, predicted):
        want = nearest_label(train, q)
        if want != p:
            out.append(f"knn: query {q} predicted {p}, brute force {want}")
    return out


# --- trees and the cellular engine ----------------------------------------

def bin_values(model_json, values) -> tuple:
    """Numeric values to bin codes: bin = number of cuts below the value."""
    cuts = model_json.get("discretization") or {}
    out = []
    for spec, v in zip(model_json["attributes"], values):
        if spec["name"] in cuts and isinstance(v, float):
            v = f"b{bisect_left(cuts[spec['name']], v)}"
        out.append(v)
    return tuple(out)


def walk_json(model_json, values):
    """Classify by walking the model file's node table; UNKNOWN if stuck."""
    nodes = {n["id"]: n for n in model_json["nodes"]}
    index = {a["name"]: i for i, a in enumerate(model_json["attributes"])}
    node = model_json["nodes"][0]
    while "split" in node:
        child = node["children"].get(values[index[node["split"]]])
        if child is None:
            return UNKNOWN
        node = nodes[child]
    return node["leaf_class"]


def tree_matches_json(model_json, cases, results):
    out = []
    for values, got in zip(cases, results):
        want = walk_json(model_json, values)
        if want != got:
            out.append(f"tree walk on {values}: {got!r}, node table says "
                       f"{want!r}")
            break
    return out


def engines_agree(cases, tree_results, casi_results, what):
    out = []
    for values, a, b in zip(cases, tree_results, casi_results):
        if a != b:
            out.append(f"{what}: tree walk {a!r} but CASI {b!r} on {values}")
            break
    return out


def node_facts_follow_path(established, path, values):
    nodes = {f for f in established if "=" not in f}
    if nodes != set(path):
        return [f"casi: node facts {sorted(nodes)} != tree path {path} "
                f"on {values}"]
    return []


def incidence_matches_rules(kb_json):
    """R_E/R_S bitstrings rebuilt from the fact and rule tables."""
    facts = [f["descriptor"] for f in kb_json["facts"]]
    rules = kb_json["rules"]
    index = {f: i for i, f in enumerate(facts)}
    premise = [["0"] * len(rules) for _ in facts]
    conclusion = [["0"] * len(rules) for _ in facts]
    for j, rule in enumerate(rules):
        for p in rule["premises"]:
            premise[index[p]][j] = "1"
        conclusion[index[rule["conclusion"]]][j] = "1"
    out = []
    if ["".join(r) for r in premise] != kb_json["R_E"]:
        out.append("casi-dump: R_E disagrees with the rule table")
    if ["".join(r) for r in conclusion] != kb_json["R_S"]:
        out.append("casi-dump: R_S disagrees with the rule table")
    return out


# --- CLI outputs ----------------------------------------------------------

def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


def predictions(path):
    """The predicted column of a ``classify --out`` file."""
    rows = read_rows(path)
    return [row[2] for row in rows[1:]]


def classify_outputs(model_path, corpus, tree_path, casi_path):
    out = []
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)
    by_tree, by_casi = predictions(tree_path), predictions(casi_path)
    if by_tree != by_casi:
        out.append(f"classify: tree and --casi predictions differ "
                   f"({tree_path}, {casi_path})")
    if len(by_tree) != len(corpus.instances):
        out.append(f"classify: {len(by_tree)} predictions for "
                   f"{len(corpus.instances)} cases")
    for inst, got in zip(corpus.instances, by_tree):
        want = walk_json(model, bin_values(model, inst.values))
        if (want is UNKNOWN and got != "?") or (want is not UNKNOWN and got != want):
            out.append(f"classify: case {inst.values} predicted {got}, "
                       f"node table says {want}")
            break
    return out


def corpus_columns(path):
    """(problem, steps, class) per row of a corpus CSV file."""
    rows = read_rows(path)
    header = [h.split(":")[0] for h in rows[0]]
    i, j, k = header.index("problem"), header.index("steps"), header.index("class")
    return [(r[i], float(r[j]), r[k]) for r in rows[1:]]


def same_runs(path, runs):
    got = corpus_columns(path)
    want = [(r.problem, float(len(r.plan)), r.label) for r in runs]
    if got != want:
        return [f"bw-gen {path}: problems, plan lengths or labels differ "
                f"from the seeded corpus"]
    return []


def dataset_info(stdout, ts):
    want = [f"instances: {len(ts.instances)}", f"classes: {len(ts.classes)}"]
    missing = [w for w in want if w not in stdout.splitlines()]
    return [f"dataset-info: missing {missing}"] if missing else []


def reports_equal(tree_csv, casi_csv):
    with open(tree_csv, encoding="utf-8") as a, open(casi_csv, encoding="utf-8") as b:
        if a.read() != b.read():
            return ["eval: --engine tree and --engine casi reports differ"]
    return []


def knn_output(stdout, n):
    if f"/{n})" not in stdout:
        return [f"knn: output {stdout.strip()!r} does not cover {n} cases"]
    return []


# --- Blocksworld ----------------------------------------------------------

def replay(initial, goal, plan):
    """Apply each STRIPS action to (support map, held block); check the goal."""
    support = {b: "table" for b in initial.on_table}
    support.update(initial.on)
    held = initial.holding
    for step in plan:
        name, *args = step.split()
        clear = set(support) - set(support.values())
        if name == "pick-up" and support.get(args[0]) == "table" \
                and args[0] in clear and held is None:
            held = args[0]
            del support[held]
        elif name == "unstack" and support.get(args[0]) == args[1] \
                and args[0] in clear and held is None:
            held = args[0]
            del support[held]
        elif name == "put-down" and held == args[0]:
            support[held], held = "table", None
        elif name == "stack" and held == args[0] and args[1] in clear:
            support[held], held = args[1], None
        else:
            return f"step {step!r} is not applicable"
    for atom in goal:
        want = atom[2] if atom[0] == "on" else "table"
        if support.get(atom[1]) != want:
            return f"goal atom {atom} does not hold"
    return None


def greedy_plans(runs):
    out = []
    for r in runs:
        fault = replay(r.initial, r.goal, r.plan)
        if fault:
            out.append(f"greedy plan for {r.problem}: {fault}")
            break
    return out


def _moves(state):
    support, held = dict(state[0]), state[1]
    clear = set(support) - set(support.values())
    if held is None:
        for x in clear:
            rest = {b: s for b, s in support.items() if b != x}
            yield (tuple(sorted(rest.items())), x)
    else:
        for y in list(clear) + ["table"]:
            yield (tuple(sorted({**support, held: y}.items())), None)


def shortest_plan(initial, goal) -> int:
    """Optimal plan length by breadth-first search over (support, held)."""
    support = {b: "table" for b in initial.on_table}
    support.update(initial.on)
    start = (tuple(sorted(support.items())), initial.holding)
    want = [(a[1], a[2] if a[0] == "on" else "table") for a in goal]

    def done(state):
        s = dict(state[0])
        return all(s.get(b) == t for b, t in want)

    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        state, depth = queue.popleft()
        if done(state):
            return depth
        for nxt in _moves(state):
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    return -1


def bfs_lengths(path, runs, oracle_cache):
    """Each BFS plan length equals an independent search on its problem."""
    got = corpus_columns(path)
    if len(got) != len(runs):
        return [f"bw-gen --method bfs: {len(got)} rows, want {len(runs)}"]
    out = []
    for (problem, steps, _), run in zip(got, runs):
        key = (problem, frozenset(run.initial.on.items()),
               run.initial.on_table, run.goal)
        if key not in oracle_cache:
            oracle_cache[key] = shortest_plan(run.initial, run.goal)
        if problem != run.problem or steps != oracle_cache[key]:
            out.append(f"bw-gen --method bfs: {problem} has {steps} steps, "
                       f"breadth-first search finds {oracle_cache[key]}")
            break
    return out


# --- plans ----------------------------------------------------------------

def plan_file(path, project_json, want_count):
    """Plans are distinct, valid orders of the project, and as many as due."""
    project = json.loads(project_json)
    pre = {t["id"]: [set(g) for g in t["pre"]] for t in project["tasks"]}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    plans = [tuple(line.split(": ", 1)[1].split("; ")) for line in lines]
    out = []
    if len(plans) != want_count:
        out.append(f"plans {path}: {len(plans)} plans, want {want_count}")
    if len(set(plans)) != len(plans):
        out.append(f"plans {path}: duplicate plans")
    for steps in plans:
        if steps[0] != project["entry"] or steps[-1] != project["exit"] \
                or len(set(steps)) != len(steps):
            out.append(f"plans {path}: {steps} is not an entry-to-exit order")
            break
        done = set()
        for t in steps:
            if t not in pre or (pre[t] and not any(g <= done for g in pre[t])):
                out.append(f"plans {path}: {t} runs before its predecessors")
                break
            done.add(t)
    return out
