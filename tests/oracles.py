"""Independent reference implementations used to check the fast paths.

Everything here is deliberately brute-force and written without reusing the
package's own search/ordering code, so agreement is meaningful.
"""

import math
import random
import sys
from collections import Counter, deque
from dataclasses import replace
from itertools import combinations, product

import numpy as np

from plancell.blocksworld import Action, UnsolvableGoalError, apply
from plancell.casi import NEVER, Configuration, classify_casi, compile_tree
from plancell.dataset import Instance, case_values, subset
from plancell.discretize import Schema, apply_map, fit_map
from plancell.errors import (DataError, LimitError, ModelIntegrityError,
                             UnknownValueError)
from plancell.evaluation import EvalReport
from plancell.knn import classify_knn, fit_knn
from plancell.tree import (InductionGraph, TreeNode, classify_tree, induce,
                           majority_label)


def _closure(chosen, exit_id):
    seen = set()
    frontier = {exit_id}
    while frontier:
        t = frontier.pop()
        seen.add(t)
        frontier |= set(chosen[t]) - seen
    return seen


def _executable(chosen):
    done = set()
    pending = dict(chosen)
    while pending:
        ready = [t for t, group in pending.items() if set(group) <= done]
        if not ready:
            return False
        for t in ready:
            done.add(t)
            del pending[t]
    return True


def _waves(chosen):
    wave = {}
    pending = dict(chosen)
    while pending:
        for t, group in sorted(pending.items()):
            if all(p in wave for p in group):
                wave[t] = 1 + max((wave[p] for p in group), default=-1)
                del pending[t]
                break
        else:
            raise AssertionError("cyclic choice reached the oracle")
    return wave


def brute_force_plans(graph):
    """Every distinct plan sequence, by subset enumeration over all tasks.

    A task subset counts when some per-task choice of precondition groups
    (each group inside the subset) closes back from the exit to exactly the
    subset and can be executed bottom-up.
    """
    others = sorted(t for t in graph.tasks if t != graph.exit)
    sequences = set()
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            s = set(combo) | {graph.exit}
            per_task = []
            feasible = True
            for t in sorted(s):
                pre = graph.tasks[t].preconditions
                groups = [g for g in pre if set(g) <= s]
                if pre and not groups:
                    feasible = False
                    break
                per_task.append(groups or [frozenset()])
            if not feasible:
                continue
            for pick in product(*per_task):
                chosen = dict(zip(sorted(s), pick))
                if _closure(chosen, graph.exit) != s:
                    continue
                if not _executable(chosen):
                    continue
                wave = _waves(chosen)
                sequences.add(tuple(sorted(s, key=lambda t: (wave[t], t))))
    return sequences


def dfs_find_cycle(tasks):
    """Colour DFS over the union precedence relation of a mapping from
    task id to Task; one cycle message or none."""

    def predecessors(tid):
        return {ref for group in tasks[tid].preconditions for ref in group}

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {tid: WHITE for tid in tasks}

    for start in tasks:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(predecessors(start))))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for pred in it:
                if pred not in tasks:
                    continue
                if color[pred] == GRAY:
                    cycle = path[path.index(pred):] + [pred]
                    return [f"task {pred!r} is reachable from itself: "
                            + " <- ".join(cycle)]
                if color[pred] == WHITE:
                    color[pred] = GRAY
                    path.append(pred)
                    stack.append((pred, iter(sorted(predecessors(pred)))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return []


def wave_linearize(chosen):
    """Readiness waves by repeated scans, then id; DataError if a task never
    becomes ready (a cycle, or a group member missing from ``chosen``)."""
    wave = {}
    remaining = set(chosen)
    while remaining:
        progressed = False
        for t in list(remaining):
            group = chosen[t]
            if all(p in wave for p in group):
                wave[t] = max((wave[p] + 1 for p in group), default=0)
                remaining.discard(t)
                progressed = True
        if not progressed:
            raise DataError("solution contains a precedence cycle")
    return tuple(sorted(chosen, key=lambda t: (wave[t], t)))


def reference_solutions(graph):
    """The earlier ``plans._solutions``, kept verbatim as the reference
    yield order: every partial solution goes through the stack, and each
    complete one linearizes by memoized recursion."""
    stack = [({}, frozenset({graph.exit}))]
    while stack:
        chosen, pending = stack.pop()
        if not pending:
            yield _recursive_linearize(chosen)
            continue
        task_id = min(pending)
        task = graph.tasks[task_id]
        # pushed last to first, so the first group is popped first
        for group in reversed(task.preconditions or (frozenset(),)):
            now = {**chosen, task_id: group}
            stack.append((now, pending - {task_id} | (group - now.keys())))


def _recursive_linearize(chosen):
    wave = {}

    def place(task):
        if task not in wave:
            level = 0
            for pred in chosen[task]:  # a plain loop: one frame per chain link
                level = max(level, place(pred) + 1)
            wave[task] = level
        return wave[task]

    try:
        return tuple(sorted(chosen, key=lambda t: (place(t), t)))
    except RecursionError:
        raise LimitError(f"a precedence chain is deeper than the recursion "
                         f"limit ({sys.getrecursionlimit()})") from None


def reference_truncation(graph, max_plans):
    """The first ``max_plans`` distinct sequences in sorted order, and
    whether more exist, read off the reference yield order the way
    ``enumerate_plans`` stops its search."""
    sequences = set()
    for steps in reference_solutions(graph):
        sequences.add(steps)
        if len(sequences) > max_plans:
            return sorted(sequences)[:max_plans], True
    return sorted(sequences), False


def blocks_successors(state):
    """Applicable actions: clear blocks by name, ``put-down`` before any ``stack``."""
    clear = sorted(state.clear)
    if state.arm_empty:
        for x in clear:
            if x in state.on_table:
                yield Action("pick-up", (x,))
            else:
                yield Action("unstack", (x, state.on[x]))
    else:
        x = state.holding
        yield Action("put-down", (x,))
        for y in clear:
            yield Action("stack", (x, y))


def satisfies(state, goal):
    """Every ("on", x, y) and ("on-table", x) atom of the goal holds."""
    on, on_table = state.on, state.on_table
    return all(on.get(atom[1]) == atom[2] if atom[0] == "on"
               else atom[1] in on_table for atom in goal)


def support_cycle(support):
    """Whether block -> support links ever return to a block, by depth-first
    search with a set of finished blocks; an entry that is no block index
    (table, arm, free) ends a chain."""
    blocks = range(len(support))
    finished = set()
    for start in blocks:
        path, b = set(), start
        while b in blocks and b not in finished:
            if b in path:
                return True
            path.add(b)
            b = support[b]
        finished |= path
    return False


def bfs_plan(initial, goal, budget):
    """The first shortest plan (action strings) by BFS over BlockState objects.

    Same successor order, goal test and budget count as ``solve``'s BFS.
    """
    if satisfies(initial, goal):
        return ()
    frontier = [(initial, ())]
    seen = {initial}
    expanded = 0
    while frontier:
        next_frontier = []
        for state, path in frontier:
            expanded += 1
            if expanded > budget:
                raise LimitError(f"search budget of {budget} states exhausted")
            for action in blocks_successors(state):
                succ = apply(state, action)
                if succ in seen:
                    continue
                seen.add(succ)
                new_path = path + (str(action),)
                if satisfies(succ, goal):
                    return new_path
                next_frontier.append((succ, new_path))
        frontier = next_frontier
    raise UnsolvableGoalError("goal unreachable from the initial state")


def greedy_plan(initial, goal):
    """Two phases: clear misplaced blocks to the table, then build towers.

    The greedy solver as it was written over BlockState objects and
    ``apply``; returns the list of Actions ``solve(..., method="greedy")``
    must turn into its plan.
    """
    want_on = {a[1]: a[2] for a in goal if a[0] == "on"}
    want_table = {a[1] for a in goal if a[0] == "on-table"}

    actions: list[Action] = []
    state = initial

    def do(action: Action):
        nonlocal state
        state = apply(state, action)
        actions.append(action)

    def placed(b: str) -> bool:
        """Block b is in its final position (support chain included)."""
        if b in want_on:
            under = state.on.get(b)
            return under == want_on[b] and placed(under)
        if b in want_table:
            return b in state.on_table
        # unconstrained: stable unless resting on something unplaced
        under = state.on.get(b)
        return under is None or placed(under)

    if state.holding:
        do(Action("put-down", (state.holding,)))

    # phase 1: tear down everything not already in final position
    moved = True
    while moved:
        moved = False
        for x in sorted(state.clear):
            if x in state.on and not placed(x):
                do(Action("unstack", (x, state.on[x])))
                do(Action("put-down", (x,)))
                moved = True

    # phase 2: build goal towers bottom-up
    progress = True
    while progress:
        progress = False
        for x in sorted(want_on):
            y = want_on[x]
            if placed(x) or x not in state.clear or y not in state.clear:
                continue
            if not placed(y):
                continue
            do(Action("pick-up", (x,)) if x in state.on_table
               else Action("unstack", (x, state.on[x])))
            do(Action("stack", (x, y)))
            progress = True

    if not satisfies(state, goal):
        raise UnsolvableGoalError("greedy construction failed to reach the goal")
    return actions


def bfs_blocks(initial, goal, apply_fn, successors_fn, satisfies_fn):
    """Shortest plan length by plain breadth-first search, or None."""
    if satisfies_fn(initial, goal):
        return 0
    frontier = [initial]
    seen = {initial}
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for action in successors_fn(state):
                succ = apply_fn(state, action)
                if succ in seen:
                    continue
                if satisfies_fn(succ, goal):
                    return depth
                seen.add(succ)
                nxt.append(succ)
        frontier = nxt
    return None


def _entropy(counts):
    n = sum(counts.values())
    return -sum(c / n * math.log2(c / n) for c in counts.values() if c)


def _boundary_candidates(pairs):
    groups = []
    for value, label in pairs:
        if groups and groups[-1][0] == value:
            groups[-1][1].add(label)
        else:
            groups.append((value, {label}))
    return [_midpoint(v1, v2) for (v1, c1), (v2, c2) in zip(groups, groups[1:])
            if c1 != c2]


def _midpoint(v1, v2):
    """The plain midpoint, or half of each value where that overflows."""
    try:
        cut = (v1 + v2) / 2.0
    except OverflowError:
        return v1 / 2 + v2 / 2
    return v1 / 2 + v2 / 2 if math.isinf(cut) else cut


def _mdl_split(pairs, found):
    candidates = _boundary_candidates(pairs)
    if not candidates:
        return
    total = Counter(label for _, label in pairs)
    n = len(pairs)
    parent = _entropy(total)
    best = None
    for cut in candidates:
        left = Counter(label for value, label in pairs if value <= cut)
        right = total - left
        nl = sum(left.values())
        weighted = nl / n * _entropy(left) + (n - nl) / n * _entropy(right)
        if best is None or weighted < best[0]:
            best = (weighted, cut, left, right)
    weighted, cut, left, right = best
    gain = parent - weighted
    k, k1, k2 = len(total), len(left), len(right)
    delta = math.log2(3**k - 2) - (k * parent - k1 * _entropy(left)
                                   - k2 * _entropy(right))
    if gain <= (math.log2(n - 1) + delta) / n:
        return
    found.append(cut)
    _mdl_split([p for p in pairs if p[0] <= cut], found)
    _mdl_split([p for p in pairs if p[0] > cut], found)


def mdl_cuts(values, labels):
    """Fayyad-Irani cuts by scoring every boundary with fresh class counts.

    The quadratic reference for ``discretize_supervised``: one attribute's
    sorted cut points.
    """
    found = []
    _mdl_split(sorted(zip(values, labels)), found)
    return tuple(sorted(found))


def scaled_difference(x, y, lo, hi):
    """|x - y| over the range hi - lo, 0.0 for a zero range.

    Where the range or the difference would leave the float range, both
    are taken between halves of the values: the quotient is the same, and
    every finite difference over a finite range keeps its bits.
    """
    x, y, lo, hi = float(x), float(y), float(lo), float(hi)
    span = hi - lo
    if span == 0:
        return 0.0
    if math.isinf(span) or math.isinf(x - y):
        return abs(x / 2 - y / 2) / (hi / 2 - lo / 2)
    return abs(x - y) / span


def knn_distance(a, b, model):
    """Range-normalized Euclidean distance between two instances.

    The scalar reference for ``knn._distances``, which computes the same
    sums for every training row at once.
    """
    specs = model.training.attributes
    va, vb = case_values(a, len(specs)), case_values(b, len(specs))
    total = 0.0
    for spec, x, y in zip(specs, va, vb):
        if spec.kind == "numeric":
            d = scaled_difference(x, y, *spec.domain)
        else:
            d = 0.0 if x == y else 1.0
        total += d * d
    return math.sqrt(total)


def knn_label(ts, k, query):
    """k-NN vote by one scalar distance per training row.

    Numeric differences are divided by the training range (a zero range
    contributes nothing), nominal ones count 0 or 1; equal distances keep
    training order, vote ties go to the label with the nearest member and
    then lexicographically.
    """
    if len(query) != len(ts.attributes):
        raise ValueError("query width does not match the schema")

    def dist(values):
        total = 0.0
        for spec, x, y in zip(ts.attributes, query, values):
            if spec.kind == "numeric":
                d = scaled_difference(x, y, *spec.domain)
            else:
                d = 0.0 if x == y else 1.0
            total += d * d
        return math.sqrt(total)

    dists = [dist(inst.values) for inst in ts.instances]
    order = sorted(range(len(dists)), key=lambda i: dists[i])[:k]
    votes = Counter(ts.instances[i].label for i in order)
    top = max(votes.values())
    tied = [label for label, n in votes.items() if n == top]
    nearest = {label: min(dists[i] for i in order
                          if ts.instances[i].label == label) for label in tied}
    return min(tied, key=lambda label: (nearest[label], label))


def _shuffled_classes(ts, rng):
    """Each class's members, found by one scan per class, then shuffled."""
    for label in ts.classes:
        members = [i for i, inst in enumerate(ts.instances) if inst.label == label]
        rng.shuffle(members)
        yield members


def fold_assignment(ts, folds, seed):
    """Stratified shuffle-then-deal fold of every instance, per-class scans."""
    assignment = [0] * len(ts.instances)
    pointer = 0
    for members in _shuffled_classes(ts, random.Random(seed)):
        for m in members:
            assignment[m] = pointer % folds
            pointer += 1
    return tuple(assignment)


def cv_case_by_case(ts, method, mode, seed=0, folds=10, k=1, bins=10,
                    min_leaf=2, engine="tree", global_discretize=False):
    """``cross_validate``'s report by one classification per raw test case.

    Folds come from ``fold_assignment``. Each fold's model is fit as the
    package fits it, then every held-out case, repeats included, is
    classified on its own from its raw values; kNN encodes each one first.
    """
    assignment = fold_assignment(ts, folds, seed)
    global_map = fit_map(ts, mode, bins) if global_discretize else None
    correct = errors = 0
    per_fold, confusion = [], Counter()
    for fold in range(folds):
        train = subset(ts, [i for i, f in enumerate(assignment) if f != fold])
        dmap = global_map if global_discretize else fit_map(train, mode, bins)
        fitted = apply_map(dmap, train)
        if method == "majority":
            label = majority_label(Counter(fitted.labels))
            classify = lambda values: label
        elif method == "knn":
            model = fit_knn(fitted, k)
            classify = lambda values: classify_knn(
                model, encode(dmap, fitted.attributes, values))
        elif engine == "casi":
            kb = compile_tree(induce(fitted, method, min_leaf=min_leaf,
                                     seed=seed, discretization=dmap))
            classify = lambda values: classify_casi(kb, values)
        else:
            graph = induce(fitted, method, min_leaf=min_leaf, seed=seed,
                           discretization=dmap)
            classify = lambda values: classify_tree(graph, values)[0]
        test = [inst for inst, f in zip(ts.instances, assignment) if f == fold]
        hits = 0
        for inst in test:
            try:
                predicted = classify(inst.values)
            except UnknownValueError:
                errors += 1
                predicted = "?"
            else:
                hits += predicted == inst.label
            confusion[inst.label, predicted] += 1
        correct += hits
        per_fold.append(100.0 * hits / len(test))
    return EvalReport(method, mode, seed, folds, len(ts), correct,
                      len(ts) - correct - errors, errors, tuple(per_fold),
                      tuple(sorted((a, p, n) for (a, p), n in confusion.items())))


def stratified_thirds(ts, seed):
    """Grow and prune indices: the first third of each shuffled class prunes."""
    grow, prune = [], []
    for members in _shuffled_classes(ts, random.Random(seed)):
        take = len(members) // 3
        prune += members[:take]
        grow += members[take:]
    return sorted(grow), sorted(prune)


# The cellular engine as first written: dense facts x rules passes, a fresh
# configuration per pass, every register compared at each generation.

REGISTERS = ("EF", "IF", "SF", "ER", "IR", "SR")


def casi_eligible(kb, ef):
    """Rules none of whose premise cells is unestablished (column-subset test)."""
    missing = kb.premise_matrix & ~ef[:, np.newaxis]
    return ~missing.any(axis=0)


def casi_initial(kb, initial_facts=()):
    ef = np.zeros(kb.fact_count, dtype=bool)
    for descriptor in initial_facts:
        try:
            ef[kb.facts.index(descriptor)] = True
        except ValueError:
            raise UnknownValueError(f"unknown fact {descriptor!r}") from None
    return Configuration(
        EF=ef,
        IF=kb.input_flags.copy(),
        SF=np.zeros(kb.fact_count, dtype=bool),
        ER=np.zeros(kb.rule_count, dtype=bool),
        IR=np.ones(kb.rule_count, dtype=bool),
        SR=np.zeros(kb.rule_count, dtype=bool),
    )


def casi_delta_fact(kb, config):
    return replace(config, SF=config.EF.copy(),
                   ER=config.ER | casi_eligible(kb, config.EF))


def casi_delta_rule(kb, config):
    return replace(config, EF=config.EF | (kb.conclusion_matrix @ config.ER),
                   SR=~config.ER)


def casi_step(kb, config):
    after = casi_delta_rule(kb, casi_delta_fact(kb, config))
    return replace(after, generation=config.generation + 1)


def same_registers(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in REGISTERS)


def casi_infer(kb, initial_facts):
    """Every configuration up to the first that reproduces itself."""
    trace = [casi_initial(kb, initial_facts)]
    for _ in range(kb.rule_count + 2):
        succ = casi_step(kb, trace[-1])
        if same_registers(succ, trace[-1]):
            return trace
        trace.append(succ)
    raise ModelIntegrityError(
        f"inference did not stabilize within {kb.rule_count + 2} generations")


def casi_generations(trace):
    """Per fact and per rule, the first generation of the trace that sets
    its EF or ER cell; ``NEVER`` where none does."""
    def first(register, count):
        return tuple(next((c.generation for c in trace if getattr(c, register)[i]),
                          NEVER) for i in range(count))
    return first("EF", len(trace[0].EF)), first("ER", len(trace[0].ER))


def encode(dmap, attributes, values):
    """A raw case as model values, one ``bin_label`` per attribute spec; a
    model without a map (None) encodes nothing."""
    if dmap is None:
        return tuple(values)
    return tuple(dmap.bin_label(spec.name, v)
                 for spec, v in zip(attributes, values))


def tree_walk(tree, values, fallback=False):
    """The tree walk as first written: ask ``is_leaf`` at every level and
    put every tested value through the map's ``bin_label``."""
    attributes = tree.schema.attributes
    values = case_values(values, len(attributes))
    names = [spec.name for spec in attributes]
    dmap = tree.schema.discretization
    node, path = tree.root, [tree.root.node_id]
    while not node.is_leaf:
        value = values[names.index(node.attribute)]
        key = value if dmap is None else dmap.bin_label(node.attribute, value)
        try:
            child = node.children.get(key)
        except TypeError:
            child = None
        if child is None:
            if fallback:
                return node.majority, tuple(path)
            raise UnknownValueError(
                f"value {value!r} of attribute {node.attribute!r} "
                f"has no branch at node {node.node_id}")
        node = child
        path.append(node.node_id)
    return node.majority, tuple(path)


def casi_instance_facts(kb, instance):
    """A case's input descriptors as first written: encode the whole case,
    spell every string value ``name=value`` and keep the spellings that
    are facts of the base."""
    attributes = kb.schema.attributes
    values = case_values(instance, len(attributes))
    descriptors = (f"{spec.name}={value}" for spec, value in zip(
        attributes, encode(kb.schema.discretization, attributes, values))
        if isinstance(value, str))
    return [d for d in descriptors if d in kb.facts]


def casi_label(kb, instance):
    """Seed the root and the case's known descriptors, read the class fact."""
    values = instance.values if isinstance(instance, Instance) else tuple(instance)
    attributes = kb.schema.attributes
    if len(values) != len(attributes):
        raise DataError(
            f"instance has {len(values)} values, schema has {len(attributes)}")
    known = set(kb.facts)
    descriptors = [f"{spec.name}={value}" for spec, value in zip(
        attributes, encode(kb.schema.discretization, attributes, values))]
    seeds = [kb.facts[0]] + [d for d in descriptors if d in known]
    final = casi_infer(kb, seeds)[-1]
    hits = [f for i, f in enumerate(kb.facts)
            if f.startswith("class=") and final.EF[i]]
    if not hits:
        raise UnknownValueError(
            "no class fact established; instance values leave the known paths")
    if len(hits) > 1:
        raise ModelIntegrityError(
            f"multiple class facts established: {', '.join(hits)}")
    return hits[0].removeprefix("class=")


# Reduced-error pruning as first written: prune bottom-up, then walk every
# prune row down the pruned subtree again to count its errors, and give the
# pruned tree fresh breadth-first ids in a second copy.

def _copy_leaf(node):
    return TreeNode(node.node_id, dict(node.counts))


def _renumber(root):
    serial = iter(range(10 ** 9))
    new_root = TreeNode(f"s{next(serial)}", dict(root.counts), root.attribute)
    queue = deque([(root, new_root)])
    while queue:
        old, new = queue.popleft()
        for value, child in old.children.items():
            twin = TreeNode(f"s{next(serial)}", dict(child.counts), child.attribute)
            new.children[value] = twin
            queue.append((child, twin))
    return new_root


def rep_prune(tree, prune_set):
    """Collapse every reached subtree that does not beat its majority leaf."""
    col = dict(zip(prune_set.attribute_names, prune_set.columns))
    labels = [inst.label for inst in prune_set.instances]

    def errors(node, idx):
        if node.is_leaf:
            return sum(1 for i in idx if labels[i] != node.majority)
        wrong = 0
        for i in idx:
            child = node.children.get(col[node.attribute][i])
            if child is None:
                wrong += 1
            else:
                wrong += errors(child, [i])
        return wrong

    def prune(node, idx):
        if node.is_leaf:
            return _copy_leaf(node)
        pruned = TreeNode(node.node_id, dict(node.counts), node.attribute)
        for value, child in node.children.items():
            sub = [i for i in idx if col[node.attribute][i] == value]
            pruned.children[value] = prune(child, sub)
        if not idx:
            return pruned
        leaf_errors = sum(1 for i in idx if labels[i] != node.majority)
        if leaf_errors <= errors(pruned, idx):
            return _copy_leaf(node)
        return pruned

    return replace(tree, root=_renumber(
        prune(tree.root, list(range(len(prune_set.instances))))))


# Growth as first written: every attribute counts the node's labels again,
# and the winning attribute's rows are partitioned and counted once more.

def _split_score(mode, values, labels):
    groups = {}
    for v, y in zip(values, labels):
        groups.setdefault(v, []).append(y)
    n = len(labels)
    gain = _entropy(Counter(labels)) - sum(
        len(g) / n * _entropy(Counter(g)) for g in groups.values())
    if mode == "info_gain":
        return gain
    info = _entropy({v: len(g) for v, g in groups.items()})
    return gain / info if info else 0.0


def grow_tree(ts, mode, min_leaf):
    """Breadth-first best-attribute growth, scoring each attribute from
    fresh label lists; first strict maximum wins, as in ``tree.grow``."""
    columns = dict(zip(ts.attribute_names, ts.columns))
    labels = [inst.label for inst in ts.instances]

    def new_node(idx):
        return TreeNode("", dict(Counter(labels[i] for i in idx)))

    all_idx = list(range(len(ts.instances)))
    root = new_node(all_idx)
    queue = deque([(root, all_idx, tuple(ts.attribute_names))])
    while queue:
        node, idx, attrs = queue.popleft()
        if len(node.counts) == 1 or not attrs:
            continue
        best_attr, best_score = None, 0.0
        labs = [labels[i] for i in idx]
        for attr in attrs:
            score = _split_score(mode, [columns[attr][i] for i in idx], labs)
            if score > best_score:
                best_attr, best_score = attr, score
        if best_attr is None:
            continue
        parts = {}
        for i in idx:
            parts.setdefault(columns[best_attr][i], []).append(i)
        if min(len(p) for p in parts.values()) < min_leaf:
            continue
        node.attribute = best_attr
        remaining = tuple(a for a in attrs if a != best_attr)
        for value in ts.attributes[ts.attribute_names.index(best_attr)].domain:
            if value in parts:
                child = new_node(parts[value])
                node.children[value] = child
                queue.append((child, parts[value], remaining))
    return InductionGraph(_renumber(root), Schema(ts.attributes, ts.classes), mode)
