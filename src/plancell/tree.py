"""Decision-tree induction over nominal attributes.

Two growth modes: ``gain_ratio`` (C4.5-style selection) and ``info_gain``
(plain information gain), the latter usually followed by reduced-error
pruning on a held-out third of the data. Node ids s0, s1, ... are given
breadth-first as the nodes are made, so the root is always s0; a graph
refuses other ids. Trees classify by walking splits; ``casi.compile_tree``
turns the same structure into a cellular rule base.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from math import log2

from .dataset import (NOMINAL, TrainingSet, case_values, distinct_rows,
                      shuffled_classes)
from .discretize import DiscretizationMap, Schema, entropy
from .errors import DataError, ModelIntegrityError, UnknownValueError

GAIN_RATIO = "gain_ratio"
INFO_GAIN = "info_gain"


def majority_label(counts: dict[str, int]) -> str:
    """Most frequent label; ties go to the lexicographically smallest."""
    best = max(counts.values())
    return min(label for label, n in counts.items() if n == best)


@dataclass
class TreeNode:
    """A split over one attribute, or a leaf carrying class counts."""

    node_id: str
    counts: dict[str, int]
    attribute: str | None = None
    children: dict[str, "TreeNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None

    @cached_property  # counts are never changed once a node is built
    def majority(self) -> str:
        return majority_label(self.counts)


def _breadth_first(root: TreeNode) -> list[TreeNode]:
    """The nodes under ``root`` breadth-first; DataError on meeting one twice."""
    order, seen = [root], set()
    for node in order:
        if id(node) in seen:
            raise DataError(f"node {node.node_id!r} has two parents or is on a cycle")
        seen.add(id(node))
        order.extend(node.children.values())
    return order


@dataclass(frozen=True)
class InductionGraph:
    """A grown tree plus the schema it was fit under.

    The graph holds the nodes it is given and changes none of them.
    DataError on an unknown mode, a node met twice, a node whose id is not
    its place s0, s1, ... in breadth-first order, counts that are not
    non-negative ints of schema classes, a split on no nominal attribute of
    the schema, without children or with a branch outside the domain, or a
    leaf with children. ``grow`` and ``rep_prune`` skip these checks through
    ``_unchecked_graph``.
    """

    root: TreeNode
    schema: Schema
    mode: str

    def __post_init__(self):
        if self.mode not in (GAIN_RATIO, INFO_GAIN):
            raise DataError(f"unknown growth mode {self.mode!r}")
        classes = set(self.schema.classes)
        domains = {s.name: set(s.domain) for s in self.schema.attributes
                   if s.kind == NOMINAL}
        for i, node in enumerate(_breadth_first(self.root)):
            nid, attr, counts, children = (node.node_id, node.attribute,
                                           node.counts, node.children)
            if nid != f"s{i}":
                raise DataError(f"node {nid!r} is node s{i} in breadth-first order")
            if not (counts and counts.keys() <= classes and all(
                    type(n) is int and n >= 0 for n in counts.values())):
                raise DataError(f"node {nid} counts are not non-negative "
                                f"integers over the schema's classes")
            if attr is None and children:
                raise DataError(f"leaf {nid} has children")
            if attr is not None and attr not in domains:
                raise DataError(f"node {nid} splits on {attr!r}, not a nominal attribute")
            if attr is not None and not children:
                raise DataError(f"split node {nid} has no children")
            for value in children:
                if value not in domains[attr]:
                    raise DataError(f"node {nid} branch {value!r} is not in "
                                    f"the domain of {attr!r}")

    def nodes(self) -> list[TreeNode]:
        """All nodes in breadth-first order (the id order)."""
        return _breadth_first(self.root)

    @property
    def node_count(self) -> int:
        return len(self.nodes())

    def depth(self) -> int:
        def walk(node):
            return max((1 + walk(c) for c in node.children.values()), default=0)
        return walk(self.root)


def _unchecked_graph(root: TreeNode, schema: Schema, mode: str) -> InductionGraph:
    """The graph of a tree ``grow`` or ``rep_prune`` made from a checked set,
    named breadth-first as it was made, without the constructor's checks."""
    graph = object.__new__(InductionGraph)
    # as the frozen constructor sets them: vars() would slow every later read
    for name, value in (("root", root), ("schema", schema), ("mode", mode)):
        object.__setattr__(graph, name, value)
    return graph


def _weighted_rows(ts: TrainingSet) -> tuple[dict, list, list]:
    """The set's distinct (values, label) rows in order of first appearance
    (``distinct_rows``), as codes by attribute name, their labels, and how
    many rows each one stands for."""
    firsts, weights, _ = distinct_rows(ts)
    return ({spec.name: codes[firsts].tolist()
             for spec, codes in zip(ts.attributes, ts.codes)},
            [ts.classes[c] for c in ts.label_codes[firsts].tolist()],
            weights.tolist())


def _partition(column: list, labels: list, weights: list, idx) -> dict:
    """The label counts of each part of the distinct rows ``idx`` by their
    code in ``column``, row ``i`` counting ``weights[i]`` times; codes, and
    labels within a part, in order of first appearance."""
    counts = defaultdict(dict)
    for i in idx:
        tally = counts[column[i]]
        label = labels[i]
        tally[label] = tally.get(label, 0) + weights[i]
    return counts


def _score(mode: str, parent: float, counts) -> tuple[float, list, list]:
    """Information gain of a split with per-value label ``counts`` at a
    node of entropy ``parent``, with each part's size and entropy.

    Under ``gain_ratio`` the gain is divided by the split's own entropy,
    and a single-valued split scores zero. One loop over the parts sums
    each one's size once and its entropy from the terms ``entropy`` sums,
    in its order, so every score is the one ``entropy`` gives.
    """
    sizes, entropies = [], []
    for tally in counts:
        m = sum(tally.values())
        sizes.append(m)
        entropies.append(-sum([c / m * log2(c / m) for c in tally.values()]))
    n = sum(sizes)
    gain = parent - sum([m / n * h for m, h in zip(sizes, entropies)])
    if mode == GAIN_RATIO:
        info = -sum([m / n * log2(m / n) for m in sizes])
        gain = gain / info if info else 0.0
    return gain, sizes, entropies


def _attribute_score(mode: str, ts: TrainingSet, attribute: str) -> float:
    parent = entropy(Counter(ts.labels))
    columns, labels, weights = _weighted_rows(ts)
    counts = _partition(columns[attribute], labels, weights,
                        range(len(weights)))
    return _score(mode, parent, counts.values())[0]


def information_gain(ts: TrainingSet, attribute: str) -> float:
    """Entropy reduction from partitioning by the attribute's values."""
    return _attribute_score(INFO_GAIN, ts, attribute)


def gain_ratio(ts: TrainingSet, attribute: str) -> float:
    """Information gain normalized by the split's own entropy.

    Zero when the attribute is single-valued (split info 0).
    """
    return _attribute_score(GAIN_RATIO, ts, attribute)


def grow(ts: TrainingSet, mode: str = GAIN_RATIO, min_leaf: int = 2,
         discretization: DiscretizationMap | None = None) -> InductionGraph:
    """Grow a tree by repeated best-attribute splits, breadth-first.

    A node becomes a leaf when it is pure, no attributes remain, the best
    split scores zero, or some branch of the best split would receive fewer
    than ``min_leaf`` instances. Score ties go to the attribute declared
    first. Branches exist only for values present at the node. The set must
    be binned by ``discretization``, the map its ``Schema`` keeps.

    Rows are counted, not visited: the set's distinct (values, label) rows
    are found once from its codes (``distinct_rows``), and each attribute
    sums a node's label counts per value code, each row counting its
    multiplicity; one with a single value scores 0.0 and is skipped. Only
    the winner's parts are listed as rows; they, its
    counts and part entropies become the children's rows, ``counts`` and
    node entropies. Nodes are made breadth-first, each named by its place
    as it is made. An unknown mode is refused before anything grows.
    """
    if mode not in (GAIN_RATIO, INFO_GAIN):
        raise DataError(f"unknown growth mode {mode!r}")
    if not len(ts):
        raise DataError("cannot grow a tree from an empty training set")
    for spec in ts.attributes:
        if spec.kind != NOMINAL:
            raise DataError(
                f"attribute {spec.name!r} is numeric; discretize before growing")
    if min_leaf < 1:
        raise DataError(f"min_leaf must be >= 1, got {min_leaf}")
    schema = Schema(ts.attributes, ts.classes, discretization)

    columns, labels, weights = _weighted_rows(ts)
    domains = {s.name: s.domain for s in ts.attributes}
    tally: dict[str, int] = {}
    for label, weight in zip(labels, weights):
        tally[label] = tally.get(label, 0) + weight
    root = TreeNode("s0", tally)
    made = count(1)
    queue = deque([(root, range(len(weights)), ts.attribute_names,
                    entropy(root.counts))])
    while queue:
        node, idx, attrs, parent = queue.popleft()
        if len(node.counts) == 1 or not attrs:
            continue
        best_score, best = 0.0, None
        for attr in attrs:
            counts = _partition(columns[attr], labels, weights, idx)
            if len(counts) < 2:  # gain 0.0: the part's entropy is the node's
                continue
            s, sizes, entropies = _score(mode, parent, counts.values())
            if s > best_score:
                best_score, best = s, (attr, counts, sizes, entropies)
        if best is None:
            continue
        best_attr, counts, sizes, entropies = best
        if min(sizes) < min_leaf:
            continue
        node.attribute = best_attr
        remaining = tuple(a for a in attrs if a != best_attr)
        column, rows = columns[best_attr], {code: [] for code in counts}
        for i in idx:
            rows[column[i]].append(i)
        part_entropy = dict(zip(counts, entropies))
        for code, value in enumerate(domains[best_attr]):
            if code not in rows:
                continue
            child = TreeNode(f"s{next(made)}", counts[code])
            node.children[value] = child
            queue.append((child, rows[code], remaining, part_entropy[code]))
    return _unchecked_graph(root, schema, mode)


def classify_tree(tree: InductionGraph, instance,
                  fallback: bool = False) -> tuple[str, tuple[str, ...]]:
    """Walk the splits; return (class, visited node ids).

    ``instance`` is a value sequence over the tree's schema, raw or
    encoded: each tested value that is not a string goes through the
    tree's map, if it has one, and is looked up once. A string (a bin label
    or a nominal value) is looked up as it is. A value without a branch, an
    unhashable one included, raises UnknownValueError naming the value as
    given, unless ``fallback`` routes it to the current node's majority
    class.
    """
    values = case_values(instance, len(tree.schema.attributes))
    dmap, index = tree.schema.discretization, tree.schema.index
    node = tree.root
    path = [node.node_id]
    attribute = node.attribute
    while attribute is not None:
        value = key = values[index[attribute]]
        # bin_label returns strings unchanged, so only other values need it
        if dmap is not None and not isinstance(value, str):
            key = dmap.bin_label(attribute, value)
        try:
            child = node.children.get(key)
        except TypeError:  # an unhashable value, which no branch carries
            child = None
        if child is None:
            if fallback:
                return node.majority, tuple(path)
            raise UnknownValueError(
                f"value {value!r} of attribute {attribute!r} "
                f"has no branch at node {node.node_id}")
        node = child
        path.append(node.node_id)
        attribute = node.attribute
    return node.majority, tuple(path)


def rep_prune(tree: InductionGraph, prune_set: TrainingSet) -> InductionGraph:
    """Reduced-error pruning: collapse subtrees that don't beat their leaf.

    One bottom-up pass partitions the prune instances at each node and
    counts the errors of the pruned subtree as it goes; an instance whose
    value has no branch counts as an error. A subtree is replaced by its
    (training-)majority leaf unless it makes strictly fewer errors on the
    prune instances that reach it; errors only grow, so a subtree collapses
    as soon as its summed errors reach its leaf's. Subtrees no prune
    instance reaches are kept as grown. Then the kept nodes are copied
    breadth-first, each copy named by its place as it is made, so the input
    is unchanged and shares no node with the result.
    """
    if prune_set.attribute_names != tuple(tree.schema.index):
        raise DataError("prune set schema does not match the tree schema")

    col = dict(zip(prune_set.attribute_names, prune_set.columns))
    labels = prune_set.labels
    collapsed: set[int] = set()

    def prune(node: TreeNode, idx: list[int]) -> int:
        """The errors of ``node``'s pruned subtree on the rows ``idx``,
        noting in ``collapsed`` each split it makes a leaf."""
        leaf_errors = len(idx) - [labels[i] for i in idx].count(node.majority)
        if node.is_leaf or not idx:
            return leaf_errors
        parts: dict = {}
        column = col[node.attribute]
        for i in idx:
            parts.setdefault(column[i], []).append(i)
        errors = sum(len(rows) for value, rows in parts.items()
                     if value not in node.children)
        for value, child in node.children.items():
            if errors >= leaf_errors:
                break
            if value in parts:
                errors += prune(child, parts[value])
        if errors >= leaf_errors:
            collapsed.add(id(node))
            return leaf_errors
        return errors

    prune(tree.root, list(range(len(prune_set))))
    kept = [(tree.root, TreeNode("s0", dict(tree.root.counts)))]
    for node, twin in kept:
        if node.is_leaf or id(node) in collapsed:
            continue
        twin.attribute = node.attribute
        for value, child in node.children.items():
            twin.children[value] = TreeNode(f"s{len(kept)}", dict(child.counts))
            kept.append((child, twin.children[value]))
    return _unchecked_graph(kept[0][1], tree.schema, tree.mode)


J48 = "j48"
REPTREE = "reptree"


def _stratified_thirds(ts: TrainingSet, seed: int) -> tuple[list[int], list[int]]:
    """Per-class seeded shuffle; every third instance goes to the prune side."""
    grow_idx: list[int] = []
    prune_idx: list[int] = []
    for members in shuffled_classes(ts, seed):
        take = len(members) // 3
        prune_idx.extend(members[:take])
        grow_idx.extend(members[take:])
    return sorted(grow_idx), sorted(prune_idx)


def induce(ts: TrainingSet, method: str = J48, min_leaf: int = 2,
           seed: int = 0, discretization: DiscretizationMap | None = None,
           split: tuple[list[int], list[int]] | None = None) -> InductionGraph:
    """Train with a named method: gain-ratio growth, or info-gain plus REP.

    ``reptree`` holds out a stratified third of the data (seeded) for
    reduced-error pruning and grows on the rest, or takes that ``split``
    (``_stratified_thirds(ts, seed)``) from a caller that already made it.
    """
    if method == J48:
        return grow(ts, GAIN_RATIO, min_leaf, discretization)
    if method == REPTREE:
        grow_idx, prune_idx = split or _stratified_thirds(ts, seed)
        # take keeps the full schema: branch order follows fit-time domains
        graph = grow(ts.take(grow_idx), INFO_GAIN, min_leaf, discretization)
        if prune_idx:
            graph = rep_prune(graph, ts.take(prune_idx))
        return graph
    raise DataError(f"unknown induction method {method!r}")


def model_to_json(tree: InductionGraph) -> dict:
    """JSON-ready model: schema, discretization cuts, and the node table."""
    nodes = []
    for node in tree.nodes():
        entry: dict = {"id": node.node_id, "counts": dict(node.counts)}
        if node.is_leaf:
            entry["leaf_class"] = node.majority
        else:
            entry["split"] = node.attribute
            entry["children"] = {v: c.node_id for v, c in node.children.items()}
        nodes.append(entry)
    return {"format": "induction-graph", "mode": tree.mode,
            **tree.schema.to_json(),
            "nodes": nodes}


def model_from_json(data: dict) -> InductionGraph:
    """Rebuild a tree from its JSON form: parse the node table, link it, and
    check what only the file holds (repeated or unknown ids, nodes the root,
    the first node, does not reach, leaf classes that disagree with their
    counts). The graph checks the rest, ids among it, once the first node is
    known to reach every node; every fault is a ModelIntegrityError."""
    if not isinstance(data, dict) or data.get("format") != "induction-graph":
        raise ModelIntegrityError("not an induction-graph model file")
    schema = Schema.from_json(data)
    try:
        raw_nodes = data["nodes"]
        if not raw_nodes:
            raise ModelIntegrityError("model has no nodes")
        nodes: dict[str, TreeNode] = {}
        for entry in raw_nodes:
            nid = entry["id"]
            if nid in nodes:
                raise ModelIntegrityError(f"duplicate node id {nid!r}")
            nodes[nid] = TreeNode(nid, entry["counts"], entry.get("split"))
        for entry, node in zip(raw_nodes, nodes.values()):
            for value, child_id in entry.get("children", {}).items():
                if child_id not in nodes:
                    raise ModelIntegrityError(f"unknown child node {child_id!r}")
                node.children[value] = nodes[child_id]
        root = nodes[raw_nodes[0]["id"]]
        if len(_breadth_first(root)) != len(nodes):
            raise ModelIntegrityError(
                "model contains nodes unreachable from the first node, the root")
        graph = InductionGraph(root, schema, data["mode"])
    except DataError as exc:
        raise ModelIntegrityError(str(exc)) from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelIntegrityError(f"malformed model file: {exc}") from exc
    for (nid, node), entry in zip(nodes.items(), raw_nodes):
        if "leaf_class" in entry and entry["leaf_class"] != node.majority:
            raise ModelIntegrityError(f"leaf {nid} class {entry['leaf_class']!r} "
                                      f"disagrees with its counts")
    return graph
