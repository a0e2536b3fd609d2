"""Boolean cellular inference engine compiled from an induction graph.

The tree's rules become two cell layers: one per fact (tree nodes,
attribute=value tests, class assignments) and one per rule, wired by a
premise matrix and a conclusion matrix. Classification seeds the root and
the instance's attribute-value facts and runs the automaton to its first
fixed point. A compiled base is a monotone Horn program, so the engine
finds it by counter propagation (Dowling & Gallier 1984): each rule counts
its unmet premises, each newly established fact decrements the counters of
the rules that read it, and a rule fires at zero. Each wave of firings is
one generation, so two vectors hold the whole run: the generation that
established each fact (seeds at 0) and the one in which each rule became
eligible. The registers of generation g are views of them: EF = facts <= g,
SF = EF of g - 1, ER = rules <= g and SR = not ER (clear at 0).
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import AttributeSpec, Instance
from .discretize import DiscretizationMap, encode, schema_to_json, schema_from_json
from .errors import DataError, ModelIntegrityError, UnknownValueError
from .tree import CLASS_ATTRIBUTE, ClassificationRule, InductionGraph, extract_rules

CLASS_PREFIX = CLASS_ATTRIBUTE + "="
NEVER = sys.maxsize  # the generation of a cell that is never set


def _freeze(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Configuration:
    """One automaton state: three fact registers and three rule registers.

    EF marks established facts, IF is the fixed input-fact marker, SF echoes
    the previous EF. ER marks eligible rules, IR the (constant) active-rule
    mask, SR the complement of ER after each execution pass. Traces build
    configurations from their generation vectors, with read-only registers.
    """

    EF: np.ndarray
    IF: np.ndarray
    SF: np.ndarray
    ER: np.ndarray
    IR: np.ndarray
    SR: np.ndarray
    generation: int = 0


@dataclass(frozen=True)
class CellularKnowledgeBase:
    """Immutable compiled rule base: fact layer, rule layer, wiring.

    The engine reads the wiring as per-fact and per-rule index lists, built
    on the first classification and cached; the matrices are read-only so
    the cache cannot go stale.
    """

    facts: tuple[str, ...]
    input_flags: np.ndarray            # the fixed IF vector
    rules: tuple[ClassificationRule, ...]
    premise_matrix: np.ndarray         # facts x rules; 1 = fact in premise
    conclusion_matrix: np.ndarray      # facts x rules; 1 = fact in conclusion
    attributes: tuple[AttributeSpec, ...]
    classes: tuple[str, ...]
    discretization: DiscretizationMap | None = None

    @property
    def fact_count(self) -> int:
        return len(self.facts)

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    @cached_property
    def _fact_indices(self) -> dict[str, int]:
        return {f: i for i, f in enumerate(self.facts)}

    @cached_property
    def _class_facts(self) -> list[int]:
        return [i for i, f in enumerate(self.facts) if f.startswith(CLASS_PREFIX)]

    @cached_property
    def _counters(self) -> tuple[list, list, list, list]:
        """Per fact the rules reading it; per rule its premise count and its
        conclusion facts; and the rules without premises."""
        readers = [np.flatnonzero(row).tolist() for row in self.premise_matrix]
        counts = self.premise_matrix.sum(axis=0).tolist()
        concludes = [np.flatnonzero(column).tolist()
                     for column in self.conclusion_matrix.T]
        return readers, counts, concludes, [r for r, n in enumerate(counts) if not n]

    def fact_index(self, descriptor: str) -> int:
        try:
            return self._fact_indices[descriptor]
        except KeyError:
            raise UnknownValueError(f"unknown fact {descriptor!r}") from None

    def initial_configuration(self, initial_facts=()) -> Configuration:
        """All registers clear except IF, IR, and the seeded EF cells."""
        return infer(self, initial_facts)[0]


def _wire(facts, rules) -> tuple[np.ndarray, np.ndarray]:
    """Read-only premise and conclusion matrices, facts x rules."""
    index = {f: i for i, f in enumerate(facts)}
    premise = np.zeros((len(facts), len(rules)), dtype=bool)
    conclusion = np.zeros_like(premise)
    for j, rule in enumerate(rules):
        for p in rule.premises:
            if p not in index:
                raise ModelIntegrityError(f"rule premise {p!r} is not a fact")
            premise[index[p], j] = True
        if rule.conclusion not in index:
            raise ModelIntegrityError(
                f"rule conclusion {rule.conclusion!r} is not a fact")
        conclusion[index[rule.conclusion], j] = True
    _freeze(premise, conclusion)
    return premise, conclusion


def compile_tree(tree: InductionGraph) -> CellularKnowledgeBase:
    """Flatten a tree into fact/rule layers with incidence matrices.

    Fact order: node facts breadth-first, then attribute=value facts in
    schema order restricted to values actually tested on some edge, then
    class facts in label order restricted to leaf classes. Input flag is 1
    exactly for the facts containing '=' (the non-node facts).
    """
    nodes = tree.nodes()
    facts: list[str] = [n.node_id for n in nodes]

    edge_values: dict[str, set] = {}
    leaf_classes: set[str] = set()
    for node in nodes:
        if node.is_leaf:
            leaf_classes.add(node.majority)
        else:
            edge_values.setdefault(node.attribute, set()).update(node.children)
    for spec in tree.attributes:
        for value in spec.domain if spec.name in edge_values else ():
            if value in edge_values[spec.name]:
                facts.append(f"{spec.name}={value}")
    facts += [CLASS_PREFIX + c for c in tree.classes if c in leaf_classes]

    rules = tuple(extract_rules(tree))
    premise, conclusion = _wire(facts, rules)
    input_flags = np.array(["=" in f for f in facts], dtype=bool)
    _freeze(input_flags)
    return CellularKnowledgeBase(
        facts=tuple(facts),
        input_flags=input_flags,
        rules=rules,
        premise_matrix=premise,
        conclusion_matrix=conclusion,
        attributes=tree.attributes,
        classes=tree.classes,
        discretization=tree.discretization,
    )


class Trace(Sequence):
    """The configurations of one inference, generation 0 to the fixed point.

    Holds the generation of every fact and rule (``NEVER`` for a cell that
    stays clear) and builds each ``Configuration`` only when it is read.
    """

    def __init__(self, kb: CellularKnowledgeBase, fact_gen: tuple[int, ...],
                 rule_gen: tuple[int, ...], length: int):
        self.kb, self.fact_gen, self.rule_gen = kb, fact_gen, rule_gen
        self._length = length

    def __len__(self) -> int:
        return self._length

    @cached_property
    def _vectors(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.fact_gen), np.array(self.rule_gen)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[g] for g in range(self._length)[index]]
        g = range(self._length)[index]
        facts, rules = self._vectors
        ef, sf, er = facts <= g, facts < g, rules <= g
        ir = np.ones(len(self.rule_gen), dtype=bool)
        sr = ~er if g else er  # at generation 0, SR is as clear as ER
        _freeze(ef, sf, er, ir, sr)
        return Configuration(ef, self.kb.input_flags, sf, er, ir, sr, g)


def infer(kb: CellularKnowledgeBase, initial_facts) -> Trace:
    """Run to the first fixed point; return every configuration on the way.

    The trace starts at generation 0 and ends at the first configuration
    that reproduces itself. Every wave fires at least one new rule, so a
    consistent base stabilizes within rule_count + 1 generations (tree
    bases within depth + 2); the cap only guards corrupted bases.
    """
    readers, counts, concludes, free = kb._counters
    missing = counts.copy()
    fact_gen = [NEVER] * kb.fact_count
    rule_gen = [NEVER] * len(counts)
    wave = []
    for descriptor in initial_facts:
        f = kb.fact_index(descriptor)
        if fact_gen[f] == NEVER:
            fact_gen[f] = 0
            wave.append(f)
    ready, g = free.copy(), 0
    while True:
        for f in wave:
            for r in readers[f]:
                missing[r] -= 1
                if not missing[r]:
                    ready.append(r)
        if not ready:
            break
        g += 1
        wave = []
        for r in ready:
            rule_gen[r] = g
            for f in concludes[r]:
                if fact_gen[f] == NEVER:
                    fact_gen[f] = g
                    wave.append(f)
        ready = []
    # SF catches up with EF one generation after the last new facts, and
    # with any rule SR leaves its clear start at generation 1.
    last = max(g + bool(wave), min(len(counts), 1))
    if last > kb.rule_count + 1:
        raise ModelIntegrityError(
            f"inference did not stabilize within {kb.rule_count + 2} generations")
    return Trace(kb, tuple(fact_gen), tuple(rule_gen), last + 1)


def established_facts(kb: CellularKnowledgeBase,
                      config: Configuration) -> tuple[str, ...]:
    return tuple(kb.facts[i] for i in np.flatnonzero(config.EF))


def instance_facts(kb: CellularKnowledgeBase, instance) -> list[str]:
    """The attribute=value descriptors an instance contributes.

    Raw values are encoded with the base's own discretization; descriptors
    naming values the rule base never tests are dropped, which at worst
    starves the inference and surfaces as an unknown-value error.
    """
    values = instance.values if isinstance(instance, Instance) else tuple(instance)
    if len(values) != len(kb.attributes):
        raise DataError(
            f"instance has {len(values)} values, schema has {len(kb.attributes)}")
    known = kb._fact_indices
    descriptors = (f"{spec.name}={value}" for spec, value in zip(
        kb.attributes, encode(kb.discretization, kb.attributes, values)))
    return [d for d in descriptors if d in known]


def classify_casi(kb: CellularKnowledgeBase, instance) -> str:
    """Seed the root plus the instance's facts; read off the class fact.

    Exactly one established class fact is a classification; zero means the
    instance fell off the known paths (unknown value), more than one means
    the rule base is inconsistent.
    """
    seeds = [kb.facts[0]] + instance_facts(kb, instance)
    fact_gen = infer(kb, seeds).fact_gen
    hits = [kb.facts[i] for i in kb._class_facts if fact_gen[i] != NEVER]
    if not hits:
        raise UnknownValueError(
            "no class fact established; instance values leave the known paths")
    if len(hits) > 1:
        raise ModelIntegrityError(
            f"multiple class facts established: {', '.join(hits)}")
    return hits[0].removeprefix(CLASS_PREFIX)


def _bitrows(matrix: np.ndarray) -> list[str]:
    return ["".join("1" if b else "0" for b in row) for row in matrix]


def kb_to_json(kb: CellularKnowledgeBase) -> dict:
    """JSON-ready form: fact/rule tables plus row-major matrix bitstrings."""
    return {
        "format": "cellular-kb",
        "facts": [
            {"descriptor": f, "input": int(flag)}
            for f, flag in zip(kb.facts, kb.input_flags)
        ],
        "rules": [
            {"premises": list(r.premises), "conclusion": r.conclusion}
            for r in kb.rules
        ],
        "R_E": _bitrows(kb.premise_matrix),
        "R_S": _bitrows(kb.conclusion_matrix),
        **schema_to_json(kb.attributes, kb.classes, kb.discretization),
    }


def kb_from_json(data: dict) -> CellularKnowledgeBase:
    """Rebuild a compiled base, cross-checking matrices against the rules."""
    if not isinstance(data, dict) or data.get("format") != "cellular-kb":
        raise ModelIntegrityError("not a cellular-kb file")
    attributes, classes, dmap = schema_from_json(data)
    try:
        facts = tuple(entry["descriptor"] for entry in data["facts"])
        flags = [entry["input"] for entry in data["facts"]]
        if any(type(flag) is not int or flag not in (0, 1) for flag in flags):
            raise ModelIntegrityError("input flags must be the integers 0 or 1")
        rules = tuple(
            ClassificationRule(tuple(r["premises"]), r["conclusion"])
            for r in data["rules"])
        if not facts:
            raise ModelIntegrityError("rule base has no facts")
        if len(set(facts)) != len(facts):
            raise ModelIntegrityError("duplicate fact descriptors")
        premise, conclusion = _wire(facts, rules)
        l, r = premise.shape
        for name, rows, wired in (("R_E", data["R_E"], premise),
                                  ("R_S", data["R_S"], conclusion)):
            if len(rows) != l or any(len(row) != r for row in rows):
                raise ModelIntegrityError(f"{name} shape is not facts x rules")
            if any(set(row) - {"0", "1"} for row in rows):
                raise ModelIntegrityError(f"{name} holds bits other than 0 and 1")
            if rows != _bitrows(wired):
                raise ModelIntegrityError(
                    f"{name} matrix disagrees with the rule table")
    except (KeyError, TypeError, DataError) as exc:
        raise ModelIntegrityError(f"malformed rule-base file: {exc}") from exc
    flags = np.array(flags, dtype=bool)
    _freeze(flags)
    return CellularKnowledgeBase(facts, flags, rules, premise, conclusion,
                                 attributes, classes, dmap)


def format_fact_table(kb: CellularKnowledgeBase,
                      config: Configuration | None = None) -> str:
    """The fact layer as an aligned table of EF/IF/SF per fact."""
    config = config or kb.initial_configuration()
    width = max(len("Facts"), max(len(f) for f in kb.facts))
    lines = [f"{'Facts':<{width}}  EF  IF  SF"]
    for i, fact in enumerate(kb.facts):
        lines.append(f"{fact:<{width}}  {int(config.EF[i])}   "
                     f"{int(config.IF[i])}   {int(config.SF[i])}")
    return "\n".join(lines)


def format_rule_table(kb: CellularKnowledgeBase,
                      config: Configuration | None = None) -> str:
    """The rule layer as an aligned table of ER/IR/SR per rule."""
    config = config or kb.initial_configuration()
    names = [f"R{j + 1}: {rule}" for j, rule in enumerate(kb.rules)]
    width = max(len("Rules"), max(len(n) for n in names))
    lines = [f"{'Rules':<{width}}  ER  IR  SR"]
    for j, name in enumerate(names):
        lines.append(f"{name:<{width}}  {int(config.ER[j])}   "
                     f"{int(config.IR[j])}   {int(config.SR[j])}")
    return "\n".join(lines)


def format_incidence(kb: CellularKnowledgeBase) -> str:
    """Both incidence matrices, facts as rows and rules as columns."""
    width = max(len(f) for f in kb.facts)
    header = "  ".join(f"R{j + 1}" for j in range(kb.rule_count))
    blocks = []
    for title, matrix in (("Input relation", kb.premise_matrix),
                          ("Output relation", kb.conclusion_matrix)):
        lines = [f"{title}:", f"{'':<{width}}  {header}"]
        for i, fact in enumerate(kb.facts):
            cells = "   ".join("1" if b else "0" for b in matrix[i])
            lines.append(f"{fact:<{width}}  {cells}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
