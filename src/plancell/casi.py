"""Boolean cellular inference engine compiled from an induction graph.

The tree's rules become two cell layers: one per fact (tree nodes,
attribute=value tests, class assignments) and one per rule, wired by a
premise matrix and a conclusion matrix. Classification seeds the root and
the instance's attribute-value facts, then alternates an eligibility pass
(a rule becomes eligible once all its premise facts are established) with
an execution pass (eligible rules establish their conclusion facts) until
the configuration stops changing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import AttributeSpec, Instance
from .discretize import DiscretizationMap, encode, schema_to_json, schema_from_json
from .errors import DataError, ModelIntegrityError, UnknownValueError
from .tree import CLASS_ATTRIBUTE, ClassificationRule, InductionGraph, extract_rules

CLASS_PREFIX = CLASS_ATTRIBUTE + "="


def _bool_vector(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bool)


def _freeze(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """One register against another: the same array, or the same cells."""
    return a is b or (a.shape == b.shape and a.dtype == b.dtype
                      and a.tobytes() == b.tobytes())


@dataclass(frozen=True, eq=False)
class Configuration:
    """One automaton state: three fact registers and three rule registers.

    EF marks established facts, IF is the fixed input-fact marker, SF echoes
    the previous EF. ER marks eligible rules, IR the (constant) active-rule
    mask, SR the complement of ER after each execution pass. The engine
    never writes a register in place, so a configuration shares every
    unchanged register with its predecessor.
    """

    EF: np.ndarray
    IF: np.ndarray
    SF: np.ndarray
    ER: np.ndarray
    IR: np.ndarray
    SR: np.ndarray
    generation: int = 0

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return (_same(self.EF, other.EF) and _same(self.SF, other.SF)
                and _same(self.ER, other.ER) and _same(self.SR, other.SR)
                and _same(self.IF, other.IF) and _same(self.IR, other.IR))


@dataclass(frozen=True)
class CellularKnowledgeBase:
    """Immutable compiled rule base: fact layer, rule layer, wiring.

    The engine reads the wiring as sparse (fact, rule) cell lists, built on
    the first classification and cached; the matrices are read-only so the
    cache cannot go stale.
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
    def _class_facts(self) -> np.ndarray:
        return np.array([i for i, f in enumerate(self.facts)
                         if f.startswith(CLASS_PREFIX)], dtype=np.intp)

    @cached_property
    def _premise_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fact and rule of every premise cell, and each rule's premise count."""
        fact, rule = np.nonzero(self.premise_matrix)
        width = self.premise_matrix.shape[1]
        return fact, rule, np.bincount(rule, minlength=width)

    @cached_property
    def _conclusion_cells(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.conclusion_matrix)

    def fact_index(self, descriptor: str) -> int:
        try:
            return self._fact_indices[descriptor]
        except KeyError:
            raise UnknownValueError(f"unknown fact {descriptor!r}") from None

    def initial_configuration(self, initial_facts=()) -> Configuration:
        """All registers clear except IF, IR, and the seeded EF cells."""
        ef = _bool_vector(self.fact_count)
        for descriptor in initial_facts:
            ef[self.fact_index(descriptor)] = True
        return Configuration(
            EF=ef,
            IF=self.input_flags,
            SF=_bool_vector(self.fact_count),
            ER=_bool_vector(self.rule_count),
            IR=np.ones(self.rule_count, dtype=bool),
            SR=_bool_vector(self.rule_count),
        )


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


def eligible_rules(kb: CellularKnowledgeBase, ef: np.ndarray) -> np.ndarray:
    """Rules whose premise facts are all established.

    Counts the established premise cells of each rule, so the cost follows
    the number of premise cells, not facts x rules.
    """
    fact, rule, count = kb._premise_cells
    return np.bincount(rule[ef[fact]], minlength=count.size) == count


def _execute(kb: CellularKnowledgeBase, ef: np.ndarray,
             er: np.ndarray) -> np.ndarray:
    """EF plus the conclusion facts of the eligible rules ER."""
    fact, rule = kb._conclusion_cells
    out = ef.copy()
    out[fact[er[rule]]] = True
    return out


def delta_fact(kb: CellularKnowledgeBase, config: Configuration) -> Configuration:
    """Assessment pass: copy EF into SF, extend ER with newly eligible rules."""
    return Configuration(config.EF, config.IF, config.EF,
                         config.ER | eligible_rules(kb, config.EF),
                         config.IR, config.SR, config.generation)


def delta_rule(kb: CellularKnowledgeBase, config: Configuration) -> Configuration:
    """Execution pass: eligible rules establish conclusions; SR = not ER."""
    return Configuration(_execute(kb, config.EF, config.ER), config.IF,
                         config.SF, config.ER, config.IR, ~config.ER,
                         config.generation)


def step(kb: CellularKnowledgeBase, config: Configuration) -> Configuration:
    """One full generation: assessment then execution, as one configuration."""
    er = config.ER | eligible_rules(kb, config.EF)
    return Configuration(_execute(kb, config.EF, er), config.IF, config.EF,
                         er, config.IR, ~er, config.generation + 1)


def infer(kb: CellularKnowledgeBase, initial_facts) -> list[Configuration]:
    """Run to the first fixed point; return every configuration on the way.

    The trace starts at generation 0 and ends at the first configuration
    that reproduces itself. Tree-compiled bases stabilize within depth+2
    generations; the rule-count cap only guards corrupted bases.
    """
    trace = [kb.initial_configuration(initial_facts)]
    for _ in range(kb.rule_count + 2):
        succ = step(kb, trace[-1])
        if succ == trace[-1]:
            return trace
        trace.append(succ)
    raise ModelIntegrityError(
        f"inference did not stabilize within {kb.rule_count + 2} generations")


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
    root = kb.facts[0]
    seeds = [root] + instance_facts(kb, instance)
    final = infer(kb, seeds)[-1]
    classes = kb._class_facts
    hits = [kb.facts[i] for i in classes[final.EF[classes]]]
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
        flags = np.array([bool(entry["input"]) for entry in data["facts"]],
                         dtype=bool)
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
            if [[c == "1" for c in row] for row in rows] != wired.tolist():
                raise ModelIntegrityError(
                    f"{name} matrix disagrees with the rule table")
    except (KeyError, TypeError, DataError) as exc:
        raise ModelIntegrityError(f"malformed rule-base file: {exc}") from exc
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
