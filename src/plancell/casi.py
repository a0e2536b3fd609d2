"""Boolean cellular inference engine compiled from an induction graph.

The tree's rules become two cell layers: one per fact (tree nodes,
attribute=value tests, class assignments) and one per rule; the rule table
wires them. Classification seeds the root and the instance's
attribute-value facts and runs the automaton to its first fixed point. A
compiled base is a monotone Horn program, so the engine finds it by forward
chaining over watch lists fixed per base: a fact that no rule concludes can
only be a seed, so a rule waits only on its premises that some rule
concludes (on its first premise if none is), and a fact of generation g
fires each rule waiting on it whose premises all date from g or earlier.
Each wave of firings is one generation, so one vector holds the whole run:
the generation that established each fact (seeds at 0). The registers of
generation g are views of it: EF = facts <= g, SF = EF of g - 1, ER = the
rules none of whose premises (R_E) is missing from SF, the assessment pass,
and SR = not ER (clear at 0).
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import CLASS_ATTRIBUTE, case_values
from .discretize import Schema
from .errors import DataError, ModelIntegrityError, UnknownValueError
from .tree import InductionGraph

CLASS_PREFIX = CLASS_ATTRIBUTE + "="
NEVER = sys.maxsize  # the generation of a cell that is never set


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ClassificationRule:
    """Conjunction of premise facts implying one conclusion fact."""

    premises: tuple[str, ...]
    conclusion: str

    def __post_init__(self):
        if not self.premises:
            raise DataError("rule with empty premises")
        if self.conclusion in self.premises:
            raise DataError(f"rule concludes its own premise {self.conclusion!r}")

    def __str__(self):
        return f"{' & '.join(self.premises)} -> {self.conclusion}"


@dataclass(frozen=True, eq=False)
class Configuration:
    """One automaton state: three fact registers and three rule registers.

    EF marks established facts, IF is the fixed input-fact marker, SF echoes
    the previous EF. ER marks eligible rules, IR the (constant) active-rule
    mask, SR the complement of ER after each execution pass. Traces build
    configurations from their fact generations and R_E, with read-only
    registers.
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
    """Immutable compiled rule base: a fact table, a rule table, a Schema.

    Construction checks that both tables are non-empty, that no descriptor
    repeats and that every premise and conclusion names a fact. The root,
    the input flags, the incidence matrices, the engine's watch lists and
    the class each fact assigns are views of the tables, built on first
    use and cached; the arrays are read-only. ``root`` checks the first
    fact: classification and loading read it, ``infer`` does not, so
    hand-wired bases may seed any fact.
    """

    facts: tuple[str, ...]
    rules: tuple[ClassificationRule, ...]
    schema: Schema

    def __post_init__(self):
        if not self.facts:
            raise ModelIntegrityError("rule base has no facts")
        if not self.rules:
            raise ModelIntegrityError("rule base has no rules")
        if len(self._fact_indices) != len(self.facts):
            raise ModelIntegrityError("duplicate fact descriptors")
        for rule in self.rules:
            for role, fact in [*(("premise", p) for p in rule.premises),
                               ("conclusion", rule.conclusion)]:
                if fact not in self._fact_indices:
                    raise ModelIntegrityError(f"rule {role} {fact!r} is not a fact")

    @property
    def fact_count(self) -> int:
        return len(self.facts)

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    @cached_property
    def root(self) -> str:
        """The fact every classification seeds: the first fact, which must
        be the only node fact no rule concludes (ModelIntegrityError if not).
        """
        concluded = {rule.conclusion for rule in self.rules}
        roots = [f for f in self.facts if "=" not in f and f not in concluded]
        if roots != [self.facts[0]]:
            raise ModelIntegrityError(
                f"the first fact, {self.facts[0]!r}, must be the only node fact "
                f"no rule concludes; those are {roots}")
        return self.facts[0]

    @cached_property
    def _fact_indices(self) -> dict[str, int]:
        return {f: i for i, f in enumerate(self.facts)}

    @cached_property
    def input_flags(self) -> np.ndarray:
        """The fixed IF vector: set for the facts containing '='."""
        return _frozen(np.array(["=" in f for f in self.facts], dtype=bool))

    def _incidence(self, cells) -> np.ndarray:
        """Read-only facts x rules matrix; column j marks cells(rule j)."""
        matrix = np.zeros((self.fact_count, self.rule_count), dtype=bool)
        for j, rule in enumerate(self.rules):
            for f in cells(rule):
                matrix[self._fact_indices[f], j] = True
        return _frozen(matrix)

    @cached_property
    def premise_matrix(self) -> np.ndarray:
        """R_E: fact i is a premise of rule j."""
        return self._incidence(lambda rule: rule.premises)

    @cached_property
    def conclusion_matrix(self) -> np.ndarray:
        """R_S: fact i is the conclusion of rule j."""
        return self._incidence(lambda rule: (rule.conclusion,))

    @cached_property
    def _watches(self) -> list[list[tuple]]:
        """Per fact, the rules waiting on it as (premise, further premises,
        conclusion): the rule's other premises, or the fact itself if none.
        A rule waits on the premises some rule concludes, else on its first."""
        at = self._fact_indices.__getitem__
        concludes = [at(rule.conclusion) for rule in self.rules]
        derived, watches = set(concludes), [[] for _ in self.facts]
        for rule, c in zip(self.rules, concludes):
            premises = list(map(at, rule.premises))
            for w in derived.intersection(premises) or premises[:1]:
                others = premises.copy()
                others.remove(w)
                watches[w].append((others.pop() if others else w, others or (), c))
        return watches

    @cached_property
    def _input_tables(self) -> tuple[tuple[str, dict[str, str]], ...]:
        """Per attribute: its name, and each string value the base tests,
        mapped to its fact descriptor. One pass splits each fact at its
        first ``=``: attribute names hold none, so the part before it is
        the attribute a fact tests."""
        tables = {spec.name: {} for spec in self.schema.attributes}
        for f in self.facts:
            name, eq, value = f.partition("=")
            if eq and name in tables:  # a node fact may spell an attribute name
                tables[name][value] = f
        return tuple(tables.items())

    @cached_property
    def _class_of(self) -> tuple[str | None, ...]:
        """Per fact, the class it assigns, or None."""
        return tuple(f[len(CLASS_PREFIX):] if f.startswith(CLASS_PREFIX) else None
                     for f in self.facts)


def compile_tree(tree: InductionGraph) -> CellularKnowledgeBase:
    """Flatten a tree into a fact table and a rule table.

    One rule per edge and one per leaf, in breadth-first node order. Fact
    order: node facts breadth-first, then the attribute=value facts the
    edge rules test, in schema and domain order, then the class facts the
    leaf rules conclude, in label order.
    """
    facts, rules, tested, labels = [], [], set(), set()
    for node in tree.nodes():
        facts.append(node.node_id)
        if node.is_leaf:
            labels.add(node.majority)
            rules.append(ClassificationRule((node.node_id,),
                                            CLASS_PREFIX + node.majority))
        for value, child in node.children.items():
            test = f"{node.attribute}={value}"
            tested.add(test)
            rules.append(ClassificationRule((node.node_id, test), child.node_id))
    facts += [f"{spec.name}={value}" for spec in tree.schema.attributes
              for value in spec.domain if f"{spec.name}={value}" in tested]
    facts += [CLASS_PREFIX + c for c in tree.schema.classes if c in labels]
    return CellularKnowledgeBase(tuple(facts), tuple(rules), tree.schema)


class Trace(Sequence):
    """The configurations of one inference, generation 0 to the fixed point.

    Holds the engine's list of the generation that established each fact
    (``NEVER`` for a fact that stays clear) and its queue of the facts
    established: the seeds, then the waves in order. The rule registers
    follow from the facts through R_E. The ``fact_gen`` tuple and each
    ``Configuration`` are built only when read.
    """

    def __init__(self, kb: CellularKnowledgeBase, fact_gen: list[int],
                 established: list[int]):
        self.kb, self._fact_gen, self._established = kb, fact_gen, established
        # SF, and ER with it, catches up with EF one generation after the
        # last new facts, and SR leaves its clear start at generation 1.
        self._length = (fact_gen[established[-1]] if established else 0) + 2

    def __len__(self) -> int:
        return self._length

    @cached_property
    def fact_gen(self) -> tuple[int, ...]:
        return tuple(self._fact_gen)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[g] for g in range(self._length)[index]]
        g = range(self._length)[index]
        facts = np.array(self._fact_gen)
        ef, sf = _frozen(facts <= g), _frozen(facts < g)
        # the assessment pass: a rule is eligible when none of its premises
        # is missing from SF; every rule has one, so ER is clear at 0
        er = _frozen(~self.kb.premise_matrix[~sf].any(axis=0))
        ir = _frozen(np.ones(self.kb.rule_count, dtype=bool))
        sr = _frozen(~er) if g else er  # at generation 0, SR is as clear as ER
        return Configuration(ef, self.kb.input_flags, sf, er, ir, sr, g)


def infer(kb: CellularKnowledgeBase, initial_facts) -> Trace:
    """Run to the first fixed point; return every configuration on the way.

    A case keeps no per-rule state: its cost follows the facts it
    establishes and the rules waiting on them. The trace starts at
    generation 0 and ends at the first configuration that reproduces
    itself. Each rule fires at most once and every wave fires at least one
    rule, so a trace never exceeds rule_count + 2 configurations (a tree
    base stabilizes within depth + 2 generations).
    """
    watches = kb._watches
    fact_gen = [NEVER] * kb.fact_count
    established = []  # the seeds, then each wave: a queue in generation order
    index = kb._fact_indices.get
    for descriptor in initial_facts:
        f = index(descriptor)
        if f is None:
            raise UnknownValueError(f"unknown fact {descriptor!r}")
        if fact_gen[f] == NEVER:
            fact_gen[f] = 0
            established.append(f)
    # A rule fires one generation after its latest premise is dequeued; the
    # facts it establishes join the queue this loop is reading.
    for f in established:
        g = fact_gen[f]
        for o, more, c in watches[f]:
            if (fact_gen[o] <= g and fact_gen[c] == NEVER
                    and (not more or all(fact_gen[p] <= g for p in more))):
                fact_gen[c] = g + 1
                established.append(c)
    return Trace(kb, fact_gen, established)


def established_facts(kb: CellularKnowledgeBase,
                      config: Configuration) -> tuple[str, ...]:
    return tuple(kb.facts[i] for i in np.flatnonzero(config.EF))


def instance_facts(kb: CellularKnowledgeBase, instance) -> list[str]:
    """The attribute=value descriptors an instance contributes.

    Each value that is not a string goes through the base's map, if it has
    one, as in the tree walk; a string (a bin label or a nominal value) is
    taken as it is. Each attribute's input table then looks it up once:
    only string values match, as the tree walk matches only equal values (1
    or True never takes a "1" or "True" branch), and values the rule base
    never tests are dropped, which at worst starves the inference and
    surfaces as an unknown-value error.
    """
    values = case_values(instance, len(kb.schema.attributes))
    dmap = kb.schema.discretization
    seeds = []
    for (name, table), value in zip(kb._input_tables, values):
        if dmap is not None and not isinstance(value, str):
            value = dmap.bin_label(name, value)
        fact = table.get(value) if isinstance(value, str) else None
        if fact is not None:
            seeds.append(fact)
    return seeds


def classify_casi(kb: CellularKnowledgeBase, instance) -> str:
    """Seed the root plus the instance's facts; read off the class fact.

    Exactly one class fact among the facts the inference established is a
    classification; zero means the instance fell off the known paths
    (unknown value), more than one means the rule base is inconsistent.
    The case is read by ``instance_facts``, which bins only values that are
    not strings; each established fact's class comes from a per-fact table.
    """
    trace = infer(kb, [kb.root, *instance_facts(kb, instance)])
    class_of = kb._class_of
    hits = [f for f in trace._established if class_of[f] is not None]
    if not hits:
        raise UnknownValueError(
            "no class fact established; instance values leave the known paths")
    if len(hits) > 1:
        raise ModelIntegrityError("multiple class facts established: "
                                  + ", ".join(kb.facts[f] for f in sorted(hits)))
    return class_of[hits[0]]


def _bitrows(matrix: np.ndarray) -> list[str]:
    return [(row + ord("0")).tobytes().decode() for row in matrix.view(np.uint8)]


def kb_to_json(kb: CellularKnowledgeBase) -> dict:
    """JSON-ready form: fact/rule tables plus row-major matrix bitstrings."""
    return {
        "format": "cellular-kb",
        "facts": [{"descriptor": f, "input": int(flag)}
                  for f, flag in zip(kb.facts, kb.input_flags)],
        "rules": [{"premises": list(r.premises), "conclusion": r.conclusion}
                  for r in kb.rules],
        "R_E": _bitrows(kb.premise_matrix),
        "R_S": _bitrows(kb.conclusion_matrix),
        **kb.schema.to_json(),
    }


def kb_from_json(data: dict) -> CellularKnowledgeBase:
    """Rebuild a base from its tables, then check the file's input flags
    and matrices against the base's views, that every input fact names a
    domain value or class of the schema, and that the first fact is the
    root: the only node fact no rule concludes."""
    if not isinstance(data, dict) or data.get("format") != "cellular-kb":
        raise ModelIntegrityError("not a cellular-kb file")
    schema = Schema.from_json(data)
    try:
        flags = [entry["input"] for entry in data["facts"]]
        if any(type(flag) is not int or flag not in (0, 1) for flag in flags):
            raise ModelIntegrityError("input flags must be the integers 0 or 1")
        facts = tuple(entry["descriptor"] for entry in data["facts"])
        for fact in facts:
            if not isinstance(fact, str):
                raise ModelIntegrityError(f"fact descriptor {fact!r} is not a string")
        rules = []
        for j, r in enumerate(data["rules"], 1):
            premises, conclusion = r["premises"], r["conclusion"]
            if not isinstance(premises, list) or not all(
                    isinstance(p, str) for p in premises):
                raise ModelIntegrityError(
                    f"rule {j}: premises must be a list of strings, not {premises!r}")
            if not isinstance(conclusion, str):
                raise ModelIntegrityError(
                    f"rule {j}: conclusion must be a string, not {conclusion!r}")
            rules.append(ClassificationRule(tuple(premises), conclusion))
        kb = CellularKnowledgeBase(facts, tuple(rules), schema)
        for fact, flag, wired in zip(kb.facts, flags, kb.input_flags):
            if flag != wired:
                raise ModelIntegrityError(
                    f"input flag {flag} of fact {fact!r} disagrees with "
                    f"its descriptor")
        known = {f"{s.name}={v}" for s in schema.attributes for v in s.domain}
        known.update(CLASS_PREFIX + c for c in schema.classes)
        for fact in kb.facts:
            if "=" in fact and fact not in known:
                raise ModelIntegrityError(
                    f"input fact {fact!r} names no domain value or class")
        kb.root  # raises unless the first fact is the root
        for name, rows, wired in (("R_E", data["R_E"], kb.premise_matrix),
                                  ("R_S", data["R_S"], kb.conclusion_matrix)):
            if [len(row) for row in rows] != [kb.rule_count] * kb.fact_count:
                raise ModelIntegrityError(f"{name} shape is not facts x rules")
            if any(set(row) - {"0", "1"} for row in rows):
                raise ModelIntegrityError(f"{name} holds bits other than 0 and 1")
            if rows != _bitrows(wired):
                raise ModelIntegrityError(
                    f"{name} matrix disagrees with the rule table")
    except (KeyError, TypeError, DataError) as exc:
        raise ModelIntegrityError(f"malformed rule-base file: {exc}") from exc
    return kb


def _layer_table(title, names, registers, config: Configuration) -> str:
    """One cell layer as an aligned table: a row of register bits per cell."""
    width = max(map(len, [title, *names]))
    lines = [f"{title:<{width}}  " + "  ".join(registers)]
    for i, name in enumerate(names):
        bits = (str(int(getattr(config, r)[i])) for r in registers)
        lines.append(f"{name:<{width}}  " + "   ".join(bits))
    return "\n".join(lines)


def format_fact_table(kb: CellularKnowledgeBase,
                      config: Configuration | None = None) -> str:
    """The fact layer as an aligned table of EF/IF/SF per fact."""
    return _layer_table("Facts", kb.facts, ("EF", "IF", "SF"),
                        config or infer(kb, ())[0])


def format_rule_table(kb: CellularKnowledgeBase,
                      config: Configuration | None = None) -> str:
    """The rule layer as an aligned table of ER/IR/SR per rule."""
    names = [f"R{j + 1}: {rule}" for j, rule in enumerate(kb.rules)]
    return _layer_table("Rules", names, ("ER", "IR", "SR"),
                        config or infer(kb, ())[0])


def format_incidence(kb: CellularKnowledgeBase) -> str:
    """Both incidence matrices, facts as rows and rules as columns."""
    width = max(len(f) for f in kb.facts)
    header = "  ".join(f"R{j + 1}" for j in range(kb.rule_count))
    blocks = []
    for title, matrix in (("Input relation", kb.premise_matrix),
                          ("Output relation", kb.conclusion_matrix)):
        lines = [f"{title}:", f"{'':<{width}}  {header}"]
        lines += [f"{fact:<{width}}  {'   '.join(row)}"
                  for fact, row in zip(kb.facts, _bitrows(matrix))]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
