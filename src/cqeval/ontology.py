"""Ontology loading and the structural index over taxonomy edges.

An ontology here is a labeled list of axioms plus the ground structural
facts (instance, subclass, subrelation, subAttribute) mined from them.
Axioms keep their formulas when the source is parseable and fall back to
opaque text for TPTP units outside the supported grammar; opaque units
still travel into emitted problems verbatim.

The index built over one core ontology plus any number of extension
sources answers the hierarchy questions the rest of the pipeline asks:
which core term is above this symbol, is this term an attribute, is the
taxonomy acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import kif, tptp
from .kif import Atom, Constant, Formula


class OntologyError(Exception):
    pass


class DuplicateLabel(OntologyError):
    def __init__(self, label: str, source: str):
        self.label = label
        super().__init__(f"duplicate axiom label {label!r} in {source}")


class CycleDetected(OntologyError):
    def __init__(self, relation: str, path: list[str]):
        self.relation = relation
        self.path = path
        super().__init__(f"{relation} cycle: " + " -> ".join(path))


STRUCTURAL_RELATIONS = ("instance", "subclass", "subrelation", "subAttribute")


@dataclass(frozen=True)
class OntologyAxiom:
    label: str
    formula: Formula | None
    text: str


@dataclass(frozen=True)
class Ontology:
    name: str
    axioms: tuple[OntologyAxiom, ...]
    structural_facts: tuple[tuple[str, str, str], ...]
    vocabulary: frozenset[str]


def _fact_from(f: Formula | None):
    if (
        isinstance(f, Atom)
        and f.predicate in STRUCTURAL_RELATIONS
        and len(f.args) == 2
        and all(isinstance(a, Constant) for a in f.args)
    ):
        return (f.predicate, f.args[0].name, f.args[1].name)
    return None


def _facts_of(axioms) -> tuple[tuple[str, str, str], ...]:
    out = []
    for ax in axioms:
        fact = _fact_from(ax.formula)
        if fact is not None:
            out.append(fact)
    return tuple(out)


def _vocabulary_of(axioms) -> frozenset[str]:
    acc: set[str] = set()
    for ax in axioms:
        if ax.formula is not None:
            acc |= kif.symbols(ax.formula)
    return frozenset(acc)


def load_kif_ontology(path: str | Path, name: str | None = None) -> Ontology:
    """Load a SUO-KIF file.  ``;; label: name`` comments name the next form;
    unnamed forms get sequential ax<N> labels."""
    path = Path(path)
    forms = kif.parse_annotated(path.read_text(encoding="utf-8"))
    axioms: list[OntologyAxiom] = []
    seen: set[str] = set()
    for i, form in enumerate(forms, start=1):
        label = form.annotations.get("label", f"ax{i}")
        if label in seen:
            raise DuplicateLabel(label, str(path))
        seen.add(label)
        axioms.append(OntologyAxiom(label, form.formula, kif.print_kif(form.formula)))
    axioms = tuple(axioms)
    return Ontology(
        name=name or path.stem,
        axioms=axioms,
        structural_facts=_facts_of(axioms),
        vocabulary=_vocabulary_of(axioms),
    )


def load_tptp_ontology(path: str | Path, name: str | None = None) -> Ontology:
    """Load a TPTP axiom file.  Units the FOF parser cannot digest are kept
    opaque; a conjecture unit in an ontology file is an error."""
    path = Path(path)
    axioms: list[OntologyAxiom] = []
    seen: set[str] = set()
    for unit in tptp.read_units(path):
        if unit.role == "conjecture":
            raise OntologyError(f"{unit.where}: conjecture unit in an ontology file")
        if unit.name in seen:
            raise DuplicateLabel(unit.name, str(path))
        seen.add(unit.name)
        axioms.append(OntologyAxiom(unit.name, unit.formula, unit.text))
    axioms = tuple(axioms)
    return Ontology(
        name=name or path.stem,
        axioms=axioms,
        structural_facts=_facts_of(axioms),
        vocabulary=_vocabulary_of(axioms),
    )


def load_ontology(path: str | Path, name: str | None = None) -> Ontology:
    path = Path(path)
    if path.suffix in (".p", ".ax", ".tptp"):
        return load_tptp_ontology(path, name)
    return load_kif_ontology(path, name)


def merge_ontologies(name: str, *sources: Ontology) -> Ontology:
    """Concatenate several ontologies into one axiom set.  Labels must be
    globally unique; vocabulary is the union."""
    axioms: list = []
    seen: set = set()
    vocab: set = set()
    for src in sources:
        for ax in src.axioms:
            if ax.label in seen:
                raise DuplicateLabel(ax.label, src.name)
            seen.add(ax.label)
            axioms.append(ax)
        vocab |= src.vocabulary
    axioms = tuple(axioms)
    return Ontology(
        name=name,
        axioms=axioms,
        structural_facts=_facts_of(axioms),
        vocabulary=frozenset(vocab),
    )


# --------------------------------------------------------------------------
# index


def _adjacency(pairs) -> dict[str, tuple[str, ...]]:
    up: dict[str, set[str]] = {}
    for child, parent in pairs:
        up.setdefault(child, set()).add(parent)
    return {c: tuple(sorted(ps)) for c, ps in sorted(up.items())}


def _find_cycle(up: dict[str, tuple[str, ...]]):
    """DFS for a cycle in the parent graph; returns a path or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in up}
    for root in sorted(up):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(up.get(root, ())))]
        color[root] = GRAY
        trail = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for parent in it:
                if parent not in up:
                    continue
                if color[parent] == GRAY:
                    cut = trail.index(parent)
                    return trail[cut:] + [parent]
                if color[parent] == WHITE:
                    color[parent] = GRAY
                    trail.append(parent)
                    stack.append((parent, iter(up.get(parent, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                trail.pop()
                stack.pop()
    return None


@dataclass(frozen=True)
class OntologyIndex:
    """Merged structural view over a core ontology and its extensions.

    ``vocabulary`` holds the core's symbols only; extension symbols are
    reachable through the parent maps but do not count as core terms.
    ``up`` maps each structural relation to its child -> parents map.
    """

    vocabulary: frozenset[str]
    up: dict[str, dict[str, tuple[str, ...]]]

    def closure(self, term: str, relation: str) -> frozenset[str]:
        """Reflexive-transitive ancestors of ``term`` along ``relation``."""
        up = self.up[relation]
        seen = {term}
        frontier = [term]
        while frontier:
            nxt = []
            for node in frontier:
                for parent in up.get(node, ()):
                    if parent not in seen:
                        seen.add(parent)
                        nxt.append(parent)
            frontier = nxt
        return frozenset(seen)

    def is_attribute(self, term: str) -> bool:
        """True when some subAttribute ancestor is an instance of a class
        under Attribute."""
        for anc in self.closure(term, "subAttribute"):
            for cls in self.up["instance"].get(anc, ()):
                if "Attribute" in self.closure(cls, "subclass"):
                    return True
        return False


def build_index(core: Ontology, extra_sources=()) -> OntologyIndex:
    facts: list[tuple[str, str, str]] = list(core.structural_facts)
    for src in extra_sources:
        facts.extend(src.structural_facts)
    by_rel: dict[str, set[tuple[str, str]]] = {r: set() for r in STRUCTURAL_RELATIONS}
    for rel, child, parent in facts:
        by_rel[rel].add((child, parent))
    ups = {rel: _adjacency(pairs) for rel, pairs in by_rel.items()}
    for rel in ("subclass", "subAttribute"):
        cycle = _find_cycle(ups[rel])
        if cycle:
            raise CycleDetected(rel, cycle)
    return OntologyIndex(vocabulary=core.vocabulary, up=ups)
