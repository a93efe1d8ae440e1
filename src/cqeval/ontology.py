"""Ontology loading and the structural index over taxonomy edges.

An ontology here is a labeled list of axioms plus the ground structural
facts (instance, subclass, subrelation, subAttribute) and the vocabulary
mined from them.  ``load_ontology`` reads a KIF or TPTP file and
``merge_ontologies`` joins several ontologies; both build the result in
one constructor, which also rejects a repeated label.  Axioms keep their
formulas when the source is parseable and fall back to opaque text for
TPTP units outside the supported grammar; opaque units still travel
into emitted problems verbatim, and only they need their text.

The index built over one core ontology plus any number of extension
sources answers the hierarchy questions the rest of the pipeline asks:
which core term is above this symbol, is this term an attribute, is the
taxonomy acyclic.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from pathlib import Path

from . import Error, kif, read_text, tptp
from .kif import Atom, Constant, Formula


STRUCTURAL_RELATIONS = ("instance", "subclass", "subrelation", "subAttribute")


@dataclass(frozen=True)
class OntologyAxiom:
    label: str
    formula: Formula | None
    text: str | None = None  # the verbatim TPTP unit; read only when formula is None


@dataclass(frozen=True)
class Ontology:
    name: str
    axioms: tuple[OntologyAxiom, ...]
    structural_facts: tuple[tuple[str, str, str], ...]
    vocabulary: frozenset[str]


def _ontology(name: str, parts) -> Ontology:
    """The ontology over the axioms of ``parts``, ``(source, axioms)``
    pairs, with its structural facts and vocabulary mined from the
    formulas.  A repeated label raises, naming the source that repeats it."""
    axioms: list[OntologyAxiom] = []
    seen: set[str] = set()
    facts: list[tuple[str, str, str]] = []
    vocab: set[str] = set()
    for source, group in parts:
        for ax in group:
            if ax.label in seen:
                raise Error(f"duplicate axiom label {ax.label!r} in {source}")
            seen.add(ax.label)
            axioms.append(ax)
            f = ax.formula
            if f is None:
                continue
            vocab |= kif.symbols(f)
            if (
                isinstance(f, Atom)
                and f.predicate in STRUCTURAL_RELATIONS
                and len(f.args) == 2
                and all(isinstance(a, Constant) for a in f.args)
            ):
                facts.append((f.predicate, f.args[0].name, f.args[1].name))
    return Ontology(name, tuple(axioms), tuple(facts), frozenset(vocab))


def load_ontology(path: str | Path) -> Ontology:
    """Load a TPTP axiom file (``.p``, ``.ax`` or ``.tptp``) or a SUO-KIF file.

    TPTP units the FOF parser cannot digest are kept opaque; a conjecture
    unit in an ontology file is an error.  In KIF, a ``;; label: name``
    comment names the next form; unnamed forms get sequential ax<N> labels.
    """
    path = Path(path)
    if path.suffix in (".p", ".ax", ".tptp"):
        axioms = []
        for unit in tptp.read_units(path):
            if unit.role == "conjecture":
                raise Error("conjecture unit in an ontology file", unit.line).at(unit.path)
            axioms.append(OntologyAxiom(unit.name, unit.formula, unit.text))
    else:
        try:
            forms = kif.parse_annotated(read_text(path))
        except Error as e:
            raise e.at(path) from None
        axioms = [OntologyAxiom(form.annotations.get("label", f"ax{i}"), form.formula)
                  for i, form in enumerate(forms, start=1)]
    return _ontology(path.stem, [(str(path), axioms)])


def merge_ontologies(name: str, *sources: Ontology) -> Ontology:
    """Concatenate several ontologies into one axiom set.  Labels must be
    globally unique."""
    return _ontology(name, [(src.name, src.axioms) for src in sources])


# --------------------------------------------------------------------------
# index


def _adjacency(pairs) -> dict[str, tuple[str, ...]]:
    up: dict[str, set[str]] = {}
    for child, parent in pairs:
        up.setdefault(child, set()).add(parent)
    return {c: tuple(sorted(ps)) for c, ps in sorted(up.items())}


@dataclass(frozen=True)
class OntologyIndex:
    """Merged structural view over a core ontology and its extensions.

    ``vocabulary`` holds the core's symbols only; extension symbols are
    reachable through the parent maps but do not count as core terms.
    ``up`` maps each structural relation to its child -> parents map.
    """

    vocabulary: frozenset[str]
    up: dict[str, dict[str, tuple[str, ...]]]

    def layers(self, terms, relation: str):
        """Breadth-first walk up ``relation``: the set of ``terms`` first,
        then at each step the parents of the last set met for the first
        time, until none are."""
        up = self.up[relation]
        layer, seen = set(terms), set()
        while layer:
            yield layer
            seen |= layer
            layer = {p for node in layer for p in up.get(node, ()) if p not in seen}

    def closure(self, term: str, relation: str) -> frozenset[str]:
        """Reflexive-transitive ancestors of ``term`` along ``relation``."""
        return frozenset().union(*self.layers((term,), relation))

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
        try:
            graphlib.TopologicalSorter(ups[rel]).prepare()
        except graphlib.CycleError as e:
            # graphlib lists each parent before its child
            raise Error(f"{rel} cycle: " + " -> ".join(e.args[1][::-1])) from None
    return OntologyIndex(vocabulary=core.vocabulary, up=ups)
