"""Rewriting synset mappings onto the core vocabulary.

Mapping files tie synsets to terms from the full ontology; evaluation
runs against a trimmed core.  Each mapped term is therefore walked up the
taxonomy until a core term is hit.  The walk direction depends on what
kind of thing the term is: classes climb subclass, relations climb
subrelation, attributes climb subAttribute, and instances take one
instance edge before climbing subclass.  Kinds are tried in that fixed
order and the first that reaches core wins; when several would, the
entry carries a warning so the ambiguity is visible.

Climbing weakens an equivalence: a synset equivalent to a dropped term
is merely subsumed by that term's ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ontology import OntologyIndex
from .wordnet import MappingRelation, SynsetId


def downgrade(relation: MappingRelation, steps: int) -> MappingRelation:
    """Weaken a mapping relation after climbing ``steps`` taxonomy edges."""
    if steps < 1:
        raise ValueError("downgrade needs at least one step")
    if relation is MappingRelation.EQUIVALENCE:
        return MappingRelation.SUBSUMPTION
    if relation is MappingRelation.NOT_EQUIVALENCE:
        return MappingRelation.NOT_SUBSUMPTION
    return relation


@dataclass(frozen=True)
class PropagatedEntry:
    synset: SynsetId
    term: str
    relation: MappingRelation
    origin_term: str
    depth: int


@dataclass
class PropagationResult:
    entries: list
    dropped: list
    warnings: list


# kind, the edge taken from the term, the relation climbed after it
_CLIMBS = (
    ("class", "subclass", "subclass"),
    ("relation", "subrelation", "subrelation"),
    ("attribute", "subAttribute", "subAttribute"),
    ("instance", "instance", "subclass"),
)


def _candidates(term: str, idx: OntologyIndex):
    """(kind, core term, depth) for every kind that reaches core: the least
    of the nearest core terms, the parents across the first edge at depth one."""
    found = []
    for kind, first, climb in _CLIMBS:
        layers = idx.layers(idx.up[first].get(term, ()), climb)
        for depth, layer in enumerate(layers, start=1):
            hits = layer & idx.vocabulary
            if hits:
                found.append((kind, min(hits), depth))
                break
    return found


def propagate_to_core(entries, idx: OntologyIndex) -> PropagationResult:
    """Rewrite every mapping entry onto the core vocabulary.

    Core terms pass through at depth zero with their relation intact, so
    the operation is idempotent.  Entries whose term reaches no core
    ancestor are dropped with a reason.
    """
    out: list = []
    dropped: list = []
    warnings: list = []
    for entry in entries:
        if entry.term in idx.vocabulary:
            out.append(PropagatedEntry(entry.synset, entry.term, entry.relation, entry.term, 0))
            continue
        found = _candidates(entry.term, idx)
        if not found:
            dropped.append((entry, "no_core_ancestor"))
            continue
        if len(found) > 1:
            kinds = ", ".join(k for k, _, _ in found)
            warnings.append(
                f"{entry.term}: reaches core as {kinds}; kept the first"
            )
        _, core_term, depth = found[0]
        out.append(
            PropagatedEntry(
                entry.synset,
                core_term,
                downgrade(entry.relation, depth),
                entry.term,
                depth,
            )
        )
    return PropagationResult(out, dropped, warnings)
