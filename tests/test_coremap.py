"""Mapping propagation onto the core vocabulary, checked against an
independent reachability oracle."""

import random

import pytest

import oracles
from cqeval import kif, ontology
from cqeval.coremap import downgrade, propagate_to_core
from cqeval.ontology import OntologyAxiom, build_index
from cqeval.wordnet import MappingEntry, MappingRelation, Pos, SynsetId


def _sid(n: int) -> SynsetId:
    return SynsetId(Pos.NOUN, f"{n:08d}")


def _index_from(facts, vocabulary):
    """An index over explicit structural facts, bypassing file loading."""
    axioms = tuple(
        OntologyAxiom(f"ax{k}", kif.Atom(rel, (kif.Constant(c), kif.Constant(p))))
        for k, (rel, c, p) in enumerate(facts)
    )
    core = ontology.Ontology(
        name="synthetic",
        axioms=axioms,
        structural_facts=tuple(facts),
        vocabulary=frozenset(vocabulary),
    )
    return build_index(core)


def test_downgrade():
    assert downgrade(MappingRelation.EQUIVALENCE, 1) is MappingRelation.SUBSUMPTION
    assert downgrade(MappingRelation.NOT_EQUIVALENCE, 2) is MappingRelation.NOT_SUBSUMPTION
    assert downgrade(MappingRelation.SUBSUMPTION, 1) is MappingRelation.SUBSUMPTION
    assert downgrade(MappingRelation.INSTANCE, 3) is MappingRelation.INSTANCE
    with pytest.raises(ValueError):
        downgrade(MappingRelation.EQUIVALENCE, 0)


def test_core_terms_pass_through_unchanged():
    idx = _index_from([("subclass", "Mid", "Top")], {"Mid", "Top"})
    entry = MappingEntry(_sid(1), "Mid", MappingRelation.EQUIVALENCE)
    result = propagate_to_core([entry], idx)
    (p,) = result.entries
    assert (p.term, p.depth, p.relation, p.origin_term) == (
        "Mid", 0, MappingRelation.EQUIVALENCE, "Mid",
    )
    assert result.dropped == []


def test_climbing_downgrades_equivalence():
    facts = [("subclass", "Leaf", "Mid"), ("subclass", "Mid", "Top")]
    idx = _index_from(facts, {"Top"})
    entry = MappingEntry(_sid(2), "Leaf", MappingRelation.EQUIVALENCE)
    (p,) = propagate_to_core([entry], idx).entries
    assert (p.term, p.depth, p.relation, p.origin_term) == (
        "Top", 2, MappingRelation.SUBSUMPTION, "Leaf",
    )


def test_nearest_ancestor_wins_with_alphabetical_ties():
    facts = [
        ("subclass", "Leaf", "Beta"),
        ("subclass", "Leaf", "Alpha"),
        ("subclass", "Alpha", "Root"),
    ]
    idx = _index_from(facts, {"Alpha", "Beta", "Root"})
    (p,) = propagate_to_core(
        [MappingEntry(_sid(3), "Leaf", MappingRelation.SUBSUMPTION)], idx
    ).entries
    assert (p.term, p.depth) == ("Alpha", 1)


def test_instance_path_takes_one_edge_then_subclass():
    facts = [
        ("instance", "redSeven", "PlayingCard"),
        ("subclass", "PlayingCard", "Artifact"),
    ]
    idx = _index_from(facts, {"Artifact"})
    (p,) = propagate_to_core(
        [MappingEntry(_sid(4), "redSeven", MappingRelation.EQUIVALENCE)], idx
    ).entries
    assert (p.term, p.depth, p.relation) == ("Artifact", 2, MappingRelation.SUBSUMPTION)


def test_kind_order_prefers_class_and_warns():
    facts = [
        ("subclass", "Dual", "ViaClass"),
        ("subAttribute", "Dual", "ViaAttribute"),
    ]
    idx = _index_from(facts, {"ViaClass", "ViaAttribute"})
    result = propagate_to_core([MappingEntry(_sid(5), "Dual", MappingRelation.EQUIVALENCE)], idx)
    (p,) = result.entries
    assert p.term == "ViaClass"
    assert result.warnings and "Dual" in result.warnings[0]


def test_unreachable_terms_are_dropped_with_reason():
    idx = _index_from([("subclass", "A", "B")], {"Core"})
    result = propagate_to_core([MappingEntry(_sid(6), "A", MappingRelation.EQUIVALENCE)], idx)
    assert result.entries == []
    ((entry, reason),) = result.dropped
    assert entry.term == "A"
    assert reason == "no_core_ancestor"


# --------------------------------------------------------------------------
# random taxonomies against the oracle


RELATIONS = list(MappingRelation)


def graph_case(seed: int, nodes: int = 200, edge_prob: float = 0.02,
               vocab_frac: float = 0.15, samples: int = 40):
    """One random DAG taxonomy: (index, edges, vocabulary, sampled entries)."""
    rng = random.Random(seed)
    names = [f"n{i:03d}" for i in range(nodes)]
    edges = [
        (names[i], names[j])
        for i in range(nodes)
        for j in range(i + 1, nodes)
        if rng.random() < edge_prob
    ]
    vocabulary = {n for n in names if rng.random() < vocab_frac}
    idx = _index_from([("subclass", c, p) for c, p in edges], vocabulary)
    entries = [
        MappingEntry(_sid(k), rng.choice(names), rng.choice(RELATIONS))
        for k in range(samples)
    ]
    return idx, edges, vocabulary, entries


def check_against_oracle(idx, edges, vocabulary, entries):
    result = propagate_to_core(entries, idx)
    by_key = {(p.synset, p.origin_term): p for p in result.entries}
    dropped = {(e.synset, e.term) for e, _ in result.dropped}
    for e in entries:
        expected = oracles.nearest_above(e.term, edges, vocabulary)
        key = (e.synset, e.term)
        if expected is None:
            assert key in dropped, f"{e.term} should have been dropped"
            continue
        term, depth = expected
        p = by_key[key]
        assert p.term == term
        assert p.depth == depth
        assert p.relation is (e.relation if depth == 0 else downgrade(e.relation, depth))
        # soundness: the chosen core term really is an ancestor (or the term)
        assert term == e.term or term in oracles.reachable_above(e.term, edges)


def test_random_taxonomies_match_oracle():
    for seed in range(8):
        check_against_oracle(*graph_case(seed))


def as_mapping_entries(result):
    """Propagated entries viewed as plain mapping entries, for a re-run."""
    return [MappingEntry(p.synset, p.term, p.relation) for p in result.entries]


def test_propagation_is_idempotent():
    idx, edges, vocabulary, entries = graph_case(99)
    first = propagate_to_core(entries, idx)
    again = propagate_to_core(as_mapping_entries(first), idx)
    assert [(p.synset, p.term, p.relation) for p in again.entries] == [
        (p.synset, p.term, p.relation) for p in first.entries
    ]
    assert all(p.depth == 0 for p in again.entries)
    assert again.dropped == []
