"""Question generation: ids, the three generator families, hand-written
questions, the triviality screen, and whole-corpus assembly."""

import pytest

from conftest import CREATIVE
from cqeval import Error, kif, microprover
from cqeval.cqgen import (
    CompetencyQuestion,
    Pattern,
    Polarity,
    Provenance,
    check_nontriviality,
    cq_from_record,
    cq_to_record,
    gen_antonym,
    gen_event,
    gen_relation,
    generate_corpus,
    load_creative,
    make_cq_id,
    negate_cq,
)
from cqeval.coremap import PropagatedEntry
from cqeval.wordnet import MappingRelation, MorphLink, Pos, SynsetId

N = lambda off: SynsetId(Pos.NOUN, off)
V = lambda off: SynsetId(Pos.VERB, off)


def _entry(sid, term, relation=MappingRelation.EQUIVALENCE):
    return PropagatedEntry(sid, term, relation, term, 0)


def test_make_cq_id_sorts_and_sanitizes():
    assert make_cq_id(Pattern.ANTONYM_CLASS, ("Melting", "Freezing"), Polarity.TRUTH) == (
        "cq_antclass_freezing_melting"
    )
    assert make_cq_id(Pattern.EVENT_DISTINCT, ("Death", "Killing"), Polarity.FALSITY) == (
        "cq_event1_death_killing_falsity"
    )
    assert make_cq_id(Pattern.CREATIVE, ("Composing-Music",), Polarity.TRUTH) == (
        "cq_creative_composing_music"
    )


def test_negate_cq_flips_id_polarity_and_formula():
    cq = CompetencyQuestion(
        id="cq_antclass_a_b",
        polarity=Polarity.TRUTH,
        pattern=Pattern.ANTONYM_CLASS,
        formula=kif.parse_kif(
            "(not (exists (?X) (and (instance ?X A) (instance ?X B))))"
        )[0],
    )
    twin = negate_cq(cq)
    assert twin.id == "cq_antclass_a_b_falsity"
    assert twin.polarity is Polarity.FALSITY
    assert kif.print_kif(twin.formula) == (
        "(exists (?X) (and (instance ?X A) (instance ?X B)))"
    )
    back = negate_cq(twin)
    assert back.id == cq.id
    assert back.polarity is Polarity.TRUTH


# --------------------------------------------------------------------------
# antonym generator


def _attribute_index():
    # Awake and Asleep are attributes in the fixture core; Melting is a class
    from conftest import ONT
    from cqeval import ontology

    return ontology.build_index(ontology.load_ontology(ONT / "core.kif"))


def test_gen_antonym_class_pair():
    idx = _attribute_index()
    pairs = [(N("00000001"), N("00000002"))]
    entries = [_entry(N("00000001"), "Freezing"), _entry(N("00000002"), "Melting")]
    res = gen_antonym(pairs, entries, idx)
    (cq,) = res.questions
    assert cq.id == "cq_antclass_freezing_melting"
    assert cq.pattern is Pattern.ANTONYM_CLASS
    # the alphabetically later term comes first inside the conjunction
    assert kif.print_kif(cq.formula) == (
        "(not (exists (?X) (and (instance ?X Melting) (instance ?X Freezing))))"
    )
    assert cq.provenance.synsets == ("n:00000001", "n:00000002")
    assert res.skipped == {}


def test_gen_antonym_attribute_pair():
    idx = _attribute_index()
    pairs = [(N("00000001"), N("00000002"))]
    entries = [_entry(N("00000001"), "Awake"), _entry(N("00000002"), "Asleep")]
    (cq,) = gen_antonym(pairs, entries, idx).questions
    assert cq.pattern is Pattern.ANTONYM_ATTRIBUTE
    assert kif.print_kif(cq.formula) == (
        "(not (exists (?X) (and (attribute ?X Awake) (attribute ?X Asleep))))"
    )


def test_gen_antonym_skip_reasons():
    idx = _attribute_index()
    a, b, c, d = N("00000001"), N("00000002"), N("00000003"), N("00000004")
    pairs = [(a, b), (a, c), (a, d), (c, d), (a, b)]
    entries = [
        _entry(a, "Freezing"),
        _entry(b, "Melting", MappingRelation.SUBSUMPTION),
        _entry(c, "Freezing"),
        _entry(d, "Awake"),
    ]
    res = gen_antonym(pairs, entries, idx)
    assert res.questions == []
    # (a, b) appears twice and dies the same way both times
    assert res.skipped == {
        "non_equivalence": 2,
        "identical_terms": 1,
        "mixed_kind": 2,
    }


def test_gen_antonym_duplicate_terms_skipped():
    idx = _attribute_index()
    pairs = [(N("00000001"), N("00000002")), (N("00000003"), N("00000004"))]
    entries = [
        _entry(N("00000001"), "Freezing"),
        _entry(N("00000002"), "Melting"),
        _entry(N("00000003"), "Melting"),
        _entry(N("00000004"), "Freezing"),
    ]
    res = gen_antonym(pairs, entries, idx)
    assert len(res.questions) == 1
    assert res.skipped == {"duplicate": 1}


def test_gen_antonym_unmapped():
    idx = _attribute_index()
    res = gen_antonym([(N("00000001"), N("00000002"))], [], idx)
    assert res.skipped == {"unmapped": 1}


# --------------------------------------------------------------------------
# relation generator


def test_gen_relation_result_link():
    links = [MorphLink(V("00000001"), "result", N("00000002"))]
    entries = [
        _entry(V("00000001"), "ComposingMusic", MappingRelation.SUBSUMPTION),
        _entry(N("00000002"), "MusicalComposition"),
    ]
    (cq,) = gen_relation(links, entries).questions
    assert cq.id == "cq_relresult_composingmusic_musicalcomposition"
    assert kif.print_kif(cq.formula) == (
        "(exists (?X ?Y) (and (instance ?X ComposingMusic) "
        "(result ?X ?Y) (instance ?Y MusicalComposition)))"
    )
    assert cq.provenance.morph_relation == "result"


def test_gen_relation_skips():
    links = [
        MorphLink(V("00000001"), "event", N("00000002")),  # gen_event's
        MorphLink(V("00000003"), "agent", N("00000004")),
        MorphLink(V("00000005"), "instrument", N("00000006")),
        MorphLink(V("00000007"), "body-part", N("00000008")),
    ]
    entries = [
        _entry(V("00000003"), "Teaching"),
        _entry(N("00000004"), "Teacher", MappingRelation.NOT_EQUIVALENCE),
        _entry(V("00000005"), "Cutting"),
    ]
    res = gen_relation(links, entries)
    assert res.questions == []
    assert res.skipped == {"other_relation": 1, "complement_mapping": 1, "unmapped": 1}


def test_each_link_yields_one_question_or_one_skip():
    links = [
        MorphLink(V("00000001"), "agent", N("00000002")),
        MorphLink(V("00000001"), "agent", N("00000002")),  # duplicate
        MorphLink(V("00000003"), "result", N("00000009")),  # unmapped noun
        MorphLink(V("00000001"), "event", N("00000002")),
        MorphLink(V("00000001"), "event", N("00000004")),  # same constant
        MorphLink(V("00000003"), "event", N("00000005")),  # complement mapping
        MorphLink(V("00000001"), "body-part", N("00000002")),
        MorphLink(V("00000003"), "uses", N("00000005")),
    ]
    entries = [
        _entry(V("00000001"), "Teaching"),
        _entry(N("00000002"), "Teacher"),
        _entry(V("00000003"), "Cutting"),
        _entry(N("00000004"), "Teaching"),
        _entry(N("00000005"), "Knife", MappingRelation.NOT_SUBSUMPTION),
    ]
    parts = [gen_relation(links, entries), gen_event(links, entries)]
    questions = sum(len(res.questions) for res in parts)
    skips = sum(n for res in parts for n in res.skipped.values())
    assert (questions, skips) == (2, 6)
    assert questions + skips == len(links)
    assert sum(res.skipped.get("other_relation", 0) for res in parts) == 2


# --------------------------------------------------------------------------
# event generator


def _event_link(voff="00000001", noff="00000002"):
    return MorphLink(V(voff), "event", N(noff))


def test_gen_event_both_equivalent_distinctness():
    entries = [_entry(V("00000001"), "Death"), _entry(N("00000002"), "Killing")]
    (cq,) = gen_event([_event_link()], entries).questions
    assert cq.pattern is Pattern.EVENT_DISTINCT
    # the verb's class is the left operand
    assert kif.print_kif(cq.formula) == "(not (equal Death Killing))"


def test_gen_event_one_equivalent_not_subclass():
    entries = [
        _entry(V("00000001"), "Repairing"),
        _entry(N("00000002"), "Pretending", MappingRelation.SUBSUMPTION),
    ]
    (cq,) = gen_event([_event_link()], entries).questions
    assert cq.pattern is Pattern.EVENT_NOT_SUBCLASS
    # the equivalence-mapped class must not sit under the subsuming one
    assert kif.print_kif(cq.formula) == "(not (subclass Repairing Pretending))"

    flipped = [
        _entry(V("00000001"), "Pretending", MappingRelation.SUBSUMPTION),
        _entry(N("00000002"), "Repairing"),
    ]
    (cq2,) = gen_event([_event_link()], flipped).questions
    assert kif.print_kif(cq2.formula) == "(not (subclass Repairing Pretending))"


def test_gen_event_both_subsumed_neither_direction():
    entries = [
        _entry(V("00000001"), "Judging", MappingRelation.SUBSUMPTION),
        _entry(N("00000002"), "Comparing", MappingRelation.SUBSUMPTION),
    ]
    (cq,) = gen_event([_event_link()], entries).questions
    assert cq.pattern is Pattern.EVENT_EITHER_SUBCLASS
    assert kif.print_kif(cq.formula) == (
        "(not (or (subclass Judging Comparing) (subclass Comparing Judging)))"
    )


def test_gen_event_same_constant_skipped():
    entries = [_entry(V("00000001"), "Repairing"), _entry(N("00000002"), "Repairing")]
    res = gen_event([_event_link()], entries)
    assert res.questions == []
    assert res.skipped == {"same_constant": 1}


# --------------------------------------------------------------------------
# creative questions


def test_load_creative_fixture():
    cqs = load_creative(CREATIVE)
    assert [cq.id for cq in cqs] == [
        "cq_creative_boys_domestic",
        "cq_creative_man_pregnant",
        "cq_creative_organisms_dead",
    ]
    assert [cq.polarity for cq in cqs] == [Polarity.TRUTH, Polarity.TRUTH, Polarity.FALSITY]
    assert all(cq.pattern is Pattern.CREATIVE for cq in cqs)


def test_load_creative_requires_annotations(tmp_path):
    p = tmp_path / "bad.kif"
    p.write_text(";; id: cq_x\n(p a)\n")
    with pytest.raises(Error, match="bad.kif:2: form lacks a polarity annotation"):
        load_creative(p)
    p.write_text(";; polarity: truth\n(p a)\n")
    with pytest.raises(Error, match="bad.kif:2: form lacks an id annotation"):
        load_creative(p)


def test_load_creative_rejects_duplicate_ids(tmp_path):
    p = tmp_path / "dup.kif"
    p.write_text(
        ";; id: cq_x\n;; polarity: truth\n(p a)\n"
        ";; id: cq_x\n;; polarity: truth\n(q b)\n"
    )
    with pytest.raises(Error, match="dup.kif:6: duplicate id 'cq_x'"):
        load_creative(p)


# --------------------------------------------------------------------------
# triviality screen


def _creative(formula_src, polarity=Polarity.TRUTH):
    return CompetencyQuestion(
        id="cq_creative_probe",
        polarity=polarity,
        pattern=Pattern.CREATIVE,
        formula=kif.parse_kif(formula_src)[0],
    )


def test_check_nontriviality_flags_self_proving_implication():
    trivial = _creative("(=> (instance ?X Boy) (instance ?X Boy))")
    assert check_nontriviality(trivial, microprover.prove) is False


def test_check_nontriviality_passes_substantive_implication():
    real = _creative("(=> (instance ?X Boy) (not (instance ?X DomesticAnimal)))")
    assert check_nontriviality(real, microprover.prove) is True


def test_check_nontriviality_ignores_non_implications():
    calls = []

    def prover(axioms, conjecture):
        calls.append(conjecture)
        raise AssertionError("should not be consulted")

    exist = _creative("(exists (?X) (instance ?X Boy))")
    assert check_nontriviality(exist, prover) is True
    assert calls == []


# --------------------------------------------------------------------------
# whole corpus (over the session pipeline's stores)


def test_generated_corpus_counts(corpus):
    counts = corpus.counts()
    assert counts[("truth", "antonym")] == 3
    assert counts[("falsity", "antonym")] == 3
    assert counts[("truth", "relation")] == 3
    assert counts[("truth", "event1")] == 1
    assert counts[("truth", "event2")] == 1
    assert counts[("truth", "event3")] == 1
    assert counts[("truth", "creative")] == 2
    assert counts[("falsity", "creative")] == 1
    assert counts[("truth", "total")] == 11
    assert counts[("falsity", "total")] == 10
    assert len(corpus.questions) == 21


def test_generated_corpus_twin_structure(corpus):
    by_id = corpus.by_id()
    for cq in corpus.questions:
        if cq.pattern is Pattern.CREATIVE:
            continue
        twin_id = (
            cq.id[: -len("_falsity")] if cq.id.endswith("_falsity") else cq.id + "_falsity"
        )
        twin = by_id[twin_id]
        assert twin.polarity is not cq.polarity
        assert twin.pattern is cq.pattern
        assert twin.provenance == cq.provenance


def test_generate_corpus_rejects_duplicate_ids(tmp_path, core_index):
    creative = tmp_path / "clash.kif"
    creative.write_text(
        ";; id: cq_antclass_freezing_melting\n;; polarity: truth\n(p a)\n"
    )
    pairs = [(N("00000001"), N("00000002"))]
    entries = [_entry(N("00000001"), "Freezing"), _entry(N("00000002"), "Melting")]
    with pytest.raises(Error, match="duplicate question ids"):
        generate_corpus(pairs, [], entries, core_index, creative)


def test_record_round_trip():
    cq = CompetencyQuestion(
        id="cq_relagent_teacher_teaching",
        polarity=Polarity.TRUTH,
        pattern=Pattern.RELATION_AGENT,
        formula=kif.parse_kif(
            "(exists (?X ?Y) (and (instance ?X Teaching) (agent ?X ?Y) "
            "(instance ?Y Teacher)))"
        )[0],
        provenance=Provenance(
            synsets=("v:02700700", "n:01801111"),
            terms=("Teaching", "Teacher"),
            morph_relation="agent",
        ),
    )
    assert cq_from_record(cq_to_record(cq)) == cq
