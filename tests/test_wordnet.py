"""Lexicon file parsing: synset data, mapping annotations, sense keys,
verb-noun link tables."""

import pytest

from conftest import WN
from cqeval.wordnet import (
    DataFormatError,
    DuplicateKey,
    MappingRelation,
    MorphLink,
    Pos,
    SynsetId,
    UnknownMorphRelation,
    UnknownSuffix,
    UnresolvedSenseKey,
    parse_mapping_file,
    parse_morphosemantic,
    parse_sense_index,
    parse_wn_data,
)

ALL_SUFFIXES = frozenset(r.value for r in MappingRelation)


def test_synset_id_key_round_trip():
    sid = SynsetId(Pos.VERB, "02500500")
    assert sid.key == "v:02500500"
    assert SynsetId.from_key("v:02500500") == sid
    with pytest.raises(ValueError):
        SynsetId(Pos.NOUN, "123")


def test_synset_id_ordering_is_pos_then_offset():
    a = SynsetId(Pos.ADJ, "99999999")
    n = SynsetId(Pos.NOUN, "00000001")
    v = SynsetId(Pos.VERB, "00000001")
    r = SynsetId(Pos.ADV, "00000001")
    assert sorted([v, r, n, a]) == [a, n, r, v]


def test_parse_wn_data_fixture_noun():
    corpus = parse_wn_data((WN / "data.noun").read_text(), Pos.NOUN)
    assert len(corpus.synsets) == 15
    entity = corpus.synsets[SynsetId(Pos.NOUN, "00001740")]
    assert entity.words == ("entity",)
    sleeping = corpus.synsets[SynsetId(Pos.NOUN, "00200404")]
    assert sleeping.words == ("sleeping", "slumber")
    assert len(corpus.antonym_pairs) == 3


def test_parse_wn_data_antonym_pairs_are_unordered():
    # whisper and shout point at each other; one pair, not two
    corpus = parse_wn_data((WN / "data.verb").read_text(), Pos.VERB)
    assert len(corpus.antonym_pairs) == 1
    ((a, b),) = corpus.antonym_pairs
    assert (a.offset, b.offset) == ("02500500", "02600600")


def test_parse_wn_data_satellite_adjectives():
    corpus = parse_wn_data((WN / "data.adj").read_text(), Pos.ADJ)
    arid = corpus.synsets[SynsetId(Pos.ADJ, "03000300")]
    assert arid.words == ("arid",)


def test_parse_wn_data_skips_license_header():
    text = "  1 this is a header line\n00000001 03 n 01 thing 0 000 | a gloss\n"
    corpus = parse_wn_data(text, Pos.NOUN)
    assert len(corpus.synsets) == 1
    assert corpus.synsets[SynsetId(Pos.NOUN, "00000001")].gloss == "a gloss"


def test_parse_wn_data_hex_word_count():
    words = " ".join(f"w{i} 0" for i in range(12))
    text = f"00000002 03 n 0c {words} 000\n"
    corpus = parse_wn_data(text, Pos.NOUN)
    assert len(corpus.synsets[SynsetId(Pos.NOUN, "00000002")].words) == 12


@pytest.mark.parametrize(
    "line, reason",
    [
        ("00000001 03", "truncated"),
        ("00000001 03 x 01 thing 0 000", "ss_type"),
        ("00000001 03 n zz thing 0 000", "word count"),
        ("00000001 03 n 02 thing 0 000", "shorter than its count"),
        ("00000001 03 n 01 thing 0 001 ! 00000002", "pointer list"),
    ],
)
def test_parse_wn_data_rejects_malformed(line, reason):
    with pytest.raises(DataFormatError, match=reason):
        parse_wn_data(line + "\n", Pos.NOUN)


def test_parse_wn_data_rejects_duplicate_synset():
    text = (
        "00000001 03 n 01 thing 0 000 | one\n"
        "00000001 03 n 01 item 0 000 | two\n"
    )
    with pytest.raises(DataFormatError, match="twice"):
        parse_wn_data(text, Pos.NOUN)


def test_merged_with_combines_corpora():
    nouns = parse_wn_data((WN / "data.noun").read_text(), Pos.NOUN)
    verbs = parse_wn_data((WN / "data.verb").read_text(), Pos.VERB)
    merged = nouns.merged_with(verbs)
    assert len(merged.synsets) == 15 + 8
    assert len(merged.antonym_pairs) == 4


# --------------------------------------------------------------------------
# mapping annotations


def test_parse_mapping_fixture_noun():
    parsed = parse_mapping_file((WN / "WordNetMappings30-noun.txt").read_text(), Pos.NOUN)
    assert len(parsed.entries) == 14
    assert parsed.skipped == 1  # the pebble row has no annotation
    assert len(parsed.warnings) == 1
    assert "&%Fish+" in parsed.warnings[0]
    by_offset = {e.synset.offset: e for e in parsed.entries}
    assert by_offset["00100101"].term == "Freezing"
    assert by_offset["00100101"].relation is MappingRelation.EQUIVALENCE
    assert by_offset["01701010"].term == "Comparing"
    assert by_offset["01701010"].relation is MappingRelation.SUBSUMPTION


def test_parse_mapping_first_annotation_wins():
    line = "00100101 00 n 01 frozen 0 000 | g &%First= &%Second+\n"
    parsed = parse_mapping_file(line, Pos.NOUN)
    assert [e.term for e in parsed.entries] == ["First"]
    assert parsed.warnings == ["line 1: extra annotation &%Second+ ignored"]


def test_parse_mapping_rejects_unlisted_suffix():
    line = "00100101 00 n 01 frozen 0 000 | g &%Thing:\n"
    with pytest.raises(UnknownSuffix):
        parse_mapping_file(line, Pos.NOUN)
    parsed = parse_mapping_file(line, Pos.NOUN, suffixes=ALL_SUFFIXES)
    assert parsed.entries[0].relation is MappingRelation.NOT_EQUIVALENCE


def test_parse_mapping_rejects_non_synset_line():
    with pytest.raises(DataFormatError, match="synset record"):
        parse_mapping_file("here is &%Prose= about mappings\n", Pos.NOUN)


def test_parse_mapping_skips_headers_and_counts_bare_lines():
    text = (
        "  leading double space header\n"
        "00100101 00 n 01 frozen 0 000 | no annotation here\n"
    )
    parsed = parse_mapping_file(text, Pos.NOUN)
    assert parsed.entries == []
    assert parsed.skipped == 1


# --------------------------------------------------------------------------
# sense index and links


def test_parse_sense_index_fixture():
    index = parse_sense_index((WN / "index.sense").read_text())
    assert index["kill%2:35:10::"] == SynsetId(Pos.VERB, "02100100")
    assert index["appraisal%1:09:01::"] == SynsetId(Pos.NOUN, "01701010")


def test_parse_sense_index_rejects_duplicates():
    text = "cat%1:05:00:: 00000001 1 1\ncat%1:05:00:: 00000002 2 1\n"
    with pytest.raises(DuplicateKey):
        parse_sense_index(text)


def test_parse_sense_index_needs_pos_digit():
    with pytest.raises(DataFormatError, match="part of speech"):
        parse_sense_index("catnosense 00000001 1 1\n")


def test_parse_morphosemantic_fixture():
    index = parse_sense_index((WN / "index.sense").read_text())
    links = parse_morphosemantic((WN / "morphosemantic.tsv").read_text(), index)
    assert len(links) == 7
    relations = sorted(ln.relation for ln in links)
    assert relations == [
        "agent", "body-part", "event", "event", "event", "instrument", "result",
    ]
    # the header row was recognized and dropped, not parsed as a link
    assert all(ln.verb.pos is Pos.VERB for ln in links)


def test_parse_morphosemantic_rejects_unknown_relation():
    index = {"a%2:00:00::": SynsetId(Pos.VERB, "00000001"),
             "b%1:00:00::": SynsetId(Pos.NOUN, "00000002")}
    with pytest.raises(UnknownMorphRelation):
        parse_morphosemantic("a%2:00:00::\tcousin-of\tb%1:00:00::\n", index)


def test_parse_morphosemantic_rejects_unresolved_key():
    with pytest.raises(UnresolvedSenseKey):
        parse_morphosemantic("a%2:00:00::\tagent\tb%1:00:00::\n", {})


def test_parse_morphosemantic_comma_separated():
    index = {"a%2:00:00::": SynsetId(Pos.VERB, "00000001"),
             "b%1:00:00::": SynsetId(Pos.NOUN, "00000002")}
    links = parse_morphosemantic("a%2:00:00::,AGENT,b%1:00:00::\n", index)
    assert links == [MorphLink(index["a%2:00:00::"], "agent", index["b%1:00:00::"])]


def test_morph_link_checks_parts_of_speech():
    with pytest.raises(ValueError):
        MorphLink(SynsetId(Pos.NOUN, "00000001"), "agent", SynsetId(Pos.NOUN, "00000002"))
