"""Lexicon file parsing: synset data, mapping annotations, sense keys,
verb-noun link tables."""

import pytest

from conftest import WN
from cqeval import Error
from cqeval.wordnet import (
    MappingRelation,
    MorphLink,
    Pos,
    SynsetId,
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
    corpus = parse_wn_data((WN / "data.noun").read_text())
    assert len(corpus.synsets) == 15
    assert SynsetId(Pos.NOUN, "00001740") in corpus.synsets
    assert SynsetId(Pos.NOUN, "00200404") in corpus.synsets
    assert len(corpus.antonym_pairs) == 3


def test_parse_wn_data_antonym_pairs_are_unordered():
    # whisper and shout point at each other; one pair, not two
    corpus = parse_wn_data((WN / "data.verb").read_text())
    assert len(corpus.antonym_pairs) == 1
    ((a, b),) = corpus.antonym_pairs
    assert (a.offset, b.offset) == ("02500500", "02600600")


def test_parse_wn_data_satellite_adjectives():
    corpus = parse_wn_data((WN / "data.adj").read_text())
    assert SynsetId(Pos.ADJ, "03000300") in corpus.synsets


def test_parse_wn_data_skips_license_header():
    text = "  1 this is a header line\n00000001 03 n 01 thing 0 000 | a gloss\n"
    corpus = parse_wn_data(text)
    assert corpus.synsets == {SynsetId(Pos.NOUN, "00000001")}


def test_parse_wn_data_hex_word_count():
    words = " ".join(f"w{i} 0" for i in range(12))
    # the antonym pointer is found only past all twelve words
    text = f"00000002 03 n 0c {words} 001 ! 00000003 n 0000\n"
    corpus = parse_wn_data(text)
    assert corpus.antonym_pairs == {(SynsetId(Pos.NOUN, "00000002"),
                                     SynsetId(Pos.NOUN, "00000003"))}


@pytest.mark.parametrize(
    "line, reason",
    [
        ("00000001 03", "truncated"),
        ("00000001 03 x 01 thing 0 000", "ss_type"),
        ("00000001 03 n zz thing 0 000", "word count"),
        ("00000001 03 n 02 thing 0 000", "shorter than its count"),
        ("00000001 03 n 01 thing 0 001 ! 00000002", "pointer list"),
        ("123 03 n 01 thing 0 000", "synset record has offset '123'"),
        ("00000001 03 n 01 thing 0 001 ! 123 n 0000", "pointer target has offset '123'"),
        ("00000001 03 n 01 thing 0 001 ! 00000002 x 0000", "pointer target has unknown ss_type"),
    ],
)
def test_parse_wn_data_rejects_malformed(line, reason):
    with pytest.raises(Error, match=reason) as e:
        parse_wn_data("  header\n" + line + "\n")
    assert e.value.line == 2


def test_parse_wn_data_rejects_duplicate_synset():
    text = (
        "00000001 03 n 01 thing 0 000 | one\n"
        "00000001 03 n 01 item 0 000 | two\n"
    )
    with pytest.raises(Error, match="^2: synset n:00000001 defined twice$"):
        parse_wn_data(text)


def test_merged_with_combines_corpora():
    nouns = parse_wn_data((WN / "data.noun").read_text())
    verbs = parse_wn_data((WN / "data.verb").read_text())
    merged = nouns.merged_with(verbs)
    assert len(merged.synsets) == 15 + 8
    assert len(merged.antonym_pairs) == 4


# --------------------------------------------------------------------------
# mapping annotations


def test_parse_mapping_fixture_noun():
    parsed = parse_mapping_file((WN / "WordNetMappings30-noun.txt").read_text())
    assert len(parsed.entries) == 14
    assert parsed.skipped == 1  # the pebble row has no annotation
    assert len(parsed.warnings) == 1
    assert "&%Fish+" in parsed.warnings[0].reason
    by_offset = {e.synset.offset: e for e in parsed.entries}
    assert by_offset["00100101"].term == "Freezing"
    assert by_offset["00100101"].relation is MappingRelation.EQUIVALENCE
    assert by_offset["01701010"].term == "Comparing"
    assert by_offset["01701010"].relation is MappingRelation.SUBSUMPTION


def test_parse_mapping_first_annotation_wins():
    line = "00100101 00 n 01 frozen 0 000 | g &%First= &%Second+\n"
    parsed = parse_mapping_file(line)
    assert [e.term for e in parsed.entries] == ["First"]
    assert [str(w) for w in parsed.warnings] == ["1: extra annotation &%Second+ ignored"]


def test_parse_mapping_rejects_unlisted_suffix():
    line = "00100101 00 n 01 frozen 0 000 | g &%Thing:\n"
    with pytest.raises(Error, match="^1: mapping suffix ':' on 'Thing' not enabled$"):
        parse_mapping_file(line)
    parsed = parse_mapping_file(line, suffixes=ALL_SUFFIXES)
    assert parsed.entries[0].relation is MappingRelation.NOT_EQUIVALENCE


def test_parse_mapping_rejects_non_synset_line():
    with pytest.raises(Error, match="synset record"):
        parse_mapping_file("here is &%Prose= about mappings\n")


def test_parse_mapping_rejects_truncated_record():
    # the data files' rule: a record needs offset, lex_filenum, ss_type, w_cnt
    with pytest.raises(Error, match="^2: truncated synset record$"):
        parse_mapping_file("00100101 00 n 01 frozen 0 000 | g &%Freezing=\n00100202 26\n")


def test_parse_mapping_skips_headers_and_counts_bare_lines():
    text = (
        "  leading double space header\n"
        "00100101 00 n 01 frozen 0 000 | no annotation here\n"
    )
    parsed = parse_mapping_file(text)
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
    with pytest.raises(Error, match="^2: sense key 'cat%1:05:00::' appears twice$"):
        parse_sense_index(text)


def test_parse_sense_index_needs_pos_digit():
    with pytest.raises(Error, match="part of speech"):
        parse_sense_index("catnosense 00000001 1 1\n")


def test_parse_sense_index_rejects_bad_offset():
    with pytest.raises(Error, match="^2: sense index entry has offset '123'"):
        parse_sense_index("cat%1:05:00:: 00000001 1 1\ndog%1:05:00:: 123 1 1\n")


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
    with pytest.raises(Error, match="^1: unknown morphosemantic relation 'cousin-of'$"):
        parse_morphosemantic("a%2:00:00::\tcousin-of\tb%1:00:00::\n", index)


def test_parse_morphosemantic_rejects_unresolved_key():
    with pytest.raises(Error, match="^1: 'a%2:00:00::' not in the sense index$"):
        parse_morphosemantic("a%2:00:00::\tagent\tb%1:00:00::\n", {})


def test_parse_morphosemantic_rejects_a_noun_as_verb():
    index = {"a%1:00:00::": SynsetId(Pos.NOUN, "00000001"),
             "b%1:00:00::": SynsetId(Pos.NOUN, "00000002")}
    with pytest.raises(Error, match="^1: morphosemantic source n:00000001"):
        parse_morphosemantic("a%1:00:00::\tagent\tb%1:00:00::\n", index)


def test_parse_morphosemantic_comma_separated():
    index = {"a%2:00:00::": SynsetId(Pos.VERB, "00000001"),
             "b%1:00:00::": SynsetId(Pos.NOUN, "00000002")}
    links = parse_morphosemantic("a%2:00:00::,AGENT,b%1:00:00::\n", index)
    assert links == [MorphLink(index["a%2:00:00::"], "agent", index["b%1:00:00::"])]


def test_morph_link_checks_parts_of_speech():
    with pytest.raises(ValueError):
        MorphLink(SynsetId(Pos.NOUN, "00000001"), "agent", SynsetId(Pos.NOUN, "00000002"))
