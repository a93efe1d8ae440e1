"""Readers for WordNet database files and their ontology mapping.

Four file families are understood:

* ``data.{noun,verb,adj,adv}``: synset records, from which the synset
  ids and antonym pointers are taken;
* mapping files: the same records re-annotated with ``&%Term=`` style
  tags tying a synset to an ontology term; one reader opens the records
  of both;
* ``index.sense``: sense keys to synset offsets, needed to resolve the
  morphosemantic links;
* morphosemantic link tables (TSV or CSV): verb sense, relation name,
  noun sense.

Everything returns plain frozen records; no global state, no lexicon
singletons.  Malformed input raises a :class:`cqeval.Error` naming the
line; every synset offset and type read is checked the same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import Error


class Pos(Enum):
    NOUN = "n"
    VERB = "v"
    ADJ = "a"
    ADV = "r"

    def __lt__(self, other):
        if isinstance(other, Pos):
            return self.value < other.value
        return NotImplemented


_SS_TYPE = {"n": Pos.NOUN, "v": Pos.VERB, "a": Pos.ADJ, "s": Pos.ADJ, "r": Pos.ADV}
_SENSE_SS_TYPE = {"1": "n", "2": "v", "3": "a", "4": "r", "5": "s"}  # by a sense key's digit

_OFFSET_RE = re.compile(r"^\d{8}$")


@dataclass(frozen=True, order=True)
class SynsetId:
    pos: Pos
    offset: str

    def __post_init__(self):
        if not _OFFSET_RE.match(self.offset):
            raise ValueError(f"synset offset must be 8 digits, got {self.offset!r}")

    @property
    def key(self) -> str:
        return f"{self.pos.value}:{self.offset}"

    def __str__(self):
        return self.key

    @classmethod
    def from_key(cls, key: str) -> "SynsetId":
        pos_value, _, offset = key.partition(":")
        return cls(Pos(pos_value), offset)


@dataclass
class WordNetCorpus:
    synsets: frozenset  # of SynsetId
    antonym_pairs: frozenset  # of AntonymPair

    def merged_with(self, other: "WordNetCorpus") -> "WordNetCorpus":
        return WordNetCorpus(self.synsets | other.synsets,
                             self.antonym_pairs | other.antonym_pairs)


class AntonymPair(NamedTuple):
    """Two synsets whose senses are antonyms, the lesser first."""

    a: SynsetId
    b: SynsetId


def _antonym_pair(a: SynsetId, b: SynsetId) -> AntonymPair:
    return AntonymPair(a, b) if a <= b else AntonymPair(b, a)


def _synset_id(line_no: int, ss_type: str, offset: str, where: str) -> SynsetId:
    """The synset that ``ss_type`` and ``offset`` name; either one malformed
    raises, naming the line and ``where`` on it the pair was read."""
    if ss_type not in _SS_TYPE:
        raise Error(f"{where} has unknown ss_type {ss_type!r}", line_no)
    if not _OFFSET_RE.match(offset):
        raise Error(f"{where} has offset {offset!r}, not 8 digits", line_no)
    return SynsetId(_SS_TYPE[ss_type], offset)


def _records(text: str):
    """``(line number, line, fields, synset)`` for each synset record of a
    data or mapping file, where ``fields`` are those before the gloss.

    Header lines (leading double space) and blank lines are skipped.
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("  "):
            continue
        fields = raw.partition("|")[0].split()
        if len(fields) < 4:
            raise Error("truncated synset record", line_no)
        yield line_no, raw, fields, _synset_id(line_no, fields[2], fields[0], "synset record")


def parse_wn_data(text: str) -> WordNetCorpus:
    """Parse one ``data.<pos>`` file.

    Antonym pointers are lemma-level in the source; they collapse here to
    unordered synset pairs.
    """
    synsets: set = set()
    antonyms: set = set()
    for line_no, _, fields, sid in _records(text):
        try:
            w_cnt = int(fields[3], 16)
        except ValueError:
            raise Error(f"bad word count {fields[3]!r}", line_no) from None
        i = 4 + 2 * max(w_cnt, 0)  # past the words, each followed by its lex_id
        if i > len(fields):
            raise Error("word list shorter than its count", line_no)
        if i == len(fields):
            raise Error("missing pointer count", line_no)
        try:
            p_cnt = int(fields[i], 10)
        except ValueError:
            raise Error(f"bad pointer count {fields[i]!r}", line_no) from None
        i += 1
        for _ in range(p_cnt):
            if i + 3 >= len(fields):
                raise Error("pointer list shorter than its count", line_no)
            symbol, tgt_offset, tgt_pos = fields[i], fields[i + 1], fields[i + 2]
            i += 4  # symbol, offset, pos, source/target
            if symbol == "!":
                target = _synset_id(line_no, tgt_pos, tgt_offset, "pointer target")
                antonyms.add(_antonym_pair(sid, target))
        # verb frames and anything else after the pointers are ignored
        if sid in synsets:
            raise Error(f"synset {sid} defined twice", line_no)
        synsets.add(sid)
    return WordNetCorpus(frozenset(synsets), frozenset(antonyms))


# --------------------------------------------------------------------------
# ontology mapping annotations


class MappingRelation(Enum):
    EQUIVALENCE = "="
    SUBSUMPTION = "+"
    INSTANCE = "@"
    NOT_EQUIVALENCE = ":"
    NOT_SUBSUMPTION = "["


_SUFFIX_TO_RELATION = {r.value: r for r in MappingRelation}

# Complement suffixes exist in the wild but carry no positive content for
# question generation, so they are opt-in.
DEFAULT_SUFFIXES = frozenset({"=", "+", "@"})


@dataclass(frozen=True)
class MappingEntry:
    synset: SynsetId
    term: str
    relation: MappingRelation


@dataclass
class MappingParse:
    entries: list
    skipped: int
    warnings: list  # of Error, each naming its line, none raised


_ANNOTATION_RE = re.compile(r"&%(\S+)")


def parse_mapping_file(text: str, suffixes: frozenset = DEFAULT_SUFFIXES) -> MappingParse:
    """Extract ``&%Term<suffix>`` annotations from a mapping file.

    The first annotation on a line is the synset's mapping; later ones are
    reported as warnings.  Lines without any annotation count as skipped.
    A suffix outside ``suffixes`` raises, since silently narrowing the
    mapping would skew every downstream count.
    """
    entries: list = []
    warnings: list = []
    skipped = 0
    for line_no, raw, _, sid in _records(text):
        tokens = _ANNOTATION_RE.findall(raw)
        if not tokens:
            skipped += 1
            continue
        first = tokens[0]
        term, suffix = first[:-1], first[-1]
        if suffix not in _SUFFIX_TO_RELATION:
            raise Error(f"annotation {first!r} has no relation suffix", line_no)
        if suffix not in suffixes:
            raise Error(f"mapping suffix {suffix!r} on {term!r} not enabled", line_no)
        if not term:
            raise Error("empty term in annotation", line_no)
        entries.append(MappingEntry(sid, term, _SUFFIX_TO_RELATION[suffix]))
        for extra in tokens[1:]:
            warnings.append(Error(f"extra annotation &%{extra} ignored", line_no))
    return MappingParse(entries, skipped, warnings)


# --------------------------------------------------------------------------
# sense index and morphosemantic links


def parse_sense_index(text: str) -> dict:
    """``index.sense`` lines: sense_key synset_offset sense_number tag_cnt."""
    index: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        fields = raw.split()
        if len(fields) < 2:
            raise Error("truncated sense index line", line_no)
        key, offset = fields[0], fields[1]
        m = re.search(r"%(\d)", key)
        if not m or m.group(1) not in _SENSE_SS_TYPE:
            raise Error(f"sense key {key!r} has no part of speech", line_no)
        if key in index:
            raise Error(f"sense key {key!r} appears twice", line_no)
        index[key] = _synset_id(line_no, _SENSE_SS_TYPE[m.group(1)], offset,
                                "sense index entry")
    return index


KNOWN_MORPH_RELATIONS = frozenset({
    "agent", "body-part", "by-means-of", "destination", "event",
    "instrument", "location", "material", "property", "result",
    "state", "undergoer", "uses", "vehicle",
})

@dataclass(frozen=True)
class MorphLink:
    verb: SynsetId
    relation: str
    noun: SynsetId

    def __post_init__(self):
        if self.verb.pos is not Pos.VERB:
            raise ValueError(f"morphosemantic source {self.verb} is not a verb synset")
        if self.noun.pos is not Pos.NOUN:
            raise ValueError(f"morphosemantic target {self.noun} is not a noun synset")


def parse_morphosemantic(text: str, sense_index: dict) -> list:
    """Read a verb-noun link table.  Tab or comma separated; an optional
    header row is recognized by its first field not being a sense key."""
    links: list = []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        sep = "\t" if "\t" in raw else ","
        fields = [f.strip() for f in raw.split(sep)]
        if line_no == 1 and fields and "%" not in fields[0]:
            continue
        if len(fields) < 3:
            raise Error("link row needs verb, relation, noun", line_no)
        verb_key, relation, noun_key = fields[0], fields[1].lower(), fields[2]
        if relation not in KNOWN_MORPH_RELATIONS:
            raise Error(f"unknown morphosemantic relation {relation!r}", line_no)
        for key in (verb_key, noun_key):
            if key not in sense_index:
                raise Error(f"{key!r} not in the sense index", line_no)
        try:
            links.append(MorphLink(sense_index[verb_key], relation, sense_index[noun_key]))
        except ValueError as e:  # a sense of the wrong part of speech
            raise Error(str(e), line_no) from None
    return links
