"""Competency question generation.

Three generators mine question candidates from lexical facts:

* antonym synset pairs whose terms cannot overlap (class pattern) or be
  borne together (attribute pattern);
* morphosemantic verb-noun links restated through the ontology's agent,
  result and instrument relations;
* event links, where verb and noun map to classes that should relate in
  a specific way (distinct, not a subclass, or possibly a subclass).

The three share one driver.  It looks up the core entries of both
synsets of an item, skipping an unmapped one; asks the family's rule
for a skip reason or the question's pattern and formula; drops a repeat
of an earlier question's pattern and terms; builds the question's id
and provenance; and counts every skip by reason.

Each generated truth question has a falsity twin obtained by negating
the formula into negation normal form.  Hand-written questions load from
an annotated KIF file and keep whatever polarity they declare.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from . import Error, kif, read_text
from .kif import And, Atom, Constant, Equal, Exists, Forall, Formula, Implies, Not, Or, Variable
from .ontology import OntologyIndex
from .tptp import SzsStatus
from .wordnet import MappingRelation


class Polarity(Enum):
    TRUTH = "truth"
    FALSITY = "falsity"


class Pattern(Enum):
    ANTONYM_CLASS = "antclass"
    ANTONYM_ATTRIBUTE = "antattr"
    RELATION_AGENT = "relagent"
    RELATION_RESULT = "relresult"
    RELATION_INSTRUMENT = "relinstrument"
    EVENT_DISTINCT = "event1"
    EVENT_NOT_SUBCLASS = "event2"
    EVENT_EITHER_SUBCLASS = "event3"
    CREATIVE = "creative"

    @property
    def family(self) -> str:
        if self.value.startswith("ant"):
            return "antonym"
        if self.value.startswith("rel"):
            return "relation"
        return self.value


FAMILIES = ("antonym", "relation", "event1", "event2", "event3", "creative")


@dataclass(frozen=True)
class Provenance:
    synsets: tuple[str, ...] = ()
    terms: tuple[str, ...] = ()
    morph_relation: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "synsets", tuple(self.synsets))
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class CompetencyQuestion:
    id: str
    polarity: Polarity
    pattern: Pattern
    formula: Formula
    provenance: Provenance = Provenance()


_ID_SAFE = re.compile(r"[^a-z0-9]+")

FALSITY_SUFFIX = "_falsity"


def make_cq_id(pattern: Pattern, terms, polarity: Polarity) -> str:
    """Stable question id: pattern tag plus the sorted, lowercased terms.

    Truth ids carry no polarity marker (they double as TPTP conjecture
    names); the falsity twin appends a suffix.
    """
    parts = sorted(_ID_SAFE.sub("_", t.lower()).strip("_") for t in terms)
    base = "cq_" + pattern.value + "_" + "_".join(parts)
    if polarity is Polarity.FALSITY:
        base += FALSITY_SUFFIX
    return base


def _flip_id(cq_id: str) -> str:
    if cq_id.endswith(FALSITY_SUFFIX):
        return cq_id[: -len(FALSITY_SUFFIX)]
    return cq_id + FALSITY_SUFFIX


def negate_cq(cq: CompetencyQuestion) -> CompetencyQuestion:
    """The dual question: flipped polarity, NNF of the negated formula."""
    return CompetencyQuestion(
        id=_flip_id(cq.id),
        polarity=Polarity.FALSITY if cq.polarity is Polarity.TRUTH else Polarity.TRUTH,
        pattern=cq.pattern,
        formula=kif.nnf(cq.formula, positive=False),
        provenance=cq.provenance,
    )


@dataclass
class Corpus:
    questions: list
    skipped: Counter = field(default_factory=Counter)  # reason -> count

    def by_id(self) -> dict:
        return {cq.id: cq for cq in self.questions}

    def counts(self) -> dict:
        """{(polarity value, family): count} plus per-polarity totals."""
        out: Counter = Counter()
        for cq in self.questions:
            out[(cq.polarity.value, cq.pattern.family)] += 1
            out[(cq.polarity.value, "total")] += 1
        return out


# --------------------------------------------------------------------------
# the generators' shared driver


def _generate(items, core_entries, rule, skipped=()) -> Corpus:
    """Truth questions from ``(synset, synset, link relation)`` items.

    Both synsets must be mapped into the core; ``rule(entry, entry, link
    relation)`` then returns a skip reason or the question's ``(pattern,
    formula)``.  A question whose pattern and terms an earlier one has
    is a duplicate.  ``skipped`` holds counts taken before the lookup.
    """
    by_synset: dict = {}
    for e in core_entries:
        by_synset.setdefault(e.synset, e)
    out = Corpus([], Counter(skipped))
    seen: set = set()
    for a, b, morph in items:
        ea, eb = by_synset.get(a), by_synset.get(b)
        if ea is None or eb is None:
            out.skipped["unmapped"] += 1
            continue
        made = rule(ea, eb, morph)
        if isinstance(made, str):
            out.skipped[made] += 1
            continue
        pattern, formula = made
        # an antonym pair is unordered, so its terms are listed sorted; a
        # link's run from verb to noun
        terms = (ea.term, eb.term) if morph else tuple(sorted((ea.term, eb.term)))
        key = (pattern, tuple(sorted(terms)))
        if key in seen:
            out.skipped["duplicate"] += 1
            continue
        seen.add(key)
        out.questions.append(CompetencyQuestion(
            id=make_cq_id(pattern, terms, Polarity.TRUTH),
            polarity=Polarity.TRUTH,
            pattern=pattern,
            formula=formula,
            provenance=Provenance(synsets=(a.key, b.key), terms=terms, morph_relation=morph),
        ))
    return out


_EQ = MappingRelation.EQUIVALENCE

_POSITIVE = (MappingRelation.EQUIVALENCE, MappingRelation.SUBSUMPTION)


def _link_order(ln):
    return (ln.verb.key, ln.relation, ln.noun.key)


# --------------------------------------------------------------------------
# antonym patterns


def gen_antonym(pairs, core_entries, idx: OntologyIndex) -> Corpus:
    """Truth questions from antonym pairs mapped by equivalence on both
    sides.  Attribute terms use the attribute pattern, class terms the
    instance pattern; a mixed pair means the mapping itself is suspect and
    is skipped rather than guessed at."""

    def rule(ea, eb, _):
        if ea.relation is not _EQ or eb.relation is not _EQ:
            return "non_equivalence"
        if ea.term == eb.term:
            return "identical_terms"
        attr = idx.is_attribute(ea.term)
        if attr != idx.is_attribute(eb.term):
            return "mixed_kind"
        hi, lo = sorted((ea.term, eb.term), reverse=True)
        pred = "attribute" if attr else "instance"
        x = Variable("X")
        formula = Not(
            Exists(
                ("X",),
                And((Atom(pred, (x, Constant(hi))), Atom(pred, (x, Constant(lo))))),
            )
        )
        return Pattern.ANTONYM_ATTRIBUTE if attr else Pattern.ANTONYM_CLASS, formula

    return _generate(((a, b, None) for a, b in sorted(pairs)), core_entries, rule)


# --------------------------------------------------------------------------
# relation patterns


_RELATION_PATTERNS = {
    "agent": Pattern.RELATION_AGENT,
    "result": Pattern.RELATION_RESULT,
    "instrument": Pattern.RELATION_INSTRUMENT,
}


def _relation_rule(ev, en, relation):
    if ev.relation not in _POSITIVE or en.relation not in _POSITIVE:
        return "complement_mapping"
    x, y = Variable("X"), Variable("Y")
    return _RELATION_PATTERNS[relation], Exists(
        ("X", "Y"),
        And((
            Atom("instance", (x, Constant(ev.term))),
            Atom(relation, (x, y)),
            Atom("instance", (y, Constant(en.term))),
        )),
    )


def gen_relation(links, core_entries) -> Corpus:
    """Existence questions for agent, result and instrument links: some
    event of the verb's class stands in the relation to something of the
    noun's class.  Subsumption-mapped endpoints are fine here."""
    items, skipped = [], Counter()
    for ln in sorted(links, key=_link_order):
        if ln.relation in _RELATION_PATTERNS:
            items.append((ln.verb, ln.noun, ln.relation))
        elif ln.relation != "event":  # an event link is gen_event's
            skipped["other_relation"] += 1
    return _generate(items, core_entries, _relation_rule, skipped)


# --------------------------------------------------------------------------
# event patterns


def _event_rule(ev, en, _):
    if ev.relation not in _POSITIVE or en.relation not in _POSITIVE:
        return "complement_mapping"
    vt, nt = ev.term, en.term
    if vt == nt:
        return "same_constant"
    if ev.relation is _EQ and en.relation is _EQ:
        return Pattern.EVENT_DISTINCT, Not(Equal(Constant(vt), Constant(nt)))
    if ev.relation is _EQ or en.relation is _EQ:
        # the equivalent term must not sit under the subsuming one
        child, parent = (vt, nt) if ev.relation is _EQ else (nt, vt)
        return Pattern.EVENT_NOT_SUBCLASS, Not(
            Atom("subclass", (Constant(child), Constant(parent)))
        )
    return Pattern.EVENT_EITHER_SUBCLASS, Not(
        Or((
            Atom("subclass", (Constant(vt), Constant(nt))),
            Atom("subclass", (Constant(nt), Constant(vt))),
        ))
    )


def gen_event(links, core_entries) -> Corpus:
    """Event links probe the mapping itself.  Doubly-equivalent endpoints
    must name distinct classes; an equivalent class must not sit under a
    merely subsuming one; two subsuming classes may relate either way, so
    the question asks whether neither subclass direction holds."""
    items = [(ln.verb, ln.noun, "event")
             for ln in sorted(links, key=_link_order) if ln.relation == "event"]
    return _generate(items, core_entries, _event_rule)


# --------------------------------------------------------------------------
# creative corpus


def load_creative(path: str | Path) -> list:
    """Hand-written questions: one KIF form per question, annotated with
    ``;; id:`` and ``;; polarity:`` comments."""
    path = Path(path)
    out: list = []
    seen: set = set()
    try:
        forms = kif.parse_annotated(read_text(path))
    except Error as e:
        raise e.at(path) from None
    for form in forms:
        if "id" not in form.annotations:
            raise Error("form lacks an id annotation", form.line).at(path)
        if "polarity" not in form.annotations:
            raise Error("form lacks a polarity annotation", form.line).at(path)
        cq_id = form.annotations["id"]
        if cq_id in seen:
            raise Error(f"duplicate id {cq_id!r}", form.line).at(path)
        seen.add(cq_id)
        raw_pol = form.annotations["polarity"].lower().replace("-test", "")
        try:
            polarity = Polarity(raw_pol)
        except ValueError:
            raise Error(f"polarity must be truth or falsity, got "
                        f"{form.annotations['polarity']!r}", form.line).at(path) from None
        out.append(
            CompetencyQuestion(
                id=cq_id,
                polarity=polarity,
                pattern=Pattern.CREATIVE,
                formula=form.formula,
            )
        )
    return out


# --------------------------------------------------------------------------
# triviality screen


def _strip_foralls(f: Formula) -> Formula:
    while isinstance(f, Forall):
        f = f.body
    return f


def check_nontriviality(cq: CompetencyQuestion, prove) -> bool:
    """False when the question's conclusion already follows from its own
    premises with no ontology at all; such a question tests nothing.

    Only implication-shaped formulas can be trivial this way; everything
    else passes.  Prover failures count as nontrivial, since the screen
    must never eat a question it cannot decide.
    """
    body = _strip_foralls(cq.formula)
    if not isinstance(body, Implies):
        return True
    try:
        result = prove([], cq.formula)
    except Exception:
        return True
    return result.szs is not SzsStatus.THEOREM


# --------------------------------------------------------------------------
# whole-corpus orchestration


def generate_corpus(
    antonym_pairs,
    links,
    core_entries,
    idx: OntologyIndex,
    creative_path=None,
) -> Corpus:
    """Run every generator, twin each truth question with its negation,
    and append the hand-written corpus verbatim."""
    parts = [
        gen_antonym(antonym_pairs, core_entries, idx),
        gen_relation(links, core_entries),
        gen_event(links, core_entries),
    ]
    questions = [q for part in parts for cq in part.questions for q in (cq, negate_cq(cq))]

    if creative_path is not None:
        questions.extend(load_creative(creative_path))

    dupes = sorted(cq_id for cq_id, n in Counter(cq.id for cq in questions).items() if n > 1)
    if dupes:
        raise Error(f"duplicate question ids: {dupes}")
    return Corpus(questions, sum((part.skipped for part in parts), Counter()))


# --------------------------------------------------------------------------
# serialization


def cq_to_record(cq: CompetencyQuestion) -> dict:
    return {
        "id": cq.id,
        "polarity": cq.polarity.value,
        "pattern": cq.pattern.value,
        "kif_text": kif.print_kif(cq.formula),
        "provenance": {
            "synsets": list(cq.provenance.synsets),
            "terms": list(cq.provenance.terms),
            "morph_relation": cq.provenance.morph_relation,
        },
    }


def cq_from_record(rec: dict) -> CompetencyQuestion:
    prov = rec.get("provenance", {})
    formulas = kif.parse_kif(rec["kif_text"])
    if len(formulas) != 1:
        raise ValueError(f"record {rec.get('id')!r} must hold exactly one formula")
    return CompetencyQuestion(
        id=rec["id"],
        polarity=Polarity(rec["polarity"]),
        pattern=Pattern(rec["pattern"]),
        formula=formulas[0],
        provenance=Provenance(
            synsets=tuple(prov.get("synsets", ())),
            terms=tuple(prov.get("terms", ())),
            morph_relation=prov.get("morph_relation"),
        ),
    )
