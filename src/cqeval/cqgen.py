"""Competency question generation.

Three generators mine question candidates from lexical facts:

* antonym synset pairs whose terms cannot overlap (class pattern) or be
  borne together (attribute pattern);
* morphosemantic verb-noun links restated through the ontology's agent,
  result and instrument relations;
* event links, where verb and noun map to classes that should relate in
  a specific way (distinct, not a subclass, or possibly a subclass).

Each generated truth question has a falsity twin obtained by negating
the formula into negation normal form.  Hand-written questions load from
an annotated KIF file and keep whatever polarity they declare.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import kif
from .kif import And, Atom, Constant, Equal, Exists, Forall, Formula, Implies, Not, Or, Variable
from .ontology import OntologyIndex
from .tptp import SzsStatus
from .wordnet import MappingRelation


class CqGenError(Exception):
    pass


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
        formula=kif.nnf(Not(cq.formula)),
        provenance=cq.provenance,
    )


def _entry_map(core_entries) -> dict:
    by_synset: dict = {}
    for e in core_entries:
        by_synset.setdefault(e.synset, e)
    return by_synset


@dataclass
class GenResult:
    questions: list
    skipped: dict  # reason -> count

    def _skip(self, reason: str):
        self.skipped[reason] = self.skipped.get(reason, 0) + 1


# --------------------------------------------------------------------------
# antonym patterns


def gen_antonym(pairs, core_entries, idx: OntologyIndex) -> GenResult:
    """Truth questions from antonym pairs mapped by equivalence on both
    sides.  Attribute terms use the attribute pattern, class terms the
    instance pattern; a mixed pair means the mapping itself is suspect and
    is skipped rather than guessed at."""
    by_synset = _entry_map(core_entries)
    res = GenResult([], {})
    seen: set = set()
    for a, b in sorted(pairs):
        ea, eb = by_synset.get(a), by_synset.get(b)
        if ea is None or eb is None:
            res._skip("unmapped")
            continue
        if (
            ea.relation is not MappingRelation.EQUIVALENCE
            or eb.relation is not MappingRelation.EQUIVALENCE
        ):
            res._skip("non_equivalence")
            continue
        if ea.term == eb.term:
            res._skip("identical_terms")
            continue
        attr_a, attr_b = idx.is_attribute(ea.term), idx.is_attribute(eb.term)
        if attr_a != attr_b:
            res._skip("mixed_kind")
            continue
        pattern = Pattern.ANTONYM_ATTRIBUTE if attr_a else Pattern.ANTONYM_CLASS
        key = (pattern, tuple(sorted((ea.term, eb.term))))
        if key in seen:
            res._skip("duplicate")
            continue
        seen.add(key)
        hi, lo = sorted((ea.term, eb.term), reverse=True)
        pred = "attribute" if attr_a else "instance"
        x = Variable("X")
        formula = Not(
            Exists(
                ("X",),
                And((Atom(pred, (x, Constant(hi))), Atom(pred, (x, Constant(lo))))),
            )
        )
        res.questions.append(
            CompetencyQuestion(
                id=make_cq_id(pattern, (ea.term, eb.term), Polarity.TRUTH),
                polarity=Polarity.TRUTH,
                pattern=pattern,
                formula=formula,
                provenance=Provenance(
                    synsets=(a.key, b.key), terms=tuple(sorted((ea.term, eb.term)))
                ),
            )
        )
    return res


# --------------------------------------------------------------------------
# relation patterns


_RELATION_PATTERNS = {
    "agent": Pattern.RELATION_AGENT,
    "result": Pattern.RELATION_RESULT,
    "instrument": Pattern.RELATION_INSTRUMENT,
}

_POSITIVE = (MappingRelation.EQUIVALENCE, MappingRelation.SUBSUMPTION)


def _link_order(ln):
    return (ln.verb.key, ln.relation, ln.noun.key)


def gen_relation(links, core_entries) -> GenResult:
    """Existence questions for agent, result and instrument links: some
    event of the verb's class stands in the relation to something of the
    noun's class.  Subsumption-mapped endpoints are fine here."""
    by_synset = _entry_map(core_entries)
    res = GenResult([], {})
    seen: set = set()
    for ln in sorted(links, key=_link_order):
        if ln.relation == "event":
            continue  # gen_event's link
        pattern = _RELATION_PATTERNS.get(ln.relation)
        if pattern is None:
            res._skip("other_relation")
            continue
        ev, en = by_synset.get(ln.verb), by_synset.get(ln.noun)
        if ev is None or en is None:
            res._skip("unmapped")
            continue
        if ev.relation not in _POSITIVE or en.relation not in _POSITIVE:
            res._skip("complement_mapping")
            continue
        key = (pattern, tuple(sorted((ev.term, en.term))))
        if key in seen:
            res._skip("duplicate")
            continue
        seen.add(key)
        x, y = Variable("X"), Variable("Y")
        formula = Exists(
            ("X", "Y"),
            And((
                Atom("instance", (x, Constant(ev.term))),
                Atom(ln.relation, (x, y)),
                Atom("instance", (y, Constant(en.term))),
            )),
        )
        res.questions.append(
            CompetencyQuestion(
                id=make_cq_id(pattern, (ev.term, en.term), Polarity.TRUTH),
                polarity=Polarity.TRUTH,
                pattern=pattern,
                formula=formula,
                provenance=Provenance(
                    synsets=(ln.verb.key, ln.noun.key),
                    terms=(ev.term, en.term),
                    morph_relation=ln.relation,
                ),
            )
        )
    return res


# --------------------------------------------------------------------------
# event patterns


def gen_event(links, core_entries) -> GenResult:
    """Event links probe the mapping itself.  Doubly-equivalent endpoints
    must name distinct classes; an equivalent class must not sit under a
    merely subsuming one; two subsuming classes may relate either way, so
    the question asks whether neither subclass direction holds."""
    by_synset = _entry_map(core_entries)
    res = GenResult([], {})
    seen: set = set()
    for ln in sorted(links, key=_link_order):
        if ln.relation != "event":
            continue  # gen_relation's link, or skipped there
        ev, en = by_synset.get(ln.verb), by_synset.get(ln.noun)
        if ev is None or en is None:
            res._skip("unmapped")
            continue
        if ev.relation not in _POSITIVE or en.relation not in _POSITIVE:
            res._skip("complement_mapping")
            continue
        vt, nt = ev.term, en.term
        if vt == nt:
            res._skip("same_constant")
            continue
        eq = MappingRelation.EQUIVALENCE
        if ev.relation is eq and en.relation is eq:
            pattern = Pattern.EVENT_DISTINCT
            formula: Formula = Not(Equal(Constant(vt), Constant(nt)))
        elif ev.relation is eq or en.relation is eq:
            pattern = Pattern.EVENT_NOT_SUBCLASS
            child = vt if ev.relation is eq else nt  # the equivalent term
            parent = nt if ev.relation is eq else vt
            formula = Not(Atom("subclass", (Constant(child), Constant(parent))))
        else:
            pattern = Pattern.EVENT_EITHER_SUBCLASS
            formula = Not(
                Or((
                    Atom("subclass", (Constant(vt), Constant(nt))),
                    Atom("subclass", (Constant(nt), Constant(vt))),
                ))
            )
        key = (pattern, tuple(sorted((vt, nt))))
        if key in seen:
            res._skip("duplicate")
            continue
        seen.add(key)
        res.questions.append(
            CompetencyQuestion(
                id=make_cq_id(pattern, (vt, nt), Polarity.TRUTH),
                polarity=Polarity.TRUTH,
                pattern=pattern,
                formula=formula,
                provenance=Provenance(
                    synsets=(ln.verb.key, ln.noun.key),
                    terms=(vt, nt),
                    morph_relation="event",
                ),
            )
        )
    return res


# --------------------------------------------------------------------------
# creative corpus


def load_creative(path: str | Path) -> list:
    """Hand-written questions: one KIF form per question, annotated with
    ``;; id:`` and ``;; polarity:`` comments."""
    path = Path(path)
    out: list = []
    seen: set = set()
    for form in kif.parse_annotated(path.read_text(encoding="utf-8")):
        if "id" not in form.annotations:
            raise CqGenError(f"{path}:{form.line}: form lacks an id annotation")
        if "polarity" not in form.annotations:
            raise CqGenError(f"{path}:{form.line}: form lacks a polarity annotation")
        cq_id = form.annotations["id"]
        if cq_id in seen:
            raise CqGenError(f"{path}:{form.line}: duplicate id {cq_id!r}")
        seen.add(cq_id)
        raw_pol = form.annotations["polarity"].lower().replace("-test", "")
        try:
            polarity = Polarity(raw_pol)
        except ValueError:
            raise CqGenError(
                f"{path}:{form.line}: polarity must be truth or falsity, got "
                f"{form.annotations['polarity']!r}"
            ) from None
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
        result = prove([], kif.universal_closure(cq.formula))
    except Exception:
        return True
    return result.szs is not SzsStatus.THEOREM


# --------------------------------------------------------------------------
# whole-corpus orchestration


@dataclass
class Corpus:
    questions: list
    skipped: dict  # reason -> count

    def by_id(self) -> dict:
        return {cq.id: cq for cq in self.questions}

    def counts(self) -> dict:
        """{(polarity value, family): count} plus per-polarity totals."""
        out: dict = {}
        for cq in self.questions:
            k = (cq.polarity.value, cq.pattern.family)
            out[k] = out.get(k, 0) + 1
            t = (cq.polarity.value, "total")
            out[t] = out.get(t, 0) + 1
        return out


def generate_corpus(
    antonym_pairs,
    links,
    core_entries,
    idx: OntologyIndex,
    creative_path=None,
) -> Corpus:
    """Run every generator, twin each truth question with its negation,
    and append the hand-written corpus verbatim."""
    skipped: dict = {}
    questions: list = []

    parts = [
        gen_antonym(antonym_pairs, core_entries, idx),
        gen_relation(links, core_entries),
        gen_event(links, core_entries),
    ]
    for part in parts:
        for reason, n in part.skipped.items():
            skipped[reason] = skipped.get(reason, 0) + n
        for cq in part.questions:
            questions.append(cq)
            questions.append(negate_cq(cq))

    if creative_path is not None:
        questions.extend(load_creative(creative_path))

    seen: set = set()
    dupes: set = set()
    for cq in questions:
        if cq.id in seen:
            dupes.add(cq.id)
        seen.add(cq.id)
    if dupes:
        raise CqGenError(f"duplicate question ids: {sorted(dupes)}")
    return Corpus(questions, skipped)


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
        raise CqGenError(f"record {rec.get('id')!r} must hold exactly one formula")
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
