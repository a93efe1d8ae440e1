"""Turning prover statuses into question verdicts.

A truth question passes when the ontology proves it; a falsity question
(the negated twin) passes when the prover finds a countermodel, since a
proof of the negation would mean the ontology entails the opposite of
what it should.  Everything the prover cannot settle is Unknown, with an
effective leaning used by the summary tables: an unsettled truth
question counts against the ontology, an unsettled falsity question in
its favor.  Time never enters the mapping, so a slower prover can only
move verdicts out of Unknown, never flip a settled one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cqgen import Polarity
from .tptp import ProverResult, SzsStatus


class Classification(Enum):
    PASSING = "passing"
    NON_PASSING = "non_passing"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    cq_id: str
    classification: Classification
    effective: Classification
    szs: SzsStatus
    wall_seconds: float
    used_axioms: tuple[str, ...] = ()
    flagged: bool = False

    def __post_init__(self):
        object.__setattr__(self, "used_axioms", tuple(self.used_axioms))
        if self.effective is Classification.UNKNOWN:
            raise ValueError("effective classification must lean one way")


_FLAGGED = (SzsStatus.ERROR, SzsStatus.NO_STATUS)


def classify(polarity: Polarity, result: ProverResult, cq_id: str) -> Verdict:
    if result.szs is SzsStatus.THEOREM:
        cls = Classification.PASSING if polarity is Polarity.TRUTH else Classification.NON_PASSING
        effective = cls
    elif result.szs is SzsStatus.COUNTER_SATISFIABLE:
        cls = Classification.NON_PASSING if polarity is Polarity.TRUTH else Classification.PASSING
        effective = cls
    else:
        cls = Classification.UNKNOWN
        effective = (
            Classification.NON_PASSING if polarity is Polarity.TRUTH else Classification.PASSING
        )
    return Verdict(
        cq_id=cq_id,
        classification=cls,
        effective=effective,
        szs=result.szs,
        wall_seconds=result.wall_seconds,
        used_axioms=result.used_axioms,
        flagged=result.szs in _FLAGGED,
    )


def classify_all(corpus, results) -> list:
    """Verdicts for [(cq_id, ProverResult)] against a question corpus."""
    by_id = corpus.by_id() if hasattr(corpus, "by_id") else {cq.id: cq for cq in corpus}
    out = []
    for cq_id, result in results:
        cq = by_id.get(cq_id)
        if cq is None:
            raise KeyError(f"result for unknown question {cq_id!r}")
        out.append(classify(cq.polarity, result, cq_id))
    return out
