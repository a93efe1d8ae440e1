"""Turning prover statuses into question verdicts.

A truth question passes when the ontology proves it; a falsity question
(the negated twin) passes when the prover finds a countermodel, since a
proof of the negation would mean the ontology entails the opposite of
what it should.  Everything the prover cannot settle is Unknown.  Time
never enters the mapping, so a slower prover can only move verdicts out
of Unknown, never flip a settled one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import Error
from .cqgen import Corpus, Polarity
from .tptp import ProverResult, SzsStatus


class Classification(Enum):
    PASSING = "passing"
    NON_PASSING = "non_passing"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    cq_id: str
    classification: Classification
    szs: SzsStatus
    wall_seconds: float
    used_axioms: tuple[str, ...] = ()
    flagged: bool = False


_FLAGGED = (SzsStatus.ERROR, SzsStatus.NO_STATUS)


def classify(polarity: Polarity, result: ProverResult, cq_id: str) -> Verdict:
    if result.szs is SzsStatus.THEOREM:
        cls = Classification.PASSING if polarity is Polarity.TRUTH else Classification.NON_PASSING
    elif result.szs is SzsStatus.COUNTER_SATISFIABLE:
        cls = Classification.NON_PASSING if polarity is Polarity.TRUTH else Classification.PASSING
    else:
        cls = Classification.UNKNOWN
    return Verdict(
        cq_id=cq_id,
        classification=cls,
        szs=result.szs,
        wall_seconds=result.wall_seconds,
        used_axioms=result.used_axioms,
        flagged=result.szs in _FLAGGED,
    )


def classify_all(corpus: Corpus, results) -> list:
    """Verdicts for [(cq_id, ProverResult)] against a question corpus.
    Every result must name a question of the corpus."""
    by_id = corpus.by_id()
    stray = sorted({cq_id for cq_id, _ in results if cq_id not in by_id})
    if stray:
        raise Error(f"results for questions not in the corpus: {stray}")
    return [classify(by_id[cq_id].polarity, result, cq_id) for cq_id, result in results]
