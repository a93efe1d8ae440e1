"""Status-to-verdict mapping.  The full polarity x status table is pinned
here; everything downstream (reports, acceptance) leans on it."""

import pytest

from cqeval.cqgen import Polarity
from cqeval.tptp import ProverResult, SzsStatus
from cqeval.verdict import (
    Classification,
    Verdict,
    classify,
    classify_all,
)

P = Classification.PASSING
N = Classification.NON_PASSING
U = Classification.UNKNOWN

# (status, classification, effective, flagged) for truth questions;
# falsity rows below mirror the settled ones and flip the leaning.
TRUTH_TABLE = [
    (SzsStatus.THEOREM, P, P, False),
    (SzsStatus.COUNTER_SATISFIABLE, N, N, False),
    (SzsStatus.SATISFIABLE, U, N, False),
    (SzsStatus.TIMEOUT, U, N, False),
    (SzsStatus.GAVE_UP, U, N, False),
    (SzsStatus.RESOURCE_OUT, U, N, False),
    (SzsStatus.ERROR, U, N, True),
    (SzsStatus.NO_STATUS, U, N, True),
]

FALSITY_TABLE = [
    (SzsStatus.THEOREM, N, N, False),
    (SzsStatus.COUNTER_SATISFIABLE, P, P, False),
    (SzsStatus.SATISFIABLE, U, P, False),
    (SzsStatus.TIMEOUT, U, P, False),
    (SzsStatus.GAVE_UP, U, P, False),
    (SzsStatus.RESOURCE_OUT, U, P, False),
    (SzsStatus.ERROR, U, P, True),
    (SzsStatus.NO_STATUS, U, P, True),
]


def _result(status, used=()):
    return ProverResult(status, 0.5, tuple(used))


@pytest.mark.parametrize("status,cls,eff,flagged", TRUTH_TABLE)
def test_truth_question_mapping(status, cls, eff, flagged):
    v = classify(Polarity.TRUTH, _result(status), "cq_x")
    assert (v.classification, v.effective, v.flagged) == (cls, eff, flagged)
    assert v.szs is status
    assert v.wall_seconds == 0.5


@pytest.mark.parametrize("status,cls,eff,flagged", FALSITY_TABLE)
def test_falsity_question_mapping(status, cls, eff, flagged):
    v = classify(Polarity.FALSITY, _result(status), "cq_x_falsity")
    assert (v.classification, v.effective, v.flagged) == (cls, eff, flagged)


def test_table_is_exhaustive():
    assert {row[0] for row in TRUTH_TABLE} == set(SzsStatus)
    assert {row[0] for row in FALSITY_TABLE} == set(SzsStatus)


def test_used_axioms_ride_along_only_on_theorems():
    v = classify(Polarity.TRUTH, _result(SzsStatus.THEOREM, ("ax_1",)), "cq_x")
    assert v.used_axioms == ("ax_1",)
    # the prover result type itself forbids the other combination
    with pytest.raises(ValueError):
        ProverResult(SzsStatus.GAVE_UP, 0.5, ("ax_1",))


def test_effective_must_lean():
    with pytest.raises(ValueError):
        Verdict(
            cq_id="cq_x",
            classification=U,
            effective=U,
            szs=SzsStatus.TIMEOUT,
            wall_seconds=1.0,
        )


def test_classify_all_rejects_unknown_question(pipeline, corpus):
    from cqeval import runner

    results = runner.read_journal(pipeline.root / "journal.ldjson")
    with pytest.raises(KeyError, match="cq_plainly_made_up"):
        classify_all(corpus, [("cq_plainly_made_up", _result(SzsStatus.GAVE_UP))])
    verdicts = classify_all(corpus, sorted(results.items()))
    assert len(verdicts) == len(results)
    assert {v.cq_id for v in verdicts} == set(results)
