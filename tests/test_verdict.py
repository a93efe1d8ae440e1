"""Status-to-verdict mapping.  The full polarity x status table is pinned
here; everything downstream (reports, acceptance) leans on it."""

import pytest

from cqeval import Error
from cqeval.cqgen import Polarity
from cqeval.tptp import ProverResult, SzsStatus
from cqeval.verdict import Classification, classify, classify_all

P = Classification.PASSING
N = Classification.NON_PASSING
U = Classification.UNKNOWN

# (status, classification, twin's classification, flagged) for truth
# questions, the twin being the falsity question under the same status;
# falsity rows below mirror them.  A settled status splits the twins, an
# unsettled one leaves both unknown.
TRUTH_TABLE = [
    (SzsStatus.THEOREM, P, N, False),
    (SzsStatus.COUNTER_SATISFIABLE, N, P, False),
    (SzsStatus.SATISFIABLE, U, U, False),
    (SzsStatus.TIMEOUT, U, U, False),
    (SzsStatus.GAVE_UP, U, U, False),
    (SzsStatus.RESOURCE_OUT, U, U, False),
    (SzsStatus.ERROR, U, U, True),
    (SzsStatus.NO_STATUS, U, U, True),
]

FALSITY_TABLE = [(status, twin, cls, flagged) for status, cls, twin, flagged in TRUTH_TABLE]


def _result(status, used=()):
    return ProverResult(status, 0.5, tuple(used))


@pytest.mark.parametrize("status,cls,twin,flagged", TRUTH_TABLE)
def test_truth_question_mapping(status, cls, twin, flagged):
    v = classify(Polarity.TRUTH, _result(status), "cq_x")
    assert (v.classification, v.flagged) == (cls, flagged)
    assert v.szs is status
    assert v.wall_seconds == 0.5
    assert classify(Polarity.FALSITY, _result(status), "cq_x_falsity").classification is twin


@pytest.mark.parametrize("status,cls,twin,flagged", FALSITY_TABLE)
def test_falsity_question_mapping(status, cls, twin, flagged):
    v = classify(Polarity.FALSITY, _result(status), "cq_x_falsity")
    assert (v.classification, v.flagged) == (cls, flagged)
    assert classify(Polarity.TRUTH, _result(status), "cq_x").classification is twin


def test_table_is_exhaustive():
    assert {row[0] for row in TRUTH_TABLE} == set(SzsStatus)
    assert {row[0] for row in FALSITY_TABLE} == set(SzsStatus)


def test_used_axioms_ride_along_only_on_theorems():
    v = classify(Polarity.TRUTH, _result(SzsStatus.THEOREM, ("ax_1",)), "cq_x")
    assert v.used_axioms == ("ax_1",)
    # the prover result type itself forbids the other combination
    with pytest.raises(ValueError):
        ProverResult(SzsStatus.GAVE_UP, 0.5, ("ax_1",))


def test_classify_all_rejects_unknown_question(pipeline, corpus):
    from cqeval import runner

    results = runner.read_journal(pipeline.root / "journal.ldjson")
    with pytest.raises(Error, match="not in the corpus: .*cq_plainly_made_up"):
        classify_all(corpus, [("cq_plainly_made_up", _result(SzsStatus.GAVE_UP))])
    verdicts = classify_all(corpus, sorted(results.items()))
    assert len(verdicts) == len(results)
    assert {v.cq_id for v in verdicts} == set(results)
