"""Report aggregation and rendering."""

import csv
import io
import json

import pytest

from cqeval import Error, cqgen, kif
from cqeval.cqgen import Corpus, Pattern, Polarity
from cqeval.report import (
    FOOTNOTE,
    diff_reports,
    render_csv,
    render_delta,
    render_json,
    render_text,
    summarize,
)
from cqeval.tptp import ProverResult, SzsStatus
from cqeval.verdict import Classification, classify, classify_all

_FORMULA = kif.parse_kif("(instance a B)")[0]


def _cq(cq_id, polarity, pattern=Pattern.ANTONYM_CLASS):
    return cqgen.CompetencyQuestion(
        id=cq_id, polarity=polarity, pattern=pattern, formula=_FORMULA
    )


def _verdict(cq_id, polarity, status, wall=1.0, used=()):
    return classify(polarity, ProverResult(status, wall, tuple(used)), cq_id)


@pytest.fixture()
def session_report(corpus, journal):
    verdicts = classify_all(corpus, sorted(journal.items()))
    return summarize(verdicts, corpus), verdicts


# --------------------------------------------------------------------------
# aggregation


def test_rows_conserve_counts(session_report, corpus):
    report, _ = session_report
    for row in report.rows:
        assert row.passing + row.non_passing + row.unknown == row.total
    counts = corpus.counts()
    family_rows = [r for r in report.rows if r.family != "total"]
    for row in family_rows:
        assert row.total == counts[(row.polarity, row.family)]
    totals = {r.polarity: r.total for r in report.rows if r.family == "total"}
    assert totals == {"truth": 11, "falsity": 10}
    assert sum(totals.values()) == len(corpus.questions)
    assert report.missing == ()


def test_missing_verdicts_count_as_unknown(session_report, corpus):
    _, verdicts = session_report
    # drop settled verdicts; dropping an unknown one would not move the count
    settled = sorted(
        v.cq_id for v in verdicts if v.classification is not Classification.UNKNOWN
    )
    dropped = settled[:2]
    kept = [v for v in verdicts if v.cq_id not in dropped]
    report = summarize(kept, corpus)
    assert report.missing == tuple(dropped)
    for row in report.rows:
        assert row.passing + row.non_passing + row.unknown == row.total
    total_unknown = sum(r.unknown for r in report.rows if r.family == "total")
    full = summarize(verdicts, corpus)
    full_unknown = sum(r.unknown for r in full.rows if r.family == "total")
    assert total_unknown == full_unknown + 2
    assert "missing verdicts: 2 (counted unknown)" in render_text(report)


def test_stray_verdict_rejected(journal, corpus):
    stray = ("cq_not_in_corpus", ProverResult(SzsStatus.GAVE_UP, 1.0, ()))
    with pytest.raises(Error, match="results for questions not in the corpus: .*cq_not_in_corpus"):
        classify_all(corpus, sorted(journal.items()) + [stray])


def test_small_synthetic_table():
    corpus = Corpus([
        _cq("cq_a", Polarity.TRUTH),
        _cq("cq_b", Polarity.TRUTH),
        _cq("cq_b_falsity", Polarity.FALSITY),
    ], {})
    verdicts = [
        _verdict("cq_a", Polarity.TRUTH, SzsStatus.THEOREM, wall=2.0),
        _verdict("cq_b", Polarity.TRUTH, SzsStatus.GAVE_UP),
        _verdict("cq_b_falsity", Polarity.FALSITY, SzsStatus.THEOREM, wall=4.0),
    ]
    report = summarize(verdicts, corpus)
    by_key = {(r.polarity, r.family): r for r in report.rows}
    truth = by_key[("truth", "antonym")]
    assert (truth.total, truth.passing, truth.unknown) == (2, 1, 1)
    assert truth.mean_passing == 2.0
    assert truth.mean_non_passing is None
    falsity = by_key[("falsity", "antonym")]
    assert (falsity.non_passing, falsity.passing) == (1, 0)
    assert falsity.mean_non_passing == 4.0
    assert by_key[("truth", "total")].total == 2
    assert by_key[("falsity", "total")].total == 1


def test_flagged_listed():
    corpus = Corpus([_cq("cq_a", Polarity.TRUTH)], {})
    verdicts = [_verdict("cq_a", Polarity.TRUTH, SzsStatus.ERROR)]
    report = summarize(verdicts, corpus)
    assert report.flagged == ("cq_a",)
    assert "flagged for review: cq_a" in render_text(report)


# --------------------------------------------------------------------------
# rendering


def test_render_text_layout(session_report):
    report, _ = session_report
    text = render_text(report)
    lines = text.splitlines()
    assert lines[-1] == FOOTNOTE
    table = lines[: 1 + len(report.rows)]
    assert len({len(l) for l in table}) == 1  # every table line same width
    assert "truth-tests" in text
    assert "falsity-tests" in text
    assert " s." in text  # some settled mean
    assert "--" in text  # and some cell with none


def test_render_csv_parses_back(session_report):
    report, _ = session_report
    rows = list(csv.reader(io.StringIO(render_csv(report))))
    assert rows[0][:6] == ["polarity", "family", "total", "passing", "non_passing", "unknown"]
    assert len(rows) == 1 + len(report.rows)
    for parsed, row in zip(rows[1:], report.rows):
        assert parsed[0] == row.polarity
        assert parsed[1] == row.family
        assert int(parsed[2]) == row.total
        assert int(parsed[3]) == row.passing


def test_render_json_parses_back(session_report):
    report, _ = session_report
    doc = json.loads(render_json(report))
    assert doc["note"] == FOOTNOTE
    assert doc["missing"] == []
    assert len(doc["rows"]) == len(report.rows)
    total = [r for r in doc["rows"] if r["family"] == "total" and r["polarity"] == "truth"]
    assert total[0]["total"] == 11


# --------------------------------------------------------------------------
# diffs


def test_diff_of_identical_runs_is_empty(session_report, corpus):
    report, verdicts = session_report
    again = summarize(list(verdicts), corpus)
    delta = diff_reports(report, again)
    assert delta.is_empty()
    assert render_delta(delta) == "no changes\n"


def test_diff_reports_flip():
    corpus = Corpus([_cq("cq_a", Polarity.TRUTH), _cq("cq_b", Polarity.TRUTH)], {})
    old = summarize(
        [
            _verdict("cq_a", Polarity.TRUTH, SzsStatus.THEOREM),
            _verdict("cq_b", Polarity.TRUTH, SzsStatus.GAVE_UP),
        ],
        corpus,
    )
    new = summarize(
        [
            _verdict("cq_a", Polarity.TRUTH, SzsStatus.GAVE_UP),
            _verdict("cq_b", Polarity.TRUTH, SzsStatus.GAVE_UP),
        ],
        corpus,
    )
    delta = diff_reports(old, new)
    assert [(f[0], f[1], f[2]) for f in delta.flips] == [
        ("cq_a", Classification.PASSING, Classification.UNKNOWN)
    ]
    keys = {(rd.polarity, rd.family): rd for rd in delta.row_deltas}
    assert keys[("truth", "antonym")].d_passing == -1
    assert keys[("truth", "antonym")].d_unknown == 1
    assert keys[("truth", "total")].d_passing == -1
    rendered = render_delta(delta)
    assert "flip cq_a: passing -> unknown" in rendered
    assert "truth/antonym: passing -1, unknown +1" in rendered


def test_diff_rejects_different_corpora():
    corpus = Corpus([_cq("cq_a", Polarity.TRUTH)], {})
    other = Corpus([_cq("cq_b", Polarity.TRUTH)], {})
    a = summarize([_verdict("cq_a", Polarity.TRUTH, SzsStatus.GAVE_UP)], corpus)
    b = summarize([_verdict("cq_b", Polarity.TRUTH, SzsStatus.GAVE_UP)], other)
    with pytest.raises(Error, match="corpora differ: 1 vs 1 questions"):
        diff_reports(a, b)
