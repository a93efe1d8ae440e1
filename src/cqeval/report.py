"""Campaign summaries: per-pattern verdict tables and run-to-run diffs.

One row per (polarity, pattern family) plus a totals row per polarity.
Questions the runner never produced a verdict for count as unknown, so
each row's three columns always add up to its slice of the corpus.
Mean times cover settled verdicts only: an unknown question may have
given up early or run to its time limit, so the rendered output counts
it without timing it, and says so in a footnote.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

from . import Error
from .cqgen import FAMILIES, Corpus, Polarity
from .verdict import Classification


TOTAL_LABELS = {"truth": "truth-tests", "falsity": "falsity-tests"}

FOOTNOTE = (
    "note: mean times cover settled questions only; "
    "unknown questions are counted, not timed."
)


@dataclass(frozen=True)
class ReportRow:
    polarity: str  # "truth" | "falsity"
    family: str  # family name, or "total"
    total: int
    passing: int
    non_passing: int
    unknown: int
    mean_passing: float | None
    mean_non_passing: float | None


# the CSV and JSON column of each ReportRow field; a mean is in seconds
_COLUMNS = tuple(f.name + "_seconds" if f.name.startswith("mean_") else f.name
                 for f in fields(ReportRow))


def _label(polarity: str, family: str) -> str:
    return TOTAL_LABELS[polarity] if family == "total" else family


@dataclass
class Report:
    rows: list
    verdicts: dict  # cq_id -> Verdict
    corpus_ids: frozenset
    missing: tuple  # corpus ids that never got a verdict
    flagged: tuple  # cq_ids whose raw status needs a human look


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _row(polarity: str, family: str, verdicts) -> ReportRow:
    """One table row over its questions' verdicts, None where a question
    has none."""
    times: dict = {Classification.PASSING: [], Classification.NON_PASSING: []}
    unknown = 0
    for v in verdicts:
        if v is None or v.classification is Classification.UNKNOWN:
            unknown += 1
        else:
            times[v.classification].append(v.wall_seconds)
    passing, non_passing = times[Classification.PASSING], times[Classification.NON_PASSING]
    return ReportRow(polarity, family, len(verdicts), len(passing), len(non_passing), unknown,
                     _mean(passing), _mean(non_passing))


def summarize(verdicts, corpus: Corpus) -> Report:
    """Aggregate verdicts, from ``verdict.classify_all``, over a question
    corpus.  Corpus questions without a verdict are counted unknown so the
    table never quietly shrinks.
    """
    by_id = {v.cq_id: v for v in verdicts}
    corpus_ids = {cq.id for cq in corpus.questions}
    missing = tuple(sorted(corpus_ids - set(by_id)))

    cells: dict = {}
    for cq in corpus.questions:
        cells.setdefault((cq.polarity.value, cq.pattern.family), []).append(by_id.get(cq.id))

    rows: list = []
    for pol in (Polarity.TRUTH.value, Polarity.FALSITY.value):
        families = [fam for fam in FAMILIES if (pol, fam) in cells]
        if not families:
            continue
        rows.extend(_row(pol, fam, cells[(pol, fam)]) for fam in families)
        rows.append(_row(pol, "total", [v for fam in families for v in cells[(pol, fam)]]))
    flagged = tuple(sorted(v.cq_id for v in verdicts if v.flagged))
    return Report(rows, by_id, frozenset(corpus_ids), missing, flagged)


# --------------------------------------------------------------------------
# rendering


def _fmt_mean(m: float | None) -> str:
    return f"{m:.2f} s." if m is not None else "--"


def render_text(report: Report) -> str:
    headers = ("", "total", "passing", "non-passing", "unknown", "mean pass", "mean non-pass")
    table = [headers]
    for row in report.rows:
        table.append((
            _label(row.polarity, row.family),
            str(row.total),
            str(row.passing),
            str(row.non_passing),
            str(row.unknown),
            _fmt_mean(row.mean_passing),
            _fmt_mean(row.mean_non_passing),
        ))
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for r in table:
        cells = [r[0].ljust(widths[0])] + [r[i].rjust(widths[i]) for i in range(1, len(headers))]
        lines.append("  ".join(cells).rstrip())
    if report.missing:
        lines.append(f"missing verdicts: {len(report.missing)} (counted unknown)")
    if report.flagged:
        lines.append("flagged for review: " + ", ".join(report.flagged))
    lines.append(FOOTNOTE)
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_COLUMNS)
    for row in report.rows:
        w.writerow(_csv_cell(v) for v in vars(row).values())
    return buf.getvalue()


def _csv_cell(value):
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else value


def render_json(report: Report) -> str:
    doc = {
        "rows": [dict(zip(_COLUMNS, vars(r).values())) for r in report.rows],
        "missing": list(report.missing),
        "flagged": list(report.flagged),
        "note": FOOTNOTE,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# diffing two runs


@dataclass(frozen=True)
class RowDelta:
    polarity: str
    family: str
    d_passing: int
    d_non_passing: int
    d_unknown: int


@dataclass
class Delta:
    row_deltas: list
    flips: list  # (cq_id, old classification, new classification)

    def is_empty(self) -> bool:
        return not self.row_deltas and not self.flips


def diff_reports(old: Report, new: Report) -> Delta:
    """Changes between two runs over the same corpus."""
    if old.corpus_ids != new.corpus_ids:
        raise Error(f"corpora differ: {len(old.corpus_ids)} vs {len(new.corpus_ids)} questions")
    old_rows = {(r.polarity, r.family): r for r in old.rows}
    new_rows = {(r.polarity, r.family): r for r in new.rows}
    row_deltas = []
    for key in sorted(set(old_rows) | set(new_rows)):
        a = old_rows.get(key)
        b = new_rows.get(key)
        ap, an, au = (a.passing, a.non_passing, a.unknown) if a else (0, 0, 0)
        bp, bn, bu = (b.passing, b.non_passing, b.unknown) if b else (0, 0, 0)
        if (ap, an, au) != (bp, bn, bu):
            row_deltas.append(RowDelta(key[0], key[1], bp - ap, bn - an, bu - au))

    def classification_of(report: Report, cq_id: str) -> Classification:
        v = report.verdicts.get(cq_id)
        return v.classification if v is not None else Classification.UNKNOWN

    flips = []
    for cq_id in sorted(old.corpus_ids):
        before = classification_of(old, cq_id)
        after = classification_of(new, cq_id)
        if before is not after:
            flips.append((cq_id, before, after))
    return Delta(row_deltas, flips)


def render_delta(delta: Delta) -> str:
    if delta.is_empty():
        return "no changes\n"
    lines = []
    for rd in delta.row_deltas:
        parts = []
        for name, d in (("passing", rd.d_passing), ("non-passing", rd.d_non_passing),
                        ("unknown", rd.d_unknown)):
            if d:
                parts.append(f"{name} {d:+d}")
        lines.append(f"{rd.polarity}/{_label(rd.polarity, rd.family)}: " + ", ".join(parts))
    for cq_id, before, after in delta.flips:
        lines.append(f"flip {cq_id}: {before.value} -> {after.value}")
    return "\n".join(lines) + "\n"
