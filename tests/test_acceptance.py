"""Shipping gates.

Each test prints one verdict line straight to the real stdout so the
summary survives pytest's capture:

    [PASS] criterion 3: ...
    [FAIL] criterion 2: AssertionError: ...
    [DEGRADED] criterion 1: ...

A FAIL line is followed by the usual pytest traceback.  DEGRADED means
the pinned large-scale inputs are absent and a property-based stand-in
covers the same machinery instead.
"""

import itertools
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import genformulas
import oracles
from conftest import run_cli, write_config
from cqeval import coremap, cqgen, kif, ontology, report, runner, tptp, verdict, wordnet
from cqeval.cqgen import Polarity
from cqeval.kif import Constant, Function, Not
from cqeval.microprover import prove
from cqeval.runner import ProverResult
from cqeval.tptp import SzsStatus
from cqeval.verdict import Classification
from test_coremap import as_mapping_entries, check_against_oracle, graph_case
from test_kif import alpha_equal
from test_ontology import without
from test_verdict import FALSITY_TABLE, TRUTH_TABLE


def _emit(capsys, line: str) -> None:
    # capture is suspended so the verdict lines reach the real stdout; the
    # leading newline keeps them clear of pytest's own progress output
    with capsys.disabled():
        print(f"\n{line}", flush=True)


@contextmanager
def _criterion(n: int, capsys):
    """Print one [PASS]/[FAIL] line for the enclosed checks."""
    info = {"detail": "ok"}
    try:
        yield info
    except BaseException as e:
        first = str(e).splitlines()[0] if str(e) else ""
        _emit(capsys, f"[FAIL] criterion {n}: {type(e).__name__}: {first[:200]}")
        raise
    _emit(capsys, f"[PASS] criterion {n}: {info['detail']}")


# --------------------------------------------------------------------------
# criterion 1: generation counts at full scale
#
# Needs the real WordNet 3.0 release plus its mapping files, pointed to by
# CQEVAL_WN30_DIR.  Without them the run degrades to the property suite.

WN30_ENV = "CQEVAL_WN30_DIR"
WN30_DATA = {"noun": "data.noun", "verb": "data.verb", "adj": "data.adj", "adv": "data.adv"}
WN30_MAPPINGS = {"noun": "WordNetMappings30-noun.txt", "verb": "WordNetMappings30-verb.txt"}
MORPH_NAMES = ("morphosemantic.tsv", "morphosemantic-links.tsv")

PINNED_TRUTH_COUNTS = {"relation": 1280, "event1": 25, "event2": 330, "event3": 1857}
ANTONYM_CENTER = 64
ANTONYM_SLACK = 5


def _wn30_inputs():
    root = os.environ.get(WN30_ENV)
    if not root:
        return None, f"{WN30_ENV} is not set"
    base = Path(root)
    needed = sorted(WN30_DATA.values()) + sorted(WN30_MAPPINGS.values())
    needed += ["index.sense", "Merge.kif"]
    missing = [name for name in needed if not (base / name).is_file()]
    morph = next((base / n for n in MORPH_NAMES if (base / n).is_file()), None)
    if morph is None:
        missing.append(MORPH_NAMES[0])
    if missing:
        return None, f"{', '.join(missing)} missing under {base}"
    return (base, morph), None


def test_criterion_1_generation_counts(capsys):
    found, reason = _wn30_inputs()
    if found is None:
        _emit(
            capsys,
            f"[DEGRADED] criterion 1: {reason}; generation counts covered "
            "by the property suite (criterion 3)",
        )
        pytest.skip("full-scale generation inputs unavailable")
    base, morph = found

    with _criterion(1, capsys) as info:
        wn = wordnet.WordNetCorpus(frozenset(), frozenset())
        for _, fname in sorted(WN30_DATA.items()):
            text = (base / fname).read_text(encoding="utf-8")
            wn = wn.merged_with(wordnet.parse_wn_data(text))

        entries = []
        for _, fname in sorted(WN30_MAPPINGS.items()):
            parsed = wordnet.parse_mapping_file(
                (base / fname).read_text(encoding="utf-8"),
                wordnet.DEFAULT_SUFFIXES,
            )
            entries.extend(parsed.entries)

        sense_index = wordnet.parse_sense_index(
            (base / "index.sense").read_text(encoding="utf-8")
        )
        links = wordnet.parse_morphosemantic(
            morph.read_text(encoding="utf-8"), sense_index
        )

        core = ontology.load_ontology(base / "Merge.kif")
        idx = ontology.build_index(core)
        propagated = coremap.propagate_to_core(entries, idx)

        generated = cqgen.generate_corpus(
            sorted(wn.antonym_pairs), links, propagated.entries, idx
        )
        counts = generated.counts()

        for family, want in PINNED_TRUTH_COUNTS.items():
            got = counts.get(("truth", family), 0)
            assert got == want, f"{family}: generated {got}, pinned {want}"
        ant = counts.get(("truth", "antonym"), 0)
        histogram = dict(sorted(generated.skipped.items()))
        assert abs(ant - ANTONYM_CENTER) <= ANTONYM_SLACK, (
            f"antonym questions {ant} outside {ANTONYM_CENTER}±{ANTONYM_SLACK}; "
            f"skip histogram {histogram}"
        )
        per_polarity = sum(PINNED_TRUTH_COUNTS.values()) + ant
        assert counts.get(("truth", "total"), 0) == per_polarity
        assert counts.get(("falsity", "total"), 0) == per_polarity

        info["detail"] = (
            f"antonym={ant} relation=1280 event1=25 event2=330 event3=1857, "
            f"{per_polarity} questions per polarity"
        )
        if ant != ANTONYM_CENTER:
            info["detail"] += f"; antonym skip histogram {histogram}"


# --------------------------------------------------------------------------
# criterion 2: worked examples come out exactly as pinned

WORKED_EXAMPLES = [
    (
        "cq_antclass_freezing_melting",
        "(not (exists (?X) (and (instance ?X Melting) (instance ?X Freezing))))",
    ),
    (
        "cq_antattr_asleep_awake",
        "(not (exists (?X) (and (attribute ?X Awake) (attribute ?X Asleep))))",
    ),
    (
        "cq_relresult_composingmusic_musicalcomposition",
        "(exists (?X ?Y) (and (instance ?X ComposingMusic) (result ?X ?Y)"
        " (instance ?Y MusicalComposition)))",
    ),
    ("cq_event1_death_killing", "(not (equal Death Killing))"),
    ("cq_event2_pretending_repairing", "(not (subclass Repairing Pretending))"),
    (
        "cq_event3_comparing_judging",
        "(not (or (subclass Judging Comparing) (subclass Comparing Judging)))",
    ),
    (
        "cq_antclass_speaking_vocalizing_falsity",
        "(exists (?X) (and (instance ?X Vocalizing) (instance ?X Speaking)))",
    ),
]


def test_criterion_2_worked_examples(corpus, capsys, tmp_path):
    with _criterion(2, capsys) as info:
        by_id = corpus.by_id()
        for cq_id, expected_text in WORKED_EXAMPLES:
            cq = by_id[cq_id]
            (expected,) = kif.parse_kif(expected_text)
            assert alpha_equal(cq.formula, expected), cq_id
            # and the formula must survive its trip through problem syntax
            problem = tmp_path / f"{cq_id}.p"
            problem.write_text(tptp.render_fof(cq.id, "conjecture", cq.formula) + "\n")
            axioms, (name, back) = tptp.read_problem(problem)
            assert axioms == []
            assert name == cq.id
            assert alpha_equal(back, kif.universal_closure(expected)), cq_id
        info["detail"] = (
            f"{len(WORKED_EXAMPLES)} pinned formulas match and survive "
            "the fof round trip"
        )


# --------------------------------------------------------------------------
# criterion 3: property suite


def _formula_signature(f):
    """(predicate -> arity, constant names) over one formula."""
    preds: dict = {}
    consts: set = set()

    def term(t):
        if isinstance(t, kif.Constant):
            consts.add(t.name)
        elif isinstance(t, kif.Function):
            for a in t.args:
                term(a)

    def walk(g):
        if isinstance(g, kif.Atom):
            preds[g.predicate] = len(g.args)
            for a in g.args:
                term(a)
        elif isinstance(g, kif.Equal):
            term(g.left)
            term(g.right)
        elif isinstance(g, kif.Not):
            walk(g.body)
        elif isinstance(g, (kif.And, kif.Or)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, kif.Implies):
            walk(g.antecedent)
            walk(g.consequent)
        elif isinstance(g, kif.Iff):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (kif.Forall, kif.Exists)):
            walk(g.body)

    walk(f)
    return preds, consts


def _random_model(rng, *formulas):
    domain = [0, 1, 2]
    preds: dict = {}
    consts: dict = {}
    for f in formulas:
        arities, names = _formula_signature(f)
        for p, arity in arities.items():
            if p not in preds:
                preds[p] = {
                    t
                    for t in itertools.product(domain, repeat=arity)
                    if rng.random() < 0.5
                }
        for c in names:
            consts.setdefault(c, rng.choice(domain))
    return oracles.Model(domain, consts, preds)


def _result(status: SzsStatus) -> ProverResult:
    return ProverResult(szs=status, wall_seconds=0.1, used_axioms=())


def test_criterion_3_property_suite(corpus, journal, capsys):
    with _criterion(3, capsys) as info:
        # printer/parser round trip over a big random sample
        for f in genformulas.formulas(1000, seed=1234):
            assert kif.parse_kif(kif.print_kif(f)) == [f]

        # every generated truth/falsity twin is one negation of the other,
        # checked symbolically and against random finite models
        by_id = corpus.by_id()
        suffix = "_falsity"
        pairs = [
            (by_id[cq_id[: -len(suffix)]], cq)
            for cq_id, cq in sorted(by_id.items())
            if cq_id.endswith(suffix) and cq_id[: -len(suffix)] in by_id
        ]
        assert len(pairs) == 9
        rng = random.Random(3)
        for truth, falsity in pairs:
            assert alpha_equal(
                kif.nnf(Not(truth.formula)), kif.nnf(falsity.formula)
            ), truth.id
            for _ in range(6):
                model = _random_model(rng, truth.formula, falsity.formula)
                assert model.holds(truth.formula) != model.holds(falsity.formula), truth.id

        # the full 16-cell classification table
        for table in (TRUTH_TABLE, FALSITY_TABLE):
            assert {row[0] for row in table} == set(SzsStatus)
        for polarity, table in (
            (Polarity.TRUTH, TRUTH_TABLE),
            (Polarity.FALSITY, FALSITY_TABLE),
        ):
            for status, cls, _, flagged in table:
                v = verdict.classify(polarity, _result(status), "cq_cell")
                assert (v.classification, v.flagged) == (cls, flagged)

        # report rows conserve the corpus
        rep = report.summarize(
            verdict.classify_all(corpus, sorted(journal.items())), corpus
        )
        for row in rep.rows:
            assert row.passing + row.non_passing + row.unknown == row.total
        assert sum(r.total for r in rep.rows if r.family != "total") == 21
        assert rep.missing == ()

        # core propagation against the reachability oracle, then idempotence
        for seed in range(50):
            check_against_oracle(*graph_case(seed))
        idx, _, _, entries = graph_case(7)
        first = coremap.propagate_to_core(entries, idx)
        again = coremap.propagate_to_core(as_mapping_entries(first), idx)
        assert [(p.synset, p.term, p.relation) for p in again.entries] == [
            (p.synset, p.term, p.relation) for p in first.entries
        ]
        assert all(p.depth == 0 for p in again.entries)

        info["detail"] = (
            "1000 round trips, 9 dual pairs vs random models, 16 verdict cells, "
            "report conserves 21 questions, 50 propagation graphs + idempotence"
        )


# --------------------------------------------------------------------------
# criterion 4: fixture entailments, cross-checked by the ground oracle

DEADLIVING_SKOLEMIZED = (
    # the biconditional split in two, its existential replaced by skf(?A)
    "(forall (?A) (=> (and (instance ?A SentientAgent) (attribute ?A Living))"
    " (and (instance (skf ?A) ConsciousnessAttribute) (attribute ?A (skf ?A)))))"
    "\n"
    "(forall (?A ?ATTR) (=> (and (instance ?ATTR ConsciousnessAttribute)"
    " (attribute ?A ?ATTR)) (and (instance ?A SentientAgent) (attribute ?A Living))))"
)


def _labeled(ont):
    return [(ax.label, ax.formula) for ax in ont.axioms]


def _closures(ont):
    return [kif.universal_closure(ax.formula) for ax in ont.axioms]


def test_criterion_4_fixture_entailments(nulllist_ontology, deadliving_ontology, capsys):
    with _criterion(4, capsys) as info:
        # the empty list has no members
        ont = nulllist_ontology
        (conj,) = kif.parse_kif("(not (exists (?ITEM) (inList ?ITEM NullList)))")
        r = prove(_labeled(ont), conj)
        assert r.szs is SzsStatus.THEOREM
        assert r.used_axioms == ("ax_nulllist_empty",)
        universe = [Constant(c) for c in ("NullList", "List", "Entity", "cL", "cI")]
        assert oracles.ground_entails(
            _closures(ont), kif.parse_kif("(inList cI NullList)"), universe
        )

        # drop the load-bearing axiom: no proof, and an explicit countermodel
        ablated = without(ont, "ax_nulllist_empty")
        r2 = prove(_labeled(ablated), conj, limit_seconds=5, max_clauses=2000)
        assert r2.szs is not SzsStatus.THEOREM
        counter = oracles.Model(
            domain=["nl", "L", "E", "i"],
            consts={"NullList": "nl", "List": "L", "Entity": "E"},
            preds={"instance": {("nl", "L"), ("i", "E")}, "inList": {("i", "nl")}},
        )
        assert counter.satisfies_all(
            _closures(ablated)
            + kif.parse_kif("(exists (?ITEM) (inList ?ITEM NullList))")
        )

        # no organism keeps the Dead attribute while the ontology calls it living
        ont = deadliving_ontology
        (conj,) = kif.parse_kif(
            "(not (exists (?X) (and (instance ?X Organism) (attribute ?X Dead))))"
        )
        r = prove(_labeled(ont), conj)
        assert r.szs is SzsStatus.THEOREM
        assert r.used_axioms == (
            "ax_consciousness_living",
            "ax_contrary_disjoint",
            "ax_dead_living_contrary",
            "ax_dead_unconscious",
            "ax_subattr_inherit",
            "ax_unconscious_consciousness",
        )
        v = verdict.classify(Polarity.FALSITY, r, "cq_organisms_dead")
        assert v.classification is Classification.NON_PASSING

        # same entailment through the ground oracle, biconditional
        # hand-skolemized because positive existentials must not be
        # expanded over a fixed universe
        skolemized = kif.parse_kif(DEADLIVING_SKOLEMIZED)
        others = [
            kif.universal_closure(ax.formula)
            for ax in ont.axioms
            if ax.label != "ax_consciousness_living"
        ]
        facts = kif.parse_kif("(instance o Organism)\n(attribute o Dead)")
        names = (
            "o",
            "Dead",
            "Living",
            "Unconscious",
            "ConsciousnessAttribute",
            "SentientAgent",
            "Organism",
        )
        universe = [Constant(c) for c in names]
        universe += [Function("skf", (Constant(c),)) for c in names]
        assert oracles.ground_entails(others + skolemized, facts, universe)

        # ablate the subAttribute bridge: the question flips to unknown,
        # and the countermodel shows why
        ablated = without(ont, "ax_dead_unconscious")
        r2 = prove(_labeled(ablated), conj, limit_seconds=2, max_clauses=3000)
        v2 = verdict.classify(Polarity.FALSITY, r2, "cq_organisms_dead")
        assert v2.classification is Classification.UNKNOWN
        counter = oracles.Model(
            domain=["o", "Dead", "Living", "Unconscious", "CA", "SA", "Org"],
            consts={
                "Dead": "Dead",
                "Living": "Living",
                "Unconscious": "Unconscious",
                "ConsciousnessAttribute": "CA",
                "SentientAgent": "SA",
                "Organism": "Org",
            },
            preds={
                "contraryAttribute": {("Dead", "Living")},
                "subAttribute": set(),
                "attribute": {("o", "Dead")},
                "instance": {("Unconscious", "CA"), ("o", "Org")},
            },
        )
        assert counter.satisfies_all(
            _closures(ablated)
            + kif.parse_kif("(exists (?X) (and (instance ?X Organism) (attribute ?X Dead)))")
        )

        info["detail"] = (
            "both fixture conjectures prove with the pinned axiom sets, agree "
            "with the ground oracle, and lose to ablation countermodels"
        )


# --------------------------------------------------------------------------
# criterion 5: campaign resilience

LOGGING_PROVER = """\
import sys, time
from pathlib import Path

problem = Path(sys.argv[1])
with open(sys.argv[2], "a") as fh:
    fh.write(problem.stem + "\\n")
time.sleep(float(sys.argv[3]))
print(f"% SZS status GaveUp for {problem.name}")
"""

HANGER_PROBLEM = """\
% cq: cq_hang
fof(ax_seed, axiom, s__p(s__c)).
fof(ax_grow, axiom, ! [X] : (s__p(X) => s__p(s__f(X)))).
fof(cq_hang, conjecture, s__q(s__d)).
"""


def test_criterion_5_campaign_resilience(pipeline, corpus, tmp_path, capsys):
    with _criterion(5, capsys) as info:
        rng = random.Random(2026)
        emitted = sorted((pipeline.root / "problems").glob("*.p"))
        picked = sorted(rng.sample(emitted, 20), key=lambda p: p.name)
        stems = {p.stem for p in picked}

        camp = tmp_path / "campaign"
        (camp / "problems").mkdir(parents=True)
        for src in picked:
            shutil.copy(src, camp / "problems" / src.name)
        config = write_config(
            camp,
            {
                "problems_dir": "problems",
                "outputs_dir": "outputs",
                "journal": "journal.ldjson",
                "prover_cmd": "builtin",
                "timeout_seconds": 10,
                "jobs": 1,
            },
        )
        script = tmp_path / "fake_prover.py"
        script.write_text(LOGGING_PROVER, encoding="utf-8")
        log1 = tmp_path / "phase1.log"
        log2 = tmp_path / "phase2.log"
        journal_path = camp / "journal.ldjson"

        # phase 1: a slow prover, killed once at least five results landed
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "cqeval.cli",
                "run",
                "--config",
                str(config),
                "--prover-cmd",
                f"{sys.executable} {script} {{problem}} {log1} 0.4",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if journal_path.exists() and journal_path.read_text().count("\n") >= 5:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never journaled five results")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)

        survived = runner.read_journal(journal_path)
        assert 5 <= len(survived) <= 15, sorted(survived)

        # phase 2: restart with a fast prover; only the leftovers may run
        code, out, err = run_cli(
            "run",
            "--config",
            str(config),
            "--prover-cmd",
            f"{sys.executable} {script} {{problem}} {log2} 0",
        )
        assert code == 0, err
        rerun = set(log2.read_text(encoding="utf-8").split())
        assert rerun.isdisjoint(survived)
        assert set(survived) | rerun == stems
        final = runner.read_journal(journal_path)
        assert len(final) == 20
        assert "(20 results)" in out

        # a prover that never answers is cut off at the configured budget
        hang = tmp_path / "hang"
        hang.mkdir()
        problem_path = hang / "cq_hang.p"
        problem_path.write_text(HANGER_PROBLEM, encoding="utf-8")
        cfg = runner.RunnerConfig(
            output_dir=hang / "outputs",
            journal_path=hang / "journal.ldjson",
            prover_cmd=(
                f"{sys.executable} -m cqeval.prover_cli {{problem}}"
                " --timeout 600 --max-clauses 100000000"
            ),
            timeout_seconds=10.0,
        )
        t0 = time.monotonic()
        result = runner.run_one(tptp.ProblemFile(problem_path, "cq_hang"), cfg)
        elapsed = time.monotonic() - t0
        assert result.szs is SzsStatus.TIMEOUT
        assert elapsed <= 12.0, elapsed

        # and the finished journal still rolls up into a coherent report
        corpus20 = cqgen.Corpus([q for q in corpus.questions if q.id in stems], {})
        rep = report.summarize(
            verdict.classify_all(corpus20, sorted(final.items())), corpus20
        )
        for row in rep.rows:
            assert row.passing + row.non_passing + row.unknown == row.total
        assert sum(r.total for r in rep.rows if r.family != "total") == 20
        assert rep.missing == ()
        text = report.render_text(rep)
        assert report.FOOTNOTE in text

        info["detail"] = (
            f"kill left {len(survived)} journaled, restart ran the other "
            f"{len(rerun)}, hanging prover stopped after {elapsed:.1f} s, "
            "report conserves 20 questions"
        )
