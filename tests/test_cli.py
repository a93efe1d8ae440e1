"""End-to-end CLI behavior over the fixture campaign.

The session-scoped pipeline fixture has already run ingest through run;
these tests pin its exact console output and exercise the remaining
subcommands and error paths against fresh directories.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

from conftest import CREATIVE, ONT, WN, base_config, run_cli, write_config
from cqeval import cli, ontology, runner, store, tptp

# --------------------------------------------------------------------------
# pinned pipeline output


def test_ingest_output(pipeline):
    step = pipeline.steps["ingest"]
    assert step.out == (
        "synsets=27 antonym_pairs=5 mapping_entries=22 skipped_lines=1 morph_links=7\n"
    )
    assert "warning:" in step.err
    assert "extra annotation &%Fish+ ignored" in step.err


def test_ingest_writes_stores(pipeline):
    stores = pipeline.root / "stores"
    assert sorted(p.name for p in stores.iterdir()) == [
        "antonyms.ldjson",
        "core_mapping.ldjson",
        "corpus.ldjson",
        "mapping.ldjson",
        "morphlinks.ldjson",
    ]


@pytest.mark.parametrize("name, record", [
    ("antonyms", {"a": "n:00300505", "b": "n:00300606"}),
    ("mapping", {"synset": "n:00300505", "term": "Frying", "relation": "="}),
    ("morphlinks", {"verb": "v:02200200", "relation": "result", "noun": "n:01400707"}),
    ("core_mapping", {"synset": "n:00300505", "term": "Cooking", "relation": "+",
                      "origin_term": "Frying", "depth": 1}),
])
def test_store_records_are_pinned(pipeline, name, record):
    """One exact record of each store the pipeline passes between stages."""
    records = store.read_ldjson(pipeline.root / "stores" / f"{name}.ldjson", name)
    assert record in records
    assert all(set(r) == set(record) for r in records)


CORPUS_IDS = [
    "cq_antclass_freezing_melting", "cq_antclass_freezing_melting_falsity",
    "cq_antattr_asleep_awake", "cq_antattr_asleep_awake_falsity",
    "cq_antclass_speaking_vocalizing", "cq_antclass_speaking_vocalizing_falsity",
    "cq_relresult_composingmusic_musicalcomposition",
    "cq_relresult_composingmusic_musicalcomposition_falsity",
    "cq_relagent_teacher_teaching", "cq_relagent_teacher_teaching_falsity",
    "cq_relinstrument_cutting_knife", "cq_relinstrument_cutting_knife_falsity",
    "cq_event1_death_killing", "cq_event1_death_killing_falsity",
    "cq_event2_pretending_repairing", "cq_event2_pretending_repairing_falsity",
    "cq_event3_comparing_judging", "cq_event3_comparing_judging_falsity",
    "cq_creative_boys_domestic", "cq_creative_man_pregnant", "cq_creative_organisms_dead",
]


def _cq_record(cq_id, polarity, pattern, kif_text, synsets, terms, morph_relation):
    return {"id": cq_id, "polarity": polarity, "pattern": pattern, "kif_text": kif_text,
            "provenance": {"synsets": synsets, "terms": terms,
                           "morph_relation": morph_relation}}


@pytest.mark.parametrize("record", [
    _cq_record("cq_antclass_freezing_melting", "truth", "antclass",
               "(not (exists (?X) (and (instance ?X Melting) (instance ?X Freezing))))",
               ["n:00100101", "n:00100202"], ["Freezing", "Melting"], None),
    _cq_record("cq_relresult_composingmusic_musicalcomposition", "truth", "relresult",
               "(exists (?X ?Y) (and (instance ?X ComposingMusic) (result ?X ?Y) "
               "(instance ?Y MusicalComposition)))",
               ["v:02200200", "n:01400707"], ["ComposingMusic", "MusicalComposition"],
               "result"),
    _cq_record("cq_event1_death_killing", "truth", "event1", "(not (equal Death Killing))",
               ["v:02100100", "n:01500808"], ["Death", "Killing"], "event"),
    _cq_record("cq_event2_pretending_repairing", "truth", "event2",
               "(not (subclass Repairing Pretending))",
               ["v:02300300", "n:01600909"], ["Pretending", "Repairing"], "event"),
    _cq_record("cq_event3_comparing_judging", "truth", "event3",
               "(not (or (subclass Judging Comparing) (subclass Comparing Judging)))",
               ["v:02400400", "n:01701010"], ["Judging", "Comparing"], "event"),
    _cq_record("cq_relagent_teacher_teaching_falsity", "falsity", "relagent",
               "(forall (?X ?Y) (or (not (instance ?X Teaching)) (not (agent ?X ?Y)) "
               "(not (instance ?Y Teacher))))",
               ["v:02700700", "n:01801111"], ["Teaching", "Teacher"], "agent"),
], ids=lambda r: r["pattern"] + "-" + r["polarity"])
def test_corpus_records_are_pinned(pipeline, record):
    """The corpus store's question order, and one exact record of each
    generated family plus a falsity twin."""
    records = store.read_ldjson(pipeline.root / "stores" / "corpus.ldjson", "corpus")
    assert [r["id"] for r in records] == CORPUS_IDS
    assert record in records


def test_propagate_output(pipeline):
    step = pipeline.steps["propagate"]
    assert step.out == "input=22 core=21 dropped=1\n"
    assert "dropped: no_core_ancestor=1\n" in step.err
    assert "Salmon" not in step.err


def test_generate_output(pipeline):
    corpus_path = pipeline.root / "stores" / "corpus.ldjson"
    assert pipeline.steps["generate"].out == (
        "antonym truth=3 falsity=3\n"
        "relation truth=3 falsity=3\n"
        "event1 truth=1 falsity=1\n"
        "event2 truth=1 falsity=1\n"
        "event3 truth=1 falsity=1\n"
        "creative truth=2 falsity=1\n"
        "total truth=11 falsity=10\n"
        "skipped non_equivalence=1 other_relation=1 unmapped=1\n"
        f"wrote {corpus_path} (21 questions)\n"
    )


def test_emit_output(pipeline):
    problems = pipeline.root / "problems"
    assert pipeline.steps["emit"].out == f"wrote 21 problems to {problems}\n"
    assert len(list(problems.glob("*.p"))) == 21


def test_run_output(pipeline):
    journal = pipeline.root / "journal.ldjson"
    assert pipeline.steps["run"].out == (
        "GaveUp=18 Theorem=3\n"
        f"journal: {journal} (21 results)\n"
    )


def test_rerun_skips_everything(pipeline):
    # the journal already covers all 21 problems, so a second run is a no-op
    before = (pipeline.root / "journal.ldjson").read_text(encoding="utf-8")
    code, out, err = run_cli("run", "--config", str(pipeline.config))
    assert code == 0, err
    assert "(21 results)" in out
    assert (pipeline.root / "journal.ldjson").read_text(encoding="utf-8") == before


# --------------------------------------------------------------------------
# report / diff / check-cqs against the finished campaign


def test_report_text(pipeline):
    code, out, err = run_cli("report", "--config", str(pipeline.config))
    assert code == 0, err
    assert "truth-tests" in out
    assert "falsity-tests" in out
    assert "note: mean times cover settled questions only" in out


def test_report_json_and_out_file(pipeline, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        "report", "--config", str(pipeline.config), "--format", "json",
        "--out", str(target),
    )
    assert code == 0, err
    assert out == f"wrote {target}\n"
    doc = json.loads(target.read_text(encoding="utf-8"))
    totals = {
        r["polarity"]: r["total"] for r in doc["rows"] if r["family"] == "total"
    }
    assert totals == {"truth": 11, "falsity": 10}


def test_report_csv(pipeline):
    code, out, err = run_cli(
        "report", "--config", str(pipeline.config), "--format", "csv"
    )
    assert code == 0, err
    assert out.splitlines()[0].startswith("polarity,family,total,passing")


def test_diff_same_journal_is_quiet(pipeline):
    journal = str(pipeline.root / "journal.ldjson")
    code, out, err = run_cli("diff", "--config", str(pipeline.config), journal, journal)
    assert code == 0, err
    assert out == "no changes\n"


def _journal_naming_a_stray_question(pipeline, tmp_path):
    journal = tmp_path / "journal.ldjson"
    stray = {"cq_id": "cq_made_up", "szs": "GaveUp", "wall_seconds": 1.0}
    journal.write_text(
        (pipeline.root / "journal.ldjson").read_text(encoding="utf-8")
        + json.dumps(stray) + "\n",
        encoding="utf-8",
    )
    return str(journal)


def test_report_rejects_a_result_for_an_unknown_question(pipeline, tmp_path):
    journal = _journal_naming_a_stray_question(pipeline, tmp_path)
    _expect_error(["report", "--config", str(pipeline.config), "--journal", journal],
                  "'cq_made_up'")


def test_diff_rejects_a_result_for_an_unknown_question(pipeline, tmp_path):
    journal = _journal_naming_a_stray_question(pipeline, tmp_path)
    _expect_error(["diff", "--config", str(pipeline.config),
                   str(pipeline.root / "journal.ldjson"), journal], "'cq_made_up'")


@pytest.mark.parametrize("argv", [
    ("report", "--journal", "nope1.ldjson"), ("diff", "journal.ldjson", "nope2.ldjson"),
], ids=["report", "diff"])
def test_a_missing_journal_is_an_error(pipeline, argv):
    # a mistyped path must not read as an empty journal: all unknown, or no changes
    err = _expect_error([argv[0], "--config", str(pipeline.config), *argv[1:]], "journal not found: ")
    assert err.endswith(f"{pipeline.root / argv[-1]}\n")


def test_check_cqs_none_trivial(pipeline):
    code, out, err = run_cli(
        "check-cqs", "--config", str(pipeline.config), "--timeout", "1"
    )
    assert code == 0, err
    assert out == "checked 21 questions, 0 trivial\n"


def test_check_cqs_flags_self_proving(tmp_path):
    from cqeval import cqgen, kif

    cq = cqgen.CompetencyQuestion(
        id="cq_self_proving",
        polarity=cqgen.Polarity.TRUTH,
        pattern=cqgen.Pattern.CREATIVE,
        formula=kif.parse_kif("(forall (?X) (=> (instance ?X A) (instance ?X A)))")[0],
    )
    store.write_ldjson(
        tmp_path / "stores" / "corpus.ldjson", "corpus", [cqgen.cq_to_record(cq)]
    )
    config = write_config(tmp_path, {"stores_dir": "stores"})
    code, out, err = run_cli("check-cqs", "--config", str(config))
    assert code == 0, err
    assert out == "trivial: cq_self_proving\nchecked 1 questions, 1 trivial\n"


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_check_cqs_rejects_non_positive_timeout(pipeline, timeout):
    # every check would time out, and a timeout counts as nontrivial
    code, out, err = run_cli(
        "check-cqs", "--config", str(pipeline.config), "--timeout", timeout
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "timeout must be positive" in err


# --------------------------------------------------------------------------
# translate and include-mode emit


def test_translate_round_trips(tmp_path):
    out_path = tmp_path / "core.ax"
    code, out, err = run_cli("translate", str(ONT / "core.kif"), str(out_path))
    assert code == 0, err
    original = ontology.load_ontology(ONT / "core.kif")
    assert out == f"wrote {out_path} ({len(original.axioms)} axioms)\n"
    back = ontology.load_ontology(out_path)
    assert [a.label for a in back.axioms] == [a.label for a in original.axioms]


def test_emit_rejects_unknown_mode(pipeline, tmp_path):
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    raw = base_config()
    raw["emit_mode"] = "inlin"
    code, out, err = run_cli("emit", "--config", str(write_config(tmp_path, raw)))
    assert (code, out) == (2, "")
    assert err == "error: unknown emit_mode 'inlin': expected one of inline, include\n"
    assert not (tmp_path / "problems").exists()


def test_emit_include_mode(pipeline):
    raw = base_config()
    raw["problems_dir"] = "problems_include"
    config = write_config(pipeline.root, raw, name="include.json")
    code, out, err = run_cli("emit", "--config", str(config), "--mode", "include")
    assert code == 0, err
    problems = pipeline.root / "problems_include"
    assert out == f"wrote 21 problems to {problems}\n"
    assert (problems / "axioms.ax").exists()
    sample = problems / "cq_antattr_asleep_awake.p"
    text = sample.read_text(encoding="utf-8")
    assert "include('axioms.ax')." in text
    axioms, (name, _) = tptp.read_problem(sample)
    assert name == "cq_antattr_asleep_awake"
    assert len(axioms) > 0


# --------------------------------------------------------------------------
# prover command precedence


def _gaveup_prover(tmp_path):
    script = tmp_path / "fakeprover.py"
    script.write_text('print("% SZS status GaveUp for x")\n', encoding="utf-8")
    return f"{sys.executable} {script} {{problem}}"


@pytest.fixture()
def mini_campaign(pipeline, tmp_path):
    """One already-emitted problem in a fresh directory with its own config."""
    problems = tmp_path / "problems"
    problems.mkdir()
    shutil.copy(
        pipeline.root / "problems" / "cq_antattr_asleep_awake.p",
        problems / "cq_antattr_asleep_awake.p",
    )
    config = write_config(
        tmp_path,
        {
            "problems_dir": "problems",
            "outputs_dir": "outputs",
            "journal": "journal.ldjson",
            "prover_cmd": "builtin",
            "timeout_seconds": 5,
        },
    )
    return tmp_path, config


def test_config_prover_used_by_default(mini_campaign):
    root, config = mini_campaign
    code, out, err = run_cli("run", "--config", str(config))
    assert code == 0, err
    assert out.splitlines()[0] == "Theorem=1"


def test_env_overrides_config(mini_campaign, monkeypatch, tmp_path):
    root, config = mini_campaign
    monkeypatch.setenv("CQEVAL_PROVER_CMD", _gaveup_prover(tmp_path))
    code, out, err = run_cli("run", "--config", str(config), "--journal", "j_env.ldjson")
    assert code == 0, err
    assert out.splitlines()[0] == "GaveUp=1"


def test_flag_overrides_env(mini_campaign, monkeypatch, tmp_path):
    root, config = mini_campaign
    monkeypatch.setenv("CQEVAL_PROVER_CMD", _gaveup_prover(tmp_path))
    code, out, err = run_cli(
        "run", "--config", str(config), "--journal", "j_flag.ldjson",
        "--prover-cmd", "builtin",
    )
    assert code == 0, err
    assert out.splitlines()[0] == "Theorem=1"


def test_jobs_env_is_honored(mini_campaign, monkeypatch):
    root, config = mini_campaign
    monkeypatch.setenv("CQEVAL_JOBS", "4")
    code, out, err = run_cli("run", "--config", str(config), "--journal", "j_jobs.ldjson")
    assert code == 0, err
    assert out.splitlines()[0] == "Theorem=1"


def test_unset_run_settings_keep_the_runner_defaults(tmp_path):
    cfg = cli.Config({}, tmp_path)
    rcfg = cli._runner_config(cfg, cli.build_parser().parse_args(["run"]))
    defaults = runner.RunnerConfig(tmp_path / "outputs", tmp_path / "journal.ldjson")
    assert rcfg == defaults


def test_run_settings_may_be_numeric_strings(tmp_path, monkeypatch):
    cfg = cli.Config({"jobs": "3", "timeout_seconds": "2.5", "builtin_max_literals": "7",
                      "builtin_max_clauses": 9}, tmp_path)
    args = cli.build_parser().parse_args(["run"])
    rcfg = cli._runner_config(cfg, args)
    settings = (rcfg.max_parallel, rcfg.timeout_seconds, rcfg.builtin_max_literals,
                rcfg.builtin_max_clauses)
    assert settings == (3, 2.5, 7, 9)
    assert [type(v) for v in settings] == [int, float, int, int]
    monkeypatch.setenv("CQEVAL_JOBS", "2")
    assert cli._runner_config(cfg, args).max_parallel == 2


def test_run_corpus_flag_overrides_problems_dir(mini_campaign, tmp_path):
    root, config = mini_campaign
    other = tmp_path / "elsewhere"
    other.mkdir()
    shutil.copy(root / "problems" / "cq_antattr_asleep_awake.p", other / "cq_moved.p")
    code, out, err = run_cli(
        "run", "--config", str(config), "--corpus", str(other),
        "--journal", "j_corpus.ldjson",
    )
    assert code == 0, err
    assert out.endswith("(1 results)\n")
    assert "cq_moved" in (root / "j_corpus.ldjson").read_text(encoding="utf-8")


# --------------------------------------------------------------------------
# error paths


def _expect_error(argv, needle):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
    assert needle in err
    return err


def test_missing_config_file(tmp_path):
    _expect_error(
        ["ingest", "--config", str(tmp_path / "nope.json")], "config file not found"
    )


def test_config_not_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    _expect_error(["ingest", "--config", str(bad)], "not valid JSON")


def test_ingest_without_inputs(tmp_path):
    config = write_config(tmp_path, {"stores_dir": "stores"})
    _expect_error(["ingest", "--config", str(config)], "no input files")


def test_ingest_unknown_pos(tmp_path):
    raw = {"wordnet": {"data": {"plural": str(ONT / "core.kif")}}, "stores_dir": "s"}
    config = write_config(tmp_path, raw)
    _expect_error(["ingest", "--config", str(config)], "unknown part of speech 'plural'")


def test_ingest_unknown_mapping_pos(tmp_path):
    raw = base_config()
    raw["mappings"]["plural"] = raw["mappings"]["noun"]
    config = write_config(tmp_path, raw)
    _expect_error(["ingest", "--config", str(config)],
                  "unknown part of speech 'plural' in mappings")


def test_checksum_mismatch(tmp_path):
    raw = base_config()
    noun_path = raw["wordnet"]["data"]["noun"]
    raw["checksums"] = {noun_path: "0" * 64}
    config = write_config(tmp_path, raw)
    err = _expect_error(["ingest", "--config", str(config)], "checksum mismatch")
    assert "config pins 000" in err


def _vocabulary_from_domain(tmp_path, pin=None):
    # a copy, so that no other input names the file
    vocabulary = shutil.copy(ONT / "domain.kif", tmp_path / "vocabulary.kif")
    raw = base_config()
    raw["ontology"]["vocabulary_source"] = "vocabulary.kif"
    raw["checksums"] = {"vocabulary.kif": pin or store.sha256_file(vocabulary)}
    config = write_config(tmp_path, raw)
    assert run_cli("ingest", "--config", str(config))[0] == 0
    return config


def test_vocabulary_source_is_honoured(tmp_path):
    # the domain extension names only two of the mapped terms' core ancestors
    code, out, err = run_cli("propagate", "--config", str(_vocabulary_from_domain(tmp_path)))
    assert code == 0, err
    assert out == "input=22 core=2 dropped=20\n"


def test_vocabulary_source_checksum_mismatch(tmp_path):
    config = _vocabulary_from_domain(tmp_path, pin="0" * 64)
    err = _expect_error(["propagate", "--config", str(config)], "checksum mismatch")
    assert "vocabulary.kif" in err


def test_propagate_before_ingest(tmp_path):
    config = write_config(tmp_path)
    _expect_error(
        ["propagate", "--config", str(config)], "mapping store missing"
    )


def test_generate_before_propagate(tmp_path):
    config = write_config(tmp_path)
    assert run_cli("ingest", "--config", str(config))[0] == 0
    err = _expect_error(["generate", "--config", str(config)], "core_mapping store missing")
    assert "run propagate first" in err


def test_generate_before_ingest(tmp_path):
    config = write_config(tmp_path)
    err = _expect_error(["generate", "--config", str(config)], "store missing")
    assert "run ingest first" in err


def test_emit_before_generate(tmp_path):
    config = write_config(tmp_path)
    err = _expect_error(["emit", "--config", str(config)], "corpus store missing")
    assert "run generate first" in err


def _stores_with_bad_record(pipeline, tmp_path, name, edit):
    """A campaign over a copy of the pipeline's stores in which ``edit``
    has changed the first record of store ``name``."""
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    path = tmp_path / "stores" / f"{name}.ldjson"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(first)
    edit(rec)
    path.write_text("\n".join([header, json.dumps(rec), *rest]) + "\n", encoding="utf-8")
    return write_config(tmp_path), path


@pytest.mark.parametrize("stage, name, edit, needle", [
    ("propagate", "mapping", lambda r: r.pop("term"), "bad record: fields"),
    ("propagate", "mapping", lambda r: r.update(relation="?"),
     "bad record: relation '?' is not a MappingRelation"),
    ("emit", "corpus", lambda r: r.update(kif_text="(not (p a)"), "bad record: "),
], ids=["mapping-missing-field", "mapping-bad-enum", "corpus-bad-formula"])
def test_bad_store_record_names_its_line(pipeline, tmp_path, stage, name, edit, needle):
    config, path = _stores_with_bad_record(pipeline, tmp_path, name, edit)
    err = _expect_error([stage, "--config", str(config)], f"{path}:2: {needle}")
    assert err.count("\n") == 1  # one line, no traceback


def _with_fault(tmp_path, source, fault):
    """A copy of ``source`` in ``tmp_path`` with the line ``fault`` appended,
    and that line's number."""
    text = source.read_text(encoding="utf-8")
    bad = tmp_path / source.name
    bad.write_text(text + fault + "\n", encoding="utf-8")
    return bad, text.count("\n") + 1


@pytest.mark.parametrize("keys, fault, reason", [
    (("wordnet", "data", "noun"), "00000009 03 x 01 thing 0 000",
     "synset record has unknown ss_type 'x'"),
    (("wordnet", "data", "verb"), "00000009 03 v 01 go 0 001 ! 123 v 0000",
     "pointer target has offset '123', not 8 digits"),
    (("mappings", "verb"), "123 03 v 01 go 0 000 | g &%Motion=",
     "synset record has offset '123', not 8 digits"),
    (("wordnet", "sense_index"), "go%2:38:00:: 123 1 0",
     "sense index entry has offset '123', not 8 digits"),
], ids=["data", "pointer", "mapping", "sense-index"])
def test_bad_wordnet_input_names_its_file(tmp_path, keys, fault, reason):
    raw = base_config()
    section = raw
    for key in keys[:-1]:
        section = section[key]
    bad, line = _with_fault(tmp_path, Path(section[keys[-1]]), fault)
    section[keys[-1]] = bad.name  # as the config names it
    code, _, err = run_cli("ingest", "--config", str(write_config(tmp_path, raw)))
    assert (code, err) == (2, f"error: {bad.name}:{line}: {reason}\n")


def _propagate_with_core(pipeline, tmp_path, source, fault):
    """``propagate``'s exit code and stderr with ``source``, ``fault``
    appended, as the core ontology; the faulty copy and that line's number."""
    bad, line = _with_fault(tmp_path, source, fault)
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    raw = base_config()
    raw["ontology"]["core"] = str(bad)
    code, _, err = run_cli("propagate", "--config", str(write_config(tmp_path, raw)))
    return code, err, bad, line


def test_bad_core_ontology_names_its_file(pipeline, tmp_path):
    code, err, bad, line = _propagate_with_core(pipeline, tmp_path, ONT / "core.kif",
                                                "(subclass A")
    assert (code, err) == (2, f"error: {bad}:{line}:1: unclosed '('\n")


@pytest.mark.parametrize("fault, reason", [
    ("fof(c, conjecture, s__p).", "conjecture unit in an ontology file"),
    ("fof(ax_x, axiom, s__p", "unclosed unit"),
], ids=["conjecture", "unclosed"])
def test_bad_tptp_core_ontology_names_its_file(pipeline, tmp_path, fault, reason):
    (tmp_path / "tptp").mkdir()
    rendered = tptp.render_axioms(ontology.load_ontology(ONT / "core.kif"))
    source = tptp.write_axiom_file(rendered, tmp_path / "tptp" / "core.ax")
    code, err, bad, line = _propagate_with_core(pipeline, tmp_path, source, fault)
    assert (code, err) == (2, f"error: {bad}:{line}: {reason}\n")


def test_bad_creative_file_names_its_file(pipeline, tmp_path):
    bad, line = _with_fault(tmp_path, CREATIVE, "(instance ?X @ROW)")
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    raw = base_config()
    raw["creative"] = str(bad)
    code, _, err = run_cli("generate", "--config", str(write_config(tmp_path, raw)))
    reason = "unsupported construct: row variable @ROW"
    assert (code, err) == (2, f"error: {bad}:{line}:14: {reason}\n")


# each reader of a stage's input: the stage, the file in the campaign
# directory, the file it copies if any, and the config keys that name it
_READERS = {
    "config": ("ingest", "campaign.json", None, ()),
    "wordnet": ("ingest", "data.noun", WN / "data.noun", ("wordnet", "data", "noun")),
    "kif-ontology": ("propagate", "core.kif", ONT / "core.kif", ("ontology", "core")),
    "tptp-ontology": ("propagate", "core.ax", None, ("ontology", "core")),
    "creative": ("generate", "creative.kif", CREATIVE, ("creative",)),
    "store": ("emit", "stores/corpus.ldjson", None, ()),
    "journal": ("report", "journal.ldjson", None, ()),
}


@pytest.mark.parametrize("reader", _READERS)
def test_input_that_is_not_utf8_names_its_file(pipeline, tmp_path, reader):
    stage, name, source, keys = _READERS[reader]
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    shutil.copy(pipeline.root / "journal.ldjson", tmp_path / "journal.ldjson")
    path = tmp_path / name
    if source:
        shutil.copy(source, path)
    elif path.suffix == ".ax":
        tptp.write_axiom_file(tptp.render_axioms(ontology.load_ontology(ONT / "core.kif")), path)
    raw = base_config()
    if keys:
        section = raw
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = str(path)
    config = write_config(tmp_path, raw)
    data = path.read_bytes()
    path.write_bytes(data + b"\xff\n")
    code, _, err = run_cli(stage, "--config", str(config))
    line = data.count(b"\n") + 1
    assert (code, err) == (2, f"error: {path}:{line}: not UTF-8 text: invalid start byte\n")


def test_store_header_that_is_not_json_names_its_line(pipeline, tmp_path):
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    path = tmp_path / "stores" / "corpus.ldjson"
    _, *records = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(["not json", *records]) + "\n", encoding="utf-8")
    err = _expect_error(["emit", "--config", str(write_config(tmp_path))], f"{path}:1: bad record: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("edit, reason", [
    (lambda r: r.update(szs="Bogus"), "'Bogus' is not a valid SzsStatus"),
    (lambda r: r.pop("wall_seconds"), "no field 'wall_seconds'"),
    (lambda r: r.update(used_axioms="ax_1"), "used_axioms 'ax_1' is not a list of names"),
    (lambda r: r.update(wall_seconds="0.1"), "wall_seconds '0.1' is not a number"),
    (lambda r: r["search"].update(given="4"), "search given '4' is not a count"),
], ids=["bad-status", "no-wall-seconds", "string-used-axioms", "string-wall-seconds",
        "string-search-count"])
@pytest.mark.parametrize("argv", [
    ("run",), ("report",), ("diff", "journal.ldjson", "journal.ldjson"),
], ids=["run", "report", "diff"])
def test_bad_journal_record_names_its_line(pipeline, tmp_path, argv, edit, reason):
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    shutil.copytree(pipeline.root / "problems", tmp_path / "problems")
    first, second, *_ = (pipeline.root / "journal.ldjson").read_text(encoding="utf-8").splitlines()
    rec = json.loads(second)
    edit(rec)
    journal = tmp_path / "journal.ldjson"
    # a good record after the bad one: it is no torn tail
    journal.write_text("\n".join([first, json.dumps(rec), first]) + "\n", encoding="utf-8")
    config = write_config(tmp_path)
    code, _, err = run_cli(argv[0], "--config", str(config), *argv[1:])
    assert (code, err) == (2, f"error: {journal}:2: bad record: {reason}\n")


CONFIG_STAGES = [("ingest",), ("propagate",), ("generate",), ("emit",), ("report",),
                 ("diff", "journal.ldjson", "journal.ldjson"), ("check-cqs",)]


@pytest.mark.parametrize("argv, edit, reason", [
    (("ingest",), lambda raw: raw.update(checksums=[]),
     "checksums must be an object of strings, got []"),
    (("ingest",), lambda raw: raw.update(mapping_suffixes=5),
     "mapping_suffixes must be a list of strings, got 5"),
    *((argv, lambda raw: raw.update(stores_dir=5), "stores_dir must be a string, got 5")
      for argv in CONFIG_STAGES),
    (("propagate",), lambda raw: raw["ontology"].update(core=5),
     "ontology.core must be a string, got 5"),
    (("generate",), lambda raw: raw["ontology"].update(core=5),
     "ontology.core must be a string, got 5"),
    (("generate",), lambda raw: raw.update(creative=["x"]),
     "creative must be a string, got ['x']"),
    (("generate",), lambda raw: raw["ontology"].update(extra=[5]),
     "ontology.extra must be a list of strings, got [5]"),
    (("ingest",), lambda raw: raw.update(wordnet=5), "wordnet must be an object, got 5"),
    (("run",), lambda raw: raw.update(jobs=4.5), "jobs must be a whole number, got 4.5"),
    (("run",), lambda raw: raw.update(jobs=True), "jobs must be a whole number, got True"),
    (("run",), lambda raw: raw.update(timeout_seconds="abc"),
     "timeout_seconds must be a number, got 'abc'"),
    (("run",), lambda raw: raw.update(timeout_seconds=False),
     "timeout_seconds must be a number, got False"),
    (("run",), lambda raw: raw.update(builtin_max_literals=[12]),
     "builtin_max_literals must be a whole number, got [12]"),
    (("run",), lambda raw: raw.update(builtin_max_clauses="1e3"),
     "builtin_max_clauses must be a whole number, got '1e3'"),
], ids=["checksums", "mapping-suffixes", *(f"stores-dir-{argv[0]}" for argv in CONFIG_STAGES),
        "core-propagate", "core-generate", "creative", "extra", "wordnet", "jobs-fraction",
        "jobs-bool", "timeout-text", "timeout-bool", "literals-list", "clauses-exponent"])
def test_config_value_of_the_wrong_type_names_its_key(pipeline, tmp_path, argv, edit, reason):
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    shutil.copy(pipeline.root / "journal.ldjson", tmp_path / "journal.ldjson")
    raw = base_config()
    edit(raw)
    code, out, err = run_cli(argv[0], "--config", str(write_config(tmp_path, raw)), *argv[1:])
    assert (code, out, err) == (2, "", f"error: config key {reason}\n")


def test_run_without_problems(tmp_path):
    config = write_config(tmp_path)
    _expect_error(["run", "--config", str(config)], "no problem files in")


def test_run_with_malformed_journal(mini_campaign):
    root, config = mini_campaign
    (root / "journal.ldjson").write_text('not json\n{"cq_id": "cq_x"}\n', encoding="utf-8")
    _expect_error(["run", "--config", str(config)], f"{root / 'journal.ldjson'}:1: bad record")


@pytest.mark.parametrize("flags, needle", [
    (("--jobs", "-1"), "max_parallel must be at least 1"),
    (("--jobs", "0"), "max_parallel must be at least 1"),
    (("--timeout", "-2"), "timeout_seconds must be positive"),
    (("--timeout", "0"), "timeout_seconds must be positive"),
    (("--timeout", "nan"), "timeout_seconds must be positive"),
])
def test_run_rejects_bad_flags(mini_campaign, flags, needle):
    root, config = mini_campaign
    _expect_error(["run", "--config", str(config), *flags], needle)
    assert not (root / "journal.ldjson").exists()


@pytest.mark.parametrize("template, reason", [
    ("echo {foo} {problem}", " may fill in only {problem} and {timeout}"),
    ("echo {0} {problem}", " may fill in only {problem} and {timeout}"),
    ("{problem", ": expected '}' before end of string"),
    ("echo 'unclosed {problem}", ": No closing quotation"),
    (" ", " names no command"),
], ids=["unknown-name", "positional", "unclosed-brace", "unclosed-quote", "blank"])
def test_run_rejects_a_bad_prover_template(mini_campaign, template, reason):
    root, config = mini_campaign
    code, out, err = run_cli("run", "--config", str(config), "--prover-cmd", template)
    assert (code, out, err) == (2, "", f"error: bad run setting: prover_cmd {template!r}{reason}\n")
    assert not (root / "journal.ldjson").exists()


@pytest.mark.parametrize("key", ["builtin_max_literals", "builtin_max_clauses"])
def test_run_rejects_a_negative_prover_cap(mini_campaign, key):
    root, config = mini_campaign
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw[key] = -3
    config.write_text(json.dumps(raw), encoding="utf-8")
    err = _expect_error(["run", "--config", str(config)], key)
    assert err == f"error: bad run setting: {key} must not be negative\n"
    assert not (root / "journal.ldjson").exists()


@pytest.mark.parametrize("spelling", ["flag", "text", "json"])
def test_run_rejects_an_endless_limit_for_an_external_prover(mini_campaign, spelling):
    root, config = mini_campaign
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["prover_cmd"] = f"{sys.executable} -m cqeval.prover_cli {{problem}} --timeout {{timeout}}"
    text = json.dumps(raw)
    if spelling == "text":
        text = text.replace('"timeout_seconds": 5', '"timeout_seconds": "inf"')
    elif spelling == "json":
        text = text.replace('"timeout_seconds": 5', '"timeout_seconds": 1e400')
    config.write_text(text, encoding="utf-8")
    flags = ("--timeout", "inf") if spelling == "flag" else ()
    err = _expect_error(["run", "--config", str(config), *flags], "finite")
    assert err == ("error: bad run setting: "
                   "timeout_seconds must be finite for an external prover\n")
    assert not (root / "journal.ldjson").exists()
    # the bundled prover runs without a limit
    code, out, err = run_cli("run", "--config", str(config), *flags, "--prover-cmd", "builtin")
    assert (code, err) == (0, "")
    assert out.startswith("Theorem=1\n")


def test_run_rejects_bad_jobs_env(mini_campaign, monkeypatch):
    root, config = mini_campaign
    for value in ("two", "4.5"):
        monkeypatch.setenv("CQEVAL_JOBS", value)
        err = _expect_error(["run", "--config", str(config)], f"'{value}'")
        assert err == f"error: CQEVAL_JOBS must be a whole number, got '{value}'\n"
