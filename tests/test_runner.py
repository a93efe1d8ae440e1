"""Campaign driver: journaling, external process control, builtin path,
worker processes."""

import concurrent.futures
import contextlib
import gc
import inspect
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from conftest import base_config, run_cli, write_config
from cqeval import Error, microprover, prover_cli, tptp
from cqeval.runner import (
    RunnerConfig,
    discover_problems,
    journal_record,
    read_journal,
    result_from_record,
    run_corpus,
    run_one,
)
from cqeval.tptp import (
    ProblemFile,
    ProverResult,
    SearchCounts,
    SzsStatus,
    parse_szs,
)

PROBLEM_TEXT = """\
% cq: cq_toy
% pattern: antclass
% polarity: truth
fof(ax_fact, axiom, s__p(s__a)).
fof(cq_toy, conjecture, s__p(s__a)).
"""


def _problem(tmp_path, cq_id="cq_toy"):
    path = tmp_path / f"{cq_id}.p"
    path.write_text(PROBLEM_TEXT.replace("cq_toy", cq_id), encoding="utf-8")
    return ProblemFile(path=path, cq_id=cq_id)


def _cfg(tmp_path, **kw):
    kw.setdefault("output_dir", tmp_path / "outputs")
    kw.setdefault("journal_path", tmp_path / "journal.ldjson")
    return RunnerConfig(**kw)


def _fake_prover(tmp_path, name, body):
    """A stand-in prover script; returns the command prefix for templates."""
    path = tmp_path / name
    path.write_text("import sys, time\n" + body, encoding="utf-8")
    return f"{sys.executable} {path}"


# --------------------------------------------------------------------------
# config and journal plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        RunnerConfig(output_dir="o", journal_path="j", max_parallel=0)
    with pytest.raises(ValueError):
        RunnerConfig(output_dir="o", journal_path="j", timeout_seconds=0)
    cfg = RunnerConfig(output_dir="o", journal_path="j")
    assert cfg.journal_path.name == "j"  # coerced to Path


def test_journal_record_round_trip():
    r = ProverResult(SzsStatus.THEOREM, 1.25, ("ax_b", "ax_a"), "/tmp/x.out",
                     SearchCounts(given=4, pairs=3, unifications=2, kept=1, dedup_hits=0))
    rec = journal_record("cq_x", r)
    assert rec["cq_id"] == "cq_x"
    assert rec["szs"] == "Theorem"
    assert rec["used_axioms"] == ["ax_b", "ax_a"]
    assert rec["search"] == {"given": 4, "pairs": 3, "unifications": 2, "kept": 1,
                             "dedup_hits": 0}
    back = result_from_record(json.loads(json.dumps(rec)))
    assert back == r


def test_journal_record_without_search_counts():
    """External provers print no counters, and older journals have no
    ``search`` key: both read back as None."""
    r = ProverResult(SzsStatus.GAVE_UP, 0.5)
    rec = journal_record("cq_x", r)
    assert "search" not in rec
    assert result_from_record(json.loads(json.dumps(rec))) == r


def test_journal_record_with_reported_seconds_still_loads():
    """Older journals carry a ``reported_seconds`` key, which is ignored."""
    rec = journal_record("cq_x", ProverResult(SzsStatus.GAVE_UP, 0.5))
    rec["reported_seconds"] = 0.4
    assert result_from_record(rec) == ProverResult(SzsStatus.GAVE_UP, 0.5)


def test_read_journal_missing_file(tmp_path):
    assert read_journal(tmp_path / "nope.ldjson") == {}


def test_read_journal_tolerates_torn_tail(tmp_path):
    good = json.dumps(journal_record("cq_a", ProverResult(SzsStatus.GAVE_UP, 0.1, ())))
    path = tmp_path / "j.ldjson"
    path.write_text(good + "\n" + '{"cq_id": "cq_b", "szs"', encoding="utf-8")
    out = read_journal(path)
    assert list(out) == ["cq_a"]
    assert out["cq_a"].szs is SzsStatus.GAVE_UP


def test_read_journal_rejects_a_bad_last_line_that_is_not_torn(tmp_path):
    # a line that ends in a newline was written whole, and the next append
    # would not cut it
    good = json.dumps(journal_record("cq_a", ProverResult(SzsStatus.GAVE_UP, 0.1, ())))
    path = tmp_path / "j.ldjson"
    path.write_text(good + "\n" + '{"cq_id": "cq_b", "szs"\n', encoding="utf-8")
    with pytest.raises(Error, match=":2: bad record"):
        read_journal(path)


def test_read_journal_rejects_malformed_middle(tmp_path):
    good = json.dumps(journal_record("cq_a", ProverResult(SzsStatus.GAVE_UP, 0.1, ())))
    path = tmp_path / "j.ldjson"
    path.write_text("not json at all\n" + good + "\n", encoding="utf-8")
    with pytest.raises(Error, match="j.ldjson:1: bad record: "):
        read_journal(path)


def test_discover_problems_sorted_by_stem(tmp_path):
    for stem in ("cq_b", "cq_a"):
        (tmp_path / f"{stem}.p").write_text("x", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x", encoding="utf-8")
    found = discover_problems(tmp_path)
    assert [p.cq_id for p in found] == ["cq_a", "cq_b"]


# --------------------------------------------------------------------------
# builtin backend


def test_builtin_run_archives_output(tmp_path):
    cfg = _cfg(tmp_path)
    result = run_one(_problem(tmp_path), cfg)
    assert result.szs is SzsStatus.THEOREM
    assert result.used_axioms == ("ax_fact",)
    out = tmp_path / "outputs" / "cq_toy.out"
    assert out.exists()
    text = out.read_text(encoding="utf-8")
    assert "SZS status Theorem" in text
    assert "ax_fact" in text
    assert result.raw_output_path == str(out)
    assert "\n% Search: given=2 pairs=1 unifications=1 kept=0 dedup_hits=0\n" in text
    assert result.search == SearchCounts(given=2, pairs=1, unifications=1, kept=0, dedup_hits=0)
    assert parse_szs(text) == (SzsStatus.THEOREM, ("ax_fact",))


def test_builtin_bad_problem_is_error(tmp_path):
    path = tmp_path / "cq_bad.p"
    path.write_text("fof(ax_only, axiom, s__p(s__a)).\n", encoding="utf-8")
    cfg = _cfg(tmp_path)
    result = run_one(ProblemFile(path=path, cq_id="cq_bad"), cfg)
    assert result.szs is SzsStatus.ERROR
    assert result.used_axioms == ()
    archived = (tmp_path / "outputs" / "cq_bad.out").read_text(encoding="utf-8")
    assert "SZS status Error" in archived


def test_builtin_problem_that_is_not_utf8_is_error(tmp_path):
    path = _problem(tmp_path).path
    path.write_bytes(path.read_bytes() + b"\xff\n")
    result = run_one(ProblemFile(path=path, cq_id=path.stem), _cfg(tmp_path))
    assert result.szs is SzsStatus.ERROR
    archived = Path(result.raw_output_path).read_text(encoding="utf-8")
    assert "not UTF-8 text: invalid start byte" in archived


def test_prover_cli_exit_code_follows_status(tmp_path, capsys):
    assert prover_cli.main([str(_problem(tmp_path).path)]) == 0
    assert "SZS status Theorem" in capsys.readouterr().out
    bad = tmp_path / "cq_bad.p"
    bad.write_text("fof(ax_only, axiom, s__p(s__a)).\n", encoding="utf-8")
    assert prover_cli.main([str(bad)]) == 1
    assert "SZS status Error" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--max-literals", "--max-clauses"])
def test_prover_cli_rejects_a_negative_cap(tmp_path, capsys, flag):
    problem = str(_problem(tmp_path).path)
    with pytest.raises(SystemExit) as exit:
        prover_cli.main([problem, flag, "-1"])
    assert exit.value.code == 2
    assert f"argument {flag}: must not be negative, got -1" in capsys.readouterr().err
    # a cap of 0 still proves a unit conflict
    assert prover_cli.main([problem, flag, "0"]) == 0
    assert "SZS status Theorem" in capsys.readouterr().out


def test_prover_cli_with_no_time_times_out(tmp_path, capsys):
    assert prover_cli.main([str(_problem(tmp_path).path), "--timeout", "0"]) == 0
    assert "SZS status Timeout" in capsys.readouterr().out


def test_builtin_and_prover_cli_command_agree(pipeline, journal, tmp_path):
    """The same problems, in-process and through the standalone command,
    read the same way."""
    settled = (SzsStatus.THEOREM, SzsStatus.GAVE_UP)
    problems = [p for p in discover_problems(pipeline.root / "problems")
                if journal[p.cq_id].szs in settled]
    assert {journal[p.cq_id].szs for p in problems} == set(settled)
    caps = dict(timeout_seconds=30.0, builtin_max_literals=12, builtin_max_clauses=1200)
    command = (f"{sys.executable} -m cqeval.prover_cli {{problem}} --timeout {{timeout}}"
               " --max-literals 12 --max-clauses 1200")
    builtin = _cfg(tmp_path / "builtin", **caps)
    external = _cfg(tmp_path / "external", prover_cmd=command, **caps)
    for problem in problems:
        a, b = run_one(problem, builtin), run_one(problem, external)
        assert (a.szs, a.used_axioms) == (b.szs, b.used_axioms), problem.cq_id
        assert a.szs is journal[problem.cq_id].szs, problem.cq_id


# --------------------------------------------------------------------------
# the builtin backend's per-process base: never seen in a result


def _cached(path, limit=10.0, cap=microprover.MAX_CLAUSES) -> str:
    """The builtin backend's output for a problem, less its time line."""
    out = prover_cli.prove_problem(path, limit, microprover.MAX_LITERALS, cap)
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("% Time elapsed:"))


def _fresh(path, limit=10.0, cap=microprover.MAX_CLAUSES) -> str:
    """The same, from a read and a proof that share nothing with earlier ones."""
    axioms, (_, conjecture) = tptp.read_problem(path)
    r = microprover.prove(axioms, conjecture, limit_seconds=limit, max_clauses=cap)
    return (tptp.render_szs_output(r.szs, r.used_axioms, problem=Path(path).name)
            + tptp.render_search(r.search))


def _include_problem(tmp_path, name, conjecture, own=(), include="axioms.ax"):
    path = tmp_path / f"{name}.p"
    path.write_text("\n".join([f"include('{include}').", *own,
                               f"fof({name}, conjecture, {conjecture})."]) + "\n",
                    encoding="utf-8")
    return path


def test_base_follows_an_included_file_rewritten_to_the_same_size(tmp_path):
    axioms = tmp_path / "axioms.ax"
    axioms.write_text("fof(ax_fact, axiom, s__p(s__a)).\n", encoding="utf-8")
    first = _include_problem(tmp_path, "cq_first", "s__p(s__a)")
    assert _cached(first).startswith("% SZS status Theorem for cq_first.p\n")
    # the same size, and within the file system's time stamp tick
    axioms.write_text("fof(ax_fact, axiom, s__p(s__b)).\n", encoding="utf-8")
    second = _include_problem(tmp_path, "cq_second", "s__p(s__a)")
    assert _cached(second).startswith("% SZS status GaveUp for cq_second.p\n")
    assert _cached(second) == _fresh(second)


def test_base_is_rebuilt_when_only_a_nested_include_changes(tmp_path):
    (tmp_path / "sub").mkdir()
    nested = tmp_path / "sub" / "more.ax"
    nested.write_text("fof(ax_b, axiom, s__q).\n", encoding="utf-8")
    (tmp_path / "base.ax").write_text("fof(ax_a, axiom, s__p).\ninclude('sub/more.ax').\n",
                                      encoding="utf-8")
    problem = _include_problem(tmp_path, "cq_q", "s__q", include="base.ax")
    assert parse_szs(_cached(problem)) == (SzsStatus.THEOREM, ("ax_b",))
    nested.write_text("fof(ax_b, axiom, s__r).\n", encoding="utf-8")
    assert parse_szs(_cached(problem)) == (SzsStatus.GAVE_UP, ())
    nested.write_text("fof(ax_c, axiom, s__q).\n", encoding="utf-8")
    assert parse_szs(_cached(problem)) == (SzsStatus.THEOREM, ("ax_c",))


def test_base_keeps_the_spelling_check_across_an_include(tmp_path):
    (tmp_path / "axioms.ax").write_text("fof(ax_a, axiom, s__p(s__a)).\n", encoding="utf-8")
    first = _include_problem(tmp_path, "cq_first", "s__p(s__a)")
    assert _cached(first).startswith("% SZS status Theorem for cq_first.p\n")
    second = _include_problem(tmp_path, "prob", "s__p(a)")
    with pytest.raises(Error, match="prob.p:2: 's__a' and 'a' both read as 'a'") as uncached:
        tptp.read_problem(second)
    assert _cached(second) == f"% SZS status Error for prob.p\n% {uncached.value}\n"


def test_base_serves_problems_with_axioms_of_their_own(tmp_path):
    (tmp_path / "axioms.ax").write_text(
        "fof(ax_pq, axiom, ! [X] : (s__p(X) => s__q(X))).\nfof(ax_qr, axiom, ! [X] : (s__q(X) => s__r(X))).\n",
        encoding="utf-8")
    own = ("fof(ax_own, axiom, s__p(s__a)).",)
    problems = [_include_problem(tmp_path, "cq_r", "s__r(s__a)", own),
                _include_problem(tmp_path, "cq_q", "s__q(s__a)", own),
                _include_problem(tmp_path, "cq_none", "s__q(s__a)")]
    outputs = [_cached(p) for p in problems]
    assert [parse_szs(out) for out in outputs] == [
        (SzsStatus.THEOREM, ("ax_own", "ax_pq", "ax_qr")), (SzsStatus.THEOREM, ("ax_own", "ax_pq")),
        (SzsStatus.GAVE_UP, ())]
    assert outputs == [_fresh(p) for p in problems]


@pytest.mark.parametrize("mode", ["inline", "include"])
def test_base_gives_every_fixture_problem_its_fresh_result(pipeline, tmp_path, monkeypatch, mode):
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    raw = base_config()
    raw["problems_dir"] = "problems"
    code, _, err = run_cli("emit", "--config", str(write_config(tmp_path, raw)),
                           "--mode", mode)
    assert code == 0, err
    problems = sorted((tmp_path / "problems").glob("*.p"))
    n_axioms = len(tptp.read_problem(problems[0])[0])
    # a clause cap, not the time limit, ends every search, so counts are exact
    fresh = [_fresh(p, limit=60, cap=100) for p in problems]
    clausified = []
    real = microprover.clausify
    monkeypatch.setattr(microprover, "clausify",
                        lambda f, origin, terms: clausified.append(origin) or real(f, origin, terms))
    cached = [_cached(p, limit=60, cap=100) for p in problems]
    assert len(problems) == 21
    assert {parse_szs(out)[0] for out in fresh} == {SzsStatus.THEOREM, SzsStatus.GAVE_UP}
    assert cached == fresh
    # the axioms were clausified once, the conjectures once each
    assert len(clausified) == n_axioms + len(problems)


@pytest.mark.parametrize("inline", [False, True], ids=["include", "inline"])
def test_a_shared_read_proves_as_a_plain_one(tmp_path, inline):
    shared = "fof(ax_pq, axiom, ! [X] : (s__p(X) => s__q(X))).\nfof(ax_ba, axiom, s__b = s__a).\n"
    (tmp_path / "axioms.ax").write_text(shared, encoding="utf-8")
    problem = _include_problem(tmp_path, "cq_q", "s__q(s__b)", ("fof(ax_own, axiom, s__p(s__a)).",))
    if inline:
        problem.write_text(problem.read_text(encoding="utf-8").replace("include('axioms.ax').\n",
                                                                       shared), encoding="utf-8")

    def proved(**read):
        axioms, (_, conjecture) = tptp.read_problem(problem, **read)
        r = microprover.prove(axioms, conjecture, limit_seconds=10)
        return axioms[0], (r.szs, r.used_axioms, r.search)

    _, plain = proved()
    first, once = proved(shared=True)
    again, twice = proved(shared=True)
    assert isinstance(first, tptp.SharedAxioms) and again is first
    assert plain[:2] == (SzsStatus.THEOREM, ("ax_ba", "ax_own", "ax_pq"))
    assert once == plain and twice == plain


def test_base_is_kept_apart_for_the_same_text_in_another_folder(tmp_path):
    problems = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "axioms.ax").write_text(f"fof(ax_p, axiom, s__p(s__{folder})).\n",
                                                     encoding="utf-8")
        problems.append(_include_problem(tmp_path / folder, "cq_pa", "s__p(s__a)"))
    outputs = [_cached(p) for p in problems]
    assert [parse_szs(out)[0] for out in outputs] == [SzsStatus.THEOREM, SzsStatus.GAVE_UP]
    assert outputs == [_fresh(p) for p in problems]


@pytest.mark.parametrize("files", [
    {"cq.p": "fof(ax_p, axiom, s__p).\ninclude('conjecture.ax').",
     "conjecture.ax": "fof(cq, conjecture, {goal})."},
    {"cq.p": "fof(cq, conjecture, {goal}).\nfof(ax_p, axiom, s__p)."},
], ids=["included_conjecture", "conjecture_first"])
def test_no_base_without_axioms_before_the_problems_own_conjecture(tmp_path, files):
    problem = tmp_path / "cq.p"
    for goal, status in (("s__p", SzsStatus.THEOREM), ("s__q", SzsStatus.GAVE_UP)):
        for name, text in files.items():
            (tmp_path / name).write_text(text.format(goal=goal) + "\n", encoding="utf-8")
        assert parse_szs(_cached(problem))[0] is status
        assert _cached(problem) == _fresh(problem)
        axioms, _ = tptp.read_problem(problem, shared=True)
        assert not any(isinstance(a, tptp.SharedAxioms) for a in axioms)


def test_base_keeps_the_line_of_an_error_after_it(tmp_path, monkeypatch):
    axioms = "fof(ax_p, axiom, s__p).\nfof(ax_q, axiom, s__q).\n"
    first = tmp_path / "cq_first.p"
    first.write_text("% cq: cq_first\n" + axioms + "fof(cq_first, conjecture, s__p).\n",
                     encoding="utf-8")
    assert _cached(first).startswith("% SZS status Theorem for cq_first.p\n")
    bad = tmp_path / "cq_bad.p"
    bad.write_text("% cq: cq_bad\n% a longer header\n" + axioms
                   + "fof(cq_bad, conjecture, (s__p & )).\n", encoding="utf-8")
    with pytest.raises(Error, match="cq_bad.p:5: expected a term") as plain:
        tptp.read_problem(bad)
    starts = []
    real = tptp._tok_fof
    monkeypatch.setattr(tptp, "_tok_fof",
                        lambda text, start=0: starts.append(start) or real(text, start))
    assert _cached(bad) == f"% SZS status Error for cq_bad.p\n% {plain.value}\n"
    # only the text after the shared axioms was read again
    assert starts == [bad.read_text(encoding="utf-8").index("fof(cq_bad")]


def test_one_axiom_file_and_its_clauses_stay_alive(tmp_path):
    for name in ("a", "b"):
        (tmp_path / f"{name}.ax").write_text(f"fof(ax_{name}, axiom, s__{name}).\n",
                                             encoding="utf-8")
        problem = _include_problem(tmp_path, f"cq_{name}", f"s__{name}", include=f"{name}.ax")
        assert parse_szs(_cached(problem)) == (SzsStatus.THEOREM, (f"ax_{name}",))
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, tptp.SharedAxioms)]
    assert [[name for name, _ in read.axioms] for read in alive] == [["ax_b"]]
    assert sum(isinstance(o, microprover._Input) for o in gc.get_objects()) == 1


def test_base_build_is_bounded_by_each_problem_timer(tmp_path):
    # a chain of <=> over distinct atoms doubles its clauses with every
    # connective: clausifying it outlasts any limit given here
    chain = "s__p16"
    for i in reversed(range(16)):
        chain = f"(s__p{i} <=> {chain})"
    (tmp_path / "axioms.ax").write_text(f"fof(ax_chain, axiom, {chain}).\n", encoding="utf-8")
    for i in range(2):
        problem = _include_problem(tmp_path, f"cq_{i}", "s__q")
        start = time.monotonic()
        out = _cached(problem, limit=0.5)
        seconds = time.monotonic() - start
        # a partial base would have been searched at once, to a GaveUp
        assert out.startswith(f"% SZS status Timeout for cq_{i}.p\n"), out
        assert 0.5 <= seconds < 1.5, seconds


# --------------------------------------------------------------------------
# external provers (faked with small scripts)


def test_external_prover_output_parsed(tmp_path):
    cmd = _fake_prover(
        tmp_path,
        "csa.py",
        'print("% SZS status CounterSatisfiable for", sys.argv[1])\n',
    )
    cfg = _cfg(tmp_path, prover_cmd=cmd + " {problem}")
    result = run_one(_problem(tmp_path), cfg)
    assert result.szs is SzsStatus.COUNTER_SATISFIABLE
    assert result.used_axioms == ()
    assert "CounterSatisfiable" in (tmp_path / "outputs" / "cq_toy.out").read_text(
        encoding="utf-8"
    )


def test_external_prover_proof_block_and_time(tmp_path):
    body = (
        'print("% SZS status Theorem for x")\n'
        'print("% SZS output start Proof")\n'
        'print("fof(ax_b, axiom, s__p(s__a)).")\n'
        'print("fof(ax_a, axiom, s__q(s__a)).")\n'
        'print("fof(ax_b, axiom, s__p(s__a)).")\n'
        'print("% SZS output end Proof")\n'
        'print("% Time elapsed: 0.042 s")\n'
    )
    cmd = _fake_prover(tmp_path, "thm.py", body)
    cfg = _cfg(tmp_path, prover_cmd=cmd + " {problem}")
    result = run_one(_problem(tmp_path), cfg)
    assert result.szs is SzsStatus.THEOREM
    assert result.used_axioms == ("ax_b", "ax_a")


def test_external_template_gets_problem_and_timeout(tmp_path):
    body = (
        'print("args:", sys.argv[1], sys.argv[2])\n'
        'print("% SZS status GaveUp for x")\n'
    )
    cmd = _fake_prover(tmp_path, "echo.py", body)
    cfg = _cfg(tmp_path, prover_cmd=cmd + " {problem} {timeout}", timeout_seconds=7.9)
    problem = _problem(tmp_path)
    result = run_one(problem, cfg)
    assert result.szs is SzsStatus.GAVE_UP
    archived = (tmp_path / "outputs" / "cq_toy.out").read_text(encoding="utf-8")
    assert f"args: {problem.path} 7" in archived


@pytest.mark.parametrize("template", ["{problem}", "'{problem}'"])
def test_external_template_keeps_a_path_with_a_space_one_argument(tmp_path, template):
    body = 'print("args:", sys.argv[1:])\nprint("% SZS status GaveUp for x")\n'
    cmd = _fake_prover(tmp_path, "argv.py", body)
    (tmp_path / "sp ace").mkdir()
    problem = _problem(tmp_path / "sp ace", "cq_x")
    cfg = _cfg(tmp_path, prover_cmd=f"{cmd} {template} --timeout {{timeout}}", timeout_seconds=3)
    assert run_one(problem, cfg).szs is SzsStatus.GAVE_UP
    archived = (tmp_path / "outputs" / "cq_x.out").read_text(encoding="utf-8")
    assert f"args: {[str(problem.path), '--timeout', '3']}\n" in archived


def test_external_template_gets_at_least_one_second(tmp_path):
    body = 'print("args:", sys.argv[1])\nprint("% SZS status GaveUp for x")\n'
    cmd = _fake_prover(tmp_path, "echo.py", body)
    cfg = _cfg(tmp_path, prover_cmd=cmd + " {timeout}", timeout_seconds=0.5)
    assert run_one(_problem(tmp_path), cfg).szs is SzsStatus.GAVE_UP
    archived = (tmp_path / "outputs" / "cq_toy.out").read_text(encoding="utf-8")
    assert "args: 1\n" in archived


def test_external_spawn_failure_is_error(tmp_path):
    cfg = _cfg(tmp_path, prover_cmd="/no/such/prover {problem}")
    result = run_one(_problem(tmp_path), cfg)
    assert result.szs is SzsStatus.ERROR
    archived = (tmp_path / "outputs" / "cq_toy.out").read_text(encoding="utf-8")
    assert archived.startswith("spawn failure")


def test_external_timeout_kills_and_coerces_status(tmp_path):
    cmd = _fake_prover(tmp_path, "hang.py", "time.sleep(30)\n")
    cfg = _cfg(tmp_path, prover_cmd=cmd + " {problem}", timeout_seconds=1.0)
    result = run_one(_problem(tmp_path), cfg)
    assert result.szs is SzsStatus.TIMEOUT
    assert 0.9 <= result.wall_seconds <= 6.0


@pytest.mark.parametrize("body", [
    'print("% SZS status GaveUp for x", flush=True)\ntime.sleep(30)\n',
    # a process in a session of its own, which the runner cannot kill,
    # keeps the prover's stdout open; it writes its pid to the file argv[2]
    'import pathlib, subprocess\n'
    'print("% SZS status GaveUp for x", flush=True)\n'
    'stray = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(8)"],'
    ' start_new_session=True)\n'
    'pathlib.Path(sys.argv[2]).write_text(str(stray.pid))\n'
    'time.sleep(30)\n',
], ids=["sleeps", "stray_holds_stdout"])
def test_external_timeout_keeps_flushed_status(tmp_path, body):
    cmd = _fake_prover(tmp_path, "slowtail.py", body)
    pid_file = tmp_path / "stray.pid"
    cfg = _cfg(tmp_path, prover_cmd=f"{cmd} {{problem}} {pid_file}", timeout_seconds=1.0)
    try:
        result = run_one(_problem(tmp_path), cfg)
    finally:
        if pid_file.exists():
            with contextlib.suppress(ProcessLookupError):
                os.kill(int(pid_file.read_text(encoding="utf-8")), signal.SIGKILL)
    assert result.szs is SzsStatus.GAVE_UP
    archived = (tmp_path / "outputs" / "cq_toy.out").read_text(encoding="utf-8")
    assert archived.startswith("% SZS status GaveUp for x\n")


# --------------------------------------------------------------------------
# campaigns


def test_run_corpus_skips_journaled_ids(tmp_path):
    problems = [_problem(tmp_path, cq_id) for cq_id in ("cq_c", "cq_a", "cq_b")]
    cfg = _cfg(tmp_path)
    seeded = ProverResult(SzsStatus.GAVE_UP, 123.0, ())
    cfg.journal_path.write_text(
        json.dumps(journal_record("cq_b", seeded)) + "\n", encoding="utf-8"
    )

    results = run_corpus(problems, cfg)
    assert [cq_id for cq_id, _ in results] == ["cq_a", "cq_b", "cq_c"]
    by_id = dict(results)
    assert by_id["cq_b"].wall_seconds == 123.0  # not re-run
    assert by_id["cq_a"].szs is SzsStatus.THEOREM
    assert not (tmp_path / "outputs" / "cq_b.out").exists()
    assert len(read_journal(cfg.journal_path)) == 3


def test_run_corpus_survives_two_restarts_after_torn_tail(tmp_path):
    problems = [_problem(tmp_path, cq_id) for cq_id in ("cq_a", "cq_b", "cq_c")]
    cfg = _cfg(tmp_path)
    seeded = json.dumps(journal_record("cq_a", ProverResult(SzsStatus.GAVE_UP, 5.0, ())))
    cfg.journal_path.write_text(seeded + "\n" + '{"cq_id": "cq_b", "szs"', encoding="utf-8")

    first = run_corpus(problems, cfg)
    assert [cq_id for cq_id, _ in first] == ["cq_a", "cq_b", "cq_c"]
    assert dict(first)["cq_a"].wall_seconds == 5.0

    second = run_corpus(problems, cfg)
    assert second == first
    lines = cfg.journal_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["cq_id"] for line in lines] == ["cq_a", "cq_b", "cq_c"]


def test_run_corpus_terminates_whole_last_line(tmp_path):
    problems = [_problem(tmp_path, cq_id) for cq_id in ("cq_a", "cq_b")]
    cfg = _cfg(tmp_path)
    seeded = json.dumps(journal_record("cq_a", ProverResult(SzsStatus.GAVE_UP, 5.0, ())))
    cfg.journal_path.write_text(seeded, encoding="utf-8")  # no final newline
    run_corpus(problems, cfg)
    assert set(read_journal(cfg.journal_path)) == {"cq_a", "cq_b"}
    assert read_journal(cfg.journal_path)["cq_a"].wall_seconds == 5.0


def test_run_corpus_ignores_journal_entries_for_unknown_ids(tmp_path):
    problems = [_problem(tmp_path, "cq_a")]
    cfg = _cfg(tmp_path)
    stray = ProverResult(SzsStatus.GAVE_UP, 1.0, ())
    cfg.journal_path.write_text(
        json.dumps(journal_record("cq_zzz", stray)) + "\n", encoding="utf-8"
    )
    results = run_corpus(problems, cfg)
    assert [cq_id for cq_id, _ in results] == ["cq_a"]


def test_run_corpus_parallel_runs_everything(tmp_path):
    problems = [_problem(tmp_path, f"cq_{i}") for i in range(4)]
    cfg = _cfg(tmp_path, max_parallel=2)
    results = run_corpus(problems, cfg)
    assert len(results) == 4
    assert all(r.szs is SzsStatus.THEOREM for _, r in results)


# --------------------------------------------------------------------------
# worker processes (more than one job)


@pytest.mark.parametrize("cpus, n_problems, workers", [(8, 2, 2), (1, 3, 1)])
def test_run_corpus_bounds_its_pool(tmp_path, monkeypatch, cpus, n_problems, workers):
    """At most one worker per job, per problem left and per CPU, and no
    pool at all when that bound is one."""
    real = concurrent.futures.ProcessPoolExecutor
    sizes = []

    def bounded(max_workers, **kw):
        sizes.append(max_workers)
        if max_workers > workers:  # fail before forking that many
            raise AssertionError(f"{max_workers} workers")
        return real(max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", bounded)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    problems = [_problem(tmp_path, f"cq_{i}") for i in range(n_problems)]
    results = run_corpus(problems, _cfg(tmp_path, max_parallel=64))
    assert sizes == ([workers] if workers > 1 else [])
    assert [r.szs for _, r in results] == [SzsStatus.THEOREM] * n_problems


def _journal_ids(path):
    return [json.loads(line)["cq_id"]
            for line in path.read_text(encoding="utf-8").splitlines()]


def test_dead_worker_keeps_finished_results(tmp_path, monkeypatch):
    """A worker killed mid-problem fails the run, but every result that
    finished is journaled first, and a resume runs only the rest."""
    problems = [_problem(tmp_path, cq_id) for cq_id in
                ("cq_die", "cq_a", "cq_b", "cq_c", "cq_d", "cq_e")]
    cfg = _cfg(tmp_path, max_parallel=2)
    real = prover_cli.prove_problem

    def prove_or_die(path, *args):
        # submitted first, it dies only after the other worker's results are
        # journaled: a runner that read results in submission order loses them
        if Path(path).stem == "cq_die":
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and (
                    not cfg.journal_path.exists() or len(_journal_ids(cfg.journal_path)) < 5):
                time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(path, *args)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(prover_cli, "prove_problem", prove_or_die)
    with pytest.raises(BrokenProcessPool):
        run_corpus(problems, cfg)
    assert sorted(_journal_ids(cfg.journal_path)) == ["cq_a", "cq_b", "cq_c", "cq_d", "cq_e"]

    ran = tmp_path / "ran.txt"

    def prove_and_note(path, *args):
        with open(ran, "a", encoding="utf-8") as fh:
            fh.write(Path(path).stem + "\n")
        return real(path, *args)

    monkeypatch.setattr(prover_cli, "prove_problem", prove_and_note)
    results = run_corpus(problems, cfg)
    assert ran.read_text(encoding="utf-8") == "cq_die\n"
    assert sorted(_journal_ids(cfg.journal_path)) == sorted(p.cq_id for p in problems)
    assert [r.szs for _, r in results] == [SzsStatus.THEOREM] * len(problems)



def test_cli_reports_a_dead_worker(tmp_path, monkeypatch):
    (tmp_path / "problems").mkdir()
    for cq_id in ("cq_a", "cq_b"):
        _problem(tmp_path / "problems", cq_id)
    # two workers whatever the host, or the kill would hit this process
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(prover_cli, "prove_problem",
                        lambda *a: os.kill(os.getpid(), signal.SIGKILL))
    config = write_config(tmp_path, {"problems_dir": "problems", "timeout_seconds": 5})
    code, _, err = run_cli("run", "--config", str(config), "--jobs", "2")
    assert code == 2
    assert err.startswith("error: ") and "run again to resume" in err

def _live_members(pgid: int) -> list:
    """Pids of the processes in group ``pgid`` that are not zombies."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text(encoding="utf-8")
        except OSError:  # gone meanwhile
            continue
        state, _ppid, pgrp = text.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            out.append(int(stat.parent.name))
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process groups from /proc")
def test_killed_run_leaves_no_workers_and_resumes(pipeline, journal, tmp_path):
    """SIGKILL a real ``cqeval run --jobs 2`` once a few results are in: its
    workers exit, and a resume journals every problem exactly once, with the
    statuses of the uninterrupted run."""
    raw = base_config()
    raw["problems_dir"] = str(pipeline.root / "problems")
    config = write_config(tmp_path, raw)
    journal_path = tmp_path / "journal.ldjson"
    argv = ["run", "--config", str(config), "--jobs", "2"]
    proc = subprocess.Popen([sys.executable, "-m", "cqeval.cli", *argv],
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and proc.poll() is None and (
                not journal_path.exists() or len(_journal_ids(journal_path)) < 3):
            time.sleep(0.02)
        proc.kill()
        proc.wait(timeout=10)
        assert 3 <= len(_journal_ids(journal_path)) < len(journal)  # killed mid-run
        deadline = time.monotonic() + 2.5
        while _live_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_members(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    code, _, err = run_cli(*argv)
    assert code == 0, err
    ids = _journal_ids(journal_path)
    assert sorted(ids) == sorted(journal)
    assert {k: r.szs for k, r in read_journal(journal_path).items()} == \
        {k: r.szs for k, r in journal.items()}


def test_prover_limits_default_to_those_of_prove(monkeypatch, capsys, tmp_path):
    params = inspect.signature(microprover.prove).parameters
    limits = tuple(params[name].default
                   for name in ("limit_seconds", "max_literals", "max_clauses"))
    given = []
    monkeypatch.setattr(prover_cli, "prove_problem",
                        lambda path, *args: given.append(args) or "% SZS status Theorem\n")
    assert prover_cli.main(["problem.p"]) == 0
    assert given == [limits]
    cfg = RunnerConfig(tmp_path / "outputs", tmp_path / "journal.ldjson")
    assert (cfg.timeout_seconds, cfg.builtin_max_literals, cfg.builtin_max_clauses) == limits
