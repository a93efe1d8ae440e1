"""One benchmark round: a whole campaign in a memory-capped child process.

    python3 cqbench/campaign.py CONFIG OUT.json [--setup-seconds S] [--jobs N] [--trace]

Runs ``ingest, propagate, generate, emit`` through the real CLI on a fresh
campaign directory, again and again until ``--setup-seconds`` have passed
(once when it is 0), then ``run`` from an empty journal, then ``report``.  The address-space limit set first thing applies to this
process and every prover it starts, so a clausification blow-up ends as a
failed problem or a failed round instead of an out-of-memory kill.

With ``--trace`` the public functions of every layer are wrapped from
outside (module attributes, so calls between modules are caught too) and
the per-layer totals go into OUT.json.  On an external prover path the
provers run in other processes, so after the timed stages each problem is
read and proved once more in-process, traced, to split up the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE_MB = 1536
SETUP_STAGES = ("ingest", "propagate", "generate", "emit")
OUTPUTS = ("stores", "problems", "outputs", "journal.ldjson", "report.json")


class Tracer:
    """Spans around module functions, kept in memory.

    A span is (name, start, end, parent index, value); ``value`` is a count
    taken from the call's arguments or result.  Recursive calls of a wrapped
    function are not spans of their own.  One thread runs at a time here
    (the traced round runs one job), so a plain stack is enough.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        inner = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.stack and tracer.spans[tracer.stack[-1]][0] == name:
                return inner(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append([name, time.perf_counter(), None, parent, 0])
            tracer.stack.append(idx)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if count is not None:
                tracer.spans[idx][4] = count(args, result)
            return result

        setattr(module, attr, wrapper)

    def install(self) -> None:
        from cqeval import (coremap, cqgen, kif, microprover, ontology, report, runner, store,
                            tptp, verdict, wordnet)

        for attr in ("parse_wn_data", "parse_mapping_file", "parse_sense_index",
                     "parse_morphosemantic"):
            self.wrap(wordnet, attr, "wordnet.parse",
                      (lambda a, r: len(r.synsets)) if attr == "parse_wn_data" else None)
        self.wrap(store, "write_ldjson", "store.io")
        self.wrap(store, "read_ldjson", "store.io")
        self.wrap(ontology, "load_ontology", "ontology.load", lambda a, r: len(r.axioms))
        self.wrap(ontology, "build_index", "ontology.index")
        self.wrap(coremap, "propagate_to_core", "coremap.propagate")
        self.wrap(cqgen, "generate_corpus", "cqgen.generate", lambda a, r: len(r.questions))
        self.wrap(tptp, "write_problem", "tptp.emit", lambda a, r: Path(r.path).stat().st_size)
        self.wrap(tptp, "write_axiom_file", "tptp.emit", lambda a, r: Path(r).stat().st_size)
        self.wrap(tptp, "read_problem", "tptp.read_problem", lambda a, r: len(r[0]) + 1)
        self.wrap(kif, "nnf", "kif.nnf")
        self.wrap(microprover, "clausify", "microprover.clausify", lambda a, r: len(r))
        self.wrap(microprover, "prove", "microprover.prove", lambda a, r: r.szs.value)
        self.wrap(runner, "run_one", "runner.run_one")
        self.wrap(runner, "read_journal", "runner.read_journal")
        self.wrap(verdict, "classify_all", "report.summarize")
        self.wrap(report, "summarize", "report.summarize")
        self.wrap(report, "render_json", "report.summarize")

    def totals(self, since: int = 0) -> dict:
        out: dict = {}
        for name, start, end, _, _ in self.spans[since:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def values(self, name: str, since: int = 0) -> list:
        return [s[4] for s in self.spans[since:] if s[0] == name]

    def durations(self, name: str, since: int = 0) -> list:
        return [s[2] - s[1] for s in self.spans[since:] if s[0] == name]

    def child_time(self, parent_name: str, child_name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == child_name and s[3] is not None
                   and self.spans[s[3]][0] == parent_name)


def _wipe(campaign: Path) -> None:
    for name in OUTPUTS:
        path = campaign / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def _stage(cli, log, *argv) -> float:
    start = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"cqeval {argv[0]} exited with {rc}; see {log.name}")
    return time.perf_counter() - start


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_round(config: Path, setup_seconds: float, jobs: int | None,
              tracer: Tracer | None) -> dict:
    from cqeval import cli

    campaign = config.parent
    cfg = str(config)
    out: dict = {"setup_s": []}
    with open(campaign / "stages.log", "w", encoding="utf-8") as log:
        while not out["setup_s"] or sum(out["setup_s"]) < setup_seconds:
            _wipe(campaign)
            out["setup_s"].append(sum(_stage(cli, log, stage, "--config", cfg)
                                      for stage in SETUP_STAGES))
        run_argv = ["run", "--config", cfg] + (["--jobs", str(jobs)] if jobs else [])
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        run_since = len(tracer.spans) if tracer else 0
        out["run_s"] = _stage(cli, log, *run_argv)
        out["cpu_s"] = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
        if tracer:
            resume_since = len(tracer.spans)
            _stage(cli, log, *run_argv)  # resume on the finished journal
        out["report_s"] = _stage(cli, log, "report", "--config", cfg, "--format", "json",
                                 "--out", str(campaign / "report.json"))
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = kib / 1024.0
    if tracer:
        out["layers"] = _layers(tracer, config, run_since,
                                sum(tracer.durations("runner.read_journal", resume_since)))
    return out


def _layers(tracer: Tracer, config: Path, run_since: int, read_journal_s: float) -> dict:
    """Per-layer totals of the traced round (see BENCHMARK.json ``per_layer``)."""
    raw = json.loads(config.read_text(encoding="utf-8"))
    run_one = sorted(tracer.durations("runner.run_one", run_since))
    proving_since = run_since
    if raw["prover_cmd"] != "builtin":
        # the provers ran in their own processes: replay them here, traced
        from cqeval import microprover, runner, tptp

        proving_since = len(tracer.spans)
        for problem in runner.discover_problems(config.parent / raw["problems_dir"]):
            axioms, (_, conjecture) = tptp.read_problem(problem.path)
            microprover.prove(axioms, conjecture, limit_seconds=raw["timeout_seconds"],
                              max_literals=raw["builtin_max_literals"],
                              max_clauses=raw["builtin_max_clauses"])
    t = tracer.totals()
    t_run = tracer.totals(proving_since)
    statuses = tracer.values("microprover.prove", proving_since)
    prove_s = t_run.get("microprover.prove", 0.0)
    read_s = t_run.get("tptp.read_problem", 0.0)

    def pct(q: float) -> float:
        return run_one[min(len(run_one) - 1, int(q * len(run_one)))] if run_one else 0.0

    return {
        "wordnet.parse_s": t.get("wordnet.parse", 0.0),
        "wordnet.synsets": sum(tracer.values("wordnet.parse")),
        "store.io_s": t.get("store.io", 0.0),
        "ontology.load_s": t.get("ontology.load", 0.0),
        "ontology.index_s": t.get("ontology.index", 0.0),
        "ontology.axioms": sum(tracer.values("ontology.load")),
        "coremap.propagate_s": t.get("coremap.propagate", 0.0),
        "cqgen.generate_s": t.get("cqgen.generate", 0.0),
        "cqgen.questions": sum(tracer.values("cqgen.generate")),
        "tptp.emit_s": t.get("tptp.emit", 0.0),
        "tptp.emit_bytes": sum(tracer.values("tptp.emit")),
        "tptp.read_problem_s": read_s,
        "tptp.units_read": sum(tracer.values("tptp.read_problem", proving_since)),
        "kif.nnf_s": t_run.get("kif.nnf", 0.0),
        "microprover.clausify_s": t_run.get("microprover.clausify", 0.0),
        "microprover.input_clauses": sum(tracer.values("microprover.clausify", proving_since)),
        "microprover.saturate_s": prove_s - tracer.child_time("microprover.prove",
                                                              "microprover.clausify"),
        "microprover.theorems": statuses.count("Theorem"),
        "microprover.gave_up": statuses.count("GaveUp"),
        "microprover.timeouts": statuses.count("Timeout"),
        "runner.run_one_p50_s": pct(0.5),
        "runner.run_one_p90_s": pct(0.9),
        "runner.run_one_n": len(run_one),
        "runner.overhead_s": sum(run_one) - read_s - prove_s,
        "runner.read_journal_s": read_journal_s,
        "report.summarize_s": t.get("report.summarize", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--setup-seconds", type=float, default=0.0)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    limit = ADDRESS_SPACE_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    # provers on the external path import the package too
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run_round(args.config.resolve(), args.setup_seconds, args.jobs, tracer)
    args.out.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
