"""Prover campaign driver.

Takes a directory of problem files and runs each through either an
external prover command or the bundled backend, with a wall-clock limit
per problem.  External provers run in their own process group and are
killed outright when the limit passes; the grace period only covers
collecting output from the dying process.  The bundled prover's own
interval timer ends it at the limit.  Either way the output is archived,
and the result is read back from its SZS lines.

Problems run on a pool of worker processes forked from this one (POSIX
``fork``), at most one per job, per problem left and per CPU.  When
that bound is one they run one after another in the calling thread
instead, since a one-worker pool is slower.  A worker exits once the
process that forked it is gone, so none outlives a killed run.

This process is the only writer of the journal: every result is
appended as one line of JSON as soon as it arrives, so no lock is
needed.  On restart, journaled ids are skipped and their results
reconstructed, so a long campaign survives interruption at the cost of
re-running at most the problems that were in flight.  A worker that
dies mid-problem fails the run, but only after every result that had
already finished is journaled.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import signal
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import microprover, prover_cli, read_text, store, tptp
from .tptp import ProblemFile, ProverResult, SearchCounts, SzsStatus

BUILTIN = "builtin"
GRACE_SECONDS = 2.0  # to collect the output of a prover killed at its limit


@dataclass
class RunnerConfig:
    output_dir: Path
    journal_path: Path
    prover_cmd: str = BUILTIN
    timeout_seconds: float = microprover.LIMIT_SECONDS
    max_parallel: int = 1
    builtin_max_literals: int = microprover.MAX_LITERALS
    builtin_max_clauses: int = microprover.MAX_CLAUSES

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)
        self.journal_path = Path(self.journal_path)
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be at least 1")
        if not self.timeout_seconds > 0:  # NaN included
            raise ValueError("timeout_seconds must be positive")
        for cap in ("builtin_max_literals", "builtin_max_clauses"):
            if getattr(self, cap) < 0:
                raise ValueError(f"{cap} must not be negative")
        if self.prover_cmd == BUILTIN:
            return
        if not math.isfinite(self.timeout_seconds):
            # no {timeout} value means "no limit" to every prover: 0 does to
            # E, but is an immediate timeout to prover_cli
            raise ValueError("timeout_seconds must be finite for an external prover")
        # the template as _run_external fills it in, with a stand-in problem
        try:
            argv = _argv(self.prover_cmd, "problem.p", self.timeout_seconds)
        except LookupError:  # a placeholder other than {problem} and {timeout}
            raise ValueError(f"prover_cmd {self.prover_cmd!r} may fill in only "
                             "{problem} and {timeout}") from None
        except ValueError as e:  # a stray brace or an unclosed quote
            raise ValueError(f"prover_cmd {self.prover_cmd!r}: {e}") from None
        if not argv:
            raise ValueError(f"prover_cmd {self.prover_cmd!r} names no command")


# --------------------------------------------------------------------------
# journal


def journal_record(cq_id: str, r: ProverResult) -> dict:
    rec = {
        "cq_id": cq_id,
        "szs": r.szs.value,
        "wall_seconds": r.wall_seconds,
        "used_axioms": list(r.used_axioms),
        "output_file": r.raw_output_path,
    }
    if r.search is not None:
        rec["search"] = asdict(r.search)
    return rec


def result_from_record(rec: dict) -> ProverResult:
    """The result a journal record holds; a field of the wrong type raises
    ValueError."""
    szs, wall = SzsStatus(rec["szs"]), rec["wall_seconds"]
    used, output, search = rec.get("used_axioms", []), rec.get("output_file"), rec.get("search")
    search = None if search is None else SearchCounts(**search)
    counts = {} if search is None else vars(search)
    for name, value, ok, what in (
        ("wall_seconds", wall, type(wall) in (int, float), "a number"),
        ("used_axioms", used, type(used) is list and all(type(a) is str for a in used),
         "a list of names"),
        ("output_file", output, output is None or type(output) is str, "a path or null"),
        *((f"search {k}", n, type(n) is int, "a count") for k, n in counts.items()),
    ):
        if not ok:
            raise ValueError(f"{name} {value!r} is not {what}")
    return ProverResult(szs, float(wall), tuple(used), output, search)


def read_journal(path: str | Path) -> dict:
    """{cq_id: ProverResult} from an append-only journal.  A torn final
    line (interrupted write: no newline, not JSON) is tolerated, as
    ``_end_journal_tail`` cuts it; any other line that is not a journal
    record raises an Error naming it."""
    path = Path(path)
    if not path.exists():
        return {}
    text = read_text(path)
    lines = text.splitlines()
    if lines and not text.endswith("\n") and not store.is_json(lines[-1]):
        lines.pop()
    return dict(store.decode_lines(path, lines, 1,
                                   lambda rec: (rec["cq_id"], result_from_record(rec))))


def _end_journal_tail(path: Path) -> None:
    """Make the journal end in a newline before the next append: a torn
    last line (interrupted write) is cut, a whole one is terminated."""
    data = path.read_bytes() if path.exists() else b""
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1
    if store.is_json(data[cut:]):
        with open(path, "ab") as fh:
            fh.write(b"\n")
    else:
        with open(path, "r+b") as fh:
            fh.truncate(cut)


# --------------------------------------------------------------------------
# single-problem execution


def _archive(cfg: RunnerConfig, cq_id: str, text: str) -> str:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / f"{cq_id}.out"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _argv(template: str, problem, timeout_seconds: float) -> list[str]:
    """The words of a prover command ``template``, split as a shell would,
    each with ``{problem}`` and ``{timeout}`` filled in, so a path with a
    space in it stays one argument.  The timeout is in whole seconds, at
    least one: 0 means no limit to E's --cpu-limit and an immediate
    timeout to prover_cli."""
    timeout = max(1, int(timeout_seconds))
    return [word.format(problem=problem, timeout=timeout) for word in shlex.split(template)]


def _run_external(problem: ProblemFile, cfg: RunnerConfig) -> tuple[str, SzsStatus]:
    """The prover's output, and the status to read when it names none."""
    try:
        proc = subprocess.Popen(
            _argv(cfg.prover_cmd, problem.path, cfg.timeout_seconds),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    except OSError as e:
        return f"spawn failure: {e}\n", SzsStatus.ERROR
    try:
        out, _ = proc.communicate(timeout=cfg.timeout_seconds)
        silent = SzsStatus.NO_STATUS
    except subprocess.TimeoutExpired:
        silent = SzsStatus.TIMEOUT
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            proc.kill()
        try:
            out, _ = proc.communicate(timeout=GRACE_SECONDS)
        except subprocess.TimeoutExpired as e:
            # a process outside the prover's group holds the pipe: keep what was read
            out = e.output
            proc.stdout.close()
            proc.wait()
    return (out or b"").decode("utf-8", errors="replace"), silent


def run_one(problem: ProblemFile, cfg: RunnerConfig) -> ProverResult:
    """Run either backend, archive its output and read the result from it."""
    start = time.monotonic()
    if cfg.prover_cmd == BUILTIN:
        text = prover_cli.prove_problem(problem.path, cfg.timeout_seconds,
                                        cfg.builtin_max_literals, cfg.builtin_max_clauses)
        silent = SzsStatus.NO_STATUS
    else:
        text, silent = _run_external(problem, cfg)
    wall = time.monotonic() - start
    out_path = _archive(cfg, problem.cq_id, text)
    status, used = tptp.parse_szs(text)
    if status is SzsStatus.NO_STATUS:
        status = silent
    return ProverResult(status, wall, used, out_path, tptp.parse_search(text))


# --------------------------------------------------------------------------
# campaign


def run_corpus(problems, cfg: RunnerConfig):
    """Run every problem not already journaled; returns [(cq_id, result)]
    sorted by cq id, journaled results included."""
    done = read_journal(cfg.journal_path)
    todo = [p for p in problems if p.cq_id not in done]
    known_ids = {p.cq_id for p in problems}

    cfg.journal_path.parent.mkdir(parents=True, exist_ok=True)
    _end_journal_tail(cfg.journal_path)
    results: dict = {cq_id: r for cq_id, r in done.items() if cq_id in known_ids}

    with open(cfg.journal_path, "a", encoding="utf-8") as journal:
        def record(cq_id: str, r: ProverResult) -> None:
            journal.write(json.dumps(journal_record(cq_id, r), sort_keys=True) + "\n")
            journal.flush()
            results[cq_id] = r

        workers = min(cfg.max_parallel, len(todo), os.cpu_count() or 1)
        if workers > 1:
            _run_pool(todo, cfg, workers, record)
        else:
            for problem in todo:
                record(problem.cq_id, run_one(problem, cfg))

    return sorted(results.items(), key=lambda kv: kv[0])


def _run_pool(todo, cfg: RunnerConfig, workers: int, record) -> None:
    """Run ``todo`` on ``workers`` forked processes, recording each result
    as it arrives.  Every finished result is recorded before an error from
    another problem, such as a dead worker's BrokenProcessPool, is raised."""
    # imported here: multiprocessing costs about 2 MB of RSS, which a
    # one-job run need not pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_exit_with_parent, initargs=(os.getpid(),))
    try:
        futures = {pool.submit(run_one, problem, cfg): problem.cq_id for problem in todo}
        error = None
        for future in as_completed(futures):
            try:
                result = future.result()
            except Exception as e:  # raised below, once the finished results are in
                error = error or e
            else:
                record(futures[future], result)
        if error is not None:
            raise error
    finally:
        # joins the workers, so their CPU time and memory count as this run's
        pool.shutdown(wait=True, cancel_futures=True)


def _exit_with_parent(parent_pid: int) -> None:
    """Worker initializer: exit once ``parent_pid`` is no longer the parent.

    A worker whose parent was killed would otherwise wait on the pool's
    call queue for good."""
    import threading

    def watch():
        while os.getppid() == parent_pid:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def discover_problems(corpus_dir: str | Path):
    """Problem files in a directory, one per question, named <cq_id>.p."""
    corpus_dir = Path(corpus_dir)
    out = []
    for path in sorted(corpus_dir.glob("*.p")):
        out.append(ProblemFile(path=path, cq_id=path.stem))
    return out
