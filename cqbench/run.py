"""Benchmark entry point for cqeval campaigns.

    python3 cqbench/run.py --workload paper_mix --seed 1 --seconds 35 --trace 0

Generates the workload's campaign from the seed, runs whole campaigns
through the CLI stages (ingest, propagate, generate, emit, run, report),
one memory-capped child process per round, for about ``--seconds``, checks
every verdict against the known answers and prints one JSON object as the
last line of standard output.  ``--trace 0`` reports the end-to-end
metrics, medians over the rounds; ``--trace 1`` runs three rounds with a
single job, untraced, traced and untraced, and reports the per-layer
metrics of the traced one.
The exit code is 0 only when no verdict contradicts the known answers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole run, child processes included
MIN_ROUNDS = 2
SETUP_SECONDS = 1.0  # per round; short set-ups repeat more often


def _fail(msg: str) -> int:
    print(f"cqbench: {msg}", file=sys.stderr)
    return 2


def _round(config: Path, out: Path, deadline: float, *flags: str) -> dict:
    """One campaign in its own process group, killed whole at the deadline."""
    proc = subprocess.Popen([sys.executable, str(HERE / "campaign.py"), str(config), str(out),
                             *flags], start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("campaign round ran past the run's deadline") from None
    finally:
        try:  # provers the round left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if rc != 0:
        raise RuntimeError(f"campaign round exited with {rc}")
    return json.loads(out.read_text(encoding="utf-8"))


def _warn(msg: str) -> None:
    print(f"cqbench: warning: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cqeval" / "cli.py").is_file():
        return _fail(f"no cqeval sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import answers
    import gen

    spec = gen.WORKLOADS.get(args.workload)
    if spec is None:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(gen.WORKLOADS)}")
    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = ROOT / ".bench_build" / "cqbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    campaign = work / "campaign"
    gen.write(gen.build(args.workload, spec, args.seed), campaign)
    model = answers.load_model(campaign)
    config = campaign / "campaign.json"
    axioms = sum(p.read_text(encoding="utf-8").count(";; label:")
                 for p in (campaign / "ont").glob("*.kif"))
    expected_n = gen.planned_problems(spec)
    load_before = os.getloadavg()

    rounds: list = []
    checks: list = []
    try:
        if args.trace:
            # untraced rounds on both sides of the traced one: the first round
            # of a run tends to be slow, and this cancels a drift
            for name, flags in (("plain0", ()), ("traced", ("--trace",)), ("plain1", ())):
                rounds.append(_round(config, work / f"{name}.json", deadline, "--jobs", "1",
                                     *flags))
                checks.append(answers.check_journal(model, campaign))
        else:
            while True:
                t0 = time.monotonic()
                rounds.append(_round(config, work / f"round{len(rounds)}.json", deadline,
                                     "--setup-seconds", str(SETUP_SECONDS)))
                checks.append(answers.check_journal(model, campaign))
                now = time.monotonic()
                if now + (now - t0) > deadline or (
                        len(rounds) >= MIN_ROUNDS and now + (now - t0) - started > args.seconds):
                    break
    except RuntimeError as e:
        return _fail(str(e))
    load_after = os.getloadavg()

    attempted = sum(sum(c["statuses"].values()) for c in checks)
    failed = sum(len(c["failed"]) for c in checks)
    wrong = [w for c in checks for w in c["wrong"]]
    for c in checks:
        for cq_id, reason in c["failed"]:
            kind = "WRONG" if (cq_id, reason) in c["wrong"] else "failed"
            print(f"cqbench: {kind} {cq_id}: {reason}", file=sys.stderr)

    # stability guards: they flag, they do not fail the run
    histograms = [c["statuses"] for c in checks]
    if any(h != histograms[0] for h in histograms):
        _warn(f"status histogram differs between rounds: {histograms}")
    if histograms[0] != spec["expected_statuses"]:
        _warn(f"status histogram {histograms[0]} differs from the expected "
              f"{spec['expected_statuses']}")
    if sum(histograms[0].values()) != expected_n:
        _warn(f"{sum(histograms[0].values())} problems, the workload plans {expected_n}")
    near = max((w for c in checks for w in c["walls"]), default=0.0)
    if near * 2 >= spec["timeout_seconds"]:
        _warn(f"a problem took {near:.1f} s, within 2x of the {spec['timeout_seconds']} s budget")
    runs = [r["run_s"] for r in rounds]
    if not args.trace and max(runs) > 1.15 * statistics.median(runs):
        _warn(f"a round ran more than 15% over the median: run stage seconds {runs}")
    if max(load_before[0], load_after[0]) > (os.cpu_count() or 1):
        _warn(f"load average {load_before[0]:.2f} before, {load_after[0]:.2f} after")
    print(f"cqbench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{expected_n} problems, {axioms} axioms, load {load_before[0]:.2f} -> "
          f"{load_after[0]:.2f}, {platform.python_version()} on {os.cpu_count()} cpus")

    if args.trace:
        layers = dict(rounds[1]["layers"])
        layers["trace.overhead_s"] = _wall(rounds[1]) - (_wall(rounds[0]) + _wall(rounds[2])) / 2
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        settled = [sum(c["statuses"].get(s, 0) for s in answers.SETTLED)
                   / sum(c["statuses"].values()) for c in checks]
        values = {
            "setup_s": ([s for r in rounds for s in r["setup_s"]], "s"),
            "problems_per_s": ([expected_n / r["run_s"] for r in rounds], "1/s"),
            "settled_ratio": (settled, "ratio"),
            "cpu_s": ([r["cpu_s"] for r in rounds], "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in rounds], "MB"),
        }
        metrics = {name: {"value": statistics.median(v), "unit": unit}
                   for name, (v, unit) in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations attempted = {attempted}, failed = {failed}, wrong verdicts = {len(wrong)}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if wrong else 0


def _wall(r: dict) -> float:
    return sum(r["setup_s"]) + r["run_s"] + r["report_s"]


if __name__ == "__main__":
    raise SystemExit(main())
