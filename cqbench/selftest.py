"""Self-tests of the benchmark's own machinery.

    python3 cqbench/selftest.py

The generator must be deterministic, the known-answer check must catch a
wrong Theorem, and the paper-scale preset must plan the paper's mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import gen  # noqa: E402
from cqeval import cli, kif  # noqa: E402


def _files(top: Path) -> dict:
    return {p.relative_to(top): p.read_bytes() for p in sorted(top.rglob("*")) if p.is_file()}


def _setup(campaign: Path, stages=("ingest", "propagate", "generate", "emit")) -> None:
    cfg = str(campaign / "campaign.json")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for stage in stages:
            if cli.main([stage, "--config", cfg]) != 0:
                raise RuntimeError(f"{stage} failed")


def _corpus(campaign: Path) -> dict:
    lines = (campaign / "stores" / "corpus.ldjson").read_text(encoding="utf-8").splitlines()
    return {rec["id"]: rec for rec in map(json.loads, lines[1:])}


def _journal(campaign: Path, statuses: dict) -> Path:
    """A journal giving every problem GaveUp unless ``statuses`` says otherwise."""
    path = campaign / "journal.ldjson"
    with open(path, "w", encoding="utf-8") as fh:
        for problem in sorted((campaign / "problems").glob("*.p")):
            szs, used = statuses.get(problem.stem, ("GaveUp", []))
            fh.write(json.dumps({"cq_id": problem.stem, "szs": szs, "wall_seconds": 0.1,
                                 "used_axioms": used}) + "\n")
    return path


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            outs = []
            for i, hashseed in enumerate(("1", "2")):
                out = Path(tmp) / str(i)
                env = dict(os.environ, PYTHONHASHSEED=hashseed)
                for workload in sorted(gen.WORKLOADS):
                    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                                    "--seed", "5", "--out", str(out / workload)],
                                   check=True, env=env, capture_output=True)
                outs.append(_files(out))
            self.assertEqual(outs[0], outs[1])
            other = gen.build("paper_mix", gen.WORKLOADS["paper_mix"], 6)
            self.assertNotEqual(outs[0][Path("paper_mix/ont/core.kif")].decode(),
                                other["ont/core.kif"])

    def test_paper_preset_plans_the_paper_mix(self):
        with tempfile.TemporaryDirectory() as tmp:
            campaign = Path(tmp)
            gen.write(gen.build("paper", gen.paper_preset(), 1), campaign)
            _setup(campaign, ("ingest", "propagate", "generate"))
            corpus = _corpus(campaign)
        counts: dict = {}
        for rec in corpus.values():
            family = rec["pattern"] if rec["pattern"].startswith("event") else (
                "antonym" if rec["pattern"].startswith("ant") else
                "relation" if rec["pattern"].startswith("rel") else rec["pattern"])
            key = (family, rec["polarity"])
            counts[key] = counts.get(key, 0) + 1
        for family in ("antonym", "relation", "event1", "event2", "event3"):
            for polarity in ("truth", "falsity"):
                self.assertEqual(counts[(family, polarity)], gen.PAPER_COUNTS[family])
        self.assertEqual(counts[("creative", "truth")], gen.PAPER_COUNTS["creative_truth"])
        self.assertEqual(counts[("creative", "falsity")], gen.PAPER_COUNTS["creative_falsity"])
        self.assertEqual(len(corpus), 7176)


class KnownAnswerTest(unittest.TestCase):
    def _campaign(self, tmp: str, workload: str) -> Path:
        campaign = Path(tmp)
        gen.write(gen.build(workload, gen.WORKLOADS[workload], 3), campaign)
        _setup(campaign)
        return campaign

    def test_wrong_theorem_is_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            campaign = self._campaign(tmp, "paper_mix")
            model = answers.load_model(campaign)
            _journal(campaign, {})
            self.assertEqual(answers.check_journal(model, campaign)["failed"], [])
            # an unplanted event3 pair: its falsity twin is false in the model
            corpus = _corpus(campaign)
            false_ids = [cq for cq, rec in sorted(corpus.items())
                         if rec["pattern"] == "event3" and rec["polarity"] == "falsity"
                         and not model.holds(kif.parse_kif(rec["kif_text"])[0])]
            doctored = false_ids[0]
            _journal(campaign, {doctored: ("Theorem", [])})
            result = answers.check_journal(model, campaign)
            self.assertEqual([cq for cq, _ in result["wrong"]], [doctored])

    def test_stray_used_axiom_and_error_are_failures(self):
        with tempfile.TemporaryDirectory() as tmp:
            campaign = self._campaign(tmp, "paper_mix")
            model = answers.load_model(campaign)
            truth = sorted(p.stem for p in (campaign / "problems").glob("cq_creative_*.p"))[0]
            other = sorted(p.stem for p in (campaign / "problems").glob("cq_event3_*.p"))[0]
            _journal(campaign, {truth: ("Theorem", ["ax_no_such_axiom"]),
                                other: ("Error", [])})
            result = answers.check_journal(model, campaign)
            self.assertEqual([cq for cq, _ in result["wrong"]], [truth])
            self.assertEqual(sorted(cq for cq, _ in result["failed"]), sorted([truth, other]))

    def test_negated_tautology_theorem_is_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            campaign = self._campaign(tmp, "formula_stress")
            model = answers.load_model(campaign)
            negated = [cq for cq, rec in sorted(_corpus(campaign).items())
                       if rec["kif_text"].startswith("(not (or")]
            _journal(campaign, {negated[0]: ("Theorem", [])})
            result = answers.check_journal(model, campaign)
            self.assertEqual([cq for cq, _ in result["wrong"]], [negated[0]])

    def test_model_that_breaks_an_axiom_is_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            campaign = Path(tmp)
            gen.write(gen.build("paper_mix", gen.WORKLOADS["paper_mix"], 3), campaign)
            path = campaign / "answers.json"
            facts = json.loads(path.read_text())
            facts["subclass"] = facts["subclass"][1:]
            path.write_text(json.dumps(facts))
            with self.assertRaises(ValueError):
                answers.load_model(campaign)


if __name__ == "__main__":
    unittest.main()
