"""Shared fixtures: paths into tests/fixtures, a campaign config builder,
and a single session-scoped run of the whole pipeline that the CLI,
report and acceptance tests all reuse."""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from cqeval import cli, cqgen, ontology, runner, store

TESTS = Path(__file__).parent
FIXTURES = TESTS / "fixtures"
WN = FIXTURES / "wordnet"
ONT = FIXTURES / "ontology"
CREATIVE = FIXTURES / "creative" / "creative.kif"

# a stray environment override would silently reroute every run below
os.environ.pop("CQEVAL_PROVER_CMD", None)
os.environ.pop("CQEVAL_JOBS", None)


def base_config() -> dict:
    return {
        "wordnet": {
            "data": {
                "noun": str(WN / "data.noun"),
                "verb": str(WN / "data.verb"),
                "adj": str(WN / "data.adj"),
                "adv": str(WN / "data.adv"),
            },
            "sense_index": str(WN / "index.sense"),
            "morphosemantic": str(WN / "morphosemantic.tsv"),
        },
        "mappings": {
            "noun": str(WN / "WordNetMappings30-noun.txt"),
            "verb": str(WN / "WordNetMappings30-verb.txt"),
        },
        "ontology": {
            "core": str(ONT / "core.kif"),
            "extra": [str(ONT / "domain.kif")],
        },
        "creative": str(CREATIVE),
        "stores_dir": "stores",
        "problems_dir": "problems",
        "outputs_dir": "outputs",
        "journal": "journal.ldjson",
        "prover_cmd": "builtin",
        "timeout_seconds": 3,
        "jobs": 2,
        "builtin_max_clauses": 1200,
    }


def write_config(root: Path, raw: dict | None = None, name: str = "campaign.json") -> Path:
    path = root / name
    path.write_text(json.dumps(raw if raw is not None else base_config(), indent=2),
                    encoding="utf-8")
    return path


def run_cli(*argv: str):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """ingest, propagate, generate, emit and run over the fixture corpus,
    once per session.  21 problems against the built-in prover with a
    3 second budget; the falsity test of the equality question is expected
    to give up with its queue empty, its truth test at the clause cap."""
    root = tmp_path_factory.mktemp("campaign")
    config = write_config(root)
    steps = {}
    for step in ("ingest", "propagate", "generate", "emit", "run"):
        code, out, err = run_cli(step, "--config", str(config))
        assert code == 0, f"{step} exited {code}: {err or out}"
        steps[step] = SimpleNamespace(out=out, err=err)
    return SimpleNamespace(root=root, config=config, steps=steps)


@pytest.fixture(scope="session")
def corpus(pipeline):
    records = store.read_ldjson(pipeline.root / "stores" / "corpus.ldjson", "corpus")
    return cqgen.Corpus([cqgen.cq_from_record(r) for r in records], {})


@pytest.fixture(scope="session")
def journal(pipeline):
    return runner.read_journal(pipeline.root / "journal.ldjson")


@pytest.fixture(scope="session")
def core_index():
    core = ontology.load_ontology(ONT / "core.kif")
    extra = ontology.load_ontology(ONT / "domain.kif")
    return ontology.build_index(core, [extra])


@pytest.fixture(scope="session")
def nulllist_ontology():
    return ontology.load_ontology(ONT / "nulllist.kif")


@pytest.fixture(scope="session")
def deadliving_ontology():
    return ontology.load_ontology(ONT / "deadliving.kif")
