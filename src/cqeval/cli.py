"""Command-line front end for the whole evaluation pipeline.

A single JSON config file names the input data, the ontology, and the
campaign parameters; every subcommand reads it and leaves its output in
a persistent store, so the pipeline can be run stage by stage:

    cqeval ingest     --config campaign.json
    cqeval propagate  --config campaign.json
    cqeval generate   --config campaign.json
    cqeval emit       --config campaign.json
    cqeval run        --config campaign.json
    cqeval report     --config campaign.json

Paths in the config resolve relative to the config file.  Environment
variables CQEVAL_PROVER_CMD and CQEVAL_JOBS override the config; flags
override both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from concurrent.futures import BrokenExecutor
from pathlib import Path

from . import coremap, cqgen, ontology, report, runner, store, tptp, wordnet


class CliError(Exception):
    pass


POS_BY_NAME = {
    "noun": wordnet.Pos.NOUN,
    "verb": wordnet.Pos.VERB,
    "adj": wordnet.Pos.ADJ,
    "adv": wordnet.Pos.ADV,
}

STORES = {
    "synsets": "synsets.ldjson",
    "antonyms": "antonyms.ldjson",
    "mapping": "mapping.ldjson",
    "morphlinks": "morphlinks.ldjson",
    "core_mapping": "core_mapping.ldjson",
    "corpus": "corpus.ldjson",
}


class Config:
    """Loaded campaign configuration with paths resolved."""

    def __init__(self, raw: dict, base: Path):
        self.raw = raw
        self.base = base

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CliError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise CliError(f"config file {path} is not valid JSON: {e}") from None
        return cls(raw, path.parent)

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base / p

    def get(self, *keys, default=None):
        node = self.raw
        for k in keys:
            if not isinstance(node, dict) or k not in node:
                return default
            node = node[k]
        return node

    def read_text(self, rel: str) -> str:
        """Read an input file, verifying its checksum when one is pinned."""
        path = self.resolve(rel)
        pinned = self.get("checksums", default={}).get(rel)
        if pinned:
            actual = store.sha256_file(path)
            if actual != pinned:
                raise CliError(
                    f"checksum mismatch for {rel}: config pins {pinned}, file has {actual}"
                )
        return path.read_text(encoding="utf-8")

    def store_path(self, name: str) -> Path:
        stores_dir = self.resolve(self.get("stores_dir", default="stores"))
        return stores_dir / STORES[name]

    def suffixes(self) -> frozenset:
        listed = self.get("mapping_suffixes")
        if listed is None:
            return wordnet.DEFAULT_SUFFIXES
        return frozenset(listed)


# --------------------------------------------------------------------------
# shared loading steps


def _load_ontologies(cfg: Config):
    core_rel = cfg.get("ontology", "core")
    if core_rel is None:
        raise CliError("config lacks ontology.core")
    cfg.read_text(core_rel)  # checksum side effect
    core = ontology.load_ontology(cfg.resolve(core_rel))
    extras = []
    for rel in cfg.get("ontology", "extra", default=()) or ():
        cfg.read_text(rel)
        extras.append(ontology.load_ontology(cfg.resolve(rel)))
    return core, extras


def _build_index(cfg: Config, core, extras):
    vocab_rel = cfg.get("ontology", "vocabulary_source")
    if vocab_rel:
        vocab_ont = ontology.load_ontology(cfg.resolve(vocab_rel))
        core = dataclasses.replace(core, vocabulary=vocab_ont.vocabulary)
    return ontology.build_index(core, extras)


def _evaluated_ontology(cfg: Config):
    core, extras = _load_ontologies(cfg)
    if not extras:
        return core
    return ontology.merge_ontologies(core.name, core, *extras)


def _load_corpus(cfg: Config) -> cqgen.Corpus:
    path = cfg.store_path("corpus")
    if not path.exists():
        raise CliError(f"corpus store missing: {path} (run generate first)")
    records = store.read_ldjson(path, "corpus")
    return cqgen.Corpus([cqgen.cq_from_record(r) for r in records], {})


def _load_core_entries(cfg: Config):
    path = cfg.store_path("core_mapping")
    if not path.exists():
        raise CliError(f"core mapping store missing: {path} (run propagate first)")
    out = []
    for rec in store.read_ldjson(path, "core_mapping"):
        out.append(
            coremap.PropagatedEntry(
                synset=wordnet.SynsetId.from_key(rec["synset"]),
                term=rec["term"],
                relation=wordnet.MappingRelation(rec["relation"]),
                origin_term=rec["origin_term"],
                depth=int(rec["depth"]),
            )
        )
    return out


def _verdicts(journal_path: Path, corpus: cqgen.Corpus):
    from .verdict import classify_all

    journaled = runner.read_journal(journal_path)
    return classify_all(corpus, sorted(journaled.items()))


# --------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    cfg = Config.load(args.config)
    data_cfg = cfg.get("wordnet", "data", default={}) or {}
    corpus = wordnet.WordNetCorpus({}, frozenset())
    n_inputs = 0
    for posname, rel in sorted(data_cfg.items()):
        if not rel:
            continue
        if posname not in POS_BY_NAME:
            raise CliError(f"unknown part of speech {posname!r} in wordnet.data")
        corpus = corpus.merged_with(
            wordnet.parse_wn_data(cfg.read_text(rel), POS_BY_NAME[posname])
        )
        n_inputs += 1

    mapping_cfg = cfg.get("mappings", default={}) or {}
    entries = []
    skipped = 0
    warnings: list = []
    for posname, rel in sorted(mapping_cfg.items()):
        if not rel:
            continue
        parsed = wordnet.parse_mapping_file(
            cfg.read_text(rel), POS_BY_NAME[posname], cfg.suffixes()
        )
        entries.extend(parsed.entries)
        skipped += parsed.skipped
        warnings.extend(f"{rel}: {w}" for w in parsed.warnings)
        n_inputs += 1

    if n_inputs == 0:
        raise CliError("no input files")

    links = []
    sense_rel = cfg.get("wordnet", "sense_index")
    morph_rel = cfg.get("wordnet", "morphosemantic")
    if morph_rel:
        if not sense_rel:
            raise CliError("morphosemantic links need wordnet.sense_index")
        sense_index = wordnet.parse_sense_index(cfg.read_text(sense_rel))
        links = wordnet.parse_morphosemantic(cfg.read_text(morph_rel), sense_index)

    store.write_ldjson(
        cfg.store_path("synsets"),
        "synsets",
        (
            {"id": s.id.key, "words": list(s.words), "gloss": s.gloss}
            for s in sorted(corpus.synsets.values(), key=lambda s: s.id)
        ),
    )
    store.write_ldjson(
        cfg.store_path("antonyms"),
        "antonyms",
        ({"a": a.key, "b": b.key} for a, b in sorted(corpus.antonym_pairs)),
    )
    store.write_ldjson(
        cfg.store_path("mapping"),
        "mapping",
        (
            {"synset": e.synset.key, "term": e.term, "relation": e.relation.value}
            for e in entries
        ),
    )
    store.write_ldjson(
        cfg.store_path("morphlinks"),
        "morphlinks",
        (
            {"verb": ln.verb.key, "relation": ln.relation, "noun": ln.noun.key}
            for ln in links
        ),
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"synsets={len(corpus.synsets)} antonym_pairs={len(corpus.antonym_pairs)} "
        f"mapping_entries={len(entries)} skipped_lines={skipped} morph_links={len(links)}"
    )
    return 0


def cmd_propagate(args) -> int:
    cfg = Config.load(args.config)
    mapping_path = cfg.store_path("mapping")
    if not mapping_path.exists():
        raise CliError(f"mapping store missing: {mapping_path} (run ingest first)")
    entries = [
        wordnet.MappingEntry(
            wordnet.SynsetId.from_key(r["synset"]),
            r["term"],
            wordnet.MappingRelation(r["relation"]),
        )
        for r in store.read_ldjson(mapping_path, "mapping")
    ]
    core, extras = _load_ontologies(cfg)
    idx = _build_index(cfg, core, extras)
    result = coremap.propagate_to_core(entries, idx)
    store.write_ldjson(
        cfg.store_path("core_mapping"),
        "core_mapping",
        (
            {
                "synset": p.synset.key,
                "term": p.term,
                "relation": p.relation.value,
                "origin_term": p.origin_term,
                "depth": p.depth,
            }
            for p in result.entries
        ),
    )
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    # one count per reason; the entries dropped are the mapping store's
    # records that the core_mapping store lacks
    reasons = Counter(reason for _, reason in result.dropped)
    if reasons:
        counts = " ".join(f"{r}={n}" for r, n in sorted(reasons.items()))
        print(f"dropped: {counts}", file=sys.stderr)
    print(f"input={len(entries)} core={len(result.entries)} dropped={len(result.dropped)}")
    return 0


def cmd_generate(args) -> int:
    cfg = Config.load(args.config)
    antonyms_path = cfg.store_path("antonyms")
    links_path = cfg.store_path("morphlinks")
    for p in (antonyms_path, links_path):
        if not p.exists():
            raise CliError(f"store missing: {p} (run ingest first)")
    pairs = [
        (wordnet.SynsetId.from_key(r["a"]), wordnet.SynsetId.from_key(r["b"]))
        for r in store.read_ldjson(antonyms_path, "antonyms")
    ]
    links = [
        wordnet.MorphLink(
            wordnet.SynsetId.from_key(r["verb"]),
            r["relation"],
            wordnet.SynsetId.from_key(r["noun"]),
        )
        for r in store.read_ldjson(links_path, "morphlinks")
    ]
    core_entries = _load_core_entries(cfg)
    core, extras = _load_ontologies(cfg)
    idx = _build_index(cfg, core, extras)
    creative_rel = cfg.get("creative")
    creative_path = cfg.resolve(creative_rel) if creative_rel else None
    if creative_rel:
        cfg.read_text(creative_rel)
    corpus = cqgen.generate_corpus(pairs, links, core_entries, idx, creative_path)
    store.write_ldjson(
        cfg.store_path("corpus"),
        "corpus",
        (cqgen.cq_to_record(cq) for cq in corpus.questions),
    )
    counts = corpus.counts()
    for family in cqgen.FAMILIES:
        t = counts.get(("truth", family), 0)
        f = counts.get(("falsity", family), 0)
        if t or f:
            print(f"{family} truth={t} falsity={f}")
    print(
        f"total truth={counts.get(('truth', 'total'), 0)} "
        f"falsity={counts.get(('falsity', 'total'), 0)}"
    )
    if corpus.skipped:
        parts = " ".join(f"{k}={v}" for k, v in sorted(corpus.skipped.items()))
        print(f"skipped {parts}")
    print(f"wrote {cfg.store_path('corpus')} ({len(corpus.questions)} questions)")
    return 0


def cmd_translate(args) -> int:
    ont = ontology.load_ontology(args.input)
    out = tptp.write_axiom_file(tptp.render_axioms(ont), args.output)
    print(f"wrote {out} ({len(ont.axioms)} axioms)")
    return 0


def cmd_emit(args) -> int:
    cfg = Config.load(args.config)
    corpus = _load_corpus(cfg)
    axioms = tptp.render_axioms(_evaluated_ontology(cfg))
    problems_dir = cfg.resolve(cfg.get("problems_dir", default="problems"))
    mode = args.mode or cfg.get("emit_mode", default="inline")
    axiom_file = None
    if mode == "include":
        axiom_file = problems_dir / "axioms.ax"
        problems_dir.mkdir(parents=True, exist_ok=True)
        tptp.write_axiom_file(axioms, axiom_file)
        axiom_file = Path("axioms.ax")  # include paths are problem-relative
    count = 0
    for cq in corpus.questions:
        tptp.write_problem(
            cq,
            axioms,
            problems_dir,
            mode=mode,
            axiom_file=axiom_file,
            warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
        )
        count += 1
    print(f"wrote {count} problems to {problems_dir}")
    return 0


def _runner_config(cfg: Config, args) -> runner.RunnerConfig:
    prover_cmd = (
        args.prover_cmd
        or os.environ.get("CQEVAL_PROVER_CMD")
        or cfg.get("prover_cmd", default=runner.BUILTIN)
    )
    jobs = args.jobs if args.jobs is not None else (
        os.environ.get("CQEVAL_JOBS") or cfg.get("jobs", default=1))
    timeout = args.timeout if args.timeout is not None else cfg.get("timeout_seconds", default=600)
    journal = args.journal or cfg.get("journal", default="journal.ldjson")
    try:
        return runner.RunnerConfig(
            output_dir=cfg.resolve(cfg.get("outputs_dir", default="outputs")),
            journal_path=cfg.resolve(journal),
            prover_cmd=prover_cmd,
            timeout_seconds=float(timeout),
            max_parallel=int(jobs),
            grace_seconds=float(cfg.get("grace_seconds", default=2.0)),
            builtin_max_literals=int(cfg.get("builtin_max_literals", default=12)),
            builtin_max_clauses=int(cfg.get("builtin_max_clauses", default=50000)),
        )
    except (TypeError, ValueError) as e:
        raise CliError(f"bad run setting: {e}") from None


def cmd_run(args) -> int:
    cfg = Config.load(args.config)
    problems_dir = args.corpus or cfg.resolve(cfg.get("problems_dir", default="problems"))
    problems = runner.discover_problems(problems_dir)
    if not problems:
        raise CliError(f"no problem files in {problems_dir}")
    rcfg = _runner_config(cfg, args)
    try:
        results = runner.run_corpus(problems, rcfg)
    except BrokenExecutor as e:
        raise CliError(f"{e} Finished results are journaled; run again to resume.") from None
    histogram: dict = {}
    for _, r in results:
        histogram[r.szs.value] = histogram.get(r.szs.value, 0) + 1
    print(" ".join(f"{k}={v}" for k, v in sorted(histogram.items())))
    print(f"journal: {rcfg.journal_path} ({len(results)} results)")
    return 0


def cmd_report(args) -> int:
    cfg = Config.load(args.config)
    corpus = _load_corpus(cfg)
    journal_path = cfg.resolve(args.journal or cfg.get("journal", default="journal.ldjson"))
    verdicts = _verdicts(journal_path, corpus)
    rep = report.summarize(verdicts, corpus)
    renderers = {
        "text": report.render_text,
        "csv": report.render_csv,
        "json": report.render_json,
    }
    text = renderers[args.format](rep)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_diff(args) -> int:
    cfg = Config.load(args.config)
    corpus = _load_corpus(cfg)
    old = report.summarize(_verdicts(cfg.resolve(args.old_journal), corpus), corpus)
    new = report.summarize(_verdicts(cfg.resolve(args.new_journal), corpus), corpus)
    delta = report.diff_reports(old, new)
    sys.stdout.write(report.render_delta(delta))
    return 0


def cmd_check_cqs(args) -> int:
    # a check that times out counts as nontrivial, so no time screens nothing
    if not args.timeout > 0:
        raise CliError(f"bad check-cqs setting: timeout must be positive, got {args.timeout}")
    cfg = Config.load(args.config)
    corpus = _load_corpus(cfg)
    from . import microprover

    def prove_quick(axioms, conjecture):
        return microprover.prove(axioms, conjecture, limit_seconds=args.timeout)

    trivial = []
    for cq in corpus.questions:
        if not cqgen.check_nontriviality(cq, prove_quick):
            trivial.append(cq.id)
            print(f"trivial: {cq.id}")
    print(f"checked {len(corpus.questions)} questions, {len(trivial)} trivial")
    return 0


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqeval",
        description="competency-question evaluation for first-order ontologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", default="cqeval.json", help="campaign config file")
        return p

    with_config(sub.add_parser("ingest", help="parse lexicon, mapping and link files"))
    with_config(sub.add_parser("propagate", help="rewrite mappings onto the core vocabulary"))
    with_config(sub.add_parser("generate", help="generate the question corpus"))

    p = sub.add_parser("translate", help="translate a KIF ontology to a TPTP axiom file")
    p.add_argument("input")
    p.add_argument("output")

    p = with_config(sub.add_parser("emit", help="write one TPTP problem per question"))
    p.add_argument("--mode", choices=("inline", "include"), default=None)

    p = with_config(sub.add_parser("run", help="run the prover campaign"))
    p.add_argument("--corpus", default=None, help="problem directory (default from config)")
    p.add_argument("--prover-cmd", default=None,
                   help="external prover template with {problem} and {timeout}, or 'builtin'")
    p.add_argument("--timeout", type=float, default=None, help="seconds per problem")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p.add_argument("--journal", default=None, help="journal file path")

    p = with_config(sub.add_parser("report", help="summarize verdicts"))
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--journal", default=None)
    p.add_argument("--out", default=None, help="write to a file instead of stdout")

    p = with_config(sub.add_parser("diff", help="compare two campaign journals"))
    p.add_argument("old_journal")
    p.add_argument("new_journal")

    p = with_config(sub.add_parser("check-cqs", help="flag questions that prove themselves"))
    p.add_argument("--timeout", type=float, default=5.0,
                   help="seconds per triviality check (default 5)")

    return parser


_HANDLERS = {
    "ingest": cmd_ingest,
    "propagate": cmd_propagate,
    "generate": cmd_generate,
    "translate": cmd_translate,
    "emit": cmd_emit,
    "run": cmd_run,
    "report": cmd_report,
    "diff": cmd_diff,
    "check-cqs": cmd_check_cqs,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (
        OSError,
        store.StoreError,
        ontology.OntologyError,
        wordnet.WordNetError,
        cqgen.CqGenError,
        report.ReportError,
        tptp.TptpError,
        json.JSONDecodeError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
