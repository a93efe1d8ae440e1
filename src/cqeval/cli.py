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

Paths in the config resolve relative to the config file, and every input
it names is checked against its pinned sha256, if any, before it is
read.  Each store has one record format, in ``STORES``; reading a store
that is missing names the stage that writes it.  Every bad input, a
config value of the wrong type included, ends the stage with exit 2 and
one line, ``error: [<path>:][<line>:[<col>:]] <reason>``.  Environment
variables CQEVAL_PROVER_CMD and CQEVAL_JOBS override the config; flags
override both.  A run setting that none of them gives keeps the default of
``runner.RunnerConfig``.
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

from . import (
    Error, coremap, cqgen, ontology, read_text, report, runner, store, tptp, verdict, wordnet,
)


POS_NAMES = frozenset({"noun", "verb", "adj", "adv"})  # the sections of wordnet.data and mappings

_PAIR = ("a", "b")  # the keys of an antonym pair's record


def _pair_record(pair) -> dict:
    return {key: synset.key for key, synset in zip(_PAIR, pair)}


def _pair(rec: dict) -> tuple:
    return tuple(wordnet.SynsetId.from_key(rec[key]) for key in _PAIR)


# each store, kept as <name>.ldjson in stores_dir: the stage that writes it,
# and the functions that turn one of its objects into a record and back
STORES = {
    "antonyms": ("ingest", _pair_record, _pair),
    "mapping": ("ingest", *store.record_codec(wordnet.MappingEntry)),
    "morphlinks": ("ingest", *store.record_codec(wordnet.MorphLink)),
    "core_mapping": ("propagate", *store.record_codec(coremap.PropagatedEntry)),
    "corpus": ("generate", cqgen.cq_to_record, cqgen.cq_from_record),
}


_KINDS = {str: "a string", list: "a list of strings", dict: "an object of strings",
          int: "a whole number", float: "a number"}


def _number(name: str, value, kind):
    """``value``, a number or a string that reads as one, as ``kind``: int
    for a whole number, float for any, and a bool is neither.  None and ""
    stay None; anything else raises an Error naming ``name``."""
    try:
        return None if value in (None, "") else kind(str(value))
    except ValueError:
        raise Error(f"{name} must be {_KINDS[kind]}, got {value!r}") from None


class Config:
    """Loaded campaign configuration with paths resolved."""

    def __init__(self, raw: dict, base: Path):
        self.raw = raw
        self.base = base

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        path = Path(path)
        try:
            raw = json.loads(read_text(path))
        except FileNotFoundError:
            raise Error(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise Error(f"config file {path} is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise Error(f"config file {path} is not a JSON object")
        return cls(raw, path.parent)

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.base / p

    def get(self, *keys, kind=str, default=None):
        """The value at ``keys``, or ``default`` where it is missing or null;
        an int or float ``kind`` is read by ``_number``.  A value of another
        kind, a list or object with a member that is not a string, or a key
        under a value that is not an object, raises an Error naming the key."""
        node = self.raw
        for i, k in enumerate(keys):
            if not isinstance(node, dict):
                raise Error(f"config key {'.'.join(keys[:i])} must be an object, got {node!r}")
            if node.get(k) is None:
                return default
            node = node[k]
        if kind in (int, float):
            return _number(f"config key {'.'.join(keys)}", node, kind)
        if not isinstance(node, kind) or kind in (list, dict) and not all(
                isinstance(m, str) for m in (node.values() if kind is dict else node)):
            raise Error(f"config key {'.'.join(keys)} must be {_KINDS[kind]}, got {node!r}")
        return node

    def input_path(self, rel: str) -> Path:
        """The path of an input file, once its checksum matches the pinned one, if any."""
        path = self.resolve(rel)
        pinned = self.get("checksums", kind=dict, default={}).get(rel)
        if pinned:
            actual = store.sha256_file(path)
            if actual != pinned:
                raise Error(
                    f"checksum mismatch for {rel}: config pins {pinned}, file has {actual}"
                )
        return path

    def store_path(self, name: str) -> Path:
        return self.resolve(self.get("stores_dir", default="stores")) / f"{name}.ldjson"

    def write_store(self, name: str, objects) -> None:
        _, encode, _ = STORES[name]
        store.write_ldjson(self.store_path(name), name, map(encode, objects))

    def read_store(self, name: str) -> list:
        stage, _, decode = STORES[name]
        path = self.store_path(name)
        if not path.exists():
            raise Error(f"{name} store missing: {path} (run {stage} first)")
        return store.read_ldjson(path, name, decode)

    def problems_dir(self) -> Path:
        return self.resolve(self.get("problems_dir", default="problems"))

    def journal_path(self, flag: str | None) -> Path:
        return self.resolve(flag or self.get("journal", default="journal.ldjson"))

    def suffixes(self) -> frozenset:
        return frozenset(self.get("mapping_suffixes", kind=list, default=wordnet.DEFAULT_SUFFIXES))


# --------------------------------------------------------------------------
# shared loading steps


def _load_ontologies(cfg: Config):
    core_rel = cfg.get("ontology", "core")
    if core_rel is None:
        raise Error("config lacks ontology.core")
    core = ontology.load_ontology(cfg.input_path(core_rel))
    extras = [ontology.load_ontology(cfg.input_path(rel))
              for rel in cfg.get("ontology", "extra", kind=list, default=())]
    return core, extras


def _build_index(cfg: Config):
    core, extras = _load_ontologies(cfg)
    vocab_rel = cfg.get("ontology", "vocabulary_source")
    if vocab_rel:
        vocab_ont = ontology.load_ontology(cfg.input_path(vocab_rel))
        core = dataclasses.replace(core, vocabulary=vocab_ont.vocabulary)
    return ontology.build_index(core, extras)


def _evaluated_ontology(cfg: Config):
    core, extras = _load_ontologies(cfg)
    if not extras:
        return core
    return ontology.merge_ontologies(core.name, core, *extras)


def _load_corpus(cfg: Config) -> cqgen.Corpus:
    return cqgen.Corpus(cfg.read_store("corpus"))


def _verdicts(journal_path: Path, corpus: cqgen.Corpus):
    if not journal_path.exists():  # read_journal reads a missing journal as empty
        raise Error(f"journal not found: {journal_path}")
    journaled = runner.read_journal(journal_path)
    return verdict.classify_all(corpus, sorted(journaled.items()))


def _parse_input(cfg: Config, rel: str, parse, *args):
    """``parse`` applied to the text of the WordNet input ``rel``; an error
    in the text names the input."""
    text = read_text(cfg.input_path(rel))
    try:
        return parse(text, *args)
    except Error as e:
        raise e.at(rel) from None


# --------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    cfg = Config.load(args.config)
    data_cfg = cfg.get("wordnet", "data", kind=dict, default={})
    mapping_cfg = cfg.get("mappings", kind=dict, default={})
    for section, listed in (("wordnet.data", data_cfg), ("mappings", mapping_cfg)):
        unknown = sorted(set(listed) - POS_NAMES)
        if unknown:
            raise Error(f"unknown part of speech {unknown[0]!r} in {section}")
    if not any(data_cfg.values()) and not any(mapping_cfg.values()):
        raise Error("no input files")
    corpus = wordnet.WordNetCorpus(frozenset(), frozenset())
    for _, rel in sorted(data_cfg.items()):
        if rel:
            corpus = corpus.merged_with(_parse_input(cfg, rel, wordnet.parse_wn_data))

    entries = []
    skipped = 0
    warnings: list = []
    for _, rel in sorted(mapping_cfg.items()):
        if not rel:
            continue
        parsed = _parse_input(cfg, rel, wordnet.parse_mapping_file, cfg.suffixes())
        entries.extend(parsed.entries)
        skipped += parsed.skipped
        warnings.extend(w.at(rel) for w in parsed.warnings)

    links = []
    sense_rel = cfg.get("wordnet", "sense_index")
    morph_rel = cfg.get("wordnet", "morphosemantic")
    if morph_rel:
        if not sense_rel:
            raise Error("morphosemantic links need wordnet.sense_index")
        sense_index = _parse_input(cfg, sense_rel, wordnet.parse_sense_index)
        links = _parse_input(cfg, morph_rel, wordnet.parse_morphosemantic, sense_index)

    cfg.write_store("antonyms", sorted(corpus.antonym_pairs))
    cfg.write_store("mapping", entries)
    cfg.write_store("morphlinks", links)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"synsets={len(corpus.synsets)} antonym_pairs={len(corpus.antonym_pairs)} "
        f"mapping_entries={len(entries)} skipped_lines={skipped} morph_links={len(links)}"
    )
    return 0


def cmd_propagate(args) -> int:
    cfg = Config.load(args.config)
    entries = cfg.read_store("mapping")
    result = coremap.propagate_to_core(entries, _build_index(cfg))
    cfg.write_store("core_mapping", result.entries)
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
    pairs = cfg.read_store("antonyms")
    links = cfg.read_store("morphlinks")
    core_entries = cfg.read_store("core_mapping")
    idx = _build_index(cfg)
    creative_rel = cfg.get("creative")
    creative_path = cfg.input_path(creative_rel) if creative_rel else None
    corpus = cqgen.generate_corpus(pairs, links, core_entries, idx, creative_path)
    cfg.write_store("corpus", corpus.questions)
    counts = corpus.counts()
    for family in cqgen.FAMILIES:
        t, f = counts[("truth", family)], counts[("falsity", family)]
        if t or f:
            print(f"{family} truth={t} falsity={f}")
    print(f"total truth={counts[('truth', 'total')]} falsity={counts[('falsity', 'total')]}")
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


EMIT_MODES = ("inline", "include")  # axioms copied into each problem, or in axioms.ax


def cmd_emit(args) -> int:
    cfg = Config.load(args.config)
    mode = args.mode or cfg.get("emit_mode", default="inline")
    if mode not in EMIT_MODES:
        raise Error(f"unknown emit_mode {mode!r}: expected one of {', '.join(EMIT_MODES)}")
    corpus = _load_corpus(cfg)
    axioms = tptp.render_axioms(_evaluated_ontology(cfg))
    problems_dir = cfg.problems_dir()
    problems_dir.mkdir(parents=True, exist_ok=True)
    include = "axioms.ax" if mode == "include" else None  # problem-relative
    if include:
        tptp.write_axiom_file(axioms, problems_dir / include)
    for cq in corpus.questions:
        tptp.write_problem(cq, axioms, problems_dir, include,
                           warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
    print(f"wrote {len(corpus.questions)} problems to {problems_dir}")
    return 0


def _runner_config(cfg: Config, args) -> runner.RunnerConfig:
    # each setting from its flag, else its environment variable, else the
    # config, an empty value counting as none; one that none of them gives
    # keeps RunnerConfig's default
    def first(*values):
        return next((v for v in values if v not in (None, "")), None)

    jobs = _number("CQEVAL_JOBS", os.environ.get("CQEVAL_JOBS"), int)
    given = {
        "prover_cmd": first(args.prover_cmd, os.environ.get("CQEVAL_PROVER_CMD"),
                            cfg.get("prover_cmd")),
        "max_parallel": first(args.jobs, jobs, cfg.get("jobs", kind=int)),
        "timeout_seconds": first(args.timeout, cfg.get("timeout_seconds", kind=float)),
        "builtin_max_literals": cfg.get("builtin_max_literals", kind=int),
        "builtin_max_clauses": cfg.get("builtin_max_clauses", kind=int),
    }
    try:
        return runner.RunnerConfig(
            output_dir=cfg.resolve(cfg.get("outputs_dir", default="outputs")),
            journal_path=cfg.journal_path(args.journal),
            **{field: value for field, value in given.items() if value is not None},
        )
    except ValueError as e:
        raise Error(f"bad run setting: {e}") from None


def cmd_run(args) -> int:
    cfg = Config.load(args.config)
    rcfg = _runner_config(cfg, args)
    problems_dir = args.corpus or cfg.problems_dir()
    problems = runner.discover_problems(problems_dir)
    if not problems:
        raise Error(f"no problem files in {problems_dir}")
    try:
        results = runner.run_corpus(problems, rcfg)
    except BrokenExecutor as e:
        raise Error(f"{e} Finished results are journaled; run again to resume.") from None
    histogram = Counter(r.szs.value for _, r in results)
    print(" ".join(f"{k}={v}" for k, v in sorted(histogram.items())))
    print(f"journal: {rcfg.journal_path} ({len(results)} results)")
    return 0


def cmd_report(args) -> int:
    cfg = Config.load(args.config)
    corpus = _load_corpus(cfg)
    verdicts = _verdicts(cfg.journal_path(args.journal), corpus)
    text = getattr(report, f"render_{args.format}")(report.summarize(verdicts, corpus))
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
        raise Error(f"bad check-cqs setting: timeout must be positive, got {args.timeout}")
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

    def command(name, handler, help, config=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if config:
            p.add_argument("--config", default="cqeval.json", help="campaign config file")
        return p

    command("ingest", cmd_ingest, "parse lexicon, mapping and link files")
    command("propagate", cmd_propagate, "rewrite mappings onto the core vocabulary")
    command("generate", cmd_generate, "generate the question corpus")

    p = command("translate", cmd_translate, "translate a KIF ontology to a TPTP axiom file",
                config=False)
    p.add_argument("input")
    p.add_argument("output")

    p = command("emit", cmd_emit, "write one TPTP problem per question")
    p.add_argument("--mode", choices=EMIT_MODES, default=None)

    p = command("run", cmd_run, "run the prover campaign")
    p.add_argument("--corpus", default=None, help="problem directory (default from config)")
    p.add_argument("--prover-cmd", default=None,
                   help="external prover template with {problem} and {timeout}, or 'builtin'")
    p.add_argument("--timeout", type=float, default=None, help="seconds per problem")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p.add_argument("--journal", default=None, help="journal file path")

    p = command("report", cmd_report, "summarize verdicts")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--journal", default=None)
    p.add_argument("--out", default=None, help="write to a file instead of stdout")

    p = command("diff", cmd_diff, "compare two campaign journals")
    p.add_argument("old_journal")
    p.add_argument("new_journal")

    p = command("check-cqs", cmd_check_cqs, "flag questions that prove themselves")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="seconds per triviality check (default 5)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (Error, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
