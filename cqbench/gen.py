"""Seeded generator of complete campaign directories.

    python3 cqbench/gen.py --workload paper_mix --seed 7 --out DIR
    python3 cqbench/gen.py --preset paper --seed 7 --out DIR

The same workload and seed always give byte-identical files.  A campaign
directory holds a synthetic WordNet (``data.*``, both mapping files,
``index.sense``, ``morphosemantic.tsv``), a KIF core plus a small domain
extension, a creative question file and ``campaign.json``.  Beside them,
``answers.json`` describes the core's intended finite model; the program
never reads it, the known-answer check does.

Every question is planted: the generator picks the core terms of each
family's questions first and then writes lexicon entries that the
pipeline turns into exactly those questions.  Around them sits lexical
bulk that every stage must read and filter, as in WordNet: unmapped
synsets, mappings that climb through the domain extension or drop out,
links of unselected relations and antonyms without a mapped partner.

The seed picks names and which classes each question pairs.  Counts and
the shape of the taxonomy are fixed by the workload, and every planted
proof is one the prover finds before its clause cap whatever the seed,
so all seeds give the same question mix and the same status histogram.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]

# Orientation figures of the paper's campaign: generated questions per
# family and polarity, plus hand-written ones.
PAPER_COUNTS = {
    "antonym": 64,
    "relation": 1280,
    "event1": 25,
    "event2": 330,
    "event3": 1857,
    "creative_truth": 50,
    "creative_falsity": 14,
}

BRANCHING = 3
ROLES = ("agent", "result", "instrument")
OTHER_MORPH = ("body-part", "by-means-of", "destination", "location", "material",
               "property", "state", "undergoer", "uses", "vehicle")
ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
          "br", "dr", "gl", "kr", "pl", "st", "tr")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")


def paper_preset() -> dict:
    """The paper-scale mix: 3,556 generated questions per polarity plus 64
    creative ones, 7,176 problems, against a core of about 3,000 axioms."""
    spec = json.loads(json.dumps(WORKLOADS["paper_mix"]))
    spec["core"] = {"process_classes": 1400, "object_classes": 1300, "attribute_classes": 8,
                    "attributes": 140, "domain_terms": 300}
    antonym = PAPER_COUNTS["antonym"]
    spec["questions"] = {
        "event3": {"count": PAPER_COUNTS["event3"], "planted": PAPER_COUNTS["event3"] // 10},
        "relation": {"count": PAPER_COUNTS["relation"]},
        "event2": {"count": PAPER_COUNTS["event2"], "planted": PAPER_COUNTS["event2"] // 10},
        "antclass": {"count": antonym // 2, "planted": antonym // 4},
        "antattr": {"count": antonym - antonym // 2, "planted": antonym // 4},
        "event1": {"count": PAPER_COUNTS["event1"]},
    }
    spec["creative"] = {"truth": PAPER_COUNTS["creative_truth"],
                        "falsity": PAPER_COUNTS["creative_falsity"]}
    spec["lexicon"] = {"noise_nouns": 60000, "noise_verbs": 9000, "noise_adjs": 15000,
                       "noise_advs": 3000, "noise_links": 14000}
    spec["emit_mode"] = "include"
    return spec


class Namer:
    """Unique pronounceable names; the seed decides which."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def word(self, syllables: int) -> str:
        while True:
            w = "".join(self.rng.choice(ONSETS) + self.rng.choice(VOWELS)
                        for _ in range(syllables))
            if w not in self.used:
                self.used.add(w)
                return w

    def term(self, prefix: str) -> str:
        return prefix + self.word(2).capitalize()


class Lexicon:
    """Synsets, mapping annotations, antonym pointers and morphosemantic
    links, rendered in the WordNet database layouts."""

    POS_TAG = {"noun": ("n", "1"), "verb": ("v", "2"), "adj": ("a", "3"), "adv": ("r", "4")}

    def __init__(self, namer: Namer):
        self.namer = namer
        self.synsets: dict = {pos: [] for pos in self.POS_TAG}  # pos -> [(offset, word)]
        self.mapping: dict = {}  # (pos, offset) -> annotation
        self.antonyms: dict = {}  # (pos, offset) -> [(pos, offset)]
        self.words: dict = {}  # (pos, offset) -> word
        self.sense: dict = {}  # (pos, offset) -> sense key
        self.links: list = []  # (verb key, relation, noun key)

    def synset(self, pos: str, annotation: str | None = None) -> tuple:
        rows = self.synsets[pos]
        offset = f"{(len(rows) + 100) * 97:08d}"
        word = self.namer.word(3)
        rows.append((offset, word))
        sid = (pos, offset)
        self.words[sid] = word
        if annotation is not None:
            self.mapping[sid] = annotation
        return sid

    def antonym(self, a: tuple, b: tuple) -> None:
        self.antonyms.setdefault(a, []).append(b)
        self.antonyms.setdefault(b, []).append(a)

    def key(self, sid: tuple) -> str:
        if sid not in self.sense:
            tag = self.POS_TAG[sid[0]][1]
            self.sense[sid] = f"{self.words[sid]}%{tag}:{len(self.sense) % 45:02d}:01::"
        return self.sense[sid]

    def link(self, verb: tuple, relation: str, noun: tuple) -> None:
        self.links.append((self.key(verb), relation, self.key(noun)))

    def _record(self, pos: str, offset: str, word: str) -> str:
        targets = self.antonyms.get((pos, offset), ())
        ptrs = "".join(f" ! {o} {self.POS_TAG[p][0]} 0101" for p, o in targets)
        frames = " 01 + 02 00" if pos == "verb" else ""
        return (f"{offset} 10 {self.POS_TAG[pos][0]} 01 {word} 0 {len(targets):03d}"
                f"{ptrs}{frames} | a {pos} sense of {word}")

    def files(self) -> dict:
        out = {}
        for pos, rows in self.synsets.items():
            head = f"  1 Synthetic {pos} data for a benchmark campaign.\n"
            out[f"wn/data.{pos}"] = head + "".join(
                self._record(pos, *row) + "\n" for row in rows)
            if pos in ("noun", "verb"):
                out[f"wn/WordNetMappings30-{pos}.txt"] = head + "".join(
                    self._record(pos, *row)
                    + (f" &%{self.mapping[(pos, row[0])]}" if (pos, row[0]) in self.mapping
                       else "")
                    + "\n"
                    for row in rows)
        out["wn/index.sense"] = "".join(
            f"{k} {sid[1]} 1 0\n" for sid, k in sorted(self.sense.items(), key=lambda kv: kv[1]))
        out["wn/morphosemantic.tsv"] = "verb\trelation\tnoun\n" + "".join(
            f"{v}\t{r}\t{n}\n" for v, r, n in self.links)
        return out


class Core:
    """The KIF core, its domain extension and the intended model's facts."""

    def __init__(self, namer: Namer, sizes: dict):
        self.namer = namer
        self.axioms: list = []  # (label, kif text)
        self.domain_axioms: list = []
        self.parent: dict = {}  # class -> direct parent
        self.instances: list = []  # (individual, class)
        for child, parent in (("Physical", "Entity"), ("Abstract", "Entity"),
                              ("Process", "Physical"), ("Object", "Physical"),
                              ("Attribute", "Abstract")):
            self._subclass(child, parent)
        self.processes = self._tree("Process", "Proc", sizes["process_classes"])
        self.objects = self._tree("Object", "Obj", sizes["object_classes"])
        self.attr_classes = self._tree("Attribute", "Attr", sizes["attribute_classes"])
        self.attributes = []
        for i in range(sizes["attributes"]):
            a = namer.term("Quality")
            cls = self.attr_classes[i % len(self.attr_classes)]
            self.instances.append((a, cls))
            self.axioms.append((f"ax_inst_{a.lower()}", f"(instance {a} {cls})"))
            self.attributes.append(a)
        classes = self.processes + self.objects
        self.domain_terms = []
        for j in range(sizes["domain_terms"]):
            d = namer.term("Dom")
            self.parent[d] = classes[j * len(classes) // sizes["domain_terms"]]
            self.domain_axioms.append((f"ax_dom_{d.lower()}", f"(subclass {d} {self.parent[d]})"))
            self.domain_terms.append(d)
        if not sizes.get("rules", True):
            return  # ground facts only: nothing for saturation to chew on
        self.axioms.append(("ax_subclass_instances",
                            "(=>\n  (and\n    (subclass ?SUB ?SUPER)\n    (instance ?X ?SUB))\n"
                            "  (instance ?X ?SUPER))"))
        for role in ROLES:
            self.axioms.append((f"ax_{role}_process",
                                f"(=>\n  ({role} ?PROC ?ARG)\n  (instance ?PROC Process))"))

    def _subclass(self, child: str, parent: str) -> None:
        self.parent[child] = parent
        self.axioms.append((f"ax_sub_{child.lower()}", f"(subclass {child} {parent})"))

    def _tree(self, root: str, prefix: str, n: int) -> list:
        nodes = [root]
        for i in range(n):
            name = self.namer.term(prefix)
            self._subclass(name, nodes[i // BRANCHING])
            nodes.append(name)
        return nodes[1:]

    def related(self, a: str, b: str) -> bool:
        """Whether one class is below the other; in a tree, unrelated
        classes have no common descendant."""
        def above(t):
            out = {t}
            while t in self.parent:
                t = self.parent[t]
                out.add(t)
            return out
        return a in above(b) or b in above(a)

    def disjoint(self, a: str, b: str) -> None:
        self.axioms.append((f"ax_disjoint_{a.lower()}_{b.lower()}",
                            f"(=>\n  (instance ?X {a})\n  (not (instance ?X {b})))"))

    def contrary(self, a: str, b: str) -> None:
        self.axioms.append((f"ax_contrary_{a.lower()}_{b.lower()}",
                            f"(=>\n  (attribute ?X {a})\n  (not (attribute ?X {b})))"))

    @staticmethod
    def render(header: str, axioms: list) -> str:
        return header + "".join(f"\n;; label: {label}\n{text}\n" for label, text in axioms)

    def answers(self) -> dict:
        return {
            "classes": sorted(set(self.parent) | set(self.parent.values())),
            "subclass": sorted([c, p] for c, p in self.parent.items()),
            "instance": sorted([i, c] for i, c in self.instances),
        }


def _pairs(rng: random.Random, pool: list, n: int, direct_edge: bool, core: Core,
           used: set) -> list:
    """``n`` term pairs from ``pool`` not handed out before: child and
    parent when ``direct_edge``, else two unrelated terms."""
    out: list = []
    for _ in range(100000):
        if len(out) == n:
            return out
        a = rng.choice(pool)
        b = core.parent.get(a) if direct_edge else rng.choice(pool)
        if b not in pool or (not direct_edge and core.related(a, b)):
            continue
        key = tuple(sorted((a, b)))
        if key not in used:
            used.add(key)
            out.append((a, b))
    raise ValueError("core too small for the requested questions")


def build(name: str, spec: dict, seed: int) -> dict:
    """{relative path: file text} for one campaign."""
    rng = random.Random(f"{name}:{seed}")
    namer = Namer(rng)
    core = Core(namer, spec["core"])
    lex = Lexicon(namer)
    q = spec["questions"]
    classes = core.processes + core.objects
    used: set = set()

    def mapped(pos: str, term: str, rel: str) -> tuple:
        return lex.synset(pos, term + rel)

    # antonyms: equivalence-mapped noun pairs, the planted ones backed by an axiom
    for kind, pool, plant in (("antclass", classes, core.disjoint),
                              ("antattr", core.attributes, core.contrary)):
        for i, (a, b) in enumerate(_pairs(rng, pool, q[kind]["count"], False, core, used)):
            if i < q[kind].get("planted", 0):
                plant(a, b)
            lex.antonym(mapped("noun", a, "="), mapped("noun", b, "="))

    # relation: a verb mapped to a process class, a noun to an object class;
    # the core has no individuals, so neither polarity is ever provable
    for _ in range(q["relation"]["count"]):
        while True:
            v, o = rng.choice(core.processes), rng.choice(core.objects)
            if (v, o) not in used:
                break
        used.add((v, o))
        lex.link(mapped("verb", v, rng.choice("=+")), rng.choice(ROLES),
                 mapped("noun", o, rng.choice("=+")))

    # events: the mapping relations choose the family; planted pairs are
    # joined by a direct subclass edge, so their falsity twin is provable
    for family, (ra, rb) in (("event1", "=="), ("event2", "=+"), ("event3", "++")):
        n, planted = q[family]["count"], q[family].get("planted", 0)
        pairs = (_pairs(rng, classes, planted, True, core, used)
                 + _pairs(rng, classes, n - planted, False, core, used))
        for a, b in pairs:
            if family == "event3" and rng.random() < 0.3:
                # the verb side reaches the core through the domain extension
                below = [d for d in core.domain_terms if core.parent[d] == a]
                if below:
                    lex.link(mapped("verb", rng.choice(below), "="), "event",
                             mapped("noun", b, rb))
                    continue
            # event2 maps the child by equivalence: the question asks that
            # it is not a subclass of the other term
            lex.link(mapped("verb", a, ra), "event", mapped("noun", b, rb))

    _bulk(rng, lex, core, spec["lexicon"])
    creative = _creative(rng, core, spec["creative"], used)
    files = lex.files()
    files["ont/core.kif"] = Core.render(
        ";; Synthetic core ontology for a benchmark campaign.\n", core.axioms)
    files["ont/domain.kif"] = Core.render(
        ";; Domain extension: edges join the index, names stay out of the core.\n",
        core.domain_axioms)
    files["creative.kif"] = creative
    files["campaign.json"] = json.dumps(_campaign(spec), indent=2, sort_keys=True) + "\n"
    files["answers.json"] = json.dumps(core.answers(), sort_keys=True) + "\n"
    return files


def _bulk(rng: random.Random, lex: Lexicon, core: Core, sizes: dict) -> None:
    """Lexical entries the pipeline reads and then filters out."""
    targets = core.processes + core.objects
    nouns, verbs = [], []
    for pos, n, out in (("noun", sizes["noise_nouns"], nouns),
                        ("verb", sizes["noise_verbs"], verbs),
                        ("adj", sizes["noise_adjs"], None), ("adv", sizes["noise_advs"], None)):
        for i in range(n):
            roll = rng.random()
            if out is None or roll < 0.35:
                annotation = None
            elif roll < 0.75:
                annotation = rng.choice(targets) + rng.choice("=+")
            elif roll < 0.9:
                annotation = rng.choice(core.domain_terms) + rng.choice("=+")
            else:  # a term without a core ancestor: propagate drops it
                annotation = "Lost" + lex.namer.word(3).capitalize() + "="
            sid = lex.synset(pos, annotation)
            if out is not None:
                out.append((sid, annotation))
            if pos == "adj" and i % 2 == 1:
                lex.antonym(sid, (pos, lex.synsets[pos][-2][0]))
    unmapped_nouns = [s for s, a in nouns if a is None]
    unmapped_verbs = [s for s, a in verbs if a is None]
    for _ in range(sizes["noise_links"]):
        if rng.random() < 0.8:
            lex.link(rng.choice(verbs)[0], rng.choice(OTHER_MORPH), rng.choice(nouns)[0])
        else:  # a selected relation, but the verb never reaches the core
            lex.link(rng.choice(unmapped_verbs), rng.choice(ROLES + ("event",)),
                     rng.choice(nouns)[0])
    for _ in range(sizes["noise_nouns"] // 20):
        lex.antonym(rng.choice(unmapped_nouns), rng.choice(nouns)[0])


def _creative(rng: random.Random, core: Core, spec: dict, used: set) -> str:
    """Hand-written questions.  A truth-test states a planted disjointness,
    a falsity-test an inclusion between unrelated classes."""
    forms = _stress_forms(rng, spec["stress"]) if "stress" in spec else []
    classes = core.processes + core.objects
    for a, b in _pairs(rng, classes, spec.get("truth", 0), False, core, used):
        core.disjoint(a, b)
        forms.append(("truth", f"(=>\n  (instance ?X {a})\n  (not (instance ?X {b})))"))
    for a, b in _pairs(rng, classes, spec.get("falsity", 0), False, core, used):
        forms.append(("falsity-test", f"(=>\n  (instance ?X {a})\n  (instance ?X {b}))"))
    return ";; Hand-written questions.\n" + "".join(
        f"\n;; id: cq_creative_{i:04d}\n;; polarity: {polarity}\n{form}\n"
        for i, (polarity, form) in enumerate(forms))


def _stress_forms(rng: random.Random, stress: dict) -> list:
    """Clausification stress: linear ``<=>`` chains and the tautology set of
    the prover tests (``f or not f`` over ``tests/genformulas.py`` draws)."""
    root = HERE.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import genformulas
    from cqeval import kif

    # atoms of one shape in a fixed pattern: the seed moves names, not cost
    atoms = ["(q a b)", "(q b c)", "(q c d)", "(q d a)", "(q a c)", "(q b d)"]
    forms = []
    for connectives in stress["chains"]:
        # every atom twice makes the chain valid; an odd one out makes it
        # contingent, and then its negation is just another contingent chain
        twice = (connectives + 1) // 2
        picked = rng.sample(atoms, connectives + 1 - twice)
        seq = picked[:twice] * 2 + picked[twice:]
        chain = seq[-1]
        for a in reversed(seq[:-1]):
            chain = f"(<=> {a} {chain})"
        forms.append(("truth", chain))
        if connectives % 2:
            forms.append(("falsity-test", f"(not {chain})"))
    pool = [f for f in genformulas.formulas(60, seed=stress["tautology_seed"], depth=2,
                                            quantifiers=False)
            if "(equal " not in kif.print_kif(f)]
    for f in pool[: stress["tautologies"]]:
        text = kif.print_kif(f)
        forms += [("truth", f"(or {text} (not {text}))"),
                  ("falsity-test", f"(not (or {text} (not {text})))")]
    return forms


def planned_problems(spec: dict) -> int:
    """Problems a campaign of ``spec`` emits: both polarities of every
    generated question, plus the creative ones."""
    c = spec["creative"]
    stress = c.get("stress", {})
    return (2 * sum(q["count"] for q in spec["questions"].values())
            + c.get("truth", 0) + c.get("falsity", 0)
            + sum(2 if n % 2 else 1 for n in stress.get("chains", ()))
            + 2 * stress.get("tautologies", 0))


def _campaign(spec: dict) -> dict:
    return {
        "wordnet": {"data": {pos: f"wn/data.{pos}" for pos in Lexicon.POS_TAG},
                    "sense_index": "wn/index.sense",
                    "morphosemantic": "wn/morphosemantic.tsv"},
        "mappings": {"noun": "wn/WordNetMappings30-noun.txt",
                     "verb": "wn/WordNetMappings30-verb.txt"},
        "ontology": {"core": "ont/core.kif", "extra": ["ont/domain.kif"]},
        "creative": "creative.kif",
        "stores_dir": "stores",
        "problems_dir": "problems",
        "outputs_dir": "outputs",
        "journal": "journal.ldjson",
        "emit_mode": spec["emit_mode"],
        "prover_cmd": spec["prover_cmd"].replace("{python}", sys.executable),
        "timeout_seconds": spec["timeout_seconds"],
        "jobs": spec["jobs"],
        "builtin_max_clauses": spec["max_clauses"],
        "builtin_max_literals": spec["max_literals"],
    }


def write(files: dict, out: Path) -> None:
    for rel, text in files.items():
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--preset", choices=("paper",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = paper_preset() if args.preset else WORKLOADS[args.workload]
    write(build(args.workload or args.preset, spec, args.seed), args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
