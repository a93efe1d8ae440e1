"""Known answers for generated campaigns.

Each generated core has an intended finite model, written by the
generator to ``answers.json``: one witness element per class, ``instance``
closed upward along ``subclass``, every constant its own element,
and nothing else: ``attribute`` and the role relations are empty.  Planted
disjointness only joins classes without a common descendant, so the model
satisfies every axiom; ``load_model`` makes sure of that before any
verdict is trusted.

A Theorem is wrong when its question is false in the model.  For a
quantifier-free ground question the check is stronger: the core says
nothing about its predicates, so a Theorem must be a propositional
tautology.  Error and NoStatus are failed operations too, and so is a
used axiom that its problem does not contain.

Quantifiers are evaluated by joining the atoms that any satisfying
assignment must make true, so the cost follows the facts, not the domain
size raised to the number of variables.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

from cqeval import kif
from cqeval.kif import (And, Atom, Constant, Equal, Exists, Forall, Function, Iff, Implies,
                        Not, Or, Variable)

SETTLED = ("Theorem", "CounterSatisfiable")
FAILED = ("Error", "NoStatus")
_AXIOM_NAME = re.compile(r"^fof\(\s*([A-Za-z0-9_]+)\s*,\s*axiom\b", re.MULTILINE)
_INCLUDE = re.compile(r"^include\('([^']+)'\)", re.MULTILINE)


class Model:
    """The intended model of one core, built from ``answers.json`` facts."""

    def __init__(self, answers: dict):
        up: dict = {}
        for child, parent in answers["subclass"]:
            up.setdefault(child, []).append(parent)

        def above(c):
            seen, todo = {c}, [c]
            while todo:
                for p in up.get(todo.pop(), ()):
                    if p not in seen:
                        seen.add(p)
                        todo.append(p)
            return seen

        rel: dict = {"subclass": {tuple(e) for e in answers["subclass"]}, "instance": set()}
        for c in answers["classes"]:
            rel["instance"] |= {("w:" + c, a) for a in above(c)}
        for ind, c in answers["instance"]:
            rel["instance"] |= {(ind, a) for a in above(c)}
        self.rel = rel
        self.domain = sorted({x for tuples in rel.values() for t in tuples for x in t})
        self.predicates: set = set()  # those the ontology's axioms use
        self._index: dict = {}

    # -- evaluation ---------------------------------------------------------

    def term(self, t, env):
        if isinstance(t, Variable):
            return env[t.name]
        if isinstance(t, Constant):
            return t.name
        return (t.name,) + tuple(self.term(a, env) for a in t.args)  # free term algebra

    def holds(self, f, env=None) -> bool:
        env = env or {}
        if isinstance(f, Atom):
            return tuple(self.term(a, env) for a in f.args) in self.rel.get(f.predicate, ())
        if isinstance(f, Equal):
            return self.term(f.left, env) == self.term(f.right, env)
        if isinstance(f, Not):
            return not self.holds(f.body, env)
        if isinstance(f, And):
            return all(self.holds(p, env) for p in f.parts)
        if isinstance(f, Or):
            return any(self.holds(p, env) for p in f.parts)
        if isinstance(f, Implies):
            return not self.holds(f.antecedent, env) or self.holds(f.consequent, env)
        if isinstance(f, Iff):
            return self.holds(f.left, env) == self.holds(f.right, env)
        if isinstance(f, Exists):
            return any(self.holds(f.body, e)
                       for e in self._assignments(f.variables, _guards(f.body, True), env))
        if isinstance(f, Forall):
            return all(self.holds(f.body, e)
                       for e in self._assignments(f.variables, _guards(f.body, False), env))
        raise TypeError(f"not a formula: {f!r}")

    def _lookup(self, pred: str, pos: int, value) -> list:
        key = (pred, pos)
        if key not in self._index:
            idx: dict = {}
            for t in self.rel.get(pred, ()):
                if pos < len(t):
                    idx.setdefault(t[pos], []).append(t)
            self._index[key] = idx
        return self._index[key].get(value, [])

    def _assignments(self, variables, guards, env):
        """Every extension of ``env`` over ``variables`` that makes all
        ``guards`` true, plus the whole domain for unguarded variables."""
        env = {k: v for k, v in env.items() if k not in variables}

        def match(i, env):
            if i == len(guards):
                free = [v for v in variables if v not in env]
                for values in itertools.product(self.domain, repeat=len(free)):
                    yield {**env, **dict(zip(free, values))}
                return
            atom = guards[i]
            known = [(pos, self.term(a, env)) for pos, a in enumerate(atom.args)
                     if not (isinstance(a, Variable) and a.name not in env)]
            rows = (self._lookup(atom.predicate, *known[0]) if known
                    else self.rel.get(atom.predicate, ()))
            for row in rows:
                if len(row) != len(atom.args):
                    continue
                new = dict(env)
                for a, value in zip(atom.args, row):
                    if isinstance(a, Variable) and a.name not in new:
                        new[a.name] = value
                    elif self.term(a, new) != value:
                        break
                else:
                    yield from match(i + 1, new)

        yield from match(0, env)


def _variables(atom) -> set:
    out: set = set()

    def walk(t):
        if isinstance(t, Variable):
            out.add(t.name)
        elif isinstance(t, Function):
            for a in t.args:
                walk(a)

    for a in atom.args:
        walk(a)
    return out


def _guards(f, value: bool) -> list:
    """Atoms true under every assignment that gives ``f`` the truth ``value``."""
    if isinstance(f, Atom):
        return [f] if value else []
    if isinstance(f, Not):
        return _guards(f.body, not value)
    if isinstance(f, And) and value:
        return [g for p in f.parts for g in _guards(p, True)]
    if isinstance(f, Or) and not value:
        return [g for p in f.parts for g in _guards(p, False)]
    if isinstance(f, Implies) and not value:
        return _guards(f.antecedent, True) + _guards(f.consequent, False)
    return []


def _children(f) -> tuple:
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, Implies):
        return (f.antecedent, f.consequent)
    if isinstance(f, Iff):
        return (f.left, f.right)
    if isinstance(f, (Forall, Exists)):
        return (f.body,)
    return ()


def _atoms(f) -> list:
    if isinstance(f, (Atom, Equal)):
        return [f]
    return [a for g in _children(f) for a in _atoms(g)]


def _predicates(f) -> set:
    return {a.predicate for a in _atoms(f) if isinstance(a, Atom)}


def _is_ground_qf(f) -> bool:
    if isinstance(f, (Forall, Exists, Equal)):
        return False
    if isinstance(f, Atom):
        return not _variables(f)
    return all(_is_ground_qf(g) for g in _children(f))


def is_tautology(f) -> bool:
    """Truth-table validity of a quantifier-free formula over its atoms."""
    atoms = list(dict.fromkeys(_atoms(f)))
    return all(_eval_prop(f, dict(zip(atoms, values)))
               for values in itertools.product((False, True), repeat=len(atoms)))


def _eval_prop(f, truth) -> bool:
    if isinstance(f, Atom):
        return truth[f]
    if isinstance(f, Not):
        return not _eval_prop(f.body, truth)
    if isinstance(f, And):
        return all(_eval_prop(p, truth) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval_prop(p, truth) for p in f.parts)
    if isinstance(f, Implies):
        return not _eval_prop(f.antecedent, truth) or _eval_prop(f.consequent, truth)
    return _eval_prop(f.left, truth) == _eval_prop(f.right, truth)


# -- campaign-level checks -------------------------------------------------


def load_model(campaign: Path) -> Model:
    """The campaign's intended model, checked against every axiom of its
    ontology files; raises ValueError naming the axioms it violates."""
    model = Model(json.loads((campaign / "answers.json").read_text(encoding="utf-8")))
    cfg = json.loads((campaign / "campaign.json").read_text(encoding="utf-8"))
    bad = []
    for rel in [cfg["ontology"]["core"]] + cfg["ontology"]["extra"]:
        for form in kif.parse_annotated((campaign / rel).read_text(encoding="utf-8")):
            model.predicates |= _predicates(form.formula)
            if not model.holds(kif.universal_closure(form.formula)):
                bad.append(form.annotations.get("label", kif.print_kif(form.formula)))
    if bad:
        raise ValueError(f"intended model violates {bad}")
    return model


def _problem_axioms(path: Path) -> set:
    text = path.read_text(encoding="utf-8")
    names = set(_AXIOM_NAME.findall(text))
    for inc in _INCLUDE.findall(text):
        names |= set(_AXIOM_NAME.findall((path.parent / inc).read_text(encoding="utf-8")))
    return names


def check_journal(model: Model, campaign: Path) -> dict:
    """Statuses of a finished campaign, with every failed operation named.

    Returns ``{"statuses": {status: n}, "failed": [(cq_id, reason)],
    "wrong": [(cq_id, reason)], "walls": [seconds]}``; ``wrong`` lists the
    verdicts that contradict the known answer and is a subset of
    ``failed``.
    """
    cfg = json.loads((campaign / "campaign.json").read_text(encoding="utf-8"))
    corpus_lines = (campaign / cfg["stores_dir"] / "corpus.ldjson").read_text(
        encoding="utf-8").splitlines()[1:]
    questions = {r["id"]: r for r in map(json.loads, corpus_lines)}
    journal = (campaign / cfg["journal"]).read_text(encoding="utf-8")
    records = [json.loads(line) for line in journal.splitlines() if line.strip()]
    statuses: dict = {}
    failed: list = []
    wrong: list = []
    seen = set()
    for rec in records:
        cq_id, szs = rec["cq_id"], rec["szs"]
        seen.add(cq_id)
        statuses[szs] = statuses.get(szs, 0) + 1
        if cq_id not in questions:
            wrong.append((cq_id, "record for a question the corpus does not have"))
            continue
        if szs in FAILED:
            failed.append((cq_id, szs))
            continue
        if szs != "Theorem":
            continue
        problem = campaign / cfg["problems_dir"] / f"{cq_id}.p"
        stray = set(rec.get("used_axioms", ())) - _problem_axioms(problem)
        formula = kif.universal_closure(kif.parse_kif(questions[cq_id]["kif_text"])[0])
        if stray:
            wrong.append((cq_id, f"used axioms not in the problem: {sorted(stray)}"))
        elif (_is_ground_qf(formula) and not _predicates(formula) & model.predicates
              and not is_tautology(formula)):
            wrong.append((cq_id, "Theorem for a formula that is not valid"))
        elif not model.holds(formula):
            wrong.append((cq_id, "Theorem for a question false in the intended model"))
    wrong += [(cq_id, "no journal record") for cq_id in sorted(set(questions) - seen)]
    failed += wrong
    return {"statuses": statuses, "failed": failed, "wrong": wrong,
            "walls": [rec["wall_seconds"] for rec in records]}
