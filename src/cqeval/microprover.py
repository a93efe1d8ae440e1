"""A small saturation prover used as the bundled backend.

Refutation by binary resolution with factoring over clauses obtained
from negation normal form, inline skolemization and or-over-and
distribution.  Equality is handled by axiomatization: reflexivity,
symmetry, transitivity plus congruence clauses for every function and
predicate symbol that occurs alongside ``=``.

The distribution prunes as it goes (Nonnengart & Weidenbach, "Computing
Small Clause Normal Forms", 2001): before a product in which either side
holds more than one clause, each side loses repeated literals,
tautologies and repeats of earlier partial clauses.  This yields the
clauses that distributing first and pruning afterwards would keep, in
the same order, so nested ``<=>`` over a few atoms stays small.  A chain
of ``<=>`` over distinct atoms still doubles its clauses with every
connective; the deadline is checked between input formulas and once per
row of each product, so such a chain ends in Timeout.

The search is a given-clause loop.  Clauses wait in a queue ordered by
length, then by age.  The given clause joins the processed set and is
resolved with the processed clauses that have a literal of the same
predicate and the opposite sign.  An index files processed literals by
predicate and sign and, for each argument position, by the top symbol
there or as a variable.  Each literal of the given clause looks up its
partners at the argument position where they are fewest: those with the
same top symbol there, and those with a variable there.  Partners are
met in processing order; a pair whose other arguments clash on their top
symbols, or are distinct ground terms, is dropped before unification.
Then the given clause is factored.  Resolvents that are tautologies,
longer than the literal cap or renamings of a clause already seen are
dropped.  The result counts the work: given clauses, partner pairs,
unifications, derived clauses kept and duplicates dropped.

Terms are interned: ``prove`` converts the clausified input once into
ints over a per-run table, so comparing and hashing terms is O(1), and
every walk over a term keeps its own stack, so deep terms cannot exhaust
the interpreter's recursion limit.  A waiting clause shares its terms
with its dedup key.  When it is given it gets variables of its own, once,
so a resolution step renames nothing; only a given clause resolving with
itself takes a copy.

The prover is deliberately modest.  Clause length is capped, and so is
the number of derived clauses kept (input clauses do not count), so a
run that exhausts its queue reports GaveUp rather than
CounterSatisfiable; it never claims a conjecture disprovable.  What it
does guarantee: an empty clause is a genuine refutation (soundness),
and the used-axiom list names exactly the input axioms reachable from
the empty clause's derivation tree.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from dataclasses import dataclass
from heapq import heappop, heappush

from . import kif
from .kif import (
    And, Atom, Constant, Equal, Exists, Forall, Formula, Function, Not, Or,
    Term, Variable,
)
from .tptp import ProverResult, SearchCounts, SzsStatus

NEGATED_CONJECTURE = "negated_conjecture"
EQUALITY_ORIGIN = "eq"


@dataclass(frozen=True)
class Literal:
    positive: bool
    predicate: str  # "=" for equality
    args: tuple[Term, ...]

    def __str__(self):
        if self.predicate == "=" and len(self.args) == 2:
            core = f"{_term_str(self.args[0])} = {_term_str(self.args[1])}"
        else:
            inner = ", ".join(_term_str(a) for a in self.args)
            core = f"{self.predicate}({inner})" if inner else self.predicate
        return core if self.positive else "~" + core


def _term_str(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Constant):
        return t.name
    inner = ", ".join(_term_str(a) for a in t.args)
    return f"{t.name}({inner})" if inner else t.name


class Clause:
    """Identity-based clause node; parents link the derivation tree.

    ``clausify`` gives ``Literal`` objects; inside ``prove`` the literals
    are interned ints (see ``_Terms``)."""

    __slots__ = ("literals", "origin", "parents")

    def __init__(self, literals, origin=None, parents=()):
        self.literals = tuple(literals)
        self.origin = origin
        self.parents = tuple(parents)

    def __str__(self):
        return " | ".join(str(l) for l in self.literals) if self.literals else "<empty>"


# --------------------------------------------------------------------------
# clausification


class _Fresh:
    """Name supply and deadline shared across one problem's clausification."""

    def __init__(self, skolem_start: int = 1, deadline: float = math.inf):
        self.var_counter = 0
        self.skolem_counter = skolem_start
        self.deadline = deadline

    def variable(self, base: str) -> str:
        self.var_counter += 1
        return f"{base}_{self.var_counter}"

    def skolem(self) -> str:
        name = f"sk{self.skolem_counter}"
        self.skolem_counter += 1
        return name


_SKOLEM_RE = re.compile(r"^sk(\d+)$")


def skolem_floor(formulas) -> int:
    """First free skN index given symbols already present in the input."""
    top = 0
    for f in formulas:
        for sym in kif.symbols(f):
            m = _SKOLEM_RE.match(sym)
            if m:
                top = max(top, int(m.group(1)))
    return top + 1


def _subst_term(t: Term, env: dict) -> Term:
    if isinstance(t, Variable):
        return env.get(t.name, t)
    if isinstance(t, Function):
        return Function(t.name, tuple(_subst_term(a, env) for a in t.args))
    return t


def _skolemize(f: Formula, env: dict, universals: tuple, fresh: _Fresh, used: set) -> Formula:
    """NNF in, quantifier-free matrix out.  Universal variables are renamed
    apart (so dropping the quantifiers is sound even under disjunction) and
    existential ones replaced by skolem terms over the universals in scope."""
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(_subst_term(a, env) for a in f.args))
    if isinstance(f, Equal):
        return Equal(_subst_term(f.left, env), _subst_term(f.right, env))
    if isinstance(f, Not):
        return Not(_skolemize(f.body, env, universals, fresh, used))
    if isinstance(f, And):
        return And(tuple(_skolemize(p, env, universals, fresh, used) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_skolemize(p, env, universals, fresh, used) for p in f.parts))
    if isinstance(f, Forall):
        inner = dict(env)
        new_universals = list(universals)
        for v in f.variables:
            name = v if v not in used else fresh.variable(v)
            used.add(name)
            var = Variable(name)
            inner[v] = var
            new_universals.append(var)
        return _skolemize(f.body, inner, tuple(new_universals), fresh, used)
    if isinstance(f, Exists):
        inner = dict(env)
        for v in f.variables:
            inner[v] = Function(fresh.skolem(), universals)
        return _skolemize(f.body, inner, universals, fresh, used)
    raise TypeError(f"clausifier expects NNF, found {type(f).__name__}")


class _Deadline(Exception):
    """Clausification ran past the deadline of its proof attempt."""


def _matrix_to_clauses(f: Formula, deadline: float) -> list:
    """Distribute or over and; returns lists of literals.  A product in
    which either side holds more than one clause prunes both sides first
    (see ``_prune``) and checks ``deadline`` once per row."""
    if isinstance(f, Atom):
        return [[Literal(True, f.predicate, f.args)]]
    if isinstance(f, Equal):
        return [[Literal(True, "=", (f.left, f.right))]]
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Atom):
            return [[Literal(False, g.predicate, g.args)]]
        if isinstance(g, Equal):
            return [[Literal(False, "=", (g.left, g.right))]]
        raise TypeError("negation below NNF reached clausifier")
    if isinstance(f, And):
        out = []
        for p in f.parts:
            out.extend(_matrix_to_clauses(p, deadline))
        return out
    if isinstance(f, Or):
        acc: list = [[]]
        for p in f.parts:
            branch = _matrix_to_clauses(p, deadline)
            if len(acc) == 1 and len(branch) == 1:
                acc = [acc[0] + branch[0]]
                continue
            acc, branch = _prune(acc, deadline), _prune(branch, deadline)
            product: list = []
            for a in acc:
                if time.monotonic() > deadline:
                    raise _Deadline
                product += [a + b for b in branch]
            acc = product
        return acc
    raise TypeError(f"unexpected node in matrix: {type(f).__name__}")


def _prune(partials, deadline: float) -> list:
    """The first occurrence of each partial clause, without repeated
    literals, unless it is a tautology.  Nothing is lost: a tautology
    extends only to tautologies, and a repeat only to repeats of clauses
    that an earlier partial yields first.  Checks ``deadline`` once per
    partial."""
    out: dict = {}
    for lits in partials:
        if time.monotonic() > deadline:
            raise _Deadline
        unique = tuple(dict.fromkeys(lits))
        if unique not in out and not _is_tautology(unique):
            out[unique] = None
    return [list(u) for u in out]  # lists, as the leaves are, so that a + b works


def _is_tautology(lits) -> bool:
    pos = {(l.predicate, l.args) for l in lits if l.positive}
    for l in lits:
        if not l.positive and (l.predicate, l.args) in pos:
            return True
        if l.positive and l.predicate == "=" and l.args[0] == l.args[1]:
            return True
    return False


def clausify(f: Formula, origin, fresh: _Fresh) -> list:
    """Clauses for one closed formula, tautologies and repeats dropped, each
    without repeated literals.  Raises ``_Deadline`` past ``fresh.deadline``."""
    if time.monotonic() > fresh.deadline:
        raise _Deadline
    matrix = _skolemize(kif.nnf(kif.universal_closure(f)), {}, (), fresh, set())
    return [Clause(lits, origin=origin)
            for lits in _prune(_matrix_to_clauses(matrix, fresh.deadline), fresh.deadline)]


# --------------------------------------------------------------------------
# interned terms
#
# Inside ``prove`` a term is an int.  A variable is negative: the even
# ones (-2, -4, ...) belong to processed clauses, a fresh set per clause,
# and the odd ones (-1, -3, ...) number the variables of a clause that is
# being built or keyed or that waits in the queue.  Any other term is an
# index into the table of one ``_Terms``, which holds each distinct
# (functor, child ids) once, so two terms are equal exactly when their ids
# are.  A literal is the int ``2 * atom + positive``, where the atom is a
# term whose functor is the predicate.  Every walk below keeps its own
# stack, so term depth is bounded by memory, not by the interpreter's
# recursion limit.


def _numbering():
    """Variable supply for a clause being built or keyed: -1, -3, -5, ..."""
    count = itertools.count()
    return lambda: -2 * next(count) - 1


def _wildcard():
    return -1


class _Terms:
    """Hash-consed term table of one proof attempt."""

    def __init__(self):
        self.symbols: dict = {}  # (name, arity, or None for a constant) -> functor
        self.ids: dict = {}  # (functor, child ids) -> term
        self.functor: list = []
        self.args: list = []
        self.ground: list = []
        self.shapes: dict = {}  # term -> the term with every variable as -1
        self.nvars = 0

    def var(self) -> int:
        self.nvars += 1
        return -2 * self.nvars

    def make(self, functor: int, args: tuple) -> int:
        key = (functor, args)
        t = self.ids.get(key)
        if t is None:
            ground = self.ground
            t = self.ids[key] = len(ground)
            self.functor.append(functor)
            self.args.append(args)
            ground.append(all(a >= 0 and ground[a] for a in args))
        return t

    def symbol(self, name: str, arity) -> int:
        return self.symbols.setdefault((name, arity), len(self.symbols))

    def from_kif(self, t: Term, names: dict, fresh) -> int:
        """Intern a kif term; ``names`` maps variable names to variables
        and takes ``fresh()`` for each name it has not seen."""
        done: list = []
        stack = [(t, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, Variable):
                if node.name not in names:
                    names[node.name] = fresh()
                done.append(names[node.name])
            elif isinstance(node, Constant):
                done.append(self.make(self.symbol(node.name, None), ()))
            elif expanded:
                n = len(node.args)
                kids = tuple(done[len(done) - n:])
                del done[len(done) - n:]
                done.append(self.make(self.symbol(node.name, n), kids))
            else:
                stack.append((node, True))
                stack.extend((a, False) for a in reversed(node.args))
        return done[0]

    def literal(self, lit: Literal, names: dict, fresh) -> int:
        args = tuple(self.from_kif(a, names, fresh) for a in lit.args)
        return 2 * self.make(self.symbol(lit.predicate, len(args)), args) + lit.positive

    def _occurs(self, v: int, t: int, subst: dict) -> bool:
        args, ground = self.args, self.ground
        stack, seen = [t], set()
        while stack:
            u = stack.pop()
            while u < 0 and u in subst:
                u = subst[u]
            if u < 0:
                if u == v:
                    return True
            elif not ground[u] and u not in seen:
                seen.add(u)
                stack.extend(args[u])
        return False

    def unify(self, a: int, b: int):
        """Most general unifier as a dict from variable to term, or None;
        occurs check included."""
        functor, args, ground = self.functor, self.args, self.ground
        subst: dict = {}
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            while x < 0 and x in subst:
                x = subst[x]
            while y < 0 and y in subst:
                y = subst[y]
            if x == y:
                continue
            if x < 0:
                if y >= 0 and not ground[y] and self._occurs(x, y, subst):
                    return None
                subst[x] = y
            elif y < 0:
                if not ground[x] and self._occurs(y, x, subst):
                    return None
                subst[y] = x
            elif functor[x] != functor[y] or (ground[x] and ground[y]):
                return None  # distinct symbols, or distinct ground terms
            else:
                stack.extend(zip(args[x], args[y]))
        return subst

    def apply(self, t: int, subst: dict, memo: dict, fresh) -> int:
        """``t`` with ``subst`` applied throughout and each variable it
        leaves unbound replaced by ``fresh()``.  ``memo`` maps finished
        input terms to their images; calls that share it share one
        variable map."""
        functor, args, ground = self.functor, self.args, self.ground
        if t >= 0 and ground[t]:
            return t
        stack = [t]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
            elif u < 0:
                v = subst.get(u)
                if v is None:
                    memo[u] = fresh()
                elif v >= 0 and ground[v]:
                    memo[u] = v
                elif v in memo:
                    memo[u] = memo[v]
                else:
                    stack.append(v)
                    continue
                stack.pop()
            else:
                todo = [a for a in args[u] if (a < 0 or not ground[a]) and a not in memo]
                if todo:
                    stack.extend(todo)
                    continue
                kids = tuple(a if a >= 0 and ground[a] else memo[a] for a in args[u])
                memo[u] = self.make(functor[u], kids)
                stack.pop()
        return memo[t]

    def apply_lit(self, lit: int, subst: dict, memo: dict, fresh) -> int:
        return 2 * self.apply(lit >> 1, subst, memo, fresh) + (lit & 1)

    def instance(self, lits, subst: dict) -> list:
        """The literals under ``subst``, duplicates dropped, with their
        remaining variables numbered."""
        memo: dict = {}
        fresh = _numbering()
        return list(dict.fromkeys(self.apply_lit(l, subst, memo, fresh) for l in lits))

    def clash(self, a: int, b: int) -> bool:
        """Whether two atoms of one predicate have an argument pair that
        cannot unify on its face: distinct top symbols, or distinct ground
        terms."""
        functor, ground = self.functor, self.ground
        for x, y in zip(self.args[a], self.args[b]):
            if x != y and x >= 0 and y >= 0 and (
                functor[x] != functor[y] or (ground[x] and ground[y])
            ):
                return True
        return False

    def pred_sign(self, lit: int) -> int:
        """``2 * predicate + positive``; its complement is ``^ 1``."""
        return 2 * self.functor[lit >> 1] + (lit & 1)

    def rename(self, lits) -> tuple:
        """The clause over variables of its own, fresh from this table."""
        memo: dict = {}
        return tuple(self.apply_lit(l, {}, memo, self.var) for l in lits)

    def tautology(self, lits) -> bool:
        present = set(lits)
        eq = self.symbols.get(("=", 2))
        for l in lits:
            if l & 1:
                atom = l >> 1
                if self.functor[atom] == eq and self.args[atom][0] == self.args[atom][1]:
                    return True
            elif l + 1 in present:
                return True
        return False

    def canonical(self, lits) -> tuple:
        """(key, clause): the dedup key, and the clause in its own literal
        order over the key's variables, so the two share their terms.  Keys
        are equal exactly when one clause is a renaming of the other with
        the same literal order among literals of equal shape (sign,
        predicate and arguments with variables blurred)."""
        ground = self.ground
        if all(ground[l >> 1] for l in lits):
            return tuple(sorted(lits)), tuple(lits)
        shapes = self.shapes
        order = sorted(lits, key=lambda l: (self.apply(l >> 1, {}, shapes, _wildcard), l & 1))
        memo: dict = {}
        fresh = _numbering()
        key = tuple(self.apply_lit(l, {}, memo, fresh) for l in order)
        return key, tuple(self.apply_lit(l, {}, memo, fresh) for l in lits)


_VARIABLE = -1  # the top-symbol key of a variable argument; functors are >= 0


class _LiteralIndex:
    """Processed literals by predicate and sign and, for each argument
    position, by the top symbol there (top-symbol indexing, McCune 1992).

    Each literal is an int entry chosen by the caller; every bucket lists
    its entries in the order they were added."""

    def __init__(self, terms: _Terms):
        self.terms = terms
        self.buckets: dict = {}  # pred_sign -> (entries, [{symbol: entries} per position])

    def add(self, lit: int, entry: int) -> None:
        terms = self.terms
        key = terms.pred_sign(lit)
        args = terms.args[lit >> 1]
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = ([], [{} for _ in args])
        bucket[0].append(entry)
        functor = terms.functor
        for by_symbol, a in zip(bucket[1], args):
            by_symbol.setdefault(functor[a] if a >= 0 else _VARIABLE, []).append(entry)

    def partners(self, lit: int):
        """Entries, in order, of the literals of opposite sign whose atoms
        may unify with ``lit``'s.  Of ``lit``'s non-variable arguments, the
        one with the fewest partners (same top symbol or a variable there)
        decides; a literal with none takes every literal of its predicate."""
        terms = self.terms
        bucket = self.buckets.get(terms.pred_sign(lit) ^ 1)
        if bucket is None:
            return ()
        everything, positions = bucket
        best, fewest = None, len(everything)
        functor = terms.functor
        for by_symbol, a in zip(positions, terms.args[lit >> 1]):
            if a >= 0:
                same = by_symbol.get(functor[a], ())
                var = by_symbol.get(_VARIABLE, ())
                if len(same) + len(var) < fewest:
                    best, fewest = (same, var), len(same) + len(var)
        if best is None:
            return everything
        same, var = best
        return sorted(same + var) if same and var else same or var


# --------------------------------------------------------------------------
# equality axioms


def _collect_signature(clauses):
    functions: set = set()
    predicates: set = set()
    has_eq = False

    def walk(t: Term):
        if isinstance(t, Function):
            functions.add((t.name, len(t.args)))
            for a in t.args:
                walk(a)

    for c in clauses:
        for l in c.literals:
            if l.predicate == "=":
                has_eq = True
            else:
                predicates.add((l.predicate, len(l.args)))
            for a in l.args:
                walk(a)
    return has_eq, functions, predicates


def equality_clauses(clauses) -> list:
    """Reflexivity, symmetry, transitivity and congruence for the problem
    signature; empty when no equality literal occurs."""
    has_eq, functions, predicates = _collect_signature(clauses)
    if not has_eq:
        return []
    X, Y, Z = Variable("EQX"), Variable("EQY"), Variable("EQZ")
    out = [
        Clause([Literal(True, "=", (X, X))], origin=EQUALITY_ORIGIN),
        Clause(
            [Literal(False, "=", (X, Y)), Literal(True, "=", (Y, X))],
            origin=EQUALITY_ORIGIN,
        ),
        Clause(
            [
                Literal(False, "=", (X, Y)),
                Literal(False, "=", (Y, Z)),
                Literal(True, "=", (X, Z)),
            ],
            origin=EQUALITY_ORIGIN,
        ),
    ]
    for name, arity in sorted(functions):
        if arity == 0:
            continue
        xs = tuple(Variable(f"EQA{i}") for i in range(arity))
        ys = tuple(Variable(f"EQB{i}") for i in range(arity))
        lits = [Literal(False, "=", (x, y)) for x, y in zip(xs, ys)]
        lits.append(Literal(True, "=", (Function(name, xs), Function(name, ys))))
        out.append(Clause(lits, origin=EQUALITY_ORIGIN))
    for name, arity in sorted(predicates):
        if arity == 0:
            continue
        xs = tuple(Variable(f"EQA{i}") for i in range(arity))
        ys = tuple(Variable(f"EQB{i}") for i in range(arity))
        lits = [Literal(False, "=", (x, y)) for x, y in zip(xs, ys)]
        lits.append(Literal(False, name, xs))
        lits.append(Literal(True, name, ys))
        out.append(Clause(lits, origin=EQUALITY_ORIGIN))
    return out


# --------------------------------------------------------------------------
# saturation


def _used_axioms(empty: Clause) -> tuple:
    labels: set = set()
    stack = [empty]
    seen: set = set()
    while stack:
        c = stack.pop()
        if id(c) in seen:
            continue
        seen.add(id(c))
        if c.parents:
            stack.extend(c.parents)
        elif c.origin not in (None, EQUALITY_ORIGIN, NEGATED_CONJECTURE):
            labels.add(c.origin)
    return tuple(sorted(labels))


def prove(
    axioms,
    conjecture: Formula,
    limit_seconds: float = 600.0,
    max_literals: int = 12,
    max_clauses: int = 50000,
) -> ProverResult:
    """Refute the negated conjecture against labeled axioms.

    ``axioms`` is an iterable of (label, formula).  Returns Theorem with
    the axiom labels used, Timeout past ``limit_seconds`` (clausification
    included), or GaveUp when
    the clause queue empties or more than ``max_clauses`` derived clauses
    have been kept.  The result carries the search counts.
    """
    start = time.monotonic()
    deadline = start + limit_seconds
    seq = given_count = pair_count = unifications = derived = dedup_hits = 0

    def finish(status, empty=None):
        search = SearchCounts(given_count, pair_count, unifications, derived, dedup_hits)
        used = () if empty is None else _used_axioms(empty)
        return ProverResult(szs=status, wall_seconds=time.monotonic() - start,
                            used_axioms=used, search=search)

    formulas = [f for _, f in axioms] + [conjecture]
    fresh = _Fresh(skolem_floor(formulas), deadline)
    initial: list = []
    try:
        for label, f in axioms:
            initial.extend(clausify(f, label, fresh))
        initial.extend(clausify(Not(kif.universal_closure(conjecture)), NEGATED_CONJECTURE, fresh))
    except _Deadline:
        return finish(SzsStatus.TIMEOUT)
    initial.extend(equality_clauses(initial))

    terms = _Terms()
    heap: list = []
    known: set = set()

    for c in initial:
        if not c.literals:
            return finish(SzsStatus.THEOREM, empty=c)
        names: dict = {}
        var = _numbering()
        key, lits = terms.canonical([terms.literal(l, names, var) for l in c.literals])
        if key in known:
            dedup_hits += 1
            continue
        known.add(key)
        heappush(heap, (len(lits), seq, Clause(lits, origin=c.origin)))
        seq += 1

    # Processed clauses in processing order; the index files each of their
    # literals as ``processing position * width + literal index``.
    processed: list = []
    width = max([max_literals] + [len(c.literals) for c in initial])
    index = _LiteralIndex(terms)

    while heap:
        if time.monotonic() > deadline:
            return finish(SzsStatus.TIMEOUT)
        _, _, given = heappop(heap)
        given_count += 1
        given.literals = glits = terms.rename(given.literals)
        here = len(processed)
        processed.append(given)
        for j, l in enumerate(glits):
            index.add(l, here * width + j)

        # Partners by processing order, then given literal, then partner
        # literal: the order in which pairing every processed clause would
        # meet them.
        pairs = [
            (e // width, i, e % width)
            for i, l in enumerate(glits)
            for e in index.partners(l)
        ]
        if len(glits) > 1:
            pairs.sort()
        pair_count += len(pairs)
        copy = None
        new_lits: list = []
        for p, i, j in pairs:
            if time.monotonic() > deadline:
                return finish(SzsStatus.TIMEOUT)
            partner = processed[p]
            plits = partner.literals
            if partner is given:
                if copy is None:
                    copy = terms.rename(glits)
                plits = copy
            a, b = glits[i] >> 1, plits[j] >> 1
            subst = None if terms.clash(a, b) else terms.unify(a, b)
            if subst is not None:
                unifications += 1
                rest = glits[:i] + glits[i + 1:] + plits[:j] + plits[j + 1:]
                new_lits.append((terms.instance(rest, subst), (given, partner)))
        for i, a in enumerate(glits):
            for j in range(i + 1, len(glits)):
                b = glits[j]
                if terms.pred_sign(a) != terms.pred_sign(b):
                    continue
                subst = terms.unify(a >> 1, b >> 1)
                if subst is not None:
                    rest = glits[:j] + glits[j + 1:]
                    new_lits.append((terms.instance(rest, subst), (given,)))

        for lits, parents in new_lits:
            if len(lits) > max_literals or terms.tautology(lits):
                continue
            key, lits = terms.canonical(lits)
            if key in known:
                dedup_hits += 1
                continue
            known.add(key)
            if not lits:
                return finish(SzsStatus.THEOREM, empty=Clause((), parents=parents))
            heappush(heap, (len(lits), seq, Clause(lits, parents=parents)))
            seq += 1
            derived += 1
            if derived > max_clauses:
                return finish(SzsStatus.GAVE_UP)

    return finish(SzsStatus.GAVE_UP)
