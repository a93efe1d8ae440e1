"""A small saturation prover used as the bundled backend.

Refutation by binary resolution with factoring.  Equality is handled by
axiomatization: reflexivity, symmetry, transitivity plus congruence
clauses for every function and predicate symbol that occurs alongside
``=``.

Clausification takes the negation normal form of each input formula, its
free variables closed universally, from ``kif.nnf``, which states the
polarity rules, and skolemizes and distributes it in one walk: a
universal quantifier binds a fresh variable, and an existential binds a
skolem term over the variables in scope.  Skolem functors are keyed by
ints, so they cannot collide with input names.  Each literal is interned
into the proof attempt's term table as it is met.  The distribution
prunes as it goes: both sides of a product in which either side holds
more than one clause, and its rows, lose repeated literals, tautologies
and repeats of earlier partial clauses.  This yields the clauses that
distributing first and pruning afterwards would keep, in the same order,
so nested ``<=>`` over a few atoms stays small.  A chain of ``<=>`` over
distinct atoms still doubles its clauses with every connective, so such
a chain ends in Timeout: one interval timer bounds each proof attempt,
whatever step it is in.

The search is a given-clause loop of resolution with negative selection:
a clause with a negative literal is eligible only on the first one, in
its own literal order, and a clause with none on every literal.  So each
step joins a clause without negative literals to one with a selected
literal, and no clause pairs with itself.  With factoring, and the
deletion of tautologies and renamings, this is refutationally complete
whichever negative literal is selected: it makes every inference that
ordered resolution with selection (Bachmair and Ganzinger 2001) makes
under any ordering, and it is positive hyper-resolution (Robinson 1965)
one negative literal at a time.  Clauses wait in a queue ordered by
length, then by age.  The given clause joins the processed set, and each
of its eligible literals meets the eligible processed literals of the
same predicate and the opposite sign.  An index files those by predicate
and sign and, for each argument position, by the top symbol there or as
a variable.  A literal looks up its partners at the position where they
are fewest, those with the same top symbol there and those with a
variable there, in processing order, and each pair's atoms are unified.
Then the given clause is factored on any two of its literals.
Resolvents that are tautologies, longer than the literal cap or
renamings of a clause already seen are dropped.  The result counts the
work: given clauses, partner pairs, unifications, derived clauses kept
and duplicates dropped.

Many problems can share their first axioms, which ``tptp.read_problem``
hands over as one ``SharedAxioms``.  While that read lives, ``prove``
keeps the clauses it built from it (their term table, the keyed clauses,
their keys and the count of duplicates dropped), and each attempt
searches a copy.  They are built inside an attempt's interval timer and
kept only once complete.

Terms are interned as ints over a per-run table, so comparing and
hashing terms is O(1), and every walk over a term keeps its own stack,
so deep terms cannot exhaust the interpreter's recursion limit.  A waiting
clause shares its terms with its dedup key.  When it is given it gets
variables of its own, once, so a resolution step renames nothing.

The prover is deliberately modest.  Clause length is capped, and so is
the number of derived clauses kept (input clauses do not count), so a
run that exhausts its queue reports GaveUp rather than
CounterSatisfiable; it never claims a conjecture disprovable.  What it
does guarantee: an empty clause is a genuine refutation (soundness),
and the used-axiom list names exactly the input axioms reachable from
the empty clause's derivation tree.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
import time
import weakref
from heapq import heappop, heappush

from . import kif
from .kif import And, Atom, Constant, Equal, Forall, Formula, Not, Quantifier, Term, Variable
from .tptp import ProverResult, SearchCounts, SharedAxioms, SzsStatus

NEGATED_CONJECTURE = "negated_conjecture"
EQUALITY_ORIGIN = "eq"

# the default limits of a proof attempt, wherever the prover is run
LIMIT_SECONDS = 600.0
MAX_LITERALS = 12
MAX_CLAUSES = 50000


class Clause:
    """Identity-based clause node; parents link the derivation tree.  Its
    literals are interned ints (see ``_Terms``)."""

    __slots__ = ("literals", "origin", "parents")

    def __init__(self, literals, origin=None, parents=()):
        self.literals = tuple(literals)
        self.origin = origin
        self.parents = tuple(parents)


# --------------------------------------------------------------------------
# clausification


def _prune(terms: _Terms, partials) -> list:
    """The first occurrence of each partial clause, without repeated
    literals, unless it is a tautology.  Nothing is lost: a tautology
    extends only to tautologies, and a repeat only to repeats of clauses
    that an earlier partial yields first."""
    out: dict = {}
    for lits in partials:
        unique = tuple(dict.fromkeys(lits))
        if unique not in out and not terms.tautology(unique):
            out[unique] = None
    return list(out)


def _product(terms: _Terms, branches) -> list:
    """Distribute or over and: every clause of the first branch joined
    with every clause of the next, and so on, rows in that order.  Unless
    both sides are single clauses, the sides are pruned before a product
    and its rows as they are made."""
    acc: list = [()]
    for branch in branches:
        if len(acc) == 1 and len(branch) == 1:
            acc = [acc[0] + branch[0]]
        else:
            branch = _prune(terms, branch)
            rows = (a + b for a in _prune(terms, acc) for b in branch)
            acc = _prune(terms, rows)
    return acc


def clausify(f: Formula, origin, terms: _Terms) -> list:
    """Clauses for one formula, its free variables read universally, with
    literals interned into ``terms``: its negation normal form, skolemized
    and distributed; tautologies and repeats dropped, each clause without
    repeated literals."""

    def cnf(g: Formula, env: dict, universals: tuple) -> list:
        """The clauses of ``g``, in negation normal form, as distributing
        it gives them."""
        positive = not isinstance(g, Not)  # a not holds an atom or equation here
        if isinstance(g, (Atom, Equal)) or not positive:
            name, args = kif._relation(g if positive else g.body)
            ids = tuple(terms.from_kif(a, env) for a in args)
            return [(2 * terms.make(terms.symbol(name, len(ids)), ids) + positive,)]
        if isinstance(g, Quantifier):
            env = dict(env)
            if isinstance(g, Forall):
                bound = tuple(terms.var() for _ in g.variables)
                env.update(zip(g.variables, bound))
                universals += bound
            else:
                for v in g.variables:
                    env[v] = terms.make(terms.skolem(len(universals)), universals)
            return cnf(g.body, env, universals)
        parts = (cnf(p, env, universals) for p in g.parts)
        if isinstance(g, And):
            return [c for p in parts for c in p]
        return _product(terms, parts)

    clauses = cnf(kif.nnf(kif.universal_closure(f)), {}, ())
    return [Clause(lits, origin=origin) for lits in _prune(terms, clauses)]


# --------------------------------------------------------------------------
# interned terms
#
# Inside ``prove`` a term is an int.  A variable is negative: the even
# ones (-2, -4, ...) are fresh from the table, one per quantifier binding
# during clausification and a set per processed clause, and the odd ones
# (-1, -3, ...) number the variables of a clause that is being built or
# keyed or that waits in the queue.  Any other term is an index into the
# table of one ``_Terms``, which holds each distinct (functor, child ids)
# once, so two terms are equal exactly when their ids are.  A literal is the int ``2 * atom + positive``, where the atom is a
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
    """Hash-consed term table of one proof attempt, or of the kept clauses
    of a ``SharedAxioms``, which attempts copy."""

    def __init__(self):
        self.symbols: dict = {}  # (name, arity, or None for a constant) -> functor;
        # a skolem functor's name is an int
        self.ids: dict = {}  # (functor, child ids) -> term
        self.functor: list = []
        self.args: list = []
        self.ground: list = []
        self.shapes: dict = {}  # term -> the term with every variable as -1
        self.nvars = 0

    def copy(self) -> _Terms:
        other = _Terms()
        other.symbols, other.ids, other.shapes = dict(self.symbols), dict(self.ids), dict(self.shapes)
        other.functor, other.args, other.ground = list(self.functor), list(self.args), list(self.ground)
        other.nvars = self.nvars
        return other

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

    def symbol(self, name, arity) -> int:
        return self.symbols.setdefault((name, arity), len(self.symbols))

    def skolem(self, arity: int) -> int:
        """A functor of its own, keyed by an int name, which no input
        symbol has."""
        return self.symbol(len(self.symbols), arity)

    def from_kif(self, t: Term, env: dict) -> int:
        """Intern a kif term whose variables ``env`` maps to terms."""
        done: list = []
        stack = [(t, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, Variable):
                done.append(env[node.name])
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


def equality_clauses(terms: _Terms, clauses) -> list:
    """Reflexivity, symmetry, transitivity and congruence for the function
    and predicate symbols of ``clauses``, over the same table; empty when
    no equality literal occurs there.  Congruence clauses follow the
    symbols' names, skolem functors last in the order they were made."""
    functor, args = terms.functor, terms.args
    eq = terms.symbols.get(("=", 2))
    if eq is None:
        return []
    atoms = {l >> 1 for c in clauses for l in c.literals}
    if all(functor[a] != eq for a in atoms):
        return []
    predicates = {functor[a] for a in atoms if functor[a] != eq and args[a]}
    functions: set = set()
    stack = [t for a in atoms for t in args[a]]
    seen: set = set()
    while stack:
        t = stack.pop()
        if t >= 0 and args[t] and t not in seen:
            seen.add(t)
            functions.add(functor[t])
            stack.extend(args[t])
    keys = {f: key for key, f in terms.symbols.items()}

    def by_name(f):
        return not isinstance(keys[f][0], str), keys[f]

    def equal(a, b, positive):
        return 2 * terms.make(eq, (a, b)) + positive

    def congruence(f, function: bool) -> list:
        arity = keys[f][1]
        xs = tuple(terms.var() for _ in range(arity))
        ys = tuple(terms.var() for _ in range(arity))
        lits = [equal(a, b, 0) for a, b in zip(xs, ys)]
        if function:
            return lits + [equal(terms.make(f, xs), terms.make(f, ys), 1)]
        return lits + [2 * terms.make(f, xs), 2 * terms.make(f, ys) + 1]

    x, y, z = terms.var(), terms.var(), terms.var()
    out = [[equal(x, x, 1)], [equal(x, y, 0), equal(y, x, 1)],
           [equal(x, y, 0), equal(y, z, 0), equal(x, z, 1)]]
    out += [congruence(f, True) for f in sorted(functions, key=by_name)]
    out += [congruence(f, False) for f in sorted(predicates, key=by_name)]
    return [Clause(lits, origin=EQUALITY_ORIGIN) for lits in out]


# --------------------------------------------------------------------------
# input clauses


class _Input:
    """The clauses a search starts from, each clausified formula keyed as
    it is added, so that the order of terms in the table depends only on
    the order of the formulas; renamings of a clause already in are
    dropped and counted."""

    def __init__(self):
        self.terms = _Terms()
        self.queue: list = []  # heap of (length, age, clause)
        self.known: set = set()  # the keys of every clause queued
        self.dedup_hits = 0

    def add(self, clauses) -> None:
        terms, known, queue = self.terms, self.known, self.queue
        for c in clauses:
            key, c.literals = terms.canonical(c.literals)
            if key in known:
                self.dedup_hits += 1
                continue
            known.add(key)
            heappush(queue, (len(c.literals), len(queue), c))

    def copy(self) -> _Input:
        """An input of its own over the same clauses, which a search only
        reads."""
        other = _Input()
        other.terms, other.queue, other.known = self.terms.copy(), list(self.queue), set(self.known)
        other.dedup_hits = self.dedup_hits
        return other


_built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # SharedAxioms -> its complete _Input


def _start(axioms) -> tuple:
    """The input a search starts from, and the axioms left to add to it:
    for axioms led by a ``SharedAxioms``, a copy of the clauses of its
    axioms, built and kept first if need be."""
    if not (axioms and isinstance(axioms[0], SharedAxioms)):
        return _Input(), axioms
    read = axioms[0]
    built = _built.get(read)
    if built is None:
        built = _Input()
        for label, f in read.axioms:
            built.add(clausify(f, label, built.terms))
        _built[read] = built
    return built.copy(), axioms[1:]


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


class _Timeout(Exception):
    """The interval timer of a proof attempt went off."""


def _expire(signum, frame):
    raise _Timeout


def prove(
    axioms,
    conjecture: Formula,
    limit_seconds: float = LIMIT_SECONDS,
    max_literals: int = MAX_LITERALS,
    max_clauses: int = MAX_CLAUSES,
) -> ProverResult:
    """Refute the negated conjecture against labeled axioms.

    ``axioms`` is a sequence of (label, formula), as ``tptp.read_problem``
    returns it: a leading ``SharedAxioms`` stands for its axioms.  Each
    axiom is clausified and keyed in turn, then the negated conjecture,
    then the equality axioms that these clauses call for.  So an attempt
    that starts from the kept clauses of a ``SharedAxioms`` makes the same
    terms in the same order as one given all of its axioms, and ends in
    the same status, used axioms and counts.  Returns Theorem with
    the axiom labels used, GaveUp when the clause queue empties or more
    than ``max_clauses`` derived clauses have been kept, or Timeout when
    the real-time interval timer set to ``limit_seconds`` goes off (at once
    for a limit that is not positive; one too long for the timer sets
    none).  The result carries the search counts.  ``prove`` must run in
    the main thread, where SIGALRM is handled; it leaves no timer armed.
    """
    start = time.monotonic()
    given_count = pair_count = unifications = derived = dedup_hits = 0

    def search() -> tuple:
        """The status the search ends in, and the empty clause it derived."""
        nonlocal given_count, pair_count, unifications, derived, dedup_hits
        initial, rest = _start(axioms)
        terms = initial.terms
        for label, f in rest:
            initial.add(clausify(f, label, terms))
        initial.add(clausify(Not(kif.universal_closure(conjecture)), NEGATED_CONJECTURE, terms))
        initial.add(equality_clauses(terms, (c for _, _, c in initial.queue)))
        heap, known, dedup_hits = initial.queue, initial.known, initial.dedup_hits
        order = itertools.count(len(heap))  # ties in the queue go to the older clause

        # Processed clauses, literals renamed apart, in processing order; the
        # index files each eligible literal as ``position * width + index``.
        processed: list = []
        width = max([max_literals] + [n for n, _, _ in heap])
        index = _LiteralIndex(terms)

        while heap:
            _, _, given = heappop(heap)
            given_count += 1
            glits = terms.rename(given.literals)
            # the first negative literal, or every literal of a clause with none
            eligible = next(((i,) for i, l in enumerate(glits) if not l & 1), range(len(glits)))

            # Partners by processing order, then given literal, then partner
            # literal: the order in which pairing every processed clause meets them.
            pairs = [(e // width, i, e % width) for i in eligible for e in index.partners(glits[i])]
            if len(eligible) > 1:
                pairs.sort()
            pair_count += len(pairs)
            here = len(processed)
            processed.append((given, glits))
            for i in eligible:
                index.add(glits[i], here * width + i)
            new_lits: list = []
            for p, i, j in pairs:
                partner, plits = processed[p]
                subst = terms.unify(glits[i] >> 1, plits[j] >> 1)
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
                    return SzsStatus.THEOREM, Clause((), parents=parents)
                heappush(heap, (len(lits), next(order), Clause(lits, parents=parents)))
                derived += 1
                if derived > max_clauses:
                    return SzsStatus.GAVE_UP, None

        return SzsStatus.GAVE_UP, None

    status, empty = SzsStatus.TIMEOUT, None
    if limit_seconds > 0:
        previous = signal.signal(signal.SIGALRM, _expire)
        try:
            try:
                with contextlib.suppress(OverflowError):  # too long for the timer
                    signal.setitimer(signal.ITIMER_REAL, limit_seconds)
                status, empty = search()
            finally:  # signal.signal raises a pending expiry before changing the handler
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        except _Timeout:
            signal.signal(signal.SIGALRM, previous)  # one-shot: nothing is pending now
            status, empty = SzsStatus.TIMEOUT, None
    used = () if empty is None else _used_axioms(empty)
    counts = SearchCounts(given_count, pair_count, unifications, derived, dedup_hits)
    return ProverResult(status, time.monotonic() - start, used, search=counts)
