"""The built-in saturation prover, checked against a ground-enumeration
oracle on problems small enough to decide exactly."""

import collections
import itertools
import random
import shutil
import signal
import sys
import time

import pytest

import genformulas
import oracles
from conftest import run_cli, write_config
from cqeval import kif, microprover, tptp
from cqeval.kif import (
    And, Atom, Constant, Equal, Exists, Forall, Function, Iff, Implies, Not, Or, Variable,
)
from cqeval.microprover import clausify, equality_clauses, prove, _Terms
from cqeval.tptp import ProverResult, SearchCounts, SzsStatus


def _parse(src):
    return kif.parse_kif(src)[0]


# --------------------------------------------------------------------------
# unification


def _interned(*kif_terms):
    terms = _Terms()
    names = collections.defaultdict(terms.var)
    return terms, names, [terms.from_kif(t, names) for t in kif_terms]


def test_unify_binds_variables():
    terms, names, (a, b, c, d) = _interned(
        kif.Function("f", (Variable("X"), Constant("c"))),
        kif.Function("f", (Constant("d"), Variable("Y"))),
        Constant("c"),
        Constant("d"),
    )
    subst = terms.unify(a, b)
    assert subst is not None
    assert subst[names["X"]] == d
    assert subst[names["Y"]] == c


def test_unify_occurs_check():
    terms, _, (x, fx) = _interned(Variable("X"), kif.Function("f", (Variable("X"),)))
    assert terms.unify(x, fx) is None


def test_unify_clash():
    terms, _, (a, b, fa, ga) = _interned(
        Constant("a"),
        Constant("b"),
        kif.Function("f", (Constant("a"),)),
        kif.Function("g", (Constant("a"),)),
    )
    assert terms.unify(a, b) is None
    assert terms.unify(fa, ga) is None


# --------------------------------------------------------------------------
# clausification


# Clauses are compared as (positive, kif atom) tuples, with variables and
# skolem functors renamed by first occurrence over the whole clause list.


def _decoded(terms, clauses):
    keys = {f: key for key, f in terms.symbols.items()}

    def term(t):
        if t < 0:
            return Variable(f"v{-t}")
        name, arity = keys[terms.functor[t]]
        if arity is None:
            return Constant(name)
        if isinstance(name, int):
            name = f"#sk{name}"
        return Function(name, tuple(term(a) for a in terms.args[t]))

    def atom(a):
        name, _ = keys[terms.functor[a]]
        args = tuple(term(t) for t in terms.args[a])
        return Equal(*args) if name == "=" else Atom(name, args)

    return [tuple((bool(l & 1), atom(l >> 1)) for l in c.literals) for c in clauses]


def _renamed(clauses):
    names: dict = {}

    def term(t):
        if isinstance(t, Variable):
            return Variable(names.setdefault(t, f"V{len(names)}"))
        if isinstance(t, Function):
            name = names.setdefault(t.name, f"#s{len(names)}") if t.name[0] == "#" else t.name
            return Function(name, tuple(term(a) for a in t.args))
        return t

    def atom(a):
        if isinstance(a, Equal):
            return Equal(term(a.left), term(a.right))
        return Atom(a.predicate, tuple(term(t) for t in a.args))

    return [tuple((positive, atom(a)) for positive, a in c) for c in clauses]


def _clausified(f):
    terms = _Terms()
    return _renamed(_decoded(terms, clausify(f, "ax", terms)))


def test_clausify_implication_is_one_clause():
    f = _parse("(forall (?X) (=> (p ?X) (q ?X)))")
    assert _clausified(f) == [((False, _parse("(p ?V0)")), (True, _parse("(q ?V0)")))]


def test_clausify_skolemizes_existentials():
    f = _parse("(exists (?X) (p ?X))")
    assert _clausified(f) == [((True, Atom("p", (Function("#s0", ()),))),)]


def test_clausify_existential_under_universal_gets_function():
    f = _parse("(forall (?X) (exists (?Y) (p ?X ?Y)))")
    x = Variable("V0")
    assert _clausified(f) == [((True, Atom("p", (x, Function("#s1", (x,))))),)]


def test_clausify_drops_tautologies():
    f = _parse("(or (p a) (not (p a)))")
    assert _clausified(f) == []


# The reference: negation normal form, skolemization at the kif level, and
# the distribution as it was before pruning, every product built in full;
# then repeated literals and tautologies dropped from the finished clauses.


def _substituted(t, env):
    if isinstance(t, Variable):
        return env.get(t.name, t)
    if isinstance(t, Function):
        return Function(t.name, tuple(_substituted(a, env) for a in t.args))
    return t


def _skolemized(f, env, universals, fresh):
    """NNF in, quantifier-free matrix out: each universal variable renamed
    apart, each existential one replaced by a skolem term over the
    universals in scope."""
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(_substituted(a, env) for a in f.args))
    if isinstance(f, Equal):
        return Equal(_substituted(f.left, env), _substituted(f.right, env))
    if isinstance(f, Not):
        return Not(_skolemized(f.body, env, universals, fresh))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_skolemized(p, env, universals, fresh) for p in f.parts))
    env = dict(env)
    if isinstance(f, Forall):
        bound = tuple(Variable(f"{v}_{next(fresh)}") for v in f.variables)
        env.update(zip(f.variables, bound))
        universals += bound
    else:
        assert isinstance(f, Exists)
        env.update((v, Function(f"#sk{next(fresh)}", universals)) for v in f.variables)
    return _skolemized(f.body, env, universals, fresh)


def _unpruned_matrix(f):
    if isinstance(f, (Atom, Equal)):
        return [[(True, f)]]
    if isinstance(f, Not):
        return [[(False, f.body)]]
    if isinstance(f, And):
        return [c for p in f.parts for c in _unpruned_matrix(p)]
    acc = [[]]
    for p in f.parts:
        branch = _unpruned_matrix(p)
        acc = [a + b for a in acc for b in branch]
    return acc


def _reference_clauses(f):
    """First occurrences of the clauses, as (sign, atom) tuples."""
    matrix = _skolemized(kif.nnf(kif.universal_closure(f)), {}, (), itertools.count())
    out = {}
    for lits in _unpruned_matrix(matrix):
        unique = tuple(dict.fromkeys(lits))
        positives = {atom for positive, atom in unique if positive}
        if any(not positive and atom in positives for positive, atom in unique):
            continue
        if any(positive and isinstance(atom, Equal) and atom.left == atom.right
               for positive, atom in unique):
            continue
        out.setdefault(unique, None)
    return _renamed(out)


def _clause_formula(pairs):
    lits = tuple(atom if positive else Not(atom) for positive, atom in pairs)
    return lits[0] if len(lits) == 1 else Or(lits)


def _assert_clausify_matches_reference(f):
    got = _clausified(f)
    assert got == _reference_clauses(f), kif.print_kif(f)
    return got


def test_clausify_matches_unpruned_distribution():
    draws = genformulas.formulas(200, seed=61, depth=3)
    draws += genformulas.formulas(100, seed=62, depth=3, quantifiers=False)
    assert sum("<=>" in kif.print_kif(f) for f in draws) >= 100
    for f in draws:
        _assert_clausify_matches_reference(f)


def test_equality_clauses_only_when_equality_occurs():
    terms = _Terms()
    assert equality_clauses(terms, clausify(_parse("(p a)"), "ax", terms)) == []
    extra = equality_clauses(terms, clausify(_parse("(equal (f a) b)"), "ax", terms))
    assert all(c.origin == "eq" for c in extra)
    assert len(extra) == 4  # reflexivity, symmetry, transitivity, congruence of f
    assert _renamed(_decoded(terms, extra[3:])) == [(
        (False, _parse("(equal ?V0 ?V1)")),
        (True, _parse("(equal (f ?V0) (f ?V1))")),
    )]


# --------------------------------------------------------------------------
# proving


def test_skolem_terms_never_unify_with_user_symbols():
    # user symbols named like skolem functors, beside existentials: were a
    # skolem term to take one of those names, the axioms would be
    # inconsistent and would prove an unrelated goal
    cases = [
        ("(exists (?X) (p ?X))", "(not (p sk1))"),
        ("(exists (?X) (p ?X))", "(not (p (sk1)))"),
        ("(exists (?X ?Y) (q ?X ?Y))", "(not (q sk1 sk2))"),
        ("(forall (?Y) (exists (?X) (q ?Y ?X)))", "(forall (?Y) (not (q ?Y (sk1 ?Y))))"),
    ]
    for existential, user in cases:
        axioms = [("ax_some", _parse(existential)), ("ax_user", _parse(user))]
        result = prove(axioms, _parse("(r a)"))
        assert result.szs is SzsStatus.GAVE_UP, user


def test_prove_modus_ponens_chain():
    axioms = [
        ("ax_fact", _parse("(p a)")),
        ("ax_pq", _parse("(forall (?X) (=> (p ?X) (q ?X)))")),
        ("ax_qr", _parse("(forall (?X) (=> (q ?X) (r ?X)))")),
        ("ax_idle", _parse("(s b)")),
    ]
    result = prove(axioms, _parse("(r a)"))
    assert result.szs is SzsStatus.THEOREM
    assert result.used_axioms == ("ax_fact", "ax_pq", "ax_qr")
    assert result.wall_seconds >= 0


def test_prove_renames_apart_shared_variable_names():
    axioms = [
        ("ax_swap", _parse("(forall (?X ?Y) (=> (p ?X ?Y) (q ?Y ?X)))")),
        ("ax_fact", _parse("(p a b)")),
    ]
    assert prove(axioms, _parse("(q b a)")).szs is SzsStatus.THEOREM
    assert prove(axioms, _parse("(q a b)")).szs is SzsStatus.GAVE_UP


def test_prove_through_equality():
    axioms = [
        ("ax_same", _parse("(equal a b)")),
        ("ax_fact", _parse("(p a)")),
    ]
    result = prove(axioms, _parse("(p b)"))
    assert result.szs is SzsStatus.THEOREM
    assert result.used_axioms == ("ax_fact", "ax_same")


def test_prove_gives_up_on_exhausted_search():
    result = prove([("ax", _parse("(p a)"))], _parse("(p b)"))
    assert result.szs is SzsStatus.GAVE_UP
    assert result.used_axioms == ()


def _growth_axioms():
    return [
        ("ax_seed", _parse("(p a)")),
        ("ax_grow", _parse("(forall (?X) (=> (p ?X) (p (f ?X))))")),
    ]


def test_prove_times_out_on_growing_search():
    result = prove(_growth_axioms(), _parse("(q b)"), limit_seconds=0.2)
    assert result.szs is SzsStatus.TIMEOUT
    assert result.used_axioms == ()


def test_prove_clause_cap_means_gave_up():
    result = prove(_growth_axioms(), _parse("(q b)"), limit_seconds=60, max_clauses=40)
    assert result.szs is SzsStatus.GAVE_UP


def test_prove_clause_cap_counts_derived_clauses_only():
    # 32 input clauses against a cap of 2: the search keeps q(a) and ~p(a)
    # and then refutes ~q(a) with q(a), so only derived clauses may count
    axioms = [(f"ax_fill{i}", _parse(f"(s c{i})")) for i in range(30)]
    axioms += [
        ("ax_fact", _parse("(p a)")),
        ("ax_pq", _parse("(forall (?X) (=> (p ?X) (q ?X)))")),
    ]
    result = prove(axioms, _parse("(q a)"), max_clauses=2)
    assert result.szs is SzsStatus.THEOREM
    assert result.used_axioms == ("ax_fact", "ax_pq")


def test_prove_deep_terms_give_up_without_recursion():
    # each kept clause is p(f(...f(a)...)) one f deeper: 2,000 derived
    # clauses nest terms past the interpreter's default recursion limit
    limit = sys.getrecursionlimit()
    start = time.monotonic()
    result = prove(_growth_axioms(), _parse("(q b)"), limit_seconds=120, max_clauses=2000)
    assert result.szs is SzsStatus.GAVE_UP
    assert time.monotonic() - start < 5
    assert sys.getrecursionlimit() == limit


def test_prove_tautologies_from_no_axioms():
    # equality is excluded: congruence over nested function terms can send
    # the saturation off into term-growing territory, which is not what
    # this property is about
    pool = [
        f
        for f in genformulas.formulas(60, seed=41, depth=2, quantifiers=False)
        if "(equal " not in kif.print_kif(f)
    ]
    assert len(pool) >= 25
    for f in pool[:25]:
        conjecture = Or((f, Not(f)))
        result = prove([], conjecture, limit_seconds=30, max_literals=40,
                       max_clauses=20000)
        assert result.szs is SzsStatus.THEOREM, kif.print_kif(conjecture)
        assert result.used_axioms == ()


def _chain(*atoms):
    chain = atoms[-1]
    for a in reversed(atoms[:-1]):
        chain = Iff(a, chain)
    return chain


def _timed_prove(axioms, conjecture, **caps):
    start = time.monotonic()
    result = prove(axioms, conjecture, **caps)
    return result, time.monotonic() - start


def test_prove_nested_iff_chain_clausifies_quickly():
    # the chain is equivalent to (q c d); unpruned, either polarity
    # distributes into 458,329 clauses of which 4 are not tautologies
    ab, bd, cd = _parse("(q a b)"), _parse("(q b d)"), _parse("(q c d)")
    chain = _chain(ab, bd, ab, bd, cd)
    axioms = [("ax_cd", cd)]
    proved, seconds = _timed_prove(axioms, chain, limit_seconds=60)
    assert proved.szs is SzsStatus.THEOREM and proved.used_axioms == ("ax_cd",)
    assert seconds < 1
    refuted, seconds = _timed_prove(axioms, Not(chain), limit_seconds=60)
    assert refuted.szs is SzsStatus.GAVE_UP
    assert seconds < 1


def test_prove_five_connective_valid_chain():
    # every atom twice: a valid chain; unpruned, its distribution ran out
    # of a 1 GB address space
    a, b, c = _parse("(q a b)"), _parse("(q b c)"), _parse("(q c d)")
    chain = _chain(a, b, c, a, b, c)
    truth, seconds = _timed_prove([], chain, limit_seconds=60)
    assert truth.szs is SzsStatus.THEOREM
    assert seconds < 1
    falsity, seconds = _timed_prove([], Not(chain), limit_seconds=60)
    assert falsity.szs is SzsStatus.GAVE_UP
    assert seconds < 1


def test_prove_times_out_during_clausification():
    # distinct atoms defeat pruning: the chain's clause form doubles with
    # every connective, so only the limit ends this one; the timer stops
    # clausification wherever it is, so even the formula's first pass
    # cannot run past the budget
    for connectives in (10, 14, 16):
        chain = _chain(*(Atom(f"p{i}", ()) for i in range(connectives + 1)))
        for conjecture in (chain, Not(chain)):
            result, seconds = _timed_prove([], conjecture, limit_seconds=0.5)
            assert result.szs is SzsStatus.TIMEOUT
            assert seconds < 1.0, (connectives, seconds)


def test_prove_times_out_in_a_pure_python_stall(monkeypatch):
    # no step of the search runs while equality axioms are built, so only a
    # timer that interrupts any Python code ends this attempt on time
    def stall(terms, clauses):
        end = time.monotonic() + 3
        while time.monotonic() < end:
            pass
        return []

    monkeypatch.setattr(microprover, "equality_clauses", stall)
    result, seconds = _timed_prove([("ax_fact", _parse("(p a)"))], _parse("(p a)"),
                                   limit_seconds=0.5)
    assert result.szs is SzsStatus.TIMEOUT
    assert seconds < 1.5


def _ignore_alarm(signum, frame):
    pass


def test_prove_restores_the_alarm_handler_and_disarms_its_timer():
    before = signal.signal(signal.SIGALRM, _ignore_alarm)
    try:
        for conjecture, limit, cap, status in (
            ("(p a)", 60, 40, SzsStatus.THEOREM),
            ("(p b)", 60, 40, SzsStatus.GAVE_UP),
            ("(q b)", 0.05, 50000, SzsStatus.TIMEOUT),
        ):
            result = prove(_growth_axioms(), _parse(conjecture), limit_seconds=limit,
                           max_clauses=cap)
            assert result.szs is status
            assert signal.getsignal(signal.SIGALRM) is _ignore_alarm
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, before)


def test_prove_at_short_limits_always_returns_a_result():
    # limits about as long as the search itself, so that some expire just
    # as it ends: each must still come back as a result, never an exception
    rng = random.Random(5)
    statuses = collections.Counter()
    for _ in range(200):
        limit = 10 ** rng.uniform(-4, -2)
        result = prove(_growth_axioms(), _parse("(q b)"), limit_seconds=limit,
                       max_clauses=rng.randint(1, 60))
        assert isinstance(result, ProverResult)
        assert result.szs in (SzsStatus.TIMEOUT, SzsStatus.GAVE_UP)
        statuses[result.szs] += 1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert statuses[SzsStatus.TIMEOUT] > 0


@pytest.mark.parametrize("limit", [0, -1.0, float("nan")])
def test_prove_without_a_positive_limit_times_out_without_searching(limit):
    result = prove(_growth_axioms(), _parse("(p a)"), limit_seconds=limit)
    assert result.szs is SzsStatus.TIMEOUT
    assert result.search == SearchCounts(0, 0, 0, 0, 0)


@pytest.mark.parametrize("limit", [1e12, float("inf")])
def test_prove_with_a_limit_too_long_for_the_timer_runs_unbounded(limit):
    for conjecture in ("(p a)", "(p b)"):
        expected = prove(_growth_axioms(), _parse(conjecture), limit_seconds=60, max_clauses=40)
        result = prove(_growth_axioms(), _parse(conjecture), limit_seconds=limit, max_clauses=40)
        assert (result.szs, result.used_axioms, result.search) == \
            (expected.szs, expected.used_axioms, expected.search)


# --------------------------------------------------------------------------
# ground problems against the oracle
#
# On ground, equality-free input the saturation is complete, so giving up
# by exhaustion is a real non-entailment verdict and both directions can
# be checked against the grounding oracle.  The signature is kept tiny
# (six ground atoms) so exhaustion happens well inside the clause cap and
# a GaveUp can never mean "cap tripped".

SMALL_PREDICATES = (("p", 1), ("q", 2))
SMALL_CONSTANTS = ("a", "b")


def _small_atom(rng):
    name, arity = rng.choice(SMALL_PREDICATES)
    return Atom(name, tuple(Constant(rng.choice(SMALL_CONSTANTS)) for _ in range(arity)))


def _small_formula(rng, depth):
    if depth <= 0:
        return _small_atom(rng)
    kind = rng.choice(["atom", "not", "and", "or", "implies", "iff"])
    if kind == "atom":
        return _small_atom(rng)
    if kind == "not":
        return Not(_small_formula(rng, depth - 1))
    if kind in ("and", "or"):
        cls = And if kind == "and" else Or
        return cls(tuple(_small_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == "implies":
        return Implies(_small_formula(rng, depth - 1), _small_formula(rng, depth - 1))
    return Iff(_small_formula(rng, depth - 1), _small_formula(rng, depth - 1))


def _ground_case(rng: random.Random, i: int):
    axioms = [(f"ax{j}", _small_formula(rng, 2)) for j in range(4)]
    conjecture = _small_atom(rng)
    if i % 2 == 0:
        axioms.append(("ax_goal", conjecture))
    return axioms, conjecture


def test_ground_problems_match_oracle():
    rng = random.Random(5)
    universe = [Constant(c) for c in SMALL_CONSTANTS]
    theorems = gaveups = 0
    for i in range(30):
        axioms, conjecture = _ground_case(rng, i)
        result = prove(axioms, conjecture, limit_seconds=60,
                       max_literals=100, max_clauses=100000)
        entailed = oracles.ground_unsat(
            [f for _, f in axioms] + [Not(conjecture)], universe
        )
        assert result.szs in (SzsStatus.THEOREM, SzsStatus.GAVE_UP)
        if result.szs is SzsStatus.THEOREM:
            theorems += 1
            assert entailed, f"case {i}: proved a non-theorem"
        else:
            gaveups += 1
            assert not entailed, f"case {i}: missed an entailment"
    assert theorems >= 5
    assert gaveups >= 5


def test_ground_problems_at_scale_match_oracle():
    # more cases than above, including ones whose axioms alone are
    # inconsistent: their entailments need no help from the goal, so a
    # search confined to descendants of the negated conjecture would miss
    # them
    rng = random.Random(11)
    universe = [Constant(c) for c in SMALL_CONSTANTS]
    theorems = inconsistent = 0
    for i in range(200):
        axioms, conjecture = _ground_case(rng, i)
        result = prove(axioms, conjecture, limit_seconds=60,
                       max_literals=100, max_clauses=100000)
        entailed = oracles.ground_unsat(
            [f for _, f in axioms] + [Not(conjecture)], universe
        )
        assert result.szs in (SzsStatus.THEOREM, SzsStatus.GAVE_UP)
        assert (result.szs is SzsStatus.THEOREM) == entailed, f"case {i}"
        if entailed:
            theorems += 1
            _assert_used_axioms_suffice(axioms, conjecture, result, limit_seconds=60,
                                        max_literals=100, max_clauses=100000)
        if oracles.ground_unsat([f for _, f in axioms], universe):
            inconsistent += 1
            assert result.szs is SzsStatus.THEOREM, f"case {i}"
    assert theorems >= 50
    assert inconsistent >= 10


def test_clausified_ground_problems_match_oracle():
    # the clauses of a problem's formulas are unsatisfiable exactly when
    # the formulas are
    rng = random.Random(13)
    universe = [Constant(c) for c in SMALL_CONSTANTS]
    unsat = 0
    for i in range(100):
        axioms, conjecture = _ground_case(rng, i)
        formulas = [f for _, f in axioms] + [Not(conjecture)]
        clauses = [c for f in formulas for c in _assert_clausify_matches_reference(f)]
        entailed = oracles.ground_unsat(formulas, universe)
        assert oracles.ground_unsat([_clause_formula(c) for c in clauses], universe) == entailed
        unsat += entailed
    assert 20 <= unsat <= 80


# --------------------------------------------------------------------------
# first-order problems against the oracle
#
# Function-free clauses of at most two literals over binary predicates:
# resolving two such clauses gives at most two literals again, so the
# clauses the search can keep are finitely many up to renaming and giving
# up means the queue emptied.  Variables and constants share every
# argument position, so partners are retrieved through both the symbol
# and the variable buckets of the literal index, and some clauses hold
# one predicate with both signs.

FO_CONSTANTS = ("a", "b", "c")
FO_VARIABLES = ("X", "Y", "Z")


def _fo_atom(rng, predicate):
    return Atom(predicate, tuple(
        Variable(rng.choice(FO_VARIABLES)) if rng.random() < 0.5
        else Constant(rng.choice(FO_CONSTANTS))
        for _ in range(2)
    ))


def _fo_clause(rng, predicates):
    first = _fo_atom(rng, rng.choice(predicates))
    positive = rng.random() < 0.5
    literals = [first if positive else Not(first)]
    shape = rng.random()
    if shape < 0.3:  # one predicate, both signs
        second = _fo_atom(rng, first.predicate)
        literals.append(Not(second) if positive else second)
    elif shape < 0.7:
        second = _fo_atom(rng, rng.choice(predicates))
        literals.append(second if rng.random() < 0.5 else Not(second))
    return kif.universal_closure(Or(tuple(literals)) if len(literals) > 1 else literals[0])


def _fo_case(rng):
    predicates = ("p", "q", "r")[: rng.choice((2, 3))]
    axioms = [(f"ax{j}", _fo_clause(rng, predicates)) for j in range(rng.randint(4, 7))]
    conjecture = Atom(rng.choice(predicates),
                      tuple(Constant(rng.choice(FO_CONSTANTS)) for _ in range(2)))
    return axioms, conjecture


def test_first_order_problems_match_oracle():
    rng = random.Random(23)
    universe = [Constant(c) for c in FO_CONSTANTS]
    caps = dict(limit_seconds=60, max_literals=100, max_clauses=100000)
    theorems = 0
    for i in range(100):
        axioms, conjecture = _fo_case(rng)
        result = prove(axioms, conjecture, **caps)
        entailed = oracles.ground_unsat(
            [f for _, f in axioms] + [Not(conjecture)], universe
        )
        assert result.szs in (SzsStatus.THEOREM, SzsStatus.GAVE_UP)
        assert (result.szs is SzsStatus.THEOREM) == entailed, f"case {i}"
        if entailed:
            theorems += 1
            _assert_used_axioms_suffice(axioms, conjecture, result, **caps)
    assert 20 <= theorems <= 80


# --------------------------------------------------------------------------
# negative selection against the oracle
#
# Clauses of up to three literals, most of them with a negative literal
# and many with two or more, so which literal a clause is eligible on
# decides which pairs meet.  The first-order clauses are function-free,
# and every variable of a positive literal occurs in a negative literal of
# its clause, so every derived clause without negative literals is ground
# and the queue empties: a GaveUp means no refutation exists.  Each proof's
# derivation is read back: every resolution step joins a clause without
# negative literals to one with a negative literal, and in a ground proof
# it resolves on that clause's first negative literal.


def _selection_clause(rng, first_order, head=None):
    """A clause of one to three literals, or of ``head`` and one or two
    negative literals."""
    def atom(scope):
        name, arity = rng.choice(SMALL_PREDICATES)
        return Atom(name, tuple(
            Variable(rng.choice(scope)) if scope and rng.random() < 0.6
            else Constant(rng.choice(SMALL_CONSTANTS))
            for _ in range(arity)
        ))

    n = rng.choice((1, 2, 2, 3, 3, 3))
    negatives = sum(rng.random() < 0.6 for _ in range(n)) if head is None else rng.randint(1, 2)
    scope = FO_VARIABLES if first_order else ()
    literals = [Not(atom(scope)) for _ in range(negatives)]
    bound = tuple(sorted({v for l in literals for v in kif.free_variables_ordered(l)}))
    literals += [atom(bound) for _ in range(n - negatives)] if head is None else [head]
    rng.shuffle(literals)
    return kif.universal_closure(Or(tuple(literals)) if len(literals) > 1 else literals[0])


def _selection_case(rng, first_order):
    goal = _small_atom(rng)
    axioms = [(f"ax{j}", _selection_clause(rng, first_order)) for j in range(rng.randint(5, 9))]
    axioms.append(("ax_goal", _selection_clause(rng, first_order, goal)))
    return axioms, goal


def _assert_steps_resolve_on_eligible_literals(empty, ground):
    stack, seen = [empty], set()
    while stack:
        c = stack.pop()
        if id(c) in seen:
            continue
        seen.add(id(c))
        stack.extend(c.parents)
        if len(c.parents) < 2:
            continue
        mixed, positive = sorted(c.parents, key=lambda d: all(l & 1 for l in d.literals))
        assert all(l & 1 for l in positive.literals)
        assert not all(l & 1 for l in mixed.literals)
        if ground:  # ground literals keep their ints through a step
            selected = next(l for l in mixed.literals if not l & 1)
            assert set(c.literals) == \
                (set(mixed.literals) - {selected}) | (set(positive.literals) - {selected + 1})


@pytest.mark.parametrize("first_order", [False, True], ids=["ground", "first-order"])
def test_selection_matches_oracle(monkeypatch, first_order):
    empties = []
    used_axioms = microprover._used_axioms
    monkeypatch.setattr(microprover, "_used_axioms",
                        lambda empty: empties.append(empty) or used_axioms(empty))
    rng = random.Random(31)
    universe = [Constant(c) for c in SMALL_CONSTANTS]
    caps = dict(limit_seconds=10, max_literals=100, max_clauses=100000)
    theorems = 0
    for i in range(200):
        axioms, conjecture = _selection_case(rng, first_order)
        result = prove(axioms, conjecture, **caps)
        entailed = oracles.ground_unsat([f for _, f in axioms] + [Not(conjecture)], universe)
        assert result.szs in (SzsStatus.THEOREM, SzsStatus.GAVE_UP)
        assert (result.szs is SzsStatus.THEOREM) == entailed, f"case {i}"
        if entailed:
            theorems += 1
            _assert_steps_resolve_on_eligible_literals(empties[-1], not first_order)
            _assert_used_axioms_suffice(axioms, conjecture, result, **caps)
    assert 40 <= theorems <= 160, theorems


# --------------------------------------------------------------------------
# properties of the search


def _assert_used_axioms_suffice(axioms, conjecture, result, **caps):
    used = [(label, f) for label, f in axioms if label in result.used_axioms]
    assert sorted(label for label, _ in used) == list(result.used_axioms)
    again = prove(used, conjecture, **caps)
    assert again.szs is SzsStatus.THEOREM, result.used_axioms


def test_used_axioms_suffice_on_fixture_entailments(nulllist_ontology, deadliving_ontology):
    cases = [
        (nulllist_ontology, "(not (exists (?ITEM) (inList ?ITEM NullList)))"),
        (deadliving_ontology,
         "(not (exists (?X) (and (instance ?X Organism) (attribute ?X Dead))))"),
    ]
    for ont, goal in cases:
        axioms = [(ax.label, ax.formula) for ax in ont.axioms]
        conjecture = _parse(goal)
        result = prove(axioms, conjecture)
        assert result.szs is SzsStatus.THEOREM
        _assert_used_axioms_suffice(axioms, conjecture, result)


def test_fixture_campaign_verdicts_are_pinned(journal):
    theorems = {
        cq_id: result.used_axioms
        for cq_id, result in journal.items()
        if result.szs is SzsStatus.THEOREM
    }
    assert theorems == {
        "cq_antattr_asleep_awake": ("ax_awake_asleep_contrary",),
        "cq_antclass_freezing_melting": ("ax_melting_freezing_disjoint",),
        "cq_creative_boys_domestic": (
            "ax_boy_man", "ax_humans_not_domestic", "ax_man_human", "ax_subclass_instances",
        ),
    }
    assert all(result.szs is not SzsStatus.ERROR for result in journal.values())


def test_equality_falsity_question_empties_its_queue(pipeline, tmp_path):
    # with every literal eligible, this question re-derived renamings through
    # the equality axioms until its cap: at 300 clauses it kept 301 and
    # dropped 22,649 duplicates; under selection its queue empties first
    shutil.copytree(pipeline.root / "stores", tmp_path / "stores")
    code, _, err = run_cli("emit", "--config", str(write_config(tmp_path)), "--mode", "include")
    assert code == 0, err
    axioms, (_, conjecture) = tptp.read_problem(
        tmp_path / "problems" / "cq_event1_death_killing_falsity.p")
    result = prove(axioms, conjecture, limit_seconds=10, max_clauses=300)
    assert result.szs is SzsStatus.GAVE_UP
    assert result.search.kept < 300, result.search


def test_partner_retrieval_skips_literals_that_cannot_unify():
    # 300 memberships over distinct constants: retrieval by predicate and
    # sign alone offers each rule literal every membership, about 37
    # partner pairs per unification here and 160 without the goal
    axioms = [(f"ax_member{k}", _parse(f"(instance Obj{k} Class{k % 20})")) for k in range(300)]
    axioms += [
        ("ax_class0_animal", _parse("(forall (?X) (=> (instance ?X Class0) (instance ?X Animal)))")),
        ("ax_animal_organism",
         _parse("(forall (?X) (=> (instance ?X Animal) (instance ?X Organism)))")),
        ("ax_class1_class2",
         _parse("(forall (?X) (=> (instance ?X Class1) (not (instance ?X Class2))))")),
    ]
    proved = prove(axioms, _parse("(instance Obj40 Organism)"))
    assert proved.szs is SzsStatus.THEOREM
    assert proved.used_axioms == ("ax_animal_organism", "ax_class0_animal", "ax_member40")
    failed = prove(axioms, _parse("(instance Obj41 Organism)"))
    assert failed.szs is SzsStatus.GAVE_UP
    for result in (proved, failed):
        search = result.search
        assert search.given > 300
        assert search.unifications > 30
        assert search.pairs <= 3 * search.unifications, search
