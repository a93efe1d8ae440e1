"""The built-in saturation prover, checked against a ground-enumeration
oracle on problems small enough to decide exactly."""

import random
import sys
import time

import pytest

import genformulas
import oracles
from cqeval import kif
from cqeval.kif import And, Atom, Constant, Equal, Iff, Implies, Not, Or, Variable
from cqeval.microprover import (
    clausify, equality_clauses, prove, skolem_floor, _Fresh, _skolemize, _Terms,
)
from cqeval.tptp import SzsStatus


def _parse(src):
    return kif.parse_kif(src)[0]


# --------------------------------------------------------------------------
# unification


def _interned(*kif_terms):
    terms = _Terms()
    names: dict = {}
    return terms, names, [terms.from_kif(t, names, terms.var) for t in kif_terms]


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


def test_clausify_implication_is_one_clause():
    f = _parse("(forall (?X) (=> (p ?X) (q ?X)))")
    clauses = clausify(f, "ax", _Fresh())
    assert len(clauses) == 1
    lits = sorted(str(l) for l in clauses[0].literals)
    assert lits == ["q(X)", "~p(X)"]


def test_clausify_skolemizes_existentials():
    f = _parse("(exists (?X) (p ?X))")
    (clause,) = clausify(f, "ax", _Fresh())
    (lit,) = clause.literals
    assert lit.positive
    assert str(lit).startswith("p(sk")


def test_clausify_existential_under_universal_gets_function():
    f = _parse("(forall (?X) (exists (?Y) (p ?X ?Y)))")
    (clause,) = clausify(f, "ax", _Fresh())
    text = str(clause.literals[0])
    assert "sk" in text and "(X)" in text


def test_clausify_drops_tautologies():
    f = _parse("(or (p a) (not (p a)))")
    assert clausify(f, "ax", _Fresh()) == []


# The distribution as it was before pruning: every product built in full,
# then repeated literals and tautologies dropped from the finished clauses.


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


def _reference_clauses(f, fresh):
    """First occurrences of the clauses, as (sign, atom) tuples."""
    matrix = _skolemize(kif.nnf(kif.universal_closure(f)), {}, (), fresh, set())
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
    return list(out)


def _atom(lit):
    if lit.predicate == "=":
        return Equal(*lit.args)
    return Atom(lit.predicate, lit.args)


def _clauses_as_pairs(clauses):
    return list(dict.fromkeys(tuple((l.positive, _atom(l)) for l in c.literals) for c in clauses))


def _clause_formula(pairs):
    lits = tuple(atom if positive else Not(atom) for positive, atom in pairs)
    return lits[0] if len(lits) == 1 else Or(lits)


def _assert_clausify_matches_reference(f):
    got = _clauses_as_pairs(clausify(f, "ax", _Fresh()))
    assert got == _reference_clauses(f, _Fresh()), kif.print_kif(f)
    return got


def test_clausify_matches_unpruned_distribution():
    draws = genformulas.formulas(200, seed=61, depth=3)
    draws += genformulas.formulas(100, seed=62, depth=3, quantifiers=False)
    assert sum("<=>" in kif.print_kif(f) for f in draws) >= 100
    for f in draws:
        _assert_clausify_matches_reference(f)


def test_skolem_floor_dodges_user_symbols():
    f = _parse("(p sk3)")
    assert skolem_floor([f]) >= 4


def test_equality_clauses_only_when_equality_occurs():
    plain = clausify(_parse("(p a)"), "ax", _Fresh())
    assert equality_clauses(plain) == []
    eq = clausify(_parse("(equal a b)"), "ax", _Fresh())
    extra = equality_clauses(eq)
    assert extra != []
    assert all(c.origin == "eq" for c in extra)


# --------------------------------------------------------------------------
# proving


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
    # every connective, so only the deadline ends this one
    chain = _chain(*(Atom(f"p{i}", ()) for i in range(11)))
    result, seconds = _timed_prove([], chain, limit_seconds=0.5)
    assert result.szs is SzsStatus.TIMEOUT
    assert seconds < 1.5


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
# and the variable buckets of the literal index, and some clauses resolve
# with themselves.

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
    if shape < 0.3:  # resolves with itself: one predicate, both signs
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
