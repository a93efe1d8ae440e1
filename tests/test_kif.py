"""Parser, printer and normal-form behavior for the KIF fragment."""

import itertools
import random
import re

import pytest

import genformulas
import oracles
from cqeval import Error, kif
from cqeval.kif import (
    And,
    Atom,
    Constant,
    Equal,
    Exists,
    Forall,
    Function,
    Iff,
    Implies,
    Not,
    Or,
    Variable,
    free_variables_ordered,
    nnf,
    parse_annotated,
    parse_kif,
    print_kif,
    symbols,
    universal_closure,
)

X = Variable("X")
Y = Variable("Y")


def test_parse_ground_atom():
    (f,) = parse_kif("(instance Awake ConsciousnessAttribute)")
    assert f == Atom("instance", (Constant("Awake"), Constant("ConsciousnessAttribute")))


def test_parse_nested_connectives():
    (f,) = parse_kif("(=> (and (p ?X) (q ?X a)) (not (r ?X b c)))")
    assert f == Implies(
        And((Atom("p", (X,)), Atom("q", (X, Constant("a"))))),
        Not(Atom("r", (X, Constant("b"), Constant("c")))),
    )


def test_parse_quantifiers_and_equal():
    (f,) = parse_kif("(exists (?X ?Y) (equal ?X (f ?Y)))")
    assert f == Exists(("X", "Y"), Equal(X, Function("f", (Y,))))
    # = is the same operator
    assert parse_kif("(= a b)") == parse_kif("(equal a b)")


def test_parse_iff():
    (f,) = parse_kif("(<=> (p ?X) (q ?X ?X))")
    assert f == Iff(Atom("p", (X,)), Atom("q", (X, X)))


def test_parse_multiple_forms():
    forms = parse_kif("(p a)\n(q b c)\n")
    assert [print_kif(f) for f in forms] == ["(p a)", "(q b c)"]


def test_parse_comments_skipped():
    forms = parse_kif("; whole line\n(p a) ; trailing\n")
    assert forms == [Atom("p", (Constant("a"),))]


def test_and_or_flatten_on_construction():
    inner = And((Atom("p", ()), Atom("q", ())))
    outer = And((inner, Atom("r", ())))
    assert len(outer.parts) == 3
    with pytest.raises(ValueError, match="^and needs at least two parts$"):
        And((Atom("p", ()),))
    with pytest.raises(ValueError, match="^or needs at least two parts$"):
        Or((Atom("p", ()),))


def test_connective_families_keep_their_classes_apart():
    parts = (Atom("p", ()), Atom("q", ()))
    body = Atom("p", (X,))
    pairs = [
        (And(parts), Or(parts), And(parts)),
        (Forall(("X",), body), Exists(("X",), body), Forall(("X",), body)),
    ]
    for a, b, again in pairs:
        assert a != b and a == again
        assert len({a, b, again}) == 2
        assert repr(a).startswith(type(a).__name__ + "(")
        assert repr(b).startswith(type(b).__name__ + "(")
    with pytest.raises(ValueError, match="^quantifier needs at least one variable$"):
        Exists((), body)


SYNTAX_ERRORS = [
    # source, line, column, reason
    ("(p a", 1, 1, "unclosed '('"),
    ("(p a))", 1, 6, "unbalanced ')'"),
    ("(=> (p a))", 1, 2, "=> takes exactly two formulas"),
    ("(<=> (p a))", 1, 2, "<=> takes exactly two formulas"),
    ("(or (p a))", 1, 2, "or takes at least two formulas"),
    ("(not (p a) (q b))", 1, 2, "not takes exactly one formula"),
    ("(forall ?X (p ?X))", 1, 9, "quantifier needs a variable list"),
    ("(forall () (p a))", 1, 9, "empty variable list"),
    ("(forall (?X))", 1, 2, "forall needs a variable list and a body"),
    ("(forall (a) (p a))", 1, 10, "expected a variable, found 'a'"),
    ("(equal a b c)", 1, 2, "equal takes exactly two terms"),
    ("((p) a)", 1, 1, "expected an operator or predicate symbol"),
    ("(and a (p b))", 1, 6, "expected a formula, found 'a'"),
    ("()", 1, 1, "empty expression"),
    ("(p ?)", 1, 4, "empty variable name"),
    ("(p ())", 1, 4, "empty function application"),
    ("(p ((f) a))", 1, 4, "expected function name"),
]


@pytest.mark.parametrize(
    "src, line, col, reason", SYNTAX_ERRORS, ids=[case[0] for case in SYNTAX_ERRORS]
)
def test_syntax_errors(src, line, col, reason):
    with pytest.raises(Error, match=re.escape(reason)) as e:
        parse_kif(src)
    assert (e.value.line, e.value.col, e.value.reason) == (line, col, reason)


UNSUPPORTED = [
    # source, line, column, construct
    ("(p @ROW)", 1, 4, "row variable @ROW"),
    ('(p "quoted")', 1, 4, "quoted term"),
    ("(?X a)", 1, 2, "variable in predicate position"),
    ("(p (?F a))", 1, 5, "variable in function position"),
    ("(forall ((?X Human)) (p ?X))", 1, 10, "typed quantifier binding"),
]


@pytest.mark.parametrize(
    "src, line, col, construct", UNSUPPORTED, ids=[case[0] for case in UNSUPPORTED]
)
def test_unsupported_constructs(src, line, col, construct):
    with pytest.raises(Error, match=re.escape(f"unsupported construct: {construct}")) as e:
        parse_kif(src)
    assert (e.value.line, e.value.col) == (line, col)
    assert e.value.reason == f"unsupported construct: {construct}"


@pytest.mark.parametrize("src", ["(p a))", "(p @ROW)"])
def test_kif_errors_share_one_form(src):
    with pytest.raises(Error) as e:
        parse_kif(src)
    err = e.value
    text = str(err)
    assert text == f"{err.line}:{err.col}: {err.reason}"
    assert str(err.at("x.kif")) == f"x.kif:{text}"


def test_syntax_error_carries_position():
    with pytest.raises(Error, match="unclosed") as e:
        parse_kif("(p a\n(q b)")
    assert e.value.line == 1


FAULTY = "(p a)\n(q b)\n;; label: ax_r\n(r c)\n\n(s d\n  (not (p a) (q b)))\n"


@pytest.mark.parametrize("parse", [parse_kif, parse_annotated])
def test_syntax_error_position_is_absolute(parse):
    with pytest.raises(Error, match="connective 'not' in term position") as e:
        parse(FAULTY)
    assert (e.value.line, e.value.col) == (7, 4)


@pytest.mark.parametrize("parse", [parse_kif, parse_annotated])
def test_stray_top_level_token_rejected(parse):
    with pytest.raises(Error, match="expected '\\(' at top level") as e:
        parse("(p a)\nstray\n(q b)\n")
    assert (e.value.line, e.value.col) == (2, 1)


# --------------------------------------------------------------------------
# printing


def test_print_round_trip_fixed_cases():
    cases = [
        "(instance ?X Melting)",
        "(not (exists (?X) (and (instance ?X Melting) (instance ?X Freezing))))",
        "(=> (and (subclass ?SUB ?SUPER) (instance ?X ?SUB)) (instance ?X ?SUPER))",
        "(<=> (p a) (or (q b) (r c)))",
        "(equal (f a) (g a b))",
        "(nullary)",
    ]
    for src in cases:
        (f,) = parse_kif(src)
        assert print_kif(f) == src
        assert parse_kif(print_kif(f)) == [f]


def test_print_round_trip_random_formulas():
    # the corpus-scale version of this runs in the acceptance suite
    for f in genformulas.formulas(300, seed=11):
        assert parse_kif(print_kif(f)) == [f]


# --------------------------------------------------------------------------
# structural helpers


def test_free_variables_ordered_first_occurrence():
    for source, expected in [
        ("(=> (p ?B ?A) (exists (?C) (q ?C ?A ?D)))", ("B", "A", "D")),
        # bound in one place and free in another
        ("(and (forall (?X) (p ?X)) (q ?X ?Y))", ("X", "Y")),
        ("(or (p ?Z) (forall (?Z) (q ?Z ?W)) (r ?V))", ("Z", "W", "V")),
        ("(<=> (p ?B) (exists (?B) (q ?B ?A)))", ("B", "A")),
        ("(equal (f ?Y (g ?X)) ?Z)", ("Y", "X", "Z")),
        ("(not (p (f (g ?X ?Y) ?X) a))", ("X", "Y")),
        ("(forall (?X) (exists (?Y) (p ?X ?Y)))", ()),
    ]:
        (f,) = parse_kif(source)
        assert free_variables_ordered(f) == expected, source


def test_universal_closure():
    (f,) = parse_kif("(p ?X ?Y)")
    assert print_kif(universal_closure(f)) == "(forall (?X ?Y) (p ?X ?Y))"
    closed = parse_kif("(forall (?X) (p ?X))")[0]
    assert universal_closure(closed) is closed


def test_symbols_cover_predicates_and_constants():
    for source, expected in [
        ("(=> (instance ?X Boy) (not (instance ?X (kindOf DomesticAnimal))))",
         {"instance", "Boy", "kindOf", "DomesticAnimal"}),
        # an equation contributes its terms' names, not "equal" or "="
        ("(equal (f ?Y (g a)) b)", {"f", "g", "a", "b"}),
        ("(<=> (p a) (or (q b) (r c) (s (h (k d)))))", {"p", "a", "q", "b", "r", "c", "s", "h",
                                                        "k", "d"}),
        ("(and (forall (?X) (p ?X)) (exists (?Y) (= ?Y e)) (not (q ?Z)))", {"p", "e", "q"}),
    ]:
        (f,) = parse_kif(source)
        assert symbols(f) == frozenset(expected), source


def test_nnf_shape():
    (f,) = parse_kif("(not (=> (p a) (q b)))")
    assert print_kif(nnf(f)) == "(and (p a) (not (q b)))"
    (g,) = parse_kif("(not (forall (?X) (or (p ?X) (q ?X))))")
    assert print_kif(nnf(g)) == "(exists (?X) (and (not (p ?X)) (not (q ?X))))"


def test_nnf_idempotent_and_semantics_preserved():
    rng = random.Random(7)
    for f in genformulas.ground_formulas(120, seed=23):
        g = nnf(f)
        assert nnf(g) == g
        model = _random_model(rng, f)
        assert model.holds(f) == model.holds(g)


def test_nnf_negative_polarity_is_nnf_of_the_negation():
    for seed in range(8):
        for f in genformulas.formulas(60, seed=seed):
            assert nnf(f, positive=False) == nnf(Not(f))
            assert nnf(Not(f), positive=False) == nnf(f)


def _random_model(rng, *formulas):
    domain = [0, 1, 2]
    consts = {}
    preds = {}
    for f in formulas:
        for name in kif.symbols(f):
            consts.setdefault(name, rng.choice(domain))
    for name, arity in genformulas.PREDICATES:
        rows = {
            tuple(t)
            for t in _all_tuples(domain, arity)
            if rng.random() < 0.5
        }
        preds[name] = rows
    return oracles.Model(domain, consts, preds)


def _all_tuples(domain, arity):
    if arity == 0:
        return [()]
    return [(d,) + rest for d in domain for rest in _all_tuples(domain, arity - 1)]


# --------------------------------------------------------------------------
# alpha equivalence


def _canon_term(t, env):
    if isinstance(t, Variable):
        return Variable(env.get(t.name, t.name))
    if isinstance(t, Function):
        return Function(t.name, tuple(_canon_term(a, env) for a in t.args))
    return t


def _canon(f, env, counter):
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(_canon_term(a, env) for a in f.args))
    if isinstance(f, Equal):
        return Equal(_canon_term(f.left, env), _canon_term(f.right, env))
    if isinstance(f, Not):
        return Not(_canon(f.body, env, counter))
    if isinstance(f, And):
        return And(tuple(_canon(p, env, counter) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_canon(p, env, counter) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(_canon(f.antecedent, env, counter), _canon(f.consequent, env, counter))
    if isinstance(f, Iff):
        return Iff(_canon(f.left, env, counter), _canon(f.right, env, counter))
    if isinstance(f, (Forall, Exists)):
        inner = dict(env)
        fresh = tuple(f"v{next(counter)}" for _ in f.variables)
        inner.update(zip(f.variables, fresh))
        return type(f)(fresh, _canon(f.body, inner, counter))
    raise TypeError(f"not a formula: {f!r}")


def alpha_equal(f, g) -> bool:
    """Structural equality up to consistent renaming of bound variables."""
    return _canon(f, {}, itertools.count()) == _canon(g, {}, itertools.count())


def test_alpha_equal_on_renamed_bound_variables():
    (f,) = parse_kif("(forall (?X) (exists (?Y) (p ?X ?Y)))")
    (g,) = parse_kif("(forall (?A) (exists (?B) (p ?A ?B)))")
    assert alpha_equal(f, g)
    assert f != g


def test_alpha_equal_rejects_different_structure():
    (f,) = parse_kif("(forall (?X) (p ?X ?X))")
    (g,) = parse_kif("(forall (?X) (p ?X a))")
    assert not alpha_equal(f, g)
    (h,) = parse_kif("(exists (?X) (p ?X ?X))")
    assert not alpha_equal(f, h)


def test_alpha_equal_distinguishes_free_variables():
    (f,) = parse_kif("(p ?X)")
    (g,) = parse_kif("(p ?Y)")
    assert not alpha_equal(f, g)
    assert alpha_equal(f, f)


# --------------------------------------------------------------------------
# annotated parsing


ANNOTATED = """\
;; a prose comment without that punctuation mark is ignored
;; label: ax_first
;; note: two words
(p a)

(q b)
;; label: ax_last
(r c)
"""


def test_parse_annotated_keeps_line_breaks_between_tokens():
    src = ";; label: ax_human\n(subclass\nHuman\tAnimal)\n(=> (p ?X)\n    (q ?X))\n"
    forms = parse_annotated(src)
    assert [af.formula for af in forms] == parse_kif(src)
    assert print_kif(forms[0].formula) == "(subclass Human Animal)"
    assert [af.line for af in forms] == [2, 4]
    assert forms[0].annotations == {"label": "ax_human"}


def test_parse_annotated_ignores_comments_inside_forms():
    src = "(and (p a)\n;; label: inner\n  (q b))\n;; label: outer\n(r c)\n"
    forms = parse_annotated(src)
    assert [af.annotations for af in forms] == [{}, {"label": "outer"}]


def test_parse_annotated_attaches_pending_keys():
    forms = parse_annotated(ANNOTATED)
    assert [print_kif(af.formula) for af in forms] == ["(p a)", "(q b)", "(r c)"]
    assert forms[0].annotations == {"label": "ax_first", "note": "two words"}
    assert forms[1].annotations == {}
    assert forms[2].annotations == {"label": "ax_last"}
