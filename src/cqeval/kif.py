"""SUO-KIF first-order fragment: formula AST, parser and printer.

The fragment covers exactly what ontology axioms and competency questions
need: atoms over constants, variables and function applications, equality,
the boolean connectives, and the two quantifiers.  Anything beyond it (row
variables, quoted strings, variables in predicate or function position,
typed quantifier bindings) is rejected with a positioned error so the
caller knows the input needs a pre-translated form.

The reader makes one pass over the source with one compiled pattern and
builds the nested forms as it goes; each token keeps its line and
column, so every :class:`cqeval.Error` it raises names both (``at``
adds the file).  Faults of the s-expression layer (parens, quotes, row variables) are
reported in source order, before any fault of the fragment's grammar.

Conventions baked into the AST: variable names are stored without the
leading ``?``; ``and`` / ``or`` (:class:`Junction`) flatten nested
applications of the same connective on construction, in source order;
``equal`` and ``=`` both parse to :class:`Equal`, never to an atom; free
variables stay free until :func:`universal_closure` closes them at
emission time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import Error

# a name: not empty, and without a blank, a paren or a quote
_NAME = re.compile(r'[^ \t\n()"]+')


def _check_name(name: str, what: str) -> None:
    if not _NAME.fullmatch(name):
        raise ValueError(f"bad {what} name: {name!r}")


# --------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    """A variable, a constant or a function application; ``what`` names
    the kind of name in the error for a bad ``name``."""

    name: str

    def __post_init__(self):
        _check_name(self.name, self.what)


class Variable(Term):
    what = "variable"


class Constant(Term):
    what = "constant"


@dataclass(frozen=True)
class Function(Term):
    args: tuple[Term, ...]
    what = "function"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "args", tuple(self.args))


# --------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        _check_name(self.predicate, "predicate")
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Equal(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Junction(Formula):
    """``and`` / ``or``, by its ``keyword``: n-ary, nested applications of
    the same connective flattened on construction, in source order."""

    parts: tuple[Formula, ...]

    def __post_init__(self):
        flat: list[Formula] = []
        for p in self.parts:
            if isinstance(p, type(self)):
                flat.extend(p.parts)
            else:
                flat.append(p)
        if len(flat) < 2:
            raise ValueError(f"{self.keyword} needs at least two parts")
        object.__setattr__(self, "parts", tuple(flat))


class And(Junction):
    keyword = "and"


class Or(Junction):
    keyword = "or"


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Quantifier(Formula):
    """``forall`` / ``exists``, by its ``keyword``, over one or more
    variable names."""

    variables: tuple[str, ...]
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("quantifier needs at least one variable")


class Forall(Quantifier):
    keyword = "forall"


class Exists(Quantifier):
    keyword = "exists"


# --------------------------------------------------------------------------
# reader

# One match per token of a line: a comment, a paren, a quote, or a symbol
# running to the next blank or one of those.  Blanks match nothing, so
# finditer steps over them.
_TOKEN = re.compile(r';.*|[()"]|[^ \t\r();"]+')


def _read_sexprs(source: str) -> list:
    """Group the source into nested lists in one pass over its tokens.

    A leaf is a ``(text, line, col)`` tuple; a list starts with the leaf of
    its opening paren, for positions.  Comments inside a form are dropped;
    top-level comments stay in the result as leaves, in source order
    between the forms.
    """
    exprs: list = []
    stack: list[list] = []  # the forms still open, innermost last
    for line, text in enumerate(source.split("\n"), start=1):
        for m in _TOKEN.finditer(text):
            word, col = m.group(), m.start() + 1
            ch = word[0]
            if ch == "(":
                form = [(word, line, col)]
                (stack[-1] if stack else exprs).append(form)
                stack.append(form)
            elif ch == ")":
                if not stack:
                    raise Error("unbalanced ')'", line, col)
                stack.pop()
            elif ch == ";":
                if not stack:
                    exprs.append((word, line, col))
            elif ch == '"':
                raise Error("unsupported construct: quoted term", line, col)
            elif ch == "@":
                raise Error(f"unsupported construct: row variable {word}", line, col)
            elif stack:
                stack[-1].append((word, line, col))
            else:
                raise Error("expected '(' at top level", line, col)
    if stack:
        _, line, col = stack[-1][0]
        raise Error("unclosed '('", line, col)
    return exprs


# --------------------------------------------------------------------------
# parser

# keyword -> (class, fewest formulas, most formulas or None for no bound, the
# arity as its error states it); an unbounded one takes its parts as a tuple
_CONNECTIVES = {
    "=>": (Implies, 2, 2, "exactly two formulas"),
    "<=>": (Iff, 2, 2, "exactly two formulas"),
    "and": (And, 2, None, "at least two formulas"),
    "or": (Or, 2, None, "at least two formulas"),
    "not": (Not, 1, 1, "exactly one formula"),
}
_QUANTIFIERS = {q.keyword: q for q in (Forall, Exists)}
CONNECTIVES = frozenset({*_CONNECTIVES, *_QUANTIFIERS, "equal", "="})


def _head(sx, position: str, empty: str, nested: str) -> tuple:
    """The head leaf of the form ``sx``, in the ``position`` of a predicate
    or function; an ``empty`` form, a ``nested`` head or a variable fails."""
    _, line, col = sx[0]
    if len(sx) < 2:
        raise Error(empty, line, col)
    head = sx[1]
    if isinstance(head, list):
        raise Error(nested, line, col)
    if head[0][0] == "?":
        raise Error(f"unsupported construct: variable in {position} position", head[1], head[2])
    return head


def _parse_term(sx) -> Term:
    if isinstance(sx, tuple):
        text, line, col = sx
        if text[0] == "?":
            if len(text) < 2:
                raise Error("empty variable name", line, col)
            return Variable(text[1:])
        return Constant(text)
    name, line, col = _head(sx, "function", "empty function application", "expected function name")
    if name in CONNECTIVES:
        raise Error(f"connective {name!r} in term position", line, col)
    return Function(name, tuple(_parse_term(a) for a in sx[2:]))


def _parse_quantifier(sx, cls):
    kw, line, col = sx[1]
    if len(sx) != 4:
        raise Error(f"{kw} needs a variable list and a body", line, col)
    varlist = sx[2]
    if isinstance(varlist, tuple):
        raise Error("quantifier needs a variable list", varlist[1], varlist[2])
    names = []
    for v in varlist[1:]:
        if isinstance(v, list):
            _, line, col = v[0]
            raise Error("unsupported construct: typed quantifier binding", line, col)
        text, line, col = v
        if text[0] != "?" or len(text) < 2:
            raise Error(f"expected a variable, found {text!r}", line, col)
        names.append(text[1:])
    if not names:
        _, line, col = varlist[0]
        raise Error("empty variable list", line, col)
    return cls(tuple(names), _parse_formula(sx[3]))


def _parse_formula(sx) -> Formula:
    if isinstance(sx, tuple):
        text, line, col = sx
        raise Error(f"expected a formula, found {text!r}", line, col)
    kw, line, col = _head(sx, "predicate", "empty expression",
                          "expected an operator or predicate symbol")
    body = sx[2:]
    if kw in _CONNECTIVES:
        cls, fewest, most, arity = _CONNECTIVES[kw]
        if len(body) < fewest or most is not None and len(body) > most:
            raise Error(f"{kw} takes {arity}", line, col)
        parts = tuple(_parse_formula(b) for b in body)
        return cls(parts) if most is None else cls(*parts)
    if kw in _QUANTIFIERS:
        return _parse_quantifier(sx, _QUANTIFIERS[kw])
    if kw in ("equal", "="):
        if len(body) != 2:
            raise Error("equal takes exactly two terms", line, col)
        return Equal(_parse_term(body[0]), _parse_term(body[1]))
    return Atom(kw, tuple(_parse_term(b) for b in body))


def parse_kif(source: str) -> list[Formula]:
    """Parse SUO-KIF text into a list of formulas (one per top-level form)."""
    return [_parse_formula(sx) for sx in _read_sexprs(source) if isinstance(sx, list)]


# --------------------------------------------------------------------------
# annotated forms: ";; key: value" comments attached to the next formula


@dataclass(frozen=True)
class AnnotatedForm:
    formula: Formula
    annotations: dict
    line: int


def parse_annotated(source: str) -> list[AnnotatedForm]:
    """Parse a KIF file where ``;; key: value`` comments annotate the next form.

    Only top-level comments count; plain comments are ignored.
    Annotations accumulate until the next top-level form, then attach to it.
    """
    out: list[AnnotatedForm] = []
    pending: dict = {}
    for sx in _read_sexprs(source):
        if isinstance(sx, list):
            out.append(AnnotatedForm(_parse_formula(sx), pending, sx[0][1]))
            pending = {}
        elif sx[0].startswith(";;"):
            key, colon, value = sx[0][2:].partition(":")
            if colon and key.strip():
                pending[key.strip()] = value.strip()
    return out


# --------------------------------------------------------------------------
# printer


def _form(*words: str) -> str:
    """``(word …)``: the one shape of every printed application and list."""
    return "(" + " ".join(words) + ")"


def print_term(t: Term) -> str:
    if isinstance(t, Variable):
        return "?" + t.name
    if isinstance(t, Constant):
        return t.name
    if isinstance(t, Function):
        return _form(t.name, *map(print_term, t.args))
    raise TypeError(f"not a term: {t!r}")


def print_kif(f: Formula) -> str:
    """Render a formula back to canonical single-line SUO-KIF."""
    if isinstance(f, Atom):
        return _form(f.predicate, *map(print_term, f.args))
    if isinstance(f, Equal):
        return _form("equal", print_term(f.left), print_term(f.right))
    if isinstance(f, Not):
        return _form("not", print_kif(f.body))
    if isinstance(f, Junction):
        return _form(f.keyword, *map(print_kif, f.parts))
    if isinstance(f, Implies):
        return _form("=>", print_kif(f.antecedent), print_kif(f.consequent))
    if isinstance(f, Iff):
        return _form("<=>", print_kif(f.left), print_kif(f.right))
    if isinstance(f, Quantifier):
        variables = _form(*("?" + v for v in f.variables))
        return _form(f.keyword, variables, print_kif(f.body))
    raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# structural helpers


def _relation(f: Atom | Equal) -> tuple:
    """The predicate and arguments of an atom, or ``"="`` and the two
    sides of an equation; ``microprover.clausify`` reads them here too."""
    return (f.predicate, f.args) if isinstance(f, Atom) else ("=", (f.left, f.right))


def _terms(terms, bound: frozenset, out: list) -> None:
    """Append each of ``terms`` and its subterms, in preorder, with ``bound``."""
    for t in terms:
        out.append((t, bound))
        if isinstance(t, Function):
            _terms(t.args, bound, out)


def _occurrences(f: Formula, bound: frozenset = frozenset(), out: list | None = None) -> list:
    """Each atom and equation of ``f`` in source order, each followed by
    its terms in preorder, as (node, the variable names bound there)."""
    if out is None:
        out = []
    if isinstance(f, (Atom, Equal)):
        out.append((f, bound))
        _terms(_relation(f)[1], bound, out)
        return out
    if isinstance(f, Quantifier):
        bound = bound.union(f.variables)
    if isinstance(f, (Not, Quantifier)):
        parts = (f.body,)
    elif isinstance(f, Junction):
        parts = f.parts
    elif isinstance(f, Implies):
        parts = (f.antecedent, f.consequent)
    elif isinstance(f, Iff):
        parts = (f.left, f.right)
    else:
        raise TypeError(f"not a formula: {f!r}")
    for p in parts:
        _occurrences(p, bound, out)
    return out


def free_variables_ordered(f: Formula) -> tuple[str, ...]:
    """Free variable names in first-occurrence order."""
    acc: dict = {}
    for t, bound in _occurrences(f):
        if isinstance(t, Variable) and t.name not in bound:
            acc[t.name] = None
    return tuple(acc)


def universal_closure(f: Formula) -> Formula:
    """Close free variables universally; emission-time counterpart of parsing."""
    fv = free_variables_ordered(f)
    return Forall(fv, f) if fv else f


def symbols(f: Formula) -> frozenset[str]:
    """Every predicate, function and constant name occurring in the formula."""
    acc: set = set()
    for g, _ in _occurrences(f):
        if isinstance(g, Atom):
            acc.add(g.predicate)
        elif isinstance(g, (Constant, Function)):
            acc.add(g.name)
    return frozenset(acc)


# --------------------------------------------------------------------------
# negation normal form


_DUAL = {And: Or, Or: And, Forall: Exists, Exists: Forall}


def nnf(f: Formula, positive: bool = True) -> Formula:
    """Negation normal form of ``f`` if ``positive``, else of its negation:
    no ``=>`` or ``<=>``, and ``not`` only on atoms and equations.  These
    are the package's one statement of the polarity rules, which
    ``microprover.clausify`` reads through it.  ``not`` flips the
    polarity, and under negative polarity each junction and quantifier is
    its dual; ``(=> a c)`` reads as ``(or (not a) c)``; ``(<=> l r)`` reads
    as ``(or (and l r) (and (not l) (not r)))``, and its negation as
    ``(or (and l (not r)) (and (not l) r))``.  Parts keep their order."""
    if isinstance(f, (Atom, Equal)):
        return f if positive else Not(f)
    if isinstance(f, Not):
        return nnf(f.body, not positive)
    if isinstance(f, (Junction, Quantifier)):
        cls = type(f) if positive else _DUAL[type(f)]
        if isinstance(f, Junction):
            return cls(tuple(nnf(p, positive) for p in f.parts))
        return cls(f.variables, nnf(f.body, positive))
    if isinstance(f, Implies):
        cls = Or if positive else And
        return cls((nnf(f.antecedent, not positive), nnf(f.consequent, positive)))
    if isinstance(f, Iff):
        return Or((
            And((nnf(f.left), nnf(f.right, positive))),
            And((nnf(f.left, False), nnf(f.right, not positive))),
        ))
    raise TypeError(f"not a formula: {f!r}")
