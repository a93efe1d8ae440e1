"""SUO-KIF first-order fragment: formula AST, parser and printer.

The fragment covers exactly what ontology axioms and competency questions
need: atoms over constants, variables and function applications, equality,
the boolean connectives, and the two quantifiers.  Anything beyond it (row
variables, quoted strings, variables in predicate or function position,
typed quantifier bindings) is rejected with a positioned error so the
caller knows the input needs a pre-translated form.

The reader makes one pass over the source with one compiled pattern and
builds the nested forms as it goes; each token keeps its line and
column, so every error names both (:meth:`KifError.at` adds the file).
Faults of the s-expression layer (parens, quotes, row variables) are
reported in source order, before any fault of the fragment's grammar.

Conventions baked into the AST:

* variable names are stored without the leading ``?``;
* ``and`` / ``or`` are n-ary; nested applications of the same connective
  are flattened on construction, preserving source order;
* ``equal`` and ``=`` both parse to :class:`Equal`, never to an atom;
* free variables stay free in the AST and are closed universally only at
  emission time (see :func:`universal_closure`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class KifError(Exception):
    """Base class for everything this parser can raise: ``reason``, found
    at ``line`` and ``col`` of the source."""

    def __init__(self, line: int, col: int, reason: str, message: str):
        self.line = line
        self.col = col
        self.reason = reason
        super().__init__(message)

    def at(self, path) -> str:
        """The error as ``<path>:<line>:<col>: <reason>``."""
        return f"{path}:{self.line}:{self.col}: {self.reason}"


class KifSyntaxError(KifError):
    def __init__(self, line: int, col: int, reason: str):
        super().__init__(line, col, reason, f"{line}:{col}: {reason}")


class UnsupportedConstruct(KifError):
    """Input is well-formed SUO-KIF but outside the first-order fragment."""

    def __init__(self, line: int, col: int, construct: str):
        self.construct = construct
        reason = f"unsupported construct: {construct}"
        super().__init__(line, col, reason, f"line {line}: {reason}")


def _check_name(name: str, what: str) -> None:
    if not name or any(c in name for c in ' \t\n()"'):
        raise ValueError(f"bad {what} name: {name!r}")


# --------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __post_init__(self):
        _check_name(self.name, "variable")


@dataclass(frozen=True)
class Constant(Term):
    name: str

    def __post_init__(self):
        _check_name(self.name, "constant")


@dataclass(frozen=True)
class Function(Term):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        _check_name(self.name, "function")
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


def _flatten(parts, cls) -> tuple:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, cls):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return tuple(flat)


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        flat = _flatten(self.parts, And)
        if len(flat) < 2:
            raise ValueError("and needs at least two parts")
        object.__setattr__(self, "parts", flat)


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        flat = _flatten(self.parts, Or)
        if len(flat) < 2:
            raise ValueError("or needs at least two parts")
        object.__setattr__(self, "parts", flat)


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    variables: tuple[str, ...]
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("quantifier needs at least one variable")


@dataclass(frozen=True)
class Exists(Formula):
    variables: tuple[str, ...]
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("quantifier needs at least one variable")


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
                    raise KifSyntaxError(line, col, "unbalanced ')'")
                stack.pop()
            elif ch == ";":
                if not stack:
                    exprs.append((word, line, col))
            elif ch == '"':
                raise UnsupportedConstruct(line, col, "quoted term")
            elif ch == "@":
                raise UnsupportedConstruct(line, col, f"row variable {word}")
            elif stack:
                stack[-1].append((word, line, col))
            else:
                raise KifSyntaxError(line, col, "expected '(' at top level")
    if stack:
        _, line, col = stack[-1][0]
        raise KifSyntaxError(line, col, "unclosed '('")
    return exprs


# --------------------------------------------------------------------------
# parser

CONNECTIVES = frozenset({"=>", "<=>", "and", "or", "not", "forall", "exists", "equal", "="})


def _parse_term(sx) -> Term:
    if isinstance(sx, tuple):
        text, line, col = sx
        if text[0] == "?":
            if len(text) < 2:
                raise KifSyntaxError(line, col, "empty variable name")
            return Variable(text[1:])
        return Constant(text)
    _, line, col = sx[0]
    if len(sx) < 2:
        raise KifSyntaxError(line, col, "empty function application")
    head = sx[1]
    if isinstance(head, list):
        raise KifSyntaxError(line, col, "expected function name")
    name, line, col = head
    if name[0] == "?":
        raise UnsupportedConstruct(line, col, "variable in function position")
    if name in CONNECTIVES:
        raise KifSyntaxError(line, col, f"connective {name!r} in term position")
    return Function(name, tuple(_parse_term(a) for a in sx[2:]))


def _parse_quantifier(sx, cls):
    kw, line, col = sx[1]
    if len(sx) != 4:
        raise KifSyntaxError(line, col, f"{kw} needs a variable list and a body")
    varlist = sx[2]
    if isinstance(varlist, tuple):
        raise KifSyntaxError(varlist[1], varlist[2], "quantifier needs a variable list")
    names = []
    for v in varlist[1:]:
        if isinstance(v, list):
            _, line, col = v[0]
            raise UnsupportedConstruct(line, col, "typed quantifier binding")
        text, line, col = v
        if text[0] != "?" or len(text) < 2:
            raise KifSyntaxError(line, col, f"expected a variable, found {text!r}")
        names.append(text[1:])
    if not names:
        _, line, col = varlist[0]
        raise KifSyntaxError(line, col, "empty variable list")
    return cls(tuple(names), _parse_formula(sx[3]))


def _parse_formula(sx) -> Formula:
    if isinstance(sx, tuple):
        text, line, col = sx
        raise KifSyntaxError(line, col, f"expected a formula, found {text!r}")
    _, line, col = sx[0]
    if len(sx) < 2:
        raise KifSyntaxError(line, col, "empty expression")
    head = sx[1]
    if isinstance(head, list):
        raise KifSyntaxError(line, col, "expected an operator or predicate symbol")
    kw, line, col = head
    if kw[0] == "?":
        raise UnsupportedConstruct(line, col, "variable in predicate position")
    body = sx[2:]
    if kw == "=>":
        if len(body) != 2:
            raise KifSyntaxError(line, col, "=> takes exactly two formulas")
        return Implies(_parse_formula(body[0]), _parse_formula(body[1]))
    if kw == "<=>":
        if len(body) != 2:
            raise KifSyntaxError(line, col, "<=> takes exactly two formulas")
        return Iff(_parse_formula(body[0]), _parse_formula(body[1]))
    if kw in ("and", "or"):
        if len(body) < 2:
            raise KifSyntaxError(line, col, f"{kw} takes at least two formulas")
        parts = tuple(_parse_formula(b) for b in body)
        return And(parts) if kw == "and" else Or(parts)
    if kw == "not":
        if len(body) != 1:
            raise KifSyntaxError(line, col, "not takes exactly one formula")
        return Not(_parse_formula(body[0]))
    if kw in ("forall", "exists"):
        return _parse_quantifier(sx, Forall if kw == "forall" else Exists)
    if kw in ("equal", "="):
        if len(body) != 2:
            raise KifSyntaxError(line, col, "equal takes exactly two terms")
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


def print_term(t: Term) -> str:
    if isinstance(t, Variable):
        return "?" + t.name
    if isinstance(t, Constant):
        return t.name
    if isinstance(t, Function):
        inner = " ".join(print_term(a) for a in t.args)
        return f"({t.name} {inner})" if inner else f"({t.name})"
    raise TypeError(f"not a term: {t!r}")


def print_kif(f: Formula) -> str:
    """Render a formula back to canonical single-line SUO-KIF."""
    if isinstance(f, Atom):
        inner = " ".join(print_term(a) for a in f.args)
        return f"({f.predicate} {inner})" if inner else f"({f.predicate})"
    if isinstance(f, Equal):
        return f"(equal {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, Not):
        return f"(not {print_kif(f.body)})"
    if isinstance(f, And):
        return "(and " + " ".join(print_kif(p) for p in f.parts) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(print_kif(p) for p in f.parts) + ")"
    if isinstance(f, Implies):
        return f"(=> {print_kif(f.antecedent)} {print_kif(f.consequent)})"
    if isinstance(f, Iff):
        return f"(<=> {print_kif(f.left)} {print_kif(f.right)})"
    if isinstance(f, Forall):
        vs = " ".join("?" + v for v in f.variables)
        return f"(forall ({vs}) {print_kif(f.body)})"
    if isinstance(f, Exists):
        vs = " ".join("?" + v for v in f.variables)
        return f"(exists ({vs}) {print_kif(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# structural helpers


def _term_vars(t: Term, bound: set, acc: list) -> None:
    if isinstance(t, Variable):
        if t.name not in bound and t.name not in acc:
            acc.append(t.name)
    elif isinstance(t, Function):
        for a in t.args:
            _term_vars(a, bound, acc)


def _free_ordered(f: Formula, bound: set, acc: list) -> None:
    if isinstance(f, Atom):
        for a in f.args:
            _term_vars(a, bound, acc)
    elif isinstance(f, Equal):
        _term_vars(f.left, bound, acc)
        _term_vars(f.right, bound, acc)
    elif isinstance(f, Not):
        _free_ordered(f.body, bound, acc)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            _free_ordered(p, bound, acc)
    elif isinstance(f, Implies):
        _free_ordered(f.antecedent, bound, acc)
        _free_ordered(f.consequent, bound, acc)
    elif isinstance(f, Iff):
        _free_ordered(f.left, bound, acc)
        _free_ordered(f.right, bound, acc)
    elif isinstance(f, (Forall, Exists)):
        _free_ordered(f.body, bound | set(f.variables), acc)
    else:
        raise TypeError(f"not a formula: {f!r}")


def free_variables_ordered(f: Formula) -> tuple[str, ...]:
    """Free variable names in first-occurrence order."""
    acc: list = []
    _free_ordered(f, set(), acc)
    return tuple(acc)


def universal_closure(f: Formula) -> Formula:
    """Close free variables universally; emission-time counterpart of parsing."""
    fv = free_variables_ordered(f)
    return Forall(fv, f) if fv else f


def _term_symbols(t: Term, acc: set) -> None:
    if isinstance(t, Constant):
        acc.add(t.name)
    elif isinstance(t, Function):
        acc.add(t.name)
        for a in t.args:
            _term_symbols(a, acc)


def symbols(f: Formula) -> frozenset[str]:
    """Every predicate, function and constant name occurring in the formula."""
    acc: set = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            acc.add(g.predicate)
            for a in g.args:
                _term_symbols(a, acc)
        elif isinstance(g, Equal):
            _term_symbols(g.left, acc)
            _term_symbols(g.right, acc)
        elif isinstance(g, Not):
            stack.append(g.body)
        elif isinstance(g, (And, Or)):
            stack.extend(g.parts)
        elif isinstance(g, Implies):
            stack.extend((g.antecedent, g.consequent))
        elif isinstance(g, Iff):
            stack.extend((g.left, g.right))
        elif isinstance(g, (Forall, Exists)):
            stack.append(g.body)
    return frozenset(acc)


# --------------------------------------------------------------------------
# negation normal form


def nnf(f: Formula) -> Formula:
    """Negation normal form: implications expanded, negation pushed to atoms."""
    if isinstance(f, (Atom, Equal)):
        return f
    if isinstance(f, And):
        return And(tuple(nnf(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(nnf(p) for p in f.parts))
    if isinstance(f, Implies):
        return Or((nnf(Not(f.antecedent)), nnf(f.consequent)))
    if isinstance(f, Iff):
        return Or((
            And((nnf(f.left), nnf(f.right))),
            And((nnf(Not(f.left)), nnf(Not(f.right)))),
        ))
    if isinstance(f, Forall):
        return Forall(f.variables, nnf(f.body))
    if isinstance(f, Exists):
        return Exists(f.variables, nnf(f.body))
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, (Atom, Equal)):
            return f
        if isinstance(g, Not):
            return nnf(g.body)
        if isinstance(g, And):
            return Or(tuple(nnf(Not(p)) for p in g.parts))
        if isinstance(g, Or):
            return And(tuple(nnf(Not(p)) for p in g.parts))
        if isinstance(g, Implies):
            return And((nnf(g.antecedent), nnf(Not(g.consequent))))
        if isinstance(g, Iff):
            return Or((
                And((nnf(g.left), nnf(Not(g.right)))),
                And((nnf(Not(g.left)), nnf(g.right))),
            ))
        if isinstance(g, Forall):
            return Exists(g.variables, nnf(Not(g.body)))
        if isinstance(g, Exists):
            return Forall(g.variables, nnf(Not(g.body)))
    raise TypeError(f"not a formula: {f!r}")
