"""SUO-KIF first-order fragment: formula AST, parser and printer.

The fragment covers exactly what ontology axioms and competency questions
need: atoms over constants, variables and function applications, equality,
the boolean connectives, and the two quantifiers.  Anything beyond it (row
variables, quoted strings, variables in predicate or function position,
typed quantifier bindings) is rejected with a positioned error so the
caller knows the input needs a pre-translated form.

Conventions baked into the AST:

* variable names are stored without the leading ``?``;
* ``and`` / ``or`` are n-ary; nested applications of the same connective
  are flattened on construction, preserving source order;
* ``equal`` and ``=`` both parse to :class:`Equal`, never to an atom;
* free variables stay free in the AST and are closed universally only at
  emission time (see :func:`universal_closure`).
"""

from __future__ import annotations

from dataclasses import dataclass


class KifError(Exception):
    """Base class for everything this parser can raise."""


class KifSyntaxError(KifError):
    def __init__(self, line: int, col: int, reason: str):
        self.line = line
        self.col = col
        self.reason = reason
        super().__init__(f"{line}:{col}: {reason}")


class UnsupportedConstruct(KifError):
    """Input is well-formed SUO-KIF but outside the first-order fragment."""

    def __init__(self, line: int, construct: str):
        self.line = line
        self.construct = construct
        super().__init__(f"line {line}: unsupported construct: {construct}")


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
# tokenizer


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            start = i
            while i < n and source[i] != "\n":
                i += 1
            toks.append(_Tok(source[start:i], line, col))
        elif ch in "()":
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        elif ch == '"':
            raise UnsupportedConstruct(line, "quoted term")
        else:
            start, scol = i, col
            while i < n and source[i] not in ' \t\r\n();"':
                i += 1
                col += 1
            text = source[start:i]
            if text.startswith("@"):
                raise UnsupportedConstruct(line, f"row variable {text}")
            toks.append(_Tok(text, line, scol))
    return toks


def _read_sexprs(toks: list[_Tok]):
    """Group a token stream into nested lists; leaves stay _Tok.

    Comments inside a form are dropped; top-level comments stay in the
    result as leaves, in source order between the forms.
    """
    exprs = []
    stack: list[list] = []
    for t in toks:
        if t.text[0] == ";":
            if not stack:
                exprs.append(t)
        elif t.text == "(":
            stack.append([t])  # keep the opener for positions
        elif t.text == ")":
            if not stack:
                raise KifSyntaxError(t.line, t.col, "unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                exprs.append(done)
        else:
            if not stack:
                raise KifSyntaxError(t.line, t.col, "expected '(' at top level")
            stack[-1].append(t)
    if stack:
        opener = stack[-1][0]
        raise KifSyntaxError(opener.line, opener.col, "unclosed '('")
    return exprs


# --------------------------------------------------------------------------
# parser

CONNECTIVES = frozenset({"=>", "<=>", "and", "or", "not", "forall", "exists", "equal", "="})


def _pos(sx) -> _Tok:
    return sx[0] if isinstance(sx, list) else sx


def _parse_term(sx) -> Term:
    if isinstance(sx, _Tok):
        if sx.text.startswith("?"):
            if len(sx.text) < 2:
                raise KifSyntaxError(sx.line, sx.col, "empty variable name")
            return Variable(sx.text[1:])
        return Constant(sx.text)
    opener = sx[0]
    if len(sx) < 2:
        raise KifSyntaxError(opener.line, opener.col, "empty function application")
    head = sx[1]
    if isinstance(head, list):
        raise KifSyntaxError(opener.line, opener.col, "expected function name")
    if head.text.startswith("?"):
        raise UnsupportedConstruct(head.line, "variable in function position")
    if head.text in CONNECTIVES:
        raise KifSyntaxError(head.line, head.col, f"connective {head.text!r} in term position")
    return Function(head.text, tuple(_parse_term(a) for a in sx[2:]))


def _parse_quantifier(sx, cls):
    opener, head = sx[0], sx[1]
    if len(sx) != 4:
        raise KifSyntaxError(head.line, head.col, f"{head.text} needs a variable list and a body")
    varlist = sx[2]
    if isinstance(varlist, _Tok):
        raise KifSyntaxError(varlist.line, varlist.col, "quantifier needs a variable list")
    names = []
    for v in varlist[1:]:
        if isinstance(v, list):
            raise UnsupportedConstruct(_pos(v).line, "typed quantifier binding")
        if not v.text.startswith("?") or len(v.text) < 2:
            raise KifSyntaxError(v.line, v.col, f"expected a variable, found {v.text!r}")
        names.append(v.text[1:])
    if not names:
        raise KifSyntaxError(_pos(varlist).line, _pos(varlist).col, "empty variable list")
    return cls(tuple(names), _parse_formula(sx[3]))


def _parse_formula(sx) -> Formula:
    if isinstance(sx, _Tok):
        raise KifSyntaxError(sx.line, sx.col, f"expected a formula, found {sx.text!r}")
    opener = sx[0]
    if len(sx) < 2:
        raise KifSyntaxError(opener.line, opener.col, "empty expression")
    head = sx[1]
    if isinstance(head, list):
        raise KifSyntaxError(opener.line, opener.col, "expected an operator or predicate symbol")
    if head.text.startswith("?"):
        raise UnsupportedConstruct(head.line, "variable in predicate position")
    body = sx[2:]
    kw = head.text
    if kw == "=>":
        if len(body) != 2:
            raise KifSyntaxError(head.line, head.col, "=> takes exactly two formulas")
        return Implies(_parse_formula(body[0]), _parse_formula(body[1]))
    if kw == "<=>":
        if len(body) != 2:
            raise KifSyntaxError(head.line, head.col, "<=> takes exactly two formulas")
        return Iff(_parse_formula(body[0]), _parse_formula(body[1]))
    if kw in ("and", "or"):
        if len(body) < 2:
            raise KifSyntaxError(head.line, head.col, f"{kw} takes at least two formulas")
        parts = tuple(_parse_formula(b) for b in body)
        return And(parts) if kw == "and" else Or(parts)
    if kw == "not":
        if len(body) != 1:
            raise KifSyntaxError(head.line, head.col, "not takes exactly one formula")
        return Not(_parse_formula(body[0]))
    if kw in ("forall", "exists"):
        return _parse_quantifier(sx, Forall if kw == "forall" else Exists)
    if kw in ("equal", "="):
        if len(body) != 2:
            raise KifSyntaxError(head.line, head.col, "equal takes exactly two terms")
        return Equal(_parse_term(body[0]), _parse_term(body[1]))
    return Atom(kw, tuple(_parse_term(b) for b in body))


def parse_kif(source: str) -> list[Formula]:
    """Parse SUO-KIF text into a list of formulas (one per top-level form)."""
    return [_parse_formula(sx) for sx in _read_sexprs(_tokenize(source)) if isinstance(sx, list)]


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
    for sx in _read_sexprs(_tokenize(source)):
        if isinstance(sx, list):
            out.append(AnnotatedForm(_parse_formula(sx), pending, sx[0].line))
            pending = {}
        elif sx.text.startswith(";;"):
            key, colon, value = sx.text[2:].partition(":")
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
