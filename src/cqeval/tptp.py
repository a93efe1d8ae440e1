"""TPTP FOF problem emission and result handling.

Handles three jobs around external refutation provers:

* render formulas to TPTP first-order form, mangling symbols so that
  ontology names survive TPTP's lexical rules, and variables one to one,
  so that distinct KIF variables stay distinct;
* read TPTP files back with one scanner: unit boundaries, include
  directives and comments for every unit, and enough of the FOF grammar
  for our own output, so the bundled prover can consume the same files
  external provers do; names are read one to one as well: variables as
  written, and symbols without the ``s__`` of a mangled one, unless two
  spellings would read as one name;
* scan prover output for its SZS status and, in a proof, the axioms it
  used: each unit with an axiom role names its ``file(_, name)`` source,
  or else itself.
"""

from __future__ import annotations

import itertools
import re
from collections import ChainMap
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from . import Error, kif, read_text
from .kif import (
    And, Atom, Constant, Equal, Exists, Forall, Formula, Function, Iff,
    Implies, Junction, Not, Or, Quantifier, Term, Variable,
)

if TYPE_CHECKING:  # pragma: no cover
    from .ontology import Ontology


_SAFE = re.compile(r"[^A-Za-z0-9_]")
_VAR_ESCAPE = re.compile(r"[^A-Za-z0-9]")


def mangle_symbol(name: str) -> str:
    """Prefixed, sanitized TPTP functor for an ontology symbol."""
    return "s__" + _SAFE.sub("_", name)


def mangle_variable(name: str) -> str:
    """TPTP variable for a KIF variable name (without the ``?``); one to
    one, as any character but a letter or digit becomes ``_<hex code>_``."""
    return "V" + _VAR_ESCAPE.sub(lambda m: f"_{ord(m.group()):x}_", name)


def demangle_symbol(name: str) -> str:
    return name[3:] if name.startswith("s__") else name


# --------------------------------------------------------------------------
# rendering


def _render_term(t: Term, table: dict) -> str:
    if isinstance(t, Variable):
        return mangle_variable(t.name)
    if isinstance(t, Constant):
        return _mangled(t.name, table)
    if isinstance(t, Function):
        return _applied(t.name, t.args, table)
    raise TypeError(f"not a term: {t!r}")


def _applied(name: str, args: tuple, table: dict) -> str:
    """``head(arg, …)``, or the bare head without arguments: the one shape
    of a function application and of an atom."""
    head = _mangled(name, table)
    if not args:
        return head
    return head + "(" + ", ".join(_render_term(a, table) for a in args) + ")"


def _mangled(name: str, table: dict) -> str:
    m = mangle_symbol(name)
    prior = table.setdefault(m, name)
    if prior != name:
        raise Error(f"{prior!r} and {name!r} both mangle to {m!r}")
    return m


def render_unit(f: Formula, table: dict | None = None) -> str:
    """Render one formula as a TPTP FOF expression.

    Atoms are bare, everything binary or n-ary gets parentheses, negation
    binds tight.  ``table`` accumulates the mangling map so collisions
    across a whole problem are caught; pass the same dict for every unit
    of one problem.
    """
    if table is None:
        table = {}
    if isinstance(f, Atom):
        return _applied(f.predicate, f.args, table)
    if isinstance(f, Equal):
        return f"({_render_term(f.left, table)} = {_render_term(f.right, table)})"
    if isinstance(f, Not):
        return "~ " + render_unit(f.body, table)
    if isinstance(f, Junction):
        op = " & " if isinstance(f, And) else " | "
        return "(" + op.join(render_unit(p, table) for p in f.parts) + ")"
    if isinstance(f, Implies):
        return f"({render_unit(f.antecedent, table)} => {render_unit(f.consequent, table)})"
    if isinstance(f, Iff):
        return f"({render_unit(f.left, table)} <=> {render_unit(f.right, table)})"
    if isinstance(f, Quantifier):
        vs = ", ".join(mangle_variable(v) for v in f.variables)
        return f"{'!' if isinstance(f, Forall) else '?'} [{vs}] : " + render_unit(f.body, table)
    raise TypeError(f"not a formula: {f!r}")


_NAME_OK = re.compile(r"^[a-z][A-Za-z0-9_]*$")


def _unit_name(name: str) -> str:
    """``name`` as a TPTP unit name: bare if it is a lower word, else
    single-quoted with its backslashes and quotes escaped."""
    if _NAME_OK.match(name):
        return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def render_fof(name: str, role: str, f: Formula, table: dict | None = None) -> str:
    """One complete fof unit; free variables are closed universally first."""
    closed = kif.universal_closure(f)
    return f"fof({_unit_name(name)}, {role}, {render_unit(closed, table)})."


# --------------------------------------------------------------------------
# problem files


@dataclass
class ProblemFile:
    path: Path
    cq_id: str


@dataclass(frozen=True)
class RenderedAxioms:
    """An ontology's axioms as TPTP units, rendered once for every problem."""

    name: str
    units: tuple[str, ...]
    labels: frozenset[str]
    table: dict  # mangled name -> source symbol, over every axiom


def render_axioms(ontology: "Ontology") -> RenderedAxioms:
    """Render every axiom as a fof(label, axiom, ...) unit; opaque units
    are kept verbatim."""
    table: dict = {}
    units = tuple(
        ax.text if ax.formula is None else render_fof(ax.label, "axiom", ax.formula, table)
        for ax in ontology.axioms
    )
    return RenderedAxioms(ontology.name, units, frozenset(ax.label for ax in ontology.axioms),
                          table)


def write_axiom_file(axioms: RenderedAxioms, path: str | Path) -> Path:
    """Write the rendered axioms as a TPTP axiom file."""
    path = Path(path)
    path.write_text("\n".join((f"% axioms: {axioms.name}", *axioms.units)) + "\n",
                    encoding="utf-8")
    return path


def write_problem(cq, axioms: RenderedAxioms, out_dir: str | Path,
                  include: str | Path | None = None, warn=None) -> ProblemFile:
    """Write ``<cq.id>.p``, in the existing ``out_dir``, containing the
    axioms and one conjecture.

    The axioms are copied into the problem, or with ``include`` (a path
    relative to the problem) named by a TPTP include directive.  Either
    way the conjecture's symbols are checked against the axioms' mangle
    table.  If an axiom label collides with the conjecture name the
    conjecture is renamed and ``warn`` is called with a message.
    """
    path = Path(out_dir) / f"{cq.id}.p"
    lines = [
        f"% cq: {cq.id}",
        f"% pattern: {cq.pattern.value}",
        f"% polarity: {cq.polarity.value}",
    ]
    if include is None:
        lines.extend(axioms.units)
    else:
        lines.append(f"include('{Path(include)}').")
    conj_name = cq.id
    if conj_name in axioms.labels:
        renamed = conj_name + "_conj"
        while renamed in axioms.labels:
            renamed += "_"
        if warn is not None:
            warn(f"conjecture name {conj_name!r} collides with an axiom, renamed to {renamed!r}")
        conj_name = renamed
    lines.append(render_fof(conj_name, "conjecture", cq.formula, ChainMap({}, axioms.table)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ProblemFile(path=path, cq_id=cq.id)


# --------------------------------------------------------------------------
# reading TPTP files


# Comments follow the TPTP grammar: % to the end of the line and /* ... */
# blocks.  Single-quoted names and double-quoted distinct objects are one
# token each, quotes and backslash escapes kept.  Any other character is a
# one-character token, so units outside the FOF subset still scan and can
# be kept verbatim.
_SKIP = r"\s+|%[^\n]*|/\*.*?\*/"
_FOF_TOKEN = re.compile(
    rf"(?P<skip>{_SKIP})"
    r"|'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\""
    r"|(?P<open>['\"]|/\*)"
    r"|\w+|<=>|=>|!=|\S",
    re.DOTALL,
)
_LEADING = re.compile(rf"(?:{_SKIP})*", re.DOTALL)  # what comes before a file's first unit


def _tok_fof(text: str, start: int = 0) -> list[tuple[str, int, int]]:
    """(text, line, offset) tokens of a TPTP file from the offset ``start``
    on, lines counted from the file's start; comments are skipped."""
    toks = []
    line = text.count("\n", 0, start) + 1
    for m in _FOF_TOKEN.finditer(text, start):
        kind = m.lastgroup
        if kind == "skip":
            line += m.group().count("\n")
        elif kind == "open":
            what = "comment" if m.group() == "/*" else "quoted name"
            raise Error(f"unterminated {what}", line)
        else:
            toks.append((m.group(), line, m.start()))
            if m.group()[0] in "'\"":
                line += m.group().count("\n")
    return toks


class _FofParser:
    """Recursive-descent parser for the FOF subset this package emits.
    One parser reads every unit of one read, so that no two spellings of
    a symbol read as one name anywhere in it."""

    def __init__(self):
        self.names: dict = {}  # each symbol token read -> the name it reads as
        self.spellings: dict = {}  # each name -> its one spelling

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else self.end

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, text):
        t, line, _ = self.next()
        if t != text:
            raise Error(f"expected {text!r}, found {t!r}", line)

    def formula(self) -> Formula:
        left = self.unitary()
        op, _, _ = self.peek()
        if op in ("&", "|"):
            parts = [left]
            join = op
            while self.peek()[0] == join:
                self.next()
                parts.append(self.unitary())
            if self.peek()[0] in ("&", "|"):
                raise Error("mixed & and | need parentheses", self.peek()[1])
            return And(tuple(parts)) if join == "&" else Or(tuple(parts))
        if op == "=>":
            self.next()
            return Implies(left, self.unitary())
        if op == "<=>":
            self.next()
            return Iff(left, self.unitary())
        return left

    def body(self, toks, end_line: int) -> Formula:
        """The formula of a unit's tokens ``toks``, which end on line
        ``end_line``; annotations after a ',' are not read."""
        self.toks, self.i, self.end = toks, 0, (None, end_line, -1)
        f = self.formula()
        t, line, _ = self.peek()
        if t not in (None, ","):
            raise Error(f"expected ',' or ')', found {t!r}", line)
        return f

    def unitary(self) -> Formula:
        t, line, _ = self.peek()
        if t == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t == "~":
            self.next()
            return Not(self.unitary())
        if t in ("!", "?"):
            self.next()
            self.expect("[")
            names = []
            while True:
                v, vline, _ = self.next()
                if v is None or not v[0].isupper():
                    raise Error(f"expected a variable, found {v!r}", vline)
                names.append(v)
                nxt, _, _ = self.next()
                if nxt == "]":
                    break
                if nxt != ",":
                    raise Error(f"expected ',' or ']', found {nxt!r}", vline)
            self.expect(":")
            body = self.unitary()
            return (Forall if t == "!" else Exists)(tuple(names), body)
        return self.atomic()

    def atomic(self) -> Formula:
        left = self.term()
        op, _, _ = self.peek()
        if op == "=":
            self.next()
            return Equal(left, self.term())
        if op == "!=":
            self.next()
            return Not(Equal(left, self.term()))
        # a bare term in formula position is an atom
        if isinstance(left, Constant):
            return Atom(left.name)
        if isinstance(left, Function):
            return Atom(left.name, left.args)
        raise Error("a variable is not a formula", self.peek()[1])

    def term(self) -> Term:
        t, line, _ = self.next()
        if t is None:
            raise Error("unexpected end of input", line)
        if t[0].isupper():
            return Variable(t)
        if not (t[0] == "'" or t[0].isalnum() or t[0] == "_"):
            raise Error(f"expected a term, found {t!r}", line)
        name = self.names.get(t)
        if name is None:
            spelled = _unquote(t)
            name = demangle_symbol(spelled)
            prior = self.spellings.setdefault(name, spelled)
            if prior != spelled:
                raise Error(f"{prior!r} and {spelled!r} both read as {name!r}", line)
            self.names[t] = name
        if self.peek()[0] == "(":
            self.next()
            args = [self.term()]
            while self.peek()[0] == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return Function(name, tuple(args))
        return Constant(name)


@dataclass(frozen=True)
class Unit:
    """One annotated formula of a TPTP file."""

    name: str
    role: str
    formula: Formula | None  # None when the unit is outside the FOF subset
    error: Error | None  # why ``formula`` is None
    text: str  # the unit verbatim, closing '.' included
    path: Path  # the file the unit is in
    line: int  # the line the unit starts on
    start: int  # the offset the unit starts at in that file


def _unit_end(toks, i: int) -> int:
    """Index of the '.' closing the unit that starts at ``toks[i]``."""
    word, line, _ = toks[i]
    if not (word[0].isalpha() and i + 1 < len(toks) and toks[i + 1][0] == "("):
        raise Error(f"expected a unit, found {word!r}", line)
    depth = 0
    for j in range(i + 1, len(toks)):
        t = toks[j][0]
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                if j + 1 < len(toks) and toks[j + 1][0] == ".":
                    return j + 1
                raise Error("expected '.' after the unit", toks[j][1])
    raise Error("unclosed unit", line)


def read_units(path: str | Path):
    """Yield every unit of a TPTP file in order.

    Include directives are resolved in place, relative to the including
    file.  fof units are parsed; other units and fof units outside the
    subset this package reads come back with ``formula`` None, and so
    does a unit that spells a symbol that an earlier unit of the read,
    or an earlier place in it, spells another way: ``s__a`` after ``a``.
    """
    return _units(Path(path), read_text(path), _FofParser(), [])


def _units(p: Path, text: str, parser: _FofParser, opened: list, depth: int = 0,
           start: int = 0):
    """The units of ``read_units`` for the file ``p``, which holds ``text``,
    from the offset ``start`` on, read by ``parser``, which every file of
    one read shares.  ``opened`` collects the absolute path and text of
    each file read."""
    opened.append((p.absolute(), text))
    try:
        toks = _tok_fof(text, start)
        i = 0
        while i < len(toks):
            j = _unit_end(toks, i)
            unit = toks[i : j + 1]
            kind, line, offset = unit[0]
            if kind == "include":
                if len(unit) != 5 or unit[2][0][0] != "'":
                    raise Error("expected include('file').", line)
                if depth == 8:
                    raise Error("include chain too deep", line)
                inc = Path(_unquote(unit[2][0]))
                inc = inc if inc.is_absolute() else p.parent / inc
                yield from _units(inc, read_text(inc), parser, opened, depth + 1)
            else:
                if len(unit) < 8 or unit[3][0] != "," or unit[5][0] != ",":
                    raise Error(f"expected {kind}(name, role, formula)", line)
                formula = error = None
                if kind == "fof":
                    try:
                        formula = parser.body(unit[6:-2], unit[-2][1])
                    except Error as e:
                        error = e
                    except ValueError as e:  # a name the AST rejects
                        error = Error(str(e), line)
                else:
                    error = Error(f"cannot parse {kind} units", line)
                yield Unit(_unquote(unit[2][0]), unit[4][0], formula,
                           error.at(p) if error else None, text[offset : unit[-1][2] + 1],
                           p, line, offset)
            i = j + 1
    except Error as e:
        raise e.at(p) from None


AXIOM_ROLES = ("axiom", "hypothesis", "definition", "lemma")  # the roles read as axioms


@dataclass(frozen=True, eq=False)
class SharedAxioms:
    """The axioms that come before a problem's conjecture, as read,
    includes and all, so that later problems that start with the same
    text need not read them again."""

    folder: Path  # the problem's, resolved: includes are relative to it
    source: str  # the problem's text from its first unit up to its conjecture
    opened: tuple  # (absolute path, text) of each file that text includes
    axioms: tuple  # (name, formula) pairs in read order
    names: dict  # the reader's symbol tables after the last of them (see _FofParser)
    spellings: dict

    def unchanged(self) -> bool:
        """Whether every file that the source includes still holds the same text."""
        try:
            return all(p.read_text(encoding="utf-8") == text for p, text in self.opened)
        except (OSError, ValueError):  # gone, or no longer UTF-8: read it again to say why
            return False


_last_read: SharedAxioms | None = None  # the process's last shared read


def read_problem(path: str | Path, shared: bool = False):
    """Read a problem file: ([(name, formula), ...] axioms, (name, formula) conjecture).

    Includes are resolved relative to the including file.  Units outside
    the FOF subset are rejected; ontology text passed through verbatim
    stays fof in this package's pipelines.

    With ``shared``, the axioms before the conjecture, in the problem or
    in files it includes, lead the axioms as one ``SharedAxioms``, made
    only from a read that met no error.  The process keeps the last one
    for a later problem in the same resolved folder whose text, from its
    first unit, starts with the same source, while every file that source
    includes is unchanged: that problem reads only the rest of its text,
    over the kept symbol tables.  A conjecture from an included file, or
    with no axiom before it, makes none.
    """
    global _last_read
    path = Path(path)
    text = read_text(path)
    parser = _FofParser()
    first = _LEADING.match(text).end()  # where the problem's first unit starts
    last, axioms, start = _last_read, [], 0
    if (shared and last is not None and text.startswith(last.source, first)
            and last.folder == path.parent.resolve() and last.unchanged()):
        axioms.append(last)
        parser.names, parser.spellings = dict(last.names), dict(last.spellings)
        start = first + len(last.source)  # read only what follows the source
    opened: list = []
    conjecture = leading = None
    for unit in _units(path, text, parser, opened, start=start):
        if unit.formula is None:
            raise unit.error
        if unit.role == "conjecture":
            if conjecture is not None:
                raise Error(f"second conjecture {unit.name!r}", unit.line).at(unit.path)
            conjecture, n_opened = unit, len(opened)
        elif unit.role in AXIOM_ROLES:
            axioms.append((unit.name, unit.formula))
            if conjecture is None:
                leading = len(axioms), len(parser.names), len(parser.spellings)
        else:
            raise Error(f"unsupported role {unit.role!r}", unit.line).at(unit.path)
    if conjecture is None:
        raise Error("no conjecture unit").at(path)
    if shared and not start and leading and conjecture.path == path:
        n, n_names, n_spellings = leading
        _last_read = SharedAxioms(
            path.parent.resolve(), text[first : conjecture.start], tuple(opened[1:n_opened]),
            tuple(axioms[:n]), dict(itertools.islice(parser.names.items(), n_names)),
            dict(itertools.islice(parser.spellings.items(), n_spellings)))
        axioms[:n] = [_last_read]
    return axioms, (conjecture.name, conjecture.formula)


# --------------------------------------------------------------------------
# SZS status handling


class SzsStatus(Enum):
    THEOREM = "Theorem"
    COUNTER_SATISFIABLE = "CounterSatisfiable"
    SATISFIABLE = "Satisfiable"
    TIMEOUT = "Timeout"
    GAVE_UP = "GaveUp"
    RESOURCE_OUT = "ResourceOut"
    ERROR = "Error"
    NO_STATUS = "NoStatus"


_STATUS_WORDS = {
    "Theorem": SzsStatus.THEOREM,
    "Unsatisfiable": SzsStatus.THEOREM,
    "ContradictoryAxioms": SzsStatus.THEOREM,
    "CounterSatisfiable": SzsStatus.COUNTER_SATISFIABLE,
    "Satisfiable": SzsStatus.SATISFIABLE,
    "Timeout": SzsStatus.TIMEOUT,
    "GaveUp": SzsStatus.GAVE_UP,
    "ResourceOut": SzsStatus.RESOURCE_OUT,
    "MemoryOut": SzsStatus.RESOURCE_OUT,
    "Error": SzsStatus.ERROR,
    "InputError": SzsStatus.ERROR,
    "SyntaxError": SzsStatus.ERROR,
    "OSError": SzsStatus.ERROR,
}

_STATUS_RE = re.compile(r"SZS status\s+(\S+)")
_PROOF_BLOCK_RE = re.compile(r"SZS output start(.*?)SZS output end", re.DOTALL)
_NAME = r"([A-Za-z0-9_]+|'(?:[^'\\]|\\.)*')"  # a unit name, bare or quoted
_PROOF_UNIT_RE = re.compile(rf"\b(?:fof|cnf|tff)\s*\(\s*{_NAME}\s*,\s*(\w+)")
_FILE_REF_RE = re.compile(rf"\bfile\s*\(\s*[^,()]+,\s*{_NAME}\s*\)")


_ESCAPE_RE = re.compile(r"\\([\\'])")


def _unquote(name: str) -> str:
    """Dual of ``_unit_name``; a bare name comes back unchanged."""
    if name.startswith("'") and name.endswith("'"):
        return _ESCAPE_RE.sub(r"\1", name[1:-1])
    return name


def parse_szs(output: str) -> tuple[SzsStatus, tuple[str, ...]]:
    """Extract (status, used axiom names) from prover output.

    The first SZS status line wins.  Axiom names are collected from the
    proof block only when the status maps to Theorem; order of first
    appearance, deduplicated.  Each unit of the block with a role in
    ``AXIOM_ROLES`` names one axiom: the one its ``file(_, name)`` source
    gives, or else itself.  Units with other roles, the conjecture
    included, name none.
    """
    m = _STATUS_RE.search(output)
    if not m:
        return SzsStatus.NO_STATUS, ()
    status = _STATUS_WORDS.get(m.group(1), SzsStatus.GAVE_UP)
    if status is not SzsStatus.THEOREM:
        return status, ()
    proof = _PROOF_BLOCK_RE.search(output)
    block = proof.group(1) if proof else ""
    heads = list(_PROOF_UNIT_RE.finditer(block))
    used: dict = {}
    for head, nxt in zip(heads, heads[1:] + [None]):
        if head.group(2) in AXIOM_ROLES:
            source = _FILE_REF_RE.search(block, head.end(),
                                         len(block) if nxt is None else nxt.start())
            used[_unquote((source or head).group(1))] = None
    return status, tuple(used)


def render_szs_output(status: SzsStatus, used_axioms=(), problem: str = "") -> str:
    """Dual of parse_szs: a minimal output document for archived runs."""
    if status is SzsStatus.NO_STATUS:
        return ""
    suffix = f" for {problem}" if problem else ""
    lines = [f"% SZS status {status.value}{suffix}"]
    if status is SzsStatus.THEOREM and used_axioms:
        lines.append(f"% SZS output start Proof{suffix}")
        for name in used_axioms:
            lines.append(f"fof({_unit_name(name)}, axiom, $true).")
        lines.append(f"% SZS output end Proof{suffix}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SearchCounts:
    """Work done by one run of the bundled prover."""

    given: int  # clauses taken from the queue
    pairs: int  # resolution partner pairs the literal index offered
    unifications: int  # of those pairs, the ones whose atoms unified
    kept: int  # derived clauses kept
    dedup_hits: int  # clauses dropped as renamings of one already seen


def render_search(n: SearchCounts) -> str:
    """The ``% Search:`` line of the bundled prover's output."""
    return "% Search: " + " ".join(f"{k}={v}" for k, v in asdict(n).items()) + "\n"


_SEARCH_RE = re.compile(
    r"^% Search: " + " ".join(rf"{f.name}=(\d+)" for f in fields(SearchCounts)) + "$", re.M)


def parse_search(output: str) -> SearchCounts | None:
    """The counters of a :func:`render_search` line, or None without one."""
    m = _SEARCH_RE.search(output)
    return SearchCounts(*map(int, m.groups())) if m else None


@dataclass(frozen=True)
class ProverResult:
    szs: SzsStatus
    wall_seconds: float
    used_axioms: tuple[str, ...] = ()
    raw_output_path: str | None = None
    search: SearchCounts | None = None

    def __post_init__(self):
        object.__setattr__(self, "used_axioms", tuple(self.used_axioms))
        if self.szs is not SzsStatus.THEOREM and self.used_axioms:
            raise ValueError("used_axioms may only accompany a Theorem result")
