"""Standalone prover entry point.

Runs the bundled prover over one TPTP problem file and prints SZS
output, which makes it usable as an external prover command:

    python -m cqeval.prover_cli problem.p --timeout 600

The campaign runner's builtin backend goes through :func:`prove_problem`
too, so both write the same output, and the runner reads both the same
way.

The problems of a campaign emitted in include mode all include one
axiom file, so each process keeps one base: the last file of axioms that a problem included first,
as read (its axioms and the reader's symbol tables), and its clauses,
built by the first proof attempt over it (the term table, the keyed
clauses and their keys).  It is keyed by the file's resolved path and
the text of every file that its read opened, nested includes included.
Each later problem that includes the same, unchanged file reads only
its own units and searches a copy of the base; one that includes
another file, or the same file changed, replaces it.  A problem that
includes nothing first, such as one with its axioms inline, builds its
clauses in place and leaves the base as it is.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import microprover, tptp
from .tptp import SzsStatus

_base: tuple = ()  # (tptp.AxiomFile, microprover.Base), once the base is built


def prove_problem(path, limit_seconds: float, max_literals: int, max_clauses: int) -> str:
    """Read a problem, prove it and render SZS output: the SZS lines, the
    prover's own time and a ``% Search:`` line with its counters.  Any
    failure to read or prove renders as an Error status.
    """
    global _base
    name = Path(path).name
    try:
        axioms, (_, conjecture) = tptp.read_problem(path, _base[:1])
        base = None
        if axioms and isinstance(axioms[0], tptp.AxiomFile):
            included, axioms = axioms[0], axioms[1:]
            base = _base[1] if _base and _base[0] is included else microprover.Base(included.axioms)
        inner = microprover.prove(
            axioms,
            conjecture,
            limit_seconds=limit_seconds,
            max_literals=max_literals,
            max_clauses=max_clauses,
            base=base,
        )
        if base is not None and base.built is not None:
            _base = (included, base)
    except Exception as e:
        return f"% SZS status Error for {name}\n% {e}\n"
    return (tptp.render_szs_output(inner.szs, inner.used_axioms, problem=name)
            + f"% Time elapsed: {inner.wall_seconds:.3f} s\n"
            + tptp.render_search(inner.search))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cqeval-prover",
                                     description="refute one TPTP problem")
    parser.add_argument("problem", help="TPTP problem file with one conjecture")
    parser.add_argument("--timeout", type=float, default=microprover.LIMIT_SECONDS,
                        help="wall-clock limit in seconds (default %(default)g)")
    parser.add_argument("--max-clauses", type=int, default=microprover.MAX_CLAUSES,
                        help="give up after keeping more than this many derived "
                             "clauses; input clauses do not count")
    parser.add_argument("--max-literals", type=int, default=microprover.MAX_LITERALS,
                        help="discard derived clauses longer than this")
    args = parser.parse_args(argv)
    text = prove_problem(args.problem, args.timeout, args.max_literals, args.max_clauses)
    sys.stdout.write(text)
    return 1 if tptp.parse_szs(text)[0] is SzsStatus.ERROR else 0


if __name__ == "__main__":
    raise SystemExit(main())
