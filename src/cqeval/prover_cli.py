"""Standalone prover entry point.

Runs the bundled prover over one TPTP problem file and prints SZS
output, which makes it usable as an external prover command:

    python -m cqeval.prover_cli problem.p --timeout 600

The campaign runner's builtin backend goes through :func:`prove_problem`
too, so both write the same output, and the runner reads both the same
way.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import microprover, tptp
from .tptp import ProverResult, SzsStatus


def prove_problem(path, limit_seconds: float, max_literals: int, max_clauses: int) -> str:
    """Read a problem, prove it and render the result's SZS output.  Any
    failure to read or prove renders as an Error result, followed by a
    ``% <message>`` line.
    """
    name = Path(path).name
    start = time.monotonic()
    try:
        axioms, (_, conjecture) = tptp.read_problem(path, shared=True)
        result = microprover.prove(axioms, conjecture, limit_seconds=limit_seconds,
                                   max_literals=max_literals, max_clauses=max_clauses)
    except Exception as e:
        failed = ProverResult(SzsStatus.ERROR, time.monotonic() - start)
        return tptp.render_result(failed, name) + f"% {e}\n"
    return tptp.render_result(result, name)


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
    for flag, value in (("--max-clauses", args.max_clauses), ("--max-literals", args.max_literals)):
        if value < 0:
            parser.error(f"argument {flag}: must not be negative, got {value}")
    text = prove_problem(args.problem, args.timeout, args.max_literals, args.max_clauses)
    sys.stdout.write(text)
    return 1 if tptp.parse_szs(text)[0] is SzsStatus.ERROR else 0


if __name__ == "__main__":
    raise SystemExit(main())
