"""Competency-question evaluation harness for first-order ontologies."""

from pathlib import Path

__version__ = "0.1.0"

__all__ = [
    "cli",
    "coremap",
    "cqgen",
    "kif",
    "microprover",
    "ontology",
    "prover_cli",
    "report",
    "runner",
    "store",
    "tptp",
    "verdict",
    "wordnet",
]


class Error(Exception):
    """Bad input, the one error every module raises for it: ``reason``,
    found at ``line`` and ``col`` of its source where those are known.
    It reads ``[<path>:][<line>:[<col>:]] <reason>``, where :meth:`at`
    gives the path."""

    def __init__(self, reason: str, line: int | None = None, col: int | None = None):
        super().__init__(reason)
        self.reason, self.line, self.col, self.path = reason, line, col, None

    def at(self, path) -> "Error":
        """This error, found in the file ``path`` unless it names one already."""
        if self.path is None:
            self.path = path
        return self

    def __str__(self) -> str:
        where = "".join(f"{p}:" for p in (self.path, self.line, self.col) if p is not None)
        return f"{where} {self.reason}" if where else self.reason


def read_text(path) -> str:
    """The text of the UTF-8 file ``path``; bytes that are not UTF-8 raise
    an Error naming the file and line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:  # e.object holds the whole file
        line = e.object.count(b"\n", 0, e.start) + 1
        raise Error(f"not UTF-8 text: {e.reason}", line).at(path) from None
