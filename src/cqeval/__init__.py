"""Competency-question evaluation harness for first-order ontologies."""

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
