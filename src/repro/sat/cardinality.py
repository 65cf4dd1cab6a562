"""Cardinality constraint encodings.

The EBMF encoder needs exactly-one constraints (each 1-cell belongs to
exactly one rectangle).  Its at-most-one follows one size rule: the
pairwise encoding up to six literals, Sinz's sequential (ladder)
encoding above.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.exceptions import EncodingError
from repro.sat.formula import ClauseSink


def at_least_one(sink: ClauseSink, literals: Sequence[int]) -> None:
    if not literals:
        raise EncodingError("at_least_one of an empty set is unsatisfiable")
    sink.add_clause(list(literals))


def at_most_one_pairwise(sink: ClauseSink, literals: Sequence[int]) -> None:
    """O(n^2) binomial encoding; best for n <= ~6."""
    for a in range(len(literals)):
        for b in range(a + 1, len(literals)):
            sink.add_clause([-literals[a], -literals[b]])


def at_most_one_sequential(sink: ClauseSink, literals: Sequence[int]) -> None:
    """Sinz's sequential (ladder) encoding: O(n) clauses, n-1 aux vars.

    ``s_i`` means "some literal among the first i+1 is true".
    """
    n = len(literals)
    if n <= 1:
        return
    registers = [sink.new_var() for _ in range(n - 1)]
    sink.add_clause([-literals[0], registers[0]])
    for i in range(1, n - 1):
        sink.add_clause([-literals[i], registers[i]])
        sink.add_clause([-registers[i - 1], registers[i]])
        sink.add_clause([-literals[i], -registers[i - 1]])
    sink.add_clause([-literals[n - 1], -registers[n - 2]])


def at_most_one(sink: ClauseSink, literals: Sequence[int]) -> None:
    """Pairwise up to six literals, sequential above."""
    literals = list(literals)
    if len(literals) <= 6:
        at_most_one_pairwise(sink, literals)
    else:
        at_most_one_sequential(sink, literals)


def exactly_one(sink: ClauseSink, literals: Sequence[int]) -> None:
    at_least_one(sink, literals)
    at_most_one(sink, literals)
