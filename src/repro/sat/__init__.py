"""From-scratch SAT solving substrate: it stands in for the paper's z3
(see :mod:`repro.sat.solver`)."""

from repro.sat.brute import brute_force_count, brute_force_model
from repro.sat.cardinality import (
    at_least_one,
    at_most_one,
    at_most_one_pairwise,
    at_most_one_sequential,
    exactly_one,
)
from repro.sat.dimacs import parse_dimacs, to_dimacs, write_dimacs
from repro.sat.formula import ClauseSink, CnfFormula
from repro.sat.instances import pigeonhole, random_ksat, xor_chain
from repro.sat.proof import (
    ProofEvent,
    ProofLog,
    RupChecker,
    check_refutation,
    is_valid_refutation,
    proof_stats,
)
from repro.sat.solver import CdclSolver, SolverStats, SolveStatus, luby
from repro.sat.tseitin import (
    encode_less_than_constant,
    gate_and,
    gate_equals,
    gate_iff,
    gate_or,
    gate_xor,
    implies,
)

__all__ = [
    "CdclSolver",
    "ClauseSink",
    "CnfFormula",
    "SolveStatus",
    "SolverStats",
    "at_least_one",
    "at_most_one",
    "at_most_one_pairwise",
    "at_most_one_sequential",
    "brute_force_count",
    "brute_force_model",
    "encode_less_than_constant",
    "exactly_one",
    "gate_and",
    "gate_equals",
    "gate_iff",
    "gate_or",
    "gate_xor",
    "implies",
    "luby",
    "parse_dimacs",
    "pigeonhole",
    "ProofEvent",
    "ProofLog",
    "RupChecker",
    "check_refutation",
    "is_valid_refutation",
    "proof_stats",
    "random_ksat",
    "xor_chain",
    "to_dimacs",
    "write_dimacs",
]
