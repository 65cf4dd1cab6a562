"""A CDCL SAT solver in pure Python.

This stands in for z3, the SMT solver of the paper's toolchain: SAP
only needs a complete decision oracle for the CNF-encoded question
``r_B(M) <= b``, solved repeatedly with added narrowing clauses, so the
solver supports incremental use — clauses may be added between
``solve`` calls and learned clauses are kept.

Implemented techniques (MiniSat lineage):

* two-watched-literal propagation,
* first-UIP conflict analysis with self-subsumption clause minimization,
* VSIDS variable activities with a lazy heap and phase saving,
* Luby-sequence restarts,
* activity-based learned-clause database reduction,
* solving under assumptions,
* conflict and wall-clock budgets (returns ``UNKNOWN``).

Literals follow the DIMACS convention externally (``+v`` / ``-v``);
internally a literal is ``v << 1 | sign`` with ``sign = 1`` for negation.

The hot paths are written for CPython's interpreter:

* assignments live in a value array indexed by literal (``+1`` true,
  ``-1`` false, ``0`` unassigned), so reading a literal's value is one
  list index with no call and no sign flip;
* ``_propagate`` binds the solver's lists to locals, compacts each watch
  list in place (the watchers that stay keep their order) instead of
  building a new list per propagated literal, and adds to the
  propagation counter once per call;
* ``_analyze`` bumps the activities of all the variables it marked in
  one pass at the end, in marking order.

These keep the search itself unchanged: every watch list keeps its
order, every heap push its key, and restarts and learned-clause
reductions their schedule (``tests/sat/test_search_pinned.py`` pins the
counters of fixed solves).

When a bump takes an activity past 1e100, every activity is scaled by
1e-100 and the heap is rebuilt from the unassigned variables with the
scaled keys (assigned ones are pushed again when they are unassigned).
Without the rebuild, entries keyed at the old scale outrank every later
bump until they drain.  With a decay of 0.95 this first happens after
about 4,500 conflicts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.exceptions import SolverError
from repro.utils.timing import Deadline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sat.proof import ProofLog


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Counters accumulated across all ``solve`` calls."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    solve_calls: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "deleted_clauses": self.deleted_clauses,
            "solve_calls": self.solve_calls,
        }


def luby(base: int, index: int) -> int:
    """The Luby restart sequence: 1,1,2,1,1,2,4,... times ``base``."""
    size, sequence = 1, 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        sequence -= 1
        index %= size
    return base * (2**sequence)


class CdclSolver:
    """Conflict-driven clause-learning SAT solver.

    Usage::

        solver = CdclSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        assert solver.solve() is SolveStatus.SAT
        assert solver.model_value(b) is True
    """

    def __init__(
        self,
        *,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        restart_base: int = 100,
        max_learned: int = 4000,
        proof: Optional["ProofLog"] = None,
    ) -> None:
        self.stats = SolverStats()
        self._proof = proof
        self._num_vars = 0
        self._ok = True  # False once a top-level conflict is derived

        # Per-literal state (index lit = v<<1 | sign; variable 0 unused):
        # +1 true, -1 false, 0 unassigned, and the watch lists.
        self._values: List[int] = [0, 0]
        self._watches: List[List[List[int]]] = [[], []]

        # Per-variable state (index 0 unused).
        self._levels: List[int] = [0]
        self._reasons: List[Optional[List[int]]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._seen: List[bool] = [False]

        self._clauses: List[List[int]] = []
        self._learned: List[List[int]] = []
        self._clause_activity: Dict[int, float] = {}  # id(clause) -> activity

        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0

        self._heap: List[tuple] = []  # lazy max-heap of (-activity, var)
        self._var_inc = 1.0
        self._var_decay = var_decay
        self._clause_inc = 1.0
        self._clause_decay = clause_decay
        self._restart_base = restart_base
        self._max_learned = max_learned

        self._model: List[int] = []
        self.unsat_due_to_assumptions = False
        self._core: List[int] = []

    # ------------------------------------------------------------------
    # Variable and clause management
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def new_var(self) -> int:
        self._num_vars += 1
        self._values.append(0)
        self._values.append(0)
        self._levels.append(0)
        self._reasons.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._seen.append(False)
        self._watches.append([])
        self._watches.append([])
        heapq.heappush(self._heap, (0.0, self._num_vars))
        return self._num_vars

    def new_vars(self, count: int) -> List[int]:
        return [self.new_var() for _ in range(count)]

    @staticmethod
    def _to_internal(lit: int) -> int:
        if lit > 0:
            return lit << 1
        return (-lit) << 1 | 1

    @staticmethod
    def _to_external(ilit: int) -> int:
        var = ilit >> 1
        return -var if ilit & 1 else var

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause (external literals).  Only legal at decision level
        0 (i.e., between ``solve`` calls).  Returns ``False`` if the solver
        is now known unsatisfiable at the top level.
        """
        if self._trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        if self._proof is not None:
            self._proof.axiom(list(literals))
        if not self._ok:
            return False
        seen_lits = set()
        clause: List[int] = []
        tautology = False
        for lit in literals:
            if lit == 0 or abs(lit) > self._num_vars:
                raise SolverError(f"invalid literal {lit}")
            ilit = self._to_internal(lit)
            if ilit ^ 1 in seen_lits:
                tautology = True
                break
            if ilit in seen_lits:
                continue
            value = self._values[ilit]
            if value > 0:
                tautology = True  # already satisfied at level 0
                break
            if value < 0:
                continue  # falsified at level 0: drop the literal
            seen_lits.add(ilit)
            clause.append(ilit)
        if tautology:
            return True
        if not clause:
            self._ok = False
            if self._proof is not None:
                self._proof.empty()
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                if self._proof is not None:
                    self._proof.empty()
                return False
            return True
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def _attach(self, clause: List[int]) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # ------------------------------------------------------------------
    # Assignment trail
    # ------------------------------------------------------------------
    def _enqueue(self, ilit: int, reason: Optional[List[int]]) -> None:
        values = self._values
        values[ilit] = 1
        values[ilit ^ 1] = -1
        var = ilit >> 1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(ilit)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        boundary = trail_lim[level]
        values = self._values
        phase = self._phase
        activity = self._activity
        heap = self._heap
        heappush = heapq.heappush
        # A reason left behind is never read: every enqueue rewrites it.
        for ilit in reversed(trail[boundary:]):
            var = ilit >> 1
            phase[var] = not (ilit & 1)
            values[ilit] = 0
            values[ilit ^ 1] = 0
            heappush(heap, (-activity[var], var))
        del trail[boundary:]
        del trail_lim[level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns the conflicting clause or ``None``.

        Each watch list is compacted in place: the watchers that stay are
        moved to the front in their original order and the tail is cut.
        """
        trail = self._trail
        values = self._values
        watches = self._watches
        levels = self._levels
        reasons = self._reasons
        level = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            total = len(watchers)
            kept = index = 0
            while index < total:
                clause = watchers[index]
                index += 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                first_value = values[first]
                if first_value <= 0:
                    for k in range(2, len(clause)):
                        lit = clause[k]
                        if values[lit] >= 0:
                            clause[1] = lit
                            clause[k] = false_lit
                            watches[lit].append(clause)
                            break
                    else:
                        watchers[kept] = clause
                        kept += 1
                        if first_value < 0:
                            # Conflict: retain the untraversed watchers.
                            del watchers[kept:index]
                            self._qhead = len(trail)
                            self.stats.propagations += qhead - start
                            return clause
                        var = first >> 1
                        values[first] = 1
                        values[first ^ 1] = -1
                        levels[var] = level
                        reasons[var] = clause
                        trail.append(first)
                    continue
                watchers[kept] = clause
                kept += 1
            del watchers[kept:]
        self._qhead = qhead
        self.stats.propagations += qhead - start
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _bump_vars(self, variables: Sequence[int]) -> None:
        """Add the activity increment to each of ``variables``, in order."""
        activity = self._activity
        values = self._values
        var_inc = self._var_inc
        for var in variables:
            activity[var] += var_inc
            if activity[var] > 1e100:
                self._rescale_var_activity()
                var_inc = self._var_inc
            if values[var << 1] == 0:
                heapq.heappush(self._heap, (-activity[var], var))

    def _rescale_var_activity(self) -> None:
        """Scale every activity by 1e-100 and rebuild the heap with the
        scaled keys (see the module docstring)."""
        activity = self._activity
        values = self._values
        for v in range(1, self._num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        heap = self._heap
        heap[:] = [
            (-activity[v], v)
            for v in range(1, self._num_vars + 1)
            if values[v << 1] == 0
        ]
        heapq.heapify(heap)

    def _bump_clause(self, clause: List[int]) -> None:
        key = id(clause)
        if key not in self._clause_activity:
            return
        self._clause_activity[key] += self._clause_inc
        if self._clause_activity[key] > 1e20:
            for k in self._clause_activity:
                self._clause_activity[k] *= 1e-20
            self._clause_inc *= 1e-20

    def _analyze(self, conflict: List[int]) -> tuple:
        """First-UIP analysis.  Returns (learnt_clause, backtrack_level)."""
        seen = self._seen
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        learnt: List[int] = [0]  # slot 0 for the asserting literal
        # Every variable marked seen, in marking order; these are also
        # the variables whose activity the conflict bumps.
        to_clear: List[int] = []
        path_count = 0
        index = len(trail)
        current_level = len(self._trail_lim)
        reason = conflict
        start = 0  # a reason's slot 0 is the literal it implied

        while True:
            self._bump_clause(reason)
            for q in reason[start:]:
                var = q >> 1
                if not seen[var]:
                    level = levels[var]
                    if level > 0:
                        seen[var] = True
                        to_clear.append(var)
                        if level >= current_level:
                            path_count += 1
                        else:
                            learnt.append(q)
            index -= 1
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            path_count -= 1
            if path_count == 0:
                break
            var = p >> 1
            reason = reasons[var]
            if reason is None:
                raise SolverError("decision literal reached before UIP")
            seen[var] = False
            start = 1
        learnt[0] = p ^ 1

        # Self-subsumption minimization: a literal is redundant if its
        # reason clause is covered by the rest of the learnt clause.
        minimized = [learnt[0]]
        for q in learnt[1:]:
            reason_q = reasons[q >> 1]
            if reason_q is None:
                minimized.append(q)
                continue
            for other in reason_q[1:]:
                var_o = other >> 1
                if not seen[var_o] and levels[var_o] > 0:
                    minimized.append(q)
                    break
        learnt = minimized

        # Find backtrack level and move its literal to the watch slot.
        if len(learnt) == 1:
            backtrack_level = 0
        else:
            max_index = 1
            max_level = levels[learnt[1] >> 1]
            for k in range(2, len(learnt)):
                level = levels[learnt[k] >> 1]
                if level > max_level:
                    max_index = k
                    max_level = level
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backtrack_level = max_level

        for var in to_clear:
            seen[var] = False
        self._bump_vars(to_clear)
        return learnt, backtrack_level

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        locked = set()
        for ilit in self._trail:
            reason = self._reasons[ilit >> 1]
            if reason is not None:
                locked.add(id(reason))
        candidates = [
            clause
            for clause in self._learned
            if len(clause) > 2 and id(clause) not in locked
        ]
        candidates.sort(key=lambda c: self._clause_activity.get(id(c), 0.0))
        to_remove = set(id(c) for c in candidates[: len(candidates) // 2])
        if not to_remove:
            return
        survivors = []
        for clause in self._learned:
            if id(clause) in to_remove:
                self._detach(clause)
                self._clause_activity.pop(id(clause), None)
                self.stats.deleted_clauses += 1
                if self._proof is not None:
                    self._proof.delete(
                        [self._to_external(lit) for lit in clause]
                    )
            else:
                survivors.append(clause)
        self._learned = survivors

    def _detach(self, clause: List[int]) -> None:
        for watched in (clause[0], clause[1]):
            watchlist = self._watches[watched]
            for k, entry in enumerate(watchlist):
                if entry is clause:
                    watchlist[k] = watchlist[-1]
                    watchlist.pop()
                    break

    # ------------------------------------------------------------------
    # Final conflict analysis (unsat core over assumptions)
    # ------------------------------------------------------------------
    def _analyze_final(self, failed: int) -> List[int]:
        """The subset of assumptions that falsified assumption ``failed``.

        Standard MiniSat ``analyzeFinal``: walk the implication trail
        backwards from the negation of ``failed``, expanding reasons;
        decision literals reached this way are earlier assumptions.
        Returns external literals, ``failed`` included — a jointly
        inconsistent subset of the assumptions passed to ``solve``.
        """
        core = [self._to_external(failed)]
        var0 = failed >> 1
        if self._levels[var0] == 0:
            return core  # formula alone already implies the negation
        seen = self._seen
        seen[var0] = True
        to_clear = [var0]
        for index in range(len(self._trail) - 1, -1, -1):
            ilit = self._trail[index]
            var = ilit >> 1
            if not seen[var] or self._levels[var] == 0:
                continue
            reason = self._reasons[var]
            if reason is None:
                # A decision below the assumption levels is an earlier
                # assumption (for var0 itself: the contradictory twin).
                core.append(self._to_external(ilit))
            else:
                for q in reason[1:]:
                    q_var = q >> 1
                    if not seen[q_var] and self._levels[q_var] > 0:
                        seen[q_var] = True
                        to_clear.append(q_var)
        for var in to_clear:
            seen[var] = False
        return core

    def core(self) -> List[int]:
        """Unsat core of the last assumption-refuted ``solve`` call.

        Only populated when ``solve`` returned UNSAT with
        ``unsat_due_to_assumptions``; a subset of those assumptions that
        is already inconsistent with the formula.
        """
        if not self.unsat_due_to_assumptions:
            raise SolverError(
                "no core available (last solve was not assumption-UNSAT)"
            )
        return list(self._core)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int:
        heap = self._heap
        values = self._values
        while heap:
            var = heapq.heappop(heap)[1]
            if values[var << 1] == 0:
                return var
        return 0

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SolveStatus:
        """Decide satisfiability under ``assumptions``.

        Returns :data:`SolveStatus.UNKNOWN` when a budget is exhausted; the
        solver remains usable afterwards (learned clauses are kept).
        """
        stats = self.stats
        stats.solve_calls += 1
        self.unsat_due_to_assumptions = False
        self._model = []
        if not self._ok:
            if self._proof is not None:
                self._proof.empty()
            return SolveStatus.UNSAT

        deadline = Deadline(time_budget)
        internal_assumptions = [self._to_internal(a) for a in assumptions]
        proof = self._proof
        trail_lim = self._trail_lim
        values = self._values
        propagate = self._propagate
        conflicts_at_start = stats.conflicts
        restart_count = 0
        limit = luby(self._restart_base, restart_count)
        conflicts_this_restart = 0

        status = SolveStatus.UNKNOWN
        while True:
            conflict = propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_this_restart += 1
                if not trail_lim:
                    self._ok = False
                    if proof is not None:
                        proof.empty()
                    status = SolveStatus.UNSAT
                    break
                learnt, backtrack_level = self._analyze(conflict)
                if proof is not None:
                    proof.learn([self._to_external(lit) for lit in learnt])
                self._backtrack(backtrack_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self._learned.append(learnt)
                    self._clause_activity[id(learnt)] = self._clause_inc
                    stats.learned_clauses += 1
                    self._attach(learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc /= self._var_decay
                self._clause_inc /= self._clause_decay
                if conflict_budget is not None and (
                    stats.conflicts - conflicts_at_start >= conflict_budget
                ):
                    status = SolveStatus.UNKNOWN
                    break
                if stats.conflicts % 64 == 0 and deadline.expired():
                    status = SolveStatus.UNKNOWN
                    break
                if len(self._learned) >= self._max_learned:
                    self._reduce_db()
                    self._max_learned += 500
            else:
                if conflicts_this_restart >= limit:
                    restart_count += 1
                    stats.restarts += 1
                    limit = luby(self._restart_base, restart_count)
                    conflicts_this_restart = 0
                    self._backtrack(0)
                    continue
                # Re-establish assumptions as the first decision levels.
                level = len(trail_lim)
                if level < len(internal_assumptions):
                    next_assumption = internal_assumptions[level]
                    value = values[next_assumption]
                    if value < 0:
                        self.unsat_due_to_assumptions = True
                        self._core = self._analyze_final(next_assumption)
                        status = SolveStatus.UNSAT
                        break
                    self._new_decision_level()
                    if value == 0:
                        self._enqueue(next_assumption, None)
                    continue
                var = self._pick_branch_var()
                if var == 0:
                    self._model = values[0::2]  # the positive literals
                    status = SolveStatus.SAT
                    break
                stats.decisions += 1
                self._new_decision_level()
                self._enqueue(var << 1 | (0 if self._phase[var] else 1), None)

        self._backtrack(0)
        if status is SolveStatus.UNSAT and self.unsat_due_to_assumptions:
            # Solver itself may still be satisfiable without assumptions.
            self._ok = True
        return status

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the last satisfying model."""
        if not self._model:
            raise SolverError("no model available (last solve was not SAT)")
        if not 1 <= var <= self._num_vars:
            raise SolverError(f"unknown variable {var}")
        return self._model[var] > 0

    def model(self) -> Dict[int, bool]:
        """The last model as a var -> bool mapping."""
        if not self._model:
            raise SolverError("no model available (last solve was not SAT)")
        return {v: self._model[v] > 0 for v in range(1, self._num_vars + 1)}

    # ------------------------------------------------------------------
    @classmethod
    def from_formula(cls, formula, **kwargs) -> "CdclSolver":
        """Preload a solver with a :class:`~repro.sat.formula.CnfFormula`."""
        solver = cls(**kwargs)
        solver.new_vars(formula.num_vars)
        for clause in formula.clauses:
            solver.add_clause(clause)
        return solver
