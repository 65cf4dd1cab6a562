"""CNF encodings of the EBMF decision problem ``r_B(M) <= b``.

The paper (Section III-A) encodes a function ``f : E -> P`` from 1-cells
to rectangle indices with z3's uninterpreted functions over bit-vectors,
constrained by Eq. 4: for distinct 1-cells ``e = (i, j)`` and
``e' = (i', j')``,

* ``f(e) != f(e')``                                if ``M[i, j'] = 0``,
* ``f(e) = f(e')  ->  f(e) = f((i, j'))``          if ``M[i, j'] = 1``.

(The same constraints with the roles swapped cover the ``M[i', j]`` cross
cell.)  Cells sharing a row or column need no constraint — the rectangle
closure property (Eq. 1) is trivial for them.  Any satisfying labelling's
label classes are therefore rectangles, pairwise disjoint, covering all
1s: a valid EBMF with at most ``b`` rectangles.

Two encodings are provided:

* :class:`DirectEncoder` — one boolean ``x[e, k]`` per cell/label
  ("one-hot"), with exactly-one constraints per cell (at-most-one
  pairwise up to six labels, sequential above) and optional precedence
  symmetry breaking.  Default; strongest for UNSAT proofs.
* :class:`BinaryLabelEncoder` — per-cell bit-vector labels with Tseitin
  equality gates, mirroring the paper's bit-vector formulation.

Both support the paper's incremental narrowing (Algorithm 1, line 8):
``narrow_to(b)`` adds ``f(e) != b`` for every 1-cell.

:class:`DirectEncoder` is the one label encoder for three problems.  Two
inputs, both fixed by the problem, select the rule:

* ``free`` — the cells a rectangle may cover (default: the 1s).
  Sharing is forbidden when a cross cell lies outside ``free``; a cross
  cell that is a 1 is pulled into the rectangle.  Binary matrix
  completion (:mod:`repro.completion`) passes the 1s plus the vacancies,
  so a don't-care cross cell imposes nothing.
* ``cover`` — labels may overlap (minimum rectangle cover, the boolean
  rank of :mod:`repro.cover`).  Each cell takes at least one label
  instead of exactly one, sharing pulls in no cross cell, and label
  ``k`` may first appear at the same cell as label ``k - 1``.

With the defaults the formula is the paper's EBMF encoding above.

A third input, ``first``, fixes the order in which :class:`DirectEncoder`
numbers the 1-cells: the cells it lists come first, in the given order,
then the other 1s in row-major order.  Symmetry breaking is sound for
any fixed cell order, so ``first`` never changes an answer, only the
search.  SAP passes a maximum fooling set: its cells pairwise conflict,
so unit propagation pins them to labels ``0..f-1`` before the first
decision (the graph-colouring trick of fixing a clique's colours).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import EncodingError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.sat.cardinality import at_least_one, exactly_one
from repro.sat.proof import ProofLog
from repro.sat.solver import CdclSolver, SolveStatus
from repro.sat.tseitin import encode_less_than_constant, gate_equals

Cell = Tuple[int, int]

SYMMETRY_MODES = ("none", "restricted", "precedence")


def _cell_order(matrix: BinaryMatrix, first: Sequence[Cell]) -> List[Cell]:
    """The 1-cells of ``matrix``: those in ``first``, in its order, then
    the others in row-major order."""
    ones = list(matrix.ones())
    if not first:
        return ones
    leading = list(first)
    chosen = set(leading)
    if len(chosen) != len(leading) or not chosen.issubset(ones):
        raise EncodingError(
            f"first must list distinct 1-cells of the matrix, got {first!r}"
        )
    return leading + [cell for cell in ones if cell not in chosen]


def _cell_pairs_constraints(
    matrix: BinaryMatrix,
    cells: Sequence[Cell],
    free: BinaryMatrix,
    cover: bool,
):
    """Classify all unordered cell pairs per Eq. 4.

    Yields ``("conflict", e, e2, None)`` when the cells can never share
    a rectangle (a cross cell lies outside ``free``) and
    ``("closure", e, e2, cross)`` when sharing forces the cross cell
    ``cross``, a 1 of ``matrix``, into the same rectangle.  A cover
    (``cover=True``) pulls in no cross cell.
    """
    index = {cell: t for t, cell in enumerate(cells)}
    free_rows, one_rows = free.row_masks, matrix.row_masks
    for a in range(len(cells)):
        i, j = cells[a]
        for b in range(a + 1, len(cells)):
            i2, j2 = cells[b]
            if i == i2 or j == j2:
                continue
            if not (free_rows[i] >> j2 & 1 and free_rows[i2] >> j & 1):
                yield ("conflict", a, b, None)
            elif not cover:
                for x, y in ((i, j2), (i2, j)):
                    if one_rows[x] >> y & 1:
                        yield ("closure", a, b, index[(x, y)])


class _LabelEncoder:
    """What the two label encoders share.  A subclass sets ``cells``,
    builds its formula and supplies ``decode`` and ``narrow_to``."""

    cells: List[Cell]

    def __init__(
        self, matrix: BinaryMatrix, bound: int, proof: Optional[ProofLog]
    ) -> None:
        if bound < 0:
            raise EncodingError(f"bound must be >= 0, got {bound}")
        self.matrix = matrix
        self.bound = bound
        self.solver = CdclSolver(proof=proof)

    def _needs_clauses(self, bound: int) -> bool:
        """Check a bound no wider than the current one.  False when no
        clause is needed: a zero matrix meets every bound, and no other
        matrix meets bound 0."""
        if bound > self.bound:
            raise EncodingError(
                f"cannot widen from {self.bound} to {bound}; re-encode instead"
            )
        if bound < 0:
            raise EncodingError(f"bound must be >= 0, got {bound}")
        return bool(self.cells) and bound > 0

    def solve(
        self,
        *,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SolveStatus:
        if not self.cells:
            return SolveStatus.SAT
        if self.bound == 0:
            return SolveStatus.UNSAT
        return self.solver.solve(
            assumptions,
            conflict_budget=conflict_budget,
            time_budget=time_budget,
        )

    def extract_partition(self) -> Partition:
        """Decode the last SAT model into a validated partition."""
        partition = self.decode()
        partition.validate(self.matrix)
        return partition


class DirectEncoder(_LabelEncoder):
    """One-hot label encoding of ``r_B(M) <= bound``.

    Variables ``x[t][k]`` mean "1-cell number ``t`` belongs to rectangle
    ``k``".  Narrowing to smaller bounds adds blocking units, so a single
    solver instance serves the whole SAP descent, retaining learned
    clauses between queries.

    With ``indicators=True`` the encoder additionally creates one
    monotone *usage* variable per label (``use[k]`` true whenever some
    cell takes label ``k``, and ``use[k] -> use[k-1]``).  The question
    ``r_B(M) <= b`` then becomes solving under the single assumption
    ``not use[b]`` — no clauses are added per query, so one solver
    serves bounds moving in *either* direction (SAP's ``assumption``
    descent bisects on it).

    ``free`` and ``cover`` select the problem (see the module docstring):
    the defaults encode a partition of ``matrix``.

    ``first`` lists 1-cells to number before the rest, which follow in
    row-major order.  Symmetry breaking holds for any fixed order:
    relabelling a solution's rectangles by their first cell in that
    order meets both the ``restricted`` and the ``precedence`` clauses.
    So the order changes no answer.  A fooling set makes it strong:
    cell ``t`` may take only labels ``0..t`` and conflicts with every
    earlier cell of the set, so unit propagation forces it to label
    ``t``.
    """

    def __init__(
        self,
        matrix: BinaryMatrix,
        bound: int,
        *,
        symmetry: str = "precedence",
        proof: Optional[ProofLog] = None,
        indicators: bool = False,
        free: Optional[BinaryMatrix] = None,
        cover: bool = False,
        first: Sequence[Cell] = (),
    ) -> None:
        super().__init__(matrix, bound, proof)
        if symmetry not in SYMMETRY_MODES:
            raise EncodingError(
                f"unknown symmetry mode {symmetry!r}; "
                f"expected one of {SYMMETRY_MODES}"
            )
        self.cells = _cell_order(matrix, first)
        self._use: List[int] = []
        if not self._needs_clauses(bound):
            return

        num_cells = len(self.cells)
        self._vars: List[List[int]] = [
            [self.solver.new_var() for _ in range(bound)]
            for _ in range(num_cells)
        ]

        if indicators:
            self._use = [self.solver.new_var() for _ in range(bound)]
            for k in range(1, bound):
                self.solver.add_clause([-self._use[k], self._use[k - 1]])
            for t in range(num_cells):
                for k in range(bound):
                    self.solver.add_clause(
                        [-self._vars[t][k], self._use[k]]
                    )

        for t in range(num_cells):
            literals = self._vars[t]
            if symmetry in ("restricted", "precedence"):
                usable = literals[: min(bound, t + 1)]
                for banned in literals[len(usable) :]:
                    self.solver.add_clause([-banned])
            else:
                usable = literals
            if cover:
                at_least_one(self.solver, usable)
            else:
                exactly_one(self.solver, usable)

        if symmetry == "precedence":
            # x[t][k] -> OR_{s<t} x[s][k-1]: label k may only be opened
            # after label k-1 has been used by an earlier cell, or, in a
            # cover, by the same cell.
            shared = 1 if cover else 0
            for t in range(num_cells):
                for k in range(1, min(bound, t + 1)):
                    clause = [-self._vars[t][k]]
                    clause.extend(
                        self._vars[s][k - 1] for s in range(k - 1, t + shared)
                    )
                    self.solver.add_clause(clause)

        pairs = _cell_pairs_constraints(
            matrix, self.cells, matrix if free is None else free, cover
        )
        for kind, a, b, cross in pairs:
            if kind == "conflict":
                for k in range(bound):
                    self.solver.add_clause(
                        [-self._vars[a][k], -self._vars[b][k]]
                    )
            else:
                for k in range(bound):
                    self.solver.add_clause(
                        [
                            -self._vars[a][k],
                            -self._vars[b][k],
                            self._vars[cross][k],
                        ]
                    )

    # ------------------------------------------------------------------
    @property
    def has_indicators(self) -> bool:
        return bool(self._use)

    def assumption_for(self, bound: int) -> List[int]:
        """Assumption literals asking ``r_B(M) <= bound`` (indicator mode).

        An empty list means the structural bound already enforces it.
        """
        if not self._use:
            raise EncodingError(
                "encoder was built without indicators; "
                "use narrow_to or rebuild with indicators=True"
            )
        if bound < 0:
            raise EncodingError(f"bound must be >= 0, got {bound}")
        if bound >= self.bound:
            return []
        return [-self._use[bound]]

    def narrow_to(self, bound: int) -> None:
        """Forbid labels >= ``bound`` (the paper's ``f(e) != b`` clauses)."""
        if self._needs_clauses(bound):
            for t in range(len(self.cells)):
                for k in range(bound, self.bound):
                    self.solver.add_clause([-self._vars[t][k]])
        self.bound = bound

    def decode(self) -> Partition:
        """The last SAT model's rectangles, one per label in label order,
        each spanning the rows and columns of its cells.

        Not validated: the caller checks the answer against its own
        problem (a partition, a masked partition or a cover).
        """
        groups: Dict[int, Tuple[int, int]] = {}
        for t, (i, j) in enumerate(self.cells):
            for k in range(self.bound):
                if self.solver.model_value(self._vars[t][k]):
                    row_mask, col_mask = groups.get(k, (0, 0))
                    groups[k] = (row_mask | (1 << i), col_mask | (1 << j))
        rects = [
            Rectangle(row_mask, col_mask)
            for _, (row_mask, col_mask) in sorted(groups.items())
        ]
        return Partition(rects, self.matrix.shape)


class BinaryLabelEncoder(_LabelEncoder):
    """Bit-vector label encoding of ``r_B(M) <= bound``.

    Each 1-cell carries a ``ceil(log2(bound))``-wide label; rectangle
    sharing becomes label equality through Tseitin gates — structurally
    the closest CNF rendition of the paper's bit-vector SMT encoding.
    Narrowing adds ``label < bound`` range clauses.
    """

    def __init__(
        self,
        matrix: BinaryMatrix,
        bound: int,
        *,
        proof: Optional[ProofLog] = None,
    ) -> None:
        super().__init__(matrix, bound, proof)
        self.cells = list(matrix.ones())
        if not self._needs_clauses(bound):
            return

        self.width = max(1, (bound - 1).bit_length())
        self._labels: List[List[int]] = [
            [self.solver.new_var() for _ in range(self.width)]
            for _ in range(len(self.cells))
        ]
        for bits in self._labels:
            encode_less_than_constant(self.solver, bits, bound)

        self._eq_cache: Dict[Tuple[int, int], int] = {}
        pairs = _cell_pairs_constraints(matrix, self.cells, matrix, False)
        for kind, a, b, cross in pairs:
            if kind == "conflict":
                eq = self._equality(a, b)
                self.solver.add_clause([-eq])
            else:
                eq_ab = self._equality(a, b)
                eq_ac = self._equality(a, cross)
                self.solver.add_clause([-eq_ab, eq_ac])

    def _equality(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        cached = self._eq_cache.get(key)
        if cached is None:
            cached = gate_equals(self.solver, self._labels[key[0]], self._labels[key[1]])
            self._eq_cache[key] = cached
        return cached

    def narrow_to(self, bound: int) -> None:
        """Add ``label < bound`` range clauses."""
        if self._needs_clauses(bound):
            for bits in self._labels:
                encode_less_than_constant(self.solver, bits, bound)
        self.bound = bound

    def decode(self) -> Partition:
        """The last SAT model's rectangles (not validated)."""
        labels: Dict[Cell, int] = {}
        for t, cell in enumerate(self.cells):
            value = 0
            for position, var in enumerate(self._labels[t]):
                if self.solver.model_value(var):
                    value |= 1 << position
            labels[cell] = value
        return Partition.from_assignment(self.matrix, labels)


def make_encoder(
    matrix: BinaryMatrix,
    bound: int,
    *,
    encoding: str = "direct",
    symmetry: str = "precedence",
    proof: Optional[ProofLog] = None,
    indicators: bool = False,
    free: Optional[BinaryMatrix] = None,
    cover: bool = False,
    first: Sequence[Cell] = (),
):
    """Factory over the two encoders (``direct`` | ``binary``)."""
    if encoding == "direct":
        return DirectEncoder(
            matrix,
            bound,
            symmetry=symmetry,
            proof=proof,
            indicators=indicators,
            free=free,
            cover=cover,
            first=first,
        )
    if encoding == "binary":
        if indicators:
            raise EncodingError(
                "usage indicators require the direct encoding"
            )
        if free is not None or cover or first:
            raise EncodingError(
                "don't-cares, covers and a cell order require the direct "
                "encoding"
            )
        return BinaryLabelEncoder(matrix, bound, proof=proof)
    raise EncodingError(f"unknown encoding {encoding!r}")
