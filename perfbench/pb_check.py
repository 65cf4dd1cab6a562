"""Answer checks: every result the benchmark sees is verified.

Each answer is checked three ways:

* its partition is an exact disjoint cover of the matrix's ones,
  re-checked here on bit masks without the program's own validator;
* its depth is not below the instance's lower bound (the a-priori bound
  the corpus carries, or the Eq. 3 rank bound recorded when the
  expected answers were generated);
* its depth and ``optimal`` flag equal the recorded expected answer.

``expected.json`` holds the expected answers for every instance the
workloads can draw; ``make_expected.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

EXPECTED_PATH = Path(__file__).resolve().with_name("expected.json")

EXPECTED_FORMAT = 1


@dataclass(frozen=True)
class Expected:
    depth: int
    optimal: bool
    lower_bound: int
    digest: str


def matrix_digest(matrix: Any) -> str:
    """Short content hash of a matrix; catches generator drift."""
    text = f"{matrix.num_rows}x{matrix.num_cols}:" + ",".join(
        format(mask, "x") for mask in matrix.row_masks
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, Expected]]:
    """``workload -> case id -> Expected``."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != EXPECTED_FORMAT:
        raise ValueError(f"{path}: unknown expected-answers format")
    return {
        workload: {
            case_id: Expected(
                depth=entry["depth"],
                optimal=entry["optimal"],
                lower_bound=entry["lower_bound"],
                digest=entry["digest"],
            )
            for case_id, entry in cases.items()
        }
        for workload, cases in payload["workloads"].items()
    }


def write_expected(
    path: Path, workloads: Dict[str, Dict[str, Expected]], pool_seed: int
) -> None:
    payload = {
        "format": EXPECTED_FORMAT,
        "pool_seed": pool_seed,
        "workloads": {
            workload: {
                case_id: {
                    "depth": entry.depth,
                    "optimal": entry.optimal,
                    "lower_bound": entry.lower_bound,
                    "digest": entry.digest,
                }
                for case_id, entry in cases.items()
            }
            for workload, cases in workloads.items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def check_pool(
    instances: Iterable[Any], expected: Dict[str, Expected]
) -> None:
    """Refuse to run when the generated pool differs from the one the
    expected answers were recorded for."""
    for instance in instances:
        entry = expected.get(instance.case_id)
        if entry is None:
            raise ValueError(f"no expected answer for {instance.case_id}")
        if entry.digest != matrix_digest(instance.matrix):
            raise ValueError(
                f"{instance.case_id}: matrix differs from the one the "
                "expected answers were recorded for"
            )


def partition_problem(matrix: Any, partition: Any) -> Optional[str]:
    """Why ``partition`` is not an exact cover of ``matrix``, or None."""
    cover = [0] * matrix.num_rows
    for rectangle in partition:
        rows, cols = rectangle.row_mask, rectangle.col_mask
        if rows == 0 or cols == 0:
            return "empty rectangle"
        if rows >> matrix.num_rows:
            return "rectangle row outside the matrix"
        row = 0
        while rows:
            if rows & 1:
                if cover[row] & cols:
                    return f"rectangles overlap in row {row}"
                cover[row] |= cols
            rows >>= 1
            row += 1
    if tuple(cover) != tuple(matrix.row_masks):
        return "rectangles do not cover exactly the ones of the matrix"
    return None


def answer_problem(
    expected: Expected,
    *,
    depth: int,
    optimal: bool,
    lower_bound: int = 0,
    matrix: Any = None,
    partition: Any = None,
) -> Optional[str]:
    """Why an answer is wrong, or None when it passes every check.

    ``lower_bound`` is an a-priori bound the instance itself carries;
    it is combined with the recorded rank bound.
    """
    if partition is not None:
        problem = partition_problem(matrix, partition)
        if problem is not None:
            return f"invalid partition: {problem}"
        if len(partition) != depth:
            return f"reported depth {depth} != {len(partition)} rectangles"
    bound = max(expected.lower_bound, lower_bound)
    if depth < bound:
        return f"depth {depth} below lower bound {bound}"
    if depth != expected.depth:
        return f"depth {depth} != expected {expected.depth}"
    if optimal != expected.optimal:
        return f"optimal={optimal} != expected {expected.optimal}"
    return None
