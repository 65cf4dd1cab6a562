"""Binary matrix completion: addressing with don't-care vacancies."""

from repro.completion.exact import (
    MaskedOutcome,
    masked_minimum_addressing,
)
from repro.completion.heuristic import (
    masked_pack_rows_once,
    masked_row_packing,
)
from repro.completion.masked import (
    MaskedMatrix,
    masked_fooling_number,
    validate_masked_partition,
)

__all__ = [
    "MaskedMatrix",
    "MaskedOutcome",
    "masked_fooling_number",
    "masked_minimum_addressing",
    "masked_pack_rows_once",
    "masked_row_packing",
    "validate_masked_partition",
]
