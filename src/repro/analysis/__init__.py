"""AST-based static analysis: the repo's invariants, machine-checked.

The serving stack's correctness story rests on invariants that no unit
test can watch globally — byte-identical provenance needs seeded RNG
everywhere, budget math needs monotonic clocks, forkserver and spawn
workers need picklable callables, recovery paths must fail loudly, and every
fault seam must stay chaos-tested.  This package turns those reviewer
rules into ``REPnnn`` lint rules run by ``python -m repro lint`` and
gated in tier-1 (``tests/analysis/``).

Layout: :mod:`engine` (file collection, parsing, rule dispatch,
suppression filtering), :mod:`findings` (records + baseline
fingerprints), :mod:`suppress` (``# repro-lint: disable=...``
comments), :mod:`baseline` (grandfathered findings), :mod:`rules` (the
registry), :mod:`cli` (the ``lint`` subcommand).  The full catalogue —
each rule, the invariant it protects, and how to suppress — lives in
``docs/static-analysis.md``.
"""

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    DEFAULT_SCAN_ROOTS,
    Analyzer,
    FileContext,
    FileRule,
    Project,
    ProjectRule,
    Report,
    Rule,
)
from repro.analysis.findings import Finding, fingerprint_findings
from repro.analysis.rules import default_rules, rules_by_id, select_rules
from repro.analysis.suppress import Suppressions, parse_suppressions

__all__ = [
    "Analyzer",
    "DEFAULT_BASELINE",
    "DEFAULT_SCAN_ROOTS",
    "FileContext",
    "FileRule",
    "Finding",
    "Project",
    "ProjectRule",
    "Report",
    "Rule",
    "Suppressions",
    "default_rules",
    "fingerprint_findings",
    "load_baseline",
    "parse_suppressions",
    "rules_by_id",
    "select_rules",
    "split_by_baseline",
    "write_baseline",
]
