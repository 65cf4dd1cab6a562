"""The solver-configuration schema version.

One integer names the semantics of a configured portfolio solve: which
fields go into a cache key and how per-member seeds are derived.  It is
folded into every
:func:`repro.service.batch.solve_context` (and therefore into every
:class:`repro.service.cache.ResultCache` key) and recorded in every
scoreboard baseline (:mod:`repro.corpus.baseline`), so results computed
under one generation of solver semantics can never masquerade as
results of another:

* a cache written before a bump simply stops hitting — entries age out
  instead of serving stale depths as fresh wins;
* a baseline written before a bump is flagged by ``scoreboard diff``
  instead of being silently compared against incomparable runs.

Bump the version whenever solver behaviour changes in a way that makes
previously computed results incomparable: seed-derivation changes,
member-semantics changes, budget-accounting changes, default-portfolio
re-ordering.  Do NOT bump for pure performance work that leaves depths,
winners, and provenance identical.
"""

from __future__ import annotations

SOLVER_SCHEMA_VERSION = 2
"""Current generation of the solver-configuration schema.

Version 1 is the implicit pre-versioning era (contexts carried no
schema field); version 2 introduced explicit versioning alongside the
standing benchmark corpus and scoreboard baselines.
"""
