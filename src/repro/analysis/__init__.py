"""Static analysis: the engine's concurrency & determinism contracts,
enforced at the AST instead of probabilistically at runtime.

The headline guarantee — fixed-seed results byte-identical across the
cooperative and processes backends — rests on invariants the
equivalence tests can only probe after the fact: RNG lives solely in
scheduler-side growth, shared state is written under locks, sets never
feed ordered outputs unsorted, fingerprints are pure content hashes.
This package verifies those invariants *once, statically* (the same
amortise-the-expensive-check instinct the paper applies to semantic
validation), with stdlib ``ast``/``tokenize`` only — the linter is
self-hosted and adds no dependencies.

Contract
========

* ``repro lint [PATHS]`` (and ``python -m repro.analysis``) lints
  ``src/repro`` by default, exits 0 when clean, 1 on findings, 2 on
  usage errors.  ``--format json`` emits the :meth:`LintReport.as_dict`
  shape; the default human format is ``path:line:col CODE message``.
* ``--changed --since REF`` reports findings only for files changed vs
  a git ref, while still *analysing* the full tree — project-wide rules
  (reachability, taxonomy coverage, stage attribution) stay sound.
* Suppressions are ``# repro: ignore[CODE, ...] justification``
  comments: trailing form silences its own line, standalone form the
  next line, and either silences findings anchored to that line (rules
  may anchor to a class definition so one reviewed comment exempts a
  single-writer class).  A suppression that silences nothing is itself
  a finding (REP501) — the committed baseline stays empty in both
  directions.
* The rule catalogue and per-rule contracts live in
  :mod:`repro.analysis.rules` (``repro lint --list-rules`` prints it);
  codes are stable: REP1xx RNG/growth placement, REP2xx locking,
  REP3xx determinism, REP4xx observability/taxonomy, REP0xx/REP5xx
  framework.

Layout
======

==============  =====================================================
module          responsibility
==============  =====================================================
``findings``    :class:`Finding` — one violation, sortable, JSON-able
``project``     parsed universe: modules, import graph, suppressions
``rules``       :class:`LintConfig`, :class:`Rule`, the catalogue
``linter``      discovery, execution, suppression matching, report
``cli``         argparse front-end behind ``repro lint``
==============  =====================================================
"""

from repro.analysis.findings import Finding
from repro.analysis.linter import LintReport, lint_paths
from repro.analysis.project import Project, SourceModule, load_project
from repro.analysis.rules import (
    RULE_DESCRIPTIONS,
    LintConfig,
    Rule,
    default_rules,
)

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "Project",
    "RULE_DESCRIPTIONS",
    "Rule",
    "SourceModule",
    "default_rules",
    "lint_paths",
    "load_project",
]
