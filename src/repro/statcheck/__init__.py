"""`statcheck`: AST-based invariant analysis for this repository.

The paper's headline numbers are only reproducible if every simulation
run is bit-deterministic and the service around the simulator keeps its
concurrency contracts.  Those invariants -- seeded randomness, no
wall-clock reads in simulated code, picklable pool payloads, schema'd
probe events, nothing blocking the event loop -- are the kind of thing a
conventional linter cannot express, so this package ships a small
static-analysis framework with codebase-specific rules:

========  ========  ==========================================================
rule      severity  invariant
========  ========  ==========================================================
DET001    error     no unseeded ``random`` / ``np.random`` module-level calls
                    in simulation/controller code
DET002    error     no wall-clock reads (``time.time``, ``perf_counter``,
                    ``datetime.now``, ...) in simulation/controller code
DET003    error     no iteration over unordered sets in code that feeds
                    hashes or cache keys
CTL001    error     no float ``==`` / ``!=`` in controller/FSM decision code
POOL001   error     no lambdas or local functions submitted to process pools
OBS001    error     every emitted probe event kind has a registered schema in
                    ``repro.obs.schema`` -- and no schema is orphaned
PERF001   error     no fresh container allocations inside simulator hot loops
PY002     error     no bare/overbroad ``except`` that silently swallows errors
UNIT001   error     no mixed physical units in arithmetic (ns vs GHz vs V);
                    period/frequency conversions must go through ``1/f``
ASYNC001  error     no blocking calls reachable from coroutine bodies
ASYNC002  error     ``create_task`` handles are retained, not dropped
ASYNC003  error     loop-confined classes are not called from threads/pools
LOCK001   error     attributes written from two execution contexts hold a lock
MET001    error     metrics label values have statically bounded cardinality
========  ========  ==========================================================

``UNIT001`` runs on :mod:`~repro.statcheck.dataflow`'s forward walker;
the ``ASYNC*``/``LOCK001`` rules query the execution-context model in
:mod:`~repro.statcheck.concurrency`, built on the
:mod:`~repro.statcheck.semantic` symbol table and the
:mod:`~repro.statcheck.callgraph` call graph.  ``SUP001`` is reserved
for suppressions without a justification and ``E001`` for files that
fail to parse.  Properties a dynamic test already checks (cache-key
completeness, ref/fast core parity, pool-versus-serial results, span
recording) are left to those tests; DESIGN.md section 6c maps each
retired rule to the test that covers it.

Findings can be suppressed inline, with a reason after ``--``::

    risky_call()  # statcheck: disable=DET002 -- justification here

or for a whole file with ``# statcheck: disable-file=RULE`` on any line.
A pragma without a reason is itself a ``SUP001`` finding.  Run it as
``repro-dvfs check [paths]`` or ``python -m repro.statcheck``; exit
status is 0 (clean), 1 (findings), or 2 (usage error or analyzer crash),
so CI can tell a red build from a broken analyzer.

Runs use a per-module result cache with dependency-aware invalidation
(``--no-incremental`` disables it): a warm run re-checks only the
changed modules and the modules that import them, and reports on the
whole tree.
"""

from repro.statcheck.engine import (
    AnalysisReport,
    Analyzer,
    Project,
    Rule,
    SourceFile,
)
from repro.statcheck.findings import Finding, Severity
from repro.statcheck.registry import all_rules, get_rule, register

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "Finding",
    "Project",
    "Rule",
    "Severity",
    "SourceFile",
    "all_rules",
    "get_rule",
    "register",
]
