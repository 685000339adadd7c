"""``repro.analysis.flow`` — the interprocedural taint and lockset rules.

Two rule families on one fixpoint dataflow substrate:

* **Privacy taint** (``taint.py`` over ``dataflow.py``): sources are the raw
  row/count accessors, sanitizers are the mechanism release methods declared
  in :mod:`repro.privacy.manifest` (new backends self-register), sinks are
  the serving tier's output channels.  Any source → sink path that never
  crosses a sanitizer is a ``taint-unsanitized-release`` finding; tainted
  values in exception messages / error envelopes are
  ``taint-error-envelope`` findings.  Findings carry a full flow trace
  (source → hops → sink) in the v2 JSON schema.

* **Lockset** (``lockset.py``): infers guarded-by relations for shared
  mutable attributes in classes that own locks, verifies the
  caller-holds-lock helper idiom by fixpoint, and reports accesses outside
  the inferred lockset (``lockset-unguarded-access``) plus inconsistent
  lock-acquisition orders (``lockset-order-cycle``).  Ledger state of
  ``*Accountant*`` classes is declared lock-guarded even before any locked
  access exists.

The rules run in the one suite of :class:`~repro.analysis.engine.Linter`,
beside the syntactic rules of ``rules.py``: same Finding/suppression model,
same report schema, same CLI.
"""

from .dataflow import FlowAnalysis, FunctionSummary, Taint, TaintConfig, fixpoint
from .lockset import LocksetOrderCycleRule, LocksetUnguardedAccessRule
from .taint import (
    TaintErrorEnvelopeRule,
    TaintUnsanitizedReleaseRule,
    load_taint_config,
)

__all__ = [
    "FlowAnalysis",
    "FunctionSummary",
    "LocksetOrderCycleRule",
    "LocksetUnguardedAccessRule",
    "Taint",
    "TaintConfig",
    "TaintErrorEnvelopeRule",
    "TaintUnsanitizedReleaseRule",
    "fixpoint",
    "load_taint_config",
]
