"""``repro.analysis`` — the repro-lint static-analysis framework.

One rule suite for this codebase's DP and serving invariants: syntactic
rules (charge-before-release, integer-grid epsilon arithmetic, explicit RNG
streams, trace-key hygiene, monotonic deadlines, in-hook journal
durability, copy-on-write cached envelopes) and interprocedural ones
(privacy taint from raw counts to output channels, lockset discipline for
shared state, including the accountant's ledger).  Run it with
``python -m repro lint [paths] [--format=text|json] [--rule=NAME]``; it is
wired into ``scripts/ci.sh`` as a hard gate.

Public surface: :func:`lint_paths` / :class:`Linter` to run,
:class:`Finding` / :class:`LintResult` to consume results, ``RULES`` /
``RULE_NAMES`` for the rule suite, and the suppression helpers
(:func:`parse_suppression_comment`, :func:`render_suppression`).
"""

from .engine import (
    FRAMEWORK_RULES,
    Linter,
    RULES,
    RULE_NAMES,
    format_json,
    format_text,
    lint_paths,
)
from .loader import (
    Module,
    RULE_NAME_RE,
    Suppression,
    iter_python_files,
    load_module,
    parse_suppression_comment,
    parse_suppressions,
    render_suppression,
)
from .model import (
    Finding,
    JSON_SCHEMA_VERSION,
    LintResult,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    SuppressedFinding,
    TraceHop,
    parse_trace,
    render_trace,
    sort_findings,
)
from .rules import LintContext, Rule

__all__ = [
    "FRAMEWORK_RULES",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintContext",
    "LintResult",
    "Linter",
    "Module",
    "RULES",
    "RULE_NAMES",
    "RULE_NAME_RE",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SuppressedFinding",
    "Suppression",
    "TraceHop",
    "format_json",
    "format_text",
    "iter_python_files",
    "lint_paths",
    "load_module",
    "parse_suppression_comment",
    "parse_suppressions",
    "parse_trace",
    "render_suppression",
    "render_trace",
    "sort_findings",
]
