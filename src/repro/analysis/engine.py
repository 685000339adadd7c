"""The lint engine: load → call-graph → rules → suppressions → report.

:class:`Linter` ties the framework layers together.  One run:

1. expands the requested paths into ``*.py`` files (never importing them);
2. parses each into a :class:`~repro.analysis.loader.Module` — syntax errors
   become ``parse-error`` findings rather than crashes;
3. builds the intra-package call graph once, shared by every rule;
4. runs the selected rules per module;
5. applies inline suppressions: a finding covered by a
   ``# repro-lint: disable=<rule> — <reason>`` comment moves to the
   ``suppressed`` list (with its reason); malformed suppressions and
   suppressions naming unknown rules are themselves ``bad-suppression``
   findings and can never be suppressed — the gate's "zero unexplained
   suppressions" guarantee is enforced by the linter, not by review.

:func:`lint_paths` is the one-call convenience the CLI and the tests use.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field

from .callgraph import build_callgraph
from .flow import (
    LocksetOrderCycleRule,
    LocksetUnguardedAccessRule,
    TaintErrorEnvelopeRule,
    TaintUnsanitizedReleaseRule,
)
from .loader import Module, iter_python_files, load_module
from .model import Finding, LintResult, SEVERITY_ERROR, SuppressedFinding, sort_findings
from .rules import (
    CachedEnvelopeMutationRule,
    ChargeBeforeReleaseRule,
    FloatEpsilonArithmeticRule,
    FsyncInHookRule,
    GlobalRngRule,
    LintContext,
    MonotonicDeadlinesRule,
    Rule,
    TraceKeyHygieneRule,
)

#: Rules emitted by the framework itself (not suppressible, always known).
FRAMEWORK_RULES = ("parse-error", "bad-suppression")

#: The rule suite every run executes, in catalogue order: the syntactic
#: rules of ``rules.py``, then the taint and lockset passes of ``flow/``.
RULES: "tuple[Rule, ...]" = (
    ChargeBeforeReleaseRule(),
    FloatEpsilonArithmeticRule(),
    GlobalRngRule(),
    TraceKeyHygieneRule(),
    MonotonicDeadlinesRule(),
    FsyncInHookRule(),
    CachedEnvelopeMutationRule(),
    TaintUnsanitizedReleaseRule(),
    TaintErrorEnvelopeRule(),
    LocksetUnguardedAccessRule(),
    LocksetOrderCycleRule(),
)

RULE_NAMES: "tuple[str, ...]" = tuple(rule.name for rule in RULES)


@dataclass
class Linter:
    """A configured lint run: the rule suite plus a name filter."""

    only: "tuple[str, ...] | None" = None  # --rule filter (None = all)
    _selected: "tuple[Rule, ...]" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.only is not None:
            unknown = [name for name in self.only if name not in RULE_NAMES]
            if unknown:
                raise ValueError(
                    f"unknown rule(s) {', '.join(sorted(unknown))!s} — "
                    f"available: {', '.join(sorted(RULE_NAMES))}"
                )
            self._selected = tuple(r for r in RULES if r.name in self.only)
        else:
            self._selected = RULES

    # ------------------------------------------------------------------ #

    def run(self, paths: "list[str]") -> LintResult:
        files = iter_python_files(paths)
        modules: list[Module] = []
        findings: list[Finding] = []
        for path in files:
            module, parse_error = load_module(path)
            if parse_error is not None:
                findings.append(parse_error)
                continue
            modules.append(module)

        ctx = LintContext(modules=modules, callgraph=build_callgraph(modules))
        # Suppressions are checked against the whole suite, whatever
        # ``--rule`` selected.
        known_rules = set(RULE_NAMES) | set(FRAMEWORK_RULES)
        suppressed: list[SuppressedFinding] = []

        for module in modules:
            # Malformed suppressions are findings in their own right …
            findings.extend(module.bad_suppressions)
            # … and so is naming a rule the suite has never heard of
            # (catches typos that would otherwise silently suppress nothing).
            for sup in module.suppressions:
                for name in sup.rules:
                    if name not in known_rules:
                        findings.append(
                            Finding(
                                path=module.path,
                                line=sup.line,
                                col=0,
                                rule="bad-suppression",
                                message=(
                                    f"suppression names unknown rule "
                                    f"{name!r} — available: "
                                    f"{', '.join(sorted(known_rules))}"
                                ),
                                severity=SEVERITY_ERROR,
                            )
                        )
            for rule in self._selected:
                for finding in rule.check(module, ctx):
                    sup = module.suppression_for(finding.rule, finding.line)
                    if sup is not None:
                        suppressed.append(
                            SuppressedFinding(finding=finding, reason=sup.reason)
                        )
                    else:
                        findings.append(finding)

        return LintResult(
            findings=sort_findings(findings),
            suppressed=tuple(
                sorted(suppressed, key=lambda s: s.finding)
            ),
            files=len(files),
            rules_run=tuple(r.name for r in self._selected),
        )


def lint_paths(
    paths: "list[str]", only: "tuple[str, ...] | None" = None
) -> LintResult:
    """Run the (optionally filtered) rule suite over ``paths``."""
    return Linter(only=only).run(paths)


# --------------------------------------------------------------------------- #
# output formats
# --------------------------------------------------------------------------- #

def format_text(result: LintResult) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [f.render() for f in result.findings]
    for s in result.suppressed:
        lines.append(f"{s.finding.render()}  [suppressed: {s.reason}]")
    noun = "file" if result.files == 1 else "files"
    lines.append(
        f"{len(result.findings)} finding(s), {len(result.suppressed)} "
        f"suppressed, {result.files} {noun} checked"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """The stable schema-v2 JSON report (see ``model.py`` for the contract)."""
    return json.dumps(result.report(), indent=2, sort_keys=False)
