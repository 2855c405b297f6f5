"""Structured findings and reports, shared by the verifier and the lint.

Every verifier or lint check is a plain function listed in its driver's
table (:data:`repro.analysis.plan_verifier.CHECKS`,
:data:`repro.analysis.lint.RULES`); adding a check is one function plus one
entry in that table.

A check produces :class:`Finding`\\ s — (rule code, severity, location,
message) — which the drivers collect into a :class:`Report`.  Reports
serialize deterministically: findings are sorted, keys are sorted, and
:meth:`Report.to_json` is byte-identical for identical inputs, so reports
can be diffed across runs and pinned in tests.

Rule codes are stable identifiers (``RV1xx`` for document verification,
``LT2xx`` for project lint) documented in the README's "Static analysis"
section; a lint rule can be silenced per line with ``# noqa: <CODE>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro import jsondoc

#: Format identifier embedded in every serialized analysis report.
REPORT_FORMAT = "repro/analysis-report/v1"

#: Allowed finding severities.  ``error`` means the subject is illegal (a
#: verify hook refuses it); ``warning`` flags a real but non-fatal issue —
#: e.g. the fan-out double-pricing gap, which mis-prices a legal plan.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a verifier or lint check."""

    #: Stable rule code (``"RV111"``, ``"LT203"``, ...).
    rule: str
    #: ``"error"`` or ``"warning"``.
    severity: str
    #: Where the problem is: a document path (``"layers[conv1]"``) or a
    #: ``file:line`` source location.
    location: str
    #: Human-readable description, self-contained (names the expected and
    #: the found value where applicable).
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def to_dict(self) -> Dict[str, str]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human rendering (``location: severity CODE message``)."""
        return f"{self.location}: {self.severity} {self.rule} {self.message}"


def _finding_key(finding: Finding) -> Tuple[str, str, str, str]:
    return (finding.location, finding.rule, finding.severity, finding.message)


@dataclass
class Report:
    """Findings collected over one subject (a document, a source tree)."""

    #: What was analysed (a file path, ``"<memory>"``, a directory).
    subject: str
    findings: List[Finding] = field(default_factory=list)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """Whether the subject is legal: no error-severity findings.

        Warnings (e.g. the fan-out double-pricing gap) do not make a
        document invalid — verify hooks accept a report with ``ok`` true.
        """
        return not self.errors

    def to_dict(self) -> dict:
        """JSON-shaped report; findings in canonical sorted order."""
        ordered = sorted(self.findings, key=_finding_key)
        return {
            "format": REPORT_FORMAT,
            "subject": self.subject,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [finding.to_dict() for finding in ordered],
        }

    def to_json(self) -> str:
        """Deterministic serialization — byte-identical for equal reports."""
        return jsondoc.dumps(self.to_dict())

    def summary(self) -> str:
        """Human-readable rendering: one line per finding plus a verdict."""
        lines = [finding.render() for finding in sorted(self.findings, key=_finding_key)]
        verdict = "ok" if self.ok else "INVALID"
        lines.append(
            f"{self.subject}: {verdict} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings)"
        )
        return "\n".join(lines)

