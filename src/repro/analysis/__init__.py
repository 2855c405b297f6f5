"""Static analysis: document verification and project lint.

The analysis layer proves facts about the system without running it:

* :mod:`repro.analysis.plan_verifier` — semantic verification of serialized
  plans, cost tables, frontiers, store entries and service documents
  (``repro check``, the ``Session.plan`` verify hook and the service's
  ``/v1/validate`` endpoint);
* :mod:`repro.analysis.lint` — project-specific AST lint over the source
  tree (``repro lint``, the CI ``static-analysis`` job);
* :mod:`repro.analysis.passes` — the shared :class:`Finding`/:class:`Report`
  model both produce.

Each driver runs the plain check functions listed in its own table:
:data:`~repro.analysis.plan_verifier.CHECKS` (per document kind) and
:data:`~repro.analysis.lint.RULES`.
"""

from repro.analysis.passes import Finding, Report
from repro.analysis.plan_verifier import (
    KNOWN_FORMATS,
    PlanVerificationError,
    detect_kind,
    raise_for_report,
    verify_document,
    verify_file,
    verify_plan,
)
from repro.analysis.lint import lint_file, lint_source, run_lint

__all__ = [
    "Finding",
    "Report",
    "KNOWN_FORMATS",
    "PlanVerificationError",
    "detect_kind",
    "raise_for_report",
    "verify_document",
    "verify_file",
    "verify_plan",
    "lint_file",
    "lint_source",
    "run_lint",
]
