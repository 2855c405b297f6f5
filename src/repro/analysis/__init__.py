"""Static analysis: document verification and project lint.

The analysis layer proves facts about the system without running it:

* :mod:`repro.analysis.plan_verifier` — semantic verification of serialized
  plans, cost tables, frontiers, store entries and service documents
  (``repro check``, the ``Session.plan`` verify hook and the service's
  ``/v1/validate`` endpoint);
* :mod:`repro.analysis.lint` — project-specific AST lint over the source
  tree (``repro lint``, the CI ``static-analysis`` job);
* :mod:`repro.analysis.passes` — the shared :class:`Finding`/:class:`Report`
  model and the ``@register_pass`` registry both are built on.
"""

from repro.analysis.passes import (
    PASSES,
    AnalysisPass,
    Finding,
    Report,
    register_pass,
    registered_passes,
)
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
    "PASSES",
    "AnalysisPass",
    "Finding",
    "Report",
    "register_pass",
    "registered_passes",
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
