"""Static analysis over resource specifications (the ``repro lint`` engine).

The subsystem is a staged compiler pipeline:

* :mod:`repro.analysis.diagnostics` — the shared :class:`Diagnostic`
  record (stable ``SPEC###`` codes, severity, message, source span);
* :mod:`repro.analysis.ir` — the typed constraint IR, the expression
  utilities it is built from (interval arithmetic, type inference,
  constant folding and the clause fact extractors over the ClassAd
  expression AST), and the per-language frontends (ClassAds, vgDL, SWORD
  XML, JSON specification documents) that lower every language into it
  with spans preserved;
* :mod:`repro.analysis.passes` — every semantic analysis, written once
  over the IR: SPEC101–SPEC133, the SPEC140 cross-language render
  equivalence check and the SPEC141 ladder subsumption pass;
* :mod:`repro.analysis.spec` — the language-detecting front door
  :func:`lint_text` (the linter's only text entry point: it lowers a
  document of any language and runs the passes) and the generator's self-check
  :func:`analyze_specification`;
* :mod:`repro.analysis.preflight` — platform-aware satisfiability over
  lowered documents: which clause eliminates the last host, without
  binding anything.

Everything is deterministic and side-effect free, so the selection
pipeline can consult it without perturbing seeded replay.
"""

from repro.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    SEVERITIES,
    Diagnostic,
    DiagnosticReport,
    Span,
    render_code_table,
)
from repro.analysis.ir import (
    DEFAULT_VOCABULARY,
    NONNEGATIVE_ATTRIBUTES,
    Clause,
    Constraint,
    Document,
    Interval,
    Scope,
    infer_type,
    lower_classad,
    lower_classad_text,
    lower_document,
    lower_expression,
    lower_json_text,
    lower_spec_dict,
    lower_specification,
    lower_sword,
    lower_sword_text,
    lower_vgdl,
    lower_vgdl_text,
)
from repro.analysis.passes import (
    check_constraint,
    check_document,
    check_render_equivalence,
    check_subsumption,
    normalized_facts,
    subsumes,
)
from repro.analysis.preflight import (
    PreflightResult,
    preflight_document,
    preflight_specification,
)
from repro.analysis.spec import (
    LANGUAGES,
    SpecificationLintError,
    analyze_specification,
    detect_language,
    lint_text,
)

__all__ = [
    "DIAGNOSTIC_CODES",
    "SEVERITIES",
    "Diagnostic",
    "DiagnosticReport",
    "Span",
    "render_code_table",
    "Interval",
    "DEFAULT_VOCABULARY",
    "NONNEGATIVE_ATTRIBUTES",
    "infer_type",
    "Clause",
    "Constraint",
    "Document",
    "Scope",
    "lower_expression",
    "lower_classad",
    "lower_classad_text",
    "lower_vgdl",
    "lower_vgdl_text",
    "lower_sword",
    "lower_sword_text",
    "lower_specification",
    "lower_spec_dict",
    "lower_json_text",
    "lower_document",
    "check_constraint",
    "check_document",
    "normalized_facts",
    "check_render_equivalence",
    "subsumes",
    "check_subsumption",
    "LANGUAGES",
    "SpecificationLintError",
    "detect_language",
    "lint_text",
    "analyze_specification",
    "PreflightResult",
    "preflight_document",
    "preflight_specification",
]
