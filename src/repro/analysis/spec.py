"""Whole-specification linting: language detection and multi-language checks.

:func:`lint_text` is the entry point behind ``repro lint``: it detects (or
is told) the document language, lowers the document into the typed
constraint IR with the matching frontend, and runs the shared semantic
passes.  Four frontends are wired in — vgDL, ClassAds, SWORD XML, and
plain JSON :meth:`~repro.core.generator.ResourceSpecification.to_dict`
documents, which lint directly without rendering first.

:func:`analyze_specification` is the generator's self-check: it renders
a generated :class:`~repro.core.generator.ResourceSpecification` in all
three languages, lints each rendering plus the JSON document form, and
runs the SPEC140 cross-language equivalence pass proving every rendering
lowers to the same normalized IR — an error-level finding in the
generator's own output is a bug, not user input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.ir import lower_document, lower_spec_dict
from repro.analysis.passes import check_document, check_render_equivalence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.generator import ResourceSpecification

__all__ = [
    "LANGUAGES",
    "SpecificationLintError",
    "detect_language",
    "lint_text",
    "analyze_specification",
]

#: The specification languages the generator renders.  The linter
#: additionally understands plain JSON ``to_dict()`` documents.
LANGUAGES = ("vgdl", "classad", "sword")

#: File-name suffix → language, for CLI convenience.
_SUFFIXES = {
    ".vgdl": "vgdl",
    ".classad": "classad",
    ".ad": "classad",
    ".xml": "sword",
    ".sword": "sword",
    ".json": "json",
}


class SpecificationLintError(ValueError):
    """A generated specification failed its own static analysis.

    Raised by :meth:`ResourceSpecificationGenerator.generate
    <repro.core.generator.ResourceSpecificationGenerator.generate>` when
    the spec it just built carries an error-level finding — that is a
    generator bug, and failing loudly beats submitting a request no
    matchmaker can satisfy.  ``report`` holds the findings.
    """

    def __init__(self, message: str, report: DiagnosticReport) -> None:
        super().__init__(message)
        self.report = report


def detect_language(text: str, filename: str | None = None) -> str:
    """Guess the specification language of ``text``.

    The file suffix wins when recognised; otherwise the first
    non-whitespace character decides: ``<`` is SWORD XML, ``[`` is a
    ClassAd, ``{`` is a JSON specification document, anything else is
    vgDL.
    """
    if filename is not None:
        for suffix, lang in _SUFFIXES.items():
            if filename.lower().endswith(suffix):
                return lang
    stripped = text.lstrip()
    if stripped.startswith("<"):
        return "sword"
    if stripped.startswith("["):
        return "classad"
    if stripped.startswith("{"):
        return "json"
    return "vgdl"


def lint_text(text: str, lang: str | None = None, filename: str | None = None) -> DiagnosticReport:
    """Statically analyze one specification document.

    ``lang`` forces the language; otherwise it is detected from
    ``filename``/``text`` via :func:`detect_language`.  The document is
    lowered into the typed constraint IR by the language's frontend and
    checked by the shared semantic passes.  Raises ``ValueError`` for a
    language no frontend understands.
    """
    lang = detect_language(text, filename) if lang is None else lang
    report = DiagnosticReport()
    doc = lower_document(text, lang, report)
    if doc is not None:
        check_document(doc, report)
    return report


def analyze_specification(spec: "ResourceSpecification") -> DiagnosticReport:
    """Lint a generated specification in every output form.

    Renders the specification in all three languages plus the JSON
    document form, lowers each once, runs the semantic passes over each
    lowered document, and finally runs the SPEC140 cross-language
    equivalence pass over the same lowered documents (each rendering
    must carry the same normalized facts — a disagreement is renderer
    drift).  Returns the merged report; error-level findings mean the
    rendered documents themselves are broken (the generator self-check's
    trigger).
    """
    report = DiagnosticReport()
    docs = {}
    renderings = {
        "vgdl": spec.to_vgdl(),
        "classad": spec.to_classad(),
        "sword": spec.to_sword_xml(),
    }
    for lang in LANGUAGES:
        doc = lower_document(renderings[lang], lang, report)
        if doc is not None:
            check_document(doc, report)
            docs[lang] = doc
    json_doc = lower_spec_dict(spec.to_dict())
    check_document(json_doc, report)
    docs["json"] = json_doc
    check_render_equivalence(spec, report, docs)
    return report
