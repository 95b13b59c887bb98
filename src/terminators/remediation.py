"""Re-sourcing for terms whose citations did not hold up.

Any term not labeled Supported gets one proposal for a better source span,
made either by a parser-role backend call over the full document or by a
deterministic lexical search. A new span that verifies Supported re-sources
the term; anything else discards it. Both proposers are deterministic, so a
second proposal would only repeat the first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .backends import Backend, BackendError
from .documents import SourceDocument, SourceRef, SpanError, render_numbered, resolve_span
from .parsing import run_request
from .prompts import build_resource_request
from .terms import (
    LifecycleError,
    SchemaError,
    Term,
    TermStatus,
    parse_source_string,
)
from .verification import (
    DEFAULT_LOW_OVERLAP_THRESHOLD,
    LABEL_SUPPORTED,
    VerificationResult,
    content_tokens,
    lexical_support_score,  # unused here; perfbench's tracer wraps this name
    stem_sets,
    verify_term,
)

DEFAULT_MAX_SPAN_LINES = 6

ACTION_KEPT = "kept_supported"
ACTION_RESOURCED = "resourced"
ACTION_DISCARDED = "discarded"

TRANSITIONS: dict[TermStatus, frozenset[TermStatus]] = {
    TermStatus.EXTRACTED: frozenset(
        {
            TermStatus.VERIFIED_SUPPORTED,
            TermStatus.CONTRADICTED,
            TermStatus.UNVERIFIABLE,
        }
    ),
    TermStatus.VERIFIED_SUPPORTED: frozenset(),
    TermStatus.CONTRADICTED: frozenset({TermStatus.RESOURCED, TermStatus.DISCARDED}),
    TermStatus.UNVERIFIABLE: frozenset({TermStatus.RESOURCED, TermStatus.DISCARDED}),
    TermStatus.RESOURCED: frozenset(),
    TermStatus.DISCARDED: frozenset(),
}


def advance(term: Term, new_status: TermStatus) -> Term:
    """Move a term along the lifecycle, or refuse."""
    if new_status not in TRANSITIONS[term.status]:
        raise LifecycleError(
            f"term {term.term_id}: illegal transition "
            f"{term.status.value} -> {new_status.value}"
        )
    return replace(term, status=new_status)


def status_for_label(label: str) -> TermStatus:
    return {
        "Supported": TermStatus.VERIFIED_SUPPORTED,
        "Contradicted": TermStatus.CONTRADICTED,
        "Unverifiable": TermStatus.UNVERIFIABLE,
    }[label]


@dataclass(frozen=True)
class TrailEntry:
    proposed: SourceRef | None
    verification: VerificationResult | None
    note: str


@dataclass
class RemediationOutcome:
    term_id: str
    action: str
    old_source: SourceRef
    new_source: SourceRef | None
    trail: tuple[TrailEntry, ...]


@lru_cache(maxsize=1)
def _line_index(doc: SourceDocument) -> tuple[tuple[frozenset, frozenset], ...]:
    """Each line's stem_sets, built once per document. One entry: the
    remediate phase asks about the same document many times in a row, and
    an index per document would grow with every document a process sees."""
    return tuple(stem_sets(text) for _, text in doc.lines)


@lru_cache(maxsize=1)
def _numbered_document(doc: SourceDocument) -> str:
    """The whole numbered document every re-sourcing request shows, rendered
    once per document; one entry, as in _line_index."""
    return render_numbered(doc)


def find_best_window(
    statement: str,
    doc: SourceDocument,
    *,
    max_span_lines: int = DEFAULT_MAX_SPAN_LINES,
) -> SourceRef:
    """Contiguous window of at most max_span_lines lines with the highest
    lexical support for the statement. Ties go to the earliest start, then
    the shortest span (guaranteed by scan order plus strict improvement).

    The score equals lexical_support_score of the window's text, computed
    from a per-line token index (_line_index) cut to the statement's
    vocabulary: a window's content stems are the union of its lines'. As in
    content_tokens, a window with no content stem on any line falls back to
    all its stems; the fallback is decided per window, never per line."""
    wanted = content_tokens(statement)
    lines = [
        (bool(content), content & wanted, every & wanted)
        for content, every in _line_index(doc)
    ]
    best_ref = None
    best_score = -1.0
    for i in range(len(lines)):
        has_content = False
        content_hits: set[str] = set()
        every_hits: set[str] = set()
        for j in range(i, min(i + max_span_lines, len(lines))):
            line_has_content, line_content, line_every = lines[j]
            has_content = has_content or line_has_content
            content_hits |= line_content
            every_hits |= line_every
            hits = content_hits if has_content else every_hits
            score = len(hits) / len(wanted) if wanted else 0.0
            if score > best_score:
                best_score = score
                best_ref = SourceRef(
                    doc.source_name, doc.first_line + i, doc.first_line + j
                )
    return best_ref


def resource_term(
    term: Term,
    doc: SourceDocument,
    backend: Backend | None,
    *,
    use_llm: bool = True,
) -> SourceRef | None:
    """Propose a replacement source span for the statement, or nothing.

    The backend path shows the full numbered document and asks for a single
    term record whose source is the best span. A proposal that is not
    exactly one record, has no source string, or cites a span that does not
    parse or resolve counts as absent. An answer that still does not parse
    after the format reminder raises BackendError("malformed_output").
    """
    if not use_llm:
        return find_best_window(term.statement, doc)

    req = build_resource_request(
        doc.source_name, _numbered_document(doc), term.statement
    )
    resp = run_request(backend, req)
    records = resp.parsed
    if len(records) != 1:
        return None
    record = records[0]
    source = record.get("source")
    if not isinstance(source, str):
        return None
    try:
        ref = parse_source_string(source.strip())
        resolve_span(doc, ref)
    except (SchemaError, SpanError):
        return None
    return ref


def remediate(
    term: Term,
    result: VerificationResult,
    doc: SourceDocument,
    backend: Backend | None,
    *,
    use_llm_resource: bool = True,
    threshold: float = DEFAULT_LOW_OVERLAP_THRESHOLD,
    context_lines: int = 0,
    best_effort: bool = False,
) -> RemediationOutcome:
    """Decide one term's fate given its verification.

    Supported terms pass through untouched. Anything else gets one proposal:
    no span, or the span the term already cites, discards it unverified;
    a new span is verified and re-sources the term on Supported, otherwise
    the term is discarded. The trail records the proposal and its verdict.
    """
    if result.term_id != term.term_id:
        raise ValueError(
            f"verification {result.term_id} does not belong to term {term.term_id}"
        )
    if result.label == LABEL_SUPPORTED:
        return RemediationOutcome(
            term_id=term.term_id,
            action=ACTION_KEPT,
            old_source=term.source,
            new_source=None,
            trail=(),
        )

    def outcome(entry: TrailEntry, new_source: SourceRef | None = None):
        return RemediationOutcome(
            term_id=term.term_id,
            action=ACTION_RESOURCED if new_source else ACTION_DISCARDED,
            old_source=term.source,
            new_source=new_source,
            trail=(entry,),
        )

    try:
        proposed = resource_term(term, doc, backend, use_llm=use_llm_resource)
    except BackendError as exc:
        if not best_effort:
            raise
        return outcome(TrailEntry(None, None, f"re-sourcing failed: {exc}"))
    if proposed is None:
        return outcome(TrailEntry(None, None, "no span proposed"))
    if proposed == term.source:
        return outcome(TrailEntry(proposed, None, "proposed an already tried span"))
    try:
        verdict = verify_term(
            replace(term, source=proposed),
            doc,
            backend,
            threshold=threshold,
            context_lines=context_lines,
        )
    except BackendError as exc:
        if not best_effort:
            raise
        return outcome(TrailEntry(proposed, None, f"verification failed: {exc}"))
    entry = TrailEntry(proposed, verdict, "")
    if verdict.label == LABEL_SUPPORTED:
        return outcome(entry, proposed)
    return outcome(entry)


def apply_outcome(term: Term, outcome: RemediationOutcome) -> Term:
    """Produce the term's post-remediation record. Takes the term as it
    stands after verification (status already one of the verified states)."""
    if outcome.term_id != term.term_id:
        raise ValueError(
            f"outcome {outcome.term_id} does not belong to term {term.term_id}"
        )
    if outcome.action == ACTION_KEPT:
        if term.status is not TermStatus.VERIFIED_SUPPORTED:
            raise LifecycleError(
                f"term {term.term_id}: kept_supported requires "
                f"verified_supported, found {term.status.value}"
            )
        return term
    if outcome.action == ACTION_RESOURCED:
        return advance(
            replace(term, source=outcome.new_source), TermStatus.RESOURCED
        )
    if outcome.action == ACTION_DISCARDED:
        return advance(term, TermStatus.DISCARDED)
    raise ValueError(f"unknown action {outcome.action!r}")
