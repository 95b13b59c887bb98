"""Re-sourcing for terms whose citations did not hold up.

Any term not labeled Supported gets a proposal for a better source span,
made either by parser-role backend calls or by a deterministic lexical
search over the whole document. The backend is first shown the cited
neighbourhood, and the whole document only when that gives no usable new
span. A new span that verifies Supported re-sources the term; anything else
discards it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .backends import Backend, BackendError
from .chunking import DEFAULT_MAX_CHUNK_LINES
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
    LABEL_CONTRADICTED,
    LABEL_SUPPORTED,
    LABEL_UNVERIFIABLE,
    VerificationResult,
    content_tokens,
    lexical_support_score,  # unused here; perfbench's tracer wraps this name
    stem_sets,
    verify_term,
)

DEFAULT_MAX_SPAN_LINES = 6

# Lines shown on each side of the cited span by the first re-sourcing
# request: half an extraction chunk, so the agent sees about one chunk,
# roughly what the parser saw when it made the citation.
WINDOW_MARGIN_LINES = DEFAULT_MAX_CHUNK_LINES // 2

ACTION_KEPT = "kept_supported"
ACTION_RESOURCED = "resourced"
ACTION_DISCARDED = "discarded"

# The status a term takes from its verifier label.
LABEL_STATUSES = {
    LABEL_SUPPORTED: TermStatus.VERIFIED_SUPPORTED,
    LABEL_CONTRADICTED: TermStatus.CONTRADICTED,
    LABEL_UNVERIFIABLE: TermStatus.UNVERIFIABLE,
}

TRANSITIONS: dict[TermStatus, frozenset[TermStatus]] = {
    TermStatus.EXTRACTED: frozenset(LABEL_STATUSES.values()),
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
            "lifecycle", f"term {term.term_id}: illegal transition "
            f"{term.status.value} -> {new_status.value}")
    return replace(term, status=new_status)


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
    """The whole numbered document every whole-document re-sourcing request
    shows, rendered once per document; one entry, as in _line_index."""
    return render_numbered(doc)


def resource_window(doc: SourceDocument, cited: SourceRef) -> tuple[int, int] | None:
    """(first, last) line the first re-sourcing request shows for a term
    citing `cited`: the span widened by WINDOW_MARGIN_LINES on each side,
    clipped to the document. None when that is the whole document, or when
    the citation lies too far outside the document to leave any line."""
    first = max(doc.first_line, cited.start_line - WINDOW_MARGIN_LINES)
    last = min(doc.last_line, cited.end_line + WINDOW_MARGIN_LINES)
    if first > last or (first, last) == (doc.first_line, doc.last_line):
        return None
    return first, last


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
    lines: tuple[int, int] | None = None,
) -> SourceRef | None:
    """Propose a replacement source span for the statement, or nothing.

    The backend path shows the numbered lines first..last of `lines`, or
    the whole numbered document when None, and asks for a single term record
    whose source is the best span. A proposal that is not exactly one
    record, has no source string, or cites a span that does not parse or
    resolve in the document counts as absent. An answer that still does not
    parse after the format reminder raises BackendError("malformed_output").
    """
    if not use_llm:
        return find_best_window(term.statement, doc)

    if lines is None:
        numbered = _numbered_document(doc)
    else:
        numbered = render_numbered(doc, start_line=lines[0], end_line=lines[1])
    req = build_resource_request(doc.source_name, numbered, term.statement)
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


def _unusable(proposed: SourceRef | None, cited: SourceRef) -> str:
    """Why a proposal is discarded unverified, or "" when it is a new span."""
    if proposed is None:
        return "no span proposed"
    if proposed == cited:
        return "proposed an already tried span"
    return ""


def shown_whole_document(outcome: RemediationOutcome, doc: SourceDocument) -> bool:
    """Whether re-sourcing on the backend path sent this term's agent the
    whole document: its window was the whole document, or the window's
    proposal was set aside."""
    return outcome.action != ACTION_KEPT and (
        len(outcome.trail) > 1 or resource_window(doc, outcome.old_source) is None
    )


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

    Supported terms pass through untouched. Anything else gets a proposal:
    no span, or the span the term already cites, discards it unverified;
    a new span is verified and re-sources the term on Supported, otherwise
    the term is discarded. On the backend path the first request shows the
    resource_window around the citation; when its proposal is no span or
    the cited one, it is set aside and a second request shows the whole
    document. The trail records a set-aside proposal, then the proposal
    decided on and its verdict.
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

    set_aside: tuple[TrailEntry, ...] = ()

    def outcome(entry: TrailEntry, new_source: SourceRef | None = None):
        return RemediationOutcome(
            term_id=term.term_id,
            action=ACTION_RESOURCED if new_source else ACTION_DISCARDED,
            old_source=term.source,
            new_source=new_source,
            trail=set_aside + (entry,),
        )

    window = resource_window(doc, term.source) if use_llm_resource else None
    try:
        proposed = resource_term(
            term, doc, backend, use_llm=use_llm_resource, lines=window
        )
        unusable = _unusable(proposed, term.source)
        if window is not None and unusable:
            first, last = window
            note = f"{unusable} from lines {first}-{last}"
            set_aside = (TrailEntry(proposed, None, note),)
            proposed = resource_term(term, doc, backend)
            unusable = _unusable(proposed, term.source)
    except BackendError as exc:
        if not best_effort:
            raise
        return outcome(TrailEntry(None, None, f"re-sourcing failed: {exc}"))
    if unusable:
        return outcome(TrailEntry(proposed, None, unusable))
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
                "lifecycle", f"term {term.term_id}: kept_supported requires "
                f"verified_supported, found {term.status.value}")
        return term
    if outcome.action == ACTION_RESOURCED:
        return advance(
            replace(term, source=outcome.new_source), TermStatus.RESOURCED
        )
    if outcome.action == ACTION_DISCARDED:
        return advance(term, TermStatus.DISCARDED)
    raise ValueError(f"unknown action {outcome.action!r}")
