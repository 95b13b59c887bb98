"""Term verification: deterministic lexical pre-check plus semantic judgment.

The pre-check measures how much of a statement's vocabulary the cited span
actually contains; spans that cannot even resolve, or hold only blank lines,
short-circuit the backend entirely. The semantic label always comes from the
backend and the pre-check never overrides it, it only flags disagreements
for the report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .backends import VERIFICATION_LABELS, Backend, BackendError
from .documents import SourceDocument, SourceRef, SpanError, resolve_span
from .parsing import DEFAULT_WORKERS, map_ordered, run_request
from .prompts import build_verifier_request
from .terms import Term, canonical_source_string

DEFAULT_LOW_OVERLAP_THRESHOLD = 0.3

LABEL_SUPPORTED, LABEL_CONTRADICTED, LABEL_UNVERIFIABLE = VERIFICATION_LABELS

FLAG_PASS = "pass"
FLAG_LOW_OVERLAP = "low_overlap"
FLAG_UNRESOLVABLE = "unresolvable"

_TOKEN_RE = re.compile(r"[a-z0-9']+")

# Stem rule: first listed suffix that matches and leaves at least this many
# characters is stripped; one pass, no recursion.
_MIN_STEM_CHARS = 3


@dataclass(frozen=True)
class VerificationResult:
    term_id: str
    label: str
    justification: str
    lexical_score: float
    pre_check_flag: str
    verifier_prompt_fingerprint: str | None


def _data_lines(name: str) -> list[str]:
    path = resources.files("terminators").joinpath(f"data/{name}")
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


@lru_cache(maxsize=1)
def _stopwords() -> frozenset[str]:
    return frozenset(_data_lines("stopwords.txt"))


@lru_cache(maxsize=1)
def _suffixes() -> tuple[str, ...]:
    return tuple(_data_lines("suffixes.txt"))


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens, surrounding apostrophes stripped."""
    tokens = []
    for raw in _TOKEN_RE.findall(text.lower()):
        token = raw.strip("'")
        if token:
            tokens.append(token)
    return tokens


# Bounded: one document's vocabulary fits many times over, and a long-lived
# process does not grow with every new word it sees.
@lru_cache(maxsize=1 << 14)
def stem(token: str) -> str:
    for suffix in _suffixes():
        if token.endswith(suffix) and len(token) - len(suffix) >= _MIN_STEM_CHARS:
            return token[: -len(suffix)]
    return token


def stem_sets(text: str) -> tuple[frozenset[str], frozenset[str]]:
    """The text's (content stems, all stems). A token is a stopword, and
    not content, if either its raw or stemmed form is listed.

    Tokens never span a line break, so the sets of several lines joined are
    the unions of the lines' sets; content_tokens' fallback to all stems is
    then decided by the union of the content stems, not line by line."""
    stop = _stopwords()
    content, every = set(), set()
    for token in tokenize(text):
        stemmed = stem(token)
        every.add(stemmed)
        if token not in stop and stemmed not in stop:
            content.add(stemmed)
    return frozenset(content), frozenset(every)


def content_tokens(text: str) -> frozenset[str]:
    """Stemmed tokens minus stopwords. Text that is all stopwords falls back
    to its unfiltered stems so identical texts always overlap fully."""
    content, every = stem_sets(text)
    return content or every


def lexical_support_score(statement: str, span_text: str) -> float:
    """Fraction of the statement's content vocabulary present in the span."""
    statement_tokens = content_tokens(statement)
    if not statement_tokens:
        return 0.0
    span_tokens = content_tokens(span_text)
    return len(statement_tokens & span_tokens) / len(statement_tokens)


def pre_check(term: Term, doc: SourceDocument,
              threshold: float = DEFAULT_LOW_OVERLAP_THRESHOLD):
    """Resolve the cited span and score it. Returns (span_text, score, flag);
    span_text is None when the citation does not resolve."""
    try:
        span_text = resolve_span(doc, term.source)
    except SpanError:
        return None, 0.0, FLAG_UNRESOLVABLE
    score = lexical_support_score(term.statement, span_text)
    flag = FLAG_LOW_OVERLAP if score < threshold else FLAG_PASS
    return span_text, score, flag


def _context_passage(doc: SourceDocument, ref: SourceRef,
                     context_lines: int) -> str:
    start = max(doc.first_line, ref.start_line - context_lines)
    end = min(doc.last_line, ref.end_line + context_lines)
    widened = SourceRef(ref.source_name, start, end)
    return resolve_span(doc, widened)


def _unanswered(term: Term, justification: str, score: float,
                flag: str) -> VerificationResult:
    """An Unverifiable verdict that no backend answer backs."""
    return VerificationResult(term.term_id, LABEL_UNVERIFIABLE, justification,
                              score, flag, None)


def verify_term(
    term: Term,
    doc: SourceDocument,
    backend: Backend,
    *,
    threshold: float = DEFAULT_LOW_OVERLAP_THRESHOLD,
    context_lines: int = 0,
) -> VerificationResult:
    """Judge one term against its cited span.

    A span that does not resolve, or whose lines are all blank (whitespace
    only), is Unverifiable outright, with no backend call: there is no
    passage to check, and its neighbours shown as context are not what the
    term cites. context_lines widens the passage shown to the backend; the
    lexical score always uses the exact cited span.
    """
    span_text, score, flag = pre_check(term, doc, threshold)
    if span_text is None or not span_text.strip():
        problem = ("does not resolve in the document" if span_text is None
                   else "holds only blank lines")
        return _unanswered(term, (
            f"The cited span {canonical_source_string(term.source)} "
            f"{problem}, so there is no passage to check the statement "
            "against."), score, flag)

    passage = span_text
    if context_lines > 0:
        passage = _context_passage(doc, term.source, context_lines)
    req = build_verifier_request(
        term.statement, canonical_source_string(term.source), passage
    )
    resp = run_request(backend, req)
    return VerificationResult(
        term_id=term.term_id,
        label=resp.parsed["verification"],
        justification=resp.parsed["justification"],
        lexical_score=score,
        pre_check_flag=flag,
        verifier_prompt_fingerprint=req.request_fingerprint,
    )


def verify_all(
    terms: list[Term],
    doc: SourceDocument,
    backend: Backend,
    *,
    threshold: float = DEFAULT_LOW_OVERLAP_THRESHOLD,
    context_lines: int = 0,
    workers: int = DEFAULT_WORKERS,
    best_effort: bool = False,
) -> list[VerificationResult]:
    """One result per term, in input order. Under best_effort a failing term
    becomes Unverifiable with the failure in its justification."""

    def failed(term: Term, exc: BackendError) -> VerificationResult:
        _, score, flag = pre_check(term, doc, threshold)
        return _unanswered(term, f"Verification failed: {exc}", score, flag)

    return map_ordered(
        lambda term: verify_term(term, doc, backend, threshold=threshold,
                                 context_lines=context_lines),
        terms, workers, failed if best_effort else None)

