"""Term extraction over chunks.

Builds the extraction prompt for each chunk, validates every candidate the
backend returns, flags suspicious citations, and merges chunk results into
one deduplicated, source-ordered term list with a per-chunk coverage report.
"""

from __future__ import annotations

import itertools
import logging
import threading
from dataclasses import dataclass, field

from .backends import (
    Backend,
    BackendError,
    CachedBackend,
    cached_complete,
    complete,
    install_wait_hook,
)
from .chunking import Chunk, ChunkStrategy, chunk as chunk_document
from .documents import SourceDocument, render_numbered
from .prompts import PROMPT_VERSION, build_parser_request
from .terms import SchemaError, Term, dedupe_terms, validate_term

DEFAULT_WORKERS = 4

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExtractionConfig:
    strategy: ChunkStrategy
    aspects: tuple[str, ...] | None = None
    provider_name: str | None = None
    prompt_version: str = PROMPT_VERSION

    def __post_init__(self):
        if self.aspects is not None:
            if not self.aspects or any(
                not isinstance(a, str) or not a.strip() for a in self.aspects
            ):
                raise ValueError("aspects must be non-empty strings")

    @property
    def aspect_label(self) -> str | None:
        """The aspect string stamped onto extracted terms."""
        if self.aspects is None:
            return None
        return "; ".join(self.aspects)


@dataclass
class ChunkExtraction:
    chunk_id: str
    terms: list[Term]
    rejected_count: int
    flagged_outside_chunk: tuple[str, ...]
    warnings: list[str]


@dataclass
class ExtractionOutcome:
    terms: list[Term]
    coverage: list[dict]
    warnings: list[str]
    failures: list[dict] = field(default_factory=list)


def run_request(backend: Backend, req):
    """complete(), by way of the cache for a CachedBackend."""
    if isinstance(backend, CachedBackend):
        return cached_complete(backend.backend, req, backend.cache_dir)
    return complete(backend, req)


def map_ordered(fn, items, workers: int, failed=None) -> list:
    """fn over items on the calling thread plus up to `workers` - 1 helper
    threads, results in input order, so output does not depend on thread
    scheduling. Each thread claims the next unclaimed index until none is
    left. Helpers pay only while a job waits on the backend, so they start
    when a job on the calling thread first announces a backend wait
    (backends.announce_wait): right after a call that waited more than
    10 ms off the thread's CPU, and, once the backend has been seen to
    wait, before each later phase's first request to it. A phase served
    wholly from the cache, or by an in-process backend, runs on the calling
    thread alone. Given failed, an item whose job raises BackendError holds
    failed(item, exc) instead, and what failed raises is the item's failure;
    if every item failed so, one warning gives their count and the first.
    Every job runs to completion; then the first failure in input order is
    raised. An interrupt stops further claims, waits for the started
    helpers' current jobs and propagates."""
    items = list(items)
    results = [None] * len(items)
    failures: list[BaseException | None] = [None] * len(items)
    errors: list[BackendError | None] = [None] * len(items)
    # next() on a count is atomic under the GIL: no index is claimed twice.
    claims = itertools.count()
    stopped = False
    helpers: list[threading.Thread] = []

    def drain():
        nonlocal stopped
        while not stopped:
            i = next(claims)
            if i >= len(items):
                return
            try:
                try:
                    results[i] = fn(items[i])
                except BackendError as exc:
                    if failed is None:
                        raise
                    errors[i] = exc
                    results[i] = failed(items[i], exc)
            except Exception as exc:
                failures[i] = exc
            except BaseException as exc:
                failures[i] = exc
                stopped = True
                raise

    def start_helpers():
        while len(helpers) < min(workers, len(items)) - 1:
            helper = threading.Thread(target=drain)
            helper.start()
            helpers.append(helper)
        # An enclosing map_ordered on this thread has a wait ahead too.
        if outer is not None:
            outer()

    outer = install_wait_hook(start_helpers)
    try:
        drain()
    except BaseException:
        stopped = True
        raise
    finally:
        install_wait_hook(outer)
        for helper in helpers:
            helper.join()
    for failure in failures:
        if failure is not None:
            raise failure
    if items and all(errors):
        log.warning("every item failed and was recorded (%d); first: %s: %s",
                    len(items), errors[0].kind, errors[0])
    return results


def extract_chunk(
    chunk: Chunk,
    doc: SourceDocument,
    cfg: ExtractionConfig,
    backend: Backend,
    *,
    replica_note: str | None = None,
    answers: dict | None = None,
) -> ChunkExtraction:
    """Extract terms from one chunk.

    Candidates that fail validation are dropped and counted; candidates that
    validate but cite lines outside the chunk are kept and flagged, since the
    verifier is the arbiter of whether a citation is actually wrong.

    answers, shared by one extract_document call's passes, maps (chunk_id,
    answer text) to the extraction made from that answer: a replica pass
    answered with the same text returns it.
    """
    if chunk.doc_id != doc.doc_id:
        raise ValueError(
            f"chunk {chunk.chunk_id} belongs to document {chunk.doc_id}, "
            f"not {doc.doc_id}"
        )
    numbered = render_numbered(
        doc, start_line=chunk.start_line, end_line=chunk.end_line
    )
    if replica_note:
        numbered += "\n\n" + replica_note
    req = build_parser_request(doc.source_name, numbered, aspects=cfg.aspects)
    resp = run_request(backend, req)
    answers = {} if answers is None else answers
    key = chunk.chunk_id, resp.raw_text
    if key in answers:
        return answers[key]

    warnings: list[str] = []
    terms: list[Term] = []
    flagged: list[str] = []
    rejected = 0
    for i, candidate in enumerate(resp.parsed):
        try:
            term = validate_term(candidate, doc, provider_name=cfg.provider_name,
                                 aspect=cfg.aspect_label, warnings=warnings)
        except SchemaError as exc:
            rejected += 1
            warnings.append(f"chunk {chunk.chunk_id}: rejected candidate "
                            f"{i}: {exc.kind}: {exc}")
            continue
        if (
            term.source.start_line < chunk.start_line
            or term.source.end_line > chunk.end_line
        ):
            flagged.append(term.term_id)
            warnings.append(
                f"chunk {chunk.chunk_id}: term {term.term_id} cites "
                f"{term.source.start_line}-{term.source.end_line} outside "
                f"chunk range {chunk.start_line}-{chunk.end_line}"
            )
        terms.append(term)

    answers[key] = ChunkExtraction(
        chunk_id=chunk.chunk_id,
        terms=terms,
        rejected_count=rejected,
        flagged_outside_chunk=tuple(flagged),
        warnings=warnings,
    )
    return answers[key]


def extract_document(
    doc: SourceDocument,
    cfg: ExtractionConfig,
    backend: Backend,
    *,
    workers: int = DEFAULT_WORKERS,
    best_effort: bool = False,
) -> ExtractionOutcome:
    """Chunk the document, extract every chunk, merge.

    parallel_merge runs parallel_fanout independent passes over each chunk
    (each pass marked in the prompt so requests stay distinct) and relies on
    dedupe to collapse agreements.
    """
    chunks = chunk_document(doc, cfg.strategy)
    passes = cfg.strategy.parallel_fanout

    work: list[tuple[Chunk, str | None]] = []
    for c in chunks:
        for i in range(passes):
            note = f"Independent extraction pass {i + 1} of {passes}." if i else None
            work.append((c, note))

    answers: dict = {}

    def job(item):
        c, note = item
        return extract_chunk(c, doc, cfg, backend, replica_note=note,
                             answers=answers)

    def failed(item, exc):
        return {"chunk_id": item[0].chunk_id, "error": str(exc)}

    results = map_ordered(job, work, workers, failed if best_effort else None)
    failures = [r for r in results if isinstance(r, dict)]
    extractions = [r for r in results if isinstance(r, ChunkExtraction)]

    all_terms: list[Term] = []
    warnings: list[str] = []
    per_chunk_counts: dict[str, int] = {c.chunk_id: 0 for c in chunks}
    for extraction in extractions:
        all_terms.extend(extraction.terms)
        warnings.extend(extraction.warnings)
        per_chunk_counts[extraction.chunk_id] += len(extraction.terms)

    rejected = sum(extraction.rejected_count for extraction in extractions)
    if rejected and not all_terms:
        log.warning("every extracted candidate was rejected (%d); first: %s", rejected,
                    next(w for w in warnings if ": rejected candidate " in w))
    merged = dedupe_terms(all_terms)
    coverage = []
    for c in chunks:
        count = per_chunk_counts[c.chunk_id]
        coverage.append(
            {
                "chunk_id": c.chunk_id,
                "start_line": c.start_line,
                "end_line": c.end_line,
                "kind": c.kind,
                "heading": c.heading,
                "term_count": count,
            }
        )
        if count == 0:
            warnings.append(
                f"chunk {c.chunk_id} ({c.start_line}-{c.end_line}) "
                "produced no terms"
            )
    return ExtractionOutcome(
        terms=merged, coverage=coverage, warnings=warnings, failures=failures
    )
