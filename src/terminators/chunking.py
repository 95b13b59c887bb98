"""Splitting a document into extraction chunks.

Terms-of-service documents are long enough that single-pass extraction drops
terms, so the extractor works over chunks. All strategies produce chunks that
cover every non-blank line exactly once; blank lines separate paragraphs and
belong to no chunk.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass

from .documents import SourceDocument

DEFAULT_MAX_CHUNK_LINES = 60

_MARKDOWN_HEADING_RE = re.compile(r"^#{1,6}\s+\S")
_NUMBERED_HEADING_RE = re.compile(r"^\d+(?:\.\d+)*[.)]\s+(?P<title>\S.*)$")
_MAX_HEADING_WORDS = 12


class ChunkMode(enum.Enum):
    WHOLE_DOCUMENT = "whole_document"
    PARALLEL_MERGE = "parallel_merge"
    SECTION_BY_SECTION = "section_by_section"
    PARAGRAPH = "paragraph"


@dataclass(frozen=True)
class ChunkStrategy:
    mode: ChunkMode
    max_chunk_lines: int = DEFAULT_MAX_CHUNK_LINES
    parallel_fanout: int = 1

    def __post_init__(self):
        if not isinstance(self.mode, ChunkMode):
            raise ValueError(f"unknown chunk mode {self.mode!r}")
        if self.max_chunk_lines < 1:
            raise ValueError("max_chunk_lines must be >= 1")
        if self.mode is ChunkMode.PARALLEL_MERGE:
            if self.parallel_fanout < 2:
                raise ValueError("parallel_merge needs parallel_fanout >= 2")
        elif self.parallel_fanout != 1:
            raise ValueError(
                "parallel_fanout must be 1 outside parallel_merge, "
                f"not {self.parallel_fanout}"
            )


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    start_line: int
    end_line: int
    kind: str
    heading: str | None = None

    @property
    def span_lines(self) -> int:
        return self.end_line - self.start_line + 1


@dataclass(frozen=True)
class Heading:
    line_number: int
    text: str
    style: str


def _chunk_id(doc: SourceDocument, start: int, end: int, kind: str) -> str:
    key = f"{doc.doc_id}|{start}|{end}|{kind}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]


def _is_short_heading(text: str) -> bool:
    return (len(text.split()) <= _MAX_HEADING_WORDS
            and not text.endswith((".", ",", ";")))


def _looks_like_title(title: str) -> bool:
    if title[0] != title[0].upper() or not title[0].isalpha():
        return False
    return _is_short_heading(title)


def _is_all_caps_heading(stripped: str) -> bool:
    if not stripped or not any(c.isalpha() for c in stripped):
        return False
    if stripped != stripped.upper():
        return False
    return _is_short_heading(stripped)


def detect_headings(doc: SourceDocument) -> list[Heading]:
    """Heuristic heading scan: markdown #-prefixes, numbered section titles,
    and short ALL-CAPS lines. Heading text keeps its prefix, minus trailing
    colon or whitespace."""
    headings: list[Heading] = []
    for number, text in doc.lines:
        stripped = text.strip()
        if _MARKDOWN_HEADING_RE.match(stripped):
            headings.append(Heading(number, stripped.rstrip(" :"), "markdown"))
            continue
        m = _NUMBERED_HEADING_RE.match(stripped)
        if m and _looks_like_title(m.group("title")):
            headings.append(Heading(number, stripped.rstrip(" :"), "numbered"))
            continue
        if _is_all_caps_heading(stripped):
            headings.append(Heading(number, stripped.rstrip(" :"), "all_caps"))
    return headings


def _non_blank_runs(doc: SourceDocument) -> list[tuple[int, int]]:
    """Maximal runs of consecutive non-blank lines as (start, end) numbers."""
    runs: list[tuple[int, int]] = []
    run_start: int | None = None
    prev = None
    for number, text in doc.lines:
        if text.strip():
            if run_start is None:
                run_start = number
            prev = number
        else:
            if run_start is not None:
                runs.append((run_start, prev))
                run_start = None
    if run_start is not None:
        runs.append((run_start, prev))
    return runs


def _heading_for(headings: list[Heading], start_line: int) -> str | None:
    """Text of the nearest heading at or above start_line."""
    best = None
    for h in headings:
        if h.line_number <= start_line:
            best = h.text
        else:
            break
    return best


def _pieces(runs: list[tuple[int, int]], cuts: set[int]):
    """Each run as (start, end, opens_block) pieces, split before every cut
    line inside it; a piece opens a new block when it starts at a cut."""
    for s, e in runs:
        lo = s
        for n in range(s + 1, e + 1):
            if n in cuts:
                yield lo, n - 1, lo in cuts
                lo = n
        yield lo, e, lo in cuts


def chunk(doc: SourceDocument, strategy: ChunkStrategy) -> list[Chunk]:
    """Split the document per the strategy.

    Each mode names its cut lines (none for whole_document and
    parallel_merge, each paragraph's first line for paragraph and for a
    section_by_section document without headings, each heading line for
    section_by_section), and between cuts consecutive paragraphs join one
    chunk while it spans at most max_chunk_lines, a longer paragraph being
    split into windows of that many lines.

    Invariants: chunks are ordered by start line, trimmed to non-blank edges,
    pairwise disjoint, no wider than max_chunk_lines, and together cover every
    non-blank line. parallel_merge returns the same single-pass layout as
    whole_document; the fanout happens at extraction time.
    """
    cap = strategy.max_chunk_lines
    headings = detect_headings(doc)
    runs = _non_blank_runs(doc)
    if strategy.mode in (ChunkMode.WHOLE_DOCUMENT, ChunkMode.PARALLEL_MERGE):
        kind, cuts = "whole_document", set()
    elif strategy.mode is ChunkMode.PARAGRAPH or not headings:
        # Section mode with no headings to follow is paragraph mode.
        kind, cuts = "paragraph", {s for s, _ in runs}
    else:
        kind, cuts = "section", {h.line_number for h in headings}

    ranges: list[tuple[int, int]] = []
    joinable = False  # whether the next piece may extend ranges[-1]
    for lo, hi, opens_block in _pieces(runs, cuts):
        if hi - lo + 1 > cap:
            ranges.extend((a, min(a + cap - 1, hi)) for a in range(lo, hi + 1, cap))
            joinable = False
        elif joinable and not opens_block and hi - ranges[-1][0] < cap:
            ranges[-1] = (ranges[-1][0], hi)
        else:
            ranges.append((lo, hi))
            joinable = True

    return [
        Chunk(
            chunk_id=_chunk_id(doc, s, e, kind),
            doc_id=doc.doc_id,
            start_line=s,
            end_line=e,
            kind=kind,
            heading=_heading_for(headings, s),
        )
        for s, e in ranges
    ]
