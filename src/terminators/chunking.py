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


def _looks_like_title(title: str) -> bool:
    title = title.strip()
    if not title or title[0] != title[0].upper() or not title[0].isalpha():
        return False
    if len(title.split()) > _MAX_HEADING_WORDS:
        return False
    return not title.endswith((".", ",", ";"))


def _is_all_caps_heading(text: str) -> bool:
    stripped = text.strip()
    if not stripped or not any(c.isalpha() for c in stripped):
        return False
    if stripped != stripped.upper():
        return False
    if len(stripped.split()) > _MAX_HEADING_WORDS:
        return False
    return not stripped.endswith((".", ",", ";"))


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


def _trim_to_content(doc: SourceDocument, start: int, end: int) -> tuple[int, int] | None:
    """Shrink a range to its first and last non-blank line; None if all blank."""
    lo, hi = start, end
    while lo <= hi and not doc.line_text(lo).strip():
        lo += 1
    while hi >= lo and not doc.line_text(hi).strip():
        hi -= 1
    if lo > hi:
        return None
    return lo, hi


def _split_run_at_cap(start: int, end: int, cap: int) -> list[tuple[int, int]]:
    """Hard-split one non-blank run into consecutive windows of at most cap lines."""
    windows = []
    lo = start
    while lo <= end:
        hi = min(lo + cap - 1, end)
        windows.append((lo, hi))
        lo = hi + 1
    return windows


def _pack_block(doc: SourceDocument, start: int, end: int,
                cap: int) -> list[tuple[int, int]]:
    """Split a trimmed block into sub-ranges of span <= cap.

    Paragraphs inside the block are kept whole where possible: consecutive
    paragraphs are greedily grouped while the covering span stays under the
    cap, and only a single paragraph longer than the cap is split mid-run.
    """
    if end - start + 1 <= cap:
        return [(start, end)]
    # Clip runs to the block: a section boundary can fall mid-run, and the
    # part inside this block still has to be covered.
    paragraphs = [
        (max(s, start), min(e, end)) for s, e in _non_blank_runs(doc)
        if e >= start and s <= end
    ]
    packed: list[tuple[int, int]] = []
    group: tuple[int, int] | None = None
    for s, e in paragraphs:
        if e - s + 1 > cap:
            if group is not None:
                packed.append(group)
                group = None
            packed.extend(_split_run_at_cap(s, e, cap))
            continue
        if group is None:
            group = (s, e)
        elif e - group[0] + 1 <= cap:
            group = (group[0], e)
        else:
            packed.append(group)
            group = (s, e)
    if group is not None:
        packed.append(group)
    return packed


def _heading_for(headings: list[Heading], start_line: int) -> str | None:
    """Text of the nearest heading at or above start_line."""
    best = None
    for h in headings:
        if h.line_number <= start_line:
            best = h.text
        else:
            break
    return best


def chunk(doc: SourceDocument, strategy: ChunkStrategy) -> list[Chunk]:
    """Split the document per the strategy.

    Invariants: chunks are ordered by start line, trimmed to non-blank edges,
    pairwise disjoint, no wider than max_chunk_lines, and together cover every
    non-blank line. parallel_merge returns the same single-pass layout as
    whole_document; the fanout happens at extraction time.
    """
    cap = strategy.max_chunk_lines
    headings = detect_headings(doc)

    if strategy.mode in (ChunkMode.WHOLE_DOCUMENT, ChunkMode.PARALLEL_MERGE):
        trimmed = _trim_to_content(doc, doc.first_line, doc.last_line)
        ranges = [] if trimmed is None else _pack_block(doc, *trimmed, cap)
        kind = "whole_document"
    elif strategy.mode is ChunkMode.PARAGRAPH or (
        # Section mode with no headings to follow is paragraph mode.
        strategy.mode is ChunkMode.SECTION_BY_SECTION and not headings
    ):
        ranges = []
        for s, e in _non_blank_runs(doc):
            ranges.extend(_pack_block(doc, s, e, cap))
        kind = "paragraph"
    elif strategy.mode is ChunkMode.SECTION_BY_SECTION:
        kind = "section"
        boundaries = [h.line_number for h in headings]
        ranges = []
        if boundaries[0] > doc.first_line:
            pre = _trim_to_content(doc, doc.first_line, boundaries[0] - 1)
            if pre is not None:
                ranges.extend(_pack_block(doc, *pre, cap))
        for i, b in enumerate(boundaries):
            section_end = (
                boundaries[i + 1] - 1 if i + 1 < len(boundaries) else doc.last_line
            )
            sec = _trim_to_content(doc, b, section_end)
            if sec is not None:
                ranges.extend(_pack_block(doc, *sec, cap))
    else:
        raise ValueError(f"unknown chunk mode {strategy.mode!r}")

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
