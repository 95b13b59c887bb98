"""Chunk strategies: hand-sized cases plus a reference-splitter sweep.

The reference splitter below re-derives the documented splitting rules from
scratch (it shares only the heading detector with the implementation, whose
heuristics get their own direct tests here). The property sweep in
test_acceptance.py runs the same comparison across >= 1000 random documents.
"""

from __future__ import annotations

import random

import pytest

from helpers import ingest_excerpt, ingest_raw, random_document
from terminators.chunking import (
    Chunk,
    ChunkMode,
    ChunkStrategy,
    chunk,
    detect_headings,
)
from terminators.documents import ingest
from terminators.records import from_json, to_json


def ref_ranges(doc, mode: str, cap: int) -> list[tuple[int, int]]:
    """Expected (start, end) chunk ranges, derived independently."""
    texts = dict(doc.lines)

    def blank(n: int) -> bool:
        return not texts[n].strip()

    numbers = [n for n, _ in doc.lines]

    paras: list[tuple[int, int]] = []
    open_at = None
    for n in numbers:
        if not blank(n):
            open_at = n if open_at is None else open_at
            last = n
        elif open_at is not None:
            paras.append((open_at, last))
            open_at = None
    if open_at is not None:
        paras.append((open_at, last))

    def trim(lo: int, hi: int):
        while lo <= hi and blank(lo):
            lo += 1
        while hi >= lo and blank(hi):
            hi -= 1
        return (lo, hi) if lo <= hi else None

    def pack(lo: int, hi: int) -> list[tuple[int, int]]:
        if hi - lo + 1 <= cap:
            return [(lo, hi)]
        inside = [
            (max(s, lo), min(e, hi)) for s, e in paras if e >= lo and s <= hi
        ]
        out: list[tuple[int, int]] = []
        group = None
        for s, e in inside:
            if e - s + 1 > cap:
                if group is not None:
                    out.append(group)
                    group = None
                a = s
                while a <= e:
                    out.append((a, min(a + cap - 1, e)))
                    a = min(a + cap - 1, e) + 1
            elif group is not None and e - group[0] + 1 <= cap:
                group = (group[0], e)
            else:
                if group is not None:
                    out.append(group)
                group = (s, e)
        if group is not None:
            out.append(group)
        return out

    def paragraph_ranges() -> list[tuple[int, int]]:
        out = []
        for s, e in paras:
            out.extend(pack(s, e))
        return out

    if mode in ("whole_document", "parallel_merge"):
        t = trim(numbers[0], numbers[-1])
        return [] if t is None else pack(*t)
    if mode == "paragraph":
        return paragraph_ranges()

    heads = [h.line_number for h in detect_headings(doc)]
    if not heads:
        return paragraph_ranges()
    ranges: list[tuple[int, int]] = []
    if heads[0] > numbers[0]:
        t = trim(numbers[0], heads[0] - 1)
        if t is not None:
            ranges.extend(pack(*t))
    for i, head in enumerate(heads):
        end = heads[i + 1] - 1 if i + 1 < len(heads) else numbers[-1]
        t = trim(head, end)
        if t is not None:
            ranges.extend(pack(*t))
    return ranges


def check_invariants(doc, chunks: list[Chunk], strategy: ChunkStrategy) -> None:
    non_blank = {n for n, t in doc.lines if t.strip()}
    covered: set[int] = set()
    prev_end = None
    for c in chunks:
        assert c.doc_id == doc.doc_id
        assert doc.first_line <= c.start_line <= c.end_line <= doc.last_line
        assert c.span_lines <= strategy.max_chunk_lines
        assert doc.line_text(c.start_line).strip(), "chunk starts on a blank"
        assert doc.line_text(c.end_line).strip(), "chunk ends on a blank"
        if prev_end is not None:
            assert c.start_line > prev_end, "chunks overlap or are unordered"
        prev_end = c.end_line
        span = set(range(c.start_line, c.end_line + 1))
        assert not (span & covered)
        covered |= span
    assert non_blank <= covered, "some non-blank line is in no chunk"


MODES = {
    "whole_document": ChunkMode.WHOLE_DOCUMENT,
    "parallel_merge": ChunkMode.PARALLEL_MERGE,
    "section_by_section": ChunkMode.SECTION_BY_SECTION,
    "paragraph": ChunkMode.PARAGRAPH,
}


def strategy_for(mode: str, cap: int) -> ChunkStrategy:
    fanout = 2 if mode == "parallel_merge" else 1
    return ChunkStrategy(MODES[mode], max_chunk_lines=cap, parallel_fanout=fanout)


def test_strategy_validation():
    with pytest.raises(ValueError):
        ChunkStrategy(ChunkMode.PARAGRAPH, max_chunk_lines=0)
    with pytest.raises(ValueError):
        ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=1)
    for mode in (ChunkMode.WHOLE_DOCUMENT, ChunkMode.SECTION_BY_SECTION,
                 ChunkMode.PARAGRAPH):
        with pytest.raises(ValueError, match="outside parallel_merge"):
            ChunkStrategy(mode, parallel_fanout=3)
    round_tripped = from_json(
        ChunkStrategy, to_json(ChunkStrategy(ChunkMode.SECTION_BY_SECTION, 40, 1))
    )
    assert round_tripped == ChunkStrategy(ChunkMode.SECTION_BY_SECTION, 40, 1)


def test_whole_document_single_chunk_on_excerpt():
    doc = ingest_excerpt()
    chunks = chunk(doc, ChunkStrategy(ChunkMode.WHOLE_DOCUMENT))
    assert [(c.start_line, c.end_line) for c in chunks] == [(106, 117)]
    assert chunks[0].kind == "whole_document"


def test_paragraph_chunks_on_excerpt():
    doc = ingest_excerpt()
    chunks = chunk(doc, ChunkStrategy(ChunkMode.PARAGRAPH))
    assert [(c.start_line, c.end_line) for c in chunks] == [(106, 106), (108, 117)]
    assert all(c.kind == "paragraph" for c in chunks)


def test_section_fallback_equals_paragraph_mode():
    doc = ingest_excerpt()  # no headings in the excerpt
    assert detect_headings(doc) == []
    by_section = chunk(doc, ChunkStrategy(ChunkMode.SECTION_BY_SECTION))
    by_paragraph = chunk(doc, ChunkStrategy(ChunkMode.PARAGRAPH))
    assert by_section == by_paragraph
    assert all(c.kind == "paragraph" for c in by_section)


def test_section_chunks_on_raw_doc():
    doc = ingest_raw()
    chunks = chunk(doc, ChunkStrategy(ChunkMode.SECTION_BY_SECTION))
    assert [(c.start_line, c.end_line) for c in chunks] == [
        (1, 3),
        (5, 11),
        (13, 17),
        (19, 32),
    ]
    assert chunks[0].heading == "OPENAI TERMS OF USE"
    assert chunks[1].heading == "REGISTRATION AND ACCESS"
    assert chunks[3].heading == "WHAT YOU CANNOT DO"
    assert all(c.kind == "section" for c in chunks)


def test_parallel_merge_layout_matches_whole_document():
    doc = ingest_raw()
    whole = chunk(doc, ChunkStrategy(ChunkMode.WHOLE_DOCUMENT))
    fanned = chunk(doc, ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=3))
    assert [(c.start_line, c.end_line) for c in whole] == [
        (c.start_line, c.end_line) for c in fanned
    ]
    assert all(c.kind == "whole_document" for c in fanned)


def test_cap_splits_at_paragraph_boundaries():
    raw = b"a one\na two\n\nb one\nb two\nb three\n\nc one\n"
    doc = ingest(raw, "t.txt")
    chunks = chunk(doc, ChunkStrategy(ChunkMode.WHOLE_DOCUMENT, max_chunk_lines=4))
    # Paragraphs are (1,2), (4,6), (8,8); the first pair cannot group (span 6),
    # the last two cannot either (span 5), so each paragraph stands alone.
    assert [(c.start_line, c.end_line) for c in chunks] == [(1, 2), (4, 6), (8, 8)]


def test_cap_hard_splits_oversized_paragraph():
    raw = b"\n".join(b"line %d" % i for i in range(1, 8)) + b"\n"
    doc = ingest(raw, "t.txt")
    chunks = chunk(doc, ChunkStrategy(ChunkMode.PARAGRAPH, max_chunk_lines=3))
    assert [(c.start_line, c.end_line) for c in chunks] == [(1, 3), (4, 6), (7, 7)]


def test_heading_mid_run_does_not_lose_lines():
    # A heading directly after prose, no blank separator, with a cap that
    # forces packing on both sides of the boundary.
    lines = ["intro %d" % i for i in range(1, 4)]
    lines.append("GENERAL TERMS")
    lines.extend("body %d" % i for i in range(1, 4))
    doc = ingest(("\n".join(lines) + "\n").encode(), "t.txt")
    strategy = ChunkStrategy(ChunkMode.SECTION_BY_SECTION, max_chunk_lines=2)
    chunks = chunk(doc, strategy)
    check_invariants(doc, chunks, strategy)
    assert [(c.start_line, c.end_line) for c in chunks] == ref_ranges(
        doc, "section_by_section", 2
    )


def test_detect_headings_styles():
    raw = (
        b"# Usage Policies\n"
        b"Plain prose stays prose.\n"
        b"3. Content Ownership\n"
        b"GENERAL TERMS\n"
        b"ALL CAPS BUT THIS ONE ENDS WITH A PERIOD.\n"
        b"12.4) Subsection Title\n"
        b"2. lowercase after number\n"
        b"You agree to the following:\n"
    )
    doc = ingest(raw, "t.txt")
    found = {(h.line_number, h.style) for h in detect_headings(doc)}
    assert found == {
        (1, "markdown"),
        (3, "numbered"),
        (4, "all_caps"),
        (6, "numbered"),
    }
    texts = {h.line_number: h.text for h in detect_headings(doc)}
    assert texts[1] == "# Usage Policies"
    assert texts[3] == "3. Content Ownership"


def test_heading_trailing_colon_stripped():
    doc = ingest(b"PRIVACY AND DATA:\nbody\n", "t.txt")
    (heading,) = detect_headings(doc)
    assert heading.text == "PRIVACY AND DATA"


def test_chunk_ids_stable_and_distinct():
    doc = ingest_raw()
    first = chunk(doc, ChunkStrategy(ChunkMode.SECTION_BY_SECTION))
    second = chunk(doc, ChunkStrategy(ChunkMode.SECTION_BY_SECTION))
    assert [c.chunk_id for c in first] == [c.chunk_id for c in second]
    assert len({c.chunk_id for c in first}) == len(first)


def test_modes_agree_with_reference_on_fixture_docs():
    for doc in (ingest_excerpt(), ingest_raw()):
        for mode in MODES:
            for cap in (1, 2, 3, 5, 60):
                strategy = strategy_for(mode, cap)
                got = chunk(doc, strategy)
                check_invariants(doc, got, strategy)
                assert [(c.start_line, c.end_line) for c in got] == ref_ranges(
                    doc, mode, cap
                ), f"{mode} cap={cap}"


def test_random_docs_small_sweep():
    rng = random.Random(997)
    for _ in range(100):
        doc = random_document(rng)
        mode = rng.choice(list(MODES))
        cap = rng.randint(1, 15)
        strategy = strategy_for(mode, cap)
        got = chunk(doc, strategy)
        check_invariants(doc, got, strategy)
        assert [(c.start_line, c.end_line) for c in got] == ref_ranges(doc, mode, cap)
