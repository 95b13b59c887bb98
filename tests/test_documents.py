"""Ingestion, numbering, rendering, and span resolution."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    EXCERPT_FIRST_LINE,
    ingest_excerpt,
    random_document,
    shown_lines,
)
from terminators.backends import json_text
from terminators.documents import (
    FORMAT_HTML,
    IngestError,
    SourceDocument,
    SourceRef,
    SpanError,
    fingerprint_text,
    ingest,
    ingest_path,
    render_numbered,
    resolve_span,
)


def test_ingest_strips_bom_and_carriage_returns():
    doc = ingest(b"\xef\xbb\xbffirst line\r\nsecond line\r\n", "a.txt")
    assert doc.lines == ((1, "first line"), (2, "second line"))


def test_trailing_newline_is_a_terminator_not_a_blank_line():
    with_nl = ingest(b"only line\n", "a.txt")
    without_nl = ingest(b"only line", "a.txt")
    assert with_nl.lines == without_nl.lines == ((1, "only line"),)
    assert with_nl.fingerprint == without_nl.fingerprint


def test_interior_blank_lines_are_counted():
    doc = ingest(b"a\n\n\nb\n", "a.txt")
    assert [n for n, _ in doc.lines] == [1, 2, 3, 4]
    assert doc.line_text(2) == ""
    assert doc.line_text(3) == ""


def test_fingerprint_covers_content_not_name():
    a = ingest(b"same text\n", "one.txt")
    b = ingest(b"same text\n", "two.txt")
    assert a.fingerprint == b.fingerprint
    assert a.doc_id == a.fingerprint[:12]
    assert fingerprint_text(a.text()) == a.fingerprint


def test_first_line_offset_keeps_original_numbering():
    doc = ingest(b"x\ny\n", "a.txt", first_line=106)
    assert doc.first_line == 106
    assert doc.last_line == 107
    assert doc.line_text(107) == "y"
    with pytest.raises(ValueError):
        ingest(b"x\n", "a.txt", first_line=0)


def test_ingest_rejects_empty_and_blank_only_input():
    with pytest.raises(IngestError) as exc:
        ingest(b"", "a.txt")
    assert exc.value.kind == "empty"
    with pytest.raises(IngestError) as exc:
        ingest(b"\n\n   \n", "a.txt")
    assert exc.value.kind == "empty"


def test_ingest_rejects_non_utf8():
    with pytest.raises(IngestError) as exc:
        ingest(b"\xff\xfe bad", "a.txt")
    assert exc.value.kind == "encoding"


def test_ingest_rejects_unknown_format_hint():
    with pytest.raises(ValueError):
        ingest(b"x\n", "a.txt", "pdf")
    with pytest.raises(ValueError):
        ingest(b"x\n", "a.md", "markdown")


def test_html_ingestion_strips_tags_and_script():
    raw = (
        b"<html><head><style>p {color: red}</style>"
        b"<script>var x = 1;</script></head>"
        b"<body><h1>Terms</h1><p>You must register.</p>"
        b"<p>We may suspend accounts.</p></body></html>"
    )
    doc = ingest(raw, "tos.html", FORMAT_HTML)
    text = doc.text()
    assert "Terms" in text
    assert "You must register." in text
    assert "color" not in text
    assert "var x" not in text


def test_html_collapses_long_blank_runs():
    raw = b"<p>a</p><div></div><div></div><div></div><div></div><p>b</p>"
    doc = ingest(raw, "t.html", FORMAT_HTML)
    blanks = max_run = 0
    for _, text in doc.lines:
        blanks = blanks + 1 if not text.strip() else 0
        max_run = max(max_run, blanks)
    assert max_run <= 2


def test_ingest_path_infers_format_from_extension(tmp_path):
    html_file = tmp_path / "doc.html"
    html_file.write_bytes(b"<p>only the text</p>")
    doc = ingest_path(html_file)
    assert doc.text() == "only the text"
    assert doc.source_name == "doc.html"

    plain = tmp_path / "doc.txt"
    plain.write_bytes(b"<p>kept literally</p>\n")
    assert ingest_path(plain).text() == "<p>kept literally</p>"

    # Markdown is plain text: the same bytes give the same document.
    md = tmp_path / "doc.md"
    md.write_bytes(plain.read_bytes())
    from_md, from_txt = ingest_path(md), ingest_path(plain)
    assert from_md.fingerprint == from_txt.fingerprint
    assert from_md.lines == from_txt.lines


def test_ingest_path_names_the_document_after_its_file(tmp_path):
    f = tmp_path / "OpenAI_ToS.txt"
    f.write_bytes(b"text\n")
    doc = ingest_path(f, first_line=106)
    assert doc.source_name == "OpenAI_ToS.txt"
    assert doc.first_line == 106


def test_render_numbered_format():
    doc = ingest(b"alpha\n\nbeta\n", "a.txt")
    assert render_numbered(doc) == "1: alpha\n2:\n3: beta"
    offset = ingest(b"alpha\n\nbeta\n", "a.txt", first_line=40)
    assert render_numbered(offset) == "40: alpha\n41:\n42: beta"


def test_render_numbered_subrange_and_bounds():
    doc = ingest_excerpt()
    sub = render_numbered(doc, start_line=108, end_line=109)
    assert sub.startswith("108: Output may not always be accurate.")
    assert sub.count("\n") == 1
    with pytest.raises(SpanError):
        render_numbered(doc, start_line=105, end_line=109)
    with pytest.raises(SpanError):
        render_numbered(doc, start_line=109, end_line=108)


def test_source_ref_validation():
    ref = SourceRef("a.txt", 3, 5)
    assert ref.span_lines == 3
    with pytest.raises(ValueError):
        SourceRef("a.txt", 0, 2)
    with pytest.raises(ValueError):
        SourceRef("a.txt", 5, 3)
    with pytest.raises(ValueError):
        SourceRef("", 1, 1)


def test_resolve_span_exact_text():
    doc = ingest_excerpt()
    text = resolve_span(doc, SourceRef("OpenAI_ToS.txt", 108, 109))
    assert text == (
        "Output may not always be accurate. You should not rely on Output "
        "from our Services as a sole\nsource of truth or factual information, "
        "or as a substitute for professional advice."
    )
    assert resolve_span(doc, SourceRef("OpenAI_ToS.txt", 115, 115)) == (
        "Our Services may provide incomplete, incorrect, or offensive Output "
        "that does not represent"
    )


def test_resolve_span_failures():
    doc = ingest_excerpt()
    with pytest.raises(SpanError) as exc:
        resolve_span(doc, SourceRef("Other.txt", 108, 109))
    assert exc.value.kind == "wrong_document"
    with pytest.raises(SpanError) as exc:
        resolve_span(doc, SourceRef("OpenAI_ToS.txt", 100, 110))
    assert exc.value.kind == "out_of_range"
    with pytest.raises(SpanError) as exc:
        resolve_span(doc, SourceRef("OpenAI_ToS.txt", 117, 118))
    assert exc.value.kind == "out_of_range"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda doc: doc.line_text(105), "line 105"),
        (lambda doc: doc.line_text(118), "line 118"),
        (lambda doc: render_numbered(doc, start_line=105, end_line=109),
         "render range 105-109"),
        (lambda doc: render_numbered(doc, start_line=109, end_line=108),
         "render range 109-108"),
        (lambda doc: resolve_span(doc, SourceRef("OpenAI_ToS.txt", 100, 110)),
         "span 100-110"),
        (lambda doc: resolve_span(doc, SourceRef("OpenAI_ToS.txt", 117, 118)),
         "span 117-118"),
    ],
    ids=["line-before", "line-after", "render-before", "render-reversed",
         "span-before", "span-after"],
)
def test_out_of_range_messages(call, message):
    """Every out-of-range error names what was asked for, the document and
    its first and last line, in one wording."""
    with pytest.raises(SpanError) as exc:
        call(ingest_excerpt())
    assert exc.value.kind == "out_of_range"
    assert str(exc.value) == f"{message} outside OpenAI_ToS.txt (106..117)"


def test_line_text_out_of_range():
    doc = ingest_excerpt()
    with pytest.raises(SpanError):
        doc.line_text(105)
    with pytest.raises(SpanError):
        doc.line_text(118)


def test_documents_hash_on_their_fingerprint():
    doc = ingest(b"alpha\nbeta\n", "a.txt")
    clone = SourceDocument.from_json(doc.to_json())
    assert clone is not doc and clone == doc and hash(clone) == hash(doc)
    # The hash reads no line, so it costs the same at any length: a
    # document whose lines could not be hashed still hashes.
    unhashable_lines = SourceDocument(
        doc.doc_id, doc.source_name, ((1, ["alpha"]),), doc.fingerprint
    )
    assert hash(unhashable_lines) == hash(doc)
    # Equality still compares the lines: the same text numbered from 501
    # hashes equal but is another document.
    shifted = ingest(b"alpha\nbeta\n", "a.txt", first_line=501)
    assert hash(shifted) == hash(doc) and shifted != doc
    assert {doc: "from 1", shifted: "from 501"}[shifted] == "from 501"


def test_document_json_round_trip():
    doc = ingest_excerpt()
    clone = SourceDocument.from_json(doc.to_json())
    assert clone == doc


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=60),
        st.lists(
            st.one_of(st.sampled_from(["\n", "\r", "\r\n", "\ufeff", " ",
                                       "<p>", "</p>", "<script>", "&amp;",
                                       "\u2028"]),
                      st.characters(codec="utf-8")),
            max_size=30,
        ).map(lambda parts: "".join(parts).encode("utf-8")),
    ),
    st.sampled_from([None, FORMAT_HTML]),
    st.integers(1, 10**6),
)
def test_any_bytes_ingest_or_raise_and_round_trip(raw, format_hint, first_line):
    try:
        doc = ingest(raw, "fuzz.txt", format_hint, first_line=first_line)
    except IngestError:
        return
    stored = json.loads(json.dumps(doc.to_json(), ensure_ascii=False))
    clone = SourceDocument.from_json(stored)
    assert clone == doc
    assert fingerprint_text(clone.text()) == clone.fingerprint


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(""), st.just("   "),
                  st.text(st.characters(codec="utf-8",
                                        exclude_characters="\r\n\ufeff"),
                          max_size=16)),
        min_size=1, max_size=12,
    ).filter(lambda lines: any(line.strip() for line in lines)),
    st.text(st.characters(codec="utf-8"), min_size=1, max_size=8),
    st.integers(1, 10**6),
)
def test_document_text_equals_json_text_of_to_json(lines, name, first_line):
    """The one-join writer against its oracle: non-ASCII, control and quote
    characters, blank lines and a first line past 1."""
    doc = ingest("\n".join(lines).encode("utf-8"), name, first_line=first_line)
    assert doc.to_json_text() == json_text(doc.to_json())


def test_document_text_of_the_excerpt():
    doc = ingest_excerpt()
    assert doc.first_line == EXCERPT_FIRST_LINE
    assert doc.to_json_text() == json_text(doc.to_json())


def _other_hex(digits: str) -> str:
    """digits with its last hex digit changed."""
    return digits[:-1] + ("1" if digits[-1] == "0" else "0")


def _break_line(stored: dict, index: int, shape: int) -> None:
    """Put a newline or carriage return into line index's text and store
    the new text's fingerprint and doc_id, so only the line rule refuses it."""
    line = stored["lines"][index]
    line[1] = line[1][:shape] + "\n\r"[shape % 2] + line[1][shape:]
    fp = fingerprint_text("\n".join(text for _, text in stored["lines"]))
    stored.update(fingerprint=fp, doc_id=fp[:12])


# Each single change to a stored document that from_json refuses, given
# the stored JSON, a line index, a nonzero shift and a shape index.
_DOCUMENT_MUTATIONS = {
    "line break in a line": lambda d, i, k, s: _break_line(d, i, s),
    "line text": lambda d, i, k, s: d["lines"][i].__setitem__(
        1, d["lines"][i][1] + "x"),
    "line number": lambda d, i, k, s: d["lines"][i].__setitem__(
        0, d["lines"][i][0] + k),
    "first_line": lambda d, i, k, s: d.update(first_line=d["first_line"] + k),
    "renumbered from below 1": lambda d, i, k, s: d.update(
        first_line=1 - abs(k),
        lines=[[1 - abs(k) + j, t] for j, (_, t) in enumerate(d["lines"])]),
    "doc_id": lambda d, i, k, s: d.update(doc_id=_other_hex(d["doc_id"])),
    "fingerprint": lambda d, i, k, s: d.update(
        fingerprint=_other_hex(d["fingerprint"])),
    "line not a pair": lambda d, i, k, s: d["lines"].__setitem__(i, [
        d["lines"][i][:1],
        d["lines"][i] + [""],
        d["lines"][i][1],
        None,
        {"number": d["lines"][i][0], "text": d["lines"][i][1]},
    ][s]),
}


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    st.lists(
        st.text(st.characters(codec="utf-8", exclude_characters="\r\n\ufeff"),
                max_size=12),
        min_size=1, max_size=20,
    ).filter(lambda lines: any(line.strip() for line in lines)),
    st.integers(1, 10**6),
    st.integers(0, 10**6),
    st.sampled_from([-2, -1, 1, 2, 7]),
    st.integers(0, 4),
)
def test_stored_documents_round_trip_and_refuse_any_single_edit(
    lines, first_line, index, shift, shape
):
    doc = ingest("\n".join(lines).encode("utf-8"), "doc.txt",
                 first_line=first_line)
    stored = json.dumps(doc.to_json(), ensure_ascii=False)
    assert SourceDocument.from_json(json.loads(stored)) == doc
    for name, mutate in _DOCUMENT_MUTATIONS.items():
        mutated = json.loads(stored)
        mutate(mutated, index % doc.line_count, shift, shape)
        with pytest.raises(IngestError) as exc:
            SourceDocument.from_json(mutated, "stage.json")
        assert exc.value.kind == "document_changed", name
        assert str(exc.value).startswith("stage.json: "), name


@pytest.mark.parametrize("first_line", [0, -4])
def test_stored_document_numbered_from_below_line_one_is_refused(first_line):
    """Renumbered with its fingerprint intact, it counts up as it should,
    but ingest never numbers a line below 1."""
    stored = json.loads(json.dumps(ingest_excerpt().to_json()))
    stored["first_line"] = first_line
    stored["lines"] = [[first_line + i, text]
                       for i, (_, text) in enumerate(stored["lines"])]
    with pytest.raises(IngestError) as exc:
        SourceDocument.from_json(stored, "s0.json")
    assert exc.value.kind == "document_changed"
    assert str(exc.value) == f"s0.json: first_line must be >= 1, not {first_line}"


@pytest.mark.parametrize("text", ["a\nb", "a\rb"])
def test_stored_line_holding_a_line_break_is_refused(text):
    """ingest never leaves a line break inside a line. Stored as one line,
    "a\\nb" even has the fingerprint and doc_id of the two-line a, b."""
    fp = fingerprint_text(text)
    stored = {"source_name": "doc.txt", "doc_id": fp[:12], "fingerprint": fp,
              "first_line": 1, "lines": [[1, text]]}
    with pytest.raises(IngestError) as exc:
        SourceDocument.from_json(stored, "s1.json")
    assert exc.value.kind == "document_changed"
    assert str(exc.value) == "s1.json: a stored line holds a line break"
    if text == "a\nb":
        assert fp == ingest(b"a\nb\n", "doc.txt").fingerprint


def test_excerpt_numbering_matches_fixture():
    doc = ingest_excerpt()
    assert doc.first_line == EXCERPT_FIRST_LINE
    assert doc.last_line == 117
    assert doc.line_count == 12
    assert doc.line_text(107) == ""


def test_random_docs_render_parse_round_trip():
    rng = random.Random(20260822)
    for _ in range(200):
        doc = random_document(rng)
        pairs = list(shown_lines(render_numbered(doc)).items())
        # Whitespace-only lines render with their spaces intact except a
        # fully-empty text, which renders without the separating space.
        assert [(n, t) for n, t in pairs] == [(n, t) for n, t in doc.lines]
        numbers = [n for n, _ in doc.lines]
        assert numbers == list(range(doc.first_line, doc.last_line + 1))
