"""Document ingestion and the line-numbered substrate that citations resolve against.

Every downstream stage cites source material as ``name:start-end`` line spans,
so the canonical form of a document is an immutable, line-numbered record.
Line numbers count every physical line, blank lines included, and may start at
an offset other than 1 so that excerpts keep their original numbering.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from html.parser import HTMLParser
from json.encoder import encode_basestring

FORMAT_PLAIN = "plain"
FORMAT_HTML = "html"
FORMATS = (FORMAT_PLAIN, FORMAT_HTML)

# HTML ingestion keeps at most this many consecutive blank lines.
_MAX_BLANK_RUN = 2


class TerminatorsError(Exception):
    """Base of every failure the package raises on purpose; kind names the
    failure within its class. The CLI exits 3 on a BackendError and 2 on
    any other."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


class IngestError(TerminatorsError):
    """Raised when a raw input cannot be turned into a SourceDocument."""


class SpanError(TerminatorsError):
    """Raised when a source span cannot be resolved against a document."""


@dataclass(frozen=True)
class SourceRef:
    """An inclusive line range in a named document, e.g. WebsiteToS.txt:70-72."""

    source_name: str
    start_line: int
    end_line: int

    def __post_init__(self):
        if not self.source_name:
            raise ValueError("source_name must be non-empty")
        if not (1 <= self.start_line <= self.end_line):
            raise ValueError(
                f"invalid span {self.start_line}-{self.end_line}: "
                "need 1 <= start <= end"
            )

    @property
    def span_lines(self) -> int:
        return self.end_line - self.start_line + 1


@dataclass(frozen=True)
class SourceDocument:
    """Normalized, line-numbered document. Immutable; safe to share across workers."""

    doc_id: str
    source_name: str
    lines: tuple[tuple[int, str], ...]
    fingerprint: str

    def __hash__(self) -> int:
        # The fingerprint stands for the text, so equal documents hash equal
        # and a hash costs the same at any length (memo lookups key on
        # documents). Equality still compares every field, lines included.
        return hash(self.fingerprint)

    @property
    def first_line(self) -> int:
        return self.lines[0][0]

    @property
    def last_line(self) -> int:
        return self.lines[-1][0]

    @property
    def line_count(self) -> int:
        return len(self.lines)

    def text(self) -> str:
        """The normalized document text (joining line texts reproduces it exactly)."""
        return "\n".join(text for _, text in self.lines)

    def _out_of_range(self, what: str) -> SpanError:
        """The error for what, lines this document does not have."""
        return SpanError("out_of_range", f"{what} outside {self.source_name} "
                                         f"({self.first_line}..{self.last_line})")

    def line_text(self, line_number: int) -> str:
        if not (self.first_line <= line_number <= self.last_line):
            raise self._out_of_range(f"line {line_number}")
        return self.lines[line_number - self.first_line][1]

    def to_json(self) -> dict:
        return {
            "source_name": self.source_name,
            "doc_id": self.doc_id,
            "fingerprint": self.fingerprint,
            "first_line": self.first_line,
            "lines": [[n, t] for n, t in self.lines],
        }

    def to_json_text(self) -> str:
        """json_text(self.to_json()), written by one join over the lines."""
        name, doc_id, fp = map(encode_basestring,
                               (self.source_name, self.doc_id, self.fingerprint))
        lines = "\n    ],\n    [\n      ".join(
            [f"{n},\n      {encode_basestring(t)}" for n, t in self.lines])
        return (f'{{\n  "source_name": {name},\n  "doc_id": {doc_id},\n'
                f'  "fingerprint": {fp},\n  "first_line": {self.first_line},\n'
                f'  "lines": [\n    [\n      {lines}\n    ]\n  ]\n}}')

    @classmethod
    def from_json(cls, data: dict, origin="stored document") -> "SourceDocument":
        """Decode to_json's form, checking what ingest guarantees: [int, str]
        line pairs counting up from a first_line of at least 1, the
        fingerprint of their text, and a doc_id of its first 12 digits. A
        document that breaks any of it raises IngestError("document_changed")
        naming origin."""
        try:
            first = data["first_line"]
            lines = tuple((n, t) for n, t in data["lines"])
            doc = cls(data["doc_id"], str(data["source_name"]), lines,
                      data["fingerprint"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError("document_changed",
                              f"{origin}: malformed document: {exc!r}") from exc
        if not lines:
            problem = "stored document has no lines"
        elif type(first) is not int or any(
                type(n) is not int or type(t) is not str or n != first + i
                for i, (n, t) in enumerate(lines)):
            problem = "stored lines are not [int, str] pairs counting up from first_line"
        elif first < 1:
            problem = f"first_line must be >= 1, not {first}"
        elif doc.fingerprint != fingerprint_text(doc.text()):
            problem = "stored lines no longer match the fingerprint"
        elif doc.doc_id != doc.fingerprint[:12]:
            problem = "doc_id is not the fingerprint's first 12 digits"
        else:
            return doc
        raise IngestError("document_changed", f"{origin}: {problem}")


class _TextExtractor(HTMLParser):
    """Collects text content from HTML, ignoring script/style."""

    _SKIP = {"script", "style"}
    _BREAKERS = {
        "p", "div", "br", "li", "ul", "ol", "table", "tr", "section",
        "article", "header", "footer", "h1", "h2", "h3", "h4", "h5", "h6",
    }

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1
        elif tag in self._BREAKERS:
            self.parts.append("\n")

    def handle_endtag(self, tag):
        if tag in self._SKIP and self._skip_depth > 0:
            self._skip_depth -= 1
        elif tag in self._BREAKERS:
            self.parts.append("\n")

    def handle_data(self, data):
        if self._skip_depth == 0:
            self.parts.append(data)

    def text(self) -> str:
        return "".join(self.parts)


def _strip_html(text: str) -> str:
    extractor = _TextExtractor()
    extractor.feed(text)
    extractor.close()
    lines = [line.strip() for line in extractor.text().split("\n")]
    # Collapse runs of more than _MAX_BLANK_RUN blank lines so fingerprints
    # stay reproducible regardless of tag nesting noise.
    out: list[str] = []
    blanks = 0
    for line in lines:
        if line == "":
            blanks += 1
            if blanks <= _MAX_BLANK_RUN:
                out.append(line)
        else:
            blanks = 0
            out.append(line)
    while out and out[0] == "":
        out.pop(0)
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out)


def fingerprint_text(normalized_text: str) -> str:
    """Content fingerprint of the normalized text only (not the source name),
    so renamed copies of the same document share identity for caching."""
    return hashlib.sha256(normalized_text.encode("utf-8")).hexdigest()


def ingest(
    raw_bytes: bytes,
    source_name: str,
    format_hint: str | None = None,
    *,
    first_line: int = 1,
) -> SourceDocument:
    """Normalize raw input into a SourceDocument.

    Normalization: UTF-8 decode (BOM stripped), carriage returns removed,
    blank lines preserved, a single trailing newline treated as a terminator
    rather than a final blank line. HTML inputs are tag-stripped first.
    `first_line` offsets the numbering so excerpts keep their original numbers.
    """
    if format_hint is not None and format_hint not in FORMATS:
        raise ValueError(f"unknown format hint {format_hint!r}")
    if first_line < 1:
        raise ValueError("first_line must be >= 1")
    try:
        text = raw_bytes.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestError("encoding", f"{source_name}: not valid UTF-8: {exc}") from exc

    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if format_hint == FORMAT_HTML:
        text = _strip_html(text)

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    if not any(line.strip() for line in lines):
        raise IngestError("empty", f"{source_name}: document empty after normalization")

    numbered = tuple((first_line + i, line) for i, line in enumerate(lines))
    normalized = "\n".join(lines)
    fp = fingerprint_text(normalized)
    return SourceDocument(
        doc_id=fp[:12],
        source_name=source_name,
        lines=numbered,
        fingerprint=fp,
    )


def ingest_path(path, format_hint: str | None = None, *,
                first_line: int = 1) -> SourceDocument:
    """Ingest a file, inferring the format from its extension when no hint is given."""
    from pathlib import Path

    p = Path(path)
    if format_hint is None:
        is_html = p.suffix.lower() in (".html", ".htm")
        format_hint = FORMAT_HTML if is_html else FORMAT_PLAIN
    return ingest(p.read_bytes(), p.name, format_hint,
                  first_line=first_line)


def render_numbered(
    doc: SourceDocument,
    *,
    start_line: int | None = None,
    end_line: int | None = None,
) -> str:
    """Render lines as ``<number>: <text>``; blank lines render as ``<number>:``.

    This is the exact text fed to the parser agent, so the format is bit-stable.
    An optional sub-range renders a chunk with its original numbering.
    """
    start = doc.first_line if start_line is None else start_line
    end = doc.last_line if end_line is None else end_line
    if start < doc.first_line or end > doc.last_line or start > end:
        raise doc._out_of_range(f"render range {start}-{end}")
    rendered = []
    for number, text in doc.lines[start - doc.first_line : end - doc.first_line + 1]:
        rendered.append(f"{number}: {text}" if text else f"{number}:")
    return "\n".join(rendered)


def resolve_span(doc: SourceDocument, ref: SourceRef) -> str:
    """Text of the cited lines, newline-joined. Fails rather than clamps."""
    if ref.source_name != doc.source_name:
        raise SpanError(
            "wrong_document",
            f"span names {ref.source_name!r} but document is {doc.source_name!r}",
        )
    if ref.start_line < doc.first_line or ref.end_line > doc.last_line:
        raise doc._out_of_range(f"span {ref.start_line}-{ref.end_line}")
    texts = [
        doc.lines[n - doc.first_line][1]
        for n in range(ref.start_line, ref.end_line + 1)
    ]
    return "\n".join(texts)
