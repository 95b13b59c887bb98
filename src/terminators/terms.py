"""Term records, party labels, lifecycle states, and candidate validation.

A term is one atomic obligation or grant with a verbatim-resolvable source
span and the parties it applies to. Terms move through a fixed lifecycle:
extracted, then one of the three verification states, then either resourced
(span replaced by a better-supported one) or discarded.
"""

from __future__ import annotations

import enum
import hashlib
import re
import string
from dataclasses import dataclass, field, replace

from .documents import (SourceDocument, SourceRef, SpanError,
                        TerminatorsError, resolve_span)

# Greedy name match so document names containing colons still parse;
# the final numeric group(s) are the span, in ASCII digits only. Matched
# with fullmatch: nothing, not even a trailing newline, follows the span.
SOURCE_RE = re.compile(r"(?P<name>.+):(?P<start>[0-9]+)(?:-(?P<end>[0-9]+))?")

_PUNCTUATION = string.punctuation.encode("ascii")

MAX_STATEMENT_CHARS = 2000


class TermStatus(enum.Enum):
    EXTRACTED = "extracted"
    VERIFIED_SUPPORTED = "verified_supported"
    CONTRADICTED = "contradicted"
    UNVERIFIABLE = "unverifiable"
    RESOURCED = "resourced"
    DISCARDED = "discarded"


# The end states a term keeps: reported as surviving and eligible for plans.
SURVIVING_STATUSES = (TermStatus.VERIFIED_SUPPORTED, TermStatus.RESOURCED)


# Lowercased labels that name the user or the provider whatever the
# provider's actual name.
_USER_ALIASES = {"user", "users", "you", "customer", "customers", "member",
                 "members", "subscriber", "subscribers"}
_PROVIDER_ALIASES = {"provider", "we", "us", "company", "service", "services",
                     "the service", "the company"}


class SchemaError(TerminatorsError):
    """A candidate term record that does not fit the schema."""


class LifecycleError(TerminatorsError):
    """An illegal term status transition; its kind is "lifecycle"."""


@dataclass(frozen=True)
class Term:
    """A term in record order: the paper's three fields (the statement is
    stored as "term"), then its identity, aspect and lifecycle state."""

    statement: str = field(metadata={"key": "term"})
    source: SourceRef
    applicable_to: tuple[str, ...]
    term_id: str
    aspect: str | None = field(default=None, kw_only=True)
    status: TermStatus = field(kw_only=True)


def known_party(label: str, provider_name: str | None = None) -> bool:
    """Whether a model-produced party label names the user or the provider:
    an alias of either, or the provider's own name or its possessive,
    matched case-insensitively."""
    low = label.strip().lower()
    if low in _USER_ALIASES or low in _PROVIDER_ALIASES:
        return True
    if provider_name:
        pn = provider_name.lower()
        return low in (pn, pn + "'s", pn + "s")
    return False


def parse_source_string(source: str) -> SourceRef:
    """Parse ``name:start`` or ``name:start-end`` into a SourceRef."""
    m = SOURCE_RE.fullmatch(source)
    if m is None:
        raise SchemaError("source_format", f"unparseable source {source!r}")
    try:
        # int() refuses digit strings past the interpreter's length limit.
        start = int(m.group("start"))
        end = int(m.group("end")) if m.group("end") else start
        return SourceRef(m.group("name"), start, end)
    except ValueError as exc:
        raise SchemaError("source_range", f"{source!r}: {exc}") from exc


def canonical_source_string(ref: SourceRef) -> str:
    """Render a SourceRef back to citation form; single-line spans have no dash."""
    if ref.start_line == ref.end_line:
        return f"{ref.source_name}:{ref.start_line}"
    return f"{ref.source_name}:{ref.start_line}-{ref.end_line}"


def term_identity(doc: SourceDocument, statement: str, ref: SourceRef,
                  aspect: str | None) -> str:
    key = f"{doc.fingerprint}|{statement}|{canonical_source_string(ref)}|{aspect or ''}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]


def validate_term(
    candidate: dict,
    doc: SourceDocument,
    *,
    provider_name: str | None = None,
    aspect: str | None = None,
    warnings: list[str] | None = None,
) -> Term:
    """Validate one raw extractor record into a Term, or raise SchemaError.

    Checks field presence and types, statement length, source citation format,
    and that the cited span actually resolves in the document. Party labels
    are kept stripped; a label known_party does not recognize is kept too,
    with a warning.
    """
    if not isinstance(candidate, dict):
        raise SchemaError("field", f"term record is {type(candidate).__name__}, not object")
    for key in ("term", "source", "applicable_to"):
        if key not in candidate:
            raise SchemaError("field", f"missing field {key!r}")

    statement = candidate["term"]
    if not isinstance(statement, str) or not statement.strip():
        raise SchemaError("field", "field 'term' must be a non-empty string")
    # Models occasionally wrap statements; a statement is one logical line.
    statement = " ".join(statement.split())
    if len(statement) > MAX_STATEMENT_CHARS:
        raise SchemaError("field", f"statement over {MAX_STATEMENT_CHARS} chars")

    source = candidate["source"]
    if not isinstance(source, str):
        raise SchemaError("source_format", "field 'source' must be a string")
    ref = parse_source_string(source.strip())
    try:
        resolve_span(doc, ref)
    except SpanError as exc:
        raise SchemaError("source_range", f"{source!r}: {exc}") from exc

    labels = candidate["applicable_to"]
    if not isinstance(labels, list) or not labels:
        raise SchemaError("field", "field 'applicable_to' must be a non-empty list")
    parties = []
    for label in labels:
        if not isinstance(label, str) or not label.strip():
            raise SchemaError("field", "party labels must be non-empty strings")
        label = label.strip()
        if warnings is not None and not known_party(label, provider_name):
            warnings.append(f"unrecognized party label {label!r}")
        parties.append(label)

    return Term(
        statement=statement,
        source=ref,
        applicable_to=tuple(parties),
        term_id=term_identity(doc, statement, ref, aspect),
        aspect=aspect,
        status=TermStatus.EXTRACTED,
    )


def _normalized_statement(statement: str) -> str:
    """The statement lowercased, ASCII punctuation deleted and whitespace
    runs collapsed to one space: the key duplicates share. Punctuation is
    deleted from the UTF-8 bytes, where an ASCII byte is always its own
    character; surrogatepass carries lone surrogates through."""
    text = statement.encode("utf-8", "surrogatepass").translate(None, _PUNCTUATION)
    return " ".join(text.decode("utf-8", "surrogatepass").lower().split())


def dedupe_terms(terms: list[Term]) -> list[Term]:
    """Merge duplicate statements produced by overlapping extraction passes.

    Terms whose normalized statements match are one term: the narrowest span
    wins (ties: earliest start), applicable_to is unioned preserving first-seen
    order, and the result is sorted by source position, then normalized
    statement.
    """
    groups: dict[tuple[str, str | None], list[Term]] = {}
    for term in terms:
        key = (_normalized_statement(term.statement), term.aspect)
        groups.setdefault(key, []).append(term)

    merged: list[tuple[str, Term]] = []
    for (normalized, _), group in groups.items():
        keeper = min(
            group,
            key=lambda t: (t.source.span_lines, t.source.start_line),
        )
        parties = dict.fromkeys(
            label for term in group for label in term.applicable_to
        )
        merged.append((normalized, replace(keeper, applicable_to=tuple(parties))))

    merged.sort(
        key=lambda item: (
            item[1].source.start_line,
            item[1].source.end_line,
            item[0],
        )
    )
    return [term for _, term in merged]
