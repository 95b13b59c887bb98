"""Term records, party roles, lifecycle states, and candidate validation.

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
from dataclasses import dataclass, replace

from .documents import SourceDocument, SourceRef, resolve_span

# Greedy name match so document names containing colons still parse;
# the final numeric group(s) are the span, in ASCII digits only. Matched
# with fullmatch: nothing, not even a trailing newline, follows the span.
SOURCE_RE = re.compile(r"(?P<name>.+):(?P<start>[0-9]+)(?:-(?P<end>[0-9]+))?")

_WS_RE = re.compile(r"\s+")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

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


class Role(enum.Enum):
    USER = "user"
    PROVIDER = "provider"
    THIRD_PARTY = "third_party"


# Lowercased labels that map onto canonical roles regardless of the
# provider's actual name.
_USER_ALIASES = {"user", "users", "you", "customer", "customers", "member",
                 "members", "subscriber", "subscribers"}
_PROVIDER_ALIASES = {"provider", "we", "us", "company", "service", "services",
                     "the service", "the company"}


class SchemaError(Exception):
    """A candidate term record that does not fit the schema."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


class LifecycleError(Exception):
    """An illegal term status transition."""


@dataclass(frozen=True)
class PartyRole:
    role: Role
    raw_label: str


@dataclass(frozen=True)
class Term:
    term_id: str
    statement: str
    source: SourceRef
    applicable_to: tuple[PartyRole, ...]
    aspect: str | None = None
    status: TermStatus = TermStatus.EXTRACTED


def resolve_party(raw_label: str, provider_name: str | None = None) -> PartyRole:
    """Map a model-produced party label onto a canonical role.

    The provider's own name (matched case-insensitively, with possessive
    forms) resolves to provider; everything unrecognized is third_party.
    """
    label = raw_label.strip()
    low = label.lower()
    if low in _USER_ALIASES:
        return PartyRole(Role.USER, label)
    if low in _PROVIDER_ALIASES:
        return PartyRole(Role.PROVIDER, label)
    if provider_name:
        pn = provider_name.lower()
        if low == pn or low == pn + "'s" or low == pn + "s":
            return PartyRole(Role.PROVIDER, label)
    return PartyRole(Role.THIRD_PARTY, label)


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
    are normalized; unknown labels survive as third_party with a warning.
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
    statement = _WS_RE.sub(" ", statement).strip()
    if len(statement) > MAX_STATEMENT_CHARS:
        raise SchemaError("field", f"statement over {MAX_STATEMENT_CHARS} chars")

    source = candidate["source"]
    if not isinstance(source, str):
        raise SchemaError("source_format", "field 'source' must be a string")
    ref = parse_source_string(source.strip())
    try:
        resolve_span(doc, ref)
    except Exception as exc:
        raise SchemaError("source_range", f"{source!r}: {exc}") from exc

    labels = candidate["applicable_to"]
    if not isinstance(labels, list) or not labels:
        raise SchemaError("field", "field 'applicable_to' must be a non-empty list")
    parties = []
    for label in labels:
        if not isinstance(label, str) or not label.strip():
            raise SchemaError("field", "party labels must be non-empty strings")
        party = resolve_party(label, provider_name)
        if party.role is Role.THIRD_PARTY and warnings is not None:
            low = label.strip().lower()
            if provider_name is None or low != provider_name.lower():
                warnings.append(f"unrecognized party label {label.strip()!r}")
        parties.append(party)

    return Term(
        term_id=term_identity(doc, statement, ref, aspect),
        statement=statement,
        source=ref,
        applicable_to=tuple(parties),
        aspect=aspect,
        status=TermStatus.EXTRACTED,
    )


def _normalized_statement(statement: str) -> str:
    return _WS_RE.sub(" ", statement.translate(_PUNCT_TABLE).lower()).strip()


def dedupe_terms(terms: list[Term]) -> list[Term]:
    """Merge duplicate statements produced by overlapping extraction passes.

    Terms whose normalized statements match are one term: the narrowest span
    wins (ties: earliest start), applicable_to is unioned preserving first-seen
    order, and the result is sorted by source position.
    """
    groups: dict[tuple[str, str | None], list[Term]] = {}
    order: list[tuple[str, str | None]] = []
    for term in terms:
        key = (_normalized_statement(term.statement), term.aspect)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(term)

    merged: list[Term] = []
    for key in order:
        group = groups[key]
        keeper = min(
            group,
            key=lambda t: (t.source.span_lines, t.source.start_line),
        )
        parties: list[PartyRole] = []
        seen: set[tuple[Role, str]] = set()
        for term in group:
            for party in term.applicable_to:
                pkey = (party.role, party.raw_label)
                if pkey not in seen:
                    seen.add(pkey)
                    parties.append(party)
        merged.append(replace(keeper, applicable_to=tuple(parties)))

    merged.sort(
        key=lambda t: (
            t.source.start_line,
            t.source.end_line,
            _normalized_statement(t.statement),
        )
    )
    return merged


def term_to_json(term: Term, *, extended: bool = True) -> dict:
    """Serialize a term. The compact form carries exactly the three fields the
    extractor emits; the extended form appends identity, aspect, and status."""
    record = {
        "term": term.statement,
        "source": canonical_source_string(term.source),
        "applicable_to": [p.raw_label for p in term.applicable_to],
    }
    if extended:
        record["term_id"] = term.term_id
        record["aspect"] = term.aspect
        record["status"] = term.status.value
    return record


def term_from_json(record: dict, *, provider_name: str | None = None) -> Term:
    """Rebuild a Term from its extended serialized form. Pass the same
    provider_name used at extraction time so roles resolve identically."""
    ref = parse_source_string(record["source"])
    parties = tuple(
        resolve_party(label, provider_name) for label in record["applicable_to"]
    )
    return Term(
        term_id=record["term_id"],
        statement=record["term"],
        source=ref,
        applicable_to=parties,
        aspect=record.get("aspect"),
        status=TermStatus(record["status"]),
    )
