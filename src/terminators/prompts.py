"""Prompt templates for the three agent roles plus the re-sourcing call.

Templates are versioned artifacts: golden tests pin their rendered output,
so wording changes must bump PROMPT_VERSION. Script matchers in tests key
on stable template phrases; keep the marked phrases intact when editing.
"""

from __future__ import annotations

from .backends import (
    SCHEMA_PLAN,
    SCHEMA_TERM_LIST,
    SCHEMA_VERIFICATION,
    BackendRequest,
)

PROMPT_VERSION = "v1"

TERM_FIELDS_SPEC = (
    'Respond with a single JSON array in which every element is an object '
    'with exactly these fields: "term" (the statement), "source" '
    '("<document name>:<start line>-<end line>", or "<document name>:<line>" '
    'when one line suffices), and "applicable_to" (an array naming each party '
    "the term applies to). Respond with the JSON array only."
)

PARSER_ROLE = (
    "You are a contract analyst working through a terms-of-service document. "
    "A term is a specific, declarative statement that communicates "
    "obligations, permissions, restrictions, rights, or responsibilities of "
    "either the user or the service provider. Extract every term stated in "
    "the numbered excerpt you are given. Cite where each term comes from "
    "using the line numbers shown in the excerpt. "
    + TERM_FIELDS_SPEC
    + " If the excerpt states no terms, respond with an empty JSON array []."
)

# Stable phrase script matchers may key on: "backed by the passage it cites"
VERIFIER_ROLE = (
    "You check whether a statement extracted from a terms-of-service "
    "document is backed by the passage it cites. Use only the passage given "
    "here; do not draw on the rest of the document or on outside knowledge. "
    "Answer Supported when the passage states the statement outright or "
    "clearly implies it. Answer Contradicted when the passage conflicts "
    "with the statement or the statement misstates what the passage says. "
    "Answer Unverifiable when the passage neither confirms nor conflicts "
    "with the statement, or has nothing to do with it. Respond with a "
    'single JSON object with exactly these fields: "verification" (one of '
    '"Supported", "Contradicted", "Unverifiable") and "justification" (one '
    "or two sentences explaining the label)."
)

# Stable phrase script matchers may key on: "Locate the single passage"
RESOURCE_ROLE = (
    "You are a contract analyst working through a terms-of-service document. "
    "Locate the single passage of the numbered document that backs the "
    "statement you are given. Respond with a JSON array containing exactly "
    'one object with these fields: "term" (the statement, copied unchanged), '
    '"source" ("<document name>:<start line>-<end line>", or '
    '"<document name>:<line>" when one line suffices), and "applicable_to" '
    "(an array naming each party the statement applies to). If no passage "
    "backs the statement, respond with an empty JSON array []."
)

PLANNER_ROLE = (
    "You design accountability checks: concrete actions an everyday user "
    "can take to observe whether a service lives up to a term of its "
    "terms-of-service agreement. Ground every check in the user's scenario "
    "so that each one is something that user could realistically do, "
    "observe, or evaluate, without privileged access to the service. "
    "Respond with a single JSON object with exactly one field "
    '"possible_accountability_checks" holding an array of strings, one '
    "check per string."
)


def build_parser_request(
    doc_name: str,
    numbered_text: str,
    *,
    aspects: tuple[str, ...] | None = None,
    max_output_tokens: int = 2048,
) -> BackendRequest:
    parts = [f"Document name: {doc_name}", ""]
    if aspects:
        joined = "; ".join(aspects)
        parts.append(
            f"Only extract terms about the following aspects: {joined}. "
            "Leave out terms that do not concern these aspects."
        )
        parts.append("")
    parts.append("Excerpt with line numbers:")
    parts.append(numbered_text)
    return BackendRequest(
        role_prompt=PARSER_ROLE,
        user_prompt="\n".join(parts),
        response_schema=SCHEMA_TERM_LIST,
        max_output_tokens=max_output_tokens,
    )


def build_verifier_request(
    statement: str,
    source_citation: str,
    passage: str,
    *,
    max_output_tokens: int = 512,
) -> BackendRequest:
    user_prompt = (
        f'Statement:\n"{statement}"\n\n'
        f"Cited source: {source_citation}\n\n"
        f"Passage:\n{passage}"
    )
    return BackendRequest(
        role_prompt=VERIFIER_ROLE,
        user_prompt=user_prompt,
        response_schema=SCHEMA_VERIFICATION,
        max_output_tokens=max_output_tokens,
    )


def build_resource_request(
    doc_name: str,
    numbered_text: str,
    statement: str,
    *,
    max_output_tokens: int = 1024,
) -> BackendRequest:
    user_prompt = (
        f"Document name: {doc_name}\n\n"
        f'Statement:\n"{statement}"\n\n'
        f"Document with line numbers:\n{numbered_text}"
    )
    return BackendRequest(RESOURCE_ROLE, user_prompt, SCHEMA_TERM_LIST,
                          max_output_tokens=max_output_tokens)


def build_planner_request(
    statement: str,
    source_citation: str,
    passage: str,
    scenario_description: str,
    *,
    jurisdiction_addendum: str | None = None,
    min_checks: int = 3,
    max_output_tokens: int = 1024,
) -> BackendRequest:
    parts = [
        f'Term:\n"{statement}"',
        "",
        f"Source passage ({source_citation}):\n{passage}",
        "",
        f"User scenario:\n{scenario_description}",
    ]
    if jurisdiction_addendum:
        parts.extend(["", f"Regional emphasis:\n{jurisdiction_addendum}"])
    parts.extend(["", f"Propose at least {min_checks} distinct checks."])
    return BackendRequest(
        role_prompt=PLANNER_ROLE,
        user_prompt="\n".join(parts),
        response_schema=SCHEMA_PLAN,
        max_output_tokens=max_output_tokens,
    )
