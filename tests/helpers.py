"""Shared test utilities: fixture paths, scripted-backend builders, and the
seeded generators behind the property sweeps."""

from __future__ import annotations

import json
import random
import threading
from pathlib import Path

from terminators.backends import (
    PLAN_CHECKS_KEY,
    SCHEMA_PLAN,
    SCHEMA_TERM_LIST,
    SCHEMA_VERIFICATION,
    Backend,
    BackendError,
    BackendRequest,
    BackendResponse,
    ScriptEntry,
    ScriptedBackend,
)
from terminators.documents import SourceDocument, ingest

FIXTURES = Path(__file__).parent / "fixtures"
RESPONSES = FIXTURES / "responses"
SCRIPTS = FIXTURES / "scripts"
GOLDEN = FIXTURES / "golden"

EXCERPT_NAME = "OpenAI_ToS.txt"
EXCERPT_FIRST_LINE = 106
RAW_NAME = "OpenAI_ToS_Raw.txt"

# The canned mis-cited statement: its citation points at the modify/copy
# clause (raw line 28) while the backing text actually sits on line 30.
MISMATCH_STATEMENT = (
    "You may not attempt to reverse engineer, decompile or discover the "
    "source code or underlying components of the Services."
)
MISMATCH_CITED_LINE = 28
MISMATCH_ACTUAL_LINE = 30

STUDENT_SCENARIO = (
    (FIXTURES / "student_scenario.txt").read_text(encoding="utf-8").strip()
)

CANNED_CHECKS = tuple(
    json.loads((RESPONSES / "listing7_plan.json").read_text(encoding="utf-8"))[
        PLAN_CHECKS_KEY
    ]
)


def ingest_excerpt() -> SourceDocument:
    return ingest(
        (FIXTURES / "openai_tos_excerpt.txt").read_bytes(),
        EXCERPT_NAME,
        first_line=EXCERPT_FIRST_LINE,
    )


def ingest_raw() -> SourceDocument:
    return ingest((FIXTURES / "openai_tos_raw.txt").read_bytes(), RAW_NAME)


def ingest_doc_text(text: str, name: str = "Inline.txt",
                    first_line: int = 1) -> SourceDocument:
    return ingest(text.encode("utf-8"), name, first_line=first_line)


def record_thread_starts(monkeypatch) -> list:
    """Threads started from now on, in start order."""
    started = []
    real_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def response_text(name: str) -> str:
    return (RESPONSES / name).read_text(encoding="utf-8")


def scripted(*entries: tuple[str, str], strict: bool = True) -> ScriptedBackend:
    """Backend from (match substring, response fixture file) pairs, in order."""
    built = [
        ScriptEntry(match=match, response=response_text(fname))
        for match, fname in entries
    ]
    return ScriptedBackend(built, strict=strict)


# Entry orderings for composed pipeline runs. Ordering is load-bearing:
# a resource request embeds the full numbered document, so its entry has to
# come before any parser entry keyed on a numbered line, and the verifier
# entry keyed on its role-prompt phrase has to come before planner entries
# keyed on statement fragments.
PARAGRAPH_ENTRIES = (
    ("108: Output may not always", "listing4_terms.json"),
    ("106: When you use", "empty_terms.json"),
)

HAPPY_RUN_ENTRIES = PARAGRAPH_ENTRIES + (
    ("backed by the passage it cites", "supported_verification.json"),
    ("sole source of truth", "listing7_plan.json"),
    ("evaluate Output for accuracy", "plan_accuracy.json"),
    ("legal or material impact", "plan_impact.json"),
    ("incomplete, incorrect, or offensive", "plan_disclaimer.json"),
)

MISMATCH_RUN_ENTRIES = (
    ("Locate the single passage", "empty_terms.json"),
    ("108: Output may not always", "listing4_terms.json"),
    ("106: When you use", "empty_terms.json"),
    ("incomplete, incorrect, or offensive", "unverifiable_verification.json"),
    ("backed by the passage it cites", "supported_verification.json"),
    ("sole source of truth", "listing7_plan.json"),
    ("evaluate Output for accuracy", "plan_accuracy.json"),
    ("legal or material impact", "plan_impact.json"),
)


# The happy run with one plan answered short, so that term's planning
# makes the follow-up request for more checks.
SHORT_PLAN_RUN_ENTRIES = tuple(
    (match, "plan_short.json" if match == "sole source of truth" else name)
    for match, name in HAPPY_RUN_ENTRIES
)


def happy_backend() -> ScriptedBackend:
    return scripted(*HAPPY_RUN_ENTRIES)


def mismatch_backend() -> ScriptedBackend:
    return scripted(*MISMATCH_RUN_ENTRIES)


_VOCAB = (
    "service account user provider content output data notice request terms "
    "access review policy privacy consent share suspend transfer limit "
    "payment refund dispute process retain delete modify personal liability "
    "responsible applicable agreement"
).split()

_HEADING_SAMPLES = (
    "GENERAL TERMS",
    "PRIVACY AND DATA",
    "ACCEPTABLE USE",
    "3. Content Ownership",
    "7.2) Termination Rights",
    "# Usage",
    "## Account duties",
)


def random_document(rng: random.Random, *, max_lines: int = 45) -> SourceDocument:
    """A small seeded document mixing prose, blanks, whitespace-only lines,
    and heading-shaped lines, with an occasional numbering offset."""
    n = rng.randint(3, max_lines)
    lines = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.22:
            lines.append("")
        elif roll < 0.28:
            lines.append("   ")
        elif roll < 0.36:
            lines.append(rng.choice(_HEADING_SAMPLES))
        else:
            count = rng.randint(3, 12)
            lines.append(" ".join(rng.choice(_VOCAB) for _ in range(count)))
    if not any(line.strip() for line in lines):
        lines[rng.randrange(len(lines))] = "service terms apply"
    first_line = rng.choice((1, 1, 1, 1, 40, 106))
    name = f"Doc_{rng.randrange(10 ** 6)}.txt"
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    return ingest(raw, name, first_line=first_line)


def random_statement(rng: random.Random, doc: SourceDocument) -> str:
    """Statement built mostly from the document's vocabulary, sometimes with
    words the document does not contain."""
    words = [w for w in doc.text().split() if w.strip()]
    if not words:
        words = ["service"]
    picked = [rng.choice(words) for _ in range(rng.randint(3, 10))]
    while rng.random() < 0.3:
        picked.append(rng.choice(("felucca", "quixotic", "zeppelin", "ossuary")))
    rng.shuffle(picked)
    return " ".join(picked)


class FailingFollowUp(Backend):
    """Answers as inner does, except that the planner's follow-up request
    for more checks fails with BackendError(kind)."""

    def __init__(self, inner: Backend, kind: str = "transient"):
        self.inner = inner
        self.kind = kind
        self.backend_id = inner.backend_id

    def generate(self, req: BackendRequest) -> BackendResponse:
        if "That list is too short" in req.user_prompt:
            raise BackendError(self.kind, "the follow-up request failed")
        return self.inner.generate(req)


class SeededBackend(Backend):
    """Fabricates schema-valid responses from a seed plus the request
    fingerprint, so identical requests answer identically no matter the
    thread order. Used by the randomized lifecycle sweeps."""

    backend_id = "seeded-test"

    def __init__(self, seed: int, doc: SourceDocument):
        self.seed = seed
        self.doc = doc

    def _rng(self, req: BackendRequest) -> random.Random:
        return random.Random(f"{self.seed}|{req.request_fingerprint}")

    def _random_source(self, rng: random.Random) -> str:
        if rng.random() < 0.08:
            # Out-of-range citation; validation must reject it.
            return f"{self.doc.source_name}:{self.doc.last_line + 50}"
        start = rng.randint(self.doc.first_line, self.doc.last_line)
        end = min(self.doc.last_line, start + rng.randint(0, 3))
        if start == end:
            return f"{self.doc.source_name}:{start}"
        return f"{self.doc.source_name}:{start}-{end}"

    def generate(self, req: BackendRequest) -> BackendResponse:
        rng = self._rng(req)
        if req.response_schema == SCHEMA_VERIFICATION:
            label = rng.choices(
                ("Supported", "Unverifiable", "Contradicted"), weights=(5, 3, 2)
            )[0]
            value = {"verification": label, "justification": "Seeded verdict."}
        elif req.response_schema == SCHEMA_PLAN:
            value = {
                PLAN_CHECKS_KEY: [
                    f"Seeded check {i}-{rng.randrange(10 ** 4)}." for i in range(3)
                ]
            }
        elif req.response_schema == SCHEMA_TERM_LIST:
            if "Locate the single passage" in req.role_prompt:
                if rng.random() < 0.5:
                    value = []
                else:
                    value = [
                        {
                            "term": "proposal",
                            "source": self._random_source(rng),
                            "applicable_to": ["user"],
                        }
                    ]
            else:
                value = [
                    {
                        "term": " ".join(
                            rng.choice(_VOCAB) for _ in range(rng.randint(3, 8))
                        ),
                        "source": self._random_source(rng),
                        "applicable_to": [rng.choice(("user", "we", "OtherCo"))],
                    }
                    for _ in range(rng.randint(0, 3))
                ]
        else:
            raise AssertionError(f"unexpected schema {req.response_schema}")
        raw = json.dumps(value)
        return BackendResponse(
            raw_text=raw,
            parsed=value,
            parse_error=None,
            usage={"input_tokens": 0, "output_tokens": 0},
            latency_ms=0.0,
            backend_id=self.backend_id,
        )
