"""A simulated agent that answers the pipeline's four request kinds offline.

The agent answers only from what a model would see in a request: the
numbered lines, the statement and the passage. It recognises planted clauses
through the generator's grammar tables. Its answers never depend on the
request fingerprint, so rewording a prompt or reordering threads does not
reshuffle them. Its noise is seeded on (seed, clause, request kind).

It also keeps the agent-side counters of the per-layer trace: calls and
estimated input tokens per kind, duplicate requests within a document,
format-reminder retries, planner follow-ups and time spent waiting.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter
from contextlib import nullcontext

from terminators import backends
from terminators.backends import (
    FORMAT_REMINDERS,
    PLAN_CHECKS_KEY,
    SCHEMA_PLAN,
    SCHEMA_TERM_LIST,
    SCHEMA_VERIFICATION,
    Backend,
    BackendRequest,
    BackendResponse,
)

from perfbench.generator import CLAUSE_TABLE, STATEMENT_TABLE, draw, outcome

KINDS = ("parse", "verify", "resource", "plan")

_NUMBERED_RE = re.compile(r"^(\d+):(?: (.*))?$", re.MULTILINE)
_DOC_NAME_RE = re.compile(r"^Document name: (.+)$", re.MULTILINE)
# The statement is the only double-quoted line of a resource or plan request.
_QUOTED_RE = re.compile(r'^"(.+)"$', re.MULTILINE)

MALFORMED_TEXT = "Sure. I went through the text and here is what I found."


class SimAgent(Backend):
    """Backend that plays parser, verifier, re-sourcing agent and planner.

    rates: miscite, drop, malformed, resource_success, short_plan (shares).
    latency: None, or (base_s, s_per_1k_input_tokens, max_jitter_s); the
    sleep happens in the calling thread, so the agent starts no threads.
    """

    backend_id = "perfbench-sim"

    def __init__(self, seed: int, rates: dict, latency: tuple | None = None):
        self.seed = seed
        self.rates = rates
        self.latency = latency
        self.tracer = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seen: set[str] = set()
        self._planned: set[str] = set()
        self.stats: Counter = Counter()

    # -- counters ---------------------------------------------------------

    def begin_doc(self) -> None:
        """Start a new document: duplicates are counted within one."""
        with self._lock:
            self._seen.clear()
            self._planned.clear()

    def thread_calls(self) -> int:
        """Calls that reached the agent from the current thread."""
        return getattr(self._local, "calls", 0)

    def _count(self, kind: str, req: BackendRequest, key: str) -> None:
        tokens = (len(req.role_prompt) + len(req.user_prompt)) // 4
        retry = FORMAT_REMINDERS[req.response_schema] in req.user_prompt
        fingerprint = req.request_fingerprint
        with self._lock:
            self.stats[f"calls.{kind}"] += 1
            self.stats[f"input_tokens.{kind}"] += tokens
            if fingerprint in self._seen:
                self.stats["duplicate_requests"] += 1
            self._seen.add(fingerprint)
            if retry:
                self.stats["format_retries"] += 1
            elif kind == "plan":
                if key in self._planned:
                    self.stats["followups"] += 1
                self._planned.add(key)
        self._local.calls = self.thread_calls() + 1

    # -- answering --------------------------------------------------------

    def _rng(self, key: str, kind: str):
        return draw(self.seed, key, kind)

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def generate(self, req: BackendRequest) -> BackendResponse:
        with self._span("backends.generate"):
            kind, key = _classify(req)
            self._count(kind, req, key)
            value = getattr(self, f"_answer_{kind}")(req, key)
            raw = json.dumps(value, ensure_ascii=False)
            reminded = FORMAT_REMINDERS[req.response_schema] in req.user_prompt
            if not reminded and (
                self._rng(key, kind + "|format").random() < self.rates["malformed"]
            ):
                raw = MALFORMED_TEXT
            if self.latency is not None:
                base, per_1k, jitter = self.latency
                tokens = (len(req.role_prompt) + len(req.user_prompt)) // 4
                wait = (base + per_1k * tokens / 1000
                        + jitter * self._rng(key, kind + "|latency").random())
                started = time.perf_counter()
                with self._span("backends.wait"):
                    time.sleep(wait)
                waited = time.perf_counter() - started
                with self._lock:
                    self.stats["wait_s"] += waited
            return _response(req, raw, self.backend_id)

    def _answer_parse(self, req: BackendRequest, key: str) -> list:
        name = _DOC_NAME_RE.search(req.user_prompt).group(1)
        terms = []
        for m in _NUMBERED_RE.finditer(req.user_prompt):
            text = m.group(2) or ""
            if text not in CLAUSE_TABLE:
                continue
            statement, party = CLAUSE_TABLE[text]
            fate = outcome(self.seed, statement, self.rates)
            if fate == "drop":
                continue
            line = int(m.group(1))
            if fate != "cite":
                line += self._rng(statement, "offset").choice((-3, -2, -1, 1, 2, 3))
            terms.append({"term": statement, "source": f"{name}:{line}",
                          "applicable_to": [party]})
        return terms

    def _answer_verify(self, req: BackendRequest, key: str) -> dict:
        passage = req.user_prompt.split("Passage:\n", 1)[1]
        clause = STATEMENT_TABLE.get(key)
        if clause is not None and clause in passage.split("\n"):
            label = "Supported"
        else:
            label = self._rng(key, "verify").choice(("Unverifiable", "Contradicted"))
        return {"verification": label, "justification": f"Judged {label}."}

    def _answer_resource(self, req: BackendRequest, key: str) -> list:
        name = _DOC_NAME_RE.search(req.user_prompt).group(1)
        clause = STATEMENT_TABLE.get(key)
        shown = {int(m.group(1)): m.group(2)
                 for m in _NUMBERED_RE.finditer(req.user_prompt)}
        true_line = next((n for n, text in shown.items() if text == clause), None)
        fate = outcome(self.seed, key, self.rates) if clause else "miscite:empty"
        if fate == "miscite:true" and true_line is not None:
            line = true_line
        elif fate == "miscite:wrong" and len(shown) > 1:
            line = self._rng(key, "wrong").choice(
                [n for n in shown if n != true_line])
        else:
            return []
        party = CLAUSE_TABLE[clause][1] if clause else "user"
        return [{"term": key, "source": f"{name}:{line}", "applicable_to": [party]}]

    def _answer_plan(self, req: BackendRequest, key: str) -> dict:
        rng = self._rng(key, "plan")
        topic = key.rstrip(".")
        checks = [
            f"Ask support in writing to confirm whether {topic[0].lower()}{topic[1:]}.",
            "Review the account settings and the privacy dashboard for any "
            "control that reflects this term.",
            "Keep dated screenshots of the relevant pages and compare them "
            "after each update to the terms.",
        ]
        if rng.random() < self.rates["short_plan"]:
            checks = checks[:2]
        return {PLAN_CHECKS_KEY: checks}


def _classify(req: BackendRequest) -> tuple[str, str]:
    """(kind, noise key) from the schema and what the user prompt shows: a
    quoted statement, or numbered lines. The role prompt is never read."""
    if req.response_schema == SCHEMA_VERIFICATION:
        return "verify", req.user_prompt.split('"', 2)[1]
    if req.response_schema == SCHEMA_PLAN:
        return "plan", req.user_prompt.split('"', 2)[1]
    if req.response_schema != SCHEMA_TERM_LIST:
        raise ValueError(f"unexpected schema {req.response_schema!r}")
    quoted = _QUOTED_RE.search(req.user_prompt)
    if quoted is not None:
        return "resource", quoted.group(1)
    numbers = [m.group(1) for m in _NUMBERED_RE.finditer(req.user_prompt)]
    name = _DOC_NAME_RE.search(req.user_prompt).group(1)
    return "parse", f"{name}:{numbers[0]}-{numbers[-1]}"


def _response(req: BackendRequest, raw: str, backend_id: str) -> BackendResponse:
    """Parse through the library's structured-output extractor, as a live
    backend does; looked up on the module so the trace sees it."""
    try:
        parsed, error = backends.extract_structured_value(raw, req.response_schema), None
    except ValueError as exc:
        parsed, error = None, str(exc)
    return BackendResponse(
        raw_text=raw,
        parsed=parsed,
        parse_error=error,
        usage={"input_tokens": (len(req.role_prompt) + len(req.user_prompt)) // 4,
               "output_tokens": len(raw) // 4},
        latency_ms=0.0,
        backend_id=backend_id,
    )
