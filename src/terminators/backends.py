"""Text-generation backends behind one interface.

Two implementations: a live chat-completion HTTP client, and a scripted
backend that replays canned responses so every pipeline stage can run
offline and deterministically. Structured-output extraction and response
caching (CachedBackend) live here too, since both are properties of the
backend boundary.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

log = logging.getLogger(__name__)

SCHEMA_TERM_LIST = "term_list"
SCHEMA_VERIFICATION = "verification"
SCHEMA_PLAN = "plan"
SCHEMAS = (SCHEMA_TERM_LIST, SCHEMA_VERIFICATION, SCHEMA_PLAN)

VERIFICATION_LABELS = ("Supported", "Contradicted", "Unverifiable")

PLAN_CHECKS_KEY = "possible_accountability_checks"

# What the scripted backend says when not strict and nothing matches.
DEFAULT_REFUSAL = "I cannot help with that request."

# Matchers with this prefix compare against the request fingerprint
# instead of doing a substring test.
FINGERPRINT_MATCH_PREFIX = "fingerprint:"

FORMAT_REMINDERS = {
    SCHEMA_TERM_LIST: (
        "Reminder: respond with exactly one JSON array of term objects, "
        'each with the fields "term", "source", and "applicable_to". '
        "Output the JSON array and nothing else."
    ),
    SCHEMA_VERIFICATION: (
        "Reminder: respond with exactly one JSON object with the fields "
        '"verification" (one of "Supported", "Contradicted", "Unverifiable") '
        'and "justification". Output the JSON object and nothing else.'
    ),
    SCHEMA_PLAN: (
        "Reminder: respond with exactly one JSON object with the field "
        f'"{PLAN_CHECKS_KEY}" holding an array of strings. '
        "Output the JSON object and nothing else."
    ),
}


class BackendError(Exception):
    """Backend-boundary failure; kind distinguishes auth, transient, etc."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


@dataclass(frozen=True)
class BackendRequest:
    role_prompt: str
    user_prompt: str
    response_schema: str
    temperature: float = 0.0
    max_output_tokens: int = 2048

    def __post_init__(self):
        if self.response_schema not in SCHEMAS:
            raise ValueError(f"unknown response schema {self.response_schema!r}")
        if not (0.0 <= self.temperature <= 1.0):
            raise ValueError("temperature must be in [0, 1]")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")

    @cached_property
    def request_fingerprint(self) -> str:
        """Deterministic digest of the request content; cache key and script
        matcher target. Contains no credential material. Computed once per
        request: the dataclass is frozen, and dataclasses.replace builds a
        new request.

        The digest is SHA-256 of the sorted-key JSON of every field,
        non-ASCII characters written as themselves. user_prompt sorts last,
        so the JSON is fed to SHA-256 in pieces: the other fields (memoized),
        then the user prompt."""
        digest = hashlib.sha256(_fields_json(
            self.role_prompt, self.response_schema, self.temperature,
            self.max_output_tokens, math.copysign(1.0, self.temperature),
        ))
        digest.update(_json_string(self.user_prompt))
        digest.update(b"}")
        return digest.hexdigest()


def _json_string(text: str) -> bytes:
    """text as a JSON string in UTF-8, as json.dumps(ensure_ascii=False)
    writes it. Text that is ASCII without U+007F takes the faster ASCII
    encoder, which differs from the other only in escaping U+007F and
    everything above it."""
    if text.isascii() and "\x7f" not in text:
        return encode_basestring_ascii(text).encode("ascii")
    return encode_basestring(text).encode("utf-8")


@lru_cache(maxsize=256, typed=True)
def _fields_json(role_prompt, response_schema, temperature, max_output_tokens,
                 sign) -> bytes:
    """The start of a request's fingerprinted JSON: every field but
    user_prompt, then user_prompt's key. typed keeps 0 and 0.0, or True and
    1, apart: they are equal keys but encode differently; sign does the same
    for -0.0 and 0.0."""
    text = json.dumps(
        {"role_prompt": role_prompt, "response_schema": response_schema,
         "temperature": temperature, "max_output_tokens": max_output_tokens},
        sort_keys=True, ensure_ascii=False,
    )
    return (text[:-1] + ', "user_prompt": ').encode("utf-8")


@dataclass
class BackendResponse:
    raw_text: str
    parsed: object | None
    parse_error: str | None
    usage: dict
    latency_ms: float
    backend_id: str


def _schema_shape_ok(value, schema: str) -> str | None:
    """None when the value fits the schema's outer shape, else the problem."""
    if schema == SCHEMA_TERM_LIST:
        if not isinstance(value, list):
            return "expected a JSON array of term objects"
        for item in value:
            if not isinstance(item, dict):
                return "term array elements must be objects"
        return None
    if schema == SCHEMA_VERIFICATION:
        if not isinstance(value, dict):
            return "expected a JSON object"
        label = value.get("verification")
        if label not in VERIFICATION_LABELS:
            return f"field 'verification' must be one of {VERIFICATION_LABELS}"
        if not isinstance(value.get("justification"), str):
            return "field 'justification' must be a string"
        return None
    if schema == SCHEMA_PLAN:
        if not isinstance(value, dict):
            return "expected a JSON object"
        checks = value.get(PLAN_CHECKS_KEY)
        if not isinstance(checks, list) or not all(
            isinstance(c, str) for c in checks
        ):
            return f"field {PLAN_CHECKS_KEY!r} must be an array of strings"
        return None
    raise ValueError(f"unknown schema {schema!r}")


def extract_structured_value(raw_text: str, schema: str):
    """Pull exactly one schema-shaped JSON value out of model output.

    Scans for every top-level JSON object/array in the text (which makes
    code fences and surrounding prose harmless), keeps those matching the
    schema shape, and requires exactly one survivor.
    """
    decoder = json.JSONDecoder()
    candidates = []
    pos = 0
    while True:
        starts = [i for i in (raw_text.find("{", pos), raw_text.find("[", pos))
                  if i != -1]
        if not starts:
            break
        idx = min(starts)
        try:
            value, end = decoder.raw_decode(raw_text, idx)
        except json.JSONDecodeError:
            pos = idx + 1
            continue
        except RecursionError:
            raise ValueError(
                f"JSON value at offset {idx} is nested too deeply"
            ) from None
        candidates.append(value)
        pos = end

    matches = [v for v in candidates if _schema_shape_ok(v, schema) is None]
    if not matches:
        if candidates:
            raise ValueError(_schema_shape_ok(candidates[0], schema))
        raise ValueError(f"no JSON value of schema {schema!r} found in output")
    if len(matches) > 1:
        raise ValueError(f"multiple {schema!r} values found in output")
    return matches[0]


def _attach_parse(raw_text: str, schema: str, usage: dict, latency_ms: float,
                  backend_id: str) -> BackendResponse:
    try:
        parsed = extract_structured_value(raw_text, schema)
        parse_error = None
    except ValueError as exc:
        parsed = None
        parse_error = str(exc)
    return BackendResponse(
        raw_text=raw_text,
        parsed=parsed,
        parse_error=parse_error,
        usage=usage,
        latency_ms=latency_ms,
        backend_id=backend_id,
    )


def _estimated_usage(req: BackendRequest, raw_text: str) -> dict:
    # Rough chars/4 token estimate; keeps scripted usage deterministic.
    prompt_chars = len(req.role_prompt) + len(req.user_prompt)
    return {
        "input_tokens": prompt_chars // 4,
        "output_tokens": len(raw_text) // 4,
    }


class Backend:
    """Interface: generate one response for one request."""

    backend_id: str = "backend"

    def generate(self, req: BackendRequest) -> BackendResponse:
        raise NotImplementedError


class CachedBackend(Backend):
    """A backend bound to the response cache in cache_dir: requests made
    through parsing.run_request go by way of cached_complete. generate and
    backend_id are the wrapped backend's."""

    def __init__(self, backend: Backend, cache_dir):
        self.backend = backend
        self.cache_dir = cache_dir
        self.backend_id = backend.backend_id

    def generate(self, req: BackendRequest) -> BackendResponse:
        return self.backend.generate(req)


@dataclass(frozen=True)
class ScriptEntry:
    match: str
    response: str


class ScriptedBackend(Backend):
    """Replays canned responses chosen by ordered matchers.

    A matcher is a substring tested against the concatenated role and user
    prompts, or ``fingerprint:<hex>`` tested against the request fingerprint.
    First matching entry wins. Strict mode turns an unmatched request into an
    error; otherwise the backend answers with DEFAULT_REFUSAL.
    """

    backend_id = "scripted"

    def __init__(self, entries: list[ScriptEntry], *, strict: bool = True):
        self.entries = list(entries)
        self.strict = strict
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def _select(self, req: BackendRequest) -> str | None:
        haystack = req.role_prompt + "\n" + req.user_prompt
        for entry in self.entries:
            if entry.match.startswith(FINGERPRINT_MATCH_PREFIX):
                want = entry.match[len(FINGERPRINT_MATCH_PREFIX):]
                if req.request_fingerprint == want:
                    return entry.response
            elif entry.match in haystack:
                return entry.response
        return None

    def generate(self, req: BackendRequest) -> BackendResponse:
        with self._lock:
            self.calls.append(req.request_fingerprint)
        raw_text = self._select(req)
        if raw_text is None:
            if self.strict:
                raise BackendError(
                    "unmatched",
                    "no script entry matches request "
                    f"{req.request_fingerprint[:12]} ({req.response_schema})",
                )
            raw_text = DEFAULT_REFUSAL
        return _attach_parse(
            raw_text,
            req.response_schema,
            _estimated_usage(req, raw_text),
            0.0,
            self.backend_id,
        )


def load_script(path) -> ScriptedBackend:
    """Load a script file: a JSON array of {match, response_file} entries,
    both strings, response paths relative to the script file."""
    script_path = Path(path)
    try:
        data = json.loads(script_path.read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{script_path}: JSON nested too deeply") from None
    if not isinstance(data, list):
        raise ValueError(f"{script_path}: script must be a JSON array")
    entries = []
    for i, item in enumerate(data):
        if not (isinstance(item, dict) and isinstance(item.get("match"), str)
                and isinstance(item.get("response_file"), str)):
            raise ValueError(
                f"{script_path}: entry {i} must be an object with string "
                "'match' and 'response_file'"
            )
        response_path = script_path.parent / item["response_file"]
        entries.append(
            ScriptEntry(match=item["match"],
                        response=response_path.read_text(encoding="utf-8"))
        )
    return ScriptedBackend(entries)


def _retry_after_s(resp) -> float:
    """Seconds a 429 or 503 response asks the client to wait before the
    next attempt (its Retry-After header in the delta-seconds form), or 0."""
    if resp.status_code not in (429, 503):
        return 0.0
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except (TypeError, ValueError):
        return 0.0
    return seconds if 0.0 <= seconds < float("inf") else 0.0


class LiveBackend(Backend):
    """Chat-completion HTTP client.

    The credential is read from an environment variable at call time and
    never logged or embedded in fingerprints. Transient failures (429, 5xx,
    timeouts) retry with exponential backoff; a 429 or 503 that carries
    Retry-After waits at least that long. Calls in flight are bounded by
    the caller's worker count (parsing.map_ordered), not here.
    """

    def __init__(
        self,
        model: str,
        endpoint: str,
        *,
        api_key_env: str = "TERMINATORS_API_KEY",
        max_attempts: int = 4,
        timeout_s: float = 60.0,
        backoff_base_s: float = 1.0,
    ):
        self.model = model
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.max_attempts = max_attempts
        self.timeout_s = timeout_s
        self.backoff_base_s = backoff_base_s
        self.backend_id = f"live:{model}"

    def generate(self, req: BackendRequest) -> BackendResponse:
        import requests

        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise BackendError(
                "auth", f"credential variable {self.api_key_env} is not set"
            )
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.role_prompt},
                {"role": "user", "content": req.user_prompt},
            ],
            "temperature": req.temperature,
            "max_tokens": req.max_output_tokens,
        }
        headers = {"Authorization": f"Bearer {api_key}"}

        last_failure = "no attempt made"
        retry_after_s = 0.0
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(max(self.backoff_base_s * (2 ** (attempt - 1)),
                               retry_after_s))
                retry_after_s = 0.0
            started = time.monotonic()
            try:
                resp = requests.post(
                    self.endpoint,
                    json=payload,
                    headers=headers,
                    timeout=self.timeout_s,
                )
            except requests.RequestException as exc:
                last_failure = f"request failed: {type(exc).__name__}"
                log.warning("backend attempt %d/%d failed: %s",
                            attempt + 1, self.max_attempts, last_failure)
                continue
            latency_ms = (time.monotonic() - started) * 1000.0
            if resp.status_code in (401, 403):
                raise BackendError("auth", f"endpoint rejected credential "
                                           f"(HTTP {resp.status_code})")
            if resp.status_code == 429 or resp.status_code >= 500:
                last_failure = f"HTTP {resp.status_code}"
                retry_after_s = _retry_after_s(resp)
                log.warning("backend attempt %d/%d failed: %s",
                            attempt + 1, self.max_attempts, last_failure)
                continue
            if resp.status_code != 200:
                raise BackendError(
                    "request", f"unexpected HTTP {resp.status_code}: "
                               f"{resp.text[:200]}"
                )
            try:
                data = resp.json()
                raw_text = data["choices"][0]["message"]["content"]
                if not isinstance(raw_text, str):
                    raise TypeError(f"content is {type(raw_text).__name__}")
            except (ValueError, LookupError, TypeError) as exc:
                raise BackendError(
                    "request", f"unexpected response body shape: {exc}"
                ) from exc
            usage = data.get("usage") or _estimated_usage(req, raw_text)
            return _attach_parse(raw_text, req.response_schema, usage,
                                 latency_ms, self.backend_id)

        raise BackendError(
            "transient",
            f"gave up after {self.max_attempts} attempts; last: {last_failure}",
        )


# Per thread: the callable complete() runs just before a request goes to
# the backend. parsing.map_ordered installs one to start its helper threads
# only once a job has a backend wait ahead of it.
_wait_hooks = threading.local()


def install_wait_hook(hook):
    """Make `hook` (a no-argument callable, or None) the calling thread's
    wait hook; returns the hook it replaces, for the caller to restore."""
    previous = getattr(_wait_hooks, "hook", None)
    _wait_hooks.hook = hook
    return previous


def announce_wait() -> None:
    """Run the calling thread's wait hook, if any: a request is about to
    go to the backend."""
    hook = getattr(_wait_hooks, "hook", None)
    if hook is not None:
        hook()


def complete(backend: Backend, req: BackendRequest) -> BackendResponse:
    """One generation with structured output, allowing a single retry that
    restates the format when the first response does not parse. Every
    backend call goes through here, each announced to the wait hook."""
    announce_wait()
    resp = backend.generate(req)
    if resp.parsed is not None:
        return resp
    reminder = FORMAT_REMINDERS[req.response_schema]
    retry_req = replace(req, user_prompt=req.user_prompt + "\n\n" + reminder)
    announce_wait()
    retry = backend.generate(retry_req)
    if retry.parsed is not None:
        return retry
    raise BackendError(
        "malformed_output",
        f"unparseable {req.response_schema} output after format reminder: "
        f"{retry.parse_error}",
    )


def json_text(obj) -> str:
    """obj as JSON indented by two spaces, non-ASCII characters written as
    themselves: every run file and cache entry, without its final newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False)


def json_dumps(obj) -> str:
    return json_text(obj) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Write text to path, making its directory, by way of a temporary file
    named per process and thread, then os.replace: a reader sees a whole
    file, and threads writing the same path do not collide. A failed write
    removes its temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cached_complete(backend: Backend, req: BackendRequest,
                    cache_dir) -> BackendResponse:
    """complete() with a content-addressed response cache.

    One JSON file per request fingerprint, written atomically, holding only
    the response: the file name already identifies the request. A hit
    replays the stored raw text without touching the backend, so a cache
    populated by a live run makes later runs backend-free; it reads only
    "response", so entries that also store the request replay unchanged.
    A missing entry is a plain miss. Other cache trouble degrades to an
    uncached call with a warning, never an error: an entry that does not
    read (nested too deeply to decode included), or whose stored text does
    not fit the request's schema, counts as a miss and is overwritten.
    """
    name = f"{req.request_fingerprint}.json"
    entry_path = os.path.join(cache_dir, name)
    try:
        with open(entry_path, encoding="utf-8") as fh:
            entry = json.loads(fh.read())
        stored = entry["response"]
        if not isinstance(stored["raw_text"], str):
            raise TypeError("stored raw_text is not a string")
        resp = _attach_parse(
            stored["raw_text"],
            req.response_schema,
            stored["usage"],
            0.0,
            stored["backend_id"],
        )
        if resp.parsed is not None:
            return resp
        log.warning("cache entry %s does not fit schema %r: %s",
                    name, req.response_schema, resp.parse_error)
    except FileNotFoundError:
        pass
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        log.warning("unreadable cache entry %s: %s", name, exc)

    resp = complete(backend, req)
    try:
        write_atomic(Path(entry_path), json_dumps(
            {"response": {"raw_text": resp.raw_text, "usage": resp.usage,
                          "latency_ms": resp.latency_ms,
                          "backend_id": resp.backend_id}}
        ))
    except OSError as exc:
        log.warning("cache write failed for %s: %s", name, exc)
    return resp
