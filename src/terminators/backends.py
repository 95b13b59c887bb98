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
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from .documents import TerminatorsError

log = logging.getLogger(__name__)

SCHEMA_TERM_LIST = "term_list"
SCHEMA_VERIFICATION = "verification"
SCHEMA_PLAN = "plan"
SCHEMAS = (SCHEMA_TERM_LIST, SCHEMA_VERIFICATION, SCHEMA_PLAN)

VERIFICATION_LABELS = ("Supported", "Contradicted", "Unverifiable")

PLAN_CHECKS_KEY = "possible_accountability_checks"

# The sampling temperature of every request: fingerprinted with the
# request's fields and sent in the live payload.
TEMPERATURE = 0.0

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


class BackendError(TerminatorsError):
    """Backend-boundary failure; kind distinguishes auth, transient, etc."""


@dataclass(frozen=True)
class BackendRequest:
    role_prompt: str
    user_prompt: str
    response_schema: str
    max_output_tokens: int = 2048

    def __post_init__(self):
        if self.response_schema not in SCHEMAS:
            raise ValueError(f"unknown response schema {self.response_schema!r}")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")

    @cached_property
    def request_fingerprint(self) -> str:
        """Deterministic digest of the request content; cache key and script
        matcher target. Contains no credential material. Computed once per
        request: the dataclass is frozen, and dataclasses.replace builds a
        new request.

        The digest is SHA-256 of the sorted-key JSON of every field plus
        "temperature" (TEMPERATURE), non-ASCII characters written as
        themselves. user_prompt sorts last, so the JSON is fed to SHA-256 in
        pieces: the other fields (memoized), then the user prompt."""
        digest = hashlib.sha256(_fields_json(
            self.role_prompt, self.response_schema, self.max_output_tokens,
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
def _fields_json(role_prompt, response_schema, max_output_tokens) -> bytes:
    """The start of a request's fingerprinted JSON: every field but
    user_prompt, then user_prompt's key. typed keeps True and 1, or 2 and
    2.0, apart: they are equal keys but encode differently."""
    text = json.dumps(
        {"role_prompt": role_prompt, "response_schema": response_schema,
         "temperature": TEMPERATURE, "max_output_tokens": max_output_tokens},
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
    schema shape, and requires exactly one survivor. Text that is one
    schema-shaped array or object, the usual answer, is decoded in one call:
    the scan would find that value and nothing else.
    """
    try:
        value = json.loads(raw_text)
    except (ValueError, RecursionError):
        pass
    else:
        if _schema_shape_ok(value, schema) is None:
            return value
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
    First matching entry wins; a request no entry matches is an error.
    """

    backend_id = "scripted"

    def __init__(self, entries: list[ScriptEntry]):
        self.entries = list(entries)

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
        raw_text = self._select(req)
        if raw_text is None:
            raise BackendError(
                "unmatched",
                "no script entry matches request "
                f"{req.request_fingerprint[:12]} ({req.response_schema})",
            )
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
    data = read_json(script_path)
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


# The live client's credential variable, and its retry policy: attempts per
# request, seconds each may take, and the backoff before attempt n + 1
# (BACKOFF_BASE_S * 2 ** (n - 1)).
API_KEY_ENV = "TERMINATORS_API_KEY"
MAX_ATTEMPTS = 4
TIMEOUT_S = 60.0
BACKOFF_BASE_S = 1.0


class LiveBackend(Backend):
    """Chat-completion HTTP client.

    The credential is read from API_KEY_ENV at call time and never logged
    or embedded in fingerprints. Transient failures (429, 5xx, a failed
    connection, a timeout) retry with exponential backoff, MAX_ATTEMPTS
    attempts in all; a 429 or 503 that carries Retry-After waits at least
    that long. Other request errors (a bad URL) raise at once. Calls in flight
    are bounded by the caller's worker count (parsing.map_ordered), not
    here.
    """

    def __init__(self, model: str, endpoint: str):
        self.model = model
        self.endpoint = endpoint
        self.backend_id = f"live:{model}"

    def generate(self, req: BackendRequest) -> BackendResponse:
        import requests

        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise BackendError(
                "auth", f"credential variable {API_KEY_ENV} is not set"
            )
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.role_prompt},
                {"role": "user", "content": req.user_prompt},
            ],
            "temperature": TEMPERATURE,
            "max_tokens": req.max_output_tokens,
        }
        headers = {"Authorization": f"Bearer {api_key}"}

        last_failure = "no attempt made"
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(max(BACKOFF_BASE_S * (2 ** (attempt - 1)),
                               retry_after_s))
            started = time.monotonic()
            try:
                resp = requests.post(
                    self.endpoint,
                    json=payload,
                    headers=headers,
                    timeout=TIMEOUT_S,
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_failure = f"request failed: {type(exc).__name__}"
                retry_after_s = 0.0
            except requests.RequestException as exc:
                # Only the type: a message may quote the credential header.
                raise BackendError("request", f"request to {self.endpoint!r} "
                                   f"failed: {type(exc).__name__}") from exc
            else:
                if resp.status_code != 429 and resp.status_code < 500:
                    break
                last_failure = f"HTTP {resp.status_code}"
                retry_after_s = _retry_after_s(resp)
            log.warning("backend attempt %d/%d failed: %s",
                        attempt + 1, MAX_ATTEMPTS, last_failure)
        else:
            raise BackendError(
                "transient",
                f"gave up after {MAX_ATTEMPTS} attempts; last: {last_failure}",
            )

        latency_ms = (time.monotonic() - started) * 1000.0
        if resp.status_code in (401, 403):
            raise BackendError("auth", f"endpoint rejected credential "
                                       f"(HTTP {resp.status_code})")
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


# Per thread: the callable complete() runs when a backend call waits.
# parsing.map_ordered installs one to start its helper threads only once a
# job has a backend wait ahead of it.
_wait_hooks = threading.local()

# A call that spends more than this many seconds off its thread's CPU
# waited; its backend counts as one that waits from then on. An in-process
# backend stays far below it (its off-CPU time is preemption, at most a few
# milliseconds) and a remote one far above.
WAIT_S = 0.010

# Backends seen to wait. Held weakly, so a backend dropped by its caller
# goes; a backend is keyed by identity.
_waiting_backends = weakref.WeakSet()


def install_wait_hook(hook):
    """Make `hook` (a no-argument callable, or None) the calling thread's
    wait hook; returns the hook it replaces, for the caller to restore."""
    previous = getattr(_wait_hooks, "hook", None)
    _wait_hooks.hook = hook
    return previous


def announce_wait() -> None:
    """Run the calling thread's wait hook, if any: a backend call waits."""
    hook = getattr(_wait_hooks, "hook", None)
    if hook is not None:
        hook()


def _generate(backend: Backend, req: BackendRequest) -> BackendResponse:
    """backend.generate(req), announced to the wait hook: before the call
    for a backend seen to wait, else just after a call that waited more
    than WAIT_S off the thread's CPU, which marks the backend."""
    if backend in _waiting_backends:
        announce_wait()
        return backend.generate(req)
    wall, cpu = time.perf_counter(), time.thread_time()
    resp = backend.generate(req)
    if (time.perf_counter() - wall) - (time.thread_time() - cpu) > WAIT_S:
        _waiting_backends.add(backend)
        announce_wait()
    return resp


def complete(backend: Backend, req: BackendRequest) -> BackendResponse:
    """One generation with structured output, allowing a single retry that
    restates the format when the first response does not parse. Every
    backend call goes through here. A backend call that waits is announced
    to the wait hook, so helper threads start only for a backend that
    waits: once one of its calls has waited more than WAIT_S (10 ms) off
    the thread's CPU, and before each later call. An in-process backend
    never waits, and the first call of a remote one runs alone."""
    resp = _generate(backend, req)
    if resp.parsed is not None:
        return resp
    reminder = FORMAT_REMINDERS[req.response_schema]
    retry_req = replace(req, user_prompt=req.user_prompt + "\n\n" + reminder)
    retry = _generate(backend, retry_req)
    if retry.parsed is not None:
        return retry
    raise BackendError(
        "malformed_output",
        f"unparseable {req.response_schema} output after format reminder: "
        f"{retry.parse_error}",
    )


# Floats whose repr is not JSON, as json.dumps writes them.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _value_json(value, newline: str) -> str:
    """value as json.dumps(value, indent=2, ensure_ascii=False) writes it,
    newline (a newline and the current indent) starting each line after its
    first. Each list or object is one join, and a str item, key or value
    goes straight to the C escaper instead of through another call here.
    Keys must be str: the escaper raises TypeError for any other."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [encode_basestring(item) if type(item) is str
                 else _value_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring(key) + ": "
                 + (encode_basestring(item) if type(item) is str
                    else _value_json(item, inner))
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def json_text(obj) -> str:
    """obj as JSON indented by two spaces, non-ASCII characters written as
    themselves: every run file and stage output, without its final
    newline."""
    return _value_json(obj, "\n")


def json_dumps(obj) -> str:
    return json_text(obj) + "\n"


def read_json(path, name=None):
    """The JSON value in the file at path: every stored file is read back
    here. Text that is not JSON raises a json.JSONDecodeError that keeps the
    text as .doc, JSON nested too deeply a ValueError, each message starting
    with name (default: path), as does a ValueError for bytes that are not
    UTF-8."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name or path}: not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{name or path}: not JSON: {exc.msg}",
                                   text, exc.pos) from None
    except RecursionError:
        raise ValueError(f"{name or path}: JSON nested too deeply") from None


# Flags of write_atomic's temporary file, which it opens afresh.
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _open_in_dir(path, flags: int) -> int:
    """os.open(path, flags, 0o666), making path's directory only when the
    open finds it missing; the open is then tried once more."""
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return os.open(path, flags, 0o666)


def write_atomic(path, text: str) -> None:
    """Write text as UTF-8 to path (a str or path-like) by way of a
    temporary file named per process and thread, then os.replace: a reader
    sees a whole file, and threads writing the same path do not collide.
    The directory is made only when opening the temporary file finds it
    missing; the open is then tried once more. A failed write removes its
    temporary file."""
    data = text.encode("utf-8")
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    fd = _open_in_dir(tmp, _TMP_FLAGS)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def append_line(path, line: str) -> None:
    """Append line and a newline to path as UTF-8 in one os.write on an
    O_APPEND descriptor, so lines appended at once by threads or processes
    do not interleave; after a torn last line, a newline first. A short
    write raises OSError."""
    data = (line + "\n").encode("utf-8")
    fd = _open_in_dir(path, os.O_RDWR | os.O_APPEND | os.O_CREAT)
    try:
        end = os.fstat(fd).st_size
        if end and os.pread(fd, 1, end - 1) != b"\n":
            data = b"\n" + data
        if os.write(fd, data) != len(data):
            raise OSError(f"{path}: short write")
    finally:
        os.close(fd)


# The response cache in a cache directory, and how each of its lines
# starts: a scan reads the line's fingerprint from there.
PACK_NAME = "responses.jsonl"
_PACK_HEAD = re.compile(rb'\{"fingerprint": "([0-9a-f]{64})"')


class _PackIndex:
    """fingerprint -> (offset, length) of its last line in the pack last
    asked about: offsets, never entry bytes. A scan reads what was appended
    since the one before, or all of a pack that was replaced or shrank.
    Also the (directory, message) pairs warn_once has logged."""

    def __init__(self):
        self.lock, self.path = threading.Lock(), None
        self.warned, self.warned_lock = set(), threading.Lock()

    def warn_once(self, path: str, msg: str, *args) -> None:
        """log.warning(msg, *args) unless msg was logged for path's directory."""
        with self.warned_lock:
            if (key := (os.path.dirname(path), msg)) not in self.warned:
                self.warned.add(key)
                log.warning(msg, *args)

    def find(self, path: str, fingerprint: str):
        """Where fingerprint's line is in the pack at path, or None; the
        pack is scanned first when the index lacks fingerprint."""
        with self.lock:
            if path != self.path:
                self.path, self.inode, self.size, self.lines = path, 0, 0, {}
            if fingerprint not in self.lines:
                self._scan()
            return self.lines.get(fingerprint)

    def _scan(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                st = os.fstat(fh.fileno())
                if st.st_ino != self.inode or st.st_size < self.size:
                    self.inode, self.size, self.lines = st.st_ino, 0, {}
                fh.seek(self.size)
                *whole, tail = fh.read().split(b"\n")
        except OSError as exc:
            if not isinstance(exc, FileNotFoundError):
                self.warn_once(self.path, "unreadable cache pack %s: %s",
                               self.path, exc)
            return
        for line in whole:
            if head := _PACK_HEAD.match(line):
                self.lines[head[1].decode("ascii")] = (self.size, len(line))
            elif line:
                log.warning("cache pack %s: no entry at offset %d",
                            self.path, self.size)
            self.size += len(line) + 1
        if tail:
            log.warning("cache pack %s ends in a torn line", self.path)


_pack_index = _PackIndex()


def _stored(req: BackendRequest, path: str,
            where=None) -> BackendResponse | None:
    """The response stored for req in the file at path, or with where =
    (offset, length) in the pack line there, which must name req's
    fingerprint. None when the file is missing; None with a warning when
    the entry does not read or does not fit req's schema."""
    name = (os.path.basename(path) if where is None else
            f"{req.request_fingerprint} at offset {where[0]} of {path}")
    try:
        if where is None:
            with open(path, "rb") as fh:
                data = fh.read()
        else:
            # os.open and os.pread take a third of the time open().read() does.
            fd = os.open(path, os.O_RDONLY)
            try:
                data = os.pread(fd, where[1], where[0])
            finally:
                os.close(fd)
        entry = json.loads(data.decode("utf-8"))
        if where is not None and entry["fingerprint"] != req.request_fingerprint:
            raise ValueError(f"the line names {entry['fingerprint']!r}")
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
    except OSError as exc:
        _pack_index.warn_once(path, "unreadable cache entry %s: %s", name, exc)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        log.warning("unreadable cache entry %s: %s", name, exc)
    return None


def cached_complete(backend: Backend, req: BackendRequest,
                    cache_dir) -> BackendResponse:
    """complete() with a content-addressed response cache: the append-only
    pack PACK_NAME in cache_dir, one line {"fingerprint", "response"} per
    entry, the last line for a fingerprint winning. A hit replays the stored
    raw text without touching the backend. On a pack miss, the file
    <fingerprint>.json that earlier versions wrote is read, never written;
    a miss asks the backend and appends a line. Cache trouble degrades to an
    uncached call with a warning, never an error: an entry that does not
    read, names another fingerprint or does not fit the schema is a miss. An
    OSError from cache_dir is warned about once per process and kind."""
    fingerprint = req.request_fingerprint
    pack = os.path.join(cache_dir, PACK_NAME)
    if (where := _pack_index.find(pack, fingerprint)) is not None:
        if resp := _stored(req, pack, where):
            return resp
        with _pack_index.lock:  # the next find scans for the line below
            _pack_index.lines.pop(fingerprint, None)
    if resp := _stored(req, os.path.join(cache_dir, f"{fingerprint}.json")):
        return resp

    resp = complete(backend, req)
    try:
        append_line(pack, json.dumps({"fingerprint": fingerprint, "response": {
            "raw_text": resp.raw_text, "usage": resp.usage,
            "latency_ms": resp.latency_ms, "backend_id": resp.backend_id,
        }}, ensure_ascii=False))
    except OSError as exc:
        _pack_index.warn_once(pack, "cache write failed for %s: %s", fingerprint, exc)
    return resp
