"""Per-layer tracing from outside the program.

Spans record (id, name, start, end, parent id, doc). They are kept in memory
and summarised when the run ends. A layer is traced by replacing a module
attribute at the place where the caller looks it up (``pipeline.verify_all``,
``parsing.extract_chunk``, ``RunStore.write_json``) with a wrapper, and
putting the original back afterwards, so untraced runs time unwrapped code.

Pipeline phases fan work out to thread pools. A span that opens on a worker
thread with nothing open on that thread takes as parent the innermost span
open on the thread that created the tracer, which is the phase call that
started the pool.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

from terminators import (
    backends,
    parsing,
    pipeline,
    planning,
    remediation,
    terms,
    verification,
)

from perfbench.agent import KINDS


class Tracer:
    """Collects spans and counts. Create it on the thread that drives the
    pipeline."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.doc: str | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, perf_counter()

    def _end(self, name: str, token: tuple) -> None:
        end = perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent, self.doc))

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        token = self._begin()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(name, token)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.token = self.tracer._begin()
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.name, self.token)
        return False


# -- wrapping ---------------------------------------------------------------

# (owner, attribute, span name): each place a traced function is looked up.
SPANNED = (
    (parsing, "render_numbered", "documents.render_numbered"),
    (remediation, "render_numbered", "documents.render_numbered"),
    (parsing, "chunk_document", "chunking.chunk"),
    (backends, "extract_structured_value", "backends.extract_structured_value"),
    (pipeline, "extract_document", "parsing.extract_document"),
    (parsing, "extract_chunk", "parsing.extract_chunk"),
    (parsing, "validate_term", "terms.validate_term"),
    (parsing, "dedupe_terms", "terms.dedupe_terms"),
    (pipeline, "verify_all", "verification.verify_all"),
    (verification, "verify_term", "verification.verify_term"),
    (remediation, "verify_term", "verification.verify_term"),
    (pipeline, "remediate", "remediation.remediate"),
    (remediation, "resource_term", "remediation.resource_term"),
    (remediation, "find_best_window", "remediation.find_best_window"),
    (pipeline, "plan_all", "planning.plan_all"),
    (pipeline, "emit_report", "pipeline.emit_report"),
    (pipeline.RunStore, "write_json", "pipeline.write"),
    (pipeline.RunStore, "write_text", "pipeline.write"),
)
# Called thousands of times per document: counted, and timed in aggregate
# where the flag is set, instead of spanned, so their time stays inside the
# caller's self time.
COUNTED = (
    (terms, "resolve_span", "documents.resolve_span", False),
    (verification, "resolve_span", "documents.resolve_span", False),
    (remediation, "resolve_span", "documents.resolve_span", False),
    (planning, "resolve_span", "documents.resolve_span", False),
    (verification, "lexical_support_score", "verification.lexical_support_score", True),
    (remediation, "lexical_support_score", "verification.lexical_support_score", True),
)
CACHE_SITE = (parsing, "cached_complete")


def _after(tracer: Tracer, name: str, result, args) -> None:
    """Counts read from what a traced call returned."""
    if name == "documents.render_numbered":
        tracer.count("documents.render_numbered.chars", len(result))
    elif name == "chunking.chunk":
        tracer.count("chunking.chunks_per_doc", len(result))
    elif name == "parsing.extract_chunk":
        tracer.count("parsing.rejected_candidates", result.rejected_count)
        tracer.count("parsing.flagged_outside_chunk",
                     len(result.flagged_outside_chunk))
    elif name == "terms.dedupe_terms":
        tracer.count("terms.dedupe.in", len(args[0]))
        tracer.count("terms.dedupe.out", len(result))
    elif name == "verification.verify_term":
        tracer.count("verification.supported", result.label == "Supported")
    elif name == "remediation.remediate":
        tracer.count(f"remediation.action.{result.action}")
        tracer.count("remediation.repeat_proposals", sum(
            "already tried" in entry.note for entry in result.trail))
    elif name == "pipeline.write":
        store, file_name = args[0], args[1]
        tracer.count("pipeline.write.bytes", store.path(file_name).stat().st_size)


def _spanned(tracer: Tracer, original, name: str):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, original, *args, **kwargs)
        _after(tracer, name, result, args)
        return result
    return wrapper


def _counted(tracer: Tracer, original, name: str):
    calls = name + ".calls"

    def wrapper(*args, **kwargs):
        tracer.count(calls)
        return original(*args, **kwargs)
    return wrapper


def _timed(tracer: Tracer, original, name: str):
    calls, seconds = name + ".calls", name + ".s"

    def wrapper(*args, **kwargs):
        started = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            with tracer._lock:
                tracer.counts[calls] += 1
                tracer.counts[seconds] += elapsed
    return wrapper


def _cache_wrapper(tracer: Tracer, original, agent):
    def wrapper(*args, **kwargs):
        before = agent.thread_calls()
        result = tracer.call("backends.cached_complete", original, *args, **kwargs)
        hit = agent.thread_calls() == before
        tracer.count("backends.cache.hits" if hit else "backends.cache.misses")
        return result
    return wrapper


def install(tracer: Tracer, agent) -> list[tuple]:
    """Wrap every traced lookup site; returns what restore() needs.

    A site missing from the program is reported on stderr and skipped, so
    its metrics read 0 instead of failing the run.
    """
    sites = [(o, a, _spanned, n) for o, a, n in SPANNED]
    sites += [(o, a, _timed if timed else _counted, n) for o, a, n, timed in COUNTED]
    sites.append((*CACHE_SITE, lambda t, f, _: _cache_wrapper(t, f, agent), None))
    saved = []
    for owner, attr, make, name in sites:
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {owner.__name__}.{attr} not found; not traced",
                  file=sys.stderr)
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, make(tracer, original, name))
    agent.tracer = tracer
    return saved


def restore(saved: list[tuple], agent) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
    agent.tracer = None


# -- summarising --------------------------------------------------------------

def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_times(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: busy (sum of durations), wall (time any of them was
    open) and self (durations minus the part their child spans cover)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    busy: Counter = Counter()
    own: Counter = Counter()
    intervals: dict[str, list] = defaultdict(list)
    for span_id, name, start, end, _, _ in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())
                  if min(e, end) > max(s, start)]
        busy[name] += end - start
        own[name] += (end - start) - _union(inside)
        intervals[name].append((start, end))
    return {
        name: {"s": busy[name], "wall_s": _union(intervals[name]),
               "self_s": own[name]}
        for name in busy
    }


# The spans that make up each pipeline phase. remediate runs once per term,
# so a phase lasts from its first span's start to its last span's end.
PHASE_SPANS = ("parsing.extract_document", "verification.verify_all",
               "remediation.remediate", "planning.plan_all")


def _phase_windows(spans: list[tuple]) -> dict[tuple[str, str], tuple[float, float]]:
    """(doc, phase span name) -> (first start, last end)."""
    windows: dict = {}
    for _, name, start, end, _, doc in spans:
        if name in PHASE_SPANS:
            a, b = windows.get((doc, name), (start, end))
            windows[(doc, name)] = (min(a, start), max(b, end))
    return windows


def _worker_idle(spans: list[tuple], windows: dict, workers: int) -> float:
    """Sum over documents and phases of phase wall x workers minus the time
    the agent was busy inside the phase."""
    agent_busy: dict = defaultdict(list)
    for _, name, start, end, _, doc in spans:
        if name == "backends.generate":
            agent_busy[doc].append((start, end))
    idle = 0.0
    for (doc, _), (a, b) in windows.items():
        busy = sum(max(0.0, min(e, b) - max(s, a)) for s, e in agent_busy[doc])
        idle += (b - a) * workers - busy
    return idle


# Layers whose busy, wall and self time are reported as metrics.
TIMED_LAYERS = (
    "chunking.chunk",
    "backends.cached_complete",
    "backends.extract_structured_value",
    "parsing.extract_document",
    "terms.validate_term",
    "terms.dedupe_terms",
    "verification.verify_all",
    "remediation.find_best_window",
    "planning.plan_all",
    "pipeline.emit_report",
    "pipeline.write",
)

COUNT_METRICS = (
    ("documents.render_numbered.calls", "count"),
    ("documents.render_numbered.chars", "chars"),
    ("documents.resolve_span.calls", "count"),
    ("chunking.chunks_per_doc", "count"),
    *((f"backends.calls.{k}", "calls") for k in KINDS),
    *((f"backends.input_tokens.{k}", "tokens") for k in KINDS),
    ("backends.duplicate_requests", "count"),
    ("backends.format_retries", "count"),
    ("backends.wait_s", "s"),
    ("backends.cache.hits", "count"),
    ("backends.cache.misses", "count"),
    ("parsing.rejected_candidates", "count"),
    ("parsing.flagged_outside_chunk", "count"),
    ("terms.dedupe.in", "count"),
    ("terms.dedupe.out", "count"),
    ("verification.verify_term.calls", "count"),
    ("verification.supported_share", "ratio"),
    ("verification.lexical_support_score.calls", "count"),
    ("verification.lexical_support_score.s", "s"),
    ("remediation.phase_s", "s"),
    ("remediation.find_best_window.calls", "count"),
    ("remediation.resource_term.calls", "count"),
    ("remediation.repeat_proposals", "count"),
    ("remediation.rescue_rate", "ratio"),
    ("planning.followups", "count"),
    ("pipeline.write.bytes", "bytes"),
    ("pipeline.worker_idle_s", "s"),
    ("trace.doc_s.p50", "s"),
    ("trace.doc_cpu_s.p50", "s"),
)

PER_LAYER_METRICS: tuple[tuple[str, str], ...] = COUNT_METRICS + tuple(
    (f"{layer}.{kind}", "s")
    for layer in TIMED_LAYERS for kind in ("s", "wall_s", "self_s")
)
"""Every per-layer metric as (name, unit); per document unless a ratio."""


def summarise(tracer: Tracer, agent_stats: Counter, docs: int, workers: int,
              doc_seconds: list[float], doc_cpu_seconds: list[float]) -> tuple[dict, dict]:
    """(per-layer metric values, times of every span name). The doc
    seconds are the traced runs' wall and CPU times, for the overhead."""
    times = layer_times(tracer.spans)
    span_calls = Counter(name for _, name, *_ in tracer.spans)
    counts = tracer.counts
    windows = _phase_windows(tracer.spans)
    phase_s = sum(b - a for (_, name), (a, b) in windows.items()
                  if name == "remediation.remediate")
    not_kept = (counts["remediation.action.resourced"]
                + counts["remediation.action.discarded"])
    names = [name for name, _ in PER_LAYER_METRICS]
    totals = {name: value for name, value in counts.items() if name in names}
    totals.update((f"backends.{k}", v) for k, v in agent_stats.items())
    totals["planning.followups"] = agent_stats["followups"]
    for layer in ("documents.render_numbered", "verification.verify_term",
                  "remediation.find_best_window", "remediation.resource_term"):
        totals[f"{layer}.calls"] = span_calls[layer]
    totals["remediation.phase_s"] = phase_s
    totals["pipeline.worker_idle_s"] = _worker_idle(tracer.spans, windows, workers)
    for layer in TIMED_LAYERS:
        for kind, value in times.get(layer, {}).items():
            totals[f"{layer}.{kind}"] = value
    metrics = {name: totals.get(name, 0) / docs for name in names}
    verified = span_calls["verification.verify_term"]
    metrics["verification.supported_share"] = (
        counts["verification.supported"] / verified if verified else 0.0)
    metrics["remediation.rescue_rate"] = (
        counts["remediation.action.resourced"] / not_kept if not_kept else 0.0)
    metrics["trace.doc_s.p50"] = statistics.median(doc_seconds)
    metrics["trace.doc_cpu_s.p50"] = statistics.median(doc_cpu_seconds)
    return metrics, times
