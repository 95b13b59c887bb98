"""Extraction over chunks: prompt shape, validation, merging, coverage."""

from __future__ import annotations

import itertools
import json
import logging
import sys
import threading
import time

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    EXCERPT_NAME,
    GOLDEN,
    RAW_NAME,
    ingest_raw,
    record_thread_starts,
    response_text,
    scripted,
)
from terminators.backends import (
    SCHEMA_VERIFICATION,
    WAIT_S,
    Backend,
    BackendError,
    BackendRequest,
    BackendResponse,
    CachedBackend,
    ScriptEntry,
    ScriptedBackend,
    announce_wait,
    install_wait_hook,
)
from terminators import parsing
from terminators.chunking import ChunkMode, ChunkStrategy, chunk as chunk_document
from terminators.documents import render_numbered
from terminators.parsing import (
    ExtractionConfig,
    extract_chunk,
    extract_document,
    map_ordered,
    run_request,
)
from terminators.prompts import build_parser_request
from terminators.records import from_json, to_json

WHOLE = ChunkStrategy(ChunkMode.WHOLE_DOCUMENT)
PARAGRAPH = ChunkStrategy(ChunkMode.PARAGRAPH)


def script_backend(name):
    mapping = {
        "whole_doc": [("106: When you use", "listing3_terms.json")],
        "paragraph": [
            ("108: Output may not always", "listing4_terms.json"),
            ("106: When you use", "empty_terms.json"),
        ],
        "aspect": [
            ("108: Output may not always", "listing4_aspect_terms.json"),
            ("106: When you use", "empty_terms.json"),
        ],
    }
    return scripted(*mapping[name])


class TestExtractionConfig:
    def test_aspects_must_be_real_strings(self):
        with pytest.raises(ValueError):
            ExtractionConfig(WHOLE, aspects=())
        with pytest.raises(ValueError):
            ExtractionConfig(WHOLE, aspects=("ok", "  "))

    def test_aspect_label_joins(self):
        cfg = ExtractionConfig(WHOLE, aspects=("privacy", "refunds"))
        assert cfg.aspect_label == "privacy; refunds"
        assert ExtractionConfig(WHOLE).aspect_label is None

    def test_json_round_trip(self):
        cfg = ExtractionConfig(
            ChunkStrategy(ChunkMode.SECTION_BY_SECTION, max_chunk_lines=40),
            aspects=("privacy",),
            provider_name="OpenAI",
        )
        assert from_json(ExtractionConfig, to_json(cfg)) == cfg


class TestWholeDocument(object):
    def test_two_terms_extracted(self, excerpt_doc):
        outcome = extract_document(
            excerpt_doc, ExtractionConfig(WHOLE), script_backend("whole_doc")
        )
        assert len(outcome.terms) == 2
        first, second = outcome.terms
        assert "sole source of truth" in first.statement
        assert (first.source.start_line, first.source.end_line) == (108, 109)
        assert (second.source.start_line, second.source.end_line) == (112, 114)
        assert first.applicable_to == ("user",)
        assert outcome.failures == []

    def test_single_chunk_coverage(self, excerpt_doc):
        outcome = extract_document(
            excerpt_doc, ExtractionConfig(WHOLE), script_backend("whole_doc")
        )
        assert len(outcome.coverage) == 1
        cov = outcome.coverage[0]
        assert (cov["start_line"], cov["end_line"]) == (106, 117)
        assert cov["kind"] == "whole_document"
        assert cov["term_count"] == 2


class TestParagraphStrategy:
    def test_four_terms_extracted(self, excerpt_doc):
        outcome = extract_document(
            excerpt_doc, ExtractionConfig(PARAGRAPH), script_backend("paragraph")
        )
        assert len(outcome.terms) == 4
        spans = [(t.source.start_line, t.source.end_line) for t in outcome.terms]
        assert spans == [(108, 109), (110, 111), (112, 114), (115, 115)]

    def test_empty_chunk_warns_in_coverage(self, excerpt_doc):
        outcome = extract_document(
            excerpt_doc, ExtractionConfig(PARAGRAPH), script_backend("paragraph")
        )
        counts = {
            (c["start_line"], c["end_line"]): c["term_count"]
            for c in outcome.coverage
        }
        assert counts == {(106, 106): 0, (108, 117): 4}
        assert any(
            "(106-106) produced no terms" in w for w in outcome.warnings
        )


class TestAspectExtraction:
    def test_aspect_narrows_and_stamps(self, excerpt_doc):
        cfg = ExtractionConfig(PARAGRAPH, aspects=("user obligations",))
        outcome = extract_document(excerpt_doc, cfg, script_backend("aspect"))
        assert len(outcome.terms) == 3
        assert all(t.aspect == "user obligations" for t in outcome.terms)
        assert not any("OpenAI's views" in t.statement for t in outcome.terms)

    def test_aspect_clause_in_prompt(self):
        req = build_parser_request(
            "X.txt", "1: alpha", aspects=("privacy", "refunds")
        )
        assert (
            "Only extract terms about the following aspects: privacy; refunds."
            in req.user_prompt
        )
        assert "Leave out terms that do not concern" in req.user_prompt


class TestCandidateHandling:
    def chunk_and_doc(self, excerpt_doc):
        chunks = chunk_document(excerpt_doc, PARAGRAPH)
        assert (chunks[0].start_line, chunks[0].end_line) == (106, 106)
        return chunks[0], excerpt_doc

    def test_outside_chunk_citation_kept_and_flagged(self, excerpt_doc):
        first_chunk, doc = self.chunk_and_doc(excerpt_doc)
        backend = scripted(("106: When you use", "listing3_terms.json"))
        result = extract_chunk(
            first_chunk, doc, ExtractionConfig(PARAGRAPH), backend
        )
        assert len(result.terms) == 2
        assert set(result.flagged_outside_chunk) == {
            t.term_id for t in result.terms
        }
        assert sum("outside" in w for w in result.warnings) == 2

    def test_invalid_candidates_rejected_and_counted(self, excerpt_doc):
        first_chunk, doc = self.chunk_and_doc(excerpt_doc)
        candidates = [
            {"term": "No source given.", "applicable_to": ["user"]},
            {
                "term": "Users agree to the stated conditions when using the Services.",
                "source": f"{EXCERPT_NAME}:106",
                "applicable_to": ["user"],
            },
            {
                "term": "Dangling citation.",
                "source": f"{EXCERPT_NAME}:400",
                "applicable_to": ["user"],
            },
        ]
        backend = ScriptedBackend(
            [ScriptEntry("106: When you use", json.dumps(candidates))]
        )
        result = extract_chunk(
            first_chunk, doc, ExtractionConfig(PARAGRAPH), backend
        )
        assert result.rejected_count == 2
        assert len(result.terms) == 1
        assert any("rejected candidate 0" in w for w in result.warnings)
        assert any("rejected candidate 2" in w for w in result.warnings)

    @pytest.mark.parametrize("answer, warns", [
        ([], False),
        ([{"term": "No source given.", "applicable_to": ["user"]},
          {"term": "Dangling citation.", "source": f"{EXCERPT_NAME}:400",
           "applicable_to": ["user"]}], True),
        ([{"term": "No source given.", "applicable_to": ["user"]},
          {"term": "Users agree to the stated conditions.",
           "source": f"{EXCERPT_NAME}:106", "applicable_to": ["user"]}], False),
    ], ids=["no-candidates", "all-rejected", "one-kept"])
    def test_every_candidate_rejected_logs_one_warning(
        self, excerpt_doc, caplog, answer, warns
    ):
        """Candidates came back and none validated: one warning gives the
        count and the first rejection."""
        backend = ScriptedBackend(
            [ScriptEntry("106: When you use", json.dumps(answer))]
        )
        with caplog.at_level(logging.WARNING, logger="terminators.parsing"):
            outcome = extract_document(excerpt_doc, ExtractionConfig(WHOLE),
                                       backend)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "terminators.parsing"]
        if not warns:
            assert messages == []
            return
        assert outcome.terms == []
        (first,) = [w for w in outcome.warnings if "rejected candidate 0" in w]
        assert first.endswith("field: missing field 'source'")
        assert messages == [
            f"every extracted candidate was rejected (2); first: {first}"]

    def test_chunk_from_other_document_refused(self, excerpt_doc, raw_doc):
        foreign = chunk_document(raw_doc, PARAGRAPH)[0]
        with pytest.raises(ValueError, match="belongs to"):
            extract_chunk(
                foreign, excerpt_doc, ExtractionConfig(PARAGRAPH),
                ScriptedBackend([]),
            )

    def test_malformed_output_is_a_backend_error(self, excerpt_doc):
        chunks = chunk_document(excerpt_doc, WHOLE)
        backend = ScriptedBackend(
            [ScriptEntry("106: When you use", "I would rather chat.")]
        )
        with pytest.raises(BackendError) as exc:
            extract_chunk(chunks[0], excerpt_doc, ExtractionConfig(WHOLE), backend)
        assert exc.value.kind == "malformed_output"


class _Answers(Backend):
    """Answers each request with one of a list of candidate lists, chosen by
    the request's fingerprint."""

    backend_id = "answers"

    def __init__(self, answers):
        self.answers = answers

    def generate(self, req):
        answer = self.answers[int(req.request_fingerprint, 16) % len(self.answers)]
        return BackendResponse(json.dumps(answer), answer, None, {}, 0.0,
                               self.backend_id)


def _unshared(original):
    """extract_chunk as it is without a shared dict of answers."""
    def extract(*args, answers=None, **kwargs):
        return original(*args, **kwargs)
    return extract


# Candidates over the raw fixture: valid ones, repeats under other spellings,
# unrecognized parties, and every kind of rejection.
RAW_CANDIDATES = [
    {"term": "Users must be at least 13.", "source": f"{RAW_NAME}:7",
     "applicable_to": ["user"]},
    {"term": "Users  must be\nat least 13.", "source": f" {RAW_NAME}:7 ",
     "applicable_to": [" You "]},
    {"term": "Users must be at least 13.", "source": f"{RAW_NAME}:7-8",
     "applicable_to": ["user"]},
    {"term": "Users must be at least 13.", "source": f"{RAW_NAME}:7",
     "applicable_to": ["user", "Acme Corp"]},
    {"term": "Users must be at least 13.", "source": f"{RAW_NAME}:99",
     "applicable_to": ["user"]},
    {"term": "We own the Services.", "source": f"{RAW_NAME}:17",
     "applicable_to": ["OpenAI", "Acme Corp", "élève"], "note": "extra"},
    {"term": "No sharing of credentials.", "source": f"{RAW_NAME}:10-11",
     "applicable_to": ["users", "users"]},
    {"term": "Cites a line of another chunk.", "source": f"{RAW_NAME}:30",
     "applicable_to": ["provider"]},
    {"term": "Past the end.", "source": f"{RAW_NAME}:99", "applicable_to": ["user"]},
    {"term": "Wrong document.", "source": "Other.txt:3", "applicable_to": ["user"]},
    {"term": "No parties.", "source": f"{RAW_NAME}:7", "applicable_to": []},
    {"term": "Blank party.", "source": f"{RAW_NAME}:7", "applicable_to": [" "]},
    {"term": "Number party.", "source": f"{RAW_NAME}:7", "applicable_to": [1]},
    {"term": "String parties.", "source": f"{RAW_NAME}:7", "applicable_to": "user"},
    {"term": 5, "source": f"{RAW_NAME}:7", "applicable_to": ["user"]},
    {"term": "", "source": f"{RAW_NAME}:7", "applicable_to": ["user"]},
    {"term": "No source.", "applicable_to": ["user"]},
    {"term": "Bad source.", "source": "line seven", "applicable_to": ["user"]},
]


class TestSharedValidation:
    """extract_document validates an answer that a chunk's replica passes
    repeat once per call; its outcome equals the one every pass validating
    alone gives."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(RAW_CANDIDATES), max_size=8),
                 min_size=1, max_size=4),
        st.sampled_from([
            ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=3),
            ChunkStrategy(ChunkMode.SECTION_BY_SECTION),
            ChunkStrategy(ChunkMode.PARAGRAPH, max_chunk_lines=3),
        ]),
        st.sampled_from([None, "OpenAI"]),
        st.sampled_from([None, ("privacy",)]),
    )
    def test_equals_unshared_extraction(self, answers, strategy, provider,
                                        aspects):
        doc = ingest_raw()
        cfg = ExtractionConfig(strategy, aspects=aspects, provider_name=provider)
        backend = _Answers(answers)
        shared = extract_document(doc, cfg, backend, workers=1)
        with mock.patch.object(parsing, "extract_chunk",
                               _unshared(parsing.extract_chunk)):
            unshared = extract_document(doc, cfg, backend, workers=1)
        assert shared == unshared

    def test_threads_sharing_the_dict_agree_with_one_unshared(self):
        """Helper threads race on the shared dict: an answer may be
        validated twice, and either extraction is the same. Twelve passes
        over one chunk get three answers, so most passes repeat one."""
        doc = ingest_raw()
        cfg = ExtractionConfig(
            ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=12),
            provider_name="OpenAI")

        class Waiting(_Answers):
            def generate(self, req):
                announce_wait()
                return super().generate(req)

        backend = Waiting([RAW_CANDIDATES[:10], RAW_CANDIDATES[5:], RAW_CANDIDATES])
        with mock.patch.object(parsing, "extract_chunk",
                               _unshared(parsing.extract_chunk)):
            expected = extract_document(doc, cfg, backend, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert extract_document(doc, cfg, backend, workers=8) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("strategy", [
        ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=3),
        ChunkStrategy(ChunkMode.PARAGRAPH, max_chunk_lines=3),
    ], ids=["one-chunk", "many-chunks"])
    def test_a_repeated_answer_is_validated_once_per_chunk(self, strategy):
        doc = ingest_raw()
        backend = _Answers([RAW_CANDIDATES[:10]])
        calls = []
        original = parsing.validate_term
        with mock.patch.object(parsing, "validate_term",
                               lambda c, *a, **k: calls.append(c) or original(c, *a, **k)):
            outcome = extract_document(doc, ExtractionConfig(strategy), backend,
                                       workers=1)
        # Every pass over every chunk gets the same ten candidates: each
        # chunk validates them once, and every pass repeats the warnings.
        chunks = len(outcome.coverage)
        passes = strategy.parallel_fanout
        assert len(calls) == 10 * chunks
        assert sum("unrecognized party label 'Acme Corp'" in w
                   for w in outcome.warnings) == 2 * passes * chunks
        assert sum(": rejected candidate " in w
                   for w in outcome.warnings) == 3 * passes * chunks


class TestParallelMerge:
    STRATEGY = ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=2)

    def test_passes_dedupe_to_one_list(self, excerpt_doc):
        backend = script_backend("whole_doc")
        outcome = extract_document(
            excerpt_doc, ExtractionConfig(self.STRATEGY), backend
        )
        assert len(outcome.terms) == 2
        assert len(backend.calls) == 2
        assert backend.calls[0] != backend.calls[1], (
            "each pass must be a distinct request"
        )
        assert len(outcome.coverage) == 1
        assert outcome.coverage[0]["term_count"] == 4

    def test_pass_note_lands_in_prompt(self, excerpt_doc):
        seen = []

        class Spy(ScriptedBackend):
            def generate(self, request):
                seen.append(request.user_prompt)
                return super().generate(request)

        backend = Spy(
            [
                ScriptEntry(
                    "106: When you use", response_text("listing3_terms.json")
                )
            ]
        )
        extract_document(excerpt_doc, ExtractionConfig(self.STRATEGY), backend)
        notes = [p for p in seen if "Independent extraction pass 2 of 2." in p]
        assert len(notes) == 1


class TestFailureHandling:
    def test_best_effort_records_failures(self, excerpt_doc):
        backend = scripted(("108: Output may not always", "listing4_terms.json"))
        outcome = extract_document(
            excerpt_doc,
            ExtractionConfig(PARAGRAPH),
            backend,
            best_effort=True,
        )
        assert len(outcome.terms) == 4
        assert len(outcome.failures) == 1
        assert "no script entry matches" in outcome.failures[0]["error"]

    def test_strict_mode_raises(self, excerpt_doc):
        backend = scripted(("108: Output may not always", "listing4_terms.json"))
        with pytest.raises(BackendError):
            extract_document(excerpt_doc, ExtractionConfig(PARAGRAPH), backend)


class TestDeterminism:
    def outcome_json(self, excerpt_doc, workers):
        outcome = extract_document(
            excerpt_doc,
            ExtractionConfig(PARAGRAPH),
            script_backend("paragraph"),
            workers=workers,
        )
        return to_json(outcome.terms)

    def test_repeat_runs_and_worker_counts_agree(self, excerpt_doc):
        first = self.outcome_json(excerpt_doc, workers=4)
        assert first == self.outcome_json(excerpt_doc, workers=4)
        assert first == self.outcome_json(excerpt_doc, workers=1)


class TestMapOrdered:
    """Helpers start when a job on the calling thread announces a backend
    wait, so jobs that stand in for backend waits call announce_wait()
    before they block."""

    WAIT_S = 5

    def test_keeps_input_order_when_later_items_finish_first(self):
        done = {i: threading.Event() for i in range(3)}

        def job(i):
            announce_wait()
            # Each item waits for every later one, so they finish 2, 1, 0.
            for later in range(i + 1, 3):
                assert done[later].wait(self.WAIT_S)
            done[i].set()
            return i * 10

        assert map_ordered(job, range(3), workers=3) == [0, 10, 20]

    def test_raises_first_failure_in_input_order(self):
        second_failed = threading.Event()
        finished = []

        def job(i):
            announce_wait()
            if i == 1:
                assert second_failed.wait(self.WAIT_S)
                raise ValueError("item 1")
            if i == 2:
                second_failed.set()
                raise KeyError("item 2")
            finished.append(i)
            return i

        with pytest.raises(ValueError, match="item 1"):
            map_ordered(job, range(4), workers=4)
        assert sorted(finished) == [0, 3], "every job runs to completion"

    def test_empty_input_starts_no_pool_and_workers_clamp_to_one(
        self, monkeypatch
    ):
        started = record_thread_starts(monkeypatch)

        def job(x):
            announce_wait()
            return str(x)

        assert map_ordered(job, [], workers=4) == []
        assert map_ordered(job, iter([1, 2]), workers=0) == ["1", "2"]
        assert map_ordered(job, [3], workers=-2) == ["3"]
        assert map_ordered(job, [4, 5], workers=1) == ["4", "5"]
        assert started == []
        # The calling thread is one of the workers; there are only 2 items.
        assert map_ordered(job, [6, 7], workers=4) == ["6", "7"]
        assert len(started) == 1

    def test_jobs_that_never_reach_a_backend_start_no_thread(
        self, monkeypatch
    ):
        started = record_thread_starts(monkeypatch)
        caller = threading.get_ident()
        assert map_ordered(
            lambda _: threading.get_ident(), range(5), workers=4
        ) == [caller] * 5
        assert started == []

    def test_helpers_start_at_the_first_miss_after_hits(
        self, tmp_path, monkeypatch
    ):
        started = record_thread_starts(monkeypatch)
        timeout = self.WAIT_S

        class Echo(Backend):
            """Supported, with the request's own prompt as justification.
            Its first call waits past WAIT_S off the CPU, and each of the
            three after it waits until all three are in flight."""

            def __init__(self):
                self.arrivals = itertools.count()
                self.overlap = threading.Barrier(3)
                # (thread, threads started so far) at each call.
                self.calls = []

            def generate(self, req):
                self.calls.append((threading.get_ident(), len(started)))
                arrival = next(self.arrivals)
                if arrival == 0:
                    time.sleep(2 * WAIT_S)
                elif arrival < 4:
                    self.overlap.wait(timeout=timeout)
                raw = supported(req.user_prompt)
                return BackendResponse(raw, json.loads(raw), None, {}, 0.0,
                                       "echo")

        def supported(prompt):
            return json.dumps({"verification": "Supported",
                               "justification": prompt})

        reqs = [
            BackendRequest("You label statements.", f"Statement {i}.",
                           SCHEMA_VERIFICATION)
            for i in range(18)
        ]
        # A script that never waits makes the three hits.
        hits = ScriptedBackend([ScriptEntry(req.user_prompt,
                                            supported(req.user_prompt))
                                for req in reqs[:3]])
        for req in reqs[:3]:
            run_request(CachedBackend(hits, tmp_path), req)
        echo = Echo()
        backend = CachedBackend(echo, tmp_path)
        caller = threading.get_ident()
        seen = []

        def job(req):
            seen.append((req.user_prompt, threading.get_ident(), len(started)))
            return run_request(backend, req).parsed["justification"]

        out = map_ordered(job, reqs[:12], workers=3)
        assert out == [req.user_prompt for req in reqs[:12]]
        # The three hits and the first miss ran on the calling thread with
        # no helper; the miss reached the backend alone.
        assert seen[:4] == [(f"Statement {i}.", caller, 0) for i in range(4)]
        assert echo.calls[0] == (caller, 0)
        # The helpers started right after it, before any later job began,
        # and the next three misses, one per thread, were in flight at once.
        # A helper is counted before it starts, so the first one can reach
        # the backend before the caller starts the second: only n >= 1 holds.
        assert all(n > 0 for _, _, n in seen[4:])
        assert all(n >= 1 for _, n in echo.calls[1:4])
        assert len({thread for thread, _ in echo.calls[1:4]}) == 3
        assert len(started) == 2
        assert len(echo.calls) == 9

        # The backend is known to wait: a later map_ordered starts both
        # helpers before the caller's first miss reaches it.
        echo.calls.clear()
        out = map_ordered(job, reqs[12:], workers=3)
        assert out == [req.user_prompt for req in reqs[12:]]
        assert next(n for thread, n in echo.calls if thread == caller) == 4
        assert len(started) == 4

    def test_interrupt_before_any_helper_starts_propagates(
        self, monkeypatch
    ):
        started = record_thread_starts(monkeypatch)
        outer_fired = []

        def job(i):
            if i == 1:
                raise KeyboardInterrupt
            return i

        assert install_wait_hook(lambda: outer_fired.append(1)) is None
        try:
            with pytest.raises(KeyboardInterrupt):
                map_ordered(job, range(5), workers=4)
            assert started == []
            # The enclosing hook is back in place and never fired.
            assert outer_fired == []
            announce_wait()
            assert outer_fired == [1]
        finally:
            install_wait_hook(None)

    def test_a_nested_wait_starts_the_enclosing_helpers_too(
        self, monkeypatch
    ):
        started = record_thread_starts(monkeypatch)

        def inner_job(i):
            announce_wait()
            return i

        def outer_job(i):
            return map_ordered(inner_job, [i, i + 1], workers=2)

        assert map_ordered(outer_job, range(3), workers=2) == [
            [0, 1], [1, 2], [2, 3]
        ]
        # One helper per inner call, plus the outer helper, which the first
        # inner call on the calling thread started through the chain.
        assert len(started) == 4

    def test_workers_one_runs_every_job_on_the_calling_thread(self):
        caller = threading.get_ident()
        assert map_ordered(
            lambda _: threading.get_ident(), range(5), workers=1
        ) == [caller] * 5

    def test_interrupt_on_the_calling_thread_stops_claims_and_joins(self):
        caller = threading.get_ident()
        helper_busy = threading.Event()
        interrupted = threading.Event()
        helpers = set()
        ran = []

        def job(i):
            announce_wait()
            if threading.get_ident() == caller:
                assert helper_busy.wait(self.WAIT_S)
                interrupted.set()
                raise KeyboardInterrupt
            helpers.add(threading.current_thread())
            helper_busy.set()
            assert interrupted.wait(self.WAIT_S)
            time.sleep(0.001)
            ran.append(i)
            return i

        with pytest.raises(KeyboardInterrupt):
            map_ordered(job, range(50), workers=2)
        assert len(helpers) == 1
        assert not any(helper.is_alive() for helper in helpers)
        assert len(ran) < 49, "no claims after the interrupt"

    def test_every_item_runs_once_under_contention(self):
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = map_ordered(
                lambda i: announce_wait() or ran.append(i) or 2 * i,
                range(2000),
                workers=8,
            )
        finally:
            sys.setswitchinterval(interval)
        assert out == [2 * i for i in range(2000)]
        assert sorted(ran) == list(range(2000))


# How each item of TestBestEffortRule's jobs ends: with its job's value,
# with a BackendError that failed records, with a BackendError on which
# failed itself raises, or with an error of another kind, which failed never
# sees.
_OK, _RECORDED, _UNRECORDABLE, _OTHER = range(4)


def _best_effort_job(item):
    i, mode = item
    announce_wait()
    if mode == _OTHER:
        raise ValueError(f"item {i}")
    if mode != _OK:
        raise BackendError("transient", f"item {i}")
    return i


def _record(item, exc):
    i, mode = item
    if mode == _UNRECORDABLE:
        raise KeyError(f"record {i}")
    return f"recorded: {exc}"


def _per_item_oracle(items, failed):
    """map_ordered's outcome, and whether it warns, as one loop with a
    try/except per item."""
    results, first, errors = [], None, 0
    for item in items:
        try:
            try:
                results.append(_best_effort_job(item))
            except BackendError as exc:
                if failed is None:
                    raise
                errors += 1
                results.append(failed(item, exc))
        except Exception as exc:
            first = first or exc
    if first:
        return ("raised", type(first), str(first)), False
    return ("returned", results), 0 < errors == len(items)


class TestBestEffortRule:
    """map_ordered(..., failed=f) records a BackendError in the item's
    place, as a try/except around each item would."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(st.lists(st.sampled_from([_OK, _RECORDED, _UNRECORDABLE, _OTHER]),
                    max_size=10),
           st.sampled_from([1, 4]),
           st.sampled_from([None, _record]))
    def test_equals_a_try_except_per_item(self, modes, workers, failed):
        items = list(enumerate(modes))
        expected, warns = _per_item_oracle(items, failed)
        with mock.patch.object(parsing.log, "warning") as warning:
            try:
                outcome = ("returned", map_ordered(_best_effort_job, items,
                                                   workers, failed))
            except Exception as exc:
                outcome = ("raised", type(exc), str(exc))
        assert outcome == expected
        assert warning.call_count == warns

    def test_every_item_failing_warns_once_with_the_first_error(self, caplog):
        items = [(i, _RECORDED) for i in range(3)]
        with caplog.at_level(logging.WARNING, logger="terminators.parsing"):
            out = map_ordered(_best_effort_job, items, 4, _record)
        assert out == [f"recorded: item {i}" for i in range(3)]
        assert [r.getMessage() for r in caplog.records] == [
            "every item failed and was recorded (3); first: transient: item 0"]


class TestPromptGolden:
    def test_parser_prompt_matches_snapshot(self, excerpt_doc):
        req = build_parser_request(
            excerpt_doc.source_name, render_numbered(excerpt_doc)
        )
        rendered = f"== role ==\n{req.role_prompt}\n== user ==\n{req.user_prompt}\n"
        assert rendered == (GOLDEN / "parser_prompt_v1.txt").read_text(
            encoding="utf-8"
        )
