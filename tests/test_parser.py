"""Extraction over chunks: prompt shape, validation, merging, coverage."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from helpers import (
    EXCERPT_NAME,
    GOLDEN,
    record_thread_starts,
    response_text,
    scripted,
)
from terminators.backends import (
    SCHEMA_VERIFICATION,
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
from terminators.chunking import ChunkMode, ChunkStrategy, chunk as chunk_document
from terminators.documents import render_numbered
from terminators.terms import term_to_json
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
        assert [p.raw_label for p in first.applicable_to] == ["user"]
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
        return [term_to_json(t) for t in outcome.terms]

    def test_repeat_runs_and_worker_counts_agree(self, excerpt_doc):
        first = self.outcome_json(excerpt_doc, workers=4)
        assert first == self.outcome_json(excerpt_doc, workers=4)
        assert first == self.outcome_json(excerpt_doc, workers=1)


class TestMapOrdered:
    """Helpers start when a job on the calling thread announces a backend
    call, so jobs that stand in for backend waits call announce_wait()
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
        starts_at_each_call = []

        class Echo(Backend):
            """Supported, with the request's own prompt as justification."""

            def generate(self, req):
                starts_at_each_call.append(len(started))
                raw = json.dumps({"verification": "Supported",
                                  "justification": req.user_prompt})
                return BackendResponse(raw, json.loads(raw), None, {}, 0.0,
                                       "echo")

        reqs = [
            BackendRequest("You label statements.", f"Statement {i}.",
                           SCHEMA_VERIFICATION)
            for i in range(12)
        ]
        backend = CachedBackend(Echo(), tmp_path)
        for req in reqs[:3]:
            run_request(backend, req)
        starts_at_each_call.clear()
        caller = threading.get_ident()
        seen = []

        def job(req):
            seen.append((req.user_prompt, threading.get_ident(), len(started)))
            return run_request(backend, req).parsed["justification"]

        out = map_ordered(job, reqs, workers=3)
        assert out == [req.user_prompt for req in reqs]
        # The three hits and the first miss ran on the calling thread with
        # no helper, and both helpers started before that miss reached the
        # backend.
        assert seen[:4] == [(f"Statement {i}.", caller, 0) for i in range(4)]
        assert starts_at_each_call[0] == 2
        assert len(started) == 2
        assert len(starts_at_each_call) == 9

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


class TestPromptGolden:
    def test_parser_prompt_matches_snapshot(self, excerpt_doc):
        req = build_parser_request(
            excerpt_doc.source_name, render_numbered(excerpt_doc)
        )
        rendered = f"== role ==\n{req.role_prompt}\n== user ==\n{req.user_prompt}\n"
        assert rendered == (GOLDEN / "parser_prompt_v1.txt").read_text(
            encoding="utf-8"
        )
