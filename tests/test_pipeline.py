"""Run orchestration: phase artifacts, determinism, resume, reports."""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import replace
from datetime import datetime

import pytest

from helpers import (
    HAPPY_RUN_ENTRIES,
    SHORT_PLAN_RUN_ENTRIES,
    FailingFollowUp,
    MISMATCH_CITED_LINE,
    MISMATCH_STATEMENT,
    RAW_NAME,
    STUDENT_SCENARIO,
    happy_backend,
    ingest_excerpt,
    ingest_raw,
    mismatch_backend,
    record_thread_starts,
    scripted,
)
from terminators.backends import (
    Backend,
    BackendError,
    ScriptEntry,
    ScriptedBackend,
)
from terminators.chunking import ChunkMode, ChunkStrategy
from terminators.cli import main as cli_main
from terminators.parsing import ExtractionConfig
from terminators.pipeline import (
    REPORT_AUDIT,
    REPORT_MARKDOWN,
    REPORT_PAPER,
    ResumeError,
    RunConfig,
    compute_run_id,
    emit_report,
    load_run,
    resume,
    run_pipeline,
)
from terminators.planning import PLAN_DISCLAIMER, JurisdictionId, Scenario
from terminators.records import from_json, to_json
from terminators.terms import TermStatus

PARAGRAPH_CFG = ExtractionConfig(ChunkStrategy(ChunkMode.PARAGRAPH))

RUN_FILES = (
    "run.json",
    "document.json",
    "terms.json",
    "verifications.json",
    "remediation.json",
    "plans.json",
    "report.audit.json",
    "report.paper.json",
    "report.md",
)


def happy_config() -> RunConfig:
    return RunConfig(
        extraction=PARAGRAPH_CFG,
        scenario=Scenario(description=STUDENT_SCENARIO),
    )


def run_happy(out_root):
    return run_pipeline(
        ingest_excerpt(), happy_config(), happy_backend(), out_root
    )


class TestHappyRun:
    def test_every_phase_completes(self, tmp_path):
        run = run_happy(tmp_path)
        assert run.phase == "complete"
        assert len(run.terms) == 4
        assert all(
            t.status is TermStatus.VERIFIED_SUPPORTED for t in run.terms
        )
        assert len(run.surviving_terms) == 4
        assert run.discarded_terms == []
        assert len(run.plans) == 4
        assert run.notices == []

    def test_artifact_files_written(self, tmp_path):
        run = run_happy(tmp_path)
        for name in RUN_FILES + ("events.jsonl",):
            assert run.store.exists(name), name

    def test_remediation_all_kept(self, tmp_path):
        run = run_happy(tmp_path)
        assert all(o.action == "kept_supported" for o in run.outcomes)
        assert all(o.trail == () for o in run.outcomes)

    def test_rerun_overwrites_same_directory(self, tmp_path):
        first = run_happy(tmp_path)
        second = run_happy(tmp_path)
        assert first.run_id == second.run_id
        children = [p.name for p in tmp_path.iterdir()]
        assert children == [first.run_id]


class TestMismatchRun:
    def run(self, out_root):
        return run_pipeline(
            ingest_excerpt(), happy_config(), mismatch_backend(), out_root
        )

    def test_unverifiable_term_discarded(self, tmp_path):
        run = self.run(tmp_path)
        assert run.phase == "complete"
        assert len(run.terms) == 4
        assert len(run.surviving_terms) == 3
        assert len(run.discarded_terms) == 1
        dropped = run.discarded_terms[0]
        assert "incomplete, incorrect, or offensive" in dropped.statement
        outcome = next(
            o for o in run.outcomes if o.term_id == dropped.term_id
        )
        assert outcome.action == "discarded"
        assert [e.note for e in outcome.trail] == ["no span proposed"]

    def test_surviving_terms_planned_discarded_noticed(self, tmp_path):
        run = self.run(tmp_path)
        assert len(run.plans) == 3
        dropped = run.discarded_terms[0]
        assert run.notices == [
            f"term {dropped.term_id} skipped: status discarded"
        ]

    def test_paper_report_holds_survivors_only(self, tmp_path):
        run = self.run(tmp_path)
        records = json.loads(emit_report(run, REPORT_PAPER))
        assert len(records) == 3
        assert all(
            sorted(r) == ["applicable_to", "source", "term"] for r in records
        )
        assert not any("offensive" in r["term"] for r in records)


class TestDeterminism:
    def test_two_roots_byte_identical(self, tmp_path):
        run_a = run_happy(tmp_path / "a")
        run_b = run_happy(tmp_path / "b")
        assert run_a.run_id == run_b.run_id
        for name in RUN_FILES:
            a = run_a.store.path(name).read_bytes()
            b = run_b.store.path(name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_timestamps_only_in_event_log(self, tmp_path):
        run = run_happy(tmp_path)
        year = str(datetime.now().year)
        for name in RUN_FILES:
            assert year not in run.store.path(name).read_text(
                encoding="utf-8"
            ), f"{name} embeds a date"
        events = run.store.path("events.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        assert events, "event log must not be empty"
        for line in events:
            event = json.loads(line)
            assert set(event) == {"ts", "phase", "event"}
            datetime.fromisoformat(event["ts"])

    def test_event_log_tracks_phases(self, tmp_path):
        run = run_happy(tmp_path)
        events = [
            json.loads(line)
            for line in run.store.path("events.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert [e["phase"] for e in events] == [
            "ingested", "extracted", "verified", "remediated", "planned",
            "complete",
        ]


class PairedStartBackend(Backend):
    """Holds each of its first two requests until both are in flight, so a
    run that sends its backend calls one at a time fails at the first."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.barrier = threading.Barrier(2)
        self.arrivals = itertools.count()

    def generate(self, req):
        if next(self.arrivals) < 2:
            self.barrier.wait(timeout=5)
        return self.inner.generate(req)


class TestThreads:
    """Helper threads start only once a request reaches the backend."""

    def test_warm_rerun_starts_no_thread_and_matches_cold(
        self, tmp_path, monkeypatch
    ):
        config = replace(happy_config(), workers=4)
        cache = tmp_path / "cache"
        cold = run_pipeline(ingest_excerpt(), config, mismatch_backend(),
                            tmp_path / "cold", cache_dir=cache)
        started = record_thread_starts(monkeypatch)
        # Strict and empty: any backend call would raise.
        warm = run_pipeline(ingest_excerpt(), config, ScriptedBackend([]),
                            tmp_path / "warm", cache_dir=cache)
        assert started == []
        assert warm.phase == "complete"
        for name in RUN_FILES:
            assert warm.store.path(name).read_bytes() == (
                cold.store.path(name).read_bytes()
            ), f"{name} differs between the cold and the warm run"

    def test_cold_misses_overlap(self, tmp_path):
        backend = PairedStartBackend(mismatch_backend())
        config = replace(happy_config(), workers=2)
        run = run_pipeline(ingest_excerpt(), config, backend, tmp_path,
                           cache_dir=tmp_path / "cache")
        assert run.phase == "complete"
        assert not backend.barrier.broken


class TestFollowUpFailure:
    """A planner follow-up that fails for any reason but a malformed answer
    fails the term's planning like its first request would."""

    def test_strict_run_stops_resumably(self, tmp_path):
        failing = FailingFollowUp(scripted(*SHORT_PLAN_RUN_ENTRIES))
        with pytest.raises(BackendError) as exc:
            run_pipeline(ingest_excerpt(), happy_config(), failing,
                         tmp_path / "broken")
        assert exc.value.kind == "transient"
        run_dir = tmp_path / "broken" / compute_run_id(
            ingest_excerpt(), happy_config()
        )
        assert load_run(run_dir).phase == "remediated"

        resumed = resume(run_dir, scripted(*SHORT_PLAN_RUN_ENTRIES))
        assert resumed.phase == "complete"
        clean = run_pipeline(ingest_excerpt(), happy_config(),
                             scripted(*SHORT_PLAN_RUN_ENTRIES),
                             tmp_path / "clean")
        assert any("only 2 checks produced" in w
                   for plan in clean.plans for w in plan.warnings)
        for name in RUN_FILES:
            assert (run_dir / name).read_bytes() == (
                clean.store.path(name).read_bytes()
            ), f"{name} differs after resume"

    def test_best_effort_run_records_the_notice(self, tmp_path):
        config = replace(happy_config(), best_effort=True)
        failing = FailingFollowUp(scripted(*SHORT_PLAN_RUN_ENTRIES))
        run = run_pipeline(ingest_excerpt(), config, failing, tmp_path)
        assert run.phase == "complete"
        assert len(run.plans) == 3
        plans = json.loads(run.store.path("plans.json").read_text("utf-8"))
        assert [n for n in plans["notices"] if "planning failed" in n] == [
            f"term {t.term_id} skipped: planning failed: "
            "the follow-up request failed"
            for t in run.surviving_terms
            if t.term_id not in {p.term_id for p in run.plans}
        ]


class TestResume:
    def interrupted_run(self, out_root):
        backend = scripted(*HAPPY_RUN_ENTRIES[:3])
        with pytest.raises(BackendError):
            run_pipeline(ingest_excerpt(), happy_config(), backend, out_root)
        run_id = compute_run_id(ingest_excerpt(), happy_config())
        return out_root / run_id

    def test_interrupt_leaves_resumable_state(self, tmp_path):
        run_dir = self.interrupted_run(tmp_path)
        run = load_run(run_dir)
        assert run.phase == "remediated"
        assert len(run.terms) == 4
        assert not (run_dir / "plans.json").exists()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        run_dir = self.interrupted_run(tmp_path / "broken")
        resumed = resume(run_dir, happy_backend())
        assert resumed.phase == "complete"
        assert len(resumed.plans) == 4

        clean = run_happy(tmp_path / "clean")
        for name in RUN_FILES:
            a = (run_dir / name).read_bytes()
            b = clean.store.path(name).read_bytes()
            assert a == b, f"{name} differs after resume"

        events = [
            json.loads(line)
            for line in (run_dir / "events.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert any(e["event"] == "resumed" for e in events)

    def test_resume_accepts_a_header_that_records_retries_and_workers(
        self, tmp_path
    ):
        """A run.json that still records max_attempts and workers, keys no
        longer written, resumes to the same bytes as a fresh run."""
        run_dir = self.interrupted_run(tmp_path / "old")
        header_file = run_dir / "run.json"
        header = json.loads(header_file.read_text(encoding="utf-8"))
        header["config"].update(max_attempts=2, workers=4)
        header_file.write_text(json.dumps(header), encoding="utf-8")

        resumed = resume(run_dir, happy_backend(), workers=3)
        assert resumed.phase == "complete"
        assert resumed.config.workers == 3
        clean = run_happy(tmp_path / "clean")
        for name in RUN_FILES:
            assert (run_dir / name).read_bytes() == clean.store.path(
                name
            ).read_bytes(), f"{name} differs after resume"

    def test_resume_of_complete_run_is_a_no_op(self, tmp_path):
        run = run_happy(tmp_path)
        before = run.store.path("events.jsonl").read_bytes()
        again = resume(run.store.run_dir, ScriptedBackend([]))
        assert again.phase == "complete"
        assert run.store.path("events.jsonl").read_bytes() == before

    def test_missing_run_dir(self, tmp_path):
        with pytest.raises(ResumeError) as exc:
            load_run(tmp_path / "nowhere")
        assert exc.value.kind == "missing_run"

    def test_tampered_document_detected(self, tmp_path):
        run_dir = self.interrupted_run(tmp_path)
        doc_file = run_dir / "document.json"
        stored = json.loads(doc_file.read_text(encoding="utf-8"))
        stored["lines"][0][1] = "When you use our Services you must pay us."
        doc_file.write_text(json.dumps(stored), encoding="utf-8")
        with pytest.raises(ResumeError) as exc:
            load_run(run_dir)
        assert exc.value.kind == "document_changed"


class TestOlderRunDirectory:
    """Run directories written before remediation outcomes dropped
    `attempts` and `trail[].attempt`, and scenarios dropped `persona`.
    Unknown record keys are ignored on load, so such a directory still
    loads, reports and resumes, and what is written again omits them."""

    OLD_KEYS = ("attempts", "attempt", "persona")

    def old_format_run(self, out_root, *, phase="complete"):
        """A mismatch run rewritten in the older format. Returns its
        directory and the report.audit.json the current code wrote."""
        run = run_pipeline(
            ingest_excerpt(), happy_config(), mismatch_backend(), out_root
        )
        run_dir = run.store.run_dir

        def rewrite(name, edit):
            data = json.loads((run_dir / name).read_text(encoding="utf-8"))
            edit(data)
            (run_dir / name).write_text(json.dumps(data), encoding="utf-8")

        def add_attempts(outcomes):
            for outcome in outcomes:
                outcome["attempts"] = len(outcome["trail"])
                for i, entry in enumerate(outcome["trail"]):
                    entry["attempt"] = i + 1

        def add_persona(config):
            config["scenario"]["persona"] = "university student"

        audit = (run_dir / "report.audit.json").read_bytes()
        rewrite("remediation.json", lambda r: add_attempts(r["outcomes"]))
        rewrite("report.audit.json", lambda r: (
            add_attempts(r["remediation"]), add_persona(r["config"])))
        rewrite("run.json", lambda h: (
            add_persona(h["config"]), h.update(phase=phase)))
        return run_dir, audit

    def keys_in(self, data) -> set[str]:
        if isinstance(data, dict):
            return set(data).union(*(self.keys_in(v) for v in data.values()))
        if isinstance(data, list):
            return set().union(*(self.keys_in(v) for v in data))
        return set()

    def test_load_and_report(self, tmp_path):
        run_dir, audit = self.old_format_run(tmp_path)
        stored = json.loads((run_dir / "report.audit.json").read_text(encoding="utf-8"))
        assert set(self.OLD_KEYS) <= self.keys_in(stored)
        run = load_run(run_dir)
        assert run.phase == "complete"
        assert run.config.scenario == happy_config().scenario
        assert [len(o.trail) for o in run.outcomes] == [0, 0, 0, 1]
        out = tmp_path / "report.audit.json"
        assert cli_main(["report", str(run_dir), "--out", str(out)]) == 0
        assert out.read_bytes() == audit
        written = json.loads(audit.decode("utf-8"))
        assert self.keys_in(written).isdisjoint(self.OLD_KEYS)

    def test_resume(self, tmp_path):
        run_dir, _ = self.old_format_run(tmp_path / "old", phase="remediated")
        for name in ("plans.json", "report.audit.json", "report.paper.json",
                     "report.md"):
            (run_dir / name).unlink()
        resumed = resume(run_dir, mismatch_backend())
        assert resumed.phase == "complete"
        audit = json.loads((run_dir / "report.audit.json").read_text(encoding="utf-8"))
        assert self.keys_in(audit).isdisjoint(self.OLD_KEYS)
        clean = run_pipeline(
            ingest_excerpt(), happy_config(), mismatch_backend(),
            tmp_path / "clean",
        )
        for name in RUN_FILES:
            if name == "remediation.json":
                continue  # left in the older format: resume does not rewrite it
            assert (run_dir / name).read_bytes() == clean.store.path(
                name
            ).read_bytes(), f"{name} differs after resume"


class TestResourcedThroughPipeline:
    """Full-document run over the raw fixture where the only extracted term
    cites the wrong line; remediation must re-source it to line 30."""

    def run(self, out_root):
        parser_payload = json.dumps(
            [
                {
                    "term": MISMATCH_STATEMENT,
                    "source": f"{RAW_NAME}:{MISMATCH_CITED_LINE}",
                    "applicable_to": ["user"],
                }
            ]
        )
        resource_payload = json.dumps(
            [
                {
                    "term": MISMATCH_STATEMENT,
                    "source": f"{RAW_NAME}:30",
                    "applicable_to": ["user"],
                }
            ]
        )
        backend = ScriptedBackend(
            [
                ScriptEntry("Locate the single passage", resource_payload),
                ScriptEntry("1: OPENAI TERMS OF USE", parser_payload),
                ScriptEntry(
                    "Attempt to reverse engineer",
                    (
                        '{"verification": "Supported", "justification": '
                        '"The passage states the prohibition."}'
                    ),
                ),
                ScriptEntry(
                    "reverse engineer, decompile",
                    (
                        '{"verification": "Unverifiable", "justification": '
                        '"The cited passage covers a different prohibition."}'
                    ),
                ),
            ]
        )
        config = RunConfig(
            extraction=ExtractionConfig(
                ChunkStrategy(ChunkMode.WHOLE_DOCUMENT)
            )
        )
        return run_pipeline(ingest_raw(), config, backend, out_root)

    def test_term_resourced_and_reported(self, tmp_path):
        run = self.run(tmp_path)
        assert run.phase == "complete"
        term = run.terms[0]
        assert term.status is TermStatus.RESOURCED
        assert (term.source.start_line, term.source.end_line) == (30, 30)

        audit = json.loads(emit_report(run, REPORT_AUDIT))
        assert audit["counts"] == {
            "extracted": 1, "surviving": 1, "discarded": 0,
        }
        paper = json.loads(emit_report(run, REPORT_PAPER))
        assert paper[0]["source"] == f"{RAW_NAME}:30"

        markdown = emit_report(run, REPORT_MARKDOWN)
        assert f"| {term.statement} | resourced | 0 |" in markdown.splitlines()

    def test_no_scenario_notice(self, tmp_path):
        run = self.run(tmp_path)
        assert run.plans == []
        assert run.notices == ["no scenario provided; planning skipped"]


class TestReports:
    def test_audit_key_order(self, tmp_path):
        run = run_happy(tmp_path)
        text = emit_report(run, REPORT_AUDIT)
        ordered = json.loads(
            text, object_pairs_hook=lambda pairs: [k for k, _ in pairs]
        )
        assert ordered[:4] == ["run_id", "document", "config", "counts"]
        assert ordered[4:] == [
            "terms", "verifications", "remediation", "plans", "coverage",
            "warnings", "failures", "notices", "disclaimer",
        ]

        data = json.loads(text)
        assert list(data["document"]) == [
            "source_name", "fingerprint", "first_line", "last_line",
        ]
        assert list(data["counts"]) == ["extracted", "surviving", "discarded"]
        assert data["disclaimer"] == PLAN_DISCLAIMER

    def test_markdown_summary(self, tmp_path):
        run = run_pipeline(
            ingest_excerpt(), happy_config(), mismatch_backend(), tmp_path
        )
        markdown = emit_report(run, REPORT_MARKDOWN)
        assert markdown.startswith("# Accountability audit: OpenAI_ToS.txt")
        assert "4 terms extracted, 3 surviving, 1 discarded." in markdown
        assert "## Surviving terms" in markdown
        assert "| Term | Status | Checks |" in markdown
        assert "## Discarded terms" in markdown
        assert "| Term | Label |" in markdown
        assert f"> {PLAN_DISCLAIMER}" in markdown
        surviving_rows = [
            line
            for line in markdown.splitlines()
            if line.startswith("|") and "verified_supported" in line
        ]
        assert len(surviving_rows) == 3

    def test_unknown_format_rejected(self, tmp_path):
        run = run_happy(tmp_path)
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(run, "yaml")


class TestRunConfig:
    def test_round_trip(self):
        config = RunConfig(
            extraction=ExtractionConfig(
                ChunkStrategy(ChunkMode.SECTION_BY_SECTION), aspects=("privacy",)
            ),
            threshold=0.5,
            scenario=Scenario("desc", jurisdiction=JurisdictionId.GDPR),
        )
        assert from_json(RunConfig, to_json(config)) == config

    def test_run_id_tracks_content(self):
        doc = ingest_excerpt()
        base = compute_run_id(doc, happy_config())
        assert compute_run_id(doc, happy_config()) == base
        other_cfg = RunConfig(extraction=PARAGRAPH_CFG)
        assert compute_run_id(doc, other_cfg) != base
        assert compute_run_id(ingest_raw(), happy_config()) != base

    def test_run_id_does_not_depend_on_workers(self):
        doc = ingest_excerpt()
        one = replace(happy_config(), workers=1)
        eight = replace(happy_config(), workers=8)
        assert compute_run_id(doc, one) == compute_run_id(doc, eight)
        assert "workers" not in to_json(one)
