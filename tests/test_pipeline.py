"""Run orchestration: phase artifacts, determinism, resume, reports."""

from __future__ import annotations

import errno
import itertools
import json
import os
import re
import shutil
import threading
import time
from dataclasses import replace
from datetime import datetime

import pytest

from helpers import (
    EXCERPT_FIRST_LINE,
    EXCERPT_NAME,
    FIXTURES,
    HAPPY_RUN_ENTRIES,
    SHORT_PLAN_RUN_ENTRIES,
    FailingFollowUp,
    LineTextBackend,
    MISMATCH_CITED_LINE,
    MISMATCH_STATEMENT,
    RAW_NAME,
    SCRIPTS,
    STUDENT_SCENARIO,
    cite_the_statement,
    happy_backend,
    ingest_doc_text,
    ingest_excerpt,
    ingest_raw,
    mismatch_backend,
    pack_lines,
    record_thread_starts,
    scripted,
    shown_lines,
    stdlib_json,
)
from terminators.backends import (
    SCHEMA_VERIFICATION,
    WAIT_S,
    Backend,
    BackendError,
    ScriptEntry,
    ScriptedBackend,
    load_script,
)
from terminators import pipeline
from terminators.chunking import ChunkMode, ChunkStrategy
from terminators.cli import main as cli_main
from terminators.documents import SourceRef, ingest, render_numbered
from terminators.parsing import ExtractionConfig
from terminators.pipeline import (
    PHASES,
    REPORT_AUDIT,
    REPORT_MARKDOWN,
    REPORT_PAPER,
    ResumeError,
    RunConfig,
    RunStore,
    compute_run_id,
    emit_report,
    load_run,
    resume,
    run_pipeline,
)
from terminators.planning import PLAN_DISCLAIMER, JurisdictionId, Scenario
from terminators.prompts import build_resource_request
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

    def test_rerun_returns_same_run_id_and_directory(self, tmp_path):
        first = run_happy(tmp_path)
        second = run_happy(tmp_path)
        assert first.run_id == second.run_id
        children = [p.name for p in tmp_path.iterdir()]
        assert children == [first.run_id]


class TestMismatchRun:
    def run(self, out_root, backend=None):
        return run_pipeline(
            ingest_excerpt(), happy_config(), backend or mismatch_backend(),
            out_root,
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
        # The script answers every re-sourcing request with no span: the
        # term's paragraph, then the whole document.
        assert [e.note for e in outcome.trail] == [
            "no span proposed from lines 108-117", "no span proposed"]

    def test_discarded_term_is_shown_its_paragraph_then_the_document(
            self, tmp_path):
        backend = mismatch_backend()
        run = self.run(tmp_path, backend)
        doc = run.doc
        (dropped,) = run.discarded_terms
        assert dropped.excerpt == SourceRef(EXCERPT_NAME, 108, 117)
        window, whole = (
            build_resource_request(EXCERPT_NAME, numbered,
                                   dropped.statement).request_fingerprint
            for numbered in (render_numbered(doc, start_line=108, end_line=117),
                             render_numbered(doc)))
        assert [c for c in backend.calls if c in (window, whole)] == [
            window, whole]
        assert phase_event(run, "remediated") == (
            "1 discarded, 1 shown the whole document")

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
    """Waits past backends.WAIT_S off the CPU on its first request, then
    holds each of its first two verification requests until both are in
    flight, so a run that sends its backend calls one at a time fails
    there. Extraction's two chunks come before them."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.barrier = threading.Barrier(2)
        self.arrivals = itertools.count()
        self.verifications = itertools.count()
        self.first_done = threading.Event()
        self.first_overlapped = False

    def generate(self, req):
        if next(self.arrivals) == 0:
            time.sleep(2 * WAIT_S)
            self.first_done.set()
            return self.inner.generate(req)
        self.first_overlapped |= not self.first_done.is_set()
        if (req.response_schema == SCHEMA_VERIFICATION
                and next(self.verifications) < 2):
            self.barrier.wait(timeout=5)
        return self.inner.generate(req)


class TestThreads:
    """Helper threads start only once a backend call is seen to wait."""

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
        assert not backend.first_overlapped, "the first call ran alone"
        assert not backend.barrier.broken

    def test_cold_run_on_a_script_starts_no_thread_and_matches_one_worker(
        self, tmp_path, monkeypatch
    ):
        started = record_thread_starts(monkeypatch)
        runs = {}
        for workers in (4, 1):
            runs[workers] = run_pipeline(
                ingest_excerpt(), replace(happy_config(), workers=workers),
                mismatch_backend(), tmp_path / str(workers),
                cache_dir=tmp_path / f"cache{workers}")
        assert started == []
        assert runs[4].phase == "complete"
        for name in RUN_FILES:
            assert runs[4].store.path(name).read_bytes() == (
                runs[1].store.path(name).read_bytes()
            ), f"{name} differs between workers=4 and workers=1"
        # Line order follows the order requests miss, which helper
        # threads may change: the packs hold the same lines.
        packs = [sorted(pack_lines(tmp_path / f"cache{w}")) for w in (4, 1)]
        assert packs[0] == packs[1]


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


class TestEncoding:
    """Phase files and report.audit.json are assembled from per-section
    encodings; each JSON file must still read exactly as the stdlib's
    indent-2 encoder writes its content (stdlib_json)."""

    PHASE_FILES = ("terms.json", "verifications.json", "remediation.json",
                   "plans.json")
    REPORTS = ("report.audit.json", "report.paper.json", "report.md")

    def assert_canonical(self, run_dir):
        for path in run_dir.glob("*.json"):
            text = path.read_text(encoding="utf-8")
            assert text == stdlib_json(json.loads(text)), path.name

    def rewind(self, run_dir, copy, phase):
        """A copy of a complete run directory stopped at phase."""
        shutil.copytree(run_dir, copy)
        reached = PHASES.index(phase)
        for name in self.PHASE_FILES[reached:] + self.REPORTS:
            (copy / name).unlink()
        header = json.loads((copy / "run.json").read_text(encoding="utf-8"))
        header["phase"] = phase
        (copy / "run.json").write_text(stdlib_json(header), encoding="utf-8")
        return copy

    @pytest.mark.parametrize(
        "script", sorted(p.name for p in SCRIPTS.glob("*.json"))
    )
    def test_run_files_are_canonical_json(self, tmp_path, script):
        for mode in (ChunkMode.PARAGRAPH, ChunkMode.WHOLE_DOCUMENT):
            config = replace(
                happy_config(),
                extraction=ExtractionConfig(ChunkStrategy(mode)),
            )
            out = tmp_path / mode.value
            try:
                run = run_pipeline(ingest_excerpt(), config,
                                   load_script(SCRIPTS / script), out)
            except BackendError:
                (run_dir,) = out.iterdir()
                self.assert_canonical(run_dir)
                continue
            run_dir = run.store.run_dir
            self.assert_canonical(run_dir)
            audit = (run_dir / "report.audit.json").read_text(encoding="utf-8")
            assert emit_report(load_run(run_dir), REPORT_AUDIT) == audit
            for phase in PHASES[:-1]:
                copy = self.rewind(run_dir, tmp_path / f"{mode.value}-{phase}",
                                   phase)
                if phase != "ingested":
                    loaded = emit_report(load_run(copy), REPORT_AUDIT)
                    assert loaded == stdlib_json(json.loads(loaded)), phase
                resume(copy, load_script(SCRIPTS / script))
                self.assert_canonical(copy)
                for name in self.PHASE_FILES + self.REPORTS:
                    assert (copy / name).read_bytes() == (
                        run_dir / name
                    ).read_bytes(), (phase, name)


class TestRunStore:
    @pytest.mark.parametrize("blocked", [False, True])
    def test_failed_write_leaves_no_temporary_file(self, tmp_path, blocked):
        store = RunStore(tmp_path)
        if blocked:
            # os.replace fails: a directory holds the file's name.
            (tmp_path / "terms.json").mkdir()
            text, error = "[]\n", IsADirectoryError
        else:
            # Encoding the text fails, before any temporary file exists.
            text, error = "\ud800", UnicodeEncodeError
        with pytest.raises(error):
            store.write_text("terms.json", text)
        assert [p.name for p in tmp_path.iterdir()] == (
            ["terms.json"] if blocked else []
        )

    def test_full_disk_leaves_the_file_and_no_temporary_file(
        self, tmp_path, monkeypatch
    ):
        store = RunStore(tmp_path)
        store.write_text("terms.json", "[]\n")
        real_write = os.write
        writes = []

        def full_disk(fd, data):
            # The first write takes one byte, the second finds no room.
            writes.append(len(data))
            if len(writes) == 1:
                return real_write(fd, data[:1])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full_disk)
        with pytest.raises(OSError) as exc:
            store.write_text("terms.json", '["a longer text"]\n')
        monkeypatch.undo()
        assert exc.value.errno == errno.ENOSPC
        assert writes == [18, 17]
        assert [p.name for p in tmp_path.iterdir()] == ["terms.json"]
        assert (tmp_path / "terms.json").read_text(encoding="utf-8") == "[]\n"

    def test_first_event_or_file_makes_the_run_directory(self, tmp_path):
        events = RunStore(tmp_path / "events" / "run")
        events.append_event("ingested", "document stored")
        (line,) = events.path("events.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert json.loads(line)["event"] == "document stored"
        files = RunStore(tmp_path / "files" / "run")
        files.write_json("run.json", {"phase": "ingested"})
        assert files.read_json("run.json") == {"phase": "ingested"}


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


class Stopped(Exception):
    """The process ends here: nothing after the raising call runs."""


class TestContinuation:
    """run.json holds the run's identity and is written once by each
    invocation that runs phases. Progress is the phase files, so running
    the same inputs again continues a stopped run and returns a complete
    one."""

    def test_rerun_of_a_complete_run_writes_nothing(self, tmp_path):
        run = run_happy(tmp_path)
        for path in run.store.run_dir.iterdir():
            os.utime(path, ns=(0, 0))  # any later write moves the mtime

        def snapshot():
            return {p.name: (p.read_bytes(), p.stat().st_mtime_ns,
                             p.stat().st_ino)
                    for p in run.store.run_dir.iterdir()}

        before = snapshot()
        # Strict and empty: any backend call would raise.
        again = run_pipeline(ingest_excerpt(), happy_config(),
                             ScriptedBackend([]), tmp_path)
        assert again.phase == "complete"
        assert len(again.plans) == 4
        assert snapshot() == before

    @pytest.mark.parametrize("name, first_line", [
        (EXCERPT_NAME, 1), ("Renamed.txt", EXCERPT_FIRST_LINE),
    ], ids=["renumbered", "renamed"])
    def test_same_text_under_another_name_or_numbering_is_refused(
        self, tmp_path, name, first_line
    ):
        run = run_happy(tmp_path)
        before = {p.name: p.read_bytes() for p in run.store.run_dir.iterdir()}
        other = ingest((FIXTURES / "openai_tos_excerpt.txt").read_bytes(),
                       name, first_line=first_line)
        assert compute_run_id(other, happy_config()) == run.run_id
        with pytest.raises(ResumeError) as info:
            run_pipeline(other, happy_config(), ScriptedBackend([]), tmp_path)
        assert info.value.kind == "document_changed"
        after = {p.name: p.read_bytes() for p in run.store.run_dir.iterdir()}
        assert after == before

    def test_uninterrupted_run_writes_each_file_once(self, tmp_path,
                                                     monkeypatch):
        written = []
        real = pipeline.write_atomic

        def spy(path, text):
            written.append(os.path.basename(path))
            real(path, text)

        monkeypatch.setattr(pipeline, "write_atomic", spy)
        run_happy(tmp_path)
        assert written == ["document.json", "run.json", "terms.json",
                           "verifications.json", "remediation.json",
                           "plans.json", "report.audit.json",
                           "report.paper.json", "report.md"]

    # run.json is written before the first phase, after the document: a run
    # stopped before it is only begun again, by run. TestStorageFault
    # continues runs stopped before each file under run.
    @pytest.mark.parametrize("stop", PHASES[1:-1])
    def test_run_stopped_after_a_phase_resumes_to_the_clean_files(
        self, tmp_path, monkeypatch, stop
    ):
        append_event = RunStore.append_event

        def stop_after(store, phase, event):
            append_event(store, phase, event)
            if phase == stop:
                raise Stopped(phase)

        monkeypatch.setattr(RunStore, "append_event", stop_after)
        with pytest.raises(Stopped):
            run_pipeline(ingest_excerpt(), happy_config(), mismatch_backend(),
                         tmp_path / "stopped")
        monkeypatch.undo()
        (run_dir,) = (tmp_path / "stopped").iterdir()
        run = resume(run_dir, mismatch_backend())
        assert run.phase == "complete"
        clean = run_pipeline(ingest_excerpt(), happy_config(),
                             mismatch_backend(), tmp_path / "clean")
        names = sorted(p.name for p in clean.store.run_dir.iterdir())
        assert names == sorted(p.name for p in run_dir.iterdir())
        for name in RUN_FILES:
            assert (run_dir / name).read_bytes() == (
                clean.store.path(name).read_bytes()
            ), f"{name} differs after continuing from {stop}"


class TestStorageFault:
    """A run stopped by a failed write, a full disk at the k-th os.replace,
    exits 2 and leaves no temporary file. Running it again writes the
    uninterrupted run's files and asks the backend only for the requests
    from the first phase whose file was missing on."""

    def argv(self, doc, out_root, script):
        return [
            "run", str(doc),
            "--strategy", "paragraph", "--first-line", "106",
            "--backend", f"scripted:{SCRIPTS / script}",
            "--scenario-file", str(FIXTURES / "student_scenario.txt"),
            "--workers", "1", "--out", str(out_root),
        ]

    @pytest.mark.parametrize("script", ["happy_run.json", "mismatch_run.json"])
    def test_rerun_after_a_failed_write_matches_the_uninterrupted_run(
        self, tmp_path, monkeypatch, capsys, script
    ):
        monkeypatch.delenv("TERMINATORS_CACHE", raising=False)
        doc = tmp_path / "OpenAI_ToS.txt"
        doc.write_bytes((FIXTURES / "openai_tos_excerpt.txt").read_bytes())
        requests = []
        generate = ScriptedBackend.generate

        def recording(backend, req):
            requests.append(req.request_fingerprint)
            return generate(backend, req)

        monkeypatch.setattr(ScriptedBackend, "generate", recording)
        real_replace = os.replace
        asked = []  # the requests made before each os.replace

        def counting(src, dst):
            asked.append(len(requests))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting)
        assert cli_main(self.argv(doc, tmp_path / "clean", script)) == 0
        monkeypatch.setattr(os, "replace", real_replace)
        assert "terms extracted: 4" in capsys.readouterr().out
        (clean_dir,) = (tmp_path / "clean").iterdir()
        uninterrupted = list(requests)
        assert len(asked) == 9

        for k in range(1, len(asked) + 1):
            calls = itertools.count(1)

            def full_disk(src, dst):
                if next(calls) == k:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                real_replace(src, dst)

            out_root = tmp_path / f"fault{k}"
            monkeypatch.setattr(os, "replace", full_disk)
            assert cli_main(self.argv(doc, out_root, script)) == 2, k
            monkeypatch.setattr(os, "replace", real_replace)
            assert "No space left on device" in capsys.readouterr().err
            (run_dir,) = out_root.iterdir()
            assert not list(run_dir.glob("*.tmp")), k

            requests.clear()
            assert cli_main(self.argv(doc, out_root, script)) == 0, k
            capsys.readouterr()
            assert requests == uninterrupted[asked[k - 2] if k > 1 else 0:], k
            names = sorted(p.name for p in clean_dir.iterdir())
            assert names == sorted(p.name for p in run_dir.iterdir()), k
            for name in names:
                if name != "events.jsonl":
                    assert (run_dir / name).read_bytes() == (
                        clean_dir / name).read_bytes(), (k, name)


class TestTermsWithoutExcerpt:
    """A run directory whose term records were written before terms kept
    their excerpt: the terms load with excerpt None, and a resumed run
    re-sources each from one whole-document request."""

    def test_resume_shows_the_whole_document_once(self, tmp_path):
        run = run_pipeline(ingest_excerpt(), happy_config(),
                           mismatch_backend(), tmp_path / "runs")
        run_dir = run.store.run_dir
        for name in ("remediation.json", "plans.json", "report.audit.json",
                     "report.paper.json", "report.md"):
            (run_dir / name).unlink()
        for name in ("terms.json", "verifications.json"):
            data = json.loads((run_dir / name).read_text(encoding="utf-8"))
            for term in data["terms"]:
                del term["excerpt"]
            (run_dir / name).write_text(json.dumps(data), encoding="utf-8")
        loaded = load_run(run_dir)
        assert loaded.phase == "verified"
        assert [t.excerpt for t in loaded.terms] == [None] * 4
        (dropped,) = [t for t in loaded.terms
                      if t.status is TermStatus.UNVERIFIABLE]

        # The script answers only the whole-document request with no span.
        whole = build_resource_request(
            EXCERPT_NAME, render_numbered(loaded.doc), dropped.statement)
        entries = json.loads((SCRIPTS / "mismatch_run.json").read_text(
            encoding="utf-8"))
        assert entries[0]["match"] == "Locate the single passage"
        entries[0]["match"] = f"fingerprint:{whole.request_fingerprint}"
        for entry in entries:
            entry["response_file"] = str(SCRIPTS / entry["response_file"])
        script = tmp_path / "script.json"
        script.write_text(json.dumps(entries), encoding="utf-8")

        assert cli_main(["resume", str(run_dir),
                         "--backend", f"scripted:{script}"]) == 0
        resumed = load_run(run_dir)
        assert resumed.phase == "complete"
        assert [[e.note for e in o.trail] for o in resumed.outcomes] == [
            [], [], [], ["no span proposed"]]
        events = [json.loads(line) for line in (run_dir / "events.jsonl")
                  .read_text(encoding="utf-8").splitlines()]
        assert [e["event"] for e in events if e["phase"] == "remediated"][-1] == (
            "1 discarded, 1 shown the whole document")


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
        assert [len(o.trail) for o in run.outcomes] == [0, 0, 0, 2]
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


def phase_event(run, phase: str) -> str:
    events = [
        json.loads(line)
        for line in run.store.path("events.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
    ]
    return next(e["event"] for e in events if e["phase"] == phase)


class TestExtractedEvent:
    @pytest.mark.parametrize("strategy, event", [
        (ChunkStrategy(ChunkMode.PARAGRAPH), "4 terms, 0 replica passes skipped"),
        (ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=2),
         "4 terms, 0 replica passes skipped"),
        (ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=5),
         "4 terms, 3 replica passes skipped"),
    ], ids=["paragraph", "fanout-2", "fanout-5"])
    def test_counts_replica_passes_not_sent(self, tmp_path, strategy, event):
        # The excerpt is one parallel_merge chunk, and every pass over it
        # gets the same answer: passes 1 and 2 agree.
        config = replace(happy_config(), extraction=ExtractionConfig(strategy))
        run = run_pipeline(ingest_excerpt(), config, happy_backend(), tmp_path)
        assert phase_event(run, "extracted") == event


class TestRemediatedEvent:
    def test_counts_terms_shown_the_whole_document(self, tmp_path):
        # The excerpt is shorter than a re-sourcing window, so its one
        # unsupported term's request shows the whole document.
        run = run_pipeline(
            ingest_excerpt(), happy_config(), mismatch_backend(), tmp_path
        )
        assert phase_event(run, "remediated") == "1 discarded, 1 shown the whole document"

    def test_lexical_re_sourcing_shows_the_agent_nothing(self, tmp_path):
        config = replace(happy_config(), use_llm_resource=False)
        run = run_pipeline(
            ingest_excerpt(), config, mismatch_backend(), tmp_path
        )
        assert phase_event(run, "remediated") == "1 discarded, 0 shown the whole document"


SHIFT_NAME = "Long.txt"
SHIFT = 500
# Clause line -> the parser's citation offset: exact, near misses and one
# far mis-citation, whose excerpt (lines 1-60) the re-sourcing agent
# answers with no span (shift_resource), so the whole document is shown.
SHIFT_CLAUSES = {10: 1, 60: 80, 120: 0, 200: 2, 236: -3}


def shift_resource(statement, shown):
    """The re-sourcing agent: cites the statement's line, except that it
    finds the far mis-cited clause only in the whole document."""
    if statement.startswith("Clause 1:") and len(shown) < 240:
        return None
    return cite_the_statement(statement, shown)
_CITATION_RE = re.compile(rf"{re.escape(SHIFT_NAME)}:(\d+)(?:-(\d+))?")


def shift_citations(text: str, offset: int) -> str:
    return _CITATION_RE.sub(
        lambda m: f"{SHIFT_NAME}:" + "-".join(
            str(int(n) + offset) for n in m.groups() if n is not None
        ),
        text,
    )


def citations(value, path=()):
    """(path, citation) for every citation string in a JSON value."""
    if isinstance(value, dict):
        return [c for key, v in value.items() for c in citations(v, path + (key,))]
    if isinstance(value, list):
        return [c for i, v in enumerate(value) for c in citations(v, path + (i,))]
    if isinstance(value, str) and _CITATION_RE.fullmatch(value):
        return [(path, value)]
    return []


class TestFirstLineShift:
    """The same document numbered from 1 and from 1 + SHIFT: every request
    shows the same texts with numbers SHIFT higher, and every citation the
    run writes moves by exactly SHIFT."""

    def run(self, out_root, first_line):
        lines = [f"Filler {i} about general matters." for i in range(240)]
        offsets = {}
        for k, (line, offset) in enumerate(SHIFT_CLAUSES.items()):
            lines[line - 1] = f"Clause {k}: users may ask for item {k} by mail."
            offsets[lines[line - 1]] = offset
        doc = ingest_doc_text(
            "\n".join(lines) + "\n", SHIFT_NAME, first_line=first_line
        )
        backend = LineTextBackend(offsets=offsets, resource=shift_resource)
        config = replace(happy_config(), workers=1)
        return run_pipeline(doc, config, backend, out_root), backend

    def test_requests_and_citations_move_by_the_offset(self, tmp_path):
        base, base_backend = self.run(tmp_path / "base", 1)
        moved, moved_backend = self.run(tmp_path / "moved", 1 + SHIFT)

        def shifted(prompt):
            prompt = re.sub(r"^(\d+):", lambda m: f"{int(m.group(1)) + SHIFT}:",
                            prompt, flags=re.MULTILINE)
            return shift_citations(prompt, SHIFT)

        assert len(base_backend.requests) == len(moved_backend.requests)
        for a, b in zip(base_backend.requests, moved_backend.requests):
            assert b.role_prompt == a.role_prompt
            assert b.user_prompt == shifted(a.user_prompt)
        # Each term is shown its 60-line chunk; the far mis-citation, second,
        # is then shown the whole document.
        assert [(min(shown), max(shown)) for shown in (
            shown_lines(r.user_prompt) for r in base_backend.resource_requests()
        )] == [(1, 60), (1, 60), (1, 240), (181, 240), (181, 240)]

        for name in ("terms.json", "remediation.json"):
            a = json.loads(base.store.path(name).read_text(encoding="utf-8"))
            b = json.loads(moved.store.path(name).read_text(encoding="utf-8"))
            assert citations(b) == [
                (path, shift_citations(c, SHIFT)) for path, c in citations(a)
            ], name
        # Terms in citation order: lines 11, 120, 140 (the far one), 202, 233.
        assert [o.action for o in base.outcomes] == [
            "resourced", "kept_supported", "resourced", "resourced", "resourced",
        ]
        assert [len(o.trail) for o in base.outcomes] == [1, 0, 2, 1, 1]
        assert phase_event(base, "remediated") == "0 discarded, 1 shown the whole document"


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
