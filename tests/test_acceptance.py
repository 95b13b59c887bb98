"""Acceptance gate: one test per criterion, with a pass/fail banner line
per criterion printed in the terminal summary (see conftest)."""

from __future__ import annotations

import json
import random
import socket
import time

import pytest

import test_live_smoke
from test_chunking import MODES, check_invariants, ref_ranges, strategy_for
from helpers import (
    CANNED_CHECKS,
    EXCERPT_NAME,
    GOLDEN,
    MISMATCH_CITED_LINE,
    MISMATCH_STATEMENT,
    RAW_NAME,
    SCRIPTS,
    STUDENT_SCENARIO,
    SeededBackend,
    ingest_excerpt,
    ingest_raw,
    happy_backend,
    mismatch_backend,
    random_document,
    random_statement,
    scripted,
)
from terminators.backends import ScriptedBackend
from terminators.chunking import ChunkMode, ChunkStrategy, chunk
from terminators.cli import EXIT_OK, main
from terminators.documents import SourceRef, render_numbered, resolve_span
from terminators.parsing import ExtractionConfig, extract_document
from terminators.pipeline import RunConfig, run_pipeline
from terminators.planning import Scenario, plan_term
from terminators.records import to_json
from terminators.remediation import (
    advance,
    find_best_window,
    remediate,
)
from terminators.terms import TermStatus, validate_term
from terminators.verification import (
    FLAG_LOW_OVERLAP,
    lexical_support_score,
    verify_term,
)

PARAGRAPH = ExtractionConfig(ChunkStrategy(ChunkMode.PARAGRAPH))


@pytest.mark.acceptance(1, "numbered excerpt and span resolution are exact")
def test_numbered_excerpt_fidelity():
    t0 = time.monotonic()
    doc = ingest_excerpt()
    rendered = render_numbered(doc) + "\n"
    golden = (GOLDEN / "listing2_numbered.txt").read_text(encoding="utf-8")
    assert rendered == golden

    span = resolve_span(doc, SourceRef(EXCERPT_NAME, 108, 109))
    assert span == (
        "Output may not always be accurate. You should not rely on Output "
        "from our Services as a sole\n"
        "source of truth or factual information, or as a substitute for "
        "professional advice."
    )
    assert time.monotonic() - t0 < 1.0


@pytest.mark.acceptance(2, "whole vs paragraph strategies find 2 vs 4 terms")
def test_strategy_coverage_gap():
    t0 = time.monotonic()
    doc = ingest_excerpt()
    whole = extract_document(
        doc,
        ExtractionConfig(ChunkStrategy(ChunkMode.WHOLE_DOCUMENT)),
        scripted(("106: When you use", "listing3_terms.json")),
    )
    paragraph = extract_document(
        doc,
        PARAGRAPH,
        scripted(
            ("108: Output may not always", "listing4_terms.json"),
            ("106: When you use", "empty_terms.json"),
        ),
    )
    assert len(whole.terms) == 2
    assert len(paragraph.terms) == 4
    assert time.monotonic() - t0 < 1.0


@pytest.mark.acceptance(3, "aspect scoping omits the provider disclaimer")
def test_aspect_scoping():
    doc = ingest_excerpt()
    outcome = extract_document(
        doc,
        ExtractionConfig(
            ChunkStrategy(ChunkMode.PARAGRAPH),
            aspects=("user rights and responsibilities",),
        ),
        scripted(
            ("108: Output may not always", "listing4_aspect_terms.json"),
            ("106: When you use", "empty_terms.json"),
        ),
    )
    assert len(outcome.terms) == 3
    statements = [t.statement for t in outcome.terms]
    assert not any("OpenAI's views" in s for s in statements)
    assert not any(t.source.start_line == 115 for t in outcome.terms)


@pytest.mark.acceptance(4, "mismatched citation is flagged, then discarded or re-sourced")
def test_mismatch_detection_and_remediation():
    doc = ingest_raw()
    term = validate_term(
        {
            "term": MISMATCH_STATEMENT,
            "source": f"{RAW_NAME}:{MISMATCH_CITED_LINE}",
            "applicable_to": ["user"],
        },
        doc,
        warnings=[],
    )
    wrong_passage = resolve_span(doc, term.source)
    assert lexical_support_score(MISMATCH_STATEMENT, wrong_passage) < 0.3

    verifier = scripted(
        ("reverse engineer, decompile", "listing6_verification.json")
    )
    result = verify_term(term, doc, verifier)
    assert result.pre_check_flag == FLAG_LOW_OVERLAP
    assert result.label == "Unverifiable"

    no_better = scripted(
        ("Locate the single passage", "empty_terms.json"),
    )
    discarded = remediate(term, result, doc, no_better)
    assert discarded.action == "discarded"

    fixer = scripted(
        ("Locate the single passage", "resource_raw30.json"),
        ("Attempt to reverse engineer", "supported_verification.json"),
    )
    resourced = remediate(term, result, doc, fixer)
    assert resourced.action == "resourced"
    assert len(resourced.trail) == 1
    assert (resourced.new_source.start_line, resourced.new_source.end_line) == (30, 30)


@pytest.mark.acceptance(5, "student scenario yields the five expected checks")
def test_planner_fidelity():
    doc = ingest_excerpt()
    term = validate_term(
        json.loads(
            (SCRIPTS.parent / "responses" / "listing3_terms.json").read_text(
                encoding="utf-8"
            )
        )[0],
        doc,
        warnings=[],
    )
    term = advance(term, TermStatus.VERIFIED_SUPPORTED)
    plan = plan_term(
        term,
        doc,
        Scenario(description=STUDENT_SCENARIO),
        scripted(("sole source of truth", "listing7_plan.json")),
    )
    assert plan.checks == CANNED_CHECKS
    assert len(plan.checks) == 5
    record = to_json(plan)
    assert "possible_accountability_checks" in record
    assert record["possible_accountability_checks"] == list(CANNED_CHECKS)


@pytest.mark.acceptance(6, "chunker matches the reference splitter on random documents")
def test_chunker_properties():
    t0 = time.monotonic()
    rng = random.Random(66001)
    for i in range(1000):
        doc = random_document(rng)
        mode = rng.choice(tuple(MODES))
        cap = rng.choice((1, 2, 3, 5, 8, 60))
        strategy = strategy_for(mode, cap)
        chunks = chunk(doc, strategy)
        check_invariants(doc, chunks, strategy)
        got = [(c.start_line, c.end_line) for c in chunks]
        assert got == ref_ranges(doc, mode, cap), f"doc {i} mode {mode} cap {cap}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"chunker sweep took {elapsed:.1f}s"


@pytest.mark.acceptance(7, "fallback resourcer matches exhaustive span search")
def test_span_search_oracle():
    t0 = time.monotonic()
    rng = random.Random(77001)
    for i in range(500):
        doc = random_document(rng, max_lines=30)
        statement = random_statement(rng, doc)
        cap = rng.choice((1, 2, 4, 6))
        got = find_best_window(statement, doc, max_span_lines=cap)

        ranked = []
        for start in range(doc.first_line, doc.last_line + 1):
            for end in range(start, min(start + cap, doc.last_line + 1)):
                ref = SourceRef(doc.source_name, start, end)
                score = lexical_support_score(statement, resolve_span(doc, ref))
                ranked.append((-score, start, end - start, ref))
        best = min(ranked)[3]
        assert (got.start_line, got.end_line) == (
            best.start_line,
            best.end_line,
        ), f"pair {i}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"span-search sweep took {elapsed:.1f}s"


@pytest.mark.acceptance(8, "reruns are byte-identical and match the golden report")
def test_end_to_end_determinism(tmp_path, capsys):
    doc_path = tmp_path / EXCERPT_NAME
    doc_path.write_bytes(
        (SCRIPTS.parent / "openai_tos_excerpt.txt").read_bytes()
    )
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(STUDENT_SCENARIO, encoding="utf-8")

    def invoke(out_root):
        code = main([
            "run", str(doc_path),
            "--strategy", "paragraph",
            "--first-line", "106",
            "--backend", f"scripted:{SCRIPTS / 'happy_run.json'}",
            "--scenario-file", str(scenario),
            "--out", str(out_root),
        ])
        assert code == EXIT_OK
        capsys.readouterr()
        run_dir = next((out_root).iterdir())
        return run_dir

    first = invoke(tmp_path / "runs_a")
    second = invoke(tmp_path / "runs_b")
    for name in ("report.audit.json", "report.paper.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "report.paper.json").read_bytes() == (
        GOLDEN / "paper_report.json"
    ).read_bytes()


def _assert_conserved(run):
    """Stored-artifact checks: counts add up and every survivor's current
    source is backed by a Supported verdict somewhere in the record."""
    audit = json.loads(
        run.store.path("report.audit.json").read_text(encoding="utf-8")
    )
    counts = audit["counts"]
    assert counts["extracted"] == counts["surviving"] + counts["discarded"]
    assert run.phase == "complete"

    verifications = {v["term_id"]: v for v in audit["verifications"]}
    outcomes = {o["term_id"]: o for o in audit["remediation"]}
    for record in audit["terms"]:
        status = record["status"]
        assert status in ("verified_supported", "resourced", "discarded")
        if status == "verified_supported":
            assert verifications[record["term_id"]]["label"] == "Supported"
            assert outcomes[record["term_id"]]["action"] == "kept_supported"
        elif status == "resourced":
            outcome = outcomes[record["term_id"]]
            assert outcome["action"] == "resourced"
            assert outcome["new_source"] == record["source"]
            verdicts = [
                e["verification"]
                for e in outcome["trail"]
                if e["verification"] is not None
            ]
            assert verdicts
            assert verdicts[-1]["label"] == "Supported"
        else:
            assert outcomes[record["term_id"]]["action"] == "discarded"


@pytest.mark.acceptance(9, "term counts are conserved and survivors are supported")
def test_lifecycle_conservation(tmp_path):
    scenario = Scenario(description=STUDENT_SCENARIO)
    fixture_runs = [
        run_pipeline(
            ingest_excerpt(),
            RunConfig(extraction=PARAGRAPH, scenario=scenario),
            happy_backend(),
            tmp_path / "fixture_happy",
        ),
        run_pipeline(
            ingest_excerpt(),
            RunConfig(extraction=PARAGRAPH, scenario=scenario),
            mismatch_backend(),
            tmp_path / "fixture_mismatch",
        ),
    ]
    for run in fixture_runs:
        _assert_conserved(run)

    rng = random.Random(99001)
    total_terms = 0
    for i in range(20):
        doc = random_document(rng, max_lines=30)
        config = RunConfig(
            extraction=ExtractionConfig(
                ChunkStrategy(
                    rng.choice(
                        (ChunkMode.PARAGRAPH, ChunkMode.SECTION_BY_SECTION)
                    ),
                    max_chunk_lines=rng.choice((4, 8, 60)),
                )
            ),
            workers=rng.choice((1, 4)),
            scenario=scenario if i % 2 == 0 else None,
            backend_id="seeded-test",
        )
        run = run_pipeline(
            doc,
            config,
            SeededBackend(seed=1000 + i, doc=doc),
            tmp_path / "random" / str(i),
        )
        _assert_conserved(run)
        total_terms += len(run.terms)
    assert total_terms >= 20, "sweep produced too few terms to mean much"


@pytest.mark.acceptance(10, "everything runs offline; live smoke is opt-in")
def test_offline_completeness(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    monkeypatch.delenv("TERMINATORS_API_KEY", raising=False)

    run = run_pipeline(
        ingest_excerpt(),
        RunConfig(
            extraction=PARAGRAPH,
            scenario=Scenario(description=STUDENT_SCENARIO),
        ),
        happy_backend(),
        tmp_path,
    )
    assert run.phase == "complete"
    assert len(run.plans) == 4

    gate = [
        m
        for m in getattr(test_live_smoke, "pytestmark", [])
        if m.name == "skipif"
    ]
    assert gate, "live smoke module must carry a skipif gate"
    assert any(
        "TERMINATORS_LIVE_SMOKE" in str(m.args) + str(m.kwargs) for m in gate
    ), "live smoke must be gated behind TERMINATORS_LIVE_SMOKE"
