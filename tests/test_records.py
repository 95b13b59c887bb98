"""The record codec: dataclass <-> JSON through field types, pinned layouts,
a seeded round-trip sweep, and old or newer records that still load."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from terminators.chunking import ChunkMode, ChunkStrategy
from terminators.documents import SourceRef
from terminators.parsing import ExtractionConfig
from terminators.pipeline import RunConfig
from terminators.planning import JurisdictionId, Scenario
from terminators.records import from_json, to_json
from terminators.remediation import (
    ACTION_DISCARDED,
    ACTION_KEPT,
    ACTION_RESOURCED,
    RemediationOutcome,
    TrailEntry,
)
from terminators.verification import (
    FLAG_LOW_OVERLAP,
    FLAG_PASS,
    FLAG_UNRESOLVABLE,
    LABEL_CONTRADICTED,
    LABEL_SUPPORTED,
    LABEL_UNVERIFIABLE,
    VerificationResult,
)

SWEEP_CASES = 300


def through_text(record):
    """The record as it comes back from a file."""
    return json.loads(json.dumps(to_json(record), ensure_ascii=False))


def layout(value) -> str:
    """Key order and encodings, compared as text."""
    return json.dumps(value, ensure_ascii=False)


def random_ref(rng: random.Random) -> SourceRef:
    start = rng.randint(1, 400)
    name = rng.choice(("ToS.txt", "Terms: v2.md", "política.html"))
    return SourceRef(name, start, start + rng.choice((0, 0, 1, 5)))


def random_verification(rng: random.Random) -> VerificationResult:
    return VerificationResult(
        term_id=f"{rng.randrange(16 ** 12):012x}",
        label=rng.choice((LABEL_SUPPORTED, LABEL_CONTRADICTED, LABEL_UNVERIFIABLE)),
        justification=rng.choice(("Stated outright.", "", "« cité » | x\n y")),
        lexical_score=rng.choice((0.0, 1.0, rng.random())),
        pre_check_flag=rng.choice((FLAG_PASS, FLAG_LOW_OVERLAP, FLAG_UNRESOLVABLE)),
        verifier_prompt_fingerprint=rng.choice((None, f"{rng.randrange(16 ** 64):064x}")),
    )


def random_outcome(rng: random.Random) -> RemediationOutcome:
    term_id = f"{rng.randrange(16 ** 12):012x}"
    old = random_ref(rng)
    action = rng.choice((ACTION_KEPT, ACTION_RESOURCED, ACTION_DISCARDED))
    if action == ACTION_KEPT:
        return RemediationOutcome(term_id, action, old, None, ())
    proposed = rng.choice((None, random_ref(rng)))
    verdict = None if proposed is None else rng.choice((None, random_verification(rng)))
    if action == ACTION_RESOURCED:
        proposed = random_ref(rng)
        verdict = random_verification(rng)
    entry = TrailEntry(proposed, verdict, rng.choice(("", "no span proposed")))
    new = proposed if action == ACTION_RESOURCED else None
    return RemediationOutcome(term_id, action, old, new, (entry,))


def random_run_config(rng: random.Random) -> RunConfig:
    mode = rng.choice(list(ChunkMode))
    fanout = rng.randint(2, 4) if mode is ChunkMode.PARALLEL_MERGE else 1
    aspects = rng.choice((None, ("privacy",), ("user obligations", "fees")))
    scenario = rng.choice((
        None,
        Scenario("I store coursework.",
                 jurisdiction=rng.choice(list(JurisdictionId))),
    ))
    return RunConfig(
        extraction=ExtractionConfig(
            ChunkStrategy(mode, rng.randint(1, 80), fanout),
            aspects=aspects,
            provider_name=rng.choice((None, "OpenAI")),
        ),
        threshold=rng.choice((0.3, 0.0, 1, rng.random())),
        context_lines=rng.randint(0, 3),
        use_llm_resource=rng.random() < 0.5,
        min_checks=rng.randint(1, 5),
        workers=rng.randint(1, 8),
        best_effort=rng.random() < 0.5,
        backend_id=rng.choice(("scripted", "live:gpt-4o")),
        scenario=scenario,
    )


RECORD_MAKERS = [
    (VerificationResult, random_verification),
    (RemediationOutcome, random_outcome),
    (RunConfig, random_run_config),
]


class TestRoundTripSweep:
    @pytest.mark.parametrize("cls, make", RECORD_MAKERS,
                             ids=["verification", "outcome", "run-config"])
    def test_round_trip(self, cls, make):
        rng = random.Random(f"records|{cls.__name__}")
        for _ in range(SWEEP_CASES):
            record = make(rng)
            data = through_text(record)
            assert from_json(cls, data) == record
            assert to_json(from_json(cls, data)) == data

    def test_sweep_reaches_every_case(self):
        rng = random.Random("records|RemediationOutcome")
        outcomes = [random_outcome(rng) for _ in range(SWEEP_CASES)]
        assert {o.action for o in outcomes} == {
            ACTION_KEPT, ACTION_RESOURCED, ACTION_DISCARDED}
        trail = [e for o in outcomes for e in o.trail]
        assert any(e.proposed is None for e in trail)
        assert any(e.proposed is not None and e.verification is None for e in trail)
        rng = random.Random("records|RunConfig")
        configs = [random_run_config(rng) for _ in range(SWEEP_CASES)]
        assert {c.extraction.strategy.mode for c in configs} == set(ChunkMode)
        assert {c.extraction.aspects is None for c in configs} == {True, False}
        assert {c.scenario.jurisdiction for c in configs if c.scenario} == set(
            JurisdictionId)
        assert any(c.scenario is None for c in configs)


class TestLayout:
    """One literal record per type: key order and encodings, byte for byte."""

    def test_verification(self):
        result = VerificationResult("t1", LABEL_SUPPORTED, "Stated.", 0.75,
                                    FLAG_PASS, None)
        assert layout(to_json(result)) == layout({
            "term_id": "t1",
            "label": "Supported",
            "justification": "Stated.",
            "lexical_score": 0.75,
            "pre_check_flag": "pass",
            "verifier_prompt_fingerprint": None,
        })

    def test_outcome(self):
        verdict = VerificationResult("t1", LABEL_SUPPORTED, "ok", 1.0,
                                     FLAG_PASS, "ab")
        outcome = RemediationOutcome(
            term_id="t1",
            action=ACTION_RESOURCED,
            old_source=SourceRef("ToS.txt", 28, 28),
            new_source=SourceRef("ToS.txt", 30, 31),
            trail=(TrailEntry(SourceRef("ToS.txt", 30, 31), verdict, ""),),
        )
        assert layout(to_json(outcome)) == layout({
            "term_id": "t1",
            "action": "resourced",
            "old_source": "ToS.txt:28",
            "new_source": "ToS.txt:30-31",
            "trail": [
                {
                    "proposed": "ToS.txt:30-31",
                    "verification": {
                        "term_id": "t1",
                        "label": "Supported",
                        "justification": "ok",
                        "lexical_score": 1.0,
                        "pre_check_flag": "pass",
                        "verifier_prompt_fingerprint": "ab",
                    },
                    "note": "",
                }
            ],
        })

    def test_run_config(self):
        config = RunConfig(
            extraction=ExtractionConfig(
                ChunkStrategy(ChunkMode.PARALLEL_MERGE, 40, 3),
                aspects=("privacy",),
                provider_name="OpenAI",
            ),
            workers=7,
            scenario=Scenario("desc", jurisdiction=JurisdictionId.GDPR),
        )
        assert layout(to_json(config)) == layout({
            "extraction": {
                "strategy": {
                    "mode": "parallel_merge",
                    "max_chunk_lines": 40,
                    "parallel_fanout": 3,
                },
                "aspects": ["privacy"],
                "provider_name": "OpenAI",
                "prompt_version": config.extraction.prompt_version,
            },
            "threshold": 0.3,
            "context_lines": 0,
            "use_llm_resource": True,
            "min_checks": 3,
            "best_effort": False,
            "backend_id": "scripted",
            "scenario": {
                "description": "desc",
                "jurisdiction": "gdpr",
            },
        })


class TestCompatibility:
    def test_missing_optional_and_unknown_keys_load(self):
        data = {
            "extraction": {"strategy": {"mode": "paragraph"}, "added_later": 1},
            "threshold": 0.5,
            "workers": 8,
            "max_attempts": 2,
            "scenario": {"description": "d", "persona": "student"},
        }
        assert from_json(RunConfig, data) == RunConfig(
            extraction=ExtractionConfig(ChunkStrategy(ChunkMode.PARAGRAPH)),
            threshold=0.5,
            scenario=Scenario("d"),
        )
        assert from_json(RunConfig, data).workers == RunConfig(
            ExtractionConfig(ChunkStrategy(ChunkMode.PARAGRAPH))).workers

    @pytest.mark.parametrize("cls, data, message", [
        (VerificationResult, [], "expected an object"),
        (VerificationResult,
         {"term_id": "t", "justification": "j", "lexical_score": 0.1,
          "pre_check_flag": "pass", "verifier_prompt_fingerprint": None},
         "missing key 'label'"),
        (VerificationResult,
         {"term_id": "t", "label": "Supported", "justification": "j",
          "lexical_score": "high", "pre_check_flag": "pass",
          "verifier_prompt_fingerprint": None},
         "lexical_score: expected a number"),
        (TrailEntry,
         {"proposed": "nowhere", "verification": None, "note": ""},
         "proposed: .*unparseable source"),
        (TrailEntry,
         {"proposed": "a.txt:12\n", "verification": None, "note": ""},
         "proposed: .*unparseable source"),
        (Scenario, {"description": "d", "jurisdiction": "mars"}, "jurisdiction"),
        (ChunkStrategy, {"mode": "paragraph", "max_chunk_lines": True},
         "expected int"),
        (ChunkStrategy,
         {"mode": "paragraph", "max_chunk_lines": 40, "parallel_fanout": 3},
         "outside parallel_merge"),
    ], ids=["not-an-object", "missing-key", "wrong-type", "bad-citation",
            "citation-with-newline", "bad-enum", "bool-for-int",
            "fanout-outside-parallel"])
    def test_malformed_records_raise_value_error(self, cls, data, message):
        with pytest.raises(ValueError, match=message):
            from_json(cls, data)


# Any JSON value: what a hand-edited or damaged run file may hold. Scalars
# get their own branch, since st.recursive draws mostly containers.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=12))
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=12), children, max_size=3),
    max_leaves=8,
)


@st.composite
def damaged(draw, make):
    """A valid record's JSON with one value somewhere in it replaced by any
    JSON value, or its key dropped. A seeded Random picks the record and
    the place, so every field is hit about as often."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    record = through_text(make(rng))
    node, key = record, rng.choice(list(record))
    while isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.5:
        node = node[key]
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
    if isinstance(node, dict) and rng.random() < 0.25:
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return record


class TestFuzz:
    @pytest.mark.parametrize("cls, make", RECORD_MAKERS,
                             ids=["verification", "outcome", "run-config"])
    def test_any_json_gives_a_record_or_a_value_error(self, cls, make):
        @settings(derandomize=True, database=None, max_examples=100,
                  deadline=None)
        @given(JSON_VALUES, damaged(make))
        def check(value, damaged_record):
            for data in (value, damaged_record):
                try:
                    record = from_json(cls, data)
                except ValueError:
                    continue
                assert isinstance(record, cls)

        check()
