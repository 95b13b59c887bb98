"""Self-tests for the benchmark's own pieces: the generator, the simulated
agent, the self-time arithmetic and the tracing wrappers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from terminators import prompts
from terminators.backends import BackendRequest
from terminators.chunking import detect_headings
from terminators.documents import ingest, render_numbered

from perfbench import harness, tracing
from perfbench.agent import SimAgent
from perfbench.generator import (
    CLAUSE_TABLE,
    STATEMENT_TABLE,
    _quotas,
    generate_pool,
    outcome,
)

RATES = harness.SPEC["agent"]


def test_generator_is_deterministic_per_seed():
    first = generate_pool(7, 3, 40, 80, 0.15, RATES)
    assert first == generate_pool(7, 3, 40, 80, 0.15, RATES)
    assert [d.raw for d in first] != [d.raw for d in generate_pool(8, 3, 40, 80, 0.15, RATES)]


def test_generated_documents_match_their_ground_truth():
    assert len(STATEMENT_TABLE) == len(CLAUSE_TABLE)
    for gdoc in generate_pool(3, 4, 60, 120, 0.15, RATES):
        doc = ingest(gdoc.raw, gdoc.name)
        assert doc.line_count == gdoc.line_count
        assert len(gdoc.clauses) == round(0.15 * gdoc.line_count)
        assert len({c.statement for c in gdoc.clauses}) == len(gdoc.clauses)
        fates = Counter(outcome(3, c.statement, RATES) for c in gdoc.clauses)
        assert fates == +Counter(_quotas(len(gdoc.clauses), RATES))
        for clause in gdoc.clauses:
            assert doc.line_text(clause.line) == clause.text
            assert CLAUSE_TABLE[clause.text][0] == clause.statement
        assert detect_headings(doc)


def _requests(gdoc):
    doc = ingest(gdoc.raw, gdoc.name)
    numbered = render_numbered(doc)
    clause = gdoc.clauses[0]
    passage = doc.line_text(clause.line)
    return [
        prompts.build_parser_request(doc.source_name, numbered),
        prompts.build_resource_request(doc.source_name, numbered, clause.statement),
        prompts.build_verifier_request(clause.statement, f"{doc.source_name}:{clause.line}",
                                       passage),
        prompts.build_planner_request(clause.statement, f"{doc.source_name}:{clause.line}",
                                      passage, "A student."),
    ]


def test_agent_ignores_role_prompt_wording():
    gdoc = generate_pool(5, 1, 80, 80, 0.15, RATES)[0]
    agent = SimAgent(5, RATES)
    for req in _requests(gdoc):
        reworded = BackendRequest(
            role_prompt="Reworded instructions. " + req.role_prompt[::-1],
            user_prompt=req.user_prompt,
            response_schema=req.response_schema,
        )
        assert agent.generate(req).raw_text == agent.generate(reworded).raw_text


def test_agent_answers_do_not_depend_on_thread_order():
    reqs = [r for gdoc in generate_pool(6, 3, 60, 90, 0.15, RATES) for r in _requests(gdoc)]
    agent = SimAgent(6, RATES)
    serial = {id(r): agent.generate(r).raw_text for r in reqs}
    with ThreadPoolExecutor(max_workers=4) as pool:
        reordered = list(pool.map(lambda r: (id(r), agent.generate(r).raw_text),
                                  reversed(reqs)))
    assert dict(reordered) == serial


def test_self_time_on_a_hand_built_span_tree():
    # root 0-10 has children a 1-4 and b 3-6 (overlapping, as two worker
    # threads would be) and c 8-9; a has a child d 2-3.
    spans = [
        (0, "root", 0.0, 10.0, None, "doc"),
        (1, "a", 1.0, 4.0, 0, "doc"),
        (2, "b", 3.0, 6.0, 0, "doc"),
        (3, "c", 8.0, 9.0, 0, "doc"),
        (4, "d", 2.0, 3.0, 1, "doc"),
        (5, "a", 12.0, 13.0, None, "doc"),
    ]
    times = tracing.layer_times(spans)
    assert times["root"] == {"s": 10.0, "wall_s": 10.0, "self_s": 10.0 - 5.0 - 1.0}
    assert times["a"] == {"s": 4.0, "wall_s": 4.0, "self_s": 2.0 + 1.0}
    assert times["b"]["self_s"] == 3.0
    assert times["d"]["self_s"] == 1.0
    assert tracing._union([(0, 2), (1, 3), (5, 6)]) == 4


def _sites():
    sites = [(o, a) for o, a, _ in tracing.SPANNED]
    sites += [(o, a) for o, a, *_ in tracing.COUNTED]
    return sites + [tracing.CACHE_SITE]


@pytest.mark.parametrize("workload", ["lexical-resource", "warm-replay"])
def test_traced_run_restores_every_wrapper(tmp_path, workload):
    wl = dict(harness.SPEC["workloads"][workload], doc_lines=[40, 40])
    gdoc = generate_pool(9, 1, 40, 40, 0.15, RATES)[0]
    before = {(id(o), a): getattr(o, a) for o, a in _sites()}
    agent = harness.make_agent(9, wl)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, agent)
    try:
        assert len(saved) == len(before)
        assert all(getattr(o, a) is not before[(id(o), a)] for o, a in _sites())
        cache = tmp_path / "cache" if wl["cache"] else None
        *_, run = harness.run_doc(gdoc, harness.make_config(wl), agent,
                                 tmp_path / "runs", cache)
    finally:
        tracing.restore(saved, agent)
    assert all(getattr(o, a) is before[(id(o), a)] for o, a in _sites())
    assert agent.tracer is None
    assert harness.check_run(run) == []
    metrics, _ = tracing.summarise(tracer, agent.stats, 1, 2, [1.0], [1.0])
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER_METRICS}
    assert metrics["parsing.extract_document.s"] > 0
    assert metrics["chunking.chunks_per_doc"] > 0
