"""Drive generated documents through the library path a user runs,
``documents.ingest`` then ``pipeline.run_pipeline``, and measure it.

Documents come from a seeded pool. The untraced run makes as many whole
passes over the pool as fit in the timed seconds, at least one; counts and
quality ratios come from the first pass, so they repeat exactly for a seed.
The traced run makes one pass with every layer wrapped.
"""

from __future__ import annotations

import filecmp
import json
import resource
import shutil
import statistics
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter, process_time

from terminators.chunking import ChunkMode, ChunkStrategy
from terminators.documents import SpanError, ingest, resolve_span
from terminators.parsing import ExtractionConfig
from terminators.pipeline import RunConfig, run_pipeline
from terminators.planning import Scenario
from terminators.terms import TermStatus

from perfbench import tracing
from perfbench.agent import KINDS, SimAgent
from perfbench.generator import GeneratedDoc, generate_pool

SPEC = json.loads((Path(__file__).parent / "workloads.json").read_text(encoding="utf-8"))

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

# Time is gated as CPU time of this process (all threads): on a shared host
# the wall time of CPU-bound work moves with other tenants' load by more than
# any useful bound, while CPU time moves far less. And it is gated as a
# throughput over every timed document, because the median of documents of
# spread-out lengths rests on the few near the median length and moves with
# their content from seed to seed. The per-document medians, wall and CPU,
# are printed with their sample count.
E2E_METRICS = (
    ("setup_s", "s"),
    ("lines_per_cpu_s", "lines/s"),
    ("backend_calls_per_doc", "calls"),
    ("input_tokens_per_doc", "tokens"),
    ("term_recall", "ratio"),
    ("citation_precision", "ratio"),
    ("peak_rss_mib", "MiB"),
)


def make_config(wl: dict) -> RunConfig:
    strategy = ChunkStrategy(ChunkMode(wl["mode"]),
                             parallel_fanout=wl["parallel_fanout"])
    return RunConfig(
        extraction=ExtractionConfig(strategy),
        use_llm_resource=wl["use_llm_resource"],
        workers=SPEC["workers"],
        backend_id=SimAgent.backend_id,
        scenario=Scenario(description=SPEC["scenario"]),
    )


def make_agent(seed: int, wl: dict) -> SimAgent:
    lat = wl["latency"]
    latency = None if lat is None else (
        lat["base_s"], lat["per_1k_input_tokens_s"], lat["max_jitter_s"])
    return SimAgent(seed, SPEC["agent"], latency)


def make_pool(seed: int, wl: dict) -> list[GeneratedDoc]:
    lo, hi = wl["doc_lines"]
    return generate_pool(seed, wl["pool_docs"], lo, hi, SPEC["clause_share"],
                         SPEC["agent"])


def run_doc(gdoc: GeneratedDoc, config: RunConfig, agent: SimAgent, out_root,
            cache_dir=None):
    """(wall seconds and process CPU seconds from raw bytes to a complete
    run directory, the run)."""
    agent.begin_doc()
    started, cpu_started = perf_counter(), process_time()
    doc = ingest(gdoc.raw, gdoc.name)
    run = run_pipeline(doc, config, agent, out_root, cache_dir=cache_dir)
    return perf_counter() - started, process_time() - cpu_started, run


# -- output checks ------------------------------------------------------------

def check_run(run) -> list[str]:
    """Every extracted term ends surviving or discarded; every survivor's
    last verdict is Supported and its source resolves."""
    problems = []
    labels = {v.term_id: v.label for v in run.verifications}
    outcomes = {o.term_id: o for o in run.outcomes}
    for term in run.terms:
        if term.status is TermStatus.DISCARDED:
            continue
        if term.status not in (TermStatus.VERIFIED_SUPPORTED, TermStatus.RESOURCED):
            problems.append(f"term {term.term_id} ended {term.status.value}")
            continue
        label = labels.get(term.term_id)
        if term.status is TermStatus.RESOURCED:
            verdicts = [e.verification for e in outcomes[term.term_id].trail
                        if e.verification is not None]
            label = verdicts[-1].label if verdicts else None
        if label != "Supported":
            problems.append(f"surviving term {term.term_id} last verdict {label}")
        try:
            resolve_span(run.doc, term.source)
        except SpanError as exc:
            problems.append(f"surviving term {term.term_id}: {exc}")
    return problems


def score(run, gdoc: GeneratedDoc) -> tuple[int, int, int]:
    """(planted clauses covered by a surviving term, surviving terms,
    surviving terms whose span covers their clause's line)."""
    by_statement = {c.statement: c for c in gdoc.clauses}
    covered: set[int] = set()
    precise = 0
    surviving = run.surviving_terms
    for term in surviving:
        clause = by_statement.get(term.statement)
        if clause and term.source.start_line <= clause.line <= term.source.end_line:
            covered.add(clause.line)
            precise += 1
    return len(covered), len(surviving), precise


def _artifacts(run_dir: Path) -> list[str]:
    return sorted(p.name for p in run_dir.iterdir() if p.name != "events.jsonl")


def check_determinism(gdoc: GeneratedDoc, first_dir: Path, config: RunConfig,
                      agent: SimAgent, workspace: Path, cache_dir) -> list[str]:
    """A rerun into a fresh directory is byte-identical apart from
    events.jsonl, and report.paper.json is the same at workers=1."""
    problems = []
    *_, again = run_doc(gdoc, config, agent, Path(tempfile.mkdtemp(dir=workspace)),
                       cache_dir)
    names = _artifacts(first_dir)
    if names != _artifacts(again.store.run_dir):
        problems.append(f"{gdoc.name}: rerun wrote a different set of files")
    _, mismatch, errors = filecmp.cmpfiles(first_dir, again.store.run_dir,
                                          names, shallow=False)
    if mismatch or errors:
        problems.append(f"{gdoc.name}: rerun differs in {mismatch + errors}")
    serial = replace(config, workers=1)
    *_, one = run_doc(gdoc, serial, agent, Path(tempfile.mkdtemp(dir=workspace)),
                     cache_dir)
    if not filecmp.cmp(first_dir / "report.paper.json",
                       one.store.path("report.paper.json"), shallow=False):
        problems.append(f"{gdoc.name}: report.paper.json differs at workers=1")
    return problems


# -- the run ------------------------------------------------------------------

def _calls_and_tokens(stats: Counter) -> tuple[int, int]:
    return (sum(stats[f"calls.{k}"] for k in KINDS),
            sum(stats[f"input_tokens.{k}"] for k in KINDS))


def setup(seed: int, wl: dict, workspace: Path):
    """Generate the pool and, for a cached workload, fill the response cache
    by running the code under test cold. Repeated SETUP_REPEATS times.

    Returns ((wall s, CPU s) per repeat, pool, cache dir or None, agent
    stats of the last fill or an empty Counter)."""
    seconds, cache_dir, fill_stats = [], None, Counter()
    for _ in range(SETUP_REPEATS):
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        started, cpu_started = perf_counter(), process_time()
        pool = make_pool(seed, wl)
        if wl["cache"]:
            cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workspace))
            out_root = Path(tempfile.mkdtemp(prefix="fill-", dir=workspace))
            agent, config = make_agent(seed, wl), make_config(wl)
            for gdoc in pool:
                run_doc(gdoc, config, agent, out_root, cache_dir)
            fill_stats = agent.stats
        seconds.append((perf_counter() - started, process_time() - cpu_started))
        if wl["cache"]:
            shutil.rmtree(out_root)
    return seconds, pool, cache_dir, fill_stats


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workspace: Path, import_seconds: list[tuple[float, float]]
                 ) -> tuple[dict, list[str]]:
    """(result object, human-readable report lines)."""
    wl = SPEC["workloads"][name]
    setup_seconds, pool, cache_dir, fill_stats = setup(seed, wl, workspace)
    config = make_config(wl)
    agent = make_agent(seed, wl)
    tracer = tracing.Tracer() if traced else None
    saved = tracing.install(tracer, agent) if traced else []

    samples: list[float] = []
    cpu_samples: list[float] = []
    lines = 0
    failed = 0
    quality = [0, 0, 0]
    problems: list[str] = []
    first_pass_stats = Counter()
    check_doc = min(range(len(pool)), key=lambda i: pool[i].line_count)
    check_dir = None
    i = 0
    try:
        # Whole passes only, so every document is sampled equally often; a
        # further pass starts only if it is expected to end within seconds,
        # and never after a failure.
        while i % len(pool) or not i or (not traced and not failed and
                                          sum(samples) * (1 + len(pool) / i) <= seconds):
            gdoc = pool[i % len(pool)]
            out_root = Path(tempfile.mkdtemp(dir=workspace))
            calls_before = _calls_and_tokens(agent.stats)[0]
            if tracer:
                tracer.doc = f"{i}:{gdoc.name}"
            try:
                elapsed, cpu, run = run_doc(gdoc, config, agent, out_root, cache_dir)
            except Exception as exc:  # a failed document is counted, not fatal
                failed += 1
                problems.append(f"{gdoc.name}: run raised {type(exc).__name__}: {exc}")
            else:
                doc_problems = check_run(run)
                if cache_dir and _calls_and_tokens(agent.stats)[0] != calls_before:
                    doc_problems.append(f"{gdoc.name}: warm replay reached the agent")
                if doc_problems:
                    failed += 1
                    problems.extend(doc_problems)
                samples.append(elapsed)
                cpu_samples.append(cpu)
                lines += gdoc.line_count
                if i < len(pool):
                    for k, v in enumerate(score(run, gdoc)):
                        quality[k] += v
                if i == check_doc:
                    check_dir = run.store.run_dir
            if check_dir is None or i != check_doc:
                shutil.rmtree(out_root)
            i += 1
            if i == len(pool):
                first_pass_stats = Counter(agent.stats)
    finally:
        tracing.restore(saved, agent)

    attempted = i
    if check_dir is not None:
        attempted += 2
        try:
            det = check_determinism(pool[check_doc], check_dir, config, agent,
                                    workspace, cache_dir)
        except Exception as exc:  # reported like any other failed check
            det = [f"{pool[check_doc].name}: rerun raised {type(exc).__name__}: {exc}"]
        if det:
            failed += 1
            problems.extend(det)
    samples = samples or [0.0]
    cpu_samples = cpu_samples or [0.0]
    planted = sum(len(g.clauses) for g in pool)
    report = [
        f"workload {name}: seed {seed}, {len(pool)} pooled documents of "
        f"{wl['doc_lines'][0]}-{wl['doc_lines'][1]} lines, {len(samples)} "
        f"document runs timed ({attempted} attempted), workers={config.workers}"
    ]
    report += [f"problem: {p}" for p in problems]
    report.append(f"failed_docs_share = {failed / attempted:.4f} ratio "
                  f"({failed} of {attempted})")
    if traced:
        metrics, times = tracing.summarise(tracer, first_pass_stats, len(pool),
                                           config.workers, samples, cpu_samples)
        units = dict(tracing.PER_LAYER_METRICS)
        report.append("span name: busy_s wall_s self_s calls (per document), by self time")
        calls = Counter(s[1] for s in tracer.spans)
        for span_name, t in sorted(times.items(), key=lambda kv: -kv[1]["self_s"]):
            report.append(
                f"  {span_name:40s} {t['s'] / len(pool):10.5f} "
                f"{t['wall_s'] / len(pool):10.5f} {t['self_s'] / len(pool):10.5f} "
                f"{calls[span_name] / len(pool):10.1f}")
    else:
        calls, tokens = _calls_and_tokens(fill_stats if cache_dir else first_pass_stats)
        setup_wall = (statistics.median(w for w, _ in import_seconds)
                      + statistics.median(w for w, _ in setup_seconds))
        setup_s = (statistics.median(c for _, c in import_seconds)
                   + statistics.median(c for _, c in setup_seconds))
        report += [
            f"setup wall time = {setup_wall:.6g} s (setup_s is CPU time)",
            f"doc_s.p50 = {statistics.median(samples):.6g} s (wall)",
            f"doc_cpu_s.p50 = {statistics.median(cpu_samples):.6g} s (CPU)",
            f"lines_per_s = {lines / sum(samples) if lines else 0:.6g} lines/s (wall)",
            f"doc_s.p50 and doc_cpu_s.p50 over {len(samples)} document runs; the "
            f"highest percentile with ten samples beyond it is "
            f"p{_supported_percentile(len(samples))}",
        ]
        metrics = {
            "setup_s": setup_s,
            "lines_per_cpu_s": lines / sum(cpu_samples) if lines else 0.0,
            "backend_calls_per_doc": calls / len(pool),
            "input_tokens_per_doc": tokens / len(pool),
            "term_recall": quality[0] / planted,
            "citation_precision": quality[2] / quality[1] if quality[1] else 0.0,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(E2E_METRICS)
    for metric, value in metrics.items():
        report.append(f"{metric} = {value:.6g} {units[metric]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, report


def _supported_percentile(n: int) -> int:
    """Largest whole percentile p with at least ten of n samples above it."""
    return max(0, int(100 * (n - 10) / n)) if n else 0
