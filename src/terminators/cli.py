"""Command-line surface.

Verbs mirror the pipeline phases (extract, verify, remediate, plan), plus
run/resume/report for whole-pipeline driving. Stage outputs embed the
canonical line-numbered document so later verbs can both check that the
document on disk is unchanged and keep the original numbering.

Exit codes: 0 success, 1 usage error, 2 pipeline failure, 3 backend failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .backends import (Backend, BackendError, CachedBackend, LiveBackend,
                       load_script)
from .chunking import ChunkMode, ChunkStrategy, DEFAULT_MAX_CHUNK_LINES
from .documents import (
    FORMATS,
    IngestError,
    SourceDocument,
    SpanError,
    ingest_path,
)
from .parsing import DEFAULT_WORKERS, ExtractionConfig
from .pipeline import (
    REPORT_AUDIT,
    REPORT_FORMATS,
    AuditRun,
    ResumeError,
    RunConfig,
    emit_report,
    extract_step,
    json_dumps,
    load_run,
    plan_step,
    remediate_step,
    restore,
    resume as resume_run,
    run_pipeline,
    verify_step,
)
from .planning import DEFAULT_MIN_CHECKS, JurisdictionId, Scenario
from .terms import LifecycleError, SchemaError, term_to_json
from .verification import DEFAULT_LOW_OVERLAP_THRESHOLD

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PIPELINE = 2
EXIT_BACKEND = 3

CACHE_ENV = "TERMINATORS_CACHE"

_STRATEGY_MODES = {
    "whole": ChunkMode.WHOLE_DOCUMENT,
    "parallel": ChunkMode.PARALLEL_MERGE,
    "section": ChunkMode.SECTION_BY_SECTION,
    "paragraph": ChunkMode.PARAGRAPH,
}

DEFAULT_LIVE_MODEL = "gpt-4o"
DEFAULT_LIVE_ENDPOINT = "https://api.openai.com/v1/chat/completions"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for pipeline
    failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        metavar="SPEC",
        help="'live' or 'scripted:<script.json>'",
    )
    parser.add_argument("--model", default=DEFAULT_LIVE_MODEL,
                        help="model name for the live backend")
    parser.add_argument("--endpoint", default=DEFAULT_LIVE_ENDPOINT,
                        help="chat-completion URL for the live backend")
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=f"response cache directory (default: ${CACHE_ENV} if set)",
    )
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        metavar="N")


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH",
                        help="output path (default: stdout; for run: runs root)")


def _add_phase_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every verb that runs pipeline phases reads."""
    _add_backend_flags(parser)
    parser.add_argument("--best-effort", action="store_true",
                        help="record per-item failures and keep going")
    _add_out_flag(parser)


def _add_extraction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--aspect", action="append", dest="aspects", metavar="S",
                        help="restrict extraction to an aspect (repeatable)")
    parser.add_argument("--strategy", choices=sorted(_STRATEGY_MODES),
                        default="section")
    parser.add_argument("--max-chunk-lines", type=int,
                        default=DEFAULT_MAX_CHUNK_LINES, metavar="N")
    parser.add_argument("--parallel-fanout", type=int, default=2, metavar="N")
    parser.add_argument("--provider-name", metavar="NAME",
                        help="service provider name, for party labeling")
    parser.add_argument("--first-line", type=int, default=1, metavar="N",
                        help="number the first line N instead of 1")
    parser.add_argument("--doc-format", choices=FORMATS,
                        help="input format (default: by file extension)")


def _add_verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_LOW_OVERLAP_THRESHOLD, metavar="X",
                        help="lexical score below which a term is flagged")
    parser.add_argument("--context-lines", type=int, default=0, metavar="N",
                        help="extra lines shown around the cited span")


def _add_remediate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-llm-resource", action="store_true",
                        help="propose replacement spans by lexical search only")


def _add_plan_flags(parser: argparse.ArgumentParser, *, required: bool) -> None:
    parser.add_argument("--scenario-file", metavar="PATH", required=required,
                        help="user scenario: JSON or plain text")
    parser.add_argument("--jurisdiction", choices=["gdpr", "ccpa"],
                        help="regional profile for the planner")
    parser.add_argument("--min-checks", type=int, default=DEFAULT_MIN_CHECKS,
                        metavar="N")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="terminators",
        description=(
            "Parse a terms-of-service document into verified, "
            "source-anchored terms and scenario-aware accountability checks."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("extract", help="extract terms from a document")
    p.add_argument("file")
    _add_extraction_flags(p)
    p.add_argument("--paper-format", action="store_true",
                   help="emit only the three-field term records")
    _add_phase_flags(p)

    p = sub.add_parser("verify", help="verify terms against their citations")
    p.add_argument("terms_file")
    p.add_argument("doc_file")
    _add_verify_flags(p)
    _add_phase_flags(p)

    p = sub.add_parser("remediate",
                       help="re-source or discard non-supported terms")
    p.add_argument("verified_file",
                   help="verify output (terms + verifications)")
    p.add_argument("doc_file")
    _add_remediate_flags(p)
    _add_verify_flags(p)
    _add_phase_flags(p)

    p = sub.add_parser("plan", help="plan accountability checks")
    p.add_argument("audit_file", help="remediate (or verify) output")
    _add_plan_flags(p, required=True)
    _add_phase_flags(p)

    p = sub.add_parser("run", help="full pipeline into a run directory")
    p.add_argument("file")
    _add_extraction_flags(p)
    _add_verify_flags(p)
    _add_remediate_flags(p)
    _add_plan_flags(p, required=False)
    _add_phase_flags(p)

    p = sub.add_parser("resume", help="continue an interrupted run")
    p.add_argument("run_dir")
    _add_backend_flags(p)

    p = sub.add_parser("report", help="render a stored run")
    p.add_argument("run_dir")
    p.add_argument("--report-format", choices=REPORT_FORMATS,
                   default=REPORT_AUDIT)
    _add_out_flag(p)

    return parser


def _build_backend(args) -> Backend:
    """The backend the flags name, bound to the cache they name, if any."""
    spec = args.backend
    if not spec:
        raise BackendError(
            "config", "no backend configured; pass --backend live or "
                      "--backend scripted:<script.json>"
        )
    if spec == "live":
        backend = LiveBackend(args.model, args.endpoint)
    elif spec.startswith("scripted:"):
        path = spec[len("scripted:"):]
        if not path:
            raise BackendError("config", "scripted backend needs a script path")
        backend = load_script(path)
    else:
        raise BackendError("config", f"unknown backend spec {spec!r}")
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    return CachedBackend(backend, cache_dir) if cache_dir else backend


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _ingest_for(args, path: str) -> SourceDocument:
    return ingest_path(path, args.doc_format, first_line=args.first_line)


def _load_stage_file(path: str, needs: tuple[str, ...],
                     doc_file: str | None = None):
    """(embedded document, whole record) of an earlier verb's output, which
    must hold the keys in needs. With doc_file, the document on disk must
    match the embedded one."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict) or "document" not in data:
        raise ValueError(
            f"{path}: not a stage file (missing embedded document); "
            "pass the output of an earlier verb"
        )
    for key in needs:
        if key not in data:
            raise ValueError(
                f"{path}: no {key}; pass the output of an earlier verb "
                "that writes them"
            )
    try:
        doc = SourceDocument.from_json(data["document"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed embedded document: {exc!r}") from exc
    if doc_file is not None:
        on_disk = ingest_path(doc_file, first_line=doc.first_line)
        if on_disk.fingerprint != doc.fingerprint:
            raise ValueError(
                f"{doc_file} does not match the document the terms were "
                f"extracted from (fingerprint {on_disk.fingerprint[:12]} vs "
                f"{doc.fingerprint[:12]})"
            )
    return doc, data


def _extraction_config(args) -> ExtractionConfig:
    mode = _STRATEGY_MODES[args.strategy]
    strategy = ChunkStrategy(
        mode=mode,
        max_chunk_lines=args.max_chunk_lines,
        parallel_fanout=args.parallel_fanout if mode is ChunkMode.PARALLEL_MERGE else 1,
    )
    return ExtractionConfig(
        strategy=strategy,
        aspects=tuple(args.aspects) if args.aspects else None,
        provider_name=args.provider_name,
    )


def _load_scenario(args) -> Scenario | None:
    if not args.scenario_file:
        return None
    text = Path(args.scenario_file).read_text(encoding="utf-8")
    jurisdiction = None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        description = text.strip()
    except RecursionError:
        raise ValueError(
            f"{args.scenario_file}: scenario JSON nested too deeply"
        ) from None
    else:
        if isinstance(data, dict):
            description = data.get("description", "")
            jurisdiction = data.get("jurisdiction")
        elif isinstance(data, str):
            description = data
        else:
            raise ValueError(
                f"{args.scenario_file}: scenario JSON must be an object or string"
            )
    if args.jurisdiction:
        jurisdiction = args.jurisdiction
    return Scenario(
        description=description,
        jurisdiction=JurisdictionId(jurisdiction) if jurisdiction else JurisdictionId.NONE,
    )


def _run_config(args, backend: Backend) -> RunConfig:
    """The RunConfig a verb's flags describe. Settings for flags the verb
    does not register keep their defaults; no step it runs reads them."""
    flags = vars(args)
    settings = {
        name: flags[name]
        for name in ("threshold", "context_lines", "min_checks", "workers",
                     "best_effort")
        if name in flags
    }
    if "no_llm_resource" in flags:
        settings["use_llm_resource"] = not args.no_llm_resource
    if "scenario_file" in flags:
        settings["scenario"] = _load_scenario(args)
    extraction = (
        _extraction_config(args) if "strategy" in flags
        else ExtractionConfig(ChunkStrategy(ChunkMode.SECTION_BY_SECTION))
    )
    return RunConfig(
        extraction=extraction, backend_id=backend.backend_id, **settings
    )


def _run_stage(args, step, doc: SourceDocument, record: dict | None = None):
    """Run one pipeline step over the state an earlier stage's record
    holds, exactly as `run` runs it. Returns (the state after the step, the
    stage record: the step's record with the document embedded)."""
    backend = _build_backend(args)
    # A stage has no run id, run directory or phase bookkeeping.
    run = AuditRun(run_id="", store=None, config=_run_config(args, backend),
                   doc=doc, phase="")
    if record is not None:
        restore(run, record)
    record, _ = step(run, backend)
    return run, {"document": doc.to_json(), **record}


def _cmd_extract(args) -> int:
    run, stage = _run_stage(args, extract_step, _ingest_for(args, args.file))
    if args.paper_format:
        stage = [term_to_json(t, extended=False) for t in run.terms]
    _emit(args, json_dumps(stage))
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc, data = _load_stage_file(args.terms_file, ("terms",), args.doc_file)
    _, stage = _run_stage(args, verify_step, doc, data)
    _emit(args, json_dumps(stage))
    return EXIT_OK


def _cmd_remediate(args) -> int:
    doc, data = _load_stage_file(args.verified_file,
                                 ("terms", "verifications"), args.doc_file)
    _, stage = _run_stage(args, remediate_step, doc, data)
    _emit(args, json_dumps(stage))
    return EXIT_OK


def _cmd_plan(args) -> int:
    doc, data = _load_stage_file(args.audit_file, ("terms",))
    _, stage = _run_stage(args, plan_step, doc, data)
    _emit(args, json_dumps(stage))
    return EXIT_OK


def _run_summary(run) -> str:
    lines = [
        f"run {run.run_id} ({run.phase})",
        f"  directory: {run.store.run_dir}",
        f"  terms extracted: {len(run.terms)}",
        f"  surviving: {len(run.surviving_terms)}",
        f"  discarded: {len(run.discarded_terms)}",
        f"  plans: {len(run.plans)}",
        "  reports: report.audit.json, report.paper.json, report.md",
    ]
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    doc = _ingest_for(args, args.file)
    backend = _build_backend(args)
    run = run_pipeline(doc, _run_config(args, backend), backend,
                       args.out or "runs")
    sys.stdout.write(_run_summary(run))
    return EXIT_OK


def _cmd_resume(args) -> int:
    backend = _build_backend(args)
    run = resume_run(args.run_dir, backend, workers=args.workers)
    sys.stdout.write(_run_summary(run))
    return EXIT_OK


def _cmd_report(args) -> int:
    run = load_run(args.run_dir)
    _emit(args, emit_report(run, args.report_format))
    return EXIT_OK


_HANDLERS = {
    "extract": _cmd_extract,
    "verify": _cmd_verify,
    "remediate": _cmd_remediate,
    "plan": _cmd_plan,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.verb](args)
    except BackendError as exc:
        print(f"terminators: backend error ({exc.kind}): {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (
        IngestError,
        SpanError,
        SchemaError,
        LifecycleError,
        ResumeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"terminators: error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
