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
import math
import os
import sys
from contextlib import suppress
from pathlib import Path

from .backends import (Backend, BackendError, CachedBackend, LiveBackend,
                       load_script, read_json, write_atomic)
from .chunking import ChunkMode, ChunkStrategy, DEFAULT_MAX_CHUNK_LINES
from .documents import FORMATS, IngestError, SourceDocument, TerminatorsError, ingest_path
from .parsing import DEFAULT_WORKERS, ExtractionConfig
from .pipeline import (
    _REPORT_FILES,
    REPORT_AUDIT,
    REPORT_FORMATS,
    AuditRun,
    RunConfig,
    emit_report,
    extract_step,
    json_dumps,
    load_run,
    object_json,
    paper_json,
    plan_step,
    remediate_step,
    restore,
    resume as resume_run,
    run_pipeline,
    verify_step,
)
from .planning import DEFAULT_MIN_CHECKS, JurisdictionId, Scenario
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
    parser.add_argument("--workers", type=_int_at_least(1),
                        default=DEFAULT_WORKERS, metavar="N")


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
    parser.add_argument("--max-chunk-lines", type=_int_at_least(1),
                        default=DEFAULT_MAX_CHUNK_LINES, metavar="N")
    parser.add_argument("--parallel-fanout", type=_int_at_least(2), default=2,
                        metavar="N")
    parser.add_argument("--provider-name", metavar="NAME",
                        help="service provider name, a known party label")
    parser.add_argument("--first-line", type=_int_at_least(1), default=1,
                        metavar="N",
                        help="number the first line N instead of 1")
    parser.add_argument("--doc-format", choices=FORMATS,
                        help="input format (default: by file extension)")


def _finite_float(text: str) -> float:
    """A --threshold value: a score compared with `<`, which NaN would
    never pass, and written to run files, where JSON has no NaN or
    infinity."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(minimum: int):
    """The argparse type of an integer flag whose values start at minimum,
    so that a value out of range is a usage error rather than a pipeline
    failure, or a value taken in silence."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, not {value}")
        return value
    return parse


def _add_verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=_finite_float,
                        default=DEFAULT_LOW_OVERLAP_THRESHOLD, metavar="X",
                        help="lexical score below which a term is flagged")
    parser.add_argument("--context-lines", type=_int_at_least(0), default=0,
                        metavar="N",
                        help="extra lines shown around the cited span")


def _add_remediate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-llm-resource", action="store_true",
                        help="propose replacement spans by lexical search only")


def _add_plan_flags(parser: argparse.ArgumentParser, *, required: bool) -> None:
    parser.add_argument("--scenario-file", metavar="PATH", required=required,
                        help="user scenario: JSON or plain text")
    parser.add_argument("--jurisdiction", choices=[j.value for j in JurisdictionId],
                        help="regional profile for the planner; none "
                             "overrides a scenario file's")
    parser.add_argument("--min-checks", type=_int_at_least(1),
                        default=DEFAULT_MIN_CHECKS, metavar="N")


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

    p = sub.add_parser("run", help="full pipeline into a run directory, "
                                   "continuing the run stored there")
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
        write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)


def _ingest_for(args, path: str) -> SourceDocument:
    return ingest_path(path, args.doc_format, first_line=args.first_line)


def _load_stage_file(path: str, needs: tuple[str, ...],
                     doc_file: str | None = None):
    """(embedded document, whole record) of an earlier verb's output, which
    must hold the keys in needs and a document that passes from_json's
    checks. With doc_file, the file on disk must ingest to it in some format."""
    data = read_json(path)
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
    doc = SourceDocument.from_json(data["document"], path)
    if doc_file is not None:
        for doc_format in FORMATS:
            with suppress(IngestError):  # a format it does not ingest under
                if ingest_path(doc_file, doc_format, first_line=doc.first_line
                               ).fingerprint == doc.fingerprint:
                    break
        else:
            on_disk = ingest_path(doc_file, first_line=doc.first_line)
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
    jurisdiction = None
    try:
        data = read_json(args.scenario_file)
    except json.JSONDecodeError as exc:
        data = exc.doc.strip()  # plain text
    if isinstance(data, dict):
        description = data.get("description", "")
        jurisdiction = data.get("jurisdiction")
        names = [j.value for j in JurisdictionId]
        if jurisdiction is not None and jurisdiction not in names:
            raise ValueError(
                f"{args.scenario_file}: jurisdiction must be one of "
                f"{', '.join(names)}, not {jurisdiction!r}"
            )
    elif isinstance(data, str):
        description = data
    else:
        raise ValueError(
            f"{args.scenario_file}: scenario JSON must be an object or string"
        )
    jurisdiction = JurisdictionId(args.jurisdiction or jurisdiction or "none")
    try:
        return Scenario(description, jurisdiction)
    except ValueError as exc:  # the description
        raise ValueError(f"{args.scenario_file}: {exc}") from None


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


def _run_stage(args, step, doc: SourceDocument, earlier=None):
    """Run one pipeline step over the state an earlier stage holds, given
    as (its file name, its record), exactly as `run` runs it. Returns (the
    state after the step, the stage file's text: the step's record with the
    document embedded)."""
    backend = _build_backend(args)
    # A stage has no run id, run directory or phase bookkeeping.
    run = AuditRun(run_id="", store=None, config=_run_config(args, backend),
                   doc=doc, phase="")
    if earlier is not None:
        try:
            restore(run, earlier[1])
        except ValueError as exc:
            raise ValueError(f"{earlier[0]}: {exc}") from None
    record, _ = step(run, backend)
    return run, object_json({"document": doc.to_json_text(), **record})


def _cmd_extract(args) -> int:
    run, stage = _run_stage(args, extract_step, _ingest_for(args, args.file))
    _emit(args, json_dumps(paper_json(run.terms)) if args.paper_format else stage)
    return EXIT_OK


# Each verb that reads an earlier verb's output: the argument naming that
# stage file, the keys it must hold, and the step it runs.
_STAGES = {
    "verify": ("terms_file", ("terms",), verify_step),
    "remediate": ("verified_file", ("terms", "verifications"), remediate_step),
    "plan": ("audit_file", ("terms",), plan_step),
}


def _cmd_stage(args) -> int:
    """A verb of _STAGES; the document on disk, for the verbs that take
    one, must be the one the stage file embeds."""
    stage_file, needs, step = _STAGES[args.verb]
    path = getattr(args, stage_file)
    doc, data = _load_stage_file(path, needs, getattr(args, "doc_file", None))
    _, stage = _run_stage(args, step, doc, (path, data))
    _emit(args, stage)
    return EXIT_OK


def _run_summary(run) -> str:
    lines = [
        f"run {run.run_id} ({run.phase})",
        f"  directory: {run.store.run_dir}",
        f"  terms extracted: {len(run.terms)}",
        f"  surviving: {len(run.surviving_terms)}",
        f"  discarded: {len(run.discarded_terms)}",
        f"  plans: {len(run.plans)}",
        f"  reports: {', '.join(_REPORT_FILES)}",
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
    **dict.fromkeys(_STAGES, _cmd_stage),
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
    except (TerminatorsError, ValueError, OSError) as exc:
        print(f"terminators: error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
