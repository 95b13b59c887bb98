"""End-to-end pipeline orchestration and run persistence.

A run is a directory of plain JSON files, one per phase, plus an append-only
event log. Every file except the event log is deterministic for a given
document, configuration, and backend script, so runs can be diffed and
golden-tested byte for byte; timestamps exist only in events.jsonl.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from .backends import (
    Backend,
    CachedBackend,
    json_dumps,
    json_text,
    write_atomic,
)
from .documents import SourceDocument, fingerprint_text
from .parsing import (
    DEFAULT_WORKERS,
    ExtractionConfig,
    extract_document,
    map_ordered,
)
from .planning import (
    DEFAULT_MIN_CHECKS,
    PLAN_DISCLAIMER,
    AccountabilityPlan,
    Scenario,
    plan_all,
    plan_from_json,
    plan_to_json,
)
from .records import fingerprint, from_json, to_json
from .remediation import (
    RemediationOutcome,
    apply_outcome,
    remediate,
    shown_whole_document,
    status_for_label,
    advance,
)
from .terms import (
    SURVIVING_STATUSES,
    SchemaError,
    Term,
    TermStatus,
    term_from_json,
    term_to_json,
)
from .verification import (
    DEFAULT_LOW_OVERLAP_THRESHOLD,
    VerificationResult,
    verify_all,
)

PHASES = ("ingested", "extracted", "verified", "remediated", "planned", "complete")

REPORT_AUDIT = "audit_json"
REPORT_PAPER = "paper_json"
REPORT_MARKDOWN = "markdown"
REPORT_FORMATS = (REPORT_AUDIT, REPORT_PAPER, REPORT_MARKDOWN)


class ResumeError(Exception):
    """A persisted run cannot be picked back up."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """The settings that can change a run's output, which are its identity,
    plus workers, which only sets concurrency: it is not compared, hashed
    into the run id or stored."""

    extraction: ExtractionConfig
    threshold: float = DEFAULT_LOW_OVERLAP_THRESHOLD
    context_lines: int = 0
    use_llm_resource: bool = True
    min_checks: int = DEFAULT_MIN_CHECKS
    workers: int = field(default=DEFAULT_WORKERS, compare=False)
    best_effort: bool = False
    backend_id: str = "scripted"
    scenario: Scenario | None = None

    @property
    def fingerprint(self) -> str:
        return fingerprint(self)


class RunStore:
    """Plain-file persistence for one run, with atomic writes and a
    serialized event-log writer."""

    EVENTS = "events.jsonl"

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self._lock = threading.Lock()

    def path(self, name: str) -> Path:
        return self.run_dir / name

    def exists(self, name: str) -> bool:
        return self.path(name).exists()

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json_dumps(obj))

    def write_text(self, name: str, text: str) -> None:
        write_atomic(self.path(name), text)

    def read_json(self, name: str):
        try:
            return json.loads(self.path(name).read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError(f"{name}: JSON nested too deeply") from None

    def reset_events(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path(self.EVENTS).write_text("", encoding="utf-8")

    def append_event(self, phase: str, event: str) -> None:
        line = json.dumps(
            {
                "ts": datetime.now(timezone.utc).isoformat(),
                "phase": phase,
                "event": event,
            },
            ensure_ascii=False,
        )
        with self._lock:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            with open(self.path(self.EVENTS), "a", encoding="utf-8") as fh:
                fh.write(line + "\n")


@dataclass
class AuditRun:
    run_id: str
    store: RunStore
    config: RunConfig
    doc: SourceDocument
    phase: str
    terms: list[Term] = field(default_factory=list)
    coverage: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    verifications: list[VerificationResult] = field(default_factory=list)
    outcomes: list[RemediationOutcome] = field(default_factory=list)
    plans: list[AccountabilityPlan] = field(default_factory=list)
    notices: list[str] = field(default_factory=list)
    # Each phase-record field's latest JSON text (json_text), which the audit
    # report reuses: set from the run's state when it is loaded, and by
    # _execute as each phase record is written.
    encoded: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def surviving_terms(self) -> list[Term]:
        return [t for t in self.terms if t.status in SURVIVING_STATUSES]

    @property
    def discarded_terms(self) -> list[Term]:
        return [t for t in self.terms if t.status is TermStatus.DISCARDED]


def compute_run_id(doc: SourceDocument, config: RunConfig) -> str:
    key = f"{doc.fingerprint}|{config.fingerprint}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]


def _save_run_header(run: AuditRun) -> None:
    run.store.write_json(
        "run.json",
        {
            "run_id": run.run_id,
            "phase": run.phase,
            "doc_name": run.doc.source_name,
            "doc_fingerprint": run.doc.fingerprint,
            "config": to_json(run.config),
        },
    )


def start_run(doc: SourceDocument, config: RunConfig, out_root) -> AuditRun:
    """Create (or recreate) the run directory for this document + config.

    The run id is content-derived, so running the same inputs again rewrites
    the same directory rather than accumulating copies.
    """
    run_id = compute_run_id(doc, config)
    store = RunStore(Path(out_root) / run_id)
    run = AuditRun(
        run_id=run_id, store=store, config=config, doc=doc, phase="ingested"
    )
    store.reset_events()
    store.write_json("document.json", doc.to_json())
    _save_run_header(run)
    store.append_event("ingested", "document stored")
    return run


def _plans_json(run: AuditRun) -> list[dict]:
    statements = {t.term_id: t.statement for t in run.terms}
    return [plan_to_json(p, statement=statements.get(p.term_id))
            for p in run.plans]


# The JSON form of each run field a phase record holds; restore() decodes
# the same keys.
_RECORD_FIELDS = {
    "terms": lambda run: [term_to_json(t) for t in run.terms],
    "coverage": lambda run: run.coverage,
    "warnings": lambda run: run.warnings,
    "failures": lambda run: run.failures,
    "verifications": lambda run: to_json(run.verifications),
    "outcomes": lambda run: to_json(run.outcomes),
    "plans": _plans_json,
    "notices": lambda run: run.notices,
}


def _record(run: AuditRun, *keys: str) -> dict:
    """The named run fields in their JSON form, in the order given."""
    return {key: _RECORD_FIELDS[key](run) for key in keys}


def _object_json(encoded: dict[str, str]) -> str:
    """json_dumps of the object whose values encoded holds as json_text
    texts. A value nested one level deeper is the same text with two spaces
    after every newline; JSON text has no raw newline inside a string."""
    items = (f"  {json.dumps(key, ensure_ascii=False)}: "
             + text.replace("\n", "\n  ")
             for key, text in encoded.items())
    return "{\n" + ",\n".join(items) + "\n}\n"


def extract_step(run: AuditRun, backend: Backend):
    """Extract the run's document into run.terms. This and the other steps
    return (the phase's record, its event summary)."""
    cfg = run.config
    outcome = extract_document(
        run.doc,
        cfg.extraction,
        backend,
        workers=cfg.workers,
        best_effort=cfg.best_effort,
    )
    run.terms = outcome.terms
    run.coverage = outcome.coverage
    run.warnings = outcome.warnings
    run.failures = outcome.failures
    record = _record(run, "terms", "coverage", "warnings", "failures")
    return record, f"{len(run.terms)} terms"


def verify_step(run: AuditRun, backend: Backend):
    """Verify run.terms and advance each term by its label."""
    cfg = run.config
    run.verifications = verify_all(
        run.terms,
        run.doc,
        backend,
        threshold=cfg.threshold,
        context_lines=cfg.context_lines,
        workers=cfg.workers,
        best_effort=cfg.best_effort,
    )
    run.terms = [
        advance(term, status_for_label(result.label))
        for term, result in zip(run.terms, run.verifications)
    ]
    record = _record(run, "verifications", "terms")
    supported = sum(1 for v in run.verifications if v.label == "Supported")
    return record, f"{supported}/{len(run.verifications)} supported"


def remediate_step(run: AuditRun, backend: Backend):
    """Re-source or discard every term that run.verifications did not
    support."""
    cfg = run.config

    def job(pair):
        term, result = pair
        return remediate(
            term,
            result,
            run.doc,
            backend,
            use_llm_resource=cfg.use_llm_resource,
            threshold=cfg.threshold,
            context_lines=cfg.context_lines,
            best_effort=cfg.best_effort,
        )

    run.outcomes = map_ordered(
        job, zip(run.terms, run.verifications, strict=True), cfg.workers
    )
    run.terms = [
        apply_outcome(term, outcome)
        for term, outcome in zip(run.terms, run.outcomes)
    ]
    record = _record(run, "outcomes", "terms")
    discarded = sum(1 for o in run.outcomes if o.action == "discarded")
    whole = sum(
        shown_whole_document(o, run.doc) for o in run.outcomes
    ) if cfg.use_llm_resource else 0
    return record, f"{discarded} discarded, {whole} shown the whole document"


def plan_step(run: AuditRun, backend: Backend):
    """Plan checks for the surviving run.terms under the configured
    scenario; without one, planning is skipped with a notice."""
    cfg = run.config
    if cfg.scenario is None:
        run.plans = []
        run.notices = ["no scenario provided; planning skipped"]
    else:
        run.plans, run.notices = plan_all(
            run.terms,
            run.doc,
            cfg.scenario,
            backend,
            min_checks=cfg.min_checks,
            workers=cfg.workers,
            best_effort=cfg.best_effort,
        )
    record = {"disclaimer": PLAN_DISCLAIMER, **_record(run, "plans", "notices")}
    return record, f"{len(run.plans)} plans"


# (phase reached, artifact written, step), in pipeline order.
_STEPS = (
    ("extracted", "terms.json", extract_step),
    ("verified", "verifications.json", verify_step),
    ("remediated", "remediation.json", remediate_step),
    ("planned", "plans.json", plan_step),
)


def _execute(run: AuditRun, backend: Backend) -> AuditRun:
    for phase, artifact, step in _STEPS:
        if PHASES.index(run.phase) >= PHASES.index(phase):
            continue
        record, summary = step(run, backend)
        encoded = {key: json_text(value) for key, value in record.items()}
        run.store.write_text(artifact, _object_json(encoded))
        run.encoded.update(encoded)
        run.phase = phase
        _save_run_header(run)
        run.store.append_event(phase, summary)
    if run.phase == "planned":
        run.store.write_text("report.audit.json", emit_report(run, REPORT_AUDIT))
        run.store.write_text("report.paper.json", emit_report(run, REPORT_PAPER))
        run.store.write_text("report.md", emit_report(run, REPORT_MARKDOWN))
        run.phase = "complete"
        _save_run_header(run)
        run.store.append_event("complete", "reports written")
    return run


def run_pipeline(
    doc: SourceDocument,
    config: RunConfig,
    backend: Backend,
    out_root,
    *,
    cache_dir=None,
) -> AuditRun:
    """Execute every phase over an ingested document, persisting as it goes,
    with responses cached under cache_dir if given. A phase failure leaves
    the run directory resumable at the last completed phase."""
    if cache_dir is not None:
        backend = CachedBackend(backend, cache_dir)
    run = start_run(doc, config, out_root)
    return _execute(run, backend)


def restore(run: AuditRun, record: dict) -> None:
    """Set the run state a phase record holds, as a step left it: each of
    the record's keys that names a run field (a stage file's "document" and
    a plans record's "disclaimer" do not). A missing key leaves its field as
    it is. Raises ValueError when the record does not decode."""
    provider = run.config.extraction.provider_name
    decoders = {
        "terms": lambda r: term_from_json(r, provider_name=provider),
        "coverage": None,
        "warnings": None,
        "failures": None,
        "verifications": lambda r: from_json(VerificationResult, r),
        "outcomes": lambda r: from_json(RemediationOutcome, r),
        "plans": plan_from_json,
        "notices": None,
    }
    if not isinstance(record, dict):
        raise ValueError("a phase record must be a JSON object")
    for key, decode in decoders.items():
        if key not in record:
            continue
        values = record[key]
        if not isinstance(values, list):
            raise ValueError(f"{key!r} must be a list")
        if decode is not None:
            try:
                values = [decode(r) for r in values]
            except (KeyError, TypeError, AttributeError, SchemaError) as exc:
                raise ValueError(f"malformed {key!r} entry: {exc!r}") from exc
        setattr(run, key, values)


def load_run(run_dir) -> AuditRun:
    """Rehydrate a persisted run, restoring every stored phase in order.
    A run directory whose files do not decode raises ResumeError."""
    store = RunStore(run_dir)
    if not store.exists("run.json"):
        raise ResumeError("missing_run", f"no run.json under {store.run_dir}")
    try:
        header = store.read_json("run.json")
        doc = SourceDocument.from_json(store.read_json("document.json"))
        if fingerprint_text(doc.text()) != doc.fingerprint:
            raise ResumeError(
                "document_changed",
                f"stored document under {store.run_dir} no longer matches its "
                "fingerprint",
            )
        if header["doc_fingerprint"] != doc.fingerprint:
            raise ResumeError(
                "document_changed",
                "run header fingerprint does not match the stored document",
            )
        run = AuditRun(
            run_id=header["run_id"],
            store=store,
            config=from_json(RunConfig, header["config"]),
            doc=doc,
            phase=header["phase"],
        )
        reached = PHASES.index(run.phase)
        for phase, artifact, _ in _STEPS:
            if PHASES.index(phase) <= reached:
                restore(run, store.read_json(artifact))
        run.encoded = {key: json_text(value) for key, value
                       in _record(run, *_RECORD_FIELDS).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ResumeError(
            "malformed_run", f"{store.run_dir}: malformed run: {exc}"
        ) from exc
    return run


def resume(
    run_dir,
    backend: Backend,
    *,
    workers: int = DEFAULT_WORKERS,
) -> AuditRun:
    """Continue a persisted run from its first incomplete phase on up to
    `workers` threads (a run directory does not record its concurrency).
    Completed runs come back unchanged."""
    run = load_run(run_dir)
    if run.phase == "complete":
        return run
    run.config = replace(run.config, workers=workers)
    run.store.append_event(run.phase, "resumed")
    return _execute(run, backend)


def emit_report(run: AuditRun, format: str) -> str:
    """Render a persisted run. audit_json is the full lifecycle record,
    paper_json is the compact three-field array of surviving terms, and
    markdown is a human summary. audit_json takes the sections it shares
    with the phase files from run.encoded, as run_pipeline, resume and
    load_run leave it."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    if PHASES.index(run.phase) < PHASES.index("extracted"):
        raise ValueError("run has no extracted terms to report yet")

    surviving = run.surviving_terms
    discarded = run.discarded_terms

    if format == REPORT_PAPER:
        return json_dumps([term_to_json(t, extended=False) for t in surviving])

    if format == REPORT_AUDIT:
        # The phase records' sections as their files hold them (run.encoded).
        sections = run.encoded
        return _object_json({
            "run_id": json_text(run.run_id),
            "document": json_text({
                "source_name": run.doc.source_name,
                "fingerprint": run.doc.fingerprint,
                "first_line": run.doc.first_line,
                "last_line": run.doc.last_line,
            }),
            "config": json_text(to_json(run.config)),
            "counts": json_text({
                "extracted": len(run.terms),
                "surviving": len(surviving),
                "discarded": len(discarded),
            }),
            "terms": sections["terms"],
            "verifications": sections["verifications"],
            "remediation": sections["outcomes"],
            "plans": sections["plans"],
            "coverage": sections["coverage"],
            "warnings": sections["warnings"],
            "failures": sections["failures"],
            "notices": sections["notices"],
            "disclaimer": json_text(PLAN_DISCLAIMER),
        })

    checks_by_term = {p.term_id: len(p.checks) for p in run.plans}

    def cell(text: str) -> str:
        return text.replace("|", "\\|")

    lines = [
        f"# Accountability audit: {run.doc.source_name}",
        "",
        f"Run `{run.run_id}` over `{run.doc.source_name}` "
        f"(fingerprint `{run.doc.fingerprint[:12]}`). "
        f"{len(run.terms)} terms extracted, {len(surviving)} surviving, "
        f"{len(discarded)} discarded.",
        "",
        "## Surviving terms",
        "",
        "| Term | Status | Checks |",
        "| --- | --- | --- |",
    ]
    for term in surviving:
        lines.append(
            f"| {cell(term.statement)} | {term.status.value} "
            f"| {checks_by_term.get(term.term_id, 0)} |"
        )
    lines.extend(["", "## Discarded terms", ""])
    if discarded:
        lines.extend(["| Term | Label |", "| --- | --- |"])
        labels = {v.term_id: v.label for v in run.verifications}
        for term in discarded:
            lines.append(f"| {cell(term.statement)} | {labels.get(term.term_id, '')} |")
    else:
        lines.append("None.")
    lines.extend(["", f"> {PLAN_DISCLAIMER}", ""])
    return "\n".join(lines)
