"""End-to-end pipeline orchestration and run persistence.

A run is a directory of plain JSON files, one per phase, plus an append-only
event log. Every file except the event log is deterministic for a given
document, configuration, and backend script, so runs can be diffed and
golden-tested byte for byte; timestamps exist only in events.jsonl.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import zip_longest
from pathlib import Path

from .backends import (
    Backend,
    CachedBackend,
    append_line,
    json_dumps,
    json_text,
    read_json,
    write_atomic,
)
from .documents import IngestError, SourceDocument, TerminatorsError
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
)
from .records import fingerprint, from_json, record_text, to_json
from .remediation import (
    LABEL_STATUSES,
    RemediationOutcome,
    apply_outcome,
    remediate,
    shown_whole_document,
    advance,
)
from .terms import SURVIVING_STATUSES, Term, TermStatus
from .verification import (
    DEFAULT_LOW_OVERLAP_THRESHOLD,
    LABEL_SUPPORTED,
    VerificationResult,
    verify_all,
)

PHASES = ("ingested", "extracted", "verified", "remediated", "planned", "complete")

REPORT_AUDIT = "audit_json"
REPORT_PAPER = "paper_json"
REPORT_MARKDOWN = "markdown"
REPORT_FORMATS = (REPORT_AUDIT, REPORT_PAPER, REPORT_MARKDOWN)


class ResumeError(TerminatorsError):
    """A persisted run cannot be picked back up."""


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
    """Plain-file persistence for one run: atomic writes, and an event log
    whose lines are appended whole."""

    EVENTS = "events.jsonl"

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)

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
            return read_json(self.path(name), name)
        except FileNotFoundError:
            raise ValueError(f"{name}: no such file") from None

    def append_event(self, phase: str, event: str) -> None:
        append_line(self.path(self.EVENTS), json.dumps(
            {
                "ts": datetime.now(timezone.utc).isoformat(),
                "phase": phase,
                "event": event,
            },
            ensure_ascii=False,
        ))


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
    # id(term) -> (term, its text) for the terms last written: a term the
    # next phase leaves unchanged is not encoded again.
    term_texts: dict[int, tuple] = field(default_factory=dict, repr=False)

    @property
    def surviving_terms(self) -> list[Term]:
        return [t for t in self.terms if t.status in SURVIVING_STATUSES]

    @property
    def discarded_terms(self) -> list[Term]:
        return [t for t in self.terms if t.status is TermStatus.DISCARDED]


def compute_run_id(doc: SourceDocument, config: RunConfig) -> str:
    key = f"{doc.fingerprint}|{config.fingerprint}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]


def start_run(doc: SourceDocument, config: RunConfig, out_root) -> AuditRun:
    """The run of this document + config under out_root. The run id is
    content-derived, so the same inputs find the same directory: a run
    stored there comes back as resume takes it up (a complete one with no
    file written), and otherwise the document is stored and a run begins."""
    run_id = compute_run_id(doc, config)
    store = RunStore(Path(out_root) / run_id)
    if store.exists("run.json"):
        run = load_run(store.run_dir)
        if run.doc != doc:  # the id keys on the text, not name or numbering
            raise ResumeError("document_changed", f"{store.run_dir}: holds "
                              f"{run.doc.source_name} from line {run.doc.first_line}"
                              "; remove it or use another --out")
        return _reopen(run, config.workers)
    store.write_text("document.json", doc.to_json_text() + "\n")
    store.append_event("ingested", "document stored")
    return AuditRun(run_id, store, config, doc, phase="ingested")


# Each run field a phase record holds, and the record class of one stored
# entry (None: an entry is kept as it is stored).
_RECORD_FIELDS = {
    "terms": Term,
    "coverage": None,
    "warnings": None,
    "failures": None,
    "verifications": VerificationResult,
    "outcomes": RemediationOutcome,
    "plans": AccountabilityPlan,
    "notices": None,
}


def _field_text(run: AuditRun, key: str) -> str:
    """json_text of a run field."""
    value = getattr(run, key)
    if _RECORD_FIELDS[key] is None:
        return json_text(value)
    if key == "terms":
        entries = [run.term_texts.get(id(t)) or (t, record_text(t, "\n  "))
                   for t in value]
        run.term_texts = {id(t): (t, text) for t, text in entries}
        texts = [text for _, text in entries]
    else:
        texts = [record_text(r, "\n  ") for r in value]
    return "[\n  " + ",\n  ".join(texts) + "\n]" if texts else "[]"


def _record(run: AuditRun, *keys: str) -> dict[str, str]:
    """The named run fields as their JSON texts, in the order given."""
    return {key: _field_text(run, key) for key in keys}


def paper_json(terms: list[Term]) -> list[dict]:
    """The paper's three-field records (term, source, applicable_to): the
    first three keys of each term's record."""
    return [dict(list(to_json(t).items())[:3]) for t in terms]


def object_json(encoded: dict[str, str]) -> str:
    """json_dumps of the object whose values encoded holds as json_text
    texts. A value nested one level deeper is the same text with two spaces
    after every newline; JSON text has no raw newline inside a string."""
    items = (f"  {json.dumps(key, ensure_ascii=False)}: "
             + text.replace("\n", "\n  ")
             for key, text in encoded.items())
    return "{\n" + ",\n".join(items) + "\n}\n"


def extract_step(run: AuditRun, backend: Backend):
    """Extract the run's document into run.terms. This and the other steps
    return (the phase's record, as JSON texts by key, its event summary)."""
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
    return record, (f"{len(run.terms)} terms, "
                    f"{outcome.skipped_passes} replica passes skipped")


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
        advance(term, LABEL_STATUSES[result.label])
        for term, result in zip(run.terms, run.verifications)
    ]
    record = _record(run, "verifications", "terms")
    supported = sum(1 for v in run.verifications if v.label == LABEL_SUPPORTED)
    return record, f"{supported}/{len(run.verifications)} supported"


def remediate_step(run: AuditRun, backend: Backend):
    """Re-source or discard every term that run.verifications did not
    support. Only those terms are map_ordered's items."""
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
        )

    pairs = list(zip(run.terms, run.verifications, strict=True))
    resourced = iter(map_ordered(
        job, [p for p in pairs if p[1].label != LABEL_SUPPORTED], cfg.workers,
        (lambda pair, exc: exc.outcome) if cfg.best_effort else None))
    run.outcomes = [job(p) if p[1].label == LABEL_SUPPORTED else next(resourced)
                    for p in pairs]
    run.terms = [
        apply_outcome(term, outcome)
        for term, outcome in zip(run.terms, run.outcomes)
    ]
    record = _record(run, "outcomes", "terms")
    discarded = sum(1 for o in run.outcomes if o.action == "discarded")
    whole = sum(
        shown_whole_document(t, o, run.doc)
        for t, o in zip(run.terms, run.outcomes)
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
    record = {"disclaimer": json_text(PLAN_DISCLAIMER),
              **_record(run, "plans", "notices")}
    return record, f"{len(run.plans)} plans"


# (phase reached, artifact written, step), in pipeline order.
_STEPS = (
    ("extracted", "terms.json", extract_step),
    ("verified", "verifications.json", verify_step),
    ("remediated", "remediation.json", remediate_step),
    ("planned", "plans.json", plan_step),
)

# Each report file of a complete run, and its format.
_REPORT_FILES = {
    "report.audit.json": REPORT_AUDIT,
    "report.paper.json": REPORT_PAPER,
    "report.md": REPORT_MARKDOWN,
}


def _execute(run: AuditRun, backend: Backend) -> AuditRun:
    """Run every phase past run.phase, then the reports. run.json holds the
    run's identity and is written before the first phase only: progress is
    the phase files, each written whole."""
    if run.phase == "complete":
        return run
    run.store.write_json("run.json", {
        "run_id": run.run_id, "doc_name": run.doc.source_name,
        "doc_fingerprint": run.doc.fingerprint, "config": to_json(run.config)})
    for phase, artifact, step in _STEPS:
        if PHASES.index(run.phase) >= PHASES.index(phase):
            continue
        record, summary = step(run, backend)
        run.store.write_text(artifact, object_json(record))
        run.encoded.update(record)
        run.phase = phase
        run.store.append_event(phase, summary)
    for name, report_format in _REPORT_FILES.items():
        run.store.write_text(name, emit_report(run, report_format))
    run.phase = "complete"
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
    the run directory resumable at the last completed phase; running the
    same inputs again continues it (start_run)."""
    if cache_dir is not None:
        backend = CachedBackend(backend, cache_dir)
    run = start_run(doc, config, out_root)
    return _execute(run, backend)


def restore(run: AuditRun, record: dict) -> None:
    """Set the run state a phase record holds, as a step left it: each of
    the record's keys that names a run field (a stage file's "document" and
    a plans record's "disclaimer" do not). A missing key leaves its field as
    it is. Raises ValueError when the record does not decode, or when its
    verifications or outcomes do not name its terms one for one, in order."""
    if not isinstance(record, dict):
        raise ValueError("a phase record must be a JSON object")
    for key, cls in _RECORD_FIELDS.items():
        if key not in record:
            continue
        values = record[key]
        if not isinstance(values, list):
            raise ValueError(f"{key!r} must be a list")
        if cls is not None:
            try:
                values = [from_json(cls, r) for r in values]
            except ValueError as exc:
                raise ValueError(f"malformed {key!r} entry: {exc}") from exc
        setattr(run, key, values)
    for key in ("verifications", "outcomes"):
        if key in record and "terms" in record:
            pairs = zip_longest((r.term_id for r in getattr(run, key)),
                                (t.term_id for t in run.terms))
            index = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
            if index is not None:
                raise ValueError(
                    f"{key!r} do not pair with 'terms' at index {index}")


def load_run(run_dir) -> AuditRun:
    """Rehydrate a persisted run, restoring every stored phase in order.
    The phase reached is the last of the longest run of phase files present
    from the first, or complete once the reports are there too; run.json
    holds only the run's identity (an older one's "phase" is not read). A
    run directory whose files do not decode raises ResumeError."""
    store = RunStore(run_dir)
    if not store.exists("run.json"):
        raise ResumeError("missing_run", f"no run.json under {store.run_dir}")
    try:
        header = store.read_json("run.json")
        doc = SourceDocument.from_json(store.read_json("document.json"),
                                       store.path("document.json"))
        if header["doc_fingerprint"] != doc.fingerprint:
            raise ResumeError("document_changed", "run header fingerprint "
                              "does not match the stored document")
        run = AuditRun(
            run_id=header["run_id"],
            store=store,
            config=from_json(RunConfig, header["config"]),
            doc=doc,
            phase="ingested",
        )
        for phase, artifact, _ in _STEPS:
            if not store.exists(artifact):
                break
            restore(run, store.read_json(artifact))
            run.phase = phase
        if run.phase == "planned" and all(map(store.exists, _REPORT_FILES)):
            run.phase = "complete"
        run.encoded = _record(run, *_RECORD_FIELDS)
    except IngestError as exc:
        raise ResumeError(exc.kind, str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ResumeError(
            "malformed_run", f"{store.run_dir}: malformed run: {exc}"
        ) from exc
    return run


def _reopen(run: AuditRun, workers: int) -> AuditRun:
    """A stored run set to go on up to `workers` threads, which a run
    directory does not record; an incomplete one logs that it resumes."""
    run.config = replace(run.config, workers=workers)
    if run.phase != "complete":
        run.store.append_event(run.phase, "resumed")
    return run


def resume(
    run_dir,
    backend: Backend,
    *,
    workers: int = DEFAULT_WORKERS,
) -> AuditRun:
    """Continue a persisted run from its first incomplete phase on up to
    `workers` threads. Completed runs come back unchanged."""
    return _execute(_reopen(load_run(run_dir), workers), backend)


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
        return json_dumps(paper_json(surviving))

    if format == REPORT_AUDIT:
        # The phase records' sections as their files hold them (run.encoded).
        sections = run.encoded
        return object_json({
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
