"""Turn a verbose terms-of-service document into verified, source-anchored
terms and scenario-aware accountability checks."""

from .backends import (
    BackendError,
    BackendRequest,
    BackendResponse,
    CachedBackend,
    LiveBackend,
    ScriptedBackend,
    ScriptEntry,
    cached_complete,
    complete,
    extract_structured_value,
    load_script,
)
from .chunking import Chunk, ChunkMode, ChunkStrategy, chunk, detect_headings
from .documents import (
    IngestError,
    SourceDocument,
    SourceRef,
    SpanError,
    TerminatorsError,
    ingest,
    ingest_path,
    render_numbered,
    resolve_span,
)
from .parsing import (
    ExtractionConfig,
    ExtractionOutcome,
    extract_chunk,
    extract_document,
)
from .pipeline import (
    AuditRun,
    ResumeError,
    RunConfig,
    emit_report,
    load_run,
    resume,
    run_pipeline,
)
from .planning import (
    AccountabilityPlan,
    JurisdictionId,
    Scenario,
    plan_all,
    plan_term,
)
from .remediation import (
    RemediationOutcome,
    advance,
    apply_outcome,
    find_best_window,
    remediate,
    resource_term,
)
from .terms import (
    LifecycleError,
    SchemaError,
    Term,
    TermStatus,
    dedupe_terms,
    validate_term,
)
from .verification import (
    VerificationResult,
    lexical_support_score,
    verify_all,
    verify_term,
)

__version__ = "0.1.0"
