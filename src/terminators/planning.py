"""Scenario-aware accountability planning.

For every term that survived verification, propose checks an ordinary user
could carry out to see whether the service honors the term. Plans are
conditioned on a user scenario, and optionally on a jurisdiction profile
that steers attention toward regional privacy obligations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property

from .backends import PLAN_CHECKS_KEY, Backend, BackendError
from .documents import SourceDocument, resolve_span
from .parsing import DEFAULT_WORKERS, map_ordered, run_request
from .prompts import build_planner_request
from .records import fingerprint
from .terms import SURVIVING_STATUSES, LifecycleError, Term, canonical_source_string

DEFAULT_MIN_CHECKS = 3
MAX_CHECK_CHARS = 500

# The plans are observational aids, not legal analysis; every serialized
# plan set carries this notice.
PLAN_DISCLAIMER = (
    "These checks describe what a user can observe. They are not a "
    "compliance determination or legal advice."
)


class JurisdictionId(enum.Enum):
    NONE = "none"
    GDPR = "gdpr"
    CCPA = "ccpa"


# The planner-prompt addendum for each jurisdiction that has one.
JURISDICTION_PROFILES: dict[JurisdictionId, str] = {
    JurisdictionId.GDPR: (
        "Weigh the data-protection obligations that apply to users in "
        "the European Union, such as consent to processing, access to "
        "one's personal data, erasure, and data portability. Prefer "
        "checks that let the user exercise or observe these rights."
    ),
    JurisdictionId.CCPA: (
        "Weigh the privacy rights of California consumers, such as "
        "notice at collection, opting out of the sale or sharing of "
        "personal information, and deletion requests. Prefer checks "
        "that let the user exercise or observe these rights."
    ),
}


@dataclass(frozen=True)
class Scenario:
    description: str
    jurisdiction: JurisdictionId = JurisdictionId.NONE

    def __post_init__(self):
        if not isinstance(self.description, str) or not self.description.strip():
            raise ValueError("scenario description must be a non-empty string")

    @cached_property
    def fingerprint(self) -> str:
        """Computed once per scenario: the dataclass is frozen, and each of
        its plans carries it."""
        return fingerprint(self)


@dataclass
class AccountabilityPlan:
    term_id: str
    statement: str = field(metadata={"key": "term"})
    checks: tuple[str, ...] = field(metadata={"key": PLAN_CHECKS_KEY})
    scenario_fingerprint: str
    jurisdiction_used: JurisdictionId
    warnings: tuple[str, ...] = ()


def _valid_checks(raw_checks: list, warnings: list[str]) -> list[str]:
    checks = []
    for i, check in enumerate(raw_checks):
        if not isinstance(check, str) or not check.strip():
            warnings.append(f"dropped empty check at index {i}")
            continue
        if len(check) > MAX_CHECK_CHARS:
            warnings.append(
                f"dropped over-long check at index {i} "
                f"({len(check)} > {MAX_CHECK_CHARS} chars)"
            )
            continue
        checks.append(check)
    return checks


def plan_term(
    term: Term,
    doc: SourceDocument,
    scenario: Scenario,
    backend: Backend,
    *,
    min_checks: int = DEFAULT_MIN_CHECKS,
) -> AccountabilityPlan:
    """Plan checks for one surviving term.

    A response with fewer than min_checks checks earns one follow-up request
    for more; whatever count results is returned, with a shortfall warning
    rather than an error, since check count is a backend behavior. A
    malformed follow-up answer only adds a warning; any other follow-up
    failure propagates like one of the first request. No usable check at
    all is a malformed answer: BackendError("malformed_output").
    """
    if term.status not in SURVIVING_STATUSES:
        raise LifecycleError(
            "lifecycle", f"term {term.term_id}: cannot plan for status "
            f"{term.status.value}; only verified_supported or resourced "
            "terms are eligible")
    passage = resolve_span(doc, term.source)
    req = build_planner_request(
        term.statement,
        canonical_source_string(term.source),
        passage,
        scenario.description,
        jurisdiction_addendum=JURISDICTION_PROFILES.get(scenario.jurisdiction),
        min_checks=min_checks,
    )
    resp = run_request(backend, req)

    warnings: list[str] = []
    checks = _valid_checks(resp.parsed[PLAN_CHECKS_KEY], warnings)
    if len(checks) < min_checks:
        followup = replace(
            req,
            user_prompt=(
                req.user_prompt
                + f"\n\nThat list is too short. Propose at least {min_checks} "
                "distinct checks."
            ),
        )
        try:
            retry = run_request(backend, followup)
            retry_checks = _valid_checks(retry.parsed[PLAN_CHECKS_KEY], warnings)
            if len(retry_checks) > len(checks):
                checks = retry_checks
        except BackendError as exc:
            if exc.kind != "malformed_output":
                raise
            warnings.append(f"follow-up request for more checks failed: {exc}")
        if len(checks) < min_checks:
            warnings.append(
                f"only {len(checks)} checks produced; wanted at least {min_checks}"
            )
    if not checks:
        raise BackendError("malformed_output", "backend produced no usable checks")
    return AccountabilityPlan(
        term_id=term.term_id,
        statement=term.statement,
        checks=tuple(checks),
        scenario_fingerprint=scenario.fingerprint,
        jurisdiction_used=scenario.jurisdiction,
        warnings=tuple(warnings),
    )


def plan_all(
    terms: list[Term],
    doc: SourceDocument,
    scenario: Scenario,
    backend: Backend,
    *,
    min_checks: int = DEFAULT_MIN_CHECKS,
    workers: int = DEFAULT_WORKERS,
    best_effort: bool = False,
) -> tuple[list[AccountabilityPlan], list[str]]:
    """Plans for every eligible term in input order, plus skip notices for
    the ineligible ones."""
    notices: list[str] = []
    eligible: list[Term] = []
    for term in terms:
        if term.status in SURVIVING_STATUSES:
            eligible.append(term)
        else:
            notices.append(
                f"term {term.term_id} skipped: status {term.status.value}"
            )

    def job(term: Term):
        try:
            return plan_term(
                term, doc, scenario, backend, min_checks=min_checks
            ), None
        except BackendError as exc:
            if not best_effort:
                raise
            return None, str(exc)

    plans: list[AccountabilityPlan] = []
    for term, (plan, error) in zip(eligible, map_ordered(job, eligible, workers)):
        if plan is None:
            notices.append(f"term {term.term_id} skipped: planning failed: {error}")
        else:
            plans.append(plan)
    return plans, notices
