"""Accountability planning: canned checks, jurisdiction steering, gates."""

from __future__ import annotations

import json

import pytest

from helpers import (
    CANNED_CHECKS,
    STUDENT_SCENARIO,
    FailingFollowUp,
    response_text,
    scripted,
)
from terminators.backends import (
    PLAN_CHECKS_KEY,
    BackendError,
    ScriptEntry,
    ScriptedBackend,
)
from terminators.planning import (
    JURISDICTION_PROFILES,
    PLAN_DISCLAIMER,
    AccountabilityPlan,
    JurisdictionId,
    Scenario,
    plan_all,
    plan_from_json,
    plan_term,
    plan_to_json,
)
from terminators.records import from_json, to_json
from terminators.remediation import advance
from terminators.terms import LifecycleError, TermStatus, validate_term

STUDENT = Scenario(description=STUDENT_SCENARIO)


def listing3_term(excerpt_doc, index=0, status=TermStatus.VERIFIED_SUPPORTED):
    record = json.loads(response_text("listing3_terms.json"))[index]
    term = validate_term(record, excerpt_doc, warnings=[])
    if status is TermStatus.VERIFIED_SUPPORTED:
        return advance(term, status)
    if status is TermStatus.RESOURCED:
        return advance(advance(term, TermStatus.UNVERIFIABLE), status)
    if status is TermStatus.EXTRACTED:
        return term
    return advance(term, status)


def checks_payload(*checks) -> str:
    return json.dumps({PLAN_CHECKS_KEY: list(checks)})


class TestScenario:
    def test_description_required(self):
        with pytest.raises(ValueError):
            Scenario(description="   ")
        with pytest.raises(ValueError, match="string"):
            Scenario(description=5)

    def test_fingerprint_sensitivity(self):
        base = STUDENT.fingerprint
        assert Scenario(STUDENT_SCENARIO).fingerprint == base
        assert Scenario("different scenario").fingerprint != base
        assert (
            Scenario(STUDENT_SCENARIO, jurisdiction=JurisdictionId.GDPR).fingerprint
            != base
        )

    def test_json_round_trip(self):
        scenario = Scenario(STUDENT_SCENARIO, jurisdiction=JurisdictionId.CCPA)
        assert from_json(Scenario, to_json(scenario)) == scenario

    def test_jurisdiction_defaults_to_none(self):
        assert from_json(Scenario, {"description": "d"}).jurisdiction is (
            JurisdictionId.NONE
        )


class TestPlanTerm:
    def test_student_scenario_yields_expected_checks(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = scripted(("sole source of truth", "listing7_plan.json"))
        plan = plan_term(term, excerpt_doc, STUDENT, backend)
        assert plan.checks == CANNED_CHECKS
        assert len(plan.checks) == 5
        assert plan.scenario_fingerprint == STUDENT.fingerprint
        assert plan.jurisdiction_used is JurisdictionId.NONE
        assert plan.warnings == ()

    def test_plan_json_uses_agreed_key(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = scripted(("sole source of truth", "listing7_plan.json"))
        plan = plan_term(term, excerpt_doc, STUDENT, backend)
        record = plan_to_json(plan, statement=term.statement)
        assert record["possible_accountability_checks"] == list(CANNED_CHECKS)
        assert record["term"] == term.statement
        assert plan_from_json(record) == plan

    def test_prompt_carries_scenario_and_passage(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        prompts = []

        class Spy(ScriptedBackend):
            def generate(self, request):
                prompts.append(request.user_prompt)
                return super().generate(request)

        backend = Spy(
            [ScriptEntry("sole source of truth", response_text("listing7_plan.json"))]
        )
        plan_term(term, excerpt_doc, STUDENT, backend)
        prompt = prompts[0]
        assert STUDENT_SCENARIO in prompt
        assert "OpenAI_ToS.txt:108-109" in prompt
        assert "source of truth or factual information" in prompt, (
            "passage text included"
        )
        assert "Propose at least 3 distinct checks." in prompt

    @pytest.mark.parametrize(
        "status",
        [
            TermStatus.EXTRACTED,
            TermStatus.CONTRADICTED,
            TermStatus.UNVERIFIABLE,
        ],
    )
    def test_unplannable_statuses_refused(self, excerpt_doc, status):
        term = listing3_term(excerpt_doc, status=status)
        with pytest.raises(LifecycleError, match="cannot plan"):
            plan_term(term, excerpt_doc, STUDENT, ScriptedBackend([]))

    def test_resourced_terms_are_plannable(self, excerpt_doc):
        term = listing3_term(excerpt_doc, status=TermStatus.RESOURCED)
        backend = scripted(("sole source of truth", "listing7_plan.json"))
        plan = plan_term(term, excerpt_doc, STUDENT, backend)
        assert len(plan.checks) == 5


class TestJurisdiction:
    def test_profiles_present(self):
        assert "European Union" in JURISDICTION_PROFILES[JurisdictionId.GDPR]
        assert "California" in JURISDICTION_PROFILES[JurisdictionId.CCPA]
        assert JurisdictionId.NONE not in JURISDICTION_PROFILES

    def test_gdpr_scenario_steers_the_plan(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        scenario = Scenario(
            STUDENT_SCENARIO, jurisdiction=JurisdictionId.GDPR
        )
        backend = scripted(
            ("European Union", "plan_gdpr.json"),
            ("sole source of truth", "listing7_plan.json"),
        )
        plan = plan_term(term, excerpt_doc, scenario, backend)
        assert plan.jurisdiction_used is JurisdictionId.GDPR
        assert plan.checks != CANNED_CHECKS
        assert any("personal data" in c or "erasure" in c for c in plan.checks)

    def test_no_jurisdiction_means_no_addendum(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        prompts = []

        class Spy(ScriptedBackend):
            def generate(self, request):
                prompts.append(request.user_prompt)
                return super().generate(request)

        backend = Spy(
            [ScriptEntry("sole source of truth", response_text("listing7_plan.json"))]
        )
        plan_term(term, excerpt_doc, STUDENT, backend)
        assert "Regional emphasis" not in prompts[0]


class TestShortfall:
    def test_follow_up_recovers_enough_checks(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = scripted(
            ("That list is too short", "listing7_plan.json"),
            ("sole source of truth", "plan_short.json"),
        )
        plan = plan_term(term, excerpt_doc, STUDENT, backend)
        assert plan.checks == CANNED_CHECKS
        assert plan.warnings == ()
        assert len(backend.calls) == 2

    def test_persistent_shortfall_warns(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = scripted(("sole source of truth", "plan_short.json"))
        plan = plan_term(term, excerpt_doc, STUDENT, backend)
        assert len(plan.checks) == 2
        assert any(
            "only 2 checks produced; wanted at least 3" in w
            for w in plan.warnings
        )

    def test_malformed_follow_up_only_warns(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = ScriptedBackend([
            ScriptEntry("That list is too short", "more checks? no"),
            ScriptEntry("sole source of truth", response_text("plan_short.json")),
        ])
        plan = plan_term(term, excerpt_doc, STUDENT, backend)
        assert len(plan.checks) == 2
        assert any(
            "follow-up request for more checks failed" in w
            for w in plan.warnings
        )

    @pytest.mark.parametrize(
        "kind", ["transient", "auth", "request", "unmatched"]
    )
    def test_other_follow_up_failures_propagate(self, excerpt_doc, kind):
        term = listing3_term(excerpt_doc)
        backend = FailingFollowUp(
            scripted(("sole source of truth", "plan_short.json")), kind
        )
        with pytest.raises(BackendError) as exc:
            plan_term(term, excerpt_doc, STUDENT, backend)
        assert exc.value.kind == kind

    def test_best_effort_turns_a_failed_follow_up_into_a_notice(
        self, excerpt_doc
    ):
        term = listing3_term(excerpt_doc)
        backend = FailingFollowUp(
            scripted(("sole source of truth", "plan_short.json"))
        )
        plans, notices = plan_all([term], excerpt_doc, STUDENT, backend,
                                  best_effort=True)
        assert plans == []
        assert notices == [
            f"term {term.term_id} skipped: planning failed: "
            "the follow-up request failed"
        ]

    def test_min_checks_is_configurable(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = scripted(("sole source of truth", "plan_short.json"))
        plan = plan_term(term, excerpt_doc, STUDENT, backend, min_checks=2)
        assert plan.warnings == ()
        assert len(backend.calls) == 1


class TestCheckFiltering:
    def test_junk_checks_dropped_with_warnings(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = ScriptedBackend(
            [
                ScriptEntry(
                    "sole source of truth",
                    checks_payload(
                        "",
                        "Compare the service's answer with a textbook.",
                        "Ask the same question twice and compare.",
                        "x" * 600,
                        "Look for an accuracy disclaimer in the interface.",
                    ),
                )
            ]
        )
        plan = plan_term(term, excerpt_doc, STUDENT, backend)
        assert len(plan.checks) == 3
        assert any("empty check at index 0" in w for w in plan.warnings)
        assert any("over-long check at index 3" in w for w in plan.warnings)

    def test_no_usable_checks_is_an_error(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = ScriptedBackend(
            [ScriptEntry("sole source of truth", checks_payload())]
        )
        with pytest.raises(BackendError, match="no usable checks") as exc:
            plan_term(term, excerpt_doc, STUDENT, backend)
        assert exc.value.kind == "malformed_output"

    def test_malformed_output_is_a_backend_error(self, excerpt_doc):
        term = listing3_term(excerpt_doc)
        backend = ScriptedBackend(
            [ScriptEntry("sole source of truth", "checks? sure, lots of them")]
        )
        with pytest.raises(BackendError) as exc:
            plan_term(term, excerpt_doc, STUDENT, backend)
        assert exc.value.kind == "malformed_output"


class TestPlanAll:
    def mixed_terms(self, excerpt_doc):
        return [
            listing3_term(excerpt_doc, 0, TermStatus.VERIFIED_SUPPORTED),
            listing3_term(excerpt_doc, 1, TermStatus.CONTRADICTED),
            listing3_term(excerpt_doc, 1, TermStatus.RESOURCED),
        ]

    def test_ineligible_terms_get_notices(self, excerpt_doc):
        terms = self.mixed_terms(excerpt_doc)
        backend = scripted(
            ("sole source of truth", "listing7_plan.json"),
            ("legal or material impact", "plan_impact.json"),
        )
        plans, notices = plan_all(terms, excerpt_doc, STUDENT, backend)
        assert [p.term_id for p in plans] == [
            terms[0].term_id,
            terms[2].term_id,
        ]
        assert notices == [
            f"term {terms[1].term_id} skipped: status contradicted"
        ]

    def test_best_effort_records_planning_failures(self, excerpt_doc):
        terms = [listing3_term(excerpt_doc)]
        plans, notices = plan_all(
            terms, excerpt_doc, STUDENT, ScriptedBackend([]), best_effort=True
        )
        assert plans == []
        assert len(notices) == 1
        assert "planning failed" in notices[0]

    def test_strict_mode_raises(self, excerpt_doc):
        terms = [listing3_term(excerpt_doc)]
        with pytest.raises(BackendError):
            plan_all(terms, excerpt_doc, STUDENT, ScriptedBackend([]))

    def test_empty_terms(self, excerpt_doc):
        plans, notices = plan_all([], excerpt_doc, STUDENT, ScriptedBackend([]))
        assert plans == []
        assert notices == []


class TestDisclaimer:
    def test_wording_is_pinned(self):
        assert PLAN_DISCLAIMER == (
            "These checks describe what a user can observe. They are not a "
            "compliance determination or legal advice."
        )

    def test_round_trip_defaults_warnings(self):
        plan = AccountabilityPlan(
            term_id="t",
            checks=("check one", "check two"),
            scenario_fingerprint="ab" * 6,
            jurisdiction_used=JurisdictionId.GDPR,
        )
        record = plan_to_json(plan)
        del record["warnings"]
        assert plan_from_json(record) == plan
