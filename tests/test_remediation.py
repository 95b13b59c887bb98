"""Remediation: re-sourcing, the proposal trail, and lifecycle enforcement."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    EXCERPT_NAME,
    MISMATCH_CITED_LINE,
    MISMATCH_STATEMENT,
    RAW_NAME,
    SCRIPTS,
    LineTextBackend,
    RecordingBackend,
    cite_the_statement,
    ingest_doc_text,
    ingest_excerpt,
    random_document,
    random_statement,
    response_text,
    scripted,
    shown_lines,
)
from terminators import remediation
from terminators.backends import (
    FORMAT_REMINDERS,
    SCHEMA_TERM_LIST,
    BackendError,
    ScriptEntry,
    ScriptedBackend,
    load_script,
)
from terminators.chunking import ChunkMode, ChunkStrategy
from terminators.documents import (
    SourceDocument,
    SourceRef,
    ingest,
    render_numbered,
    resolve_span,
)
from terminators.parsing import ExtractionConfig, extract_document
from terminators.pipeline import AuditRun, RunConfig, remediate_step, run_pipeline
from terminators.prompts import RESOURCE_ROLE, build_resource_request
from terminators.records import from_json, to_json
from terminators.remediation import (
    ACTION_DISCARDED,
    ACTION_KEPT,
    ACTION_RESOURCED,
    LABEL_STATUSES,
    TRANSITIONS,
    RemediationOutcome,
    TrailEntry,
    advance,
    apply_outcome,
    find_best_window,
    remediate,
    resource_term,
)
from terminators.terms import (
    LifecycleError,
    Term,
    TermStatus,
    validate_term,
)
from terminators.verification import (
    LABEL_SUPPORTED,
    LABEL_UNVERIFIABLE,
    VerificationResult,
    _stopwords,
    lexical_support_score,
    verify_term,
)


def exhaustive_best_window(statement, doc, cap):
    """The reference search: score every window's text from scratch."""
    candidates = []
    for start in range(doc.first_line, doc.last_line + 1):
        for end in range(start, min(start + cap, doc.last_line + 1)):
            ref = SourceRef(doc.source_name, start, end)
            score = lexical_support_score(statement, resolve_span(doc, ref))
            candidates.append((-score, start, end - start, ref))
    return min(candidates)[3]


def mismatch_term(raw_doc):
    return validate_term(
        {
            "term": MISMATCH_STATEMENT,
            "source": f"{RAW_NAME}:{MISMATCH_CITED_LINE}",
            "applicable_to": ["user"],
        },
        raw_doc,
        warnings=[],
    )


def best_effort_outcome(term, result, doc, backend):
    """The outcome remediate_step records for the one term, verified as
    result says, under best_effort."""
    config = RunConfig(ExtractionConfig(ChunkStrategy(ChunkMode.PARAGRAPH)),
                       best_effort=True)
    verified = advance(term, LABEL_STATUSES[result.label])
    run = AuditRun("", None, config, doc, "verified", terms=[verified],
                   verifications=[result])
    remediate_step(run, backend)
    (outcome,) = run.outcomes
    return outcome


def resourced_backend():
    return scripted(
        ("Locate the single passage", "resource_raw30.json"),
        ("Attempt to reverse engineer", "supported_verification.json"),
        ("reverse engineer, decompile", "listing6_verification.json"),
    )


class TestLifecycle:
    ALL = tuple(TermStatus)

    def term_with_status(self, status):
        return from_json(
            Term,
            {
                "term_id": "t-lifecycle",
                "term": "Statement.",
                "source": "Doc.txt:1",
                "applicable_to": ["user"],
                "status": status.value,
            }
        )

    def test_transition_matrix_enforced(self):
        for status in self.ALL:
            term = self.term_with_status(status)
            for target in self.ALL:
                if target in TRANSITIONS[status]:
                    assert advance(term, target).status is target
                else:
                    with pytest.raises(LifecycleError):
                        advance(term, target)

    def test_terminal_states(self):
        for status in (
            TermStatus.VERIFIED_SUPPORTED,
            TermStatus.RESOURCED,
            TermStatus.DISCARDED,
        ):
            assert TRANSITIONS[status] == frozenset()

    def test_label_statuses(self):
        assert LABEL_STATUSES["Supported"] is TermStatus.VERIFIED_SUPPORTED
        assert LABEL_STATUSES["Contradicted"] is TermStatus.CONTRADICTED
        assert LABEL_STATUSES["Unverifiable"] is TermStatus.UNVERIFIABLE


# Vocabularies for the property test: a small one, so many lines share the
# statement's stems, and a large one, so few do. "cans" and "dids" are
# content words whose stems are stopwords.
_SMALL_VOCAB = ("service", "terms", "data", "refunds", "cans", "dids", "the",
                "of", "and", "can")
_LARGE_VOCAB = tuple(f"{a}{b}{c}" for a in ("br", "cl", "dr", "fl", "gr", "pl")
                     for b in ("a", "e", "i", "o", "u")
                     for c in ("mb", "nd", "rk", "sp", "ving", "ts"))
_ABSENT = ("felucca", "quixotic", "zeppelin", "ossuary")
_FEW_STOPWORDS = ("the", "of", "and", "to", "is", "can", "did", "it")


@st.composite
def window_searches(draw):
    """(statement, document, cap) over documents of up to 200 lines."""
    vocab = draw(st.sampled_from((_SMALL_VOCAB, _LARGE_VOCAB)))
    statement_words = draw(st.sampled_from((
        vocab + _FEW_STOPWORDS + _ABSENT,  # listed twice: the common case
        vocab + _FEW_STOPWORDS + _ABSENT,
        _ABSENT,  # no stem in the document
        _FEW_STOPWORDS,  # all stopwords
        ("cans", "dids", "the", "service"),
    )))
    first_line = draw(st.sampled_from((1, 2, 40, 106, 9000)))
    n_lines = draw(st.integers(1, 200))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for _ in range(n_lines):
        roll = rng.random()
        if roll < 0.15:
            lines.append("")
        else:
            pool = _FEW_STOPWORDS if roll < 0.3 else vocab
            lines.append(" ".join(rng.choice(pool)
                                  for _ in range(rng.randint(1, 6))))
    if not any(lines):
        lines[0] = rng.choice(vocab)
    doc = ingest_doc_text("\n".join(lines) + "\n", first_line=first_line)
    statement = " ".join(rng.choice(statement_words)
                         for _ in range(rng.randint(1, 8)))
    return statement, doc, rng.randint(1, 10)


class TestFindBestWindow:
    def test_statement_with_unique_home_line(self):
        doc = ingest_doc_text("alpha beta\n\ngamma delta\nbeta gamma\n")
        ref = find_best_window("beta gamma", doc, max_span_lines=1)
        assert (ref.start_line, ref.end_line) == (4, 4)

    def test_earliest_start_beats_shortest_span(self):
        doc = ingest_doc_text("alpha beta\n\ngamma delta\nbeta gamma\n")
        ref = find_best_window("beta gamma", doc, max_span_lines=3)
        assert (ref.start_line, ref.end_line) == (1, 3)

    def test_mismatch_statement_finds_true_line(self, raw_doc):
        ref = find_best_window(MISMATCH_STATEMENT, raw_doc)
        assert (ref.start_line, ref.end_line) == (25, 30)
        assert ref.source_name == RAW_NAME
        span = resolve_span(raw_doc, ref)
        assert lexical_support_score(MISMATCH_STATEMENT, span) == 1.0

    def test_matches_brute_force_selection(self):
        rng = random.Random(4422)
        for _ in range(40):
            doc = random_document(rng, max_lines=25)
            statement = random_statement(rng, doc)
            cap = rng.choice((1, 2, 4, 6))
            got = find_best_window(statement, doc, max_span_lines=cap)
            assert got == exhaustive_best_window(statement, doc, cap)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(window_searches())
    def test_matches_exhaustive_search_property(self, case):
        statement, doc, cap = case
        got = find_best_window(statement, doc, max_span_lines=cap)
        assert got == exhaustive_best_window(statement, doc, cap)

    def test_reingested_document_reuses_the_index(self, monkeypatch):
        text = "service terms\nthe and of\nrefunds stated\n" * 400
        first = remediation._line_index(ingest_doc_text(text))
        again = ingest_doc_text(text)

        def no_compare(self, other):
            raise AssertionError("the memo compared documents line by line")

        monkeypatch.setattr(SourceDocument, "__eq__", no_compare)
        assert remediation._line_index(again) is first
        assert find_best_window("refunds stated", again,
                                max_span_lines=1) == SourceRef("Inline.txt", 3, 3)

    def test_stopword_fallback_is_decided_per_window(self):
        # Line 2 alone is all stopwords, so its own tokens count; joined
        # with line 1 the window has content tokens and they do not.
        doc = ingest_doc_text("service terms\nthe and of\n")
        ref = find_best_window("of the", doc, max_span_lines=3)
        assert (ref.start_line, ref.end_line) == (2, 2)

    def test_matches_brute_force_on_stopword_heavy_documents(self):
        rng = random.Random(9031)
        stop = sorted(_stopwords())
        # "cans" and "dids" are content words whose stems are stopwords.
        content = ("service", "terms", "users", "sharing", "data", "cans",
                   "dids", "refunds", "stated")
        for i in range(400):
            # A few stopwords per document, so windows share them often.
            few = rng.sample(stop, 6)
            lines = []
            for _ in range(rng.randint(1, 14)):
                roll = rng.random()
                if roll < 0.2:
                    lines.append("")
                else:
                    # Half the lines are all stopwords, half mixed.
                    pools = (few,) if roll < 0.6 else (few, content)
                    lines.append(" ".join(
                        rng.choice(rng.choice(pools))
                        for _ in range(rng.randint(1, 5))
                    ))
            if not any(lines):
                lines[0] = rng.choice(few)
            doc = ingest_doc_text(
                "\n".join(lines) + "\n",
                first_line=rng.choice((1, 1, 40, 106)),
            )
            words = [rng.choice(few) for _ in range(rng.randint(1, 4))]
            words += rng.sample(content, rng.choice((0, 0, 1, 2)))
            rng.shuffle(words)
            statement = " ".join(words)
            cap = rng.choice((1, 2, 3, 6))
            got = find_best_window(statement, doc, max_span_lines=cap)
            assert got == exhaustive_best_window(statement, doc, cap), (
                f"case {i}: {statement!r} over {lines!r}, cap {cap}"
            )


class TestResourceTerm:
    def test_llm_path_accepts_single_resolvable_record(self, raw_doc):
        term = mismatch_term(raw_doc)
        ref = resource_term(term, raw_doc, resourced_backend())
        assert (ref.start_line, ref.end_line) == (30, 30)

    def test_deterministic_path_skips_backend(self, raw_doc):
        term = mismatch_term(raw_doc)
        ref = resource_term(term, raw_doc, None, use_llm=False)
        assert (ref.start_line, ref.end_line) == (25, 30)

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            json.dumps(
                [
                    {"term": "a", "source": f"{RAW_NAME}:30", "applicable_to": ["user"]},
                    {"term": "b", "source": f"{RAW_NAME}:32", "applicable_to": ["user"]},
                ]
            ),
            json.dumps([{"term": "a", "source": "not a citation", "applicable_to": []}]),
            json.dumps([{"term": "a", "source": f"{RAW_NAME}:99", "applicable_to": []}]),
            json.dumps([{"term": "a", "source": 30, "applicable_to": []}]),
        ],
        ids=["empty", "two-records", "unparsable", "out-of-range", "non-string"],
    )
    def test_unusable_proposals_count_as_absent(self, raw_doc, payload):
        term = mismatch_term(raw_doc)
        backend = ScriptedBackend(
            [ScriptEntry("Locate the single passage", payload)]
        )
        assert resource_term(term, raw_doc, backend) is None

    @pytest.mark.parametrize("lines, digest", [
        (None,
         "6d4e197a66ee1b8f887a7f05f3cc374454e55d7c42ec291b8341718c48565797"),
        ((108, 111),
         "2d75f64f99b989d6c37bb727ae156ecc8cd61d9517537ec21cd339624960e016"),
    ], ids=["whole-document", "window"])
    def test_request_digests_never_change(self, excerpt_doc, lines, digest):
        # Response pack lines are keyed by these digests, so a change
        # would leave every cached re-sourcing answer unreachable.
        if lines is None:
            numbered = render_numbered(excerpt_doc)
        else:
            numbered = render_numbered(excerpt_doc, start_line=lines[0],
                                       end_line=lines[1])
        req = build_resource_request(
            EXCERPT_NAME, numbered,
            "You must evaluate Output for accuracy before using or sharing it.",
        )
        assert req.request_fingerprint == digest


class TestRemediate:
    def unverifiable_result(self, term, raw_doc):
        backend = scripted(
            ("reverse engineer, decompile", "listing6_verification.json")
        )
        result = verify_term(term, raw_doc, backend)
        assert result.label == LABEL_UNVERIFIABLE
        return result

    def test_supported_term_is_kept_untouched(self, raw_doc):
        term = mismatch_term(raw_doc)
        backend = scripted(
            ("backed by the passage it cites", "supported_verification.json")
        )
        result = verify_term(term, raw_doc, backend)
        outcome = remediate(term, result, raw_doc, ScriptedBackend([]))
        assert outcome.action == ACTION_KEPT
        assert outcome.trail == ()
        assert outcome.new_source is None

    def test_resourced_on_first_proposal(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = self.unverifiable_result(term, raw_doc)
        outcome = remediate(term, result, raw_doc, resourced_backend())
        assert outcome.action == ACTION_RESOURCED
        assert (outcome.new_source.start_line, outcome.new_source.end_line) == (30, 30)
        assert (outcome.old_source.start_line, outcome.old_source.end_line) == (28, 28)
        assert len(outcome.trail) == 1
        entry = outcome.trail[0]
        assert entry.verification.label == LABEL_SUPPORTED
        assert entry.note == ""

    def test_discarded_when_nothing_proposed(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = self.unverifiable_result(term, raw_doc)
        backend = scripted(
            ("Locate the single passage", "empty_terms.json"),
            ("reverse engineer, decompile", "listing6_verification.json"),
        )
        outcome = remediate(term, result, raw_doc, backend)
        assert outcome.action == ACTION_DISCARDED
        assert outcome.new_source is None
        assert [e.note for e in outcome.trail] == ["no span proposed"]

    def test_attempt_budget_respected(self, raw_doc):
        # The budget is one proposal: an unsupported span is not re-requested.
        term = mismatch_term(raw_doc)
        result = self.unverifiable_result(term, raw_doc)
        backend = scripted(
            ("Locate the single passage", "resource_raw30.json"),
            ("Attempt to reverse engineer", "unverifiable_verification.json"),
        )
        outcome = remediate(term, result, raw_doc, backend)
        assert outcome.action == ACTION_DISCARDED
        assert len(outcome.trail) == 1
        assert outcome.trail[0].proposed.start_line == 30
        assert outcome.trail[0].verification.label == LABEL_UNVERIFIABLE
        resource_request = build_resource_request(
            raw_doc.source_name, render_numbered(raw_doc), term.statement
        )
        assert backend.calls.count(resource_request.request_fingerprint) == 1
        assert len(backend.calls) == 2

    def test_document_is_rendered_once_for_every_proposal(
        self, raw_doc, monkeypatch
    ):
        renders = []
        real = remediation.render_numbered

        def counting_render(*args, **kwargs):
            renders.append(args)
            return real(*args, **kwargs)

        # A different document evicts whatever the one-entry memo holds.
        remediation._numbered_document(ingest_doc_text("evict\n"))
        monkeypatch.setattr(remediation, "render_numbered", counting_render)
        cited = mismatch_term(raw_doc)
        result = self.unverifiable_result(cited, raw_doc)
        backend = scripted(("Locate the single passage", "empty_terms.json"))
        terms = [
            replace(cited, term_id=f"t-{i}", statement=f"{cited.statement} {i}")
            for i in range(3)
        ]
        for term in terms:
            outcome = remediate(
                term, replace(result, term_id=term.term_id), raw_doc, backend
            )
            assert [e.note for e in outcome.trail] == ["no span proposed"]
        assert renders == [(raw_doc,)]
        assert backend.calls == [
            build_resource_request(
                raw_doc.source_name, real(raw_doc), term.statement
            ).request_fingerprint
            for term in terms
        ]

    def test_memo_renders_each_numbering_of_the_same_text(self):
        one = ingest_doc_text("alpha\nbeta\n")
        shifted = ingest_doc_text("alpha\nbeta\n", first_line=501)
        assert hash(one) == hash(shifted)
        assert remediation._numbered_document(one) == "1: alpha\n2: beta"
        assert remediation._numbered_document(shifted) == "501: alpha\n502: beta"
        assert remediation._numbered_document(one) == "1: alpha\n2: beta"

    def test_repeated_proposal_stops_the_loop(self, raw_doc):
        # A proposal of the span already cited is discarded without verifying.
        cited = mismatch_term(raw_doc)
        result = self.unverifiable_result(cited, raw_doc)
        term = replace(cited, source=find_best_window(cited.statement, raw_doc))
        backend = RecordingBackend(ScriptedBackend([]))
        outcome = remediate(
            term, result, raw_doc, backend, use_llm_resource=False
        )
        assert outcome.action == ACTION_DISCARDED
        (entry,) = outcome.trail
        assert entry.proposed == term.source
        assert entry.verification is None
        assert entry.note == "proposed an already tried span"
        assert backend.calls == []

    def test_deterministic_resourcer_end_to_end(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = self.unverifiable_result(term, raw_doc)
        backend = scripted(
            ("Attempt to reverse engineer", "supported_verification.json"),
        )
        outcome = remediate(
            term, result, raw_doc, backend, use_llm_resource=False
        )
        assert outcome.action == ACTION_RESOURCED
        assert (outcome.new_source.start_line, outcome.new_source.end_line) == (25, 30)

    def test_foreign_verification_refused(self, raw_doc):
        term = mismatch_term(raw_doc)
        other = mismatch_term(raw_doc)
        result = self.unverifiable_result(term, raw_doc)
        result = type(result)(**{**result.__dict__, "term_id": "someone-else"})
        with pytest.raises(ValueError, match="does not belong"):
            remediate(term, result, raw_doc, ScriptedBackend([]))

    def test_strict_backend_failure_propagates(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = self.unverifiable_result(term, raw_doc)
        with pytest.raises(BackendError):
            remediate(term, result, raw_doc, ScriptedBackend([]))

    def test_best_effort_resource_failure_noted(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = self.unverifiable_result(term, raw_doc)
        outcome = best_effort_outcome(term, result, raw_doc,
                                      ScriptedBackend([]))
        assert outcome.action == ACTION_DISCARDED
        assert len(outcome.trail) == 1
        assert outcome.trail[0].note.startswith("re-sourcing failed:")

    def test_best_effort_verify_failure_noted(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = self.unverifiable_result(term, raw_doc)
        backend = scripted(("Locate the single passage", "resource_raw30.json"))
        outcome = best_effort_outcome(term, result, raw_doc, backend)
        assert outcome.action == ACTION_DISCARDED
        assert outcome.trail[0].note.startswith("verification failed:")
        assert outcome.trail[0].proposed.start_line == 30


LONG_NAME = "Long.txt"
CLAUSE = "Clause: users may export their data at any time."
PARAGRAPH_STRATEGY = ExtractionConfig(ChunkStrategy(ChunkMode.PARAGRAPH))


def long_doc(lines=200, clause_line=100, first_line=1):
    """A document of distinct filler lines with CLAUSE on clause_line, in
    paragraphs of 5 lines, each followed by a blank line: from line 1,
    lines 1-5, 7-11, ..., and CLAUSE on line 100 is in 97-101."""
    texts = [f"Filler {i} about general matters." for i in range(lines)]
    for i in range(5, lines, 6):
        texts[i] = ""
    texts[clause_line - first_line] = CLAUSE
    return ingest_doc_text("\n".join(texts) + "\n", LONG_NAME, first_line)


def clause_term(doc, cited_line, excerpt=None):
    """CLAUSE cited at cited_line, with the given excerpt (first, last)."""
    term = validate_term(
        {"term": CLAUSE, "source": f"{LONG_NAME}:{cited_line}",
         "applicable_to": ["user"]},
        doc,
        warnings=[],
    )
    if excerpt is None:
        return term
    return replace(term, excerpt=SourceRef(LONG_NAME, *excerpt))


def extracted_term(doc, offset):
    """The term extract_document gives in paragraph mode for CLAUSE, cited
    `offset` lines from its line."""
    backend = LineTextBackend(offsets={CLAUSE: offset})
    (term,) = extract_document(doc, PARAGRAPH_STRATEGY, backend).terms
    return term


def unverified(term):
    return VerificationResult(
        term_id=term.term_id, label=LABEL_UNVERIFIABLE, justification="",
        lexical_score=0.0, pre_check_flag="low_overlap",
        verifier_prompt_fingerprint=None,
    )


def shown_range(req):
    """(first, last) line number a re-sourcing request shows."""
    shown = shown_lines(req.user_prompt.split("Document with line numbers:\n", 1)[1])
    return min(shown), max(shown)


def window_request(doc, first, last):
    return build_resource_request(
        LONG_NAME, render_numbered(doc, start_line=first, end_line=last), CLAUSE)


def whole_document_request(doc):
    return build_resource_request(LONG_NAME, render_numbered(doc), CLAUSE)


def fingerprints(requests):
    return [r.request_fingerprint for r in requests]


def found_only_in_the_whole_document(doc, answer):
    """A re-sourcing agent that answers answer(statement, shown) while shown
    less than the whole document, then cites the statement's line."""
    def resource(statement, shown):
        if len(shown) < doc.line_count:
            return answer(statement, shown)
        return cite_the_statement(statement, shown)
    return resource


class TestWindowThenDocument:
    """The first re-sourcing request shows the term's excerpt, the chunk the
    parser was shown; the whole document follows only when that gives no
    span or the cited one. A term with no excerpt, or whose excerpt holds
    every non-blank line, gets one whole-document request."""

    def test_near_miss_is_resourced_from_the_window(self):
        doc = long_doc(clause_line=100)
        term = extracted_term(doc, -2)
        assert term.source == SourceRef(LONG_NAME, 98, 98)
        assert term.excerpt == SourceRef(LONG_NAME, 97, 101)
        backend = LineTextBackend()
        outcome = remediate(term, unverified(term), doc, backend)
        assert fingerprints(backend.resource_requests()) == fingerprints(
            [window_request(doc, 97, 101)])
        assert outcome.action == ACTION_RESOURCED
        assert outcome.new_source == SourceRef(LONG_NAME, 100, 100)
        assert len(outcome.trail) == 1
        assert not remediation.shown_whole_document(term, outcome, doc)

    def test_citation_outside_the_chunk_is_shown_the_chunk(self):
        doc = long_doc(clause_line=100)
        term = extracted_term(doc, 50)
        assert term.source == SourceRef(LONG_NAME, 150, 150)
        backend = LineTextBackend()
        outcome = remediate(term, unverified(term), doc, backend)
        (req,) = backend.resource_requests()
        assert shown_range(req) == (97, 101)
        assert outcome.new_source == SourceRef(LONG_NAME, 100, 100)

    @pytest.mark.parametrize("cited_line", [20, 150])
    def test_term_without_an_excerpt_gets_one_whole_document_request(
            self, cited_line):
        doc = long_doc(clause_line=100)
        term = clause_term(doc, cited_line)
        assert term.excerpt is None
        backend = LineTextBackend()
        outcome = remediate(term, unverified(term), doc, backend)
        assert fingerprints(backend.resource_requests()) == fingerprints(
            [whole_document_request(doc)])
        assert outcome.new_source == SourceRef(LONG_NAME, 100, 100)
        assert len(outcome.trail) == 1
        assert remediation.shown_whole_document(term, outcome, doc)

    @pytest.mark.parametrize("text", [
        f"Filler 0.\nFiller 1.\n{CLAUSE}\n",
        f"\n\nFiller 0.\n\n{CLAUSE}\n\n",
    ], ids=["every-line", "blank-edges"])
    def test_one_chunk_document_gets_one_request(self, text):
        doc = ingest_doc_text(text, LONG_NAME)
        backend = LineTextBackend(offsets={CLAUSE: -1},
                                  resource=lambda statement, shown: None)
        whole = ExtractionConfig(ChunkStrategy(ChunkMode.WHOLE_DOCUMENT))
        (term,) = extract_document(doc, whole, backend).terms
        assert term.excerpt is not None
        outcome = remediate(term, unverified(term), doc, backend)
        assert fingerprints(backend.resource_requests()) == fingerprints(
            [whole_document_request(doc)])
        assert [e.note for e in outcome.trail] == ["no span proposed"]

    def test_no_span_from_the_window_falls_back(self):
        doc = long_doc(clause_line=100)
        term = extracted_term(doc, -2)
        backend = LineTextBackend(resource=found_only_in_the_whole_document(
            doc, lambda statement, shown: None))
        outcome = remediate(term, unverified(term), doc, backend)
        assert fingerprints(backend.resource_requests()) == fingerprints(
            [window_request(doc, 97, 101), whole_document_request(doc)])
        set_aside, decided = outcome.trail
        assert set_aside == TrailEntry(None, None, "no span proposed from lines 97-101")
        assert decided.proposed == outcome.new_source == SourceRef(LONG_NAME, 100, 100)
        assert decided.verification.label == LABEL_SUPPORTED
        assert remediation.shown_whole_document(term, outcome, doc)

    def test_proposing_the_cited_span_falls_back(self):
        doc = long_doc(clause_line=100)
        term = extracted_term(doc, -2)
        backend = LineTextBackend(resource=found_only_in_the_whole_document(
            doc, lambda statement, shown: 98))
        outcome = remediate(term, unverified(term), doc, backend)
        assert fingerprints(backend.resource_requests()) == fingerprints(
            [window_request(doc, 97, 101), whole_document_request(doc)])
        assert outcome.trail[0] == TrailEntry(
            term.source, None, "proposed an already tried span from lines 97-101"
        )
        assert outcome.action == ACTION_RESOURCED
        assert outcome.new_source == SourceRef(LONG_NAME, 100, 100)

    def test_wrong_new_span_is_verified_and_discarded(self):
        doc = long_doc(clause_line=100)
        term = clause_term(doc, 150, excerpt=(97, 101))
        backend = LineTextBackend(resource=lambda statement, shown: 160)
        outcome = remediate(term, unverified(term), doc, backend)
        assert len(backend.resource_requests()) == 1
        assert len(backend.requests) == 2
        assert outcome.action == ACTION_DISCARDED
        (entry,) = outcome.trail
        assert entry.proposed == SourceRef(LONG_NAME, 160, 160)
        assert entry.verification.label == LABEL_UNVERIFIABLE

    def test_blank_proposal_is_discarded_without_verification(self):
        doc = long_doc(clause_line=100)
        term = clause_term(doc, 150, excerpt=(97, 101))
        assert doc.line_text(162) == ""
        backend = LineTextBackend(resource=lambda statement, shown: 162)
        outcome = remediate(term, unverified(term), doc, backend)
        assert len(backend.requests) == 1
        assert outcome.action == ACTION_DISCARDED
        (entry,) = outcome.trail
        assert entry.proposed == SourceRef(LONG_NAME, 162, 162)
        assert entry.verification.label == LABEL_UNVERIFIABLE
        assert entry.verification.verifier_prompt_fingerprint is None

    @pytest.mark.parametrize(
        "first_line, clause_line, excerpt, shown",
        [
            (1, 3, (1, 5), (1, 5)),
            (1, 199, (199, 230), (199, 200)),
            (501, 503, (480, 505), (501, 505)),
            (501, 699, (699, 720), (699, 700)),
        ],
        ids=["first-line", "last-line", "first-line-offset", "last-line-offset"],
    )
    def test_window_is_clipped_to_the_document(
        self, first_line, clause_line, excerpt, shown
    ):
        """A stored excerpt reaching past the document, such as one edited
        by hand, shows the lines of it the document has."""
        doc = long_doc(clause_line=clause_line, first_line=first_line)
        term = clause_term(doc, clause_line + 1, excerpt=excerpt)
        backend = LineTextBackend()
        outcome = remediate(term, unverified(term), doc, backend)
        (req,) = backend.resource_requests()
        assert shown_range(req) == shown
        assert outcome.new_source.start_line == clause_line

    def test_excerpt_outside_the_document_shows_it_whole(self):
        doc = long_doc(clause_line=100)
        term = clause_term(doc, 150, excerpt=(300, 320))
        backend = LineTextBackend()
        outcome = remediate(term, unverified(term), doc, backend)
        assert fingerprints(backend.resource_requests()) == fingerprints(
            [whole_document_request(doc)])
        assert outcome.new_source == SourceRef(LONG_NAME, 100, 100)

    def test_citation_outside_the_document_is_shown_its_excerpt(self):
        doc = long_doc(clause_line=100)
        far = replace(clause_term(doc, 100, excerpt=(97, 101)),
                      source=SourceRef(LONG_NAME, 400, 400))
        backend = LineTextBackend()
        outcome = remediate(far, unverified(far), doc, backend)
        assert fingerprints(backend.resource_requests()) == fingerprints(
            [window_request(doc, 97, 101)])
        assert outcome.new_source == SourceRef(LONG_NAME, 100, 100)

    def test_fallback_failure_keeps_the_set_aside_entry(self):
        doc = long_doc(clause_line=100)

        class FailingWholeDocument(LineTextBackend):
            def generate(self, req):
                if len(shown_lines(req.user_prompt)) == doc.line_count:
                    raise BackendError("transient", "no answer")
                return super().generate(req)

        term = clause_term(doc, 150, excerpt=(97, 101))
        backend = FailingWholeDocument(resource=lambda statement, shown: None)
        outcome = best_effort_outcome(term, unverified(term), doc, backend)
        assert [e.note for e in outcome.trail] == [
            "no span proposed from lines 97-101",
            "re-sourcing failed: no answer",
        ]


STRATEGIES = {
    "whole": ChunkStrategy(ChunkMode.WHOLE_DOCUMENT),
    "paragraph": ChunkStrategy(ChunkMode.PARAGRAPH),
    "parallel": ChunkStrategy(ChunkMode.PARALLEL_MERGE, parallel_fanout=2),
    "section": ChunkStrategy(ChunkMode.SECTION_BY_SECTION),
}


def assert_excerpt_rule(run, requests) -> int:
    """Every term's excerpt is the range of one coverage row, and every
    re-sourcing request (a format-reminder retry as the request it repeats)
    shows exactly its term's excerpt or the whole document. Returns how
    many showed an excerpt that is not the whole document."""
    doc = run.doc
    rows = {SourceRef(doc.source_name, c["start_line"], c["end_line"])
            for c in run.coverage}
    whole, excerpts = set(), set()
    for term in run.terms:
        assert term.excerpt in rows, term
        excerpt = render_numbered(doc, start_line=term.excerpt.start_line,
                                  end_line=term.excerpt.end_line)
        for numbered, shown in ((render_numbered(doc), whole),
                                (excerpt, excerpts)):
            shown.add(build_resource_request(
                doc.source_name, numbered, term.statement).user_prompt)
    reminder = "\n\n" + FORMAT_REMINDERS[SCHEMA_TERM_LIST]
    sent = [r.user_prompt.removesuffix(reminder) for r in requests
            if r.role_prompt == RESOURCE_ROLE]
    assert set(sent) <= whole | excerpts
    return sum(prompt not in whole for prompt in sent)


class TestExcerptProperty:
    """Over the fixture scripts and a generated benchmark document, each
    term's excerpt is one coverage row, and re-sourcing shows it or the
    whole document."""

    def test_fixture_scripts_under_every_strategy(self, tmp_path):
        shown = 0
        for script in sorted(SCRIPTS.glob("*.json")):
            for name, strategy in STRATEGIES.items():
                backend = RecordingBackend(load_script(script))
                config = RunConfig(ExtractionConfig(strategy), workers=1,
                                   best_effort=True)
                run = run_pipeline(ingest_excerpt(), config, backend,
                                   tmp_path / script.stem / name)
                assert run.phase == "complete", (script.name, name)
                shown += assert_excerpt_rule(run, backend.requests)
        assert shown > 0

    def test_generated_document_under_the_simulated_agent(self, tmp_path):
        from perfbench import harness
        from perfbench.agent import SimAgent
        from perfbench.generator import generate_pool

        workload = harness.SPEC["workloads"]["agent-latency"]
        (generated,) = generate_pool(1, 1, *workload["doc_lines"],
                                     harness.SPEC["clause_share"],
                                     harness.SPEC["agent"])
        backend = RecordingBackend(SimAgent(1, harness.SPEC["agent"]))
        run = run_pipeline(ingest(generated.raw, generated.name),
                           harness.make_config(workload), backend, tmp_path)
        assert len(run.terms) > 10
        assert assert_excerpt_rule(run, backend.requests) > 0


class TestApplyOutcome:
    def flow(self, raw_doc, backend):
        term = mismatch_term(raw_doc)
        result = verify_term(term, raw_doc, backend)
        return term, result

    def test_resourced_term_carries_new_source(self, raw_doc):
        backend = resourced_backend()
        term = mismatch_term(raw_doc)
        result = verify_term(
            term,
            raw_doc,
            scripted(("reverse engineer, decompile", "listing6_verification.json")),
        )
        outcome = remediate(term, result, raw_doc, backend)
        verified = advance(term, LABEL_STATUSES[result.label])
        final = apply_outcome(verified, outcome)
        assert final.status is TermStatus.RESOURCED
        assert (final.source.start_line, final.source.end_line) == (30, 30)
        assert final.statement == term.statement

    def test_discarded_term(self, raw_doc):
        term = mismatch_term(raw_doc)
        verified = advance(term, TermStatus.UNVERIFIABLE)
        outcome = RemediationOutcome(
            term_id=term.term_id,
            action=ACTION_DISCARDED,
            old_source=term.source,
            new_source=None,
            trail=(),
        )
        assert apply_outcome(verified, outcome).status is TermStatus.DISCARDED

    def test_kept_requires_supported_status(self, raw_doc):
        term = mismatch_term(raw_doc)
        outcome = RemediationOutcome(
            term_id=term.term_id,
            action=ACTION_KEPT,
            old_source=term.source,
            new_source=None,
            trail=(),
        )
        kept = apply_outcome(
            advance(term, TermStatus.VERIFIED_SUPPORTED), outcome
        )
        assert kept.status is TermStatus.VERIFIED_SUPPORTED
        with pytest.raises(LifecycleError):
            apply_outcome(term, outcome)

    def test_wrong_term_refused(self, raw_doc):
        term = mismatch_term(raw_doc)
        outcome = RemediationOutcome(
            term_id="not-this-term",
            action=ACTION_DISCARDED,
            old_source=term.source,
            new_source=None,
            trail=(),
        )
        with pytest.raises(ValueError, match="does not belong"):
            apply_outcome(term, outcome)


class TestOutcomeSerialization:
    def test_round_trip_with_trail(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = verify_term(
            term,
            raw_doc,
            scripted(("reverse engineer, decompile", "listing6_verification.json")),
        )
        outcome = remediate(term, result, raw_doc, resourced_backend())
        assert from_json(RemediationOutcome, to_json(outcome)) == outcome

    def test_round_trip_discard(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = verify_term(
            term,
            raw_doc,
            scripted(("reverse engineer, decompile", "listing6_verification.json")),
        )
        backend = scripted(
            ("Locate the single passage", "empty_terms.json"),
        )
        outcome = remediate(term, result, raw_doc, backend)
        data = to_json(outcome)
        assert data["new_source"] is None
        assert data["trail"][0]["proposed"] is None
        assert from_json(RemediationOutcome, data) == outcome

    def test_json_is_plain_data(self, raw_doc):
        term = mismatch_term(raw_doc)
        result = verify_term(
            term,
            raw_doc,
            scripted(("reverse engineer, decompile", "listing6_verification.json")),
        )
        outcome = remediate(term, result, raw_doc, resourced_backend())
        json.dumps(to_json(outcome))  # must not raise
