"""Lexical pre-check and backend verification.

The scoring tests check the implementation against a second, independently
written tokenizer/stemmer/scorer that reads the same packaged word lists, so
the two can only agree by computing the same thing.
"""

from __future__ import annotations

import json
import random
from importlib import resources
from types import SimpleNamespace

import pytest

from helpers import (
    MISMATCH_CITED_LINE,
    MISMATCH_STATEMENT,
    RAW_NAME,
    ingest_raw,
    random_document,
    random_statement,
    RecordingBackend,
    pack_entries,
    response_text,
    scripted,
)
from terminators import backends, verification
from terminators.backends import (
    BackendError,
    CachedBackend,
    ScriptEntry,
    ScriptedBackend,
)
from terminators.documents import SourceRef, resolve_span
from terminators.records import from_json, to_json
from terminators.terms import Term, validate_term
from terminators.verification import (
    FLAG_LOW_OVERLAP,
    FLAG_PASS,
    FLAG_UNRESOLVABLE,
    LABEL_SUPPORTED,
    LABEL_UNVERIFIABLE,
    VerificationResult,
    content_tokens,
    lexical_support_score,
    pre_check,
    stem,
    tokenize,
    verify_all,
    verify_term,
)
from terminators.prompts import build_verifier_request
from terminators.terms import canonical_source_string

# ---------------------------------------------------------------- oracle

_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789'")


def _read_data(name: str) -> list[str]:
    text = resources.files("terminators").joinpath(f"data/{name}").read_text(
        encoding="utf-8"
    )
    return [line for line in text.split("\n") if line]


ORACLE_STOP = set(_read_data("stopwords.txt"))
ORACLE_SUFFIXES = _read_data("suffixes.txt")


def oracle_tokenize(text: str) -> list[str]:
    tokens, current = [], []
    for ch in text.lower() + " ":
        if ch in _WORD_CHARS:
            current.append(ch)
        elif current:
            word = "".join(current).strip("'")
            if word:
                tokens.append(word)
            current = []
    return tokens


def oracle_stem(token: str) -> str:
    for suffix in ORACLE_SUFFIXES:
        stripped = len(token) - len(suffix)
        if stripped >= 3 and token.endswith(suffix):
            return token[:stripped]
    return token


def oracle_content(text: str) -> set[str]:
    raw = oracle_tokenize(text)
    kept = set()
    for token in raw:
        if token in ORACLE_STOP or oracle_stem(token) in ORACLE_STOP:
            continue
        kept.add(oracle_stem(token))
    if not kept and raw:
        kept = {oracle_stem(t) for t in raw}
    return kept


def oracle_score(statement: str, span_text: str) -> float:
    need = oracle_content(statement)
    if not need:
        return 0.0
    return len(need & oracle_content(span_text)) / len(need)


def listing4_records():
    return json.loads(response_text("listing4_terms.json"))


# ---------------------------------------------------------------- tokens


class TestTokenizer:
    def test_case_and_punctuation(self):
        assert tokenize("You MUST evaluate Output, for accuracy!") == [
            "you", "must", "evaluate", "output", "for", "accuracy",
        ]

    def test_interior_apostrophe_kept_surrounding_stripped(self):
        assert tokenize("OpenAI's 'quoted' view") == [
            "openai's", "quoted", "view",
        ]

    def test_digits_survive(self):
        assert tokenize("within 30 days") == ["within", "30", "days"]

    def test_word_lists_keep_their_file_form(self):
        """Suffixes are tried in file order; stopwords are a set."""
        assert verification._suffixes() == ("'s", "ing", "ed", "ly", "s")
        stop = verification._stopwords()
        assert type(stop) is frozenset
        assert stop == ORACLE_STOP and "" not in stop

    def test_stemming_rules(self):
        assert stem("openai's") == "openai"
        assert stem("decisions") == "decision"
        assert stem("stated") == "stat"
        assert stem("clearly") == "clear"
        assert stem("sharing") == "shar"
        assert stem("using") == "using", "stripping would leave under 3 chars"
        assert stem("as") == "as"

    def test_content_tokens_drop_stopwords_both_forms(self):
        tokens = content_tokens("The users are using the Services")
        assert tokens == {"user", "using", "service"}
        # "cans" itself is not a stopword but its stem "can" is
        assert content_tokens("cans of beans") == {"bean"}

    def test_all_stopword_text_falls_back_to_itself(self):
        assert lexical_support_score("you must not", "you must not") == 1.0

    def test_empty_statement_scores_zero(self):
        assert lexical_support_score("", "anything at all") == 0.0
        assert lexical_support_score("?!", "anything") == 0.0


# ---------------------------------------------------------------- scores


class TestFrozenScores:
    def test_identity(self):
        text = listing4_records()[0]["term"]
        assert lexical_support_score(text, text) == 1.0

    def test_mismatch_statement_against_wrong_line(self, raw_doc):
        wrong = resolve_span(
            raw_doc, SourceRef(RAW_NAME, MISMATCH_CITED_LINE, MISMATCH_CITED_LINE)
        )
        score = lexical_support_score(MISMATCH_STATEMENT, wrong)
        assert score == pytest.approx(0.1)
        assert score == oracle_score(MISMATCH_STATEMENT, wrong)

    def test_term1_against_its_span(self, excerpt_doc):
        record = listing4_records()[0]
        span = resolve_span(excerpt_doc, SourceRef("OpenAI_ToS.txt", 108, 109))
        score = lexical_support_score(record["term"], span)
        assert score == pytest.approx(11 / 12)
        assert score == oracle_score(record["term"], span)

    def test_term2_against_its_span(self, excerpt_doc):
        record = listing4_records()[1]
        span = resolve_span(excerpt_doc, SourceRef("OpenAI_ToS.txt", 110, 111))
        score = lexical_support_score(record["term"], span)
        assert score == pytest.approx(12 / 13)
        assert score == oracle_score(record["term"], span)


class TestScoreOracleSweep:
    def test_random_pairs_agree_with_oracle(self):
        rng = random.Random(20260822)
        checked = 0
        for _ in range(120):
            doc = random_document(rng)
            spans = []
            for _ in range(3):
                start = rng.randint(doc.first_line, doc.last_line)
                end = min(doc.last_line, start + rng.randint(0, 4))
                spans.append(
                    resolve_span(doc, SourceRef(doc.source_name, start, end))
                )
            for span in spans:
                statement = random_statement(rng, doc)
                assert tokenize(statement) == oracle_tokenize(statement)
                assert content_tokens(span) == oracle_content(span)
                got = lexical_support_score(statement, span)
                assert got == oracle_score(statement, span)
                assert 0.0 <= got <= 1.0
                checked += 1
        assert checked >= 300


# ---------------------------------------------------------------- pre_check


def make_term(statement: str, source: str, _doc=None, **extra):
    """Build a term the way the CLI reloads stored ones, so a citation that
    no longer resolves is representable (validate_term would reject it)."""
    record = {
        "term_id": f"made-{abs(hash((statement, source))) % 10**8:08d}",
        "term": statement,
        "source": source,
        "applicable_to": ["user"],
        "status": "extracted",
    }
    record.update(extra)
    return from_json(Term, record)


class TestPreCheck:
    def test_resolvable_span_passes(self, excerpt_doc):
        record = listing4_records()[0]
        term = validate_term(record, excerpt_doc, warnings=[])
        span_text, score, flag = pre_check(term, excerpt_doc)
        assert "sole" in span_text
        assert score == pytest.approx(11 / 12)
        assert flag == FLAG_PASS

    def test_low_overlap_flagged(self, raw_doc):
        term = make_term(
            MISMATCH_STATEMENT,
            f"{RAW_NAME}:{MISMATCH_CITED_LINE}",
            raw_doc,
        )
        _, score, flag = pre_check(term, raw_doc)
        assert score == pytest.approx(0.1)
        assert flag == FLAG_LOW_OVERLAP

    def test_threshold_is_configurable(self, raw_doc):
        term = make_term(
            MISMATCH_STATEMENT, f"{RAW_NAME}:{MISMATCH_CITED_LINE}", raw_doc
        )
        _, _, flag = pre_check(term, raw_doc, threshold=0.05)
        assert flag == FLAG_PASS

    def test_unresolvable_span(self, excerpt_doc):
        term = make_term(
            "Something entirely imagined.", "OpenAI_ToS.txt:400", excerpt_doc
        )
        span_text, score, flag = pre_check(term, excerpt_doc)
        assert span_text is None
        assert score == 0.0
        assert flag == FLAG_UNRESOLVABLE


# ---------------------------------------------------------------- verify


class TestVerifyTerm:
    def test_supported_label_with_fingerprint(self, excerpt_doc):
        term = validate_term(listing4_records()[0], excerpt_doc, warnings=[])
        backend = scripted(
            ("backed by the passage it cites", "supported_verification.json")
        )
        result = verify_term(term, excerpt_doc, backend)
        assert result.label == LABEL_SUPPORTED
        assert result.pre_check_flag == FLAG_PASS
        assert result.lexical_score == pytest.approx(11 / 12)
        expected = build_verifier_request(
            term.statement,
            canonical_source_string(term.source),
            resolve_span(excerpt_doc, term.source),
        )
        assert result.verifier_prompt_fingerprint == expected.request_fingerprint

    def test_each_request_is_fingerprinted_once(
        self, excerpt_doc, tmp_path, monkeypatch
    ):
        term = validate_term(listing4_records()[0], excerpt_doc, warnings=[])
        backend = scripted(
            ("backed by the passage it cites", "supported_verification.json")
        )
        calls = []
        real = backends.hashlib.sha256

        def counting_sha256(*args, **kwargs):
            calls.append("sha256")
            return real(*args, **kwargs)

        monkeypatch.setattr(backends, "hashlib",
                            SimpleNamespace(sha256=counting_sha256))
        cached = CachedBackend(backend, tmp_path)
        cold = verify_term(term, excerpt_doc, cached)
        # One digest per request, shared by the backend, the cache and the
        # verification record.
        assert calls == ["sha256"]
        calls.clear()
        warm = verify_term(term, excerpt_doc, cached)
        assert calls == ["sha256"]
        assert len(backend.calls) == 1, "the second round is a cache hit"
        assert warm == cold
        assert warm.verifier_prompt_fingerprint == (
            "98ac6984751d287081ccb721f96b3a7d3add1e2aaea0204332e05ce67beb74bf"
        )
        assert list(pack_entries(tmp_path)) == [warm.verifier_prompt_fingerprint]

    def test_unresolvable_never_reaches_backend(self, excerpt_doc):
        term = make_term("Ghost clause.", "OpenAI_ToS.txt:400", excerpt_doc)
        backend = RecordingBackend(ScriptedBackend([]))
        result = verify_term(term, excerpt_doc, backend)
        assert result.label == LABEL_UNVERIFIABLE
        assert result.pre_check_flag == FLAG_UNRESOLVABLE
        assert result.verifier_prompt_fingerprint is None
        assert "does not resolve" in result.justification
        assert backend.calls == []

    def test_low_overlap_does_not_override_backend(self, raw_doc):
        term = make_term(
            MISMATCH_STATEMENT, f"{RAW_NAME}:{MISMATCH_CITED_LINE}", raw_doc
        )
        backend = scripted(
            ("backed by the passage it cites", "supported_verification.json")
        )
        result = verify_term(term, raw_doc, backend)
        assert result.label == LABEL_SUPPORTED
        assert result.pre_check_flag == FLAG_LOW_OVERLAP

    def test_mismatched_citation_judged_unverifiable(self, raw_doc):
        term = make_term(
            MISMATCH_STATEMENT, f"{RAW_NAME}:{MISMATCH_CITED_LINE}", raw_doc
        )
        backend = scripted(
            ("reverse engineer, decompile", "listing6_verification.json")
        )
        result = verify_term(term, raw_doc, backend)
        assert result.label == LABEL_UNVERIFIABLE
        assert "does not mention reverse engineering" in result.justification
        assert result.pre_check_flag == FLAG_LOW_OVERLAP

    def test_context_lines_widen_passage_not_score(self, excerpt_doc):
        term = validate_term(listing4_records()[1], excerpt_doc, warnings=[])  # cites 110-111
        prompts = []

        class Spy(ScriptedBackend):
            def generate(self, request):
                prompts.append(request.user_prompt)
                return super().generate(request)

        backend = Spy(
            [
                ScriptEntry(
                    "backed by the passage it cites",
                    response_text("supported_verification.json"),
                )
            ]
        )
        result = verify_term(term, excerpt_doc, backend, context_lines=1)
        passage = prompts[0].split("Passage:\n", 1)[1]
        assert "professional advice" in passage, "line 109 pulled in"
        assert "legal or" in passage, "line 112 pulled in"
        assert result.lexical_score == pytest.approx(12 / 13), (
            "score still uses the exact cited span"
        )

    def test_malformed_output_is_a_backend_error(self, excerpt_doc):
        term = validate_term(listing4_records()[0], excerpt_doc, warnings=[])
        backend = ScriptedBackend(
            [ScriptEntry("backed by the passage it cites", "nope")]
        )
        with pytest.raises(BackendError) as exc:
            verify_term(term, excerpt_doc, backend)
        assert exc.value.kind == "malformed_output"


class TestVerifyAll:
    def test_results_in_input_order(self, excerpt_doc):
        terms = [validate_term(r, excerpt_doc, warnings=[]) for r in listing4_records()]
        backend = scripted(
            ("backed by the passage it cites", "supported_verification.json")
        )
        results = verify_all(terms, excerpt_doc, backend)
        assert [r.term_id for r in results] == [t.term_id for t in terms]
        assert all(r.label == LABEL_SUPPORTED for r in results)

    def test_empty_input(self, excerpt_doc):
        assert verify_all([], excerpt_doc, ScriptedBackend([])) == []

    def test_best_effort_degrades_failures(self, excerpt_doc):
        terms = [validate_term(r, excerpt_doc, warnings=[]) for r in listing4_records()[:2]]
        backend = ScriptedBackend([])  # nothing matches
        results = verify_all(terms, excerpt_doc, backend, best_effort=True)
        assert len(results) == 2
        for r in results:
            assert r.label == LABEL_UNVERIFIABLE
            assert r.justification.startswith("Verification failed:")
            assert r.verifier_prompt_fingerprint is None
            assert r.pre_check_flag == FLAG_PASS, "pre-check still reported"

    def test_strict_mode_raises(self, excerpt_doc):
        terms = [validate_term(listing4_records()[0], excerpt_doc, warnings=[])]
        with pytest.raises(BackendError):
            verify_all(terms, excerpt_doc, ScriptedBackend([]))


class TestSerialization:
    def test_round_trip(self):
        result = VerificationResult(
            term_id="t1",
            label=LABEL_SUPPORTED,
            justification="Stated outright.",
            lexical_score=0.75,
            pre_check_flag=FLAG_PASS,
            verifier_prompt_fingerprint="ab" * 32,
        )
        assert from_json(VerificationResult, to_json(result)) == result

    def test_none_fingerprint_survives(self):
        result = VerificationResult("t2", LABEL_UNVERIFIABLE, "x", 0.0,
                                    FLAG_UNRESOLVABLE, None)
        assert from_json(VerificationResult, to_json(result)) == result
