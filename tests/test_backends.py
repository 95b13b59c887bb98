"""Backend boundary: scripted replay, structured output, caching, live client."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import response_text, scripted, SCRIPTS
from terminators.backends import (
    DEFAULT_REFUSAL,
    SCHEMA_PLAN,
    SCHEMA_TERM_LIST,
    SCHEMA_VERIFICATION,
    SCHEMAS,
    BackendError,
    BackendRequest,
    CachedBackend,
    LiveBackend,
    ScriptEntry,
    ScriptedBackend,
    cached_complete,
    complete,
    extract_structured_value,
    load_script,
)
from terminators.parsing import run_request


def make_request(**overrides) -> BackendRequest:
    fields = {
        "role_prompt": "You label statements.",
        "user_prompt": "Statement: water is wet.",
        "response_schema": SCHEMA_VERIFICATION,
    }
    fields.update(overrides)
    return BackendRequest(**fields)


def oracle_fingerprint(req: BackendRequest) -> str:
    """The fingerprint's definition: one dict copy and one encoder for every
    prompt."""
    payload = json.dumps(asdict(req), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Prompts for the fingerprint oracle: all ASCII but U+007F (the fast JSON
# encoder's path), ASCII with U+007F (the one ASCII character the two
# encoders escape differently), and any text weighted towards C0 controls,
# quotes, backslashes, U+007F, U+2028 and characters beyond the BMP.
PROMPTS = st.one_of(
    st.text(st.characters(max_codepoint=0x7E), max_size=30),
    st.text(st.characters(max_codepoint=0x7F), max_size=30),
    st.text(
        st.one_of(
            st.sampled_from(["\x7f", '"', "\\", "\u2028", "\U0001f600"]),
            st.characters(max_codepoint=0x1F),
            st.characters(codec="utf-8"),
        ),
        max_size=30,
    ),
)


class TestBackendRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_request(response_schema="poetry")
        with pytest.raises(ValueError):
            make_request(temperature=1.5)
        with pytest.raises(ValueError):
            make_request(max_output_tokens=0)

    def test_fingerprint_deterministic_and_sensitive(self):
        base = make_request().request_fingerprint
        assert make_request().request_fingerprint == base
        assert len(base) == 64
        assert make_request(user_prompt="other").request_fingerprint != base
        assert make_request(role_prompt="other").request_fingerprint != base
        assert make_request(temperature=0.5).request_fingerprint != base
        assert make_request(max_output_tokens=4096).request_fingerprint != base
        assert (
            make_request(response_schema=SCHEMA_PLAN).request_fingerprint != base
        )

    def test_replace_gets_a_fresh_fingerprint(self):
        req = make_request()
        base = req.request_fingerprint
        changed = replace(req, user_prompt="other")
        assert changed.request_fingerprint == (
            make_request(user_prompt="other").request_fingerprint
        )
        assert changed.request_fingerprint != base
        assert req.request_fingerprint == base

    def test_fingerprint_and_cache_request_are_pinned(self, tmp_path):
        req = make_request()
        assert req.request_fingerprint == (
            "d3e0e75627a2838dc4018cec12724fe7add7a178ea704e1b563a6bc9265da810"
        )
        cached_complete(
            scripted(("water", "supported_verification.json")), req, tmp_path
        )
        text = (tmp_path / f"{req.request_fingerprint}.json").read_text()
        assert text == (
            '{\n  "response": {\n'
            '    "raw_text": "{\\n  \\"verification\\": \\"Supported\\",\\n'
            '  \\"justification\\": \\"The cited passage states this '
            'requirement directly, in slightly different wording.\\"\\n}\\n",\n'
            '    "usage": {\n'
            '      "input_tokens": 11,\n'
            '      "output_tokens": 34\n'
            '    },\n'
            '    "latency_ms": 0.0,\n'
            '    "backend_id": "scripted"\n'
            '  }\n}\n'
        )

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(PROMPTS, PROMPTS, st.sampled_from(SCHEMAS), st.floats(0.0, 1.0),
           st.integers(1, 10**6))
    def test_fingerprint_equals_the_asdict_oracle(
        self, role_prompt, user_prompt, schema, temperature, max_output_tokens,
    ):
        req = BackendRequest(role_prompt, user_prompt, schema, temperature,
                             max_output_tokens)
        assert req.request_fingerprint == oracle_fingerprint(req)

    @pytest.mark.parametrize("first, second", [
        ({"temperature": 0.0}, {"temperature": 0}),
        ({"temperature": 0.0}, {"temperature": -0.0}),
        ({"max_output_tokens": 1}, {"max_output_tokens": True}),
    ])
    def test_equal_values_that_encode_apart_keep_their_digests(
        self, first, second
    ):
        # Equal, and equally hashed, field values whose JSON differs: a memo
        # keyed on the values alone would hand the second the first's digest.
        digests = set()
        for overrides in (first, second, first):
            req = make_request(**overrides)
            assert req.request_fingerprint == oracle_fingerprint(req)
            digests.add(req.request_fingerprint)
        assert len(digests) == 2


class TestExtractStructuredValue:
    def test_bare_value(self):
        value = extract_structured_value(
            '{"verification": "Supported", "justification": "Stated."}',
            SCHEMA_VERIFICATION,
        )
        assert value["verification"] == "Supported"

    def test_fenced_and_prosed_value(self):
        raw = (
            "Here is my answer:\n```json\n"
            '[{"term": "t", "source": "a.txt:1", "applicable_to": ["user"]}]\n'
            "```\nLet me know if you need anything else."
        )
        value = extract_structured_value(raw, SCHEMA_TERM_LIST)
        assert value[0]["term"] == "t"

    def test_braces_inside_strings_do_not_split_the_value(self):
        raw = '{"verification": "Supported", "justification": "see {clause 3}"}'
        value = extract_structured_value(raw, SCHEMA_VERIFICATION)
        assert value["justification"] == "see {clause 3}"

    def test_off_schema_values_are_ignored(self):
        raw = (
            '{"note": "scratch"}\n'
            '{"verification": "Unverifiable", "justification": "No mention."}'
        )
        value = extract_structured_value(raw, SCHEMA_VERIFICATION)
        assert value["verification"] == "Unverifiable"

    def test_two_matching_values_is_an_error(self):
        raw = (
            '{"verification": "Supported", "justification": "a"}\n'
            '{"verification": "Contradicted", "justification": "b"}'
        )
        with pytest.raises(ValueError, match="multiple"):
            extract_structured_value(raw, SCHEMA_VERIFICATION)

    def test_no_value_is_an_error(self):
        with pytest.raises(ValueError):
            extract_structured_value("I cannot help with that.", SCHEMA_TERM_LIST)

    def test_shape_problems_are_described(self):
        with pytest.raises(ValueError, match="verification"):
            extract_structured_value(
                '{"verification": "Probably", "justification": "x"}',
                SCHEMA_VERIFICATION,
            )
        with pytest.raises(ValueError, match="objects"):
            extract_structured_value('["just", "strings"]', SCHEMA_TERM_LIST)
        with pytest.raises(ValueError, match="array of strings"):
            extract_structured_value(
                '{"possible_accountability_checks": "one check"}', SCHEMA_PLAN
            )

    def test_empty_array_is_valid_term_list(self):
        assert extract_structured_value("[]", SCHEMA_TERM_LIST) == []

    @pytest.mark.parametrize("opener", ["[", '{"a": '])
    def test_too_deep_nesting_is_a_value_error(self, opener):
        with pytest.raises(ValueError, match="nested too deeply"):
            extract_structured_value(opener * 100_000, SCHEMA_TERM_LIST)

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(max_size=20),
                st.sampled_from(
                    ["[", "]", "{", "}", '"', ":", ",", "```json\n",
                     '{"verification": "Supported", "justification": "x"}',
                     '[{"term": "t", "source": "a.txt:1", '
                     '"applicable_to": ["user"]}]',
                     '{"possible_accountability_checks": ["c"]}']
                ),
            ),
            max_size=12,
        ).map("".join),
        st.sampled_from([SCHEMA_TERM_LIST, SCHEMA_VERIFICATION, SCHEMA_PLAN]),
    )
    def test_any_text_gives_a_value_or_a_value_error(self, raw, schema):
        try:
            value = extract_structured_value(raw, schema)
        except ValueError:
            return
        assert isinstance(value, (list, dict))


class TestScriptedBackend:
    def test_first_matching_entry_wins(self):
        backend = ScriptedBackend(
            [
                ScriptEntry("alpha", '{"verification": "Supported", "justification": "1"}'),
                ScriptEntry("water", '{"verification": "Contradicted", "justification": "2"}'),
            ]
        )
        resp = backend.generate(make_request(user_prompt="water and alpha"))
        assert resp.parsed["justification"] == "1"

    def test_matcher_sees_role_and_user_prompt(self):
        backend = ScriptedBackend(
            [ScriptEntry("label statements", '{"verification": "Supported", "justification": "role"}')]
        )
        assert backend.generate(make_request()).parsed["justification"] == "role"

    def test_fingerprint_matcher(self):
        req = make_request()
        backend = ScriptedBackend(
            [
                ScriptEntry(
                    f"fingerprint:{req.request_fingerprint}",
                    '{"verification": "Supported", "justification": "exact"}',
                )
            ]
        )
        assert backend.generate(req).parsed["justification"] == "exact"
        with pytest.raises(BackendError):
            backend.generate(make_request(user_prompt="different"))

    def test_strict_unmatched_raises(self):
        backend = ScriptedBackend([ScriptEntry("nope", "[]")])
        with pytest.raises(BackendError) as exc:
            backend.generate(make_request())
        assert exc.value.kind == "unmatched"

    def test_non_strict_refuses(self):
        backend = ScriptedBackend([], strict=False)
        resp = backend.generate(make_request())
        assert resp.raw_text == DEFAULT_REFUSAL
        assert resp.parsed is None
        assert resp.parse_error

    def test_calls_record_fingerprints(self):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        backend.generate(req)
        backend.generate(req)
        assert backend.calls == [req.request_fingerprint] * 2

    def test_identical_requests_identical_responses(self):
        backend = scripted(("water", "supported_verification.json"))
        a = backend.generate(make_request())
        b = backend.generate(make_request())
        assert a.raw_text == b.raw_text
        assert a.usage == b.usage


class TestComplete:
    def test_clean_response_passes_through(self):
        backend = scripted(("water", "supported_verification.json"))
        resp = complete(backend, make_request())
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1

    def test_reminder_retry_recovers(self):
        backend = ScriptedBackend(
            [
                ScriptEntry(
                    "Reminder: respond with exactly one JSON object",
                    response_text("supported_verification.json"),
                ),
                ScriptEntry("water", "Sorry, I prefer prose."),
            ]
        )
        resp = complete(backend, make_request())
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 2

    def test_two_malformed_responses_fail(self):
        backend = ScriptedBackend([ScriptEntry("water", "still prose")])
        with pytest.raises(BackendError) as exc:
            complete(backend, make_request())
        assert exc.value.kind == "malformed_output"
        assert len(backend.calls) == 2

    def test_too_deep_output_is_malformed(self):
        backend = ScriptedBackend([ScriptEntry("water", "[" * 100_000)])
        with pytest.raises(BackendError) as exc:
            complete(backend, make_request())
        assert exc.value.kind == "malformed_output"
        assert "nested too deeply" in str(exc.value)
        assert len(backend.calls) == 2


class TestLoadScript:
    def test_fixture_script_loads(self):
        backend = load_script(SCRIPTS / "whole_doc.json")
        assert backend.strict
        assert backend.entries[0].match == "106: When you use"
        assert json.loads(backend.entries[0].response)[0]["source"] == (
            "OpenAI_ToS.txt:108-109"
        )

    def test_script_must_be_array(self, tmp_path):
        bad = tmp_path / "script.json"
        bad.write_text('{"match": "x"}')
        with pytest.raises(ValueError, match="array"):
            load_script(bad)

    def test_entries_need_both_keys(self, tmp_path):
        bad = tmp_path / "script.json"
        bad.write_text('[{"match": "x"}]')
        with pytest.raises(ValueError, match="response_file"):
            load_script(bad)

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "JSON nested too deeply"),
        ('[{"match": 5, "response_file": "r.json"}]', "string 'match'"),
        ('[{"match": "x", "response_file": 5}]', "string 'match'"),
    ], ids=["too-deep", "match-not-a-string", "response-file-not-a-string"])
    def test_malformed_script_is_a_value_error(self, tmp_path, text, message):
        bad = tmp_path / "script.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            load_script(bad)
        assert str(bad) in str(exc.value)


class TestCachedBackend:
    def test_forwards_generate_and_backend_id(self, tmp_path):
        inner = scripted(("water", "supported_verification.json"))
        cached = CachedBackend(inner, tmp_path)
        assert cached.backend_id == "scripted"
        assert cached.generate(make_request()).parsed["verification"] == (
            "Supported"
        )
        assert len(inner.calls) == 1
        assert list(tmp_path.iterdir()) == [], "generate bypasses the cache"

    def test_run_request_answers_from_the_cache(self, tmp_path):
        inner = scripted(("water", "supported_verification.json"))
        cached = CachedBackend(inner, tmp_path)
        req = make_request()
        first = run_request(cached, req)
        second = run_request(cached, req)
        assert len(inner.calls) == 1, "the second request is a hit"
        assert second.raw_text == first.raw_text
        assert [p.name for p in tmp_path.iterdir()] == [
            f"{req.request_fingerprint}.json"
        ]
        run_request(inner, req)
        assert len(inner.calls) == 2, "an unwrapped backend is not cached"


class TestCachedComplete:
    def test_miss_then_hit(self, tmp_path):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        first = cached_complete(backend, req, tmp_path)
        assert first.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1
        cache_file = tmp_path / f"{req.request_fingerprint}.json"
        assert cache_file.exists()

        second = cached_complete(backend, req, tmp_path)
        assert second.parsed == first.parsed
        assert second.latency_ms == 0.0
        assert len(backend.calls) == 1, "hit must not touch the backend"

    def test_cache_replays_across_backends(self, tmp_path):
        req = make_request()
        cached_complete(
            scripted(("water", "supported_verification.json")), req, tmp_path
        )
        empty = ScriptedBackend([])
        resp = cached_complete(empty, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert empty.calls == []

    def test_entry_stores_request_and_response(self, tmp_path):
        req = make_request()
        cached_complete(
            scripted(("water", "supported_verification.json")), req, tmp_path
        )
        entry = json.loads(
            (tmp_path / f"{req.request_fingerprint}.json").read_text()
        )
        # The file name is the request's fingerprint; the entry holds only
        # the response.
        assert list(entry) == ["response"]
        assert "Supported" in entry["response"]["raw_text"]

    def test_entry_with_stored_request_still_replays(self, tmp_path):
        req = make_request()
        cached_complete(
            scripted(("water", "supported_verification.json")), req, tmp_path
        )
        cache_file = tmp_path / f"{req.request_fingerprint}.json"
        # The layout earlier versions wrote: the request beside the response.
        old_layout = json.dumps(
            {"request": asdict(req), **json.loads(cache_file.read_text())},
            indent=2, ensure_ascii=False,
        ) + "\n"
        cache_file.write_text(old_layout, encoding="utf-8")
        empty = ScriptedBackend([])
        resp = cached_complete(empty, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert empty.calls == []
        assert cache_file.read_text(encoding="utf-8") == old_layout

    def test_corrupt_entry_degrades_to_backend(self, tmp_path):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        cache_file = tmp_path / f"{req.request_fingerprint}.json"
        cache_file.write_text("{not json")
        resp = cached_complete(backend, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1
        assert json.loads(cache_file.read_text())["response"]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: {**entry, "response": {**entry["response"],
                                                 "raw_text": "[]"}},
            lambda entry: {**entry, "response": {**entry["response"],
                                                 "raw_text": 5}},
            lambda entry: [],
        ],
        ids=["raw-text-off-schema", "raw-text-not-a-string",
             "entry-not-an-object"],
    )
    def test_misshapen_entry_is_a_miss(self, tmp_path, caplog, corrupt):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        cache_file = tmp_path / f"{req.request_fingerprint}.json"
        cached_complete(backend, req, tmp_path)
        entry = json.loads(cache_file.read_text())
        cache_file.write_text(json.dumps(corrupt(entry)))
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 2, "a bad entry must reach the backend"
        assert json.loads(cache_file.read_text()) == entry
        assert cache_file.name in caplog.text

    @pytest.mark.parametrize(
        "deep_entry",
        [
            "[" * 100_000,
            '{"response": {"raw_text": "' + "[" * 100_000 + '"}}',
        ],
        ids=["entry-too-deep", "raw-text-too-deep"],
    )
    def test_too_deep_entry_is_a_miss(self, tmp_path, caplog, deep_entry):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        cache_file = tmp_path / f"{req.request_fingerprint}.json"
        cache_file.write_text(deep_entry)
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1, "a too-deep entry must reach the backend"
        assert json.loads(cache_file.read_text())["response"]["raw_text"] == (
            resp.raw_text
        )
        assert cache_file.name in caplog.text

    def test_cold_miss_logs_no_warning(self, tmp_path, caplog):
        backend = scripted(("water", "supported_verification.json"))
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, make_request(), tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1
        assert caplog.records == []

    def test_directory_at_entry_path_warns_and_reaches_backend(
        self, tmp_path, caplog
    ):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        (tmp_path / f"{req.request_fingerprint}.json").mkdir()
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1
        assert f"unreadable cache entry {req.request_fingerprint}.json" in (
            caplog.text
        )

    def test_failed_write_warns_and_leaves_no_temporary_file(
        self, tmp_path, caplog
    ):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        entry = f"{req.request_fingerprint}.json"
        (tmp_path / entry).mkdir()
        for _ in range(2):
            with caplog.at_level(logging.WARNING,
                                 logger="terminators.backends"):
                resp = cached_complete(backend, req, tmp_path)
            assert resp.parsed["verification"] == "Supported"
        assert f"cache write failed for {entry}" in caplog.text
        assert [p.name for p in tmp_path.iterdir()] == [entry]

    def test_unwritable_cache_dir_degrades(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache dir should be")
        backend = scripted(("water", "supported_verification.json"))
        resp = cached_complete(backend, make_request(), blocker / "sub")
        assert resp.parsed["verification"] == "Supported"


class _FakeResponse:
    def __init__(self, status_code, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


def _chat_body(content: str) -> dict:
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"input_tokens": 10, "output_tokens": 5},
    }


class TestLiveBackend:
    def make(self, **overrides) -> LiveBackend:
        fields = {
            "model": "test-model",
            "endpoint": "https://example.invalid/chat",
            "backoff_base_s": 0.0,
            "max_attempts": 3,
        }
        fields.update(overrides)
        return LiveBackend(fields.pop("model"), fields.pop("endpoint"), **fields)

    def test_missing_credential_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("TERMINATORS_API_KEY", raising=False)
        with pytest.raises(BackendError) as exc:
            self.make().generate(make_request())
        assert exc.value.kind == "auth"

    def test_success_parses_payload(self, monkeypatch):
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen["url"] = url
            seen["payload"] = json
            seen["headers"] = headers
            return _FakeResponse(
                200, _chat_body(response_text("supported_verification.json"))
            )

        monkeypatch.setattr("requests.post", fake_post)
        resp = self.make().generate(make_request())
        assert resp.parsed["verification"] == "Supported"
        assert resp.backend_id == "live:test-model"
        assert seen["payload"]["messages"][0]["role"] == "system"
        assert seen["payload"]["model"] == "test-model"

    def test_retries_transient_then_succeeds(self, monkeypatch):
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        responses = [
            _FakeResponse(429),
            _FakeResponse(503),
            _FakeResponse(200, _chat_body('{"verification": "Supported", "justification": "ok"}')),
        ]

        def fake_post(*args, **kwargs):
            return responses.pop(0)

        monkeypatch.setattr("requests.post", fake_post)
        resp = self.make().generate(make_request())
        assert resp.parsed["verification"] == "Supported"
        assert responses == []

    def test_retry_after_sets_the_least_wait(self, monkeypatch):
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        responses = [
            _FakeResponse(429, headers={"Retry-After": "7"}),
            _FakeResponse(503, headers={"Retry-After": "0.5"}),
            _FakeResponse(500, headers={"Retry-After": "9"}),
            _FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            _FakeResponse(503, headers={"Retry-After": "-3"}),
            _FakeResponse(200, _chat_body('{"verification": "Supported", "justification": "ok"}')),
        ]
        slept = []
        monkeypatch.setattr("requests.post", lambda *a, **k: responses.pop(0))
        monkeypatch.setattr("time.sleep", slept.append)
        resp = self.make(backoff_base_s=1.0, max_attempts=6).generate(
            make_request()
        )
        assert resp.parsed["verification"] == "Supported"
        # Backoff is 1, 2, 4, 8, 16 s. Only a 429 or 503 with a delta-seconds
        # Retry-After can stretch it: 7 > 1 does, 0.5 < 2 does not, and a
        # 500, a date or a negative value leave the backoff alone.
        assert slept == [7.0, 2.0, 4.0, 8.0, 16.0]

    def test_exhausted_retries_raise_transient(self, monkeypatch):
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        monkeypatch.setattr("requests.post", lambda *a, **k: _FakeResponse(500))
        with pytest.raises(BackendError) as exc:
            self.make().generate(make_request())
        assert exc.value.kind == "transient"

    def test_auth_rejection_does_not_retry(self, monkeypatch):
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        calls = []

        def fake_post(*args, **kwargs):
            calls.append(1)
            return _FakeResponse(401)

        monkeypatch.setattr("requests.post", fake_post)
        with pytest.raises(BackendError) as exc:
            self.make().generate(make_request())
        assert exc.value.kind == "auth"
        assert len(calls) == 1

    def test_unexpected_status_raises_request_error(self, monkeypatch):
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        monkeypatch.setattr(
            "requests.post", lambda *a, **k: _FakeResponse(418, text="teapot")
        )
        with pytest.raises(BackendError) as exc:
            self.make().generate(make_request())
        assert exc.value.kind == "request"

    @pytest.mark.parametrize("body", [
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": None}}],
         "usage": {"input_tokens": 10, "output_tokens": 0}},
        {"choices": [{"message": {"content": [{"type": "text", "text": "{}"}]}}],
         "usage": {"input_tokens": 10, "output_tokens": 5}},
        {"choices": []},
    ], ids=["null-content", "null-content-with-usage", "content-parts",
            "no-choices"])
    def test_content_that_is_not_text_is_a_request_error(self, monkeypatch,
                                                         body):
        # A refusal or content filter can answer 200 with null content, and
        # some endpoints send a list of content parts: neither is retried.
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        calls = []

        def fake_post(*args, **kwargs):
            calls.append(1)
            return _FakeResponse(200, body)

        monkeypatch.setattr("requests.post", fake_post)
        with pytest.raises(BackendError) as exc:
            self.make().generate(make_request())
        assert exc.value.kind == "request"
        assert str(exc.value).startswith("unexpected response body shape: ")
        assert len(calls) == 1

    def test_credential_never_logged_or_fingerprinted(self, monkeypatch, caplog):
        secret = "sk-secret-98765"
        monkeypatch.setenv("TERMINATORS_API_KEY", secret)
        monkeypatch.setattr(
            "requests.post",
            lambda *a, **k: _FakeResponse(
                200, _chat_body('{"verification": "Supported", "justification": "x"}')
            ),
        )
        req = make_request()
        with caplog.at_level(logging.DEBUG):
            self.make().generate(req)
        assert secret not in caplog.text
        assert secret not in req.request_fingerprint
