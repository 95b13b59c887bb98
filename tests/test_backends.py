"""Backend boundary: scripted replay, structured output, caching, live client."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    RecordingBackend,
    SCRIPTS,
    pack_entries,
    pack_lines,
    response_text,
    scripted,
)
from terminators import backends
from terminators.backends import (
    SCHEMA_PLAN,
    SCHEMA_TERM_LIST,
    SCHEMA_VERIFICATION,
    SCHEMAS,
    Backend,
    BackendError,
    BackendRequest,
    BackendResponse,
    CachedBackend,
    LiveBackend,
    PACK_NAME,
    ScriptEntry,
    ScriptedBackend,
    cached_complete,
    complete,
    _schema_shape_ok,
    extract_structured_value,
    install_wait_hook,
    json_text,
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
    """The fingerprint's definition: one dict copy, with the fixed
    temperature, and one encoder for every prompt."""
    payload = json.dumps({**asdict(req), "temperature": 0.0}, sort_keys=True,
                         ensure_ascii=False)
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
            make_request(max_output_tokens=0)

    def test_fingerprint_deterministic_and_sensitive(self):
        base = make_request().request_fingerprint
        assert make_request().request_fingerprint == base
        assert len(base) == 64
        assert make_request(user_prompt="other").request_fingerprint != base
        assert make_request(role_prompt="other").request_fingerprint != base
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
        text = (tmp_path / PACK_NAME).read_text()
        assert text == (
            '{"fingerprint": "d3e0e75627a2838dc4018cec12724fe7add7a178ea704e1b5'
            '63a6bc9265da810", "response": {'
            '"raw_text": "{\\n  \\"verification\\": \\"Supported\\",\\n'
            '  \\"justification\\": \\"The cited passage states this '
            'requirement directly, in slightly different wording.\\"\\n}\\n", '
            '"usage": {"input_tokens": 11, "output_tokens": 34}, '
            '"latency_ms": 0.0, "backend_id": "scripted"}}\n'
        )

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(PROMPTS, PROMPTS, st.sampled_from(SCHEMAS), st.integers(1, 10**6))
    def test_fingerprint_equals_the_asdict_oracle(
        self, role_prompt, user_prompt, schema, max_output_tokens,
    ):
        req = BackendRequest(role_prompt, user_prompt, schema,
                             max_output_tokens)
        assert req.request_fingerprint == oracle_fingerprint(req)

    @pytest.mark.parametrize("first, second", [
        ({"max_output_tokens": 1}, {"max_output_tokens": True}),
        ({"max_output_tokens": 2}, {"max_output_tokens": 2.0}),
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


def scan_oracle(raw_text: str, schema: str):
    """extract_structured_value as a scan only: every top-level JSON value
    in the text, of which exactly one must fit the schema."""
    decoder = json.JSONDecoder()
    candidates = []
    pos = 0
    while True:
        starts = [i for i in (raw_text.find("{", pos), raw_text.find("[", pos))
                  if i != -1]
        if not starts:
            break
        idx = min(starts)
        try:
            value, end = decoder.raw_decode(raw_text, idx)
        except json.JSONDecodeError:
            pos = idx + 1
            continue
        except RecursionError:
            raise ValueError(
                f"JSON value at offset {idx} is nested too deeply"
            ) from None
        candidates.append(value)
        pos = end
    matches = [v for v in candidates if _schema_shape_ok(v, schema) is None]
    if not matches:
        if candidates:
            raise ValueError(_schema_shape_ok(candidates[0], schema))
        raise ValueError(f"no JSON value of schema {schema!r} found in output")
    if len(matches) > 1:
        raise ValueError(f"multiple {schema!r} values found in output")
    return matches[0]


def outcome(fn, *args):
    """("value", repr of what fn returned) or ("error", its ValueError's
    message). repr keeps NaN, -0.0 and int against float comparable."""
    try:
        return "value", repr(fn(*args))
    except ValueError as exc:
        return "error", str(exc)


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(st.characters(exclude_categories=()), max_size=12))
# Values a model might answer with: anything JSON, and the three schemas'
# shapes, well formed or nearly.
ANSWERS = st.one_of(
    st.recursive(
        JSON_SCALARS,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=8), children, max_size=3),
        max_leaves=8,
    ),
    st.lists(st.fixed_dictionaries({
        "term": st.text(max_size=12), "source": st.just("a.txt:1"),
        "applicable_to": st.lists(st.sampled_from(["user", "we"]), max_size=2),
    }), max_size=3),
    st.fixed_dictionaries({
        "verification": st.sampled_from(["Supported", "Contradicted",
                                         "Unverifiable", "Probably"]),
        "justification": st.text(max_size=12) | st.none(),
    }),
    st.fixed_dictionaries({
        "possible_accountability_checks":
            st.lists(st.text(max_size=8) | st.integers(), max_size=3),
    }),
)
AROUND = st.sampled_from(["", " \n\t", "Here it is:\n", "```json\n", "\n```",
                          "\ufeff", " Thanks!", "{", "]", "\u00a0"])


class TestExtractMatchesTheScan:
    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(AROUND, ANSWERS, st.sampled_from([None, 2]), AROUND,
           st.none() | ANSWERS, st.sampled_from(SCHEMAS))
    def test_value_or_message_equals_the_scan(self, before, answer, indent,
                                               after, second, schema):
        raw = before + json.dumps(answer, indent=indent, ensure_ascii=False)
        raw += after
        if second is not None:
            raw += "\n" + json.dumps(second, ensure_ascii=False)
        assert outcome(extract_structured_value, raw, schema) == outcome(
            scan_oracle, raw, schema
        )

    @pytest.mark.parametrize("raw", [
        "[" * 100_000 + "]" * 100_000,
        '{"a": ' * 100_000 + "1" + "}" * 100_000,
    ], ids=["array", "object"])
    def test_too_deep_whole_json_is_nested_too_deeply(self, raw):
        # Whole values, which json.loads tries first; unclosed openers are
        # TestExtractStructuredValue's.
        with pytest.raises(RecursionError):
            json.loads(raw)
        expected = outcome(scan_oracle, raw, SCHEMA_TERM_LIST)
        assert "nested too deeply" in expected[1]
        assert outcome(extract_structured_value, raw,
                       SCHEMA_TERM_LIST) == expected


# Everything json.dumps writes with str keys: lists and tuples; strings with
# non-ASCII characters, lone surrogates, controls and quotes; ints of any
# size, bools, None; floats with -0.0, NaN and both infinities.
WRITER_KEYS = st.text(st.characters(exclude_categories=()), max_size=8)
WRITER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 2 ** 70])
    | st.text(st.characters(exclude_categories=()), max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(WRITER_KEYS, children, max_size=4),
    max_leaves=12,
)


class TestJsonText:
    """json_text is json.dumps(value, indent=2, ensure_ascii=False), built
    with joins."""

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(WRITER_VALUES)
    def test_equals_the_stdlib_encoder(self, value):
        reference = json.dumps(value, indent=2, ensure_ascii=False)
        assert json_text(value) == reference

    @pytest.mark.parametrize("value", [
        {1, 2}, b"bytes", 1j, object(), [1, {"a": frozenset()}],
    ], ids=["set", "bytes", "complex", "object", "nested-set"])
    def test_other_types_are_type_errors(self, value):
        with pytest.raises(TypeError) as stdlib:
            json.dumps(value, indent=2, ensure_ascii=False)
        with pytest.raises(TypeError) as ours:
            json_text(value)
        assert str(ours.value) == str(stdlib.value)

    @pytest.mark.parametrize("key", [1, 1.5, True, None, ("a",), b"k"])
    def test_keys_that_are_not_str_are_type_errors(self, key):
        with pytest.raises(TypeError):
            json_text({"a": [{key: 1}]})

    def test_str_subclass_keys_are_written_as_str(self):
        class Key(str):
            pass

        value = {Key('a"\u00e9'): [Key("b")]}
        assert json_text(value) == json.dumps(value, indent=2,
                                              ensure_ascii=False)

    def test_cache_entries_read_as_the_stdlib_writes_them(self, tmp_path):
        """A pack line is json.dumps(entry, ensure_ascii=False): non-ASCII
        characters, U+2028 included, as themselves."""
        answer = ('{"verification": "Supported", '
                  '"justification": "caf\u00e9 \u2028 is \\"wet\\"."}')
        req = make_request(user_prompt="Statement: caf\u00e9 \u2028 is \"wet\".")
        cached_complete(ScriptedBackend([ScriptEntry("wet", answer)]), req,
                        tmp_path)
        (line,) = pack_lines(tmp_path)
        assert line == json.dumps(json.loads(line), ensure_ascii=False)
        assert json.loads(line)["response"]["raw_text"] == answer


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
        backend = RecordingBackend(ScriptedBackend(
            [
                ScriptEntry(
                    "Reminder: respond with exactly one JSON object",
                    response_text("supported_verification.json"),
                ),
                ScriptEntry("water", "Sorry, I prefer prose."),
            ]
        ))
        resp = complete(backend, make_request())
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 2

    def test_two_malformed_responses_fail(self):
        backend = RecordingBackend(
            ScriptedBackend([ScriptEntry("water", "still prose")]))
        with pytest.raises(BackendError) as exc:
            complete(backend, make_request())
        assert exc.value.kind == "malformed_output"
        assert len(backend.calls) == 2

    def test_too_deep_output_is_malformed(self):
        backend = RecordingBackend(
            ScriptedBackend([ScriptEntry("water", "[" * 100_000)]))
        with pytest.raises(BackendError) as exc:
            complete(backend, make_request())
        assert exc.value.kind == "malformed_output"
        assert "nested too deeply" in str(exc.value)
        assert len(backend.calls) == 2

    @pytest.mark.parametrize("cpu_s, waits", [(0.015, False), (0.001, True)])
    def test_a_call_waits_when_it_spends_time_off_the_cpu(
        self, monkeypatch, cpu_s, waits
    ):
        # Each call takes 15 ms on a fake wall clock and cpu_s on a fake
        # thread clock: it waited when the 15 ms were mostly off the CPU.
        clock = {"wall": 0.0, "cpu": 0.0}
        monkeypatch.setattr(backends, "time", types.SimpleNamespace(
            perf_counter=lambda: clock["wall"],
            thread_time=lambda: clock["cpu"],
        ))
        events = []
        inner = scripted(("water", "supported_verification.json"))

        class Timed(Backend):
            def generate(self, req):
                events.append("call")
                clock["wall"] += 0.015
                clock["cpu"] += cpu_s
                return inner.generate(req)

        backend = Timed()
        previous = install_wait_hook(lambda: events.append("wait"))
        try:
            complete(backend, make_request())
            complete(backend, make_request())
        finally:
            install_wait_hook(previous)
        # A backend seen to wait is announced after that call, and before
        # each later one.
        assert events == (["call", "wait", "wait", "call"] if waits
                          else ["call", "call"])


class TestLoadScript:
    def test_fixture_script_loads(self):
        backend = load_script(SCRIPTS / "whole_doc.json")
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
        assert [p.name for p in tmp_path.iterdir()] == [PACK_NAME]
        assert list(pack_entries(tmp_path)) == [req.request_fingerprint]
        run_request(inner, req)
        assert len(inner.calls) == 2, "an unwrapped backend is not cached"


def new_process(monkeypatch) -> None:
    """Drop the in-process pack index, as a new process starts without
    one."""
    monkeypatch.setattr(backends, "_pack_index", backends._PackIndex())


class TestCachedComplete:
    def test_miss_then_hit(self, tmp_path):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        first = cached_complete(backend, req, tmp_path)
        assert first.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1
        assert len(pack_lines(tmp_path)) == 1

        second = cached_complete(backend, req, tmp_path)
        assert second.parsed == first.parsed
        assert second.latency_ms == 0.0
        assert len(backend.calls) == 1, "hit must not touch the backend"
        assert len(pack_lines(tmp_path)) == 1, "a hit appends nothing"

    def test_cache_replays_across_backends(self, tmp_path):
        req = make_request()
        cached_complete(
            scripted(("water", "supported_verification.json")), req, tmp_path
        )
        empty = RecordingBackend(ScriptedBackend([]))
        resp = cached_complete(empty, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert empty.calls == []

    def test_entry_stores_request_and_response(self, tmp_path):
        req = make_request()
        cached_complete(
            scripted(("water", "supported_verification.json")), req, tmp_path
        )
        (line,) = pack_lines(tmp_path)
        entry = json.loads(line)
        # The line names the request by its fingerprint and holds only the
        # response.
        assert list(entry) == ["fingerprint", "response"]
        assert entry["fingerprint"] == req.request_fingerprint
        assert "Supported" in entry["response"]["raw_text"]

    def test_corrupt_entry_degrades_to_backend(self, tmp_path, caplog):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        fingerprint = req.request_fingerprint
        pack = tmp_path / PACK_NAME
        pack.write_text(f'{{"fingerprint": "{fingerprint}", not json\n')
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1
        assert (f"unreadable cache entry {fingerprint} at offset 0 of {pack}"
                in caplog.text)
        corrupt, appended = pack_lines(tmp_path)
        assert corrupt == f'{{"fingerprint": "{fingerprint}", not json'
        assert json.loads(appended)["fingerprint"] == fingerprint
        assert cached_complete(backend, req, tmp_path).raw_text == (
            resp.raw_text)
        assert len(backend.calls) == 1, "the answer appended wins"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: {**entry, "response": {**entry["response"],
                                                 "raw_text": "[]"}},
            lambda entry: {**entry, "response": {**entry["response"],
                                                 "raw_text": 5}},
            lambda entry: [],
            lambda entry: json.dumps(entry)[:-1] + ', "fingerprint": "'
            + "0" * 64 + '"}',
        ],
        ids=["raw-text-off-schema", "raw-text-not-a-string",
             "entry-not-an-object", "line-names-another-fingerprint"],
    )
    def test_misshapen_entry_is_a_miss(self, tmp_path, caplog, monkeypatch,
                                       corrupt):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        cached_complete(backend, req, tmp_path)
        (line,) = pack_lines(tmp_path)
        entry = json.loads(line)
        bad = corrupt(entry)
        (tmp_path / PACK_NAME).write_text(
            (bad if isinstance(bad, str) else json.dumps(bad)) + "\n")
        new_process(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 2, "a bad entry must reach the backend"
        assert json.loads(pack_lines(tmp_path)[-1]) == entry
        assert PACK_NAME in caplog.text
        cached_complete(backend, req, tmp_path)
        assert len(backend.calls) == 2, "the answer appended wins"

    @pytest.mark.parametrize(
        "deep_entry",
        [
            '"response": ' + "[" * 100_000,
            '"response": {"raw_text": "' + "[" * 100_000 + '"}}',
        ],
        ids=["entry-too-deep", "raw-text-too-deep"],
    )
    def test_too_deep_entry_is_a_miss(self, tmp_path, caplog, deep_entry):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        (tmp_path / PACK_NAME).write_text(
            f'{{"fingerprint": "{req.request_fingerprint}", {deep_entry}\n')
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1, "a too-deep entry must reach the backend"
        assert json.loads(pack_lines(tmp_path)[-1])["response"]["raw_text"] == (
            resp.raw_text
        )
        assert PACK_NAME in caplog.text

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
        (tmp_path / PACK_NAME).mkdir()
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, req, tmp_path)
        assert resp.parsed["verification"] == "Supported"
        assert len(backend.calls) == 1
        assert f"unreadable cache pack {tmp_path / PACK_NAME}" in caplog.text
        assert f"cache write failed for {req.request_fingerprint}" in (
            caplog.text)

    def test_failed_write_warns_and_leaves_no_temporary_file(
        self, tmp_path, caplog
    ):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        (tmp_path / PACK_NAME).mkdir()
        for _ in range(2):
            with caplog.at_level(logging.WARNING,
                                 logger="terminators.backends"):
                resp = cached_complete(backend, req, tmp_path)
            assert resp.parsed["verification"] == "Supported"
        assert f"cache write failed for {req.request_fingerprint}" in (
            caplog.text)
        assert [p.name for p in tmp_path.iterdir()] == [PACK_NAME]

    def test_unwritable_cache_dir_degrades(self, tmp_path, caplog):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache dir should be")
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            resp = cached_complete(backend, req, blocker / "sub")
        assert resp.parsed["verification"] == "Supported"
        assert f"cache write failed for {req.request_fingerprint}" in (
            caplog.text
        )
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]

    @pytest.mark.parametrize("threads", [1, 4])
    def test_unusable_cache_dir_warns_once_per_kind(self, tmp_path, caplog,
                                                    threads):
        """A file where the cache directory should be: each kind of OSError
        warning is logged once in a process, however many requests and
        threads meet it, and every request is answered by the backend."""
        cache = tmp_path / "cache"
        cache.write_text("a file where the cache dir should be")
        backend = scripted(("water", "supported_verification.json"))
        reqs = [make_request(user_prompt=f"Statement: water is wet ({i}).")
                for i in range(20)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch between check and add
        try:
            with caplog.at_level(logging.WARNING,
                                 logger="terminators.backends"):
                with ThreadPoolExecutor(threads) as pool:
                    resps = list(pool.map(
                        lambda req: cached_complete(backend, req, cache), reqs))
        finally:
            sys.setswitchinterval(interval)
        assert [r.parsed["verification"] for r in resps] == ["Supported"] * 20
        assert len(backend.calls) == 20
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2, messages
        for kind in ("unreadable cache pack ", "cache write failed for "):
            assert sum(m.startswith(kind) for m in messages) == 1, kind

    def test_content_warnings_stay_one_per_entry(self, tmp_path, caplog):
        """Pack lines that do not decode are each warned about: only
        OSErrors from the cache directory are warned about once."""
        backend = scripted(("water", "supported_verification.json"))
        reqs = [make_request(user_prompt=f"Statement: water is wet ({i}).")
                for i in range(3)]
        pack = tmp_path / PACK_NAME
        bad = [f'{{"fingerprint": "{req.request_fingerprint}", not json'
               for req in reqs]
        pack.write_text("".join(line + "\n" for line in bad))
        offsets = [sum(len(line) + 1 for line in bad[:i]) for i in range(3)]
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            for req in reqs:
                cached_complete(backend, req, tmp_path)
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            f"unreadable cache entry {req.request_fingerprint} at offset "
            f"{offset} of {pack}" for req, offset in zip(reqs, offsets)]
        assert len(backend.calls) == 3

    def test_file_earlier_versions_wrote_is_ignored(self, tmp_path):
        """A <fingerprint>.json beside the pack, the layout of versions
        before the pack, is neither read nor written: the backend answers,
        and its answer goes to the pack."""
        req = make_request()
        legacy = tmp_path / f"{req.request_fingerprint}.json"
        legacy.write_text(json.dumps({"response": {
            "raw_text": answer_of("a stale answer")[0],
            "usage": {"input_tokens": 1, "output_tokens": 1},
            "latency_ms": 0.0, "backend_id": "stale"}}))
        before = legacy.read_bytes()
        backend = scripted(("water", "supported_verification.json"))
        resp = cached_complete(backend, req, tmp_path)
        assert len(backend.calls) == 1
        assert resp.parsed["justification"] != "a stale answer"
        assert list(pack_entries(tmp_path)) == [req.request_fingerprint]
        assert pack_entries(tmp_path)[req.request_fingerprint]["raw_text"] == (
            resp.raw_text)
        assert legacy.read_bytes() == before

    def test_first_write_makes_the_missing_cache_directories(self, tmp_path):
        backend = scripted(("water", "supported_verification.json"))
        req = make_request()
        cache = tmp_path / "a" / "b" / "cache"
        cached_complete(backend, req, str(cache))
        assert [p.name for p in cache.iterdir()] == [PACK_NAME]
        resp = cached_complete(ScriptedBackend([]), req, cache)
        assert resp.parsed["verification"] == "Supported"


class CountingBackend(Backend):
    """Answers every request Supported, its justification naming the call:
    "answer 1", "answer 2", and so on."""

    backend_id = "counting"

    def __init__(self):
        self.calls = 0

    def generate(self, req):
        self.calls += 1
        return BackendResponse(*answer_of(f"answer {self.calls}"),
                               {"input_tokens": 1, "output_tokens": 1}, 0.0,
                               self.backend_id)


def answer_of(justification: str) -> tuple[str, dict, None]:
    raw = json.dumps({"verification": "Supported",
                      "justification": justification})
    return raw, json.loads(raw), None


def entry_line(req: BackendRequest, justification: str,
               raw_text: str | None = None) -> str:
    """A pack line as cached_complete writes it, holding the answer with
    that justification, or raw_text when given."""
    return json.dumps({"fingerprint": req.request_fingerprint, "response": {
        "raw_text": raw_text or answer_of(justification)[0],
        "usage": {"input_tokens": 1, "output_tokens": 1},
        "latency_ms": 0.0, "backend_id": "counting"}})


def justification(resp) -> str:
    return resp.parsed["justification"]


class Warnings(logging.Handler):
    """The messages of the warnings terminators.backends logs while in a
    with block."""

    def __enter__(self):
        super().__init__(logging.WARNING)
        self.messages = []
        logging.getLogger("terminators.backends").addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger("terminators.backends").removeHandler(self)

    def emit(self, record):
        self.messages.append(record.getMessage())


KEYS = [make_request(user_prompt=f"Statement {i}: water is wet.")
        for i in range(3)]

# Lines that are not a readable entry of KEYS[k], as (name, line of k).
BAD_LINES = [
    ("not-json", lambda k: f'{{"fingerprint": "{KEYS[k].request_fingerprint}"'
                           ', not json'),
    ("off-schema", lambda k: entry_line(KEYS[k], "", raw_text="[]")),
    ("names-another", lambda k: entry_line(KEYS[k], "x")[:-1]
     + f', "fingerprint": "{KEYS[(k + 1) % 3].request_fingerprint}"}}'),
    ("not-an-entry", lambda k: "[]"),
]

# Lines each of two processes appends to one pack at once: enough that a
# lost or split line shows in nearly every run when appends are not
# atomic.
PER_PROCESS = 5000

# The bytes of a line's head, up to and including the fingerprint's
# closing quote: a torn line at least this long names its fingerprint.
HEAD_BYTES = len('{"fingerprint": "') + 64 + 1

PACK_OPS = st.lists(st.one_of(
    st.tuples(st.just("get"), st.integers(0, 2)),
    st.tuples(st.just("put"), st.integers(0, 2)),
    st.tuples(st.just("corrupt"), st.integers(0, 2),
              st.sampled_from(range(len(BAD_LINES)))),
    st.tuples(st.just("tear"), st.integers(0, 2), st.integers(0, 400)),
    st.tuples(st.just("restart")),
), max_size=25)


class TestResponsePack:
    """The pack against a model: a list of its whole lines, the torn line
    at its end, and the in-process index as a dict built from the lines
    scanned so far."""

    @settings(derandomize=True, database=None, max_examples=250,
              deadline=None)
    @given(PACK_OPS)
    def test_matches_the_model(self, ops):
        lines = []       # (key or None if not an entry, answer or None if bad)
        tail = None      # the torn last line, as it reads once closed
        index, scanned, written = {}, 0, 0
        backend = CountingBackend()
        original = backends._pack_index
        backends._pack_index = backends._PackIndex()
        try:
            with tempfile.TemporaryDirectory() as cache:
                pack = os.path.join(cache, PACK_NAME)

                def append(key, answer, text):
                    nonlocal tail
                    if tail is not None:  # the newline append_line adds
                        lines.append(tail)
                        tail = None
                    backends.append_line(pack, text)
                    lines.append((key, answer))

                for op in ops:
                    k = op[1] if len(op) > 1 else None
                    if op[0] == "get":
                        if k not in index:
                            for key, answer in lines[scanned:]:
                                if key is not None:
                                    index[key] = answer
                            scanned = len(lines)
                        expected = index.get(k)
                        before = backend.calls
                        with Warnings() as warned:
                            resp = cached_complete(backend, KEYS[k], cache)
                        if expected is not None:
                            assert backend.calls == before, op
                            assert justification(resp) == expected, op
                            continue
                        assert backend.calls == before + 1, op
                        assert justification(resp) == (
                            f"answer {backend.calls}")
                        if k in index:  # a bad line: a warning and a miss
                            assert any(KEYS[k].request_fingerprint in m
                                       for m in warned.messages), op
                            del index[k]
                        if tail is not None:
                            lines.append(tail)
                            tail = None
                        lines.append((k, justification(resp)))
                    elif op[0] == "put":
                        written += 1
                        answer = f"put {written}"
                        append(k, answer, entry_line(KEYS[k], answer))
                    elif op[0] == "corrupt":
                        append(k if BAD_LINES[op[2]][0] != "not-an-entry"
                               else None, None, BAD_LINES[op[2]][1](k))
                    elif op[0] == "tear":
                        written += 1
                        answer = f"torn {written}"
                        line = entry_line(KEYS[k], answer)
                        cut = min(op[2], len(line))
                        append(k, answer, line)
                        lines.pop()
                        os.truncate(pack, os.path.getsize(pack)
                                    - len(line) - 1 + cut)
                        if cut:
                            tail = (k if cut >= HEAD_BYTES else None,
                                    answer if cut == len(line) else None)
                    else:
                        backends._pack_index = backends._PackIndex()
                        index, scanned = {}, 0
        finally:
            backends._pack_index = original

    def test_torn_last_line_at_every_offset(self, tmp_path, monkeypatch):
        """Cut inside the last line at every byte, the pack replays its
        other lines, warns, misses the torn entry, and the next append
        starts a line of its own."""
        first, torn = KEYS[0], KEYS[1]
        filled = tmp_path / "filled"
        backend = CountingBackend()
        for req in (first, torn):
            cached_complete(backend, req, filled)
        whole = (filled / PACK_NAME).read_bytes()
        start = whole.rindex(b"\n", 0, len(whole) - 1) + 1
        for cut in range(start + 1, len(whole)):
            cache = tmp_path / str(cut)
            cache.mkdir()
            (cache / PACK_NAME).write_bytes(whole[:cut])
            new_process(monkeypatch)
            backend = CountingBackend()
            with Warnings() as warned:
                assert justification(
                    cached_complete(backend, first, cache)) == "answer 1"
                assert justification(
                    cached_complete(backend, torn, cache)) == "answer 1"
            assert backend.calls == 1, cut
            assert any("ends in a torn line" in m for m in warned.messages)
            data = (cache / PACK_NAME).read_bytes()
            assert data == whole[:cut] + b"\n" + data[cut + 1:]
            new_process(monkeypatch)
            resp = cached_complete(ScriptedBackend([]), torn, cache)
            assert justification(resp) == "answer 1"

    def test_processes_appending_at_once_keep_every_entry(self, tmp_path):
        """Two processes append to one pack at the same time, as fast as
        they can; afterwards every line reads and every entry replays."""
        code = textwrap.dedent("""
            import json, os, pathlib, sys, time
            from terminators.backends import (
                PACK_NAME, BackendRequest, append_line)
            cache, name, work = sys.argv[1], sys.argv[2], pathlib.Path(sys.argv[3])
            answer = json.dumps({"verification": "Supported",
                                 "justification": name * 100})
            lines = [json.dumps({
                "fingerprint": BackendRequest(
                    "You label statements.", f"Statement {name} {i}.",
                    "verification").request_fingerprint,
                "response": {"raw_text": answer, "usage": {},
                             "latency_ms": 0.0, "backend_id": name}})
                for i in range(%d)]
            (work / f"{name}.ready").touch()
            deadline = time.monotonic() + 60
            while not (work / "go").exists() and time.monotonic() < deadline:
                time.sleep(0.0005)
            for line in lines:
                append_line(os.path.join(cache, PACK_NAME), line)
        """ % PER_PROCESS)
        cache = tmp_path / "cache"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(backends.__file__)),
             os.environ.get("PYTHONPATH", "")])}
        names = ("a", "b")
        procs = [subprocess.Popen([sys.executable, "-c", code, str(cache),
                                   name, str(tmp_path)], env=env)
                 for name in names]
        try:
            deadline = time.monotonic() + 60
            while not all((tmp_path / f"{n}.ready").exists() for n in names):
                assert time.monotonic() < deadline, "a writer did not start"
                assert all(p.poll() is None for p in procs)
                time.sleep(0.005)
            (tmp_path / "go").touch()
            assert [p.wait(timeout=120) for p in procs] == [0, 0]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        reqs = [BackendRequest("You label statements.", f"Statement {n} {i}.",
                               SCHEMA_VERIFICATION)
                for n in names for i in range(PER_PROCESS)]
        # A writer that reads the last byte while the other's write is half
        # visible starts its line with a newline: an empty line, skipped.
        assert len([line for line in pack_lines(cache) if line]) == len(reqs)
        assert set(pack_entries(cache)) == {r.request_fingerprint
                                            for r in reqs}
        empty = RecordingBackend(ScriptedBackend([]))
        for req in reqs:
            assert cached_complete(empty, req, cache).backend_id in names
        assert empty.calls == []

    @pytest.mark.parametrize("change", ["truncated", "replaced",
                                        "rewritten-in-place"])
    def test_pack_changed_under_a_live_process(self, tmp_path, change):
        """A warning and a miss, never a replay of another entry: the two
        lines swapped have the same length, so only the fingerprint check
        tells them apart."""
        backend = CountingBackend()
        a, b = KEYS[0], KEYS[1]
        for req in (a, b, a, b):  # the second round is all hits
            cached_complete(backend, req, tmp_path)
        pack = tmp_path / PACK_NAME
        line_a, line_b = pack_lines(tmp_path)
        assert len(line_a) == len(line_b)
        if change == "truncated":
            os.truncate(pack, 0)
        elif change == "replaced":
            (tmp_path / "new").write_text(f"{line_b}\n{line_a}\n")
            os.replace(tmp_path / "new", pack)
        else:
            pack.write_text(f"{line_b}\n{line_a}\n")
        with Warnings() as warned:
            resp = cached_complete(backend, a, tmp_path)
        assert (backend.calls, justification(resp)) == (3, "answer 3")
        assert any(a.request_fingerprint in m for m in warned.messages)
        assert justification(cached_complete(backend, a, tmp_path)) == (
            "answer 3")
        assert backend.calls == 3, "the answer appended replays"
        assert justification(cached_complete(backend, b, tmp_path)) in (
            "answer 2", f"answer {backend.calls}")


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
    @pytest.fixture(autouse=True)
    def slept(self, monkeypatch):
        """The backoff waits, recorded instead of slept."""
        slept = []
        monkeypatch.setattr("time.sleep", slept.append)
        return slept

    def make(self) -> LiveBackend:
        return LiveBackend("test-model", "https://example.invalid/chat")

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
            seen["timeout"] = timeout
            return _FakeResponse(
                200, _chat_body(response_text("supported_verification.json"))
            )

        monkeypatch.setattr("requests.post", fake_post)
        resp = self.make().generate(make_request())
        assert resp.parsed["verification"] == "Supported"
        assert resp.backend_id == "live:test-model"
        assert seen["payload"]["messages"][0]["role"] == "system"
        assert seen["payload"]["model"] == "test-model"
        assert seen["payload"]["temperature"] == 0.0
        assert seen["timeout"] == 60.0

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

    def test_retry_after_sets_the_least_wait(self, monkeypatch, slept):
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        ok = _FakeResponse(200, _chat_body('{"verification": "Supported", "justification": "ok"}'))
        responses = [
            _FakeResponse(429, headers={"Retry-After": "7"}),
            _FakeResponse(503, headers={"Retry-After": "0.5"}),
            _FakeResponse(500, headers={"Retry-After": "9"}),
            ok,
            _FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            _FakeResponse(503, headers={"Retry-After": "-3"}),
            ok,
        ]
        monkeypatch.setattr("requests.post", lambda *a, **k: responses.pop(0))
        for _ in range(2):
            resp = self.make().generate(make_request())
            assert resp.parsed["verification"] == "Supported"
        assert responses == []
        # Backoff is 1, 2, 4 s. Only a 429 or 503 with a delta-seconds
        # Retry-After can stretch it: 7 > 1 does, 0.5 < 2 does not, and a
        # 500, a date or a negative value leave the backoff alone.
        assert slept == [7.0, 2.0, 4.0, 1.0, 2.0]

    def test_exhausted_retries_raise_transient(self, monkeypatch, slept):
        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        monkeypatch.setattr("requests.post", lambda *a, **k: _FakeResponse(500))
        with pytest.raises(BackendError) as exc:
            self.make().generate(make_request())
        assert exc.value.kind == "transient"
        assert str(exc.value) == "gave up after 4 attempts; last: HTTP 500"
        assert slept == [1.0, 2.0, 4.0]

    def test_request_exception_retries_then_gives_up(self, monkeypatch,
                                                     slept, caplog):
        import requests

        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        calls = []

        def fake_post(*args, **kwargs):
            calls.append(kwargs["timeout"])
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr("requests.post", fake_post)
        with caplog.at_level(logging.WARNING, logger="terminators.backends"):
            with pytest.raises(BackendError) as exc:
                self.make().generate(make_request())
        assert exc.value.kind == "transient"
        assert str(exc.value) == (
            "gave up after 4 attempts; last: request failed: ConnectionError"
        )
        assert calls == [60.0] * 4
        assert slept == [1.0, 2.0, 4.0]
        assert "backend attempt 4/4 failed: request failed: ConnectionError" in (
            caplog.text
        )

    @pytest.mark.parametrize("error", ["MissingSchema", "InvalidHeader"])
    def test_request_no_retry_mends_fails_at_once(self, monkeypatch, slept,
                                                  error):
        import requests

        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        calls = []

        def fake_post(*args, **kwargs):
            calls.append(1)
            # requests quotes a bad header's value, the credential included.
            raise getattr(requests.exceptions, error)(
                f"bad request: {kwargs['headers']['Authorization']}")

        monkeypatch.setattr("requests.post", fake_post)
        with pytest.raises(BackendError) as exc:
            self.make().generate(make_request())
        assert exc.value.kind == "request"
        assert str(exc.value) == (
            f"request to 'https://example.invalid/chat' failed: {error}")
        assert calls == [1]
        assert slept == []

    def test_timeout_retries(self, monkeypatch, slept):
        import requests

        monkeypatch.setenv("TERMINATORS_API_KEY", "sk-test-1234")
        ok = _FakeResponse(200, _chat_body('{"verification": "Supported", "justification": "ok"}'))
        outcomes = [requests.ReadTimeout("slow"), ok]

        def fake_post(*args, **kwargs):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr("requests.post", fake_post)
        resp = self.make().generate(make_request())
        assert resp.parsed["verification"] == "Supported"
        assert slept == [1.0]

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
