"""Term records: candidate validation, party roles, dedupe, serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ingest_excerpt, ingest_raw
from terminators.documents import SourceRef
from terminators.terms import (
    Role,
    SchemaError,
    Term,
    TermStatus,
    canonical_source_string,
    dedupe_terms,
    parse_source_string,
    resolve_party,
    term_from_json,
    term_identity,
    term_to_json,
    validate_term,
)


def make_candidate(**overrides):
    candidate = {
        "term": "Users must not rely on Output as a sole source of truth.",
        "source": "OpenAI_ToS.txt:108-109",
        "applicable_to": ["user"],
    }
    candidate.update(overrides)
    return candidate


class TestSourceStrings:
    def test_range_and_single_line(self):
        assert parse_source_string("a.txt:12-14") == SourceRef("a.txt", 12, 14)
        assert parse_source_string("a.txt:7") == SourceRef("a.txt", 7, 7)

    def test_name_containing_colon(self):
        ref = parse_source_string("tos: annex A:3-4")
        assert ref.source_name == "tos: annex A"
        assert (ref.start_line, ref.end_line) == (3, 4)

    def test_unparseable(self):
        for bad in ("no lines here", "a.txt:", "a.txt:x-y", "",
                    "a.txt:12\n", "a.txt:3-4\n", "a.txt\n:12"):
            with pytest.raises(SchemaError) as exc:
                parse_source_string(bad)
            assert exc.value.kind == "source_format"

    def test_inverted_range(self):
        with pytest.raises(SchemaError) as exc:
            parse_source_string("a.txt:9-3")
        assert exc.value.kind == "source_range"

    def test_canonical_round_trip(self):
        assert canonical_source_string(SourceRef("a.txt", 5, 9)) == "a.txt:5-9"
        assert canonical_source_string(SourceRef("a.txt", 5, 5)) == "a.txt:5"
        ref = SourceRef("b.txt", 2, 6)
        assert parse_source_string(canonical_source_string(ref)) == ref

    def test_overlong_line_number_is_a_schema_error(self):
        with pytest.raises(SchemaError) as exc:
            parse_source_string("a.txt:" + "9" * 5000)
        assert exc.value.kind == "source_range"

    def test_non_ascii_digits_are_a_format_error(self):
        for bad in ("a.txt:\u0661\u0662", "a.txt:1-\u0662",
                    "a.txt:\uff11\uff12"):
            with pytest.raises(SchemaError) as exc:
                parse_source_string(bad)
            assert exc.value.kind == "source_format"

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(
        st.one_of(
            st.text(max_size=40),
            st.tuples(
                st.text(max_size=12),
                st.one_of(
                    st.text(alphabet="0123456789", max_size=8),
                    # Digits of other scripts, which \d would accept.
                    st.text(alphabet=st.characters(categories=["Nd"]),
                            min_size=1, max_size=4),
                    # Runs around int()'s 4,300-digit limit.
                    st.integers(1, 6000).map(lambda n: "7" * n),
                ),
                st.sampled_from(["", "-"]),
                st.text(alphabet="0123456789-", max_size=12),
                st.sampled_from(["", "\n"]),
            ).map(lambda parts: "{}:{}{}{}{}".format(*parts)),
        )
    )
    def test_any_string_gives_a_ref_or_a_schema_error(self, source):
        try:
            ref = parse_source_string(source)
        except SchemaError:
            return
        assert isinstance(ref, SourceRef)
        assert 1 <= ref.start_line <= ref.end_line
        span = source[len(ref.source_name) + 1:]
        assert set(span) <= set("0123456789-")


class TestPartyRoles:
    def test_user_aliases(self):
        for label in ("user", "Users", "you", "CUSTOMERS", "subscriber"):
            assert resolve_party(label).role is Role.USER

    def test_provider_aliases(self):
        for label in ("we", "Provider", "the company", "Services"):
            assert resolve_party(label).role is Role.PROVIDER

    def test_provider_name_match(self):
        assert resolve_party("OpenAI", "OpenAI").role is Role.PROVIDER
        assert resolve_party("openai's", "OpenAI").role is Role.PROVIDER
        assert resolve_party("OpenAI").role is Role.THIRD_PARTY

    def test_unknown_label(self):
        party = resolve_party("Acme Corp")
        assert party.role is Role.THIRD_PARTY
        assert party.raw_label == "Acme Corp"


class TestValidateTerm:
    def test_happy_path(self):
        doc = ingest_excerpt()
        term = validate_term(make_candidate(), doc)
        assert term.status is TermStatus.EXTRACTED
        assert term.source == SourceRef("OpenAI_ToS.txt", 108, 109)
        assert term.applicable_to[0].role is Role.USER
        assert term.term_id == term_identity(
            doc, term.statement, term.source, None
        )

    def test_missing_fields_name_the_field(self):
        doc = ingest_excerpt()
        for field in ("term", "source", "applicable_to"):
            candidate = make_candidate()
            del candidate[field]
            with pytest.raises(SchemaError) as exc:
                validate_term(candidate, doc)
            assert exc.value.kind == "field"
            assert field in str(exc.value)

    def test_non_object_candidate(self):
        with pytest.raises(SchemaError) as exc:
            validate_term(["not", "an", "object"], ingest_excerpt())
        assert exc.value.kind == "field"

    def test_statement_whitespace_collapsed(self):
        doc = ingest_excerpt()
        candidate = make_candidate(term="Users  must\nnot rely   on Output.")
        term = validate_term(candidate, doc)
        assert term.statement == "Users must not rely on Output."

    def test_statement_length_cap(self):
        doc = ingest_excerpt()
        with pytest.raises(SchemaError) as exc:
            validate_term(make_candidate(term="x" * 2001), doc)
        assert exc.value.kind == "field"

    def test_blank_statement(self):
        with pytest.raises(SchemaError):
            validate_term(make_candidate(term="   "), ingest_excerpt())

    def test_source_must_be_string(self):
        with pytest.raises(SchemaError) as exc:
            validate_term(make_candidate(source=108), ingest_excerpt())
        assert exc.value.kind == "source_format"

    def test_source_must_resolve(self):
        doc = ingest_excerpt()
        with pytest.raises(SchemaError) as exc:
            validate_term(make_candidate(source="OpenAI_ToS.txt:300"), doc)
        assert exc.value.kind == "source_range"
        with pytest.raises(SchemaError) as exc:
            validate_term(make_candidate(source="Other.txt:108"), doc)
        assert exc.value.kind == "source_range"

    def test_applicable_to_must_be_non_empty_list(self):
        doc = ingest_excerpt()
        for bad in ([], "user", [""], [42]):
            with pytest.raises(SchemaError) as exc:
                validate_term(make_candidate(applicable_to=bad), doc)
            assert exc.value.kind == "field"

    def test_unknown_party_label_warns_but_survives(self):
        doc = ingest_excerpt()
        warnings: list[str] = []
        term = validate_term(
            make_candidate(applicable_to=["OpenAI"]), doc, warnings=warnings
        )
        assert term.applicable_to[0].role is Role.THIRD_PARTY
        assert warnings and "OpenAI" in warnings[0]

    def test_provider_name_resolves_without_warning(self):
        doc = ingest_excerpt()
        warnings: list[str] = []
        term = validate_term(
            make_candidate(applicable_to=["OpenAI"]),
            doc,
            provider_name="OpenAI",
            warnings=warnings,
        )
        assert term.applicable_to[0].role is Role.PROVIDER
        assert warnings == []

    def test_aspect_stamped_and_in_identity(self):
        doc = ingest_excerpt()
        plain = validate_term(make_candidate(), doc)
        aspected = validate_term(make_candidate(), doc, aspect="privacy")
        assert aspected.aspect == "privacy"
        assert plain.term_id != aspected.term_id


def test_term_identity_sensitivity():
    excerpt = ingest_excerpt()
    raw = ingest_raw()
    ref = SourceRef("OpenAI_ToS.txt", 108, 109)
    base = term_identity(excerpt, "statement", ref, None)
    assert term_identity(excerpt, "statement", ref, None) == base
    assert term_identity(excerpt, "other", ref, None) != base
    assert term_identity(excerpt, "statement", SourceRef("OpenAI_ToS.txt", 108, 110), None) != base
    assert term_identity(raw, "statement", SourceRef("OpenAI_ToS_Raw.txt", 8, 9), None) != base


class TestDedupe:
    def build(self, statement, start, end, labels=("user",), aspect=None):
        doc = ingest_excerpt()
        return validate_term(
            {
                "term": statement,
                "source": f"OpenAI_ToS.txt:{start}-{end}",
                "applicable_to": list(labels),
            },
            doc,
            aspect=aspect,
        )

    def test_normalization_merges_variants(self):
        a = self.build("Users must not rely on Output.", 108, 109)
        b = self.build("users must not rely on output", 108, 109)
        c = self.build("Users  must not rely on Output!", 108, 109)
        merged = dedupe_terms([a, b, c])
        assert len(merged) == 1

    def test_narrowest_span_wins(self):
        wide = self.build("Users must not rely on Output.", 108, 110)
        narrow = self.build("Users must not rely on Output.", 108, 109)
        merged = dedupe_terms([wide, narrow])
        assert merged[0].source == SourceRef("OpenAI_ToS.txt", 108, 109)

    def test_span_tie_goes_to_earliest_start(self):
        later = self.build("You must evaluate Output.", 110, 111)
        earlier = self.build("You must evaluate Output.", 108, 109)
        merged = dedupe_terms([later, earlier])
        assert merged[0].source.start_line == 108

    def test_parties_union_in_first_seen_order(self):
        a = self.build("Users must not rely on Output.", 108, 109, labels=("user",))
        b = self.build("Users must not rely on Output.", 108, 109, labels=("you", "user"))
        merged = dedupe_terms([a, b])
        assert [p.raw_label for p in merged[0].applicable_to] == ["user", "you"]

    def test_different_aspects_do_not_merge(self):
        a = self.build("Users must not rely on Output.", 108, 109)
        b = self.build("Users must not rely on Output.", 108, 109, aspect="accuracy")
        assert len(dedupe_terms([a, b])) == 2

    def test_result_ordered_by_source_position(self):
        late = self.build("Our Services may provide incomplete Output.", 115, 115)
        early = self.build("Users must not rely on Output.", 108, 109)
        middle = self.build("You must evaluate Output.", 110, 111)
        merged = dedupe_terms([late, early, middle])
        assert [t.source.start_line for t in merged] == [108, 110, 115]


class TestTermJson:
    def test_compact_form_field_order(self):
        term = validate_term(make_candidate(), ingest_excerpt())
        record = term_to_json(term, extended=False)
        assert list(record) == ["term", "source", "applicable_to"]
        assert record["source"] == "OpenAI_ToS.txt:108-109"
        assert record["applicable_to"] == ["user"]

    def test_extended_form_round_trip(self):
        term = validate_term(
            make_candidate(applicable_to=["user", "OpenAI"]),
            ingest_excerpt(),
            provider_name="OpenAI",
            aspect="accuracy",
        )
        record = term_to_json(term)
        assert list(record) == [
            "term", "source", "applicable_to", "term_id", "aspect", "status",
        ]
        clone = term_from_json(record, provider_name="OpenAI")
        assert clone == term

    def test_single_line_source_has_no_dash(self):
        term = validate_term(
            make_candidate(source="OpenAI_ToS.txt:115"), ingest_excerpt()
        )
        assert term_to_json(term)["source"] == "OpenAI_ToS.txt:115"


def test_term_is_frozen():
    term = validate_term(make_candidate(), ingest_excerpt())
    with pytest.raises(AttributeError):
        term.statement = "changed"
