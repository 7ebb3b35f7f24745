"""Corpus ingestion, tokenization, overlap, and entity counting."""

import json
import unicodedata

import pytest
from conftest import RefEntityCounter, ref_tokenize, tokenizer_texts
from hypothesis import example, given, settings

from claimkit.corpus import (
    ClaimRecord,
    HeuristicEntityCounter,
    IngestError,
    Label,
    count_tokens,
    entity_count,
    ingest_claims,
    lexical_overlap,
    tokenize,
    write_claims,
)


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestIngest:
    def test_round_trip(self, tmp_path):
        records = [
            ClaimRecord(id="a", claim="Alice moved to Paris.", evidence=["e1", "e2"],
                        source="src", label=Label.SUPPORTED, silver_question_count=3),
            ClaimRecord(id="b", claim="Boris stayed home.", evidence=["e"],
                        source="src", label=None),
        ]
        path = tmp_path / "claims.jsonl"
        write_claims(records, path)
        back = ingest_claims(path)
        assert [r.id for r in back] == ["a", "b"]
        assert back[0].label is Label.SUPPORTED
        assert back[0].silver_question_count == 3
        assert back[1].label is None

    def test_label_mapping(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        _write_jsonl(path, [
            {"id": "1", "claim": "c", "evidence": ["e"], "source": "s", "label": "SUPPORTS"},
            {"id": "2", "claim": "c", "evidence": ["e"], "source": "s", "label": "contradiction"},
        ])
        records = ingest_claims(path)
        assert records[0].label is Label.SUPPORTED
        assert records[1].label is Label.REFUTED

    def test_unknown_label_errors_with_line(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        _write_jsonl(path, [
            {"id": "1", "claim": "c", "evidence": ["e"], "source": "s", "label": "Supported"},
            {"id": "2", "claim": "c", "evidence": ["e"], "source": "s", "label": "maybe"},
        ])
        with pytest.raises(IngestError) as err:
            ingest_claims(path)
        assert err.value.line_no == 2

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        _write_jsonl(path, [
            {"id": "1", "claim": "c", "evidence": ["e"], "source": "s"},
            {"id": "1", "claim": "c", "evidence": ["e"], "source": "s"},
        ])
        with pytest.raises(IngestError):
            ingest_claims(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        _write_jsonl(path, [{"id": "1", "claim": "c", "source": "s"}])
        with pytest.raises(IngestError):
            ingest_claims(path)


class TestTokenize:
    def test_punctuation_stripped(self):
        assert tokenize('He said, "hello!" (twice).') == ["He", "said", "hello", "twice"]

    def test_count(self):
        assert count_tokens("one two  three.") == 3
        assert count_tokens("") == 0

    def test_internal_punctuation_kept(self):
        assert tokenize("o'clock, state-of-the-art") == ["o'clock", "state-of-the-art"]

    def test_no_alphanumeric_code_point_is_punctuation(self):
        # The fast path returns a token with alphanumeric ends unstripped; that
        # is exact only while this holds in the running Unicode database.
        offenders = [hex(cp) for cp in range(0x110000)
                     if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")]
        assert offenders == []

    @settings(max_examples=400, deadline=None)
    @given(tokenizer_texts)
    @example("")
    @example("... \u00bfQu\u00e9? \u00ab\u00bb a\u0301. \u00b2\u2026 \u2014 $5 (x) \u0661\u0662,")
    @example("\u3001\u4e2d\u6587\u3002 A\u2028B\u3000c")
    def test_tokenize_and_count_match_reference(self, text):
        expected = ref_tokenize(text)
        assert tokenize(text) == expected
        assert count_tokens(text) == len(expected)

    @settings(max_examples=400, deadline=None)
    @given(tokenizer_texts)
    def test_entity_spans_match_reference(self, text):
        assert HeuristicEntityCounter().entity_spans(text) == RefEntityCounter().entity_spans(text)


class TestLexicalOverlap:
    def test_identity_is_one(self):
        claim = "Alice moved to Paris in 1921."
        assert lexical_overlap(claim, claim) == 1.0

    def test_disjoint_is_zero(self):
        assert lexical_overlap("Alice moved", "Boris stayed") == 0.0

    def test_partial(self):
        # content tokens: alice, moved, paris; evidence hits 2 of 3
        assert lexical_overlap("Alice moved to Paris.", "Alice lives in Paris.") == 2 / 3

    def test_stopword_only_claim_falls_back(self):
        assert lexical_overlap("the and of", "the and of") == 1.0

    def test_empty_claim_errors(self):
        with pytest.raises(ValueError):
            lexical_overlap("", "evidence")


class TestEntityCount:
    def test_heuristic_skips_sentence_initial(self):
        ner = HeuristicEntityCounter()
        # "The" is sentence-initial; "Alice Johnson" and "Paris" count
        assert entity_count("The physicist Alice Johnson moved to Paris.", ner) == 2

    def test_heuristic_no_entities(self):
        ner = HeuristicEntityCounter()
        assert entity_count("someone moved somewhere in 1921.", ner) == 0

    def test_run_grouping(self):
        ner = HeuristicEntityCounter()
        # "New York City" is one run, one span
        assert entity_count("She saw New York City yesterday.", ner) == 1

    def test_backend_failure_propagates(self):
        class Boom:
            def entity_spans(self, text):
                raise RuntimeError("ner offline")

        with pytest.raises(RuntimeError):
            entity_count("Alice", Boom())
