"""Corpus ingestion, tokenization, overlap, and entity counting."""

import json
import os
import re
import stat
import unicodedata

import pytest
from conftest import RefEntityCounter, ref_tokenize, tokenizer_texts
from hypothesis import example, given, settings

from claimkit.corpus import (
    ClaimRecord,
    IngestError,
    Label,
    count_tokens,
    entity_count,
    entity_spans,
    ingest_claims,
    lexical_overlap,
    read_jsonl,
    token_set,
    tokenize,
    write_claims,
)
from claimkit.funnel import atomic_write_text


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

    def test_files_are_read_in_order_with_one_id_set(self, tmp_path):
        rows = [{"id": rid, "claim": "c", "evidence": ["e"], "source": "s"} for rid in "123"]
        a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
        _write_jsonl(a, rows[:2])
        _write_jsonl(b, rows[2:])
        _write_jsonl(c, rows[2:] + rows[:1])
        assert [r.id for r in ingest_claims(a, b)] == ["1", "2", "3"]
        assert ingest_claims() == []
        with pytest.raises(IngestError) as err:
            ingest_claims(a, c)
        assert str(err.value) == f"{c} line 2: duplicate id '1'"

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        _write_jsonl(path, [{"id": "1", "claim": "c", "source": "s"}])
        with pytest.raises(IngestError):
            ingest_claims(path)

    @pytest.mark.parametrize("silver", [True, False, 0, 2.0, "2"])
    def test_silver_count_must_be_a_positive_integer(self, tmp_path, silver):
        path = tmp_path / "claims.jsonl"
        _write_jsonl(path, [{"id": "1", "claim": "c", "evidence": ["e"], "source": "s",
                             "silver_question_count": silver}])
        with pytest.raises(IngestError, match="silver_question_count"):
            ingest_claims(path)

    def test_write_claims_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        record = ClaimRecord(id="a", claim="c", evidence=["e"], source="s")
        write_claims([record], path)
        before = path.read_bytes()

        def failing():
            yield ClaimRecord(id="b", claim="c", evidence=["e"], source="s")
            raise RuntimeError("records ran out")

        with pytest.raises(RuntimeError):
            write_claims(failing(), path)
        assert path.read_bytes() == before  # neither truncated nor half written
        assert [p.name for p in tmp_path.iterdir()] == ["claims.jsonl"]  # no temp file left

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_file_mode_follows_the_umask(self, tmp_path, umask):
        saved = os.umask(umask)
        try:
            write_claims([ClaimRecord(id="a", claim="c", evidence=["e"], source="s")],
                         tmp_path / "claims.jsonl")
            atomic_write_text(tmp_path / "report.json", "{}\n")
        finally:
            os.umask(saved)
        for name in ("claims.jsonl", "report.json"):  # as open(path, "w") would leave them
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask


class TestReadJsonl:
    def test_lines_split_as_text_mode_splits_them(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"a": 1}\r\n\n{"a": "\xc3\xa9"}\r{"a": 3}')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (3, {"a": "é"}), (4, {"a": 3})]

    @pytest.mark.parametrize("line, message", [
        pytest.param("[1]", "line is not a JSON object", id="not-an-object"),
        pytest.param("{", "invalid JSON: Expecting property name", id="invalid-json"),
    ])
    def test_malformed_line_names_the_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n")
        with pytest.raises(IngestError, match=f"^{path} line 2: {re.escape(message)}"):
            list(read_jsonl(path))

    def test_bad_byte_is_charged_to_its_own_line(self, tmp_path):
        # The file spans many decoder chunks, with multibyte characters
        # across their boundaries; the decoder meets the bad byte while an
        # earlier line is read, but every line before it is still yielded.
        rows = [json.dumps({"a": "é" * 50}, ensure_ascii=False).encode() for _ in range(300)]
        rows[249] = rows[249].replace("é".encode(), b"\xe9", 1)
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"\n".join(rows) + b"\n")
        seen = []
        with pytest.raises(IngestError, match="line 250: not UTF-8: .* byte 0xe9 in position 7"):
            seen.extend(line_no for line_no, _ in read_jsonl(path))
        assert seen == list(range(1, 250))


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

    def test_lowercasing_keeps_token_boundaries(self):
        # `token_set` lowercases the whole text before it splits and strips;
        # that equals lowering each stripped token while these three premises
        # hold in the running Unicode database.
        def punct(c):
            return unicodedata.category(c).startswith("P")

        def breaks_sigma_context(c):
            # Final sigma is str.lower's only context rule: a capital sigma
            # after "A" + c is final unless c is neither cased nor case-ignorable.
            return ("A" + c + "\u03a3").lower().endswith("\u03c3")

        def not_cased_before_sigma(c):
            # a capital sigma right after c (and nothing else) lowers as non-final
            return (c + "\u03a3").lower().endswith("\u03c3")

        spaces, punctuation, context = [], [], []
        for cp in range(0x110000):
            c = chr(cp)
            low = c.lower()
            # 1. whitespace lowers to itself; nothing else lowers to whitespace
            if low != c if c.isspace() else any(ch.isspace() for ch in low):
                spaces.append(hex(cp))
            # 2. punctuation lowers to itself; nothing else lowers to punctuation
            if low != c if punct(c) else any(map(punct, low)):
                punctuation.append(hex(cp))
            # 3. no lowering context reaches across whitespace, nor across the
            #    punctuation that stripping removes from a token's edges
            if (c.isspace() and not breaks_sigma_context(c)) or (
                    punct(c) and not not_cased_before_sigma(c)):
                context.append(hex(cp))
        assert (spaces, punctuation, context) == ([], [], [])

    @settings(max_examples=400, deadline=None)
    @given(tokenizer_texts)
    @example("")
    @example("... \u00bfQu\u00e9? \u00ab\u00bb a\u0301. \u00b2\u2026 \u2014 $5 (x) \u0661\u0662,")
    @example("\u3001\u4e2d\u6587\u3002 A\u2028B\u3000c")
    @example("\u039f\u0394\u039f\u03a3. \u0391\u03a3' \u00ab\u03a3\u00bb A \u03a3 \u0130x "
             "\u03a3\u0391")  # final and non-final capital sigmas
    def test_tokenize_and_count_match_reference(self, text):
        expected = ref_tokenize(text)
        assert tokenize(text) == expected
        assert count_tokens(text) == len(expected)
        assert token_set(text) == ({t.lower() for t in expected}, len(expected))

    @settings(max_examples=400, deadline=None)
    @given(tokenizer_texts)
    def test_entity_spans_match_reference(self, text):
        assert entity_spans(text) == RefEntityCounter().entity_spans(text)


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
        # "The" is sentence-initial; "Alice Johnson" and "Paris" count
        assert entity_count("The physicist Alice Johnson moved to Paris.") == 2

    def test_heuristic_no_entities(self):
        assert entity_count("someone moved somewhere in 1921.") == 0

    def test_run_grouping(self):
        # "New York City" is one run, one span
        assert entity_count("She saw New York City yesterday.") == 1
