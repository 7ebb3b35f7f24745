"""Backend layer: templates, cache, judge plumbing, parsers, embeddings,
difficulty scoring."""

import json
import re
import threading
import time

import numpy as np
import pytest

from claimkit.backends import (
    DecodingParams,
    DiskCache,
    FixtureEmbeddingBackend,
    FixtureJudgeBackend,
    FixtureVerifierBackend,
    HttpEmbeddingBackend,
    HttpJudgeBackend,
    HttpVerifierBackend,
    JudgeParseError,
    MemoryCache,
    ProtocolError,
    TEMPLATES,
    TemplateId,
    ThreeWayVerdict,
    TransportError,
    cache_key,
    cosine,
    difficulty_score,
    difficulty_scores,
    embed,
    judge_generate,
    judge_generate_many,
    parse_atomicity,
    parse_binary_answer,
    parse_question_list,
    parse_verdict,
    prompt_digest,
    render_prompt,
    template_slots,
)
from claimkit.backends import transport
from claimkit.backends.embeddings import EMBED_CHUNK
from claimkit.backends.transport import (
    MAX_IN_FLIGHT,
    RETRIES,
    RETRY_AFTER_MAX_S,
    RETRY_BACKOFF_S,
)
from claimkit.corpus import ClaimRecord, Label
from claimkit.mock import HashEmbeddingBackend, HashJudgeBackend, HashVerifierBackend


class TestTemplates:
    def test_slot_inventory(self):
        assert template_slots(TemplateId.TRACE_GEN) == ["claim", "evidence_doc"]
        assert template_slots(TemplateId.SILVER_DECOMPOSE) == ["claim", "evidence_doc"]
        assert template_slots(TemplateId.ANSWERABILITY) == ["document", "question"]
        assert template_slots(TemplateId.ANSWER_CORRECTNESS) == ["document", "sentence"]
        assert template_slots(TemplateId.ATOMICITY_CHECKLIST) == ["claim", "question"]
        assert template_slots(TemplateId.COVERAGE_VERDICT) == ["answers", "claim"]

    def test_render_substitutes_all(self):
        out = render_prompt(TemplateId.COVERAGE_VERDICT,
                            {"answers": "1. yes", "claim": "the claim"})
        assert "1. yes" in out and "the claim" in out
        assert "{{" not in out

    def test_missing_slot_named(self):
        with pytest.raises(KeyError) as err:
            render_prompt(TemplateId.ANSWERABILITY, {"document": "d"})
        assert "question" in str(err.value)

    def test_extra_slots_ignored(self):
        out = render_prompt(TemplateId.ANSWERABILITY,
                            {"document": "d", "question": "q?", "unused": "x"})
        assert "q?" in out

    def test_all_templates_nonempty(self):
        for tid in TemplateId:
            assert TEMPLATES[tid].strip()


class TestCache:
    def test_key_sensitivity(self):
        params = DecodingParams()
        base = cache_key("t", "p", "b", params)
        assert cache_key("t2", "p", "b", params) != base
        assert cache_key("t", "p2", "b", params) != base
        assert cache_key("t", "p", "b2", params) != base
        assert cache_key("t", "p", "b", DecodingParams(seed=7)) != base
        assert cache_key("t", "p", "b", params) == base

    def test_disk_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        key = cache_key("t", "p", "b")
        assert cache.get(key) is None
        stored = cache.put(key, {"response": "hello"})
        assert stored["response"] == "hello"
        assert cache.get(key) == stored
        # sharded layout: two-hex-char subdirectory
        assert (tmp_path / "c" / key[:2] / f"{key}.json").exists()

    def test_fresh_put_reads_no_file_and_returns_what_get_reads(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path / "c")
        key = cache_key("t", "p", "b")
        record = {"response": "héllo", "vector": (0.5, 1), "nested": {"b": 1, "a": None}}
        reads = []
        real_open = open

        def spy_open(file, mode="r", *args, **kwargs):
            if not any(flag in mode for flag in "wax+"):
                reads.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy_open)
        stored = cache.put(key, record)
        assert reads == []
        assert stored == cache.get(key)
        assert reads != []  # the spy does see get's read
        assert stored["vector"] == [0.5, 1]  # the tuple comes back as a list
        assert list(stored) == sorted(record)

    def test_first_writer_wins(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        key = cache_key("t", "p", "b")
        first = cache.put(key, {"response": "one"})
        second = cache.put(key, {"response": "two"})
        assert first["response"] == "one"
        assert second["response"] == "one"

    def test_concurrent_writers_agree(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        key = cache_key("t", "p", "b")
        results = [None] * 8

        def worker(i):
            results[i] = cache.put(key, {"response": f"writer-{i}"})["response"]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1

    def test_unparseable_file_is_a_miss_and_replaced(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        key = cache_key("t", "p", "b")
        cache.put(key, {"response": "h\u00e9llo"})
        path = tmp_path / "c" / key[:2] / f"{key}.json"
        for cut in (b"", path.read_bytes()[:-3], "{\"response\": \"h\u00e9".encode()[:-1]):
            path.write_bytes(cut)  # a write cut short, in JSON or mid-character
            assert cache.get(key) is None
            assert cache.put(key, {"response": "again"})["response"] == "again"
            assert json.loads(path.read_text(encoding="utf-8")) == {"response": "again"}
            assert not list(path.parent.glob("*.tmp"))


class TestJudgePlumbing:
    def test_fixture_judge_replay(self, tmp_path):
        path = tmp_path / "fx.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"digest": prompt_digest("hello"), "response": "hi"}) + "\n")
        backend = FixtureJudgeBackend(path)
        assert backend.generate("hello", DecodingParams()) == "hi"
        with pytest.raises(TransportError):
            backend.generate("unknown prompt", DecodingParams())
        first_row = path.read_text()
        for bad_row in (json.dumps({"digest": prompt_digest("bye")}), "not json"):
            path.write_text(first_row + bad_row + "\n")
            with pytest.raises(ValueError, match=re.escape(f"{path} line 2: fixture rows need")):
                FixtureJudgeBackend(path)

    def test_judge_generate_caches(self, tmp_path):
        calls = []

        class Counting:
            backend_id = "counting"

            def generate(self, prompt, params):
                calls.append(prompt)
                return "reply"

        cache = DiskCache(tmp_path / "c")
        params = DecodingParams()
        assert judge_generate(Counting(), "p", params, cache) == "reply"
        assert judge_generate(Counting(), "p", params, cache) == "reply"
        assert len(calls) == 1

    def test_generate_many_single_flight(self):
        calls, gets = [], []

        class Counting:
            backend_id = "counting"

            def generate(self, prompt, params):
                calls.append(prompt)
                return f"reply to {prompt}"

        class CountingCache(MemoryCache):
            def get(self, key):
                gets.append(key)
                return super().get(key)

        cache, params = CountingCache(), DecodingParams()
        cache.put(cache_key("t", "hit", "counting", params), {"response": "stored"})
        requests = [("t", "b"), ("t", "a"), ("t", "b"), ("t", "hit"), ("u", "b"), ("t", "a")]
        replies = judge_generate_many(Counting(), requests, params, cache)
        assert calls == ["b", "a", "b"]  # in request order; ("u", "b") is another cache key
        assert len(gets) == len(set(gets)) == 4
        assert replies == {("t", prompt_digest("b")): "reply to b",
                           ("t", prompt_digest("a")): "reply to a",
                           ("t", prompt_digest("hit")): "stored",
                           ("u", prompt_digest("b")): "reply to b"}
        assert judge_generate(Counting(), "a", params, cache, template_id="t") == "reply to a"
        assert len(calls) == 3

    def test_generate_many_raises_earliest_failure_and_keeps_the_rest(self, judge_server):
        def respond(prompt):
            if prompt in ("p1", "p3"):
                time.sleep(0.4 if prompt == "p1" else 0.2)  # p3 fails first
                return (400 if prompt == "p1" else 404), ""
            return 200, f"ok {prompt}"

        judge_server.respond = respond
        cache, params = MemoryCache(), DecodingParams()
        backend = HttpJudgeBackend(judge_server.url)
        with pytest.raises(ProtocolError, match="400"):
            judge_generate_many(backend, [("t", f"p{i}") for i in range(6)], params, cache)
        for i in (0, 2, 4, 5):
            assert cache.get(cache_key("t", f"p{i}", backend.backend_id, params)) is not None
        assert sorted(judge_server.prompts) == [f"p{i}" for i in range(6)]

    def test_generate_many_starts_no_call_after_a_failure(self, judge_server):
        def respond(prompt):
            if prompt == "p0":
                return 404, ""
            time.sleep(0.3)
            return 200, "ok"

        judge_server.respond = respond
        with pytest.raises(ProtocolError):
            judge_generate_many(HttpJudgeBackend(judge_server.url),
                                [("t", f"p{i}") for i in range(4 * MAX_IN_FLIGHT)],
                                DecodingParams(), MemoryCache())
        # the calls in flight, plus at most one a freed worker took before the cancel
        assert len(judge_server.prompts) <= MAX_IN_FLIGHT + 1

    def test_mock_judge_deterministic(self):
        judge = HashJudgeBackend()
        params = DecodingParams()
        prompt = render_prompt(TemplateId.COVERAGE_VERDICT,
                               {"answers": "1. yes", "claim": "c"})
        assert judge.generate(prompt, params) == judge.generate(prompt, params)
        parse_verdict(judge.generate(prompt, params))  # well-formed


class TestParsers:
    def test_binary_answer(self):
        assert parse_binary_answer("reasoning...\n<answer>1</answer>") == 1
        assert parse_binary_answer("<answer>0</answer>") == 0
        # last block wins
        assert parse_binary_answer("<answer>0</answer> hmm <answer>1</answer>") == 1

    def test_binary_answer_errors(self):
        with pytest.raises(JudgeParseError):
            parse_binary_answer("no block at all")
        with pytest.raises(JudgeParseError):
            parse_binary_answer("<answer>maybe</answer>")

    def test_atomicity(self):
        reply = ("thoughts\n<answer>\nis_question:YES\nsingle_focus:NO\n"
                 "no_conjunctions:YES\nverifiable:YES\ngrounded:NO\n</answer>")
        checklist = parse_atomicity(reply)
        assert checklist.fraction_passed() == 3 / 5
        assert not checklist.single_focus

    def test_atomicity_missing_key_named(self):
        reply = "<answer>is_question:YES</answer>"
        with pytest.raises(JudgeParseError) as err:
            parse_atomicity(reply)
        assert "single_focus" in str(err.value)

    def test_verdict_variants(self):
        assert parse_verdict("<verdict>Supported</verdict>") is ThreeWayVerdict.SUPPORTED
        assert parse_verdict("<verdict>refuted.</verdict>") is ThreeWayVerdict.REFUTED
        assert parse_verdict("<verdict>Not Enough Information</verdict>") \
            is ThreeWayVerdict.NOT_ENOUGH_INFO
        with pytest.raises(JudgeParseError):
            parse_verdict("<verdict>dunno</verdict>")

    def test_question_list(self):
        reply = "1. Who moved?\n2) When was it?\n- Where to?\nNot a question line."
        assert parse_question_list(reply) == ["Who moved?", "When was it?", "Where to?"]
        with pytest.raises(JudgeParseError):
            parse_question_list("no questions here at all")


class TestEmbeddings:
    def test_unit_norm_and_cache(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        backend = HashEmbeddingBackend()
        X = embed(["alpha", "beta", "alpha"], backend, cache)
        assert X.shape == (3, 32)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0)
        assert np.allclose(X[0], X[2])  # duplicates coalesce
        assert cosine(X[0], X[0]) == pytest.approx(1.0)

        sent = []

        class Counting(HashEmbeddingBackend):
            def embed_texts(self, texts):
                sent.append(list(texts))
                return super().embed_texts(texts)

        embed(["gamma", "alpha", "delta", "gamma", "delta"], Counting(), cache)
        # each distinct miss reaches the backend once, in first-seen order
        assert sent == [["gamma", "delta"]]

        gets = []

        class CountingCache(MemoryCache):
            def get(self, key):
                gets.append(key)
                return super().get(key)

        sent.clear()
        texts = [f"text {i}" for i in range(2 * EMBED_CHUNK + 1)]
        embed(texts + texts, Counting(), CountingCache())
        assert sent == [texts[:EMBED_CHUNK], texts[EMBED_CHUNK:-1], texts[-1:]]
        assert len(gets) == len(texts)  # one cache read per distinct text

    def test_fixture_embedding(self, tmp_path):
        path = tmp_path / "vec.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"digest": prompt_digest("a"), "vector": [3.0, 4.0]}) + "\n")
        cache = MemoryCache()
        X = embed(["a"], FixtureEmbeddingBackend(path), cache)
        assert np.allclose(X[0], [0.6, 0.8])  # normalized on receipt
        with pytest.raises(TransportError):
            embed(["missing"], FixtureEmbeddingBackend(path), MemoryCache())


class TestDifficulty:
    def _record(self, label):
        return ClaimRecord(id="r", claim="c", evidence=["e"], source="s", label=label)

    def test_complement_for_refuted(self):
        class Fixed:
            backend_id = "fixed"

            def probability_supported(self, claim, evidence):
                return 0.9

        assert difficulty_score(self._record(Label.SUPPORTED), Fixed()) == 0.9
        assert difficulty_score(self._record(Label.REFUTED), Fixed()) == pytest.approx(0.1)

    def test_unlabeled_errors(self):
        with pytest.raises(ValueError):
            difficulty_score(self._record(None), HashVerifierBackend())

    def test_out_of_range_probability_rejected(self):
        class Bad:
            backend_id = "bad"

            def probability_supported(self, claim, evidence):
                return 1.5

        with pytest.raises(ValueError):
            difficulty_score(self._record(Label.SUPPORTED), Bad())

    def test_fixture_verifier(self, tmp_path):
        path = tmp_path / "p.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"digest": prompt_digest("c"), "p_supported": 0.4}) + "\n")
        backend = FixtureVerifierBackend(path)
        assert difficulty_score(self._record(Label.SUPPORTED), backend) == 0.4

    def test_scores_fetch_each_distinct_record_once(self):
        asked = []

        class Counting(HashVerifierBackend):
            def probability_supported(self, claim, evidence):
                asked.append(claim)
                return super().probability_supported(claim, evidence)

        records = [ClaimRecord(id=str(i), claim=claim, evidence=["e"], source="s",
                               label=label)
                   for i, (claim, label) in enumerate([("a", Label.SUPPORTED),
                                                       ("b", Label.REFUTED),
                                                       ("a", Label.SUPPORTED)])]
        scores = difficulty_scores(records, Counting())  # no cache: replies kept per call
        assert asked == ["a", "b"]
        assert scores == [difficulty_score(r, HashVerifierBackend()) for r in records]
        with pytest.raises(ValueError, match="no gold label"):
            difficulty_scores(records + [self._record(None)], Counting())
        assert asked == ["a", "b"]  # every record is checked before any call

    def test_cached_score_stable(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        backend = HashVerifierBackend()
        rec = self._record(Label.SUPPORTED)
        assert difficulty_score(rec, backend, cache) == difficulty_score(rec, backend, cache)


HTTP_BACKENDS = {
    "judge": (HttpJudgeBackend, lambda b: b.generate("p", DecodingParams()), "text", "hi"),
    "embedding": (HttpEmbeddingBackend, lambda b: b.embed_texts(["a"]), "vectors", [[1.0]]),
    "verifier": (HttpVerifierBackend, lambda b: b.probability_supported("c", ["e"]),
                 "p_supported", 0.25),
}


@pytest.mark.parametrize("kind", sorted(HTTP_BACKENDS))
class TestHttpFaults:
    """All three HTTP backends share one retry and reply-checking policy."""

    def _call(self, kind, server):
        cls, call, _, _ = HTTP_BACKENDS[kind]
        return call(cls(server.url))

    def test_reply_field_returned(self, kind, loopback):
        _, _, field, value = HTTP_BACKENDS[kind]
        loopback.reply = (200, json.dumps({field: value}).encode())
        assert self._call(kind, loopback) == value
        assert loopback.requests == 1

    def test_5xx_retried_then_transport_error(self, kind, loopback, monkeypatch):
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        loopback.reply = (503, b"{}")
        with pytest.raises(TransportError):
            self._call(kind, loopback)
        assert loopback.requests == 3
        # no Retry-After: an exponential backoff before each retry, none after the last
        assert sleeps == [RETRY_BACKOFF_S * 2 ** i for i in range(RETRIES)]

    def test_4xx_is_protocol_error_at_once(self, kind, loopback):
        loopback.reply = (404, b"{}")
        with pytest.raises(ProtocolError):
            self._call(kind, loopback)
        assert loopback.requests == 1

    def test_429_retried_after_retry_after(self, kind, loopback):
        _, _, field, value = HTTP_BACKENDS[kind]
        loopback.queue = [(429, b"{}", {"Retry-After": "0"})]
        loopback.reply = (200, json.dumps({field: value}).encode())
        assert self._call(kind, loopback) == value
        assert loopback.requests == 2

    def test_429_every_time_is_transport_error(self, kind, loopback, monkeypatch):
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        loopback.reply = (429, b"{}", {"Retry-After": "3600"})
        with pytest.raises(TransportError):
            self._call(kind, loopback)
        assert loopback.requests == RETRIES + 1
        assert sleeps == [RETRY_AFTER_MAX_S] * RETRIES  # capped; no sleep after the last try

    @pytest.mark.parametrize("body", [b"not json", b"[1, 2]", b'{"other": 1}'])
    def test_malformed_reply_is_protocol_error(self, kind, loopback, body):
        loopback.reply = (200, body)
        with pytest.raises(ProtocolError):
            self._call(kind, loopback)
        assert loopback.requests == 1


def test_misaligned_vectors_is_protocol_error(loopback):
    loopback.reply = (200, b'{"vectors": [[1.0], [2.0]]}')
    with pytest.raises(ProtocolError):
        HttpEmbeddingBackend(loopback.url).embed_texts(["only one"])
