"""Backend layer: templates, cache, judge plumbing, parsers, embeddings,
difficulty scoring."""

import json
import os
import re
import socket
import sqlite3
import ssl
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from conftest import CACHE_FAULTS, break_cache

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
        key = cache_key("t", "p", "b")
        with DiskCache(tmp_path / "c") as cache:
            assert cache.get(key) is None
            stored = cache.put(key, {"response": "hello"})
            assert stored["response"] == "hello"
            assert cache.get(key) == stored
        # one database file, holding the record's JSON text under its key
        assert [path.name for path in (tmp_path / "c").iterdir()] == [DiskCache.FILE_NAME]
        assert _rows(tmp_path / "c") == [(key, '{"response": "hello"}')]
        with DiskCache(tmp_path / "c") as cache:
            assert cache.get(key) == stored

    def test_shard_files_of_an_older_cache_read_cold_and_stay(self, tmp_path):
        key = cache_key("t", "p", "b")
        old = tmp_path / "c" / key[:2] / f"{key}.json"
        old.parent.mkdir(parents=True)
        old.write_text('{"response": "old"}')
        with DiskCache(tmp_path / "c") as cache:
            assert cache.get(key) is None
            assert cache.put(key, {"response": "new"}) == {"response": "new"}
        assert old.read_text() == '{"response": "old"}'

    def test_many_round_trip(self, tmp_path):
        keys = [cache_key("t", f"p{i}", "b") for i in range(3)]
        with DiskCache(tmp_path / "c") as cache:
            assert cache.get_many(keys) == {}
            cache.put(keys[0], {"response": "first"})
            stored = cache.put_many([(keys[1], {"response": "one"}), (keys[0], {"response": "x"}),
                                     (keys[2], {"response": "two"})])
            assert stored == {keys[0]: {"response": "first"}, keys[1]: {"response": "one"},
                              keys[2]: {"response": "two"}}
            assert cache.get_many(keys + keys[:1]) == stored
            assert cache.put_many([]) == {}

    def test_fresh_put_reads_no_file_and_returns_what_get_reads(self, tmp_path, monkeypatch):
        key = cache_key("t", "p", "b")
        record = {"response": "héllo", "vector": (0.5, 1), "nested": {"b": 1, "a": None}}
        reads = []
        real_open = open

        def spy_open(file, mode="r", *args, **kwargs):
            if not any(flag in mode for flag in "wax+"):
                reads.append(file)
            return real_open(file, mode, *args, **kwargs)

        with DiskCache(tmp_path / "c") as cache:
            monkeypatch.setattr("builtins.open", spy_open)
            stored = cache.put(key, record)
            assert stored == cache.get(key)
            assert reads == []  # no per-key file; the database is the store
        assert stored["vector"] == [0.5, 1]  # the tuple comes back as a list
        assert list(stored) == sorted(record)
        # the fresh write returns its own JSON text parsed
        assert json.loads(_rows(tmp_path / "c")[0][1]) == stored

    def test_first_writer_wins(self, tmp_path):
        with DiskCache(tmp_path / "c") as cache:
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
        cache.close()

    def test_writer_processes_agree(self, tmp_path):
        # Two processes, released together, put the same 1000 keys from
        # opposite ends, each with its own record; they meet somewhere in the
        # middle, and each key's first writer wins for both.
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import json, os, sys\n"
            "from claimkit.backends.cache import DiskCache\n"
            "name, root, go = sys.argv[1:]\n"
            "keys = [f'key-{i}' for i in range(1000)]\n"
            "with DiskCache(root) as cache:\n"
            "    print('ready', flush=True)\n"
            "    while not os.path.exists(go):\n"
            "        pass\n"
            "    got = {key: cache.put(key, {'writer': name})['writer']\n"
            "           for key in (keys if name == 'a' else keys[::-1])}\n"
            "print(json.dumps(got, sort_keys=True))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        go = tmp_path / "go"
        procs = [subprocess.Popen([sys.executable, "-c", script, name, str(tmp_path / "c"),
                                   str(go)], env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for name in ("a", "b")]
        try:
            ready = [proc.stdout.readline() for proc in procs]
            go.touch()
            outs = [proc.communicate(timeout=60) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert ready == ["ready\n"] * 2 and [proc.returncode for proc in procs] == [0, 0], outs
        got_a, got_b = (json.loads(out) for out, _ in outs)
        assert got_a == got_b
        with DiskCache(tmp_path / "c") as cache:
            assert {key: record["writer"] for key, record in cache.get_many(got_a).items()} == got_a

    def test_processes_opening_new_caches_together_all_open(self, tmp_path):
        # Three processes open each of 60 new caches at the same moment: each
        # marks its arrival in the trial's directory and waits for the other
        # two. Switching a new database to WAL refuses a second connection at
        # once, so without a wait some opens fail with "database is locked".
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import json, os, sys\n"
            "from claimkit.backends.cache import DiskCache\n"
            "name, root = sys.argv[1:]\n"
            "failed = []\n"
            "for trial in range(60):\n"
            "    here = os.path.join(root, str(trial))\n"
            "    os.makedirs(here, exist_ok=True)\n"
            "    open(os.path.join(here, 'at-' + name), 'w').close()\n"
            "    while len(os.listdir(here)) < 3:\n"
            "        pass\n"
            "    try:\n"
            "        with DiskCache(os.path.join(here, 'cache')) as cache:\n"
            "            cache.put('key', {'writer': name})\n"
            "    except OSError as exc:\n"
            "        failed.append(f'trial {trial}: {exc}')\n"
            "print(json.dumps(failed))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        procs = [subprocess.Popen([sys.executable, "-c", script, name, str(tmp_path)], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for name in ("a", "b", "c")]
        try:
            outs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert [proc.returncode for proc in procs] == [0, 0, 0], outs
        assert [json.loads(out) for out, _ in outs] == [[], [], []]

    def test_unparseable_file_is_a_miss_and_replaced(self, tmp_path):
        key, other = cache_key("t", "p", "b"), cache_key("t", "q", "b")
        with DiskCache(tmp_path / "c") as cache:
            cache.put(key, {"response": "h\u00e9llo"})
            cache.put(other, {"response": "kept"})
            blob = _rows(tmp_path / "c")[0][1].encode()
            for cut in (b"", blob[:-3], "{\"response\": \"h\u00e9".encode()[:-1]):
                # a row cut short, in JSON or mid-character
                with closing(sqlite3.connect(tmp_path / "c" / DiskCache.FILE_NAME)) as db, db:
                    db.execute("UPDATE responses SET blob = CAST(? AS TEXT) WHERE key = ?",
                               (cut, key))
                assert cache.get(key) is None
                assert cache.get_many([key, other]) == {other: {"response": "kept"}}
                stored = cache.put_many([(key, {"response": "again"}), (other, {"response": "x"})])
                assert stored == {key: {"response": "again"}, other: {"response": "kept"}}
                assert _rows(tmp_path / "c") == [(key, '{"response": "again"}'),
                                                 (other, '{"response": "kept"}')]

    @pytest.mark.parametrize("fault", CACHE_FAULTS)
    def test_unopenable_cache_is_os_error_naming_the_path(self, tmp_path, fault):
        root = tmp_path / "c"
        break_cache(root, fault)
        with pytest.raises(OSError, match=re.escape(str(root))):
            DiskCache(root)


def _rows(root):
    """The cache table's (key, blob) rows, in insertion order."""
    with closing(sqlite3.connect(root / DiskCache.FILE_NAME)) as db:
        return db.execute("SELECT key, blob FROM responses ORDER BY rowid").fetchall()


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
        calls, gets, puts = [], [], []

        class Counting:
            backend_id = "counting"

            def generate(self, prompt, params):
                calls.append(prompt)
                return f"reply to {prompt}"

        class CountingCache(MemoryCache):
            def get_many(self, keys):
                gets.append(list(keys))
                return super().get_many(keys)

            def put_many(self, items):
                items = list(items)
                puts.append([key for key, _ in items])
                return super().put_many(items)

        cache, params = CountingCache(), DecodingParams()
        cache.put(cache_key("t", "hit", "counting", params), {"response": "stored"})
        requests = [("t", "b"), ("t", "a"), ("t", "b"), ("t", "hit"), ("u", "b"), ("t", "a")]
        replies = judge_generate_many(Counting(), requests, params, cache)
        assert calls == ["b", "a", "b"]  # in request order; ("u", "b") is another cache key
        assert len(gets) == 1 and len(gets[0]) == len(set(gets[0])) == 4  # one read, each key once
        # each call's record stored as it returns, with one put_many
        assert puts == [[cache_key(t, prompt, "counting", params)]
                        for t, prompt in (("t", "b"), ("t", "a"), ("u", "b"))]
        # one reply per request, in request order, duplicates included
        assert replies == ["reply to b", "reply to a", "reply to b", "stored", "reply to b",
                           "reply to a"]
        assert judge_generate(Counting(), "a", params, cache, template_id="t") == "reply to a"
        assert len(calls) == 3

    @pytest.mark.parametrize("over_http", [False, True])
    def test_fetch_cached_returns_one_record_per_request_in_order(self, over_http, request):
        params = DecodingParams()
        if over_http:  # concurrent calls, finishing out of request order
            judge_server = request.getfixturevalue("judge_server")

            def respond(prompt):
                time.sleep(0.05 * (prompt == "a"))
                return 200, f"reply to {prompt}"

            judge_server.respond = respond
            backend = HttpJudgeBackend(judge_server.url)
        else:
            class Local:
                backend_id = "local"

                def generate(self, prompt, params):
                    return f"reply to {prompt}"

            backend = Local()
        cache = MemoryCache()
        cache.put("k-hit", {"response": "stored"})
        requests = [("k-a", "a"), ("k-b", "b"), ("k-a", "a"), ("k-hit", "hit"), ("k-c", "c"),
                    ("k-b", "b"), ("k-hit", "hit")]
        calls = []

        def call(batch):
            calls.append(batch)
            return [{"response": backend.generate(prompt, params)} for prompt in batch]

        records = transport.fetch_cached(backend, cache, requests, call)
        expected = ["reply to a", "reply to b", "reply to a", "stored", "reply to c",
                    "reply to b", "stored"]
        assert [record["response"] for record in records] == expected
        assert sorted(calls) == [["a"], ["b"], ["c"]]  # each distinct miss once

    @pytest.mark.parametrize("reply", [5, None, ["text"]])
    def test_non_string_reply_is_protocol_error_and_not_stored(self, tmp_path, reply):
        class Odd:
            backend_id = "odd"

            def generate(self, prompt, params):
                return reply

        fixture = tmp_path / "fx.jsonl"
        fixture.write_text(json.dumps({"digest": prompt_digest("p"), "response": reply}) + "\n")
        for backend in (Odd(), FixtureJudgeBackend(fixture)):
            cache = MemoryCache()
            with pytest.raises(ProtocolError, match="not a string"):
                judge_generate(backend, "p", DecodingParams(), cache)
            assert cache.get_many([cache_key("judge", "p", backend.backend_id,
                                             DecodingParams())]) == {}

    def test_generate_many_raises_earliest_failure_and_keeps_the_rest(self, judge_server):
        def respond(prompt):
            if prompt in ("p1", "p3"):
                time.sleep(0.4 if prompt == "p1" else 0.2)  # p3 fails first
                return (400 if prompt == "p1" else 404), ""
            if prompt == "p4":
                time.sleep(0.3)  # in flight when p3 fails, and stored all the same
            return 200, f"ok {prompt}"

        judge_server.respond = respond
        threads = set()

        class ThreadCache(MemoryCache):
            def put_many(self, items):
                threads.add(threading.get_ident())
                return super().put_many(items)

        cache, params = ThreadCache(), DecodingParams()
        backend = HttpJudgeBackend(judge_server.url)
        with pytest.raises(ProtocolError, match="400"):
            judge_generate_many(backend, [("t", f"p{i}") for i in range(6)], params, cache)
        for i in (0, 2, 4, 5):
            assert cache.get(cache_key("t", f"p{i}", backend.backend_id, params)) is not None
        assert sorted(judge_server.prompts) == [f"p{i}" for i in range(6)]
        assert threads == {threading.get_ident()}  # stored from the submitting thread only

    def test_generate_many_stores_finished_calls_before_raising(self):
        class FailsOnC:
            backend_id = "fails-on-c"

            def generate(self, prompt, params):
                if prompt == "c":
                    raise TransportError("no reply for c")
                return f"reply to {prompt}"

        cache, params = MemoryCache(), DecodingParams()
        with pytest.raises(TransportError, match="no reply for c"):
            judge_generate_many(FailsOnC(), [("t", p) for p in "abcd"], params, cache)
        assert [cache.get(cache_key("t", p, "fails-on-c", params)) is not None
                for p in "abcd"] == [True, True, False, False]

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


def _normalize_reference(vector):
    """How `embed` normalized a vector read back from a JSON list before
    vectors were stored packed; its rows must come out bit for bit the same."""
    arr = np.asarray(vector, dtype=np.float64)
    norm = np.linalg.norm(arr)
    return arr if norm == 0 else arr / norm


class ListEmbedding:
    """Replies with the vector lists in `table` exactly as given."""

    backend_id = "list-embedding"

    def __init__(self, table):
        self.table = table
        self.calls = 0

    def embed_texts(self, texts):
        self.calls += 1
        return [self.table[text] for text in texts]


AWKWARD_VECTORS = {
    "ints": [3, 4, 12],
    "negative zero": [-0.0, 1.0, -2.5],
    "subnormal": [5e-324, 1.0, 0.1],
    "only subnormal": [5e-324, 0.0, -0.0],  # its norm underflows to 0: left as it is
    "huge": [1e308, 1e308, 1.0],  # its norm overflows to inf
    "one huge": [1e308, 0.0, 0.0],
    "zero": [0.0, -0.0, 0.0],
    "zero ints": [0, 0, 0],
    "tenths": [0.1, 0.2, 0.3],
}


@pytest.fixture(params=["memory", "disk"])
def make_cache(request, tmp_path):
    """A factory of caches over one store: a `DiskCache` reopened on one
    directory, or one `MemoryCache`."""
    if request.param == "memory":
        cache = MemoryCache()
        yield lambda: cache
        return
    opened = []
    yield lambda: opened.append(DiskCache(tmp_path / "c")) or opened[-1]
    for cache in opened:
        cache.close()


class TestEmbeddings:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the huge vectors
    def test_vectors_are_bitwise_the_normalized_lists(self, make_cache):
        texts = list(AWKWARD_VECTORS)
        backend = ListEmbedding(AWKWARD_VECTORS)
        want = np.vstack([_normalize_reference(AWKWARD_VECTORS[text]) for text in texts])
        for _ in ("cold", "warm"):
            X = embed(texts + texts[:2], backend, make_cache())
            assert X.dtype == np.float64 and X.shape == (len(texts) + 2, 3)
            assert X[:len(texts)].tobytes() == want.tobytes()
            assert X[len(texts):].tobytes() == want[:2].tobytes()
        assert backend.calls == 1

        mock_texts = [f"claim number {i}" for i in range(300)]
        mock = HashEmbeddingBackend()
        want = np.vstack([_normalize_reference(vec) for vec in mock.embed_texts(mock_texts)])
        for _ in ("cold", "warm"):
            assert embed(mock_texts, mock, make_cache()).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_json_list_rows_of_an_older_cache_are_embedded_again_and_stay(self, tmp_path):
        texts = list(AWKWARD_VECTORS)
        backend = ListEmbedding(AWKWARD_VECTORS)
        old_rows = {cache_key("embedding", text, backend.backend_id):
                    {"backend_id": backend.backend_id, "vector": AWKWARD_VECTORS[text]}
                    for text in texts}
        with DiskCache(tmp_path / "c") as cache:
            cache.put_many(old_rows.items())
        want = np.vstack([_normalize_reference(AWKWARD_VECTORS[text]) for text in texts])
        for calls in (1, 1):  # embedded once, then read from the new rows
            with DiskCache(tmp_path / "c") as cache:
                assert embed(texts, backend, cache).tobytes() == want.tobytes()
            assert backend.calls == calls
        with DiskCache(tmp_path / "c") as cache:
            assert cache.get_many(old_rows) == old_rows
            new_rows = cache.get_many(cache_key("embedding-f64", text, backend.backend_id)
                                      for text in texts)
        assert len(new_rows) == len(texts)
        assert all(set(row) == {"backend_id", "vector_f64"} for row in new_rows.values())

    @pytest.mark.parametrize("vector", [["x", "y"], [[1.0, 2.0]], [[1.0], [2.0, 3.0]], [],
                                        "1.5", {"a": 1.0}, [10 ** 400]])
    def test_unusable_vector_is_protocol_error_and_not_stored(self, tmp_path, loopback,
                                                               vector):
        loopback.reply = (200, json.dumps({"vectors": [vector]}).encode())
        fixture = tmp_path / "vec.jsonl"
        fixture.write_text(json.dumps({"digest": prompt_digest("a"), "vector": vector}) + "\n")
        for backend in (HttpEmbeddingBackend(loopback.url), FixtureEmbeddingBackend(fixture)):
            with DiskCache(tmp_path / "c") as cache:
                with pytest.raises(ProtocolError, match="embedding vector"):
                    embed(["a"], backend, cache)
            assert _rows(tmp_path / "c") == []

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
            def get_many(self, keys):
                gets.append(list(keys))
                return super().get_many(keys)

        sent.clear()
        texts = [f"text {i}" for i in range(2 * EMBED_CHUNK + 1)]
        embed(texts + texts, Counting(), CountingCache())
        assert sent == [texts[:EMBED_CHUNK], texts[EMBED_CHUNK:-1], texts[-1:]]
        assert len(gets) == 1 and len(gets[0]) == len(texts)  # one read, each distinct text once

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

        cache = MemoryCache()
        assert difficulty_score(self._record(Label.SUPPORTED), Fixed(), cache) == 0.9
        assert difficulty_score(self._record(Label.REFUTED), Fixed(), cache) == pytest.approx(0.1)

    def test_unlabeled_errors(self):
        with pytest.raises(ValueError):
            difficulty_score(self._record(None), HashVerifierBackend(), MemoryCache())

    def test_out_of_range_probability_rejected(self):
        class Bad:
            backend_id = "bad"

            def probability_supported(self, claim, evidence):
                return 1.5

        with pytest.raises(ValueError):
            difficulty_score(self._record(Label.SUPPORTED), Bad(), MemoryCache())

    def test_fixture_verifier(self, tmp_path):
        path = tmp_path / "p.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"digest": prompt_digest("c"), "p_supported": 0.4}) + "\n")
        backend = FixtureVerifierBackend(path)
        assert difficulty_score(self._record(Label.SUPPORTED), backend, MemoryCache()) == 0.4

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
        scores = difficulty_scores(records, Counting(), MemoryCache())
        assert asked == ["a", "b"]
        assert scores == [difficulty_score(r, HashVerifierBackend(), MemoryCache())
                          for r in records]
        with pytest.raises(ValueError, match="no gold label"):
            difficulty_scores(records + [self._record(None)], Counting(), MemoryCache())
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
        assert loopback.content_type == "application/json"

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

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308, 201])
    def test_redirect_or_other_2xx_is_protocol_error_at_once(self, kind, loopback, status):
        # No redirect is followed: a 307 or 308 would re-post the body
        # elsewhere, and a 301, 302 or 303 would turn the POST into a GET.
        loopback.reply = (status, b"{}", {"Location": loopback.url})
        with pytest.raises(ProtocolError, match=str(status)) as info:
            self._call(kind, loopback)
        assert (loopback.requests, loopback.gets) == (1, 0)
        assert (loopback.url in str(info.value)) == (status // 100 == 3)

    def test_one_tls_context_per_https_opener(self, kind, loopback, monkeypatch):
        """An https: endpoint loads the CA store once across every attempt
        (here a failed handshake with a plain-HTTP server); http: never does."""
        loads = []
        load_default_certs = ssl.SSLContext.load_default_certs

        def counting(context, *args, **kwargs):
            loads.append(context)
            return load_default_certs(context, *args, **kwargs)

        monkeypatch.setattr(ssl.SSLContext, "load_default_certs", counting)
        monkeypatch.setattr(transport.time, "sleep", lambda s: None)
        monkeypatch.setattr(transport, "TIMEOUT_S", 0.5)  # the server may wait for a line
        cls, call, field, value = HTTP_BACKENDS[kind]
        with pytest.raises(TransportError):
            call(cls(loopback.url.replace("http:", "https:")))
        assert (len(loads), loopback.requests) == (1, 0)
        loads.clear()
        loopback.reply = (200, json.dumps({field: value}).encode())
        assert self._call(kind, loopback) == value
        assert loads == []

    def _gives_up(self, kind, url, monkeypatch):
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        cls, call, _, _ = HTTP_BACKENDS[kind]
        with pytest.raises(TransportError):
            call(cls(url))
        # a backoff before each retry, none after the last
        assert sleeps == [RETRY_BACKOFF_S * 2 ** i for i in range(RETRIES)]

    def test_closed_port_is_transport_error(self, kind, monkeypatch):
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        with socket.socket() as sock:  # a port that was free and is closed again
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        self._gives_up(kind, f"http://127.0.0.1:{port}/", monkeypatch)

    @pytest.mark.parametrize("raw", [b"", b"NOT HTTP\r\n\r\n",
                                     b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{"],
                             ids=["no-reply", "bad-status-line", "short-body"])
    def test_hang_up_is_transport_error(self, kind, hangup_server, monkeypatch, raw):
        hangup_server.raw = raw
        self._gives_up(kind, hangup_server.url, monkeypatch)
        assert hangup_server.requests == RETRIES + 1

    def test_reply_slower_than_timeout_is_transport_error(self, kind, hangup_server,
                                                          monkeypatch):
        monkeypatch.setattr(transport, "TIMEOUT_S", 0.1)
        hangup_server.stall = True
        self._gives_up(kind, hangup_server.url, monkeypatch)
        assert hangup_server.requests == RETRIES + 1

    def test_proxy_from_environment(self, kind, loopback, monkeypatch):
        """HTTP_PROXY routes a call through the proxy; NO_PROXY naming the
        endpoint's host makes the call connect to that host directly."""
        looked_up = []
        getaddrinfo = socket.getaddrinfo

        def loopback_only(host, *args, **kwargs):  # never asks a name server
            looked_up.append(host)
            if host != "127.0.0.1":
                raise socket.gaierror(socket.EAI_NONAME, "name not resolved in tests")
            return getaddrinfo(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", loopback_only)
        monkeypatch.setattr(transport.time, "sleep", lambda s: None)
        for name in ("http_proxy", "no_proxy", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", loopback.url)
        cls, call, field, value = HTTP_BACKENDS[kind]
        loopback.reply = (200, json.dumps({field: value}).encode())
        endpoint = "http://claimkit-judge.invalid/"
        assert call(cls(endpoint)) == value
        assert (loopback.requests, looked_up) == (1, ["127.0.0.1"])
        monkeypatch.setenv("NO_PROXY", "claimkit-judge.invalid")
        with pytest.raises(TransportError):
            call(cls(endpoint))
        assert loopback.requests == 1
        assert looked_up[1:] == ["claimkit-judge.invalid"] * (RETRIES + 1)


def test_misaligned_vectors_is_protocol_error(loopback):
    loopback.reply = (200, b'{"vectors": [[1.0], [2.0]]}')
    with pytest.raises(ProtocolError):
        HttpEmbeddingBackend(loopback.url).embed_texts(["only one"])
