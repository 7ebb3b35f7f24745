"""Shared scripted backends for reward and funnel tests."""

from __future__ import annotations

import heapq
import json
import re
import threading
import unicodedata
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import strategies as st

from claimkit.backends import DecodingParams, DiskCache
from claimkit.mock import HashEmbeddingBackend, HashJudgeBackend, HashVerifierBackend

ANSWERS_BLOCK = re.compile(r"<answers>\n(.*?)\n</answers>", re.DOTALL)
QUESTION_BLOCK = re.compile(r"<question>\n(.*?)\n</question>", re.DOTALL)
SENTENCE_BLOCK = re.compile(r"<sentence>\n(.*?)\n</sentence>", re.DOTALL)
NUMBERED = re.compile(r"^\d+\.\s*(.*)$")


def _parse_answers(prompt: str) -> list[str]:
    block = ANSWERS_BLOCK.search(prompt).group(1)
    out = []
    for line in block.splitlines():
        m = NUMBERED.match(line.strip())
        if m:
            out.append(m.group(1))
    return out


class ScriptedJudge:
    """Judge whose per-template behavior is a set of plain Python functions.

    coverage: answers list -> "Supported"|"Refuted"|"Not Enough Information"
    answerability / correctness: text -> 0|1
    atomicity: question -> iterable of five booleans
    Unset handlers fall back to fully positive replies.
    """

    backend_id = "scripted-judge"

    def __init__(self, coverage=None, answerability=None, correctness=None,
                 atomicity=None, raw=None):
        self.coverage = coverage or (lambda answers: "Supported")
        self.answerability = answerability or (lambda q: 1)
        self.correctness = correctness or (lambda s: 1)
        self.atomicity = atomicity or (lambda q: (True,) * 5)
        self.raw = raw  # optional full override: prompt -> reply text
        self.calls: list[str] = []

    def generate(self, prompt: str, params) -> str:
        if self.raw is not None:
            return self.raw(prompt)
        if "Verdict Criteria" in prompt:
            self.calls.append("coverage")
            verdict = self.coverage(_parse_answers(prompt))
            return f"Reasoning.\n<verdict>{verdict}</verdict>"
        if "atomicity criteria" in prompt:
            self.calls.append("atomicity")
            question = QUESTION_BLOCK.search(prompt).group(1)
            keys = ("is_question", "single_focus", "no_conjunctions",
                    "verifiable", "grounded")
            bits = list(self.atomicity(question))
            lines = "\n".join(f"{k}:{'YES' if b else 'NO'}" for k, b in zip(keys, bits))
            return f"Reasoning.\n<answer>\n{lines}\n</answer>"
        if "Answerability Criteria" in prompt:
            self.calls.append("answerability")
            question = QUESTION_BLOCK.search(prompt).group(1)
            return f"Reasoning.\n<answer>{self.answerability(question)}</answer>"
        if "Verification Rules" in prompt:
            self.calls.append("correctness")
            sentence = SENTENCE_BLOCK.search(prompt).group(1)
            return f"Reasoning.\n<answer>{self.correctness(sentence)}</answer>"
        raise AssertionError("scripted judge got an unexpected prompt")


# Arbitrary text, and text stitched from the trace grammar's own pieces, which
# reaches far more parser states than random characters do.
_TRACE_PIECES = ("<think>", "</think>", "<question>", "</question>", "<answer>", "</answer>",
                 "<verification>", "</verification>", "Supported", "Refuted", "I don't know",
                 "Is it stated?", "Yes.", " ", "\n", "<", ">", "x")
trace_texts = st.one_of(st.text(), st.lists(st.sampled_from(_TRACE_PIECES)).map("".join))


# The tokenizer as it was before `_strip_punct` gained its isalnum() fast path:
# every edge character's Unicode category is looked up. Reference for the
# equivalence tests of tokenize, count_tokens, entity spans and the rule gates.
def ref_strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def ref_tokenize(text: str) -> list[str]:
    out = []
    for raw in text.split():
        tok = ref_strip_punct(raw)
        if tok:
            out.append(tok)
    return out


class RefEntityCounter:
    """`corpus.entity_spans` as it was, re-stripping a token at every look."""

    def entity_spans(self, text: str) -> list[tuple[int, int]]:
        raw_tokens = text.split()
        sentence_initial = set()
        prev_ends_sentence = True
        for i, raw in enumerate(raw_tokens):
            if prev_ends_sentence:
                sentence_initial.add(i)
            prev_ends_sentence = raw.rstrip('"\')').endswith((".", "!", "?"))
        def capitalized(idx: int) -> bool:
            core = ref_strip_punct(raw_tokens[idx])
            return bool(core) and core[0].isupper()

        spans: list[tuple[int, int]] = []
        i = 0
        n = len(raw_tokens)
        while i < n:
            if capitalized(i):
                j = i
                while j < n and capitalized(j):
                    j += 1
                if i not in sentence_initial:
                    spans.append((i, j))
                i = j
            else:
                i += 1
        return spans


# Every character str.split() splits on, across the Unicode whitespace classes.
UNICODE_WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())

# Text mixing the classes the tokenizer treats differently: P* punctuation,
# letters, digits and other numbers, combining marks, S* symbols and
# whitespace, plus ASCII sentence punctuation, which entity spans look at.
tokenizer_texts = st.text(st.one_of(
    st.characters(categories=["P"]),
    st.characters(categories=["L"]),
    st.characters(categories=["N"]),
    st.characters(categories=["M"]),
    st.characters(categories=["S"]),
    st.sampled_from(UNICODE_WHITESPACE),
    st.sampled_from("AZaz09.!?,;:\"'()-"),
), max_size=80)


# Selection and semantic dedup as they were before gains were read from
# contiguous rows in blocks: every gain and distance reads a strided column
# S[:, row], and dedup gathers the kept rows again for every record. References
# for the equivalence tests of naive_greedy, lazy_greedy, farthest-point
# alt_select and dedup_semantic.
def _ref_gain(sim_col, coverage):
    return float(np.sum(np.maximum(sim_col - coverage, 0.0)))


def ref_naive_greedy(X, k, ids=None):
    ids = list(ids) if ids is not None else list(range(X.shape[0]))
    S = X @ X.T
    order = sorted(range(len(ids)), key=lambda r: ids[r])
    coverage = np.zeros(S.shape[0])
    selected = []
    chosen = set()
    for _ in range(k):
        best_row, best_gain = None, None
        for row in order:
            if row in chosen:
                continue
            g = _ref_gain(S[:, row], coverage)
            if best_gain is None or g > best_gain:
                best_row, best_gain = row, g
        chosen.add(best_row)
        selected.append(best_row)
        coverage = np.maximum(coverage, S[:, best_row])
    return [ids[r] for r in selected]


def ref_lazy_greedy(X, k, ids=None):
    ids = list(ids) if ids is not None else list(range(X.shape[0]))
    S = X @ X.T
    n = len(ids)
    coverage = np.zeros(n)
    heap = [(-_ref_gain(S[:, row], coverage), ids[row], row, 0) for row in range(n)]
    heapq.heapify(heap)
    selected = []
    while len(selected) < k:
        neg_gain, rid, row, stamp = heapq.heappop(heap)
        if stamp != len(selected):
            fresh = _ref_gain(S[:, row], coverage)
            heapq.heappush(heap, (-fresh, rid, row, len(selected)))
            continue
        selected.append(row)
        coverage = np.maximum(coverage, S[:, row])
    return [ids[r] for r in selected]


def ref_farthest_point(X, k, ids=None):
    ids = list(ids) if ids is not None else list(range(X.shape[0]))
    n = len(ids)
    S = X @ X.T
    order = sorted(range(n), key=lambda r: ids[r])
    totals = S.sum(axis=0)
    first = min(order, key=lambda r: (-totals[r], ids[r]))
    selected = [first]
    chosen = {first}
    min_dist = 1.0 - S[:, first]
    while len(selected) < k:
        nxt = min(
            (r for r in order if r not in chosen),
            key=lambda r: (-min_dist[r], ids[r]),
        )
        selected.append(nxt)
        chosen.add(nxt)
        min_dist = np.minimum(min_dist, 1.0 - S[:, nxt])
    return [ids[r] for r in selected]


def ref_semantic_removals(vectors, ids, threshold=0.70):
    """(removed id, reason) pairs of dedup_semantic's per-record gather loop."""
    kept, kept_rows, removed = [], [], []
    for i, rid in enumerate(ids):
        if kept_rows:
            sims = vectors[kept_rows] @ vectors[i]
            hit = int(np.argmax(sims))
            if float(sims[hit]) >= threshold:
                removed.append((rid, f"semantic-duplicate-of:{kept[hit]}"))
                continue
        kept.append(rid)
        kept_rows.append(i)
    return removed


class PlantedEmbedding:
    """Embedding backend with an explicit text -> vector table."""

    def __init__(self, table: dict, backend_id: str = "planted-embedding"):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.backend_id = backend_id

    def embed_texts(self, texts):
        return [self.table[t].tolist() for t in texts]


class _QuietHandler(BaseHTTPRequestHandler):
    def _send(self, status: int, body: bytes, headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _CannedHandler(_QuietHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.requests += 1
        self.server.content_type = self.headers.get("Content-Type")
        reply = self.server.queue.pop(0) if self.server.queue else self.server.reply
        self._send(*reply)

    def do_GET(self):
        self.server.gets += 1
        self._send(501, b"{}")


def _serve(server):
    server.url = f"http://127.0.0.1:{server.server_port}/"
    # a short poll keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def loopback(monkeypatch):
    """One-thread HTTP server on 127.0.0.1 that answers each POST with the
    next (status, body bytes[, headers]) in `server.queue`, then with
    `server.reply`, counts POSTs in `server.requests` and keeps the last
    one's Content-Type in `server.content_type`. It answers a GET with 501
    and counts it in `server.gets`."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    server.reply = (200, b"{}")
    server.queue = []
    server.requests = 0
    server.gets = 0
    yield from _serve(server)


class _ThreadedServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64  # above the client's concurrent requests


class _HangupHandler(_QuietHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            self.server.requests += 1
        if self.server.stall:
            self.rfile.read(1)  # no byte follows the body: returns once the client hangs up
        else:
            self.wfile.write(self.server.raw)


@pytest.fixture()
def hangup_server(monkeypatch):
    """Threaded server on 127.0.0.1 that reads each POST, counts it in
    `server.requests`, writes the bytes `server.raw` (none by default) and
    closes the connection. With `server.stall` set it writes nothing and
    holds the connection open until the client closes it."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = _ThreadedServer(("127.0.0.1", 0), _HangupHandler)
    server.lock = threading.Lock()
    server.requests = 0
    server.raw = b""
    server.stall = False
    yield from _serve(server)


class _JudgeHandler(_QuietHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        prompt = body["prompt"]
        with self.server.lock:
            self.server.prompts.append(prompt)
        status, reply = self.server.respond(prompt)
        self._send(status, json.dumps({"text": reply}).encode())


@pytest.fixture()
def judge_server(monkeypatch):
    """Threaded judge on 127.0.0.1 speaking the judge wire protocol. It records
    every request's prompt in `server.prompts` and answers with
    `server.respond(prompt) -> (status, text)`, by default the mock judge's
    reply with status 200."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = _ThreadedServer(("127.0.0.1", 0), _JudgeHandler)
    server.lock = threading.Lock()
    server.prompts = []
    mock = HashJudgeBackend()
    server.respond = lambda prompt: (200, mock.generate(prompt, DecodingParams()))
    yield from _serve(server)


class _RelayHandler(_QuietHandler):
    """Serves the judge, embedding and verifier wire protocols at /judge,
    /embed and /verify, answering as the mock backends do."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        kind = self.path.strip("/")
        mock = self.server.mocks[kind]
        if kind == "judge":
            params = DecodingParams(body["temperature"], body["seed"], body["max_tokens"])
            item, reply = body["prompt"], {"text": mock.generate(body["prompt"], params)}
        elif kind == "embed":
            item, reply = body["texts"], {"vectors": mock.embed_texts(body["texts"])}
        else:
            item = (body["claim"], tuple(body["evidence"]))
            reply = {"p_supported": mock.probability_supported(body["claim"], body["evidence"])}
        with self.server.lock:
            self.server.seen[kind].append(item)
        status = self.server.status.get(kind, 200)
        self._send(status, json.dumps(reply).encode() if status == 200 else b"{}")


@pytest.fixture()
def relay_server(monkeypatch):
    """Threaded server on 127.0.0.1 relaying the mock judge, embedder and
    verifier. `server.seen[kind]` lists each request's prompt, text batch or
    (claim, evidence) pair; `server.status[kind]` makes that kind reply with
    another status."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = _ThreadedServer(("127.0.0.1", 0), _RelayHandler)
    server.lock = threading.Lock()
    server.mocks = {"judge": HashJudgeBackend(), "embed": HashEmbeddingBackend(),
                    "verify": HashVerifierBackend()}
    server.seen = {kind: [] for kind in server.mocks}
    server.status = {}
    yield from _serve(server)


CACHE_FAULTS = ("not a database", "database is a directory", "cache dir is a file")


def break_cache(root, fault):
    """Make the cache directory `root` unopenable in one of CACHE_FAULTS' ways."""
    if fault == "cache dir is a file":
        root.write_text("not a directory")
    elif fault == "database is a directory":
        (root / DiskCache.FILE_NAME).mkdir(parents=True)
    else:
        root.mkdir()
        (root / DiskCache.FILE_NAME).write_text("not a database\n" * 200)
