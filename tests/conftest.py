"""Shared scripted backends for reward and funnel tests."""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

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


class PlantedEmbedding:
    """Embedding backend with an explicit text -> vector table."""

    def __init__(self, table: dict, backend_id: str = "planted-embedding"):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.backend_id = backend_id

    def embed_texts(self, texts):
        return [self.table[t].tolist() for t in texts]


class _CannedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.requests += 1
        status, body = self.server.reply
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def loopback(monkeypatch):
    """One-thread HTTP server on 127.0.0.1 that answers every POST with
    `server.reply` (status, body bytes) and counts requests in `server.requests`."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    server.reply = (200, b"{}")
    server.requests = 0
    server.url = f"http://127.0.0.1:{server.server_port}/"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()
