"""Loopback stand-in for a judge model server.

Serves claimkit's judge wire protocol on 127.0.0.1: POST a JSON body
{prompt, temperature, seed, max_tokens} and get {text} back after a fixed
delay of DELAY_S, which stands in for model latency. The reply is a
well-formed answer for whichever template the prompt was rendered from,
chosen as a pure function of the prompt. A body that lacks any of the four
fields gets 400.
GET /stats returns {"requests", "distinct_prompts"} counted since the server
started or since the last GET /reset, which returns them too and then zeroes
them.

Run: python3 perfbench/judge_server.py
It binds a free port, prints that port on its first line of output and
serves until it is terminated.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.010  # per request
REQUIRED_FIELDS = ("prompt", "temperature", "seed", "max_tokens")
ATOMICITY_KEYS = ("is_question", "single_focus", "no_conjunctions", "verifiable", "grounded")


def reply_for(prompt: str) -> str:
    """Template-shaped reply drawn from the prompt's digest."""
    h = int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:8], "big")
    if "## Verdict Criteria" in prompt:
        verdict = ("Supported", "Refuted", "Not Enough Information")[h % 3]
        return f"The answers were weighed.\n<verdict>{verdict}</verdict>"
    if "atomicity criteria" in prompt:
        # mostly YES, so atomicity factors spread over (0, 1]
        lines = "\n".join(f"{key}:{'NO' if (h >> (3 * i)) % 4 == 0 else 'YES'}"
                          for i, key in enumerate(ATOMICITY_KEYS))
        return f"Each criterion was checked.\n<answer>\n{lines}\n</answer>"
    if "## Answerability Criteria" in prompt or "## Verification Rules" in prompt:
        return f"The document was consulted.\n<answer>{int(h % 5 != 0)}</answer>"
    if "minimal set of atomic questions" in prompt:
        return "\n".join(f"{i + 1}. Is detail {i + 1} stated in the document?"
                         for i in range(1 + h % 4))
    verdict = ("Supported", "Refuted")[h % 2]
    return ("<think>checked</think>\n<question>Is it stated?</question>\n"
            f"<answer>It is stated.</answer>\n<verification>{verdict}</verification>")


class JudgeState:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.prompts: set[bytes] = set()

    def stats(self, reset: bool = False) -> dict:
        with self.lock:
            out = {"requests": self.requests, "distinct_prompts": len(self.prompts)}
            if reset:
                self.requests = 0
                self.prompts.clear()
            return out


def make_handler(state: JudgeState):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, obj: dict) -> None:
            blob = json.dumps(obj).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def do_GET(self):
            if self.path in ("/stats", "/reset"):
                self._send(200, state.stats(reset=self.path == "/reset"))
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            try:
                body = json.loads(self.rfile.read(length) or b"null")
            except ValueError:
                body = None
            if not isinstance(body, dict) or any(k not in body for k in REQUIRED_FIELDS) \
                    or not isinstance(body["prompt"], str):
                self._send(400, {"error": f"body needs {', '.join(REQUIRED_FIELDS)}"})
                return
            prompt = body["prompt"]
            digest = hashlib.sha256(prompt.encode("utf-8")).digest()
            with state.lock:
                state.requests += 1
                state.prompts.add(digest)
            time.sleep(DELAY_S)
            self._send(200, {"text": reply_for(prompt)})

        def log_message(self, format, *args):  # keep the benchmark's output clean
            pass

    return Handler


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(JudgeState()))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
