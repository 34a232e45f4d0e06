"""Fake chat-completions endpoint that replays a cassette over loopback HTTP.

    python3 perfbench/endpoint.py --cassette CASSETTE

Binds 127.0.0.1 on a free port and prints `PORT <n>` as its only line of
output. `POST /chat/completions` answers with the cassette response whose
key is `askbd.backends.generate_fingerprint` of the request, LATENCY_S
after the request arrived; the lookup runs inside that time, so the
endpoint's own CPU work does not add to it. More than MAX_RPS requests arriving within one second get 429,
and a request with no cassette entry gets 404. `GET /stats` returns the
counters: requests, http_429, not_found and busy_s (summed handler time).
The process exits when its standard input closes, so it never outlives
the benchmark that started it.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from askbd.backends import GenerationParams, generate_fingerprint, load_cassette  # noqa: E402

# long enough that the client's CPU work is ~10% of a run, so the run
# measures request count and latency, not the machine's speed
LATENCY_S = 0.020
# two client workers at 20 ms per request reach at most ~100 requests/s, so
# the limit does not bind at the parent; more concurrency pays in 429 retries
MAX_RPS = 125


class Replay:
    """Cassette lookup, rate window and counters shared by handler threads."""

    def __init__(self, cassette: dict):
        self.cassette = cassette
        self.lock = threading.Lock()
        self.window: deque[float] = deque()
        self.stats = {"requests": 0, "http_429": 0, "not_found": 0, "busy_s": 0.0}

    def admit(self) -> bool:
        with self.lock:
            now = time.monotonic()
            self.stats["requests"] += 1
            while self.window and now - self.window[0] >= 1.0:
                self.window.popleft()
            if len(self.window) >= MAX_RPS:
                self.stats["http_429"] += 1
                return False
            self.window.append(now)
            return True

    def lookup(self, body: dict) -> str | None:
        params = GenerationParams(
            temperature=body.get("temperature", 0.0),
            max_tokens=body.get("max_tokens", 1024),
        )
        key = generate_fingerprint(body["model"], body["messages"], params)
        entry = self.cassette.get(key)
        if entry is None or "response" not in entry:
            with self.lock:
                self.stats["not_found"] += 1
            return None
        return entry["response"]

    def add_busy(self, seconds: float) -> None:
        with self.lock:
            self.stats["busy_s"] += seconds

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.stats)


def make_handler(replay: Replay):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _reply(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, replay.snapshot())
            else:
                self._reply(404, {"error": "unknown path"})

        def do_POST(self):
            started = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path.rstrip("/").endswith("/chat/completions"):
                if not replay.admit():
                    self._reply(429, {"error": "rate limited"})
                else:
                    text = replay.lookup(json.loads(body))
                    time.sleep(max(0.0, started + LATENCY_S - time.perf_counter()))
                    if text is None:
                        self._reply(404, {"error": "no cassette entry"})
                    else:
                        self._reply(200, {"choices": [
                            {"index": 0, "message": {"role": "assistant", "content": text}}
                        ]})
            else:
                self._reply(404, {"error": "unknown path"})
            replay.add_busy(time.perf_counter() - started)

        def log_message(self, format, *args):
            pass

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cassette", required=True)
    args = parser.parse_args()
    replay = Replay(load_cassette(args.cassette))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(replay))
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
