import os
import random
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from askbd.exprs import DivisionByZero, Expr, Lit, make_bin


def _integer_leaf(rng: random.Random) -> Expr:
    return Lit(rng.randint(1, 12))


def random_expr(rng: random.Random, max_depth: int = 4, leaf=_integer_leaf) -> Expr:
    """Random tree with `leaf(rng)` leaves, by default integers 1-12;
    division nodes kept sound."""
    if max_depth <= 1 or rng.random() < 0.3:
        return leaf(rng)
    op = rng.choice("++--**/")
    left = random_expr(rng, max_depth - 1, leaf)
    right = random_expr(rng, max_depth - 1, leaf)
    try:
        return make_bin(op, left, right)
    except DivisionByZero:
        return make_bin("+", left, right)


@pytest.fixture
def rng():
    return random.Random(0xA5BD)


LEAF_QUESTION = (
    "Each gust of wind blows a leaf 5 feet forward along the sidewalk, and "
    "after each gust a swirl blows it back 2 feet. How far down the sidewalk "
    "has the leaf traveled after 11 gusts?"
)

LEAF_SOLUTION = (
    "Step 1. Each gust blows the leaf forward 5 feet, so 11 gusts will blow "
    "it forward $5 \\times 11 = 55$ feet. "
    "Step 2. Each swirl after a gust blows it back 2 feet, so 11 swirls will "
    "blow it back $2 \\times 11 = 22$ feet. "
    "Step 3. After 11 gusts, the leaf has traveled $55 - 22 = 33$ feet down "
    "the sidewalk."
)


@pytest.fixture
def leaf_record():
    from askbd.records import make_record, parse_structured_solution

    steps = parse_structured_solution(LEAF_SOLUTION)
    return make_record(
        question=LEAF_QUESTION,
        steps=steps,
        answer=33,
        origin="D",
    )


# steps 1 and 3 say what comes next in prose only, with no `a op b = c`
# calculation, as many GSM8K rationales do
PROSE_QUESTION = "A box holds 8 packs of 6 pens, and 11 pens are broken. How many pens are left?"

PROSE_SOLUTION = (
    "Step 1. First we find how many pens there are. "
    "Step 2. There are 8 * 6 = 48 pens. "
    "Step 3. Then we take away the broken ones. "
    "Step 4. So 48 - 11 = 37 pens are left."
)


@pytest.fixture
def prose_record():
    from askbd.records import make_record, parse_structured_solution

    return make_record(
        question=PROSE_QUESTION,
        steps=parse_structured_solution(PROSE_SOLUTION),
        answer=37,
        origin="D",
    )


class JsonHandler(BaseHTTPRequestHandler):
    """An HTTP/1.1 handler, so a client may keep its connection, that
    answers with `reply` and logs nothing."""

    protocol_version = "HTTP/1.1"

    def reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    """An HTTP server on 127.0.0.1 that counts the connections it has
    accepted and those still open."""

    daemon_threads = True

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.accepted = 0
        self.open = 0
        self._count = threading.Lock()

    def process_request(self, request, client_address):
        with self._count:
            self.accepted += 1
            self.open += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._count:
            self.open -= 1


@pytest.fixture
def loopback():
    """Starts a LoopbackServer for a handler class; each is stopped at teardown."""
    started = []

    def start(handler):
        server = LoopbackServer(handler)
        serving = threading.Thread(target=server.serve_forever, args=(0.05,))
        serving.start()
        started.append((server, serving))
        return server

    yield start
    for server, serving in started:
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)


@pytest.fixture
def no_proxies(monkeypatch):
    """An environment that names no proxy, as urllib reads it."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


def wait_until(condition, timeout=10.0):
    """Polls `condition` until it holds; fails after `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.fixture
def unclosed(monkeypatch):
    """The exceptions raised where nothing could catch them, with
    ResourceWarning made an error: a socket that only the collector
    closed shows up here once `gc.collect()` has run."""
    caught = []
    monkeypatch.setattr(sys, "unraisablehook", caught.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        yield caught
