import base64
import gc
import json
import re
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from askbd import backends
from askbd.backends import (
    CAP_GENERATE,
    CAP_SCORE_TOKENS,
    BackendError,
    BackendProfile,
    CapabilityMissing,
    ExchangeStore,
    GenerationParams,
    HttpBackend,
    MalformedResponse,
    MockScoreBackend,
    RateLimited,
    RateLimiter,
    RetryPolicy,
    StrictScriptedViolation,
    TokenScore,
    Unauthorized,
    UnscriptedRequest,
    generate,
    generate_fingerprint,
    load_cassette,
    load_profiles,
    open_backend,
    request_fingerprint,
    score_fingerprint,
    score_tokens,
)
from askbd.cli import _transcript_lines
from askbd.detect import detect, outcome_of
from conftest import JsonHandler, wait_until

PARAMS = GenerationParams()
MESSAGES = [{"role": "user", "content": "naive-prompt request"}]


class VirtualClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def make_profile(**overrides):
    base = dict(
        name="test",
        endpoint="https://example.invalid/v1",
        model="test-model",
        capabilities=frozenset({CAP_GENERATE, CAP_SCORE_TOKENS}),
        rate_limit_per_min=1000,
        retry=RetryPolicy(max_attempts=4, backoff=0.5),
    )
    base.update(overrides)
    return BackendProfile(**base)


class FaultInjectingTransport:
    """Returns the queued (status, body) responses in order."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0
        self.payloads = []

    def __call__(self, url, payload, headers, *, connections):
        self.calls += 1
        self.payloads.append(payload)
        return self.responses.pop(0)


@pytest.fixture
def fake_transport(monkeypatch):
    """Makes a FaultInjectingTransport of the given responses the one every
    HttpBackend sends through, and returns it."""

    def install(responses):
        fake = FaultInjectingTransport(responses)
        monkeypatch.setattr(backends, "_urllib_transport", fake)
        return fake

    return install


def chat_body(text):
    return {"choices": [{"message": {"content": text}}]}


def echo_body(prompt, logprob=-0.5):
    """An echoed completion of `prompt`, one token per character, each
    scored `logprob` but the first, which has no score."""
    return {"choices": [{"logprobs": {
        "tokens": list(prompt),
        "token_logprobs": [None] + [logprob] * (len(prompt) - 1),
        "text_offset": list(range(len(prompt))),
    }}]}


class TestScripted:
    def test_echoes_scripted_response(self):
        key = generate_fingerprint("test-model", MESSAGES, PARAMS)
        backend = ExchangeStore({key: {"response": "Step 1: <correct>"}}, "test-model")
        assert backend.generate(MESSAGES, PARAMS) == "Step 1: <correct>"

    def test_strict_mode_unknown_prompt(self):
        backend = ExchangeStore({}, "test-model")
        with pytest.raises(UnscriptedRequest):
            backend.generate(MESSAGES, PARAMS)

    def test_unscripted_is_malformed_response_class(self):
        assert issubclass(UnscriptedRequest, MalformedResponse)

    def test_deterministic_across_instances(self):
        key = generate_fingerprint("test-model", MESSAGES, PARAMS)
        entries = {key: {"response": "hello"}}
        a = ExchangeStore(dict(entries), "test-model")
        b = ExchangeStore(dict(entries), "test-model")
        assert a.generate(MESSAGES, PARAMS) == b.generate(MESSAGES, PARAMS)

    def test_scripted_scores(self):
        key = score_fingerprint("test-model", "q", "a b")
        backend = ExchangeStore(
            {key: {"token_scores": [["a", -0.5], ["b", -1.5]]}}, "test-model"
        )
        assert backend.score_tokens("q", "a b") == [
            TokenScore("a", -0.5),
            TokenScore("b", -1.5),
        ]


class TestHttp:
    def test_retries_transient_429s(self, fake_transport):
        clock = VirtualClock()
        transport = fake_transport(
            [(429, {}), (429, {}), (429, {}), (200, chat_body("ok"))]
        )
        backend = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        assert transport.calls == 4

    def test_unauthorized_not_retried(self, fake_transport):
        transport = fake_transport([(401, {})])
        clock = VirtualClock()
        backend = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        with pytest.raises(Unauthorized):
            backend.generate(MESSAGES, PARAMS)
        assert transport.calls == 1

    def test_malformed_body(self, fake_transport):
        transport = fake_transport([(200, {"weird": True})])
        clock = VirtualClock()
        backend = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        with pytest.raises(MalformedResponse):
            backend.generate(MESSAGES, PARAMS)

    @pytest.mark.parametrize("status, error, message", [
        (429, RateLimited, "still rate limited after 4 attempts"),
        (503, BackendError, "failed after 4 attempts"),
    ])
    def test_sleeps_only_between_attempts(self, status, error, message, fake_transport):
        clock = VirtualClock()
        transport = fake_transport([(status, {})] * 4)
        backend = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        with pytest.raises(BackendError) as raised:
            backend.generate(MESSAGES, PARAMS)
        assert type(raised.value) is error
        assert str(raised.value) == f"https://example.invalid/v1/chat/completions {message}"
        assert transport.calls == 4
        assert clock.sleeps == [0.5, 1.0, 2.0]

    def test_a_200_body_that_is_not_json_is_a_malformed_response(self, leaf_record):
        class Html(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = b"<html>busy</html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Html)
        serving = threading.Thread(target=server.serve_forever)
        serving.start()
        try:
            profile = make_profile(endpoint=f"http://127.0.0.1:{server.server_address[1]}/v1")
            clock = VirtualClock()
            backend = open_backend(profile, clock=clock, sleep=clock.sleep, api_key="k")
            with pytest.raises(MalformedResponse, match="200 with a body that is not JSON"):
                backend.generate(MESSAGES, PARAMS)
            # in a detection it is the record's failed line
            exchanges = detect(leaf_record, profile, "M0", backend=backend)
        finally:
            server.shutdown()
            server.server_close()
            serving.join()
        assert [e.stage for e in exchanges] == ["failed"]
        assert exchanges[0].response.startswith("stage failure: reg: MalformedResponse: ")
        assert clock.sleeps == []

    def test_the_real_transport_reads_error_statuses_and_retries_them(self):
        # each reply is (status, body); an error status reaches the backend
        # with or without a JSON body
        replies = []
        asked = []

        class Scripted(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                asked.append(self.path)
                status, body = replies.pop(0)
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Scripted)
        serving = threading.Thread(target=server.serve_forever)
        serving.start()
        try:
            profile = make_profile(endpoint=f"http://127.0.0.1:{server.server_address[1]}/v1")
            clock = VirtualClock()
            backend = HttpBackend(profile, api_key="k", clock=clock, sleep=clock.sleep)
            replies[:] = [(429, b'{"error": {"message": "slow down"}}'),
                          (500, b"<html>oops</html>"),
                          (200, json.dumps(chat_body("ok")).encode())]
            assert backend.generate(MESSAGES, PARAMS) == "ok"
            assert len(asked) == 3 and replies == []
            assert clock.sleeps == [0.5, 1.0]
            asked.clear()
            replies[:] = [(401, b'{"error": "bad key"}')]
            with pytest.raises(Unauthorized):
                backend.generate(MESSAGES, PARAMS)
            assert len(asked) == 1
        finally:
            server.shutdown()
            server.server_close()
            serving.join()

    def test_a_generate_fingerprint_hashes_what_goes_on_the_wire(self, fake_transport):
        transport = fake_transport([(200, chat_body("a"))])
        clock = VirtualClock()
        backend = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        backend.generate(MESSAGES, PARAMS)
        sent = {**transport.payloads[0]}
        assert request_fingerprint("generate", sent.pop("model"), sent) == \
            generate_fingerprint("test-model", MESSAGES, PARAMS)

    def test_score_tokens_selects_continuation_by_offset(self, fake_transport):
        prefix, continuation = "question: ", "a b"
        body = {
            "choices": [
                {
                    "logprobs": {
                        "tokens": ["question", ": ", "a", " b"],
                        "token_logprobs": [None, -0.1, -0.2, -0.3],
                        "text_offset": [0, 8, 10, 11],
                    }
                }
            ]
        }
        transport = fake_transport([(200, body)])
        clock = VirtualClock()
        backend = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        scores = backend.score_tokens(prefix, continuation)
        assert scores == [TokenScore("a", -0.2), TokenScore(" b", -0.3)]


    def test_an_unexpected_status_is_not_retried(self, fake_transport):
        transport = fake_transport([(404, None)])
        clock = VirtualClock()
        backend = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        with pytest.raises(MalformedResponse, match="returned unexpected status 404"):
            backend.generate(MESSAGES, PARAMS)
        assert transport.calls == 1 and clock.sleeps == []

    @pytest.mark.parametrize("ask, body, message", [
        ("generate", chat_body(5), "message content is not text"),
        ("score", chat_body("x"), "no logprobs in response"),
        ("score", echo_body("qab", logprob=None), "missing logprob for continuation token 'a'"),
    ])
    def test_a_reply_without_what_was_asked_is_malformed(
        self, fake_transport, ask, body, message
    ):
        fake_transport([(200, body)])
        clock = VirtualClock()
        backend = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        with pytest.raises(MalformedResponse, match=message):
            if ask == "generate":
                backend.generate(MESSAGES, PARAMS)
            else:
                backend.score_tokens("q", "ab")


needs_quickack = pytest.mark.skipif(
    not hasattr(socket, "TCP_QUICKACK"), reason="connections are kept only with TCP_QUICKACK"
)


class Answering(JsonHandler):
    """Answers each chat request with `chat_body("ok")` and each score
    request with `echo_body` of its prompt, and counts them."""

    posts = 0

    def do_POST(self):
        self.payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).posts += 1
        self.answer()

    def answer(self):
        prompt = self.payload.get("prompt")
        body = chat_body("ok") if prompt is None else echo_body(prompt)
        self.reply(200, json.dumps(body).encode())


def open_live(server, max_attempts=4):
    """(an HttpBackend for `server` on a virtual clock, that clock)"""
    clock = VirtualClock()
    profile = make_profile(endpoint=server.url + "/v1",
                           retry=RetryPolicy(max_attempts=max_attempts, backoff=0.5))
    return HttpBackend(profile, api_key="k", clock=clock, sleep=clock.sleep), clock


@pytest.fixture
def live_backend():
    """open_live, with each backend closed at teardown."""
    opened = []

    def open_(server, max_attempts=4):
        backend, clock = open_live(server, max_attempts)
        opened.append(backend)
        return backend, clock

    yield open_
    for backend in opened:
        backend.close()


def handler(answer):
    """An Answering handler class of its own, answering with `answer`."""
    return type("Handler", (Answering,), {"answer": answer})


@pytest.mark.usefixtures("no_proxies")
class TestKeptAlive:
    @needs_quickack
    def test_requests_share_one_connection_until_the_backend_closes(
        self, loopback, live_backend
    ):
        def answer(self):
            if type(self).posts == 2:
                self.reply(200, b"<html>busy</html>")
            else:
                Answering.answer(self)

        server = loopback(handler(answer))
        backend, clock = live_backend(server)
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        # a 200 body that is not JSON fails its request, not the connection
        with pytest.raises(MalformedResponse, match="200 with a body that is not JSON"):
            backend.generate(MESSAGES, PARAMS)
        assert [backend.generate(MESSAGES, PARAMS) for _ in range(3)] == ["ok"] * 3
        assert server.accepted == 1 and clock.sleeps == []
        backend.close()
        wait_until(lambda: server.open == 0)

    @needs_quickack
    def test_generate_and_score_share_a_connection_each_on_its_own_path(self, loopback):
        paths = []

        def answer(self):
            paths.append(self.path)
            Answering.answer(self)

        server = loopback(handler(answer))
        backend = open_backend(make_profile(endpoint=server.url + "/v1"), api_key="k")
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        assert backend.score_tokens("q", "ab") == [TokenScore("a", -0.5), TokenScore("b", -0.5)]
        # with no store in front of it, the client sends a request asked again
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        backend.close()
        assert paths == ["/v1/chat/completions", "/v1/completions", "/v1/chat/completions"]
        assert server.accepted == 1

    def test_without_tcp_quickack_each_request_has_its_own_connection(
        self, loopback, live_backend, monkeypatch
    ):
        monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)
        server = loopback(handler(Answering.answer))
        backend, _ = live_backend(server)
        assert [backend.generate(MESSAGES, PARAMS) for _ in range(3)] == ["ok"] * 3
        assert server.accepted == 3
        wait_until(lambda: server.open == 0)

    @needs_quickack
    def test_a_reused_connection_the_server_dropped_is_sent_again_at_once(
        self, loopback, live_backend
    ):
        def answer(self):
            # answers, then closes without saying so, as a server whose
            # idle timeout ran out between two requests does
            Answering.answer(self)
            self.close_connection = True

        server = loopback(handler(answer))
        backend, clock = live_backend(server, max_attempts=1)
        assert [backend.generate(MESSAGES, PARAMS) for _ in range(3)] == ["ok"] * 3
        assert server.RequestHandlerClass.posts == 3 and server.accepted == 3
        assert clock.sleeps == []

    @needs_quickack
    def test_a_connection_is_sent_again_at_once_only_once(self, loopback, live_backend):
        def answer(self):
            # the first request is answered; every later one is dropped
            # before its status line
            if type(self).posts == 1:
                Answering.answer(self)
            self.close_connection = True

        server = loopback(handler(answer))
        backend, clock = live_backend(server, max_attempts=2)
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        with pytest.raises(BackendError, match="failed after 2 attempts"):
            backend.generate(MESSAGES, PARAMS)
        # attempt 1 on the kept connection, which the server closed, then once
        # more on a new one; after one backoff, attempt 2 on a new connection,
        # which is not sent again
        assert server.RequestHandlerClass.posts == 3 and server.accepted == 3
        assert clock.sleeps == [0.5]

    @pytest.mark.parametrize("garble", ["status line", "short body"])
    def test_a_garbled_reply_is_a_transport_failure_and_retried(
        self, loopback, live_backend, unclosed, garble
    ):
        def answer(self):
            if type(self).posts > 1:
                return Answering.answer(self)
            if garble == "status line":  # BadStatusLine
                self.wfile.write(b"garbage\r\n\r\n")
            else:  # IncompleteRead
                self.send_response(200)
                self.send_header("Content-Length", "100")
                self.end_headers()
                self.wfile.write(b'{"choices"')
            self.close_connection = True

        server = loopback(handler(answer))
        backend, clock = live_backend(server)
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        assert server.RequestHandlerClass.posts == 2 and clock.sleeps == [0.5]
        # the failed attempt's connection was closed, not left to the collector
        gc.collect()
        assert unclosed == []

    def test_no_socket_is_left_for_the_collector_to_close(self, loopback, unclosed):
        def answer(self):
            if type(self).posts % 3 == 0:
                self.close_connection = True  # dropped before its status line
            else:
                Answering.answer(self)

        server = loopback(handler(answer))
        backend, _ = open_live(server)
        answers = [backend.generate(MESSAGES, PARAMS) for _ in range(6)]
        in_threads(lambda _: backend.generate(MESSAGES, PARAMS), 4)
        backend.close()
        del backend
        gc.collect()
        assert answers == ["ok"] * 6
        assert unclosed == []

    @needs_quickack
    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_a_kept_connection_that_fails_to_send_is_closed_and_sent_again_at_once(
        self, loopback, monkeypatch, unclosed, error
    ):
        send = backends._Connection.send

        def failing_once(self, parts, data, headers):
            # a kept connection whose peer is gone fails as it sends
            if self.http.sock is not None and not failed:
                failed.append(self)
                raise error("peer gone")
            return send(self, parts, data, headers)

        failed = []
        monkeypatch.setattr(backends._Connection, "send", failing_once)
        server = loopback(handler(Answering.answer))
        backend, clock = open_live(server, max_attempts=1)
        assert [backend.generate(MESSAGES, PARAMS) for _ in range(2)] == ["ok"] * 2
        assert failed and server.accepted == 2 and clock.sleeps == []
        backend.close()
        del backend, failed
        gc.collect()
        assert unclosed == []

    def test_an_http_proxy_gets_the_absolute_url(self, loopback, monkeypatch):
        seen = []

        def answer(self):
            seen.append((self.path, self.headers["Host"],
                         self.headers["Proxy-Authorization"]))
            Answering.answer(self)

        proxy = loopback(handler(answer))
        monkeypatch.setenv("http_proxy", proxy.url.replace("//", "//ann:p%40ss@"))
        backend = HttpBackend(make_profile(endpoint="http://askbd.invalid:8080/v1"),
                              api_key="k")
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        assert backend.score_tokens("q", "ab") == [TokenScore("a", -0.5), TokenScore("b", -0.5)]
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        backend.close()
        auth = "Basic " + base64.b64encode(b"ann:p@ss").decode()
        chat = "http://askbd.invalid:8080/v1/chat/completions"
        assert seen == [(url, "askbd.invalid:8080", auth)
                        for url in (chat, "http://askbd.invalid:8080/v1/completions", chat)]
        assert proxy.accepted == (1 if hasattr(socket, "TCP_QUICKACK") else 3)

    def test_an_https_endpoint_is_tunnelled_through_its_proxy(self, loopback, monkeypatch):
        seen = []

        class Tunnel(JsonHandler):
            def do_CONNECT(self):
                self.send_response(200)
                self.end_headers()
                # the client's TLS handshake starts with a handshake record
                seen.append((self.path, self.rfile.read(1)))
                self.close_connection = True

        proxy = loopback(Tunnel)
        monkeypatch.setenv("https_proxy", proxy.url)
        profile = make_profile(endpoint="https://askbd.invalid/v1",
                               retry=RetryPolicy(max_attempts=1, backoff=0))
        backend = HttpBackend(profile, api_key="k")
        with pytest.raises(BackendError, match="failed after 1 attempts"):
            backend.generate(MESSAGES, PARAMS)
        assert seen == [("askbd.invalid:443", b"\x16")]

    def test_no_proxy_names_the_hosts_reached_directly(
        self, loopback, live_backend, monkeypatch
    ):
        proxy = loopback(handler(Answering.answer))
        server = loopback(handler(Answering.answer))
        monkeypatch.setenv("http_proxy", proxy.url)
        monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
        backend, _ = live_backend(server)
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        backend.close()
        assert (server.accepted, proxy.accepted) == (1, 0)


@pytest.mark.usefixtures("no_proxies")
class TestScoreReplyShape:
    @pytest.mark.parametrize("field, change", [
        ("tokens", lambda column: "qab"),
        ("tokens", lambda column: [*column[:-1], 5]),
        ("token_logprobs", lambda column: column[:-1]),
        ("token_logprobs", lambda column: [*column[:-1], "x"]),
        ("token_logprobs", lambda column: [*column[:-1], True]),
        # Python's json module reads the NaN that strict JSON lacks
        ("token_logprobs", lambda column: [*column[:-1], float("nan")]),
        ("token_logprobs", lambda column: None),
        ("text_offset", lambda column: column[:-1]),
        ("text_offset", lambda column: [*column, 3]),
        ("text_offset", lambda column: [*column[:-1], None]),
        ("text_offset", lambda column: [*column[:-1], 2.0]),
        ("text_offset", lambda column: [*column[:-1], False]),
    ])
    def test_a_logprobs_list_that_cannot_be_read_is_malformed(
        self, loopback, live_backend, field, change
    ):
        def answer(self):
            body = echo_body(self.payload["prompt"])
            logprobs = body["choices"][0]["logprobs"]
            logprobs[field] = change(logprobs[field])
            self.reply(200, json.dumps(body).encode())

        backend, clock = live_backend(loopback(handler(answer)))
        with pytest.raises(MalformedResponse, match=f"logprobs field '{field}' is not a list"):
            backend.score_tokens("q", "ab")
        # a reply that cannot be read is not sent again
        assert clock.sleeps == []


class TestRateLimiter:
    def test_window_never_exceeded(self):
        clock = VirtualClock()
        limiter = RateLimiter(10, clock=clock, sleep=clock.sleep)
        issued = []
        for _ in range(35):
            limiter.acquire()
            issued.append(clock.now)
            clock.now += 0.1
        for start_index, start in enumerate(issued):
            in_window = [t for t in issued if start <= t < start + 60.0]
            assert len(in_window) <= 10


class TestMockScorer:
    def test_each_word_scores_from_its_hash_in_minus_2_1_to_minus_0_1(self):
        first = MockScoreBackend().score_tokens("q", "one two three four five six seven")
        assert [s.token for s in first] == "one two three four five six seven".split()
        assert all(-2.1 < s.logprob <= -0.1 for s in first)
        assert len({s.logprob for s in first}) == 7
        assert MockScoreBackend().score_tokens("q", "one two three four five six seven") == first

    def test_empty_continuation(self):
        assert MockScoreBackend().score_tokens("q", "") == []

    @pytest.mark.parametrize("endpoint", [
        "mock:score?mode=hash&scale=2.0", "mock:score?logprob=-1.0", "mock:score?",
        "mock:scores", "mock:",
    ])
    def test_any_other_mock_endpoint_is_refused_naming_mock_score(self, endpoint):
        refusal = f"endpoint {endpoint!r}: the one mock endpoint is mock:score"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            make_profile(endpoint=endpoint, capabilities=frozenset({CAP_SCORE_TOKENS}))


class TestRecordReplay:
    def test_replay_is_byte_identical(self, tmp_path, fake_transport):
        cassette = tmp_path / "cassette.jsonl"
        body = {
            "choices": [
                {
                    "logprobs": {
                        "tokens": ["q", "x", "y"],
                        "token_logprobs": [None, -0.25, -0.75],
                        "text_offset": [0, 1, 2],
                    }
                }
            ]
        }
        fake_transport([(200, body)])
        clock = VirtualClock()
        live = HttpBackend(make_profile(), api_key="k", clock=clock, sleep=clock.sleep)
        recorder = ExchangeStore({}, "test-model", inner=live, path=cassette)
        recorded = recorder.score_tokens("q", "xy")

        replay = ExchangeStore(load_cassette(cassette), "test-model")
        assert replay.score_tokens("q", "xy") == recorded

    def recording_profile(self, cassette):
        return make_profile(record_to=str(cassette))

    def open_recorder(self, cassette):
        clock = VirtualClock()
        return open_backend(
            self.recording_profile(cassette), clock=clock, sleep=clock.sleep, api_key="k"
        )

    def replay_of(self, cassette):
        return open_backend(make_profile(endpoint=f"scripted:{cassette}"), strict_scripted=True)

    def test_record_then_replay_answers_alike(self, tmp_path, fake_transport):
        cassette = tmp_path / "cassette.jsonl"
        second = [{"role": "user", "content": "another request"}]
        transport = fake_transport([(200, chat_body(t)) for t in "ABCD"])
        recorder = self.open_recorder(cassette)
        # two requests, then the same two for a second seed
        asks = [MESSAGES, second, MESSAGES, second]
        recorded = [recorder.generate(messages, PARAMS) for messages in asks]
        replay = self.replay_of(cassette)
        assert [replay.generate(messages, PARAMS) for messages in asks] == recorded == list("ABAB")
        assert transport.calls == 2

    def test_a_garbled_grading_reply_is_recorded_once_and_replays(
        self, tmp_path, leaf_record, fake_transport
    ):
        cassette = tmp_path / "cassette.jsonl"
        transport = fake_transport([(200, chat_body("garbled")), (200, chat_body("x"))])
        profile = self.recording_profile(cassette)
        exchanges = detect(leaf_record, profile, "M0", backend=self.open_recorder(cassette))
        assert transport.calls == 1
        assert [(e.stage, e.response) for e in exchanges] == [("reg", "garbled")]
        assert not outcome_of("reg", "garbled", len(leaf_record.steps)).valid
        assert len(cassette.read_text().splitlines()) == 1
        replayed = detect(leaf_record, profile, "M0", backend=self.replay_of(cassette))
        assert _transcript_lines(leaf_record.record_id, "M0", replayed, {}) == \
            _transcript_lines(leaf_record.record_id, "M0", exchanges, {})

    def test_a_cassette_line_of_an_old_reask_is_loaded_and_never_asked_for(
        self, tmp_path, leaf_record, fake_transport
    ):
        # a re-ask was once a request of its own, whose fingerprint also
        # hashed an `attempt` of 1 into its payload
        cassette = tmp_path / "cassette.jsonl"
        fake_transport([(200, chat_body("garbled"))])
        profile = self.recording_profile(cassette)
        first = detect(leaf_record, profile, "M0", backend=self.open_recorder(cassette))
        payload = {"messages": [{"role": "user", "content": first[0].prompt}],
                   "temperature": 0.0, "max_tokens": 1024, "attempt": 1}
        reask = request_fingerprint("generate", profile.model, payload)
        with open(cassette, "a") as handle:
            handle.write(json.dumps({"request_hash": reask, "response": "valid"}) + "\n")
        replay = self.replay_of(cassette)
        assert reask in replay.entries
        assert detect(leaf_record, profile, "M0", backend=replay) == first

    def test_reopened_cassette_sends_nothing_and_keeps_one_line_per_request(
        self, tmp_path, fake_transport
    ):
        cassette = tmp_path / "cassette.jsonl"
        second = [{"role": "user", "content": "another request"}]
        fake_transport([(200, chat_body("one")), (200, chat_body("two"))])
        first = self.open_recorder(cassette)
        answers = [first.generate(MESSAGES, PARAMS), first.generate(second, PARAMS)]
        transport = fake_transport([])
        again = self.open_recorder(cassette)
        assert [again.generate(MESSAGES, PARAMS), again.generate(second, PARAMS)] == answers
        assert transport.calls == 0
        hashes = [json.loads(line)["request_hash"] for line in cassette.read_text().splitlines()]
        assert sorted(hashes) == sorted(
            {generate_fingerprint("test-model", m, PARAMS) for m in (MESSAGES, second)}
        )


class CountingGenerator:
    """A live transport stand-in that answers after `delay` seconds."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, messages, params):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        return "answer to " + messages[0]["content"]


def in_threads(work, n_threads):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [pool.submit(work, i) for i in range(n_threads)]
            return [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)


class TestStoreThreads:
    def test_four_threads_append_only_whole_lines(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        inner = CountingGenerator()
        store = ExchangeStore({}, "test-model", inner=inner, path=cassette)

        def record(thread):
            for i in range(50):
                prompt = [{"role": "user", "content": f"thread {thread} prompt {i} " + "x" * 500}]
                store.generate(prompt, PARAMS)

        in_threads(record, 4)
        lines = cassette.read_text(encoding="utf-8").splitlines()
        assert len(lines) == inner.calls == 200
        entries = [json.loads(line) for line in lines]
        assert {e["request_hash"] for e in entries} == set(store.entries)
        assert all(e["response"].startswith("answer to thread ") for e in entries)
        assert store._asking == {}

    def test_a_failed_ask_keeps_its_lock_until_a_retry_is_answered(self):
        inner = CountingGenerator()
        answer = inner.generate
        inner.generate = lambda messages, params: 1 / 0
        store = ExchangeStore({}, "test-model", inner=inner)
        with pytest.raises(ZeroDivisionError):
            store.generate(MESSAGES, PARAMS)
        assert len(store._asking) == 1
        inner.generate = answer
        assert store.generate(MESSAGES, PARAMS) == "answer to naive-prompt request"
        assert store._asking == {}

    def test_concurrent_misses_on_one_request_ask_once(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        inner = CountingGenerator(delay=0.05)
        store = ExchangeStore({}, "test-model", inner=inner, path=cassette)
        answers = in_threads(lambda _: store.generate(MESSAGES, PARAMS), 4)
        assert answers == ["answer to naive-prompt request"] * 4
        assert inner.calls == 1
        assert len(cassette.read_text().splitlines()) == 1


@pytest.fixture
def fingerprinted(monkeypatch):
    """The requests `backends.generate_fingerprint` is called on, in order."""
    seen = []
    real = backends.generate_fingerprint

    def counting(model, messages, params):
        seen.append((messages[0]["content"], params))
        return real(model, messages, params)

    monkeypatch.setattr(backends, "generate_fingerprint", counting)
    return seen


def scripted_store(requests):
    """A scripted store that answers each (messages, params) in `requests`
    with its own response, `answer <i>`."""
    entries = {
        generate_fingerprint("test-model", messages, params): {"response": f"answer {i}"}
        for i, (messages, params) in enumerate(requests)
    }
    return ExchangeStore(entries, "test-model")


class TestStoreMemo:
    def test_a_repeated_request_is_fingerprinted_once(self, fingerprinted):
        store = scripted_store([(MESSAGES, PARAMS)])
        # equal requests built anew each time, as each detection builds its prompt
        answers = [store.generate([dict(MESSAGES[0])], GenerationParams()) for _ in range(3)]
        assert answers == ["answer 0"] * 3
        assert fingerprinted == [(MESSAGES[0]["content"], PARAMS)]

    def test_any_other_field_is_another_request(self, fingerprinted):
        message = MESSAGES[0]
        requests = [
            (MESSAGES, PARAMS),
            (MESSAGES, GenerationParams(temperature=0.7)),
            (MESSAGES, GenerationParams(max_tokens=10)),
            ([{**message, "role": "system"}], PARAMS),
            ([{**message, "content": "another request"}], PARAMS),
        ]
        store = scripted_store(requests)
        for _ in range(2):
            answers = [store.generate(messages, params) for messages, params in requests]
            assert answers == [f"answer {i}" for i in range(len(requests))]
        assert len(fingerprinted) == len(requests)

    def test_an_unscripted_request_raises_on_every_ask(self, fingerprinted):
        store = ExchangeStore({}, "test-model")
        for _ in range(3):
            with pytest.raises(UnscriptedRequest):
                store.generate(MESSAGES, PARAMS)
        assert len(fingerprinted) == 3

    def test_a_failed_ask_is_asked_again(self, tmp_path, fingerprinted, fake_transport):
        clock = VirtualClock()
        transport = fake_transport([(500, {}), (200, chat_body("late"))])
        live = HttpBackend(make_profile(retry=RetryPolicy(max_attempts=1)), api_key="k",
                           clock=clock, sleep=clock.sleep)
        store = ExchangeStore({}, "test-model", inner=live, path=tmp_path / "cassette.jsonl")
        with pytest.raises(BackendError):
            store.generate(MESSAGES, PARAMS)
        assert [store.generate(MESSAGES, PARAMS) for _ in range(2)] == ["late"] * 2
        assert transport.calls == 2 and len(fingerprinted) == 2
        assert len((tmp_path / "cassette.jsonl").read_text().splitlines()) == 1

    def test_a_recording_store_asks_and_records_a_repeated_request_once(
        self, tmp_path, fingerprinted
    ):
        cassette = tmp_path / "cassette.jsonl"
        inner = CountingGenerator(delay=0.05)
        store = ExchangeStore({}, "test-model", inner=inner, path=cassette)
        # four threads at once, then the same request twice more in the run
        answers = in_threads(lambda _: store.generate(MESSAGES, PARAMS), 4)
        answers += [store.generate(MESSAGES, PARAMS) for _ in range(2)]
        assert answers == ["answer to naive-prompt request"] * 6
        assert inner.calls == 1
        assert len(cassette.read_text().splitlines()) == 1
        # only threads that missed before the first answer was remembered
        assert 1 <= len(fingerprinted) <= 4


class TestModuleOps:
    def test_capability_checks(self):
        profile = make_profile(capabilities=frozenset({CAP_GENERATE}))
        with pytest.raises(CapabilityMissing):
            score_tokens(profile, "q", "x", backend=object())
        profile = make_profile(capabilities=frozenset({CAP_SCORE_TOKENS}))
        with pytest.raises(CapabilityMissing):
            generate(profile, MESSAGES, backend=object())

    def test_empty_continuation_short_circuits(self):
        profile = make_profile()
        assert score_tokens(profile, "q", "", backend=object()) == []

    def test_strict_scripted_refuses_network(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        cassette.write_text("")
        for profile in (make_profile(), make_profile(record_to=str(cassette))):
            with pytest.raises(StrictScriptedViolation):
                open_backend(profile, strict_scripted=True)

    def test_an_http_profile_asks_through_a_store_only_when_it_records(
        self, tmp_path, fake_transport
    ):
        transport = fake_transport([(200, chat_body(t)) for t in "abc"])
        http = open_backend(make_profile(), api_key="k")
        assert type(http) is HttpBackend
        # with no cassette every request is sent, repeats included
        assert [http.generate(MESSAGES, PARAMS) for _ in range(2)] == ["a", "b"]
        cassette = tmp_path / "c.jsonl"
        first, second = (
            open_backend(make_profile(record_to=str(cassette)), api_key="k")
            for _ in range(2)
        )
        assert isinstance(first, ExchangeStore) and isinstance(first.inner, HttpBackend)
        assert first is not second and first.path == cassette
        assert [first.generate(MESSAGES, PARAMS) for _ in range(2)] == ["c", "c"]
        assert transport.calls == 3

    def test_open_scripted_endpoint(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        key = generate_fingerprint("m", MESSAGES, PARAMS)
        cassette.write_text(json.dumps({"request_hash": key, "response": "yo"}) + "\n")
        profile = make_profile(endpoint=f"scripted:{cassette}", model="m")
        backend = open_backend(profile, strict_scripted=True)
        assert backend.generate(MESSAGES, PARAMS) == "yo"


class TestProfilesFile:
    def test_load(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(
            json.dumps(
                {
                    "profiles": [
                        {
                            "name": "demo",
                            "endpoint": "scripted:cassette.jsonl",
                            "model": "demo-model",
                            "capabilities": ["generate"],
                            "rate_limit_per_min": 30,
                            "retry": {"max_attempts": 2, "backoff": 0.1},
                        }
                    ]
                }
            )
        )
        profiles = load_profiles(path)
        assert profiles["demo"].model == "demo-model"
        assert profiles["demo"].retry.max_attempts == 2

    def test_out_of_range_values_raise(self):
        with pytest.raises(ValueError):
            make_profile(rate_limit_per_min=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    @pytest.mark.parametrize("endpoint", ["scripted:cassette.jsonl", "mock:score"])
    def test_record_to_is_refused_on_an_endpoint_that_sends_no_request(self, endpoint):
        refusal = f"record_to needs an http(s) endpoint; {endpoint!r}"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            make_profile(endpoint=endpoint, capabilities=frozenset({CAP_SCORE_TOKENS}),
                         record_to="rec.jsonl")

    def test_api_key_env_name(self):
        assert make_profile(name="My Prof-1").api_key_env() == "ASKBD_API_KEY_MY_PROF_1"

    def test_a_relative_cassette_path_resolves_against_the_working_directory(
        self, tmp_path, monkeypatch, fake_transport
    ):
        monkeypatch.chdir(tmp_path)
        profile = make_profile(record_to="cache/c.jsonl")
        fake_transport([(200, chat_body("A"))])
        recorder = open_backend(profile, api_key="k")
        assert recorder.generate(MESSAGES, PARAMS) == "A"
        assert (tmp_path / "cache" / "c.jsonl").is_file()
        # reopened, the cassette answers; so does a scripted endpoint on it
        fake_transport([])
        again = open_backend(profile, api_key="k")
        replay = open_backend(make_profile(endpoint="scripted:cache/c.jsonl"),
                              strict_scripted=True)
        assert again.generate(MESSAGES, PARAMS) == replay.generate(MESSAGES, PARAMS) == "A"
