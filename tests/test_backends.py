import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

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

PARAMS = GenerationParams()
REASK = GenerationParams(attempt=1)
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

    def __call__(self, url, payload, headers, timeout=60.0):
        self.calls += 1
        self.payloads.append(payload)
        return self.responses.pop(0)


def chat_body(text):
    return {"choices": [{"message": {"content": text}}]}


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
    def test_retries_transient_429s(self):
        clock = VirtualClock()
        transport = FaultInjectingTransport(
            [(429, {}), (429, {}), (429, {}), (200, chat_body("ok"))]
        )
        backend = HttpBackend(
            make_profile(), api_key="k", clock=clock, sleep=clock.sleep, transport=transport
        )
        assert backend.generate(MESSAGES, PARAMS) == "ok"
        assert transport.calls == 4

    def test_unauthorized_not_retried(self):
        transport = FaultInjectingTransport([(401, {})])
        clock = VirtualClock()
        backend = HttpBackend(
            make_profile(), api_key="k", clock=clock, sleep=clock.sleep, transport=transport
        )
        with pytest.raises(Unauthorized):
            backend.generate(MESSAGES, PARAMS)
        assert transport.calls == 1

    def test_malformed_body(self):
        transport = FaultInjectingTransport([(200, {"weird": True})])
        clock = VirtualClock()
        backend = HttpBackend(
            make_profile(), api_key="k", clock=clock, sleep=clock.sleep, transport=transport
        )
        with pytest.raises(MalformedResponse):
            backend.generate(MESSAGES, PARAMS)

    @pytest.mark.parametrize("status, error, message", [
        (429, RateLimited, "still rate limited after 4 attempts"),
        (503, BackendError, "failed after 4 attempts"),
    ])
    def test_sleeps_only_between_attempts(self, status, error, message):
        clock = VirtualClock()
        transport = FaultInjectingTransport([(status, {})] * 4)
        backend = HttpBackend(
            make_profile(), api_key="k", clock=clock, sleep=clock.sleep, transport=transport
        )
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
        # through urllib's HTTPError, with or without a JSON body
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

    def test_attempt_marks_the_fingerprint_of_a_reask_only(self):
        first_ask = request_fingerprint("generate", "test-model", {
            "messages": MESSAGES, "temperature": 0.0, "max_tokens": 1024,
        })
        assert generate_fingerprint("test-model", MESSAGES, PARAMS) == first_ask
        assert generate_fingerprint("test-model", MESSAGES, REASK) != first_ask
        # and never goes on the wire
        transport = FaultInjectingTransport([(200, chat_body("a")), (200, chat_body("b"))])
        clock = VirtualClock()
        backend = HttpBackend(
            make_profile(), api_key="k", clock=clock, sleep=clock.sleep, transport=transport
        )
        backend.generate(MESSAGES, PARAMS)
        backend.generate(MESSAGES, REASK)
        assert transport.payloads[0] == transport.payloads[1]
        assert "attempt" not in transport.payloads[1]

    def test_score_tokens_selects_continuation_by_offset(self):
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
        transport = FaultInjectingTransport([(200, body)])
        clock = VirtualClock()
        backend = HttpBackend(
            make_profile(), api_key="k", clock=clock, sleep=clock.sleep, transport=transport
        )
        scores = backend.score_tokens(prefix, continuation)
        assert scores == [TokenScore("a", -0.2), TokenScore(" b", -0.3)]


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
    def test_constant_seven_tokens(self):
        backend = MockScoreBackend("mock:score?logprob=-1.0")
        scores = backend.score_tokens("q", "one two three four five six seven")
        assert len(scores) == 7
        assert all(s.logprob == -1.0 for s in scores)

    def test_empty_continuation(self):
        backend = MockScoreBackend("mock:score?logprob=-1.0")
        assert backend.score_tokens("q", "") == []

    def test_hash_mode_is_deterministic_and_negative(self):
        backend = MockScoreBackend("mock:score?mode=hash&scale=2.0")
        first = backend.score_tokens("q", "a b c")
        second = backend.score_tokens("q", "a b c")
        assert first == second
        assert all(s.logprob < 0 for s in first)


class TestRecordReplay:
    def test_replay_is_byte_identical(self, tmp_path):
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
        clock = VirtualClock()
        live = HttpBackend(
            make_profile(),
            api_key="k",
            clock=clock,
            sleep=clock.sleep,
            transport=FaultInjectingTransport([(200, body)]),
        )
        recorder = ExchangeStore({}, "test-model", inner=live, path=cassette)
        recorded = recorder.score_tokens("q", "xy")

        replay = ExchangeStore(load_cassette(cassette), "test-model")
        assert replay.score_tokens("q", "xy") == recorded

    def recording_profile(self, cassette):
        return make_profile(record_to=str(cassette))

    def open_recorder(self, cassette, transport):
        clock = VirtualClock()
        return open_backend(
            self.recording_profile(cassette), clock=clock, sleep=clock.sleep,
            transport=transport, api_key="k",
        )

    def replay_of(self, cassette):
        return open_backend(make_profile(endpoint=f"scripted:{cassette}"), strict_scripted=True)

    def test_record_then_replay_answers_alike_including_reasks(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        transport = FaultInjectingTransport([(200, chat_body(t)) for t in "ABCD"])
        recorder = self.open_recorder(cassette, transport)
        # ask, re-ask, then the same two for a second seed
        asks = [PARAMS, REASK, PARAMS, REASK]
        recorded = [recorder.generate(MESSAGES, params) for params in asks]
        replay = self.replay_of(cassette)
        assert [replay.generate(MESSAGES, params) for params in asks] == recorded == list("ABAB")
        assert transport.calls == 2

    def test_a_recorded_reask_reaches_the_model_and_replays(self, tmp_path, leaf_record):
        cassette = tmp_path / "cassette.jsonl"
        valid = "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>"
        transport = FaultInjectingTransport([(200, chat_body("garbled")), (200, chat_body(valid))])
        profile = self.recording_profile(cassette)
        exchanges = detect(
            leaf_record, profile, "M0", backend=self.open_recorder(cassette, transport)
        )
        assert transport.calls == 2
        assert [e.response for e in exchanges] == ["garbled", valid]
        assert outcome_of(exchanges[-1].stage, valid, len(leaf_record.steps)).valid
        replayed = detect(leaf_record, profile, "M0", backend=self.replay_of(cassette))
        assert _transcript_lines(leaf_record.record_id, "M0", replayed) == \
            _transcript_lines(leaf_record.record_id, "M0", exchanges)

    def test_a_cassette_without_its_reask_replays_it_as_unscripted(self, tmp_path, leaf_record):
        # a cassette recorded when a re-ask was answered from the store, as
        # the first ask's fingerprint, holds no line of its own for it
        cassette = tmp_path / "cassette.jsonl"
        transport = FaultInjectingTransport([(200, chat_body("garbled")), (200, chat_body("x"))])
        profile = self.recording_profile(cassette)
        detect(leaf_record, profile, "M0", backend=self.open_recorder(cassette, transport))
        first_ask, reask = cassette.read_text().splitlines(keepends=True)
        cassette.write_text(first_ask)
        replayed = detect(leaf_record, profile, "M0", backend=self.replay_of(cassette))
        assert [e.stage for e in replayed] == ["reg", "failed"]
        assert replayed[0].response == "garbled"
        key = json.loads(reask)["request_hash"]
        assert replayed[1].response == (
            f"stage failure: reg: UnscriptedRequest: no scripted response for request {key[:12]}"
        )

    def test_reopened_cassette_sends_nothing_and_keeps_one_line_per_request(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        second = [{"role": "user", "content": "another request"}]
        first = self.open_recorder(
            cassette, FaultInjectingTransport([(200, chat_body("one")), (200, chat_body("two"))])
        )
        answers = [first.generate(MESSAGES, PARAMS), first.generate(second, PARAMS)]
        transport = FaultInjectingTransport([])
        again = self.open_recorder(cassette, transport)
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
            (MESSAGES, REASK),
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

    def test_a_failed_ask_is_asked_again(self, tmp_path, fingerprinted):
        clock = VirtualClock()
        transport = FaultInjectingTransport([(500, {}), (200, chat_body("late"))])
        live = HttpBackend(make_profile(retry=RetryPolicy(max_attempts=1)), api_key="k",
                           clock=clock, sleep=clock.sleep, transport=transport)
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

    def test_an_http_profile_asks_through_a_store_only_when_it_records(self, tmp_path):
        transport = FaultInjectingTransport([(200, chat_body(t)) for t in "abc"])
        http = open_backend(make_profile(), transport=transport, api_key="k")
        assert type(http) is HttpBackend
        # with no cassette every request is sent, repeats included
        assert [http.generate(MESSAGES, PARAMS) for _ in range(2)] == ["a", "b"]
        cassette = tmp_path / "c.jsonl"
        first, second = (
            open_backend(make_profile(record_to=str(cassette)), transport=transport, api_key="k")
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

    def test_api_key_env_name(self):
        assert make_profile(name="My Prof-1").api_key_env() == "ASKBD_API_KEY_MY_PROF_1"

    def test_cache_dir_resolves_relative_cassettes(self, tmp_path, monkeypatch):
        from askbd.backends import resolve_cassette_path

        monkeypatch.setenv("ASKBD_CACHE_DIR", str(tmp_path))
        assert resolve_cassette_path("c.jsonl") == tmp_path / "c.jsonl"
        assert resolve_cassette_path("/abs/c.jsonl") == Path("/abs/c.jsonl")
        monkeypatch.delenv("ASKBD_CACHE_DIR")
        assert resolve_cassette_path("c.jsonl") == Path("c.jsonl")

    def test_a_relative_cache_dir_applies_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ASKBD_CACHE_DIR", "cache")
        profile = make_profile(record_to="c.jsonl")
        recorder = open_backend(
            profile, transport=FaultInjectingTransport([(200, chat_body("A"))]), api_key="k"
        )
        assert recorder.generate(MESSAGES, PARAMS) == "A"
        assert (tmp_path / "cache" / "c.jsonl").is_file()
        # reopened, the cassette answers; so does a scripted endpoint on it
        again = open_backend(profile, transport=FaultInjectingTransport([]), api_key="k")
        replay = open_backend(make_profile(endpoint="scripted:c.jsonl"), strict_scripted=True)
        assert again.generate(MESSAGES, PARAMS) == replay.generate(MESSAGES, PARAMS) == "A"
