import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from askbd.backends import (
    CAP_GENERATE,
    CAP_SCORE_TOKENS,
    BackendProfile,
    CapabilityMissing,
    ExchangeStore,
    GenerationParams,
    HttpBackend,
    MalformedResponse,
    MockScoreBackend,
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
    score_fingerprint,
    score_tokens,
)

PARAMS = GenerationParams()
MESSAGES = [{"role": "user", "content": "naive-prompt request"}]


class VirtualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
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

    def __call__(self, url, payload, headers, timeout=60.0):
        self.calls += 1
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

    def recording_profile(self, cassette, record=True):
        return make_profile(cassette=str(cassette), record=record)

    def open_recorder(self, cassette, transport, record=True):
        clock = VirtualClock()
        return open_backend(
            self.recording_profile(cassette, record), clock=clock, sleep=clock.sleep,
            transport=transport, api_key="k",
        )

    def test_record_then_replay_answers_alike_including_reasks(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        transport = FaultInjectingTransport([(200, chat_body(t)) for t in "ABCD"])
        recorder = self.open_recorder(cassette, transport)
        # ask, re-ask, then the same two for a second seed
        recorded = [recorder.generate(MESSAGES, PARAMS) for _ in range(4)]
        replay = open_backend(self.recording_profile(cassette, record=False))
        assert [replay.generate(MESSAGES, PARAMS) for _ in range(4)] == recorded == ["A"] * 4
        assert transport.calls == 1

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

    def test_strict_scripted_refuses_network(self):
        with pytest.raises(StrictScriptedViolation):
            open_backend(make_profile(), strict_scripted=True)

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
