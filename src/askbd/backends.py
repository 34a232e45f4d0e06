"""Text-generation and token-scoring transports.

One wire format (chat completions for generation, echoed completions for
per-token log-probabilities) and one transport per endpoint scheme: an
exchange store that replays a `scripted:` cassette; a deterministic
offline `mock:` scorer; or, for an `http(s)` endpoint, an HTTP client
with retries and a sliding-window rate limiter, behind an exchange store
that records into the profile's `record_to` cassette when it has one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .records import (
    SchemaViolation,
    from_json,
    jsonl_line,
    open_output,
    read_json_file,
    read_jsonl_lines,
)

log = logging.getLogger(__name__)

CAP_GENERATE = "generate"
CAP_SCORE_TOKENS = "score_tokens"
CAPABILITIES = frozenset({CAP_GENERATE, CAP_SCORE_TOKENS})

API_KEY_ENV_PREFIX = "ASKBD_API_KEY_"
CACHE_DIR_ENV = "ASKBD_CACHE_DIR"


class BackendError(RuntimeError):
    pass


class RateLimited(BackendError):
    pass


class MalformedResponse(BackendError):
    pass


class Unauthorized(BackendError):
    pass


class CapabilityMissing(BackendError):
    pass


class UnscriptedRequest(MalformedResponse):
    """A request the exchange store holds no answer for and has no transport to ask."""


class StrictScriptedViolation(BackendError):
    """A network transport was requested while strict-scripted is active."""


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 4
    backoff: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if not (self.backoff >= 0 and math.isfinite(self.backoff)):
            raise ValueError(f"backoff must be a finite number of at least 0, got {self.backoff}")


@dataclass(frozen=True)
class BackendProfile:
    name: str
    endpoint: str
    model: str
    capabilities: frozenset[str] = frozenset({CAP_GENERATE})
    rate_limit_per_min: int = 60
    retry: RetryPolicy = RetryPolicy()
    record_to: str | None = None

    def __post_init__(self):
        # the name is the first part of each transcript's file name
        if not self.name or any(c in self.name for c in "/\\\0"):
            raise ValueError("name must be a non-empty file name without /, \\ or NUL, "
                             f"got {self.name!r}")
        if not self.capabilities <= CAPABILITIES:
            raise ValueError(f"capabilities must be among {sorted(CAPABILITIES)}")
        if self.rate_limit_per_min < 1:
            raise ValueError(
                f"rate_limit_per_min must be at least 1, got {self.rate_limit_per_min}"
            )

    def api_key_env(self) -> str:
        slug = re.sub(r"[^A-Za-z0-9]", "_", self.name).upper()
        return API_KEY_ENV_PREFIX + slug


@dataclass(frozen=True)
class ProfilesFile:
    """The top level of a profiles file."""

    profiles: tuple[BackendProfile, ...]

    def __post_init__(self):
        names = [profile.name for profile in self.profiles]
        if len(set(names)) < len(names):
            raise ValueError(f"profiles: a name is used twice in {names}")


@dataclass(frozen=True)
class TokenScore:
    token: str
    logprob: float  # natural log, <= 0


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    max_tokens: int = 1024
    # 1 on a re-ask: it tells the re-ask's fingerprint from the first ask's
    # and never goes on the wire
    attempt: int = 0


Messages = Sequence[Mapping[str, str]]


# built once; `encode` keeps no state between calls, so threads share it
_FINGERPRINT_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def request_fingerprint(kind: str, model: str, payload: Mapping) -> str:
    """Stable hash of a normalized request. No request carries a seed, so
    every seed of a run replays the same exchanges."""
    body = _FINGERPRINT_ENCODER.encode({"kind": kind, "model": model, "payload": payload})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def generate_fingerprint(model: str, messages: Messages, params: GenerationParams) -> str:
    """A first ask (`attempt` 0) leaves `attempt` out, so a cassette
    recorded without it still matches every first ask."""
    payload = {
        "messages": [dict(m) for m in messages],
        "temperature": params.temperature,
        "max_tokens": params.max_tokens,
    }
    if params.attempt >= 1:
        payload["attempt"] = params.attempt
    return request_fingerprint("generate", model, payload)


def score_fingerprint(model: str, prefix: str, continuation: str) -> str:
    return request_fingerprint(
        "score", model, {"prefix": prefix, "continuation": continuation}
    )


class RateLimiter:
    """Sliding 60-second window; the single synchronization point."""

    def __init__(
        self,
        limit_per_min: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.limit = limit_per_min
        self.clock = clock
        self.sleep = sleep
        self._issued: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            while True:
                now = self.clock()
                while self._issued and now - self._issued[0] >= 60.0:
                    self._issued.popleft()
                if len(self._issued) < self.limit:
                    self._issued.append(now)
                    return
                # floor guards against float round-off stalling the clock
                self.sleep(max(60.0 - (now - self._issued[0]), 1e-3))


# --- Transports ---


def _urllib_transport(url: str, payload: dict, headers: Mapping[str, str], timeout: float = 60.0):
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json", **headers}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as err:
        try:
            body = json.loads(err.read().decode("utf-8"))
        except Exception:
            body = {}
        return err.code, body
    try:
        return status, json.loads(raw.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError included
        raise MalformedResponse(
            f"{url} answered {status} with a body that is not JSON: {err}"
        ) from err


class HttpBackend:
    """Chat-completions client with retry and rate limiting."""

    def __init__(
        self,
        profile: BackendProfile,
        api_key: str | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        transport=None,
    ):
        self.profile = profile
        self.api_key = api_key if api_key is not None else os.environ.get(profile.api_key_env())
        self.sleep = sleep
        self.transport = transport or _urllib_transport
        self.limiter = RateLimiter(profile.rate_limit_per_min, clock=clock, sleep=sleep)

    def _headers(self) -> dict[str, str]:
        if self.api_key:
            return {"Authorization": f"Bearer {self.api_key}"}
        return {}

    def _post(self, path: str, payload: dict) -> dict:
        url = self.profile.endpoint.rstrip("/") + path
        policy = self.profile.retry
        last_status = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.sleep(policy.backoff * 2 ** (attempt - 2))
            self.limiter.acquire()
            try:
                status, body = self.transport(url, payload, self._headers())
            except (urllib.error.URLError, OSError) as err:
                log.info("attempt %d to %s failed: %s", attempt, url, err)
                last_status = None
                continue
            if status == 200:
                log.debug("attempt %d to %s succeeded", attempt, url)
                return body
            if status in (401, 403):
                raise Unauthorized(f"{url} returned {status}")
            if status == 429 or status >= 500:
                log.info("attempt %d to %s got transient status %d", attempt, url, status)
                last_status = status
                continue
            raise MalformedResponse(f"{url} returned unexpected status {status}")
        if last_status == 429:
            raise RateLimited(f"{url} still rate limited after {policy.max_attempts} attempts")
        raise BackendError(f"{url} failed after {policy.max_attempts} attempts")

    def generate(self, messages: Messages, params: GenerationParams) -> str:
        payload = {
            "model": self.profile.model,
            "messages": [dict(m) for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        body = self._post("/chat/completions", payload)
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise MalformedResponse(f"no message content in response: {err}") from err
        if not isinstance(text, str):
            raise MalformedResponse("message content is not text")
        return text

    def score_tokens(self, prefix: str, continuation: str) -> list[TokenScore]:
        payload = {
            "model": self.profile.model,
            "prompt": prefix + continuation,
            "echo": True,
            "logprobs": 1,
            "max_tokens": 0,
        }
        body = self._post("/completions", payload)
        try:
            info = body["choices"][0]["logprobs"]
            tokens = info["tokens"]
            logprobs = info["token_logprobs"]
            offsets = info["text_offset"]
        except (KeyError, IndexError, TypeError) as err:
            raise MalformedResponse(f"no logprobs in response: {err}") from err
        scores = []
        for token, logprob, offset in zip(tokens, logprobs, offsets):
            if offset < len(prefix):
                continue
            if logprob is None:
                raise MalformedResponse(f"missing logprob for continuation token {token!r}")
            # fp artifacts occasionally report tiny positive values
            scores.append(TokenScore(token, min(float(logprob), 0.0)))
        return scores


class ExchangeStore:
    """Exchanges keyed by request fingerprint, replayed and recorded.

    A hit replays the stored exchange. A miss raises UnscriptedRequest, or,
    with a live `inner` transport, asks it once and keeps the answer; with
    a `path` it also appends one line to that cassette, so a replay of the
    cassette answers exactly as the recording run was answered.

    The store also remembers each generate request it answered, exactly as
    it was asked (messages and params, `attempt` included), so asking it
    again returns the same response without fingerprinting the request.
    A request that failed is not remembered. The memo lives as long as the
    store, which `open_backend` builds anew for each run.
    """

    def __init__(self, entries: Mapping[str, Mapping], model: str, inner=None, path=None):
        self.entries = dict(entries)
        self.model = model
        self.inner = inner
        self.path = None if path is None else Path(path)
        self._lock = threading.Lock()
        self._asking: dict[str, threading.Lock] = {}
        # response by request as asked; a plain key, since a digest of the
        # prompt is the cost this saves
        self._answered: dict[tuple, str] = {}

    def _exchange(self, key: str, field: str, ask: Callable[[], object]):
        entry = self.entries.get(key)
        if entry is not None and field in entry:
            return entry[field]
        if self.inner is None:
            raise UnscriptedRequest(f"no scripted {field} for request {key[:12]}")
        with self._lock:
            asking = self._asking.setdefault(key, threading.Lock())
        # a thread that misses on a fingerprint another thread is asking
        # waits for that answer instead of sending the request again
        with asking:
            entry = self.entries.get(key)
            if entry is None or field not in entry:
                entry = {field: ask()}
                with self._lock:
                    self.entries[key] = entry
                    if self.path is not None:
                        with open_output(self.path, "cassette", "a") as handle:
                            handle.write(cassette_line(key, entry))
        return entry[field]

    def generate(self, messages: Messages, params: GenerationParams) -> str:
        request = (params, *[tuple(m.items()) for m in messages])
        response = self._answered.get(request)
        if response is None:
            key = generate_fingerprint(self.model, messages, params)
            response = self._exchange(
                key, "response", lambda: self.inner.generate(messages, params)
            )
            self._answered[request] = response
        return response

    def score_tokens(self, prefix: str, continuation: str) -> list[TokenScore]:
        key = score_fingerprint(self.model, prefix, continuation)
        pairs = self._exchange(
            key,
            "token_scores",
            lambda: [[s.token, s.logprob] for s in self.inner.score_tokens(prefix, continuation)],
        )
        return [TokenScore(token, logprob) for token, logprob in pairs]


def waits_on_io(backend) -> bool:
    """Whether a call on `backend` may wait on I/O. An ExchangeStore with
    no inner transport answers from memory or raises, so it never does;
    any other backend, one this module does not know included, may."""
    return not (isinstance(backend, ExchangeStore) and backend.inner is None)


class MockScoreBackend:
    """Deterministic offline scorer; tokens are whitespace words.

    mock:score?logprob=-1.0      constant per-token score
    mock:score?mode=hash&scale=2 per-token scores derived from a stable hash
    """

    def __init__(self, endpoint: str):
        query = urllib.parse.urlparse(endpoint).query
        params = dict(urllib.parse.parse_qsl(query))
        self.mode = params.get("mode", "constant")
        self.logprob = float(params.get("logprob", "-1.0"))
        self.scale = float(params.get("scale", "2.0"))

    def generate(self, messages: Messages, params: GenerationParams) -> str:
        raise CapabilityMissing("mock scorer cannot generate")

    def score_tokens(self, prefix: str, continuation: str) -> list[TokenScore]:
        tokens = continuation.split()
        if self.mode == "hash":
            scores = []
            for position, token in enumerate(tokens):
                digest = hashlib.sha256(f"{prefix}|{position}|{token}".encode()).digest()
                unit = int.from_bytes(digest[:8], "big") / 2**64
                scores.append(TokenScore(token, -(0.1 + unit * self.scale)))
            return scores
        return [TokenScore(token, self.logprob) for token in tokens]


# --- Cassettes and profile files ---


def resolve_cassette_path(path) -> Path:
    """Relative cassette paths resolve against ASKBD_CACHE_DIR when set."""
    path = Path(path)
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    if cache_dir and not path.is_absolute():
        return Path(cache_dir) / path
    return path


def cassette_line(key: str, entry: Mapping) -> str:
    """One cassette line: an exchange's fields and its `request_hash`."""
    return jsonl_line({**entry, "request_hash": key})


def load_cassette(path) -> dict[str, dict]:
    """Exchanges by request fingerprint, from the cassette file at `path`
    as given. A missing file or a malformed line is a SchemaViolation
    naming the cassette (and the line)."""
    entries: dict[str, dict] = {}
    for number, entry in read_jsonl_lines(path, "cassette"):
        key = entry.get("request_hash") if isinstance(entry, dict) else None
        if not isinstance(key, str):
            raise SchemaViolation(f"no request_hash in cassette {path}", line=number)
        entries[key] = entry
    return entries


# keys of the older profile format, in which an http(s) profile with a
# `cassette` and no `record: true` replayed it
_RETIRED_PROFILE_KEYS = ("cassette", "record")


def load_profiles(path) -> dict[str, BackendProfile]:
    """Profiles by name. A missing or malformed file, or one that does not
    match `ProfilesFile`, is a SchemaViolation naming the file. So is a
    profile with a retired key, which names the spelling that replaced it."""
    data = read_json_file(path, "profiles file")
    entries = data.get("profiles") if isinstance(data, dict) else None
    for entry in entries if isinstance(entries, list) else ():
        for key in _RETIRED_PROFILE_KEYS:
            if isinstance(entry, dict) and key in entry:
                raise SchemaViolation(
                    f"profiles file {path}: profile key {key!r} is retired; replay a cassette "
                    f'with "endpoint": "scripted:<cassette>", record one with "record_to"'
                )
    loaded = from_json(ProfilesFile, data, f"profiles file {path}")
    return {profile.name: profile for profile in loaded.profiles}


def open_backend(
    profile: BackendProfile,
    strict_scripted: bool = False,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    transport=None,
    api_key: str | None = None,
):
    """Resolve a profile to the one transport of its endpoint scheme.

    A scripted:<path> endpoint is an ExchangeStore that replays the
    cassette and never touches the network, and a mock: endpoint is the
    offline scorer. An http(s) endpoint is refused under strict_scripted
    before any socket is opened; otherwise it is the HTTP client, which
    sends every request, or, with a `record_to` cassette, a new
    ExchangeStore in front of it that first reads the cassette if the
    file exists, sends only what is not in it, and appends each answer.
    """
    endpoint = profile.endpoint
    if endpoint.startswith("scripted:"):
        path = resolve_cassette_path(endpoint.split(":", 1)[1])
        return ExchangeStore(load_cassette(path), profile.model)
    if endpoint.startswith("mock:"):
        return MockScoreBackend(endpoint)
    if strict_scripted:
        raise StrictScriptedViolation(
            f"profile {profile.name!r} needs network endpoint {endpoint!r}"
        )
    http = HttpBackend(profile, api_key=api_key, clock=clock, sleep=sleep, transport=transport)
    if profile.record_to is None:
        return http
    path = resolve_cassette_path(profile.record_to)
    entries = load_cassette(path) if path.exists() else {}
    return ExchangeStore(entries, profile.model, inner=http, path=path)


def generate(
    profile: BackendProfile,
    messages: Messages,
    params: GenerationParams = GenerationParams(),
    *,
    backend,
) -> str:
    if CAP_GENERATE not in profile.capabilities:
        raise CapabilityMissing(f"profile {profile.name!r} cannot generate")
    return backend.generate(messages, params)


def score_tokens(
    profile: BackendProfile,
    prefix: str,
    continuation: str,
    *,
    backend,
) -> list[TokenScore]:
    """The continuation's token scores; an empty continuation has none, and
    no backend is asked for them."""
    if CAP_SCORE_TOKENS not in profile.capabilities:
        raise CapabilityMissing(f"profile {profile.name!r} cannot score tokens")
    if not continuation:
        return []
    return backend.score_tokens(prefix, continuation)
