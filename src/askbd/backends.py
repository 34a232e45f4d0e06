"""Text-generation and token-scoring transports.

One wire format (chat completions for generation, echoed completions for
per-token log-probabilities) and one transport per endpoint scheme: an
exchange store that replays a `scripted:` cassette; a deterministic
offline `mock:score` scorer; or, for an `http(s)` endpoint, an HTTP client
with retries, a sliding-window rate limiter and kept-alive connections,
behind an exchange store that records into the profile's `record_to`
cassette when it has one. Every backend has a `close` method, which
closes what it keeps open.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import math
import os
import re
import socket
import threading
import time
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
        if self.endpoint.startswith("mock:"):
            if self.endpoint != "mock:score":
                raise ValueError(f"endpoint {self.endpoint!r}: the one mock endpoint is "
                                 "mock:score, which takes no query")
            if CAP_GENERATE in self.capabilities:
                raise ValueError(f"capabilities of a mock: endpoint must not include "
                                 f"{CAP_GENERATE!r}; it only scores tokens")
        elif not self.endpoint.startswith("scripted:"):
            parts = urllib.parse.urlsplit(self.endpoint)
            if parts.scheme not in ("http", "https") or not parts.netloc:
                raise ValueError("endpoint must be scripted:<cassette>, mock:score or an "
                                 f"http(s) URL, got {self.endpoint!r}")
        if self.record_to is not None and self.endpoint.startswith(("scripted:", "mock:")):
            raise ValueError(f"record_to needs an http(s) endpoint; {self.endpoint!r} "
                             "sends no request to record")

    def api_key_env(self) -> str:
        slug = re.sub(r"[^A-Za-z0-9]", "_", self.name).upper()
        return API_KEY_ENV_PREFIX + slug


@dataclass(frozen=True)
class ProfilesFile:
    """The top level of a profiles file."""

    profiles: tuple[BackendProfile, ...]

    def __post_init__(self):
        # one variable per profile, so no profile is sent another's key
        names: dict[str, str] = {}
        for profile in self.profiles:
            key = profile.api_key_env()
            if key in names:
                raise ValueError(f"profiles: names {names[key]!r} and {profile.name!r} both "
                                 f"read the API key from {key}")
            names[key] = profile.name


@dataclass(frozen=True)
class TokenScore:
    token: str
    logprob: float  # natural log, <= 0


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    max_tokens: int = 1024


Messages = Sequence[Mapping[str, str]]


# built once; `encode` keeps no state between calls, so threads share it
_FINGERPRINT_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def request_fingerprint(kind: str, model: str, payload: Mapping) -> str:
    """Stable hash of a normalized request. No request carries a seed, so
    every seed of a run replays the same exchanges."""
    body = _FINGERPRINT_ENCODER.encode({"kind": kind, "model": model, "payload": payload})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def generate_fingerprint(model: str, messages: Messages, params: GenerationParams) -> str:
    payload = {
        "messages": [dict(m) for m in messages],
        "temperature": params.temperature,
        "max_tokens": params.max_tokens,
    }
    return request_fingerprint("generate", model, payload)


def score_fingerprint(model: str, prefix: str, continuation: str) -> str:
    return request_fingerprint(
        "score", model, {"prefix": prefix, "continuation": continuation}
    )


class RateLimiter:
    """Sliding 60-second window over one backend's requests, which its
    threads share under the limiter's own lock."""

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

_TIMEOUT_S = 60.0  # to connect, and for each read of a reply


class _Connection:
    """One HTTP connection to the host of a backend's endpoint: direct, or
    through the environment's proxy for its scheme where `urllib` would use
    one, with absolute-form request targets for `http` and a tunnel for
    `https`."""

    def __init__(self, parts: urllib.parse.SplitResult):
        self.absolute = False
        self.proxy_headers: dict[str, str] = {}
        kind = http.client.HTTPConnection
        if parts.scheme == "https":
            kind = http.client.HTTPSConnection
        proxy = urllib.request.getproxies().get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass(parts.netloc):
            self.http = kind(parts.netloc, timeout=_TIMEOUT_S)
            return
        via = urllib.parse.urlsplit(proxy if "://" in proxy else "//" + proxy)
        auth = {}
        if via.username is not None:
            user = urllib.parse.unquote(f"{via.username}:{via.password or ''}")
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user.encode()).decode()
        self.http = kind(via.netloc.rpartition("@")[2], timeout=_TIMEOUT_S)
        if parts.scheme == "https":
            self.http.set_tunnel(parts.netloc, headers=auth)
        else:
            self.absolute = True
            self.proxy_headers = auth

    def send(self, parts: urllib.parse.SplitResult, data: bytes,
             headers: Mapping[str, str]) -> http.client.HTTPResponse:
        """POSTs `data` to `parts`, the URL of this request's own path."""
        origin = ("", "", parts.path or "/", parts.query, "")
        target = urllib.parse.urlunsplit(parts._replace(fragment="") if self.absolute else origin)
        self.http.request("POST", target, body=data, headers={**headers, **self.proxy_headers})
        if hasattr(socket, "TCP_QUICKACK"):
            # http.server writes a reply's headers and body in two sends; the
            # body waits on the ACK of the headers, which a kept-alive socket
            # would delay by up to 40 ms unless told to ACK at once
            self.http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        return self.http.getresponse()

    def close(self) -> None:
        self.http.close()


class Connections:
    """The kept-alive connections of one backend, all to its endpoint's
    host. A request takes an idle one, or opens one, and gives it back once
    its reply is read, so a run holds as many as it has requests in flight."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []

    def take(self) -> _Connection | None:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def give(self, connection: _Connection) -> None:
        with self._lock:
            self._idle.append(connection)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


# what a reused connection raises when the server closed it while idle
_DROPPED = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


def _urllib_transport(url: str, payload: dict, headers: Mapping[str, str], *,
                      connections: Connections):
    """One HTTP attempt: POSTs `payload` as JSON to `url` and returns
    (status, body), the body JSON-decoded for a 200 and None otherwise.

    The request goes over an idle connection from `connections` when there
    is one. If the server dropped that connection before a status line,
    the request is sent once more, at once, on a new one. The connection
    is kept for the next request only where `socket.TCP_QUICKACK` exists
    (Linux); elsewhere it is closed after the reply. A transport failure
    raises OSError or http.client.HTTPException.
    """
    parts = urllib.parse.urlsplit(url)
    data = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json", **headers}
    kept = connections.take()
    connection = kept or _Connection(parts)
    try:
        try:
            response = connection.send(parts, data, headers)
        except _DROPPED as err:
            if kept is None:
                raise
            log.debug("kept-alive connection to %s dropped (%s); reconnecting", url, err)
            connection.close()
            connection = _Connection(parts)
            response = connection.send(parts, data, headers)
        status, raw = response.status, response.read()
    except BaseException:
        connection.close()
        raise
    if hasattr(socket, "TCP_QUICKACK") and connection.http.sock is not None:
        connections.give(connection)
    else:
        connection.close()
    if status != 200:
        return status, None
    try:
        return status, json.loads(raw.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError included
        raise MalformedResponse(f"{url} answered 200 with a body that is not JSON: {err}") from err


def _is_number(value) -> bool:
    """Whether `value` is a JSON number; a bool is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the parallel lists of a `/completions` reply's logprobs: name, what each
# item is, and a test of one item
_LOGPROB_COLUMNS = (
    ("tokens", "strings", lambda item: isinstance(item, str)),
    ("token_logprobs", "finite numbers or nulls",
     lambda item: item is None or (_is_number(item) and math.isfinite(item))),
    ("text_offset", "integers", lambda item: isinstance(item, int) and not isinstance(item, bool)),
)


class HttpBackend:
    """Client of one endpoint, with retry and rate limiting: `generate`
    posts to its `/chat/completions` and `score_tokens` to its
    `/completions`. Both share the backend's kept-alive connections, each
    request naming its own path, and `close` closes them."""

    def __init__(
        self,
        profile: BackendProfile,
        api_key: str | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.profile = profile
        self.api_key = api_key if api_key is not None else os.environ.get(profile.api_key_env())
        self.sleep = sleep
        self.limiter = RateLimiter(profile.rate_limit_per_min, clock=clock, sleep=sleep)
        self.connections = Connections()

    def close(self) -> None:
        self.connections.close()

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
                status, body = _urllib_transport(url, payload, self._headers(),
                                                 connections=self.connections)
            # OSError is a socket failure or timeout; HTTPException a reply cut short or garbled
            except (OSError, http.client.HTTPException) as err:
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
            columns = [info[name] for name, _, _ in _LOGPROB_COLUMNS]
        except (KeyError, IndexError, TypeError) as err:
            raise MalformedResponse(f"no logprobs in response: {err}") from err
        for (name, kind, valid), column in zip(_LOGPROB_COLUMNS, columns):
            if not (isinstance(column, list) and len(column) == len(columns[0])
                    and all(map(valid, column))):
                raise MalformedResponse(f"logprobs field {name!r} is not a list of {kind}, "
                                        "one for each token")
        scores = []
        for token, logprob, offset in zip(*columns):
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
    it was asked (messages and params), so asking it again returns the
    same response without fingerprinting the request.
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
        # answered: a later miss finds the entry. A failed ask raised and
        # kept the lock, so retries of its request still ask one at a time
        with self._lock:
            self._asking.pop(key, None)
        return entry[field]

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()

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
    """Deterministic offline scorer behind `mock:score`. Tokens are the
    continuation's whitespace words; each scores -(0.1 + 2.0·u), where u in
    [0, 1) comes from a sha256 of the prefix, the word's position and the
    word."""

    def close(self) -> None:
        pass

    def score_tokens(self, prefix: str, continuation: str) -> list[TokenScore]:
        scores = []
        for position, token in enumerate(continuation.split()):
            digest = hashlib.sha256(f"{prefix}|{position}|{token}".encode()).digest()
            unit = int.from_bytes(digest[:8], "big") / 2**64
            scores.append(TokenScore(token, -(0.1 + unit * 2.0)))
        return scores


# --- Cassettes and profile files ---


def cassette_line(key: str, entry: Mapping) -> str:
    """One cassette line: an exchange's fields and its `request_hash`."""
    return jsonl_line({**entry, "request_hash": key})


def _is_score_pair(value) -> bool:
    """Whether `value` is a cassette's [token, logprob] pair."""
    return (isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)
            and _is_number(value[1]) and math.isfinite(value[1]))


def load_cassette(path) -> dict[str, dict]:
    """Exchanges by request fingerprint, from the cassette file at `path`
    as given. A missing file or a malformed line is a SchemaViolation
    naming the cassette (and the line); so is a `response` that is no
    string and a `token_scores` that is no list of [token, finite number]
    pairs. A request's first line is kept: a later equal line is skipped,
    and a later different one is a SchemaViolation naming both lines."""
    entries: dict[str, dict] = {}
    first_lines: dict[str, int] = {}
    for number, entry in read_jsonl_lines(path, "cassette"):
        key = entry.get("request_hash") if isinstance(entry, dict) else None
        if not isinstance(key, str):
            raise SchemaViolation(f"no request_hash in cassette {path}", line=number)
        if not isinstance(entry.get("response", ""), str):
            raise SchemaViolation(f"response in cassette {path} is not a string", line=number)
        scores = entry.get("token_scores", [])
        if not (isinstance(scores, list) and all(map(_is_score_pair, scores))):
            raise SchemaViolation(f"token_scores in cassette {path} is not a list of "
                                  "[token, finite number] pairs", line=number)
        first = first_lines.setdefault(key, number)
        if entries.setdefault(key, entry) != entry:
            raise SchemaViolation(f"cassette {path} answers request {key[:12]} differently "
                                  f"on line {first} and line {number}")
    return entries


def load_profiles(path) -> dict[str, BackendProfile]:
    """Profiles by name. A missing or malformed file, or one that does not
    match `ProfilesFile`, is a SchemaViolation naming the file."""
    data = read_json_file(path, "profiles file")
    loaded = from_json(ProfilesFile, data, f"profiles file {path}")
    return {profile.name: profile for profile in loaded.profiles}


def open_backend(
    profile: BackendProfile,
    strict_scripted: bool = False,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
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
        return ExchangeStore(load_cassette(endpoint.split(":", 1)[1]), profile.model)
    if endpoint.startswith("mock:"):
        return MockScoreBackend()
    if strict_scripted:
        raise StrictScriptedViolation(
            f"profile {profile.name!r} needs network endpoint {endpoint!r}"
        )
    http = HttpBackend(profile, api_key=api_key, clock=clock, sleep=sleep)
    if profile.record_to is None:
        return http
    path = Path(profile.record_to)
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
