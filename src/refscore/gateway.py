"""Chat-completion gateway: transport, retries, caching and a mock backend.

Every request is addressed by a content digest over the exact request
body, the endpoint URL and the iteration, which keys both the on-disk
cache and batch deduplication. The mock backend produces deterministic
synthetic reports so the whole pipeline runs offline.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from .corpus import SCORE_MAX, SCORE_MIN
from .prompts import MessageSequence
from .util import atomic_write_text, clamp, safe_name, seed_int, substream

logger = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_FAILED = "failed"

RETRY_BASE_SECONDS = 1.0
RETRY_FACTOR = 2.0
RETRY_AFTER_MAX_SECONDS = 60.0
MAX_ATTEMPTS = 5

#: the ``format`` of new cache entries: text holds served reasoning as a think span
CACHE_FORMAT = 1

MOCK_STYLES = ("plain", "reasoning", "subscores-only", "multi-article")


@dataclass(frozen=True)
class ModelConfig:
    """One endpoint/model pair and its request options."""

    name: str
    base_url: str = ""
    api_key_env: str | None = None
    supports_system_role: bool = True
    temperature: float | None = None
    max_output_tokens: int | None = None
    request_timeout: float = 60.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("model name must be non-empty")
        if self.request_timeout <= 0:
            raise ValueError("request timeout must be positive")

    def api_key(self) -> str | None:
        if self.api_key_env is None:
            return None
        key = os.environ.get(self.api_key_env)
        if not key:
            raise GatewayError(
                f"environment variable {self.api_key_env} is not set", status=None, attempts=0
            )
        return key


@dataclass(frozen=True)
class CompletionTask:
    """One scoring call: an article under a model/strategy at one iteration."""

    article_id: str
    model: str
    strategy: str
    iteration: int
    messages: MessageSequence

    def __post_init__(self):
        if self.iteration < 1:
            raise ValueError("iteration indices start at 1")

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.article_id, self.model, self.strategy, self.iteration)


@dataclass(frozen=True)
class RawRecord:
    """Outcome of one completion task. Failed records carry empty text."""

    article_id: str
    model: str
    strategy: str
    iteration: int
    text: str
    latency_ms: float
    status: str
    attempts: int

    def __post_init__(self):
        if self.status not in (STATUS_OK, STATUS_FAILED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_OK and not self.text:
            raise ValueError("ok records must carry non-empty text")

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.article_id, self.model, self.strategy, self.iteration)


class GatewayError(Exception):
    """Transport or protocol failure, with status code and attempt count."""

    def __init__(self, message: str, status: int | None = None, attempts: int = 1):
        super().__init__(message)
        self.status = status
        self.attempts = attempts


def preflight(configs) -> None:
    """Fail before any request when a model's API key variable is unset, or
    its ``base_url`` lacks an http(s) scheme or a host, which the transport
    would only retry in vain.

    One error names every missing variable with its model and every
    unusable URL with its model, so a live batch never starts only to fail
    task by task, nor fails one problem per run.
    """
    missing, unusable = [], []
    for cfg in configs:
        try:
            cfg.api_key()
        except GatewayError:
            missing.append(f"{cfg.api_key_env} (model {cfg.name})")
        parts = urlsplit(cfg.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            unusable.append(f"{cfg.name} ({cfg.base_url!r})")
    problems = []
    if missing:
        problems.append("API key environment variables are not set: " + ", ".join(missing))
    if unusable:
        problems.append("base_url needs an http(s) scheme and a host: " + ", ".join(unusable))
    if problems:
        raise GatewayError("; ".join(problems), attempts=0)


def cache_key(task: CompletionTask, cfg: ModelConfig) -> str:
    """Content digest over the request body, endpoint URL and iteration.

    The body is the one :func:`request_completion` sends, so any change to
    what is sent (a prompt byte, the temperature, the token limit) or where
    (the base URL), or a different iteration index, yields a different key.
    The API key travels in a header and is not part of it.
    """
    request = json.dumps(
        {
            "body": _build_payload(cfg, task.messages),
            "url": _endpoint(cfg),
            "iteration": task.iteration,
        },
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(request.encode("utf-8")).hexdigest()


class ResponseCache:
    """Disk cache of raw responses, one JSON file per request digest."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_of(self, model: str, key: str) -> Path:
        return self.root / safe_name(model) / f"{key}.json"

    def load(self, model: str, key: str) -> dict | None:
        """The cached entry, or None on a miss. A file that cannot be read,
        is not valid JSON, or is not an entry with usable ``text``,
        ``attempts`` and ``latency_ms``, counts as a miss and is logged as a
        warning; the next :meth:`store` overwrites it."""
        path = self.path_of(model, key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except ValueError as exc:
            # invalid or truncated JSON, or bytes that are not UTF-8
            problem = f"invalid JSON or not UTF-8: {exc}"
        except OSError as exc:
            # a directory at the entry's path, a file without read permission
            problem = f"cannot be read: {exc}"
        else:
            problem = _entry_problem(entry)
            if problem is None:
                return entry
        logger.warning("unusable cache entry %s (%s); treated as a miss", path, problem)
        return None

    def store(self, model: str, key: str, text: str, attempts: int, latency_ms: float) -> None:
        """Write one entry. A write that fails (a full disk, a directory
        without write permission) is logged as a warning and leaves the
        entry uncached; the batch goes on."""
        entry = {
            "key": key,
            "text": text,
            "attempts": attempts,
            "latency_ms": latency_ms,
            "stored_at": time.time(),
            "format": CACHE_FORMAT,
        }
        path = self.path_of(model, key)
        try:
            atomic_write_text(path, json.dumps(entry, ensure_ascii=False))
        except OSError as exc:
            logger.warning("cache entry %s not written (%s); the response is not cached", path, exc)


def _entry_problem(entry) -> str | None:
    """Why a decoded cache entry cannot be used, or None when it can."""
    if not isinstance(entry, dict):
        return "not a JSON object"
    if not (isinstance(entry.get("text"), str) and entry["text"]):
        return "missing or empty 'text'"
    if not isinstance(entry.get("attempts"), int):
        return "missing or invalid 'attempts'"
    if not isinstance(entry.get("latency_ms"), (int, float)):
        return "missing or invalid 'latency_ms'"
    return None


def default_transport(url: str, payload: dict, headers: dict, timeout: float):
    """POST JSON on a connection of its own, with `urllib.request`.
    Returns (status_code, parsed body, Retry-After header or None).

    Non-2xx answers are returned, not raised; network-level failures surface
    as OSError (a protocol error as ConnectionError) for the retry loop.
    """
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    request = Request(url, json.dumps(payload).encode(), headers, method="POST")
    try:
        try:
            resp = urlopen(request, timeout=timeout)
        except HTTPError as exc:
            resp = exc
        with resp:
            raw = resp.read()
    except HTTPException as exc:
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from None
    try:
        body = json.loads(raw)
    except ValueError:
        body = raw.decode("utf-8", errors="replace")
    return resp.status, body, resp.headers.get("Retry-After")


def _endpoint(cfg: ModelConfig) -> str:
    return cfg.base_url.rstrip("/") + "/chat/completions"


def _build_payload(cfg: ModelConfig, messages: MessageSequence) -> dict:
    payload: dict = {
        "model": cfg.name,
        "messages": [{"role": m.role, "content": m.content} for m in messages],
    }
    if cfg.temperature is not None:
        payload["temperature"] = cfg.temperature
    if cfg.max_output_tokens is not None:
        payload["max_tokens"] = cfg.max_output_tokens
    return payload


def _extract_content(body) -> str:
    """The answer, preceded by the served ``reasoning_content`` as a
    ``<think>`` span when there is one."""
    try:
        choice = body["choices"][0]
        message = choice["message"]
        content = message["content"]
    except (KeyError, IndexError, TypeError):
        raise GatewayError("response body lacks choices[0].message.content") from None
    if not isinstance(content, str) or not content:
        if choice.get("finish_reason") == "length":
            raise GatewayError("response truncated at max_output_tokens before any content")
        raise GatewayError("response content is empty")
    reasoning = message.get("reasoning_content")
    if isinstance(reasoning, str) and reasoning:
        return f"<think>{reasoning}</think>\n\n{content}"
    return content


def _retry_delay(retry_after: str | None, attempt: int) -> float:
    """Seconds before the next attempt: the server's ``Retry-After``, as
    delta-seconds or an HTTP-date (RFC 9110 §10.2.3) capped at
    RETRY_AFTER_MAX_SECONDS, or else the backoff step."""
    backoff = RETRY_BASE_SECONDS * RETRY_FACTOR ** (attempt - 1)
    value = (retry_after or "").strip()
    if not value:
        return backoff
    if value.isascii() and value.isdigit():
        return min(float(value), RETRY_AFTER_MAX_SECONDS)
    from datetime import timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return backoff
    # an HTTP-date is always GMT, also in the asctime form that names no zone
    when = when if when.tzinfo else when.replace(tzinfo=timezone.utc)
    return min(max(when.timestamp() - time.time(), 0.0), RETRY_AFTER_MAX_SECONDS)


def request_completion(
    cfg: ModelConfig,
    messages: MessageSequence,
    transport=None,
    sleep=time.sleep,
) -> tuple[str, int, float]:
    """One completion with retries. Returns (text, attempts, latency_ms).

    429 and 5xx responses and network failures are retried with exponential
    backoff (1s, 2s, 4s, ...) up to 5 attempts, a retried response's
    ``Retry-After`` taking the place of the backoff step; other 4xx
    responses, and a 200 without usable content, fail immediately. The API
    key is sent as a bearer header and never logged or persisted.
    """
    transport = transport or default_transport
    url = _endpoint(cfg)
    headers = {"Content-Type": "application/json"}
    key = cfg.api_key()
    if key is not None:
        headers["Authorization"] = f"Bearer {key}"
    payload = _build_payload(cfg, messages)
    started = time.monotonic()
    last_error = "no attempts made"
    last_status: int | None = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            status, body, retry_after = transport(url, payload, headers, cfg.request_timeout)
        except OSError as exc:
            last_error, last_status, retry_after = f"transport failure: {exc}", None, None
        else:
            if status == 200:
                try:
                    text = _extract_content(body)
                except GatewayError as exc:
                    exc.attempts = attempt
                    raise
                latency_ms = (time.monotonic() - started) * 1000.0
                return text, attempt, latency_ms
            last_error, last_status = f"HTTP {status}", status
            if not (status == 429 or 500 <= status <= 599):
                raise GatewayError(
                    f"non-retryable {last_error}", status=status, attempts=attempt
                )
        if attempt < MAX_ATTEMPTS:
            sleep(_retry_delay(retry_after, attempt))
    raise GatewayError(
        f"gave up after {MAX_ATTEMPTS} attempts: {last_error}",
        status=last_status,
        attempts=MAX_ATTEMPTS,
    )


class HttpBackend:
    """Backend that talks to a chat-completions endpoint."""

    def __init__(self, transport=None, sleep=time.sleep):
        self.transport = transport
        self.sleep = sleep

    def complete_task(self, task: CompletionTask, cfg: ModelConfig) -> tuple[str, int, float]:
        return request_completion(cfg, task.messages, transport=self.transport, sleep=self.sleep)


def run_batch(
    tasks,
    configs: dict[str, ModelConfig],
    concurrency_limit: int = 4,
    cache: ResponseCache | None = None,
    backend=None,
) -> list[RawRecord]:
    """Run completion tasks, serving cache hits first and sending only misses.

    Identical requests (same cache key) are executed once per batch. Cache
    hits are read in the calling thread before any request is sent; only
    the misses go to a worker pool, and ``concurrency_limit`` bounds those
    requests to the backend. A fully cached batch starts no worker thread.
    Misses run in the calling thread instead when there is no cache and the
    backend declares ``blocks = False`` (it does no I/O, so a pool has
    nothing to overlap); a backend without the attribute counts as blocking.
    Hits from entries stored before the ``format`` field, which may lack
    the served reasoning, are served and counted in one WARNING per batch.
    An unusable cache entry is logged as a warning and sent again; a response
    whose cache write fails is logged as a warning and kept, uncached. Failed
    tasks yield failed records instead of aborting the batch, and are
    never cached. Records come back in task order, exactly one per task.
    One INFO line per batch counts tasks, distinct requests, cache hits,
    requests sent and requests failed.
    """
    tasks = list(tasks)
    if concurrency_limit < 1:
        raise ValueError("concurrency limit must be positive")
    for task in tasks:
        if task.model not in configs:
            raise ValueError(f"no ModelConfig for model {task.model!r}")
    backend = backend or HttpBackend()
    keys = [cache_key(task, configs[task.model]) for task in tasks]
    first_task_for: dict[tuple[str, str], CompletionTask] = {}
    for task, key in zip(tasks, keys):
        first_task_for.setdefault((task.model, key), task)

    # each distinct request's outcome as the fields its records carry after
    # the key: (text, latency_ms, status, attempts)
    outcomes: dict[tuple[str, str], tuple[str, float, str, int]] = {}
    misses: list[tuple[tuple[str, str], CompletionTask]] = []
    unformatted = 0
    for group_key, task in first_task_for.items():
        hit = cache.load(*group_key) if cache is not None else None
        if hit is None:
            misses.append((group_key, task))
        else:
            outcomes[group_key] = (hit["text"], hit["latency_ms"], STATUS_OK, hit["attempts"])
            unformatted += "format" not in hit
    if unformatted:
        logger.warning(
            "%d cache hits predate the entry format; each may hold an answer without "
            "the reasoning its server returned", unformatted,
        )

    def execute(item) -> tuple[tuple[str, str], tuple[str, float, str, int]]:
        (model, key), task = item
        try:
            text, attempts, latency_ms = backend.complete_task(task, configs[model])
        except GatewayError as exc:
            return (model, key), ("", 0.0, STATUS_FAILED, exc.attempts)
        if cache is not None:
            cache.store(model, key, text, attempts, latency_ms)
        return (model, key), (text, latency_ms, STATUS_OK, attempts)

    if cache is None and not getattr(backend, "blocks", True):
        outcomes.update(map(execute, misses))
    elif misses:
        with ThreadPoolExecutor(max_workers=concurrency_limit) as pool:
            outcomes.update(pool.map(execute, misses))
    logger.info(
        "batch: %d tasks, %d distinct requests, %d cache hits, %d sent, %d failed",
        len(tasks), len(first_task_for), len(first_task_for) - len(misses), len(misses),
        sum(status == STATUS_FAILED for _, _, status, _ in outcomes.values()),
    )
    return [RawRecord(*task.key, *outcomes[(task.model, key)]) for task, key in zip(tasks, keys)]


# --- mock backend ---------------------------------------------------------

_STAR_PHRASES = {
    1: "Nationally Recognised",
    2: "Internationally Recognised",
    3: "Internationally Excellent",
    4: "World Leading",
}

_TOPICS = (
    "sediment transport in braided rivers",
    "protein folding kinetics under crowding",
    "labour market effects of adult retraining",
    "sparse solvers for kinetic plasma models",
    "memory consolidation during slow-wave sleep",
    "supply chain resilience in port networks",
    "catalyst degradation in alkaline electrolysers",
    "dialect levelling in urban speech communities",
)

_METHOD_CLAUSES = (
    "a pre-registered longitudinal design",
    "a matched case-control comparison",
    "an instrumented field deployment",
    "a replicated laboratory protocol",
    "a mixed-methods survey with triangulation",
)


def _round_to_half(value: float) -> float:
    return math.floor(2.0 * value + 0.5) / 2.0


def _fmt_star(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def simulate_completion(
    latent_quality: float, noise_sd: float, seed: int, style: str = "plain"
) -> str:
    """Deterministic synthetic report embedding a noisy star score.

    The embedded score is latent quality plus Gaussian noise, clamped to
    [1, 4] and rounded to the nearest half star. Styles mirror the report
    shapes the parser must survive: plain final-score reports, think-tag
    reasoning with decoy candidates, sub-scores with no overall line, and
    multi-article confusion.
    """
    if style not in MOCK_STYLES:
        raise ValueError(f"unknown mock style {style!r}")
    if noise_sd < 0:
        raise ValueError("noise_sd must be non-negative")
    rng = substream(seed, "mock-report")
    noisy = latent_quality + (rng.normal(0.0, noise_sd) if noise_sd > 0 else 0.0)
    score = _round_to_half(clamp(noisy, SCORE_MIN, SCORE_MAX))
    star = _fmt_star(score)
    topic = _TOPICS[int(rng.integers(len(_TOPICS)))]
    method = _METHOD_CLAUSES[int(rng.integers(len(_METHOD_CLAUSES)))]
    intro = (
        f"The article investigates {topic} using {method}. "
        f"The abstract states the aims clearly and the contribution is identifiable."
    )
    phrase = _STAR_PHRASES.get(int(score)) if score == int(score) else None

    if style == "plain":
        variant = int(rng.integers(3))
        if variant == 0 and phrase is not None:
            closing = f"**Score: {star}* ({phrase})**"
        elif variant == 1:
            closing = f"****Score: {star}*****"
        else:
            closing = f"Score: {star}*"
        return (
            f"{intro}\n\n"
            f"Originality: {star}*\n"
            f"Significance: {star}*\n"
            f"Rigour: {star}*\n\n"
            f"{closing}\n"
        )

    if style == "reasoning":
        decoy_score = clamp(noisy + rng.normal(0.0, 0.7), SCORE_MIN, SCORE_MAX)
        decoy = _fmt_star(_round_to_half(decoy_score))
        return (
            f"<think> Okay, the study concerns {topic}. The design is {method}, "
            f"which supports the main claim. Is this {decoy}*? The framing is "
            f"competent but I should weigh rigour too. Score: {decoy} maybe, "
            f"though the contribution reads stronger on reflection. </think>\n\n"
            f"The work is methodologically sound and the claims follow from the "
            f"evidence presented.\n\n"
            f"**Originality ({star}*)** Clearly positioned against prior work.\n"
            f"**Significance ({star}*)** Likely to inform follow-on studies.\n"
            f"**Rigour ({star}*)** {method.capitalize()} applied consistently.\n\n"
            f"****Score: {star}*****\n"
        )

    if style == "subscores-only":
        return (
            f"{intro}\n\n"
            f"Assessment against the three criteria:\n"
            f"1. Originality ({star}*) The research question is well chosen.\n"
            f"2. Significance: {star}/4 The findings matter for the field.\n"
            f"3. Rigour: {star}* The analysis supports the conclusions.\n"
        )

    # multi-article: the model scored the exemplars too
    decoys = [int(rng.integers(1, 5)) for _ in range(4)]
    return (
        f"Each submitted article was assessed in turn on the {topic} theme.\n\n"
        f"**Final Scores:**\n"
        f"- Article 1: {decoys[0]}*\n"
        f"- Article 2: {decoys[1]}*\n"
        f"- Article 3: {decoys[2]}*\n"
        f"- Article 4: {decoys[3]}*\n"
        f"- Article 5: {star}*\n"
    )


class MockBackend:
    """Offline backend producing simulate_completion reports.

    Latent quality per article comes from the supplied map (an id-hash
    fallback covers unknown ids); style is fixed per model name; noise is
    drawn from substreams of (seed, model, article, strategy, iteration),
    so batches are deterministic and iterations differ. Each fallback style
    and latent is drawn once, on first use.
    """

    #: no I/O: run_batch runs uncached batches in the calling thread
    blocks = False

    def __init__(
        self,
        latent_by_article: dict[str, float] | None = None,
        noise_sd: float = 0.5,
        seed: int = 0,
        style_by_model: dict[str, str] | None = None,
    ):
        self.latent = dict(latent_by_article or {})
        self.noise_sd = noise_sd
        self.seed = seed
        self.style_by_model = dict(style_by_model or {})

    def _style_for(self, model: str) -> str:
        style = self.style_by_model.get(model)
        if style is None:
            # stable per-model pick among the parseable styles
            style = MOCK_STYLES[int(substream("mock-style", model).integers(3))]
            self.style_by_model[model] = style
        return style

    def _latent_for(self, article_id: str) -> float:
        latent = self.latent.get(article_id)
        if latent is None:
            draw = float(substream("mock-latent", article_id).random())
            latent = self.latent[article_id] = SCORE_MIN + (SCORE_MAX - SCORE_MIN) * draw
        return latent

    def complete_task(self, task: CompletionTask, cfg: ModelConfig) -> tuple[str, int, float]:
        report_seed = seed_int(
            self.seed, "mock", task.model, task.article_id, task.strategy, task.iteration
        )
        text = simulate_completion(
            self._latent_for(task.article_id),
            self.noise_sd,
            report_seed,
            style=self._style_for(task.model),
        )
        return text, 1, 0.0
