"""Tests for the completion gateway: keys, cache, retries, batching, mock."""
import errno
import http.server
import json
import logging
import socket
import threading
import time
from email.utils import formatdate

import pytest

from refscore import gateway
from refscore.extract import analyze_report
from refscore.gateway import (
    MAX_ATTEMPTS,
    MOCK_STYLES,
    RETRY_AFTER_MAX_SECONDS,
    STATUS_FAILED,
    STATUS_OK,
    CompletionTask,
    GatewayError,
    MockBackend,
    ModelConfig,
    RawRecord,
    ResponseCache,
    _build_payload,
    _extract_content,
    _round_to_half,
    cache_key,
    default_transport,
    preflight,
    request_completion,
    run_batch,
)
from refscore.prompts import Message, MessageSequence

OK_BODY = {"choices": [{"message": {"content": "Score: 3*"}}]}


def make_task(article_id="a1", model="m0", strategy="zero", iteration=1, text=None):
    # distinct articles get distinct prompt bytes, as real prompts would
    if text is None:
        text = f"Score article {article_id}"
    messages = MessageSequence((Message("user", text),))
    return CompletionTask(
        article_id=article_id, model=model, strategy=strategy,
        iteration=iteration, messages=messages,
    )


class ScriptedTransport:
    """Pops one scripted outcome per call: (status, body), (status, body,
    Retry-After) or an exception."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append(
            {"url": url, "payload": payload, "headers": headers, "timeout": timeout}
        )
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return (*action, None)[:3]


class TestCacheKey:
    def test_identical_inputs_identical_key(self):
        cfg = ModelConfig(name="m0")
        assert cache_key(make_task(), cfg) == cache_key(make_task(), cfg)

    def test_iteration_changes_key(self):
        cfg = ModelConfig(name="m0")
        assert cache_key(make_task(iteration=1), cfg) != cache_key(
            make_task(iteration=2), cfg
        )

    def test_single_byte_prompt_change_changes_key(self):
        cfg = ModelConfig(name="m0")
        assert cache_key(make_task(text="Score me"), cfg) != cache_key(
            make_task(text="Score mf"), cfg
        )

    def test_temperature_and_model_change_key(self):
        task = make_task()
        base = cache_key(task, ModelConfig(name="m0"))
        assert base != cache_key(task, ModelConfig(name="m0", temperature=0.2))
        assert base != cache_key(task, ModelConfig(name="m1"))

    def test_key_is_hex_digest(self):
        key = cache_key(make_task(), ModelConfig(name="m0"))
        assert len(key) == 64
        int(key, 16)

    def test_max_output_tokens_changes_key(self):
        task = make_task()
        base = cache_key(task, ModelConfig(name="m0"))
        assert base != cache_key(task, ModelConfig(name="m0", max_output_tokens=256))
        assert cache_key(task, ModelConfig(name="m0", max_output_tokens=256)) != cache_key(
            task, ModelConfig(name="m0", max_output_tokens=512)
        )

    def test_base_url_changes_key(self):
        task = make_task()
        a = cache_key(task, ModelConfig(name="m0", base_url="http://host-a/v1"))
        assert a != cache_key(task, ModelConfig(name="m0", base_url="http://host-b/v1"))
        # the same endpoint written with a trailing slash is the same request
        assert a == cache_key(task, ModelConfig(name="m0", base_url="http://host-a/v1/"))

    def test_api_key_stays_out_of_the_key(self, monkeypatch):
        task = make_task()
        cfg = ModelConfig(name="m0", base_url="http://host", api_key_env="TEST_GATEWAY_KEY")
        monkeypatch.setenv("TEST_GATEWAY_KEY", "sk-first")
        first = cache_key(task, cfg)
        monkeypatch.setenv("TEST_GATEWAY_KEY", "sk-second")
        assert cache_key(task, cfg) == first
        assert first == cache_key(task, ModelConfig(name="m0", base_url="http://host"))


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.store("m0", "abc123", "Score: 2*", attempts=2, latency_ms=14.5)
        entry = cache.load("m0", "abc123")
        assert entry["text"] == "Score: 2*"
        assert entry["attempts"] == 2
        assert entry["latency_ms"] == 14.5

    def test_missing_entry_is_none(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="refscore.gateway")
        assert ResponseCache(tmp_path).load("m0", "nope") is None
        assert caplog.records == []

    def test_layout_one_file_per_key_under_model_dir(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.store("m0", "k1", "x", 1, 0.0)
        cache.store("m0", "k2", "y", 1, 0.0)
        assert (tmp_path / "m0" / "k1.json").is_file()
        assert (tmp_path / "m0" / "k2.json").is_file()

    def test_model_name_sanitized_for_the_filesystem(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.store("org/model:v1", "k", "x", 1, 0.0)
        assert cache.load("org/model:v1", "k")["text"] == "x"
        assert (tmp_path / "org_model_v1" / "k.json").is_file()

    @pytest.mark.parametrize(
        "content, reason",
        [
            ('{"key": "k", "text": "Score: 2*", "attem', "invalid JSON or not UTF-8"),
            ("", "invalid JSON or not UTF-8"),
            ("[1, 2]", "not a JSON object"),
            ('{"key": "k", "attempts": 1, "latency_ms": 0.0}', "'text'"),
            ('{"key": "k", "text": "Score: 2*", "latency_ms": 0.0}', "'attempts'"),
            ('{"key": "k", "text": "Score: 2*", "attempts": 1, "latency_ms": "0"}', "'latency_ms'"),
            (b"\xff\xfe not utf-8", "invalid JSON or not UTF-8"),
        ],
        ids=["truncated", "empty", "not-an-object", "no-text", "no-attempts", "bad-latency", "not-utf8"],
    )
    def test_unusable_entry_is_a_miss(self, tmp_path, caplog, content, reason):
        cache = ResponseCache(tmp_path)
        path = cache.path_of("m0", "k")
        path.parent.mkdir(parents=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        caplog.set_level(logging.DEBUG, logger="refscore.gateway")
        assert cache.load("m0", "k") is None
        [warning] = caplog.records
        assert warning.levelno == logging.WARNING
        assert str(path) in warning.getMessage()
        assert reason in warning.getMessage()


class TestRequestCompletion:
    def test_success_first_attempt(self):
        transport = ScriptedTransport([(200, OK_BODY)])
        sleeps = []
        cfg = ModelConfig(name="m0", base_url="http://host/v1")
        text, attempts, latency = request_completion(
            cfg, make_task().messages, transport=transport, sleep=sleeps.append
        )
        assert text == "Score: 3*"
        assert attempts == 1
        assert latency >= 0.0
        assert sleeps == []
        assert transport.calls[0]["url"] == "http://host/v1/chat/completions"

    def test_rate_limit_retried_with_backoff(self):
        transport = ScriptedTransport([(429, {}), (429, {}), (200, OK_BODY)])
        sleeps = []
        cfg = ModelConfig(name="m0", base_url="http://host")
        text, attempts, _ = request_completion(
            cfg, make_task().messages, transport=transport, sleep=sleeps.append
        )
        assert attempts == 3
        assert sleeps == [1.0, 2.0]

    def test_client_error_fails_immediately(self):
        transport = ScriptedTransport([(401, {"error": "bad key"})])
        sleeps = []
        cfg = ModelConfig(name="m0", base_url="http://host")
        with pytest.raises(GatewayError, match="401") as info:
            request_completion(
                cfg, make_task().messages, transport=transport, sleep=sleeps.append
            )
        assert info.value.status == 401
        assert info.value.attempts == 1
        assert sleeps == []
        assert len(transport.calls) == 1

    def test_exhausted_attempts(self):
        transport = ScriptedTransport([(503, {})] * MAX_ATTEMPTS)
        sleeps = []
        cfg = ModelConfig(name="m0", base_url="http://host")
        with pytest.raises(GatewayError, match="gave up") as info:
            request_completion(
                cfg, make_task().messages, transport=transport, sleep=sleeps.append
            )
        assert info.value.attempts == MAX_ATTEMPTS
        assert info.value.status == 503
        assert sleeps == [1.0, 2.0, 4.0, 8.0]

    def test_network_failures_retried(self):
        transport = ScriptedTransport(
            [ConnectionError("reset"), TimeoutError("slow"), OSError("unreachable"), (200, OK_BODY)]
        )
        sleeps = []
        cfg = ModelConfig(name="m0", base_url="http://host")
        text, attempts, _ = request_completion(
            cfg, make_task().messages, transport=transport, sleep=sleeps.append
        )
        assert attempts == 4
        assert text == "Score: 3*"

    @pytest.mark.parametrize(
        "retry_after, delay",
        [
            ("3", 3.0),
            (" 0 ", 0.0),
            ("3600", RETRY_AFTER_MAX_SECONDS),
            ("Fri, 31 Dec 9999 23:59:59 GMT", RETRY_AFTER_MAX_SECONDS),
            ("Sun, 06 Nov 1994 08:49:37 GMT", 0.0),
            ("Sun Nov  6 08:49:37 1994", 0.0),
            ("soon", 1.0),
            ("-5", 1.0),
            ("1.5", 1.0),
        ],
        ids=["delta", "zero", "delta-capped", "date-capped", "date-past", "asctime-past",
             "unparseable", "negative", "fraction"],
    )
    def test_retry_after_takes_the_place_of_the_backoff_step(self, retry_after, delay):
        transport = ScriptedTransport([(429, {}, retry_after), (503, {}), (200, OK_BODY)])
        sleeps = []
        cfg = ModelConfig(name="m0", base_url="http://host")
        request_completion(cfg, make_task().messages, transport=transport, sleep=sleeps.append)
        assert sleeps == [delay, 2.0]

    def test_retry_after_date_counts_from_now(self):
        transport = ScriptedTransport(
            [(503, {}, formatdate(time.time() + 30, usegmt=True)), (200, OK_BODY)]
        )
        sleeps = []
        cfg = ModelConfig(name="m0", base_url="http://host")
        request_completion(cfg, make_task().messages, transport=transport, sleep=sleeps.append)
        # an HTTP-date has whole seconds, so up to one is lost
        [delay] = sleeps
        assert 28.0 < delay <= 30.0

    def test_api_key_in_header_never_in_payload(self, monkeypatch):
        monkeypatch.setenv("TEST_GATEWAY_KEY", "sk-secret-123")
        transport = ScriptedTransport([(200, OK_BODY)])
        cfg = ModelConfig(
            name="m0", base_url="http://host", api_key_env="TEST_GATEWAY_KEY"
        )
        request_completion(cfg, make_task().messages, transport=transport)
        call = transport.calls[0]
        assert call["headers"]["Authorization"] == "Bearer sk-secret-123"
        assert "sk-secret-123" not in json.dumps(call["payload"])

    def test_preflight_names_every_missing_key(self, monkeypatch):
        monkeypatch.delenv("TEST_GATEWAY_KEY", raising=False)
        monkeypatch.delenv("TEST_GATEWAY_KEY_2", raising=False)
        monkeypatch.setenv("TEST_GATEWAY_KEY_3", "sk-present")
        url = "http://127.0.0.1:9"
        configs = [
            ModelConfig(name="m0", base_url=url, api_key_env="TEST_GATEWAY_KEY"),
            ModelConfig(name="m1", base_url=url, api_key_env="TEST_GATEWAY_KEY_2"),
            ModelConfig(name="m2", base_url=url, api_key_env="TEST_GATEWAY_KEY_3"),
            ModelConfig(name="m3", base_url=url),
        ]
        with pytest.raises(GatewayError) as info:
            preflight(configs)
        message = str(info.value)
        assert "TEST_GATEWAY_KEY (model m0)" in message
        assert "TEST_GATEWAY_KEY_2 (model m1)" in message
        assert "TEST_GATEWAY_KEY_3" not in message
        preflight(configs[2:])

    def test_preflight_names_missing_keys_and_unusable_urls_in_one_error(self, monkeypatch):
        monkeypatch.delenv("TEST_GATEWAY_KEY", raising=False)
        configs = [
            ModelConfig(name="keyless", base_url="http://127.0.0.1:9", api_key_env="TEST_GATEWAY_KEY"),
            ModelConfig(name="hostless", base_url="api.example.com/v1"),
            ModelConfig(name="both", api_key_env="TEST_GATEWAY_KEY"),
        ]
        with pytest.raises(GatewayError) as info:
            preflight(configs)
        message = str(info.value)
        assert info.value.attempts == 0
        assert "TEST_GATEWAY_KEY (model keyless)" in message
        assert "TEST_GATEWAY_KEY (model both)" in message
        assert "hostless ('api.example.com/v1')" in message
        assert "both ('')" in message
        assert "keyless (" not in message

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("TEST_GATEWAY_KEY", raising=False)
        cfg = ModelConfig(
            name="m0", base_url="http://host", api_key_env="TEST_GATEWAY_KEY"
        )
        with pytest.raises(GatewayError, match="TEST_GATEWAY_KEY"):
            request_completion(cfg, make_task().messages, transport=ScriptedTransport([]))

    def test_malformed_body_is_an_error(self):
        transport = ScriptedTransport([(200, {"unexpected": True})])
        cfg = ModelConfig(name="m0", base_url="http://host")
        with pytest.raises(GatewayError, match="choices"):
            request_completion(cfg, make_task().messages, transport=transport)

    def test_malformed_body_reports_its_attempt(self):
        transport = ScriptedTransport([(500, {}), (500, {}), (200, {"id": "x"})])
        sleeps = []
        cfg = ModelConfig(name="m0", base_url="http://host")
        with pytest.raises(GatewayError, match="choices") as info:
            request_completion(
                cfg, make_task().messages, transport=transport, sleep=sleeps.append
            )
        assert info.value.attempts == 3
        assert sleeps == [1.0, 2.0]

    def test_empty_content_is_an_error(self):
        body = {"choices": [{"message": {"content": ""}}]}
        transport = ScriptedTransport([(200, body)])
        cfg = ModelConfig(name="m0", base_url="http://host")
        with pytest.raises(GatewayError, match="empty"):
            request_completion(cfg, make_task().messages, transport=transport)

    @pytest.mark.parametrize("content", ["", None])
    def test_truncation_before_any_content_is_named_and_not_retried(self, content):
        body = {"choices": [{"message": {"content": content, "reasoning_content": "Hmm"},
                             "finish_reason": "length"}]}
        transport = ScriptedTransport([(200, body)])
        cfg = ModelConfig(name="m0", base_url="http://host", max_output_tokens=16)
        with pytest.raises(GatewayError, match="truncated at max_output_tokens") as info:
            request_completion(cfg, make_task().messages, transport=transport)
        assert info.value.attempts == 1

    def test_trailing_slash_in_base_url(self):
        transport = ScriptedTransport([(200, OK_BODY)])
        cfg = ModelConfig(name="m0", base_url="http://host/v1/")
        request_completion(cfg, make_task().messages, transport=transport)
        assert transport.calls[0]["url"] == "http://host/v1/chat/completions"


class TestBuildPayload:
    def test_optional_fields_omitted_when_unset(self):
        cfg = ModelConfig(name="m0")
        payload = _build_payload(cfg, make_task().messages)
        assert payload == {
            "model": "m0",
            "messages": [{"role": "user", "content": "Score article a1"}],
        }

    def test_temperature_and_max_tokens_pass_through(self):
        cfg = ModelConfig(name="m0", temperature=0.0, max_output_tokens=800)
        payload = _build_payload(cfg, make_task().messages)
        assert payload["temperature"] == 0.0
        assert payload["max_tokens"] == 800

    def test_extract_content_variants(self):
        assert _extract_content(OK_BODY) == "Score: 3*"
        with pytest.raises(GatewayError):
            _extract_content({"choices": []})
        with pytest.raises(GatewayError):
            _extract_content("plain text body")
        # served reasoning becomes a think span, which the parser passes over
        message = {"content": "Score: 3*", "reasoning_content": "I think 2* maybe"}
        text = _extract_content({"choices": [{"message": message}]})
        assert text == "<think>I think 2* maybe</think>\n\nScore: 3*"
        assert analyze_report(text).effective == 3.0
        for reasoning in ("", None, 5):
            message = {"content": "Score: 3*", "reasoning_content": reasoning}
            assert _extract_content({"choices": [{"message": message}]}) == "Score: 3*"


class CountingBackend:
    def __init__(self, text="Score: 3*"):
        self.text = text
        self.calls = []

    def complete_task(self, task, cfg):
        self.calls.append(task.key)
        return self.text, 1, 1.0


class GaugeBackend(CountingBackend):
    """Records the peak number of calls in flight at once."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def complete_task(self, task, cfg):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.02)
        with self.lock:
            self.active -= 1
            return super().complete_task(task, cfg)


class Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt that stops a batch part way."""


class KeyedBackend(CountingBackend):
    """Answers each task with text of its own, and raises Interrupt on every
    call after the first ``interrupt_after``."""

    blocks = True

    def __init__(self, interrupt_after=None):
        super().__init__()
        self.interrupt_after = interrupt_after
        self.lock = threading.Lock()

    def complete_task(self, task, cfg):
        with self.lock:
            if len(self.calls) == self.interrupt_after:
                raise Interrupt
            self.calls.append(task.key)
        return f"Score: 3*\n{task.key}", 1, 1.0


class NoBackend:
    def complete_task(self, task, cfg):
        raise AssertionError("this batch must send nothing")


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("this batch must not start a pool")


class TestRunBatch:
    CONFIGS = {"m0": ModelConfig(name="m0"), "m1": ModelConfig(name="m1")}

    def test_empty_batch(self):
        assert run_batch([], self.CONFIGS) == []

    def test_records_in_task_order(self):
        tasks = [make_task(article_id=f"a{i}", iteration=1) for i in range(6)]
        backend = CountingBackend()
        records = run_batch(tasks, self.CONFIGS, backend=backend)
        assert [r.article_id for r in records] == [t.article_id for t in tasks]
        assert all(r.status == STATUS_OK for r in records)

    def test_duplicate_tasks_executed_once(self):
        tasks = [make_task(), make_task()]
        backend = CountingBackend()
        records = run_batch(tasks, self.CONFIGS, backend=backend)
        assert len(records) == 2
        assert len(backend.calls) == 1
        assert records[0].text == records[1].text

    def test_warm_cache_makes_no_backend_calls(self, tmp_path):
        cache = ResponseCache(tmp_path)
        tasks = [make_task(article_id=f"a{i}") for i in range(4)]
        first = run_batch(tasks, self.CONFIGS, cache=cache, backend=CountingBackend())
        cold_backend = CountingBackend(text="should never appear")
        second = run_batch(tasks, self.CONFIGS, cache=cache, backend=cold_backend)
        assert cold_backend.calls == []
        assert second == first

    def test_warm_batch_starts_no_pool(self, tmp_path, monkeypatch):
        cache = ResponseCache(tmp_path)
        tasks = [make_task(article_id=f"a{i}", iteration=j) for i in range(4) for j in (1, 2)]
        cold = run_batch(tasks + tasks[:3], self.CONFIGS, cache=cache, backend=CountingBackend())
        monkeypatch.setattr(gateway, "ThreadPoolExecutor", NoPool)
        warm = run_batch(tasks + tasks[:3], self.CONFIGS, cache=cache, backend=CountingBackend())
        assert warm == cold

    def test_uncached_mock_batch_runs_in_the_calling_thread(self, monkeypatch):
        class PooledMock(MockBackend):
            blocks = True

        tasks = [make_task(article_id=f"a{i}", model=m, iteration=j)
                 for i in range(3) for m in ("m0", "m1") for j in (1, 2)]
        pooled = run_batch(tasks, self.CONFIGS, backend=PooledMock(seed=3))
        monkeypatch.setattr(gateway, "ThreadPoolExecutor", NoPool)
        assert run_batch(tasks, self.CONFIGS, backend=MockBackend(seed=3)) == pooled

    def test_cached_mock_batch_keeps_the_pool(self, tmp_path, monkeypatch):
        pools = []

        class CountedPool(gateway.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(gateway, "ThreadPoolExecutor", CountedPool)
        tasks = [make_task(article_id=f"a{i}") for i in range(4)]
        run_batch(tasks, self.CONFIGS, cache=ResponseCache(tmp_path), backend=MockBackend())
        assert len(pools) == 1

    def test_mixed_batch_sends_only_the_misses(self, tmp_path):
        backend = GaugeBackend()
        cache = ResponseCache(tmp_path)
        distinct = [make_task(article_id=f"a{i}") for i in range(16)]
        for i, task in enumerate(distinct[::2]):
            cache.store("m0", cache_key(task, self.CONFIGS["m0"]), "Score: 2*", 3, 100.0 + i)
        tasks = distinct + distinct[::-1]
        records = run_batch(tasks, self.CONFIGS, concurrency_limit=3, cache=cache, backend=backend)
        assert sorted(backend.calls) == sorted(t.key for t in distinct[1::2])
        assert [r.key for r in records] == [t.key for t in tasks]
        for record in records[:16]:
            index = int(record.article_id[1:])
            if index % 2 == 0:
                assert (record.text, record.attempts, record.latency_ms) == (
                    "Score: 2*", 3, 100.0 + index // 2
                )
            else:
                assert (record.text, record.attempts, record.latency_ms) == ("Score: 3*", 1, 1.0)
        assert records[16:] == records[15::-1]
        assert 2 <= backend.peak <= 3

    def test_batch_logs_one_summary_line(self, tmp_path, caplog):
        class FlakyBackend(CountingBackend):
            def complete_task(self, task, cfg):
                if task.article_id == "a3":
                    raise GatewayError("boom", status=500, attempts=5)
                return super().complete_task(task, cfg)

        cache = ResponseCache(tmp_path)
        tasks = [make_task(article_id=f"a{i}") for i in range(4)]
        run_batch(tasks[:2], self.CONFIGS, cache=cache, backend=CountingBackend())
        caplog.set_level(logging.INFO, logger="refscore.gateway")
        run_batch(tasks + tasks[:1], self.CONFIGS, cache=cache, backend=FlakyBackend())
        [line] = caplog.records
        assert line.levelno == logging.INFO
        assert line.getMessage() == (
            "batch: 5 tasks, 4 distinct requests, 2 cache hits, 2 sent, 1 failed"
        )

    def test_hits_without_a_format_are_served_and_counted(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        tasks = [make_task(article_id=f"a{i}") for i in range(3)]
        first = run_batch(tasks, self.CONFIGS, cache=cache, backend=CountingBackend())
        assert all(json.loads(p.read_text())["format"] == gateway.CACHE_FORMAT
                   for p in tmp_path.rglob("*.json"))
        caplog.set_level(logging.WARNING, logger="refscore.gateway")
        assert run_batch(tasks, self.CONFIGS, cache=cache, backend=NoBackend()) == first
        assert caplog.records == []
        for task in tasks[:2]:
            path = cache.path_of("m0", cache_key(task, self.CONFIGS["m0"]))
            entry = json.loads(path.read_text(encoding="utf-8"))
            del entry["format"]
            path.write_text(json.dumps(entry), encoding="utf-8")
        assert run_batch(tasks + tasks, self.CONFIGS, cache=cache, backend=NoBackend()) == first * 2
        [warning] = caplog.records
        assert warning.getMessage().startswith("2 cache hits predate the entry format;")

    def test_interrupted_batch_resumes_without_paying_again(self, tmp_path):
        tasks = [make_task(article_id=f"a{i}", iteration=j) for i in range(30) for j in (1, 2)]
        tasks += tasks[:10]
        distinct = 60
        uninterrupted = run_batch(tasks, self.CONFIGS, backend=KeyedBackend())
        cache = ResponseCache(tmp_path)
        with pytest.raises(Interrupt):
            run_batch(tasks, self.CONFIGS, concurrency_limit=2, cache=cache,
                      backend=KeyedBackend(interrupt_after=10))
        stored = len(list(tmp_path.rglob("*.json")))
        assert stored == 10
        backend = KeyedBackend()
        resumed = run_batch(tasks, self.CONFIGS, concurrency_limit=2, cache=cache, backend=backend)
        assert len(backend.calls) == distinct - stored
        assert resumed == uninterrupted

    def test_corrupt_cache_file_is_a_miss_and_rewritten(self, tmp_path):
        cache = ResponseCache(tmp_path)
        tasks = [make_task(article_id=f"a{i}") for i in range(3)]
        run_batch(tasks, self.CONFIGS, cache=cache, backend=CountingBackend())
        bad = cache.path_of("m0", cache_key(tasks[1], self.CONFIGS["m0"]))
        bad.write_text(bad.read_text(encoding="utf-8")[:20], encoding="utf-8")
        backend = CountingBackend()
        records = run_batch(tasks, self.CONFIGS, cache=cache, backend=backend)
        assert all(r.status == STATUS_OK for r in records)
        assert backend.calls == [tasks[1].key]
        assert json.loads(bad.read_text(encoding="utf-8"))["text"] == "Score: 3*"

    def test_unreadable_cache_entry_is_a_logged_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        tasks = [make_task(article_id=f"a{i}") for i in range(3)]
        run_batch(tasks, self.CONFIGS, cache=cache, backend=CountingBackend())
        # a directory where one entry's file belongs can be neither read nor replaced
        bad = cache.path_of("m0", cache_key(tasks[1], self.CONFIGS["m0"]))
        bad.unlink()
        bad.mkdir()
        caplog.set_level(logging.WARNING, logger="refscore.gateway")
        backend = CountingBackend()
        records = run_batch(tasks, self.CONFIGS, cache=cache, backend=backend)
        assert all(r.status == STATUS_OK for r in records)
        assert backend.calls == [tasks[1].key]
        load, store = (r.getMessage() for r in caplog.records)
        assert load.startswith(f"unusable cache entry {bad} (cannot be read: ")
        assert store.startswith(f"cache entry {bad} not written (")

    def test_failed_cache_write_keeps_the_record(self, tmp_path, caplog, monkeypatch):
        def full_disk(path, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(gateway, "atomic_write_text", full_disk)
        caplog.set_level(logging.WARNING, logger="refscore.gateway")
        cache = ResponseCache(tmp_path)
        tasks = [make_task(article_id=f"a{i}") for i in range(6)]
        backend = CountingBackend()
        records = run_batch(tasks, self.CONFIGS, cache=cache, backend=backend)
        assert [r.key for r in records] == [t.key for t in tasks]
        assert all(r.status == STATUS_OK and r.text == "Score: 3*" for r in records)
        assert len(backend.calls) == 6
        assert len(caplog.records) == 6
        assert all("No space left on device" in r.getMessage() for r in caplog.records)
        assert list(tmp_path.iterdir()) == []

    def test_failed_task_yields_failed_record_and_batch_continues(self):
        class FlakyBackend(CountingBackend):
            def complete_task(self, task, cfg):
                if task.article_id == "a1":
                    raise GatewayError("boom", status=500, attempts=5)
                return super().complete_task(task, cfg)

        tasks = [make_task(article_id=f"a{i}") for i in range(3)]
        records = run_batch(tasks, self.CONFIGS, backend=FlakyBackend())
        by_id = {r.article_id: r for r in records}
        assert by_id["a1"].status == STATUS_FAILED
        assert by_id["a1"].text == ""
        assert by_id["a1"].attempts == 5
        assert by_id["a0"].status == STATUS_OK
        assert by_id["a2"].status == STATUS_OK

    def test_failed_tasks_are_not_cached(self, tmp_path):
        class FailingBackend:
            def complete_task(self, task, cfg):
                raise GatewayError("down", status=503, attempts=5)

        cache = ResponseCache(tmp_path)
        run_batch([make_task()], self.CONFIGS, cache=cache, backend=FailingBackend())
        records = run_batch(
            [make_task()], self.CONFIGS, cache=cache, backend=CountingBackend()
        )
        assert records[0].status == STATUS_OK

    def test_concurrency_stays_under_the_limit(self):
        backend = GaugeBackend()
        tasks = [make_task(article_id=f"a{i}") for i in range(12)]
        run_batch(tasks, self.CONFIGS, concurrency_limit=3, backend=backend)
        assert backend.peak <= 3
        assert backend.peak >= 2

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="ModelConfig"):
            run_batch([make_task(model="mystery")], self.CONFIGS)

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ValueError, match="concurrency"):
            run_batch([], self.CONFIGS, concurrency_limit=0)

    def test_record_invariants(self):
        with pytest.raises(ValueError, match="non-empty text"):
            RawRecord("a", "m", "zero", 1, "", 0.0, STATUS_OK, 1)
        with pytest.raises(ValueError, match="status"):
            RawRecord("a", "m", "zero", 1, "x", 0.0, "odd", 1)
        with pytest.raises(ValueError, match="iteration"):
            make_task(iteration=0)


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers the first request 429, with the server's ``retry_after`` as
    its Retry-After header when set, and every later one 200; when the
    server has ``raw`` bytes, writes them as the whole response instead."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        self.server.requests.append(body)
        if self.server.raw is not None:
            self.wfile.write(self.server.raw)
            return
        if len(self.server.requests) == 1:
            self.send_response(429)
            if self.server.retry_after is not None:
                self.send_header("Retry-After", self.server.retry_after)
            self.end_headers()
            self.wfile.write(b"{}")
            return
        payload = {
            "choices": [
                {"message": {"content": f"Score: 2*\nmodel={body['model']}"}}
            ]
        }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.requests, server.retry_after, server.raw = [], None, None
    server.cfg = ModelConfig(name="m0", base_url=f"http://127.0.0.1:{server.server_address[1]}")
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


class TestDefaultTransportIntegration:
    def test_retry_then_success_against_local_server(self, scripted_server):
        sleeps = []
        text, attempts, latency = request_completion(
            scripted_server.cfg, make_task().messages, sleep=sleeps.append
        )
        assert text == "Score: 2*\nmodel=m0"
        assert attempts == 2
        assert sleeps == [1.0]
        assert scripted_server.requests[0]["messages"] == [
            {"role": "user", "content": "Score article a1"}
        ]

    @pytest.mark.parametrize(
        "retry_after, delay",
        [("2", 2.0), ("Fri, 31 Dec 9999 23:59:59 GMT", RETRY_AFTER_MAX_SECONDS), ("soon", 1.0)],
        ids=["delta", "date-capped", "unparseable"],
    )
    def test_retry_after_header_reaches_the_backoff(self, scripted_server, retry_after, delay):
        scripted_server.retry_after = retry_after
        sleeps = []
        request_completion(scripted_server.cfg, make_task().messages, sleep=sleeps.append)
        assert sleeps == [delay]

    def test_error_status_is_returned_with_its_body_and_retry_after(self, scripted_server):
        scripted_server.raw = (
            b"HTTP/1.1 503 Busy\r\nRetry-After: 4\r\nContent-Length: 4\r\n\r\n\xffbad"
        )
        url = scripted_server.cfg.base_url + "/chat/completions"
        assert default_transport(url, {"model": "m0"}, {}, 10.0) == (503, "\ufffdbad", "4")

    @pytest.mark.parametrize(
        "raw",
        [b"NOT HTTP AT ALL\r\n\r\n", b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}"],
        ids=["bad-status-line", "incomplete-read"],
    )
    def test_protocol_errors_become_connection_errors(self, scripted_server, raw):
        scripted_server.raw = raw
        url = scripted_server.cfg.base_url + "/chat/completions"
        with pytest.raises(ConnectionError):
            default_transport(url, {"model": "m0"}, {}, 10.0)

    def test_refused_connection_is_an_os_error(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(OSError):
            default_transport(f"http://127.0.0.1:{port}/chat/completions", {}, {}, 10.0)


class TestRoundToHalf:
    def test_grid(self):
        cases = {
            2.24: 2.0,
            2.25: 2.5,
            2.26: 2.5,
            2.49: 2.5,
            2.74: 2.5,
            2.75: 3.0,
            1.0: 1.0,
            4.0: 4.0,
        }
        for value, expected in cases.items():
            assert _round_to_half(value) == expected


class TestMockBackend:
    CONFIGS = {"m0": ModelConfig(name="m0"), "m1": ModelConfig(name="m1")}

    def test_deterministic(self):
        backend = MockBackend(noise_sd=0.4, seed=7)
        task = make_task(article_id="u1-a001")
        a = backend.complete_task(task, self.CONFIGS["m0"])
        b = backend.complete_task(task, self.CONFIGS["m0"])
        assert a == b

    def test_iterations_differ(self):
        backend = MockBackend(noise_sd=0.8, seed=7)
        texts = {
            backend.complete_task(make_task(iteration=k), self.CONFIGS["m0"])[0]
            for k in range(1, 9)
        }
        assert len(texts) > 1

    def test_every_forced_style_is_analyzable(self):
        for style in MOCK_STYLES:
            backend = MockBackend(
                latent_by_article={"a1": 3.0},
                noise_sd=0.0,
                style_by_model={"m0": style},
            )
            text, _, _ = backend.complete_task(make_task(), self.CONFIGS["m0"])
            analysis = analyze_report(text)
            if style == "multi-article":
                assert analysis.multi_article
            else:
                assert analysis.effective == 3.0

    def test_latent_comes_from_gold_map(self):
        backend = MockBackend(
            latent_by_article={"a1": 1.0}, noise_sd=0.0,
            style_by_model={"m0": "plain"},
        )
        text, _, _ = backend.complete_task(make_task(), self.CONFIGS["m0"])
        assert analyze_report(text).effective == 1.0

    def test_unknown_article_uses_stable_fallback(self):
        backend = MockBackend(noise_sd=0.0, style_by_model={"m0": "plain"})
        task = make_task(article_id="never-seen")
        a = backend.complete_task(task, self.CONFIGS["m0"])
        b = backend.complete_task(task, self.CONFIGS["m0"])
        assert a == b
        value = analyze_report(a[0]).effective
        assert 1.0 <= value <= 4.0

    def test_fallbacks_drawn_once_per_model_and_article(self, monkeypatch):
        tasks = [make_task(article_id=a, model=m, iteration=j)
                 for a in ("a1", "a2", "unknown") for m in ("m0", "m1") for j in (1, 2)]
        latent = {"a1": 2.0, "a2": 3.5}
        expected = [MockBackend(latent, seed=4).complete_task(t, self.CONFIGS[t.model]) for t in tasks]
        draws = []
        original = gateway.substream

        def counted(*path):
            if path[0] in ("mock-style", "mock-latent"):
                draws.append(path)
            return original(*path)

        monkeypatch.setattr(gateway, "substream", counted)
        backend = MockBackend(latent, seed=4)
        assert [backend.complete_task(t, self.CONFIGS[t.model]) for t in tasks] == expected
        assert sorted(draws) == [("mock-latent", "unknown"), ("mock-style", "m0"), ("mock-style", "m1")]

    def test_style_fixed_per_model(self):
        backend = MockBackend(noise_sd=0.3, seed=1)
        style_a = backend._style_for("m0")
        style_b = backend._style_for("m0")
        assert style_a == style_b
        assert style_a in MOCK_STYLES
