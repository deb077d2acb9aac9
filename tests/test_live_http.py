"""The score and extract stages against a local HTTP endpoint.

The server answers each request by its model and by whether the same body
came before, never by arrival order, so the order in which the workers
send cannot change any outcome.
"""
import functools
import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from refscore import gateway, harness
from refscore.harness import load_config, run_stages
from refscore.synth import make_synthetic_corpus
from test_harness import write_config

REPORT = "The design is sound and the claims follow.\n\nScore: 3*\n"
# served apart from the answer, as DeepSeek and vLLM's reasoning parsers do
REASONING = "Is this 1*? Score: 1* maybe."
RETRY_AFTER = "3"

# model -> (reply to a body's first request, reply to a repeat); "reply"
# is a 200 carrying REPORT, "reasoning" one carrying REPORT with REASONING
# as its reasoning_content, "drop" closes the connection without a reply,
# "no-choices" is a 200 whose body lacks choices, "length" a 200 cut off at
# the token limit before any content. A 429 carries RETRY_AFTER. A model
# with one entry fails on its first request, so a repeat must never come.
PLAN = {
    "ok": ("reply", "reply"),
    "busy": (429, "reply"),
    "flaky": (500, "reply"),
    "drop": ("drop", "reply"),
    "thinker": ("reasoning", "reasoning"),
    "malformed": ("no-choices",),
    "refused": (400,),
    "truncated": ("length",),
}
ATTEMPTS = {
    "ok": 1, "busy": 2, "flaky": 2, "drop": 2, "thinker": 1, "malformed": 1, "refused": 1,
    "truncated": 1,
}
FAILED = {"malformed", "refused", "truncated"}


class PlannedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        model = json.loads(raw)["model"]
        with self.server.lock:
            repeat = raw in self.server.bodies
            self.server.bodies.add(raw)
            self.server.requests[model] += 1
        reply = PLAN[model][repeat]
        if reply == "drop":
            self.close_connection = True
            return
        if reply == "reply":
            status, body = 200, {"choices": [{"message": {"content": REPORT}}]}
        elif reply == "reasoning":
            message = {"content": REPORT, "reasoning_content": REASONING}
            status, body = 200, {"choices": [{"message": message}]}
        elif reply == "length":
            message = {"content": "", "reasoning_content": REASONING}
            status, body = 200, {"choices": [{"message": message, "finish_reason": "length"}]}
        else:
            status, body = (200 if reply == "no-choices" else reply), {"error": "planned"}
        data = json.dumps(body).encode()
        self.send_response(status)
        if status == 429:
            self.send_header("Retry-After", RETRY_AFTER)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), PlannedHandler)
    httpd.lock, httpd.bodies, httpd.requests = threading.Lock(), set(), Counter()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_score_and_extract_against_a_local_endpoint(tmp_path, server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(
        harness, "HttpBackend", functools.partial(gateway.HttpBackend, sleep=sleeps.append)
    )
    url = f"http://127.0.0.1:{server.server_address[1]}"
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    # one zero-shot iteration: every request body is distinct, so a body
    # that comes again is a retry
    cfg_path = write_config(
        tmp_path, corpus, mock=False, strategies=["zero"], iterations=1, concurrency=3,
        models=[{"name": name, "base_url": url, "request_timeout": 10.0} for name in PLAN],
    )
    manifest = run_stages(load_config(cfg_path), ("ingest", "score", "extract"))
    out = tmp_path / "out"
    n_articles = len(read_jsonl(out / "articles.jsonl"))
    records = read_jsonl(out / "records.jsonl")
    parsed = read_jsonl(out / "parsed.jsonl")

    assert manifest["failure"] is None
    assert dict(server.requests) == {m: n_articles * ATTEMPTS[m] for m in PLAN}
    # each retried request backs off once: busy's 429 for its Retry-After,
    # flaky and drop by the first backoff step
    assert sorted(sleeps) == sorted(
        [gateway.RETRY_BASE_SECONDS] * (2 * n_articles) + [float(RETRY_AFTER)] * n_articles
    )
    assert len(records) == len(parsed) == len(PLAN) * n_articles
    for rec, row in zip(records, parsed):
        model = rec["model"]
        assert rec["attempts"] == ATTEMPTS[model], model
        assert [row[k] for k in ("article_id", "model", "strategy", "iteration", "status")] == [
            rec[k] for k in ("article_id", "model", "strategy", "iteration", "status")
        ]
        scores = [row[k] for k in ("effective", "overall", "originality", "significance", "rigour")]
        if model in FAILED:
            assert rec["status"] == gateway.STATUS_FAILED
            assert (rec["text"], rec["latency_ms"]) == ("", 0.0)
            assert scores == [None] * 5 and row["flags"] == []
        else:
            assert rec["status"] == gateway.STATUS_OK
            if model == "thinker":
                assert rec["text"] == f"<think>{REASONING}</think>\n\n{REPORT}"
            else:
                assert rec["text"] == REPORT
            assert row["effective"] == row["overall"] == 3.0

    counts = {stage["name"]: stage["counts"] for stage in manifest["stages"]}
    n_ok = (len(PLAN) - len(FAILED)) * n_articles
    assert counts["score"] == {
        "tasks": len(records), "ok": n_ok, "failed": len(FAILED) * n_articles
    }
    assert counts["extract"] == {
        "records": len(records), "parsed_ok": n_ok, "with_score": n_ok,
        "multi_article": 0, "no_score": 0,
    }
