"""Local chat-completions endpoint for the ``live_stub`` benchmark workload.

Run as its own process:

    PYTHONPATH=src python3 perfbench/stub.py

It binds an ephemeral port on 127.0.0.1, prints ``PORT <n>`` on its first
stdout line, and serves until terminated:

* ``POST .../chat/completions`` sleeps ``DELAY_S``, then answers
  with a ``simulate_completion`` report that depends only on the request
  body (see :func:`report_for`), so a client can recompute the text it
  should have received for every request.
* ``GET /stats`` returns ``{"requests": n, "connections": c}``: completion
  requests served, and TCP connections that carried at least one of them.

No faults are injected: every completion request gets HTTP 200.
"""
from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from refscore.gateway import MOCK_STYLES, simulate_completion

NOISE_SD = 0.5
DELAY_S = 0.010


def report_for(body: dict) -> str:
    """The report served for a parsed request body.

    The body is hashed in canonical JSON form, so the report does not
    depend on how the client serialized it. The style follows the model
    name's suffix (``stub-reasoning`` -> ``reasoning``), defaulting to plain.
    """
    canonical = json.dumps(body, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    latent = 1.0 + 3.0 * int.from_bytes(digest[8:16], "little") / 2.0**64
    style = str(body.get("model", "")).partition("-")[2]
    if style not in MOCK_STYLES:
        style = "plain"
    return simulate_completion(latent, NOISE_SD, seed, style=style)


class StubStats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0


def make_handler(stats: StubStats):
    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 keeps connections open, so a client that reuses them
        # shows up as more than one request per connection
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.served_completion = False

        def _send_json(self, status: int, obj) -> None:
            data = json.dumps(obj, ensure_ascii=False).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length)
            if not self.path.endswith("/chat/completions"):
                self._send_json(404, {"error": f"no route {self.path}"})
                return
            try:
                body = json.loads(raw)
            except ValueError:
                self._send_json(400, {"error": "body is not JSON"})
                return
            with stats.lock:
                stats.requests += 1
                if not self.served_completion:
                    stats.connections += 1
            self.served_completion = True
            text = report_for(body)
            time.sleep(DELAY_S)
            self._send_json(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

        def do_GET(self):
            if self.path != "/stats":
                self._send_json(404, {"error": f"no route {self.path}"})
                return
            with stats.lock:
                snapshot = {"requests": stats.requests, "connections": stats.connections}
            self._send_json(200, snapshot)

        def log_message(self, format, *args):
            pass

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(StubStats()))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
