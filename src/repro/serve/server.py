"""The HTTP shell: routing, error envelopes, lifecycle.

A deliberately thin layer — every route is a few lines over
:class:`~repro.serve.service.AnalysisService`:

====================  ======  ====================================
route                 method  handler
====================  ======  ====================================
``/healthz``          GET     liveness, uptime, compute gate
``/metrics``          GET     ``repro.obs`` OpenMetrics exposition
``/v1/stats``         GET     JSON metrics snapshot (bench reads it)
``/v1/<endpoint>``    POST    query (sweep/plan/lint/exhibit)
====================  ======  ====================================

Errors never leak tracebacks: a :class:`~repro.errors.ReproError`
becomes a structured body ``{"error": {"code", "message", "hint",
"context"}}`` with the status its code maps to — E-BIND 400 (413 for
an oversize body, 408 for a body-read timeout), E-BUSY 429 with a
``Retry-After`` header, E-EXEC 503, E-DEADLINE 504 — anything else a
minimal E-INT 500.  Each request increments
``serve.http.<route>.requests`` and lands its wall time in
``serve.http.<route>.latency_ns``.  An error sent before a POST's body
was read also closes the connection (``Connection: close``): the
unread body would otherwise be parsed as the next request.

The server is ``ThreadingHTTPServer`` (one thread per connection,
``daemon_threads=True``, a listen backlog of 64) speaking HTTP/1.1
with explicit Content-Length, so load generators can reuse keep-alive
connections.
Slow-loris defense: every connection read runs under
``config.header_timeout`` (socket timeout — a client dribbling header
bytes gets disconnected by the stdlib's ``handle_one_request``
timeout path), and request bodies are read in chunks under a
``config.body_timeout`` wall-clock budget.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__, obs
from ..deadline import Deadline
from ..errors import BindingError, ReproError
from ..exec.store import ResultStore
from .admission import MAX_BODY_BYTES, AdmissionController, \
    ServeConfig
from .chaos import ChaosController
from .service import AnalysisService, ENDPOINTS, canonical_json

__all__ = ["ReproServer", "ServeConfig", "running_server",
           "MAX_BODY_BYTES"]

_ERRORS_400 = obs.counter("serve.http.client_errors")
_ERRORS_500 = obs.counter("serve.http.server_errors")
#: requests that fell through to the catch-all E-INT 500 — the chaos
#: gate pins this at 0: every failure mode must map to a structured
#: status (400/408/413/429/503/504), never the generic internal error
_UNSTRUCTURED = obs.counter("serve.http.unstructured_errors")

#: ReproError code -> HTTP status (default 400 for client errors)
_STATUS_BY_CODE = {"E-BUSY": 429, "E-EXEC": 503, "E-DEADLINE": 504}


def _client_error(message: str, *, status: int,
                  hint: Optional[str] = None) -> BindingError:
    """A BindingError that maps to a non-400 client status."""
    error = BindingError(message, hint=hint)
    error.http_status = status
    return error


def _error_body(code: str, message: str,
                hint: Optional[str] = None,
                context: Optional[Any] = None) -> bytes:
    error: Dict[str, Any] = {"code": code, "message": message}
    if hint:
        error["hint"] = hint
    if context:
        error["context"] = context
    return canonical_json({"error": error})


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 + explicit Content-Length => keep-alive works, which
    # the load generator depends on for realistic qps
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/" + __version__
    # without TCP_NODELAY, Nagle + delayed ACK pins every keep-alive
    # round trip at ~40ms regardless of how fast the store answers
    disable_nagle_algorithm = True
    #: set per request: a POST whose body has not been read yet
    _body_unread = False

    # -- plumbing ------------------------------------------------------
    def setup(self) -> None:
        # per-connection state: the socket read timeout (slow-loris
        # defense — the stdlib's handle_one_request turns a header
        # read timeout into a silent disconnect)
        config = self.server.repro.config  # type: ignore[attr-defined]
        self.timeout = config.header_timeout
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr-per-request logging; the obs
        counters/histograms are the request log."""

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json",
              extra_headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, status: int, code: str,
                            message: str,
                            hint: Optional[str] = None,
                            context: Optional[Any] = None,
                            extra_headers: Optional[Dict[str, str]]
                            = None) -> None:
        (_ERRORS_400 if status < 500 else _ERRORS_500).inc()
        headers = dict(extra_headers or {})
        if self._body_unread:
            # the unread body would be parsed as the next request;
            # send_header sets close_connection for this header
            headers["Connection"] = "close"
        self._send(status, _error_body(code, message, hint, context),
                   extra_headers=headers)

    def _request_deadline(self) -> Optional[Deadline]:
        """The request's wall-clock budget: ``?deadline_ms=`` or the
        ``X-Repro-Deadline-Ms`` header (the query param wins)."""
        raw = None
        query = urlsplit(self.path).query
        if query:
            values = parse_qs(query).get("deadline_ms")
            if values:
                raw = values[-1]
        if raw is None:
            raw = self.headers.get("X-Repro-Deadline-Ms")
        if raw is None:
            return None
        try:
            budget_ms = float(raw)
            if not budget_ms > 0:
                raise ValueError
        except ValueError:
            raise BindingError(
                f"deadline_ms must be a positive number of "
                f"milliseconds, got {raw!r}") from None
        return Deadline(budget_ms)

    def _read_json_body(self) -> Any:
        config = self.server.repro.config  # type: ignore[attr-defined]
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise BindingError(
                f"Content-Length must be a non-negative decimal "
                f"integer, got {raw_length!r}")
        length = int(raw_length)
        if length > config.max_body_bytes:
            raise _client_error(
                f"request body of {length} bytes exceeds the "
                f"{config.max_body_bytes}-byte limit "
                f"(max_body_bytes)",
                status=413,
                hint="split the query (e.g. chunk the 'sizes' "
                     "series) across several requests")
        raw = self._read_body_bytes(length, config.body_timeout)
        self._body_unread = False
        if not raw:
            raise BindingError(
                "empty request body; expected a JSON object",
                hint='send e.g. {"domain": "word_lm"}')
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise BindingError(
                f"request body is not valid JSON: {error}") from None

    def _read_body_bytes(self, length: int,
                         budget_s: float) -> bytes:
        """Read exactly ``length`` bytes under a wall-clock budget.

        Chunked reads with a per-read socket timeout: a byte-dripping
        client cannot pin the thread past ``body_timeout`` (408), and
        a short body (client hung up early) is a structured 400
        instead of a hang or a confused keep-alive stream.
        """
        if not length:
            return b""
        budget = Deadline(max(0.05, budget_s) * 1000.0)
        chunks, remaining = [], length
        previous_timeout = self.connection.gettimeout()
        try:
            while remaining > 0:
                if budget.expired():
                    self.close_connection = True
                    raise _client_error(
                        f"request body not received within the "
                        f"{budget_s:g}s body_timeout budget",
                        status=408,
                        hint="send the body promptly or raise the "
                             "server's --body-timeout")
                self.connection.settimeout(
                    max(0.05, budget.remaining_s()))
                try:
                    chunk = self.rfile.read(min(remaining, 65536))
                except (socket.timeout, TimeoutError):
                    self.close_connection = True
                    raise _client_error(
                        f"timed out reading the request body after "
                        f"{sum(map(len, chunks))} of {length} bytes",
                        status=408,
                        hint="send the body promptly or raise the "
                             "server's --body-timeout") from None
                if not chunk:
                    self.close_connection = True
                    raise BindingError(
                        f"truncated request body: Content-Length "
                        f"promised {length} bytes but the stream "
                        f"ended after "
                        f"{sum(map(len, chunks))}",
                        hint="the client disconnected or sent a "
                             "wrong Content-Length")
                chunks.append(chunk)
                remaining -= len(chunk)
        finally:
            try:
                self.connection.settimeout(previous_timeout)
            except OSError:  # pragma: no cover - socket already gone
                pass
        return b"".join(chunks)

    def _route(self, method: str) -> None:
        route = self.path.split("?", 1)[0].rstrip("/") or "/"
        label = route.strip("/").replace("/", ".") or "root"
        self._body_unread = method == "POST"
        obs.counter(f"serve.http.{label}.requests").inc()
        t0 = time.monotonic_ns()
        try:
            self._dispatch(method, route)
        except ReproError as error:
            status = (getattr(error, "http_status", None)
                      or _STATUS_BY_CODE.get(error.code, 400))
            headers: Dict[str, str] = {}
            retry_after = getattr(error, "retry_after", None)
            if retry_after is None and status == 503:
                retry_after = 1.0
            if retry_after is not None:
                headers["Retry-After"] = str(
                    max(1, int(math.ceil(retry_after))))
            context: Optional[Any] = (list(error.context)
                                      if error.context else None)
            progress = getattr(error, "progress", None)
            if progress:
                context = (context or []) + [dict(progress)]
            self._send_error_payload(
                status, error.code, error.message, error.hint,
                context, extra_headers=headers or None)
        except BrokenPipeError:  # client went away mid-response
            pass
        except (socket.timeout, TimeoutError):
            # reading (or answering) this client timed out after the
            # response started; nothing structured can be sent
            self.close_connection = True
        except Exception as error:
            _UNSTRUCTURED.inc()
            self._send_error_payload(
                500, "E-INT",
                f"internal error: {type(error).__name__}")
        finally:
            obs.histogram(f"serve.http.{label}.latency_ns").observe(
                time.monotonic_ns() - t0)

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    # -- routes --------------------------------------------------------
    def _dispatch(self, method: str, route: str) -> None:
        server: "ReproServer" = self.server.repro  # type: ignore
        if method == "GET":
            if route == "/healthz":
                return self._send(200, canonical_json(
                    server.health_payload()))
            if route == "/metrics":
                text = obs.openmetrics_text()
                return self._send(
                    200, text.encode("utf-8"),
                    "application/openmetrics-text; version=1.0.0; "
                    "charset=utf-8")
            if route == "/v1/stats":
                return self._send(200, canonical_json(
                    {"metrics": obs.snapshot()}))
            return self._send_error_payload(
                404, "E-BIND", f"no GET route {route!r}",
                "GET routes: /healthz /metrics /v1/stats")

        if route.startswith("/v1/"):
            endpoint = route[len("/v1/"):]
            if endpoint in ENDPOINTS:
                deadline = self._request_deadline()
                params = self._read_json_body()
                return self._send(
                    200, server.service.query_bytes(
                        endpoint, params, deadline=deadline))
        return self._send_error_payload(
            404, "E-BIND", f"no POST route {route!r}",
            f"POST routes: /v1/{{{', '.join(sorted(ENDPOINTS))}}}")


class _HTTPServer(ThreadingHTTPServer):
    """The daemon's listener: one thread per connection.

    ``socketserver``'s default listen backlog of 5 holds only six
    pending connects; the rest of a burst of simultaneous clients
    waits out the kernel's SYN retries (1 s and more) before the
    accept loop ever sees it.
    """

    request_queue_size = 64
    daemon_threads = True


class ReproServer:
    """The daemon: service + threading HTTP server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 store: Optional[ResultStore] = None,
                 config: Optional[ServeConfig] = None,
                 chaos: Optional[ChaosController] = None):
        self.config = config or ServeConfig()
        self.chaos = chaos
        # the supervised pool forks before the HTTP threads start
        self.pool = None
        if self.config.compute_workers > 0:
            from ..exec.engine import SupervisedPool

            self.pool = SupervisedPool(self.config.compute_workers)
        self.admission = AdmissionController(self.config)
        if chaos is not None and self.pool is not None:
            chaos.bind(kill_worker=self.pool.kill_worker)
        self.service = AnalysisService(
            store, admission=self.admission, pool=self.pool,
            chaos=chaos)
        self.httpd = _HTTPServer((host, port), _Handler)
        self.httpd.repro = self  # type: ignore[attr-defined]
        self.started_at = time.time()
        self._thread: Optional[threading.Thread] = None

    # -- addresses -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- payloads ------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        payload = {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "endpoints": self.service.endpoints(),
            "admission": self.admission.gate.snapshot(),
            "compute_workers": (self.pool.workers
                                if self.pool is not None else 0),
        }
        if self.chaos is not None:
            payload["chaos"] = self.chaos.snapshot()
        return payload

    # -- lifecycle -----------------------------------------------------
    def start_background(self) -> None:
        """Serve on a daemon thread (tests, and the CLI main loop)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http", daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        """Stop accepting, join the serve thread, close the pool."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join()
        if self.pool is not None:
            self.pool.close()


@contextmanager
def running_server(**kwargs: Any) -> Iterator[ReproServer]:
    """An in-process server on an ephemeral port, torn down on exit.

    The in-thread twin of ``tests.helpers.ServerFixture`` (which runs
    the real console script in a subprocess); this one shares the
    process with the caller so tests can assert on obs counters and
    monkeypatch endpoints.
    """
    server = ReproServer(**kwargs)
    server.start_background()
    try:
        yield server
    finally:
        server.shutdown()
