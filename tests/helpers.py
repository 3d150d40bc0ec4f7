"""Shared test utilities: gradient checking + server fixtures.

* :func:`gradient_check` — numeric gradient checking of graph ops;
* :func:`free_port` / :class:`ServerFixture` — run the real
  ``repro-serve`` daemon in a subprocess on an ephemeral port with
  guaranteed teardown (the `server`-marked suite uses it; in-process
  tests use :func:`repro.serve.running_server` instead);
* :class:`DripClient` — a raw-socket HTTP client that misbehaves on
  purpose (partial headers, dribbled bodies, truncated streams) for
  the slow-loris suite.  Synchronization is event-based: the client
  stops sending and *waits for the server's verdict* (a 408/400
  response or EOF), so the tests never sleep to "give the server
  time".
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph import Graph, Tensor, differentiate
from repro.runtime import execute_graph, make_feeds

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def free_port() -> int:
    """An ephemeral TCP port that was free a moment ago.

    Subject to the usual bind race; :class:`ServerFixture` prefers
    ``--port 0`` + the announce line, which has no race at all — this
    helper exists for tests that must know the port *before* the
    process starts (e.g. restart-on-same-port scenarios).
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(url: str, timeout: float = 10.0) -> Tuple[int, Any]:
    """(status, parsed JSON) for a GET; HTTP errors return their body."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_post(url: str, payload: Any,
              timeout: float = 120.0) -> Tuple[int, Any]:
    """(status, parsed JSON) for a JSON POST; 4xx/5xx return bodies."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request,
                                    timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class DripClient:
    """A deliberately slow / broken HTTP client over a raw socket.

    The server under test gets small ``--header-timeout`` /
    ``--body-timeout`` budgets; the client sends a *partial* request
    and then blocks in :meth:`read_response` until the server acts.
    The server's own timer is the only clock — when it fires, the
    client unblocks with the structured error (or EOF), so a passing
    test proves the defense rather than racing it.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 30.0):
        self.sock = socket.create_connection((host, port),
                                             timeout=timeout)

    @classmethod
    def for_server(cls, server: "ServerFixture", *,
                   timeout: float = 30.0) -> "DripClient":
        return cls("127.0.0.1", server.port, timeout=timeout)

    # -- sending -------------------------------------------------------
    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def send_headers(self, method: str, path: str, *,
                     content_length: Optional[int] = None,
                     headers: Optional[Mapping[str, str]] = None,
                     ) -> None:
        lines = [f"{method} {path} HTTP/1.1",
                 "Host: repro-test",
                 "Content-Type: application/json"]
        if content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self.send_raw(("\r\n".join(lines) + "\r\n\r\n").encode())

    def half_close(self) -> None:
        """Stop sending forever (``shutdown(SHUT_WR)``): the server
        sees EOF mid-body — the truncated-upload case."""
        self.sock.shutdown(socket.SHUT_WR)

    # -- receiving -----------------------------------------------------
    def read_response(self) -> Tuple[int, Any]:
        """Block until the server answers; ``(status, parsed body)``.

        Returns ``(0, b"")`` when the server closes the connection
        without a response (the header slow-loris outcome).
        """
        raw = b""
        while b"\r\n\r\n" not in raw:
            chunk = self.sock.recv(65536)
            if not chunk:
                return 0, b""
            raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        status = int(status_line.split()[1])
        length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(body) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                break
            body += chunk
        try:
            return status, json.loads(body)
        except ValueError:
            return status, body

    def wait_for_close(self) -> bool:
        """True when the server closed the connection (EOF)."""
        try:
            return self.sock.recv(1) == b""
        except OSError:
            return True

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DripClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServerFixture:
    """The real ``repro-serve`` daemon in a subprocess.

    ::

        with ServerFixture(cache_dir=tmp) as server:
            status, body = server.post("/v1/sweep",
                                       {"domain": "word_lm"})

    Starts ``python -m repro.serve`` with ``PYTHONPATH=src`` on an
    ephemeral port, reads the JSON announce line for the URL, waits
    for ``/healthz``, and guarantees teardown (SIGTERM, then SIGKILL
    after a grace period) however the test exits.
    """

    def __init__(self, *, cache_dir: Optional[str] = None,
                 no_cache: bool = False,
                 port: int = 0,
                 extra_args: Optional[Sequence[str]] = None,
                 extra_env: Optional[Mapping[str, str]] = None,
                 startup_timeout: float = 60.0):
        argv = [sys.executable, "-m", "repro.serve",
                "--port", str(port)]
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        if no_cache:
            argv += ["--no-cache"]
        if extra_args:
            argv += list(extra_args)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env["PYTHONUNBUFFERED"] = "1"
        if extra_env:
            env.update(extra_env)
        self.process = subprocess.Popen(
            argv, cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        self.url = ""
        self.port = 0
        try:
            self._wait_ready(startup_timeout)
        except Exception:
            self.kill()
            raise

    # -- startup -------------------------------------------------------
    def _wait_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                "repro-serve exited before announcing: "
                + (self.process.stderr.read() or "")[-2000:])
        announce = json.loads(line)
        assert announce["event"] == "serving", announce
        self.url = announce["url"]
        self.port = announce["port"]
        while time.monotonic() < deadline:
            try:
                status, body = http_get(self.url + "/healthz",
                                        timeout=2.0)
                if status == 200 and body.get("status") == "ok":
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.05)
        raise RuntimeError("repro-serve never became healthy")

    # -- requests ------------------------------------------------------
    def get(self, path: str, timeout: float = 30.0) -> Tuple[int, Any]:
        return http_get(self.url + path, timeout=timeout)

    def post(self, path: str, payload: Any,
             timeout: float = 120.0) -> Tuple[int, Any]:
        return http_post(self.url + path, payload, timeout=timeout)

    # -- teardown ------------------------------------------------------
    def terminate(self, timeout: float = 30.0) -> int:
        """Graceful SIGTERM stop; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self._drain_pipes()
        return self.process.returncode

    def kill(self) -> None:
        """Hard SIGKILL (the fault-injection path)."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)
        self._drain_pipes()

    def _drain_pipes(self) -> None:
        for pipe in (self.process.stdout, self.process.stderr):
            if pipe and not pipe.closed:
                pipe.read()
                pipe.close()

    def __enter__(self) -> "ServerFixture":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


def gradient_check(
    graph: Graph,
    loss: Tensor,
    bindings: Mapping,
    *,
    seed: int = 0,
    eps: float = 1e-6,
    tol: float = 1e-4,
    param_scale: float = 0.5,
    feeds: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Compare autodiff gradients with central finite differences.

    Builds the backward graph for ``loss``, executes in float64, and
    perturbs every parameter element.  Raises AssertionError on
    mismatch beyond ``tol`` (absolute, on normalized gradients).
    """
    grads = differentiate(graph, loss)
    if feeds is None:
        feeds = make_feeds(graph, bindings, seed=seed)
    feeds = {
        k: (v.astype(np.float64) if v.dtype.kind == "f" else v)
        for k, v in feeds.items()
    }

    rng = np.random.default_rng(seed + 100)
    params: Dict[str, np.ndarray] = {}
    from repro.runtime import bind_shape

    for t in graph.parameters():
        shape = bind_shape(t, bindings)
        fan_in = shape[0] if shape else 1
        params[t.name] = (
            rng.standard_normal(shape) * param_scale / np.sqrt(max(fan_in, 1))
        )

    base = execute_graph(graph, feeds, bindings, params=params)

    def loss_at(p):
        result = execute_graph(graph, feeds, bindings, params=p)
        return float(np.sum(result[loss]))

    for pname, value in params.items():
        tensor = graph.find(pname)
        if tensor not in grads:
            continue
        analytic = np.asarray(base[grads[tensor].name], dtype=np.float64)
        numeric = np.zeros_like(value)
        it = np.nditer(value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = {k: v.copy() for k, v in params.items()}
            bumped[pname][idx] += eps
            up = loss_at(bumped)
            bumped[pname][idx] -= 2 * eps
            down = loss_at(bumped)
            numeric[idx] = (up - down) / (2 * eps)
        scale = max(np.abs(numeric).max(), 1.0)
        err = np.abs(analytic - numeric).max() / scale
        assert err < tol, (
            f"gradient mismatch for {pname}: normalized max err {err:.3e}"
        )
