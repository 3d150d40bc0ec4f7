"""Module-level worker functions for the engine fault-injection tests.

Pool workers receive functions pickled by reference, so everything an
engine test ships to a worker must live in an importable module (test
classes and closures don't pickle).  Fault injection keys off the
process id: ``PARENT_PID`` is captured at import, and with the fork
start method (the Linux default) children inherit it, so a function can
misbehave *only inside a pool worker* while the same call succeeds in
the parent — exactly what the serial-fallback path needs to prove it
rescues a flaky pool.
"""

import os
import time

PARENT_PID = os.getpid()


def in_worker() -> bool:
    return os.getpid() != PARENT_PID


def double(x):
    """Well-behaved baseline payload."""
    return x * 2


def raise_in_worker(x):
    """Raises in every pool worker; succeeds in the parent."""
    if in_worker():
        raise RuntimeError("injected worker failure")
    return x * 2


def hang_in_worker(x, seconds=30.0):
    """Hangs past any reasonable deadline in a worker; instant in the
    parent."""
    if in_worker():
        time.sleep(seconds)
    return x * 2


def corrupt_in_worker(x):
    """Returns a validator-rejected payload from workers only."""
    if in_worker():
        return {"corrupt": True}
    return {"value": x * 2}


def payload_ok(payload) -> bool:
    return isinstance(payload, dict) and "value" in payload


def traced_payload(x):
    """Well-behaved payload that records its own span + metrics, so
    trace-merge tests can see worker-side instrumentation come home."""
    from repro import obs

    obs.counter("test.worker.calls").inc()
    obs.histogram("test.worker.value").observe(float(x))
    with obs.span("test.worker_body", "test", x=x):
        return x * 2


def fail_first_n(counter_path, n, x):
    """Fails the first ``n`` calls, then succeeds — state lives in a
    file so attempts are counted across pool worker processes."""
    try:
        with open(counter_path) as handle:
            attempts = int(handle.read().strip() or 0)
    except FileNotFoundError:
        attempts = 0
    attempts += 1
    with open(counter_path, "w") as handle:
        handle.write(str(attempts))
    if attempts <= n:
        raise RuntimeError(f"injected failure #{attempts}")
    return x * 2
