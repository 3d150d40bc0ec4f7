"""Module-level worker functions for the engine fault-injection tests.

Pool workers receive functions pickled by reference, so everything an
engine test ships to a worker must live in an importable module (test
classes and closures don't pickle).  Fault injection keys off the
process id: ``PARENT_PID`` is captured at import, and with the fork
start method (the Linux default) children inherit it, so a function can
misbehave *only inside a pool worker* while the same call succeeds in
the parent.  That tells the two fault classes apart: a task that fails
must fail the run after one call (a success would mean it was rerun),
while a pool fault must hand the rest of the run to the serial path
(where the same call succeeds).
"""

import os
import signal
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


def die_in_worker(x):
    """SIGKILLs its own pool worker (a worker death); fine in the
    parent."""
    if in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 2


def count_calls_then_bind_error(counter_path):
    """Raises E-BIND on every call, counting the calls in a file so
    they add up across pool worker processes and the parent."""
    from repro.errors import BindingError

    try:
        with open(counter_path) as handle:
            calls = int(handle.read().strip() or 0)
    except FileNotFoundError:
        calls = 0
    with open(counter_path, "w") as handle:
        handle.write(str(calls + 1))
    raise BindingError("injected deterministic failure")


def loaded_modules():
    """The ``repro`` modules this process has imported."""
    import sys

    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "repro")
