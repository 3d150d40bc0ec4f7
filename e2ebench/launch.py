"""Run a program entry point with per-layer attribution installed.

    python3 e2ebench/launch.py --out layers.json repro.cli table1

imports ``repro.cli``, wraps the layers listed in ``layers.py``, calls
``repro.cli.main(["table1"])`` in this process, and when it returns
writes the recorded layer times and counts to ``layers.json``.  The
program's exit status is passed through.
"""

from __future__ import annotations

import importlib
import json
import sys

import layers


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--out":
        print("usage: launch.py --out PATH MODULE [ARGS...]",
              file=sys.stderr)
        return 2
    out, module_name, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    module = importlib.import_module(module_name)
    layers.install()
    try:
        return module.main(argv)
    finally:
        with open(out, "w") as handle:
            json.dump(layers.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
