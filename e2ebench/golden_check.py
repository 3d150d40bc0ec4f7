"""Compare the exhibits a cold ``repro-report all`` stored against the
checked-in goldens, using the golden suite's own comparator.

    python3 e2ebench/golden_check.py STORE_DIR

Every store entry that holds a Table or Figure is snapshotted and
matched to a golden by title; each golden exhibit must be matched by
exactly one entry and agree within the suite's tolerance.  Prints one
JSON line and exits 0 only when all goldens match.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from repro.reports import Figure, Table  # noqa: E402
from tests.golden import _compare  # noqa: E402
from tests.golden.test_golden import EXHIBITS, _tolerance  # noqa: E402


def main() -> int:
    store = sys.argv[1]
    reports = []
    for path in sorted(glob.glob(os.path.join(store, "*", "*.pkl"))):
        with open(path, "rb") as handle:
            value = pickle.load(handle)
        if isinstance(value, (Table, Figure)):
            reports.append(_compare.snapshot_exhibit(value))
    problems = []
    for name in EXHIBITS:
        golden = _compare.load_golden(name)
        found = [s for s in reports if s["title"] == golden["title"]]
        if len(found) != 1:
            problems.append(f"{name}: {len(found)} stored exhibits "
                            "carry its title")
            continue
        problems.extend(_compare.diff_exhibit(name, found[0], golden,
                                              rel_tol=_tolerance(name)))
    print(json.dumps({"stored_exhibits": len(reports),
                      "goldens": len(EXHIBITS),
                      "problems": problems[:20]}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
