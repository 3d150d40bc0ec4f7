"""The M rule family on its own: the planner's solver preconditions.

    PYTHONPATH=src python3 e2ebench/solver_check.py

``repro-lint`` runs the M family only on a full-registry lint, which
takes minutes; this calls the same public pass,
``repro.check.solver_lint.solver_diagnostics``, and prints one JSON
line with its diagnostics.  ``launch.py`` can run its ``main`` like a
CLI's.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    from repro.check.solver_lint import solver_diagnostics

    found = solver_diagnostics()
    print(json.dumps({"diagnostics": [d.code for d in found]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
