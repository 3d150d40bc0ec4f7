"""``repro-lint``: static-analysis gate over the model registry.

Runs the analysis passes (structure, dataflow, cost formulas,
autodiff, compiled tapes, whole-domain interval proofs, and — on a
full-registry run — solver monotonicity preconditions) across every
model in the registry — or a chosen subset — and reports
severity-ranked findings::

    repro-lint                        # all domains, text report
    repro-lint --domain word_lm --domain image
    repro-lint --json > lint.json     # machine-readable (CI artifact)
    repro-lint --select C,T           # only cost + tape families
    repro-lint --ignore G002          # drop one rule
    repro-lint --list-rules

``--select`` / ``--ignore`` decide which passes run, not only which
findings are kept: a family's pass runs only when one of its rules
can get past them, so ``--select C003`` runs the cost pass alone and
keeps its C003 findings.  A filter under which no pass would run
(``--select X``, which only the exec engine runs; ``--select M`` with
``--domain``; ``--select S --ignore S``) is a usage error (exit 2),
not a clean report.

Exits nonzero when any finding at or above ``--fail-on`` severity
(default: error) survives filtering — the CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import BindingError
from .diagnostics import (
    ERROR,
    INFO,
    RULES,
    SEVERITY_RANK,
    WARNING,
    check_lint_filter,
    check_rule_codes,
)

__all__ = ["main", "JSON_SCHEMA_VERSION"]

#: bumped whenever the --json report shape changes; downstream tooling
#: (the CI gate, repro-obs) keys format handling off this field.
#: 2 = added schema_version itself, the I/M/X rule families, the
#: planner.subbatch pseudo-graph row, and data["proof"] payloads.
JSON_SCHEMA_VERSION = 2

#: display order + titles for --list-rules family grouping
_FAMILIES = [
    ("S", "structural invariants"),
    ("G", "graph dataflow lint"),
    ("C", "cost-formula dimensional analysis"),
    ("A", "autodiff consistency"),
    ("T", "compiled-tape verification"),
    ("I", "interval proofs over declared domains (absint)"),
    ("M", "solver monotonicity preconditions (absint)"),
    ("X", "exec task-DAG lint"),
]


def _split_codes(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    out = []
    for v in values:
        out.extend(p.strip() for p in v.split(",") if p.strip())
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analyzer for repro compute graphs: "
                    "dataflow lint, cost-formula dimensional analysis, "
                    "autodiff consistency, and compiled-tape "
                    "verification.",
    )
    parser.add_argument(
        "--domain", action="append", metavar="KEY",
        help="registry domain to lint (repeatable); default: all",
    )
    parser.add_argument(
        "--forward-only", action="store_true",
        help="lint the forward graphs instead of full training steps",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a JSON report instead of text",
    )
    parser.add_argument(
        "--select", action="append", metavar="CODES",
        help="comma-separated rule codes/family prefixes to run "
             "(e.g. 'C,T001'); default: all rules",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="CODES", default=[],
        help="comma-separated rule codes/family prefixes to drop",
    )
    parser.add_argument(
        "--fail-on", choices=[ERROR, WARNING, INFO], default=ERROR,
        help="minimum severity that makes the exit status nonzero "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        grouped = {prefix for prefix, _ in _FAMILIES}
        for prefix, title in _FAMILIES:
            codes = sorted(c for c in RULES if c.startswith(prefix))
            if not codes:
                continue
            print(f"{prefix} — {title}")
            for code in codes:
                rule = RULES[code]
                print(f"  {code} {rule.name:32s} {rule.severity:8s} "
                      f"{rule.description}")
        # future-proofing: any family not in the display table still
        # prints rather than silently vanishing from the listing
        orphans = sorted(c for c in RULES if c[0] not in grouped)
        for code in orphans:
            rule = RULES[code]
            print(f"  {code} {rule.name:32s} {rule.severity:8s} "
                  f"{rule.description}")
        return 0

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore) or ()
    try:
        check_rule_codes(select, "--select")
        check_rule_codes(ignore, "--ignore")
        check_lint_filter(select, ignore, full_registry=not args.domain)
    except BindingError as error:
        parser.error(error.render())

    # import late so --list-rules works without building anything
    from .driver import lint_registry

    per_domain = lint_registry(
        args.domain,
        training=not args.forward_only,
        select=select,
        ignore=ignore,
    )

    counts = {ERROR: 0, WARNING: 0, INFO: 0}
    for diagnostics in per_domain.values():
        for d in diagnostics:
            counts[d.severity] += 1

    if args.json:
        payload = {
            "version": 1,
            "schema_version": JSON_SCHEMA_VERSION,
            "training": not args.forward_only,
            "graphs": {
                key: [d.to_dict() for d in diagnostics]
                for key, diagnostics in per_domain.items()
            },
            "summary": counts,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, diagnostics in per_domain.items():
            status = "clean" if not diagnostics else \
                f"{len(diagnostics)} finding(s)"
            print(f"== {key}: {status}")
            for d in diagnostics:
                print(f"  {d.format()}")
        print(f"-- {counts[ERROR]} error(s), {counts[WARNING]} "
              f"warning(s), {counts[INFO]} info")

    threshold = SEVERITY_RANK[args.fail_on]
    failing = sum(
        n for sev, n in counts.items() if SEVERITY_RANK[sev] <= threshold
    )
    return 1 if failing else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
