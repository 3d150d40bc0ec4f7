"""repro — reproduction of Hestness et al., PPoPP 2019.

"Beyond Human-Level Accuracy: Computational Challenges in Deep
Learning" characterizes deep-learning training compute requirements
with symbolic compute-graph analysis and projects them to
beyond-human-level accuracy targets.  This package rebuilds that whole
pipeline from scratch:

* :mod:`repro.symbolic` — computer-algebra core (symbolic dimensions),
* :mod:`repro.graph` / :mod:`repro.ops` — compute-graph IR + op library
  with algorithmic FLOP/byte accounting and reverse-mode autodiff,
* :mod:`repro.models` — the paper's five model families,
* :mod:`repro.analysis` — FLOPs/bytes/footprint/intensity analytics and
  first-order model fitting,
* :mod:`repro.runtime` — numpy executor + profiler (TFprof substitute)
  and a BFC-style allocator simulator,
* :mod:`repro.scaling` — learning-curve / model-size power laws and the
  accuracy-frontier projection,
* :mod:`repro.hardware` — Roofline, cache-hierarchy, and interconnect
  models of a V100-class accelerator,
* :mod:`repro.planner` — subbatch selection and the data/model
  parallelism case study,
* :mod:`repro.reports` — regenerates every table and figure of the
  paper's evaluation,
* :mod:`repro.errors` — the pipeline-wide error taxonomy (stable
  ``E-*`` codes, context chains, CLI exit codes).

Importing ``repro`` loads none of these: each package root re-exports
lazily, so a run answered from the result store pays only for the code
it calls (DESIGN.md, "Import layering").
"""

__version__ = "1.0.0"

__all__ = ["symbolic", "errors", "__version__"]


def __getattr__(name: str):
    # the re-exported subpackages load on first use: a process that
    # only reads the result store never imports numpy or the algebra
    if name in ("symbolic", "errors"):
        from importlib import import_module

        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
