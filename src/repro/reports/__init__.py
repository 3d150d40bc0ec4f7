"""Report generators: every table and figure of the paper's evaluation.

Each generator returns a structured :class:`~repro.reports.common.Table`
or :class:`~repro.reports.common.Figure` with ``render()`` (terminal)
and ``to_csv()`` (external plotting) methods.  The benchmark harness
under ``benchmarks/`` prints one report per paper exhibit.

:data:`EXHIBITS` is the one list of exhibits: the CLI's choices,
:data:`ALL_REPORTS` and this package's re-exports all read it.  The
package re-exports lazily (module ``__getattr__``): importing
``repro.reports`` loads no generator, so unpickling a stored
:class:`~repro.reports.common.Table` costs only
:mod:`~repro.reports.common`, while ``from repro.reports import fig6``
still works and loads the module ``fig6`` lives in.
"""

from importlib import import_module

#: every exhibit ``repro-report`` regenerates: name -> (submodule,
#: generator function), in the paper's order and then the extensions'
EXHIBITS = {
    "table1": ("tables", "table1"),
    "table2": ("tables", "table2"),
    "table3": ("tables", "table3"),
    "table4": ("tables", "table4"),
    "table5": ("tables", "table5"),
    "fig6": ("figures", "fig6"),
    "fig7": ("figures", "fig7"),
    "fig8": ("figures", "fig8"),
    "fig9": ("figures", "fig9"),
    "fig10": ("figures", "fig10"),
    "fig11": ("figures", "fig11"),
    "fig12": ("figures", "fig12"),
    "ablation_cache": ("ablations", "ablation_cache_size"),
    "ablation_memory": ("ablations", "ablation_memory_capacity"),
    "ablation_interconnect": ("ablations", "ablation_interconnect"),
    "ablation_precision": ("ablations", "ablation_precision"),
    "ablation_scheduler": ("ablations", "ablation_scheduler"),
    "ablation_fusion": ("ablations", "ablation_fusion"),
    "ablation_compression": ("ablations", "ablation_compression"),
    "auto_plan": ("ablations", "auto_plan_frontier"),
}

#: every other public name -> the submodule that defines it
_EXPORTS = {
    **{function: module for module, function in EXHIBITS.values()},
    "Table": "common", "Figure": "common", "Series": "common",
    "ascii_chart": "common", "si": "common",
    "describe_model": "describe", "describe_domain": "describe",
}

__all__ = ["EXHIBITS", "ALL_REPORTS", "exhibit_function", *_EXPORTS]


def exhibit_function(name: str):
    """The generator of exhibit ``name``, loading only its module."""
    module, function = EXHIBITS[name]
    return getattr(import_module(f".{module}", __name__), function)


def __getattr__(name: str):
    if name == "ALL_REPORTS":
        # one dict for the life of the process: callers may rebind
        # its entries (e.g. to wrap a generator in a timer)
        value = {exhibit: exhibit_function(exhibit)
                 for exhibit in EXHIBITS}
    elif name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__),
                        name)
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
