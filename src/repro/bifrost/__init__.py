"""Bifrost: end-to-end evaluation and optimization of reconfigurable DNN
accelerators (the paper's core contribution).

Typical use, mirroring Listing 1 through the unified Session API::

    from repro.session import Session

    with Session(arch="maeri", ms_size=128, mapping="tuned") as s:
        result = s.run(model, input_batch)
        print(result.total_cycles)

The names below are the paper's layer: the packed-func endpoint
(:class:`StonneBifrostApi`), the mapping configurator and the Listing-1
runners, which take a :class:`~repro.session.Session` (or its ``.api``)
and execute on that session's engine.

Names other than ``Architecture``/``architecture`` load lazily: each
submodule is imported on the first lookup of a name it defines
(:func:`repro._lazy.lazy_exports`).  The graph runner and the TOPI
strategies pull in numpy, the IR and the runtime; mapping resolution,
reporting and the hardware configurator do not, so a command that only
resolves mappings and reads statistics never loads the functional
stack.
"""

# ``architecture`` names both a submodule and the Listing-1 object it
# defines.  Bound eagerly, the object stays the package attribute even
# after an ``import repro.bifrost.architecture`` elsewhere (a lazy name
# would lose to the submodule the import system binds); it needs no numpy.
from repro.bifrost.architecture import Architecture, architecture
from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "architecture": ("Architecture", "architecture"),
    "api": (
        "StonneBifrostApi", "get_packed_func", "register_packed_funcs",
        "registered_packed_funcs",
    ),
    "configurator": ("SimulatorConfigurator",),
    "mapping_config": ("MappingConfigurator", "MappingStrategy"),
    "reporting": (
        "FEATURE_MATRIX", "LayerComparison", "comparison_table",
        "feature_table", "stats_table", "stats_to_json",
    ),
    "runner": (
        "BifrostRunResult", "run_graph", "run_layers", "run_torch_stonne",
    ),
    "strategies": ("active_session", "install_session", "uninstall_session"),
})
