"""Cycle-level simulator for reconfigurable DNN accelerators (STONNE stand-in).

Public surface:

* configuration — :class:`SimulatorConfig` and the :func:`maeri_config`,
  :func:`sigma_config`, :func:`tpu_config` helpers (paper Table III);
* workloads — :class:`ConvLayer`, :class:`FcLayer`, :class:`GemmLayer`
  (paper Table II);
* mappings — :class:`ConvMapping`, :class:`FcMapping` (paper Tables IV/V);
* execution — :class:`Stonne` returning :class:`SimulationStats`.

Every name above loads lazily: the submodule that defines it is
imported on its first lookup (:func:`repro._lazy.lazy_exports`).  The
functional simulator and the sparsity helpers need numpy, while the
cycle models, configs and statistics do not, so code that only reads
or computes statistics — a warm ``repro run``, ``repro features`` —
imports ``repro.stonne.stats`` without paying for numpy.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": (
        "ControllerType", "MsNetworkType", "ReduceNetworkType",
        "SimulatorConfig", "maeri_config", "magma_config", "sigma_config",
        "tpu_config",
    ),
    "controller": (
        "AcceleratorController", "controller_class", "make_controller",
        "register_controller", "registered_controller_types",
        "unregister_controller",
    ),
    "energy": (
        "DEFAULT_ENERGY_TABLE", "EnergyBreakdown", "EnergyTable",
        "attach_energy", "estimate_energy",
    ),
    "layer": ("ConvLayer", "FcLayer", "GemmLayer", "ceil_div"),
    "mapping": (
        "ConvMapping", "FcMapping", "enumerate_conv_mappings",
        "enumerate_fc_mappings",
    ),
    "params": ("CycleModelParams", "DEFAULT_PARAMS"),
    "stats": ("SimulationStats", "TrafficBreakdown", "combine_stats"),
    "maeri": ("MaeriController",),
    "magma": ("MagmaController",),
    "sigma": ("SigmaController",),
    "tpu": ("TpuController",),
    "simulator": ("SimulationResult", "Stonne"),
    "sparsity": ("BitmapTensor", "measured_sparsity", "prune_to_sparsity"),
})
