"""Auto-tuning module (AutoTVM stand-in).

Declares tuning-knob config spaces over MAERI mappings and hardware
parameters, measures configs through the cycle-level simulator (cost =
``cycles`` or ``psums``, never wall latency — §VII-B), and searches with
grid / random / genetic / gradient-boosted-tree tuners.

The names below load lazily, each with its submodule on first lookup
(:func:`repro._lazy.lazy_exports`): the search strategies and the
gradient-boosted trees need numpy, and only a tuned mapping runs them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "gbt": ("GradientBoostedTrees", "RegressionTree"),
    "measure": (
        "INVALID_COST", "CallableTask", "MaeriConvTask", "MaeriFcTask",
        "MeasureResult", "TuningTask",
    ),
    "records": ("Trial", "TuningRecords"),
    "space": (
        "ConfigSpace", "config_to_conv_mapping", "config_to_fc_mapping",
        "conv_mapping_space", "fc_mapping_space", "hardware_space",
    ),
    "tuners": (
        "GATuner", "GridSearchTuner", "RandomTuner", "Tuner", "TuningResult",
        "XGBTuner",
    ),
})
