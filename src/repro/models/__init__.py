"""Model zoo: graphs plus accelerated-layer descriptors for each network.

Each model module loads on the first lookup of one of its names
(:func:`repro._lazy.lazy_exports`), and builds its IR graph (numpy) only
when ``*_graph()`` is called, so reading a model's layer descriptors
imports neither.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "alexnet": (
        "alexnet_conv_layers", "alexnet_fc_layers", "alexnet_graph",
        "alexnet_layers",
    ),
    "lenet": ("lenet_conv_layers", "lenet_fc_layers", "lenet_graph"),
    "mlp": ("mlp_fc_layers", "mlp_graph"),
    "vgg_small": (
        "vgg_small_conv_layers", "vgg_small_fc_layers", "vgg_small_graph",
    ),
})
