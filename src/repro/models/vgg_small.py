"""A reduced VGG-style network (VGG-11 geometry at 64x64 input).

Used by the design-space-exploration example: deeper than LeNet, cheaper
than AlexNet, all-3x3 convolutions — the regime where mapping choice on
MAERI matters most.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.stonne.layer import ConvLayer, FcLayer

if TYPE_CHECKING:
    from repro.ir.graph import Graph


def vgg_small_graph(num_classes: int = 100) -> Graph:
    """VGG-11-style graph over 64x64 RGB inputs with batch norms."""
    from repro.ir.builder import GraphBuilder

    builder = GraphBuilder("vgg_small", (1, 3, 64, 64))
    channels = [64, 128, 256, 256, 512, 512]
    pools_after = {0, 1, 3, 5}
    for index, ch in enumerate(channels):
        builder.conv2d(ch, (3, 3), padding=(1, 1), name=f"conv{index + 1}")
        builder.batch_norm(name=f"bn{index + 1}")
        builder.relu()
        if index in pools_after:
            builder.max_pool2d((2, 2), (2, 2))
    (
        builder
        .flatten()
        .dense(1024, name="fc1")
        .relu()
        .dropout()
        .dense(num_classes, name="fc2")
    )
    return builder.build()


def vgg_small_conv_layers() -> List[ConvLayer]:
    """Conv workload descriptors matching :func:`vgg_small_graph`."""
    dims = [
        ("conv1", 3, 64, 64),
        ("conv2", 64, 32, 128),
        ("conv3", 128, 16, 256),
        ("conv4", 256, 16, 256),
        ("conv5", 256, 8, 512),
        ("conv6", 512, 8, 512),
    ]
    return [
        ConvLayer(name, C=c, H=hw, W=hw, K=k, R=3, S=3, pad_h=1, pad_w=1)
        for name, c, hw, k in dims
    ]


def vgg_small_fc_layers(num_classes: int = 100) -> List[FcLayer]:
    """FC workload descriptors matching :func:`vgg_small_graph`."""
    return [
        FcLayer("fc1", in_features=512 * 4 * 4, out_features=1024),
        FcLayer("fc2", in_features=1024, out_features=num_classes),
    ]
