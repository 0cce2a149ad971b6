"""LeNet-5: a small CNN for fast end-to-end tests and examples."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.stonne.layer import ConvLayer, FcLayer

if TYPE_CHECKING:
    from repro.ir.graph import Graph


def lenet_graph(num_classes: int = 10) -> Graph:
    """LeNet-5 over 28x28 single-channel inputs (MNIST geometry)."""
    from repro.ir.builder import GraphBuilder

    builder = GraphBuilder("lenet5", (1, 1, 28, 28))
    (
        builder
        .conv2d(6, (5, 5), padding=(2, 2), name="conv1")
        .relu()
        .avg_pool2d((2, 2), (2, 2))
        .conv2d(16, (5, 5), name="conv2")
        .relu()
        .avg_pool2d((2, 2), (2, 2))
        .flatten()
        .dense(120, name="fc1")
        .relu()
        .dense(84, name="fc2")
        .relu()
        .dense(num_classes, name="fc3")
    )
    return builder.build()


def lenet_conv_layers() -> List[ConvLayer]:
    """The two conv workloads of LeNet-5."""
    return [
        ConvLayer("conv1", C=1, H=28, W=28, K=6, R=5, S=5, pad_h=2, pad_w=2),
        ConvLayer("conv2", C=6, H=14, W=14, K=16, R=5, S=5),
    ]


def lenet_fc_layers(num_classes: int = 10) -> List[FcLayer]:
    """The three FC workloads of LeNet-5."""
    return [
        FcLayer("fc1", in_features=400, out_features=120),
        FcLayer("fc2", in_features=120, out_features=84),
        FcLayer("fc3", in_features=84, out_features=num_classes),
    ]
