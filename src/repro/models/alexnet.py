"""AlexNet: the paper's benchmark network.

Two views of the same model:

* :func:`alexnet_graph` — the full IR graph (torchvision's single-group
  AlexNet variant), for end-to-end execution through Bifrost;
* :func:`alexnet_conv_layers` / :func:`alexnet_fc_layers` — the 5 conv and
  3 FC layer *descriptors* the paper benchmarks in Figures 9, 11, 12 and
  Table VI.

We use the torchvision parameterization (64/192/384/256/256 channels, no
grouped convolutions) rather than the original 1-GPU-split 2012 network;
the FC stack (9216 -> 4096 -> 4096 -> 1000) matches the paper's FC1-FC3
dimensions exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.stonne.layer import ConvLayer, FcLayer

if TYPE_CHECKING:
    from repro.ir.graph import Graph

#: Number of classes in the ImageNet-1k head.
NUM_CLASSES = 1000


def alexnet_conv_layers() -> List[ConvLayer]:
    """The five convolutional layers of AlexNet, as workload descriptors."""
    return [
        ConvLayer("conv1", C=3, H=224, W=224, K=64, R=11, S=11,
                  stride_h=4, stride_w=4, pad_h=2, pad_w=2),
        ConvLayer("conv2", C=64, H=27, W=27, K=192, R=5, S=5,
                  pad_h=2, pad_w=2),
        ConvLayer("conv3", C=192, H=13, W=13, K=384, R=3, S=3,
                  pad_h=1, pad_w=1),
        ConvLayer("conv4", C=384, H=13, W=13, K=256, R=3, S=3,
                  pad_h=1, pad_w=1),
        ConvLayer("conv5", C=256, H=13, W=13, K=256, R=3, S=3,
                  pad_h=1, pad_w=1),
    ]


def alexnet_fc_layers() -> List[FcLayer]:
    """The three fully connected layers of AlexNet (paper Table VI)."""
    return [
        FcLayer("fc1", in_features=9216, out_features=4096),
        FcLayer("fc2", in_features=4096, out_features=4096),
        FcLayer("fc3", in_features=4096, out_features=NUM_CLASSES),
    ]


def alexnet_layers() -> List[object]:
    """All eight accelerated layers, conv first (evaluation order)."""
    return [*alexnet_conv_layers(), *alexnet_fc_layers()]


def alexnet_graph(num_classes: int = NUM_CLASSES) -> Graph:
    """The full AlexNet IR graph (224x224x3 input, NCHW)."""
    from repro.ir.builder import GraphBuilder

    builder = GraphBuilder("alexnet", (1, 3, 224, 224))
    (
        builder
        .conv2d(64, (11, 11), strides=(4, 4), padding=(2, 2), name="conv1")
        .relu()
        .max_pool2d((3, 3), (2, 2))
        .conv2d(192, (5, 5), padding=(2, 2), name="conv2")
        .relu()
        .max_pool2d((3, 3), (2, 2))
        .conv2d(384, (3, 3), padding=(1, 1), name="conv3")
        .relu()
        .conv2d(256, (3, 3), padding=(1, 1), name="conv4")
        .relu()
        .conv2d(256, (3, 3), padding=(1, 1), name="conv5")
        .relu()
        .max_pool2d((3, 3), (2, 2))
        .flatten()
        .dropout()
        .dense(4096, name="fc1")
        .relu()
        .dropout()
        .dense(4096, name="fc2")
        .relu()
        .dense(num_classes, name="fc3")
    )
    return builder.build()
