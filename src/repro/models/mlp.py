"""A configurable multilayer perceptron (dense-only workloads)."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.errors import GraphError
from repro.stonne.layer import FcLayer

if TYPE_CHECKING:
    from repro.ir.graph import Graph


def mlp_graph(
    input_features: int = 784,
    hidden: Sequence[int] = (256, 128),
    num_classes: int = 10,
) -> Graph:
    """A ReLU MLP ending in softmax."""
    from repro.ir.builder import GraphBuilder

    if input_features < 1:
        raise GraphError(f"input_features must be >= 1, got {input_features}")
    builder = GraphBuilder("mlp", (1, input_features))
    for index, units in enumerate(hidden):
        builder.dense(units, name=f"fc{index + 1}").relu()
    builder.dense(num_classes, name=f"fc{len(hidden) + 1}").softmax()
    return builder.build()


def mlp_fc_layers(
    input_features: int = 784,
    hidden: Sequence[int] = (256, 128),
    num_classes: int = 10,
) -> List[FcLayer]:
    """Dense workload descriptors matching :func:`mlp_graph`."""
    layers: List[FcLayer] = []
    prev = input_features
    for index, units in enumerate(hidden):
        layers.append(FcLayer(f"fc{index + 1}", in_features=prev, out_features=units))
        prev = units
    layers.append(
        FcLayer(f"fc{len(hidden) + 1}", in_features=prev, out_features=num_classes)
    )
    return layers
