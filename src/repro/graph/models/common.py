"""Shared building blocks for the benchmark-model graph builders."""

from __future__ import annotations

from ..builder import GraphBuilder, build_training_graph
from ..dag import ComputationGraph

IMAGENET_CLASSES = 1000


def conv_bn_relu(
    b: GraphBuilder,
    src: str,
    channels: int,
    kernel: int = 3,
    stride: int = 1,
    *,
    layer: str,
    depthwise: bool = False,
) -> str:
    """Conv2D -> BatchNorm -> ReLU, the standard CNN micro-block."""
    x = b.conv2d(src, channels, kernel, stride, layer=layer, depthwise=depthwise)
    x = b.batch_norm(x, layer=layer)
    return b.activation(x, layer=layer)


def classifier_head(b: GraphBuilder, src: str, classes: int = IMAGENET_CLASSES) -> str:
    """Global average pool + softmax cross-entropy loss."""
    x = b.global_pool(src, layer="head")
    return b.softmax_loss(x, classes)


def finish(b: GraphBuilder) -> ComputationGraph:
    """Build the full training graph (FP + BP + apply) and validate it."""
    graph = build_training_graph(b)
    graph.validate()
    return graph
