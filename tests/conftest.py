"""Shared fixtures: reference models and random generators used across tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from layertime.analysis import ConvGeometry
from layertime.layers import LayerKind, Padding, feature_names
from layertime.tree import Condition, ConditionKind, LinearFit, Node, TimeModel

# Reference sibling fits of a channel-conditioned convolutional node, scaled
# like a low-end phone: the true branch prices layers whose input channel
# count is a multiple of four, the false branch everything else.
W_TRUE = (3.41e-8, 4.03e-6, 7.11e-25)
B_TRUE = 8.11
W_FALSE = (3.11e-8, 8.03e-6, 1.52e-34)
B_FALSE = 12.82

# the geometry those fits are analyzed under: 24x24 input, 3x3 kernel,
# stride 1, same padding
REFERENCE_GEOMETRY = ConvGeometry(
    in_height=24,
    in_width=24,
    kernel_height=3,
    kernel_width=3,
    stride=1,
    padding=Padding.SAME,
)

CNN_FEATURES = feature_names(LayerKind.CNN)
IN_CHANNEL = CNN_FEATURES.index("in_channel")
OUT_CHANNEL = CNN_FEATURES.index("out_channel")


def leaf(w, b) -> Node:
    return Node(fit=LinearFit(w=np.asarray(w, dtype=float), b=b, n=0, mape=0.0, mse=0.0))


def two_leaf_channel_model() -> TimeModel:
    """CNN model splitting once on ``in_channel % 4`` with the reference fits."""
    root = Node(
        fit=LinearFit(
            w=np.asarray([3.2e-8, 6e-6, 0.0]), b=10.0, n=0, mape=1.0, mse=1.0
        ),
        condition=Condition(IN_CHANNEL, 4, ConditionKind.MULTIPLE),
        left=leaf(W_TRUE, B_TRUE),
        right=leaf(W_FALSE, B_FALSE),
    )
    return TimeModel(kind=LayerKind.CNN, root=root)


@pytest.fixture
def reference_model() -> TimeModel:
    return two_leaf_channel_model()


@pytest.fixture
def reference_geometry() -> ConvGeometry:
    return REFERENCE_GEOMETRY


# --- random structures for property checks -----------------------------------

from layertime.layers import (  # noqa: E402
    _derived,
    cnn,
    derive_explanatory,
    derive_features,
    fc,
    gru,
    lstm,
)

_KERNELS = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 3)]


def random_config(rng: np.random.Generator, kind: LayerKind):
    if kind is LayerKind.FC:
        return fc(int(rng.integers(1, 4097)), int(rng.integers(1, 4097)))
    if kind is LayerKind.CNN:
        kh, kw = _KERNELS[int(rng.integers(0, len(_KERNELS)))]
        return cnn(
            in_height=int(rng.integers(24, 226)),
            in_width=int(rng.integers(24, 226)),
            kernel_height=kh,
            kernel_width=kw,
            in_channel=int(rng.integers(1, 257)),
            out_channel=int(rng.integers(1, 257)),
            stride=int(rng.choice([1, 2])),
            padding=str(rng.choice(["valid", "same"])),
        )
    factory = gru if kind is LayerKind.GRU else lstm
    return factory(
        int(rng.integers(1, 513)),
        int(rng.integers(1, 513)),
        int(rng.choice([8, 10, 15, 20])),
    )


def widest(config, field: str) -> int:
    """The widest ``field`` at which ``config``'s flops and memory sum stay below 2**53.

    Found by bisection over the exact integer sizes, which grow with every
    width; ``config`` at a ``field`` of 1 must lie inside.
    """
    def inside(width: int) -> bool:
        sizes = _derived(dataclasses.replace(config, **{field: width}))
        mem_in, mem_out, mem_inter, _, flops = sizes
        return flops < 2**53 and mem_in + mem_out + mem_inter < 2**53

    low, high = 1, 2**53  # flops are at least any width, so 2**53 lies outside
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if inside(middle) else (low, middle)
    return low


def _random_fit(rng: np.random.Generator, kind: LayerKind) -> LinearFit:
    # scale weights against a typical explanatory vector so each term lands
    # in a plausible millisecond range
    reference = derive_explanatory(random_config(rng, kind)).as_array()
    w = rng.uniform(0.0, 2.0, size=reference.shape[0]) / (reference + 1.0)
    w *= rng.random(size=w.shape) < 0.8  # some coordinates pinned at zero
    return LinearFit(w=w, b=float(rng.uniform(0.0, 10.0)), n=0, mape=0.0, mse=0.0)


def random_tree_model(
    rng: np.random.Generator, kind: LayerKind = LayerKind.CNN, max_depth: int = 3
) -> TimeModel:
    """A random (not data-fitted) condition tree with non-negative fits."""
    names = feature_names(kind)

    def build(depth: int) -> Node:
        node = Node(fit=_random_fit(rng, kind))
        if depth >= max_depth or rng.random() < 0.35:
            return node
        j = int(rng.integers(0, len(names)))
        if rng.random() < 0.6:
            tau = int(rng.choice([2, 3, 4, 6, 8]))
            node.condition = Condition(j, tau, ConditionKind.MULTIPLE)
        else:
            threshold = float(derive_features(random_config(rng, kind)).values[j])
            if threshold <= 0:
                threshold = 1.0
            node.condition = Condition(j, threshold, ConditionKind.RANGE)
        node.left = build(depth + 1)
        node.right = build(depth + 1)
        return node

    return TimeModel(kind=kind, root=build(0))
