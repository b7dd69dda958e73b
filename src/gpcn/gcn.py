"""Single-scale graph convolutional network building block.

A network here is a stack of graph-convolution layers (ReLU) followed by a
node-wise dense head (sigmoid layers, linear output). Each layer's
activation follows from its position, so a layer's parameters are its
filter and bias alone. The dense head reads the node-wise concatenation of
every graph-convolution layer's output, so its input width is the sum of
the convolution widths. A node-wise dense layer is the same operation as a
graph convolution with the identity as the structure matrix; it is
implemented without the aggregation product.

:func:`gcn_graph` records the forward pass on a tape. Every ensemble
member runs it, with the structure matrix as an argument (sparse for a fixed
graph, a recorded dense matrix for a pooled level); a single network is a
one-level ``plain_ensemble``, run and differentiated through
:func:`gpcn.ensembles.model_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape
from .graphs import StructureMatrix
from .numcore import glorot_uniform

__all__ = [
    "GcnLayerParams",
    "GcnSpec",
    "GcnParams",
    "init_gcn_params",
    "aggregate",
    "gcn_graph",
]


@dataclass
class GcnLayerParams:
    """Filter matrix and bias row vector of one layer."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.b.shape != (self.w.shape[1],):
            raise ValueError(
                f"bias shape {self.b.shape} does not match output width {self.w.shape[1]}"
            )

    def map(self, fn) -> "GcnLayerParams":
        return GcnLayerParams(w=fn(self.w), b=fn(self.b))


@dataclass(frozen=True)
class GcnSpec:
    """Structure matrix plus layer widths for one network.

    ``z=None`` with an explicit ``n_nodes`` describes a level whose structure
    matrix is produced at forward time (differentiable pooling).
    """

    z: StructureMatrix | None
    gcn_widths: tuple
    dense_widths: tuple
    n_nodes: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "gcn_widths", tuple(int(w) for w in self.gcn_widths))
        object.__setattr__(self, "dense_widths", tuple(int(w) for w in self.dense_widths))
        if self.z is None and self.n_nodes is None:
            raise ValueError("either z or n_nodes is required")
        if not self.gcn_widths or not self.dense_widths:
            raise ValueError("gcn_widths and dense_widths must be nonempty")
        if any(w < 1 for w in self.gcn_widths + self.dense_widths):
            raise ValueError("layer widths must be positive")
        if self.dense_widths[-1] != 1:
            raise ValueError("final dense width must be 1")

    @property
    def n(self) -> int:
        return self.z.n if self.z is not None else self.n_nodes

    @property
    def concat_width(self) -> int:
        return sum(self.gcn_widths)


@dataclass
class GcnParams:
    """Per-layer parameters: convolution stack then dense head."""

    gcn: list
    dense: list

    def arrays(self):
        """Flat (name, array) pairs in deterministic order."""
        out = []
        for stack, layers in (("gcn", self.gcn), ("dense", self.dense)):
            for i, layer in enumerate(layers):
                out += [(f"{stack}{i}_w", layer.w), (f"{stack}{i}_b", layer.b)]
        return out

    def map(self, fn) -> "GcnParams":
        """A copy with ``fn`` applied to every filter and bias in the order of
        :meth:`arrays`, for example :meth:`Tape.variable`."""
        return GcnParams(
            gcn=[layer.map(fn) for layer in self.gcn],
            dense=[layer.map(fn) for layer in self.dense],
        )


def _init_layers(rng, fan_in: int, widths) -> list:
    """Glorot-uniform filters and zero biases for a stack of layer widths,
    drawn first layer first."""
    fans = (fan_in, *widths)
    return [GcnLayerParams(glorot_uniform(rng, f, w), np.zeros(w)) for f, w in zip(fans, widths)]


def init_gcn_params(spec: GcnSpec, in_features: int, rng) -> GcnParams:
    """Glorot-uniform filters, zero biases; the convolutions draw first, then the head."""
    return GcnParams(
        gcn=_init_layers(rng, in_features, spec.gcn_widths),
        dense=_init_layers(rng, spec.concat_width, spec.dense_widths),
    )


def aggregate(tape: Tape, z, h) -> Node:
    """Record Z @ h: sparse for a StructureMatrix without a dense copy, dense
    for its dense copy, an array or a recorded node (a pooled level)."""
    if isinstance(z, StructureMatrix):
        return tape.spmm(z, h) if z.dense is None else tape.matmul(z.dense, h)
    return tape.matmul(z, h)


def gcn_graph(tape: Tape, z, params: GcnParams, x) -> Node:
    """Record the network's forward pass on a tape and return the output node.

    The filters and biases of ``params`` are arrays or tape nodes. ``z`` is
    the structure matrix of the convolution layers. Each convolution records
    relu(Z h W + b), each hidden dense layer sigmoid(h W + b) and the output
    layer h W + b.
    """
    h = x
    outs = []
    for layer in params.gcn:
        h = tape.relu(aggregate(tape, z, tape.matmul(h, layer.w)), layer.b)
        outs.append(h)
    h = outs[0] if len(outs) == 1 else tape.concat(outs, axis=-1)
    *hidden, last = params.dense
    for layer in hidden:
        h = tape.sigmoid(tape.matmul(h, layer.w), layer.b)
    return tape.add(tape.matmul(h, last.w), last.b)
