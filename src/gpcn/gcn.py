"""Single-scale graph convolutional network building block.

A network here is a stack of graph-convolution layers (ReLU) followed by a
node-wise dense head (sigmoid layers, linear output). The dense head reads
the node-wise concatenation of every graph-convolution layer's output, so
its input width is the sum of the convolution widths. A node-wise dense
layer is the same operation as a graph convolution with the identity as the
structure matrix; it is implemented without the aggregation product.

:func:`gcn_graph` records the forward pass on a tape. It is the one forward
path: :func:`gcn_forward`, :func:`energy_input_gradient` and every ensemble
member run it, with the structure matrix as an argument (sparse for a fixed
graph, a recorded dense matrix for a pooled level).

The input gradient binds the signal as a tape variable and back-propagates
the summed output. The tape's spmm and matmul vjps then apply the paper's
first-layer rule Z^T (dE/dA_1) W_1^T, where A_1 is the first
pre-activation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape
from .graphs import StructureMatrix
from .numcore import ACTIVATIONS, glorot_uniform

__all__ = [
    "GcnLayerParams",
    "GcnSpec",
    "GcnParams",
    "init_gcn_params",
    "aggregate",
    "gcn_graph",
    "gcn_forward",
    "energy_input_gradient",
]


@dataclass
class GcnLayerParams:
    """Filter matrix, bias row vector, and activation of one layer."""

    w: np.ndarray
    b: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.b.shape != (self.w.shape[1],):
            raise ValueError(
                f"bias shape {self.b.shape} does not match output width {self.w.shape[1]}"
            )

    def map(self, fn) -> "GcnLayerParams":
        return GcnLayerParams(w=fn(self.w), b=fn(self.b), activation=self.activation)


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
        for i, layer in enumerate(self.gcn):
            out.append((f"gcn{i}_w", layer.w))
            out.append((f"gcn{i}_b", layer.b))
        for i, layer in enumerate(self.dense):
            out.append((f"dense{i}_w", layer.w))
            out.append((f"dense{i}_b", layer.b))
        return out

    def map(self, fn) -> "GcnParams":
        """A copy with ``fn`` applied to every filter and bias in the order of
        :meth:`arrays`, for example :meth:`Tape.variable`."""
        return GcnParams(
            gcn=[layer.map(fn) for layer in self.gcn],
            dense=[layer.map(fn) for layer in self.dense],
        )


def init_gcn_params(spec: GcnSpec, in_features: int, rng) -> GcnParams:
    """Glorot-uniform filters, zero biases."""
    gcn_layers = []
    fan_in = in_features
    for width in spec.gcn_widths:
        gcn_layers.append(
            GcnLayerParams(
                w=glorot_uniform(rng, fan_in, width), b=np.zeros(width), activation="relu"
            )
        )
        fan_in = width
    dense_layers = []
    fan_in = spec.concat_width
    for i, width in enumerate(spec.dense_widths):
        act = "linear" if i == len(spec.dense_widths) - 1 else "sigmoid"
        dense_layers.append(
            GcnLayerParams(
                w=glorot_uniform(rng, fan_in, width), b=np.zeros(width), activation=act
            )
        )
        fan_in = width
    return GcnParams(gcn=gcn_layers, dense=dense_layers)


def _activate(tape: Tape, name: str, pre, b) -> Node:
    """Record act(pre + b): one op for relu and sigmoid, a bias add for linear."""
    if name == "relu":
        return tape.relu(pre, b)
    if name == "sigmoid":
        return tape.sigmoid(pre, b)
    return tape.add(pre, b)  # linear


def aggregate(tape: Tape, z, h) -> Node:
    """Record Z @ h: sparse for a StructureMatrix without a dense copy, dense
    for its dense copy, an array or a recorded node (a pooled level)."""
    if isinstance(z, StructureMatrix):
        return tape.spmm(z, h) if z.dense is None else tape.matmul(z.dense, h)
    return tape.matmul(z, h)


def gcn_graph(tape: Tape, z, params: GcnParams, x) -> Node:
    """Record the network's forward pass on a tape and return the output node.

    The filters and biases of ``params`` are arrays or tape nodes. ``z`` is
    the structure matrix of the convolution layers.
    """
    h = x
    outs = []
    for layer in params.gcn:
        h = _activate(tape, layer.activation, aggregate(tape, z, tape.matmul(h, layer.w)), layer.b)
        outs.append(h)
    h = outs[0] if len(outs) == 1 else tape.concat(outs, axis=-1)
    for layer in params.dense:
        h = _activate(tape, layer.activation, tape.matmul(h, layer.w), layer.b)
    return h


def gcn_forward(spec: GcnSpec, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Forward pass to the n-by-1 output; accepts a leading batch axis."""
    return gcn_graph(Tape(), spec.z, params, np.asarray(x, dtype=float)).value


def energy_input_gradient(spec: GcnSpec, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Gradient of the summed output with respect to the n-by-F input signal,
    back-propagated through :func:`gcn_graph` (see the module docstring)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("energy_input_gradient expects a single n-by-F signal")
    tape = Tape()
    x_node = tape.variable(x)
    tape.backward(tape.sum(gcn_graph(tape, spec.z, params, x_node)))
    return x_node.grad
