"""Single-scale graph convolutional network building block.

A network here is a stack of graph-convolution layers (ReLU) followed by a
node-wise dense head (sigmoid layers, linear output). The dense head reads
the node-wise concatenation of every graph-convolution layer's output, so
its input width is the sum of the convolution widths. A node-wise dense
layer is the same operation as a graph convolution with the identity as the
structure matrix; it is implemented without the aggregation product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape
from .graphs import StructureMatrix
from .numcore import ACTIVATIONS, glorot_uniform, spmm

__all__ = [
    "GcnLayerParams",
    "GcnSpec",
    "GcnParams",
    "init_gcn_params",
    "gcn_layer",
    "gcn_graph",
    "gcn_forward",
    "energy_input_gradient",
    "input_gradient_autodiff",
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


def gcn_layer(z, x: np.ndarray, params: GcnLayerParams) -> np.ndarray:
    """One layer: activation(Z @ X @ W + b). Pass ``z=None`` for a node-wise
    dense layer (the Z = I case)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.w.shape[0]:
        raise ValueError(
            f"input width {x.shape[-1]} does not match filter shape {params.w.shape}"
        )
    xw = x @ params.w
    pre = (spmm(z, xw) if z is not None else xw) + params.b
    return ACTIVATIONS[params.activation](pre)


def _apply_activation(tape: Tape, name: str, node: Node) -> Node:
    if name == "relu":
        return tape.relu(node)
    if name == "sigmoid":
        return tape.sigmoid(node)
    return node  # linear


def gcn_graph(
    tape: Tape,
    spec: GcnSpec,
    params,
    x,
    first_pre: Node | None = None,
    z_override=None,
) -> Node:
    """Record the network's forward pass on a tape and return the output node.

    ``params`` entries may be GcnLayerParams (constants) or (w, b, activation)
    triples whose w/b are tape nodes. If ``first_pre`` is given it replaces
    the pre-activation of the first convolution layer, which is how the
    analytic input-gradient rule taps into the graph. ``z_override`` swaps in
    a dense (possibly recorded) structure matrix for this pass.
    """
    gcn_layers, dense_layers = params
    z = spec.z if z_override is None else z_override
    aggregate = (
        (lambda t: tape.spmm(z, t))
        if isinstance(z, StructureMatrix)
        else (lambda t: tape.matmul(z, t))
    )
    h = x
    outs = []
    for i, layer in enumerate(gcn_layers):
        w, b, act = _layer_parts(layer)
        if i == 0 and first_pre is not None:
            pre = first_pre
        else:
            pre = tape.add(aggregate(tape.matmul(h, w)), b)
        h = _apply_activation(tape, act, pre)
        outs.append(h)
    h = outs[0] if len(outs) == 1 else tape.concat(outs, axis=-1)
    for layer in dense_layers:
        w, b, act = _layer_parts(layer)
        h = _apply_activation(tape, act, tape.add(tape.matmul(h, w), b))
    return h


def _layer_parts(layer):
    if isinstance(layer, GcnLayerParams):
        return layer.w, layer.b, layer.activation
    w, b, act = layer
    return w, b, act


def gcn_forward(spec: GcnSpec, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Forward pass to the n-by-1 output; accepts a leading batch axis."""
    tape = Tape()
    out = gcn_graph(tape, spec, (params.gcn, params.dense), np.asarray(x, dtype=float))
    return out.value


def energy_input_gradient(spec: GcnSpec, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Gradient of the summed output with respect to the input signal.

    Uses the first-layer chain rule Z^T (dE/dA_1) W_1^T, where dE/dA_1 is
    obtained by backpropagating the network tail from the first
    pre-activation onward.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("energy_input_gradient expects a single n-by-F signal")
    w1 = params.gcn[0].w
    a1 = spmm(spec.z, x @ w1) + params.gcn[0].b
    tape = Tape()
    a1_node = tape.variable(a1)
    out = gcn_graph(tape, spec, (params.gcn, params.dense), x, first_pre=a1_node)
    tape.backward(tape.sum(out))
    return spmm(spec.z.mat.T, a1_node.grad) @ w1.T


def input_gradient_autodiff(spec: GcnSpec, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Tape-based gradient of the summed output w.r.t. the input (the
    reference the analytic rule is checked against)."""
    tape = Tape()
    x_node = tape.variable(np.asarray(x, dtype=float))
    out = gcn_graph(tape, spec, (params.gcn, params.dense), x_node)
    tape.backward(tape.sum(out))
    return x_node.grad
