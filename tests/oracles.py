"""Independent reference computations the tests compare the package against.

Each one is written straight from its formula in numpy, without the tape,
so a fault in the recorded forward pass or in the simulator's vectorized
force loop cannot hide in its own reference.
"""

import numpy as np

from gpcn.autodiff import Tape
from gpcn.gcn import GcnLayerParams, GcnParams, GcnSpec, gcn_graph
from gpcn.graphs import StructureMatrix
from gpcn.numcore import ACTIVATIONS, row_softmax, spmm


def _aggregate(z, h):
    return spmm(z, h) if isinstance(z, StructureMatrix) else z @ h


def gcn_layer(z, x: np.ndarray, params: GcnLayerParams) -> np.ndarray:
    """One layer: activation(Z @ X @ W + b). Pass ``z=None`` for a node-wise
    dense layer (the Z = I case); a dense array Z is a pooled level."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.w.shape[0]:
        raise ValueError(
            f"input width {x.shape[-1]} does not match filter shape {params.w.shape}"
        )
    xw = x @ params.w
    pre = (_aggregate(z, xw) if z is not None else xw) + params.b
    return ACTIVATIONS[params.activation](pre)


def gcn_network(z, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Convolution stack, concatenation of its outputs, then the dense head."""
    outs = []
    h = x
    for layer in params.gcn:
        h = gcn_layer(z, h, layer)
        outs.append(h)
    h = np.concatenate(outs, axis=-1)
    for layer in params.dense:
        h = gcn_layer(None, h, layer)
    return h


def input_gradient_autodiff(spec: GcnSpec, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """Tape-based gradient of the summed output w.r.t. the input (the
    reference the analytic rule is checked against)."""
    tape = Tape()
    x_node = tape.variable(np.asarray(x, dtype=float))
    out = gcn_graph(tape, spec.z, params.layers(), x_node)
    tape.backward(tape.sum(out))
    return x_node.grad


def coarsen_from_scores(scores: np.ndarray, z, x):
    """Coarsen with S = row_softmax(scores): returns (S^T Z S, S^T X, S)."""
    s = row_softmax(np.asarray(scores, dtype=float))
    x = np.asarray(x, dtype=float)
    return s.T @ _aggregate(z, s), s.T @ x, s


def diffpool_coarsen(pool: GcnLayerParams, z, x):
    """One pooling step: affinity scores from the pooling convolution, then
    the coarsened structure matrix S^T Z S and data S^T X."""
    x = np.asarray(x, dtype=float)
    return coarsen_from_scores(_aggregate(z, x @ pool.w) + pool.b, z, x)


def model_forward_reference(spec, params, x: np.ndarray, level_mask=None) -> np.ndarray:
    """Ensemble output for one n-by-F signal: the sum over kept levels of
    lift_i @ member_i(Z_i, X_i), each piece built from its definition."""
    keep = set(range(spec.n_levels)) if level_mask is None else set(level_mask)
    z, xi, lift = spec.levels[0].z, x, np.eye(spec.n_fine)
    total = np.zeros((spec.n_fine, 1))
    for i, lvl in enumerate(spec.levels):
        if i > 0 and spec.kind == "diffpool":
            z, xi, s = diffpool_coarsen(params.pools[i - 1], z, xi)
            lift = lift @ s
        elif i > 0:
            z = lvl.z
            if spec.kind == "gpcn":
                lift = lift @ params.prolongations[i - 1]
                xi = lift.T @ x
        if i in keep:
            total = total + lift @ gcn_network(z, params.levels[i], xi)
    return total


def bond_energy(k_eff: float, length: float, rest: float) -> float:
    """Harmonic association energy k (length - rest)^2."""
    return float(k_eff * (length - rest) ** 2)


def angle_energy(k_eff: float, theta: float, rest: float) -> float:
    """Harmonic angle energy k (theta - rest)^2, angles in radians."""
    return float(k_eff * (theta - rest) ** 2)
