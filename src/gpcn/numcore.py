"""Numeric kernels shared by every model in the package.

Dense arrays are plain float64 ndarrays; sparse operands are the CSR-backed
:class:`~gpcn.graphs.StructureMatrix`. The symmetric eigensolver and the
matrix products delegate to LAPACK/BLAS behind the contracts tested in
``tests/test_numcore.py`` (deterministic ordering and sign conventions are
enforced here, not assumed from the backend).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import StructureMatrix

__all__ = [
    "NumericalError",
    "seeded_rng",
    "spmm",
    "relu",
    "sigmoid",
    "linear",
    "row_softmax",
    "ACTIVATIONS",
    "EigenSystem",
    "eig_sym",
    "AdamState",
    "adam_step",
    "glorot_uniform",
]


class NumericalError(RuntimeError):
    """Raised when an iterative routine diverges or fails to converge."""


def seeded_rng(seed) -> np.random.Generator:
    """Deterministic PCG64 generator; the only randomness source in the package."""
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# sparse product


def spmm(z, x: np.ndarray) -> np.ndarray:
    """Sparse-times-dense product touching only stored entries.

    Accepts a StructureMatrix or a scipy sparse matrix on the left. The dense
    operand may carry a leading batch axis: (B, n, F) maps through each batch
    slice.
    """
    m = z.mat if isinstance(z, StructureMatrix) else z
    if not sp.issparse(m):
        raise TypeError("spmm expects a sparse left operand")
    x = np.asarray(x, dtype=float)
    if x.shape[-2] != m.shape[1]:
        raise ValueError(f"spmm dimension mismatch: {m.shape} @ {x.shape}")
    if x.ndim == 2:
        return m @ x
    if x.ndim == 3:
        b, n, f = x.shape
        flat = np.moveaxis(x, 1, 0).reshape(n, b * f)
        out = m @ flat
        return np.moveaxis(out.reshape(m.shape[0], b, f), 0, 1)
    raise ValueError(f"spmm supports 2D or batched 3D operands, got ndim={x.ndim}")


# ---------------------------------------------------------------------------
# activations


def relu(x, out=None):
    """max(x, 0) into ``out`` (a fresh array by default; ``out=x`` works in place)."""
    return np.maximum(x, 0.0, out=np.empty(np.shape(x)) if out is None else out)


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) in one pass over ``out`` (a fresh array by default;
    ``out=x`` works in place); exp(-x) = inf gives the exact limit 0.
    -x is floored at -40 (1 + exp(-40) == 1), so exp never takes its slow underflow path."""
    out = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
    np.maximum(out, -40.0, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def linear(x):
    return np.asarray(x, dtype=float)


def row_softmax(x):
    """Softmax over the last axis; each row sums to one."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "linear": linear}


# ---------------------------------------------------------------------------
# symmetric eigendecomposition


@dataclass(frozen=True)
class EigenSystem:
    """Orthogonal eigenbasis with eigenvalues sorted ascending."""

    u: np.ndarray = field(repr=False)
    lambdas: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]


# largest |A - A^T| entry eig_sym accepts as symmetric
_SYM_TOL = 1e-9


def eig_sym(m) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix with a fixed sign convention.

    Eigenvalues come back ascending. Each eigenvector is flipped so its
    largest-magnitude component (lowest index on ties) is nonnegative, which
    makes the output a deterministic function of the input bits.
    """
    a = m.toarray() if isinstance(m, StructureMatrix) else np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"eig_sym needs a square matrix, got {a.shape}")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > _SYM_TOL:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    try:
        lam, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    # sign convention
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = u * signs
    scale = max(np.linalg.norm(a), 1.0)
    resid = np.linalg.norm(a - (u * lam) @ u.T)
    if resid > 1e-6 * scale:
        raise NumericalError(f"eigendecomposition residual too large: {resid:.3e}")
    return EigenSystem(u=u, lambdas=lam)


# ---------------------------------------------------------------------------
# ADAM


@dataclass
class AdamState:
    """Per-parameter first/second moments plus a shared step count."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params) -> "AdamState":
        state = cls()
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        return state


def adam_step(state: AdamState, params, grads):
    """One ADAM update with bias correction; params are updated in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("params/grads do not match the ADAM state")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=float)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init for an (fan_in, fan_out) weight matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
