"""Minimal reverse-mode differentiation over float64 ndarrays.

A :class:`Tape` records primitive operations in creation order (which is a
topological order), so the backward pass is a single reversed sweep that
accumulates each node's gradient exactly once. Operands that are plain
ndarrays are treated as constants; only values wrapped by
:meth:`Tape.variable` (or produced by recorded ops) receive gradients.
Only nodes a variable reaches (``needs``) are recorded; an op on constants
returns a bare unrecorded node, so a pass with no variables keeps no graph.

Every op broadcasts the way numpy does, including a leading batch axis on
matmul/spmm, so a whole batch of graph signals flows through one recorded
graph. ``relu`` and ``sigmoid`` take a layer's bias row: act(a + b) is one
node on one fresh array, and its two vjps share one pre-activation gradient.

Memory: a node holds no reference to its tape (only the tape lists its
nodes), so a recorded graph has no reference cycle and is freed as soon as
its last node and the tape are dropped, without waiting for the cycle
collector. :meth:`Tape.backward` keeps gradients only on variables (nodes
without parents); each interior gradient is released once its vjps have
pushed it to the parents.
"""

from __future__ import annotations

import numpy as np

from .graphs import StructureMatrix
from .numcore import relu as _relu, row_softmax as _row_softmax, sigmoid as _sigmoid
from .numcore import spmm as _spmm

__all__ = ["Node", "Tape"]


class Node:
    """A tape value: ndarray payload plus the closures that push gradient back
    to its parents (none for a constant, which the tape does not record)."""

    __slots__ = ("value", "grad", "parents", "vjps", "needs")

    def __init__(self, value, parents, vjps, needs):
        self.value = value
        self.grad = None
        self.parents = parents
        self.vjps = vjps
        self.needs = needs  # this node or an ancestor is a variable

    @property
    def shape(self):
        return self.value.shape


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to the shape of the operand it belongs to."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _value(x):
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=float)


def _biased_act(fn, a, b):
    """fn(a + b), or fn(a) without a bias, on one fresh array."""
    if b is None:
        return fn(_value(a))
    pre = np.asarray(_value(a) + _value(b))  # a 0-d sum is a scalar otherwise
    return fn(pre, out=pre)


class Tape:
    def __init__(self):
        self._nodes: list[Node] = []

    def _record(self, value, parents, vjps) -> Node:
        if parents and not any(isinstance(p, Node) and p.needs for p in parents):
            return Node(np.asarray(value, dtype=float), (), (), False)  # constant op
        node = Node(np.asarray(value, dtype=float), parents, vjps, True)
        self._nodes.append(node)
        return node

    def variable(self, value) -> Node:
        """Wrap an array as a leaf that will receive a gradient."""
        return self._record(np.array(value, dtype=float, copy=True), (), ())

    # -- primitives --------------------------------------------------------

    def matmul(self, a, b) -> Node:
        av, bv = _value(a), _value(b)
        out = av @ bv

        def vjp_a(g):
            return _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)

        def vjp_b(g):
            return _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)

        return self._record(out, (a, b), (vjp_a, vjp_b))

    def spmm(self, z: StructureMatrix, x) -> Node:
        """Sparse constant times a recorded dense operand; supports a leading
        batch axis on x. The vjp multiplies by the cached Z^T."""
        out = _spmm(z.mat, _value(x))
        return self._record(out, (x,), (lambda g: _spmm(z.mat_t, g),))

    def add(self, a, b) -> Node:
        av, bv = _value(a), _value(b)
        out = av + bv
        return self._record(
            out,
            (a, b),
            (lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(g, bv.shape)),
        )

    def relu(self, a, b=None) -> Node:
        """relu(a + b) on one fresh array; ``b`` is an optional bias."""
        out = _biased_act(_relu, a, b)
        return self._record_activation(out, a, b, lambda g: g * (out > 0.0))

    def sigmoid(self, a, b=None) -> Node:
        """sigmoid(a + b) on one fresh array; ``b`` is an optional bias."""
        out = _biased_act(_sigmoid, a, b)

        def pre_grad(g):
            d = g * out
            d *= 1.0 - out
            return d

        return self._record_activation(out, a, b, pre_grad)

    def _record_activation(self, out, a, b, pre_grad) -> Node:
        """Record out = act(a + b); ``pre_grad(g)`` is the gradient of the
        pre-activation, evaluated once per g for both parents: backward runs
        vjp_a before vjp_b, and vjp_b takes (and drops) what vjp_a kept."""
        if b is None:
            return self._record(out, (a,), (pre_grad,))
        b_shape = np.shape(_value(b))
        keep = isinstance(b, Node) and b.needs  # vjp_b runs only then
        last = [None, None]  # vjp_a's g and pre_grad(g), until vjp_b takes them

        def vjp_a(g):
            d = pre_grad(g)
            if keep:
                last[:] = g, d
            return d

        def vjp_b(g):
            d = last[1] if last[0] is g else pre_grad(g)
            last[:] = None, None
            gb = _unbroadcast(d, b_shape)
            return gb.copy() if gb is d else gb  # a and b never share a gradient array

        return self._record(out, (a, b), (vjp_a, vjp_b))

    def row_softmax(self, a) -> Node:
        out = _row_softmax(_value(a))

        def vjp(g):
            return out * (g - np.sum(g * out, axis=-1, keepdims=True))

        return self._record(out, (a,), (vjp,))

    def transpose(self, a) -> Node:
        av = _value(a)
        return self._record(
            np.swapaxes(av, -1, -2), (a,), (lambda g: np.swapaxes(g, -1, -2),)
        )

    def concat(self, parts, axis: int = -1) -> Node:
        values = [_value(p) for p in parts]
        out = np.concatenate(values, axis=axis)
        sizes = [v.shape[axis] for v in values]
        splits = np.cumsum(sizes)[:-1]

        def make_vjp(i):
            return lambda g: np.split(g, splits, axis=axis)[i]

        return self._record(out, tuple(parts), tuple(make_vjp(i) for i in range(len(parts))))

    def sum(self, a) -> Node:
        av = _value(a)
        return self._record(av.sum(), (a,), (lambda g: g * np.ones_like(av),))

    def mse(self, pred, target) -> Node:
        pv, tv = _value(pred), _value(target)
        if pv.shape != tv.shape:
            raise ValueError(f"mse shape mismatch: {pv.shape} vs {tv.shape}")
        diff = pv - tv
        out = np.mean(diff * diff)
        scale = 2.0 / diff.size

        def vjp_p(g):
            return g * scale * diff

        def vjp_t(g):
            return -g * scale * diff

        return self._record(out, (pred, target), (vjp_p, vjp_t))

    # -- reverse sweep -----------------------------------------------------

    def backward(self, loss: Node) -> None:
        """Accumulate gradients of a scalar loss into every variable; no vjp
        runs into a constant parent. Each interior node's gradient is dropped
        once it has reached the node's parents, so afterwards only variables
        hold a ``grad``. A loss not recorded on this tape, which includes a
        loss no variable reaches, is refused."""
        if not isinstance(loss, Node) or loss not in self._nodes:  # a Node equals only itself
            raise ValueError("loss was not recorded on this tape (no variable reaches it)")
        if np.asarray(loss.value).size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        for node in self._nodes:
            node.grad = None
        loss.grad = np.ones_like(np.asarray(loss.value, dtype=float))
        for node in reversed(self._nodes):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                if not isinstance(parent, Node) or not parent.needs:
                    continue
                contrib = vjp(g)
                if parent.grad is None:
                    parent.grad = contrib.copy() if contrib is g else contrib
                else:
                    parent.grad = parent.grad + contrib
            if node.parents:
                node.grad = None
