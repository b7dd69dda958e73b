import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, strategies as st

from gpcn.autodiff import Node, Tape
from gpcn.gcn import aggregate
from gpcn.graphs import StructureMatrix, laplacian, make_grid
from gpcn.numcore import seeded_rng, sigmoid


def mean_square(t, node):
    """Scalar loss mean(node**2), recorded as the mse against zeros."""
    return t.mse(node, np.zeros(node.shape))


def finite_difference(f, x, h=1e-5):
    """Central differences of a scalar function of one array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2 * h)
    return grad


def check_against_fd(build, x, rtol=1e-5):
    """build(tape, node) -> scalar loss node; compares tape grad with FD."""
    tape = Tape()
    node = tape.variable(x)
    loss = build(tape, node)
    tape.backward(loss)

    def f(arr):
        t = Tape()
        return float(build(t, t.variable(arr)).value)

    fd = finite_difference(f, x)
    scale = max(np.abs(fd).max(), 1e-10)
    assert np.abs(node.grad - fd).max() / scale < rtol


def structure_cases():
    """A sparse-stored Laplacian (41% full), a dense-stored one (75% full)
    and a non-symmetric sparse matrix, so no vjp can assume Z = Z^T."""
    sparse = laplacian(make_grid(3, 3))
    dense = laplacian(make_grid(2, 2))
    skew = StructureMatrix(
        mat=sp.random(6, 6, density=0.3, format="csr", random_state=np.random.default_rng(7))
    )
    assert sparse.dense is None and dense.dense is not None and skew.dense is None
    assert (skew.mat != skew.mat.T).nnz > 0
    return sparse, dense, skew


def check_structure_products(z, x):
    """Tape spmm and aggregate (dense for a dense-stored z) match Z @ x and
    finite differences."""
    for product in (Tape.spmm, aggregate):
        out = product(Tape(), z, x).value
        assert np.abs(out - z.toarray() @ x).max() < 1e-12
        check_against_fd(lambda t, v: mean_square(t, product(t, z, v)), x.copy())


def test_quadratic_form_matches_fd():
    rng = seeded_rng(0)
    a = rng.normal(size=(4, 3))
    x0 = rng.normal(size=(3, 1))
    check_against_fd(lambda t, x: mean_square(t, t.matmul(a, x)), x0, rtol=1e-6)


class TestOpGradients:
    rng = seeded_rng(1)

    def test_matmul_left_and_right(self):
        a = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=(4, 2))
        check_against_fd(lambda t, x: t.sum(t.matmul(x, b)), a.copy())
        check_against_fd(lambda t, x: t.sum(t.matmul(a, x)), b.copy())

    def test_matmul_batched_broadcast(self):
        a = self.rng.normal(size=(5, 3))  # shared operand against a batch
        xb = self.rng.normal(size=(2, 3, 4))
        check_against_fd(lambda t, x: t.sum(t.matmul(a, x)), xb.copy())
        check_against_fd(lambda t, x: mean_square(t, t.matmul(x, xb)), a.copy())
        w = self.rng.normal(size=(4, 2))  # a weight against a batched signal
        check_against_fd(lambda t, v: mean_square(t, t.matmul(xb, v)), w.copy())

    def test_add_broadcast_bias(self):
        x = self.rng.normal(size=(4, 3))
        b = self.rng.normal(size=(3,))
        check_against_fd(lambda t, v: mean_square(t, t.add(x, v)), b.copy())

    def test_sub_and_scale(self):
        x = self.rng.normal(size=(3, 2))
        check_against_fd(
            lambda t, v: mean_square(t, t.add(t.matmul(v, 2.5 * np.eye(2)), -x)), x.copy()
        )

    def test_spmm(self):
        for z in structure_cases():
            x = self.rng.normal(size=(z.n, 2))
            check_structure_products(z, x)

    def test_spmm_batched(self):
        for z in structure_cases():
            xb = self.rng.normal(size=(3, z.n, 2))
            check_structure_products(z, xb)

    def test_relu(self):
        x = self.rng.normal(size=(4, 4)) + 0.2  # keep entries away from the kink
        x[np.abs(x) < 1e-3] = 0.5
        check_against_fd(lambda t, v: mean_square(t, t.relu(v)), x.copy())

    def test_sigmoid(self):
        x = self.rng.normal(size=(3, 3))
        check_against_fd(lambda t, v: mean_square(t, t.sigmoid(v)), x.copy())

    def test_row_softmax(self):
        x = self.rng.normal(size=(4, 5))
        w = self.rng.normal(size=(4, 5))
        check_against_fd(lambda t, v: mean_square(t, t.add(t.row_softmax(v), -w)), x.copy())

    def test_transpose_and_concat(self):
        x = self.rng.normal(size=(3, 4))
        other = self.rng.normal(size=(3, 2))

        def build(t, v):
            cat = t.concat([v, other], axis=-1)
            return mean_square(t, t.transpose(cat))

        check_against_fd(build, x.copy())

    def test_mse(self):
        x = self.rng.normal(size=(5, 2))
        target = self.rng.normal(size=(5, 2))
        check_against_fd(lambda t, v: t.mse(v, target), x.copy(), rtol=1e-6)


def test_gradient_accumulates_across_reuse():
    tape = Tape()
    x = tape.variable(np.array([[2.0]]))
    y = tape.add(tape.matmul(x, x), tape.matmul(x, np.array([[3.0]])))  # x^2 + 3x
    tape.backward(tape.sum(y))
    assert abs(x.grad[0, 0] - 7.0) < 1e-12


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tape.variable(np.ones((2, 2)))
    y = tape.relu(x)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_backward_rejects_foreign_node():
    t1, t2 = Tape(), Tape()
    x = t1.variable(np.array(1.0))
    loss = t1.sum(x)
    with pytest.raises(ValueError):
        t2.backward(loss)


def test_constants_receive_no_gradient():
    tape = Tape()
    x = tape.variable(np.ones((2, 2)))
    const = np.ones((2, 2))
    loss = tape.sum(tape.matmul(x, const))
    tape.backward(loss)
    assert x.grad is not None


def test_ops_on_constants_stay_off_the_tape():
    tape = Tape()
    a, b = np.arange(6.0).reshape(2, 3), np.ones((3, 2))
    c = tape.relu(tape.matmul(a, b))
    assert np.array_equal(c.value, np.maximum(a @ b, 0.0))
    assert not c.needs and c.parents == () and c.vjps == ()
    assert tape._nodes == []
    x = tape.variable(np.ones((2, 2)))
    y = tape.add(x, c)
    assert x.needs and y.needs and tape._nodes == [x, y]


def test_backward_calls_no_vjp_into_a_constant_parent():
    tape = Tape()
    x = tape.variable(np.array([[1.0, 2.0], [3.0, 4.0]]))
    const = tape.sigmoid(np.eye(2))  # no variable reaches it
    y = tape.matmul(x, const)
    calls = []

    def spy(i, vjp):
        def wrapped(g):
            calls.append(i)
            return vjp(g)

        return wrapped

    y.vjps = tuple(spy(i, vjp) for i, vjp in enumerate(y.vjps))
    tape.backward(tape.sum(y))
    assert calls == [0]
    assert const.grad is None
    assert np.array_equal(x.grad, np.ones((2, 2)) @ const.value.T)


def test_backward_rejects_a_loss_no_variable_reaches():
    tape = Tape()
    x = tape.variable(np.ones(2))
    loss = tape.sum(tape.relu(np.ones(2)))
    with pytest.raises(ValueError, match="no variable reaches it"):
        tape.backward(loss)
    assert x.grad is None


def biased_operands(seed=3):
    """A (3, n, C) pre-activation and a (C,) bias, with every a + b at least
    0.05 from relu's kink so the finite differences never cross it."""
    rng = seeded_rng(seed)
    a, b = rng.normal(size=(3, 4, 2)), rng.normal(size=(2,))
    a[np.abs(a + b) < 0.05] += 0.1
    return a, b


@pytest.mark.parametrize("op", ["relu", "sigmoid"])
def test_biased_activation_matches_fd(op):
    a, b = biased_operands()
    act = getattr(Tape, op)
    check_against_fd(lambda t, v: mean_square(t, act(t, v, b)), a.copy())
    check_against_fd(lambda t, v: mean_square(t, act(t, a, v)), b.copy())
    tape = Tape()
    av, bv = tape.variable(a), tape.variable(b)
    tape.backward(mean_square(tape, act(tape, av, bv)))

    def loss(x, y):
        t = Tape()
        return float(mean_square(t, act(t, x, y)).value)

    for got, fd in ((av.grad, finite_difference(lambda x: loss(x, b), a.copy())),
                    (bv.grad, finite_difference(lambda y: loss(a, y), b.copy()))):
        assert np.abs(got - fd).max() / np.abs(fd).max() < 1e-5


@pytest.mark.parametrize("op", ["relu", "sigmoid"])
def test_biased_activation_is_bitwise_the_unfused_chain(op):
    a, b = biased_operands(seed=4)
    target = seeded_rng(5).normal(size=a.shape)
    results = []
    for fused in (True, False):
        tape = Tape()
        av, bv = tape.variable(a), tape.variable(b)
        act = getattr(tape, op)
        out = act(av, bv) if fused else act(tape.add(av, bv))
        tape.backward(tape.mse(out, target))
        results.append((out.value, av.grad, bv.grad))
    for fused, unfused in zip(*results):
        assert np.array_equal(fused, unfused)


def test_biased_activation_of_constants_stays_off_the_tape():
    tape = Tape()
    a, b = biased_operands()
    for want, node in ((np.maximum(a + b, 0.0), tape.relu(a, b)),
                       (sigmoid(a + b), tape.sigmoid(a, b))):
        assert np.array_equal(node.value, want)
        assert not node.needs and node.parents == () and node.vjps == ()
    assert tape._nodes == []



# -- random op chains --------------------------------------------------------

CHAIN_Z = StructureMatrix(
    mat=sp.random(4, 4, density=0.5, format="csr", random_state=np.random.default_rng(11))
    + sp.eye(4, format="csr")
)
# op -> record(tape, h, operand) on the chain's running value h
CHAIN_OPS = {
    "matmul_right": lambda t, h, o: t.matmul(h, o),
    "matmul_left": lambda t, h, o: t.matmul(o, h),
    "spmm": lambda t, h, o: t.spmm(CHAIN_Z, h),
    "add": lambda t, h, o: t.add(h, o),
    "relu": lambda t, h, o: t.relu(h, o),
    "sigmoid": lambda t, h, o: t.sigmoid(h, o),
    "concat": lambda t, h, o: t.concat([h, o], axis=-1),
    "transpose": lambda t, h, o: t.transpose(h),
    "row_softmax": lambda t, h, o: t.row_softmax(h),
}


@st.composite
def op_chains(draw):
    """A start array, one to five steps (op, operand or None) and a target;
    each array is a variable or a constant, and a variable enters somewhere."""
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(shape):
        return rng.normal(size=shape) / np.sqrt(shape[0]), draw(st.booleans())

    shape = ((2,) if draw(st.booleans()) else ()) + (4, draw(st.integers(1, 3)))
    start = (rng.normal(size=shape), draw(st.booleans()))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        rows, cols = shape[-2:]
        op = draw(st.sampled_from([o for o in CHAIN_OPS if o != "spmm" or rows == 4]))
        arg = None
        if op == "matmul_right":
            arg = operand((cols, draw(st.integers(1, 3))))
            shape = (*shape[:-1], arg[0].shape[1])
        elif op == "matmul_left":
            arg = operand((draw(st.integers(1, 4)), rows))
            shape = (*shape[:-2], arg[0].shape[0], cols)
        elif op in ("add", "relu", "sigmoid"):
            arg = operand((cols,) if draw(st.booleans()) else shape[-2:])
        elif op == "concat":
            arg = operand((*shape[:-1], draw(st.integers(1, 2))))
            shape = (*shape[:-1], cols + arg[0].shape[-1])
        elif op == "transpose":
            shape = (*shape[:-2], cols, rows)
        steps.append((op, arg))
    assume(start[1] or any(arg is not None and arg[1] for _, arg in steps))
    return start, steps, rng.normal(size=shape)


def run_chain(tape, start, steps, leaf):
    """Record the chain with ``leaf(array, is_variable)`` making each operand.
    Returns the output, every node an op made and the least distance of a
    relu pre-activation from the kink. An op whose inputs are all constants
    must leave the tape as it was."""
    h = leaf(*start)
    made, kink = [], np.inf
    for op, arg in steps:
        other = None if arg is None else leaf(*arg)
        varying = any(isinstance(x, Node) and x.needs for x in (h, other))
        if op == "relu":
            pre = getattr(h, "value", h) + getattr(other, "value", other)
            kink = min(kink, np.abs(pre).min())
        recorded = list(tape._nodes)
        h = CHAIN_OPS[op](tape, h, other)
        assert h.needs == varying
        if not varying:
            assert tape._nodes == recorded and h.parents == () and h.vjps == ()
        made.append(h)
    return h, made, kink


@given(op_chains())
def test_random_chains_match_finite_differences(chain):
    start, steps, target = chain
    tape, variables = Tape(), []

    def leaf(arr, is_variable):
        if not is_variable:
            return arr
        variables.append((arr, tape.variable(arr)))
        return variables[-1][1]

    out, made, kink = run_chain(tape, start, steps, leaf)
    assume(kink > 1e-3)  # finite differences must not cross relu's kink
    tape.backward(tape.mse(out, target))
    assert all(node.grad is None for node in made if not node.needs)

    def loss_at(arr, value):
        saved = arr.copy()
        arr[...] = value
        try:
            t = Tape()
            return float(t.mse(run_chain(t, start, steps, lambda a, _: a)[0], target).value)
        finally:
            arr[...] = saved

    for arr, node in variables:
        assert node.grad is not None and node.grad.shape == arr.shape
        fd = finite_difference(lambda v: loss_at(arr, v), arr)
        scale = max(np.abs(fd).max(), 1e-6)
        assert np.abs(node.grad - fd).max() / scale < 1e-5
