import numpy as np
import pytest

from gpcn.autodiff import Tape
from gpcn.ensembles import ModelParams, ModelSpec, ensemble_input_gradient, model_forward
from gpcn.gcn import GcnLayerParams, GcnSpec, gcn_graph, init_gcn_params
from gpcn.graphs import StructureMatrix, laplacian, make_grid, make_tube
from gpcn.numcore import seeded_rng

import scipy.sparse as sp

from tests.oracles import gcn_layer, input_gradient_rule
from tests.test_autodiff import finite_difference


def small_spec(n_graph=(3, 4), widths=(5, 4), dense=(6, 1)):
    return GcnSpec(z=laplacian(make_grid(*n_graph)), gcn_widths=widths, dense_widths=dense)


def as_model(spec, params):
    """A single network as the one-member plain ensemble that runs it."""
    return ModelSpec("plain_ensemble", [spec]), ModelParams(levels=[params])


def single_forward(spec, params, x):
    return model_forward(*as_model(spec, params), x)


def single_input_gradient(spec, params, x):
    return ensemble_input_gradient(*as_model(spec, params), x)


class TestGcnLayer:
    def test_identity_passthrough(self):
        eye = StructureMatrix(mat=sp.eye(3, format="csr"))
        x = seeded_rng(0).normal(size=(3, 2))
        layer = GcnLayerParams(w=np.eye(2), b=np.zeros(2))
        assert np.abs(gcn_layer(eye, x, layer, "linear") - x).max() < 1e-15

    def test_path_two_relu_by_hand(self):
        z = laplacian(make_grid(1, 2))
        layer = GcnLayerParams(w=np.array([[1.0]]), b=np.zeros(1))
        out = gcn_layer(z, np.array([[1.0], [0.0]]), layer, "relu")
        assert np.array_equal(out, [[0.0], [1.0]])

    def test_output_shape(self):
        z = laplacian(make_grid(2, 3))
        rng = seeded_rng(1)
        layer = GcnLayerParams(w=rng.normal(size=(4, 7)), b=np.zeros(7))
        assert gcn_layer(z, rng.normal(size=(6, 4)), layer, "relu").shape == (6, 7)

    def test_dense_equals_identity_structure(self):
        rng = seeded_rng(2)
        x = rng.normal(size=(5, 3))
        layer = GcnLayerParams(w=rng.normal(size=(3, 2)), b=rng.normal(size=2))
        eye = StructureMatrix(mat=sp.eye(5, format="csr"))
        node_wise = gcn_layer(None, x, layer, "sigmoid")
        with_identity = gcn_layer(eye, x, layer, "sigmoid")
        assert np.abs(node_wise - with_identity).max() < 1e-12

    def test_shape_mismatch(self):
        z = laplacian(make_grid(1, 2))
        layer = GcnLayerParams(w=np.eye(3), b=np.zeros(3))
        with pytest.raises(ValueError):
            gcn_layer(z, np.zeros((2, 2)), layer, "relu")


class TestGcnForward:
    def test_benchmark_widths_on_full_tube(self):
        spec = GcnSpec(
            z=laplacian(make_tube(48, 13, 3)),
            gcn_widths=(64, 64, 64),
            dense_widths=(256, 32, 8, 1),
        )
        assert spec.concat_width == 192
        params = init_gcn_params(spec, 10, seeded_rng(3))
        out = single_forward(spec, params, seeded_rng(4).normal(size=(624, 10)))
        assert out.shape == (624, 1)
        assert np.isfinite(out).all()

    def test_zero_gcn_weights_give_constant_output(self):
        spec = small_spec()
        params = init_gcn_params(spec, 3, seeded_rng(5))
        for layer in params.gcn:
            layer.w[:] = 0.0
        x = seeded_rng(6).normal(size=(12, 3))
        out = single_forward(spec, params, x)
        assert np.abs(out - out[0]).max() < 1e-12

    def test_batched_matches_loop(self):
        spec = small_spec()
        params = init_gcn_params(spec, 3, seeded_rng(7))
        xb = seeded_rng(8).normal(size=(5, 12, 3))
        out = single_forward(spec, params, xb)
        for i in range(5):
            assert np.array_equal(out[i], single_forward(spec, params, xb[i]))

    def test_node_permutation_equivariance(self):
        g = make_grid(3, 4)
        spec = GcnSpec(z=laplacian(g), gcn_widths=(4, 3), dense_widths=(5, 1))
        params = init_gcn_params(spec, 2, seeded_rng(9))
        x = seeded_rng(10).normal(size=(12, 2))
        out = single_forward(spec, params, x)
        perm = seeded_rng(11).permutation(12)
        from gpcn.graphs import relabel

        spec_p = GcnSpec(z=laplacian(relabel(g, perm)), gcn_widths=(4, 3), dense_widths=(5, 1))
        out_p = single_forward(spec_p, params, x[np.argsort(perm)])
        assert np.abs(out_p - out[np.argsort(perm)]).max() < 1e-10

    def test_dense_head_must_end_at_one(self):
        with pytest.raises(ValueError):
            GcnSpec(z=laplacian(make_grid(1, 2)), gcn_widths=(3,), dense_widths=(4, 2))


class TestParameterGradients:
    def test_all_parameters_match_finite_differences(self):
        spec = small_spec(n_graph=(2, 3), widths=(4, 3), dense=(5, 1))
        params = init_gcn_params(spec, 2, seeded_rng(12))
        x = seeded_rng(13).normal(size=(6, 2))
        target = seeded_rng(14).normal(size=(6, 1))

        tape = Tape()
        bound = params.map(tape.variable)
        nodes = [(arr, node) for (_, arr), (_, node) in zip(params.arrays(), bound.arrays())]
        out = gcn_graph(tape, spec.z, bound, x)
        tape.backward(tape.mse(out, target))

        def loss_with(arr, idx, value):
            old = arr.flat[idx]
            arr.flat[idx] = value
            out = single_forward(spec, params, x)
            arr.flat[idx] = old
            return float(np.mean((out - target) ** 2))

        rng = seeded_rng(15)
        h = 1e-5
        for arr, node in nodes:
            idx = int(rng.integers(arr.size))
            fd = (loss_with(arr, idx, arr.flat[idx] + h) - loss_with(arr, idx, arr.flat[idx] - h)) / (2 * h)
            got = node.grad.flat[idx]
            assert abs(got - fd) / max(abs(fd), 1e-8) < 1e-5


class TestInputGradient:
    def test_zero_weights_zero_gradient(self):
        spec = small_spec()
        params = init_gcn_params(spec, 3, seeded_rng(16))
        for layer in params.gcn + params.dense:
            layer.w[:] = 0.0
        grad = single_input_gradient(spec, params, np.ones((12, 3)))
        assert np.abs(grad).max() == 0.0

    def test_matches_tape_gradient(self):
        # the tape gradient against the paper's rule, back-propagated by hand
        spec = small_spec()
        params = init_gcn_params(spec, 3, seeded_rng(17))
        x = seeded_rng(18).normal(size=(12, 3))
        tape = single_input_gradient(spec, params, x)
        rule = input_gradient_rule(spec.z, params, x, np.ones((12, 1)))
        assert np.abs(tape - rule).max() < 1e-10

    def test_matches_finite_differences(self):
        spec = small_spec(n_graph=(2, 3), widths=(3, 3), dense=(4, 1))
        params = init_gcn_params(spec, 2, seeded_rng(19))
        x = seeded_rng(20).normal(size=(6, 2))
        ana = single_input_gradient(spec, params, x)
        fd = finite_difference(lambda v: float(single_forward(spec, params, v).sum()), x)
        assert np.abs(ana - fd).max() / max(np.abs(fd).max(), 1e-10) < 1e-5
