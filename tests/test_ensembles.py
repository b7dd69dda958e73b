
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import gpcn
from gpcn.autodiff import Tape
from gpcn.ensembles import (
    _LEVEL_MANIFEST,
    _MANIFEST,
    MODEL_NAMES,
    ModelSpec,
    build_from_table,
    ensemble_input_gradient,
    init_model_params,
    load_checkpoint,
    model_forward,
    model_graph,
    paper_hierarchy,
    save_checkpoint,
)
from gpcn.gcn import GcnLayerParams, GcnSpec, init_gcn_params
from gpcn.graphs import laplacian, make_grid, structure_power
from gpcn.numcore import seeded_rng
from gpcn.serialize import load_arrays, save_arrays
from gpcn.training import ScheduleSpec, Trainer

from tests.conftest import synthetic_dataset
from tests.oracles import (
    coarsen_from_scores,
    diffpool_coarsen,
    ensemble_input_gradient_reference,
    model_forward_reference,
)
from tests.test_gcn import as_model


class TestGpcnForward:
    def test_single_level_matches_plain_gcn(self, tiny_hierarchy):
        z = tiny_hierarchy.laplacians[0]
        level = GcnSpec(z=z, gcn_widths=(5, 4), dense_widths=(6, 1))
        spec = ModelSpec(kind="gpcn", levels=[level], name="one")
        params = init_model_params(spec, 3, seeded_rng(2))
        gcn_params = init_gcn_params(level, 3, seeded_rng(2))
        x = seeded_rng(3).normal(size=(z.n, 3))
        plain = model_forward(*as_model(level, gcn_params), x)
        assert np.array_equal(model_forward(spec, params, x), plain)

    def test_identity_prolongation_sums_two_members(self, tiny_hierarchy):
        z = tiny_hierarchy.laplacians[0]
        levels = [
            GcnSpec(z=z, gcn_widths=(4,), dense_widths=(3, 1)),
            GcnSpec(z=z, gcn_widths=(4,), dense_widths=(3, 1)),
        ]
        spec = ModelSpec(kind="gpcn", levels=levels, prolongations=(np.eye(z.n),))
        params = init_model_params(spec, 2, seeded_rng(4))
        x = seeded_rng(5).normal(size=(z.n, 2))
        total = model_forward(spec, params, x)
        member0 = model_forward(spec, params, x, level_mask={0})
        member1 = model_forward(spec, params, x, level_mask={1})
        assert np.abs(total - member0 - member1).max() < 1e-12

    def test_additive_over_levels(self, tiny_hierarchy):
        spec = build_from_table("gpcn3", tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(6))
        x = seeded_rng(7).normal(size=(spec.n_fine, 3))
        total = model_forward(spec, params, x)
        parts = [model_forward(spec, params, x, level_mask={i}) for i in range(3)]
        assert np.abs(total - sum(parts)).max() < 1e-10

    def test_zeroing_a_level_removes_its_contribution(self, tiny_hierarchy):
        spec = build_from_table("gpcn2", tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(8))
        x = seeded_rng(9).normal(size=(spec.n_fine, 3))
        coarse_only = model_forward(spec, params, x, level_mask={1})
        for layer in params.levels[0].gcn + params.levels[0].dense:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        assert np.abs(model_forward(spec, params, x) - coarse_only).max() < 1e-12

    def test_full_scale_benchmark_shapes(self):
        hier = paper_hierarchy()
        assert [g.n for g in hier.graphs] == [624, 312, 72]
        assert [p.shape for p in hier.prolongations] == [(624, 312), (312, 72)]
        spec = build_from_table("gpcn3", hier)
        params = init_model_params(spec, 10, seeded_rng(10))
        out = model_forward(spec, params, seeded_rng(11).normal(size=(624, 10)))
        assert out.shape == (624, 1)


class TestNgcn:
    def test_single_radius_is_plain_gcn(self, tiny_hierarchy):
        z = tiny_hierarchy.laplacians[0]
        level = GcnSpec(z=z, gcn_widths=(4, 4), dense_widths=(5, 1))
        gcn_params = init_gcn_params(level, 3, seeded_rng(12))
        x = seeded_rng(13).normal(size=(z.n, 3))
        radius_one = GcnSpec(z=structure_power(z, 1), gcn_widths=(4, 4), dense_widths=(5, 1))
        out = model_forward(*as_model(radius_one, gcn_params), x)
        assert np.abs(out - model_forward(*as_model(level, gcn_params), x)).max() < 1e-12

    def test_member_powers_and_widths(self, tiny_hierarchy):
        spec = build_from_table("ngcn3", tiny_hierarchy)
        assert spec.kind == "plain_ensemble" and spec.n_levels == 3
        z1 = tiny_hierarchy.laplacians[0]
        assert spec.levels[0].z is z1
        # degree at most 4, so powers divide by s = 8, the power of two at or above 2 * 4
        assert np.abs(z1.toarray().diagonal()).max() == 4.0
        for lvl, r in zip(spec.levels, (1, 2, 4)):
            assert lvl.gcn_widths == (64, 64, 64)
            assert lvl.dense_widths == (256, 32, 8, 1)
            expected = structure_power(z1, r).toarray() / 8.0 ** (r - 1)
            assert np.abs(lvl.z.toarray() - expected).max() < 1e-9

    @pytest.mark.parametrize("name", ["ngcn3", "ngcn5"])
    def test_every_member_convolution_gets_a_gradient_at_init(self, desk_hier, name):
        # raw powers of Z saturate the sigmoid head from r = 4 on: every convolution
        # filter of those members then gets a gradient of 1e-102 (r = 4) or 0
        spec = build_from_table(name, desk_hier)
        params = init_model_params(spec, 4, seeded_rng(35))
        rng = seeded_rng(36)
        x, y = rng.normal(size=(8, spec.n_fine, 4)), rng.normal(size=(8, spec.n_fine, 1))
        tape = Tape()
        bound = params.bind(tape, range(spec.n_levels))
        tape.backward(tape.mse(model_graph(tape, spec, bound, x), y))
        for level in bound.levels:
            for layer in level.gcn:
                assert np.all(np.isfinite(layer.w.grad)) and np.abs(layer.w.grad).max() > 1e-6

    def test_members_sum_linearly(self, tiny_hierarchy):
        spec = build_from_table("ngcn3", tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(14))
        x = seeded_rng(15).normal(size=(spec.n_fine, 3))
        total = model_forward(spec, params, x)
        without_1 = model_forward(spec, params, x, level_mask={0, 2})
        member_1 = model_forward(spec, params, x, level_mask={1})
        assert np.abs(total - without_1 - member_1).max() < 1e-12


class TestDiffPool:
    def test_identity_limit(self):
        z = laplacian(make_grid(2, 3))
        x = seeded_rng(16).normal(size=(6, 4))
        z_c, x_c, s = coarsen_from_scores(1e6 * np.eye(6), z, x)
        assert np.abs(s - np.eye(6)).max() < 1e-12
        assert np.abs(z_c - z.toarray()).max() < 1e-9
        assert np.abs(x_c - x).max() < 1e-9

    def test_rows_sum_to_one_and_symmetry(self):
        rng = seeded_rng(17)
        z = laplacian(make_grid(3, 3))
        pool = GcnLayerParams(w=rng.normal(size=(4, 5)), b=rng.normal(size=5))
        x = rng.normal(size=(9, 4))
        z_c, x_c, s = diffpool_coarsen(pool, z, x)
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-10
        assert np.linalg.norm(z_c - z_c.T) < 1e-10
        assert x_c.shape == (5, 4) and z_c.shape == (5, 5)

    def test_model_runs_and_masks(self, tiny_hierarchy):
        spec = build_from_table("diffpool3", tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(18))
        x = seeded_rng(19).normal(size=(spec.n_fine, 3))
        out = model_forward(spec, params, x)
        assert out.shape == (spec.n_fine, 1)
        coarse = model_forward(spec, params, x, level_mask={2})
        assert coarse.shape == (spec.n_fine, 1)

    def test_fine_only_mask_builds_no_pooling(self, tiny_hierarchy):
        class CountingTape(Tape):
            softmaxes = 0

            def row_softmax(self, a):
                self.softmaxes += 1
                return super().row_softmax(a)

        spec = build_from_table("diffpool3", tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(18))
        x = seeded_rng(19).normal(size=(spec.n_fine, 3))
        tape = CountingTape()
        model_graph(tape, spec, params.bind(tape, {0, 1, 2}), x, level_mask={0})
        assert tape.softmaxes == 0
        tape = CountingTape()
        model_graph(tape, spec, params.bind(tape, {0, 1, 2}), x, level_mask={1})
        assert tape.softmaxes == 1


class TestForwardAgainstOracle:
    # Z^4, Z^8 and Z^16 of the 30-node tube (ngcn3, ngcn5) and the 6-node
    # coarsest Laplacian (gpcn3, a_gpcn3) are more than half full, so those
    # members aggregate with the dense copy; the reference multiplies in CSR
    @pytest.mark.parametrize(
        "name", ["ensemble2", "ngcn3", "ngcn5", "gpcn3", "a_gpcn3", "diffpool3"]
    )
    def test_matches_numpy_reference(self, tiny_hierarchy, name):
        spec = build_from_table(name, tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(40))
        rng = seeded_rng(41)
        for _, arr in params.all_arrays():  # nonzero biases, moved prolongations
            arr += 0.1 * rng.normal(size=arr.shape)
        if not spec.adaptive:  # moved copies: the hierarchy fixture is shared
            moved = [p + 0.1 * rng.normal(size=p.shape) for p in spec.prolongations]
            spec = dataclasses.replace(spec, prolongations=moved)
        x = rng.normal(size=(spec.n_fine, 3))
        masks = [None, {0, spec.n_levels - 1}] + [{i} for i in range(spec.n_levels)]
        for mask in masks:
            got = model_forward(spec, params, x, level_mask=mask)
            want = model_forward_reference(spec, params, x, level_mask=mask)
            assert got.shape == want.shape == (spec.n_fine, 1)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), mask


class TestEnsembleInputGradient:
    def test_single_level_matches_gcn_rule(self, tiny_hierarchy):
        z = tiny_hierarchy.laplacians[0]
        level = GcnSpec(z=z, gcn_widths=(4, 3), dense_widths=(5, 1))
        spec = ModelSpec(kind="gpcn", levels=[level])
        params = init_model_params(spec, 3, seeded_rng(20))
        gcn_params = init_gcn_params(level, 3, seeded_rng(20))
        x = seeded_rng(21).normal(size=(z.n, 3))
        a = ensemble_input_gradient(spec, params, x)
        b = ensemble_input_gradient(*as_model(level, gcn_params), x)
        assert np.abs(a - b).max() < 1e-12

    def test_matches_tape(self, tiny_hierarchy):
        # the tape gradient against the paper's rule, member by member
        for name in ("single_gcn", "ensemble3", "ngcn3", "gpcn3", "a_gpcn3"):
            spec = build_from_table(name, tiny_hierarchy)
            params = init_model_params(spec, 3, seeded_rng(22))
            x = seeded_rng(23).normal(size=(spec.n_fine, 3))
            tape = ensemble_input_gradient(spec, params, x)
            rule = ensemble_input_gradient_reference(spec, params, x)
            assert np.abs(tape - rule).max() < 1e-10, name

    @pytest.mark.parametrize("name", ["ensemble2", "ngcn3", "gpcn2", "diffpool3"])
    def test_matches_finite_differences(self, tiny_hierarchy, name):
        spec = build_from_table(name, tiny_hierarchy)
        params = init_model_params(spec, 2, seeded_rng(24))
        x = seeded_rng(25).normal(size=(spec.n_fine, 2))
        ana = ensemble_input_gradient(spec, params, x)
        from tests.test_autodiff import finite_difference

        fd = finite_difference(lambda v: float(model_forward(spec, params, v).sum()), x)
        assert np.abs(ana - fd).max() / max(np.abs(fd).max(), 1e-10) < 1e-5


class TestBuildFromTable:
    def test_rejects_unknown_name(self, tiny_hierarchy):
        with pytest.raises(ValueError, match="single_gcn"):
            build_from_table("resnet", tiny_hierarchy)

    def test_single_gcn_row(self, tiny_hierarchy):
        spec = build_from_table("single_gcn", tiny_hierarchy)
        assert spec.kind == "plain_ensemble" and len(spec.levels) == 1
        assert spec.levels[0].gcn_widths == (64, 64, 64)
        assert spec.levels[0].dense_widths == (256, 32, 8, 1)

    def test_gpcn2_puts_wide_filters_on_the_coarse_level(self, tiny_hierarchy):
        spec = build_from_table("gpcn2", tiny_hierarchy)
        assert spec.levels[0].gcn_widths == (32, 32, 32)  # fine scale
        assert spec.levels[1].gcn_widths == (64, 64, 64)  # coarse scale
        assert not spec.adaptive

    def test_ensemble3_width_triples(self, tiny_hierarchy):
        spec = build_from_table("ensemble3", tiny_hierarchy)
        assert [lvl.gcn_widths[0] for lvl in spec.levels] == [64, 32, 16]
        assert all(lvl.n == spec.n_fine for lvl in spec.levels)

    def test_adaptive_flag(self, tiny_hierarchy):
        assert build_from_table("a_gpcn3", tiny_hierarchy).adaptive
        assert not build_from_table("gpcn3", tiny_hierarchy).adaptive

    def test_ngcn_is_not_a_kind(self, tiny_hierarchy):
        level = GcnSpec(z=tiny_hierarchy.laplacians[0], gcn_widths=(4,), dense_widths=(1,))
        with pytest.raises(ValueError, match="unknown model kind 'ngcn'"):
            ModelSpec(kind="ngcn", levels=[level])

    def test_model_names_constant(self):
        assert "a_gpcn3" in MODEL_NAMES and len(MODEL_NAMES) == 10


class TestParameterGradientSpotChecks:
    @pytest.mark.parametrize("name", ["ensemble2", "gpcn2", "a_gpcn2", "ngcn3", "diffpool3"])
    def test_twenty_random_parameters(self, tiny_hierarchy, name):
        spec = build_from_table(name, tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(27))
        x = seeded_rng(28).normal(size=(spec.n_fine, 3))
        target = seeded_rng(29).normal(size=(spec.n_fine, 1))

        tape = Tape()
        bound = params.bind(tape, range(spec.n_levels))
        tape.backward(tape.mse(model_graph(tape, spec, bound, x), target))

        def loss():
            return float(np.mean((model_forward(spec, params, x) - target) ** 2))

        rng = seeded_rng(30)
        h = 1e-5
        flat = [(arr, node) for (_, arr), (_, node) in zip(params.all_arrays(), bound.all_arrays())]
        for _ in range(20):
            arr, node = flat[int(rng.integers(len(flat)))]
            idx = int(rng.integers(arr.size))
            old = arr.flat[idx]
            arr.flat[idx] = old + h
            lp = loss()
            arr.flat[idx] = old - h
            lm = loss()
            arr.flat[idx] = old
            fd = (lp - lm) / (2 * h)
            got = node.grad.flat[idx] if node.grad is not None else 0.0
            assert abs(got - fd) / max(abs(fd), 1e-6) < 1e-4


class TestCheckpoints:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_round_trip_preserves_forward(self, tiny_hierarchy, tmp_path, name):
        spec = build_from_table(name, tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(31))
        x = seeded_rng(32).normal(size=(spec.n_fine, 3))
        expected = model_forward(spec, params, x)
        path = tmp_path / "model.bin"
        save_checkpoint(path, spec, params)
        spec2, params2 = load_checkpoint(path)
        assert spec2.kind == spec.kind and spec2.adaptive == spec.adaptive
        assert np.array_equal(model_forward(spec2, params2, x), expected)

    def test_float32_trainer_parameters_round_trip(self, tiny_hierarchy, tmp_path):
        # a Trainer holds float32 parameters, and the checkpoint stores them as float64
        spec = build_from_table("a_gpcn3", tiny_hierarchy)
        data = synthetic_dataset(n_nodes=spec.n_fine, n_features=3)
        trainer = Trainer(spec, data, ScheduleSpec(total_epochs=1, batches_per_epoch=2, batch_size=4), 0)
        trainer.run()
        save_checkpoint(tmp_path / "model.bin", spec, trainer.params)
        _, params = load_checkpoint(tmp_path / "model.bin")
        saved, loaded = trainer.params.all_arrays(), params.all_arrays()
        assert [name for name, _ in loaded] == [name for name, _ in saved]
        for (_, want), (_, got) in zip(saved, loaded):
            assert want.dtype == np.float32 and got.dtype == np.float64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["ngcn3", "a_gpcn3", "diffpool3"])
    def test_loads_manifest_with_activations_and_radii(self, tiny_hierarchy, tmp_path, name):
        # checkpoints used to record every layer's activation and the ngcn
        # radii, and to store an N-GCN under the kind "ngcn"; a reader
        # ignores the extra keys, as activations follow position, and reads
        # that kind as the plain ensemble it is
        spec = build_from_table(name, tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(33))
        x = seeded_rng(34).normal(size=(spec.n_fine, 3))
        save_checkpoint(tmp_path / "new.bin", spec, params)
        arrays, meta = load_arrays(tmp_path / "new.bin")
        assert "radii" not in meta
        if name == "ngcn3":
            assert meta["kind"] == "plain_ensemble"
            meta["kind"], meta["radii"] = "ngcn", [1, 2, 4]
        else:
            meta["radii"] = []
        for lm in meta["levels"]:
            assert "gcn_activations" not in lm and "dense_activations" not in lm
            lm["gcn_activations"] = ["relu"] * len(lm["gcn_widths"])
            lm["dense_activations"] = ["sigmoid"] * (len(lm["dense_widths"]) - 1) + ["linear"]
        save_arrays(tmp_path / "old.bin", arrays, meta)
        spec2, params2 = load_checkpoint(tmp_path / "old.bin")
        assert spec2.kind == spec.kind
        assert np.array_equal(model_forward(spec2, params2, x), model_forward(spec, params, x))

    @pytest.mark.parametrize("name", ["gpcn2", "a_gpcn3", "ngcn3", "diffpool3"])
    def test_load_checks_every_manifest_key_that_save_writes(self, tiny_hierarchy, tmp_path, name):
        # a key added to save_checkpoint's manifest must be checked on load too
        spec = build_from_table(name, tiny_hierarchy)
        save_checkpoint(tmp_path / "model.bin", spec, init_model_params(spec, 3, seeded_rng(36)))
        _, meta = load_arrays(tmp_path / "model.bin")
        assert set(meta) == set(_MANIFEST)
        assert all(set(lm) == set(_LEVEL_MANIFEST) for lm in meta["levels"])

    @pytest.mark.parametrize(
        "damage, message",
        [
            # scipy's own format check passes an indptr ending below zero
            (lambda a, m: a["z0_indptr"].__setitem__(-1, -1), "z0: CSR arrays do not form"),
            (lambda a, m: a["z0_indices"].__setitem__(0, 10**6), "z0: CSR arrays do not form"),
            (lambda a, m: a.pop("level0_dense0_w"), "has no array 'level0_dense0_w'"),
            (lambda a, m: m["levels"][0].pop("has_z"), r"levels\[0\] has_z must be true or false"),
            (lambda a, m: m["levels"][0].update(gcn_widths=[4, "4"]), "width must be an integer"),
            (lambda a, m: m.update(n_pools=None), "n_pools must be an integer"),
        ],
    )
    def test_damaged_checkpoint_raises_value_error(self, tiny_hierarchy, tmp_path, damage, message):
        spec = build_from_table("gpcn2", tiny_hierarchy)
        save_checkpoint(tmp_path / "model.bin", spec, init_model_params(spec, 3, seeded_rng(35)))
        arrays, meta = load_arrays(tmp_path / "model.bin")
        damage(arrays, meta)
        save_arrays(tmp_path / "damaged.bin", arrays, meta)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(tmp_path / "damaged.bin")


class TestRecordedSubgraph:
    @pytest.mark.parametrize("name", ["ensemble2", "ngcn3", "gpcn3", "a_gpcn3", "diffpool3"])
    def test_forward_without_variables_records_nothing(self, tiny_hierarchy, name):
        spec = build_from_table(name, tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(50))
        x = seeded_rng(51).normal(size=(4, spec.n_fine, 3))
        tape = Tape()
        out = model_graph(tape, spec, params, x)
        assert tape._nodes == [] and not out.needs
        assert np.array_equal(out.value, model_forward(spec, params, x))

    @pytest.mark.parametrize("name", ["gpcn3", "a_gpcn3", "diffpool3"])
    def test_one_level_gradients_match_joint_bits(self, tiny_hierarchy, name):
        spec = build_from_table(name, tiny_hierarchy)
        params = init_model_params(spec, 3, seeded_rng(52))
        rng = seeded_rng(53)
        x = rng.normal(size=(4, spec.n_fine, 3))
        target = rng.normal(size=(4, spec.n_fine, 1))

        def grads(owners):
            tape = Tape()
            bound = params.bind(tape, owners)
            tape.backward(tape.mse(model_graph(tape, spec, bound, x), target))
            return bound, len(tape._nodes)

        joint, joint_nodes = grads(range(spec.n_levels))
        for level in range(spec.n_levels):
            alone, nodes = grads({level})
            assert nodes < joint_nodes
            got = [node.grad for _, node in alone.owned_arrays(level)]
            want = [node.grad for _, node in joint.owned_arrays(level)]
            assert len(got) == len(want) > 0
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (name, level)


def test_desk_prolongations_do_not_depend_on_blas_threads(tmp_path):
    # tube Laplacians are mirror symmetric, so eig_sym's sign rule meets exact
    # ties instead of rounding-close ones and the thread count cannot flip a sign
    code = (
        "import sys, numpy as np\n"
        "from gpcn.ensembles import desk_hierarchy\n"
        "np.savez(sys.argv[1], *desk_hierarchy().prolongations)\n"
    )
    src = os.path.dirname(os.path.dirname(gpcn.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ, PYTHONPATH=src,
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        )
        out = tmp_path / f"p{threads}.npz"
        result = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        with np.load(out) as f:
            runs.append([f[key] for key in sorted(f.files)])
    assert len(runs[0]) == len(runs[1]) == 2
    for p1, p2 in zip(*runs):
        assert np.abs(p1 - p2).max() <= 1e-10
