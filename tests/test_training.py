import copy
import dataclasses

import numpy as np
import pytest

from gpcn import training
from gpcn.autodiff import Tape
from gpcn.ensembles import (
    MODEL_NAMES,
    build_from_table,
    init_model_params,
    make_hierarchy,
    model_forward,
)
from gpcn.gcn import GcnSpec
from gpcn.graphs import make_tube
from gpcn.numcore import seeded_rng
from gpcn.training import (
    ScheduleSpec,
    Trainer,
    best_val_at_budget,
    flops_dense,
    flops_gcn_layer,
    flops_project,
    gamma_sequence,
    model_forward_flops,
    nmse,
    normalize_dataset,
    split_indices,
    train,
)

from tests.conftest import synthetic_dataset


@pytest.fixture(scope="module")
def hier():
    return make_hierarchy([make_tube(6, 5, 1), make_tube(3, 5, 1), make_tube(3, 2, 0)])


def train_without_learning(spec, data, schedule, seed):
    """``train`` with every ADAM learning rate at 0: the parameters never
    move, so validation never improves and coarse-to-fine stages advance
    whenever the patience runs out."""
    trainer = Trainer(spec, data, schedule, seed)
    for state in trainer.adam.values():
        state.lr = 0.0
    return trainer.run()


def tiny_spec(hier, name="gpcn2"):
    spec = build_from_table(name, hier)
    # shrink the dense head so trainer tests stay fast
    levels = [
        GcnSpec(z=lvl.z, gcn_widths=(4, 4), dense_widths=(6, 1), n_nodes=lvl.n_nodes)
        for lvl in spec.levels
    ]
    return dataclasses.replace(spec, levels=tuple(levels))


class TestNmse:
    def test_zero_for_identical(self):
        x = seeded_rng(0).normal(size=(5, 3))
        assert nmse(x, x) == 0.0

    def test_hand_case(self):
        assert nmse(np.array([[1.0], [2.0]]), np.array([[0.0], [0.0]])) == 2.5

    def test_constant_predictor_scores_one_on_zscored_targets(self):
        y = seeded_rng(1).normal(size=(5000, 1))
        y = (y - y.mean()) / y.std()
        assert abs(nmse(np.zeros_like(y), y) - 1.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((2, 1)), np.zeros((3, 1)))


class TestFlopsModel:
    def test_gcn_layer_formula_on_benchmark_sizes(self):
        # 624-node tube, 10 input features, 64 filters, 3088 stored entries
        assert flops_gcn_layer(624, 10, 64, 3088) == 6240 * (3088 + 64)

    def test_dense_minimal(self):
        assert flops_dense(1, 1, 1) == 1

    def test_projection(self):
        assert flops_project(624, 10, 78) == 624 * 78 * 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flops_gcn_layer(0, 1, 1, 1)

    def test_single_gcn_hand_sum(self, hier):
        spec = build_from_table("single_gcn", hier)
        n, nnz, f = 30, spec.levels[0].z.nnz, 7
        expected = (
            n * f * (nnz + 64)
            + n * 64 * (nnz + 64)
            + n * 64 * (nnz + 64)
            + n * 192 * 256
            + n * 256 * 32
            + n * 32 * 8
            + n * 8 * 1
        )
        total, breakdown = model_forward_flops(spec, f)
        assert total == expected
        assert breakdown["projection"] == 0

    def test_gpcn_charges_projections(self, hier):
        spec = build_from_table("gpcn2", hier)
        f = 7
        total, breakdown = model_forward_flops(spec, f)
        n0, n1 = spec.levels[0].n, spec.levels[1].n
        assert breakdown["projection"] == n1 * f * n0 + n0 * 1 * n1

    def test_adaptive_composition_charged_once_per_pass(self, hier):
        frozen = build_from_table("gpcn3", hier)
        adaptive = build_from_table("a_gpcn3", hier)
        f = 7
        t_frozen, _ = model_forward_flops(frozen, f, batch=4)
        t_adaptive, _ = model_forward_flops(adaptive, f, batch=4)
        n0, n1, n2 = (lvl.n for lvl in adaptive.levels)
        assert t_adaptive - t_frozen == n0 * n2 * n1


class TestSplitAndNormalize:
    def test_split_reproducible_and_disjoint(self):
        a_train, a_val = split_indices(100, seed=5)
        b_train, b_val = split_indices(100, seed=5)
        assert np.array_equal(a_train, b_train) and np.array_equal(a_val, b_val)
        assert len(a_train) == 80 and len(a_val) == 20
        assert set(a_train).isdisjoint(a_val)
        c_train, _ = split_indices(101, seed=5)
        assert not np.array_equal(np.sort(a_train), np.sort(c_train)[: len(a_train)])

    def test_training_series_are_zscored(self, small_dataset):
        train_idx, _ = split_indices(small_dataset.n_frames, seed=0)
        stats, xn, yn = normalize_dataset(small_dataset, train_idx)
        xt = xn[train_idx]
        assert np.abs(xt.mean(axis=0)).max() < 1e-9
        stds = xt.std(axis=0)
        varying = stats.x_std > 1e-12
        assert np.abs(stds[varying.nonzero()] - 1.0).max() < 1e-6

    def test_constant_series_map_to_zero(self):
        data = synthetic_dataset(n_frames=10, n_nodes=4, n_features=2)
        data.x[:, 0, 0] = 7.0  # clamp-like constant series
        train_idx, _ = split_indices(10, seed=1)
        _, xn, _ = normalize_dataset(data, train_idx)
        assert np.abs(xn[:, 0, 0]).max() == 0.0

    def test_stats_use_training_frames_only(self, small_dataset):
        train_idx, val_idx = split_indices(small_dataset.n_frames, seed=2)
        stats, _, _ = normalize_dataset(small_dataset, train_idx)
        assert np.abs(stats.x_mean - small_dataset.x[train_idx].mean(axis=0)).max() == 0.0

    def test_rejects_a_dataset_of_another_node_count(self, hier):
        with pytest.raises(ValueError, match="30 nodes but the dataset has 29"):
            train(tiny_spec(hier), synthetic_dataset(n_nodes=29), ScheduleSpec(total_epochs=0), seed=0)

    def test_trainer_leaves_the_dataset_unchanged(self, hier, small_dataset):
        before = copy.deepcopy(small_dataset)
        Trainer(tiny_spec(hier), small_dataset, ScheduleSpec(), seed=0)
        for f in dataclasses.fields(small_dataset):
            got, want = getattr(small_dataset, f.name), getattr(before, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name


class TestGammaSequence:
    def test_two_levels_v_cycle(self):
        assert gamma_sequence(2, 1) == [0, 1, 0]

    def test_three_levels_gamma_two(self):
        assert gamma_sequence(3, 2) == [0, 1, 2, 2, 1, 1, 2, 2, 1, 0]

    def test_gamma_zero_stays_fine(self):
        assert set(gamma_sequence(3, 0)) == {0}

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            gamma_sequence(1, 1)


def record_bits(record):
    return [
        (p.flops, p.epoch, repr(p.train_nmse), repr(p.best_val_nmse)) for p in record.points
    ]


class TestTrainJoint:
    def test_zero_epochs_evaluates_once(self, hier, small_dataset):
        record = train(tiny_spec(hier), small_dataset, ScheduleSpec(total_epochs=0), seed=0)
        assert len(record.points) == 1
        assert record.points[0].epoch == 0 and record.points[0].flops == 0

    def test_identical_seeds_identical_records(self, hier, small_dataset):
        sched = ScheduleSpec(total_epochs=3, batches_per_epoch=4, batch_size=4)
        a = train(tiny_spec(hier), small_dataset, sched, seed=3)
        b = train(tiny_spec(hier), small_dataset, sched, seed=3)
        assert record_bits(a) == record_bits(b)

    def test_different_seeds_differ(self, hier, small_dataset):
        sched = ScheduleSpec(total_epochs=2, batches_per_epoch=4, batch_size=4)
        a = train(tiny_spec(hier), small_dataset, sched, seed=3)
        b = train(tiny_spec(hier), small_dataset, sched, seed=4)
        assert record_bits(a) != record_bits(b)

    def test_best_val_curve_nonincreasing(self, hier, small_dataset):
        record = train(
            tiny_spec(hier), small_dataset, ScheduleSpec(total_epochs=8, batches_per_epoch=4), seed=5
        )
        best = [p.best_val_nmse for p in record.points]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_ledger_matches_hand_prediction(self, hier, small_dataset):
        spec = tiny_spec(hier)
        sched = ScheduleSpec(total_epochs=2, batches_per_epoch=3, batch_size=4)
        record = train(spec, small_dataset, sched, seed=6)
        per_batch, _ = model_forward_flops(spec, small_dataset.x.shape[-1], batch=4)
        assert record.total_flops == 2 * 3 * 3 * per_batch

    def test_frozen_adaptive_reproduces_gpcn(self, hier, small_dataset):
        sched = ScheduleSpec(total_epochs=2, batches_per_epoch=3, batch_size=4)
        gpcn = build_from_table("gpcn2", hier)
        adaptive = dataclasses.replace(build_from_table("a_gpcn2", hier), adaptive=False)
        a = train(gpcn, small_dataset, sched, seed=7)
        b = train(adaptive, small_dataset, sched, seed=7)
        assert record_bits(a) == record_bits(b)

    def test_adaptive_actually_moves_prolongations(self, hier, small_dataset):
        spec = build_from_table("a_gpcn2", hier)
        trainer = Trainer(spec, small_dataset, ScheduleSpec(total_epochs=1, batches_per_epoch=3, batch_size=4), seed=8)
        before = trainer.params.prolongations[0].copy()
        trainer.run()
        assert np.abs(trainer.params.prolongations[0] - before).max() > 0.0


class TestGammaCycle:
    def test_epoch_log_matches_unfolded_sequence(self, hier, small_dataset):
        record = train(
            tiny_spec(hier), small_dataset,
            ScheduleSpec(
                kind="gamma_cycle", gamma=1, smoothing_epochs=1,
                total_epochs=6, batches_per_epoch=2, batch_size=4,
            ),
            seed=9,
        )
        labels = [label for _, label in record.epoch_log]
        assert labels == ["level0", "level1", "level0"] * 2

    def test_three_level_gamma_two_log(self, hier, small_dataset):
        spec = tiny_spec(hier, "gpcn3")
        record = train(
            spec, small_dataset,
            ScheduleSpec(
                kind="gamma_cycle", gamma=2, smoothing_epochs=1,
                total_epochs=10, batches_per_epoch=2, batch_size=4,
            ),
            seed=10,
        )
        labels = [label for _, label in record.epoch_log]
        expected = [f"level{l}" for l in [0, 1, 2, 2, 1, 1, 2, 2, 1, 0]]
        assert labels == expected

    def test_masking_leaves_other_levels_bit_identical(self, hier, small_dataset):
        spec = tiny_spec(hier, "gpcn3")
        trainer = Trainer(
            spec, small_dataset,
            ScheduleSpec(total_epochs=1, batches_per_epoch=3, batch_size=4), seed=11,
        )
        snapshot = {
            name: arr.copy()
            for owner in (1, 2)
            for name, arr in trainer.params.owned_arrays(owner)
        }
        trainer._train_epoch(update_levels={0})
        for owner in (1, 2):
            for name, arr in trainer.params.owned_arrays(owner):
                assert arr.tobytes() == snapshot[name].tobytes()
        # and the smoothed level moved
        moved = trainer.params.owned_arrays(0)
        assert any(arr.tobytes() != snapshot.get(name, b"") for name, arr in moved)

    def test_single_level_model_rejected(self, hier, small_dataset):
        spec = tiny_spec(hier, "single_gcn")
        with pytest.raises(ValueError):
            train(
                spec, small_dataset,
                ScheduleSpec(kind="gamma_cycle", gamma=1, total_epochs=2), seed=0,
            )

    def test_partial_forward_switch_runs(self, hier, small_dataset):
        record = train(
            tiny_spec(hier), small_dataset,
            ScheduleSpec(
                kind="gamma_cycle", gamma=1, smoothing_epochs=1, total_epochs=3,
                batches_per_epoch=2, batch_size=4, smoothing_forward="partial",
            ),
            seed=12,
        )
        assert len(record.points) == 4


class TestBinding:
    """Only the levels an epoch updates become tape variables, and a frozen
    gpcn's prolongations stay in its spec."""

    @staticmethod
    def count_variables(monkeypatch):
        made = []
        variable = Tape.variable
        monkeypatch.setattr(Tape, "variable", lambda tape, v: made.append(v) or variable(tape, v))
        return made

    def test_only_updated_level_is_bound(self, hier, small_dataset, monkeypatch):
        spec = tiny_spec(hier, "gpcn3")
        schedule = ScheduleSpec(total_epochs=1, batches_per_epoch=3, batch_size=4)
        trainer = Trainer(spec, small_dataset, schedule, seed=11)
        made = self.count_variables(monkeypatch)
        trainer._train_epoch(update_levels={0})
        assert len(made) == 3 * len(trainer.params.owned_arrays(0))

    def test_frozen_prolongations_live_in_the_spec(self, hier, small_dataset):
        spec = tiny_spec(hier, "gpcn3")
        before = [p.tobytes() for p in spec.prolongations]
        assert init_model_params(spec, 4, seeded_rng(0)).prolongations == []
        trainer = Trainer(spec, small_dataset, ScheduleSpec(total_epochs=2, batches_per_epoch=2), seed=3)
        for owner in range(spec.n_levels):
            n_filters = len(trainer.params.levels[owner].arrays())
            assert len(trainer.adam[owner].m) == n_filters
        trainer.run()
        assert [p.tobytes() for p in spec.prolongations] == before

    def test_adaptive_middle_level_alone(self, hier, small_dataset, monkeypatch):
        spec = tiny_spec(hier, "a_gpcn3")
        schedule = ScheduleSpec(total_epochs=1, batches_per_epoch=2, batch_size=4)
        trainer = Trainer(spec, small_dataset, schedule, seed=12)
        before = {
            owner: [arr.copy() for _, arr in trainer.params.owned_arrays(owner)]
            for owner in range(spec.n_levels)
        }
        made = self.count_variables(monkeypatch)
        trainer._train_epoch(update_levels={1})
        assert len(made) == 2 * len(trainer.params.owned_arrays(1))
        for owner, arrays in before.items():
            now = [arr for _, arr in trainer.params.owned_arrays(owner)]
            same = [a.tobytes() == b.tobytes() for a, b in zip(arrays, now)]
            assert all(same) if owner != 1 else not any(same), owner


    def test_update_level_outside_forward_mask_rejected(self, hier, small_dataset):
        trainer = Trainer(
            tiny_spec(hier), small_dataset,
            ScheduleSpec(total_epochs=1, batches_per_epoch=2, batch_size=4), seed=14,
        )
        with pytest.raises(ValueError, match=r"update levels \[1\] are outside the forward mask \[0\]"):
            trainer._train_epoch(update_levels={1}, forward_mask={0})
        assert all(state.t == 0 for state in trainer.adam.values())


class TestCoarseToFine:
    def test_stages_advance_with_patience(self, hier, small_dataset):
        record = train(
            tiny_spec(hier), small_dataset,
            ScheduleSpec(
                kind="coarse_to_fine",
                total_epochs=40, batches_per_epoch=2, batch_size=4, patience=3,
            ),
            seed=13,
        )
        stages = [s for s, _ in record.stage_starts]
        assert stages[0] == 1
        assert stages == sorted(stages)
        assert len(stages) <= 2
        starts = [e for _, e in record.stage_starts]
        assert all(b - a >= 4 for a, b in zip(starts, starts[1:]))  # patience + first improvement

    def test_stage_one_trains_only_the_coarsest(self, hier, small_dataset):
        spec = tiny_spec(hier)
        trainer = Trainer(
            spec, small_dataset,
            ScheduleSpec(kind="coarse_to_fine", total_epochs=2, batches_per_epoch=2, batch_size=4, patience=10),
            seed=14,
        )
        fine_before = {name: arr.copy() for name, arr in trainer.params.owned_arrays(0)}
        trainer.run()
        for name, arr in trainer.params.owned_arrays(0):
            assert arr.tobytes() == fine_before[name].tobytes()

    def test_single_level_equivalent_to_joint(self, hier, small_dataset):
        spec = tiny_spec(hier, "single_gcn")
        joint = train(spec, small_dataset, ScheduleSpec(total_epochs=3, batches_per_epoch=2, batch_size=4), seed=15)
        c2f = train(
            spec, small_dataset,
            ScheduleSpec(kind="coarse_to_fine", total_epochs=3, batches_per_epoch=2, batch_size=4),
            seed=15,
        )
        assert record_bits(joint) == record_bits(c2f)

    def test_no_stage_starts_after_the_last_epoch(self, hier):
        spec = tiny_spec(hier, "a_gpcn3")
        data = synthetic_dataset(seed=9)
        data.y = seeded_rng(10).normal(size=data.y.shape)  # no signal: stages advance

        def stage_starts(total_epochs):
            schedule = ScheduleSpec(
                kind="coarse_to_fine", patience=1,
                total_epochs=total_epochs, batches_per_epoch=1, batch_size=1,
            )
            return train_without_learning(spec, data, schedule, seed=4).stage_starts

        assert stage_starts(2) == [(1, 0), (2, 1)]
        assert stage_starts(1) == [(1, 0)]


class TestMaskedLedger:
    @pytest.mark.parametrize("name", ["a_gpcn3", "diffpool3"])
    @pytest.mark.parametrize(
        "schedule",
        [
            ScheduleSpec(
                kind="gamma_cycle", gamma=1, smoothing_forward="partial",
                total_epochs=6, batches_per_epoch=2, batch_size=4,
            ),
            ScheduleSpec(
                kind="coarse_to_fine", patience=1,
                total_epochs=8, batches_per_epoch=1, batch_size=1,
            ),
        ],
        ids=["gamma-partial", "coarse-to-fine"],
    )
    def test_masked_ledger_matches_hand_prediction(self, hier, schedule, name):
        spec = tiny_spec(hier, name)
        k = spec.n_levels
        data = synthetic_dataset(seed=9)
        data.y = seeded_rng(10).normal(size=data.y.shape)  # no signal: stages advance
        record = train_without_learning(spec, data, schedule, seed=4)
        if schedule.kind == "coarse_to_fine":
            assert len(record.stage_starts) > 1

        def mask(label):
            if label.startswith("level"):
                return set(range(int(label[len("level"):]), k))
            return set(range(k - int(label[len("stage"):]), k))

        expected = [0]
        for _, label in record.epoch_log:
            cost, _ = model_forward_flops(
                spec, data.x.shape[-1], level_mask=mask(label), batch=schedule.batch_size
            )
            expected.append(expected[-1] + 3 * schedule.batches_per_epoch * cost)
        assert [p.flops for p in record.points] == expected


class TestChunkedEvaluation:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("kind", ["joint", "coarse_to_fine"])
    def test_epoch0_point_equals_one_whole_split_forward(self, hier, name, kind):
        # batches of 3 leave a short last slice of both splits; coarse-to-fine
        # validates on the coarsest level only
        data = synthetic_dataset(n_frames=40)
        spec = build_from_table(name, hier)
        trainer = Trainer(spec, data, ScheduleSpec(kind=kind, total_epochs=0, batch_size=3), seed=4)
        assert len(trainer.x_val) % 3 and len(trainer.x_train) % 3
        mask = {spec.n_levels - 1} if kind == "coarse_to_fine" else None
        # the trainer's own float32 spec: the caller's float64 one would promote the forward
        train_nmse = nmse(
            model_forward(trainer.spec, trainer.params, trainer.x_train), trainer.y_train
        )
        val_nmse = nmse(
            model_forward(trainer.spec, trainer.params, trainer.x_val, level_mask=mask),
            trainer.y_val,
        )
        (point,) = trainer.run().points
        assert repr(point.train_nmse) == repr(train_nmse)
        assert repr(point.best_val_nmse) == repr(val_nmse)


class TestRunRecordOutput:
    def test_csv_columns_and_determinism(self, hier, small_dataset, tmp_path):
        record = train(
            tiny_spec(hier), small_dataset, ScheduleSpec(total_epochs=2, batches_per_epoch=2, batch_size=4), seed=16
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        record.to_csv(a)
        record.to_csv(b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "flops,epoch,train_nmse,best_val_nmse"

    def test_best_val_at_budget(self, hier, small_dataset):
        record = train(
            tiny_spec(hier), small_dataset, ScheduleSpec(total_epochs=4, batches_per_epoch=2, batch_size=4), seed=17
        )
        full = best_val_at_budget(record, record.total_flops)
        assert full == record.best_val_nmse
        with pytest.raises(ValueError):
            best_val_at_budget(record, -1)


class TestScheduleValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            ScheduleSpec(kind="gamma_cycle", gamma=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ScheduleSpec(kind="warmup")

    @pytest.mark.parametrize(
        "settings", [{"total_epochs": 1.5}, {"batch_size": 2.5}, {"gamma": True}], ids=repr
    )
    def test_rejects_values_of_the_wrong_type(self, settings):
        with pytest.raises(ValueError):
            ScheduleSpec(**settings)


def count_subnormal(a) -> int:
    a = np.asarray(a)
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


class TestFloat32Training:
    """A Trainer computes in float32; the caller's spec and data keep float64."""

    def test_parameters_moments_and_gradients_are_float32(self, hier, small_dataset, monkeypatch):
        spec = build_from_table("a_gpcn3", hier)
        trainer = Trainer(spec, small_dataset, ScheduleSpec(batches_per_epoch=1, batch_size=4), seed=0)
        arrays = [arr for _, arr in trainer.params.all_arrays()]
        moments = [a for state in trainer.adam.values() for a in state.m + state.v]
        structure = [lvl.z.mat for lvl in trainer.spec.levels] + list(trainer.spec.prolongations)
        frames = [trainer.x_train, trainer.y_train, trainer.x_val, trainer.y_val]
        assert all(a.dtype == np.float32 for a in arrays + moments + structure + frames)
        seen = []
        step = training.adam_step
        monkeypatch.setattr(
            training, "adam_step", lambda state, p, g: seen.extend(g) or step(state, p, g)
        )
        loss = trainer._train_epoch()
        assert isinstance(loss, float) and len(seen) == len(arrays)
        assert all(g.dtype == np.float32 for g in seen)
        assert all(a.dtype == np.float32 for a in arrays + moments)
        # the caller's spec and data are untouched
        assert all(lvl.z.mat.dtype == np.float64 for lvl in spec.levels)
        assert small_dataset.x.dtype == small_dataset.y.dtype == np.float64

    def test_no_subnormal_pre_activation_gradient_reaches_a_gemm(self, hier, monkeypatch):
        # large first dense filters saturate the sigmoid layers, whose raw
        # pre-activation gradients g * out * (1 - out) then hold subnormals
        counts = {"raw": 0, "gemm": 0}

        def spy(node, key, value):
            def wrap(vjp):
                def wrapped(g):
                    counts[key] += count_subnormal(value(g))
                    return vjp(g)

                return wrapped

            node.vjps = tuple(wrap(vjp) for vjp in node.vjps)
            return node

        class CheckingTape(Tape):
            def sigmoid(self, a, b=None):
                node = super().sigmoid(a, b)
                out = node.value
                return spy(node, "raw", lambda g: g * out * (1 - out))

            def matmul(self, a, b):
                return spy(super().matmul(a, b), "gemm", lambda g: g)

        monkeypatch.setattr(training, "Tape", CheckingTape)
        data = synthetic_dataset()
        trainer = Trainer(
            build_from_table("a_gpcn3", hier), data, ScheduleSpec(batches_per_epoch=3, batch_size=8), 0
        )
        for level in trainer.params.levels:
            level.dense[0].w *= 10.0
        trainer._train_epoch()
        assert counts["raw"] > 0
        assert counts["gemm"] == 0
