"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every criterion stays
within its stated runtime budget on one core; the heavy one, criterion 7,
regenerates its dataset at desk scale and is marked ``slow``, so
``pytest -m "not slow"`` skips it for a quick local loop.
"""

import dataclasses
import importlib
import itertools
import json
import os
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

gdd_mod = importlib.import_module("gpcn.gdd")
from gpcn.autodiff import Tape
from gpcn.cli import main as cli_main
from gpcn.ensembles import (
    ModelParams,
    ModelSpec,
    build_from_table,
    desk_hierarchy,
    ensemble_input_gradient,
    init_model_params,
    make_hierarchy,
    model_forward,
    model_graph,
)
from gpcn.gcn import GcnSpec, init_gcn_params
from gpcn.gdd import gdd, limit_curve, rlap_solve, warm_start
from gpcn.graphs import laplacian, make_grid, make_tube
from gpcn.numcore import eig_sym, seeded_rng
from gpcn.simulator import (
    STRENGTH_PARAMS,
    SimConfig,
    build_geometry,
    forces_and_energy,
    initial_state,
    run_simulation,
    step,
    tip_deflection,
)
from gpcn.training import (
    ScheduleSpec,
    Trainer,
    best_val_at_budget,
    flops_dense,
    flops_gcn_layer,
    model_forward_flops,
    train,
)

from tests.conftest import synthetic_dataset
from tests.oracles import (
    assignment_cost,
    ensemble_input_gradient_reference,
    input_gradient_rule,
)
from tests.test_autodiff import finite_difference
from tests.test_gdd import random_graph


def report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def row_sorted_total(cost, pairs):
    pairs = sorted(pairs)
    return float(np.sum(np.array([cost[j, l] for j, l in pairs])))


def test_criterion_1_gdd_oracle_equivalence():
    start = time.time()
    rng = seeded_rng(100)
    for trial in range(100):
        g1 = random_graph(rng, int(rng.integers(2, 6)))
        g2 = random_graph(rng, int(rng.integers(max(3, g1.n), 8)))
        e1 = eig_sym(laplacian(g1))
        e2 = eig_sym(laplacian(g2))
        cost = np.array(
            [[assignment_cost(x, y, 1.0) for y in e2.lambdas] for x in e1.lambdas]
        )
        # exhaustive oracle over all injections
        best_total, best_pairs = np.inf, None
        for cols in itertools.permutations(range(g2.n), g1.n):
            pairs = [(j, l) for j, l in enumerate(cols)]
            total = row_sorted_total(cost, pairs)
            if total < best_total:
                best_total, best_pairs = total, pairs
        a = rlap_solve(e1.lambdas, e2.lambdas, 1.0)
        assert row_sorted_total(cost, a.pairs) == best_total
        # full-objective oracle over all lifted subpermutations
        l1d, l2d = laplacian(g1).toarray(), laplacian(g2).toarray()
        brute = np.inf
        for cols in itertools.permutations(range(g2.n), g1.n):
            pt = np.zeros((g2.n, g1.n))
            for j, l in enumerate(cols):
                pt[l, j] = 1.0
            p = e2.u @ pt @ e1.u.T
            m = p @ l1d - l2d @ p
            brute = min(brute, float(np.sqrt(np.sum(m * m))))
        assert gdd(g1, g2).distance <= brute + 1e-9
    elapsed = time.time() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, "gdd oracle equivalence")


def test_criterion_2_upper_bound_chain():
    rng = seeded_rng(101)
    pairs = [(random_graph(rng, 4), random_graph(rng, 7)) for _ in range(20)]
    pairs.append((make_tube(3, 4, 1), make_tube(6, 4, 1)))
    pairs.append((make_grid(2, 4), make_tube(4, 3, 1)))
    for g1, g2 in pairs:
        l1, l2 = laplacian(g1), laplacian(g2)
        e1, e2 = eig_sym(l1), eig_sym(l2)
        cost = np.array(
            [[assignment_cost(x, y, 1.0) for y in e2.lambdas] for x in e1.lambdas]
        )
        a = rlap_solve(e1.lambdas, e2.lambdas, 1.0)
        p0 = warm_start(e1, e2, a)
        m = p0 @ l1.toarray() - l2.toarray() @ p0
        warm_objective = float(np.sum(m * m))
        assert abs(warm_objective - a.total_cost) < 1e-9
        refined = gdd(g1, g2)
        assert refined.objective <= warm_objective + 1e-9
    report(2, "upper-bound chain")


def test_criterion_3_orthogonality_everywhere(monkeypatch):
    gram_errors = []
    real_retract = gdd_mod._qr_retract

    def tracking_retract(a):
        q = real_retract(a)
        gram_errors.append(np.linalg.norm(q.T @ q - np.eye(q.shape[1])))
        return q

    monkeypatch.setattr(gdd_mod, "_qr_retract", tracking_retract)
    rng = seeded_rng(102)
    results = []
    for _ in range(10):
        g1, g2 = random_graph(rng, 5), random_graph(rng, 9)
        results.append(gdd_mod.gdd(g1, g2))
        p0 = np.linalg.qr(rng.normal(size=(g2.n, g1.n)))[0]
        results.append(
            gdd_mod.refine_orthogonal(p0, laplacian(g1), laplacian(g2))
        )
    for result in results:
        err = np.linalg.norm(result.p.T @ result.p - np.eye(result.p.shape[1]))
        assert err < 1e-6
        assert np.all(np.diff(result.trace) <= 1e-12)
    assert gram_errors, "refinement never retracted; tracking failed"
    assert max(gram_errors) < 1e-6
    report(3, "orthogonality of every iterate")


def test_criterion_4_gradient_suite():
    hier = make_hierarchy([make_tube(6, 5, 1), make_tube(3, 5, 1)])  # 30 and 15 nodes
    spec = build_from_table("a_gpcn2", hier)
    levels = [
        GcnSpec(z=lvl.z, gcn_widths=(4, 3), dense_widths=(5, 1)) for lvl in spec.levels
    ]
    spec = dataclasses.replace(spec, levels=tuple(levels))
    params = init_model_params(spec, 3, seeded_rng(103))
    x = seeded_rng(104).normal(size=(30, 3))
    target = seeded_rng(105).normal(size=(30, 1))

    tape = Tape()
    bound = params.bind(tape, range(spec.n_levels))
    tape.backward(tape.mse(model_graph(tape, spec, bound, x), target))

    def loss():
        return float(np.mean((model_forward(spec, params, x) - target) ** 2))

    h = 1e-5
    checked_p_entries = 0
    for (name, arr), (_, node) in zip(params.all_arrays(), bound.all_arrays()):
        grad = node.grad if node.grad is not None else np.zeros_like(arr)
        fd = np.zeros_like(arr)
        for idx in range(arr.size):
            old = arr.flat[idx]
            arr.flat[idx] = old + h
            lp = loss()
            arr.flat[idx] = old - h
            lm = loss()
            arr.flat[idx] = old
            fd.flat[idx] = (lp - lm) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-6)
        assert np.abs(grad - fd).max() / scale < 1e-5, f"gradient mismatch in {name}"
        if "prolong" in name:
            checked_p_entries += arr.size
    assert checked_p_entries > 0

    # input gradients through the tape against the paper's rule (numpy
    # oracle) and finite differences: single network (a one-member plain
    # ensemble) and ensemble
    gspec = GcnSpec(z=hier.laplacians[0], gcn_widths=(4, 3), dense_widths=(5, 1))
    gparams = init_gcn_params(gspec, 3, seeded_rng(106))
    single, sparams = ModelSpec("plain_ensemble", [gspec]), ModelParams(levels=[gparams])
    ana = ensemble_input_gradient(single, sparams, x)
    rule = input_gradient_rule(gspec.z, gparams, x, np.ones((30, 1)))
    assert np.abs(ana - rule).max() < 1e-10
    fd = finite_difference(lambda v: float(model_forward(single, sparams, v).sum()), x)
    assert np.abs(ana - fd).max() / np.abs(fd).max() < 1e-5

    ens_ana = ensemble_input_gradient(spec, params, x)
    ens_rule = ensemble_input_gradient_reference(spec, params, x)
    assert np.abs(ens_ana - ens_rule).max() < 1e-10
    ens_fd = finite_difference(lambda v: float(model_forward(spec, params, v).sum()), x)
    assert np.abs(ens_ana - ens_fd).max() / np.abs(ens_fd).max() < 1e-5
    report(4, "gradient suite")


def test_criterion_5_simulator_physics():
    model = build_geometry(4, 5, 1)
    kb = np.full(len(model.bond_idx), 100.0)
    ka = np.full(len(model.angle_idx), 500.0)
    rng = seeded_rng(107)
    for _ in range(50):
        pos = model.positions + 0.05 * rng.normal(size=model.positions.shape)
        forces, per_particle, total = forces_and_energy(model, pos, kb, ka)
        fd = finite_difference(lambda p: forces_and_energy(model, p, kb, ka)[2], pos, h=1e-6)
        assert np.abs(forces + fd).max() / np.abs(fd).max() < 1e-6
        assert per_particle.sum() == pytest.approx(total, abs=1e-9 * max(total, 1.0))

    rest_model = build_geometry(12, 13, 3)
    _, _, rest_energy = forces_and_energy(
        rest_model,
        rest_model.positions,
        np.full(len(rest_model.bond_idx), 100.0),
        np.full(len(rest_model.angle_idx), 500.0),
    )
    assert abs(rest_energy) < 1e-8

    nve_model = build_geometry(6, 5, 1)
    kb2 = np.full(len(nve_model.bond_idx), 100.0)
    ka2 = np.full(len(nve_model.angle_idx), 500.0)
    config = SimConfig(
        langevin=False, max_force=0.0, dt=0.005, ramp_steps=10000, hold_steps=0, save_every=10000
    )
    state = initial_state(nve_model)
    state.positions += 0.05 * seeded_rng(108).normal(size=state.positions.shape)
    state.positions[nve_model.clamp_set()] = nve_model.positions[nve_model.clamp_set()]

    def total_energy():
        _, _, pe = forces_and_energy(nve_model, state.positions, kb2, ka2)
        return pe + 0.5 * nve_model.mass * np.sum(state.velocities**2)

    e0 = total_energy()
    drift = 0.0
    for i in range(10000):
        step(nve_model, state, config, _cache=(kb2, ka2))
        if (i + 1) % 1000 == 0:
            drift = max(drift, abs(total_energy() - e0))
    assert drift / abs(e0) < 1e-4

    deflections = []
    for s in (0.1, 1.0, 1.9):
        cfg = SimConfig(
            strengths={name: s for name in STRENGTH_PARAMS},
            ramp_steps=1000, hold_steps=1000, save_every=1000,
        )
        frames = run_simulation(rest_model, cfg, seed=109)
        deflections.append(tip_deflection(rest_model, frames[-1]))
    assert deflections[0] > deflections[1] > deflections[2]
    report(5, "simulator physics")


def dense_laplacian_spectrum(g):
    """Ascending eigenvalues of A - diag(A 1), built from ``g.edges`` alone."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = w
    return np.linalg.eigvalsh(a - np.diag(a.sum(axis=1)))


def spectral_oracle_distance(g_coarse, g_fine):
    """Diffusion distance at alpha = 1, independent of gpcn.gdd and gpcn.numcore.

    At fixed alpha the infimum over column-orthonormal P is the optimal
    rectangular assignment of coarse to fine eigenvalues under the cost
    (lam_coarse - lam_fine)**2 (see the README); this is its square root.
    """
    lam_c = dense_laplacian_spectrum(g_coarse)
    lam_f = dense_laplacian_spectrum(g_fine)
    cost = (lam_c[:, None] - lam_f[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


def test_criterion_6_graph_limit_ordering():
    start = time.time()
    rows = limit_curve(range(4, 11), k=13)
    by_key = {(n, family): dist for n, family, dist in rows}
    elapsed = time.time() - start
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.1f}s"
    assert len(by_key) == 14
    for n in range(4, 11):
        tube = by_key[(n, "tube")]
        grid = by_key[(n, "grid")]
        print(f"  n={n}: tube {tube:.4f}  grid {grid:.4f}")
    for n in range(4, 11):
        grid = make_grid(n, 13)
        # the oracle's spectrum route against the closed form for the grid
        a, b = np.meshgrid(np.arange(n), np.arange(13), indexing="ij")
        closed = -(4.0 - 2.0 * np.cos(np.pi * a / n) - 2.0 * np.cos(np.pi * b / 13))
        assert np.abs(np.sort(closed.ravel()) - dense_laplacian_spectrum(grid)).max() < 1e-9
        fine = make_tube(2 * n, 13, 3)
        for family, coarse in (("grid", grid), ("tube", make_tube(n, 13, 1))):
            expected = spectral_oracle_distance(coarse, fine)
            assert abs(by_key[(n, family)] - expected) < 1e-9, (
                f"{family} distance at n={n} is {by_key[(n, family)]!r}, "
                f"the spectral oracle gives {expected!r}"
            )
    for n in range(4, 11):
        gap = by_key[(n, "tube")] - by_key[(n, "grid")]
        assert gap > 5e-3, (
            f"grid family is not closer by more than 5e-3 at n={n}: "
            f"D_grid={by_key[(n, 'grid')]:.4f} vs D_tube={by_key[(n, 'tube')]:.4f}"
        )
    report(6, "graph-limit ordering")


@pytest.mark.slow
def test_criterion_7_desk_scale_learning_ordering(desk_dataset):
    start = time.time()
    _, data = desk_dataset
    assert data.x.shape[0] == 108  # 9 runs x 12 frames
    hier = desk_hierarchy()
    gspec = build_from_table("a_gpcn3", hier)
    sspec = build_from_table("single_gcn", hier)
    wins = 0
    for seed in range(5):
        record_a = train(gspec, data, ScheduleSpec(total_epochs=40), seed=seed)
        budget = record_a.total_flops
        per_epoch = 3 * 20 * model_forward_flops(sspec, data.x.shape[-1], batch=8)[0]
        epochs_single = int(np.ceil(budget / per_epoch))
        record_s = train(sspec, data, ScheduleSpec(total_epochs=epochs_single), seed=seed)
        shared = min(budget, record_s.total_flops)
        val_a = best_val_at_budget(record_a, shared)
        val_s = best_val_at_budget(record_s, shared)
        print(f"  seed {seed}: a_gpcn3 {val_a:.5f} vs single_gcn {val_s:.5f}")
        wins += val_a < val_s
    elapsed = time.time() - start
    assert elapsed < 1800.0, f"criterion 7 took {elapsed:.1f}s"
    assert wins >= 4, f"a_gpcn3 won only {wins} of 5 seeds"
    report(7, "desk-scale learning ordering")


def test_criterion_8_schedule_correctness():
    hier = make_hierarchy([make_tube(6, 5, 1), make_tube(3, 5, 1), make_tube(3, 2, 0)])
    data = synthetic_dataset()

    def shrink(name):
        spec = build_from_table(name, hier)
        levels = [
            GcnSpec(z=lvl.z, gcn_widths=(4, 4), dense_widths=(6, 1)) for lvl in spec.levels
        ]
        return dataclasses.replace(spec, levels=tuple(levels))

    rec2 = train(
        shrink("gpcn2"), data,
        ScheduleSpec(
            kind="gamma_cycle", gamma=1, smoothing_epochs=1,
            total_epochs=3, batches_per_epoch=2, batch_size=4,
        ),
        seed=110,
    )
    assert [label for _, label in rec2.epoch_log] == ["level0", "level1", "level0"]

    rec3 = train(
        shrink("gpcn3"), data,
        ScheduleSpec(
            kind="gamma_cycle", gamma=2, smoothing_epochs=1,
            total_epochs=10, batches_per_epoch=2, batch_size=4,
        ),
        seed=111,
    )
    expected = [f"level{l}" for l in [0, 1, 2, 2, 1, 1, 2, 2, 1, 0]]
    assert [label for _, label in rec3.epoch_log] == expected

    spec = shrink("gpcn3")
    trainer = Trainer(
        spec, data, ScheduleSpec(total_epochs=1, batches_per_epoch=3, batch_size=4), seed=112
    )
    frozen = {
        name: arr.copy()
        for owner in (0, 2)
        for name, arr in trainer.params.owned_arrays(owner)
    }
    trainer._train_epoch(update_levels={1})
    for owner in (0, 2):
        for name, arr in trainer.params.owned_arrays(owner):
            assert arr.tobytes() == frozen[name].tobytes()
    report(8, "schedule correctness")


def test_criterion_9_flops_ledger():
    desk = desk_hierarchy()
    # three specs, hand-evaluated layer costs
    single = build_from_table("single_gcn", desk)
    n, nnz = 156, single.levels[0].z.nnz
    assert nnz == 748
    hand_single = (
        n * 10 * (nnz + 64) + n * 64 * (nnz + 64) + n * 64 * (nnz + 64)
        + n * 192 * 256 + n * 256 * 32 + n * 32 * 8 + n * 8 * 1
    )
    assert model_forward_flops(single, 10)[0] == hand_single

    gpcn2 = build_from_table("gpcn2", desk)
    n1, nnz1 = 78, gpcn2.levels[1].z.nnz
    hand_gpcn2 = (
        # fine member, widths 32
        n * 10 * (nnz + 32) + n * 32 * (nnz + 32) + n * 32 * (nnz + 32)
        + n * 96 * 256 + n * 256 * 32 + n * 32 * 8 + n * 8 * 1
        # coarse member, widths 64
        + n1 * 10 * (nnz1 + 64) + n1 * 64 * (nnz1 + 64) + n1 * 64 * (nnz1 + 64)
        + n1 * 192 * 256 + n1 * 256 * 32 + n1 * 32 * 8 + n1 * 8 * 1
        # restriction and lift
        + n1 * 10 * n + n * 1 * n1
    )
    assert model_forward_flops(gpcn2, 10)[0] == hand_gpcn2

    ngcn3 = build_from_table("ngcn3", desk)
    hand_ngcn = 0
    for lvl in ngcn3.levels:
        hand_ngcn += n * 10 * (lvl.z.nnz + 64) + 2 * (n * 64 * (lvl.z.nnz + 64))
        hand_ngcn += n * 192 * 256 + n * 256 * 32 + n * 32 * 8 + n * 8 * 1
    assert model_forward_flops(ngcn3, 10)[0] == hand_ngcn

    assert flops_gcn_layer(624, 10, 64, 3088) == 6240 * 3152
    assert flops_dense(1, 1, 1) == 1

    # ledger additivity over an actual run
    data = synthetic_dataset(n_frames=20, n_nodes=156, n_features=10, seed=113)
    sched = ScheduleSpec(total_epochs=2, batches_per_epoch=3, batch_size=4)
    record = train(single, data, sched, seed=114)
    per_batch = model_forward_flops(single, 10, batch=4)[0]
    assert record.total_flops == 2 * 3 * 3 * per_batch
    flops_series = [p.flops for p in record.points]
    assert flops_series == [0, 9 * per_batch, 18 * per_batch]
    report(9, "flops ledger")


def test_criterion_10_determinism(tmp_path):
    config = {
        "tube": {"n_rings": 4, "k": 13, "offset": 3},
        "sim": {"ramp_steps": 200, "hold_steps": 200, "save_every": 100},
        "grid": {"LatAssoc": [0.5, 1.5]},
        "seed": 42,
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(config))

    def grab(root):
        return {
            name: (root / name).read_bytes() for name in sorted(os.listdir(root))
        }

    gen_a, gen_b = tmp_path / "gen_a", tmp_path / "gen_b"
    for out in (gen_a, gen_b):
        assert cli_main(
            ["generate", "--config", str(cfg_path), "--out", str(out), "--format", "bin"]
        ) == 0
    gen_bytes_a, gen_bytes_b = grab(gen_a), grab(gen_b)
    assert gen_bytes_a.keys() == gen_bytes_b.keys()
    # manifests echo the identical config; frame tensors must match bitwise
    assert gen_bytes_a == gen_bytes_b

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(
        json.dumps(
            {
                "dataset": str(gen_a),
                "model": "gpcn2",
                "hierarchy": [
                    {"n_rings": 4, "k": 13, "offset": 3},
                    {"n_rings": 2, "k": 13, "offset": 1},
                ],
                "schedule": {"total_epochs": 2, "batches_per_epoch": 2, "batch_size": 3},
                "seed": 7,
            }
        )
    )
    train_a, train_b = tmp_path / "train_a", tmp_path / "train_b"
    for out in (train_a, train_b):
        assert cli_main(["train", "--config", str(train_cfg), "--out", str(out)]) == 0
    assert grab(train_a) == grab(train_b)
    report(10, "determinism")
