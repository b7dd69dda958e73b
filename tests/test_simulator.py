import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpcn.simulator as simulator
from gpcn.graphs import make_tube
from gpcn.numcore import seeded_rng
from gpcn.simulator import (
    MASS_DALTON,
    REST_ANGLES_DEG,
    REST_LENGTHS,
    STRENGTH_PARAMS,
    SimConfig,
    SimulationDiverged,
    build_geometry,
    forces_and_energy,
    full_strength_grid,
    generate_dataset,
    initial_state,
    load_dataset,
    run_simulation,
    save_dataset,
    step,
    tip_deflection,
)

from tests.oracles import (
    angle_energy,
    angle_kinds_reference,
    bond_energy,
    forces_and_energy_reference,
    simulate_reference,
)
from tests.test_autodiff import finite_difference


def uniform_stiffness(model, kb=100.0, ka=500.0):
    return np.full(len(model.bond_idx), kb), np.full(len(model.angle_idx), ka)


class TestGeometry:
    def test_default_build_counts(self):
        m = build_geometry()
        assert m.n == 624
        kinds = np.array(m.bond_kind)
        assert (kinds == "longitudinal").sum() == 13 * 47
        assert (kinds == "lat_lattice").sum() == 48 * 12
        assert (kinds == "lat_seam").sum() == 45

    def test_rest_values_match_published_table(self):
        m = build_geometry(12, 13, 3)
        for kind, rest in zip(m.bond_kind, m.bond_rest):
            assert abs(rest - REST_LENGTHS[kind]) < 1e-3
        for kind, rest in zip(m.angle_kind, np.degrees(m.angle_rest)):
            assert abs(rest - REST_ANGLES_DEG[kind]) < 1e-3

    def test_rest_energy_is_zero(self):
        m = build_geometry(12, 13, 3)
        _, _, total = forces_and_energy(m, m.positions, *uniform_stiffness(m))
        assert abs(total) < 1e-8

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            build_geometry(4, 13, 4)

    def test_interaction_patterns_cover_interior_nodes(self):
        m = build_geometry(5, 13, 3)
        # an interior node joins 1 pitch + 1 straight + 4 lattice-cell angles
        interior = 2 * 13 + 5  # ring 2, column 5
        counts = {}
        for (a, v, c), kind in zip(m.angle_idx, m.angle_kind):
            if v == interior:
                counts[kind] = counts.get(kind, 0) + 1
        assert counts == {"lat_angle": 1, "long_angle": 1, "quad_acute": 2, "quad_obtuse": 2}


@st.composite
def tube_shapes(draw):
    """(n_rings, k, offset) of a small tube that builds: the helical rise
    must stay below the lateral rest length, so the offset is at most k."""
    n_rings, k = draw(st.integers(2, 8)), draw(st.integers(3, 13))
    return n_rings, k, draw(st.integers(0, min(n_rings - 1, k)))


def assert_arms_are_signed_bonds(m):
    """Each angle arm (vertex -> i, vertex -> k) maps to a bond joining the
    same two particles, flipped exactly when the bond runs end -> vertex, so
    its signed bond vector (0 - d when flipped) is the arm's vector bit for bit."""
    m_b = len(m.bond_idx)
    assert m.angle_arms.shape == (len(m.angle_idx), 2)
    assert ((0 <= m.angle_arms) & (m.angle_arms < 2 * m_b)).all()
    tail, head = np.moveaxis(m.bond_idx[m.angle_arms % m_b], -1, 0)
    flipped = m.angle_arms >= m_b
    vertex, end = m.angle_idx[:, [1, 1]], m.angle_idx[:, [0, 2]]
    assert np.array_equal(np.where(flipped, head, tail), vertex)
    assert np.array_equal(np.where(flipped, tail, head), end)
    d = m.positions[head] - m.positions[tail]
    arm = m.positions[end] - m.positions[vertex]
    assert np.where(flipped[..., None], 0.0 - d, d).tobytes() == arm.tobytes()


@pytest.mark.parametrize("shape", [(12, 13, 3), (48, 13, 3), (5, 7, 0), (8, 9, 4)])
def test_angle_arms_are_signed_bonds(shape):
    assert_arms_are_signed_bonds(build_geometry(*shape))


@settings(max_examples=30)
@given(tube_shapes())
def test_angle_arms_are_signed_bonds_on_any_tube(shape):
    assert_arms_are_signed_bonds(build_geometry(*shape))


# The interaction order fixes the summation order of every force, and so
# the bits of every dataset: Tube(3,4,1) has 19 bonds and 44 angles.
BONDS_3_4_1 = [
    [0, 4], [0, 1], [1, 5], [1, 2], [2, 6], [2, 3], [3, 7], [3, 4], [4, 8], [4, 5], [5, 9], [5, 6],
    [6, 10], [6, 7], [7, 11], [7, 8], [8, 9], [9, 10], [10, 11],
]
BOND_KINDS_3_4_1 = [
    "longitudinal", "lat_lattice", "longitudinal", "lat_lattice", "longitudinal", "lat_lattice",
    "longitudinal", "lat_seam", "longitudinal", "lat_lattice", "longitudinal", "lat_lattice",
    "longitudinal", "lat_lattice", "longitudinal", "lat_seam", "lat_lattice", "lat_lattice",
    "lat_lattice",
]
ANGLES_3_4_1 = [
    [1, 0, 4], [0, 1, 2], [0, 1, 5], [2, 1, 5], [1, 2, 3], [1, 2, 6], [3, 2, 6], [2, 3, 4], [2, 3, 7],
    [4, 3, 7], [3, 4, 5], [0, 4, 8], [3, 4, 0], [3, 4, 8], [5, 4, 0], [5, 4, 8], [4, 5, 6], [1, 5, 9],
    [4, 5, 1], [4, 5, 9], [6, 5, 1], [6, 5, 9], [5, 6, 7], [2, 6, 10], [5, 6, 2], [5, 6, 10],
    [7, 6, 2], [7, 6, 10], [6, 7, 8], [3, 7, 11], [6, 7, 3], [6, 7, 11], [8, 7, 3], [8, 7, 11],
    [7, 8, 9], [7, 8, 4], [9, 8, 4], [8, 9, 10], [8, 9, 5], [10, 9, 5], [9, 10, 11], [9, 10, 6],
    [11, 10, 6], [10, 11, 7],
]
ARMS_3_4_1 = [
    [1, 0], [20, 3], [20, 2], [3, 2], [22, 5], [22, 4], [5, 4], [24, 7], [24, 6], [7, 6], [26, 9],
    [19, 8], [26, 19], [26, 8], [9, 19], [9, 8], [28, 11], [21, 10], [28, 21], [28, 10], [11, 21],
    [11, 10], [30, 13], [23, 12], [30, 23], [30, 12], [13, 23], [13, 12], [32, 15], [25, 14],
    [32, 25], [32, 14], [15, 25], [15, 14], [34, 16], [34, 27], [16, 27], [35, 17], [35, 29],
    [17, 29], [36, 18], [36, 31], [18, 31], [37, 33],
]


def test_interaction_order_is_pinned():
    m = build_geometry(3, 4, 1)
    assert m.bond_idx.tolist() == BONDS_3_4_1 and m.bond_kind == BOND_KINDS_3_4_1
    assert m.angle_idx.tolist() == ANGLES_3_4_1 and m.angle_arms.tolist() == ARMS_3_4_1
    assert {m.bond_idx.dtype, m.angle_idx.dtype, m.angle_arms.dtype} == {np.dtype(np.int64)}


def assert_lattice_is_the_tube_graph(m):
    """Each bond joins the two ends of one edge of the same-shaped
    make_tube, once, so the dataset's particles and the GCN's Laplacian
    describe one graph."""
    pairs = np.sort(m.bond_idx, axis=1).tolist()
    edges = {(min(u, v), max(u, v)) for u, v, _ in make_tube(m.n_rings, m.k, m.offset).edges}
    assert len(pairs) == len(edges) and set(map(tuple, pairs)) == edges


@pytest.mark.parametrize("shape", [(12, 13, 3), (48, 13, 3)])
def test_lattice_is_the_tube_graph(shape):
    assert_lattice_is_the_tube_graph(build_geometry(*shape))


def test_lattice_is_the_tube_graph_on_every_small_shape():
    built = 0
    for n_rings in range(2, 8):
        for k in range(3, 14):
            for offset in range(n_rings):
                try:
                    m = build_geometry(n_rings, k, offset)
                except ValueError:  # the helical rise outgrows the lateral rest length
                    continue
                assert_lattice_is_the_tube_graph(m)
                built += 1
    assert built > 250


@settings(max_examples=40)
@given(tube_shapes())
def test_angle_kinds_match_per_angle_classification(shape):
    m = build_geometry(*shape)
    assert m.angle_kind == angle_kinds_reference(m)


@settings(max_examples=40)
@given(tube_shapes(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stacked_forces_match_add_at_reference_bitwise(shape, runs, seed):
    m = build_geometry(*shape)
    rng = seeded_rng(seed)
    scale = rng.uniform(0.01, 0.5)
    pos = m.positions + scale * rng.normal(size=(runs, *m.positions.shape))
    kb = rng.uniform(10.0, 200.0, size=(runs, len(m.bond_idx)))
    ka = rng.uniform(100.0, 900.0, size=(runs, len(m.angle_idx)))
    if rng.integers(2):  # a wider batch first, so the call below reads a sliced table
        wide = runs + 1 + int(rng.integers(3))
        forces_and_energy(m, np.resize(pos, (wide, *m.positions.shape)),
                          np.resize(kb, (wide, kb.shape[1])), np.resize(ka, (wide, ka.shape[1])))
    forces, per_particle, total = forces_and_energy(m, pos, kb, ka)
    for r in range(runs):
        ref = forces_and_energy_reference(m, pos[r], kb[r], ka[r])
        assert forces[r].tobytes() == ref[0].tobytes()
        assert per_particle[r].tobytes() == ref[1].tobytes()
        assert total[r] == ref[2]
    only, none, no_total = forces_and_energy(m, pos, kb, ka, energy=False)
    assert only.tobytes() == forces.tobytes() and none is None and no_total is None


class TestEnergies:
    def test_bond_at_rest(self):
        assert bond_energy(1.0, 5.0, 5.0) == 0.0

    def test_bond_unit_stretch(self):
        assert bond_energy(1.0, 6.0, 5.0) == 1.0

    def test_angle_formula(self):
        assert angle_energy(2.0, np.pi, np.pi / 2) == pytest.approx(2.0 * (np.pi / 2) ** 2)

    def test_total_is_the_sum_of_term_energies(self):
        m = build_geometry(4, 5, 1)
        rng = seeded_rng(3)
        kb = rng.uniform(50.0, 150.0, size=len(m.bond_idx))
        ka = rng.uniform(300.0, 700.0, size=len(m.angle_idx))
        pos = m.positions + 0.05 * rng.normal(size=m.positions.shape)
        expected = 0.0
        for (i, j), k, rest in zip(m.bond_idx, kb, m.bond_rest):
            expected += bond_energy(k, np.linalg.norm(pos[j] - pos[i]), rest)
        for (a, v, c), k, rest in zip(m.angle_idx, ka, m.angle_rest):
            u, w = pos[a] - pos[v], pos[c] - pos[v]
            cos = u @ w / (np.linalg.norm(u) * np.linalg.norm(w))
            expected += angle_energy(k, np.arccos(np.clip(cos, -1.0, 1.0)), rest)
        _, _, total = forces_and_energy(m, pos, kb, ka)
        assert abs(total - expected) <= 1e-9 * expected

    def test_forces_match_finite_differences(self):
        m = build_geometry(4, 5, 1)
        kb, ka = uniform_stiffness(m)
        rng = seeded_rng(0)
        worst = 0.0
        for _ in range(5):
            pos = m.positions + 0.05 * rng.normal(size=m.positions.shape)
            forces, _, _ = forces_and_energy(m, pos, kb, ka)
            fd = finite_difference(lambda p: forces_and_energy(m, p, kb, ka)[2], pos, h=1e-6)
            worst = max(worst, np.abs(forces + fd).max() / np.abs(fd).max())
        assert worst < 1e-6

    def test_attribution_sums_to_total(self):
        m = build_geometry(6, 13, 3)
        rng = seeded_rng(1)
        pos = m.positions + 0.1 * rng.normal(size=m.positions.shape)
        _, per_particle, total = forces_and_energy(m, pos, *uniform_stiffness(m))
        assert abs(per_particle.sum() - total) < 1e-9 * max(total, 1.0)

    def test_single_call_matches_add_at_reference_bitwise(self):
        m = build_geometry(6, 13, 3)
        rng = seeded_rng(15)
        kb = rng.uniform(50.0, 150.0, size=len(m.bond_idx))
        ka = rng.uniform(300.0, 700.0, size=len(m.angle_idx))
        pos = m.positions + 0.1 * rng.normal(size=m.positions.shape)
        forces, per_particle, total = forces_and_energy(m, pos, kb, ka)
        ref = forces_and_energy_reference(m, pos, kb, ka)
        assert forces.tobytes() == ref[0].tobytes()
        assert per_particle.tobytes() == ref[1].tobytes()
        assert isinstance(total, float) and total == ref[2]

    def test_stacked_runs_match_single_calls_bitwise(self):
        m = build_geometry(6, 13, 3)
        rng = seeded_rng(16)
        runs = 4
        kb = rng.uniform(50.0, 150.0, size=(runs, len(m.bond_idx)))
        ka = rng.uniform(300.0, 700.0, size=(runs, len(m.angle_idx)))
        pos = m.positions + 0.1 * rng.normal(size=(runs, *m.positions.shape))
        # a wider batch first, so the narrower call reads a sliced table
        forces_and_energy(m, np.concatenate([pos, pos]), np.concatenate([kb, kb]), np.concatenate([ka, ka]))
        forces, per_particle, total = forces_and_energy(m, pos, kb, ka)
        assert forces.shape == pos.shape and per_particle.shape == (runs, m.n) and total.shape == (runs,)
        for r in range(runs):
            f1, e1, t1 = forces_and_energy(m, pos[r], kb[r], ka[r])
            assert forces[r].tobytes() == f1.tobytes()
            assert per_particle[r].tobytes() == e1.tobytes()
            assert total[r] == t1
        only, none, _ = forces_and_energy(m, pos, kb, ka, energy=False)
        assert only.tobytes() == forces.tobytes() and none is None

    def test_changing_batch_sizes_match_add_at_reference_bitwise(self):
        m = build_geometry(6, 13, 3)
        rng = seeded_rng(19)
        for runs in (3, 9, 3, 1):
            kb = rng.uniform(50.0, 150.0, size=(runs, len(m.bond_idx)))
            ka = rng.uniform(300.0, 700.0, size=(runs, len(m.angle_idx)))
            pos = m.positions + 0.1 * rng.normal(size=(runs, *m.positions.shape))
            forces, per_particle, total = forces_and_energy(m, pos, kb, ka)
            for r in range(runs):
                ref = forces_and_energy_reference(m, pos[r], kb[r], ka[r])
                assert forces[r].tobytes() == ref[0].tobytes()
                assert per_particle[r].tobytes() == ref[1].tobytes()
                assert total[r] == ref[2]

    def test_collinear_angle_has_finite_fallback(self):
        m = build_geometry(4, 13, 3)
        forces, _, _ = forces_and_energy(m, m.positions, *uniform_stiffness(m))
        assert np.isfinite(forces).all()
        assert np.abs(forces).max() < 1e-9  # rest geometry, straight angles included


class TestIntegration:
    def test_rest_state_is_stationary(self):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(max_force=0.0, temperature=0.0, ramp_steps=10, hold_steps=0, save_every=10)
        state = initial_state(m)
        for _ in range(10):
            step(m, state, cfg, seeded_rng(0))
        assert np.array_equal(state.positions, m.positions)
        assert np.abs(state.velocities).max() == 0.0

    def test_nve_energy_drift(self):
        m = build_geometry(6, 5, 1)
        cfg = SimConfig(langevin=False, max_force=0.0, dt=0.005, ramp_steps=10000, hold_steps=0, save_every=10000)
        kb, ka = uniform_stiffness(m)
        state = initial_state(m)
        state.positions += 0.05 * seeded_rng(2).normal(size=state.positions.shape)
        state.positions[m.clamp_set()] = m.positions[m.clamp_set()]

        def total_energy():
            _, _, pe = forces_and_energy(m, state.positions, kb, ka)
            return pe + 0.5 * MASS_DALTON * np.sum(state.velocities**2)

        e0 = total_energy()
        worst = 0.0
        for i in range(10000):
            step(m, state, cfg, _cache=(kb, ka))
            if (i + 1) % 1000 == 0:
                worst = max(worst, abs(total_energy() - e0))
        assert worst / abs(e0) < 1e-4

    def test_clamped_nodes_never_move(self):
        m = build_geometry(6, 13, 3)
        frames = run_simulation(m, SimConfig(ramp_steps=200, hold_steps=200, save_every=100), seed=3)
        clamp = m.clamp_set()
        for frame in frames:
            assert np.array_equal(frame.x[clamp, :3], m.positions[clamp])

    def test_one_force_evaluation_per_step(self, monkeypatch):
        calls = []
        original = simulator.forces_and_energy

        def counted(*args, **kwargs):
            calls.append(kwargs.get("energy", True))
            return original(*args, **kwargs)

        monkeypatch.setattr(simulator, "forces_and_energy", counted)
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(ramp_steps=40, hold_steps=20, save_every=10)
        assert len(run_simulation(m, cfg, seed=17)) == 6
        # the first step evaluates the start configuration too; energy only at frames
        assert len(calls) == cfg.total_steps + 1
        assert sum(calls) == 6

    def test_divergence_guard_raises(self):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(strengths={"LatAssoc": 1e6}, ramp_steps=200, hold_steps=0, save_every=200)
        with pytest.raises(SimulationDiverged):
            run_simulation(m, cfg, seed=4)


class TestRunSimulation:
    def test_frame_count_at_default_settings(self):
        m = build_geometry(6, 13, 3)
        cfg = SimConfig()
        assert cfg.total_steps // cfg.save_every == 12
        frames = run_simulation(m, SimConfig(ramp_steps=400, hold_steps=200, save_every=50), seed=5)
        assert len(frames) == 12

    def test_production_protocol_also_saves_twelve(self):
        cfg = SimConfig(ramp_steps=128000, hold_steps=256000, save_every=32000, dt=0.5)
        assert cfg.total_steps // cfg.save_every == 12

    def test_energy_attribution_in_frames(self):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(ramp_steps=200, hold_steps=200, save_every=100)
        frames = run_simulation(m, cfg, seed=6)
        kb, ka = m.strength_vectors(cfg.strengths)
        kb, ka = kb * cfg.bond_k_base, ka * cfg.angle_k_base
        for frame in frames:
            _, _, total = forces_and_energy(m, frame.x[:, :3], kb, ka)
            assert abs(frame.y.sum() - total) < 1e-9 * max(total, 1.0)

    def test_deterministic_frames(self):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(ramp_steps=300, hold_steps=300, save_every=100)
        a = run_simulation(m, cfg, seed=7)
        b = run_simulation(m, cfg, seed=7)
        assert all(x.x.tobytes() == y.x.tobytes() and x.y.tobytes() == y.y.tobytes() for x, y in zip(a, b))

    def test_stiffer_deflects_less(self, desk_dataset):
        model, _ = desk_dataset
        deflections = []
        for s in (0.1, 1.0, 1.9):
            cfg = SimConfig(
                strengths={name: s for name in STRENGTH_PARAMS},
                ramp_steps=1000, hold_steps=1000, save_every=500,
            )
            frames = run_simulation(model, cfg, seed=8)
            deflections.append(tip_deflection(model, frames[-1]))
        assert deflections[0] > deflections[1] > deflections[2]

    def test_feature_columns(self):
        m = build_geometry(4, 13, 3)
        cfg10 = SimConfig(ramp_steps=100, hold_steps=0, save_every=100)
        cfg11 = SimConfig(ramp_steps=100, hold_steps=0, save_every=100, feature_columns=11)
        f10 = run_simulation(m, cfg10, seed=9)[0]
        f11 = run_simulation(m, cfg11, seed=9)[0]
        assert f10.x.shape == (m.n, 10)
        assert f11.x.shape == (m.n, 11)
        assert cfg10.feature_names()[6:] == ["LatAssoc", "LongAssoc", "LongAngle", "QuadAngles"]
        assert cfg11.feature_names()[6:] == list(STRENGTH_PARAMS)


class TestSimConfig:
    @pytest.mark.parametrize(
        "settings",
        [
            {"ramp_steps": 500.0},
            {"ramp_steps": 1999, "hold_steps": True},
            {"save_every": "500"},
            {"dt": 0.0},
            {"dt": float("nan")},
            {"max_force": float("inf")},
            {"bond_k_base": -1.0},
            {"angle_k_base": float("nan")},
            {"damping": 0.0},
            {"damping": -5.0},
            {"damping": float("inf")},
            {"temperature": -1.0},
            {"temperature": float("nan")},
            {"feature_columns": 10.0},
            {"langevin": "no"},
            {"dt": "x"},
            {"strengths": {"LatAssoc": "x"}},
            {"temperature": True},
        ],
        ids=repr,
    )
    def test_rejects_invalid_settings(self, settings):
        with pytest.raises(ValueError):
            SimConfig(**settings)

    def test_accepts_zero_temperature_and_load(self):
        cfg = SimConfig(temperature=0.0, max_force=0.0, damping=2.0)
        assert cfg.resolved_temperature() == 0.0 and cfg.resolved_damping() == 2.0


class TestGenerateDataset:
    def test_desk_grid_cardinality(self, desk_dataset):
        _, data = desk_dataset
        assert data.x.shape == (9 * 12, 156, 10)
        assert data.y.shape == (9 * 12, 156, 1)
        assert len(data.manifest["runs"]) == 9
        assert all(r["status"] == "ok" for r in data.manifest["runs"])

    def test_production_grid_cardinality(self):
        grid = full_strength_grid()
        combos = 1
        for values in grid.values():
            combos *= len(values)
        assert combos == 7**5

    def test_coefficients_recorded_per_run(self, desk_dataset):
        _, data = desk_dataset
        lat = data.x[:, 0, 6]  # LatAssoc column, constant per frame
        per_run = np.round(lat[::12], 6).tolist()
        assert per_run == [0.1, 0.1, 0.1, 1.0, 1.0, 1.0, 1.9, 1.9, 1.9]
        long = np.round(data.x[::12, 0, 7], 6).tolist()
        assert long == [0.1, 1.0, 1.9] * 3

    def test_failed_runs_recorded_and_excluded(self):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(ramp_steps=200, hold_steps=200, save_every=100)
        data = generate_dataset(m, {"LatAssoc": [1.0, 1e6]}, cfg, seed=10)
        statuses = [r["status"] for r in data.manifest["runs"]]
        assert statuses == ["ok", "diverged"]
        assert data.x.shape[0] == 4  # frames from the surviving run only

    def test_matches_per_run_reference_bitwise(self):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(ramp_steps=200, hold_steps=200, save_every=100)
        grid = {"LatAssoc": [0.5, 1.0, 1e6]}
        data = generate_dataset(m, grid, cfg, seed=18)
        x, y, runs = simulate_reference(m, grid, cfg, seed=18)
        assert [r["status"] for r in runs] == ["ok", "ok", "diverged"]
        assert data.x.tobytes() == x.tobytes() and data.y.tobytes() == y.tobytes()
        assert data.manifest["runs"] == runs

    def test_rejects_unknown_parameter(self):
        m = build_geometry(4, 13, 3)
        with pytest.raises(ValueError):
            generate_dataset(m, {"Bogus": [1.0]}, SimConfig(), seed=0)

    def test_rejects_a_parameter_without_values(self):
        m = build_geometry(4, 13, 3)
        with pytest.raises(ValueError, match="at least one value"):
            generate_dataset(m, {"LatAssoc": [1.0], "LongAssoc": []}, SimConfig(), seed=0)

    def test_determinism(self):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(ramp_steps=100, hold_steps=100, save_every=100)
        a = generate_dataset(m, {"LatAssoc": [0.5, 1.5]}, cfg, seed=12)
        b = generate_dataset(m, {"LatAssoc": [0.5, 1.5]}, cfg, seed=12)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


class TestDatasetIO:
    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_round_trip(self, tmp_path, fmt):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(ramp_steps=100, hold_steps=100, save_every=100)
        data = generate_dataset(m, {"LongAssoc": [0.5, 1.5]}, cfg, seed=13)
        out = tmp_path / fmt
        save_dataset(data, out, fmt=fmt)
        back = load_dataset(out)
        assert np.abs(back.x - data.x).max() < 1e-12
        assert np.abs(back.y - data.y).max() < 1e-12
        assert back.column_names == data.column_names
        assert back.manifest["grid"] == {"LongAssoc": [0.5, 1.5]}

    def test_bin_files_byte_identical_across_writes(self, tmp_path):
        m = build_geometry(4, 13, 3)
        cfg = SimConfig(ramp_steps=100, hold_steps=0, save_every=100)
        data = generate_dataset(m, {"LatAssoc": [1.0]}, cfg, seed=14)
        save_dataset(data, tmp_path / "a", fmt="bin")
        save_dataset(data, tmp_path / "b", fmt="bin")
        assert (tmp_path / "a" / "frames.bin").read_bytes() == (tmp_path / "b" / "frames.bin").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()
