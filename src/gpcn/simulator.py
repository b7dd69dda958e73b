"""Coarse-grained mass-spring simulator for a microtubule under bending load.

Monomers are point masses of ``MASS_DALTON`` on the helical lattice of
:func:`gpcn.graphs.tube_neighbors`, the one ``make_tube`` builds its edges
from, so particles and graph nodes share ring-major ids. Harmonic bonds
cover lateral, seam, and longitudinal associations; harmonic angles cover
the lateral pitch angle, the straight longitudinal angle, and the
acute/obtuse lattice-cell angles.
Each interaction kind is scaled by one of five named strength parameters,
the quantities a generated dataset varies and records.

Units are nm / ns / Dalton, so force is Da*nm/ns^2 and energy Da*nm^2/ns^2.
Rest lengths and angles are measured from the constructed geometry itself
(grouped by interaction kind), so the resting configuration has exactly zero
potential energy; construction fails if those measurements drift from the
canonical values they are expected to reproduce.

Positions and forces are (n, 3), or (R, n, 3) for R stacked runs. The force
evaluation works component-major: it copies the positions once into a
contiguous (3, R, n) array and computes every bond and angle quantity as
(3, R, m) or (R, m) rows, so numpy runs each elementwise op over whole rows
instead of thousands of 3-element loops. Sums over components keep the
(x0 + x1) + x2 order, so results are bitwise those of the (n, 3) formulas.
Every angle arm is a bond, so the angle pass gathers its unit arm vectors
and lengths from the bond pass through a signed arm table, read from the
lattice's neighbour slots when the geometry is built. The force terms fill
five contiguous (3, R, m) blocks, and one 0/1 CSR matrix per batch size,
cached on the model, sums them per particle in a fixed order, so stacked
runs match single runs bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graphs import ABOVE, BELOW, PRED, SUCC, tube_neighbors
from .numcore import NumericalError, seeded_rng
from .serialize import check_fields, check_value, dump_json, load_arrays, save_arrays, write_csv

__all__ = [
    "STRENGTH_PARAMS", "REST_LENGTHS", "REST_ANGLES_DEG", "MtModel", "SimConfig", "SimState",
    "Frame", "Dataset", "SimulationDiverged", "build_geometry", "forces_and_energy",
    "initial_state", "step", "run_simulation", "tip_deflection", "generate_dataset",
    "full_strength_grid", "desk_strength_grid", "save_dataset", "load_dataset",
]

STRENGTH_PARAMS = ("LatAssoc", "LongAssoc", "LatAngle", "LongAngle", "QuadAngles")

REST_LENGTHS = {"lat_lattice": 5.15639, "lat_seam": 5.15639, "longitudinal": 5.0}
REST_ANGLES_DEG = {
    "lat_angle": 153.023,
    "long_angle": 180.0,
    "quad_acute": 77.0694,
    "quad_obtuse": 102.931,
}

_BOND_STRENGTH = {"lat_lattice": "LatAssoc", "lat_seam": "LatAssoc", "longitudinal": "LongAssoc"}
_ANGLE_STRENGTH = {
    "lat_angle": "LatAngle",
    "long_angle": "LongAngle",
    "quad_acute": "QuadAngles",
    "quad_obtuse": "QuadAngles",
}

MASS_DALTON = 50.0  # of every particle

# largest rest-value error (nm or degrees) build_geometry accepts
_REST_TOL = 1e-2
# a run diverges once a coordinate exceeds this multiple of the lattice extent
_GUARD_FACTOR = 20.0
_MAX_BATCH = 64  # runs integrated as one stacked system; bounds memory on 7^5-run grids


class SimulationDiverged(NumericalError):
    """A particle left the guard volume; the run is unusable. ``runs`` maps
    the index of each diverged run in the stepped state to its message."""

    def __init__(self, runs: dict):
        super().__init__("; ".join(runs.values()))
        self.runs = runs


def _check_strengths(strengths: dict) -> dict:
    """``strengths`` if it maps strength parameter names to positive numbers."""
    for name, value in strengths.items():
        if name not in STRENGTH_PARAMS:
            raise ValueError(f"unknown strength parameter {name!r}")
        if not check_value("float", value, f"strength {name}") > 0:
            raise ValueError(f"strength {name} must be positive, got {value}")
    return strengths


@dataclass
class MtModel:
    """Static description of the lattice: geometry plus interaction tables."""

    n_rings: int
    k: int
    offset: int
    positions: np.ndarray  # (n, 3) resting geometry, nm
    bond_idx: np.ndarray  # (m_b, 2)
    bond_kind: list  # kind name per bond
    bond_rest: np.ndarray  # (m_b,) nm, measured from the resting geometry
    angle_idx: np.ndarray  # (m_a, 3) with the vertex in the middle
    angle_kind: list
    angle_rest: np.ndarray  # (m_a,) radians, measured
    angle_arms: np.ndarray  # (m_a, 2) signed bond of each arm (see _angle_geometry)
    # (runs, force matrix, energy matrix) of the latest batch (see _scatter_matrices)
    _scatter: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def guard(self) -> float:
        """Largest |coordinate| a run may reach before it counts as diverged."""
        return _GUARD_FACTOR * max(1.0, np.abs(self.positions).max())

    def clamp_set(self) -> np.ndarray:
        """First two rings (the held end)."""
        return np.arange(2 * self.k)

    def forced_set(self) -> np.ndarray:
        """Last two rings (the loaded end)."""
        return np.arange(self.n - 2 * self.k, self.n)

    def strength_vectors(self, strengths: dict):
        """Effective per-interaction stiffness for one parameter setting."""
        full = {**dict.fromkeys(STRENGTH_PARAMS, 1.0), **_check_strengths(strengths)}
        kb = np.array([full[_BOND_STRENGTH[kind]] for kind in self.bond_kind])
        ka = np.array([full[_ANGLE_STRENGTH[kind]] for kind in self.angle_kind])
        return kb, ka


def _dot(a, b):
    """Dot product over the leading axis of length 3 of component-major
    arrays (3, ...), summed in the order ``np.sum`` and ``np.linalg.norm``
    use: (x0 + x1) + x2."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _angle_geometry(d, r, arms):
    """Vectorized angle quantities from the bond pass: component-major bond
    vectors ``d`` (3, ..., m_b) with lengths ``r`` (..., m_b), and the signed
    arm table ``arms`` (m_a, 2) of the arms vertex -> i and vertex -> k: b
    where bond b runs vertex -> end (d = x[end] - x[vertex]), b + m_b where
    it runs end -> vertex. Each arm is a unit bond vector d / r or
    0 - d / r, and its length that bond's r. x[v] - x[i] is 0 - (x[i] - x[v])
    exactly (equal coordinates give +0 both ways, where a negation would give
    -0), and both have the same norm, so the arms are bitwise those taken
    from positions.
    The unit arm vectors come back as (3, ..., m_a), the rest as (..., m_a).
    Used by both geometry construction and the force loop, so the rest
    values measured at build time are bitwise reproducible during
    integration."""
    m_b = r.shape[-1]
    e = np.empty(d.shape[:-1] + (2 * m_b,))
    np.divide(d, r, out=e[..., :m_b])
    np.subtract(0.0, e[..., :m_b], out=e[..., m_b:])
    uh, vh = (np.take(e, col, axis=-1) for col in arms.T)
    lu, lv = (np.take(r, col, axis=-1, mode="wrap") for col in arms.T)  # b + m_b wraps to b
    cos = np.clip(_dot(uh, vh), -1.0, 1.0)
    theta = np.arccos(cos)
    return theta, cos, uh, vh, lu, lv


# neighbour slots of each node's bonds: longitudinal to the ring above,
# then lateral to the helical successor (a seam bond from the last column)
_BOND_SLOTS = np.array([ABOVE, SUCC])
# (arm i, arm k) neighbour slots of the angles at each vertex, in build
# order: the pitch angle, the straight angle, then the lattice-cell angles
_ANGLE_SLOTS = np.array(
    [(PRED, SUCC), (BELOW, ABOVE), (PRED, BELOW), (PRED, ABOVE), (SUCC, BELOW), (SUCC, ABOVE)]
)


def build_geometry(n_rings: int = 48, k: int = 13, offset: int = 3) -> MtModel:
    """Construct the helical lattice and instantiate every interaction.

    Protofilaments run straight along the tube axis, one longitudinal rest
    length apart; the helical rise per column is ``offset / k`` of that
    spacing and the cylinder radius is solved so lateral bonds have the
    lateral rest length. The lattice is :func:`gpcn.graphs.tube_neighbors`,
    read node by node: a bond for each filled slot of ``_BOND_SLOTS`` and an
    angle for each pair of ``_ANGLE_SLOTS`` with both slots filled. Every
    interaction's rest value is measured from this geometry and checked
    against the canonical value for its kind (failure beyond ``_REST_TOL``
    aborts construction).
    """
    if n_rings < 2 or k < 3:
        raise ValueError("geometry needs n_rings >= 2 and k >= 3")
    nb = tube_neighbors(n_rings, k, offset)
    ring_spacing = REST_LENGTHS["longitudinal"]
    lateral_rest = REST_LENGTHS["lat_lattice"]
    rise = offset * ring_spacing / k
    chord2 = lateral_rest**2 - rise**2
    if chord2 <= 0:
        raise ValueError("lateral rest length too short for this offset")
    radius = np.sqrt(chord2) / (2.0 * np.sin(np.pi / k))
    ring, column = np.divmod(np.arange(len(nb)), k)
    theta = 2.0 * np.pi * column / k
    height = ring * ring_spacing + column * rise
    pos = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), height])

    tail, slot = np.nonzero(nb[:, _BOND_SLOTS] >= 0)
    slot = _BOND_SLOTS[slot]
    bond_idx = np.column_stack([tail, nb[tail, slot]])
    seam = column[tail] == k - 1
    bond_kind = np.select([slot == ABOVE, seam], ["longitudinal", "lat_seam"], "lat_lattice")
    # signed bond of each (node, slot) arm: b at the bond's tail, b + m_b at
    # its head, whose back slot s ^ 1 points at the tail
    arm = np.full(nb.shape, -1)
    arm[tail, slot] = np.arange(len(tail))
    arm[bond_idx[:, 1], slot ^ 1] = np.arange(len(tail), 2 * len(tail))

    ends = nb[:, _ANGLE_SLOTS]
    vertex, pair = np.nonzero((ends >= 0).all(axis=-1))
    angle_idx = np.column_stack([ends[vertex, pair, 0], vertex, ends[vertex, pair, 1]])
    angle_arms = arm[vertex[:, None], _ANGLE_SLOTS[pair]]

    # rest values are measured from the geometry, grouped by kind, and each
    # group must be internally uniform; the canonical angles apply to the
    # 13-column offset-3 lattice they were measured on
    xyz = pos.T
    d = np.take(xyz, bond_idx[:, 1], axis=-1) - np.take(xyz, bond_idx[:, 0], axis=-1)
    bond_rest = np.sqrt(_dot(d, d))
    angle_rest, *_ = _angle_geometry(d, bond_rest, angle_arms)
    angle_deg = np.degrees(angle_rest)
    angle_kind = np.select(
        [pair == 0, pair == 1, angle_deg < 90.0], ["lat_angle", "long_angle", "quad_acute"], "quad_obtuse"
    )
    for kinds, rests, canonical, rest_text in (
        (bond_kind, bond_rest, REST_LENGTHS, "bond rest {:.5f} nm"),
        (angle_kind, angle_deg, REST_ANGLES_DEG if (k, offset) == (13, 3) else {}, "rest {:.4f} deg"),
    ):
        for kind in set(kinds):
            group = rests[kinds == kind]
            if group.max() - group.min() > 1e-6:
                raise ValueError(f"inconsistent geometry: {kind} rest values spread over "
                                 f"[{group.min():.6f}, {group.max():.6f}]")
            if kind in canonical and (off := np.abs(group - canonical[kind]) > _REST_TOL).any():
                raise ValueError(f"inconsistent geometry: {kind} {rest_text.format(group[off.argmax()])} "
                                 f"vs expected {canonical[kind]}")
    return MtModel(n_rings, k, offset, pos, bond_idx, bond_kind.tolist(), bond_rest,
                   angle_idx, angle_kind.tolist(), angle_rest, angle_arms)


def _scatter_matrices(model: MtModel, runs: int):
    """0/1 CSR matrices that sum the force and energy terms of ``runs``
    stacked runs. Force terms come block-major, five contiguous (3, R, m)
    blocks: bonds to i, to j, angles to i, to k, to the vertex; term (c, r, t)
    of a block on particle p is a column of row 3 (r n + p) + c of the
    (R, n, 3) result. Energy terms are five (R, m) blocks: bonds to i, j,
    angles to i, vertex, k. Each row lists its columns in ascending order,
    and the matvec sums a row from 0.0 in that order, so every particle adds
    its terms in one fixed order at any batch size: block by block, each in
    interaction order. Built on the first force call of a batch size and
    kept for the latest one only."""
    if model._scatter is None or model._scatter[0] != runs:
        (bi, bj), (ai, av, ak) = model.bond_idx.T, model.angle_idx.T
        rows = model.n * np.arange(runs)[:, None]

        def csr(blocks, n_rows):
            target = np.concatenate([b.ravel() for b in blocks])
            indptr = np.concatenate([[0], np.cumsum(np.bincount(target, minlength=n_rows))])
            cols = np.argsort(target, kind="stable")
            return sp.csr_matrix((np.ones(len(target)), cols, indptr), shape=(n_rows, len(target)))

        force = [3 * (rows + idx) + np.arange(3)[:, None, None] for idx in (bi, bj, ai, ak, av)]
        energy = [rows + idx for idx in (bi, bj, ai, av, ak)]
        model._scatter = (runs, csr(force, 3 * runs * model.n), csr(energy, runs * model.n))
    return model._scatter[1:]


def forces_and_energy(model: MtModel, pos: np.ndarray, kb: np.ndarray, ka: np.ndarray, energy=True):
    """Analytic forces plus per-particle energy attribution.

    ``pos`` is (n, 3), or (R, n, 3) for R runs with stiffness rows kb (R, m_b)
    and ka (R, m_a). Returns (forces (n,3), per_particle (n,), total), with a
    leading run axis on all three for R runs. Bond energy splits half to each
    endpoint, angle energy a third to each participant, so the attribution
    sums exactly to the total; ``energy=False`` skips it (None, None). Angles
    whose arms are collinear to machine precision contribute energy but zero
    force (finite fallback). Internally every vector is component-major
    (3, R, m), one contiguous array per component, so each elementwise op
    runs over whole rows instead of triples; the angle arms are the bond
    vectors of the bond pass, and the force terms are written in place into
    contiguous blocks that one cached sparse product sums per particle."""
    runs = pos.reshape(-1, model.n, 3)
    force_mat, energy_mat = _scatter_matrices(model, len(runs))
    xyz = np.ascontiguousarray(runs.transpose(2, 0, 1))

    m_b, m_a = len(model.bond_idx), len(model.angle_idx)
    width = 3 * len(runs)
    terms = np.empty(width * (2 * m_b + 3 * m_a))
    to_i, to_j, to_a, to_c, to_vertex = (
        block.reshape(3, len(runs), -1)
        for block in np.split(terms, width * np.cumsum([m_b, m_b, m_a, m_a]))
    )

    d = np.take(xyz, model.bond_idx[:, 1], axis=-1) - np.take(xyz, model.bond_idx[:, 0], axis=-1)
    r = np.sqrt(_dot(d, d))
    safe_r = np.where(r > 1e-12, r, 1.0)
    dr = r - model.bond_rest
    np.multiply(np.where(r > 1e-12, 2.0 * kb * dr / safe_r, 0.0), d, out=to_i)
    np.negative(to_i, out=to_j)

    theta, cos, uh, vh, lu, lv = _angle_geometry(d, r, model.angle_arms)
    delta = theta - model.angle_rest
    sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    ok = sin > 1e-12
    inv_sin = np.where(ok, 1.0 / np.where(ok, sin, 1.0), 0.0)
    coeff = -2.0 * ka * delta
    # coeff * (d theta / d arm), written into the force terms in place
    for out, arm, other, length in ((to_a, uh, vh, lu), (to_c, vh, uh, lv)):
        np.multiply(cos, arm, out=out)
        out -= other
        out *= inv_sin / length
        out *= coeff
    np.add(to_a, to_c, out=to_vertex)
    np.negative(to_vertex, out=to_vertex)
    forces = (force_mat @ terms).reshape(pos.shape)
    if not energy:
        return forces, None, None

    e_bond = kb * dr * dr
    e_angle = ka * delta * delta
    half, share = 0.5 * e_bond, e_angle / 3.0
    terms = np.concatenate([half, half, share, share, share], axis=None)
    per_particle = energy_mat @ terms
    total = e_bond.sum(axis=-1) + e_angle.sum(axis=-1)
    return forces, per_particle.reshape(pos.shape[:-1]), total if pos.ndim == 3 else float(total[0])


@dataclass
class SimConfig:
    """One simulation run: strengths, load protocol, integrator settings."""

    strengths: dict = field(default_factory=dict)
    ramp_steps: int = 2000
    hold_steps: int = 4000
    dt: float = 0.05  # ns
    save_every: int = 500
    max_force: float = 0.4  # Da*nm/ns^2 per loaded particle, applied along -y
    bond_k_base: float = 100.0  # Da/ns^2 per unit strength
    angle_k_base: float = 500.0  # Da*nm^2/ns^2/rad^2 per unit strength
    langevin: bool = True
    temperature: float | None = None  # kT; None picks noise ~1% of max_force
    damping: float | None = None  # ns; None means 100 * dt
    feature_columns: int = 10  # 10 drops LatAngle from the inputs, 11 keeps all five

    def __post_init__(self):
        check_fields(self)
        if self.ramp_steps < 1 or self.hold_steps < 0 or self.save_every < 1:
            raise ValueError("step counts must be positive")
        if self.total_steps % self.save_every != 0:
            raise ValueError("save_every must divide the total step count")
        for name in ("dt", "bond_k_base", "angle_k_base", "damping"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.temperature is not None and self.temperature < 0:
            raise ValueError(f"temperature must not be negative, got {self.temperature}")
        if not self.resolved_damping() < math.inf:
            raise ValueError(f"dt {self.dt!r} makes the damping time 100 * dt infinite")
        try:
            kt = self.resolved_temperature()
        except OverflowError:
            kt = math.inf
        if self.temperature is None and not 0.0 < kt < math.inf:
            raise ValueError(
                f"max_force {self.max_force!r}, dt {self.dt!r} and damping "
                f"{self.resolved_damping()!r} give a noise temperature of {kt!r}"
            )
        if self.feature_columns not in (10, 11):
            raise ValueError("feature_columns must be 10 or 11")
        _check_strengths(self.strengths)

    @property
    def total_steps(self) -> int:
        return self.ramp_steps + self.hold_steps

    def resolved_damping(self) -> float:
        return self.damping if self.damping is not None else 100.0 * self.dt

    def resolved_temperature(self) -> float:
        if self.temperature is not None:
            return self.temperature
        # noise force std = 1% of the applied load
        gamma = 1.0 / self.resolved_damping()
        target = 0.01 * max(self.max_force, 1e-12)
        return target**2 * self.dt / (2.0 * MASS_DALTON * gamma)

    def feature_names(self):
        coeffs = [p for p in STRENGTH_PARAMS if self.feature_columns == 11 or p != "LatAngle"]
        return ["px", "py", "pz", "vx", "vy", "vz", *coeffs]


@dataclass
class SimState:
    """One run (n, 3) or R stacked runs (R, n, 3). ``forces`` caches the
    conservative force at ``positions``: None until a step fills it (reset it
    after moving positions by hand). A step that ends on a frame sets ``energy``."""

    positions: np.ndarray
    velocities: np.ndarray
    step_index: int = 0
    forces: np.ndarray | None = None
    energy: np.ndarray | None = None


@dataclass
class Frame:
    x: np.ndarray  # (n, F)
    y: np.ndarray  # (n, 1)


@dataclass
class Dataset:
    """Stacked frames from one or more runs plus the generation manifest."""

    x: np.ndarray  # (frames, n, F)
    y: np.ndarray  # (frames, n, 1)
    column_names: list
    manifest: dict

    @property
    def n_frames(self) -> int:
        return self.x.shape[0]


def initial_state(model: MtModel) -> SimState:
    return SimState(positions=model.positions.copy(), velocities=np.zeros_like(model.positions))


def step(model: MtModel, state: SimState, config: SimConfig, rng=None, *, _cache=None) -> SimState:
    """One velocity-Verlet step with clamps, ramped end load, and optional
    Langevin forces (friction plus one noise draw per step and run), with
    one conservative force evaluation, at the new positions.

    A stacked state takes one generator per run in ``rng`` and stiffness
    rows (R, m_b), (R, m_a) in ``_cache``. SimulationDiverged names every
    run that left the guard volume; the step is complete for all of them.
    """
    kb, ka = _cache if _cache is not None else _effective_stiffness(model, config)
    clamp, forced, mass, dt = model.clamp_set(), model.forced_set(), MASS_DALTON, config.dt
    gamma, kt = 1.0 / config.resolved_damping(), config.resolved_temperature()
    pos, vel = state.positions, state.velocities
    noise = None
    if config.langevin and kt > 0.0:
        if rng is None:
            raise ValueError("langevin noise needs an rng")
        noise = np.empty(pos.shape)
        for g, out in zip(rng if pos.ndim == 3 else [rng], noise.reshape(-1, model.n, 3), strict=True):
            g.standard_normal(out=out)
        noise *= np.sqrt(2.0 * mass * gamma * kt / dt)
    if state.forces is None:
        state.forces, _, _ = forces_and_energy(model, pos, kb, ka, energy=False)

    def half_kick():
        """((0.5 dt) f) / mass for the total force f, computed in place."""
        f = state.forces.copy()
        f[..., forced, 1] -= min((state.step_index + 1) / config.ramp_steps, 1.0) * config.max_force
        if config.langevin:
            f -= mass * gamma * vel
            if noise is not None:
                f += noise
        f *= 0.5 * dt
        f /= mass
        return f

    vel += half_kick()
    pos += dt * vel
    pos[..., clamp, :] = model.positions[clamp]
    vel[..., clamp, :] = 0.0
    frame = (state.step_index + 1) % config.save_every == 0
    state.forces, state.energy, _ = forces_and_energy(model, pos, kb, ka, energy=frame)
    vel += half_kick()
    vel[..., clamp, :] = 0.0
    state.step_index += 1

    runs = np.abs(pos.reshape(-1, model.n * 3))
    messages = {}
    for r in np.flatnonzero(~(runs.max(axis=1) <= model.guard)):  # NaN fails the comparison too
        finite = runs[r][np.isfinite(runs[r])]
        messages[int(r)] = (f"simulation diverged at step {state.step_index}: "
                            f"max |coordinate| = {finite.max() if finite.size else np.inf:.3g} nm")
    if messages:
        raise SimulationDiverged(messages)
    return state


def _effective_stiffness(model: MtModel, config: SimConfig):
    kb, ka = model.strength_vectors(config.strengths)
    return kb * config.bond_k_base, ka * config.angle_k_base


def _integrate(model: MtModel, configs: list, seeds: list) -> list:
    """Integrate one run per config (one protocol, own strengths and seed) as
    one stacked system. Returns each run's frames, or the message of the step
    at which it diverged; a diverged run leaves the stack at that step."""
    config, live, rngs = configs[0], list(range(len(configs))), [seeded_rng(s) for s in seeds]
    kb, ka = map(np.stack, zip(*(_effective_stiffness(model, c) for c in configs)))
    state = SimState(np.repeat(model.positions[None], len(configs), axis=0),
                     np.zeros((len(configs), model.n, 3)))
    results = [[] for _ in configs]
    coeffs = []  # each run's strength columns, constant over its frames
    for c in configs:
        full = {**dict.fromkeys(STRENGTH_PARAMS, 1.0), **c.strengths}
        coeffs.append(np.tile([full[name] for name in config.feature_names()[6:]], (model.n, 1)))
    for _ in range(config.total_steps):
        try:
            step(model, state, config, rngs, _cache=(kb, ka))
        except SimulationDiverged as exc:
            for i, message in exc.runs.items():
                results[live[i]] = message
            keep = [i for i in range(len(live)) if i not in exc.runs]
            live, rngs, kb, ka = [live[i] for i in keep], [rngs[i] for i in keep], kb[keep], ka[keep]
            for name in ("positions", "velocities", "forces", "energy"):
                value = getattr(state, name)
                setattr(state, name, None if value is None else value[keep])
            if not live:
                break
        if state.step_index % config.save_every == 0:
            for i, r in enumerate(live):
                x = np.concatenate([state.positions[i], state.velocities[i], coeffs[r]], axis=1)
                results[r].append(Frame(x=x, y=state.energy[i][:, None]))
    return results


def run_simulation(model: MtModel, config: SimConfig, seed=0) -> list:
    """Integrate the load protocol and return a frame every ``save_every``
    steps (12 frames at the default settings)."""
    (frames,) = _integrate(model, [config], [seed])
    if isinstance(frames, str):
        raise SimulationDiverged({0: frames})
    return frames


def tip_deflection(model: MtModel, frame: Frame) -> float:
    """Mean displacement of the loaded rings against the resting geometry."""
    forced = model.forced_set()
    return float(np.linalg.norm(frame.x[forced, :3] - model.positions[forced], axis=1).mean())


def full_strength_grid():
    """Every strength parameter over the canonical seven values (7^5 runs)."""
    values = [0.1, 0.3, 0.6, 1.0, 1.3, 1.6, 1.9]
    return {name: list(values) for name in STRENGTH_PARAMS}


def desk_strength_grid():
    """Two varied association strengths, three values each (9 runs)."""
    return {"LatAssoc": [0.1, 1.0, 1.9], "LongAssoc": [0.1, 1.0, 1.9]}


_MANIFEST_FIELDS = (
    "ramp_steps", "hold_steps", "dt", "save_every", "max_force", "bond_k_base", "angle_k_base", "langevin"
)


def generate_dataset(model: MtModel, param_grid: dict, config: SimConfig, seed=0) -> Dataset:
    """One run per grid combination, concatenated into a dataset.

    Combinations iterate in canonical parameter order with ascending values;
    each run draws from an independent child seed. Up to ``_MAX_BATCH`` runs
    integrate together as one stacked system. Diverged runs are recorded in
    the manifest and excluded from the tensors.
    """
    for name, values in param_grid.items():
        if len(values) == 0:
            raise ValueError(f"grid strength {name!r} needs at least one value")
        for value in values:
            _check_strengths({name: value})
    varied = [name for name in STRENGTH_PARAMS if name in param_grid]
    if not varied:
        raise ValueError("param_grid must vary at least one strength parameter")
    combos = list(itertools.product(*(sorted(param_grid[name]) for name in varied)))
    configs = [replace(config, strengths={**config.strengths, **dict(zip(varied, c))}) for c in combos]
    children = np.random.SeedSequence(seed).spawn(len(combos))
    results = []
    for start in range(0, len(configs), _MAX_BATCH):
        batch = slice(start, start + _MAX_BATCH)
        results += _integrate(model, configs[batch], children[batch])

    xs, ys, runs = [], [], []
    for run_config, frames in zip(configs, results):
        record = {"strengths": {k: float(v) for k, v in sorted(run_config.strengths.items())}}
        if isinstance(frames, str):
            record.update(status="diverged", error=frames)
        else:
            record.update(status="ok", n_frames=len(frames))
            xs.extend(f.x for f in frames)
            ys.extend(f.y for f in frames)
        runs.append(record)
    if not xs:
        raise NumericalError("every run diverged; no dataset produced")
    manifest = {
        "seed": int(seed),
        "n_rings": model.n_rings,
        "k": model.k,
        "offset": model.offset,
        "n_nodes": model.n,
        "feature_columns": config.feature_columns,
        "column_names": config.feature_names(),
        "grid": {name: [float(v) for v in sorted(param_grid[name])] for name in varied},
        "config": {
            **{name: getattr(config, name) for name in _MANIFEST_FIELDS},
            "temperature": config.resolved_temperature(),
            "damping": config.resolved_damping(),
        },
        "runs": runs,
    }
    return Dataset(np.stack(xs), np.stack(ys), config.feature_names(), manifest)


def save_dataset(dataset: Dataset, out_dir, fmt: str = "bin") -> None:
    """Write a dataset directory: manifest.json plus frames (bin or csv)."""
    os.makedirs(out_dir, exist_ok=True)
    dump_json(os.path.join(out_dir, "manifest.json"), dataset.manifest)
    if fmt == "bin":
        save_arrays(
            os.path.join(out_dir, "frames.bin"),
            {"x": dataset.x, "y": dataset.y},
            {"column_names": dataset.column_names},
        )
    elif fmt == "csv":
        header = ["frame", "node", *dataset.column_names, "energy"]
        t, n, _ = dataset.x.shape
        rows = [
            [ti, ni, *dataset.x[ti, ni].tolist(), float(dataset.y[ti, ni, 0])]
            for ti in range(t) for ni in range(n)
        ]
        write_csv(os.path.join(out_dir, "frames.csv"), header, rows)
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")


def load_dataset(out_dir) -> Dataset:
    """Read a dataset directory written by :func:`save_dataset` (either format)."""
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    bin_path = os.path.join(out_dir, "frames.bin")
    if os.path.exists(bin_path):
        arrays, meta = load_arrays(bin_path)
        x, y = arrays.get("x"), arrays.get("y")
        names = meta.get("column_names") if isinstance(meta, dict) else None
        if (
            x is None or y is None or not isinstance(names, list) or x.ndim != 3
            or y.shape != x.shape[:2] + (1,) or len(names) != x.shape[2]
        ):
            raise ValueError(
                f"{bin_path}: needs x (frames, nodes, F), y (frames, nodes, 1) and F column_names"
            )
        return Dataset(x=x, y=y, column_names=names, manifest=manifest)
    csv_path = os.path.join(out_dir, "frames.csv")
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = fh.readlines()
    data = np.loadtxt(rows, delimiter=",") if rows else np.empty(0)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"{csv_path}: needs two or more rows of {len(header)} values after the header")
    t, n = int(data[:, 0].max()) + 1, int(data[:, 1].max()) + 1
    if len(data) != t * n:
        raise ValueError(f"{csv_path}: {len(data)} rows are not {t} frames of {n} nodes")
    if not np.array_equal(data[:, :2], np.indices((t, n)).reshape(2, -1).T):
        raise ValueError(f"{csv_path}: rows are not ordered by frame, then node")
    x = data[:, 2:-1].reshape(t, n, len(header) - 3)
    y = data[:, -1].reshape(t, n, 1)
    return Dataset(x=x, y=y, column_names=header[2:-1], manifest=manifest)
