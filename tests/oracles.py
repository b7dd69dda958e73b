"""Independent reference computations the tests compare the package against.

Each one is written straight from its formula in numpy, without the tape,
so a fault in the recorded forward pass, in the tape's vjps or in the
simulator's vectorized force loop cannot hide in its own reference. The
input gradient follows the paper's rule: back-propagate by hand to the
first pre-activation A_1, then apply Z^T (dE/dA_1) W_1^T.
"""

import itertools
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from gpcn.gcn import GcnLayerParams, GcnParams
from gpcn.gdd import Assignment
from gpcn.graphs import Graph, StructureMatrix
from gpcn.numcore import row_softmax, spmm
from gpcn.simulator import STRENGTH_PARAMS


def sigmoid_two_branch(x: np.ndarray) -> np.ndarray:
    """Logistic function by sign: 1 / (1 + exp(-x)) where x >= 0 and
    exp(x) / (1 + exp(x)) elsewhere, so no exp can overflow."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_plain(x: np.ndarray) -> np.ndarray:
    """Logistic function as its formula, 1 / (1 + exp(-x)), with exp's
    overflow to inf and underflow to 0 allowed."""
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": sigmoid_two_branch,
    "linear": lambda x: x,
}


def _aggregate(z, h):
    return spmm(z, h) if isinstance(z, StructureMatrix) else z @ h


def gcn_layer(z, x: np.ndarray, params: GcnLayerParams, activation: str) -> np.ndarray:
    """One layer: activation(Z @ X @ W + b), the activation named ``relu``,
    ``sigmoid`` or ``linear``. Pass ``z=None`` for a node-wise dense layer
    (the Z = I case); a dense array Z is a pooled level."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.w.shape[0]:
        raise ValueError(
            f"input width {x.shape[-1]} does not match filter shape {params.w.shape}"
        )
    xw = x @ params.w
    pre = (_aggregate(z, xw) if z is not None else xw) + params.b
    return _ACTIVATIONS[activation](pre)


def head_activations(n_layers: int) -> list:
    """Activations of a dense head by position: sigmoid, then a linear output."""
    return ["sigmoid"] * (n_layers - 1) + ["linear"]


def gcn_network(z, params: GcnParams, x: np.ndarray) -> np.ndarray:
    """ReLU convolution stack, concatenation of its outputs, then the dense head."""
    outs = []
    h = x
    for layer in params.gcn:
        h = gcn_layer(z, h, layer, "relu")
        outs.append(h)
    h = np.concatenate(outs, axis=-1)
    for layer, act in zip(params.dense, head_activations(len(params.dense))):
        h = gcn_layer(None, h, layer, act)
    return h


# derivative of each activation, written in terms of its output
_DERIVATIVES = {
    "relu": lambda out: (out > 0.0).astype(float),
    "sigmoid": lambda out: out * (1.0 - out),
    "linear": np.ones_like,
}


def input_gradient_rule(z, params: GcnParams, x: np.ndarray, g_out: np.ndarray) -> np.ndarray:
    """Gradient of sum(g_out * network(x)) w.r.t. the input x, by hand.

    Back-propagates through the dense head, splits the gradient at the
    concatenation, and walks the ReLU stack down to dE/dA_1. The last step
    is the paper's first-layer rule Z^T (dE/dA_1) W_1^T.
    """
    conv = []
    h = np.asarray(x, dtype=float)
    for layer in params.gcn:
        h = gcn_layer(z, h, layer, "relu")
        conv.append(h)
    acts = head_activations(len(params.dense))
    head = [np.concatenate(conv, axis=-1)]
    for layer, act in zip(params.dense, acts):
        head.append(gcn_layer(None, head[-1], layer, act))
    g = np.asarray(g_out, dtype=float)
    for layer, act, out in zip(reversed(params.dense), reversed(acts), reversed(head[1:])):
        g = (g * _DERIVATIVES[act](out)) @ layer.w.T
    g_conv = np.split(g, np.cumsum([out.shape[-1] for out in conv])[:-1], axis=-1)
    zt = StructureMatrix(mat=z.mat.T) if isinstance(z, StructureMatrix) else np.asarray(z).T
    g_h = 0.0
    for layer, out, g_cat in zip(reversed(params.gcn), reversed(conv), reversed(g_conv)):
        g_pre = (g_cat + g_h) * _DERIVATIVES["relu"](out)  # dE/dA_j
        g_h = _aggregate(zt, g_pre) @ layer.w.T
    return g_h


def _prolongations(spec, params):
    """The trained copies of an adaptive gpcn, the spec's own when frozen."""
    return params.prolongations if spec.adaptive else spec.prolongations


def ensemble_input_gradient_reference(spec, params, x: np.ndarray) -> np.ndarray:
    """Gradient of the summed ensemble output for the fixed-lift kinds
    (plain_ensemble, ngcn, gpcn): sum_i L_i rule_i(L_i^T x, L_i^T 1), where
    L_i is the composed prolongation of level i (the identity off gpcn)."""
    x = np.asarray(x, dtype=float)
    lift = np.eye(spec.n_fine)
    total = np.zeros_like(x)
    for i, lvl in enumerate(spec.levels):
        if i > 0 and spec.kind == "gpcn":
            lift = lift @ _prolongations(spec, params)[i - 1]
        g_out = lift.T @ np.ones((spec.n_fine, 1))
        total += lift @ input_gradient_rule(lvl.z, params.levels[i], lift.T @ x, g_out)
    return total


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
                lift = lift @ _prolongations(spec, params)[i - 1]
                xi = lift.T @ x
        if i in keep:
            total = total + lift @ gcn_network(z, params.levels[i], xi)
    return total


def assignment_cost(lambda_coarse: float, lambda_fine: float, alpha: float) -> float:
    """Cost of pairing one coarse eigenvalue with one fine eigenvalue, one
    entry at a time, to check the package's vectorized cost matrix."""
    d = lambda_coarse / alpha - alpha * lambda_fine
    return float(d * d)


def rlap_reference(cost: np.ndarray) -> Assignment:
    """Minimum-cost injection of the rows of any cost matrix into its columns,
    by the Hungarian method, to check the package's monotone assignment."""
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple((int(j), int(l)) for j, l in zip(rows, cols))
    return Assignment(pairs=pairs, total_cost=float(cost[rows, cols].sum()))


def canonical_edges_reference(n: int, edges) -> tuple:
    """The canonical edge tuple of ``Graph(n, edges)``, checking and keying
    one edge at a time; the first invalid edge raises its ValueError."""
    seen, canon = set(), []
    for u, v, w in edges:
        if not (float(u).is_integer() and float(v).is_integer()):
            raise ValueError(f"edge ({u},{v}) has a node id that is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self loop at node {u}")
        if not 0 < w < np.inf:
            raise ValueError(f"edge ({u},{v}) weight {w} is not finite and positive")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        canon.append((int(key[0]), int(key[1]), float(w)))
    return tuple(sorted(canon))


def adjacency_reference(g: Graph) -> sp.csr_matrix:
    """Symmetric weighted adjacency: COO triplets of both edge directions,
    converted to CSR with sorted column indices."""
    u, v, w = g._columns
    a = sp.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(g.n, g.n),
    )
    out = a.tocsr()
    out.sort_indices()
    return out


def laplacian_reference(g: Graph) -> StructureMatrix:
    """Laplacian as sparse matrix algebra: the CSR adjacency minus the
    diagonal of its row sums A @ 1."""
    a = adjacency_reference(g)
    return StructureMatrix(mat=a - sp.diags(a @ np.ones(g.n)))


def tube_edges_reference(n_rings: int, k: int, offset: int, seam_weight: float) -> tuple:
    """Canonical edges of ``make_tube``, built one node at a time from its
    rule. Coincident constructions (k = 2) merge by adding their weights in
    construction order: longitudinal, lateral, then the ring's seam edge."""
    acc = {}

    def add(u, v, w):
        key = (min(u, v), max(u, v))
        acc[key] = acc.get(key, 0.0) + w

    for i in range(n_rings):
        for j in range(k):
            node = i * k + j
            if i + 1 < n_rings:
                add(node, node + k, 1.0)
            if j + 1 < k:
                add(node, node + 1, 1.0)
        if i + offset < n_rings:
            add(i * k + k - 1, (i + offset) * k, seam_weight)
    return tuple(sorted((u, v, float(w)) for (u, v), w in acc.items()))


def subpermutation(assignment, n_fine: int, n_coarse: int) -> np.ndarray:
    """0/1 matrix with orthonormal columns selecting the assigned eigenmodes:
    Pt[l, j] = 1 for each (coarse j, fine l) pair of the assignment."""
    pt = np.zeros((n_fine, n_coarse))
    for j, l in assignment.pairs:
        pt[l, j] = 1.0
    return pt


def bond_energy(k_eff: float, length: float, rest: float) -> float:
    """Harmonic association energy k (length - rest)^2."""
    return float(k_eff * (length - rest) ** 2)


def angle_energy(k_eff: float, theta: float, rest: float) -> float:
    """Harmonic angle energy k (theta - rest)^2, angles in radians."""
    return float(k_eff * (theta - rest) ** 2)


def forces_and_energy_reference(model, pos: np.ndarray, kb: np.ndarray, ka: np.ndarray):
    """Forces (n, 3), per-particle energy (n,) and total of one configuration,
    scattered term by term with ``np.add.at``: bonds to i then j, angles'
    forces to the arms then the vertex, angles' energy to i, vertex, k."""
    forces = np.zeros((model.n, 3))
    per_particle = np.zeros(model.n)

    bi, bj = model.bond_idx[:, 0], model.bond_idx[:, 1]
    d = pos[bj] - pos[bi]
    r = np.linalg.norm(d, axis=1)
    safe_r = np.where(r > 1e-12, r, 1.0)
    dr = r - model.bond_rest
    e_bond = kb * dr * dr
    fvec = np.where(r > 1e-12, 2.0 * kb * dr / safe_r, 0.0)[:, None] * d
    np.add.at(forces, bi, fvec)
    np.add.at(forces, bj, -fvec)
    np.add.at(per_particle, bi, 0.5 * e_bond)
    np.add.at(per_particle, bj, 0.5 * e_bond)

    ai, av, ak = model.angle_idx[:, 0], model.angle_idx[:, 1], model.angle_idx[:, 2]
    u, v = pos[ai] - pos[av], pos[ak] - pos[av]
    lu, lv = np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)
    uh, vh = u / lu[:, None], v / lv[:, None]
    cos = np.clip(np.sum(uh * vh, axis=1), -1.0, 1.0)
    delta = np.arccos(cos) - model.angle_rest
    e_angle = ka * delta * delta
    sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    ok = sin > 1e-12
    inv_sin = np.where(ok, 1.0 / np.where(ok, sin, 1.0), 0.0)
    coeff = (-2.0 * ka * delta)[:, None]
    fa = coeff * ((cos[:, None] * uh - vh) * (inv_sin / lu)[:, None])
    fc = coeff * ((cos[:, None] * vh - uh) * (inv_sin / lv)[:, None])
    np.add.at(forces, ai, fa)
    np.add.at(forces, ak, fc)
    np.add.at(forces, av, -(fa + fc))
    share = e_angle / 3.0
    np.add.at(per_particle, ai, share)
    np.add.at(per_particle, av, share)
    np.add.at(per_particle, ak, share)
    return forces, per_particle, float(e_bond.sum() + e_angle.sum())


def angle_kinds_reference(model) -> list:
    """Each angle's kind, one angle at a time: an arm is longitudinal when it
    stays in the vertex's column; two longitudinal arms make a straight
    angle, two lateral arms a pitch angle, and a mixed pair a lattice-cell
    angle, acute below 90 degrees of its measured opening."""
    kinds = []
    for a, v, c in model.angle_idx:
        longitudinal = [end % model.k == v % model.k for end in (a, c)]
        if all(longitudinal):
            kinds.append("long_angle")
        elif not any(longitudinal):
            kinds.append("lat_angle")
        else:
            u, w = model.positions[a] - model.positions[v], model.positions[c] - model.positions[v]
            cos = np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
            kinds.append("quad_acute" if np.degrees(np.arccos(cos)) < 90.0 else "quad_obtuse")
    return kinds


def _run_reference(model, config, seed):
    """One velocity-Verlet run that evaluates the force twice per step and
    attributes energy at each saved frame: (frames, None) as (x, y) pairs,
    or (None, message) when a coordinate leaves the guard volume."""
    kb, ka = model.strength_vectors(config.strengths)
    kb, ka = kb * config.bond_k_base, ka * config.angle_k_base
    rng = np.random.Generator(np.random.PCG64(seed))
    clamp, forced = model.clamp_set(), model.forced_set()
    mass, dt = model.mass, config.dt
    gamma = 1.0 / config.resolved_damping()
    kt = config.resolved_temperature(mass)
    guard = 20.0 * max(1.0, np.abs(model.positions).max())
    full = dict.fromkeys(STRENGTH_PARAMS, 1.0)
    full.update(config.strengths)
    coeffs = np.tile([full[name] for name in config.feature_names()[6:]], (model.n, 1))
    pos, vel = model.positions.copy(), np.zeros_like(model.positions)

    def total_force(s, noise):
        f = forces_and_energy_reference(model, pos, kb, ka)[0]
        f[forced, 1] -= min((s + 1) / config.ramp_steps, 1.0) * config.max_force
        if config.langevin:
            f -= mass * gamma * vel
            if noise is not None:
                f += noise
        return f

    frames = []
    for s in range(config.total_steps):
        noise = None
        if config.langevin and kt > 0.0:
            noise = np.sqrt(2.0 * mass * gamma * kt / dt) * rng.normal(size=pos.shape)
        vel += 0.5 * dt * total_force(s, noise) / mass
        pos += dt * vel
        pos[clamp] = model.positions[clamp]
        vel[clamp] = 0.0
        vel += 0.5 * dt * total_force(s, noise) / mass
        vel[clamp] = 0.0
        if not np.isfinite(pos).all() or np.abs(pos).max() > guard:
            finite = np.abs(pos[np.isfinite(pos)])
            worst = finite.max() if finite.size else np.inf
            return None, f"simulation diverged at step {s + 1}: max |coordinate| = {worst:.3g} nm"
        if (s + 1) % config.save_every == 0:
            _, per_particle, _ = forces_and_energy_reference(model, pos, kb, ka)
            frames.append((np.concatenate([pos, vel, coeffs], axis=1), per_particle[:, None]))
    return frames, None


def simulate_reference(model, param_grid: dict, config, seed=0):
    """``generate_dataset`` one run at a time: (x, y, run records), with runs
    in canonical parameter order and one child seed each."""
    varied = [name for name in STRENGTH_PARAMS if name in param_grid]
    combos = list(itertools.product(*(sorted(param_grid[name]) for name in varied)))
    children = np.random.SeedSequence(seed).spawn(len(combos))
    xs, ys, runs = [], [], []
    for combo, child in zip(combos, children):
        strengths = {**config.strengths, **dict(zip(varied, combo))}
        record = {"strengths": {k: float(v) for k, v in sorted(strengths.items())}}
        frames, error = _run_reference(model, replace(config, strengths=strengths), child)
        if error is None:
            record.update(status="ok", n_frames=len(frames))
            xs.extend(x for x, _ in frames)
            ys.extend(y for _, y in frames)
        else:
            record.update(status="diverged", error=error)
        runs.append(record)
    return np.stack(xs), np.stack(ys), runs
