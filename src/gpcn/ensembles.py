"""Multiscale GCN ensembles.

Model kinds:

* ``gpcn``: one GCN per graph scale; the input is restricted to each coarse
  scale through composed prolongation transposes and each member's output is
  lifted back, so the ensemble output is the sum over scales. With
  ``adaptive=True`` the prolongation entries train jointly with the filters.
* ``plain_ensemble``: several GCNs on graphs of one node set, summed. A
  single GCN is a one-member plain ensemble, and an N-GCN is one whose
  members hold successive powers of the structure matrix.
* ``diffpool``: the prolongations are replaced by input-dependent affinity
  matrices (row-softmaxed output of a small pooling convolution), and the
  coarse structure matrices are recomputed from them on every pass.

All three kinds share one forward, the level loop of :func:`model_graph`;
they differ only in how each level's structure matrix, input and lift back
to the fine scale are built.

Levels are ordered fine to coarse; level 0 is the prediction scale.
Parameter ownership follows that order: level i owns its filter stack plus
the prolongation (or pooling module) that introduces it, which is what
:meth:`ModelParams.bind` binds for the levels a training step updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .autodiff import Node, Tape
from .gcn import (
    GcnLayerParams,
    GcnParams,
    GcnSpec,
    aggregate,
    gcn_graph,
    init_gcn_params,
)
from .gdd import gdd
from .graphs import StructureMatrix, laplacian, make_tube, structure_power
from .numcore import glorot_uniform
from .serialize import check_value, load_arrays, save_arrays

__all__ = [
    "ModelSpec",
    "ModelParams",
    "Hierarchy",
    "make_hierarchy",
    "paper_hierarchy",
    "desk_hierarchy",
    "MODEL_NAMES",
    "build_from_table",
    "init_model_params",
    "model_graph",
    "model_forward",
    "ensemble_input_gradient",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of an ensemble: levels fine to coarse plus their wiring."""

    kind: str  # gpcn | plain_ensemble | diffpool
    levels: tuple
    prolongations: tuple = ()  # initial values, fine side first; () when unused
    adaptive: bool = False
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("gpcn", "plain_ensemble", "diffpool"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "prolongations", tuple(self.prolongations))
        if self.kind == "gpcn":
            if len(self.prolongations) != len(self.levels) - 1:
                raise ValueError("gpcn needs one prolongation per adjacent level pair")
            for i, p in enumerate(self.prolongations):
                want = (self.levels[i].n, self.levels[i + 1].n)
                if p.shape != want:
                    raise ValueError(
                        f"prolongation {i} has shape {p.shape}, expected {want}"
                    )
        if self.kind == "plain_ensemble":
            ns = {lvl.n for lvl in self.levels}
            if len(ns) != 1:
                raise ValueError(f"plain_ensemble members must share the node count, got {ns}")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_fine(self) -> int:
        return self.levels[0].n


@dataclass
class ModelParams:
    """Trainable state: per-level filter stacks, prolongation copies (adaptive
    gpcn only; a frozen gpcn reads its spec's), pooling modules (diffpool
    only). The arrays may be tape nodes in a copy made by :meth:`bind`."""

    levels: list
    prolongations: list = field(default_factory=list)
    pools: list = field(default_factory=list)

    def owned_arrays(self, owner: int):
        """(name, array) pairs owned by one level: its filters plus the
        prolongation / pooling module that introduces it (owner >= 1)."""
        out = [
            (f"level{owner}_{name}", arr)
            for name, arr in self.levels[owner].arrays()
        ]
        if owner >= 1 and owner - 1 < len(self.prolongations):
            out.append((f"prolong{owner - 1}", self.prolongations[owner - 1]))
        if owner >= 1 and owner - 1 < len(self.pools):
            pool = self.pools[owner - 1]
            out.append((f"pool{owner - 1}_w", pool.w))
            out.append((f"pool{owner - 1}_b", pool.b))
        return out

    def all_arrays(self):
        out = []
        for owner in range(len(self.levels)):
            out.extend(self.owned_arrays(owner))
        return out

    def bind(self, tape: Tape, owners) -> "ModelParams":
        """A copy in which every array owned by a level in ``owners`` is a
        tape variable; the other arrays stay constants of the forward."""

        def binder(owner):
            return tape.variable if owner in owners else (lambda arr: arr)

        return ModelParams(
            levels=[gp.map(binder(i)) for i, gp in enumerate(self.levels)],
            prolongations=[binder(i + 1)(p) for i, p in enumerate(self.prolongations)],
            pools=[pool.map(binder(i + 1)) for i, pool in enumerate(self.pools)],
        )


@dataclass(frozen=True)
class Hierarchy:
    """Graphs fine to coarse with Laplacians and optimized prolongations."""

    graphs: tuple
    laplacians: tuple
    prolongations: tuple


def make_hierarchy(graphs, alpha: float = 1.0) -> Hierarchy:
    """Compute Laplacians and adjacent-pair prolongations for a graph chain."""
    graphs = tuple(graphs)
    if not graphs:
        raise ValueError("hierarchy needs at least one graph")
    for a, b in zip(graphs, graphs[1:]):
        if b.n > a.n:
            raise ValueError("hierarchy must be ordered fine to coarse")
    laps = tuple(laplacian(g) for g in graphs)
    prols = tuple(gdd(graphs[i + 1], graphs[i], alpha).p for i in range(len(graphs) - 1))
    return Hierarchy(graphs=graphs, laplacians=laps, prolongations=prols)


def paper_hierarchy() -> Hierarchy:
    """Full-size chain: Tube(48,13,3) -> Tube(24,13,1) -> Tube(24,3,0)."""
    return make_hierarchy([make_tube(48, 13, 3), make_tube(24, 13, 1), make_tube(24, 3, 0)])


def desk_hierarchy() -> Hierarchy:
    """Desk-scale chain with the same shape: Tube(12,13,3) -> Tube(6,13,1) -> Tube(6,3,0)."""
    return make_hierarchy([make_tube(12, 13, 3), make_tube(6, 13, 1), make_tube(6, 3, 0)])


_DENSE_HEAD = (256, 32, 8, 1)

# level widths are listed fine to coarse
_TABLE = {
    "single_gcn": ("plain_ensemble", [(64, 64, 64)]),
    "ensemble2": ("plain_ensemble", [(64, 64, 64), (32, 32, 32)]),
    "ensemble3": ("plain_ensemble", [(64, 64, 64), (32, 32, 32), (16, 16, 16)]),
    "gpcn2": ("gpcn", [(32, 32, 32), (64, 64, 64)]),
    "gpcn3": ("gpcn", [(16, 16, 16), (32, 32, 32), (64, 64, 64)]),
    "a_gpcn2": ("gpcn", [(32, 32, 32), (64, 64, 64)]),
    "a_gpcn3": ("gpcn", [(16, 16, 16), (32, 32, 32), (64, 64, 64)]),
    "ngcn3": ("plain_ensemble", [(64, 64, 64)] * 3),
    "ngcn5": ("plain_ensemble", [(64, 64, 64)] * 5),
    "diffpool3": ("diffpool", [(16, 16, 16), (32, 32, 32), (64, 64, 64)]),
}

MODEL_NAMES = tuple(sorted(_TABLE))

_NGCN_RADII = {"ngcn3": (1, 2, 4), "ngcn5": (1, 2, 4, 8, 16)}


def build_from_table(name: str, hierarchy: Hierarchy) -> ModelSpec:
    """Instantiate one of the named ensemble architectures on a hierarchy.

    The hierarchy supplies the structure matrices (and prolongations for the
    multiscale kinds); its fine graph carries every plain ensemble, whose
    member i aggregates with the fine Z to the power of its radius (1 unless
    the name is an N-GCN's).
    """
    if name not in MODEL_NAMES:
        raise ValueError(
            f"unknown model {name!r}; valid names: {', '.join(MODEL_NAMES)}"
        )
    kind, widths = _TABLE[name]
    depth, fine_z = len(widths), hierarchy.laplacians[0]
    if kind == "plain_ensemble":
        radii = _NGCN_RADII.get(name, (1,) * depth)
        zs = [fine_z if r == 1 else structure_power(fine_z, r) for r in radii]
        levels = [GcnSpec(z=z, gcn_widths=w, dense_widths=_DENSE_HEAD) for z, w in zip(zs, widths)]
        return ModelSpec(kind=kind, levels=levels, name=name)
    if len(hierarchy.graphs) < depth:
        raise ValueError(f"{name} needs a hierarchy of at least {depth} graphs")
    if kind == "diffpool":  # levels past the first pool their Z at forward time
        levels = [
            GcnSpec(z=fine_z if i == 0 else None, gcn_widths=w, dense_widths=_DENSE_HEAD, n_nodes=g.n)
            for i, (w, g) in enumerate(zip(widths, hierarchy.graphs))
        ]
        return ModelSpec(kind=kind, levels=levels, name=name)
    zs = hierarchy.laplacians[:depth]
    levels = [GcnSpec(z=z, gcn_widths=w, dense_widths=_DENSE_HEAD) for z, w in zip(zs, widths)]
    return ModelSpec(
        kind=kind,
        levels=levels,
        prolongations=hierarchy.prolongations[: depth - 1],
        adaptive=name.startswith("a_"),
        name=name,
    )


def init_model_params(spec: ModelSpec, in_features: int, rng) -> ModelParams:
    """Initialize filters level by level; adaptive prolongations copy their
    optimized initial values, pooling modules get Glorot filters."""
    levels = [init_gcn_params(lvl, in_features, rng) for lvl in spec.levels]
    prolongations = [np.array(p, dtype=float) for p in spec.prolongations if spec.adaptive]
    pools = []
    if spec.kind == "diffpool":
        for i in range(spec.n_levels - 1):
            n_coarse = spec.levels[i + 1].n
            pools.append(
                GcnLayerParams(w=glorot_uniform(rng, in_features, n_coarse), b=np.zeros(n_coarse))
            )
    return ModelParams(levels=levels, prolongations=prolongations, pools=pools)


def model_graph(tape: Tape, spec: ModelSpec, params: ModelParams, x, level_mask=None) -> Node:
    """Record the full ensemble forward pass.

    Every kind runs one level loop. Level i has a structure matrix Z_i, an
    input X_i and a lift L_i back to the fine scale:

    * plain_ensemble: (the level's Z, x, identity)
    * gpcn: (the level's Z, L_i^T x, L_i = P_1 ... P_i)
    * diffpool: (S_i^T Z_{i-1} S_i, S_i^T X_{i-1}, L_i = S_1 ... S_i), where
      S_i is the row-softmaxed pooling convolution of level i-1

    The level's member reads (Z_i, X_i); its output, lifted by L_i, is added
    to the sum, whose node is returned. Gradients reach only the parameters
    that :meth:`ModelParams.bind` made tape variables. A frozen gpcn reads
    its prolongations from ``spec``. ``level_mask`` restricts the sum to a
    subset of levels (their members still project through every
    intervening prolongation or pooling step); the loop stops at the
    coarsest active level.
    """
    active = set(range(spec.n_levels)) if level_mask is None else set(level_mask)
    if not active:
        raise ValueError("level mask must keep at least one level")
    x = x if isinstance(x, Node) else np.asarray(x, dtype=float)
    prolongations = params.prolongations if spec.adaptive else spec.prolongations
    z, xi, lift = spec.levels[0].z, x, None
    out = None
    for i, lvl in enumerate(spec.levels[: max(active) + 1]):
        if i > 0 and spec.kind == "diffpool":
            pool = params.pools[i - 1]
            s = tape.row_softmax(tape.add(aggregate(tape, z, tape.matmul(xi, pool.w)), pool.b))
            st = tape.transpose(s)
            xi = tape.matmul(st, xi)
            z = tape.matmul(st, aggregate(tape, z, s))
            lift = s if lift is None else tape.matmul(lift, s)
        elif i > 0:
            z = lvl.z
            if spec.kind == "gpcn":
                # products of constant prolongations need no gradient, so
                # the tape keeps them off its graph
                p = prolongations[i - 1]
                lift = p if lift is None else tape.matmul(lift, p)
        if i not in active:
            continue
        if spec.kind == "gpcn" and lift is not None:
            xi = tape.matmul(tape.transpose(lift), x)
        member = gcn_graph(tape, z, params.levels[i], xi)
        contrib = member if lift is None else tape.matmul(lift, member)
        out = contrib if out is None else tape.add(out, contrib)
    return out


def model_forward(spec: ModelSpec, params: ModelParams, x, level_mask=None) -> np.ndarray:
    """Ensemble forward pass to the fine-scale n-by-1 output (batch axis ok)."""
    return model_graph(Tape(), spec, params, x, level_mask=level_mask).value


def ensemble_input_gradient(spec: ModelSpec, params: ModelParams, x) -> np.ndarray:
    """Gradient of the summed ensemble output w.r.t. the n-by-F fine input,
    back-propagated through :func:`model_graph` for every kind.

    Inside each member the tape applies the first-layer rule
    Z_i^T (dE_i/dA_1) W_1^T; the restriction and lift of the level carry
    the result back to the fine scale.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("ensemble_input_gradient expects a single n-by-F signal")
    tape = Tape()
    x_node = tape.variable(x)
    tape.backward(tape.sum(model_graph(tape, spec, params, x_node)))
    return x_node.grad


# ---------------------------------------------------------------------------
# checkpoints


def _csr_arrays(prefix: str, z: StructureMatrix) -> dict:
    return {
        f"{prefix}_data": z.mat.data.astype(float),
        f"{prefix}_indices": z.mat.indices.astype(np.int64),
        f"{prefix}_indptr": z.mat.indptr.astype(np.int64),
    }


def _csr_restore(array, prefix: str, n: int, where: str) -> StructureMatrix:
    """An n-by-n StructureMatrix from a checkpoint's CSR arrays, checked
    first: scipy's own check passes an indptr that ends below zero, and
    eliminate_zeros then writes out of bounds."""
    data = array(f"{prefix}_data")
    indices = array(f"{prefix}_indices").astype(np.int64)
    indptr = array(f"{prefix}_indptr").astype(np.int64)
    if not (
        n >= 0 and len(indptr) == n + 1 and indptr[0] == 0
        and indptr[-1] == len(indices) == len(data) and np.all(np.diff(indptr) >= 0)
        and np.all((indices >= 0) & (indices < n))
    ):
        raise ValueError(f"{where} {prefix}: CSR arrays do not form a {n}-by-{n} matrix")
    return StructureMatrix(mat=sp.csr_matrix((data, indices, indptr), shape=(n, n)))


def save_checkpoint(path, spec: ModelSpec, params: ModelParams) -> None:
    """Self-contained model checkpoint: parameters, prolongations, structure
    matrices, and the architecture manifest (kind, name and layer widths;
    each layer's activation follows from its position)."""
    arrays = dict(params.all_arrays())
    if not spec.adaptive:
        arrays.update((f"prolong{i}", p) for i, p in enumerate(spec.prolongations))
    for i, lvl in enumerate(spec.levels):
        if lvl.z is not None:
            arrays.update(_csr_arrays(f"z{i}", lvl.z))
    meta = {
        "kind": spec.kind,
        "name": spec.name,
        "adaptive": spec.adaptive,
        "n_prolongations": len(spec.prolongations),
        "n_pools": len(params.pools),
        "levels": [
            {
                "n": lvl.n,
                "gcn_widths": list(lvl.gcn_widths),
                "dense_widths": list(lvl.dense_widths),
                "has_z": lvl.z is not None,
            }
            for lvl in spec.levels
        ],
    }
    save_arrays(path, arrays, meta)


# manifest key -> kind, as save_checkpoint writes them
_MANIFEST = {
    "kind": "str", "name": "str", "adaptive": "bool", "n_prolongations": "int",
    "n_pools": "int", "levels": "list",
}
_LEVEL_MANIFEST = {"n": "int", "gcn_widths": "list", "dense_widths": "list", "has_z": "bool"}


def load_checkpoint(path):
    """Restore (spec, params) from :func:`save_checkpoint` output; params
    get their own prolongation copies only when adaptive. Older checkpoints
    also load: their extra manifest keys (every layer's activation, the
    N-GCN radii) are ignored, and their kind ``ngcn`` reads as
    ``plain_ensemble``. A damaged file (a manifest entry missing or of the
    wrong type, an array missing, a structure matrix out of range) raises
    ValueError."""
    arrays, meta = load_arrays(path)
    where = f"{path}: checkpoint"
    for key, kind in _MANIFEST.items():
        check_value(kind, meta.get(key), f"{where} {key}")
    for i, lm in enumerate(meta["levels"]):
        check_value("dict", lm, f"{where} levels[{i}]")
        for key, kind in _LEVEL_MANIFEST.items():
            check_value(kind, lm.get(key), f"{where} levels[{i}] {key}")
        for w in lm["gcn_widths"] + lm["dense_widths"]:
            check_value("int", w, f"{where} levels[{i}] width")

    def array(name):
        if name not in arrays:
            raise ValueError(f"{where} has no array {name!r}")
        return arrays[name]

    def layer(prefix):
        return GcnLayerParams(w=array(f"{prefix}_w"), b=array(f"{prefix}_b"))

    levels, level_params = [], []
    for i, lm in enumerate(meta["levels"]):
        z = _csr_restore(array, f"z{i}", lm["n"], where) if lm["has_z"] else None
        levels.append(
            GcnSpec(
                z=z,
                gcn_widths=tuple(lm["gcn_widths"]),
                dense_widths=tuple(lm["dense_widths"]),
                n_nodes=lm["n"],
            )
        )
        level_params.append(
            GcnParams(
                gcn=[layer(f"level{i}_gcn{j}") for j in range(len(lm["gcn_widths"]))],
                dense=[layer(f"level{i}_dense{j}") for j in range(len(lm["dense_widths"]))],
            )
        )
    prolongations = [array(f"prolong{i}") for i in range(meta["n_prolongations"])]
    spec = ModelSpec(
        kind="plain_ensemble" if meta["kind"] == "ngcn" else meta["kind"],
        levels=levels,
        prolongations=tuple(prolongations),
        adaptive=meta["adaptive"],
        name=meta["name"],
    )
    pools = [layer(f"pool{i}") for i in range(meta["n_pools"])]
    prolongations = [np.array(p) for p in prolongations] if spec.adaptive else []
    return spec, ModelParams(levels=level_params, prolongations=prolongations, pools=pools)
