"""Graph families and their structure matrices.

Tube graphs model a helical lattice with ``k`` subunits per turn, a seam
where the lateral wrapping closes, and a ring offset across that seam.
Grid graphs are plain 4-neighbor lattices. Both use ring-major node ids
(``node = ring * k + column``), and that indexing is shared by prolongation
matrices and simulation tensors built elsewhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "StructureMatrix",
    "make_tube",
    "make_grid",
    "laplacian",
    "structure_power",
    "relabel",
    "graph_to_edgelist",
    "graph_from_edgelist",
]


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph: node count plus a canonical edge list.

    Edges are stored as (u, v, weight) with u < v, sorted by (u, v).
    No self loops, no duplicate pairs, finite positive weights.
    """

    n: int
    edges: tuple
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one node, got n={self.n}")
        seen = set()
        canon = []
        for (u, v, w) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self loop at node {u}")
            if not 0 < w < np.inf:
                raise ValueError(f"edge ({u},{v}) weight {w} is not finite and positive")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canon.append((key[0], key[1], float(w)))
        canon.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency matrix in CSR form."""
        if not self.edges:
            return sp.csr_matrix((self.n, self.n))
        u, v, w = zip(*self.edges)
        u = np.asarray(u)
        v = np.asarray(v)
        w = np.asarray(w, dtype=float)
        a = sp.coo_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(self.n, self.n),
        )
        out = a.tocsr()
        out.sort_indices()
        return out


@dataclass(frozen=True)
class StructureMatrix:
    """Sparse matrix used as the aggregation operator of a GCN. Its CSR
    transpose and, if it is more than half full, a dense copy are cached on
    first use."""

    mat: sp.csr_matrix = field(repr=False)

    def __post_init__(self):
        m = self.mat.tocsr()
        m.eliminate_zeros()
        m.sort_indices()
        object.__setattr__(self, "mat", m)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()

    @cached_property
    def mat_t(self) -> sp.csr_matrix:
        return self.mat.T.tocsr()

    @cached_property
    def dense(self) -> np.ndarray | None:
        return self.toarray() if 2 * self.nnz > self.mat.shape[0] * self.mat.shape[1] else None


def _merge_edges(acc: dict, u: int, v: int, w: float) -> None:
    # coincident constructions (degenerate tubes with k=2) collapse to a
    # single edge of summed weight, keeping the edge set a set
    key = (min(u, v), max(u, v))
    acc[key] = acc.get(key, 0.0) + w


def make_tube(n_rings: int, k_per_turn: int, offset: int, seam_weight: float = 1.0) -> Graph:
    """Helical tube graph on ``n_rings * k_per_turn`` nodes.

    Node (i, j) is ring i, column j, with id ``i * k_per_turn + j``.
    Longitudinal edges join (i, j)-(i+1, j) and lateral edges join
    (i, j)-(i, j+1), both with weight 1. The seam closes the lateral wrap:
    column k-1 of ring i connects to column 0 of ring i+offset with weight
    ``seam_weight``; seam edges that would run past the last ring are
    dropped.
    """
    if n_rings < 2 or k_per_turn < 2:
        raise ValueError("tube needs n_rings >= 2 and k_per_turn >= 2")
    if not (0 <= offset < n_rings):
        raise ValueError(f"offset must satisfy 0 <= offset < n_rings, got {offset}")
    if not seam_weight > 0:
        raise ValueError(f"seam_weight must be positive, got {seam_weight}")

    k = k_per_turn
    acc: dict = {}
    for i in range(n_rings):
        for j in range(k):
            node = i * k + j
            if i + 1 < n_rings:
                _merge_edges(acc, node, (i + 1) * k + j, 1.0)
            if j + 1 < k:
                _merge_edges(acc, node, i * k + j + 1, 1.0)
        if i + offset < n_rings:
            _merge_edges(acc, i * k + (k - 1), (i + offset) * k, seam_weight)
    name = f"Tube({n_rings},{k},{offset})"
    if seam_weight != 1.0:
        name += f"[seam={seam_weight:g}]"
    edges = tuple((u, v, w) for (u, v), w in acc.items())
    return Graph(n=n_rings * k, edges=edges, name=name)


def make_grid(rows: int, cols: int) -> Graph:
    """4-neighbor lattice on ``rows * cols`` nodes, unit weights, row-major ids."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows >= 1 and cols >= 1")
    edges = []
    for i in range(rows):
        for j in range(cols):
            node = i * cols + j
            if j + 1 < cols:
                edges.append((node, node + 1, 1.0))
            if i + 1 < rows:
                edges.append((node, node + cols, 1.0))
    return Graph(n=rows * cols, edges=tuple(edges), name=f"Grid({rows},{cols})")


def laplacian(g: Graph) -> StructureMatrix:
    """Graph Laplacian A - diag(A @ 1): rows sum to zero, negative semidefinite."""
    a = g.adjacency().tolil()
    deg = np.asarray(a.sum(axis=1)).ravel()
    for i in range(g.n):
        a[i, i] = -deg[i]
    return StructureMatrix(mat=a.tocsr())


def structure_power(z: StructureMatrix, r: int) -> StructureMatrix:
    """r-th power of a structure matrix (repeated sparse product)."""
    if r < 1:
        raise ValueError(f"power must be >= 1, got {r}")
    out = z.mat
    for _ in range(r - 1):
        out = out @ z.mat
    return StructureMatrix(mat=out)


def relabel(g: Graph, perm) -> Graph:
    """Apply a node permutation: new id of node v is perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of range(n)")
    edges = tuple((perm[u], perm[v], w) for (u, v, w) in g.edges)
    return Graph(n=g.n, edges=edges, name=g.name + "~relabel")


def graph_to_edgelist(g: Graph) -> str:
    """Serialize to edge-list text: first line n, then 'u v w' sorted by (u, v)."""
    lines = [str(g.n)]
    for (u, v, w) in g.edges:
        lines.append(f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"


def graph_from_edgelist(text: str, name: str = "") -> Graph:
    """Parse the edge-list text format produced by :func:`graph_to_edgelist`."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list text")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return Graph(n=n, edges=tuple(edges), name=name)
