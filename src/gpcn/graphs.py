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
from itertools import chain

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "StructureMatrix",
    "tube_neighbors",
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
        if any(len(e) != 3 for e in self.edges):
            raise ValueError("every edge must be a (u, v, weight) triple")
        flat = np.fromiter(chain.from_iterable(self.edges), float, 3 * len(self.edges))
        u, v, w = flat.reshape(-1, 3).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        ok = (lo == np.floor(lo)) & (hi == np.floor(hi)) & (0 <= lo) & (hi < self.n)
        ok &= (lo != hi) & (0 < w) & (w < np.inf)
        n_ok = len(ok) if ok.all() else int(ok.argmin())
        # edges are checked in order, so a duplicate of an earlier edge that
        # comes before the first invalid edge is the one reported
        lo, hi, w = lo[:n_ok].astype(np.int64), hi[:n_ok].astype(np.int64), w[:n_ok]
        key = lo * self.n + hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        dup = order[1:][key[1:] == key[:-1]]
        if dup.size:
            u, v, _ = self.edges[dup.min()]
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
        if n_ok < len(ok):
            _check_edge(self.n, *self.edges[n_ok])
        lo, hi, w = lo[order], hi[order], w[order]
        object.__setattr__(self, "edges", tuple(zip(lo.tolist(), hi.tolist(), w.tolist())))
        # the same edges as arrays, for building matrices and relabelling
        object.__setattr__(self, "_columns", (lo, hi, w))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _check_edge(n: int, u, v, w) -> None:
    """Raise the ValueError that the first invalid edge (u, v, w) earns."""
    if not (float(u).is_integer() and float(v).is_integer()):
        raise ValueError(f"edge ({u},{v}) has a node id that is not an integer")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"self loop at node {u}")
    raise ValueError(f"edge ({u},{v}) weight {w} is not finite and positive")


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


# columns of the tube_neighbors table
PRED, SUCC, BELOW, ABOVE = range(4)


def tube_neighbors(n_rings: int, k_per_turn: int, offset: int) -> np.ndarray:
    """The helical lattice of a tube, as each node's neighbours.

    Returns an (n, 4) integer table whose columns are ``PRED``, ``SUCC``,
    ``BELOW`` and ``ABOVE``: the helical predecessor and successor, and the
    same column in the ring below and above, with -1 where there is none.
    The helix runs along each ring, (i, j) -> (i, j+1), and the seam
    continues it from (i, k-1) to (i+offset, 0), so seam links past the last
    ring are missing. Column ``s ^ 1`` is the back link of column ``s``.
    """
    if n_rings < 2 or k_per_turn < 2:
        raise ValueError("tube needs n_rings >= 2 and k_per_turn >= 2")
    if not (0 <= offset < n_rings):
        raise ValueError(f"offset must satisfy 0 <= offset < n_rings, got {offset}")
    ids = np.arange(n_rings * k_per_turn).reshape(n_rings, k_per_turn)
    seams = n_rings - offset  # rings whose seam link stays on the tube
    nb = np.full(ids.shape + (4,), -1)
    nb[:, 1:, PRED], nb[:, :-1, SUCC] = ids[:, :-1], ids[:, 1:]
    nb[offset:, 0, PRED], nb[:seams, -1, SUCC] = ids[:seams, -1], ids[offset:, 0]
    nb[1:, :, BELOW], nb[:-1, :, ABOVE] = ids[:-1], ids[1:]
    return nb.reshape(-1, 4)


def make_tube(n_rings: int, k_per_turn: int, offset: int, seam_weight: float = 1.0) -> Graph:
    """Helical tube graph on ``n_rings * k_per_turn`` nodes.

    Node (i, j) is ring i, column j, with id ``i * k_per_turn + j``. Each
    node is joined to its helical successor and its ring-above neighbour in
    :func:`tube_neighbors`, with weight 1, except that the seam edges, from
    column k-1 of ring i to column 0 of ring i+offset, weigh ``seam_weight``.
    """
    nb = tube_neighbors(n_rings, k_per_turn, offset)
    if not seam_weight > 0:
        raise ValueError(f"seam_weight must be positive, got {seam_weight}")

    forward = nb[:, [SUCC, ABOVE]]
    u, col = np.nonzero(forward >= 0)
    v = forward[u, col]
    w = np.where((col == 0) & (u % k_per_turn == k_per_turn - 1), float(seam_weight), 1.0)
    # coincident constructions (degenerate tubes with k=2) collapse to a
    # single edge of summed weight, keeping the edge set a set
    n = len(nb)
    key, pos = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
    w = np.bincount(pos, weights=w)
    name = f"Tube({n_rings},{k_per_turn},{offset})"
    if seam_weight != 1.0:
        name += f"[seam={seam_weight:g}]"
    edges = tuple(zip((key // n).tolist(), (key % n).tolist(), w.tolist()))
    return Graph(n=n, edges=edges, name=name)


def make_grid(rows: int, cols: int) -> Graph:
    """4-neighbor lattice on ``rows * cols`` nodes, unit weights, row-major ids."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows >= 1 and cols >= 1")
    ids = np.arange(rows * cols).reshape(rows, cols)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:].ravel()])
    edges = tuple(zip(u.tolist(), v.tolist(), [1.0] * u.size))
    return Graph(n=ids.size, edges=edges, name=f"Grid({rows},{cols})")


def laplacian(g: Graph) -> StructureMatrix:
    """Graph Laplacian A - diag(A @ 1): rows sum to zero, negative semidefinite.

    Built straight into CSR from the sorted edge columns: listing each edge
    (u, v), u < v, as (v, u) first and (u, v) second, one stable argsort by
    row puts every row's columns in ascending order. The degree is the CSR
    product A @ 1, which sums each row in that order, and -degree goes in
    between the columns below and above the diagonal; a node without edges
    keeps an empty row. A degree that overflows raises ValueError.
    """
    lo, hi, w = g._columns
    n = g.n
    rows = np.concatenate([hi, lo])
    order = np.argsort(rows, kind="stable")
    cols, vals = np.concatenate([lo, hi])[order], np.concatenate([w, w])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    deg = sp.csr_matrix((vals, cols, indptr), shape=(n, n)) @ np.ones(n)
    if not np.all(np.isfinite(deg)):
        raise ValueError(f"weighted degree of node {np.argmin(np.isfinite(deg))} overflows")
    # row r's diagonal goes after its columns below r, one per edge (u, r)
    at = indptr[:-1] + np.bincount(hi, minlength=n)
    indptr += np.arange(n + 1)
    data, indices = np.insert(vals, at, -deg), np.insert(cols, at, np.arange(n))
    mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    # StructureMatrix drops the zero diagonal of a node without edges
    return StructureMatrix(mat=mat)


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
    u, v, w = g._columns
    p = np.asarray(perm)
    edges = tuple(zip(p[u].tolist(), p[v].tolist(), w.tolist()))
    return Graph(n=g.n, edges=edges, name=g.name + "~relabel")


def graph_to_edgelist(g: Graph) -> str:
    """Serialize to edge-list text: first line n, then 'u v w' sorted by (u, v)."""
    lines = [str(g.n)]
    for (u, v, w) in g.edges:
        lines.append(f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"


def graph_from_edgelist(text: str, name: str = "") -> Graph:
    """Parse the edge-list text format produced by :func:`graph_to_edgelist`.

    Blank lines are skipped. A line that does not parse raises ValueError
    naming its line number and what was expected there.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list text")
    (i, head), edges = lines[0], []
    if len(head.split()) != 1:
        raise ValueError(f"line {i}: expected the node count alone, got {head!r}")
    n = _parse(i, head, int, "the node count, an integer")
    for i, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"line {i}: expected 'u v weight', got {ln!r}")
        u, v = (_parse(i, t, int, "an integer node id") for t in parts[:2])
        edges.append((u, v, _parse(i, parts[2], float, "a number for the weight")))
    return Graph(n=n, edges=tuple(edges), name=name)


def _parse(line: int, token: str, kind, expected: str):
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"line {line}: expected {expected}, got {token!r}") from None
