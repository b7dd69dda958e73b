"""Linear graph diffusion distance and optimized prolongation operators.

The distance between a coarse graph and a fine graph is the infimum over
column-orthonormal matrices P of the Frobenius mismatch between
``(1/alpha) P L_coarse`` and ``alpha L_fine P``. :func:`gdd` computes it in
three steps:

1. compute the eigenvalues of both Laplacians, and no eigenvectors
   (tube and grid Laplacians equal their index reversal, so ``eigvals_sym``
   solves each as two half-size problems),
2. match the ascending spectra by the order-preserving assignment of
   least total cost ``(lam_coarse / alpha - alpha * lam_fine)**2``,
3. lift the optimal subpermutation to P = U_fine Pt U_coarse^T, which is
   the product of the assigned columns of the two eigenbases.

The distance is the assignment cost of step 2. A :class:`Prolongation` is
built from the two graphs, alpha and that cost, and nothing else. Step 3 runs
on the first read of its ``p``: it builds both Laplacians again,
eigendecomposes them with ``eig_sym``, assigns again on those eigenvalues and
lifts, so :func:`coarse_search` and :func:`limit_curve` never solve for an
eigenvector, while :func:`gpcn.ensembles.make_hierarchy` and ``gpcn gdd``
read ``p`` and get the same P as an eager lift. The two solvers' eigenvalues
may differ in the last bits, and the distance with them; the P does not.

Step 2 is exact. With both spectra ascending, the cost (a_j - b_l)**2
with a = lam_coarse / alpha and b = alpha * lam_fine is a Monge matrix: for
j < j' and l < l', c(j, l) + c(j', l') <= c(j, l') + c(j', l), and the
right side exceeds the left by 2 (a_j' - a_j)(b_l' - b_l) >= 0. Uncrossing
two pairs of an injection never raises its cost, so some order-preserving
injection is optimal. :func:`rlap_solve` finds the best one with a dynamic
program over the coarse index: coarse j takes fine j + s with the shift s
nondecreasing in j, so each row of the table is the previous row's running
(prefix) minimum plus the row's band of costs, O(n_c (n_f - n_c + 1)) in
all. Ties are broken by a fixed rule: walking back from the last coarse
index, each coarse index takes the lowest fine index among its equal-cost
choices. The result is an :class:`Assignment`, whose ``fine[j]`` is the fine
index of coarse mode j.

The fine graph's eigenvalues may be passed to :func:`gdd` instead of
computed; then :func:`gdd` builds no fine Laplacian. :func:`coarse_search`
and :func:`limit_curve` compare several coarse graphs with one fine graph, so
each builds every distinct fine Laplacian and its eigenvalues once per call
and hands the eigenvalues to each :func:`gdd`, all in the calling process.
Nothing is kept between calls.

At fixed alpha the lifted assignment is optimal. Rotating into the
eigenbases, Q = U_fine^T P U_coarse has orthonormal columns and the objective
is sum_lj Q_lj**2 * cost_lj. The squared entries of Q have unit column sums
and row sums at most one; the extreme points of that set are
subpermutations, so the infimum equals the assignment cost and the lifted
assignment attains it. Every lifted subpermutation is also a stationary
point of the objective on the Stiefel manifold, so gradient descent could
not move from it either.

:func:`refine_orthogonal` is a standalone tool: Riemannian gradient descent
on the Stiefel manifold (QR retraction, Armijo backtracking line search)
from any column-orthonormal start, returning a :class:`Descent`. :func:`gdd`
does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graphs import Graph, StructureMatrix, laplacian, make_grid, make_tube
from .numcore import EigenSystem, eig_sym, eigvals_sym
from .serialize import check_value

__all__ = [
    "Assignment",
    "Prolongation",
    "Descent",
    "rlap_solve",
    "warm_start",
    "refine_orthogonal",
    "gdd",
    "coarse_search",
    "limit_curve",
]


@dataclass(frozen=True, eq=False)
class Assignment:
    """Injective matching of coarse eigen-indices into fine eigen-indices:
    ``fine[j]`` is the fine index of coarse mode j."""

    fine: np.ndarray
    total_cost: float

    def __post_init__(self):
        if np.unique(self.fine).size != np.size(self.fine):
            raise ValueError("assignment must be injective: a fine index is taken twice")


class Prolongation:
    """The optimal column-orthonormal map from a coarse graph onto a fine graph.

    ``objective`` is the assignment cost, the squared Frobenius residual of
    the diffusion-distance mismatch at ``p``; ``distance`` is its square
    root. ``p`` is built on its first read, which eigendecomposes both
    graphs' Laplacians, assigns, lifts with :func:`warm_start` and checks P,
    so a caller that needs only the distance never solves for an eigenvector.
    """

    def __init__(self, g_coarse: Graph, g_fine: Graph, alpha: float, objective: float):
        self.g_coarse, self.g_fine = g_coarse, g_fine
        self.alpha, self.objective = alpha, _check_objective(objective)

    @cached_property
    def p(self) -> np.ndarray:
        e_coarse, e_fine = (eig_sym(laplacian(g)) for g in (self.g_coarse, self.g_fine))
        a = rlap_solve(e_coarse.lambdas, e_fine.lambdas, self.alpha)
        return _check_prolongation(warm_start(e_coarse, e_fine, a))

    @property
    def distance(self) -> float:
        return float(np.sqrt(max(self.objective, 0.0)))


class Descent(NamedTuple):
    """Result of :func:`refine_orthogonal`: the last iterate, its squared
    mismatch, and the objective at every accepted iterate (nonincreasing)."""

    p: np.ndarray
    objective: float
    trace: tuple


def _check_prolongation(p: np.ndarray) -> np.ndarray:
    if p.shape[0] < p.shape[1]:
        raise ValueError("prolongation must be tall: n_fine >= n_coarse")
    if not np.all(np.isfinite(p)):
        raise ValueError("prolongation has NaN or infinite entries")
    gram_err = np.linalg.norm(p.T @ p - np.eye(p.shape[1]))
    if not gram_err <= 1e-6:
        raise ValueError(f"columns are not orthonormal: |P^T P - I|_F = {gram_err:.3e}")
    return p


def _check_objective(objective: float) -> float:
    if not -1e-12 <= objective < np.inf:
        raise ValueError(f"objective must be finite and nonnegative, got {objective}")
    return objective


def _check_alpha(alpha: float) -> None:
    """The diffusion-distance scale must be a finite positive number."""
    if not check_value("float", alpha, "alpha") > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")


def _check_spectrum(lam, what: str) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValueError(f"{what} spectrum must be 1-D, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"{what} spectrum has non-finite entries")
    if np.any(lam[1:] < lam[:-1]):
        raise ValueError(f"{what} spectrum is not ascending")
    return lam


def rlap_solve(lam_coarse, lam_fine, alpha: float) -> Assignment:
    """Least-cost order-preserving injection of a coarse spectrum into a fine one.

    Both spectra must be ascending; the cost of pairing coarse j with fine l
    is ``(lam_coarse[j] / alpha - alpha * lam_fine[l])**2``. No
    order-crossing injection costs less (see the module docstring), so the
    result is a minimum-cost rectangular assignment. Among equal-cost
    choices the lowest fine index wins, walking back from the last coarse
    index. Only the band of fine indices j..j + n_f - n_c that coarse j can
    take is built, never the full cost matrix.
    """
    x = _check_spectrum(lam_coarse, "coarse")
    y = _check_spectrum(lam_fine, "fine")
    _check_alpha(alpha)
    m, n = x.size, y.size
    if m == 0 or m > n:
        raise ValueError(
            f"need 1 <= coarse size <= fine size for an injection, got {m} and {n}"
        )
    w = n - m + 1
    # best[j, s] starts as the cost of pairing coarse j with fine j + s and
    # becomes the least cost of coarse 0..j with coarse j on fine j + s
    with np.errstate(over="ignore", invalid="ignore"):
        best = alpha * sliding_window_view(y, w)[:m]
        np.subtract(x[:, None] / alpha, best, out=best)
        best *= best
    if not np.all(np.isfinite(best)):
        raise ValueError(f"assignment cost overflows at alpha={alpha!r}")
    prefix_min = np.empty(w)
    for prev, row in zip(best, best[1:]):
        np.minimum.accumulate(prev, out=prefix_min)
        row += prefix_min
    shift = np.empty(m, dtype=np.intp)
    s = w - 1
    for j in range(m - 1, -1, -1):
        s = int(best[j, : s + 1].argmin())  # first minimum: lowest fine index
        shift[j] = s
    fine = np.arange(m) + shift
    d = x / alpha - alpha * y[fine]
    return Assignment(fine=fine, total_cost=float((d * d).sum()))


def warm_start(e_coarse: EigenSystem, e_fine: EigenSystem, a: Assignment) -> np.ndarray:
    """Lift an eigenmode assignment to the map U_fine Pt U_coarse^T.

    Pt is the 0/1 subpermutation with Pt[a.fine[j], j] = 1, so the product
    is the assigned fine eigenvectors, gathered in coarse order, times
    U_coarse^T.
    """
    n_c, n_f, fine = e_coarse.n, e_fine.n, a.fine
    if fine.shape != (n_c,) or not np.all((0 <= fine) & (fine < n_f)):
        raise ValueError(f"assignment must map {n_c} coarse modes to fine indices in 0..{n_f - 1}")
    return e_fine.u[:, fine] @ e_coarse.u.T


def _objective(p, l_coarse, l_fine_mat, alpha):
    m = (p @ l_coarse) / alpha - alpha * (l_fine_mat @ p)
    return float(np.sum(m * m)), m


def _qr_retract(a: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


# stopping and sufficient-decrease constants of refine_orthogonal
_GRAD_TOL = 1e-8
_MAX_ITERS = 1000
_ARMIJO = 1e-4


def refine_orthogonal(
    p0: np.ndarray,
    l_coarse: StructureMatrix,
    l_fine: StructureMatrix,
    alpha: float = 1.0,
) -> Descent:
    """Descend the squared mismatch over matrices with orthonormal columns.

    The Euclidean gradient is projected onto the Stiefel tangent space
    (G - P sym(P^T G)), steps retract through a sign-fixed thin QR, and the
    step size backtracks by halving from 1.0 under the Armijo rule. Stops at
    ``_GRAD_TOL`` on the Riemannian gradient norm or after ``_MAX_ITERS``
    accepted steps; the objective is nonincreasing along the iterates.
    """
    _check_alpha(alpha)
    p = np.array(p0, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("p0 has NaN or infinite entries")
    gram_err = np.linalg.norm(p.T @ p - np.eye(p.shape[1]))
    if not gram_err <= 1e-6:
        raise ValueError(f"p0 columns are not orthonormal: {gram_err:.3e}")
    lc = l_coarse.toarray() if isinstance(l_coarse, StructureMatrix) else np.asarray(l_coarse)
    lf = l_fine.mat if isinstance(l_fine, StructureMatrix) else l_fine

    f, m = _objective(p, lc, lf, alpha)
    trace = [f]
    for _ in range(_MAX_ITERS):
        grad = 2.0 * ((m @ lc) / alpha - alpha * (lf.T @ m))
        ptg = p.T @ grad
        rgrad = grad - p @ ((ptg + ptg.T) / 2.0)
        rnorm2 = float(np.sum(rgrad * rgrad))
        if np.sqrt(rnorm2) < _GRAD_TOL:
            break
        step = 1.0
        accepted = False
        while step > 1e-20:
            cand = _qr_retract(p - step * rgrad)
            fc, mc = _objective(cand, lc, lf, alpha)
            if fc <= f - _ARMIJO * step * rnorm2:
                p, f, m = cand, fc, mc
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # flat to machine precision along this direction
        trace.append(f)
    return Descent(_check_prolongation(p), _check_objective(f), tuple(trace))


def gdd(
    g_coarse: Graph,
    g_fine: Graph,
    alpha: float = 1.0,
    *,
    fine_spectrum: np.ndarray | None = None,
) -> Prolongation:
    """Assign the two spectra, and lift when ``p`` is first read.

    Returns the lifted assignment as a :class:`Prolongation`: its
    ``objective`` is the cost of the assignment between the two
    :func:`~gpcn.numcore.eigvals_sym` spectra and its ``distance`` is the
    linear graph diffusion distance at this ``alpha`` (see the module
    docstring). It holds the two graphs, and builds their Laplacians again
    only if ``p`` is read.

    ``fine_spectrum``, when given, must be ``eigvals_sym(laplacian(g_fine))``,
    an ascending 1-D array, and is used in its place, so a caller comparing
    many coarse graphs with one fine graph computes it once and ``gdd``
    builds no fine Laplacian; the result is the same either way.
    :func:`coarse_search` and :func:`limit_curve` pass it, computing each
    fine spectrum once per call.
    """
    if g_coarse.n > g_fine.n:
        raise ValueError(
            f"first graph must not be larger: {g_coarse.n} > {g_fine.n}"
        )
    if fine_spectrum is not None and np.shape(fine_spectrum) != (g_fine.n,):
        raise ValueError(
            f"fine spectrum has shape {np.shape(fine_spectrum)}, the fine graph {g_fine.n} nodes"
        )
    lam_coarse = eigvals_sym(laplacian(g_coarse))
    lam_fine = eigvals_sym(laplacian(g_fine)) if fine_spectrum is None else fine_spectrum
    assignment = rlap_solve(lam_coarse, lam_fine, alpha)
    return Prolongation(g_coarse, g_fine, alpha, assignment.total_cost)


def _distances(coarse_graphs, g_fine: Graph, alpha: float) -> list:
    """Distance of each coarse graph to ``g_fine``, one :func:`gdd` each,
    with the fine Laplacian and its eigenvalues built once for all."""
    spectrum = eigvals_sym(laplacian(g_fine))
    return [gdd(g, g_fine, alpha, fine_spectrum=spectrum).distance for g in coarse_graphs]


def coarse_search(
    g_fine: Graph,
    n_rings: int,
    k_range,
    p_range,
    seam_weights=(1.0, 2.0),
    alpha: float = 1.0,
):
    """Distance from every candidate tube to a fine graph.

    Candidates are ``make_tube(n_rings, k, p, w)`` over the Cartesian product
    of the given ranges, each distinct value once (seam weights compare as
    floats). Rows come back as (k, p, seam_weight, distance) in
    deterministic (k, p, w) order. Candidates whose offset is infeasible for
    ``n_rings`` are skipped. Every candidate is size-checked before the first
    distance. The fine Laplacian and its eigenvalues are built once and
    reused by every candidate; every distance is computed in the calling
    process.
    """
    _check_alpha(alpha)
    if n_rings < 2:
        raise ValueError(f"candidate ring count n_rings must be at least 2, got {n_rings}")
    ks = sorted(set(k_range))
    ps = [p for p in sorted(set(p_range)) if 0 <= p < n_rings]
    ws = sorted(set(map(float, seam_weights)))
    if not ws:
        raise ValueError("no candidate tubes: seam_weights is empty")
    if not ks:
        raise ValueError("no candidate tubes: k_values is empty")
    if not ps:
        raise ValueError(f"no candidate tubes: no offset in p_values is nonnegative and below {n_rings}")
    cells = [(k, p, w) for k in ks for p in ps for w in ws]
    cands = [make_tube(n_rings, k, p, w) for k, p, w in cells]
    for cand in cands:
        if cand.n > g_fine.n:
            raise ValueError(
                f"candidate {cand.name} has {cand.n} nodes, more than the {g_fine.n} of the fine graph"
            )
    return [cell + (d,) for cell, d in zip(cells, _distances(cands, g_fine, alpha))]


def limit_curve(n_values, k: int = 13, alpha: float = 1.0):
    """Distance of tube and grid families to a twice-as-long offset tube.

    For each distinct n, compares Tube(n, k, 1) and Grid(n, k) against
    Tube(2n, k, 3), whose Laplacian and eigenvalues are built once for both;
    rows are (n, family, distance) ordered by n then family name.
    ``n_values`` may be any iterable, a generator included; it is read once.
    """
    ns = sorted(set(n_values))
    if min(ns, default=1) < 2:
        raise ValueError("n_values must contain integers >= 2")
    rows = []
    for n in ns:
        grid, tube = _distances([make_grid(n, k), make_tube(n, k, 1)], make_tube(2 * n, k, 3), alpha)
        rows += [(n, "grid", grid), (n, "tube", tube)]
    return rows
