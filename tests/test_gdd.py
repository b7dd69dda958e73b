import gc
import importlib
import itertools
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpcn.gdd import (
    Assignment,
    Prolongation,
    coarse_search,
    gdd,
    limit_curve,
    refine_orthogonal,
    rlap_solve,
    warm_start,
)
from gpcn.graphs import Graph, laplacian, make_grid, make_tube, relabel
from gpcn.numcore import eig_sym, eigvals_sym, seeded_rng

from tests.oracles import assignment_cost, rlap_reference, subpermutation


def random_graph(rng, n, extra_edges=2):
    """Connected weighted graph: a random spanning tree plus a few chords."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.5, 2.0))
    for _ in range(extra_edges):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in edges:
            edges[(u, v)] = float(rng.uniform(0.5, 2.0))
    return Graph(n=n, edges=tuple((u, v, w) for (u, v), w in edges.items()))


def brute_force_assignment(cost):
    """Exhaustive minimum-cost injection of rows into columns."""
    n_r, n_c = cost.shape
    best = np.inf
    for cols in itertools.permutations(range(n_c), n_r):
        total = sum(cost[r, c] for r, c in enumerate(cols))
        best = min(best, total)
    return best


def brute_force_distance(g1, g2, alpha=1.0):
    """Minimum full objective over every lifted subpermutation."""
    l1, l2 = laplacian(g1), laplacian(g2)
    e1, e2 = eig_sym(l1), eig_sym(l2)
    l1d, l2d = l1.toarray(), l2.toarray()
    best = np.inf
    for cols in itertools.permutations(range(g2.n), g1.n):
        pt = np.zeros((g2.n, g1.n))
        for j, l in enumerate(cols):
            pt[l, j] = 1.0
        p = e2.u @ pt @ e1.u.T
        m = (p @ l1d) / alpha - alpha * (l2d @ p)
        best = min(best, float(np.sum(m * m)))
    return np.sqrt(best)


class TestAssignmentCost:
    def test_equal_eigenvalues(self):
        assert assignment_cost(-1.5, -1.5, 1.0) == 0.0

    def test_plain_difference(self):
        assert assignment_cost(-2.0, 0.0, 1.0) == 4.0

    def test_scaled(self):
        assert abs(assignment_cost(-4.0, -1.0, np.sqrt(2.0)) - 2.0) < 1e-12

    def test_rejects_nonpositive_alpha(self):
        g = make_tube(2, 2, 0)
        with pytest.raises(ValueError):
            gdd(g, g, alpha=0.0)


def random_spectrum(rng, n, share=()):
    """Ascending nonpositive values, about a third of them repeats of a few
    drawn values, plus any values in ``share`` (to tie with another spectrum)."""
    pool = -rng.uniform(0.0, 8.0, size=max(1, n // 3))
    lam = np.where(rng.random(n) < 0.35, rng.choice(pool, size=n), -rng.uniform(0.0, 8.0, size=n))
    k = min(len(share), n)
    if k:
        lam[:k] = rng.choice(share, size=k, replace=False)
    return np.sort(lam)


def spectral_cost(x, y, alpha):
    return np.array([[assignment_cost(a, b, alpha) for b in y] for a in x])


class TestRlapSolve:
    def test_equal_spectra_pair_in_order(self):
        y = np.array([-3.0, -2.0, -2.0, 0.0])
        a = rlap_solve(y, y, 1.0)
        assert a.fine.tolist() == [0, 1, 2, 3]
        assert a.total_cost == 0.0

    def test_identity_padded(self):
        a = rlap_solve(np.array([-3.0, -1.0]), np.array([-3.0, -2.0, -1.0]), 1.0)
        assert a.fine.tolist() == [0, 2]
        assert a.total_cost == 0.0

    def test_single_row(self):
        a = rlap_solve(np.array([-2.0]), np.array([-5.0, -2.1, -1.0]), 1.0)
        assert a.fine.tolist() == [1]
        d = -2.0 - -2.1
        assert a.total_cost == d * d

    def test_ties_take_the_lowest_fine_index(self):
        assert rlap_solve(np.array([0.0]), np.array([-1.0, 1.0]), 1.0).fine.tolist() == [0]
        a = rlap_solve(np.array([0.0, 0.0]), np.array([-1.0, 1.0, 1.0]), 1.0)
        assert a.fine.tolist() == [0, 1]
        a = rlap_solve(np.full(2, -1.0), np.full(4, -1.0), 2.0)
        assert a.fine.tolist() == [0, 1]

    def test_matches_brute_force(self):
        rng = seeded_rng(0)
        y = random_spectrum(rng, 6)
        x = random_spectrum(rng, 4, share=y)
        for alpha in (0.5, 1.0, 2.0):
            a = rlap_solve(x, y, alpha)
            assert abs(a.total_cost - brute_force_assignment(spectral_cost(x, y, alpha))) < 1e-12

    def test_optimality_over_many_shapes(self):
        rng = seeded_rng(1)
        for _ in range(100):
            n_r = int(rng.integers(1, 6))
            n_c = int(rng.integers(n_r, 8))
            y = random_spectrum(rng, n_c)
            x = random_spectrum(rng, n_r, share=y[: int(rng.integers(0, n_c + 1))])
            for alpha in (0.5, 1.0, 2.0):
                a = rlap_solve(x, y, alpha)
                assert abs(a.total_cost - brute_force_assignment(spectral_cost(x, y, alpha))) < 1e-12

    def test_total_equals_hungarian_over_random_spectral_shapes(self):
        rng = seeded_rng(11)
        for trial in range(200):
            n_f = int(rng.integers(1, 60))
            n_c = int(rng.integers(1, n_f + 1))
            y = random_spectrum(rng, n_f)
            x = random_spectrum(rng, n_c, share=y[: int(rng.integers(0, n_f + 1))])
            alpha = (0.5, 1.0, 2.0)[trial % 3]
            a = rlap_solve(x, y, alpha)
            fine = a.fine.tolist()
            assert len(fine) == n_c and fine == sorted(set(fine)) and 0 <= fine[0] and fine[-1] < n_f
            ref = rlap_reference(spectral_cost(x, y, alpha)).total_cost
            assert abs(a.total_cost - ref) <= 1e-12 * max(ref, 1.0)

    @pytest.mark.parametrize(
        "coarse, fine, alpha, message",
        [
            (np.zeros((2, 2)), np.zeros(4), 1.0, "coarse spectrum must be 1-D"),
            (np.zeros(2), 0.0, 1.0, "fine spectrum must be 1-D"),
            (np.array([np.nan]), np.zeros(2), 1.0, "coarse spectrum has non-finite"),
            (np.zeros(1), np.array([-1.0, np.inf]), 1.0, "fine spectrum has non-finite"),
            (np.array([0.0, -1.0]), np.zeros(3), 1.0, "coarse spectrum is not ascending"),
            (np.zeros(0), np.zeros(2), 1.0, "1 <= coarse size"),
            (np.zeros(1), np.zeros(2), 0.0, "alpha must be positive"),
            (np.zeros(1), np.zeros(2), -1.0, "alpha must be positive"),
            (np.zeros(1), np.zeros(2), float("inf"), "alpha"),
            (np.array([-1.0]), np.array([-2.0, -1.0]), 1e200, r"overflows at alpha=1e\+200"),
            (np.array([-1.0]), np.array([-2.0, -1.0]), 1e-200, "overflows"),
        ],
    )
    def test_rejects_bad_input_with_one_line(self, coarse, fine, alpha, message):
        with pytest.raises(ValueError, match=message) as exc:
            rlap_solve(coarse, fine, alpha)
        assert "\n" not in str(exc.value)

    def test_rejects_wide_matrices(self):
        with pytest.raises(ValueError, match="coarse size <= fine size"):
            rlap_solve(np.zeros(3), np.zeros(2), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            rlap_solve(np.array([np.inf]), np.array([0.0, 1.0]), 1.0)

    def test_assignment_injectivity_enforced(self):
        with pytest.raises(ValueError):
            Assignment(fine=np.array([1, 1]), total_cost=0.0)


class TestWarmStart:
    def test_identity_for_equal_graphs(self):
        g = make_grid(2, 3)
        es = eig_sym(laplacian(g))
        a = Assignment(fine=np.arange(g.n), total_cost=0.0)
        p = warm_start(es, es, a)
        assert np.abs(p - np.eye(g.n)).max() < 1e-10

    def test_orthonormal_columns(self):
        rng = seeded_rng(2)
        g1, g2 = random_graph(rng, 4), random_graph(rng, 7)
        e1, e2 = eig_sym(laplacian(g1)), eig_sym(laplacian(g2))
        p = warm_start(e1, e2, rlap_solve(e1.lambdas, e2.lambdas, 1.0))
        assert np.linalg.norm(p.T @ p - np.eye(4)) < 1e-10

    def test_warm_objective_equals_assignment_cost(self):
        rng = seeded_rng(3)
        for _ in range(10):
            g1, g2 = random_graph(rng, 4), random_graph(rng, 6)
            l1, l2 = laplacian(g1), laplacian(g2)
            e1, e2 = eig_sym(l1), eig_sym(l2)
            a = rlap_solve(e1.lambdas, e2.lambdas, 1.0)
            p = warm_start(e1, e2, a)
            m = p @ l1.toarray() - l2.toarray() @ p
            assert abs(np.sum(m * m) - a.total_cost) < 1e-9

    def test_subpermutation_shape(self):
        a = Assignment(fine=np.array([2, 0]), total_cost=0.0)
        pt = subpermutation(a, 4, 2)
        assert pt[2, 0] == 1.0 and pt[0, 1] == 1.0 and pt.sum() == 2.0

    def test_gather_equals_subpermutation_product(self):
        # a 0/1 factor with one 1 per column only copies entries, so the
        # gathered lift is bit-for-bit the product through the dense matrix
        e1 = eig_sym(laplacian(make_tube(5, 7, 1)))
        e2 = eig_sym(laplacian(make_tube(10, 7, 3)))
        a = rlap_solve(e1.lambdas, e2.lambdas, 1.0)
        expected = e2.u @ subpermutation(a, e2.n, e1.n) @ e1.u.T
        assert np.array_equal(warm_start(e1, e2, a), expected)

    def test_rejects_pair_out_of_range(self):
        # past the end, negative, too short, too long, 2-D
        e = eig_sym(laplacian(make_grid(1, 3)))
        for fine in ([0, 1, 3], [0, -1, 2], [0, 1], [0, 1, 2, 3], [[0, 1, 2]]):
            with pytest.raises(ValueError, match=r"must map 3 coarse modes to fine indices in 0\.\.2"):
                warm_start(e, e, Assignment(fine=np.array(fine), total_cost=0.0))


class TestRefineOrthogonal:
    def test_identity_input_stays(self):
        g = make_grid(2, 2)
        l = laplacian(g)
        result = refine_orthogonal(np.eye(4), l, l)
        assert result.objective < 1e-12
        assert np.abs(result.p - np.eye(4)).max() < 1e-8

    def test_monotone_trace_from_random_start(self):
        rng = seeded_rng(4)
        g1, g2 = random_graph(rng, 4), random_graph(rng, 7)
        p0 = np.linalg.qr(rng.normal(size=(7, 4)))[0]
        result = refine_orthogonal(p0, laplacian(g1), laplacian(g2))
        diffs = np.diff(result.trace)
        assert len(result.trace) >= 1
        assert np.all(diffs <= 1e-12)
        assert result.objective <= result.trace[0] + 1e-12

    def test_orthonormality_preserved(self):
        rng = seeded_rng(5)
        g1, g2 = random_graph(rng, 5), random_graph(rng, 8)
        p0 = np.linalg.qr(rng.normal(size=(8, 5)))[0]
        result = refine_orthogonal(p0, laplacian(g1), laplacian(g2))
        assert np.linalg.norm(result.p.T @ result.p - np.eye(5)) < 1e-6

    def test_rejects_non_orthonormal_start(self):
        g = make_grid(1, 3)
        with pytest.raises(ValueError):
            refine_orthogonal(np.ones((3, 3)), laplacian(g), laplacian(g))

    def test_rejects_non_finite_start(self):
        g = make_grid(1, 3)
        with pytest.raises(ValueError, match="p0 has NaN or infinite entries"):
            refine_orthogonal(np.full((3, 3), np.nan), laplacian(g), laplacian(g))


class TestGdd:
    def test_self_distance_is_zero(self):
        g = make_tube(3, 4, 1)
        assert gdd(g, g).distance < 1e-8

    def test_matches_subpermutation_brute_force_paths(self):
        g1, g2 = make_grid(1, 3), make_grid(1, 4)
        result = gdd(g1, g2)
        assert abs(result.distance - brute_force_distance(g1, g2)) < 1e-6

    def test_never_beaten_by_brute_force(self):
        rng = seeded_rng(6)
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(2, 5)))
            g2 = random_graph(rng, int(rng.integers(5, 7)))
            result = gdd(g1, g2)
            assert result.distance <= brute_force_distance(g1, g2) + 1e-9

    def test_upper_bound_chain(self):
        rng = seeded_rng(7)
        for _ in range(10):
            g1, g2 = random_graph(rng, 4), random_graph(rng, 6)
            l1, l2 = laplacian(g1), laplacian(g2)
            e1, e2 = eig_sym(l1), eig_sym(l2)
            a = rlap_solve(e1.lambdas, e2.lambdas, 1.0)
            result = gdd(g1, g2)
            assert result.objective <= a.total_cost + 1e-9
            # gdd returns the lifted assignment itself
            assert np.abs(result.p - warm_start(e1, e2, a)).max() < 1e-12
            assert abs(result.objective - a.total_cost) < 1e-12

    def test_invariant_under_relabeling(self):
        rng = seeded_rng(8)
        g1, g2 = random_graph(rng, 5), random_graph(rng, 8)
        base = gdd(g1, g2).distance
        for seed in (9, 10):
            prm = seeded_rng(seed)
            d1 = gdd(relabel(g1, prm.permutation(g1.n)), g2).distance
            d2 = gdd(g1, relabel(g2, prm.permutation(g2.n))).distance
            assert abs(d1 - base) < 1e-6
            assert abs(d2 - base) < 1e-6

    def test_rejects_size_order_violation(self):
        with pytest.raises(ValueError):
            gdd(make_grid(2, 3), make_grid(1, 2))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, "1"], ids=repr)
    def test_rejects_alpha_that_is_not_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            gdd(make_grid(1, 2), make_grid(2, 3), alpha=alpha)

    @pytest.mark.parametrize(
        "objective", [np.nan, np.inf, -1.0], ids=["nan-objective", "inf-objective", "negative-objective"]
    )
    def test_prolongation_rejects_nan_and_bad_objective(self, objective):
        # checked when the result is built; a bad P is rejected when read
        # (TestLazyLift::test_reading_a_bad_lift_raises)
        g = make_grid(1, 3)
        with pytest.raises(ValueError, match="objective must be finite and nonnegative"):
            Prolongation(g, g, 1.0, objective)

    def test_given_fine_spectrum_gives_the_same_result(self):
        coarse, fine = make_tube(4, 5, 1), make_tube(8, 5, 3)
        given = gdd(coarse, fine, fine_spectrum=eigvals_sym(laplacian(fine)))
        own = gdd(coarse, fine)
        assert np.array_equal(given.p, own.p)
        assert given.objective == own.objective

    def test_given_fine_spectrum_builds_no_fine_laplacian_until_p_is_read(self, monkeypatch):
        coarse, fine = make_tube(4, 5, 1), make_tube(8, 5, 3)
        spectrum = eigvals_sym(laplacian(fine))
        calls = count_eigensolves(monkeypatch)
        result = gdd(coarse, fine, fine_spectrum=spectrum)
        assert calls["laplacian"] == [coarse.n]
        result.p
        assert calls["laplacian"] == [coarse.n, coarse.n, fine.n]

    def test_rejects_fine_spectrum_of_another_size(self):
        coarse, fine = make_tube(4, 5, 1), make_tube(8, 5, 3)
        with pytest.raises(ValueError, match="fine spectrum"):
            gdd(coarse, fine, fine_spectrum=eigvals_sym(laplacian(coarse)))


def eager_lift(coarse, fine, alpha=1.0):
    """The P that gdd built before the lift was deferred."""
    e_coarse, e_fine = eig_sym(laplacian(coarse)), eig_sym(laplacian(fine))
    return warm_start(e_coarse, e_fine, rlap_solve(e_coarse.lambdas, e_fine.lambdas, alpha))


def count_warm_start(monkeypatch):
    """Count warm_start calls made through the gdd module's global name."""
    gdd_module = importlib.import_module("gpcn.gdd")
    calls = []

    def counting_warm_start(*args):
        calls.append(args[2])
        return warm_start(*args)

    monkeypatch.setattr(gdd_module, "warm_start", counting_warm_start)
    return calls


class TestLazyLift:
    @pytest.mark.parametrize(
        "coarse, fine",
        [
            (make_tube(6, 13, 1), make_tube(12, 13, 3)),
            (make_tube(6, 3, 0), make_tube(6, 13, 1)),
            (make_tube(24, 13, 1), make_tube(48, 13, 3)),
            (make_tube(24, 3, 0), make_tube(24, 13, 1)),
        ],
        ids=["desk-1", "desk-2", "paper-1", "paper-2"],
    )
    def test_p_equals_the_eager_lift(self, coarse, fine):
        assert np.array_equal(gdd(coarse, fine).p, eager_lift(coarse, fine))

    def test_p_equals_the_eager_lift_on_a_relabelled_pair(self):
        perm = seeded_rng(5).permutation(8 * 5).tolist()
        coarse, fine = make_tube(4, 5, 1), relabel(make_tube(8, 5, 3), perm)
        assert np.array_equal(gdd(coarse, fine, 0.8).p, eager_lift(coarse, fine, 0.8))

    def test_distances_never_lift(self, monkeypatch):
        calls = count_warm_start(monkeypatch)
        rows = coarse_search(make_tube(8, 5, 1), 4, range(3, 6), range(0, 3), (1.0, 2.0))
        assert len(rows) == 18
        rows = limit_curve(range(2, 6), k=5)
        assert len(rows) == 8
        assert calls == []

    def test_p_is_lifted_once(self, monkeypatch):
        calls = count_warm_start(monkeypatch)
        result = gdd(make_tube(4, 5, 1), make_tube(8, 5, 3))
        assert calls == []
        first = result.p
        assert result.p is first
        assert len(calls) == 1

    def test_nothing_outlives_the_result(self, monkeypatch):
        # the Laplacians each result holds, and the eigensystems a p read
        # makes, are freed with the result or by the read
        gdd_module = importlib.import_module("gpcn.gdd")
        laplacians, systems = [], []

        def recording(fn, refs):
            def wrapped(arg):
                out = fn(arg)
                refs.append(weakref.ref(out))
                return out

            return wrapped

        monkeypatch.setattr(gdd_module, "laplacian", recording(laplacian, laplacians))
        monkeypatch.setattr(gdd_module, "eig_sym", recording(eig_sym, systems))
        coarse, fine = make_tube(4, 5, 1), make_tube(8, 5, 3)
        distance = gdd(coarse, fine).distance
        kept = gdd(coarse, fine)
        kept_p = kept.p
        gc.collect()
        assert distance == kept.distance and kept_p.shape == (40, 20)
        # two per distance, and two more for the p read
        assert len(laplacians) == 6 and all(ref() is None for ref in laplacians)
        assert len(systems) == 2 and all(ref() is None for ref in systems)

    @pytest.mark.parametrize(
        "coarse, fine, alpha",
        [
            (make_tube(6, 13, 1), make_tube(12, 13, 3), 1.0),
            (make_tube(6, 3, 0), make_tube(6, 13, 1), 1.0),
            (make_tube(24, 13, 1), make_tube(48, 13, 3), 1.0),
            (make_tube(24, 3, 0), make_tube(24, 13, 1), 1.0),
            (make_tube(4, 5, 1), relabel(make_tube(8, 5, 3), seeded_rng(5).permutation(40).tolist()), 0.8),
        ],
        ids=["desk-1", "desk-2", "paper-1", "paper-2", "relabelled"],
    )
    def test_distance_and_p_from_two_solves_agree(self, coarse, fine, alpha):
        # the distance comes from eigvals_sym spectra and P from eig_sym
        # eigensystems: the objective must still be the mismatch at P
        result = gdd(coarse, fine, alpha)
        assert np.array_equal(result.p, eager_lift(coarse, fine, alpha))
        l_coarse, l_fine = laplacian(coarse).toarray(), laplacian(fine).toarray()
        m = result.p @ l_coarse / alpha - alpha * (l_fine @ result.p)
        assert math.isclose(result.objective, float(np.sum(m * m)), rel_tol=1e-9)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda p: p.T, "prolongation must be tall"),
            (lambda p: np.full_like(p, np.nan), "prolongation has NaN or infinite entries"),
            (lambda p: 2.0 * p, "columns are not orthonormal"),
        ],
        ids=["wide", "nan", "not-orthonormal"],
    )
    def test_reading_a_bad_lift_raises(self, monkeypatch, bad, message):
        gdd_module = importlib.import_module("gpcn.gdd")
        monkeypatch.setattr(gdd_module, "warm_start", lambda *args: bad(warm_start(*args)))
        result = gdd(make_tube(4, 5, 1), make_tube(8, 5, 3))
        assert result.distance >= 0.0
        with pytest.raises(ValueError, match=message):
            result.p


def count_eigensolves(monkeypatch):
    """Count eigvals_sym, eig_sym and laplacian calls made through the gdd
    module's global names, as the sizes of the matrices solved or built."""
    gdd_module = importlib.import_module("gpcn.gdd")
    calls = {"eigvals_sym": [], "eig_sym": [], "laplacian": []}

    def counting(fn):
        def wrapped(m):
            calls[fn.__name__].append(m.n)
            return fn(m)

        return wrapped

    monkeypatch.setattr(gdd_module, "eigvals_sym", counting(eigvals_sym))
    monkeypatch.setattr(gdd_module, "eig_sym", counting(eig_sym))
    monkeypatch.setattr(gdd_module, "laplacian", counting(laplacian))
    return calls


class TestCoarseSearch:
    def test_exact_candidate_wins(self):
        fine = make_tube(6, 4, 1)
        rows = coarse_search(fine, 6, k_range=(3, 4), p_range=(0, 1), seam_weights=(1.0,))
        best = min(rows, key=lambda r: r[3])
        assert (best[0], best[1]) == (4, 1)
        assert best[3] < 1e-7

    def test_row_count_and_order(self):
        fine = make_tube(6, 5, 1)
        rows = coarse_search(fine, 3, k_range=(3, 4), p_range=(0, 1), seam_weights=(1.0, 2.0))
        assert len(rows) == 2 * 2 * 2
        keys = [(k, p, w) for k, p, w, _ in rows]
        assert keys == sorted(keys)

    def test_deterministic(self):
        fine = make_tube(4, 4, 1)
        a = coarse_search(fine, 4, k_range=(3,), p_range=(0, 1), seam_weights=(1.0,))
        b = coarse_search(fine, 4, k_range=(3,), p_range=(0, 1), seam_weights=(1.0,))
        assert a == b

    def test_duplicate_values_make_one_candidate(self, monkeypatch):
        # the package re-exports the function gdd under the module's name
        gdd_module = importlib.import_module("gpcn.gdd")
        calls = []

        def counting_gdd(*args, **kwargs):
            calls.append(args[0].name)
            return gdd(*args, **kwargs)

        monkeypatch.setattr(gdd_module, "gdd", counting_gdd)
        rows = coarse_search(make_tube(4, 4, 1), 4, [3, 3], [0, 0], [1.0, 1])
        assert [r[:3] for r in rows] == [(3, 0, 1.0)]
        assert calls == ["Tube(4,3,0)"]

    def test_fine_laplacian_decomposed_once(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        fine = make_tube(6, 5, 1)
        rows = coarse_search(fine, 3, k_range=(3, 4), p_range=(0, 1), seam_weights=(1.0, 2.0))
        assert len(calls["eigvals_sym"]) == len(rows) + 1
        assert calls["eigvals_sym"].count(fine.n) == 1
        assert calls["laplacian"].count(fine.n) == 1
        assert calls["eig_sym"] == []

    def test_rejects_fewer_than_two_rings(self):
        with pytest.raises(ValueError, match="candidate ring count"):
            coarse_search(make_tube(4, 4, 1), 1, k_range=(3,), p_range=(0,))

    def test_full_grid_cardinality(self):
        # the production search: ten turn counts, four offsets, two seam weights
        fine = make_tube(24, 13, 1)
        rows = coarse_search(
            fine, 12, k_range=range(3, 13), p_range=range(4), seam_weights=(1.0, 2.0)
        )
        assert len(rows) == 10 * 4 * 2


class TestLimitCurve:
    def test_rows_ordered_and_families_separate(self):
        rows = limit_curve([5, 4], k=13)
        assert [r[0] for r in rows] == [4, 4, 5, 5]
        by_family = {(n, fam): d for n, fam, d in rows}
        for n in (4, 5):
            tube = by_family[(n, "tube")]
            grid = by_family[(n, "grid")]
            # the two families separate cleanly, the grid family sitting closer
            # to the long tube at this scale
            assert abs(tube - grid) > 5e-3
            assert grid < tube

    def test_each_long_tube_decomposed_once(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        n_values = [3, 4, 5]
        limit_curve(n_values, k=5)
        sizes = calls["eigvals_sym"]
        assert len(sizes) == 3 * len(n_values)
        assert sorted(n for n in sizes if n in (30, 40, 50)) == [30, 40, 50]
        fine_builds = [n for n in calls["laplacian"] if n in (30, 40, 50)]
        assert sorted(fine_builds) == [30, 40, 50]
        assert calls["eig_sym"] == []

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="n_values"):
            limit_curve([])

    def test_reads_a_generator_once(self):
        assert limit_curve((n for n in [4, 5]), k=5) == limit_curve([4, 5], k=5)

    def test_repeated_values_make_one_row_pair(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        rows = limit_curve([4, 4, 3], k=5)
        assert len(calls["eigvals_sym"]) == 3 * 2
        assert calls["eig_sym"] == []
        assert rows == limit_curve([3, 4], k=5)
        assert [(n, family) for n, family, _ in rows] == [
            (3, "grid"), (3, "tube"), (4, "grid"), (4, "tube")
        ]


small_tubes_and_grids = st.one_of(
    st.builds(
        lambda n, k, p: make_tube(n, k, p % n), st.integers(2, 5), st.integers(2, 6), st.integers(0, 4)
    ),
    st.builds(make_grid, st.integers(1, 5), st.integers(1, 6)),
)


@given(small_tubes_and_grids, small_tubes_and_grids, st.data())
def test_distance_is_invariant_under_relabel(g1, g2, data):
    # a tube or grid equals its index reversal and is decomposed as two
    # mirror blocks; relabelled it (almost always) goes to eigh whole, so
    # this compares the two eig_sym paths through the distance
    coarse, fine = sorted((g1, g2), key=lambda g: g.n)
    base = gdd(coarse, fine).distance
    coarse_r = relabel(coarse, data.draw(st.permutations(range(coarse.n))))
    fine_r = relabel(fine, data.draw(st.permutations(range(fine.n))))
    # isomorphic pairs are at distance 0, where only rounding is left
    for c, f in ((coarse_r, fine), (coarse, fine_r)):
        assert math.isclose(gdd(c, f).distance, base, rel_tol=1e-9, abs_tol=1e-12)
    for g in (coarse, coarse_r):
        assert gdd(g, g).distance == 0.0


def test_package_leaves_scipy_optimize_unimported():
    # importing scipy.optimize costs about as much as the rest of the
    # package's imports; only the tests' Hungarian reference needs it
    import gpcn

    code = (
        "import sys, gpcn, gpcn.cli\n"
        "from gpcn.ensembles import desk_hierarchy\n"
        "desk_hierarchy()\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gpcn.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
