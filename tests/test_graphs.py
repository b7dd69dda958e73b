
import numpy as np
import pytest

from gpcn.graphs import (
    Graph,
    graph_from_edgelist,
    graph_to_edgelist,
    laplacian,
    make_grid,
    make_tube,
    relabel,
    structure_power,
)
from gpcn.numcore import seeded_rng


def edge_set(g):
    return {(u, v): w for u, v, w in g.edges}


class TestMakeTube:
    def test_microtubule_size(self):
        g = make_tube(48, 13, 3, 1.0)
        assert g.n == 624
        # 13 columns * 47 longitudinal + 48 rings * 12 lateral + 45 seam edges
        assert g.num_edges == 13 * 47 + 48 * 12 + 45

    def test_smallest_tube_merges_coincident_edges(self):
        # k=2 makes lateral and seam edges coincide; weights add
        g = make_tube(2, 2, 0, 1.0)
        assert g.n == 4
        assert edge_set(g) == {(0, 1): 2.0, (2, 3): 2.0, (0, 2): 1.0, (1, 3): 1.0}

    def test_offset_tube_by_enumeration(self):
        g = make_tube(3, 3, 1, 2.0)
        assert g.n == 9
        edges = edge_set(g)
        # hand enumeration of the construction rule: 6 lateral + 6 longitudinal
        # + 2 seam edges (the i=2 seam edge would leave the tube and is dropped)
        assert edges[(2, 3)] == 2.0 and edges[(5, 6)] == 2.0
        seam = [e for e, w in edges.items() if w == 2.0]
        assert sorted(seam) == [(2, 3), (5, 6)]
        assert g.num_edges == 6 + 6 + 2

    def test_zero_offset_tube_is_cycle_times_path(self):
        n, k = 4, 5
        g = make_tube(n, k, 0, 1.0)
        expected = set()
        for i in range(n):
            for j in range(k):
                expected.add(tuple(sorted((i * k + j, i * k + (j + 1) % k))))
                if i + 1 < n:
                    expected.add((i * k + j, (i + 1) * k + j))
        assert set(edge_set(g)) == expected
        assert all(w == 1.0 for w in edge_set(g).values())

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_tube(3, 3, 3, 1.0)  # offset >= n_rings
        with pytest.raises(ValueError):
            make_tube(3, 3, 1, 0.0)  # nonpositive seam weight
        with pytest.raises(ValueError, match="seam_weight"):
            make_tube(3, 4, 1, float("nan"))
        with pytest.raises(ValueError):
            make_tube(1, 3, 0, 1.0)


class TestMakeGrid:
    def test_two_by_two_is_a_cycle(self):
        g = make_grid(2, 2)
        assert set(edge_set(g)) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_path(self):
        g = make_grid(1, 5)
        assert g.n == 5 and g.num_edges == 4

    def test_counting_formula(self):
        g = make_grid(3, 4)
        assert g.n == 12
        assert g.num_edges == 3 * 3 + 4 * 2  # rows*(cols-1) + cols*(rows-1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_grid(0, 3)


class TestLaplacian:
    def test_path_two(self):
        l = laplacian(make_grid(1, 2)).toarray()
        assert np.array_equal(l, [[-1.0, 1.0], [1.0, -1.0]])

    def test_single_node(self):
        l = laplacian(Graph(n=1, edges=())).toarray()
        assert np.array_equal(l, [[0.0]])

    def test_triangle(self):
        tri = Graph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        l = laplacian(tri).toarray()
        assert np.array_equal(np.diag(l), [-2.0, -2.0, -2.0])
        assert l[0, 1] == l[0, 2] == l[1, 2] == 1.0

    def test_rows_sum_to_zero_and_negative_semidefinite(self):
        rng = seeded_rng(0)
        for g in (make_tube(5, 4, 1), make_grid(4, 6), make_tube(3, 7, 2, 2.0)):
            l = laplacian(g)
            degrees = np.abs(l.toarray()).sum(axis=1)
            rowsums = np.asarray(l.mat.sum(axis=1)).ravel()
            assert np.all(np.abs(rowsums) < 1e-12 * np.maximum(degrees, 1.0))
            eigs = np.linalg.eigvalsh(l.toarray())
            assert eigs.max() <= 1e-10


class TestStructurePower:
    def test_first_power_is_identity_operation(self):
        z = laplacian(make_grid(2, 3))
        assert np.array_equal(structure_power(z, 1).toarray(), z.toarray())

    def test_path_two_squared(self):
        z = laplacian(make_grid(1, 2))
        assert np.array_equal(structure_power(z, 2).toarray(), [[2.0, -2.0], [-2.0, 2.0]])

    def test_matches_dense_multiplication(self):
        rng = seeded_rng(1)
        for g in (make_tube(3, 4, 1), make_grid(4, 5)):
            dense = laplacian(g).toarray()
            expected = dense.copy()
            for r in (2, 3, 4):
                expected = expected @ dense
                got = structure_power(laplacian(g), r).toarray()
                assert np.abs(got - np.linalg.matrix_power(dense, r)).max() < 1e-9

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            structure_power(laplacian(make_grid(2, 2)), 0)


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(n=2, edges=((0, 0, 1.0),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            Graph(n=2, edges=((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Graph(n=2, edges=((0, 1, -1.0),))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite"):
            Graph(n=3, edges=((0, 1, weight),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(n=2, edges=((0, 2, 1.0),))


class TestEdgeList:
    def test_round_trip(self):
        g = make_tube(3, 4, 1, 2.0)
        text = graph_to_edgelist(g)
        back = graph_from_edgelist(text)
        assert back.n == g.n and back.edges == g.edges

    def test_deterministic_and_sorted(self):
        g = make_tube(4, 3, 2)
        text = graph_to_edgelist(g)
        assert text == graph_to_edgelist(g)
        lines = text.strip().splitlines()
        assert lines[0] == str(g.n)
        pairs = [tuple(map(int, ln.split()[:2])) for ln in lines[1:]]
        assert pairs == sorted(pairs)


def test_relabel_preserves_structure():
    g = make_tube(3, 3, 1)
    rng = seeded_rng(2)
    perm = rng.permutation(g.n)
    h = relabel(g, perm)
    gw = sorted(w for _, _, w in g.edges)
    hw = sorted(w for _, _, w in h.edges)
    assert gw == hw
    degrees = lambda gr: sorted(np.abs(np.diag(laplacian(gr).toarray())))
    assert degrees(g) == degrees(h)
