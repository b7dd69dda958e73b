
import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpcn.graphs import (
    ABOVE,
    BELOW,
    PRED,
    SUCC,
    Graph,
    graph_from_edgelist,
    graph_to_edgelist,
    laplacian,
    make_grid,
    make_tube,
    relabel,
    structure_power,
    tube_neighbors,
)
from gpcn.numcore import seeded_rng

from tests.oracles import (
    adjacency_reference,
    canonical_edges_reference,
    laplacian_reference,
    tube_edges_reference,
)


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

    def test_degree_overflow_names_the_node(self):
        g = Graph(n=3, edges=((0, 1, 1e308), (1, 2, 1e308)))
        with pytest.raises(ValueError, match=r"^weighted degree of node 1 overflows$"):
            laplacian(g)


def assert_same_csr(got, want):
    """The CSR arrays of two structure matrices are equal byte for byte."""
    assert got.mat.shape == want.mat.shape
    for key in ("indptr", "indices", "data"):
        a, b = getattr(got.mat, key), getattr(want.mat, key)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key


NAMED_GRAPHS = {
    "paper-tube": lambda: make_tube(48, 13, 3),
    "desk-tube": lambda: make_tube(12, 13, 3),
    "seam-tube": lambda: make_tube(3, 7, 2, 2.0),
    "k2-tube-coincident": lambda: make_tube(4, 2, 0),
    "grid": lambda: make_grid(5, 7),
    "single-node": lambda: Graph(n=1, edges=()),
    "isolated-nodes": lambda: Graph(n=5, edges=((1, 3, 0.001), (3, 4, 1.0))),
    "relabelled-tube": lambda: relabel(make_tube(12, 13, 3), seeded_rng(5).permutation(156)),
}


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_laplacian_matches_reference_on_named_graphs(name):
    g = NAMED_GRAPHS[name]()
    assert_same_csr(laplacian(g), laplacian_reference(g))


@st.composite
def weighted_graphs(draw, weights=st.floats(1e-3, 1e3, allow_nan=False)):
    """Graphs of 1-12 nodes with any edge subset (isolated nodes included)."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n=n, edges=tuple((u, v, draw(weights)) for u, v in chosen))


@st.composite
def laplacian_graphs(draw):
    """Weighted graphs, graphs weighted 1.0 and 0.001 only (where summing a
    row in another order changes the last bit), k = 2 tubes whose lateral
    and seam edges coincide, each relabelled or not."""
    g = draw(
        st.one_of(
            weighted_graphs(),
            weighted_graphs(st.sampled_from([1.0, 0.001])),
            st.builds(
                lambda n, p, w: make_tube(n, 2, p % n, w),
                st.integers(2, 8), st.integers(0, 7), st.sampled_from([1.0, 0.001, 2.0]),
            ),
        )
    )
    if draw(st.booleans()):
        g = relabel(g, draw(st.permutations(range(g.n))))
    return g


@given(laplacian_graphs())
def test_laplacian_matches_reference_bytes(g):
    assert_same_csr(laplacian(g), laplacian_reference(g))


@given(weighted_graphs())
def test_laplacian_is_adjacency_minus_degree(g):
    a = adjacency_reference(g)
    deg = a @ np.ones(g.n)  # A @ 1, summed over each row's stored entries
    l = laplacian(g).toarray()
    assert np.array_equal(l, a.toarray() - np.diag(deg))
    assert np.all(np.abs(l.sum(axis=1)) <= 1e-12 * np.maximum(deg, 1.0))


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


    def test_rejects_an_edge_that_is_not_a_triple(self):
        with pytest.raises(ValueError, match="triple"):
            Graph(n=3, edges=((0, 1, 1.0), (1, 2)))

    def test_rejects_a_node_id_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="not an integer"):
            Graph(n=3, edges=((0, 1.5, 1.0),))

    def test_reports_the_first_invalid_edge_in_order(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph(n=3, edges=((0, 1, 1.0), (1, 0, 1.0), (1, 2, -1.0)))
        with pytest.raises(ValueError, match="weight -1.0"):
            Graph(n=3, edges=((0, 1, 1.0), (1, 2, -1.0), (1, 0, 1.0)))


@st.composite
def edge_lists(draw):
    """Node counts with short edge lists, valid or not: ids one past either
    end or fractional, weights zero, negative or not finite."""
    n = draw(st.integers(1, 6))
    ids = st.one_of(st.integers(-1, n), st.just(0.5))
    weights = st.sampled_from([1.0, 1.0, 0.5, 2, 2.5, 0.0, -1.0, float("nan"), float("inf")])
    return n, tuple(draw(st.lists(st.tuples(ids, ids, weights), max_size=8)))


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@given(edge_lists())
def test_validation_matches_one_edge_at_a_time_reference(case):
    n, edges = case
    got = _outcome(lambda: Graph(n=n, edges=edges).edges)
    assert got == _outcome(lambda: canonical_edges_reference(n, edges))


@given(st.integers(2, 9), st.integers(2, 14), st.data(), st.sampled_from([1.0, 2.0, 0.5, 3, 1e-3]))
def test_tube_edges_match_one_node_at_a_time_reference(n_rings, k, data, seam_weight):
    offset = data.draw(st.integers(0, n_rings - 1))
    g = make_tube(n_rings, k, offset, seam_weight)
    assert g.edges == tube_edges_reference(n_rings, k, offset, seam_weight)


@given(st.integers(2, 9), st.integers(2, 14), st.data())
def test_tube_neighbors_link_back_and_span_the_tube(n_rings, k, data):
    """Successor and predecessor, and ring above and ring below, are mutual
    back links, and the forward links are exactly make_tube's edges."""
    offset = data.draw(st.integers(0, n_rings - 1))
    nb = tube_neighbors(n_rings, k, offset)
    n = n_rings * k
    assert nb.shape == (n, 4) and nb.min() >= -1 and nb.max() < n
    assert np.array_equal(nb[:-k, ABOVE], np.arange(k, n)) and (nb[-k:, ABOVE] == -1).all()
    for a, b in ((SUCC, PRED), (PRED, SUCC), (ABOVE, BELOW), (BELOW, ABOVE)):
        linked = np.flatnonzero(nb[:, a] >= 0)
        assert np.array_equal(nb[nb[linked, a], b], linked)
    forward = {(min(u, v), max(u, v)) for u in range(n) for v in nb[u, [SUCC, ABOVE]].tolist() if v >= 0}
    assert forward == {(u, v) for u, v, _ in make_tube(n_rings, k, offset).edges}


def test_relabel_matches_reference_on_the_paper_tube():
    g = make_tube(48, 13, 3)
    perm = seeded_rng(4).permutation(g.n).tolist()
    expected = canonical_edges_reference(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    assert relabel(g, perm).edges == expected


class TestEdgeList:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1 1.0\n1 2 1.0\n", "line 1: expected the node count alone, got '0 1 1.0'"),
            ("three\n0 1 1.0\n", "line 1: expected the node count, an integer, got 'three'"),
            ("3\n\n0 1.5 1.0\n", "line 3: expected an integer node id, got '1.5'"),
            ("3\n0 1 1.0\n1 2 x\n", "line 3: expected a number for the weight, got 'x'"),
            ("3\n0 1\n", "line 2: expected 'u v weight', got '0 1'"),
        ],
        ids=["no-node-count", "node-count-not-an-integer", "fractional-node-id", "weight-not-a-number",
             "two-fields"],
    )
    def test_bad_line_names_its_number_and_what_was_expected(self, text, message):
        with pytest.raises(ValueError) as err:
            graph_from_edgelist(text)
        assert str(err.value) == message

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
