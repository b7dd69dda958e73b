import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

import gpcn.numcore as numcore
from gpcn.graphs import Graph, StructureMatrix, laplacian, make_grid, make_tube, relabel
from gpcn.numcore import (
    AdamState,
    NumericalError,
    adam_step,
    eig_sym,
    eigvals_sym,
    glorot_uniform,
    relu,
    row_softmax,
    seeded_rng,
    sigmoid,
    spmm,
)

from tests.oracles import sigmoid_plain, sigmoid_two_branch


class TestProducts:
    def test_spmm_forced_small_case(self):
        z = laplacian(make_grid(1, 2))
        out = spmm(z, np.array([[1.0], [0.0]]))
        assert np.array_equal(out, [[-1.0], [1.0]])

    def test_spmm_matches_dense(self):
        rng = seeded_rng(2)
        z = laplacian(make_grid(5, 6))
        x = rng.normal(size=(30, 7))
        assert np.abs(spmm(z, x) - z.toarray() @ x).max() < 1e-10

    def test_spmm_batched(self):
        rng = seeded_rng(3)
        z = laplacian(make_grid(2, 3))
        xb = rng.normal(size=(4, 6, 2))
        out = spmm(z, xb)
        for i in range(4):
            assert np.abs(out[i] - z.toarray() @ xb[i]).max() < 1e-12

    def test_spmm_rejects_dense_left(self):
        with pytest.raises(TypeError):
            spmm(np.eye(2), np.zeros((2, 2)))


class TestActivations:
    def test_relu(self):
        assert relu(np.array([-1.0]))[0] == 0.0
        assert relu(np.array([2.0]))[0] == 2.0

    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extremes_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert 0.0 <= out[0] < 1e-12 and 1.0 - 1e-12 < out[1] <= 1.0

    def test_sigmoid_matches_two_branch_oracle(self):
        # a grid plus +-709.8, just past where exp overflows, and +-745, where
        # exp(-745) is the last subnormal
        x = np.concatenate([np.linspace(-1000.0, 1000.0, 20001), [-745.0, 745.0, -709.8, 709.8]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(x)
            out0 = sigmoid(np.array(-745.0))
        assert np.abs(out - sigmoid_two_branch(x)).max() <= 2.3e-16
        assert out0.shape == () and abs(out0 - sigmoid_two_branch(np.array([-745.0]))[0]) <= 2.3e-16

    @staticmethod
    def _sigmoid_sweep():
        """A fine grid over [-1000, 1000] plus the infinities, both zeros, the
        band where 1 + exp(-x) becomes 1, where exp overflows (709.8) and
        where exp(-x) leaves the subnormals (745-746)."""
        edges = [np.inf, 0.0, *np.linspace(36.0, 41.0, 501), 709.8, *np.linspace(745.0, 746.0, 101)]
        edges = np.array(edges)
        return np.concatenate([np.linspace(-1000.0, 1000.0, 4_000_001), edges, -edges])

    def test_sigmoid_bit_identical_to_plain_formula(self):
        x = self._sigmoid_sweep()
        out = sigmoid(x)
        assert np.array_equal(out, sigmoid_plain(x))
        assert np.array_equal(np.signbit(out), np.signbit(sigmoid_plain(x)))

    def test_sigmoid_exp_never_underflows(self):
        # the floor at -40 keeps exp off its slow subnormal path. exp runs on
        # the whole sweep before the divide, so an underflow in exp would
        # raise first; only the divide may underflow, where the result is
        # itself subnormal (x in about (-709.8, -708.4))
        x = self._sigmoid_sweep()
        want = sigmoid_plain(x)
        normal = (want == 0.0) | (want >= np.finfo(float).tiny)
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow encountered in divide"):
                sigmoid(x)
            sigmoid(x[normal])
        band = x[~normal]
        assert band.size > 0 and band.min() > -709.8 and band.max() < -708.3

    def test_in_place_is_bitwise_the_fresh_result(self):
        x = np.concatenate([np.linspace(-50.0, 50.0, 1001), [-0.0, np.inf, -np.inf]])
        for act in (relu, sigmoid):
            fresh, buf = act(x), x.copy()
            assert act(buf, out=buf) is buf and np.array_equal(buf, fresh)
            assert np.array_equal(np.signbit(buf), np.signbit(fresh))
            zero_d = act(np.array(-1.5))
            assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()

    def test_row_softmax_uniform(self):
        out = row_softmax(np.zeros((1, 3)))
        assert np.abs(out - 1.0 / 3.0).max() < 1e-15

    def test_row_softmax_rows_sum_to_one(self):
        x = seeded_rng(4).normal(size=(5, 7)) * 10
        assert np.abs(row_softmax(x).sum(axis=1) - 1.0).max() < 1e-10


class TestEigSym:
    def test_diagonal_matrix(self):
        es = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(es.lambdas, [1.0, 2.0, 3.0])
        perm = np.abs(es.u)
        assert np.array_equal(np.sort(perm.ravel()), np.sort(np.eye(3).ravel()))

    def test_path_two_laplacian(self):
        es = eig_sym(laplacian(make_grid(1, 2)))
        assert np.abs(es.lambdas - np.array([-2.0, 0.0])).max() < 1e-12
        r2 = 1.0 / np.sqrt(2.0)
        assert np.abs(es.u[:, 0] - np.array([r2, -r2])).max() < 1e-12
        assert np.abs(es.u[:, 1] - np.array([r2, r2])).max() < 1e-12

    def test_reconstruction_residual(self):
        rng = seeded_rng(5)
        a = rng.normal(size=(8, 8))
        a = (a + a.T) / 2
        es = eig_sym(a)
        resid = np.linalg.norm(a - (es.u * es.lambdas) @ es.u.T)
        assert resid < 1e-8
        assert np.linalg.norm(es.u.T @ es.u - np.eye(8)) < 1e-8

    def test_deterministic_bits(self):
        a = seeded_rng(6).normal(size=(6, 6))
        a = a + a.T
        e1, e2 = eig_sym(a), eig_sym(a.copy())
        assert e1.u.tobytes() == e2.u.tobytes()
        assert e1.lambdas.tobytes() == e2.lambdas.tobytes()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "m",
        [[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]],
        ids=["nan-diagonal", "inf-diagonal", "nan-pair"],
    )
    def test_rejects_non_finite(self, m):
        with pytest.raises(ValueError, match="expected a finite matrix"):
            eig_sym(np.array(m))

    @pytest.mark.parametrize(
        "m",
        [[[-1e308, 1e308], [1e308, -1e308]], [[-1e308, 1e308, 0.0], [1e308, -1e308, 0.0], [0.0, 0.0, 1.0]]],
        ids=["mirror-split", "general"],
    )
    def test_rejects_eigenvalues_past_float64(self, m):
        # finite entries whose eigenvalue -2e308 overflows
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="eigenvalues overflow"):
            eig_sym(np.array(m))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            eig_sym(np.zeros((0, 0)))

    def test_huge_entries_raise_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            es = eig_sym(np.diag([1e200, -1e200]))
        assert np.array_equal(es.lambdas, [-1e200, 1e200])

    def test_huge_entries_still_reject_a_wrong_basis(self, monkeypatch):
        # squaring 1e200 overflows, which once made the threshold inf
        eigh = np.linalg.eigh
        c, s = np.cos(0.1), np.sin(0.1)

        def rotated(a):
            lam, u = eigh(a)
            return lam, u @ np.array([[c, -s], [s, c]])

        monkeypatch.setattr(np.linalg, "eigh", rotated)
        with pytest.raises(NumericalError, match="residual too large"):
            eig_sym(np.diag([1e200, -1e200]))


def mirror_symmetric(rng, n):
    """Random symmetric matrix equal to its index reversal bit for bit."""
    s = rng.normal(size=(n, n))
    s = s + s.T
    return s + s[::-1, ::-1]


def is_mirror_symmetric(u):
    """Each column equals its reversal or its negated reversal bit for bit."""
    return all(
        np.array_equal(u[::-1, j], u[:, j]) or np.array_equal(u[::-1, j], -u[:, j])
        for j in range(u.shape[1])
    )


@pytest.fixture
def mirrored_calls(monkeypatch):
    """Record the size of every matrix eig_sym solves by the split path."""
    calls = []
    split = numcore._eigh_mirrored

    def counting(a):
        calls.append(a.shape[0])
        return split(a)

    monkeypatch.setattr(numcore, "_eigh_mirrored", counting)
    return calls


class TestEigSymMirrored:
    CASES = {
        "tube-even": lambda: laplacian(make_tube(12, 13, 3)).toarray(),
        "grid-odd": lambda: laplacian(make_grid(5, 7)).toarray(),
        "random-even": lambda: mirror_symmetric(seeded_rng(20), 10),
        "random-odd": lambda: mirror_symmetric(seeded_rng(21), 11),
        "path-2": lambda: laplacian(make_grid(1, 2)).toarray(),
        "single": lambda: np.array([[2.5]]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_split_path_matches_eigh_contracts(self, case, mirrored_calls):
        a = self.CASES[case]()
        n = a.shape[0]
        es = eig_sym(a)
        assert mirrored_calls == [n]
        assert np.abs(es.lambdas - np.linalg.eigvalsh(a)).max() <= 1e-12 * max(1.0, np.abs(a).max())
        assert np.all(np.diff(es.lambdas) >= 0)
        assert np.abs(es.u.T @ es.u - np.eye(n)).max() < 1e-12
        assert np.linalg.norm(a - (es.u * es.lambdas) @ es.u.T) < 1e-11 * max(1.0, np.linalg.norm(a))
        assert is_mirror_symmetric(es.u)
        assert es.u.flags.c_contiguous
        # sign rule: the largest magnitude (lowest index on ties) is positive
        top = np.argmax(np.abs(es.u), axis=0)
        assert np.all(es.u[top, np.arange(n)] > 0)

    def test_odd_size_has_zero_centre_in_odd_modes(self):
        es = eig_sym(laplacian(make_grid(3, 3)))
        odd = [j for j in range(9) if not np.array_equal(es.u[::-1, j], es.u[:, j])]
        assert len(odd) == 4
        assert all(es.u[4, j] == 0.0 for j in odd)

    def test_exact_degeneracy_across_the_blocks(self, mirrored_calls):
        # two mirrored paths 0-1-2 and 3-4-5: the even and odd blocks are the
        # same matrix, so every eigenvalue is an exact pair, even mode first
        g = Graph(n=6, edges=((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)))
        es = eig_sym(laplacian(g))
        assert mirrored_calls == [6]
        assert np.array_equal(es.lambdas[0::2], es.lambdas[1::2])
        assert np.abs(es.lambdas - np.repeat([-3.0, -1.0, 0.0], 2)).max() < 1e-12
        for j in range(0, 6, 2):
            assert np.array_equal(es.u[::-1, j], es.u[:, j])
            assert np.array_equal(es.u[::-1, j + 1], -es.u[:, j + 1])
        assert np.abs(es.u.T @ es.u - np.eye(6)).max() < 1e-12

    def test_bitwise_repeat_and_layout_on_both_paths(self, mirrored_calls):
        a = laplacian(make_tube(6, 5, 1)).toarray()
        b = a.copy()
        b[0, 0] = np.nextafter(b[0, 0], 0.0)
        for m in (a, b):
            e1, e2 = eig_sym(m), eig_sym(m.copy())
            assert e1.u.tobytes() == e2.u.tobytes()
            assert e1.lambdas.tobytes() == e2.lambdas.tobytes()
            assert e1.u.flags.c_contiguous
        assert mirrored_calls == [30, 30]

    def test_one_ulp_off_takes_the_general_path(self, mirrored_calls):
        a = laplacian(make_tube(6, 5, 1)).toarray()
        a[0, 0] = np.nextafter(a[0, 0], 0.0)
        es = eig_sym(a)
        assert mirrored_calls == []
        assert np.abs(es.lambdas - np.linalg.eigvalsh(a)).max() <= 1e-12
        assert np.linalg.norm(a - (es.u * es.lambdas) @ es.u.T) < 1e-11

    def test_relabelled_tube_takes_the_general_path(self, mirrored_calls):
        g = make_tube(6, 5, 1)
        eig_sym(laplacian(relabel(g, seeded_rng(22).permutation(g.n))))
        assert mirrored_calls == []


def _drop_odd_sign(u, even, odd):
    h = u.shape[0] // 2
    u[-h:, odd[0]] *= -1.0


def _swap_even_columns(u, even, odd):
    u[:, [even[0], even[-1]]] = u[:, [even[-1], even[0]]]


def _drop_sqrt_half(u, even, odd):
    u[:, even[1]] *= np.sqrt(2.0)


def _perturb_entry(u, even, odd):
    u[0, even[1]] = np.nextafter(u[0, even[1]], np.inf)


def _perturb_mirror_pair(u, even, odd):
    u[0, even[1]] += 1e-3
    u[-1, even[1]] = u[0, even[1]]


def _set_odd_centre(u, even, odd):
    u[u.shape[0] // 2, odd[0]] = 1e-3


# corruption of an assembled mirror U, given its even and odd columns -> the
# message of the check that must catch it
CORRUPTIONS = {
    "dropped-odd-sign": (_drop_odd_sign, "breaks the mirror symmetry"),
    "swapped-columns": (_swap_even_columns, "residual too large"),
    "missing-sqrt-half": (_drop_sqrt_half, "residual too large"),
    "perturbed-entry": (_perturb_entry, "breaks the mirror symmetry"),
    "perturbed-mirror-pair": (_perturb_mirror_pair, "residual too large"),
    "nonzero-odd-centre": (_set_odd_centre, "nonzero centre entry"),
}
MIRROR_MATRICES = {
    "tube-even": lambda: laplacian(make_tube(6, 5, 1)),
    "grid-odd": lambda: laplacian(make_grid(5, 7)),
}


class TestEigSymMirrorChecks:
    @pytest.mark.parametrize(
        "matrix, corruption",
        [
            (m, c)
            for m in sorted(MIRROR_MATRICES)
            for c in sorted(CORRUPTIONS)
            # an even-sized basis has no centre row
            if not (m == "tube-even" and c == "nonzero-odd-centre")
        ],
    )
    def test_corrupted_assembly_raises(self, monkeypatch, matrix, corruption):
        corrupt, message = CORRUPTIONS[corruption]
        split = numcore._eigh_mirrored

        def corrupted(a):
            lam, u, even, odd, col = split(a)
            corrupt(u, col[: even.shape[0]], col[even.shape[0] :])
            return lam, u, even, odd, col

        monkeypatch.setattr(numcore, "_eigh_mirrored", corrupted)
        with pytest.raises(NumericalError, match=message):
            eig_sym(MIRROR_MATRICES[matrix]())

    @pytest.mark.parametrize(
        "build",
        [
            lambda: laplacian(make_tube(12, 13, 3)),
            lambda: laplacian(make_grid(5, 7)),
            lambda: laplacian(relabel(make_tube(6, 5, 1), seeded_rng(23).permutation(30))),
            lambda: StructureMatrix(mat=sp.csr_matrix(mirror_symmetric(seeded_rng(24), 9))),
        ],
        ids=["tube", "grid", "relabelled-tube", "dense-random"],
    )
    def test_structure_matrix_and_ndarray_agree_bitwise(self, build, mirrored_calls):
        z = build()
        sparse, dense = eig_sym(z), eig_sym(z.toarray())
        assert sparse.u.tobytes() == dense.u.tobytes()
        assert sparse.lambdas.tobytes() == dense.lambdas.tobytes()
        assert len(mirrored_calls) in (0, 2)

    @pytest.mark.parametrize(
        "m",
        [
            [[np.nan, 1.0], [1.0, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
            [[0.0, 1.0], [0.0, 0.0]],
            [[1.0, 2.0, 0.0], [2.0, 1.0, 1e-8], [0.0, 0.0, 1.0]],
        ],
        ids=["nan", "inf", "asymmetric", "asymmetric-slightly"],
    )
    def test_csr_input_raises_the_dense_message(self, m):
        dense = np.array(m)
        with pytest.raises(ValueError) as want:
            eig_sym(dense)
        with pytest.raises(ValueError) as got:
            eig_sym(StructureMatrix(mat=sp.csr_matrix(dense)))
        assert str(got.value) == str(want.value)

    def test_csr_duplicates_are_summed_before_the_checks(self):
        # two stored copies of (0, 0), finite alone, overflow when summed
        mat = sp.csr_matrix(([1e308, 1e308, 1.0], [0, 0, 1], [0, 2, 3]), shape=(2, 2))
        with pytest.raises(ValueError, match="expected a finite matrix"):
            eig_sym(StructureMatrix(mat=mat))


    @pytest.mark.parametrize(
        "dense",
        [
            # equal values stored at (0, 1) and (1, 0), a different one at (1, 2)
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0 + 3e-9, 1.0]]),
            # (1, 2) stored, (2, 1) not
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 5e-9], [0.0, 0.0, 1.0]]),
        ],
        ids=["value-asymmetric", "structure-asymmetric"],
    )
    def test_csr_asymmetry_is_the_scipy_number(self, dense):
        mat = sp.csr_matrix(dense)
        want = abs(mat - mat.T).max()
        assert numcore._csr_asymmetry(mat) == want
        message = f"matrix is not symmetric: max |A - A^T| = {want:.3e}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            eig_sym(StructureMatrix(mat=mat))

    def test_csr_asymmetry_of_a_symmetric_pattern(self):
        mat = laplacian(relabel(make_tube(6, 5, 1), seeded_rng(25).permutation(30))).mat.copy()
        assert numcore._csr_asymmetry(mat) == 0.0
        mat.data[3] += 1e-3  # an off-diagonal entry, its mirror unchanged
        assert numcore._csr_asymmetry(mat) == abs(mat - mat.T).max() > 0.0


class TestEigvalsSym:
    CASES = {
        "tube-even": lambda: laplacian(make_tube(12, 13, 3)),
        "grid-odd": lambda: laplacian(make_grid(5, 7)),
        "relabelled-tube": lambda: laplacian(
            relabel(make_tube(6, 5, 1), seeded_rng(26).permutation(30))
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_eig_sym_eigenvalues(self, case):
        z = self.CASES[case]()
        a = z.toarray()
        assert np.array_equal(a, a[::-1, ::-1]) == (case != "relabelled-tube")
        want, got = eig_sym(z).lambdas, eigvals_sym(z)
        assert got.shape == want.shape and np.all(np.diff(got) >= 0)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize(
        "m",
        [
            np.zeros((0, 0)),
            np.zeros((2, 3)),
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[-1e308, 1e308], [1e308, -1e308]]),
            np.array([[-1e308, 1e308, 0.0], [1e308, -1e308, 0.0], [0.0, 0.0, 1.0]]),
        ],
        ids=["empty", "non-square", "nan", "asymmetric", "overflow-mirrored", "overflow-general"],
    )
    def test_raises_the_eig_sym_message(self, m):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as want:
                eig_sym(m)
            with pytest.raises(ValueError) as got:
                eigvals_sym(m)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "m",
        [laplacian(make_grid(3, 5)), laplacian(relabel(make_tube(4, 5, 1), seeded_rng(27).permutation(20)))],
        ids=["mirrored", "general"],
    )
    def test_moment_check_catches_a_perturbed_eigenvalue(self, monkeypatch, m):
        eigvalsh = np.linalg.eigvalsh

        def perturbed(a):
            lam = eigvalsh(a)
            lam[-1] += 1e-3
            return lam

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(NumericalError, match="trace or Frobenius norm"):
            eigvals_sym(m)

    def test_huge_entries_raise_no_overflow_warning(self):
        # the sum and the norm of these spectra overflow unless scaled
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(eigvals_sym(np.diag([1e200, -1e200])), [-1e200, 1e200])
            assert np.array_equal(eigvals_sym(np.diag([1e308, 1e308, 1.0])), [1.0, 1e308, 1e308])


@given(st.integers(2, 12), st.integers(2, 14), st.data(), st.sampled_from([1.0, 2.0, 0.5, 3.0]))
def test_tube_laplacians_are_exactly_mirror_symmetric(n_rings, k, data, seam_weight):
    # the 180-degree turn (i, j) -> (n-1-i, k-1-j) maps every tube onto itself
    # and node v to n*k - 1 - v, which sends eig_sym down its split path
    offset = data.draw(st.integers(0, n_rings - 1))
    a = laplacian(make_tube(n_rings, k, offset, seam_weight)).toarray()
    assert np.array_equal(a, a[::-1, ::-1])


@given(st.integers(1, 12), st.integers(1, 14))
def test_grid_laplacians_are_exactly_mirror_symmetric(rows, cols):
    a = laplacian(make_grid(rows, cols)).toarray()
    assert np.array_equal(a, a[::-1, ::-1])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0])
        state = AdamState.for_params([p])
        adam_step(state, [p], [np.zeros(2)])
        assert np.array_equal(p, [1.0, -2.0])

    def test_single_step_matches_hand_formula(self):
        p = np.array([0.0])
        state = AdamState.for_params([p])
        adam_step(state, [p], [np.array([1.0])])
        # bias-corrected m=1, v=1: step = lr / (1 + eps)
        assert abs(p[0] + 0.001 / (1.0 + 1e-7)) < 1e-15
        assert abs(p[0] + 0.001) < 1e-6

    def test_descends_quadratic(self):
        p = np.array([1.0])
        state = AdamState.for_params([p])
        for _ in range(5000):
            adam_step(state, [p], [2.0 * p])
        assert abs(p[0]) < 1e-2

    def test_shape_mismatch(self):
        p = np.array([0.0, 0.0])
        state = AdamState.for_params([p])
        with pytest.raises(ValueError):
            adam_step(state, [p], [np.zeros(3)])


def test_glorot_uniform_bounds():
    rng = seeded_rng(7)
    w = glorot_uniform(rng, 30, 50)
    limit = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.5 * limit
