"""Numeric kernels shared by every model in the package.

Dense arrays are plain ndarrays. The training kernels (``spmm``, the
activations, ``adam_step``) compute in their operands' floating dtype,
float32 during training; the eigensolvers work in float64. Sparse operands
are the CSR-backed :class:`~gpcn.graphs.StructureMatrix`. The symmetric
eigensolver and the matrix products delegate to LAPACK/BLAS behind the
contracts tested in ``tests/test_numcore.py`` (deterministic ordering and
sign conventions are enforced here, not assumed from the backend).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import StructureMatrix

__all__ = [
    "NumericalError",
    "seeded_rng",
    "spmm",
    "relu",
    "sigmoid",
    "row_softmax",
    "EigenSystem",
    "eig_sym",
    "eigvals_sym",
    "AdamState",
    "adam_step",
    "glorot_uniform",
]


class NumericalError(RuntimeError):
    """Raised when an iterative routine diverges or fails to converge."""


def seeded_rng(seed) -> np.random.Generator:
    """Deterministic PCG64 generator; the only randomness source in the package."""
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# sparse product


def spmm(z, x: np.ndarray) -> np.ndarray:
    """Sparse-times-dense product touching only stored entries.

    Accepts a StructureMatrix or a scipy sparse matrix on the left. The dense
    operand may carry a leading batch axis: (B, n, F) maps through each batch
    slice.
    """
    m = z.mat if isinstance(z, StructureMatrix) else z
    if not sp.issparse(m):
        raise TypeError("spmm expects a sparse left operand")
    x = np.asarray(x)
    if x.shape[-2] != m.shape[1]:
        raise ValueError(f"spmm dimension mismatch: {m.shape} @ {x.shape}")
    if x.ndim == 2:
        return m @ x
    if x.ndim == 3:
        b, n, f = x.shape
        flat = np.moveaxis(x, 1, 0).reshape(n, b * f)
        out = m @ flat
        return np.moveaxis(out.reshape(m.shape[0], b, f), 0, 1)
    raise ValueError(f"spmm supports 2D or batched 3D operands, got ndim={x.ndim}")


# ---------------------------------------------------------------------------
# activations


def relu(x, out=None):
    """max(x, 0) into ``out`` (a fresh array by default; ``out=x`` works in place)."""
    return np.maximum(x, 0.0, out=np.empty_like(x) if out is None else out)


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) in one pass over ``out`` (a fresh array by default;
    ``out=x`` works in place); exp(-x) = inf gives the exact limit 0.
    -x is floored at -40 (1 + exp(-40) == 1), so exp never takes its slow underflow path."""
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    np.maximum(out, -40.0, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def row_softmax(x):
    """Softmax over the last axis; each row sums to one."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# symmetric eigendecomposition


@dataclass(frozen=True)
class EigenSystem:
    """Orthogonal eigenbasis with eigenvalues sorted ascending."""

    u: np.ndarray = field(repr=False)
    lambdas: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]


# largest |A - A^T| entry eig_sym accepts as symmetric
_SYM_TOL = 1e-9
_HALF_SQRT2 = np.sqrt(0.5)


def _frobenius(x) -> float:
    """||x||_F computed on x / 2**e, with 2**e at or above the largest |x|,
    then scaled back: the squares cannot overflow, and for ordinary input
    the power-of-two scaling is exact, so the result is the plain norm."""
    e = np.frexp(np.max(np.abs(x), initial=0.0))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


def _mirror_blocks(a: np.ndarray):
    """The even and odd blocks of a matrix equal to its reversal JAJ (see
    :func:`_eigh_mirrored`): B + CJ, with the centre row and column scaled
    by sqrt(2) for odd n, and B - CJ."""
    n = a.shape[0]
    h = n // 2
    b, cj = a[:h, :h], a[:h, ::-1][:, :h]
    even = np.empty((n - h, n - h))
    np.add(b, cj, out=even[:h, :h])
    if n % 2:
        even[:h, h] = a[:h, h] * np.sqrt(2.0)
        even[h, :h] = a[h, :h] * np.sqrt(2.0)
        even[h, h] = a[h, h]
    return even, b - cj


def _eigh_mirrored(a: np.ndarray):
    """``eigh`` of a symmetric matrix equal to its reversal JAJ, as two
    half-size problems (Cantoni & Butler, Linear Algebra Appl. 13, 1976).

    With h = n // 2, B = a[:h, :h] and CJ = a[:h, ::-1][:, :h], the
    mirror-even eigenvectors are [x; Jx]/sqrt(2) for x an eigenvector of
    B + CJ and the mirror-odd ones [x; -Jx]/sqrt(2) for x one of B - CJ. For
    odd n the centre node joins the even block with its row and column scaled
    by sqrt(2), and its eigenvector entry is not scaled. Eigenvalues merge by
    a stable ascending sort (even before odd on ties), and the columns are
    written in that order into a fresh C-contiguous U.

    Returns the eigenvalues, U, the even and odd blocks, and the U column of
    each block eigenvector (the even block's n - h first, then the odd's).
    """
    n = a.shape[0]
    h = n // 2
    even, odd = _mirror_blocks(a)
    lam_even, x_even = np.linalg.eigh(even)
    lam_odd, x_odd = np.linalg.eigh(odd)
    lam = np.concatenate([lam_even, lam_odd])
    order = np.argsort(lam, kind="stable")
    col = np.empty(n, dtype=np.intp)
    col[order] = np.arange(n)
    col_even, col_odd = col[: n - h], col[n - h :]
    u = np.empty((n, n))
    top = x_even[:h] * _HALF_SQRT2
    u[:h, col_even] = top
    u[n - h :, col_even] = top[::-1]
    top = x_odd * _HALF_SQRT2
    u[:h, col_odd] = top
    u[n - h :, col_odd] = -top[::-1]
    if n % 2:
        u[h, col_even] = x_even[h]
        u[h, col_odd] = 0.0
    return lam[order], u, even, odd, col


def _mirrored_residual(lam, u, even, odd, col) -> float:
    """||A - U diag(lam) U^T||_F of an :func:`_eigh_mirrored` result, read
    from the returned U and lam and the two blocks the solver built.

    U must first be mirror symmetric bit for bit as ``col`` says:
    ``u[n-h:][::-1] == u[:h]`` in the even columns and ``== -u[:h]`` in the
    odd ones, with a zero centre entry in each odd column for odd n;
    otherwise NumericalError. Then, with the orthogonal
    Q = [[I, I], [J, -J]]/sqrt(2) (and the centre row e_h for odd n),
    Q^T A Q = diag(even, odd) and Q^T U = diag(X_e, X_o) up to a column
    permutation, where X_e is sqrt(2) times U's top rows in the even columns
    (centre row unscaled) and X_o the same in the odd columns. Q keeps the
    Frobenius norm, so the residual is the hypotenuse of the two block
    residuals: two half-size products instead of one full-size product.
    """
    n = u.shape[0]
    h = n // 2
    col_even, col_odd = col[: n - h], col[n - h :]
    top, bottom = u[:h], u[n - h :][::-1]
    if not (
        np.array_equal(bottom[:, col_even], top[:, col_even])
        and np.array_equal(bottom[:, col_odd], -top[:, col_odd])
    ):
        raise NumericalError("mirror eigenbasis breaks the mirror symmetry of its blocks")
    if n % 2 and np.any(u[h, col_odd]):
        raise NumericalError("mirror eigenbasis has a nonzero centre entry in an odd mode")
    x_even = u[: n - h, col_even] * np.sqrt(2.0)
    if n % 2:
        x_even[h] = u[h, col_even]
    x_odd = top[:, col_odd] * np.sqrt(2.0)
    return np.hypot(
        _frobenius(even - (x_even * lam[col_even]) @ x_even.T),
        _frobenius(odd - (x_odd * lam[col_odd]) @ x_odd.T),
    )


def _csr_asymmetry(mat) -> float:
    """max |A - A^T| of a canonical CSR matrix. When the stored pattern is
    symmetric, the transpose's stored entries are the entries in (col, row)
    order, so the value is read off ``data`` in numpy; any other pattern goes
    through scipy's sparse difference, which gives the same number."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    cols = mat.indices
    order = np.lexsort((rows, cols))
    if np.array_equal(cols[order], rows) and np.array_equal(rows[order], cols):
        return np.max(np.abs(mat.data - mat.data[order]), initial=0.0)
    return abs(mat - mat.T).max()


def _checked_dense(m):
    """Dense array and Frobenius norm of ``m`` after the shape, finiteness and
    symmetry checks, made on the CSR arrays for a StructureMatrix."""
    sparse = isinstance(m, StructureMatrix)
    if sparse:
        mat = m.mat
        if not mat.has_canonical_format:
            mat = mat.copy()
            mat.sum_duplicates()
        shape, values = mat.shape, mat.data
    else:
        a = np.asarray(m, dtype=float)
        shape, values = a.shape, a
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("expected a finite matrix, got NaN or infinite entries")
    asym = _csr_asymmetry(mat) if sparse else np.max(np.abs(a - a.T))
    if not asym <= _SYM_TOL:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    return (mat.toarray() if sparse else a), _frobenius(values)


def eig_sym(m) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix with a fixed sign convention.

    Eigenvalues come back ascending. Each eigenvector is flipped so its
    largest-magnitude component (lowest index on ties) is nonnegative, which
    makes the output a deterministic function of the input bits.

    The input checks (non-empty square shape, finite entries, symmetry within
    1e-9) run on the dense array for ndarray input and on the CSR arrays for
    a StructureMatrix, so a sparse Laplacian pays for its stored entries only.

    A matrix that equals its index reversal bit for bit (A = JAJ; every tube
    and grid Laplacian is one, since the 180-degree turn sends node v to
    n - 1 - v) is solved as two half-size problems by :func:`_eigh_mirrored`.
    Its U is checked to satisfy ``u[::-1] == u`` or ``-u`` bit for bit, each
    column as its block says, and its residual is computed in the mirror
    basis by :func:`_mirrored_residual`; that basis is orthogonal, so the
    residual equals the full one at a quarter of the multiplications. As
    |u[i]| = |u[n-1-i]| exactly, the sign rule reads only the top ceil(n/2)
    rows, where every exact mirror tie is won by the lower index anyway.
    Every other matrix goes to ``eigh`` whole, with the full residual
    ||A - U diag(lambda) U^T||_F and the sign rule over all rows. Either way
    U is C-contiguous, eigenvalues that overflow float64 raise ValueError,
    and a residual above 1e-6 * max(||A||_F, 1) raises NumericalError.
    """
    a, norm = _checked_dense(m)
    n = a.shape[0]
    mirrored = np.array_equal(a, a[::-1, ::-1])
    try:
        if mirrored:
            lam, u, *blocks = _eigh_mirrored(a)
        else:
            lam, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues overflow float64")
    if mirrored:
        resid, rows = _mirrored_residual(lam, u, *blocks), n - n // 2
    else:
        resid, rows = _frobenius(a - (u * lam) @ u.T), n
    if not resid <= 1e-6 * max(norm, 1.0):
        raise NumericalError(f"eigendecomposition residual too large: {resid:.3e}")
    # sign convention
    idx = np.argmax(np.abs(u[:rows]), axis=0)
    signs = np.sign(u[idx, np.arange(n)])
    signs[signs == 0] = 1.0
    u *= signs
    return EigenSystem(u=u, lambdas=lam)


def eigvals_sym(m) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, without eigenvectors.

    The input checks, the mirror split and the overflow and convergence
    errors are those of :func:`eig_sym`: a matrix equal to its index reversal
    takes ``eigvalsh`` of its even and odd blocks (:func:`_mirror_blocks`),
    merged in ascending order, and any other matrix ``eigvalsh`` whole.
    With no U there is no residual; instead the spectrum must keep two exact
    identities, sum(lambda) = tr A and ||lambda||_2 = ||A||_F, each within
    1e-6 * max(||A||_F, 1), the residual's tolerance, or NumericalError.
    """
    a, norm = _checked_dense(m)
    try:
        if np.array_equal(a, a[::-1, ::-1]):
            lam = np.concatenate([np.linalg.eigvalsh(b) for b in _mirror_blocks(a)])
            lam.sort()
        else:
            lam = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues overflow float64")
    # both identities are checked on everything divided by 2**e >= max|lambda|,
    # |a_ii| <= max|lambda|: no sum can overflow, and the scaling is exact
    e = int(np.frexp(np.max(np.abs(lam)))[1])
    scaled = np.ldexp(lam, -e)
    trace_gap = abs(scaled.sum() - np.ldexp(np.diagonal(a), -e).sum())
    norm_gap = abs(np.linalg.norm(scaled) - np.ldexp(norm, -e))
    gap = np.ldexp(max(trace_gap, norm_gap), e)
    if not gap <= 1e-6 * max(norm, 1.0):
        raise NumericalError(f"eigenvalues miss the trace or Frobenius norm by {gap:.3e}")
    return lam


# ---------------------------------------------------------------------------
# ADAM


@dataclass
class AdamState:
    """Per-parameter first/second moments plus a shared step count."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params) -> "AdamState":
        state = cls()
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        return state


def adam_step(state: AdamState, params, grads):
    """One ADAM update with bias correction; params are updated in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("params/grads do not match the ADAM state")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init for an (fan_in, fan_out) weight matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
