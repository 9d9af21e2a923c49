"""Multivariate Gaussian specs, conditioning, and quadratic-form moments.

Everything here is standard linear algebra: Schur-complement conditioning
and the closed-form mean/variance of a quadratic polynomial of a Gaussian
vector. These primitives back the analytic game constructions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import orjson

from .games import GameError, json_numbers, split_masks

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
REGULAR_COND = 1e11  # a spec of condition number at most this has no singular block
SWEEP_BLOCK = 256  # the most coalitions in one block of `sweep`: every state of the low 8 players


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector and covariance matrix of a Gaussian feature vector."""

    mean: np.ndarray
    cov: np.ndarray
    regular: bool = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.array(self.mean, dtype=float).reshape(-1)
        S = np.array(self.cov, dtype=float)
        d = mu.shape[0]
        if S.shape != (d, d):
            raise GameError(f"covariance shape {S.shape} does not match mean length {d}")
        if not (np.isfinite(mu).all() and np.isfinite(S).all()):
            raise GameError("non-finite entry in mean or covariance")
        if d and np.max(np.abs(S - S.T)) > SYMMETRY_TOL:
            raise GameError("covariance is not symmetric")
        w = np.linalg.eigvalsh(S) if d else np.ones(1)
        S = checked_psd(S, w[0])
        mu.setflags(write=False)
        S.setflags(write=False)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", S)
        # By Cauchy interlacing every principal block's eigenvalues lie in
        # [w[0], w[-1]], so at cond <= REGULAR_COND no block can fail the 1e12
        # test of _solve_or_pinv; the 10x margin covers eigvalsh's roundoff,
        # about eps * w[-1]. A repaired covariance (w[0] < 0) is not regular.
        object.__setattr__(self, "regular", bool(w[0] > 0 and w[-1] <= REGULAR_COND * w[0]))

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_json(cls, text: bytes | str) -> "GaussianSpec":
        obj = orjson.loads(text)
        return cls(json_numbers(obj["mean"], "mean"),
                   np.array([json_numbers(row, "cov row") for row in obj["cov"]]))

    def to_json(self) -> str:
        return orjson.dumps({"mean": self.mean.tolist(), "cov": self.cov.tolist()}).decode()


# Stacked linear algebra over the trailing axes; leading axes index masks.
def _t(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (A @ x[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _trace_of_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ji->...", A, B)


def _block(A: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (rows, cols) sub-block of a matrix A for each row of the index
    stacks, gathered through one flat index into A's C-order values."""
    return A.reshape(-1)[rows[..., :, None] * A.shape[1] + cols[..., None, :]]


def checked_psd(S: np.ndarray, low=None) -> np.ndarray:
    """A covariance (r, r), or a stack of them (..., r, r), checked to be
    PSD: a least eigenvalue below -PSD_TOL raises, and one in [-PSD_TOL, 0)
    is roundoff, so that covariance gets its negative eigenvalues clamped to
    zero. The others are returned as they are. `low` is the least
    eigenvalue(s), when the caller has them already."""
    if not S.shape[-1]:
        return S
    low = np.linalg.eigvalsh(S)[..., 0] if low is None else low
    if np.any(low < -PSD_TOL):
        raise GameError(f"covariance is not PSD (min eigenvalue {np.min(low):.3e})")
    neg = low < 0
    if not np.any(neg):
        return S
    w, Q = np.linalg.eigh(S)
    R = (Q * np.maximum(w, 0.0)[..., None, :]) @ _t(Q)
    return np.where(neg[..., None, None], (R + _t(R)) / 2, S)


def _solve_or_pinv(A: np.ndarray, B: np.ndarray, allow_pinv: bool, regular: bool) -> np.ndarray:
    """Solve A X = B for a stack of principal blocks of a covariance. A block
    whose condition number exceeds 1e12 is singular: it raises, or with
    allow_pinv gets the pseudo-inverse solution; the others are solved
    exactly. The blocks of a regular spec cannot be singular and skip the
    test. The blocks are symmetric PSD, so their eigenvalues are their
    singular values, and eigvalsh finds them in about half the time of an SVD."""
    if regular:
        return np.linalg.solve(A, B)
    w = np.linalg.eigvalsh(A)
    singular = w[..., 0] <= w[..., -1] * 1e-12
    if not singular.any():
        return np.linalg.solve(A, B)
    if not allow_pinv:
        raise GameError(
            "conditioning block is singular; pass allow_singular=True for a "
            "pseudo-inverse solution"
        )
    X = np.empty(A.shape[:-1] + B.shape[-1:])
    X[~singular] = np.linalg.solve(A[~singular], B[~singular])
    X[singular] = np.linalg.pinv(A[singular]) @ B[singular]
    return X


def gaussian_conditional(
    spec: GaussianSpec,
    mask: int,
    x_known: np.ndarray,
    allow_singular: bool = False,
) -> GaussianSpec:
    """Condition on the coordinates in `mask` taking values `x_known`.

    Returns the spec of the remaining coordinates (ascending index order):
    mean mu_C + S_CA S_AA^{-1} (x_A - mu_A), covariance the Schur complement.
    """
    known, rest, W, _, S, _ = (a[0] for a in _condition_blocks(spec, mask, allow_singular))
    if len(x_known) != len(known):
        raise GameError(f"expected {len(known)} conditioning values, got {len(x_known)}")
    if not len(known):
        return spec
    mu = spec.mean[rest] + W @ (np.asarray(x_known, float) - spec.mean[known])
    return GaussianSpec(mu, S)


def _sweep_into(S: np.ndarray, m: np.ndarray, X: np.ndarray, h: int, k: int) -> None:
    """States k..2k-1 of S (covariances) and m (means, (N, states, d)): states
    0..k-1 conditioned on coordinate h as well. With u = Σ_A e_h / (Σ_A)_hh,
    Σ_{A+h} = Σ_A - u (e_h' Σ_A) and m_{A+h} = m_A + u (x_h - m_A,h): row h
    of Σ is zeroed by construction, and column h and m_h are set exactly."""
    src, dst = S[:k], S[k:2 * k]
    col = src[:, :, h]
    u = col / col[:, h, None]
    np.multiply(u[:, :, None], src[:, h, None, :], out=dst)
    np.subtract(src, dst, out=dst)
    dst[:, :, h] = 0.0
    if len(X):
        src, dst = m[:, :k], m[:, k:2 * k]
        np.multiply(X[:, None, h, None] - src[..., h, None], u, out=dst)
        dst += src
        dst[..., h] = X[:, None, h]


def sweep(spec: GaussianSpec, X: np.ndarray | None = None):
    """Condition a regular spec on every coalition by the sweep operator
    (Beaton 1964; Goodnight 1979), one rank-one update per coalition.

    Yields, in mask order, blocks (S, m) of at most SWEEP_BLOCK coalitions A:
    S (k, d, d) holds Σ_A, the covariance of X given X_A, zero on A's rows
    and columns; m (N, k, d) the conditional means of the N instances X
    (N, d), x on A (none without X). The players above the low 8 are swept
    first, by doubling; each of their states then goes through the low
    players as one block. The buffers are reused: read a block, or write
    over it, before the next one. Every pivot of a regular spec is at least
    its least eigenvalue, so no pivot is tested.
    """
    d = spec.d
    X = np.empty((0, d)) if X is None else X
    low = min(d, SWEEP_BLOCK.bit_length() - 1)
    high, high_m = np.empty((1 << (d - low), d, d)), np.empty((len(X), 1 << (d - low), d))
    high[0], high_m[:, 0] = spec.cov, spec.mean
    for j in range(d - low):
        _sweep_into(high, high_m, X, low + j, 1 << j)
    S, m = np.empty((1 << low, d, d)), np.empty((len(X), 1 << low, d))
    for i in range(len(high)):
        S[0], m[:, 0] = high[i], high_m[:, i]
        for j in range(low):
            _sweep_into(S, m, X, j, 1 << j)
        yield S, m


@dataclass(frozen=True)
class QuadForm:
    """q(x) = c + b.x + x'Mx with M symmetric; closed under conditioning.

    c (m,), b (m, k) and M (m, k, k) hold a stack of m forms, one per mask.
    """

    c: float
    b: np.ndarray
    M: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """q(x), one point per form (stacks pair up form by form)."""
        x = np.asarray(x, float)
        return self.c + _dot(self.b, x) + _dot(x, _mv(self.M, x))

    def mean_under(self, mu: np.ndarray, S: np.ndarray) -> np.ndarray:
        """E[q(X)] for X ~ N(mu, S) (stacks pair up form by form)."""
        return self.c + _dot(self.b, mu) + _trace_of_product(self.M, S) + _dot(mu, _mv(self.M, mu))

    def var_under(self, mu: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Var[q(X)] for X ~ N(mu, S) (stacks pair up form by form)."""
        g = self.b + 2 * _mv(self.M, mu)
        MS = self.M @ S
        return _dot(g, _mv(S, g)) + 2 * _trace_of_product(MS, MS)


def _condition_blocks(spec: GaussianSpec, masks, allow_pinv: bool):
    """Split each of a stack of equal-cardinality masks into (known, rest)
    index rows; return them with the affine conditional mean maps
    mu_C(x) = m0 + W x, the Schur covariances and the known blocks S_AA,
    one per mask."""
    known, rest = split_masks(masks, spec.d)
    Saa = _block(spec.cov, known, known)
    Sca = _block(spec.cov, rest, known)
    W = np.zeros(Sca.shape)
    if known.shape[1]:
        W = _t(_solve_or_pinv(Saa, _t(Sca), allow_pinv, spec.regular))
    m0 = spec.mean[rest] - _mv(W, spec.mean[known])
    Sc = _block(spec.cov, rest, rest) - W @ _t(Sca)
    return known, rest, W, m0, (Sc + _t(Sc)) / 2, Saa


def conditional_mean_quad(q: QuadForm, blocks) -> QuadForm:
    """E[q(X) | X_A = x] as a quadratic form in x (coordinates of A,
    ascending), one form per mask A of the stack that `blocks`, the
    `_condition_blocks` of the spec, conditions on."""
    known, rest, W, m0, Sc, _ = blocks
    bB, bC = q.b[known], q.b[rest]
    MBB = _block(q.M, known, known)
    MBC = _block(q.M, known, rest)
    MCC = _block(q.M, rest, rest)
    Wt = _t(W)
    MCCm0 = _mv(MCC, m0)
    c = q.c + _dot(bC, m0) + _trace_of_product(MCC, Sc) + _dot(m0, MCCm0)
    b = bB + _mv(Wt, bC) + 2 * _mv(MBC, m0) + 2 * _mv(Wt, MCCm0)
    M = MBB + MBC @ W + Wt @ _t(MBC) + Wt @ MCC @ W
    return QuadForm(c, b, (M + _t(M)) / 2)


def conditional_var_quad(q: QuadForm, blocks) -> QuadForm:
    """Var[q(X) | X_B = x] as a quadratic form in x (coordinates of B,
    ascending), one form per mask B of the stack that `blocks`, the
    `_condition_blocks` of the spec, conditions on."""
    known, rest, W, m0, Sc, _ = blocks
    bC = q.b[rest]
    MCB = _block(q.M, rest, known)
    MCC = _block(q.M, rest, rest)
    # gradient of the complement-quadratic at the conditional mean, affine in x
    g0 = bC + 2 * _mv(MCC, m0)
    G = 2 * MCB + 2 * MCC @ W
    MSc = MCC @ Sc
    c = _dot(g0, _mv(Sc, g0)) + 2 * _trace_of_product(MSc, MSc)
    GtSc = _t(G) @ Sc
    b = 2 * _mv(GtSc, g0)
    M = GtSc @ G
    return QuadForm(c, b, (M + _t(M)) / 2)


def subvector(spec: GaussianSpec, idx) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of coordinates idx of the spec, which validated
    them already; an (m, k) idx gives (m, k) means and (m, k, k) covariances."""
    idx = np.asarray(idx, dtype=np.int64)
    return spec.mean[idx], _block(spec.cov, idx, idx)
