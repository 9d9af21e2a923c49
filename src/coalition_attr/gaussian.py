"""Multivariate Gaussian specs, conditioning, and quadratic-form moments.

Everything here is standard linear algebra: Schur-complement conditioning
and the closed-form mean/variance of a quadratic polynomial of a Gaussian
vector. These primitives back the analytic game constructions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import orjson

from .games import GameError, json_numbers, split_masks

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector and covariance matrix of a Gaussian feature vector."""

    mean: np.ndarray
    cov: np.ndarray

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
        S = checked_psd(S)
        mu.setflags(write=False)
        S.setflags(write=False)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", S)

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
    """The (rows, cols) sub-block of A for each row of the index stacks."""
    return A[rows[..., :, None], cols[..., None, :]]


def checked_psd(S: np.ndarray) -> np.ndarray:
    """A covariance (r, r), or a stack of them (..., r, r), checked to be
    PSD: a least eigenvalue below -PSD_TOL raises, and one in [-PSD_TOL, 0)
    is roundoff, so that covariance gets its negative eigenvalues clamped to
    zero. The others are returned as they are."""
    if not S.shape[-1]:
        return S
    low = np.linalg.eigvalsh(S)[..., 0]
    if np.any(low < -PSD_TOL):
        raise GameError(f"covariance is not PSD (min eigenvalue {np.min(low):.3e})")
    neg = low < 0
    if not np.any(neg):
        return S
    w, Q = np.linalg.eigh(S)
    R = (Q * np.maximum(w, 0.0)[..., None, :]) @ _t(Q)
    return np.where(neg[..., None, None], (R + _t(R)) / 2, S)


def _solve_or_pinv(A: np.ndarray, B: np.ndarray, allow_pinv: bool) -> np.ndarray:
    """Solve A X = B for a stack of covariance blocks. A block whose condition
    number exceeds 1e12 is singular: it raises, or with allow_pinv gets the
    pseudo-inverse solution; the others are solved exactly. The blocks are
    symmetric PSD, so their eigenvalues are their singular values, and
    eigvalsh finds them in about half the time of an SVD."""
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
    known, rest, W, _, S = (a[0] for a in _condition_blocks(spec, mask, allow_singular))
    if len(x_known) != len(known):
        raise GameError(f"expected {len(known)} conditioning values, got {len(x_known)}")
    if not len(known):
        return spec
    mu = spec.mean[rest] + W @ (np.asarray(x_known, float) - spec.mean[known])
    return GaussianSpec(mu, S)


@dataclass(frozen=True)
class QuadForm:
    """q(x) = c + b.x + x'Mx with M symmetric; closed under conditioning.

    c (m,), b (m, k) and M (m, k, k) hold a stack of m forms, one per mask.
    """

    c: float
    b: np.ndarray
    M: np.ndarray

    @classmethod
    def from_monomials(cls, monos: dict[tuple[int, ...], float], d: int) -> "QuadForm":
        """Build from an exponent-vector -> coefficient map, total degree <= 2."""
        c = 0.0
        b = np.zeros(d)
        M = np.zeros((d, d))
        for exps, coeff in monos.items():
            deg = sum(exps)
            if deg > 2:
                raise GameError(f"monomial of degree {deg} exceeds the quadratic form")
            support = [i for i, e in enumerate(exps) if e]
            if deg == 0:
                c += coeff
            elif deg == 1:
                b[support[0]] += coeff
            elif len(support) == 1:
                M[support[0], support[0]] += coeff
            else:
                i, j = support
                M[i, j] += coeff / 2
                M[j, i] += coeff / 2
        return cls(c, b, M)

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
    mu_C(x) = m0 + W x and the Schur covariances, one per mask."""
    known, rest = split_masks(masks, spec.d)
    Sca = _block(spec.cov, rest, known)
    W = np.zeros(Sca.shape)
    if known.shape[1]:
        W = _t(_solve_or_pinv(_block(spec.cov, known, known), _t(Sca), allow_pinv))
    m0 = spec.mean[rest] - _mv(W, spec.mean[known])
    Sc = _block(spec.cov, rest, rest) - W @ _t(Sca)
    return known, rest, W, m0, (Sc + _t(Sc)) / 2


def conditional_mean_quad(q: QuadForm, spec: GaussianSpec, masks) -> QuadForm:
    """E[q(X) | X_A = x] as a quadratic form in x (coordinates of A,
    ascending), one form per mask A of an equal-cardinality stack."""
    known, rest, W, m0, Sc = _condition_blocks(spec, masks, allow_pinv=True)
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


def conditional_var_quad(q: QuadForm, spec: GaussianSpec, masks) -> QuadForm:
    """Var[q(X) | X_B = x] as a quadratic form in x (coordinates of B,
    ascending), one form per mask B of an equal-cardinality stack."""
    known, rest, W, m0, Sc = _condition_blocks(spec, masks, allow_pinv=True)
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
