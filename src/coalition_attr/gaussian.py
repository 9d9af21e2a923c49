"""Multivariate Gaussian specs, conditioning, and quadratic-form moments.

Everything here is standard linear algebra: Schur-complement conditioning
and the closed-form mean/variance of a quadratic polynomial of a Gaussian
vector. These primitives back the analytic game constructions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .games import GameError, members

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector and covariance matrix of a Gaussian feature vector."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=float).reshape(-1)
        S = np.asarray(self.cov, dtype=float)
        d = mu.shape[0]
        if S.shape != (d, d):
            raise GameError(f"covariance shape {S.shape} does not match mean length {d}")
        if d and np.max(np.abs(S - S.T)) > SYMMETRY_TOL:
            raise GameError("covariance is not symmetric")
        if d:
            eig = np.linalg.eigvalsh(S)
            if eig[0] < -PSD_TOL:
                raise GameError(f"covariance is not PSD (min eigenvalue {eig[0]:.3e})")
            if eig[0] < 0:
                # roundoff repair: clamp eigenvalues in [-PSD_TOL, 0) to zero
                w, Q = np.linalg.eigh(S)
                S = (Q * np.maximum(w, 0.0)) @ Q.T
                S = (S + S.T) / 2
        mu = mu.copy()
        S = np.asarray(S, dtype=float).copy()
        mu.setflags(write=False)
        S.setflags(write=False)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", S)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_json(cls, text: str) -> "GaussianSpec":
        obj = json.loads(text)
        return cls(np.asarray(obj["mean"], float), np.asarray(obj["cov"], float))

    def to_json(self) -> str:
        return json.dumps({"mean": list(self.mean), "cov": [list(r) for r in self.cov]})


def _solve_or_pinv(A: np.ndarray, B: np.ndarray, allow_pinv: bool) -> np.ndarray:
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size and sv[-1] <= sv[0] * 1e-12:
        if not allow_pinv:
            raise GameError(
                "conditioning block is singular; pass allow_singular=True for a "
                "pseudo-inverse solution"
            )
        return np.linalg.pinv(A) @ B
    return np.linalg.solve(A, B)


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
    known, rest, W, _, S = _condition_blocks(spec, mask, allow_singular)
    if len(x_known) != len(known):
        raise GameError(f"expected {len(known)} conditioning values, got {len(x_known)}")
    if not known:
        return spec
    mu = spec.mean[rest] + W @ (np.asarray(x_known, float) - spec.mean[known])
    return GaussianSpec(mu, S)


@dataclass(frozen=True)
class QuadForm:
    """q(x) = c + b.x + x'Mx with M symmetric; closed under conditioning."""

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

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, float)
        return float(self.c + self.b @ x + x @ self.M @ x)

    def mean_under(self, spec: GaussianSpec) -> float:
        """E[q(X)] for X ~ spec."""
        mu, S = spec.mean, spec.cov
        return float(self.c + self.b @ mu + np.trace(self.M @ S) + mu @ self.M @ mu)

    def var_under(self, spec: GaussianSpec) -> float:
        """Var[q(X)] for X ~ spec."""
        mu, S = spec.mean, spec.cov
        g = self.b + 2 * self.M @ mu
        MS = self.M @ S
        return float(g @ S @ g + 2 * np.trace(MS @ MS))


def _condition_blocks(spec: GaussianSpec, mask: int, allow_pinv: bool):
    """Split on `mask` into (known, rest) indices; return them with the
    affine conditional mean map mu_C(x) = m0 + W x and the Schur covariance."""
    known = list(members(mask))
    rest = [j for j in range(spec.d) if not (mask >> j) & 1]
    Saa = spec.cov[np.ix_(known, known)]
    Sca = spec.cov[np.ix_(rest, known)]
    Scc = spec.cov[np.ix_(rest, rest)]
    W = _solve_or_pinv(Saa, Sca.T, allow_pinv).T if known else np.zeros((len(rest), 0))
    m0 = spec.mean[rest] - W @ spec.mean[known]
    Sc = Scc - W @ Sca.T
    return known, rest, W, m0, (Sc + Sc.T) / 2


def conditional_mean_quad(q: QuadForm, spec: GaussianSpec, mask: int) -> QuadForm:
    """E[q(X) | X_A = x] as a quadratic form in x (coordinates of A, ascending)."""
    known, rest, W, m0, Sc = _condition_blocks(spec, mask, allow_pinv=True)
    bB, bC = q.b[known], q.b[rest]
    MBB = q.M[np.ix_(known, known)]
    MBC = q.M[np.ix_(known, rest)]
    MCC = q.M[np.ix_(rest, rest)]
    c = q.c + bC @ m0 + np.trace(MCC @ Sc) + m0 @ MCC @ m0
    b = bB + W.T @ bC + 2 * MBC @ m0 + 2 * W.T @ MCC @ m0
    M = MBB + MBC @ W + W.T @ MBC.T + W.T @ MCC @ W
    return QuadForm(float(c), b, (M + M.T) / 2)


def conditional_var_quad(q: QuadForm, spec: GaussianSpec, mask: int) -> QuadForm:
    """Var[q(X) | X_B = x] as a quadratic form in x (coordinates of B, ascending)."""
    known, rest, W, m0, Sc = _condition_blocks(spec, mask, allow_pinv=True)
    bC = q.b[rest]
    MCB = q.M[np.ix_(rest, known)]
    MCC = q.M[np.ix_(rest, rest)]
    # gradient of the complement-quadratic at the conditional mean, affine in x
    g0 = bC + 2 * MCC @ m0
    G = 2 * MCB + 2 * MCC @ W
    MSc = MCC @ Sc
    c = g0 @ Sc @ g0 + 2 * np.trace(MSc @ MSc)
    b = 2 * G.T @ Sc @ g0
    M = G.T @ Sc @ G
    return QuadForm(float(c), b, (M + M.T) / 2)


def subvector(spec: GaussianSpec, idx: list[int]) -> GaussianSpec:
    return GaussianSpec(spec.mean[idx], spec.cov[np.ix_(idx, idx)])
