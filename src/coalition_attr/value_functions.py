"""Game constructions from models: marginal (interventional) averages,
conditional expectations under Gaussian features, and conditional-variance
decompositions, each with a closed-form path for quadratic models and a
seeded Monte Carlo fallback.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .games import Game, GameError, build_game, members
from .gaussian import (
    GaussianSpec,
    QuadForm,
    conditional_mean_quad,
    conditional_var_quad,
    gaussian_conditional,
    subvector,
)


@dataclass(frozen=True)
class Model:
    """A prediction function plus, when known, its monomial expansion.

    The monomials certify polynomial degree, which gates the closed-form
    Gaussian paths.
    """

    fn: Callable[[np.ndarray], float]
    d: int
    monos: Optional[dict[tuple[int, ...], float]] = None

    def __call__(self, x) -> float:
        y = float(self.fn(np.asarray(x, dtype=float)))
        if not np.isfinite(y):
            raise GameError(f"model returned non-finite output at {x}")
        return y

    @property
    def degree(self) -> Optional[int]:
        return None if self.monos is None else _expr.degree(self.monos)

    def quad_form(self) -> QuadForm:
        if self.monos is None or self.degree > 2:
            raise GameError(
                "model is not a certified polynomial of degree <= 2; "
                "use a Monte Carlo game construction instead"
            )
        return QuadForm.from_monomials(self.monos, self.d)

    @classmethod
    def from_expression(cls, src: str, d: int) -> "Model":
        tree = _expr.parse(src, d)
        return cls(lambda x: _expr.evaluate(tree, x), d, _expr.monomials(tree, d))


def marginal_game(f: Model, data: np.ndarray, x: np.ndarray) -> Game:
    """v(A) = average prediction with coordinates in A overwritten by x_A.

    Background rows stand in for the feature distribution; v(D) = f(x)
    exactly and v(empty) is the mean background prediction.
    """
    data = np.asarray(data, dtype=float)
    x = np.asarray(x, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise GameError("background data must be a nonempty n x d matrix")
    if data.shape[1] != f.d or x.shape != (f.d,):
        raise GameError("model, data, and instance disagree on feature count")
    if not np.all(np.isfinite(data)):
        raise GameError("background data contains non-finite entries")

    def worth(mask: int) -> float:
        idx = list(members(mask))
        patched = data.copy()
        patched[:, idx] = x[idx]
        return float(np.mean([f(row) for row in patched]))

    return build_game(f.d, worth)


def conditional_gaussian_game(f: Model, spec: GaussianSpec, x: np.ndarray) -> Game:
    """v(A) = E[f(X) | X_A = x_A], exact for quadratic f under Gaussian X."""
    if spec.d != f.d:
        raise GameError("model and Gaussian spec disagree on feature count")
    x = np.asarray(x, dtype=float)
    q = f.quad_form()

    def worth(mask: int) -> float:
        idx = list(members(mask))
        return conditional_mean_quad(q, spec, mask)(x[idx])

    g = build_game(f.d, worth)
    v = g.values.copy()
    v[-1] = f(x)  # exact by construction; pin against roundoff
    return Game(f.d, v)


def conditional_mc_game(
    f: Model, spec: GaussianSpec, x: np.ndarray, n: int, seed: int
) -> Game:
    """Monte Carlo estimate of v(A) = E[f(X) | X_A = x_A]; v(D) = f(x) exactly."""
    if n < 2:
        raise GameError("Monte Carlo needs n >= 2")
    x = np.asarray(x, dtype=float)

    def worth(mask: int) -> float:
        if mask == (1 << f.d) - 1:
            return f(x)
        idx = list(members(mask))
        rest = [j for j in range(f.d) if not (mask >> j) & 1]
        cond = gaussian_conditional(spec, mask, x[idx], allow_singular=True)
        rng = np.random.default_rng(np.random.SeedSequence((seed, mask)))
        draws = rng.multivariate_normal(cond.mean, cond.cov, size=n, method="svd")
        pts = np.empty((n, f.d))
        pts[:, idx] = x[idx]
        pts[:, rest] = draws
        return float(np.mean([f(p) for p in pts]))

    return build_game(f.d, worth)


def sobol_closed_game(
    f: Model,
    spec: GaussianSpec,
    normalize: bool = True,
    mc: Optional[tuple[int, int]] = None,
) -> Game:
    """v(A) = Var(E[f(X) | X_A]), optionally divided by Var f(X).

    Closed form when f is a certified quadratic; otherwise a seeded
    double-loop Monte Carlo (pass mc=(n, seed)).
    """
    return _sobol_game(f, spec, normalize, mc, total_index=False)


def sobol_total_game(
    f: Model,
    spec: GaussianSpec,
    normalize: bool = True,
    mc: Optional[tuple[int, int]] = None,
) -> Game:
    """v(A) = E[Var(f(X) | X_{D\\A})], optionally divided by Var f(X).

    Computed directly from conditional-variance moments (not as a dual),
    so the law-of-total-variance duality stays checkable.
    """
    return _sobol_game(f, spec, normalize, mc, total_index=True)


def _sobol_game(f: Model, spec: GaussianSpec, normalize: bool,
                mc: Optional[tuple[int, int]], total_index: bool) -> Game:
    if spec.d != f.d:
        raise GameError("model and Gaussian spec disagree on feature count")
    if mc is None:
        q = f.quad_form()
        full = (1 << f.d) - 1

        def worth(mask: int) -> float:
            cond_mask = (full ^ mask) if total_index else mask
            idx = list(members(cond_mask))
            if total_index:
                cv = conditional_var_quad(q, spec, cond_mask)
                return cv.mean_under(subvector(spec, idx)) if idx else cv.c
            cm = conditional_mean_quad(q, spec, cond_mask)
            return cm.var_under(subvector(spec, idx)) if idx else 0.0

        g = build_game(f.d, worth)
        total = q.var_under(spec)
    else:
        n, seed = mc
        g = _sobol_mc(f, spec, n, seed, total_index)
        total = g.values[-1]
    if not normalize:
        return g
    if total <= 0:
        raise GameError("total model variance is zero; cannot normalize")
    return Game(f.d, g.values / total)


def _sobol_mc(f: Model, spec: GaussianSpec, n: int, seed: int, total_index: bool) -> Game:
    """Double loop: outer draws of the conditioning block, inner draws of the
    conditional; variance of inner means (closed) or mean of inner variances
    (total)."""
    if n < 2:
        raise GameError("Monte Carlo needs n >= 2")
    n_in = max(64, int(np.sqrt(n)))
    full = (1 << f.d) - 1

    def worth(mask: int) -> float:
        cond_mask = (full ^ mask) if total_index else mask
        idx = list(members(cond_mask))
        rest = [j for j in range(f.d) if not (cond_mask >> j) & 1]
        rng = np.random.default_rng(np.random.SeedSequence((seed, mask, int(total_index))))
        if not rest:  # fully conditioned: inner model value is deterministic
            if total_index:
                return 0.0
            draws = rng.multivariate_normal(spec.mean, spec.cov, size=n, method="svd")
            return float(np.var([f(p) for p in draws], ddof=1))
        if not idx:  # unconditioned
            draws = rng.multivariate_normal(spec.mean, spec.cov, size=n, method="svd")
            return float(np.var([f(p) for p in draws], ddof=1)) if total_index else 0.0
        outer = rng.multivariate_normal(
            spec.mean[idx], spec.cov[np.ix_(idx, idx)], size=n, method="svd"
        )
        stats = np.empty(n)
        for t in range(n):
            cond = gaussian_conditional(spec, cond_mask, outer[t], allow_singular=True)
            inner = rng.multivariate_normal(cond.mean, cond.cov, size=n_in, method="svd")
            pts = np.empty((n_in, f.d))
            pts[:, idx] = outer[t]
            pts[:, rest] = inner
            vals = np.array([f(p) for p in pts])
            stats[t] = np.var(vals, ddof=1) if total_index else np.mean(vals)
        return float(np.mean(stats)) if total_index else float(np.var(stats, ddof=1))

    return build_game(f.d, worth)


def variance_fixture_spec(rho: float) -> GaussianSpec:
    """Three standard-normal features with Corr(X1, X3) = rho."""
    cov = np.array([[1.0, 0.0, rho], [0.0, 1.0, 0.0], [rho, 0.0, 1.0]])
    return GaussianSpec(np.zeros(3), cov)
