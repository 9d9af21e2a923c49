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
from .games import Game, GameError, build_game, full_mask, split_masks
from .gaussian import (
    GaussianSpec,
    QuadForm,
    _condition_blocks,
    conditional_mean_quad,
    conditional_var_quad,
    gaussian_conditional,
    subvector,
)

MAX_ROWS = 1 << 13  # the most points any one model call sees


@dataclass(frozen=True)
class Model:
    """A prediction function plus, when known, its monomial expansion.

    fn maps an (n, d) array of rows to their n outputs. The monomials
    certify polynomial degree, which gates the closed-form Gaussian paths.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    d: int
    monos: Optional[dict[tuple[int, ...], float]] = None

    def __call__(self, x):
        """f at one point (d,), as a float, or at each row of an (n, d) array."""
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, self.d)
        y = np.asarray(self.fn(rows), dtype=float)
        if y.shape != (len(rows),):
            raise GameError(f"model returned shape {y.shape} for {len(rows)} rows")
        bad = ~np.isfinite(y)
        if bad.any():
            raise GameError(f"model returned non-finite output at {rows[np.argmax(bad)]}")
        return float(y[0]) if x.ndim == 1 else y

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
        return cls(lambda X: _expr.evaluate(tree, X), d, _expr.monomials(tree, d))


def _outputs(f: Model, pts: np.ndarray) -> np.ndarray:
    """f at every row of pts, one model call per MAX_ROWS rows."""
    return np.concatenate([f(pts[lo:lo + MAX_ROWS]) for lo in range(0, len(pts), MAX_ROWS)])


def _per_coalition(d: int, one: Callable[[int], float]) -> Game:
    """The game whose oracle gets one coalition per call, for the pointwise
    paths: each coalition already hands the model its own block of rows,
    so the oracle is called once per coalition."""
    return build_game(d, lambda masks: np.array([one(int(m)) for m in masks]), chunk=1)


def _check_features(f: Model, spec: GaussianSpec, x: np.ndarray) -> None:
    if spec.d != f.d or x.shape != (f.d,):
        raise GameError("model, Gaussian spec, and instance disagree on feature count")


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
        # built feature by feature, so the model reads contiguous columns
        cols = data.T.copy()
        known = split_masks(mask, f.d)[0][0]
        cols[known] = x[known, None]
        return float(_outputs(f, cols.T).mean())

    return _per_coalition(f.d, worth)


def conditional_gaussian_game(f: Model, spec: GaussianSpec, x: np.ndarray) -> Game:
    """v(A) = E[f(X) | X_A = x_A], exact for quadratic f under Gaussian X."""
    x = np.asarray(x, dtype=float)
    _check_features(f, spec, x)
    q = f.quad_form()

    def worth(masks: np.ndarray) -> np.ndarray:
        known, _ = split_masks(masks, f.d)
        return conditional_mean_quad(q, spec, masks)(x[known])

    g = build_game(f.d, worth)
    v = g.values.copy()
    v[-1] = f(x)  # exact by construction; pin against roundoff
    return Game(f.d, v)


def conditional_mc_game(
    f: Model, spec: GaussianSpec, x: np.ndarray, n: int, seed: int
) -> Game:
    """Monte Carlo estimate of v(A) = E[f(X) | X_A = x_A]; v(D) = f(x) exactly.

    Each mask draws from its own SeedSequence((seed, mask)).
    """
    if n < 2:
        raise GameError("Monte Carlo needs n >= 2")
    x = np.asarray(x, dtype=float)
    _check_features(f, spec, x)

    def worth(mask: int) -> float:
        if mask == full_mask(f.d):
            return f(x)
        known, rest = (a[0] for a in split_masks(mask, f.d))
        cond = gaussian_conditional(spec, mask, x[known], allow_singular=True)
        rng = np.random.default_rng(np.random.SeedSequence((seed, mask)))
        pts = np.empty((n, f.d))
        pts[:, known] = x[known]
        pts[:, rest] = rng.multivariate_normal(cond.mean, cond.cov, size=n, method="svd")
        return float(_outputs(f, pts).mean())

    return _per_coalition(f.d, worth)


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
        full = full_mask(f.d)

        def worth(masks: np.ndarray) -> np.ndarray:
            cond_masks = (full ^ masks) if total_index else masks
            known, _ = split_masks(cond_masks, f.d)
            mu, S = subvector(spec, known)
            if total_index:
                return conditional_var_quad(q, spec, cond_masks).mean_under(mu, S)
            return conditional_mean_quad(q, spec, cond_masks).var_under(mu, S)

        g = build_game(f.d, worth)
        total = float(q.var_under(spec.mean, spec.cov))
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
    (total).

    Each mask draws from its own SeedSequence((seed, mask, total_index)):
    first the n outer draws, then n_in inner draws per outer draw, in the
    order of one sampler call per outer draw. The conditional is factorised
    once per mask, and each model call takes the inner draws of as many
    outer draws as fit in MAX_ROWS points.
    """
    if n < 2:
        raise GameError("Monte Carlo needs n >= 2")
    n_in = max(64, int(np.sqrt(n)))
    full = full_mask(f.d)

    def one(mask: int) -> float:
        cond_mask = (full ^ mask) if total_index else mask
        if cond_mask == (full if total_index else 0):
            return 0.0  # the conditional variance, or the inner mean, never varies
        rng = np.random.default_rng(np.random.SeedSequence((seed, mask, int(total_index))))
        if cond_mask in (0, full):  # the other one is Var f(X)
            draws = rng.multivariate_normal(spec.mean, spec.cov, size=n, method="svd")
            return float(np.var(_outputs(f, draws), ddof=1))
        known, rest, W, _, Sc = (a[0] for a in _condition_blocks(spec, cond_mask, True))
        outer = rng.multivariate_normal(
            spec.mean[known], spec.cov[np.ix_(known, known)], size=n, method="svd"
        )
        # the conditional law the sampler gets for every outer draw: the
        # validated Schur covariance, factored as multivariate_normal does
        u, s, _ = np.linalg.svd(GaussianSpec(np.zeros(len(rest)), Sc).cov)
        factor = u * np.sqrt(s)
        # one matrix-vector product per outer draw, as gaussian_conditional
        # computes it: m0 + outer @ W.T rounds differently
        means = spec.mean[rest] + (W @ (outer - spec.mean[known])[:, :, None])[..., 0]
        stats = np.empty(n)
        step = max(1, MAX_ROWS // n_in)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            pts = np.empty((hi - lo, n_in, f.d))
            pts[:, :, known] = outer[lo:hi, None, :]
            pts[:, :, rest] = means[lo:hi, None, :] + rng.standard_normal(
                (hi - lo, n_in, len(rest))) @ factor.T
            vals = _outputs(f, pts.reshape(-1, f.d)).reshape(hi - lo, n_in)
            stats[lo:hi] = np.var(vals, axis=1, ddof=1) if total_index else vals.mean(axis=1)
        return float(np.mean(stats)) if total_index else float(np.var(stats, ddof=1))

    return _per_coalition(f.d, one)


def variance_fixture_spec(rho: float) -> GaussianSpec:
    """Three standard-normal features with Corr(X1, X3) = rho."""
    cov = np.array([[1.0, 0.0, rho], [0.0, 1.0, 0.0], [rho, 0.0, 1.0]])
    return GaussianSpec(np.zeros(3), cov)
