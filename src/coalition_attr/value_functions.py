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
from .games import Game, GameError, build_game, check_player_count, full_mask
from .gaussian import (
    GaussianSpec,
    QuadForm,
    _condition_blocks,
    _dot,
    _trace_of_product,
    checked_psd,
    conditional_mean_quad,
    conditional_var_quad,
    gaussian_conditional,  # unused here, but the benchmark's tracer wraps this name
    subvector,
    sweep,
)

MAX_ROWS = 1 << 13  # the most points any one model call sees


@dataclass(frozen=True)
class Model:
    """A prediction function plus, when certified, its quadratic form.

    fn maps an (n, d) array of rows to their n outputs. quad is set when
    every subexpression of the model expands to degree <= 2; it gates the
    closed-form Gaussian paths.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    d: int
    quad: Optional[QuadForm] = None

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

    def quad_form(self) -> QuadForm:
        if self.quad is None:
            raise GameError(
                "model is not a certified polynomial of degree <= 2; "
                "use a Monte Carlo game construction instead"
            )
        return self.quad

    @classmethod
    def from_expression(cls, src: str, d: int) -> "Model":
        tree = _expr.parse(src, d)
        terms = _expr.monomials(tree, d)
        quad = None if terms is None else QuadForm(*terms)
        return cls(lambda X: _expr.evaluate(tree, X), d, quad)


def _outputs(f: Model, pts: np.ndarray) -> np.ndarray:
    """f at every row of pts, one model call per MAX_ROWS rows."""
    return np.concatenate([f(pts[lo:lo + MAX_ROWS]) for lo in range(0, len(pts), MAX_ROWS)])


def _check_features(f: Model, spec: GaussianSpec, x: np.ndarray) -> None:
    if spec.d != f.d or x.shape[-1:] != (f.d,) or x.ndim > 2:
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

    full = full_mask(f.d)

    def worth(masks: np.ndarray) -> np.ndarray:
        if masks[0] == full:
            return np.array([f(x)])
        inside = (masks[:, None] >> np.arange(f.d)) & 1 == 1
        pts = np.where(inside[:, None, :], x, data)
        return _outputs(f, pts.reshape(-1, f.d)).reshape(len(masks), -1).mean(axis=1)

    # chunk=1: the benchmark's self-test counts one oracle call per coalition
    return build_game(f.d, worth, chunk=1)


def conditional_gaussian_game(f: Model, spec: GaussianSpec, x: np.ndarray) -> Game | list[Game]:
    """v(A) = E[f(X) | X_A = x_A], exact for quadratic f under Gaussian X.

    x is one instance (d,), which gives its game, or a stack of N instances
    (N, d), which gives the list of their N games: each block of masks is
    conditioned once for all of them. A regular spec is swept: v(A) =
    q(m_A) + tr(M Σ_A) from the conditional means and covariances of
    `sweep`; an irregular one conditions each layer block by solves.
    """
    x = np.asarray(x, dtype=float)
    _check_features(f, spec, x)
    q = f.quad_form()
    X = x.reshape(-1, f.d)

    if spec.regular:
        def reduce(S: np.ndarray, m: np.ndarray) -> np.ndarray:
            # one instance at a time, so a stacked game is its single game bit for bit
            trace = S.reshape(len(S), -1) @ q.M.reshape(-1)
            return np.array([q.c + mn @ q.b + _dot(mn @ q.M, mn) + trace
                             for mn in m]).reshape(m.shape[:2])

        values = _swept_table(spec, reduce, X)
        values[:, -1] = f(X)  # exact by construction, free of roundoff
        games = [Game._adopt(f.d, v) for v in values]
    else:
        full = full_mask(f.d)

        def worth(masks: np.ndarray) -> np.ndarray:
            if masks[0] == full:
                return f(X)[:, None]  # exact by construction, free of roundoff
            blocks = _condition_blocks(spec, masks, allow_pinv=True)
            known, cond = blocks[0], conditional_mean_quad(q, blocks)
            return np.array([cond(row[known]) for row in X]).reshape(len(X), len(masks))

        games = build_game(f.d, worth, stack=len(X))
    return games[0] if x.ndim == 1 else games


def _swept_table(spec: GaussianSpec, reduce, X: Optional[np.ndarray] = None) -> np.ndarray:
    """The worths that reduce(S, m) gives block by block of `sweep(spec, X)`:
    a (2^d,) table, or an (N, 2^d) one for N instances X (N, d)."""
    check_player_count(spec.d)
    values = np.empty((1 << spec.d,) if X is None else (len(X), 1 << spec.d))
    lo = 0
    for S, m in sweep(spec, X):
        values[..., lo:lo + len(S)] = reduce(S, m)
        lo += len(S)
    return values


def conditional_mc_game(
    f: Model, spec: GaussianSpec, x: np.ndarray, n: int, seed: int
) -> Game:
    """Monte Carlo estimate of v(A) = E[f(X) | X_A = x_A]; v(D) = f(x) exactly.

    Each mask draws from its own SeedSequence((seed, mask)) the n points
    numpy's SVD-method Gaussian sampler would draw from its conditional law.
    A block of up to MAX_ROWS // n masks is conditioned, checked and
    factored at once, and the model sees its points MAX_ROWS at a time.
    """
    if n < 2:
        raise GameError("Monte Carlo needs n >= 2")
    x = np.asarray(x, dtype=float)
    _check_features(f, spec, x)
    if x.ndim != 1:
        raise GameError("Monte Carlo games take one instance")
    full = full_mask(f.d)

    def worth(masks: np.ndarray) -> np.ndarray:
        if masks[0] == full:
            return np.array([f(x)])
        known, draw = _conditional_sampler(spec, masks)
        pts = np.concatenate([draw(i, _rng(seed, mask), x[known[i]][None], n)
                              for i, mask in enumerate(masks)])
        return _outputs(f, pts.reshape(-1, f.d)).reshape(len(masks), n).mean(axis=1)

    return build_game(f.d, worth, chunk=max(1, MAX_ROWS // n))


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def _svd_factor(S: np.ndarray) -> np.ndarray:
    """F F' = S for a stack of covariances: u * sqrt(s), as numpy's sampler factors them."""
    u, s, _ = np.linalg.svd(S)
    return u * np.sqrt(s)[..., None, :]


def _conditional_sampler(spec: GaussianSpec, masks: np.ndarray):
    """A layer block of masks conditioned, checked and factored at once (the
    empty mask keeps the spec's own law): (known, draw), where draw(i, rng,
    xk, n) gives n points of mask i's law at each row of xk (p, k): (p, n, d)."""
    known, rest, W, _, Sc, _ = _condition_blocks(spec, masks, allow_pinv=True)
    factors = _svd_factor(checked_psd(Sc) if known.shape[1] else spec.cov[None])

    def draw(i: int, rng: np.random.Generator, xk: np.ndarray, n: int) -> np.ndarray:
        means = spec.mean[rest[i]]
        if known.shape[1]:
            # one matrix-vector product per point, as gaussian_conditional
            # computes it: m0 + xk @ W.T rounds differently
            means = means + (W[i] @ (xk - spec.mean[known[i]])[..., None])[..., 0]
        pts = np.empty((len(xk), n, spec.d))
        pts[:, :, known[i]] = xk[:, None]
        pts[:, :, rest[i]] = means[..., None, :] + rng.standard_normal(
            (len(xk), n, rest.shape[1])) @ factors[i].T
        return pts

    return known, draw


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
    if mc is not None:
        g = _sobol_mc(f, spec, *mc, total_index)
    elif spec.regular:
        g = _sobol_swept(f.quad_form(), spec, total_index)
    else:
        q = f.quad_form()
        full = full_mask(f.d)

        def worth(masks: np.ndarray) -> np.ndarray:
            blocks = _condition_blocks(spec, (full ^ masks) if total_index else masks,
                                       allow_pinv=True)
            known, *_, Saa = blocks
            if total_index:
                return conditional_var_quad(q, blocks).mean_under(spec.mean[known], Saa)
            return conditional_mean_quad(q, blocks).var_under(spec.mean[known], Saa)

        g = build_game(f.d, worth)
    if not normalize:
        return g
    total = g.values[-1]  # Var f(X) under both indices, so v(D) = 1 exactly
    if total <= 0:
        raise GameError("total model variance is zero; cannot normalize")
    return Game(f.d, g.values / total)


def _sobol_swept(q: QuadForm, spec: GaussianSpec, total_index: bool) -> Game:
    """The closed-form Sobol game of a regular spec from `sweep`'s Σ_A, with
    g = b + 2 M mu. The closed index is Var E[f | X_A] = g' P_A g +
    2 tr((M P_A)^2), with P_A = Σ - Σ_A, so v(empty) = 0 exactly; the total
    index is E[Var(f | X_B)] = g' Σ_B g + 4 tr(Σ_B M Σ M) - 2 tr((Σ_B M)^2)
    at B = D \\ A, which is 0 exactly at B = D."""
    d, M = spec.d, q.M
    g = q.b + 2 * M @ spec.mean
    weights = np.outer(g, g)
    if total_index:
        weights = weights + 4 * M @ spec.cov @ M

    def reduce(S: np.ndarray, m: np.ndarray) -> np.ndarray:
        P = S if total_index else np.subtract(spec.cov, S, out=S)
        PM = (P.reshape(-1, d) @ M).reshape(P.shape)
        square = 2 * _trace_of_product(PM, PM)
        return P.reshape(len(P), -1) @ weights.reshape(-1) + (-square if total_index else square)

    values = _swept_table(spec, reduce)
    return Game._adopt(d, values[::-1].copy() if total_index else values)


def _sobol_mc(f: Model, spec: GaussianSpec, n: int, seed: int, total_index: bool) -> Game:
    """Double loop: outer draws of the conditioning block, inner draws of the
    conditional; variance of inner means (closed) or mean of inner variances
    (total).

    Each mask draws from its own SeedSequence((seed, mask, total_index)):
    first the n outer draws, then n_in inner draws per outer draw, in the
    order of one sampler call per outer draw. A layer block of masks is
    conditioned and factored at once, and each model call takes the inner
    draws of as many outer draws as fit in MAX_ROWS points.
    """
    if n < 2:
        raise GameError("Monte Carlo needs n >= 2")
    n_in = max(64, int(np.sqrt(n)))
    step = max(1, MAX_ROWS // n_in)
    full = full_mask(f.d)

    def worth(masks: np.ndarray) -> np.ndarray:
        if masks[0] == 0:
            return np.zeros(1)  # the inner mean, or the conditional variance, never varies
        if masks[0] == full:  # Var f(X) under both indices: the empty mask's law
            draw = _conditional_sampler(spec, masks ^ full)[1]
            pts = draw(0, _rng(seed, full, total_index), np.empty((1, 0)), n)[0]
            return np.array([np.var(_outputs(f, pts), ddof=1)])
        known, draw = _conditional_sampler(spec, (full ^ masks) if total_index else masks)
        # the outer law's covariance block is factored raw, as numpy's sampler factors it
        outer_factors = _svd_factor(subvector(spec, known)[1])
        out = np.empty(len(masks))
        for i, mask in enumerate(masks):
            rng = _rng(seed, mask, total_index)
            z = rng.standard_normal((n, known.shape[1]))
            outer = spec.mean[known[i]] + z @ outer_factors[i].T
            stats = np.empty(n)
            for lo in range(0, n, step):
                pts = draw(i, rng, outer[lo:lo + step], n_in)
                vals = _outputs(f, pts.reshape(-1, f.d)).reshape(-1, n_in)
                stats[lo:lo + step] = (np.var(vals, axis=1, ddof=1) if total_index
                                       else vals.mean(axis=1))
            out[i] = np.mean(stats) if total_index else np.var(stats, ddof=1)
        return out

    return build_game(f.d, worth)


def variance_fixture_spec(rho: float) -> GaussianSpec:
    """Three standard-normal features with Corr(X1, X3) = rho."""
    cov = np.array([[1.0, 0.0, rho], [0.0, 1.0, 0.0], [rho, 0.0, 1.0]])
    return GaussianSpec(np.zeros(3), cov)
