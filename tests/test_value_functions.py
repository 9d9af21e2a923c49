import numpy as np
import pytest

from coalition_attr import (
    GameError,
    GaussianSpec,
    Model,
    conditional_gaussian_game,
    conditional_mc_game,
    dual_game,
    gaussian_conditional,
    marginal_game,
    shapley_direct,
    sobol_closed_game,
    sobol_total_game,
    variance_fixture_spec,
)
from conftest import g3_fixture


def pair_spec(rho):
    return GaussianSpec(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))


# ------------------------------------------------------------ GaussianSpec

def test_spec_validation():
    with pytest.raises(GameError, match="symmetric"):
        GaussianSpec(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(GameError, match="PSD"):
        GaussianSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(GameError, match="shape"):
        GaussianSpec(np.zeros(3), np.eye(2))
    with pytest.raises(GameError, match="shape"):
        GaussianSpec(np.zeros((1, 2)), np.eye(2)[None])


def test_spec_clamps_roundoff_eigenvalue():
    S = np.array([[1.0, 1.0], [1.0, 1.0 - 5e-11]])
    spec = GaussianSpec(np.zeros(2), (S + S.T) / 2)
    assert np.linalg.eigvalsh(spec.cov)[0] >= 0


def test_spec_json_roundtrip():
    spec = pair_spec(0.3)
    back = GaussianSpec.from_json(spec.to_json())
    assert np.allclose(back.mean, spec.mean)
    assert np.allclose(back.cov, spec.cov)


# ------------------------------------------------------------ conditioning

def test_conditional_independent_features_unchanged():
    spec = GaussianSpec(np.array([1.0, 2.0, 3.0]), np.diag([1.0, 4.0, 9.0]))
    cond = gaussian_conditional(spec, 0b010, np.array([5.0]))
    assert np.allclose(cond.mean, [1.0, 3.0])
    assert np.allclose(cond.cov, np.diag([1.0, 9.0]))


def test_conditional_schur_by_hand():
    rho = 0.6
    cond = gaussian_conditional(pair_spec(rho), 0b01, np.array([1.5]))
    assert cond.mean[0] == pytest.approx(rho * 1.5)
    assert cond.cov[0, 0] == pytest.approx(1 - rho**2)


def test_conditional_empty_mask_is_identity():
    spec = pair_spec(0.2)
    assert gaussian_conditional(spec, 0, np.array([])) is spec


def test_conditional_singular_needs_opt_in():
    # first two coordinates perfectly correlated: conditioning block singular
    S = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    spec = GaussianSpec(np.zeros(3), S)
    assert not spec.regular  # so each block takes the singular test
    with pytest.raises(GameError, match="singular"):
        gaussian_conditional(spec, 0b011, np.array([1.0, 1.0]))
    cond = gaussian_conditional(spec, 0b011, np.array([1.0, 1.0]), allow_singular=True)
    assert cond.mean[0] == pytest.approx(0.5)


# ------------------------------------------------------------ marginal game

def test_marginal_game_full_coalition_is_prediction():
    f = Model.from_expression("x1*x2 + x1^2", 2)
    data = np.array([[0.0, 1.0], [2.0, -1.0], [4.0, 4.0]])
    x = np.array([1.5, -2.0])
    g = marginal_game(f, data, x)
    assert g.v_full == pytest.approx(f(x))


def test_marginal_game_full_coalition_is_the_prediction_bit_for_bit():
    # the mean of three copies of f(x) = 0.1 would round to 0.10000000000000002
    f = Model.from_expression("x1+x2", 2)
    x = np.array([0.1, 0.0])
    g = marginal_game(f, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), x)
    assert g.v_full == f(x) == 0.1


def test_marginal_game_additive_closed_form():
    f = Model.from_expression("x1 + x2 + x3", 3)
    rng = np.random.default_rng(40)
    data = rng.normal(size=(25, 3))
    m = data.mean(axis=0)
    x = np.array([1.0, -2.0, 0.5])
    g = marginal_game(f, data, x)
    for mask in range(8):
        want = sum(x[j] if (mask >> j) & 1 else m[j] for j in range(3))
        assert g.values[mask] == pytest.approx(want, abs=1e-12)


def test_marginal_game_single_row():
    f = Model.from_expression("x1*x2", 2)
    data = np.array([[3.0, 5.0]])
    g = marginal_game(f, data, np.array([2.0, 1.0]))
    assert g.values[0b01] == pytest.approx(2.0 * 5.0)
    assert g.values[0b10] == pytest.approx(3.0 * 1.0)


def test_marginal_game_rejects_empty_data():
    f = Model.from_expression("x1", 1)
    with pytest.raises(GameError):
        marginal_game(f, np.empty((0, 1)), np.array([1.0]))


# ------------------------------------------------------------ conditional games

def test_conditional_gaussian_hand_values():
    f = Model.from_expression("x1 + x2 + x1*x2", 2)
    rho, x1, x2 = 0.4, 1.3, -0.7
    g = conditional_gaussian_game(f, pair_spec(rho), np.array([x1, x2]))
    assert g.v_empty == pytest.approx(rho, abs=1e-12)
    assert g.values[0b01] == pytest.approx(x1 + rho * x1 + rho * x1**2, abs=1e-12)
    assert g.v_full == pytest.approx(x1 + x2 + x1 * x2)


def test_conditional_gaussian_shapley_matches_closed_form():
    f = Model.from_expression("x1 + x2 + x1*x2", 2)
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        spec = pair_spec(rho)
        for x1 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for x2 in (-2.0, -1.0, 0.0, 1.0, 2.0):
                g = conditional_gaussian_game(f, spec, np.array([x1, x2]))
                got = shapley_direct(g).payoffs
                want = [
                    x1 + rho / 2 * (x1 + x1**2 - x2 - x2**2 - 1) + x1 * x2 / 2,
                    x2 + rho / 2 * (x2 + x2**2 - x1 - x1**2 - 1) + x1 * x2 / 2,
                ]
                assert np.allclose(got, want, atol=1e-8)


def test_conditional_gaussian_independent_point():
    f = Model.from_expression("x1 + x2 + x1*x2", 2)
    g = conditional_gaussian_game(f, pair_spec(0.0), np.array([1.0, 1.0]))
    shap = shapley_direct(g).payoffs
    assert np.allclose(shap, [1.5, 1.5], atol=1e-12)
    assert np.sum(shap) == pytest.approx(g.v_full - g.v_empty)


def test_conditional_gaussian_rejects_cubic():
    f = Model.from_expression("x1^3", 1)
    with pytest.raises(GameError, match="Monte Carlo"):
        conditional_gaussian_game(f, GaussianSpec(np.zeros(1), np.eye(1)), np.array([1.0]))


def test_conditional_gaussian_agrees_with_marginal_when_independent_additive():
    f = Model.from_expression("x1 + 2*x2", 2)
    spec = GaussianSpec(np.array([0.5, -1.0]), np.diag([1.0, 2.0]))
    x = np.array([1.0, 1.0])
    g_cond = conditional_gaussian_game(f, spec, x)
    data = np.array([[0.5 + 1.0, -1.0 + 2.0], [0.5 - 1.0, -1.0 - 2.0]])  # column means = mu
    g_marg = marginal_game(f, data, x)
    assert np.allclose(g_cond.values, g_marg.values, atol=1e-12)


def test_conditional_mc_matches_closed_form():
    f = Model.from_expression("x1 + x2 + x1*x2", 2)
    spec = pair_spec(0.5)
    x = np.array([1.0, 2.0])
    exact = conditional_gaussian_game(f, spec, x)
    n = 40_000
    mc = conditional_mc_game(f, spec, x, n=n, seed=17)
    # generous band: per-coalition sample std of f is O(1) here
    assert np.max(np.abs(mc.values - exact.values)) < 4 * 3.0 / np.sqrt(n) * 10


def test_conditional_mc_constant_model():
    f = Model.from_expression("7", 2)
    g = conditional_mc_game(f, pair_spec(0.1), np.array([0.0, 0.0]), n=10, seed=0)
    assert np.allclose(g.values, 7.0, atol=1e-12)


def test_conditional_mc_deterministic():
    f = Model.from_expression("x1*x2", 2)
    a = conditional_mc_game(f, pair_spec(0.3), np.array([1.0, 1.0]), n=100, seed=3)
    b = conditional_mc_game(f, pair_spec(0.3), np.array([1.0, 1.0]), n=100, seed=3)
    assert np.array_equal(a.values, b.values)


# ------------------------------------------------------------ variance games

def test_sobol_closed_matches_fixture_table():
    f = Model.from_expression("x1 + x2", 3)
    for rho in (0.0, 0.3, 0.5, 0.9):
        g = sobol_closed_game(f, variance_fixture_spec(rho), normalize=True)
        assert np.allclose(g.values, g3_fixture(rho).values, atol=1e-12)


def test_sobol_closed_normalized_grand_is_one():
    f = Model.from_expression("x1 + x2 + x1*x2", 2)
    g = sobol_closed_game(f, pair_spec(0.2), normalize=True)
    assert g.v_full == pytest.approx(1.0, abs=1e-12)


def test_sobol_independent_additive_split():
    f = Model.from_expression("x1 + x2", 2)
    g = sobol_closed_game(f, pair_spec(0.0), normalize=True)
    assert g.values[0b01] == pytest.approx(0.5)
    assert g.values[0b10] == pytest.approx(0.5)


def test_sobol_total_is_dual_of_closed():
    f = Model.from_expression("x1 + x2 + x1*x2 + x3^2", 3)
    spec = GaussianSpec(np.array([0.1, -0.2, 0.3]),
                        np.array([[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]]))
    for normalize in (False, True):
        closed = sobol_closed_game(f, spec, normalize=normalize)
        total = sobol_total_game(f, spec, normalize=normalize)
        assert np.max(np.abs(total.values - dual_game(closed).values)) <= 1e-10


def test_sobol_total_grand_values():
    f = Model.from_expression("x1 + x2", 3)
    spec = variance_fixture_spec(0.5)
    assert sobol_total_game(f, spec, normalize=False).v_full == pytest.approx(2.0, abs=1e-12)
    g = sobol_total_game(f, spec, normalize=True)
    assert g.v_full == pytest.approx(1.0, abs=1e-12)
    assert g.values[0b100] == pytest.approx(0.0, abs=1e-12)  # dual of v({1,2}) = 1


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_closed_form_endpoints_are_exact(kind, seed):
    # v(empty) = 0 under both Sobol indices, a normalized v(D) = 1 and a
    # cond-gauss v(D) = f(x), exactly, on both conditioning routes
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    B = rng.normal(size=(d, d if kind == "regular" else d - 1))
    spec = GaussianSpec(rng.normal(size=d), (B @ B.T + (B @ B.T).T) / 2)
    assert spec.regular == (kind == "regular")
    terms = [f"{rng.normal():.3f}*x{i + 1}*x{rng.integers(d) + 1}" for i in range(d)]
    f = Model.from_expression(" + ".join(terms) + " + x1", d)
    x = rng.normal(size=d)
    for sobol in (sobol_closed_game, sobol_total_game):
        assert sobol(f, spec, normalize=False).v_empty == 0.0
        g = sobol(f, spec, normalize=True)
        assert g.v_empty == 0.0 and g.v_full == 1.0
    assert conditional_gaussian_game(f, spec, x).v_full == f(x)


def test_sobol_zero_variance_rejected():
    f = Model.from_expression("3", 2)
    with pytest.raises(GameError, match="variance"):
        sobol_closed_game(f, pair_spec(0.0), normalize=True)


def test_sobol_mc_close_to_closed_form():
    f = Model.from_expression("x1 + x2", 3)
    spec = variance_fixture_spec(0.5)
    exact = sobol_closed_game(f, spec, normalize=False)
    mc = sobol_closed_game(f, spec, normalize=False, mc=(600, 19))
    assert np.max(np.abs(mc.values - exact.values)) < 0.25
    exact_t = sobol_total_game(f, spec, normalize=False)
    mc_t = sobol_total_game(f, spec, normalize=False, mc=(600, 19))
    assert np.max(np.abs(mc_t.values - exact_t.values)) < 0.25
