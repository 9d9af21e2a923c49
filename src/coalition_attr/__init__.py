"""Cooperative-game feature attribution: games over feature coalitions,
efficient allocations (Shapley, Weber and Harsanyi families, proportional
values, proportional marginal effects), and model-derived value functions.
"""

__version__ = "0.1.0"

from .allocations import (
    WeightSystem,
    harsanyi_allocate,
    marginal_vector,
    pme,
    proportional_value,
    shapley_direct,
    shapley_dividends,
    shapley_permutation,
    weber_allocate,
    weber_monte_carlo,
)
from .dividends import DividendTable, dividends_fast, dividends_recursive, zeta_reconstruct
from .games import (
    Allocation,
    Game,
    GameError,
    build_game,
    coalition_label,
    dual_game,
    efficiency_gap,
    full_mask,
    members,
)
from .gaussian import GaussianSpec, gaussian_conditional
from .orderings import (
    Explicit,
    PartialOrderUniform,
    SupportTooLargeError,
    Uniform,
    causal_orderings,
)
from .value_functions import (
    Model,
    conditional_gaussian_game,
    conditional_mc_game,
    marginal_game,
    sobol_closed_game,
    sobol_total_game,
    variance_fixture_spec,
)

__all__ = [
    "Allocation",
    "DividendTable",
    "Explicit",
    "Game",
    "GameError",
    "GaussianSpec",
    "Model",
    "PartialOrderUniform",
    "SupportTooLargeError",
    "Uniform",
    "WeightSystem",
    "build_game",
    "causal_orderings",
    "coalition_label",
    "conditional_gaussian_game",
    "conditional_mc_game",
    "dividends_fast",
    "dividends_recursive",
    "dual_game",
    "efficiency_gap",
    "full_mask",
    "gaussian_conditional",
    "harsanyi_allocate",
    "marginal_game",
    "marginal_vector",
    "members",
    "pme",
    "proportional_value",
    "shapley_direct",
    "shapley_dividends",
    "shapley_permutation",
    "sobol_closed_game",
    "sobol_total_game",
    "variance_fixture_spec",
    "weber_allocate",
    "weber_monte_carlo",
    "zeta_reconstruct",
]
