"""Named scenario generators: small distributions whose significant factor
subsets are known by construction, for simulation studies and tests.

All presets put the uniform product marginal on the factor space and shape
only the conditional P(Y=1 | X=x):

- ``null``           Y independent of X; every subset is significant.
- ``single-factor``  the conditional depends on factor 1 only.
- ``pair-epistasis`` joint-risk interaction of factors 1 and 2: the
                     conditional is high exactly when x1 + x2 >= q + 1
                     (at q = 1 this is the AND pattern), so {1, 2} is
                     significant while neither factor alone is.
- ``independent``    every factor carries an additive main effect, so no
                     proper subset is significant.

Presets are deterministic functions of their parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import FactorSpace, JointDistribution, _real, point_levels


def _null(space: FactorSpace, p_pos: float) -> float:
    if not 0.0 < (p_pos := _real("p_pos", p_pos)) < 1.0:
        raise ValidationError(f"p_pos must be in (0, 1), got {p_pos}")
    return p_pos


def _single_factor(space: FactorSpace, p_low: float, p_high: float) -> np.ndarray:
    p_low, p_high = _check_band(p_low, p_high)
    x1 = point_levels(space, 1).astype(np.float64)
    return p_low + (p_high - p_low) * x1 / space.q


def _pair_epistasis(space: FactorSpace, p_low: float, p_high: float) -> np.ndarray:
    if space.n < 2:
        raise ValidationError("pair-epistasis needs at least two factors")
    p_low, p_high = _check_band(p_low, p_high)
    joint_risk = point_levels(space, 1) + point_levels(space, 2) >= space.q + 1
    return np.where(joint_risk, p_high, p_low)


def _independent(space: FactorSpace, effect: float) -> np.ndarray:
    if (effect := _real("effect", effect)) == 0.0:
        raise ValidationError(f"independent preset needs a nonzero effect, got {effect}")
    # centered levels are half-integers, so this sum is exact in any order
    cond = sum(point_levels(space, i) - space.q / 2.0 for i in range(1, space.n + 1))
    cond *= -effect  # the logistic, in place on the one table-sized buffer
    with np.errstate(over="ignore"):  # exp overflows to inf: cond is then exactly 0
        np.exp(cond, out=cond)
    cond += 1.0
    return np.divide(1.0, cond, out=cond)


def _check_band(p_low: float, p_high: float) -> tuple[float, float]:
    p_low, p_high = _real("p_low", p_low), _real("p_high", p_high)
    if not (0.0 <= p_low < p_high <= 1.0):
        raise ValidationError(f"need 0 <= p_low < p_high <= 1, got p_low={p_low}, p_high={p_high}")
    return p_low, p_high


# Each preset's builder of the conditional, and the ``generate_scenario``
# parameters besides n and q that it reads, in the order it takes them.
_BUILDERS = {
    "null": (_null, ("p_pos",)),
    "independent": (_independent, ("effect",)),
    "single-factor": (_single_factor, ("p_low", "p_high")),
    "pair-epistasis": (_pair_epistasis, ("p_low", "p_high")),
}
PRESET_PARAMS = {name: params for name, (_, params) in _BUILDERS.items()}
PRESETS = tuple(_BUILDERS)


def generate_scenario(
    preset: str,
    n: int,
    q: int,
    p_pos: float = 0.45,
    p_low: float = 0.2,
    p_high: float = 0.8,
    effect: float = 0.5,
) -> JointDistribution:
    """Build the distribution of a named preset on {0..q}^n."""
    space = FactorSpace(n, q)
    uniform = 1.0 / space.num_points  # the dense-table cap, before any grid
    if preset not in PRESETS:  # by equality: any value gets the message
        raise ValidationError(f"unknown preset {preset!r}; choose from {PRESETS}")
    build, params = _BUILDERS[preset]
    given = {"p_pos": p_pos, "p_low": p_low, "p_high": p_high, "effect": effect}
    cond = build(space, *(given[k] for k in params))
    return JointDistribution.from_conditional(n, q, uniform, cond)


def scenario_a() -> JointDistribution:
    """The workhorse verification scenario: pair epistasis on three
    ternary factors with a wide 0.05 / 0.95 penetrance band, chosen so
    that every cylinder conditional of the subsets {1,2} and {1,3} sits
    either far from the threshold or exactly on it, keeping the trained
    rule stable at moderate sample sizes."""
    return generate_scenario("pair-epistasis", n=3, q=2, p_low=0.05, p_high=0.95)
