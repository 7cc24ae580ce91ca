"""Value types for the volatility-swap pricer: model parameters, contract,
market state, discounting and the pricing-result container.

The model is the lognormal-volatility SABR special case
dsigma_t = alpha * sigma_t dZ_t with beta fixed at 1.  beta and rho are
carried for forward compatibility but are provably inert here: the
volatility-swap value depends on the volatility process alone, and that
process involves neither of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .exceptions import DomainError

# validation codes returned by validate_state
BEFORE_ACCRUAL_START = "BEFORE_ACCRUAL_START"
AFTER_MATURITY = "AFTER_MATURITY"
NU_ZERO_SERIES_SINGULAR = "NU_ZERO_SERIES_SINGULAR"


@dataclass(frozen=True)
class SabrParams:
    """SABR parameters with lognormal backbone.

    Attributes
    ----------
    alpha : float   Vol-of-vol, per sqrt(year), > 0.
    beta : float    CEV exponent; fixed at 1 in this pricer.
    rho : float     Forward/vol correlation in [-1, 1]; inert (kept as metadata).
    """

    alpha: float
    beta: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if self.beta != 1.0:
            raise DomainError("this pricer is restricted to beta = 1")
        if not (math.isfinite(self.rho) and -1.0 <= self.rho <= 1.0):
            raise DomainError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class SwapContract:
    """Volatility swap over the accrual window [t0, t0 + tenor].

    Pays notional * (realized annualized volatility - strike) at accrual end,
    with realized volatility defined as (1/tenor) * sqrt(integral of sigma^2).
    """

    t0: float
    tenor: float
    strike: float = 0.0
    notional: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise DomainError(f"t0 must be finite, got {self.t0}")
        if not (math.isfinite(self.tenor) and self.tenor > 0):
            raise DomainError(f"tenor must be positive, got {self.tenor}")
        if not (math.isfinite(self.strike) and self.strike >= 0):
            raise DomainError(f"strike must be non-negative, got {self.strike}")
        if not math.isfinite(self.notional):
            raise DomainError(f"notional must be finite, got {self.notional}")

    @property
    def maturity(self) -> float:
        return self.t0 + self.tenor


@dataclass(frozen=True)
class MarketState:
    """Market snapshot at valuation time t within the accrual window.

    ``nu`` is the variance accrued from t0 up to t,
    nu_t = int_{t0}^{t} sigma_s^2 ds.
    """

    t: float
    sigma: float
    nu: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise DomainError(f"t must be finite, got {self.t}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise DomainError(f"nu must be non-negative, got {self.nu}")


@dataclass(frozen=True)
class DiscountCurve:
    """Flat continuously-compounded rate or a single explicit discount factor."""

    mode: str
    rate: float = 0.0
    factor: float = 1.0

    def __post_init__(self):
        if self.mode not in ("flat_rate", "explicit_factor"):
            raise DomainError(f"unknown discount mode {self.mode!r}")
        if self.mode == "flat_rate" and not math.isfinite(self.rate):
            raise DomainError(f"flat rate must be finite, got {self.rate}")
        if self.mode == "explicit_factor" and not (0.0 < self.factor <= 1.0):
            raise DomainError(f"explicit factor must lie in (0, 1], got {self.factor}")

    @classmethod
    def flat(cls, rate: float) -> "DiscountCurve":
        return cls(mode="flat_rate", rate=rate)

    @classmethod
    def explicit(cls, factor: float) -> "DiscountCurve":
        return cls(mode="explicit_factor", factor=factor)


@dataclass(frozen=True)
class PricingResult:
    """kappa plus the discounted fair value and evaluation diagnostics.

    The composition identity fair_value == notional * discount_factor *
    (kappa - strike) holds bit-for-bit by construction.
    """

    kappa: float
    strike: float
    notional: float
    discount_factor: float
    fair_value: float
    diagnostics: object = None
    warnings: tuple = field(default_factory=tuple)


def discount_factor(curve: DiscountCurve, t: float, contract: SwapContract) -> float:
    """Discount factor from valuation time t to the payoff date t0 + tenor.

    The swap settles at accrual end, so flat-rate mode returns
    exp(-rate * (t0 + tenor - t)).
    """
    if t > contract.maturity:
        raise DomainError(
            f"valuation time {t} is beyond swap maturity {contract.maturity}")
    if curve.mode == "explicit_factor":
        return curve.factor
    return math.exp(-curve.rate * (contract.maturity - t))


def validate_state(state: MarketState, params: SabrParams,
                   contract: SwapContract) -> list:
    """Range checks on the (state, params, contract) triple.

    Returns every violated invariant as a code; an empty list means valid.
    The path-consistency bound nu <= (sup sigma)^2 * (t - t0) is deliberately
    not enforced: the path history is unknown and only sign/range checks
    are decidable.
    """
    codes = []
    if state.t < contract.t0:
        codes.append(BEFORE_ACCRUAL_START)
    if state.t > contract.maturity:
        codes.append(AFTER_MATURITY)
    if state.nu == 0:
        codes.append(NU_ZERO_SERIES_SINGULAR)
    return codes
