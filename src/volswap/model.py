"""Value types for the volatility-swap pricer, the accrual-window check,
discounting and the fair value.

The model is the lognormal-volatility SABR special case
dsigma_t = alpha * sigma_t dZ_t.  The swap's value depends on the volatility
process alone, so alpha is its only parameter: the forward's beta and rho
play no part.  A swap is priced at a valuation time t in its accrual window
t0 <= t <= t0 + T, which :func:`time_to_maturity` alone checks.  alpha and
tau enter only through s = alpha^2 tau, whose domain the engines share:
:func:`reduced_time` alone checks it.  Every engine prices a contract in the
variables of :func:`reduced_variables`, decided here once, and every
engine's kappa becomes a fair value in :func:`compose_price` alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .exceptions import DomainError

#: largest s = alpha^2 tau with e^s - 1 finite.
S_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SabrParams:
    """The volatility process's parameter: vol-of-vol alpha, per sqrt(year), > 0."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")


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
class PricingResult:
    """kappa, the discount factor df, the fair value notional * df * (kappa -
    strike) that :func:`compose_price` composes from the contract's terms,
    and the engine's diagnostics and warnings."""

    kappa: float
    discount_factor: float
    fair_value: float
    diagnostics: object
    warnings: tuple


def time_to_maturity(state: MarketState, contract: SwapContract) -> float:
    """tau = t0 + T - t; raises :class:`DomainError` unless the valuation time
    lies in the accrual window t0 <= t <= t0 + T."""
    if not contract.t0 <= state.t <= contract.maturity:
        raise DomainError(
            f"valuation time {state.t} lies outside the accrual window "
            f"[{contract.t0}, {contract.maturity}]")
    return contract.maturity - state.t


def reduced_time(alpha: float, tau: float) -> float:
    """s = alpha^2 tau; raises :class:`DomainError` unless s <= ``S_MAX``."""
    s = alpha * alpha * tau
    if not s <= S_MAX:
        raise DomainError(f"s = alpha^2 tau = {s}: e^s - 1 is not finite")
    return s


def reduced_variables(state: MarketState, params: SabrParams,
                      contract: SwapContract) -> tuple:
    """(tau, s, zeta = sigma^2 / (2 alpha^2 nu), sqrt(nu)/T); kappa is
    sqrt(nu)/T at tau = 0.  Raises what :func:`time_to_maturity` and
    :func:`reduced_time` raise; s is 0 at tau = 0 for every alpha, and zeta
    is inf at nu = 0 and beyond the float range."""
    tau = time_to_maturity(state, contract)
    s = reduced_time(params.alpha, tau) if tau else 0.0
    try:
        zeta = state.sigma ** 2 / (2.0 * params.alpha ** 2 * state.nu)
    except (OverflowError, ZeroDivisionError):   # also nu = 0
        zeta = math.inf
    return tau, s, zeta, math.sqrt(state.nu) / contract.tenor


def discount_factor(rate: float, state: MarketState,
                    contract: SwapContract) -> float:
    """exp(-rate * tau) at a flat continuously compounded rate, from the
    valuation time to the payoff date t0 + T, where the swap settles.
    Raises :class:`DomainError` if the factor leaves the float range."""
    tau = time_to_maturity(state, contract)
    try:
        return math.exp(-rate * tau)
    except OverflowError:
        raise DomainError(f"discount factor exp({-rate} * {tau}) overflows "
                          f"at rate {rate}") from None


def compose_price(contract: SwapContract, df: float, engine) -> PricingResult:
    """notional * df * (kappa - strike) of the (kappa, diagnostics, warnings)
    that ``engine()`` returns, run once 0 < df <= 1 holds; a negative
    (diverged) kappa is composed, not refused.  Raises :class:`DomainError`
    on any other df and where the fair value is not finite."""
    if not (0.0 < df <= 1.0):
        raise DomainError(f"discount factor must lie in (0, 1], got {df}")
    kappa, diagnostics, warnings = engine()
    value = contract.notional * df * (kappa - contract.strike)
    if not math.isfinite(value):
        raise DomainError(f"notional * df * (kappa - strike) = {value} is not finite")
    return PricingResult(kappa, df, value, diagnostics, warnings)
