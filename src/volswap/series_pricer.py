"""Analytic volatility-swap pricer: kappa as a hypergeometric series.

kappa_t = (sqrt(nu_t)/T) * sum_n b_n * exp(E_n * tau) * zeta^n
          * 1F1(n - 1/2; 2n + 1/2; zeta)

with tau = t0 + T - t, zeta = sigma^2 / (2 alpha^2 nu_t),
E_n = alpha^2 n (2n - 1) and rational coefficients b_n built from exact
half-integer gamma values (b_0 = b_1 = 1, b_2 = -1/30, ...).

:func:`series_term` is the one definition of the n-th term and
:func:`growth_factor` of its factor e^(E_n tau); the pricer here and the
checks in :mod:`volswap.verify` (the fixed-truncation kappa behind the
finite-difference check, the J0/J_inf integral components, and the modes
the checks build themselves) all use them.

For tau > 0 the exp(E_n tau) factors grow super-factorially in n, so the
series is treated as an asymptotic expansion: evaluation sums to the
smallest-magnitude term, reports that term as the error estimate, and
classifies the outcome as convergent-like, asymptotically truncated, or
diverging.  Ground truth outside the trustworthy region comes from the
Monte Carlo and PDE oracles in the sibling modules.

The evaluation policy is the module constants ``MAX_TERMS``, ``REL_TOL``
and ``KUMMER_REL_TOL``, read at call time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import specfun
from .exceptions import DomainError, SingularityError
from .model import (MarketState, PricingResult, SabrParams, SwapContract,
                    time_to_maturity)

REGIME_CONVERGENT = "convergent_like"
REGIME_ASYMPTOTIC = "asymptotic_truncated"
REGIME_DIVERGING = "diverging"

#: a truncation whose smallest term still exceeds this fraction of the sum
#: carries no usable accuracy and is flagged as diverging.
DIVERGENCE_FRACTION = 0.1
#: terms :func:`kappa_series` sums at most.
MAX_TERMS = 64
#: a term within this fraction of the partial sum is small; two end the sum.
REL_TOL = 1e-10
#: relative tolerance of the 1F1 in :func:`series_term`.
KUMMER_REL_TOL = 1e-13


@dataclass(frozen=True)
class SeriesDiagnostics:
    """How the truncated series behaved.

    ``min_term_abs`` is the magnitude of the smallest term seen; unless the
    sum stopped on the tolerance it is the first omitted term and hence the
    error estimate of the returned value.
    """

    terms_used: int
    min_term_index: int
    min_term_abs: float
    converged: bool
    regime: str


@dataclass(frozen=True)
class SeriesVariables:
    """Dimensionless state entering the series."""

    tau: float
    zeta: float


@functools.cache
def coeff_b_exact(n: int) -> Fraction:
    """b_n as an exact rational, memoised: the table is constant.

    b_n = (-1)^(n+1) Gamma(n-1/2)^2 / (2 sqrt(pi) n! Gamma(2n-1/2)); the
    sqrt(pi) factors of the half-integer gammas cancel identically, so the
    coefficient is rational.  b_0 = b_1 = 1 and the sign alternates as
    (-1)^(n+1) from n = 1 on.
    """
    if n < 0:
        raise DomainError(f"coeff_b index must be >= 0, got {n}")
    g_num = specfun.gamma_half_integer(2 * n - 1)   # Gamma(n-1/2)/sqrt(pi)
    g_den = specfun.gamma_half_integer(4 * n - 1)   # Gamma(2n-1/2)/sqrt(pi)
    sign = 1 if n % 2 == 1 else -1
    return sign * g_num * g_num / (2 * math.factorial(n) * g_den)


def coeff_b(n: int) -> float:
    """Series coefficient b_n as a float (exact rational under the hood)."""
    return float(coeff_b_exact(n))


def energy_e(n: int, alpha: float) -> float:
    """Mode growth rate E_n = alpha^2 * n * (2n - 1) = (alpha^2/2)((2n-1/2)^2 - 1/4)."""
    if n < 0:
        raise DomainError(f"energy index must be >= 0, got {n}")
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return alpha * alpha * n * (2 * n - 1)


def growth_factor(n: int, alpha: float, tau: float) -> float:
    """Mode growth factor e^(E_n tau); +inf once it leaves the float range."""
    try:
        return math.exp(energy_e(n, alpha) * tau)
    except OverflowError:
        return math.inf


def series_variables(state: MarketState, params: SabrParams,
                     contract: SwapContract) -> SeriesVariables:
    """tau = t0 + T - t (:func:`time_to_maturity`), zeta = sigma^2/(2 alpha^2 nu)."""
    if state.nu == 0:
        raise SingularityError(
            "nu = 0: zeta is undefined and the series regime is excluded; "
            "use the Monte Carlo or PDE oracle")
    tau = time_to_maturity(state, contract)
    zeta = state.sigma ** 2 / (2.0 * params.alpha ** 2 * state.nu)
    return SeriesVariables(tau=tau, zeta=zeta)


def series_term(n: int, zeta: float, tau: float, alpha: float) -> float:
    """n-th kappa-series term b_n e^(E_n tau) zeta^n 1F1(n-1/2; 2n+1/2; zeta).

    The only definition of the term; 1F1 is evaluated to the relative
    tolerance ``KUMMER_REL_TOL``.  A growth factor e^(E_n tau) beyond
    the float range makes the term a signed infinity.
    """
    f = specfun.kummer_1f1(n - 0.5, 2 * n + 0.5, zeta, rel_tol=KUMMER_REL_TOL)
    return coeff_b(n) * growth_factor(n, alpha, tau) * zeta ** n * f.value


def kappa_series(state: MarketState, params: SabrParams,
                 contract: SwapContract) -> tuple:
    """Expected annualized volatility from the hypergeometric series.

    Summation stops on the usual two-small-terms criterion while terms
    decay; if terms start growing instead (the asymptotic regime), or
    ``MAX_TERMS`` or a non-finite term is reached, the sum is truncated
    just before the smallest term, whose magnitude becomes the error
    estimate.  A negative value, a non-finite term, a smallest term at
    n = 0, or an estimate above ``DIVERGENCE_FRACTION`` of the sum yields
    the diverging verdict; the best truncation is still returned, flagged
    not converged.

    Returns
    -------
    (kappa, SeriesDiagnostics)
    """
    sv = series_variables(state, params, contract)
    prefactor = math.sqrt(state.nu) / contract.tenor

    mags = []
    partials = []
    partial = 0.0
    small_streak = 0
    stop_reason = "exhausted"
    for n in range(MAX_TERMS):
        t_n = series_term(n, sv.zeta, sv.tau, params.alpha)
        if not math.isfinite(t_n):
            stop_reason = "overflow"
            break
        partial += t_n
        mags.append(abs(t_n))
        partials.append(partial)
        if abs(t_n) <= REL_TOL * abs(partial):
            small_streak += 1
            if small_streak >= 2:
                stop_reason = "tolerance"
                break
        else:
            small_streak = 0
        if n >= 2 and mags[n] > mags[n - 1] > mags[n - 2]:
            stop_reason = "growth"
            break

    if not mags:
        raise DomainError("series produced no finite terms")

    if stop_reason == "tolerance":
        kappa = prefactor * partial
        converged = kappa >= 0
        regime = REGIME_CONVERGENT if converged else REGIME_DIVERGING
        return kappa, SeriesDiagnostics(len(mags), len(mags) - 1, mags[-1],
                                        converged, regime)

    # optimal truncation: the smallest term is the first omitted one
    m = mags.index(min(mags))
    if m == 0:
        return prefactor * partials[0], SeriesDiagnostics(
            len(mags), 0, mags[0], False, REGIME_DIVERGING)
    value = partials[m - 1]
    estimate = mags[m]
    kappa = prefactor * value
    if (stop_reason == "overflow" or kappa < 0
            or estimate > DIVERGENCE_FRACTION * abs(value)):
        return kappa, SeriesDiagnostics(len(mags), m, estimate, False,
                                        REGIME_DIVERGING)
    converged = estimate <= REL_TOL * abs(value)
    return kappa, SeriesDiagnostics(len(mags), m, estimate, converged,
                                    REGIME_ASYMPTOTIC)


def price_volatility_swap(state: MarketState, params: SabrParams,
                          contract: SwapContract, df: float) -> PricingResult:
    """Series kappa plus discounting, bundled into one PricingResult.

    A negative (diverged) kappa is composed and flagged, not rejected, so
    callers can surface it.  Raises :class:`DomainError` unless 0 < df <= 1.
    """
    if not (0.0 < df <= 1.0):
        raise DomainError(f"discount factor must lie in (0, 1], got {df}")
    kappa, diag = kappa_series(state, params, contract)
    warnings = ()
    if diag.regime == REGIME_DIVERGING:
        warnings = ("SERIES_DIVERGING",)
    elif diag.regime == REGIME_ASYMPTOTIC and not diag.converged:
        warnings = ("SERIES_ASYMPTOTIC_TRUNCATED",)
    value = contract.notional * df * (kappa - contract.strike)
    return PricingResult(kappa=kappa, strike=contract.strike,
                         notional=contract.notional, discount_factor=df,
                         fair_value=value, diagnostics=diag, warnings=warnings)
