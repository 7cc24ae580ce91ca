"""Analytic volatility-swap pricer: kappa as a hypergeometric series.

kappa_t = (sqrt(nu_t)/T) * sum_n b_n * exp(E_n * tau) * zeta^n
          * 1F1(n - 1/2; 2n + 1/2; zeta)

with tau = t0 + T - t, zeta = sigma^2 / (2 alpha^2 nu_t),
E_n = alpha^2 n (2n - 1) and rational coefficients b_n built from exact
half-integer gamma values (b_0 = b_1 = 1, b_2 = -1/30, ...).  tau, zeta and
sqrt(nu_t)/T are :func:`~volswap.model.reduced_variables`'; at tau = 0 kappa
is sqrt(nu_t)/T exactly, the sum being 1 in exact arithmetic.  The
E_n / alpha^2 = lambda_n = n (2n - 1) are the exponents of E[A_s^n], the
moments of the exponential functional (Yor 1992; Dufresne 2001), so the
series is a resummed moment expansion in s = alpha^2 tau, and each term
solves the reduced harmonicity equation :mod:`volswap.verify` checks.

:func:`series_term` is the one definition of the n-th term and
:func:`growth_factor` of its factor e^(E_n tau); the pricer here and the
checks in :mod:`volswap.verify` (the fixed-truncation kappa behind the
finite-difference check and the modes the checks build themselves) all
use them.

For tau > 0 the exp(E_n tau) factors grow super-factorially in n, so the
series is treated as an asymptotic expansion: :func:`truncated_sum`, the
one truncation rule of the paper's series (this one and the Bessel-mode
series of psi in :mod:`volswap.verify`), sums to the smallest-magnitude
term and reports that term as the error estimate; :func:`kappa_series`
classifies the outcome as convergent-like, asymptotically truncated, or
diverging.  Ground truth outside the trustworthy region comes from the
Monte Carlo and PDE oracles in the sibling modules.

The evaluation policy is the module constants ``MAX_TERMS``, ``REL_TOL``
and ``ZETA_MAX`` here and ``specfun.KUMMER_REL_TOL`` for 1F1, read at call
time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import specfun
from .exceptions import AccuracyError, DomainError, SingularityError
from .model import (MarketState, PricingResult, SabrParams, SwapContract,
                    compose_price, reduced_variables)

REGIME_CONVERGENT = "convergent_like"
REGIME_ASYMPTOTIC = "asymptotic_truncated"
REGIME_DIVERGING = "diverging"
#: the warnings of :func:`price_volatility_swap`
SERIES_DIVERGING = "SERIES_DIVERGING"
SERIES_ASYMPTOTIC_TRUNCATED = "SERIES_ASYMPTOTIC_TRUNCATED"

#: a truncation whose smallest term still exceeds this fraction of the sum
#: carries no usable accuracy and is flagged as diverging.
DIVERGENCE_FRACTION = 0.1
#: terms :func:`kappa_series` sums at most.
MAX_TERMS = 64
#: a term within this fraction of the partial sum is small; two end the sum.
REL_TOL = 1e-10
#: zeta above which every price is diverging: the terms cancel to F ~ 1, and
#: the n = 0 term -3.1e15 at zeta = 40 alone has an ulp of 0.5.
ZETA_MAX = 40.0


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


@functools.cache
def coeff_b(n: int) -> float:
    """Series coefficient b_n as a float, memoised (exact rational under the hood)."""
    return float(coeff_b_exact(n))


def growth_factor(n: int, alpha: float, tau: float) -> float:
    """Mode growth factor e^(E_n tau), E_n = alpha^2 n (2n - 1); +inf once
    it leaves the float range.  Not n (2n - 1) s: that rounds apart, moving
    trusted kappas by up to 2.5e7 times the error estimate the series reports."""
    try:
        return math.exp(alpha * alpha * n * (2 * n - 1) * tau)
    except OverflowError:
        return math.inf


def series_term(n: int, zeta: float, tau: float, alpha: float) -> float:
    """n-th kappa-series term b_n e^(E_n tau) zeta^n 1F1(n-1/2; 2n+1/2; zeta).

    The only definition of the term.  A growth factor e^(E_n tau) or a
    1F1 beyond the float range makes the term a signed infinity.
    """
    f = specfun.kummer_1f1(n - 0.5, 2 * n + 0.5, zeta)
    return coeff_b(n) * growth_factor(n, alpha, tau) * zeta ** n * f


def truncated_sum(terms) -> tuple:
    """Sum ``terms`` in order by the one truncation rule of the paper's series.

    The sum stops on two consecutive terms within ``REL_TOL`` of the partial
    sum ("tolerance"), on three growing magnitudes in a row ("growth"), on a
    non-finite term, which is not summed ("overflow"), or at the end of
    ``terms`` ("exhausted").  On the tolerance stop every term is kept and
    the last one is the smallest.  Otherwise the sum is truncated just
    before the smallest term m, whose magnitude is the error estimate
    (optimal truncation of an asymptotic series); at m = 0 the first term
    is kept.  Raises :class:`AccuracyError` when no term is finite.

    Returns
    -------
    (value, m, estimate = |term m|, stop reason, number of finite terms)
    """
    mags = []
    partials = []
    partial = 0.0
    small_streak = 0
    stop = "exhausted"
    for term in terms:
        if not math.isfinite(term):
            stop = "overflow"
            break
        partial += term
        partials.append(partial)
        mags.append(abs(term))
        small_streak = small_streak + 1 if mags[-1] <= REL_TOL * abs(partial) else 0
        if small_streak == 2:
            return partial, len(mags) - 1, mags[-1], "tolerance", len(mags)
        if len(mags) >= 3 and mags[-1] > mags[-2] > mags[-3]:
            stop = "growth"
            break
    if not mags:
        raise AccuracyError("series produced no finite terms")
    m = mags.index(min(mags))
    return partials[max(m - 1, 0)], m, mags[m], stop, len(mags)


def kappa_series(state: MarketState, params: SabrParams,
                 contract: SwapContract) -> tuple:
    """Expected annualized volatility from the hypergeometric series.

    Sums at most ``MAX_TERMS`` terms by :func:`truncated_sum`.  A zeta
    above ``ZETA_MAX``, a negative value, a non-finite term, a smallest term
    at n = 0, or an estimate above ``DIVERGENCE_FRACTION`` of the sum yields
    the diverging verdict; the best truncation is still returned, flagged
    not converged.  tau = 0 gives the exact sqrt(nu)/T as one converged term
    of estimate 0.  Raises :class:`SingularityError` where zeta is not finite.

    Returns
    -------
    (kappa, SeriesDiagnostics)
    """
    tau, _, zeta, root_nu = reduced_variables(state, params, contract)
    if zeta == math.inf:
        raise SingularityError(
            "zeta = sigma^2 / (2 alpha^2 nu) is not finite (nu = 0 or beyond the "
            "float range): the series regime is excluded; price it with "
            "--engine pde or --engine mc")
    if tau == 0.0:
        return root_nu, SeriesDiagnostics(1, 0, 0.0, True, REGIME_CONVERGENT)
    value, m, estimate, stop, terms_used = truncated_sum(
        series_term(n, zeta, tau, params.alpha) for n in range(MAX_TERMS))
    kappa = root_nu * value
    if (zeta > ZETA_MAX or m == 0 or stop == "overflow" or kappa < 0
            or estimate > DIVERGENCE_FRACTION * abs(value)):
        converged, regime = False, REGIME_DIVERGING
    elif stop == "tolerance":
        converged, regime = True, REGIME_CONVERGENT
    else:
        converged = estimate <= REL_TOL * abs(value)
        regime = REGIME_ASYMPTOTIC
    return kappa, SeriesDiagnostics(terms_used, m, estimate, converged, regime)


def price_volatility_swap(state: MarketState, params: SabrParams,
                          contract: SwapContract, df: float) -> PricingResult:
    """The series kappa discounted by :func:`~volswap.model.compose_price`,
    flagged where diverging or truncated short of convergence.  Raises what
    ``compose_price`` and :func:`kappa_series` raise."""
    def series():
        kappa, diag = kappa_series(state, params, contract)
        warnings = ()
        if diag.regime == REGIME_DIVERGING:
            warnings = (SERIES_DIVERGING,)
        elif diag.regime == REGIME_ASYMPTOTIC and not diag.converged:
            warnings = (SERIES_ASYMPTOTIC_TRUNCATED,)
        return kappa, diag, warnings

    return compose_price(contract, df, series)
