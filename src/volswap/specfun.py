"""Scalar special functions used by the volatility-swap pricer.

Everything here is self-contained on top of ``math``:

* exact half-integer gamma values Gamma(k/2)/sqrt(pi) as rationals,
* the confluent hypergeometric (Kummer) function 1F1(a;b;z) for z >= 0,
* the imaginary error function erfi,
* the modified Bessel function I_nu of the first kind for fractional order.

All series evaluators stop once two consecutive terms drop below their
relative tolerance (``KUMMER_REL_TOL`` for 1F1, the one value every caller
uses, ``BESSEL_REL_TOL`` for I_nu), which guards against even/odd term
oscillation, and report what they did via :class:`SeriesEvalReport`.  A
result beyond the float range is a signed infinity, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exceptions import DomainError

SQRT_PI = math.sqrt(math.pi)

#: switch-over point between the direct Taylor series and the large-argument
#: asymptotic expansion of 1F1.  Below it the direct series needs O(z) terms
#: and loses no precision (z >= 0 keeps every partial sum tame); above it the
#: asymptotic form is cheaper and covers the nu -> 0 corner where z -> inf.
KUMMER_ASYMPTOTIC_Z = 40.0
#: term cap of the direct 1F1 and I_nu series.
MAX_TERMS = 2000
#: relative term size at which the 1F1 series stop.
KUMMER_REL_TOL = 1e-13
#: relative term size at which the I_nu series stops.
BESSEL_REL_TOL = 1e-14


@dataclass(frozen=True)
class SeriesEvalReport:
    """Outcome of a truncated series evaluation."""

    value: float
    terms_used: int
    last_term_abs: float
    converged: bool


def gamma_half_integer(k: int) -> Fraction:
    """The rational Gamma(k/2)/sqrt(pi), exactly, for odd integer k.

    Starts from Gamma(1/2) = sqrt(pi) and walks the recurrence
    Gamma(x+1) = x*Gamma(x) upward or downward.  Works for negative odd k
    as well (the poles of Gamma sit at non-positive integers, which k/2
    never hits when k is odd).
    """
    if not isinstance(k, int) or k % 2 == 0:
        raise DomainError(f"gamma_half_integer requires an odd integer, got {k!r}")
    coeff = Fraction(1)
    x = Fraction(k, 2)
    while x > Fraction(1, 2):
        x -= 1
        coeff *= x
    while x < Fraction(1, 2):
        coeff /= x
        x += 1
    return coeff


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for non-pole real x.

    Gamma is negative on (-1, 0), positive on (-2, -1), and so on: the sign
    flips at every pole, so it is negative exactly when floor(x) is odd.
    """
    if x > 0:
        return 1.0
    return -1.0 if math.floor(x) % 2 else 1.0


def kummer_1f1(a: float, b: float, z: float) -> SeriesEvalReport:
    """Confluent hypergeometric function 1F1(a;b;z) for z >= 0.

    Direct Taylor summation by term recurrence up to the switch-over point
    ``KUMMER_ASYMPTOTIC_Z``; beyond it the large-z form
    Gamma(b)/Gamma(a) * e^z * z^(a-b) * (1 + O(1/z)) is used and the first
    omitted term is reported as the truncation-error estimate; once its
    prefactor leaves the float range (z above ~717) the value is a signed
    infinity.  The asymptotic branch is only taken when its leading term
    ratio already decays, otherwise the (always convergent) direct series is
    kept.  Both stop at relative term size ``KUMMER_REL_TOL``.  For a
    non-positive integer a every term past the polynomial's degree is
    exactly 0, so the two-small-terms stop ends the sum.

    Parameters
    ----------
    a, b : float
        Kummer parameters; b must not be a non-positive integer.
    z : float
        Argument, z >= 0.

    Returns
    -------
    SeriesEvalReport
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise DomainError("kummer_1f1 requires finite arguments")
    if b <= 0 and b == int(b):
        raise DomainError(f"kummer_1f1 pole: b={b} is a non-positive integer")
    if z < 0:
        raise DomainError(f"kummer_1f1 requires z >= 0, got {z}")
    if z == 0.0:
        return SeriesEvalReport(1.0, 1, 0.0, True)

    use_asymptotic = (
        z > KUMMER_ASYMPTOTIC_Z
        and a != 0.0
        and abs((b - a) * (1 - a)) < 0.5 * z
    )
    if use_asymptotic:
        return _kummer_asymptotic(a, b, z)
    return _kummer_direct(a, b, z)


def _kummer_direct(a: float, b: float, z: float) -> SeriesEvalReport:
    total = 1.0
    term = 1.0
    small_streak = 0
    for m in range(MAX_TERMS):
        term *= (a + m) / (b + m) * z / (m + 1)
        total += term
        if abs(term) <= KUMMER_REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return SeriesEvalReport(total, m + 2, abs(term), True)
        else:
            small_streak = 0
    return SeriesEvalReport(total, MAX_TERMS + 1, abs(term), False)


def _kummer_asymptotic(a: float, b: float, z: float) -> SeriesEvalReport:
    sign = _gamma_sign(a)
    try:
        prefactor = sign * math.exp(math.lgamma(b) - math.lgamma(a) + z
                                    + (a - b) * math.log(z))
    except OverflowError:
        prefactor = sign * math.inf
    total = 1.0
    term = 1.0
    last = 1.0
    terms_used = 1
    converged = False
    for k in range(200):
        term *= (b - a + k) * (1 - a + k) / ((k + 1) * z)
        if abs(term) > last:
            break  # smallest term reached: optimal truncation
        total += term
        last = abs(term)
        terms_used += 1
        if abs(term) <= KUMMER_REL_TOL * abs(total):
            converged = True
            break
    return SeriesEvalReport(prefactor * total, terms_used, abs(term * prefactor),
                            converged or last <= KUMMER_REL_TOL * abs(total))


def erfi(x: float) -> float:
    """Imaginary error function erfi(x) = (2/sqrt(pi)) * int_0^x e^(s^2) ds.

    Odd in x.  Maclaurin series for |x| <= 12 (all terms positive: no
    cancellation), asymptotic expansion e^(x^2)/(x sqrt(pi)) beyond.
    Relative accuracy is ~1e-15 for |x| <= 10 and degrades gracefully up to
    the e^(x^2) overflow near |x| ~ 26.64, from where the value is a signed
    infinity (erfi itself leaves the float range at |x| ~ 26.71).
    """
    if not math.isfinite(x):
        raise DomainError(f"erfi requires a finite argument, got {x}")
    if x == 0.0:
        return 0.0
    if x < 0.0:
        return -erfi(-x)
    if x <= 12.0:
        x2 = x * x
        power = x          # x^(2k+1) / k!
        total = x
        for k in range(1, 400):
            power *= x2 / k
            contrib = power / (2 * k + 1)
            total += contrib
            if contrib <= 1e-17 * total:
                break
        return (2.0 / SQRT_PI) * total
    # asymptotic: e^(x^2)/(x sqrt(pi)) * sum_k (2k-1)!!/(2x^2)^k
    total = 1.0
    term = 1.0
    last = 1.0
    for k in range(60):
        term *= (2 * k + 1) / (2.0 * x * x)
        if term > last:
            break
        total += term
        last = term
        if term <= 1e-17 * total:
            break
    try:
        return math.exp(x * x) / (x * SQRT_PI) * total
    except OverflowError:
        return math.inf


def bessel_i(order: float, y: float) -> SeriesEvalReport:
    """Modified Bessel function I_order(y) by direct series for y >= 0.

    I_k(y) = sum_m (y/2)^(2m+k) / (m! * Gamma(k+m+1)); for k >= -1/2 (the
    orders 2n - 1/2 the pricer needs) all terms are positive, so the term
    recurrence loses no precision.  Negative non-integer orders carry the
    Gamma sign through the recurrence.  Summation stops at relative term
    size ``BESSEL_REL_TOL``.
    """
    if y < 0:
        raise DomainError(f"bessel_i requires y >= 0, got {y}")
    if not (order > -1 or order != math.floor(order)):
        raise DomainError(f"bessel_i order {order} outside supported range")
    if y == 0.0:
        if order == 0.0:
            return SeriesEvalReport(1.0, 1, 0.0, True)
        if order > 0.0:
            return SeriesEvalReport(0.0, 1, 0.0, True)
        return SeriesEvalReport(math.inf, 1, 0.0, True)

    half = 0.5 * y
    log_first = order * math.log(half) - math.lgamma(order + 1.0)
    term = _gamma_sign(order + 1.0) * math.exp(log_first)
    total = term
    small_streak = 0
    terms_used = 1
    for m in range(MAX_TERMS):
        term *= half * half / ((m + 1) * (order + m + 1))
        total += term
        terms_used += 1
        if abs(term) <= BESSEL_REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return SeriesEvalReport(total, terms_used, abs(term), True)
        else:
            small_streak = 0
    return SeriesEvalReport(total, terms_used, abs(term), False)
