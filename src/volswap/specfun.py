"""Scalar special functions used by the volatility-swap pricer.

Everything here is self-contained on top of ``math``:

* exact half-integer gamma values Gamma(k/2)/sqrt(pi) as rationals,
* the confluent hypergeometric (Kummer) function 1F1(a;b;z) for z >= 0,
* the imaginary error function erfi,
* the modified Bessel function I_nu of the first kind for fractional order.

Each function is one convergent series summed by term recurrence, capped
at ``MAX_TERMS`` terms.  1F1 and I_nu stop once two consecutive terms drop
below their relative tolerance (``KUMMER_REL_TOL`` for 1F1, the one value
every caller uses, ``BESSEL_REL_TOL`` for I_nu), which guards against
even/odd term oscillation; erfi stops on the first term below 1e-17 of the
sum.  A result beyond the float range is a signed infinity, not an
exception.

1F1 reads the factors of its recurrence that do not depend on the
argument, ((a + m)/(b + m), m + 1.0), from a tuple per (a, b), replaced by
a longer one when a call sums past its end; at most ``FACTOR_TABLES`` are
kept.  Each term is the product the recurrence forms without the tuple, in
the same order, so a value has the same bits however long the tuple is.
On the pricer's hot path 1F1 also drops abs for a, b > 0,
bit-identically (see :func:`kummer_1f1`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exceptions import DomainError

SQRT_PI = math.sqrt(math.pi)

#: term cap of the 1F1, erfi and I_nu series.
MAX_TERMS = 2000
#: relative term size at which the 1F1 series stop.
KUMMER_REL_TOL = 1e-13
#: relative term size at which the I_nu series stops.
BESSEL_REL_TOL = 1e-14
#: 1F1 (a, b) whose argument-free factors are kept; the pricer uses 64.
FACTOR_TABLES = 256

#: (a, b) -> the pairs ((a + m)/(b + m), m + 1.0), m = 0, 1, ..., of
#: 1F1(a; b; .).  A tuple is never changed once stored, only replaced by
#: another, so threads that grow it at once store prefixes of one sequence;
#: racing at the cap, each may clear or store, which changes no value.
_KUMMER_PAIRS: dict = {}


def gamma_half_integer(k: int) -> Fraction:
    """The rational Gamma(k/2)/sqrt(pi), exactly, for odd integer k.

    In closed form, with k/2 = m + 1/2: Gamma(m + 1/2)/sqrt(pi) =
    (2m)! / (4^m m!) = (k - 2)!! / 2^((k-1)/2) for m >= 0, and
    Gamma(1/2 - j)/sqrt(pi) = (-4)^j j! / (2j)! = (-2)^j / (2j - 1)!! for
    j = -m > 0 (the poles of Gamma sit at non-positive integers, which k/2
    never hits when k is odd).
    """
    if not isinstance(k, int) or k % 2 == 0:
        raise DomainError(f"gamma_half_integer requires an odd integer, got {k!r}")
    m = (k - 1) // 2
    if m >= 0:
        return Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
    return Fraction((-4) ** -m * math.factorial(-m), math.factorial(-2 * m))


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for non-pole real x.

    Gamma is negative on (-1, 0), positive on (-2, -1), and so on: the sign
    flips at every pole, so it is negative exactly when floor(x) is odd.
    """
    if x > 0:
        return 1.0
    return -1.0 if math.floor(x) % 2 else 1.0


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function 1F1(a;b;z) for z >= 0.

    Taylor summation by term recurrence, stopped on two consecutive terms
    within ``KUMMER_REL_TOL`` of the partial sum; for a non-positive integer
    a every term past the polynomial's degree is exactly 0.  At the pricer's
    (n - 1/2, 2n + 1/2), n in {0, 1, 2, 10}, and z from 41 to 716 it is
    within 2.7e-13 relative of a 40-digit evaluation, converged: the terms
    past the first share one sign.  A value beyond the float range is a
    signed infinity (from z ~ 717.1 at n = 0, 723.2 at n = 1, 753.6 at
    n = 10).

    Term m + 1 is term m times r z / c with the z-free pair
    (r, c) = ((a + m)/(b + m), m + 1.0) of ``_KUMMER_PAIRS``, the
    left-to-right product of the textbook recurrence, so the bits do not
    depend on how long the stored tuple is.  For a, b > 0 every term and
    partial sum is positive, +inf or 0, so testing ``term <= tol * total``
    decides as the abs form; a <= 0 or b <= 0 (the n = 0 term, the
    polynomial case) takes the loop with abs.

    Parameters
    ----------
    a, b : float
        Kummer parameters; b must not be a non-positive integer.
    z : float
        Argument, z >= 0.

    Returns
    -------
    float
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise DomainError("kummer_1f1 requires finite arguments")
    if b <= 0 and b == int(b):
        raise DomainError(f"kummer_1f1 pole: b={b} is a non-positive integer")
    if z < 0:
        raise DomainError(f"kummer_1f1 requires z >= 0, got {z}")
    if z == 0.0:
        return 1.0

    tol = KUMMER_REL_TOL
    total = term = 1.0
    small_streak = 0
    cap = MAX_TERMS
    pairs = _KUMMER_PAIRS.get((a, b), ())
    summed = 0
    positive = a > 0 and b > 0
    while True:     # over the stored pairs, then over each longer tuple's rest
        if positive:
            for r, c in pairs[summed:cap]:
                term *= r * z / c
                total += term
                if term <= tol * total:
                    small_streak += 1
                    if small_streak >= 2:
                        return total
                else:
                    small_streak = 0
        else:
            for r, c in pairs[summed:cap]:
                term *= r * z / c
                total += term
                if abs(term) <= tol * abs(total):
                    small_streak += 1
                    if small_streak >= 2:
                        return total
                else:
                    small_streak = 0
        summed = len(pairs)
        if summed >= cap:
            return total
        pairs = _kummer_pairs(a, b, min(2 * summed + 32, cap))


def _kummer_pairs(a: float, b: float, length: int) -> tuple:
    """The first ``length`` pairs ((a + m)/(b + m), m + 1.0) of 1F1(a; b; .),
    stored for (a, b) in ``_KUMMER_PAIRS``, which is emptied when full."""
    pairs = tuple([((a + m) / (b + m), m + 1.0) for m in range(length)])
    if len(_KUMMER_PAIRS) >= FACTOR_TABLES:
        _KUMMER_PAIRS.clear()
    _KUMMER_PAIRS[a, b] = pairs
    return pairs


def erfi(x: float) -> float:
    """Imaginary error function erfi(x) = (2/sqrt(pi)) * int_0^x e^(s^2) ds.

    Odd in x.  Maclaurin series (2/sqrt(pi)) sum_k x^(2k+1) / (k! (2k+1)),
    all terms positive, stopped on the first term below 1e-17 of the sum.
    Its relative error, about x^2 times the rounding of x*x, is at most
    1.6e-14 for |x| <= 12 and 6.2e-14 below 26.66 against a 40-digit
    evaluation; from |x| ~ 26.66 the terms overflow and the value is a
    signed infinity.
    """
    if not math.isfinite(x):
        raise DomainError(f"erfi requires a finite argument, got {x}")
    if x == 0.0:
        return 0.0
    if x < 0.0:
        return -erfi(-x)
    x2 = x * x
    power = x          # x^(2k+1) / k!
    total = x
    for k in range(1, MAX_TERMS):
        power *= x2 / k
        contrib = power / (2 * k + 1)
        total += contrib
        if contrib <= 1e-17 * total:
            break
    return (2.0 / SQRT_PI) * total


def bessel_i(order: float, y: float) -> float:
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
            return 1.0
        if order > 0.0:
            return 0.0
        return math.inf

    half = 0.5 * y
    quarter_y2 = half * half
    log_first = order * math.log(half) - math.lgamma(order + 1.0)
    term = _gamma_sign(order + 1.0) * math.exp(log_first)
    total = term
    small_streak = 0
    for m in range(MAX_TERMS):
        term *= quarter_y2 / ((m + 1) * (order + m + 1))
        total += term
        if abs(term) <= BESSEL_REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    return total
