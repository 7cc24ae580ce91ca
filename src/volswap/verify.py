"""Mechanized verification of the identities behind the series solution.

Five families of checks:

* the Bessel-mode expansion of y^(-1/2) (pointwise convergent),
* the PDE residual of the truncated Bessel-mode solution for psi,
* the functional-calculus harmonicity condition
  D_t kappa + (alpha^2 sigma^2 / 2) (vertical grad)^2 kappa = 0,
  both term-by-term in closed form and by finite differences,
* the combinatorial identity behind the terminal value kappa = sqrt(nu)/T,
  evaluated in exact rational arithmetic so rounding can be ruled out,
* the n = 0 integral component J0 in erfi and in 1F1 form.

Shared pieces, each defined once: a contract's tau, zeta and sqrt(nu)/T are
:func:`~volswap.model.reduced_variables`'; the growth factor e^(E_n tau) is
the pricer's :func:`~volswap.series_pricer.growth_factor` (+inf on overflow,
which the checks report as :class:`InconclusiveError`); the fixed-truncation
kappa sums the pricer's :func:`~volswap.series_pricer.series_term`;
the optimally truncated psi sums its modes by the pricer's truncation rule
:func:`~volswap.series_pricer.truncated_sum`; a_n/sqrt(pi) is the memoised
rational :func:`coeff_a_exact`, behind the expansion and the terminal
identity; :func:`check_functional` sums the harmonicity pieces in one
pass that its closed-form and finite-difference reports share; and
:func:`_kummer_derivatives` gives the 1F1 derivatives of the Kummer ODE and
the harmonicity terms.  Every 1F1 here, as in the pricer, is evaluated to
``specfun.KUMMER_REL_TOL``.  Tolerances, the finite-difference step and the
psi mode cap are module constants.

Every floating-point check returns a :class:`ResidualReport`; the exact
check returns the normalised rational coefficient itself (1 at s = 0, zero
from s = 1 on when the identity holds).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import specfun
from .exceptions import DomainError, InconclusiveError
from .model import MarketState, SabrParams, SwapContract, reduced_variables
from .series_pricer import coeff_b, growth_factor, series_term, truncated_sum

SQRT2 = math.sqrt(2.0)

TOL_BESSEL_EXPANSION = 1e-6
TOL_PSI_RESIDUAL = 1e-6
TOL_FUNCTIONAL = 1e-9
TOL_KUMMER = 1e-9
TOL_FINITE_DIFF = 1e-5
TOL_J0 = 1e-10

#: step of the finite-difference harmonicity check
FD_STEP = 1e-4
#: modes :func:`psi_series_optimal` sums at most
PSI_MAX_TERMS = 64


@dataclass(frozen=True)
class ResidualReport:
    point: str
    residual: float
    scale: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.relative <= self.tolerance

    @property
    def relative(self) -> float:
        return abs(self.residual) / self.scale


@functools.cache
def coeff_a_exact(n: int) -> Fraction:
    """a_n / sqrt(pi) = (-1)^n (2n - 1/2) (Gamma(n - 1/2)/sqrt(pi)) / n!,
    an exact rational, memoised."""
    sign = 1 if n % 2 == 0 else -1
    return (sign * Fraction(4 * n - 1, 2) * specfun.gamma_half_integer(2 * n - 1)
            / math.factorial(n))


def _coeff_a(n: int) -> float:
    """a_n = (-1)^n (2n - 1/2) Gamma(n - 1/2) / n!  (exact before rounding)."""
    return float(coeff_a_exact(n)) * specfun.SQRT_PI


def check_terminal_identity(s: int) -> Fraction:
    """Exact zeta^s coefficient of kappa T / sqrt(nu) at tau = 0, normalised.

    (Gamma(-1/2) / (2 sqrt(pi)))
      * sum_{0<=n<=s} (-1)^(n+1) (2n - 1/2) Gamma(n-1/2) / (n! (s-n)! Gamma(s+n+1/2))
      = sum_{0<=n<=s} (a_n/sqrt(pi)) / ((s-n)! Gamma(s+n+1/2)/sqrt(pi))

    The prefactor is exactly -1 and the sqrt(pi) factors of the gamma pair
    cancel, leaving a rational: the leading coefficient 1 at s = 0, and 0
    for every s >= 1, as kappa = sqrt(nu)/T at tau = 0.
    """
    if s < 0:
        raise DomainError(f"s must be >= 0, got {s}")
    total = Fraction(0)
    for n in range(s + 1):
        total += coeff_a_exact(n) / (math.factorial(s - n)
                                     * specfun.gamma_half_integer(2 * (s + n) + 1))
    return total


def check_bessel_sqrt_expansion(y: float, n_terms: int) -> ResidualReport:
    """Partial sum of 1/sqrt(y) = (1/sqrt(2)) sum_n a_n I_(2n-1/2)(y)."""
    if y <= 0:
        raise DomainError(f"y must be positive, got {y}")
    total = 0.0
    for n in range(n_terms):
        total += _coeff_a(n) * specfun.bessel_i(2 * n - 0.5, y).value
    total /= SQRT2
    target = 1.0 / math.sqrt(y)
    return ResidualReport(point=f"y={y}, n_terms={n_terms}",
                          residual=total - target, scale=target,
                          tolerance=TOL_BESSEL_EXPANSION)


def psi_series_term(n: int, tau: float, y: float, alpha: float) -> float:
    """One Bessel mode of psi: a_n (y/2)^(1/2) I_(2n-1/2)(y) e^(E_n tau).

    Overflow of the growth factor gives a signed infinity, also where the
    Bessel factor underflows to 0, so the blow-up guards see a mode past
    the usable range rather than a NaN.
    """
    f_n = math.sqrt(0.5 * y) * specfun.bessel_i(2 * n - 0.5, y).value
    mode = _coeff_a(n) * f_n
    growth = growth_factor(n, alpha, tau)
    return mode * growth if growth < math.inf else math.copysign(math.inf, mode)


def psi_series_optimal(tau: float, y: float, alpha: float) -> tuple:
    """At most ``PSI_MAX_TERMS`` psi modes summed by the pricer's
    :func:`~volswap.series_pricer.truncated_sum`; returns (value,
    error_estimate)."""
    value, _, estimate, _, _ = truncated_sum(
        psi_series_term(n, tau, y, alpha) for n in range(PSI_MAX_TERMS))
    return value, estimate


def _mode_blowup_guard(tau: float, y: float, alpha: float, n_terms: int):
    mags = [abs(psi_series_term(n, tau, y, alpha)) for n in range(n_terms)]
    m = mags.index(min(mags))
    if m < n_terms - 1 and mags[-1] > 10.0 * mags[m]:
        raise InconclusiveError(
            f"n_terms={n_terms} extends past the blow-up index {m} at "
            f"alpha^2*tau={alpha * alpha * tau:.3g}, y={y}: the truncated "
            "series no longer approximates psi there")


def check_psi_pde_residual(tau: float, y: float, alpha: float,
                           n_terms: int) -> ResidualReport:
    """Residual of -(2/alpha^2) d_t psi = y^2 psi'' - y^2 psi, term-wise.

    The y-derivatives of each mode come from the Bessel derivative
    recurrences I_k' = (I_(k-1) + I_(k+1))/2 and
    I_k'' = (I_(k-2) + 2 I_k + I_(k+2))/4; every mode solves the equation
    exactly, so the residual of the truncated sum measures only evaluation
    error (plus nothing at all from truncation).
    """
    if y <= 0:
        raise DomainError(f"y must be positive, got {y}")
    if tau < 0:
        raise DomainError(f"tau must be non-negative, got {tau}")
    _mode_blowup_guard(tau, y, alpha, n_terms)

    sqrt_y2 = math.sqrt(0.5 * y)
    root_y = math.sqrt(y)
    lhs = 0.0          # (2/alpha^2) d_tau psi == -(2/alpha^2) d_t psi
    psi = 0.0
    psi_dd = 0.0
    # I at the orders k - 2 .. k + 2 of every mode k = 2n - 1/2: one ladder
    ladder = [specfun.bessel_i(m - 2.5, y).value for m in range(2 * n_terms + 3)]
    for n in range(n_terms):
        k = 2 * n - 0.5
        i_km2, i_km1, i_k, i_kp1, i_kp2 = ladder[2 * n:2 * n + 5]
        i_p = 0.5 * (i_km1 + i_kp1)
        i_pp = 0.25 * (i_km2 + 2.0 * i_k + i_kp2)

        a_e = _coeff_a(n) * growth_factor(n, alpha, tau)
        f = sqrt_y2 * i_k
        f_dd = (-0.25 * i_k / (y * root_y) + i_p / root_y + root_y * i_pp) / SQRT2
        psi += a_e * f
        psi_dd += a_e * f_dd
        lhs += a_e * (k * k - 0.25) * f     # (2/alpha^2) E_n = k^2 - 1/4

    rhs = y * y * psi_dd - y * y * psi
    scale = abs(y * y * psi_dd) + abs(y * y * psi) + 1e-300
    return ResidualReport(point=f"tau={tau}, y={y}, alpha={alpha}, n_terms={n_terms}",
                          residual=lhs - rhs, scale=scale,
                          tolerance=TOL_PSI_RESIDUAL)


def _kummer_derivatives(a: float, b: float, z: float, order: int) -> list:
    """[F, F', ..., F^(order)] of F = 1F1(a; b; z) by the contiguous relation
    d^k F / dz^k = ((a)_k / (b)_k) 1F1(a + k; b + k; z)."""
    derivatives = []
    num = den = 1.0            # Pochhammer symbols (a)_k and (b)_k
    for k in range(order + 1):
        derivatives.append(num / den * specfun.kummer_1f1(a + k, b + k, z).value)
        num *= a + k
        den *= b + k
    return derivatives


def functional_term_pieces(n: int, zeta: float, tau: float, alpha: float) -> tuple:
    """(D-side, vertical-side) contributions of mode n, common factors dropped.

    The D side carries the time and horizontal derivatives; the vertical
    side is (alpha^2 sigma^2 / 2)(vertical grad)^2 assembled from the raw
    second-derivative expression with zeta^2 f'' eliminated through the
    Kummer ODE zeta^2 f'' = zeta (zeta - 2n - 1/2) f' + zeta (n - 1/2) f.
    Their sum must vanish identically.  Raises :class:`InconclusiveError`
    once the growth factor e^(E_n tau) leaves the float range.
    """
    growth = growth_factor(n, alpha, tau)
    if math.isinf(growth):
        raise InconclusiveError(
            f"the growth factor of mode n={n} overflows at "
            f"alpha^2*tau={alpha * alpha * tau:.3g}: no finite residual to check")
    f, fp = _kummer_derivatives(n - 0.5, 2 * n + 0.5, zeta, 1)
    b_e = coeff_b(n) * growth
    a2 = alpha * alpha
    zn = zeta ** n

    d_side = 2.0 * a2 * b_e * zn * (
        f * (0.5 * zeta - n * (2 * n - 1) / 2.0 - zeta * n)
        - zeta * zeta * fp)

    zeta2_fpp = zeta * (zeta - 2 * n - 0.5) * fp + zeta * (n - 0.5) * f
    v_side = a2 * b_e * zn * (
        (zeta * fp + n * f)
        + 2.0 * (2.0 * n * zeta * fp + n * (n - 1) * f + zeta2_fpp))
    return d_side, v_side


def functional_term_residual(n: int, zeta: float, tau: float,
                             alpha: float) -> ResidualReport:
    """Per-mode harmonicity residual; exact cancellation up to rounding."""
    d_side, v_side = functional_term_pieces(n, zeta, tau, alpha)
    scale = max(abs(d_side), abs(v_side), 1e-300)
    return ResidualReport(point=f"n={n}, zeta={zeta}, tau={tau}, alpha={alpha}",
                          residual=d_side + v_side, scale=scale,
                          tolerance=TOL_FUNCTIONAL)


def check_functional(state: MarketState, params: SabrParams,
                     contract: SwapContract, n_terms: int) -> list:
    """[summed, D_t, vertical] reports of the harmonicity condition on the
    kappa series truncated to ``n_terms`` modes.

    One pass sums the D and the vertical sides of
    :func:`functional_term_pieces` in kappa units; their sum must vanish,
    and finite differences of the truncated kappa cross-check each side.
    The time bump moves (tau, nu) jointly, as D_t advances the realized
    variance at rate sigma^2 while tau shrinks; the vertical bump moves
    sigma at frozen (tau, nu).  Each central difference is
    Richardson-extrapolated over ``FD_STEP`` and ``FD_STEP/2``, cancelling
    its O(h^2) error, which grows with ``n_terms``.  Raises
    :class:`DomainError` unless ``n_terms >= 1`` (with no term, 0 = 0 would
    pass) and :class:`InconclusiveError` where a growth factor overflows.
    """
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    tau, _, zeta, prefactor = reduced_variables(state, params, contract)
    nu, sigma = state.nu, state.sigma
    alpha, tenor = params.alpha, contract.tenor
    d_sum = v_sum = 0.0
    for n in range(n_terms):
        d_side, v_side = functional_term_pieces(n, zeta, tau, alpha)
        d_sum += prefactor * d_side
        v_sum += prefactor * v_side

    def kappa(nu_b, sigma_b, tau_b):
        # zeta is formed here: the bumps move raw inputs no contract expresses
        zeta_b = sigma_b * sigma_b / (2.0 * alpha * alpha * nu_b)
        total = sum(series_term(n, zeta_b, tau_b, alpha) for n in range(n_terms))
        return math.sqrt(nu_b) / tenor * total

    def d_t(h):
        return (kappa(nu + sigma * sigma * h, sigma, tau - h)
                - kappa(nu - sigma * sigma * h, sigma, tau + h)) / (2.0 * h)

    def vertical(h):
        return (0.5 * alpha * alpha * sigma * sigma
                * (kappa(nu, sigma + h, tau) - 2.0 * kappa(nu, sigma, tau)
                   + kappa(nu, sigma - h, tau)) / (h * h))

    def richardson(diff):
        return (4.0 * diff(0.5 * FD_STEP) - diff(FD_STEP)) / 3.0

    label = f"zeta={zeta:.6g}, tau={tau}, alpha={alpha}"
    summed = ResidualReport(point=f"{label}, n_terms={n_terms}",
                            residual=d_sum + v_sum,
                            scale=max(abs(d_sum), abs(v_sum), 1e-300),
                            tolerance=TOL_FUNCTIONAL)
    return [summed] + [
        ResidualReport(point=f"{name}: {label}, step={FD_STEP}",
                       residual=fd - analytic,
                       scale=max(abs(analytic), abs(fd), 1e-300),
                       tolerance=TOL_FINITE_DIFF)
        for name, fd, analytic in (("D_t", richardson(d_t), d_sum),
                                   ("vertical", richardson(vertical), v_sum))]


def check_kummer_ode(a: float, b: float, z: float) -> ResidualReport:
    """Residual of z F'' - (z - b) F' - a F = 0 via contiguous relations."""
    if z <= 0:
        raise DomainError(f"z must be positive, got {z}")
    f, fp, fpp = _kummer_derivatives(a, b, z, 2)
    residual = z * fpp - (z - b) * fp - a * f
    return ResidualReport(point=f"a={a}, b={b}, z={z}", residual=residual,
                          scale=max(1.0, abs(f)), tolerance=TOL_KUMMER)


def j0_closed_form(z: float) -> float:
    """n = 0 integral component in erfi form.

    J0 = -(pi/2) * erfi(sqrt(z)/2) - sqrt(pi) * (1 - e^(z/4)) / sqrt(z).
    """
    if z <= 0:
        raise DomainError(f"j0 requires z > 0, got {z}")
    root = math.sqrt(z)
    return (-(math.pi / 2.0) * specfun.erfi(root / 2.0)
            - specfun.SQRT_PI * (1.0 - math.exp(z / 4.0)) / root)


def j0_hypergeometric_form(z: float) -> float:
    """Same J0 via 1F1: (sqrt(pi)/2) (z/4)^(-1/2) (1F1(-1/2;1/2;z/4) - 1)."""
    if z <= 0:
        raise DomainError(f"j0 requires z > 0, got {z}")
    f = specfun.kummer_1f1(-0.5, 0.5, z / 4.0)
    return specfun.SQRT_PI / 2.0 * (f.value - 1.0) / math.sqrt(z / 4.0)


def check_j0(z: float) -> ResidualReport:
    """J0 in erfi form against J0 in 1F1 form."""
    hyper = j0_hypergeometric_form(z)
    return ResidualReport(point=f"z={z:.6g}", residual=j0_closed_form(z) - hyper,
                          scale=abs(hyper), tolerance=TOL_J0)
