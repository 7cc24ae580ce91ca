"""Mechanized verification of the identities behind the series solution.

Five families of checks:

* the Bessel-mode expansion of y^(-1/2) (pointwise convergent),
* the PDE residual of the truncated Bessel-mode solution for psi,
* the functional-calculus harmonicity condition
  D_t kappa + (alpha^2 sigma^2 / 2) (vertical grad)^2 kappa = 0,
  both term-by-term in closed form and by finite differences,
* the combinatorial identity behind the terminal value kappa = sqrt(nu)/T,
  evaluated in exact rational arithmetic so rounding can be ruled out,
* the integral components J0 (in erfi and 1F1 form) and J_inf, which must
  reassemble the b_n series.

The fixed-truncation kappa and J_inf sum the pricer's own
:func:`volswap.series_pricer.series_term`.

Every floating-point check returns a :class:`ResidualReport`; the exact
check returns the rational sum itself (zero when the identity holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import specfun
from .exceptions import DomainError, InconclusiveError
from .model import MarketState, SabrParams, SwapContract
from .series_pricer import coeff_b, energy_e, series_term, series_variables

SQRT2 = math.sqrt(2.0)

TOL_BESSEL_EXPANSION = 1e-6
TOL_PSI_RESIDUAL = 1e-6
TOL_FUNCTIONAL = 1e-9
TOL_KUMMER = 1e-9
TOL_FINITE_DIFF = 1e-5

#: 1F1 tolerance of the series terms summed here: kummer_1f1's default
TERM_REL_TOL = 1e-14


@dataclass(frozen=True)
class ResidualReport:
    point: str
    residual: float
    scale: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.residual) / self.scale <= self.tolerance

    @property
    def relative(self) -> float:
        return abs(self.residual) / self.scale


def _coeff_a(n: int) -> float:
    """a_n = (-1)^n (2n - 1/2) Gamma(n - 1/2) / n!  (exact before rounding)."""
    g = specfun.gamma_half_integer(2 * n - 1).rational
    sign = 1 if n % 2 == 0 else -1
    return float(sign * Fraction(4 * n - 1, 2) * g
                 / math.factorial(n)) * specfun.SQRT_PI


def check_terminal_identity(s: int) -> Fraction:
    """Exact rational sum behind the zeta^s coefficient at tau = 0.

    sum_{0<=n<=s} (-1)^(n+1) (2n - 1/2) Gamma(n-1/2) / (n! (s-n)! Gamma(s+n+1/2))

    The sqrt(pi) factors of the gamma pair cancel, leaving a rational that
    must vanish for every s >= 1 (for s = 0 the sum is -1, which the
    Gamma(-1/2)/(2 sqrt(pi)) prefactor turns into the leading coefficient 1).
    """
    if s < 0:
        raise DomainError(f"s must be >= 0, got {s}")
    total = Fraction(0)
    for n in range(s + 1):
        ratio = (specfun.gamma_half_integer(2 * n - 1).rational
                 / specfun.gamma_half_integer(2 * (s + n) + 1).rational)
        sign = -1 if n % 2 == 0 else 1
        total += (sign * Fraction(4 * n - 1, 2) * ratio
                  / (math.factorial(n) * math.factorial(s - n)))
    return total


def check_bessel_sqrt_expansion(y: float, n_terms: int,
                                tolerance: float = TOL_BESSEL_EXPANSION) -> ResidualReport:
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
                          tolerance=tolerance)


def psi_series_term(n: int, tau: float, y: float, alpha: float) -> float:
    """One Bessel mode of psi: a_n (y/2)^(1/2) I_(2n-1/2)(y) e^(E_n tau).

    Overflow of the growth factor returns a signed infinity, which the
    blow-up guards treat as a mode past the usable range.
    """
    f_n = math.sqrt(0.5 * y) * specfun.bessel_i(2 * n - 0.5, y).value
    a_n = _coeff_a(n)
    try:
        return a_n * f_n * math.exp(energy_e(n, alpha) * tau)
    except OverflowError:
        return math.copysign(math.inf, a_n * f_n)


def psi_series(tau: float, y: float, alpha: float, n_terms: int) -> float:
    """Truncated Bessel-mode representation of psi(t, y)."""
    return sum(psi_series_term(n, tau, y, alpha) for n in range(n_terms))


def psi_series_optimal(tau: float, y: float, alpha: float,
                       max_terms: int = 64) -> tuple:
    """Sum the psi modes to the smallest one; returns (value, error_estimate)."""
    total = 0.0
    best = None
    mags = []
    for n in range(max_terms):
        term = psi_series_term(n, tau, y, alpha)
        mags.append(abs(term))
        if n >= 2 and mags[n] > mags[n - 1] > mags[n - 2]:
            m = mags.index(min(mags))
            partial = sum(psi_series_term(j, tau, y, alpha) for j in range(m))
            return partial, mags[m]
        total += term
    return total, mags[-1]


def _mode_blowup_guard(tau: float, y: float, alpha: float, n_terms: int):
    mags = [abs(psi_series_term(n, tau, y, alpha)) for n in range(n_terms)]
    m = mags.index(min(mags))
    if m < n_terms - 1 and mags[-1] > 10.0 * mags[m]:
        raise InconclusiveError(
            f"n_terms={n_terms} extends past the blow-up index {m} at "
            f"alpha^2*tau={alpha * alpha * tau:.3g}, y={y}: the truncated "
            "series no longer approximates psi there")


def check_psi_pde_residual(tau: float, y: float, alpha: float, n_terms: int,
                           tolerance: float = TOL_PSI_RESIDUAL) -> ResidualReport:
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
    lhs = 0.0          # (2/alpha^2) d_tau psi == -(2/alpha^2) d_t psi
    psi = 0.0
    psi_dd = 0.0
    for n in range(n_terms):
        k = 2 * n - 0.5
        i_km2 = specfun.bessel_i(k - 2, y).value
        i_km1 = specfun.bessel_i(k - 1, y).value
        i_k = specfun.bessel_i(k, y).value
        i_kp1 = specfun.bessel_i(k + 1, y).value
        i_kp2 = specfun.bessel_i(k + 2, y).value
        i_p = 0.5 * (i_km1 + i_kp1)
        i_pp = 0.25 * (i_km2 + 2.0 * i_k + i_kp2)

        a_e = _coeff_a(n) * math.exp(energy_e(n, alpha) * tau)
        f = sqrt_y2 * i_k
        f_dd = (-0.25 * i_k / (y * math.sqrt(y)) + i_p / math.sqrt(y)
                + math.sqrt(y) * i_pp) / SQRT2
        psi += a_e * f
        psi_dd += a_e * f_dd
        lhs += a_e * (k * k - 0.25) * f     # (2/alpha^2) E_n = k^2 - 1/4

    rhs = y * y * psi_dd - y * y * psi
    scale = abs(y * y * psi_dd) + abs(y * y * psi) + 1e-300
    return ResidualReport(point=f"tau={tau}, y={y}, alpha={alpha}, n_terms={n_terms}",
                          residual=lhs - rhs, scale=scale, tolerance=tolerance)


def _f_and_derivative(n: int, zeta: float) -> tuple:
    """f_n(zeta) = 1F1(n-1/2; 2n+1/2; zeta) and its contiguous-relation derivative."""
    a = n - 0.5
    b = 2 * n + 0.5
    f = specfun.kummer_1f1(a, b, zeta).value
    f_prime = a / b * specfun.kummer_1f1(a + 1.0, b + 1.0, zeta).value
    return f, f_prime


def functional_term_pieces(n: int, zeta: float, tau: float, alpha: float) -> tuple:
    """(D-side, vertical-side) contributions of mode n, common factors dropped.

    The D side carries the time and horizontal derivatives; the vertical
    side is (alpha^2 sigma^2 / 2)(vertical grad)^2 assembled from the raw
    second-derivative expression with zeta^2 f'' eliminated through the
    Kummer ODE zeta^2 f'' = zeta (zeta - 2n - 1/2) f' + zeta (n - 1/2) f.
    Their sum must vanish identically.
    """
    f, fp = _f_and_derivative(n, zeta)
    b_e = coeff_b(n) * math.exp(energy_e(n, alpha) * tau)
    a2 = alpha * alpha
    zn = zeta ** n

    d_side = 2.0 * a2 * b_e * zn * (
        f * (0.5 * zeta - energy_e(n, alpha) / (2.0 * a2) - zeta * n)
        - zeta * zeta * fp)

    zeta2_fpp = zeta * (zeta - 2 * n - 0.5) * fp + zeta * (n - 0.5) * f
    v_side = a2 * b_e * zn * (
        (zeta * fp + n * f)
        + 2.0 * (2.0 * n * zeta * fp + n * (n - 1) * f + zeta2_fpp))
    return d_side, v_side


def functional_term_residual(n: int, zeta: float, tau: float, alpha: float,
                             tolerance: float = TOL_FUNCTIONAL) -> ResidualReport:
    """Per-mode harmonicity residual; exact cancellation up to rounding."""
    d_side, v_side = functional_term_pieces(n, zeta, tau, alpha)
    scale = max(abs(d_side), abs(v_side), 1e-300)
    return ResidualReport(point=f"n={n}, zeta={zeta}, tau={tau}, alpha={alpha}",
                          residual=d_side + v_side, scale=scale,
                          tolerance=tolerance)


def check_functional_residual(state: MarketState, params: SabrParams,
                              contract: SwapContract, n_terms: int,
                              tolerance: float = TOL_FUNCTIONAL) -> ResidualReport:
    """Summed harmonicity residual of the truncated kappa series."""
    sv = series_variables(state, params, contract)
    prefactor = math.sqrt(state.nu) / contract.tenor
    d_sum = 0.0
    v_sum = 0.0
    for n in range(n_terms):
        d_side, v_side = functional_term_pieces(n, sv.zeta, sv.tau, params.alpha)
        d_sum += prefactor * d_side
        v_sum += prefactor * v_side
    scale = max(abs(d_sum), abs(v_sum), 1e-300)
    return ResidualReport(
        point=f"zeta={sv.zeta:.6g}, tau={sv.tau}, alpha={params.alpha}, "
              f"n_terms={n_terms}",
        residual=d_sum + v_sum, scale=scale, tolerance=tolerance)


def _kappa_truncated(nu: float, sigma: float, tau: float, alpha: float,
                     tenor: float, n_terms: int) -> float:
    """Fixed-truncation kappa used for the finite-difference cross-checks."""
    zeta = sigma * sigma / (2.0 * alpha * alpha * nu)
    total = sum(series_term(n, zeta, tau, alpha, TERM_REL_TOL)
                for n in range(n_terms))
    return math.sqrt(nu) / tenor * total


def check_functional_fd(state: MarketState, params: SabrParams,
                        contract: SwapContract, n_terms: int,
                        step: float = 1e-4,
                        tolerance: float = TOL_FINITE_DIFF) -> list:
    """Finite-difference cross-validation of D_t and the vertical Laplacian.

    The horizontal part of D_t advances the realized variance at rate
    sigma^2 while tau shrinks, so the time bump moves (tau, nu) jointly;
    the vertical derivative bumps sigma at frozen (tau, nu).  Returns one
    report for each derivative.
    """
    sv = series_variables(state, params, contract)
    nu, sigma, tau = state.nu, state.sigma, sv.tau
    alpha, tenor = params.alpha, contract.tenor
    h = step

    d_analytic = 0.0
    v_analytic = 0.0
    prefactor = math.sqrt(nu) / tenor
    for n in range(n_terms):
        d_side, v_side = functional_term_pieces(n, sv.zeta, tau, alpha)
        d_analytic += prefactor * d_side
        v_analytic += prefactor * v_side

    kappa_fwd = _kappa_truncated(nu + sigma * sigma * h, sigma, tau - h,
                                 alpha, tenor, n_terms)
    kappa_bwd = _kappa_truncated(nu - sigma * sigma * h, sigma, tau + h,
                                 alpha, tenor, n_terms)
    d_fd = (kappa_fwd - kappa_bwd) / (2.0 * h)

    kappa_up = _kappa_truncated(nu, sigma + h, tau, alpha, tenor, n_terms)
    kappa_mid = _kappa_truncated(nu, sigma, tau, alpha, tenor, n_terms)
    kappa_dn = _kappa_truncated(nu, sigma - h, tau, alpha, tenor, n_terms)
    v_fd = (0.5 * alpha * alpha * sigma * sigma
            * (kappa_up - 2.0 * kappa_mid + kappa_dn) / (h * h))

    scale_d = max(abs(d_analytic), abs(d_fd), 1e-300)
    scale_v = max(abs(v_analytic), abs(v_fd), 1e-300)
    label = f"zeta={sv.zeta:.6g}, tau={tau}, alpha={alpha}, step={h}"
    return [
        ResidualReport(point=f"D_t: {label}", residual=d_fd - d_analytic,
                       scale=scale_d, tolerance=tolerance),
        ResidualReport(point=f"vertical: {label}", residual=v_fd - v_analytic,
                       scale=scale_v, tolerance=tolerance),
    ]


def check_kummer_ode(a: float, b: float, z: float,
                     tolerance: float = TOL_KUMMER) -> ResidualReport:
    """Residual of z F'' - (z - b) F' - a F = 0 via contiguous relations."""
    if z <= 0:
        raise DomainError(f"z must be positive, got {z}")
    f = specfun.kummer_1f1(a, b, z).value
    fp = a / b * specfun.kummer_1f1(a + 1.0, b + 1.0, z).value
    fpp = (a * (a + 1.0) / (b * (b + 1.0))
           * specfun.kummer_1f1(a + 2.0, b + 2.0, z).value)
    residual = z * fpp - (z - b) * fp - a * f
    return ResidualReport(point=f"a={a}, b={b}, z={z}", residual=residual,
                          scale=max(1.0, abs(f)), tolerance=tolerance)


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


def j_infinity(z: float, tau: float, alpha: float, n_max: int) -> float:
    """Partial sum (n = 1 .. n_max) of the higher-mode integral components.

    J_inf = (sqrt(pi)/2) (z/4)^(-1/2) sum_n b_n e^(E_n tau) (z/4)^n
            * 1F1(n-1/2; 2n+1/2; z/4),

    the kappa-series terms n >= 1 at zeta = z/4.  Reassembling
    (sqrt(nu)/T) * (1 + sqrt(z/pi) * (J0 + J_inf)) must reproduce the b_n
    series at matched truncation.
    """
    if z <= 0:
        raise DomainError(f"j_infinity requires z > 0, got {z}")
    if tau < 0 or alpha <= 0:
        raise DomainError("j_infinity requires tau >= 0 and alpha > 0")
    zeta = z / 4.0
    total = 0.0
    for n in range(1, n_max + 1):
        term = series_term(n, zeta, tau, alpha, TERM_REL_TOL)
        if not math.isfinite(term):
            raise OverflowError(f"j_infinity term n={n} overflowed")
        total += term
    return specfun.SQRT_PI / 2.0 * total / math.sqrt(zeta)
