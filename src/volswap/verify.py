"""Mechanized verification of the identities behind the series solution.

Every check is stated in the reduced variables s = alpha^2 tau,
zeta = sigma^2 / (2 alpha^2 nu) and y.  Five families of checks:

* the Bessel-mode expansion of y^(-1/2) (pointwise convergent),
* the PDE residual 2 d_s psi = y^2 (psi'' - psi) of the truncated
  Bessel-mode solution for psi,
* the functional-calculus harmonicity condition
  D_t kappa + (alpha^2 sigma^2 / 2) (vertical grad)^2 kappa = 0 as the
  chain rule states it for kappa = (sqrt(nu)/T) F(s, zeta),
  d_s F = 2 zeta^2 F_zetazeta + zeta (1 - 2 zeta) F_zeta + zeta F, mode by
  mode in closed form and summed against finite differences,
* the combinatorial identity behind the terminal value kappa = sqrt(nu)/T,
  evaluated in exact rational arithmetic so rounding can be ruled out,
* the n = 0 integral component J0 in erfi and in 1F1 form.

Shared pieces, each defined once: a contract's s and zeta are
:func:`~volswap.model.reduced_variables`'; the growth factor e^(lambda_n s)
is the pricer's :func:`~volswap.series_pricer.growth_factor` (+inf on
overflow, which the checks report as :class:`InconclusiveError`); the
truncated F sums the pricer's :func:`~volswap.series_pricer.series_term`,
and the optimally truncated psi its modes by the pricer's rule
:func:`~volswap.series_pricer.truncated_sum`; a_n/sqrt(pi) is the memoised
rational :func:`coeff_a_exact`; a mode's two sides of the reduced
harmonicity equation are :func:`functional_term_pieces`, summed by
:func:`check_functional` in one pass; and :func:`_kummer_derivatives`
gives the 1F1 derivatives of both.  Every 1F1 here, as in the pricer, is
evaluated to ``specfun.KUMMER_REL_TOL``.  Tolerances, the
finite-difference steps, the psi mode cap and the one depth ``volswap
verify`` runs at are module constants, read when a check is called:
``N_TERMS`` modes of the psi-PDE and harmonicity checks, ``BESSEL_TERMS``
terms of the Bessel-mode expansion and the terminal identity for every
integer s up to ``TERMINAL_S_MAX``.

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

#: steps of the finite-difference harmonicity check, in s and in ln zeta
FD_STEP_S = 2e-5
FD_STEP_LOG_ZETA = 1e-3
#: modes :func:`psi_series_optimal` sums at most
PSI_MAX_TERMS = 64
#: modes of the truncated series the psi-PDE and harmonicity checks sum
N_TERMS = 20
#: terms of the Bessel-mode expansion of y^(-1/2) that its check sums
BESSEL_TERMS = 60
#: largest s of the exact terminal identity in ``volswap verify``
TERMINAL_S_MAX = 60


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


def check_bessel_sqrt_expansion(y: float) -> ResidualReport:
    """1/sqrt(y) = (1/sqrt(2)) sum_n a_n I_(2n-1/2)(y) to ``BESSEL_TERMS`` terms."""
    if y <= 0:
        raise DomainError(f"y must be positive, got {y}")
    total = 0.0
    for n in range(BESSEL_TERMS):
        total += _coeff_a(n) * specfun.bessel_i(2 * n - 0.5, y)
    total /= SQRT2
    target = 1.0 / math.sqrt(y)
    return ResidualReport(point=f"y={y}, n_terms={BESSEL_TERMS}",
                          residual=total - target, scale=target,
                          tolerance=TOL_BESSEL_EXPANSION)


def psi_series_term(n: int, s: float, y: float) -> float:
    """One Bessel mode of psi: a_n (y/2)^(1/2) I_(2n-1/2)(y) e^(lambda_n s).

    Overflow of the growth factor gives a signed infinity, also where the
    Bessel factor underflows to 0, so the blow-up guards see a mode past
    the usable range rather than a NaN.
    """
    f_n = math.sqrt(0.5 * y) * specfun.bessel_i(2 * n - 0.5, y)
    mode = _coeff_a(n) * f_n
    growth = growth_factor(n, 1.0, s)
    return mode * growth if growth < math.inf else math.copysign(math.inf, mode)


def psi_series_optimal(s: float, y: float) -> tuple:
    """At most ``PSI_MAX_TERMS`` psi modes summed by the pricer's
    :func:`~volswap.series_pricer.truncated_sum`; returns (value,
    error_estimate)."""
    value, _, estimate, _, _ = truncated_sum(
        psi_series_term(n, s, y) for n in range(PSI_MAX_TERMS))
    return value, estimate


def _mode_blowup_guard(s: float, y: float):
    mags = [abs(psi_series_term(n, s, y)) for n in range(N_TERMS)]
    m = mags.index(min(mags))
    if m < N_TERMS - 1 and mags[-1] > 10.0 * mags[m]:
        raise InconclusiveError(
            f"n_terms={N_TERMS} extends past the blow-up index {m} at "
            f"s={s:.3g}, y={y}: the truncated series no longer approximates "
            "psi there")


def check_psi_pde_residual(s: float, y: float) -> ResidualReport:
    """Residual of 2 d_s psi = y^2 psi'' - y^2 psi on ``N_TERMS`` modes.

    The y-derivatives of each mode come from the Bessel derivative
    recurrences I_k' = (I_(k-1) + I_(k+1))/2 and
    I_k'' = (I_(k-2) + 2 I_k + I_(k+2))/4; every mode solves the equation
    exactly, so the residual of the truncated sum measures only evaluation
    error (plus nothing at all from truncation).
    """
    if y <= 0:
        raise DomainError(f"y must be positive, got {y}")
    if s < 0:
        raise DomainError(f"s must be non-negative, got {s}")
    _mode_blowup_guard(s, y)

    sqrt_y2 = math.sqrt(0.5 * y)
    root_y = math.sqrt(y)
    lhs = 0.0          # 2 d_s psi
    psi = 0.0
    psi_dd = 0.0
    # I at the orders k - 2 .. k + 2 of every mode k = 2n - 1/2: one ladder
    ladder = [specfun.bessel_i(m - 2.5, y) for m in range(2 * N_TERMS + 3)]
    for n in range(N_TERMS):
        k = 2 * n - 0.5
        i_km2, i_km1, i_k, i_kp1, i_kp2 = ladder[2 * n:2 * n + 5]
        i_p = 0.5 * (i_km1 + i_kp1)
        i_pp = 0.25 * (i_km2 + 2.0 * i_k + i_kp2)

        a_e = _coeff_a(n) * growth_factor(n, 1.0, s)
        f = sqrt_y2 * i_k
        f_dd = (-0.25 * i_k / (y * root_y) + i_p / root_y + root_y * i_pp) / SQRT2
        psi += a_e * f
        psi_dd += a_e * f_dd
        lhs += a_e * (k * k - 0.25) * f     # 2 lambda_n = k^2 - 1/4

    rhs = y * y * psi_dd - y * y * psi
    scale = abs(y * y * psi_dd) + abs(y * y * psi) + 1e-300
    return ResidualReport(point=f"s={s}, y={y}, n_terms={N_TERMS}",
                          residual=lhs - rhs, scale=scale,
                          tolerance=TOL_PSI_RESIDUAL)


def _kummer_derivatives(a: float, b: float, z: float, order: int) -> list:
    """[F, F', ..., F^(order)] of F = 1F1(a; b; z) by the contiguous relation
    d^k F / dz^k = ((a)_k / (b)_k) 1F1(a + k; b + k; z)."""
    derivatives = []
    num = den = 1.0            # Pochhammer symbols (a)_k and (b)_k
    for k in range(order + 1):
        derivatives.append(num / den * specfun.kummer_1f1(a + k, b + k, z))
        num *= a + k
        den *= b + k
    return derivatives


def functional_term_pieces(n: int, zeta: float) -> tuple:
    """(D, V): mode n's two sides of the reduced harmonicity equation,
    divided by b_n zeta^n e^(lambda_n s), lambda_n = n (2n - 1).

    With f = 1F1(n - 1/2; 2n + 1/2; zeta), the D side (time and horizontal
    derivatives) is D = (zeta - lambda_n) f - 2 zeta (n f + zeta f') and
    the vertical side is V = 2 (n (n - 1) f + 2n zeta f' + zeta^2 f'')
    + (n f + zeta f').  D + V is 2 zeta times the Kummer ODE of f, so it
    vanishes up to rounding; f'' comes from the contiguous relation, not
    from that ODE, which :func:`check_kummer_ode` tests.
    """
    f, fp, fpp = _kummer_derivatives(n - 0.5, 2 * n + 0.5, zeta, 2)
    zeta_d = n * f + zeta * fp        # zeta d/dzeta (zeta^n f), over zeta^n
    d_side = (zeta - n * (2 * n - 1)) * f - 2.0 * zeta * zeta_d
    v_side = 2.0 * (n * (n - 1) * f + 2 * n * zeta * fp + zeta * zeta * fpp) + zeta_d
    return d_side, v_side


def functional_term_residual(n: int, zeta: float) -> ResidualReport:
    """Per-mode harmonicity residual D + V; exact cancellation up to rounding."""
    d_side, v_side = functional_term_pieces(n, zeta)
    return ResidualReport(point=f"n={n}, zeta={zeta}", residual=d_side + v_side,
                          scale=max(abs(d_side), abs(v_side), 1e-300),
                          tolerance=TOL_FUNCTIONAL)


def check_functional(state: MarketState, params: SabrParams,
                     contract: SwapContract) -> list:
    """[summed, D_t, vertical] reports of the harmonicity condition on the
    kappa series truncated to ``N_TERMS`` modes, in F units over alpha^2.

    By the chain rule, for kappa = (sqrt(nu)/T) F(s, zeta) the raw D_t kappa
    and (alpha^2 sigma^2 / 2)(vertical grad)^2 kappa are alpha^2 sqrt(nu)/T
    times D = zeta F - 2 zeta^2 F_zeta - F_s and
    V = 2 zeta^2 F_zetazeta + zeta F_zeta.  One pass sums the modes'
    :func:`functional_term_pieces`, weighted by b_n e^(lambda_n s) zeta^n;
    D + V must vanish, and central differences of the truncated F, in s
    (as tau +- h / alpha^2, h = ``FD_STEP_S``) and in u = ln zeta
    (h = ``FD_STEP_LOG_ZETA``), Richardson-extrapolated over the steps and
    their halves, cross-check each side through zeta F_zeta = F_u and
    zeta^2 F_zetazeta = F_uu - F_u.  Raises
    :class:`DomainError` unless ``N_TERMS >= 1`` (with no term, 0 = 0
    would pass) and :class:`InconclusiveError` where a growth factor
    overflows.
    """
    n_terms = N_TERMS
    if n_terms < 1:
        raise DomainError(f"N_TERMS must be >= 1, got {n_terms}")
    tau, s, zeta, _ = reduced_variables(state, params, contract)
    alpha = params.alpha
    d_sum = v_sum = 0.0
    for n in range(n_terms):
        growth = growth_factor(n, alpha, tau)
        if math.isinf(growth):
            raise InconclusiveError(
                f"the growth factor of mode n={n} overflows at s={s:.3g}: "
                "no finite residual to check")
        weight = coeff_b(n) * growth * zeta ** n
        d_side, v_side = functional_term_pieces(n, zeta)
        d_sum += weight * d_side
        v_sum += weight * v_side

    def f(ds, du):
        tau_b, zeta_b = tau + ds / (alpha * alpha), zeta * math.exp(du)
        return sum(series_term(n, zeta_b, tau_b, alpha) for n in range(n_terms))

    f0 = f(0.0, 0.0)

    def d_t(k):     # both steps scaled by k
        hs, hu = k * FD_STEP_S, k * FD_STEP_LOG_ZETA
        return (zeta * f0 - zeta * (f(0.0, hu) - f(0.0, -hu)) / hu
                - (f(hs, 0.0) - f(-hs, 0.0)) / (2.0 * hs))

    def vertical(k):
        hu = k * FD_STEP_LOG_ZETA
        up, down = f(0.0, hu), f(0.0, -hu)
        return 2.0 * (up - 2.0 * f0 + down) / (hu * hu) - (up - down) / (2.0 * hu)

    def richardson(diff):
        return (4.0 * diff(0.5) - diff(1.0)) / 3.0

    label = f"s={s:.6g}, zeta={zeta:.6g}"
    summed = ResidualReport(point=f"{label}, n_terms={n_terms}",
                            residual=d_sum + v_sum,
                            scale=max(abs(d_sum), abs(v_sum), 1e-300),
                            tolerance=TOL_FUNCTIONAL)
    return [summed] + [
        ResidualReport(point=f"{name}: {label}, steps s={FD_STEP_S}, "
                             f"ln zeta={FD_STEP_LOG_ZETA}",
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
    return specfun.SQRT_PI / 2.0 * (f - 1.0) / math.sqrt(z / 4.0)


def check_j0(z: float) -> ResidualReport:
    """J0 in erfi form against J0 in 1F1 form."""
    hyper = j0_hypergeometric_form(z)
    return ResidualReport(point=f"z={z:.6g}", residual=j0_closed_form(z) - hyper,
                          scale=abs(hyper), tolerance=TOL_J0)
