"""Special-function kit: exact gammas, 1F1, erfi, Bessel I."""

import math
from fractions import Fraction

import pytest

from volswap import specfun
from volswap.exceptions import DomainError

SQRT_PI = math.sqrt(math.pi)


def hyp1f1_bruteforce(a, b, z, terms=200):
    """Naive term-by-term oracle, independent of the production stopping logic."""
    total = 0.0
    term = 1.0
    for m in range(terms):
        total += term
        term *= (a + m) / (b + m) * z / (m + 1)
    return total


def erfi_maclaurin(x, terms=50):
    """(2/sqrt(pi)) sum_k x^(2k+1) / (k! (2k+1))."""
    total = 0.0
    power = x
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= x * x / (k + 1)
    return 2.0 / SQRT_PI * total


class TestGammaHalfInteger:
    def test_one_half(self):
        g = specfun.gamma_half_integer(1)
        assert (g.numerator, g.denominator) == (1, 1)
        assert g.to_float() == SQRT_PI

    def test_negative_half(self):
        g = specfun.gamma_half_integer(-1)
        assert g.rational == Fraction(-2)   # Gamma(-1/2) = -2 sqrt(pi)

    def test_seven_halves(self):
        g = specfun.gamma_half_integer(7)
        assert g.rational == Fraction(15, 8)

    def test_even_k_rejected(self):
        with pytest.raises(DomainError):
            specfun.gamma_half_integer(4)

    def test_recurrence_exact(self):
        # Gamma(k/2 + 1) = (k/2) Gamma(k/2), exact in rational arithmetic
        for k in range(-21, 22, 2):
            lhs = specfun.gamma_half_integer(k + 2).rational
            rhs = Fraction(k, 2) * specfun.gamma_half_integer(k).rational
            assert lhs == rhs

    def test_against_lgamma(self):
        for k in (3, 9, 15, 21):
            assert specfun.gamma_half_integer(k).to_float() == pytest.approx(
                math.exp(math.lgamma(k / 2)), rel=1e-14)


class TestKummer1F1:
    def test_at_zero(self):
        rep = specfun.kummer_1f1(-0.5, 0.5, 0.0)
        assert rep.value == 1.0 and rep.converged

    def test_erfi_identity_point(self):
        # 1F1(-1/2;1/2;1) = e - sqrt(pi) erfi(1); frozen from a 40-digit run
        rep = specfun.kummer_1f1(-0.5, 0.5, 1.0, rel_tol=1e-14)
        assert rep.value == pytest.approx(-0.20702166335531798, rel=1e-12)

    def test_against_bruteforce(self):
        rep = specfun.kummer_1f1(1.5, 4.5, 0.25)
        assert rep.value == pytest.approx(hyp1f1_bruteforce(1.5, 4.5, 0.25),
                                          rel=1e-13)

    @pytest.mark.parametrize("a,b,z", [(-0.5, 0.5, 45.0), (-0.5, 0.5, 80.0),
                                       (0.5, 2.5, 60.0), (5.5, 12.5, 43.0)])
    def test_asymptotic_branch(self, a, b, z):
        # the oracle sums the (convergent) Taylor series far past the switch
        oracle = hyp1f1_bruteforce(a, b, z, terms=400)
        rep = specfun.kummer_1f1(a, b, z)
        assert rep.value == pytest.approx(oracle, rel=1e-12)

    def test_large_parameters_stay_on_direct_series(self):
        # asymptotic form in z is invalid when a, b ~ z; must not be used
        oracle = hyp1f1_bruteforce(19.5, 40.5, 50.0, terms=400)
        rep = specfun.kummer_1f1(19.5, 40.5, 50.0)
        assert rep.value == pytest.approx(oracle, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            specfun.kummer_1f1(1.0, -2.0, 0.5)

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            specfun.kummer_1f1(1.0, 2.0, -0.5)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            specfun.kummer_1f1(math.nan, 2.0, 0.5)

    def test_report_invariant(self):
        rep = specfun.kummer_1f1(-0.5, 0.5, 3.0, rel_tol=1e-12)
        assert rep.converged
        assert rep.last_term_abs <= 1e-12 * max(1.0, abs(rep.value))

    def test_kummer_ode_residual(self):
        # z F'' = (z - b) F' + a F with derivatives from contiguous relations
        for a, b in ((-0.5, 0.5), (1.5, 4.5), (2.5, 6.5)):
            for z in (0.3, 1.0, 4.0, 9.0):
                f = specfun.kummer_1f1(a, b, z).value
                fp = a / b * specfun.kummer_1f1(a + 1, b + 1, z).value
                fpp = (a * (a + 1) / (b * (b + 1))
                       * specfun.kummer_1f1(a + 2, b + 2, z).value)
                residual = z * fpp - (z - b) * fp - a * f
                assert abs(residual) <= 1e-8 * max(1.0, abs(f))


class TestErfi:
    def test_zero(self):
        assert specfun.erfi(0.0) == 0.0

    def test_odd(self):
        assert specfun.erfi(-1.0) == -specfun.erfi(1.0)
        assert specfun.erfi(-3.7) == -specfun.erfi(3.7)

    def test_small_x_against_maclaurin(self):
        assert specfun.erfi(1.0) == pytest.approx(erfi_maclaurin(1.0), rel=1e-13)

    @pytest.mark.parametrize("x", [0.01, 0.3, 1.0, 2.5, 5.0, 8.0, 10.0])
    def test_accuracy_up_to_ten(self, x):
        assert specfun.erfi(x) == pytest.approx(erfi_maclaurin(x, terms=300),
                                                rel=1e-12)

    def test_large_x_branch(self):
        # frozen 40-digit values
        assert specfun.erfi(15.0) == pytest.approx(1.9613845638673806e96, rel=1e-12)
        assert specfun.erfi(13.0) == pytest.approx(erfi_maclaurin(13.0, terms=400),
                                                   rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            specfun.erfi(math.inf)

    def test_hypergeometric_link(self):
        # 1F1(-1/2;1/2;zeta) = e^zeta - sqrt(pi zeta) erfi(sqrt(zeta))
        for zeta in (0.01, 0.1, 1.0, 5.0, 20.0):
            lhs = specfun.kummer_1f1(-0.5, 0.5, zeta).value
            rhs = (math.exp(zeta)
                   - math.sqrt(math.pi * zeta) * specfun.erfi(math.sqrt(zeta)))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestBesselI:
    def test_half_order_closed_form(self):
        rep = specfun.bessel_i(0.5, 1.0)
        assert rep.value == pytest.approx(math.sqrt(2 / math.pi) * math.sinh(1.0),
                                          rel=1e-13)

    def test_minus_half_order_closed_form(self):
        rep = specfun.bessel_i(-0.5, 2.0)
        assert rep.value == pytest.approx(
            math.sqrt(2 / (math.pi * 2.0)) * math.cosh(2.0), rel=1e-13)

    def test_positive_order_at_zero(self):
        assert specfun.bessel_i(1.5, 0.0).value == 0.0

    def test_order_zero_at_zero(self):
        assert specfun.bessel_i(0.0, 0.0).value == 1.0

    def test_reference_point(self):
        # frozen from a 40-digit evaluation of I_{3/2}(0.7)
        assert specfun.bessel_i(1.5, 0.7).value == pytest.approx(
            0.16353076132992355, rel=1e-13)

    def test_negative_halfinteger_orders(self):
        # closed forms: I_{-3/2}(y) = sqrt(2/(pi y)) (cosh y / y ... ) checked
        # against the derivative recurrence instead: I'_{1/2} = (I_{-1/2}+I_{3/2})/2
        y = 1.3
        lhs = 0.5 * (specfun.bessel_i(-0.5, y).value
                     + specfun.bessel_i(1.5, y).value)
        h = 1e-6
        fd = (specfun.bessel_i(0.5, y + h).value
              - specfun.bessel_i(0.5, y - h).value) / (2 * h)
        assert lhs == pytest.approx(fd, rel=1e-8)

    def test_nonnegative_for_supported_orders(self):
        for n in range(0, 8):
            order = 2 * n - 0.5
            for y in (0.0, 0.3, 1.0, 4.0, 9.0):
                assert specfun.bessel_i(order, y).value >= 0.0

    def test_negative_y_rejected(self):
        with pytest.raises(DomainError):
            specfun.bessel_i(0.5, -1.0)

    def test_report_invariant(self):
        rep = specfun.bessel_i(1.5, 2.0, rel_tol=1e-12)
        assert rep.converged
        assert rep.last_term_abs <= 1e-12 * max(1.0, abs(rep.value))
