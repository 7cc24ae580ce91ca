"""Special-function kit: exact gammas, 1F1, erfi, Bessel I."""

import hashlib
import itertools
import math
import sys
import threading
from fractions import Fraction

import mpmath
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


def kummer_int_loop(a, b, z):
    """The 1F1 Taylor loop with an int counter and abs in the stop test, for
    z > 0: the reference :func:`specfun.kummer_1f1` must equal bit for bit."""
    total = 1.0
    term = 1.0
    small_streak = 0
    for m in range(specfun.MAX_TERMS):
        term *= (a + m) / (b + m) * z / (m + 1)
        total += term
        if abs(term) <= specfun.KUMMER_REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    return total


def bessel_int_loop(order, y):
    """The I_order term loop with (y/2)^2 and the denominator formed per
    term: the reference :func:`specfun.bessel_i` must equal bit for bit."""
    half = 0.5 * y
    term = specfun._gamma_sign(order + 1.0) * math.exp(
        order * math.log(half) - math.lgamma(order + 1.0))
    total = term
    small_streak = 0
    for m in range(specfun.MAX_TERMS):
        term *= half * half / ((m + 1) * (order + m + 1))
        total += term
        if abs(term) <= specfun.BESSEL_REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
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
        assert g == Fraction(1)
        assert float(g) * SQRT_PI == SQRT_PI

    def test_negative_half(self):
        g = specfun.gamma_half_integer(-1)
        assert g == Fraction(-2)   # Gamma(-1/2) = -2 sqrt(pi)

    def test_seven_halves(self):
        g = specfun.gamma_half_integer(7)
        assert g == Fraction(15, 8)

    def test_even_k_rejected(self):
        with pytest.raises(DomainError):
            specfun.gamma_half_integer(4)

    def test_recurrence_exact(self):
        # Gamma(k/2 + 1) = (k/2) Gamma(k/2), exact in rational arithmetic, over
        # every k that b_n (to 251) and the terminal identity (to 241) use
        for k in range(-121, 256, 2):
            lhs = specfun.gamma_half_integer(k + 2)
            rhs = Fraction(k, 2) * specfun.gamma_half_integer(k)
            assert lhs == rhs

    def test_against_lgamma(self):
        for k in (3, 9, 15, 21):
            assert float(specfun.gamma_half_integer(k)) * SQRT_PI == pytest.approx(
                math.exp(math.lgamma(k / 2)), rel=1e-14)
        # the largest k b_n uses, past where exp(lgamma) keeps 14 digits
        assert math.log(specfun.gamma_half_integer(251)) + math.log(
            SQRT_PI) == pytest.approx(math.lgamma(251 / 2), rel=1e-15)


class TestKummer1F1:
    def test_at_zero(self):
        assert specfun.kummer_1f1(-0.5, 0.5, 0.0) == 1.0

    def test_erfi_identity_point(self, monkeypatch):
        # 1F1(-1/2;1/2;1) = e - sqrt(pi) erfi(1); frozen from a 40-digit run
        monkeypatch.setattr(specfun, "KUMMER_REL_TOL", 1e-14)
        assert specfun.kummer_1f1(-0.5, 0.5, 1.0) == pytest.approx(
            -0.20702166335531798, rel=1e-12)

    def test_against_bruteforce(self):
        assert specfun.kummer_1f1(1.5, 4.5, 0.25) == pytest.approx(
            hyp1f1_bruteforce(1.5, 4.5, 0.25), rel=1e-13)

    @pytest.mark.parametrize("a,b,z", [
        *((n - 0.5, 2 * n + 0.5, z) for n in (0, 1, 2, 10)
          for z in (41.0, 100.0, 300.0, 700.0, 716.0)),
        (-0.5, 0.5, 45.0), (-0.5, 0.5, 80.0), (0.5, 2.5, 60.0),
        (5.5, 12.5, 43.0), (19.5, 40.5, 50.0)])
    def test_large_z_against_mpmath(self, a, b, z):
        # the pricer's parameters (n - 1/2, 2n + 1/2) up to the overflow
        value = specfun.kummer_1f1(a, b, z)
        with mpmath.workdps(40):
            oracle = mpmath.hyp1f1(a, b, z)
            assert abs((value - oracle) / oracle) <= 5e-13

    @pytest.mark.parametrize("a,b,z,expected", [
        (-0.5, 0.5, 723.0, -math.inf),     # Gamma(-1/2) < 0
        (-0.5, 0.5, 3125.0, -math.inf),
        (0.5, 2.5, 800.0, math.inf)])
    def test_overflow_is_a_signed_infinity(self, a, b, z, expected):
        # the prefactor e^z z^(a-b) Gamma(b)/Gamma(a) leaves the float range
        assert specfun.kummer_1f1(a, b, z) == expected

    @pytest.mark.parametrize("a,b,degree", [(-1.0, 0.5, 1), (-3.0, 1.5, 3)])
    def test_polynomial_case(self, a, b, degree):
        # a non-positive integer a: every term past the degree is exactly 0
        z = 2.0
        assert specfun.kummer_1f1(a, b, z) == hyp1f1_bruteforce(
            a, b, z, terms=degree + 1)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            specfun.kummer_1f1(1.0, -2.0, 0.5)

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            specfun.kummer_1f1(1.0, 2.0, -0.5)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            specfun.kummer_1f1(math.nan, 2.0, 0.5)

    @pytest.mark.parametrize("max_terms", [None, 3])
    def test_both_loops_match_the_int_loop(self, monkeypatch, max_terms):
        # a > 0 < b takes the loop without abs, any other sign the one with
        # it; at 3 terms both return the partial sum at the cap
        if max_terms is not None:
            monkeypatch.setattr(specfun, "MAX_TERMS", max_terms)
        for a, b, z in itertools.product(
                (-2.0, -0.5, 0.5, 1.5, 3.7, 29.5), (-1.5, 0.5, 2.5, 60.5),
                (1e-300, 1e-3, 0.5, 7.0, 40.0, 300.0, 716.0, 760.0)):
            value = specfun.kummer_1f1(a, b, z)
            assert repr(value) == repr(kummer_int_loop(a, b, z)), (a, b, z)

    def test_pricer_grid_digest(self):
        # every 1F1(n - 1/2; 2n + 1/2; z) a series term can ask for at the
        # benchmark's 40 lattice zeta, and past ZETA_MAX to the overflow,
        # frozen by repr before the loop read its z-free factors from a table
        lattice = [float(f"{v:.6g}") for v in
                   (0.02 * 2000.0 ** (k / 39) for k in range(40))]
        text = " ".join(repr(specfun.kummer_1f1(n - 0.5, 2 * n + 0.5, z))
                        for n in range(64) for z in lattice + [100.0, 300.0, 716.0])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b560788ad7d81148ec062eb53502dd7fc76331b57f78cb5dc87169eaf94c4619")

    @pytest.mark.parametrize("a, b", [(9.5, 20.5), (-0.5, 0.5)])
    @pytest.mark.parametrize("warm_z, cap", [(300.0, 100), (1.0, 150)],
                             ids=["cap-below-table", "cap-above-table"])
    def test_cold_and_warm_tables_agree(self, monkeypatch, a, b, warm_z, cap):
        # z = 300 sums past either cap; a tuple stored at warm_z is longer
        # than the first cap and shorter than the second
        specfun._KUMMER_PAIRS.clear()
        specfun.kummer_1f1(a, b, warm_z)
        assert (len(specfun._KUMMER_PAIRS[a, b]) > cap) == (warm_z == 300.0)
        monkeypatch.setattr(specfun, "MAX_TERMS", cap)
        warm = repr(specfun.kummer_1f1(a, b, 300.0))
        specfun._KUMMER_PAIRS.clear()
        cold = repr(specfun.kummer_1f1(a, b, 300.0))
        assert warm == cold == repr(kummer_int_loop(a, b, 300.0))
        pairs = specfun._KUMMER_PAIRS[a, b]
        assert pairs == tuple(((a + m) / (b + m), m + 1.0) for m in range(len(pairs)))

    def test_tables_grown_from_threads_stay_exact(self):
        # threads growing one (a, b) at once must leave entry m at index m
        a, b, zs = 9.5, 20.5, (1.0, 50.0, 300.0, 700.0)
        expected = [repr(kummer_int_loop(a, b, z)) for z in zs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                specfun._KUMMER_PAIRS.clear()
                results = []
                threads = [threading.Thread(target=lambda: results.append(
                    [repr(specfun.kummer_1f1(a, b, z)) for z in zs])) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * len(threads)
                pairs = specfun._KUMMER_PAIRS[a, b]
                assert pairs == tuple(((a + m) / (b + m), m + 1.0) for m in range(len(pairs)))
        finally:
            sys.setswitchinterval(interval)

    def test_factor_memo_stays_bounded(self, monkeypatch):
        # 12 (a, b) through a memo of 4: it is emptied twice, and every value
        # read before and after an emptying equals the int loop; z = 300
        # sums past the first stored tuples, so they are replaced by longer
        monkeypatch.setattr(specfun, "FACTOR_TABLES", 4)
        specfun._KUMMER_PAIRS.clear()
        params = [(n - 0.5, 2 * n + 0.5) for n in range(12)]
        sizes = []
        for _ in range(2):
            for a, b in params:
                for z in (1.0, 40.0, 300.0):
                    value = specfun.kummer_1f1(a, b, z)
                    sizes.append(len(specfun._KUMMER_PAIRS))
                    assert repr(value) == repr(kummer_int_loop(a, b, z)), (a, b, z)
        assert max(sizes) == 4
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_kummer_ode_residual(self):
        # z F'' = (z - b) F' + a F with derivatives from contiguous relations
        for a, b in ((-0.5, 0.5), (1.5, 4.5), (2.5, 6.5)):
            for z in (0.3, 1.0, 4.0, 9.0):
                f = specfun.kummer_1f1(a, b, z)
                fp = a / b * specfun.kummer_1f1(a + 1, b + 1, z)
                fpp = (a * (a + 1) / (b * (b + 1))
                       * specfun.kummer_1f1(a + 2, b + 2, z))
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

    def test_large_x_against_mpmath(self):
        # half-integers, where x*x is exact, up to the overflow near 26.66
        with mpmath.workdps(40):
            for i in range(15):
                x = 12.5 + i
                oracle = mpmath.erfi(x)
                assert abs((specfun.erfi(x) - oracle) / oracle) <= 2e-14, x

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            specfun.erfi(math.inf)

    @pytest.mark.parametrize("x", [26.7, 27.0, 1e3])
    def test_overflow_is_a_signed_infinity(self, x):
        # e^(x^2) leaves the float range from x ~ 26.64
        assert specfun.erfi(x) == math.inf
        assert specfun.erfi(-x) == -math.inf

    def test_hypergeometric_link(self):
        # 1F1(-1/2;1/2;zeta) = e^zeta - sqrt(pi zeta) erfi(sqrt(zeta))
        for zeta in (0.01, 0.1, 1.0, 5.0, 20.0):
            lhs = specfun.kummer_1f1(-0.5, 0.5, zeta)
            rhs = (math.exp(zeta)
                   - math.sqrt(math.pi * zeta) * specfun.erfi(math.sqrt(zeta)))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestBesselI:
    def test_half_order_closed_form(self):
        assert specfun.bessel_i(0.5, 1.0) == pytest.approx(
            math.sqrt(2 / math.pi) * math.sinh(1.0), rel=1e-13)

    def test_minus_half_order_closed_form(self):
        assert specfun.bessel_i(-0.5, 2.0) == pytest.approx(
            math.sqrt(2 / (math.pi * 2.0)) * math.cosh(2.0), rel=1e-13)

    def test_positive_order_at_zero(self):
        assert specfun.bessel_i(1.5, 0.0) == 0.0

    def test_order_zero_at_zero(self):
        assert specfun.bessel_i(0.0, 0.0) == 1.0

    def test_reference_point(self):
        # frozen from a 40-digit evaluation of I_{3/2}(0.7)
        assert specfun.bessel_i(1.5, 0.7) == pytest.approx(
            0.16353076132992355, rel=1e-13)

    def test_negative_halfinteger_orders(self):
        # closed forms: I_{-3/2}(y) = sqrt(2/(pi y)) (cosh y / y ... ) checked
        # against the derivative recurrence instead: I'_{1/2} = (I_{-1/2}+I_{3/2})/2
        y = 1.3
        lhs = 0.5 * (specfun.bessel_i(-0.5, y)
                     + specfun.bessel_i(1.5, y))
        h = 1e-6
        fd = (specfun.bessel_i(0.5, y + h)
              - specfun.bessel_i(0.5, y - h)) / (2 * h)
        assert lhs == pytest.approx(fd, rel=1e-8)

    def test_nonnegative_for_supported_orders(self):
        for n in range(0, 8):
            order = 2 * n - 0.5
            for y in (0.0, 0.3, 1.0, 4.0, 9.0):
                assert specfun.bessel_i(order, y) >= 0.0

    def test_negative_y_rejected(self):
        with pytest.raises(DomainError):
            specfun.bessel_i(0.5, -1.0)

    @pytest.mark.parametrize("max_terms", [None, 3])
    def test_cold_and_warm_tables_match_the_int_loop(self, monkeypatch, max_terms):
        # short and long series of each order; at 3 terms every series
        # stops at the cap
        if max_terms is not None:
            monkeypatch.setattr(specfun, "MAX_TERMS", max_terms)
        for y, order in itertools.product((0.1, 5.0, 60.0), (-2.5, -0.5, 0.5, 7.5, 39.5)):
            assert repr(specfun.bessel_i(order, y)) == repr(bessel_int_loop(order, y))
