"""Identity verification: exact terminal sums, expansions, residual checks."""

import math
from fractions import Fraction

import pytest

from volswap import specfun, verify
from volswap.exceptions import DomainError, InconclusiveError
from volswap.model import MarketState, SabrParams, SwapContract
from volswap.series_pricer import coeff_b, series_term

STATE = MarketState(t=0.5, sigma=0.25, nu=0.03)
PARAMS = SabrParams(alpha=0.4)
CONTRACT = SwapContract(t0=0.0, tenor=1.0)


def check_functional_residual(state, params, contract, n_terms):
    """The summed harmonicity residual of one ``check_functional`` pass."""
    return verify.check_functional(state, params, contract, n_terms)[0]


def check_functional_fd(state, params, contract, n_terms):
    """The D_t and vertical finite-difference reports of the same pass."""
    return verify.check_functional(state, params, contract, n_terms)[1:]


class TestTerminalIdentity:
    def test_exact_zero_up_to_forty(self):
        for s in range(1, 41):
            assert verify.check_terminal_identity(s) == Fraction(0), f"s={s}"

    def test_s_zero_normalization(self):
        # the prefactor Gamma(-1/2)/(2 sqrt(pi)) is -1, which turns the s=0
        # sum -1 into the leading coefficient 1
        assert specfun.gamma_half_integer(-1) / 2 == Fraction(-1)
        assert verify.check_terminal_identity(0) == Fraction(1)

    def test_returns_exact_rational_type(self):
        assert isinstance(verify.check_terminal_identity(7), Fraction)


class TestBesselExpansion:
    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_sixty_terms_hit_tolerance(self, y):
        report = verify.check_bessel_sqrt_expansion(y, 60)
        assert report.passed
        assert report.relative <= 1e-6

    def test_forty_terms_at_unit_argument(self):
        report = verify.check_bessel_sqrt_expansion(1.0, 40)
        assert report.relative <= 1e-6

    def test_single_term_is_not_exact(self):
        report = verify.check_bessel_sqrt_expansion(1.0, 1)
        assert report.relative > 0.0
        assert not report.passed

    def test_residual_monotone_under_pairing(self):
        for y in (0.1, 1.0, 5.0):
            residuals = [verify.check_bessel_sqrt_expansion(y, n).relative
                         for n in range(10, 61, 2)]
            floor = 1e-14
            for earlier, later in zip(residuals, residuals[1:]):
                assert later <= earlier + floor


class TestPsiPdeResidual:
    def test_reference_points(self):
        for tau, y in ((0.25, 1.0), (0.25, 3.0)):
            report = verify.check_psi_pde_residual(tau, y, 0.3, 20)
            assert report.passed
            assert report.relative <= 1e-6

    def test_terminal_truncation_only(self):
        report = verify.check_psi_pde_residual(0.0, 1.0, 0.3, 20)
        assert report.passed

    def test_blowup_guard(self):
        with pytest.raises(InconclusiveError):
            verify.check_psi_pde_residual(0.5, 1.0, 1.0, 30)


class TestFunctionalCalculus:
    def test_per_term_grid(self):
        for zeta in (0.5, 2.0, 8.0):
            for tau in (0.1, 0.5):
                for alpha in (0.2, 0.5):
                    for n in range(11):
                        report = verify.functional_term_residual(
                            n, zeta, tau, alpha)
                        assert report.relative <= 1e-9, report.point

    def test_summed_residual(self):
        summed = check_functional_residual(STATE, PARAMS, CONTRACT, 10)
        assert summed.passed
        assert summed.point.endswith("n_terms=10")

    @pytest.mark.parametrize("n_terms", [10, 12, 20])
    def test_finite_difference_cross_check(self, n_terms):
        # plain central differences at step 1e-4 miss 1e-5 from 12 terms on
        reports = check_functional_fd(STATE, PARAMS, CONTRACT, n_terms)
        assert len(reports) == 2
        for report in reports:
            assert report.relative <= 1e-5, report.point
            assert report.point.endswith("step=0.0001")

    @pytest.mark.parametrize("n_terms", [0, -3])
    @pytest.mark.parametrize("check", [check_functional_residual,
                                       check_functional_fd])
    def test_no_term_is_a_domain_error(self, check, n_terms):
        # with no term both sides sum to 0 and every check would pass
        with pytest.raises(DomainError, match="n_terms must be >= 1"):
            check(STATE, PARAMS, CONTRACT, n_terms)

    def test_coefficients_match_the_terminal_identity_sum(self):
        # the n = 0 term of the s = 0 sum is a_0 / (0! Gamma(1/2)/sqrt(pi))
        assert verify.coeff_a_exact(0) == Fraction(-2) * Fraction(-1, 2)
        assert verify.check_terminal_identity(0) == verify.coeff_a_exact(0)

    def test_deterministic(self):
        a = verify.check_functional(STATE, PARAMS, CONTRACT, 8)
        b = verify.check_functional(STATE, PARAMS, CONTRACT, 8)
        assert a == b


class TestGrowthOverflow:
    """At alpha = 20, tau = 0.5 the n = 2 growth factor e^(6 s) overflows."""

    def test_term_residual(self):
        with pytest.raises(InconclusiveError):
            verify.functional_term_residual(3, 1.0, 0.5, 20.0)

    def test_summed_residual(self):
        with pytest.raises(InconclusiveError):
            verify.check_functional(STATE, SabrParams(alpha=20.0), CONTRACT, 10)

    def test_finite_difference(self, monkeypatch):
        # the harmonicity pass refuses before a bumped kappa sums the
        # infinite terms into a non-finite difference
        def bumped_term(*point):
            raise AssertionError(f"finite difference at {point}")
        monkeypatch.setattr(verify, "series_term", bumped_term)
        with pytest.raises(InconclusiveError):
            verify.check_functional(STATE, SabrParams(alpha=20.0), CONTRACT, 10)

    def test_psi_mode_is_signed_infinity(self):
        assert verify.psi_series_term(2, 0.5, 1.0, 20.0) == math.inf
        assert verify.psi_series_term(3, 0.5, 1.0, 20.0) == -math.inf
        # I_(2n-1/2)(0.01) underflows to 0 at n = 45: still an infinite mode
        assert verify.psi_series_term(45, 0.5, 0.01, 20.0) == -math.inf

    def test_psi_residual(self):
        with pytest.raises(InconclusiveError):
            verify.check_psi_pde_residual(0.5, 0.01, 20.0, 60)


class TestOneKummerTolerance:
    def test_verify_and_series_term_read_one_constant(self, monkeypatch):
        # 1F1(3/2; 9/2; 3) is the n = 2 series term's; a loose tolerance
        # must reach the pricer's term and verify's 1F1s alike
        tight = specfun.kummer_1f1(1.5, 4.5, 3.0).value
        monkeypatch.setattr(specfun, "KUMMER_REL_TOL", 1e-4)
        loose = specfun.kummer_1f1(1.5, 4.5, 3.0).value
        assert loose != tight
        assert verify._kummer_derivatives(1.5, 4.5, 3.0, 0) == [loose]
        assert series_term(2, 3.0, 0.0, 0.4) == coeff_b(2) * 3.0 ** 2 * loose
        j0_loose = specfun.kummer_1f1(-0.5, 0.5, 1.0).value
        assert verify.j0_hypergeometric_form(4.0) == (
            specfun.SQRT_PI / 2.0 * (j0_loose - 1.0) / 1.0)


class TestKummerOde:
    @pytest.mark.parametrize("a,b,z", [(-0.5, 0.5, 1.0), (1.5, 4.5, 4.0)])
    def test_reference_points(self, a, b, z):
        report = verify.check_kummer_ode(a, b, z)
        assert report.passed
        assert report.relative <= 1e-9

    def test_near_origin(self):
        # at z -> 0 the residual collapses to -b F'(0) + a F(0) = 0
        report = verify.check_kummer_ode(-0.5, 0.5, 1e-12)
        assert report.relative <= 1e-9


class TestPsiSeriesHelpers:
    def test_optimal_truncation_converges_small_growth(self):
        value, estimate = verify.psi_series_optimal(0.25, 1.0, 0.3)
        direct = sum(verify.psi_series_term(n, 0.25, 1.0, 0.3) for n in range(25))
        assert value == pytest.approx(direct, abs=max(10 * estimate, 1e-12))

    def test_optimal_truncation_stops_before_the_smallest_mode(self):
        # at s = 0.5 the mode magnitudes fall to n = 3, then grow from n = 4
        value, estimate = verify.psi_series_optimal(0.5, 1.0, 1.0)
        assert value == sum(verify.psi_series_term(n, 0.5, 1.0, 1.0) for n in range(3))
        assert estimate == abs(verify.psi_series_term(3, 0.5, 1.0, 1.0))

    @pytest.mark.parametrize("tau, alpha", [(2.0, 1.5), (0.5, 20.0)])
    def test_smallest_first_mode_is_kept(self, tau, alpha):
        # modes grow from n = 0 (s = 4.5), or overflow from n = 2 (s = 200):
        # the first mode is the value and its own estimate, as in kappa_series
        first = verify.psi_series_term(0, tau, 1.0, alpha)
        assert verify.psi_series_optimal(tau, 1.0, alpha) == (first, abs(first))

    def test_psi_in_unit_interval(self):
        value, estimate = verify.psi_series_optimal(0.25, 1.0, 0.3)
        assert estimate < 1e-6
        assert 0.0 <= value <= 1.0
