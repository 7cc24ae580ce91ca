"""Identity verification: exact terminal sums, expansions, residual checks."""

import math
from fractions import Fraction

import pytest

from volswap import specfun, verify
from volswap.exceptions import DomainError, InconclusiveError
from volswap.model import MarketState, SabrParams, SwapContract, reduced_variables
from volswap.series_pricer import coeff_b, growth_factor, series_term

STATE = MarketState(t=0.5, sigma=0.25, nu=0.03)
PARAMS = SabrParams(alpha=0.4)
CONTRACT = SwapContract(t0=0.0, tenor=1.0)
#: the bump of nu (by sigma^2 h), sigma and tau in the chain-rule check
RAW_STEP = 1e-4


def check_functional_residual(state, params, contract):
    """The summed harmonicity residual of one ``check_functional`` pass."""
    return verify.check_functional(state, params, contract)[0]


def check_functional_fd(state, params, contract):
    """The D_t and vertical finite-difference reports of the same pass."""
    return verify.check_functional(state, params, contract)[1:]


def reduced_sums(state, params, contract, n_terms):
    """The D and V sums of the reduced harmonicity equation, in F units."""
    tau, _, zeta, _ = reduced_variables(state, params, contract)
    d_sum = v_sum = 0.0
    for n in range(n_terms):
        weight = coeff_b(n) * growth_factor(n, params.alpha, tau) * zeta ** n
        d_side, v_side = verify.functional_term_pieces(n, zeta)
        d_sum += weight * d_side
        v_sum += weight * v_side
    return d_sum, v_sum


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
        assert verify.BESSEL_TERMS == 60
        report = verify.check_bessel_sqrt_expansion(y)
        assert report.passed
        assert report.relative <= 1e-6

    def test_forty_terms_at_unit_argument(self, monkeypatch):
        monkeypatch.setattr(verify, "BESSEL_TERMS", 40)
        report = verify.check_bessel_sqrt_expansion(1.0)
        assert report.relative <= 1e-6

    def test_single_term_is_not_exact(self, monkeypatch):
        monkeypatch.setattr(verify, "BESSEL_TERMS", 1)
        report = verify.check_bessel_sqrt_expansion(1.0)
        assert report.relative > 0.0
        assert not report.passed

    def test_residual_monotone_under_pairing(self, monkeypatch):
        for y in (0.1, 1.0, 5.0):
            residuals = []
            for n in range(10, 61, 2):
                monkeypatch.setattr(verify, "BESSEL_TERMS", n)
                residuals.append(verify.check_bessel_sqrt_expansion(y).relative)
            floor = 1e-14
            for earlier, later in zip(residuals, residuals[1:]):
                assert later <= earlier + floor


class TestPsiPdeResidual:
    def test_reference_points(self):
        assert verify.N_TERMS == 20
        for s, y in ((0.0225, 1.0), (0.0225, 3.0)):
            report = verify.check_psi_pde_residual(s, y)
            assert report.passed
            assert report.relative <= 1e-6

    def test_terminal_truncation_only(self):
        report = verify.check_psi_pde_residual(0.0, 1.0)
        assert report.passed

    def test_blowup_guard(self, monkeypatch):
        monkeypatch.setattr(verify, "N_TERMS", 30)
        with pytest.raises(InconclusiveError):
            verify.check_psi_pde_residual(0.5, 1.0)


class TestFunctionalCalculus:
    def test_per_term_grid(self):
        for zeta in (0.5, 2.0, 8.0):
            for n in range(21):
                report = verify.functional_term_residual(n, zeta)
                assert report.relative <= 1e-9, report.point

    def test_per_term_check_sees_a_wrong_second_derivative(self, monkeypatch):
        # f'' comes from the contiguous relation, so the check tests the
        # Kummer ODE rather than assume it; its sensitivity falls as 1/n^2
        exact = verify._kummer_derivatives

        def skewed(a, b, z, order):
            *lower, fpp = exact(a, b, z, order)
            return [*lower, fpp * (1.0 + 1e-6)]
        monkeypatch.setattr(verify, "_kummer_derivatives", skewed)
        for zeta in (0.5, 2.0, 8.0):
            for n in range(8):
                assert not verify.functional_term_residual(n, zeta).passed, (n, zeta)

    def test_summed_residual(self, monkeypatch):
        monkeypatch.setattr(verify, "N_TERMS", 10)
        summed = check_functional_residual(STATE, PARAMS, CONTRACT)
        assert summed.passed
        assert summed.point.endswith("n_terms=10")

    @pytest.mark.parametrize("n_terms", [10, 12, 20])
    def test_finite_difference_cross_check(self, n_terms, monkeypatch):
        # plain central differences at step 1e-4 miss 1e-5 from 12 terms on;
        # with one step of 1e-4 in s and in zeta these read up to 3.7e-8
        monkeypatch.setattr(verify, "N_TERMS", n_terms)
        reports = check_functional_fd(STATE, PARAMS, CONTRACT)
        assert len(reports) == 2
        for report in reports:
            assert report.relative <= 1e-9, report.point
            assert report.point.endswith("steps s=2e-05, ln zeta=0.001")

    @pytest.mark.parametrize("n_terms", [10, 12])
    def test_chain_rule_back_to_the_raw_identity(self, n_terms):
        # the paper's identity in (nu, sigma, tau): D_t advances nu at rate
        # sigma^2 while tau shrinks, the vertical bump moves sigma alone;
        # both are alpha^2 sqrt(nu)/T times the reduced D and V
        alpha, nu, sigma = PARAMS.alpha, STATE.nu, STATE.sigma
        _, _, _, prefactor = reduced_variables(STATE, PARAMS, CONTRACT)
        d_sum, v_sum = reduced_sums(STATE, PARAMS, CONTRACT, n_terms)

        def kappa(nu_b, sigma_b, tau_bump):
            state = MarketState(t=STATE.t - tau_bump, sigma=sigma_b, nu=nu_b)
            tau, _, zeta, root_nu = reduced_variables(state, PARAMS, CONTRACT)
            return root_nu * sum(series_term(n, zeta, tau, alpha)
                                 for n in range(n_terms))

        def d_t(h):
            return (kappa(nu + sigma * sigma * h, sigma, -h)
                    - kappa(nu - sigma * sigma * h, sigma, h)) / (2.0 * h)

        def vertical(h):
            return (0.5 * alpha * alpha * sigma * sigma
                    * (kappa(nu, sigma + h, 0.0) - 2.0 * kappa(nu, sigma, 0.0)
                       + kappa(nu, sigma - h, 0.0)) / (h * h))

        def richardson(diff):
            return (4.0 * diff(0.5 * RAW_STEP) - diff(RAW_STEP)) / 3.0

        scale = alpha * alpha * prefactor
        assert richardson(d_t) == pytest.approx(scale * d_sum, rel=1e-5)
        assert richardson(vertical) == pytest.approx(scale * v_sum, rel=1e-5)

    @pytest.mark.parametrize("n_terms", [0, -3])
    @pytest.mark.parametrize("check", [check_functional_residual,
                                       check_functional_fd])
    def test_no_term_is_a_domain_error(self, check, n_terms, monkeypatch):
        # with no term both sides sum to 0 and every check would pass
        monkeypatch.setattr(verify, "N_TERMS", n_terms)
        with pytest.raises(DomainError, match=f"N_TERMS must be >= 1, got {n_terms}"):
            check(STATE, PARAMS, CONTRACT)

    def test_coefficients_match_the_terminal_identity_sum(self):
        # the n = 0 term of the s = 0 sum is a_0 / (0! Gamma(1/2)/sqrt(pi))
        assert verify.coeff_a_exact(0) == Fraction(-2) * Fraction(-1, 2)
        assert verify.check_terminal_identity(0) == verify.coeff_a_exact(0)

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(verify, "N_TERMS", 8)
        a = verify.check_functional(STATE, PARAMS, CONTRACT)
        b = verify.check_functional(STATE, PARAMS, CONTRACT)
        assert a == b


class TestGrowthOverflow:
    """At s = 200 (alpha = 20, tau = 0.5) the n = 2 growth factor e^(6 s)
    overflows."""

    def test_summed_residual(self, monkeypatch):
        monkeypatch.setattr(verify, "N_TERMS", 10)
        with pytest.raises(InconclusiveError):
            verify.check_functional(STATE, SabrParams(alpha=20.0), CONTRACT)

    def test_finite_difference(self, monkeypatch):
        # the harmonicity pass refuses before a bumped kappa sums the
        # infinite terms into a non-finite difference
        def bumped_term(*point):
            raise AssertionError(f"finite difference at {point}")
        monkeypatch.setattr(verify, "series_term", bumped_term)
        monkeypatch.setattr(verify, "N_TERMS", 10)
        with pytest.raises(InconclusiveError):
            verify.check_functional(STATE, SabrParams(alpha=20.0), CONTRACT)

    def test_psi_mode_is_signed_infinity(self):
        assert verify.psi_series_term(2, 200.0, 1.0) == math.inf
        assert verify.psi_series_term(3, 200.0, 1.0) == -math.inf
        # I_(2n-1/2)(0.01) underflows to 0 at n = 45: still an infinite mode
        assert verify.psi_series_term(45, 200.0, 0.01) == -math.inf

    def test_psi_residual(self, monkeypatch):
        monkeypatch.setattr(verify, "N_TERMS", 60)
        with pytest.raises(InconclusiveError):
            verify.check_psi_pde_residual(200.0, 0.01)


class TestOneKummerTolerance:
    def test_verify_and_series_term_read_one_constant(self, monkeypatch):
        # 1F1(3/2; 9/2; 3) is the n = 2 series term's; a loose tolerance
        # must reach the pricer's term and verify's 1F1s alike
        tight = specfun.kummer_1f1(1.5, 4.5, 3.0)
        monkeypatch.setattr(specfun, "KUMMER_REL_TOL", 1e-4)
        loose = specfun.kummer_1f1(1.5, 4.5, 3.0)
        assert loose != tight
        assert verify._kummer_derivatives(1.5, 4.5, 3.0, 0) == [loose]
        assert series_term(2, 3.0, 0.0, 0.4) == coeff_b(2) * 3.0 ** 2 * loose
        j0_loose = specfun.kummer_1f1(-0.5, 0.5, 1.0)
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
        value, estimate = verify.psi_series_optimal(0.0225, 1.0)
        direct = sum(verify.psi_series_term(n, 0.0225, 1.0) for n in range(25))
        assert value == pytest.approx(direct, abs=max(10 * estimate, 1e-12))

    def test_optimal_truncation_stops_before_the_smallest_mode(self):
        # at s = 0.5 the mode magnitudes fall to n = 3, then grow from n = 4
        value, estimate = verify.psi_series_optimal(0.5, 1.0)
        assert value == sum(verify.psi_series_term(n, 0.5, 1.0) for n in range(3))
        assert estimate == abs(verify.psi_series_term(3, 0.5, 1.0))

    @pytest.mark.parametrize("tau, alpha", [(2.0, 1.5), (0.5, 20.0)])
    def test_smallest_first_mode_is_kept(self, tau, alpha):
        # modes grow from n = 0 (s = alpha^2 tau = 4.5), or overflow from
        # n = 2 (s = 200): the first mode is the value and its own estimate,
        # as in kappa_series
        s = alpha * alpha * tau
        first = verify.psi_series_term(0, s, 1.0)
        assert verify.psi_series_optimal(s, 1.0) == (first, abs(first))

    def test_psi_in_unit_interval(self):
        value, estimate = verify.psi_series_optimal(0.0225, 1.0)
        assert estimate < 1e-6
        assert 0.0 <= value <= 1.0
