"""The hypergeometric series pricer and its component cross-checks."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volswap import specfun
from volswap.exceptions import DomainError, SingularityError
from volswap.model import MarketState, SabrParams, SwapContract
from volswap.series_pricer import (REGIME_CONVERGENT, REGIME_DIVERGING,
                                   SeriesConfig, coeff_b, coeff_b_exact,
                                   energy_e, kappa_series,
                                   price_volatility_swap, series_term,
                                   series_variables)
from volswap.verify import j0_closed_form, j0_hypergeometric_form, j_infinity

CONTRACT = SwapContract(t0=0.0, tenor=1.0)


def make_point(a2t, zeta, nu=0.04, tau=0.5, tenor=1.0):
    """(state, params, contract) hitting given alpha^2*tau and zeta."""
    alpha = math.sqrt(a2t / tau)
    sigma = math.sqrt(2.0 * alpha * alpha * nu * zeta)
    return (MarketState(t=tenor - tau, sigma=sigma, nu=nu),
            SabrParams(alpha=alpha), SwapContract(t0=0.0, tenor=tenor))


class TestCoefficients:
    def test_first_two_are_one(self):
        assert coeff_b_exact(0) == 1
        assert coeff_b_exact(1) == 1

    def test_b2(self):
        assert coeff_b_exact(2) == Fraction(-1, 30)

    def test_b3_b4(self):
        assert coeff_b_exact(3) == Fraction(1, 630)
        assert coeff_b_exact(4) == Fraction(-5, 72072)

    def test_sign_alternation(self):
        for n in range(2, 21):
            expected = 1 if n % 2 == 1 else -1
            value = coeff_b_exact(n)
            assert (1 if value > 0 else -1) == expected

    def test_float_matches_exact(self):
        for n in range(12):
            assert coeff_b(n) == pytest.approx(float(coeff_b_exact(n)), rel=1e-15)

    def test_energy_examples(self):
        assert energy_e(0, 0.7) == 0.0
        assert energy_e(1, 0.5) == pytest.approx(0.25, rel=1e-15)
        assert energy_e(3, 1.0) == pytest.approx(15.0, rel=1e-15)

    def test_energy_two_closed_forms_agree(self):
        for n in range(0, 12):
            for alpha in (0.2, 0.7, 1.3):
                k = 2 * n - 0.5
                other = 0.5 * alpha * alpha * (k * k - 0.25)
                assert energy_e(n, alpha) == pytest.approx(other, rel=1e-14)


class TestSeriesVariables:
    def test_zeta_example(self):
        sv = series_variables(MarketState(t=1.0, sigma=0.2, nu=0.04),
                              SabrParams(alpha=0.5), CONTRACT)
        assert sv.zeta == pytest.approx(2.0, rel=1e-15)
        assert sv.z == pytest.approx(8.0, rel=1e-15)
        assert sv.tau == 0.0

    def test_second_example(self):
        sv = series_variables(MarketState(t=0.5, sigma=0.3, nu=0.09),
                              SabrParams(alpha=0.3), CONTRACT)
        assert sv.tau == pytest.approx(0.5, abs=1e-15)
        assert sv.zeta == pytest.approx(1.0 / 0.18, rel=1e-14)

    def test_nu_zero_singular(self):
        with pytest.raises(SingularityError):
            series_variables(MarketState(t=0.5, sigma=0.3, nu=0.0),
                             SabrParams(alpha=0.3), CONTRACT)


class TestTerminalValue:
    @pytest.mark.parametrize("nu", [0.01, 0.04, 0.25])
    def test_terminal_equals_sqrt_nu_over_t(self, nu):
        # tau = 0: every zeta must collapse the series to sqrt(nu)/T
        for i in range(20):
            zeta = 10.0 ** (-2.0 + 3.0 * i / 19.0)   # [0.01, 10]
            sigma = math.sqrt(2.0 * 0.4 ** 2 * nu * zeta)
            state = MarketState(t=1.0, sigma=sigma, nu=nu)
            kappa, diag = kappa_series(state, SabrParams(alpha=0.4), CONTRACT)
            assert kappa == pytest.approx(math.sqrt(nu), rel=1e-8)
            assert diag.regime == REGIME_CONVERGENT

    def test_single_term_truncation(self):
        # n = 0 alone at tau = 0, zeta = 1 is (sqrt(nu)/T) 1F1(-1/2;1/2;1)
        nu = 0.04
        sigma = math.sqrt(2.0 * 0.4 ** 2 * nu * 1.0)
        state = MarketState(t=1.0, sigma=sigma, nu=nu)
        sv = series_variables(state, SabrParams(alpha=0.4), CONTRACT)
        kappa = math.sqrt(nu) * series_term(0, sv.zeta, sv.tau, 0.4, 1e-10)
        expected = math.sqrt(nu) * specfun.kummer_1f1(-0.5, 0.5, 1.0).value
        assert kappa == pytest.approx(expected, rel=1e-13)


class TestAdaptiveTruncation:
    def test_valid_region_point(self):
        # alpha^2 tau = 0.05, zeta = 1: PDE reference 0.20998806 (converged grid)
        state, params, contract = make_point(0.05, 1.0)
        kappa, diag = kappa_series(state, params, contract)
        assert kappa == pytest.approx(0.2099881, rel=1e-5)
        assert diag.regime == REGIME_CONVERGENT
        assert diag.converged

    def test_divergent_point_flagged(self):
        # the alpha^2 tau = 2 regime must never be reported convergent
        state, params, contract = make_point(2.0, 1.0)
        _, diag = kappa_series(state, params, contract)
        assert diag.regime == REGIME_DIVERGING
        assert not diag.converged

    def test_negative_sum_is_diverging(self):
        # far outside the validity region the truncated sum goes negative
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        kappa, diag = kappa_series(state, SabrParams(alpha=0.4), CONTRACT)
        assert kappa < 0
        assert diag.regime == REGIME_DIVERGING

    def test_diagnostics_monotone(self):
        for a2t, zeta in ((0.01, 5.0), (0.1, 0.5), (0.5, 1.0), (2.0, 3.0)):
            state, params, contract = make_point(a2t, zeta)
            config = SeriesConfig(max_terms=48)
            _, diag = kappa_series(state, params, contract, config)
            assert diag.terms_used <= config.max_terms
            assert diag.min_term_index <= diag.terms_used

    def test_max_terms_respected(self):
        state, params, contract = make_point(0.01, 10.0)
        _, diag = kappa_series(state, params, contract, SeriesConfig(max_terms=5))
        assert diag.terms_used <= 5


#: price_volatility_swap outputs frozen bit for bit, one case per way the
#: summation can finish: (name, t, sigma, nu, alpha, tenor, max_terms,
#: kappa, fair_value, terms_used, min_term_index, min_term_abs, converged,
#: regime, warnings); strike 0.2, notional 100, df 0.97, t0 = 0.
GOLDEN = [
    ("tolerance", 0.5, 0.08944271909999159, 0.04, 0.31622776601683794, 1.0, 64,
     0.20998807218081061, 0.9688430015386285, 14, 13, 5.048579076362543e-12,
     True, "convergent_like", ()),
    ("tolerance_negative", 0.5, 0.08060771335225096, 0.04, 0.044721359549995794, 1.0, 64,
     -191.31960557680986, -18577.401740950554, 57, 56, 1.268751095559294e-08,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("growth_asymptotic", 0.5, 0.18071535561995578, 0.04, 0.14627234900479616, 1.0, 64,
     0.2374862253394035, 3.6361638579221385, 63, 60, 3.9305942213026205e-06,
     False, "asymptotic_truncated", ("SERIES_ASYMPTOTIC_TRUNCATED",)),
    ("growth_estimate_too_large", 0.5, 0.322490309931942, 0.04, 0.044721359549995794, 1.0, 64,
     4.520630231394503e+277, 4.385011324452668e+279, 27, 24, 4.522286748681441e+278,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("growth_m0", 0.5, 0.28284271247461906, 0.04, 1.4142135623730951, 1.0, 64,
     0.09075272175798009, -10.596985989475932, 3, 0, 0.4537636087899004,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("exhausted_asymptotic", 0.5, 0.16, 0.04, 0.1, 1.0, 64,
     0.23026558536802788, 2.9357617806987033, 64, 63, 2.2567970261409063e-08,
     False, "asymptotic_truncated", ("SERIES_ASYMPTOTIC_TRUNCATED",)),
    ("exhausted_m0", 0.5, 0.21908902300206645, 0.04, 0.7745966692414834, 1.0, 5,
     -0.041404332671063554, -23.416220269093166, 5, 0, 0.20702166335531774,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("overflow", 0.5, 55.85696017507577, 0.04, 7.745966692414834, 1.0, 64,
     -3.016510285764287e+278, -2.9260149771913585e+280, 2, 0, 1.5082551428821434e+279,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("negative_seed_point", 0.5, 0.25, 0.03, 0.4, 1.0, 64,
     -2.201514369528084, -232.94689384422418, 8, 5, 29.39493830191444,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("single_term", 1.0, 0.11313708498984762, 0.04, 0.4, 1.0, 1,
     -0.04140433267106365, -23.416220269093174, 1, 0, 0.20702166335531824,
     False, "diverging", ("SERIES_DIVERGING",)),
]


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN, ids=[c[0] for c in GOLDEN])
    def test_frozen_repr(self, case):
        _, t, sigma, nu, alpha, tenor, max_terms, *expected = case
        result = price_volatility_swap(
            MarketState(t=t, sigma=sigma, nu=nu), SabrParams(alpha=alpha),
            SwapContract(t0=0.0, tenor=tenor, strike=0.2, notional=100.0),
            0.97, SeriesConfig(max_terms=max_terms))
        diag = result.diagnostics
        got = [result.kappa, result.fair_value, diag.terms_used,
               diag.min_term_index, diag.min_term_abs, diag.converged,
               diag.regime, result.warnings]
        assert repr(got) == repr(expected)


class TestKappaIsSumOfTerms:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.05, 2.0), tau=st.floats(0.0, 2.0),
           sigma=st.floats(0.01, 1.0), nu=st.floats(1e-3, 1.0))
    def test_value_is_left_to_right_sum_of_kept_terms(self, alpha, tau,
                                                      sigma, nu):
        state = MarketState(t=1.0 - tau, sigma=sigma, nu=nu)
        params = SabrParams(alpha=alpha)
        sv = series_variables(state, params, CONTRACT)
        assume(sv.zeta <= 300.0)   # keeps e^zeta inside 1F1 finite
        config = SeriesConfig()
        kappa, diag = kappa_series(state, params, CONTRACT, config)
        terms = [series_term(n, sv.zeta, sv.tau, alpha, config.rel_tol)
                 for n in range(diag.terms_used)]
        partials = list(itertools.accumulate(terms))
        # a stop on the tolerance keeps every term; any other stop drops
        # the smallest term and all after it, keeping at least term 0
        on_tolerance = len(terms) >= 2 and all(
            abs(terms[i]) <= config.rel_tol * abs(partials[i]) for i in (-2, -1))
        kept = len(terms) if on_tolerance else max(diag.min_term_index, 1)
        assert kappa == math.sqrt(nu) / CONTRACT.tenor * sum(terms[:kept])


class TestJ0Forms:
    def test_representation_equality(self):
        for i in range(50):
            z = 10.0 ** (-2.0 + (i + 1) / 50.0 * (math.log10(50.0) + 2.0))
            closed = j0_closed_form(z)
            hyper = j0_hypergeometric_form(z)
            assert closed == pytest.approx(hyper, rel=1e-10), f"z={z}"

    def test_small_z_leading_order(self):
        z = 1e-6
        expected = -specfun.SQRT_PI / 2.0 * math.sqrt(z / 4.0)
        assert j0_hypergeometric_form(z) == pytest.approx(expected, rel=1e-5)

    def test_frozen_value(self):
        # 40-digit reference for z = 4: J0 = -1.0696950976702574
        assert j0_closed_form(4.0) == pytest.approx(-1.0696950976702574, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            j0_closed_form(0.0)
        with pytest.raises(DomainError):
            j0_hypergeometric_form(-1.0)


class TestJInfinity:
    def test_empty_sum(self):
        assert j_infinity(4.0, 0.0, 0.4, 0) == 0.0

    def test_first_term(self):
        # n = 1 term at z = 4, tau = 0: Gamma(1/2)^2/(4 Gamma(3/2)) 1F1(1/2;5/2;1)
        expected = (math.pi / (4.0 * math.exp(math.lgamma(1.5)))
                    * specfun.kummer_1f1(0.5, 2.5, 1.0).value)
        assert j_infinity(4.0, 0.0, 0.4, 1) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("a2t,zeta", [(0.02, 0.5), (0.05, 1.0), (0.1, 2.0)])
    def test_reassembly_identity(self, a2t, zeta):
        # (sqrt(nu)/T) {1 + sqrt(z/pi) (J0 + Jinf)} == b_n series, same truncation
        state, params, contract = make_point(a2t, zeta)
        sv = series_variables(state, params, contract)
        n_max = 12
        kappa_direct = math.sqrt(state.nu) / contract.tenor * sum(
            series_term(n, sv.zeta, sv.tau, params.alpha, 1e-10)
            for n in range(n_max + 1))
        j = (j0_closed_form(sv.z)
             + j_infinity(sv.z, sv.tau, params.alpha, n_max))
        kappa_assembled = (math.sqrt(state.nu) / contract.tenor
                           * (1.0 + math.sqrt(sv.z / math.pi) * j))
        assert kappa_assembled == pytest.approx(kappa_direct, rel=1e-9)
