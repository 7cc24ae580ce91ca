"""The hypergeometric series pricer and its component cross-checks."""

import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volswap import series_pricer, specfun
from volswap.exceptions import (AccuracyError, DomainError, SingularityError,
                                VolswapError)
from volswap.model import (S_MAX, MarketState, SabrParams, SwapContract,
                           reduced_variables)
from volswap.series_pricer import (REGIME_CONVERGENT, REGIME_DIVERGING,
                                   REL_TOL, coeff_b, coeff_b_exact,
                                   growth_factor, kappa_series,
                                   moment_envelope, price_volatility_swap,
                                   series_term, truncated_sum)
from volswap.verify import j0_closed_form, j0_hypergeometric_form

CONTRACT = SwapContract(t0=0.0, tenor=1.0)
#: the zeta above which every price was refused before the moment envelope
#: refused by value; the n = 0 term -3.1e15 at zeta = 40 has an ulp of 0.5
ZETA_MAX = 40.0


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
        # growth factor e^(E_n tau) with E_n = alpha^2 n (2n - 1)
        assert growth_factor(0, 0.7, 0.5) == 1.0
        assert growth_factor(1, 0.5, 1.0) == pytest.approx(math.exp(0.25), rel=1e-15)
        assert growth_factor(3, 1.0, 1.0) == pytest.approx(math.exp(15.0), rel=1e-15)

    def test_energy_two_closed_forms_agree(self):
        # E_n = (alpha^2/2)((2n - 1/2)^2 - 1/4)
        for n in range(0, 12):
            for alpha in (0.2, 0.7, 1.3):
                k = 2 * n - 0.5
                other = 0.5 * alpha * alpha * (k * k - 0.25)
                assert growth_factor(n, alpha, 0.5) == pytest.approx(
                    math.exp(other * 0.5), rel=1e-13)


class TestSeriesVariables:
    def test_nu_zero_singular(self):
        with pytest.raises(SingularityError, match="zeta"):
            kappa_series(MarketState(t=0.5, sigma=0.3, nu=0.0),
                         SabrParams(alpha=0.3), CONTRACT)

    @pytest.mark.parametrize("t, t0", [(-0.5, 0.0), (0.5, 0.75), (1.5, 0.0)])
    def test_outside_accrual_window_is_domain_error(self, t, t0):
        state = MarketState(t=t, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="outside the accrual window"):
            kappa_series(state, SabrParams(alpha=0.4),
                         SwapContract(t0=t0, tenor=1.0))


class TestTerminalValue:
    @pytest.mark.parametrize("nu", [0.01, 0.04, 0.25])
    def test_terminal_equals_sqrt_nu_over_t(self, nu):
        # tau = 0: every zeta up to ZETA_MAX gives sqrt(nu)/T exactly; the
        # summed series made 1.7275 of 0.173205 at zeta 39
        tenor = 2.0
        contract = SwapContract(t0=0.0, tenor=tenor)
        for i in range(30):
            zeta = 10.0 ** (-2.0 + (2.0 + math.log10(ZETA_MAX)) * i / 29.0)
            sigma = math.sqrt(2.0 * 0.4 ** 2 * nu * zeta)
            state = MarketState(t=tenor, sigma=sigma, nu=nu)
            kappa, diag = kappa_series(state, SabrParams(alpha=0.4), contract)
            assert kappa == math.sqrt(nu) / tenor
            assert diag == series_pricer.SeriesDiagnostics(
                1, 0, 0.0, True, REGIME_CONVERGENT)

    def test_single_term_truncation(self):
        # n = 0 alone at tau = 0, zeta = 1 is (sqrt(nu)/T) 1F1(-1/2;1/2;1)
        nu = 0.04
        sigma = math.sqrt(2.0 * 0.4 ** 2 * nu * 1.0)
        state = MarketState(t=1.0, sigma=sigma, nu=nu)
        tau, _, zeta, _ = reduced_variables(state, SabrParams(alpha=0.4), CONTRACT)
        kappa = math.sqrt(nu) * series_term(0, zeta, tau, 0.4)
        expected = math.sqrt(nu) * specfun.kummer_1f1(-0.5, 0.5, 1.0)
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

    def test_negative_sum_on_the_tolerance_stop_is_diverging(self):
        # zeta 38.5 at s = 1e-8: cancellation leaves a negative sum whose
        # last terms are tiny
        kappa, diag = kappa_series(*make_point(1e-8, 38.5))
        assert diag.min_term_index == diag.terms_used - 1
        assert kappa < 0
        assert diag.regime == REGIME_DIVERGING

    def test_diagnostics_monotone(self, monkeypatch):
        monkeypatch.setattr(series_pricer, "MAX_TERMS", 48)
        for a2t, zeta in ((0.01, 5.0), (0.1, 0.5), (0.5, 1.0), (2.0, 3.0)):
            state, params, contract = make_point(a2t, zeta)
            _, diag = kappa_series(state, params, contract)
            assert diag.terms_used <= 48
            assert diag.min_term_index <= diag.terms_used

    def test_max_terms_respected(self, monkeypatch):
        monkeypatch.setattr(series_pricer, "MAX_TERMS", 5)
        state, params, contract = make_point(0.01, 10.0)
        _, diag = kappa_series(state, params, contract)
        assert diag.terms_used <= 5


class TestTruncatedSum:
    """The one truncation rule, one case per way the sum can stop."""

    def test_tolerance_keeps_every_term_and_stops_reading(self):
        terms = iter([1.0, 0.5, 1e-11, 1e-12, 5.0])
        assert truncated_sum(terms) == (1.5 + 1e-11 + 1e-12, 3, 1e-12,
                                        "tolerance", 4)
        assert list(terms) == [5.0]

    def test_growth_stops_before_the_smallest_term(self):
        # magnitudes 1, 0.5, 0.1, 0.2, 0.3: three growing in a row
        terms = iter([1.0, -0.5, 0.1, 0.2, 0.3, 0.4])
        assert truncated_sum(terms) == (0.5, 2, 0.1, "growth", 5)
        assert list(terms) == [0.4]

    def test_non_finite_term_is_not_summed(self):
        assert truncated_sum([1.0, 0.5, math.inf, 0.1]) == (
            1.0, 1, 0.5, "overflow", 2)
        assert truncated_sum([1.0, 0.5, math.nan]) == (1.0, 1, 0.5, "overflow", 2)

    def test_exhausted(self):
        assert truncated_sum([1.0, 0.5, 0.25]) == (1.5, 2, 0.25, "exhausted", 3)

    def test_smallest_first_term_is_kept(self):
        assert truncated_sum([0.1, -0.5, 0.7]) == (0.1, 0, 0.1, "growth", 3)

    def test_reads_rel_tol_at_call_time(self, monkeypatch):
        monkeypatch.setattr(series_pricer, "REL_TOL", 0.5)
        assert truncated_sum([1.0, 0.5, 0.25, 9.0]) == (1.75, 2, 0.25,
                                                        "tolerance", 3)

    @pytest.mark.parametrize("terms", [[], [math.inf, 1.0], [-math.inf], [math.nan]])
    def test_no_finite_term_is_domain_error(self, terms):
        # a valid input whose evaluation failed: AccuracyError, not DomainError
        with pytest.raises(AccuracyError, match="no finite terms"):
            truncated_sum(terms)


class TestGrowthOverflow:
    """e^(E_n tau) leaves the float range at E_n tau > ~709.8 (n = 2: s > ~118.3)."""

    def test_overflowing_term_is_a_signed_infinity(self):
        # alpha = 20, tau = 0.5: E_1 tau = 200 stays finite, E_2 tau = 1200 does not
        f = specfun.kummer_1f1(0.5, 2.5, 1.0)
        assert growth_factor(1, 20.0, 0.5) == math.exp(200.0)
        assert growth_factor(2, 20.0, 0.5) == math.inf
        assert series_term(1, 1.0, 0.5, 20.0) == (
            coeff_b(1) * growth_factor(1, 20.0, 0.5) * 1.0 * f)
        assert series_term(2, 1.0, 0.5, 20.0) == -math.inf   # b_2 < 0
        assert series_term(3, 1.0, 0.5, 20.0) == math.inf

    @pytest.mark.parametrize("t, nu", [(0.001, 6.25e-5), (0.5, 2.7e-4)])
    def test_overflowing_1f1_is_domain_error(self, t, nu):
        # zeta = 3125 and 723: e^zeta in 1F1(-1/2; 1/2; zeta) overflows, so
        # already the n = 0 term is -inf
        state = MarketState(t=t, sigma=0.25, nu=nu)
        tau, _, zeta, _ = reduced_variables(state, SabrParams(alpha=0.4), CONTRACT)
        assert series_term(0, zeta, tau, 0.4) == -math.inf
        with pytest.raises(AccuracyError, match="no finite terms"):
            kappa_series(state, SabrParams(alpha=0.4), CONTRACT)

    def test_overflow_stops_the_sum_as_diverging(self):
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        kappa, diag = kappa_series(state, SabrParams(alpha=20.0), CONTRACT)
        assert math.isfinite(kappa)
        assert diag.terms_used == 2
        assert diag.regime == REGIME_DIVERGING
        assert not diag.converged


class TestLargeZeta:
    """Above ``ZETA_MAX`` the terms reach ~e^zeta and cancel down to F ~ 1,
    and every sum lies outside the moment envelope by more than its
    estimate."""

    @pytest.mark.parametrize("zeta", [40.5, 45.0, 60.0, 100.0, 200.0, 400.0,
                                      700.0, 800.0])
    def test_every_price_is_refused(self, zeta):
        for a2t in (1e-8, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 1e-2, 0.1):
            state, params, contract = make_point(a2t, zeta)
            try:
                _, diag = kappa_series(state, params, contract)
            except AccuracyError:   # the n = 0 term is already infinite
                assert zeta > 717.0
                continue
            assert diag.regime == REGIME_DIVERGING, a2t
            assert not diag.converged

    def test_no_price_is_trusted_past_zeta_max(self):
        # rounding noise alone made sums such as kappa ~ 8e23 at zeta = 96
        # look asymptotically truncated
        alpha, nu = 0.01, 0.04
        for i in range(1, 281):
            zeta = ZETA_MAX + 0.25 * i
            sigma = math.sqrt(2 * alpha * alpha * nu * zeta)
            state = MarketState(t=0.5, sigma=sigma, nu=nu)
            _, diag = kappa_series(state, SabrParams(alpha=alpha), CONTRACT)
            assert diag.regime == REGIME_DIVERGING, zeta


def exact_moments(s: float) -> tuple:
    """(E[A_s], E[A_s^2]) = (e^s - 1, (e^{6s} - 6e^s + 5)/15) as Fractions
    of the float s, by their Taylor series, whose terms are positive,
    summed until a term of the second falls below 1e-45 of its sum."""
    s = Fraction(s)
    mean = second = Fraction(0)
    power = Fraction(1)
    for k in itertools.count(1):
        power = power * s / k                       # s^k / k!
        mean += power
        term = (6 ** k - 6) * power / 15
        second += term
        if k > 2 and term < Fraction(1, 10 ** 45) * second:
            return mean, second


def mpf(x: Fraction):
    """x as an mpmath number at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


#: perfbench's reference table: F(s, zeta) on a 40 x 40 (s, zeta) lattice
with open(Path(__file__).parents[1] / "perfbench" / "reference.json") as fh:
    REFERENCE = json.load(fh)


class TestMomentEnvelope:
    """[lo, hi] from the first two moments of A_s, and the refusals it drives."""

    @pytest.mark.parametrize("s", [5e-121, 1e-12, 1e-8, 5e-5, 5e-4, 0.01,
                                   0.3, 0.8, 2.0])
    @pytest.mark.parametrize("zeta", [1e-3, 0.5, 22.3, 36.98, 40.0, 700.0])
    def test_agrees_with_exact_moments(self, s, zeta):
        mean, second = exact_moments(s)
        with mpmath.workdps(50):
            w = 2 * mpmath.mpf(zeta) * mpf(mean)
            hi = mpmath.sqrt(1 + w)
            lo = 1 + w / (1 + mpmath.sqrt(1 + w * mpf(second / mean ** 2)))
        got_lo, got_hi = moment_envelope(s, zeta)
        ulp = math.ulp(got_hi)
        assert abs(got_lo - lo) <= series_pricer.ENVELOPE_ULPS * ulp
        assert abs(got_hi - hi) <= series_pricer.ENVELOPE_ULPS * ulp

    def test_second_moment_is_a_sum_of_positive_terms(self):
        # e^{6s} - 6e^s + 5 = 15 u^2 q(u) with u = e^s - 1, exactly
        for u in (Fraction(1, 10 ** 9), Fraction(3, 7), Fraction(5),
                  Fraction(10 ** 6)):
            q = 1 + Fraction(4, 3) * u + u ** 2 + Fraction(2, 5) * u ** 3 + u ** 4 / 15
            assert (1 + u) ** 6 - 6 * (1 + u) + 5 == 15 * u ** 2 * q

    @pytest.mark.parametrize("s", [0.0, 5e-121, 118.0, 200.0, S_MAX])
    @pytest.mark.parametrize("zeta", [0.0, 1e-3, 40.0, 717.0, 1e300])
    def test_raises_nothing_on_the_range_of_s(self, s, zeta):
        # past the float range 2 zeta e^s is inf and the bracket [1, inf]
        lo, hi = moment_envelope(s, zeta)
        assert 1.0 <= lo <= hi + series_pricer.ENVELOPE_ULPS * math.ulp(hi)
        if s == 0.0 or zeta == 0.0:
            assert (lo, hi) == (1.0, 1.0)

    def test_contains_every_reference_value(self):
        for s, row, bounds in zip(REFERENCE["s"], REFERENCE["F"],
                                  REFERENCE["F_bound"]):
            for zeta, f, bound in zip(REFERENCE["zeta"], row, bounds):
                lo, hi = moment_envelope(s, zeta)
                assert lo - bound <= f <= hi + bound, (s, zeta)

    def test_no_trusted_lattice_value_misses_the_reference(self):
        # series_book's rule, max(10 estimate, 1e-5) relative, at one
        # contract per lattice point: nu 0.04, tau 0.5, T 1
        for s, row in zip(REFERENCE["s"], REFERENCE["F"]):
            for zeta, f in zip(REFERENCE["zeta"], row):
                state, params, contract = make_point(s, zeta)
                kappa, diag = kappa_series(state, params, contract)
                if diag.regime == REGIME_DIVERGING:
                    continue
                value = kappa / math.sqrt(state.nu) * contract.tenor
                tol = max(10.0 * diag.min_term_abs / f, 1e-5)
                assert abs(value - f) / f <= tol, (s, zeta, value, f)


#: price_volatility_swap outputs frozen bit for bit, one case per way the
#: summation can finish: (name, t, sigma, nu, alpha, tenor, max_terms,
#: kappa, fair_value, terms_used, min_term_index, min_term_abs, converged,
#: regime, warnings); strike 0.2, notional 100, df 0.97, t0 = 0.
GOLDEN = [
    ("tolerance", 0.5, 0.08944271909999159, 0.04, 0.31622776601683794, 1.0, 64,
     0.20998807218081061, 0.9688430015386285, 14, 13, 5.048579076362543e-12,
     True, "convergent_like", ()),
    ("tolerance_negative", 0.5, 0.08060771335225096, 0.04, 0.044721359549995794, 1.0, 64,
     -0.719605576363356, -89.20174090724552, 61, 60, 2.4543805075051877e-11,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("growth_asymptotic", 0.5, 0.18071535561995578, 0.04, 0.14627234900479616, 1.0, 64,
     0.2374862253394035, 3.6361638579221385, 63, 60, 3.9305942213026205e-06,
     False, "asymptotic_truncated", ("SERIES_ASYMPTOTIC_TRUNCATED",)),
    ("growth_estimate_too_large", 0.5, 0.322490309931942, 0.04, 0.044721359549995794, 1.0, 64,
     4.520630231395874e+277, 4.3850113244539975e+279, 27, 24, 4.522286748681441e+278,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("growth_m0", 0.5, 0.28284271247461906, 0.04, 1.4142135623730951, 1.0, 64,
     0.09075272175798009, -10.596985989475932, 3, 0, 0.4537636087899004,
     False, "diverging", ("SERIES_DIVERGING",)),
    # asymptotically truncated by its terms, but 1.8e-3 relative above
    # Jensen's bound with an estimate of 2.3e-8
    ("exhausted_asymptotic", 0.5, 0.16, 0.04, 0.1, 1.0, 64,
     0.23026558536802788, 2.9357617806987033, 64, 63, 2.2567970261409063e-08,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("exhausted_m0", 0.5, 0.21908902300206645, 0.04, 0.7745966692414834, 1.0, 5,
     -0.041404332671063554, -23.416220269093166, 5, 0, 0.20702166335531774,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("overflow", 0.5, 55.85696017507577, 0.04, 7.745966692414834, 1.0, 64,
     -3.016510285763367e+278, -2.9260149771904657e+280, 2, 0, 1.5082551428816834e+279,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("negative_seed_point", 0.5, 0.25, 0.03, 0.4, 1.0, 64,
     -2.201514369528084, -232.94689384422418, 8, 5, 29.39493830191444,
     False, "diverging", ("SERIES_DIVERGING",)),
    ("single_term", 0.5, 0.11313708498984762, 0.04, 0.4, 1.0, 1,
     -0.04140433267106365, -23.416220269093174, 1, 0, 0.20702166335531824,
     False, "diverging", ("SERIES_DIVERGING",)),
]


#: :func:`sweep_digest`, frozen bit for bit.
SWEEP_DIGEST = "8daff125f7fa2b79c1a55c4d34a91de420481c9946c5a826d7bf863ba096c49a"


def sweep_digest() -> str:
    """sha256 over kappa_series on a 60 x 60 log grid, s from 1e-8 to 10 and
    zeta from 1e-3 to 1e3 at alpha 1 and tenor 10 (so tau = s inside the
    accrual window): repr((kappa, diagnostics)) per point, or the message of
    a refusal."""
    contract = SwapContract(t0=0.0, tenor=10.0)
    digest = hashlib.sha256()
    for i in range(60):
        s = 10.0 ** (-8 + 9 * i / 59)
        for j in range(60):
            zeta = 10.0 ** (-3 + 6 * j / 59)
            state = MarketState(t=10.0 - s, sigma=math.sqrt(2 * zeta * 0.04),
                                nu=0.04)
            try:
                got = repr(kappa_series(state, SabrParams(alpha=1.0), contract))
            except VolswapError as exc:
                got = str(exc)
            digest.update(got.encode() + b"\n")
    return digest.hexdigest()


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN, ids=[c[0] for c in GOLDEN])
    def test_frozen_repr(self, case, monkeypatch):
        _, t, sigma, nu, alpha, tenor, max_terms, *expected = case
        monkeypatch.setattr(series_pricer, "MAX_TERMS", max_terms)
        result = price_volatility_swap(
            MarketState(t=t, sigma=sigma, nu=nu), SabrParams(alpha=alpha),
            SwapContract(t0=0.0, tenor=tenor, strike=0.2, notional=100.0),
            0.97)
        diag = result.diagnostics
        got = [result.kappa, result.fair_value, diag.terms_used,
               diag.min_term_index, diag.min_term_abs, diag.converged,
               diag.regime, result.warnings]
        assert repr(got) == repr(expected)

    def test_sweep_is_bit_identical(self):
        # frozen from the int-counted 1F1 loop with abs; the sweep meets the
        # tolerance, growth and exhausted stops, sums outside the moment
        # envelope and the no-finite-term refusal above zeta ~ 717 (the
        # overflow stop is GOLDEN's "overflow" case)
        assert sweep_digest() == SWEEP_DIGEST


class TestFairValue:
    @pytest.mark.parametrize("notional", [1e308, -1e308])
    def test_overflow_is_refused(self, notional):
        # notional * df * (kappa - strike) overflows: no finite price to report
        contract = SwapContract(t0=0.0, tenor=1.0, strike=5.0, notional=notional)
        with pytest.raises(DomainError, match=r"\(kappa - strike\) = [-]?inf is not"):
            price_volatility_swap(MarketState(t=0.5, sigma=0.0894427191, nu=0.04),
                                  SabrParams(alpha=0.316227766), contract, 1.0)


class TestKappaIsSumOfTerms:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.05, 2.0), tau=st.floats(0.0, 2.0),
           sigma=st.floats(0.01, 1.0), nu=st.floats(1e-3, 1.0))
    def test_value_is_left_to_right_sum_of_kept_terms(self, alpha, tau,
                                                      sigma, nu):
        # tau = 0 is exact, not summed: TestTerminalValue
        contract = SwapContract(t0=0.0, tenor=2.0)
        state = MarketState(t=2.0 - tau, sigma=sigma, nu=nu)
        params = SabrParams(alpha=alpha)
        tau, _, zeta, _ = reduced_variables(state, params, contract)
        assume(tau > 0.0 and zeta <= 300.0)   # keeps e^zeta inside 1F1 finite
        kappa, diag = kappa_series(state, params, contract)
        terms = [series_term(n, zeta, tau, alpha)
                 for n in range(diag.terms_used)]
        partials = list(itertools.accumulate(terms))
        # a stop on the tolerance keeps every term; any other stop drops
        # the smallest term and all after it, keeping at least term 0
        on_tolerance = len(terms) >= 2 and all(
            abs(terms[i]) <= REL_TOL * abs(partials[i]) for i in (-2, -1))
        kept = len(terms) if on_tolerance else max(diag.min_term_index, 1)
        assert kappa == math.sqrt(nu) / contract.tenor * sum(terms[:kept])


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
    @pytest.mark.parametrize("a2t,zeta", [(0.02, 0.5), (0.05, 1.0), (0.1, 2.0)])
    def test_reassembly_identity(self, a2t, zeta):
        # (sqrt(nu)/T) {1 + sqrt(z/pi) (J0 + Jinf)} == b_n series, same truncation
        state, params, contract = make_point(a2t, zeta)
        tau, _, zeta, _ = reduced_variables(state, params, contract)
        n_max = 12
        kappa_direct = math.sqrt(state.nu) / contract.tenor * sum(
            series_term(n, zeta, tau, params.alpha)
            for n in range(n_max + 1))
        z = 4.0 * zeta
        # J_inf = (sqrt(pi)/2) zeta^(-1/2) sum_{n>=1} series_term(n, ...)
        j_inf = specfun.SQRT_PI / 2.0 * sum(
            series_term(n, zeta, tau, params.alpha)
            for n in range(1, n_max + 1)) / math.sqrt(zeta)
        j = j0_closed_form(z) + j_inf
        kappa_assembled = (math.sqrt(state.nu) / contract.tenor
                           * (1.0 + math.sqrt(z / math.pi) * j))
        assert kappa_assembled == pytest.approx(kappa_direct, rel=1e-9)
