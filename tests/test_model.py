"""Value types, the accrual-window check, discounting and the priced result."""

import math

import pytest

from volswap.exceptions import DomainError, SingularityError
from volswap.mc_engine import McConfig, kappa_mc
from volswap.model import (MarketState, SabrParams, SwapContract,
                           discount_factor, reduced_variables, time_to_maturity)
from volswap.pde_engine import kappa_quadrature
from volswap.series_pricer import kappa_series, price_volatility_swap

#: a point where the series converges: alpha^2 tau = 0.05, zeta = 1, PDE
#: reference kappa 0.2099881
CONVERGENT = (MarketState(t=0.5, sigma=0.08944271909999159, nu=0.04),
              SabrParams(alpha=0.31622776601683794))


class TestConstruction:
    def test_alpha_must_be_positive(self):
        with pytest.raises(DomainError):
            SabrParams(alpha=0.0)
        with pytest.raises(DomainError):
            SabrParams(alpha=-0.2)

    def test_tenor_positive(self):
        with pytest.raises(DomainError):
            SwapContract(t0=0.0, tenor=0.0)

    def test_sigma_positive(self):
        with pytest.raises(DomainError):
            MarketState(t=0.0, sigma=0.0, nu=0.01)

    def test_nu_nonnegative(self):
        with pytest.raises(DomainError):
            MarketState(t=0.0, sigma=0.2, nu=-0.01)


class TestDiscounting:
    contract = SwapContract(t0=0.0, tenor=1.0)

    @staticmethod
    def at(t):
        return MarketState(t=t, sigma=0.2, nu=0.01)

    def test_zero_rate(self):
        assert discount_factor(0.0, self.at(0.3), self.contract) == 1.0

    def test_flat_rate(self):
        df = discount_factor(0.05, self.at(0.0), self.contract)
        assert df == pytest.approx(math.exp(-0.05), rel=1e-15)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            discount_factor(-2000.0, self.at(0.5), self.contract)

    def test_beyond_maturity_rejected(self):
        with pytest.raises(DomainError):
            discount_factor(0.0, self.at(1.5), self.contract)


class TestValidateState:
    """time_to_maturity validates the valuation time against the accrual window."""

    params = SabrParams(alpha=0.4)
    contract = SwapContract(t0=0.0, tenor=1.0)

    def test_nu_zero_is_singular_for_series(self):
        # nu = 0 is inside the window; only the series refuses it
        state = MarketState(t=0.0, sigma=0.2, nu=0.0)
        assert time_to_maturity(state, self.contract) == 1.0
        with pytest.raises(SingularityError):
            kappa_series(state, self.params, self.contract)

    def test_before_accrual_start(self):
        for t0 in (0.0, 0.25):
            contract = SwapContract(t0=t0, tenor=1.0)
            state = MarketState(t=math.nextafter(t0, -1.0), sigma=0.2, nu=0.01)
            with pytest.raises(DomainError, match="outside the accrual window"):
                time_to_maturity(state, contract)

    def test_after_maturity(self):
        state = MarketState(t=math.nextafter(1.0, 2.0), sigma=0.2, nu=0.01)
        with pytest.raises(DomainError, match="outside the accrual window"):
            time_to_maturity(state, self.contract)

    def test_valid_inputs(self):
        contract = SwapContract(t0=0.25, tenor=1.0)
        for t, tau in ((0.25, 1.0), (0.75, 0.5), (1.25, 0.0)):
            state = MarketState(t=t, sigma=0.2, nu=0.01)
            assert time_to_maturity(state, contract) == tau


class TestReducedVariables:
    """(tau, s, zeta, sqrt(nu)/T), the one reduction every engine prices."""

    contract = SwapContract(t0=0.0, tenor=1.0)

    def test_zeta_example(self):
        tau, s, zeta, root_nu = reduced_variables(
            MarketState(t=1.0, sigma=0.2, nu=0.04), SabrParams(alpha=0.5),
            self.contract)
        assert zeta == pytest.approx(2.0, rel=1e-15)
        assert (tau, s, root_nu) == (0.0, 0.0, 0.2)

    def test_second_example(self):
        tau, s, zeta, _ = reduced_variables(
            MarketState(t=0.5, sigma=0.3, nu=0.09), SabrParams(alpha=0.3),
            self.contract)
        assert tau == pytest.approx(0.5, abs=1e-15)
        assert s == 0.3 * 0.3 * tau
        assert zeta == pytest.approx(1.0 / 0.18, rel=1e-14)

    @pytest.mark.parametrize("sigma, alpha, nu", [
        (0.25, 0.4, 0.0),         # nu = 0
        (0.25, 1e-200, 0.03),     # alpha^2 underflows
        (1e200, 0.4, 0.03),       # sigma^2 overflows
        (1e150, 1e-5, 1e-10),     # the quotient overflows
    ], ids=["nu-zero", "underflow", "overflow", "quotient"])
    def test_zeta_is_infinite_outside_the_float_range(self, sigma, alpha, nu):
        _, _, zeta, _ = reduced_variables(
            MarketState(t=0.5, sigma=sigma, nu=nu), SabrParams(alpha=alpha),
            self.contract)
        assert zeta == math.inf

    def test_s_is_zero_at_maturity_for_every_alpha(self):
        # alpha^2 * 0 would be nan once alpha^2 overflows
        tau, s, _, root_nu = reduced_variables(
            MarketState(t=1.0, sigma=0.2, nu=0.04), SabrParams(alpha=1e200),
            self.contract)
        assert (tau, s, root_nu) == (0.0, 0.0, 0.2)

    @pytest.mark.parametrize("zeta", [1.0, 39.0])
    def test_every_engine_returns_sqrt_nu_over_t_at_maturity(self, zeta):
        nu, alpha, tenor = 0.03, 0.4, 3.0
        state = MarketState(t=tenor, sigma=math.sqrt(2.0 * alpha ** 2 * nu * zeta),
                            nu=nu)
        params, contract = SabrParams(alpha=alpha), SwapContract(t0=0.0, tenor=tenor)
        exact = math.sqrt(nu) / tenor
        assert kappa_series(state, params, contract)[0] == exact
        assert kappa_mc(state, params, contract, McConfig(1000, 10, seed=1)).mean == exact
        assert kappa_quadrature(state, params, contract) == exact


class TestPricingResult:
    """price_volatility_swap composes fair_value = notional * df * (kappa - strike)."""

    def test_composition_identity_bitwise(self):
        contract = SwapContract(t0=0.0, tenor=1.0, strike=0.18, notional=10_000.0)
        result = price_volatility_swap(*CONVERGENT, contract, math.exp(-0.05))
        assert result.fair_value == contract.notional * result.discount_factor * (
            result.kappa - contract.strike)

    def test_at_the_money_is_zero(self):
        kappa, _ = kappa_series(*CONVERGENT, SwapContract(t0=0.0, tenor=1.0))
        contract = SwapContract(t0=0.0, tenor=1.0, strike=kappa)
        assert price_volatility_swap(*CONVERGENT, contract, 1.0).fair_value == 0.0

    def test_example_values(self):
        contract = SwapContract(t0=0.0, tenor=1.0, strike=0.18,
                                notional=10_000.0)
        expected = 10_000.0 * math.exp(-0.05) * (0.2099881 - 0.18)
        result = price_volatility_swap(*CONVERGENT, contract, math.exp(-0.05))
        assert result.fair_value == pytest.approx(expected, rel=1e-5)

    def test_df_range_enforced(self):
        contract = SwapContract(t0=0.0, tenor=1.0)
        for df in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError, match="discount factor"):
                price_volatility_swap(*CONVERGENT, contract, df)
