"""Crank-Nicolson psi solver and the kappa quadrature."""

import math

import numpy as np
import pytest

from volswap.exceptions import AccuracyError, DomainError, InstabilityError
from volswap.mc_engine import McConfig, kappa_mc
from volswap.model import MarketState, SabrParams, SwapContract
from volswap.pde_engine import (GridSpec, default_y_max, grid_refinement_report,
                                kappa_quadrature, solve_psi)
from volswap.series_pricer import kappa_series
from volswap.verify import psi_series_optimal

CONTRACT = SwapContract(t0=0.0, tenor=1.0)


class TestGridSpec:
    def test_minimum_sizes(self):
        with pytest.raises(DomainError):
            GridSpec(n_y=8)
        with pytest.raises(DomainError):
            GridSpec(n_t=8)

    def test_scheme_pinned(self):
        with pytest.raises(DomainError):
            GridSpec(scheme="explicit_euler")


class TestSolvePsi:
    def test_terminal_is_identity(self):
        sol = solve_psi(0.5, 0.0, GridSpec(n_y=32, n_t=32, y_max=5.0))
        assert np.all(sol.values == 1.0)

    def test_degenerate_boundary_stays_one(self):
        sol = solve_psi(0.5, 0.5, GridSpec(n_y=256, n_t=256))
        assert np.all(sol.values[:, 0] == 1.0)

    def test_maximum_principle(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256, n_t=256))
        assert sol.values.min() >= -1e-6
        assert sol.values.max() <= 1.0 + 1e-6

    def test_monotone_in_y(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256, n_t=256))
        final = sol.final
        assert np.all(np.diff(final) <= 1e-9)

    def test_matches_bessel_mode_series(self):
        # alpha = 0.5, tau = 0.5, y = 1 against the optimally truncated series
        alpha, tau, y_point = 0.5, 0.5, 1.0
        sol = solve_psi(alpha, tau, GridSpec(n_y=800, n_t=800))
        value = float(np.interp(y_point, sol.y, sol.final))
        series_value, estimate = psi_series_optimal(tau, y_point, alpha)
        assert abs(value - series_value) <= max(1e-4, estimate)

    def test_coarse_grid_raises_instability(self):
        with pytest.raises(InstabilityError):
            solve_psi(0.4, 0.5, GridSpec(n_y=100, n_t=100))

    def test_small_domain_raises_accuracy(self):
        with pytest.raises(AccuracyError):
            solve_psi(0.2, 0.5, GridSpec(n_y=128, n_t=128, y_max=3.0))

    def test_default_y_max_reasonable(self):
        assert default_y_max(0.4, 0.5) == pytest.approx(
            2.5 * math.sqrt(52.0 / math.expm1(0.08)), rel=1e-12)


class TestKappaQuadrature:
    def test_terminal(self):
        state = MarketState(t=1.0, sigma=0.2, nu=0.09)
        assert kappa_quadrature(state, SabrParams(alpha=0.4), CONTRACT) == (
            math.sqrt(0.09))

    def test_deterministic_limit(self):
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        kappa = kappa_quadrature(state, SabrParams(alpha=1e-4), CONTRACT)
        expected = math.sqrt(0.03 + 0.25 ** 2 * 0.5)
        assert kappa == pytest.approx(expected, rel=1e-5)

    def test_matches_series_in_valid_region(self):
        # alpha^2 tau = 0.05, zeta = 1
        alpha = math.sqrt(0.1)
        nu = 0.04
        sigma = math.sqrt(2.0 * alpha ** 2 * nu)
        state = MarketState(t=0.5, sigma=sigma, nu=nu)
        params = SabrParams(alpha=alpha)
        kappa_p = kappa_quadrature(state, params, CONTRACT)
        kappa_s, diag = kappa_series(state, params, CONTRACT)
        assert diag.converged
        assert type(kappa_p) is float
        assert kappa_p == pytest.approx(kappa_s, rel=1e-5)

    def test_nu_zero_supported(self):
        # the quadrature covers the accrual start, cross-checked against MC
        state = MarketState(t=0.0, sigma=0.25, nu=0.0)
        params = SabrParams(alpha=0.4)
        contract = SwapContract(t0=0.0, tenor=0.5)
        kappa_p = kappa_quadrature(state, params, contract)
        assert type(kappa_p) is float
        est = kappa_mc(state, params, contract, McConfig(60_000, 200, seed=13))
        assert abs(kappa_p - est.mean) <= max(3.0 * est.std_error,
                                              1e-3 * kappa_p)

    def test_monotone_in_nu(self):
        params = SabrParams(alpha=0.4)
        kappas = []
        for nu in (0.01, 0.04, 0.09):
            state = MarketState(t=0.5, sigma=0.25, nu=nu)
            kappas.append(kappa_quadrature(state, params, CONTRACT))
        assert kappas[0] < kappas[1] < kappas[2]

    def test_tail_bound_enforced(self):
        # calibrate a quad_tol just under the achievable tail bound
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        grid = GridSpec(y_max=27.0, n_y=400, n_t=400)
        sol = solve_psi(0.4, 0.5, grid)
        x_cut = sol.y[-1] / (math.sqrt(2.0) * 0.25 / 0.4)
        tail_bound = sol.boundary_max / x_cut
        assert tail_bound > 0.0
        with pytest.raises(AccuracyError):
            kappa_quadrature(state, SabrParams(alpha=0.4), CONTRACT, grid,
                             quad_tol=0.5 * tail_bound)


class TestGridConvergence:
    def test_second_order_ratio(self):
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        report = grid_refinement_report(state, SabrParams(alpha=0.4), CONTRACT,
                                        GridSpec(n_y=400, n_t=400),
                                        refinements=2)
        assert len(report["kappas"]) == 3
        assert all(type(k) is float for k in report["kappas"])
        assert 3.5 <= report["ratios"][0] <= 4.5
