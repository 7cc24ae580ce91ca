"""Crank-Nicolson psi solver and the kappa quadrature."""

import hashlib
import math
import random
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.linalg.lapack import dgttrf

from volswap import pde_engine
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


class TestSolvePsi:
    def test_terminal_is_identity(self):
        sol = solve_psi(0.5, 0.0, GridSpec(n_y=32, n_t=32, y_max=5.0))
        assert np.all(sol.final == 1.0)

    def test_degenerate_boundary_stays_one(self):
        sol = solve_psi(0.5, 0.5, GridSpec(n_y=256, n_t=256))
        assert sol.final[0] == 1.0

    def test_maximum_principle(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256, n_t=256))
        assert sol.final.min() >= -1e-6
        assert sol.final.max() <= 1.0 + 1e-6

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

    @pytest.mark.parametrize("tau", [0.0, -0.25])
    def test_no_default_domain_at_or_past_maturity(self, tau):
        with pytest.raises(DomainError):
            default_y_max(0.4, tau)

    def test_maturity_without_y_max_is_domain_error(self):
        with pytest.raises(DomainError):
            solve_psi(0.4, 0.0)

    @pytest.mark.parametrize("alpha, tau", [(1e200, 1.0), (math.inf, 1.0),
                                            (1.0, math.inf), (math.nan, 1.0),
                                            (1.0, 1000.0)])
    def test_s_not_finite_is_domain_error(self, alpha, tau):
        # at s = 1000, e^s - 1 (q(0) and the default y_max) overflows
        with pytest.raises(DomainError, match="not finite"):
            solve_psi(alpha, tau)

    def test_depends_on_alpha_tau_only_through_s(self):
        direct = solve_psi(0.4, 0.5)
        reduced = solve_psi(1.0, 0.4 * 0.4 * 0.5)
        assert direct.s == reduced.s
        assert direct.final.tobytes() == reduced.final.tobytes()
        assert direct.q_coeffs.tobytes() == reduced.q_coeffs.tobytes()


class TestSolveBanded:
    @pytest.mark.parametrize("n", [3, 4, 17, 400, 1600])
    def test_bitwise_equal_to_scipy_banded_solve(self, n):
        # the per-step gttrs solve against scipy's gtsv, on random strictly
        # diagonally dominant systems like the march's I + (ds/2) A
        rng = np.random.default_rng(n)
        for _ in range(5):
            upper, lower = -rng.uniform(0.0, 1e3, (2, n - 1))
            diag = 1.0 + rng.uniform(0.0, 1.0, n)
            diag[:-1] -= upper
            diag[1:] -= lower
            ab = np.zeros((3, n))
            ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
            rhs = rng.uniform(0.0, 1.0, n)
            expected = scipy.linalg.solve_banded((1, 1), ab, rhs)
            *factors, info = dgttrf(lower, diag, upper)
            assert info == 0
            pde_engine.solve_banded(factors, rhs)
            assert rhs.tobytes() == expected.tobytes()

    def test_refuses_a_strided_vector(self):
        *factors, _ = dgttrf(np.full(3, -0.1), np.ones(4), np.full(3, -0.1))
        with pytest.raises(TypeError):
            pde_engine.solve_banded(factors, np.ones(8)[::2])


@st.composite
def pchip_data(draw):
    """(x, y) with 3 to 40 non-uniformly spaced knots; y mixes repeated
    small integers, zeros and sign changes with arbitrary floats."""
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=39))
    x = draw(st.floats(-10.0, 10.0)) + np.cumsum([0.0] + steps)
    values = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                       st.floats(-1e3, 1e3))
    y = draw(st.lists(values, min_size=len(x), max_size=len(x)))
    return x, np.array(y)


class TestPchip:
    # slopes near the float range overflow in both implementations alike
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=pchip_data())
    @example(data=(np.array([0.0, 1.0, 3.0]), np.array([1.0, -2.0, 0.5])))
    @example(data=(np.array([0.0, 0.5, 3.0]), np.array([0.0, 0.0, 0.0])))
    @example(data=(np.array([0.0, 1.0, 1.5, 4.0]), np.array([2.0, 2.0, 0.0, 2.0])))
    def test_bitwise_equal_to_scipy(self, data):
        x, y = data
        coeffs = pde_engine._pchip(x, y)
        expected = PchipInterpolator(x, y).c
        assert coeffs.shape == expected.shape
        assert coeffs.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("alpha", [1e-200, 40.0, 1e200])
    def test_s_out_of_float_range_is_domain_error(self, alpha):
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError):
            kappa_quadrature(state, SabrParams(alpha=alpha), CONTRACT)

    @pytest.mark.parametrize("engine", [kappa_quadrature, grid_refinement_report])
    def test_before_accrual_start_is_domain_error(self, engine):
        state = MarketState(t=-0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="outside the accrual window"):
            engine(state, SabrParams(alpha=0.4), CONTRACT)

    def test_overflowing_y_of_x_is_domain_error(self):
        # sqrt(2) sigma / alpha = inf made x_cut 0 and the tail bound divide by it
        state = MarketState(t=0.5, sigma=1e300, nu=0.03)
        with pytest.raises(DomainError, match="overflows"):
            kappa_quadrature(state, SabrParams(alpha=1e-10), CONTRACT)

    @pytest.mark.parametrize("nu", [1e308, sys.float_info.max])
    def test_tail_integral_finite_at_largest_nu(self, nu):
        # sqrt(pi nu) overflowed and inf * erfc(...) = inf * 0 gave nan;
        # V is negligible next to nu, so kappa = sqrt(nu) / T
        kappa = kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=nu),
                                 SabrParams(alpha=0.4), CONTRACT)
        assert kappa == pytest.approx(math.sqrt(nu), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("y_max", [1e-300, 1e200])
    def test_grid_with_non_finite_q_is_domain_error(self, y_max):
        # y^2 underflows to 0 or overflows, so q = (1 - psi) / y^2 has no value
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="not finite"):
            kappa_quadrature(state, SabrParams(alpha=0.4), CONTRACT,
                             GridSpec(y_max=y_max))

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


def _point(alpha, tau, zeta, nu=0.04):
    """zeta = sigma^2 / (2 alpha^2 nu); at nu = 0, zeta is read as sigma."""
    sigma = alpha * math.sqrt(2.0 * zeta * nu) if nu > 0 else zeta
    return (MarketState(t=CONTRACT.maturity - tau, sigma=sigma, nu=nu),
            SabrParams(alpha=alpha))


class TestPsiMemo:
    def test_prices_are_a_pure_function_of_the_inputs(self, marches):
        # 20 points on 3 s values; s = 0.08 comes from two (alpha, tau) pairs
        pairs = [(0.4, 0.5), (0.8, 0.125), (0.5, 0.6), (0.3, 0.9)]
        points = [_point(alpha, tau, zeta, nu)
                  for alpha, tau in pairs
                  for zeta, nu in ((0.5, 0.04), (2.0, 0.04), (8.0, 0.01),
                                   (1.0, 0.09), (0.3, 0.0))]
        random.Random(5).shuffle(points)
        cold = []
        for state, params in points:
            pde_engine.psi_memo.cache_clear()
            cold.append(repr(kappa_quadrature(state, params, CONTRACT)))
        assert len(marches) == 20
        pde_engine.psi_memo.cache_clear()
        warm = [repr(kappa_quadrature(state, params, CONTRACT))
                for state, params in points]
        assert warm == cold
        assert len(marches) == 20 + 3

    def test_taus_one_ulp_apart_share_a_march(self, marches):
        tau = 0.5
        later = math.nextafter(tau, 1.0)
        assert 0.4 * 0.4 * tau != 0.4 * 0.4 * later
        kappas = [kappa_quadrature(*_point(0.4, t, 1.0), CONTRACT)
                  for t in (tau, later)]
        assert len(marches) == 1
        assert kappas[0] == pytest.approx(kappas[1], rel=1e-12)

    def test_refusal_is_memoised(self, marches):
        state, params = _point(0.4, 0.5, 1.0)
        grid = GridSpec(n_y=100, n_t=100)
        raised = []
        for _ in range(2):
            with pytest.raises(InstabilityError) as info:
                kappa_quadrature(state, params, CONTRACT, grid)
            raised.append(info.value)
        assert len(marches) == 1
        assert raised[0] is not raised[1]
        assert type(raised[0]) is type(raised[1])
        assert str(raised[0]) == str(raised[1])


class TestGridConvergence:
    def test_second_order_ratio(self):
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        report = grid_refinement_report(state, SabrParams(alpha=0.4), CONTRACT,
                                        GridSpec(n_y=400, n_t=400),
                                        refinements=2)
        assert len(report["kappas"]) == 3
        assert all(type(k) is float for k in report["kappas"])
        assert 3.5 <= report["ratios"][0] <= 4.5

    @pytest.mark.parametrize("t", [1.0, 1.25])
    def test_nothing_to_refine_at_or_past_maturity(self, t):
        state = MarketState(t=t, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError):
            grid_refinement_report(state, SabrParams(alpha=0.4), CONTRACT,
                                   refinements=1)

    def test_s_beyond_float_range_is_domain_error(self):
        # s = 800: the default y_max needs e^s - 1
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="not finite"):
            grid_refinement_report(state, SabrParams(alpha=40.0), CONTRACT,
                                   refinements=1)


class TestGolden:
    """PDE results frozen by repr: kappas, a refinement report, psi bytes."""

    KAPPAS = {
        "small_s": ((0.1, 0.05, 0.25, 0.03), GridSpec(), "0.18200475404745348"),
        "mid_s": ((0.4, 0.5, 0.25, 0.03), GridSpec(), "0.2491414567199332"),
        "large_s": ((0.8, 1.0, 0.3, 0.02), GridSpec(), "0.3503128996100235"),
        "high_zeta": ((0.5, 0.8, 0.6, 0.005), GridSpec(), "0.550330780229921"),
        "nu_zero": ((0.4, 0.5, 0.25, 0.0), GridSpec(), "0.17794808690345418"),
        "explicit_grid": ((0.4, 0.5, 0.25, 0.03),
                          GridSpec(y_max=32.0, n_y=256, n_t=320),
                          "0.24914154093892343"),
    }

    @staticmethod
    def _inputs(alpha, tau, sigma, nu):
        return (MarketState(t=CONTRACT.maturity - tau, sigma=sigma, nu=nu),
                SabrParams(alpha=alpha))

    @pytest.mark.parametrize("case", KAPPAS)
    def test_kappa(self, case, marches):
        point, grid, expected = self.KAPPAS[case]
        kappa = kappa_quadrature(*self._inputs(*point), CONTRACT, grid)
        assert repr(kappa) == expected

    def test_default_grid_refusal_at_s_0_8(self, marches):
        state, params = MarketState(t=0.2, sigma=0.3, nu=0.02), SabrParams(alpha=1.0)
        with pytest.raises(AccuracyError) as info:
            kappa_quadrature(state, params, CONTRACT)
        assert type(info.value) is AccuracyError
        assert str(info.value) == ("psi at the far edge reaches 2.346e-08 > "
                                   "boundary_tol 1.0e-08; enlarge y_max (used 16.3)")

    def test_refinement_report(self, marches):
        report = grid_refinement_report(*self._inputs(0.4, 0.5, 0.25, 0.03),
                                        CONTRACT, GridSpec(n_y=200, n_t=200))
        assert repr(report) == (
            "{'kappas': [0.24914044648763362, 0.24914145671993224, "
            "0.24914171477371413], 'grids': [(200, 200), (400, 400), (800, 800)], "
            "'ratios': [3.914812994360805], 'y_max': 62.46732294240538}")

    def test_psi_bytes(self):
        sol = solve_psi(0.5, 0.6, GridSpec(n_y=300, n_t=200))
        assert hashlib.sha256(sol.final.tobytes()).hexdigest() == (
            "71fee74454d656a129335828525e52162877c2c0332308ff491087813f6ba871")
        assert hashlib.sha256(sol.q_coeffs.tobytes()).hexdigest() == (
            "dcf1ea56d0c2901681344498ec43f4aec4bf25e5ef7539574d869d71d681c010")
        assert repr(sol.boundary_max) == "8.14498126958288e-12"


def _mpmath_kappa(solution, state, params, contract):
    """kappa with both integrals done by ``mpmath.quad`` at 20 digits: the
    stored pchip cubic times e^(-y^2 / (4 zeta)) cell by cell, skipping
    cells past y^2 / (4 zeta) = 110, and the tail beyond y_max."""
    with mpmath.workdps(20):
        nu = mpmath.mpf(state.nu)
        c = mpmath.sqrt(2) * state.sigma / params.alpha
        rate = nu / (c * c)                          # 1 / (4 zeta)
        knots = [mpmath.mpf(v) for v in solution.y.tolist()]
        body = mpmath.mpf(0)
        for i, cubic in enumerate(solution.q_coeffs.T.tolist()):
            left = knots[i]
            if rate * left * left > 110:
                break
            body += mpmath.quad(lambda v, cubic=cubic, left=left:
                                mpmath.polyval(cubic, v - left)
                                * mpmath.exp(-rate * v * v), knots[i:i + 2])
        tail = mpmath.quad(lambda x: mpmath.exp(-nu * x * x) / (x * x),
                           [knots[-1] / c, mpmath.inf])
        kappa = mpmath.sqrt(nu) + (c * body + tail) / mpmath.sqrt(mpmath.pi)
        return float(kappa / contract.tenor)


class TestFixedNodeRule:
    @pytest.mark.parametrize("case", ["small_s", "mid_s", "large_s",
                                      "high_zeta", "nu_zero"])
    def test_matches_mpmath_integral_of_the_interpolant(self, case):
        (alpha, tau, sigma, nu), grid, _ = TestGolden.KAPPAS[case]
        state, params = TestGolden._inputs(alpha, tau, sigma, nu)
        solution = solve_psi(alpha, tau, grid)
        kappa = pde_engine.kappa_from_solution(solution, state, params, CONTRACT)
        reference = _mpmath_kappa(solution, state, params, CONTRACT)
        assert abs(kappa - reference) <= 1e-13 * reference

    def test_one_quad_call_with_one_vectorized_integrand_call(self, monkeypatch):
        # wrap the module attribute by name, as tracing tools do
        quads, evals = [], []
        original = pde_engine.quad

        def counting_quad(func, *args, **kwargs):
            def counted(x, *extra):
                evals.append(type(x))
                return func(x, *extra)
            quads.append(args)
            return original(counted, *args, **kwargs)

        monkeypatch.setattr(pde_engine, "quad", counting_quad)
        kappa = kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=0.03),
                                 SabrParams(alpha=0.4), CONTRACT)
        assert kappa > 0
        assert len(quads) == 1
        assert evals == [np.ndarray]

    @pytest.mark.parametrize("nu, overflows", [(1e-300, False), (5e-324, True)])
    def test_vanishing_nu_prices_as_nu_zero(self, nu, overflows):
        params = SabrParams(alpha=0.4)
        y_of_x = math.sqrt(2.0) * 0.25 / 0.4
        assert (y_of_x * y_of_x / (4.0 * nu) == math.inf) is overflows   # zeta
        at_zero = kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=0.0),
                                   params, CONTRACT)
        kappa = kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=nu),
                                 params, CONTRACT)
        assert math.isfinite(kappa)
        assert kappa == pytest.approx(at_zero, rel=1e-12, abs=0.0)

    def test_nu_zero_kappa_is_linear_in_sigma(self):
        # at nu = 0, kappa = sigma * G(s) / T; at sigma = 1e-200 the whole
        # mass of the integrand sits at x of order 1e200
        params = SabrParams(alpha=0.4)
        kappas = [kappa_quadrature(MarketState(t=0.5, sigma=sigma, nu=0.0),
                                   params, CONTRACT) for sigma in (0.25, 1e-200)]
        assert kappas[1] == pytest.approx(4e-200 * kappas[0], rel=1e-12,
                                          abs=0.0)

    def test_zeta_below_float_range_leaves_the_accrued_part(self):
        # sigma^2 underflows, so zeta is 0 in floats: nothing is left to accrue
        kappa = kappa_quadrature(MarketState(t=0.5, sigma=1e-200, nu=0.03),
                                 SabrParams(alpha=0.4), CONTRACT)
        assert kappa == pytest.approx(math.sqrt(0.03), rel=1e-12, abs=0.0)
