"""The psi solver, exact in s on the poles of a rational approximation of
e^z, and the kappa quadrature."""

import hashlib
import math
import random
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded as scipy_solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from volswap import pde_engine
from volswap.exceptions import AccuracyError, DomainError, InstabilityError
from volswap.mc_engine import McConfig, kappa_mc
from volswap.model import (MarketState, SabrParams, SwapContract,
                           reduced_variables)
from volswap.pde_engine import (GridSpec, default_y_max, grid_refinement_report,
                                kappa_quadrature, solve_psi)
from volswap.series_pricer import kappa_series
from volswap.verify import psi_series_optimal

CONTRACT = SwapContract(t0=0.0, tenor=1.0)


def gttrs_march(s, grid, n_t):
    """psi at s by a Crank-Nicolson march of n_t steps on psi itself: the
    explicit half (I - (ds/2) A) psi, then a ``gttrs`` solve with the LU
    factors of the unsymmetric I + (ds/2) A, after two Rannacher steps
    (each two implicit-Euler half-steps) and with no checks.  Its time
    error is O(ds^2); :func:`solve_psi` has none."""
    n = grid.n_y
    y = np.linspace(0.0, grid.y_max_at(s), n + 1)
    psi = np.ones(n + 1)
    psi[-1] = 0.0
    ds = s / n_t
    half_ds = 0.5 * ds
    c = 0.5 * y * y
    lam = c / (y[1] * y[1])
    lam_in, c_in = lam[1:n], c[1:n]
    *factors, _ = dgttrf(-half_ds * lam[2:n], 1.0 + half_ds * (2.0 * lam_in + c_in),
                         -half_ds * lam[1:n - 1])
    inner = psi[1:n]
    for k in range(n_t):
        if k < 2:
            for _ in range(2):
                psi[1] += half_ds * lam[1]
                dgttrs(*factors, inner, overwrite_b=1)
        else:
            inner += half_ds * (lam_in * (psi[:-2] - 2.0 * inner + psi[2:])
                                - c_in * inner)
            psi[1] += half_ds * lam[1]
            dgttrs(*factors, inner, overwrite_b=1)
    return psi


def dense_psi(s, grid):
    """psi at s from a dense ``eigh`` of the module notes' A: u(s) =
    e^(-sA) u_0 + A^-1 (I - e^(-sA)) g with u_0 = 1 / i and g = e_1 / 2."""
    n = grid.n_y
    y = np.linspace(0.0, grid.y_max_at(s), n + 1)
    i = np.arange(1.0, n)
    off = -0.5 * i[:-1] * i[1:]
    lam, vec = np.linalg.eigh(np.diag(i * i + 0.5 * y[1:n] ** 2)
                              + np.diag(off, 1) + np.diag(off, -1))
    u = vec @ (np.exp(-s * lam) * (vec.T @ (1.0 / i))
               - np.expm1(-s * lam) / lam * (0.5 * vec[0]))
    return np.concatenate(([1.0], i * u, [0.0]))


class TestGridSpec:
    def test_minimum_sizes(self):
        with pytest.raises(DomainError, match="n_y >= 16"):
            GridSpec(n_y=8)

    def test_node_cap_admits_the_reference_grid(self):
        # make_reference.py solves on 3200 nodes, the finest grid in use;
        # the cap is that grid with its cells halved five more times
        assert GridSpec(n_y=3200).check_size(refinements=5) is None
        GridSpec(n_y=400).check_size(refinements=8)
        for n_y in (3200 * 32 + 1, 10 ** 9):
            with pytest.raises(DomainError, match="MAX_GRID_NODES"):
                GridSpec(n_y=n_y)
        with pytest.raises(DomainError, match="grid of 400 nodes refined 9 times"):
            GridSpec().check_size(refinements=9)

    @pytest.mark.parametrize("y_max", [0.0, -1.0, math.inf, math.nan])
    def test_y_max_must_be_positive_and_finite(self, y_max):
        with pytest.raises(DomainError, match="positive and finite"):
            GridSpec(y_max=y_max)


class TestSolvePsi:
    def test_s_zero_is_a_domain_error(self):
        # psi = 1 at s = 0, at maturity or where alpha^2 tau underflows;
        # kappa_quadrature prices it in closed form.  tau < 0 has no psi
        for alpha, tau in ((0.5, 0.0), (1e-200, 0.5), (0.5, -0.1)):
            with pytest.raises(DomainError, match="needs s > 0"):
                solve_psi(alpha, tau, GridSpec(n_y=32, y_max=5.0))

    def test_degenerate_boundary_stays_one(self):
        sol = solve_psi(0.5, 0.5, GridSpec(n_y=256))
        assert sol.final[0] == 1.0

    def test_maximum_principle(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256))
        assert sol.final.min() >= -1e-6
        assert sol.final.max() <= 1.0 + 1e-6

    def test_monotone_in_y(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256))
        final = sol.final
        assert np.all(np.diff(final) <= 1e-9)

    def test_matches_bessel_mode_series(self):
        # alpha = 0.5, tau = 0.5, y = 1 against the optimally truncated series
        alpha, tau, y_point = 0.5, 0.5, 1.0
        sol = solve_psi(alpha, tau, GridSpec(n_y=800))
        value = float(np.interp(y_point, sol.y, sol.final))
        series_value, estimate = psi_series_optimal(alpha * alpha * tau, y_point)
        assert abs(value - series_value) <= max(1e-4, estimate)

    def test_coarse_grid_is_refused(self):
        # Crank-Nicolson's instability refused this grid; the exact psi is
        # stable, and its first node reads the unresolved decay
        with pytest.raises(AccuracyError) as info:
            solve_psi(0.4, 0.5, GridSpec(n_y=100))
        assert str(info.value) == (
            "psi falls to 9.839e-01 at the first node y = 0.625: the grid does "
            "not resolve its decay; shrink y_max (used 62.5)")

    @pytest.mark.parametrize("j", [0, 3, 6])
    def test_range_check_sees_every_contour_solve(self, j, monkeypatch):
        # solve j is moved so that psi at node k gains 2 from it alone
        grid, k = GridSpec(y_max=32.0, n_y=128), 60
        solve_psi(0.4, 0.5, grid)           # the grid itself passes
        solves, solve = [], pde_engine.solve_banded

        def spy(off, diag, rhs):
            solve(off, diag, rhs)
            if len(solves) == j:
                rhs[k - 1] += 1.0 / (pde_engine.CF_WEIGHTS[j] * k)
            solves.append(None)

        monkeypatch.setattr(pde_engine, "solve_banded", spy)
        with pytest.raises(InstabilityError) as info:
            solve_psi(0.4, 0.5, grid)
        assert len(solves) == len(pde_engine.CF_POLES) == 7
        assert re.fullmatch(r"psi left \[0,1\] by more than 1e-06 \(range \[\S+, "
                            r"2\.\d{3}e\+00\]\): the contour sum lost its accuracy",
                            str(info.value))

    def test_small_domain_raises_accuracy(self):
        with pytest.raises(AccuracyError):
            solve_psi(0.2, 0.5, GridSpec(n_y=128, y_max=3.0))

    @pytest.mark.parametrize("y_max", [1e6, 1e10])
    def test_grid_that_skips_the_decay_raises_accuracy(self, y_max):
        # psi(h) ~ 1e-7 or less: these grids priced the seed point at
        # 0.26696 and 0.26712 against 0.24914, with no other check failing
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with pytest.raises(AccuracyError, match="does not resolve its decay"):
            kappa_quadrature(state, SabrParams(alpha=0.4), CONTRACT,
                             GridSpec(y_max=y_max))

    @pytest.mark.parametrize("s", [5e-4, 0.08, 0.66])
    def test_default_grid_resolves_the_decay(self, s):
        # psi(h) ~ e^(-q(0) h^2) = e^(-1.0e-3), far above PSI_FIRST_NODE_MIN
        sol = solve_psi(1.0, s)
        assert -math.log(sol.final[1]) == pytest.approx(1.0e-3, rel=0.02)

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


class TestSymmetricMarch:
    """The symmetric system in u = psi / i, solved exactly in s, against
    independent solutions of the same spatial problem."""

    @pytest.mark.parametrize("n", [400, 800, 1600])
    @pytest.mark.parametrize("s, y_max", [(1e-4, None), (0.08, None),
                                          (0.45, None), (2.0, 20.0)])
    def test_matches_the_march_on_psi(self, n, s, y_max, monkeypatch):
        # a Crank-Nicolson march on psi converges to the exact row at second
        # order in ds: its error quarters as its steps double.  The default
        # y_max at s = 2 leaves psi above BOUNDARY_TOL at the edge, and on 400
        # nodes y_max 20 leaves psi(h) at 0.993: only the row is checked here
        monkeypatch.setattr(pde_engine, "PSI_FIRST_NODE_MIN", 0.0)
        grid = GridSpec(y_max=y_max, n_y=n)
        final = solve_psi(1.0, s, grid).final
        errors = [np.abs(final - gttrs_march(s, grid, n_t)).max() for n_t in (n, 2 * n)]
        assert errors[0] <= 2e-6 * (400 / n) ** 2
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.01)

    def test_one_step_is_a_dense_solve_of_the_unsymmetric_system(self, monkeypatch):
        # pole solve j is (w_j I + s A) x = b; with A = D^-1 B D, D = diag(i),
        # it is (w_j I + s B)(i x) = i b in psi's own unsymmetric B, and the
        # row is i times r_inf u_0 + 2 Re sum_j c_j x_j, summed in pole order
        monkeypatch.setattr(pde_engine, "PSI_FIRST_NODE_MIN", 0.0)
        solves = []
        solve = pde_engine.solve_banded

        def spy(off, diag, rhs):
            before = rhs.copy()
            solve(off, diag, rhs)
            solves.append((before, rhs.copy()))

        monkeypatch.setattr(pde_engine, "solve_banded", spy)
        s, grid = 0.1, GridSpec(y_max=30.0, n_y=32)
        final = solve_psi(1.0, s, grid).final
        n = grid.n_y
        i = np.arange(1.0, n)
        y = np.linspace(0.0, 30.0, n + 1)[1:n]
        b = (np.diag(i * i + 0.5 * y * y) - np.diag(0.5 * i[1:] ** 2, -1)
             - np.diag(0.5 * i[:-1] ** 2, 1))
        for w, (before, after) in zip(pde_engine.CF_POLES, solves, strict=True):
            expected = np.linalg.solve(w * np.eye(n - 1) + s * b, i * before)
            assert np.abs(i * after - expected).max() <= 1e-13 * np.abs(expected).max()
        u = np.zeros(n - 1)
        for c, (_, after) in zip(pde_engine.CF_WEIGHTS, solves):
            u += c.real * after.real - c.imag * after.imag
        u = 2.0 * u + pde_engine.CF_R_INF * (1.0 / i)
        assert final[1:n].tobytes() == (i * u).tobytes()

    @pytest.mark.parametrize("s, y_max", [(2.0 ** -24, None), (5e-4, None),
                                          (0.08, None), (0.8, None), (4.0, 23.3)])
    def test_matches_a_dense_exponential(self, s, y_max, monkeypatch):
        # on 60 nodes no y_max passes both grid checks; only the row is checked
        monkeypatch.setattr(pde_engine, "PSI_FIRST_NODE_MIN", 0.0)
        monkeypatch.setattr(pde_engine, "BOUNDARY_TOL", math.inf)
        grid = GridSpec(y_max=y_max, n_y=60)
        final = solve_psi(1.0, s, grid).final
        assert np.abs(final - dense_psi(s, grid)).max() <= 1e-13


class TestSolveBanded:
    @pytest.mark.parametrize("n", [3, 4, 17, 400, 1600])
    def test_bitwise_equal_to_scipy_banded_solve(self, n):
        # one pole's solve against scipy's, on random systems shaped like
        # w_j I + s A: a complex shift of a diagonally dominant symmetric part
        rng = np.random.default_rng(n)
        for w in pde_engine.CF_POLES[::3]:
            off = -rng.uniform(0.0, 1e3, n - 1)
            diag = w + rng.uniform(0.0, 1.0, n)
            diag[:-1] -= off
            diag[1:] -= off
            rhs = rng.uniform(0.0, 1.0, n) + 0j
            expected = scipy_solve_banded((1, 1), np.array(
                [np.r_[0.0, off], diag, np.r_[off, 0.0]]), rhs)
            pde_engine.solve_banded(off, diag, rhs)
            assert rhs.tobytes() == expected.tobytes()

    def test_refuses_a_strided_vector(self):
        off, diag = np.full(3, -0.1), np.full(4, 1.0 + 1.0j)
        for rhs in (np.ones(8, dtype=complex)[::2], np.ones(4)):
            with pytest.raises(TypeError, match="contiguous complex128"):
                pde_engine.solve_banded(off, diag, rhs)

    def test_zero_pivot_is_instability(self):
        with pytest.raises(InstabilityError, match="zero pivot in row 1"):
            pde_engine.solve_banded(np.zeros(3), np.zeros(4, dtype=complex),
                                    np.ones(4, dtype=complex))


class TestPoleTable:
    """r(x) = r_inf + 2 Re sum_j c_j / (w_j - x), the approximation of e^x
    on (-inf, 0] whose poles the solver shifts A by."""

    def test_poles_lie_in_the_upper_half_plane(self):
        assert len(pde_engine.CF_POLES) == len(pde_engine.CF_WEIGHTS) == 7
        assert np.all(pde_engine.CF_POLES.imag > 0)

    def test_error_in_float(self):
        # 1e5 points, linear to -50, then log-spaced to -1e8.  Seven terms
        # up to ~20 in size round their sum by up to 8e-15, so this scan
        # allows 3e-14; mpmath holds the table itself to 2.5e-14
        x = np.concatenate((np.linspace(0.0, -50.0, 50_001),
                            -np.geomspace(50.0, 1e8, 50_000)[1:]))
        c, w = pde_engine.CF_WEIGHTS[:, None], pde_engine.CF_POLES[:, None]
        r = pde_engine.CF_R_INF + 2.0 * (c / (w - x)).real.sum(axis=0)
        assert np.abs(r - np.exp(x)).max() <= 3e-14

    def test_error_in_mpmath(self):
        poles = [mpmath.mpc(w) for w in pde_engine.CF_POLES.tolist()]
        weights = [mpmath.mpc(c) for c in pde_engine.CF_WEIGHTS.tolist()]
        points = np.concatenate((np.linspace(0.0, -50.0, 100),
                                 -np.geomspace(50.0, 1e8, 101)[1:]))
        with mpmath.workdps(30):
            for x in map(mpmath.mpf, points.tolist()):
                r = pde_engine.CF_R_INF + 2 * mpmath.re(mpmath.fsum(
                    c / (w - x) for c, w in zip(weights, poles)))
                assert abs(r - mpmath.exp(x)) <= 2.5e-14


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

    @pytest.mark.parametrize("alpha", [40.0, 1e200])
    def test_s_out_of_float_range_is_domain_error(self, alpha):
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError):
            kappa_quadrature(state, SabrParams(alpha=alpha), CONTRACT)

    def test_underflowing_s_prices_a_constant_sigma(self):
        # alpha^2 tau underflows to s = 0 at tau = 0.5: sigma never moves,
        # so kappa = sqrt(nu + sigma^2 tau)/T, where that is finite
        params = SabrParams(alpha=1e-200)
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        assert kappa_quadrature(state, params, CONTRACT) == math.sqrt(0.06125)
        with pytest.raises(DomainError, match="is not finite"):
            kappa_quadrature(MarketState(t=0.5, sigma=1e200, nu=0.03), params,
                             CONTRACT)

    def test_at_maturity_no_sigma_enters(self):
        # sigma^2 tau is 0 at tau = 0 even where sigma^2 overflows
        state = MarketState(t=1.0, sigma=1e200, nu=0.03)
        assert kappa_quadrature(state, SabrParams(alpha=1e-200),
                                CONTRACT) == math.sqrt(0.03)

    @pytest.mark.parametrize("engine", [kappa_quadrature, grid_refinement_report])
    def test_before_accrual_start_is_domain_error(self, engine):
        state = MarketState(t=-0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="outside the accrual window"):
            engine(state, SabrParams(alpha=0.4), CONTRACT)

    def test_overflowing_y_of_x_is_domain_error(self):
        # sqrt(2) sigma / alpha = inf would make the tail bound inf * 0 = nan
        state = MarketState(t=0.5, sigma=1e306, nu=0.03)    # s = 5e-7 is solved
        with pytest.raises(DomainError, match="sqrt\\(2\\) sigma / alpha overflows"):
            kappa_quadrature(state, SabrParams(alpha=1e-3), CONTRACT)
        # at s = 5e-21 the closed form takes over, and sigma^2 tau overflows
        state = MarketState(t=0.5, sigma=1e300, nu=0.03)
        with pytest.raises(DomainError, match="not finite"):
            kappa_quadrature(state, SabrParams(alpha=1e-10), CONTRACT)

    @pytest.mark.parametrize("nu", [0.03, 0.0])
    @pytest.mark.parametrize("alpha", [1e-9, 1e-80, 1e-150])
    def test_tiny_s_is_the_closed_form(self, alpha, nu):
        # s = alpha^2 tau < 2^-53: pchip on y_max ~ s^(-1/2) overflowed, and
        # the march priced 2.0e-3 off at alpha 1e-80 with a RuntimeWarning
        state = MarketState(t=0.5, sigma=0.25, nu=nu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kappa = kappa_quadrature(state, SabrParams(alpha=alpha), CONTRACT)
        assert kappa == pytest.approx(math.sqrt(nu + 0.25 ** 2 * 0.5),
                                      rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("nu", [0.03, 0.0])
    @pytest.mark.parametrize("s", [1e-8, 1e-12])
    def test_small_s_lies_in_the_moment_bracket(self, s, nu):
        # with B = nu + int sigma^2, kappa T = E[sqrt(B)] lies between
        # Hoelder's E[B]^(3/2) / E[B^2]^(1/2) and Jensen's sqrt(E[B]); the
        # default-grid march priced here 1.9e-7 (nu 0.03) and 5.9e-7 (nu 0) low
        tau, sigma = 0.5, 0.25
        alpha = math.sqrt(s / tau)
        kappa = kappa_quadrature(MarketState(t=CONTRACT.maturity - tau, sigma=sigma,
                                             nu=nu), SabrParams(alpha=alpha), CONTRACT)
        with mpmath.workdps(50):
            a, v = mpmath.mpf(alpha) ** 2, mpmath.mpf(sigma) ** 2
            mean_v = v * mpmath.expm1(a * tau) / a
            # E[(int sigma^2)^2] = 2 int_0^tau du int_u^tau dv v^2 e^(5 a u + a v)
            square_v = 2 * v * v / a * (mpmath.exp(a * tau) * mpmath.expm1(5 * a * tau)
                                        / (5 * a) - mpmath.expm1(6 * a * tau) / (6 * a))
            mean_b, square_b = nu + mean_v, nu * nu + 2 * nu * mean_v + square_v
            lower = mean_b ** 1.5 / mpmath.sqrt(square_b) / CONTRACT.tenor
            upper = mpmath.sqrt(mean_b) / CONTRACT.tenor
            assert lower <= kappa <= upper

    @pytest.mark.parametrize("nu", [0.03, 0.0])
    @pytest.mark.parametrize("s", [2.0 ** -24, 1e-7, 1e-6])
    def test_small_s_is_the_delta_method(self, s, nu):
        # E[sqrt(B)] = J (1 - Var B / (8 E[B]^2)) + O(s^2) relative, with
        # J = sqrt(E[B]) and Var B = sigma^4 tau^2 (4 s / 3) + O(s^2); the
        # Crank-Nicolson march priced 1.9e-7 to 6.0e-7 under J here
        tau, sigma = 0.5, 0.25
        kappa = kappa_quadrature(
            MarketState(t=CONTRACT.maturity - tau, sigma=sigma, nu=nu),
            SabrParams(alpha=math.sqrt(s / tau)), CONTRACT)
        mean_b = nu + sigma ** 2 * tau * math.expm1(s) / s
        var_b = sigma ** 4 * tau ** 2 * (4.0 * s / 3.0)
        expected = math.sqrt(mean_b) * (1.0 - var_b / (8.0 * mean_b ** 2))
        assert kappa == pytest.approx(expected / CONTRACT.tenor, rel=2e-8, abs=0.0)

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

    @pytest.mark.parametrize("y_max", [1e200, 1e300, math.inf])
    def test_huge_y_max_is_refused_without_a_warning(self, y_max):
        # y^2 overflowed in numpy scalars (or linspace met inf), and a
        # RuntimeWarning reached stderr ahead of the refusal
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                kappa_quadrature(state, SabrParams(alpha=0.4), CONTRACT,
                                 GridSpec(y_max=y_max))

    def test_overflowing_s_y_squared_is_refused_without_a_warning(self):
        # s = 700 and y_max = 1e153: y^2 is finite but s y^2 is not
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="s y\\^2 overflows"):
                kappa_quadrature(state, SabrParams(alpha=math.sqrt(1400.0)), CONTRACT,
                                 GridSpec(y_max=1e153))

    def test_tail_bound_enforced(self, monkeypatch):
        # calibrate QUAD_TOL just under the achievable tail bound
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        grid = GridSpec(y_max=27.0, n_y=400)
        sol = solve_psi(0.4, 0.5, grid)
        tail_bound = math.sqrt(2.0) * 0.25 / 0.4 * sol.boundary_max / sol.y[-1]
        assert tail_bound > 0.0
        monkeypatch.setattr(pde_engine, "QUAD_TOL", 0.5 * tail_bound)
        with pytest.raises(AccuracyError, match="tail bound"):
            kappa_quadrature(state, SabrParams(alpha=0.4), CONTRACT, grid)


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
        grid = GridSpec(n_y=100)
        raised = []
        for _ in range(2):
            with pytest.raises(AccuracyError) as info:
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
                                        GridSpec(n_y=400), refinements=2)
        assert len(report["kappas"]) == 3
        assert all(type(k) is float for k in report["kappas"])
        assert 3.5 <= report["ratios"][0] <= 4.5

    @pytest.mark.parametrize("t", [1.0, 1.25])
    def test_nothing_to_refine_at_or_past_maturity(self, t):
        state = MarketState(t=t, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError):
            grid_refinement_report(state, SabrParams(alpha=0.4), CONTRACT,
                                   refinements=1)

    def test_nothing_to_refine_where_s_underflows(self):
        # s = 0, and s = 5e-19 below S_CLOSED_FORM: both take the closed form
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        for alpha in (1e-200, 1e-9):
            with pytest.raises(DomainError, match="no grid to refine"):
                grid_refinement_report(state, SabrParams(alpha=alpha), CONTRACT,
                                       refinements=1)

    def test_first_level_is_the_default_price(self, monkeypatch):
        # each level solves on the default grid of the memo key's s, and
        # the report's y_max is the one every solve used
        used = []
        solve = pde_engine.kappa_from_solution

        def spy(solution, *args):
            used.append(float(solution.y[-1]))
            return solve(solution, *args)

        monkeypatch.setattr(pde_engine, "kappa_from_solution", spy)
        rng = random.Random(3)
        for _ in range(40):
            alpha, tau = rng.uniform(0.2, 1.0), rng.uniform(0.05, 0.7)
            state = MarketState(t=CONTRACT.maturity - tau, sigma=0.3,
                                nu=rng.uniform(1e-3, 0.1))
            params = SabrParams(alpha=alpha)
            used.clear()
            report = grid_refinement_report(state, params, CONTRACT, refinements=0)
            assert repr(report["kappas"][0]) == repr(
                kappa_quadrature(state, params, CONTRACT))
            assert used == [report["y_max"]] * 2

    def test_default_price_then_refinement_marches_twice(self, marches):
        state, params = MarketState(t=0.5, sigma=0.25, nu=0.03), SabrParams(alpha=0.4)
        kappa_quadrature(state, params, CONTRACT)
        grid_refinement_report(state, params, CONTRACT, refinements=1)
        assert len(marches) == 2

    def test_refinement_past_the_grid_cap_marches_nothing(self, monkeypatch):
        # level k solves on 400 * 2^k nodes: 40 levels would not end
        def march(*args):
            raise AssertionError("a grid past MAX_GRID_NODES was marched")

        monkeypatch.setattr(pde_engine, "solve_psi", march)
        pde_engine.psi_memo.cache_clear()
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        for refinements in (9, 40, 10 ** 9):
            with pytest.raises(DomainError, match="MAX_GRID_NODES"):
                grid_refinement_report(state, SabrParams(alpha=0.4), CONTRACT,
                                       refinements=refinements)

    def test_s_beyond_float_range_is_domain_error(self):
        # s = 800: the default y_max needs e^s - 1
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="not finite"):
            grid_refinement_report(state, SabrParams(alpha=40.0), CONTRACT,
                                   refinements=1)


class TestGolden:
    """PDE results frozen by repr: kappas, a refinement report, psi bytes."""

    KAPPAS = {
        "small_s": ((0.1, 0.05, 0.25, 0.03), GridSpec(), "0.18200475527420548"),
        "mid_s": ((0.4, 0.5, 0.25, 0.03), GridSpec(), "0.24914149873562502"),
        "large_s": ((0.8, 1.0, 0.3, 0.02), GridSpec(), "0.35031302115958673"),
        "high_zeta": ((0.5, 0.8, 0.6, 0.005), GridSpec(), "0.5503310735525245"),
        "nu_zero": ((0.4, 0.5, 0.25, 0.0), GridSpec(), "0.17794818835830753"),
        "explicit_grid": ((0.4, 0.5, 0.25, 0.03),
                          GridSpec(y_max=32.0, n_y=256),
                          "0.24914160648777017"),
        # s = 5e-4, zeta = 0.499: six sub-cells per cell of width h = 2.02
        "sub_cells": ((0.1, 0.05, 0.0173, 0.03), GridSpec(), "0.17324828426136785"),
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

    def test_kappa_digest(self, marches):
        # 12 s from 5e-4 to 0.7 by 6 zeta from 0.02 to 40, plus nu = 0: both
        # whole cells (zeta >= 4 h^2, and nu = 0) and sub-cells
        digest = hashlib.sha256()
        for k in range(12):
            s = 5e-4 * 1400.0 ** (k / 11)
            for zeta in (0.02, 0.1, 0.5, 2.0, 10.0, 40.0, None):
                nu = 0.04 if zeta else 0.0
                sigma = math.sqrt(2.0 * zeta * nu) if zeta else 0.3
                state = MarketState(t=CONTRACT.maturity - s, sigma=sigma, nu=nu)
                kappa = kappa_quadrature(state, SabrParams(alpha=1.0), CONTRACT)
                digest.update(repr(kappa).encode())
        assert digest.hexdigest() == (
            "0ec236a047136dd1a20761a8109156cd625693ca7c67b37a7ba1a339457c6860")

    def test_default_grid_refusal_at_s_0_8(self, marches):
        state, params = MarketState(t=0.2, sigma=0.3, nu=0.02), SabrParams(alpha=1.0)
        with pytest.raises(AccuracyError) as info:
            kappa_quadrature(state, params, CONTRACT)
        assert type(info.value) is AccuracyError
        assert str(info.value) == ("psi at the far edge reaches 2.346e-08 > "
                                   "boundary_tol 1.0e-08; enlarge y_max (used 16.3)")

    def test_refinement_report(self, marches):
        # the 400-node level is the mid_s default-grid golden
        report = grid_refinement_report(*self._inputs(0.4, 0.5, 0.25, 0.03),
                                        CONTRACT, GridSpec(n_y=200))
        assert repr(report) == (
            "{'kappas': [0.24914061585050618, 0.24914149873562502, "
            "0.24914172523670047], 'grids': [200, 400, 800], "
            "'ratios': [3.897929036712464], 'y_max': 62.467322942411855}")

    FINAL_ROWS = {
        (1e-4, None, 400): "e6e3e19c8c1e6a1fdda1a9d820a0d8d48ffe9073c738d60514a6cc6b3408918a",
        (1e-4, None, 800): "d3fe9c9b541640924f81a9d100acafc65eb97c85a20dfe53edcd32c766b45c2c",
        (1e-4, None, 1600): "55758353506622791b8521f6db1716f2eca7a672a783fe56ce756f22cea3b2b5",
        (0.45, None, 400): "0aadc80c688f4897e78c2cdfcc23beb9f2f11361a631226d00ffa53b9dc40057",
        (0.45, None, 800): "75853ac1506d2a1ae531d21302bb855367c3b5c895c7cca43bfa7de89400b789",
        (0.45, None, 1600): "ac0d91c3f65d302fae306bfd255dd97ed6b39d1f6641ae2c8bf0318d2db63296",
        (2.0, 20.0, 400): "6ec4bbe1b03d9ce47a35c794d9188838cffaed7e4d65e18347974780b952b00d",
        (2.0, 20.0, 800): "9b6fe0e2d50a9b5813becb88e7a0f5e22108d6f30033eba6357365193780039a",
        (2.0, 20.0, 1600): "e957d80689064485f86e81bd82ce2d21c29a69435d88c3d4f7320f32c257120e",
    }

    @pytest.mark.parametrize("case", FINAL_ROWS, ids=lambda c: f"s{c[0]}-n{c[2]}")
    def test_final_row_digest(self, case, monkeypatch):
        # the row at s by repr; s = 2 on 400 nodes leaves psi(h) at 0.993,
        # below PSI_FIRST_NODE_MIN, and only the row is frozen here
        monkeypatch.setattr(pde_engine, "PSI_FIRST_NODE_MIN", 0.0)
        s, y_max, n = case
        final = solve_psi(1.0, s, GridSpec(y_max=y_max, n_y=n)).final
        text = " ".join(map(repr, final.tolist()))
        assert hashlib.sha256(text.encode()).hexdigest() == self.FINAL_ROWS[case]

    def test_psi_bytes(self):
        sol = solve_psi(0.5, 0.6, GridSpec(n_y=300))
        assert hashlib.sha256(sol.final.tobytes()).hexdigest() == (
            "a11fdfd326eee623fda100a2015aff2c1890781491d5fd696f10e1228e2dfaa2")
        assert hashlib.sha256(sol.q_coeffs.tobytes()).hexdigest() == (
            "dd886c9f952da9ea19c2e3b526b2000243631e26da30cf7709af718d2b9d5d72")
        assert repr(sol.boundary_max) == "-1.4446694303573017e-15"


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
    def test_written_rule_is_numpys_gauss_legendre(self):
        # the only place that imports numpy.polynomial
        nodes, weights = np.polynomial.legendre.leggauss(6)
        assert np.array_equal(pde_engine.GL_NODES, nodes)
        assert np.array_equal(pde_engine.GL_WEIGHTS, weights)

    @pytest.mark.parametrize("case", ["small_s", "mid_s", "large_s",
                                      "high_zeta", "nu_zero", "sub_cells"])
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

    @pytest.mark.parametrize("nu", [0.0, 5e-324])
    def test_infinite_zeta_reads_the_march_integral(self, monkeypatch, nu):
        # zeta = inf at nu = 0 and where sigma^2 / (2 alpha^2 nu) overflows
        quads = []
        monkeypatch.setattr(pde_engine, "quad", lambda *args: quads.append(args))
        kappa = kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=nu),
                                 SabrParams(alpha=0.4), CONTRACT)
        assert quads == []
        assert kappa == pytest.approx(0.17794818835828993, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", TestGolden.KAPPAS)
    def test_g_integral_is_the_quadrature_at_infinite_zeta(self, case):
        # the weight e^(v^2 / (-4 zeta)) is exp(-0.0) = 1 at zeta = inf
        (alpha, tau, _, _), grid, _ = TestGolden.KAPPAS[case]
        sol = solve_psi(alpha, tau, grid)
        integral = pde_engine.quad(lambda v2: sol.gl_q * np.exp(v2 / -math.inf),
                                   sol.gl_squares, sol.gl_weights)
        assert repr(sol.g_integral) == repr(integral)
        assert type(sol.g_integral) is float

    def test_tables_are_read_only(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256))
        assert sol.gl_squares.shape == sol.gl_weights.shape == (256, 6)
        assert np.array_equal(sol.gl_weights[-1], 0.5 * sol.h * pde_engine.GL_WEIGHTS)
        for table in (sol.gl_squares, sol.gl_weights, sol.gl_q):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    @pytest.mark.parametrize("nu, overflows", [(1e-300, False), (5e-324, True)])
    def test_vanishing_nu_prices_as_nu_zero(self, nu, overflows):
        params = SabrParams(alpha=0.4)
        state = MarketState(t=0.5, sigma=0.25, nu=nu)
        assert (reduced_variables(state, params, CONTRACT)[2] == math.inf) is overflows
        at_zero = kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=0.0),
                                   params, CONTRACT)
        kappa = kappa_quadrature(state, params, CONTRACT)
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
