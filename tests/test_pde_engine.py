"""The psi solver, exact in s on the poles of a rational approximation of
e^z, and the kappa quadrature."""

import hashlib
import json
import math
import random
import re
import sys
import threading
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh as scipy_eigh
from scipy.linalg import solve_banded as scipy_solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from volswap import pde_engine
from volswap.exceptions import AccuracyError, DomainError, InstabilityError
from volswap.mc_engine import McConfig, kappa_mc
from volswap.model import (MarketState, SabrParams, SwapContract,
                           reduced_variables)
from volswap.pde_engine import (GridSpec, grid_refinement_report, kappa_quadrature,
                                solve_psi)
from volswap.series_pricer import kappa_series
from volswap.verify import psi_series_optimal

CONTRACT = SwapContract(t0=0.0, tenor=1.0)


def numerov_system(s, grid):
    """M, K and b of the module notes on the interior nodes of the grid at
    s, built densely on all n + 1 nodes and then cut to the interior:
    M = tridiag(1, 10, 1) / 12 and K = -D_2 / 2 + M diag(V), V = c + y^2 / 2
    with c = (2 sinh^2(h/4) / h^2) / (1 + sinh^2(h/4) / 3), and b = M g, g =
    y^(3/2) / 2.  The Robin relation chi_0 = e^(-3h/2) chi_1 folds node 0's
    column into the first row of M and K, and the Dirichlet value chi_n =
    e^(-x_max/2) moves -K chi_n into b.  Also the interior nodes x."""
    x_min, x_max = pde_engine.x_bounds(s)
    n = grid.n_y
    h = (x_max - x_min) / n
    x = np.linspace(x_min, x_max, n + 1)
    quarter = math.sinh(0.25 * h) ** 2
    potential = 2.0 * quarter / (h * h) / (1.0 + quarter / 3.0) + 0.5 * np.exp(2.0 * x)
    m_full = (np.diag(np.full(n + 1, 10.0)) + np.diag(np.ones(n), 1)
              + np.diag(np.ones(n), -1)) / 12.0
    d2 = (np.diag(np.full(n + 1, -2.0)) + np.diag(np.ones(n), 1)
          + np.diag(np.ones(n), -1)) / (h * h)
    k_full = -0.5 * d2 + m_full * potential          # M diag(V)
    inner = slice(1, n)
    m, k = m_full[inner, inner].copy(), k_full[inner, inner].copy()
    m[:, 0] += math.exp(-1.5 * h) * m_full[inner, 0]
    k[:, 0] += math.exp(-1.5 * h) * k_full[inner, 0]
    b = (m_full @ (0.5 * np.exp(1.5 * x)))[inner] - k_full[inner, n] * math.exp(-0.5 * x_max)
    return m, k, b, x[inner]


def with_ends(chi, x, h):
    """v = e^(x/2) chi on the interior nodes x, with the Robin node v_0 =
    e^(-2h) v_1 and the Dirichlet node v_n = 1 added."""
    v = np.exp(0.5 * x) * chi
    return np.concatenate(([math.exp(-2.0 * h) * v[0]], v, [1.0]))


def gttrs_march(s, grid, n_t):
    """v = 1 - psi at s by a Crank-Nicolson march of n_t steps on M chi' =
    -K chi + b from :func:`numerov_system`: the explicit half (M - (ds/2) K)
    chi + ds b, then a ``gttrs`` solve with the LU factors of M + (ds/2) K,
    after two Rannacher steps (each two implicit-Euler half-steps) and with
    no checks.  Its time error is O(ds^2); :func:`solve_psi` has none."""
    m, k, b, x = numerov_system(s, grid)
    ds = s / n_t
    half_ds = 0.5 * ds
    implicit = m + half_ds * k
    *factors, _ = dgttrf(np.diag(implicit, -1).copy(), np.diag(implicit).copy(),
                         np.diag(implicit, 1).copy())

    def times(a, chi):
        """The tridiagonal a times chi."""
        out = np.diag(a) * chi
        out[1:] += np.diag(a, -1) * chi[:-1]
        out[:-1] += np.diag(a, 1) * chi[1:]
        return out

    explicit = m - half_ds * k
    chi = np.zeros(len(b))
    for step in range(n_t):
        if step < 2:
            for _ in range(2):
                chi = times(m, chi) + half_ds * b
                dgttrs(*factors, chi, overwrite_b=1)
        else:
            chi = times(explicit, chi) + ds * b
            dgttrs(*factors, chi, overwrite_b=1)
    return with_ends(chi, x, x[1] - x[0])


def nodes(solution):
    """The x = ln y nodes of a solve: ``n_y`` cells on :func:`x_bounds` (s)."""
    return np.linspace(*pde_engine.x_bounds(solution.s), len(solution.v))


def dense_v(s, grid):
    """v = 1 - psi at s from a dense eigendecomposition of the module notes'
    symmetric A = M^-1 K: chi(s) = A^-1 (I - e^(-sA)) M^-1 b.  A is graded,
    its diagonal V from 0.13 to 6e5; LAPACK's ``dsyev`` on its upper
    triangle agrees with mpmath's ``eigsy`` at 24 digits within 2.4e-15 at
    s = 0.8, where on the lower triangle it errs by 1.7e-13."""
    m, k, b, x = numerov_system(s, grid)
    a = np.linalg.solve(m, k)
    lam, vec = scipy_eigh(0.5 * (a + a.T), driver="ev", lower=False)
    chi = vec @ (-np.expm1(-s * lam) / lam * (vec.T @ np.linalg.solve(m, b)))
    return with_ends(chi, x, x[1] - x[0])


class TestGridSpec:
    def test_minimum_sizes(self):
        with pytest.raises(DomainError, match="floor of 64 cells n_y"):
            GridSpec(n_y=8)

    def test_floor_is_the_fewest_cells_the_scheme_holds_on(self):
        # 63 cells are refused before any solve.  On 64 every check of the
        # solve passes at 2000 s from 2^-24 to 8, and v overshoots 1 by at
        # most 5.8e-7, below MAX_PRINCIPLE_EPS (module notes)
        with pytest.raises(DomainError, match="a grid of 63 cells is below the "
                           "fourth-order scheme's floor of 64 cells n_y"):
            GridSpec(n_y=63)
        grid = GridSpec(n_y=64)
        s_values = np.geomspace(pde_engine.S_CLOSED_FORM, pde_engine.S_PDE_MAX, 2000)
        highest = max(solve_psi(1.0, float(s), grid).v.max() for s in s_values)
        assert highest - 1.0 <= 6e-7

    def test_node_cap_admits_the_reference_grid(self):
        # the finest grid the tests solve has 6400 cells, for the module
        # notes' Richardson values; the cap is 3200 cells halved five more
        # times, that grid halved four more
        assert GridSpec(n_y=3200 * 2 ** 5).n_y == pde_engine.MAX_GRID_NODES
        for n_y in (3200 * 2 ** 5 + 1, 10 ** 9):
            with pytest.raises(DomainError, match=f"grid of {n_y} nodes has more "
                               "than MAX_GRID_NODES"):
                GridSpec(n_y=n_y)


class TestSolvePsi:
    def test_s_zero_is_a_domain_error(self):
        # psi = 1 at s = 0, at maturity or where alpha^2 tau underflows;
        # kappa_quadrature prices it in closed form.  tau < 0 has no psi
        for alpha, tau in ((0.5, 0.0), (1e-200, 0.5), (0.5, -0.1)):
            with pytest.raises(DomainError, match="needs s >= 2\\^-24"):
                solve_psi(alpha, tau, GridSpec(n_y=64))

    def test_degenerate_boundary_stays_one(self):
        # psi -> 1 as y -> 0: at x_min the Robin row keeps v = 1 - psi
        # proportional to y^2, at its limit q(0) = (e^s - 1) / 2
        sol = solve_psi(0.5, 0.5, GridSpec(n_y=256))
        assert sol.v[0] == math.exp(-2.0 * sol.h) * sol.v[1]
        assert sol.q_min == pytest.approx(0.5 * math.expm1(0.125), rel=1e-3)

    def test_maximum_principle(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256))
        assert sol.v.min() >= -1e-6
        assert sol.v.max() <= 1.0 + 1e-6

    def test_monotone_in_y(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256))
        assert np.all(np.diff(sol.v) >= -1e-9)

    def test_matches_bessel_mode_series(self):
        # alpha = 0.5, tau = 0.5, y = 1 against the optimally truncated series
        alpha, tau, y_point = 0.5, 0.5, 1.0
        sol = solve_psi(alpha, tau, GridSpec(n_y=800))
        value = 1.0 - float(np.interp(math.log(y_point), nodes(sol), sol.v))
        series_value, estimate = psi_series_optimal(alpha * alpha * tau, y_point)
        assert abs(value - series_value) <= max(1e-4, estimate)

    @pytest.mark.parametrize("j", [0, 3, 6])
    def test_range_check_sees_every_contour_solve(self, j, monkeypatch):
        # the one stacked solve's block j is moved so that v at node k
        # gains 2 from it alone
        grid, k = GridSpec(n_y=128), 60
        sol = solve_psi(0.4, 0.5, grid)     # the grid itself passes
        root_y = math.exp(0.5 * nodes(sol)[k])
        solves, solve = [], pde_engine.solve_banded

        def spy(lower, diag, upper, rhs):
            solve(lower, diag, upper, rhs)
            rhs.reshape(7, grid.n_y - 1)[j, k - 1] += 1.0 / (
                pde_engine.CF_WEIGHTS[j] * root_y)
            solves.append(None)

        monkeypatch.setattr(pde_engine, "solve_banded", spy)
        with pytest.raises(InstabilityError) as info:
            solve_psi(0.4, 0.5, grid)
        assert len(solves) == 1
        assert re.fullmatch(r"1 - psi left \[0,1\] by more than 1e-06 \(range "
                            r"\[\S+, 2\.\d{3}e\+00\]\): the contour sum lost its "
                            r"accuracy", str(info.value))

    @pytest.mark.parametrize("s", [1e-5, 0.08, 2.0])
    def test_one_stacked_solve_with_uncoupled_blocks(self, s, monkeypatch):
        # the seven shifted systems w_j M + s K go to LAPACK as one
        # block-diagonal system, 0 off the diagonal at the six joins, with
        # right-hand sides s b / w_j
        calls, solve = [], pde_engine.solve_banded

        def spy(lower, diag, upper, rhs):
            calls.append((lower.copy(), diag.copy(), upper.copy(), rhs.copy()))
            solve(lower, diag, upper, rhs)

        monkeypatch.setattr(pde_engine, "solve_banded", spy)
        grid = GridSpec(n_y=64)
        solve_psi(1.0, s, grid)
        assert len(calls) == 1
        m = grid.n_y - 1
        lower, diag, upper, rhs = calls[0]
        assert lower.shape == upper.shape == (7 * m - 1,)
        joins = np.arange(m - 1, 7 * m - 1, m)
        assert len(joins) == 6
        assert np.all(lower[joins] == 0.0) and np.all(upper[joins] == 0.0)
        mass, stiffness, b, _ = numerov_system(s, grid)
        poles = pde_engine.CF_POLES[:, None]
        for found, k in ((lower, -1), (diag, 0), (upper, 1)):
            expected = poles * np.diag(mass, k) + s * np.diag(stiffness, k)
            if k:
                found = np.append(found, 0.0).reshape(7, m)[:, :-1]
            assert np.allclose(found.reshape(7, -1), expected, rtol=1e-13, atol=0.0)
        assert np.allclose(rhs.reshape(7, m), s * b / poles, rtol=1e-13, atol=0.0)

    def test_small_domain_raises_accuracy(self, monkeypatch):
        # the far-edge check: an x range that ends at y = e^2, where psi is
        # still 1e-3, is refused
        monkeypatch.setattr(pde_engine, "x_bounds", lambda s: (-10.0, 2.0))
        with pytest.raises(AccuracyError, match="psi at the far edge reaches"):
            solve_psi(0.2, 0.5, GridSpec(n_y=128))

    @pytest.mark.parametrize("s", [5e-4, 0.08, 0.66])
    def test_default_grid_resolves_the_decay(self, s):
        # the grid spans all of psi's decay: at x_min, v is q(0) y^2 within
        # the grid's error (1.4e-4 at s = 0.66), and at the far edge psi is
        # below BOUNDARY_TOL.  It may be below 0 by the scheme's overshoot
        # (module notes), -2e-15 at s = 5e-4
        sol = solve_psi(1.0, s)
        assert sol.q_min == pytest.approx(0.5 * math.expm1(s), rel=5e-4)
        assert -1e-8 <= sol.boundary_max <= pde_engine.BOUNDARY_TOL

    def test_coarse_grid_is_refused(self):
        # a solve fails its checks on 16 cells at s = 2^-24, where psi at the
        # far edge is 4.6e-2, and on 48, 56 and 60 cells at 720, 109 and 13
        # of 2000 s from 2^-24 to 8: GridSpec refuses each before any solve
        for n_y in (16, 48, 56, 60):
            with pytest.raises(DomainError, match=f"a grid of {n_y} cells is below"):
                GridSpec(n_y=n_y)

    def test_default_y_max_reasonable(self):
        # y_max = e^(x_max) puts s y^2 / 2 at 40 at small s and stays at
        # e^7 from s = 80 e^-14 on; x_min falls with s
        assert pde_engine.x_bounds(1e-6) == (-10.0, 0.5 * math.log(8e7))
        assert pde_engine.x_bounds(1e-3) == (-10.0, 7.0)
        assert pde_engine.x_bounds(8.0) == (-20.0, 7.0)

    @pytest.mark.parametrize("tau", [0.0, -0.25])
    def test_no_default_domain_at_or_past_maturity(self, tau):
        with pytest.raises(DomainError, match="needs s >= 2\\^-24"):
            solve_psi(0.4, tau)

    def test_maturity_without_y_max_is_domain_error(self):
        with pytest.raises(DomainError):
            solve_psi(0.4, 0.0)

    @pytest.mark.parametrize("alpha, tau", [(1e200, 1.0), (math.inf, 1.0),
                                            (1.0, math.inf), (math.nan, 1.0),
                                            (1.0, 1000.0)])
    def test_s_not_finite_is_domain_error(self, alpha, tau):
        # at s = 1000, e^s - 1 overflows
        with pytest.raises(DomainError, match="not finite"):
            solve_psi(alpha, tau)

    def test_past_s_pde_max_is_refused(self):
        # at s = 200 the default grid priced F(200, 1) at -552
        with pytest.raises(AccuracyError) as info:
            solve_psi(20.0, 0.5)
        assert str(info.value) == ("s = alpha^2 tau = 200 is past S_PDE_MAX = 8, "
                                   "where the PDE grid is not validated")
        assert solve_psi(1.0, pde_engine.S_PDE_MAX).s == 8.0

    def test_depends_on_alpha_tau_only_through_s(self):
        direct = solve_psi(0.4, 0.5)
        reduced = solve_psi(1.0, 0.4 * 0.4 * 0.5)
        assert direct.s == reduced.s
        assert direct.v.tobytes() == reduced.v.tobytes()
        assert direct.weights.tobytes() == reduced.weights.tobytes()

    @pytest.mark.parametrize("s", [2.0 ** -24, 1e-3, 0.8, 8.0])
    def test_v_lies_in_zero_one_at_every_s(self, s):
        # the true v lies in [0, 1]; the fourth-order scheme overshoots 1 at
        # the far edge by at most 3.7e-9 on the default grid (module notes)
        v = solve_psi(1.0, s).v
        assert v.min() > 0.0
        assert v.max() <= 1.0 + 1e-8

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_overshoot_stays_far_below_the_range_check(self, n):
        # 400 s from 2^-24 to 8: max v - 1 reads 3.7e-9 at 100 cells and
        # 1e-14 at 200 and 400, 270 times and more below MAX_PRINCIPLE_EPS
        grid = GridSpec(n_y=n)
        for s in np.geomspace(pde_engine.S_CLOSED_FORM, pde_engine.S_PDE_MAX, 400):
            v = solve_psi(1.0, float(s), grid).v
            assert -1e-8 <= v.min() and v.max() <= 1.0 + 1e-8

    def test_coarse_grid_overshoot_is_refused(self):
        # 32 cells overshoot v = 1 by 5.4e-5 at s = 0.048, past
        # MAX_PRINCIPLE_EPS: GridSpec refuses them, and 64 cells, its floor,
        # overshoot by 1.6e-9 there
        with pytest.raises(DomainError, match="floor of 64 cells n_y"):
            GridSpec(n_y=32)
        v = solve_psi(1.0, 0.04816270228114439, GridSpec(n_y=64)).v
        assert v.max() - 1.0 <= 1e-8

    def test_x_min_falls_with_s(self):
        # F(8, 1) = 6.249244 from x_min = -18 to -32 at h = 0.0085; an x grid
        # from x_min = -10 reads 6.2347, 2.3e-3 low, and the rule's -20 on
        # the default grid is within PDE_TOL = 2e-5 (3.0e-6)
        alpha = 4.0
        state = MarketState(t=0.5, sigma=alpha * math.sqrt(2.0), nu=1.0)
        kappa = kappa_quadrature(state, SabrParams(alpha=alpha), CONTRACT)
        assert abs(kappa - 6.249244) <= 2e-5 * 6.249244

    def test_g_increases_with_s(self, marches):
        # kappa T = E[sqrt(int sigma^2)] grows with tau at fixed alpha and
        # sigma, so G(s) does, through the x_min rule's kink at s = 4/3
        s_values = np.geomspace(pde_engine.S_CLOSED_FORM, pde_engine.S_PDE_MAX, 60)
        g = [kappa_quadrature(MarketState(t=CONTRACT.maturity - s / 16.0,
                                          sigma=1.0, nu=0.0),
                              SabrParams(alpha=4.0), CONTRACT)
             for s in s_values]
        assert np.all(np.diff(g) > 0.0)


class TestSymmetricMarch:
    """The module notes' system M chi' = -K chi + b in chi = v e^(-x/2),
    solved exactly in s, against independent solutions of the same spatial
    problem."""

    @pytest.mark.parametrize("n", [400, 800, 1600])
    @pytest.mark.parametrize("s, y_max", [(1e-4, None), (0.08, None),
                                          (0.45, None), (2.0, 20.0)])
    def test_matches_the_march_on_psi(self, n, s, y_max, monkeypatch):
        # a Crank-Nicolson march of the same system converges to the exact row
        # at second order in ds: its error quarters as its steps double.
        # y_max, if set, moves the far edge to e^(x_max) = y_max
        if y_max is not None:
            x_min = pde_engine.x_bounds(s)[0]
            monkeypatch.setattr(pde_engine, "x_bounds",
                                lambda s: (x_min, math.log(y_max)))
        grid = GridSpec(n_y=n)
        v = solve_psi(1.0, s, grid).v
        errors = [np.abs(v - gttrs_march(s, grid, n_t)).max() for n_t in (n, 2 * n)]
        assert errors[0] <= 2e-6 * (400 / n) ** 2
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.01)

    def test_one_step_is_a_dense_solve_of_the_unsymmetric_system(self, monkeypatch):
        # block j of the stacked solve is (w_j M + s K) x = s b / w_j, K not
        # symmetric; v is e^(x/2) times 2 Re sum_j c_j x_j, summed in pole
        # order
        solves = []
        solve = pde_engine.solve_banded
        s, grid = 0.1, GridSpec(n_y=64)
        n = grid.n_y

        def spy(lower, diag, upper, rhs):
            before = rhs.copy()
            solve(lower, diag, upper, rhs)
            solves.extend(zip(before.reshape(7, n - 1), rhs.copy().reshape(7, n - 1)))

        monkeypatch.setattr(pde_engine, "solve_banded", spy)
        sol = solve_psi(1.0, s, grid)
        mass, stiffness, _, _ = numerov_system(s, grid)
        assert np.abs(stiffness - stiffness.T).max() > 1.0
        d = np.sqrt(np.sqrt(sol.squares[1:n]))       # sqrt(y^2) is y exactly
        for w, (before, after) in zip(pde_engine.CF_POLES, solves, strict=True):
            expected = np.linalg.solve(w * mass + s * stiffness, before)
            assert np.abs(after - expected).max() <= 1e-13 * np.abs(expected).max()
        u = np.zeros(n - 1)
        for c, (_, after) in zip(pde_engine.CF_WEIGHTS, solves):
            u += c.real * after.real - c.imag * after.imag
        assert sol.v[1:n].tobytes() == (2.0 * u * d).tobytes()

    @pytest.mark.parametrize("s", [2.0 ** -24, 0.08, 2.0, 8.0])
    def test_m_inverse_k_is_symmetric_positive_definite(self, s):
        # M and D_2 are polynomials in one tridiagonal matrix, the Robin row
        # included, so they commute and M^-1 K = -M^-1 D_2 / 2 + diag(V) is
        # symmetric: the rational approximation's bound holds on its
        # spectrum, which is positive
        mass, stiffness, _, _ = numerov_system(s, GridSpec(n_y=80))
        a = np.linalg.solve(mass, stiffness)
        assert np.abs(a - a.T).max() <= 1e-15 * np.abs(a).max()
        assert np.linalg.eigvalsh(0.5 * (a + a.T)).min() > 0.1

    @pytest.mark.parametrize("s, y_max", [(2.0 ** -24, None), (5e-4, None),
                                          (0.08, None), (0.8, None), (4.0, 23.3)])
    def test_matches_a_dense_exponential(self, s, y_max, monkeypatch):
        # y_max, if set, moves the far edge to e^(x_max) = y_max, and only
        # the row is checked.  Against mpmath's eigsy at 24 digits the pole
        # sum errs by 4.1e-14 at s = 0.8
        if y_max is not None:
            x_min = pde_engine.x_bounds(s)[0]
            monkeypatch.setattr(pde_engine, "x_bounds",
                                lambda s: (x_min, math.log(y_max)))
            monkeypatch.setattr(pde_engine, "BOUNDARY_TOL", math.inf)
        grid = GridSpec(n_y=64)
        v = solve_psi(1.0, s, grid).v
        assert np.abs(v - dense_v(s, grid)).max() <= 1e-13


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
            pde_engine.solve_banded(off + 0j, diag, off + 0j, rhs)
            assert rhs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [3, 17, 400])
    def test_stacked_blocks_solve_as_on_their_own(self, n):
        # seven systems on one call, uncoupled at the joins, each get the
        # bits of their own call, also where partial pivoting swaps rows:
        # off reaches 40, and |w_j| is 5.7 to 19
        rng = np.random.default_rng(n)
        blocks = []
        for w in pde_engine.CF_POLES:
            off = -rng.uniform(0.5, 40.0, n - 1) + 0j
            diag = w + rng.uniform(-1.0, 1.0, n)
            rhs = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
            blocks.append((off, diag, rhs))
        zero = np.zeros(1, dtype=complex)
        lower = np.concatenate([np.r_[off, zero] for off, _, _ in blocks])[:-1]
        diag = np.concatenate([diag for _, diag, _ in blocks])
        rhs = np.concatenate([rhs for _, _, rhs in blocks])
        pde_engine.solve_banded(lower, diag, lower.copy(), rhs)
        for (off, diag, block), stacked in zip(blocks, rhs.reshape(7, n)):
            pde_engine.solve_banded(off.copy(), diag.copy(), off.copy(), block)
            assert stacked.tobytes() == block.tobytes()

    def test_refuses_a_strided_vector(self):
        # LAPACK works in all four in place: a strided or a real one would
        # be copied
        for k in range(4):
            for strided in (True, False):
                args = [np.full(3, -0.1 + 0j), np.full(4, 1.0 + 1.0j),
                        np.full(3, -0.1 + 0j), np.ones(4, dtype=complex)]
                args[k] = np.repeat(args[k], 2)[::2] if strided else args[k].real.copy()
                with pytest.raises(TypeError, match="contiguous complex128"):
                    pde_engine.solve_banded(*args)

    def test_zero_pivot_is_instability(self):
        with pytest.raises(InstabilityError, match="zero pivot in row 1"):
            pde_engine.solve_banded(np.zeros(3, dtype=complex), np.zeros(4, dtype=complex),
                                    np.zeros(3, dtype=complex), np.ones(4, dtype=complex))


class TestGridParts:
    """The s-free half of a solve, kept per (n_y, x_min, x_max)."""

    def test_lattice_s_share_one_entry_per_grid(self):
        # x_bounds is (-10, 7) for 80 e^-14 <= s <= 4/3, every
        # reference.json s among them
        cache = pde_engine._grid_parts
        assert {pde_engine.x_bounds(s) for s in REFERENCE["s"]} == {(-10.0, 7.0)}
        cache.cache_clear()
        solve_psi(1.0, 0.08)
        solve_psi(1.0, 0.45)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        solve_psi(1.0, 0.08, GridSpec(n_y=800))
        assert cache.cache_info().currsize == 2

    def test_s_past_4_3_gets_its_own_entry(self):
        cache = pde_engine._grid_parts
        assert pde_engine.x_bounds(2.0) == (-11.0, 7.0)
        assert pde_engine.x_bounds(4.0) == (-14.0, 7.0)
        cache.cache_clear()
        for s in (2.0, 4.0, 2.0):
            solve_psi(1.0, s)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

    def test_kept_arrays_are_read_only(self):
        solve_psi(1.0, 0.08, GridSpec(n_y=64))
        parts = pde_engine._grid_parts(64, *pde_engine.x_bounds(0.08))
        arrays = [value for value in vars(parts).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 7
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_threads_solve_as_one(self):
        # three s on two grids, solved at once from three threads on an
        # empty cache, with frequent thread switches, give the bytes of the
        # serial solves
        s_values = (0.08, 0.45, 2.0)
        serial = [solve_psi(1.0, s, GridSpec(n_y=800)) for s in s_values]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                pde_engine._grid_parts.cache_clear()
                barrier, found = threading.Barrier(len(s_values), timeout=30), {}

                def solve(s):
                    barrier.wait()
                    found[s] = solve_psi(1.0, s, GridSpec(n_y=800))

                threads = [threading.Thread(target=solve, args=(s,)) for s in s_values]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                for s, expected in zip(s_values, serial):
                    for name in ("v", "squares", "weights"):
                        assert (getattr(found[s], name).tobytes()
                                == getattr(expected, name).tobytes())
                    assert found[s].g_integral == expected.g_integral
        finally:
            sys.setswitchinterval(interval)


class TestPoleTable:
    """r(x) = r_inf + 2 Re sum_j c_j / (w_j - x), the approximation of e^x
    on (-inf, 0] whose poles the solver shifts A by."""

    #: r's value at infinity, which the solver does not need, as chi(0) = 0
    R_INF = 1.8321989582366484e-14

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
        r = self.R_INF + 2.0 * (c / (w - x)).real.sum(axis=0)
        assert np.abs(r - np.exp(x)).max() <= 3e-14

    def test_error_in_mpmath(self):
        poles = [mpmath.mpc(w) for w in pde_engine.CF_POLES.tolist()]
        weights = [mpmath.mpc(c) for c in pde_engine.CF_WEIGHTS.tolist()]
        points = np.concatenate((np.linspace(0.0, -50.0, 100),
                                 -np.geomspace(50.0, 1e8, 101)[1:]))
        with mpmath.workdps(30):
            for x in map(mpmath.mpf, points.tolist()):
                r = self.R_INF + 2 * mpmath.re(mpmath.fsum(
                    c / (w - x) for c, w in zip(weights, poles)))
                assert abs(r - mpmath.exp(x)) <= 2.5e-14


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
        # s = alpha^2 tau < 2^-53: the pchip of an earlier y grid overflowed,
        # and the march priced 2.0e-3 off at alpha 1e-80 with a RuntimeWarning
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
    @pytest.mark.parametrize("s", [2.0 ** -24, 1e-7, 1e-6, 1e-5])
    def test_small_s_is_the_delta_method(self, s, nu):
        # E[sqrt(B)] = J (1 - Var B / (8 E[B]^2)) + O(s^2) relative, with
        # J = sqrt(E[B]) and Var B = sigma^4 tau^2 (4 s / 3) + O(s^2); the
        # Crank-Nicolson march priced 1.9e-7 to 6.0e-7 under J here, and an
        # x grid ending at x_max = 7 puts G 1.5, 0.13 and 5.1e-5 off at
        # s = 1e-7, 1e-6 and 1e-5, where psi has not decayed by y = e^7.
        # The default grid reads within 2.6e-11; the second-order grid on
        # 400 cells read 8.5e-10 at nu = 0, short of the h^4 end term
        tau, sigma = 0.5, 0.25
        kappa = kappa_quadrature(
            MarketState(t=CONTRACT.maturity - tau, sigma=sigma, nu=nu),
            SabrParams(alpha=math.sqrt(s / tau)), CONTRACT)
        mean_b = nu + sigma ** 2 * tau * math.expm1(s) / s
        var_b = sigma ** 4 * tau ** 2 * (4.0 * s / 3.0)
        expected = math.sqrt(mean_b) * (1.0 - var_b / (8.0 * mean_b ** 2))
        assert kappa == pytest.approx(expected / CONTRACT.tenor, rel=5e-10, abs=0.0)

    @pytest.mark.parametrize("s, zeta", [(1e-5, 1e6), (2.0 ** -24, 1e8)])
    def test_end_terms_at_finite_zeta(self, s, zeta):
        # the weight e^(-y^2 / (4 zeta)) falls to e^-2 and e^-3.35 at y_max:
        # the default grid lies within 5e-9 of the 3200/6400 Richardson
        # value, at 7.2e-11 and 1.1e-9.  Without the h^4 end term the first
        # read 3.6e-7, without the h^6 term the second 2.4e-8
        alpha = 4.0
        state = MarketState(t=CONTRACT.maturity - s / alpha ** 2,
                            sigma=alpha * math.sqrt(2.0 * zeta), nu=1.0)
        kappas = [kappa_quadrature(state, SabrParams(alpha=alpha), CONTRACT,
                                   GridSpec(n_y=n)) for n in (100, 3200, 6400)]
        richardson = (16.0 * kappas[2] - kappas[1]) / 15.0
        assert abs(kappas[0] - richardson) <= 5e-9 * richardson

    @pytest.mark.parametrize("nu", [0.03, 0.0])
    def test_closed_form_meets_the_solve_at_2_24(self, nu):
        # the closed form below S_CLOSED_FORM and the solve above it agree
        # within the closed form's 4e-8 (here 5e-9)
        kappas = [kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=nu),
                                   SabrParams(alpha=math.sqrt(2.0 * s)), CONTRACT)
                  for s in (2.0 ** -24 * (1 + 1e-9), 2.0 ** -24 * (1 - 1e-9))]
        assert kappas[0] == pytest.approx(kappas[1], rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("nu", [1e308, sys.float_info.max])
    def test_tail_integral_finite_at_largest_nu(self, nu):
        # sqrt(pi nu) overflowed and inf * erfc(...) = inf * 0 gave nan;
        # V is negligible next to nu, so kappa = sqrt(nu) / T
        kappa = kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=nu),
                                 SabrParams(alpha=0.4), CONTRACT)
        assert kappa == pytest.approx(math.sqrt(nu), rel=1e-12)

    def test_tail_bound_enforced(self, monkeypatch):
        # calibrate QUAD_TOL just under the achievable tail bound
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        sol = solve_psi(0.4, 0.5)
        tail_bound = math.sqrt(2.0) * 0.25 / 0.4 * sol.boundary_max / sol.y_max
        assert tail_bound > 0.0
        monkeypatch.setattr(pde_engine, "QUAD_TOL", 0.5 * tail_bound)
        with pytest.raises(AccuracyError, match="tail bound"):
            kappa_quadrature(state, SabrParams(alpha=0.4), CONTRACT)

    def test_mass_below_x_min_is_weighted(self):
        # at zeta = 3e-10 most of the integral lies below y_min = e^-10:
        # q_min sqrt(pi zeta) erf(y_min / (2 sqrt(zeta))) puts F - 1 within
        # 1e-4 of the y grid's 2.4986013258398998e-11, and q_min y_min, the
        # same part without its weight, at 3.85e-11
        zeta, alpha = 3e-10, 0.4
        state = MarketState(t=0.5, sigma=alpha * math.sqrt(2.0 * zeta), nu=1.0)
        kappa = kappa_quadrature(state, SabrParams(alpha=alpha), CONTRACT)
        assert kappa - 1.0 == pytest.approx(2.4986013258398998e-11, rel=1e-3)


    @pytest.mark.parametrize("zeta, expected", [
        (3e-10, ["1.000000000024986"] * 3),
        (1e-300, ["1.0"] * 3), (sys.float_info.min, ["1.0"] * 3)])
    def test_vanishing_zeta_writes_no_warning(self, zeta, expected):
        # at float_info.min, y^2 / (4 zeta) overflows at the far nodes; below
        # ZETA_WEIGHTLESS every weight is 0 and the trapezoid is left out
        alpha = 0.4
        state = MarketState(t=0.5, sigma=alpha * math.sqrt(2.0 * zeta), nu=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kappas = [kappa_quadrature(state, SabrParams(alpha=alpha), CONTRACT,
                                       GridSpec(n_y=n)) for n in (400, 800, 1600)]
        assert list(map(repr, kappas)) == expected

    @pytest.mark.parametrize("s", [2.0 ** -24, 0.08, pde_engine.S_PDE_MAX])
    def test_no_node_has_weight_below_zeta_weightless(self, s):
        # from y_min = e^-20 at s = 8 to y_max^2 = 80 / 2^-24: the weight
        # is 0 at every node, and y^2 / zeta is finite
        squares = solve_psi(1.0, s).squares
        with np.errstate(over="raise"):
            weights = np.exp(squares / (-4.0 * pde_engine.ZETA_WEIGHTLESS))
        assert not weights.any()

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

    def test_refusal_is_not_kept(self, marches):
        # the memo holds solutions only: each lookup solves and raises afresh
        state, params = _point(20.0, 0.5, 1.0)     # s = 200 > S_PDE_MAX
        raised = []
        for _ in range(2):
            with pytest.raises(AccuracyError) as info:
                kappa_quadrature(state, params, CONTRACT)
            raised.append(info.value)
        assert len(marches) == 2
        assert pde_engine.psi_memo.cache_info().currsize == 0
        assert raised[0] is not raised[1]
        assert type(raised[0]) is type(raised[1])
        assert str(raised[0]) == str(raised[1])


class TestGridConvergence:
    def test_second_order_ratio(self):
        # the name predates the fourth-order grid: the ratio is 16.03 on
        # 400, 800 and 1600 cells, and was 4.00 on the second-order grid
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        k0, k1, k2 = [kappa_quadrature(state, SabrParams(alpha=0.4), CONTRACT,
                                       GridSpec(n_y=n)) for n in (400, 800, 1600)]
        assert all(type(k) is float for k in (k0, k1, k2))
        assert 15.0 <= (k0 - k1) / (k1 - k2) <= 17.0

    @pytest.mark.parametrize("s", [0.08, 0.8, 4.0, 8.0])
    @pytest.mark.parametrize("nu", [0.04, 0.0])
    def test_second_order_at_every_s(self, s, nu):
        # one uniform x grid: the error falls as h^4 from s = 0.08 to 8, the
        # ratios on 100, 200 and 400 cells 16.05 to 16.12 (4.00 +- 0.01 on
        # the second-order grid, which the name predates)
        alpha, tau = 4.0, s / 16.0
        state = MarketState(t=CONTRACT.maturity - tau, nu=nu,
                            sigma=alpha * math.sqrt(2.0 * nu) if nu else 0.3)
        report = grid_refinement_report(state, SabrParams(alpha=alpha), CONTRACT)
        assert report["ratios"][0] == pytest.approx(16.0, abs=0.15)

    @pytest.mark.parametrize("t", [1.0, 1.25])
    def test_nothing_to_refine_at_or_past_maturity(self, t, marches):
        # at maturity every level is the closed form sqrt(nu) / T, and past
        # it the contract has no value
        state = MarketState(t=t, sigma=0.25, nu=0.03)
        if t > CONTRACT.maturity:
            with pytest.raises(DomainError):
                grid_refinement_report(state, SabrParams(alpha=0.4), CONTRACT)
            return
        report = grid_refinement_report(state, SabrParams(alpha=0.4), CONTRACT)
        assert report["kappas"] == [math.sqrt(0.03)] * 3
        assert report["ratios"] == [math.inf]
        assert marches == []

    def test_nothing_to_refine_where_s_underflows(self, marches):
        # s = 0, and s = 5e-19 below S_CLOSED_FORM: both take the closed form
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        closed_form = math.sqrt(0.03 + 0.25 * (0.25 * 0.5))
        for alpha in (1e-200, 1e-9):
            report = grid_refinement_report(state, SabrParams(alpha=alpha), CONTRACT)
            assert report["kappas"] == [closed_form] * 3
            assert report["ratios"] == [math.inf]
        assert marches == []

    def test_first_level_is_the_default_price(self, monkeypatch):
        # every level solves on the x range of the memo key's s
        used = []
        solve = pde_engine.kappa_from_solution

        def spy(solution, *args):
            used.append(solution.y_max)
            return solve(solution, *args)

        monkeypatch.setattr(pde_engine, "kappa_from_solution", spy)
        rng = random.Random(3)
        for _ in range(40):
            alpha, tau = rng.uniform(0.2, 1.0), rng.uniform(0.05, 0.7)
            state = MarketState(t=CONTRACT.maturity - tau, sigma=0.3,
                                nu=rng.uniform(1e-3, 0.1))
            params = SabrParams(alpha=alpha)
            used.clear()
            report = grid_refinement_report(state, params, CONTRACT)
            assert repr(report["kappas"][0]) == repr(
                kappa_quadrature(state, params, CONTRACT))
            assert len(used) == 4 and len(set(used)) == 1

    def test_default_price_then_refinement_marches_twice(self, marches):
        state, params = MarketState(t=0.5, sigma=0.25, nu=0.03), SabrParams(alpha=0.4)
        kappa_quadrature(state, params, CONTRACT)
        grid_refinement_report(state, params, CONTRACT, refinements=1)
        assert len(marches) == 2

    def test_refinement_past_the_grid_cap_marches_nothing(self, monkeypatch):
        # level k solves on 100 * 2^k nodes: 40 levels would not end, and
        # 11 pass MAX_GRID_NODES
        def march(*args):
            raise AssertionError("a grid past MAX_GRID_NODES was marched")

        monkeypatch.setattr(pde_engine, "solve_psi", march)
        pde_engine.psi_memo.cache_clear()
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        for refinements in (11, 40, 10 ** 9):
            with pytest.raises(DomainError, match="MAX_GRID_NODES"):
                grid_refinement_report(state, SabrParams(alpha=0.4), CONTRACT,
                                       refinements=refinements)

    def test_s_beyond_float_range_is_domain_error(self):
        # s = 800: e^s - 1 overflows
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="not finite"):
            grid_refinement_report(state, SabrParams(alpha=40.0), CONTRACT,
                                   refinements=1)


class TestGolden:
    """PDE results frozen by repr: kappas, a refinement report, v bytes."""

    KAPPAS = {
        "small_s": ((0.1, 0.05, 0.25, 0.03), GridSpec(), "0.18200475874346642"),
        "mid_s": ((0.4, 0.5, 0.25, 0.03), GridSpec(), "0.2491417908208552"),
        "large_s": ((0.8, 1.0, 0.3, 0.02), GridSpec(), "0.3503140548547048"),
        "high_zeta": ((0.5, 0.8, 0.6, 0.005), GridSpec(), "0.5503317056948933"),
        "nu_zero": ((0.4, 0.5, 0.25, 0.0), GridSpec(), "0.17794827756423567"),
        # zeta = 9.8e5: the weight at y_max = e^7 is 0.74, so the end terms
        # at finite zeta count (h^2: 7.3e-6 of kappa, h^4: 1.6e-9)
        "huge_zeta": ((0.4, 0.5, 0.25, 2e-7), GridSpec(), "0.17794885445245792"),
        "explicit_grid": ((0.4, 0.5, 0.25, 0.03), GridSpec(n_y=256),
                          "0.249141802662585"),
        # s = 5e-4, zeta = 0.499, where the y grid split each cell in six
        "sub_cells": ((0.1, 0.05, 0.0173, 0.03), GridSpec(), "0.1732482849566812"),
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
        # 12 s from 5e-4 to 0.7 by 6 zeta from 0.02 to 40, plus nu = 0
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
            "9ebcaca24217b9cf639d399053c4e065289ea3591cc549e53ce21eb4cce9e248")

    def test_default_grid_prices_s_0_8(self, marches):
        # the y grid refused every s from 0.734 on, with "psi at the far
        # edge reaches 2.346e-08" at sigma 0.3, nu 0.02.  The contract
        # alpha 1, tau 0.8, sigma 1, nu 0.0125 is the lattice's (s, zeta) =
        # (0.8, 40), priced within PDE_TOL of the table
        state, params = MarketState(t=0.2, sigma=1.0, nu=0.0125), SabrParams(alpha=1.0)
        kappa = kappa_quadrature(state, params, CONTRACT)
        f = REFERENCE["F"][-1][-1]
        assert abs(kappa / math.sqrt(0.0125) - f) <= 2e-5 * f

    def test_refinement_report(self, marches):
        # the 100-cell level is the mid_s default-grid golden
        report = grid_refinement_report(*self._inputs(0.4, 0.5, 0.25, 0.03),
                                        CONTRACT)
        assert repr(report) == (
            "{'kappas': [0.2491417908208552, 0.24914180218967788, "
            "0.2491418028959935], 'grids': [100, 200, 400], "
            "'ratios': [16.095952593283275]}")

    FINAL_ROWS = {
        (1e-4, 400): "ac3f555adf67fa04deb2af3481a965c3685a86c6070f9c70e35444824c6d23b7",
        (1e-4, 800): "329a310781183c23e939fefaf8d0d2fcece2344de6e2eabf9718ac7930ca0eb0",
        (1e-4, 1600): "1371b1fe0dfc13690ae2f7f1d791f2bde785a78b90a1ccb2bdbec6c44bdcdc5e",
        (0.45, 400): "d29d78599052b040129f4bf3dca6899b1b38cb7c8164b587348f5e36795220b7",
        (0.45, 800): "4790566feb64249e665c21d2091ae623639019490099a36dfe2a412da025f483",
        (0.45, 1600): "9e79992fcdd7d69407d9689fe07e45946abedf628e2fd6243378ecf9bd7862b1",
        (2.0, 400): "c2f258ab7fd1d46d8b3b64f60d7c7f84cb00dbf5a93407a4708a838eea3c2da4",
        (2.0, 800): "878665b66e74fd4100d38469d26ce400513b5844db64826005170231218c39e5",
        (2.0, 1600): "dcc1796d6eb505173f4bacf11183b239f500e508bbcb3a9d3b2dfbb10b715848",
    }

    @pytest.mark.parametrize("case", FINAL_ROWS, ids=lambda c: f"s{c[0]}-n{c[1]}")
    def test_final_row_digest(self, case):
        # the row v at s by repr
        s, n = case
        v = solve_psi(1.0, s, GridSpec(n_y=n)).v
        text = " ".join(map(repr, v.tolist()))
        assert hashlib.sha256(text.encode()).hexdigest() == self.FINAL_ROWS[case]

    def test_psi_bytes(self):
        sol = solve_psi(0.5, 0.6, GridSpec(n_y=300))
        assert hashlib.sha256(sol.v.tobytes()).hexdigest() == (
            "cea759435dad7e16743f71ce20878f0510cb164a5edeb9adabb8c0b7c83fbcf5")
        assert hashlib.sha256(sol.weights.tobytes()).hexdigest() == (
            "0474fea02a72a4eb761411ce543d745bbc3a8b08ed1cef3e628ddf1585564e50")
        assert repr(sol.boundary_max) == "4.629630012686903e-14"


#: perfbench's reference table: F(s, zeta) = kappa T / sqrt(nu) on a 40 x 40
#: (s, zeta) lattice and G(s) = kappa T alpha / sigma at nu = 0
with open(Path(__file__).parents[1] / "perfbench" / "reference.json") as fh:
    REFERENCE = json.load(fh)


class TestLattice:
    def test_default_grid_prices_the_reference_lattice(self, marches):
        # all 1600 F and 40 G entries, each s solved once: 2.9e-7 in F and
        # in G, where the table's own bounds reach 7.6e-7 and the
        # second-order grid on 400 cells read 3.8e-6 and 3.0e-6
        worst_f = worst_g = 0.0
        # at alpha 1, tau = s, T 1, kappa is F at nu = 1 and G at sigma 1
        for i, s in enumerate(REFERENCE["s"]):
            for j, zeta in enumerate(REFERENCE["zeta"]):
                f = REFERENCE["F"][i][j]
                kappa = kappa_quadrature(*_point(1.0, s, zeta, nu=1.0), CONTRACT)
                worst_f = max(worst_f, abs(kappa - f) / f)
            g = REFERENCE["G"][i]
            kappa = kappa_quadrature(*_point(1.0, s, 1.0, nu=0.0), CONTRACT)
            worst_g = max(worst_g, abs(kappa - g) / g)
        assert len(marches) == 40
        assert worst_f <= 1e-6
        assert worst_g <= 1e-6


def _mpmath_kappa(solution, state, params, contract):
    """kappa by the module notes' rule, term by term in mpmath at 30 digits:
    the end-halved trapezoid sum of h w v e^(-x) on the solve's nodes, with
    the weight w = e^(-e^(2x) / (4 zeta)); ``mpmath.quad`` of q_min w on [0,
    y_min] and of w / y^2 on [y_max, inf); and the Euler-Maclaurin end terms
    -(h^2 / 12) f'(x_max) + (h^4 / 720) f'''(x_max) - (h^6 / 30240)
    f^(5)(x_max) of f = w e^(-x), v = 1 there, and (h^2 / 12) f'(x_min) of
    f = q_min w e^x, by ``mpmath.diff``."""
    c = math.sqrt(2.0) * state.sigma / params.alpha
    with mpmath.workdps(30):
        rate = mpmath.mpf(state.nu) / mpmath.mpf(c) ** 2       # 1 / (4 zeta)
        h, q_min = mpmath.mpf(solution.h), mpmath.mpf(solution.q_min)
        x = [mpmath.mpf(node) for node in nodes(solution).tolist()]
        v = [mpmath.mpf(value) for value in solution.v.tolist()]

        def f(node, v_node=1):
            return v_node * mpmath.exp(-node - rate * mpmath.exp(2 * node))

        body = h * (mpmath.fsum(f(*pair) for pair in zip(x, v))
                    - (f(x[0], v[0]) + f(x[-1], v[-1])) / 2)
        y_min, y_max = mpmath.exp(x[0]), mpmath.exp(x[-1])
        below = mpmath.quad(lambda y: q_min * mpmath.exp(-rate * y * y), [0, y_min])
        tail = mpmath.quad(lambda y: mpmath.exp(-rate * y * y) / (y * y),
                           [y_max, mpmath.inf])
        end = (-h ** 2 / 12 * mpmath.diff(f, x[-1]) + h ** 4 / 720 * mpmath.diff(f, x[-1], 3)
               - h ** 6 / 30240 * mpmath.diff(f, x[-1], 5))
        start = h ** 2 / 12 * mpmath.diff(lambda node: f(node, q_min * mpmath.exp(2 * node)), x[0])
        integral = body + below + tail + end + start
        kappa = mpmath.sqrt(state.nu) + c * integral / mpmath.sqrt(mpmath.pi)
        return float(kappa / contract.tenor)


def _spline_kappa(solution, state, params, contract):
    """kappa with the parts below y_min and past y_max by ``mpmath.quad``
    at 20 digits, and the part between by an 8-point Gauss-Legendre rule per
    cell on the not-a-knot cubic spline of v in x, times e^(-x) and the
    weight e^(-e^(2x) / (4 zeta))."""
    c = math.sqrt(2.0) * state.sigma / params.alpha
    rate = state.nu / (c * c)                     # 1 / (4 zeta)
    x_nodes = nodes(solution)
    spline = CubicSpline(x_nodes, solution.v)
    gauss, weights = np.polynomial.legendre.leggauss(8)
    x = x_nodes[:-1, None] + 0.5 * (gauss + 1.0) * solution.h
    body = float(np.sum(0.5 * solution.h * weights * spline(x) * np.exp(-x)
                        * np.exp(-rate * np.exp(2.0 * x))))
    with mpmath.workdps(20):
        below = mpmath.quad(lambda y: solution.q_min * mpmath.exp(-rate * y * y),
                            [0, solution.y_min])
        tail = mpmath.quad(lambda y: mpmath.exp(-rate * y * y) / (y * y),
                           [solution.y_max, mpmath.inf])
        kappa = mpmath.sqrt(state.nu) + c * (body + below + tail) / mpmath.sqrt(mpmath.pi)
        return float(kappa / contract.tenor)


class TestFixedNodeRule:
    @pytest.mark.parametrize("case", ["small_s", "mid_s", "large_s", "high_zeta",
                                      "huge_zeta", "nu_zero", "sub_cells"])
    def test_matches_mpmath_integral_of_the_interpolant(self, case):
        # the trapezoid, the closed forms below y_min and past y_max and the
        # end term, each as its own integral in mpmath, agree to rounding.
        # huge_zeta is the one finite zeta whose weight at y_max, 0.74,
        # leaves the x_max end terms anything to correct
        (alpha, tau, sigma, nu), grid, _ = TestGolden.KAPPAS[case]
        state, params = TestGolden._inputs(alpha, tau, sigma, nu)
        solution = solve_psi(alpha, tau, grid)
        kappa = pde_engine.kappa_from_solution(solution, state, params, CONTRACT)
        reference = _mpmath_kappa(solution, state, params, CONTRACT)
        assert abs(kappa - reference) <= 1e-13 * reference

    @pytest.mark.parametrize("case", ["small_s", "mid_s", "large_s", "high_zeta",
                                      "huge_zeta", "nu_zero", "sub_cells"])
    def test_matches_the_spline_integral_within_the_grid_error(self, case):
        # the trapezoid with its end terms against the integral of a
        # fourth-order interpolant of the same v on 400 cells, where the
        # spline's own error is small: at most 4.5e-9 apart.  Without the end
        # term (h^2 / 12) f(x_max) nu_zero differs by 3.8e-7.  On the default
        # grid the spline itself errs by up to 1.2e-6
        (alpha, tau, sigma, nu), _, _ = TestGolden.KAPPAS[case]
        state, params = TestGolden._inputs(alpha, tau, sigma, nu)
        solution = solve_psi(alpha, tau, GridSpec(n_y=400))
        kappa = pde_engine.kappa_from_solution(solution, state, params, CONTRACT)
        reference = _spline_kappa(solution, state, params, CONTRACT)
        assert abs(kappa - reference) <= 3e-8 * reference

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
        assert kappa == pytest.approx(0.17794827756423567, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", TestGolden.KAPPAS)
    def test_g_integral_is_the_quadrature_at_infinite_zeta(self, case):
        # the weight e^(y^2 / (-4 zeta)) is exp(-0.0) = 1 at zeta = inf, the
        # parts below y_min and past y_max are q_min y_min and 1 / y_max,
        # and the end terms (h^2 / 12) q_min y_min at x_min and (h^2 / 12 -
        # h^4 / 720 + h^6 / 30240) / y_max at x_max
        (alpha, tau, _, _), grid, _ = TestGolden.KAPPAS[case]
        sol = solve_psi(alpha, tau, grid)
        integral = pde_engine.quad(lambda y2: np.exp(y2 / -math.inf),
                                   sol.squares, sol.weights)
        assert type(sol.g_integral) is float
        assert sol.g_integral == pytest.approx(
            integral + sol.q_min * sol.y_min + 1.0 / sol.y_max + sol.start
            + sol.end[0] - sol.end[1] + sol.end[2],
            rel=1e-15, abs=0.0)

    def test_tables_are_read_only(self):
        sol = solve_psi(0.4, 0.5, GridSpec(n_y=256))
        assert sol.v.shape == sol.squares.shape == sol.weights.shape == (257,)
        assert sol.weights[-1] == 0.5 * sol.h / sol.y_max
        for table in (sol.v, sol.squares, sol.weights):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

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
