"""Monte Carlo engine: exactness, reproducibility, variance-swap pipeline."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from volswap import mc_engine
from volswap.exceptions import DomainError
from volswap.mc_engine import (BLOCK_PATHS, CHUNK_PATHS, McConfig, block_stream,
                               kappa_mc, path_normals, variance_swap_expectation,
                               variance_swap_mc)
from volswap.model import MarketState, SabrParams, SwapContract

CONTRACT = SwapContract(t0=0.0, tenor=1.0)
STATE = MarketState(t=0.5, sigma=0.25, nu=0.03)
PARAMS = SabrParams(alpha=0.4)


def reference_normals(seed, block, n_rows, n_steps):
    """Reference: a block's first rows of numpy's own standard normals on
    its Philox stream."""
    stream = np.random.Philox(key=seed, counter=[0, 0, block, 0])
    return np.random.Generator(stream).standard_normal((n_rows, n_steps))


class TestPathNormals:
    BLOCKS = [0, 1, 7, 2 ** 32 + 1, 2 ** 63]

    @pytest.mark.parametrize("n_steps", [1, 4, 7, 250])
    @pytest.mark.parametrize("seed", [0, 99, 2 ** 64 + 5, 2 ** 128 - 1])
    def test_equals_numpy_philox_streams(self, seed, n_steps):
        for block in self.BLOCKS:
            got = path_normals(block_stream(seed, block), np.empty((3, n_steps)))
            assert np.array_equal(got, reference_normals(seed, block, 3, n_steps))

    def test_numpy_integer_seed(self):
        got = path_normals(block_stream(np.int64(99), np.int64(3)), np.empty((2, 5)))
        assert np.array_equal(got, reference_normals(99, 3, 2, 5))

    def test_rows_do_not_depend_on_the_batch(self):
        # a block's first m draws are the same however many draws follow
        # and however its stream is cut into chunks
        def draws(n_steps, *sizes):
            stream = block_stream(5, 2)
            return np.vstack([path_normals(stream, np.empty((m, n_steps)))
                              for m in sizes])

        for n_steps in (1, 3, 9):
            whole = draws(n_steps, 2 * CHUNK_PATHS + 3)
            assert np.array_equal(draws(n_steps, 1, 2, CHUNK_PATHS, 5),
                                  whole[:CHUNK_PATHS + 8])
            assert np.array_equal(draws(n_steps, 1), whole[:1])


class TestChunking:
    CONFIG = McConfig(16_400, 5, seed=2, antithetic=True)   # 8 200 draws

    @pytest.mark.parametrize("estimator", [kappa_mc, variance_swap_mc])
    def test_estimate_does_not_depend_on_chunk_size(self, estimator, monkeypatch):
        assert self.CONFIG.n_paths // 2 > BLOCK_PATHS
        default = repr(estimator(STATE, PARAMS, CONTRACT, self.CONFIG))
        monkeypatch.setattr(mc_engine, "CHUNK_PATHS", 7)
        assert repr(estimator(STATE, PARAMS, CONTRACT, self.CONFIG)) == default

    def test_block_peak_memory_is_bounded(self):
        # one 8 192-draw block of 1 000 steps holds 65 MB of normals at once
        # unless its stream is drawn and priced in chunks
        config = McConfig(BLOCK_PATHS, 1000, seed=4)
        tracemalloc.start()
        try:
            kappa_mc(STATE, PARAMS, CONTRACT, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_outside_philox_key_is_domain_error(self, seed):
        with pytest.raises(DomainError):
            McConfig(1000, 10, seed=seed)

    def test_widest_key_accepted(self):
        assert McConfig(1000, 10, seed=2 ** 128 - 1).seed == 2 ** 128 - 1


class TestKappaMc:
    def test_terminal_exact(self):
        state = MarketState(t=1.0, sigma=0.25, nu=0.04)
        est = kappa_mc(state, PARAMS, CONTRACT, McConfig(1000, 10, seed=1))
        assert est.mean == math.sqrt(0.04)
        assert est.std_error == 0.0

    def test_deterministic_limit(self):
        params = SabrParams(alpha=1e-12)
        est = kappa_mc(STATE, params, CONTRACT, McConfig(4000, 50, seed=3))
        expected = math.sqrt(0.03 + 0.25 ** 2 * 0.5)
        assert est.mean == pytest.approx(expected, rel=1e-10)
        assert est.std_error < 1e-12

    def test_std_error_scales_with_alpha(self):
        # the per-draw spread is ~5e-2 alpha against a mean of ~0.25: sums
        # of squares about zero cancel it away at small alpha, centred
        # sums keep it
        config = McConfig(10_000, 50, seed=1)
        ratios = [kappa_mc(STATE, SabrParams(alpha=10.0 ** -k), CONTRACT,
                           config).std_error * 10.0 ** k for k in range(3, 13)]
        assert max(ratios) <= 1.05 * min(ratios)

    def test_reproducible(self):
        cfg = McConfig(20_000, 40, seed=99)
        a = kappa_mc(STATE, PARAMS, CONTRACT, cfg)
        b = kappa_mc(STATE, PARAMS, CONTRACT, cfg)
        assert a == b

    def test_jensen_ordering(self):
        cfg = McConfig(50_000, 100, seed=17)
        est = kappa_mc(STATE, PARAMS, CONTRACT, cfg)
        bound = math.sqrt(variance_swap_expectation(STATE, PARAMS, CONTRACT))
        assert est.mean * CONTRACT.tenor <= bound + 3.0 * est.std_error

    def test_step_size_bias_within_noise(self):
        a = kappa_mc(STATE, PARAMS, CONTRACT, McConfig(60_000, 250, seed=5))
        b = kappa_mc(STATE, PARAMS, CONTRACT, McConfig(60_000, 500, seed=6))
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 3.0 * combined

    def test_antithetic_agrees_and_tightens(self):
        plain = kappa_mc(STATE, PARAMS, CONTRACT, McConfig(40_000, 100, seed=21))
        anti = kappa_mc(STATE, PARAMS, CONTRACT,
                        McConfig(40_000, 100, seed=21, antithetic=True))
        combined = math.hypot(plain.std_error, anti.std_error)
        assert abs(plain.mean - anti.mean) <= 3.0 * combined
        assert anti.std_error <= 1.05 * plain.std_error

    def test_antithetic_requires_even_paths(self):
        with pytest.raises(DomainError):
            McConfig(1001, 10, seed=1, antithetic=True)

    def test_before_accrual_start_is_domain_error(self):
        state = MarketState(t=-0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="outside the accrual window"):
            kappa_mc(state, PARAMS, CONTRACT, McConfig(1000, 10, seed=1))

    def test_s_overflow_is_domain_error(self):
        # alpha^2 tau rounds to inf: every path would be nan
        with pytest.raises(DomainError, match="not finite"):
            kappa_mc(STATE, SabrParams(alpha=1e200), CONTRACT,
                     McConfig(100, 5, seed=1))

    @pytest.mark.parametrize("estimator", [kappa_mc, variance_swap_mc])
    def test_s_beyond_float_range_is_domain_error(self, estimator):
        # s = 800 is finite, but e^s - 1 is not: the PDE's rule applies here
        # too, where every path's sigma collapsed to a confident constant
        with pytest.raises(DomainError, match=r"800\.0: e\^s - 1 is not finite"):
            estimator(STATE, SabrParams(alpha=40.0), CONTRACT,
                      McConfig(1000, 10, seed=1))

    def test_antithetic_needs_two_pairs(self):
        # one pair is one draw: no standard error exists
        with pytest.raises(DomainError):
            McConfig(2, 10, seed=1, antithetic=True)
        est = kappa_mc(STATE, PARAMS, CONTRACT,
                       McConfig(4, 10, seed=1, antithetic=True))
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)

    @pytest.mark.parametrize("estimator", [kappa_mc, variance_swap_mc])
    @pytest.mark.parametrize("sigma, variance", [(1e200, "inf"), (1e154, "5e+307")],
                             ids=["mean", "std_error"])
    def test_estimate_beyond_float_range_is_domain_error(self, estimator, sigma,
                                                         variance):
        # a valid contract: sigma^2 tau = inf gave kappa inf with a nan
        # standard error, and 5e307 a finite kappa with an inf one
        state = MarketState(t=0.5, sigma=sigma, nu=0.03)
        message = re.escape(f"sigma^2 tau = {variance}: ")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=message):
                estimator(state, PARAMS, CONTRACT, McConfig(200, 5, seed=3))

    @pytest.mark.parametrize("estimator", [kappa_mc, variance_swap_mc])
    @pytest.mark.parametrize("sigma", [1e200, 1e154], ids=["mean", "std_error"])
    def test_estimate_beyond_float_range_warns_nothing(self, estimator, sigma):
        # numpy warned of the overflow (or of inf - inf) above the refusal
        state = MarketState(t=0.5, sigma=sigma, nu=0.03)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"sigma\^2 tau = "):
                estimator(state, PARAMS, CONTRACT, McConfig(200, 5, seed=3))


class TestReducedVariable:
    # alpha^2 tau and sigma^2 tau are bit-equal at the two points, while
    # alpha, sigma and tau differ and alpha's ratio is no power of two
    POINTS = [(SabrParams(alpha=0.4), MarketState(t=0.5, sigma=0.25, nu=0.03)),
              (SabrParams(alpha=1.1),
               MarketState(t=0.9338842975206612, sigma=0.6875, nu=0.03))]

    def test_points_share_s_and_sigma2_tau(self):
        reduced = {(p.alpha * p.alpha * tau, st.sigma * st.sigma * tau)
                   for p, st in self.POINTS for tau in [1.0 - st.t]}
        assert len(reduced) == 1

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("estimator", [kappa_mc, variance_swap_mc])
    def test_estimate_depends_on_s_alone(self, estimator, antithetic):
        config = McConfig(4000, 20, seed=3, antithetic=antithetic)
        first, second = (repr(estimator(state, params, CONTRACT, config))
                         for params, state in self.POINTS)
        assert first == second


class TestGolden:
    """Estimates frozen by repr from the reduced kernel of (s, n_steps) on
    numpy's ziggurat normals, one Philox stream per fixed block, drawn in
    row chunks."""

    CASES = {
        "plain": (McConfig(3000, 20, seed=99),
                  "McEstimate(mean=0.24919946842721774, std_error=0.0003970613863801656, n_paths=3000)",
                  "McEstimate(mean=0.06257319064032575, std_error=0.00020681485422313612, n_paths=3000)"),
        "antithetic": (McConfig(3000, 20, seed=21, antithetic=True),
                       "McEstimate(mean=0.24908771660113332, std_error=0.00012079280578082026, n_paths=3000)",
                       "McEstimate(mean=0.06249612991472467, std_error=7.853623393734143e-05, n_paths=3000)"),
        "two_blocks": (McConfig(8200, 5, seed=2 ** 70 + 3),
                       "McEstimate(mean=0.24923617559768851, std_error=0.0002387367614434617, n_paths=8200)",
                       "McEstimate(mean=0.06258597520968957, std_error=0.00012423409673845576, n_paths=8200)"),
        "one_step": (McConfig(1001, 1, seed=7),
                     "McEstimate(mean=0.24873617054410413, std_error=0.0006066020601116802, n_paths=1001)",
                     "McEstimate(mean=0.062237648596277395, std_error=0.00031861030708706415, n_paths=1001)"),
    }

    def test_two_blocks_case_spans_a_partial_block(self):
        n_paths = self.CASES["two_blocks"][0].n_paths
        assert n_paths > BLOCK_PATHS and n_paths % BLOCK_PATHS

    @pytest.mark.parametrize("case", CASES)
    def test_kappa(self, case):
        config, kappa, _ = self.CASES[case]
        assert repr(kappa_mc(STATE, PARAMS, CONTRACT, config)) == kappa

    @pytest.mark.parametrize("case", CASES)
    def test_variance_swap(self, case):
        config, _, variance = self.CASES[case]
        assert repr(variance_swap_mc(STATE, PARAMS, CONTRACT, config)) == variance


class TestVarianceSwap:
    def test_expectation_deterministic_limit(self):
        params = SabrParams(alpha=1e-9)
        expected = 0.03 + 0.25 ** 2 * 0.5
        assert variance_swap_expectation(STATE, params, CONTRACT) == pytest.approx(
            expected, rel=1e-12)

    def test_expectation_at_maturity(self):
        state = MarketState(t=1.0, sigma=0.2, nu=0.07)
        assert variance_swap_expectation(state, PARAMS, CONTRACT) == 0.07

    @pytest.mark.parametrize("t, alpha", [(-0.5, 0.4), (0.5, 40.0), (0.5, 1e200)],
                             ids=["before_accrual_start", "growth_overflow",
                                  "s_overflow"])
    def test_expectation_domain(self, t, alpha):
        # alpha 40: e^(alpha^2 tau) = e^800 is beyond the float range;
        # alpha 1e200: alpha^2 tau itself rounds to inf
        state = MarketState(t=t, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError):
            variance_swap_expectation(state, SabrParams(alpha=alpha), CONTRACT)

    def test_expectation_beyond_float_range_is_domain_error(self):
        # sigma^2 tau = inf: this returned inf
        state = MarketState(t=0.5, sigma=1e200, nu=0.03)
        with pytest.raises(DomainError, match=r"sigma\^2 tau = inf: "):
            variance_swap_expectation(state, PARAMS, CONTRACT)

    def test_expectation_example(self):
        # sigma=0.2, alpha=0.5, tau=1, nu=0: 0.04 (e^0.25 - 1)/0.25
        state = MarketState(t=0.0, sigma=0.2, nu=0.0)
        params = SabrParams(alpha=0.5)
        expected = 0.04 * math.expm1(0.25) / 0.25
        assert variance_swap_expectation(state, params, CONTRACT) == pytest.approx(
            expected, rel=1e-14)

    def test_mc_matches_closed_form(self):
        state = MarketState(t=0.0, sigma=0.2, nu=0.0)
        params = SabrParams(alpha=0.5)
        est = variance_swap_mc(state, params, CONTRACT,
                               McConfig(60_000, 200, seed=31))
        expected = variance_swap_expectation(state, params, CONTRACT)
        assert abs(est.mean - expected) <= 3.0 * est.std_error

    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_mc_matches_trapezoid_of_exact_moments(self, n_steps):
        # E[sigma_k^2] = sigma^2 e^(alpha^2 k dt) at every node, so the
        # n-step trapezoid has mean nu + dt sum_k w_k sigma^2 e^(alpha^2 k dt)
        # (end weights 1/2): pins both the drift and the scale of a step.
        state = MarketState(t=0.0, sigma=0.25, nu=0.03)
        dt = 1.0 / n_steps
        weights = [0.5] + [1.0] * (n_steps - 1) + [0.5]
        expected = state.nu + dt * sum(
            w * state.sigma ** 2 * math.exp(PARAMS.alpha ** 2 * k * dt)
            for k, w in enumerate(weights))
        est = variance_swap_mc(state, PARAMS, CONTRACT,
                               McConfig(120_000, n_steps, seed=11))
        assert abs(est.mean - expected) <= 3.0 * est.std_error

    def test_mc_terminal(self):
        state = MarketState(t=1.0, sigma=0.2, nu=0.05)
        est = variance_swap_mc(state, PARAMS, CONTRACT, McConfig(100, 5, seed=2))
        assert est.mean == 0.05 and est.std_error == 0.0

    def test_mc_deterministic_limit(self):
        params = SabrParams(alpha=1e-12)
        est = variance_swap_mc(STATE, params, CONTRACT, McConfig(2000, 50, seed=8))
        assert est.mean == pytest.approx(0.03 + 0.25 ** 2 * 0.5, rel=1e-10)
        assert est.std_error < 1e-9
