"""Monte Carlo engine: exactness, reproducibility, variance-swap pipeline."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from volswap.exceptions import DomainError
from volswap.mc_engine import (BLOCK_PATHS, CHUNK_PATHS, McConfig, kappa_mc,
                               path_normals, variance_swap_expectation,
                               variance_swap_mc)
from volswap.model import MarketState, SabrParams, SwapContract

CONTRACT = SwapContract(t0=0.0, tenor=1.0)
STATE = MarketState(t=0.5, sigma=0.25, nu=0.03)
PARAMS = SabrParams(alpha=0.4)


def reference_normals(seed, path, n_steps):
    """Reference: one path's normals from numpy's own Philox bit generator."""
    raw = np.random.Philox(key=seed, counter=[0, 0, 0, path]).random_raw(n_steps)
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)


class TestPathNormals:
    PATHS = [0, 1, 8191, 8192, 2 ** 32 + 1, 2 ** 63]

    @pytest.mark.parametrize("n_steps", [1, 4, 7, 250])
    @pytest.mark.parametrize("seed", [0, 99, 2 ** 64 + 5, 2 ** 128 - 1])
    def test_equals_numpy_philox_streams(self, seed, n_steps):
        got = path_normals(seed, self.PATHS, n_steps)
        assert got.shape == (len(self.PATHS), n_steps)
        for row, path in zip(got, self.PATHS):
            assert np.array_equal(row, reference_normals(seed, path, n_steps))

    def test_numpy_integer_seed(self):
        assert np.array_equal(path_normals(np.int64(99), [3], 5),
                              reference_normals(99, 3, 5)[None, :])

    def test_rows_do_not_depend_on_the_batch(self):
        paths = np.arange(2 * CHUNK_PATHS + 3)
        whole = path_normals(5, paths, 9)
        assert np.array_equal(whole[-3:], path_normals(5, paths[-3:], 9))
        assert np.array_equal(whole[CHUNK_PATHS], path_normals(5, [CHUNK_PATHS], 9)[0])


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

    def test_antithetic_needs_two_pairs(self):
        # one pair is one draw: no standard error exists
        with pytest.raises(DomainError):
            McConfig(2, 10, seed=1, antithetic=True)
        est = kappa_mc(STATE, PARAMS, CONTRACT,
                       McConfig(4, 10, seed=1, antithetic=True))
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)


class TestGolden:
    """Estimates frozen by repr from the per-path, process-pool engine."""

    CASES = {
        "plain": (McConfig(3000, 20, seed=99),
                  "McEstimate(mean=0.24878021982740672, std_error=0.0003913010273010795, n_paths=3000)",
                  "McEstimate(mean=0.0623507941427795, std_error=0.0002037624003269033, n_paths=3000)"),
        "antithetic": (McConfig(3000, 20, seed=21, antithetic=True),
                       "McEstimate(mean=0.24931800593891323, std_error=0.00012297549980049574, n_paths=3000)",
                       "McEstimate(mean=0.06264949434582255, std_error=8.04266900043171e-05, n_paths=3000)"),
        "two_blocks": (McConfig(8200, 5, seed=2 ** 70 + 3),
                       "McEstimate(mean=0.24925598853972167, std_error=0.00023627880641251237, n_paths=8200)",
                       "McEstimate(mean=0.0625862789249892, std_error=0.0001229818920352692, n_paths=8200)"),
        "one_step": (McConfig(1001, 1, seed=7),
                     "McEstimate(mean=0.24843341352773946, std_error=0.0005577007589659744, n_paths=1001)",
                     "McEstimate(mean=0.06203019109359602, std_error=0.000287816373549396, n_paths=1001)"),
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

    @pytest.mark.parametrize("t, alpha", [(-0.5, 0.4), (0.5, 40.0)],
                             ids=["before_accrual_start", "growth_overflow"])
    def test_expectation_domain(self, t, alpha):
        # alpha 40: e^(alpha^2 tau) = e^800 is beyond the float range
        state = MarketState(t=t, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError):
            variance_swap_expectation(state, SabrParams(alpha=alpha), CONTRACT)

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
