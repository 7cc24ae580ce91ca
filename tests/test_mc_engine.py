"""Monte Carlo engine: exactness, reproducibility, the variance swap on kappa's draws."""

import functools
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from volswap import mc_engine
from volswap.exceptions import DomainError
from volswap.mc_engine import (BLOCK_PATHS, McConfig, block_stream, kappa_mc,
                               path_normals, resolve_workers,
                               variance_swap_expectation)
from volswap.model import MarketState, SabrParams, SwapContract, reduced_variables

CONTRACT = SwapContract(t0=0.0, tenor=1.0)
STATE = MarketState(t=0.5, sigma=0.25, nu=0.03)
PARAMS = SabrParams(alpha=0.4)

#: each payoff's (mean, standard error) fields of one kappa_mc estimate, by
#: the id of the estimator that once valued that payoff alone
PAYOFFS = [("mean", "std_error"), ("variance_swap", "variance_swap_se")]
PAYOFF_IDS = ["kappa_mc", "variance_swap_mc"]
#: kappa_mc for tests that read an estimate and do not count its draws
cached_mc = functools.cache(kappa_mc)


def payoff(estimate, fields):
    """repr of the tuple of an estimate's named fields."""
    return repr(tuple(getattr(estimate, field) for field in fields))


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
        # and however its stream is cut into batches
        def draws(n_steps, *sizes):
            stream = block_stream(5, 2)
            return np.vstack([path_normals(stream, np.empty((m, n_steps)))
                              for m in sizes])

        for n_steps in (1, 3, 9):
            whole = draws(n_steps, 2 * BLOCK_PATHS + 3)
            assert np.array_equal(draws(n_steps, 1, 2, BLOCK_PATHS, 5),
                                  whole[:BLOCK_PATHS + 8])
            assert np.array_equal(draws(n_steps, 1), whole[:1])


def estimate_means(config, s):
    """M_s of every draw an estimate at ``config`` prices, block after block:
    row 0 for each draw's path and row 1 its mirror's."""
    n_draws = config.n_paths // 2
    return np.hstack([
        mc_engine._block_means(config, block, s, np.empty(
            (2, min(BLOCK_PATHS, n_draws - lo), config.n_steps)))
        for block, lo in enumerate(range(0, n_draws, BLOCK_PATHS))])


class TestWorkers:
    # 8 200 draws: 32 full blocks and one of 8 pairs; and one block of 20
    CONFIGS = [McConfig(16_400, 10, seed=2), McConfig(40, 10, seed=2)]

    @pytest.mark.parametrize("fields", PAYOFFS, ids=PAYOFF_IDS)
    def test_estimate_does_not_depend_on_the_worker_count(self, fields,
                                                          monkeypatch):
        threads = []

        def recorded(stream, out):
            threads.append(threading.current_thread())
            return path_normals(stream, out)

        monkeypatch.setattr(mc_engine, "path_normals", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch often, so a lost write would show
        try:
            for config in self.CONFIGS:
                n_blocks = -(-config.n_paths // 2 // BLOCK_PATHS)
                estimates = set()
                for workers in (1, 2, 3):
                    monkeypatch.setattr(mc_engine, "resolve_workers", lambda: workers)
                    threads.clear()
                    estimate = kappa_mc(STATE, PARAMS, CONTRACT, config)
                    estimates.add(payoff(estimate, fields + ("n_paths",)))
                    assert len(threads) == n_blocks
                    assert len(set(threads)) == min(workers, n_blocks)
                assert len(estimates) == 1
        finally:
            sys.setswitchinterval(interval)

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        def failing(stream, out):
            # a fresh block stream's counter is (0, 0, block, 0)
            if stream.bit_generator.state["state"]["counter"][2] == 5:
                raise ZeroDivisionError("block 5")
            return path_normals(stream, out)

        monkeypatch.setattr(mc_engine, "path_normals", failing)
        monkeypatch.setattr(mc_engine, "resolve_workers", lambda: 2)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="block 5"):
            kappa_mc(STATE, PARAMS, CONTRACT, self.CONFIGS[0])
        assert threading.active_count() == before

    def test_resolve_workers_is_the_affinity_count(self, monkeypatch):
        monkeypatch.delenv("VOLSWAP_THREADS", raising=False)
        assert resolve_workers() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("limit, workers", [("1", 1), ("100000", None)])
    def test_threads_variable_only_lowers_the_count(self, monkeypatch, limit,
                                                    workers):
        monkeypatch.setenv("VOLSWAP_THREADS", limit)
        assert resolve_workers() == (workers or len(os.sched_getaffinity(0)))

    @pytest.mark.parametrize("limit", ["0", "-2", "two"])
    def test_threads_variable_not_a_positive_integer_is_domain_error(
            self, monkeypatch, limit):
        monkeypatch.setenv("VOLSWAP_THREADS", limit)
        with pytest.raises(DomainError, match="VOLSWAP_THREADS"):
            resolve_workers()


class TestChunking:
    def test_block_peak_memory_is_bounded(self, monkeypatch):
        # 8 192 paths of 1 000 steps hold 65 MB of normals and their exp at
        # once unless the blocks are drawn and priced a few at a time
        monkeypatch.setattr(mc_engine, "resolve_workers", lambda: 2)
        config = McConfig(8192, 1000, seed=4)
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


class TestSizeBounds:
    @pytest.mark.parametrize("n_paths, n_steps", [(1000, 100_000_000),
                                                  (100_000_000_000, 250),
                                                  (2 ** 21 + 2, 512)])
    def test_path_steps_past_the_cap_are_domain_error(self, n_paths, n_steps):
        # refused from the inputs: --steps 1e8 needed 381 GiB of buffers
        with pytest.raises(DomainError, match="MAX_PATH_STEPS = 1073741824"):
            McConfig(n_paths, n_steps, seed=1)

    @pytest.mark.parametrize("n_paths, n_steps", [(4, 2 ** 22), (512, 2 ** 14 + 1)])
    def test_worker_buffer_past_the_cap_is_domain_error(self, n_paths, n_steps):
        with pytest.raises(DomainError, match="MAX_BUFFER_FLOATS = 8388608"):
            McConfig(n_paths, n_steps, seed=1)

    @pytest.mark.parametrize("n_paths, n_steps", [
        (100_000, 250), (2 ** 19, 512), (8192, 1000), (2 ** 21, 512),
        (512, 2 ** 14), (4, 2 ** 21)])
    def test_sizes_in_use_and_at_the_caps_are_admitted(self, n_paths, n_steps):
        # the CLI default, the largest probe, the memory test, then each cap
        assert McConfig(n_paths, n_steps, seed=1).n_steps == n_steps


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
        # a pair cancels the payoff's first order in the increments, so its
        # spread is ~4e-2 alpha^2 against a mean of ~0.25: sums of squares
        # about zero cancel it away at small alpha, centred sums keep it
        # until alpha^2 nears the rounding of the mean
        config = McConfig(10_000, 50, seed=1)
        ratios = [kappa_mc(STATE, SabrParams(alpha=10.0 ** -k), CONTRACT,
                           config).std_error * 10.0 ** (2 * k) for k in range(2, 7)]
        assert max(ratios) <= 1.05 * min(ratios)
        assert all(kappa_mc(STATE, SabrParams(alpha=10.0 ** -k), CONTRACT,
                            config).std_error > 0.0 for k in range(7, 13))

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
        # the same paths drawn plainly: row 0 of the blocks, the first path
        # of every pair; compared per path, at s = 0.08 and 0.8
        config = McConfig(8000, 100, seed=21)
        for alpha in (0.4, math.sqrt(1.6)):
            params = SabrParams(alpha=alpha)
            pair = kappa_mc(STATE, params, CONTRACT, config)
            tau, s, _, _ = reduced_variables(STATE, params, CONTRACT)
            means = estimate_means(config, s)[0]
            payoffs = np.sqrt(STATE.nu + STATE.sigma ** 2 * tau * means)
            plain_se = payoffs.std(ddof=1) / math.sqrt(payoffs.size)
            combined = math.hypot(plain_se, pair.std_error)
            assert abs(payoffs.mean() - pair.mean) <= 3.0 * combined
            assert (pair.std_error ** 2 * config.n_paths
                    < plain_se ** 2 * payoffs.size), alpha

    def test_antithetic_requires_even_paths(self):
        for n_paths in (1001, 3, -2):
            with pytest.raises(DomainError, match="n_paths must be even and >= 4"):
                McConfig(n_paths, 10, seed=1)

    def test_before_accrual_start_is_domain_error(self):
        state = MarketState(t=-0.5, sigma=0.25, nu=0.03)
        with pytest.raises(DomainError, match="outside the accrual window"):
            kappa_mc(state, PARAMS, CONTRACT, McConfig(1000, 10, seed=1))

    def test_s_overflow_is_domain_error(self):
        # alpha^2 tau rounds to inf: every path would be nan
        with pytest.raises(DomainError, match="not finite"):
            kappa_mc(STATE, SabrParams(alpha=1e200), CONTRACT,
                     McConfig(100, 5, seed=1))

    @pytest.mark.parametrize("fields", PAYOFFS, ids=PAYOFF_IDS)
    def test_s_beyond_float_range_is_domain_error(self, fields):
        # s = 800 is finite, but e^s - 1 is not: the PDE's rule applies here
        # too, where every path's sigma collapsed to a confident constant
        with pytest.raises(DomainError, match=r"800\.0: e\^s - 1 is not finite"):
            payoff(kappa_mc(STATE, SabrParams(alpha=40.0), CONTRACT,
                            McConfig(1000, 10, seed=1)), fields)

    def test_antithetic_needs_two_pairs(self):
        # one pair is one draw: no standard error exists
        with pytest.raises(DomainError):
            McConfig(2, 10, seed=1)
        est = kappa_mc(STATE, PARAMS, CONTRACT, McConfig(4, 10, seed=1))
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)

    #: (alpha, sigma, n_paths, sigma^2 tau) of valid contracts beyond the
    #: float range: sigma^2 tau = inf gave kappa inf with a nan standard
    #: error; at 2.45e307 and 20 000 pairs kappa is finite, but the sum of
    #: squares about it overflows, so its standard error is inf; at 5e307
    #: and alpha 1 a pair's payoff overflows, so the mean is inf
    BEYOND = [(0.4, 1e200, 200, "inf"), (0.4, 7e153, 40_000, "2.45e+307"),
              (1.0, 1e154, 200, "5e+307")]
    BEYOND_IDS = ["mean", "std_error", "finite_sigma2_tau"]

    @pytest.mark.parametrize("fields", PAYOFFS, ids=PAYOFF_IDS)
    @pytest.mark.parametrize("alpha, sigma, n_paths, variance", BEYOND,
                             ids=BEYOND_IDS)
    def test_estimate_beyond_float_range_is_domain_error(self, fields, alpha,
                                                         sigma, n_paths, variance):
        # kappa's refusal holds for the whole estimate, its variance swap too
        state = MarketState(t=0.5, sigma=sigma, nu=0.03)
        message = re.escape(f"sigma^2 tau = {variance}: ")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=message):
                payoff(kappa_mc(state, SabrParams(alpha=alpha), CONTRACT,
                                McConfig(n_paths, 5, seed=3)), fields)

    @pytest.mark.parametrize("fields", PAYOFFS, ids=PAYOFF_IDS)
    @pytest.mark.parametrize("alpha, sigma, n_paths, variance", BEYOND,
                             ids=BEYOND_IDS)
    def test_estimate_beyond_float_range_warns_nothing(self, fields, alpha,
                                                       sigma, n_paths, variance,
                                                       monkeypatch):
        # numpy warned of the overflow (or of inf - inf) above the refusal;
        # errstate is per thread, so each worker must silence its own
        state = MarketState(t=0.5, sigma=sigma, nu=0.03)
        for workers in (1, 2):
            monkeypatch.setattr(mc_engine, "resolve_workers", lambda: workers)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=r"sigma\^2 tau = "):
                    payoff(kappa_mc(state, SabrParams(alpha=alpha), CONTRACT,
                                    McConfig(n_paths, 5, seed=3)), fields)

    def test_pair_keeps_sigma2_tau_5e307_finite_at_alpha_0_4(self):
        # a pair's two payoffs stay close, so the sum of squares about the
        # mean stays finite where single paths' overflowed; the variance
        # swap's sum overflows, and kappa is returned all the same
        state = MarketState(t=0.5, sigma=1e154, nu=0.03)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = kappa_mc(state, PARAMS, CONTRACT, McConfig(200, 5, seed=3))
        assert payoff(est, ("mean", "std_error", "n_paths")) == (
            "(7.111298701594839e+153, 1.9932453378167703e+151, 200)")
        assert est.variance_swap == math.inf
        assert not math.isfinite(est.variance_swap_se)


class TestPairs:
    CONFIG = McConfig(2000, 7, seed=13)   # 1 000 pairs
    S = 0.3

    def test_second_row_mirrors_the_first(self):
        # row 1 is M_s of the increments -xi: the trapezoid mean of
        # e^(2 B_v - v) along the mirrored path
        xi = reference_normals(13, 0, 1000, 7)
        dv = self.S / 7
        rows = mc_engine._block_means(self.CONFIG, 0, self.S, np.empty((2, 1000, 7)))
        for got, sign in zip(rows, (1.0, -1.0)):
            nodes = np.cumsum(sign * 2.0 * math.sqrt(dv) * xi - dv, axis=1)
            path = np.hstack([np.ones((1000, 1)), np.exp(nodes)])
            expected = (path[:, 1:] + path[:, :-1]).sum(axis=1) / 14.0
            assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n_steps", [1, 7, 250])
    @pytest.mark.parametrize("s", [5e-4, 0.08, 0.8, 50.0, 709.7])
    def test_block_means_match_the_direct_formula(self, s, n_steps):
        # each path priced on its own: its nodes' running sum, their exp and
        # the trapezoid from node v = 0 at 1; near S_MAX the last nodes'
        # e^(-v) is subnormal
        xi = reference_normals(3, 0, 300, n_steps)
        dv = s / n_steps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = mc_engine._block_means(McConfig(600, n_steps, seed=3), 0, s,
                                          np.empty((2, 300, n_steps)))
            for got, sign in zip(rows, (1.0, -1.0)):
                nodes = np.cumsum(sign * 2.0 * math.sqrt(dv) * xi - dv, axis=1)
                path = np.hstack([np.ones((300, 1)), np.exp(nodes)])
                expected = np.trapezoid(path, dx=1.0 / n_steps, axis=1)
                rtol = 1e-13 if s <= 1.0 else 1e-12
                assert np.allclose(got, expected, rtol=rtol, atol=0.0)

    def test_std_error_is_over_pairs(self):
        # n_paths counts paths; the standard error is over n_paths // 2 draws
        params = SabrParams(alpha=math.sqrt(2.0 * self.S))
        est = kappa_mc(STATE, params, CONTRACT, self.CONFIG)
        tau, s, _, _ = reduced_variables(STATE, params, CONTRACT)
        means = estimate_means(self.CONFIG, s)
        pairs = np.sqrt(STATE.nu + STATE.sigma ** 2 * tau * means).mean(axis=0)
        assert est.n_paths == 2000
        assert est.mean == pytest.approx(pairs.mean(), rel=1e-14)
        assert est.std_error == pytest.approx(
            pairs.std(ddof=1) / math.sqrt(1000), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.2, 1.0], ids=["s=0.02", "s=0.5"])
    def test_pairs_tighten_at_nu_zero(self, alpha):
        # G = E[sqrt(A_s)]: the payoff still rises with every increment
        state = MarketState(t=0.5, sigma=0.25, nu=0.0)
        params = SabrParams(alpha=alpha)
        pair = kappa_mc(state, params, CONTRACT, self.CONFIG)
        tau, s, _, _ = reduced_variables(state, params, CONTRACT)
        plain = np.sqrt(state.sigma ** 2 * tau
                        * mc_engine._block_means(self.CONFIG, 0, s,
                                                 np.empty((2, 1000, 7)))[0])
        assert pair.std_error ** 2 * 2000 < plain.var(ddof=1)


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

    @pytest.mark.parametrize("fields", PAYOFFS, ids=PAYOFF_IDS)
    def test_estimate_depends_on_s_alone(self, fields):
        config = McConfig(4000, 20, seed=3)
        first, second = (payoff(cached_mc(state, params, CONTRACT, config), fields)
                         for params, state in self.POINTS)
        assert first == second


class TestGolden:
    """Estimates frozen by repr from the reduced kernel of (s, n_steps) on
    numpy's ziggurat normals, one Philox stream per fixed block of
    antithetic pairs."""

    # every case draws antithetic pairs; "plain" is only the first case's
    # name, and "two_blocks" spans 33 blocks, the last partial.  Each case
    # holds repr((mean, std_error)) of kappa, then of the variance swap
    CASES = {
        "plain": (McConfig(3000, 20, seed=99),
                  "(0.24913711509497966, 0.0001184631745000664)",
                  "(0.06253239801448378, 7.7550142425626e-05)"),
        "antithetic": (McConfig(3000, 20, seed=21),
                       "(0.24919763919822965, 0.00012539961954147663)",
                       "(0.06256724090403532, 8.266513596459459e-05)"),
        "two_blocks": (McConfig(16_400, 5, seed=2 ** 70 + 3),
                       "(0.2491931698853605, 5.2797443733862455e-05)",
                       "(0.06256120650386617, 3.439998964378937e-05)"),
        "one_step": (McConfig(1002, 1, seed=7),
                     "(0.24931065550312628, 0.00027554346988087325)",
                     "(0.06253418493531387, 0.00016701857991705427)"),
    }

    def test_two_blocks_case_spans_a_partial_block(self):
        n_draws = self.CASES["two_blocks"][0].n_paths // 2
        assert n_draws > BLOCK_PATHS and n_draws % BLOCK_PATHS

    @pytest.mark.parametrize("case", CASES)
    def test_kappa(self, case):
        config, kappa, _ = self.CASES[case]
        est = cached_mc(STATE, PARAMS, CONTRACT, config)
        assert (payoff(est, PAYOFFS[0]), est.n_paths) == (kappa, config.n_paths)

    @pytest.mark.parametrize("case", CASES)
    def test_variance_swap(self, case):
        config, _, variance = self.CASES[case]
        est = cached_mc(STATE, PARAMS, CONTRACT, config)
        assert (payoff(est, PAYOFFS[1]), est.n_paths) == (variance, config.n_paths)


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
        est = kappa_mc(state, params, CONTRACT, McConfig(60_000, 200, seed=31))
        expected = variance_swap_expectation(state, params, CONTRACT)
        assert abs(est.variance_swap - expected) <= 3.0 * est.variance_swap_se

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
        est = kappa_mc(state, PARAMS, CONTRACT, McConfig(120_000, n_steps, seed=11))
        assert abs(est.variance_swap - expected) <= 3.0 * est.variance_swap_se

    def test_mc_terminal(self):
        state = MarketState(t=1.0, sigma=0.2, nu=0.05)
        est = kappa_mc(state, PARAMS, CONTRACT, McConfig(100, 5, seed=2))
        assert est.variance_swap == 0.05 and est.variance_swap_se == 0.0

    def test_mc_deterministic_limit(self):
        params = SabrParams(alpha=1e-12)
        est = kappa_mc(STATE, params, CONTRACT, McConfig(2000, 50, seed=8))
        assert est.variance_swap == pytest.approx(0.03 + 0.25 ** 2 * 0.5, rel=1e-10)
        assert est.variance_swap_se < 1e-9
