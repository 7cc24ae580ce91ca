"""Monte Carlo engine: exactness, reproducibility, the variance swap on kappa's
draws, and the step ladder that sizes the step count by the error."""

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
from volswap.mc_engine import (BATCH_FLOATS, BLOCK_PATHS, MC_STEP_BIAS, MC_TAIL,
                               McConfig, block_stream, kappa_mc, path_normals,
                               resolve_workers, step_ladder, trapezoid_growth,
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

    @pytest.mark.parametrize("n_steps", [1, 16, 250])
    def test_rewound_stream_equals_a_fresh_one(self, n_steps):
        # a worker's one stream, rewound from block to block, draws what each
        # block's own Philox stream draws
        seed = 2 ** 70 + 3
        stream = block_stream(seed, 0)
        start = stream.bit_generator.state
        for block in self.BLOCKS + [3, 0]:
            mc_engine._rewind(stream, start, block)
            got = path_normals(stream, np.empty((3, n_steps)))
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


def estimate_normals(config, n_steps):
    """The increments of every draw an estimate at ``config`` prices on
    n_steps steps, block after block."""
    n_draws = config.n_paths // 2
    return np.vstack([reference_normals(config.seed, block,
                                        min(BLOCK_PATHS, n_draws - lo), n_steps)
                      for block, lo in enumerate(range(0, n_draws, BLOCK_PATHS))])


def path_means(xi, s):
    """The engine's M_s of the paths of increments xi on their n steps, then
    on their even nodes (None at odd n): row 0 for each draw's path and row
    1 its mirror's."""
    buffers = np.stack([xi, np.empty_like(xi)])
    return mc_engine._path_means(buffers, s,
                                 mc_engine._trapezoid_weights(s, xi.shape[1]))


def estimate_means(config, s, n_steps):
    """M_s of every draw an estimate at ``config`` prices on n_steps steps."""
    return path_means(estimate_normals(config, n_steps), s)[0]


def direct_means(xi, s, sign=1.0):
    """Reference: each path priced on its own, the trapezoid by
    np.trapezoid over its nodes from v = 0 at 1, on every node and on the
    even nodes, for increments sign * xi."""
    n_steps = xi.shape[1]
    dv = s / n_steps
    nodes = np.cumsum(sign * 2.0 * math.sqrt(dv) * xi - dv, axis=1)
    path = np.hstack([np.ones((len(xi), 1)), np.exp(nodes)])
    return (np.trapezoid(path, dx=1.0 / n_steps, axis=1),
            np.trapezoid(path[:, ::2], dx=2.0 / n_steps, axis=1))


class TestWorkers:
    # 32 800 draws: 3 batches of 128 full blocks and one of 32 pairs; and
    # one block of 20
    CONFIGS = [McConfig(65_600, 10, seed=2), McConfig(40, 10, seed=2)]

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
                n_draws = config.n_paths // 2
                n_blocks = -(-n_draws // BLOCK_PATHS)
                # draws per batch, the unit of a worker
                batch = BLOCK_PATHS * max(
                    1, BATCH_FLOATS // (BLOCK_PATHS * config.n_steps))
                estimates = set()
                for workers in (1, 2, 3):
                    monkeypatch.setattr(mc_engine, "resolve_workers", lambda: workers)
                    threads.clear()
                    estimate = kappa_mc(STATE, PARAMS, CONTRACT, config)
                    estimates.add(payoff(estimate, fields + ("n_paths",)))
                    assert len(threads) == n_blocks
                    assert len(set(threads)) == min(workers, -(-n_draws // batch))
                assert len(estimates) == 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("alpha, levels", [(0.4, [16]), (4.0, [16, 250])],
                             ids=["s=0.08", "s=8"])
    def test_ladder_does_not_depend_on_the_worker_count(self, monkeypatch, alpha,
                                                        levels):
        # at cap 250: s = 0.08 stops at 16 steps; at s = 8 the 16-step level
        # misses the tail and sends the ladder to the cap
        steps = []

        def recorded(stream, out):
            steps.append(out.shape[1])
            return path_normals(stream, out)

        monkeypatch.setattr(mc_engine, "path_normals", recorded)
        config = McConfig(16_400, 250, seed=2)
        estimates = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(mc_engine, "resolve_workers", lambda: workers)
            steps.clear()
            estimates.add(repr(kappa_mc(STATE, SabrParams(alpha=alpha), CONTRACT,
                                        config)))
            assert sorted(set(steps)) == levels
        assert len(estimates) == 1

    @pytest.mark.parametrize("n_paths, n_steps", [(16_400, 10), (16_384, 16)],
                             ids=["16400x10", "16384x16"])
    def test_a_level_of_one_batch_runs_on_the_calling_thread(
            self, monkeypatch, n_paths, n_steps):
        # at most BATCH_FLOATS normals: 16 384 x 16 is 8 192 draws of 16, 2^17
        threads = []

        def recorded(stream, out):
            threads.append(threading.current_thread())
            return path_normals(stream, out)

        monkeypatch.setattr(mc_engine, "path_normals", recorded)
        monkeypatch.setattr(mc_engine, "resolve_workers", lambda: 2)
        kappa_mc(STATE, PARAMS, CONTRACT, McConfig(n_paths, n_steps, seed=2))
        assert set(threads) == {threading.main_thread()}

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
        # no path is drawn: no step, no step bias, no warning
        assert (est.n_steps, est.discretization, est.variance_swap_exact,
                est.variance_swap_z, est.warnings) == (0, 0.0, 0.04, 0.0, ())

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
            means = estimate_means(config, s, pair.n_steps)[0]
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
    #: error; at 2.45e307 and 30 000 pairs (two batches on 5 steps, so two
    #: workers start) kappa is finite, but the sum of squares about it
    #: overflows, so its standard error is inf; at 5e307 and alpha 1 a
    #: pair's payoff overflows, so the mean is inf
    BEYOND = [(0.4, 1e200, 200, "inf"), (0.4, 7e153, 60_000, "2.45e+307"),
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
        rows, halves = path_means(xi, self.S)
        assert halves is None                 # 7 steps have no half grid
        for got, sign in zip(rows, (1.0, -1.0)):
            nodes = np.cumsum(sign * 2.0 * math.sqrt(dv) * xi - dv, axis=1)
            path = np.hstack([np.ones((1000, 1)), np.exp(nodes)])
            expected = (path[:, 1:] + path[:, :-1]).sum(axis=1) / 14.0
            assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 16, 250])
    @pytest.mark.parametrize("s", [5e-4, 0.08, 0.8, 50.0, 709.7])
    def test_block_means_match_the_direct_formula(self, s, n_steps):
        # each path priced on its own: its nodes' running sum, their exp and
        # the trapezoid from node v = 0 at 1; near S_MAX the last nodes'
        # e^(-v) is subnormal
        xi = reference_normals(3, 0, 300, n_steps)
        rtol = 1e-13 if s <= 1.0 else 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, halves = path_means(xi, s)
            for row, sign in enumerate((1.0, -1.0)):
                every, even = direct_means(xi, s, sign)
                assert np.allclose(rows[row], every, rtol=rtol, atol=0.0)
                if n_steps % 2:
                    assert halves is None
                else:       # the n/2-step trapezoid over the same paths
                    assert np.allclose(halves[row], even, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 16])
    def test_sums_add_one_step_at_a_time(self, n_steps):
        # the trapezoid sums add the weighted terms of step 1, then 2, ...
        # in this fixed order, bit for bit, not numpy's pairwise order
        s = 0.3
        xi = reference_normals(5, 0, 300, n_steps)
        grown = np.exp(np.cumsum(xi, axis=1) * (2.0 * math.sqrt(s / n_steps)))
        weights = mc_engine._trapezoid_weights(s, n_steps)
        rows, halves = path_means(xi, s)
        for row, terms in enumerate((weights * grown, weights / grown)):
            total, half = np.zeros(300), np.zeros(300)
            for k in range(n_steps):
                total = np.add(total, terms[:, k])
                if k % 2:
                    half = np.add(half, terms[:, k])
            assert np.array_equal(rows[row], (total + 0.5) / n_steps)
            if n_steps % 2:
                assert halves is None
            else:
                assert np.array_equal(halves[row], (half + 0.5) / (n_steps // 2))

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 10, 16, 17, 250])
    def test_running_sum_by_step_rows_keeps_every_bit(self, n_steps):
        # the running sums formed a step row at a time equal np.cumsum along
        # each draw's row, bit for bit, with e^(2 B) past the float range
        # (inf, and its mirror's w/E at 0) among them
        def cumsum_means(xi, s, weights):
            grown = np.cumsum(xi, axis=1) * (2.0 * math.sqrt(s / n_steps))
            np.exp(grown, out=grown)
            steps = np.ascontiguousarray(grown.T)
            sums = [np.add.reduce(steps * weights[:, None], axis=0),
                    np.add.reduce(weights[:, None] / steps, axis=0)]
            halves = [np.add.reduce((steps * weights[:, None])[1::2], axis=0),
                      np.add.reduce((weights[:, None] / steps)[1::2], axis=0)]
            return ((np.array(sums) + 0.5) / n_steps,
                    (np.array(halves) + 0.5) / (n_steps // 2)
                    if n_steps % 2 == 0 else None)

        s = 0.3
        xi = reference_normals(7, 0, 600, n_steps)
        xi[::3] *= 1e4            # 2 B of those draws reaches +-1e4 or so
        weights = mc_engine._trapezoid_weights(s, n_steps)
        with np.errstate(over="ignore", divide="ignore"):
            expected = cumsum_means(xi, s, weights)
            got = path_means(xi, s)
        assert np.isinf(expected[0]).any()
        assert got[0].tobytes() == expected[0].tobytes()
        if n_steps % 2:
            assert got[1] is None
        else:
            assert got[1].tobytes() == expected[1].tobytes()

    def test_std_error_is_over_pairs(self):
        # n_paths counts paths; the standard error is over n_paths // 2 draws
        params = SabrParams(alpha=math.sqrt(2.0 * self.S))
        est = kappa_mc(STATE, params, CONTRACT, self.CONFIG)
        tau, s, _, _ = reduced_variables(STATE, params, CONTRACT)
        means = estimate_means(self.CONFIG, s, 7)
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
                        * path_means(reference_normals(13, 0, 1000, 7), s)[0][0])
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
    # holds repr((mean, std_error)) of kappa, then of the variance swap.
    # "plain" and "antithetic" stop at the ladder's 16 steps under their cap
    # of 20; the others are the estimates of a single level, the last the
    # cap's after every level misses the tail at s = 700.  "antithetic",
    # "sixteen_steps" and "s_700_cap" moved by <= 2.3e-16 relative when the
    # trapezoid sums began to add one step at a time
    CASES = {
        "plain": (McConfig(3000, 20, seed=99),
                  "(0.24903895777816148, 0.00011654733163209575)",
                  "(0.062465989734438634, 7.721541804282286e-05)"),
        "antithetic": (McConfig(3000, 20, seed=21),
                       "(0.2491878523430484, 0.000117734673257246)",
                       "(0.0625638573486222, 7.662905092185953e-05)"),
        "two_blocks": (McConfig(16_400, 5, seed=2 ** 70 + 3),
                       "(0.2491931698853605, 5.2797443733862455e-05)",
                       "(0.06256120650386617, 3.439998964378937e-05)"),
        "one_step": (McConfig(1002, 1, seed=7),
                     "(0.24931065550312628, 0.00027554346988087325)",
                     "(0.06253418493531387, 0.00016701857991705427)"),
        "sixteen_steps": (McConfig(3000, 16, seed=5),
                          "(0.24927492334134427, 0.00012442390709424902)",
                          "(0.06261596440073937, 8.114935852966981e-05)"),
        "s_700_cap": (McConfig(2000, 250, seed=1),
                      "(0.18786245722490083, 0.00321604117352418)",
                      "(0.05616693743639556, 0.011207379022328021)"),
    }
    #: each case's alpha where it is not PARAMS', and the steps it uses
    PARAMS_OF = {"s_700_cap": SabrParams(alpha=37.416573867739416)}
    STEPS = {"plain": 16, "antithetic": 16, "two_blocks": 5, "one_step": 1,
             "sixteen_steps": 16, "s_700_cap": 250}

    def estimate(self, case):
        return cached_mc(STATE, self.PARAMS_OF.get(case, PARAMS), CONTRACT,
                         self.CASES[case][0])

    @pytest.mark.parametrize("case", CASES)
    def test_steps(self, case):
        assert self.estimate(case).n_steps == self.STEPS[case]

    def test_two_blocks_case_spans_a_partial_block(self):
        n_draws = self.CASES["two_blocks"][0].n_paths // 2
        assert n_draws > BLOCK_PATHS and n_draws % BLOCK_PATHS

    @pytest.mark.parametrize("case", CASES)
    def test_kappa(self, case):
        config, kappa, _ = self.CASES[case]
        est = self.estimate(case)
        assert (payoff(est, PAYOFFS[0]), est.n_paths) == (kappa, config.n_paths)

    @pytest.mark.parametrize("case", CASES)
    def test_variance_swap(self, case):
        config, _, variance = self.CASES[case]
        est = self.estimate(case)
        assert (payoff(est, PAYOFFS[1]), est.n_paths) == (variance, config.n_paths)


class TestLadder:
    """The step count chosen by the same-draw step-halving and tail tests."""

    @pytest.mark.parametrize("cap, levels", [
        (1, [1]), (5, [5]), (16, [16]), (17, [16, 17]), (20, [16, 20]),
        (32, [16, 32]), (33, [16, 32, 33]), (250, [16, 32, 64, 128, 250])])
    def test_levels(self, cap, levels):
        assert step_ladder(cap) == levels

    @pytest.mark.parametrize("alpha, chosen", [(0.4, 16), (math.sqrt(1.6), 16)],
                             ids=["s=0.08", "s=0.8"])
    def test_a_cap_above_the_chosen_level_changes_nothing(self, alpha, chosen):
        params = SabrParams(alpha=alpha)
        estimates = {repr(cached_mc(STATE, params, CONTRACT,
                                    McConfig(4000, cap, seed=9)))
                     for cap in (chosen, 20, 64, 250, 1000)}
        [estimate] = estimates
        assert f"n_steps={chosen}," in estimate and "warnings=()" in estimate

    @pytest.mark.parametrize("n_steps", [2, 10, 16])
    @pytest.mark.parametrize("nu", [0.03, 0.0])
    def test_discretization_is_the_even_node_trapezoid(self, n_steps, nu):
        # D_n = kappa_n - kappa_(n/2), both over the same paths: each path
        # by np.trapezoid on every node and on the even nodes of its normals
        state = MarketState(t=0.5, sigma=0.25, nu=nu)
        params = SabrParams(alpha=math.sqrt(1.6))
        config = McConfig(2000, n_steps, seed=3)
        est = kappa_mc(state, params, CONTRACT, config)
        tau, s, _, _ = reduced_variables(state, params, CONTRACT)
        xi = estimate_normals(config, n_steps)
        pairs = []
        for grid in range(2):
            means = np.array([direct_means(xi, s, sign)[grid] for sign in (1.0, -1.0)])
            pairs.append(np.sqrt(nu + state.sigma ** 2 * tau * means).mean(axis=0))
        expected = float(np.mean(pairs[0] - pairs[1]))
        assert est.n_steps == n_steps and expected != 0.0
        assert abs(est.discretization - expected) <= 1e-14 * est.mean

    @pytest.mark.parametrize("n_steps", [1, 5, 7])
    def test_odd_step_counts_have_no_discretization(self, n_steps):
        est = kappa_mc(STATE, PARAMS, CONTRACT, McConfig(2000, n_steps, seed=3))
        assert est.discretization is None
        assert est.warnings == (MC_STEP_BIAS,)

    @pytest.mark.parametrize("n_steps", [1, 2, 16, 250])
    @pytest.mark.parametrize("s", [1e-300, 5e-4, 0.08, 8.0, 700.0])
    def test_variance_swap_exact_is_the_trapezoid_of_e_v(self, s, n_steps):
        # E[e^(2 B_v - v)] = e^v at every node: the hand trapezoid of e^v
        nodes = [math.exp(k * s / n_steps) for k in range(n_steps + 1)]
        hand = math.fsum([0.5 * nodes[0], *nodes[1:-1], 0.5 * nodes[-1]]) / n_steps
        assert trapezoid_growth(s, n_steps) == pytest.approx(hand, rel=1e-13)
        assert trapezoid_growth(s, 10 ** 9) == pytest.approx(
            math.expm1(s) / s, rel=1e-8)

    @pytest.mark.parametrize("n_steps", [10, 250])
    def test_variance_swap_z_is_its_distance_from_the_exact_mean(self, n_steps):
        est = kappa_mc(STATE, PARAMS, CONTRACT, McConfig(2000, n_steps, seed=4))
        tau, s, _, _ = reduced_variables(STATE, PARAMS, CONTRACT)
        exact = STATE.nu + STATE.sigma ** 2 * tau * trapezoid_growth(s, est.n_steps)
        assert est.variance_swap_exact == exact
        assert est.variance_swap_z == (est.variance_swap - exact) / (
            est.variance_swap_se + mc_engine.ROUNDING * exact)
        assert abs(est.variance_swap_z) <= mc_engine.TAIL_Z

    @pytest.mark.parametrize("alpha", [1e-200, 1e-12, 1e-9])
    def test_rounding_alone_is_no_warning(self, alpha):
        # one ulp of the variance swap was 47 of its standard errors at
        # alpha = 1e-12, and at alpha = 1e-200 s is 0
        est = kappa_mc(STATE, SabrParams(alpha=alpha), CONTRACT,
                       McConfig(10_000, 250, seed=1))
        assert (est.n_steps, est.warnings) == (16, ())

    def test_a_missed_tail_is_flagged_at_the_cap(self):
        # s = 8 (known defect 3): at 10 000 paths the 128-step level's z is
        # -2.58 and the cap's +0.74, but the 16-step level's is -7.0: the
        # ladder skips to the cap, whose estimate is flagged
        est = kappa_mc(STATE, SabrParams(alpha=4.0), CONTRACT,
                       McConfig(10_000, 250, seed=1))
        assert (est.n_steps, est.warnings) == (250, (MC_TAIL,))
        assert repr((est.mean, est.std_error)) == (
            "(0.43270266353773634, 0.056693290054211164)")
        assert abs(est.variance_swap_z) <= mc_engine.TAIL_Z

    def test_s_700_is_flagged_at_the_cap(self):
        est = cached_mc(STATE, SabrParams(alpha=37.416573867739416), CONTRACT,
                        McConfig(2000, 250, seed=1))
        assert est.n_steps == 250 and MC_TAIL in est.warnings
        assert est.variance_swap_z < -1e12

    PDE_S = [5e-4, 0.0088, 0.08, 0.45, 0.7]

    @pytest.mark.parametrize("zeta", [0.02, 3.17, 40.0, None],
                             ids=["zeta=0.02", "zeta=3.17", "zeta=40", "nu=0"])
    @pytest.mark.parametrize("s", PDE_S)
    def test_chosen_level_agrees_with_the_pde(self, s, zeta):
        from volswap.pde_engine import kappa_quadrature
        alpha = math.sqrt(2.0 * s)
        state = (MarketState(t=0.5, sigma=0.25, nu=0.0) if zeta is None else
                 MarketState(t=0.5, sigma=alpha * math.sqrt(2.0 * zeta * 0.03),
                             nu=0.03))
        params = SabrParams(alpha=alpha)
        est = kappa_mc(state, params, CONTRACT, McConfig(16_384, 250, seed=1))
        pde = kappa_quadrature(state, params, CONTRACT)
        assert est.n_steps < 250 and est.warnings == ()
        assert abs(est.mean - pde) <= 4.0 * est.std_error + 1e-5 * pde


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
