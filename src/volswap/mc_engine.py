"""Monte Carlo oracle for the volatility swap.

With v = alpha^2 u, dsigma = alpha sigma dZ gives sigma_u^2 = sigma^2
e^(2 B_v - v) for a standard Brownian motion B, so the realized variance is
nu + sigma^2 tau M_s, with M_s the time average of e^(2 B_v - v) over [0, s]
and s = alpha^2 tau.  A path needs s and n_steps alone: B is exact on the
n-step grid of [0, s] and M is the trapezoid mean over its nodes.  tau, s
and sqrt(nu)/T are :func:`~volswap.model.reduced_variables`'.

Every draw is an antithetic pair, the paths of increments xi and -xi, valued
at the mean of their payoffs; n_paths counts paths, twice the draws.  A
payoff rises with every increment, so a pair never has more variance per
path than two independent paths (Glasserman, Monte Carlo Methods in
Financial Engineering, 2003, sec. 4.2); its two paths share one running
sum and one exp.

Reproducibility contract: draws are reduced in fixed blocks of
BLOCK_PATHS, each with one counter-based Philox4x64-10 stream (Salmon et
al., SC 2011) keyed by the seed with the block index in its counter.
numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) draws a
block's normals, no inverse CDF, one row of n_steps per draw.  The blocks
are spread over W = :func:`resolve_workers` threads, at most one per block,
block w + kW on worker w and worker 0 the calling thread: numpy's draws
and ufuncs release the GIL, so the workers run on as many cores.  Each
block reduces both payoffs of :func:`kappa_mc`, kappa's and the variance
swap's, whose exact mean checks the draws, to a sum and a centred sum of
squares in a fixed order; the calling thread merges them in block order
by the Chan-Golub-LeVeque update, which keeps the standard error's spread
far below the mean.  So an estimate depends on its config alone, bit for
bit, at any worker count.

Work is bounded from the inputs: :class:`McConfig` refuses more than
``MAX_PATH_STEPS`` path steps n_paths * n_steps, and a worker buffer, the
2 min(BLOCK_PATHS, n_paths/2) n_steps floats of a block's normals and their
e^(2 B), of more than ``MAX_BUFFER_FLOATS``, with :class:`DomainError`
before anything is allocated.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .model import MarketState, SabrParams, SwapContract, reduced_variables

#: draws (antithetic pairs) per reduction block, the unit of work of a
#: worker thread; fixed, so an estimate never depends on the worker count,
#: and small, so a worker's two buffers, the normals and their e^(2 B),
#: stay in cache.
BLOCK_PATHS = 256
#: most path steps n_paths * n_steps of one estimate, 2^30: about 18 s on
#: one core of a 2-core x86 machine, four times the largest size in use
#: (2^19 paths on 512 steps; the CLI default is 100 000 paths on 250).
MAX_PATH_STEPS = 2 ** 30
#: most floats in a worker's buffer, 2^23 (64 MiB): full blocks of up to
#: 16 384 steps.
MAX_BUFFER_FLOATS = 2 ** 23


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        if self.n_paths % 2 or self.n_paths < 4:
            # a pair is one draw, and a standard error needs two draws
            raise DomainError(f"n_paths must be even and >= 4, got {self.n_paths}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0 <= self.seed < 2 ** 128:
            raise DomainError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.n_paths * self.n_steps > MAX_PATH_STEPS:
            raise DomainError(
                f"{self.n_paths} paths on {self.n_steps} steps is more than "
                f"MAX_PATH_STEPS = {MAX_PATH_STEPS} path steps")
        rows = 2 * min(BLOCK_PATHS, self.n_paths // 2)
        if rows * self.n_steps > MAX_BUFFER_FLOATS:
            raise DomainError(
                f"a worker buffer of {rows} rows of {self.n_steps} steps is more "
                f"than MAX_BUFFER_FLOATS = {MAX_BUFFER_FLOATS} floats")


@dataclass(frozen=True)
class McEstimate:
    """kappa's sample mean over the antithetic pairs and its standard error
    over n_paths // 2 draws, then the variance swap's on the same draws;
    n_paths counts both paths of every pair."""

    mean: float
    std_error: float
    n_paths: int
    variance_swap: float
    variance_swap_se: float


def resolve_workers() -> int:
    """Threads an estimate may draw its blocks on: the CPUs this process may
    run on, lowered to the positive integer in ``VOLSWAP_THREADS`` if set.
    An estimate starts no more workers than it has blocks.  Raises
    :class:`DomainError` on a ``VOLSWAP_THREADS`` that is no positive
    integer."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    limit = os.environ.get("VOLSWAP_THREADS", str(cpus))
    if not (limit.isdecimal() and int(limit) >= 1):
        raise DomainError(f"VOLSWAP_THREADS must be a positive integer, got {limit!r}")
    return min(cpus, int(limit))


def block_stream(seed: int, block: int) -> np.random.Generator:
    """The Philox4x64-10 stream of reduction block ``block``: key ``seed``,
    counter (0, 0, block, 0), so blocks never share a word."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, block, 0]))


def path_normals(stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Standard normals of the next draws of a block's stream, into ``out``.

    Row i of ``out`` takes the stream's next n_steps = out.shape[1] normals,
    in order; a block's first draws are thus the same however many follow.
    """
    return stream.standard_normal(out=out)


def _block_means(config: McConfig, block: int, s: float,
                 buffers: np.ndarray) -> np.ndarray:
    """M_s of the block's first n draws, for ``buffers`` of shape
    (2, n, n_steps): the trapezoid mean over n_steps of e^(2 B_v - v) on
    [0, s], row 0 for each draw's path and row 1 its mirror's.  At node k,
    2 B_v - v = scale W_k - k s/n for the increments' running sum W, so with
    E = e^(scale W) and w_k = e^(-k s/n), w_n halved, M is
    (1/2 + sum w E)/n for the path and (1/2 + sum w/E)/n for its mirror."""
    n_steps = config.n_steps
    scale = 2.0 * math.sqrt(s / n_steps)            # sd of 2 B_v per step
    weights = np.exp(np.arange(1, n_steps + 1) * -(s / n_steps))
    weights[-1] *= 0.5

    xi = path_normals(block_stream(config.seed, block), buffers[0])
    grown = np.cumsum(xi, axis=1, out=buffers[1])
    grown *= scale
    np.exp(grown, out=grown)                          # E; xi is spent
    # numpy's row sums, not BLAS: the same on every host and thread count
    sums = np.empty((2, len(xi)))
    np.multiply(grown, weights, out=xi).sum(axis=1, out=sums[0])
    np.divide(weights, grown, out=xi).sum(axis=1, out=sums[1])
    return (sums + 0.5) / n_steps


def _finite(variance: float, *values: float) -> None:
    """Refuse sigma^2 tau, or an estimate from it, beyond the float range."""
    if not all(map(math.isfinite, (variance, *values))):
        raise DomainError(f"sigma^2 tau = {variance}: the estimate is not finite")


def kappa_mc(state: MarketState, params: SabrParams, contract: SwapContract,
             config: McConfig) -> McEstimate:
    """Sample estimates of kappa = E[(1/T) sqrt(nu + sigma^2 tau M_s)] and of
    the variance swap E[nu + sigma^2 tau M_s], on the same draws.

    At tau = 0 both are exact, with zero standard errors.  Raises
    :class:`DomainError` where sigma^2 tau takes kappa or its standard error
    beyond the float range; the variance swap is returned as computed.
    """
    tau, s, _, root_nu = reduced_variables(state, params, contract)
    if tau == 0.0:
        return McEstimate(mean=root_nu, std_error=0.0, n_paths=config.n_paths,
                          variance_swap=state.nu, variance_swap_se=0.0)

    variance = state.sigma * state.sigma * tau     # sigma^2 tau, times M_s
    _finite(variance)
    n_draws = config.n_paths // 2
    n_blocks = -(-n_draws // BLOCK_PATHS)
    workers = min(resolve_workers(), n_blocks)
    # per block, kappa's and the variance swap's sums and centred sums of squares
    sums, squares, swap_sums, swap_squares = ([0.0] * n_blocks for _ in range(4))
    errors = []

    def work(first: int) -> None:
        """Blocks first, first + workers, ...; a failure is kept for the
        caller and stops every worker at its next block."""
        try:
            # errstate is per thread.  A finite sigma^2 tau may still
            # overflow the payoffs or their moments; _finite refuses that
            # for kappa after the merge, so numpy need not warn of it
            with np.errstate(over="ignore", invalid="ignore"):
                # one pair of buffers per worker: fresh block-sized temporaries
                # cost the process ~35 000 page faults per 16 384 x 250 estimate
                buffers = np.empty((2, min(BLOCK_PATHS, n_draws), config.n_steps))
                for block in range(first, n_blocks, workers):
                    if errors:
                        return
                    means = _block_means(config, block, s, buffers[
                        :, :min(BLOCK_PATHS, n_draws - block * BLOCK_PATHS)])
                    realized = state.nu + variance * means
                    for payoffs, to_sums, to_squares in (
                            (np.sqrt(realized) / contract.tenor, sums, squares),
                            (realized, swap_sums, swap_squares)):
                        vals = payoffs.mean(axis=0)
                        to_sums[block] = float(np.sum(vals))
                        to_squares[block] = float(
                            np.sum(np.square(vals - to_sums[block] / vals.size)))
        except BaseException as exc:     # re-raised by the caller
            errors.append(exc)

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=work, args=(first,))
            thread.start()
            threads.append(thread)
        work(0)
    except BaseException as exc:     # a thread that would not start stops the rest
        errors.append(exc)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    merged = []     # mean and standard error of each payoff
    for payoff_sums, payoff_squares in ((sums, squares), (swap_sums, swap_squares)):
        total = m2 = 0.0
        for block, (block_sum, block_m2) in enumerate(zip(payoff_sums, payoff_squares)):
            lo = block * BLOCK_PATHS
            size = min(BLOCK_PATHS, n_draws - lo)
            if lo:   # Chan-Golub-LeVeque merge with the lo draws before
                delta = block_sum / size - total / lo
                m2 += delta * delta * lo * size / (lo + size)
            m2 += block_m2
            total += block_sum
        merged += [total / n_draws, math.sqrt(m2 / (n_draws - 1) / n_draws)]
    mean, std_error, swap, swap_se = merged
    _finite(variance, mean, std_error)
    return McEstimate(mean=mean, std_error=std_error, n_paths=config.n_paths,
                      variance_swap=swap, variance_swap_se=swap_se)


def variance_swap_expectation(state: MarketState, params: SabrParams,
                              contract: SwapContract) -> float:
    """Closed-form E[nu + sigma^2 tau M_s] = nu + sigma^2 tau (e^s - 1)/s.

    E[M_s] = expm1(s)/s is taken as 1 at s = 0.  Raises :class:`DomainError`
    outside the accrual window, at s > ``S_MAX`` and where the value leaves
    the float range.
    """
    tau, s, _, _ = reduced_variables(state, params, contract)
    mean_m = math.expm1(s) / s if s else 1.0
    variance = state.sigma * state.sigma * tau
    value = state.nu + variance * mean_m
    _finite(variance, value)
    return value
