"""Monte Carlo oracle for the volatility swap.

With v = alpha^2 u, dsigma = alpha sigma dZ gives sigma_u^2 = sigma^2
e^(2 B_v - v) for a standard Brownian motion B, so the realized variance is
nu + sigma^2 tau M_s, with M_s the time average of e^(2 B_v - v) over [0, s]
and s = alpha^2 tau.  A path needs s and its step count n alone: B is exact
on the n-step grid of [0, s] and M is the trapezoid mean over its nodes.
tau, s and sqrt(nu)/T are :func:`~volswap.model.reduced_variables`'.

Every draw is an antithetic pair, the paths of increments xi and -xi, valued
at the mean of their payoffs; n_paths counts paths, twice the draws.  A
payoff rises with every increment, so a pair never has more variance per
path than two independent paths (Glasserman, Monte Carlo Methods in
Financial Engineering, 2003, sec. 4.2); its two paths share one running
sum and one exp.

The step count is sized by the error (Giles, Oper. Res. 56, 2008, for
levels that share their draws).  ``McConfig.n_steps`` is a cap: the levels
of :func:`step_ladder`, n = 16, 32, 64, ... below the cap and then the cap,
each run on its own draws, and the first level that passes two tests is
the estimate.  On the same paths, the trapezoid over the even nodes is the
n/2-step estimate, so D_n = kappa_n - kappa_(n/2), the step-halving
difference, needs no new draw; the step bias test asks for
|D_n| <= SE/4.  The variance swap of the same draws has an exact mean on
the n-step grid, the trapezoid of e^v, and the tail test asks its z for
|z| <= 4: a sample that has not met the paths that carry the mean fails
it.  Each standard error in a test is widened by ``ROUNDING`` of its value,
so a near-deterministic estimate fails neither on rounding alone.  More
steps do not meet a missed tail, so a level that fails the tail test sends
the ladder straight to the cap.  Where no level passes, the cap's level is
the estimate, the same as if its steps alone had been run, with the tests
it fails, and MC_TAIL after a missed tail, in its warnings.

Reproducibility contract: draws are reduced in fixed blocks of
BLOCK_PATHS, each with one counter-based Philox4x64-10 stream (Salmon et
al., SC 2011) keyed by the seed with the block index in its counter.
numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) draws a
block's normals, no inverse CDF, one row of n steps per draw.  Consecutive
blocks of up to ``BATCH_FLOATS`` normals are one batch, priced by one
call of each numpy kernel; the batches are spread over W =
:func:`resolve_workers` threads, at most one per batch, batch w + kW on
worker w and worker 0 the calling thread, so a level of one batch (16 384
paths on 16 steps among them) runs on the calling thread alone.  numpy's
draws and ufuncs release the GIL, yet whether two threads run on two cores
is the host's choice: on a shared 2-vCPU x86 host, two threads, each
drawing Philox normals or taking exp, took from 0.5 to 1.2 times as long
as one thread doing both in turn, from minute to minute.  One level, 1
against 2 workers, medians of 20-50 interleaved rounds: where the host ran
them on two cores, the second worker saved 34 % at 2^19 path steps (16 384
paths on 32 steps) and about 40 % from 2^20 to 25 M; on one core it cost
4-9 % at 2^19 and 0-11 % above.  A batch's increments are copied a row
per step before their running sums are formed, one add per step, and
their exps taken, so each running sum and each trapezoid sum adds one step
of every draw at a time, in step order, where a sum per draw took
thousands of numpy's inner loops.  Each block reduces both payoffs,
kappa's and the variance swap's, to a sum and a centred sum of squares in
a fixed order, and kappa's step-halving differences to a sum; the calling
thread merges them in block order by the Chan-Golub-LeVeque update, which
keeps the standard error's spread far below the mean.  The ladder's tests
read these merged values alone, so an estimate, its level included,
depends on its config and s alone, bit for bit, at any worker count; the
estimate at a level equals that of a cap at that level.

Work is bounded from the inputs: :class:`McConfig` refuses more than
``MAX_PATH_STEPS`` path steps n_paths * n_steps at the cap, and a block
buffer, the 2 min(BLOCK_PATHS, n_paths/2) n_steps floats of a block's
normals and their e^(2 B) at the cap, of more than ``MAX_BUFFER_FLOATS``,
with :class:`DomainError` before anything is allocated.  The levels below
the cap take fewer than twice the cap's path steps again, and a worker's
buffer holds at most the larger of a block buffer and 2 BATCH_FLOATS.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

from ._openblas import idle_threads_asleep
from .exceptions import DomainError
from .model import MarketState, SabrParams, SwapContract, reduced_variables

with idle_threads_asleep():     # numpy's OpenBLAS loads with it
    import numpy as np

#: draws (antithetic pairs) per reduction block, the unit of the random
#: streams; fixed, so an estimate never depends on the worker count.
BLOCK_PATHS = 256
#: most normals of one batch, the unit of work of a worker thread: whole
#: blocks, at least one, so few steps still make few numpy calls.  2^17,
#: 512 draws at 250 steps, a worker's two buffers (the normals and their
#: e^(2 B)) 2 MiB: at 2^16 a 250-step level of 16 384 or 100 000 paths on
#: two workers took 10-12 % longer than a running sum by np.cumsum along
#: each draw's row, and at 2^17 up to 12 % less.
BATCH_FLOATS = 2 ** 17
#: most path steps n_paths * n_steps of one estimate, 2^30: about 18 s on
#: one core of a 2-core x86 machine, four times the largest size in use
#: (2^19 paths on 512 steps; the CLI default is 100 000 paths on 250).
MAX_PATH_STEPS = 2 ** 30
#: most floats in a worker's buffer, 2^23 (64 MiB): full blocks of up to
#: 16 384 steps.
MAX_BUFFER_FLOATS = 2 ** 23
#: the fewest steps of a level below the cap: each level doubles the last.
LADDER_START = 16
#: the step bias test: |D_n| at most this share of kappa's standard error.
STEP_BIAS_SHARE = 0.25
#: the tail test: the variance swap at most this many of its standard
#: errors from its exact mean on the level's grid.
TAIL_Z = 4.0
#: relative rounding of a sample mean, added to the standard errors the
#: tests read: at alpha = 1e-12 one ulp of the variance swap was 47 of its
#: standard errors.
ROUNDING = 2.0 ** -44
#: warnings of an estimate whose level fails the step bias or tail test.
MC_STEP_BIAS = "MC_STEP_BIAS"
MC_TAIL = "MC_TAIL"


@dataclass(frozen=True)
class McConfig:
    """n_paths paths in antithetic pairs, on at most n_steps steps (the cap
    of :func:`step_ladder`), drawn from the streams of ``seed``."""

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
    over n_paths // 2 draws, then the variance swap's on the same draws, all
    on the n_steps steps of the level that the ladder chose; n_paths counts
    both paths of every pair.

    ``discretization`` is D_n = kappa_n - kappa_(n/2) on the same paths,
    None where n is odd.  ``variance_swap_exact`` is the variance swap's
    exact mean on the n-step grid and ``variance_swap_z`` the sample's
    distance from it in its widened standard errors.  ``warnings`` names the
    tests that fail, ``MC_STEP_BIAS`` at this level and ``MC_TAIL`` at this
    or an earlier one: empty unless the level is the cap's.  At tau = 0
    every value is exact and n_steps 0.
    """

    mean: float
    std_error: float
    n_paths: int
    variance_swap: float
    variance_swap_se: float
    n_steps: int
    discretization: float | None
    variance_swap_exact: float
    variance_swap_z: float
    warnings: tuple


def step_ladder(cap: int) -> list:
    """Step counts of the levels under a cap of ``cap`` steps: LADDER_START,
    twice that and so on while below the cap, then the cap itself."""
    levels = []
    n_steps = LADDER_START
    while n_steps < cap:
        levels.append(n_steps)
        n_steps *= 2
    return levels + [cap]


def resolve_workers() -> int:
    """Threads an estimate may draw its blocks on: the CPUs this process may
    run on, lowered to the positive integer in ``VOLSWAP_THREADS`` if set.
    Raises :class:`DomainError` on a ``VOLSWAP_THREADS`` that is no positive
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


def _rewind(stream: np.random.Generator, start: dict, block: int) -> None:
    """Put ``stream`` where :func:`block_stream` of its key starts block
    ``block``, by ``start``, the state of its fresh bit generator, whose
    counter's block word this sets.  A fresh Philox also reads entropy from
    the OS that its key then replaces: 9.8 us against 1.2 us for a rewind
    on a 2-core x86 machine (best of 7 x 2000)."""
    start["state"]["counter"][2] = block
    stream.bit_generator.state = start


def path_normals(stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Standard normals of the next draws of a block's stream, into ``out``.

    Row i of ``out`` takes the stream's next n_steps = out.shape[1] normals,
    in order; a block's first draws are thus the same however many follow.
    """
    return stream.standard_normal(out=out)


def _draw(stream: np.random.Generator, start: dict, first: int,
          out: np.ndarray) -> None:
    """Each BLOCK_PATHS rows of ``out`` from the stream of the next block,
    from block ``first`` on, on ``stream`` rewound to each by ``start``."""
    for lo in range(0, len(out), BLOCK_PATHS):
        _rewind(stream, start, first + lo // BLOCK_PATHS)
        path_normals(stream, out[lo:lo + BLOCK_PATHS])


def _trapezoid_weights(s: float, n_steps: int) -> np.ndarray:
    """w_k = e^(-k s/n) at the nodes k = 1..n of an n-step grid of [0, s],
    w_n halved; w[1::2] are the n/2-step grid's, its end weight halved too."""
    weights = np.exp(np.arange(1, n_steps + 1) * -(s / n_steps))
    weights[-1] *= 0.5
    return weights


def _path_means(buffers: np.ndarray, s: float, weights: np.ndarray) -> tuple:
    """M_s of the paths whose increments fill ``buffers[0]``, for buffers of
    shape (2, n, n_steps): the trapezoid mean over n_steps of e^(2 B_v - v)
    on [0, s], row 0 for each draw's path and row 1 its mirror's; then the
    same over the even nodes, the n/2-step trapezoid, or None where n_steps
    is odd.  At node k, 2 B_v - v = scale W_k - k s/n for the increments'
    running sum W, so with E = e^(scale W) and ``weights`` w_k from
    :func:`_trapezoid_weights`, M is (1/2 + sum w E)/n for the path and
    (1/2 + sum w/E)/n for its mirror; the even nodes' terms are every other
    term of these sums, each summed step after step (module notes).  The
    increments are copied into ``buffers[1]`` a row per step, where row k
    of W is row k - 1 plus step k's increments: each draw's running sum
    takes the adds of a cumulative sum along its row, in the same order, so
    W, E and the sums keep their bits.  The increments are spent."""
    xi, grown = buffers
    n_steps = xi.shape[1]
    halves = not n_steps % 2
    scale = 2.0 * math.sqrt(s / n_steps)            # sd of 2 B_v per step
    steps, terms = grown.reshape(n_steps, -1), xi.reshape(n_steps, -1)
    steps[...] = xi.T                                 # xi, a row per step
    for k in range(1, n_steps):                       # W; xi is spent
        np.add(steps[k - 1], steps[k], out=steps[k])
    steps *= scale
    np.exp(steps, out=steps)                          # E, a row per step
    weights = weights[:, None]
    # numpy's adds of whole rows, not BLAS: the same on every host and
    # thread count
    sums, half_sums = np.empty((2, 2, len(xi)))
    np.multiply(steps, weights, out=terms)            # the path's terms w E
    np.add.reduce(terms, axis=0, out=sums[0])
    if halves:
        np.add.reduce(terms[1::2], axis=0, out=half_sums[0])
    np.divide(weights, steps, out=terms)              # its mirror's, w/E
    np.add.reduce(terms, axis=0, out=sums[1])
    if halves:
        np.add.reduce(terms[1::2], axis=0, out=half_sums[1])
    return ((sums + 0.5) / n_steps,
            (half_sums + 0.5) / (n_steps // 2) if halves else None)


def _blocks(values: np.ndarray) -> list:
    """``values``, one per draw, as rows of a block's BLOCK_PATHS draws; a
    short last block is a row of its own."""
    full = len(values) - len(values) % BLOCK_PATHS
    rows = [values[:full].reshape(-1, BLOCK_PATHS)]
    return rows + [values[full:].reshape(1, -1)] if full < len(values) else rows


def _block_moments(values: np.ndarray) -> tuple:
    """The sum and the centred sum of squares of ``values`` per block."""
    sums, squares = [], []
    for row in _blocks(values):
        sums.append(row.sum(axis=1))
        squares.append(np.square(row - (sums[-1] / row.shape[1])[:, None]).sum(axis=1))
    return np.concatenate(sums), np.concatenate(squares)


def _merge(sums: list, squares: list, n_draws: int) -> tuple:
    """Mean and standard error of n_draws values from their blocks' sums and
    centred sums of squares, merged in block order (Chan-Golub-LeVeque)."""
    total = m2 = 0.0
    for block, (block_sum, block_m2) in enumerate(zip(sums, squares)):
        lo = block * BLOCK_PATHS
        size = min(BLOCK_PATHS, n_draws - lo)
        if lo:   # merge with the lo draws before
            delta = block_sum / size - total / lo
            m2 += delta * delta * lo * size / (lo + size)
        m2 += block_m2
        total += block_sum
    return total / n_draws, math.sqrt(m2 / (n_draws - 1) / n_draws)


def _run(n_tasks: int, workers: int, work) -> None:
    """work(tasks) on min(workers, n_tasks) threads, worker w given the
    tasks w + kW < n_tasks, which stop at a failure of any worker; worker 0
    is the calling thread, and the first failure reaches the caller."""
    workers = min(workers, n_tasks)
    errors = []

    def worker(first: int) -> None:
        try:
            # errstate is per thread.  A finite sigma^2 tau may still
            # overflow the payoffs or their moments; _finite refuses that
            # for kappa after the merge, so numpy need not warn of it
            with np.errstate(over="ignore", invalid="ignore"):
                work(itertools.takewhile(lambda _: not errors,
                                         range(first, n_tasks, workers)))
        except BaseException as exc:     # re-raised by the caller
            errors.append(exc)

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=worker, args=(first,))
            thread.start()
            threads.append(thread)
        worker(0)
    except BaseException as exc:     # a thread that would not start stops the rest
        errors.append(exc)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _finite(variance: float, *values: float) -> None:
    """Refuse sigma^2 tau, or an estimate from it, beyond the float range."""
    if not all(map(math.isfinite, (variance, *values))):
        raise DomainError(f"sigma^2 tau = {variance}: the estimate is not finite")


def trapezoid_growth(s: float, n_steps: int) -> float:
    """E[M] on an n-step grid: the trapezoid mean of e^v over the grid's
    nodes on [0, s], expm1(s)/s (h/expm1(h) + h/2) at h = s/n, and 1 where
    h is 0.  It tends to expm1(s)/s as n grows."""
    h = s / n_steps
    if not h:
        return 1.0
    return math.expm1(s) / s * (h / math.expm1(h) + 0.5 * h)


def _level(state: MarketState, contract: SwapContract, config: McConfig,
           s: float, variance: float, n_steps: int, workers: int,
           tail_missed: bool) -> McEstimate:
    """The estimate on n_steps steps at sigma^2 tau = ``variance``, with the
    tests it fails in its warnings; MC_TAIL too where ``tail_missed``."""
    n_draws = config.n_paths // 2
    n_blocks = -(-n_draws // BLOCK_PATHS)
    batch = BLOCK_PATHS * max(1, BATCH_FLOATS // (BLOCK_PATHS * n_steps))
    weights = _trapezoid_weights(s, n_steps)
    halves = not n_steps % 2
    # per block: kappa's and the variance swap's sums and centred sums of
    # squares, then the sum of kappa's step-halving differences
    moments = np.zeros((5, n_blocks))

    def work(batches) -> None:
        # one pair of buffers and one stream per worker: fresh temporaries
        # cost the process ~35 000 page faults per 16 384 x 250 estimate
        buffers = np.empty((2, min(batch, n_draws), n_steps))
        stream = block_stream(config.seed, 0)
        start = stream.bit_generator.state
        for index in batches:
            lo = index * batch
            paths = buffers[:, :min(batch, n_draws - lo)]
            _draw(stream, start, lo // BLOCK_PATHS, paths[0])
            means, half_means = _path_means(paths, s, weights)
            realized = state.nu + variance * means
            kappa = (np.sqrt(realized) / contract.tenor).mean(axis=0)
            blocks = slice(lo // BLOCK_PATHS, -(-(lo + len(kappa)) // BLOCK_PATHS))
            moments[0:2, blocks] = _block_moments(kappa)
            moments[2:4, blocks] = _block_moments(realized.mean(axis=0))
            if half_means is not None:
                half_kappa = np.sqrt(state.nu + variance * half_means) / contract.tenor
                differences = kappa - half_kappa.mean(axis=0)
                moments[4, blocks] = np.concatenate(
                    [row.sum(axis=1) for row in _blocks(differences)])

    _run(-(-n_draws // batch), workers, work)
    sums, squares, swap_sums, swap_squares, differences = moments.tolist()
    mean, std_error = _merge(sums, squares, n_draws)
    _finite(variance, mean, std_error)
    swap, swap_se = _merge(swap_sums, swap_squares, n_draws)
    step_bias = sum(differences) / n_draws if halves else None
    exact = state.nu + variance * trapezoid_growth(s, n_steps)
    gap, error = swap - exact, swap_se + ROUNDING * abs(exact)
    z = gap / error if error else math.copysign(math.inf, gap) if gap else 0.0
    warnings = []
    if not (step_bias is not None and abs(step_bias)
            <= STEP_BIAS_SHARE * (std_error + ROUNDING * abs(mean))):
        warnings.append(MC_STEP_BIAS)
    if tail_missed or not abs(z) <= TAIL_Z:
        warnings.append(MC_TAIL)
    return McEstimate(mean=mean, std_error=std_error, n_paths=config.n_paths,
                      variance_swap=swap, variance_swap_se=swap_se,
                      n_steps=n_steps, discretization=step_bias,
                      variance_swap_exact=exact, variance_swap_z=z,
                      warnings=tuple(warnings))


def kappa_mc(state: MarketState, params: SabrParams, contract: SwapContract,
             config: McConfig) -> McEstimate:
    """Sample estimates of kappa = E[(1/T) sqrt(nu + sigma^2 tau M_s)] and of
    the variance swap E[nu + sigma^2 tau M_s], on the same draws, at the
    first level of :func:`step_ladder` that passes the step bias and tail
    tests, or else at the cap's level.  A level that fails the tail test
    sends the ladder to the cap at once, and the cap's estimate carries
    MC_TAIL: more steps do not meet the paths that carry the mean.

    At tau = 0 both are exact, with zero standard errors.  Raises
    :class:`DomainError` where sigma^2 tau takes kappa or its standard error
    at a level beyond the float range; the variance swap is returned as
    computed.
    """
    tau, s, _, root_nu = reduced_variables(state, params, contract)
    if tau == 0.0:
        return McEstimate(mean=root_nu, std_error=0.0, n_paths=config.n_paths,
                          variance_swap=state.nu, variance_swap_se=0.0,
                          n_steps=0, discretization=0.0,
                          variance_swap_exact=state.nu, variance_swap_z=0.0,
                          warnings=())

    variance = state.sigma * state.sigma * tau     # sigma^2 tau, times M_s
    _finite(variance)
    workers = resolve_workers()
    cap, missed = config.n_steps, False
    for n_steps in step_ladder(cap):
        if missed and n_steps < cap:
            continue    # more steps do not meet a missed tail: only the cap runs
        estimate = _level(state, contract, config, s, variance, n_steps, workers,
                          missed)
        if not estimate.warnings:
            break
        missed = MC_TAIL in estimate.warnings
    return estimate


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
