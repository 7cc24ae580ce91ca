"""Monte Carlo oracle for the volatility swap.

The volatility process dsigma = alpha sigma dZ is lognormal, so increments
are simulated exactly: sigma_{k+1} = sigma_k * exp(alpha sqrt(dt) xi
- alpha^2 dt / 2).  Realized variance accumulates the accrued nu plus a
trapezoidal quadrature of sigma^2 over the remaining window.

Reproducibility contract: draws are reduced in fixed blocks of
BLOCK_PATHS, and each block has one counter-based Philox4x64-10 stream
(Salmon et al., SC 2011) keyed by the seed with the block index in its
counter.  numpy's Philox draws that stream in row chunks of CHUNK_PATHS
draws, one row of n_steps words per draw; normals come from the inverse
CDF of 64-bit uniforms, and each block's payoffs are reduced in a fixed
order.  An estimate thus depends on its config alone.  Block means and
centred sums of squares merge by the Chan-Golub-LeVeque update, so the
standard error keeps a spread far below the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .exceptions import DomainError
from .model import MarketState, SabrParams, SwapContract, time_to_maturity

#: paths per reduction block; fixed so the pairwise block sums (and hence
#: the final estimate) never depend on how the paths are batched.
BLOCK_PATHS = 8192
#: draws per chunk of a block's stream; keeps a chunk's normals and payoff
#: temporaries in cache and bounds the memory of a block.
CHUNK_PATHS = 256
U64_TO_UNIT = 2.0 ** -53


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 2:
            raise DomainError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.antithetic and (self.n_paths % 2 or self.n_paths < 4):
            # a pair is one draw, and a standard error needs two draws
            raise DomainError("antithetic mode needs an even n_paths >= 4, "
                              f"got {self.n_paths}")
        if not 0 <= self.seed < 2 ** 128:
            raise DomainError(f"seed must be in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error (antithetic pairs count as one draw)."""

    mean: float
    std_error: float
    n_paths: int


def resolve_workers() -> int:
    """Processes an estimate runs on: always one (kept for run manifests)."""
    return 1


def block_stream(seed: int, block: int) -> np.random.Philox:
    """The Philox4x64-10 stream of reduction block ``block``: key ``seed``,
    counter (0, 0, block, 0), so blocks never share a word."""
    return np.random.Philox(key=seed, counter=[0, 0, block, 0])


def path_normals(stream: np.random.Philox, out: np.ndarray) -> np.ndarray:
    """Standard normals of the next draws of a block's stream, into ``out``.

    Row i of ``out`` takes the stream's next n_steps = out.shape[1] words,
    in order, through the uniform ((w >> 11) + 1/2) 2^-53 and the inverse
    normal CDF; a block's draws are thus the same however its stream is cut
    into chunks.
    """
    raw = stream.random_raw(out.size)
    raw >>= 11
    np.copyto(out, raw.reshape(out.shape), casting="unsafe")   # exact: < 2^53
    out += 0.5
    out *= U64_TO_UNIT
    return ndtri(out, out=out)


def _block_payoffs(config: McConfig, block: int, n_rows: int, state: MarketState,
                   alpha: float, tau: float, tenor: float,
                   square_root: bool) -> np.ndarray:
    """Payoffs of the block's n_rows draws; antithetic draw k averages row
    k of the block's stream and its mirror image."""
    n_steps, sigma, nu = config.n_steps, state.sigma, state.nu
    dt = tau / n_steps
    drift = -0.5 * alpha * alpha * dt
    scale = alpha * math.sqrt(dt)

    # one set of chunk buffers per block: fresh chunk-sized temporaries
    # cost the process ~35 000 page faults per 16 384 x 250 estimate
    chunk = min(CHUNK_PATHS, n_rows)
    xi_buf, work_buf = np.empty((2, chunk, n_steps))
    sig2_buf = np.empty((chunk, n_steps + 1))
    sig2_buf[:, 0] = sigma * sigma

    def payoffs_from(xi: np.ndarray, step_scale: float) -> np.ndarray:
        work, sig2 = work_buf[:len(xi)], sig2_buf[:len(xi)]
        np.multiply(xi, step_scale, out=work)
        work += drift
        np.cumsum(work, axis=1, out=work)             # log(sigma_k / sigma)
        work *= 2.0
        np.exp(work, out=work)
        np.multiply(work, sigma * sigma, out=sig2[:, 1:])
        realized = nu + np.trapezoid(sig2, dx=dt, axis=1)
        return np.sqrt(realized) / tenor if square_root else realized

    stream = block_stream(config.seed, block)
    vals = np.empty(n_rows)
    for lo in range(0, n_rows, chunk):
        xi = path_normals(stream, xi_buf[:min(chunk, n_rows - lo)])
        if config.antithetic:   # scale * (-xi) is (-scale) * xi, bit for bit
            vals[lo:lo + len(xi)] = 0.5 * (payoffs_from(xi, scale)
                                           + payoffs_from(xi, -scale))
        else:
            vals[lo:lo + len(xi)] = payoffs_from(xi, scale)
    return vals


def _estimate(state: MarketState, params: SabrParams, contract: SwapContract,
              config: McConfig, square_root: bool) -> McEstimate:
    tau = time_to_maturity(state, contract)
    if tau == 0.0:
        value = math.sqrt(state.nu) / contract.tenor if square_root else state.nu
        return McEstimate(mean=value, std_error=0.0, n_paths=config.n_paths)

    n_draws = config.n_paths // 2 if config.antithetic else config.n_paths
    total = m2 = 0.0
    for block, lo in enumerate(range(0, n_draws, BLOCK_PATHS)):   # fixed order
        vals = _block_payoffs(config, block, min(BLOCK_PATHS, n_draws - lo), state,
                              params.alpha, tau, contract.tenor, square_root)
        block_sum = float(np.sum(vals))
        block_mean = block_sum / vals.size
        if lo:   # Chan-Golub-LeVeque merge with the lo draws before
            delta = block_mean - total / lo
            m2 += delta * delta * lo * vals.size / (lo + vals.size)
        m2 += float(np.sum(np.square(vals - block_mean)))
        total += block_sum
    return McEstimate(mean=total / n_draws,
                      std_error=math.sqrt(m2 / (n_draws - 1) / n_draws),
                      n_paths=config.n_paths)


def kappa_mc(state: MarketState, params: SabrParams, contract: SwapContract,
             config: McConfig) -> McEstimate:
    """Sample estimate of kappa = E[(1/T) sqrt(nu + int sigma^2)].

    At tau = 0 no simulation is needed and the exact sqrt(nu)/T is returned
    with zero standard error.
    """
    return _estimate(state, params, contract, config, True)


def variance_swap_mc(state: MarketState, params: SabrParams,
                     contract: SwapContract, config: McConfig) -> McEstimate:
    """Same pipeline without the square root: E[nu + int sigma^2].

    Exists to validate the simulator against the closed form
    :func:`variance_swap_expectation`.
    """
    return _estimate(state, params, contract, config, False)


def variance_swap_expectation(state: MarketState, params: SabrParams,
                              contract: SwapContract) -> float:
    """Closed-form E[int_{t0}^{t0+T} sigma^2 ds | sigma_t] = nu + sigma^2 (e^(a^2 tau) - 1)/a^2.

    The a -> 0 limit nu + sigma^2 tau is taken through a short series once
    a^2 tau drops below 1e-8.  Raises :class:`DomainError` outside the
    accrual window and when e^(a^2 tau) overflows.
    """
    tau = time_to_maturity(state, contract)
    x = params.alpha ** 2 * tau
    if x < 1e-8:
        growth = tau * (1.0 + x / 2.0 + x * x / 6.0)
    else:
        try:
            growth = math.expm1(x) / params.alpha ** 2
        except OverflowError:
            raise DomainError(
                f"alpha^2 tau = {x}: e^(alpha^2 tau) overflows") from None
    return state.nu + state.sigma ** 2 * growth
