"""Monte Carlo oracle for the volatility swap.

The volatility process dsigma = alpha sigma dZ is lognormal, so increments
are simulated exactly: sigma_{k+1} = sigma_k * exp(alpha sqrt(dt) xi
- alpha^2 dt / 2).  Realized variance accumulates the accrued nu plus a
trapezoidal quadrature of sigma^2 over the remaining window.

Reproducibility contract: every path draws from its own counter-based
Philox4x64-10 stream keyed by (seed, path index), which one vectorized
kernel computes for many paths at once; normals come from the inverse CDF
of 64-bit uniforms, and payoffs are reduced in fixed blocks in a fixed
order.  An estimate thus depends on its config alone.
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
#: paths per Philox kernel pass; keeps its ten uint64 work arrays in cache.
CHUNK_PATHS = 512
U64_TO_UNIT = 2.0 ** -53

#: Philox4x64 round multipliers and key increments (Salmon et al., SC 2011).
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


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


def _mulhilo(m: int, x, lo, hi, t, u) -> None:
    """lo, hi <- 64-bit words of m * x from 32-bit halves; x, t, u are scratch."""
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    np.multiply(x, m, out=lo)                 # wraps modulo 2^64
    np.bitwise_and(x, 0xFFFFFFFF, out=t)      # t = x_lo
    x >>= 32                                  # x = x_hi
    np.multiply(x, m_hi, out=hi)
    np.multiply(x, m_lo, out=u)
    np.multiply(t, m_hi, out=x)
    t *= m_lo
    t >>= 32
    t += x                                    # t = m_hi x_lo + (m_lo x_lo >> 32)
    np.bitwise_and(t, 0xFFFFFFFF, out=x)
    u += x                                    # u = m_lo x_hi + (t mod 2^32)
    t >>= 32
    u >>= 32
    hi += t
    hi += u


def _philox4x64(work: np.ndarray, seed: int) -> list:
    """Philox4x64-10 words of the counters work[:4]; all ten arrays are scratch."""
    c0, c1, c2, c3, lo0, hi0, lo1, hi1, t, u = work
    key1, key0 = divmod(int(seed), 2 ** 64)
    for r in range(10):                       # round r uses key + r * PHILOX_W
        k0 = (key0 + r * PHILOX_W[0]) % 2 ** 64
        k1 = (key1 + r * PHILOX_W[1]) % 2 ** 64
        _mulhilo(PHILOX_M[0], c0, lo0, hi0, t, u)
        _mulhilo(PHILOX_M[1], c2, lo1, hi1, t, u)
        np.bitwise_xor(hi1, c1, out=c0)
        c0 ^= k0
        np.bitwise_xor(hi0, c3, out=c2)
        c2 ^= k1
        c1, lo1, c3, lo0 = lo1, c1, lo0, c3
    return [c0, c1, c2, c3]


def path_normals(seed: int, paths, n_steps: int) -> np.ndarray:
    """Standard normals of the given paths' streams, one row per path.

    Row i maps the first n_steps words of ``np.random.Philox(key=seed,
    counter=[0, 0, 0, paths[i]])``, whose k-th 4-word block is Philox of
    counter (k, 0, 0, path), through the uniform ((w >> 11) + 1/2) 2^-53.
    """
    paths = np.asarray(paths, dtype=np.uint64)
    n_blocks = -(-n_steps // 4)
    work = np.empty((10, min(CHUNK_PATHS, paths.size), n_blocks), dtype=np.uint64)
    out = np.empty((paths.size, n_steps))
    for lo in range(0, paths.size, CHUNK_PATHS):
        chunk = paths[lo:lo + CHUNK_PATHS]
        w = work[:, :chunk.size]
        w[0] = np.arange(1, n_blocks + 1, dtype=np.uint64)
        w[1:3] = 0
        w[3] = chunk[:, None]
        words = np.stack(_philox4x64(w, seed), axis=-1)
        raw = words.reshape(chunk.size, 4 * n_blocks)[:, :n_steps]
        out[lo:lo + chunk.size] = ndtri(
            ((raw >> 11).astype(np.float64) + 0.5) * U64_TO_UNIT)
    return out


def _block_payoffs(config: McConfig, lo: int, hi: int, state: MarketState,
                   alpha: float, tau: float, tenor: float, square_root: bool) -> tuple:
    """(sum, sum of squares) of the payoffs of draws lo..hi-1; antithetic
    draw k averages path 2k and its mirror image."""
    n_steps, sigma, nu = config.n_steps, state.sigma, state.nu
    dt = tau / n_steps
    drift = -0.5 * alpha * alpha * dt
    scale = alpha * math.sqrt(dt)

    def payoffs_from(xi: np.ndarray) -> np.ndarray:
        increments = scale * xi + drift
        log_sigma = np.cumsum(increments, axis=1)
        sig2 = np.empty((xi.shape[0], n_steps + 1))
        sig2[:, 0] = sigma * sigma
        sig2[:, 1:] = sigma * sigma * np.exp(2.0 * log_sigma)
        realized = nu + np.trapezoid(sig2, dx=dt, axis=1)
        return np.sqrt(realized) / tenor if square_root else realized

    idx = np.arange(lo, hi)
    xi = path_normals(config.seed, 2 * idx if config.antithetic else idx, n_steps)
    if config.antithetic:
        vals = 0.5 * (payoffs_from(xi) + payoffs_from(-xi))
    else:
        vals = payoffs_from(xi)
    return float(np.sum(vals)), float(np.sum(vals * vals))


def _estimate(state: MarketState, params: SabrParams, contract: SwapContract,
              config: McConfig, square_root: bool) -> McEstimate:
    tau = time_to_maturity(state, contract)
    if tau == 0.0:
        value = math.sqrt(state.nu) / contract.tenor if square_root else state.nu
        return McEstimate(mean=value, std_error=0.0, n_paths=config.n_paths)

    n_draws = config.n_paths // 2 if config.antithetic else config.n_paths
    total = 0.0
    total_sq = 0.0
    for lo in range(0, n_draws, BLOCK_PATHS):   # fixed block order
        s, ss = _block_payoffs(config, lo, min(lo + BLOCK_PATHS, n_draws), state,
                               params.alpha, tau, contract.tenor, square_root)
        total += s
        total_sq += ss
    mean = total / n_draws
    var = max(total_sq - n_draws * mean * mean, 0.0) / (n_draws - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_draws),
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
