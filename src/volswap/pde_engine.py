"""Independent PDE reference pricer.

The conditional Laplace-transform factor phi(t, sigma, x) of the remaining
variance reduces, through y = sqrt(2) x sigma / alpha, to a single
one-dimensional terminal-value problem

    d_tau psi = (alpha^2 / 2) * y^2 * (psi'' - psi),   psi(0, y) = 1.

alpha and tau enter only through the reduced variable s = alpha^2 tau, so
:func:`solve_psi` marches

    d_s psi = (1/2) * y^2 * (psi'' - psi)

from 0 to s with Crank-Nicolson plus a Rannacher implicit-Euler startup;
``solve_psi(alpha, tau)`` and ``solve_psi(1.0, alpha * alpha * tau)`` give
bit-identical results.  The boundary y = 0 is degenerate (the equation
forces psi = 1 there) and a homogeneous Dirichlet condition is applied at
a y_max chosen, and verified post-solve, to make psi negligible.  Only the
final row is kept, with the pchip cubic of q below built from it once by
:func:`_pchip`: the monotone cubic Hermite interpolant of Fritsch and Carlson
(SIAM J. Numer. Anal. 17, 1980) in numpy, in the operation order of scipy's
``PchipInterpolator``, whose coefficients it matches bit for bit.

Every half-step and step of a march solves with the same tridiagonal matrix
I + (ds/2) A, so it is LU-factored once per march with LAPACK ``gttrf``; each
step is then one in-place ``gttrs`` back-substitution, :func:`solve_banded`,
with the explicit half computed into preallocated buffers.  ``gtsv``, which
``scipy.linalg.solve_banded`` calls, performs the same eliminations in the
same order, so psi is bit for bit what a full banded solve per step gives.

kappa is then recovered by quadrature.  With q(y) = (1 - psi(y)) / y^2,
c = sqrt(2) sigma / alpha and zeta = sigma^2 / (2 alpha^2 nu) (inf at nu = 0),

    kappa = (1/T) * [sqrt(nu) + (c * int_0^y_max e^(-y^2 / (4 zeta)) q(y) dy
                                 + int_x_cut^inf e^(-nu x^2) / x^2 dx) / sqrt(pi)],

the last term, x_cut = y_max / c, in closed form with psi = 0 past y_max.
q is the stored pchip cubic on cells of width h, so :func:`kappa_from_solution`
puts six Gauss-Legendre nodes on sub-cells of width at most min(h,
sqrt(zeta)/2) up to y_cut = min(y_max, 2 sqrt(46 zeta)), exact for the cubic
at nu = 0.  Past y_cut the weight is below e^-46 and pchip is monotone per
cell, so the dropped part is at most c max|q(knots)| sqrt(pi zeta)
erfc(y_cut / (2 sqrt(zeta))); with boundary_max / x_cut it must stay below
``quad_tol``.  A price is one ``exp`` over the nodes and one dot product,
:func:`quad`, named like :func:`solve_banded` after the scipy routine it
replaced, which tracing tools look up by module attribute.

:func:`kappa_quadrature` marches once per (s, grid): it looks psi up in
:func:`psi_memo`, a least-recently-used memo of ``PSI_MEMO_SIZE`` entries
keyed by the grid and by s rounded to ``S_KEY_BITS`` fraction bits.
tau = maturity - t carries float noise, so points that share s in exact
arithmetic differ in its last bits; the rounding moves s by at most
2^-41 ~ 4.5e-13 relative, far below the discretization error.  A solve
refused with :class:`AccuracyError` or :class:`InstabilityError` is
memoised too and re-raised on every lookup as a fresh exception of the
same type and message.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .exceptions import AccuracyError, DomainError, InstabilityError
from .model import MarketState, SabrParams, SwapContract, time_to_maturity

#: psi values outside [-eps, 1+eps] are treated as scheme instability.
MAX_PRINCIPLE_EPS = 1e-6
#: psi at the penultimate node of the final row may reach at most this.
BOUNDARY_TOL = 1e-8
#: implicit-Euler startup steps (each split in two half-steps).
RANNACHER_STEPS = 2
#: psi solutions (or refusals) kept by :func:`psi_memo`.
PSI_MEMO_SIZE = 64
#: fraction bits of s kept in the memo key (relative change <= 2^-41).
S_KEY_BITS = 40
#: largest s = alpha^2 tau with e^s - 1 (q(0), the default y_max) finite.
S_MAX = math.log(sys.float_info.max)
#: y^2 / (4 zeta) past which the weight, below e^-46, is dropped with a bound.
WEIGHT_CUT = 46.0
#: six-point Gauss-Legendre rule on [-1, 1], exact for degree <= 11.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


@dataclass(frozen=True)
class GridSpec:
    """Space/time grid; y_max = None lets the solver pick a validated default."""

    y_max: float = None
    n_y: int = 400
    n_t: int = 400

    def __post_init__(self):
        if self.y_max is not None and not (self.y_max > 0):
            raise DomainError(f"y_max must be positive, got {self.y_max}")
        if self.n_y < 16 or self.n_t < 16:
            raise DomainError("grid needs n_y >= 16 and n_t >= 16")


@dataclass(frozen=True)
class PsiSolution:
    """psi at reduced time s on the grid ``y``; only the final row is kept.

    Rows close to the terminal date are inaccurate within a few nodes of
    y_max (far-field Dirichlet transient); the validated quantity is the
    final row, whose penultimate-node value is stored as ``boundary_max``.
    ``q_coeffs`` holds the pchip cubic of q(y) = (1 - psi(y)) / y^2 on each
    cell: column i holds (c3, c2, c1, c0) of the cubic in y - y[i].
    """

    y: np.ndarray
    final: np.ndarray           # psi at the valuation time
    boundary_max: float
    s: float
    q_coeffs: np.ndarray        # shape (4, n_y)

    def __post_init__(self):
        # psi_memo hands one instance to every caller that shares its s
        for array in (self.y, self.final, self.q_coeffs):
            array.flags.writeable = False


def default_y_max(alpha: float, tau: float) -> float:
    """Domain size making psi(tau, y_max) comfortably below 1e-8.

    Scaled from the Jensen lower bound psi >= exp(-(y^2/2)(e^(a^2 tau)-1)),
    with margin for the true (slower, log-normal-tailed) decay; the solver
    still verifies the achieved boundary value post-solve.  Raises
    :class:`DomainError` unless 0 < s = alpha^2 tau <= ``S_MAX``.
    """
    s = _finite_s(alpha * alpha * tau)
    if not s > 0.0:
        raise DomainError(f"no psi domain for s = alpha^2 tau = {s}; needs s > 0")
    return max(3.0, 2.5 * math.sqrt(52.0 / math.expm1(s)))


def _pchip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-cell cubic coefficients, highest power first, of pchip through (x, y)."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    smooth = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    d = np.zeros_like(y)                # 0 where slopes change sign or vanish
    d[1:-1][smooth] = 1.0 / whmean[smooth]
    for a, b in ((0, 1), (-1, -2)):     # one-sided three-point end slopes
        end = ((2 * h[a] + h[b]) * m[a] - h[a] * m[b]) / (h[a] + h[b])
        if np.sign(end) != np.sign(m[a]):
            end = 0.0
        elif np.sign(m[a]) != np.sign(m[b]) and abs(end) > 3.0 * abs(m[a]):
            end = 3.0 * m[a]
        d[a] = end
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _pchip_coeffs(y: np.ndarray, psi: np.ndarray, s: float) -> np.ndarray:
    q = np.empty_like(y)
    q[0] = 0.5 * math.expm1(s)                    # exact y -> 0 limit
    q[1:] = (1.0 - psi[1:]) / (y[1:] * y[1:])
    if not np.isfinite(q).all():
        raise DomainError(f"q = (1 - psi) / y^2 is not finite up to y_max {y[-1]:.3g}")
    return _pchip(y, q)


def solve_banded(factors: list, rhs: np.ndarray) -> None:
    """Overwrite ``rhs`` with the solution of a tridiagonal system.

    ``factors`` are the first five outputs of LAPACK ``gttrf``.  One
    ``gttrs`` back-substitution does the eliminations of the ``gtsv`` behind
    ``scipy.linalg.solve_banded((1, 1), ...)`` in the same order, so the
    two agree bit for bit.  ``rhs`` must be a contiguous float64 vector,
    which LAPACK can overwrite without a copy.
    """
    solution, _ = dgttrs(*factors, rhs, overwrite_b=1)
    if solution is not rhs:
        raise TypeError("rhs must be a contiguous float64 vector")


def solve_psi(alpha: float, tau: float,
              grid: GridSpec = GridSpec()) -> PsiSolution:
    """Crank-Nicolson march of the killed-Bessel-type problem over s = alpha^2 tau.

    Rannacher startup (two implicit-Euler steps split into half-steps)
    damps the mild terminal-data/operator incompatibility so the scheme
    keeps clean second-order convergence.  Raises :class:`DomainError`
    unless s <= ``S_MAX``, :class:`InstabilityError` if the discrete maximum
    principle fails at any step and :class:`AccuracyError` if psi has not
    decayed to ``BOUNDARY_TOL`` at the far edge.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if tau < 0:
        raise DomainError(f"tau must be non-negative, got {tau}")
    s = _finite_s(alpha * alpha * tau)
    y_max = grid.y_max if grid.y_max is not None else default_y_max(alpha, tau)
    y = np.linspace(0.0, y_max, grid.n_y + 1)
    psi = np.ones(grid.n_y + 1)           # terminal data psi = 1
    if s == 0.0:
        return PsiSolution(y=y, final=psi, boundary_max=1.0, s=s,
                           q_coeffs=_pchip_coeffs(y, psi, s))

    psi[-1] = 0.0                         # far-field Dirichlet from the first step on
    seen_lo, seen_hi = np.ones_like(psi), np.ones_like(psi)   # every row so far
    dy = y[1] - y[0]
    ds = s / grid.n_t
    half_ds = 0.5 * ds
    c = 0.5 * y * y                       # diffusion/killing coefficient
    lam = c / (dy * dy)
    sub = slice(1, grid.n_y)
    lam_in, c_in = lam[sub], c[sub]
    edge = half_ds * lam[1]               # from the psi(., 0) = 1 boundary

    # a Rannacher half-step (implicit Euler over ds/2) and a Crank-Nicolson
    # step over ds share the matrix I + (ds/2) A, factored once; it is
    # strictly diagonally dominant, so gttrf meets no zero pivot
    *factors, _ = dgttrf(-half_ds * lam[2:grid.n_y],
                         1.0 + half_ds * (2.0 * lam_in + c_in),
                         -half_ds * lam[1:grid.n_y - 1])
    inner, left, mid, right = psi[sub], psi[:-2], psi[1:-1], psi[2:]
    explicit, killed = np.empty_like(inner), np.empty_like(inner)

    for k in range(grid.n_t):
        if k < RANNACHER_STEPS:
            for _ in range(2):
                psi[1] += edge
                solve_banded(factors, inner)
        else:
            # psi + (ds/2) A psi, in the operation order of
            # lam * (left - 2 mid + right) - c * mid
            np.multiply(mid, 2.0, out=explicit)
            np.subtract(left, explicit, out=explicit)
            np.add(explicit, right, out=explicit)
            np.multiply(lam_in, explicit, out=explicit)
            np.multiply(c_in, mid, out=killed)
            np.subtract(explicit, killed, out=explicit)
            np.multiply(explicit, half_ds, out=explicit)
            np.add(inner, explicit, out=inner)
            psi[1] += edge
            solve_banded(factors, inner)
        np.minimum(seen_lo, psi, out=seen_lo)
        np.maximum(seen_hi, psi, out=seen_hi)

    lo, hi = seen_lo.min(), seen_hi.max()
    if lo < -MAX_PRINCIPLE_EPS or hi > 1.0 + MAX_PRINCIPLE_EPS:
        raise InstabilityError(
            f"psi left [0,1] by more than {MAX_PRINCIPLE_EPS} "
            f"(range [{lo:.3e}, {hi:.3e}]); refine the grid")
    # validate the row the quadrature consumes; early rows near the far edge
    # necessarily carry the Dirichlet far-field transient
    boundary_max = float(psi[grid.n_y - 1])
    if boundary_max > BOUNDARY_TOL:
        raise AccuracyError(
            f"psi at the far edge reaches {boundary_max:.3e} > boundary_tol "
            f"{BOUNDARY_TOL:.1e}; enlarge y_max (used {y_max:.3g})")
    return PsiSolution(y=y, final=psi, boundary_max=boundary_max, s=s,
                       q_coeffs=_pchip_coeffs(y, psi, s))


@functools.lru_cache(maxsize=PSI_MEMO_SIZE)
def psi_memo(s: float, grid: GridSpec):
    """``(solve_psi(1.0, s, grid), None)``, or ``(None, (type, args))`` of its refusal.

    The refusal is kept as type and arguments, not as the exception, whose
    traceback would pin the march's arrays.
    """
    try:
        return solve_psi(1.0, s, grid), None
    except (AccuracyError, InstabilityError) as exc:
        return None, (type(exc), exc.args)


def _finite_s(s: float) -> float:
    """s itself; raises :class:`DomainError` unless s = alpha^2 tau <= ``S_MAX``."""
    if not s <= S_MAX:
        raise DomainError(f"s = alpha^2 tau = {s}: e^s - 1 is not finite")
    return s


def _s_key(s: float) -> float:
    """s rounded to ``S_KEY_BITS`` fraction bits: a relative change <= 2^-41."""
    mant, exp = math.frexp(_finite_s(s))
    return math.ldexp(round(math.ldexp(mant, S_KEY_BITS + 1)),
                      exp - S_KEY_BITS - 1)


def _tail_integral(nu: float, a: float) -> float:
    """int_a^inf e^(-nu x^2) / x^2 dx in closed form (psi taken as 0 there);
    sqrt(pi nu) as 2 sqrt(pi nu / 4) cannot overflow, and is bit for bit the
    same unless pi nu / 4 is subnormal."""
    return (math.exp(-nu * a * a) / a
            - 2.0 * math.sqrt(0.25 * math.pi * nu) * math.erfc(math.sqrt(nu) * a))


def kappa_quadrature(state: MarketState, params: SabrParams,
                     contract: SwapContract, grid: GridSpec = GridSpec(),
                     quad_tol: float = 1e-6) -> float:
    """kappa from the PDE solution and the square-root integral identity.

    Valid for nu >= 0.  psi comes from :func:`psi_memo`, so points sharing
    s = alpha^2 tau (to ``S_KEY_BITS`` fraction bits) and the grid share
    one march.  Raises :class:`AccuracyError` if the bound on the neglected
    parts of the integral exceeds ``quad_tol`` (about 1e-8 on the default grid).
    """
    tau = time_to_maturity(state, contract)
    if tau == 0.0:
        return math.sqrt(state.nu) / contract.tenor

    solution, refusal = psi_memo(_s_key(params.alpha * params.alpha * tau), grid)
    if refusal is not None:
        raise refusal[0](*refusal[1])
    return kappa_from_solution(solution, state, params, contract, quad_tol)


def quad(integrand, nodes: np.ndarray, weights: np.ndarray) -> float:
    """Fixed-node rule: ``weights`` dotted with one call ``integrand(nodes)``."""
    return float(np.vdot(weights, integrand(nodes)))


def kappa_from_solution(solution: PsiSolution, state: MarketState,
                        params: SabrParams, contract: SwapContract,
                        quad_tol: float = 1e-6) -> float:
    """kappa from one march by the module notes' fixed-node rule in y; raises
    :class:`AccuracyError` if its neglected parts may exceed ``quad_tol``."""
    y, coeffs = solution.y, solution.q_coeffs
    nu, y_max, h, n_y = state.nu, float(y[-1]), float(y[1]), len(y) - 1
    y_of_x = math.sqrt(2.0) * state.sigma / params.alpha
    if y_of_x == math.inf:
        raise DomainError(f"sqrt(2) sigma / alpha overflows at alpha {params.alpha}")
    x_cut = y_max / y_of_x
    zeta = (max(y_of_x * y_of_x / (4.0 * nu), sys.float_info.min) if nu > 0.0
            else math.inf)    # never 0; inf (weight 1) at nu = 0 or on overflow
    y_cut = min(y_max, 2.0 * math.sqrt(WEIGHT_CUT * zeta))
    tail_bound = solution.boundary_max / x_cut
    if y_cut < y_max:   # each pchip cell is monotone: |q| peaks at a knot
        q_max = max(np.abs(coeffs[3]).max(), abs(np.polyval(coeffs[:, -1], h)))
        tail_bound += (y_of_x * q_max * math.sqrt(math.pi * zeta)
                       * math.erfc(y_cut / (2.0 * math.sqrt(zeta))))
    if tail_bound > quad_tol:
        raise AccuracyError(
            f"tail bound {tail_bound:.3e} exceeds quad_tol {quad_tol:.1e}")

    parts = max(1.0, np.ceil(2.0 * h / math.sqrt(zeta)))   # sub-cells per cell
    width = h / parts
    sub = np.arange(math.ceil(min(y_cut / width, n_y * parts)))[:, None]
    cell = ((sub + 0.5) // parts).astype(np.intp)
    (c3, c2, c1, c0), left = coeffs[:, cell], y[cell]
    nodes = (sub + 0.5 * (GL_NODES + 1.0)) * width
    weights = np.broadcast_to(0.5 * width * GL_WEIGHTS, nodes.shape)

    def integrand(v: np.ndarray) -> np.ndarray:   # row i of v lies in cell[i]
        d = v - left
        return (((c3 * d + c2) * d + c1) * d + c0) * np.exp(v * v / (-4.0 * zeta))

    j_x = y_of_x * quad(integrand, nodes, weights) + _tail_integral(nu, x_cut)
    return (math.sqrt(nu) + j_x / math.sqrt(math.pi)) / contract.tenor


def grid_refinement_report(state: MarketState, params: SabrParams,
                           contract: SwapContract, grid: GridSpec = GridSpec(),
                           refinements: int = 2, quad_tol: float = 1e-6) -> dict:
    """kappa on successively halved steps plus the observed convergence ratios.

    Second-order convergence shows up as ratios of successive differences
    near 4.  All refinements share one y_max so the comparison isolates the
    discretization error.  Raises :class:`DomainError` outside the accrual
    window and at maturity, where there is nothing to refine.
    """
    tau = time_to_maturity(state, contract)
    if tau == 0.0:
        raise DomainError("at maturity kappa is exact; there is no grid to refine")
    y_max = grid.y_max if grid.y_max is not None else default_y_max(params.alpha, tau)
    kappas, grids = [], []
    for level in range(refinements + 1):
        g = GridSpec(y_max=y_max, n_y=grid.n_y * 2 ** level,
                     n_t=grid.n_t * 2 ** level)
        kappas.append(kappa_quadrature(state, params, contract, g, quad_tol))
        grids.append((g.n_y, g.n_t))
    ratios = [math.inf if k1 == k2 else (k0 - k1) / (k1 - k2)
              for k0, k1, k2 in zip(kappas, kappas[1:], kappas[2:])]
    return {"kappas": kappas, "grids": grids, "ratios": ratios, "y_max": y_max}
