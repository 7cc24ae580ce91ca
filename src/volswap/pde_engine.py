"""Independent PDE reference pricer.

The conditional Laplace-transform factor phi(t, sigma, x) of the remaining
variance reduces, through y = sqrt(2) x sigma / alpha, to a single
one-dimensional terminal-value problem

    d_tau psi = (alpha^2 / 2) * y^2 * (psi'' - psi),   psi(0, y) = 1,

marched here with Crank-Nicolson plus a Rannacher implicit-Euler startup.
The boundary y = 0 is degenerate (the equation forces psi = 1 there) and a
homogeneous Dirichlet condition is applied at a y_max chosen, and verified
post-solve, to make psi negligible.

kappa is then recovered by quadrature.  Writing q(y) = (1 - psi(y)) / y^2
(finite at 0 with q(0) = (e^(alpha^2 tau) - 1)/2) and splitting off the
known sqrt identity integral,

    kappa = (1/T) * [sqrt(nu)
            + (1/sqrt(pi)) * int_0^inf e^(-nu x^2) (1 - psi(y(x))) / x^2 dx],

the integrand is smooth at the origin and the tail beyond the solved
y-range is integrated in closed form with psi bounded by the verified
boundary tolerance, giving a rigorous reported tail bound.  This path
handles nu = 0, unlike the series.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded

from .exceptions import AccuracyError, DomainError, InstabilityError
from .model import MarketState, SabrParams, SwapContract

SCHEME_CRANK_NICOLSON = "crank_nicolson"

#: psi values outside [-eps, 1+eps] are treated as scheme instability.
MAX_PRINCIPLE_EPS = 1e-6
#: implicit-Euler startup steps (each split in two half-steps).
RANNACHER_STEPS = 2


@dataclass(frozen=True)
class GridSpec:
    """Space/time grid; y_max = None lets the solver pick a validated default."""

    y_max: float = None
    n_y: int = 400
    n_t: int = 400
    scheme: str = SCHEME_CRANK_NICOLSON

    def __post_init__(self):
        if self.y_max is not None and not (self.y_max > 0):
            raise DomainError(f"y_max must be positive, got {self.y_max}")
        if self.n_y < 16 or self.n_t < 16:
            raise DomainError("grid needs n_y >= 16 and n_t >= 16")
        if self.scheme != SCHEME_CRANK_NICOLSON:
            raise DomainError(f"unsupported scheme {self.scheme!r}")


@dataclass(frozen=True)
class PsiSolution:
    """psi on the full grid; time axis runs from the terminal date down to t.

    Rows close to the terminal date are inaccurate within a few nodes of
    y_max (far-field Dirichlet transient); the validated quantity is the
    final row, whose penultimate-node value is stored as ``boundary_max``.
    """

    y: np.ndarray
    time_axis: np.ndarray
    values: np.ndarray          # shape (n_t + 1, n_y + 1); row 0 = terminal
    boundary_tol: float
    boundary_max: float

    @property
    def terminal(self) -> np.ndarray:
        return self.values[0]

    @property
    def final(self) -> np.ndarray:
        """psi at the valuation time (last marched row)."""
        return self.values[-1]


def default_y_max(alpha: float, tau: float) -> float:
    """Domain size making psi(tau, y_max) comfortably below 1e-8.

    Scaled from the Jensen lower bound psi >= exp(-(y^2/2)(e^(a^2 tau)-1)),
    with margin for the true (slower, log-normal-tailed) decay; the solver
    still verifies the achieved boundary value post-solve.
    """
    spread = math.expm1(alpha * alpha * tau)
    return max(3.0, 2.5 * math.sqrt(52.0 / spread))


def solve_psi(alpha: float, tau: float, grid: GridSpec = GridSpec(),
              boundary_tol: float = 1e-8) -> PsiSolution:
    """Backward Crank-Nicolson march of the killed-Bessel-type problem.

    Rannacher startup (two implicit-Euler steps split into half-steps)
    damps the mild terminal-data/operator incompatibility so the scheme
    keeps clean second-order convergence.  Raises
    :class:`InstabilityError` if the discrete maximum principle fails and
    :class:`AccuracyError` if psi has not decayed to ``boundary_tol`` at
    the far edge.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if tau < 0:
        raise DomainError(f"tau must be non-negative, got {tau}")
    y_max = grid.y_max if grid.y_max is not None else default_y_max(alpha, tau)
    y = np.linspace(0.0, y_max, grid.n_y + 1)
    times = np.linspace(tau, 0.0, grid.n_t + 1)  # in t units: t0+T down to t

    values = np.empty((grid.n_t + 1, grid.n_y + 1))
    values[0] = 1.0                       # terminal data psi(t0+T, .) = 1
    if tau == 0.0:
        return PsiSolution(y=y, time_axis=times[:1], values=values[:1],
                           boundary_tol=boundary_tol, boundary_max=1.0)

    psi = np.ones(grid.n_y + 1)
    psi[-1] = 0.0                         # far-field Dirichlet from the first step on
    dy = y[1] - y[0]
    dt = tau / grid.n_t
    c = 0.5 * alpha * alpha * y * y          # diffusion/killing coefficient
    lam = c / (dy * dy)
    n_in = grid.n_y - 1
    sub = slice(1, grid.n_y)

    def implicit_matrix(theta: float) -> np.ndarray:
        ab = np.zeros((3, n_in))
        ab[0, 1:] = -theta * lam[1:grid.n_y - 1]
        ab[1, :] = 1.0 + theta * (2.0 * lam[sub] + c[sub])
        ab[2, :-1] = -theta * lam[2:grid.n_y]
        return ab

    def apply_operator(v: np.ndarray) -> np.ndarray:
        return (lam[sub] * (v[:-2] - 2.0 * v[1:-1] + v[2:])
                - c[sub] * v[1:-1])

    row = 0
    for k in range(min(RANNACHER_STEPS, grid.n_t)):
        ab_half = implicit_matrix(0.5 * dt)
        for _ in range(2):
            rhs = psi[sub].copy()
            rhs[0] += 0.5 * dt * lam[1] * psi[0]   # psi(.,0) = 1 boundary
            psi[sub] = solve_banded((1, 1), ab_half, rhs)
        row += 1
        values[row] = psi

    ab_cn = implicit_matrix(0.5 * dt)
    for k in range(row, grid.n_t):
        rhs = psi[sub] + 0.5 * dt * apply_operator(psi)
        rhs[0] += 0.5 * dt * lam[1] * psi[0]
        psi[sub] = solve_banded((1, 1), ab_cn, rhs)
        values[k + 1] = psi

    lo, hi = values.min(), values.max()
    if lo < -MAX_PRINCIPLE_EPS or hi > 1.0 + MAX_PRINCIPLE_EPS:
        raise InstabilityError(
            f"psi left [0,1] by more than {MAX_PRINCIPLE_EPS} "
            f"(range [{lo:.3e}, {hi:.3e}]); refine the grid")
    # validate the row the quadrature consumes; early rows near the far edge
    # necessarily carry the Dirichlet far-field transient
    boundary_max = float(values[-1, grid.n_y - 1])
    if boundary_max > boundary_tol:
        raise AccuracyError(
            f"psi at the far edge reaches {boundary_max:.3e} > boundary_tol "
            f"{boundary_tol:.1e}; enlarge y_max (used {y_max:.3g})")
    return PsiSolution(y=y, time_axis=times, values=values,
                       boundary_tol=boundary_tol, boundary_max=boundary_max)


def _tail_integral(nu: float, a: float) -> float:
    """int_a^inf e^(-nu x^2) / x^2 dx in closed form (psi taken as 0 there)."""
    if nu == 0.0:
        return 1.0 / a
    root = math.sqrt(nu)
    return (math.exp(-nu * a * a) / a
            - math.sqrt(math.pi * nu) * math.erfc(root * a))


def kappa_quadrature(state: MarketState, params: SabrParams,
                     contract: SwapContract, grid: GridSpec = GridSpec(),
                     quad_tol: float = 1e-6) -> float:
    """kappa from the PDE solution and the square-root integral identity.

    Valid for nu >= 0.  The neglected part of the integral beyond the
    solved domain is bounded by boundary_max / x_cut, which must stay below
    ``quad_tol`` (raises :class:`AccuracyError` otherwise; with the default
    auto grid it sits around 1e-8).
    """
    tau = contract.maturity - state.t
    if tau < 0:
        raise DomainError(f"valuation time {state.t} is past maturity")
    if tau == 0.0:
        return math.sqrt(state.nu) / contract.tenor

    solution = solve_psi(params.alpha, tau, grid)
    return kappa_from_solution(solution, state, params, contract, quad_tol)


def kappa_from_solution(solution: PsiSolution, state: MarketState,
                        params: SabrParams, contract: SwapContract,
                        quad_tol: float = 1e-6) -> float:
    """Quadrature step split out so one psi solve can be reused."""
    tau = contract.maturity - state.t
    y = solution.y
    psi = solution.final
    q = np.empty_like(y)
    q[0] = 0.5 * math.expm1(params.alpha ** 2 * tau)   # exact y -> 0 limit
    q[1:] = (1.0 - psi[1:]) / (y[1:] * y[1:])
    q_interp = PchipInterpolator(y, q, extrapolate=False)

    y_of_x = math.sqrt(2.0) * state.sigma / params.alpha
    x_cut = float(y[-1]) / y_of_x
    tail_bound = solution.boundary_max / x_cut
    if tail_bound > quad_tol:
        raise AccuracyError(
            f"tail bound {tail_bound:.3e} exceeds quad_tol {quad_tol:.1e}")

    nu = state.nu
    scale = 2.0 * state.sigma ** 2 / params.alpha ** 2   # (1 - psi)/x^2 = scale * q(y)

    def integrand(x: float) -> float:
        return math.exp(-nu * x * x) * scale * float(q_interp(x * y_of_x))

    with _warnings.catch_warnings():
        # pchip evaluation noise can trip QUADPACK's roundoff heuristic at
        # tolerances this tight; the tail bound is tracked separately.
        _warnings.simplefilter("ignore", IntegrationWarning)
        body, _ = quad(integrand, 0.0, x_cut, limit=500,
                       epsabs=min(1e-12, 0.05 * quad_tol), epsrel=1e-11)
    j_x = float(body) + _tail_integral(nu, x_cut)
    return (math.sqrt(nu) + j_x / math.sqrt(math.pi)) / contract.tenor


def grid_refinement_report(state: MarketState, params: SabrParams,
                           contract: SwapContract, grid: GridSpec = GridSpec(),
                           refinements: int = 2, quad_tol: float = 1e-6) -> dict:
    """kappa on successively halved steps plus the observed convergence ratios.

    Second-order convergence shows up as ratios of successive differences
    near 4.  All refinements share one y_max so the comparison isolates the
    discretization error.
    """
    tau = contract.maturity - state.t
    y_max = grid.y_max if grid.y_max is not None else default_y_max(params.alpha, tau)
    kappas = []
    grids = []
    for level in range(refinements + 1):
        g = GridSpec(y_max=y_max, n_y=grid.n_y * 2 ** level,
                     n_t=grid.n_t * 2 ** level, scheme=grid.scheme)
        kappas.append(kappa_quadrature(state, params, contract, g, quad_tol))
        grids.append((g.n_y, g.n_t))
    ratios = []
    for i in range(len(kappas) - 2):
        denom = kappas[i + 1] - kappas[i + 2]
        ratios.append(math.inf if denom == 0.0 else
                      (kappas[i] - kappas[i + 1]) / denom)
    return {"kappas": kappas, "grids": grids, "ratios": ratios, "y_max": y_max}
