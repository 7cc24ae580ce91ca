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
bit-identical results.  s comes from :func:`~volswap.model.reduced_time`,
whose ``S_MAX`` keeps e^s - 1 finite.  The boundary y = 0 is degenerate
(the equation forces psi = 1 there) and a homogeneous Dirichlet condition
is applied at a y_max chosen, and verified post-solve, to make psi
negligible without skipping its decay (``PSI_FIRST_NODE_MIN``).  Only the
final row is kept, with the pchip cubic of q below built from it once by
:func:`_pchip`: the monotone cubic Hermite interpolant of Fritsch and
Carlson (SIAM J. Numer. Anal. 17, 1980) in numpy, in the operation order of
scipy's ``PchipInterpolator``, whose coefficients it matches bit for bit.

On the uniform grid y_i = i h the term (1/2) y^2 psi'' at node i is
(i^2 / 2)(psi_{i-1} - 2 psi_i + psi_{i+1}), h cancelling, so in u_i = psi_i / i
the march matrix I + (ds/2) A is symmetric: diagonal 1 + (ds/2)(i^2 +
y_i^2 / 2), off-diagonal -(ds/4) i (i + 1).  Each row is diagonally
dominant by 1 + (ds/2) y_i^2 / 2, so the matrix M is positive definite and
is factored once per march with LAPACK ``pttrf`` into L D L^T.  A
Rannacher half-step (implicit Euler over ds/2) is one ``pttrs`` solve,
:func:`solve_banded`, of M w = u + (ds/4) e_1, the last term from
psi(., 0) = 1.  A Crank-Nicolson step over ds is that half-step
extrapolated, u -> 2 w - u, so no step forms an explicit half; 2 w is one
solve of the same right-hand side against M/2 = L (D/2) L^T, whose
factors are exact, and equals twice the M solve bit for bit, scaling by 2
being exact while nothing underflows.  So a step is one ``add`` of the fixed forcing (ds/4) e_1
into the next row's slot, one solve there and one ``subtract`` of u.  The
rows fill a buffer of ``CHECK_ROWS`` rows, and every full block (and the
last, partial one) is folded into the per-node extremes of u with one
``min`` and one ``max`` over its rows.  The maximum principle is checked
on those extremes, multiplied by i once at the end, which is exact
because rounding is monotone.  Against the same scheme marched on psi
itself (explicit half plus an LU solve of the unsymmetric matrix) psi
moves by rounding only, within 1e-12 on the tested grids of 400 to 1600
nodes.

``dpttrf`` and ``dpttrs`` are scipy's f2py wrappers, the same objects
``scipy.linalg.lapack`` exports, taken from the compiled extension
``scipy/linalg/_flapack`` that :func:`_load_flapack` loads from its file
after a plain ``import scipy``.  Importing them from ``scipy.linalg.lapack``
runs the ``scipy.linalg`` package, whose array-API support loads numpy's
lazily imported submodules (``numpy.f2py``, ``numpy.testing``,
``numpy.ma``, ...): 0.20-0.26 s under ``python -X importtime`` on a 2-core
x86 machine, against ~10 ms for ``import scipy`` and ~5 ms for the
extension.  ``_flapack`` is a private module name, but it has held these
wrappers in every scipy from 1.10, the oldest ``pyproject.toml`` allows;
``tests/test_imports.py`` checks that ``scipy.linalg.lapack`` hands out the
very objects loaded here.

kappa is then recovered by quadrature.  With q(y) = (1 - psi(y)) / y^2,
c = sqrt(2) sigma / alpha, zeta (inf at nu = 0) and sqrt(nu)/T from
:func:`~volswap.model.reduced_variables` and the weight w = e^(-y^2 / (4 zeta)),

    kappa = sqrt(nu)/T + c / (sqrt(pi) T)
            * [int_0^y_max w(y) q(y) dy + int_y_max^inf w(y) / y^2 dy],

the tail past y_max in closed form with psi = 0 there.
q is the stored pchip cubic on cells of width h, so :func:`kappa_from_solution`
puts six Gauss-Legendre nodes on sub-cells of width at most min(h,
sqrt(zeta)/2) up to y_cut = min(y_max, 2 sqrt(46 zeta)), exact for the cubic
at nu = 0.  Past y_cut the weight is below e^-46 and pchip is monotone per
cell, so the dropped part is at most max|q(knots)| sqrt(pi zeta)
erfc(y_cut / (2 sqrt(zeta))); c times its sum with boundary_max / y_max must
stay below ``QUAD_TOL``.  Nothing but the weight depends on zeta where a
cell needs no sub-cells (zeta >= 4 h^2, and nu = 0), so :func:`solve_psi`
stores, once per march, max|q(knots)| and three tables with a row per whole
cell: its six nodes squared, their weights and the cubic there.  A price
on whole cells is then one divide, one ``exp`` and one multiply over the
first rows of those tables, and one dot product, :func:`quad`, named like
:func:`solve_banded` after the scipy routine it replaced, which tracing
tools look up by module attribute.  Sub-cells evaluate the same cubic, by
the same Horner formula, at their own nodes.  At zeta = inf (nu = 0, or
zeta past the float range) the weight is exp(-0.0) = 1 on every cell, so
the march stores that quadrature too, bit for bit what :func:`quad`
would return, and the price does no array work: the tail is 1 / y_max and

    G(s) = kappa T alpha / sigma = sqrt(2 / pi) * (int_0^y_max q dy + 1 / y_max)

is a function of the march alone.

:func:`kappa_quadrature` marches once per (s, grid): it looks psi up in
:func:`psi_memo`, a least-recently-used memo of ``PSI_MEMO_SIZE`` entries
keyed by the grid and by s rounded to ``S_KEY_BITS`` fraction bits.
tau = maturity - t carries float noise, so points that share s in exact
arithmetic differ in its last bits; the rounding moves s by at most
2^-41 ~ 4.5e-13 relative, far below the discretization error.  A solve
refused with :class:`AccuracyError` or :class:`InstabilityError` is
memoised too and re-raised on every lookup as a fresh exception of the
same type and message.  :func:`grid_refinement_report` prices every level
through this memo, on the caller's y_max.  No grid, refinements included,
has more than ``MAX_GRID_NODES`` nodes n_y * n_t: a larger one is a
:class:`DomainError` before anything is allocated.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .exceptions import AccuracyError, DomainError, InstabilityError
from .model import (MarketState, SabrParams, SwapContract, reduced_time,
                    reduced_variables)


def _load_flapack():
    """scipy's compiled LAPACK extension, without the scipy.linalg package."""
    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled "
                          "scipy/linalg/_flapack extension")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

#: psi values outside [-eps, 1+eps] are treated as scheme instability.
MAX_PRINCIPLE_EPS = 1e-6
#: psi at the penultimate node of the final row may reach at most this.
BOUNDARY_TOL = 1e-8
#: least psi at the first node y = h.  The second difference at h errs by a
#: relative O(x), x = q(0) h^2, and psi(h) >= e^-x (the Jensen bound of
#: :func:`default_y_max`): psi(h) < 1/2 means x > ln 2, an O(1) error.  The
#: default grid and its refinements have x <= 2.5^2 * 52 / (2 * 400^2) = 1e-3.
PSI_FIRST_NODE_MIN = 0.5
#: implicit-Euler startup steps (each split in two half-steps).
RANNACHER_STEPS = 2
#: s = alpha^2 tau below which kappa is sqrt(nu + sigma^2 tau)/T, no march.
#: There the closed form lies between Hoelder's E[B]^(3/2) / E[B^2]^(1/2)
#: and Jensen's sqrt(E[B]), B = nu + int sigma^2, which differ by at most
#: ~(2/3) s < 4e-8 relative; the default grid errs by 1.9e-7 (nu 0.03) to
#: 5.9e-7 (nu 0) at sigma 0.25, tau 0.5, and below s = 2^-53 its pchip on
#: y_max ~ s^(-1/2) has slopes that overflow or underflow.
S_CLOSED_FORM = 2.0 ** -24
#: most nodes n_y * n_t of a grid that is marched, refinements included:
#: the reference table's finest grid, 3200 x 3200, which marches in about
#: 0.1 s on a 2-core x86 machine.  Each halving of the steps takes four
#: times as long, so ``--refine 40`` would not end, and n_y = 1e9 would
#: allocate 8 GB for each array of the march.
MAX_GRID_NODES = 3200 * 3200
#: march rows buffered, then folded into the maximum-principle extremes with
#: one ``min`` and one ``max``: fewer numpy calls per step, the same extremes.
CHECK_ROWS = 64
#: psi solutions (or refusals) kept by :func:`psi_memo`.
PSI_MEMO_SIZE = 64
#: fraction bits of s kept in the memo key (relative change <= 2^-41).
S_KEY_BITS = 40
#: y^2 / (4 zeta) past which the weight, below e^-46, is dropped with a bound.
WEIGHT_CUT = 46.0
#: largest bound on the neglected parts of the kappa integral.
QUAD_TOL = 1e-6
#: six-point Gauss-Legendre rule on [-1, 1], exact for degree <= 11.
#: Written out, equal by repr to ``np.polynomial.legendre.leggauss(6)``:
#: importing ``numpy.polynomial`` would add 3-9 ms to the PDE start-up.
GL_NODES = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                     0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
GL_WEIGHTS = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                       0.46791393457269104, 0.3607615730481387, 0.17132449237917027])
#: the nodes mapped onto [0, 1], where a cell or sub-cell of width w puts
#: them at (k + GL_MID) w.
GL_MID = 0.5 * (GL_NODES + 1.0)


@dataclass(frozen=True)
class GridSpec:
    """Space/time grid of at most ``MAX_GRID_NODES`` nodes n_y * n_t;
    y_max = None lets the solver pick a validated default."""

    y_max: float = None
    n_y: int = 400
    n_t: int = 400

    def __post_init__(self):
        if self.y_max is not None and not (0 < self.y_max < math.inf):
            raise DomainError(f"y_max must be positive and finite, got {self.y_max}")
        if self.n_y < 16 or self.n_t < 16:
            raise DomainError("grid needs n_y >= 16 and n_t >= 16")
        self.check_size()

    def check_size(self, refinements: int = 0) -> None:
        """Raise :class:`DomainError` if the grid with its steps halved
        ``refinements`` times has more than ``MAX_GRID_NODES`` nodes."""
        # 16 x 16 times 4^20 is past the cap: no need for 4^refinements itself
        if self.n_y * self.n_t * 4 ** min(refinements, 20) > MAX_GRID_NODES:
            refined = f" refined {refinements} times" if refinements else ""
            raise DomainError(
                f"a {self.n_y} x {self.n_t} grid{refined} has more than "
                f"MAX_GRID_NODES = {MAX_GRID_NODES} nodes n_y * n_t")

    def y_max_at(self, s: float) -> float:
        """``y_max``, or when it is None the :func:`default_y_max` at s."""
        return self.y_max if self.y_max is not None else default_y_max(1.0, s)


@dataclass(frozen=True)
class PsiSolution:
    """psi at reduced time s on the grid ``y``; only the final row is kept.

    Rows close to the terminal date are inaccurate within a few nodes of
    y_max (far-field Dirichlet transient); the validated quantity is the
    final row, whose penultimate-node value is stored as ``boundary_max``.
    ``q_coeffs`` holds the pchip cubic of q(y) = (1 - psi(y)) / y^2 on each
    cell: column i holds (c3, c2, c1, c0) of the cubic in y - y[i].
    ``y_max`` and the cell width ``h`` are ``y[-1]`` and ``y[1]`` as Python
    floats, and ``q_max`` is max |q| at the knots.  Row i of the three
    Gauss-Legendre tables is cell i's: ``gl_squares`` its six nodes
    squared, ``gl_weights`` their weights 0.5 h ``GL_WEIGHTS``, ``gl_q`` the
    cubic there.  ``g_integral``, their weighted sum of q over every cell,
    is the quadrature at zeta = inf, where the weight e^(-y^2 / (4 zeta))
    is 1; sqrt(2 / pi) times its sum with the tail 1 / y_max is G(s).
    """

    y: np.ndarray
    final: np.ndarray           # psi at the valuation time
    boundary_max: float
    s: float
    y_max: float
    h: float
    q_coeffs: np.ndarray        # shape (4, n_y)
    q_max: float
    gl_squares: np.ndarray      # shape (n_y, 6)
    gl_weights: np.ndarray      # shape (n_y, 6)
    gl_q: np.ndarray            # shape (n_y, 6)
    g_integral: float

    def __post_init__(self):
        # psi_memo hands one instance to every caller that shares its s
        for array in (self.y, self.final, self.q_coeffs, self.gl_squares,
                      self.gl_weights, self.gl_q):
            array.flags.writeable = False


def default_y_max(alpha: float, tau: float) -> float:
    """Domain size making psi(tau, y_max) comfortably below 1e-8.

    Scaled from the Jensen lower bound psi >= exp(-(y^2/2)(e^(a^2 tau)-1)),
    with margin for the true (slower, log-normal-tailed) decay; the solver
    still verifies the achieved boundary value post-solve.  Raises
    :class:`DomainError` unless 0 < s = alpha^2 tau <= ``S_MAX``.
    """
    s = reduced_time(alpha, tau)
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


def _cubic(coeffs: np.ndarray, left: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The cubics ``coeffs`` = (c3, c2, c1, c0), of v - left, at v by Horner."""
    (c3, c2, c1, c0), d = coeffs, v - left
    return ((c3 * d + c2) * d + c1) * d + c0


def _pchip_coeffs(y: np.ndarray, psi: np.ndarray, s: float) -> np.ndarray:
    q = np.empty_like(y)
    q[0] = 0.5 * math.expm1(s)                    # exact y -> 0 limit
    q[1:] = (1.0 - psi[1:]) / (y[1:] * y[1:])
    return _pchip(y, q)


def solve_banded(factors: list, rhs: np.ndarray) -> None:
    """Overwrite ``rhs`` with the solution of a symmetric positive definite
    tridiagonal system.

    ``factors`` are the diagonal and sub-diagonal of its L D L^T factors,
    the first two outputs of LAPACK ``pttrf``.  One ``pttrs`` solve does the
    eliminations of ``ptsv`` (``pttrf`` then ``pttrs``) in the same order,
    so the two agree bit for bit.  ``rhs`` must be a contiguous float64
    vector, which LAPACK can overwrite without a copy.
    """
    solution, _ = dpttrs(*factors, rhs, overwrite_b=1)
    if solution is not rhs:
        raise TypeError("rhs must be a contiguous float64 vector")


def solve_psi(alpha: float, tau: float,
              grid: GridSpec = GridSpec()) -> PsiSolution:
    """Crank-Nicolson march of the killed-Bessel-type problem over s = alpha^2 tau.

    Rannacher startup (two implicit-Euler steps split into half-steps)
    damps the mild terminal-data/operator incompatibility so the scheme
    keeps clean second-order convergence.  Raises :class:`DomainError`
    unless 0 < s <= ``S_MAX`` (at s = 0, psi = 1 and kappa is exact) and
    y^2 is positive and finite on the grid,
    :class:`InstabilityError` if the discrete maximum principle fails at
    any step and :class:`AccuracyError` if psi has not decayed to
    ``BOUNDARY_TOL`` at y_max, or is below ``PSI_FIRST_NODE_MIN`` at h.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    s = reduced_time(alpha, tau)
    if not s > 0.0:     # also tau < 0
        raise DomainError(f"no march for s = alpha^2 tau = {s}; needs s > 0")
    y_max = grid.y_max_at(s)
    n = grid.n_y
    y = np.linspace(0.0, y_max, n + 1)
    h = float(y[1])
    if not (h * h > 0.0 and y_max * y_max < math.inf):
        raise DomainError(f"q = (1 - psi) / y^2 is not finite on the grid up to "
                          f"y_max {y_max:.3g}: y^2 underflows at h or overflows")
    # M = I + (ds/2) A on u_i = psi_i / i at the interior nodes i, as the
    # module notes derive it: symmetric positive definite, so pttrf meets no
    # zero pivot.  M/2 = L (D/2) L^T: the same L and D halved, exactly
    ds = s / grid.n_t
    half_ds = 0.5 * ds
    i = np.arange(1.0, n)
    d, e, _ = dpttrf(1.0 + half_ds * (i * i + 0.5 * y[1:n] * y[1:n]),
                     -0.5 * half_ds * (i[:-1] * i[1:]))
    factors, half_factors = (d, e), (0.5 * d, e)
    quarter_ds = 0.5 * half_ds
    forcing = np.zeros(n - 1)               # psi(., 0) = 1 enters row 1
    forcing[0] = quarter_ds
    u = 1.0 / i                             # terminal data psi = 1
    seen_lo, seen_hi = u, u                 # every row before this block
    rows = np.empty((CHECK_ROWS, n - 1))    # this block; row k % CHECK_ROWS is u

    # a Rannacher step is two half-steps, each the implicit-Euler solve
    # M w = u + (ds/4) e_1
    for row in rows[:RANNACHER_STEPS]:
        row[:] = u
        for _ in range(2):
            row[0] += quarter_ds
            solve_banded(factors, row)
        u = row
    # a Crank-Nicolson step is the half-step extrapolated, 2 w - u, and 2 w
    # solves (M/2)(2 w) = u + (ds/4) e_1, bit for bit 2 w of the M solve
    for start in range(0, grid.n_t, CHECK_ROWS):
        block = rows[:min(CHECK_ROWS, grid.n_t - start)]
        for row in block[max(RANNACHER_STEPS - start, 0):]:
            np.add(u, forcing, out=row)
            solve_banded(half_factors, row)
            np.subtract(row, u, out=row)
            u = row
        seen_lo = np.minimum(seen_lo, block.min(axis=0))
        seen_hi = np.maximum(seen_hi, block.max(axis=0))

    # i > 0 and rounding is monotone, so i * seen is the extreme psi per node;
    # psi(., 0) = 1 and the far-field Dirichlet psi(., y_max) = 0 join the range
    lo, hi = min(0.0, (i * seen_lo).min()), max(1.0, (i * seen_hi).max())
    if lo < -MAX_PRINCIPLE_EPS or hi > 1.0 + MAX_PRINCIPLE_EPS:
        raise InstabilityError(
            f"psi left [0,1] by more than {MAX_PRINCIPLE_EPS} "
            f"(range [{lo:.3e}, {hi:.3e}]); refine the grid")
    psi = np.concatenate(([1.0], i * u, [0.0]))
    # validate the row the quadrature consumes; early rows near the far edge
    # necessarily carry the Dirichlet far-field transient
    boundary_max = float(psi[n - 1])
    if boundary_max > BOUNDARY_TOL:
        raise AccuracyError(
            f"psi at the far edge reaches {boundary_max:.3e} > boundary_tol "
            f"{BOUNDARY_TOL:.1e}; enlarge y_max (used {y_max:.3g})")
    if psi[1] < PSI_FIRST_NODE_MIN:
        raise AccuracyError(
            f"psi falls to {psi[1]:.3e} at the first node y = {y[1]:.3g}: the "
            f"grid does not resolve its decay; shrink y_max (used {y_max:.3g})")
    coeffs = _pchip_coeffs(y, psi, s)
    # each pchip cell is monotone, so |q| peaks at a knot
    q_max = max(np.abs(coeffs[3]).max(), abs(np.polyval(coeffs[:, -1], h)))
    nodes = (np.arange(n)[:, None] + GL_MID) * h
    weights = np.empty_like(nodes)
    weights[:] = 0.5 * h * GL_WEIGHTS
    gl_q = _cubic(coeffs[:, :, None], y[:-1, None], nodes)
    return PsiSolution(y=y, final=psi, boundary_max=boundary_max, s=s,
                       y_max=float(y[-1]), h=h, q_coeffs=coeffs,
                       q_max=float(q_max), gl_squares=nodes * nodes,
                       gl_weights=weights, gl_q=gl_q,
                       g_integral=float(np.vdot(weights, gl_q)))


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


def _s_key(s: float) -> float:
    """s rounded to ``S_KEY_BITS`` fraction bits: a relative change <= 2^-41."""
    mant, exp = math.frexp(s)
    return math.ldexp(round(math.ldexp(mant, S_KEY_BITS + 1)),
                      exp - S_KEY_BITS - 1)


def kappa_quadrature(state: MarketState, params: SabrParams,
                     contract: SwapContract, grid: GridSpec = GridSpec()) -> float:
    """kappa from the PDE solution and the square-root integral identity.

    Valid for nu >= 0.  psi comes from :func:`psi_memo`, so points sharing
    s = alpha^2 tau (to ``S_KEY_BITS`` fraction bits) and the grid share
    one march.  Below s = ``S_CLOSED_FORM`` (at maturity, where alpha^2 tau
    underflows, or where sigma barely moves) kappa is sqrt(nu + sigma^2
    tau)/T within 4e-8, a :class:`DomainError` where that is not finite.
    Raises :class:`AccuracyError` if the bound on the neglected parts of the
    integral exceeds ``QUAD_TOL`` (about 1e-8 on the default grid).
    """
    tau, s, _, _ = reduced_variables(state, params, contract)
    if s < S_CLOSED_FORM:
        kappa = math.sqrt(state.nu + state.sigma * (state.sigma * tau)) / contract.tenor
        if not math.isfinite(kappa):
            raise DomainError(f"nu + sigma^2 tau is not finite at sigma {state.sigma}")
        return kappa

    solution, refusal = psi_memo(_s_key(s), grid)
    if refusal is not None:
        raise refusal[0](*refusal[1])
    return kappa_from_solution(solution, state, params, contract)


def quad(integrand, nodes: np.ndarray, weights: np.ndarray) -> float:
    """Fixed-node rule: ``weights`` dotted with one call ``integrand(nodes)``."""
    return float(np.vdot(weights, integrand(nodes)))


def kappa_from_solution(solution: PsiSolution, state: MarketState,
                        params: SabrParams, contract: SwapContract) -> float:
    """kappa from one march by the module notes' fixed-node rule in y; raises
    :class:`AccuracyError` if its neglected parts may exceed ``QUAD_TOL``."""
    c = math.sqrt(2.0) * state.sigma / params.alpha    # y per x
    if c == math.inf:
        raise DomainError(f"sqrt(2) sigma / alpha overflows at alpha {params.alpha}")
    _, _, zeta, root_nu = reduced_variables(state, params, contract)
    zeta = max(zeta, sys.float_info.min)    # the weight needs zeta > 0
    y_max, h = solution.y_max, solution.h
    y_cut = min(y_max, 2.0 * math.sqrt(WEIGHT_CUT * zeta))
    tail_bound = solution.boundary_max / y_max    # in y; times c below
    if y_cut < y_max:
        tail_bound += (solution.q_max * math.sqrt(math.pi * zeta)
                       * math.erfc(y_cut / (2.0 * math.sqrt(zeta))))
    if c * tail_bound > QUAD_TOL:
        raise AccuracyError(
            f"tail bound {c * tail_bound:.3e} exceeds quad_tol {QUAD_TOL:.1e}")

    # int_y_max^inf e^(-y^2 / (4 zeta)) / y^2 dy, psi taken as 0 there
    tail = (math.exp(y_max * y_max / (-4.0 * zeta)) / y_max
            - 0.5 * math.sqrt(math.pi / zeta)
            * math.erfc(y_max / (2.0 * math.sqrt(zeta))))
    if zeta == math.inf:    # weight 1 on every whole cell: the march's integral
        integral = solution.g_integral
    else:
        # sub-cells per cell, and sub-cells used
        parts = max(1.0, float(math.ceil(2.0 * h / math.sqrt(zeta))))
        width = h / parts
        m = math.ceil(min(y_cut / width, len(solution.gl_q) * parts))
        if parts == 1.0:    # whole cells: the march tabulated them
            squares = solution.gl_squares[:m]
            q, weights = solution.gl_q[:m], solution.gl_weights[:m]
        else:
            sub = np.arange(m)[:, None]
            cell = ((sub + 0.5) // parts).astype(np.intp)  # row i lies in cell[i]
            nodes = (sub + GL_MID) * width
            squares = nodes * nodes
            q = _cubic(solution.q_coeffs[:, cell], solution.y[cell], nodes)
            weights = np.empty_like(nodes)
            weights[:] = 0.5 * width * GL_WEIGHTS

        def integrand(v2: np.ndarray) -> np.ndarray:
            """q times the weight at the nodes whose squares are ``v2``."""
            out = v2 / (-4.0 * zeta)
            np.exp(out, out=out)
            out *= q
            return out

        integral = quad(integrand, squares, weights)
    return root_nu + c * (integral + tail) / (math.sqrt(math.pi) * contract.tenor)


def grid_refinement_report(state: MarketState, params: SabrParams,
                           contract: SwapContract, grid: GridSpec = GridSpec(),
                           refinements: int = 2) -> dict:
    """kappa on successively halved steps plus the observed convergence ratios.

    Second-order convergence shows up as ratios of successive differences
    near 4.  All refinements share one y_max so the comparison isolates the
    discretization error.  Raises :class:`DomainError`, before any march,
    if the finest grid has more than ``MAX_GRID_NODES`` nodes, outside the
    accrual window and below s = alpha^2 tau = ``S_CLOSED_FORM``, where
    :func:`kappa_quadrature` marches nothing to refine.
    """
    grid.check_size(refinements)
    _, s, _, _ = reduced_variables(state, params, contract)
    if s < S_CLOSED_FORM:
        raise DomainError(f"at s = {s:.3g} < 2^-24 kappa is sqrt(nu + sigma^2 "
                          "tau)/T within 4e-8; there is no grid to refine")
    y_max = grid.y_max_at(_s_key(s))
    kappas, grids = [], []
    for level in range(refinements + 1):
        g = replace(grid, n_y=grid.n_y * 2 ** level, n_t=grid.n_t * 2 ** level)
        kappas.append(kappa_quadrature(state, params, contract, g))
        grids.append((g.n_y, g.n_t))
    ratios = [math.inf if k1 == k2 else (k0 - k1) / (k1 - k2)
              for k0, k1, k2 in zip(kappas, kappas[1:], kappas[2:])]
    return {"kappas": kappas, "grids": grids, "ratios": ratios, "y_max": y_max}
