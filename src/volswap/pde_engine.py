"""Independent PDE reference pricer.

The conditional Laplace-transform factor phi(t, sigma, x) of the remaining
variance reduces, through y = sqrt(2) x sigma / alpha, to a single
one-dimensional terminal-value problem

    d_tau psi = (alpha^2 / 2) * y^2 * (psi'' - psi),   psi(0, y) = 1.

alpha and tau enter only through the reduced variable s = alpha^2 tau, so
:func:`solve_psi` solves

    d_s psi = (1/2) * y^2 * (psi'' - psi)

at s; ``solve_psi(alpha, tau)`` and ``solve_psi(1.0, alpha * alpha * tau)``
give bit-identical results.  s comes from :func:`~volswap.model.reduced_time`,
whose ``S_MAX`` keeps e^s - 1 finite.  The boundary y = 0 is degenerate
(the equation forces psi = 1 there) and a homogeneous Dirichlet condition
is applied at a y_max chosen, and verified post-solve, to make psi
negligible without skipping its decay (``PSI_FIRST_NODE_MIN``).  Only the
row at s is kept, with the pchip cubic of q below built from it once by
:func:`_pchip`: the monotone cubic Hermite interpolant of Fritsch and
Carlson (SIAM J. Numer. Anal. 17, 1980) in numpy, in the operation order of
scipy's ``PchipInterpolator``, whose coefficients it matches bit for bit.

On the uniform grid y_i = i h the term (1/2) y^2 psi'' at node i is
(i^2 / 2)(psi_{i-1} - 2 psi_i + psi_{i+1}), h cancelling, so in u_i = psi_i / i
at the interior nodes the semi-discrete problem is

    du/ds = -A u + g,   u(0) = u_0 = 1 / i,

with A symmetric tridiagonal, diagonal i^2 + y_i^2 / 2 and off-diagonal
-i (i + 1) / 2, and g = e_1 / 2 from psi(., 0) = 1.  Each row of A is
diagonally dominant by y_i^2 / 2, so A is positive definite.  A is
constant in s, so a Laplace transform in s and z = p s give

    u(s) = (1 / 2 pi i) int_Gamma e^z (z I + s A)^-1 (u_0 + s g / z) dz

on a contour Gamma around z = 0 and the spectrum of -sA, on the negative
real axis.  With e^z replaced by a rational r(z) = r_inf + sum_k a_k /
(z - p_k), its poles off (-inf, 0], the integral is minus the residues
outside Gamma, u(s) = r_inf u_0 + sum_k c_k (p_k I + s A)^-1 (u_0 + s g /
p_k) with c_k = -a_k: exact, with r for e^z on the spectrum.  Trefethen,
Weideman and Schmelzer (BIT 46, 2006) show that the trapezoid rule on
Talbot's contour errs by 3.89^-N on N nodes and the best r of type (N, N)
by 9.28^-N.  r here is the type (14, 14) Caratheodory-Fejer approximation,
close to that best one (the CRAM of Pusa, Nucl. Sci. Eng. 169, 2011):
|r - e^x| <= 1.92e-14 on (-inf, 0].  A is real and r's poles pair with
their conjugates, so with w_j the seven in the upper half-plane

    u(s) = r_inf u_0 + 2 Re sum_{j < 7} c_j (w_j I + s A)^-1 (u_0 + s g / w_j).

``CF_POLES``, ``CF_WEIGHTS`` and ``CF_R_INF`` hold w_j, c_j and r_inf, from
that paper's recipe in mpmath at 40 digits, in ~30 s: the Chebyshev
coefficients c_0 .. c_75 of e^(9 (t - 1) / (t + 1)) from its values on the
1024 roots of unity; the SVD of the Hankel matrix (c_(i + j + 1)),
i + j < 75; the roots q outside the unit disk of the 15th singular vector
as a polynomial, mapped to the poles by z = 9 (q - 1)^2 / (q + 1)^2; r_inf
and the residues by least squares against e^x at 600 Chebyshev points of
t.  So psi at any s is seven complex tridiagonal solves, LAPACK ``zgtsv``
(Gaussian elimination with partial pivoting) through :func:`solve_banded`,
and there is no time step: psi matches a dense eigendecomposition of the
same A within 2.5e-14 on 60 nodes, 2.9e-13 on 400 and 3.4e-12 on 1600,
where that and scipy's ``expm`` differ by 3.5e-12 on 400.  A solve takes
0.31, 0.58 and 1.07 ms at 400, 800 and 1600 nodes on a 2-core x86 machine
(s = 0.2, best of 200 calls in 6 processes), where the same sum on
Talbot's contour, twelve solves, takes 0.45, 0.68 and 1.35 ms.

-A has non-negative off-diagonals, so e^(-sA) is entrywise non-negative
and u(s) >= 0.  1 - psi solves the same system with a non-negative forcing
y_i^2 / 2 and non-negative data, so it is >= 0 too: psi lies in [0, 1] at
every s, exactly.  The check that the row at s stays within
``MAX_PRINCIPLE_EPS`` of [0, 1] therefore guards the contour's rounding
alone.

``zgtsv`` is scipy's f2py wrapper, the same object ``scipy.linalg.lapack``
exports, taken from the compiled extension ``scipy/linalg/_flapack`` that
:func:`_load_flapack` loads from its file after a plain ``import scipy``.
Importing it from ``scipy.linalg.lapack`` runs the ``scipy.linalg``
package, whose array-API support loads numpy's lazily imported submodules
(``numpy.f2py``, ``numpy.testing``, ``numpy.ma``, ...): 0.20-0.26 s under
``python -X importtime`` on a 2-core x86 machine, against ~10 ms for
``import scipy`` and ~5 ms for the extension.  ``_flapack`` is a private
module name, but it has held these wrappers in every scipy from 1.10, the
oldest ``pyproject.toml`` allows; ``tests/test_imports.py`` checks that
``scipy.linalg.lapack`` hands out the very object loaded here.  numpy and
the extension load inside :func:`~volswap._openblas.idle_threads_asleep`,
so neither OpenBLAS pool keeps idle threads spinning.

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
stores, once per solve, max|q(knots)| and three tables with a row per whole
cell: its six nodes squared, their weights and the cubic there.  A price
on whole cells is then one divide, one ``exp`` and one multiply over the
first rows of those tables, and one dot product, :func:`quad`, named like
:func:`solve_banded` after the scipy routine it replaced, which tracing
tools look up by module attribute.  Sub-cells evaluate the same cubic, by
the same Horner formula, at their own nodes.  At zeta = inf (nu = 0, or
zeta past the float range) the weight is exp(-0.0) = 1 on every cell, so
the solve stores that quadrature too, bit for bit what :func:`quad`
would return, and the price does no array work: the tail is 1 / y_max and

    G(s) = kappa T alpha / sigma = sqrt(2 / pi) * (int_0^y_max q dy + 1 / y_max)

is a function of the row at s alone.

:func:`kappa_quadrature` solves once per (s, grid): it looks psi up in
:func:`psi_memo`, a least-recently-used memo of ``PSI_MEMO_SIZE`` entries
keyed by the grid and by s rounded to ``S_KEY_BITS`` fraction bits.
tau = maturity - t carries float noise, so points that share s in exact
arithmetic differ in its last bits; the rounding moves s by at most
2^-41 ~ 4.5e-13 relative, far below the discretization error.  A solve
refused with :class:`AccuracyError` or :class:`InstabilityError` is
memoised too and re-raised on every lookup as a fresh exception of the
same type and message.  :func:`grid_refinement_report` prices every level
through this memo, on the caller's y_max, halving h at each level.  No
grid, refinements included, has more than ``MAX_GRID_NODES`` nodes n_y: a
larger one is a :class:`DomainError` before anything is allocated.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

from ._openblas import idle_threads_asleep
from .exceptions import AccuracyError, DomainError, InstabilityError
from .model import (MarketState, SabrParams, SwapContract, reduced_time,
                    reduced_variables)

with idle_threads_asleep():     # numpy's OpenBLAS loads with it
    import numpy as np
    import scipy


def _load_flapack():
    """scipy's compiled LAPACK extension, without the scipy.linalg package,
    its OpenBLAS pool's idle threads asleep (module notes)."""
    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled "
                          "scipy/linalg/_flapack extension")
    with idle_threads_asleep():     # scipy's OpenBLAS loads with the extension
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
zgtsv = _flapack.zgtsv

#: psi outside [-eps, 1 + eps] at s is the contour sum's rounding gone
#: wrong: exactly, psi lies in [0, 1] (module notes).
MAX_PRINCIPLE_EPS = 1e-6
#: psi at the penultimate node of the row at s may reach at most this.
BOUNDARY_TOL = 1e-8
#: least psi at the first node y = h.  The second difference at h errs by a
#: relative O(x), x = q(0) h^2, and psi(h) >= e^-x (the Jensen bound of
#: :func:`default_y_max`): psi(h) < 0.995 means x > 0.005.  The default grid
#: and its refinements have x <= 2.5^2 * 52 / (2 * 400^2) = 1e-3; y_max 23.3
#: at s = 4 on 400 nodes has psi(h) 0.974 and prices 6.7 % high.
PSI_FIRST_NODE_MIN = 0.995
#: s = alpha^2 tau below which kappa is sqrt(nu + sigma^2 tau)/T, no solve.
#: There the closed form lies between Hoelder's E[B]^(3/2) / E[B^2]^(1/2)
#: and Jensen's sqrt(E[B]), B = nu + int sigma^2, which differ by at most
#: ~(2/3) s < 4e-8 relative, and below s = 2^-53 the pchip on y_max ~
#: s^(-1/2) has slopes that overflow or underflow.
S_CLOSED_FORM = 2.0 ** -24
#: most nodes n_y of a grid that is solved, refinements included: the
#: reference table's finest grid, 3200 nodes, with its cells halved five
#: more times, which solves in about 0.1 s on a 2-core x86 machine.
#: ``--refine 40`` would not end, and n_y = 1e9 would allocate 16 GB for
#: each complex vector of the solve.
MAX_GRID_NODES = 3200 * 2 ** 5
#: the module notes' r(z) = r_inf + sum_k a_k / (z - p_k) ~ e^z: its poles
#: w_j in the upper half-plane, their c_j = -a_j and r_inf.
CF_POLES = np.array([
    -8.897773186468662 + 16.630982619902316j,
    -3.703275049423281 + 13.656371871483397j,
    -0.20875863824999713 + 10.991260561901344j,
    2.269783829231225 + 8.461737973040277j,
    3.9933697105786674 + 6.004831642235073j,
    5.089345060580715 + 3.588824029027027j,
    5.623142572746064 + 1.1940690463439736j])
CF_WEIGHTS = np.array([
    7.154288063736824e-05 - 0.00014361043350704286j,
    -0.009439025310630697 + 0.017184791958496592j,
    0.3763600387822433 - 0.3351834702940453j,
    -4.807112098834394 + 1.3209793837423374j,
    23.498232091086198 + 5.8083591297130965j,
    -46.93327448883162 - 45.6436497688305j,
    27.87516194014428 + 102.14733999057796j])
CF_R_INF = 1.8321989582366484e-14
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
    """Grid of n_y cells on [0, y_max], n_y at most ``MAX_GRID_NODES``;
    y_max = None lets the solver pick a validated default."""

    y_max: float = None
    n_y: int = 400

    def __post_init__(self):
        if self.y_max is not None and not (0 < self.y_max < math.inf):
            raise DomainError(f"y_max must be positive and finite, got {self.y_max}")
        if self.n_y < 16:
            raise DomainError("grid needs n_y >= 16")
        self.check_size()

    def check_size(self, refinements: int = 0) -> None:
        """Raise :class:`DomainError` if the grid with its cells halved
        ``refinements`` times has more than ``MAX_GRID_NODES`` nodes."""
        # 16 times 2^20 is past the cap: no need for 2^refinements itself
        if self.n_y * 2 ** min(refinements, 20) > MAX_GRID_NODES:
            refined = f" refined {refinements} times" if refinements else ""
            raise DomainError(
                f"a grid of {self.n_y} nodes{refined} has more than "
                f"MAX_GRID_NODES = {MAX_GRID_NODES} nodes n_y")

    def y_max_at(self, s: float) -> float:
        """``y_max``, or when it is None the :func:`default_y_max` at s."""
        return self.y_max if self.y_max is not None else default_y_max(1.0, s)


@dataclass(frozen=True)
class PsiSolution:
    """psi at reduced time s on the grid ``y``, the row ``final``.

    Its penultimate-node value is stored as ``boundary_max``.
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
    final: np.ndarray           # psi at s
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


def solve_banded(off: np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> None:
    """Overwrite ``rhs`` with the solution of the tridiagonal system whose
    diagonal is ``diag`` and whose sub- and super-diagonal are both ``off``.

    One LAPACK ``zgtsv`` call, Gaussian elimination with partial pivoting,
    the routine ``scipy.linalg.solve_banded((1, 1), ...)`` calls, so the two
    agree bit for bit.  ``diag`` and ``off`` are left as they are; ``rhs``
    must be a contiguous complex128 vector, which LAPACK can overwrite
    without a copy.
    """
    *_, solution, info = zgtsv(off, diag, off, rhs, overwrite_b=1)
    if solution is not rhs:
        raise TypeError("rhs must be a contiguous complex128 vector")
    if info:
        raise InstabilityError(f"zgtsv met a zero pivot in row {info}")


def solve_psi(alpha: float, tau: float,
              grid: GridSpec = GridSpec()) -> PsiSolution:
    """psi at s = alpha^2 tau, exact in s: the module notes' contour sum.

    Raises :class:`DomainError` unless 0 < s <= ``S_MAX`` (at s = 0, psi = 1
    and kappa is exact) and y^2 is positive and finite on the grid,
    :class:`InstabilityError` if the row at s leaves [0, 1] by more than
    ``MAX_PRINCIPLE_EPS`` (rounding; exactly, it cannot) and
    :class:`AccuracyError` if psi has not decayed to ``BOUNDARY_TOL`` at
    y_max, or is below ``PSI_FIRST_NODE_MIN`` at h.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    s = reduced_time(alpha, tau)
    if not s > 0.0:     # also tau < 0
        raise DomainError(f"no psi for s = alpha^2 tau = {s}; needs s > 0")
    y_max = grid.y_max_at(s)
    n = grid.n_y
    y = np.linspace(0.0, y_max, n + 1)
    h = float(y[1])
    if not (h * h > 0.0 and max(s, 1.0) * (y_max * y_max) < math.inf):
        raise DomainError(f"q = (1 - psi) / y^2 or s y^2 is not finite on the grid "
                          f"up to y_max {y_max:.3g}: y^2 underflows at h or "
                          f"s y^2 overflows")
    # s A on u_i = psi_i / i at the interior nodes i, as the module notes
    # derive it, and u(s) = r_inf u_0 + 2 Re sum_j c_j (w_j I + s A)^-1
    # (u_0 + s g / w_j)
    i = np.arange(1.0, n)
    diag = s * (i * i + 0.5 * y[1:n] * y[1:n])
    off = (-0.5 * s) * (i[:-1] * i[1:])
    u_0 = 1.0 / i                           # psi(., 0) = 1
    x = np.empty((len(CF_POLES), n - 1), dtype=complex)
    x[:] = u_0
    x[:, 0] += 0.5 * s / CF_POLES           # g = e_1 / 2
    # one shifted diagonal at a time: a 7 x (n - 1) array is slower at 1600
    shifted = np.empty(n - 1, dtype=complex)
    for w, row in zip(CF_POLES, x):
        np.add(diag, w, out=shifted)
        solve_banded(off, shifted, row)
    # Re(c x) in real ufuncs, not BLAS, summed in pole order: the same
    # bits on every host
    terms = CF_WEIGHTS.real[:, None] * x.real - CF_WEIGHTS.imag[:, None] * x.imag
    u = 2.0 * np.add.reduce(terms, axis=0) + CF_R_INF * u_0
    psi = np.concatenate(([1.0], i * u, [0.0]))

    lo, hi = psi.min(), psi.max()           # nan fails the check too
    if not (lo >= -MAX_PRINCIPLE_EPS and hi <= 1.0 + MAX_PRINCIPLE_EPS):
        raise InstabilityError(
            f"psi left [0,1] by more than {MAX_PRINCIPLE_EPS} (range "
            f"[{lo:.3e}, {hi:.3e}]): the contour sum lost its accuracy")
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
    traceback would pin the solve's arrays.
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
    one solve.  Below s = ``S_CLOSED_FORM`` (at maturity, where alpha^2 tau
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
    """kappa from one solve by the module notes' fixed-node rule in y; raises
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
    if zeta == math.inf:    # weight 1 on every whole cell: the solve's integral
        integral = solution.g_integral
    else:
        # sub-cells per cell, and sub-cells used
        parts = max(1.0, float(math.ceil(2.0 * h / math.sqrt(zeta))))
        width = h / parts
        m = math.ceil(min(y_cut / width, len(solution.gl_q) * parts))
        if parts == 1.0:    # whole cells: the solve tabulated them
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
    """kappa on successively halved cells h plus the observed convergence ratios.

    psi is exact in s, so h is the only discretization: second-order
    convergence shows up as ratios of successive differences near 4.  All
    refinements share one y_max.  Raises :class:`DomainError`, before any
    solve, if the finest grid has more than ``MAX_GRID_NODES`` nodes,
    outside the accrual window and below s = alpha^2 tau =
    ``S_CLOSED_FORM``, where :func:`kappa_quadrature` solves nothing to
    refine.
    """
    grid.check_size(refinements)
    _, s, _, _ = reduced_variables(state, params, contract)
    if s < S_CLOSED_FORM:
        raise DomainError(f"at s = {s:.3g} < 2^-24 kappa is sqrt(nu + sigma^2 "
                          "tau)/T within 4e-8; there is no grid to refine")
    y_max = grid.y_max_at(_s_key(s))
    grids = [grid.n_y * 2 ** level for level in range(refinements + 1)]
    kappas = [kappa_quadrature(state, params, contract, replace(grid, n_y=n))
              for n in grids]
    ratios = [math.inf if k1 == k2 else (k0 - k1) / (k1 - k2)
              for k0, k1, k2 in zip(kappas, kappas[1:], kappas[2:])]
    return {"kappas": kappas, "grids": grids, "ratios": ratios, "y_max": y_max}
