"""Independent PDE reference pricer.

The conditional Laplace-transform factor phi(t, sigma, x) of the remaining
variance reduces, through y = sqrt(2) x sigma / alpha, to a single
one-dimensional terminal-value problem

    d_tau psi = (alpha^2 / 2) * y^2 * (psi'' - psi),   psi(0, y) = 1.

alpha and tau enter only through the reduced variable s = alpha^2 tau, so
:func:`solve_psi` solves it at s with alpha = 1; ``solve_psi(alpha, tau)``
and ``solve_psi(1.0, alpha * alpha * tau)`` give bit-identical results.  s
comes from :func:`~volswap.model.reduced_time`, whose ``S_MAX`` keeps e^s - 1
finite.

In x = ln y the operator y^2 (d_y^2 - 1) / 2 is (d_x^2 - d_x) / 2 - e^(2x) / 2,
and v = 1 - psi = e^(x/2) chi turns the problem into

    d_s chi = chi_xx / 2 - (1/8 + e^(2x) / 2) chi + e^(3x/2) / 2,   chi(0) = 0:

a constant-coefficient Laplacian, the Liouville potential and a constant
forcing.  psi turns over near y ~ s^(-1/2) at small s and near y ~ 1 at
large s, so one uniform grid in x, of ``GridSpec.n_y`` cells of width h,
resolves every s.  Solving for v, not psi, avoids the cancellation in
1 - psi at small y.  The grid's seven choices were each checked against
``perfbench/reference.json`` (40 x 40 F(s, zeta) and 40 G(s) on 0.0005 <=
s <= 0.8) and against this solver on 3200 to 6400 cells; the x_min and
Robin figures in 2 and 3 and the x_max move in 4 come from a probe of an
earlier second-order form of this solver at h = 0.0085, the rest from
this module as it stands:

1. Interior rows: Numerov's Mehrstellen stencil (Collatz, The Numerical
   Treatment of Differential Equations, 1960).  The equation has no
   first-derivative term, so the three-point relation D_2 chi = M chi'',
   with D_2 the second difference and M = tridiag(1, 10, 1) / 12, holds to
   O(h^4), and the rows read M d chi/ds = -K chi + b with K = -D_2 / 2 +
   M diag(V), V = c + e^(2x) / 2, and b = M g, g = e^(3x/2) / 2: fourth
   order, in the same tridiagonal shape as plain second differences.  c =
   (2 sinh(h/4)^2 / h^2) / (1 + sinh(h/4)^2 / 3) in place of 1/8 makes K
   e^(-x/2) = M g, so v = 1 is an exact steady state of every interior
   row.  The sinh form has no cancellation on fine grids.
2. Boundary rows: at x_min, v ~ q(0) y^2 with q(0) = (e^s - 1) / 2, so a
   Robin row chi_0 = e^(-3h/2) chi_1, constant in s, folded into the first
   row of both M and K; at x_max, Dirichlet v = 1, whose column of K moves
   into b (its column of M meets d chi_n/ds = 0).  With v = 0 at x_min =
   -12 the lattice error of the second-order form stalled near 1.1e-6 from
   1600 cells on; with the Robin row it falls with the grid's order.
3. x_min = -max(10, 8 + 1.5 s).  At zeta = 1 and h = 0.0085, F(8, 1) reads
   6.2347 at x_min = -10, 6.24916 at -14 and 6.249244 from -18 to -32.
4. x_max = max(7, ln(80 / s) / 2), where s y^2 / 2 = 40: at small s,
   psi ~ e^(-s y^2 / 2).  A fixed x_max = 7 leaves psi at 0.95 at the far
   edge at s = 1e-7, and with the far-edge and tail checks off it put G off
   by 1.5, 0.13 and 5.1e-5 relative at s = 1e-7, 1e-6 and 1e-5; the rule
   keeps G within 2.4e-9 of a y grid there.  Moving x_max from 6 to 9 changed F and G by
   at most 4e-11 at s = 5e-4, 0.08 and 16.  psi >= e^(-y) at every s
   (Dufresne's identity, Scand. Actuarial J. 1990) keeps v = 1 at y = e^7
   honest, and ``BOUNDARY_TOL`` checks it after each solve.
5. The mass below y_min = e^(x_min): q is q(x_min) there, so its part of
   the kappa integral below is q(x_min) sqrt(pi zeta) erf(y_min / (2
   sqrt(zeta))), v(x_min) / y_min at zeta = inf.  At zeta = 3e-10 and
   s = 0.08 it puts F - 1 at 2.4986e-11, as a y grid reads; without its
   weight the same part gave 3.85e-11.
6. The tail past y_max in closed form with psi = 0 there, and the
   trapezoid's Euler-Maclaurin end terms on the integrand f below.  At
   x_max, v = 1 and f = w / y; with u = y_max^2 / (2 zeta), f' = -(1 + u)
   f, f''' = -(1 + u - 3u^2 + u^3) f and f^(5) = -(1 + u - 30u^2 + 50u^3 -
   15u^4 + u^5) f, the terms -(h^2 / 12) f' + (h^4 / 720) f''' - (h^6 /
   30240) f^(5) are (h^2 / 12 - h^4 / 720 + h^6 / 30240) / y_max at zeta =
   inf.  At x_min, f = q_min y w, and the term is (h^2 / 12) f'(x_min) =
   (h^2 / 12) q_min y_min w(y_min) (1 - y_min^2 / (2 zeta)).  On 100 cells,
   against this solver's Richardson value on 3200 and 6400 cells, G at s
   = 2^-24 errs by 2.2e-7 without the h^4 term and F at s = 2^-24, zeta =
   1e8 by 2.4e-8 without the h^6 term (1.1e-9 with it); without the x_min
   term an O(h^2) part remains, and the ratios on 400, 800 and 1600 cells
   fall from 16 to 4.7-5.1.
7. ``S_PDE_MAX`` = 8.  Against that Richardson value, 100 cells err by
   1.1e-6, 3.1e-6 and 1.4e-5 at s = 4, 8 and 16 (worst over zeta = 0.1, 1,
   10 and inf), and at s = 32 they overshoot v = 1 by more than
   ``MAX_PRINCIPLE_EPS``; at s = 200 the second-order form's rules priced F
   = -552.  Past 8 the solver refuses with :class:`AccuracyError`.

On the default 100 cells the worst error over the whole reference lattice
is 2.9e-7 in F and in G against the table, whose own bounds reach 7.6e-7,
and 3.4e-7 in F and 2.4e-7 in G against this solver's Richardson value on
3200 and 6400 cells (2.1e-8 and 1.5e-8 on 200 cells).  Worst over zeta =
1e-10, 1e-9, ..., 1e9 and inf, 100 cells err by 1.1e-9, 7.2e-11, 7.8e-8,
3.2e-7 and 3.1e-6 at s = 2^-24, 1e-5, 0.08, 0.8 and 8.  The refinement
ratios are 16.0 to 16.3.

The interior nodes 1 .. n - 1 give M d chi/ds = -K chi + b, with M and K
tridiagonal and constant in s.  M is symmetric, and M and D_2 are both
polynomials in one symmetric tridiagonal matrix, the Robin row included,
so they commute and A = M^-1 K = -M^-1 D_2 / 2 + diag(V) is symmetric.
M^-1 (-D_2 / 2) is a product of commuting positive definite matrices, so
it is positive definite, and so is A, with V > 0: its spectrum is real and
positive (its least eigenvalue 0.17 on 80 cells at s = 0.08).
K itself is not symmetric: its sub-diagonal holds V_(i-1) / 12 - 1 /
(2 h^2) and its super-diagonal V_(i+1) / 12 - 1 / (2 h^2).  A Laplace
transform in s and z = p s give

    chi(s) = (1 / 2 pi i) int_Gamma e^z (z M + s K)^-1 (s b / z) dz

on a contour Gamma around z = 0 and the spectrum of -sA, on the negative
real axis.  With e^z replaced by a rational r(z) = r_inf + sum_k a_k /
(z - p_k), its poles off (-inf, 0], the integral is minus the residues
outside Gamma, chi(s) = sum_k c_k (p_k M + s K)^-1 (s b / p_k) with c_k =
-a_k: exact, with r for e^z on the spectrum, and no r_inf term since
chi(0) = 0.  Trefethen, Weideman and Schmelzer (BIT 46, 2006) show that
the trapezoid rule on Talbot's contour errs by 3.89^-N on N nodes and the
best r of type (N, N) by 9.28^-N.  r here is the type (14, 14)
Caratheodory-Fejer approximation, close to that best one (the CRAM of
Pusa, Nucl. Sci. Eng. 169, 2011): |r - e^x| <= 1.92e-14 on (-inf, 0], and
so on the spectrum of the symmetric -sA.  M and K are real and r's poles
pair with their conjugates, so with w_j the seven in the upper half-plane

    chi(s) = 2 Re sum_{j < 7} c_j (w_j M + s K)^-1 (s b / w_j).

``CF_POLES`` and ``CF_WEIGHTS`` hold w_j and c_j (r_inf = 1.83e-14), from
that paper's recipe in mpmath at 40 digits, in ~30 s: the Chebyshev
coefficients c_0 .. c_75 of e^(9 (t - 1) / (t + 1)) from its values on the
1024 roots of unity; the SVD of the Hankel matrix (c_(i + j + 1)),
i + j < 75; the roots q outside the unit disk of the 15th singular vector
as a polynomial, mapped to the poles by z = 9 (q - 1)^2 / (q + 1)^2; r_inf
and the residues by least squares against e^x at 600 Chebyshev points of
t.  So v at any s is seven complex tridiagonal solves, and there is no
time step: v matches a dense eigendecomposition of the same A within
5e-14 on 60 cells up to s = 4.

:func:`solve_psi` hands the seven to LAPACK ``zgtsv`` (Gaussian elimination
with partial pivoting) through :func:`solve_banded` in one call, as one
block-diagonal system of 7 (n - 1) rows whose off-diagonals are 0 at the
six joins.  At a join the entry below the pivot is 0, so ``zgtsv``
neither eliminates nor swaps across it, and every term that crosses it
in the back substitution is an exact 0: each block gets the bits of its
own call.  The four arrays of that system are views of one allocation,
which the solve fills in place: two broadcast adds, w_j / 12 + s K's
two off-diagonals and w_j 10 / 12 + s K's diagonal, and one divide, s b /
w_j, then 0 at the joins and M's Robin entry in each block's first row;
as four fresh arrays they cost up to 0.25 ms more at 1600 cells, in page
faults.

K, b and the nodes depend on the grid, not on s: :func:`_grid_parts`
keeps them and the rest of a solve's s-free parts, a :class:`_GridParts`,
for the last ``GRID_CACHE_SIZE`` grids (n_y, x_min, x_max).
:func:`x_bounds` is (-10, 7) for 80 e^-14 <= s <= 4/3, so every s of the
reference lattice shares one entry per grid size.  On a 2-core x86 machine
(best of 400 calls, s over the lattice) a solve takes 65-75 us at 100
cells, 0.11 ms at 200 and 0.18 ms at 400.  At 100 cells that is ~16 us to
assemble the system, ~25 us in ``zgtsv``, ~8 us for the pole sum and ~18
us for the checks, the weights and the :class:`PsiSolution`.

The true v lies in [0, 1] at every s: psi is a Laplace transform of a
non-negative variable.  Here M's off-diagonals are positive and -K's turn
negative where V > 6 / h^2, so the scheme may overshoot, and it does, at
the far edge where v meets 1.  Over 2000 s from 2^-24 to 8, max v - 1
reads 5.8e-7 on 64 cells and 3.7e-9 on 100, and min v >= 0; 60 cells
overshoot by more than ``MAX_PRINCIPLE_EPS`` at 13 of those s and 48
cells fail the far-edge check at 720.  So :class:`GridSpec` refuses fewer
than 64 cells, and the check that v at s stays within
``MAX_PRINCIPLE_EPS`` of [0, 1] guards the pole sum's rounding, which
would move v by O(1) where it failed.

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

kappa is then recovered by quadrature.  With q(y) = v(y) / y^2, c =
sqrt(2) sigma / alpha, zeta (inf at nu = 0) and sqrt(nu)/T from
:func:`~volswap.model.reduced_variables` and the weight w = e^(-y^2 / (4 zeta)),

    kappa = sqrt(nu)/T + c / (sqrt(pi) T) * int_0^inf w(y) q(y) dy,

and dy = y dx makes the part on the grid int w v e^(-x) dx, of an
integrand f that is analytic in x.  So :func:`kappa_from_solution` uses the
trapezoid rule on the solve's own nodes, plus choices 5 and 6 above.
:func:`solve_psi` stores y^2 = e^(2x), the end-halved weights h v e^(-x)
and the end terms, so a price is one ``exp`` and one dot product,
:func:`quad`, named like :func:`solve_banded` after the scipy routine it
replaced, which tracing tools look up by module attribute.  Below
``ZETA_WEIGHTLESS`` the weight is 0 at every node, so the price leaves the
dot product out, and y^2 / zeta, which overflows near zeta = 1e-300, is
never formed.  At zeta = inf
(nu = 0, or zeta past the float range) the weight is 1 everywhere, so the
solve stores that integral too, and

    G(s) = kappa T alpha / sigma = sqrt(2 / pi) * int_0^inf q dy

is a function of the solve alone.  c times psi at the penultimate node
over y_max bounds what psi = 0 past y_max drops; it must stay below
``QUAD_TOL``.

:func:`kappa_quadrature` solves once per (s, grid): it reads v from
:func:`psi_memo`, a least-recently-used cache of ``PSI_MEMO_SIZE``
solutions keyed by the grid and by s rounded to ``S_KEY_BITS`` fraction
bits.  tau = maturity - t carries float noise, so points that share s in
exact arithmetic differ in its last bits; the rounding moves s by at most
2^-41 ~ 4.5e-13 relative, far below the discretization error.  The cache
holds solutions only: a solve refused with :class:`AccuracyError` or
:class:`InstabilityError` is not kept and raises again on every lookup.

:func:`grid_refinement_report` prices level k by :func:`kappa_quadrature`
on the default grid with its cells halved k times, so its first level is
the default price bit for bit, and below ``S_CLOSED_FORM`` every level is
the closed form.  It builds every level's :class:`GridSpec` before it
solves anything, so a level of more than ``MAX_GRID_NODES`` cells n_y is a
:class:`DomainError` before anything is allocated.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass
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

#: v = 1 - psi outside [-eps, 1 + eps] at s is the contour sum's rounding
#: gone wrong: the scheme's overshoot past 1 is at most 3.7e-9 on the
#: default grid and 5.8e-7 on 64 cells, ``GridSpec``'s floor (module notes).
MAX_PRINCIPLE_EPS = 1e-6
#: psi = 1 - v at the penultimate node of the row at s may reach at most this.
BOUNDARY_TOL = 1e-8
#: s = alpha^2 tau below which kappa is sqrt(nu + sigma^2 tau)/T, no solve.
#: There the closed form lies between Hoelder's E[B]^(3/2) / E[B^2]^(1/2)
#: and Jensen's sqrt(E[B]), B = nu + int sigma^2, which differ by at most
#: ~(2/3) s < 4e-8 relative.
S_CLOSED_FORM = 2.0 ** -24
#: largest s solved: the default grid errs by 3.1e-6 here, and the grid's
#: rules fail by s = 200 (module notes).
S_PDE_MAX = 8.0
#: most cells n_y of a grid that is solved, refinements included: 6400
#: cells, the finest grid the module notes' Richardson values use, with its
#: cells halved four more times, which solves in about 0.06 s on a 2-core
#: x86 machine (0.08 s with its grid parts built).  n_y = 1e9 would
#: allocate 16 GB for each complex vector of the solve.
MAX_GRID_NODES = 3200 * 2 ** 5
#: the module notes' r(z) = r_inf + sum_k a_k / (z - p_k) ~ e^z: its poles
#: w_j in the upper half-plane and their c_j = -a_j.
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
#: each pole w_j times M's off-diagonal 1/12 and times its diagonal 10/12,
#: as columns
POLE_OFF = (CF_POLES / 12.0)[:, None]
POLE_DIAG = (CF_POLES * (10.0 / 12.0))[:, None]
#: grids whose s-free parts :func:`_grid_parts` keeps: seven float vectors
#: of about n_y each, 5.7 MB a grid at ``MAX_GRID_NODES`` and 46 MB in all.
GRID_CACHE_SIZE = 8
#: psi solutions kept by :func:`psi_memo`.
PSI_MEMO_SIZE = 64
#: fraction bits of s kept in the memo key (relative change <= 2^-41).
S_KEY_BITS = 40
#: largest bound on the neglected part of the kappa integral past y_max.
QUAD_TOL = 1e-6
#: zeta below which the weight e^(-y^2 / (4 zeta)) is 0 at every node: there
#: y^2 >= e^-40 (x_min >= -20), so y^2 / (4 zeta) > 1e182.  y^2 / zeta can
#: overflow only below zeta ~ 1.9e-300 (y^2 <= 80 / S_CLOSED_FORM).
ZETA_WEIGHTLESS = 1e-200


@dataclass(frozen=True)
class GridSpec:
    """n_y cells of the uniform x = ln y grid, from the scheme's floor of
    64 (module notes) to ``MAX_GRID_NODES``; the solver picks its ends
    from s (:func:`x_bounds`)."""

    n_y: int = 100

    def __post_init__(self):
        if self.n_y < 64:
            raise DomainError(f"a grid of {self.n_y} cells is below the "
                              "fourth-order scheme's floor of 64 cells n_y")
        if self.n_y > MAX_GRID_NODES:
            raise DomainError(f"a grid of {self.n_y} nodes has more than "
                              f"MAX_GRID_NODES = {MAX_GRID_NODES} nodes n_y")


@dataclass(frozen=True)
class PsiSolution:
    """v = 1 - psi at reduced time s on the n_y + 1 nodes of the x = ln y
    grid from :func:`x_bounds` (s).

    ``squares`` holds y^2 = e^(2x) at the nodes and ``weights`` the
    trapezoid's end-halved weights times v e^-x, so that the body of the
    kappa integral is one ``exp`` and one dot product.  ``h`` is the cell
    width, ``y_min`` and ``y_max`` the ends in y, ``q_min`` = v / y^2 at
    ``y_min``; ``start`` = (h^2 / 12) q_min y_min is the Euler-Maclaurin
    term at x_min and ``end`` = (h^2 / 12, h^4 / 720, h^6 / 30240) / y_max
    the coefficients of those at x_max, each at weight 1 (module notes,
    choice 6).  ``boundary_max`` is psi at the penultimate node.
    ``g_integral``, the whole integral at zeta = inf, where the weight
    e^(-y^2 / (4 zeta)) is 1, is sqrt(pi / 2) G(s).
    """

    v: np.ndarray
    squares: np.ndarray
    weights: np.ndarray
    s: float
    h: float
    y_min: float
    y_max: float
    q_min: float
    start: float
    end: tuple
    boundary_max: float
    g_integral: float

    def __post_init__(self):
        # psi_memo hands one instance to every caller that shares its s
        for array in (self.v, self.squares, self.weights):
            array.flags.writeable = False


def x_bounds(s: float) -> tuple:
    """(x_min, x_max) of the grid at s: x_min = -max(10, 8 + 1.5 s) and
    x_max = max(7, ln(80 / s) / 2), where s y^2 / 2 = 40 (module notes)."""
    return -max(10.0, 8.0 + 1.5 * s), max(7.0, 0.5 * math.log(80.0 / s))


@dataclass(frozen=True)
class _GridParts:
    """The parts of a solve on the n cells of [x_min, x_max] that do not
    depend on s, for :func:`_grid_parts`: the nodes' y = e^x and y^2, sqrt(y)
    at the interior nodes, K's off-diagonals (sub, super) and diagonal and
    b (module notes), the poles times M's Robin entry e^(-3h/2) / 12, the
    scalars of the boundary rows, and the x_max end terms of the kappa
    integral at weight 1 (:class:`PsiSolution`)."""

    y: np.ndarray
    squares: np.ndarray
    root_y: np.ndarray
    k_off: np.ndarray
    k_diag: np.ndarray
    b: np.ndarray
    robin_poles: np.ndarray
    h: float
    v_min_ratio: float
    y_min: float
    y_max: float
    end: tuple

    def __post_init__(self):
        # _grid_parts hands one instance to every solve on its grid
        for array in (self.y, self.squares, self.root_y, self.k_off, self.k_diag,
                      self.b, self.robin_poles):
            array.flags.writeable = False


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid_parts(n: int, x_min: float, x_max: float) -> _GridParts:
    """The s-free parts of a solve on n cells of [x_min, x_max], kept."""
    x = np.linspace(x_min, x_max, n + 1)
    h = (x_max - x_min) / n
    # libm's exp, not numpy's, whose SIMD kernels differ by an ulp by host
    y = np.array([math.exp(node) for node in x.tolist()])
    squares = y * y
    root_y = np.sqrt(y)
    quarter = math.sinh(0.25 * h) ** 2
    # V = c + y^2 / 2, with c such that v = 1 is a steady state (note 1)
    potential = 2.0 * quarter / (h * h) / (1.0 + quarter / 3.0) + 0.5 * squares
    k = 0.5 / (h * h)
    robin = math.exp(-1.5 * h)
    # K = -D_2 / 2 + M diag(V) on the interior nodes: row i holds
    # -k + V_(i-1) / 12, 2 k + 10 V_i / 12 and -k + V_(i+1) / 12.  k_off
    # is (sub, super), one entry per row, as the stacked system lays them out
    k_off = np.zeros((2, 1, n - 1))
    k_off[0, 0, :-1] = potential[1:n - 1] / 12.0 - k
    k_off[1, 0, :-1] = potential[2:n] / 12.0 - k
    k_diag = 2.0 * k + potential[1:n] * (10.0 / 12.0)
    k_diag[0] += robin * (potential[0] / 12.0 - k)    # Robin: chi_0 = e^(-3h/2) chi_1
    # b = M g, g = y^(3/2) / 2, plus the Dirichlet row's constant -K chi_n
    g = 0.5 * y * root_y
    b = (g[:n - 1] + 10.0 * g[1:n] + g[2:]) / 12.0
    b[-1] += (k - potential[n] / 12.0) / root_y[n]
    y_max = float(y[n])
    h2 = h * h
    return _GridParts(
        y=y, squares=squares, root_y=root_y[1:n], k_off=k_off, k_diag=k_diag, b=b,
        robin_poles=CF_POLES * (robin / 12.0), h=h, v_min_ratio=math.exp(-2.0 * h),
        y_min=float(y[0]), y_max=y_max,
        end=(h2 / (12.0 * y_max), h2 * h2 / (720.0 * y_max),
             h2 * h2 * h2 / (30240.0 * y_max)))


def solve_banded(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> None:
    """Overwrite ``rhs`` with the solution of the tridiagonal system whose
    sub-, main and super-diagonal are ``lower``, ``diag`` and ``upper``.

    One LAPACK ``zgtsv`` call, Gaussian elimination with partial pivoting,
    the routine ``scipy.linalg.solve_banded((1, 1), ...)`` calls, so the two
    agree bit for bit.  LAPACK works in all four arrays in place, without
    a copy: each must be a contiguous complex128 vector of its own, and only
    ``rhs`` holds anything useful afterwards.
    """
    dl, d, du, solution, info = zgtsv(lower, diag, upper, rhs, overwrite_dl=1,
                                      overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if not (dl is lower and d is diag and du is upper and solution is rhs):
        raise TypeError("lower, diag, upper and rhs must be contiguous "
                        "complex128 vectors")
    if info:
        raise InstabilityError(f"zgtsv met a zero pivot in row {info}")


def solve_psi(alpha: float, tau: float,
              grid: GridSpec = GridSpec()) -> PsiSolution:
    """v = 1 - psi at s = alpha^2 tau, exact in s: the module notes' pole sum.

    Raises :class:`DomainError` unless ``S_CLOSED_FORM`` <= s <= ``S_MAX``
    (below it kappa is its closed form), :class:`AccuracyError` past
    ``S_PDE_MAX`` or if psi has not decayed to ``BOUNDARY_TOL`` at the far
    edge, and :class:`InstabilityError` if v leaves [0, 1] by more than
    ``MAX_PRINCIPLE_EPS`` (the pole sum's rounding).
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    s = reduced_time(alpha, tau)
    if not s >= S_CLOSED_FORM:     # also tau < 0
        raise DomainError(f"no psi for s = alpha^2 tau = {s}; needs s >= 2^-24, "
                          "below which kappa is sqrt(nu + sigma^2 tau)/T")
    if s > S_PDE_MAX:
        raise AccuracyError(f"s = alpha^2 tau = {s:.6g} is past S_PDE_MAX = "
                            f"{S_PDE_MAX:g}, where the PDE grid is not validated")
    n = grid.n_y
    parts = _grid_parts(n, *x_bounds(s))
    # chi(s) = 2 Re sum_j c_j (w_j M + s K)^-1 (s b / w_j), the seven
    # systems as one block-diagonal system, 0 off the diagonal at the six
    # joins, in one allocation (module notes)
    buffer = np.empty((4, len(CF_POLES), n - 1), dtype=complex)
    off, shifted, rows = buffer[:2], buffer[2], buffer[3]
    np.add(s * parts.k_off, POLE_OFF, out=off)
    off[:, :, -1] = 0.0
    np.add(s * parts.k_diag, POLE_DIAG, out=shifted)
    shifted[:, 0] += parts.robin_poles              # M's Robin row
    np.divide(s * parts.b, CF_POLES[:, None], out=rows)
    solve_banded(off[0].ravel()[:-1], shifted.ravel(), off[1].ravel()[:-1],
                 rows.ravel())
    # Re(c x) in real ufuncs, not BLAS, summed in pole order: the same
    # bits on every host
    terms = CF_WEIGHTS.real[:, None] * rows.real
    terms -= CF_WEIGHTS.imag[:, None] * rows.imag
    v = np.empty(n + 1)
    v[1:n] = 2.0 * np.add.reduce(terms, axis=0) * parts.root_y
    v[0] = parts.v_min_ratio * v[1]
    v[n] = 1.0

    lo, hi = v.min(), v.max()               # nan fails the check too
    if not (lo >= -MAX_PRINCIPLE_EPS and hi <= 1.0 + MAX_PRINCIPLE_EPS):
        raise InstabilityError(
            f"1 - psi left [0,1] by more than {MAX_PRINCIPLE_EPS} (range "
            f"[{lo:.3e}, {hi:.3e}]): the contour sum lost its accuracy")
    boundary_max = float(1.0 - v[n - 1])
    h, y_min, y_max = parts.h, parts.y_min, parts.y_max
    if boundary_max > BOUNDARY_TOL:
        raise AccuracyError(
            f"psi at the far edge reaches {boundary_max:.3e} > boundary_tol "
            f"{BOUNDARY_TOL:.1e} at y_max {y_max:.3g}")
    weights = h * v / parts.y
    weights[[0, n]] *= 0.5
    q_min = float(v[0]) / (y_min * y_min)
    start = h * h / 12.0 * q_min * y_min
    end = parts.end
    return PsiSolution(v=v, squares=parts.squares, weights=weights, s=s, h=h,
                       y_min=y_min, y_max=y_max, q_min=q_min, start=start, end=end,
                       boundary_max=boundary_max,
                       g_integral=float(weights.sum()) + q_min * y_min + start
                       + 1.0 / y_max + end[0] - end[1] + end[2])


@functools.lru_cache(maxsize=PSI_MEMO_SIZE)
def psi_memo(s: float, grid: GridSpec) -> PsiSolution:
    """``solve_psi(1.0, s, grid)``, kept; a refusal raises and is not kept."""
    return solve_psi(1.0, s, grid)


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
    Raises :class:`AccuracyError` if the bound on the part of the integral
    past y_max exceeds ``QUAD_TOL``.
    """
    tau, s, _, _ = reduced_variables(state, params, contract)
    if s < S_CLOSED_FORM:
        kappa = math.sqrt(state.nu + state.sigma * (state.sigma * tau)) / contract.tenor
        if not math.isfinite(kappa):
            raise DomainError(f"sqrt(nu + sigma^2 tau)/T is not finite at "
                              f"sigma {state.sigma}, T {contract.tenor}")
        return kappa

    return kappa_from_solution(psi_memo(_s_key(s), grid), state, params, contract)


def quad(integrand, nodes: np.ndarray, weights: np.ndarray) -> float:
    """Fixed-node rule: ``weights`` dotted with one call ``integrand(nodes)``."""
    return float(np.vdot(weights, integrand(nodes)))


def kappa_from_solution(solution: PsiSolution, state: MarketState,
                        params: SabrParams, contract: SwapContract) -> float:
    """kappa from one solve by the module notes' trapezoid in x; raises
    :class:`AccuracyError` if its neglected part may exceed ``QUAD_TOL``."""
    c = math.sqrt(2.0) * state.sigma / params.alpha    # y per x
    if c == math.inf:
        raise DomainError(f"sqrt(2) sigma / alpha overflows at alpha {params.alpha}")
    _, _, zeta, root_nu = reduced_variables(state, params, contract)
    y_min, y_max = solution.y_min, solution.y_max
    tail_bound = c * solution.boundary_max / y_max
    if tail_bound > QUAD_TOL:
        raise AccuracyError(f"tail bound {tail_bound:.3e} exceeds quad_tol {QUAD_TOL:.1e}")
    if zeta == math.inf:    # weight 1 everywhere: the solve's integral
        integral = solution.g_integral
    else:
        zeta = max(zeta, sys.float_info.min)    # the weight needs zeta > 0
        root_zeta = math.sqrt(zeta)
        # below y_min, q = v / y^2 is q_min; past y_max, psi = 0
        weight = math.exp(y_max * y_max / (-4.0 * zeta))
        integral = (solution.q_min * math.sqrt(math.pi) * root_zeta
                    * math.erf(y_min / (2.0 * root_zeta))
                    + weight / y_max - 0.5 * math.sqrt(math.pi) / root_zeta
                    * math.erfc(y_max / (2.0 * root_zeta)))
        if weight:      # the Euler-Maclaurin terms at x_max (module notes, 6)
            u = y_max * y_max / (2.0 * zeta)
            e2, e4, e6 = solution.end
            integral += weight * (e2 * (1.0 + u)
                                  - e4 * (1.0 + u - 3.0 * u ** 2 + u ** 3)
                                  + e6 * (1.0 + u - 30.0 * u ** 2 + 50.0 * u ** 3
                                          - 15.0 * u ** 4 + u ** 5))
        weight_min = math.exp(y_min * y_min / (-4.0 * zeta))
        if weight_min:  # and at x_min
            integral += solution.start * weight_min * (1.0 - y_min * y_min / (2.0 * zeta))

        def integrand(squares: np.ndarray) -> np.ndarray:
            """The weight at the nodes whose y^2 are ``squares``."""
            out = squares / (-4.0 * zeta)
            np.exp(out, out=out)
            return out

        if zeta >= ZETA_WEIGHTLESS:     # below, every node's weight is 0
            integral += quad(integrand, solution.squares, solution.weights)
    return root_nu + c * integral / (math.sqrt(math.pi) * contract.tenor)


def grid_refinement_report(state: MarketState, params: SabrParams,
                           contract: SwapContract, refinements: int = 2) -> dict:
    """kappa on the default grid and on its cells h halved ``refinements``
    times, plus the observed convergence ratios.

    psi is exact in s, so h is the only discretization: fourth-order
    convergence shows up as ratios of successive differences near 16 (100,
    200 and 400 cells at two refinements), and as inf where two levels agree, as
    they do below ``S_CLOSED_FORM``.
    Every level's grid is built first, so a level past ``MAX_GRID_NODES``
    is a :class:`DomainError` before any solve; :func:`kappa_quadrature`
    raises what else it raises, outside the accrual window among them.
    """
    levels = [GridSpec(n_y=GridSpec().n_y * 2 ** k) for k in range(refinements + 1)]
    kappas = [kappa_quadrature(state, params, contract, level) for level in levels]
    ratios = [math.inf if k1 == k2 else (k0 - k1) / (k1 - k2)
              for k0, k1, k2 in zip(kappas, kappas[1:], kappas[2:])]
    return {"kappas": kappas, "grids": [level.n_y for level in levels],
            "ratios": ratios}
