"""Reduced-variable reference table shared by the generator and the runner.

psi depends on alpha and tau only through s = alpha^2 tau, so

* for nu > 0, F(s, zeta) = kappa * T / sqrt(nu) depends only on (s, zeta)
  with zeta = sigma^2 / (2 alpha^2 nu);
* for nu = 0, G(s) = kappa * T * alpha / sigma depends only on s.

One (s, zeta) lattice plus a nu = 0 column therefore covers every contract
any seed can draw.  ``make_reference.py`` fills ``reference.json``; this
module defines the lattice, the tolerances the entries gate and the lookup.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "reference.json")

#: lattice axes; s spans the convergent, asymptotic and diverging series
#: regimes and runs past the s ~ 0.7 where the default PDE domain refuses.
S_VALUES = tuple(float(f"{v:.6g}") for v in np.geomspace(5e-4, 0.8, 40))
ZETA_VALUES = tuple(float(f"{v:.6g}") for v in np.geomspace(0.02, 40.0, 40))

#: relative tolerances on kappa.  A series value is trusted-correct within
#: max(SERIES_EST_MULTIPLE * its own error estimate, SERIES_TOL_FLOOR); a
#: PDE value within PDE_TOL; an MC mean within MC_K standard errors.
SERIES_EST_MULTIPLE = 10.0
SERIES_TOL_FLOOR = 1e-5
PDE_TOL = 2e-5
MC_K = 4.0

#: every reference entry's own relative error bound must stay below this,
#: one tenth of the tightest tolerance it gates.
MAX_REF_BOUND = 0.1 * min(SERIES_TOL_FLOOR, PDE_TOL)


class Reference:
    """Lookup of kappa and its error bound for lattice contracts."""

    def __init__(self, path: str = TABLE_PATH):
        with open(path) as fh:
            table = json.load(fh)
        if (tuple(table["s"]) != S_VALUES
                or tuple(table["zeta"]) != ZETA_VALUES):
            raise ValueError(f"{path} was built for another lattice; "
                             "rerun make_reference.py")
        self.meta = table["meta"]
        self.s = S_VALUES
        self.zeta = ZETA_VALUES
        self._f = table["F"]
        self._f_bound = table["F_bound"]
        self._g = table["G"]
        self._g_bound = table["G_bound"]

    def kappa(self, i_s: int, i_zeta, alpha: float, sigma: float, nu: float,
              tenor: float) -> tuple:
        """(kappa, relative error bound) at lattice s index ``i_s``.

        ``i_zeta`` is the zeta index, or None for the nu = 0 column.
        """
        if i_zeta is None:
            g = self._g[i_s]
            return g * sigma / (alpha * tenor), self._g_bound[i_s] / g
        f = self._f[i_s][i_zeta]
        return f * math.sqrt(nu) / tenor, self._f_bound[i_s][i_zeta] / f
