"""Build ``reference.json``: the reduced-variable reference table.

For nu > 0 each entry is a Richardson extrapolation of the PDE at grids
of 800 and 1600 with ratio 4 (the scheme is second order there); the 400
grid adds a second extrapolant for the error bound.  At nu = 0 the
observed refinement ratio is well below 4 (about 2 to 3.7) and the 400
grid is not yet in the asymptotic range, so that column is extrapolated
from 1600 and 3200 with the ratio observed over 800, 1600 and 3200.  The
domain is the engine's default y_max, enlarged by 1.25 where the engine
refuses it (s above about 0.7).

Each entry stores its own error bound, and generation fails if any bound
exceeds ``MAX_REF_BOUND`` (one tenth of the tolerance it gates).  Entries
where the float series claims convergence are cross-checked against the
same series summed in 60-digit mpmath arithmetic with exact rational b_n.

Usage, from the repository root (about a minute on two cores):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mpmath  # noqa: E402

from reference import (MAX_REF_BOUND, S_VALUES, TABLE_PATH,  # noqa: E402
                       ZETA_VALUES)
from volswap import pde_engine, series_pricer  # noqa: E402
from volswap.exceptions import AccuracyError  # noqa: E402
from volswap.model import MarketState, SabrParams, SwapContract  # noqa: E402

#: canonical raw parameters: alpha fixed, tau = s / alpha^2 = tenor, nu = 1.
ALPHA = 0.5
Y_MAX_GROWTH = 1.25
WORKERS = 2     # each holds a 3200-grid psi history of about 80 MB
LEVELS = (400, 800, 1600)
NU0_LEVELS = (800, 1600, 3200)
MP_DIGITS = 60


def _richardson(k1: float, k2: float, k3: float, ratio=None) -> tuple:
    """(value, bound, observed ratio) from three successively halved grids.

    With ``ratio`` given (4 for second order) the bound is the larger of
    the last correction and the change between the two extrapolants; with
    ratio None the observed ratio is used and the bound is the correction.
    """
    observed = (k1 - k2) / (k2 - k3) if k2 != k3 else math.inf
    if ratio is None:
        if not observed > 1.5:
            raise ValueError(f"no convergence: ratio {observed:.3g}")
        corr = (k3 - k2) / (observed - 1.0)
        return k3 + corr, abs(corr) + 1e-12 * abs(k3), observed
    corr = (k3 - k2) / (ratio - 1.0)
    previous = k2 + (k2 - k1) / (ratio - 1.0)
    value = k3 + corr
    bound = max(abs(corr), abs(value - previous)) + 1e-12 * abs(k3)
    return value, bound, observed


def _mp_series(s: float, zeta: float) -> tuple:
    """(sum, error estimate) of the b_n series in exact-coefficient mpmath.

    Sums until two consecutive terms drop below 1e-40 of the sum.  The
    series is asymptotic for s > 0, so once the terms have grown a
    thousandfold past their smallest one it is truncated before that term,
    whose size is returned as the error estimate.
    """
    with mpmath.workdps(MP_DIGITS):
        s_mp, z_mp = mpmath.mpf(s), mpmath.mpf(zeta)
        half = mpmath.mpf(1) / 2
        partial = [mpmath.mpf(0)]
        smallest, at = mpmath.inf, 0
        small = 0
        for n in range(300):
            b = series_pricer.coeff_b_exact(n)
            term = (mpmath.mpf(b.numerator) / b.denominator
                    * mpmath.exp(s_mp * n * (2 * n - 1)) * z_mp ** n
                    * mpmath.hyp1f1(n - half, 2 * n + half, z_mp))
            partial.append(partial[-1] + term)
            if abs(term) < smallest:
                smallest, at = abs(term), n
            elif abs(term) > 1e3 * smallest:
                return float(partial[at]), float(smallest)
            small = small + 1 if abs(term) < 1e-40 * abs(partial[-1]) else 0
            if small == 2:
                return float(partial[-1]), float(abs(term))
        return float(partial[at]), float(smallest)


def build_row(i_s: int) -> dict:
    """All lattice entries at one s: one solve per grid, one quad per zeta."""
    s = S_VALUES[i_s]
    tau = s / ALPHA ** 2
    params = SabrParams(alpha=ALPHA)
    contract = SwapContract(t0=0.0, tenor=tau)
    y_max = pde_engine.default_y_max(ALPHA, tau)
    states = [MarketState(t=0.0, sigma=ALPHA * math.sqrt(2.0 * z), nu=1.0)
              for z in ZETA_VALUES]
    states.append(MarketState(t=0.0, sigma=1.0, nu=0.0))
    grids = sorted(set(LEVELS + NU0_LEVELS))
    levels = {}
    while len(levels) < len(grids):
        n = grids[len(levels)]
        try:
            solution = pde_engine.solve_psi(
                ALPHA, tau, pde_engine.GridSpec(y_max=y_max, n_y=n, n_t=n))
        except AccuracyError:
            y_max *= Y_MAX_GROWTH      # psi not decayed at the far edge
            levels = {}
            continue
        # kappa * T / sqrt(nu) with nu = 1; kappa * T * alpha / sigma at nu = 0
        wanted = states if n in LEVELS else states[-1:]
        row = [pde_engine.kappa_from_solution(solution, st, params, contract) * tau
               for st in wanted]
        row[-1] *= ALPHA / states[-1].sigma
        levels[n] = row
        del solution

    f, f_bound = [], []
    for j in range(len(ZETA_VALUES)):
        value, bound, _ = _richardson(*(levels[n][j] for n in LEVELS), ratio=4.0)
        f.append(value)
        f_bound.append(bound)
    g, g_bound, g_ratio = _richardson(*(levels[n][-1] for n in NU0_LEVELS))

    checks = []
    for j, z in enumerate(ZETA_VALUES):
        _, diag = series_pricer.kappa_series(states[j], params, contract)
        if diag.regime != series_pricer.REGIME_CONVERGENT:
            continue
        mp_value, mp_err = _mp_series(s, z)
        checks.append({"i_zeta": j, "mp": mp_value, "mp_err": mp_err,
                       "rel_diff": abs(mp_value - f[j]) / f[j]})
    return {"i_s": i_s, "y_max": y_max, "F": f, "F_bound": f_bound,
            "G": g, "G_bound": g_bound, "G_ratio": g_ratio, "mp_checks": checks}


def main() -> int:
    started = time.perf_counter()
    with get_context("spawn").Pool(WORKERS) as pool:
        rows = sorted(pool.map(build_row, range(len(S_VALUES)), chunksize=1),
                      key=lambda r: r["i_s"])

    problems = []
    for r in rows:
        s = S_VALUES[r["i_s"]]
        for j, (v, b) in enumerate(zip(r["F"], r["F_bound"])):
            if not (math.isfinite(v) and b / v <= MAX_REF_BOUND):
                problems.append(f"F(s={s}, zeta={ZETA_VALUES[j]}) bound {b / v:.2e}")
        if not r["G"] > 0 or r["G_bound"] / r["G"] > MAX_REF_BOUND:
            problems.append(f"G(s={s}) bound {r['G_bound'] / r['G']:.2e}")
        for c in r["mp_checks"]:
            allowed = MAX_REF_BOUND + c["mp_err"] / r["F"][c["i_zeta"]]
            if c["rel_diff"] > allowed:
                problems.append(
                    f"mpmath series disagrees at s={s}, "
                    f"zeta={ZETA_VALUES[c['i_zeta']]}: {c['rel_diff']:.2e}")
    if problems:
        print("reference generation failed:", *problems, sep="\n  ",
              file=sys.stderr)
        return 1

    mp_checks = [c for r in rows for c in r["mp_checks"]]
    table = {
        "meta": {
            "method": "Richardson extrapolation of the PDE: grids 800 and "
                      "1600 with ratio 4 for nu > 0; grids 1600 and 3200 "
                      "with the observed ratio at nu = 0",
            "levels": list(LEVELS),
            "nu0_levels": list(NU0_LEVELS),
            "alpha": ALPHA,
            "y_max": [r["y_max"] for r in rows],
            "max_rel_bound": max(max(b / v for b, v in zip(r["F_bound"], r["F"]))
                                 for r in rows),
            "max_rel_bound_nu0": max(r["G_bound"] / r["G"] for r in rows),
            "gate_rel_bound": MAX_REF_BOUND,
            "nu0_ratio_range": [min(r["G_ratio"] for r in rows),
                                max(r["G_ratio"] for r in rows)],
            "mpmath_checked": len(mp_checks),
            "mpmath_max_rel_diff": max((c["rel_diff"] for c in mp_checks),
                                       default=0.0),
            "mpmath_digits": MP_DIGITS,
            "seconds": round(time.perf_counter() - started, 1),
        },
        "s": list(S_VALUES),
        "zeta": list(ZETA_VALUES),
        "F": [r["F"] for r in rows],
        "F_bound": [r["F_bound"] for r in rows],
        "G": [r["G"] for r in rows],
        "G_bound": [r["G_bound"] for r in rows],
        "G_ratio": [r["G_ratio"] for r in rows],
    }
    with open(TABLE_PATH, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(json.dumps(table["meta"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
