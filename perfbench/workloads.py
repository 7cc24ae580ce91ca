"""The three workloads: inputs from a seed, timed calls, and classification.

Every workload is a closed loop with one caller: the next operation is
issued only after the previous one returns.  Inputs are drawn before the
clock starts; each operation is then timed alone and afterwards classified
against the reference table as

* ok: a value the engine trusts, within tolerance of the reference;
* refused: the engine flagged its result (``SERIES_DIVERGING``) or raised
  a typed ``AccuracyError`` / ``InstabilityError`` on a valid input;
* failed: any other exception, a non-finite value, or a trusted value
  outside tolerance.

An untyped exception or a non-finite value also marks the operation
``broken``: the program left its interface, and the run reports
``correct: false``.  A value outside tolerance is a failure the benchmark
counts, not a broken interface.

An untraced run is ``passes`` passes over the same inputs, each in a fresh
interpreter (``worker.py``), and an operation's time is the median of its
passes.  The size of a pass scales with ``seconds`` through fixed rates of
operations per second of run, set on a 2-core x86 machine at the commit
that introduced the benchmark; they are constants, never calibrated at run
time, so a faster program does the same work in less time.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from reference import (MC_K, PDE_TOL, SERIES_EST_MULTIPLE, SERIES_TOL_FLOOR,
                       S_VALUES, ZETA_VALUES)
from volswap import mc_engine, pde_engine, series_pricer
from volswap.exceptions import AccuracyError, InstabilityError, VolswapError
from volswap.model import MarketState, SabrParams, SwapContract

OK, REFUSED, FAILED = "ok", "refused", "failed"
REFUSING_ERRORS = (AccuracyError, InstabilityError)

#: operations of one pass per second of run: at 20 s, one 1600-contract
#: book, a 100-point surface and five oracle points.
SERIES_CONTRACTS_PER_S = 80
PDE_POINTS_PER_S = 5
ORACLE_POINTS_PER_S = 0.25
#: points of a PDE surface that share one s value (two of them at nu = 0).
PDE_POINTS_PER_S_VALUE = 10
PDE_NU0_PER_S_VALUE = 2
#: one oracle point in this many is at nu = 0.
ORACLE_NU0_EVERY = 5
#: two reduction blocks, the fewest that engage the default worker pool;
#: on 2 cores the MC call then takes about twice as long as the
#: 400/800/1600 refinement (one block, run in process, about as long).
MC_PATHS = 16384
MC_STEPS = 250


@dataclass
class Case:
    """One generated contract at lattice point (i_s, i_zeta); i_zeta None is nu = 0."""

    i_s: int
    i_zeta: object
    state: MarketState
    params: SabrParams
    contract: SwapContract
    df: float
    ref: float
    mc_seed: int


@dataclass
class Outcome:
    """Classification of one timed operation, plus what the metrics need."""

    seconds: float
    status: str
    why: str = ""
    abs_err: float = 0.0
    extra: dict = field(default_factory=dict)
    broken: bool = False


def draw_case(rng, ref, i_s: int, i_zeta) -> Case:
    """Raw contract whose reduced variables are the lattice point (s, zeta).

    alpha is log-uniform such that tau = s / alpha^2 lies in [0.05, 2];
    the valuation time leaves tau of a tenor tau / u, u in [0.3, 1]; nu
    is log-uniform in [1e-4, 1] within the range that keeps sigma in
    [0.005, 3]; at nu = 0, sigma is log-uniform in [0.1, 0.8].
    """
    s = S_VALUES[i_s]
    alpha = math.exp(rng.uniform(math.log(max(0.05, math.sqrt(s / 2.0))),
                                 math.log(min(1.5, math.sqrt(s / 0.05)))))
    tau = s / alpha ** 2
    tenor = tau / rng.uniform(0.3, 1.0)
    if i_zeta is None:
        nu = 0.0
        sigma = math.exp(rng.uniform(math.log(0.1), math.log(0.8)))
    else:
        zeta = ZETA_VALUES[i_zeta]
        lo = max(1e-4, 0.005 ** 2 / (2 * alpha ** 2 * zeta))
        hi = min(1.0, 3.0 ** 2 / (2 * alpha ** 2 * zeta))
        nu = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        sigma = alpha * math.sqrt(2.0 * zeta * nu)
    t0 = rng.uniform(0.0, 1.0)
    contract = SwapContract(t0=t0, tenor=tenor, strike=rng.uniform(0.0, 0.5),
                            notional=rng.uniform(1e5, 1e7))
    state = MarketState(t=t0 + tenor - tau, sigma=sigma, nu=nu)
    df = math.exp(-rng.uniform(0.0, 0.05) * tau)
    params = SabrParams(alpha=alpha)
    kappa, _ = ref.kappa(i_s, i_zeta, alpha, sigma, nu, tenor)
    return Case(i_s, i_zeta, state, params, contract, df, kappa,
                int(rng.integers(2 ** 31)))


def spread_s(rng, n: int) -> list:
    """n lattice s indices that cover the lattice evenly, in seeded order.

    Each whole multiple of the lattice is a permutation of it; the rest
    take one s from each of as many contiguous strata, the end strata at
    their extreme s, so every seed meets each regime equally often.
    """
    n_s = len(S_VALUES)
    out = [int(i) for _ in range(n // n_s) for i in rng.permutation(n_s)]
    rest = n % n_s
    if rest:
        strata = np.array_split(np.arange(n_s), rest)
        picks = [int(rng.choice(st)) for st in strata]
        picks[-1] = n_s - 1
        if rest > 1:
            picks[0] = 0
        out += [picks[k] for k in rng.permutation(rest)]
    return out


def _errors(value: float, case: Case) -> tuple:
    """(relative, absolute) error against the reference kappa."""
    return abs(value - case.ref) / case.ref, abs(value - case.ref)


class Workload:
    """Base: subclasses build ``cases``, set ``passes`` and define
    execute / classify."""

    name = ""

    def run(self) -> tuple:
        """Time every case in order; returns (wall seconds, outcomes)."""
        raw = []
        started = perf_counter()
        for case in self.cases:
            t0 = perf_counter()
            output = self.execute(case)
            raw.append((perf_counter() - t0, output))
        wall = perf_counter() - started
        return wall, [self.classify(case, seconds, output)
                      for case, (seconds, output) in zip(self.cases, raw)]

    @staticmethod
    def attempt(fn, *args):
        """(result, None) or (None, exception): one operation never aborts the run."""
        try:
            return fn(*args), None
        except Exception as exc:  # classified afterwards, never swallowed
            return None, exc

    @staticmethod
    def classify_error(seconds, exc) -> Outcome:
        if isinstance(exc, REFUSING_ERRORS):
            return Outcome(seconds, REFUSED, type(exc).__name__)
        return Outcome(seconds, FAILED, f"{type(exc).__name__}: {exc}",
                       broken=not isinstance(exc, VolswapError))

    def extras(self, outcomes) -> dict:
        """Workload-specific figures for the report."""
        return {}


class SeriesBook(Workload):
    """Books of distinct lattice contracts priced by the hypergeometric series.

    One book is every nu > 0 lattice pair once, in random order, with raw
    parameters drawn afresh; a pass prices consecutive books, so no two
    contracts of one book share (s, zeta).
    """

    name = "series_book"
    passes = 4

    def __init__(self, seed: int, seconds: float, ref):
        rng = np.random.default_rng([seed, 1])
        n_ops = max(1, round(seconds * SERIES_CONTRACTS_PER_S))
        pairs = [(i, j) for i in range(len(S_VALUES)) for j in range(len(ZETA_VALUES))]
        self.cases = []
        while len(self.cases) < n_ops:
            for k in rng.permutation(len(pairs))[:n_ops - len(self.cases)]:
                self.cases.append(draw_case(rng, ref, *pairs[k]))

    def execute(self, case):
        return self.attempt(series_pricer.price_volatility_swap, case.state,
                            case.params, case.contract, case.df)

    def classify(self, case, seconds, output) -> Outcome:
        result, exc = output
        if exc is not None:
            return self.classify_error(seconds, exc)
        diag = result.diagnostics
        extra = {"terms": diag.terms_used, "regime": diag.regime}
        if not math.isfinite(result.kappa):
            return Outcome(seconds, FAILED, "non-finite kappa", extra=extra,
                           broken=True)
        rel, err = _errors(result.kappa, case)
        if "SERIES_DIVERGING" in result.warnings:
            return Outcome(seconds, REFUSED, "SERIES_DIVERGING", err, extra)
        c = case.contract
        if result.fair_value != c.notional * case.df * (result.kappa - c.strike):
            return Outcome(seconds, FAILED, "fair value composition", err, extra)
        prefactor = math.sqrt(case.state.nu) / c.tenor
        est = prefactor * diag.min_term_abs / case.ref
        tol = max(SERIES_EST_MULTIPLE * est, SERIES_TOL_FLOOR)
        if rel > tol:
            extra["trusted_wrong"] = True
            return Outcome(seconds, FAILED,
                           f"trusted {diag.regime} value off by {rel:.2e} "
                           f"(estimate {est:.1e})", err, extra)
        return Outcome(seconds, OK, "", err, extra)


class PdeSurface(Workload):
    """A risk surface priced point by point with the default-grid PDE.

    Groups of ``PDE_POINTS_PER_S_VALUE`` points share one lattice s (two of
    them at nu = 0, the rest at distinct zeta); the group s values cover
    the lattice evenly (``spread_s``) and the points are shuffled, so a
    per-s cache must really look its entries up.
    """

    name = "pde_surface"
    passes = 6

    def __init__(self, seed: int, seconds: float, ref):
        rng = np.random.default_rng([seed, 2])
        n_groups = max(1, round(seconds * PDE_POINTS_PER_S / PDE_POINTS_PER_S_VALUE))
        n_zeta = PDE_POINTS_PER_S_VALUE - PDE_NU0_PER_S_VALUE
        self.cases = []
        for i_s in spread_s(rng, n_groups):
            zetas = list(rng.choice(len(ZETA_VALUES), n_zeta, replace=False))
            for i_zeta in zetas + [None] * PDE_NU0_PER_S_VALUE:
                self.cases.append(draw_case(rng, ref, i_s, i_zeta))
        self.cases = [self.cases[k] for k in rng.permutation(len(self.cases))]

    def execute(self, case):
        return self.attempt(pde_engine.kappa_quadrature, case.state,
                            case.params, case.contract)

    def classify(self, case, seconds, output) -> Outcome:
        kappa, exc = output
        if exc is not None:
            return self.classify_error(seconds, exc)
        if not math.isfinite(kappa):
            return Outcome(seconds, FAILED, "non-finite kappa", broken=True)
        rel, err = _errors(kappa, case)
        if rel > PDE_TOL:
            return Outcome(seconds, FAILED, f"off by {rel:.2e}", err)
        return Outcome(seconds, OK, "", err)

    def extras(self, outcomes) -> dict:
        seen, repeats = set(), 0
        for case in self.cases:
            repeats += case.i_s in seen
            seen.add(case.i_s)
        return {"s_repeat_frac": repeats / len(self.cases)}


class OracleCheck(Workload):
    """Validation points, each at its own s: MC at 250 steps plus refinement.

    The points' s values cover the lattice evenly (``spread_s``) and always
    include its smallest and largest s.

    One operation is one point: ``kappa_mc`` with the default worker count,
    then ``grid_refinement_report`` at grids 400, 800 and 1600.  The point
    is ok when the MC mean lies within MC_K standard errors of the
    reference and every refinement level within PDE_TOL.
    """

    name = "oracle_check"
    passes = 5

    def __init__(self, seed: int, seconds: float, ref):
        rng = np.random.default_rng([seed, 3])
        n_points = min(len(S_VALUES),
                       max(2, round(seconds * ORACLE_POINTS_PER_S)))
        self.cases = []
        for k, i_s in enumerate(spread_s(rng, n_points)):
            i_zeta = None if k % ORACLE_NU0_EVERY == ORACLE_NU0_EVERY - 1 else \
                int(rng.integers(len(ZETA_VALUES)))
            self.cases.append(draw_case(rng, ref, i_s, i_zeta))

    def execute(self, case):
        config = mc_engine.McConfig(n_paths=MC_PATHS, n_steps=MC_STEPS,
                                    seed=case.mc_seed)
        t0 = perf_counter()
        mc = self.attempt(mc_engine.kappa_mc, case.state, case.params,
                          case.contract, config)
        t1 = perf_counter()
        refine = self.attempt(pde_engine.grid_refinement_report, case.state,
                              case.params, case.contract)
        return mc, t1 - t0, refine, perf_counter() - t1

    def classify(self, case, seconds, output) -> Outcome:
        (est, mc_exc), mc_s, (rep, pde_exc), refine_s = output
        extra = {"mc_s": mc_s, "refine_s": refine_s}
        parts = []       # one Outcome per engine; the point takes the worst
        if mc_exc is not None:
            parts.append(self.classify_error(seconds, mc_exc))
        elif not (math.isfinite(est.mean) and est.std_error > 0):
            parts.append(Outcome(seconds, FAILED, "MC gave no usable estimate",
                                 broken=not math.isfinite(est.mean)))
        else:
            z = (est.mean - case.ref) / est.std_error
            extra.update(z=z, se=est.std_error, rse=est.std_error / case.ref,
                         n_paths=est.n_paths)
            if abs(z) > MC_K:
                parts.append(Outcome(seconds, FAILED, f"MC off by {z:.2f} SE"))
        rel = err = 0.0
        if pde_exc is not None:
            parts.append(self.classify_error(seconds, pde_exc))
        elif not all(math.isfinite(k) for k in rep["kappas"]):
            parts.append(Outcome(seconds, FAILED, "non-finite refinement kappa",
                                 broken=True))
        else:
            extra["ratios"] = [float(r) for r in rep["ratios"]]
            for kappa in rep["kappas"]:
                r, e = _errors(kappa, case)
                rel, err = max(rel, r), max(err, e)
            if rel > PDE_TOL:
                parts.append(Outcome(seconds, FAILED, f"refinement off by {rel:.2e}"))
        for status in (FAILED, REFUSED):
            worst = [p for p in parts if p.status == status]
            if worst:
                return Outcome(seconds, status, "; ".join(p.why for p in worst),
                               err, extra, any(p.broken for p in worst))
        return Outcome(seconds, OK, "", err, extra)

    def extras(self, outcomes) -> dict:
        mc = [o.extra for o in outcomes if "se" in o.extra]
        refine = [o.extra["refine_s"] for o in outcomes]
        nu0_ratios = [o.extra["ratios"][0] for o, c in zip(outcomes, self.cases)
                      if c.i_zeta is None and "ratios" in o.extra]
        out = {}
        if mc:
            out["mc_s_per_rse1e-4"] = statistics.median(
                e["mc_s"] * (e["rse"] / 1e-4) ** 2 for e in mc)
            out["mc_mean_z"] = statistics.fmean(e["z"] for e in mc)
        if refine:
            out["refine_p50_ms"] = 1e3 * statistics.median(refine)
        if nu0_ratios:
            out["nu0_refinement_ratio_p50"] = statistics.median(nu0_ratios)
        return out


WORKLOADS = {w.name: w for w in (SeriesBook, PdeSurface, OracleCheck)}
