"""Command-line surface: pricing, oracles, sweeps and verification.

Each command maps its parsed flags to a document and an exit code, and
:func:`main` alone records the run and writes it: one JSON object with the
run manifest embedded, which the command's schema in ``docs/schemas``
checks, so any result can be reproduced bit-for-bit from its own output.
The manifest's ``parameters`` are every flag of the command by dest,
defaults included, but ``output`` and ``seed``, which has a field of its
own.  ``duration_s`` runs from the start of :func:`main`: it counts
parsing and the engine import, not interpreter start-up.  Numbers are
serialized with shortest round-trip representation (exact for 64-bit
floats) and are never NaN or Infinity: an engine refuses what it cannot
value, and a refinement ratio, a count of MC standard errors or an MC
variance swap, its z or a step-halving difference it cannot define is
null.

:func:`build_parser` alone states each flag's type, default, choices,
required-ness and exclusions.  Flags are the only input; flags kept in a
file reach a command through the shell, ``volswap price $(cat point.args)``.
A value is the word after its flag or follows ``=``: ``--notional -1e6``
is ``--notional=-1e6``, a short position, although argparse alone reads a
negative number in exponent form as an option.

No flag sets a numerical policy (the engines' ``MAX_TERMS``, ``REL_TOL``,
``KUMMER_REL_TOL``, ``QUAD_TOL``) or a verification depth: ``verify`` takes
no flag of its own and runs every check family at ``verify.N_TERMS``,
``verify.BESSEL_TERMS`` and ``verify.TERMINAL_S_MAX``, and ``oracle pde``
takes none beyond the market's: it always reports the refinement of
:func:`~volswap.pde_engine.grid_refinement_report` on 400, 800 and 1600
cells as ``grid_report``, and its ``kappa`` is the 400-cell value, which
``compare`` reports as ``kappa_pde``.  ``price`` always
reports both ``kappa`` and the market-annualized ``kappa_market`` =
sqrt(T) kappa.  ``--steps`` caps Monte Carlo's step count, which the
engine's step ladder sizes by its error; ``oracle mc`` reports the
``n_steps`` used beside ``kappa``, its ``std_error`` and its
``discretization``, the step-halving difference on the same paths (null at
an odd step count).  It reports the ``variance_swap`` nu + sigma^2 tau M_s
of the same draws with its ``variance_swap_se``, its exact mean on the
grid ``variance_swap_exact`` and its distance from it
``variance_swap_z``, and ``warnings``: ``MC_STEP_BIAS`` where the cap's
level fails the step bias test and ``MC_TAIL`` where a level fails the
tail test, flags on the document, with nothing on stderr and exit 0.  A
``compare`` row reports MC's ``mc_n_steps`` and ``mc_discretization``.
``compare`` makes a row's ``kappa_pde`` null where the PDE refuses, and its
``kappa_series``, ``regime`` and ``abs_diff_mc_sigmas`` null where the
series refuses, saying why on stderr; the row keeps its other engines.

Exit codes: 0 success, 1 verification check failed, 2 usage error (an
unwritable ``--output`` and a size past memory too), 3 an engine refused a
valid input (series divergence, AccuracyError or InstabilityError), 4
comparison failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time

from . import __version__, series_pricer, verify
from .exceptions import (AccuracyError, DomainError, InstabilityError,
                         VolswapError)
from .model import (MarketState, SabrParams, SwapContract, discount_factor,
                    reduced_time)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGING = 3          # an engine refused: divergence, accuracy, instability
EXIT_COMPARE_FAILED = 4

_COMPARE_SIGMAS = 3.0


#: dests that are no manifest parameter: the parser's own, ``output`` and ``seed``
_UNRECORDED = ("func", "words", "command", "oracle", "output", "seed")
#: the parser's flags that take no value
_VALUELESS_FLAGS = ("--help", "--version")


def _number(value):
    """``value``, or None where it is None or not finite: JSON has no NaN or
    Infinity."""
    return value if value is not None and math.isfinite(value) else None


def _market_inputs(args, **terms):
    """(state, params, contract) of the six market flags."""
    params = SabrParams(alpha=args.alpha)
    contract = SwapContract(t0=args.t0, tenor=args.tenor, **terms)
    return MarketState(t=args.t, sigma=args.sigma, nu=args.nu), params, contract


def cmd_price(args) -> tuple:
    state, params, contract = _market_inputs(
        args, strike=args.strike, notional=args.notional)
    df = args.discount_factor   # price_volatility_swap range-checks it
    if df is None:
        df = discount_factor(args.rate or 0.0, state, contract)
    result = series_pricer.price_volatility_swap(state, params, contract, df)
    diag = result.diagnostics
    document = {
        "kappa": result.kappa,
        # display convention sqrt((1/T) int sigma^2) = sqrt(T) * kappa
        "kappa_market": result.kappa * math.sqrt(contract.tenor),
        "fair_value": result.fair_value,
        "discount_factor": result.discount_factor,
        **dataclasses.asdict(diag),
        "warnings": list(result.warnings),
    }
    return document, (EXIT_DIVERGING if diag.regime == series_pricer.REGIME_DIVERGING
                      else EXIT_OK)


def cmd_oracle_mc(args) -> tuple:
    state, params, contract = _market_inputs(args)
    from . import mc_engine     # the engine import is part of the run
    estimate = mc_engine.kappa_mc(state, params, contract, mc_engine.McConfig(
        n_paths=args.paths, n_steps=args.steps, seed=args.seed))
    return {"kappa": estimate.mean, "std_error": estimate.std_error,
            "n_paths": estimate.n_paths, "n_steps": estimate.n_steps,
            "discretization": _number(estimate.discretization),
            "variance_swap": _number(estimate.variance_swap),
            "variance_swap_se": _number(estimate.variance_swap_se),
            "variance_swap_exact": _number(estimate.variance_swap_exact),
            "variance_swap_z": _number(estimate.variance_swap_z),
            "warnings": list(estimate.warnings)}, EXIT_OK


def cmd_oracle_pde(args) -> tuple:
    state, params, contract = _market_inputs(args)
    from . import pde_engine
    report = pde_engine.grid_refinement_report(state, params, contract)
    return {"kappa": report["kappas"][0], "grid_report": {
        "kappas": report["kappas"],
        "grids": report["grids"],
        # inf where the two finer levels agree bit for bit: no ratio
        "ratios": [_number(r) for r in report["ratios"]],
    }}, EXIT_OK


def float_list(raw: str) -> list:
    """argparse type: one or more comma-separated floats."""
    values = [float(v) for v in raw.split(",") if v.strip() != ""]
    if not values:
        raise ValueError(f"no value in {raw!r}")
    return values


def cmd_compare(args) -> tuple:
    """One row per (alpha, tau, zeta), valued at t = tenor - tau, and exit 4
    unless every convergent series lies within ``_COMPARE_SIGMAS`` MC
    standard errors of the MC mean.  ``kappa_pde`` is null where the PDE
    refuses; ``kappa_series``, ``regime`` and ``abs_diff_mc_sigmas`` are null
    where the series refuses, and ``abs_diff_mc_sigmas`` where infinite,
    which fails the row."""
    from . import mc_engine, pde_engine
    nu, tenor = args.nu, args.tenor
    contract = SwapContract(t0=0.0, tenor=tenor)
    if nu <= 0:
        raise DomainError("compare requires nu > 0 (series regime)")
    points = []     # every row's inputs, checked before the first is priced
    for alpha, tau, zeta in itertools.product(args.alphas, args.taus, args.zetas):
        if not (0.0 <= tau <= tenor and zeta > 0):
            raise DomainError(f"a row needs 0 <= tau <= tenor and zeta > 0, "
                              f"got tau {tau}, zeta {zeta}")
        params = SabrParams(alpha=alpha)
        reduced_time(alpha, tau)    # s past S_MAX: no engine prices the row
        sigma = math.sqrt(2.0 * alpha * alpha * nu * zeta)
        points.append((alpha, tau, zeta, params,
                       MarketState(t=tenor - tau, sigma=sigma, nu=nu)))

    rows, all_passed = [], True
    config = mc_engine.McConfig(n_paths=args.paths, n_steps=args.steps,
                                seed=args.seed)

    def value(column, engine, point):
        """The engine's value at a point, or None, said on stderr, where it
        refuses: the row keeps its other engines."""
        alpha, tau, zeta, params, state = point
        try:
            return engine(state, params, contract)
        except VolswapError as exc:
            print(f"volswap: no {column} at alpha {alpha}, tau {tau}, "
                  f"zeta {zeta}: {exc}", file=sys.stderr)
            return None

    for point in points:
        alpha, tau, zeta, params, state = point
        mc = mc_engine.kappa_mc(state, params, contract, config)   # a refusal ends the run
        series = value("kappa_series", series_pricer.kappa_series, point)
        kappa_p = value("kappa_pde", pde_engine.kappa_quadrature, point)
        kappa_s = regime = sigmas = None
        if series is not None:
            kappa_s, regime = series[0], series[1].regime
            diff = abs(kappa_s - mc.mean)
            if mc.std_error > 0.0:
                sigmas = diff / mc.std_error
            else:
                sigmas = 0.0 if diff == 0.0 else math.inf
            if regime == series_pricer.REGIME_CONVERGENT and sigmas > _COMPARE_SIGMAS:
                all_passed = False
            sigmas = _number(sigmas)
        rows.append({"alpha": alpha, "tau": tau, "zeta": zeta, "kappa_series": kappa_s,
                     "regime": regime, "kappa_mc": mc.mean, "mc_se": mc.std_error,
                     "mc_n_steps": mc.n_steps,
                     "mc_discretization": _number(mc.discretization),
                     "kappa_pde": kappa_p, "abs_diff_mc_sigmas": sigmas})
    return ({"rows": rows, "all_passed": all_passed},
            EXIT_OK if all_passed else EXIT_COMPARE_FAILED)


def _verify_reports() -> list:
    """Every verification report, each family at its fixed depth."""
    reports = []

    def add(check, rep: verify.ResidualReport):
        reports.append({"check": check, "kind": "residual",
                        **dataclasses.asdict(rep), "relative": rep.relative,
                        "passed": rep.passed})

    for s in range(verify.TERMINAL_S_MAX + 1):
        value = verify.check_terminal_identity(s)
        reports.append({"check": "terminal", "kind": "exact",
                        "point": f"s={s}" if s else "s=0 leading coefficient",
                        "value": str(value), "passed": value == int(s == 0)})
    for y in (0.1, 0.5, 1.0, 2.0, 5.0):
        add("bessel", verify.check_bessel_sqrt_expansion(y, verify.BESSEL_TERMS))
    for i in range(50):
        z = 10.0 ** (-2.0 + (i + 1) * (math.log10(50.0) + 2.0) / 50.0)
        add("j0", verify.check_j0(z))
    for a, b, z in ((-0.5, 0.5, 1.0), (1.5, 4.5, 4.0), (3.5, 8.5, 0.25),
                    (-0.5, 0.5, 20.0), (9.5, 20.5, 2.0)):
        add("kummer", verify.check_kummer_ode(a, b, z))
    for s, y in ((0.0225, 1.0), (0.0225, 3.0), (0.0, 1.0), (0.025, 0.5)):
        add("psi-pde", verify.check_psi_pde_residual(s, y, verify.N_TERMS))
    for zeta, n in itertools.product((0.5, 2.0, 8.0), range(verify.N_TERMS + 1)):
        add("functional", verify.functional_term_residual(n, zeta))
    summed, *finite_differences = verify.check_functional(
        MarketState(t=0.5, sigma=0.25, nu=0.03), SabrParams(alpha=0.4),
        SwapContract(t0=0.0, tenor=1.0), verify.N_TERMS)
    add("functional", summed)
    for rep in finite_differences:
        add("functional-fd", rep)
    return reports


def cmd_verify(args) -> tuple:
    reports = _verify_reports()
    all_passed = all(r["passed"] for r in reports)
    return ({"reports": reports, "all_passed": all_passed},
            EXIT_OK if all_passed else EXIT_VERIFY_FAILED)


def build_parser() -> argparse.ArgumentParser:
    """The volswap parser: each command's words and function are defaults
    (``words``, ``func``) of the namespace it parses.

    The only place a flag's type, default, choices, required-ness and
    exclusions are stated.
    """
    parser = argparse.ArgumentParser(
        prog="volswap",
        description="Volatility-swap pricing under lognormal-vol SABR: "
                    "series pricer, Monte Carlo / PDE oracles, verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, words, func, **kwargs):
        p = subparsers.add_parser(words[-1], **kwargs)
        p.set_defaults(func=func, words=words)
        p.add_argument("--output", help="write the document here instead of stdout")
        return p

    def market(p):
        p.add_argument("--alpha", type=float, required=True, help="vol-of-vol")
        p.add_argument("--sigma", type=float, required=True, help="volatility at t")
        p.add_argument("--nu", type=float, required=True, help="accrued realized variance")
        p.add_argument("--t0", type=float, default=0.0, help="accrual start (default 0)")
        p.add_argument("--tenor", type=float, required=True, help="accrual length T")
        p.add_argument("--t", type=float, required=True, help="valuation time")

    def simulation(p):
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--paths", type=int, default=100_000, help="even (antithetic pairs)")
        p.add_argument("--steps", type=int, default=250,
                       help="most time steps: the cap of the step ladder")

    p = command(sub, ("price",), cmd_price, help="series fair value")
    market(p)
    p.add_argument("--strike", type=float, default=0.0)
    p.add_argument("--notional", type=float, default=1.0)
    discount = p.add_mutually_exclusive_group()
    discount.add_argument("--rate", type=float, help="flat short rate (default 0)")
    discount.add_argument("--discount-factor", type=float)

    o_sub = sub.add_parser("oracle", help="Monte Carlo or PDE reference value"
                           ).add_subparsers(dest="oracle", required=True)
    p = command(o_sub, ("oracle", "mc"), cmd_oracle_mc)
    market(p)
    simulation(p)
    p = command(o_sub, ("oracle", "pde"), cmd_oracle_pde)
    market(p)

    p = command(sub, ("compare",), cmd_compare, help="series vs MC vs PDE sweep")
    p.add_argument("--alphas", type=float_list, required=True,
                   help="comma-separated vol-of-vols")
    p.add_argument("--taus", type=float_list, required=True,
                   help="comma-separated times to maturity")
    p.add_argument("--zetas", type=float_list, required=True, help="comma-separated zetas")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--tenor", type=float, default=1.0)
    simulation(p)

    command(sub, ("verify",), cmd_verify, help="run the identity verification suite")
    return parser


def _is_number_list(word: str) -> bool:
    try:
        float_list(word)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list) -> list:
    """argv with every ``--flag -1e-05`` pair written ``--flag=-1e-05``.

    argparse reads a word that starts with '-' as an option unless it looks
    like -N or -N.N, so a negative number in exponent form, -inf or a list
    such as -1,2 would not reach its flag.
    """
    joined = []
    for word in argv:
        flag = joined[-1] if joined else ""
        if (word.startswith("-") and flag.startswith("--") and "=" not in flag
                and flag not in _VALUELESS_FLAGS and _is_number_list(word)):
            joined[-1] = f"{flag}={word}"
        else:
            joined.append(word)
    return joined


def main(argv=None) -> int:
    """Run one command; the only writer of a document and its manifest."""
    started = time.perf_counter()
    args = build_parser().parse_args(
        _join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        document, code = args.func(args)
    except VolswapError as exc:
        print(f"volswap: {exc}", file=sys.stderr)
        refused = isinstance(exc, (AccuracyError, InstabilityError))
        return EXIT_DIVERGING if refused else EXIT_USAGE
    except MemoryError as exc:  # a size past memory: no traceback, no exit 1
        print("volswap: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_USAGE

    manifest = {
        "command": " ".join(args.words),
        "tool": "volswap",
        "version": __version__,
        "parameters": {dest: value for dest, value in vars(args).items()
                       if dest not in _UNRECORDED},
        "seed": getattr(args, "seed", None),
        "duration_s": time.perf_counter() - started,
    }
    document["manifest"] = manifest
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"volswap: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
