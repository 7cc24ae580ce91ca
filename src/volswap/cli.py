"""Command-line surface: pricing, sweeps and verification.

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
value, and a number it cannot define (a ratio of equal refinement levels,
an MC variance swap past the float range) is null.

:func:`build_parser` alone states each flag's type, default, choices,
required-ness and exclusions.  Flags are the only input; flags kept in a
file reach a command through the shell, ``volswap price $(cat point.args)``.
A value is the word after its flag or follows ``=``: ``--notional -1e6``
is ``--notional=-1e6``, a short position, although argparse alone reads a
negative number in exponent form as an option.

No flag sets a numerical policy (the engines' ``MAX_TERMS``, ``REL_TOL``,
``KUMMER_REL_TOL``, ``QUAD_TOL``) or a verification depth: ``verify`` takes
no flag of its own and runs every check family at ``verify.N_TERMS``,
``verify.BESSEL_TERMS`` and ``verify.TERMINAL_S_MAX``.

``price --engine series|pde|mc`` reports ``engine``, ``kappa``,
``kappa_market`` = sqrt(T) kappa, the ``fair_value`` of
:func:`~volswap.model.compose_price`, ``discount_factor`` and ``warnings``,
then the engine's own fields: the series'
:class:`~volswap.series_pricer.SeriesDiagnostics`; the PDE's
``grid_report``, :func:`~volswap.pde_engine.grid_refinement_report` on 100,
200 and 400 cells, whose first level is ``kappa``; or MC's
:class:`~volswap.mc_engine.McEstimate` but its mean.  Only MC reads
``--seed``, which it requires, ``--paths`` and ``--steps``, its step cap.

Exit codes: 0 success (an MC warning too), 1 verification check failed, 2
usage error (an unwritable ``--output``, a size past memory, an MC flag to
another engine), 3 an engine refused a valid input (series divergence,
AccuracyError or InstabilityError), 4 comparison failure.
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
from .model import (MarketState, SabrParams, SwapContract, compose_price,
                    discount_factor, reduced_time)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGING = 3          # an engine refused: divergence, accuracy, instability
EXIT_COMPARE_FAILED = 4

_COMPARE_SIGMAS = 3.0
_MC_DEFAULTS = {"paths": 100_000, "steps": 250}


#: dests that are no manifest parameter: the parser's own, ``output`` and ``seed``
_UNRECORDED = ("func", "command", "output", "seed")
#: the parser's flags that take no value
_VALUELESS_FLAGS = ("--help", "--version")


def _number(value):
    """``value``, or None where it is None or not finite: JSON has no NaN or
    Infinity."""
    return value if value is not None and math.isfinite(value) else None


def _mc_flags(args) -> None:
    """Refuse an MC flag given to another engine, and fill in MC's defaults,
    which the manifest then records."""
    for dest, default in (("seed", None), *_MC_DEFAULTS.items()):
        if args.engine != "mc" and getattr(args, dest) is not None:
            raise DomainError(f"--{dest} is read by --engine mc alone")
        if args.engine == "mc" and getattr(args, dest) is None:
            if default is None:
                raise DomainError("--engine mc requires --seed")
            setattr(args, dest, default)


def cmd_price(args) -> tuple:
    _mc_flags(args)
    params = SabrParams(alpha=args.alpha)
    contract = SwapContract(t0=args.t0, tenor=args.tenor, strike=args.strike,
                            notional=args.notional)
    state = MarketState(t=args.t, sigma=args.sigma, nu=args.nu)
    df = args.discount_factor   # compose_price range-checks it
    df = discount_factor(args.rate or 0.0, state, contract) if df is None else df
    if args.engine == "series":
        result = series_pricer.price_volatility_swap(state, params, contract, df)
        fields = dataclasses.asdict(result.diagnostics)
    elif args.engine == "pde":
        from . import pde_engine    # the engine import is part of the run

        def refinement():
            report = pde_engine.grid_refinement_report(state, params, contract)
            # inf where the two finer levels agree bit for bit: no ratio
            report["ratios"] = [_number(r) for r in report["ratios"]]
            return report["kappas"][0], report, ()

        result = compose_price(contract, df, refinement)
        fields = {"grid_report": result.diagnostics}
    else:
        from . import mc_engine
        config = mc_engine.McConfig(n_paths=args.paths, n_steps=args.steps,
                                    seed=args.seed)

        def estimate():
            mc = mc_engine.kappa_mc(state, params, contract, config)
            return mc.mean, mc, mc.warnings

        result = compose_price(contract, df, estimate)
        fields = {name: _number(value) for name, value
                  in dataclasses.asdict(result.diagnostics).items()
                  if name not in ("mean", "warnings")}
    document = {"engine": args.engine, "kappa": result.kappa,
                # display convention sqrt((1/T) int sigma^2) = sqrt(T) * kappa
                "kappa_market": result.kappa * math.sqrt(contract.tenor),
                "fair_value": result.fair_value,
                "discount_factor": result.discount_factor,
                **fields, "warnings": list(result.warnings)}
    diverging = series_pricer.SERIES_DIVERGING in result.warnings
    return document, EXIT_DIVERGING if diverging else EXIT_OK


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
        add("bessel", verify.check_bessel_sqrt_expansion(y))
    for i in range(50):
        z = 10.0 ** (-2.0 + (i + 1) * (math.log10(50.0) + 2.0) / 50.0)
        add("j0", verify.check_j0(z))
    for a, b, z in ((-0.5, 0.5, 1.0), (1.5, 4.5, 4.0), (3.5, 8.5, 0.25),
                    (-0.5, 0.5, 20.0), (9.5, 20.5, 2.0)):
        add("kummer", verify.check_kummer_ode(a, b, z))
    for s, y in ((0.0225, 1.0), (0.0225, 3.0), (0.0, 1.0), (0.025, 0.5)):
        add("psi-pde", verify.check_psi_pde_residual(s, y))
    for zeta, n in itertools.product((0.5, 2.0, 8.0), range(verify.N_TERMS + 1)):
        add("functional", verify.functional_term_residual(n, zeta))
    summed, *finite_differences = verify.check_functional(
        MarketState(t=0.5, sigma=0.25, nu=0.03), SabrParams(alpha=0.4),
        SwapContract(t0=0.0, tenor=1.0))
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
    """The volswap parser: each command's function is the default ``func``
    of the namespace it parses.

    The only place a flag's type, default, choices, required-ness and
    exclusions are stated.
    """
    parser = argparse.ArgumentParser(
        prog="volswap",
        description="Volatility-swap pricing under lognormal-vol SABR: "
                    "series, PDE or Monte Carlo fair value, comparison "
                    "sweep, verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--output", help="write the document here instead of stdout")
        return p

    def simulation(p, mc_only=False):
        """--seed, --paths and --steps; with ``mc_only`` None unless given."""
        default = dict.fromkeys(_MC_DEFAULTS) if mc_only else _MC_DEFAULTS
        p.add_argument("--seed", type=int, required=not mc_only)
        p.add_argument("--paths", type=int, default=default["paths"],
                       help="even (antithetic pairs)")
        p.add_argument("--steps", type=int, default=default["steps"],
                       help="most time steps: the cap of the step ladder")

    p = command("price", cmd_price,
                help="fair value by the series, the PDE or Monte Carlo")
    p.add_argument("--engine", choices=("series", "pde", "mc"), default="series",
                   help="default series; mc alone reads --seed, which it "
                        "requires, --paths (default %(paths)s) and --steps "
                        "(default %(steps)s)" % _MC_DEFAULTS)
    p.add_argument("--alpha", type=float, required=True, help="vol-of-vol")
    p.add_argument("--sigma", type=float, required=True, help="volatility at t")
    p.add_argument("--nu", type=float, required=True, help="accrued realized variance")
    p.add_argument("--t0", type=float, default=0.0, help="accrual start (default 0)")
    p.add_argument("--tenor", type=float, required=True, help="accrual length T")
    p.add_argument("--t", type=float, required=True, help="valuation time")
    p.add_argument("--strike", type=float, default=0.0)
    p.add_argument("--notional", type=float, default=1.0)
    discount = p.add_mutually_exclusive_group()
    discount.add_argument("--rate", type=float, help="flat short rate (default 0)")
    discount.add_argument("--discount-factor", type=float)
    simulation(p, mc_only=True)

    p = command("compare", cmd_compare, help="series vs MC vs PDE sweep")
    p.add_argument("--alphas", type=float_list, required=True,
                   help="comma-separated vol-of-vols")
    p.add_argument("--taus", type=float_list, required=True,
                   help="comma-separated times to maturity")
    p.add_argument("--zetas", type=float_list, required=True, help="comma-separated zetas")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--tenor", type=float, default=1.0)
    simulation(p)

    command("verify", cmd_verify, help="run the identity verification suite")
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
        "command": args.command,
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
