"""Command-line surface: pricing, oracles, sweeps and verification.

Commands emit a single JSON object (or RFC-4180 CSV for sweeps) with an
embedded run manifest, so any result can be reproduced bit-for-bit from
its own output.  Numbers are serialized with shortest round-trip
representation (exact for 64-bit floats).

:func:`build_parser` alone states each flag's type, default, choices,
required-ness and exclusions.  ``--config FILE`` holds ``key = value``
lines: ``#`` starts a comment, keys are flag names with ``-`` or ``_``,
on/off flags take yes/no, true/false, on/off or 1/0, and keys the command
does not take are ignored, so one file serves several commands.  The lines
become flags placed right after the command words, so the parser checks
them as it checks typed flags (even a value a flag overrides), and an
explicit flag beats the file, which beats the default.

Exit codes: 0 success, 1 verification check failed, 2 usage error,
3 series divergence, 4 comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import __version__, series_pricer, specfun, verify
from .exceptions import DomainError, VolswapError
from .model import MarketState, SabrParams, SwapContract, discount_factor

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGING = 3
EXIT_COMPARE_FAILED = 4

_COMPARE_SIGMAS = 3.0


def _manifest(command: str, parameters: dict, seed=None) -> dict:
    return {
        "command": command,
        "tool": "volswap",
        "version": __version__,
        "parameters": parameters,
        "seed": seed,
        "duration_s": None,   # filled just before emission
    }


def _write(text: str, output) -> None:
    """The document to the --output file, or to stdout without one."""
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(document: dict, started: float, output) -> None:
    document["manifest"]["duration_s"] = time.time() - started
    _write(json.dumps(document, indent=2, sort_keys=True) + "\n", output)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_flags(parser, flags: dict, path: str):
    """Yield the lines of a config file as flags of the command whose
    actions ``flags`` holds by dest, skipping keys that name none of them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config: {exc}")
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"config line {line!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        action = flags.get(key.replace("-", "_"))
        if action is None:
            continue
        if action.nargs != 0:
            yield f"{action.option_strings[0]}={value}"
        elif value.lower() not in _BOOLEANS:
            parser.error(f"config value {key}={value!r} is not boolean")
        elif _BOOLEANS[value.lower()]:
            yield action.option_strings[0]


def _with_config(argv: list, commands: dict) -> list:
    """``argv`` with its --config file spliced in as flags right after the
    command words, where the explicit flags that follow override them."""
    for words, (parser, flags) in commands.items():
        n = len(words)
        if tuple(argv[:n]) != words:
            continue
        scan = argparse.ArgumentParser(add_help=False)
        scan.error = parser.error       # report a bare --config as the command
        scan.add_argument(*flags["config"].option_strings, dest="path")
        path = scan.parse_known_args(argv[n:])[0].path
        if path is not None:
            return argv[:n] + list(_config_flags(parser, flags, path)) + argv[n:]
    return argv


def _market_inputs(args, **terms):
    """(state, params, contract, manifest fields of the six market inputs)."""
    params = SabrParams(alpha=args.alpha)
    contract = SwapContract(t0=args.t0, tenor=args.tenor, **terms)
    state = MarketState(t=args.t, sigma=args.sigma, nu=args.nu)
    fields = {name: getattr(args, name)
              for name in ("alpha", "sigma", "nu", "t0", "tenor", "t")}
    return state, params, contract, fields


def cmd_price(args) -> int:
    started = time.time()
    state, params, contract, fields = _market_inputs(
        args, strike=args.strike, notional=args.notional)
    df = args.discount_factor   # price_volatility_swap range-checks it
    if df is None:
        df = discount_factor(args.rate, state, contract)
    config = series_pricer.SeriesConfig(max_terms=args.max_terms,
                                        rel_tol=args.rel_tol)
    result = series_pricer.price_volatility_swap(state, params, contract, df, config)
    diag = result.diagnostics
    document = {
        "kappa": result.kappa,
        "fair_value": result.fair_value,
        "discount_factor": result.discount_factor,
        "terms_used": diag.terms_used,
        "min_term_index": diag.min_term_index,
        "min_term_abs": diag.min_term_abs,
        "converged": diag.converged,
        "regime": diag.regime,
        "warnings": list(result.warnings),
        "manifest": _manifest("price", {
            **fields, "strike": contract.strike, "notional": contract.notional,
            "discount_factor": df, "max_terms": config.max_terms,
            "rel_tol": config.rel_tol, "annualization": args.annualization,
        }),
    }
    if args.annualization == "market":
        # display convention sqrt((1/T) int sigma^2) = sqrt(T) * kappa
        document["kappa_market"] = result.kappa * math.sqrt(contract.tenor)
    _emit_json(document, started, args.output)
    return (EXIT_DIVERGING if diag.regime == series_pricer.REGIME_DIVERGING
            else EXIT_OK)


def cmd_oracle(args) -> int:
    started = time.time()             # the engine import is part of the run
    state, params, contract, fields = _market_inputs(args)
    if args.oracle == "mc":
        from . import mc_engine
        config = mc_engine.McConfig(n_paths=args.paths, n_steps=args.steps,
                                    seed=args.seed, antithetic=args.antithetic)
        estimate = mc_engine.kappa_mc(state, params, contract, config)
        document = {
            "kappa": estimate.mean,
            "std_error": estimate.std_error,
            "n_paths": estimate.n_paths,
            "manifest": _manifest("oracle mc", {
                **fields, "paths": config.n_paths, "steps": config.n_steps,
                "antithetic": config.antithetic,
            }, seed=config.seed),
        }
        _emit_json(document, started, args.output)
        return EXIT_OK

    from . import pde_engine
    grid = pde_engine.GridSpec(y_max=args.y_max, n_y=args.n_y, n_t=args.n_t)
    document = {"manifest": _manifest("oracle pde", {
        **fields, "n_y": grid.n_y, "n_t": grid.n_t, "y_max": grid.y_max,
        "quad_tol": args.quad_tol, "refine": args.refine,
    })}
    if args.refine > 0:
        report = pde_engine.grid_refinement_report(
            state, params, contract, grid, refinements=args.refine,
            quad_tol=args.quad_tol)
        document["kappa"] = report["kappas"][-1]
        document["grid_report"] = {
            "kappas": report["kappas"],
            "grids": [list(g) for g in report["grids"]],
            "ratios": report["ratios"],
            "y_max": report["y_max"],
        }
    else:
        document["kappa"] = pde_engine.kappa_quadrature(
            state, params, contract, grid, args.quad_tol)
    _emit_json(document, started, args.output)
    return EXIT_OK


def float_list(raw: str) -> list:
    """argparse type: one or more comma-separated floats."""
    values = [float(v) for v in raw.split(",") if v.strip() != ""]
    if not values:
        raise ValueError(f"no value in {raw!r}")
    return values


def cmd_compare(args) -> int:
    started = time.time()
    from . import mc_engine, pde_engine
    nu, tenor, t0 = args.nu, args.tenor, args.t0
    contract = SwapContract(t0=t0, tenor=tenor)
    if nu <= 0:
        raise DomainError("compare requires nu > 0 (series regime)")
    for tau in args.taus:
        if not (0.0 <= tau <= tenor):
            raise DomainError(f"tau {tau} outside [0, tenor]")

    rows = []
    failures = 0
    config = mc_engine.McConfig(n_paths=args.paths, n_steps=args.steps,
                                seed=args.seed)
    for alpha in args.alphas:
        for tau in args.taus:
            for zeta in args.zetas:
                params = SabrParams(alpha=alpha)
                sigma = math.sqrt(2.0 * alpha * alpha * nu * zeta)
                # t0 + (tenor - tau) cannot round below t0 or past maturity
                state = MarketState(t=t0 + (tenor - tau), sigma=sigma, nu=nu)
                kappa_s, diag = series_pricer.kappa_series(state, params, contract)
                mc = mc_engine.kappa_mc(state, params, contract, config)
                kappa_p = pde_engine.kappa_quadrature(state, params, contract)
                diff = abs(kappa_s - mc.mean)
                if mc.std_error > 0.0:
                    sigmas = diff / mc.std_error
                else:
                    sigmas = 0.0 if diff == 0.0 else math.inf
                if diag.regime == series_pricer.REGIME_CONVERGENT and sigmas > _COMPARE_SIGMAS:
                    failures += 1
                rows.append([alpha, tau, zeta, kappa_s, diag.regime,
                             mc.mean, mc.std_error, kappa_p, sigmas])

    manifest = _manifest("compare", {
        "alphas": args.alphas, "taus": args.taus, "zetas": args.zetas,
        "nu": nu, "tenor": tenor, "t0": t0, "paths": config.n_paths,
        "steps": config.n_steps,
    }, seed=config.seed)
    manifest["duration_s"] = time.time() - started

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    header = ["alpha", "tau", "zeta", "kappa_series", "regime", "kappa_mc",
              "mc_se", "kappa_pde", "abs_diff_mc_sigmas"]
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    writer.writerow(["#manifest", json.dumps(manifest, sort_keys=True)]
                    + [""] * (len(header) - 2))
    _write(buffer.getvalue(), args.output)
    return EXIT_COMPARE_FAILED if failures else EXIT_OK


def _verify_reports(which: str, n_terms: int, s_max: int) -> list:
    reports = []

    def add(check, rep: verify.ResidualReport):
        reports.append({
            "check": check, "kind": "residual", "point": rep.point,
            "residual": rep.residual, "scale": rep.scale,
            "relative": rep.relative, "tolerance": rep.tolerance,
            "passed": rep.passed,
        })

    def add_terminal(point, value, expected):
        reports.append({"check": "terminal", "kind": "exact", "point": point,
                        "value": str(value), "passed": value == expected})

    if which in ("all", "terminal"):
        # s = 0: the sum is -1 and the Gamma(-1/2)/(2 sqrt(pi)) prefactor
        # (exactly -1) must turn it into the leading coefficient 1
        add_terminal("s=0 leading coefficient",
                     verify.check_terminal_identity(0)
                     * specfun.gamma_half_integer(-1) / 2, 1)
        for s in range(1, s_max + 1):
            add_terminal(f"s={s}", verify.check_terminal_identity(s), 0)
    if which in ("all", "bessel"):
        for y in (0.1, 0.5, 1.0, 2.0, 5.0):
            add("bessel", verify.check_bessel_sqrt_expansion(y, 60))
    if which in ("all", "j0"):
        for i in range(50):
            z = 10.0 ** (-2.0 + (i + 1) * (math.log10(50.0) + 2.0) / 50.0)
            add("j0", verify.check_j0(z))
    if which in ("all", "kummer"):
        for a, b, z in ((-0.5, 0.5, 1.0), (1.5, 4.5, 4.0), (3.5, 8.5, 0.25),
                        (-0.5, 0.5, 20.0), (9.5, 20.5, 2.0)):
            add("kummer", verify.check_kummer_ode(a, b, z))
    if which in ("all", "psi-pde"):
        for tau, y, alpha in ((0.25, 1.0, 0.3), (0.25, 3.0, 0.3),
                              (0.0, 1.0, 0.3), (0.1, 0.5, 0.5)):
            add("psi-pde", verify.check_psi_pde_residual(tau, y, alpha, 20))
    if which in ("all", "functional"):
        for zeta in (0.5, 2.0, 8.0):
            for tau in (0.1, 0.5):
                for alpha in (0.2, 0.5):
                    for n in range(n_terms + 1):
                        add("functional",
                            verify.functional_term_residual(n, zeta, tau, alpha))
        params = SabrParams(alpha=0.4)
        contract = SwapContract(t0=0.0, tenor=1.0)
        state = MarketState(t=0.5, sigma=0.25, nu=0.03)
        add("functional",
            verify.check_functional_residual(state, params, contract, n_terms))
        for rep in verify.check_functional_fd(state, params, contract, n_terms):
            add("functional-fd", rep)
    return reports


def cmd_verify(args) -> int:
    started = time.time()
    reports = _verify_reports(args.check, args.n_terms, args.s_max)
    all_passed = all(r["passed"] for r in reports)
    document = {
        "reports": reports,
        "all_passed": all_passed,
        "manifest": _manifest("verify", {
            "check": args.check, "n_terms": args.n_terms, "s_max": args.s_max}),
    }
    _emit_json(document, started, args.output)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def build_parser():
    """(parser, commands): the volswap parser, and each command's words
    mapped to its parser and to its flags' actions by dest.

    The only place a flag's type, default, choices, required-ness and
    exclusions are stated; a --config file is parsed through it as well.
    """
    parser = argparse.ArgumentParser(
        prog="volswap",
        description="Volatility-swap pricing under lognormal-vol SABR: "
                    "series pricer, Monte Carlo / PDE oracles, verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(subparsers, words, func, **kwargs):
        """A command's parser, and the function that adds a flag to it."""
        p = subparsers.add_parser(words[-1], **kwargs)
        p.set_defaults(func=func)
        flags = {}
        commands[words] = (p, flags)

        def flag(*names, group=p, **options):
            action = group.add_argument(*names, **options)
            flags[action.dest] = action

        flag("--config", metavar="FILE",
             help="key = value lines read as flags, checked alike; keys the "
                  "command does not take are ignored; explicit flags win")
        flag("--output", help="write the document here instead of stdout")
        return p, flag

    def market(flag):
        flag("--alpha", type=float, required=True, help="vol-of-vol")
        flag("--sigma", type=float, required=True, help="instantaneous volatility")
        flag("--nu", type=float, required=True, help="accrued realized variance")
        flag("--t0", type=float, default=0.0, help="accrual start (default 0)")
        flag("--tenor", type=float, required=True, help="accrual length T")
        flag("--t", type=float, required=True, help="valuation time")

    def simulation(flag):
        flag("--seed", type=int, required=True)
        flag("--paths", type=int, default=100_000)
        flag("--steps", type=int, default=250)

    p_price, flag = command(sub, ("price",), cmd_price, help="series fair value")
    market(flag)
    flag("--strike", type=float, default=0.0)
    flag("--notional", type=float, default=1.0)
    discount = p_price.add_mutually_exclusive_group()
    flag("--rate", group=discount, type=float, default=0.0, help="flat short rate")
    flag("--discount-factor", group=discount, type=float)
    flag("--max-terms", type=int, default=64)
    flag("--rel-tol", type=float, default=1e-10)
    flag("--annualization", choices=("paper", "market"), default="paper")

    o_sub = sub.add_parser("oracle", help="Monte Carlo or PDE reference value"
                           ).add_subparsers(dest="oracle", required=True)
    _, flag = command(o_sub, ("oracle", "mc"), cmd_oracle)
    market(flag)
    simulation(flag)
    flag("--antithetic", action="store_true")
    _, flag = command(o_sub, ("oracle", "pde"), cmd_oracle)
    market(flag)
    flag("--n-y", type=int, default=400)
    flag("--n-t", type=int, default=400)
    flag("--y-max", type=float)
    flag("--quad-tol", type=float, default=1e-6)
    flag("--refine", type=int, default=0)

    _, flag = command(sub, ("compare",), cmd_compare,
                      help="series vs MC vs PDE sweep (CSV)")
    flag("--alphas", type=float_list, required=True, help="comma-separated vol-of-vols")
    flag("--taus", type=float_list, required=True, help="comma-separated times to maturity")
    flag("--zetas", type=float_list, required=True, help="comma-separated zetas")
    flag("--nu", type=float, required=True)
    flag("--tenor", type=float, default=1.0)
    flag("--t0", type=float, default=0.0)
    simulation(flag)

    _, flag = command(sub, ("verify",), cmd_verify,
                      help="run the identity verification suite")
    flag("--check", default="all", choices=("all", "terminal", "bessel", "j0",
                                            "kummer", "psi-pde", "functional"))
    flag("--n-terms", type=int, default=10)
    flag("--s-max", type=int, default=40)
    return parser, commands


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_with_config(argv, commands))
    try:
        return args.func(args)
    except VolswapError as exc:
        print(f"volswap: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
