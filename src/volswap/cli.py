"""Command-line surface: pricing, oracles, sweeps and verification.

Commands emit a single JSON object (or RFC-4180 CSV for sweeps) with an
embedded run manifest, so any result can be reproduced bit-for-bit from
its own output.  Numbers are serialized with shortest round-trip
representation (exact for 64-bit floats).

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
from .exceptions import VolswapError
from .model import MarketState, SabrParams, SwapContract, discount_factor

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGING = 3
EXIT_COMPARE_FAILED = 4

_COMPARE_SIGMAS = 3.0


class UsageError(Exception):
    """Bad flag combination detected after argparse."""


def _manifest(command: str, parameters: dict, seed=None) -> dict:
    return {
        "command": command,
        "tool": "volswap",
        "version": __version__,
        "parameters": parameters,
        "seed": seed,
        "duration_s": None,   # filled just before emission
    }


def _emit_json(document: dict, started: float, output: str) -> None:
    document["manifest"]["duration_s"] = time.time() - started
    text = json.dumps(document, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _read_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; keys use flag spelling."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line {line!r} is not key=value")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _resolve(args, name, cast, default=None, required=False):
    """Explicit flag > config file > default."""
    value = getattr(args, name, None)
    if value is None and args.config_values and name in args.config_values:
        raw = args.config_values[name]
        if cast is bool:
            low = raw.lower()
            if low in _BOOL_TRUE:
                value = True
            elif low in _BOOL_FALSE:
                value = False
            else:
                raise UsageError(f"config value {name}={raw!r} is not boolean")
        else:
            value = cast(raw)
    if value is None:
        if required:
            raise UsageError(f"missing required parameter --{name.replace('_', '-')}")
        value = default
    return value


def _market_inputs(args):
    """(state, params, contract, manifest fields of the six market inputs)."""
    alpha = _resolve(args, "alpha", float, required=True)
    sigma = _resolve(args, "sigma", float, required=True)
    nu = _resolve(args, "nu", float, required=True)
    t0 = _resolve(args, "t0", float, 0.0)
    tenor = _resolve(args, "tenor", float, required=True)
    t = _resolve(args, "t", float, required=True)
    strike = _resolve(args, "strike", float, 0.0)
    notional = _resolve(args, "notional", float, 1.0)
    params = SabrParams(alpha=alpha)
    contract = SwapContract(t0=t0, tenor=tenor, strike=strike, notional=notional)
    state = MarketState(t=t, sigma=sigma, nu=nu)
    fields = {"alpha": alpha, "sigma": sigma, "nu": nu, "t0": t0,
              "tenor": tenor, "t": t}
    return state, params, contract, fields


def _discount(args, state, contract) -> float:
    rate = _resolve(args, "rate", float)
    factor = _resolve(args, "discount_factor", float)
    if rate is not None and factor is not None:
        raise UsageError("give either --rate or --discount-factor, not both")
    if factor is not None:
        return factor          # price_volatility_swap range-checks it
    return discount_factor(rate if rate is not None else 0.0, state, contract)


def cmd_price(args) -> int:
    started = time.time()
    state, params, contract, fields = _market_inputs(args)
    df = _discount(args, state, contract)
    config = series_pricer.SeriesConfig(
        max_terms=_resolve(args, "max_terms", int, 64),
        rel_tol=_resolve(args, "rel_tol", float, 1e-10))
    annualization = _resolve(args, "annualization", str, "paper")
    if annualization not in ("paper", "market"):
        raise UsageError(f"unknown annualization {annualization!r}")

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
            "rel_tol": config.rel_tol, "annualization": annualization,
        }),
    }
    if annualization == "market":
        # display convention sqrt((1/T) int sigma^2) = sqrt(T) * kappa
        document["kappa_market"] = result.kappa * math.sqrt(contract.tenor)
    _emit_json(document, started, args.output)
    return (EXIT_DIVERGING if diag.regime == series_pricer.REGIME_DIVERGING
            else EXIT_OK)


def cmd_oracle(args) -> int:
    from . import mc_engine, pde_engine
    started = time.time()
    state, params, contract, fields = _market_inputs(args)
    if args.oracle == "mc":
        seed = _resolve(args, "seed", int, required=True)
        config = mc_engine.McConfig(
            n_paths=_resolve(args, "paths", int, 100_000),
            n_steps=_resolve(args, "steps", int, 250),
            seed=seed,
            antithetic=bool(_resolve(args, "antithetic", bool, False)))
        estimate = mc_engine.kappa_mc(state, params, contract, config)
        document = {
            "kappa": estimate.mean,
            "std_error": estimate.std_error,
            "n_paths": estimate.n_paths,
            "manifest": _manifest("oracle mc", {
                **fields, "paths": config.n_paths, "steps": config.n_steps,
                "antithetic": config.antithetic,
            }, seed=seed),
        }
        _emit_json(document, started, args.output)
        return EXIT_OK

    grid = pde_engine.GridSpec(
        y_max=_resolve(args, "y_max", float),
        n_y=_resolve(args, "n_y", int, 400),
        n_t=_resolve(args, "n_t", int, 400))
    quad_tol = _resolve(args, "quad_tol", float, 1e-6)
    refine = _resolve(args, "refine", int, 0)
    parameters = {
        **fields, "n_y": grid.n_y, "n_t": grid.n_t, "y_max": grid.y_max,
        "quad_tol": quad_tol, "refine": refine,
    }
    if refine > 0:
        report = pde_engine.grid_refinement_report(
            state, params, contract, grid, refinements=refine, quad_tol=quad_tol)
        document = {
            "kappa": report["kappas"][-1],
            "grid_report": {
                "kappas": report["kappas"],
                "grids": [list(g) for g in report["grids"]],
                "ratios": report["ratios"],
                "y_max": report["y_max"],
            },
            "manifest": _manifest("oracle pde", parameters),
        }
    else:
        kappa = pde_engine.kappa_quadrature(state, params, contract, grid, quad_tol)
        document = {
            "kappa": kappa,
            "manifest": _manifest("oracle pde", parameters),
        }
    _emit_json(document, started, args.output)
    return EXIT_OK


def _float_list(raw: str, flag: str) -> list:
    try:
        values = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--{flag} expects comma-separated floats: {exc}")
    if not values:
        raise UsageError(f"--{flag} is empty")
    return values


def cmd_compare(args) -> int:
    from . import mc_engine, pde_engine
    started = time.time()
    alphas = _float_list(_resolve(args, "alphas", str, required=True), "alphas")
    taus = _float_list(_resolve(args, "taus", str, required=True), "taus")
    zetas = _float_list(_resolve(args, "zetas", str, required=True), "zetas")
    nu = _resolve(args, "nu", float, required=True)
    tenor = _resolve(args, "tenor", float, 1.0)
    t0 = _resolve(args, "t0", float, 0.0)
    seed = _resolve(args, "seed", int, required=True)
    n_paths = _resolve(args, "paths", int, 100_000)
    n_steps = _resolve(args, "steps", int, 250)
    contract = SwapContract(t0=t0, tenor=tenor)
    if nu <= 0:
        raise UsageError("compare requires nu > 0 (series regime)")
    for tau in taus:
        if not (0.0 <= tau <= tenor):
            raise UsageError(f"tau {tau} outside [0, tenor]")

    rows = []
    failures = 0
    config_template = dict(n_paths=n_paths, n_steps=n_steps, seed=seed)
    for alpha in alphas:
        for tau in taus:
            for zeta in zetas:
                params = SabrParams(alpha=alpha)
                sigma = math.sqrt(2.0 * alpha * alpha * nu * zeta)
                # t0 + (tenor - tau) cannot round below t0 or past maturity
                state = MarketState(t=t0 + (tenor - tau), sigma=sigma, nu=nu)
                kappa_s, diag = series_pricer.kappa_series(state, params, contract)
                mc = mc_engine.kappa_mc(state, params, contract,
                                        mc_engine.McConfig(**config_template))
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
        "alphas": alphas, "taus": taus, "zetas": zetas, "nu": nu,
        "tenor": tenor, "t0": t0, "paths": n_paths, "steps": n_steps,
    }, seed=seed)
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
    text = buffer.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    which = _resolve(args, "check", str, "all")
    known = ("all", "terminal", "bessel", "j0", "kummer", "psi-pde", "functional")
    if which not in known:
        raise UsageError(f"--check must be one of {', '.join(known)}")
    n_terms = _resolve(args, "n_terms", int, 10)
    s_max = _resolve(args, "s_max", int, 40)
    reports = _verify_reports(which, n_terms, s_max)
    all_passed = all(r["passed"] for r in reports)
    document = {
        "reports": reports,
        "all_passed": all_passed,
        "manifest": _manifest("verify", {
            "check": which, "n_terms": n_terms, "s_max": s_max}),
    }
    _emit_json(document, started, args.output)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volswap",
        description="Volatility-swap pricing under lognormal-vol SABR: "
                    "series pricer, Monte Carlo / PDE oracles, verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value defaults file")
        p.add_argument("--output", help="write the document here instead of stdout")

    def market(p):
        p.add_argument("--alpha", type=float, help="vol-of-vol")
        p.add_argument("--sigma", type=float, help="instantaneous volatility")
        p.add_argument("--nu", type=float, help="accrued realized variance")
        p.add_argument("--t0", type=float, help="accrual start (default 0)")
        p.add_argument("--tenor", type=float, help="accrual length T")
        p.add_argument("--t", type=float, help="valuation time")

    p_price = sub.add_parser("price", help="series fair value")
    market(p_price)
    p_price.add_argument("--strike", type=float)
    p_price.add_argument("--notional", type=float)
    p_price.add_argument("--rate", type=float, help="flat short rate")
    p_price.add_argument("--discount-factor", dest="discount_factor", type=float)
    p_price.add_argument("--max-terms", dest="max_terms", type=int)
    p_price.add_argument("--rel-tol", dest="rel_tol", type=float)
    p_price.add_argument("--annualization", choices=("paper", "market"))
    common(p_price)
    p_price.set_defaults(func=cmd_price)

    p_oracle = sub.add_parser("oracle", help="Monte Carlo or PDE reference value")
    o_sub = p_oracle.add_subparsers(dest="oracle", required=True)
    p_mc = o_sub.add_parser("mc")
    market(p_mc)
    p_mc.add_argument("--seed", type=int)
    p_mc.add_argument("--paths", type=int)
    p_mc.add_argument("--steps", type=int)
    p_mc.add_argument("--antithetic", action="store_const", const=True)
    common(p_mc)
    p_mc.set_defaults(func=cmd_oracle)
    p_pde = o_sub.add_parser("pde")
    market(p_pde)
    p_pde.add_argument("--n-y", dest="n_y", type=int)
    p_pde.add_argument("--n-t", dest="n_t", type=int)
    p_pde.add_argument("--y-max", dest="y_max", type=float)
    p_pde.add_argument("--quad-tol", dest="quad_tol", type=float)
    p_pde.add_argument("--refine", type=int)
    common(p_pde)
    p_pde.set_defaults(func=cmd_oracle)

    p_cmp = sub.add_parser("compare", help="series vs MC vs PDE sweep (CSV)")
    p_cmp.add_argument("--alphas", help="comma-separated vol-of-vol values")
    p_cmp.add_argument("--taus", help="comma-separated times to maturity")
    p_cmp.add_argument("--zetas", help="comma-separated zeta values")
    p_cmp.add_argument("--nu", type=float)
    p_cmp.add_argument("--tenor", type=float)
    p_cmp.add_argument("--t0", type=float)
    p_cmp.add_argument("--seed", type=int)
    p_cmp.add_argument("--paths", type=int)
    p_cmp.add_argument("--steps", type=int)
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run the identity verification suite")
    p_ver.add_argument("--check")
    p_ver.add_argument("--n-terms", dest="n_terms", type=int)
    p_ver.add_argument("--s-max", dest="s_max", type=int)
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.config_values = {}
    if getattr(args, "config", None):
        try:
            args.config_values = _read_config(args.config)
        except OSError as exc:
            print(f"volswap: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except UsageError as exc:
            print(f"volswap: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if not hasattr(args, "output") or args.output is None:
        args.output = args.config_values.get("output") if args.config_values else None
    try:
        return args.func(args)
    except (UsageError, VolswapError) as exc:
        print(f"volswap: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
