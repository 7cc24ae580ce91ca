"""The command-line interface: exit codes and output documents against docs/schemas."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from volswap import cli, mc_engine, pde_engine, series_pricer, verify
from volswap.model import MarketState, SabrParams, SwapContract

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"
SCHEMAS = {path.name: json.loads(path.read_text(encoding="utf-8"))
           for path in SCHEMA_DIR.glob("*.schema.json")}
REGISTRY = Registry().with_resources(
    (schema["$id"], Resource.from_contents(schema)) for schema in SCHEMAS.values())

SEED_POINT = ["--alpha", "0.4", "--sigma", "0.25", "--nu", "0.03",
              "--t", "0.5", "--tenor", "1"]
CONVERGENT_POINT = ["--alpha", "0.316227766", "--sigma", "0.0894427191",
                    "--nu", "0.04", "--t", "0.5", "--tenor", "1"]
#: the two oracles, Monte Carlo and the PDE, as pricing engines
MC = ["price", "--engine", "mc"]
PDE = ["price", "--engine", "pde"]


def exit_code(argv, capsys):
    """(exit code of cli.main on argv, whether returned or raised, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def run(tmp_path, argv, schema=None):
    """cli.main on argv with --output; returns (exit code, document parsed
    strictly and checked against schema) or, without schema, its text."""
    out = tmp_path / "out"
    code = cli.main(argv + ["--output", str(out)])
    if schema is None:
        return code, out.read_text(encoding="utf-8")
    return code, checked(out.read_text(encoding="utf-8"), schema)


def checked(text, schema):
    """The document in text, parsed strictly and checked against schema."""
    document = strict_json(text)
    validator = Draft7Validator(SCHEMAS[schema], registry=REGISTRY)
    errors = [e.message for e in validator.iter_errors(document)]
    assert errors == []
    return document


class TestPrice:
    def test_convergent_point(self, tmp_path):
        code, doc = run(tmp_path, ["price"] + CONVERGENT_POINT,
                        "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["regime"] == "convergent_like"

    def test_seed_point_diverges(self, tmp_path):
        code, doc = run(tmp_path, ["price"] + SEED_POINT, "price.schema.json")
        assert code == cli.EXIT_DIVERGING
        assert doc["warnings"] == ["SERIES_DIVERGING"]

    def test_growth_overflow_is_diverging(self, tmp_path):
        # s = alpha^2 tau = 200: the n = 2 growth factor e^(6 s) overflows
        argv = ["price"] + SEED_POINT
        argv[argv.index("--alpha") + 1] = "20"
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_DIVERGING
        assert doc["regime"] == "diverging"
        assert doc["terms_used"] == 2

    def test_explicit_discount_factor(self, tmp_path):
        code, doc = run(tmp_path, ["price"] + CONVERGENT_POINT
                        + ["--discount-factor", "0.97"], "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["discount_factor"] == 0.97
        argv = ["price"] + CONVERGENT_POINT + ["--discount-factor", "1.5"]
        assert cli.main(argv + ["--output", str(tmp_path / "bad")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag, spaced, plain", [
        ("--notional", "-1e6", "-1000000"), ("--t0", "-1E-1", "-0.1"),
        ("--rate", "-5e-2", "-0.05")])
    def test_negative_value_in_exponent_form(self, tmp_path, capsys, flag,
                                             spaced, plain):
        # argparse alone reads -1e6 as an option: "expected one argument".
        # A negative rate reaches the engine, which refuses its discount factor
        outcomes = []
        for value in (spaced, plain):
            out = tmp_path / value
            code, err = exit_code(["price"] + CONVERGENT_POINT
                                  + [flag, value, "--output", str(out)], capsys)
            document = None
            if out.exists():
                document, manifest = recorded(out.read_text(encoding="utf-8"))
                document["parameters"] = manifest["parameters"]
            outcomes.append((code, err, document))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (cli.EXIT_USAGE if flag == "--rate" else cli.EXIT_OK)

    def test_discount_overflow_is_usage_error(self, tmp_path, capsys):
        argv = ["price"] + CONVERGENT_POINT + ["--rate", "-2000"]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["-0.5", "1.5"])
    def test_outside_accrual_window_is_usage_error(self, tmp_path, t):
        argv = ["price"] + SEED_POINT
        argv[argv.index("--t") + 1] = t
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("t, nu", [("0.001", "6.25e-5"), ("0.5", "2.7e-4")],
                             ids=["near-accrual-start", "small-nu"])
    def test_overflowing_1f1_is_diverging(self, tmp_path, capsys, t, nu):
        # zeta = 3125 and 723: 1F1's e^zeta overflows in every term; the
        # contract is valid, so this is the series' exit, not a usage error
        argv = ["price"] + SEED_POINT
        argv[argv.index("--t") + 1] = t
        argv[argv.index("--nu") + 1] = nu
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_DIVERGING
        assert "volswap: series produced no finite terms" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["0.5796550698", "0.6118823416"],
                             ids=["zeta-35", "zeta-39"])
    def test_at_maturity_is_sqrt_nu_over_t(self, tmp_path, sigma):
        # the summed series made 0.16491 and 1.7275 of 0.173205 here
        argv = ["price", "--alpha", "0.4", "--sigma", sigma, "--nu", "0.03",
                "--t", "1", "--tenor", "1"]
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["kappa"] == math.sqrt(0.03)
        assert (doc["terms_used"], doc["min_term_index"], doc["min_term_abs"],
                doc["converged"], doc["regime"]) == (1, 0, 0.0, True,
                                                     "convergent_like")

    @pytest.mark.parametrize("alpha, sigma, message", [
        ("1e-200", "0.25", "zeta = sigma^2 / (2 alpha^2 nu) is not finite"),
        ("0.4", "1e200", "zeta = sigma^2 / (2 alpha^2 nu) is not finite"),
        ("1e200", "0.25", "e^s - 1 is not finite"),
        ("40", "0.25", "s = alpha^2 tau = 800.0: e^s - 1 is not finite"),
    ], ids=["alpha-underflow", "sigma-overflow", "alpha-overflow", "s-800"])
    def test_extreme_input_is_usage_error(self, tmp_path, capsys, alpha, sigma,
                                          message):
        # these died with a traceback (exit 1), and s = 800 summed as diverging
        argv = ["price", "--alpha", alpha, "--sigma", sigma, "--nu", "0.03",
                "--t", "0.5", "--tenor", "1", "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("volswap: ")
        assert message in err

    def test_fair_value_overflow_is_usage_error(self, tmp_path, capsys):
        # this wrote "fair_value": -Infinity: a ValueError traceback and exit 1
        argv = ["price"] + CONVERGENT_POINT + ["--notional", "1e308", "--strike", "5",
                                               "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == "volswap: notional * df * (kappa - strike) = -inf is not finite\n"
        assert not (tmp_path / "out").exists()

    def test_nu_zero_names_the_engines_that_price_it(self, tmp_path, capsys):
        # the advice named an "oracle" command that no longer exists
        argv = ["price", "--alpha", "0.4", "--sigma", "0.25", "--nu", "0",
                "--t", "0", "--tenor", "1", "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err.endswith("the series regime is excluded; price it with "
                            "--engine pde or --engine mc\n")

    @pytest.mark.parametrize("engine", ["series", "pde", "mc"])
    def test_every_engine_composes_the_fair_value(self, tmp_path, engine):
        argv = ["price", "--engine", engine] + CONVERGENT_POINT + [
            "--strike", "0.1", "--notional=-1e6", "--rate", "0.05"]
        if engine == "mc":
            argv += ["--seed", "1", "--paths", "1000", "--steps", "10"]
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert (code, doc["engine"]) == (cli.EXIT_OK, engine)
        assert doc["discount_factor"] == math.exp(-0.05 * 0.5)
        assert doc["fair_value"] == -1e6 * doc["discount_factor"] * (doc["kappa"] - 0.1)
        assert doc["kappa_market"] == doc["kappa"]

    def test_market_annualization(self, tmp_path):
        # every price reports sqrt((1/T) int sigma^2) = sqrt(T) kappa as well
        argv = ["price"] + CONVERGENT_POINT     # the same s and zeta at T = 4
        argv[argv.index("--t") + 1] = "3.5"
        argv[argv.index("--tenor") + 1] = "4"
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["kappa_market"] == 2.0 * doc["kappa"]


class TestOracle:
    """The Monte Carlo and PDE oracles, priced by ``price --engine mc|pde``."""

    def test_mc(self, tmp_path):
        code, doc = run(tmp_path, MC + SEED_POINT
                        + ["--seed", "7", "--paths", "2000", "--steps", "50"],
                        "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["n_paths"] == 2000

    def test_mc_sizes_its_steps_by_its_error(self, tmp_path):
        # the CI point at 16 384 paths: --steps 250 is a cap the ladder stops
        # below, with its step bias and tail tests passed
        code, doc = run(tmp_path, MC + SEED_POINT
                        + ["--seed", "1", "--paths", "16384", "--steps", "250"],
                        "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["n_steps"] < 250 and doc["warnings"] == []
        assert abs(doc["discretization"]) <= doc["std_error"] / 4
        assert abs(doc["variance_swap_z"]) <= 4
        estimate = mc_engine.kappa_mc(
            MarketState(t=0.5, sigma=0.25, nu=0.03), SabrParams(alpha=0.4),
            SwapContract(t0=0.0, tenor=1.0), mc_engine.McConfig(16384, 250, seed=1))
        assert [doc[name] for name in ("kappa", "n_steps", "discretization",
                                       "variance_swap_exact", "variance_swap_z")] == [
            estimate.mean, estimate.n_steps, estimate.discretization,
            estimate.variance_swap_exact, estimate.variance_swap_z]

    def test_mc_missed_tail_is_a_warning(self, tmp_path, capsys):
        # s = 8, known defect 3: flagged on the document, not refused
        argv = MC + SEED_POINT + ["--seed", "1", "--paths", "10000",
                                                "--steps", "250"]
        argv[argv.index("--alpha") + 1] = "4"
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert (code, doc["n_steps"], doc["warnings"]) == (cli.EXIT_OK, 250,
                                                           ["MC_TAIL"])
        assert capsys.readouterr().err == ""

    def test_mc_odd_steps_have_no_discretization(self, tmp_path):
        code, doc = run(tmp_path, MC + SEED_POINT
                        + ["--seed", "7", "--paths", "2000", "--steps", "5"],
                        "price.schema.json")
        assert code == cli.EXIT_OK
        assert (doc["n_steps"], doc["discretization"]) == (5, None)
        assert doc["warnings"] == ["MC_STEP_BIAS"]

    def test_mc_variance_swap_of_its_own_draws(self, tmp_path):
        # the draws that value kappa also value nu + sigma^2 tau M_s, whose
        # exact mean nu + sigma^2 tau expm1(s)/s checks them
        code, doc = run(tmp_path, MC + SEED_POINT
                        + ["--seed", "1", "--paths", "2000", "--steps", "50"],
                        "price.schema.json")
        assert code == cli.EXIT_OK
        estimate = mc_engine.kappa_mc(
            MarketState(t=0.5, sigma=0.25, nu=0.03), SabrParams(alpha=0.4),
            SwapContract(t0=0.0, tenor=1.0), mc_engine.McConfig(2000, 50, seed=1))
        assert (doc["variance_swap"], doc["variance_swap_se"]) == (
            estimate.variance_swap, estimate.variance_swap_se)
        exact = 0.03 + 0.25 ** 2 * 0.5 * math.expm1(0.08) / 0.08
        assert abs(doc["variance_swap"] - exact) <= 4.0 * doc["variance_swap_se"]

    def test_mc_variance_swap_beyond_float_range_is_null(self, tmp_path, capsys):
        # sigma^2 tau = 5e307 at alpha 0.4: kappa is finite, while the
        # variance swap's sum overflows; it is written as null, not refused
        argv = MC + SEED_POINT + ["--paths", "200", "--steps", "5",
                                                "--seed", "3"]
        argv[argv.index("--sigma") + 1] = "1e154"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        assert (doc["kappa"], doc["std_error"]) == (7.111298701594839e+153,
                                                    1.9932453378167703e+151)
        assert doc["variance_swap"] is None and doc["variance_swap_se"] is None
        assert capsys.readouterr().err == ""

    def test_mc_nu_zero(self, tmp_path):
        argv = MC + ["--alpha", "0.4", "--sigma", "0.25",
                "--nu", "0", "--t", "0", "--tenor", "0.5",
                "--paths", "1000", "--steps", "10", "--seed", "1"]
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["kappa"] > 0 and doc["std_error"] > 0

    def test_mc_single_antithetic_pair_is_usage_error(self, tmp_path):
        argv = MC + SEED_POINT + ["--seed", "7", "--paths", "2"]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE

    def test_mc_odd_paths_is_usage_error(self, tmp_path, capsys):
        # every draw is an antithetic pair of paths
        argv = MC + SEED_POINT + ["--seed", "7", "--paths", "2001",
                                                "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "n_paths must be even" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    def test_mc_seed_outside_philox_key_is_usage_error(self, tmp_path, seed):
        argv = MC + SEED_POINT + ["--seed", seed, "--paths", "100"]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE

    def test_mc_threads_variable_zero_is_usage_error(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("VOLSWAP_THREADS", "0")
        argv = MC + SEED_POINT + ["--seed", "1",
                                                "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == "volswap: VOLSWAP_THREADS must be a positive integer, got '0'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, expected", [
        ("kappa", 0.2491417908208552),
        ("grid_report", {"grids": [100, 200, 400],
                         "kappas": [0.2491417908208552, 0.24914180218967788,
                                    0.2491418028959935],
                         "ratios": [16.095952593283275]}),
    ], ids=["single", "refine"])
    def test_pde(self, tmp_path, key, expected):
        # one run reports the single 100-cell price as kappa and, always, its
        # refinement on 100, 200 and 400 cells, whose first level is kappa
        code, doc = run(tmp_path, PDE + SEED_POINT,
                        "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["kappa"] == doc["grid_report"]["kappas"][0]
        assert doc[key] == expected

    @pytest.mark.parametrize("point, kappa", [
        (SEED_POINT, "0.2491417908208552"),
        (["--alpha", "0.4", "--sigma", "0.25", "--nu", "0", "--t", "0.5",
          "--tenor", "1"], "0.17794827756423567"),
        (["--alpha", "0.1", "--sigma", "0.0173", "--nu", "0.03", "--t", "0.95",
          "--tenor", "1"], "0.1732482849566812"),
        (["--alpha", "2", "--sigma", "2.8284271247", "--nu", "1", "--t", "0",
          "--tenor", "1"], "3.8783642354043417"),
        (["--alpha", "1e-200", "--sigma", "0.25", "--nu", "0.03", "--t", "0.5",
          "--tenor", "1"], "0.24748737341529164"),
    ], ids=["seed", "nu-zero", "s-5e-4", "s-4", "s-underflows"])
    def test_pde_kappa_is_the_default_grid_price(self, tmp_path, point, kappa):
        # the bits of kappa_quadrature on the default grid, which compare
        # reports as kappa_pde
        argv = PDE + point
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        assert repr(doc["kappa"]) == kappa
        args = cli.build_parser().parse_args(argv)
        assert repr(pde_engine.kappa_quadrature(
            MarketState(t=args.t, sigma=args.sigma, nu=args.nu),
            SabrParams(alpha=args.alpha),
            SwapContract(t0=args.t0, tenor=args.tenor))) == kappa

    def test_pde_duration_counts_the_engine_import(self, tmp_path):
        # a fresh interpreter pays the engine import inside price --engine
        # pde, and -X importtime reports that import's cumulative time in
        # microseconds
        out = tmp_path / "out"
        argv = ["-X", "importtime", "-m", "volswap"] + PDE + SEED_POINT
        proc = subprocess.run([sys.executable] + argv + ["--output", str(out)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        import_us = [int(line.split("|")[1]) for line in proc.stderr.splitlines()
                     if line.split("|")[-1].strip() == "volswap.pde_engine"]
        assert len(import_us) == 1
        duration_s = json.loads(out.read_text(encoding="utf-8"))["manifest"]["duration_s"]
        assert duration_s >= import_us[0] / 1e6

    def test_pde_at_maturity_refines_to_equal_levels(self, tmp_path):
        # s = 0: every level is the closed form sqrt(nu) / T, so no ratio
        argv = PDE + ["--alpha", "0.4", "--sigma", "0.25",
                "--nu", "0.03", "--t", "1", "--tenor", "1"]
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["grid_report"]["kappas"] == [math.sqrt(0.03)] * 3
        assert doc["grid_report"]["ratios"] == [None]

    def test_pde_growth_overflow_is_usage_error(self, tmp_path, capsys):
        # s = alpha^2 tau = 800: e^s - 1 is beyond the float range
        argv = PDE + SEED_POINT
        argv[argv.index("--alpha") + 1] = "40"
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE
        assert "e^s - 1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("read", [lambda doc: [doc["kappa"]],
                                      lambda doc: doc["grid_report"]["kappas"]],
                             ids=["single", "refine"])
    def test_pde_default_grid_prices_s_0_8(self, tmp_path, read):
        # the y grid refused every s from 0.734 on, exit 3.  This contract
        # is the reference lattice's (s, zeta) = (0.8, 40): F 8.579934851750563
        # times sqrt(nu) / T; kappa and every level of the refinement lie
        # within PDE_TOL = 2e-5 of it
        argv = PDE + ["--alpha", "1", "--sigma", "1", "--nu", "0.0125",
                "--t", "0.2", "--tenor", "1"]
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        for kappa in read(doc):
            assert abs(kappa - 0.959265878551692) <= 2e-5 * 0.959265878551692

    @pytest.mark.parametrize("level", [0, 1], ids=["400", "800"])
    def test_pde_at_s_4_prices_the_spectral_value(self, tmp_path, level):
        # s = 4, zeta = 1: a y grid to 23.3 priced 4.1367 and 3.9722 on
        # 400 and 800 cells, or refused them; the spectral form read 3.87837.
        # The ids name those grids; the levels are the x grid's 100 and 200
        # cells, 1.5e-6 and 4.8e-7 from it
        argv = PDE + ["--alpha", "2", "--sigma", "2.8284271247",
                "--nu", "1", "--t", "0", "--tenor", "1"]
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        kappa = doc["grid_report"]["kappas"][level]
        assert abs(kappa - 3.87837) <= 1e-5 * 3.87837

    def test_pde_past_s_pde_max_is_refused(self, tmp_path, capsys):
        # s = 200: the x grid's rules priced F(200, 1) at -552
        argv = PDE + SEED_POINT
        argv[argv.index("--alpha") + 1] = "20"
        code, err = exit_code(argv + ["--output", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_DIVERGING
        assert err == ("volswap: s = alpha^2 tau = 200 is past S_PDE_MAX = 8, "
                       "where the PDE grid is not validated\n")
        assert not (tmp_path / "out").exists()

    def test_mc_s_beyond_float_range_is_usage_error(self, tmp_path, capsys):
        # s = alpha^2 tau = 800: refused by the rule the PDE applies
        argv = MC + SEED_POINT + ["--paths", "1000", "--steps", "10",
                                                "--seed", "1"]
        argv[argv.index("--alpha") + 1] = "40"
        code, err = exit_code(argv + ["--output", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE
        assert "s = alpha^2 tau = 800.0: e^s - 1 is not finite" in err

    @pytest.mark.parametrize("alpha, sigma, paths",
                             [("0.4", "1e200", "200"), ("0.4", "7e153", "40000"),
                              ("1", "1e154", "200")],
                             ids=["mean", "std_error", "finite_sigma2_tau"])
    def test_mc_estimate_beyond_float_range_is_usage_error(self, capsys, alpha,
                                                           sigma, paths):
        # these wrote "kappa": Infinity or "std_error": Infinity, exit 0;
        # at alpha 1 and sigma^2 tau = 5e307 a pair's payoff overflows
        argv = MC + SEED_POINT + ["--paths", paths, "--steps", "5",
                                                "--seed", "3"]
        argv[argv.index("--alpha") + 1] = alpha
        argv[argv.index("--sigma") + 1] = sigma
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].startswith("volswap: sigma^2 tau = ")

    def test_pde_ratio_of_equal_levels_is_null(self, tmp_path):
        # the three levels agree bit for bit: this wrote "ratios": [Infinity].
        # At zeta = 3e-14, kappa - sqrt(nu) is 2.7e-14 and the levels differ
        # by 1e-4 of it, far below half an ulp of kappa
        argv = PDE + SEED_POINT
        argv[argv.index("--sigma") + 1] = "0.000001"
        argv[argv.index("--nu") + 1] = "100"
        code, doc = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK
        assert len(set(doc["grid_report"]["kappas"])) == 1
        assert doc["grid_report"]["ratios"] == [None]

    @pytest.mark.parametrize("extra, message", [
        (["--steps", "100000000"], "100000 paths on 100000000 steps"),
        (["--paths", "100000000000"], "100000000000 paths on 250 steps")],
        ids=["steps-1e8", "paths-1e11"])
    def test_mc_past_the_size_cap_is_usage_error(self, tmp_path, capsys,
                                                 monkeypatch, extra, message):
        # refused from the inputs, before any draw or buffer
        def estimate(*args):
            raise AssertionError("an estimate past MAX_PATH_STEPS was run")

        monkeypatch.setattr(mc_engine, "kappa_mc", estimate)
        argv = MC + SEED_POINT + ["--seed", "1"] + extra
        code, err = exit_code(argv + ["--output", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE
        assert err == (f"volswap: {message} is more than "
                       f"MAX_PATH_STEPS = 1073741824 path steps\n")
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # numpy's message for --steps 100000000; this was a traceback, exit 1
        def allocate(*args):
            raise MemoryError("Unable to allocate 381. GiB for an array with "
                              "shape (2, 256, 100000000) and data type float64")

        monkeypatch.setattr(mc_engine, "kappa_mc", allocate)
        argv = MC + SEED_POINT + ["--seed", "1",
                                                "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == ("volswap: out of memory: Unable to allocate 381. GiB for "
                       "an array with shape (2, 256, 100000000) and data type "
                       "float64\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("nu, t, series_code, kappa", [
        ("6.25e-5", "0.001", cli.EXIT_DIVERGING, "0.2532949370900119"),
        ("0", "0", cli.EXIT_USAGE, "0.25329494747247877")],
        ids=["known-defect-4", "inception"])
    def test_pde_prices_what_the_series_refuses(self, tmp_path, nu, t,
                                                series_code, kappa):
        # the series finds no finite term at zeta = 3125 and has no zeta at
        # nu = 0; the PDE engine of the same command prices both
        point = ["--alpha", "0.4", "--sigma", "0.25", "--nu", nu, "--t", t,
                 "--tenor", "1"]
        assert cli.main(["price"] + point + ["--output", str(tmp_path / "s")]) == series_code
        code, doc = run(tmp_path, PDE + point, "price.schema.json")
        assert code == cli.EXIT_OK
        assert (repr(doc["kappa"]), doc["fair_value"]) == (kappa, doc["kappa"])

    def test_pde_closed_form_overflow_names_t(self, tmp_path, capsys):
        # s = 1.6e-311 is below 2^-24: sqrt(nu + sigma^2 tau) = 0.25 is
        # finite, its division by T = 1e-310 is not
        argv = PDE + ["--alpha", "0.4", "--sigma", "0.25", "--nu", "0.03",
                      "--t", "0", "--tenor", "1e-310"]
        code, err = exit_code(argv + ["--output", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE
        assert err == ("volswap: sqrt(nu + sigma^2 tau)/T is not finite at "
                       "sigma 0.25, T 1e-310\n")

    def test_mc_fills_in_its_defaults(self, tmp_path):
        code, text = run(tmp_path, MC + SEED_POINT + ["--seed", "1"])
        document, manifest = recorded(text)
        assert (code, document["n_paths"]) == (cli.EXIT_OK, 100_000)
        assert (manifest["parameters"]["paths"], manifest["parameters"]["steps"],
                manifest["seed"]) == (100_000, 250, 1)

    def test_pde_nu_zero(self, tmp_path):
        argv = PDE + ["--alpha", "0.4", "--sigma", "0.25",
                "--nu", "0", "--t", "0", "--tenor", "0.5"]
        code, _ = run(tmp_path, argv, "price.schema.json")
        assert code == cli.EXIT_OK


class TestCompare:
    def test_numeric_cells_parse_as_floats(self, tmp_path):
        code, doc = run(tmp_path, [
            "compare", "--alphas", "0.3", "--taus", "0.5", "--zetas", "1",
            "--nu", "0.04", "--seed", "3", "--paths", "2000", "--steps", "50"],
            "compare.schema.json")
        assert code in (cli.EXIT_OK, cli.EXIT_COMPARE_FAILED)
        assert doc["all_passed"] == (code == cli.EXIT_OK)
        [row] = doc["rows"]
        for name, value in row.items():
            kind = {"regime": str, "mc_n_steps": int}.get(name, float)
            assert isinstance(value, kind), name
        # the step ladder stops below its cap of 50 at s = 0.15
        assert row["mc_n_steps"] == 16

    def test_tau_equal_to_tenor_stays_in_the_accrual_window(self, tmp_path):
        # tau = tenor values the row at t = tenor - tau = 0, the accrual start
        code, doc = run(tmp_path, [
            "compare", "--alphas", "0.3", "--taus", "0.6", "--zetas", "1",
            "--nu", "0.04", "--tenor", "0.6", "--seed", "1",
            "--paths", "512", "--steps", "8"], "compare.schema.json")
        assert code in (cli.EXIT_OK, cli.EXIT_COMPARE_FAILED)
        assert [row["tau"] for row in doc["rows"]] == [0.6]

    def test_rows_sharing_s_share_one_march(self, tmp_path, marches):
        code, doc = run(tmp_path, [
            "compare", "--alphas", "0.4", "--taus", "0.5",
            "--zetas", "0.5,1,2", "--nu", "0.04", "--seed", "1",
            "--paths", "512", "--steps", "16"], "compare.schema.json")
        assert code in (cli.EXIT_OK, cli.EXIT_COMPARE_FAILED)
        assert [row["zeta"] for row in doc["rows"]] == [0.5, 1.0, 2.0]
        assert len(marches) == 1

    def test_pde_refusal_empties_one_cell(self, tmp_path, capsys):
        # the PDE refuses s = alpha^2 tau = 12.8 > S_PDE_MAX only
        code, doc = run(tmp_path, [
            "compare", "--alphas", "0.4,4", "--taus", "0.5,0.8", "--zetas", "1",
            "--nu", "0.03", "--paths", "1000", "--steps", "10", "--seed", "1"],
            "compare.schema.json")
        assert code == cli.EXIT_OK
        assert doc["all_passed"]
        assert ([row["kappa_pde"] is None for row in doc["rows"]]
                == [False, False, False, True])
        assert "no kappa_pde at alpha 4.0, tau 0.8, zeta 1.0" in capsys.readouterr().err

    def test_series_refusal_empties_its_cells(self, tmp_path, capsys):
        # zeta = 3125: 1F1's e^zeta overflows every series term.  The series'
        # refusal dropped the whole sweep with exit 3; now the row keeps MC
        # and the PDE, which agree
        code, doc = run(tmp_path, [
            "compare", "--alphas", "0.4", "--taus", "0.999", "--zetas", "1,3125",
            "--nu", "6.25e-5", "--paths", "1000", "--steps", "10", "--seed", "1"],
            "compare.schema.json")
        assert code == cli.EXIT_OK
        assert doc["all_passed"]
        first, second = doc["rows"]
        assert first["kappa_series"] is not None and first["regime"] is not None
        assert (second["kappa_series"], second["regime"],
                second["abs_diff_mc_sigmas"]) == (None, None, None)
        assert second["kappa_pde"] == 0.2532949370900119
        assert abs(second["kappa_mc"] - second["kappa_pde"]) <= 3.0 * second["mc_se"]
        assert capsys.readouterr().err == (
            "volswap: no kappa_series at alpha 0.4, tau 0.999, zeta 3125.0: "
            "series produced no finite terms\n")

    def test_at_maturity_every_engine_agrees(self, tmp_path):
        # the series was 1 ulp off sqrt(nu)/T where the MC standard error is 0
        code, doc = run(tmp_path, [
            "compare", "--alphas", "0.4", "--taus", "0", "--zetas", "1,39",
            "--nu", "0.03", "--paths", "1000", "--steps", "10", "--seed", "1"],
            "compare.schema.json")
        assert code == cli.EXIT_OK
        assert len(doc["rows"]) == 2
        for row in doc["rows"]:
            assert (row["kappa_series"] == row["kappa_mc"] == row["kappa_pde"]
                    == math.sqrt(0.03))
            assert row["abs_diff_mc_sigmas"] == 0.0

    def test_nu_zero_is_usage_error(self, tmp_path, capsys):
        argv = ["compare", "--alphas", "0.4", "--taus", "0.5", "--zetas", "1",
                "--nu", "0", "--seed", "1", "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "compare requires nu > 0" in err
        assert not (tmp_path / "out").exists()

    def test_convergent_series_far_from_mc_fails(self, tmp_path, monkeypatch):
        # a convergent series value 1.0 off the MC mean, on one row of two
        real = series_pricer.kappa_series

        def far_on_first_row(state, params, contract):
            kappa, diag = real(state, params, contract)
            if params.alpha != 0.4:
                return kappa, diag
            return kappa + 1.0, dataclasses.replace(
                diag, regime=series_pricer.REGIME_CONVERGENT)

        monkeypatch.setattr(series_pricer, "kappa_series", far_on_first_row)
        code, doc = run(tmp_path, [
            "compare", "--alphas", "0.4,0.3", "--taus", "0.5", "--zetas", "1",
            "--nu", "0.04", "--seed", "1", "--paths", "512", "--steps", "8"],
            "compare.schema.json")
        assert code == cli.EXIT_COMPARE_FAILED == 4
        assert not doc["all_passed"]
        sigmas = [row["abs_diff_mc_sigmas"] for row in doc["rows"]]
        assert sigmas[0] > 1e3 and sigmas[1] < cli._COMPARE_SIGMAS

    def test_convergent_series_off_an_exact_mc_mean_fails(self, tmp_path,
                                                           monkeypatch):
        # a zero standard error under a nonzero difference is no finite count
        # of standard errors: this built Infinity into the row
        monkeypatch.setattr(mc_engine, "kappa_mc", lambda state, params, contract,
                            config: mc_engine.McEstimate(0.25, 0.0, config.n_paths,
                                                         0.0625, 0.0, 16, 0.0,
                                                         0.0625, 0.0, ()))
        code, doc = run(tmp_path, [
            "compare", "--alphas", "0.3", "--taus", "0.5", "--zetas", "1",
            "--nu", "0.04", "--seed", "1", "--paths", "512", "--steps", "8"],
            "compare.schema.json")
        assert code == cli.EXIT_COMPARE_FAILED
        [row] = doc["rows"]
        assert row["regime"] == series_pricer.REGIME_CONVERGENT
        assert (row["kappa_mc"], row["mc_se"]) == (0.25, 0.0)
        assert row["kappa_series"] != 0.25
        assert row["abs_diff_mc_sigmas"] is None
        assert doc["all_passed"] is False

    @pytest.mark.parametrize("alphas,zetas", [("0.4,-1", "1"), ("0.4", "1,-1"),
                                              ("0.4", "1,inf")],
                             ids=["alpha", "zeta", "sigma"])
    def test_bad_point_is_refused_before_any_pricing(self, tmp_path, capsys,
                                                     monkeypatch, alphas, zetas):
        calls = []
        monkeypatch.setattr(mc_engine, "kappa_mc",
                            lambda *args: calls.append(args))
        argv = ["compare", "--alphas", alphas, "--taus", "0.5", "--zetas", zetas,
                "--nu", "0.03", "--seed", "1", "--output", str(tmp_path / "out")]
        code, _ = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert calls == []

    def test_s_past_float_range_is_refused_before_any_pricing(self, tmp_path,
                                                              capsys, monkeypatch):
        # s = 40^2 * 0.5 = 800 > S_MAX: the alpha 0.4 row must not be priced first
        calls = []
        original = mc_engine.kappa_mc
        monkeypatch.setattr(mc_engine, "kappa_mc",
                            lambda *args: calls.append(args) or original(*args))
        argv = ["compare", "--alphas", "0.4,40", "--taus", "0.5", "--zetas", "1",
                "--nu", "0.03", "--paths", "1000", "--steps", "10", "--seed", "1",
                "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert (code, calls) == (cli.EXIT_USAGE, [])
        assert err.splitlines() == [
            "volswap: s = alpha^2 tau = 800.0: e^s - 1 is not finite"]
        assert not (tmp_path / "out").exists()

    def test_odd_paths_is_refused_before_any_pricing(self, tmp_path, capsys,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(series_pricer, "kappa_series",
                            lambda *args: calls.append(args))
        argv = ["compare", "--alphas", "0.4", "--taus", "0.5", "--zetas", "1",
                "--nu", "0.03", "--seed", "1", "--paths", "999",
                "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "n_paths must be even" in err
        assert calls == []


class TestVerify:
    def test_terminal_passes(self, tmp_path):
        code, doc = run(tmp_path, ["verify"], "verify.schema.json")
        assert code == cli.EXIT_OK
        terminal = [r for r in doc["reports"] if r["check"] == "terminal"]
        assert len(terminal) == verify.TERMINAL_S_MAX + 1 == 61
        assert [r["value"] for r in terminal] == ["1"] + ["0"] * 60
        assert all(r["passed"] for r in terminal)

    def test_every_check_passes(self, tmp_path):
        code, doc = run(tmp_path, ["verify"], "verify.schema.json")
        assert code == cli.EXIT_OK
        assert doc["all_passed"]
        assert {r["check"] for r in doc["reports"]} == {
            "terminal", "bessel", "j0", "kummer", "psi-pde", "functional",
            "functional-fd"}

    @pytest.mark.parametrize("argv", [["verify"]], ids=["default"])
    def test_golden_reports(self, tmp_path, argv):
        # the one configuration: 20 modes and the terminal identity to s = 60,
        # which the removed --check, --n-terms and --s-max cannot narrow
        code, doc = run(tmp_path, argv, "verify.schema.json")
        assert code == cli.EXIT_OK
        assert len(doc["reports"]) == 191
        assert doc["manifest"]["parameters"] == {}
        canonical = json.dumps(doc["reports"], sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == (
            "3957070ca58743efe6f218280ea8fdc4fbf3beff5d09573c9c306f48011b69a6")

    def test_harmonicity_pass_runs_once(self, tmp_path, monkeypatch):
        # 3 per-mode grids of n + 1 modes each, one per zeta, then one
        # n-mode pass that the summed and the finite-difference reports share
        calls = []
        pieces = verify.functional_term_pieces
        monkeypatch.setattr(verify, "functional_term_pieces",
                            lambda *point: calls.append(point) or pieces(*point))
        code, doc = run(tmp_path, ["verify"], "verify.schema.json")
        assert code == cli.EXIT_OK
        assert [r["check"] for r in doc["reports"][-3:]] == [
            "functional", "functional-fd", "functional-fd"]
        assert len(calls) == 3 * (verify.N_TERMS + 1) + verify.N_TERMS == 83

    def test_failed_check_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "check_terminal_identity",
                            lambda s: Fraction(1))
        code, doc = run(tmp_path, ["verify"], "verify.schema.json")
        assert code == cli.EXIT_VERIFY_FAILED == 1
        assert not doc["all_passed"]


COMMANDS = {
    "price": ["price"] + CONVERGENT_POINT,
    "oracle-mc": MC + SEED_POINT + ["--seed", "1", "--paths", "100", "--steps", "5"],
    "oracle-pde": PDE + SEED_POINT,
    "compare": ["compare", "--alphas", "0.4", "--taus", "0.5", "--zetas", "1",
                "--nu", "0.03", "--seed", "1", "--paths", "100", "--steps", "5"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_duration_ignores_wall_clock_steps(tmp_path, monkeypatch, argv):
    # the wall clock steps back an hour at every reading
    clock = itertools.count(1e9, -3600.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    _, text = run(tmp_path, argv)
    assert 0.0 <= json.loads(text)["manifest"]["duration_s"] < 60.0


@pytest.mark.parametrize("name", COMMANDS)
def test_document_matches_its_schema(tmp_path, name):
    # every command's document, compare's included, against its own schema;
    # price's under each engine
    run(tmp_path, COMMANDS[name], COMMANDS[name][0] + ".schema.json")


def strict_json(text):
    """json.loads refusing NaN and Infinity, which JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def recorded(text):
    """(document, manifest) of a command's output, both parsed strictly."""
    document = strict_json(text)
    return document, document.pop("manifest")


def replay_argv(manifest):
    """The argv a manifest records: its command words, each parameter as a
    flag (null skipped, a list comma-joined, a float by repr), then the
    seed."""
    argv = manifest["command"].split()
    for dest, value in manifest["parameters"].items():
        name = "--" + dest.replace("_", "-")
        if isinstance(value, list):
            argv += [name, ",".join(map(repr, value))]
        elif value is not None:
            argv += [name, repr(value) if isinstance(value, float) else str(value)]
    if manifest["seed"] is not None:
        argv += ["--seed", str(manifest["seed"])]
    return argv


@pytest.mark.parametrize("argv", [
    ["price"] + CONVERGENT_POINT + ["--rate", "0.05"],
    ["price"] + CONVERGENT_POINT + ["--discount-factor", "0.97"],
    MC + SEED_POINT + ["--seed", "7", "--paths", "2000", "--steps", "10"],
    PDE + SEED_POINT,
    ["compare", "--alphas", "0.4,1", "--taus", "0.5,0.8", "--zetas", "1",
     "--nu", "0.03", "--paths", "1000", "--steps", "10", "--seed", "1"],
    ["verify"],
    MC + SEED_POINT + ["--seed", "3"],
], ids=["price", "price-discount-factor", "oracle-mc",
        "oracle-pde-refine", "compare", "verify", "mc-defaults"])
def test_manifest_replays_the_run(tmp_path, argv):
    code, text = run(tmp_path, argv)
    document, manifest = recorded(text)
    again_code, again_text = run(tmp_path, replay_argv(manifest))
    again_document, again_manifest = recorded(again_text)
    assert again_code == code
    assert again_document == document
    assert ({**again_manifest, "duration_s": None}
            == {**manifest, "duration_s": None})


@pytest.mark.parametrize("argv,flag", [
    (["price"] + SEED_POINT[2:], "--alpha"),
    (["price"] + SEED_POINT + ["--rate", "0.05", "--discount-factor", "0.9"],
     "--discount-factor"),
    (["price"] + SEED_POINT + ["--annualization", "market"], "--annualization"),
    (["verify", "--check", "terminal"], "--check"),
    (["compare", "--alphas", "0.3,x", "--taus", "0.5", "--zetas", "1",
      "--nu", "0.04", "--seed", "1"], "--alphas"),
    (["compare", "--alphas", ",", "--taus", "0.5", "--zetas", "1",
      "--nu", "0.04", "--seed", "1"], "--alphas"),
    (["price"] + SEED_POINT + ["--max-terms", "5"], "--max-terms"),
    (["price"] + SEED_POINT + ["--rel-tol", "1e-8"], "--rel-tol"),
    (PDE + SEED_POINT + ["--quad-tol", "1e-4"], "--quad-tol"),
    (PDE + SEED_POINT + ["--refine", "-2"], "--refine"),
    (PDE + SEED_POINT + ["--n-y", "1000000000"], "--n-y"),
    (PDE + SEED_POINT + ["--n-t", "400"], "--n-t"),
    (PDE + SEED_POINT + ["--y-max", "20"], "--y-max"),
    (["oracle", "pde"] + SEED_POINT, "invalid choice: 'oracle'"),
    (["oracle", "mc"] + SEED_POINT + ["--seed", "1"], "invalid choice: 'oracle'"),
    (PDE + SEED_POINT + ["--paths", "1000"], "--paths"),
    (["price"] + SEED_POINT + ["--seed", "1"], "--seed"),
    (["price"] + SEED_POINT + ["--steps", "10"], "--steps"),
    (MC + SEED_POINT + ["--paths", "1000"], "--seed"),
    (["verify", "--n-terms", "12"], "--n-terms"),
    (["verify", "--s-max", "60"], "--s-max"),
    (["price"] + SEED_POINT + ["--config", "x.cfg"], "--config"),
    (["compare", "--alphas", "0.4", "--taus", "0.5", "--zetas", "1",
      "--nu", "0.04", "--t0", "0.3", "--seed", "1"], "--t0"),
], ids=["missing", "exclusive", "annualization", "check", "float-list",
        "empty-list", "max-terms", "rel-tol", "quad-tol", "negative-refine",
        "n-y-1e9", "n-t", "y-max", "oracle-pde", "oracle-mc", "pde-paths",
        "series-seed", "series-steps", "mc-without-seed", "n-terms", "s-max", "config", "compare-t0"])
def test_flag_errors_are_usage_errors(tmp_path, capsys, argv, flag):
    code, err = exit_code(argv + ["--output", str(tmp_path / "out")], capsys)
    assert code == cli.EXIT_USAGE
    assert flag in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", COMMANDS)
def test_parameters_are_the_commands_flags(tmp_path, name):
    # every flag by dest but output and seed, and none of argparse's own
    command = cli.build_parser()
    for word in itertools.takewhile(lambda arg: not arg.startswith("--"),
                                    COMMANDS[name]):
        command = command._subparsers._group_actions[0].choices[word]
    dests = {a.dest for a in command._actions if a.option_strings} - {"help"}
    _, text = run(tmp_path, COMMANDS[name])
    _, manifest = recorded(text)
    assert "config" not in dests
    assert set(manifest["parameters"]) == dests - {"output", "seed"}


@pytest.mark.parametrize("name", ["price", "verify"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, name):
    # this was a FileNotFoundError traceback and exit 1, "verification failed"
    out = tmp_path / "missing" / "out.json"
    code, err = exit_code(COMMANDS[name] + ["--output", str(out)], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"volswap: cannot write {out}: ")
    assert not out.parent.exists()


def test_mc_at_s_700(tmp_path, capsys):
    # s = alpha^2 tau = 700, near S_MAX, where e^(-v) nears the float minimum
    argv = MC + SEED_POINT + ["--paths", "2000", "--steps", "250",
                                            "--seed", "1"]
    argv[argv.index("--alpha") + 1] = "37.416573867739416"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = exit_code(argv + ["--output", str(tmp_path / "out")], capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    document = strict_json((tmp_path / "out").read_text())
    assert math.isfinite(document["kappa"])
    # every level misses the tail: the cap's estimate, flagged
    assert document["n_steps"] == 250 and "MC_TAIL" in document["warnings"]


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def float_list(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=2).map(
        lambda values: ",".join(map(repr, values)))


@st.composite
def accrual(draw, names):
    """t0, the tenor and a valuation time inside the accrual window."""
    t0, tenor, at = draw(st.floats(0, 1)), draw(st.floats(1e-3, 2)), draw(st.floats(0, 1))
    return dict(zip(names, map(repr, (t0, tenor, t0 + at * tenor))))


MARKET = [accrual(("--t0", "--tenor", "--t")), st.fixed_dictionaries({
    "--alpha": floats(1e-3, 2), "--sigma": floats(1e-3, 2), "--nu": floats(0, 0.1)})]
SIMULATION = st.fixed_dictionaries({
    "--seed": st.integers(0, 2 ** 128 - 1).map(str),
    "--paths": st.integers(2, 32).map(lambda pairs: str(2 * pairs)),
    "--steps": st.integers(1, 40).map(str)})
#: each command's words and its flags, each drawn inside its domain: small
#: sizes, and one flag of an exclusive pair
#: an engine, with SIMULATION for mc and, half the time, for another engine,
#: which refuses it
ENGINE = st.sampled_from(["series", "pde", "mc"]).flatmap(
    lambda engine: st.tuples(
        st.just({"--engine": engine}),
        SIMULATION if engine == "mc" else st.one_of(st.just({}), SIMULATION))
).map(lambda pair: {**pair[0], **pair[1]})
COMMAND_FLAGS = [
    (["price"], MARKET + [ENGINE, st.fixed_dictionaries({
        "--strike": floats(0, 1), "--notional": floats(0, 10)}),
        st.sampled_from(["--rate", "--discount-factor"]).flatmap(
            lambda flag: st.fixed_dictionaries({flag: floats(0.5, 1)}))]),
    (["compare"], [SIMULATION, st.fixed_dictionaries({
        "--alphas": float_list(1e-3, 2), "--taus": float_list(0, 1),
        "--zetas": float_list(1e-3, 50), "--nu": floats(1e-4, 0.1)})]),
    (["verify"], []),
]
#: what a flag's value may turn into: any float, an integer past every size
#: bound, huge or negative, a junk string, or None, which leaves it out
WILD = st.one_of(st.floats().map(repr), st.integers(2 ** 31, 2 ** 80).map(str),
                 st.integers(max_value=-1).map(str),
                 st.text(alphabet="0123456789.,+-eEx ", max_size=6), st.none())


@st.composite
def fuzzed_argv(draw):
    """A command's words and its flags, each written --flag=value or
    --flag value; up to two flags take a WILD value."""
    words, groups = draw(st.sampled_from(COMMAND_FLAGS))
    values = {}
    for group in groups:
        values.update(draw(group))
    for _ in range(draw(st.integers(0, 2)) if values else 0):
        values[draw(st.sampled_from(sorted(values)))] = draw(WILD)
    argv = list(words)
    for flag, value in values.items():
        if value is not None:
            argv += [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=fuzzed_argv())
def test_no_argv_ends_in_a_traceback(argv):
    # every command on drawn flags: exit 0, 2, 3 or 4 with a document that
    # matches its schema, or a refusal said in one volswap: line; argparse's
    # own usage errors end in SystemExit(2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == cli.EXIT_USAGE
                return
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DIVERGING,
                    cli.EXIT_COMPARE_FAILED)
    # no WILD value is "mc", and a WILD --engine ends in SystemExit above
    mc_flag = any(word.split("=")[0] in ("--seed", "--paths", "--steps")
                  for word in argv)
    if argv[0] == "price" and mc_flag and not {"mc", "--engine=mc"} & set(argv):
        assert code == cli.EXIT_USAGE
    # compare says on stderr which engine gave a row no value
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith("volswap: no kappa_")]
    if out.getvalue():
        checked(out.getvalue(), argv[0] + ".schema.json")
        assert lines == []
    else:
        assert code in (cli.EXIT_USAGE, cli.EXIT_DIVERGING)
        assert len(lines) == 1 and lines[0].startswith("volswap: "), lines
