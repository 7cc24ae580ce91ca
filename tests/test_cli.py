"""The command-line interface: exit codes and output documents against docs/schemas."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from volswap import cli, verify

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


def exit_code(argv, capsys):
    """(exit code of cli.main on argv, whether returned or raised, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def run(tmp_path, argv, schema=None):
    """cli.main on argv with --output; returns (exit code, parsed document)."""
    out = tmp_path / "out"
    code = cli.main(argv + ["--output", str(out)])
    if schema is None:
        return code, out.read_text(encoding="utf-8")
    document = json.loads(out.read_text(encoding="utf-8"))
    validator = Draft7Validator(SCHEMAS[schema], registry=REGISTRY)
    errors = [e.message for e in validator.iter_errors(document)]
    assert errors == []
    return code, document


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

    def test_discount_overflow_is_usage_error(self, tmp_path, capsys):
        argv = ["price"] + CONVERGENT_POINT + ["--rate", "-2000"]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["-0.5", "1.5"])
    def test_outside_accrual_window_is_usage_error(self, tmp_path, t):
        argv = ["price"] + SEED_POINT
        argv[argv.index("--t") + 1] = t
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE

    def test_market_annualization(self, tmp_path):
        code, doc = run(tmp_path, ["price"] + CONVERGENT_POINT
                        + ["--annualization", "market"], "price.schema.json")
        assert code == cli.EXIT_OK
        assert doc["kappa_market"] == doc["kappa"]   # tenor 1


class TestOracle:
    def test_mc(self, tmp_path):
        code, doc = run(tmp_path, ["oracle", "mc"] + SEED_POINT
                        + ["--seed", "7", "--paths", "2000", "--steps", "50"],
                        "oracle_mc.schema.json")
        assert code == cli.EXIT_OK
        assert doc["n_paths"] == 2000

    def test_mc_nu_zero(self, tmp_path):
        argv = ["oracle", "mc", "--alpha", "0.4", "--sigma", "0.25",
                "--nu", "0", "--t", "0", "--tenor", "0.5",
                "--paths", "1000", "--steps", "10", "--seed", "1"]
        code, doc = run(tmp_path, argv, "oracle_mc.schema.json")
        assert code == cli.EXIT_OK
        assert doc["kappa"] > 0 and doc["std_error"] > 0

    def test_mc_single_antithetic_pair_is_usage_error(self, tmp_path):
        argv = ["oracle", "mc"] + SEED_POINT + ["--seed", "7", "--paths", "2",
                                                "--antithetic"]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    def test_mc_seed_outside_philox_key_is_usage_error(self, tmp_path, seed):
        argv = ["oracle", "mc"] + SEED_POINT + ["--seed", seed, "--paths", "100"]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("extra", [[], ["--refine", "1"]],
                             ids=["single", "refine"])
    def test_pde(self, tmp_path, extra):
        code, doc = run(tmp_path, ["oracle", "pde"] + SEED_POINT + extra,
                        "oracle_pde.schema.json")
        assert code == cli.EXIT_OK
        assert ("grid_report" in doc) == bool(extra)

    def test_pde_duration_counts_the_engine_import(self, tmp_path):
        # a fresh interpreter pays the engine import inside oracle pde, and
        # -X importtime reports that import's cumulative time in microseconds
        out = tmp_path / "out"
        argv = ["-X", "importtime", "-m", "volswap", "oracle", "pde"] + SEED_POINT
        proc = subprocess.run([sys.executable] + argv + ["--output", str(out)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        import_us = [int(line.split("|")[1]) for line in proc.stderr.splitlines()
                     if line.split("|")[-1].strip() == "volswap.pde_engine"]
        assert len(import_us) == 1
        duration_s = json.loads(out.read_text(encoding="utf-8"))["manifest"]["duration_s"]
        assert duration_s >= import_us[0] / 1e6

    def test_pde_refine_at_maturity_is_usage_error(self, tmp_path):
        argv = ["oracle", "pde", "--alpha", "0.4", "--sigma", "0.25",
                "--nu", "0.03", "--t", "1", "--tenor", "1", "--refine", "1"]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("extra", [[], ["--refine", "1"]],
                             ids=["single", "refine"])
    def test_pde_growth_overflow_is_usage_error(self, tmp_path, extra, capsys):
        # s = alpha^2 tau = 800: e^s - 1 is beyond the float range
        argv = ["oracle", "pde"] + SEED_POINT + extra
        argv[argv.index("--alpha") + 1] = "40"
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == cli.EXIT_USAGE
        assert "e^s - 1 is not finite" in capsys.readouterr().err

    def test_pde_nu_zero(self, tmp_path):
        argv = ["oracle", "pde", "--alpha", "0.4", "--sigma", "0.25",
                "--nu", "0", "--t", "0", "--tenor", "0.5"]
        code, _ = run(tmp_path, argv, "oracle_pde.schema.json")
        assert code == cli.EXIT_OK


class TestCompare:
    def test_numeric_cells_parse_as_floats(self, tmp_path):
        code, text = run(tmp_path, [
            "compare", "--alphas", "0.3", "--taus", "0.5", "--zetas", "1",
            "--nu", "0.04", "--seed", "3", "--paths", "2000", "--steps", "50"])
        assert code in (cli.EXIT_OK, cli.EXIT_COMPARE_FAILED)
        header, *rows, manifest = list(csv.reader(text.splitlines()))
        assert manifest[0] == "#manifest"
        assert len(rows) == 1
        for name, cell in zip(header, rows[0]):
            if name != "regime":
                float(cell)

    def test_tau_equal_to_tenor_stays_in_the_accrual_window(self, tmp_path):
        # (0.3 + 0.6) - 0.6 rounds below t0 = 0.3
        code, text = run(tmp_path, [
            "compare", "--alphas", "0.3", "--taus", "0.6", "--zetas", "1",
            "--nu", "0.04", "--t0", "0.3", "--tenor", "0.6", "--seed", "1",
            "--paths", "512", "--steps", "8"])
        assert code in (cli.EXIT_OK, cli.EXIT_COMPARE_FAILED)
        assert len(list(csv.reader(text.splitlines()))) == 3

    def test_rows_sharing_s_share_one_march(self, tmp_path, marches):
        code, text = run(tmp_path, [
            "compare", "--alphas", "0.4", "--taus", "0.5",
            "--zetas", "0.5,1,2", "--nu", "0.04", "--seed", "1",
            "--paths", "512", "--steps", "16"])
        assert code in (cli.EXIT_OK, cli.EXIT_COMPARE_FAILED)
        assert len(list(csv.reader(text.splitlines()))) == 5   # header, 3 rows, manifest
        assert len(marches) == 1


class TestVerify:
    def test_terminal_passes(self, tmp_path):
        code, doc = run(tmp_path, ["verify", "--check", "terminal",
                                   "--s-max", "5"], "verify.schema.json")
        assert code == cli.EXIT_OK
        assert doc["all_passed"]

    def test_every_check_passes(self, tmp_path):
        code, doc = run(tmp_path, ["verify"], "verify.schema.json")
        assert code == cli.EXIT_OK
        assert doc["all_passed"]
        assert {r["check"] for r in doc["reports"]} == {
            "terminal", "bessel", "j0", "kummer", "psi-pde", "functional",
            "functional-fd"}

    @pytest.mark.parametrize("extra,code,count,digest", [
        ([], cli.EXIT_OK, 240,
         "cda6454aa0d33eec651b0c93c31301c63c4b4e09c5db137d30ebcad702903100"),
        (["--n-terms", "12", "--s-max", "60"], cli.EXIT_OK, 284,
         "8ae5c9d3d40354a32b12bf6dc2b5e6eab6dc4a9fc7a981b961376d7675b56cb2"),
    ], ids=["default", "n-terms-12"])
    def test_golden_reports(self, tmp_path, extra, code, count, digest):
        got, doc = run(tmp_path, ["verify"] + extra, "verify.schema.json")
        assert got == code
        assert len(doc["reports"]) == count
        canonical = json.dumps(doc["reports"], sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n_terms", ["0", "-3"])
    def test_functional_checks_need_a_term(self, tmp_path, capsys, n_terms):
        # no term: every harmonicity sum is 0, which would pass vacuously
        argv = ["verify", "--check", "functional", "--n-terms", n_terms,
                "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "n_terms must be >= 1" in err

    def test_failed_check_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "check_terminal_identity",
                            lambda s: Fraction(1))
        code, doc = run(tmp_path, ["verify", "--check", "terminal",
                                   "--s-max", "2"], "verify.schema.json")
        assert code == cli.EXIT_VERIFY_FAILED == 1
        assert not doc["all_passed"]


@pytest.mark.parametrize("argv,flag", [
    (["price"] + SEED_POINT[2:], "--alpha"),
    (["price"] + SEED_POINT + ["--rate", "0.05", "--discount-factor", "0.9"],
     "--discount-factor"),
    (["price"] + SEED_POINT + ["--annualization", "annual"], "--annualization"),
    (["verify", "--check", "bogus"], "--check"),
    (["compare", "--alphas", "0.3,x", "--taus", "0.5", "--zetas", "1",
      "--nu", "0.04", "--seed", "1"], "--alphas"),
    (["compare", "--alphas", ",", "--taus", "0.5", "--zetas", "1",
      "--nu", "0.04", "--seed", "1"], "--alphas"),
], ids=["missing", "exclusive", "annualization", "check", "float-list",
        "empty-list"])
def test_flag_errors_are_usage_errors(tmp_path, capsys, argv, flag):
    code, err = exit_code(argv + ["--output", str(tmp_path / "out")], capsys)
    assert code == cli.EXIT_USAGE
    assert flag in err
    assert not (tmp_path / "out").exists()


SEED_CONFIG = """\
# the seed point
alpha = 0.4
sigma=0.25
nu = 0.03   # accrued variance
t = 0.5
tenor = 1
"""


def config(tmp_path, text):
    path = tmp_path / "volswap.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfig:
    def test_file_supplies_every_required_market_flag(self, tmp_path):
        path = config(tmp_path, SEED_CONFIG)
        code, doc = run(tmp_path, ["price", "--config", path], "price.schema.json")
        _, direct = run(tmp_path, ["price"] + SEED_POINT, "price.schema.json")
        assert code == cli.EXIT_DIVERGING
        assert doc["kappa"] == direct["kappa"]
        assert doc["manifest"]["parameters"] == direct["manifest"]["parameters"]

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_explicit_flag_overrides_the_file(self, tmp_path, before):
        path = config(tmp_path, SEED_CONFIG + "seed = 7\npaths = 4000\nsteps=10\n")
        flags = ["--paths", "1000"]
        argv = (["oracle", "mc"] + flags + ["--config", path] if before
                else ["oracle", "mc", "--config", path] + flags)
        code, doc = run(tmp_path, argv, "oracle_mc.schema.json")
        assert code == cli.EXIT_OK
        assert doc["n_paths"] == 1000
        assert doc["manifest"]["seed"] == 7
        assert doc["manifest"]["parameters"]["steps"] == 10

    def test_keys_the_command_does_not_take_are_ignored(self, tmp_path):
        # rho is no flag at all; seed and paths belong to other commands
        path = config(tmp_path, SEED_CONFIG + "rho=0.3\nseed = 7\npaths = 1e3\n")
        code, doc = run(tmp_path, ["price", "--config", path], "price.schema.json")
        assert code == cli.EXIT_DIVERGING
        assert not {"rho", "seed", "paths"} & set(doc["manifest"]["parameters"])

    @pytest.mark.parametrize("value,expected", [
        ("yes", True), ("On", True), ("1", True), ("no", False), ("false", False)])
    def test_antithetic_takes_a_boolean(self, tmp_path, value, expected):
        path = config(tmp_path, SEED_CONFIG
                      + f"seed=7\npaths=1000\nsteps=10\nantithetic = {value}\n")
        code, doc = run(tmp_path, ["oracle", "mc", "--config", path],
                        "oracle_mc.schema.json")
        assert code == cli.EXIT_OK
        assert doc["manifest"]["parameters"]["antithetic"] is expected

    def test_output_from_the_file(self, tmp_path):
        out = tmp_path / "doc.json"
        path = config(tmp_path, SEED_CONFIG + f"output = {out}\n")
        assert cli.main(["price", "--config", path]) == cli.EXIT_DIVERGING
        assert json.loads(out.read_text(encoding="utf-8"))["regime"] == "diverging"

    def test_comments_and_blank_lines(self, tmp_path):
        path = config(tmp_path, "\n# alpha = abc\n" + SEED_CONFIG
                      + "   # strike = abc\n\n")
        code, doc = run(tmp_path, ["price", "--config", path], "price.schema.json")
        assert code == cli.EXIT_DIVERGING
        assert doc["manifest"]["parameters"]["nu"] == 0.03

    @pytest.mark.parametrize("command,line,message", [
        (["price"], "alpha 0.4", "not key=value"),
        (["oracle", "mc"], "antithetic = maybe", "not boolean"),
        (["price"], "alpha = abc", "--alpha"),
        (["oracle", "mc"], "paths = 1e3", "--paths"),
    ], ids=["no-equals", "boolean", "float", "int"])
    def test_bad_line_is_a_usage_error(self, tmp_path, capsys, command, line,
                                       message):
        path = config(tmp_path, SEED_CONFIG + "seed = 7\n" + line + "\n")
        argv = command + ["--config", path, "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert message in err

    def test_bad_value_is_refused_even_when_a_flag_overrides_it(self, tmp_path,
                                                                 capsys):
        path = config(tmp_path, SEED_CONFIG + "alpha = abc\n")
        argv = ["price", "--config", path, "--alpha", "0.4",
                "--output", str(tmp_path / "out")]
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "--alpha" in err

    def test_unreadable_path_is_a_usage_error(self, tmp_path, capsys):
        argv = (["price", "--config", str(tmp_path / "missing.cfg")] + SEED_POINT
                + ["--output", str(tmp_path / "out")])
        code, err = exit_code(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "cannot read config" in err
