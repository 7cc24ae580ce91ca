"""The command-line interface: exit codes and output documents against docs/schemas."""

import csv
import json
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from volswap import cli, verify

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"
SCHEMAS = {path.name: json.loads(path.read_text(encoding="utf-8"))
           for path in SCHEMA_DIR.glob("*.schema.json")}
REGISTRY = Registry().with_resources(
    (schema["$id"], Resource.from_contents(schema)) for schema in SCHEMAS.values())

SEED_POINT = ["--alpha", "0.4", "--sigma", "0.25", "--nu", "0.03",
              "--t", "0.5", "--tenor", "1"]
CONVERGENT_POINT = ["--alpha", "0.316227766", "--sigma", "0.0894427191",
                    "--nu", "0.04", "--t", "0.5", "--tenor", "1"]


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

    @pytest.mark.parametrize("extra", [[], ["--refine", "1"]],
                             ids=["single", "refine"])
    def test_pde(self, tmp_path, extra):
        code, doc = run(tmp_path, ["oracle", "pde"] + SEED_POINT + extra,
                        "oracle_pde.schema.json")
        assert code == cli.EXIT_OK
        assert ("grid_report" in doc) == bool(extra)

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


class TestVerify:
    def test_terminal_passes(self, tmp_path):
        code, doc = run(tmp_path, ["verify", "--check", "terminal",
                                   "--s-max", "5"], "verify.schema.json")
        assert code == cli.EXIT_OK
        assert doc["all_passed"]

    def test_failed_check_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "check_terminal_identity",
                            lambda s: Fraction(1))
        code, doc = run(tmp_path, ["verify", "--check", "terminal",
                                   "--s-max", "2"], "verify.schema.json")
        assert code == cli.EXIT_VERIFY_FAILED == 1
        assert not doc["all_passed"]
