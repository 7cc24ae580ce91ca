"""Checks of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/selftest.py

They take about a minute: the last ones run every workload at a tiny size.
"""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from reference import PDE_TOL, S_VALUES, ZETA_VALUES, Reference  # noqa: E402
from spans import TRACE_POINTS, Tracer  # noqa: E402
from volswap import pde_engine  # noqa: E402
from volswap.model import MarketState, SabrParams, SwapContract  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _attributes():
    out = {}
    for module, attr in TRACE_POINTS:
        mod = importlib.import_module(f"volswap.{module}")
        out[(module, attr)] = getattr(mod, attr)
    return out


def test_trace_wrappers_restore_every_attribute():
    before = _attributes()
    with Tracer() as tracer:
        during = _attributes()
        assert all(during[k] is not before[k] for k in before)
        state = MarketState(t=0.5, sigma=0.3, nu=0.02)
        pde_engine.kappa_quadrature(state, SabrParams(alpha=0.4),
                                    SwapContract(t0=0.0, tenor=1.0))
    after = _attributes()
    assert all(after[k] is before[k] for k in before)
    spans = tracer.summary()
    assert spans["pde_engine.solve_psi"]["calls"] == 1
    assert spans["pde_engine.solve_banded"]["calls"] >= 400
    assert tracer.integrand_evals > 0
    assert not tracer.absent


def test_missing_attribute_is_reported_absent(monkeypatch):
    from volswap import mc_engine
    monkeypatch.delattr(mc_engine, "path_normals")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["mc_engine.path_normals"]
    assert not hasattr(mc_engine, "path_normals")


@pytest.mark.parametrize("i_zeta", [10, None])
def test_reference_matches_direct_pde_at_two_alpha_tau_pairs(i_zeta):
    ref = Reference()
    i_s = 20
    s = S_VALUES[i_s]
    for alpha in (0.3, 0.6):
        tau = s / alpha ** 2
        nu = 0.0 if i_zeta is None else 0.04
        sigma = 0.35 if i_zeta is None else \
            alpha * math.sqrt(2.0 * ZETA_VALUES[i_zeta] * nu)
        contract = SwapContract(t0=0.0, tenor=tau + 0.25)
        state = MarketState(t=0.25, sigma=sigma, nu=nu)
        direct = pde_engine.kappa_quadrature(state, SabrParams(alpha=alpha), contract)
        kappa, bound = ref.kappa(i_s, i_zeta, alpha, sigma, nu, contract.tenor)
        assert bound < 0.1 * PDE_TOL
        assert abs(direct - kappa) / kappa < PDE_TOL


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0
                   for m in ("setup_s", "wall_s", "op_p50_ms"))
    if workload == "oracle_check" and not trace:
        path = os.path.join(HERE, "results", f"{workload}-seed3-trace0.json")
        with open(path) as fh:
            extras = json.load(fh)["extras"]
        assert {"mc_s_per_rse1e-4", "refine_p50_ms"} <= set(extras)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run("--workload", "series_book", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
