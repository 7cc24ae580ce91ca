"""The package imports numpy and scipy only for the engines that use them,
and of scipy only the parts they use: the PDE loads scipy's compiled LAPACK
extension, not the scipy.linalg package, and no numpy.polynomial.  Their
OpenBLAS pools load with idle threads that sleep."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import volswap
from volswap import series_pricer
from volswap.model import MarketState, SabrParams, SwapContract
result = series_pricer.price_volatility_swap(
    MarketState(t=0.5, sigma=0.0894427191, nu=0.04),
    SabrParams(alpha=0.316227766), SwapContract(t0=0.0, tenor=1.0), 1.0)
loaded = {name: name in sys.modules for name in ("numpy", "scipy")}
missing = [name for name in volswap.__all__ if not hasattr(volswap, name)]
print(json.dumps({"kappa": result.kappa, "loaded": loaded, "missing": missing,
                  "after": "numpy" in sys.modules and "scipy" in sys.modules}))
"""


VERIFY_SCRIPT = """
import json, os, sys
from volswap import cli
code = cli.main(["verify", "--output", os.devnull])
loaded = {name: name in sys.modules for name in ("numpy", "scipy")}
print(json.dumps({"code": code, "loaded": loaded}))
"""


PRICE_SCRIPT = """
import json, os, sys
from volswap import cli
code = cli.main(["price", "--alpha", "0.316227766", "--sigma", "0.0894427191",
                 "--nu", "0.04", "--t", "0.5", "--tenor", "1", "--output", os.devnull])
loaded = {name: name in sys.modules for name in ("numpy", "scipy")}
print(json.dumps({"code": code, "loaded": loaded}))
"""


PDE_SCRIPT = """
import json, sys
from volswap import pde_engine
from volswap.model import MarketState, SabrParams, SwapContract
kappa = pde_engine.kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=0.03),
                                    SabrParams(alpha=0.4),
                                    SwapContract(t0=0.0, tenor=1.0))
loaded = [name for name in ("scipy.integrate", "scipy.interpolate", "scipy.special",
                           "scipy.linalg", "numpy.polynomial")
          if name in sys.modules]
print(json.dumps({"kappa": kappa, "loaded": loaded}))
"""


ORACLE_PDE_SCRIPT = """
import json, os, sys
from volswap import cli
code = cli.main(["price", "--engine", "pde", "--alpha", "0.4", "--sigma", "0.25",
                 "--nu", "0.03", "--t", "0.5", "--tenor", "1",
                 "--output", os.devnull])
loaded = [name for name in ("scipy.interpolate", "scipy.special", "scipy.linalg",
                           "numpy.polynomial")
          if name in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}))
"""


LAPACK_SCRIPT = """
import json
from volswap import pde_engine
from scipy.linalg import lapack
print(json.dumps({name: getattr(pde_engine, name) is getattr(lapack, name)
                  for name in ("zgtsv",)}))
"""


ORACLE_MC_SCRIPT = """
import json, os, sys
from volswap import cli
code = cli.main(["price", "--engine", "mc", "--alpha", "0.4", "--sigma", "0.25",
                 "--nu", "0.03", "--t", "0.5", "--tenor", "1", "--paths", "1000",
                 "--steps", "10", "--seed", "1", "--output", os.devnull])
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
print(json.dumps({"code": code, "loaded": loaded}))
"""


SPIN_SCRIPT = """
import json, os, time
import numpy
time.sleep(0.3)             # numpy's own OpenBLAS pool settles
before = dict(os.environ)
from volswap import pde_engine
from volswap.model import MarketState, SabrParams, SwapContract
pde_engine.kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=0.03),
                            SabrParams(alpha=0.4), SwapContract(t0=0.0, tenor=1.0))
kept = dict(os.environ) == before
start = time.process_time()
time.sleep(0.3)
print(json.dumps({"idle_cpu_s": time.process_time() - start, "kept": kept,
                  "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}))
"""


MC_IMPORT_SCRIPT = """
import json, os, time
before = dict(os.environ)
cpu, wall = time.process_time(), time.perf_counter()
import volswap.mc_engine
wall = time.perf_counter() - wall
time.sleep(0.3)             # numpy's OpenBLAS pool would spin here too
print(json.dumps({"excess_cpu_s": time.process_time() - cpu - wall,
                  "kept": dict(os.environ) == before,
                  "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}))
"""


def _run(script: str, **environ) -> dict:
    """The JSON line ``script`` prints, run on the sources with ``environ``
    added to the environment, its None values removed from it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **environ)
    env = {name: value for name, value in env.items() if value is not None}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_series_pricing_loads_neither_numpy_nor_scipy():
    report = _run(SCRIPT)
    assert report["kappa"] > 0
    assert report["loaded"] == {"numpy": False, "scipy": False}
    assert report["missing"] == []          # every exported name resolves
    assert report["after"]                  # ... by importing the engines


def test_verify_loads_neither_numpy_nor_scipy():
    assert _run(VERIFY_SCRIPT) == {"code": 0,
                                   "loaded": {"numpy": False, "scipy": False}}


def test_price_command_loads_neither_numpy_nor_scipy():
    # the series is price's default engine, dispatched in the CLI
    assert _run(PRICE_SCRIPT) == {"code": 0,
                                  "loaded": {"numpy": False, "scipy": False}}


@functools.lru_cache(maxsize=None)
def _pde_report() -> dict:
    return _run(PDE_SCRIPT)


def test_pde_pricing_leaves_scipy_integrate_unloaded():
    assert _pde_report()["kappa"] > 0
    assert "scipy.integrate" not in _pde_report()["loaded"]


def test_pde_pricing_leaves_scipy_interpolate_and_special_unloaded():
    assert _pde_report()["loaded"] == []


def test_oracle_pde_leaves_scipy_interpolate_and_special_unloaded():
    assert _run(ORACLE_PDE_SCRIPT) == {"code": 0, "loaded": []}


def test_pde_lapack_routines_are_scipy_linalg_lapacks():
    # pde_engine loads scipy/linalg/_flapack by its private path; the
    # package, imported after it, must hand out the very same wrappers
    assert _run(LAPACK_SCRIPT) == {"zgtsv": True}


def test_oracle_mc_loads_no_scipy_module():
    assert _run(ORACLE_MC_SCRIPT) == {"code": 0, "loaded": []}


@functools.lru_cache(maxsize=None)
def _spin_report(timeout) -> dict:
    return _run(SPIN_SCRIPT, OPENBLAS_THREAD_TIMEOUT=timeout)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="an idle thread spins on a second CPU only")
def test_pde_pricing_leaves_no_idle_thread_spinning():
    # scipy's OpenBLAS pool busy-waited 0.13-0.19 s of CPU after one price
    assert _spin_report(None)["idle_cpu_s"] < 0.05


@pytest.mark.parametrize("timeout", [None, "28"], ids=["unset", "user_set"])
def test_pde_import_leaves_the_environment_as_it_was(timeout):
    assert _spin_report(timeout)["timeout"] == timeout
    assert _spin_report(timeout)["kept"]


@functools.lru_cache(maxsize=None)
def _mc_import_report(timeout) -> dict:
    return _run(MC_IMPORT_SCRIPT, OPENBLAS_THREAD_TIMEOUT=timeout)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="an idle thread spins on a second CPU only")
def test_mc_import_leaves_no_idle_thread_spinning():
    # mc_engine imports numpy first here: its OpenBLAS pool busy-waited
    # 0.05-0.13 s of CPU beyond the import's wall time
    assert _mc_import_report(None)["excess_cpu_s"] < 0.05


@pytest.mark.parametrize("timeout", [None, "28"], ids=["unset", "user_set"])
def test_mc_import_leaves_the_environment_as_it_was(timeout):
    assert _mc_import_report(timeout)["timeout"] == timeout
    assert _mc_import_report(timeout)["kept"]
