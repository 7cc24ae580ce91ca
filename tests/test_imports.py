"""The package imports numpy and scipy only for the engines that use them,
and of scipy only the parts they use."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

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


PDE_SCRIPT = """
import json, sys
from volswap import pde_engine
from volswap.model import MarketState, SabrParams, SwapContract
kappa = pde_engine.kappa_quadrature(MarketState(t=0.5, sigma=0.25, nu=0.03),
                                    SabrParams(alpha=0.4),
                                    SwapContract(t0=0.0, tenor=1.0))
loaded = [name for name in ("scipy.integrate", "scipy.interpolate", "scipy.special")
          if name in sys.modules]
print(json.dumps({"kappa": kappa, "loaded": loaded}))
"""


ORACLE_PDE_SCRIPT = """
import json, os, sys
from volswap import cli
code = cli.main(["oracle", "pde", "--alpha", "0.4", "--sigma", "0.25",
                 "--nu", "0.03", "--t", "0.5", "--tenor", "1",
                 "--output", os.devnull])
loaded = [name for name in ("scipy.interpolate", "scipy.special")
          if name in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}))
"""


def _run(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
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
