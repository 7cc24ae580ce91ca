"""Volatility-swap pricing laboratory for the lognormal-vol SABR model.

Three independent routes to the fair strike kappa:

* :mod:`volswap.series_pricer` — the analytic hypergeometric series,
* :mod:`volswap.mc_engine` — exact-increment Monte Carlo on antithetic
  pairs (bit-reproducible at any thread count: one counter-based stream
  per fixed block of 256 pairs, merged in block order; a level's batches
  of up to 2^17 normals are drawn on worker threads, one batch on the
  calling thread alone), whose every estimate carries the variance swap of
  its own draws beside kappa, on a step count below a cap chosen by a
  same-draw step-halving test and the variance swap's tail test,
* :mod:`volswap.pde_engine` — the reduced Feynman-Kac problem for 1 - psi
  on a uniform grid in x = ln y, solved exactly in s on the seven poles of
  a rational approximation of e^z, as one block-diagonal complex
  tridiagonal solve, plus the trapezoid rule,

with :mod:`volswap.verify` holding mechanized checks of the identities the
construction rests on.

The two oracles need numpy; of scipy, the PDE loads only its compiled
LAPACK extension; the series needs neither.  Their names are exported here
but imported on first access (PEP 562), so pricing with the series never
loads numpy or scipy.
"""

__version__ = "0.1.0"

import importlib

from .exceptions import (AccuracyError, DomainError, InconclusiveError,
                         InstabilityError, SingularityError, VolswapError)
from .model import (MarketState, PricingResult, SabrParams, SwapContract,
                    discount_factor, time_to_maturity)
from .series_pricer import (SeriesDiagnostics, kappa_series,
                            price_volatility_swap)

#: engine of each lazily imported name
_ENGINE_OF = {
    **dict.fromkeys(("McConfig", "McEstimate", "kappa_mc",
                     "variance_swap_expectation"), "mc_engine"),
    **dict.fromkeys(("GridSpec", "PsiSolution", "kappa_quadrature",
                     "solve_psi"), "pde_engine"),
}


def __getattr__(name: str):
    if name not in _ENGINE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ENGINE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "__version__",
    "AccuracyError", "DomainError", "InconclusiveError", "InstabilityError",
    "SingularityError", "VolswapError",
    "MarketState", "PricingResult", "SabrParams", "SwapContract",
    "discount_factor", "time_to_maturity",
    "SeriesDiagnostics", "kappa_series", "price_volatility_swap",
    "McConfig", "McEstimate", "kappa_mc", "variance_swap_expectation",
    "GridSpec", "PsiSolution", "kappa_quadrature", "solve_psi",
]
