"""One pass of a workload in a fresh interpreter: set-up probe, then timed calls.

    PYTHONPATH=src python3 perfbench/worker.py series_book 7 20

It first imports the public entries the workload uses and calls each once
(``warm_up``), importing nothing but the standard library and ``volswap``
before that, so a lazy import inside ``volswap`` shows up in the set-up
time of the workloads that never need the deferred module.  It then draws
the workload's inputs from the seed, times one pass over them and prints,
as its last line, a JSON object with ``ready`` (``time.monotonic()`` when
the warm-up returned; the caller subtracts its own reading taken before
the interpreter started, CLOCK_MONOTONIC being system-wide on Linux),
``wall`` and the classified ``outcomes``.
"""

import sys
import time


def warm_up(workload: str) -> None:
    """One call on each public entry ``workload`` times, at a small size."""
    from volswap.model import MarketState, SabrParams, SwapContract

    state = MarketState(t=0.5, sigma=0.3, nu=0.02)
    params = SabrParams(alpha=0.4)
    contract = SwapContract(t0=0.0, tenor=1.0)
    if workload == "series_book":
        from volswap import series_pricer
        series_pricer.price_volatility_swap(state, params, contract, 1.0)
    elif workload == "pde_surface":
        from volswap import pde_engine
        pde_engine.kappa_quadrature(state, params, contract)
    elif workload == "oracle_check":
        from volswap import mc_engine, pde_engine
        mc_engine.kappa_mc(state, params, contract,
                           mc_engine.McConfig(n_paths=256, n_steps=250, seed=1))
        pde_engine.grid_refinement_report(state, params, contract,
                                          refinements=0)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(workload: str, seed: int, seconds: float) -> None:
    warm_up(workload)
    ready = time.monotonic()

    import json
    from dataclasses import asdict

    from reference import Reference
    from workloads import WORKLOADS

    wall, outcomes = WORKLOADS[workload](seed, seconds, Reference()).run()
    print(json.dumps({"ready": ready, "wall": wall,
                      "outcomes": [asdict(o) for o in outcomes]},
                     default=float))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
