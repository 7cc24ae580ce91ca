"""OpenBLAS loaded with its idle pool threads asleep.

numpy and scipy's compiled LAPACK extension each load an OpenBLAS, whose
idle pool threads busy-wait 2^28 cycles by default before they sleep: on a
2-core x86 machine scipy's burnt 0.13-0.19 s of CPU within 0.3 s of one PDE
price, although ``zgtsv`` never uses them, and numpy's 0.1 s over its
import, leaving Monte Carlo's two workers one core.  Loaded inside
:func:`idle_threads_asleep` they spin 2^4 cycles, and idle CPU falls to
0.00-0.03 s.  The pools still serve later ``scipy.linalg`` calls on every
core, as ``OPENBLAS_NUM_THREADS`` = 1, which frees the core as well, would not.
"""

import contextlib
import os


@contextlib.contextmanager
def idle_threads_asleep():
    """``OPENBLAS_THREAD_TIMEOUT`` = 4, read as OpenBLAS loads, within the
    block, unless the user has set it; the environment is restored after."""
    quiet = "OPENBLAS_THREAD_TIMEOUT" not in os.environ
    if quiet:
        os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        yield
    finally:
        if quiet:
            del os.environ["OPENBLAS_THREAD_TIMEOUT"]
