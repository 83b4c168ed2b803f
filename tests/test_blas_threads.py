"""The tests run on the BLAS thread count that `iosfd` pins, as the CLI does.

`iosfd` sets OPENBLAS_NUM_THREADS (and its kin) to 1 when unset, and OpenBLAS
reads it once, when numpy loads it.  This checks that the OpenBLAS loaded in
this process runs on that many threads, so the suite computes the CLI's bits.
"""
import ctypes
import os
import sys

import numpy as np  # noqa: F401  (loads OpenBLAS)
import pytest

_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS mapped into this process, None if none is."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _SYMBOLS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_openblas_runs_on_the_pinned_thread_count():
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS with a get_num_threads symbol is loaded")
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])
