"""Weighted sum-rate simulator for a dual-side omni-surface full-duplex MIMO link."""

import ctypes as _ctypes
import os as _os
import sys as _sys
import warnings as _warnings


def _pin_loaded_openblas() -> None:
    """Set every OpenBLAS mapped into this process to one thread; warn if
    none with a `set_num_threads` export is found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        paths = set()
    pinned = False
    for path in sorted(paths):
        lib = _ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [_ctypes.c_int], None
                fn(1)
                pinned = True
                break
    if not pinned:
        _warnings.warn("numpy was imported before iosfd and no OpenBLAS set_num_threads "
                       "export was found, so BLAS keeps its default thread count: results "
                       "depend on it; set OPENBLAS_NUM_THREADS=1 for the CLI's bits",
                       RuntimeWarning)


# One BLAS/OpenMP thread unless the caller asks for more: results depend on
# the BLAS thread count.  numpy's BLAS reads these when it loads; a BLAS that a
# caller loaded first, by importing numpy, is set to one thread directly.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in _sys.modules and not any(v in _os.environ for v in _THREAD_VARS):
    _pin_loaded_openblas()
for _var in _THREAD_VARS:
    _os.environ.setdefault(_var, "1")

# Keep 32 MiB free at the top of glibc's heap when it trims (M_TOP_PAD = -2),
# unless the caller tunes glibc's malloc.  A surface solve frees megabytes of
# numpy temporaries per outer iteration; without the pad glibc returns them
# to the kernel, and the next iteration faults them back in as zeroed pages.
# 32 MiB is glibc's 64-bit ceiling for its dynamic mmap threshold.  Pool
# workers inherit the setting through fork.
_MALLOC_VARS = ("MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
                "MALLOC_MMAP_MAX_")
if (_os.name == "posix" and not any(v in _os.environ for v in _MALLOC_VARS)
        and "glibc.malloc." not in _os.environ.get("GLIBC_TUNABLES", "")):
    _mallopt = getattr(_ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _mallopt.argtypes, _mallopt.restype = [_ctypes.c_int, _ctypes.c_int], _ctypes.c_int
        _mallopt(-2, 32 << 20)

from .algorithm import (ConvergenceTrace, RunConfig, RunResult, Scheme, SchemeSpec,
                        apply_scheme, initial_beamformers, quantize_phases,
                        run_algorithm2, run_group)
from .beamformers import DualState, bisect_multiplier, update_beamformers
from .campaign import (CampaignConfig, ResultRow, config_from_dict, emit_figure_data,
                       load_config, run_campaign, write_campaign)
from .channels import ChannelSet, FadingParams, sample_channels
from .errors import (ConfigError, ConvergenceError, GeometryError, IosfdError,
                     NumericalError)
from .geometry import GeometryConfig, SpatialLayout, antenna_gain, build_layout
from .phases import (PgdSettings, PhaseQuadratic, QuadraticFormSet,
                     build_quadratic_forms, project_feasible, solve_qcqp, vectorize)
from .system import (BeamformerSet, EffectiveChannels, IosState, LinkSet, RateReport,
                     compose_direct, compose_effective, weighted_sum_rate)
from .wmmse import WmmseState, surrogate_objective, update_state

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
