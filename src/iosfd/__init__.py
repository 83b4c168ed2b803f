"""Weighted sum-rate simulator for a dual-side omni-surface full-duplex MIMO link."""

import os as _os

# One BLAS/OpenMP thread unless the caller asks for more: results depend on
# the BLAS thread count, and numpy reads these when it loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

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
from .system import (BeamformerSet, EffectiveChannels, IosState, RateReport,
                     compose_direct, compose_effective, weighted_sum_rate)
from .wmmse import WmmseState, surrogate_objective, update_state

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
