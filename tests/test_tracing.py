"""The benchmark's tracer (`perfbench/tracing.py`) still finds every block it
wraps: a rename or a call that bypasses a module global would otherwise only
show as a missing metric under `perfbench/run.py --trace 1`."""
import sys
from pathlib import Path

import numpy as np

import iosfd
import iosfd.algorithm

from conftest import reference_geometry

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_sees_every_block():
    K = 2
    cfg = iosfd.RunConfig(gamma_down=np.full(K, 0.5), gamma_up=np.full(K, 0.5),
                          noise_users=np.full(K, 1e-8), noise_rx=1e-8,
                          p_b=10.0, p_u=10.0 ** 0.5, max_outer_iters=20)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ch = iosfd.sample_channels(iosfd.build_layout(reference_geometry(L=8, K=K)),
                                   iosfd.FadingParams.from_db(3.0), 0)
        for kind in (iosfd.Scheme.DS_IOS, iosfd.Scheme.SS_IOS):
            iosfd.algorithm.run_algorithm2(ch, cfg, iosfd.SchemeSpec(kind))
    finally:
        tracer.uninstall()
    assert not [label for label in tracing.BLOCKS if tracer.calls[label] == 0]
    assert tracer.calls["channels.sample"] == 1 and tracer.calls["algorithm.run"] == 2
    assert tracer.counts["phases.pgd_trials"] > 0
    assert tracer.counts["beamformers.probes"] > 0
    assert tracer.form_bytes > 0
    assert not hasattr(iosfd.algorithm.solve_qcqp, "__wrapped__")   # uninstalled
