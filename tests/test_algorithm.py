import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iosfd.algorithm
from iosfd import (BeamformerSet, FadingParams, GeometryConfig, IosState, PgdSettings,
                   RunConfig, Scheme, SchemeSpec, build_layout, quantize_phases,
                   run_algorithm2, run_group, sample_channels)
from iosfd.errors import ConvergenceError

from conftest import reference_geometry, random_ios
from oracles import quantize_phases_per_vector, run_plain


def integrated_geometry(L=16, K=2, n=2):
    """Surface mounted right in front of the transceiver; users far below.

    With the surface this close, the two-hop links dominate the direct ones,
    which is the operating regime the dual-side design is built for.
    """
    return GeometryConfig(
        n_tx=n, n_rx=n, n_elements=L, n_user_tx=n, n_user_rx=n,
        tx_anchor=np.array([0.0, 0.0, 5.0]),
        rx_anchor=np.array([0.0, 1.0, 5.0]),
        ios_anchor=np.array([0.07, 0.07, 5.0]),
        user_anchors=np.array([[20.0, 20.0, 1.5], [25.0, -35.0, 1.5],
                               [35.0, -25.0, 1.5]])[:K],
    )


def desk_config(K=2, p_b=10.0, p_u=10 ** 0.5, max_outer=200):
    return RunConfig(
        gamma_down=np.full(K, 0.5), gamma_up=np.full(K, 0.5),
        noise_users=np.full(K, 1e-8), noise_rx=1e-8,
        p_b=p_b, p_u=p_u, max_outer_iters=max_outer,
    )


def channels_for(geometry, seed, direct=False):
    return sample_channels(build_layout(geometry), FadingParams.from_db(3.0), seed,
                           include_direct=direct)


HIGH_POWER_RUN = """
import numpy as np
from conftest import reference_geometry
from iosfd import (FadingParams, RunConfig, Scheme, SchemeSpec, build_layout,
                   run_algorithm2, sample_channels)
ch = sample_channels(build_layout(reference_geometry(L=64, K=3)), FadingParams.from_db(3.0), 1)
cfg = RunConfig(gamma_down=np.full(3, 0.5), gamma_up=np.full(3, 0.5),
                noise_users=np.full(3, 1e-8), noise_rx=1e-8, p_b=10.0 ** 5, p_u=10.0 ** 4.5)
print(run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS)).trace.terminated_by)
"""


def test_high_power_run_passes_the_descent_check():
    """DS_IOS at P_B = 50 dBm and P_U = 45 dBm in the reference geometry
    (L = 64, K = 3, seed 1).  Its surface objective reaches about -2.3e5,
    where a surface solve's output can exceed its start by two ulps, more
    than an absolute 1e-12 slack.  The path is roundoff-sensitive (with two
    BLAS threads it ends elsewhere without meeting that excess), so the run
    is made in a child process pinned to one BLAS thread."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                                 str(root / "tests")]))
    out = subprocess.run([sys.executable, "-c", HIGH_POWER_RUN], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["tolerance"]


STEADY_RUN = """
from iosfd import (FadingParams, RunConfig, Scheme, SchemeSpec, build_layout,
                   run_algorithm2, sample_channels)
import resource
import numpy as np
from conftest import grid_geometry
ch = sample_channels(build_layout(grid_geometry("close", 256, 3, (2, 2, 2, 2))),
                     FadingParams.from_db(3.0), 0)
cfg = RunConfig(gamma_down=np.full(3, 0.5), gamma_up=np.full(3, 0.5),
                noise_users=np.full(3, 1e-8), noise_rx=1e-8, p_b=4.0, p_u=2.0)
run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
iters = run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS)).trace.iterations
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / iters)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's malloc")
def test_steady_state_solve_does_not_fault():
    """A repeated DS_IOS run at L = 256 (close-mounted, K = 3, seed 0, 86
    outer iterations) reuses the heap its first run freed: `import iosfd`
    keeps glibc from trimming the surface block's temporaries back to the
    kernel, so the second run takes (almost) no minor page faults.  A caller
    that sets glibc's malloc itself keeps its setting; with MALLOC_TOP_PAD_=0
    the same run faults on every outer iteration."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    per_iter = []
    for extra in ({}, {"MALLOC_TOP_PAD_": "0"}):
        out = subprocess.run([sys.executable, "-c", STEADY_RUN], env=dict(env, **extra),
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        per_iter.append(float(out.stdout))
    assert per_iter[0] <= 5
    assert per_iter[1] > 100


def test_simulate_gives_one_answer_per_host(tmp_path):
    """`iosfd simulate` on the 50/45 dBm run above, whose path depends on
    the BLAS thread count, writes the same results with every thread
    variable unset as with OPENBLAS_NUM_THREADS=1, and also when the caller
    imports numpy (loading its BLAS) before iosfd: the package pins one BLAS
    thread unless the caller sets one."""
    root = Path(__file__).resolve().parents[1]
    config = tmp_path / "high-power.json"
    config.write_text('{"name": "high-power", "powers": {"p_b_dbm": 50.0, "p_u_dbm": 45.0},'
                      ' "schemes": ["DS_IOS"], "seeds": [1]}')
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["PYTHONPATH"] = str(root / "src")
    cli = ["-m", "iosfd.cli"]
    numpy_first = ["-c", "import numpy, sys; from iosfd.cli import main; "
                         "sys.exit(main(sys.argv[1:]))"]
    results = []
    for n, (entry, extra) in enumerate(((cli, {}), (cli, {"OPENBLAS_NUM_THREADS": "1"}),
                                        (numpy_first, {}))):
        out = subprocess.run([sys.executable, *entry, "simulate", "--config",
                              str(config), "--threads", "1", "--out", str(tmp_path / str(n))],
                             env=dict(env, **extra), capture_output=True, text=True,
                             timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        rows = (tmp_path / str(n) / "high-power" / "results.csv").read_text().splitlines()
        drop = rows[0].split(",").index("wall_ms")
        results.append([[c for i, c in enumerate(r.split(",")) if i != drop] for r in rows])
    assert results[0] == results[1] == results[2]


def test_trace_counts_pgd_cap_exits():
    """Surface side solves cut off by the PGD iteration cap add up in the trace."""
    ch = channels_for(integrated_geometry(L=8), 0)
    cfg = desk_config()
    cfg.pgd = PgdSettings(max_iters=1)
    res = run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS))
    assert 0 < res.trace.pgd_cap_exits <= 2 * res.trace.iterations


def test_trace_counts_pgd_iterations(monkeypatch):
    """Every surface side solve adds its Newton steps; a run without the
    surface solves none."""
    ch = channels_for(integrated_geometry(L=8), 0)
    cfg = desk_config()
    solve = iosfd.algorithm.solve_qcqp
    counts = []

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        counts.append(out[1])
        return out
    monkeypatch.setattr(iosfd.algorithm, "solve_qcqp", recording)
    res = run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS))
    monkeypatch.undo()
    assert len(counts) == res.trace.iterations
    assert res.trace.pgd_iters == sum(c.iters for c in counts) > 0
    assert res.trace.pgd_cap_exits == sum(c.cap_exits for c in counts)
    assert res.trace.pgd_iters >= res.trace.pgd_cap_exits * cfg.pgd.max_iters
    cfg.pgd = PgdSettings(max_iters=1)
    capped = run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS)).trace
    assert capped.pgd_cap_exits > 0
    assert capped.pgd_iters >= capped.pgd_cap_exits * cfg.pgd.max_iters
    direct = channels_for(integrated_geometry(L=8), 0, direct=True)
    wo = run_algorithm2(direct, desk_config(), SchemeSpec(Scheme.WO_IOS)).trace
    assert wo.pgd_iters == 0 and wo.pgd_cap_exits == 0


def test_zero_power_converges_immediately():
    ch = channels_for(integrated_geometry(L=4), 0)
    cfg = desk_config(p_b=0.0, p_u=0.0)
    res = run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS))
    assert res.report.weighted_sum == pytest.approx(0.0, abs=1e-12)
    assert res.trace.iterations == 1
    assert res.trace.terminated_by == "tolerance"


def test_trace_monotone_and_terminates():
    for seed in range(4):
        ch = channels_for(integrated_geometry(L=8), seed)
        res = run_algorithm2(ch, desk_config(), SchemeSpec(Scheme.DS_IOS))
        rates = np.asarray(res.trace.rates)
        assert np.all(np.diff(rates) >= -1e-9)
        assert res.trace.terminated_by == "tolerance"
        for s2, s3, s4 in res.trace.step_surrogates:
            assert s3 >= s2 - 1e-9
            assert s4 >= s3 - 1e-9


def test_power_constraints_hold_after_run():
    ch = channels_for(integrated_geometry(L=8), 1)
    cfg = desk_config()
    res = run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS))
    bf = res.beamformers
    assert bf.downlink_power() <= cfg.p_b * (1.0 + 1e-4)
    assert all(bf.uplink_power(k) <= cfg.p_u * (1.0 + 1e-4) for k in range(bf.n_users))
    assert res.ios.is_feasible()


def test_dual_side_beats_single_side_per_seed():
    """The single-side scheme solves a restriction of the dual-side problem, so
    the alternating optimizer should never land below it.  The no-surface
    comparison is a mean-level statement and lives in the acceptance suite."""
    cfg = desk_config()
    geo = integrated_geometry(L=16)
    for seed in range(20):
        ds = run_algorithm2(channels_for(geo, seed), cfg, SchemeSpec(Scheme.DS_IOS))
        ss = run_algorithm2(channels_for(geo, seed), cfg, SchemeSpec(Scheme.SS_IOS))
        assert ds.report.weighted_sum >= ss.report.weighted_sum - 1e-9


def test_single_side_has_zero_downlink():
    ch = channels_for(integrated_geometry(L=8), 3)
    res = run_algorithm2(ch, desk_config(), SchemeSpec(Scheme.SS_IOS))
    assert np.allclose(res.report.r_down, 0.0)
    for v in res.beamformers.v_d:
        assert np.allclose(v, 0.0)
    assert np.allclose(res.ios.theta_t, 0.0)
    assert np.allclose(res.ios.phi_t, 0.0)


def test_single_side_independent_of_downlink_budget():
    ch = channels_for(integrated_geometry(L=8), 4)
    lo = run_algorithm2(ch, desk_config(p_b=1.0), SchemeSpec(Scheme.SS_IOS))
    hi = run_algorithm2(ch, desk_config(p_b=100.0), SchemeSpec(Scheme.SS_IOS))
    assert lo.report.weighted_sum == pytest.approx(hi.report.weighted_sum, rel=1e-12)


def test_no_surface_gains_from_downlink_power():
    geo = integrated_geometry(L=4)
    for seed in range(3):
        ch = channels_for(geo, seed, direct=True)
        lo = run_algorithm2(ch, desk_config(p_b=10 ** 0.0), SchemeSpec(Scheme.WO_IOS))
        hi = run_algorithm2(ch, desk_config(p_b=10 ** 1.0), SchemeSpec(Scheme.WO_IOS))
        assert hi.report.weighted_sum > lo.report.weighted_sum


def test_no_surface_ignores_surface_state():
    ch = channels_for(integrated_geometry(L=4), 5, direct=True)
    res = run_algorithm2(ch, desk_config(), SchemeSpec(Scheme.WO_IOS))
    assert np.allclose(res.ios.theta_t, 0.0)
    assert np.allclose(res.ios.phi_u, 0.0)


def test_quantize_snaps_to_nearest_level():
    ios = IosState.zeros(1)
    ios.theta_t[:] = 0.5 * np.exp(1j * 0.4 * np.pi)
    out = quantize_phases(ios, 1)
    # one bit: levels {0, pi}; 0.4*pi rounds to 0
    assert out.theta_t[0] == pytest.approx(0.5)
    out2 = quantize_phases(ios, 2)
    # two bits: levels {0, pi/2, ...}; 0.4*pi rounds to pi/2
    assert np.angle(out2.theta_t[0]) == pytest.approx(np.pi / 2)


def test_quantize_preserves_amplitude_and_feasibility(rng):
    ios = random_ios(rng, 16)
    out = quantize_phases(ios, 4)
    assert np.allclose(np.abs(out.theta_u), np.abs(ios.theta_u), atol=1e-12)
    assert out.is_feasible()
    with pytest.raises(ValueError):
        quantize_phases(ios, 0)


def test_quantize_matches_per_vector_oracle(rng):
    """One snap of the stacked array and one projection of both sides give the
    same bits as snapping and projecting the four vectors one by one, also for
    states outside the coupling disks and for tied sides."""
    states = [random_ios(rng, 16), random_ios(rng, 1), IosState.zeros(3),
              IosState.balanced(4)]
    outside = random_ios(rng, 32)
    outside.coef[:, :, ::2] *= 1.7
    tied = random_ios(rng, 8)
    tied.coef[1] = tied.coef[0]
    states += [outside, tied]
    for ios in states:
        for bits in (1, 2, 3, 4, 8, 16):
            out = quantize_phases(ios, bits)
            want = quantize_phases_per_vector(ios, bits)
            got = (out.theta_t, out.phi_t, out.theta_u, out.phi_u)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert out.is_feasible() and not np.shares_memory(out.coef, ios.coef)


def test_fine_quantization_matches_continuous():
    cfg = desk_config()
    geo = integrated_geometry(L=8)
    for seed in range(3):
        cont = run_algorithm2(channels_for(geo, seed), cfg, SchemeSpec(Scheme.DS_IOS))
        fine = run_algorithm2(channels_for(geo, seed), cfg,
                              SchemeSpec(Scheme.DS_IOS, quantization_bits=16))
        rel = abs(fine.report.weighted_sum - cont.report.weighted_sum) \
            / cont.report.weighted_sum
        assert rel < 1e-3


def test_rate_increases_with_elements_in_the_mean():
    cfg = desk_config()
    means = []
    for L in (4, 8, 16):
        vals = []
        for seed in range(6):
            ch = channels_for(integrated_geometry(L=L), seed)
            vals.append(run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS))
                        .report.weighted_sum)
        means.append(np.mean(vals))
    assert means[0] < means[1] < means[2]


def test_scheme_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec(Scheme.DS_IOS, quantization_bits=0)
    with pytest.raises(ValueError):
        SchemeSpec(Scheme.DS_IOS, quantization_bits=17)
    assert SchemeSpec("SS_IOS").kind is Scheme.SS_IOS
    assert SchemeSpec(Scheme.DS_IOS, quantization_bits=4).label == "DS_IOS_q4"
    for bad in (4.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match="quantization_bits"):
            SchemeSpec(Scheme.DS_IOS, quantization_bits=bad)
    with pytest.raises(ValueError, match="quantization_bits needs a surface"):
        SchemeSpec(Scheme.WO_IOS, quantization_bits=4)
    assert SchemeSpec(Scheme.SS_IOS, quantization_bits=2).quantizes_each_iter
    assert not SchemeSpec(Scheme.DS_IOS).quantizes_each_iter
    labels = [SchemeSpec(Scheme.DS_IOS).label, SchemeSpec(Scheme.SS_IOS).label,
              SchemeSpec(Scheme.WO_IOS).label,
              SchemeSpec(Scheme.SS_IOS, quantization_bits=3).label]
    assert labels == ["DS_IOS", "SS_IOS", "WO_IOS", "SS_IOS_q3"]


def test_rerun_gives_identical_output():
    """Two runs on the same channels agree bit for bit: trace, rates,
    precoders, surface and multipliers."""
    ch = channels_for(integrated_geometry(L=8), 2)
    a, b = (run_algorithm2(ch, desk_config(K=2), SchemeSpec(Scheme.DS_IOS)) for _ in range(2))
    _same_run(a, b)
    ch, cfg = _physical_run(0, SchemeSpec(Scheme.DS_IOS))
    a, b = (run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS)) for _ in range(2))
    _same_run(a, b)
    assert a.trace.extrapolations_accepted > 0
    assert (a.trace.extrapolations_accepted, a.trace.extrapolations_rejected) == \
        (b.trace.extrapolations_accepted, b.trace.extrapolations_rejected)


def test_guard_trips_on_corrupted_precoder_update(monkeypatch):
    """A precoder block that returns sign-flipped precoders lowers the
    surrogate; the guard must stop the run and name the block, also for a
    scheme that quantizes every iteration (quantization comes after the step)."""
    update = iosfd.algorithm.update_beamformers

    def flipped(*args, **kwargs):
        bf, duals = update(*args, **kwargs)
        return BeamformerSet(-bf.v_d, -bf.v_u), duals
    monkeypatch.setattr(iosfd.algorithm, "update_beamformers", flipped)
    ch = channels_for(integrated_geometry(L=8), 0)
    for scheme in (SchemeSpec(Scheme.DS_IOS), SchemeSpec(Scheme.DS_IOS, quantization_bits=4)):
        with pytest.raises(ConvergenceError, match="precoder update"):
            run_algorithm2(ch, desk_config(), scheme)


def _same_run(a, b):
    """Trace, precoders, surface, rates and multipliers agree bit for bit."""
    assert a.trace.rates == b.trace.rates
    assert a.trace.step_surrogates == b.trace.step_surrogates
    assert (a.trace.iterations, a.trace.terminated_by) == (b.trace.iterations,
                                                          b.trace.terminated_by)
    for x, y in ((a.beamformers.v_d, b.beamformers.v_d), (a.beamformers.v_u, b.beamformers.v_u),
                 (a.ios.coef, b.ios.coef), (a.report.r_down, b.report.r_down),
                 (a.report.r_up, b.report.r_up), (a.duals.lambda_u, b.duals.lambda_u)):
        assert np.array_equal(x, y)
    assert a.duals.mu_d == b.duals.mu_d
    assert a.report.weighted_sum == b.report.weighted_sum


def test_outer_step_is_one_iteration_of_the_loop():
    """Steps taken by hand from the initial state reproduce the plain loop's
    surrogates, precoders, surface and multipliers bit for bit, for the
    dual-side, single-side and no-surface schemes."""
    cfg = desk_config(max_outer=3)
    for kind in (Scheme.DS_IOS, Scheme.SS_IOS, Scheme.WO_IOS):
        scheme = SchemeSpec(kind)
        ch = channels_for(integrated_geometry(L=8), 1, direct=kind is Scheme.WO_IOS)
        res = run_plain(ch, cfg, scheme)
        bf, ios = iosfd.algorithm.apply_scheme(scheme, ch, cfg)
        x, surrogates = iosfd.algorithm._Iterate(bf, ios), []
        for _ in range(res.trace.iterations):
            x, _, s = iosfd.algorithm.outer_step(ch, cfg, scheme, x)
            assert x.s4 == s[2]
            surrogates.append(s)
        assert surrogates == res.trace.step_surrogates
        bf, ios, duals = x.bf, x.ios, x.duals
        for x, y in ((bf.v_d, res.beamformers.v_d), (bf.v_u, res.beamformers.v_u),
                     (ios.theta_t, res.ios.theta_t), (ios.phi_t, res.ios.phi_t),
                     (ios.theta_u, res.ios.theta_u), (ios.phi_u, res.ios.phi_u),
                     (duals.lambda_u, res.duals.lambda_u)):
            assert np.array_equal(x, y)
        assert duals.mu_d == res.duals.mu_d


def test_quantized_each_iteration_runs_the_plain_loop():
    """Schemes that quantize every iteration take plain steps only: the run
    equals the plain loop bit for bit and tries no extrapolation."""
    for seed in range(3):
        ch = channels_for(integrated_geometry(L=8), seed)
        for scheme in (SchemeSpec(Scheme.DS_IOS, quantization_bits=4),
                       SchemeSpec(Scheme.SS_IOS, quantization_bits=2)):
            res = run_algorithm2(ch, desk_config(), scheme)
            _same_run(res, run_plain(ch, desk_config(), scheme))
            assert res.trace.extrapolations_accepted == res.trace.extrapolations_rejected == 0


def test_each_round_rates_and_composes_once(monkeypatch):
    """A group's start points are composed and rated together, once, on the
    stacked draws; each round then rates its images once and composes the
    entry point, the surface image (with a surface) and the snapped image
    (when quantizing)."""
    calls = {}

    def counted(name):
        block = getattr(iosfd.algorithm, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return block(*args, **kwargs)
        monkeypatch.setattr(iosfd.algorithm, name, wrapper)
    for name in ("weighted_sum_rate", "compose_effective", "compose_direct"):
        counted(name)
    for scheme in (SchemeSpec(Scheme.DS_IOS), SchemeSpec(Scheme.SS_IOS),
                   SchemeSpec(Scheme.WO_IOS), SchemeSpec(Scheme.DS_IOS, quantization_bits=4)):
        chs = [channels_for(reference_geometry(L=8), seed, direct=not scheme.uses_surface)
               for seed in range(3)]
        calls.clear()
        rounds = max(res.trace.iterations for res in run_group(chs, desk_config(), scheme))
        composes = calls.get("compose_effective", 0) + calls.get("compose_direct", 0)
        assert calls["weighted_sum_rate"] == rounds + 1
        assert composes == 1 + rounds * (1 + scheme.uses_surface + scheme.quantizes_each_iter)


def _acceptance_config(K=3, max_outer=500):
    """10 dBm / 5 dBm budgets at -80 dBm noise, in mW."""
    return RunConfig(gamma_down=np.full(K, 0.5), gamma_up=np.full(K, 0.5),
                     noise_users=np.full(K, 1e-8), noise_rx=1e-8,
                     p_b=10.0, p_u=10 ** 0.5, max_outer_iters=max_outer)


def _physical_run(seed, scheme, L=16):
    """A crawling run on a physical-scale draw (reference geometry, entries
    around 1e-4), so the extrapolation has work to do."""
    ch = channels_for(reference_geometry(L=L, K=3), seed, direct=scheme.kind is Scheme.WO_IOS)
    assert 1e-6 < np.max(np.abs(ch.h_ti)) < 1e-2
    return ch, _acceptance_config()


def _record_trials(monkeypatch):
    """Record (s4, bf, ios) at the start of every map evaluation; after the
    first, only extrapolated trials start without a guard surrogate (s4 NaN).
    A single run is mapped as a group of one, so each record is that run's row."""
    step = iosfd.algorithm.outer_step
    starts = []

    def recording(ch, cfg, scheme, x):
        starts.append((float(x.s4[0]), BeamformerSet(x.bf.v_d[0], x.bf.v_u[0]),
                       IosState(x.ios.coef[0])))
        return step(ch, cfg, scheme, x)
    monkeypatch.setattr(iosfd.algorithm, "outer_step", recording)
    return starts


def test_extrapolated_trace_accounting(monkeypatch):
    """Every map evaluation is one iteration with one surrogate triple and one
    trace entry; the trace never falls and ends at the reported rate; each
    kept extrapolation follows two plain steps; the stop test fires on a
    plain step only."""
    rejected = 0
    for seed, scheme in ((0, SchemeSpec(Scheme.DS_IOS)), (0, SchemeSpec(Scheme.WO_IOS)),
                         (2, SchemeSpec(Scheme.SS_IOS)), (3, SchemeSpec(Scheme.DS_IOS))):
        ch, cfg = _physical_run(seed, scheme)
        starts = _record_trials(monkeypatch)
        res = run_algorithm2(ch, cfg, scheme)
        monkeypatch.undo()
        t = res.trace
        rates = np.asarray(t.rates)
        assert len(starts) == t.iterations == len(t.step_surrogates) == len(rates) - 1
        assert np.all(np.diff(rates) >= 0.0)
        assert t.extrapolations_accepted > 0
        assert 3 * t.extrapolations_accepted + t.extrapolations_rejected <= t.iterations
        assert np.count_nonzero(np.diff(rates) == 0.0) >= t.extrapolations_rejected
        rejected += t.extrapolations_rejected
        assert t.terminated_by == "tolerance" and t.iterations < cfg.max_outer_iters
        assert not np.isnan(starts[-1][0])  # the last map evaluation was a plain step
        assert rates[-1] == res.report.weighted_sum
    assert rejected > 0


def test_extrapolation_cuts_iterations_without_losing_rate():
    """On crawling physical-scale runs SQUAREM needs fewer map evaluations
    than the plain loop and ends no lower than it to within the stop test."""
    ch, cfg = _physical_run(0, SchemeSpec(Scheme.DS_IOS), L=32)
    fast = run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS))
    slow = run_plain(ch, cfg, SchemeSpec(Scheme.DS_IOS))
    assert fast.trace.extrapolations_accepted > 0
    assert fast.trace.iterations < slow.trace.iterations
    assert fast.report.weighted_sum >= slow.report.weighted_sum * (1.0 - 10 * cfg.eps_w)


def test_extrapolated_points_are_projected(monkeypatch):
    """Each extrapolated start point meets the power budgets and the coupling
    disks before it is mapped, and so does the returned state, on
    physical-scale channels."""
    for seed, scheme in ((0, SchemeSpec(Scheme.DS_IOS)), (1, SchemeSpec(Scheme.WO_IOS))):
        ch, cfg = _physical_run(seed, scheme)
        starts = _record_trials(monkeypatch)
        res = run_algorithm2(ch, cfg, scheme)
        trials = [(bf, ios) for s4, bf, ios in starts[1:] if np.isnan(s4)]
        assert len(trials) == (res.trace.extrapolations_accepted
                               + res.trace.extrapolations_rejected) > 0
        for bf, ios in trials + [(res.beamformers, res.ios)]:
            assert bf.downlink_power() <= cfg.p_b * (1.0 + 1e-6)
            assert all(bf.uplink_power(k) <= cfg.p_u * (1.0 + 1e-6) for k in range(3))
            assert ios.is_feasible()
        monkeypatch.undo()


def test_project_budgets_scales_only_what_is_over():
    bf = BeamformerSet(np.full((2, 2, 1), 2.0 + 0j), np.full((2, 2, 1), [[[1.0]], [[3.0]]]))
    out = iosfd.algorithm._project_budgets(bf, 4.0, 5.0)
    assert out.downlink_power() == pytest.approx(4.0)
    assert out.uplink_power(0) == 2.0 and out.uplink_power(1) == pytest.approx(5.0)
    assert np.array_equal(out.v_u[0], bf.v_u[0])
    inside = iosfd.algorithm._project_budgets(bf, 100.0, 100.0)
    assert np.array_equal(inside.v_d, bf.v_d) and np.array_equal(inside.v_u, bf.v_u)


def test_single_side_extrapolation_keeps_downlink_and_t_side_silent(monkeypatch):
    """The single-side scheme keeps v_d = 0 and the transmitter-side
    coefficients at 0 exactly, at every extrapolated point and at the end."""
    ch, cfg = _physical_run(2, SchemeSpec(Scheme.SS_IOS))
    starts = _record_trials(monkeypatch)
    res = run_algorithm2(ch, cfg, SchemeSpec(Scheme.SS_IOS))
    assert res.trace.extrapolations_accepted > 0
    for bf, ios in [(bf, ios) for _, bf, ios in starts] + [(res.beamformers, res.ios)]:
        assert not np.any(bf.v_d) and not np.any(ios.coef[0])


def test_duals_belong_to_the_returned_precoders():
    """The multipliers come from the step that produced the returned
    precoders: nonnegative, and positive only on a tight budget."""
    for seed, scheme in ((0, SchemeSpec(Scheme.DS_IOS)), (1, SchemeSpec(Scheme.WO_IOS)),
                         (2, SchemeSpec(Scheme.SS_IOS))):
        ch, cfg = _physical_run(seed, scheme)
        res = run_algorithm2(ch, cfg, scheme)
        bf, duals = res.beamformers, res.duals
        pairs = [(duals.mu_d, cfg.p_b, bf.downlink_power())]
        pairs += [(lam, cfg.p_u, bf.uplink_power(k)) for k, lam in enumerate(duals.lambda_u)]
        for mult, budget, used in pairs:
            assert mult >= 0.0
            assert abs(mult * (budget - used)) <= cfg.eps_b * budget * max(mult, 1.0)


def test_iteration_cap_counts_every_map_evaluation(monkeypatch):
    """Under any cap the run makes at most `max_outer_iters` map evaluations
    and returns the precoders, surface and multipliers of one of them, also
    when the cap falls on an extrapolated trial, kept or rejected."""
    step = iosfd.algorithm.outer_step
    for seed, scheme in ((0, SchemeSpec(Scheme.WO_IOS)), (0, SchemeSpec(Scheme.DS_IOS))):
        ch, cfg = _physical_run(seed, scheme)
        full = run_algorithm2(ch, cfg, scheme).trace
        assert full.extrapolations_accepted > 0
        for cap in range(1, full.iterations + 1):
            images = []

            def recording(*args, **kwargs):
                images.append(step(*args, **kwargs))
                return images[-1]
            monkeypatch.setattr(iosfd.algorithm, "outer_step", recording)
            cfg.max_outer_iters = cap
            res = run_algorithm2(ch, cfg, scheme)
            monkeypatch.undo()
            t = res.trace
            assert len(images) == t.iterations <= cap and len(t.rates) == t.iterations + 1
            assert (t.terminated_by == "max_iters") == (t.iterations == cap < full.iterations)
            # the one image whose precoders were returned (a run is a group of one)
            image = next(
                im for im, _, _ in images if np.array_equal(im.bf.v_d[0], res.beamformers.v_d)
                and np.array_equal(im.bf.v_u[0], res.beamformers.v_u))
            assert np.array_equal(image.ios.coef[0], res.ios.coef)
            assert image.duals.mu_d[0] == res.duals.mu_d
            assert np.array_equal(image.duals.lambda_u[0], res.duals.lambda_u)
        assert t.rates == full.rates


def test_convergence_error_in_extrapolated_step_propagates(monkeypatch):
    """A guard that trips while mapping an extrapolated point ends the run:
    the last map evaluation is the first extrapolated trial, after a plain
    step."""
    step = iosfd.algorithm.outer_step
    calls = []

    def failing(ch, cfg, scheme, x):
        calls.append(float(x.s4[0]))
        if np.isnan(calls[-1]) and len(calls) > 1:
            raise ConvergenceError("surrogate decreased during surface update: trial")
        return step(ch, cfg, scheme, x)
    monkeypatch.setattr(iosfd.algorithm, "outer_step", failing)
    ch, cfg = _physical_run(0, SchemeSpec(Scheme.DS_IOS))
    with pytest.raises(ConvergenceError, match="trial"):
        run_algorithm2(ch, cfg, SchemeSpec(Scheme.DS_IOS))
    assert len(calls) >= 3 and np.isnan(calls[-1])
    assert not any(np.isnan(calls[1:-1]))
