"""Seed-batched runs give every seed the bits of its run alone.

`run_group` maps the points of all running seeds with one `outer_step` on
stacked arrays.  These tests pin that down at three levels: the numpy
operations the batched step relies on, the multiplier search, and whole
runs and campaigns.
"""
import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import iosfd.algorithm
import iosfd.campaign
from iosfd import (FadingParams, LinkSet, NumericalError, RunConfig, Scheme, SchemeSpec,
                   apply_scheme, bisect_multiplier, build_layout, compose_effective,
                   run_algorithm2, run_group, sample_channels, weighted_sum_rate)
from iosfd.campaign import (JOBS_PER_WORKER, campaign_jobs, config_from_dict, reads_axis,
                            run_campaign, run_cells, write_campaign)
from iosfd.errors import ConfigError, ConvergenceError
from iosfd.linalg import adj
from iosfd.system import weighted_sum

from conftest import reference_geometry
from oracles import bisect_multiplier_scalar
from test_algorithm import _same_run
from test_beamformers import _random_power_maps
from test_campaign import strip_wall, tiny_config

S = 20


def _c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _per_seed(batched, each):
    """The batched result equals, seed by seed, the call on that seed alone."""
    return all(np.array_equal(batched[i], each(i)) for i in range(S))


def test_batched_numpy_operations_match_per_seed_calls():
    """At 20 seeds, the stacked forms the batched step uses give each seed
    the bits of the per-seed call: matmul with broadcast axes, Cholesky,
    solve, eigh, the einsum traces, the diagonals, the gamma-weighted sums
    and sums over the (K, s) axes."""
    rng = np.random.default_rng(5)
    K, n, L = 3, 2, 16
    g, h = _c(rng, S, K, L, n), _c(rng, S, L, n)
    assert _per_seed(adj(g) @ h[:, None], lambda i: adj(g[i]) @ h[i])
    assert _per_seed(adj(h)[:, None] @ g, lambda i: adj(h[i]) @ g[i])
    a = _c(rng, S, K, n, n)
    pd = a @ adj(a) + np.eye(n)
    assert _per_seed(np.linalg.cholesky(pd), lambda i: np.linalg.cholesky(pd[i]))
    b = _c(rng, S, K, n, n)
    assert _per_seed(np.linalg.solve(pd, b), lambda i: np.linalg.solve(pd[i], b[i]))
    vals, vecs = np.linalg.eigh(pd)
    assert _per_seed(vals, lambda i: np.linalg.eigh(pd[i])[0])
    assert _per_seed(vecs, lambda i: np.linalg.eigh(pd[i])[1])
    assert _per_seed(np.einsum("...ij,...ji->...", a, b),
                     lambda i: np.einsum("kij,kji->k", a[i], b[i]))
    assert _per_seed(np.diagonal(pd, axis1=-2, axis2=-1),
                     lambda i: np.diagonal(pd[i], axis1=-2, axis2=-1))
    gamma, r = rng.uniform(0.1, 0.9, K), rng.uniform(0.0, 3.0, (S, K))
    assert _per_seed(weighted_sum(gamma, r), lambda i: np.dot(gamma, r[i]))
    w = rng.uniform(0.0, 1.0, (S, K, n))
    assert _per_seed(np.sum(w, axis=(-2, -1)), lambda i: np.sum(w[i]))
    assert _per_seed(np.sum(w, axis=-1), lambda i: np.array([np.sum(w[i, k]) for k in range(K)]))


def test_search_makes_the_scalar_probes():
    """On every random bracket, the search probes the multipliers, in order,
    that the reference scalar search probes, and returns its multiplier bit
    for bit."""
    maps = _random_power_maps(np.random.default_rng(31), 120)
    steps = 0
    for power, _, budget in maps:
        want_probes, probes = [], []
        want = bisect_multiplier_scalar(lambda m: want_probes.append(m) or power(m), budget)
        got = bisect_multiplier(lambda m: probes.append(m) or power(m), budget)
        assert type(got) is float and got.hex() == want.hex()
        assert probes == want_probes
        steps += len(probes)
    assert steps > 5 * len(maps)       # the searches do take steps


SCHEMES = (SchemeSpec(Scheme.DS_IOS), SchemeSpec(Scheme.SS_IOS), SchemeSpec(Scheme.WO_IOS),
           SchemeSpec(Scheme.DS_IOS, quantization_bits=4))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
def test_group_equals_single_runs(scheme):
    """Six physical-scale draws under an 11-iteration cap: some seeds cap and
    some stop on the tolerance, their SQUAREM cycles fall out of step, and
    every seed's result matches its run alone bit for bit."""
    layout = build_layout(reference_geometry(L=16, K=3))
    chs = [sample_channels(layout, FadingParams.from_db(3.0), seed,
                           include_direct=scheme.kind is Scheme.WO_IOS) for seed in range(6)]
    cfg = RunConfig(gamma_down=np.full(3, 0.5), gamma_up=np.full(3, 0.5),
                    noise_users=np.full(3, 1e-8), noise_rx=1e-8, p_b=10.0, p_u=10 ** 0.5,
                    max_outer_iters=11)
    group = run_group(chs, cfg, scheme)
    for ch, res in zip(chs, group):
        alone = run_algorithm2(ch, cfg, scheme)
        _same_run(res, alone)
        t, u = res.trace, alone.trace
        assert (t.pgd_iters, t.pgd_cap_exits, t.extrapolations_accepted,
                t.extrapolations_rejected) == (u.pgd_iters, u.pgd_cap_exits,
                                               u.extrapolations_accepted,
                                               u.extrapolations_rejected)
    ends = {res.trace.terminated_by for res in group}
    assert ends == {"tolerance", "max_iters"}
    assert len({res.trace.iterations for res in group}) > 2


@pytest.mark.parametrize("scheme", SCHEMES[:2], ids=lambda s: s.label)
def test_zero_cap_returns_the_rated_start_points(scheme):
    """Under a cap of 0 iterations no run takes a step: each of three draws
    returns its start point rated alone, with one rate and no multipliers."""
    layout = build_layout(reference_geometry(L=16, K=3))
    chs = [sample_channels(layout, FadingParams.from_db(3.0), seed) for seed in range(3)]
    cfg = RunConfig(gamma_down=np.full(3, 0.5), gamma_up=np.full(3, 0.5),
                    noise_users=np.full(3, 1e-8), noise_rx=1e-8, p_b=10.0, p_u=10 ** 0.5,
                    max_outer_iters=0)
    for ch, res in zip(chs, run_group(chs, cfg, scheme)):
        bf, ios = apply_scheme(scheme, ch, cfg)
        links = LinkSet.at(compose_effective(ch, ios), bf, cfg.noise_users, cfg.noise_rx)
        rate = weighted_sum_rate(links, cfg.gamma_down, cfg.gamma_up).weighted_sum
        assert np.array_equal(res.beamformers.v_d, bf.v_d)
        assert np.array_equal(res.beamformers.v_u, bf.v_u)
        assert np.array_equal(res.ios.coef, ios.coef)
        assert res.report.weighted_sum == rate
        assert (res.trace.iterations, res.trace.terminated_by) == (0, "max_iters")
        assert res.trace.rates == [rate]
        assert res.duals is None


class InProcess:
    """Stand-in for the process pool that maps the jobs in this process."""
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_campaign_output_ignores_chunking_and_workers(monkeypatch):
    """Every chunking of the groups, in this process and on two workers,
    writes the same rows (apart from wall_ms) and traces."""
    cfg = config_from_dict(tiny_config(schemes=["DS_IOS", "WO_IOS"], seeds=[3, 4, 5, 6, 7],
                                       sweep={"axis": "P_B", "values": [0.0, 10.0]}))
    rows, traces = run_campaign(cfg, threads=1)
    want = (strip_wall(iosfd.campaign.rows_to_csv(rows)), traces)
    assert len(campaign_jobs(cfg, 1)) == 4
    assert len(run_campaign(cfg, threads=2)[0]) == 20
    got = [run_campaign(cfg, threads=2)]
    monkeypatch.setattr(iosfd.campaign, "ProcessPoolExecutor", InProcess)
    for threads in (2, 3, 4, 5, 64):
        jobs = campaign_jobs(cfg, threads)
        assert len(jobs) == min(JOBS_PER_WORKER * threads, 20)
        chunks = {}
        for _, scheme, value, seeds in jobs:
            chunks.setdefault((scheme.label, value), []).append(seeds)
        for parts in chunks.values():       # near-equal, consecutive, covering the seeds
            assert sum(parts, []) == cfg.seeds
            assert max(map(len, parts)) - min(map(len, parts)) <= 1
        got.append(run_campaign(cfg, threads=threads))
    for rows, traces in got:
        assert (strip_wall(iosfd.campaign.rows_to_csv(rows)), traces) == want


@pytest.mark.parametrize("error", (NumericalError, ConvergenceError))
def test_failing_seed_is_named(monkeypatch, error):
    """A surface solve that fails for one seed of a four-seed group stops
    the group, and the error names the scheme, the sweep value and that seed."""
    solve = iosfd.algorithm.solve_qcqp
    calls, bad = [], []

    def failing(pq, init, settings):
        calls.append(pq.lin.tobytes())
        if len(calls) == 3:
            bad.append(calls[-1])              # the third seed's first surface solve
        if calls[-1] in bad:
            raise error("stub failure")
        return solve(pq, init, settings)
    monkeypatch.setattr(iosfd.algorithm, "solve_qcqp", failing)
    cfg = config_from_dict(tiny_config(seeds=[10, 11, 12, 13],
                                       sweep={"axis": "P_B", "values": [5.0]}))
    with pytest.raises(error, match=r"^DS_IOS, sweep value 5\.0, seed 12: stub failure$"):
        run_campaign(cfg, threads=1)


def test_failure_not_reproduced_alone_names_the_job_seeds(monkeypatch):
    """A batched step that fails only while several seeds are stacked has
    no single failing seed: the error names every seed of the job."""
    update = iosfd.algorithm.update_beamformers

    def failing(eff, *args, **kwargs):
        if eff.h_kd.shape[0] > 1:
            raise NumericalError("stub failure")
        return update(eff, *args, **kwargs)
    monkeypatch.setattr(iosfd.algorithm, "update_beamformers", failing)
    cfg = config_from_dict(tiny_config(seeds=[10, 11, 12]))
    with pytest.raises(NumericalError, match=r"^DS_IOS, seeds \[10, 11, 12\]: stub failure$"):
        run_campaign(cfg, threads=1)


QUANTIZED_SS = SchemeSpec(Scheme.SS_IOS, quantization_bits=4)
AXIS_VALUES = {"L": [2, 4], "P_B": [0.0, 10.0], "P_U": [0.0, 10.0],
               "tx_ios_distance": [0.5, 2.0]}


def _cells_at(cfg, scheme, value):
    """Rows (without sweep value and wall_ms) and traces of one value's group."""
    cells = run_cells(cfg, scheme, (value,), cfg.seeds)
    return [(dataclasses.replace(row, sweep_value=None, wall_ms=0.0), trace)
            for _, row, trace in cells]


def test_unread_axes_give_the_same_cells():
    """The sharing rule's tripwire: every (scheme, axis) pair `reads_axis`
    calls unread gives the same rows and traces at two sweep values solved
    as separate groups, and the pairs it calls unread are exactly SS_IOS
    (quantized or not) under P_B and WO_IOS under the surface distance.
    WO_IOS under L and SS_IOS under P_U still differ: WO_IOS draws new
    channels at each L, so L may join the rule only on purpose."""
    unread = set()
    for scheme in SCHEMES + (QUANTIZED_SS,):
        for axis, values in AXIS_VALUES.items():
            if reads_axis(scheme, axis):
                continue
            unread.add((scheme.label, axis))
            cfg = config_from_dict(tiny_config(seeds=[1, 2],
                                               sweep={"axis": axis, "values": values}))
            assert _cells_at(cfg, scheme, values[0]) == _cells_at(cfg, scheme, values[1])
    assert unread == {("SS_IOS", "P_B"), ("SS_IOS_q4", "P_B"), ("WO_IOS", "tx_ios_distance")}
    for label, axis in (("WO_IOS", "L"), ("SS_IOS", "P_U")):
        scheme = SchemeSpec(label)
        cfg = config_from_dict(tiny_config(seeds=[1, 2],
                                           sweep={"axis": axis, "values": AXIS_VALUES[axis]}))
        first, second = (_cells_at(cfg, scheme, v) for v in AXIS_VALUES[axis])
        assert all(a[0].weighted_sum_rate != b[0].weighted_sum_rate
                   for a, b in zip(first, second))


@pytest.mark.parametrize("axis, shared", (("P_B", "SS_IOS"), ("tx_ios_distance", "WO_IOS")))
def test_shared_groups_write_the_per_value_output(tmp_path, monkeypatch, axis, shared):
    """Over a sweep that one scheme does not read, the campaign solves that
    scheme once per seed and writes the results.csv (apart from wall_ms),
    traces and config echo that solving every (scheme, value) group on its
    own writes, in this process and on two workers.  Each job's rows sum to
    its wall time, read from a clock that ticks one second per reading."""
    cfg = config_from_dict(tiny_config(schemes=["DS_IOS", "SS_IOS", "WO_IOS"], seeds=[3, 4, 5],
                                       sweep={"axis": axis, "values": AXIS_VALUES[axis]}))
    monkeypatch.setattr(iosfd.campaign, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(iosfd.campaign, "time", SimpleNamespace(
        perf_counter=itertools.count().__next__))
    solved, jobs = [], []
    group, worker = iosfd.campaign.run_group, iosfd.campaign._worker
    monkeypatch.setattr(iosfd.campaign, "run_group", lambda chs, rc, scheme: (
        solved.extend([scheme.label] * len(chs)) or group(chs, rc, scheme)))
    monkeypatch.setattr(iosfd.campaign, "_worker", lambda job: (
        jobs.append((job, worker(job))) or jobs[-1][1]))

    def output(out, threads):
        base = write_campaign(cfg, tmp_path / out, threads=threads)
        traces = {p.name: p.read_text() for p in (base / "traces").iterdir()}
        return (strip_wall((base / "results.csv").read_text()), traces,
                (base / "config.echo.json").read_text())

    with monkeypatch.context() as alone:
        alone.setattr(iosfd.campaign, "reads_axis", lambda scheme, axis: True)
        want = output("alone", 1)
    assert solved.count(shared) == 2 * len(cfg.seeds)
    for threads in (1, 2):
        del solved[:], jobs[:]
        assert output(f"threads{threads}", threads) == want
        assert solved.count(shared) == len(cfg.seeds)
        assert solved.count("DS_IOS") == 2 * len(cfg.seeds)
        for (_, _, values, seeds), cells in jobs:
            assert len(cells) == len(values) * len(seeds)
            assert sum(row.wall_ms for _, row, _ in cells) == pytest.approx(1e3)
    assert len(want[1]) == 3 * 2 * len(cfg.seeds)


@pytest.mark.parametrize("error", (NumericalError, ConvergenceError))
def test_failing_seed_of_a_shared_group_is_named(monkeypatch, error):
    """A surface solve that fails for one seed of a group shared by two
    P_B values names the scheme, both values and that seed."""
    solve = iosfd.algorithm.solve_qcqp
    calls, bad = [], []

    def failing(pq, init, settings):
        calls.append(pq.lin.tobytes())
        if len(calls) == 3:
            bad.append(calls[-1])              # the third seed's first surface solve
        if calls[-1] in bad:
            raise error("stub failure")
        return solve(pq, init, settings)
    monkeypatch.setattr(iosfd.algorithm, "solve_qcqp", failing)
    cfg = config_from_dict(tiny_config(schemes=["SS_IOS"], seeds=[10, 11, 12, 13],
                                       sweep={"axis": "P_B", "values": [0.0, 5.0]}))
    with pytest.raises(error, match=r"^SS_IOS, sweep values \[0\.0, 5\.0\], seed 12: "
                                    r"stub failure$"):
        run_campaign(cfg, threads=1)


def test_shared_group_checks_every_layout():
    """A surface distance whose layout is invalid fails a scheme that does
    not read the distance too, as it does when each value is solved alone:
    the config is rejected when it is loaded, naming the value."""
    with pytest.raises(ConfigError, match=r"sweep.values\[1\].*rx/ios"):
        config_from_dict(tiny_config(
            schemes=["WO_IOS"], sweep={"axis": "tx_ios_distance", "values": [1.0, 2.0]},
            scenario={**tiny_config()["scenario"], "ios_anchor": [1.0, 0.0, 5.0],
                      "rx_anchor": [2.0, 0.0, 5.0]}))


def test_shared_group_builds_one_layout(monkeypatch):
    """Loading a distance sweep builds every value's layout; a job of a
    group shared by all values then builds only the first value's."""
    built = []
    build = iosfd.campaign.build_layout
    monkeypatch.setattr(iosfd.campaign, "build_layout",
                        lambda geo: built.append(tuple(geo.ios_anchor)) or build(geo))
    cfg = config_from_dict(tiny_config(
        schemes=["WO_IOS"], sweep={"axis": "tx_ios_distance", "values": [0.5, 1.0, 2.0]}))
    assert len(set(built)) == len(built) == 3
    first = built[0]
    built.clear()
    rows, _ = run_campaign(cfg, threads=1)
    assert built == [first] and len(rows) == 3


def test_widest_jobs_start_first():
    """On two workers, a campaign shaped like the WO_IOS / SS_IOS P_B sweep
    over 20 seeds hands the pool its jobs widest chunk first, so the shared
    SS_IOS group is among the first two jobs started."""
    cfg = config_from_dict(tiny_config(schemes=["WO_IOS", "SS_IOS"], seeds=list(range(20)),
                                       sweep={"axis": "P_B", "values": [0.0, 5.0, 10.0, 15.0]}))
    jobs = campaign_jobs(cfg, 2)
    widths = [len(seeds) for _, _, _, seeds in jobs]
    assert widths == sorted(widths, reverse=True)
    assert [(scheme.label, values) for _, scheme, values, _ in jobs[:2]].count(
        ("SS_IOS", (0.0, 5.0, 10.0, 15.0))) == 1
