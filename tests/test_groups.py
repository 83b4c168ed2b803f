"""Seed-batched runs give every seed the bits of its run alone.

`run_group` maps the points of all running seeds with one `outer_step` on
stacked arrays.  These tests pin that down at three levels: the numpy
operations the batched step relies on, the vectorized multiplier search,
and whole runs and campaigns.
"""
import numpy as np
import pytest

import iosfd.algorithm
import iosfd.campaign
from iosfd import (FadingParams, NumericalError, RunConfig, Scheme, SchemeSpec,
                   bisect_multiplier, build_layout, run_algorithm2, run_group,
                   sample_channels)
from iosfd.campaign import (JOBS_PER_WORKER, campaign_jobs, config_from_dict,
                            run_campaign)
from iosfd.errors import ConvergenceError
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


def test_vectorized_search_makes_the_scalar_probes():
    """All random brackets searched at once: each search probes the
    multipliers, in order, that the scalar search probes, and returns its
    multiplier bit for bit; waiting and finished searches see NaN."""
    maps = _random_power_maps(np.random.default_rng(31), 120)
    want, want_probes = [], []
    for power, _, budget in maps:
        calls = []
        want.append(bisect_multiplier_scalar(lambda m: calls.append(m) or power(m), budget))
        want_probes.append(calls)
    probes = [[] for _ in maps]

    def powers(mu):
        out = np.full(len(maps), np.nan)
        for j, m in enumerate(mu.tolist()):
            if not np.isnan(m):
                probes[j].append(m)
                out[j] = maps[j][0](m)
        return out
    got = bisect_multiplier(powers, np.array([budget for _, _, budget in maps]))
    assert np.array_equal(got, np.array(want))
    assert probes == want_probes
    assert sum(map(len, probes)) > 5 * len(maps)       # the searches do take steps


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


def test_campaign_output_ignores_chunking_and_workers(monkeypatch):
    """Every chunking of the groups, in this process and on two workers,
    writes the same rows (apart from wall_ms) and traces."""
    cfg = config_from_dict(tiny_config(schemes=["DS_IOS", "WO_IOS"], seeds=[3, 4, 5, 6, 7],
                                       sweep={"axis": "P_B", "values": [0.0, 10.0]}))
    rows, traces = run_campaign(cfg, threads=1)
    want = (strip_wall(iosfd.campaign.rows_to_csv(rows)), traces)
    assert len(campaign_jobs(cfg, 1)) == 4
    assert len(run_campaign(cfg, threads=2)[0]) == 20

    class InProcess:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)
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

    def failing(pq, init, settings, sides):
        calls.append(pq.lin.tobytes())
        if len(calls) == 3:
            bad.append(calls[-1])              # the third seed's first surface solve
        if calls[-1] in bad:
            raise error("stub failure")
        return solve(pq, init, settings, sides)
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
