"""Workload inputs, measured rounds and the metrics computed from them.

A workload is a campaign-style JSON config under `configs/`.  Its seed list
is a fixed pool; a run's `--seed` picks where in the pool a round starts, so
every round of every run solves the same channel draws (see README.md).
"""
from __future__ import annotations

import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import iosfd
import iosfd.algorithm
import iosfd.campaign

import checks
from tracing import BLOCKS, Tracer

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
OUT = HERE / "out"

# name -> whether the workload goes through write_campaign
WORKLOADS = {"ds-ref-L64": False, "ds-close-L256": False, "campaign-wo-ss": True}

END_TO_END = (("setup_s", "s"), ("runs_per_s", "runs/s"), ("ms_per_iter", "ms"),
              ("outer_iters", "count"), ("mean_wsr", "bit/s/Hz"), ("peak_rss_mb", "MB"))


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def rotate(seeds: list[int], start: int) -> list[int]:
    """The pool, starting at index `start` mod its length."""
    return [seeds[(start + i) % len(seeds)] for i in range(len(seeds))]


def geometry(cfg) -> iosfd.GeometryConfig:
    sc = cfg.scenario
    return iosfd.GeometryConfig(
        n_tx=sc.n_tx, n_rx=sc.n_rx, n_elements=sc.l_elements,
        n_user_tx=sc.n_user_tx, n_user_rx=sc.n_user_rx,
        tx_anchor=np.asarray(sc.tx_anchor, float), rx_anchor=np.asarray(sc.rx_anchor, float),
        ios_anchor=np.asarray(sc.ios_anchor, float),
        user_anchors=np.asarray(sc.user_anchors, float),
        wavelength=cfg.physics.wavelength_m)


def fading(cfg) -> iosfd.FadingParams:
    ph = cfg.physics
    return iosfd.FadingParams.from_db(
        ph.rician_factor_db, pathloss_exponent=ph.pathloss_exponent,
        gain_exponent_tx=ph.gain_exponent_tx, gain_exponent_rx=ph.gain_exponent_rx,
        uu_free_space=ph.uu_free_space)


def run_config(cfg, p_b_dbm: float) -> iosfd.RunConfig:
    K = cfg.scenario.k_users
    noise = dbm_to_mw(cfg.physics.noise_dbm)
    so = cfg.solver
    return iosfd.RunConfig(
        gamma_down=np.full(K, cfg.weights.downlink), gamma_up=np.full(K, cfg.weights.uplink),
        noise_users=np.full(K, noise), noise_rx=noise,
        p_b=dbm_to_mw(p_b_dbm), p_u=dbm_to_mw(cfg.powers.p_u_dbm),
        eps_w=so.eps_w, eps_b=so.eps_b, max_outer_iters=so.max_outer_iters,
        pgd=iosfd.PgdSettings(so.pgd_max_iters, so.pgd_tolerance),
        divergence_rel_tol=so.divergence_rel_tol)


@dataclass
class Inputs:
    name: str
    seed: int
    cfg: object                 # iosfd CampaignConfig, seeds rotated
    channels: list = field(default_factory=list)   # one per seed (solver workloads)

    @property
    def is_campaign(self) -> bool:
        return WORKLOADS[self.name]

    def grid(self) -> list[tuple[str, str, str]]:
        """(scheme label, sweep value, seed) of every run, as results.csv spells them."""
        values = self.cfg.sweep.values if self.cfg.sweep.axis != "none" else [None]
        return [(s.label, "" if v is None else repr(float(v)), str(seed))
                for s in self.cfg.schemes for v in values for seed in self.cfg.seeds]


def prepare(name: str, seed: int) -> Inputs:
    """Config parsing plus build_layout and sample_channels for every run."""
    cfg = iosfd.load_config(CONFIGS / f"{name}.json")
    if cfg.sweep.axis not in ("none", "P_B"):
        raise ValueError("workload sweeps may only change P_B, which keeps the layout")
    cfg.seeds = rotate(cfg.seeds, seed)
    inp = Inputs(name, seed, cfg)
    n_values = len(cfg.sweep.values) if cfg.sweep.axis != "none" else 1
    for scheme in cfg.schemes:
        for _ in range(n_values):
            for s in cfg.seeds:
                layout = iosfd.build_layout(geometry(cfg))
                ch = iosfd.sample_channels(layout, fading(cfg), s,
                                           include_direct=scheme.kind is iosfd.Scheme.WO_IOS)
                if not inp.is_campaign:
                    inp.channels.append(ch)
    return inp


@dataclass
class Round:
    wall_s: float                       # round wall time, after set-up
    run_s: dict                         # wall time of each run that did not fail, by run
    iterations: int = 0
    rates: list[float] = field(default_factory=list)
    failed: int = 0                     # runs that raised or failed a check
    wrong: int = 0                      # runs that failed a check
    fingerprint: list = field(default_factory=list)   # must repeat across rounds
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.run_s) + self.failed


def solver_round(inp: Inputs) -> Round:
    cfg = inp.cfg
    rc = run_config(cfg, cfg.powers.p_b_dbm)
    scheme = cfg.schemes[0]
    outcomes = []
    start = time.perf_counter()
    for seed, ch in zip(cfg.seeds, inp.channels):
        t0 = time.perf_counter()
        try:
            res = iosfd.algorithm.run_algorithm2(ch, rc, scheme)
        except Exception:   # one failed run must not stop the benchmark
            outcomes.append((seed, ch, None, traceback.format_exc(limit=2)))
            continue
        outcomes.append((seed, ch, res, time.perf_counter() - t0))
    rnd = Round(time.perf_counter() - start, {})
    for seed, ch, res, dt in outcomes:
        errors = [dt] if res is None else checks.check_run(ch, rc, res)
        if errors:
            rnd.failed += 1
            rnd.wrong += res is not None
            rnd.errors += [f"seed {seed}: {e}" for e in errors]
            continue
        rnd.run_s[seed] = dt
        rnd.iterations += res.trace.iterations
        rnd.rates.append(res.report.weighted_sum)
        rnd.fingerprint.append((seed, res.trace.iterations, res.trace.terminated_by,
                                res.report.weighted_sum))
    rnd.fingerprint.sort()
    return rnd


def campaign_round(inp: Inputs, threads: int) -> Round:
    cfg = inp.cfg
    out_dir = OUT / inp.name
    shutil.rmtree(out_dir, ignore_errors=True)
    grid = inp.grid()
    start = time.perf_counter()
    try:
        base = iosfd.campaign.write_campaign(cfg, out_dir, threads=threads)
    except Exception:   # write_campaign loses every cell when one raises
        return Round(time.perf_counter() - start, {}, failed=len(grid),
                     errors=[traceback.format_exc(limit=2)])
    rnd = Round(time.perf_counter() - start, {})
    rc = run_config(cfg, cfg.powers.p_b_dbm)
    rows, traces = checks.read_campaign(base)
    per_cell, whole = checks.check_campaign(rows, traces, grid, rc.gamma_down, rc.gamma_up,
                                            cfg.solver.max_outer_iters)
    rnd.errors += whole
    rows = {(r["scheme"], r["sweep_value"], r["seed"]): r for r in rows}
    for key in grid:
        if per_cell[key] or whole:
            rnd.failed += 1
            rnd.wrong += 1
            rnd.errors += [f"{key}: {e}" for e in per_cell[key]]
            continue
        row = rows[key]
        rnd.run_s[key] = float(row["wall_ms"]) / 1e3
        rnd.iterations += int(row["iterations"])
        rnd.rates.append(float(row["weighted_sum_rate"]))
        rnd.fingerprint.append((key, row["iterations"], row["terminated_by"],
                                row["weighted_sum_rate"]))
    return rnd


def run_round(inp: Inputs, threads: int) -> Round:
    return campaign_round(inp, threads) if inp.is_campaign else solver_round(inp)


def run_rounds(inp: Inputs, seconds: float, threads: int) -> list[Round]:
    """Whole rounds while another one is expected to end within `seconds`
    (at least one), so a run's length does not depend on machine speed.

    A round whose outputs differ from the first round's is counted as failed:
    the program promises identical results across reruns.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        rnd = run_round(inp, threads)
        if rounds and rnd.fingerprint != rounds[0].fingerprint and not rnd.failed:
            rnd.errors.append("outputs differ from the first round")
            rnd.failed = rnd.wrong = rnd.attempted
            rnd.run_s = {}
        rounds.append(rnd)
    return rounds


def _ms_per_iter(rnd: Round) -> float:
    return 1e3 * sum(rnd.run_s.values()) / max(rnd.iterations, 1)


def _runs_per_s(rnd: Round) -> float:
    # a solver round's wall is its runs' wall; a campaign's is write_campaign's
    return len(rnd.run_s) / rnd.wall_s


def median_run_s(rounds: list[Round]) -> float:
    """Median over runs of each run's median time across rounds.

    Taking each run's own median first keeps the result on one run's time
    instead of letting round-to-round noise pick between two runs' times.
    """
    per_run: dict = {}
    for rnd in rounds:
        for key, t in rnd.run_s.items():
            per_run.setdefault(key, []).append(t)
    return statistics.median(statistics.median(ts) for ts in per_run.values())


def end_to_end(rounds: list[Round], setup_s: float, peak_rss_mb: float) -> dict:
    ok = [r for r in rounds if r.run_s]
    if not ok:
        return {}
    return {
        "setup_s": setup_s,
        "runs_per_s": statistics.median(_runs_per_s(r) for r in ok),
        "ms_per_iter": statistics.median(_ms_per_iter(r) for r in ok),
        "outer_iters": ok[0].iterations,
        "mean_wsr": statistics.fmean(ok[0].rates),
        "peak_rss_mb": peak_rss_mb,
    }


# -- per-layer ----------------------------------------------------------------

PER_LAYER = (
    ("channels.sample_ms", "ms"), ("algorithm.cap_exits", "count"),
    ("algorithm.self_ms", "ms"), ("wmmse.update_state_ms", "ms"),
    ("wmmse.surrogate_ms", "ms"), ("beamformers.update_ms", "ms"),
    ("beamformers.probes_per_update", "count"), ("phases.build_ms", "ms"),
    ("phases.vectorize_ms", "ms"), ("phases.solve_ms", "ms"),
    ("phases.pgd_trials_per_solve", "count"), ("phases.form_mb", "MB"),
    ("system.compose_ms", "ms"), ("system.rate_ms", "ms"),
    ("linalg.ridge_retries", "count"), ("campaign.cell_ms_median", "ms"),
    ("campaign.worker_busy", "ratio"), ("campaign.write_ms", "ms"),
    ("trace.overhead_pct", "%"), ("trace.accounted_pct", "%"),
)


def traced(inp: Inputs, seconds: float, threads: int) -> tuple[dict, list[Round]]:
    """One untraced round for the overhead baseline, then traced rounds."""
    baseline = run_round(inp, threads)
    dump_dir = OUT / f"{inp.name}-trace"
    shutil.rmtree(dump_dir, ignore_errors=True)
    dump_dir.mkdir(parents=True)
    tracer = Tracer()
    tracer.install(dump_dir)
    try:
        t0 = time.perf_counter()
        if not inp.is_campaign:   # campaign cells draw their own channels, traced in workers
            inp = prepare(inp.name, inp.seed)
        rounds = run_rounds(inp, max(seconds - (time.perf_counter() - t0), 0.0), threads)
    finally:
        tracer.uninstall()
    tracer.merge_dumps(dump_dir)
    return layer_metrics(tracer, baseline, rounds, inp.is_campaign, threads), [baseline] + rounds


def layer_metrics(tr: Tracer, baseline: Round, rounds: list[Round], campaign: bool,
                  threads: int) -> dict:
    ms, calls, counts = tr.ms, tr.calls, tr.counts
    iters = max(counts["algorithm.iterations"], 1)
    n_rounds = len(rounds)
    run_s = [t for r in rounds for t in r.run_s.values()]
    if not run_s or not baseline.run_s:
        return {}
    solve_ms = 1e3 * sum(run_s)

    metrics = {
        "channels.sample_ms": (ms["channels.layout"] + ms["channels.sample"])
        / max(calls["channels.sample"], 1),
        "algorithm.cap_exits": counts["algorithm.cap_exits"] / n_rounds,
        "algorithm.self_ms": (ms["algorithm.run"] - sum(ms[b] for b in BLOCKS)) / iters,
        "beamformers.probes_per_update":
            counts["beamformers.probes"] / max(calls["beamformers.update"], 1),
        "phases.pgd_trials_per_solve":
            counts["phases.pgd_trials"] / max(calls["phases.solve"], 1),
        "phases.form_mb": tr.form_bytes / 1e6,
        "linalg.ridge_retries": counts["linalg.ridge_retries"] / n_rounds,
        "campaign.cell_ms_median": 1e3 * median_run_s(rounds),
        "trace.overhead_pct": 100.0 * (statistics.median(_ms_per_iter(r) for r in rounds)
                                       / _ms_per_iter(baseline) - 1.0),
    }
    for block in BLOCKS:
        metrics[f"{block}_ms"] = ms[block] / iters
    if campaign:
        pool_s = ms["campaign.run"] / 1e3
        metrics["campaign.worker_busy"] = sum(run_s) / (pool_s * threads)
        metrics["campaign.write_ms"] = (ms["campaign.write"] - ms["campaign.run"]) / n_rounds
        # cells also build their layout and draw their channels
        inside = ms["algorithm.run"] + ms["channels.layout"] + ms["channels.sample"]
    else:
        metrics["campaign.worker_busy"] = sum(run_s) / sum(r.wall_s for r in rounds)
        metrics["campaign.write_ms"] = 0.0
        inside = ms["algorithm.run"]
    metrics["trace.accounted_pct"] = 100.0 * inside / solve_ms
    return {name: metrics[name] for name, _ in PER_LAYER}
