"""Monte-Carlo campaign runner: config parsing, sweeps, seeds, CSV output.

A campaign is a grid of (scheme, sweep value, seed) runs.  A scheme whose
problem does not change along the sweep axis (`reads_axis`: P_B without a
downlink, the surface distance without a surface) has one group for all
sweep values, and every other scheme one group per value.  The seeds of a
group share their config and layout, so a job builds the layout once and
solves its seeds as one batched `run_group`, writing each solved cell under
every value of its group; on a pool, groups are split into chunks of seeds
until there are a few jobs per worker.  Runs are pure functions of the
resolved config, and a run's result does not depend on the seeds it is
batched with, so the result set is deterministic and can be farmed out to a
process pool; rows are sorted canonically before writing, which makes the
output independent of worker count and chunking.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .algorithm import RunConfig, Scheme, SchemeSpec, run_group
# bound here for perfbench's tracer, which wraps it by name in this module
from .algorithm import run_algorithm2  # noqa: F401
from .channels import FadingParams, link_distances, sample_channels
from .errors import ConfigError, ConvergenceError, GeometryError, NumericalError
from .geometry import GeometryConfig, build_layout
from .phases import PgdSettings

SWEEP_AXES = ("none", "L", "P_B", "P_U", "tx_ios_distance")
# A few jobs per pool worker: a group's cost depends on which of its seeds
# run long (a capped run can cost a hundred short ones), so whole groups
# alone would leave the last worker with the heaviest one; smaller chunks
# give up some of the batching.
JOBS_PER_WORKER = 4
# A run's arrays grow with these counts (channels as K x L x N, surface
# factors as L x (K N)^2), so larger values would ask for more memory than a
# run can get, or for arrays numpy cannot index.
MAX_ANTENNAS = 64
MAX_ELEMENTS = 2 ** 17


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


@dataclass
class ScenarioConfig:
    k_users: int = 3
    n_tx: int = 2
    n_rx: int = 2
    n_user_tx: int = 2
    n_user_rx: int = 2
    l_elements: int = 64
    tx_anchor: list = field(default_factory=lambda: [0.0, 0.0, 5.0])
    rx_anchor: list = field(default_factory=lambda: [0.0, 1.0, 5.0])
    ios_anchor: list = field(default_factory=lambda: [1.0, 1.0, 5.0])
    user_anchors: list = field(default_factory=lambda: [[20.0, 20.0, 1.5],
                                                        [25.0, -35.0, 1.5],
                                                        [35.0, -25.0, 1.5]])


@dataclass
class PhysicsConfig:
    wavelength_m: float = 0.05
    pathloss_exponent: float = 2.5
    rician_factor_db: float = 3.0
    noise_dbm: float = -80.0
    gain_exponent_tx: float = 2.0
    gain_exponent_rx: float = 2.0
    uu_free_space: bool = True


@dataclass
class PowersConfig:
    p_b_dbm: float = 10.0
    p_u_dbm: float = 5.0


@dataclass
class WeightsConfig:
    downlink: float = 0.5
    uplink: float = 0.5


@dataclass
class SolverSettings:
    eps_w: float = 1e-4
    eps_b: float = 1e-4
    max_outer_iters: int = 500
    pgd_max_iters: int = 500
    pgd_tolerance: float = 1e-8
    divergence_rel_tol: float = 1e-6


@dataclass
class SweepSpec:
    axis: str = "none"
    values: list = field(default_factory=list)


@dataclass
class CampaignConfig:
    name: str = "campaign"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    powers: PowersConfig = field(default_factory=PowersConfig)
    weights: WeightsConfig = field(default_factory=WeightsConfig)
    solver: SolverSettings = field(default_factory=SolverSettings)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    schemes: list[SchemeSpec] = field(default_factory=lambda: [SchemeSpec(Scheme.DS_IOS)])
    seeds: list[int] = field(default_factory=lambda: [0])


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(value: Any, template: Any, path: str) -> Any:
    try:
        if isinstance(template, (bool, str, list)):
            if not isinstance(value, type(template)):
                raise TypeError
            return value
        if isinstance(value, (bool, str)):  # JSON true/false and strings are not numbers
            raise TypeError
        if isinstance(template, int):
            if isinstance(value, float) and value != int(value):
                raise TypeError
            return int(value)
        if isinstance(template, float):
            if not np.isfinite(float(value)):
                raise ValueError
            return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: expected {type(template).__name__}, got {value!r}") from None
    return value


def _fill_dataclass(obj: Any, data: Any, path: str) -> Any:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    valid = {f.name for f in dataclasses.fields(obj)}
    for key, value in data.items():
        if key not in valid:
            raise ConfigError(f"{path}.{key}: unknown field")
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current):
            _fill_dataclass(current, value, f"{path}.{key}")
        else:
            setattr(obj, key, _coerce(value, current, f"{path}.{key}"))
    return obj


def _parse_scheme(entry: Any, path: str) -> SchemeSpec:
    try:
        if isinstance(entry, str):
            return SchemeSpec(entry)
        if isinstance(entry, dict):
            if entry.get("kind") is None:
                raise ValueError("missing 'kind'")
            extra = set(entry) - {f.name for f in dataclasses.fields(SchemeSpec)}
            if extra:
                raise ValueError(f"unknown fields {sorted(extra)}")
            return SchemeSpec(**entry)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}: expected scheme name or object")


def _parse_seeds(data: Any, path: str) -> list[int]:
    if isinstance(data, list):
        if not data or not all(_is_int(s) and s >= 0 for s in data):
            raise ConfigError(f"{path}: expected a nonempty list of integers >= 0")
        return list(data)
    if isinstance(data, dict):
        extra = set(data) - {"base", "count"}
        if extra:
            raise ConfigError(f"{path}.{sorted(extra)[0]}: unknown field")
        base = data.get("base", 0)
        count = data.get("count", 1)
        if not _is_int(base) or base < 0:
            raise ConfigError(f"{path}.base: expected an integer >= 0, got {base!r}")
        if not _is_int(count) or count < 1:
            raise ConfigError(f"{path}.count: expected an integer >= 1, got {count!r}")
        return [base + i for i in range(count)]
    raise ConfigError(f"{path}: expected a list or {{base, count}}")


def config_from_dict(data: dict) -> CampaignConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root: expected an object")
    cfg = CampaignConfig()
    for key, value in data.items():
        if key == "name":
            if not isinstance(value, str) or not value:
                raise ConfigError("name: expected a nonempty string")
            if value in (".", "..") or any(c in value for c in "/\\\0"):
                raise ConfigError(f"name: must be one path component inside --out, "
                                  f"got {value!r}")
            cfg.name = value
        elif key in ("scenario", "physics", "powers", "weights", "solver", "sweep"):
            _fill_dataclass(getattr(cfg, key), value, key)
        elif key == "schemes":
            if not isinstance(value, list) or not value:
                raise ConfigError("schemes: expected a nonempty list")
            cfg.schemes = [_parse_scheme(e, f"schemes[{i}]") for i, e in enumerate(value)]
        elif key == "seeds":
            cfg.seeds = _parse_seeds(value, "seeds")
        else:
            raise ConfigError(f"{key}: unknown field")
    validate_config(cfg)
    return cfg


def _is_finite_number(x: Any) -> bool:
    """An int or float, not a bool, whose float value is finite; a JSON
    integer too large for a float is not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_point(value: Any) -> bool:
    """A list of 3 finite numbers (a position in metres)."""
    return isinstance(value, list) and len(value) == 3 and all(map(_is_finite_number, value))


def _reject_repeats(path: str, what: str, items: list) -> None:
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{path}[{i}]: {what} {item} repeats {path}[{items.index(item)}]")


def _is_count(value: Any, cap: int) -> bool:
    """An integer-valued int or float in [1, cap], not a bool."""
    return (_is_finite_number(value) and float(value).is_integer()
            and 1 <= value <= cap)


def validate_config(cfg: CampaignConfig) -> None:
    sc = cfg.scenario
    if sc.k_users < 1:
        raise ConfigError("scenario.k_users: must be >= 1")
    for name, cap in (("n_tx", MAX_ANTENNAS), ("n_rx", MAX_ANTENNAS),
                      ("n_user_tx", MAX_ANTENNAS), ("n_user_rx", MAX_ANTENNAS),
                      ("l_elements", MAX_ELEMENTS)):
        if not _is_count(getattr(sc, name), cap):
            raise ConfigError(f"scenario.{name}: must be an integer in [1, {cap}], "
                              f"got {getattr(sc, name)!r}")
    if len(sc.user_anchors) != sc.k_users:
        raise ConfigError("scenario.user_anchors: need one anchor per user")
    anchors = [("tx_anchor", sc.tx_anchor), ("rx_anchor", sc.rx_anchor),
               ("ios_anchor", sc.ios_anchor)]
    anchors += [(f"user_anchors[{i}]", a) for i, a in enumerate(sc.user_anchors)]
    for name, point in anchors:
        if not _is_point(point):
            raise ConfigError(f"scenario.{name}: expected a list of 3 finite numbers, "
                              f"got {point!r}")
    for name in ("gain_exponent_tx", "gain_exponent_rx"):
        value = getattr(cfg.physics, name)
        if not (np.isfinite(value) and value >= 0):
            raise ConfigError(f"physics.{name}: must be a finite number >= 0, got {value!r}")
    if cfg.sweep.axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis: must be one of {SWEEP_AXES}")
    if cfg.sweep.axis != "none" and not cfg.sweep.values:
        raise ConfigError("sweep.values: must be nonempty for a sweep")
    if cfg.sweep.axis == "none" and cfg.sweep.values:
        raise ConfigError("sweep.values: must be empty without a sweep axis")
    for i, value in enumerate(cfg.sweep.values):
        if not _is_finite_number(value):
            raise ConfigError(f"sweep.values[{i}]: expected a finite number, got {value!r}")
        if cfg.sweep.axis == "L" and not _is_count(value, MAX_ELEMENTS):
            raise ConfigError(f"sweep.values[{i}]: element count must be an integer in "
                              f"[1, {MAX_ELEMENTS}], got {value!r}")
        if cfg.sweep.axis == "tx_ios_distance" and not value > 0:
            raise ConfigError(f"sweep.values[{i}]: distance must be > 0, got {value!r}")
    _reject_repeats("schemes", "label", [scheme.label for scheme in cfg.schemes])
    _reject_repeats("seeds", "seed", cfg.seeds)
    _reject_repeats("sweep.values", "value", [float(v) for v in cfg.sweep.values])
    decibels = [("powers.p_b_dbm", cfg.powers.p_b_dbm), ("powers.p_u_dbm", cfg.powers.p_u_dbm),
                ("physics.noise_dbm", cfg.physics.noise_dbm),
                ("physics.rician_factor_db", cfg.physics.rician_factor_db)]
    if cfg.sweep.axis in ("P_B", "P_U"):
        decibels += [(f"sweep.values[{i}]", v) for i, v in enumerate(cfg.sweep.values)]
    for path, db in decibels:   # a zero power is a budget; a zero Rician factor is not
        try:
            out_of_range = dbm_to_mw(db) == 0.0 and path.endswith("_db")
        except OverflowError:
            out_of_range = True
        if out_of_range:
            raise ConfigError(f"{path}: {db!r} dB is outside the floating-point range")
    for name, tol in (("eps_w", cfg.solver.eps_w), ("eps_b", cfg.solver.eps_b),
                      ("pgd_tolerance", cfg.solver.pgd_tolerance)):
        if tol <= 0:
            raise ConfigError(f"solver.{name}: must be positive")
    for name in ("max_outer_iters", "pgd_max_iters"):
        if getattr(cfg.solver, name) < 1:
            raise ConfigError(f"solver.{name}: must be >= 1, got {getattr(cfg.solver, name)}")
    if not (np.isfinite(cfg.solver.divergence_rel_tol) and cfg.solver.divergence_rel_tol >= 0):
        raise ConfigError("solver.divergence_rel_tol: must be a finite number >= 0, "
                          f"got {cfg.solver.divergence_rel_tol!r}")
    if not (0.0 < cfg.weights.downlink < 1.0 and 0.0 < cfg.weights.uplink < 1.0):
        raise ConfigError("weights: rate weights must lie strictly inside (0, 1)")
    if not cfg.physics.wavelength_m > 0:
        raise ConfigError(f"physics.wavelength_m: must be > 0, got {cfg.physics.wavelength_m!r}")
    _check_layouts(cfg)


def _check_layouts(cfg: CampaignConfig) -> None:
    """Build every layout the campaign's jobs will build, and every distance
    their draws read, so that no job ends the campaign on its geometry: each
    sweep value's on an `L` or `tx_ios_distance` sweep, else the scenario's,
    with the direct links when a scheme draws them."""
    sc = cfg.scenario
    for scheme in cfg.schemes:
        if scheme.uses_surface and sc.n_user_tx != sc.n_user_rx:
            raise ConfigError(f"scenario: {scheme.label} needs n_user_tx == n_user_rx "
                              f"(reciprocal surface link), got {sc.n_user_tx} != "
                              f"{sc.n_user_rx}")
    if cfg.sweep.axis in ("L", "tx_ios_distance"):
        points = [(f"sweep.values[{i}]", v) for i, v in enumerate(cfg.sweep.values)]
    else:
        points = [("scenario", None)]
    include_direct = not all(scheme.uses_surface for scheme in cfg.schemes)
    for path, value in points:
        try:
            link_distances(_layout(cfg, _sweep_scenario(cfg, value)[0]), include_direct)
        except GeometryError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str | Path, overrides: list[tuple[str, str]] = ()) -> CampaignConfig:
    """Read a JSON config, apply `--section.field value` overrides, validate."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:   # undecodable bytes or malformed JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(apply_overrides(raw, overrides))


def apply_overrides(data: dict, overrides: list[tuple[str, str]]) -> dict:
    """Set `--section.field value` pairs into the raw config dict."""
    if not isinstance(data, dict):
        raise ConfigError("config root: expected an object")
    for flag, raw_value in overrides:
        segments = [seg.replace("-", "_") for seg in flag.split(".")]
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        node = data
        for seg in segments[:-1]:
            node = node.setdefault(seg, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{flag}: cannot override a scalar with a field path")
        node[segments[-1]] = value
    return data


@dataclass
class ResultRow:
    scheme: str
    sweep_value: float | None
    seed: int
    weighted_sum_rate: float
    r_down: list[float]
    r_up: list[float]
    iterations: int
    terminated_by: str
    wall_ms: float


def _sweep_scenario(cfg: CampaignConfig, value) -> tuple[ScenarioConfig, PowersConfig]:
    sc = dataclasses.replace(cfg.scenario)
    pw = dataclasses.replace(cfg.powers)
    axis = cfg.sweep.axis
    if axis == "none" or value is None:
        return sc, pw
    if axis == "L":
        sc.l_elements = int(value)
    elif axis == "P_B":
        pw.p_b_dbm = float(value)
    elif axis == "P_U":
        pw.p_u_dbm = float(value)
    elif axis == "tx_ios_distance":
        tx = np.asarray(sc.tx_anchor, dtype=float)
        ios = np.asarray(sc.ios_anchor, dtype=float)
        direction = ios - tx
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ConfigError("scenario: tx and ios anchors coincide; cannot sweep distance")
        sc.ios_anchor = (tx + direction / norm * float(value)).tolist()
    return sc, pw


def _layout(cfg: CampaignConfig, sc: ScenarioConfig):
    return build_layout(GeometryConfig(
        n_tx=sc.n_tx, n_rx=sc.n_rx, n_elements=sc.l_elements,
        n_user_tx=sc.n_user_tx, n_user_rx=sc.n_user_rx,
        tx_anchor=np.asarray(sc.tx_anchor, float),
        rx_anchor=np.asarray(sc.rx_anchor, float),
        ios_anchor=np.asarray(sc.ios_anchor, float),
        user_anchors=np.asarray(sc.user_anchors, float),
        wavelength=cfg.physics.wavelength_m,
    ))


def _run_config(cfg: CampaignConfig, pw: PowersConfig, k_users: int) -> RunConfig:
    gamma_down = np.full(k_users, cfg.weights.downlink)
    gamma_up = np.full(k_users, cfg.weights.uplink)
    noise = dbm_to_mw(cfg.physics.noise_dbm)
    return RunConfig(
        gamma_down=gamma_down,
        gamma_up=gamma_up,
        noise_users=np.full(k_users, noise),
        noise_rx=noise,
        p_b=dbm_to_mw(pw.p_b_dbm),
        p_u=dbm_to_mw(pw.p_u_dbm),
        eps_w=cfg.solver.eps_w,
        eps_b=cfg.solver.eps_b,
        max_outer_iters=cfg.solver.max_outer_iters,
        pgd=PgdSettings(cfg.solver.pgd_max_iters, cfg.solver.pgd_tolerance),
        divergence_rel_tol=cfg.solver.divergence_rel_tol,
    )


def reads_axis(scheme: SchemeSpec, axis: str) -> bool:
    """Whether the scheme's problem changes along the sweep axis.  P_B budgets
    only a downlink and the transmitter-surface distance moves only links
    through the surface; L and P_U are read by every scheme (WO_IOS draws its
    links after the L-sized surface ones, so each L gives it new channels)."""
    return {"P_B": scheme.uses_downlink, "tx_ios_distance": scheme.uses_surface}.get(axis, True)


def run_cells(cfg: CampaignConfig, scheme: SchemeSpec, sweep_values: tuple, seeds: list[int]
              ) -> list[tuple[tuple, ResultRow, list[float]]]:
    """The cells of some seeds of one (scheme, problem) group, as (trace key,
    row, trace); a pure function of its arguments.  The group's sweep values
    give the scheme one problem (`reads_axis`), so its seeds are solved as
    one batch at the first value, and each solved seed gives a row and a
    trace under every value; only the first value's layout is built
    (`validate_config` has built every value's).  Each row's `wall_ms` is
    the job's wall time over its row count.  A `ConvergenceError` or
    `NumericalError` is raised again naming the cell."""
    start = time.perf_counter()
    sc, pw = _sweep_scenario(cfg, sweep_values[0])
    layout = _layout(cfg, sc)
    fading = FadingParams.from_db(
        cfg.physics.rician_factor_db,
        pathloss_exponent=cfg.physics.pathloss_exponent,
        gain_exponent_tx=cfg.physics.gain_exponent_tx,
        gain_exponent_rx=cfg.physics.gain_exponent_rx,
        uu_free_space=cfg.physics.uu_free_space,
    )
    chs = [sample_channels(layout, fading, seed, include_direct=not scheme.uses_surface)
           for seed in seeds]
    try:
        results = run_group(chs, _run_config(cfg, pw, sc.k_users), scheme)
    except (ConvergenceError, NumericalError) as exc:
        index = getattr(exc, "run_index", None)
        cell = [scheme.label]
        if len(sweep_values) > 1:
            cell.append(f"sweep values {list(sweep_values)}")
        elif sweep_values[0] is not None:
            cell.append(f"sweep value {sweep_values[0]}")
        cell.append(f"seed {seeds[index]}" if index is not None else f"seeds {seeds}")
        raise type(exc)(f"{', '.join(cell)}: {exc}") from exc
    wall_ms = (time.perf_counter() - start) * 1e3 / (len(seeds) * len(sweep_values))
    return [((scheme.label, value, seed), ResultRow(
        scheme=scheme.label,
        sweep_value=None if value is None else float(value),
        seed=seed,
        weighted_sum_rate=result.report.weighted_sum,
        r_down=[float(r) for r in result.report.r_down],
        r_up=[float(r) for r in result.report.r_up],
        iterations=result.trace.iterations,
        terminated_by=result.trace.terminated_by,
        wall_ms=wall_ms,
    ), list(result.trace.rates)) for value in sweep_values for seed, result in zip(seeds, results)]


def _worker(args) -> list[tuple[tuple, ResultRow, list[float]]]:
    return run_cells(*args)


def _sweep_key(value: float | None) -> float:
    """Sort key that puts the missing sweep value first."""
    return -np.inf if value is None else value


def _chunks(seeds: list[int], parts: int) -> list[list[int]]:
    """`seeds` in `parts` consecutive chunks whose sizes differ by at most one."""
    size, extra = divmod(len(seeds), parts)
    bounds = np.cumsum([0] + [size + (i < extra) for i in range(parts)])
    return [seeds[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def campaign_jobs(cfg: CampaignConfig, threads: int = 1) -> list[tuple]:
    """One job (cfg, scheme, sweep values, seeds) per (scheme, problem) group:
    a scheme has one group per sweep value, or one for all values when it
    does not read the axis.  On more than one worker, while there are fewer
    jobs than min(JOBS_PER_WORKER * threads, groups x seeds), the group with
    the largest chunks is cut into one more near-equal chunk (the earliest on
    ties).  Jobs come widest chunk first, in grid order on ties, so a pool
    starts the longest jobs first."""
    values = cfg.sweep.values if cfg.sweep.axis != "none" else [None]
    groups = [(scheme, shared) for scheme in cfg.schemes
              for shared in ([(v,) for v in values] if reads_axis(scheme, cfg.sweep.axis)
                             else [tuple(values)])]
    seeds = list(cfg.seeds)
    parts = [1] * len(groups)
    wanted = JOBS_PER_WORKER * threads if threads > 1 else 1
    while sum(parts) < min(wanted, len(groups) * len(seeds)):
        widest = max(range(len(groups)), key=lambda g: (-(-len(seeds) // parts[g]), -g))
        parts[widest] += 1
    jobs = [(cfg, scheme, shared, chunk)
            for (scheme, shared), n in zip(groups, parts) for chunk in _chunks(seeds, n)]
    return sorted(jobs, key=lambda job: -len(job[3]))


def ProcessPoolExecutor(max_workers: int):
    """`concurrent.futures.ProcessPoolExecutor`, imported at the first pool:
    it loads `multiprocessing`, which an in-process campaign never needs.  A
    module global, so that a test can stand another pool in for it."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_campaign(cfg: CampaignConfig, threads: int = 1
                 ) -> tuple[list[ResultRow], dict[tuple, list[float]]]:
    """All cells of the campaign grid, canonically ordered."""
    jobs = campaign_jobs(cfg, threads)
    if threads > 1 and len(jobs) > 1:
        # every worker forks at the first submit, so start no more than there are jobs
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            outcomes = [cell for job in pool.map(_worker, jobs) for cell in job]
    else:
        outcomes = [cell for job in jobs for cell in _worker(job)]
    rows = sorted((row for _, row, _ in outcomes),
                  key=lambda r: (r.scheme, _sweep_key(r.sweep_value), r.seed))
    traces = {key: trace for key, _, trace in outcomes}
    return rows, traces


def _csv_text(header: list[str], rows) -> str:
    """Header plus rows; cells are str, int, float (written as repr) or None (empty)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _float_or_none(x: float | None) -> float | None:
    return None if x is None else float(x)


def results_header(k_users: int) -> list[str]:
    return (["scheme", "sweep_value", "seed", "weighted_sum_rate", "iterations",
             "terminated_by"]
            + [f"r_down_{k}" for k in range(k_users)]
            + [f"r_up_{k}" for k in range(k_users)]
            + ["wall_ms"])


def rows_to_csv(rows: list[ResultRow]) -> str:
    if not rows:
        raise ConfigError("no rows to write")
    return _csv_text(results_header(len(rows[0].r_down)), (
        [r.scheme, _float_or_none(r.sweep_value), r.seed, float(r.weighted_sum_rate),
         r.iterations, r.terminated_by, *map(float, r.r_down), *map(float, r.r_up),
         float(r.wall_ms)]
        for r in rows))


def read_results_csv(text: str) -> list[ResultRow]:
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames
    if not header:
        raise ConfigError("results file is empty")
    missing = [c for c in results_header(0) if c not in header]
    if missing:
        raise ConfigError(f"results header lacks column(s) {', '.join(missing)}")
    down_cols = [h for h in header if h.startswith("r_down_")]
    up_cols = [h for h in header if h.startswith("r_up_")]
    rows = []
    for rec in reader:
        try:
            rows.append(ResultRow(
                scheme=rec["scheme"],
                sweep_value=None if rec["sweep_value"] == "" else float(rec["sweep_value"]),
                seed=int(rec["seed"]),
                weighted_sum_rate=float(rec["weighted_sum_rate"]),
                r_down=[float(rec[h]) for h in down_cols],
                r_up=[float(rec[h]) for h in up_cols],
                iterations=int(rec["iterations"]),
                terminated_by=rec["terminated_by"],
                wall_ms=float(rec["wall_ms"]),
            ))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"results line {reader.line_num}: {exc}") from None
    return rows


def write_campaign(cfg: CampaignConfig, out_dir: str | Path, threads: int = 1) -> Path:
    """Run the campaign and lay results out under out_dir/<name>/.  The
    directories are made before any job runs; an `OSError` making them or
    writing a file is a `ConfigError` naming the path.  Once the campaign
    has succeeded, trace files of cells this run does not have are deleted."""
    base = Path(out_dir) / cfg.name
    trace_dir = base / "traces"
    try:
        trace_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {trace_dir}: {exc.strerror}") from None
    rows, traces = run_campaign(cfg, threads)
    try:
        (base / "results.csv").write_text(rows_to_csv(rows))
        (base / "config.echo.json").write_text(
            json.dumps(dataclasses.asdict(cfg), indent=2, default=str) + "\n")
        written = set()
        for (label, sweep_value, seed), trace in traces.items():
            sv = "none" if sweep_value is None else repr(float(sweep_value))
            path = trace_dir / f"{label}_{sv}_{seed}.csv"
            path.write_text(_csv_text(["iteration", "weighted_sum_rate"],
                                      ([i, float(r)] for i, r in enumerate(trace))))
            written.add(path)
        for stale in set(trace_dir.glob("*.csv")) - written:
            stale.unlink()
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from None
    return base


@dataclass
class AggregateRow:
    sweep_value: float | None
    scheme: str
    mean_rate: float
    stderr: float
    n: int


def emit_figure_data(rows: list[ResultRow]) -> list[AggregateRow]:
    """Mean and standard error of the weighted sum rate per sweep point per scheme."""
    if not rows:
        raise ConfigError("aggregation needs at least one result row")
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r.sweep_value, r.scheme), []).append(r.weighted_sum_rate)

    out = []
    for key in sorted(groups, key=lambda g: (_sweep_key(g[0]), g[1])):
        vals = np.asarray(groups[key])
        n = len(vals)
        stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        out.append(AggregateRow(key[0], key[1], float(np.mean(vals)), stderr, n))
    return out


def aggregates_to_csv(aggs: list[AggregateRow]) -> str:
    return _csv_text(["sweep_value", "scheme", "mean_rate", "stderr", "n"], (
        [_float_or_none(a.sweep_value), a.scheme, float(a.mean_rate), float(a.stderr), a.n]
        for a in aggs))
