"""Outer alternating loop and the benchmark schemes.

One iteration (`outer_step`) refreshes, in order: decoders/weights,
precoders (dual multipliers by safeguarded secant search), surface
coefficients (one convex QCQP per side, by damped Newton ascent on its dual
to a certified duality gap).  Each block maximizes the shared surrogate with
the others fixed, so the true weighted sum rate never decreases between
iterations; a guard aborts if numerics break that promise.  `run_algorithm2`
speeds the iteration up with safeguarded SQUAREM extrapolation, which keeps
an extrapolated iterate only if it does not lower the rate.  Termination is
by relative change of the weighted sum rate.

`run_group` solves the runs of several channel draws under one config and
scheme together.  Each run is a `_cycles` generator with its own SQUAREM
state (cycle phase, stop test, iteration cap and trace) that yields the next
point it wants mapped; each round, one `outer_step` maps the points of every
run still going, stacked on a leading seed axis, to rated points; records
move between a stack and its runs through `_stack` and `_row` alone.  A point is its
precoders and surface (V_d, V_u, coef) with the guard surrogate s4 of the
step that produced it (NaN where it has none); each step composes its
points' channels on the running seeds' draws and evaluates their links
afresh.  Only the surface block (build, vectorize, `solve_qcqp`) and
SQUAREM's own arithmetic run seed by seed.  Every batched operation gives
each seed the bits it gives that seed alone, so a run's result does not
depend on its group; `run_algorithm2` is the group of one.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .beamformers import DualState, update_beamformers
from .channels import ChannelSet
from .errors import ConvergenceError, NumericalError
from .phases import (PgdCounts, PgdSettings, build_quadratic_forms, project_feasible,
                     solve_qcqp, vectorize)
from .system import (BeamformerSet, EffectiveChannels, IosState, LinkSet, RateReport,
                     compose_direct, compose_effective, stream_counts,
                     weighted_sum_rate)
from .wmmse import surrogate_objective, update_state

_STEP_TOL = 1e-9
_MAX_TRIALS = 3     # extrapolated map evaluations per SQUAREM cycle


class Scheme(str, enum.Enum):
    DS_IOS = "DS_IOS"   # dual-side surface, both directions active
    SS_IOS = "SS_IOS"   # single-side baseline: uplink only, user-side coefficients
    WO_IOS = "WO_IOS"   # no surface: direct links, precoding only


@dataclass
class SchemeSpec:
    kind: Scheme
    quantization_bits: int | None = None

    def __post_init__(self) -> None:
        self.kind = Scheme(self.kind)
        bits = self.quantization_bits
        if bits is not None and (isinstance(bits, bool) or not isinstance(bits, int)
                                 or not 1 <= bits <= 16):
            raise ValueError(f"quantization_bits must be an integer in [1, 16], got {bits!r}")
        if bits is not None and not self.uses_surface:
            raise ValueError(f"quantization_bits needs a surface, not {self.kind.value}")

    @property
    def uses_surface(self) -> bool:
        return self.kind is not Scheme.WO_IOS

    @property
    def uses_downlink(self) -> bool:
        """False for SS_IOS, whose downlink starts at zero and stays there."""
        return self.kind is not Scheme.SS_IOS

    @property
    def quantizes_each_iter(self) -> bool:
        """Phases snapped after every outer iteration, off the ascent path."""
        return self.quantization_bits is not None

    @property
    def label(self) -> str:
        """Kind plus the quantization, e.g. DS_IOS_q4."""
        if self.quantization_bits is None:
            return self.kind.value
        return f"{self.kind.value}_q{self.quantization_bits}"


@dataclass
class RunConfig:
    gamma_down: np.ndarray
    gamma_up: np.ndarray
    noise_users: np.ndarray
    noise_rx: float
    p_b: float
    p_u: float
    eps_w: float = 1e-4
    eps_b: float = 1e-4
    max_outer_iters: int = 500
    pgd: PgdSettings = field(default_factory=PgdSettings)
    divergence_rel_tol: float = 1e-6


@dataclass
class ConvergenceTrace:
    rates: list[float]                     # weighted sum rate per outer iteration
    iterations: int
    terminated_by: str                     # "tolerance" | "max_iters"
    step_surrogates: list[tuple[float, float, float]] = field(default_factory=list)
    pgd_cap_exits: int = 0                 # surface side solves ended without their gap
    pgd_iters: int = 0                     # Newton steps over all surface side solves
    extrapolations_accepted: int = 0       # SQUAREM trials kept
    extrapolations_rejected: int = 0       # SQUAREM trials that fell below the plain step


@dataclass
class RunResult:
    beamformers: BeamformerSet
    ios: IosState
    trace: ConvergenceTrace
    report: RateReport
    duals: DualState | None = None


def initial_beamformers(ch: ChannelSet, p_b: float, p_u: float) -> BeamformerSet:
    """Scaled identity columns: downlink splits the budget evenly, uplink fills it."""
    K = ch.n_users
    n_t = ch.h_ti.shape[1]
    n_r = ch.h_tr.shape[0]
    n_ur = ch.h_iu.shape[-1]
    n_ut = ch.h_uu.shape[-1]
    s_d, s_u = stream_counts(n_t, n_r, n_ut, n_ur)
    v_d = np.sqrt(p_b / (K * s_d)) * np.eye(n_t, s_d, dtype=complex)
    v_u = np.sqrt(p_u / s_u) * np.eye(n_ut, s_u, dtype=complex)
    return BeamformerSet(np.repeat(v_d[None], K, axis=0), np.repeat(v_u[None], K, axis=0))


def quantize_phases(ios: IosState, bits: int) -> IosState:
    """Snap every phase to the nearest of 2^bits uniform levels, keep amplitudes."""
    if not (1 <= bits <= 16):
        raise ValueError("bits must be in [1, 16]")
    delta = 2.0 * np.pi / (2 ** bits)
    amp = np.abs(ios.coef)
    snapped = amp * np.exp(1j * (np.round(IosState.phases(ios.coef) / delta) * delta))
    return IosState(project_feasible(snapped))


def _compose(ch: ChannelSet, ios: IosState, scheme: SchemeSpec) -> EffectiveChannels:
    if scheme.uses_surface:
        return compose_effective(ch, ios)
    return compose_direct(ch)


def apply_scheme(scheme: SchemeSpec, ch: ChannelSet, cfg: RunConfig
                 ) -> tuple[BeamformerSet, IosState]:
    """Start point (precoders, surface) of one run under the given benchmark scheme.

    DS_IOS starts from the balanced split and WO_IOS without a surface.
    SS_IOS is the dual-side solver started from zero downlink precoders, a
    zero t side and a zero u-side reflection (it has no `uses_downlink`),
    and this is the only place that tells it from DS_IOS: block ascent
    keeps each zero exactly zero (Shi, Razaviyayn, Luo & He, IEEE TSP
    2011).  With V_d = 0 the downlink decoders are 0 and its weights I, so
    the downlink power is 0 at every multiplier and V_d stays 0 at mu = 0;
    every factor and linear vector of the t side and of the u-side
    reflection is then 0, so the surface solve keeps those coefficients
    at 0.
    """
    bf = initial_beamformers(ch, cfg.p_b, cfg.p_u)
    L = ch.h_ti.shape[0]
    ios = IosState.balanced(L) if scheme.uses_surface else IosState.zeros(L)
    if not scheme.uses_downlink:
        bf = BeamformerSet(np.zeros_like(bf.v_d), bf.v_u)
        ios.coef[0] = 0.0       # t side
        ios.coef[1, 0] = 0.0    # u-side reflection
    return bf, ios


def _stack(records: list):
    """One record whose array fields stack the records' fields on a new
    leading axis (None stays None)."""
    def stacked(values):
        return None if values[0] is None else np.stack(values)
    return type(records[0])(**{name: stacked([vars(r)[name] for r in records])
                               for name in vars(records[0])})


def _row(record, i):
    """Entry i of a record's leading axes, in every array field (nested
    records entrywise, None stays None)."""
    def entry(value):
        if isinstance(value, np.ndarray):
            return value[i]
        return None if value is None else _row(value, i)
    return type(record)(**{name: entry(value) for name, value in vars(record).items()})


@dataclass
class _Iterate:
    """One point of the outer loop with everything a run returns from it."""
    bf: BeamformerSet
    ios: IosState
    report: RateReport | None = None
    duals: DualState | None = None
    s4: float = np.nan                  # guard surrogate of the step taken from it; NaN: none

    @property
    def rate(self) -> float:
        return self.report.weighted_sum


def outer_step(ch: ChannelSet, cfg: RunConfig, scheme: SchemeSpec, x: _Iterate):
    """One outer iteration from the point x: decoders/weights, then precoders,
    then the surface, then any phase quantization; the image is rated.

    x's records may carry leading axes (a group's seeds, `ch` stacking their
    draws); the surface block runs once per leading index.  The step composes
    x's channels on `ch` and forms one `LinkSet` at each point it visits: the
    entry point, after the precoders and after the surface.  The decoders, the
    surrogates and the image's rate read those `LinkSet`s and nothing else
    about the point.  The surrogate after each block must not fall below the
    one before it, and the decoder/weight step is held to x.s4 (NaN: no
    guard).  A quantizing scheme snaps the phases after the step, off the
    ascent path, and rates the image on the `LinkSet` of its recomposed
    channels; its s4 is NaN, as the snapped point is not where s4 was
    measured.  Returns the image (precoders, surface, rate report, dual
    multipliers and s4), the surface solver's `PgdCounts` (zero without a
    surface solve) and the surrogates (s2, s3, s4) after the three blocks.
    """
    bf, ios = x.bf, x.ios
    lead = bf.v_u.shape[:-3]

    def surr(at: LinkSet):
        return np.asarray(surrogate_objective(at, st, cfg.gamma_down, cfg.gamma_up))[()]

    def check(stage: str, new: np.ndarray, old) -> None:
        old = np.broadcast_to(np.asarray(old, dtype=float), lead)
        for i in np.ndindex(lead):
            if new[i] < old[i] - max(_STEP_TOL, cfg.divergence_rel_tol * abs(old[i])):
                raise ConvergenceError(f"surrogate decreased during {stage}: "
                                       f"{float(old[i])} -> {float(new[i])}")

    def links_at(e, b):
        return LinkSet.at(e, b, cfg.noise_users, cfg.noise_rx)

    eff = _compose(ch, ios, scheme)
    links = links_at(eff, bf)
    st = update_state(links)
    s2 = surr(links)
    check("decoder/weight update", s2, x.s4)

    bf, duals = update_beamformers(eff, st, cfg.gamma_down, cfg.gamma_up,
                                   cfg.p_b, cfg.p_u, cfg.eps_b)
    links = links_at(eff, bf)
    s3 = surr(links)
    check("precoder update", s3, s2)

    iters, caps = np.zeros(lead, dtype=int), np.zeros(lead, dtype=int)
    s4 = guard = s3
    if scheme.uses_surface:
        coef = np.empty_like(ios.coef)
        for i in np.ndindex(lead):
            qf = build_quadratic_forms(_row(ch, i), _row(bf, i), _row(st, i),
                                       cfg.gamma_down, cfg.gamma_up)
            new, n = solve_qcqp(vectorize(qf), IosState(ios.coef[i]), cfg.pgd)
            coef[i], iters[i], caps[i] = new.coef, n.iters, n.cap_exits
        ios = IosState(coef)
        links = links_at(_compose(ch, ios, scheme), bf)
        s4 = guard = surr(links)
        check("surface update", s4, s3)
    if scheme.quantizes_each_iter:
        ios = quantize_phases(ios, scheme.quantization_bits)
        links, guard = links_at(_compose(ch, ios, scheme), bf), np.full(lead, np.nan)[()]
    report = weighted_sum_rate(links, cfg.gamma_down, cfg.gamma_up)
    return _Iterate(bf, ios, report, duals, guard), PgdCounts(iters[()], caps[()]), (s2, s3, s4)


def _settled(new: float, old: float, eps_w: float) -> bool:
    """The stop test: relative change of the weighted sum rate within eps_w."""
    diff = abs(new - old)
    return diff == 0.0 or diff / max(abs(new), 1e-300) <= eps_w


def _cycles(cfg: RunConfig, scheme: SchemeSpec, start: _Iterate):
    """One run's SQUAREM cycles, as a generator: it yields each point to map
    and receives the rated image, with the solver counts and surrogates of
    its step, from `run_group`.  Monotone schemes run cycles of two plain
    steps, then one safeguarded extrapolation.  The stop test runs after
    plain steps only, so a run ends on a plain step or at the iteration cap.
    Schemes that quantize every iteration take plain steps alone.  Returns
    the run's `RunResult` at its last iterate."""
    trace = ConvergenceTrace([start.rate], 0, "max_iters")

    def exhausted() -> bool:
        return trace.iterations >= cfg.max_outer_iters

    def take(x: _Iterate):
        """One counted map evaluation; the image carries its rate."""
        y, pgd, surrogates = yield x
        trace.iterations += 1
        trace.pgd_iters += pgd.iters
        trace.pgd_cap_exits += pgd.cap_exits
        trace.step_surrogates.append(surrogates)
        return y

    def plain(x: _Iterate):
        """A plain step from x, then the stop test (True when it holds).
        Monotone schemes are held to ascent; quantized ones step off the
        ascent path."""
        y = yield from take(x)
        trace.rates.append(y.rate)
        if (not scheme.quantizes_each_iter
                and (x.rate - y.rate) > cfg.divergence_rel_tol * max(abs(y.rate), 1e-12)):
            raise ConvergenceError(f"weighted sum rate decreased at iteration "
                                   f"{trace.iterations}: {x.rate} -> {y.rate}")
        if _settled(y.rate, x.rate, cfg.eps_w):
            trace.terminated_by = "tolerance"
            return y, True
        return y, False

    def extrapolate(x0: _Iterate, x1: _Iterate, x2: _Iterate):
        """The SQUAREM step from x0 over x1 = F(x0) and x2 = F(x1).

        With r = x1 - x0, v = x2 - x1 - r and alpha = min(-|r|/|v|, -1), the
        point x0 - 2 alpha r + alpha^2 v is projected onto the budgets and the
        coupling disks and mapped once more; no rate is evaluated at the point
        itself.  The image is kept if its weighted sum rate is no lower than
        x2's.  Otherwise alpha moves halfway to -1, where the point is x2
        itself, for at most `_MAX_TRIALS` trials, and x2 is kept.  Each trial
        is one counted iteration and logs the rate of the iterate kept after it.
        """
        a0, a1, a2 = ((x.bf.v_d, x.bf.v_u, x.ios.coef) for x in (x0, x1, x2))
        r = [b - a for a, b in zip(a0, a1)]
        v = [c - b - d for b, c, d in zip(a1, a2, r)]
        norm_r = np.sqrt(sum(np.vdot(d, d).real for d in r))
        norm_v = np.sqrt(sum(np.vdot(d, d).real for d in v))
        alpha = -norm_r / norm_v if norm_v > 0.0 else -1.0
        for _ in range(_MAX_TRIALS):
            if alpha >= -1.0 or exhausted():
                break
            v_d, v_u, coef = (a - 2.0 * alpha * d + alpha ** 2 * e
                              for a, d, e in zip(a0, r, v))
            bf = _project_budgets(BeamformerSet(v_d, v_u), cfg.p_b, cfg.p_u)
            x3 = yield from take(_Iterate(bf, IosState(project_feasible(coef))))
            if x3.rate >= x2.rate:
                trace.extrapolations_accepted += 1
                trace.rates.append(x3.rate)
                return x3
            trace.extrapolations_rejected += 1
            trace.rates.append(x2.rate)
            alpha = 0.5 * (alpha - 1.0)
        return x2

    x, done = start, False
    while not (done or exhausted()):
        x1, done = yield from plain(x)
        if done or exhausted() or scheme.quantizes_each_iter:
            x = x1
            continue
        x2, done = yield from plain(x1)
        x = x2 if done else (yield from extrapolate(x, x1, x2))
    return RunResult(x.bf, x.ios, trace, x.report, x.duals)


def _project_budgets(bf: BeamformerSet, p_b: float, p_u: float) -> BeamformerSet:
    """Scale the downlink to at most P_B in total and each uplink user to at most P_U."""
    v_d, v_u = bf.v_d, bf.v_u
    p_d = float(np.sum(np.abs(v_d) ** 2))
    if p_d > p_b:
        v_d = v_d * np.sqrt(p_b / p_d)
    p_k = np.sum(np.abs(v_u) ** 2, axis=(1, 2))
    over = p_k > p_u
    if np.any(over):
        v_u = v_u * np.where(over, np.sqrt(p_u / np.where(over, p_k, 1.0)), 1.0)[:, None, None]
    return BeamformerSet(v_d, v_u)


def _map(ch: ChannelSet, cfg: RunConfig, scheme: SchemeSpec,
         points: list[_Iterate]) -> list[tuple]:
    """One `outer_step` over the stacked points, `ch` stacking their draws;
    per point (image, PgdCounts, surrogates)."""
    x = _Iterate(_stack([p.bf for p in points]), _stack([p.ios for p in points]),
                 s4=np.array([p.s4 for p in points]))
    image, counts, surrogates = outer_step(ch, cfg, scheme, x)
    return [(_row(image, k), _row(counts, k), tuple(s[k] for s in surrogates))
            for k in range(len(points))]


def _fails_alone(ch: ChannelSet, cfg: RunConfig, scheme: SchemeSpec, x: _Iterate) -> bool:
    """Whether mapping x alone on its draw `ch` raises a solver error."""
    try:
        _map(_stack([ch]), cfg, scheme, [x])
    except (ConvergenceError, NumericalError):
        return True
    return False


def run_group(chs: list[ChannelSet], cfg: RunConfig, scheme: SchemeSpec) -> list[RunResult]:
    """`run_algorithm2` on every channel draw of `chs`, as one batched loop.

    Each run's results are those of its draw alone, bit for bit.  A
    `ConvergenceError` or `NumericalError` from any run ends the group; its
    `run_index` attribute is the position of the failing draw in `chs` (None
    if no draw fails when mapped alone).
    """
    stacked = _stack(chs)
    bf, ios = map(_stack, zip(*(apply_scheme(scheme, c, cfg) for c in chs)))
    links = LinkSet.at(_compose(stacked, ios, scheme), bf, cfg.noise_users, cfg.noise_rx)
    start = _Iterate(bf, ios, weighted_sum_rate(links, cfg.gamma_down, cfg.gamma_up),
                     s4=np.full(len(chs), np.nan))
    runs = [_cycles(cfg, scheme, _row(start, k)) for k in range(len(chs))]
    points, results = {}, [None] * len(chs)

    def advance(i, sent=None) -> None:
        try:
            points[i] = runs[i].send(sent)
        except StopIteration as stop:
            results[i] = stop.value
            points.pop(i, None)
        except (ConvergenceError, NumericalError) as exc:
            exc.run_index = i
            raise

    for i in range(len(chs)):
        advance(i)
    while points:
        seeds = sorted(points)
        wanted = [points[i] for i in seeds]
        try:
            images = _map(_row(stacked, np.array(seeds)), cfg, scheme, wanted)
        except (ConvergenceError, NumericalError) as exc:
            exc.run_index = seeds[0] if len(seeds) == 1 else next(
                (i for i, x in zip(seeds, wanted) if _fails_alone(chs[i], cfg, scheme, x)), None)
            raise
        for i, image in zip(seeds, images):
            advance(i, image)
    return results


def run_algorithm2(ch: ChannelSet, cfg: RunConfig, scheme: SchemeSpec) -> RunResult:
    """Alternate decoder/weight, precoder, and surface updates to a fixed point.

    Monotone schemes run SQUAREM cycles (Varadhan & Roland, Scand. J. Statist.
    2008) over x = (V_d, V_u, coef) with `outer_step` as the map; `_cycles`
    says how a run steps and stops.  This is `run_group` on one draw.
    """
    return run_group([ch], cfg, scheme)[0]
