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
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .beamformers import DualState, update_beamformers
from .channels import ChannelSet
from .errors import ConvergenceError
from .phases import (PgdCounts, PgdSettings, build_quadratic_forms, project_feasible,
                     solve_qcqp, vectorize)
from .system import (BeamformerSet, EffectiveChannels, IosState, RateReport,
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
    def quantizes_each_iter(self) -> bool:
        """Phases snapped after every outer iteration, off the ascent path."""
        return self.quantization_bits is not None

    @property
    def optimizes_downlink(self) -> bool:
        return self.kind is not Scheme.SS_IOS

    @property
    def surface_sides(self) -> tuple[int, ...]:
        """Side indices of `IosState.coef` the surface solve updates."""
        if self.kind is Scheme.SS_IOS:
            return (1,)
        if self.kind is Scheme.WO_IOS:
            return ()
        return (0, 1)

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


def initial_ios(L: int, scheme: SchemeSpec) -> IosState:
    """Balanced split for the dual-side run; unused directions start at zero so
    they never pin amplitude the active direction could use."""
    if scheme.kind is Scheme.WO_IOS:
        return IosState.zeros(L)
    ios = IosState.balanced(L)
    if scheme.kind is Scheme.SS_IOS:
        ios.coef[0] = 0.0       # t side
        ios.coef[1, 0] = 0.0    # u-side reflection
    return ios


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
                 ) -> tuple[BeamformerSet, IosState, EffectiveChannels]:
    """Initial state for one run under the given benchmark scheme."""
    bf = initial_beamformers(ch, cfg.p_b, cfg.p_u)
    if scheme.kind is Scheme.SS_IOS:
        bf = BeamformerSet(np.zeros_like(bf.v_d), bf.v_u)
    ios = initial_ios(ch.h_ti.shape[0], scheme)
    return bf, ios, _compose(ch, ios, scheme)


def outer_step(ch: ChannelSet, cfg: RunConfig, scheme: SchemeSpec, bf: BeamformerSet,
               ios: IosState, eff: EffectiveChannels, prev_s4: float | None = None):
    """One outer iteration: decoders/weights, then precoders, then the surface.

    The surrogate after each block must not fall below the one before it (any
    quantization comes after the step); the decoder/weight step is held to
    `prev_s4`, the last surrogate of the previous iteration, when given.
    Returns the new (bf, ios, eff), the surface solver's `PgdCounts` (zero
    without a surface solve), the dual multipliers and the surrogates
    (s2, s3, s4) after the three blocks.
    """
    def surr(e, b, s):
        return surrogate_objective(e, b, s, cfg.gamma_down, cfg.gamma_up,
                                   cfg.noise_users, cfg.noise_rx)

    def check(stage: str, new: float, old: float) -> None:
        if new < old - max(_STEP_TOL, cfg.divergence_rel_tol * abs(old)):
            raise ConvergenceError(f"surrogate decreased during {stage}: {old} -> {new}")

    st = update_state(eff, bf, cfg.noise_users, cfg.noise_rx)
    s2 = surr(eff, bf, st)
    if prev_s4 is not None:
        check("decoder/weight update", s2, prev_s4)

    frozen_v_d = None if scheme.optimizes_downlink else bf.v_d
    bf, duals = update_beamformers(eff, st, cfg.gamma_down, cfg.gamma_up,
                                   cfg.p_b, cfg.p_u, cfg.eps_b, frozen_v_d)
    s3 = surr(eff, bf, st)
    check("precoder update", s3, s2)

    counts = PgdCounts()
    if scheme.surface_sides:
        qf = build_quadratic_forms(ch, bf, st, cfg.gamma_down, cfg.gamma_up)
        ios, counts = solve_qcqp(vectorize(qf), ios, cfg.pgd, scheme.surface_sides)
        eff = _compose(ch, ios, scheme)
        s4 = surr(eff, bf, st)
        check("surface update", s4, s3)
    else:
        s4 = s3
    return bf, ios, eff, counts, duals, (s2, s3, s4)


def _rate(eff: EffectiveChannels, bf: BeamformerSet, cfg: RunConfig) -> RateReport:
    return weighted_sum_rate(eff, bf, cfg.gamma_down, cfg.gamma_up,
                             cfg.noise_users, cfg.noise_rx)


def _settled(new: float, old: float, eps_w: float) -> bool:
    """The stop test: relative change of the weighted sum rate within eps_w."""
    diff = abs(new - old)
    return diff == 0.0 or diff / max(abs(new), 1e-300) <= eps_w


@dataclass
class _Iterate:
    """One point of the outer loop with everything a run returns from it."""
    bf: BeamformerSet
    ios: IosState
    eff: EffectiveChannels
    report: RateReport
    duals: DualState | None = None
    s4: float | None = None     # last surrogate of the step that produced it

    @property
    def rate(self) -> float:
        return self.report.weighted_sum


class _Steps:
    """The `outer_step` calls of one run and the trace they leave."""

    def __init__(self, ch: ChannelSet, cfg: RunConfig, scheme: SchemeSpec, start: _Iterate):
        self.ch, self.cfg, self.scheme = ch, cfg, scheme
        self.trace = ConvergenceTrace([start.rate], 0, "max_iters")

    @property
    def exhausted(self) -> bool:
        return self.trace.iterations >= self.cfg.max_outer_iters

    def take(self, bf: BeamformerSet, ios: IosState, eff: EffectiveChannels,
             prev_s4: float | None) -> _Iterate:
        """One counted map evaluation, with the phases snapped after it for
        schemes that quantize every iteration.  The image carries its rate."""
        bf, ios, eff, pgd, duals, surrogates = outer_step(self.ch, self.cfg, self.scheme,
                                                          bf, ios, eff, prev_s4)
        t = self.trace
        t.iterations += 1
        t.pgd_iters += pgd.iters
        t.pgd_cap_exits += pgd.cap_exits
        t.step_surrogates.append(surrogates)
        if self.scheme.quantizes_each_iter:
            ios = quantize_phases(ios, self.scheme.quantization_bits)
            eff = _compose(self.ch, ios, self.scheme)
        return _Iterate(bf, ios, eff, _rate(eff, bf, self.cfg), duals, surrogates[2])

    def plain(self, x: _Iterate) -> tuple[_Iterate, bool]:
        """A plain step from x, then the stop test (True when it holds).
        Monotone schemes are held to ascent; quantized ones step off the
        ascent path and start each step without a guard surrogate."""
        monotone = not self.scheme.quantizes_each_iter
        y = self.take(x.bf, x.ios, x.eff, x.s4 if monotone else None)
        self.trace.rates.append(y.rate)
        if monotone and (x.rate - y.rate) > self.cfg.divergence_rel_tol * max(abs(y.rate),
                                                                              1e-12):
            raise ConvergenceError(f"weighted sum rate decreased at iteration "
                                   f"{self.trace.iterations}: {x.rate} -> {y.rate}")
        if _settled(y.rate, x.rate, self.cfg.eps_w):
            self.trace.terminated_by = "tolerance"
            return y, True
        return y, False


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


def _extrapolate(steps: _Steps, x0: _Iterate, x1: _Iterate, x2: _Iterate) -> _Iterate:
    """The SQUAREM step from x0 over x1 = F(x0) and x2 = F(x1).

    With r = x1 - x0, v = x2 - x1 - r and alpha = min(-|r|/|v|, -1), the
    point x0 - 2 alpha r + alpha^2 v is projected onto the budgets and the
    coupling disks and mapped once more; no rate is evaluated at the point
    itself.  The image is kept if its weighted sum rate is no lower than x2's.
    Otherwise alpha moves halfway to -1, where the point is x2 itself, for at
    most `_MAX_TRIALS` trials, and x2 is kept.  Each trial is one counted
    iteration and logs the rate of the iterate kept after it.
    """
    a0, a1, a2 = ((x.bf.v_d, x.bf.v_u, x.ios.coef) for x in (x0, x1, x2))
    r = [b - a for a, b in zip(a0, a1)]
    v = [c - b - d for b, c, d in zip(a1, a2, r)]
    norm_r = np.sqrt(sum(np.vdot(d, d).real for d in r))
    norm_v = np.sqrt(sum(np.vdot(d, d).real for d in v))
    alpha = -norm_r / norm_v if norm_v > 0.0 else -1.0
    trace, cfg = steps.trace, steps.cfg
    for _ in range(_MAX_TRIALS):
        if alpha >= -1.0 or steps.exhausted:
            break
        v_d, v_u, coef = (a - 2.0 * alpha * d + alpha ** 2 * e for a, d, e in zip(a0, r, v))
        bf = _project_budgets(BeamformerSet(v_d, v_u), cfg.p_b, cfg.p_u)
        ios = IosState(project_feasible(coef))
        x3 = steps.take(bf, ios, _compose(steps.ch, ios, steps.scheme), None)
        if x3.rate >= x2.rate:
            trace.extrapolations_accepted += 1
            trace.rates.append(x3.rate)
            return x3
        trace.extrapolations_rejected += 1
        trace.rates.append(x2.rate)
        alpha = 0.5 * (alpha - 1.0)
    return x2


def run_algorithm2(ch: ChannelSet, cfg: RunConfig, scheme: SchemeSpec) -> RunResult:
    """Alternate decoder/weight, precoder, and surface updates to a fixed point.

    Monotone schemes run SQUAREM cycles (Varadhan & Roland, Scand. J. Statist.
    2008) over x = (V_d, V_u, coef) with `outer_step` as the map: two plain
    steps, then one safeguarded extrapolation (`_extrapolate`).  The stop test
    runs after plain steps only, so a run ends on a plain step or at the
    iteration cap.  Schemes that quantize every iteration take plain steps
    alone.
    """
    bf, ios, eff = apply_scheme(scheme, ch, cfg)
    x = _Iterate(bf, ios, eff, _rate(eff, bf, cfg))
    steps = _Steps(ch, cfg, scheme, x)
    done = False
    while not (done or steps.exhausted):
        x1, done = steps.plain(x)
        if done or steps.exhausted or scheme.quantizes_each_iter:
            x = x1
            continue
        x2, done = steps.plain(x1)
        x = x2 if done else _extrapolate(steps, x, x1, x2)
    return RunResult(x.bf, x.ios, steps.trace, x.report, x.duals)
