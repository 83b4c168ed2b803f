"""Outer alternating loop and the benchmark schemes.

One iteration (`outer_step`) refreshes, in order: decoders/weights,
precoders (dual multipliers by safeguarded secant search), surface
coefficients (projected-gradient QCQP).  Each block maximizes the shared
surrogate with the others fixed, so the true weighted sum rate never
decreases between iterations; a guard aborts if numerics break that
promise.  Termination is by relative change of the weighted sum rate.
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


class Scheme(str, enum.Enum):
    DS_IOS = "DS_IOS"   # dual-side surface, both directions active
    SS_IOS = "SS_IOS"   # single-side baseline: uplink only, user-side coefficients
    WO_IOS = "WO_IOS"   # no surface: direct links, precoding only


@dataclass
class SchemeSpec:
    kind: Scheme
    quantization_bits: int | None = None
    tie_sides: bool = False
    quantize_at_end: bool = False

    def __post_init__(self) -> None:
        self.kind = Scheme(self.kind)
        bits = self.quantization_bits
        if bits is not None and (isinstance(bits, bool) or not isinstance(bits, int)
                                 or not 1 <= bits <= 16):
            raise ValueError(f"quantization_bits must be an integer in [1, 16], got {bits!r}")
        if self.tie_sides and self.kind is not Scheme.DS_IOS:
            raise ValueError(f"tie_sides needs DS_IOS, not {self.kind.value}")

    @property
    def uses_surface(self) -> bool:
        return self.kind is not Scheme.WO_IOS

    @property
    def quantizes_each_iter(self) -> bool:
        """Phases snapped after every outer iteration, off the ascent path."""
        return (self.quantization_bits is not None and not self.quantize_at_end
                and self.uses_surface)

    @property
    def optimizes_downlink(self) -> bool:
        return self.kind is not Scheme.SS_IOS

    @property
    def phase_sides(self) -> tuple[str, ...]:
        if self.kind is Scheme.DS_IOS:
            return ("t", "u")
        if self.kind is Scheme.SS_IOS:
            return ("u",)
        return ()

    @property
    def label(self) -> str:
        """Kind plus every option set, e.g. DS_IOS_tied_q3_end."""
        base = self.kind.value
        if self.tie_sides:
            base += "_tied"
        if self.quantization_bits is not None:
            base += f"_q{self.quantization_bits}"
        if self.quantize_at_end:
            base += "_end"
        return base


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
    pgd_cap_exits: int = 0                 # surface side solves stopped at the PGD cap
    pgd_iters: int = 0                     # PGD iterations over all surface side solves


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
    theta, phi = project_feasible(snapped[:, 0], snapped[:, 1])
    return IosState(np.stack([theta, phi], axis=1))


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
    if scheme.phase_sides:
        qf = build_quadratic_forms(ch, bf, st, cfg.gamma_down, cfg.gamma_up)
        ios, counts = solve_qcqp(vectorize(qf), ios, cfg.pgd, sides=scheme.phase_sides,
                                 tie_sides=scheme.tie_sides)
        eff = _compose(ch, ios, scheme)
        s4 = surr(eff, bf, st)
        check("surface update", s4, s3)
    else:
        s4 = s3
    return bf, ios, eff, counts, duals, (s2, s3, s4)


def run_algorithm2(ch: ChannelSet, cfg: RunConfig, scheme: SchemeSpec) -> RunResult:
    """Alternate decoder/weight, precoder, and surface updates to a fixed point."""
    bf, ios, eff = apply_scheme(scheme, ch, cfg)
    monotone = not scheme.quantizes_each_iter

    report = weighted_sum_rate(eff, bf, cfg.gamma_down, cfg.gamma_up,
                               cfg.noise_users, cfg.noise_rx)
    rates = [report.weighted_sum]
    step_log: list[tuple[float, float, float]] = []
    duals: DualState | None = None
    terminated_by = "max_iters"
    iterations = pgd_iters = pgd_cap_exits = 0

    prev_s4 = None
    for it in range(cfg.max_outer_iters):
        bf, ios, eff, pgd, duals, surrogates = outer_step(ch, cfg, scheme, bf, ios, eff,
                                                          prev_s4)
        pgd_iters += pgd.iters
        pgd_cap_exits += pgd.cap_exits
        step_log.append(surrogates)
        prev_s4 = surrogates[2]

        if scheme.quantizes_each_iter:
            ios = quantize_phases(ios, scheme.quantization_bits)
            eff = _compose(ch, ios, scheme)
            prev_s4 = None  # quantization may step off the ascent path

        report = weighted_sum_rate(eff, bf, cfg.gamma_down, cfg.gamma_up,
                                   cfg.noise_users, cfg.noise_rx)
        new, old = report.weighted_sum, rates[-1]
        rates.append(new)
        iterations = it + 1
        if monotone and (old - new) > cfg.divergence_rel_tol * max(abs(new), 1e-12):
            raise ConvergenceError(
                f"weighted sum rate decreased at iteration {iterations}: {old} -> {new}")
        diff = abs(new - old)
        if diff == 0.0 or diff / max(abs(new), 1e-300) <= cfg.eps_w:
            terminated_by = "tolerance"
            break

    if scheme.quantization_bits is not None and scheme.quantize_at_end and scheme.uses_surface:
        ios = quantize_phases(ios, scheme.quantization_bits)
        eff = _compose(ch, ios, scheme)
        report = weighted_sum_rate(eff, bf, cfg.gamma_down, cfg.gamma_up,
                                   cfg.noise_users, cfg.noise_rx)

    trace = ConvergenceTrace(rates, iterations, terminated_by, step_log,
                             pgd_cap_exits, pgd_iters)
    return RunResult(bf, ios, trace, report, duals)
