"""Optimization state, effective channels, and exact rate evaluation.

The four surface coefficient vectors obey the per-element coupling
|theta_l|^2 + |phi_l|^2 <= 1 on each side (reflected plus refracted power
cannot exceed the incident power).  Rates are log-det expressions evaluated
through Cholesky factorizations of the interference-plus-noise pencil.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet, require_reciprocal_user_arrays
from .errors import NumericalError
from .linalg import hermitize, logdet_pd

COUPLING_TOL = 1e-9
NEGATIVE_RATE_TOL = 1e-9   # bits; smallest negative rate taken for a defect, not roundoff
LN2 = float(np.log(2.0))


@dataclass
class IosState:
    """Per-element reflection (theta) and refraction (phi) coefficients, both sides."""
    theta_t: np.ndarray
    phi_t: np.ndarray
    theta_u: np.ndarray
    phi_u: np.ndarray

    def __post_init__(self) -> None:
        L = len(self.theta_t)
        for name in ("phi_t", "theta_u", "phi_u"):
            if len(getattr(self, name)) != L:
                raise ValueError("all coefficient vectors must share length L")

    @property
    def n_elements(self) -> int:
        return len(self.theta_t)

    def coupling(self, side: str) -> np.ndarray:
        """|theta_l|^2 + |phi_l|^2 for side 't' or 'u'."""
        if side == "t":
            return np.abs(self.theta_t) ** 2 + np.abs(self.phi_t) ** 2
        if side == "u":
            return np.abs(self.theta_u) ** 2 + np.abs(self.phi_u) ** 2
        raise ValueError(f"side must be 't' or 'u', got {side!r}")

    def is_feasible(self) -> bool:
        return bool(np.all(self.coupling("t") <= 1.0 + COUPLING_TOL)
                    and np.all(self.coupling("u") <= 1.0 + COUPLING_TOL))

    def validate(self) -> None:
        if not self.is_feasible():
            worst = max(self.coupling("t").max(), self.coupling("u").max())
            raise ValueError(f"coupling constraint violated: max |t|^2+|p|^2 = {worst}")

    @staticmethod
    def phases(vec: np.ndarray) -> np.ndarray:
        """Element phases canonicalized to [0, 2*pi)."""
        return np.mod(np.angle(vec), 2.0 * np.pi)

    @classmethod
    def balanced(cls, L: int) -> "IosState":
        """Default start: equal split between reflection and refraction, zero phase."""
        a = np.full(L, 1.0 / np.sqrt(2.0), dtype=complex)
        return cls(a.copy(), a.copy(), a.copy(), a.copy())

    @classmethod
    def zeros(cls, L: int) -> "IosState":
        z = np.zeros(L, dtype=complex)
        return cls(z.copy(), z.copy(), z.copy(), z.copy())

    def copy(self) -> "IosState":
        return IosState(self.theta_t.copy(), self.phi_t.copy(),
                        self.theta_u.copy(), self.phi_u.copy())


@dataclass
class BeamformerSet:
    """Downlink precoders v_d[k] (N_t, s_d) and uplink precoders v_u[k] (N_ut, s_u)."""
    v_d: list[np.ndarray]
    v_u: list[np.ndarray]

    @property
    def n_users(self) -> int:
        return len(self.v_d)

    def downlink_power(self) -> float:
        return float(sum(np.sum(np.abs(v) ** 2) for v in self.v_d))

    def uplink_power(self, k: int) -> float:
        return float(np.sum(np.abs(self.v_u[k]) ** 2))

    def validate_power(self, p_b: float, p_u: float, rel_tol: float = 1e-6) -> None:
        if self.downlink_power() > p_b * (1.0 + rel_tol) + 1e-15:
            raise ValueError("downlink power budget exceeded")
        for k in range(self.n_users):
            if self.uplink_power(k) > p_u * (1.0 + rel_tol) + 1e-15:
                raise ValueError(f"uplink power budget exceeded for user {k}")


def stream_counts(n_t: int, n_r: int, n_ut: int, n_ur: int) -> tuple[int, int]:
    """Downlink and uplink stream counts: s_d = min(N_t, N_ur), s_u = min(N_r, N_ut)."""
    return min(n_t, n_ur), min(n_r, n_ut)


@dataclass
class EffectiveChannels:
    """Composite links as seen by the decoders.

    h_kd[k]    : transmitter -> user k, through the refracting t-side
    h_jk[j][k] : user j -> user k (direct plus u-side reflection)
    h_ku[k]    : user k -> receive array, through the refracting u-side
    h_t        : transmit -> receive self-coupling (direct plus t-side reflection)
    """
    h_kd: list[np.ndarray]
    h_jk: list[list[np.ndarray]]
    h_ku: list[np.ndarray]
    h_t: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.h_kd)


def compose_effective(ch: ChannelSet, ios: IosState) -> EffectiveChannels:
    """Stack the surface coefficients into the four composite channel sets."""
    require_reciprocal_user_arrays(ch)
    L = ios.n_elements
    if ch.h_ti.shape[0] != L:
        raise ValueError(f"surface state has {L} elements, channels have {ch.h_ti.shape[0]}")
    phi_t = ios.phi_t[:, None]
    theta_t = ios.theta_t[:, None]
    phi_u = ios.phi_u[:, None]
    theta_u = ios.theta_u[:, None]

    K = ch.n_users
    h_kd = [ch.h_iu[k].conj().T @ (phi_t * ch.h_ti) for k in range(K)]
    h_ku = [ch.h_ir.conj().T @ (phi_u * ch.h_iu[k]) for k in range(K)]
    h_jk = [[ch.h_uu[j][k] + ch.h_iu[k].conj().T @ (theta_u * ch.h_iu[j])
             for k in range(K)] for j in range(K)]
    h_t = ch.h_tr + ch.h_ir.conj().T @ (theta_t * ch.h_ti)
    return EffectiveChannels(h_kd, h_jk, h_ku, h_t)


def compose_direct(ch: ChannelSet) -> EffectiveChannels:
    """Surface absent: direct links only (requires sampled direct channels)."""
    if ch.h_direct_tu is None or ch.h_direct_ur is None:
        raise ValueError("channel set was sampled without direct links")
    K = ch.n_users
    h_jk = [[ch.h_uu[j][k] for k in range(K)] for j in range(K)]
    return EffectiveChannels([m.copy() for m in ch.h_direct_tu], h_jk,
                             [m.copy() for m in ch.h_direct_ur], ch.h_tr.copy())


@dataclass
class RateReport:
    r_down: np.ndarray        # (K,) bits/s/Hz
    r_up: np.ndarray          # (K,) bits/s/Hz
    weighted_sum: float


def rate_bits(signal_cov: np.ndarray, denom_cov: np.ndarray) -> float:
    """log2|I + S B^{-1}| evaluated as logdet(B + S) - logdet(B), B Hermitian PD.

    With S PSD the rate cannot be negative, but the two log-dets can round
    apart: by about 1e-6 bit for a 4 x 4 B at condition number 1e10, against
    a first-order bound of 2 n (n + 1) eps cond(B) nats.  A negative value
    within that bound, or within NEGATIVE_RATE_TOL, is roundoff and reads 0;
    one beyond both raises.
    """
    b = hermitize(denom_cov)
    s = hermitize(signal_cov)
    try:
        bits = (logdet_pd(b + s) - logdet_pd(b)) / LN2
    except NumericalError as exc:
        raise NumericalError("singular interference-plus-noise matrix") from exc
    if bits >= 0.0:
        return bits
    vals = np.linalg.eigvalsh(b)
    n = b.shape[0]
    cond = vals[-1] / max(vals[0], np.finfo(float).tiny)
    roundoff = 2.0 * n * (n + 1) * np.finfo(float).eps * cond / LN2
    if bits < -max(NEGATIVE_RATE_TOL, roundoff):
        raise NumericalError(f"negative rate {bits:.3e} bit/s/Hz: signal covariance not PSD")
    return 0.0


def downlink_interference(eff: EffectiveChannels, bf: BeamformerSet, k: int) -> np.ndarray:
    """Sum over all uplink transmissions leaking into user k's receiver."""
    n = eff.h_kd[k].shape[0]
    cov = np.zeros((n, n), dtype=complex)
    for j in range(eff.n_users):
        m = eff.h_jk[j][k] @ bf.v_u[j]
        cov += m @ m.conj().T
    return cov


def uplink_interference(eff: EffectiveChannels, bf: BeamformerSet, k: int) -> np.ndarray:
    """Other uplinks plus the residual transmit-side self-coupling at the receiver."""
    n = eff.h_t.shape[0]
    cov = np.zeros((n, n), dtype=complex)
    for j in range(eff.n_users):
        if j != k:
            m = eff.h_ku[j] @ bf.v_u[j]
            cov += m @ m.conj().T
        md = eff.h_t @ bf.v_d[j]
        cov += md @ md.conj().T
    return cov


def downlink_rate(eff: EffectiveChannels, bf: BeamformerSet, k: int,
                  noise_var: float) -> float:
    sig = eff.h_kd[k] @ bf.v_d[k]
    n = sig.shape[0]
    denom = downlink_interference(eff, bf, k) + noise_var * np.eye(n)
    return rate_bits(sig @ sig.conj().T, denom)


def uplink_rate(eff: EffectiveChannels, bf: BeamformerSet, k: int,
                noise_var: float) -> float:
    sig = eff.h_ku[k] @ bf.v_u[k]
    n = sig.shape[0]
    denom = uplink_interference(eff, bf, k) + noise_var * np.eye(n)
    return rate_bits(sig @ sig.conj().T, denom)


def weighted_sum_rate(eff: EffectiveChannels, bf: BeamformerSet,
                      gamma_down: np.ndarray, gamma_up: np.ndarray,
                      noise_users: np.ndarray, noise_rx: float) -> RateReport:
    gamma_down = np.asarray(gamma_down, dtype=float)
    gamma_up = np.asarray(gamma_up, dtype=float)
    if np.any(gamma_down <= 0) or np.any(gamma_down >= 1) \
            or np.any(gamma_up <= 0) or np.any(gamma_up >= 1):
        raise ValueError("rate weights must lie strictly inside (0, 1)")
    K = eff.n_users
    r_down = np.array([downlink_rate(eff, bf, k, float(noise_users[k])) for k in range(K)])
    r_up = np.array([uplink_rate(eff, bf, k, noise_rx) for k in range(K)])
    total = float(np.dot(gamma_down, r_down) + np.dot(gamma_up, r_up))
    return RateReport(r_down, r_up, total)
