"""Optimization state, effective channels, and exact rate evaluation.

The surface coefficients, reflection theta and refraction phi on each of the
two sides, obey the per-element coupling |theta_l|^2 + |phi_l|^2 <= 1 on each
side (reflected plus refracted power cannot exceed the incident power).
Every link is evaluated in whitened form: C = chol(B) factors its
interference-plus-noise covariance B, G = C^{-1} H V is its whitened received
signal and W = I + G^H G.  Its rate is log2|W| (Sylvester's identity), summed
from log1p of W's Cholesky pivots less one: nonnegative up to roundoff since
W >= I, and accurate relative to its size.  The same (C, G, W) give the MMSE
decoder and weight in `wmmse`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet, require_reciprocal_user_arrays
from .linalg import adj, chol_pd, hermitize

COUPLING_TOL = 1e-9
LN2 = float(np.log(2.0))


@dataclass
class IosState:
    """Surface coefficients of both sides as one array `coef` (2, 2, L):
    `coef[s, 0]` is the reflection theta and `coef[s, 1]` the refraction phi
    of side s, where side 0 faces the transmitter (t) and side 1 the users (u).
    `theta_t`, `phi_t`, `theta_u` and `phi_u` are views into `coef`."""
    coef: np.ndarray

    def __post_init__(self) -> None:
        self.coef = np.asarray(self.coef, dtype=complex)
        if self.coef.ndim != 3 or self.coef.shape[:2] != (2, 2):
            raise ValueError(f"coefficients must have shape (2, 2, L), got {self.coef.shape}")

    theta_t = property(lambda self: self.coef[0, 0])
    phi_t = property(lambda self: self.coef[0, 1])
    theta_u = property(lambda self: self.coef[1, 0])
    phi_u = property(lambda self: self.coef[1, 1])

    @property
    def n_elements(self) -> int:
        return self.coef.shape[-1]

    def coupling(self) -> np.ndarray:
        """|theta_l|^2 + |phi_l|^2 of both sides, (2, L)."""
        return np.sum(np.abs(self.coef) ** 2, axis=1)

    def is_feasible(self) -> bool:
        return bool(np.all(self.coupling() <= 1.0 + COUPLING_TOL))

    def validate(self) -> None:
        if not self.is_feasible():
            raise ValueError("coupling constraint violated: max |t|^2+|p|^2 = "
                             f"{self.coupling().max()}")

    @staticmethod
    def phases(vec: np.ndarray) -> np.ndarray:
        """Element phases canonicalized to [0, 2*pi)."""
        return np.mod(np.angle(vec), 2.0 * np.pi)

    @classmethod
    def balanced(cls, L: int) -> "IosState":
        """Default start: equal split between reflection and refraction, zero phase."""
        return cls(np.full((2, 2, L), 1.0 / np.sqrt(2.0), dtype=complex))

    @classmethod
    def zeros(cls, L: int) -> "IosState":
        return cls(np.zeros((2, 2, L), dtype=complex))

    def copy(self) -> "IosState":
        return IosState(self.coef.copy())


@dataclass
class BeamformerSet:
    """Downlink precoders v_d (K, N_t, s_d) and uplink precoders v_u (K, N_ut, s_u)."""
    v_d: np.ndarray
    v_u: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.v_d)

    def downlink_power(self) -> float:
        return float(np.sum(np.abs(self.v_d) ** 2))

    def uplink_power(self, k: int) -> float:
        return float(np.sum(np.abs(self.v_u[k]) ** 2))


def stream_counts(n_t: int, n_r: int, n_ut: int, n_ur: int) -> tuple[int, int]:
    """Downlink and uplink stream counts: s_d = min(N_t, N_ur), s_u = min(N_r, N_ut)."""
    return min(n_t, n_ur), min(n_r, n_ut)


@dataclass
class EffectiveChannels:
    """Composite links as seen by the decoders, stacked over users.

    h_kd (K, N_ur, N_t)        : transmitter -> user k, through the refracting t-side
    h_jk (K, K, N_ur, N_ut)    : [j, k] is user j -> user k (direct plus u-side reflection)
    h_ku (K, N_r, N_ut)        : user k -> receive array, through the refracting u-side
    h_t  (N_r, N_t)            : transmit -> receive self-coupling (direct plus t-side
                                 reflection)
    """
    h_kd: np.ndarray
    h_jk: np.ndarray
    h_ku: np.ndarray
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
    g = ch.h_iu                                                    # (K, L, N_u)
    g_h = adj(g)
    h_kd = g_h @ (ios.phi_t[:, None] * ch.h_ti)
    h_ku = ch.h_ir.conj().T @ (ios.phi_u[:, None] * g)
    h_jk = ch.h_uu + g_h[None] @ (ios.theta_u[:, None] * g)[:, None]
    h_t = ch.h_tr + ch.h_ir.conj().T @ (ios.theta_t[:, None] * ch.h_ti)
    return EffectiveChannels(h_kd, h_jk, h_ku, h_t)


def compose_direct(ch: ChannelSet) -> EffectiveChannels:
    """Surface absent: direct links only (requires sampled direct channels)."""
    if ch.h_direct_tu is None or ch.h_direct_ur is None:
        raise ValueError("channel set was sampled without direct links")
    return EffectiveChannels(ch.h_direct_tu.copy(), ch.h_uu.copy(),
                             ch.h_direct_ur.copy(), ch.h_tr.copy())


@dataclass
class RateReport:
    r_down: np.ndarray        # (K,) bits/s/Hz
    r_up: np.ndarray          # (K,) bits/s/Hz
    weighted_sum: float


def whiten_links(hv: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, G, W) per link of a stack: C = chol(B) of the interference-plus-noise
    covariance B = `den`, G = C^{-1} H V with H V = `hv`, and W = I + G^H G."""
    c = chol_pd(den)
    g = np.linalg.solve(c, hv)
    return c, g, hermitize(adj(g) @ g + np.eye(g.shape[-1]))


def rate_bits(hv: np.ndarray, den: np.ndarray):
    """log2|I + H V V^H H^H B^{-1}| = log2|W| per link, from H V and B.  W's Cholesky
    pivots are 1 + q_j, q_j = (G^H G)_jj minus row j's squares left of the diagonal,
    and summing log1p(q_j) keeps even a rate far below eps accurate to its size."""
    _, g, w = whiten_links(hv, den)
    lower = np.tril(np.linalg.cholesky(w), -1)          # W >= I is Hermitian PD as built
    q = np.sum(np.abs(g) ** 2, axis=-2) - np.sum(np.abs(lower) ** 2, axis=-1)
    return np.asarray(np.sum(np.log1p(q), axis=-1) / LN2)[()]


def _gram(m: np.ndarray) -> np.ndarray:
    return m @ adj(m)


def link_covariances(eff: EffectiveChannels, bf: BeamformerSet, noise_users: np.ndarray,
                     noise_rx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Received signal H V and interference-plus-noise covariance of every link.

    Returns (hv_d, den_d, hv_u, den_u): hv_d[k] = H_kd V_kd (K, N_ur, s_d) and
    den_d[k] the uplink leakage into user k's receiver plus its noise; hv_u[k]
    = H_ku V_ku (K, N_r, s_u) and den_u[k] the other uplinks plus the
    transmit-side self-coupling at the receive array plus noise.
    """
    K = eff.n_users
    hv_d = eff.h_kd @ bf.v_d
    hv_u = eff.h_ku @ bf.v_u
    n_d, n_u = hv_d.shape[1], hv_u.shape[1]
    den_d = _gram(eff.h_jk @ bf.v_u[:, None]).sum(axis=0)
    den_d += np.asarray(noise_users, dtype=float)[:, None, None] * np.eye(n_d)
    others = (1.0 - np.eye(K)) @ _gram(hv_u).reshape(K, -1)     # exact 0/1 weights
    den_u = others.reshape(K, n_u, n_u) + _gram(eff.h_t @ bf.v_d).sum(axis=0)
    den_u += noise_rx * np.eye(n_u)
    return hv_d, den_d, hv_u, den_u


def weighted_sum_rate(eff: EffectiveChannels, bf: BeamformerSet,
                      gamma_down: np.ndarray, gamma_up: np.ndarray,
                      noise_users: np.ndarray, noise_rx: float) -> RateReport:
    gamma_down = np.asarray(gamma_down, dtype=float)
    gamma_up = np.asarray(gamma_up, dtype=float)
    if np.any(gamma_down <= 0) or np.any(gamma_down >= 1) \
            or np.any(gamma_up <= 0) or np.any(gamma_up >= 1):
        raise ValueError("rate weights must lie strictly inside (0, 1)")
    hv_d, den_d, hv_u, den_u = link_covariances(eff, bf, noise_users, noise_rx)
    r_down = rate_bits(hv_d, den_d)
    r_up = rate_bits(hv_u, den_u)
    total = float(np.dot(gamma_down, r_down) + np.dot(gamma_up, r_up))
    return RateReport(r_down, r_up, total)
