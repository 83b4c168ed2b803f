"""Optimization state, effective channels, and exact rate evaluation.

The surface coefficients, reflection theta and refraction phi on each of the
two sides, obey the per-element coupling |theta_l|^2 + |phi_l|^2 <= 1 on each
side (reflected plus refracted power cannot exceed the incident power).
Every link is evaluated in whitened form: C = chol(B) factors its
interference-plus-noise covariance B, G = C^{-1} H V is its whitened received
signal and W = I + G^H G.  Its rate is log2|W| (Sylvester's identity), summed
from log1p of W's Cholesky pivots less one: nonnegative up to roundoff since
W >= I, and accurate relative to its size.  The same (C, G, W) give the MMSE
decoder and weight in `wmmse`.  A `LinkSet`, formed only by `LinkSet.at`,
holds them for one point; the rate, the decoders and the surrogate there read
it and nothing else about the point, so they share one evaluation.

Every record and function here takes optional leading axes in front of the
shapes it documents: a group of runs stacks its seeds on one leading axis,
and every result is the same, bit for bit, as the one-run call on that seed.
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
    `theta_t`, `phi_t`, `theta_u` and `phi_u` are views into `coef`.  Leading
    axes in front of (2, 2, L) stack the states of several runs."""
    coef: np.ndarray

    def __post_init__(self) -> None:
        self.coef = np.asarray(self.coef, dtype=complex)
        if self.coef.ndim < 3 or self.coef.shape[-3:-1] != (2, 2):
            raise ValueError(f"coefficients must have shape (2, 2, L) after any leading "
                             f"axes, got {self.coef.shape}")

    theta_t = property(lambda self: self.coef[..., 0, 0, :])
    phi_t = property(lambda self: self.coef[..., 0, 1, :])
    theta_u = property(lambda self: self.coef[..., 1, 0, :])
    phi_u = property(lambda self: self.coef[..., 1, 1, :])

    @property
    def n_elements(self) -> int:
        return self.coef.shape[-1]

    def coupling(self) -> np.ndarray:
        """|theta_l|^2 + |phi_l|^2 of both sides, (2, L) after any leading axes."""
        return np.sum(np.abs(self.coef) ** 2, axis=-2)

    def is_feasible(self) -> bool:
        """Every element of every stacked state within the coupling disk."""
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
        return self.h_kd.shape[-3]


def compose_effective(ch: ChannelSet, ios: IosState) -> EffectiveChannels:
    """Stack the surface coefficients into the four composite channel sets."""
    require_reciprocal_user_arrays(ch)
    L = ios.n_elements
    if ch.h_ti.shape[-2] != L:
        raise ValueError(f"surface state has {L} elements, channels have {ch.h_ti.shape[-2]}")
    g = ch.h_iu                                                    # (K, L, N_u)
    g_h = adj(g)
    h_kd = g_h @ (ios.phi_t[..., None, :, None] * ch.h_ti[..., None, :, :])
    h_ku = adj(ch.h_ir)[..., None, :, :] @ (ios.phi_u[..., None, :, None] * g)
    h_jk = ch.h_uu + g_h[..., None, :, :, :] @ (ios.theta_u[..., None, :, None]
                                                * g)[..., :, None, :, :]
    h_t = ch.h_tr + adj(ch.h_ir) @ (ios.theta_t[..., :, None] * ch.h_ti)
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


def whitened_bits(g: np.ndarray, w: np.ndarray):
    """log2|W| per link from its whitened G and W = I + G^H G.  W's Cholesky
    pivots are 1 + q_j, q_j = (G^H G)_jj minus row j's squares left of the diagonal,
    and summing log1p(q_j) keeps even a rate far below eps accurate to its size."""
    lower = np.tril(np.linalg.cholesky(w), -1)          # W >= I is Hermitian PD as built
    q = np.sum(np.abs(g) ** 2, axis=-2) - np.sum(np.abs(lower) ** 2, axis=-1)
    return np.asarray(np.sum(np.log1p(q), axis=-1) / LN2)[()]


def _gram(m: np.ndarray) -> np.ndarray:
    return m @ adj(m)


@dataclass
class LinkSet:
    """The links at one point (eff, bf): each link's received signal H V and
    interference-plus-noise covariance, and the downlinks' and the uplinks'
    whitened (C, G, W) once `whitened` has formed them.  `at` is the one
    constructor; the rate, the decoders and the surrogate there read it."""
    hv_d: np.ndarray        # H_kd V_kd (K, N_ur, s_d)
    den_d: np.ndarray       # uplink leakage into user k's receiver plus its noise
    hv_u: np.ndarray        # H_ku V_ku (K, N_r, s_u)
    den_u: np.ndarray       # other uplinks plus the transmit-side self-coupling, plus noise
    white_d: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    white_u: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def at(cls, eff: EffectiveChannels, bf: BeamformerSet, noise_users: np.ndarray,
           noise_rx: float) -> "LinkSet":
        K = eff.n_users
        hv_d = eff.h_kd @ bf.v_d
        hv_u = eff.h_ku @ bf.v_u
        lead, n_d, n_u = hv_d.shape[:-3], hv_d.shape[-2], hv_u.shape[-2]
        den_d = _gram(eff.h_jk @ bf.v_u[..., :, None, :, :]).sum(axis=-4)
        den_d += np.asarray(noise_users, dtype=float)[:, None, None] * np.eye(n_d)
        others = (1.0 - np.eye(K)) @ _gram(hv_u).reshape(*lead, K, -1)   # exact 0/1 weights
        den_u = (others.reshape(*lead, K, n_u, n_u)
                 + _gram(eff.h_t[..., None, :, :] @ bf.v_d).sum(axis=-3)[..., None, :, :])
        den_u += noise_rx * np.eye(n_u)
        return cls(hv_d, den_d, hv_u, den_u)

    def whitened(self):
        """((C, G, W) of the downlinks, (C, G, W) of the uplinks)."""
        if self.white_d is None:
            self.white_d = whiten_links(self.hv_d, self.den_d)
            self.white_u = whiten_links(self.hv_u, self.den_u)
        return self.white_d, self.white_u


def weighted_sum(gamma: np.ndarray, per_link: np.ndarray):
    """sum_k gamma_k x_k over the last axis, as np.dot sums it, for every
    leading index (a 1 x K by K x 1 product is the same BLAS dot)."""
    return (per_link[..., None, :] @ np.asarray(gamma, dtype=float)[:, None])[..., 0, 0]


def weighted_sum_rate(links: LinkSet, gamma_down: np.ndarray,
                      gamma_up: np.ndarray) -> RateReport:
    """Exact rates of the point `links` was formed at.  The weighted sum is
    a float, or one per leading index."""
    gamma_down = np.asarray(gamma_down, dtype=float)
    gamma_up = np.asarray(gamma_up, dtype=float)
    if np.any(gamma_down <= 0) or np.any(gamma_down >= 1) \
            or np.any(gamma_up <= 0) or np.any(gamma_up >= 1):
        raise ValueError("rate weights must lie strictly inside (0, 1)")
    (_, g_d, w_d), (_, g_u, w_u) = links.whitened()
    r_down = whitened_bits(g_d, w_d)
    r_up = whitened_bits(g_u, w_u)
    total = weighted_sum(gamma_down, r_down) + weighted_sum(gamma_up, r_up)
    return RateReport(r_down, r_up, total if np.ndim(total) else float(total))
