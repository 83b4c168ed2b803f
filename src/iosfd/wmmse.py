"""Rate / mean-square-error equivalence machinery.

For each link the MMSE decoder U* and weight W* = E(U*)^{-1} turn the log-det
rate into the concave surrogate  log|W| - Tr(W E) + s,  tight at (U*, W*)
where log|W*| equals the rate in nats.  The weighted surrogate over all links
is what the beamformer and phase blocks ascend.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitize, inv_pd, logdet_pd, solve_pd
from .system import (BeamformerSet, EffectiveChannels, downlink_interference,
                     uplink_interference)


@dataclass
class WmmseState:
    u_d: list[np.ndarray]   # K x (N_ur, s_d)
    w_d: list[np.ndarray]   # K x (s_d, s_d) Hermitian PD
    u_u: list[np.ndarray]   # K x (N_r, s_u)
    w_u: list[np.ndarray]   # K x (s_u, s_u) Hermitian PD

    @property
    def n_users(self) -> int:
        return len(self.u_d)


def _mse(h: np.ndarray, v: np.ndarray, u: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """(U^H H V - I)(.)^H + U^H (interference + noise) U."""
    s = v.shape[1]
    resid = u.conj().T @ h @ v - np.eye(s)
    return hermitize(resid @ resid.conj().T + u.conj().T @ denom @ u)


def mse_matrix_down(eff: EffectiveChannels, bf: BeamformerSet, u_kd: np.ndarray,
                    k: int, noise_var: float) -> np.ndarray:
    n = eff.h_kd[k].shape[0]
    denom = downlink_interference(eff, bf, k) + noise_var * np.eye(n)
    return _mse(eff.h_kd[k], bf.v_d[k], u_kd, denom)


def mse_matrix_up(eff: EffectiveChannels, bf: BeamformerSet, u_ku: np.ndarray,
                  k: int, noise_var: float) -> np.ndarray:
    n = eff.h_t.shape[0]
    denom = uplink_interference(eff, bf, k) + noise_var * np.eye(n)
    return _mse(eff.h_ku[k], bf.v_u[k], u_ku, denom)


def _mmse_decoder(h: np.ndarray, v: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """U* = (H V V^H H^H + denom)^{-1} H V via a Hermitian solve."""
    hv = h @ v
    return solve_pd(hermitize(hv @ hv.conj().T + denom), hv)


def optimal_decoder_down(eff: EffectiveChannels, bf: BeamformerSet, k: int,
                         noise_var: float) -> np.ndarray:
    n = eff.h_kd[k].shape[0]
    denom = downlink_interference(eff, bf, k) + noise_var * np.eye(n)
    return _mmse_decoder(eff.h_kd[k], bf.v_d[k], denom)


def optimal_decoder_up(eff: EffectiveChannels, bf: BeamformerSet, k: int,
                       noise_var: float) -> np.ndarray:
    n = eff.h_t.shape[0]
    denom = uplink_interference(eff, bf, k) + noise_var * np.eye(n)
    return _mmse_decoder(eff.h_ku[k], bf.v_u[k], denom)


def optimal_weight_down(eff: EffectiveChannels, bf: BeamformerSet, u_star: np.ndarray,
                        k: int, noise_var: float) -> np.ndarray:
    return hermitize(inv_pd(mse_matrix_down(eff, bf, u_star, k, noise_var)))


def optimal_weight_up(eff: EffectiveChannels, bf: BeamformerSet, u_star: np.ndarray,
                      k: int, noise_var: float) -> np.ndarray:
    return hermitize(inv_pd(mse_matrix_up(eff, bf, u_star, k, noise_var)))


def update_state(eff: EffectiveChannels, bf: BeamformerSet,
                 noise_users: np.ndarray, noise_rx: float) -> WmmseState:
    """One full decoder/weight refresh for every link."""
    K = eff.n_users
    u_d, w_d, u_u, w_u = [], [], [], []
    for k in range(K):
        ud = optimal_decoder_down(eff, bf, k, float(noise_users[k]))
        u_d.append(ud)
        w_d.append(optimal_weight_down(eff, bf, ud, k, float(noise_users[k])))
        uu = optimal_decoder_up(eff, bf, k, noise_rx)
        u_u.append(uu)
        w_u.append(optimal_weight_up(eff, bf, uu, k, noise_rx))
    return WmmseState(u_d, w_d, u_u, w_u)


def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def constant_term(st: WmmseState, gamma_down: np.ndarray, gamma_up: np.ndarray,
                  noise_users: np.ndarray, noise_rx: float) -> float:
    """Beamformer-independent part: log|W| - Tr(W) - sigma^2 Tr(W U^H U) + s per link."""
    total = 0.0
    for k in range(st.n_users):
        w, u = st.w_d[k], st.u_d[k]
        s_d = w.shape[0]
        total += gamma_down[k] * (logdet_pd(w) - _tr(w)
                                  - float(noise_users[k]) * _tr(w @ u.conj().T @ u) + s_d)
        w, u = st.w_u[k], st.u_u[k]
        s_u = w.shape[0]
        total += gamma_up[k] * (logdet_pd(w) - _tr(w)
                                - noise_rx * _tr(w @ u.conj().T @ u) + s_u)
    return total


def surrogate_objective(eff: EffectiveChannels, bf: BeamformerSet, st: WmmseState,
                        gamma_down: np.ndarray, gamma_up: np.ndarray,
                        noise_users: np.ndarray, noise_rx: float) -> float:
    """Weighted surrogate in nats, evaluated term by term.

    Per user: the two signal cross terms minus the signal and interference
    quadratics on each link, plus the constant block; equals the weighted sum
    rate (in nats) when the decoders and weights are at their optima.
    """
    K = eff.n_users
    total = constant_term(st, gamma_down, gamma_up, noise_users, noise_rx)
    for k in range(K):
        w, u = st.w_d[k], st.u_d[k]
        hv = eff.h_kd[k] @ bf.v_d[k]
        uhv = u.conj().T @ hv
        total += gamma_down[k] * (2.0 * float(np.trace(w @ uhv).real)
                                  - _tr(w @ uhv @ uhv.conj().T))
        for j in range(K):
            m = u.conj().T @ eff.h_jk[j][k] @ bf.v_u[j]
            total -= gamma_down[k] * _tr(w @ m @ m.conj().T)

        w, u = st.w_u[k], st.u_u[k]
        hv = eff.h_ku[k] @ bf.v_u[k]
        uhv = u.conj().T @ hv
        total += gamma_up[k] * 2.0 * float(np.trace(w @ uhv).real)
        for j in range(K):
            m = u.conj().T @ eff.h_ku[j] @ bf.v_u[j]
            total -= gamma_up[k] * _tr(w @ m @ m.conj().T)
            md = u.conj().T @ eff.h_t @ bf.v_d[j]
            total -= gamma_up[k] * _tr(w @ md @ md.conj().T)
    return total
