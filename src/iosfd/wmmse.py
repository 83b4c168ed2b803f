"""Rate / mean-square-error equivalence machinery.

For each link the MMSE decoder U* and weight W* = E(U*)^{-1} turn the log-det
rate into the concave surrogate  log|W| - Tr(W E) + s,  tight at (U*, W*)
where log|W*| equals the rate in nats.  Both come from the link's whitened
form (C, G, W) of `system.whiten_links`, the one the rate is read from:
W* = I + G^H G (Woodbury: E(U*) = (I + V^H H^H B^{-1} H V)^{-1}) and
U* = C^{-H} G W*^{-1} (push-through identity).  The weighted surrogate over
all links is what the beamformer and phase blocks ascend.  `update_state`
and `surrogate_objective` read a point only through its `system.LinkSet`,
the one the rate there reads too.  Every quantity is stacked over the K
users and computed for all links at once, and over the seeds of a group in
front of that (see `system`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import adj, hermitize, logdet_pd, solve_pd
from .system import LinkSet, weighted_sum


@dataclass
class WmmseState:
    u_d: np.ndarray   # (K, N_ur, s_d)
    w_d: np.ndarray   # (K, s_d, s_d) Hermitian PD
    u_u: np.ndarray   # (K, N_r, s_u)
    w_u: np.ndarray   # (K, s_u, s_u) Hermitian PD

    @property
    def n_users(self) -> int:
        return self.u_d.shape[-3]


def _mse(hv: np.ndarray, u: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """(U^H H V - I)(.)^H + U^H (interference + noise) U, per link."""
    resid = adj(u) @ hv - np.eye(hv.shape[-1])
    return hermitize(resid @ adj(resid) + adj(u) @ denom @ u)


def _decoder_and_weight(white: tuple[np.ndarray, np.ndarray, np.ndarray]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """U* = C^{-H} G W^{-1} and W* = W from the links' whitened form (C, G, W)."""
    c, g, w = white
    return np.linalg.solve(adj(c), adj(solve_pd(w, adj(g)))), w


def update_state(links: LinkSet) -> WmmseState:
    """One full decoder/weight refresh for every link of `links`."""
    white_d, white_u = links.whitened()
    u_d, w_d = _decoder_and_weight(white_d)
    u_u, w_u = _decoder_and_weight(white_u)
    return WmmseState(u_d, w_d, u_u, w_u)


def _trace_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(A_k B_k) for each k of two (K, n, n) stacks."""
    return np.einsum("...ij,...ji->...", a, b).real


def surrogate_objective(links: LinkSet, st: WmmseState, gamma_down: np.ndarray,
                        gamma_up: np.ndarray):
    """Weighted surrogate in nats, sum over links of gamma (log|W| - Tr(W E) + s).

    E is each link's MSE matrix at the given decoders, from the point's links
    alone; equals the weighted sum rate (in nats) when the decoders and
    weights are at their optima.  A float, or one per leading index.
    """
    total = 0.0
    for gamma, w, u, hv, den in ((gamma_down, st.w_d, st.u_d, links.hv_d, links.den_d),
                                 (gamma_up, st.w_u, st.u_u, links.hv_u, links.den_u)):
        per_link = logdet_pd(w) - _trace_prod(w, _mse(hv, u, den)) + w.shape[-1]
        total = total + weighted_sum(gamma, per_link)
    return total if np.ndim(total) else float(total)
