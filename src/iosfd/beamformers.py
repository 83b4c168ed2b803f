"""Closed-form precoder updates with dual multipliers found by bisection.

With decoders and weights held fixed the surrogate is concave in each precoder
block and the stationarity conditions are linear:

    V_kd = Xi_kd^{-1} (gamma_kd H_kd^H U_kd W_kd)
    V_ku = Xi_ku^{-1} (gamma_ku H_ku^H U_ku W_ku)

where Xi collects the weighted quadratic couplings plus mu*I (downlink) or
lambda_k*I (uplink).  Consumed power is nonincreasing in the multiplier, so a
bisection drives it onto the budget whenever the unconstrained solution is
infeasible.  One multiplier covers the whole downlink (sum-power constraint);
uplink users are budgeted individually.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .linalg import hermitize
from .system import BeamformerSet, EffectiveChannels
from .wmmse import WmmseState

# Bisection runs far below the guaranteed tolerance so the updates behave like
# exact KKT solutions and the outer loop keeps its monotone ascent.
_POWER_REL_TOL = 1e-12
_MAX_DOUBLINGS = 60
_MAX_BISECT = 200


@dataclass
class DualState:
    """Multipliers of the last update: downlink sum power, then per uplink user."""
    mu_d: float
    lambda_u: np.ndarray


def uplink_weight_core(st: WmmseState, gamma_up: np.ndarray) -> np.ndarray:
    """sum_j gamma_ju U_ju W_ju U_ju^H, shared by every downlink update."""
    n = st.u_u[0].shape[0]
    core = np.zeros((n, n), dtype=complex)
    for j in range(st.n_users):
        core += gamma_up[j] * (st.u_u[j] @ st.w_u[j] @ st.u_u[j].conj().T)
    return hermitize(core)


def xi_down(eff: EffectiveChannels, st: WmmseState, gamma_down: np.ndarray,
            gamma_up: np.ndarray, mu: float, k: int) -> np.ndarray:
    """Downlink quadratic: own-link term plus the self-coupling penalty plus mu*I."""
    h = eff.h_kd[k]
    uw = st.u_d[k] @ st.w_d[k] @ st.u_d[k].conj().T
    xi = gamma_down[k] * (h.conj().T @ uw @ h)
    xi += eff.h_t.conj().T @ uplink_weight_core(st, gamma_up) @ eff.h_t
    n_t = eff.h_t.shape[1]
    return hermitize(xi) + mu * np.eye(n_t)


def xi_up(eff: EffectiveChannels, st: WmmseState, gamma_down: np.ndarray,
          gamma_up: np.ndarray, lam: float, k: int) -> np.ndarray:
    """Uplink quadratic: leakage into every downlink receiver plus the
    receive-side coupling, plus lambda*I.  h_jk[k][j] is the user-k to user-j
    effective channel."""
    n_ut = eff.h_ku[k].shape[1]
    xi = np.zeros((n_ut, n_ut), dtype=complex)
    for j in range(eff.n_users):
        h_kj = eff.h_jk[k][j]
        uw = st.u_d[j] @ st.w_d[j] @ st.u_d[j].conj().T
        xi += gamma_down[j] * (h_kj.conj().T @ uw @ h_kj)
    h = eff.h_ku[k]
    xi += h.conj().T @ uplink_weight_core(st, gamma_up) @ h
    return hermitize(xi) + lam * np.eye(n_ut)


def bisect_multiplier(power_of: Callable[[float], float], budget: float,
                      eps_b: float = 1e-4) -> float:
    """Smallest multiplier whose consumed power meets the budget.

    Checks the multiplier-free solution first; otherwise doubles the upper
    end of the bracket [0, 1] until feasible and bisects.  The hard accuracy
    target is eps_b * budget on the power gap, but iteration continues toward
    machine precision so the result acts like the exact dual point.
    """
    if budget < 0:
        raise ValueError("power budget must be nonnegative")
    lo, hi = 0.0, 1.0
    if power_of(lo) <= budget * (1.0 + 1e-12):
        return lo
    if budget == 0.0:
        raise NumericalError("zero budget with nonzero unconstrained power")

    doublings = 0
    while power_of(hi) > budget:
        hi *= 2.0
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise NumericalError("bisection bracket never became feasible")

    tol = min(eps_b, _POWER_REL_TOL) * budget
    mid = hi
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        p = power_of(mid)
        if p > budget:
            lo = mid
        else:
            hi = mid
        if abs(p - budget) <= tol or (hi - lo) <= 1e-15 * max(1.0, hi):
            break
    # Report the feasible side of the bracket.
    return hi if power_of(mid) > budget else mid


class _RegularizedSolve:
    """Closed-form multiplier sweep of V(mu) = (Xi0 + mu I)^{-1} R.

    One eigendecomposition of the PSD quadratic Xi0 turns every multiplier
    probe into an O(n^2) rescale, and the consumed power into the rational
    map sum_i w_i / (lambda_i + mu)^2.  Only roundoff-negative eigenvalues
    are clipped; a zero eigenvalue that carries any of R makes the
    multiplier-free power infinite, which the bisection treats as infeasible.
    """

    def __init__(self, xi0: np.ndarray, rhs: np.ndarray) -> None:
        vals, vecs = np.linalg.eigh(hermitize(xi0))
        self._vals = np.clip(vals, 0.0, None)
        self._vecs = vecs
        self._proj = vecs.conj().T @ rhs
        self._weights = np.sum(np.abs(self._proj) ** 2, axis=1)

    def power(self, mu: float) -> float:
        denom = (self._vals + mu) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(self._weights > 0.0, self._weights / denom, 0.0)
        return float(np.sum(terms))

    def solution(self, mu: float) -> np.ndarray:
        denom = self._vals + mu
        safe = np.where(denom > 0.0, denom, 1.0)
        scaled = np.where((denom > 0.0)[:, None], self._proj / safe[:, None], 0.0)
        return self._vecs @ scaled


def update_beamformers(eff: EffectiveChannels, st: WmmseState,
                       gamma_down: np.ndarray, gamma_up: np.ndarray,
                       p_b: float, p_u: float, eps_b: float = 1e-4,
                       update_downlink: bool = True,
                       current: BeamformerSet | None = None) -> tuple[BeamformerSet, DualState]:
    """Refresh every precoder from the current decoders/weights.

    The downlink multiplier couples all K precoders through the sum-power
    budget; uplink multipliers are solved per user.  With `update_downlink`
    off the existing downlink precoders are kept (single-side baseline).
    """
    K = eff.n_users

    if update_downlink:
        solvers = [_RegularizedSolve(
            xi_down(eff, st, gamma_down, gamma_up, 0.0, k),
            gamma_down[k] * (eff.h_kd[k].conj().T @ st.u_d[k] @ st.w_d[k]))
            for k in range(K)]
        mu = bisect_multiplier(lambda m: sum(s.power(m) for s in solvers), p_b, eps_b)
        v_d = [s.solution(mu) for s in solvers]
    else:
        if current is None:
            raise ValueError("need current beamformers when downlink is frozen")
        mu = 0.0
        v_d = [v.copy() for v in current.v_d]

    v_u, lams = [], np.zeros(K)
    for k in range(K):
        solver = _RegularizedSolve(
            xi_up(eff, st, gamma_down, gamma_up, 0.0, k),
            gamma_up[k] * (eff.h_ku[k].conj().T @ st.u_u[k] @ st.w_u[k]))
        lam = bisect_multiplier(solver.power, p_u, eps_b)
        lams[k] = lam
        v_u.append(solver.solution(lam))

    return BeamformerSet(v_d, v_u), DualState(mu, lams)
