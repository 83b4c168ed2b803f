"""Closed-form precoder updates with dual multipliers found by a secant search
with bisection safeguard.

With decoders and weights held fixed the surrogate is concave in each precoder
block and the stationarity conditions are linear:

    V_kd = Xi_kd^{-1} (gamma_kd H_kd^H U_kd W_kd)
    V_ku = Xi_ku^{-1} (gamma_ku H_ku^H U_ku W_ku)

where Xi collects the weighted quadratic couplings plus mu*I (downlink) or
lambda_k*I (uplink).  Consumed power is nonincreasing in the multiplier, so a
root search drives it onto the budget whenever the unconstrained solution is
infeasible.  One multiplier covers the whole downlink (sum-power constraint);
uplink users are budgeted individually.  All K quadratics of a direction are
built and eigendecomposed as one (K, n, n) stack.

The consumed power is p(mu) = sum_i w_i / (lambda_i + mu)^2, so
p(mu)^(-1/2) is exactly linear in mu for a single eigen-term and nearly
linear otherwise (More & Sorensen, SIAM J. Sci. Stat. Comput. 1983).  Secant
steps on g(mu) = p(mu)^(-1/2) - P^(-1/2) therefore find the budget in a few
probes; a step that leaves the bracket, and every few steps, is replaced by
a bisection step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .linalg import adj, hermitize
from .system import BeamformerSet, EffectiveChannels
from .wmmse import WmmseState

# The search runs far below the guaranteed tolerance so the updates behave like
# exact KKT solutions and the outer loop keeps its monotone ascent.
_POWER_REL_TOL = 1e-12
_MAX_DOUBLINGS = 60
_MAX_STEPS = 200
_BISECT_EVERY = 5


@dataclass
class DualState:
    """Multipliers of the last update: downlink sum power, then per uplink user."""
    mu_d: float
    lambda_u: np.ndarray


def uplink_weight_core(st: WmmseState, gamma_up: np.ndarray) -> np.ndarray:
    """sum_j gamma_ju U_ju W_ju U_ju^H, shared by every precoder quadratic."""
    uw = st.u_u @ st.w_u @ adj(st.u_u)
    return hermitize(np.tensordot(np.asarray(gamma_up, dtype=float), uw, axes=1))


def downlink_weight_core(st: WmmseState, gamma_down: np.ndarray) -> np.ndarray:
    """(K, N_ur, N_ur) gamma_kd U_kd W_kd U_kd^H, read by both directions' quadratics."""
    return np.asarray(gamma_down, dtype=float)[:, None, None] * (st.u_d @ st.w_d @ adj(st.u_d))


def xi_down(eff: EffectiveChannels, uw: np.ndarray, core: np.ndarray) -> np.ndarray:
    """(K, N_t, N_t) downlink quadratics at zero multiplier: own-link term with
    the downlink weight core `uw` plus the self-coupling penalty h_t^H core h_t."""
    return hermitize(adj(eff.h_kd) @ uw @ eff.h_kd + eff.h_t.conj().T @ core @ eff.h_t)


def xi_up(eff: EffectiveChannels, uw: np.ndarray, core: np.ndarray) -> np.ndarray:
    """(K, N_ut, N_ut) uplink quadratics at zero multiplier: user k's leakage
    into every downlink receiver j through h_jk[k, j], weighted by the downlink
    weight core `uw`, plus the receive-side coupling h_ku^H core h_ku."""
    leak = (adj(eff.h_jk) @ uw[None] @ eff.h_jk).sum(axis=1)
    return hermitize(leak + adj(eff.h_ku) @ core @ eff.h_ku)


def bisect_multiplier(power_of: Callable[[float], float], budget: float,
                      eps_b: float = 1e-4) -> float:
    """Smallest multiplier whose consumed power meets the budget.

    Checks the multiplier-free solution first; otherwise doubles the upper
    end of the bracket [0, 1] until feasible (each infeasible end becomes the
    lower one), then takes secant steps on
    g = power^(-1/2) - budget^(-1/2) inside the bracket, bisecting when a step
    leaves it and on every _BISECT_EVERY-th step.  The hard accuracy target is
    eps_b * budget on the power gap, but iteration continues toward machine
    precision so the result acts like the exact dual point.  Each probe is
    one call of `power_of`.
    """
    if budget < 0:
        raise ValueError("power budget must be nonnegative")
    lo, hi = 0.0, 1.0
    p = power_of(lo)
    if p <= budget * (1.0 + 1e-12):
        return lo
    if budget == 0.0:
        raise NumericalError("zero budget with nonzero unconstrained power")

    target = budget ** -0.5

    def g(power: float) -> float:
        if power == 0.0:
            return math.inf
        return (0.0 if math.isinf(power) else power ** -0.5) - target

    g_lo = g(p)
    doublings = 0
    while (p := power_of(hi)) > budget:
        lo, g_lo = hi, g(p)
        hi *= 2.0
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise NumericalError("multiplier bracket never became feasible")

    tol = min(eps_b, _POWER_REL_TOL) * budget
    x = hi
    a, g_a, b, g_b = lo, g_lo, hi, g(p)      # the last two probes, for the secant
    for step in range(1, _MAX_STEPS + 1):
        if 0.0 <= budget - p <= tol or (hi - lo) <= 1e-15 * hi:
            break
        x = b - g_b * (b - a) / (g_b - g_a) if g_b != g_a else lo
        if step % _BISECT_EVERY == 0 or not lo < x < hi:
            x = 0.5 * (lo + hi)
        p = power_of(x)
        if p > budget:
            lo = x
        else:
            hi = x
        a, g_a, b, g_b = b, g_b, x, g(p)
    # Report the feasible side of the bracket.
    return x if p <= budget else hi


class _RegularizedSolve:
    """Closed-form multiplier sweep of V_k(mu) = (Xi0_k + mu I)^{-1} R_k for a
    stack of K quadratics.

    One stacked eigendecomposition of the PSD quadratics Xi0 turns every
    multiplier probe into a rescale, and the consumed power of user k into
    the rational map sum_i w_ki / (lambda_ki + mu)^2.  Only roundoff-negative
    eigenvalues are clipped; a zero eigenvalue that carries any of R makes the
    multiplier-free power infinite, which the search treats as infeasible.
    """

    def __init__(self, xi0: np.ndarray, rhs: np.ndarray) -> None:
        vals, vecs = np.linalg.eigh(xi0)
        self._vals = np.clip(vals, 0.0, None)
        self._vecs = vecs
        self._proj = adj(vecs) @ rhs
        self._weights = np.sum(np.abs(self._proj) ** 2, axis=-1)

    def power(self, mu: float, users=slice(None)) -> float:
        """Consumed power at multiplier mu, summed over the selected users."""
        w, d = self._weights[users], self._vals[users] + mu
        if mu > 0.0:
            return float(np.sum(w / (d * d)))
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.sum(np.where(w > 0.0, w / (d * d), 0.0)))

    def solution(self, mu) -> np.ndarray:
        """(K, n, s) precoders at one multiplier, or at one per user (shape (K,))."""
        denom = self._vals + np.reshape(mu, (-1, 1))
        safe = np.where(denom > 0.0, denom, 1.0)
        scaled = np.where((denom > 0.0)[..., None], self._proj / safe[..., None], 0.0)
        return self._vecs @ scaled


def update_beamformers(eff: EffectiveChannels, st: WmmseState,
                       gamma_down: np.ndarray, gamma_up: np.ndarray,
                       p_b: float, p_u: float, eps_b: float = 1e-4,
                       frozen_v_d: np.ndarray | None = None
                       ) -> tuple[BeamformerSet, DualState]:
    """Refresh every precoder from the current decoders/weights.

    The downlink multiplier couples all K precoders through the sum-power
    budget; uplink multipliers are solved per user.  Given `frozen_v_d`, the
    downlink precoders are kept as they are (single-side baseline).
    """
    K = eff.n_users
    uw, core = downlink_weight_core(st, gamma_down), uplink_weight_core(st, gamma_up)
    gd = np.asarray(gamma_down, dtype=float)[:, None, None]
    gu = np.asarray(gamma_up, dtype=float)[:, None, None]

    if frozen_v_d is None:
        down = _RegularizedSolve(xi_down(eff, uw, core),
                                 gd * (adj(eff.h_kd) @ st.u_d @ st.w_d))
        mu = bisect_multiplier(down.power, p_b, eps_b)
        v_d = down.solution(mu)
    else:
        mu = 0.0
        v_d = frozen_v_d.copy()

    up = _RegularizedSolve(xi_up(eff, uw, core),
                           gu * (adj(eff.h_ku) @ st.u_u @ st.w_u))
    lams = np.array([bisect_multiplier(lambda m, k=k: up.power(m, k), p_u, eps_b)
                     for k in range(K)])
    return BeamformerSet(v_d, up.solution(lams)), DualState(mu, lams)
