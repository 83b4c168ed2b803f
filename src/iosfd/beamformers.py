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
built and eigendecomposed as one (K, n, n) stack, and the seeds of a group
stack in front of that.  Each multiplier is then one scalar search in Python
floats on its own power map: per seed, the downlink over all K users'
eigen-terms, and per (seed, user), the uplink over that user's.

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
    """Multipliers of the last update: downlink sum power, then per uplink user
    (with the leading axes of the precoders they belong to)."""
    mu_d: float
    lambda_u: np.ndarray


def uplink_weight_core(st: WmmseState, gamma_up: np.ndarray) -> np.ndarray:
    """sum_j gamma_ju U_ju W_ju U_ju^H, shared by every precoder quadratic."""
    uw = st.u_u @ st.w_u @ adj(st.u_u)
    *lead, K, n, _ = uw.shape
    # a 1 x K row times K x n^2, the product np.tensordot forms for one run
    row = np.asarray(gamma_up, dtype=float).astype(complex)[None, :]
    return hermitize((row @ uw.reshape(*lead, K, n * n)).reshape(*lead, n, n))


def downlink_weight_core(st: WmmseState, gamma_down: np.ndarray) -> np.ndarray:
    """(K, N_ur, N_ur) gamma_kd U_kd W_kd U_kd^H, read by both directions' quadratics."""
    return np.asarray(gamma_down, dtype=float)[:, None, None] * (st.u_d @ st.w_d @ adj(st.u_d))


def xi_down(eff: EffectiveChannels, uw: np.ndarray, core: np.ndarray) -> np.ndarray:
    """(K, N_t, N_t) downlink quadratics at zero multiplier: own-link term with
    the downlink weight core `uw` plus the self-coupling penalty h_t^H core h_t."""
    return hermitize(adj(eff.h_kd) @ uw @ eff.h_kd
                     + (adj(eff.h_t) @ core @ eff.h_t)[..., None, :, :])


def xi_up(eff: EffectiveChannels, uw: np.ndarray, core: np.ndarray) -> np.ndarray:
    """(K, N_ut, N_ut) uplink quadratics at zero multiplier: user k's leakage
    into every downlink receiver j through h_jk[k, j], weighted by the downlink
    weight core `uw`, plus the receive-side coupling h_ku^H core h_ku."""
    leak = (adj(eff.h_jk) @ uw[..., None, :, :, :] @ eff.h_jk).sum(axis=-3)
    return hermitize(leak + adj(eff.h_ku) @ core[..., None, :, :] @ eff.h_ku)


def bisect_multiplier(power_of: Callable[[float], float], budget: float,
                      eps_b: float = 1e-4) -> float:
    """Smallest multiplier whose consumed power `power_of(mu)` meets the
    budget, in Python floats.

    Checks the multiplier-free solution first; otherwise doubles the upper end
    of the bracket [0, 1] until feasible (each infeasible end becomes the
    lower one), then takes secant steps on g = power^(-1/2) - budget^(-1/2)
    inside the bracket, bisecting when a step leaves it and on every
    _BISECT_EVERY-th step.  The hard accuracy target is eps_b * budget on the
    power gap, but iteration continues toward machine precision so the result
    acts like the exact dual point: the feasible end `hi` of the bracket.
    """
    budget = float(budget)
    if budget < 0:
        raise ValueError("power budget must be nonnegative")
    p = power_of(0.0)
    if p <= budget * (1.0 + 1e-12):
        return 0.0
    if budget == 0.0:
        raise NumericalError("zero budget with nonzero unconstrained power")
    target = budget ** -0.5

    def g(power: float) -> float:       # infinite at zero power, -target at infinite
        return (power ** -0.5 if power else math.inf) - target

    lo, hi, g_lo = 0.0, 1.0, g(p)
    for _ in range(_MAX_DOUBLINGS + 1):
        if (p := power_of(hi)) <= budget:
            break
        lo, g_lo, hi = hi, g(p), 2.0 * hi
    else:
        raise NumericalError("multiplier bracket never became feasible")

    tol = min(eps_b, _POWER_REL_TOL) * budget
    a, g_a, b, g_b = lo, g_lo, hi, g(p)     # the last two probes, for the secant
    for step in range(1, _MAX_STEPS + 1):
        if 0.0 <= budget - p <= tol or hi - lo <= 1e-15 * hi:
            break
        # equal g values leave no secant; `lo`, like an infinite or NaN
        # step, fails the bracket test below and bisects
        x = b - g_b * (b - a) / (g_b - g_a) if g_b != g_a else lo
        if step % _BISECT_EVERY == 0 or not lo < x < hi:
            x = 0.5 * (lo + hi)
        p = power_of(x)
        if p > budget:
            lo = x
        else:
            hi = x
        a, g_a, b, g_b = b, g_b, x, g(p)
    return hi


def _power_map(eigvals: list[float], weights: list[float]) -> Callable[[float], float]:
    """mu -> sum_i w_i / (lambda_i + mu)^2 over the terms with w_i > 0, added
    left to right; a term is infinite where lambda_i + mu (or its square)
    is zero."""
    terms = [(lam, w) for lam, w in zip(eigvals, weights) if w > 0.0]

    def power(mu: float) -> float:
        total = 0.0
        for lam, w in terms:
            d = lam + mu
            d *= d
            total += w / d if d else math.inf
        return total
    return power


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

    def multipliers(self, budget: float, eps_b: float, shared: bool) -> np.ndarray:
        """One `bisect_multiplier` search per user (shape (..., K)), or with
        `shared` one per leading index over all K users' eigen-terms (shape
        (...)), each on the power map of its own eigen-terms."""
        lead = self._vals.shape[:-2] if shared else self._vals.shape[:-1]
        rows = zip(self._vals.reshape(math.prod(lead), -1).tolist(),
                   self._weights.reshape(math.prod(lead), -1).tolist())
        return np.array([bisect_multiplier(_power_map(vals, weights), float(budget), eps_b)
                         for vals, weights in rows]).reshape(lead)

    def solution(self, mu: np.ndarray) -> np.ndarray:
        """(K, n, s) precoders at the multipliers `mu`, one per user (shape (K,))
        or one shared (shape (1,))."""
        denom = self._vals + mu[..., None]
        safe = np.where(denom > 0.0, denom, 1.0)
        scaled = np.where((denom > 0.0)[..., None], self._proj / safe[..., None], 0.0)
        return self._vecs @ scaled


def update_beamformers(eff: EffectiveChannels, st: WmmseState,
                       gamma_down: np.ndarray, gamma_up: np.ndarray,
                       p_b: float, p_u: float, eps_b: float = 1e-4
                       ) -> tuple[BeamformerSet, DualState]:
    """Refresh every precoder from the current decoders/weights.

    The downlink multiplier couples all K precoders through the sum-power
    budget; uplink multipliers are solved per user.  Both directions'
    quadratics are eigendecomposed as batched stacks, then `bisect_multiplier`
    runs once per multiplier: per leading index one downlink search and K
    uplink searches.  A downlink right-hand side that is exactly zero (the
    zero decoders of the single-side baseline's V_d = 0) has zero power at
    every multiplier: V_d comes back 0 at mu = 0 unsearched.
    """
    uw, core = downlink_weight_core(st, gamma_down), uplink_weight_core(st, gamma_up)
    gd = np.asarray(gamma_down, dtype=float)[:, None, None]
    gu = np.asarray(gamma_up, dtype=float)[:, None, None]

    up = _RegularizedSolve(xi_up(eff, uw, core),
                           gu * (adj(eff.h_ku) @ st.u_u @ st.w_u))
    lams = up.multipliers(p_u, eps_b, shared=False)
    rhs_d = gd * (adj(eff.h_kd) @ st.u_d @ st.w_d)
    if not rhs_d.any():
        return (BeamformerSet(np.zeros_like(rhs_d), up.solution(lams)),
                DualState(np.zeros(lams.shape[:-1])[()], lams))
    down = _RegularizedSolve(xi_down(eff, uw, core), rhs_d)
    mu = down.multipliers(p_b, eps_b, shared=True)[()]
    v_d = down.solution(np.asarray(mu)[..., None])
    return BeamformerSet(v_d, up.solution(lams)), DualState(mu, lams)
