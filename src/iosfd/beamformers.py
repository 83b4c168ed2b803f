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
stack in front of that.  One search call per update covers every seed's
downlink and every (seed, user) uplink, on budgets of shape (..., 1 + K),
or of shape (..., K) when the downlink right-hand side is exactly zero;
its state is one array of that shape per quantity, and a search that has
ended probes NaN from then on.

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


def _g(power: np.ndarray, target) -> np.ndarray:
    """g = power^(-1/2) - target elementwise, infinite at zero power and
    -target at infinite power.  The root is Python's float pow: numpy's
    power rounds some of these inputs differently."""
    return np.array([math.inf if p == 0.0 else p ** -0.5 for p in power.ravel().tolist()]
                    ).reshape(power.shape) - target


def bisect_multiplier(power_of: Callable[[np.ndarray], np.ndarray], budget,
                      eps_b: float = 1e-4):
    """Smallest multiplier whose consumed power meets the budget, for one
    search or for an array of independent searches (one per entry of
    `budget`), advanced together.

    Each search checks the multiplier-free solution first; otherwise doubles
    the upper end of the bracket [0, 1] until feasible (each infeasible end
    becomes the lower one), then takes secant steps on
    g = power^(-1/2) - budget^(-1/2) inside the bracket, bisecting when a step
    leaves it and on every _BISECT_EVERY-th step.  The hard accuracy target is
    eps_b * budget on the power gap, but iteration continues toward machine
    precision so the result acts like the exact dual point: the feasible end
    `hi` of the bracket.  Each probe is one call of `power_of` with one
    multiplier per search (budget's shape), NaN for a search that is waiting
    or finished, returning their powers.  Every search makes the probes, and
    returns the multiplier, that it makes alone: all searches double their
    brackets first, then take their secant steps in lockstep, on one shared
    step count.  The state is one array of budget's shape per quantity.  A
    search that has ended keeps its bracket and power (one met at zero has
    the bracket [0, 0]), so its stop test stays true; its probe is NaN and
    its g, which no step reads, is that of its held power.
    """
    budget = np.asarray(budget, dtype=float)
    if (budget < 0).any():
        raise ValueError("power budget must be nonnegative")
    # p(0) may divide by zero; a zero secant denominator gives an infinite or
    # NaN step, which the bracket test turns into a bisection
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.asarray(power_of(np.zeros(budget.shape)), dtype=float)
        hi = np.where(p <= budget * (1.0 + 1e-12), 0.0, 1.0)
        if ((hi > 0.0) & (budget == 0.0)).any():
            raise NumericalError("zero budget with nonzero unconstrained power")
        target = _g(budget, 0.0)        # budget^(-1/2)
        lo, g_lo = np.zeros(budget.shape), _g(p, target)
        g_b, grows = g_lo, hi > 0.0
        for doublings in range(_MAX_DOUBLINGS + 2):
            if not grows.any():
                break
            if doublings > _MAX_DOUBLINGS:
                raise NumericalError("multiplier bracket never became feasible")
            p_hi = np.asarray(power_of(np.where(grows, hi, np.nan)), dtype=float)
            g_hi = _g(p_hi, target)
            fits = grows & (p_hi <= budget)
            p, g_b = np.where(fits, p_hi, p), np.where(fits, g_hi, g_b)
            grows = grows & ~fits
            lo, g_lo = np.where(grows, hi, lo), np.where(grows, g_hi, g_lo)
            hi = np.where(grows, 2.0 * hi, hi)

        tol = min(eps_b, _POWER_REL_TOL) * budget
        a, g_a, b = lo, g_lo, hi            # the last two probes, for the secant
        for step in range(1, _MAX_STEPS + 1):
            gap = budget - p
            end = ((gap >= 0.0) & (gap <= tol)) | ((hi - lo) <= 1e-15 * hi)
            if end.all():
                break
            mid = 0.5 * (lo + hi)
            if step % _BISECT_EVERY == 0:
                x = mid
            else:
                x = b - g_b * (b - a) / (g_b - g_a)
                x = np.where((lo < x) & (x < hi), x, mid)
            x = np.where(end, np.nan, x)
            p = np.where(end, p, power_of(x))
            over = p > budget
            lo, hi = np.where(over & ~end, x, lo), np.where(over | end, hi, x)
            a, g_a, b, g_b = b, g_b, x, _g(p, target)
    return hi[()]


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
        self._carries = self._weights > 0.0

    def power(self, mu: np.ndarray, axis) -> np.ndarray:
        """Consumed power at multipliers `mu` (broadcast against the (K, n)
        eigenvalue stack), summed over `axis`: one user's n eigen-terms, or
        all K users' for a shared multiplier.  At mu = 0 a zero eigenvalue
        divides by zero; where it carries weight the power is infinite."""
        d = self._vals + mu
        return np.add.reduce(np.where(self._carries, self._weights / (d * d), 0.0), axis=axis)

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
    budget; uplink multipliers are solved per user.  One `bisect_multiplier`
    call runs a downlink and K uplink searches per leading index, on budgets
    of shape (..., 1 + K).  A downlink right-hand side that is exactly zero
    (the zero decoders of the single-side baseline's V_d = 0) has zero power
    at every multiplier: V_d comes back 0 at mu = 0 unsearched, and the uplink
    budgets (..., K) are searched alone, with the probes they make beside it.
    """
    *lead, K = eff.h_kd.shape[:-2]
    lead = tuple(lead)
    uw, core = downlink_weight_core(st, gamma_down), uplink_weight_core(st, gamma_up)
    gd = np.asarray(gamma_down, dtype=float)[:, None, None]
    gu = np.asarray(gamma_up, dtype=float)[:, None, None]

    up = _RegularizedSolve(xi_up(eff, uw, core),
                           gu * (adj(eff.h_ku) @ st.u_u @ st.w_u))
    rhs_d = gd * (adj(eff.h_kd) @ st.u_d @ st.w_d)
    if not rhs_d.any():
        lams = bisect_multiplier(lambda m: up.power(m[..., None], -1),
                                 np.full(lead + (K,), p_u), eps_b)
        return (BeamformerSet(np.zeros_like(rhs_d), up.solution(lams)),
                DualState(np.zeros(lead)[()], lams))
    down = _RegularizedSolve(xi_down(eff, uw, core), rhs_d)

    def power(m):       # column 0: the downlink sum; columns 1..K: the uplink users
        out = np.zeros(m.shape)
        out[..., 0] = down.power(m[..., :1, None], (-2, -1))
        out[..., 1:] = up.power(m[..., 1:, None], -1)
        return out
    mult = bisect_multiplier(power, np.concatenate(
        [np.full(lead + (1,), p_b), np.full(lead + (K,), p_u)], axis=-1), eps_b)
    mu, lams = mult[..., 0][()], mult[..., 1:]
    v_d = down.solution(np.asarray(mu)[..., None])
    return BeamformerSet(v_d, up.solution(lams)), DualState(mu, lams)
