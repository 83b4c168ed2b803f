"""Reference solvers the tests compare the production paths against.

`update_v_down` / `update_v_up` solve one precoder's stationarity condition
directly at a given multiplier, where the package sweeps every multiplier
through one eigendecomposition (`beamformers._RegularizedSolve`).
`surrogate_compact` evaluates the weighted surrogate through the compact
per-link form sum_k gamma (log|W| - Tr(W E) + s), where the package sums it
term by term (`wmmse.surrogate_objective`).  `pgd_side_plain` is the plain
projected gradient that `phases._pgd_side` accelerates.
"""
from __future__ import annotations

import numpy as np

from iosfd.beamformers import xi_down, xi_up
from iosfd.errors import NumericalError
from iosfd.linalg import hermitize, logdet_pd, max_eigval, solve_pd
from iosfd.phases import PgdSettings, _value, project_feasible
from iosfd.system import BeamformerSet, EffectiveChannels
from iosfd.wmmse import WmmseState, mse_matrix_down, mse_matrix_up


def solve_psd_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solve for Hermitian PSD A (used for zero-multiplier probes)."""
    sol, *_ = np.linalg.lstsq(hermitize(a), b, rcond=None)
    return sol


def min_eigval(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def _solve_stationary(xi: np.ndarray, rhs: np.ndarray, mu: float) -> np.ndarray:
    if mu > 0.0:
        return solve_pd(xi, rhs)
    # Multiplier-free probe: Xi can be singular; take the minimum-norm solution.
    try:
        return solve_pd(xi, rhs)
    except NumericalError:
        return solve_psd_lstsq(xi, rhs)


def update_v_down(eff: EffectiveChannels, st: WmmseState, gamma_down: np.ndarray,
                  gamma_up: np.ndarray, mu: float, k: int) -> np.ndarray:
    xi = xi_down(eff, st, gamma_down, gamma_up, mu, k)
    rhs = gamma_down[k] * (eff.h_kd[k].conj().T @ st.u_d[k] @ st.w_d[k])
    return _solve_stationary(xi, rhs, mu)


def update_v_up(eff: EffectiveChannels, st: WmmseState, gamma_down: np.ndarray,
                gamma_up: np.ndarray, lam: float, k: int) -> np.ndarray:
    xi = xi_up(eff, st, gamma_down, gamma_up, lam, k)
    rhs = gamma_up[k] * (eff.h_ku[k].conj().T @ st.u_u[k] @ st.w_u[k])
    return _solve_stationary(xi, rhs, lam)


def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def surrogate_compact(eff: EffectiveChannels, bf: BeamformerSet, st: WmmseState,
                      gamma_down: np.ndarray, gamma_up: np.ndarray,
                      noise_users: np.ndarray, noise_rx: float) -> float:
    """Same value as `surrogate_objective` through the compact per-link form."""
    total = 0.0
    for k in range(st.n_users):
        e = mse_matrix_down(eff, bf, st.u_d[k], k, float(noise_users[k]))
        w = st.w_d[k]
        total += gamma_down[k] * (logdet_pd(w) - _tr(w @ e) + w.shape[0])
        e = mse_matrix_up(eff, bf, st.u_u[k], k, noise_rx)
        w = st.w_u[k]
        total += gamma_up[k] * (logdet_pd(w) - _tr(w @ e) + w.shape[0])
    return total


def pgd_side_plain(f1, c1, f2, c2, v1, v2, settings: PgdSettings):
    """Plain projected gradient on one side, with the step and stop rule of
    `phases._pgd_side`.  Returns the two vectors and whether the solve stopped
    at `max_iters`."""
    f1h, f2h = f1.conj().T, f2.conj().T
    lam = max(max_eigval(f1h @ f1), max_eigval(f2h @ f2), 1e-30)
    step = 1.0 / (2.0 * lam)
    c1, c2 = c1.conj(), c2.conj()

    v1, v2 = project_feasible(v1.copy(), v2.copy())
    p1, p2 = f1h @ v1, f2h @ v2
    f_cur = _value(p1, v1, c1) + _value(p2, v2, c2)
    for _ in range(settings.max_iters):
        g1 = 2.0 * (f1 @ p1 - c1)
        g2 = 2.0 * (f2 @ p2 - c2)
        trial = step
        for _ in range(60):
            w1, w2 = project_feasible(v1 - trial * g1, v2 - trial * g2)
            q1, q2 = f1h @ w1, f2h @ w2
            f_new = _value(q1, w1, c1) + _value(q2, w2, c2)
            if f_new <= f_cur + 1e-15:
                break
            trial *= 0.5
        else:
            return v1, v2, False
        moved = f_cur - f_new
        v1, v2, p1, p2, f_cur = w1, w2, q1, q2, f_new
        if moved <= settings.tolerance * max(1.0, abs(f_cur)):
            return v1, v2, False
    return v1, v2, True
