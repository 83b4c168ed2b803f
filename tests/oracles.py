"""Reference solvers the tests compare the production paths against.

The package computes every per-user quantity for all K users at once on
stacked arrays.  The oracles here are the per-user loop forms it replaced,
one user (and one interferer) at a time on single matrices:

* `downlink_interference` / `uplink_interference` and `downlink_rate` /
  `uplink_rate` / `rates_loop` (`system.weighted_sum_rate`), each rate the
  `numpy.linalg.slogdet` difference log|B + S| - log|B|, independent of the
  package's whitened evaluation;
* `mse_matrix_*`, `optimal_decoder_*`, `optimal_weight_*` and
  `update_state_loop` (`wmmse.update_state`);
* `surrogate_terms`, the surrogate summed term by term, and
  `surrogate_compact`, the per-link form sum_k gamma (log|W| - Tr(W E) + s)
  (`wmmse.surrogate_objective`);
* `xi_down` / `xi_up`, one precoder's quadratic at a given multiplier
  (`beamformers.xi_down` / `xi_up`), and `update_v_down` / `update_v_up`,
  which solve its stationarity condition directly where the package sweeps
  every multiplier through one eigendecomposition;
* `bisect_multiplier_plain`, the plain bisection that
  `beamformers.bisect_multiplier` replaced by a safeguarded secant search;
* `bisect_multiplier_scalar`, that secant search for one multiplier in
  Python floats, before it was vectorized over many searches.

`pgd_side_plain` is plain projected gradient on one side of the surface
QCQP, the reference that `phases._newton_side` is checked against.  It takes
`_newton_side`'s stacked (theta, phi) arguments through a thin adapter and
runs the loop one block at a time on (phi, theta) pairs, with the pairwise
radial projection `project_pair`.  `quantize_phases_per_vector` snaps and
projects the four surface vectors one at a time, where
`algorithm.quantize_phases` does it on the stacked array.

`run_plain` is the outer loop without extrapolation: one `outer_step` per
iteration, the stop test after each.  `algorithm.run_algorithm2` runs it as
is for schemes that quantize every iteration and adds SQUAREM cycles for the
others.

`build_layout_cross` forms the array planes with `np.cross` and
`np.linalg.norm`, and `sample_channels_loop` draws the links one matrix at a
time, each from its own `cn_sample` call in the fixed stream order; they are
the forms `geometry.build_layout` and `channels.sample_channels` replaced,
and must give the same bits.  `cn_sample`, the unit complex Gaussian draw
whose order that fixes, also draws the tests' random matrices.
"""
from __future__ import annotations

import math

import numpy as np

import iosfd.algorithm
from iosfd.channels import ChannelSet
from iosfd.errors import ConvergenceError, GeometryError, NumericalError
from iosfd.geometry import (SpatialLayout, antenna_gain, elevations_from_axis,
                            elevations_from_normal)
from iosfd.linalg import hermitize, logdet_pd, solve_pd
from iosfd.phases import PgdSettings, _value
from iosfd.system import LN2, BeamformerSet, EffectiveChannels, IosState
from iosfd.wmmse import WmmseState


def _tr(m: np.ndarray) -> float:
    return float(np.trace(m).real)


# -- rates ------------------------------------------------------------------

def _rate_slogdet(sig: np.ndarray, denom: np.ndarray) -> float:
    """log2|I + S B^{-1}| as (log|B + S| - log|B|) / ln 2, with S = sig sig^H."""
    _, with_signal = np.linalg.slogdet(denom + sig @ sig.conj().T)
    _, without = np.linalg.slogdet(denom)
    return float(with_signal - without) / LN2


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
    return _rate_slogdet(sig, denom)


def uplink_rate(eff: EffectiveChannels, bf: BeamformerSet, k: int,
                noise_var: float) -> float:
    sig = eff.h_ku[k] @ bf.v_u[k]
    n = sig.shape[0]
    denom = uplink_interference(eff, bf, k) + noise_var * np.eye(n)
    return _rate_slogdet(sig, denom)


def rates_loop(eff, bf, gamma_down, gamma_up, noise_users, noise_rx):
    """(r_down, r_up, weighted sum) user by user."""
    K = eff.n_users
    r_down = np.array([downlink_rate(eff, bf, k, float(noise_users[k])) for k in range(K)])
    r_up = np.array([uplink_rate(eff, bf, k, noise_rx) for k in range(K)])
    return r_down, r_up, float(np.dot(gamma_down, r_down) + np.dot(gamma_up, r_up))


# -- decoders and weights ---------------------------------------------------

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
    return hermitize(np.linalg.inv(mse_matrix_down(eff, bf, u_star, k, noise_var)))


def optimal_weight_up(eff: EffectiveChannels, bf: BeamformerSet, u_star: np.ndarray,
                      k: int, noise_var: float) -> np.ndarray:
    return hermitize(np.linalg.inv(mse_matrix_up(eff, bf, u_star, k, noise_var)))


def update_state_loop(eff: EffectiveChannels, bf: BeamformerSet,
                      noise_users: np.ndarray, noise_rx: float) -> WmmseState:
    """Decoders and weights of every link, one link at a time."""
    u_d, w_d, u_u, w_u = [], [], [], []
    for k in range(eff.n_users):
        ud = optimal_decoder_down(eff, bf, k, float(noise_users[k]))
        u_d.append(ud)
        w_d.append(optimal_weight_down(eff, bf, ud, k, float(noise_users[k])))
        uu = optimal_decoder_up(eff, bf, k, noise_rx)
        u_u.append(uu)
        w_u.append(optimal_weight_up(eff, bf, uu, k, noise_rx))
    return WmmseState(np.array(u_d), np.array(w_d), np.array(u_u), np.array(w_u))


# -- surrogate --------------------------------------------------------------

def surrogate_terms(eff: EffectiveChannels, bf: BeamformerSet, st: WmmseState,
                    gamma_down: np.ndarray, gamma_up: np.ndarray,
                    noise_users: np.ndarray, noise_rx: float) -> float:
    """Weighted surrogate in nats, evaluated term by term.

    Per user: the constant block, the two signal cross terms, minus the
    signal and interference quadratics on each link.
    """
    K = eff.n_users
    total = 0.0
    for k in range(K):
        w, u = st.w_d[k], st.u_d[k]
        total += gamma_down[k] * (logdet_pd(w) - _tr(w)
                                  - float(noise_users[k]) * _tr(w @ u.conj().T @ u)
                                  + w.shape[0])
        hv = eff.h_kd[k] @ bf.v_d[k]
        uhv = u.conj().T @ hv
        total += gamma_down[k] * (2.0 * float(np.trace(w @ uhv).real)
                                  - _tr(w @ uhv @ uhv.conj().T))
        for j in range(K):
            m = u.conj().T @ eff.h_jk[j][k] @ bf.v_u[j]
            total -= gamma_down[k] * _tr(w @ m @ m.conj().T)

        w, u = st.w_u[k], st.u_u[k]
        total += gamma_up[k] * (logdet_pd(w) - _tr(w)
                                - noise_rx * _tr(w @ u.conj().T @ u) + w.shape[0])
        hv = eff.h_ku[k] @ bf.v_u[k]
        uhv = u.conj().T @ hv
        total += gamma_up[k] * 2.0 * float(np.trace(w @ uhv).real)
        for j in range(K):
            m = u.conj().T @ eff.h_ku[j] @ bf.v_u[j]
            total -= gamma_up[k] * _tr(w @ m @ m.conj().T)
            md = u.conj().T @ eff.h_t @ bf.v_d[j]
            total -= gamma_up[k] * _tr(w @ md @ md.conj().T)
    return total


def surrogate_compact(eff: EffectiveChannels, bf: BeamformerSet, st: WmmseState,
                      gamma_down: np.ndarray, gamma_up: np.ndarray,
                      noise_users: np.ndarray, noise_rx: float) -> float:
    """The same value through the compact per-link form, link by link."""
    total = 0.0
    for k in range(st.n_users):
        e = mse_matrix_down(eff, bf, st.u_d[k], k, float(noise_users[k]))
        w = st.w_d[k]
        total += gamma_down[k] * (logdet_pd(w) - _tr(w @ e) + w.shape[0])
        e = mse_matrix_up(eff, bf, st.u_u[k], k, noise_rx)
        w = st.w_u[k]
        total += gamma_up[k] * (logdet_pd(w) - _tr(w @ e) + w.shape[0])
    return total


# -- precoders --------------------------------------------------------------

def uplink_weight_core(st: WmmseState, gamma_up: np.ndarray) -> np.ndarray:
    """sum_j gamma_ju U_ju W_ju U_ju^H."""
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


def bisect_multiplier_plain(power_of, budget: float, eps_b: float = 1e-4) -> float:
    """Plain bisection with the bracket, stop rule and feasible-side return of
    `beamformers.bisect_multiplier`."""
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
        if doublings > 60:
            raise NumericalError("bisection bracket never became feasible")

    tol = min(eps_b, 1e-12) * budget
    mid = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = power_of(mid)
        if p > budget:
            lo = mid
        else:
            hi = mid
        if abs(p - budget) <= tol or (hi - lo) <= 1e-15 * hi:
            break
    return hi if power_of(mid) > budget else mid


def solve_psd_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solve for Hermitian PSD A (used for zero-multiplier probes)."""
    sol, *_ = np.linalg.lstsq(hermitize(a), b, rcond=None)
    return sol


def min_eigval(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def max_eigval(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(a))[-1])


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


def project_pair(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radial projection of each (v1_l, v2_l) pair onto the unit disk, two
    vectors in and two out (`phases.project_feasible` on unstacked vectors)."""
    norm2 = np.abs(v1) ** 2 + np.abs(v2) ** 2
    scale = 1.0 / np.sqrt(np.maximum(norm2, 1.0))
    return v1 * scale, v2 * scale


def _pairwise(loop):
    """`loop` over (F_phi, c_phi, F_theta, c_theta, phi, theta) called with
    `_newton_side`'s (factors, lin, v) in (theta, phi) order; the two returned
    vectors come back stacked as (theta, phi)."""
    def adapted(factors, lin, v, settings: PgdSettings):
        phi, theta, *rest = loop(factors[1], lin[1], factors[0], lin[0], v[1], v[0], settings)
        return (np.stack([theta, phi]), *rest)
    adapted.__doc__ = loop.__doc__
    return adapted


@_pairwise
def pgd_side_plain(f1, c1, f2, c2, v1, v2, settings: PgdSettings):
    """Plain projected gradient on one side: step 1 / (2 max eig F^H F), up
    to 60 halvings, stop when a step decreases the value by at most
    tolerance * max(1, |value|).  Returns the (theta, phi) solution and
    whether the solve stopped at `max_iters`."""
    f1h, f2h = f1.conj().T, f2.conj().T
    lam = max(max_eigval(f1h @ f1), max_eigval(f2h @ f2), 1e-30)
    step = 1.0 / (2.0 * lam)
    c1, c2 = c1.conj(), c2.conj()

    v1, v2 = project_pair(v1.copy(), v2.copy())
    p1, p2 = f1h @ v1, f2h @ v2
    f_cur = _value(p1, v1, c1) + _value(p2, v2, c2)
    for _ in range(settings.max_iters):
        g1 = 2.0 * (f1 @ p1 - c1)
        g2 = 2.0 * (f2 @ p2 - c2)
        trial = step
        for _ in range(60):
            w1, w2 = project_pair(v1 - trial * g1, v2 - trial * g2)
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


# -- surface ----------------------------------------------------------------

def quantize_phases_per_vector(ios: IosState, bits: int):
    """(theta_t, phi_t, theta_u, phi_u): each vector's phases snapped to the
    nearest of 2^bits levels, then each side's pair projected onto its disks."""
    delta = 2.0 * np.pi / (2 ** bits)

    def snap(vec: np.ndarray) -> np.ndarray:
        amp = np.abs(vec)
        ph = np.round(IosState.phases(vec) / delta) * delta
        return amp * np.exp(1j * ph)

    theta_t, phi_t = project_pair(snap(ios.theta_t), snap(ios.phi_t))
    theta_u, phi_u = project_pair(snap(ios.theta_u), snap(ios.phi_u))
    return theta_t, phi_t, theta_u, phi_u


# -- outer loop -----------------------------------------------------------------

def run_plain(ch, cfg, scheme):
    """Plain alternating loop: `outer_step` until the relative change of the
    weighted sum rate is within eps_w; monotone schemes are held to ascent.
    Each step returns its rated image (quantized, for schemes that quantize
    every iteration).  Blocks are looked up in `iosfd.algorithm`, as the
    package does."""
    alg = iosfd.algorithm
    bf, ios = alg.apply_scheme(scheme, ch, cfg)
    links = alg.LinkSet.at(alg._compose(ch, ios, scheme), bf, cfg.noise_users, cfg.noise_rx)
    x = alg._Iterate(bf, ios, alg.weighted_sum_rate(links, cfg.gamma_down, cfg.gamma_up))
    monotone = not scheme.quantizes_each_iter
    rates = [x.rate]
    step_log = []
    terminated_by = "max_iters"
    iterations = pgd_iters = pgd_cap_exits = 0

    for it in range(cfg.max_outer_iters):
        y, pgd, surrogates = alg.outer_step(ch, cfg, scheme, x)
        pgd_iters += pgd.iters
        pgd_cap_exits += pgd.cap_exits
        step_log.append(surrogates)

        new, old = y.rate, x.rate
        x = y
        rates.append(new)
        iterations = it + 1
        if monotone and (old - new) > cfg.divergence_rel_tol * max(abs(new), 1e-12):
            raise ConvergenceError(
                f"weighted sum rate decreased at iteration {iterations}: {old} -> {new}")
        diff = abs(new - old)
        if diff == 0.0 or diff / max(abs(new), 1e-300) <= cfg.eps_w:
            terminated_by = "tolerance"
            break

    trace = alg.ConvergenceTrace(rates, iterations, terminated_by, step_log,
                                 pgd_cap_exits, pgd_iters)
    return alg.RunResult(x.bf, x.ios, trace, x.report, x.duals)


def bisect_multiplier_scalar(power_of, budget: float, eps_b: float = 1e-4) -> float:
    """One search of `beamformers.bisect_multiplier` in Python floats: the
    bracket doubling, then secant steps on g = p^(-1/2) - budget^(-1/2) with a
    bisection when a step leaves the bracket and on every fifth step.  The
    vectorized search must make the same probes and return the same bits."""
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
        if doublings > 60:
            raise NumericalError("multiplier bracket never became feasible")
    tol = min(eps_b, 1e-12) * budget
    x = hi
    a, g_a, b, g_b = lo, g_lo, hi, g(p)
    for step in range(1, 201):
        if 0.0 <= budget - p <= tol or (hi - lo) <= 1e-15 * hi:
            break
        x = b - g_b * (b - a) / (g_b - g_a) if g_b != g_a else lo
        if step % 5 == 0 or not lo < x < hi:
            x = 0.5 * (lo + hi)
        p = power_of(x)
        if p > budget:
            lo = x
        else:
            hi = x
        a, g_a, b, g_b = b, g_b, x, g(p)
    return x if p <= budget else hi


# -- layout and channel draw ----------------------------------------------------

def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise GeometryError("zero-length direction vector (coincident anchors?)")
    return v / n


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(normal, helper))) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    u1 = _unit(np.cross(normal, helper))
    u2 = np.cross(normal, u1)
    return u1, u2


def _grid_positions(anchor: np.ndarray, n: int, spacing: float,
                    u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    cols = math.ceil(math.sqrt(n))
    idx = np.arange(n)
    return anchor + spacing * ((idx % cols)[:, None] * u1 + (idx // cols)[:, None] * u2)


def build_layout_cross(cfg) -> SpatialLayout:
    """`geometry.build_layout` with its plane axes from `np.cross`."""
    if min(cfg.n_tx, cfg.n_rx, cfg.n_elements, cfg.n_user_tx, cfg.n_user_rx) < 1:
        raise GeometryError("antenna/element counts must all be >= 1")
    if cfg.wavelength <= 0:
        raise GeometryError("wavelength must be positive")

    tx_anchor = np.asarray(cfg.tx_anchor, dtype=float)
    rx_anchor = np.asarray(cfg.rx_anchor, dtype=float)
    ios_anchor = np.asarray(cfg.ios_anchor, dtype=float)
    users = np.asarray(cfg.user_anchors, dtype=float).reshape(-1, 3)
    spacing = cfg.wavelength / 2.0

    for a, b, what in ((tx_anchor, rx_anchor, "tx/rx"),
                       (tx_anchor, ios_anchor, "tx/ios"),
                       (rx_anchor, ios_anchor, "rx/ios")):
        if np.linalg.norm(a - b) == 0.0:
            raise GeometryError(f"coincident anchors ({what}) give a zero link distance")

    ios_axis = _unit(ios_anchor - tx_anchor)
    tx_normal = _unit(rx_anchor - tx_anchor)
    rx_normal = _unit(tx_anchor - rx_anchor)

    u1, u2 = _plane_basis(ios_axis)
    ios_positions = _grid_positions(ios_anchor, cfg.n_elements, spacing, u1, u2)
    t1, t2 = _plane_basis(tx_normal)
    tx_positions = _grid_positions(tx_anchor, cfg.n_tx, spacing, t1, t2)
    r1, r2 = _plane_basis(rx_normal)
    rx_positions = _grid_positions(rx_anchor, cfg.n_rx, spacing, r1, r2)

    xhat = np.array([1.0, 0.0, 0.0])
    yhat = np.array([0.0, 1.0, 0.0])
    user_tx = users[:, None] + spacing * np.arange(cfg.n_user_tx)[:, None] * xhat
    user_rx = users[:, None] + spacing * yhat + spacing * np.arange(cfg.n_user_rx)[:, None] * xhat

    return SpatialLayout(tx_positions, rx_positions, ios_positions, user_rx, user_tx,
                         cfg.wavelength, ios_axis, tx_normal, rx_normal)


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    if np.any(d == 0.0):
        raise GeometryError("zero distance between points of different arrays")
    return d


def cn_sample(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian draw.

    The real part is drawn first, then the imaginary part, each filled
    row-major; this fixes the stream order so a given seed always yields
    the same matrices.
    """
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def _rician(amplitude: np.ndarray, distances: np.ndarray, wavelength: float,
            chi: float, rng: np.random.Generator) -> np.ndarray:
    los = np.sqrt(chi / (chi + 1.0)) * np.exp(-2j * np.pi * distances / wavelength)
    nlos = np.sqrt(1.0 / (chi + 1.0)) * cn_sample(rng, distances.shape)
    return amplitude * (los + nlos)


def sample_channels_loop(layout, fading, seed: int, include_direct: bool = False) -> ChannelSet:
    """`channels.sample_channels` one matrix at a time: every Rician link
    takes its own `cn_sample` draw, users and user pairs in a Python loop."""
    rng = np.random.default_rng(seed)
    lam = layout.wavelength
    kappa = fading.pathloss_exponent
    chi = fading.rician_factor

    ios = layout.ios_positions
    tx = layout.tx_positions
    rx = layout.rx_positions

    def gainless_link(a: np.ndarray, b: np.ndarray, exponent: float = kappa / 2.0):
        r = _pairwise_distances(a, b)
        return _rician(lam / (4.0 * np.pi * r ** exponent), r, lam, chi, rng)

    def los_link(array: np.ndarray, gain_exponent: float):
        r = _pairwise_distances(ios, array)
        th = elevations_from_axis(ios, array, layout.ios_axis)
        return (lam * np.sqrt(antenna_gain(th, gain_exponent))
                / (4.0 * np.pi * r)) * np.exp(-2j * np.pi * r / lam)

    h_ti = los_link(tx, fading.gain_exponent_tx)
    h_ir = los_link(rx, fading.gain_exponent_rx)

    r_tr = _pairwise_distances(rx, tx)
    th_at_tx = elevations_from_normal(tx, rx, layout.tx_normal).T
    th_at_rx = elevations_from_normal(rx, tx, layout.rx_normal)
    amp_tr = (lam * np.sqrt(antenna_gain(th_at_tx, fading.gain_exponent_tx)
                            * antenna_gain(th_at_rx, fading.gain_exponent_rx))
              / (4.0 * np.pi * r_tr ** (kappa / 2.0)))
    h_tr = _rician(amp_tr, r_tr, lam, chi, rng)

    h_iu = np.array([gainless_link(ios, pos) for pos in layout.user_rx_positions])

    uu_exp = 1.0 if fading.uu_free_space else kappa / 2.0
    h_uu = np.array([[gainless_link(rx_pos, tx_pos, uu_exp)
                      for rx_pos in layout.user_rx_positions]
                     for tx_pos in layout.user_tx_positions])

    h_direct_tu = h_direct_ur = None
    if include_direct:
        h_direct_tu = np.array([gainless_link(pos, tx) for pos in layout.user_rx_positions])
        h_direct_ur = np.array([gainless_link(rx, pos) for pos in layout.user_tx_positions])

    return ChannelSet(h_ti, h_tr, h_iu, h_ir, h_uu, h_direct_tu, h_direct_ur)
