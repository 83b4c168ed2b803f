"""Dense reference for the surface QCQP: every coupling as an L x L matrix.

This is the explicit trace form the factored build in `iosfd.phases` must
reproduce.  It holds each coupling matrix whole (O(K^2 L^2) memory), so it
is kept here as a test oracle only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from iosfd.linalg import adj, logdet_pd


def constant_term(st, gamma_down, gamma_up, noise_users, noise_rx) -> float:
    """Beamformer-independent part: log|W| - Tr(W) - sigma^2 Tr(W U^H U) + s per link."""
    total = 0.0
    for gamma, noise, w, u in ((gamma_down, noise_users, st.w_d, st.u_d),
                               (gamma_up, noise_rx, st.w_u, st.u_u)):
        per_link = (logdet_pd(w) - np.trace(w, axis1=1, axis2=2).real
                    - noise * np.einsum("kij,kji->k", w, adj(u) @ u).real + w.shape[-1])
        total += float(np.dot(gamma, per_link))
    return total


@dataclass
class DenseForms:
    """Per-link coupling matrices (all L x L) plus the coefficient-free rest.

    a[k], b[k], x[k], d[j] are the PSD quadratic factors; c_lin/z_lin carry the
    refraction signal terms and f_lin/y_lin the reflection cross terms (signs
    included).  r_cg collects every term no coefficient can reach.
    """
    a: np.ndarray          # (K, L, L) user-side decoder couplings
    b: np.ndarray          # (K, L, L) downlink illumination of the surface
    x: np.ndarray          # (K, L, L) receive-side decoder couplings
    d: np.ndarray          # (K, L, L) uplink illumination of the surface
    c_lin: np.ndarray      # (K, L, L)   refraction t-side linear terms
    f_lin: np.ndarray      # (K, K, L, L) reflection t-side linear terms
    y_lin: np.ndarray      # (K, K, L, L) reflection u-side linear terms
    z_lin: np.ndarray      # (K, L, L)   refraction u-side linear terms
    r_cg: float


def build_dense_forms(ch, bf, st, gamma_down, gamma_up, noise_users, noise_rx) -> DenseForms:
    K = ch.n_users
    L = ch.h_ti.shape[0]
    a = np.zeros((K, L, L), dtype=complex)
    b = np.zeros((K, L, L), dtype=complex)
    x = np.zeros((K, L, L), dtype=complex)
    d = np.zeros((K, L, L), dtype=complex)
    c_lin = np.zeros((K, L, L), dtype=complex)
    f_lin = np.zeros((K, K, L, L), dtype=complex)
    y_lin = np.zeros((K, K, L, L), dtype=complex)
    z_lin = np.zeros((K, L, L), dtype=complex)

    for k in range(K):
        uwd = st.u_d[k] @ st.w_d[k]                      # (N_ur, s_d)
        uwu = st.u_u[k] @ st.w_u[k]                      # (N_r, s_u)
        a[k] = gamma_down[k] * (ch.h_iu[k] @ uwd @ st.u_d[k].conj().T @ ch.h_iu[k].conj().T)
        tv = ch.h_ti @ bf.v_d[k]                         # (L, s_d)
        b[k] = tv @ tv.conj().T
        x[k] = gamma_up[k] * (ch.h_ir @ uwu @ st.u_u[k].conj().T @ ch.h_ir.conj().T)
        uv = ch.h_iu[k] @ bf.v_u[k]                      # (L, s_u)
        d[k] = uv @ uv.conj().T
        c_lin[k] = gamma_down[k] * (ch.h_ti @ bf.v_d[k] @ st.w_d[k]
                                    @ st.u_d[k].conj().T @ ch.h_iu[k].conj().T)
        z_lin[k] = gamma_up[k] * (ch.h_iu[k] @ bf.v_u[k] @ st.w_u[k]
                                  @ st.u_u[k].conj().T @ ch.h_ir.conj().T)

    # Cross terms between the surface paths and the direct paths.
    r_cg = 0.0
    for k in range(K):
        uwd = st.u_d[k] @ st.w_d[k] @ st.u_d[k].conj().T
        uwu = st.u_u[k] @ st.w_u[k] @ st.u_u[k].conj().T
        for j in range(K):
            vju = bf.v_u[j]
            y_lin[k, j] = -gamma_down[k] * (ch.h_iu[j] @ vju @ vju.conj().T
                                            @ ch.h_uu[j][k].conj().T @ uwd
                                            @ ch.h_iu[k].conj().T)
            vjd = bf.v_d[j]
            f_lin[k, j] = -gamma_up[k] * (ch.h_ti @ vjd @ vjd.conj().T
                                          @ ch.h_tr.conj().T @ uwu @ ch.h_ir.conj().T)
            m = ch.h_uu[j][k] @ vju
            r_cg -= gamma_down[k] * float(np.trace(uwd @ m @ m.conj().T).real)
            md = ch.h_tr @ vjd
            r_cg -= gamma_up[k] * float(np.trace(uwu @ md @ md.conj().T).real)

    r_cg += constant_term(st, gamma_down, gamma_up, noise_users, noise_rx)
    return DenseForms(a, b, x, d, c_lin, f_lin, y_lin, z_lin, r_cg)


def g_value(qf: DenseForms, ios) -> float:
    """Objective from the matrix set, via explicit diagonal-matrix traces.

    Equals the weighted surrogate evaluated at the same operating point; the
    vectorized form must agree term by term.
    """
    pt = np.diag(ios.phi_t)
    tt = np.diag(ios.theta_t)
    pu = np.diag(ios.phi_u)
    tu = np.diag(ios.theta_u)
    K = qf.a.shape[0]
    total = qf.r_cg
    for k in range(K):
        total -= float(np.trace(pt.conj().T @ qf.a[k] @ pt @ qf.b[k]).real)
        total += 2.0 * float(np.trace(pt @ qf.c_lin[k]).real)
        total += 2.0 * float(np.trace(pu @ qf.z_lin[k]).real)
        for j in range(K):
            total -= float(np.trace(tt.conj().T @ qf.x[k] @ tt @ qf.b[j]).real)
            total -= float(np.trace(tu.conj().T @ qf.a[k] @ tu @ qf.d[j]).real)
            total -= float(np.trace(pu.conj().T @ qf.x[k] @ pu @ qf.d[j]).real)
            total += 2.0 * float(np.trace(tt @ qf.f_lin[k, j]).real)
            total += 2.0 * float(np.trace(tu @ qf.y_lin[k, j]).real)
    return total


def hadamard_quadratic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q with phi^H Q phi = Tr(Phi^H A Phi B); the convention is Q = A o B^T."""
    return a * b.T


def dense_blocks(qf: DenseForms) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """(Q, linear vector) per coefficient block, aggregated over the users and
    indexed as `IosState.coef`: blocks[s][j], theta (j = 0) before phi."""
    a_sum = qf.a.sum(axis=0)
    b_sum = qf.b.sum(axis=0)
    x_sum = qf.x.sum(axis=0)
    d_sum = qf.d.sum(axis=0)
    theta_t = (hadamard_quadratic(x_sum, b_sum), np.diagonal(qf.f_lin.sum(axis=(0, 1))).copy())
    phi_t = (sum(hadamard_quadratic(qf.a[k], qf.b[k]) for k in range(qf.a.shape[0])),
             np.diagonal(qf.c_lin.sum(axis=0)).copy())
    theta_u = (hadamard_quadratic(a_sum, d_sum), np.diagonal(qf.y_lin.sum(axis=(0, 1))).copy())
    phi_u = (hadamard_quadratic(x_sum, d_sum), np.diagonal(qf.z_lin.sum(axis=0)).copy())
    return [[theta_t, phi_t], [theta_u, phi_u]]
