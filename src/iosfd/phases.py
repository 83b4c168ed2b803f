"""Surface-coefficient optimization as a convex QCQP solved by accelerated
projected gradient.

With precoders, decoders and weights frozen, the surrogate is a quadratic in
each of the four coefficient vectors.  Collecting the couplings into L-by-L
matrices and using  Tr(Phi^H A Phi B) = phi^H (A o B^T) phi  (o = entrywise
product; the transpose convention is pinned by tests) gives, per side,

    minimize  v^H Q v - 2 Re{v^H conj(c)}

over the per-element disks |theta_l|^2 + |phi_l|^2 <= 1.

No L-by-L matrix is ever formed.  Every coupling matrix is a low-rank Gram
matrix, A = P P^H and B = R R^H with P, R of size L x s (s = stream count),
and then A o B^T = F F^H where column (i, j) of F is p_i o conj(r_j).  By
Schur's product theorem each Q is PSD by construction, and it is carried as
its L x r factor F (r <= (K s)^2, independent of L).  A product Q v costs
O(L r) as F (F^H v), the value is ||F^H v||^2 - 2 Re{v^H conj(c)}, and the
Lipschitz step comes from the largest eigenvalue of the r x r Gram F^H F,
which equals that of F F^H.

Each side is solved by accelerated projected gradient (FISTA, Beck &
Teboulle 2009) with that step and per-element radial projection.  A trial
from the extrapolated point that does not descend restarts the momentum
(function-value restart, O'Donoghue & Candes 2015), so the accepted iterates
never ascend.  The solve stops when a plain step decreases g' by at most
tolerance * max(1, |g'|), or at max_iters.

Each block is solved on its binary-scaled factor, F = 2^e F~ with the largest
real or imaginary magnitude of F~ in [0.5, 1), and s = 2^(2e) multiplies only
the value s ||F~^H v||^2, the Lipschitz constant and once per gradient the
vector F~ (F~^H v).  A block can sit near the bottom of the double range: when
the uplink of a close-mounted run switches off, its decoders decay towards
1e-274 and the theta_t factor with them.  F (F^H v) then underflows inside the
BLAS products, and every product that lands among the subnormals takes the
processor's slow path (one 256 x 36 product with entries of F near 1e-160
takes about 85 times as long as on O(1) data).  Scaling by a power of two
commutes with every rounding in the normal range, so the solve returns the
same bits as on F itself; where s underflows to 0 the block adds exactly
nothing, as its underflowed products did.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .errors import NumericalError
from .linalg import assert_finite, chol_pd, max_eigval
from .system import BeamformerSet, IosState
from .wmmse import WmmseState


@dataclass
class QuadraticFormSet:
    """Per-user factors of the coupling matrices plus the aggregated linear terms.

    Each coupling matrix is M[k] M[k]^H for the (L, s) factor M[k] stored here:
    a, x from the decoders and weights, b, d from the precoders.  c, f, z, y
    are the linear vectors of phi_t, theta_t, phi_u, theta_u (signs included).
    The terms no coefficient can reach are not built: the solve never reads them.
    """
    a: np.ndarray          # (K, L, s_d) sqrt(gamma_d) h_iu U_d chol(W_d)
    b: np.ndarray          # (K, L, s_d) h_ti V_d: downlink illumination of the surface
    x: np.ndarray          # (K, L, s_u) sqrt(gamma_u) h_ir U_u chol(W_u)
    d: np.ndarray          # (K, L, s_u) h_iu V_u: uplink illumination of the surface
    c: np.ndarray          # (L,) refraction t-side linear vector
    f: np.ndarray          # (L,) reflection t-side linear vector
    z: np.ndarray          # (L,) refraction u-side linear vector
    y: np.ndarray          # (L,) reflection u-side linear vector


def _diag_outer(gamma: np.ndarray, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """sum_k gamma_k diag(M_k N_k^H) without forming any L x L product."""
    return np.einsum("k,kls,kls->l", gamma, m, n.conj())


def build_quadratic_forms(ch: ChannelSet, bf: BeamformerSet, st: WmmseState,
                          gamma_down: np.ndarray, gamma_up: np.ndarray) -> QuadraticFormSet:
    gamma_down = np.asarray(gamma_down, dtype=float)
    gamma_up = np.asarray(gamma_up, dtype=float)
    g = ch.h_iu                                                # (K, L, N_u)
    hu = g @ st.u_d                                            # (K, L, s_d)
    hr = ch.h_ir @ st.u_u                                      # (K, L, s_u)
    a = np.sqrt(gamma_down)[:, None, None] * (hu @ chol_pd(st.w_d))
    b = ch.h_ti @ bf.v_d
    x = np.sqrt(gamma_up)[:, None, None] * (hr @ chol_pd(st.w_u))
    d = g @ bf.v_u
    uw_d = st.u_d @ st.w_d
    uw_u = st.u_u @ st.w_u

    # Linear terms: the refracted signal (c, z) and the cross terms between the
    # reflected and the direct paths (f, y).
    # m[j, k] = h_uu[j][k] V_ju reaches user k directly; md[j] = h_tr V_jd the receiver.
    m = ch.h_uu @ bf.v_u[:, None]                              # (K, K, N_ur, s_u)
    md = ch.h_tr @ bf.v_d                                      # (K, N_r, s_d)
    y_left = np.einsum("jls,jkas->kla", d, m.conj()) @ uw_d      # sum_j d_j m_jk^H U W
    f_left = np.einsum("jls,jas->la", b, md.conj()) @ uw_u       # sum_j b_j md_j^H U W
    c = _diag_outer(gamma_down, b @ st.w_d, hu)
    z = _diag_outer(gamma_up, d @ st.w_u, hr)
    y = -_diag_outer(gamma_down, y_left, hu)
    f = -_diag_outer(gamma_up, f_left, hr)
    assert_finite(a, b, x, d, c, f, z, y)
    return QuadraticFormSet(a, b, x, d, c, f, z, y)


@dataclass
class PhaseQuadratic:
    """Vectorized problem data: g' = sum over blocks of v^H Q v - 2 Re{v^H conj(c)}.

    Each q_* holds the (L, r) factor F of its block, Q = F F^H.
    """
    q_phi_t: np.ndarray
    q_theta_t: np.ndarray
    q_phi_u: np.ndarray
    q_theta_u: np.ndarray
    c: np.ndarray          # phi_t linear vector
    f: np.ndarray          # theta_t linear vector
    z: np.ndarray          # phi_u linear vector
    y: np.ndarray          # theta_u linear vector


def _hadamard_factor(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """F with F F^H = (P P^H) o (R R^H)^T: column (i, j) is p_i o conj(r_j);
    one F per matrix pair of a stack."""
    return (p[..., :, None] * r.conj()[..., None, :]).reshape(*p.shape[:-1], -1)


def _side_by_side(m: np.ndarray) -> np.ndarray:
    """(K, L, s) per-user factors as one (L, K s) factor of sum_k M[k] M[k]^H."""
    return m.transpose(1, 0, 2).reshape(m.shape[1], -1)


def vectorize(qf: QuadraticFormSet) -> PhaseQuadratic:
    a, b, x, d = (_side_by_side(m) for m in (qf.a, qf.b, qf.x, qf.d))
    return PhaseQuadratic(
        q_phi_t=_side_by_side(_hadamard_factor(qf.a, qf.b)),
        q_theta_t=_hadamard_factor(x, b),
        q_phi_u=_hadamard_factor(x, d),
        q_theta_u=_hadamard_factor(a, d),
        c=qf.c, f=qf.f, z=qf.z, y=qf.y,
    )


def _value(p: np.ndarray, v: np.ndarray, c_conj: np.ndarray, scale: float = 1.0) -> float:
    """scale ||p||^2 - 2 Re{v^H conj(c)} for p = F^H v, or p = F~^H v with
    F = 2^e F~ and scale = 2^(2e)."""
    return float(scale * np.vdot(p, p).real - 2.0 * np.vdot(v, c_conj).real)


def _block_value(fq: np.ndarray, c: np.ndarray, v: np.ndarray) -> float:
    return _value(fq.conj().T @ v, v, c.conj())


def gprime_value(pq: PhaseQuadratic, ios: IosState) -> float:
    """Minimization objective; the matrix form is g = -g' plus the terms no
    coefficient can reach, which the solve does not need."""
    total = 0.0
    for side, (theta, phi) in zip("tu", ios.coef):
        f_phi, c_phi, f_theta, c_theta = side_blocks(pq, side)
        total = total + _block_value(f_phi, c_phi, phi) + _block_value(f_theta, c_theta, theta)
    return total


def side_blocks(pq: PhaseQuadratic, side: str):
    """(F_phi, c_phi, F_theta, c_theta) of side 't' or 'u', or of both sides
    sharing one set of coefficients ('tied'): Q_t + Q_u = [F_t F_u][F_t F_u]^H."""
    if side == "t":
        return pq.q_phi_t, pq.c, pq.q_theta_t, pq.f
    if side == "u":
        return pq.q_phi_u, pq.z, pq.q_theta_u, pq.y
    if side == "tied":
        return (np.hstack([pq.q_phi_t, pq.q_phi_u]), pq.c + pq.z,
                np.hstack([pq.q_theta_t, pq.q_theta_u]), pq.f + pq.y)
    raise ValueError(f"side must be 't', 'u' or 'tied', got {side!r}")


def project_feasible(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radial projection of each (theta_l, phi_l) pair onto its unit disk."""
    norm2 = np.abs(theta) ** 2 + np.abs(phi) ** 2
    scale = 1.0 / np.sqrt(np.maximum(norm2, 1.0))
    return theta * scale, phi * scale


@dataclass
class PgdSettings:
    max_iters: int = 500
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def _binary_scale(f: np.ndarray) -> tuple[np.ndarray, int]:
    """F~ and e with F = 2^e F~ exactly and the largest real or imaginary
    magnitude of F~ in [0.5, 1); e = 0 when F = 0."""
    parts = np.ascontiguousarray(f).view(np.float64)
    e = int(np.frexp(np.max(np.abs(parts), initial=0.0))[1])
    return np.ldexp(parts, -e).view(f.dtype), e


def _pgd_side(f1, c1, f2, c2, v1, v2, settings: PgdSettings):
    """Minimize the two coupled-constraint blocks of one side.

    Accelerated projected gradient (FISTA) from the extrapolated point
    y = w + beta (w - v); its F^H products are carried as the same
    combination of the stored ones, so an iteration costs one F p and one
    F^H w per block.  A trial from y that does not descend restarts the
    momentum and steps from v instead; only that plain step is halved, and
    only a plain step may end the solve on the tolerance.  Each block runs on
    its binary-scaled factor F~ = 2^-e F, and s = 2^(2e) enters only the
    values, the Lipschitz constant and once per gradient.  Returns the two
    vectors, the iteration count and whether the solve stopped at `max_iters`.
    """
    (f1, e1), (f2, e2) = _binary_scale(f1), _binary_scale(f2)
    s1, s2 = float(np.ldexp(1.0, 2 * e1)), float(np.ldexp(1.0, 2 * e2))
    f1h, f2h = f1.conj().T, f2.conj().T
    lam = max(s1 * max_eigval(f1h @ f1), s2 * max_eigval(f2h @ f2), 1e-30)
    step = 1.0 / (2.0 * lam)
    c1, c2 = c1.conj(), c2.conj()

    v1, v2 = project_feasible(v1.copy(), v2.copy())
    p1, p2 = f1h @ v1, f2h @ v2
    f_cur = _value(p1, v1, c1, s1) + _value(p2, v2, c2, s2)
    y1, y2, r1, r2 = v1, v2, p1, p2
    t, beta = 1.0, 0.0
    for it in range(1, settings.max_iters + 1):
        g1 = 2.0 * (s1 * (f1 @ r1) - c1)
        g2 = 2.0 * (s2 * (f2 @ r2) - c2)
        trial, rejected = step, 0
        while True:
            w1, w2 = project_feasible(y1 - trial * g1, y2 - trial * g2)
            q1, q2 = f1h @ w1, f2h @ w2
            f_new = _value(q1, w1, c1, s1) + _value(q2, w2, c2, s2)
            if f_new <= f_cur + 1e-15:
                break
            if beta > 0.0:      # function-value restart
                y1, y2, r1, r2 = v1, v2, p1, p2
                t, beta = 1.0, 0.0
                g1 = 2.0 * (s1 * (f1 @ p1) - c1)
                g2 = 2.0 * (s2 * (f2 @ p2) - c2)
                continue
            rejected += 1
            if rejected == 60:
                return v1, v2, it, False
            trial *= 0.5
        if f_cur - f_new <= settings.tolerance * max(1.0, abs(f_new)):
            if beta == 0.0:
                return w1, w2, it, False
            t = 1.0     # a short step from y proves nothing: take a plain one from w
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y1, y2 = w1 + beta * (w1 - v1), w2 + beta * (w2 - v2)
        r1, r2 = q1 + beta * (q1 - p1), q2 + beta * (q2 - p2)
        v1, v2, p1, p2, f_cur, t = w1, w2, q1, q2, f_new, t_next
    return v1, v2, settings.max_iters, True


@dataclass
class PgdCounts:
    """PGD work summed over side solves: iterations, and solves stopped at the cap."""
    iters: int = 0
    cap_exits: int = 0


def solve_qcqp(pq: PhaseQuadratic, init: IosState, settings: PgdSettings,
               sides: tuple[str, ...] = ("t", "u"), tie_sides: bool = False
               ) -> tuple[IosState, PgdCounts]:
    """Accelerated projected-gradient solve; the two sides separate unless tied.

    Each group of sides is one `_pgd_side` solve: 't' and 'u' each write their
    own side of `coef` (index 0 and 1), 'tied' writes its one set of
    coefficients to both.  Returns the new state and the iterations and cap
    exits of this call's side solves.
    """
    groups = ({"tied": [0, 1]} if tie_sides
              else {side: [s] for s, side in enumerate("tu") if side in sides})
    out = init.copy()
    counts = PgdCounts()
    for group, written in groups.items():
        theta, phi = init.coef[written[0]]
        phi, theta, n, capped = _pgd_side(*side_blocks(pq, group), phi, theta, settings)
        out.coef[written] = theta, phi
        counts.iters += n
        counts.cap_exits += capped

    out.validate()
    if gprime_value(pq, out) > gprime_value(pq, init) + 1e-12:
        raise NumericalError("projected gradient failed to descend")
    return out, counts
