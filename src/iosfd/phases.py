"""Surface-coefficient optimization as a convex QCQP solved by accelerated
projected gradient.

With precoders, decoders and weights frozen, the surrogate is a quadratic in
each of the four coefficient vectors.  Collecting the couplings into L-by-L
matrices and using  Tr(Phi^H A Phi B) = phi^H (A o B^T) phi  (o = entrywise
product; the transpose convention is pinned by tests) gives, per side,

    minimize  v^H Q v - 2 Re{v^H conj(c)}

over the per-element disks |theta_l|^2 + |phi_l|^2 <= 1.

The data follow the (side, kind) layout of `IosState.coef`: the block of
coef[s, j] has the factor `PhaseQuadratic.factors[s][j]` and the linear vector
`lin[s, j]`.  Each group of side indices is one `_pgd_side` solve on a (2, L)
array of (theta, phi); the tied group (0, 1) solves the sum of both sides' blocks.

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
    a, x from the decoders and weights, b, d from the precoders.  lin[s, j] is
    the linear vector of coefficient coef[s, j] (signs included).  The terms no
    coefficient can reach are not built: the solve never reads them.
    """
    a: np.ndarray          # (K, L, s_d) sqrt(gamma_d) h_iu U_d chol(W_d)
    b: np.ndarray          # (K, L, s_d) h_ti V_d: downlink illumination of the surface
    x: np.ndarray          # (K, L, s_u) sqrt(gamma_u) h_ir U_u chol(W_u)
    d: np.ndarray          # (K, L, s_u) h_iu V_u: uplink illumination of the surface
    lin: np.ndarray        # (2, 2, L) linear vectors, indexed as IosState.coef


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

    # Linear terms: the refracted signal (phi) and the cross terms between the
    # reflected and the direct paths (theta).
    # m[j, k] = h_uu[j][k] V_ju reaches user k directly; md[j] = h_tr V_jd the receiver.
    m = ch.h_uu @ bf.v_u[:, None]                              # (K, K, N_ur, s_u)
    md = ch.h_tr @ bf.v_d                                      # (K, N_r, s_d)
    u_left = np.einsum("jls,jkas->kla", d, m.conj()) @ uw_d      # sum_j d_j m_jk^H U W
    t_left = np.einsum("jls,jas->la", b, md.conj()) @ uw_u       # sum_j b_j md_j^H U W
    lin = np.array([[-_diag_outer(gamma_up, t_left, hr),          # theta_t
                     _diag_outer(gamma_down, b @ st.w_d, hu)],    # phi_t
                    [-_diag_outer(gamma_down, u_left, hu),        # theta_u
                     _diag_outer(gamma_up, d @ st.w_u, hr)]])     # phi_u
    assert_finite(a, b, x, d, lin)
    return QuadraticFormSet(a, b, x, d, lin)


@dataclass
class PhaseQuadratic:
    """Vectorized problem data: g' = sum over blocks of v^H Q v - 2 Re{v^H conj(c)}.

    factors[s][j] is the (L, r) factor F of the block of coef[s, j], Q = F F^H,
    and lin[s, j] its linear vector c.
    """
    factors: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    lin: np.ndarray        # (2, 2, L)


def _hadamard_factor(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """F with F F^H = (P P^H) o (R R^H)^T: column (i, j) is p_i o conj(r_j);
    one F per matrix pair of a stack."""
    return (p[..., :, None] * r.conj()[..., None, :]).reshape(*p.shape[:-1], -1)


def _side_by_side(m: np.ndarray) -> np.ndarray:
    """(K, L, s) per-user factors as one (L, K s) factor of sum_k M[k] M[k]^H."""
    return m.transpose(1, 0, 2).reshape(m.shape[1], -1)


def vectorize(qf: QuadraticFormSet) -> PhaseQuadratic:
    a, b, x, d = (_side_by_side(m) for m in (qf.a, qf.b, qf.x, qf.d))
    phi_t = _side_by_side(_hadamard_factor(qf.a, qf.b))
    return PhaseQuadratic(((_hadamard_factor(x, b), phi_t),
                           (_hadamard_factor(a, d), _hadamard_factor(x, d))), qf.lin)


def _value(p: np.ndarray, v: np.ndarray, c_conj: np.ndarray, scale: float = 1.0) -> float:
    """scale ||p||^2 - 2 Re{v^H conj(c)} for p = F^H v, or p = F~^H v with
    F = 2^e F~ and scale = 2^(2e)."""
    return float(scale * np.vdot(p, p).real - 2.0 * np.vdot(v, c_conj).real)


def _block_value(fq: np.ndarray, c: np.ndarray, v: np.ndarray) -> float:
    return _value(fq.conj().T @ v, v, c.conj())


def gprime_value(pq: PhaseQuadratic, ios: IosState) -> float:
    """Minimization objective; the matrix form is g = -g' plus the terms no
    coefficient can reach, which the solve does not need."""
    return sum(_block_value(f[0], c[0], v[0]) + _block_value(f[1], c[1], v[1])
               for f, c, v in zip(pq.factors, pq.lin, ios.coef))


def group_blocks(pq: PhaseQuadratic, group: tuple[int, ...]):
    """(factors, lin) of one solve, indexed by kind j: those of the side in
    `group`, or for both sides sharing one set of coefficients the blocks of
    Q_t + Q_u = [F_t F_u][F_t F_u]^H and lin[0] + lin[1]."""
    if len(group) == 1:
        return pq.factors[group[0]], pq.lin[group[0]]
    return tuple(map(np.hstack, zip(*pq.factors))), pq.lin[0] + pq.lin[1]


def project_feasible(coef: np.ndarray) -> np.ndarray:
    """Radial projection of each (theta_l, phi_l) pair onto its unit disk; the
    pairs run along axis -2, so one call projects a side or the whole state."""
    # np.add.reduce, not np.sum: the wrapper would add microseconds to every PGD trial
    norm2 = np.add.reduce(np.abs(coef) ** 2, axis=-2, keepdims=True)
    return coef * (1.0 / np.sqrt(np.maximum(norm2, 1.0)))


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


def _pgd_side(factors, lin: np.ndarray, v: np.ndarray, settings: PgdSettings):
    """Minimize the two coupled-constraint blocks of one side.

    `factors` holds F of the theta and the phi block, `lin` and `v` are (2, L)
    in the same (theta, phi) order.  Accelerated projected gradient (FISTA)
    from the extrapolated point y = w + beta (w - v); its F^H products are
    carried as the same combination of the stored ones, so an iteration costs
    one F p and one F^H w per block.  A trial from y that does not descend
    restarts the momentum and steps from v instead; only that plain step is
    halved, and only a plain step may end the solve on the tolerance.  Each
    block runs on its binary-scaled factor F~ = 2^-e F, and s = 2^(2e) enters
    only the values, the Lipschitz constant and once per gradient.  Returns
    the (2, L) solution, the iteration count and whether the solve stopped at
    `max_iters`.
    """
    f, e = zip(*map(_binary_scale, factors))
    s = [float(np.ldexp(1.0, 2 * ej)) for ej in e]
    fh = [fj.conj().T for fj in f]
    lam = max(s[0] * max_eigval(fh[0] @ f[0]), s[1] * max_eigval(fh[1] @ f[1]), 1e-30)
    step = 1.0 / (2.0 * lam)
    c = lin.conj()

    def products(w):
        return fh[0] @ w[0], fh[1] @ w[1]

    def value(p, w):
        return _value(p[0], w[0], c[0], s[0]) + _value(p[1], w[1], c[1], s[1])

    def gradient(r):
        return 2.0 * (np.array([s[0] * (f[0] @ r[0]), s[1] * (f[1] @ r[1])]) - c)

    v = project_feasible(v)
    p = products(v)
    f_cur = value(p, v)
    y, r = v, p
    t, beta = 1.0, 0.0
    for it in range(1, settings.max_iters + 1):
        g = gradient(r)
        trial, rejected = step, 0
        while True:
            w = project_feasible(y - trial * g)
            q = products(w)
            f_new = value(q, w)
            if f_new <= f_cur + 1e-15:
                break
            if beta > 0.0:      # function-value restart
                y, r = v, p
                t, beta = 1.0, 0.0
                g = gradient(p)
                continue
            rejected += 1
            if rejected == 60:
                return v, it, False
            trial *= 0.5
        if f_cur - f_new <= settings.tolerance * max(1.0, abs(f_new)):
            if beta == 0.0:
                return w, it, False
            t = 1.0     # a short step from y proves nothing: take a plain one from w
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = w + beta * (w - v)
        r = [qj + beta * (qj - pj) for qj, pj in zip(q, p)]
        v, p, f_cur, t = w, q, f_new, t_next
    return v, settings.max_iters, True


@dataclass
class PgdCounts:
    """PGD work summed over side solves: iterations, and solves stopped at the cap."""
    iters: int = 0
    cap_exits: int = 0


def solve_qcqp(pq: PhaseQuadratic, init: IosState, settings: PgdSettings,
               groups: tuple[tuple[int, ...], ...] = ((0,), (1,))
               ) -> tuple[IosState, PgdCounts]:
    """Accelerated projected-gradient solve, one `_pgd_side` solve per group of
    side indices; a group writes its one set of coefficients to each of its
    sides of `coef`.  Returns the new state and the iterations and cap exits of
    this call's side solves.
    """
    out = init.copy()
    counts = PgdCounts()
    for group in groups:
        v, n, capped = _pgd_side(*group_blocks(pq, group), init.coef[group[0]], settings)
        out.coef[list(group)] = v
        counts.iters += n
        counts.cap_exits += capped

    out.validate()
    if gprime_value(pq, out) > gprime_value(pq, init) + 1e-12:
        raise NumericalError("projected gradient failed to descend")
    return out, counts
