"""Surface-coefficient optimization as a convex QCQP, solved through its dual.

With precoders, decoders and weights frozen, the surrogate is a quadratic in
each of the four coefficient vectors.  Collecting the couplings into L-by-L
matrices and using  Tr(Phi^H A Phi B) = phi^H (A o B^T) phi  (o = entrywise
product; the transpose convention is pinned by tests) gives, per side,

    minimize  v^H Q v - 2 Re{v^H conj(c)}

over the per-element disks |theta_l|^2 + |phi_l|^2 <= 1.

The data follow the (side, kind) layout of `IosState.coef`: the block of
coef[s, j] has the factor `PhaseQuadratic.factors[s][j]` and the linear vector
`lin[s, j]`.  Each side is one `_newton_side` solve on a (2, L) array of
(theta, phi).

No L-by-L matrix is ever formed.  Every coupling matrix is a low-rank Gram
matrix, A = P P^H and B = R R^H with P, R of size L x s (s = stream count),
and then A o B^T = F F^H where column (i, j) of F is p_i o conj(r_j).  By
Schur's product theorem each Q is PSD by construction, and it is carried as
its L x r factor F (r <= (K s)^2, independent of L).  A product Q v costs
O(L r) as F (F^H v), and the value is ||F^H v||^2 - 2 Re{v^H conj(c)}.

Each side is solved through its dual.  With b_j = conj(c_j) a side minimizes
P(v) = sum_j ||F_j^H v_j||^2 - 2 Re{v_j^H b_j}.  Writing ||F^H v||^2 as
max over nu of 2 Re{nu^H F^H v} - ||nu||^2 and minimizing over the disks
gives the concave dual

    D(nu) = -||nu||^2 - 2 sum_l ||g_l||,    g_j = F_j nu_j - b_j,

in r complex unknowns instead of 2L, where g_l is the (theta, phi) pair of
element l and v_l = -g_l / ||g_l|| the primal point it recovers.  Every
feasible v bounds the minimum from above and every nu from below, so the
duality gap P(v) - D(nu) certifies a solve at any data scale.  The solve is
damped Newton ascent on D with ||g_l|| smoothed to sqrt(||g_l||^2 + delta^2),
delta following the gap down; each step solves one real system of size 2r
and offers further primal and dual points besides.  It stops when the gap is
at most `PgdSettings.tolerance` times |D|; from the previous surface that
takes one or two steps at L = 256.

Each block runs on its binary-scaled factor, F = 2^e F~ with the largest
real or imaginary magnitude of F~ in [0.5, 1), and each side on the problem
normalized by its largest block's power of two (F by 2^e, b by 4^e).  A
block can sit near the bottom of the double range: when the uplink of a
close-mounted run switches off, its decoders decay towards 1e-274 and the
theta_t factor with them.  Products of such numbers underflow, and every
BLAS product that lands among the subnormals takes the processor's slow path
(one 256 x 36 product with entries of F near 1e-160 takes about 85 times as
long as on O(1) data).  Scaling by a power of two commutes with every
rounding in the normal range, so a rescaled problem takes the same steps to
the same bits.  A block whose scale underflows next to the other adds
nothing and is dropped, and a block whose Hessian term is below 1e-16 of the
identity steps to its fixed point nu_j = F_j^H v_j instead of entering the
Newton system.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .errors import NumericalError
from .linalg import assert_finite, chol_pd
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


def _value(p: np.ndarray, v: np.ndarray, c_conj: np.ndarray) -> float:
    """||p||^2 - 2 Re{v^H conj(c)} for p = F^H v."""
    return float(np.vdot(p, p).real - 2.0 * np.vdot(v, c_conj).real)


def _block_value(fq: np.ndarray, c: np.ndarray, v: np.ndarray) -> float:
    return _value(fq.conj().T @ v, v, c.conj())


def gprime_value(pq: PhaseQuadratic, ios: IosState) -> float:
    """Minimization objective; the matrix form is g = -g' plus the terms no
    coefficient can reach, which the solve does not need."""
    return sum(_block_value(f[0], c[0], v[0]) + _block_value(f[1], c[1], v[1])
               for f, c, v in zip(pq.factors, pq.lin, ios.coef))


def project_feasible(coef: np.ndarray) -> np.ndarray:
    """Radial projection of each (theta_l, phi_l) pair onto its unit disk; the
    pairs run along axis -2, so one call projects a side or the whole state."""
    # np.add.reduce, not np.sum: the wrapper would add microseconds to every call
    norm2 = np.add.reduce(np.abs(coef) ** 2, axis=-2, keepdims=True)
    return coef * (1.0 / np.sqrt(np.maximum(norm2, 1.0)))


@dataclass
class PgdSettings:
    """Side-solve settings: at most `max_iters` Newton steps, and the relative
    duality gap (P - D) / |D| at which a side solve counts as converged."""
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


_SMOOTHING = 0.05       # delta = 0.05 gap / L: smoothing costs at most a tenth of the gap
_FIXED_POINT = 1e-16    # a block whose Hessian term is below this times I takes nu_j <- F_j^H v_j
_ARMIJO = 1e-4          # sufficient ascent of the smoothed dual, as a fraction of the slope
_HALVINGS = 60          # a step that cannot ascend after this many halvings ends the solve
_INNER = 1e-3           # ||v_l||^2 < 1 - _INNER: element l counts as inside its disk


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the (theta, phi) pair of each element."""
    return np.add.reduce(x, axis=0)


def _line_max(g, dg, delta, nu, dnu) -> float:
    """argmax over t in [0, 1] of the smoothed dual along a step,
    -||nu + t dnu||^2 - 2 sum_l sqrt(||g_l + t dg_l||^2 + delta^2), by Newton's
    method on its derivative, safeguarded by bisection."""
    c = _pair_sum(np.abs(g) ** 2) + delta * delta
    b = _pair_sum((g.conj() * dg).real)
    a = _pair_sum(np.abs(dg) ** 2)
    xb = sum(np.vdot(x, dx).real for x, dx in zip(nu, dnu))
    xa = sum(np.vdot(dx, dx).real for dx in dnu)
    lo, hi, t = 0.0, 1.0, 1.0
    for _ in range(40):
        rho = np.sqrt(c + t * (2.0 * b + t * a))
        slope = -2.0 * (xb + t * xa) - 2.0 * float(np.sum((b + t * a) / rho))
        if slope >= 0.0:
            if t == 1.0:
                return t
            lo = t
        else:
            hi = t
        curv = -2.0 * xa - 2.0 * float(np.sum((a * rho * rho - (b + t * a) ** 2) / rho ** 3))
        nxt = t - slope / curv if curv < 0.0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-3 * t:
            return nxt
        t = nxt
    return t


def _newton_system(f, fh, s, d, g, inv, grad):
    """Newton step (I + M) dnu = grad on the blocks listed, M the Hessian of
    sum_l rho_l in nu: complex Grams F^H diag(1/rho) F per block, embedded
    as real matrices, minus one real correction U^T U, row l of U the
    embedding of conj(F_l) g_l / rho_l^1.5."""
    sizes = [fk.shape[1] for fk in f]
    n = sum(sizes)
    w = inv * np.sqrt(inv)
    u = np.empty((len(inv), 2 * n))
    at = 0
    for fhk, dk, gk, m in zip(fh, d, g, sizes):
        c = (dk * gk * w)[:, None] * fhk.T
        u[:, at:at + m], u[:, n + at:n + at + m] = c.real, c.imag
        at += m
    system = -(u.T @ u)
    at = 0
    for fk, fhk, sk, m in zip(f, fh, s, sizes):
        gram = sk * (fhk @ (inv[:, None] * fk))
        re, im = slice(at, at + m), slice(n + at, n + at + m)
        system[re, re] += gram.real
        system[im, im] += gram.real
        system[re, im] -= gram.imag
        system[im, re] += gram.imag
        at += m
    system.ravel()[::2 * n + 1] += 1.0      # the diagonal, through a flat view
    rhs = np.concatenate(grad)
    x = np.linalg.solve(system, np.concatenate([rhs.real, rhs.imag]))
    x = x[:n] + 1j * x[n:]
    return [x[end - m:end] for end, m in zip(itertools.accumulate(sizes), sizes)]


def _newton_side(factors, lin: np.ndarray, v: np.ndarray, settings: PgdSettings):
    """Minimize the two coupled-constraint blocks of one side through their dual.

    `factors` holds F of the theta and the phi block, `lin` and `v` are (2, L)
    in the same (theta, phi) order.  With b_j = conj(lin_j) the side minimizes
    P(v) = sum_j ||F_j^H v_j||^2 - 2 Re{v_j^H b_j}; its dual is D(nu) =
    -||nu||^2 - 2 sum_l ||g_l||, g_j = F_j nu_j - b_j, and P(v) - D(nu) >= 0
    for every feasible v.  Damped Newton ascent on D with ||g_l|| smoothed to
    rho_l = sqrt(||g_l||^2 + delta^2), delta = 0.05 gap / L, starting from
    nu = F^H v of the given point.  Each step offers up to three primal
    points (the recovered -g_l / rho_l, the one the step's linearization
    predicts, and that one with its elements inside their disks corrected to
    F^H v = nu) and one dual point besides the step, nu = F^H v of the
    linearized one.  The solve keeps the best of each and stops when
    P - D <= tolerance |D|, when the line search cannot ascend and the gap is
    at roundoff, or after `max_iters` steps.  Returns the (2, L) best primal
    point, the best dual value D (a lower bound on the side's minimum), the
    step count and whether the solve ended without its certificate.
    """
    L = v.shape[-1]
    f, e = zip(*map(_binary_scale, factors))
    top = max((e[j] for j in range(2) if np.any(f[j])), default=0)
    # The side runs normalized by 2^top (F) and 4^top (b), so a rescaled
    # problem (F 2^k, lin 4^k) takes the same steps to the same bits.
    b = np.ldexp(lin.conj().view(np.float64), -2 * top).view(complex)
    if not np.any(b):
        return np.zeros_like(v), 0.0, 0, False      # v = 0 minimizes ||F^H v||^2
    # A block whose scale s_j underflows adds nothing, as its products would.
    live = [j for j in range(2)
            if np.any(f[j]) and np.ldexp(1.0, 2 * (e[j] - top)) >= np.finfo(float).tiny]
    s = [float(np.ldexp(1.0, 2 * (e[j] - top))) for j in live]    # F_j = sqrt(s_j) F~_j
    d = [float(np.ldexp(1.0, e[j] - top)) for j in live]          # nu_j = d_j mu_j
    f = [f[j] for j in live]
    fh = [fk.conj().T for fk in f]
    rows = [np.einsum("lr,lr->l", fk.view(np.float64), fk.view(np.float64)) for fk in f]
    blocks = range(len(live))

    def image(mu):
        """F nu (= s_j F~_j mu_j in the rows of each live block j)."""
        out = np.zeros_like(b)
        for k, j in enumerate(live):
            out[j] = s[k] * (f[k] @ mu[k])
        return out

    def dual(mu, rho):
        return -sum(s[k] * np.vdot(mu[k], mu[k]).real for k in blocks) - 2.0 * float(np.sum(rho))

    def offer(w):
        """Project w and keep it if its P beats the best; the projected point
        and its F~^H products."""
        nonlocal best_v, p_best
        w = project_feasible(w)
        p = [fh[k] @ w[j] for k, j in enumerate(live)]
        value = sum(s[k] * np.vdot(p[k], p[k]).real for k in blocks) - 2.0 * np.vdot(w, b).real
        if value < p_best:
            best_v, p_best = w, value
        return w, p

    def dual_at(mu):
        return dual(mu, np.sqrt(_pair_sum(np.abs(image(mu) - b) ** 2)))

    def ended(capped):
        return best_v, float(np.ldexp(d_best, 2 * top)), it, capped

    best_v, p_best = v, np.inf
    _, mu = offer(v)
    g = image(mu) - b
    d_best = dual_at(mu)
    it = 0
    while True:
        if p_best - d_best <= settings.tolerance * abs(d_best):
            return ended(False)
        delta = _SMOOTHING * (p_best - d_best) / L
        rho = np.sqrt(_pair_sum(np.abs(g) ** 2) + delta * delta)
        inv = np.divide(1.0, rho, out=np.zeros_like(rho), where=rho > 0)
        _, p = offer(-g * inv)
        if p_best - d_best <= settings.tolerance * abs(d_best):
            return ended(False)
        if it == settings.max_iters:
            return ended(True)
        it += 1

        # The gradient in nu is 2 (F^H v - nu); blocks with a negligible
        # Hessian term step to the fixed point nu_j = F_j^H v_j.
        grad = [d[k] * (p[k] - mu[k]) for k in blocks]
        dnu = list(grad)
        newton = [k for k in blocks if s[k] * float(inv @ rows[k]) >= _FIXED_POINT]
        if newton:
            steps = _newton_system(*([x[k] for k in newton] for x in (f, fh, s, d)),
                                   [g[live[k]] for k in newton], inv,
                                   [grad[k] for k in newton])
            for k, x in zip(newton, steps):
                dnu[k] = x
        slope = 2.0 * sum(np.vdot(grad[k], dnu[k]).real for k in blocks)
        step = [dnu[k] / d[k] for k in blocks]
        dg = image(step)

        base = dual(mu, rho)
        t = _line_max(g, dg, delta, [d[k] * mu[k] for k in blocks], dnu)
        for _ in range(_HALVINGS):
            trial = [mu[k] + t * step[k] for k in blocks]
            if dual(trial, np.sqrt(_pair_sum(np.abs(g + t * dg) ** 2) + delta * delta)) \
                    >= base + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            roundoff = 8.0 * (L + sum(map(len, mu))) * np.finfo(float).eps
            return ended(p_best - d_best > roundoff * (abs(p_best) + abs(d_best)))
        # The primal point the linearized step predicts, v + t dv with
        # dv = -dg / rho + g Re{g^H dg} / rho^3, and its nu = F^H v.
        w, q = offer(-(g + t * dg) * inv + g * (t * _pair_sum((g.conj() * dg).real) * inv ** 3))
        # At an optimum F^H v = nu, and elements inside their disks carry no
        # multiplier: correct those of this point by least squares to meet
        # the new nu, where the division by rho ~ delta has lost them.
        inner = _pair_sum(np.abs(w) ** 2) < 1.0 - _INNER
        if np.any(inner):
            w = w.copy()
            for k, j in enumerate(live):
                w[j, inner] += np.linalg.lstsq(fh[k][:, inner], trial[k] - q[k], rcond=None)[0]
            offer(w)
        mu = trial
        g = image(mu) - b
        d_best = max(d_best, dual(mu, np.sqrt(_pair_sum(np.abs(g) ** 2))), dual_at(q))


@dataclass
class PgdCounts:
    """Surface side-solve work: Newton steps summed over side solves, and the
    solves that ended without their duality-gap certificate (at the step cap,
    or stalled above roundoff)."""
    iters: int = 0
    cap_exits: int = 0


def solve_qcqp(pq: PhaseQuadratic, init: IosState, settings: PgdSettings,
               sides: tuple[int, ...] = (0, 1)) -> tuple[IosState, PgdCounts]:
    """Dual Newton solve, one `_newton_side` solve per side index in `sides`;
    the other sides keep their coefficients.  Returns the new state and the
    Newton steps and cap exits of this call's side solves.  `init` is one
    run's state: a stack of states is rejected.
    """
    if init.coef.ndim != 3:
        raise ValueError(f"solve_qcqp takes one state of shape (2, 2, L), "
                         f"got {init.coef.shape}")
    out = init.copy()
    counts = PgdCounts()
    for s in sides:
        v, _, n, capped = _newton_side(pq.factors[s], pq.lin[s], init.coef[s], settings)
        out.coef[s] = v
        counts.iters += n
        counts.cap_exits += capped

    out.validate()
    before = gprime_value(pq, init)
    if gprime_value(pq, out) > before + 1e-12 * max(1.0, abs(before)):
        raise NumericalError("surface solve failed to descend")
    return out, counts
