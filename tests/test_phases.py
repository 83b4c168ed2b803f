import itertools

import numpy as np
import pytest

from iosfd import (FadingParams, IosState, LinkSet, PgdSettings, RunConfig, Scheme, SchemeSpec,
                   apply_scheme, build_layout, build_quadratic_forms, compose_effective,
                   project_feasible, sample_channels, solve_qcqp, update_beamformers,
                   vectorize)
from iosfd.errors import NumericalError
from iosfd.phases import (_binary_scale, _newton_side, _newton_system, _receiver_cross,
                          _user_cross, _value, gprime_value)
from iosfd.wmmse import surrogate_objective, update_state

from conftest import (integrated_run_geometry, random_beamformers, random_instance,
                      random_ios, reference_geometry, same_bits, t_side_quadratic)
from dense_forms import build_dense_forms, dense_blocks, g_value, hadamard_quadratic
from oracles import (cn_sample, min_eigval, newton_system_columns, pgd_side_plain,
                     receiver_cross_natural, user_cross_natural)


def build_from_instance(inst):
    ch, ios, eff, bf, st, gd, gu, nu, nr = inst
    return build_quadratic_forms(ch, bf, st, gd, gu)


def dense_from_instance(inst):
    ch, ios, eff, bf, st, gd, gu, nu, nr = inst
    return build_dense_forms(ch, bf, st, gd, gu, nu, nr)


def test_hadamard_trace_identity(rng):
    """Pins the transpose convention: Tr(Phi^H A Phi B) = phi^H (A o B^T) phi."""
    for _ in range(50):
        L = rng.integers(1, 7)
        a = cn_sample(rng, (L, L))
        a = a @ a.conj().T                      # Hermitian PSD
        b = cn_sample(rng, (L, L))              # arbitrary
        phi = cn_sample(rng, (L,))
        lhs = np.trace(np.diag(phi).conj().T @ a @ np.diag(phi) @ b)
        rhs = phi.conj() @ (hadamard_quadratic(a, b) @ phi)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_linear_term_identity(rng):
    """Tr(Phi^H C^H) + Tr(Phi C) = 2 Re{phi^H conj(diag(C))}."""
    for _ in range(20):
        L = rng.integers(1, 7)
        c = cn_sample(rng, (L, L))
        phi = cn_sample(rng, (L,))
        p = np.diag(phi)
        lhs = np.trace(p.conj().T @ c.conj().T) + np.trace(p @ c)
        rhs = 2.0 * np.real(phi.conj() @ np.conj(np.diagonal(c)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_zero_beamformers_leave_only_constant(rng):
    inst = random_instance(rng)
    ch, ios, eff, bf, st, gd, gu, nu, nr = inst
    bf.v_d = np.zeros_like(bf.v_d)
    bf.v_u = np.zeros_like(bf.v_u)
    qf = build_quadratic_forms(ch, bf, st, gd, gu)
    assert np.allclose(qf.b, 0) and np.allclose(qf.d, 0)
    assert np.allclose(qf.lin, 0)


def test_scalar_quadratic_factor(rng):
    inst = random_instance(rng, K=1, n_tx=1, n_rx=1, n_u=1, L=1)
    ch, ios, eff, bf, st, gd, gu, nu, nr = inst
    qf = build_from_instance(inst)
    h = ch.h_iu[0][0, 0]
    u = st.u_d[0][0, 0]
    w = st.w_d[0][0, 0]
    expected = gd[0] * h * u * w * np.conj(u) * np.conj(h)
    assert (qf.a[0] @ qf.a[0].conj().T)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_quadratic_factors_hermitian_psd(rng):
    qf = build_from_instance(random_instance(rng, K=2, L=5))
    for stack in (qf.a, qf.b, qf.x, qf.d):
        for m in (p @ p.conj().T for p in stack):
            assert np.allclose(m, m.conj().T, atol=1e-12)
            assert min_eigval(m) >= -1e-9 * max(1.0, np.trace(m).real)


def test_matrix_objective_matches_surrogate(rng):
    """The whole coefficient-space objective must equal the surrogate, at the
    build point and at fresh random surface states."""
    for _ in range(8):
        inst = random_instance(rng, K=2, L=4)
        ch, ios, eff, bf, st, gd, gu, nu, nr = inst
        qf = build_dense_forms(ch, bf, st, gd, gu, nu, nr)
        val = g_value(qf, ios)
        ref = surrogate_objective(LinkSet.at(eff, bf, nu, nr), st, gd, gu)
        assert abs(val - ref) <= 1e-8 * (1.0 + abs(ref))
        other = random_ios(rng, 4)
        val2 = g_value(qf, other)
        ref2 = surrogate_objective(LinkSet.at(compose_effective(ch, other), bf, nu, nr),
                                   st, gd, gu)
        assert abs(val2 - ref2) <= 1e-8 * (1.0 + abs(ref2))


def test_vectorized_objective_matches_matrix_objective(rng):
    for _ in range(8):
        inst = random_instance(rng, K=2, L=4)
        pq = vectorize(build_from_instance(inst))
        state = random_ios(rng, 4)
        dense = dense_from_instance(inst)
        g = g_value(dense, state)
        gp = gprime_value(pq, state)
        assert g == pytest.approx(-gp + dense.r_cg, rel=1e-10, abs=1e-10)


def drawn_instance(rng, geometry, seed):
    """`sample_channels` draw (entries around 1e-4) with a random surface,
    random beamformers and the decoders and weights they induce."""
    K = geometry.user_anchors.shape[0]
    L = geometry.n_elements
    noise = 1e-8
    ch = sample_channels(build_layout(geometry), FadingParams.from_db(3.0), seed)
    ios = random_ios(rng, L)
    eff = compose_effective(ch, ios)
    bf = random_beamformers(rng, K=K)
    st = update_state(LinkSet.at(eff, bf, np.full(K, noise), noise))
    return ch, ios, eff, bf, st, np.full(K, 0.5), np.full(K, 0.5), np.full(K, noise), noise


def oracle_instances(rng):
    """Unit-scale random instances (K = 1..3, L = 1..7) and reference-geometry
    channels from `sample_channels`, whose entries are around 1e-4."""
    for _ in range(30):
        yield random_instance(rng, K=int(rng.integers(1, 4)), L=int(rng.integers(1, 8)))
    for seed in range(4):
        yield drawn_instance(rng, reference_geometry(L=8, K=2), seed)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def test_factors_match_dense_oracle(rng):
    """F F^H and the linear vectors equal the dense build on each side, at
    unit scale and at physical channel scale."""
    for inst in oracle_instances(rng):
        pq = vectorize(build_from_instance(inst))
        for s, expected in enumerate(dense_blocks(dense_from_instance(inst))):
            factors, lin = side_blocks(pq, s)
            for j, (q, c) in enumerate(expected):
                assert _rel_err(factors[j] @ factors[j].conj().T, q) <= 1e-12, (s, j)
                assert _rel_err(lin[j], c) <= 1e-12, (s, j)


def test_factored_objective_matches_surrogate(rng):
    """-g' plus the dense oracle's coefficient-free rest r_cg is the surrogate
    at the composed channels of any surface state."""
    for inst in oracle_instances(rng):
        ch, ios, eff, bf, st, gd, gu, nu, nr = inst
        pq = vectorize(build_from_instance(inst))
        r_cg = dense_from_instance(inst).r_cg
        for _ in range(2):
            state = random_ios(rng, ch.h_ti.shape[0])
            ref = surrogate_objective(LinkSet.at(compose_effective(ch, state), bf, nu, nr),
                                      st, gd, gu)
            assert -gprime_value(pq, state) + r_cg == pytest.approx(
                ref, rel=1e-8, abs=1e-8)


def test_factored_forms_stay_small(rng):
    """At L = 256 the build and its vectorized form hold O(L) arrays, not O(L^2)."""
    qf = build_from_instance(random_instance(rng, L=256))
    pq = vectorize(qf)
    held = sum(v.nbytes for v in (*vars(qf).values(), *pq.factors[0], *pq.factors[1], pq.lin))
    assert held < 2 * 2 ** 20


def test_nonfinite_build_raises(rng):
    for name, bad in (("h_ti", np.nan), ("h_ir", np.inf)):
        inst = random_instance(rng)
        getattr(inst[0], name)[0, 0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            build_from_instance(inst)


def test_aggregated_quadratics_psd(rng):
    qf = build_from_instance(random_instance(rng, K=3, L=6))
    pq = vectorize(qf)
    for fq in (*pq.factors[0], *pq.factors[1]):
        q = fq @ fq.conj().T
        assert min_eigval(q) >= -1e-9 * max(1.0, np.trace(q).real)


def test_projection_cases():
    assert not np.any(project_feasible(np.zeros((2, 1), complex)))
    th, ph = project_feasible(np.full((2, 1), np.sqrt(2) + 0j))[:, 0]
    assert abs(th) ** 2 + abs(ph) ** 2 == pytest.approx(1.0)
    assert th == pytest.approx(np.sqrt(2) / 2)
    inside = np.array([[0.3 + 0.1j], [0.2 - 0.4j]])
    assert np.array_equal(project_feasible(inside), inside)


def test_projection_matches_where_form(rng):
    """Bit for bit the same scale as where(norm2 > 1, 1/sqrt(max(norm2, 1e-300)), 1):
    pairs outside, inside and exactly on the unit circle, and zeros."""
    on_circle = ([1.0, 0.0, 1j, -1.0, 0.6], [0.0, 1.0, 0.0, -1j, 0.8j])
    theta = np.concatenate([cn_sample(rng, (200,)), 3.0 * cn_sample(rng, (200,)),
                            1e-3 * cn_sample(rng, (50,)), np.zeros(4), on_circle[0],
                            np.exp(2j * np.pi * rng.uniform(size=20)), [1e-200]])
    phi = np.concatenate([cn_sample(rng, (200,)), 3.0 * cn_sample(rng, (200,)),
                          1e-3 * cn_sample(rng, (50,)), np.zeros(4), on_circle[1],
                          np.zeros(20), [0.0]])
    norm2 = np.abs(theta) ** 2 + np.abs(phi) ** 2
    assert np.sum(norm2 == 1.0) >= 5 and np.sum(norm2 > 1.0) >= 100
    assert np.sum((norm2 > 0.0) & (norm2 < 1.0)) >= 50 and np.sum(norm2 == 0.0) >= 4
    scale = np.where(norm2 > 1.0, 1.0 / np.sqrt(np.maximum(norm2, 1e-300)), 1.0)
    got_theta, got_phi = project_feasible(np.stack([theta, phi]))
    assert np.array_equal(got_theta, theta * scale)
    assert np.array_equal(got_phi, phi * scale)


def test_projection_is_nearest_point_on_grid(rng):
    """Radial projection beats every candidate on a fine polar grid."""
    for _ in range(5):
        t = 2.0 * cn_sample(rng, (1,))
        p = 2.0 * cn_sample(rng, (1,))
        pt, pp = project_feasible(np.stack([t, p]))
        best = np.inf
        radii = np.linspace(0, 1, 25)
        angles = np.linspace(0, 2 * np.pi, 41, endpoint=False)
        for rt in radii:
            for at in angles:
                cand_t = rt * np.exp(1j * at)
                max_rp = np.sqrt(max(0.0, 1 - rt ** 2))
                for rp in radii * max_rp:
                    # best phase for the refraction slot is the input's own phase
                    cand_p = rp * np.exp(1j * np.angle(p[0]))
                    d = abs(cand_t - t[0]) ** 2 + abs(cand_p - p[0]) ** 2
                    best = min(best, d)
        achieved = abs(pt[0] - t[0]) ** 2 + abs(pp[0] - p[0]) ** 2
        assert achieved <= best + 1e-3


def _single_block_pq(L, q, c):
    """Only the phi_t block is nonzero."""
    return t_side_quadratic((np.zeros((L, L), complex), q), [np.zeros(L, complex), c])


def test_pgd_interior_optimum():
    L = 3
    c = np.zeros(L, dtype=complex)
    c[0] = 0.3
    pq = _single_block_pq(L, np.eye(L, dtype=complex), c)
    out, counts = solve_qcqp(pq, IosState.zeros(L),
                             PgdSettings(max_iters=2000, tolerance=1e-14))
    assert np.allclose(out.phi_t, np.conj(c), atol=1e-6)
    assert counts.cap_exits == 0


def test_pgd_reports_cap_exits(rng):
    """A side solve cut off by max_iters is counted."""
    pq = vectorize(build_from_instance(random_instance(rng, K=2, L=6)))
    _, counts = solve_qcqp(pq, random_ios(rng, 6), PgdSettings(max_iters=1))
    assert counts.cap_exits > 0


def test_solve_qcqp_rejects_a_stack_of_states(rng):
    """A stack (2, 2, 2, L) is a valid `IosState` but not one run's state."""
    pq = vectorize(build_from_instance(random_instance(rng, K=2, L=6)))
    stack = IosState(np.stack([random_ios(rng, 6).coef] * 2))
    with pytest.raises(ValueError, match=r"one state of shape \(2, 2, L\)"):
        solve_qcqp(pq, stack, PgdSettings())


def test_pgd_boundary_optimum_takes_linear_phase():
    L = 2
    c = np.zeros(L, dtype=complex)
    c[0] = 2.0 * np.exp(1j * 0.7)
    pq = _single_block_pq(L, np.eye(L, dtype=complex), c)
    out, _ = solve_qcqp(pq, IosState.zeros(L), PgdSettings(max_iters=5000, tolerance=1e-14))
    # constrained KKT point: unit amplitude at the conjugated linear phase
    assert abs(out.phi_t[0]) == pytest.approx(1.0, abs=1e-6)
    assert np.angle(out.phi_t[0]) == pytest.approx(-0.7, abs=1e-6)


def test_pgd_descends_and_stays_feasible(rng):
    for _ in range(5):
        inst = random_instance(rng, K=2, L=6)
        pq = vectorize(build_from_instance(inst))
        init = random_ios(rng, 6)
        out, _ = solve_qcqp(pq, init, PgdSettings())
        assert out.is_feasible()
        assert gprime_value(pq, out) <= gprime_value(pq, init) + 1e-12


def test_descent_check_allows_roundoff_and_rejects_ascent(monkeypatch, rng):
    """`solve_qcqp` checks that its output is no worse than its start.  At
    |g'| near 1e5 a side solve that returns its start up to roundoff (scaled
    by 1 -+ 1e-14, whichever raises g') passes, although g' rises by more
    than 1e-12; one that returns the negated minimizer, which keeps the
    quadratic part and flips the sign of the positive linear part, raises."""
    L = 6
    f_theta, f_phi = 300.0 * cn_sample(rng, (L, L)), 300.0 * cn_sample(rng, (L, L))
    pq = t_side_quadratic((f_theta, f_phi), 3e4 * cn_sample(rng, (2, L)))
    init, _ = solve_qcqp(pq, IosState.zeros(L), PgdSettings())
    g_init = gprime_value(pq, init)
    shrink = max((1.0 - 1e-14, 1.0 + 1e-14),
                 key=lambda a: gprime_value(pq, IosState(a * init.coef)))
    rise = gprime_value(pq, IosState(shrink * init.coef)) - g_init
    assert abs(g_init) > 1e4 and 1e-12 < rise < 1e-13 * abs(g_init)
    monkeypatch.setattr("iosfd.phases._newton_side",
                        lambda factors, lin, v, settings: (shrink * v, 0.0, 0, False))
    out, _ = solve_qcqp(pq, init, PgdSettings())
    assert np.array_equal(out.coef, shrink * init.coef)

    assert gprime_value(pq, IosState(-init.coef)) - g_init > 1e-3 * abs(g_init)
    monkeypatch.setattr("iosfd.phases._newton_side",
                        lambda factors, lin, v, settings: (-v, 0.0, 0, False))
    with pytest.raises(NumericalError, match="failed to descend"):
        solve_qcqp(pq, init, PgdSettings())


def close_mounted_qcqps(L, seed, n_outer, scheme=SchemeSpec(Scheme.DS_IOS)):
    """(PhaseQuadratic, surface state) of outer iterations 1..n_outer of a run
    (DS_IOS unless given) in the close-mounted geometry at P_B = 10 dBm,
    P_U = 5 dBm and -80 dBm noise.  The surface steps come from the plain
    oracle, so the instances do not depend on the solver under test."""
    K = 3
    ch = sample_channels(build_layout(integrated_run_geometry(L, K=K)),
                         FadingParams.from_db(3.0), seed)
    cfg = RunConfig(gamma_down=np.full(K, 0.5), gamma_up=np.full(K, 0.5),
                    noise_users=np.full(K, 1e-11), noise_rx=1e-11,
                    p_b=10.0, p_u=10.0 ** 0.5)
    bf, ios = apply_scheme(scheme, ch, cfg)
    eff = compose_effective(ch, ios)
    for _ in range(n_outer):
        st = update_state(LinkSet.at(eff, bf, cfg.noise_users, cfg.noise_rx))
        bf, _ = update_beamformers(eff, st, cfg.gamma_down, cfg.gamma_up, cfg.p_b, cfg.p_u,
                                   cfg.eps_b)
        pq = vectorize(build_quadratic_forms(ch, bf, st, cfg.gamma_down, cfg.gamma_up))
        yield pq, ios
        ios = plain_solve(pq, ios, PgdSettings())
        eff = compose_effective(ch, ios)


def side_blocks(pq, s):
    """(factors, lin) of side s, indexed by kind j."""
    return pq.factors[s], pq.lin[s]


def plain_solve(pq, init, settings):
    """`solve_qcqp` with each side solved by the plain projected-gradient oracle."""
    out = init.copy()
    for s in range(2):
        out.coef[s], _ = pgd_side_plain(*side_blocks(pq, s), init.coef[s], settings)
    return out


def side_value(blocks, v):
    """The part of g' that one side solve minimizes."""
    factors, lin = blocks
    return (_value(factors[0].conj().T @ v[0], v[0], lin[0].conj())
            + _value(factors[1].conj().T @ v[1], v[1], lin[1].conj()))


def test_accelerated_pgd_ends_no_higher_than_plain(rng):
    """Unit-scale instances, fresh draws in the reference and close-mounted
    geometries, and the QCQPs of the first outer iterations of close-mounted
    runs: the surface solve stays feasible, does not ascend, and each side
    ends no higher than the plain projected gradient at the default settings."""
    cases = []
    for _ in range(5):
        inst = random_instance(rng, K=2, L=6)
        cases.append((vectorize(build_from_instance(inst)), random_ios(rng, 6)))
    for geometry in (reference_geometry(L=16, K=2), integrated_run_geometry(32, K=3)):
        for seed in range(3):
            inst = drawn_instance(rng, geometry, seed)
            cases.append((vectorize(build_from_instance(inst)), inst[1]))
    for seed in range(3):
        cases.extend(close_mounted_qcqps(64, seed, 4))
    for pq, init in cases:
        out, _ = solve_qcqp(pq, init, PgdSettings())
        assert out.is_feasible()
        assert gprime_value(pq, out) <= gprime_value(pq, init) + 1e-12
        for s in range(2):
            blocks = side_blocks(pq, s)
            got = side_value(blocks, out.coef[s])
            plain, _ = pgd_side_plain(*blocks, init.coef[s], PgdSettings())
            assert got <= side_value(blocks, plain) + 1e-9 * max(1.0, abs(got)), s


def test_side_solve_certifies_ill_conditioned_block(monkeypatch):
    """Two elements, phi curvature 1 and 1e-2 along rotated axes, one element
    on its disk boundary and one inside it: the solve certifies the relative
    gap 1e-14 in a few steps, with no cap exit, projecting at most three
    points per step, and its bound lies below a 200000-iteration plain solve."""
    rot = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    f_phi = (rot @ np.diag([1.0, 0.1])).astype(complex)
    f_theta = np.eye(2, dtype=complex)
    c_phi = np.conj(f_phi @ f_phi.conj().T @ np.array([1.5, 0.3j]))
    c_theta = np.array([0.2, -0.1j])
    pq = t_side_quadratic((f_theta, f_phi), [c_theta, c_phi])
    trials = []
    monkeypatch.setattr("iosfd.phases.project_feasible",
                        lambda *args: trials.append(1) or project_feasible(*args))
    init = IosState.zeros(2)
    settings = PgdSettings(max_iters=5000, tolerance=1e-14)
    v, lower, iters, capped = _newton_side(*side_blocks(pq, 0), init.coef[0], settings)
    monkeypatch.undo()
    assert not capped and iters <= 50 and len(trials) <= 3 * iters + 2
    out = init.copy()
    out.coef[0] = v
    g_out = gprime_value(pq, out)
    assert g_out <= gprime_value(pq, init)
    assert g_out - lower <= 1e-14 * abs(lower)
    ref_v, ref_capped = pgd_side_plain(*side_blocks(pq, 0), init.coef[0],
                                       PgdSettings(max_iters=200000, tolerance=1e-15))
    assert not ref_capped
    ref = init.copy()
    ref.coef[0] = ref_v
    g_ref = gprime_value(pq, ref)
    assert lower <= g_ref
    assert g_out == pytest.approx(g_ref, rel=1e-12, abs=1e-12)
    assert np.allclose(v, ref_v, atol=1e-5)


def test_side_solve_certifies_gap_on_mid_run_qcqps():
    """The QCQPs of outer iterations 1-5 of close-mounted runs at L = 64,
    seeds 0-2: DS_IOS solved per side (t, u), and on iterations 1 and 5
    SS_IOS on its one side.  Each solve certifies the requested relative
    gap, its dual bound lies below a 20000-iteration plain projected-gradient
    solve, and its value is no higher than that solve plus the gap."""
    settings = PgdSettings()
    oracle = PgdSettings(max_iters=20000, tolerance=1e-15)
    solves = []
    for seed in range(3):
        for pq, init in close_mounted_qcqps(64, seed, 5):
            solves += [(pq, init, s) for s in (0, 1)]
        ss = close_mounted_qcqps(64, seed, 5, SchemeSpec(Scheme.SS_IOS))
        solves += [(pq, init, 1) for i, (pq, init) in enumerate(ss) if i in (0, 4)]
    assert len(solves) == 36
    for pq, init, s in solves:
        blocks = side_blocks(pq, s)
        v, lower, _, capped = _newton_side(*blocks, init.coef[s], settings)
        got = side_value(blocks, v)
        plain, _ = pgd_side_plain(*blocks, init.coef[s], oracle)
        ref = side_value(blocks, plain)
        gap = settings.tolerance * abs(lower)
        assert not capped and np.all(np.sum(np.abs(v) ** 2, axis=0) <= 1.0 + 1e-12), s
        assert got - lower <= gap, s
        assert lower <= ref + 1e-15 * abs(ref), s
        assert got <= ref + gap, s


def test_accelerated_pgd_converges_where_plain_hits_the_cap():
    """Close-mounted L = 128, the t side of the second outer iteration: the
    plain oracle stops at the 500-iteration cap, the Newton solve on its
    certified gap."""
    pq, init = list(close_mounted_qcqps(128, 1, 2))[-1]
    blocks = side_blocks(pq, 0)
    settings = PgdSettings()
    _, plain_capped = pgd_side_plain(*blocks, init.coef[0], settings)
    assert plain_capped
    _, _, iters, capped = _newton_side(*blocks, init.coef[0], settings)
    assert not capped and iters < settings.max_iters


def test_binary_scale_is_exact(rng):
    """F = 2^e F~ bit for bit, with the largest real or imaginary magnitude of
    F~ in [0.5, 1): unit-scale, 1e-300-scale, subnormal-containing, strided,
    real and all-zero factors, and factors whose largest magnitude is a
    negative real or imaginary part or whose entries are all negative."""
    base = cn_sample(rng, (40, 12))
    with_subnormals = 1e-300 * base
    with_subnormals[::3] *= 1e-15
    with_subnormals[1, 1] = -0.0
    # the largest magnitude is a negative real part, a negative imaginary part,
    # or in an all-negative real factor
    negative_real, negative_imag = 0.5 * base, 0.5 * base
    negative_real[3, 4] = -3.0 + 0.25j
    negative_imag[5, 6] = 0.25 - 3.0j
    all_negative = -np.abs(base.real) - 0.5
    cases = [base, 1e-300 * base, with_subnormals, base[:, ::2], 2.0 ** 600 * base,
             base.real.copy(), np.full((1, 1), 5e-324 + 0j), np.zeros((7, 4), complex),
             negative_real, negative_imag, all_negative, 1e-300 * negative_imag]
    assert np.any((np.abs(with_subnormals.real) < 2.2e-308) & (with_subnormals.real != 0))
    assert np.max(np.abs(0.5 * base.view(np.float64))) < 3.0 and np.all(all_negative < 0)
    for f in cases:
        ft, e = _binary_scale(f)
        assert ft.dtype == f.dtype and ft.shape == f.shape
        back = np.ldexp(ft.view(np.float64), e).view(f.dtype)
        assert back.tobytes() == np.ascontiguousarray(f).tobytes()
        top = np.max(np.abs(ft.view(np.float64)))
        if np.any(f):
            assert 0.5 <= top < 1.0
        else:
            assert e == 0 and top == 0.0


def test_side_solve_is_covariant_under_power_of_two_scaling(rng):
    """The side solve runs on the problem normalized by a power of two, so
    factors F 2^-k with linear terms lin 4^-k give the same bits, the same
    steps and the same exit as (F, lin), and a bound scaled by 4^-k:
    unit-scale instances, close-mounted mid-run QCQPs, instances whose theta
    factor is scaled by 2^-800 (a dead block, as when the uplink switches
    off), with and without its linear term; k = 75 and 450, at the default
    settings and at a 3-step cap."""
    cases = []
    for _ in range(6):
        L = int(rng.integers(1, 9))
        inst = random_instance(rng, K=int(rng.integers(1, 4)), L=L)
        pq, init = vectorize(build_from_instance(inst)), random_ios(rng, L)
        for s in range(2):
            (f_theta, f_phi), lin = side_blocks(pq, s)
            dead = (f_theta * 2.0 ** -800, f_phi)
            cases.append(((f_theta, f_phi), lin, init.coef[s]))
            cases.append((dead, lin, init.coef[s]))
            cases.append((dead, np.stack([0.0 * lin[0], lin[1]]), init.coef[s]))
    for seed in (2, 3):
        for pq, init in close_mounted_qcqps(64, seed, 3):
            for s in range(2):
                cases.append((*side_blocks(pq, s), init.coef[s]))
    for settings in (PgdSettings(), PgdSettings(max_iters=3)):
        for factors, lin, v in cases:
            want = _newton_side(factors, lin, v, settings)
            for k in (75, 450):
                got = _newton_side(tuple(f * 2.0 ** -k for f in factors),
                                   lin * 2.0 ** (-2 * k), v, settings)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1] == want[1] * 2.0 ** (-2 * k)
                assert got[2:] == want[2:]


def test_pgd_improves_surrogate_cross_module(rng):
    for _ in range(5):
        inst = random_instance(rng, K=2, L=5)
        ch, ios, eff, bf, st, gd, gu, nu, nr = inst
        pq = vectorize(build_quadratic_forms(ch, bf, st, gd, gu))
        out, _ = solve_qcqp(pq, ios, PgdSettings())
        before = surrogate_objective(LinkSet.at(eff, bf, nu, nr), st, gd, gu)
        after = surrogate_objective(LinkSet.at(compose_effective(ch, out), bf, nu, nr), st, gd, gu)
        assert after >= before - 1e-9


def test_gprime_gradient_matches_finite_differences(rng):
    from conftest import fd_gradient
    for _ in range(5):
        inst = random_instance(rng, K=2, L=4)
        pq = vectorize(build_from_instance(inst))
        state = random_ios(rng, 4)

        def f(phi):
            s = state.copy()
            s.coef[0, 1] = phi
            return gprime_value(pq, s)

        grad = fd_gradient(f, state.coef[0, 1], h=1e-6)
        f_phi = pq.factors[0][1]
        analytic = 2.0 * (f_phi @ f_phi.conj().T @ state.coef[0, 1] - np.conj(pq.lin[0, 1]))
        scale = max(np.max(np.abs(analytic)), 1e-12)
        assert np.max(np.abs(grad - analytic)) <= 1e-5 * scale


def _grid_minimum(q1, c1, q2, c2, n_phase=17, n_amp=9):
    """Joint polar grid over both vectors of one side (L = 2).

    For fixed amplitudes the coupling constraint is inactive, so the two
    phase grids separate; amplitudes are enumerated jointly per element.
    """
    L = q1.shape[0]
    assert L == 2
    amps = np.linspace(0.0, 1.0, n_amp)
    phases = np.linspace(0.0, 2 * np.pi, n_phase, endpoint=False)

    def block_min(q, c, amp_pairs):
        # amp_pairs: (n, 2) amplitudes per element; scan all phase combos
        e1 = np.exp(1j * phases)
        best = np.full(amp_pairs.shape[0], np.inf)
        for p0 in e1:
            for p1 in e1:
                v = np.stack([amp_pairs[:, 0] * p0, amp_pairs[:, 1] * p1], axis=1)
                quad = np.einsum("ni,ij,nj->n", v.conj(), q, v).real
                lin = 2.0 * (v.conj() @ np.conj(c)).real
                best = np.minimum(best, quad - lin)
        return best

    # enumerate feasible amplitude splits per element: (a1, b1) x (a2, b2)
    pairs = [(a, b) for a in amps for b in amps if a * a + b * b <= 1.0 + 1e-12]
    amp1 = np.array([[p1[0], p2[0]] for p1 in pairs for p2 in pairs])
    amp2 = np.array([[p1[1], p2[1]] for p1 in pairs for p2 in pairs])
    b1 = block_min(q1, c1, amp1)
    b2 = block_min(q2, c2, amp2)
    return float(np.min(b1 + b2))


def test_pgd_matches_grid_search_within_tolerance(rng):
    """Normalized L = 2 instances: PGD must not sit above the dense polar grid."""
    for _ in range(6):
        a = cn_sample(rng, (2, 2))
        q1 = a @ a.conj().T
        tr1 = max(np.trace(q1).real, 1e-12)
        q1 /= tr1
        b = cn_sample(rng, (2, 2))
        q2 = b @ b.conj().T
        tr2 = max(np.trace(q2).real, 1e-12)
        q2 /= tr2
        c1 = 0.7 * cn_sample(rng, (2,))
        c2 = 0.7 * cn_sample(rng, (2,))
        pq = t_side_quadratic((b / np.sqrt(tr2), a / np.sqrt(tr1)), [c2, c1])
        out, _ = solve_qcqp(pq, IosState.zeros(2), PgdSettings(max_iters=3000, tolerance=1e-12))
        pgd_obj = gprime_value(pq, out)
        grid_obj = _grid_minimum(q1, c1, q2, c2)
        assert pgd_obj <= grid_obj + 1e-3


def test_cross_contractions_match_the_natural_einsum_bit_for_bit(rng):
    """`_user_cross` and `_receiver_cross` give the bits of einsum on the
    natural operand layouts for K = 1-4 users, s = 1-3 streams, 1-3 user or
    receive antennas and L = 16 and 256, on unit-scale and 1e-4-scale
    operands: a numpy whose einsum loop rounds otherwise fails here."""
    for K, s, n, L, scale in itertools.product(range(1, 5), range(1, 4), range(1, 4),
                                               (16, 256), (1.0, 1e-4)):
        d, b = scale * cn_sample(rng, (K, L, s)), scale * cn_sample(rng, (K, L, s))
        m, md = scale * cn_sample(rng, (K, K, n, s)), scale * cn_sample(rng, (K, n, s))
        assert same_bits(_user_cross(d, m), user_cross_natural(d, m)), (K, s, n, L, scale)
        assert same_bits(_receiver_cross(b, md), receiver_cross_natural(b, md)), (
            K, s, n, L, scale)


def test_newton_system_matches_the_column_fill_bit_for_bit(rng):
    """`_newton_system` gives the bits of the column-by-column fill of U on
    the phi_t block alone (width K s^2) and with a theta block of width
    (K s)^2 beside it, for K = 1-4, s = 1-3 and L = 16 and 256, on unit-scale
    and 1e-4-scale factors and residuals."""
    for K, s, L, scale in itertools.product(range(1, 5), range(1, 4), (16, 256), (1.0, 1e-4)):
        for widths in ([K * s * s], [(K * s) ** 2, K * s * s]):
            f = [scale * cn_sample(rng, (L, r)) for r in widths]
            fh = [fk.conj().T for fk in f]
            e = rng.integers(-3, 1, size=len(widths))
            d = [float(np.ldexp(1.0, k)) for k in e]
            sk = [float(np.ldexp(1.0, 2 * k)) for k in e]
            g = scale * cn_sample(rng, (2, L))
            inv = 1.0 / np.sqrt(np.add.reduce(np.abs(g) ** 2, axis=0) + (0.01 * scale) ** 2)
            grad = [cn_sample(rng, r) for r in widths]
            args = (f, fh, sk, d, list(g[:len(widths)]), inv, grad)
            got, want = _newton_system(*args), newton_system_columns(*args)
            assert len(got) == len(widths)
            assert all(same_bits(x, y) for x, y in zip(got, want)), (K, s, L, scale, widths)
