import numpy as np
import pytest

from iosfd import (BeamformerSet, LinkSet, bisect_multiplier, update_beamformers,
                   update_state)
from iosfd import beamformers
from iosfd.errors import NumericalError
from iosfd.linalg import adj
from iosfd.wmmse import surrogate_objective

from conftest import fd_gradient, random_instance
from oracles import (bisect_multiplier_plain, min_eigval, update_v_down, update_v_up,
                     xi_down, xi_up)


def test_xi_hermitian_pd(rng):
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    xi = xi_down(eff, st, gd, gu, 0.5, 0)
    assert np.allclose(xi, xi.conj().T)
    assert min_eigval(xi) >= 0.5 - 1e-9
    xi = xi_up(eff, st, gd, gu, 0.25, 1)
    assert min_eigval(xi) >= 0.25 - 1e-9


def test_huge_multiplier_kills_precoder(rng):
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    v = update_v_down(eff, st, gd, gu, 1e12, 0)
    assert np.max(np.abs(v)) < 1e-9


def test_zero_weight_gives_zero_precoder(rng):
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    st.w_d[0][:] = 0
    v = update_v_down(eff, st, gd, gu, 0.3, 0)
    assert np.allclose(v, 0)


def test_scalar_downlink_closed_form(rng):
    """v = g h u w / (g h^2 u^2 w + mu) for a real scalar system."""
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng, K=1, n_tx=1, n_rx=1,
                                                        n_u=1, L=1)
    h = 0.8
    u = 0.6
    w = 1.7
    mu = 0.9
    eff.h_kd[0] = np.array([[h + 0j]])
    eff.h_t = np.array([[0.0 + 0j]])
    st.u_d[0] = np.array([[u + 0j]])
    st.w_d[0] = np.array([[w + 0j]])
    g = gd[0]
    v = update_v_down(eff, st, gd, gu, mu, 0)
    expected = g * h * u * w / (g * h * h * u * u * w + mu)
    assert v[0, 0] == pytest.approx(expected, rel=1e-12)


def _lagrangian_down(eff, st, gd, gu, mu, k, v):
    """f1(V) - 2 Re gamma Tr(W U^H H V) + mu ||V||^2 (the V_kd-dependent part)."""
    h = eff.h_kd[k]
    uw = st.u_d[k] @ st.w_d[k] @ st.u_d[k].conj().T
    quad = gd[k] * np.trace(v.conj().T @ h.conj().T @ uw @ h @ v).real
    core = np.zeros_like(eff.h_t @ eff.h_t.conj().T)
    for j in range(len(gu)):
        core = core + gu[j] * (st.u_u[j] @ st.w_u[j] @ st.u_u[j].conj().T)
    quad += np.trace(v.conj().T @ eff.h_t.conj().T @ core @ eff.h_t @ v).real
    lin = 2.0 * gd[k] * np.trace(st.w_d[k] @ st.u_d[k].conj().T @ h @ v).real
    return float(quad - lin + mu * np.sum(np.abs(v) ** 2))


def test_downlink_update_is_lagrangian_stationary(rng):
    for _ in range(5):
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
        mu = 0.4
        v_star = update_v_down(eff, st, gd, gu, mu, 0)
        grad = fd_gradient(lambda v: _lagrangian_down(eff, st, gd, gu, mu, 0, v),
                           v_star, h=1e-6)
        assert np.max(np.abs(grad)) < 1e-5


def test_uplink_update_is_lagrangian_stationary(rng):
    """Cross-channel orientation check: the stationarity only holds if the
    user-k to user-j channel enters the quadratic, not its transpose partner."""
    def lagrangian_up(eff, st, gd, gu, lam, k, v):
        quad = 0.0
        for j in range(len(gd)):
            h_kj = eff.h_jk[k][j]
            uw = st.u_d[j] @ st.w_d[j] @ st.u_d[j].conj().T
            quad += gd[j] * np.trace(v.conj().T @ h_kj.conj().T @ uw @ h_kj @ v).real
        core = np.zeros_like(eff.h_t @ eff.h_t.conj().T)
        for j in range(len(gu)):
            core = core + gu[j] * (st.u_u[j] @ st.w_u[j] @ st.u_u[j].conj().T)
        h = eff.h_ku[k]
        quad += np.trace(v.conj().T @ h.conj().T @ core @ h @ v).real
        lin = 2.0 * gu[k] * np.trace(st.w_u[k] @ st.u_u[k].conj().T @ h @ v).real
        return float(quad - lin + lam * np.sum(np.abs(v) ** 2))

    for _ in range(5):
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
        lam = 0.7
        v_star = update_v_up(eff, st, gd, gu, lam, 1)
        grad = fd_gradient(lambda v: lagrangian_up(eff, st, gd, gu, lam, 1, v),
                           v_star, h=1e-6)
        assert np.max(np.abs(grad)) < 1e-5


def test_bisection_returns_zero_when_unconstrained_feasible():
    assert bisect_multiplier(lambda mu: 1.0 / (1.0 + mu), budget=2.0) == 0.0


def test_bisection_scalar_closed_form():
    # power(mu) = c / (a + mu)^2 has root mu* = sqrt(c / b) - a
    a, c, b = 0.3, 4.0, 0.8
    mu = bisect_multiplier(lambda m: c / (a + m) ** 2, budget=b, eps_b=1e-4)
    expected = np.sqrt(c / b) - a
    assert mu == pytest.approx(expected, rel=1e-4)
    assert c / (a + mu) ** 2 <= b * (1 + 1e-4)


def test_bisection_power_map_monotone(rng):
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)

    def power(mu):
        return float(sum(np.sum(np.abs(update_v_down(eff, st, gd, gu, mu, k)) ** 2)
                         for k in range(2)))

    mus = np.sort(rng.uniform(0.0, 5.0, 8))
    powers = [power(m) for m in mus]
    assert all(p1 >= p2 - 1e-12 for p1, p2 in zip(powers, powers[1:]))


def test_bisection_bracket_failure():
    with pytest.raises(NumericalError):
        bisect_multiplier(lambda mu: 10.0, budget=1.0)


def test_update_meets_budgets_and_slackness(rng):
    eps_b = 1e-4
    for _ in range(5):
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng, p_b=1e-3, p_u=1e-3)
        p_b, p_u = 1e-3, 1e-3
        new, duals = update_beamformers(eff, st, gd, gu, p_b, p_u, eps_b)
        total_d = new.downlink_power()
        assert total_d <= p_b * (1 + eps_b)
        slack = p_b - total_d
        assert duals.mu_d * slack <= eps_b * p_b * max(duals.mu_d, 1.0)
        for k in range(2):
            pk = new.uplink_power(k)
            assert pk <= p_u * (1 + eps_b)
            assert duals.lambda_u[k] * (p_u - pk) <= eps_b * p_u * max(duals.lambda_u[k], 1.0)


def test_update_never_decreases_surrogate(rng):
    for _ in range(5):
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng, p_b=2.0, p_u=1.0)
        before = surrogate_objective(LinkSet.at(eff, bf, nu, nr), st, gd, gu)
        new, _ = update_beamformers(eff, st, gd, gu, 2.0, 1.0)
        after = surrogate_objective(LinkSet.at(eff, new, nu, nr), st, gd, gu)
        assert after >= before - 1e-9


def test_zero_downlink_is_a_fixed_point(rng):
    """With V_d = 0 the downlink decoders are 0 and its weights I, bit for
    bit, and the precoder update keeps V_d = 0 at mu = 0, with the uplink
    budgets slack (p_u = 2) and binding (p_u = 0.05)."""
    _, _, eff, bf, _, gd, gu, nu, nr = random_instance(rng)
    bf = BeamformerSet(np.zeros_like(bf.v_d), bf.v_u)
    st = update_state(LinkSet.at(eff, bf, nu, nr))
    eye = np.broadcast_to(np.eye(st.w_d.shape[-1], dtype=complex), st.w_d.shape)
    assert not np.any(st.u_d)
    assert st.w_d.tobytes() == np.ascontiguousarray(eye).tobytes()
    for p_u in (2.0, 0.05):
        new, duals = update_beamformers(eff, st, gd, gu, 4.0, p_u)
        assert not np.any(new.v_d)
        assert duals.mu_d == 0.0
    assert np.all(duals.lambda_u > 0.0)


def test_zero_downlink_searches_the_uplink_alone(rng):
    """On an SS state (V_d = 0) the update's lambda_u and V_u have the bits of
    a direct uplink-only search and solve, and of the joint search with the
    zero downlink beside it, as it ran before the downlink was skipped."""
    _, _, eff, bf, _, gd, gu, nu, nr = random_instance(rng)
    st = update_state(LinkSet.at(eff, BeamformerSet(np.zeros_like(bf.v_d), bf.v_u), nu, nr))
    K = len(gu)
    uw = beamformers.downlink_weight_core(st, gd)
    core = beamformers.uplink_weight_core(st, gu)
    up = beamformers._RegularizedSolve(beamformers.xi_up(eff, uw, core),
                                       gu[:, None, None] * (adj(eff.h_ku) @ st.u_u @ st.w_u))
    down = beamformers._RegularizedSolve(beamformers.xi_down(eff, uw, core),
                                         gd[:, None, None] * (adj(eff.h_kd) @ st.u_d @ st.w_d))

    def joint(m):
        return np.concatenate([down.power(m[:1, None], (-2, -1))[None],
                               up.power(m[1:, None], -1)])
    for p_u in (2.0, 0.05):
        new, duals = update_beamformers(eff, st, gd, gu, 4.0, p_u)
        lams = bisect_multiplier(lambda m: up.power(m[..., None], -1), np.full(K, p_u))
        both = bisect_multiplier(joint, np.concatenate([[4.0], np.full(K, p_u)]))
        assert both[0] == 0.0
        assert duals.lambda_u.tobytes() == lams.tobytes() == both[1:].tobytes()
        assert new.v_u.tobytes() == up.solution(lams).tobytes()
        assert not np.any(new.v_d) and new.v_d.shape == bf.v_d.shape and duals.mu_d == 0.0


def _power_map(weights, eigvals):
    """The precoders' consumed-power map sum_i w_i / (lambda_i + mu)^2 and its
    derivative; a zero eigenvalue with weight makes p(0) infinite."""
    def power(mu):
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.sum(np.where(weights > 0, weights / (eigvals + mu) ** 2, 0.0)))

    def slope(mu):
        return float(np.sum(-2.0 * weights / (eigvals + mu) ** 3))
    return power, slope


def _random_power_maps(rng, count):
    """(power, slope, budget) at unit scale and at the physical scale of the
    precoder quadratics (eigenvalues around 1e-8), plus one map whose zero
    eigenvalue carries weight and one whose budget is met at mu = 0."""
    maps = []
    for i in range(count):
        scale = 1.0 if i % 2 == 0 else 1e-8
        n = int(rng.integers(1, 9))
        eigvals = scale * 10.0 ** rng.uniform(-3.0, 1.0, n)
        weights = scale ** 2 * 10.0 ** rng.uniform(-2.0, 2.0, n) * rng.uniform(0.0, 1.0, n)
        if i % 7 == 0:
            eigvals[0] = 0.0
        if i % 11 == 0:
            weights[-1] = 0.0
        power, slope = _power_map(weights, eigvals)
        maps.append((power, slope, power(scale * 10.0 ** rng.uniform(-2.0, 2.0))))
    power, slope = _power_map(np.array([1.0, 2.0]), np.array([0.0, 0.5]))
    maps.append((power, slope, 3.0))
    assert power(0.0) == np.inf
    power, slope = _power_map(np.array([1.0, 2.0]), np.array([1.0, 0.5]))
    maps.append((power, slope, 1.001 * power(0.0)))
    return maps


def _exact_root(power, budget):
    """Smallest float multiplier whose power meets the budget: bisection run
    down to adjacent floats, with no power tolerance."""
    if power(0.0) <= budget * (1.0 + 1e-12):
        return 0.0
    lo, hi = 0.0, 1.0
    while power(hi) > budget:
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if power(mid) > budget else (lo, mid)
    return hi


def test_secant_multiplier_matches_plain_bisection():
    """The secant search returns the plain bisection's multiplier, feasibly, in
    few probes.  Both stop once the power is within 1e-12 relative of the
    budget or the bracket is 1e-15 hi wide, which fixes mu only to
    `resolution`; beyond that, mu must lie within 1e-10 relative of the exact
    root and of the oracle.  The oracle returns the previous feasible end of
    its bracket when it stops on an infeasible probe, so its own distance
    from the exact root is allowed as well."""
    rng = np.random.default_rng(31)
    probes = []
    for power, slope, budget in _random_power_maps(rng, 200):
        calls = []

        def counted(mu):
            calls.append(mu)
            return power(mu)
        mu = bisect_multiplier(counted, budget)
        oracle = bisect_multiplier_plain(power, budget)
        exact = _exact_root(power, budget)
        probes.append(len(calls))
        assert power(mu) <= budget * (1.0 + 1e-12)
        if oracle == 0.0:
            assert mu == exact == 0.0
            continue
        resolution = 2e-12 * budget / abs(slope(exact)) + 2e-15 * exact
        assert abs(mu - exact) <= 1e-10 * exact + resolution, (mu, exact)
        assert abs(mu - oracle) <= 1e-10 * oracle + resolution + abs(oracle - exact)
    assert np.mean(probes) <= 12.0


def test_multiplier_bracket_is_relative_at_physical_scale():
    """With eigenvalues around 1e-8 the multipliers lie far below 1, and the
    bracket stop must fix them relative to their size, not to 1e-15 absolute.
    Budgets from just below p(0) to far below it put the root anywhere from
    about 1e-16 to 1e-6, and mu must land within 1e-10 relative of the exact
    root or within the width the 1e-12 power tolerance leaves."""
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        eigvals = 1e-8 * 10.0 ** rng.uniform(-1.0, 1.0, n)
        weights = 1e-16 * 10.0 ** rng.uniform(-2.0, 2.0, n)
        power, slope = _power_map(weights, eigvals)
        budget = power(0.0) * (1.0 - 10.0 ** rng.uniform(-7.0, -0.5))
        exact = _exact_root(power, budget)
        mu = bisect_multiplier(power, budget)
        assert power(mu) <= budget
        resolution = 2e-12 * budget / abs(slope(exact)) + 2e-15 * exact
        assert abs(mu - exact) <= 1e-10 * exact + resolution, (mu, exact)
