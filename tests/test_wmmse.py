import numpy as np
import pytest

from iosfd import (BeamformerSet, ChannelSet, IosState, LinkSet, compose_effective,
                   update_state, weighted_sum_rate)
from iosfd.algorithm import _stack
from iosfd.system import LN2
from iosfd.wmmse import surrogate_objective

from conftest import fd_gradient, random_instance
from oracles import (cn_sample, downlink_interference, min_eigval, mse_matrix_down,
                     mse_matrix_up, optimal_decoder_down, optimal_decoder_up,
                     optimal_weight_down, optimal_weight_up, surrogate_compact)


def scalar_setup():
    """h = 1, p = 1, sigma^2 = 1, no interference anywhere."""
    one = lambda x: np.array([[complex(x)]])
    ch = ChannelSet(h_ti=one(1.0), h_tr=one(0.0), h_iu=one(1.0)[None],
                    h_ir=one(0.0), h_uu=one(0.0)[None, None])
    ios = IosState.zeros(1)
    ios.phi_t[:] = 1.0
    eff = compose_effective(ch, ios)
    bf = BeamformerSet(one(1.0)[None], one(0.0)[None])
    return eff, bf


def test_scalar_decoder_weight_values():
    eff, bf = scalar_setup()
    u = optimal_decoder_down(eff, bf, 0, 1.0)
    assert u[0, 0] == pytest.approx(0.5)
    w = optimal_weight_down(eff, bf, u, 0, 1.0)
    # E = (0.5 - 1)^2 + 0.25 = 0.5, so W = 2
    assert w[0, 0] == pytest.approx(2.0)


def test_zero_beamformer_identity_mse(rng):
    _, _, eff, bf, st, *_ = random_instance(rng)
    bf.v_d[0][:] = 0
    u = optimal_decoder_down(eff, bf, 0, 0.1)
    assert np.allclose(u, 0)
    e = mse_matrix_down(eff, bf, np.zeros_like(u), 0, 0.1)
    assert np.allclose(e, np.eye(e.shape[0]))
    w = optimal_weight_down(eff, bf, u, 0, 0.1)
    assert np.allclose(w, np.eye(w.shape[0]))


def test_mse_with_zero_signal_and_nonzero_decoder(rng):
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    bf.v_d[0][:] = 0
    u = cn_sample(rng, st.u_d[0].shape)
    e = mse_matrix_down(eff, bf, u, 0, float(nu[0]))
    cov = downlink_interference(eff, bf, 0) + nu[0] * np.eye(u.shape[0])
    expected = np.eye(u.shape[1]) + u.conj().T @ cov @ u
    assert np.allclose(e, expected)


def test_optimal_decoder_minimizes_mse_trace(rng):
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    u_star = optimal_decoder_down(eff, bf, 0, float(nu[0]))
    base = np.trace(mse_matrix_down(eff, bf, u_star, 0, float(nu[0]))).real
    for _ in range(20):
        pert = u_star + 1e-3 * cn_sample(rng, u_star.shape)
        val = np.trace(mse_matrix_down(eff, bf, pert, 0, float(nu[0]))).real
        assert val >= base - 1e-12


def test_decoder_stationarity_of_weighted_mse(rng):
    """grad_U Tr(W E(U)) must vanish at U* for any Hermitian PSD W."""
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    k = 1
    u_star = optimal_decoder_down(eff, bf, k, float(nu[k]))
    a = cn_sample(rng, (u_star.shape[1], u_star.shape[1]))
    w = a @ a.conj().T + 0.1 * np.eye(u_star.shape[1])

    def f(u):
        return float(np.trace(w @ mse_matrix_down(eff, bf, u, k, float(nu[k]))).real)

    grad = fd_gradient(f, u_star, h=1e-6)
    scale = max(1.0, abs(f(u_star)))
    assert np.max(np.abs(grad)) < 1e-5 * scale


def test_uplink_decoder_scalar_and_stationarity(rng):
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    k = 0
    u_star = optimal_decoder_up(eff, bf, k, nr)
    a = cn_sample(rng, (u_star.shape[1], u_star.shape[1]))
    w = a @ a.conj().T + 0.1 * np.eye(u_star.shape[1])

    def f(u):
        return float(np.trace(w @ mse_matrix_up(eff, bf, u, k, nr)).real)

    grad = fd_gradient(f, u_star, h=1e-6)
    assert np.max(np.abs(grad)) < 1e-5 * max(1.0, abs(f(u_star)))


def test_log_weight_equals_rate_in_nats(rng):
    """ln|W*| reproduces the per-link rate; checked against the rate evaluator."""
    for trial in range(5):
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng, K=2, L=4)
        rep = weighted_sum_rate(LinkSet.at(eff, bf, nu, nr), gd, gu)
        for k in range(2):
            w = optimal_weight_down(eff, bf, optimal_decoder_down(eff, bf, k, float(nu[k])),
                                    k, float(nu[k]))
            sign, logdet = np.linalg.slogdet(w)
            assert sign > 0
            assert logdet == pytest.approx(rep.r_down[k] * LN2, rel=1e-8, abs=1e-10)
            w = optimal_weight_up(eff, bf, optimal_decoder_up(eff, bf, k, nr), k, nr)
            sign, logdet = np.linalg.slogdet(w)
            assert logdet == pytest.approx(rep.r_up[k] * LN2, rel=1e-8, abs=1e-10)


def test_weights_hermitian_psd(rng):
    for _ in range(5):
        _, _, eff, bf, st, *_ = random_instance(rng)
        for w in st.w_d + st.w_u:
            assert np.allclose(w, w.conj().T, atol=1e-10)
            assert min_eigval(w) >= -1e-9


def test_surrogate_equals_weighted_rate_at_optimum(rng):
    for _ in range(10):
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng, K=2, L=4)
        rep = weighted_sum_rate(LinkSet.at(eff, bf, nu, nr), gd, gu)
        surr = surrogate_objective(LinkSet.at(eff, bf, nu, nr), st, gd, gu)
        target = LN2 * rep.weighted_sum
        assert abs(surr - target) <= 1e-8 * (1 + abs(surr))


def test_surrogate_trace_form_equals_compact_form(rng):
    """Identity between the expanded trace sum and log|W| - Tr(W E) + s."""
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng, K=3, L=4)
    # perturb away from the optimum so the identity is tested off-stationarity
    st.u_d[0] = st.u_d[0] + 0.1 * cn_sample(np.random.default_rng(0), st.u_d[0].shape)
    a = surrogate_objective(LinkSet.at(eff, bf, nu, nr), st, gd, gu)
    b = surrogate_compact(eff, bf, st, gd, gu, nu, nr)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_surrogate_zero_at_all_zero_point(rng):
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    bf.v_d = np.zeros_like(bf.v_d)
    bf.v_u = np.zeros_like(bf.v_u)
    st.u_d = np.zeros_like(st.u_d)
    st.u_u = np.zeros_like(st.u_u)
    st.w_d = np.broadcast_to(np.eye(st.w_d.shape[-1], dtype=complex), st.w_d.shape).copy()
    st.w_u = np.broadcast_to(np.eye(st.w_u.shape[-1], dtype=complex), st.w_u.shape).copy()
    value = surrogate_objective(LinkSet.at(eff, bf, nu, nr), st, gd, gu)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_perturbing_weight_decreases_surrogate(rng):
    """log|W| - Tr(W E) is concave in W and maximal at W* = E^{-1}."""
    _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
    base = surrogate_objective(LinkSet.at(eff, bf, nu, nr), st, gd, gu)
    for _ in range(10):
        pert = st.w_d[0] + 0.05 * np.eye(st.w_d[0].shape[0])
        other = st.w_d.copy()
        other[0] = pert
        mutated = type(st)(st.u_d, other, st.u_u, st.w_u)
        assert surrogate_objective(LinkSet.at(eff, bf, nu, nr), mutated, gd, gu) <= base + 1e-12


def test_block_update_never_decreases_surrogate(rng):
    for _ in range(5):
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
        st.u_d[0] = st.u_d[0] + 0.3 * cn_sample(rng, st.u_d[0].shape)
        before = surrogate_objective(LinkSet.at(eff, bf, nu, nr), st, gd, gu)
        refreshed = update_state(LinkSet.at(eff, bf, nu, nr))
        after = surrogate_objective(LinkSet.at(eff, bf, nu, nr), refreshed, gd, gu)
        assert after >= before - 1e-9


def test_readers_share_one_linkset(rng):
    """The rate, the decoder/weight refresh and the surrogate read one shared
    `LinkSet`, as `outer_step` has them do, in either order: each gives the
    bits it gives on a fresh `LinkSet` at that point, and none of them
    changes the links it reads.  On one point and on three stacked seeds."""
    _, _, eff, bf, _, gd, gu, nu, nr = random_instance(rng)
    draws = [random_instance(rng) for _ in range(3)]
    stacked = _stack([d[2] for d in draws]), _stack([d[3] for d in draws])
    for eff, bf in ((eff, bf), stacked):
        want_rate = weighted_sum_rate(LinkSet.at(eff, bf, nu, nr), gd, gu)
        want_st = update_state(LinkSet.at(eff, bf, nu, nr))
        want_surr = surrogate_objective(LinkSet.at(eff, bf, nu, nr), want_st, gd, gu)
        for rate_first in (True, False):
            links = LinkSet.at(eff, bf, nu, nr)
            before = {name: getattr(links, name).copy()
                      for name in ("hv_d", "den_d", "hv_u", "den_u")}
            if rate_first:
                rate, st = weighted_sum_rate(links, gd, gu), update_state(links)
            else:
                st, rate = update_state(links), weighted_sum_rate(links, gd, gu)
            surr = surrogate_objective(links, st, gd, gu)
            for name in ("r_down", "r_up", "weighted_sum"):
                assert np.array_equal(getattr(rate, name), getattr(want_rate, name))
            for name in ("u_d", "w_d", "u_u", "w_u"):
                assert np.array_equal(getattr(st, name), getattr(want_st, name))
            assert np.array_equal(surr, want_surr)
            for name, value in before.items():
                assert np.array_equal(getattr(links, name), value)
