import numpy as np
import pytest

from iosfd import (BeamformerSet, ChannelSet, IosState, compose_direct,
                   compose_effective, weighted_sum_rate)
from iosfd.errors import GeometryError
from iosfd.system import LN2, whiten_links, whitened_bits

from conftest import random_beamformers, random_channels, random_ios
from oracles import cn_sample, downlink_rate, uplink_rate


def scalar_channels(h_ti=2.0, h_iu=1.0, h_ir=1.0, h_tr=0.0, h_uu=0.0):
    one = lambda x: np.array([[complex(x)]])
    return ChannelSet(h_ti=one(h_ti), h_tr=one(h_tr), h_iu=one(h_iu)[None],
                      h_ir=one(h_ir), h_uu=one(h_uu)[None, None])


def test_ios_state_feasibility():
    good = IosState.balanced(4)
    assert good.is_feasible()
    bad = IosState.balanced(4)
    bad.theta_t[:] = 0.9
    assert not bad.is_feasible()
    with pytest.raises(ValueError):
        bad.validate()


def test_ios_state_is_one_side_by_kind_array(rng):
    """coef[s, 0] is theta and coef[s, 1] phi of side s (0: t, 1: u); the
    named vectors are views that write through and cannot be rebound."""
    ios = random_ios(rng, 5)
    assert ios.coef.shape == (2, 2, 5) and ios.n_elements == 5
    named = (("theta_t", 0, 0), ("phi_t", 0, 1), ("theta_u", 1, 0), ("phi_u", 1, 1))
    for i, (name, side, kind) in enumerate(named):
        view = getattr(ios, name)
        assert np.shares_memory(view, ios.coef)
        view[2] = 0.1 * (i + 1)
        assert ios.coef[side, kind, 2] == 0.1 * (i + 1)
        with pytest.raises(AttributeError):
            setattr(ios, name, np.zeros(5, complex))
    copy = ios.copy()
    assert np.array_equal(copy.coef, ios.coef) and not np.shares_memory(copy.coef, ios.coef)


def test_ios_state_rejects_wrong_shape():
    """(2, 2, L) after any leading axes: a leading axis stacks several runs'
    states, so (2, 2, 2, 8) is two states, and a malformed trailing shape
    fails with or without leading axes."""
    for shape in ((4, 8), (2, 8), (1, 2, 8), (2, 3, 8), (2, 2, 3, 8), (3, 2, 3, 8), (2, 2)):
        with pytest.raises(ValueError, match=r"\(2, 2, L\)"):
            IosState(np.zeros(shape, complex))
    assert IosState(np.zeros((2, 2, 3))).coef.dtype == complex
    stack = IosState(np.arange(64, dtype=complex).reshape(2, 2, 2, 8))
    assert stack.theta_t.shape == (2, 8) and stack.n_elements == 8
    assert np.array_equal(stack.phi_u[1], stack.coef[1, 1, 1])


def test_coupling_is_per_side(rng):
    ios = random_ios(rng, 6)
    got = ios.coupling()
    assert got.shape == (2, 6)
    for s, (theta, phi) in enumerate(((ios.theta_t, ios.phi_t), (ios.theta_u, ios.phi_u))):
        assert np.array_equal(got[s], np.abs(theta) ** 2 + np.abs(phi) ** 2)
    ios.phi_u[4] = 1.0
    assert ios.coupling()[1, 4] > 1.0 and ios.coupling()[0, 4] <= 1.0
    assert not ios.is_feasible()


def test_stacked_state_is_feasible_only_if_every_state_is(rng):
    stack = IosState(np.stack([random_ios(rng, 6).coef, random_ios(rng, 6).coef]))
    assert stack.coupling().shape == (2, 2, 6) and stack.is_feasible()
    stack.validate()
    stack.phi_u[1, 4] = 1.0
    assert not stack.is_feasible()
    with pytest.raises(ValueError, match="coupling constraint violated"):
        stack.validate()


def test_phases_canonical_range(rng):
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    ph = IosState.phases(v)
    assert np.all(ph >= 0) and np.all(ph < 2 * np.pi)


def test_surface_off_reduces_to_direct_terms(rng):
    ch = random_channels(rng, K=2, L=4)
    eff = compose_effective(ch, IosState.zeros(4))
    for k in range(2):
        assert np.allclose(eff.h_kd[k], 0)
        assert np.allclose(eff.h_ku[k], 0)
        for j in range(2):
            assert np.allclose(eff.h_jk[j][k], ch.h_uu[j][k])
    assert np.allclose(eff.h_t, ch.h_tr)


def test_scalar_refraction_product():
    ch = scalar_channels(h_ti=2.0, h_iu=1.0)
    ios = IosState.zeros(1)
    ios.phi_t[:] = 0.5 * np.exp(1j * np.pi)
    eff = compose_effective(ch, ios)
    # conj(1) * 0.5 e^{j pi} * 2 = -1
    assert eff.h_kd[0][0, 0] == pytest.approx(-1.0)


def test_scalar_reflection_self_coupling():
    ch = scalar_channels(h_ti=1.0, h_ir=1.0, h_tr=0.0)
    ios = IosState.zeros(1)
    ios.theta_t[:] = 1.0
    eff = compose_effective(ch, ios)
    assert eff.h_t[0, 0] == pytest.approx(1.0)


def test_compose_is_linear_in_each_vector(rng):
    ch = random_channels(rng, K=2, L=4)
    a, b = random_ios(rng, 4), random_ios(rng, 4)
    eff_a = compose_effective(ch, a)
    eff_b = compose_effective(ch, b)
    summed = IosState(a.coef + b.coef)
    eff_s = compose_effective(ch, summed)
    for k in range(2):
        assert np.allclose(eff_s.h_kd[k], eff_a.h_kd[k] + eff_b.h_kd[k])
        assert np.allclose(eff_s.h_ku[k], eff_a.h_ku[k] + eff_b.h_ku[k])
        for j in range(2):
            assert np.allclose(eff_s.h_jk[j][k] - ch.h_uu[j][k],
                               (eff_a.h_jk[j][k] - ch.h_uu[j][k])
                               + (eff_b.h_jk[j][k] - ch.h_uu[j][k]))
    assert np.allclose(eff_s.h_t - ch.h_tr,
                       (eff_a.h_t - ch.h_tr) + (eff_b.h_t - ch.h_tr))


def test_compose_rejects_asymmetric_user_arrays(rng):
    ch = random_channels(rng, K=1, L=4, n_u=2)
    ch.h_uu = np.zeros((1, 1, 2, 3), dtype=complex)  # claims 3 transmit antennas
    with pytest.raises(GeometryError):
        compose_effective(ch, IosState.zeros(4))


def test_compose_direct_requires_direct_links(rng):
    ch = random_channels(rng, K=2, L=4, direct=False)
    with pytest.raises(ValueError):
        compose_direct(ch)
    ch = random_channels(rng, K=2, L=4, direct=True)
    eff = compose_direct(ch)
    assert np.allclose(eff.h_kd[0], ch.h_direct_tu[0])
    assert np.allclose(eff.h_ku[1], ch.h_direct_ur[1])
    assert np.allclose(eff.h_t, ch.h_tr)


def test_zero_beamformer_zero_rate(rng):
    ch = random_channels(rng, K=2, L=4)
    eff = compose_effective(ch, random_ios(rng, 4))
    bf = random_beamformers(rng, K=2)
    bf.v_d[0][:] = 0
    assert downlink_rate(eff, bf, 0, 0.1) == pytest.approx(0.0, abs=1e-12)
    bf.v_u[1][:] = 0
    assert uplink_rate(eff, bf, 1, 0.1) == pytest.approx(0.0, abs=1e-12)


def test_scalar_snr_one_gives_one_bit():
    ch = scalar_channels(h_ti=1.0, h_iu=1.0)
    ios = IosState.zeros(1)
    ios.phi_t[:] = 1.0
    eff = compose_effective(ch, ios)
    # |h|^2 p / sigma^2 = 1 with h = conj(1)*1*1, p = 1, sigma^2 = 1
    bf = BeamformerSet(np.array([[[1.0 + 0j]]]), np.array([[[0.0 + 0j]]]))
    assert downlink_rate(eff, bf, 0, 1.0) == pytest.approx(1.0)


def test_scalar_uplink_snr_three_gives_two_bits():
    ch = scalar_channels(h_ti=0.0, h_ir=1.0, h_iu=1.0, h_tr=0.0)
    ios = IosState.zeros(1)
    ios.phi_u[:] = 1.0
    eff = compose_effective(ch, ios)
    bf = BeamformerSet(np.array([[[0.0 + 0j]]]), np.array([[[np.sqrt(3.0) + 0j]]]))
    assert uplink_rate(eff, bf, 0, 1.0) == pytest.approx(2.0)


def _bits(hv, den):
    """log2|I + H V V^H H^H B^{-1}| per link from H V and B, by the pair
    `LinkSet` and `weighted_sum_rate` run."""
    _, g, w = whiten_links(hv, den)
    return whitened_bits(g, w)


def test_rate_bits_accurate_at_ill_conditioned_interference(rng):
    """B at condition number 1e10 and a tiny signal along B's strongest
    direction: the exact rate is log2(1 + 1e-16), about 1.4e-16 bit.  A
    difference of two log-dets rounds off by up to about 1e-6 bit here; the
    whitened evaluation must stay within 1e-15 bit, and its log1p pivots keep
    the rate accurate relative to its size."""
    hv, b = [], []
    for _ in range(50):
        u, _ = np.linalg.qr(cn_sample(rng, (4, 4)))
        b.append((u * np.array([1.0, 1e-3, 1e-7, 1e-10])) @ u.conj().T)
        hv.append(1e-8 * u[:, :1])
    exact = np.log1p(1e-16) / LN2
    rates = _bits(np.array(hv), np.array(b))
    assert np.max(np.abs(rates - exact)) <= 1e-15
    assert np.max(np.abs(rates - exact)) <= 1e-9 * exact


def test_rate_matches_eigenvalue_oracle(rng):
    """log2 det via Cholesky must agree with a generalized-eigenvalue evaluation."""
    ch = random_channels(rng, K=2, L=4)
    eff = compose_effective(ch, random_ios(rng, 4))
    bf = random_beamformers(rng, K=2)
    for k in range(2):
        sig = eff.h_kd[k] @ bf.v_d[k]
        s = sig @ sig.conj().T
        b = 0.1 * np.eye(2, dtype=complex)
        for j in range(2):
            m = eff.h_jk[j][k] @ bf.v_u[j]
            b += m @ m.conj().T
        eig = np.linalg.eigvals(np.linalg.solve(b, s))
        oracle = float(np.sum(np.log2(1 + eig.real)))
        assert downlink_rate(eff, bf, k, 0.1) == pytest.approx(oracle, rel=1e-9)


def test_uplink_rate_decreases_with_self_coupling(rng):
    ch = random_channels(rng, K=2, L=4)
    eff = compose_effective(ch, random_ios(rng, 4))
    bf = random_beamformers(rng, K=2)
    base = uplink_rate(eff, bf, 0, 0.1)
    eff.h_t = 3.0 * eff.h_t
    worse = uplink_rate(eff, bf, 0, 0.1)
    assert worse < base


def test_rate_scaling_invariance(rng):
    s = np.abs(rng.standard_normal()) + 0.5
    hv = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    den = b @ b.conj().T + np.eye(3)
    assert _bits(np.sqrt(s) * hv, s * den) == pytest.approx(_bits(hv, den), rel=1e-10)


def test_weighted_sum_is_convex_combination(rng):
    ch = random_channels(rng, K=1, L=2)
    eff = compose_effective(ch, random_ios(rng, 2))
    bf = random_beamformers(rng, K=1)
    rep = weighted_sum_rate(eff, bf, np.array([0.5]), np.array([0.5]),
                            np.array([0.1]), 0.1)
    assert rep.weighted_sum == pytest.approx(0.5 * rep.r_down[0] + 0.5 * rep.r_up[0])


def test_weighted_sum_matches_manual_oracle(rng):
    ch = random_channels(rng, K=3, L=4)
    eff = compose_effective(ch, random_ios(rng, 4))
    bf = random_beamformers(rng, K=3)
    gd = rng.uniform(0.1, 0.9, 3)
    gu = rng.uniform(0.1, 0.9, 3)
    rep = weighted_sum_rate(eff, bf, gd, gu, np.full(3, 0.05), 0.07)
    manual = sum(gd[k] * downlink_rate(eff, bf, k, 0.05)
                 + gu[k] * uplink_rate(eff, bf, k, 0.07) for k in range(3))
    assert rep.weighted_sum == pytest.approx(manual, rel=1e-12)
    assert np.all(rep.r_down >= 0) and np.all(rep.r_up >= 0)


def test_weights_outside_unit_interval_rejected(rng):
    ch = random_channels(rng, K=1, L=2)
    eff = compose_effective(ch, random_ios(rng, 2))
    bf = random_beamformers(rng, K=1)
    with pytest.raises(ValueError):
        weighted_sum_rate(eff, bf, np.array([1.0]), np.array([0.5]), np.array([0.1]), 0.1)
