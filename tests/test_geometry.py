import numpy as np
import pytest

from iosfd import GeometryConfig, antenna_gain, build_layout
from iosfd.errors import GeometryError

from conftest import reference_geometry


def test_gain_isotropic_hemisphere_value():
    assert antenna_gain(0.0, 0.0) == pytest.approx(2.0)


def test_gain_horizon_null():
    for rho in (0.5, 1.0, 2.0, 5.0):
        assert antenna_gain(np.pi / 2, rho) == pytest.approx(0.0, abs=1e-7)
    assert antenna_gain(np.pi / 2 + 0.3, 2.0) == 0.0


def test_gain_cosine_power_value():
    # 2*(1+1)*cos(pi/3) = 4*0.5
    assert antenna_gain(np.pi / 3, 1.0) == pytest.approx(2.0)


def test_gain_negative_exponent_rejected():
    with pytest.raises(ValueError):
        antenna_gain(0.1, -1.0)


@pytest.mark.parametrize("rho", [0.0, 1.0, 2.0, 4.0, 7.5])
def test_gain_normalizes_to_4pi_over_hemisphere(rho):
    theta = np.linspace(0.0, np.pi / 2, 10_000)
    integrand = antenna_gain(theta, rho) * np.sin(theta)
    total = 2 * np.pi * np.trapezoid(integrand, theta)
    assert total == pytest.approx(4 * np.pi, rel=1e-2)


def test_layout_anchors_are_first_elements():
    lay = build_layout(reference_geometry(L=8, K=3))
    assert np.allclose(lay.tx_positions[0], [0, 0, 5])
    assert np.allclose(lay.rx_positions[0], [0, 1, 5])
    assert np.allclose(lay.ios_positions[0], [1, 1, 5])
    assert lay.ios_positions.shape == (8, 3)
    assert len(lay.user_rx_positions) == 3


def test_single_antenna_distances_equal_anchor_distances():
    lay = build_layout(reference_geometry(L=1, K=2, n_tx=1, n_rx=1, n_user=1))
    d = np.linalg.norm(lay.ios_positions[0] - lay.tx_positions[0])
    assert d == pytest.approx(np.sqrt(2.0))
    d_user = np.linalg.norm(lay.ios_positions[0] - lay.user_rx_positions[0][0])
    anchor = np.array([20, 20, 1.5])
    offset = anchor + np.array([0, 0.025, 0])  # receive row sits half a wavelength off
    assert d_user == pytest.approx(np.linalg.norm(np.array([1, 1, 5]) - offset))


def test_half_wavelength_spacing():
    lay = build_layout(reference_geometry(L=2))
    d = np.linalg.norm(lay.ios_positions[1] - lay.ios_positions[0])
    assert d == pytest.approx(0.025, abs=1e-9)
    d_tx = np.linalg.norm(lay.tx_positions[1] - lay.tx_positions[0])
    assert d_tx == pytest.approx(0.025, abs=1e-9)


def test_grid_is_planar_and_orthogonal_to_boresight():
    lay = build_layout(reference_geometry(L=9))
    rel = lay.ios_positions - lay.ios_positions[0]
    assert np.allclose(rel @ lay.ios_axis, 0.0, atol=1e-12)


def test_coincident_anchors_rejected():
    cfg = reference_geometry()
    cfg.rx_anchor = cfg.tx_anchor.copy()
    with pytest.raises(GeometryError):
        build_layout(cfg)


def test_bad_counts_rejected():
    cfg = reference_geometry()
    cfg.n_elements = 0
    with pytest.raises(GeometryError):
        build_layout(cfg)


def test_user_tx_rx_rows_never_collide():
    lay = build_layout(reference_geometry(K=2, n_user=4))
    for txp, rxp in zip(lay.user_tx_positions, lay.user_rx_positions):
        d = np.linalg.norm(txp[:, None, :] - rxp[None, :, :], axis=-1)
        assert d.min() >= 0.025 - 1e-12


def test_user_positions_are_stacked_per_user_rows():
    """(K, N_ut, 3) and (K, N_ur, 3) arrays with the bits of the per-user rows:
    a transmit row from the anchor along x, a receive row half a wavelength
    along y from it."""
    cfg = reference_geometry(K=3, n_user=2)
    cfg.n_user_tx = 3
    lay = build_layout(cfg)
    assert lay.user_tx_positions.shape == (3, 3, 3)
    assert lay.user_rx_positions.shape == (3, 2, 3)
    spacing = cfg.wavelength / 2.0
    xhat, yhat = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    for k, anchor in enumerate(np.asarray(cfg.user_anchors, dtype=float)):
        tx = anchor + spacing * np.arange(3)[:, None] * xhat
        rx = anchor + spacing * yhat + spacing * np.arange(2)[:, None] * xhat
        assert np.array_equal(lay.user_tx_positions[k], tx)
        assert np.array_equal(lay.user_rx_positions[k], rx)
