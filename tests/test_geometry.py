import dataclasses

import numpy as np
import pytest

from iosfd import GeometryConfig, antenna_gain, build_layout
from iosfd.errors import GeometryError
from iosfd.geometry import SpatialLayout, pairwise_distances

from conftest import GEOMETRIES, LAYOUT_ANTENNAS, grid_geometry, reference_geometry, same_bits
from oracles import build_layout_cross


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


def _tilted(L: int, K: int, antennas) -> GeometryConfig:
    """Receiver and surface above the transmitter: their axes lie within
    26 degrees of z, so the plane axes are built on x instead of z."""
    cfg = grid_geometry("reference", L, K, antennas)
    return dataclasses.replace(cfg, rx_anchor=np.array([0.0, 0.1, 6.0]),
                               ios_anchor=np.array([0.05, 0.0, 6.5]))


def _random_anchors(seed: int, L: int, K: int, antennas) -> GeometryConfig:
    rng = np.random.default_rng(seed)
    cfg = grid_geometry("reference", L, K, antennas)
    return dataclasses.replace(cfg, tx_anchor=rng.uniform(-3, 3, 3),
                               rx_anchor=rng.uniform(-3, 3, 3), ios_anchor=rng.uniform(-3, 3, 3),
                               user_anchors=rng.uniform(-40, 40, (K, 3)))


def test_layout_matches_the_cross_product_form_bit_for_bit():
    """Every SpatialLayout field has the bits of the layout built with
    np.cross, over the draw grid's geometries, a tilted one and random anchors."""
    cases = [grid_geometry(kind, L, K, a) for kind, L in GEOMETRIES
             for K in (1, 2, 3) for a in LAYOUT_ANTENNAS]
    cases += [_tilted(L, K, a) for L in (1, 8, 64) for K in (1, 3) for a in LAYOUT_ANTENNAS]
    cases += [_random_anchors(seed, 16, 2, LAYOUT_ANTENNAS[seed % 4]) for seed in range(40)]
    for cfg in cases:
        got, want = build_layout(cfg), build_layout_cross(cfg)
        for field in dataclasses.fields(SpatialLayout):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert same_bits(np.asarray(a), np.asarray(b)), (cfg, field.name)


def test_layout_errors_match_the_cross_product_form():
    cases = []
    for a, b in (("tx_anchor", "rx_anchor"), ("tx_anchor", "ios_anchor"),
                 ("rx_anchor", "ios_anchor")):
        cfg = reference_geometry()
        setattr(cfg, b, getattr(cfg, a).copy())
        cases.append((cfg, f"coincident anchors ({a[:-7]}/{b[:-7]})"))
    cases += [(dataclasses.replace(reference_geometry(), n_user_rx=0), "counts must all be >= 1"),
              (dataclasses.replace(reference_geometry(), wavelength=0.0), "wavelength")]
    for cfg, expected in cases:
        messages = []
        for build in (build_layout, build_layout_cross):
            with pytest.raises(GeometryError) as err:
                build(cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and expected in messages[0]


def test_pairwise_distances_broadcast_leading_axes_bit_for_bit():
    """(..., m, 3) against (..., n, 3) gives the stack of the 2-D distance
    matrices, with the bits of each."""
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(3, 4, 3)), rng.normal(size=(2, 1, 5, 3))
    got = pairwise_distances(a, b)
    assert got.shape == (2, 3, 4, 5)
    for j in range(2):
        for k in range(3):
            want = np.linalg.norm(a[k][:, None, :] - b[j, 0][None, :, :], axis=-1)
            assert got[j, k].tobytes() == want.tobytes()
    with pytest.raises(GeometryError, match="zero distance"):
        pairwise_distances(a, a[:, 2:])
