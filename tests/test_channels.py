import dataclasses

import numpy as np
import pytest

from iosfd import ChannelSet, FadingParams, build_layout, sample_channels
from iosfd.errors import GeometryError
from iosfd.geometry import antenna_gain, elevations_from_axis, pairwise_distances

from conftest import (FADINGS, GEOMETRIES, LAYOUT_ANTENNAS, grid_geometry, reference_geometry,
                      same_bits)
from oracles import sample_channels_loop


@pytest.fixture(scope="module")
def layout():
    return build_layout(reference_geometry(L=6, K=2, n_tx=2, n_rx=2, n_user=2))


def test_same_seed_bit_identical(layout):
    fad = FadingParams.from_db(3.0)
    a = sample_channels(layout, fad, 42, include_direct=True)
    b = sample_channels(layout, fad, 42, include_direct=True)
    assert np.array_equal(a.h_ti, b.h_ti)
    assert np.array_equal(a.h_tr, b.h_tr)
    assert all(np.array_equal(x, y) for x, y in zip(a.h_iu, b.h_iu))
    assert np.array_equal(a.h_ir, b.h_ir)
    assert all(np.array_equal(a.h_uu[j][k], b.h_uu[j][k]) for j in range(2) for k in range(2))
    assert all(np.array_equal(x, y) for x, y in zip(a.h_direct_tu, b.h_direct_tu))
    c = sample_channels(layout, fad, 43)
    assert not np.array_equal(a.h_tr, c.h_tr)

    # K = 3, L = 5, N_t = 4, N_r = 3, N_ur = 2, N_ut = 1: every per-user link
    # is one complex ndarray with its leading user axes.  The direct links are
    # drawn last, so leaving them out changes no other link.
    geometry = dataclasses.replace(reference_geometry(L=5, K=3, n_tx=4, n_rx=3, n_user=2),
                                   n_user_tx=1)
    with_direct = sample_channels(build_layout(geometry), fad, 7, include_direct=True)
    without = sample_channels(build_layout(geometry), fad, 7)
    shapes = {"h_iu": (3, 5, 2), "h_uu": (3, 3, 2, 1),
              "h_direct_tu": (3, 2, 4), "h_direct_ur": (3, 3, 1)}
    for name, shape in shapes.items():
        got = getattr(with_direct, name)
        assert isinstance(got, np.ndarray) and got.dtype == complex and got.shape == shape, name
    assert without.h_direct_tu is None and without.h_direct_ur is None
    for name in ("h_ti", "h_tr", "h_iu", "h_ir", "h_uu"):
        assert np.array_equal(getattr(without, name), getattr(with_direct, name)), name


def test_tx_surface_magnitude_law(layout):
    """|entry| * 4*pi*r / lam must equal sqrt(G(theta)) exactly."""
    fad = FadingParams.from_db(3.0, gain_exponent_tx=2.0)
    ch = sample_channels(layout, fad, 0)
    r = pairwise_distances(layout.ios_positions, layout.tx_positions)
    theta = elevations_from_axis(layout.ios_positions, layout.tx_positions, layout.ios_axis)
    lhs = np.abs(ch.h_ti) * 4 * np.pi * r / layout.wavelength
    rhs = np.sqrt(antenna_gain(theta, 2.0))
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_tx_surface_phase_law(layout):
    fad = FadingParams.from_db(3.0)
    ch = sample_channels(layout, fad, 0)
    r = pairwise_distances(layout.ios_positions, layout.tx_positions)
    phase = np.angle(ch.h_ti * np.exp(2j * np.pi * r / layout.wavelength))
    assert np.allclose(phase, 0.0, atol=1e-9)


def test_huge_rician_factor_gives_pure_los(layout):
    fad = FadingParams(rician_factor=1e12, pathloss_exponent=2.5)
    ch = sample_channels(layout, fad, 7)
    r = pairwise_distances(layout.rx_positions, layout.tx_positions)
    amp = np.abs(ch.h_tr)
    theory = np.abs(ch.h_tr / np.exp(-2j * np.pi * r / layout.wavelength))
    los_amp = theory  # phase removed; amplitude must match the LoS coefficient
    assert np.allclose(amp, los_amp, rtol=1e-12)
    # relative deviation from the deterministic LoS term is O(1/sqrt(chi))
    fad0 = FadingParams(rician_factor=1e12)
    ch2 = sample_channels(layout, fad0, 8)
    ratio = np.abs(ch.h_tr - ch2.h_tr) / np.abs(ch.h_tr)
    assert np.max(ratio) < 1e-5


def test_user_user_free_space_vs_kappa(layout):
    """The user-user denominator switch changes only the amplitude scale."""
    f_free = FadingParams.from_db(3.0, uu_free_space=True)
    f_kap = FadingParams.from_db(3.0, uu_free_space=False)
    a = sample_channels(layout, f_free, 11)
    b = sample_channels(layout, f_kap, 11)
    r = pairwise_distances(layout.user_rx_positions[1], layout.user_tx_positions[0])
    ratio = np.abs(a.h_uu[0][1] / b.h_uu[0][1])
    assert np.allclose(ratio, r ** (2.5 / 2.0) / r, rtol=1e-12)


def test_rician_second_moment_matches_pathloss():
    """E|entry|^2 over many seeds equals the squared amplitude scale."""
    lay = build_layout(reference_geometry(L=1, K=2, n_tx=1, n_rx=1, n_user=1))
    fad = FadingParams.from_db(3.0)
    r = pairwise_distances(lay.user_rx_positions[1], lay.user_tx_positions[0])[0, 0]
    pathloss = lay.wavelength / (4 * np.pi * r)
    n = 10_000
    samples = np.empty(n)
    for seed in range(n):
        ch = sample_channels(lay, fad, seed)
        samples[seed] = np.abs(ch.h_uu[0][1][0, 0]) ** 2
    mean = samples.mean()
    stderr = samples.std(ddof=1) / np.sqrt(n)
    assert abs(mean - pathloss ** 2) < 3 * stderr


def test_no_gain_factor_on_surface_user_link(layout):
    fad = FadingParams(rician_factor=1e12, pathloss_exponent=2.5)
    ch = sample_channels(layout, fad, 0)
    r = pairwise_distances(layout.ios_positions, layout.user_rx_positions[0])
    expected = layout.wavelength / (4 * np.pi * r ** 1.25)
    assert np.allclose(np.abs(ch.h_iu[0]), expected, rtol=1e-5)


def test_invalid_fading_params():
    with pytest.raises(ValueError):
        FadingParams(rician_factor=0.0)


def test_sub_free_space_exponent_warns_only(caplog):
    with caplog.at_level("WARNING"):
        FadingParams(rician_factor=2.0, pathloss_exponent=1.5)
    assert any("below free space" in r.message for r in caplog.records)


@pytest.mark.parametrize("kind, L", GEOMETRIES)
def test_draw_matches_the_per_matrix_loop_bit_for_bit(kind, L):
    """Every ChannelSet field has the bits of the draw made one matrix at a
    time, for K = 1-3, four array sizes, two fading settings, seeds 0-5, with
    and without the direct links."""
    for K in (1, 2, 3):
        for antennas in LAYOUT_ANTENNAS:
            layout = build_layout(grid_geometry(kind, L, K, antennas))
            for fading in FADINGS:
                for seed in range(6):
                    for direct in (False, True):
                        got = sample_channels(layout, fading, seed, include_direct=direct)
                        want = sample_channels_loop(layout, fading, seed, include_direct=direct)
                        for field in dataclasses.fields(ChannelSet):
                            assert same_bits(getattr(got, field.name),
                                             getattr(want, field.name)), (
                                K, antennas, fading, seed, direct, field.name)


def test_zero_distances_raise_as_the_per_matrix_loop_does():
    """A transceiver or surface anchor on a user's antenna, or one user's
    transmit antenna on another's receive antenna, gives a zero distance;
    both draws raise the same GeometryError, the direct links only when
    they are drawn."""
    base = reference_geometry(L=8, K=2)
    lay = build_layout(base)
    rx0, tx0 = lay.user_rx_positions[0][0], lay.user_tx_positions[0][0]
    cases = {"surface on a user": dataclasses.replace(base, ios_anchor=rx0),
             "transmitter on a user": dataclasses.replace(base, tx_anchor=rx0),
             "receiver on a user": dataclasses.replace(base, rx_anchor=tx0),
             "user on a user": dataclasses.replace(
                 base, user_anchors=np.array([base.user_anchors[0], rx0]))}
    fading = FadingParams.from_db(3.0)
    raised = set()
    for name, cfg in cases.items():
        layout = build_layout(cfg)
        for direct in (False, True):
            outcomes = []
            for draw in (sample_channels, sample_channels_loop):
                try:
                    outcomes.append(draw(layout, fading, 1, include_direct=direct).h_uu.tobytes())
                except GeometryError as err:
                    outcomes.append(str(err))
                    raised.add((name, direct))
            assert outcomes[0] == outcomes[1], (name, direct)
    assert raised == {(name, direct) for name in cases for direct in (False, True)} - {
        ("transmitter on a user", False), ("receiver on a user", False)}
