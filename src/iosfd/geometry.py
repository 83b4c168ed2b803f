"""Deterministic geometry: array layouts, distances, elevation angles, element gain.

The transceiver (transmit array + receive array) and the surface sit close
together; the users are far below.  Every link coefficient is built from exact
pairwise distances, so near-field array effects come out automatically instead
of through steering-vector approximations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


def antenna_gain(theta, exponent: float):
    """Cosine-power element gain G(t) = 2(p+1) cos^p(t) on [0, pi/2], else 0.

    The 2(p+1) front factor makes the pattern integrate to 4*pi over the
    upper hemisphere for any exponent p >= 0.  Accepts scalars or arrays.
    """
    if exponent < 0:
        raise ValueError(f"gain exponent must be nonnegative, got {exponent}")
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    gain = np.where(theta <= np.pi / 2, 2.0 * (exponent + 1) * np.maximum(c, 0.0) ** exponent, 0.0)
    if gain.ndim == 0:
        return float(gain)
    return gain


def _unit(v: np.ndarray) -> np.ndarray:
    n = math.sqrt(v.dot(v))     # np.linalg.norm(v), without its overhead
    if n == 0.0:
        raise GeometryError("zero-length direction vector (coincident anchors?)")
    return v / n


def _cross(a, b) -> np.ndarray:
    """a x b of two 3-vectors, by the formula `np.cross` evaluates, in Python floats."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal in-plane axes for an array facing along `normal`; the
    helper axis is z, or x for a normal within about 26 degrees of the z axis."""
    n = normal.tolist()
    u1 = _unit(_cross(n, (1.0, 0.0, 0.0) if abs(n[2]) > 0.9 else (0.0, 0.0, 1.0)))
    return u1, _cross(n, u1.tolist())


def _grid_positions(anchor: np.ndarray, n: int, spacing: float,
                    u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Near-square planar grid, row-major, first element at the anchor."""
    cols = math.ceil(math.sqrt(n))
    idx = np.arange(n)
    return anchor + spacing * ((idx % cols)[:, None] * u1 + (idx // cols)[:, None] * u2)


@dataclass
class GeometryConfig:
    n_tx: int
    n_rx: int
    n_elements: int
    n_user_tx: int
    n_user_rx: int
    tx_anchor: np.ndarray
    rx_anchor: np.ndarray
    ios_anchor: np.ndarray
    user_anchors: np.ndarray            # (K, 3)
    wavelength: float = 0.05


@dataclass
class SpatialLayout:
    """All positions (meters) plus the boresight directions the gains refer to.

    The surface is double-faced, so `ios_axis` is an axis, not a direction:
    elevation against it is folded into [0, pi/2].  `build_layout` points it
    from the transmitter to the surface, and turns the transmit and receive
    arrays to face each other, which keeps their direct coupling alive for any
    gain exponent.
    """
    tx_positions: np.ndarray            # (N_t, 3)
    rx_positions: np.ndarray            # (N_r, 3)
    ios_positions: np.ndarray           # (L, 3)
    user_rx_positions: np.ndarray       # (K, N_ur, 3)
    user_tx_positions: np.ndarray       # (K, N_ut, 3)
    wavelength: float
    ios_axis: np.ndarray
    tx_normal: np.ndarray
    rx_normal: np.ndarray


def build_layout(cfg: GeometryConfig) -> SpatialLayout:
    """Place uniform half-wavelength arrays at the configured anchors.

    Antenna/element grids start at their anchor ("typical" element) and grow
    row-major in the plane orthogonal to the boresight.  Each user carries a
    transmit row and a receive row offset by half a wavelength, so its own
    transmit-to-receive distances stay strictly positive.
    """
    if min(cfg.n_tx, cfg.n_rx, cfg.n_elements, cfg.n_user_tx, cfg.n_user_rx) < 1:
        raise GeometryError("antenna/element counts must all be >= 1")
    if cfg.wavelength <= 0:
        raise GeometryError("wavelength must be positive")

    tx_anchor = np.asarray(cfg.tx_anchor, dtype=float)
    rx_anchor = np.asarray(cfg.rx_anchor, dtype=float)
    ios_anchor = np.asarray(cfg.ios_anchor, dtype=float)
    users = np.asarray(cfg.user_anchors, dtype=float).reshape(-1, 3)
    spacing = cfg.wavelength / 2.0

    for a, b, what in ((tx_anchor, rx_anchor, "tx/rx"),
                       (tx_anchor, ios_anchor, "tx/ios"),
                       (rx_anchor, ios_anchor, "rx/ios")):
        if np.linalg.norm(a - b) == 0.0:
            raise GeometryError(f"coincident anchors ({what}) give a zero link distance")

    ios_axis = _unit(ios_anchor - tx_anchor)
    tx_normal = _unit(rx_anchor - tx_anchor)
    rx_normal = _unit(tx_anchor - rx_anchor)

    u1, u2 = _plane_basis(ios_axis)
    ios_positions = _grid_positions(ios_anchor, cfg.n_elements, spacing, u1, u2)
    t1, t2 = _plane_basis(tx_normal)
    tx_positions = _grid_positions(tx_anchor, cfg.n_tx, spacing, t1, t2)
    r1, r2 = _plane_basis(rx_normal)
    rx_positions = _grid_positions(rx_anchor, cfg.n_rx, spacing, r1, r2)

    xhat = np.array([1.0, 0.0, 0.0])
    yhat = np.array([0.0, 1.0, 0.0])
    user_tx = users[:, None] + spacing * np.arange(cfg.n_user_tx)[:, None] * xhat
    user_rx = users[:, None] + spacing * yhat + spacing * np.arange(cfg.n_user_rx)[:, None] * xhat

    return SpatialLayout(tx_positions, rx_positions, ios_positions, user_rx, user_tx,
                         cfg.wavelength, ios_axis, tx_normal, rx_normal)


def _norms(diff: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(diff, axis=-1)` of real vectors, without its overhead."""
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def pairwise_distances(a: np.ndarray, b: np.ndarray, link=None) -> np.ndarray:
    """Distances (..., len(a), len(b)) between the points of a (..., m, 3) and
    b (..., n, 3), leading axes broadcast; raises if any entry is zero, and
    names the first zero entry by `link(*index)` when given."""
    d = _norms(a[..., :, None, :] - b[..., None, :, :])
    if not d.all():
        where = "" if link is None else f": {link(*np.argwhere(d == 0.0)[0].tolist())}"
        raise GeometryError(f"zero distance between points of different arrays{where}")
    return d


def elevations_from_axis(origins: np.ndarray, targets: np.ndarray,
                         axis: np.ndarray) -> np.ndarray:
    """Elevation of each target seen from each origin against a two-sided axis.

    The |cos| fold maps both faces of the surface into [0, pi/2].
    """
    diff = targets[None, :, :] - origins[:, None, :]
    d = _norms(diff)
    cosang = np.abs(diff @ axis) / np.where(d == 0.0, 1.0, d)
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def elevations_from_normal(origins: np.ndarray, targets: np.ndarray,
                           normal: np.ndarray) -> np.ndarray:
    """One-sided elevation in [0, pi]; anything beyond pi/2 sits behind the array."""
    diff = targets[None, :, :] - origins[:, None, :]
    d = _norms(diff)
    cosang = (diff @ normal) / np.where(d == 0.0, 1.0, d)
    return np.arccos(np.clip(cosang, -1.0, 1.0))
