"""Property tests of the surface projection and the surface solve.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from iosfd import (PgdSettings, PhaseQuadratic, build_quadratic_forms, project_feasible,
                   solve_qcqp, vectorize)
from iosfd.phases import gprime_value

from conftest import random_instance, random_ios

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Magnitudes from 1e-150 to 1e3, with the channel scale 1e-4, the unit circle
# and exact zeros drawn often.
magnitudes = st.one_of(st.floats(-150.0, 3.0).map(lambda e: 10.0 ** e),
                       st.sampled_from([0.0, 1e-4, 1.0]))
entries = st.tuples(magnitudes, st.floats(0.0, 2.0 * np.pi)).map(
    lambda mp: mp[0] * np.exp(1j * mp[1]))


@st.composite
def coefficient_arrays(draw):
    """(2, L) or (2, 2, L) complex arrays: pairs run along axis -2."""
    shape = draw(st.sampled_from([(2,), (2, 2)])) + (draw(st.integers(1, 6)),)
    values = draw(st.lists(entries, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values, dtype=complex).reshape(shape)


@fixed
@given(coefficient_arrays())
def test_projection_properties(coef):
    """Feasible output; feasible pairs come back unchanged; every pair is
    scaled by one factor in (0, 1]."""
    out = project_feasible(coef)
    assert out.shape == coef.shape
    norm_in = np.sum(np.abs(coef) ** 2, axis=-2)
    assert np.all(np.sum(np.abs(out) ** 2, axis=-2) <= 1.0 + 1e-12)
    inside = np.broadcast_to((norm_in <= 1.0)[..., None, :], coef.shape)
    # Bit for bit up to the sign of a zero part: complex times real scale
    # computes b*s + a*0 for the imaginary part, which turns -0.0 into +0.0.
    assert (out[inside] + 0.0).tobytes() == (coef[inside] + 0.0).tobytes()
    nonzero = coef != 0
    assert np.all(out[~nonzero] == 0)
    ratio = np.where(nonzero, out / np.where(nonzero, coef, 1.0), np.nan)
    assert np.all(np.abs(ratio.imag[nonzero]) <= 1e-14)
    assert np.all((ratio.real[nonzero] > 0.0) & (ratio.real[nonzero] <= 1.0))
    both = nonzero.all(axis=-2)
    r0, r1 = ratio.real[..., 0, :][both], ratio.real[..., 1, :][both]
    assert np.all(np.abs(r0 - r1) <= 1e-14 * r0)


@fixed
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 6),
       st.sampled_from([1.0, 1e-2, 1e-4]), st.sampled_from([None, 0, 1]))
def test_solve_properties(seed, K, L, scale, zeroed):
    """The solve stays feasible and does not raise g'; a side whose factors
    and linear vectors are zeroed (index `zeroed`, none when None) comes
    back all zero, and every other side takes at least one Newton step."""
    rng = np.random.default_rng(seed)
    ch, _, _, bf, wm, gd, gu, _, _ = random_instance(rng, K=K, L=L, scale=scale)
    pq = vectorize(build_quadratic_forms(ch, bf, wm, gd, gu))
    if zeroed is not None:
        factors = list(pq.factors)
        factors[zeroed] = tuple(np.zeros_like(f) for f in factors[zeroed])
        pq.lin[zeroed] = 0.0
        pq = PhaseQuadratic(tuple(factors), pq.lin)
    init = random_ios(rng, L)
    out, counts = solve_qcqp(pq, init, PgdSettings())
    assert out.is_feasible()
    assert gprime_value(pq, out) <= gprime_value(pq, init) + 1e-12
    if zeroed is not None:
        assert not np.any(out.coef[zeroed])
    assert counts.iters >= 2 - (zeroed is not None)
