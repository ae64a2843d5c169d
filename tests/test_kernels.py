"""The factored slice projector against the dense oracle operator.

``project_slices`` applies each axis' kernel through its two m x m
exponential factors; the dense oracle route builds the whole
``exp(-t Q)`` over the flattened spatial grid.  They must agree to
roundoff at mid-band, at the resolution ceiling and at the top bin.
"""

import math

import numpy as np
import pytest

from hszego import _kernels
from hszego.bergman import gaussian_budget_window
from hszego.core import GridSpec, LambdaSignature

TOL = 1e-13


def _dense_project(grid, lams, t, u):
    """(prod_j t*lam_j/pi) * exp(-t Q) @ (W u) over the flattened spatial grid."""
    n = len(lams)
    zc = grid.complex_mesh(n).reshape(-1, n)
    wspat = grid.spatial_weight_array(n).reshape(-1)
    pref = math.prod(t * lam / math.pi for lam in lams)
    E = _kernels.pair_exp(_kernels.phase_quadratic(zc, lams), t)
    return pref * (E @ (wspat * u))


def _test_frequencies(grid, lams):
    """Mid-band, just under the resolution ceiling, and the top positive bin."""
    t_floor, t_ceiling = gaussian_budget_window(grid, LambdaSignature(tuple(lams)))
    delta = grid.freq_step
    top = grid.freq_max - delta
    return np.array([0.5 * (t_floor + t_ceiling), 0.995 * t_ceiling, top]), delta


@pytest.mark.parametrize(
    "m, lams, radius",
    [
        pytest.param(9, (1.0,), 4.0, id="9-lams0-uniform-trapezoid-4.0"),
        pytest.param(33, (1.0,), 4.0, id="33-lams1-uniform-trapezoid-4.0"),
        pytest.param(5, (0.5, 2.0), 3.5, id="5-lams3-uniform-trapezoid-3.5"),
    ],
)
def test_factored_matches_dense(m, lams, radius):
    grid = GridSpec(radius, m, 16.0, 128)
    n = len(lams)
    ts, delta = _test_frequencies(grid, lams)
    rng = np.random.default_rng(1000 + 10 * m + n)
    shape = (ts.size,) + (m * m,) * n
    slabs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # one call over slices more than 4 bins apart
    assert np.max(np.abs(np.diff(ts))) > 4 * delta
    out = _kernels.project_slices(
        slabs, ts, delta, grid.spatial_nodes(), grid.spatial_axis_weights(), lams
    )
    assert out.shape == slabs.shape
    for k, t in enumerate(ts):
        dense = _dense_project(grid, lams, float(t), slabs[k].reshape(-1))
        err = np.linalg.norm(out[k].reshape(-1) - dense) / np.linalg.norm(dense)
        assert err <= TOL, (k, float(t), err)


def test_three_axes_match_dense():
    """n >= 3 contracts one axis at a time; n = 3 at m = 3 is S = 729 nodes."""
    grid = GridSpec(2.0, 3, 16.0, 128)
    lams = (0.5, 1.0, 2.0)  # unequal, so a permuted axis order shows
    ts = np.array([0.3, 1.1, 2.7])
    rng = np.random.default_rng(3)
    shape = (ts.size,) + (9,) * 3
    slabs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = _kernels.project_slices(
        slabs, ts, grid.freq_step, grid.spatial_nodes(), grid.spatial_axis_weights(), lams
    )
    assert out.shape == slabs.shape
    for k, t in enumerate(ts):
        dense = _dense_project(grid, lams, float(t), slabs[k].reshape(-1))
        err = np.linalg.norm(out[k].reshape(-1) - dense) / np.linalg.norm(dense)
        assert err <= TOL, (k, float(t), err)


def test_factors_underflow_beyond_745():
    """At the top bin t*lam*(2R)^2 > 745: corner factors are exactly 0 and still agree."""
    grid = GridSpec(4.0, 33, 16.0, 128)
    lam = 1.0
    t = grid.freq_max - grid.freq_step
    assert t * lam * (2 * grid.spatial_radius) ** 2 > 745
    M, N = _kernels.axis_projector_exp(grid.spatial_nodes(), grid.spatial_axis_weights(), t, lam)
    assert M.shape == N.shape == (33 * 33, 33)
    assert np.any(M == 0) and np.any(N == 0)
    u = np.random.default_rng(7).standard_normal(33 * 33) + 0j
    out = _kernels.project_slices(
        u[None, :], np.array([t]), grid.freq_step, grid.spatial_nodes(),
        grid.spatial_axis_weights(), (lam,),
    )
    dense = _dense_project(grid, (lam,), t, u)
    assert np.all(np.isfinite(out))
    assert np.linalg.norm(out[0] - dense) / np.linalg.norm(dense) <= TOL


def test_project_slices_rejects_bad_input():
    grid = GridSpec(4.0, 9, 16.0, 128)
    x, w = grid.spatial_nodes(), grid.spatial_axis_weights()
    with pytest.raises(ValueError):
        _kernels.project_slices(np.zeros((1, 80), complex), np.array([1.0]), 1.0, x, w, (1.0,))
    with pytest.raises(ValueError):
        _kernels.project_slices(np.zeros((1, 81), complex), np.array([-1.0]), 1.0, x, w, (1.0,))
    empty = _kernels.project_slices(np.zeros((0, 81), complex), np.zeros(0), 1.0, x, w, (1.0,))
    assert empty.shape == (0, 81)


def test_project_slices_rejects_nonpositive_lambda():
    """lambda_j <= 0 would make the Gaussian factor overflow; it is refused, not returned as inf."""
    grid = GridSpec(4.0, 7, 16.0, 128)
    x, w = grid.spatial_nodes(), grid.spatial_axis_weights()
    ts = np.array([1.0, 12.4])
    slabs = np.ones((2, 49, 49), complex)
    for lams in ((-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="structure constants"):
            _kernels.project_slices(slabs, ts, 1.0, x, w, lams)

