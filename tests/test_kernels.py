"""The slice projector against the dense oracle operator and the assembled axis matrices.

``project_slices`` applies each axis' kernel through its two m x m
exponential factors for n = 1 and through two real parity-sector blocks per
axis for n >= 2; the dense oracle route builds the whole ``exp(-t Q)`` over
the flattened spatial grid.  They must agree to roundoff at mid-band, at the
resolution ceiling and at the top bin.  For n >= 2 the reference is also
each axis' m^2 x m^2 matrix assembled from its factors and contracted
along its own axis.
"""

import math

import numpy as np
import pytest

from hszego import _kernels, transform
from hszego.bergman import gaussian_budget_window
from hszego.core import PANEL_NODES, GridSpec, LambdaSignature, composite_gauss_legendre

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


def _axis_kernel(x, w, t, lam):
    """(|t lam|/pi) e^{-|t lam||z-w|^2 - t lam (zbar w - z wbar)} 2 w_c w_d over one axis'
    nodes z = x_a + i x_b (rows) and w = x_c + i x_d (columns), written out from the formula."""
    z = (x[:, None] + 1j * x[None, :]).reshape(-1)
    tl = t * lam
    zb = z.conj()
    expo = -abs(tl) * np.abs(z[:, None] - z[None, :]) ** 2 - tl * (zb[:, None] * z[None, :] - z[:, None] * zb[None, :])
    return abs(tl) / math.pi * np.exp(expo) * (2.0 * np.multiply.outer(w, w).reshape(-1))[None, :]


@pytest.mark.parametrize(
    "t, lam",
    [(-0.8, 1.0), (1.3, -1.0), ("top", 1.0), ("top", -1.0)],
    ids=["t-0.8-lam1", "t1.3-lam-1", "top-lam1", "top-lam-1"],
)
def test_n1_slice_matches_the_axis_kernel_formula(t, lam):
    """n = 1 at tλ < 0 (the antiholomorphic side) and at the top bin, where the
    Gaussian factor's corners underflow to exactly 0."""
    grid = GridSpec(4.0, 33, 16.0, 128)
    x, w = grid.spatial_nodes(), grid.spatial_axis_weights()
    if t == "top":
        t = grid.freq_max - grid.freq_step
        assert t * (2 * grid.spatial_radius) ** 2 > 745
    rng = np.random.default_rng(41)
    u = rng.standard_normal(33 * 33) + 1j * rng.standard_normal(33 * 33)
    got = _kernels.project_slices(u[None, :], np.array([t]), grid.freq_step, x, w, (lam,))[0]
    want = _axis_kernel(x, w, t, lam) @ u
    assert np.linalg.norm(got - want) <= TOL * np.linalg.norm(want)


def test_three_axes_match_dense():
    """n = 3 at m = 3 is S = 729 nodes."""
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


def _ref_axis_matrix(nodes, w, t, lam):
    """One axis' weighted matrix (|t lam|/pi) E, assembled from its two m x m factors."""
    G, F = _kernels.axis_projector_exp(nodes, t, lam)
    m = nodes.size
    sw = np.sqrt(2.0) * w
    M = (F[:, None, :] * (G * sw)[None, :, :]).reshape(m * m, m)
    N = (G[:, None, :] * (F.conj() * sw)[None, :, :]).reshape(m * m, m)
    return abs(t * lam) / math.pi * (N[:, :, None] * M[:, None, :]).reshape(m * m, m * m)


def _ref_apply(s, nodes, w, t, lams):
    """Each axis' assembled matrix contracted along its own axis of ``s``."""
    for ax, lam in enumerate(lams):
        A = _ref_axis_matrix(nodes, w, t, lam)
        s = np.moveaxis(np.tensordot(A, s, axes=([1], [ax])), 0, ax)
    return s


@pytest.mark.parametrize(
    "m, lams",
    [(17, (-1.0, 1.0)), (16, (0.5, 2.0)), (5, (-1.0, 1.0)), (4, (0.5, -2.0)),
     (5, (1.0, -1.0, 0.7)), (4, (-0.5, 2.0, 2.0))],
)
@pytest.mark.parametrize("t", [1.3, -0.8])
def test_sector_apply_matches_the_assembled_axis_matrices(m, lams, t):
    """Odd and even m; t and lambda of both signs; equal |lambda| of either sign."""
    grid = GridSpec(3.5, m, 16.0, 128)
    x, w = grid.spatial_nodes(), grid.spatial_axis_weights()
    shape = (m * m,) * len(lams)
    rng = np.random.default_rng(m + len(lams))
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = s.copy()
    _kernels.project_slice(_kernels.slice_operator(t, x, w, lams), got, None, np.empty((3, 2) + shape))
    want = _ref_apply(s, x, w, t, lams)
    assert np.linalg.norm(got - want) <= TOL * np.linalg.norm(want)


def _sector_transform(m):
    """One axis' sector transform as a matrix: column k holds the sector
    coordinates of the k-th unit slice."""
    S = m * m
    y, work = np.empty((2, S)), (np.empty((2, S)), np.empty((2, S)))
    T = np.empty((S, S), dtype=complex)
    for k, e in enumerate(np.eye(S, dtype=complex)):
        _kernels.to_sectors(e, y, work)
        T[:, k] = y[0] + 1j * y[1]
    return T


@pytest.mark.parametrize("m", [17, 16, 5, 4])
@pytest.mark.parametrize("t", [1.3, -0.8])
def test_axis_matrix_is_two_real_blocks_in_the_sector_basis(m, t):
    grid = GridSpec(3.5, m, 16.0, 128)
    x, w = grid.spatial_nodes(), grid.spatial_axis_weights()
    T = _sector_transform(m)
    Tinv = np.linalg.inv(T)
    # lambda = (-1, 1): the second axis takes the first one's blocks flipped
    axes = _kernels.slice_operator(t, x, w, (-1.0, 1.0))
    for lam, blocks in zip((-1.0, 1.0), axes):
        K = T @ _ref_axis_matrix(x, w, t, lam) @ Tinv
        top = np.abs(K).max()
        s0 = blocks[0].shape[0]
        assert blocks[1].shape[0] == m * m - s0
        assert np.abs(K[:s0, s0:]).max() <= 1e-15 * top
        assert np.abs(K[s0:, :s0]).max() <= 1e-15 * top
        diag = (K[:s0, :s0], K[s0:, s0:])
        assert max(np.abs(d.imag).max() for d in diag) <= 1e-15 * top
        for blk, d in zip(blocks, diag):
            assert np.abs(blk - d.real).max() <= 1e-14 * top


@pytest.mark.parametrize("n, m", [(1, 17), (2, 16), (2, 5), (3, 4)])
def test_sector_coordinates_invert_and_keep_the_weighted_norm(n, m):
    grid = GridSpec(3.5, m, 16.0, 128)
    shape = (m * m,) * n
    rng = np.random.default_rng(n * m)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y, a, b = np.empty((3, 2) + shape)
    _kernels.to_sectors(s, y, (a, b))
    omega = _kernels.sector_weights(grid.spatial_axis_weights(), n)
    want = float(np.sum(grid.spatial_weight_array(n).reshape(shape) * np.abs(s) ** 2))
    assert abs(_kernels.sector_sq(y, omega) - want) <= 1e-14 * want
    back = np.empty_like(s)
    _kernels.from_sectors(y, back, (a, b))
    assert np.abs(back - s).max() <= 1e-15 * np.abs(s).max()


@pytest.mark.parametrize("n, m", [(1, 9), (2, 5), (3, 4)])
def test_project_slice_sums_are_the_weighted_slice_norms(n, m):
    """With the slice weights the step returns ||Ps||^2, ||Ps - s||^2 and
    ||P(Ps) - Ps||^2 of the slice's spatial quadrature, and projects as without."""
    grid = GridSpec(3.5, m, 16.0, 128)
    x, w = grid.spatial_nodes(), grid.spatial_axis_weights()
    lams = (1.0, -0.5, 2.0)[:n]
    shape = (m * m,) * n
    rng = np.random.default_rng(20 + n)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    op = _kernels.slice_operator(0.9, x, w, lams)
    work = _kernels.slice_work(m, n)
    ps, pps = s.copy(), s.copy()
    assert _kernels.project_slice(op, ps, None, work) is None
    sums = _kernels.project_slice(op, pps, _kernels.slice_weights(w, n), work)
    assert np.array_equal(pps, ps)
    _kernels.project_slice(op, pps, None, work)
    wa = grid.spatial_weight_array(n).reshape(shape)
    want = [float(np.sum(wa * np.abs(d) ** 2)) for d in (ps, ps - s, pps - ps)]
    for got, ref in zip(sums, want):
        assert abs(got - ref) <= 1e-12 * want[0], (got, ref)


def test_factors_underflow_beyond_745():
    """At the top bin t*lam*(2R)^2 > 745: the Gaussian factor's corners are exactly 0 and still agree."""
    grid = GridSpec(4.0, 33, 16.0, 128)
    lam = 1.0
    t = grid.freq_max - grid.freq_step
    assert t * lam * (2 * grid.spatial_radius) ** 2 > 745
    G, F = _kernels.axis_projector_exp(grid.spatial_nodes(), t, lam)
    assert G.shape == F.shape == (33, 33)
    assert G[0, -1] == G[-1, 0] == 0
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
    with pytest.raises(ValueError, match="frequencies"):
        _kernels.project_slices(np.zeros((1, 81), complex), np.array([0.0]), 1.0, x, w, (1.0,))
    empty = _kernels.project_slices(np.zeros((0, 81), complex), np.zeros(0), 1.0, x, w, (1.0,))
    assert empty.shape == (0, 81)


def test_project_slices_rejects_zero_lambda():
    """lambda_j = 0 has no Gaussian weight to project on; it is refused, not returned as nan."""
    grid = GridSpec(4.0, 7, 16.0, 128)
    x, w = grid.spatial_nodes(), grid.spatial_axis_weights()
    ts = np.array([1.0, 12.4])
    slabs = np.ones((2, 49, 49), complex)
    with pytest.raises(ValueError, match="structure constants"):
        _kernels.project_slices(slabs, ts, 1.0, x, w, (1.0, 0.0))


def _flipped_hat_projection(slab, t, x, w, lams):
    """Flip the imaginary coordinate of each axis with t*lam_j < 0, project at
    |t| and |lam|, and flip back: the hat structure's slice projector."""
    m, n = x.size, len(lams)
    axes = tuple(2 * j + 1 for j, lam in enumerate(lams) if t * lam < 0)
    s = np.flip(slab.reshape((m,) * (2 * n)), axes).reshape((1,) + (m * m,) * n)
    hat = _kernels.project_slices(s, np.array([abs(t)]), 1.0, x, w, tuple(map(abs, lams)))
    return np.flip(hat.reshape((m,) * (2 * n)), axes).reshape(slab.shape)


@pytest.mark.parametrize("lams", [(-1.0,), (-0.5, 2.0), (0.5, -2.0), (-0.5, -2.0)])
def test_signed_slices_are_flipped_hat_slices(lams):
    """t*lam_j < 0 conjugates z_j: the slice kernel is antiholomorphic on that axis."""
    m = 9 if len(lams) == 1 else 5
    grid = GridSpec(3.5, m, 16.0, 128)
    x, w = grid.spatial_nodes(), grid.spatial_axis_weights()
    ts = np.array([-1.3, 0.6, 2.1, -0.4])
    rng = np.random.default_rng(5)
    shape = (ts.size,) + (m * m,) * len(lams)
    slabs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = _kernels.project_slices(slabs, ts, 1.0, x, w, lams)
    for k, t in enumerate(ts):
        want = _flipped_hat_projection(slabs[k], float(t), x, w, lams)
        assert np.linalg.norm(out[k] - want) <= TOL * np.linalg.norm(want), (k, float(t))


def _unsplit_direct_kernel_apply(Q, uw, dwrap, tn, cq):
    # the direct route on the whole S x S exp(-tQ), stepped from panel to
    # panel: the values the half-block route must reproduce to roundoff
    panels = tn.size // PANEL_NODES
    out = np.zeros((cq.shape[0],) + uw.shape, dtype=uw.dtype)
    D = _kernels.pair_exp(Q, float(tn[PANEL_NODES] - tn[0]))
    for j in range(PANEL_NODES):
        E = _kernels.pair_exp(Q, float(tn[j]))
        for k in range(panels):
            if k:
                E *= D
            i = k * PANEL_NODES + j
            Z = (E @ uw) @ np.exp(1j * tn[i] * dwrap).T
            for e in range(cq.shape[0]):
                out[e] += cq[e, i] * Z
    return out


@pytest.mark.parametrize(
    "m, lams",
    [(17, (1.0,)), (16, (1.0,)), (3, (1.0, 0.6)), (4, (0.8, 1.3))],
    ids=["m17-n1", "m16-n1", "m3-n2", "m4-n2"],
)
def test_half_block_direct_kernel_matches_the_unsplit_route(m, lams):
    # an odd m has a centre node, its own mirror; an even m has none
    n = len(lams)
    grid = GridSpec(3.4, m, 20.0, 33)
    zc = grid.complex_mesh(n).reshape(-1, n)
    Q = _kernels.phase_quadratic(zc, lams)
    xk = grid.vertical_nodes()
    d = xk[None, :] - xk[:, None]
    dwrap = (d + grid.vertical_radius) % (2.0 * grid.vertical_radius) - grid.vertical_radius
    tn, tw = composite_gauss_legendre(0.0, 2.0 / 0.40, 4 * PANEL_NODES)
    cq = np.stack([tw * tn * transform._plateau_cutoff(tn, eps) for eps in (0.43, 0.40)])
    rng = np.random.default_rng(m)
    uw = rng.standard_normal((zc.shape[0], xk.size)) + 1j * rng.standard_normal((zc.shape[0], xk.size))
    out = _kernels.direct_kernel_apply(Q, uw, dwrap, tn, cq)
    ref = _unsplit_direct_kernel_apply(Q, uw, dwrap, tn, cq)
    for e in range(cq.shape[0]):
        assert np.linalg.norm(out[e] - ref[e]) <= 1e-13 * np.linalg.norm(ref[e]), e


def _per_node_exp_direct_kernel_apply(Q, uw, dwrap, tn, cq):
    # the half-block route as it was before the vertical factor came from the
    # distinct differences: 4225 exponentials per node on C09's grid and
    # fresh half-block arrays; the reference its bytes must equal
    panels = tn.size // PANEL_NODES
    S = Q.shape[0]
    h = S // 2
    r = S - h
    mirror = uw[::-1]
    even = uw[:r] + mirror[:r]
    if r > h:
        even[h] = uw[h]
    odd = uw[:h] - mirror[:h]
    out = np.zeros((cq.shape[0],) + uw.shape, dtype=uw.dtype)
    Y = np.empty(uw.shape, dtype=np.result_type(Q.dtype, uw.dtype))
    D = _kernels.pair_exp(Q[:r], float(tn[PANEL_NODES] - tn[0]))
    for j in range(PANEL_NODES):
        E = _kernels.pair_exp(Q[:r], float(tn[j]))
        for k in range(panels):
            if k:
                E *= D
            i = k * PANEL_NODES + j
            flip = E[:, ::-1]
            np.matmul(E[:, :r] + flip[:, :r], even, out=Y[:r])
            np.matmul(E[:h, :h] - flip[:h, :h], odd, out=Y[r:])
            V = np.exp(1j * tn[i] * dwrap)
            Z = Y @ V.T
            for e in range(cq.shape[0]):
                out[e] += cq[e, i] * Z
    sums, diffs = out[:, :h].copy(), out[:, r:]
    out[:, :h] = 0.5 * (sums + diffs)
    out[:, r:] = 0.5 * (sums - diffs)[:, ::-1]
    if r > h:
        out[:, h] *= 0.5
    return out


@pytest.mark.parametrize("m, vertical", [(17, 65), (16, 65), (17, 33), (16, 32)],
                         ids=["m17-N65", "m16-N65", "m17-N33", "m16-N32"])
def test_direct_kernel_matches_per_node_exponentials_to_the_bit(m, vertical):
    # an odd m has a centre node, its own mirror; an even m has none
    grid = GridSpec(3.4, m, 20.0, vertical)
    zc = grid.complex_mesh(1).reshape(-1, 1)
    Q = _kernels.phase_quadratic(zc, (1.0,))
    xk = grid.vertical_nodes()
    d = xk[None, :] - xk[:, None]
    dwrap = (d + grid.vertical_radius) % (2.0 * grid.vertical_radius) - grid.vertical_radius
    tn, tw = composite_gauss_legendre(0.0, 2.0 / 0.40, 4 * PANEL_NODES)
    cq = np.stack([tw * tn * transform._plateau_cutoff(tn, eps) for eps in (0.43, 0.40)])
    rng = np.random.default_rng(m + vertical)
    uw = rng.standard_normal((zc.shape[0], xk.size)) + 1j * rng.standard_normal((zc.shape[0], xk.size))
    out = _kernels.direct_kernel_apply(Q, uw, dwrap, tn, cq)
    ref = _per_node_exp_direct_kernel_apply(Q, uw, dwrap, tn, cq)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_stepped_direct_kernel_matches_per_node_exponentials():
    """exp(-tQ) stepped from panel to panel agrees with one exponential per node."""
    grid = GridSpec(3.4, 17, 20.0, 65)  # the C09 micro grid
    zc = grid.complex_mesh(1).reshape(-1, 1)
    Q = _kernels.phase_quadratic(zc, (1.0,))
    xk = grid.vertical_nodes()
    d = xk[None, :] - xk[:, None]
    dwrap = (d + grid.vertical_radius) % (2.0 * grid.vertical_radius) - grid.vertical_radius
    tn, tw = composite_gauss_legendre(0.0, 2.0 / 0.40, 512)
    cq = np.stack([tw * tn * transform._plateau_cutoff(tn, eps) for eps in (0.43, 0.40)])
    rng = np.random.default_rng(9)
    uw = rng.standard_normal((zc.shape[0], xk.size)) + 1j * rng.standard_normal((zc.shape[0], xk.size))
    out = _kernels.direct_kernel_apply(Q, uw, dwrap, tn, cq)
    ref = np.zeros_like(out)
    for i, t in enumerate(tn):
        Z = (np.exp(-t * Q) @ uw) @ np.exp(1j * t * dwrap).T
        ref += cq[:, i, None, None] * Z
    for e in range(cq.shape[0]):
        assert np.linalg.norm(out[e] - ref[e]) <= 1e-13 * np.linalg.norm(ref[e]), e
