import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hszego import (
    BudgetError,
    GridSpec,
    LambdaSignature,
    ScalarField,
    UsageError,
    WavePacketSpec,
    frequency_pairing,
    inner,
    make_wave_packet,
    norm,
    partial_ft,
    partial_ift,
    scalar_pipeline_project,
    szego_apply_direct,
)
from hszego import _kernels, transform
from hszego.config import RunConfig
from hszego.core import PANEL_NODES, composite_gauss_legendre, rel_norm, weighted_sq_sum
from hszego.transform import OCCUPANCY_EPS, FrequencyField, packet_boundary_share
from hszego.verification import c09_routes

SIG1 = LambdaSignature((1.0,))


@pytest.fixture(scope="module")
def grid():
    # budget window for lambda = 1: [0.72, 2.68]
    return GridSpec(4.0, 21, 16.0, 128)


def _tone(grid, profile, t0):
    xk = grid.vertical_nodes()
    vals = profile[..., None] * np.exp(-1j * t0 * xk)
    return ScalarField(grid=grid, values=vals)


def _profile(grid):
    x = grid.spatial_nodes()
    Z = x[:, None] + 1j * x[None, :]
    return np.exp(-np.abs(Z) ** 2)


def test_pure_tone_concentrates_at_bin(grid):
    ts = grid.freq_nodes()
    t0 = ts[np.argmin(np.abs(ts - 1.2))]
    f = _profile(grid)
    freq = partial_ft(_tone(grid, f, t0))
    energy = freq.spectral_energy()
    k = int(np.argmax(energy))
    assert freq.t_nodes[k] == pytest.approx(t0)
    # at the matching bin the transform returns profile * vertical measure
    assert np.allclose(freq.values[..., k], f * (2 * grid.vertical_radius), rtol=1e-12)
    others = energy.sum() - energy[k]
    assert others < 1e-20 * energy[k]


def test_constant_in_vertical_has_zero_frequency(grid):
    f = _profile(grid)
    freq = partial_ft(ScalarField(grid=grid, values=np.repeat(f[..., None], 128, axis=-1)))
    k = int(np.argmax(freq.spectral_energy()))
    assert freq.t_nodes[k] == 0.0


def test_round_trip_identity(grid):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=grid.field_shape(1)) + 1j * rng.normal(size=grid.field_shape(1))
    u = ScalarField(grid=grid, values=vals)
    back = partial_ift(partial_ft(u))
    assert np.max(np.abs(back.values - u.values)) < 1e-12 * np.max(np.abs(u.values))


def test_delta_bin_inverts_to_tone(grid):
    ts = grid.freq_nodes()
    k = int(np.argmin(np.abs(ts - 1.5)))
    vals = np.zeros(grid.spatial_shape(1) + (ts.size,), dtype=complex)
    vals[..., k] = 1.0
    u = partial_ift(FrequencyField(grid=grid, values=vals))
    expect = grid.freq_step / (2 * np.pi) * np.exp(-1j * ts[k] * grid.vertical_nodes())
    assert np.allclose(u.values[0, 0, :], expect, atol=1e-15)


def test_transform_linearity(grid):
    rng = np.random.default_rng(1)
    shape = grid.field_shape(1)
    u = ScalarField(grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    a = 0.7 - 1.3j
    fa = partial_ft(ScalarField(grid=grid, values=a * u.values))
    fb = partial_ft(u)
    assert np.allclose(fa.values, a * fb.values, rtol=1e-13)


def test_parseval(grid):
    rng = np.random.default_rng(2)
    shape = grid.field_shape(1)
    u = ScalarField(grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    freq = partial_ft(u)
    lhs = float(
        np.sum(np.abs(freq.values) ** 2 * grid.spatial_weight_array(1)[..., None])
        * grid.freq_step
    )
    assert lhs == pytest.approx(2 * np.pi * norm(u) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# packets and pipeline
# ---------------------------------------------------------------------------


def test_packet_requires_consistent_conjugation(grid):
    with pytest.raises(UsageError):
        make_wave_packet(
            WavePacketSpec(alpha=(0,), t_low=1.0, t_high=2.0, conjugated_axes=(1,)),
            SIG1,
            grid,
        )
    with pytest.raises(UsageError):
        make_wave_packet(
            WavePacketSpec(alpha=(0,), t_low=1.0, t_high=2.0, vertical_sign=-1),
            SIG1,
            grid,
        )
    with pytest.raises(UsageError):
        make_wave_packet(
            WavePacketSpec(alpha=(0,), t_low=1.0, t_high=2.0),
            LambdaSignature((0.0,)),
            grid,
        )


def test_packet_envelope_must_fit(grid):
    with pytest.raises(UsageError):
        make_wave_packet(
            WavePacketSpec(alpha=(0,), t_low=1.0, t_high=2 * grid.freq_max), SIG1, grid
        )


def test_packet_reproduced_by_pipeline(grid):
    spec = WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.0, order=4)
    u = make_wave_packet(spec, SIG1, grid, bin_quadrature=True)
    v = scalar_pipeline_project(u, SIG1)
    err = norm(ScalarField(grid=grid, values=v.values - u.values)) / norm(u)
    assert err < 2e-4


def test_wrong_sign_packet_annihilated(grid):
    spec = WavePacketSpec(
        alpha=(0,), t_low=0.9, t_high=2.6, conjugated_axes=(1,), vertical_sign=-1
    )
    u = make_wave_packet(spec, SIG1, grid)
    v = scalar_pipeline_project(u, SIG1)
    assert norm(v) / norm(u) < 1e-3


def test_pipeline_idempotent(grid):
    spec = WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6)
    u = make_wave_packet(spec, SIG1, grid)
    v = scalar_pipeline_project(u, SIG1)
    w = scalar_pipeline_project(v, SIG1)
    assert norm(ScalarField(grid=grid, values=w.values - v.values)) / norm(v) < 2e-3


def test_pipeline_rejects_mixed_signature(grid):
    u = make_wave_packet(WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6), SIG1, grid)
    with pytest.raises(UsageError):
        scalar_pipeline_project(u, LambdaSignature((-1.0,)))


def test_pipeline_budget_gates(grid):
    ts = grid.freq_nodes()
    low = ts[(ts > 0) & (ts < 0.6)][0]
    u = _tone(grid, _profile(grid), low)
    with pytest.raises(BudgetError) as info:
        scalar_pipeline_project(u, SIG1)
    assert info.value.budget_name == "gaussian-truncation"
    hi = ts[ts > 2.9][0]
    u = _tone(grid, _profile(grid), hi)
    with pytest.raises(BudgetError) as info:
        scalar_pipeline_project(u, SIG1)
    assert info.value.budget_name == "kernel-resolution"


# -- pipeline against an inline reference ------------------------------------
#
# The reference keeps the whole frequency array: public partial_ft and
# occupied_mask, the signed slice projector on the kept bins of one side
# (gathered one bin at a time), a full zero frequency array with the projected bins put
# back, and public partial_ift.


def _ref_pipeline(u, sig, side):
    grid, n, m = u.grid, u.n, u.grid.spatial_points
    freq = partial_ft(u)
    ts = freq.t_nodes
    occ = freq.occupied_mask()
    # a side's bins are those whose mirror is a bin too: not the Nyquist bin
    keep = [i for i in range(ts.size) if side * ts[i] > 0 and abs(ts[i]) <= ts[-1] and occ[i]]
    slabs = np.stack([freq.values[..., i] for i in keep]).reshape((len(keep),) + (m * m,) * n)
    proj = _kernels.project_slices(
        slabs,
        ts[keep],
        grid.freq_step,
        grid.spatial_nodes(),
        grid.spatial_axis_weights(),
        sig.lambdas,
    )
    vals = np.zeros_like(freq.values)
    for k, i in enumerate(keep):
        vals[..., i] = proj[k].reshape(grid.spatial_shape(n))
    return partial_ift(FrequencyField(grid=grid, values=vals)).values


def _noise(g, n):
    rng = np.random.default_rng(7)
    shape = g.field_shape(n)
    return ScalarField(grid=g, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))


# budget window for lambda = (1, 1): [0.94, 1.26]
GRID2 = GridSpec(3.5, 13, 8.0, 32)
SIG2 = LambdaSignature((1.0, 1.0))


_REFERENCE_CASES = {
    f"{n}{'-odd' if odd else ''}{'-minus' if side < 0 else ''}": (n, odd, side)
    for side in (1, -1)
    for odd in (False, True)
    for n in (1, 2)
}


@pytest.mark.parametrize(
    "n, odd, side", list(_REFERENCE_CASES.values()), ids=list(_REFERENCE_CASES)
)
def test_pipeline_matches_full_array_reference(grid, n, odd, side, monkeypatch):
    # the noise input fills every bin, far outside the budget window; an odd
    # grid has no Nyquist bin, an even one's belongs to neither side
    monkeypatch.setattr(transform, "_check_budget", lambda *args: None)
    g, sig = (grid, SIG1) if n == 1 else (GRID2, SIG2)
    g = GridSpec(g.spatial_radius, g.spatial_points, g.vertical_radius, g.vertical_points - odd)
    band = (0.9, 2.6) if n == 1 else (0.9, 1.6)
    # a side's packet: e^{-i side t x}, conjugated on the axes that side serves
    spec = WavePacketSpec((1,) * n, *band, transform._side_axes(sig, side), vertical_sign=side)
    for u in (make_wave_packet(spec, sig, g), _noise(g, n)):
        got = transform._pipeline(g, u.values.copy(), sig, side, report=False, want_pu=True)[0].values
        want = _ref_pipeline(u, sig, side)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("t_sign", [0, -1])
def test_pipeline_without_positive_bins_returns_exact_zeros(grid, t_sign):
    ts = grid.freq_nodes()
    t0 = t_sign * ts[ts > 1.0][0]
    out = scalar_pipeline_project(_tone(grid, _profile(grid), t0), SIG1)
    assert out.values.shape == grid.field_shape(1)
    assert not np.any(out.values)


def test_pipeline_budget_gates_n2():
    ts = GRID2.freq_nodes()
    x = GRID2.spatial_nodes()
    prof = np.exp(-np.add.outer(np.add.outer(x**2, x**2), np.add.outer(x**2, x**2)))
    for t0, name in ((ts[ts > 0][1], "gaussian-truncation"), (ts[ts > 1.3][0], "kernel-resolution")):
        u = ScalarField(
            grid=GRID2, values=prof[..., None] * np.exp(-1j * t0 * GRID2.vertical_nodes())
        )
        with pytest.raises(BudgetError) as info:
            scalar_pipeline_project(u, SIG2)
        assert info.value.budget_name == name


def test_packet_boundary_share_small(grid):
    u = make_wave_packet(WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6), SIG1, grid)
    assert packet_boundary_share(u) < 1e-3
    ub = make_wave_packet(
        WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6), SIG1, grid, bin_quadrature=True
    )
    # bin collocation is exactly periodic but the boundary plane still holds
    # packet values; the windowed synthesis must not be wildly different
    assert packet_boundary_share(ub) < 1.0


def test_concurrent_slice_projection_matches_sequential(grid):
    from concurrent.futures import ThreadPoolExecutor

    from hszego import bergman_project

    rng = np.random.default_rng(3)
    slices = []
    for t in (1.0, 1.3, 1.6, 1.9):
        vals = _profile(grid) * (rng.normal() + 1j * rng.normal())
        slices.append((vals, t))
    seq = [bergman_project(v, t, grid, SIG1) for v, t in slices]
    with ThreadPoolExecutor(max_workers=4) as pool:
        par = list(pool.map(lambda s: bergman_project(s[0], s[1], grid, SIG1), slices))
    for a, b in zip(seq, par):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# pairing and direct route
# ---------------------------------------------------------------------------


def test_pairing_self_is_norm_squared(grid):
    u = make_wave_packet(WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.6), SIG1, grid)
    val = frequency_pairing(u, u, SIG1)
    assert val.real == pytest.approx(norm(u) ** 2, rel=1e-3)
    assert abs(val.imag) < 1e-8 * val.real


def test_pairing_matches_inner_product_route(grid):
    u = make_wave_packet(WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.6), SIG1, grid)
    g = make_wave_packet(WavePacketSpec(alpha=(1,), t_low=1.2, t_high=2.65), SIG1, grid)
    pr = frequency_pairing(u, g, SIG1)
    ip = inner(scalar_pipeline_project(u, SIG1), g)
    assert pr == pytest.approx(ip, rel=1e-10)


def test_pairing_negative_packet_vanishes(grid):
    u = make_wave_packet(
        WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6, conjugated_axes=(1,), vertical_sign=-1),
        SIG1,
        grid,
    )
    g = make_wave_packet(WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6), SIG1, grid)
    assert abs(frequency_pairing(u, g, SIG1)) < 1e-5 * norm(u) * norm(g)


def test_residual_orthogonal_to_range(grid):
    # u - Pu is orthogonal to the range of P
    from hszego.verification import random_band_field

    rng = np.random.default_rng(9)
    u = random_band_field(grid, 1, rng, band=(0.9, 2.5), modes=5)
    v = random_band_field(grid, 1, rng, band=(0.9, 2.5), modes=5)
    pu = scalar_pipeline_project(u, SIG1)
    pv = scalar_pipeline_project(v, SIG1)
    resid = ScalarField(grid=grid, values=u.values - pu.values)
    # bounded by the idempotency gap: <u - Pu, Pv> = <u, (P - P^2) v>
    assert abs(inner(resid, pv)) < 1e-4 * norm(u) * norm(v)


def test_pairing_grid_mismatch(grid):
    other = GridSpec(4.0, 21, 8.0, 32)
    u = make_wave_packet(WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6), SIG1, grid)
    g = make_wave_packet(WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6), SIG1, other)
    with pytest.raises(UsageError):
        frequency_pairing(u, g, SIG1)


def test_direct_route_agrees_on_small_grid():
    grid = GridSpec(3.4, 17, 20.0, 65)
    spec = WavePacketSpec(alpha=(0,), t_low=1.1, t_high=2.3, order=4)
    u = make_wave_packet(spec, SIG1, grid)
    vp = scalar_pipeline_project(u, SIG1)
    (vd,) = szego_apply_direct(u, SIG1, (0.43,))
    rel = norm(ScalarField(grid=grid, values=vd.values - vp.values)) / norm(vp)
    assert rel < 5e-3


def test_direct_route_nyquist_guard():
    grid = GridSpec(3.4, 9, 10.0, 33)
    u = make_wave_packet(
        WavePacketSpec(alpha=(0,), t_low=1.1, t_high=2.2), SIG1, grid, bin_quadrature=True
    )
    with pytest.raises(UsageError):
        szego_apply_direct(u, SIG1, (0.05,))
    # the shared rule runs to 2/min(eps), so the smallest eps decides
    with pytest.raises(UsageError, match="Nyquist"):
        szego_apply_direct(u, SIG1, (0.5, 0.05))
    assert len(szego_apply_direct(u, SIG1, (0.5,))) == 1


@pytest.mark.parametrize("epsilons", [(), (0.0,), (0.43, -0.4), (float("nan"),), (math.inf,)])
def test_direct_route_rejects_bad_epsilons(epsilons):
    grid = GridSpec(3.4, 9, 10.0, 33)
    u = make_wave_packet(
        WavePacketSpec(alpha=(0,), t_low=1.1, t_high=2.2), SIG1, grid, bin_quadrature=True
    )
    with pytest.raises(UsageError, match="epsilon"):
        szego_apply_direct(u, SIG1, epsilons)


def test_direct_route_one_rule_serves_every_eps():
    # one 512-node rule on [0, 2/0.40] for both outputs: the eps = 0.40 field
    # is the one-eps call's, the eps = 0.43 field moves by the rule's error
    grid = GridSpec(3.4, 17, 20.0, 65)
    spec = WavePacketSpec(alpha=(1,), t_low=1.1, t_high=2.3, order=4)
    u = make_wave_packet(spec, SIG1, grid)
    d_a, d_b = szego_apply_direct(u, SIG1, (0.43, 0.40))
    (a,) = szego_apply_direct(u, SIG1, (0.43,))
    (b,) = szego_apply_direct(u, SIG1, (0.40,))
    assert np.array_equal(d_b.values, b.values)
    assert rel_norm(d_a.values, a.values, grid.field_weight_array(1)) <= 1e-7


def test_c09_steps_its_exponentials(monkeypatch):
    # the direct route computes exp(-tQ) at the 16 nodes of one panel and
    # once for the panel width, then steps; the pairing route computes one
    # per kept bin.  One exponential per node of the 512-node rule fails here.
    calls = {"pair_exp": 0, "pairing_bins": 0}
    pair_exp, pairing_sum = _kernels.pair_exp, _kernels.pairing_sum

    def counted_exp(Q, t):
        calls["pair_exp"] += 1
        return pair_exp(Q, t)

    def counted_sum(Q, su, sg, ts, coeffs, wspat):
        calls["pairing_bins"] += ts.size
        return pairing_sum(Q, su, sg, ts, coeffs, wspat)

    monkeypatch.setattr(_kernels, "pair_exp", counted_exp)
    monkeypatch.setattr(_kernels, "pairing_sum", counted_sum)
    c09_routes(RunConfig())
    assert calls["pairing_bins"] > 0
    assert calls["pair_exp"] == PANEL_NODES + 1 + calls["pairing_bins"]


def test_gap_counts_a_bin_the_projection_empties():
    # bin t1 holds 6e-14 of the input's energy, mostly anti-holomorphic, so the
    # projection keeps only ~3e-21 of the output's there: below the occupancy
    # share, so the gap does not project it again and counts all of it
    grid = GridSpec(4.0, 33, 16.0, 128)
    ts = grid.freq_nodes()
    t0, t1 = (ts[np.argmin(np.abs(ts - t))] for t in (0.9, 3.0))
    z = grid.complex_mesh(1)[..., 0]
    u = _tone(grid, np.exp(-t0 * np.abs(z) ** 2), t0)
    mixed = (1e-6 * np.conj(z) + 1e-10) * np.exp(-t1 * np.abs(z) ** 2)
    u = ScalarField(grid=grid, values=u.values + _tone(grid, mixed, t1).values)
    pu, _, norm_sq, _, _, gap_sq, _ = transform._pipeline(
        grid, u.values.copy(), SIG1, 1, report=True, want_pu=True
    )
    share = partial_ft(pu).spectral_energy()
    share /= share.sum()
    assert 0.1 * OCCUPANCY_EPS < share[ts == t1][0] < 0.5 * OCCUPANCY_EPS
    ppu = scalar_pipeline_project(pu, SIG1)
    ref = rel_norm(ppu.values, pu.values, grid.field_weight_array(1))
    # the gap is ~2e-10, so the two-pass reference carries ~1e-8 of roundoff
    assert abs(np.sqrt(gap_sq / norm_sq) - ref) <= 1e-6 * ref


# -- block synthesis and the pipeline's ||Pu - u|| ------------------------------


def _one_gemm_packet(spec, sig, grid):
    """The packet from the whole T x S profile and one GEMM."""
    n = sig.n
    tq, wq = composite_gauss_legendre(spec.t_low, spec.t_high, 64)
    g = transform.envelope_values(spec, tq)
    zeta = grid.complex_mesh(n).reshape(-1, n)
    for j in spec.conjugated_axes:
        zeta[:, j - 1] = np.conj(zeta[:, j - 1])
    gabs = np.abs(zeta) ** 2 @ np.abs(np.asarray(sig.lambdas))
    mono = np.ones(zeta.shape[0], dtype=complex)
    for j, a in enumerate(spec.alpha):
        if a:
            mono *= zeta[:, j] ** a
    prof = np.exp(-np.outer(tq, gabs)).astype(complex)
    prof *= mono[None, :]
    prof *= (wq * g)[:, None]
    tones = np.exp(-1j * spec.vertical_sign * np.outer(tq, grid.vertical_nodes()))
    return (prof.T @ tones).reshape(grid.field_shape(n))


@pytest.mark.parametrize("sign", [1, -1])
def test_packet_blocks_match_one_gemm(sign):
    # S = 91^2 = 8281 rows: two whole blocks and a ragged tail of 89
    grid = GridSpec(4.0, 91, 16.0, 32)
    S = grid.spatial_points**2
    assert S > 2 * transform._PACKET_ROWS and S % transform._PACKET_ROWS
    spec = WavePacketSpec(
        alpha=(2,), t_low=0.9, t_high=2.6, conjugated_axes=(1,) if sign < 0 else (),
        vertical_sign=sign,
    )
    got = make_wave_packet(spec, SIG1, grid).values
    assert np.array_equal(got, _one_gemm_packet(spec, SIG1, grid))


@pytest.mark.parametrize("N", [128, 127], ids=["even", "odd"])
@pytest.mark.parametrize("side", [1, -1])
def test_pipeline_change_matches_the_spatial_sum(N, side):
    # ||Pu - u||^2 from the slices (P s_t - s_t on the projected bins, s_t
    # on the others) times dt / (2 pi) is the spatial weighted sum: content
    # on both sides, and a weak broadband floor on every bin
    grid = GridSpec(4.0, 21, 16.0, N)
    plus = make_wave_packet(WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.6), SIG1, grid)
    minus = make_wave_packet(
        WavePacketSpec(alpha=(0,), t_low=1.0, t_high=2.4, conjugated_axes=(1,), vertical_sign=-1),
        SIG1, grid,
    )
    rng = np.random.default_rng(3)
    shape = grid.field_shape(1)
    floor = 1e-4 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    u = plus.values + 0.5 * minus.values + floor
    pu, _, _, change_sq, *_ = transform._pipeline(grid, u.copy(), SIG1, side, report=True, want_pu=True)
    want = weighted_sq_sum(pu.values, grid.field_weight_array(1), u)
    got = grid.freq_step / (2 * np.pi) * change_sq
    assert abs(got - want) <= 1e-12 * want


def _tone_field(grid, seed, k):
    """A random spatial profile on the bins t = +-k dt."""
    rng = np.random.default_rng(seed)
    tone = np.cos(k * grid.freq_step * grid.vertical_nodes())
    return rng.normal(size=grid.spatial_shape(2))[..., None] * tone + 0j


@pytest.mark.parametrize("side", [1, -1])
def test_pipeline_sums_match_the_spatial_sums_n2(side):
    # for n >= 2 the sums come from sector coordinates; ||Pu - u||^2 and
    # ||Pu||^2 times dt / (2 pi) are the spatial weighted sums (the tone's
    # bins t = +-1.18 lie inside this grid's budget window)
    grid = GridSpec(3.5, 13, 8.0, 32)
    sig = LambdaSignature((-1.0, 1.0))
    u = _tone_field(grid, 4, 3) + 0.5j * _tone_field(grid, 5, 3)
    pu, _, norm_sq, change_sq, *_ = transform._pipeline(grid, u.copy(), sig, side, report=True, want_pu=True)
    w = grid.field_weight_array(2)
    c = grid.freq_step / (2 * np.pi)
    want_change = weighted_sq_sum(pu.values, w, u)
    want_norm = weighted_sq_sum(pu.values, w)
    assert want_norm > 0.01 * weighted_sq_sum(u, w)
    assert abs(c * change_sq - want_change) <= 1e-12 * want_change
    assert abs(c * norm_sq - want_norm) <= 1e-12 * want_norm


def test_concurrent_n2_pipelines_match_sequential():
    # every call makes its own sector slices: four n = 2 pipelines on four
    # threads, switching often, give the sequential outputs and sums bit for bit
    grid = GridSpec(3.5, 13, 30.0, 32)
    sig = LambdaSignature((-1.0, 1.0))
    jobs = [(_tone_field(grid, seed, 10), side) for seed, side in enumerate((1, -1, 1, -1))]

    def run(job):
        values, side = job
        pu, *sums = transform._pipeline(grid, values.copy(), sig, side, report=True, want_pu=True)
        return pu.values, sums

    want = [run(job) for job in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for (values, sums), (want_values, want_sums) in zip(got, want):
        assert want_sums[1] > 0
        assert np.array_equal(values, want_values) and sums == want_sums
