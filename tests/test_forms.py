import itertools
import math

import numpy as np
import pytest

from hszego import (
    FormField,
    GridSpec,
    LambdaSignature,
    MultiIndex,
    ScalarField,
    UsageError,
    WavePacketSpec,
    apply_cr,
    cr_system_residual,
    form_inner,
    form_norm,
    make_wave_packet,
    monomial_integral,
    norm,
    partial_ft,
    reflect_to_hat,
    scalar_pipeline_project,
    szego_project_form,
    vanishing_evidence,
    vanishing_reason,
)
from hszego import forms, transform
from hszego.bergman import axis_coefficients, gaussian_budget_window
from hszego.core import weighted_sq_sum
from hszego.verification import random_band_field

SIG1 = LambdaSignature((1.0,))
J0 = MultiIndex(())


@pytest.fixture(scope="module")
def grid():
    return GridSpec(4.0, 21, 16.0, 128)


def _coords(grid):
    x = grid.spatial_nodes()
    return x[:, None] + 1j * x[None, :]


def _label(kind, j):
    """The component label on whose axis j apply_cr applies ``kind``: Z on J, Zbar off it."""
    return MultiIndex((j,) if kind == "Z" else ())


def _planes(grid):
    """Every interior plane of the first spatial axis."""
    return range(2, grid.spatial_points - 2)


def _interior_norm(grid, n, r):
    """Weighted L^2 norm of the interior values that ``apply_cr`` returns."""
    interior = (slice(2, grid.spatial_points - 2),) * (2 * n)
    w = grid.field_weight_array(n)[interior]
    return math.sqrt(float(np.sum(np.sum(np.abs(r) ** 2, axis=-1) * w)))


def test_apply_cr_constant_is_zero(grid):
    u = ScalarField(grid=grid, values=np.ones(grid.field_shape(1), dtype=complex))
    for kind in ("Z", "Zbar"):
        out = apply_cr(u, _label(kind, 1), 1, SIG1, _planes(grid))
        assert np.max(np.abs(out)) < 1e-14


def test_apply_cr_z_is_annihilated_by_zbar(grid):
    Z = _coords(grid)
    u = ScalarField(grid=grid, values=np.repeat(Z[..., None], 128, axis=-1).astype(complex))
    out = apply_cr(u, J0, 1, SIG1, _planes(grid))
    assert _interior_norm(grid, 1, out) < 1e-12
    out2 = apply_cr(u, MultiIndex((1,)), 1, SIG1, _planes(grid))
    assert _interior_norm(grid, 1, out2) > 0.1  # d/dz of z is 1, not zero


def test_apply_cr_grid_requirements():
    coarse = GridSpec(4.0, 4, 8.0, 8)
    u = ScalarField(grid=coarse, values=np.ones(coarse.field_shape(1), dtype=complex))
    with pytest.raises(UsageError):
        apply_cr(u, MultiIndex((1,)), 1, SIG1, range(2, 2))


def test_cr_residual_packet_vs_noise(grid):
    u = make_wave_packet(
        WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.6), SIG1, grid, bin_quadrature=True
    )
    res = cr_system_residual(u, J0, SIG1)
    rng = np.random.default_rng(0)
    shape = grid.field_shape(1)
    noise = ScalarField(grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    res_noise = cr_system_residual(noise, J0, SIG1)
    assert res / norm(u) < 0.15
    assert (res_noise / norm(noise)) / (res / norm(u)) > 20


# -- streamed residual against an inline full-grid reference ----------------
#
# The reference is the whole-array stencil written out here: np.roll for the
# periodic vertical derivative, zero-padded centered differences on the
# spatial axes, the interior mask, and a masked weighted sum over the full
# grid.  It shares no code with the plane-by-plane path.


def _ref_d4(vals, axis, h, periodic):
    if periodic:
        return (
            -np.roll(vals, -2, axis)
            + 8.0 * np.roll(vals, -1, axis)
            - 8.0 * np.roll(vals, 1, axis)
            + np.roll(vals, 2, axis)
        ) / (12.0 * h)
    out = np.zeros_like(vals)
    L = vals.shape[axis]
    take = lambda k: np.take(vals, np.arange(2 + k, L - 2 + k), axis=axis)  # noqa: E731
    core = [slice(None)] * vals.ndim
    core[axis] = slice(2, L - 2)
    out[tuple(core)] = (-take(2) + 8.0 * take(1) - 8.0 * take(-1) + take(-2)) / (12.0 * h)
    return out


def _ref_mask(grid, n):
    m = grid.spatial_points
    one = np.zeros(m)
    one[2 : m - 2] = 1.0
    mask = np.ones(())
    for _ in range(2 * n):
        mask = np.multiply.outer(mask, one)
    return mask


def _ref_zj(x, n, j):
    """z_j on the full grid, broadcastable against a field's values."""
    shape = [1] * (2 * n + 1)
    shape[2 * j - 2] = x.size
    xre = x.reshape(shape)
    shape = [1] * (2 * n + 1)
    shape[2 * j - 1] = x.size
    return xre + 1j * x.reshape(shape)


def _ref_weights(grid, n):
    """Spatial weights (with 2^n) on the full grid."""
    w1 = grid.spatial_axis_weights()
    w = np.ones(())
    for _ in range(2 * n):
        w = np.multiply.outer(w, w1)
    return (2.0**n) * w


def _ref_cr(u, kind, j, lam):
    grid, n, v = u.grid, u.n, u.values
    x = grid.spatial_nodes()
    hs, hv = x[1] - x[0], 2.0 * grid.vertical_radius / grid.vertical_points
    d_re = _ref_d4(v, 2 * j - 2, hs, False)
    d_im = _ref_d4(v, 2 * j - 1, hs, False)
    d_v = _ref_d4(v, 2 * n, hv, True)
    zj = _ref_zj(x, n, j)
    if kind == "Z":
        r = 0.5 * (d_re - 1j * d_im) - 1j * lam * np.conj(zj) * d_v
    else:
        r = 0.5 * (d_re + 1j * d_im) + 1j * lam * zj * d_v
    return r * _ref_mask(grid, n)[..., None]


def _ref_residual(u, J, sig):
    grid, n = u.grid, u.n
    w = _ref_weights(grid, n)[..., None] * (2.0 * grid.vertical_radius / grid.vertical_points)
    total = 0.0
    for j in range(1, n + 1):
        r = _ref_cr(u, "Z" if j in J.entries else "Zbar", j, sig.lambdas[j - 1])
        total += float(np.sum(np.abs(r) ** 2 * w))
    return math.sqrt(total)


def _ref_frequency_residual(freq, J, sig):
    """Slice-wise residual of the frequency-domain CR system, summed over slices.

    Slice t stores the transform at e^{+itx}, so membership needs
    (d/dz_j - lam_j zbar_j t) slice = 0 for j in J and
    (d/dzbar_j + lam_j z_j t) slice = 0 for j not in J, on interior nodes.
    Slices are weighted by the frequency step.
    """
    grid, n, v = freq.grid, freq.n, freq.values
    x = grid.spatial_nodes()
    hs = x[1] - x[0]
    w = (_ref_weights(grid, n) * _ref_mask(grid, n))[..., None] * grid.freq_step
    t = freq.t_nodes
    total = 0.0
    for j in range(1, n + 1):
        d_re = _ref_d4(v, 2 * j - 2, hs, False)
        d_im = _ref_d4(v, 2 * j - 1, hs, False)
        zj, lam = _ref_zj(x, n, j), sig.lambdas[j - 1]
        if j in J.entries:
            r = 0.5 * (d_re - 1j * d_im) - lam * np.conj(zj) * t * v
        else:
            r = 0.5 * (d_re + 1j * d_im) + lam * zj * t * v
        total += float(np.sum(np.abs(r) ** 2 * w))
    return math.sqrt(total)


def _noise(grid, n, seed):
    rng = np.random.default_rng(seed)
    shape = grid.field_shape(n)
    return ScalarField(grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))


SIG_MIXED = LambdaSignature((-1.0, 1.0))


def _residual_cases():
    cases = []
    for m in (17, 33):
        g = GridSpec(4.0, m, 16.0, 64)
        packet = WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.6)
        cases.append((f"n1-m{m}-packet", g, SIG1, J0, packet))
        cases.append((f"n1-m{m}-noise", g, SIG1, J0, None))
    g2 = GridSpec(3.0, 9, 8.0, 32)
    for J, sign in (((1,), 1), ((2,), -1)):
        packet = WavePacketSpec(
            alpha=(1, 0), t_low=0.9, t_high=2.6, conjugated_axes=J, vertical_sign=sign
        )
        cases.append((f"n2-J{J[0]}-packet", g2, SIG_MIXED, MultiIndex(J), packet))
        cases.append((f"n2-J{J[0]}-noise", g2, SIG_MIXED, MultiIndex(J), None))
    return cases


def _case_field(grid, sig, spec, seed):
    if spec is None:
        return _noise(grid, sig.n, seed)
    return make_wave_packet(spec, sig, grid)


@pytest.mark.parametrize("case", _residual_cases(), ids=lambda c: c[0])
def test_streamed_residual_matches_full_grid_reference(case):
    _, g, sig, J, spec = case
    u = _case_field(g, sig, spec, seed=5)
    got = cr_system_residual(u, J, sig)
    want = _ref_residual(u, J, sig)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("N", [32, 33], ids=["even", "odd"])
def test_periodic_stencil_is_its_symbol_on_the_fft_positions(N):
    # the one fork between the spatial residual and the one taken on a
    # projection's frequency slices: the vertical derivative is the periodic
    # stencil there and its symbol here
    rng = np.random.default_rng(N)
    vals = rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N))
    got = forms._periodic_d4_symbol(N) * np.fft.ifft(vals, axis=-1)
    want = np.fft.ifft(forms._periodic_d4(vals), axis=-1)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", _residual_cases(), ids=lambda c: c[0])
def test_apply_cr_matches_reference_and_zeroes_the_band(case):
    """apply_cr returns the reference's interior values; the band it leaves out is zero."""
    _, g, sig, J, spec = case
    u = _case_field(g, sig, spec, seed=6)
    n = sig.n
    interior = (slice(2, g.spatial_points - 2),) * (2 * n)
    for j in range(1, n + 1):
        for kind in ("Z", "Zbar"):
            got = apply_cr(u, _label(kind, j), j, sig, _planes(g))
            want = _ref_cr(u, kind, j, sig.lambdas[j - 1])
            assert got.shape == want[interior].shape
            padded = np.zeros_like(want)
            padded[interior] = got
            assert np.max(np.abs(padded - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("case", _residual_cases()[1::2], ids=lambda c: c[0])
def test_apply_cr_planes_are_rows_of_the_full_grid_result(case):
    _, g, sig, J, _ = case
    u = _noise(g, sig.n, seed=7)
    m, b = g.spatial_points, 2
    for j in range(1, sig.n + 1):
        full = apply_cr(u, J0, j, sig, range(b, m - b))
        for i in (b, m // 2, m - b - 1):
            rows = apply_cr(u, J0, j, sig, range(i, i + 1))
            assert np.array_equal(rows, full[i - b : i - b + 1])
        both = apply_cr(u, J0, j, sig, range(b, b + 2))
        assert np.array_equal(both, full[:2])
    for bad in (range(b - 1, b), range(m - b, m - b + 1), range(b, m - b, 2)):
        with pytest.raises(UsageError):
            apply_cr(u, MultiIndex((1,)), 1, sig, bad)


@pytest.mark.parametrize("n", [1, 2])
def test_apply_cr_rejects_an_axis_outside_1_to_n(n):
    g = GridSpec(3.0, 7, 8.0, 8)
    sig = LambdaSignature((1.0,) * n)
    u = _noise(g, n, seed=8)
    for j in (0, n + 1):
        with pytest.raises(UsageError, match=f"axis {j} outside 1..{n}"):
            apply_cr(u, J0, j, sig, _planes(g))


def test_frequency_residual_consistent_with_spatial(grid):
    u = make_wave_packet(
        WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6), SIG1, grid, bin_quadrature=True
    )
    fres = _ref_frequency_residual(partial_ft(u), J0, SIG1)
    # scale by the Parseval factor to compare with the spatial residual
    assert fres / (math.sqrt(2 * math.pi) * norm(u)) < 0.15
    rng = np.random.default_rng(1)
    shape = grid.field_shape(1)
    noise = ScalarField(grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    fres_noise = _ref_frequency_residual(partial_ft(noise), J0, SIG1)
    assert fres_noise / (math.sqrt(2 * math.pi) * norm(noise)) > 10 * fres / (
        math.sqrt(2 * math.pi) * norm(u)
    )


def test_sign_map_between_slices_and_classifier(grid):
    """Documents the frequency orientation: a packet occupying slices t > 0
    has finite weighted monomial integrals at eta = -t and infinite at +t."""
    u = make_wave_packet(WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6), SIG1, grid)
    freq = partial_ft(u)
    energy = freq.spectral_energy()
    k = int(np.argmax(energy))
    t_star = freq.t_nodes[k]
    assert t_star > 0
    J = MultiIndex(())
    assert math.isfinite(monomial_integral((0,), axis_coefficients(SIG1, J, -t_star)))
    assert math.isinf(monomial_integral((0,), axis_coefficients(SIG1, J, +t_star)))


# ---------------------------------------------------------------------------
# block reflections
# ---------------------------------------------------------------------------


def _const_field(grid, value=1.0):
    return ScalarField(grid=grid, values=np.full(grid.field_shape(1), value, dtype=complex))


def test_reflection_involution_bit_exact(grid):
    rng = np.random.default_rng(2)
    shape = grid.field_shape(1)
    u = ScalarField(grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    sig = LambdaSignature((-1.0,))
    for which in ("minus_block", "plus_block"):
        once = reflect_to_hat(u, which, sig)
        twice = reflect_to_hat(once, which, sig)
        assert np.array_equal(twice.values, u.values)


def test_reflection_identity_when_no_negative_axes(grid):
    u = _const_field(grid, 1.5)
    out = reflect_to_hat(u, "minus_block", SIG1)
    assert np.array_equal(out.values, u.values)


def test_reflection_transports_cr_solutions(grid):
    sig = LambdaSignature((-1.0,))
    u = make_wave_packet(
        WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.6, conjugated_axes=(1,)),
        sig,
        grid,
        bin_quadrature=True,
    )
    # u solves Z_1 u = 0 for the standard structure (axis 1 is in J)
    res_std = _interior_norm(grid, 1, apply_cr(u, MultiIndex((1,)), 1, sig, _planes(grid)))
    v = reflect_to_hat(u, "minus_block", sig)
    # the hat structure is the signature |lambda|
    res_hat = _interior_norm(grid, 1, apply_cr(v, J0, 1, sig.abs(), _planes(grid)))
    assert res_std / norm(u) < 0.15
    assert res_hat / norm(v) < 0.15


# ---------------------------------------------------------------------------
# the (0,q) projector
# ---------------------------------------------------------------------------


def test_all_positive_q0_equals_scalar_pipeline(grid):
    u = make_wave_packet(WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.6), SIG1, grid)
    form = FormField(grid=grid, q=0, components={J0: u})
    out = szego_project_form(form, SIG1)
    ref = scalar_pipeline_project(u, SIG1)
    assert np.array_equal(out.components[J0].values, ref.values)


def test_vanishing_degrees_give_zero(grid):
    sig = LambdaSignature((1.0, 1.0))
    g2 = GridSpec(3.0, 5, 4.0, 8)
    b = ScalarField(grid=g2, values=np.ones(g2.field_shape(2), dtype=complex))
    u = FormField(grid=g2, q=1, components={MultiIndex((1,)): b})
    out = szego_project_form(u, sig)
    assert out.components == {}
    assert "trivial" in vanishing_reason(1, sig)
    assert "lambda" in vanishing_reason(0, LambdaSignature((0.0, 1.0)))
    assert vanishing_reason(0, sig) is None


def test_project_form_output_keys_subset(grid):
    sig = LambdaSignature((-1.0,))
    J1 = MultiIndex((1,))
    u = make_wave_packet(
        WavePacketSpec(alpha=(0,), t_low=0.9, t_high=2.6, conjugated_axes=(1,)), sig, grid
    )
    form = FormField(grid=grid, q=1, components={J1: u})
    out = szego_project_form(form, sig)
    assert set(out.components) == {J1}
    rel = norm(
        ScalarField(grid=grid, values=out.components[J1].values - u.values)
    ) / norm(u)
    assert rel < 1e-3


def _side_rule_signatures():
    """Every sign pattern of (1, 0.7, 1.3)[:n] and one degenerate signature, n <= 3."""
    base = (1.0, 0.7, 1.3)
    out = []
    for n in (1, 2, 3):
        out += [tuple(s * b for s, b in zip(signs, base))
                for signs in itertools.product((1, -1), repeat=n)]
        out.append(base[: n - 1] + (0.0,))
    return out


@pytest.mark.parametrize("lams", _side_rule_signatures(), ids=str)
def test_side_rule_keeps_the_axes_of_a_side(lams):
    # side +1 (t > 0) serves J = {j : lam_j < 0}, side -1 (t < 0) J = {j :
    # lam_j > 0}, and a degenerate signature no J: the form projector keeps
    # exactly those labels and make_wave_packet accepts exactly those pairs
    sig = LambdaSignature(lams)
    n = sig.n
    served = {}
    if 0.0 not in lams:
        served = {1: tuple(j for j in range(1, n + 1) if lams[j - 1] < 0),
                  -1: tuple(j for j in range(1, n + 1) if lams[j - 1] > 0)}
    grid = GridSpec(2.0, 3, 4.0, 8)
    zero = ScalarField(grid=grid, values=np.zeros(grid.field_shape(n), dtype=complex))
    for q in range(n + 1):
        labels = list(itertools.combinations(range(1, n + 1), q))
        form = FormField(grid=grid, q=q, components={MultiIndex(J): zero for J in labels})
        out = szego_project_form(form, sig)
        kept = [J for J in labels if J in served.values()]
        assert sorted(out.components) == [MultiIndex(J) for J in kept], q
        assert not any(np.any(f.values) for f in out.components.values())
        for J, side in itertools.product(labels, (1, -1)):
            spec = WavePacketSpec(alpha=(0,) * n, t_low=0.5, t_high=1.5,
                                  conjugated_axes=J, vertical_sign=side)
            if served.get(side) == J:
                make_wave_packet(spec, sig, grid)
            else:
                with pytest.raises(UsageError):
                    make_wave_packet(spec, sig, grid)


def test_vanishing_evidence_reports():
    rep = vanishing_evidence(1, LambdaSignature((1.0, 1.0)))
    assert rep and not any(e.finite for e in rep)
    rep2 = vanishing_evidence(1, LambdaSignature((-1.0, 1.0)))
    finite_J = {e.J for e in rep2 if e.finite}
    assert finite_J == {MultiIndex((1,)), MultiIndex((2,))}
    rep3 = vanishing_evidence(0, LambdaSignature((0.0, 1.0)))
    assert rep3 and not any(e.finite for e in rep3)


# -- the n=2 mixed-signature projector: exact discrete symmetries -------------

SIG_MIXED = LambdaSignature((-1.0, 1.0))


def _form_of(grid, values_by_axis):
    return FormField(grid=grid, q=1, components={
        MultiIndex((j,)): ScalarField(grid=grid, values=v) for j, v in values_by_axis.items()
    })


@pytest.fixture(scope="module")
def mixed_case():
    """Two q=1 forms of exact-bin tones inside the budget window, and P of the first.

    Both components of each form carry Gaussian-bump profiles on the bins
    t = +-1.047 and +-1.152, which the window [0.94, 1.26] of this grid holds.
    """
    grid = GridSpec(3.5, 13, 30.0, 32)
    rng = np.random.default_rng(8)
    u, v = (
        _form_of(grid, {
            j: random_band_field(grid, 2, rng, band=(0.95, 1.25)).values for j in (1, 2)
        })
        for _ in range(2)
    )
    return u, v, szego_project_form(u, SIG_MIXED)


def test_mixed_projector_is_self_adjoint(mixed_case):
    u, v, pu = mixed_case
    pv = szego_project_form(v, SIG_MIXED)
    gap = abs(form_inner(pu, v) - form_inner(u, pv)) / (form_norm(u) * form_norm(v))
    assert form_norm(pu) > 0.1 * form_norm(u)
    assert gap < 1e-14


def test_mixed_projector_commutes_with_vertical_roll(mixed_case):
    u, _, pu = mixed_case
    rolled = _form_of(u.grid, {J.entries[0]: np.roll(f.values, 1, axis=-1)
                               for J, f in u.iter_components()})
    p_rolled = szego_project_form(rolled, SIG_MIXED)
    for J, f in pu.iter_components():
        diff = np.max(np.abs(p_rolled.components[J].values - np.roll(f.values, 1, axis=-1)))
        assert diff < 1e-13 * np.max(np.abs(f.values)), J


def _conjugate_swap(values):
    """u(z1, z2, x) -> u(zbar2, zbar1, x): swap the complex axes, flip both imaginary ones."""
    return np.flip(np.transpose(values, (2, 3, 0, 1, 4)), axis=(1, 3))


def test_mixed_projector_commutes_with_conjugate_swap(mixed_case):
    # (z1, z2) -> (zbar2, zbar1) keeps sum |lam_j||z_j - w_j|^2 and
    # sum lam_j Im(zbar_j w_j) for lam = (-1, 1), so it is an exact symmetry of
    # this structure's kernel; the hat structure (1, 1) does not have it
    u, _, pu = mixed_case
    swapped = _form_of(u.grid, {J.entries[0]: _conjugate_swap(f.values)
                                for J, f in u.iter_components()})
    p_swapped = szego_project_form(swapped, SIG_MIXED)
    for J, f in pu.iter_components():
        diff = np.max(np.abs(p_swapped.components[J].values - _conjugate_swap(f.values)))
        assert diff < 1e-13 * np.max(np.abs(f.values)), J


def _rotate(values, j):
    """u(.., z_j, .., x) -> u(.., i*z_j, .., x): (x_j, y_j) -> (-y_j, x_j) on axis j.

    An exact index permutation of the value array on the square symmetric grid.
    """
    a, b = 2 * (j - 1), 2 * (j - 1) + 1
    return np.flip(np.swapaxes(values, a, b), axis=b)


@pytest.mark.parametrize("j", [1, 2])
def test_mixed_projector_commutes_with_axis_rotation(mixed_case, j):
    # z_j -> i*z_j keeps |z_j - w_j|^2 and Im(zbar_j w_j), so it is an exact
    # symmetry of the kernel of any signature; on the grid it exchanges the
    # real and the imaginary direction of axis j
    u, _, pu = mixed_case
    rotated = _form_of(u.grid, {J.entries[0]: _rotate(f.values, j)
                                for J, f in u.iter_components()})
    p_rotated = szego_project_form(rotated, SIG_MIXED)
    for J, f in pu.iter_components():
        diff = np.max(np.abs(p_rotated.components[J].values - _rotate(f.values, j)))
        assert diff < 1e-13 * np.max(np.abs(f.values)), J


def test_hat_pipeline_commutes_with_axis_swap():
    # (z1, z2) -> (z2, z1) is an exact symmetry of the kernel of lambda = (1, 1)
    grid = GridSpec(3.5, 13, 30.0, 32)
    sig = LambdaSignature((1.0, 1.0))
    u = random_band_field(grid, 2, np.random.default_rng(9), band=(0.95, 1.25))
    pu = scalar_pipeline_project(u, sig)
    assert norm(pu) > 0.1 * norm(u)

    def swap(values):
        return np.transpose(values, (2, 3, 0, 1, 4))

    p_swapped = scalar_pipeline_project(ScalarField(grid=grid, values=swap(u.values)), sig)
    diff = np.max(np.abs(p_swapped.values - swap(pu.values)))
    assert diff < 1e-13 * np.max(np.abs(pu.values))


def _keep_sign(values, sign):
    """The content of ``values`` on the vertical bins t with sign(t) == sign.

    A tone e^{-itx} sits at t; numpy's FFT files it under frequency -t.
    """
    spec = np.fft.fft(values, axis=-1)
    spec[..., ~(-sign * np.fft.fftfreq(values.shape[-1]) > 0)] = 0
    return np.fft.ifft(spec, axis=-1)


def test_mixed_projector_zeroes_wrong_sign_bins(mixed_case):
    # component (1,) is projected on t > 0 (the phi_minus slices) and (2,) on
    # t < 0 (the phi_plus slices)
    u, _, _ = mixed_case
    wrong = _form_of(u.grid, {
        1: _keep_sign(u.components[MultiIndex((1,))].values, -1),
        2: _keep_sign(u.components[MultiIndex((2,))].values, +1),
    })
    assert form_norm(wrong) > 0.1 * form_norm(u)
    out = szego_project_form(wrong, SIG_MIXED)
    for J, f in out.iter_components():
        assert not np.any(f.values), J


# -- the signed slice kernel against the reflection to the hat structure -------


def _hat_reference(f, sig, which):
    """reflect_to_hat o scalar_pipeline_project(., |sig|) o reflect_to_hat."""
    hat = scalar_pipeline_project(reflect_to_hat(f, which, sig), sig.abs())
    return reflect_to_hat(hat, which, sig)


def _assert_matches_hat_reference(grid, lams, q, nyquist_tone=0.0):
    sig = LambdaSignature(lams)
    branches = {}
    if q == sig.n_minus:
        branches[MultiIndex(sig.negative_axes)] = "minus_block"
    if q == sig.n_plus:
        branches[MultiIndex(sig.positive_axes)] = "plus_block"
    rng = np.random.default_rng(12)
    comps = {}
    for J in branches:
        # exact tones on in-window bins, ~40 % of them negative
        f = random_band_field(grid, sig.n, rng, band=gaussian_budget_window(grid, sig), modes=8)
        # bin -N/2 of an even grid is its own mirror: no side projects it
        tone = np.exp(-1j * grid.freq_nodes()[0] * grid.vertical_nodes())
        comps[J] = ScalarField(grid=grid, values=f.values + nyquist_tone * tone)
    out = szego_project_form(FormField(grid=grid, q=q, components=comps), sig)
    assert set(out.components) == set(branches)
    for J, which in branches.items():
        want = _hat_reference(comps[J], sig, which).values
        got = out.components[J].values
        assert np.linalg.norm(want) > 0.1 * np.linalg.norm(comps[J].values), J
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (J, which)


@pytest.mark.parametrize("lams", [(1.0,), (-1.0,)])
@pytest.mark.parametrize("q", [0, 1])
def test_signed_kernel_matches_hat_reference_odd_grid(lams, q):
    _assert_matches_hat_reference(GridSpec(3.4, 17, 20.0, 65), lams, q)


@pytest.mark.parametrize("lams, q", [
    ((-1.0, 1.0), 1), ((-1.0, -1.0), 0), ((-1.0, -1.0), 2), ((-1.0, 1.3), 1),
])
def test_signed_kernel_matches_hat_reference_n2(lams, q):
    _assert_matches_hat_reference(GridSpec(3.5, 13, 30.0, 32), lams, q)


def test_signed_kernel_leaves_the_nyquist_bin_to_neither_side():
    # q = n_plus projects t < 0; the tone on bin -N/2 (|t| far above the
    # ceiling, but too weak for the budget check) must come out zero
    _assert_matches_hat_reference(GridSpec(3.4, 17, 20.0, 64), (1.0,), 1, nyquist_tone=1e-4)


# -- the idempotency gap of one projection pass --------------------------------


def _one_pass_gap(u, sig):
    """Pu and the gap ||P(Pu) - Pu|| / ||Pu|| from the sums of one projection pass.

    The pipeline's sums are added over the components as ``hszego project`` adds them.
    """
    out, gap_sq, norm_sq = {}, 0.0, 0.0
    for J, f in u.iter_components():
        side = forms.component_side(J, sig)
        if side is not None:
            out[J], _, norm_j, _, _, gap_j, _ = transform._pipeline(
                u.grid, f.values.copy(), sig, side, J, want_pu=True
            )
            gap_sq += gap_j
            norm_sq += norm_j
    pu = FormField(grid=u.grid, q=u.q, components=out)
    return pu, math.sqrt(gap_sq / norm_sq) if norm_sq > 0 else 0.0


def _two_pass_gap(pu, project):
    """||P(Pu) - Pu|| / ||Pu|| with P(Pu) from an explicit second projection."""
    ppu = project(pu)
    w = pu.grid.field_weight_array(pu.n)
    comps = list(pu.iter_components())
    num = sum(weighted_sq_sum(ppu.components[J].values, w, f.values) for J, f in comps)
    den = sum(weighted_sq_sum(f.values, w) for _, f in comps)
    return math.sqrt(num) / math.sqrt(den)


def test_one_pass_gap_matches_two_projections_n1(grid):
    u = make_wave_packet(WavePacketSpec(alpha=(1,), t_low=0.9, t_high=2.6), SIG1, grid)
    form = FormField(grid=grid, q=0, components={J0: u})
    pu, gap = _one_pass_gap(form, SIG1)
    ref_pu = szego_project_form(form, SIG1)
    assert np.array_equal(pu.components[J0].values, ref_pu.components[J0].values)
    ref = _two_pass_gap(pu, lambda f: szego_project_form(f, SIG1))
    assert 0 < ref < 1e-3
    assert abs(gap - ref) <= 1e-10 * ref


def test_one_pass_gap_of_an_annihilated_packet(grid, monkeypatch):
    # the output is the ~1e-4 seam leakage of a wrong-sign packet; it reaches
    # bins above the ceiling, so the second projection runs with no budget
    spec = WavePacketSpec(
        alpha=(1,), t_low=0.9, t_high=2.6, conjugated_axes=(1,), vertical_sign=-1
    )
    form = FormField(grid=grid, q=0, components={J0: make_wave_packet(spec, SIG1, grid)})
    pu, gap = _one_pass_gap(form, SIG1)
    assert 0 < form_norm(pu) < 1e-3 * form_norm(form)
    monkeypatch.setattr(transform, "_check_budget", lambda *args: None)
    ref = _two_pass_gap(pu, lambda f: FormField(grid=grid, q=0, components={
        J0: scalar_pipeline_project(f.components[J0], SIG1)}))
    assert abs(gap - ref) <= 1e-10 * ref


def test_one_pass_gap_matches_two_projections_mixed_n2(mixed_case):
    u, _, pu = mixed_case
    one, gap = _one_pass_gap(u, SIG_MIXED)
    for J, f in pu.iter_components():
        assert np.array_equal(one.components[J].values, f.values), J
    ref = _two_pass_gap(pu, lambda f: szego_project_form(f, SIG_MIXED))
    assert 0 < ref < 1e-1
    assert abs(gap - ref) <= 1e-10 * ref


def test_one_pass_gap_of_a_zero_projection_is_zero(mixed_case):
    u, _, _ = mixed_case
    assert _one_pass_gap(u, LambdaSignature((1.0, 1.0)))[1] == 0.0
