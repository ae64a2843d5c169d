import itertools
import math

import numpy as np
import pytest

from hszego import (
    GridSpec,
    LambdaSignature,
    MultiIndex,
    UsageError,
    axis_coefficients,
    bergman_project,
    default_radius_sweep,
    divergence_witness,
    gaussian_reproducing_check,
    monomial_integral,
    truncated_monomial_integral,
)
from hszego.core import gauss_legendre_table

SIG1 = LambdaSignature((1.0,))


@pytest.fixture(scope="module")
def slice_grid():
    return GridSpec(5.5, 41, 1.0, 4)


def _gaussian_slice(grid, t, extra=None):
    x = grid.spatial_nodes()
    Z = x[:, None] + 1j * x[None, :]
    vals = np.exp(-t * np.abs(Z) ** 2)
    if extra is not None:
        vals = vals * extra(Z)
    return vals


def _slice_norm(grid, vals):
    return np.sqrt(np.sum(np.abs(vals) ** 2 * grid.spatial_weight_array(1)))


def test_project_reproduces_constant_gaussian(slice_grid):
    t = 1.0
    sl = _gaussian_slice(slice_grid, t)
    out = bergman_project(sl, t, slice_grid, SIG1)
    err = _slice_norm(slice_grid, out - sl)
    assert err / _slice_norm(slice_grid, sl) < 1e-4


def test_project_annihilates_antiholomorphic(slice_grid):
    t = 1.0
    sl = _gaussian_slice(slice_grid, t, extra=lambda Z: np.conj(Z))
    out = bergman_project(sl, t, slice_grid, SIG1)
    assert _slice_norm(slice_grid, out) / _slice_norm(slice_grid, sl) < 1e-6


def test_project_zero_for_negative_t(slice_grid):
    # the weight's t is the slice's own: a slice at t <= 0 projects to zero
    sl = _gaussian_slice(slice_grid, 1.0)
    for t in (-1.0, 0.0):
        out = bergman_project(sl, t, slice_grid, SIG1)
        assert out.shape == sl.shape
        assert np.all(out == 0)


def test_project_rejects_nonpositive_lambda(slice_grid):
    sl = _gaussian_slice(slice_grid, 1.0)
    for lam in (-1.0, 0.0):
        with pytest.raises(UsageError, match="all-positive"):
            bergman_project(sl, 1.0, slice_grid, LambdaSignature((lam,)))


def test_project_rejects_a_slice_of_another_shape(slice_grid):
    sl = _gaussian_slice(slice_grid, 1.0)
    for vals, sig in ((sl[:-1], SIG1), (sl, LambdaSignature((1.0, 1.0)))):
        with pytest.raises(UsageError, match="does not match grid spatial shape"):
            bergman_project(vals, 1.0, slice_grid, sig)


def test_reproducing_identity_constant(slice_grid):
    (lhs,), (rhs,) = gaussian_reproducing_check(
        [{(0,): 1.0}], np.array([0.0j]), 1.0, SIG1, slice_grid
    )
    assert lhs == 1.0
    assert rhs == pytest.approx(1.0, abs=1e-9)


def test_reproducing_identity_odd(slice_grid):
    (lhs,), (rhs,) = gaussian_reproducing_check(
        [{(1,): 1.0}], np.array([0.0j]), 1.0, SIG1, slice_grid
    )
    assert lhs == 0.0
    assert abs(rhs) < 1e-12


def test_reproducing_identity_linear(slice_grid):
    z = np.array([0.5 + 0.0j])
    (lhs,), (rhs,) = gaussian_reproducing_check([{(1,): 1.0}], z, 2.0, SIG1, slice_grid)
    assert lhs == pytest.approx(0.5 * np.exp(-0.5))
    assert rhs == pytest.approx(lhs, rel=1e-6)


@pytest.mark.parametrize(
    "sig, grid, z",
    [
        (SIG1, GridSpec(5.5, 41, 1.0, 4), np.array([0.7 - 0.4j])),
        (LambdaSignature((1.0, 0.6)), GridSpec(4.0, 15, 1.0, 4), np.array([0.5 - 0.3j, -0.4j])),
    ],
)
def test_reproducing_check_batch_matches_single(sig, grid, z):
    n = sig.n
    polys = [{a: 1.0} for a in itertools.product(range(3), repeat=n)]
    polys.append({(0,) * n: 0.5 - 1.0j, (1,) * n: 2.0})
    lhs, rhs = gaussian_reproducing_check(polys, z, 1.3, sig, grid)
    assert lhs.shape == rhs.shape == (len(polys),)
    for i, g in enumerate(polys):
        (l1,), (r1,) = gaussian_reproducing_check([g], z, 1.3, sig, grid)
        assert lhs[i] == l1 and rhs[i] == r1


# ---------------------------------------------------------------------------
# monomial integrals
# ---------------------------------------------------------------------------


def _coeffs(lams, J, eta):
    return axis_coefficients(LambdaSignature(lams), MultiIndex(J), eta)


def test_axis_coefficients():
    # c_j = 2*eta*s_j*lam_j with s_j = +1 on J and -1 off it
    c = _coeffs((1.0, -0.5, 2.0), (2,), -1.5)
    assert np.array_equal(c, [3.0, 1.5, 6.0])
    with pytest.raises(UsageError):
        _coeffs((1.0,), (2,), 1.0)


def test_monomial_integral_examples():
    # lambda = (-1), q = 0 pattern: exponent coefficient 2, value pi
    assert monomial_integral((0,), _coeffs((-1.0,), (), 1.0)) == pytest.approx(np.pi)
    assert math.isinf(monomial_integral((0,), _coeffs((1.0,), (), 1.0)))
    # a zero lambda gives a zero coefficient: divergent
    assert math.isinf(monomial_integral((0, 0), _coeffs((1.0, 0.0), (1,), 1.0)))
    with pytest.raises(UsageError):
        monomial_integral((0,), _coeffs((1.0, 1.0), (), 1.0))


def test_monomial_integral_closed_form_vs_truncation():
    c = _coeffs((-1.0, 0.5), (2,), 1.0)  # all positive for eta=1
    val = monomial_integral((1, 2), c)
    assert math.isfinite(val)
    approx = truncated_monomial_integral((1, 2), c, 9.0, points=96)
    assert approx == pytest.approx(val, rel=1e-8)


def test_finiteness_boundary_small_n():
    # finite for some eta != 0 iff the pattern sign vector s_j*sign(lam_j)
    # is constant across axes
    for n in (1, 2, 3):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            sig = LambdaSignature(signs)
            for q in range(n + 1):
                for J in itertools.combinations(range(1, n + 1), q):
                    svec = [
                        (1 if (j in J) else -1) * (1 if signs[j - 1] > 0 else -1)
                        for j in range(1, n + 1)
                    ]
                    finite_any = any(
                        math.isfinite(
                            monomial_integral((0,) * n, axis_coefficients(sig, MultiIndex(J), eta))
                        )
                        for eta in (1.0, -1.0)
                    )
                    assert finite_any == (len(set(svec)) == 1)


def test_witness_requires_infinite():
    with pytest.raises(UsageError):
        divergence_witness((0,), _coeffs((-1.0,), (), 1.0), (1.0, 2.0))


def test_witness_flat_case_matches_ball_volume():
    # eta = 0: integrand is 1, truncated integral = 2^n * vol(ball_R)
    vals = divergence_witness((0,), _coeffs((1.0,), (), 0.0), (1.0, 2.0, 3.0))
    expect = [2.0 * np.pi * r**2 for r in (1.0, 2.0, 3.0)]
    assert np.allclose(vals, expect, rtol=1e-12)


def test_witness_growth_exponential_branch():
    c = _coeffs((1.0,), (), 1.0)  # c = -2 for eta = 1: exponential divergence
    radii = default_radius_sweep(c)
    assert radii == (1.0, 2.0, 3.0, 4.0, 5.0)
    vals = divergence_witness((0,), c, radii)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] / vals[0] > 1e3


def test_witness_zero_axis_polynomial_branch():
    c = _coeffs((0.0, 1.0), (2,), 1.0)  # flat first axis, decaying second
    radii = default_radius_sweep(c)
    assert radii[-1] == 50.0
    vals = divergence_witness((0, 0), c, radii)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] / vals[0] > 1e3


@pytest.mark.parametrize(
    "alpha, eta, lams, J",
    [
        ((2,), 1.0, (1.0,), ()),
        ((1, 0), -1.0, (1.0, -0.7), (1,)),
        ((0, 1, 1), 1.0, (1.0, 0.7, -1.3), (1, 3)),
        ((1, 0, 0), 1.0, (0.0, 1.0, -1.0), (2,)),
    ],
)
def test_witness_one_pass_matches_per_radius(alpha, eta, lams, J):
    c = _coeffs(lams, J, eta)
    radii = default_radius_sweep(c)
    vals = divergence_witness(alpha, c, radii)
    single = [truncated_monomial_integral(alpha, c, r) for r in radii]
    assert all(type(v) is float for v in single)
    assert np.array_equal(vals, single)


def test_gauss_legendre_table_shared_and_read_only():
    x, w = gauss_legendre_table(64, unit=True)
    xg, wg = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(x, 0.5 * (xg + 1.0)) and np.array_equal(w, 0.5 * wg)
    assert gauss_legendre_table(64, unit=True)[0] is x
    for arr in (x, w, *gauss_legendre_table(16)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_witness_monotone_radii_required():
    with pytest.raises(UsageError):
        divergence_witness((0,), _coeffs((1.0,), (), 1.0), (2.0, 1.0))
