import itertools
import math

import numpy as np
import pytest

from hszego import (
    FrequencySlice,
    GridSpec,
    LambdaSignature,
    MultiIndex,
    UsageError,
    bergman_kernel,
    bergman_project,
    divergence_witness,
    gaussian_reproducing_check,
    monomial_integral,
    slice_norm,
    truncated_monomial_integral,
)
from hszego.bergman import SignedWeightPattern, default_radius_sweep
from hszego.core import gauss_legendre_table

SIG1 = LambdaSignature((1.0,))


def test_kernel_zero_for_nonpositive_t():
    assert bergman_kernel([0.3j], [0.1], SIG1, 0.0) == 0.0
    assert bergman_kernel([0.3j], [0.1], SIG1, -2.0) == 0.0


def test_kernel_diagonal_value():
    assert bergman_kernel([0.4 - 0.2j], [0.4 - 0.2j], SIG1, 1.0) == pytest.approx(1.0 / np.pi)


def test_kernel_hermitian():
    rng = np.random.default_rng(1)
    sig = LambdaSignature((0.8, 1.3))
    for _ in range(20):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        kzw = bergman_kernel(z, w, sig, 0.7)
        kwz = bergman_kernel(w, z, sig, 0.7)
        assert kzw == pytest.approx(np.conj(kwz), rel=1e-13)


def test_kernel_requires_positive_sig():
    with pytest.raises(UsageError):
        bergman_kernel([0.0j], [0.0j], LambdaSignature((-1.0,)), 1.0)


@pytest.fixture(scope="module")
def slice_grid():
    return GridSpec(5.5, 41, 1.0, 4)


def _gaussian_slice(grid, t, extra=None):
    x = grid.spatial_nodes()
    Z = x[:, None] + 1j * x[None, :]
    vals = np.exp(-t * np.abs(Z) ** 2)
    if extra is not None:
        vals = vals * extra(Z)
    return FrequencySlice(grid=grid, t=t, values=vals)


def test_project_reproduces_constant_gaussian(slice_grid):
    t = 1.0
    sl = _gaussian_slice(slice_grid, t)
    out = bergman_project(sl, SIG1)
    err = slice_norm(
        FrequencySlice(grid=slice_grid, t=t, values=out.values - sl.values)
    )
    assert err / slice_norm(sl) < 1e-4


def test_project_annihilates_antiholomorphic(slice_grid):
    t = 1.0
    sl = _gaussian_slice(slice_grid, t, extra=lambda Z: np.conj(Z))
    out = bergman_project(sl, SIG1)
    assert slice_norm(out) / slice_norm(sl) < 1e-6


def test_project_zero_for_negative_t(slice_grid):
    # the weight's t is the slice's own: a slice labelled t <= 0 projects to zero
    sl = _gaussian_slice(slice_grid, 1.0)
    for t in (-1.0, 0.0):
        out = bergman_project(FrequencySlice(grid=slice_grid, t=t, values=sl.values), SIG1)
        assert out.t == t and out.grid == slice_grid
        assert np.all(out.values == 0)


def test_project_rejects_nonpositive_lambda(slice_grid):
    sl = _gaussian_slice(slice_grid, 1.0)
    for lam in (-1.0, 0.0):
        with pytest.raises(UsageError, match="all-positive"):
            bergman_project(sl, LambdaSignature((lam,)))


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


def _pattern(lams, J):
    return SignedWeightPattern(sig=LambdaSignature(lams), J=MultiIndex(J))


def test_monomial_integral_examples():
    # lambda = (-1), q = 0 pattern: exponent coefficient 2, value pi
    assert monomial_integral((0,), 1.0, _pattern((-1.0,), ())) == pytest.approx(np.pi)
    assert math.isinf(monomial_integral((0,), 1.0, _pattern((1.0,), ())))
    assert math.isinf(monomial_integral((0, 0), 1.0, _pattern((1.0, 0.0), (1,))))


def test_monomial_integral_closed_form_vs_truncation():
    pat = _pattern((-1.0, 0.5), (2,))  # c = (2*eta, ...) all positive for eta=1
    val = monomial_integral((1, 2), 1.0, pat)
    assert math.isfinite(val)
    approx = truncated_monomial_integral((1, 2), 1.0, pat, 9.0, points=96)
    assert approx == pytest.approx(val, rel=1e-8)


def test_finiteness_boundary_small_n():
    # finite for some eta != 0 iff the pattern sign vector s_j*sign(lam_j)
    # is constant across axes
    for n in (1, 2, 3):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            sig = LambdaSignature(signs)
            for q in range(n + 1):
                for J in itertools.combinations(range(1, n + 1), q):
                    pat = SignedWeightPattern(sig=sig, J=MultiIndex(J))
                    svec = [
                        (1 if (j in J) else -1) * (1 if signs[j - 1] > 0 else -1)
                        for j in range(1, n + 1)
                    ]
                    finite_any = any(
                        math.isfinite(monomial_integral((0,) * n, eta, pat))
                        for eta in (1.0, -1.0)
                    )
                    assert finite_any == (len(set(svec)) == 1)


def test_witness_requires_infinite():
    pat = _pattern((-1.0,), ())
    with pytest.raises(UsageError):
        divergence_witness((0,), 1.0, pat, (1.0, 2.0))


def test_witness_flat_case_matches_ball_volume():
    # eta = 0: integrand is 1, truncated integral = 2^n * vol(ball_R)
    pat = _pattern((1.0,), ())
    vals = divergence_witness((0,), 0.0, pat, (1.0, 2.0, 3.0))
    expect = [2.0 * np.pi * r**2 for r in (1.0, 2.0, 3.0)]
    assert np.allclose(vals, expect, rtol=1e-12)


def test_witness_growth_exponential_branch():
    pat = _pattern((1.0,), ())  # c = -2 for eta = 1: exponential divergence
    radii = default_radius_sweep((0,), 1.0, pat)
    assert radii == (1.0, 2.0, 3.0, 4.0, 5.0)
    vals = divergence_witness((0,), 1.0, pat, radii)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] / vals[0] > 1e3


def test_witness_zero_axis_polynomial_branch():
    pat = _pattern((0.0, 1.0), (2,))  # flat first axis, decaying second
    radii = default_radius_sweep((0, 0), 1.0, pat)
    assert radii[-1] == 50.0
    vals = divergence_witness((0, 0), 1.0, pat, radii)
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
    pat = _pattern(lams, J)
    radii = default_radius_sweep(alpha, eta, pat)
    vals = divergence_witness(alpha, eta, pat, radii)
    single = [truncated_monomial_integral(alpha, eta, pat, r) for r in radii]
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
    pat = _pattern((1.0,), ())
    with pytest.raises(UsageError):
        divergence_witness((0,), 1.0, pat, (2.0, 1.0))
