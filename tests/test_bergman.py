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
from hszego import bergman
from hszego.config import RunConfig
from hszego.core import gauss_legendre_table
from hszego.forms import multi_exponents
from hszego.verification import c11_vanishing

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


def _ref_eval_poly(coeffs, pts):
    # each product in the term's buffer, the power the left factor
    out = np.zeros(pts.shape[:-1], dtype=complex)
    for alpha, c in coeffs.items():
        term = np.full(pts.shape[:-1], complex(c))
        for ax, a in enumerate(alpha):
            if a:
                np.multiply(pts[..., ax] ** a, term, out=term)
        out += term
    return out


def _mesh_kernel(z, t, sig, grid):
    """The complex mesh W, the check's kernel on it and the lhs damping."""
    lam = np.asarray(sig.lambdas)
    damp = np.exp(-t * np.sum(lam * np.abs(z) ** 2))
    W = grid.complex_mesh(sig.n)
    K = np.empty(W.shape[:-1], dtype=complex)
    for i, Wi in enumerate(W):
        expo = (
            -t * np.einsum("j,...j->...", lam, np.abs(Wi - z) ** 2)
            - t * np.einsum("j,...j->...", lam, np.conj(z) * Wi - z * np.conj(Wi))
            - t * np.einsum("j,...j->...", lam, np.abs(Wi) ** 2)
        )
        np.exp(expo, out=K[i])
    return W, K, damp


def _ref_reproducing_check(polys, z, t, sig, grid):
    # the check on the whole complex mesh, with the polynomials evaluated
    # over it and each product an explicit in-place one: the values the
    # per-axis plane sums must reproduce to roundoff
    n = sig.n
    z = np.asarray(z, dtype=complex)
    W, K, damp = _mesh_kernel(z, t, sig, grid)
    wts = grid.spatial_weight_array(n)
    lhs, rhs = [], []
    for g_coeffs in polys:
        lhs.append(complex(damp * _ref_eval_poly(g_coeffs, z[None, :])[0]))
        poly = _ref_eval_poly(g_coeffs, W)
        np.multiply(poly, K, out=poly)
        np.multiply(poly, wts, out=poly)
        rhs.append(complex((sig.product_abs() / math.pi**n) * t**n * np.sum(poly)))
    return np.array(lhs, dtype=complex), np.array(rhs, dtype=complex)


def _c04_polys(n):
    # C04's monomials, and one polynomial whose terms are added up
    polys = [{alpha: 1.0 + 0.0j} for alpha in multi_exponents(n, 4)]
    return polys + [{(0,) * n: 0.5 - 1.0j, (1,) * n: 2.0, (2,) + (0,) * (n - 1): -0.25j}]


@pytest.mark.parametrize(
    "sig, grid, t, polys, zs",
    [
        # C04's two cases at each of its t
        pytest.param(SIG1, GridSpec(6.5 / math.sqrt(t), 41, 1.0, 4), t, _c04_polys(1),
                     [np.array([0.0j]), np.array([0.7 - 0.4j])], id=f"{t}-n1")
        for t in (0.5, 1.0, 2.0)
    ] + [
        pytest.param(LambdaSignature((1.0, 1.0)), GridSpec(6.5 / math.sqrt(2 * t), 25, 1.0, 4), t,
                     _c04_polys(2), [np.zeros(2, complex), np.array([0.5 - 0.3j, -0.4 + 0.6j])],
                     id=f"{t}-n2")
        for t in (0.5, 1.0, 2.0)
    ] + [
        # a mixed signature and polynomials of several terms, on an odd and an even grid
        pytest.param(LambdaSignature((1.0, 0.6)), GridSpec(4.0, m, 1.0, 4), 1.3,
                     [{(1, 2): 0.3 + 0.1j}, {(2, 1): 1.0, (0, 3): -0.5j}],
                     [np.array([0.5 - 0.3j, -0.4j])], id=f"1.3-m{m}")
        for m in (11, 12)
    ],
)
def test_reproducing_check_matches_the_mesh_evaluation_to_roundoff(sig, grid, t, polys, zs):
    # the check sums per axis where the mesh sums the whole grid at once: the
    # order of the sums differs, so the two agree to roundoff, on C04's scale
    for z in zs:
        lhs, rhs = gaussian_reproducing_check(polys, z, t, sig, grid)
        want_lhs, want_rhs = _ref_reproducing_check(polys, z, t, sig, grid)
        scale = 1e-14 * (1.0 + np.abs(want_lhs))
        assert np.all(np.abs(lhs - want_lhs) <= scale), z
        assert np.all(np.abs(rhs - want_rhs) <= scale), z


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


def _ref_truncated_integral(alpha, c, radius, points=64):
    # the nested quadrature with each level over every node of the levels
    # above it at once: the values the blocked evaluation must reproduce
    c = np.asarray(c, dtype=float)
    n = c.size
    radius = np.asarray(radius, dtype=float)
    x01, w01 = gauss_legendre_table(points, unit=True)

    def level_val(level, budget):
        cap = budget if c[level] <= 0 else np.minimum(budget, 48.0 / c[level])
        nodes = cap[..., None] * x01
        wts = cap[..., None] * w01
        f = nodes ** alpha[level] * np.exp(-c[level] * nodes)
        if level == n - 1:
            return np.sum(wts * f, axis=-1)
        inner = level_val(level + 1, budget[..., None] - nodes)
        return np.sum(wts * f * inner, axis=-1)

    S = radius * radius
    vals = np.array([level_val(0, s) for s in S.reshape(-1)]).reshape(S.shape)
    val = (2.0 * math.pi) ** n * vals
    return float(val) if radius.ndim == 0 else val


@pytest.mark.parametrize("points", [64, 96])
@pytest.mark.parametrize(
    "alpha, c",
    [
        ((2,), (1.4,)),
        ((0,), (-0.6,)),
        ((1, 2), (2.0, 1.0)),
        ((0, 1), (0.0, 1.4)),
        ((1, 0, 2), (1.4, -0.6, 2.0)),
        ((0, 1, 0), (2.6, 1.0, 1.4)),
        ((1, 0, 0), (0.0, 2.0, -2.0)),
    ],
    ids=["n1", "n1-growing", "n2", "n2-flat", "n3", "n3-finite", "n3-flat"],
)
def test_truncated_integral_matches_the_unblocked_recursion_exactly(alpha, c, points):
    for radius in (2.0, 8.0, np.array([1.0, 5.0]), np.array([[1.0, 2.0], [3.0, 5.0]])):
        got = truncated_monomial_integral(alpha, c, radius, points=points)
        want = _ref_truncated_integral(alpha, c, radius, points=points)
        assert type(got) is type(want)
        assert np.array_equal(got, want), (radius, got, want)


@pytest.mark.parametrize(
    "alpha, c",
    [((1,), (1.0, 2.0)), ((1, 0, 3), (1.0, 2.0)), ((-1, 0), (1.0, 2.0))],
    ids=["short", "long", "negative"],
)
def test_truncated_integral_rejects_a_bad_alpha(alpha, c):
    with pytest.raises(UsageError, match="length-n tuple of nonnegative"):
        truncated_monomial_integral(alpha, c, 2.0)


@pytest.mark.parametrize("radius", [-2.0, 0.0, np.array([1.0, -2.0]), np.nan], ids=str)
def test_truncated_integral_rejects_a_nonpositive_radius(radius):
    with pytest.raises(UsageError, match="radii must be positive"):
        truncated_monomial_integral((1, 0), (1.0, 2.0), radius)


@pytest.mark.parametrize(
    "alpha, c",
    [((0, 1, 1), _coeffs((1.0, 0.7, -1.3), (1, 3), 1.0)), ((0, 0), _coeffs((0.0, 1.0), (2,), 1.0))],
    ids=["n3-exponential", "zero-axis"],
)
def test_witness_at_the_sweep_ends_is_the_sweeps_first_and_last(alpha, c):
    # C11b reads only vals[-1] / vals[0]: the two end radii alone give them
    sweep = default_radius_sweep(c)
    ends = divergence_witness(alpha, c, (sweep[0], sweep[-1]))
    full = divergence_witness(alpha, c, sweep)
    assert ends[0] == full[0] and ends[1] == full[-1]


def test_c11_witnesses_share_inner_levels_and_match_each_case_alone(monkeypatch):
    # C11 evaluates its witnesses in one batch whose levels below the first
    # are summed once each: the n = 3 cases' 300 radii would sum 8 blocks of
    # innermost nodes each, and they sum fewer than half of those 2400.  Each
    # witness must still be, bit for bit, the truncated integral of its case
    seen, innermost = [], []
    batch, level = bergman.divergence_witnesses, bergman._level

    def counted_level(a, cj, budget, x01, w01):
        # only an n = 3 case's innermost level has a 2-d block of budgets
        innermost.append(np.ndim(budget) == 2)
        return level(a, cj, budget, x01, w01)

    def recorded(cases):
        monkeypatch.setattr(bergman, "_level", counted_level)
        vals = batch(cases)
        monkeypatch.setattr(bergman, "_level", level)
        seen.extend(zip(cases, vals))
        return vals

    monkeypatch.setattr(bergman, "divergence_witnesses", recorded)
    c11_vanishing(RunConfig())
    n3 = [(case, vals) for case, vals in seen if len(case[0]) == 3]
    assert len(n3) == 150
    radii = sum(len(case[2]) for case, _ in n3)
    assert 0 < sum(innermost) < 8 * radii // 2
    for (alpha, c, radii), vals in seen:
        want = truncated_monomial_integral(alpha, c, np.array(radii))
        assert np.array_equal(vals, want), (alpha, c, radii)


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
