"""Slice-wise weighted Bergman projection on C^n with diagonal Gaussian
weight, the Gaussian reproducing identity, and the monomial-integral
finiteness classifier with its numerical divergence witness.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .core import (
    GridSpec,
    LambdaSignature,
    MultiIndex,
    UsageError,
    gauss_legendre_table,
)

__all__ = [
    "axis_coefficients",
    "bergman_project",
    "gaussian_reproducing_check",
    "monomial_integral",
    "truncated_monomial_integral",
    "divergence_witness",
    "default_radius_sweep",
    "gaussian_budget_window",
    "BUDGET_TOL",
]

#: pointwise tolerance defining the truncation/resolution budgets
BUDGET_TOL = 1e-10
_LOG_TOL = -math.log(BUDGET_TOL)


def axis_coefficients(sig: LambdaSignature, J: MultiIndex, eta: float) -> np.ndarray:
    """Per-axis coefficients c_j = 2*eta*s_j*lam_j of the weight e^{-sum c_j|z_j|^2}.

    s_j = +1 for j in J and -1 otherwise, so sum c_j|z_j|^2 is 2*eta times the
    signed form sum_{j in J} lam_j|z_j|^2 - sum_{j not in J} lam_j|z_j|^2.
    The monomial integrals below depend on the signature, J and eta only
    through these coefficients.
    """
    J.validate_bound(sig.n)
    signs = np.array([1.0 if J.contains(j) else -1.0 for j in range(1, sig.n + 1)])
    return 2.0 * eta * signs * np.asarray(sig.lambdas)


# ---------------------------------------------------------------------------
# slice projection
# ---------------------------------------------------------------------------


def bergman_project(values, t: float, grid: GridSpec, sig: LambdaSignature) -> np.ndarray:
    """Slice-level projection v(z) = integral K(z, w) u(w) dmu(w) by quadrature.

    ``values`` samples u on the spatial grid, shape ``grid.spatial_shape(n)``.
    K is the Bergman kernel of the weight t * sum(lam_j |w_j|^2),
    K(z, w) = (t^n/pi^n) * prod(lam) *
              exp(-t*sum lam_j|w_j-z_j|^2 - t*sum lam_j*(w_j zbar_j - wbar_j z_j)),
    for t > 0; it vanishes for t <= 0, and so does the projected slice.
    A copy of the slice is projected by the pipeline's slice step,
    :func:`_kernels.project_slice` with the :func:`_kernels.slice_operator` at t.
    """
    if not sig.all_positive():
        raise UsageError("Bergman weight needs an all-positive signature")
    n = sig.n
    out = np.array(values, dtype=np.complex128, order="C")
    if out.shape != grid.spatial_shape(n):
        raise UsageError(
            f"slice shape {out.shape} does not match grid spatial shape "
            f"{grid.spatial_shape(n)} of the signature's dimension"
        )
    if t <= 0:
        return np.zeros_like(out)
    m = grid.spatial_points
    op = _kernels.slice_operator(t, grid.spatial_nodes(), grid.spatial_axis_weights(), sig.lambdas)
    # the slice as (m^2,)*n is a view of ``out``: it is projected in place
    _kernels.project_slice(op, out.reshape((m * m,) * n), None, _kernels.slice_work(m, n))
    return out


# ---------------------------------------------------------------------------
# Gaussian reproducing identity
# ---------------------------------------------------------------------------


def _eval_poly(coeffs, axes, shape) -> np.ndarray:
    """Evaluate sum c_alpha z^alpha on an array of the given shape.

    ``axes[j]`` holds the values of z_j on an array that broadcasts to
    ``shape``, so each power is taken once per distinct value.  A term is
    filled with its coefficient and multiplied by the powers axis by axis,
    and the terms after the first are added to it: every value is the one
    that the same steps on a mesh of the full shape give.  Each product is
    made in the term's buffer with the power as the left factor: a complex
    product can round differently with its factors swapped (fused
    multiply-add), so the order is fixed, whatever the shape.
    """
    out = None
    for alpha, c in coeffs.items():
        term = np.full(shape, complex(c))
        for ax, a in enumerate(alpha):
            if a:
                np.multiply(axes[ax] ** a, term, out=term)
        if out is None:
            out = term
        else:
            out += term
    return np.zeros(shape, dtype=complex) if out is None else out


def gaussian_reproducing_check(
    polys, z, t: float, sig: LambdaSignature, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the Gaussian reproducing identity at the point z.

    For each polynomial g of ``polys`` (a sequence of {alpha: coefficient}
    maps):
    lhs = e^{-t*sum|lam||z|^2} g(z);
    rhs = (prod|lam|/pi^n) * t^n * integral e^{-t|lam||z-w|^2 - t lam(zbar w - z wbar)}
          e^{-t|lam||w|^2} g(w) dmu(w), evaluated by the grid quadrature.
    Holomorphic g with finite weighted norm must give lhs == rhs.  No mesh
    of the grid is built: w_j is one (Re, Im) plane of nodes broadcast along
    the other axes.  The kernel depends only on (t, z) and is built once per
    call, one row of the first grid axis at a time, so its exponent's
    temporaries stay one row long.  Each polynomial's values take one
    kernel-sized array, which is multiplied by the kernel and then the
    weights in place before the whole-array sum.
    """
    if t <= 0:
        raise UsageError(f"t must be > 0, got {t}")
    if not sig.all_positive():
        raise UsageError("reproducing identity check needs an all-positive signature")
    n = sig.n
    z = np.asarray(z, dtype=complex)
    if z.shape != (n,):
        raise UsageError("z must have the signature's dimension")
    lam = np.asarray(sig.lambdas)
    damp = np.exp(-t * np.sum(lam * np.abs(z) ** 2))
    plane = grid.complex_mesh(1)[..., 0]
    # w_j on grid axes (2j, 2j+1), broadcast along the others
    axes = [plane.reshape(plane.shape + (1,) * (2 * (n - 1 - j))) for j in range(n)]
    wts = grid.spatial_weight_array(n)
    K = np.empty(wts.shape, dtype=complex)
    # one row of w: w_1 is the row's line of its plane, w_2.. fill the rest
    row = np.empty(wts.shape[1:] + (n,), dtype=complex)
    for j in range(1, n):
        row[..., j] = axes[j]
    for i, line in enumerate(axes[0]):
        row[..., 0] = line
        expo = (
            -t * np.einsum("j,...j->...", lam, np.abs(row - z) ** 2)
            - t * np.einsum("j,...j->...", lam, np.conj(z) * row - z * np.conj(row))
            - t * np.einsum("j,...j->...", lam, np.abs(row) ** 2)
        )
        np.exp(expo, out=K[i])
    lhs, rhs = [], []
    for g_coeffs in polys:
        lhs.append(complex(damp * _eval_poly(g_coeffs, z[:, None], (1,))[0]))
        poly = _eval_poly(g_coeffs, axes, K.shape)
        np.multiply(poly, K, out=poly)
        np.multiply(poly, wts, out=poly)
        integ = np.sum(poly)
        # the next polynomial's values are made while this one's are held
        del poly
        rhs.append(complex((sig.product_abs() / math.pi**n) * t**n * integ))
    return np.array(lhs, dtype=complex), np.array(rhs, dtype=complex)


# ---------------------------------------------------------------------------
# monomial integrals: classifier, closed form, divergence witness
# ---------------------------------------------------------------------------


def _exponents(alpha, c) -> tuple[tuple[int, ...], np.ndarray]:
    """alpha as a tuple of ints and c as floats, checked against each other."""
    c = np.asarray(c, dtype=float)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != c.size or any(a < 0 for a in alpha):
        raise UsageError("alpha must be a length-n tuple of nonnegative integers")
    return alpha, c


def monomial_integral(alpha, c) -> float:
    """Classify/evaluate integral |z^alpha|^2 e^{-sum c_j|z_j|^2} dmu(z).

    ``c`` holds the per-axis coefficients (see :func:`axis_coefficients`).
    Returns ``math.inf`` when the integral diverges, i.e. when some
    c_j <= 0 (a zero lambda_j or eta == 0 gives c_j == 0); otherwise the
    closed-form value prod_j 2*pi*alpha_j! / c_j^(alpha_j+1), which carries
    the 2^n measure factor (2*pi per axis).
    """
    alpha, c = _exponents(alpha, c)
    if np.any(c <= 0):
        return math.inf
    val = 1.0
    for a, cj in zip(alpha, c):
        val *= 2.0 * math.pi * math.factorial(a) / cj ** (a + 1)
    return val


#: level-0 nodes of :func:`truncated_monomial_integral` evaluated at once, so
#: an n = 3 radius holds 8 x points^2 innermost nodes instead of points^3
_LEVEL0_BLOCK = 8


def truncated_monomial_integral(alpha, c, radius, points: int = 64):
    """The same integral restricted to the ball |z| <= radius.

    Per-axis polar reduction gives (2*pi)^n times an integral of
    prod rho_j^alpha_j e^{-c_j rho_j} over the simplex sum rho_j <= radius^2,
    evaluated by nested Gauss-Legendre quadrature, each level vectorized
    over the nodes of the levels above it.  Decaying axes are integrated
    only out to ~48 e-folds, which keeps the nodes where the integrand lives
    even on very large simplexes.  A scalar radius gives a float; an array
    of radii gives an array of the same shape, evaluated one radius at a
    time and, below the first level, _LEVEL0_BLOCK first-level nodes at a
    time: every sum runs along its own last axis, so the blocks change no
    value.  Radii must be > 0.
    """
    alpha, c = _exponents(alpha, c)
    n = c.size
    radius = np.asarray(radius, dtype=float)
    if not np.all(radius > 0):
        raise UsageError("radii must be positive")
    S = radius * radius
    x01, w01 = gauss_legendre_table(points, unit=True)

    def level_val(level: int, budget: np.ndarray) -> np.ndarray:
        cap = budget if c[level] <= 0 else np.minimum(budget, 48.0 / c[level])
        nodes = cap[..., None] * x01
        wts = cap[..., None] * w01
        f = nodes ** alpha[level] * np.exp(-c[level] * nodes)
        if level == n - 1:
            return np.sum(wts * f, axis=-1)
        rest = budget[..., None] - nodes
        if level == 0:
            inner = np.concatenate([
                level_val(1, rest[i:i + _LEVEL0_BLOCK]) for i in range(0, points, _LEVEL0_BLOCK)
            ])
        else:
            inner = level_val(level + 1, rest)
        return np.sum(wts * f * inner, axis=-1)

    vals = np.array([level_val(0, s) for s in S.reshape(-1)]).reshape(S.shape)
    val = (2.0 * math.pi) ** n * vals
    return float(val) if radius.ndim == 0 else val


def default_radius_sweep(c):
    """Radius sweep for the divergence witness of the coefficients ``c``.

    Exponentially divergent cases (some c_j < 0) grow past any threshold on
    (1..5); cases that diverge only polynomially (a zero coefficient from
    eta == 0 or a zero lambda) need the sweep extended.
    """
    if np.any(np.asarray(c) < 0):
        return (1.0, 2.0, 3.0, 4.0, 5.0)
    return (1.0, 2.0, 5.0, 10.0, 50.0)


def divergence_witness(alpha, c, radii) -> np.ndarray:
    """Truncated integrals over balls of the given radii for a divergent case.

    Only valid when :func:`monomial_integral` classified the case Infinite;
    calling it on a finite case is a usage error.  The returned sequence is
    strictly increasing, and grows without bound as the radii do.
    """
    if not math.isinf(monomial_integral(alpha, c)):
        raise UsageError("divergence_witness requires an Infinite classification")
    radii = tuple(float(r) for r in radii)
    if any(b <= a for a, b in zip(radii, radii[1:])) or any(r <= 0 for r in radii):
        raise UsageError("radii must be positive and strictly increasing")
    return truncated_monomial_integral(alpha, c, np.array(radii))


# ---------------------------------------------------------------------------
# discretization budgets
# ---------------------------------------------------------------------------


def gaussian_budget_window(grid: GridSpec, sig: LambdaSignature) -> tuple[float, float]:
    """Frequency window [t_floor, t_ceiling] the grid can handle at BUDGET_TOL.

    Below t_floor the Gaussian e^{-2 t lam_min R^2} truncates above the
    budget; above t_ceiling the kernel is undersampled (trapezoid error
    e^{-pi^2/(t lam_max h^2)} exceeds it).  Uses |lam|; signature signs do
    not matter for the widths.
    """
    lam = np.abs(np.asarray(sig.lambdas))
    lam_min, lam_max = float(np.min(lam)), float(np.max(lam))
    if lam_min == 0.0:
        return math.inf, 0.0
    R = grid.spatial_radius
    nodes = grid.spatial_nodes()
    h = float(np.max(np.diff(nodes)))
    # a product that underflows to 0 puts its bound at infinity
    den = 2.0 * lam_min * R * R
    t_floor = _LOG_TOL / den if den > 0 else math.inf
    den = _LOG_TOL * lam_max * h * h
    t_ceiling = math.pi**2 / den if den > 0 else math.inf
    return t_floor, t_ceiling
