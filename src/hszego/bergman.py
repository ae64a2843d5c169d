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
    "divergence_witnesses",
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


def _poly_sum(coeffs, table) -> complex:
    """sum_alpha c_alpha prod_j table[j][alpha_j] over the terms of ``coeffs``."""
    terms = (complex(c) * math.prod(table[j][a] for j, a in enumerate(alpha))
             for alpha, c in coeffs.items())
    return sum(terms, 0j)


def gaussian_reproducing_check(
    polys, z, t: float, sig: LambdaSignature, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the Gaussian reproducing identity at the point z.

    For each polynomial g of ``polys`` (a sequence of {alpha: coefficient}
    maps):
    lhs = e^{-t*sum|lam||z|^2} g(z);
    rhs = (prod|lam|/pi^n) * t^n * integral e^{-t|lam||z-w|^2 - t lam(zbar w - z wbar)}
          e^{-t|lam||w|^2} g(w) dmu(w), evaluated by the grid quadrature.
    Holomorphic g with finite weighted norm must give lhs == rhs.  The
    kernel, the tensor weights and each monomial are products over the
    complex axes, so the 2n-dimensional sum factors exactly: per axis j and
    degree a the plane sum I_j[a] = sum_w K_j(w) w^a W_j(w) is taken once
    over that axis' (Re, Im) plane of nodes, and
    rhs = (prod|lam|/pi^n) * t^n * sum_alpha c_alpha prod_j I_j[alpha_j].
    That is n * (deg + 1) sums over m^2 nodes; no array over the whole grid
    is made.  The values agree with the sum over the full mesh to roundoff.
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
    deg = max((a for g in polys for alpha in g for a in alpha), default=0)
    plane = grid.complex_mesh(1)[..., 0]
    powers = plane ** np.arange(deg + 1)[:, None, None]
    wplane = grid.spatial_weight_array(1)
    plane_sums, z_powers = [], []
    for j in range(n):
        K = np.exp(
            -t * lam[j] * np.abs(plane - z[j]) ** 2
            - t * lam[j] * (np.conj(z[j]) * plane - z[j] * np.conj(plane))
            - t * lam[j] * np.abs(plane) ** 2
        )
        plane_sums.append(np.sum(powers * (K * wplane), axis=(1, 2)))
        z_powers.append(z[j] ** np.arange(deg + 1))
    scale = (sig.product_abs() / math.pi**n) * t**n
    lhs = [damp * _poly_sum(g_coeffs, z_powers) for g_coeffs in polys]
    rhs = [scale * _poly_sum(g_coeffs, plane_sums) for g_coeffs in polys]
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


def _level(a, cj, budget, x01, w01):
    """One quadrature level at the budgets ``budget``: its caps, and its
    weighted integrand wts * rho^a e^{-cj rho} at its nodes rho = cap * x01."""
    cap = budget if cj <= 0 else np.minimum(budget, 48.0 / cj)
    nodes = cap[..., None] * x01
    wts = cap[..., None] * w01
    return cap, wts * (nodes**a * np.exp(-cj * nodes))


def _levels(alpha, c, budget, x01, w01, memo):
    """The nested quadrature over the levels ``alpha``/``c`` at each budget.

    The levels below go through ``memo``, keyed on their exponents and
    coefficients and on this level's budgets and caps, which fix theirs: a
    recurring key is summed once.
    """
    cap, wf = _level(alpha[0], c[0], budget, x01, w01)
    if len(alpha) > 1:
        key = (alpha[1:], c[1:].tobytes(), budget.tobytes(), cap.tobytes())
        if key not in memo:
            rest = budget[..., None] - cap[..., None] * x01
            memo[key] = _levels(alpha[1:], c[1:], rest, x01, w01, memo)
        wf = wf * memo[key]
    return np.sum(wf, axis=-1)


def _radii_sums(alpha, c, S, x01, w01, memo):
    """(2*pi)^n times the nested quadrature at each squared radius of ``S``.

    Below the first level the budgets are taken _LEVEL0_BLOCK first-level
    nodes at a time, and each block's levels go through ``memo``, keyed on
    the block's budgets.
    """
    vals = []
    for s in S.reshape(-1):
        cap, wf = _level(alpha[0], c[0], s, x01, w01)
        if c.size > 1:
            rest = s - cap * x01
            inner = []
            for i in range(0, rest.size, _LEVEL0_BLOCK):
                block = rest[i:i + _LEVEL0_BLOCK]
                key = (alpha[1:], c[1:].tobytes(), block.tobytes())
                if key not in memo:
                    memo[key] = _levels(alpha[1:], c[1:], block, x01, w01, memo)
                inner.append(memo[key])
            wf = wf * np.concatenate(inner)
        vals.append(np.sum(wf, axis=-1))
    return (2.0 * math.pi) ** c.size * np.array(vals).reshape(S.shape)


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
    value, and a block whose levels recur is summed once.  Radii must be > 0.
    """
    alpha, c = _exponents(alpha, c)
    radius = np.asarray(radius, dtype=float)
    if not np.all(radius > 0):
        raise UsageError("radii must be positive")
    x01, w01 = gauss_legendre_table(points, unit=True)
    val = _radii_sums(alpha, c, radius * radius, x01, w01, {})
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
    strictly increasing, and grows without bound as the radii do.  The
    values are those of :func:`truncated_monomial_integral` at the radii.
    """
    return divergence_witnesses([(alpha, c, radii)])[0]


def divergence_witnesses(cases) -> list[np.ndarray]:
    """:func:`divergence_witness` of each ``(alpha, c, radii)`` of ``cases``, in order.

    The levels below the first depend only on their budgets and on the
    exponents and coefficients of the axes after the first, and witnesses
    share many of them: those that differ only in their first axis share
    every level below it, and where a level's cap is its budget the levels
    below it recur across its own exponent and coefficient.  One memo
    serves the whole call, so each distinct level is summed once.  Every sum
    runs along its own last axis, so each witness is bit for bit the one
    :func:`truncated_monomial_integral` gives its case alone.
    """
    # the rule of truncated_monomial_integral's default points
    x01, w01 = gauss_legendre_table(64, unit=True)
    memo = {}
    out = []
    for alpha, c, radii in cases:
        if not math.isinf(monomial_integral(alpha, c)):
            raise UsageError("divergence_witness requires an Infinite classification")
        radii = tuple(float(r) for r in radii)
        if any(b <= a for a, b in zip(radii, radii[1:])) or any(r <= 0 for r in radii):
            raise UsageError("radii must be positive and strictly increasing")
        alpha, c = _exponents(alpha, c)
        out.append(_radii_sums(alpha, c, np.square(radii), x01, w01, memo))
    return out


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
