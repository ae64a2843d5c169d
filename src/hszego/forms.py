"""(0,q)-form machinery: tangential CR operators and residual systems,
component extraction, the block reflections to the auxiliary all-positive
structure (the reference the projector is tested against), assembly of the
general projector from the signed slice kernel, and the vanishing-evidence
classifier report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bergman import axis_coefficients, monomial_integral
from .core import (
    FormField,
    GridSpec,
    LambdaSignature,
    MultiIndex,
    ScalarField,
    UsageError,
    weighted_sq_sum,
)
from . import transform
# unused here; perfbench/spans.py wraps the scalar pipeline at this binding too
from .transform import scalar_pipeline_project  # noqa: F401

__all__ = [
    "apply_cr",
    "cr_system_residual",
    "reflect_to_hat",
    "szego_project_form",
    "vanishing_reason",
    "VanishingEntry",
    "vanishing_evidence",
    "multi_exponents",
]

_BOUNDARY_BAND = 2  # nodes excluded per spatial side by the 4th-order stencil


def _require_fd_grid(grid: GridSpec) -> None:
    if grid.spatial_points < 5 or grid.vertical_points < 5:
        raise UsageError("4th-order centered differences need >= 5 nodes per axis")


def _interior(n: int, m: int, planes: range) -> tuple[slice, ...]:
    """Block index: the given first-axis planes, interior on the other spatial axes."""
    band = slice(_BOUNDARY_BAND, m - _BOUNDARY_BAND)
    return (slice(planes.start, planes.stop),) + (band,) * (2 * n - 1) + (slice(None),)


def _stencil(p2, p1, m1, m2) -> np.ndarray:
    """12h times the 4th-order centered first derivative, from the nodes at +2h, +h, -h, -2h."""
    d = p1 - m1
    d *= 8.0
    d -= p2
    d += m2
    return d


def _block_d4(v: np.ndarray, block: tuple[slice, ...], ax: int) -> np.ndarray:
    """12h times the derivative along spatial axis ``ax`` on an interior block.

    Reads the two nodes of ``v`` beyond each end of the block along ``ax``.
    """

    def sh(k):
        s = list(block)
        s[ax] = slice(block[ax].start + k, block[ax].stop + k)
        return v[tuple(s)]

    return _stencil(sh(2), sh(1), sh(-1), sh(-2))


def _periodic_d4(vals: np.ndarray) -> np.ndarray:
    """12h times the derivative along the periodic last axis."""
    ext = np.concatenate((vals[..., -2:], vals, vals[..., :2]), axis=-1)
    return _stencil(ext[..., 4:], ext[..., 3:-1], ext[..., 1:-3], ext[..., :-4])


def _periodic_d4_symbol(N: int) -> np.ndarray:
    """The multiplier of :func:`_periodic_d4` on each FFT position of ``np.fft.ifft`` over N nodes.

    Position k is the coefficient of e^{-i theta_k x} with theta_k = 2 pi k / N,
    so a shift by one node multiplies it by e^{-i theta_k}.
    """
    theta = 2.0 * np.pi * np.arange(N) / N
    return 1j * (2.0 * np.sin(2.0 * theta) - 16.0 * np.sin(theta))


def _block_zj(x: np.ndarray, block: tuple[slice, ...], j: int) -> np.ndarray:
    """z_j on a block, broadcastable against the block's values."""
    parts = []
    for ax in (2 * (j - 1), 2 * (j - 1) + 1):
        shape = [1] * len(block)
        xa = x[block[ax]]
        shape[ax] = xa.size
        parts.append(xa.reshape(shape))
    return parts[0] + 1j * parts[1]


def _block_dz(v: np.ndarray, block: tuple[slice, ...], holomorphic: bool, j: int, hs: float):
    """d/dz_j (``holomorphic``) or d/dzbar_j of ``v`` on an interior block."""
    d = _block_d4(v, block, 2 * (j - 1))
    d_im = _block_d4(v, block, 2 * (j - 1) + 1)
    d_im *= -1j if holomorphic else 1j
    d += d_im
    d *= 0.5 / (12.0 * hs)
    return d


def _cr_term(v: np.ndarray, block: tuple[slice, ...], holomorphic: bool, lam: float, j: int,
             x: np.ndarray):
    """The spatial part of Z_j v (``holomorphic``) or Zbar_j v on ``block``, and its d/dx factor.

    ``lam`` is lambda_j, and ``j`` names the complex axis by the spatial axes
    2j - 2 and 2j - 1 of ``v``; the factor multiplies d/dx_last.
    """
    zj = _block_zj(x, block, j)
    r = _block_dz(v, block, holomorphic, j, float(x[1] - x[0]))
    return r, (-1j * lam * np.conj(zj) if holomorphic else 1j * lam * zj)


def apply_cr(
    field: ScalarField, J: MultiIndex, j: int, sig: LambdaSignature, planes: range
) -> np.ndarray:
    """Apply Z_j if j is in the label J, else Zbar_j: the field u_J solves on axis j.

    Z_j = d/dz_j - i*lam_j*zbar_j*d/dx_last; the hat structure's fields are
    those of ``sig.abs()``.  4th-order centered differences: spatial
    derivatives exist only off a 2-node boundary band, which residual norms
    exclude; the vertical derivative uses the periodic stencil.  The result
    holds the interior values on ``planes``, a unit-step range of interior
    planes of the first spatial axis, as an array of shape
    ``(len(planes),) + (m - 4,) * (2n - 1) + (N,)``, so a caller can stream
    the operator over the grid.
    """
    _require_fd_grid(field.grid)
    n = field.n
    if not 1 <= j <= n:
        raise UsageError(f"axis {j} outside 1..{n}")
    if sig.n != n:
        raise UsageError("signature dimension mismatch")
    grid = field.grid
    m = grid.spatial_points
    interior = range(_BOUNDARY_BAND, m - _BOUNDARY_BAND)
    if planes.step != 1 or planes.start < interior.start or planes.stop > interior.stop:
        raise UsageError(f"planes must be a unit-step range inside {interior}")
    v = field.values
    block = _interior(n, m, planes)
    r, coef = _cr_term(v, block, J.contains(j), sig.lambdas[j - 1], j, grid.spatial_nodes())
    d_v = _periodic_d4(v[block])
    d_v *= coef / (12.0 * grid.vertical_step)
    r += d_v
    return r


def cr_system_residual(u: ScalarField, J: MultiIndex, sig: LambdaSignature) -> float:
    """Interior residual of the tangential CR membership system of the component u_J.

    Z_j u_J must vanish for j in J and Zbar_j u_J for j not in J; the
    returned number is the root-sum-square of the interior norms of all
    these fields.

    The residual is streamed one interior plane of the first spatial axis at
    a time (``apply_cr``'s ``planes``), so it makes no full-grid temporary.
    """
    n = sig.n
    J.validate_bound(n)
    grid = u.grid
    # a grid too small for the stencil has no interior plane to visit
    _require_fd_grid(grid)
    m = grid.spatial_points
    w = grid.field_weight_array(n)
    acc = 0.0
    for i in range(_BOUNDARY_BAND, m - _BOUNDARY_BAND):
        plane = range(i, i + 1)
        wb = w[_interior(n, m, plane)[:-1]]
        for j in range(1, n + 1):
            acc += weighted_sq_sum(apply_cr(u, J, j, sig, plane), wb)
    return math.sqrt(acc)


def _slices_cr_sq(s: np.ndarray, J: MultiIndex, sig: LambdaSignature, x: np.ndarray,
                  wi: np.ndarray, d_x: np.ndarray) -> float:
    """:func:`cr_system_residual`'s squared sum, taken on frequency slices.

    ``s`` is (m,)*2n + (K,): the slices at K positions of ``np.fft.ifft`` of
    a field along its vertical axis, with the spatial axes as in the field.
    At each position the periodic stencil of :func:`apply_cr` multiplies by
    its symbol (:func:`_periodic_d4_symbol`), which ``d_x`` (K,) holds over
    12 times the vertical step, so each slice is taken alone.  Returns the
    sum over j and the slices of the interior |Z_j s|^2 (j in J) or
    |Zbar_j s|^2, weighted by the spatial weights ``wi`` of the interior
    block.  By Parseval, N dx times this sum over all N positions is the
    square of :func:`cr_system_residual`.

    For each j, axis j's two spatial axes are copied to the front, whole,
    with the others' interior behind them: the stencil then reads long
    contiguous runs, where the interior block of every axis has runs of
    m - 4 nodes.
    """
    n = sig.n
    band = slice(_BOUNDARY_BAND, x.size - _BOUNDARY_BAND)
    block = (band, band) + (slice(None),) * (2 * n - 1)
    wi = wi.reshape(-1)
    total = 0.0
    for j in range(1, n + 1):
        axes = (2 * j - 2, 2 * j - 1)
        inner = tuple(slice(None) if a in axes else band for a in range(2 * n))
        v = np.ascontiguousarray(np.moveaxis(s[inner], axes, (0, 1)))
        r, coef = _cr_term(v, block, J.contains(j), sig.lambdas[j - 1], 1, x)
        r += (coef * d_x) * v[block]
        del v
        # every spatial axis has the same weights, so the order of r's axes
        # does not change them
        f = r.view(np.float64)
        np.multiply(f, f, out=f)
        total += float((wi @ f.reshape(wi.size, -1)).sum())
    return total


def _slab_cr_sq(grid: GridSpec, J: MultiIndex, sig: LambdaSignature):
    """:func:`cr_system_residual`'s squared sum, taken a slab of frequency slices at a time.

    Checks the grid and sets the stencil up once, and returns
    ``add(total, slab, ks)``: ``total`` plus :func:`_slices_cr_sq` of the
    slices ``slab`` ((K,) + (m^2,)*n) at the FFT positions ``ks`` (K,).
    For n = 1 the slab is taken whole, for n >= 2 one slice at a time, which
    keeps the copies of the stencil to one slice's size.
    """
    # a grid too small for the stencil has no residual to report
    _require_fd_grid(grid)
    n, m = sig.n, grid.spatial_points
    x = grid.spatial_nodes()
    band = slice(_BOUNDARY_BAND, m - _BOUNDARY_BAND)
    wi = grid.spatial_weight_array(n)[(band,) * (2 * n)]
    d_x = _periodic_d4_symbol(grid.vertical_points) / (12.0 * grid.vertical_step)

    def add(total, slab, ks):
        k = ks.size if n == 1 else 1
        for lo in range(0, ks.size, k):
            s = np.moveaxis(slab[lo : lo + k].reshape((k,) + (m,) * (2 * n)), 0, -1)
            total += _slices_cr_sq(s, J, sig, x, wi, d_x[ks[lo : lo + k]])
        return total

    return add


# ---------------------------------------------------------------------------
# block reflections
# ---------------------------------------------------------------------------


def _flip_axes(values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    out = values
    for ax in axes:
        out = np.flip(out, axis=ax)
    return out


def _negate_vertical(values: np.ndarray) -> np.ndarray:
    # index map k -> (N - k) mod N, exact on the periodic vertical grid
    return np.roll(np.flip(values, axis=-1), 1, axis=-1)


def reflect_to_hat(field: ScalarField, which: str, sig: LambdaSignature) -> ScalarField:
    """Coordinate substitution mapping a structure block to the hat structure.

    ``minus_block`` conjugates the negative axes (z_j -> zbar_j); ``plus_block``
    conjugates the positive axes and negates the vertical coordinate.  Both
    are involutions realized as exact index permutations of the value array
    (the grids are symmetric axis-wise), so applying twice is bit-exact
    identity.  Around the all-positive scalar pipeline they give
    :func:`szego_project_form`'s branches, which tests check against.
    """
    if sig.degenerate:
        raise UsageError("reflection needs a non-degenerate signature")
    if which not in ("minus_block", "plus_block"):
        raise UsageError("which must be 'minus_block' or 'plus_block'")
    n = field.n
    if sig.n != n:
        raise UsageError("signature dimension mismatch")
    if which == "minus_block":
        axes = tuple(2 * (j - 1) + 1 for j in sig.negative_axes)
        return ScalarField(grid=field.grid, values=_flip_axes(field.values, axes))
    axes = tuple(2 * (j - 1) + 1 for j in sig.positive_axes)
    return ScalarField(
        grid=field.grid, values=_negate_vertical(_flip_axes(field.values, axes))
    )


# ---------------------------------------------------------------------------
# the (0,q) projector
# ---------------------------------------------------------------------------


def vanishing_reason(q: int, sig: LambdaSignature) -> str | None:
    """Why the degree-q projector is the zero operator, or None if it is not."""
    if sig.degenerate:
        return (
            "structure constant lambda_j = 0 for some j: the harmonic space is "
            "trivial and the projector is the zero operator"
        )
    if q not in (sig.n_minus, sig.n_plus):
        return (
            f"degree q={q} outside {{n_minus, n_plus}} = "
            f"{{{sig.n_minus}, {sig.n_plus}}}: the harmonic space is trivial and "
            "the projector is the zero operator"
        )
    return None


def component_side(J: MultiIndex, sig: LambdaSignature) -> int | None:
    """The side (+1 for t > 0, -1 for t < 0) whose slices serve the component J, or None.

    None when the projector annihilates u_J: ``sig`` is degenerate or J is
    the axes of neither side.  A form's labels all have length q, so this
    covers the structural zeros of q outside {n_minus, n_plus}.
    """
    if not sig.degenerate:
        for side in (1, -1):
            if J.entries == transform._side_axes(sig, side):
                return side
    return None


def szego_project_form(u: FormField, sig: LambdaSignature) -> FormField:
    """Orthogonal projector onto the degree-q harmonic space.

    The frequency pipeline projects each component that :func:`component_side`
    keeps on its side's bins with the signed slice kernel, one component at a
    time; the other components are annihilated.  :func:`reflect_to_hat`
    around the all-positive scalar pipeline is the reference tests compare
    against.
    """
    if u.components and sig.n != u.n:
        raise UsageError("signature dimension mismatch")
    out: dict[MultiIndex, ScalarField] = {}
    for J, comp in u.iter_components():
        side = component_side(J, sig)
        if side is not None:
            out[J] = transform._pipeline(u.grid, comp.values.copy(), sig, side, None, want_pu=True)[0]
    return FormField(grid=u.grid, q=u.q, components=out)


# ---------------------------------------------------------------------------
# vanishing evidence
# ---------------------------------------------------------------------------


def multi_exponents(n: int, max_total: int) -> list[tuple[int, ...]]:
    """All exponent tuples alpha with |alpha| <= max_total, lexicographic."""
    return [a for a in itertools.product(range(max_total + 1), repeat=n) if sum(a) <= max_total]


@dataclass(frozen=True)
class VanishingEntry:
    J: MultiIndex
    eta: float
    alpha: tuple[int, ...]
    value: float  # math.inf for divergent cases

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def vanishing_evidence(q: int, sig: LambdaSignature) -> tuple[VanishingEntry, ...]:
    """Classifier sweep behind the vanishing theorem.

    For each strictly increasing J of length q, both signs of the dual
    frequency (eta = +-1), and every |alpha| <= 2, classifies the weighted
    monomial integral.  When the signature is degenerate or q differs from
    both signature counts, every entry must come back Infinite.
    """
    n = sig.n
    if not 0 <= q <= n:
        raise UsageError(f"degree q={q} out of range 0..{n}")
    entries = []
    for combo in itertools.combinations(range(1, n + 1), q):
        J = MultiIndex(combo)
        for eta in (1.0, -1.0):
            c = axis_coefficients(sig, J, eta)
            for alpha in multi_exponents(n, 2):
                val = monomial_integral(alpha, c)
                entries.append(VanishingEntry(J=J, eta=eta, alpha=alpha, value=val))
    return tuple(entries)
