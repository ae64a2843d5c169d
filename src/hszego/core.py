"""Shared domain types, measure conventions, and grid/quadrature descriptors.

Conventions used throughout the package
---------------------------------------
* A point of H = C^n x R is x = (z, x_last) with z_j = x_{2j-1} + i*x_{2j}.
* The volume form carries a factor 2^n:  dmu_H = 2^n dx_1 ... dx_{2n+1}, and the
  spatial measure on C^n is dmu(z) = 2^n dx_1 ... dx_{2n}.  That factor lives in
  the quadrature weights produced here and nowhere else.
* Grids are axis-uniform tensor products.  Spatial axes are closed symmetric
  intervals [-R, R]; the vertical axis is periodic with nodes -R_v + k*h_v,
  k = 0..N-1, so the fast transform applies.
* The frequency axis consists of the discrete Fourier bins of the vertical
  axis.  Its orientation: the slice at frequency t stores the vertical
  transform integral(e^{+i t x} u(z, x) dx); equivalently, with the analysis
  transform u_hat(z, eta) = integral(e^{-i x eta} u dx), the slice at t is
  u_hat(z, -t).  Positive-t slices are where holomorphic (Hardy) content
  lives when all structure constants are positive.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "UsageError",
    "DomainError",
    "BudgetError",
    "LambdaSignature",
    "HeisenbergPoint",
    "MultiIndex",
    "GridSpec",
    "finite_float",
    "text_value",
    "ScalarField",
    "FormField",
    "inner",
    "norm",
    "form_inner",
    "form_norm",
    "weighted_sq_sum",
    "rel_norm",
    "composite_gauss_legendre",
    "gauss_legendre_table",
    "PANEL_NODES",
]

class UsageError(ValueError):
    """Caller violated a precondition (bad arguments, mismatched grids)."""


class DomainError(ValueError):
    """Mathematically undefined request (e.g. kernel of a degenerate structure)."""


class BudgetError(RuntimeError):
    """A quantitative discretization budget is violated.

    ``budget_name`` identifies which budget; the message carries the numbers.
    """

    def __init__(self, budget_name: str, message: str):
        super().__init__(message)
        self.budget_name = budget_name


# ---------------------------------------------------------------------------
# signature / points / multi-indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaSignature:
    """The vector of structure constants (lambda_1, ..., lambda_n).

    Signature counts are derived on construction: ``n_minus``/``n_plus`` count
    strictly negative/positive entries and ``degenerate`` flags a zero entry.
    """

    lambdas: tuple[float, ...]
    n_minus: int = field(init=False)
    n_plus: int = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambdas)
        if len(lams) == 0:
            raise UsageError("signature needs at least one entry")
        if not all(math.isfinite(v) for v in lams):
            raise UsageError(f"structure constants must be finite, got {lams}")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "n_minus", sum(1 for v in lams if v < 0))
        object.__setattr__(self, "n_plus", sum(1 for v in lams if v > 0))
        object.__setattr__(self, "degenerate", any(v == 0 for v in lams))

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def negative_axes(self) -> tuple[int, ...]:
        """1-based axes with negative entries, ascending."""
        return tuple(j + 1 for j, v in enumerate(self.lambdas) if v < 0)

    @property
    def positive_axes(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, v in enumerate(self.lambdas) if v > 0)

    def abs(self) -> "LambdaSignature":
        """The auxiliary all-positive signature |lambda_j| (the hat structure)."""
        return LambdaSignature(tuple(abs(v) for v in self.lambdas))

    def all_positive(self) -> bool:
        return self.n_plus == self.n

    def product_abs(self) -> float:
        return float(np.prod([abs(v) for v in self.lambdas]))

    def c0(self) -> float:
        """Constant c0 = |lambda_1|...|lambda_n| / (2*pi^(n+1)) of the projector kernel."""
        return self.product_abs() / (2.0 * math.pi ** (self.n + 1))


@dataclass(frozen=True)
class HeisenbergPoint:
    """A point x = (z, x_last) of C^n x R."""

    z: tuple[complex, ...]
    x_last: float

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(complex(v) for v in self.z))
        object.__setattr__(self, "x_last", float(self.x_last))

    @property
    def n(self) -> int:
        return len(self.z)


@dataclass(frozen=True, order=True)
class MultiIndex:
    """A strictly increasing multi-index with 1-based entries.

    The empty index (q = 0, scalar component) is allowed.
    """

    entries: tuple[int, ...] = ()

    def __post_init__(self):
        ent = tuple(int(v) for v in self.entries)
        if any(v < 1 for v in ent):
            raise UsageError(f"multi-index entries must be >= 1, got {ent}")
        if any(a >= b for a, b in zip(ent, ent[1:])):
            raise UsageError(f"multi-index must be strictly increasing, got {ent}")
        object.__setattr__(self, "entries", ent)

    @property
    def q(self) -> int:
        return len(self.entries)

    def contains(self, axis: int) -> bool:
        return axis in self.entries

    def validate_bound(self, n: int) -> None:
        if any(v > n for v in self.entries):
            raise UsageError(f"multi-index {self.entries} exceeds dimension n={n}")

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.entries) + ")"


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def finite_float(text: str) -> float:
    """Parse a config or header number; ``ValueError`` unless it is finite."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return v


def _point_count(text: str) -> int:
    digits = text.strip()
    # int() would also take signs, underscores and non-ASCII digits
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{digits!r} is not a decimal point count")
    v = int(digits)
    if v < 2:
        raise ValueError(f"point count {v} is not >= 2")
    return v


def _radius(text: str) -> float:
    v = finite_float(text)
    if v <= 0:
        raise ValueError(f"radius {v} is not > 0")
    if v < sys.float_info.min:
        raise ValueError(f"radius {v} is below the smallest normal float")
    return v


@dataclass(frozen=True)
class GridSpec:
    """Axis-uniform tensor grid and quadrature descriptor.

    ``spatial_points`` counts nodes per real spatial axis on the closed box
    [-spatial_radius, spatial_radius], weighted by the uniform trapezoid
    rule.  The vertical axis is periodic with ``vertical_points`` nodes of
    spacing 2*vertical_radius/vertical_points.  The frequency axis is the vertical axis' Fourier-bin axis; ``freq_max``
    and ``freq_points`` are derived from it.
    """

    spatial_radius: float
    spatial_points: int
    vertical_radius: float
    vertical_points: int

    def __post_init__(self):
        if self.spatial_points < 2 or self.vertical_points < 2:
            raise UsageError("all point counts must be >= 2")
        if not all(0 < r < math.inf for r in (self.spatial_radius, self.vertical_radius)):
            raise UsageError("all radii must be finite and > 0")

    # -- nodes ---------------------------------------------------------------

    def spatial_nodes(self) -> np.ndarray:
        """Per-axis spatial nodes, exactly antisymmetric about 0."""
        m, R = self.spatial_points, self.spatial_radius
        h = 2.0 * R / (m - 1)
        return (np.arange(m) - (m - 1) / 2.0) * h

    def spatial_axis_weights(self) -> np.ndarray:
        """Per-axis 1-D trapezoid weights (no 2^n factor)."""
        m, R = self.spatial_points, self.spatial_radius
        h = 2.0 * R / (m - 1)
        w = np.full(m, h)
        w[0] = w[-1] = h / 2.0
        return w

    def complex_mesh(self, n: int) -> np.ndarray:
        """Complex coordinates z_j = x_(2j-1) + i*x_(2j) of the spatial grid.

        Shape (*spatial_shape(n), n); flat callers reshape to (-1, n).
        """
        x = self.spatial_nodes()
        out = np.empty((x.size,) * (2 * n) + (n,), dtype=np.complex128)
        for j in range(n):
            # the node vector broadcast along real axis 2j, then along 2j+1
            out[..., j].real = x.reshape((-1,) + (1,) * (2 * n - 1 - 2 * j))
            out[..., j].imag = x.reshape((-1,) + (1,) * (2 * n - 2 - 2 * j))
        return out

    def vertical_nodes(self) -> np.ndarray:
        N = self.vertical_points
        h = self.vertical_step
        return (np.arange(N) - N // 2) * h

    @property
    def vertical_step(self) -> float:
        return 2.0 * self.vertical_radius / self.vertical_points

    # -- frequency axis --------------------------------------------------------

    @property
    def freq_step(self) -> float:
        return math.pi / self.vertical_radius

    @property
    def freq_points(self) -> int:
        return self.vertical_points

    @property
    def freq_max(self) -> float:
        return (self.vertical_points // 2) * self.freq_step

    def freq_bins(self) -> np.ndarray:
        """Integer bin labels j, ascending; frequencies are j * freq_step."""
        N = self.vertical_points
        return np.arange(-(N // 2), N - N // 2)

    def freq_nodes(self) -> np.ndarray:
        return self.freq_bins() * self.freq_step

    # -- assembled weights ------------------------------------------------------

    def spatial_weight_array(self, n: int) -> np.ndarray:
        """Tensor weights over the 2n spatial axes, including the 2^n factor."""
        w1 = self.spatial_axis_weights()
        out = np.array(2.0**n)
        for _ in range(2 * n):
            out = np.multiply.outer(out, w1)
        return out

    def field_weight_array(self, n: int) -> np.ndarray:
        """Weights of a field's 2n spatial axes (with 2^n) times the vertical step.

        The vertical weight is the same at every node, so a field's full-grid
        quadrature sums its vertical axis first and then weights with these.
        """
        return self.spatial_weight_array(n) * self.vertical_step

    #: the grid's ``prefix.key`` names in config files and field-file headers, in the
    #: order they are written and read, with parsers that check what __post_init__ does
    TEXT_KEYS = (
        ("spatial_radius", _radius),
        ("spatial_points", _point_count),
        ("vertical_radius", _radius),
        ("vertical_points", _point_count),
    )

    def text_lines(self, prefix: str) -> list[str]:
        """The grid as ``prefix.key = value`` lines (see :func:`text_value`)."""
        return [
            f"{prefix}.{name} = {text_value(getattr(self, name))}" for name, _ in self.TEXT_KEYS
        ]

    def require_addressable(self, n: int, where: str) -> None:
        """Raise :class:`UsageError` when a dimension-n field has more bytes than numpy addresses.

        ``where`` names the text that set the grid (``config keys``,
        ``field file header``); the message names its two point counts.
        """
        m, N = self.spatial_points, self.vertical_points
        if 16 * m ** (2 * n) * N > np.iinfo(np.intp).max:
            raise UsageError(
                f"{where} 'grid.spatial_points' and 'grid.vertical_points': a field of "
                f"{m}^{2 * n} x {N} points has more bytes than numpy can address"
            )

    def spatial_shape(self, n: int) -> tuple[int, ...]:
        return (self.spatial_points,) * (2 * n)

    def field_shape(self, n: int) -> tuple[int, ...]:
        return self.spatial_shape(n) + (self.vertical_points,)


def text_value(v) -> str:
    """Config and field-file text of a value: tuples comma-joined, else repr."""
    if isinstance(v, tuple):
        return ",".join(text_value(x) for x in v)
    return repr(v)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _lock(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A sampled scalar function on the full grid (spatial axes, then vertical)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = _lock(self.values)
        ndim = v.ndim
        if ndim < 3 or ndim % 2 == 0:
            raise UsageError(f"scalar field needs 2n+1 axes, got shape {v.shape}")
        n = (ndim - 1) // 2
        if v.shape != self.grid.field_shape(n):
            raise UsageError(
                f"field shape {v.shape} does not match grid shape {self.grid.field_shape(n)}"
            )
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return (self.values.ndim - 1) // 2


@dataclass(frozen=True, eq=False)
class FormField:
    """A (0,q)-form: strictly increasing multi-indices -> scalar component fields."""

    grid: GridSpec
    q: int
    components: Mapping[MultiIndex, ScalarField]

    def __post_init__(self):
        comps = dict(self.components)
        for J, f in comps.items():
            if J.q != self.q:
                raise UsageError(f"component {J} has length {J.q}, expected q={self.q}")
            if f.grid != self.grid:
                raise UsageError(f"component {J} lives on a different grid")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        for f in self.components.values():
            return f.n
        raise UsageError("empty form has no intrinsic dimension; keep a zero component")

    def iter_components(self) -> Iterator[tuple[MultiIndex, ScalarField]]:
        return iter(sorted(self.components.items()))


# ---------------------------------------------------------------------------
# inner products and generic quadrature
# ---------------------------------------------------------------------------


def inner(u: ScalarField, v: ScalarField) -> complex:
    """Discrete L^2 pairing (u | v) = sum u * conj(v) * weights."""
    if u.grid != v.grid or u.n != v.n:
        raise UsageError("inner product needs fields on one grid")
    w = u.grid.field_weight_array(u.n)
    return complex(np.sum(np.sum(u.values * np.conj(v.values), axis=-1) * w))


def weighted_sq_sum(x: np.ndarray, w: np.ndarray, y: np.ndarray | None = None) -> float:
    """Weighted sum of |x - y|^2 (of |x|^2 without ``y``) over every node of ``x``.

    ``w`` weights the leading ``w.ndim`` axes of ``x``; any trailing axes
    (the vertical axis of a field, see :meth:`GridSpec.field_weight_array`)
    are summed first.  The sum runs one index of the first axis at a time, so it makes
    no temporary the size of ``x``.
    """
    total = 0.0
    for i in range(x.shape[0]):
        d = np.ascontiguousarray(x[i] if y is None else x[i] - y[i])
        f = d.view(np.float64).reshape(w[i].size, -1)
        total += float(np.einsum("ij,ij->i", f, f) @ w[i].reshape(-1))
    return total


def norm(u: ScalarField) -> float:
    return math.sqrt(weighted_sq_sum(u.values, u.grid.field_weight_array(u.n)))


def rel_norm(a, b, w: np.ndarray) -> float:
    """Weighted relative L^2 distance ||a - b||_w / ||b||_w of two sampled arrays.

    ``w`` weights the leading axes of each array and trailing axes are
    summed unweighted: a field takes ``grid.field_weight_array(n)``, a
    frequency slice ``grid.spatial_weight_array(n)``.
    """
    return float(np.sqrt(weighted_sq_sum(a, w, b)) / np.sqrt(weighted_sq_sum(b, w)))


def form_inner(u: FormField, v: FormField) -> complex:
    if u.grid != v.grid or u.q != v.q:
        raise UsageError("form inner product needs forms of one degree on one grid")
    keys = set(u.components) & set(v.components)
    total = 0.0 + 0.0j
    for J in sorted(keys):
        total += inner(u.components[J], v.components[J])
    return total


def form_norm(u: FormField) -> float:
    return math.sqrt(sum(norm(f) ** 2 for f in u.components.values()))


@functools.lru_cache(maxsize=None)
def gauss_legendre_table(points: int, unit: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], or on [0, 1] when ``unit``.

    Each table is built once and shared, so the arrays are read-only.
    """
    if unit:
        x, w = gauss_legendre_table(points)
        x, w = 0.5 * (x + 1.0), 0.5 * w
    else:
        x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# nodes per panel of composite_gauss_legendre; the direct kernel route steps
# its exponentials from one panel to the next by this stride
PANEL_NODES = 16


def composite_gauss_legendre(
    a: float, b: float, total_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b] with >= total_points nodes.

    Equal-width panels of PANEL_NODES nodes each, panel by panel, so node
    k*PANEL_NODES + j sits at the first panel's node j plus k panel widths.
    """
    panels = max(1, -(-int(total_points) // PANEL_NODES))
    xg, wg = gauss_legendre_table(PANEL_NODES)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (half[:, None] * xg[None, :] + mid[:, None]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights
