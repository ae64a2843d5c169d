"""Partial Fourier transform along the vertical axis, the frequency-sliced
scalar projector pipeline, wave-packet synthesis, the frequency-domain
pairing, and the direct dense-kernel oracle the pipeline is checked against.

Transform conventions (fixed here, asserted by tests):

* forward:  slice_t(z) = integral e^{+i t x} u(z, x) dx      (no prefactor)
* inverse:  u(z, x)    = (1/(2*pi)) integral e^{-i t x} slice_t(z) dt

With the analysis transform u_hat(z, eta) = integral e^{-i x eta} u dx this
means slice_t = u_hat(., -t): positive-t slices carry the holomorphic (Hardy)
content for all-positive signatures, and the Gaussian-weight projector is
supported on t > 0.  On the periodic vertical grid both directions are exact
inverses of each other and Parseval holds to roundoff:
sum_t dt |slice_t|^2 = 2*pi * sum_x dx |u|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as _sfft

from . import _kernels
from .bergman import gaussian_budget_window
from .core import (
    BudgetError,
    GridSpec,
    LambdaSignature,
    ScalarField,
    UsageError,
    composite_gauss_legendre,
    weighted_sq_sum,
)

__all__ = [
    "FrequencyField",
    "WavePacketSpec",
    "partial_ft",
    "partial_ift",
    "scalar_pipeline_project",
    "make_wave_packet",
    "frequency_pairing",
    "szego_apply_direct",
    "envelope_values",
    "packet_boundary_share",
    "OCCUPANCY_EPS",
]

#: a frequency slice counts as occupied when it carries more than this
#: fraction of the field's total spectral energy (amplitude ~1e-10); slices
#: below it are mapped to zero without projecting
OCCUPANCY_EPS = 1e-20

#: budgets are enforced only on slices above this energy share (amplitude
#: ~1e-3 of the field): window leakage of synthesized packets sits orders of
#: magnitude below this, while broadband content (white noise, ~1/N per bin)
#: is firmly gated
BUDGET_OCCUPANCY = 1e-6


@dataclass(frozen=True, eq=False)
class FrequencyField:
    """All frequency slices of a field; frequency is the trailing axis."""

    grid: GridSpec
    values: np.ndarray  # (*spatial_shape, T)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.ndim % 2 == 0:
            raise UsageError("frequency field needs 2n+1 axes")
        n = (v.ndim - 1) // 2
        want = self.grid.spatial_shape(n) + (self.grid.freq_points,)
        if v.shape != want:
            raise UsageError(f"frequency field shape {v.shape} != {want}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return (self.values.ndim - 1) // 2

    @property
    def t_nodes(self) -> np.ndarray:
        return self.grid.freq_nodes()

    def spectral_energy(self) -> np.ndarray:
        return _spectral_energy(self.values)

    def occupied_mask(self) -> np.ndarray:
        return _occupied(self.spectral_energy())


def _spectral_energy(values: np.ndarray) -> np.ndarray:
    # sum of re^2 + im^2 over a float view: no temporary the field's size
    f = values.view(np.float64).reshape(-1, values.shape[-1], 2)
    return np.einsum("stc,stc->t", f, f)


def _occupied(energy: np.ndarray) -> np.ndarray:
    return energy > OCCUPANCY_EPS * float(energy.sum())


def _fft_phase(grid: GridSpec) -> np.ndarray:
    js = grid.freq_bins()
    N = grid.vertical_points
    return np.exp(-2j * np.pi * js * (N // 2) / N)


# Bin order (ascending j) and FFT order (j mod N) differ by a half turn: bins
# [0, h) sit at FFT positions [N - h, N) and bins [h, N) at [0, N - h), with
# h = N // 2.  Both transforms move the two halves with slice copies fused with
# the phase factor instead of a fancy-index gather or scatter; the pipeline
# scales the halves in place and stays in FFT order.


def _halves(N: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """The (bins, FFT positions) slice pairs of the two halves the half turn swaps."""
    h = N // 2
    return (slice(0, h), slice(N - h, N)), (slice(h, N), slice(0, N - h))


def _fft_positions(N: int) -> np.ndarray:
    """The FFT position of each bin."""
    return (np.arange(N) - N // 2) % N


def _forward_fft(
    values: np.ndarray, grid: GridSpec, overwrite: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The unscaled vertical FFT of ``values`` in FFT order, and the per-bin scale onto the slices.

    With ``overwrite`` the transform is made in ``values``' own buffer.
    """
    F = _sfft.ifft(values, axis=-1, workers=-1, overwrite_x=overwrite)
    return F, (grid.vertical_points * grid.vertical_step) * _fft_phase(grid)


def _inverse_fft(arr: np.ndarray, grid: GridSpec) -> ScalarField:
    """The field of phase-corrected slices ``arr`` in FFT order; ``arr`` is overwritten."""
    u = _sfft.fft(arr, axis=-1, workers=-1, overwrite_x=True)
    u *= grid.freq_step / (2.0 * math.pi)
    return ScalarField(grid=grid, values=u)


def partial_ft(field: ScalarField) -> FrequencyField:
    """Forward vertical transform onto the grid's frequency bins."""
    F, scale = _forward_fft(field.values, field.grid, False)
    out = np.empty_like(F)
    for bins, pos in _halves(field.grid.vertical_points):
        np.multiply(F[..., pos], scale[bins], out=out[..., bins])
    return FrequencyField(grid=field.grid, values=out)


def partial_ift(freq: FrequencyField) -> ScalarField:
    """Inverse vertical transform; exact inverse of :func:`partial_ft`."""
    grid = freq.grid
    cphase = np.conj(_fft_phase(grid))
    arr = np.empty_like(freq.values)
    for bins, pos in _halves(grid.vertical_points):
        np.multiply(freq.values[..., bins], cphase[bins], out=arr[..., pos])
    return _inverse_fft(arr, grid)


# ---------------------------------------------------------------------------
# the scalar pipeline
# ---------------------------------------------------------------------------


def _outside_window(grid: GridSpec, sig: LambdaSignature, ts, energy) -> np.ndarray:
    """Bins holding more than ``BUDGET_OCCUPANCY`` of ``energy``'s total with |t| outside the window."""
    t_floor, t_ceiling = gaussian_budget_window(grid, sig)
    t = np.abs(ts)
    # written so that a NaN energy counts as significant
    significant = ~(energy <= BUDGET_OCCUPANCY * float(energy.sum()))
    return significant & ((t < t_floor) | (t > t_ceiling))


def _check_budget(grid: GridSpec, sig: LambdaSignature, ts, energy, sel) -> None:
    """Raise :class:`BudgetError` when an occupied bin of ``sel`` has |t| outside the window."""
    bad = np.flatnonzero(sel & _outside_window(grid, sig, ts, energy))
    if bad.size == 0:
        return
    t_floor, t_ceiling = gaussian_budget_window(grid, sig)
    t = np.abs(ts[bad[0]])
    if t < t_floor:
        raise BudgetError(
            "gaussian-truncation",
            f"occupied slice t={t:.6g} below truncation floor {t_floor:.6g} "
            f"(spatial_radius={grid.spatial_radius} too small for this frequency)",
        )
    raise BudgetError(
        "kernel-resolution",
        f"occupied slice t={t:.6g} above resolution ceiling {t_ceiling:.6g} "
        f"(spatial step too coarse for this frequency)",
    )


def scalar_pipeline_project(field: ScalarField, sig: LambdaSignature) -> ScalarField:
    """Scalar projector via the frequency pipeline.

    Forward transform, Gaussian-weight projection of every occupied positive
    slice (slices at t <= 0 are annihilated by the weight's indicator), then
    the inverse transform.  Occupied slices outside the grid's budget window
    raise :class:`BudgetError` naming the violated budget.

    The projection works in place in one copy of the field's values: the
    forward FFT overwrites it and keeps FFT order.  The projected bins pass
    through the slice projector a few at a time.
    """
    if sig.degenerate or not sig.all_positive():
        raise UsageError(
            "scalar pipeline needs an all-positive signature; mixed or degenerate "
            "signatures are handled by the form-level projector"
        )
    return _pipeline(field.grid, field.values.copy(), sig, 1, False)[0]


def _side_axes(sig: LambdaSignature, side: int) -> tuple[int, ...]:
    """The axes J of the component the slices of ``side`` serve (t * lam_j < 0 exactly on J).

    The negative axes for side +1 (t > 0), the positive axes for -1 (t < 0).
    """
    return sig.negative_axes if side > 0 else sig.positive_axes


#: projected bins per slab: the slabs, the slice projector's output and the
#: idempotency gap's second projection are the only working memory beside
#: the field-sized array
_SLAB_BINS = 8


def _pipeline(
    grid: GridSpec, values: np.ndarray, sig: LambdaSignature, side: int, idempotency: bool
) -> tuple[ScalarField, float, float, float, tuple[float, float] | None]:
    """Project the occupied bins of one sign with the signed slice kernel; zero the rest.

    ``values`` are a field's samples on ``grid``, in an array the caller
    hands over: the projection is made in its buffer, and Pu comes back in
    it.  ``side`` +1 takes the bins at t > 0 (phi_minus slices), -1 those at
    t < 0 (phi_plus); :func:`_side_axes` names the component they serve.
    Only bins whose mirror -t is a bin count: the Nyquist bin -N/2 of an
    even grid is on neither side.  The budget is checked on the |t| of the
    side's bins.

    Returns the projection Pu and, when ``idempotency`` is set, the squared
    sums over bins of spatially weighted slice norms ||P(Pu) - Pu||^2,
    ||Pu||^2 and ||Pu - u||^2, and the budget window (t_floor, t_ceiling)
    when a bin holding more than ``BUDGET_OCCUPANCY`` of Pu's energy lies
    outside it (0.0 and None otherwise).  On the periodic grid Parseval
    holds to roundoff: a sum times dt / (2 pi) is the field's squared
    weighted norm, and the ratio of two sums is the squared relative
    distance.  P(Pu) keeps only the bins occupied in Pu's own spectrum, so
    each other projected bin counts its whole energy in the first sum, and
    no budget is checked on Pu.  Pu - u is P s_t - s_t on the projected
    bins and -s_t on every other bin, whose weighted energy is taken before
    it is zeroed.

    No array the field's size is made: the forward FFT runs in place, is
    scaled onto the bins in place and kept in FFT order.  The other bins are
    zeroed, the projected bins go through the slice projector a slab at a
    time and are written back with the inverse phase, and the inverse FFT
    runs in place.  With ``idempotency`` each slab is projected a second
    time as soon as it is projected, and each bin's energy, norm and gap are
    kept: which bins are occupied in Pu needs Pu's total energy, known only
    after the loop.
    """
    n = (values.ndim - 1) // 2
    if sig.n != n:
        raise UsageError(f"field dimension {n} != signature dimension {sig.n}")
    N = grid.vertical_points
    F, scale = _forward_fft(values, grid, True)
    for bins, pos in _halves(N):
        np.multiply(F[..., pos], scale[bins], out=F[..., pos])
    position = _fft_positions(N)
    ts = grid.freq_nodes()
    energy = _spectral_energy(F)[position]
    sel = (side * ts > 0) & (np.abs(ts) <= ts[-1])
    _check_budget(grid, sig, ts, energy, sel)
    keep = np.flatnonzero(sel & _occupied(energy))
    dropped = np.ones(N, dtype=bool)
    dropped[position[keep]] = False
    change = 0.0
    if idempotency:
        # ||s_t||^2_w at every FFT position, one first-axis row at a time:
        # no temporary the field's size
        w_rows = grid.spatial_weight_array(n).reshape(F.shape[0], -1)
        weighted = np.zeros(2 * N)
        for i in range(F.shape[0]):
            f = F[i].view(np.float64).reshape(w_rows.shape[1], 2 * N)
            weighted += np.einsum("s,sk,sk->k", w_rows[i], f, f)
        change = float(weighted.reshape(N, 2).sum(axis=1)[dropped].sum())
    # a masked copy walks F in memory order: an index assignment on the bin
    # axis is ~3x slower
    np.copyto(F, 0, where=dropped)
    if keep.size == 0:
        return ScalarField(grid=grid, values=F), 0.0, 0.0, change, None
    # passed by position: perfbench/spans.py reads the slice projector's arguments so
    consts = (
        grid.freq_step, grid.spatial_nodes(), grid.spatial_axis_weights(), tuple(sig.lambdas)
    )
    slab_shape = (grid.spatial_points**2,) * n
    cphase = np.conj(_fft_phase(grid)).reshape((-1,) + (1,) * (2 * n))
    w = grid.spatial_weight_array(n).reshape(1, -1)
    # per projected bin: Pu's energy, its weighted ||Pu||^2, ||P(Pu) - Pu||^2
    # and ||Pu - u||^2
    energy_pu, norms, gaps, changes = np.zeros((4, keep.size))
    by_bin = np.moveaxis(F, -1, 0)
    for lo in range(0, keep.size, _SLAB_BINS):
        ks = keep[lo : lo + _SLAB_BINS]
        at = position[ks]
        slab = by_bin[at].reshape((ks.size,) + slab_shape)
        proj = _kernels.project_slices(slab, ts[ks], *consts)
        if idempotency:
            flat = proj.reshape(ks.size, -1)
            f = flat.view(np.float64)
            energy_pu[lo : lo + ks.size] = np.einsum("ks,ks->k", f, f)
            # s_t - P s_t in the gathered slab, dropped before the second projection
            slab = slab.reshape(ks.size, -1)
            slab -= flat
            for j in range(ks.size):
                changes[lo + j] = weighted_sq_sum(slab[j : j + 1], w)
            del slab
            diff = _kernels.project_slices(proj, ts[ks], *consts).reshape(ks.size, -1)
            diff -= flat
            for j in range(ks.size):
                norms[lo + j] = weighted_sq_sum(flat[j : j + 1], w)
                gaps[lo + j] = weighted_sq_sum(diff[j : j + 1], w)
            del flat, f, diff
        proj = proj.reshape((ks.size,) + grid.spatial_shape(n))
        proj *= cphase[ks]
        by_bin[at] = proj
        del proj
    pu = _inverse_fft(F, grid)
    if not idempotency:
        return pu, 0.0, 0.0, 0.0, None
    again = _occupied(energy_pu)
    window = None
    if np.any(_outside_window(grid, sig, ts[keep], energy_pu)):
        window = gaussian_budget_window(grid, sig)
    change += float(changes.sum())
    return pu, float(gaps[again].sum() + norms[~again].sum()), float(norms.sum()), change, window


# ---------------------------------------------------------------------------
# wave packets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WavePacketSpec:
    """Synthesis recipe for a frequency-band-limited coherent packet.

    The spatial profile at frequency t is zeta^alpha * e^{-t sum|lam_j||zeta_j|^2}
    where zeta_j is conjugated for j in ``conjugated_axes``; the envelope is
    the bump (1-s^2)**order rescaled to [t_low, t_high]; ``vertical_sign``
    picks e^{-i t x} (+1, content on positive bins) or e^{+i t x} (-1).
    """

    alpha: tuple[int, ...]
    t_low: float
    t_high: float
    conjugated_axes: tuple[int, ...] = ()
    order: int = 4
    vertical_sign: int = 1

    def __post_init__(self):
        if not (0 < self.t_low < self.t_high):
            raise UsageError("envelope needs 0 < t_low < t_high")
        if self.order < 1:
            raise UsageError("envelope order must be >= 1")
        if self.vertical_sign not in (1, -1):
            raise UsageError("vertical_sign must be +1 or -1")
        axes = tuple(sorted(set(int(a) for a in self.conjugated_axes)))
        object.__setattr__(self, "conjugated_axes", axes)
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))


def envelope_values(spec: WavePacketSpec, t: np.ndarray) -> np.ndarray:
    s = (2.0 * t - (spec.t_low + spec.t_high)) / (spec.t_high - spec.t_low)
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(s) < 1
    out[inside] = (1.0 - s[inside] ** 2) ** spec.order
    return out


#: spatial rows a packet is synthesized in at a time: beside the field, one
#: block's T x rows profile is the largest array, and no T x S profile is made
_PACKET_ROWS = 4096


def make_wave_packet(
    spec: WavePacketSpec,
    sig: LambdaSignature,
    grid: GridSpec,
    bin_quadrature: bool = False,
) -> ScalarField:
    """Synthesize u(zeta, x) = integral g(t) zeta~^alpha e^{-t |lam|-Gaussian}
    e^{-i sign t x} dt on the grid (64-node composite Gauss-Legendre in t).

    Every quadrature node contributes an exact solution of the tangential CR
    system, so the synthesized field solves it regardless of the t-rule.  The
    conjugation pattern must match the signature: square-integrable solutions
    exist only when the conjugated axes are the :func:`_side_axes` of
    ``vertical_sign``.

    ``bin_quadrature`` collocates the envelope on the grid's frequency bins
    instead of Gauss-Legendre nodes; the packet is then exactly periodic in
    the vertical coordinate (no wrap-around seam), which refinement studies
    need.
    """
    n = sig.n
    if len(spec.alpha) != n:
        raise UsageError(f"alpha length {len(spec.alpha)} != n={n}")
    if any(a < 1 or a > n for a in spec.conjugated_axes):
        raise UsageError("conjugated_axes out of range")
    if spec.t_high >= grid.freq_max:
        raise UsageError(
            f"envelope [{spec.t_low}, {spec.t_high}] exceeds the grid frequency "
            f"range (freq_max={grid.freq_max:.6g})"
        )
    if sig.degenerate:
        raise UsageError("degenerate signature admits no square-integrable packet")
    need = _side_axes(sig, spec.vertical_sign)
    if spec.conjugated_axes != need:
        raise UsageError(
            f"conjugation pattern {spec.conjugated_axes} with vertical_sign="
            f"{spec.vertical_sign:+d} has a non-decaying axis; required pattern {need}"
        )
    if bin_quadrature:
        ts = grid.freq_nodes()
        sel = (ts >= spec.t_low) & (ts <= spec.t_high)
        if np.count_nonzero(sel) < 2:
            raise UsageError("envelope covers fewer than two frequency bins")
        tq = ts[sel]
        wq = np.full(tq.size, grid.freq_step)
    else:
        tq, wq = composite_gauss_legendre(spec.t_low, spec.t_high, 64)
    g = envelope_values(spec, tq)
    zeta = grid.complex_mesh(n).reshape(-1, n)
    for j in spec.conjugated_axes:
        zeta[:, j - 1] = np.conj(zeta[:, j - 1])
    S = zeta.shape[0]
    gabs = np.abs(zeta) ** 2 @ np.abs(np.asarray(sig.lambdas))
    mono = np.ones(S, dtype=complex)
    for j, a in enumerate(spec.alpha):
        if a:
            mono *= zeta[:, j] ** a
    tones = np.exp(-1j * spec.vertical_sign * np.outer(tq, grid.vertical_nodes()))
    u = np.empty((S, tones.shape[1]), dtype=complex)
    for lo in range(0, S, _PACKET_ROWS):
        rows = slice(lo, lo + _PACKET_ROWS)
        prof = np.exp(-np.outer(tq, gabs[rows])).astype(complex)  # (T, rows)
        prof *= mono[None, rows]
        prof *= (wq * g)[:, None]
        np.matmul(prof.T, tones, out=u[rows])
    return ScalarField(grid=grid, values=u.reshape(grid.field_shape(n)))


def packet_boundary_share(field: ScalarField) -> float:
    """Fraction of the field's energy sitting on the vertical boundary plane.

    Proxy for periodic wrap-around contamination of synthesized packets.
    """
    total = float(np.sum(np.abs(field.values) ** 2))
    if total == 0.0:
        return 0.0
    plane = float(np.sum(np.abs(field.values[..., 0]) ** 2))
    return plane / total


# ---------------------------------------------------------------------------
# frequency-domain pairing
# ---------------------------------------------------------------------------


def frequency_pairing(u: ScalarField, g: ScalarField, sig: LambdaSignature) -> complex:
    """(projected u | g) evaluated entirely in the frequency domain.

    c0 * integral_0^inf t^n slice_u_t(w) conj(slice_g_t(z))
    e^{-t(|lam||z-w|^2 + lam(zbar w - z wbar))} dmu(z) dmu(w) dt, computed as a
    dense double spatial sum per positive bin.  Must agree with the inner
    product of ``scalar_pipeline_project(u)`` against g.
    """
    if u.grid != g.grid or u.n != g.n:
        raise UsageError("pairing needs two fields on one grid")
    if sig.degenerate or not sig.all_positive():
        raise UsageError("pairing needs an all-positive signature")
    n = sig.n
    grid = u.grid
    fu = partial_ft(u)
    fg = partial_ft(g)
    ts = fu.t_nodes
    occ = fu.occupied_mask() & fg.occupied_mask()
    keep = [i for i, t in enumerate(ts) if t > 0 and occ[i]]
    if not keep:
        return 0.0 + 0.0j
    zc = grid.complex_mesh(n).reshape(-1, n)
    wspat = grid.spatial_weight_array(n).reshape(-1)
    S = zc.shape[0]
    if S * S > 4_000_000:
        raise UsageError("dense pairing oracle is meant for micro-grids (S^2 too large)")
    Q = _kernels.phase_quadratic(zc, sig.lambdas)
    su = np.stack([fu.values[..., i].reshape(-1) for i in keep])
    sg = np.stack([fg.values[..., i].reshape(-1) for i in keep])
    tk = ts[keep]
    coeffs = sig.c0() * grid.freq_step * tk**n
    return complex(_kernels.pairing_sum(Q, su, sg, tk, coeffs, wspat))


# ---------------------------------------------------------------------------
# direct dense-kernel route (cross-check oracle)
# ---------------------------------------------------------------------------


def _plateau_cutoff(t: np.ndarray, epsilon: float) -> np.ndarray:
    """Smooth cutoff: 1 on [0, 1/eps], bump (1 - s^2)^4 taper to 0 at 2/eps."""
    th = epsilon * np.asarray(t, dtype=float)
    out = np.zeros_like(th)
    out[th <= 1.0] = 1.0
    mid = (th > 1.0) & (th < 2.0)
    out[mid] = (1.0 - (th[mid] - 1.0) ** 2) ** 4
    return out


def szego_apply_direct(field: ScalarField, sig: LambdaSignature, epsilon: float) -> ScalarField:
    """Apply the projector by direct dense quadrature of the oscillatory kernel.

    K(x, y) = c0 * integral_0^inf t^n chi(eps*t) e^{i t phi_minus(x, y)} dt with
    the smooth plateau cutoff chi (512 Gauss-Legendre nodes in t on
    [0, 2/eps]), evaluated node-by-node over the full grid
    (vertical differences wrapped to the periodic cell).  For band-limited
    inputs whose occupied bins lie inside the plateau [0, 1/eps] this equals
    the un-damped projector; it is the independent oracle for the pipeline.
    """
    if epsilon <= 0:
        raise UsageError("epsilon must be > 0")
    if sig.degenerate or not sig.all_positive():
        raise UsageError("direct route needs an all-positive signature")
    n = sig.n
    if n != field.n:
        raise UsageError("field dimension does not match signature")
    grid = field.grid
    zc = grid.complex_mesh(n).reshape(-1, n)
    wspat = grid.spatial_weight_array(n).reshape(-1)
    S = zc.shape[0]
    if S * S > 4_000_000:
        raise UsageError("direct kernel route is a micro-grid oracle (S^2 too large)")
    Q = _kernels.phase_quadratic(zc, sig.lambdas)
    t_max = 2.0 / epsilon
    nyquist = math.pi / grid.vertical_step
    if t_max > nyquist:
        raise UsageError(
            f"cutoff support 2/eps={t_max:.4g} exceeds the vertical Nyquist "
            f"frequency {nyquist:.4g}; increase eps or refine the vertical axis"
        )
    tn, tw = composite_gauss_legendre(0.0, t_max, 512)
    cq = sig.c0() * tw * tn**n * _plateau_cutoff(tn, epsilon)
    xk = grid.vertical_nodes()
    Rv = grid.vertical_radius
    d = xk[None, :] - xk[:, None]
    dwrap = (d + Rv) % (2.0 * Rv) - Rv
    N = grid.vertical_points
    uw = (field.values.reshape(S, N) * wspat[:, None]) * grid.vertical_step
    out = _kernels.direct_kernel_apply(Q, uw, dwrap, tn, cq)
    return ScalarField(grid=grid, values=out.reshape(grid.field_shape(n)))
