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

from . import _kernels
from .bergman import gaussian_budget_window
from .core import (
    BudgetError,
    GridSpec,
    LambdaSignature,
    MultiIndex,
    ScalarField,
    UsageError,
    composite_gauss_legendre,
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
    """All frequency slices of a field; frequency is the trailing axis, in ascending bin order."""

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


# The FFT leaves bin j at position j mod N, and the package keeps that FFT order;
# ``np.fft.fftshift``/``ifftshift`` are the one bridge to the ascending bin
# order of :class:`FrequencyField` and ``GridSpec.freq_nodes``.


def _fft_phase(grid: GridSpec) -> np.ndarray:
    """The phase factor onto the slices, per FFT position."""
    js = np.fft.ifftshift(grid.freq_bins())
    N = grid.vertical_points
    return np.exp(-2j * np.pi * js * (N // 2) / N)


def partial_ft(field: ScalarField) -> FrequencyField:
    """Forward vertical transform onto the grid's frequency bins."""
    grid = field.grid
    F = np.fft.ifft(field.values, axis=-1)
    F *= (grid.vertical_points * grid.vertical_step) * _fft_phase(grid)
    return FrequencyField(grid=grid, values=np.fft.fftshift(F, axes=-1))


def partial_ift(freq: FrequencyField) -> ScalarField:
    """Inverse vertical transform; exact inverse of :func:`partial_ft`."""
    arr = np.fft.ifftshift(freq.values, axes=-1)
    arr *= np.conj(_fft_phase(freq.grid))
    u = np.fft.fft(arr, axis=-1, out=arr)
    u *= freq.grid.freq_step / (2.0 * math.pi)
    return ScalarField(grid=freq.grid, values=u)


# ---------------------------------------------------------------------------
# the scalar pipeline
# ---------------------------------------------------------------------------


def _outside_window(window: tuple[float, float], ts, energy) -> np.ndarray:
    """Bins holding more than ``BUDGET_OCCUPANCY`` of ``energy``'s total with |t| outside ``window``."""
    t_floor, t_ceiling = window
    t = np.abs(ts)
    significant = energy > BUDGET_OCCUPANCY * float(energy.sum())
    return significant & ((t < t_floor) | (t > t_ceiling))


def _check_budget(grid: GridSpec, window: tuple[float, float], ts, energy, sel) -> None:
    """Raise :class:`BudgetError` when an occupied bin of ``sel`` has |t| outside ``window``."""
    bad = np.flatnonzero(sel & _outside_window(window, ts, energy))
    if bad.size == 0:
        return
    t_floor, t_ceiling = window
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
    forward FFT overwrites it and keeps FFT order.  The projected bins are
    gathered a few at a time and projected one slice at a time.
    """
    if sig.degenerate or not sig.all_positive():
        raise UsageError(
            "scalar pipeline needs an all-positive signature; mixed or degenerate "
            "signatures are handled by the form-level projector"
        )
    return _pipeline(field.grid, field.values.copy(), sig, 1, None, want_pu=True)[0]


def _side_axes(sig: LambdaSignature, side: int) -> tuple[int, ...]:
    """The axes J of the component the slices of ``side`` serve (t * lam_j < 0 exactly on J).

    The negative axes for side +1 (t > 0), the positive axes for -1 (t < 0).
    """
    return sig.negative_axes if side > 0 else sig.positive_axes


#: projected bins per slab: a slab, one slice operator and the bin's
#: working slices are the only working memory beside the field-sized array
_SLAB_BINS = 8

#: spatial nodes per block of a slab's gather: a block's rows of the
#: transform stay in cache while its kept columns are copied out, which makes
#: the gather ~1.5x faster than one transposing copy of the columns
_GATHER_NODES = 1024

#: spatial nodes per block of the spectral scan: its squares fit a buffer of
#: 64 x 2N floats (131 kB at N = 128)
_SCAN_ROWS = 64


def _bin_sums(by_node: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per FFT position, the sum of |F|^2 over the spatial nodes and that sum weighted by ``w``.

    ``by_node`` is a transform as (S, N), one row per spatial node, and
    ``w`` the S spatial weights.  One pass, ``_SCAN_ROWS`` rows at a time:
    a block is squared into a small buffer and one GEMM takes both sums.
    A square that overflows is inf, silently: the caller refuses the field.
    """
    S, N = by_node.shape
    sums = np.zeros((2, 2 * N))
    ones_w = np.ones((2, min(_SCAN_ROWS, S)))
    sq = np.empty((ones_w.shape[1], 2 * N))
    with np.errstate(over="ignore"):
        for lo in range(0, S, _SCAN_ROWS):
            f = by_node[lo : lo + _SCAN_ROWS].view(np.float64)
            k = f.shape[0]
            np.multiply(f, f, out=sq[:k])
            ones_w[1, :k] = w[lo : lo + k]
            sums += ones_w[:, :k] @ sq[:k]
    energy, weighted = sums.reshape(2, N, 2).sum(axis=2)
    return energy, weighted


def _pipeline(
    grid: GridSpec, values: np.ndarray, sig: LambdaSignature, side: int,
    label: MultiIndex | None, *, want_pu: bool,
) -> tuple[ScalarField | None, float, float, float, float, float, tuple[float, float] | None]:
    """Project the occupied bins of one sign with the signed slice kernel; with ``want_pu`` zero the rest.

    ``values`` are a field's samples on ``grid``, in an array the caller
    hands over: the projection is made in its buffer, and Pu comes back in
    it.  ``side`` +1 takes the bins at t > 0 (phi_minus slices), -1 those at
    t < 0 (phi_plus); :func:`_side_axes` names the component they serve.
    Only bins whose mirror -t is a bin count: the Nyquist bin -N/2 of an
    even grid is on neither side.  The budget is checked on the |t| of the
    side's bins, after a field whose sum of |u|^2 is not finite is refused.

    Returns the projection Pu, or None unless ``want_pu``, and, when the
    component's ``label`` J is given, what ``hszego project`` reports of
    it: the squared sums over bins of spatially weighted slice norms
    ||u||^2, ||Pu||^2, ||Pu - u||^2, the
    CR residual of Pu (:func:`forms.cr_system_residual`) and
    ||P(Pu) - Pu||^2, and the budget window (t_floor, t_ceiling) when a bin
    holding more than ``BUDGET_OCCUPANCY`` of Pu's energy lies outside it.
    Without a label every sum is 0.0 and the window None.  On the periodic
    grid Parseval holds to roundoff: a sum times dt / (2 pi) is the squared
    weighted norm of its field, and the ratio of two sums is the squared
    relative distance.  ||u||^2 is taken over every bin.  P(Pu) keeps only the bins occupied in Pu's own spectrum, so
    each other projected bin counts its whole energy in the gap, and no
    budget is checked on Pu.  Pu - u is P s_t - s_t on the projected bins
    and -s_t on every other bin.

    No array the field's size is made, and no pass over the whole field
    scales it: the FFTs run in place and nothing else multiplies the field,
    so each bin holds the transform's slice over (N dx) times a unit phase.
    That scalar commutes with the bin's projector and the inverse FFT undoes
    it ((N dx) dt / (2 pi) = 1), so only the squared sums are scaled, by
    (N dx)^2.  Beside the forward FFT, the field is passed over once to
    take each bin's energy and weighted energy (:func:`_bin_sums`), and the
    projected bins are gathered a slab at a time (:func:`_project_bins`).
    Only when Pu is wanted are the slabs written back, the bins not
    projected zeroed in one pass and the inverse FFT run; without it the
    buffer keeps the forward transform.  The budget window is found once.
    """
    n = (values.ndim - 1) // 2
    if sig.n != n:
        raise UsageError(f"field dimension {n} != signature dimension {sig.n}")
    N = grid.vertical_points
    F = np.fft.ifft(values, axis=-1, out=values)
    ts = np.fft.ifftshift(grid.freq_nodes())
    energy, weighted = _bin_sums(F.reshape(-1, N), grid.spatial_weight_array(n).reshape(-1))
    if not math.isfinite(energy.sum()):
        where = "field" if label is None else f"component {label}"
        raise UsageError(f"{where}: the sum of |u|^2 is not finite")
    sel = (side * ts > 0) & (np.abs(ts) <= ts.max())
    window = gaussian_budget_window(grid, sig)
    _check_budget(grid, window, ts, energy, sel)
    keep = np.flatnonzero(sel & _occupied(energy))
    dropped = np.ones(N, dtype=bool)
    dropped[keep] = False
    if want_pu:
        # a masked copy walks F in memory order: an index assignment on the
        # bin axis is ~3x slower
        np.copyto(F, 0, where=dropped)
    energy_pu, norms, changes, gaps, cr = _project_bins(
        grid, F.reshape(-1, N), ts, keep, sig, label, want_pu
    )
    pu = ScalarField(grid=grid, values=np.fft.fft(F, axis=-1, out=F)) if want_pu else None
    if label is None:
        return pu, 0.0, 0.0, 0.0, 0.0, 0.0, None
    again = _occupied(energy_pu)
    if not np.any(_outside_window(window, ts[keep], energy_pu)):
        window = None
    change = float(weighted[dropped].sum())
    change += float(changes.sum())
    gap = float(gaps[again].sum() + norms[~again].sum())
    scale = (N * grid.vertical_step) ** 2
    return (
        pu, scale * float(weighted.sum()), scale * float(norms.sum()), scale * change,
        scale * cr, scale * gap, window,
    )


def _project_bins(grid: GridSpec, by_node: np.ndarray, ts: np.ndarray, keep: np.ndarray,
                  sig: LambdaSignature, label: MultiIndex | None, write_back: bool):
    """Project the slices at the FFT positions ``keep`` of a transform, a slab at a time.

    ``by_node`` is the transform as (S, N), one row per spatial node.  The
    kept bins are copied into a slab eight at a time, ``_GATHER_NODES``
    rows at a time: a run of consecutive positions by a transposing copy of
    its columns, any other set by an index gather (~1.5x slower, gather and
    scatter together).  Each slice is projected in its slab row by
    :func:`_kernels.project_slice` with its bin's operator, built once.
    With ``write_back`` the slab is written back the same way, whole, so
    the projection is made in place; without it ``by_node`` is only read.

    Returns, with a label, per projected bin Pu's energy, ||P s_t||^2,
    ||P s_t - s_t||^2 and ||P(P s_t) - P s_t||^2 (spatially weighted), and
    the CR residual of Pu summed over the slabs (``forms._slab_cr_sq``);
    which bins are occupied in Pu needs Pu's total energy, known only after
    the loop.
    """
    n = sig.n
    # per projected bin: Pu's energy, ||Pu||^2, ||Pu - u||^2, ||P(Pu) - Pu||^2
    energy_pu, norms, changes, gaps = sums = np.zeros((4, keep.size))
    cr = 0.0
    if label is not None:
        # forms imports this module, so its stencil is looked up here
        from . import forms

        add_cr = forms._slab_cr_sq(grid, label, sig)
    if keep.size == 0:
        return (*sums, cr)
    consts = (grid.spatial_nodes(), grid.spatial_axis_weights(), tuple(sig.lambdas))
    slab_shape = (grid.spatial_points ** 2,) * n
    omega = None if label is None else _kernels.slice_weights(consts[1], n)
    work = np.empty((3, 2) + slab_shape)
    S = by_node.shape[0]
    for lo in range(0, keep.size, _SLAB_BINS):
        ks = keep[lo : lo + _SLAB_BINS]
        run = slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] == ks.size - 1 else ks
        rows = np.empty((ks.size, S), dtype=np.complex128)
        for at in range(0, S, _GATHER_NODES):
            nodes = slice(at, at + _GATHER_NODES)
            rows[:, nodes] = by_node[nodes, run].T
        slab = rows.reshape((ks.size,) + slab_shape)
        for j, t in enumerate(ts[ks]):
            got = _kernels.project_slice(_kernels.slice_operator(t, *consts), slab[j], omega, work)
            if label is not None:
                norms[lo + j], changes[lo + j], gaps[lo + j] = got
        if label is not None:
            cr = add_cr(cr, slab, ks)
            f = rows.view(np.float64)
            energy_pu[lo : lo + ks.size] = np.einsum("ks,ks->k", f, f)
            del f
        if write_back:
            by_node[:, run] = rows.T
        # nothing of this slab may outlive it: the next slab is gathered
        # while whatever is still referenced here is held
        del slab, rows
    return (*sums, cr)


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
        alpha = tuple(int(a) for a in self.alpha)
        if any(a < 0 for a in alpha):
            raise UsageError(f"alpha entries must be >= 0, got {alpha}")
        object.__setattr__(self, "alpha", alpha)


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


def _micro_grid_phase(grid: GridSpec, sig: LambdaSignature, oracle: str):
    """A dense oracle's flat spatial weights and its phase Q over the spatial node pairs.

    Q is S x S for the grid's S spatial nodes, so the oracles run on
    micro-grids only; ``oracle`` names the caller in the refusal.
    """
    zc = grid.complex_mesh(sig.n).reshape(-1, sig.n)
    S = zc.shape[0]
    if S * S > 4_000_000:
        raise UsageError(f"{oracle} is meant for micro-grids (S^2 too large)")
    return grid.spatial_weight_array(sig.n).reshape(-1), _kernels.phase_quadratic(zc, sig.lambdas)


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
    wspat, Q = _micro_grid_phase(grid, sig, "dense pairing oracle")
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


def szego_apply_direct(
    field: ScalarField, sig: LambdaSignature, epsilons
) -> tuple[ScalarField, ...]:
    """Apply the projector by direct dense quadrature of the oscillatory kernel, once per eps.

    K(x, y) = c0 * integral_0^inf t^n chi(eps*t) e^{i t phi_minus(x, y)} dt with
    the smooth plateau cutoff chi, evaluated over the full grid (vertical
    differences wrapped to the periodic cell).  One rule of 512
    Gauss-Legendre nodes in t on [0, 2/min(eps)] serves every eps of
    ``epsilons``: each node's dense kernel term is computed once and added
    into each output with that eps' cutoff weight, and exp(-tQ) is stepped
    from panel to panel (see ``_kernels.direct_kernel_apply``).  Returns one
    field per eps, in order.  For band-limited inputs whose occupied bins
    lie inside the plateau [0, 1/eps] this equals the un-damped projector;
    it is the independent oracle for the pipeline.
    """
    epsilons = tuple(float(e) for e in epsilons)
    if not epsilons:
        raise UsageError("direct route needs at least one epsilon")
    if not all(0 < e < math.inf for e in epsilons):
        raise UsageError(f"every epsilon must be finite and > 0, got {epsilons}")
    if sig.degenerate or not sig.all_positive():
        raise UsageError("direct route needs an all-positive signature")
    n = sig.n
    if n != field.n:
        raise UsageError("field dimension does not match signature")
    grid = field.grid
    wspat, Q = _micro_grid_phase(grid, sig, "direct kernel route")
    t_max = 2.0 / min(epsilons)
    nyquist = math.pi / grid.vertical_step
    if t_max > nyquist:
        raise UsageError(
            f"cutoff support 2/eps={t_max:.4g} exceeds the vertical Nyquist "
            f"frequency {nyquist:.4g}; increase eps or refine the vertical axis"
        )
    tn, tw = composite_gauss_legendre(0.0, t_max, 512)
    cq = np.stack([sig.c0() * tw * tn**n * _plateau_cutoff(tn, e) for e in epsilons])
    xk = grid.vertical_nodes()
    Rv = grid.vertical_radius
    d = xk[None, :] - xk[:, None]
    dwrap = (d + Rv) % (2.0 * Rv) - Rv
    N = grid.vertical_points
    uw = (field.values.reshape(-1, N) * wspat[:, None]) * grid.vertical_step
    out = _kernels.direct_kernel_apply(Q, uw, dwrap, tn, cq)
    return tuple(ScalarField(grid=grid, values=o.reshape(grid.field_shape(n))) for o in out)
