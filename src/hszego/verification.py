"""Deterministic verification suite.

Each criterion function takes a :class:`RunConfig` and returns a list of
:class:`CriterionResult`; the registry fixes the order and ids.  All random
draws use generators seeded from ``config.seed`` plus a per-criterion offset,
so reports are byte-identical across runs and worker counts.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import bergman, forms, transform
from .phase import PhaseChoice, fio_quadrature, gamma_moment, szego_kernel_scalar
from .phase import phase as phase_fn
from .config import RunConfig
from .core import (
    FormField,
    GridSpec,
    HeisenbergPoint,
    LambdaSignature,
    MultiIndex,
    ScalarField,
    UsageError,
    composite_gauss_legendre,
    form_inner,
    form_norm,
    inner,
    norm,
    rel_norm,
    weighted_sq_sum,
)

__all__ = ["CriterionResult", "run_verification", "report_text"]


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    measured: float
    budget: float
    cmp: str  # "<=" or ">="
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.measured <= self.budget if self.cmp == "<=" else self.measured >= self.budget


def _res(cid, name, measured, budget, cmp="<=", detail=""):
    return CriterionResult(cid, name, float(measured), float(budget), cmp, detail)


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------


def _random_profile(grid: GridSpec, n: int, rng) -> np.ndarray:
    zc = grid.complex_mesh(n)
    vals = np.zeros(zc.shape[:-1], dtype=complex)
    for _ in range(4):
        c = rng.uniform(-1.2, 1.2, size=n) + 1j * rng.uniform(-1.2, 1.2, size=n)
        sigma = rng.uniform(0.6, 1.8)
        coef = complex(rng.normal(), rng.normal())
        vals += coef * np.exp(-sigma * np.sum(np.abs(zc - c) ** 2, axis=-1))
    return vals


#: spatial rows of a band field summed at a time: 128 rows of the default
#: grid's 128 vertical samples are 256 KB, which stays in cache while every
#: mode is added into them
_BAND_ROWS = 128


def random_band_field(grid: GridSpec, n: int, rng, band=(0.9, 4.8), modes=6) -> ScalarField:
    """Band-limited random field: Gaussian-bump profiles on exact tone bins, ~40 % negative.

    Every mode's bin, sign and profile are drawn first, in that order per
    mode.  The modes' outer products profile x tone are then added into
    ``_BAND_ROWS`` spatial rows at a time, each row block from zero and in
    mode order, so every sample is the same sum in the same order as mode by
    mode over the whole field.  Raises ``UsageError`` when no bin of the
    grid lies in ``band``.
    """
    ts = grid.freq_nodes()
    pos = np.where((ts >= band[0]) & (ts <= band[1]))[0]
    if pos.size == 0:
        tpos = ts[ts > 0]
        bins = f"run from {tpos[0]:.6g} to {tpos[-1]:.6g}" if tpos.size else "are none"
        raise UsageError(f"band {tuple(band)} holds no frequency bin; the grid's positive bins {bins}")
    xk = grid.vertical_nodes()
    profiles, tones = [], []
    for _ in range(modes):
        t = ts[rng.choice(pos)]
        if rng.random() < 0.4:
            t = -t
        profiles.append(_random_profile(grid, n, rng).reshape(-1))
        tones.append(np.exp(-1j * t * xk))
    vals = np.zeros(grid.field_shape(n), dtype=complex)
    rows = vals.reshape(-1, xk.size)
    for lo in range(0, rows.shape[0], _BAND_ROWS):
        block = rows[lo:lo + _BAND_ROWS]
        for prof, tone in zip(profiles, tones):
            block += prof[lo:lo + _BAND_ROWS, None] * tone
    return ScalarField(grid=grid, values=vals)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def c00_preflight(cfg: RunConfig):
    violations = []
    sig = cfg.sig
    floor, ceiling = bergman.gaussian_budget_window(cfg.grid, sig)
    wrap_tol = cfg.tolerances["wrap_share"]
    for i, spec in enumerate(cfg.packets, start=1):
        if spec.t_low < floor:
            violations.append(f"packet {i}: gaussian-truncation (t_low {spec.t_low} < {floor:.4g})")
        if spec.t_high > ceiling:
            violations.append(f"packet {i}: kernel-resolution (t_high {spec.t_high} > {ceiling:.4g})")
        share = transform.packet_boundary_share(cfg.packet_field(i))
        if share > wrap_tol:
            violations.append(f"packet {i}: wrap-share ({share:.3g} > {wrap_tol:.3g})")
    floor2, ceiling2 = bergman.gaussian_budget_window(cfg.grid2, LambdaSignature((1.0, 1.0)))
    if floor2 > 1.0 or ceiling2 < 1.8:
        violations.append(
            f"grid2: budget window [{floor2:.4g}, {ceiling2:.4g}] does not cover [1.0, 1.8]"
        )
    detail = "; ".join(violations) if violations else "all budgets met"
    return [_res("C00.preflight", "grid-budget-preflight", len(violations), 0.0, "<=", detail)]


def c01_gamma(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed + 1)
    tol = cfg.tolerances["gamma_moment"]
    worst = 0.0
    for _ in range(50):
        s = complex(rng.uniform(0.2, 5.0), rng.uniform(-3.0, 3.0))
        for m in range(7):
            t_max = (46.0 + 8.0 * m) / s.real
            npts = max(256, int(t_max * abs(s.imag) / (2 * math.pi) * 12) + 32)
            tn, tw = composite_gauss_legendre(0.0, t_max, npts)
            quad = complex(np.sum(tw * tn**m * np.exp(-s * tn)))
            closed = gamma_moment(m, s)
            worst = np.maximum(worst, abs(quad - closed) / abs(closed))
    return [_res("C01.gamma", "gamma-moment-identity", worst, tol)]


def _random_point(n, rng) -> HeisenbergPoint:
    z = tuple(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(n))
    return HeisenbergPoint(z, rng.uniform(-2.0, 2.0))


def c02_kernel_fio(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed + 2)
    tol = cfg.tolerances["kernel_fio_agreement"]
    worst = 0.0
    for sig in (LambdaSignature((0.8,)), LambdaSignature((1.2, 0.7))):
        n = sig.n
        for _ in range(25):
            x = _random_point(n, rng)
            y = _random_point(n, rng)
            for eps in (0.25, 1.0):
                closed = szego_kernel_scalar(x, y, sig, PhaseChoice.MINUS, eps)
                quad = fio_quadrature(x, y, sig, PhaseChoice.MINUS, eps)
                worst = np.maximum(worst, abs(quad - closed) / abs(closed))
    return [_res("C02.fio", "closed-form-vs-fio-kernel", worst, tol)]


def c03_phase(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed + 3)
    tol = cfg.tolerances["phase_identity"]
    worst_ident = 0.0
    worst_diag = 0.0
    min_offdiag = math.inf
    for k in range(1000):
        n = 1 + (k % 3)
        lams = tuple(rng.uniform(0.2, 2.0) * (1 if rng.random() < 0.5 else -1) for _ in range(n))
        sig = LambdaSignature(lams)
        x = _random_point(n, rng)
        y = _random_point(n, rng)
        pm = phase_fn(PhaseChoice.MINUS, x, y, sig)
        pp = phase_fn(PhaseChoice.PLUS, x, y, sig)
        pm_swap = phase_fn(PhaseChoice.MINUS, y, x, sig)
        scale = 1.0 + abs(pm)
        worst_ident = np.max(
            [worst_ident, abs(pp + np.conj(pm)) / scale, abs(pp - pm_swap) / scale]
        )
        worst_diag = np.maximum(worst_diag, abs(phase_fn(PhaseChoice.MINUS, x, x, sig).imag))
        min_offdiag = np.minimum(min_offdiag, pm.imag)
    return [
        _res("C03a.phase", "phase-conjugate-swap-identities", worst_ident, tol),
        _res("C03b.phase", "phase-imag-zero-on-diagonal", worst_diag, tol),
        _res("C03c.phase", "phase-imag-positive-off-diagonal", min_offdiag, 0.0, ">="),
    ]


def c04_reproducing(cfg: RunConfig):
    tol_scale = cfg.tolerances["gaussian_reproducing"]
    worst = 0.0
    # the box shrinks and the mesh refines with t: both the Gaussian width
    # and the coherent oscillation scale like sqrt(t)
    cases = [
        (LambdaSignature((1.0,)), {t: GridSpec(6.5 / math.sqrt(t), 41, 1.0, 4) for t in (0.5, 1.0, 2.0)},
         [(a,) for a in range(5)], [np.array([0.0j]), np.array([0.7 - 0.4j])]),
        (LambdaSignature((1.0, 1.0)), {t: GridSpec(6.5 / math.sqrt(2 * t), 25, 1.0, 4) for t in (0.5, 1.0, 2.0)},
         forms.multi_exponents(2, 4), [np.zeros(2, complex), np.array([0.5 - 0.3j, -0.4 + 0.6j])]),
    ]
    for sig, grids, alphas, zs in cases:
        polys = [{tuple(alpha): 1.0 + 0.0j} for alpha in alphas]
        for t in (0.5, 1.0, 2.0):
            for z in zs:
                lhs, rhs = bergman.gaussian_reproducing_check(polys, z, t, sig, grids[t])
                for l, r in zip(lhs.tolist(), rhs.tolist()):
                    worst = np.maximum(worst, abs(l - r) / (1.0 + abs(l)))
    return [_res("C04.reproducing", "gaussian-reproducing-identity", worst, tol_scale)]


def c05_slices(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed + 5)
    rep_tol = cfg.tolerances["slice_reproduction"]
    ann_tol = cfg.tolerances["slice_annihilation"]
    con_tol = cfg.tolerances["slice_contraction"]
    idem_tol = cfg.tolerances["slice_idempotency"]
    worst_rep = worst_ann = worst_con = worst_idem = 0.0
    cases = [
        (LambdaSignature((1.0,)), lambda t: GridSpec(5.5 / math.sqrt(t), 45, 1.0, 4),
         (0.5, 1.0, 2.0), [(a,) for a in range(5)], [(1,), (2,)], 6),
        (LambdaSignature((1.0, 1.0)), lambda t: GridSpec(5.0 / math.sqrt(t), 23, 1.0, 4),
         (1.0, 2.0), forms.multi_exponents(2, 2), [(1, 0), (1, 1)], 3),
    ]
    for sig, grid_at, tset, alphas, antis, nrand in cases:
        n = sig.n
        for t in tset:
            grid = grid_at(t)
            zc = grid.complex_mesh(n)
            wspat = grid.spatial_weight_array(n)
            gauss = lambda tt: np.exp(-tt * np.sum(np.abs(zc) ** 2, axis=-1))
            nrm = lambda v: math.sqrt(weighted_sq_sum(v, wspat))
            for alpha in alphas:
                mono = np.ones(zc.shape[:-1], dtype=complex)
                for ax, a in enumerate(alpha):
                    mono = mono * zc[..., ax] ** a
                sl = mono * gauss(t)
                out = bergman.bergman_project(sl, t, grid, sig)
                worst_rep = np.maximum(worst_rep, rel_norm(out, sl, wspat))
            for alpha in antis:
                mono = np.ones(zc.shape[:-1], dtype=complex)
                for ax, a in enumerate(alpha):
                    mono = mono * np.conj(zc[..., ax]) ** a
                sl = mono * gauss(t)
                out = bergman.bergman_project(sl, t, grid, sig)
                worst_ann = np.maximum(worst_ann, nrm(out) / nrm(sl))
            for _ in range(nrand):
                # random bumps carry the frequency's Gaussian envelope so the
                # intermediate coherent tails stay inside the box
                sl = _random_profile(grid, n, rng) * gauss(t)
                out = bergman.bergman_project(sl, t, grid, sig)
                worst_con = np.maximum(worst_con, nrm(out) / nrm(sl) - 1.0)
                out2 = bergman.bergman_project(out, t, grid, sig)
                worst_idem = np.maximum(worst_idem, rel_norm(out2, out, wspat))
    return [
        _res("C05a.slice", "holomorphic-gaussian-reproduction", worst_rep, rep_tol),
        _res("C05b.slice", "antiholomorphic-annihilation", worst_ann, ann_tol),
        _res("C05c.slice", "slice-contraction-excess", worst_con, con_tol),
        _res("C05d.slice", "slice-idempotency-gap", worst_idem, idem_tol),
    ]


def c06_parseval(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed + 6)
    tol = cfg.tolerances["parseval"]
    grid = cfg.grid
    worst = 0.0
    wspat = grid.spatial_weight_array(1)
    for _ in range(20):
        u = random_band_field(grid, 1, rng)
        freq = transform.partial_ft(u)
        lhs = float(
            np.sum(np.abs(freq.values) ** 2 * wspat[..., None]) * grid.freq_step
        )
        rhs = 2.0 * math.pi * norm(u) ** 2
        worst = np.maximum(worst, abs(lhs - rhs) / rhs)
    return [_res("C06.parseval", "vertical-transform-parseval", worst, tol)]


def c07_hardy(cfg: RunConfig):
    tol = cfg.tolerances["hardy_reproduction"]
    neg_tol = cfg.tolerances["negative_frequency"]
    sig = cfg.sig
    grid = cfg.grid
    w = grid.field_weight_array(sig.n)
    worst = 0.0
    for i in range(1, len(cfg.packets) + 1):
        u = cfg.packet_field(i)
        v = transform.scalar_pipeline_project(u, sig)
        worst = np.maximum(worst, rel_norm(v.values, u.values, w))
    worst_neg = 0.0
    for spec in cfg.packets[:3]:
        mirrored = replace(
            spec, vertical_sign=-1, conjugated_axes=sig.positive_axes
        )
        u = transform.make_wave_packet(mirrored, sig, grid)
        v = transform.scalar_pipeline_project(u, sig)
        worst_neg = np.maximum(worst_neg, norm(v) / norm(u))
    return [
        _res("C07a.hardy", "hardy-packet-reproduction", worst, tol),
        _res("C07b.hardy", "negative-frequency-annihilation", worst_neg, neg_tol),
    ]


def c08_projector_algebra(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed + 8)
    idem_tol = cfg.tolerances["idempotency"]
    sa_tol = cfg.tolerances["self_adjointness"]
    grid = cfg.grid
    w = grid.field_weight_array(1)
    J = MultiIndex((1,))
    sigm = LambdaSignature((-1.0,))
    # scalar fields, then degree-1 forms for the all-negative scalar structure;
    # per half: input from a random field, projector, inner product, norm, samples
    halves = (
        (lambda u: u, lambda u: transform.scalar_pipeline_project(u, cfg.sig), inner, norm,
         lambda u: u.values),
        (lambda u: FormField(grid=grid, q=1, components={J: u}),
         lambda f: forms.szego_project_form(f, sigm), form_inner, form_norm,
         lambda f: f.components[J].values),
    )
    worst = []
    for make, project, pair, size, values in halves:
        worst_idem = worst_sa = 0.0
        held = []  # input k pairs with input k - 10, so at most ten are held
        for k in range(20):
            u = make(random_band_field(grid, 1, rng))
            pu = project(u)
            worst_idem = np.maximum(worst_idem, rel_norm(values(project(pu)), values(pu), w))
            if k >= 10:
                old, p_old = held.pop(0)
                gap = abs(pair(p_old, u) - pair(old, pu))
                worst_sa = np.maximum(worst_sa, gap / (size(old) * size(u)))
            held.append((u, pu))
        worst += [worst_idem, worst_sa]
    return [
        _res("C08a.algebra", "scalar-idempotency-gap", worst[0], idem_tol),
        _res("C08b.algebra", "scalar-self-adjointness-gap", worst[1], sa_tol),
        _res("C08c.algebra", "form-idempotency-gap", worst[2], idem_tol),
        _res("C08d.algebra", "form-self-adjointness-gap", worst[3], sa_tol),
    ]


def c09_routes(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed + 9)
    pair_tol = cfg.tolerances["pairing_route"]
    dir_tol = cfg.tolerances["direct_route"]
    sig = LambdaSignature((1.0,))
    grid = GridSpec(3.4, 17, 20.0, 65)
    worst_pair = 0.0
    for _ in range(20):
        u = random_band_field(grid, 1, rng, band=(1.1, 2.3), modes=4)
        g = random_band_field(grid, 1, rng, band=(1.1, 2.3), modes=4)
        pr = transform.frequency_pairing(u, g, sig)
        ip = inner(transform.scalar_pipeline_project(u, sig), g)
        worst_pair = np.maximum(worst_pair, abs(pr - ip) / (norm(u) * norm(g)))
    spec = transform.WavePacketSpec(alpha=(1,), t_low=1.1, t_high=2.3, order=4)
    u = transform.make_wave_packet(spec, sig, grid)
    vp = transform.scalar_pipeline_project(u, sig)
    eps_a, eps_b = 0.43, 0.40
    d_a, d_b = transform.szego_apply_direct(u, sig, (eps_a, eps_b))
    extrap = (eps_a * d_b.values - eps_b * d_a.values) / (eps_a - eps_b)
    worst_dir = rel_norm(extrap, vp.values, grid.field_weight_array(1))
    return [
        _res("C09a.routes", "pairing-vs-pipeline-route", worst_pair, pair_tol,
             detail="normalized by |u||g|"),
        _res("C09b.routes", "direct-kernel-vs-pipeline-route", worst_dir, dir_tol,
             detail="eps {0.43, 0.40} Richardson-extrapolated"),
    ]


#: C10's packets as (signature, conjugated axes, vertical sign, alpha): the
#: q = 1 components J = (1,) and (2,) at the mixed signature, then the q = 2
#: and q = 0 forms at the all-negative one; J is the conjugated axes
_C10_CASES = (
    ((-1.0, 1.0), (1,), 1, (0, 0)),
    ((-1.0, 1.0), (2,), -1, (1, 0)),
    ((-1.0, -1.0), (1, 2), 1, (0, 0)),
    ((-1.0, -1.0), (), -1, (0, 0)),
)


def c10_forms(cfg: RunConfig):
    tol = cfg.tolerances["form_reproduction"]
    grid = cfg.grid2
    w = grid.field_weight_array(2)
    rep = []
    cross = 0.0
    # the projector treats a form's components independently, so each packet
    # is projected alone and dropped before the next one is made
    for lams, conj, sign, alpha in _C10_CASES:
        sig, J = LambdaSignature(lams), MultiIndex(conj)
        spec = transform.WavePacketSpec(alpha, 1.0, 1.8, conj, vertical_sign=sign)
        p = transform.make_wave_packet(spec, sig, grid)
        u = FormField(grid=grid, q=J.q, components={J: p})
        out = forms.szego_project_form(u, sig)
        rep.append(rel_norm(out.components[J].values, p.values, w))
        # cross-component isolation and structural zeros, all exact: q = 1 is
        # neither n_minus = 0 nor n_plus = 2 of the all-positive structure
        zeros = [f for K, f in out.iter_components() if K != J]
        if J.q == 1:
            zeros += forms.szego_project_form(u, LambdaSignature((1.0, 1.0))).components.values()
        cross = np.max([cross] + [norm(f) for f in zeros])
        del p, u, out
    return [
        _res("C10a.forms", "mixed-signature-q1-reproduction", np.max(rep[:2]), tol),
        _res("C10b.forms", "cross-component-annihilation", cross, 0.0, "<="),
        _res("C10c.forms", "all-negative-q2-reproduction", rep[2], tol),
        _res("C10d.forms", "all-negative-q0-reproduction", rep[3], tol),
    ]


def _sign_patterns(n: int):
    mags = (1.0, 0.7, 1.3)
    out = []
    for bits in range(2**n):
        out.append(tuple(mags[j % 3] * (1 if (bits >> j) & 1 else -1) for j in range(n)))
    return out


def _degenerate_patterns(n: int):
    if n == 1:
        return [(0.0,)]
    if n == 2:
        return [(0.0, 1.0), (-1.0, 0.0)]
    return [(0.0, 1.0, -1.0), (1.0, 0.0, 1.0)]


def c11_vanishing(cfg: RunConfig):
    wit_tol = cfg.tolerances["witness_ratio"]
    fin_tol = cfg.tolerances["finite_match"]
    finite_violations = 0
    min_ratio = math.inf
    worst_fin = 0.0
    # a truncated integral depends on (sig, J, eta) only through the axis
    # coefficients, which repeat across signatures, J and eta: evaluate each
    # distinct (alpha, coefficients, radii or points) quadrature once, and
    # the witnesses in one batch that shares their inner levels
    quad = {}
    witnesses = {}
    for n in (1, 2, 3):
        for lams in _sign_patterns(n) + _degenerate_patterns(n):
            sig = LambdaSignature(lams)
            trivial_qs = [
                q for q in range(n + 1)
                if sig.degenerate or q not in (sig.n_minus, sig.n_plus)
            ]
            for q in range(n + 1):
                entries = forms.vanishing_evidence(q, sig)
                if q in trivial_qs:
                    finite_violations += sum(1 for e in entries if e.finite)
                for e in entries:
                    c = bergman.axis_coefficients(sig, e.J, e.eta)
                    if not e.finite:
                        # C11b reads the sweep's end points only
                        sweep = bergman.default_radius_sweep(c)
                        radii = (sweep[0], sweep[-1])
                        witnesses[(e.alpha, tuple(c), radii)] = (e.alpha, c, radii)
                    elif n <= 2 or sum(e.alpha) <= 1:
                        key = (e.alpha, tuple(c), 8.0, 96)
                        if key not in quad:
                            quad[key] = bergman.truncated_monomial_integral(
                                e.alpha, c, 8.0, points=96
                            )
                        approx = quad[key]
                        worst_fin = np.maximum(worst_fin, abs(approx - e.value) / e.value)
    for vals in bergman.divergence_witnesses(list(witnesses.values())):
        min_ratio = np.minimum(min_ratio, float(vals[-1] / vals[0]))
    return [
        _res("C11a.vanish", "classifier-infinite-completeness", finite_violations, 0.0, "<="),
        _res("C11b.vanish", "divergence-witness-growth-ratio", min_ratio, wit_tol, ">="),
        _res("C11c.vanish", "finite-closed-form-vs-quadrature", worst_fin, fin_tol),
    ]


def c12_residual_orders(cfg: RunConfig):
    order_tol = cfg.tolerances["residual_order"]
    margin_tol = cfg.tolerances["noise_margin"]
    rng = np.random.default_rng(cfg.seed + 12)
    sig = LambdaSignature((1.0,))
    J0 = MultiIndex(())
    spec = transform.WavePacketSpec(alpha=(1,), t_low=0.9, t_high=1.6, order=4)
    res_packet = []
    res_proj = []
    finest = None
    for m, nv in ((17, 64), (33, 128), (65, 256)):
        grid = GridSpec(4.0, m, 8.0, nv)
        # bin collocation keeps the packet exactly periodic: the residual is
        # then pure stencil truncation error, which is what the order measures
        u = transform.make_wave_packet(spec, sig, grid, bin_quadrature=True)
        nu = norm(u)
        r = forms.cr_system_residual(u, J0, sig)
        res_packet.append(r / nu)
        v = transform.scalar_pipeline_project(u, sig)
        rp = forms.cr_system_residual(v, J0, sig)
        res_proj.append(rp / norm(v))
        finest = grid
    orders_packet = [math.log2(a / b) for a, b in zip(res_packet, res_packet[1:])]
    orders_proj = [math.log2(a / b) for a, b in zip(res_proj, res_proj[1:])]
    noise_vals = rng.normal(size=finest.field_shape(1)) + 1j * rng.normal(
        size=finest.field_shape(1)
    )
    noise = ScalarField(grid=finest, values=noise_vals)
    rn = forms.cr_system_residual(noise, J0, sig) / norm(noise)
    margin = rn / res_packet[-1]
    return [
        _res("C12a.residual", "packet-residual-order", np.min(orders_packet), order_tol, ">=",
             detail=f"orders {orders_packet[0]:.3f}, {orders_packet[1]:.3f}"),
        _res("C12b.residual", "projected-residual-order", np.min(orders_proj), order_tol, ">=",
             detail=f"orders {orders_proj[0]:.3f}, {orders_proj[1]:.3f}"),
        _res("C12c.residual", "noise-control-margin", margin, margin_tol, ">="),
    ]


_DETERMINISM = "C13.determinism"
_DETERMINISM_SUBSET = ["C00.preflight", "C01.gamma", "C03.phase", "C06.parseval"]


def c13_determinism(cfg: RunConfig, first):
    """Compare three runs of the subset's report: ``first``, one serial rerun and one on two threads.

    ``first`` is the subset's results as the pass computed them, or None
    when the pass does not run the whole subset; C13 then runs it once
    serially first.
    """
    if first is None:
        first = run_verification(cfg, _DETERMINISM_SUBSET, 1)
    texts = [report_text(first, cfg)]
    for jobs in (1, 2):
        results = run_verification(cfg, _DETERMINISM_SUBSET, jobs)
        texts.append(report_text(results, cfg))
    mismatches = sum(1 for t in texts[1:] if t != texts[0])
    return [
        _res("C13.determinism", "report-bytes-deterministic", mismatches, 0.0, "<=",
             detail="2 reruns + jobs {1,2} on subset " + ",".join(_DETERMINISM_SUBSET)),
    ]


# ---------------------------------------------------------------------------
# registry and driver
# ---------------------------------------------------------------------------

CRITERIA = [
    ("C00.preflight", c00_preflight),
    ("C01.gamma", c01_gamma),
    ("C02.fio", c02_kernel_fio),
    ("C03.phase", c03_phase),
    ("C04.reproducing", c04_reproducing),
    ("C05.slices", c05_slices),
    ("C06.parseval", c06_parseval),
    ("C07.hardy", c07_hardy),
    ("C08.algebra", c08_projector_algebra),
    ("C09.routes", c09_routes),
    ("C10.forms", c10_forms),
    ("C11.vanish", c11_vanishing),
    ("C12.residual", c12_residual_orders),
    ("C13.determinism", c13_determinism),
]

# a result id as the report prints it: number, letter suffix, short name
_RESULT_ID = re.compile(r"(C\d\d)[a-z]\.([a-z]+)")


def _matches(cid: str, include) -> bool:
    """Whether some token names criterion ``cid`` exactly.

    A token is the registry id (``C05.slices``), its number (``C05``) or a
    result id the report prints (``C05a.slice``: the number with a letter
    suffix and the registry name, singular or plural).
    """
    if include is None:
        return True
    num, name = cid.split(".")
    for tok in include:
        if tok in (cid, num):
            return True
        hit = _RESULT_ID.fullmatch(tok)
        if hit and hit.group(1) == num and hit.group(2) in (name, name.removesuffix("s")):
            return True
    return False


#: glibc's mallopt parameter for the number of malloc arenas
_M_ARENA_MAX = -8


def _one_malloc_arena() -> None:
    """Make threads started from now on allocate from glibc's main arena.

    Each new thread otherwise gets an arena of its own, which keeps the
    pages it frees; C13's worker threads then left ~10 MB per arena behind
    that the next call's criteria could not reuse, so a process that ran the
    gate again peaked ~10 MB higher on its second and third call.  A no-op
    where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_ARENA_MAX, 1)


def run_verification(cfg: RunConfig, include, jobs):
    """Run the criteria ``include`` names (all when None); returns results in registry order.

    ``jobs`` criteria run at once on threads, 0 meaning one per core; the
    results do not depend on it.  Raises ``UsageError`` when a token of
    ``include`` names no criterion.
    """
    if include is not None:
        unknown = [tok for tok in include if not any(_matches(cid, [tok]) for cid, _ in CRITERIA)]
        if unknown:
            raise UsageError(
                f"--criteria: no criterion is named by {unknown}; name one as C05, C05.slices "
                "or C05a.slice"
            )
    chosen = [(cid, fn) for cid, fn in CRITERIA if _matches(cid, include)]
    if jobs == 0:
        import os

        jobs = os.cpu_count() or 1
    # C13 (last in the registry) is handed the subset's results of this pass
    # as its first run, or None when the pass does not run the whole subset
    where = {cid: i for i, (cid, _) in enumerate(chosen)}
    subset = [where.get(cid) for cid in _DETERMINISM_SUBSET]

    def first(result_of):
        return None if None in subset else [r for i in subset for r in result_of(i)]

    results: list[list[CriterionResult]] = [None] * len(chosen)
    if jobs <= 1:
        for i, (cid, fn) in enumerate(chosen):
            results[i] = fn(cfg, first(results.__getitem__)) if cid == _DETERMINISM else fn(cfg)
    else:
        _one_malloc_arena()
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = []
            for cid, fn in chosen:
                if cid == _DETERMINISM:
                    # submitted after the subset, so its criteria have all
                    # started by the time a worker picks C13 up and waits
                    later = lambda fn=fn: fn(cfg, first(lambda i: futures[i].result()))
                    futures.append(pool.submit(later))
                else:
                    futures.append(pool.submit(fn, cfg))
            for i, fut in enumerate(futures):
                results[i] = fut.result()
    flat: list[CriterionResult] = []
    for group in results:
        flat.extend(group)
    return flat


def report_text(results, cfg: RunConfig) -> str:
    digest = hashlib.sha256(cfg.canonical_text().encode("utf-8")).hexdigest()[:16]
    lines = [
        "# verification report",
        f"# config-digest: {digest}",
    ]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  ({r.detail})" if r.detail else ""
        lines.append(
            f"{r.cid:<16} {r.name:<38} measured={r.measured:.12e} "
            f"budget={r.budget:.12e} cmp={r.cmp} {status}{extra}"
        )
    npass = sum(1 for r in results if r.passed)
    lines.append(f"# overall: {'PASS' if npass == len(results) else 'FAIL'} {npass}/{len(results)}")
    return "\n".join(lines) + "\n"
