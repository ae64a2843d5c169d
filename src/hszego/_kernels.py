"""Hot numeric kernels: numpy exponentials and BLAS contractions.

A frequency slice's projector is built once by :func:`slice_operator` and
applied by :func:`apply_slice_operator` to every slice that needs it: the
scalar pipeline applies it to s_t and, for the idempotency gap, to P s_t.
:func:`project_slices` builds and applies one operator per slice.

Every kernel is deterministic: reduction orders are fixed and nothing runs
in parallel beyond BLAS.
"""

from __future__ import annotations

import numpy as np

from .core import PANEL_NODES


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# per-axis projector factors
#
# Per complex axis, the weighted projector matrix at frequency t is
#   (|t*lam|/pi) * E   with
#   E[(a,b),(c,d)] = exp(-|t*lam|*((xc-xa)^2 + (xd-xb)^2)
#                        - 2i*t*lam*(xa*xd - xb*xc)) * 2*w[c]*w[d],
# holomorphic in z = xa + i*xb where t*lam > 0 and antiholomorphic where
# t*lam < 0.  With G = exp(-|t*lam|*(x-x')^2) and F = exp(-2i*t*lam*x*x'),
# both m x m, each entry splits exactly as
#   E[(a,b),(c,d)] = N[(a,b),c] * M[(a,b),d],
#   M[(a,b),d] = F[a,d] * G[b,d] * sqrt(2)*w[d],
#   N[(a,b),c] = G[a,c] * conj(F[b,c]) * sqrt(2)*w[c],
# so an axis costs 2m^2 exponentials instead of m^4.
# ---------------------------------------------------------------------------


def axis_projector_exp(nodes, w, t, lam):
    """The two (m^2, m) factors ``(M, N)`` of one axis' weighted exponential at t."""
    x = np.asarray(nodes, dtype=np.float64)
    m = x.size
    tl = float(t) * float(lam)
    G = np.exp(-abs(tl) * (x[:, None] - x[None, :]) ** 2)
    F = np.exp(-2j * tl * np.multiply.outer(x, x))
    sw = np.sqrt(2.0) * np.asarray(w, dtype=np.float64)
    M = (F[:, None, :] * (G * sw)[None, :, :]).reshape(m * m, m)
    N = (G[:, None, :] * (F.conj() * sw)[None, :, :]).reshape(m * m, m)
    return M, N


def pair_exp(Q, t):
    """exp(-t*Q) elementwise."""
    return np.exp(-t * Q)


# ---------------------------------------------------------------------------
# slice operator: built once per frequency, applied to as many slices as needed
# ---------------------------------------------------------------------------


def slice_operator(t, nodes, w, lams):
    """The signed slice kernel at nonzero frequency t,
    prod_j (|t lam_j|/pi) e^{-|t lam_j||z_j-w_j|^2 - t lam_j (zbar_j w_j - z_j wbar_j)}:
    the phi_minus slice at t > 0 and the phi_plus slice at t < 0.

    Returns ``(pref, axes)`` with the prefactor prod_j |t lam_j|/pi and one
    entry per complex axis: the factor pair ``(M, N)`` for n = 1, the
    assembled m^2 x m^2 axis matrix for n >= 2.  :func:`apply_slice_operator`
    applies it.
    """
    t = float(t)
    pref = 1.0
    for lam in lams:
        pref *= abs(t * lam) / np.pi
    factors = [axis_projector_exp(nodes, w, t, lam) for lam in lams]
    if len(lams) == 1:
        return pref, factors
    # m^(2(n-1)) columns per axis: one GEMM on the assembled axis matrix
    # beats contracting factor by factor
    m = nodes.size
    return pref, [(N[:, :, None] * M[:, None, :]).reshape(m * m, m * m) for M, N in factors]


def apply_slice_operator(op, s):
    """Apply a :func:`slice_operator` to one slice ``s`` of shape (m^2,)*n; returns a new array."""
    pref, axes = op
    n = len(axes)
    if n == 1:
        # v[ab] = sum_c N[ab,c] * sum_d M[ab,d] * u[c,d]
        M, N = axes[0]
        m = M.shape[1]
        Y = M @ s.reshape(m, m).T
        return pref * np.einsum("ij,ij->i", N, Y)
    if n == 2:
        return pref * (axes[0] @ s @ axes[1].T)
    v = s
    for ax in range(n):
        v = np.tensordot(axes[ax], v, axes=([1], [ax]))
    return pref * np.transpose(v, axes=tuple(range(n - 1, -1, -1)))


def project_slices(slabs, ts, bin_step, nodes, w, lams):
    """Project each slice at its nonzero frequency ``ts[i]`` with :func:`slice_operator`.

    ``slabs``: (K,) + (m^2,)*n with one reshaped block per complex axis;
    ``ts`` and ``lams`` must be nonzero.  Each slice is projected on its
    own; ``bin_step`` is not used.  Returns the same shape.
    """
    n = len(lams)
    out = np.zeros_like(slabs)
    m = nodes.size
    if slabs.shape[1:] != (m * m,) * n:
        raise ValueError("slab shape does not match (m*m,)*n")
    if np.any(ts == 0):
        raise ValueError("project_slices expects nonzero frequencies only")
    if any(lam == 0 for lam in lams):
        raise ValueError("project_slices expects nonzero structure constants only")
    for i in range(ts.size):
        out[i] = apply_slice_operator(slice_operator(ts[i], nodes, w, lams), slabs[i])
    return out


# ---------------------------------------------------------------------------
# pairwise quadratic phase  Q(z, w) = sum_j lam_j*(|z_j - w_j|^2
#                                     + conj(z_j)*w_j - z_j*conj(w_j))
# shared by the dense pairing sum and the direct kernel route
# ---------------------------------------------------------------------------


def phase_quadratic(zcoords, lams):
    """Matrix Q over flattened spatial nodes; rows index z, columns index w."""
    zc = np.ascontiguousarray(zcoords, dtype=np.complex128)
    la = np.asarray(lams, dtype=np.float64)
    S = zc.shape[0]
    Q = np.zeros((S, S), dtype=np.complex128)
    for ax in range(zc.shape[1]):
        z = zc[:, ax]
        Q += la[ax] * (
            np.abs(z[:, None] - z[None, :]) ** 2
            + np.conj(z)[:, None] * z[None, :]
            - z[:, None] * np.conj(z)[None, :]
        )
    return Q


# ---------------------------------------------------------------------------
# dense frequency pairing:  sum_t coeff_t * g_t^H W exp(-t Q) W u_t
# ---------------------------------------------------------------------------


def pairing_sum(Q, su, sg, ts, coeffs, wspat):
    """Accumulate the dense frequency-domain pairing over positive slices."""
    total = 0.0 + 0.0j
    for k in range(ts.size):
        E = pair_exp(Q, float(ts[k]))
        total += coeffs[k] * np.vdot(sg[k] * wspat, E @ (su[k] * wspat))
    return total


# ---------------------------------------------------------------------------
# direct kernel route:  out_e += c_e(t) * exp(-t*Q) @ uw @ exp(i*t*dwrap)^T
# ---------------------------------------------------------------------------


def direct_kernel_apply(Q, uw, dwrap, tn, cq):
    """Apply the t-integrated direct kernel to weighted samples ``uw``, once per cutoff.

    ``Q``: (S, S) spatial quadratic phase; ``dwrap``: (N, N) wrapped vertical
    differences (rows index output x, columns input y); ``tn``: the nodes of
    one composite Gauss-Legendre rule with equal-width panels of
    ``PANEL_NODES`` nodes; ``cq``: (C, T) coefficient weights of the symbol
    integral, one row per cutoff.  Returns (C, S, N): one output per row.

    Each node's Z = (exp(-t*Q) @ uw) @ exp(i*t*dwrap)^T is computed once
    and added into every output with its row's weight; a node whose weights
    are all zero is skipped.  Node k*PANEL_NODES + j is the first panel's
    node j plus k panel widths h, so exp(-t*Q) is stepped, not recomputed:
    for each j it starts at exp(-tn[j]*Q) and is multiplied by exp(-h*Q)
    from one panel to the next, PANEL_NODES + 1 exponentials in all.
    """
    panels, rest = divmod(tn.size, PANEL_NODES)
    if panels < 2 or rest or cq.shape[-1] != tn.size:
        raise ValueError("direct_kernel_apply expects two or more whole panels and one weight per node")
    out = np.zeros((cq.shape[0],) + uw.shape, dtype=uw.dtype)
    D = pair_exp(Q, float(tn[PANEL_NODES] - tn[0]))
    for j in range(PANEL_NODES):
        E = pair_exp(Q, float(tn[j]))
        for k in range(panels):
            if k:
                E *= D
            i = k * PANEL_NODES + j
            if not cq[:, i].any():
                continue
            V = np.exp(1j * tn[i] * dwrap)
            Z = (E @ uw) @ V.T
            for e in range(cq.shape[0]):
                out[e] += cq[e, i] * Z
    return out
