"""Hot numeric kernels: numpy exponentials and BLAS contractions.

A frequency slice's projector is built once by :func:`slice_operator` and
applied by :func:`project_slice`, which projects one slice in place and, for
the scalar pipeline's report, applies the operator again to P s_t and takes
the norms.  Each axis' kernel splits into two m x m factors along its real
coordinates (:func:`axis_projector_exp`).  For n = 1 the operator is the
four m x m arrays the slice is contracted with, through one real GEMM per
application.  For n >= 2 it is two real blocks per axis in the
parity-sector basis: the slice moves there once (:func:`to_sectors`), the
blocks act there (:func:`apply_sectors`), the norms are taken there
(:func:`sector_sq`) and P s_t moves back once (:func:`from_sectors`).
:func:`slice_work` makes the scratch of either.  The pipeline's slab loop
(``transform._pipeline``) and ``bergman.bergman_project`` call these
directly; :func:`project_slices`, which builds and applies one operator per
slice of a stack, has no caller in the package.

Every kernel is deterministic: reduction orders are fixed and nothing runs
in parallel beyond BLAS.
"""

from __future__ import annotations

import math

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
# t*lam < 0.  With the real Gaussian G = exp(-|t*lam|*(x-x')^2) and the
# unimodular phase F = exp(-2i*t*lam*x*x'), both m x m, each entry splits
# exactly as
#   E[(a,b),(c,d)] = G[a,c]*sqrt(2)*w[c]*conj(F[b,c]) * F[a,d]*G[b,d]*sqrt(2)*w[d],
# so an axis costs 2m^2 exponentials instead of m^4.  For n = 1 the slice
# u[c,d] is contracted with G and F directly (:func:`project_slice`); for
# n >= 2 the two (m^2, m) factors
#   M[(a,b),d] = F[a,d] * G[b,d] * sqrt(2)*w[d],
#   N[(a,b),c] = G[a,c] * conj(F[b,c]) * sqrt(2)*w[c],
# with E[(a,b),(c,d)] = N[(a,b),c] * M[(a,b),d], build the sector blocks.
# ---------------------------------------------------------------------------


def axis_projector_exp(nodes, t, lam):
    """One axis' m x m factors ``(G, F)`` at t: the real Gaussian
    exp(-|t lam|(x - x')^2) and the phase exp(-2i t lam x x') at the signed t lam."""
    x = np.asarray(nodes, dtype=np.float64)
    tl = float(t) * float(lam)
    G = np.exp(-abs(tl) * (x[:, None] - x[None, :]) ** 2)
    F = np.exp(-2j * tl * np.multiply.outer(x, x))
    return G, F


def pair_exp(Q, t):
    """exp(-t*Q) elementwise."""
    return np.exp(-t * Q)


# ---------------------------------------------------------------------------
# parity sectors (n >= 2)
#
# The nodes are mirror-symmetric: x_(m-1-a) = -x_a, with equal weights.  An
# axis matrix is then unchanged when both points are negated, and goes to its
# complex conjugate when both are reflected in x.  Along each real coordinate
# take the butterflies e_a = v_a + v_(m-1-a) for a < m//2 (and the centre
# node itself when m is odd) and o_a = v_a - v_(m-1-a), and multiply what is
# odd in x by i.  In that basis the axis matrix is block diagonal with two
# real blocks: the sectors whose x- and y-parities agree (EE, then OO) and
# those where they differ (EO, then OE), each row-major in its (x, y)
# coefficients.
#
# A slice in sector coordinates is a float array with its real and
# imaginary planes first, (2,) + (m^2,)*n, that a block acts on at once.
# Every step works on the outermost complex axis and leaves it innermost:
# the butterflies are sums and differences of mirrored views of contiguous
# rows, a transposing copy brings the next axis out, and each block GEMM
# writes its result transposed.  Sector coordinates hold the last axis
# outermost, then axes 0 .. n-2.
# ---------------------------------------------------------------------------


def _quadrants(v, m):
    """Views ``((EE, EO), (OE, OO))`` of the outer axis' sector index of ``v`` (P, m^2, ...).

    Each view is (P, rows, cols, ...); the first pair holds the x-even
    coefficients, the second the x-odd ones.
    """
    h = m // 2
    me = m - h

    def part(lo, rows, cols):
        return v[:, lo : lo + rows * cols].reshape(v.shape[:1] + (rows, cols) + v.shape[2:], copy=False)

    ee, oo, eo = me * me, h * h, me * h
    return (part(0, me, me), part(ee + oo, me, h)), (part(ee + oo + eo, h, me), part(ee, h, h))


def _axis_to_sectors(src, work, dst, m):
    """The outer axis of ``src`` (2, m, m, ...) in sector order into ``dst`` (2, m^2, ...)."""
    h = m // 2
    me = m - h
    lo, hi = src[:, :h], src[:, : -h - 1 : -1]
    np.add(lo, hi, out=work[:, :h])
    if me > h:
        work[:, h] = src[:, h]
    # odd in x, times i: (re, im) of lo - hi become (-im, re)
    np.subtract(hi[1], lo[1], out=work[0, me:])
    np.subtract(lo[0], hi[0], out=work[1, me:])
    for rows, (even, odd) in zip((work[:, :me], work[:, me:]), _quadrants(dst, m)):
        lo, hi = rows[:, :, :h], rows[:, :, : -h - 1 : -1]
        np.add(lo, hi, out=even[:, :, :h])
        if me > h:
            even[:, :, h] = rows[:, :, h]
        np.subtract(lo, hi, out=odd)


def _axis_from_sectors(src, work, dst, m):
    """4 times the inverse of :func:`_axis_to_sectors`: ``src`` (2, m^2, ...) into ``dst`` (2, m, m, ...)."""
    h = m // 2
    me = m - h
    for rows, (even, odd) in zip((work[:, :me], work[:, me:]), _quadrants(src, m)):
        np.add(even[:, :, :h], odd, out=rows[:, :, :h])
        np.subtract(even[:, :, :h], odd, out=rows[:, :, : -h - 1 : -1])
        if me > h:
            np.multiply(even[:, :, h], 2.0, out=rows[:, :, h])
    e, o = work[:, :h], work[:, me:]
    lo, hi = dst[:, :h], dst[:, : -h - 1 : -1]
    # odd in x, times -i: (re, im) become (im, -re)
    np.add(e[0], o[1], out=lo[0])
    np.subtract(e[1], o[0], out=lo[1])
    np.subtract(e[0], o[1], out=hi[0])
    np.add(e[1], o[0], out=hi[1])
    if me > h:
        np.multiply(work[:, h], 2.0, out=dst[:, h])


def _planes(s):
    """The (re, im) planes of a complex array as a float view, planes first."""
    return np.moveaxis(s.view(np.float64).reshape(s.shape + (2,)), -1, 0)


def _outer_split(v, m):
    """``v`` (2, m^2, ...) as (2, m, m, ...)."""
    return v.reshape((2, m, m) + v.shape[2:], copy=False)


def _rotate(src, dst):
    """Copy ``src`` (2, m^2, ...) into ``dst`` with its outer axis moved innermost."""
    np.copyto(dst.reshape(2, -1, src.shape[1]), src.reshape(2, src.shape[1], -1).transpose(0, 2, 1))


def to_sectors(s, y, work):
    """Sector coordinates of the slice ``s`` ((m^2,)*n, complex) into ``y`` ((2,) + s.shape, float).

    ``work`` is two scratch arrays of y's shape.
    """
    n, m = s.ndim, math.isqrt(s.shape[0])
    a, b = work
    src = _planes(s)
    for j in range(n):
        if j:
            _rotate(y, b)
            src = b
        _axis_to_sectors(_outer_split(src, m), _outer_split(a, m), y, m)


def from_sectors(y, out, work):
    """The slice ``out`` (complex) of the sector coordinates ``y``; inverts :func:`to_sectors`.

    ``y`` is overwritten; ``work`` is two scratch arrays of its shape.
    """
    n, m = out.ndim, math.isqrt(out.shape[0])
    a, b = work
    # each axis' butterflies return 4 times the slice
    y *= 0.25**n
    for j in range(n - 1):
        _axis_from_sectors(y, _outer_split(a, m), _outer_split(b, m), m)
        _rotate(b, y)
    # the axes of y are now n-2, n-1, 0, .., n-3
    dst = _planes(out).transpose([0] + [1 + (n - 2 + k) % n for k in range(n)])
    _axis_from_sectors(y, _outer_split(a, m), _outer_split(dst, m), m)


def apply_sectors(axes, y, out, work):
    """``out`` = the :func:`slice_operator` ``axes`` (n >= 2) on the sector coordinates ``y``.

    ``axes`` holds each complex axis' two blocks.  They act on the outer
    axis and write it innermost, so the layout comes back after n steps;
    ``y`` is kept and ``work`` is scratch of its shape.
    """
    n, S = len(axes), y.shape[1]
    src = y
    # the last axis is outermost, then axes 0 .. n-2
    for j, blocks in enumerate(axes[-1:] + axes[:-1]):
        # alternate so that the last step lands in ``out``
        dst = out if (n - j) % 2 else work
        a, b = src.reshape(2, S, -1), dst.reshape(2, -1, S)
        lo = 0
        for blk in blocks:
            k = slice(lo, lo + blk.shape[0])
            lo = k.stop
            np.matmul(a[:, k].transpose(0, 2, 1), blk.T, out=b[:, :, k])
        src = dst


def sector_weights(w, n):
    """The quadrature weights of a slice (with the 2^n factor) in sector coordinates, (m^2,)*n.

    A slice's weighted squared norm is the sum over both planes of its
    sector coordinates squared times these weights: the weights are equal
    on each mirror orbit, and the butterflies of a pair have twice its norm.
    """
    w = np.asarray(w, dtype=np.float64)
    m = w.size
    h = m // 2
    me = m - h
    # per butterfly coefficient: a pair's weight over 2, the centre's own
    wb = np.concatenate([w[:h] / 2.0, w[h:me], w[:h] / 2.0])
    axis = np.empty((1, m * m))
    for (even, odd), wx in zip(_quadrants(axis, m), (wb[:me], wb[me:])):
        even[0] = 2.0 * np.multiply.outer(wx, wb[:me])
        odd[0] = 2.0 * np.multiply.outer(wx, wb[me:])
    out = np.array(1.0)
    for _ in range(n):
        out = np.multiply.outer(out, axis[0])
    return out


def sector_sq(y, omega):
    """The weighted squared norm of the sector coordinates ``y`` with :func:`sector_weights` ``omega``."""
    f = y.reshape(2, -1)
    return float(np.einsum("pk,pk,k->", f, f, omega.reshape(-1)))


def _sector_blocks(nodes, w, t, lam):
    """The two real blocks of one axis' weighted matrix (|t lam|/pi) E at t."""
    m = nodes.size
    S, h = m * m, m // 2
    me = m - h
    G, F = axis_projector_exp(nodes, t, lam)
    sw = np.sqrt(2.0) * np.asarray(w, dtype=np.float64)
    M = (F[:, None, :] * (G * sw)[None, :, :]).reshape(S, m)
    N = (G[:, None, :] * (F.conj() * sw)[None, :, :]).reshape(S, m)
    # the inverse butterflies on the columns, through the factors: a pair's
    # coefficients are half sums and differences, the centre is kept; the
    # phase -i of the columns odd in x goes into N
    inv = np.zeros((m, m))
    a = np.arange(h)
    inv[a, a] = inv[m - 1 - a, a] = inv[a, me + a] = 0.5
    inv[m - 1 - a, me + a] = -0.5
    if me > h:
        inv[h, h] = 1.0
    Mb = ((abs(float(t) * float(lam)) / np.pi) * M) @ inv
    Nb = N @ inv
    Nb[:, me:] *= -1j
    # the matrix with its columns in sector order: EE, OO, EO, OE
    E = np.empty((S, S), dtype=np.complex128)
    lo = 0
    for xs, ys in ((slice(0, me), slice(0, me)), (slice(me, m), slice(me, m)),
                   (slice(0, me), slice(me, m)), (slice(me, m), slice(0, me))):
        rows, cols = Nb[:, xs], Mb[:, ys]
        hi = lo + rows.shape[1] * cols.shape[1]
        np.multiply(rows[:, :, None], cols[:, None, :], out=E[:, lo:hi].reshape(S, rows.shape[1], -1))
        lo = hi
    # the butterflies on the rows, real parts only: the blocks are real.
    # Along x, times i on the odd rows, whose real part is then minus the
    # imaginary part of the difference
    re, im = _outer_split(_planes(E), m)
    X = np.empty((m, m, S))
    np.add(re[:h], re[: -h - 1 : -1], out=X[:h])
    if me > h:
        X[h] = re[h]
    np.subtract(im[: -h - 1 : -1], im[:h], out=X[me:])
    # along y, each quadrant only on its own block's columns: the x-even
    # rows give EE (block 0) and EO (block 1), the x-odd rows OE (block 1)
    # and OO (block 0)
    s0 = me * me + h * h
    R0, R1 = np.empty((s0, s0)), np.empty((S - s0, S - s0))
    b0, b1 = slice(0, s0), slice(s0, S)
    for rows, even, ke, odd, ko in (
        (X[:me], R0[: me * me], b0, R1[: me * h], b1),
        (X[me:], R1[me * h :], b1, R0[me * me :], b0),
    ):
        even = even.reshape(rows.shape[0], me, -1)
        np.add(rows[:, :h, ke], rows[:, : -h - 1 : -1, ke], out=even[:, :h])
        if me > h:
            even[:, h] = rows[:, h, ke]
        np.subtract(rows[:, :h, ko], rows[:, : -h - 1 : -1, ko], out=odd.reshape(rows.shape[0], h, -1))
    return R0, R1


def _flip_x(blocks, m):
    """The blocks of the opposite sign: rows and columns times their x-parity (+1 even, -1 odd)."""
    h = m // 2
    out = []
    for blk, even in zip(blocks, ((m - h) ** 2, (m - h) * h)):
        f = blk.copy()
        f[:even, even:] *= -1.0
        f[even:, :even] *= -1.0
        out.append(f)
    return tuple(out)


# ---------------------------------------------------------------------------
# slice operator: built once per frequency, applied to as many slices as needed
# ---------------------------------------------------------------------------


def slice_operator(t, nodes, w, lams):
    """The signed slice kernel at nonzero frequency t,
    prod_j (|t lam_j|/pi) e^{-|t lam_j||z_j-w_j|^2 - t lam_j (zbar_j w_j - z_j wbar_j)}:
    the phi_minus slice at t > 0 and the phi_plus slice at t < 0.

    For n = 1, the four arrays the contraction of :func:`project_slice`
    multiplies by: ``(G, (F sqrt(2) w)^T, (|t lam|/pi) sqrt(2) w G, conj F)``
    from the axis' m x m factors (:func:`axis_projector_exp`), the middle
    and last with a trailing unit axis.  For n >= 2, one pair of real
    parity-sector blocks per complex axis, with its |t lam_j|/pi in them,
    which :func:`apply_sectors` applies.  The blocks are built once per
    distinct |t lam_j|: an axis of the opposite sign takes them with rows
    and columns times their x-parity.
    """
    t = float(t)
    if len(lams) == 1:
        G, F = axis_projector_exp(nodes, t, lams[0])
        sw = np.sqrt(2.0) * np.asarray(w, dtype=np.float64)
        return G, (F * sw).T[:, :, None], (abs(t * lams[0]) / np.pi * sw) * G, F.conj()[:, :, None]
    m = nodes.size
    built = {}
    axes = []
    for lam in lams:
        tl = t * float(lam)
        if abs(tl) not in built:
            built[abs(tl)] = (tl, _sector_blocks(nodes, w, t, lam))
        tl0, blocks = built[abs(tl)]
        axes.append(blocks if (tl0 > 0) == (tl > 0) else _flip_x(blocks, m))
    return axes


def slice_weights(w, n):
    """The weights :func:`project_slice` takes a slice's norms with, from the axis weights ``w``.

    For n = 1 those of the slice itself with the factor 2, flat; for n >= 2
    those of its sector coordinates (:func:`sector_weights`).
    """
    return np.multiply.outer(2.0 * w, w).reshape(-1) if n == 1 else sector_weights(w, n)


def slice_work(m, n):
    """The scratch :func:`project_slice` takes for a slice of n axes on m nodes each.

    For n = 1 the two (m, m, m) complex arrays of the contraction; for
    n >= 2 the slice, P s and P(P s) in sector coordinates, (3, 2) + (m^2,)*n.
    """
    return np.empty((2, m, m, m), dtype=np.complex128) if n == 1 else np.empty((3, 2) + (m * m,) * n)


def project_slice(op, s, omega, work):
    """Project the slice ``s`` ((m^2,)*n, complex) in place with the :func:`slice_operator` ``op``.

    ``work`` is the :func:`slice_work` of the slice.  Given the
    :func:`slice_weights` ``omega``, the operator is applied again to P s
    and ``(||P s||^2, ||P s - s||^2, ||P(P s) - P s||^2)`` comes back, taken
    where P s is made: on the slice for n = 1, in sector coordinates for
    n >= 2.  Given None, returns None.

    For n = 1 the operator's four arrays act as they stand: each
    application to u[c,d] makes Y[d,a,c] = F[a,d] sqrt(2) w[d] u[c,d], then
    T = G @ Y as one real GEMM on Y's float view
    (T[b,a,c] = sum_d G[b,d] Y[d,a,c]), then
    v[a,b] = sum_c (|t lam|/pi) sqrt(2) w[c] G[a,c] conj(F[b,c]) T[b,a,c].
    For n >= 2 :func:`apply_sectors` applies its blocks.
    """
    if s.ndim > 1:
        y, py, ppy = work
        to_sectors(s, y, (py, ppy))
        apply_sectors(op, y, py, ppy)
        sums = None
        if omega is not None:
            sums = (sector_sq(py, omega), sector_sq(np.subtract(py, y, out=y), omega))
            apply_sectors(op, py, ppy, y)
            sums += (sector_sq(np.subtract(ppy, py, out=ppy), omega),)
        from_sectors(py, s, (y, ppy))
        return sums
    G, Fw, Gw, Fc = op
    m = G.shape[0]
    Y, T = work
    Yf, Tf = Y.view(np.float64).reshape(m, -1), T.view(np.float64).reshape(m, -1)

    def apply(u, out):
        np.multiply(Fw, u.reshape(m, m).T[:, None, :], out=Y)
        np.matmul(G, Yf, out=Tf)
        np.multiply(T, Gw, out=T)
        np.matmul(T, Fc, out=out.reshape(m, m).T[:, :, None])
        return out

    def sq(d):
        f = d.view(np.float64).reshape(omega.size, -1)
        return float(np.einsum("ij,ij->i", f, f) @ omega)

    p = apply(s, np.empty_like(s))
    if omega is None:
        s[...] = p
        return None
    change = sq(np.subtract(s, p, out=s))
    s[...] = p
    return sq(s), change, sq(np.subtract(apply(s, p), s, out=p))


def project_slices(slabs, ts, bin_step, nodes, w, lams):
    """Project each slice at its nonzero frequency ``ts[i]`` with :func:`project_slice`.

    ``slabs``: (K,) + (m^2,)*n with one reshaped block per complex axis;
    ``ts`` and ``lams`` must be nonzero.  Each slice is projected on its
    own; ``bin_step`` is not used.  Returns a new array of the same shape.
    """
    n = len(lams)
    m = nodes.size
    if slabs.shape[1:] != (m * m,) * n:
        raise ValueError("slab shape does not match (m*m,)*n")
    if np.any(ts == 0):
        raise ValueError("project_slices expects nonzero frequencies only")
    if any(lam == 0 for lam in lams):
        raise ValueError("project_slices expects nonzero structure constants only")
    out = np.array(slabs, dtype=np.complex128)
    work = slice_work(m, n)
    for i in range(ts.size):
        project_slice(slice_operator(ts[i], nodes, w, lams), out[i], None, work)
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
    and added into every output with its row's weight.  Node
    k*PANEL_NODES + j is the first panel's node j plus k panel widths h, so
    exp(-t*Q) is stepped, not recomputed: for each j it starts at
    exp(-tn[j]*Q) and is multiplied by exp(-h*Q) from one panel to the
    next, PANEL_NODES + 1 exponentials in all.

    Q must be centrosymmetric, Q[S-1-p, S-1-q] == Q[p, q]: on the
    mirror-symmetric grid flat node S-1-p is node p negated, and negating
    both points leaves |z - w|^2 and zbar w - z wbar unchanged.  So is
    E = exp(-t*Q), and in the even and odd parts of a vector, v_p +- v_(S-1-p)
    (the centre node of an odd S is even), E is block diagonal.  Only the
    first ceil(S/2) rows of E are exponentiated and stepped; at each node
    they give the even block E[p, q] + E[p, S-1-q] (q up to the centre) and
    the odd block E[p, q] - E[p, S-1-q] (q below it), which multiply the
    even and odd parts of ``uw``, split once.  The outputs are accumulated
    in that split form and recombined once.  That is half the exponentials
    and half the multiply-adds of the S x S product.
    """
    panels, rest = divmod(tn.size, PANEL_NODES)
    if panels < 2 or rest or cq.shape[-1] != tn.size:
        raise ValueError("direct_kernel_apply expects two or more whole panels and one weight per node")
    S = Q.shape[0]
    h = S // 2
    r = S - h
    mirror = uw[::-1]
    even = uw[:r] + mirror[:r]
    if r > h:
        even[h] = uw[h]  # the centre node is its own mirror
    odd = uw[:h] - mirror[:h]
    out = np.zeros((cq.shape[0],) + uw.shape, dtype=uw.dtype)
    Y = np.empty(uw.shape, dtype=np.result_type(Q.dtype, uw.dtype))
    D = pair_exp(Q[:r], float(tn[PANEL_NODES] - tn[0]))
    for j in range(PANEL_NODES):
        E = pair_exp(Q[:r], float(tn[j]))
        for k in range(panels):
            if k:
                E *= D
            i = k * PANEL_NODES + j
            flip = E[:, ::-1]
            np.matmul(E[:, :r] + flip[:, :r], even, out=Y[:r])
            np.matmul(E[:h, :h] - flip[:h, :h], odd, out=Y[r:])
            V = np.exp(1j * tn[i] * dwrap)
            Z = Y @ V.T
            for e in range(cq.shape[0]):
                out[e] += cq[e, i] * Z
    # rows r.. of ``out`` hold the odd parts: recombine into v_p and v_(S-1-p)
    sums, diffs = out[:, :h].copy(), out[:, r:]
    out[:, :h] = 0.5 * (sums + diffs)
    out[:, r:] = 0.5 * (sums - diffs)[:, ::-1]
    if r > h:
        out[:, h] *= 0.5
    return out
