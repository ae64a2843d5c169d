"""Phase functions, the closed-form projector kernel, and its oscillatory
integral counterpart.

The scalar kernel is K_eps(x, y) = c0 * n! * (-i*(phi(x,y) + i*eps))**-(n+1)
with c0 = |lam_1|...|lam_n| / (2*pi^(n+1)).  The same value arises as the
Laplace-type integral c0 * integral_0^inf t^n e^{i t phi} e^{-eps t} dt, which
``fio_quadrature`` evaluates numerically; the two must agree, and
``gamma_moment`` supplies the underlying moment identity
integral_0^inf e^{-t s} t^m dt = m! * s^-(m+1).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import (
    DomainError,
    HeisenbergPoint,
    LambdaSignature,
    UsageError,
    composite_gauss_legendre,
)

__all__ = [
    "PhaseChoice",
    "phase",
    "szego_kernel_scalar",
    "fio_quadrature",
    "fio_rule",
    "gamma_moment",
]


class PhaseChoice(Enum):
    """Which phase function: one of the two conjugate variants.

    The hat structure's phase is MINUS at the signature ``sig.abs()``.
    """

    MINUS = "minus"
    PLUS = "plus"


def _check_dims(x: HeisenbergPoint, y: HeisenbergPoint, sig: LambdaSignature) -> None:
    if not (x.n == y.n == sig.n):
        raise UsageError(f"dimension mismatch: x.n={x.n}, y.n={y.n}, sig.n={sig.n}")


def phase(
    choice: PhaseChoice, x: HeisenbergPoint, y: HeisenbergPoint, sig: LambdaSignature
) -> complex:
    """Evaluate the chosen phase function at (x, y).

    MINUS: -x_last + y_last + i*sum|lam_j||z_j-w_j|^2 + i*sum lam_j*(zbar_j w_j - z_j wbar_j).
    PLUS is its swap/negated-conjugate partner.  The imaginary part is
    always >= 0.

    Scalar float arithmetic, one axis at a time: each sum starts at 0.0 and
    adds its terms left to right, numpy's order for fewer than eight terms,
    so the values equal those of the same sums over numpy arrays to the bit
    (``tests/test_phase.py`` keeps that form as its reference).
    """
    _check_dims(x, y, sig)
    quad = 0.0
    im_sum = 0.0
    for lam, z, w in zip(sig.lambdas, x.z, y.z):
        a, b = z.real, z.imag
        c, d = w.real, w.imag
        quad += abs(lam) * ((a - c) * (a - c) + (b - d) * (b - d))
        # i*(zbar w - z wbar) = -2*Im(zbar w); computing the imaginary part in
        # real arithmetic keeps the diagonal exactly zero and the
        # conjugate/swap identities exact to the bit
        im_sum += lam * (a * d - b * c)
    if choice is PhaseChoice.MINUS:
        return complex(-x.x_last + y.x_last - 2.0 * im_sum, quad)
    if choice is PhaseChoice.PLUS:
        return complex(x.x_last - y.x_last + 2.0 * im_sum, quad)
    raise UsageError(f"unknown phase choice {choice!r}")


def szego_kernel_scalar(
    x: HeisenbergPoint,
    y: HeisenbergPoint,
    sig: LambdaSignature,
    choice: PhaseChoice,
    epsilon: float,
) -> complex:
    """Regularized closed-form kernel c0 * n! * (-i*(phi+i*eps))**-(n+1).

    The base -i*(phi+i*eps) has positive real part (Im phi >= 0, eps > 0), so
    the principal branch of the complex power is the analytic choice and no
    branch cut can be crossed.
    """
    if epsilon <= 0:
        raise UsageError(f"epsilon must be > 0, got {epsilon}")
    if sig.degenerate:
        raise DomainError(
            "degenerate signature: the projector vanishes identically; "
            "see the form-level projector for the structured zero"
        )
    _check_dims(x, y, sig)
    n = sig.n
    ph = phase(choice, x, y, sig)
    base = -1j * (ph + 1j * epsilon)
    return complex(sig.c0() * math.factorial(n) * base ** (-(n + 1)))


def fio_quadrature(
    x: HeisenbergPoint,
    y: HeisenbergPoint,
    sig: LambdaSignature,
    choice: PhaseChoice,
    epsilon: float,
) -> complex:
    """Evaluate c0 * integral_0^t_max t^n e^{i t phi(x,y)} e^{-eps t} dt.

    Composite Gauss-Legendre in t on the :func:`fio_rule` of phi(x, y).
    """
    if epsilon <= 0:
        raise UsageError(f"epsilon must be > 0, got {epsilon}")
    _check_dims(x, y, sig)
    n = sig.n
    ph = phase(choice, x, y, sig)
    t_max, npts = fio_rule(ph, epsilon)
    tn, tw = composite_gauss_legendre(0.0, t_max, npts)
    vals = tn**n * np.exp((1j * ph - epsilon) * tn)
    return complex(sig.c0() * np.sum(tw * vals))


def fio_rule(ph: complex, epsilon: float) -> tuple[float, int]:
    """The range t_max and the node count of :func:`fio_quadrature`'s rule at the phase value ``ph``.

    The range t_max = 40 / (Im phi + eps) cuts the integrand where its
    envelope has decayed by e^-40, so the discarded tail is negligible.  The
    count is at least 600 and adapts to the oscillation rate |Re phi|: ~10
    nodes per period.
    """
    t_max = 40.0 / (ph.imag + epsilon)
    periods = abs(ph.real) * t_max / (2.0 * math.pi)
    return t_max, max(600, int(10 * periods) + 16)


def gamma_moment(m: int, s: complex) -> complex:
    """Closed form m! * s**-(m+1) of integral_0^inf e^{-t s} t^m dt (Re s > 0)."""
    if m < 0 or int(m) != m:
        raise UsageError(f"m must be a nonnegative integer, got {m}")
    s = complex(s)
    if s.real <= 0:
        raise DomainError(f"gamma_moment needs Re s > 0, got {s}")
    return math.factorial(int(m)) * s ** (-(int(m) + 1))
