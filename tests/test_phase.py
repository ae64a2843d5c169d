import numpy as np
import pytest

from hszego import (
    DomainError,
    HeisenbergPoint,
    LambdaSignature,
    PhaseChoice,
    UsageError,
    fio_quadrature,
    gamma_moment,
    phase,
    szego_kernel_scalar,
)
from hszego.core import composite_gauss_legendre


def _pt(z, x):
    return HeisenbergPoint(tuple(z), x)


SIG1 = LambdaSignature((1.0,))


def test_phase_vanishes_on_diagonal():
    x = _pt([0.3 + 0.7j], 1.2)
    assert phase(PhaseChoice.MINUS, x, x, SIG1) == 0.0


def test_phase_simple_value():
    x = _pt([1.0], 0.0)
    y = _pt([0.0], 0.0)
    assert phase(PhaseChoice.MINUS, x, y, SIG1) == pytest.approx(1j)


def test_phase_hand_value():
    # z = i, w = 1, x3 = 2, y3 = 0: conj(z)w - z*conj(w) = -2i, so the
    # antisymmetric term contributes +2 and the result is 2i
    x = _pt([1j], 2.0)
    y = _pt([1.0], 0.0)
    assert phase(PhaseChoice.MINUS, x, y, SIG1) == pytest.approx(2j, abs=1e-14)


def test_phase_symmetries_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        sig = LambdaSignature(tuple(rng.uniform(-2, 2) for _ in range(n)))
        x = _pt(rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal())
        y = _pt(rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal())
        pm = phase(PhaseChoice.MINUS, x, y, sig)
        pp = phase(PhaseChoice.PLUS, x, y, sig)
        assert pp == pytest.approx(-np.conj(pm), abs=1e-13)
        assert pp == pytest.approx(phase(PhaseChoice.MINUS, y, x, sig), abs=1e-13)
        assert pm.imag >= 0.0
        if not sig.degenerate and any(abs(a - b) > 1e-12 for a, b in zip(x.z, y.z)):
            assert pm.imag > 0.0


def test_phase_dimension_mismatch():
    with pytest.raises(UsageError):
        phase(PhaseChoice.MINUS, _pt([1.0], 0.0), _pt([1.0, 2.0], 0.0), SIG1)


def test_kernel_diagonal_value():
    x = _pt([0.2 - 0.9j], 0.4)
    val = szego_kernel_scalar(x, x, SIG1, PhaseChoice.MINUS, epsilon=1.0)
    assert val == pytest.approx(1.0 / (2 * np.pi**2), abs=1e-15)


def test_kernel_epsilon_monotone():
    x = _pt([0.5], 0.1)
    y = _pt([-0.3 + 0.2j], -1.0)
    v1 = abs(szego_kernel_scalar(x, y, SIG1, PhaseChoice.MINUS, epsilon=0.5))
    v2 = abs(szego_kernel_scalar(x, y, SIG1, PhaseChoice.MINUS, epsilon=1.5))
    assert v2 < v1


def test_kernel_hermitian():
    rng = np.random.default_rng(5)
    sig = LambdaSignature((0.7, 1.4))
    for _ in range(20):
        x = _pt(rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal())
        y = _pt(rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal())
        kxy = szego_kernel_scalar(x, y, sig, PhaseChoice.MINUS, epsilon=0.8)
        kyx = szego_kernel_scalar(y, x, sig, PhaseChoice.MINUS, epsilon=0.8)
        assert kxy == pytest.approx(np.conj(kyx), rel=1e-12)


def test_kernel_errors():
    x = _pt([0.0j], 0.0)
    with pytest.raises(UsageError):
        szego_kernel_scalar(x, x, SIG1, PhaseChoice.MINUS, epsilon=0.0)
    with pytest.raises(DomainError):
        szego_kernel_scalar(x, x, LambdaSignature((0.0,)), PhaseChoice.MINUS, epsilon=1.0)


def test_gamma_moment_values():
    assert gamma_moment(0, 1.0) == 1.0
    assert gamma_moment(2, 1.0) == pytest.approx(2.0)
    assert gamma_moment(1, 2.0) == pytest.approx(0.25)
    prod = gamma_moment(3, 0.7 + 1.1j) * (0.7 + 1.1j) ** 4
    assert prod == pytest.approx(6.0, rel=1e-14)


def test_gamma_moment_against_quadrature():
    for m, s in ((2, 1.0), (1, 2.0), (4, 0.5 + 1.5j)):
        tn, tw = composite_gauss_legendre(0.0, 60.0 / np.real(s), 1024)
        quad = np.sum(tw * tn**m * np.exp(-s * tn))
        assert gamma_moment(m, s) == pytest.approx(quad, rel=1e-10)


def test_gamma_moment_domain():
    with pytest.raises(DomainError):
        gamma_moment(1, -1.0)
    with pytest.raises(UsageError):
        gamma_moment(-1, 1.0)


def test_fio_matches_gamma_closed_form():
    # Im phi = 0.5 (|z-w|^2 = 0.5) and eps = 0.5 give the t-integrand
    # t * exp(-t*(1 - i*Re phi))
    x = _pt([np.sqrt(0.5)], 1.3)
    y = _pt([0.0], 0.0)
    ph = phase(PhaseChoice.MINUS, x, y, SIG1)
    assert ph.imag == pytest.approx(0.5)
    c0 = 1.0 / (2 * np.pi**2)
    expected = c0 * gamma_moment(1, 0.5 - 1j * ph.real + 0.5)
    got = fio_quadrature(x, y, SIG1, PhaseChoice.MINUS, epsilon=0.5)
    assert got == pytest.approx(expected, rel=1e-8)


def test_fio_three_way_agreement():
    rng = np.random.default_rng(11)
    for sig in (SIG1, LambdaSignature((1.1, 0.6))):
        n = sig.n
        for _ in range(5):
            x = _pt(rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal())
            y = _pt(rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal())
            closed = szego_kernel_scalar(x, y, sig, PhaseChoice.MINUS, epsilon=0.5)
            quad = fio_quadrature(x, y, sig, PhaseChoice.MINUS, epsilon=0.5)
            assert quad == pytest.approx(closed, rel=1e-6)


def _numpy_phase(choice, x, y, sig):
    # the array form phase() had before it moved to scalar arithmetic: the
    # reference its values must equal to the bit
    z = np.asarray(x.z)
    w = np.asarray(y.z)
    lam = np.asarray(sig.lambdas)
    a, b = z.real, z.imag
    c, d = w.real, w.imag
    quad = float(np.sum(np.abs(lam) * ((a - c) ** 2 + (b - d) ** 2)))
    im_zbar_w = a * d - b * c
    if choice is PhaseChoice.MINUS:
        return complex(-x.x_last + y.x_last - 2.0 * float(np.sum(lam * im_zbar_w)), quad)
    return complex(x.x_last - y.x_last + 2.0 * float(np.sum(lam * im_zbar_w)), quad)


def test_phase_matches_the_array_form_to_the_bit():
    # 10^5 draws of (x, y) over n = 1..4, both choices, and (x, y), (y, x)
    # and (x, x) pairs, each at one of 1000 signatures; one draw and one
    # signature in four put their values on a coarse lattice with random
    # signs, so that exact and signed zeros occur (zero lambdas too); bytes
    # compare the sign of zero as well
    rng = np.random.default_rng(17)

    def values(count, rows):
        v = rng.normal(size=(count, rows, 4)) * 1.5
        coarse = rng.random(count) < 0.25
        signs = np.where(rng.random(size=v[coarse].shape) < 0.5, -1.0, 1.0)
        v[coarse] = np.round(v[coarse]) * 0.5 * signs
        return v.tolist()

    sigs = [LambdaSignature(lam[: 1 + k % 4]) for k, (lam,) in enumerate(values(1000, 1))]
    choices = (PhaseChoice.MINUS, PhaseChoice.PLUS)
    got, want = [], []
    for k, (xr, xi, yr, yi) in enumerate(values(100_000, 4)):
        sig = sigs[k % 1000]
        n = sig.n
        x = HeisenbergPoint([complex(a, b) for a, b in zip(xr[:n], xi[:n])], xr[3] - yr[3])
        y = HeisenbergPoint([complex(a, b) for a, b in zip(yr[:n], yi[:n])], xi[3])
        pair = (x, y) if k % 3 == 0 else (y, x) if k % 3 == 1 else (x, x)
        choice = choices[(k // 3) % 2]
        got.append(phase(choice, *pair, sig))
        want.append(_numpy_phase(choice, *pair, sig))
    got = np.array(got, dtype=complex).view(np.uint64)
    want = np.array(want, dtype=complex).view(np.uint64)
    assert np.array_equal(got, want), int(np.count_nonzero(got != want))
