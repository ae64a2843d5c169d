import math

import numpy as np
import pytest

from hszego import (
    GridSpec,
    LambdaSignature,
    MultiIndex,
    UsageError,
)


@pytest.mark.parametrize("n", [1, 2], ids=["1-uniform-trapezoid", "2-uniform-trapezoid"])
def test_quadrature_integrates_constants(n):
    grid = GridSpec(1.7, 9, 2.0, 4)
    total = float(np.sum(grid.spatial_weight_array(n)))
    assert total == pytest.approx(2.0**n * (2 * 1.7) ** (2 * n), rel=1e-13)


def test_spatial_nodes_antisymmetric():
    grid = GridSpec(3.0, 11, 2.0, 4)
    x = grid.spatial_nodes()
    assert np.array_equal(x, -x[::-1])


def test_multiindex_validation():
    with pytest.raises(UsageError):
        MultiIndex((2, 1))
    with pytest.raises(UsageError):
        MultiIndex((0,))
    assert MultiIndex(()).q == 0


def test_signature_counts():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 5)
        lams = tuple(rng.uniform(-2, 2) for _ in range(n))
        sig = LambdaSignature(lams)
        assert sig.n_minus == sum(1 for v in lams if v < 0)
        assert sig.n_plus == sum(1 for v in lams if v > 0)
        if not sig.degenerate:
            assert sig.n_minus + sig.n_plus == sig.n


def test_signature_axes_sorted():
    sig = LambdaSignature((1.0, -2.0, 0.5, -0.1))
    assert sig.negative_axes == (2, 4)
    assert sig.positive_axes == (1, 3)
    assert sig.abs().lambdas == (1.0, 2.0, 0.5, 0.1)


def test_gridspec_validation():
    with pytest.raises(UsageError):
        GridSpec(0.0, 5, 1.0, 4)
    with pytest.raises(UsageError):
        GridSpec(1.0, 1, 1.0, 4)
    for bad in (math.nan, math.inf):
        with pytest.raises(UsageError):
            GridSpec(bad, 5, 1.0, 4)
        with pytest.raises(UsageError):
            GridSpec(1.0, 5, bad, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_signature_rejects_non_finite_values(bad):
    with pytest.raises(UsageError):
        LambdaSignature((1.0, bad))


def test_freq_axis_matches_vertical_bins():
    grid = GridSpec(4.0, 9, 16.0, 128)
    ts = grid.freq_nodes()
    assert ts.size == 128
    assert np.allclose(np.diff(ts), np.pi / 16.0)
    assert grid.freq_max == pytest.approx(64 * np.pi / 16.0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 5], ids=["even", "odd-with-zero-node"])
def test_complex_mesh_matches_meshgrid(n, m):
    grid = GridSpec(2.0, m, 1.0, 4)
    x = grid.spatial_nodes()
    axes = np.meshgrid(*([x] * (2 * n)), indexing="ij")
    ref = np.stack([axes[2 * j] + 1j * axes[2 * j + 1] for j in range(n)], axis=-1)
    mesh = grid.complex_mesh(n)
    assert mesh.shape == grid.spatial_shape(n) + (n,)
    assert np.array_equal(mesh, ref)
    assert np.array_equal(np.signbit(mesh.real), np.signbit(ref.real))
    assert np.array_equal(np.signbit(mesh.imag), np.signbit(ref.imag))
