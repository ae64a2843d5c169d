"""Peak traced allocation of the streamed CR residual and the scalar pipeline.

numpy reports its array buffers to tracemalloc, so the traced peak between
start and stop is the largest set of temporaries a call holds at once.  The
input field is allocated before tracing starts and is not counted.
"""

import tracemalloc

import numpy as np
import pytest

from hszego import (
    FormField,
    GridSpec,
    LambdaSignature,
    MultiIndex,
    ScalarField,
    cr_system_residual,
    scalar_pipeline_project,
)

GRID = GridSpec(3.5, 13, 8.0, 32)
SIG = LambdaSignature((-1.0, 1.0))
J = MultiIndex((1,))


@pytest.fixture(scope="module")
def component():
    # broadband: about half the bins are occupied positive ones, so the
    # gathered slabs are half a component
    rng = np.random.default_rng(0)
    shape = GRID.field_shape(2)
    return ScalarField(grid=GRID, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _peak_share(fn, nbytes):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / nbytes
    finally:
        tracemalloc.stop()


def test_residual_streams_planes(component):
    # one interior plane at a time: a small fraction of one component
    # (a whole-grid stencil holds several components' worth)
    form = FormField(grid=GRID, q=1, components={J: component})
    share = _peak_share(lambda: cr_system_residual(form, SIG), component.values.nbytes)
    assert share < 0.5


def test_pipeline_peak_bounded(component):
    # about 2 components: the forward transform and its reordered copy, and
    # later the zeroed bins and the inverse transform's reordered copy.  The
    # frequency array must be gone before the bins are scattered back
    share = _peak_share(
        lambda: scalar_pipeline_project(component, SIG.abs(), enforce_budget=False),
        component.values.nbytes,
    )
    assert share < 2.25
