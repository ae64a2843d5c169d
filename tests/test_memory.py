"""Peak traced allocation of the streamed CR residual, the scalar pipeline and
the form projector.

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
    forms,
    scalar_pipeline_project,
    szego_project_form,
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


@pytest.fixture(scope="module")
def in_window_component():
    # a random profile on the bins t = +-1.18 only, inside the budget window
    # [0.94, 1.26] of GRID, so the branch on either side projects something
    rng = np.random.default_rng(1)
    tone = np.cos(3 * GRID.freq_step * GRID.vertical_nodes())
    return ScalarField(grid=GRID, values=rng.normal(size=GRID.spatial_shape(2))[..., None] * tone)


@pytest.mark.parametrize("J", [MultiIndex((1,)), MultiIndex((2,))], ids=["t>0", "t<0"])
def test_form_branch_peak_bounded(in_window_component, J):
    # one branch holds what the scalar pipeline holds, about 2 components; a
    # copy of the component reflected to the hat structure would add a third
    form = FormField(grid=GRID, q=1, components={J: in_window_component})
    share = _peak_share(
        lambda: szego_project_form(form, SIG), in_window_component.values.nbytes
    )
    assert share < 2.5


def test_form_projector_does_not_reflect(in_window_component, monkeypatch):
    def refuse(*args):
        raise AssertionError("the form projector reflected a component")

    monkeypatch.setattr(forms, "reflect_to_hat", refuse)
    both = {MultiIndex((j,)): in_window_component for j in (1, 2)}
    out = szego_project_form(FormField(grid=GRID, q=1, components=both), SIG)
    assert set(out.components) == set(both)
    for J, f in out.iter_components():
        assert np.linalg.norm(f.values) > 0.01 * np.linalg.norm(in_window_component.values), J
