"""Peak traced allocation of the streamed CR residual, the scalar pipeline,
wave-packet synthesis, the form projector and ``hszego project``.

numpy reports its array buffers to tracemalloc, so the traced peak between
start and stop is the largest set of temporaries a call holds at once.  The
input field is allocated before tracing starts and is not counted, except
by ``hszego project``, which reads it from its file.
"""

import contextlib
import io
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
    szego_project_form,
    transform,
)
from hszego.cli import main
from hszego.fieldio import read_form, write_form

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
    share = _peak_share(lambda: cr_system_residual(component, J, SIG), component.values.nbytes)
    assert share < 0.5


@pytest.mark.parametrize("idempotency", [False, True], ids=["pu", "gap"])
def test_pipeline_peak_bounded(component, idempotency, monkeypatch):
    # the caller hands over the component's buffer: the forward transform,
    # the projection and the inverse transform all run in it, so the pipeline
    # holds only the slabs of _SLAB_BINS of this grid's 32 bins (0.67-0.68 in all,
    # with or without the gap: each slab's second projection is made after
    # the slab's ||P s - s|| is taken and the slab dropped); an out-of-place
    # FFT or a reordered copy of the transform would add a whole component.
    # The broadband input fills bins outside the budget window, so the
    # budget check is skipped
    monkeypatch.setattr(transform, "_check_budget", lambda *args: None)
    values = component.values.copy()
    share = _peak_share(
        lambda: transform._pipeline(GRID, values, SIG.abs(), 1, idempotency),
        component.values.nbytes,
    )
    assert share < 0.8


def test_wave_packet_synthesis_holds_one_profile_block():
    # the field plus one block of _PACKET_ROWS spatial rows of the T x S
    # profile (1.13 on this grid, S = 50625 rows in 13 blocks); the whole
    # profile and its exponent made 1.53 components
    grid = GridSpec(3.5, 15, 30.0, 128)
    spec = transform.WavePacketSpec(alpha=(1, 0), t_low=0.95, t_high=2.1, order=6)
    sig = SIG.abs()
    nbytes = 16 * np.prod(grid.field_shape(2))
    share = _peak_share(lambda: transform.make_wave_packet(spec, sig, grid), nbytes)
    assert share < 1.2


@pytest.fixture(scope="module")
def in_window_component():
    # a random profile on the bins t = +-1.18 only, inside the budget window
    # [0.94, 1.26] of GRID, so the branch on either side projects something
    rng = np.random.default_rng(1)
    tone = np.cos(3 * GRID.freq_step * GRID.vertical_nodes())
    return ScalarField(grid=GRID, values=rng.normal(size=GRID.spatial_shape(2))[..., None] * tone)


def test_pipeline_projects_in_the_buffer_it_is_handed(in_window_component):
    values = in_window_component.values.copy()
    pu = transform._pipeline(GRID, values, SIG.abs(), 1, True)[0]
    assert np.shares_memory(pu.values, values)
    assert np.linalg.norm(pu.values) > 0.01 * np.linalg.norm(in_window_component.values)


@pytest.mark.parametrize("J", [MultiIndex((1,)), MultiIndex((2,))], ids=["t>0", "t<0"])
def test_form_branch_peak_bounded(in_window_component, J):
    # one branch holds what the scalar pipeline holds: one component and a
    # slab of the one bin it projects (1.21 in all); a copy of the component
    # reflected to the hat structure would add a second
    form = FormField(grid=GRID, q=1, components={J: in_window_component})
    share = _peak_share(
        lambda: szego_project_form(form, SIG), in_window_component.values.nbytes
    )
    assert share < 1.4


def test_form_projector_does_not_reflect(in_window_component, monkeypatch):
    def refuse(*args):
        raise AssertionError("the form projector reflected a component")

    monkeypatch.setattr(forms, "reflect_to_hat", refuse)
    both = {MultiIndex((j,)): in_window_component for j in (1, 2)}
    out = szego_project_form(FormField(grid=GRID, q=1, components=both), SIG)
    assert set(out.components) == set(both)
    for J, f in out.iter_components():
        assert np.linalg.norm(f.values) > 0.01 * np.linalg.norm(in_window_component.values), J


def test_project_streams_components(in_window_component, tmp_path):
    # one component at a time: it is read into its own buffer, projected in
    # that buffer, reported, written and dropped before the next is read, so
    # the peak is one component and the pipeline's slabs (1.25 in all, with
    # or without --out).  Reading every input first made 3.29, and holding
    # every input and output to the end made 5
    path = tmp_path / "two.field"
    write_form(path, FormField(grid=GRID, q=1, components={
        MultiIndex((j,)): in_window_component for j in (1, 2)}), n=2)
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("lambdas = -1.0, 1.0\n")
    argv = ["project", "--config", str(cfg), "--in", str(path)]
    out = tmp_path / "out.field"
    for extra in ([], ["--out", str(out)]):
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            share = _peak_share(lambda: main(argv + extra), in_window_component.values.nbytes)
        assert report.getvalue().count("norm_out=") == 2
        assert share < 1.4, extra
    assert sorted(read_form(out).components) == [MultiIndex((1,)), MultiIndex((2,))]
