"""Peak traced allocation of the streamed CR residual, the scalar pipeline,
wave-packet synthesis, the form projector, the form criterion C10,
``hszego project``, the classifier's truncated monomial quadrature and the
Gaussian reproducing check, and the resident peak of a process that runs the
gate's threaded criterion twice or its quadrature criteria once.

numpy reports its array buffers to tracemalloc, so the traced peak between
start and stop is the largest set of temporaries a call holds at once.  The
input field is allocated before tracing starts and is not counted, except
by ``hszego project``, which reads it from its file.
"""

import contextlib
import io
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hszego
from hszego import (
    FormField,
    GridSpec,
    LambdaSignature,
    MultiIndex,
    ScalarField,
    bergman,
    cr_system_residual,
    forms,
    szego_project_form,
    transform,
)
from hszego.cli import main
from hszego.config import RunConfig
from hszego.fieldio import read_form, write_form
from hszego.verification import c10_forms

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


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_share(fn, nbytes):
    return _traced_peak(fn) / nbytes


def test_residual_streams_planes(component):
    # one interior plane at a time: a small fraction of one component
    # (a whole-grid stencil holds several components' worth)
    share = _peak_share(lambda: cr_system_residual(component, J, SIG), component.values.nbytes)
    assert share < 0.5


@pytest.mark.parametrize("report", [False, True], ids=["pu", "gap"])
def test_pipeline_peak_bounded(component, report, monkeypatch):
    # the caller hands over the component's buffer: the forward transform,
    # the projection and the inverse transform all run in it, so the pipeline
    # holds only one slab of _SLAB_BINS of this grid's 32 bins, one bin's
    # operator and its three sector slices (0.45 in all, with or without the
    # gap: each slice is projected into its slab row, and the gap is taken
    # in the sector slices).  A second slab-sized array for the projections
    # made 0.67-0.68, and a slab still referenced when the next is gathered
    # 0.72; an out-of-place FFT or a reordered copy of the transform would
    # add a whole component.
    # The broadband input fills bins outside the budget window, so the
    # budget check is skipped
    monkeypatch.setattr(transform, "_check_budget", lambda *args: None)
    values = component.values.copy()
    share = _peak_share(
        lambda: transform._pipeline(GRID, values, SIG.abs(), 1, report=report, want_pu=True),
        component.values.nbytes,
    )
    assert share < 0.6


def test_grid2_pipeline_holds_a_slab_and_three_sector_slices():
    # one forms-n2 component on grid2 (17^4 x 128, 171 MB), handed over and
    # reported on as ``project`` does: the pipeline holds a slab of
    # _SLAB_BINS bins (10.7 MB), the slice, P s_t and P(P s_t) in sector
    # coordinates (4.0 MB), the sector weights and one bin's blocks with
    # their build (19.1 MB in all); the CR residual of one slice at a time
    # stays under that build.  The assembled m^2 x m^2 axis matrices and
    # their GEMM temporaries read 19.5 MB
    grid = RunConfig().grid2
    spec = transform.WavePacketSpec(
        alpha=(1, 0), t_low=0.96, t_high=2.164, conjugated_axes=(1,), order=6
    )
    values = transform.make_wave_packet(spec, SIG, grid).values.copy()
    peak = _traced_peak(lambda: transform._pipeline(grid, values, SIG, 1, report=True, want_pu=True))
    assert peak < 21.5e6


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
    pu = transform._pipeline(GRID, values, SIG.abs(), 1, report=True, want_pu=True)[0]
    assert np.shares_memory(pu.values, values)
    assert np.linalg.norm(pu.values) > 0.01 * np.linalg.norm(in_window_component.values)


@pytest.mark.parametrize("J", [MultiIndex((1,)), MultiIndex((2,))], ids=["t>0", "t<0"])
def test_form_branch_peak_bounded(in_window_component, J):
    # one branch holds what the scalar pipeline holds: one component, a
    # slab of the one bin it projects and that bin's sector slices (1.21 in
    # all); a copy of the component reflected to the hat structure would add
    # a second
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
    # the peak is one component and the pipeline's slab (1.23 in all, with
    # or without --out; 1.25 while the report's norms and residual were
    # spatial passes).  Reading every input first made 3.29, and holding
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


def test_five_radius_quadrature_peak_bounded():
    # a divergence witness evaluates its radii one at a time, and an n=3
    # radius its first level's nodes 8 at a time: (8, 64, 64) innermost
    # arrays (2.0 MB in all).  Every first-level node at once held 64^3-node
    # arrays (10.6 MB), and all five radii at once (5, 64, 64, 64) ones (53 MB)
    c = np.array([1.4, -0.6, 2.0])
    peak = _traced_peak(
        lambda: bergman.truncated_monomial_integral((1, 0, 2), c, np.arange(1.0, 6.0))
    )
    assert peak < 3e6


def test_finite_quadrature_at_96_points_peak_bounded():
    # C11c's n=3 integrals at 96 points: (8, 96, 96) innermost arrays
    # (3.0 MB in all); the 96^3 nodes at once peaked at 36.5 MB
    peak = _traced_peak(
        lambda: bergman.truncated_monomial_integral((0, 1, 0), (2.6, 1.0, 1.4), 8.0, points=96)
    )
    assert peak < 6e6


def test_complex_mesh_holds_only_its_output():
    # one preallocated complex array filled from broadcast node vectors; a
    # meshgrid of 2n real axes and their stack held three outputs' worth
    grid = GridSpec(4.6, 25, 1.0, 4)
    nbytes = 25**4 * 2 * 16
    assert _peak_share(lambda: grid.complex_mesh(2), nbytes) <= 1.1


def test_reproducing_check_holds_no_whole_grid_array():
    # C04's n=2 case holds no array over the whole grid: it sums per axis
    # over one 25^2-node plane, the kernel and the powers of w up to degree 4
    # there, 0.19 MB in all.  The kernel and one polynomial's values over the
    # whole grid, built a row at a time, held 16.5 MB; the complex mesh, the
    # polynomial's accumulator and its powers over the whole mesh 41 MB, and
    # the exponent over the whole mesh 54 MB
    sig = LambdaSignature((1.0, 1.0))
    grid = GridSpec(6.5 / np.sqrt(2.0), 25, 1.0, 4)
    polys = [{alpha: 1.0 + 0.0j} for alpha in forms.multi_exponents(2, 4)]
    z = np.array([0.5 - 0.3j, -0.4 + 0.6j])
    peak = _traced_peak(lambda: bergman.gaussian_reproducing_check(polys, z, 1.0, sig, grid))
    assert peak < 20e6


def test_form_criterion_holds_one_case_at_a_time(monkeypatch):
    # C10 on its grid2 with half the vertical nodes: each case's packet is
    # synthesized, projected alone, measured and dropped before the next, so
    # the peak is the packet, its projection and a slab (2.23 components),
    # and each case runs one pipeline, on the side of its vertical sign.
    # Every packet, the two-component form and each projection held to the
    # end made 10.2, and projecting that form besides its two components
    # made six pipelines
    sides = []
    pipeline = transform._pipeline
    monkeypatch.setattr(
        transform, "_pipeline",
        lambda *args, report, want_pu: (
            sides.append((args[3], want_pu)) or pipeline(*args, report=report, want_pu=want_pu)
        ),
    )
    monkeypatch.setattr(RunConfig, "grid2", GridSpec(3.5, 17, 30.0, 64))
    cfg = RunConfig()
    nbytes = 16 * np.prod(cfg.grid2.field_shape(2))
    assert _peak_share(lambda: c10_forms(cfg), nbytes) < 3.0
    assert sides == [(1, True), (-1, True), (1, True), (-1, True)]


def _fresh_gate_peaks(*criteria):
    # ru_maxrss in MB after each verify call, in a fresh interpreter, so that
    # earlier tests' threads, arenas and arrays do not count
    code = (
        "import contextlib, io, resource, sys\n"
        "from hszego.cli import main\n"
        "for crit in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(['verify', '--jobs', '1', '--criteria', crit])\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hszego.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code, *criteria], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return [int(kb) / 1024 for kb in run.stdout.split()]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc arenas are glibc's")
def test_quadrature_criteria_peak_little_above_the_interpreter():
    # C04 and C11 on top of the interpreter after C00 (42 MB): 13.4 MB.  The
    # reproducing check's mesh and the 96^3-node quadrature levels made 34.9
    base, peak = _fresh_gate_peaks("C00", "C04,C11")
    assert peak - base < 25.0, (base, peak)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc arenas are glibc's")
def test_second_gate_call_peaks_where_the_first_did():
    # C13 reruns its subset on two threads.  Given arenas of their own, the
    # threads kept what they freed, and the next call's C04 peaked on top of
    # it: 74.5 -> 91.3 MB over two calls (C04 alone stays flat); one shared
    # arena read 74.4 -> 80.4 MB, and 55.2 -> 57.1 MB once C04 held no mesh.
    first, second = _fresh_gate_peaks("C04,C13", "C04,C13")
    assert second - first < 10.0, (first, second)
