import collections
import contextlib
import io
import os
import warnings

import numpy as np
import pytest

from hszego import (
    FormField,
    GridSpec,
    LambdaSignature,
    MultiIndex,
    ScalarField,
    WavePacketSpec,
    _kernels,
    cli,
    core,
    fieldio,
    forms,
    make_wave_packet,
    norm,
    szego_project_form,
    transform,
    verification,
)
from hszego.bergman import gaussian_budget_window
from hszego.cli import main
from hszego.config import RunConfig
from hszego.core import weighted_sq_sum
from hszego.fieldio import read_form, write_form

BASE_CONFIG = """
lambdas = 1.0
seed = 11
grid.spatial_radius = 4.0
grid.spatial_points = 25
grid.vertical_radius = 16.0
grid.vertical_points = 64
packet.1.alpha = 0
packet.1.t_low = 0.9
packet.1.t_high = 3.0
packet.1.order = 4
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE_CONFIG)
    return str(p)


def test_malformed_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("this is not a key value line")
    assert main(["verify", "--config", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_make_packet_then_project(config_path, tmp_path, capsys):
    field_path = tmp_path / "packet.field"
    assert main(["make-packet", "--config", config_path, "--out", str(field_path)]) == 0
    out_path = tmp_path / "projected.field"
    code = main(
        ["project", "--config", config_path, "--in", str(field_path), "--out", str(out_path)]
    )
    assert code == 0
    report = capsys.readouterr().out
    assert "rel_change=" in report and "idempotency_gap" in report
    rel = float(report.split("rel_change=")[1].split()[0])
    assert rel < 1e-3
    projected = read_form(str(out_path))
    assert set(projected.components) == {MultiIndex(())}


def test_project_small_trapezoid_grid_exits_2(tmp_path, capsys):
    # on a uniform grid the residual is defined but needs >= 5 nodes per axis
    field_path = tmp_path / "small.field"
    grid = GridSpec(4.0, 4, 16.0, 64)
    values = np.ones(grid.field_shape(1), dtype=complex)
    write_form(str(field_path), FormField(grid=grid, q=0, components={
        MultiIndex(()): ScalarField(grid=grid, values=values)}))
    code = main(["project", "--in", str(field_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "5 nodes per axis" in captured.err


def test_project_vanishing_degree_reports_zero(tmp_path, capsys):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("lambdas = 1.0, 1.0\n")
    grid = GridSpec(3.5, 9, 8.0, 16)
    rng = np.random.default_rng(0)
    shape = grid.field_shape(2)
    comp = ScalarField(grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    form = FormField(grid=grid, q=1, components={MultiIndex((1,)): comp})
    fpath = tmp_path / "q1.field"
    write_form(fpath, form)
    assert main(["project", "--config", str(cfg), "--in", str(fpath)]) == 0
    out = capsys.readouterr().out
    assert "structural zero" in out
    assert "norm_out=0.000000e+00" in out


def test_project_budget_violation_exits_3(config_path, tmp_path, capsys):
    low_cfg = tmp_path / "low.cfg"
    low_cfg.write_text(
        BASE_CONFIG.replace("packet.1.t_low = 0.9", "packet.1.t_low = 0.25").replace(
            "packet.1.t_high = 3.0", "packet.1.t_high = 0.55"
        )
    )
    field_path = tmp_path / "low.field"
    assert main(["make-packet", "--config", str(low_cfg), "--out", str(field_path)]) == 0
    code = main(["project", "--config", str(low_cfg), "--in", str(field_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "gaussian-truncation" in err


def _annihilated_packet_file(tmp_path, bin_quadrature, alpha=0):
    """A q=0 field file of a packet on the negative bins of lambda = (1,), default grid."""
    grid = RunConfig().grid
    spec = WavePacketSpec(
        alpha=(alpha,), t_low=1.0, t_high=3.2, order=6, conjugated_axes=(1,), vertical_sign=-1
    )
    u = make_wave_packet(spec, LambdaSignature((1.0,)), grid, bin_quadrature=bin_quadrature)
    form = FormField(grid=grid, q=0, components={MultiIndex(()): u})
    path = tmp_path / "annihilated.field"
    write_form(path, form)
    return path, form


def test_project_annihilated_packet_exits_0(tmp_path, capsys):
    # the packet's vertical seam leaks ~1e-5 of it onto positive bins up to the
    # top one; the budget judges the input, not that leakage's projection
    path, _ = _annihilated_packet_file(tmp_path, False)
    assert main(["project", "--in", str(path)]) == 0
    report = capsys.readouterr().out
    nin = float(report.split("norm_in=")[1].split()[0])
    nout = float(report.split("norm_out=")[1].split()[0])
    assert 0 < nout < 1e-5 * nin
    assert "idempotency_gap = " in report


def _count_slice_operators(monkeypatch):
    """Count, by frequency, the slice operators ``_kernels`` builds and their applications.

    ``project_slice`` applies its operator to the slice and, given the slice
    weights, again to P s: ``applied`` counts those applications.  For
    n >= 2 each of them is one ``apply_sectors`` call, which ``sector``
    counts on its own.
    """
    built, applied, sector = collections.Counter(), collections.Counter(), collections.Counter()
    slice_operator, project_slice = _kernels.slice_operator, _kernels.project_slice
    apply_sectors = _kernels.apply_sectors
    freq = {}

    def build(t, *consts):
        op = slice_operator(t, *consts)
        built[float(t)] += 1
        freq[id(op)] = float(t)
        return op

    def project(op, s, omega, work):
        applied[freq[id(op)]] += 1 if omega is None else 2
        return project_slice(op, s, omega, work)

    def apply(op, *arrays):
        sector[freq[id(op)]] += 1
        return apply_sectors(op, *arrays)

    monkeypatch.setattr(_kernels, "slice_operator", build)
    monkeypatch.setattr(_kernels, "project_slice", project)
    monkeypatch.setattr(_kernels, "apply_sectors", apply)
    return built, applied, sector


def test_project_projects_each_kept_bin_twice(tmp_path, monkeypatch, capsys):
    # one pass over the slabs: each kept bin's operator is built once and
    # applied to the slice, and for the gap applied again straight away,
    # whether or not the bin is occupied in Pu.  This packet's seam leakage
    # occupies 63 positive bins, and its projection empties one of them
    # below the occupancy share
    path, form = _annihilated_packet_file(tmp_path, False, alpha=1)
    ts = RunConfig().grid.freq_nodes()
    u = form.components[MultiIndex(())]
    kept = ts[(ts > 0) & (ts <= ts[-1]) & transform.partial_ft(u).occupied_mask()].tolist()
    built, applied, sector = _count_slice_operators(monkeypatch)
    pu = szego_project_form(form, LambdaSignature((1.0,))).components[MultiIndex(())]
    assert built == applied == collections.Counter(kept)
    assert np.count_nonzero(transform.partial_ft(pu).occupied_mask()) < len(kept) == 63
    built.clear()
    applied.clear()
    assert main(["project", "--in", str(path)]) == 0
    assert built == collections.Counter(kept)
    assert applied == collections.Counter(2 * kept)
    assert sector == collections.Counter()
    # n = 2: each component's kept bins on its own side, every application
    # in sector coordinates
    path, cfg = _mixed_tone_form(tmp_path)
    form = read_form(path)
    sig = LambdaSignature((-1.0, 1.0))
    ts = form.grid.freq_nodes()
    kept = []
    for J, f in form.iter_components():
        side = forms.component_side(J, sig)
        occupied = transform.partial_ft(f).occupied_mask()
        kept += ts[(side * ts > 0) & (np.abs(ts) <= ts[-1]) & occupied].tolist()
    assert len(kept) == 2
    built.clear()
    applied.clear()
    szego_project_form(form, sig)
    assert built == applied == sector == collections.Counter(kept)
    built.clear()
    applied.clear()
    sector.clear()
    assert main(["project", "--config", str(cfg), "--in", str(path)]) == 0
    assert built == collections.Counter(kept)
    assert applied == sector == collections.Counter(2 * kept)


def test_project_exactly_annihilated_packet(tmp_path, capsys):
    # on the frequency bins the packet is exactly periodic: no positive bin is
    # occupied, the projection is exactly zero and so is its gap (no 0/0)
    path, form = _annihilated_packet_file(tmp_path, True)
    sig = LambdaSignature((1.0,))
    assert not np.any(szego_project_form(form, sig).components[MultiIndex(())].values)
    assert main(["project", "--in", str(path)]) == 0
    report = capsys.readouterr().out
    assert "norm_out=0.000000e+00" in report
    assert report.endswith("idempotency_gap = 0.000000e+00\n")


def _count_ffts(monkeypatch):
    """Count the vertical FFTs of ``transform``: ifft runs the forward transform, fft the inverse."""
    calls = {"forward": 0, "inverse": 0}

    def counted(kind, fn):
        def call(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return call

    fft = transform.np.fft
    monkeypatch.setattr(fft, "ifft", counted("forward", fft.ifft))
    monkeypatch.setattr(fft, "fft", counted("inverse", fft.fft))
    return calls


def test_project_transforms_once(config_path, tmp_path, monkeypatch, capsys):
    # one forward vertical FFT per projected component, and one inverse FFT
    # only when --out asks for Pu: every number of the report comes from the
    # one projection pass, and a report-only run makes no Pu in space
    field_path = tmp_path / "packet.field"
    assert main(["make-packet", "--config", config_path, "--out", str(field_path)]) == 0
    # both components of a mixed q=1 form are projected, each on its own side
    mixed, cfg = _mixed_tone_form(tmp_path)
    calls = _count_ffts(monkeypatch)
    for args, comps in (([config_path, "--in", str(field_path)], 1),
                        ([str(cfg), "--in", str(mixed)], 2)):
        for out in ([], ["--out", str(tmp_path / "pu.field")]):
            capsys.readouterr()
            calls.update(forward=0, inverse=0)
            assert main(["project", "--config", *args, *out]) == 0
            assert calls == {"forward": comps, "inverse": comps if out else 0}
            assert capsys.readouterr().out.count("norm_out=") == comps


@pytest.mark.parametrize("case", ["default-packet", "mixed-q1"])
def test_project_out_adds_only_the_spatial_pu(tmp_path, monkeypatch, capsys, case):
    # --out prints the report bytes a report-only run prints and writes the
    # Pu of szego_project_form bit for bit; a report-only run leaves each
    # component's buffer holding its forward transform: no slab is written
    # back into it and no bin zeroed
    if case == "default-packet":
        path, args = tmp_path / "packet.field", []
        assert main(["make-packet", "--out", str(path)]) == 0
    else:
        path, cfg = _mixed_tone_form(tmp_path)
        args = ["--config", str(cfg)]
    sig = (RunConfig.from_path(args[1]) if args else RunConfig()).sig
    form = read_form(path)
    buffers = []
    read = fieldio.FieldReader.read

    def kept_read(self, J):
        values = read(self, J)
        buffers.append((values, values.copy()))
        return values

    monkeypatch.setattr(fieldio.FieldReader, "read", kept_read)
    capsys.readouterr()
    assert main(["project", *args, "--in", str(path)]) == 0
    report = capsys.readouterr().out
    assert len(buffers) == len(form.components)
    for values, before in buffers:
        np.fft.ifft(before, axis=-1, out=before)
        assert values.tobytes() == before.tobytes()
    out = tmp_path / "out.field"
    assert main(["project", *args, "--in", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == report
    ref = tmp_path / "ref.field"
    write_form(ref, szego_project_form(form, sig), n=sig.n)
    assert out.read_bytes() == ref.read_bytes()


def _mixed_tone_form(tmp_path):
    """A q=1 form of lambda = (-1, 1), each component a tone on the bins t = +-1.18.

    Both sides of each component are occupied, inside this grid's window:
    component (1) keeps its t > 0 content and (2) its t < 0 content.
    Returns the field file's path and the config's.
    """
    grid = GridSpec(3.5, 13, 8.0, 32)
    rng = np.random.default_rng(1)
    tone = np.cos(3 * grid.freq_step * grid.vertical_nodes())
    comps = {
        MultiIndex((j,)): ScalarField(
            grid=grid, values=rng.normal(size=grid.spatial_shape(2))[..., None] * tone
        )
        for j in (1, 2)
    }
    path = tmp_path / "two.field"
    write_form(path, FormField(grid=grid, q=1, components=comps), n=2)
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("lambdas = -1.0, 1.0\n")
    return path, cfg


# the projection reports of the default packet 2 and of a mixed q=1 form, to
# the digit: the pipeline's bins, budget window and idempotency sums must not
# move when its code is made cheaper or simpler
PINNED_REPORTS = {
    "packet-2": (
        "# projection report\n"
        "component (): norm_in=1.122952e+00 norm_out=1.122952e+00 rel_change=2.761043e-05 "
        "cr_residual=3.832278e-02\n"
        "idempotency_gap = 1.902309e-07\n"
    ),
    "mixed-q1": (
        "# projection report\n"
        "component (1): norm_in=2.743990e+02 norm_out=4.247210e+01 rel_change=9.828265e-01 "
        "cr_residual=9.240650e+01\n"
        "component (2): norm_in=2.766249e+02 norm_out=4.202837e+01 rel_change=9.836316e-01 "
        "cr_residual=9.353549e+01\n"
        "idempotency_gap = 1.955799e-01\n"
    ),
}


@pytest.mark.parametrize("case", list(PINNED_REPORTS))
def test_project_report_pinned(tmp_path, capsys, case):
    if case == "packet-2":
        path = tmp_path / "packet.field"
        assert main(["make-packet", "--packet", "2", "--out", str(path)]) == 0
        args = ["project", "--in", str(path)]
    else:
        path, cfg = _mixed_tone_form(tmp_path)
        args = ["project", "--config", str(cfg), "--in", str(path)]
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == PINNED_REPORTS[case]


def _report_cases(tmp_path):
    """(name, grid, signature, label, side, values) of components ``project`` reports on."""
    cfg = RunConfig()
    cases = [("default-packet", cfg.grid, cfg.sig, MultiIndex(()), 1, cfg.packet_field(1).values)]
    path, _ = _mixed_tone_form(tmp_path)
    form = read_form(path)
    mixed = LambdaSignature((-1.0, 1.0))
    for J, f in form.iter_components():
        cases.append((f"mixed-{J}", form.grid, mixed, J, forms.component_side(J, mixed), f.values))
    # tones on the bins 5 and 9 only: the kept bins are no one run of positions
    grid = cfg.grid
    rng = np.random.default_rng(2)
    x = grid.vertical_nodes()
    tones = np.exp(-5j * grid.freq_step * x) + 0.5 * np.exp(-9j * grid.freq_step * x)
    gapped = rng.normal(size=grid.spatial_shape(1))[..., None] * tones
    cases.append(("two-runs", grid, cfg.sig, MultiIndex(()), 1, gapped))
    # content on the negative bins only: the side keeps no bin
    cases.append(("no-kept-bin", grid, cfg.sig, MultiIndex(()), 1, np.conj(gapped)))
    return cases


def test_report_numbers_of_the_one_pass_match_the_spatial_definitions(tmp_path, monkeypatch):
    # norm_in, norm_out and cr_residual come from the pipeline's bins by
    # Parseval; they are the weighted norms of u and Pu and the spatial
    # residual of Pu
    gathers = []
    slice_operator = _kernels.slice_operator
    monkeypatch.setattr(_kernels, "slice_operator",
                        lambda t, *consts: gathers.append(t) or slice_operator(t, *consts))
    for name, grid, sig, J, side, values in _report_cases(tmp_path):
        gathers.clear()
        pu, in_sq, out_sq, _, cr_sq, _, _ = transform._pipeline(
            grid, values.copy(), sig, side, report=True, want_pu=True
        )
        c = grid.freq_step / (2 * np.pi)
        w = grid.field_weight_array(sig.n)
        want_in = weighted_sq_sum(values, w)
        assert abs(c * in_sq - want_in) <= 1e-12 * want_in, name
        want_out, want_cr = norm(pu), forms.cr_system_residual(pu, J, sig)
        if name == "no-kept-bin":
            assert gathers == [] and out_sq == cr_sq == want_out == want_cr == 0.0
            continue
        if name == "two-runs":
            assert np.round(np.array(gathers) / grid.freq_step).tolist() == [5.0, 9.0]
        assert abs(np.sqrt(c * out_sq) - want_out) <= 1e-12 * want_out, name
        assert abs(np.sqrt(c * cr_sq) - want_cr) <= 1e-12 * want_cr, name


def test_project_takes_no_spatial_pass_over_a_projected_component(tmp_path, monkeypatch, capsys):
    # the report's norms and residual of a projected component come from the
    # projection pass: the spatial routes are never called, and the report
    # reads what it read when they were
    def refuse(*args, **kwargs):
        raise AssertionError("a spatial pass over a projected component")

    monkeypatch.setattr(forms, "apply_cr", refuse)
    monkeypatch.setattr(forms, "cr_system_residual", refuse)
    monkeypatch.setattr(core, "norm", refuse)
    monkeypatch.setattr(cli, "norm", refuse, raising=False)
    path, cfg = _mixed_tone_form(tmp_path)
    assert main(["project", "--config", str(cfg), "--in", str(path)]) == 0
    assert capsys.readouterr().out == PINNED_REPORTS["mixed-q1"]


def test_project_flags_a_gap_measured_outside_the_window(config_path, tmp_path, capsys,
                                                          monkeypatch):
    # an annihilated packet leaves only its seam leakage, which reaches bins
    # above the resolution ceiling: the report says so before the gap line.
    # An in-window packet's report has no such line
    window = "# idempotency_gap measured on bins of Pu outside the budget window"
    path, _ = _annihilated_packet_file(tmp_path, False)
    # the one pipeline call finds the window once, for the input's bins and Pu's
    windows = []

    def counted(*args):
        windows.append(gaussian_budget_window(*args))
        return windows[-1]

    monkeypatch.setattr(transform, "gaussian_budget_window", counted)
    assert main(["project", "--in", str(path)]) == 0
    assert len(windows) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith(window) and lines[-1].startswith("idempotency_gap = ")
    floor, ceiling = gaussian_budget_window(RunConfig().grid, RunConfig().sig)
    assert f"[{floor:.6g}, {ceiling:.6g}]" in lines[-2]
    field_path = tmp_path / "packet.field"
    assert main(["make-packet", "--config", config_path, "--out", str(field_path)]) == 0
    assert main(["project", "--config", config_path, "--in", str(field_path)]) == 0
    assert window not in capsys.readouterr().out


def test_verify_subset_and_determinism(config_path, tmp_path, capsys):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert main(
        ["verify", "--config", config_path, "--criteria", "C01,C03", "--out", str(out1)]
    ) == 0
    assert main(
        ["verify", "--config", config_path, "--criteria", "C01,C03", "--out", str(out2),
         "--jobs", "2"]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "C01.gamma" in text and "PASS" in text


def test_verify_negative_jobs_exits_2(config_path, ran_criteria, capsys):
    assert main(["verify", "--config", config_path, "--jobs", "-3", "--criteria", "C01"]) == 2
    assert ran_criteria == []
    assert "--jobs" in capsys.readouterr().err


def test_verify_budget_violation_fails(tmp_path, capsys):
    cfg = tmp_path / "bad_budget.cfg"
    cfg.write_text(BASE_CONFIG.replace("grid.spatial_radius = 4.0", "grid.spatial_radius = 1.5"))
    code = main(["verify", "--config", str(cfg), "--criteria", "C00"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "gaussian-truncation" in out


def test_verify_unknown_criteria_exits_2(config_path, capsys):
    assert main(["verify", "--config", config_path, "--criteria", "C99"]) == 2


@pytest.fixture
def ran_criteria(monkeypatch):
    """Swap the registry for stubs that record which criteria ran.

    C13 is also handed its first run of the subset (or None).
    """
    ran = []

    def stub(cid):
        def run(cfg, *first):
            ran.append(cid)
            return [verification.CriterionResult(cid, "stub", 0.0, 0.0, "<=")]

        return run

    monkeypatch.setattr(
        verification, "CRITERIA", [(cid, stub(cid)) for cid, _ in verification.CRITERIA]
    )
    return ran


@pytest.mark.parametrize(
    "tokens, selected",
    [
        ("C05a.slice", ["C05.slices"]),
        ("C05", ["C05.slices"]),
        ("C05.slices", ["C05.slices"]),
        ("C01,C03b.phase,C13.determinism", ["C01.gamma", "C03.phase", "C13.determinism"]),
    ],
)
def test_verify_criteria_select_exactly(config_path, ran_criteria, tokens, selected):
    assert main(["verify", "--config", config_path, "--criteria", tokens]) == 0
    assert ran_criteria == selected


# C1 is no prefix of C10..C13; a token that names nothing fails the whole list
@pytest.mark.parametrize("tokens", ["C1", "C5", "C05.slice", "C05a.bogus", "C05a", "C05,C1", ",", ""])
def test_verify_inexact_criteria_exit_2(config_path, ran_criteria, tokens, capsys):
    assert main(["verify", "--config", config_path, "--criteria", tokens]) == 2
    assert ran_criteria == []
    assert "no criterion" in capsys.readouterr().err


def test_make_packet_bad_index_exits_2(config_path, tmp_path, capsys):
    out = tmp_path / "packet.field"
    args = ["make-packet", "--config", config_path, "--out", str(out), "--packet", "1,abc"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "--packet" in err and "'abc'" in err
    assert not out.exists()


@pytest.mark.parametrize("which", ["", ","], ids=["empty", "comma"])
def test_make_packet_no_index_exits_2(config_path, tmp_path, capsys, which):
    out = tmp_path / "packet.field"
    args = ["make-packet", "--config", config_path, "--out", str(out), "--packet", which]
    assert main(args) == 2
    assert "--packet names no packet" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["make-packet", "--out", "{out}"], ["verify", "--criteria", "C00"],
     ["verify", "--criteria", "C07"]],
    ids=["make-packet", "C00", "C07"],
)
def test_default_packet_that_does_not_fit_the_lambdas_is_named(tmp_path, capsys, args):
    # the default n=1 packets load under n=2 lambdas; the first one synthesized fails
    p = tmp_path / "n2.cfg"
    p.write_text("lambdas = -1.0, 1.0\n")
    out = tmp_path / "packet.field"
    argv = [a.format(out=out) for a in args] + ["--config", str(p)]
    assert main(argv) == 2
    assert "error: packet 1: alpha length 1 != n=2" in capsys.readouterr().err
    assert not out.exists()


def test_project_jobs_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--jobs", "2", "--in", str(tmp_path / "packet.field")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, key",
    [("seed = abc", "seed"), ("grid.spatial_points = 3.5", "grid.spatial_points"),
     ("tolerance.parseval = tiny", "tolerance.parseval"), ("project.q = 1", "project.q"),
     ("tolerance.hardy_reproduction = 1", "tolerance.hardy_reproduction"),
     ("grid.quadrature_rule = gauss-legendre", "grid.quadrature_rule"),
     ("grid2.quadrature_rule = uniform-trapezoid", "grid2.quadrature_rule"),
     ("lambdas = nan", "lambdas"), ("lambdas = 1.0, inf", "lambdas"),
     ("seed = -1", "seed"),
     ("grid.vertical_radius = nan", "grid.vertical_radius"),
     ("grid2.spatial_radius = inf", "grid2.spatial_radius"),
     ("grid2.spatial_points = 1", "grid2.spatial_points"),
     ("grid2.spatial_points = 17", "grid2.spatial_points"),
     ("grid.vertical_radius = -1", "grid.vertical_radius"), ("lambdas =", "lambdas"),
     ("packet.foo.alpha = 0", "packet.foo.alpha"), ("packet.0.t_low = 1.0", "packet.0.t_low"),
     ("packet.01.alpha = 0", "packet.01.alpha"),
     ("lambdas = 1.0\xff", "{path}"),
     # a subnormal radius, a grid numpy cannot address and a count int() would
     # take with an underscore; none of them is allocated
     ("grid.spatial_radius = 1e-320", "grid.spatial_radius"),
     ("grid.vertical_points = 9999999999999999999999999", "grid.vertical_points"),
     ("grid.spatial_points = 1_000", "grid.spatial_points"),
     # a radius whose quadrature weights 2 h^2 overflow, and one whose weights
     # are finite but whose squared mesh extent 2 R^2 is not
     ("grid.spatial_radius = 1e160", "grid.spatial_radius"),
     ("grid.spatial_radius = 1e155", "grid.spatial_radius"),
     # the keys of the deleted kernel-table command are unknown keys, whatever
     # their value
     ("epsilon = nan", "epsilon"), ("epsilon = 1e200", "epsilon"),
     ("epsilon = 1e308", "epsilon"),
     ("kernel_table.diag_eps = 0.5, nan", "kernel_table.diag_eps"),
     ("kernel_table.diag_eps = -1", "kernel_table.diag_eps"),
     ("kernel_table.diag_eps = 1e-170", "kernel_table.diag_eps"),
     ("kernel_table.diag_eps = 0.5, 1e-320", "kernel_table.diag_eps"),
     ("kernel_table.count = -3", "kernel_table.count"),
     ("kernel_table.count = 9999999999999999999999999", "kernel_table.count")],
)
def test_bad_config_value_exits_2_naming_key(tmp_path, capsys, line, key):
    p = tmp_path / "bad.cfg"
    # latin-1 writes each character as one byte, so a line can hold a byte
    # that is not UTF-8; the file is then named instead of a key
    p.write_bytes(f"{line}\n".encode("latin-1"))
    assert main(["verify", "--config", str(p), "--criteria", "C01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for k in key.split():
        assert repr(k.format(path=str(p))) in err
    if key in _REMOVED_KEYS:
        assert err.startswith("error: unknown config keys")


@pytest.mark.parametrize(
    "text, message",
    [
        ("packet.1.t_low = 3.0", "'packet.1.alpha'"),
        ("packet.1.alpha = 0\npacket.1.t_low = 3.0", "'packet.1.t_high'"),
        ("packet.1.alpha = 0\npacket.1.t_low = 3.0\npacket.1.t_high = 2.0",
         "packet 1: envelope needs 0 < t_low < t_high"),
        ("packet.1.alpha = -1\npacket.1.t_low = 1.0\npacket.1.t_high = 2.0",
         "packet 1: alpha entries must be >= 0"),
        ("packet.1.alpha = 0\npacket.1.t_low = 1.0\npacket.1.t_high = inf",
         "'packet.1.t_high'"),
        ("packet.1.alpha = 0, 0\npacket.1.t_low = 1.0\npacket.1.t_high = 2.0",
         "'packet.1.alpha': needs one entry per lambda"),
        ("packet.1.alpha = 0\npacket.1.t_low = 1.0\npacket.1.t_high = 2.0\n"
         "packet.1.conjugated_axes = 5", "'packet.1.conjugated_axes'"),
        ("packet.1.alpha = 0\npacket.1.t_low = 1.0\npacket.1.t_high = 2.0\n"
         "packet.3.alpha = 0\npacket.3.t_low = 1.0\npacket.3.t_high = 2.0", "'packet.2.*'"),
        ("packet.1.alpha = 400\npacket.1.t_low = 1.0\npacket.1.t_high = 3.2",
         "'packet.1.alpha': the packet's norm overflows"),
        # the monomial itself overflows, and numpy warns of it unless silenced
        ("packet.1.alpha = 1000\npacket.1.t_low = 1.0\npacket.1.t_high = 3.2",
         "'packet.1.alpha': the packet's norm overflows"),
    ],
    ids=["t_low-only", "no-t_high", "empty-envelope", "negative-alpha", "infinite-t_high",
         "alpha-length", "axis-above-n", "id-gap", "overflowing-energy", "overflowing-monomial"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_packet_config_exits_2_naming_packet(tmp_path, capsys, text, message):
    p = tmp_path / "packet.cfg"
    p.write_text(text + "\n")
    # C00 synthesizes each packet: one whose norm overflows is refused there,
    # and the refusal is the first line on stderr
    assert main(["verify", "--config", str(p), "--criteria", "C00"]) == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: ") and message in first


def _run(argv):
    """Run the CLI in-process: its exit code (or the repr of what it raised),
    its stdout, the first line of its stderr and the warnings it gave."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
    first = err.getvalue().splitlines()[:1]
    return code, out.getvalue(), first[0] if first else "", caught


#: the values the sweep sets each config key to: malformed, signed, zero,
#: overflowing, underflowing and well-formed tokens, single and in lists
_SWEEP_TOKENS = (
    "", "abc", "1e400", "-1", "0", "-0", "1.5", "1,,2", "nan", "inf", "1e-320", "1_000", "9" * 25,
    "1e200", "1e308", "1e160,1e160", "1e200,1e200", "1e-200,1e-200", "1", "2", "-1.5", "1e-5",
    "1,2", "0.5,-0.5",
)

#: the sweep's base grid: 9^2 x 16 nodes, whose top frequency 2 pi lies
#: above every default packet's band
_SWEEP_GRID = {"grid.spatial_radius": "3.0", "grid.spatial_points": "9",
               "grid.vertical_radius": "4.0", "grid.vertical_points": "16"}


def _sweep_keys():
    """Every key of the canonical config, packet 1's keys standing for the packet keys."""
    keys = [line.split(" = ")[0] for line in RunConfig().canonical_text().splitlines()]
    return [k for k in keys if not k.startswith("packet.") or k.startswith("packet.1.")]


#: the keys of the deleted kernel-table command: a config that sets one is
#: refused as setting an unknown key
_REMOVED_KEYS = ("epsilon", "kernel_table.count", "kernel_table.diag_eps")


@pytest.mark.parametrize("key", _sweep_keys() + list(_REMOVED_KEYS))
def test_config_value_sweep_exits_0_or_2_naming_the_key(tmp_path, key):
    # each token replaces the key's value in the canonical config on a small
    # grid (a removed key is added to it).  make-packet exits 0 or 2, and
    # verify --criteria C00 0, 1 (a FAIL line) or 2, with no numpy warning,
    # and a refusal names the key on its first line; a removed key is
    # refused as unknown whatever its value.  Both commands synthesize
    # packet 1 (C00 checks it against the grid), so a value that packet 1
    # does not fit (a packet key, a coarser vertical grid) is refused at
    # 'packet 1'; a lambdas value packet 1 does not fit names 'lambdas'
    lines = [line.partition(" = ") for line in RunConfig().canonical_text().splitlines()]
    if key in _REMOVED_KEYS:
        lines.append((key, " = ", ""))
    cfg = tmp_path / "sweep.cfg"
    bad = []
    for tok in _SWEEP_TOKENS:
        values = {**_SWEEP_GRID, key: tok}
        cfg.write_text("".join(f"{k} = {values.get(k, v)}\n" for k, _, v in lines))
        for argv in (["verify", "--criteria", "C00"],
                     ["make-packet", "--out", str(tmp_path / "packet.field")]):
            code, out, first, caught = _run(argv + ["--config", str(cfg)])
            named = key in first or (key != "lambdas" and "packet 1" in first)
            fail_line = argv[0] == "verify" and code == 1 and "FAIL" in out
            if (code not in (0, 2) and not fail_line) or caught or (code == 2 and not named) or (
                key in _REMOVED_KEYS and not (code == 2 and "unknown config keys" in first)
            ):
                bad.append((argv[0], tok, code, len(caught), first))
    assert bad == []


@pytest.mark.parametrize(
    "lambdas",
    ["1e308", "1e200", "1e160, 1e160", "1e200, 1e200", "1e-6", "1e-6, 1e-6", "1e-9", "1e-300",
     "1e-160, 1e-160"],
)
def test_extreme_lambdas_stop_at_a_budget_without_a_warning(tmp_path, lambdas):
    # a packet under lambdas this large or small lies above the kernel's
    # resolution ceiling or below its truncation floor on the sweep's grid:
    # make-packet writes it, project refuses it on that budget (exit 3) and
    # C00's preflight FAILs (exit 1), and no command warns or raises
    n = lambdas.count(",") + 1
    cfg, field = tmp_path / "run.cfg", tmp_path / "packet.field"
    cfg.write_text(
        f"lambdas = {lambdas}\n" + "".join(f"{k} = {v}\n" for k, v in _SWEEP_GRID.items())
        + f"packet.1.alpha = {', '.join(['0'] * n)}\npacket.1.t_low = 1.0\npacket.1.t_high = 3.2\n"
    )
    runs = [_run(argv + ["--config", str(cfg)]) for argv in (
        ["make-packet", "--out", str(field)], ["project", "--in", str(field)],
        ["verify", "--criteria", "C00"])]
    assert [code for code, *_ in runs] == [0, 3, 1]
    assert [caught for *_, caught in runs] == [[], [], []]
    budget = "kernel-resolution" if float(lambdas.split(",")[0]) > 1 else "gaussian-truncation"
    assert runs[1][2].startswith(f"budget violation [{budget}]")
    assert "C00.preflight" in runs[2][1] and "FAIL" in runs[2][1]


#: the header sweep's tokens: the config sweep's, multi-indices, payload
#: modes, the largest header n and the one above it, and the format name
_HEADER_TOKENS = _SWEEP_TOKENS + (
    "()", "(1)", "(2)", "(1,2)", "(1);(1)", "(1", "binary", "csv", "31", "32", fieldio.FORMAT_NAME,
)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_field_header_sweep_exits_0_2_or_3_naming_the_key(tmp_path, fmt):
    # each token replaces one header value of a small n=1 field file.
    # project exits 0, 2 or 3 (its budget refusal) with no numpy warning,
    # and a refusal names the key on its first line: quoted, since a bare n
    # or q is in nearly every message.  A csv read of a binary payload
    # names the line that is not text instead
    grid = GridSpec(3.0, 9, 4.0, 16)
    rng = np.random.default_rng(5)
    u = ScalarField(grid=grid, values=rng.normal(size=grid.field_shape(1)) + 0j)
    path = tmp_path / "sweep.field"
    write_form(path, FormField(grid=grid, q=0, components={MultiIndex(()): u}), fmt=fmt)
    data = path.read_bytes()
    cut = data.index(b"\n", data.index(b"data = ")) + 1
    lines = [line.partition(" = ") for line in data[:cut].decode().splitlines()]
    bad = []
    for key, _, _ in lines:
        for tok in _HEADER_TOKENS:
            head = "".join(f"{k} = {tok if k == key else v}\n" for k, _, v in lines)
            path.write_bytes(head.encode() + data[cut:])
            code, _, first, caught = _run(["project", "--in", str(path)])
            named = repr(key) in first or (key == "data" and "is not UTF-8 text" in first)
            if code not in (0, 2, 3) or caught or (code == 2 and not named) or (
                code == 3 and not first.startswith("budget violation")
            ):
                bad.append((key, tok, code, len(caught), first))
    assert bad == []


#: the payload sweep's values: a binary sample takes the first four, a csv
#: cell all of them as written
_PAYLOAD_TOKENS = ("nan", "inf", "-inf", "1e308", "1e400", "9" * 400, "1e-400")


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_field_payload_sweep_exits_0_2_or_3_naming_the_line(tmp_path, fmt):
    # each token replaces one sample of the header sweep's n=1 field file:
    # in a csv payload, the re and then the im cell of one row.  project
    # exits 0, 2 or 3 (its budget refusal) with no numpy warning, and a csv
    # cell that is not finite is refused naming its line
    grid = GridSpec(3.0, 9, 4.0, 16)
    rng = np.random.default_rng(5)
    values = rng.normal(size=grid.field_shape(1)) + 0j
    path = tmp_path / "sweep.field"

    def write(vals):
        comp = ScalarField(grid=grid, values=vals)
        write_form(path, FormField(grid=grid, q=0, components={MultiIndex(()): comp}), fmt=fmt)

    write(values)
    lines = path.read_text().splitlines(keepends=True) if fmt == "csv" else []
    row = next((i for i, line in enumerate(lines) if line.startswith("0,7,")), None)
    bad = []
    for tok in _PAYLOAD_TOKENS if fmt == "csv" else _PAYLOAD_TOKENS[:4]:
        for cell in (2, 3) if fmt == "csv" else (None,):
            if cell is None:
                vals = values.copy()
                vals.flat[7] = float(tok)
                write(vals)
            else:
                cells = lines[row].rstrip("\n").split(",")
                cells[cell] = tok
                path.write_text("".join(lines[:row] + [",".join(cells) + "\n"] + lines[row + 1:]))
            code, _, first, caught = _run(["project", "--in", str(path)])
            refused_at_line = code == 2 and f"line {row + 1}:" in first if cell else True
            if code not in (0, 2, 3) or caught or (code == 3 and not first.startswith("budget")) or (
                not np.isfinite(float(tok)) and not refused_at_line
            ):
                bad.append((tok, cell, code, len(caught), first))
    assert bad == []


def test_flag_sweep_exits_0_or_2_naming_the_flag(tmp_path):
    # each token replaces one flag's value in a cheap run on the sweep's
    # small grid (verify runs C01 with at most two jobs).  A run exits 0 or
    # 2, or 1 for a verify report with a FAIL line, with no numpy warning; a
    # refusal's first stderr line is its error, not the usage, and names the
    # flag (an --in that is not a field file names the file), and it prints
    # nothing on stdout
    lines = [line.partition(" = ") for line in RunConfig().canonical_text().splitlines()]
    cfg, field, text = tmp_path / "sweep.cfg", tmp_path / "in.field", tmp_path / "text.txt"
    cfg.write_text("".join(f"{k} = {_SWEEP_GRID.get(k, v)}\n" for k, _, v in lines))
    text.write_text("not a field file\n")
    (tmp_path / "old.out").write_text("old\n")
    # a zero field: any content the sweep grid holds lies outside its budget window
    grid = GridSpec(3.0, 9, 4.0, 16)
    zero = ScalarField(grid=grid, values=np.zeros(grid.field_shape(1), dtype=complex))
    write_form(field, FormField(grid=grid, q=0, components={MultiIndex(()): zero}))
    paths = ("", str(tmp_path), str(tmp_path / "missing" / "x"), str(text / "x"))
    outs = paths + (str(tmp_path / "old.out"), str(tmp_path / "new.out"), str(tmp_path) + "/")
    formats = ("csv", "binary", "", "abc", "CSV")
    cases = [
        (["make-packet", "--out", str(tmp_path / "packet.field")], "--packet",
         ("1", "2", "1,3", "", ",", "abc", "0", "-1", "6", "1,1", "1,2", "1.5", "9" * 25)),
        (["make-packet", "--out", str(tmp_path / "packet.field")], "--format", formats),
        (["make-packet"], "--out", outs),
        (["project", "--in", str(field)], "--in", paths + (str(text), str(field))),
        (["project", "--in", str(field)], "--out", outs),
        (["project", "--in", str(field)], "--format", formats),
        (["verify", "--criteria", "C01", "--jobs", "1"], "--jobs",
         ("abc", "1.5", "", "-1", "-0", "1", "2", "0x1", "1e0", " 2")),
        (["verify", "--criteria", "C01", "--jobs", "1"], "--criteria",
         ("C01", "C01,C01", "c01", "C1", "", ",", "abc", "C01a", "C01.gamma", "C99", "C01,C99")),
        (["verify", "--criteria", "C01", "--jobs", "1"], "--out", outs),
        (["verify", "--criteria", "C01", "--jobs", "1"], "--config",
         (str(tmp_path / "missing.cfg"), str(tmp_path), "", str(cfg))),
    ]
    bad = []
    for base, flag, tokens in cases:
        for tok in tokens:
            argv = list(base) + ["--config", str(cfg)]
            if flag in argv:
                argv[argv.index(flag) + 1] = tok
            else:
                argv += [flag, tok]
            code, out, first, caught = _run(argv)
            named = first.startswith("error: ") and (
                flag in first or (flag == "--in" and f"field file {tok!r}" in first))
            fail_line = argv[0] == "verify" and code == 1 and "FAIL" in out
            if (code not in (0, 2) and not fail_line) or caught or (
                code == 2 and (not named or out)
            ):
                bad.append((argv[0], flag, tok, code, len(caught), first, out[:40]))
    assert bad == []


def _csv_field(tmp_path):
    """A one-component n=1 csv field file; returns its path and text."""
    grid = GridSpec(2.0, 3, 3.0, 4)
    values = np.arange(grid.field_shape(1)[0] ** 2 * 4).reshape(grid.field_shape(1)) + 0.5j
    comp = ScalarField(grid=grid, values=values)
    form = FormField(grid=grid, q=0, components={MultiIndex(()): comp})
    path = tmp_path / "small.field"
    write_form(path, form, fmt="csv")
    return path, path.read_text()


def _first_row(text):
    """Line number (1-based) and text of the first payload row."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("data = ")) + 1
    return at + 1, lines[at]


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing-n", "'n'"),
        ("field-count", "line {row}"),
        ("component-range", "line {row}"),
        ("index-range", "line {row}"),
        ("duplicate", "line {row2}"),
        ("missing-row", "expected 36"),
        ("negative-q", "'q'"),
        ("component-above-n", "'components'"),
        ("unknown-header-key", "'grid.quadrature_rule'"),
        ("zero-n", "'n'"),
        ("repeated-component", "'components'"),
        ("component-length", "'components'"),
        ("repeated-q", "duplicate key 'q'"),
        ("repeated-grid-key", "duplicate key 'grid.spatial_points'"),
        ("commented-data", "'data'"),
        ("oversized-grid", "csv payload has 36 rows, expected 40000000000 "),
        ("nan-radius", "field file header 'grid.spatial_radius': 'nan' is not a finite number"),
        ("inf-radius", "field file header 'grid.vertical_radius': 'inf' is not a finite number"),
        ("one-spatial-point", "field file header 'grid.spatial_points': point count 1"),
        ("non-utf8-header", "field file {path!r}: line 2 is not UTF-8 text"),
        ("non-utf8-csv", "field file {path!r}: line {row} is not UTF-8 text"),
        ("huge-n", "field file header 'n': dimension 9999999999999999999999999 is above 31"),
        ("subnormal-radius", "field file header 'grid.spatial_radius': radius 1e-320 is below"),
        ("overflowing-weights", "field file header 'grid.spatial_radius' and 'grid.spatial_points'"),
        ("overflowing-extent", "field file header 'grid.spatial_radius': the squared extent"),
        ("unaddressable-grid", "field file header 'grid.spatial_points' and 'grid.vertical_points'"),
        ("nan-value", "component (): the sum of |u|^2 is not finite"),
        ("huge-value", "component (): the sum of |u|^2 is not finite"),
    ],
)
def test_malformed_field_file_exits_2(tmp_path, capsys, case, message):
    path, text = _csv_field(tmp_path)
    row, first = _first_row(text)
    second = text.splitlines()[row]
    if case == "missing-n":
        text = text.replace("n = 1\n", "")
    elif case == "field-count":
        text = text.replace(first + "\n", first + ",0\n")
    elif case == "component-range":
        text = text.replace(first + "\n", "5" + first[1:] + "\n")
    elif case == "index-range":
        text = text.replace(first + "\n", "0,36" + first[3:] + "\n")
    elif case == "duplicate":
        text = text.replace(second + "\n", first + "\n")
    elif case == "missing-row":
        text = text.replace(second + "\n", "")
    elif case == "negative-q":
        text = text.replace("q = 0\n", "q = -1\n")
    elif case == "component-above-n":
        text = text.replace("q = 0\n", "q = 1\n").replace("components = ()", "components = (3)")
    elif case == "unknown-header-key":
        text = text.replace("data = ", "grid.quadrature_rule = gauss-legendre\ndata = ")
    elif case == "zero-n":
        text = text.replace("n = 1\n", "n = 0\n")
    elif case == "repeated-component":
        text = text.replace("q = 0\n", "q = 1\n").replace("components = ()", "components = (1);(1)")
    elif case == "component-length":
        text = text.replace("q = 0\n", "q = 1\n")
    elif case == "repeated-q":
        text = text.replace("data = ", "q = 0\ndata = ")
    elif case == "repeated-grid-key":
        text = text.replace("data = ", "grid.spatial_points = 3\ndata = ")
    elif case == "commented-data":
        text = text.replace("data = ", "# data = ")
    elif case == "oversized-grid":
        # 4e10 points, 596 GiB: the header's grid is never allocated
        text = text.replace("grid.spatial_points = 3\n", "grid.spatial_points = 100000\n")
    elif case == "nan-radius":
        text = text.replace("grid.spatial_radius = 2.0\n", "grid.spatial_radius = nan\n")
    elif case == "inf-radius":
        text = text.replace("grid.vertical_radius = 3.0\n", "grid.vertical_radius = inf\n")
    elif case == "one-spatial-point":
        text = text.replace("grid.spatial_points = 3\n", "grid.spatial_points = 1\n")
    elif case == "non-utf8-header":
        text = text.replace("n = 1\n", "n = 1\xff\n")
    elif case == "non-utf8-csv":
        text = text.replace(first + "\n", first + "\xff\n")
    elif case == "huge-n":
        text = text.replace("n = 1\n", "n = 9999999999999999999999999\n")
    elif case == "subnormal-radius":
        text = text.replace("grid.spatial_radius = 2.0\n", "grid.spatial_radius = 1e-320\n")
    elif case == "overflowing-weights":
        text = text.replace("grid.spatial_radius = 2.0\n", "grid.spatial_radius = 1e160\n")
    elif case == "overflowing-extent":
        # a default packet file whose header radius leaves the weights 2 h^2
        # finite and makes the mesh's squared extent 2 R^2 overflow
        u = RunConfig().packet_field(1)
        write_form(path, FormField(grid=u.grid, q=0, components={MultiIndex(()): u}))
        text = path.read_bytes().decode("latin-1")
        assert "grid.spatial_radius = 4.0\n" in text
        text = text.replace("grid.spatial_radius = 4.0\n", "grid.spatial_radius = 1e155\n")
    elif case == "unaddressable-grid":
        text = text.replace("grid.vertical_points = 4\n", f"grid.vertical_points = {'9' * 25}\n")
    elif case in ("nan-value", "huge-value"):
        # a binary payload with a value that is not finite, or whose square is not
        form = read_form(path)
        u = form.components[MultiIndex(())].values.copy()
        u.flat[7] = np.nan if case == "nan-value" else 1e200
        comp = ScalarField(grid=form.grid, values=u)
        write_form(path, FormField(grid=form.grid, q=0, components={MultiIndex(()): comp}))
        text = path.read_bytes().decode("latin-1")
    # latin-1 writes each character as one byte: "\xff" stays a byte that is not UTF-8
    path.write_bytes(text.encode("latin-1"))
    assert main(["project", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message.format(row=row, row2=row + 1, path=str(path)) in err


def test_dropped_component_that_is_not_finite_exits_2(tmp_path, capsys):
    # q = 1 is neither n_minus = 0 nor n_plus = 2 at lambdas (1, 1): the
    # component is dropped, and its spatial norm is what finds the NaN
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambdas = 1.0, 1.0\n")
    grid = GridSpec(2.0, 3, 3.0, 4)
    u = np.ones(grid.field_shape(2), dtype=complex)
    u.flat[7] = np.nan
    J = MultiIndex((1,))
    path = tmp_path / "dropped.field"
    write_form(path, FormField(grid=grid, q=1, components={J: ScalarField(grid=grid, values=u)}))
    assert main(["project", "--config", str(cfg), "--in", str(path)]) == 2
    assert capsys.readouterr().err == "error: component (1): the sum of |u|^2 is not finite\n"


# -- one component at a time: the header's n, an atomic --out, short reads ----


@pytest.mark.parametrize("source", ["config", "field-file"])
def test_grid_that_does_not_fit_in_memory_exits_2(tmp_path, monkeypatch, capsys, source):
    # a grid inside the size rule can still be too large to allocate; the
    # allocation is made to fail here, so nothing large is allocated
    def refuse(*args):
        raise MemoryError

    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        monkeypatch.setattr(GridSpec, "complex_mesh", refuse)
        argv = ["verify", "--config", str(cfg), "--criteria", "C00"]
    else:
        path, _ = _csv_field(tmp_path)
        monkeypatch.setattr(fieldio.FieldReader, "read", refuse)
        argv = ["project", "--in", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "grid.spatial_points" in err and "grid.vertical_points" in err
    assert "Traceback" not in err


def test_project_checks_an_empty_forms_dimension(tmp_path, capsys):
    # an empty form has no component to take n from; the header's n is
    # checked against the config all the same
    grid = GridSpec(3.5, 9, 8.0, 16)
    path = tmp_path / "empty.field"
    write_form(path, FormField(grid=grid, q=1, components={}), n=1)
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("lambdas = -1.0, 1.0\n")
    out = tmp_path / "out.field"
    argv = ["project", "--config", str(cfg), "--in", str(path), "--out", str(out)]
    assert main(argv) == 2
    assert "'n'" in capsys.readouterr().err
    assert not out.exists()


def _two_component_form(tmp_path, broadband_second):
    """An n=2 q=1 form for lambda = (-1, 1) whose first component lies inside the window."""
    grid = GridSpec(3.5, 13, 8.0, 32)
    rng = np.random.default_rng(4)
    tone = np.cos(3 * grid.freq_step * grid.vertical_nodes())
    first = ScalarField(grid=grid, values=rng.normal(size=grid.spatial_shape(2))[..., None] * tone)
    second = first
    if broadband_second:
        shape = grid.field_shape(2)
        second = ScalarField(grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    path = tmp_path / "two.field"
    write_form(path, FormField(grid=grid, q=1, components={
        MultiIndex((1,)): first, MultiIndex((2,)): second}), n=2)
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("lambdas = -1.0, 1.0\n")
    return path, cfg


@pytest.mark.parametrize("failure", ["budget", "truncated", "replace"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_project_out_is_atomic(tmp_path, monkeypatch, capsys, failure, existing):
    # the second component fails after the first is written to the output's
    # temporary file, or the finished file cannot be moved onto the output:
    # no new file appears, an existing one keeps its bytes, no temporary
    # file is left, and a failed move names the output, not the temporary file
    path, cfg = _two_component_form(tmp_path, broadband_second=failure == "budget")
    if failure == "replace":
        def refuse(src, dst):
            raise IsADirectoryError(21, "Is a directory", src, dst)

        monkeypatch.setattr(os, "replace", refuse)
    if failure == "truncated":
        read = fieldio.FieldReader.read

        def read_then_truncate(self, J):
            values = read(self, J)
            os.truncate(path, os.path.getsize(path) - 16)
            return values

        monkeypatch.setattr(fieldio.FieldReader, "read", read_then_truncate)
    out = tmp_path / "out.field"
    if existing:
        out.write_bytes(b"old bytes\n")
    before = sorted(os.listdir(tmp_path))
    code = main(["project", "--config", str(cfg), "--in", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if failure == "budget":
        assert code == 3 and "budget violation" in err
    elif failure == "truncated":
        assert code == 2 and "payload truncated" in err
    else:
        assert code == 2 and err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
    assert sorted(os.listdir(tmp_path)) == before
    if existing:
        assert out.read_bytes() == b"old bytes\n"


def test_project_out_streams_what_write_form_writes(tmp_path, capsys):
    # the streamed --out file is the file write_form makes of the projection
    path, cfg = _two_component_form(tmp_path, broadband_second=False)
    out = tmp_path / "out.field"
    assert main(["project", "--config", str(cfg), "--in", str(path), "--out", str(out)]) == 0
    ref = tmp_path / "ref.field"
    write_form(ref, szego_project_form(read_form(path), LambdaSignature((-1.0, 1.0))), n=2)
    assert out.read_bytes() == ref.read_bytes()
