import collections
import os
import types

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
    fieldio,
    make_wave_packet,
    szego_project_form,
    transform,
    verification,
)
from hszego.bergman import gaussian_budget_window
from hszego.cli import main
from hszego.config import RunConfig
from hszego.fieldio import read_form, write_form

BASE_CONFIG = """
lambdas = 1.0
epsilon = 0.5
seed = 11
grid.spatial_radius = 4.0
grid.spatial_points = 25
grid.vertical_radius = 16.0
grid.vertical_points = 64
packet.1.alpha = 0
packet.1.t_low = 0.9
packet.1.t_high = 3.0
packet.1.order = 4
kernel_table.count = 2
kernel_table.diag_eps = 0.5,1.0
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


def test_kernel_table(config_path, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["kernel-table", "--config", config_path, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["route", "abs_disagreement"]
    # 2 random pairs + 2 diagonal eps values, two routes each
    assert len(lines) == 1 + 2 * (2 + 2)
    gap_col = header.index("abs_disagreement")
    for row in lines[1:]:
        assert float(row.split(",")[gap_col]) < 1e-6
    routes = {row.split(",")[header.index("route")] for row in lines[1:]}
    assert routes == {"closed-form", "fio-quadrature"}
    # diagonal rows scale like eps^-(n+1): |K| * eps^2 constant for n = 1
    eps_col = header.index("epsilon")
    abs_col = header.index("abs_k")
    diag = [row.split(",") for row in lines[1:]]
    scaled = {
        round(float(r[abs_col]) * float(r[eps_col]) ** 2, 12)
        for r in diag[-4:]  # the two diagonal eps values, two routes each
    }
    assert len(scaled) == 1


def test_kernel_table_empty_is_header_only(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text(BASE_CONFIG.replace("kernel_table.count = 2", "kernel_table.count = 0")
                 .replace("kernel_table.diag_eps = 0.5,1.0", "kernel_table.diag_eps ="))
    out = tmp_path / "table.csv"
    assert main(["kernel-table", "--config", str(p), "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1


def test_kernel_table_degenerate_signature_exits_2(tmp_path, capsys):
    # the closed-form kernel of a degenerate structure is undefined (DomainError)
    p = tmp_path / "degenerate.cfg"
    p.write_text("lambdas = 0.0\n")
    assert main(["kernel-table", "--config", str(p), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: degenerate signature")


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


def _count_slices(monkeypatch):
    """Count the slices ``_kernels.project_slices`` is handed, by frequency."""
    seen = collections.Counter()
    project_slices = _kernels.project_slices

    def counted(slabs, ts, *consts):
        seen.update(ts.tolist())
        return project_slices(slabs, ts, *consts)

    monkeypatch.setattr(_kernels, "project_slices", counted)
    return seen


def test_project_projects_each_kept_bin_twice(tmp_path, monkeypatch, capsys):
    # one pass over the slabs: each kept bin is projected, and for the gap
    # projected again straight away, whether or not it is occupied in Pu.
    # This packet's seam leakage occupies 63 positive bins, and its
    # projection empties one of them below the occupancy share
    path, form = _annihilated_packet_file(tmp_path, False, alpha=1)
    ts = RunConfig().grid.freq_nodes()
    u = form.components[MultiIndex(())]
    kept = ts[(ts > 0) & (ts <= ts[-1]) & transform.partial_ft(u).occupied_mask()].tolist()
    seen = _count_slices(monkeypatch)
    pu = szego_project_form(form, LambdaSignature((1.0,))).components[MultiIndex(())]
    assert seen == collections.Counter(kept)
    assert np.count_nonzero(transform.partial_ft(pu).occupied_mask()) < len(kept) == 63
    seen.clear()
    assert main(["project", "--in", str(path)]) == 0
    assert seen == collections.Counter(2 * kept)


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
    fft = transform._sfft

    def counted(kind, fn):
        def call(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(transform, "_sfft", types.SimpleNamespace(
        ifft=counted("forward", fft.ifft), fft=counted("inverse", fft.fft)))
    return calls


def test_project_transforms_once(config_path, tmp_path, monkeypatch, capsys):
    # one forward and one inverse vertical FFT per projected component: the
    # idempotency gap comes from the one projection pass, and a second pass
    # would transform the field again
    field_path = tmp_path / "packet.field"
    assert main(["make-packet", "--config", config_path, "--out", str(field_path)]) == 0
    calls = _count_ffts(monkeypatch)
    assert main(["project", "--config", config_path, "--in", str(field_path)]) == 0
    assert calls == {"forward": 1, "inverse": 1}
    # both components of a mixed q=1 form are projected, each on its own
    # side's bins t = +-1.18 inside this grid's window
    grid = GridSpec(3.5, 13, 8.0, 32)
    rng = np.random.default_rng(1)
    tone = np.cos(3 * grid.freq_step * grid.vertical_nodes())
    comp = ScalarField(grid=grid, values=rng.normal(size=grid.spatial_shape(2))[..., None] * tone)
    path = tmp_path / "two.field"
    write_form(path, FormField(grid=grid, q=1, components={
        MultiIndex((j,)): comp for j in (1, 2)}), n=2)
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("lambdas = -1.0, 1.0\n")
    capsys.readouterr()
    calls.update(forward=0, inverse=0)
    assert main(["project", "--config", str(cfg), "--in", str(path)]) == 0
    assert calls == {"forward": 2, "inverse": 2}
    assert capsys.readouterr().out.count("norm_out=") == 2


def test_project_flags_a_gap_measured_outside_the_window(config_path, tmp_path, capsys):
    # an annihilated packet leaves only its seam leakage, which reaches bins
    # above the resolution ceiling: the report says so before the gap line.
    # An in-window packet's report has no such line
    window = "# idempotency_gap measured on bins of Pu outside the budget window"
    path, _ = _annihilated_packet_file(tmp_path, False)
    assert main(["project", "--in", str(path)]) == 0
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
    """Swap the registry for stubs that record which criteria ran."""
    ran = []

    def stub(cid):
        def run(cfg):
            ran.append(cid)
            return [verification.CriterionResult(cid, "stub", 0.0, 0.0, "<=", True)]

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
@pytest.mark.parametrize("tokens", ["C1", "C5", "C05.slice", "C05a.bogus", "C05a", "C05,C1", ","])
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
     ("epsilon = nan", "epsilon"), ("kernel_table.diag_eps = 0.5, nan", "kernel_table.diag_eps"),
     ("kernel_table.count = -3", "kernel_table.count"), ("seed = -1", "seed"),
     ("grid.vertical_radius = nan", "grid.vertical_radius"),
     ("grid2.spatial_radius = inf", "grid2.spatial_radius")],
)
def test_bad_config_value_exits_2_naming_key(tmp_path, capsys, line, key):
    p = tmp_path / "bad.cfg"
    p.write_text(f"{line}\n")
    assert main(["verify", "--config", str(p), "--criteria", "C01"]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("packet.1.t_low = 3.0", "'packet.1.alpha'"),
        ("packet.1.alpha = 0\npacket.1.t_low = 3.0", "'packet.1.t_high'"),
        ("packet.1.alpha = 0\npacket.1.t_low = 3.0\npacket.1.t_high = 2.0",
         "packet 1: envelope needs 0 < t_low < t_high"),
    ],
    ids=["t_low-only", "no-t_high", "empty-envelope"],
)
def test_bad_packet_config_exits_2_naming_packet(tmp_path, capsys, text, message):
    p = tmp_path / "packet.cfg"
    p.write_text(text + "\n")
    assert main(["verify", "--config", str(p), "--criteria", "C01"]) == 2
    assert message in capsys.readouterr().err


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
    path.write_text(text)
    assert main(["project", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message.format(row=row, row2=row + 1) in err


# -- one component at a time: the header's n, an atomic --out, short reads ----


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


@pytest.mark.parametrize("failure", ["budget", "truncated"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_project_out_is_atomic(tmp_path, monkeypatch, capsys, failure, existing):
    # the second component fails after the first is written to the output's
    # temporary file: no new file appears, an existing one keeps its bytes,
    # and no temporary file is left
    path, cfg = _two_component_form(tmp_path, broadband_second=failure == "budget")
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
    else:
        assert code == 2 and "payload truncated" in err
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
