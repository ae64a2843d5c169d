"""Tests of the benchmark harness itself (not of hszego).

Run from the repository root:  python3 -m pytest -q perfbench/tests
The span-coverage tests run each workload's traced pass once (about 2.5
minutes in all on a 2-core machine).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from hszego import LambdaSignature, cli, transform  # noqa: E402
from hszego.bergman import gaussian_budget_window  # noqa: E402
from hszego.config import RunConfig  # noqa: E402


@pytest.fixture
def work(request):
    path = run.WORK / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _digests(job: dict) -> list[str]:
    return [hashlib.sha256(Path(a).read_bytes()).hexdigest()
            for op in job["ops"] for a in op["argv"] if a.endswith(".field")]


@pytest.mark.parametrize("workload", ["hardy-n1", "forms-n2"])
def test_same_seed_same_input_bytes(workload, work):
    first = _digests(inputs.prepare(workload, 7, work / "a"))
    again = _digests(inputs.prepare(workload, 7, work / "b"))
    other = _digests(inputs.prepare(workload, 8, work / "c"))
    assert first and first == again
    assert all(x != y for x, y in zip(first, other))


def test_verify_inputs_do_not_depend_on_seed(work):
    assert inputs.prepare("verify-oracles", 1, work)["ops"] == \
        inputs.prepare("verify-oracles", 2, work)["ops"]


def _assert_preflight(spec: dict, sig: LambdaSignature, hat: LambdaSignature, grid) -> None:
    floor, ceiling = gaussian_budget_window(grid, hat)
    assert floor <= spec["t_low"] < spec["t_high"] <= ceiling
    assert spec["t_high"] < grid.freq_max
    u = transform.make_wave_packet(inputs.packet_spec(spec), sig, grid)
    assert transform.packet_boundary_share(u) <= RunConfig().tolerances["wrap_share"]


@pytest.mark.parametrize("seed", range(4))
def test_hardy_inputs_pass_preflight(seed):
    cfg = RunConfig()
    specs = inputs.hardy_specs(seed)
    slots = [s["slot"] for s in specs]
    assert slots == list(inputs.HARDY_SLOTS) * inputs.HARDY_ROUNDS
    for spec in specs:
        assert spec["t_high"] - spec["t_low"] >= inputs.HARDY_MIN_WIDTH
        assert spec["order"] == 6 and 0 <= spec["alpha"][0] <= 3
        _assert_preflight(spec, cfg.sig, cfg.sig, cfg.grid)


@pytest.mark.parametrize("seed", range(3))
def test_forms_inputs_pass_preflight(seed):
    cfg = RunConfig()
    (form,) = inputs.forms_specs(seed)
    assert [c["J"] for c in form["components"]] == [(1,), (2,)]
    for comp in form["components"]:
        _assert_preflight(comp, inputs.FORMS_SIG, inputs.FORMS_SIG.abs(), cfg.grid2)


def test_record_classifies_refusals_and_garbage():
    op = {"kind": "annihilated", "points": 1}
    refused = worker.record(op, 3, "", "budget violation [gaussian-truncation]: x\n", 0.1)
    assert not refused["ok"] and refused["sane"] and refused["rc"] == 3
    assert refused["stderr"].startswith("budget violation")
    garbage = worker.record({"kind": "hardy", "points": 1}, 0, "nothing\n", "", 0.1)
    assert not garbage["ok"] and not garbage["sane"]
    report = ("component (): norm_in=1.0e+00 norm_out=0.0e+00 rel_change=n/a "
              "cr_residual=0.0e+00\nidempotency_gap = 0.0e+00\n")
    not_a_number = worker.record({"kind": "hardy", "points": 1}, 0, report, "", 0.1)
    assert not not_a_number["ok"] and not not_a_number["sane"]


def test_top_percentile_keeps_ten_samples_beyond():
    assert run._top_percentile([1.0] * 10) is None
    top = run._top_percentile([float(i) for i in range(40)])
    assert top["p"] == 75 and top["samples"] == 40


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER


# -- traced passes ----------------------------------------------------------


def _traced(workload: str, seed: int, path: Path, ops: int | None = None) -> dict:
    job = inputs.prepare(workload, seed, path)
    if ops is not None:
        job["ops"] = job["ops"][:ops]
    result = worker.traced_job(cli, job)
    assert result["reports_identical"]
    assert result["accounting_gap_s"] < 1e-6
    return result["layers"]


COUNTS = [name for name, (unit, _) in spans.PER_LAYER.items() if unit != "s"]

PROJECT_SPANS = [
    "kernels.axis_projector_exp.calls",
    "kernels.project_slices.calls",
    "transform.partial_ft.s",
    "transform.partial_ift.s",
    "transform.scalar_pipeline_project.calls",
    "transform.bins_projected",
    "forms.reflect_to_hat.calls",
    "forms.szego_project_form.self_s",
    "forms.cr_system_residual.s",
    "forms.apply_cr.calls",
    "fieldio.read_form.s",
    "cli.cmd_project.self_s",
]
VERIFY_ONLY = [
    "bergman.truncated_monomial_integral.calls",
    "bergman.gaussian_reproducing_check.calls",
    "phase.fio_quadrature.calls",
    "transform.frequency_pairing.s",
    "transform.szego_apply_direct.s",
    "kernels.pair_exp.s",
    "kernels.phase_quadratic.s",
]


@pytest.fixture(scope="module")
def hardy_layers():
    path = run.WORK / "test-hardy-layers"
    try:
        yield [_traced("hardy-n1", 3, path / str(i), ops=4) for i in range(2)]
    finally:
        shutil.rmtree(path, ignore_errors=True)


def test_counts_repeat_exactly(hardy_layers):
    first, second = hardy_layers
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_hardy_spans_fire_and_bypass_the_classifier(hardy_layers):
    layers = hardy_layers[0]
    for name in PROJECT_SPANS:
        assert layers[name] > 0, name
    # the annihilated input of the round projects its bins, none significant
    assert layers["transform.bins_projected"] == layers["kernels.project_slices.slices"]
    assert 0 < layers["transform.useful_bin_ratio"] < 1
    for name in VERIFY_ONLY:
        assert layers[name] == 0, name


def test_forms_spans_fire_and_bypass_the_classifier(work):
    layers = _traced("forms-n2", 3, work)
    for name in PROJECT_SPANS:
        assert layers[name] > 0, name
    assert layers["forms.reflect_to_hat.calls"] == 8  # 2 blocks x 2 ways x 2 projections
    for name in VERIFY_ONLY:
        assert layers[name] == 0, name


def test_verify_spans_fire(work):
    layers = _traced("verify-oracles", 3, work)
    for name in VERIFY_ONLY:
        assert layers[name] > 0, name
    ran = {cid.split(".")[0] for cid in inputs.VERIFY_CRITERIA}
    for i in range(14):
        cid = f"C{i:02d}"
        assert (layers[f"verification.{cid}.s"] > 0) == (cid in ran), cid
    assert layers["bergman.bergman_project.calls"] == 0  # C05 only
