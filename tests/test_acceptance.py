"""Acceptance gate: every verification criterion at its stated budget.

The suite runs once (module-scoped); each test prints its criterion's
pass/fail line and asserts it.  The same criteria back ``hszego verify``.
"""

import math

import numpy as np
import pytest

from hszego import transform
from hszego.config import RunConfig
from hszego.verification import report_text, run_verification

EXPECTED_IDS = [
    "C00.preflight",
    "C01.gamma",
    "C02.fio",
    "C03a.phase",
    "C03b.phase",
    "C03c.phase",
    "C04.reproducing",
    "C05a.slice",
    "C05b.slice",
    "C05c.slice",
    "C05d.slice",
    "C06.parseval",
    "C07a.hardy",
    "C07b.hardy",
    "C08a.algebra",
    "C08b.algebra",
    "C08c.algebra",
    "C08d.algebra",
    "C09a.routes",
    "C09b.routes",
    "C10a.forms",
    "C10b.forms",
    "C10c.forms",
    "C10d.forms",
    "C11a.vanish",
    "C11b.vanish",
    "C11c.vanish",
    "C12a.residual",
    "C12b.residual",
    "C12c.residual",
    "C13.determinism",
]

_CACHE = {}


@pytest.fixture(scope="module")
def results():
    if "res" not in _CACHE:
        cfg = RunConfig()
        res = run_verification(cfg, None, 1)
        _CACHE["res"] = {r.cid: r for r in res}
    return _CACHE["res"]


def test_all_criteria_present(results):
    assert sorted(results) == sorted(EXPECTED_IDS)


# the gate's own numerics, and those of the phase, slice, projector,
# pipeline and residual code, must not move when that code is made cheaper
# or simpler (C06, C08b, C08d and C09a sit at roundoff and are not pinned)
PINNED = {
    "C03a.phase": "0.000000000000e+00",
    "C03b.phase": "0.000000000000e+00",
    "C03c.phase": "4.841008116444e-03",
    "C04.reproducing": "3.852060145716e-11",
    "C05a.slice": "1.839681304238e-05",
    "C05b.slice": "6.357482207287e-05",
    "C05c.slice": "0.000000000000e+00",
    "C05d.slice": "1.839286337333e-05",
    "C07a.hardy": "2.761042739047e-05",
    "C07b.hardy": "8.429403363462e-06",
    "C08a.algebra": "4.935976686926e-04",
    "C08c.algebra": "1.307681900862e-03",
    "C09b.routes": "2.001257550100e-03",
    "C10a.forms": "8.813025105590e-04",
    "C10b.forms": "0.000000000000e+00",
    "C10c.forms": "6.897037835844e-04",
    "C10d.forms": "6.897037835844e-04",
    "C11b.vanish": "2.500000000000e+03",
    "C11c.vanish": "2.029059667534e-13",
    "C12a.residual": "3.551788166536e+00",
    "C12b.residual": "3.551630467054e+00",
    "C12c.residual": "7.162007574449e+04",
}


def test_gate_numerics_pinned(results):
    assert {cid: f"{results[cid].measured:.12e}" for cid in PINNED} == PINNED
    assert results["C11a.vanish"].measured == 0.0


@pytest.mark.parametrize("cid", EXPECTED_IDS)
def test_criterion(results, cid, capsys):
    r = results[cid]
    status = "PASS" if r.passed else "FAIL"
    with capsys.disabled():
        print(
            f"\n{r.cid:<16} {r.name:<38} measured={r.measured:.6e} "
            f"budget={r.budget:.6e} cmp={r.cmp} {status}"
        )
    assert r.passed, (
        f"{r.cid} {r.name}: measured {r.measured:.6e} vs budget "
        f"{r.budget:.6e} ({r.cmp}) {r.detail}"
    )


def test_sector_criterion_on_threads_matches_the_serial_gate(results):
    # C05 projects n = 2 slices in sector coordinates, each call in working
    # slices of its own, while C08 runs its pipelines: side by side on two
    # threads they measure exactly what the serial gate measured
    threaded = run_verification(RunConfig(), ["C05", "C08"], 2)
    assert [r.cid for r in threaded] == [c for c in EXPECTED_IDS if c[:3] in ("C05", "C08")]
    for r in threaded:
        assert (r.measured, r.passed) == (results[r.cid].measured, results[r.cid].passed), r.cid


def test_a_nan_after_finite_values_fails_its_line(monkeypatch):
    # the first of C06's transforms carries one NaN bin; the later, finite
    # ones must not hide it: the line measures NaN and fails
    forward = transform.partial_ft
    calls = []

    def one_nan_bin(u):
        f = forward(u)
        calls.append(u.n)
        if len(calls) > 1:
            return f
        values = f.values.copy()
        values.flat[0] = math.nan
        return transform.FrequencyField(grid=f.grid, values=values)

    monkeypatch.setattr(transform, "partial_ft", one_nan_bin)
    (r,) = run_verification(RunConfig(), ["C06"], 1)
    assert len(calls) == 20 and np.isnan(r.measured) and not r.passed
    line = report_text([r], RunConfig()).splitlines()[2]
    assert "measured=nan " in line and line.endswith(" FAIL")
