"""Seeded inputs of the benchmark workloads.

Every input is a function of the workload name and the ``--seed`` argument
only; the program under test receives the generated field files and config
files, never the seed.  ``prepare`` writes them into a work directory and
returns the job description the worker runs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from hszego import FormField, LambdaSignature, MultiIndex, transform
from hszego.config import RunConfig
from hszego.fieldio import write_form

WORKLOADS = ("hardy-n1", "forms-n2", "verify-oracles")

#: hardy-n1 inputs come in rounds of four slots; a timed run stops only at
#: the end of a round, so the annihilated share of every run is exactly 1/4
HARDY_SLOTS = ("low", "mid", "ceiling", "annihilated")
HARDY_ROUNDS = 2
HARDY_ORDER = 6
HARDY_MIN_WIDTH = 2.2
#: just above the truncation floor (0.7196 on the default grid)
HARDY_T_LOW_MIN = 0.72
#: the ceiling slot is the narrowest allowed envelope ending just below the
#: resolution ceiling (6.858 on the default grid), where the reproduction
#: error peaks (~1.6e-3, over the 1e-3 Hardy budget); the mid slot ends
#: below MID_T_HIGH, so every run's largest error comes from a ceiling slot
#: and stays steady from seed to seed
CEILING_T_HIGH = (6.58, 6.62)
MID_T_HIGH = 6.2

FORMS_SIG = LambdaSignature((-1.0, 1.0))
FORMS_ORDER = 6
#: per component, the (t_low, t_high) ranges.  Order-6 envelopes keep the
#: wrap-around share under the 1e-8 wrap budget on grid2 only from t_low
#: <= 0.97 to t_high >= 2.1; the resolution ceiling is 2.239.  The
#: minus-block component ends nearer the ceiling, where the reproduction
#: error peaks, so each run's largest error comes from it and stays steady
#: from seed to seed.
FORMS_BANDS = {(1,): ((0.95, 0.97), (2.15, 2.17)), (2,): ((0.95, 0.97), (2.10, 2.12))}

#: the acceptance criteria whose code no project workload runs: the
#: classifier (C11), the Gaussian reproducing identity (C04), the dense
#: pairing and direct-kernel oracles (C09), the closed-form kernel checks
#: and the report determinism check.  C05, C07, C08, C10 and C12 spend their
#: time in the slice projector, the pipeline and the form layers that
#: hardy-n1 and forms-n2 already time.
VERIFY_CRITERIA = (
    "C00.preflight",
    "C01.gamma",
    "C02.fio",
    "C03.phase",
    "C04.reproducing",
    "C06.parseval",
    "C09.routes",
    "C11.vanish",
    "C13.determinism",
)
#: result lines the subset prints (C03, C09 and C11 report several)
VERIFY_RESULT_LINES = 14

_STREAM_TAG = {name: i for i, name in enumerate(WORKLOADS)}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM_TAG[workload], seed % 2**64])


def _points(grid, n: int) -> int:
    return math.prod(grid.field_shape(n))


def hardy_specs(seed: int) -> list[dict]:
    """Packet recipes of the hardy-n1 stream: order-6 q=0 packets, lambda=(1,)."""
    rng = _rng("hardy-n1", seed)
    lo = HARDY_T_LOW_MIN
    out = []
    for _ in range(HARDY_ROUNDS):
        for slot in HARDY_SLOTS:
            width = rng.uniform(HARDY_MIN_WIDTH, 3.2)
            if slot == "low":
                t_low = rng.uniform(lo, 1.6)
            elif slot == "mid":
                t_low = rng.uniform(1.6, MID_T_HIGH - width)
            elif slot == "ceiling":
                width = HARDY_MIN_WIDTH
                t_low = rng.uniform(*CEILING_T_HIGH) - width
            else:
                t_low = rng.uniform(lo, CEILING_T_HIGH[1] - width)
            sign = -1 if slot == "annihilated" else 1
            out.append(
                {
                    "slot": slot,
                    "alpha": (int(rng.integers(0, 4)),),
                    "t_low": float(t_low),
                    "t_high": float(t_low + width),
                    "conjugated_axes": (1,) if sign < 0 else (),
                    "vertical_sign": sign,
                    "order": HARDY_ORDER,
                }
            )
    return out


def forms_specs(seed: int) -> list[dict]:
    """One q=1 form for lambda=(-1, 1): J=(1,) on the minus block, J=(2,) on the plus block."""
    rng = _rng("forms-n2", seed)
    comps = []
    for J, sign in (((1,), 1), ((2,), -1)):
        t_low, t_high = FORMS_BANDS[J]
        comps.append(
            {
                "J": J,
                "alpha": (int(rng.integers(0, 2)), int(rng.integers(0, 2))),
                "t_low": float(rng.uniform(*t_low)),
                "t_high": float(rng.uniform(*t_high)),
                "conjugated_axes": J,
                "vertical_sign": sign,
                "order": FORMS_ORDER,
            }
        )
    return [{"slot": "form", "components": comps}]


def packet_spec(d: dict) -> transform.WavePacketSpec:
    return transform.WavePacketSpec(
        alpha=d["alpha"],
        t_low=d["t_low"],
        t_high=d["t_high"],
        conjugated_axes=d["conjugated_axes"],
        order=d["order"],
        vertical_sign=d["vertical_sign"],
    )


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return the job description.

    Each op is ``{"argv", "kind", "points"}``: ``argv`` goes to
    ``hszego.cli.main``, ``kind`` selects the output check, ``points`` counts
    the input field points the op consumes.  ``group`` is the number of ops a
    timed loop completes before it may stop; ``warmup`` lists the ops the
    worker runs untimed before measuring.
    """
    work.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig()
    ops: list[dict] = []
    if workload == "hardy-n1":
        sig = cfg.sig
        for i, spec in enumerate(hardy_specs(seed)):
            u = transform.make_wave_packet(packet_spec(spec), sig, cfg.grid)
            path = work / f"hardy-{i:02d}.field"
            write_form(path, FormField(grid=cfg.grid, q=0, components={MultiIndex(()): u}), n=1)
            kind = "annihilated" if spec["slot"] == "annihilated" else "hardy"
            ops.append({"argv": ["project", "--in", str(path)], "kind": kind,
                        "points": _points(cfg.grid, 1)})
        # a fresh worker's first few calls run slow; one untimed round absorbs that
        warmup = [op["argv"] for op in ops[: len(HARDY_SLOTS)]]
        return {"ops": ops, "group": len(HARDY_SLOTS), "warmup": warmup}
    if workload == "forms-n2":
        conf = work / "forms-n2.cfg"
        conf.write_text("lambdas = -1.0, 1.0\n", encoding="utf-8")
        for i, spec in enumerate(forms_specs(seed)):
            comps = {
                MultiIndex(c["J"]): transform.make_wave_packet(packet_spec(c), FORMS_SIG, cfg.grid2)
                for c in spec["components"]
            }
            path = work / f"form-{i:02d}.field"
            write_form(path, FormField(grid=cfg.grid2, q=1, components=comps), n=2)
            del comps
            ops.append({"argv": ["project", "--config", str(conf), "--in", str(path)],
                        "kind": "form", "points": len(spec["components"]) * _points(cfg.grid2, 2)})
        return {"ops": ops, "group": 1, "warmup": []}
    if workload == "verify-oracles":
        # the gate's inputs are its pinned default config and seed; the
        # benchmark seed does not reach them.  Its input points are counted
        # as the default grid's, so mpts_per_s moves exactly as 1/call_s.
        argv = ["verify", "--jobs", "1", "--criteria", ",".join(VERIFY_CRITERIA)]
        ops.append({"argv": argv, "kind": "verify", "points": _points(cfg.grid, 1),
                    "lines": VERIFY_RESULT_LINES})
        return {"ops": ops, "group": 1,
                "warmup": [["verify", "--jobs", "1", "--criteria", "C00.preflight"]]}
    raise ValueError(f"unknown workload {workload!r}")
