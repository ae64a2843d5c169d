"""Benchmark worker: one fresh process per run, so its peak RSS is the workload's.

Usage: python3 worker.py SRC_DIR JOB_JSON

Imports hszego from SRC_DIR, prints ``ready`` and waits for ``go`` (or
``quit``) on stdin.  On ``go`` it runs the job's operations one after
another, in-process, through ``hszego.cli.main`` (a closed loop with a single
client) and writes a JSON result to the job's ``result`` path.

Both kinds of job first run the job's warm-up ops, untimed.  Untraced jobs
then loop over the inputs in groups of ``group`` operations for at most
``seconds`` (the first group always runs).  Traced jobs run every input once
untraced and once traced, back to back; the two runs of an input must print
identical reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import resource
import sys
import time

#: an output this far from the exact answer is wrong, not imprecise.  The
#: documented precision (near-ceiling packets reach ~1.6e-3 against the
#: 1e-3 Hardy budget) is tracked by max_rel_err, not here.
SANITY_REL = 1e-2

_COMPONENT = re.compile(
    r"^component (\S+): norm_in=(\S+) norm_out=(\S+) rel_change=(\S+) cr_residual=(\S+)$"
)
_GAP = re.compile(r"^idempotency_gap = (\S+)$")
_CRITERION = re.compile(r"^(C\d\d\w?\.\S+)\s+\S+\s+measured=(\S+) budget=(\S+) cmp=(\S+) (PASS|FAIL)")
_OVERALL = re.compile(r"^# overall: (PASS|FAIL) (\d+)/(\d+)$")


def run_op(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """Call ``cli.main(argv)``; return exit code, stdout, stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed operation, not a dead benchmark
        rc = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def check_project(kind: str, text: str) -> dict:
    """Parse a ``project`` report; ``rel_err`` is the distance from the exact answer."""
    comps = []
    gap = None
    try:
        for line in text.splitlines():
            if m := _COMPONENT.match(line):
                comps.append(tuple(float(v) for v in m.group(2, 3, 4)))
            elif m := _GAP.match(line):
                gap = float(m.group(1))
    except ValueError:  # a field that is not a number, such as rel_change=n/a
        return {"parsed": False}
    want = 2 if kind == "form" else 1
    if len(comps) != want or gap is None:
        return {"parsed": False}
    if kind == "annihilated":
        rel = max(nout / nin for nin, nout, _ in comps)
        sane = rel <= SANITY_REL
    else:
        rel = max(change for _, _, change in comps)
        sane = rel <= SANITY_REL and gap <= SANITY_REL
    return {"parsed": True, "rel_err": rel, "sane": sane}


def check_verify(text: str, lines: int) -> dict:
    """Parse a verify report; ``rel_err`` is the largest measured error with a nonzero budget."""
    rows = []
    overall = None
    try:
        for line in text.splitlines():
            if m := _CRITERION.match(line):
                rows.append((float(m.group(2)), float(m.group(3)), m.group(4), m.group(5)))
            elif m := _OVERALL.match(line):
                overall = m.group(1)
    except ValueError:
        return {"parsed": False}
    if len(rows) != lines or overall is None:
        return {"parsed": False}
    errors = [meas for meas, budget, cmp, _ in rows if cmp == "<=" and budget > 0]
    passed = overall == "PASS" and all(status == "PASS" for *_, status in rows)
    return {"parsed": True, "rel_err": max(errors), "passed": passed, "sane": True}


def record(op: dict, rc, out: str, err: str, seconds: float) -> dict:
    """One operation's outcome: ``ok`` (succeeded) and ``sane`` (output not wrong)."""
    rec = {"kind": op["kind"], "rc": rc, "seconds": seconds, "points": op["points"]}
    facts = {"parsed": False}
    if rc == 0 or op["kind"] == "verify":
        if op["kind"] == "verify":
            facts = check_verify(out, op["lines"])
        else:
            facts = check_project(op["kind"], out)
    rec["ok"] = rc == 0 and facts["parsed"] and facts.get("passed", True)
    # a refusal with an exit code is a counted failure, not a wrong output;
    # an exit-0 report that cannot be parsed is both
    rec["sane"] = facts.get("sane", rc != 0)
    if facts["parsed"]:
        rec["rel_err"] = facts["rel_err"]
    if not rec["ok"]:
        lines = err.strip().splitlines()
        rec["stderr"] = lines[0] if lines else ""
    return rec


def timed_loop(cli, ops: list[dict], seconds: float, group: int) -> tuple[list[dict], float]:
    """Run groups of ``group`` ops until the next group would end past ``seconds``.

    The first group always runs; later groups are predicted to take as long
    as the one before.
    """
    records = []
    start = time.perf_counter()
    group_start = 0.0
    i = 0
    while True:
        op = ops[i % len(ops)]
        records.append(record(op, *run_op(cli, op["argv"])))
        i += 1
        if i % group == 0:
            elapsed = time.perf_counter() - start
            if elapsed + (elapsed - group_start) > seconds:
                return records, elapsed
            group_start = elapsed


def traced_job(cli, job: dict) -> dict:
    """Run each input untraced, then traced, back to back; compare their reports."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    records = []
    identical = True
    plain_wall = traced_wall = 0.0
    for op in job["ops"]:
        rc, out, err, dt = run_op(cli, op["argv"])
        records.append(record(op, rc, out, err, dt))
        plain_wall += dt
        tracer.install()
        try:
            t_rc, t_out, t_err, t_dt = run_op(cli, op["argv"])
        finally:
            tracer.uninstall()
        records.append(record(op, t_rc, t_out, t_err, t_dt))
        traced_wall += t_dt
        identical = identical and (rc, out) == (t_rc, t_out)
    layers = layer_metrics(tracer)
    layers["trace.overhead_s"] = traced_wall - plain_wall
    return {
        "records": records,
        "layers": layers,
        "walls_s": {"untraced": plain_wall, "traced": traced_wall},
        "reports_identical": identical,
        "accounting_gap_s": tracer.accounting_gap(traced_wall),
        "spans": len(tracer.spans),
    }


def environment(hszego) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": hszego._kernels.active_backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "fft_workers": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str]) -> int:
    src, job_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, src)
    import hszego
    from hszego import cli

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    warmup = job["warmup"]
    if job["trace"] and not warmup:
        # a traced run compares two runs of each op, so the process's
        # first-op costs must be paid before the first of them
        warmup = [job["ops"][0]["argv"]]
    for argv in warmup:
        run_op(cli, argv)
    if job["trace"]:
        result = traced_job(cli, job)
    else:
        records, wall = timed_loop(cli, job["ops"], job["seconds"], job["group"])
        result = {"records": records, "wall": wall}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = {"user": usage.ru_utime, "sys": usage.ru_stime,
                       "major_faults": usage.ru_majflt, "minor_faults": usage.ru_minflt}
    result["env"] = environment(hszego)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
