"""The repository benchmark: ``hszego`` driven through its CLI entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload hardy-n1 --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``hardy-n1``       ``hszego project`` on a seeded stream of n=1 packets;
* ``forms-n2``       ``hszego project`` on a seeded n=2 mixed-signature q=1 form;
* ``verify-oracles`` ``hszego verify --jobs 1`` on the criteria no project
  workload covers (classifier, reproducing identity, dense oracles).

Set-up (input generation plus starting a worker process that imports the
package) is repeated ``SETUP_REPEATS`` times and reported as a median.  The
last worker then runs the operations: with ``--trace 0`` a timed closed loop
that yields the end-to-end metrics, with ``--trace 1`` an untraced and a
traced pass that yield the per-layer metrics.  The last line of standard
output is the JSON result; the line before it is the detailed record (every
operation, the environment, percentiles).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: one BLAS/OpenMP thread in this process and the worker it starts (set
#: before numpy is first imported).  Two OpenBLAS threads on the 2-vCPU
#: machine ran a hardy-n1 call 2.2x slower while one other process kept one
#: core busy; one thread ran it at its idle speed.  scipy.fft's workers=-1
#: still follows os.cpu_count().
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

SETUP_REPEATS = 5
#: a run must end within 180 s; the worker is killed at this deadline
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "mpts_per_s": "Mpts/s",
    "call_s.p50": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "max_rel_err": "rel",
}


class BenchError(RuntimeError):
    pass


def _source_identity() -> dict:
    """Git commit when the tree is a git checkout, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hszego").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _start_worker(job_path: Path) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC), str(job_path)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.stdout.readline().strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc


def _flush(work: Path) -> None:
    """Write the input files through to disk, so no writeback runs during the timed loop."""
    for path in work.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    import inputs

    start = time.perf_counter()
    work = WORK / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    setup_times = []
    proc = None
    try:
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            job = inputs.prepare(workload, seed, work)
            job.update(seconds=seconds, trace=trace, result=str(work / "result.json"))
            job_path = work / "job.json"
            job_path.write_text(json.dumps(job), encoding="utf-8")
            proc = _start_worker(job_path)
            setup_times.append(time.perf_counter() - t0)
            if rep < SETUP_REPEATS - 1:
                proc.communicate("quit\n", timeout=30)
        _flush(work)
        remaining = DEADLINE_S - (time.perf_counter() - start)
        proc.communicate("go\n", timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {proc.returncode}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        field_bytes = sorted({Path(a).stat().st_size for op in job["ops"]
                              for a in op["argv"] if a.endswith(".field")})
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    finally:
        if proc is not None:
            _stop(proc)
        shutil.rmtree(work, ignore_errors=True)
    result["env"].update(_source_identity(), seed=seed, field_bytes=field_bytes)
    result["setup_s"] = setup_times
    return summarize(result, trace)


def _top_percentile(times: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    best = None
    for p in range(50, 100):
        k = math.ceil(p / 100 * n)
        if n - k >= 10:
            value = ordered[k - 1]
            best = {"p": p, "value": value if math.isfinite(value) else None, "samples": n}
    return best


def summarize(result: dict, trace: bool) -> tuple[dict, dict]:
    records = result["records"]
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    correct = all(r["sane"] for r in records)
    detail = {
        "env": result["env"],
        "setup_s": result["setup_s"],
        "worker_cpu": result["cpu_s"],
        "failures": [{"kind": r["kind"], "rc": r["rc"], "stderr": r["stderr"]}
                     for r in records if not r["ok"]],
        "ops": [{k: r.get(k) for k in ("kind", "rc", "seconds", "rel_err")} for r in records],
    }
    if trace:
        correct = correct and result["reports_identical"] and result["accounting_gap_s"] < 1e-6
        detail.update(walls_s=result["walls_s"], reports_identical=result["reports_identical"],
                      accounting_gap_s=result["accounting_gap_s"], spans=result["spans"])
        units = _per_layer_units()
        metrics = {name: result["layers"][name] for name in units}
    else:
        times = [r["seconds"] if r["ok"] else math.inf for r in records]
        errs = [r["rel_err"] for r in records if r["ok"]]
        p50 = statistics.median(times)
        metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "mpts_per_s": sum(r["points"] for r in records if r["ok"]) / result["wall"] / 1e6,
            # a median of failures has no finite value; report it as 1e9 s
            "call_s.p50": p50 if math.isfinite(p50) else 1e9,
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": (attempted - failed) / attempted,
            "max_rel_err": max(errs) if errs else 1.0,
        }
        units = END_TO_END
        detail.update(wall_s=result["wall"], call_s_top=_top_percentile(times))
    line = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return line, detail


def _per_layer_units() -> dict:
    from spans import PER_LAYER

    return {name: unit for name, (unit, _) in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "hszego" / "cli.py").is_file():
        print(f"error: package source {SRC / 'hszego'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    try:
        line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
