"""Span recorder that wraps hszego's functions from outside the package.

Each wrapper replaces a function at the binding its callers look it up
through (a module attribute, or an entry of ``verification.CRITERIA``),
records a span with its parent, calls the original with the same arguments
and returns its result untouched.  Nothing in the package is edited, and
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from importlib import import_module

import numpy as np

from hszego import _kernels, bergman, cli, fieldio, forms, transform, verification

# the package exports a function named ``phase`` that hides the module
phase = import_module("hszego.phase")

# (owner module, attribute, span name); one span name may sit at several
# bindings of the same function
BINDINGS = (
    (cli, "cmd_project", "cli.cmd_project"),
    (cli, "read_form", "fieldio.read_form"),
    (fieldio, "read_form", "fieldio.read_form"),
    (forms, "szego_project_form", "forms.szego_project_form"),
    (forms, "reflect_to_hat", "forms.reflect_to_hat"),
    (forms, "cr_system_residual", "forms.cr_system_residual"),
    (forms, "apply_cr", "forms.apply_cr"),
    (forms, "scalar_pipeline_project", "transform.scalar_pipeline_project"),
    (transform, "scalar_pipeline_project", "transform.scalar_pipeline_project"),
    (transform, "partial_ft", "transform.partial_ft"),
    (transform, "partial_ift", "transform.partial_ift"),
    (transform, "frequency_pairing", "transform.frequency_pairing"),
    (transform, "szego_apply_direct", "transform.szego_apply_direct"),
    (_kernels, "project_slices", "kernels.project_slices"),
    (_kernels, "axis_projector_exp", "kernels.axis_projector_exp"),
    (_kernels, "pair_exp", "kernels.pair_exp"),
    (_kernels, "phase_quadratic", "kernels.phase_quadratic"),
    (bergman, "truncated_monomial_integral", "bergman.truncated_monomial_integral"),
    (bergman, "gaussian_reproducing_check", "bergman.gaussian_reproducing_check"),
    (bergman, "bergman_project", "bergman.bergman_project"),
    (verification, "fio_quadrature", "phase.fio_quadrature"),
    (cli, "fio_quadrature", "phase.fio_quadrature"),
    (phase, "fio_quadrature", "phase.fio_quadrature"),
)

PIPELINE = "transform.scalar_pipeline_project"
COUNT_SPAN = "trace.count"


def _two_arrays(args, result) -> dict:
    return {"bytes": args[0].values.nbytes + result.values.nbytes}


def _project_slices_facts(args, result) -> dict:
    slabs, nodes, lams = args[0], args[3], args[5]
    n, m, k = len(lams), nodes.size, slabs.shape[0]
    # one complex multiply-add (8 flops) per matrix entry and column of each
    # per-axis contraction: n * m^(2n+2) per slice; exponential assembly and
    # incremental stepping are not counted
    return {"slices": k, "gflop": 8.0 * k * n * m ** (2 * n + 2) / 1e9}


def _read_form_facts(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


FACTS = {
    "transform.partial_ft": _two_arrays,
    "transform.partial_ift": _two_arrays,
    "forms.reflect_to_hat": _two_arrays,
    "kernels.project_slices": _project_slices_facts,
    "fieldio.read_form": _read_form_facts,
}


class Tracer:
    """In-memory span recorder; spans of worker threads hang under the main thread's open span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[dict]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = {"parent": None if parent is None else parent["id"], "name": name, "ok": False}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span["t0"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span["ok"] = True
            facts = FACTS.get(name)
            if facts is not None:
                span.update(facts(args, result))
            if name == "transform.partial_ft":
                self._count_bins(span, result)
            return result

        return wrapper

    def _count_bins(self, span: dict, freq) -> None:
        """Occupied and budget-significant positive bins of a pipeline's forward transform."""
        parent = self.spans[span["parent"]] if span["parent"] is not None else None
        if parent is None or parent["name"] != PIPELINE:
            return
        count = self._open(COUNT_SPAN)
        try:
            energy = freq.spectral_energy()
            total = float(energy.sum())
            positive = freq.t_nodes > 0
            parent["bins_projected"] = int(
                np.count_nonzero(positive & (energy > transform.OCCUPANCY_EPS * total)))
            parent["bins_significant"] = int(
                np.count_nonzero(positive & (energy > transform.BUDGET_OCCUPANCY * total)))
        finally:
            self._close(count)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in BINDINGS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        for i, (cid, fn) in enumerate(verification.CRITERIA):
            self._patches.append((verification.CRITERIA, i, (cid, fn)))
            verification.CRITERIA[i] = (cid, self._wrap(fn, "verification." + cid.split(".")[0]))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[dict[int, float], float]:
        """Self time of every span, and the total time parallel siblings overlap.

        A span's self time is its duration minus the union of its children's
        intervals, clipped to its own.  Children running in parallel threads
        overlap; that overlap is returned so the accounting identity closes.
        """
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        own: dict[int, float] = {}
        overlap = 0.0
        for s in self.spans:
            kids = [(max(k["t0"], s["t0"]), min(k["t1"], s["t1"])) for k in children.get(s["id"], [])]
            covered = _union(kids)
            overlap += sum(max(0.0, b - a) for a, b in kids) - covered
            own[s["id"]] = (s["t1"] - s["t0"]) - covered
        return own, overlap

    def accounting_gap(self, wall: float) -> float:
        """|self times + time outside every span - parallel overlap - wall|.

        Zero up to rounding when every span nests inside its parent and the
        roots inside the traced wall; a span that leaks out of its parent
        shows up as a gap of the leaked length.
        """
        own, overlap = self.self_times()
        roots = [(s["t0"], s["t1"]) for s in self.spans if s["parent"] is None]
        covered = _union(roots)
        root_overlap = sum(b - a for a, b in roots) - covered
        return abs(sum(own.values()) + (wall - covered) - overlap - root_overlap - wall)


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "kernels.axis_projector_exp.calls": ("count", "lower"),
    "kernels.axis_projector_exp.s": ("s", "lower"),
    "kernels.project_slices.calls": ("count", "lower"),
    "kernels.project_slices.slices": ("count", "lower"),
    "kernels.project_slices.self_s": ("s", "lower"),
    "kernels.project_slices.gflop": ("GFLOP-computed", "lower"),
    "transform.partial_ft.s": ("s", "lower"),
    "transform.partial_ft.bytes": ("B-computed", "lower"),
    "transform.partial_ift.s": ("s", "lower"),
    "transform.partial_ift.bytes": ("B-computed", "lower"),
    "transform.scalar_pipeline_project.calls": ("count", "lower"),
    "transform.scalar_pipeline_project.self_s": ("s", "lower"),
    "transform.bins_projected": ("count", "lower"),
    "transform.bins_significant": ("count", "lower"),
    "transform.useful_bin_ratio": ("ratio", "higher"),
    "forms.reflect_to_hat.calls": ("count", "lower"),
    "forms.reflect_to_hat.s": ("s", "lower"),
    "forms.reflect_to_hat.bytes": ("B-computed", "lower"),
    "forms.szego_project_form.self_s": ("s", "lower"),
    "forms.cr_system_residual.s": ("s", "lower"),
    "forms.apply_cr.calls": ("count", "lower"),
    "fieldio.read_form.s": ("s", "lower"),
    "fieldio.read_form.bytes": ("B", "lower"),
    "cli.cmd_project.self_s": ("s", "lower"),
    "bergman.truncated_monomial_integral.calls": ("count", "lower"),
    "bergman.truncated_monomial_integral.s": ("s", "lower"),
    "bergman.gaussian_reproducing_check.calls": ("count", "lower"),
    "bergman.gaussian_reproducing_check.s": ("s", "lower"),
    "bergman.bergman_project.calls": ("count", "lower"),
    "bergman.bergman_project.s": ("s", "lower"),
    "phase.fio_quadrature.calls": ("count", "lower"),
    "phase.fio_quadrature.s": ("s", "lower"),
    "transform.frequency_pairing.s": ("s", "lower"),
    "transform.szego_apply_direct.s": ("s", "lower"),
    "kernels.pair_exp.s": ("s", "lower"),
    "kernels.phase_quadratic.s": ("s", "lower"),
    **{f"verification.C{i:02d}.s": ("s", "lower") for i in range(14)},
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s; layers that never ran read 0."""
    own, _ = tracer.self_times()
    agg: dict[str, dict[str, float]] = {}
    for s in tracer.spans:
        a = agg.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "bytes": 0, "slices": 0, "gflop": 0.0})
        a["calls"] += 1
        a["s"] += s["t1"] - s["t0"]
        a["self_s"] += own[s["id"]]
        for key in ("bytes", "slices", "gflop"):
            a[key] += s.get(key, 0)
    projected = sum(s.get("bins_projected", 0) for s in tracer.spans if s["ok"])
    significant = sum(s.get("bins_significant", 0) for s in tracer.spans if s["ok"])
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name == "transform.bins_projected":
            out[name] = projected
        elif name == "transform.bins_significant":
            out[name] = significant
        elif name == "transform.useful_bin_ratio":
            out[name] = significant / projected if projected else 0.0
        else:
            layer, _, field = name.rpartition(".")
            out[name] = agg.get(layer, {}).get(field, 0)
    return out
