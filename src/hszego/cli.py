"""Command line interface.

Subcommands: ``kernel-table``, ``project``, ``verify``, ``make-packet``.
Exit codes: 0 ok, 1 verification failure, 2 usage/parse error, 3 budget
violation.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import forms, transform
from .phase import PhaseChoice, fio_quadrature, szego_kernel_scalar
from .config import RunConfig
from .core import (
    BudgetError,
    DomainError,
    FormField,
    HeisenbergPoint,
    MultiIndex,
    UsageError,
    weighted_sq_sum,
)
# read_form stays bound here: perfbench/spans.py wraps cli.read_form
from .fieldio import FieldReader, FieldWriter, read_form, write_form  # noqa: F401
from .verification import run_verification, report_text


# ---------------------------------------------------------------------------
# kernel-table
# ---------------------------------------------------------------------------


def _point_headers(tag: str, n: int) -> list[str]:
    cols = []
    for j in range(1, n + 1):
        cols += [f"{tag}_re_z{j}", f"{tag}_im_z{j}"]
    cols.append(f"{tag}_last")
    return cols


def _point_cells(p: HeisenbergPoint) -> list[str]:
    cells = []
    for zj in p.z:
        cells += [f"{zj.real:.17g}", f"{zj.imag:.17g}"]
    cells.append(f"{p.x_last:.17g}")
    return cells


def cmd_kernel_table(cfg: RunConfig, out) -> int:
    sig = cfg.sig
    if sig.degenerate:
        raise UsageError("degenerate signature: the projector vanishes identically; "
                         "config key 'lambdas' has a zero entry")
    n = sig.n
    header = (
        _point_headers("x", n)
        + _point_headers("y", n)
        + ["epsilon", "re_k", "im_k", "abs_k", "route", "abs_disagreement"]
    )
    rows = [",".join(header)]

    def emit(x, y, eps):
        closed = szego_kernel_scalar(x, y, sig, PhaseChoice.MINUS, eps)
        quad = fio_quadrature(x, y, sig, PhaseChoice.MINUS, eps)
        gap = abs(closed - quad)
        base = _point_cells(x) + _point_cells(y) + [f"{eps:.17g}"]
        for val, route in ((closed, "closed-form"), (quad, "fio-quadrature")):
            rows.append(
                ",".join(
                    base
                    + [
                        f"{val.real:.17g}",
                        f"{val.imag:.17g}",
                        f"{abs(val):.17g}",
                        route,
                        f"{gap:.17g}",
                    ]
                )
            )

    for x, y in cfg.kernel_table_pairs():
        emit(x, y, cfg.epsilon)
    diag = HeisenbergPoint(tuple(0.3 + 0.2j for _ in range(n)), 0.5)
    for eps in cfg.kernel_table_diag_eps:
        emit(diag, diag, eps)
    text = "\n".join(rows) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# make-packet / project
# ---------------------------------------------------------------------------


def cmd_make_packet(cfg: RunConfig, which: str, out: str, fmt: str) -> int:
    idxs = []
    for tok in which.split(","):
        if tok.strip():
            try:
                idxs.append(int(tok))
            except ValueError:
                raise UsageError(f"--packet: {tok.strip()!r} is not a packet index") from None
    if not idxs:
        raise UsageError("--packet names no packet")
    comps = {}
    q = None
    for k in idxs:
        if not 1 <= k <= len(cfg.packets):
            raise UsageError(f"--packet: index {k} out of range 1..{len(cfg.packets)}")
        spec = cfg.packets[k - 1]
        J = MultiIndex(spec.conjugated_axes)
        if q is None:
            q = J.q
        elif J.q != q:
            raise UsageError("--packet: the selected packets belong to different degrees")
        if J in comps:
            raise UsageError(f"--packet: two selected packets share the component {J}")
        comps[J] = cfg.packet_field(k)
    form = FormField(grid=cfg.grid, q=q, components=comps)
    write_form(out, form, fmt=fmt)
    return 0


def cmd_project(cfg: RunConfig, inp: str, out: str | None, fmt: str) -> int:
    sig = cfg.sig
    with FieldReader(inp) as src, contextlib.ExitStack() as stack:
        if src.n != sig.n:
            raise UsageError(
                f"field file header 'n': input field has n={src.n} but config lambdas "
                f"have n={sig.n}"
            )
        grid, q = src.grid, src.q
        sides = {J: forms.component_side(J, sig) for J in sorted(src.keys)}
        dst = None
        if out is not None:
            # the header lists the components the projector keeps; the file
            # appears at ``out`` only once each is written
            kept = [J for J, side in sides.items() if side is not None]
            dst = stack.enter_context(FieldWriter(out, grid, sig.n, q, kept, fmt))
        reason = forms.vanishing_reason(q, sig)
        lines = ["# projection report"]
        if reason is not None:
            lines.append(f"# structural zero: {reason}")
        gap_sq = norm_sq = 0.0
        window = None
        # one component in memory at a time: read, projected in its own
        # buffer, reported, written and dropped before the next is read
        for J, side in sides.items():
            u = src.read(J)
            pu = None
            if side is None:
                # a component the projector drops changes by all of itself
                nin = math.sqrt(weighted_sq_sum(u, grid.field_weight_array(sig.n)))
                if not math.isfinite(nin):
                    raise UsageError(f"component {J}: the sum of |u|^2 is not finite")
                nout = res = 0.0
                rel = 1.0
            else:
                # every number of the line comes from the projected bins of
                # this one pass, by Parseval; Pu is made in space, over u,
                # only to be written
                pu, in_j, norm_j, change_j, cr_j, gap_j, window_j = transform._pipeline(
                    grid, u, sig, side, report=True, want_pu=dst is not None
                )
                gap_sq += gap_j
                norm_sq += norm_j
                window = window or window_j
                c = grid.freq_step / (2.0 * math.pi)
                nin, nout, res = (math.sqrt(c * s) for s in (in_j, norm_j, cr_j))
                rel = math.sqrt(c * change_j) / nin if nin > 0 else 1.0
            change = f"{rel:.6e}" if nin > 0 else "n/a"
            lines.append(
                f"component {J}: norm_in={nin:.6e} norm_out={nout:.6e} "
                f"rel_change={change} cr_residual={res:.6e}"
            )
            if pu is not None:
                dst.write(pu.values)
            del u, pu
        if window is not None:
            t_floor, t_ceiling = window
            lines.append(
                "# idempotency_gap measured on bins of Pu outside the budget window "
                f"[t_floor, t_ceiling] = [{t_floor:.6g}, {t_ceiling:.6g}]"
            )
        gap = math.sqrt(gap_sq) / math.sqrt(norm_sq) if norm_sq > 0 else 0.0
        lines.append(f"idempotency_gap = {gap:.6e}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig, out: str | None, jobs: int, criteria) -> int:
    if jobs < 0:
        raise UsageError(f"--jobs must be >= 0 (0 = one worker per core), got {jobs}")
    include = None
    if criteria is not None:
        include = [tok.strip() for tok in criteria.split(",") if tok.strip()]
    results = run_verification(cfg, include, jobs)
    if include is not None and not results:
        raise UsageError("--criteria names no criterion")
    text = report_text(results, cfg)
    sys.stdout.write(text)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose refusal names the argument on its first line, as every
    other refusal of the CLI does, with the usage after it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _require_paths(config: str | None, inp: str | None, out: str | None) -> None:
    """Refuse a ``--config`` or an ``--in`` that is not a file, and an ``--out``
    that names no file or lies in no directory, before anything is read or
    computed."""
    for flag, path in (("--config", config), ("--in", inp)):
        if path is not None and not os.path.isfile(path):
            raise UsageError(f"{flag} {path!r} is not a file")
    if out is None:
        return
    if not os.path.basename(out) or os.path.isdir(out):
        raise UsageError(f"--out {out!r} names no file: it is empty or a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"--out {out!r}: {os.path.dirname(out)!r} is not a directory")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hszego",
        description="Szego projections on the Heisenberg group: kernels, pipeline, verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    kt = sub.add_parser("kernel-table", help="tabulate the closed-form and FIO kernels")
    kt.add_argument("--config", default=None)
    kt.add_argument("--out", default=None)

    mp = sub.add_parser("make-packet", help="synthesize wave packets into a field file")
    mp.add_argument("--config", default=None)
    mp.add_argument("--packet", default="1", help="comma list of packet indices (1-based)")
    mp.add_argument("--out", required=True)
    mp.add_argument("--format", choices=("csv", "binary"), default="binary")

    pr = sub.add_parser("project", help="apply the degree-q projector to a field file")
    pr.add_argument("--config", default=None)
    pr.add_argument("--in", dest="inp", required=True)
    pr.add_argument("--out", default=None)
    pr.add_argument("--format", choices=("csv", "binary"), default="binary")

    vf = sub.add_parser("verify", help="run the verification suite")
    vf.add_argument("--config", default=None)
    vf.add_argument("--out", default=None)
    vf.add_argument("--jobs", type=int, default=0, help="criteria run at once; 0 = one per core")
    vf.add_argument("--criteria", default=None, help="comma list of criterion ids")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _require_paths(args.config, getattr(args, "inp", None), args.out)
        cfg = RunConfig() if args.config is None else RunConfig.from_path(args.config)
        if args.command == "kernel-table":
            return cmd_kernel_table(cfg, args.out)
        if args.command == "make-packet":
            return cmd_make_packet(cfg, args.packet, args.out, args.format)
        if args.command == "project":
            return cmd_project(cfg, args.inp, args.out, args.format)
        return cmd_verify(cfg, args.out, args.jobs, args.criteria)
    except BudgetError as exc:
        print(f"budget violation [{exc.budget_name}]: {exc}", file=sys.stderr)
        return 3
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the size rule admits grids that still do not fit in memory
        print("error: out of memory for this grid: lower grid.spatial_points or "
              "grid.vertical_points", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
