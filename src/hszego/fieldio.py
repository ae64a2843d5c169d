"""Field file I/O.

A field file is a self-describing text header (flat ``key = value`` lines)
followed by the payload.  Binary payload: little-endian float64 (re, im)
pairs in C row-major order, component-major, bit-exact for fixtures.  CSV
payload: one ``component,flat_index,re,im`` row per value with %.17g floats
(lossless for float64), for small human-inspectable grids.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .core import FormField, GridSpec, MultiIndex, ScalarField, UsageError

__all__ = ["write_form", "read_form", "FORMAT_NAME"]

FORMAT_NAME = "hszego-field-v1"


def _decode_multiindex(text: str) -> MultiIndex:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise UsageError(f"bad multi-index {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return MultiIndex(())
    return MultiIndex(tuple(int(v) for v in inner.split(",")))


def _header_lines(form: FormField, n: int, payload: str) -> list[str]:
    keys = [J for J, _ in form.iter_components()]
    return [
        f"format = {FORMAT_NAME}",
        f"n = {n}",
        f"q = {form.q}",
        f"components = {';'.join(str(J) for J in keys)}",
        *form.grid.text_lines("grid"),
        f"data = {payload}",
    ]


def write_form(path, form: FormField, fmt: str = "binary", n: int | None = None) -> None:
    """Write a FormField; ``n`` is required for empty (zero) forms."""
    if fmt not in ("binary", "csv"):
        raise UsageError("format must be 'binary' or 'csv'")
    if n is None:
        if not form.components:
            raise UsageError("writing an empty form requires the dimension n")
        n = form.n
    header = "\n".join(_header_lines(form, n, fmt)) + "\n"
    keys = [J for J, _ in form.iter_components()]
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(header.encode("utf-8"))
            for J in keys:
                arr = np.ascontiguousarray(form.components[J].values, dtype="<c16")
                fh.write(arr.tobytes())
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for ci, J in enumerate(keys):
            flat = form.components[J].values.reshape(-1)
            for idx in range(flat.size):
                v = flat[idx]
                fh.write(f"{ci},{idx},{v.real:.17g},{v.imag:.17g}\n")


def _parse_header(lines: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in lines:
        if "=" not in line:
            raise UsageError(f"malformed header line {line!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _header_value(hdr: dict[str, str], key: str, conv):
    if key not in hdr:
        raise UsageError(f"field file header lacks the {key!r} line")
    try:
        return conv(hdr[key])
    except ValueError as exc:
        raise UsageError(f"field file header {key!r}: {exc}") from None


def _decode_components(text: str, n: int, q: int) -> list[MultiIndex]:
    keys = [_decode_multiindex(tok) for tok in text.split(";") if tok.strip()]
    for J in keys:
        J.validate_bound(n)
        if J.q != q:
            raise ValueError(f"component {J} has length {J.q}, expected q={q}")
    if len(set(keys)) != len(keys):
        raise ValueError("a component is listed twice")
    return keys


def _read_csv_rows(text: str, first_line: int, count: int, arrays: list[np.ndarray]) -> None:
    """Fill ``arrays`` from ``component,flat_index,re,im`` rows, each exactly once."""
    seen = [np.zeros(count, dtype=bool) for _ in arrays]
    rows = 0
    for lineno, line in enumerate(io.StringIO(text), start=first_line):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 4:
            raise UsageError(
                f"line {lineno}: expected 4 fields component,flat_index,re,im, got {len(cells)}"
            )
        try:
            ci, idx = int(cells[0]), int(cells[1])
            value = complex(float(cells[2]), float(cells[3]))
        except ValueError:
            raise UsageError(f"line {lineno}: malformed number in {line!r}") from None
        if not 0 <= ci < len(arrays):
            raise UsageError(
                f"line {lineno}: component index {ci} out of range 0..{len(arrays) - 1}"
            )
        if not 0 <= idx < count:
            raise UsageError(f"line {lineno}: flat index {idx} out of range 0..{count - 1}")
        if seen[ci][idx]:
            raise UsageError(f"line {lineno}: duplicate row for component {ci}, index {idx}")
        seen[ci][idx] = True
        arrays[ci][idx] = value
        rows += 1
    if rows != len(arrays) * count:
        raise UsageError(
            f"csv payload has {rows} rows, expected {len(arrays) * count} "
            f"({len(arrays)} components x {count} points)"
        )


def read_form(path) -> FormField:
    """Read a field file written by :func:`write_form`.

    A binary payload is read straight into one aligned array per component,
    so the file's bytes are never held a second time.
    """
    with open(path, "rb") as fh:
        # header ends at the newline after the 'data = ...' line
        head = []
        while not head or b"data = " not in head[-1]:
            line = fh.readline()
            if not line:
                raise UsageError("not a field file: missing 'data =' line")
            head.append(line)
        hdr = _parse_header(b"".join(head).decode("utf-8").splitlines())
        if hdr.get("format") != FORMAT_NAME:
            raise UsageError(f"unsupported format {hdr.get('format')!r}")
        grid_keys = [(f"grid.{name}", name, conv) for name, conv in GridSpec.TEXT_KEYS]
        known = {"format", "n", "q", "components", "data", *(key for key, _, _ in grid_keys)}
        for key in hdr:
            if key not in known:
                raise UsageError(f"field file header has unknown key {key!r}")
        n = _header_value(hdr, "n", int)
        if n < 1:
            raise UsageError(f"field file header 'n': dimension {n} is not >= 1")
        q = _header_value(hdr, "q", int)
        if not 0 <= q <= n:
            raise UsageError(f"field file header 'q': degree {q} out of range 0..{n}")
        keys = _header_value(hdr, "components", lambda text: _decode_components(text, n, q))
        grid = GridSpec(**{name: _header_value(hdr, key, conv) for key, name, conv in grid_keys})
        shape = grid.field_shape(n)
        count = int(np.prod(shape))
        comps: dict[MultiIndex, ScalarField] = {}
        mode = hdr["data"]
        if mode == "binary":
            need = count * 16 * len(keys)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != need:
                raise UsageError(f"payload size {size} != expected {need}")
            for J in keys:
                arr = np.empty(shape, dtype="<c16")
                fh.readinto(arr)
                comps[J] = ScalarField(grid=grid, values=arr)
        elif mode == "csv":
            arrays = [np.zeros(count, dtype=complex) for _ in keys]
            # payload rows are numbered as lines of the whole file
            text = fh.read().decode("utf-8")
            _read_csv_rows(text, len(head) + 1, count, arrays)
            for ci, J in enumerate(keys):
                comps[J] = ScalarField(grid=grid, values=arrays[ci].reshape(shape))
        else:
            raise UsageError(f"unknown payload mode {mode!r}")
    return FormField(grid=grid, q=q, components=comps)
