"""Field file I/O.

A field file is a self-describing text header (flat ``key = value`` lines)
followed by the payload.  Binary payload: little-endian float64 (re, im)
pairs in C row-major order, component-major, bit-exact for fixtures.  CSV
payload: one ``component,flat_index,re,im`` row per value with %.17g floats
(lossless for float64), for small human-inspectable grids.
"""

from __future__ import annotations

import io
import math
import os
import secrets

import numpy as np

from .config import parse_flat_config
from .core import FormField, GridSpec, MultiIndex, ScalarField, UsageError

__all__ = ["FieldReader", "FieldWriter", "write_form", "read_form", "FORMAT_NAME"]

FORMAT_NAME = "hszego-field-v1"


def _decode_multiindex(text: str) -> MultiIndex:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise UsageError(f"bad multi-index {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return MultiIndex(())
    return MultiIndex(tuple(int(v) for v in inner.split(",")))


def _header_lines(grid: GridSpec, n: int, q: int, keys: list, payload: str) -> list[str]:
    return [
        f"format = {FORMAT_NAME}",
        f"n = {n}",
        f"q = {q}",
        f"components = {';'.join(str(J) for J in keys)}",
        *grid.text_lines("grid"),
        f"data = {payload}",
    ]


class FieldWriter:
    """A field file written one component at a time, in the order of ``keys``.

    The header is written when the writer opens, into a temporary file in
    the directory of ``path``.  Leaving the ``with`` block after every listed
    component is written moves it onto ``path`` (``os.replace``); leaving it
    any other way removes it, so a file already at ``path`` keeps its bytes.
    """

    def __init__(self, path, grid: GridSpec, n: int, q: int, keys, fmt: str):
        if fmt not in ("binary", "csv"):
            raise UsageError("format must be 'binary' or 'csv'")
        self._path = os.fspath(path)
        self._keys = list(keys)
        self._csv = fmt == "csv"
        self._written = 0
        head, name = os.path.split(self._path)
        self._tmp = os.path.join(head, f".{name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        try:
            # created as open(path, "w") creates a file: the umask applies
            fd = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self._path) from None
        self._fh = os.fdopen(fd, "w", encoding="utf-8") if self._csv else os.fdopen(fd, "wb")
        header = "\n".join(_header_lines(grid, n, q, self._keys, fmt)) + "\n"
        try:
            self._fh.write(header if self._csv else header.encode("utf-8"))
        except BaseException:
            self._fh.close()
            os.unlink(self._tmp)
            raise

    def write(self, values: np.ndarray) -> None:
        """Write the next component's values."""
        ci = self._written
        self._written += 1
        if not self._csv:
            # the array's own buffer: no bytes copy of the component
            self._fh.write(np.ascontiguousarray(values, dtype="<c16"))
            return
        flat = values.reshape(-1)
        for idx in range(flat.size):
            v = flat[idx]
            self._fh.write(f"{ci},{idx},{v.real:.17g},{v.imag:.17g}\n")

    def __enter__(self) -> "FieldWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # a file whose payload does not match its header is never published
        complete = exc_type is None and self._written == len(self._keys)
        moved = False
        try:
            self._fh.close()
            if complete:
                os.replace(self._tmp, self._path)
                moved = True
        finally:
            if not moved:
                os.unlink(self._tmp)
        if exc_type is None and not complete:
            raise UsageError(
                f"field file closed after {self._written} of {len(self._keys)} components"
            )


def write_form(path, form: FormField, fmt: str = "binary", n: int | None = None) -> None:
    """Write a FormField; ``n`` is required for empty (zero) forms."""
    if n is None:
        if not form.components:
            raise UsageError("writing an empty form requires the dimension n")
        n = form.n
    keys = [J for J, _ in form.iter_components()]
    with FieldWriter(path, form.grid, n, form.q, keys, fmt) as out:
        for J in keys:
            out.write(form.components[J].values)


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
    """Fill ``arrays`` from ``component,flat_index,re,im`` rows, each exactly once.

    The caller has checked that ``text`` holds one non-blank line per value.
    """
    seen = [np.zeros(count, dtype=bool) for _ in arrays]
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


class FieldReader:
    """An open field file: the header is parsed and checked once, and each
    component is read on request into a new array the caller owns.

    A binary payload is read one component at a time, with ``readinto`` at
    the component's offset into its own aligned, writable array, so only the
    components asked for are ever in memory.  A CSV payload is for small
    grids and is read whole when the file is opened.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._open()
        except BaseException:
            self._fh.close()
            raise

    def _open(self) -> None:
        fh = self._fh
        # header ends at the newline after the 'data = ...' line
        head = []
        while not head or b"data = " not in head[-1]:
            line = fh.readline()
            if not line:
                raise UsageError("not a field file: missing 'data =' line")
            head.append(line)
        hdr = parse_flat_config(b"".join(head).decode("utf-8"))
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
        self.n, self.q = n, q
        self.keys = _header_value(hdr, "components", lambda text: _decode_components(text, n, q))
        self.grid = GridSpec(
            **{name: _header_value(hdr, key, conv) for key, name, conv in grid_keys}
        )
        self._shape = self.grid.field_shape(n)
        count = math.prod(self._shape)
        self._start = fh.tell()
        self._csv = None
        mode = _header_value(hdr, "data", str)
        if mode == "binary":
            need = count * 16 * len(self.keys)
            size = os.fstat(fh.fileno()).st_size - self._start
            if size != need:
                raise UsageError(f"payload size {size} != expected {need}")
        elif mode == "csv":
            text = fh.read().decode("utf-8")
            # counted before the arrays are made, so a header's grid is
            # never allocated for a payload that cannot fill it
            rows = sum(1 for line in io.StringIO(text) if line.strip())
            if rows != len(self.keys) * count:
                raise UsageError(
                    f"csv payload has {rows} rows, expected {len(self.keys) * count} "
                    f"({len(self.keys)} components x {count} points)"
                )
            self._csv = [np.zeros(count, dtype=complex) for _ in self.keys]
            # payload rows are numbered as lines of the whole file
            _read_csv_rows(text, len(head) + 1, count, self._csv)
        else:
            raise UsageError(f"unknown payload mode {mode!r}")

    def read(self, J: MultiIndex) -> np.ndarray:
        """The values of component ``J``, in a new writable array."""
        i = self.keys.index(J)
        if self._csv is not None:
            return self._csv[i].reshape(self._shape).copy()
        arr = np.empty(self._shape, dtype="<c16")
        self._fh.seek(self._start + i * arr.nbytes)
        got = self._fh.readinto(arr)
        if got != arr.nbytes:
            raise UsageError(f"payload truncated: component {J} has {got} of {arr.nbytes} bytes")
        return arr

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "FieldReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_form(path) -> FormField:
    """Read a field file written by :func:`write_form`.

    A binary payload is read straight into one aligned array per component,
    so the file's bytes are never held a second time.
    """
    with FieldReader(path) as src:
        comps = {J: ScalarField(grid=src.grid, values=src.read(J)) for J in src.keys}
    return FormField(grid=src.grid, q=src.q, components=comps)
