import tracemalloc

import numpy as np
import pytest

from hszego import FormField, GridSpec, MultiIndex, ScalarField, UsageError
from hszego.fieldio import read_form, write_form


@pytest.fixture
def small_form():
    grid = GridSpec(2.0, 5, 3.0, 8)
    rng = np.random.default_rng(42)
    shape = grid.field_shape(1)

    def field():
        return ScalarField(
            grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape)
        )

    return FormField(grid=grid, q=1, components={MultiIndex((1,)): field()})


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_round_trip_bit_exact(tmp_path, small_form, fmt):
    path = tmp_path / f"field.{fmt}"
    write_form(path, small_form, fmt=fmt)
    back = read_form(path)
    assert back.q == small_form.q
    assert back.grid == small_form.grid
    assert set(back.components) == set(small_form.components)
    for J, comp in small_form.iter_components():
        assert np.array_equal(back.components[J].values, comp.values)


def test_multi_component_order(tmp_path):
    grid = GridSpec(2.0, 5, 3.0, 8)
    shape = grid.field_shape(2)
    a = ScalarField(grid=grid, values=np.full(shape, 1 + 2j))
    b = ScalarField(grid=grid, values=np.full(shape, 3 - 4j))
    form = FormField(
        grid=grid, q=1, components={MultiIndex((2,)): b, MultiIndex((1,)): a}
    )
    path = tmp_path / "f.bin"
    write_form(path, form)
    back = read_form(path)
    assert np.array_equal(back.components[MultiIndex((1,))].values, a.values)
    assert np.array_equal(back.components[MultiIndex((2,))].values, b.values)


def test_empty_form_needs_dimension(tmp_path):
    grid = GridSpec(2.0, 5, 3.0, 8)
    form = FormField(grid=grid, q=1, components={})
    with pytest.raises(UsageError):
        write_form(tmp_path / "z.bin", form)
    write_form(tmp_path / "z.bin", form, n=1)
    back = read_form(tmp_path / "z.bin")
    assert back.q == 1 and back.components == {}


def test_rejects_truncated_payload(tmp_path, small_form):
    path = tmp_path / "f.bin"
    write_form(path, small_form)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(UsageError):
        read_form(path)


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"not a field file at all\n")
    with pytest.raises(UsageError):
        read_form(path)


def test_binary_read_holds_the_payload_once(tmp_path):
    # each component is read straight into its own aligned array: no copy of
    # the file's bytes sits next to the decoded values
    grid = GridSpec(2.0, 9, 3.0, 64)
    shape = grid.field_shape(2)
    rng = np.random.default_rng(5)
    comps = {
        MultiIndex((j,)): ScalarField(grid=grid, values=rng.normal(size=shape) + 0j)
        for j in (1, 2)
    }
    path = tmp_path / "f.bin"
    write_form(path, FormField(grid=grid, q=1, components=comps))
    payload = sum(f.values.nbytes for f in comps.values())
    tracemalloc.start()
    try:
        back = read_form(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * payload
    for J, comp in comps.items():
        assert back.components[J].values.flags.aligned
        assert np.array_equal(back.components[J].values, comp.values)


def test_binary_write_copies_no_component(tmp_path):
    # each component is written from its own buffer: no bytes copy of it is
    # made on the way to the file
    grid = GridSpec(2.0, 9, 3.0, 64)
    shape = grid.field_shape(2)
    rng = np.random.default_rng(6)
    comps = {
        MultiIndex((j,)): ScalarField(grid=grid, values=rng.normal(size=shape) + 1j)
        for j in (1, 2)
    }
    form = FormField(grid=grid, q=1, components=comps)
    path = tmp_path / "f.bin"
    tracemalloc.start()
    try:
        write_form(path, form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * comps[MultiIndex((1,))].values.nbytes
    back = read_form(path)
    for J, comp in comps.items():
        assert np.array_equal(back.components[J].values, comp.values)
