"""Tests for the dataset → stream adapters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.streams import (
    VectorStream,
    repeat_epochs,
    shuffled,
    stack_rows,
)


class TestShuffled:
    def test_is_a_permutation(self, rng):
        x = np.arange(50, dtype=float).reshape(25, 2)
        out = np.vstack(list(shuffled(x, rng)))
        assert out.shape == x.shape
        assert np.array_equal(np.sort(out[:, 0]), x[:, 0])
        assert not np.array_equal(out, x)  # shuffled with this seed

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            list(shuffled(np.zeros(5), rng))


class TestRepeatEpochs:
    def test_counts_and_reshuffling(self, rng):
        x = np.arange(20, dtype=float).reshape(10, 2)
        out = np.vstack(list(repeat_epochs(x, 3, rng)))
        assert out.shape == (30, 2)
        e1, e2 = out[:10], out[10:20]
        assert not np.array_equal(e1, e2)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            list(repeat_epochs(np.zeros((3, 2)), 0, rng))


class TestVectorStream:
    def test_from_array(self):
        x = np.arange(12, dtype=float).reshape(4, 3)
        vs = VectorStream.from_array(x)
        assert vs.dim == 3
        assert vs.length == 4
        assert np.array_equal(np.vstack(list(vs)), x)

    def test_take(self):
        x = np.arange(12, dtype=float).reshape(4, 3)
        vs = VectorStream.from_array(x)
        first = vs.take(2)
        assert np.array_equal(first, x[:2])
        rest = vs.take(10)  # only 2 remain
        assert np.array_equal(rest, x[2:])
        assert vs.take(5).shape == (0, 3)

    def test_from_sampler_bounded(self):
        count = iter(range(100))
        vs = VectorStream.from_sampler(
            lambda: np.full(2, float(next(count))), dim=2, length=5
        )
        out = vs.take(100)
        assert out.shape == (5, 2)
        assert np.array_equal(out[:, 0], np.arange(5.0))

    def test_from_iterable(self):
        vs = VectorStream.from_iterable(
            (np.ones(3) * i for i in range(4)), dim=3
        )
        assert vs.length is None
        assert vs.take(4).shape == (4, 3)

    def test_from_array_validation(self):
        with pytest.raises(ValueError):
            VectorStream.from_array(np.zeros(5))


class TestBlockFace:
    def test_array_blocks_are_owned_float64_slices(self):
        x = np.arange(20).reshape(10, 2)
        blocks = list(VectorStream.from_array(x).blocks(4))
        assert [b.shape for b in blocks] == [(4, 2), (4, 2), (2, 2)]
        assert all(b.dtype == np.float64 for b in blocks)
        np.testing.assert_array_equal(np.vstack(blocks), x)
        blocks[0][0, 0] = -1.0
        assert x[0, 0] == 0

    def test_rows_and_blocks_share_one_cursor(self):
        x = np.arange(20.0).reshape(10, 2)
        for vs in (
            VectorStream.from_array(x),
            VectorStream.from_iterable(iter(x), dim=2),
        ):
            rows = iter(vs)
            assert next(rows)[0] == 0.0
            first = next(vs.blocks(3))
            np.testing.assert_array_equal(first, x[1:4])
            assert next(rows)[0] == 8.0
            np.testing.assert_array_equal(vs.take(10), x[5:])

    def test_iterator_rows_are_checked_before_stacking(self):
        ok = VectorStream.from_iterable([[1.0, 2.0], np.ones(2)], dim=2)
        np.testing.assert_array_equal(
            next(ok.blocks(8)), [[1.0, 2.0], [1.0, 1.0]]
        )
        wide = VectorStream.from_iterable([np.ones(2), np.ones(3)], dim=2)
        with pytest.raises(ValueError, match="dim changed from 2 to 3"):
            next(wide.blocks(8))
        nested = VectorStream.from_iterable([np.ones((1, 2))], dim=2)
        with pytest.raises(ValueError, match="expected a vector"):
            next(nested.blocks(8))

    def test_block_size_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            next(VectorStream.from_array(np.zeros((3, 2))).blocks(0))


def _stack_rows_by_shape_scan(rows, dim):
    """``stack_rows`` as it was: every row's shape is checked before the
    one ``np.array`` call."""
    want = (dim,)
    if {getattr(r, "shape", None) for r in rows} - {want}:
        for shape in map(np.shape, rows):
            if len(shape) != 1:
                raise ValueError(f"expected a vector, got shape {shape}")
            if shape != want:
                raise ValueError(
                    f"row dim changed from {dim} to {shape[0]}"
                )
    return np.array(rows, dtype=np.float64).reshape(len(rows), dim)


_cells = st.floats(allow_nan=True, allow_infinity=True, width=32)


@st.composite
def _valid_rows(draw):
    """``(rows, dim)``: arrays, float32 views of a wider buffer, plain
    lists without ``.shape``, and NaN cells, in any mix."""
    dim = draw(st.integers(1, 8))
    k = draw(st.integers(0, 6))
    rows = []
    for _ in range(k):
        cells = draw(st.lists(_cells, min_size=dim, max_size=dim))
        kind = draw(st.sampled_from(["f64", "f32view", "list", "int"]))
        if kind == "f64":
            rows.append(np.array(cells, dtype=np.float64))
        elif kind == "f32view":
            wide = np.zeros((2, dim), dtype=np.float32)
            wide[1] = cells
            rows.append(wide[1, :])
        elif kind == "list":
            rows.append([float(c) for c in cells])
        else:
            rows.append(np.arange(dim, dtype=np.int32))
    return rows, dim


def _invalid_rows(dim):
    good = np.ones(dim)
    return {
        "wrong dimension": [good, np.ones(dim + 1)],
        "wrong dimension list": [[1.0] * (dim + 2), good],
        "2-D row": [good, np.ones((1, dim))],
        "scalar": [good, 3.0],
        "ragged": [good, [1.0, [2.0, 3.0]]],
        "all 2-D": [np.ones((1, dim)), np.ones((1, dim))],
    }


class TestStackRows:
    """One ``np.array`` call, then the shape scan only on failure: the
    same blocks and the same errors as the scan-first stack."""

    @settings(max_examples=200, deadline=None)
    @given(_valid_rows())
    def test_valid_rows_give_the_same_bits(self, case):
        rows, dim = case
        got = stack_rows(rows, dim)
        want = _stack_rows_by_shape_scan(rows, dim)
        assert got.dtype == np.float64 and got.shape == (len(rows), dim)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 3, 32])
    @pytest.mark.parametrize(
        "case", list(_invalid_rows(3)),
    )
    def test_invalid_rows_raise_the_same_error(self, case, dim):
        rows = _invalid_rows(dim)[case]
        with pytest.raises(Exception) as old:
            _stack_rows_by_shape_scan(rows, dim)
        with pytest.raises(type(old.value)) as new:
            stack_rows(rows, dim)
        assert isinstance(new.value, ValueError)
        assert str(new.value) == str(old.value)
