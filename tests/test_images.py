import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from flowbm import images
from flowbm.images import write_csv

# Values that the fixed-point encoder must hand to `%`, or that sit at the
# edges of what it encodes itself.
SPECIALS = np.array([
    0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, -5e-324, -1e-9, -0.25,
    np.nextafter(10.0, 0.0), 9.999999995, 10.0, 123.456789, 1e300,
    np.nan, -np.nan, np.inf, -np.inf,
])
BLOCK_ROWS = images._BLOCK_VALUES // 784


def savetxt_bytes(values) -> bytes:
    buf = io.BytesIO()
    np.savetxt(buf, values, fmt="%.8f", delimiter=",")
    return buf.getvalue()


def write_csv_bytes(values) -> bytes:
    buf = io.BytesIO()
    write_csv(buf, values)
    return buf.getvalue()


def mixed_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Rows of sigmoid outputs, of the exact ties j/512, of the doubles at
    and one ulp either side of (k + 1/2) * 1e-8, and of sigmoid outputs with
    `SPECIALS` scattered in."""
    rng = np.random.default_rng(seed)
    values = expit(rng.normal(0.0, 6.0, (rows, cols)))
    kind = rng.integers(0, 4, rows)
    ties = rng.integers(0, 5120, (rows, cols)) / 512
    half = (rng.integers(0, 10**9, (rows, cols)) + 0.5) * 1e-8
    near = np.nextafter(half, rng.choice([0.0, 10.0], (rows, cols)))
    near = np.where(rng.random((rows, cols)) < 1 / 3, half, near)
    scattered = np.where(rng.random((rows, cols)) < 0.1,
                         SPECIALS[rng.integers(0, len(SPECIALS), (rows, cols))], values)
    for k, rows_of_kind in enumerate((ties, near, scattered), start=1):
        values[kind == k] = rows_of_kind[kind == k]
    return values


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 45), cols=st.integers(1, 1200), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.tuples(st.integers(0, 10**6), st.floats()), max_size=6))
    @example(rows=1, cols=784, seed=0, extra=[])
    @example(rows=30, cols=1, seed=1, extra=[])
    @example(rows=2 * BLOCK_ROWS + 1, cols=784, seed=2, extra=[])
    @example(rows=3, cols=5, seed=3, extra=[(1, -0.0), (7, float("nan")), (12, float("inf"))])
    def test_bytes_equal_savetxt(self, rows, cols, seed, extra):
        values = mixed_matrix(rows, cols, seed)
        for position, value in extra:
            values.flat[position % values.size] = value
        assert write_csv_bytes(values) == savetxt_bytes(values)

    def test_every_kind_of_value_matches_savetxt(self):
        values = np.concatenate([np.arange(5120) / 512,
                                 np.nextafter((np.arange(5120) + 0.5) * 1e-8, 0.0),
                                 np.nextafter((np.arange(5120) + 0.5) * 1e-8, 1.0),
                                 np.tile(SPECIALS, 2)]).reshape(-1, 2)
        assert write_csv_bytes(values) == savetxt_bytes(values)
        assert write_csv_bytes(values[:0]) == b""

    def test_memory_stays_bounded(self, tmp_path):
        # 1024 rows of 784 values are 8.6 MB of text; the encoder holds one
        # block of rows at a time.
        values = expit(np.random.default_rng(1).normal(0.0, 4.0, (1024, 784)))
        with open(tmp_path / "probabilities.csv", "wb") as fh:
            tracemalloc.start()
            try:
                write_csv(fh, values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2_000_000
        assert (tmp_path / "probabilities.csv").read_bytes() == savetxt_bytes(values)


class TestGreyLevels:
    def test_unit_interval_and_bits_map_to_bytes(self):
        values = np.array([[0.0, 1.0, 0.5, 1 / 255, 0.998]])
        np.testing.assert_array_equal(images.to_grey(values), [[0, 255, 128, 1, 254]])
        np.testing.assert_array_equal(images.to_grey(np.array([[0, 1]])), [[0, 255]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 2.0, -1e-300,
                                     np.nextafter(1.0, 2.0)])
    def test_non_finite_and_out_of_range_values_are_rejected(self, bad, tmp_path):
        with pytest.raises(ValueError, match=r"values in \[0, 1\]"):
            images.to_grey(np.array([[0.5, bad]]))
        with pytest.raises(ValueError, match=r"values in \[0, 1\]"):
            images.write_pgm(tmp_path / "grid.pgm", np.array([[0.5, bad]]))
        assert not list(tmp_path.iterdir())


class TestWritePgm:
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_an_image_that_is_not_2d_is_rejected(self, tmp_path, shape):
        path = tmp_path / "image.pgm"
        with pytest.raises(ValueError, match="image must be 2-D"):
            images.write_pgm(path, np.zeros(shape, dtype=np.uint8))
        assert not path.exists()


class TestSquareSide:
    @pytest.mark.parametrize("length, side", [(1, 1), (4, 2), (784, 28)])
    def test_square_lengths(self, length, side):
        assert images.square_side(length) == side

    @pytest.mark.parametrize("length", [0, -1, -4, 2, 12, 783])
    def test_other_lengths_are_rejected(self, length):
        with pytest.raises(ValueError, match="not square"):
            images.square_side(length)
