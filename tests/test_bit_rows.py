"""`data.bit_rows`, the one check of the bit matrix, at every entry point
that takes bit rows: the trainers, the E-step, the flow gradient, and the
corruption and reconstruction of images."""

import numpy as np
import pytest

from conftest import make_layered_machine, random_bits
from flowbm.data import bit_rows
from flowbm.metrics import corrupt, reconstruct_batch
from flowbm.model import LayerSpec
from flowbm.mpf import gradient_and_objective
from flowbm.optim import TrainConfig
from flowbm.sampling import e_step_batch, row_streams
from flowbm.training import init_state, train_cd, train_vpf

WIDTH = 784  # the 28x28 images that `corrupt` takes
LAYOUT = LayerSpec((WIDTH, 4), (False,))
COUNT = 3


def machine():
    return make_layered_machine(LAYOUT.sizes, LAYOUT.intra_layer, seed=1)


def streams(count):
    return row_streams(0, 0, count=count)


def valid_images():
    return random_bits(np.random.default_rng(2), (COUNT, WIDTH))


def known_mask():
    return np.ones((COUNT, WIDTH), dtype=bool)


# Each entry point as (width of its rows, call(rows, stream count)).
ENTRY_POINTS = {
    "train_vpf": (WIDTH, lambda rows, n: train_vpf(
        rows, init_state(LAYOUT, TrainConfig(epochs=1)))),
    "train_cd": (WIDTH, lambda rows, n: train_cd(
        rows, init_state(LAYOUT, TrainConfig(epochs=1, method="cd")))),
    "e_step_batch": (WIDTH, lambda rows, n: e_step_batch(machine(), rows, streams(n))),
    "gradient_and_objective": (LAYOUT.n, lambda rows, n: gradient_and_objective(machine(), rows)),
    "corrupt": (WIDTH, lambda rows, n: corrupt(rows, "top", streams(n))),
    "reconstruct_batch images": (WIDTH, lambda rows, n: reconstruct_batch(
        machine(), rows, known_mask(), 2, streams(n))),
    "reconstruct_batch mask": (WIDTH, lambda rows, n: reconstruct_batch(
        machine(), valid_images(), rows, 2, streams(COUNT))),
}


def with_entry(rows, value):
    rows[1, 3] = value
    return rows


# Each misread input, made from valid rows, and the words of its rejection.
MISREAD = {
    "0.7": (lambda v: with_entry(v.astype(np.float64), 0.7), "only 0 and 1"),
    "2": (lambda v: with_entry(v.astype(np.int64), 2), "only 0 and 1"),
    "255": (lambda v: with_entry(v.copy(), 255), "only 0 and 1"),
    "vector": (lambda v: v[0], r"expected \(\*, {width}\)"),
    "3-D": (lambda v: v[:, :, None], r"expected \(\*, {width}\)"),
    "no rows": (lambda v: v[:0], "at least one row"),
}


@pytest.mark.parametrize("case", MISREAD)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_rows_that_are_not_a_bit_matrix_are_rejected(entry, case):
    # The E-step, the flow gradient, corrupt and reconstruct_batch used to
    # check only the shape: a 0.7 or a 255 went through as a value, and a
    # vector as one row.
    width, call = ENTRY_POINTS[entry]
    make, words = MISREAD[case]
    rows = make(random_bits(np.random.default_rng(3), (COUNT, width)))
    with pytest.raises(ValueError, match=words.format(width=width)):
        call(rows, 1 if rows.ndim == 1 else len(rows))


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
def test_bits_of_every_dtype_give_the_same_bytes(dtype):
    m = machine()
    rng = np.random.default_rng(4)
    x = random_bits(rng, (5, WIDTH), p=0.2)
    pairs = random_bits(rng, (5, LAYOUT.n), p=0.2)

    pair_rows = e_step_batch(m, x.astype(dtype), streams(5))
    assert pair_rows.dtype == np.uint8
    np.testing.assert_array_equal(pair_rows, e_step_batch(m, x, streams(5)))

    (g, value), (g0, value0) = (gradient_and_objective(m, p) for p in (pairs.astype(dtype), pairs))
    assert g.d_weights.tobytes() == g0.d_weights.tobytes()
    assert g.d_biases.tobytes() == g0.d_biases.tobytes()
    assert value == value0

    corrupted, known = corrupt(x.astype(dtype), "left", streams(5))
    corrupted0, known0 = corrupt(x, "left", streams(5))
    assert corrupted.dtype == np.uint8
    np.testing.assert_array_equal(corrupted, corrupted0)
    np.testing.assert_array_equal(known, known0)
    recon0 = reconstruct_batch(m, corrupted0, known0, 2, streams(5))
    for mask in (known, known.astype(np.uint8)):
        recon = reconstruct_batch(m, corrupted.astype(dtype), mask, 2, streams(5))
        assert recon.dtype == np.uint8
        np.testing.assert_array_equal(recon, recon0)


class TestBitRows:
    def test_uint8_bits_are_not_copied(self):
        bits = random_bits(np.random.default_rng(6), (4, 6))
        assert bit_rows(bits, 6, "rows") is bits

    @pytest.mark.parametrize("rows, words", [
        (np.zeros((2, 5)), r"expected \(\*, 6\), got shape \(2, 5\)"),
        (np.zeros((0, 6)), "need at least one row"),
        (np.full((2, 6), -1.0), "only 0 and 1"),
        (np.full((2, 6), np.nan), "only 0 and 1"),
    ])
    def test_errors_name_the_rows(self, rows, words):
        with pytest.raises(ValueError, match=f"^the test rows: .*{words}"):
            bit_rows(rows, 6, "the test rows")
