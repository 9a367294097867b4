"""game.write_csv against the csv.writer implementation it replaced, and
game.read_csv, which LossMatrix and PriceSeries read their files through."""

import csv
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from volfpl import GameError, LossMatrix, PriceSeries
from volfpl.game import _BLOCK_ROWS as BLOCK, write_csv

ROW_COUNTS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
SPECIAL = [math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 1e-05, -1e-05, 1 / 3, 2.0]


def reference_write_csv(path, header, columns, lineterminator="\r\n"):
    """The former write_csv: one csv.writer row per step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def assert_same_bytes(tmp_path, header, columns, lineterminator="\r\n"):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, header, columns, lineterminator=lineterminator)
    reference_write_csv(want, header, columns, lineterminator=lineterminator)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("lineterminator", ["\r\n", "\n"])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_matches_reference(tmp_path, rows, lineterminator):
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[:len(SPECIAL)] = SPECIAL[:rows]
    columns = [np.arange(1, rows + 1), rng.integers(-2**62, 2**62, rows), floats,
               np.resize(SPECIAL, rows)]
    assert_same_bytes(tmp_path, ["t", "i", "x", "special"], columns, lineterminator)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_loss_matrix_matches_reference(tmp_path, rows):
    # the 2-d case: LossMatrix.to_csv hands write_csv the transpose
    lm = LossMatrix(np.random.default_rng(rows).standard_normal((rows, 3)))
    lm.to_csv(tmp_path / "got.csv")
    reference_write_csv(tmp_path / "want.csv", ["expert_1", "expert_2", "expert_3"], lm.values.T)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@st.composite
def column_sets(draw):
    rows = draw(st.sampled_from(ROW_COUNTS) | st.integers(0, 40))
    dtypes = draw(st.lists(st.sampled_from([np.float64, np.int64, np.float32, np.bool_]),
                           min_size=1, max_size=5))
    return [draw(hnp.arrays(dtype, rows)) for dtype in dtypes]


@settings(max_examples=60, deadline=None)
@given(columns=column_sets(), lineterminator=st.sampled_from(["\r\n", "\n"]))
def test_matches_reference_property(tmp_path_factory, columns, lineterminator):
    header = [f"c{i}" for i in range(len(columns))]
    assert_same_bytes(tmp_path_factory.mktemp("csv"), header, columns, lineterminator)


def test_unequal_columns_raise(tmp_path):
    # zip used to cut every column to the shortest one
    with pytest.raises(GameError, match="column 1 has 2 rows but column 0 has 3"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
    assert not (tmp_path / "x.csv").exists()


def test_two_dimensional_column_raises(tmp_path):
    with pytest.raises(GameError, match="1-d"):
        write_csv(tmp_path / "x.csv", ["a"], [np.zeros((3, 2))])


@pytest.mark.parametrize("rows", [BLOCK + 1, 2 * BLOCK + 3])
def test_round_trips_across_blocks(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
    values[0] = [-0.0, 5e-324, 1e308, 1e-05]
    lm = LossMatrix(values)
    lm.to_csv(tmp_path / "losses.csv")
    assert LossMatrix.from_csv(tmp_path / "losses.csv").values.tobytes() == values.tobytes()
    ps = PriceSeries(np.abs(values[:, 0]) + 1.0)
    ps.to_csv(tmp_path / "prices.csv")
    assert PriceSeries.from_csv(tmp_path / "prices.csv").prices.tobytes() == ps.prices.tobytes()


def test_memory_is_bounded_in_steps():
    # the row-per-step writer held all 3e6 cells as Python floats: ~92 MB
    peaks = []
    for steps in (2 * BLOCK, 100_000):
        lm = LossMatrix(np.random.default_rng(0).standard_normal((steps, 30)))
        tracemalloc.start()
        try:
            lm.to_csv(os.devnull)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 4 << 20
    assert peaks[1] < peaks[0] + (1 << 20)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_blank_lines_are_skipped(tmp_path, newline):
    # the loss-matrix reader used to reject every blank line, a trailing one too
    (tmp_path / "losses.csv").write_text(newline.join(["expert_1,expert_2", "1,2", "", "3,4", "", ""]))
    (tmp_path / "prices.csv").write_text(newline.join(["price", "1.5", "", "2.5", "", ""]))
    values = LossMatrix.from_csv(tmp_path / "losses.csv").values
    assert values.tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
    assert PriceSeries.from_csv(tmp_path / "prices.csv").prices.tobytes() == \
        np.array([1.5, 2.5]).tobytes()


@pytest.mark.parametrize("text", ["", "\n", "\r\n", "\n\n", "\n1\n"])
def test_blank_or_empty_header_raises(tmp_path, text):
    # a blank first line used to pass as a header of zero experts
    (tmp_path / "x.csv").write_text(text)
    for cls in (LossMatrix, PriceSeries):
        with pytest.raises(GameError, match="x.csv: header must be"):
            cls.from_csv(tmp_path / "x.csv")


@pytest.mark.parametrize("loss_row, price_row, message", [
    ("3,x", "x", "could not convert string to float: 'x'"),
    ("3", "3,4", "expected . cells, got ."),
])
def test_bad_row_names_its_line_after_a_blank_line(tmp_path, loss_row, price_row, message):
    # the blank line is line 3, so the bad row is line 4
    (tmp_path / "losses.csv").write_text(f"expert_1,expert_2\n1,2\n\n{loss_row}\n")
    (tmp_path / "prices.csv").write_text(f"price\n1\n\n{price_row}\n")
    with pytest.raises(GameError, match="losses.csv:4: " + message):
        LossMatrix.from_csv(tmp_path / "losses.csv")
    with pytest.raises(GameError, match="prices.csv:4: " + message):
        PriceSeries.from_csv(tmp_path / "prices.csv")

def test_read_memory_is_a_small_multiple_of_the_array(tmp_path):
    # the row-list readers held every cell as a Python float: 5.4x the array
    values = np.random.default_rng(0).standard_normal((20_000, 30))
    LossMatrix(values).to_csv(tmp_path / "losses.csv")
    tracemalloc.start()
    try:
        back = LossMatrix.from_csv(tmp_path / "losses.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == values.tobytes()
    assert peak < 3 * values.nbytes
