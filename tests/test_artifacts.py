"""The CSV artifact writer against the csv module, which is a test-only oracle."""

import csv
import math
import pathlib
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech.cli import _formatted, write_table

EXTREMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308]
FLOATS = st.sampled_from(EXTREMES) | st.floats()
# the characters csv quotes for, and a few it does not
TEXT = st.text(alphabet=st.sampled_from(["a", "0", ".", " ", "{", ",", '"', "\r", "\n"]),
               max_size=5)
CELLS = FLOATS | FLOATS.map(np.float64) | st.integers(-10**20, 10**20) | st.booleans() | TEXT
# a small pool, so that most cells of a column repeat one the writer has formatted:
# signed zeros of both types, one shared NaN object and fresh ones, and 1.0 of both types
SHARED_NAN = math.nan
REPEATS = (st.sampled_from([0.0, -0.0, np.float64(-0.0), SHARED_NAN, 1.0, np.float64(1.0),
                            math.inf, -math.inf, 5e-324])
           | st.builds(float, st.just("nan")))
# a column of one kind takes the writer's whole-column route, a mixed one the cell route
COLUMN_KINDS = st.sampled_from([FLOATS, FLOATS.map(np.float64), TEXT, CELLS, REPEATS])


@st.composite
def sections(draw):
    """Rows of one width, drawn column by column, or rows of any widths."""
    count = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(CELLS, max_size=5), min_size=count, max_size=count))
    kinds = draw(st.lists(COLUMN_KINDS, max_size=5))
    columns = [draw(st.lists(kind, min_size=count, max_size=count)) for kind in kinds]
    return [list(row) for row in zip(*columns)] if columns else [[] for _ in range(count)]


def csv_module_bytes(path, columns, rows, footer_rows) -> bytes:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(_formatted(rows + (footer_rows or [])))
    return path.read_bytes()


# a custom model's bracket table with a constrained pair: floats and "" in one column
@example(["pair", "q", "p", "poisson", "dirac", "oracle", "abs_diff"],
         [["{q,p}", 0.5, -1.0, 1.0, 1.0, "", ""],
          ["{q,q}", 0.5, -1.0, 0.0, 0.0, 0.0, 0.0]], None)
# a trajectory: the drift footer is narrower than the body
@example(["t", "q", "p", "res_C", "H"], [[0.0, 1.0, -0.0, 5e-324, 0.5]],
         [["drift", "C", 1e-17, -math.inf]])
# signed zeros that repeat: each keeps its own text
@example(["t", "x"], [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]], None)
# a pair label that needs quotes, on every row
@example(["pair", "poisson"], [["{r,p_r}", 1.0] for _ in range(6)], None)
# a lone empty cell, an empty row and a ragged footer
@example([""], [[""], []], [["a", "b,c"], ["x\r\ny"]])
@given(st.lists(TEXT, max_size=6), sections(), st.none() | sections())
@settings(max_examples=300, deadline=None)
def test_csv_writer_matches_the_csv_module(columns, rows, footer_rows):
    with tempfile.TemporaryDirectory() as directory:
        out, ref = pathlib.Path(directory, "out.csv"), pathlib.Path(directory, "ref.csv")
        write_table(str(out), "csv", columns, rows, footer_rows)
        assert out.read_bytes() == csv_module_bytes(ref, columns, rows, footer_rows)
