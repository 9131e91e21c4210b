"""The artifact writer against test-only oracles: the csv module for CSV, and json.dump of
the same rows given as lists for JSON."""

import csv
import json
import math
import pathlib
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech.cli import _formatted, write_table

EXTREMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e308, -1e308]
FLOATS = st.sampled_from(EXTREMES) | st.floats()
# NaNs of distinct bits (sign, quiet bit, payload): each keeps its own key and reads "nan"
NANS = st.sampled_from([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                        0x7FF8DEAD00000000]).map(lambda bits: np.uint64(bits).view(np.float64))
# the characters csv quotes for, and a few it does not
TEXT = st.text(alphabet=st.sampled_from(["a", "0", ".", " ", "{", ",", '"', "\r", "\n"]),
               max_size=5)
CELLS = (FLOATS | FLOATS.map(np.float64) | st.integers(-10**20, 10**20) | st.booleans() | TEXT
         | st.just(""))
# a small pool, so that most cells of a column repeat one the writer has formatted:
# signed zeros of both types, one shared NaN object and fresh ones, and 1.0 of both types
SHARED_NAN = math.nan
REPEATS = (st.sampled_from([0.0, -0.0, np.float64(-0.0), SHARED_NAN, 1.0, np.float64(1.0),
                            math.inf, -math.inf, 5e-324])
           | st.builds(float, st.just("nan")) | NANS)
# a body field: its dtype and its cells; a float64 field takes the writer's bit-keyed route,
# every other field the route of its Python values
FIELDS = {
    "float": (np.float64, FLOATS | NANS),
    "repeats": (np.float64, REPEATS),
    "text": ("U5", TEXT),
    "cells": (object, CELLS),
    "floats or blank": (object, REPEATS | st.just("")),
    "int": (np.int64, st.integers(-2**63, 2**63 - 1)),
    "bool": (np.bool_, st.booleans()),
}
# a footer cell of one kind takes the writer's whole-column route, a mixed one the cell route
COLUMN_KINDS = st.sampled_from([FLOATS, FLOATS.map(np.float64), TEXT, CELLS, REPEATS])


def body_of(*fields) -> np.ndarray:
    """A body of (dtype, cells) fields, with positional names."""
    count = len(fields[0][1]) if fields else 0
    body = np.empty(count, [(f"f{i}", dtype) for i, (dtype, _) in enumerate(fields)])
    for name, (_, cells) in zip(body.dtype.names, fields):
        body[name] = cells
    return body


@st.composite
def bodies(draw):
    """A structured body of 0 to 6 rows and 0 to 5 fields of any kinds."""
    count = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=5))
    return body_of(*((FIELDS[kind][0], draw(st.lists(FIELDS[kind][1], min_size=count,
                                                      max_size=count))) for kind in kinds))


@st.composite
def sections(draw):
    """Footer rows of one width, drawn column by column, or rows of any widths."""
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


def written(fmt, columns, body, footer_rows) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        out = pathlib.Path(directory, f"out.{fmt}")
        write_table(str(out), fmt, columns, body, footer_rows)
        return out.read_bytes()


LABELS = ["{q,p}", "{q,q}"]


# a custom model's bracket table with a constrained pair: floats and "" in one column
@example(["pair", "q", "p", "poisson", "dirac", "oracle", "abs_diff"],
         body_of(("U5", LABELS), (float, [0.5, 0.5]), (float, [-1.0, -1.0]),
                 (float, [1.0, 0.0]), (float, [1.0, 0.0]), (object, ["", 0.0]),
                 (object, ["", 0.0])), None)
# a trajectory: the drift footer is narrower than the body
@example(["t", "q", "p", "res_C", "H"],
         body_of(*((float, [v]) for v in (0.0, 1.0, -0.0, 5e-324, 0.5))),
         [["drift", "C", 1e-17, -math.inf]])
# signed zeros that repeat: each keeps its own text
@example(["t", "x"], body_of((float, [0.0, -0.0, 0.0, -0.0]), (float, [1.0] * 4)), None)
# a pair label that needs quotes, on every row
@example(["pair", "poisson"], body_of(("U7", ["{r,p_r}"] * 6), (float, [1.0] * 6)), None)
# a body of one empty cell per row, and a ragged footer
@example([""], body_of(("U1", ["", ""])), [["a", "b,c"], ["x\r\ny"]])
# bodies of no row and of no field
@example(["a", "b"], body_of((float, []), ("U1", [])), [[1.0, 2.0]])
@example([], body_of(), [[], [""]])
@given(st.lists(TEXT, max_size=6), bodies(), st.none() | sections())
@settings(max_examples=300, deadline=None)
def test_csv_writer_matches_the_csv_module(columns, body, footer_rows):
    with tempfile.TemporaryDirectory() as directory:
        ref = pathlib.Path(directory, "ref.csv")
        expected = csv_module_bytes(ref, columns, body.tolist(), footer_rows)
    assert written("csv", columns, body, footer_rows) == expected


@example(["t", "x"], body_of((float, [0.0, -0.0]), (object, ["", math.nan])),
         [["drift", "x", math.inf, -0.0]])
@example([], body_of(), None)
@given(st.lists(TEXT, max_size=6), bodies(), st.none() | sections())
@settings(max_examples=200, deadline=None)
def test_json_writer_matches_json_dump_of_the_rows_as_lists(columns, body, footer_rows):
    payload = {"columns": columns, "rows": [list(row) for row in body.tolist()]}
    if footer_rows:
        payload["footer"] = _formatted(footer_rows)
    expected = json.dumps(payload, indent=1) + "\n"
    assert written("json", columns, body, footer_rows) == expected.encode()
