"""The artifact writer against test-only oracles: the csv module for CSV, and the file json.dump
writes of the same rows given as lists for JSON. The writer's input is what the subcommands
hand it: a header of labels, a body of float64 and str fields, and no footer, a drift footer
(drift, name, max residual, growth rate) or a check footer (check, name, value, "")."""

import csv
import json
import math
import pathlib
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech.cli import write_table

EXTREMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e308, -1e308]
FLOATS = st.sampled_from(EXTREMES) | st.floats()
# NaNs of distinct bits (sign, quiet bit, payload): each keeps its own key and reads "nan"
NANS = st.sampled_from([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                        0x7FF8DEAD00000000]).map(lambda bits: np.uint64(bits).view(np.float64))
# the characters csv quotes for, and a few it does not
TEXT = st.text(alphabet=st.sampled_from(["a", "0", ".", " ", "{", ",", '"', "\r", "\n"]),
               max_size=5)
# a small pool, so that most cells of a column repeat one the writer has formatted:
# signed zeros, one shared NaN object and fresh ones, and 1.0 of both types
SHARED_NAN = math.nan
REPEATS = (st.sampled_from([0.0, -0.0, np.float64(-0.0), SHARED_NAN, 1.0, np.float64(1.0),
                            math.inf, -math.inf, 5e-324])
           | st.builds(float, st.just("nan")) | NANS)
# a body field: its dtype and its cells; a float64 field is keyed on its bits, a str field
# (the pair labels, the blank oracle columns) on its strings
FIELDS = {
    "float": (np.float64, FLOATS | NANS),
    "repeats": (np.float64, REPEATS),
    "text": ("U5", TEXT),
    "blank": ("U1", st.just("")),
}
# footer names: a constraint's name is any JSON string, a trailing NUL included
NAMES = TEXT | st.sampled_from(["C\x00", 'a,"b\x00', "\x00", ""])
# any JSON string: NUL, quotes, backslashes, brackets, separators, non-ASCII, a lone surrogate
JSON_TEXT = NAMES | st.text(max_size=6) | st.sampled_from(
    ["\\", "é", "日本", "[", "]", "],\n   [", "a]", "[b", "\ud800"])
JSON_FIELDS = {**FIELDS, "json": ("U6", JSON_TEXT)}


def text(value) -> str:
    """A float to 17 significant digits, anything else by str."""
    return "%.17g" % value if isinstance(value, float) else str(value)


def body_of(*fields) -> np.ndarray:
    """A body of (dtype, cells) fields, with positional names."""
    body = np.empty(len(fields[0][1]), [(f"f{i}", dtype) for i, (dtype, _) in enumerate(fields)])
    for name, (_, cells) in zip(body.dtype.names, fields):
        body[name] = cells
    return body


def footer_of(kind, names, values, rates=None) -> np.ndarray:
    """A drift footer, or with no ``rates`` a check footer, as the subcommands build them:
    the names an object field."""
    last = [""] * len(names) if rates is None else rates
    return np.array(list(zip([kind] * len(names), names, values, last)),
                    dtype="U5,O,f8," + ("U1" if rates is None else "f8"))


@st.composite
def bodies(draw, fields=FIELDS):
    """A structured body of 0 to 6 rows and 2 to 5 fields."""
    count = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(fields)), min_size=2, max_size=5))
    return body_of(*((fields[kind][0], draw(st.lists(fields[kind][1], min_size=count,
                                                      max_size=count))) for kind in kinds))


@st.composite
def footers(draw, names=NAMES):
    """No footer, or a drift or a check footer of 0 to 4 rows."""
    kind = draw(st.sampled_from([None, "drift", "check"]))
    if kind is None:
        return None
    count = draw(st.integers(0, 4))
    names, values, rates = (draw(st.lists(cells, min_size=count, max_size=count))
                            for cells in (names, FLOATS | NANS, REPEATS))
    return footer_of(kind, names, values, rates if kind == "drift" else None)


HEADERS = st.lists(TEXT | NAMES, min_size=4, max_size=8)


def csv_module_bytes(path, columns, body, footer) -> bytes:
    rows = body.tolist() + ([] if footer is None else footer.tolist())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([list(map(text, row)) for row in rows])
    return path.read_bytes()


def written(fmt, columns, body, footer) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        out = pathlib.Path(directory, f"out.{fmt}")
        write_table(str(out), fmt, columns, body, footer)
        return out.read_bytes()


LABELS = ["{q,p}", "{q,q}"]


# a custom model's bracket table with a constrained pair: U1 blank oracle columns
@example(["pair", "q", "p", "poisson", "dirac", "oracle", "abs_diff"],
         body_of(("U5", LABELS), (float, [0.5, 0.5]), (float, [-1.0, -1.0]),
                 (float, [1.0, 0.0]), (float, [1.0, 0.0]), ("U1", ["", ""]),
                 ("U1", ["", ""])), None)
# a trajectory: the drift footer is narrower than the body, a name ends in NUL
@example(["t", "q", "p", "res_C\x00", "H"],
         body_of(*((float, [v]) for v in (0.0, 1.0, -0.0, 5e-324, 0.5))),
         footer_of("drift", ["C\x00"], [1e-17], [-math.inf]))
# drift names that need quotes, or end in NUL inside quotes
@example(["t", "q", "p", "res_a,b", 'res_"c', "H"],
         body_of(*((float, [v]) for v in (0.0, 1.0, -0.0, 5e-324, 0.5, 2.0))),
         footer_of("drift", ["a,b", '"c', 'a,"b\x00'], [0.5, 0.0, math.nan], [0.0, -0.0, 1.0]))
# a lattice run: the check footer ends in an empty cell
@example(["t", "energy", "gauss_residual", "transverse_residual"],
         body_of(*((float, [v, v]) for v in (0.0, 1.5, 0.0, 1e-300))),
         footer_of("check", ["projector_idempotency", "dirac_aa_max"], [1e-16, 0.0]))
# signed zeros that repeat: each keeps its own text
@example(["t", "x", "p", "H"], body_of((float, [0.0, -0.0, 0.0, -0.0]), (float, [1.0] * 4),
                                       (float, [-0.0] * 4), (float, [0.0] * 4)), None)
# a pair label that needs quotes, on every row
@example(["pair", "r", "p_r", "poisson"], body_of(("U7", ["{r,p_r}"] * 6), (float, [1.0] * 6),
                                                  (float, [2.0] * 6), (float, [1.0] * 6)), None)
# a quantum sweep of no times: a body of no row
@example(["t", "r_mean", "pr_mean", "norm"], body_of(*((float, []) for _ in range(4))), None)
@given(HEADERS, bodies(), footers())
@settings(max_examples=300, deadline=None)
def test_csv_writer_matches_the_csv_module(columns, body, footer):
    with tempfile.TemporaryDirectory() as directory:
        expected = csv_module_bytes(pathlib.Path(directory, "ref.csv"), columns, body, footer)
    assert written("csv", columns, body, footer) == expected


@example(["t", "x", "oracle", "H"],
         body_of((float, [0.0, -0.0]), (float, [math.nan, 1.0]), ("U1", ["", ""]),
                 (float, [math.inf, 0.5])),
         footer_of("drift", ["x\x00", "y"], [math.inf, 0.0], [-0.0, math.nan]))
@example(["t", "energy", "gauss_residual", "transverse_residual"],
         body_of(*((float, [1.0]) for _ in range(4))), footer_of("check", [], []))
@given(st.lists(JSON_TEXT, min_size=4, max_size=8), bodies(JSON_FIELDS), footers(JSON_TEXT))
@settings(max_examples=200, deadline=None)
def test_json_writer_matches_json_dump_of_the_rows_as_lists(columns, body, footer):
    payload = {"columns": columns, "rows": [list(row) for row in body.tolist()]}
    if footer is not None and len(footer):
        payload["footer"] = [list(map(text, row)) for row in footer.tolist()]
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory, "ref.json")
        with open(path, "w") as handle:  # the file json.dump writes, byte for byte
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        expected = path.read_bytes()
    assert written("json", columns, body, footer) == expected
