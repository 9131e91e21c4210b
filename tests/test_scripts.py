import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_all_scenarios.py"


def load_runner():
    spec = importlib.util.spec_from_file_location("run_all_scenarios", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_csv_difference_counts_rows_and_bounds_each_column(tmp_path):
    golden, written = tmp_path / "golden.csv", tmp_path / "written.csv"
    golden.write_text("t,a,b\n0,1.0,x\n1,2.0,y\n2,nan,z\n3,4.0,z\n")
    written.write_text("t,a,b\n0,1.0,x\n1,2.5,w\n2,3.0,z\n3,4.25,z\n4,0,0\n")
    assert load_runner().csv_difference(golden, written) == [
        "4 of 6 rows differ (5 golden, 6 written)",
        "max |diff| a: inf",
        "max |diff| b: text",
    ]
    written.write_text("t,a,b\n0,1.0,x\n1,2.5,y\n2,nan,z\n3,4.25,z\n")
    assert load_runner().csv_difference(golden, written) == [
        "2 of 5 rows differ", "max |diff| a: 5.000e-01"]
