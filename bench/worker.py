"""One benchmark workload in one fresh process.

The process times its own cold import of the entry module, runs one untimed
warm-up cycle, then a fixed number of cycles sized to the requested seconds
(``session.cycles_for``) as a closed loop: one client, one thread. A cycle is
one op of each kind (one suite pass for ``verify_all``). Every op's output is
checked by an oracle; only the call into the program is timed, and a host
speed probe runs just before and after it.

With ``--trace 1`` the cycles are split: half run untraced, half with span
shims installed, and the difference between the two is the tracing overhead.

``bench/run.py`` starts this with PYTHONPATH set and BLAS threads pinned.
``--probe-import MODULE`` prints the cold import time of one module and exits.
Nothing but the standard library is imported before the timed import.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
ENTRY = {"bracket_table": "diracmech.cli", "dirac_orbit": "diracmech.cli",
         "lattice_maxwell": "diracmech.cli", "verify_all": "diracmech.verify"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Host speed probe time (session.host_probe_ms) at which host-adjusted op
# times equal wall-clock times.
REFERENCE_PROBE_MS = 10.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe-import", metavar="MODULE")
    parser.add_argument("--workload", choices=sorted(ENTRY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if args.probe_import:
        start = perf_counter()
        importlib.import_module(args.probe_import)
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0

    start = perf_counter()
    entry = importlib.import_module(ENTRY[args.workload])
    setup_s = perf_counter() - start

    import session

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    cwd = os.getcwd()
    os.chdir(workdir)  # scenario outputs are relative, as in scenarios/*.json
    try:
        result = session.run(args.workload, args.seed, args.seconds, args.trace, entry,
                             setup_s, workdir, spans_path)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
