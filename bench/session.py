"""Runners, phases and the result of one workload process (see ``worker.py``)."""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import platform
import resource
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np
import scipy

import diagnostics
import inputs
import layers
import oracles
import tracer
from worker import BLAS_THREAD_VARS, REFERENCE_PROBE_MS


@dataclass
class Op:
    kind: str
    seconds: float
    passed: bool
    measured: float  # worst deviation / tolerance
    detail: str = ""
    margins: dict | None = None
    host_ms: float = REFERENCE_PROBE_MS  # host speed probe around the op (host_probe_ms)

    @property
    def adjusted_s(self) -> float:
        """Op time at the reference host speed."""
        return self.seconds * REFERENCE_PROBE_MS / self.host_ms


class CliRunner:
    """Ops are ``diracmech.cli.main`` calls on freshly generated scenario files."""

    def __init__(self, cli, workload, seed, workdir, shift=0.0):
        self.cli, self.workdir, self.shift = cli, workdir, shift
        self.kinds = inputs.KINDS[workload]
        self.rng = inputs.stream(workload, seed)

    def cycle(self, rec=None) -> list[Op]:
        ops = []
        for kind in self.kinds:
            config = inputs.scenario(kind, self.rng)
            path = inputs.write_scenario(self.workdir, kind, config)
            ops.append(self.run_op(kind, [inputs.COMMAND[kind], "--config", str(path)],
                                   config, rec))
        return ops

    def run_op(self, kind, argv, config, rec) -> Op:
        sink = io.StringIO()
        error = None
        before = host_probe_ms()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                code = rec.span(tracer.ROOT, self.cli.main, argv) if rec else self.cli.main(argv)
            except Exception as exc:  # an op that raises counts as failed
                code, error = None, repr(exc)
            seconds = perf_counter() - start
        host = (before + host_probe_ms()) / 2
        if code != 0:
            return Op(kind, seconds, False, math.inf,
                      error or f"exit {code}: {sink.getvalue()[-300:].strip()}", host_ms=host)
        artifact = self.workdir / config["output"]["path"]
        passed, measured, detail = oracles.CHECKS[kind](config, artifact, self.shift)
        return Op(kind, seconds, passed, measured, "" if passed else detail,
                  diagnostics.margins(kind, config, artifact), host)


class VerifyRunner:
    """Ops are the checks of one ``run_suite('all', seed)`` pass.

    Each check is timed at the binding ``run_suite`` calls: the entries of
    ``verify.SUITES`` and ``verify._CHECK_IDS`` are replaced, consistently, by
    a timing wrapper that calls the check through its module binding.
    """

    def __init__(self, verify, seed, inject_fault=None):
        self.verify, self.seed, self.inject_fault = verify, seed, inject_fault
        self.rec = None
        self.ops: list[Op] = []
        self.installed = tracer.Installation()
        wrappers = {}
        for suite, checks in verify.SUITES.items():
            for i, check in enumerate(checks):
                wrappers[check] = self._wrap(check.__name__,
                                             check.__name__.replace("check_", f"{suite}."))
                self.installed.set(checks, i, wrappers[check])
        for check_id, check in list(verify._CHECK_IDS.items()):
            self.installed.set(verify._CHECK_IDS, check_id, wrappers[check])
        self.suites = {suite: [c.__name__ for c in checks]
                       for suite, checks in verify.SUITES.items()}

    def _wrap(self, name, check_id):
        runner, verify = self, self.verify

        @functools.wraps(getattr(verify, name))
        def timed(rng, fault):
            check = getattr(verify, name)
            before = host_probe_ms()
            start = perf_counter()
            try:
                result = runner.rec.span(tracer.ROOT, check, rng, fault) if runner.rec \
                    else check(rng, fault)
            except Exception as exc:
                runner.ops.append(Op(check_id, perf_counter() - start, False, math.inf,
                                     repr(exc), host_ms=(before + host_probe_ms()) / 2))
                raise
            seconds = perf_counter() - start
            host = (before + host_probe_ms()) / 2
            passed, measured, detail = oracles.check_verify_result(check_id, result)
            runner.ops.append(Op(check_id, seconds, passed, measured, "" if passed else detail,
                                 host_ms=host))
            return result

        return timed

    def cycle(self, rec=None) -> list[Op]:
        self.rec, self.ops = rec, []
        try:
            results = self.verify.run_suite("all", self.seed, inject_fault=self.inject_fault)
        except Exception:  # the failing check is already recorded
            results = None
        finally:
            self.rec = None
        expected = sum(len(c) for c in self.suites.values())
        if results is not None and len(results) != expected:
            self.ops.append(Op("pass", 0.0, False, math.inf,
                               f"{len(results)} results, expected {expected}"))
        return self.ops

    def close(self):
        """Put the original checks back into the registries."""
        self.installed.uninstall()


# Cycle time of each workload at the reference host speed (median of ten
# runs; 2 cores, OpenBLAS on one thread). A run executes round(seconds /
# cycle time) whole cycles, so every run of a workload has the same op count
# and its median and tail land on the same ranks. A loop bounded by the clock
# would change the count with the host's speed, and the tail of a mix whose
# ops differ up to a thousandfold jumps between op kinds when the count moves.
NOMINAL_CYCLE_S = {"bracket_table": 0.4, "dirac_orbit": 1.6, "lattice_maxwell": 1.6,
                   "verify_all": 5.5}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def host_probe_ms(n: int = 125_000) -> float:
    """Time of a fixed pure-Python loop, the host speed probe taken around every op.

    The machine this benchmark was tuned on changes speed by up to 2x within
    seconds (shared host); the probe, taken just before and just after each
    op, tracks that, and dividing by it removes about half of the run-to-run
    spread of op times.
    """
    start = perf_counter()
    x = 0.5
    for _ in range(n):
        x = (x * 1.0000001 + 0.3) % 7.0
    return (perf_counter() - start) * 1e3


def run_phase(runner, cycles, rec=None) -> list[Op]:
    ops = []
    for _ in range(cycles):
        ops += runner.cycle(rec)
    return ops


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def run(workload, seed, seconds, trace, entry, setup_s, workdir, spans_path) -> dict:
    """Warm up, measure, and return the workload's result record."""
    if workload == "verify_all":
        runner = VerifyRunner(entry, seed)
    else:
        runner = CliRunner(entry, workload, seed, workdir)
    warmup = run_phase(runner, 1)
    result = {"workload": workload, "seed": seed, "trace": trace, "setup_s": setup_s,
              "environment": environment(), "kernel_counts": diagnostics.kernel_counts()}
    if not trace:
        cycles = cycles_for(workload, seconds)
        ops = run_phase(runner, cycles)
    else:
        cycles = cycles_for(workload, seconds / 2)
        untraced = run_phase(runner, cycles)
        rec = tracer.Recorder()
        installed = tracer.install(rec)
        try:
            ops = run_phase(runner, cycles, rec)
        finally:
            installed.uninstall()
        spans = tracer.Spans(rec)
        verify_failed = sum(1 for op in ops if not op.passed) \
            if isinstance(runner, VerifyRunner) else 0
        result["per_layer"] = layers.per_layer(
            spans, cycles, getattr(runner, "suites", {}),
            sum(op.adjusted_s for op in untraced) / cycles,
            sum(op.adjusted_s for op in ops) / cycles, verify_failed)
        result["self_time"] = layers.self_time_table(spans, cycles)
        result["untraced_ops"] = [asdict(op) for op in untraced]
        rec.save(spans_path)
    result["cycles"] = cycles
    result["warmup_ops"] = [asdict(op) for op in warmup]
    result["ops"] = [asdict(op) for op in ops]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result
