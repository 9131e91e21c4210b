"""Per-layer metrics of a traced run, computed from its spans.

Counts and self times are per cycle: one op of each kind of the workload
(one full suite pass for ``verify_all``), so they repeat exactly between runs
of the same workload. ``*_us`` and ``*_ms`` are the mean inclusive duration of
one call of the named function. A metric whose function the workload never
calls reads 0.
"""

from __future__ import annotations

from tracer import LAYERS, ROOT, Spans

US, MS = 1e6, 1e3
FLOWS = {"dirac": "DiracFlow", "poisson": "PoissonFlow", "gauge": "GaugeFlow"}
SUITES = ("core", "constraints", "klauder", "dynamics", "particle", "maxwell", "quantum")


def _step_us(spans: Spans) -> dict[str, float]:
    """Per flow kind: (evolve time - finalisation) / RK4 steps."""
    evolves = spans.ids("dynamics.evolve")
    loop = spans.dur[evolves] - spans.child_total(evolves, "dynamics._finalize")
    out = {}
    for kind, cls in FLOWS.items():
        steps = seconds = 0.0
        for j, sid in enumerate(evolves):
            flow, n = spans.tags.get(int(sid), ("", 0))
            if flow == cls:
                steps += n
                seconds += loop[j]
        out[kind] = seconds / steps * US if steps else 0.0
    return out


def per_layer(spans: Spans, cycles: int, suites: dict[str, list[str]],
              untraced_cycle_s: float, traced_cycle_s: float, checks_failed: int) -> dict:
    m = {}
    table = spans.layer_table()
    for layer in LAYERS:
        calls, self_s = table[layer]
        m[f"{layer}.calls"] = calls / cycles
        m[f"{layer}.self_s"] = self_s / cycles

    m["duals.gradients"] = spans.count("duals.gradient") / cycles
    m["duals.gradient_us"] = spans.mean("duals.gradient") * US
    m["fields.gradient_calls"] = spans.count("fields.ScalarField.gradient_at") / cycles
    m["fields.value_calls"] = spans.count("fields.ScalarField.value_at") / cycles
    m["brackets.poisson_us"] = spans.mean("brackets.poisson_bracket") * US
    m["constraints.dirac_us"] = spans.mean("constraints.dirac_bracket") * US
    m["constraints.pairing_solves"] = spans.count("constraints._solve_pairing") / cycles
    m["constraints.solve_us"] = spans.mean("constraints._solve_pairing") * US
    m["phase.points_built"] = spans.count("phase.PhaseSpacePoint.__post_init__") / cycles
    m["phase.point_us"] = spans.mean("phase.PhaseSpacePoint.__post_init__") * US

    steps = sum(spans.tags[int(sid)][1] for sid in spans.ids("dynamics.evolve"))
    m["dynamics.rk4_steps"] = steps / cycles
    m["dynamics.rhs_evals"] = spans.count("dynamics.rhs") / cycles
    for kind, value in _step_us(spans).items():
        m[f"dynamics.step_us.{kind}"] = value
    m["dynamics.finalize_ms"] = spans.mean("dynamics._finalize") * MS

    m["models.klauder.sample_us"] = spans.mean("models.klauder.KlauderModel.sample_points") * US
    m["models.klauder.oracle_us"] = spans.mean("models.klauder.KlauderModel.dirac_oracle") * US
    m["models.particle.sample_us"] = \
        spans.mean("models.particle.RelativisticParticle.sample_on_shell") * US
    lattice = "models.maxwell.LatticeMaxwell."
    for side in (2, 8):
        m[f"models.maxwell.laplacian_us.L{side}"] = \
            spans.mean(lattice + "vector_laplacian", where=lambda tag, s=side: tag == s) * US
    m["models.maxwell.projector_builds"] = spans.count(lattice + "transverse_projector") / cycles
    m["models.maxwell.projector_build_ms.L8"] = \
        spans.mean(lattice + "transverse_projector", where=lambda tag: tag == 8) * MS
    m["models.maxwell.dirac_matrices_ms.L8"] = \
        spans.mean(lattice + "dirac_bracket_matrices", where=lambda tag: tag == 8) * MS

    m["circle.quadrature_nodes"] = (spans.tag_sum("circle.evolve_time_dependent")
                                    + spans.tag_sum("circle.expect_phi_quadrature")) / cycles
    m["circle.tdep_evolve_ms"] = spans.mean("circle.evolve_time_dependent") * MS

    checks = 0
    for suite in SUITES:
        names = [f"verify.{fn}" for fn in suites.get(suite, [])]
        m[f"verify.{suite}_ms"] = sum(spans.total(n) for n in names) / cycles * MS
        checks += sum(spans.count(n) for n in names)
    m["verify.checks"] = checks / cycles
    m["verify.checks_failed"] = checks_failed / cycles

    m["cli.config_load_ms"] = spans.mean("cli.load_config") * MS
    m["cli.write_ms"] = spans.mean("cli.write_table") * MS
    m["cli.rows_written"] = spans.tag_sum("cli.write_table") / cycles

    roots = spans.ids(ROOT)
    op_time = float(spans.dur[roots].sum())
    layer_self = sum(self_s for layer, (_, self_s) in table.items() if layer != "bench")
    m["trace.layer_share"] = layer_self / op_time if op_time else 0.0
    m["trace.overhead_frac"] = traced_cycle_s / untraced_cycle_s - 1.0
    m["trace.spans"] = float(spans.name.size) / cycles
    return m


def self_time_table(spans: Spans, cycles: int) -> list[dict]:
    """Rows of (layer, spans per cycle, self seconds per cycle, share of op time)."""
    roots = spans.ids(ROOT)
    op_time = float(spans.dur[roots].sum()) or 1.0
    rows = []
    for layer, (calls, self_s) in spans.layer_table().items():
        rows.append({"layer": layer, "calls": calls / cycles, "self_s": self_s / cycles,
                     "share": self_s / op_time})
    return sorted(rows, key=lambda r: -r["self_s"])
