"""Per-layer metrics of the traced run.

Inputs: the program's own counters (`linksched run --metrics-out`, in
Prometheus text form), the parsed table, and the per-call times the
probe binary measured at the workload's witness cell.

Self time is an estimate: a layer's per-call time minus the time of the
child calls one of its calls makes (child counts measured by the probe
itself), times how often the program called the layer. Counts are the
program's and repeat exactly for one seed; times do not.
"""

import re

import tables

SCHEDULERS = ("fifo", "bmux", "sp", "edf", "gps")

# Counters the program bumps by more than one per call, mapped to the
# counter that counts those calls (None: bumped once per run).
_BULK_COUNTERS = {"core_solver_evals_total": "core_solver_calls_total", "sweep_cells_total": None}

_SAMPLE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$")


def parse_prometheus(text):
    """{(name, labels): value} and {name: type} of a Prometheus text export."""
    values, types = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()[:4]
            types[name] = kind
            continue
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError(f"bad metrics line `{line}`")
        values[(m.group("name"), m.group("labels") or "")] = float(m.group("value"))
    return values, types


class Counters:
    """Lookup over a parsed export; missing metrics read as 0."""

    def __init__(self, text):
        self.values, self.types = parse_prometheus(text)

    def get(self, name):
        return self.values.get((name, ""), 0.0)

    def counts(self):
        """Every counter, for comparing two runs (times excluded)."""
        return {k: v for k, v in self.values.items() if self.types.get(k[0]) == "counter"}

    def total(self, name):
        """Sum over every label set of `name`."""
        return sum(v for (n, _), v in self.values.items() if n == name)

    def global_events(self):
        """Recording calls that went through the global registry lock:
        counter increments plus histogram observations. The simulator's
        `sim_*`/`mc_*` metrics are recorded into per-replication shards
        and merged once, so they are left out."""
        events = 0.0
        for (name, _), v in self.values.items():
            if name.startswith(("sim_", "mc_")):
                continue
            if name in _BULK_COUNTERS:
                per_call = _BULK_COUNTERS[name]
                events += self.get(per_call) if per_call else 1.0
            elif self.types.get(name) == "counter":
                events += v
            elif name.endswith("_count") and self.types.get(name[: -len("_count")]) == "histogram":
                events += v
        return events


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(counters, probes, table, traced, untraced, threads):
    """Every per-layer metric, as {name: (value, unit)}.

    `traced`/`untraced` are the two invocation records (wall and cpu
    seconds); `threads` is the workload's `--threads`."""
    c, p = counters, probes
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    # nc-core: Eq. (38) kernel and σ (Eq. (34)), both leaves.
    solver_calls = c.get("core_solver_calls_total")
    put("core.solver.calls", solver_calls, "count")
    put("core.solver.evals", c.get("core_solver_evals_total"), "count")
    put("core.solver.evals_per_call", _ratio(c.get("core_solver_evals_total"), solver_calls), "count")
    put("core.solver.us", p["core.solver.s"] * 1e6, "us")
    put("core.solver.self_s", p["core.solver.s"] * solver_calls, "s")
    sigma_calls = c.get("core_netbound_sigma_calls_total")
    put("core.sigma.calls", sigma_calls, "count")
    put("core.sigma.ns", p["core.sigma.s"] * 1e9, "ns")
    put("core.sigma.self_s", p["core.sigma.s"] * sigma_calls, "s")

    # γ search: TandemPath::delay_bound; its children are γ evaluations.
    gsearch = p["core.gamma_search.s"]
    evals_per_search = p["core.gamma_search.per_call.core_gamma_evals_total"]
    gsearch_self = max(0.0, gsearch - evals_per_search * p["core.gamma_eval.s"])
    put("core.gamma_evals", c.get("core_gamma_evals_total"), "count")
    put("core.gamma_search.us", gsearch * 1e6, "us")
    put("core.gamma_eval.us", p["core.gamma_eval.s"] * 1e6, "us")
    put("core.gamma_search.self_s", gsearch_self * c.get("core_delay_bound_calls_total"), "s")

    # s search: MmooTandem::delay_bound; children are γ searches. Self
    # time is charged per s evaluation.
    s_evals = c.get("core_s_evals_total")
    ssearch = p["core.s_search.s"]
    ssearch_self = max(0.0, ssearch - p["core.s_search.per_call.core_delay_bound_calls_total"] * gsearch)
    put("core.s_evals", s_evals, "count")
    put("core.s_search.ms", ssearch * 1e3, "ms")
    put("core.s_search.self_s",
        _ratio(ssearch_self, p["core.s_search.per_call.core_s_evals_total"]) * s_evals, "s")

    # EDF fixed point: one call per EDF cell (an s search over fixed
    # points); children are γ searches. Self time is charged per
    # iteration.
    edf_calls, edf_unbounded = tables.edf_cells(table)
    iterations = c.get("core_edf_fixed_point_iterations_total")
    edf = p["core.edf.s"]
    edf_self = max(0.0, edf - p["core.edf.per_call.core_delay_bound_calls_total"] * gsearch)
    put("core.edf.calls", edf_calls, "count")
    put("core.edf.iterations", iterations, "count")
    put("core.edf.iterations_per_call", _ratio(iterations, edf_calls), "count")
    put("core.edf.unbounded", edf_unbounded, "count")
    put("core.edf.ms", edf * 1e3, "ms")
    put("core.edf.self_s",
        _ratio(edf_self, p["core.edf.per_call.core_edf_fixed_point_iterations_total"]) * iterations,
        "s")
    put("core.additive.ms", p["core.additive.s"] * 1e3, "ms")

    hits, misses = c.get("core_solver_cache_hits_total"), c.get("core_solver_cache_misses_total")
    put("core.cache.probes", hits + misses, "count")
    put("core.cache.hit_ratio", _ratio(hits, hits + misses), "ratio")

    # nc-sim.
    put("sim.slots", c.get("sim_slots_total"), "count")
    put("sim.decisions", c.total("sim_node_scheduler_decisions_total"), "count")
    put("sim.delay_samples", c.get("sim_delay_samples_total"), "count")
    for s in SCHEDULERS:
        put(f"sim.run.ns_per_slot.{s}", p[f"sim.run.s_per_slot.{s}"] * 1e9, "ns")
        put(f"sim.serve_slot.ns.{s}", p[f"sim.serve_slot.s.{s}"] * 1e9, "ns")
    put("sim.stats.record.ns", p["sim.stats.record.s"] * 1e9, "ns")
    put("sim.stats.merge.us", p["sim.stats.merge.s"] * 1e6, "us")
    put("sim.stats.quantile.us", p["sim.stats.quantile.s"] * 1e6, "us")
    put("sim.mc.busy_share",
        _ratio(c.get("mc_replication_seconds_sum"), traced["wall_s"] * threads), "ratio")

    # nc-minplus.
    put("minplus.convolutions", c.get("minplus_convolution_total"), "count")
    put("minplus.convolve.us", p["minplus.convolve.s"] * 1e6, "us")

    # nc-telemetry: global-registry events and the cost of one.
    events = c.global_events()
    per_event = p["telemetry.counter.s.2t"] if threads > 1 else p["telemetry.counter.s.1t"]
    put("telemetry.events", events, "count")
    put("telemetry.counter.ns.1t", p["telemetry.counter.s.1t"] * 1e9, "ns")
    put("telemetry.counter.ns.2t", p["telemetry.counter.s.2t"] * 1e9, "ns")
    put("telemetry.est_share", _ratio(events * per_event, traced["cpu_s"]), "ratio")

    # nc-scenario.
    put("scenario.load_ms", p["scenario.load.s"] * 1e3, "ms")
    put("scenario.sweep.busy_share",
        _ratio(c.total("sweep_worker_busy_seconds"),
               c.get("sweep_wall_seconds") * c.get("sweep_workers")), "ratio")
    put("scenario.sweep.cells", c.get("sweep_cells_total"), "count")

    put("trace.overhead_share", _ratio(traced["wall_s"], untraced["wall_s"]), "ratio")
    return m
