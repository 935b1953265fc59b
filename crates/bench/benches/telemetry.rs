//! Criterion benchmarks for the telemetry layer itself.
//!
//! Two questions: how fast are the recording primitives, and what does
//! instrumentation cost the simulator smoke workload? Run once with the
//! default features (instrumented) and once with
//! `cargo bench -p nc-bench --no-default-features --bench telemetry`
//! (every recording call compiled out) and compare the `sim_workload`
//! numbers — the integration test `telemetry_overhead` asserts the
//! same comparison automatically within one build via the runtime
//! toggle.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nc_sim::{SchedulerKind, SimConfig, TandemSim};
use nc_telemetry as tel;
use std::hint::black_box;

fn smoke_cfg() -> SimConfig {
    SimConfig {
        capacity: 20.0,
        hops: 2,
        n_through: 40,
        n_cross: 60,
        scheduler: SchedulerKind::Fifo,
        warmup: 0,
        ..SimConfig::default()
    }
}

/// Raw cost of the recording primitives (no-ops without the feature).
fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_primitives");
    static COUNTER: tel::Counter = tel::Counter::new("bench_counter_total");
    static HIST: tel::Timing = tel::Timing::new("bench_hist");
    static TIMER: tel::Timing = tel::Timing::new("bench_timer_seconds");
    g.bench_function("counter", |b| b.iter(|| COUNTER.add(black_box(1))));
    g.bench_function("keyed_counter", |b| {
        b.iter(|| tel::counter(black_box("bench_keyed_counter_total"), 1))
    });
    g.bench_function("observe", |b| b.iter(|| HIST.observe(black_box(1.5))));
    g.bench_function("timer", |b| b.iter(|| drop(TIMER.start())));
    g.bench_function("span", |b| b.iter(|| drop(tel::span(black_box("bench.span")))));
    tel::reset_global();
    tel::reset_spans();
    g.finish();
}

/// The simulator smoke workload, uninstrumented vs. per-node counters
/// vs. counters + delay/backlog histograms (`enable_telemetry`).
fn bench_sim_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_workload");
    let slots = 20_000u64;
    g.sample_size(10);
    g.throughput(Throughput::Elements(slots));
    g.bench_function(if tel::ENABLED { "counters" } else { "erased" }, |b| {
        b.iter(|| {
            let mut sim = TandemSim::new(smoke_cfg(), 1);
            black_box(sim.run(slots))
        })
    });
    g.bench_function("full_histograms", |b| {
        b.iter(|| {
            let mut sim = TandemSim::new(smoke_cfg(), 1);
            sim.enable_telemetry();
            black_box(sim.run(slots))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_primitives, bench_sim_workload);
criterion_main!(benches);
