//! End-to-end validation: the analytical delay bounds of `nc-core` must
//! dominate the empirical delay distribution produced by the `nc-sim`
//! tandem simulator.
//!
//! ε = 10⁻⁹ (the paper's setting) is unreachable by simulation, so the
//! bounds are recomputed at ε = 10⁻²…10⁻³ and compared against the
//! empirical violation fraction with a one-sided confidence margin.

use linksched::core::{MmooTandem, PathScheduler};
use linksched::sim::{DelayStats, SchedulerKind, SimConfig, TandemSim};
use linksched::traffic::Mmoo;

/// Scaled-down paper setup: C = 20 kb/ms so moderate flow counts load
/// the link, keeping simulation time manageable.
fn setup(hops: usize, n_through: usize, n_cross: usize) -> (MmooTandem, SimConfig) {
    let source = Mmoo::paper_source();
    let analysis = MmooTandem {
        source,
        n_through,
        n_cross,
        capacity: 20.0,
        hops,
        scheduler: PathScheduler::Fifo,
    };
    let sim = SimConfig {
        capacity: 20.0,
        hops,
        n_through,
        n_cross,
        source,
        scheduler: SchedulerKind::Fifo,
        warmup: 5_000,
        packet_size: None,
    };
    (analysis, sim)
}

/// Checks `P(W > bound) ≤ ε` empirically for a scheduler pair.
fn assert_bound_holds(
    analysis: MmooTandem,
    sim_cfg: SimConfig,
    eps: f64,
    slots: u64,
    seed: u64,
    label: &str,
) -> (f64, f64) {
    let bound = analysis
        .delay_bound(eps)
        .unwrap_or_else(|| panic!("{label}: no analytical bound"))
        .bound
        .delay;
    let stats = TandemSim::new(sim_cfg, seed).run(slots);
    assert!(stats.len() > 10_000, "{label}: too few samples ({})", stats.len());
    let emp = stats.violation_fraction(bound);
    // The bound must dominate the empirical violation frequency; allow
    // binomial noise via a generous multiple plus an absolute term.
    assert!(
        emp <= eps * 3.0 + 30.0 / stats.len() as f64,
        "{label}: empirical P(W > {bound:.2}) = {emp:.2e} exceeds ε = {eps:.0e}"
    );
    (bound, emp)
}

#[test]
fn fifo_bound_dominates_simulation() {
    for hops in [1usize, 3] {
        let (analysis, sim) = setup(hops, 40, 60);
        assert_bound_holds(analysis, sim, 1e-2, 300_000, 42, &format!("FIFO H={hops}"));
    }
}

#[test]
fn bmux_bound_dominates_simulation() {
    let (mut analysis, mut sim) = setup(2, 40, 60);
    analysis.scheduler = PathScheduler::Bmux;
    sim.scheduler = SchedulerKind::Bmux;
    assert_bound_holds(analysis, sim, 1e-2, 300_000, 43, "BMUX H=2");
}

#[test]
fn through_priority_bound_dominates_simulation() {
    let (mut analysis, mut sim) = setup(2, 40, 60);
    analysis.scheduler = PathScheduler::ThroughPriority;
    sim.scheduler = SchedulerKind::ThroughPriority;
    assert_bound_holds(analysis, sim, 1e-2, 300_000, 44, "SP-through H=2");
}

#[test]
fn edf_bound_dominates_simulation() {
    // Fixed per-node deadlines for through and cross traffic.
    let (d0, dc) = (10.0, 40.0);
    let (mut analysis, mut sim) = setup(2, 40, 60);
    analysis.scheduler = PathScheduler::Edf { d_through: d0, d_cross: dc };
    sim.scheduler = SchedulerKind::Edf { d_through: d0, d_cross: dc };
    assert_bound_holds(analysis, sim, 1e-2, 300_000, 45, "EDF H=2");
}

#[test]
fn bmux_bound_also_covers_gps() {
    // GPS is not a Δ-scheduler, but BMUX upper-bounds every
    // work-conserving locally-FIFO scheduler — including GPS.
    let (mut analysis, mut sim) = setup(2, 40, 60);
    analysis.scheduler = PathScheduler::Bmux;
    sim.scheduler = SchedulerKind::Gps { w_through: 1.0, w_cross: 1.0 };
    assert_bound_holds(analysis, sim, 1e-2, 300_000, 46, "GPS under BMUX bound H=2");
}

#[test]
fn bmux_bound_also_covers_scfq() {
    // Same for SCFQ, the packet approximation of GPS.
    let (mut analysis, mut sim) = setup(2, 40, 60);
    analysis.scheduler = PathScheduler::Bmux;
    sim.scheduler = SchedulerKind::Scfq { w_through: 1.0, w_cross: 1.0 };
    assert_bound_holds(analysis, sim, 1e-2, 300_000, 47, "SCFQ under BMUX bound H=2");
}

#[test]
fn scfq_tracks_gps_within_packet_granularity() {
    // The classical SCFQ result: per-class service lags GPS by at most
    // a few packet times; the simulated delay quantiles must be close.
    let (_, sim) = setup(2, 40, 60);
    let q = |k: SchedulerKind| {
        let mut stats = TandemSim::new(SimConfig { scheduler: k, ..sim }, 123).run(300_000);
        stats.quantile(0.999).unwrap()
    };
    let gps = q(SchedulerKind::Gps { w_through: 1.0, w_cross: 1.0 });
    let scfq = q(SchedulerKind::Scfq { w_through: 1.0, w_cross: 1.0 });
    assert!((scfq - gps).abs() <= 0.25 * gps + 3.0, "SCFQ q999 {scfq} far from GPS q999 {gps}");
}

#[test]
fn backlog_bound_dominates_simulation() {
    // Single node: the analytical backlog bound at ε must dominate the
    // empirical per-slot backlog distribution of the through class.
    use linksched::core::{single_node_backlog_bound, DeltaScheduler};
    let source = Mmoo::paper_source();
    let (capacity, n_through, n_cross) = (20.0, 40usize, 60usize);
    let eps = 1e-2;
    // Analysis at a swept moment parameter (best bound wins).
    let mut best: Option<f64> = None;
    for i in 1..=30 {
        let s = 0.005 * (1.3f64).powi(i);
        let gamma_max = capacity - (n_through + n_cross) as f64 * source.effective_bandwidth(s);
        if gamma_max <= 0.0 {
            continue;
        }
        for frac in [0.2, 0.5, 0.8] {
            let gamma = gamma_max * frac / 2.0;
            let envs = vec![
                source.ebb(s, n_through).sample_path_envelope(gamma),
                source.ebb(s, n_cross).sample_path_envelope(gamma),
            ];
            if let Some(b) =
                single_node_backlog_bound(capacity, &DeltaScheduler::fifo(2), &envs, 0, eps)
            {
                if best.is_none_or(|cur| b.backlog < cur) {
                    best = Some(b.backlog);
                }
            }
        }
    }
    let bound = best.expect("stable node");
    let (_, sim_cfg) = setup(1, n_through, n_cross);
    let mut sim = TandemSim::new(sim_cfg, 91);
    // The through-class backlog at the node after each post-warm-up
    // slot's service.
    let mut stats = DelayStats::new();
    for _ in 0..300_000 {
        let t = sim.slot();
        sim.step();
        if t >= sim_cfg.warmup {
            stats.record(sim.lane(0).node(0).class_backlog(0));
        }
    }
    assert!(stats.len() > 100_000);
    let emp = stats.violation_fraction(bound);
    assert!(
        emp <= eps * 3.0 + 30.0 / stats.len() as f64,
        "backlog: empirical P(B > {bound:.1}) = {emp:.2e} exceeds ε = {eps:.0e}"
    );
}

#[test]
fn analytical_ordering_matches_simulated_ordering() {
    // The analysis predicts EDF(short through deadline) < FIFO < BMUX;
    // the simulated 99.9% delay quantiles must follow the same order.
    let (analysis, sim) = setup(2, 40, 60);
    let eps = 1e-3;
    let slots = 400_000u64;

    let a_fifo = analysis.delay_bound(eps).unwrap().bound.delay;
    let a_bmux = MmooTandem { scheduler: PathScheduler::Bmux, ..analysis }
        .delay_bound(eps)
        .unwrap()
        .bound
        .delay;
    let a_edf =
        MmooTandem { scheduler: PathScheduler::Edf { d_through: 5.0, d_cross: 50.0 }, ..analysis }
            .delay_bound(eps)
            .unwrap()
            .bound
            .delay;
    assert!(a_edf <= a_fifo && a_fifo <= a_bmux);

    let q = |k: SchedulerKind, seed: u64| {
        let mut stats = TandemSim::new(SimConfig { scheduler: k, ..sim }, seed).run(slots);
        stats.quantile(0.999).unwrap()
    };
    let s_fifo = q(SchedulerKind::Fifo, 7);
    let s_bmux = q(SchedulerKind::Bmux, 7);
    let s_edf = q(SchedulerKind::Edf { d_through: 5.0, d_cross: 50.0 }, 7);
    assert!(s_edf <= s_fifo + 2.0, "simulated EDF {s_edf} vs FIFO {s_fifo}");
    assert!(s_fifo <= s_bmux + 2.0, "simulated FIFO {s_fifo} vs BMUX {s_bmux}");
    // And every simulated quantile sits below its analytical bound.
    assert!(s_fifo <= a_fifo, "simulated {s_fifo} above bound {a_fifo}");
    assert!(s_bmux <= a_bmux, "simulated {s_bmux} above bound {a_bmux}");
    assert!(s_edf <= a_edf, "simulated {s_edf} above bound {a_edf}");
}
