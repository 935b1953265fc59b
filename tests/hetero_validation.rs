//! Validation of the non-homogeneous path analysis (Section IV's
//! extension) against the simulator with per-node capacities.

use linksched::core::{HeteroNode, HeteroPath, PathScheduler};
use linksched::sim::{Lane, SchedulerKind, SimConfig, TandemSim};
use linksched::traffic::Mmoo;

#[test]
fn hetero_bound_dominates_simulation_with_bottleneck() {
    let source = Mmoo::paper_source();
    let (n_through, n_cross) = (40usize, 60usize);
    let capacities = [24.0, 18.0, 24.0];
    let eps = 1e-2;

    // Analysis: per-node capacity, same cross aggregate at each node.
    // The s-optimization of MmooTandem is homogeneous-only, so sweep s
    // here explicitly.
    let mut best: Option<f64> = None;
    for i in 1..=40 {
        let s = 0.002 * (1.35f64).powi(i);
        if s * source.peak() > 650.0 {
            break;
        }
        let through = source.ebb(s, n_through);
        let cross = source.ebb(s, n_cross);
        let nodes = capacities
            .iter()
            .map(|&c| HeteroNode { capacity: c, cross, scheduler: PathScheduler::Fifo })
            .collect();
        let path = HeteroPath::new(through, nodes);
        if let Some(b) = path.delay_bound(eps) {
            if best.is_none_or(|cur| b.delay < cur) {
                best = Some(b.delay);
            }
        }
    }
    let bound = best.expect("stable heterogeneous path");

    // Simulation with matching per-node capacities.
    let cfg = SimConfig {
        capacity: 0.0, // ignored: the capacities are per node
        hops: capacities.len(),
        n_through,
        n_cross,
        source,
        scheduler: SchedulerKind::Fifo,
        warmup: 5_000,
        packet_size: None,
    };
    let stats = TandemSim::with_lanes(&[Lane::new(cfg).capacities(Some(capacities.to_vec()))], 77)
        .run(400_000);
    assert!(stats.len() > 10_000);
    let emp = stats.violation_fraction(bound);
    assert!(
        emp <= eps * 3.0 + 30.0 / stats.len() as f64,
        "hetero: empirical P(W > {bound:.2}) = {emp:.2e} exceeds ε = {eps:.0e}"
    );
}

#[test]
fn hetero_reduces_to_homogeneous_in_simulation() {
    // Same total: uniform capacities vs HeteroPath with equal nodes must
    // give statistically indistinguishable distributions (same seeds).
    let source = Mmoo::paper_source();
    let cfg = SimConfig {
        capacity: 20.0,
        hops: 3,
        n_through: 40,
        n_cross: 60,
        source,
        scheduler: SchedulerKind::Fifo,
        warmup: 2_000,
        packet_size: None,
    };
    let a = TandemSim::new(cfg, 5).run(100_000);
    let b =
        TandemSim::with_lanes(&[Lane::new(cfg).capacities(Some(vec![20.0; 3]))], 5).run(100_000);
    assert_eq!(a, b);
}
