//! Multi-state Markov (MMP) workloads end-to-end: the source-generic
//! analysis must dominate a hand-rolled multi-hop simulation of the
//! same 3-state sources (the tandem simulator's built-in sources are
//! MMOO; this drives `Node`s directly, mirroring Fig. 1).

use linksched::core::{PathScheduler, SourceTandem};
use linksched::sim::{Chunk, DelayStats, MmpAggregate, Node, NodePolicy};
use linksched::traffic::Mmp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

fn video() -> Mmp {
    Mmp::new(
        vec![vec![0.95, 0.05, 0.00], vec![0.02, 0.95, 0.03], vec![0.00, 0.30, 0.70]],
        vec![0.0, 0.1, 0.5],
    )
}

/// Simulates `hops` FIFO nodes in tandem with fresh MMP cross traffic
/// per node and returns the through aggregate's virtual delays.
fn simulate_tandem_mmp(
    src: &Mmp,
    n_through: usize,
    n_cross: usize,
    capacity: f64,
    hops: usize,
    slots: u64,
    seed: u64,
) -> DelayStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut through = MmpAggregate::stationary(src, n_through, &mut rng);
    let mut cross: Vec<MmpAggregate> =
        (0..hops).map(|_| MmpAggregate::stationary(src, n_cross, &mut rng)).collect();
    let mut nodes: Vec<Node> =
        (0..hops).map(|_| Node::new(capacity, NodePolicy::Fifo, 2)).collect();
    let mut outstanding: VecDeque<(u64, f64)> = VecDeque::new();
    let mut stats = DelayStats::new();
    let warmup = 5_000u64;
    for t in 0..slots {
        let a0 = through.step(&mut rng);
        let mut forwarded = Vec::new();
        if a0 > 0.0 {
            forwarded.push(Chunk { class: 0, bits: a0, entry: t, node_arrival: t });
            outstanding.push_back((t, a0));
        }
        for (h, node) in nodes.iter_mut().enumerate() {
            for c in forwarded.drain(..) {
                node.enqueue(c);
            }
            let ac = cross[h].step(&mut rng);
            if ac > 0.0 {
                node.enqueue(Chunk { class: 1, bits: ac, entry: t, node_arrival: t });
            }
            let last = h + 1 == hops;
            for mut c in node.serve_slot_vec(t) {
                if c.class != 0 {
                    continue;
                }
                if last {
                    let front = outstanding.front_mut().expect("outstanding");
                    front.1 -= c.bits;
                    if front.1 <= 1e-9 {
                        let (entry, _) = outstanding.pop_front().expect("front");
                        if entry >= warmup {
                            stats.record((t - entry) as f64);
                        }
                    }
                } else {
                    c.node_arrival = t;
                    forwarded.push(c);
                }
            }
        }
    }
    stats
}

#[test]
fn mmp_multi_hop_bound_dominates_simulation() {
    let src = video();
    let (n_through, n_cross, capacity, hops) = (40usize, 60usize, 20.0, 3usize);
    let eps = 1e-2;
    let tandem = SourceTandem {
        through_source: &src,
        n_through,
        cross_source: &src,
        n_cross,
        capacity,
        hops,
        scheduler: PathScheduler::Fifo,
    };
    assert!(tandem.utilization() < 1.0, "test setup must be stable");
    let bound = tandem.delay_bound(eps).expect("stable").bound.delay;
    let stats = simulate_tandem_mmp(&src, n_through, n_cross, capacity, hops, 300_000, 0xC0DE);
    assert!(stats.len() > 10_000);
    let emp = stats.violation_fraction(bound);
    assert!(
        emp <= eps * 3.0 + 30.0 / stats.len() as f64,
        "MMP multi-hop: empirical P(W > {bound:.2}) = {emp:.2e} exceeds ε = {eps:.0e}"
    );
}

#[test]
fn mmp_empirical_mean_matches_model() {
    let src = video();
    let mut rng = StdRng::seed_from_u64(9);
    let mut agg = MmpAggregate::stationary(&src, 30, &mut rng);
    let slots = 100_000usize;
    let total: f64 = (0..slots).map(|_| agg.step(&mut rng)).sum();
    let per_flow = total / (slots as f64 * 30.0);
    let want = src.mean_rate();
    assert!((per_flow - want).abs() / want < 0.05, "empirical {per_flow} vs analytical {want}");
}
