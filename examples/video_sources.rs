//! Beyond on-off: delay bounds for multi-state Markov-modulated video
//! traffic.
//!
//! The paper's examples use two-state on-off sources; the analysis only
//! needs an effective-bandwidth bound, which `nc-traffic` computes for
//! *any* finite Markov modulation by power iteration. This example
//! provisions a three-state video-like workload (idle / base layer /
//! burst) across a 6-hop path and cross-checks the analytical bound
//! against a simulation of the same multi-state sources.
//!
//! Run with `cargo run --release --example video_sources`.

use linksched::core::{PathScheduler, SourceTandem};
use linksched::sim::{DelayStats, MmpAggregate, Node, NodePolicy};
use linksched::traffic::Mmp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

fn video() -> Mmp {
    // Rates in kb per 1 ms slot: idle, base layer (0.4 Mbps), burst (2 Mbps).
    Mmp::new(
        vec![vec![0.95, 0.05, 0.00], vec![0.02, 0.95, 0.03], vec![0.00, 0.30, 0.70]],
        vec![0.0, 0.4, 2.0],
    )
}

fn main() {
    let src = video();
    println!(
        "3-state video source: mean {:.2} Mbps, peak {:.1} Mbps, eb(0.1) = {:.2} Mbps",
        src.mean_rate(),
        src.peak_rate(),
        src.effective_bandwidth(0.1)
    );

    let (n_through, n_cross, capacity, hops) = (40usize, 60usize, 100.0, 6usize);
    let tandem = SourceTandem {
        through_source: &src,
        n_through,
        cross_source: &src,
        n_cross,
        capacity,
        hops,
        scheduler: PathScheduler::Fifo,
    };
    println!(
        "Path: H = {hops} at {capacity} Mbps, {n_through}+{n_cross} video flows \
         (U = {:.0}%)\n",
        tandem.utilization() * 100.0
    );
    for (name, sched) in [
        ("BMUX", PathScheduler::Bmux),
        ("FIFO", PathScheduler::Fifo),
        ("SP(through)", PathScheduler::ThroughPriority),
    ] {
        match (SourceTandem { scheduler: sched, ..tandem }).delay_bound(1e-9) {
            Some(b) => println!("{name:>12}: P(W > {:7.2} ms) < 1e-9", b.bound.delay),
            None => println!("{name:>12}: unstable"),
        }
    }

    // Quick single-node empirical cross-check (the tandem simulator is
    // MMOO-specific; here we drive a FIFO node with MMP aggregates
    // directly).
    println!("\nSingle-node empirical check (FIFO, 300k slots):");
    let eps = 1e-3;
    let single = SourceTandem { hops: 1, ..tandem };
    let bound = single.delay_bound(eps).expect("stable").bound.delay;
    let mut rng = StdRng::seed_from_u64(2026);
    let mut through = MmpAggregate::stationary(&src, n_through, &mut rng);
    let mut cross = MmpAggregate::stationary(&src, n_cross, &mut rng);
    let mut node = Node::new(capacity, NodePolicy::Fifo, 2);
    let mut outstanding: VecDeque<(u64, f64)> = VecDeque::new();
    let mut stats = DelayStats::new();
    for t in 0..300_000u64 {
        let a0 = through.step(&mut rng);
        if a0 > 0.0 {
            node.enqueue(linksched::sim::Chunk { class: 0, bits: a0, entry: t, node_arrival: t });
            outstanding.push_back((t, a0));
        }
        let a1 = cross.step(&mut rng);
        if a1 > 0.0 {
            node.enqueue(linksched::sim::Chunk { class: 1, bits: a1, entry: t, node_arrival: t });
        }
        for c in node.serve_slot_vec(t) {
            if c.class != 0 {
                continue;
            }
            let front = outstanding.front_mut().expect("outstanding entry");
            front.1 -= c.bits;
            if front.1 <= 1e-9 {
                let (entry, _) = outstanding.pop_front().expect("front");
                if entry > 5_000 {
                    stats.record((t - entry) as f64);
                }
            }
        }
    }
    let emp = stats.violation_fraction(bound);
    println!(
        "analytical P(W > {bound:.2} ms) < {eps:.0e}; empirical frequency {emp:.1e} \
         over {} samples — bound {}",
        stats.len(),
        if emp <= eps { "holds" } else { "VIOLATED" }
    );
    assert!(emp <= eps * 3.0 + 30.0 / stats.len() as f64);
}
