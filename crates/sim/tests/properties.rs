//! Property-based tests for the simulator: invariants that must hold
//! for every scheduler, load, and service mode.

use nc_sim::{Chunk, Node, NodePolicy, SchedulerKind, ServiceMode, SimConfig, TandemSim};
use proptest::prelude::*;

/// A Δ offset: zero, a small whole number of slots, or `+∞` (a
/// static-priority level below every finite one).
fn offset() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), (1u32..30).prop_map(f64::from), Just(f64::INFINITY)]
}

/// Any two-class Δ-scheduler: FIFO, static priority, BMUX, EDF and
/// every `delta:<v>` are offset pairs.
fn delta_policy() -> impl Strategy<Value = NodePolicy> {
    (offset(), offset()).prop_map(|(a, b)| NodePolicy::Delta(vec![a, b]))
}

fn any_policy() -> impl Strategy<Value = NodePolicy> {
    prop_oneof![
        delta_policy(),
        (0.1f64..5.0, 0.1f64..5.0).prop_map(|(a, b)| NodePolicy::Gps(vec![a, b])),
    ]
}

/// Arbitrary arrival pattern: (slot gap, class, bits).
fn arrivals() -> impl Strategy<Value = Vec<(u64, usize, f64)>> {
    prop::collection::vec((0u64..3, 0usize..2, 0.1f64..20.0), 1..40)
}

proptest! {
    /// Work conservation: over any horizon the served amount equals
    /// min(offered work up to each slot, capacity) — equivalently, the
    /// node is never idle while backlogged. Checked via: served in a
    /// slot == capacity whenever backlog remains afterwards.
    #[test]
    fn fluid_nodes_are_work_conserving(policy in any_policy(), arr in arrivals(), cap in 1.0f64..20.0) {
        let mut node = Node::new(cap, policy, 2);
        let mut t = 0u64;
        for (gap, class, bits) in arr {
            t += gap;
            node.enqueue(Chunk { class, bits, entry: t, node_arrival: t });
            let served: f64 = node.serve_slot_vec(t).iter().map(|c| c.bits).sum();
            if node.backlog() > 1e-9 {
                prop_assert!((served - cap).abs() < 1e-9,
                    "idle while backlogged: served {served}, backlog {}", node.backlog());
            }
            t += 1;
        }
    }

    /// Conservation of data: total enqueued == total served + final backlog.
    #[test]
    fn no_data_created_or_lost(policy in any_policy(), arr in arrivals(), cap in 1.0f64..20.0) {
        let mut node = Node::new(cap, policy, 2);
        let mut enqueued = 0.0;
        let mut served = 0.0;
        let mut t = 0u64;
        for (gap, class, bits) in arr {
            t += gap;
            node.enqueue(Chunk { class, bits, entry: t, node_arrival: t });
            enqueued += bits;
            served += node.serve_slot_vec(t).iter().map(|c| c.bits).sum::<f64>();
            t += 1;
        }
        // Drain.
        for _ in 0..10_000 {
            if node.backlog() <= 1e-9 {
                break;
            }
            served += node.serve_slot_vec(t).iter().map(|c| c.bits).sum::<f64>();
            t += 1;
        }
        prop_assert!((enqueued - served).abs() < 1e-6,
            "enqueued {enqueued} vs served {served}");
    }

    /// Non-preemptive mode conserves data too, and departures are whole
    /// chunks.
    #[test]
    fn nonpreemptive_conserves_and_departs_whole(
        policy in delta_policy(),
        arr in arrivals(),
        cap in 1.0f64..20.0,
    ) {
        let mut node = Node::with_mode(cap, policy, 2, ServiceMode::NonPreemptive);
        let mut sizes: Vec<f64> = Vec::new();
        let mut out_sizes: Vec<f64> = Vec::new();
        let mut t = 0u64;
        for (gap, class, bits) in arr {
            t += gap;
            node.enqueue(Chunk { class, bits, entry: t, node_arrival: t });
            sizes.push(bits);
            out_sizes.extend(node.serve_slot_vec(t).iter().map(|c| c.bits));
            t += 1;
        }
        for _ in 0..10_000 {
            if node.backlog() <= 1e-9 {
                break;
            }
            out_sizes.extend(node.serve_slot_vec(t).iter().map(|c| c.bits));
            t += 1;
        }
        prop_assert_eq!(sizes.len(), out_sizes.len(), "every chunk departs exactly once");
        let mut a = sizes.clone();
        let mut b = out_sizes.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9, "chunk departed with altered size");
        }
    }

    /// Only `Δ = o0 − o1` matters (the paper's Definition 1): shifting
    /// both offsets by the same whole number of slots leaves every
    /// departure unchanged, fluid and non-preemptive alike. Whole
    /// numbers keep the f64 keys exact.
    #[test]
    fn shifting_every_offset_keeps_the_departures(
        o0 in offset(),
        o1 in offset(),
        c in 1u32..50,
        arr in arrivals(),
        cap in 1.0f64..20.0,
    ) {
        let c = f64::from(c);
        for mode in [ServiceMode::Fluid, ServiceMode::NonPreemptive] {
            let mut a = Node::with_mode(cap, NodePolicy::Delta(vec![o0, o1]), 2, mode);
            let mut b = Node::with_mode(cap, NodePolicy::Delta(vec![o0 + c, o1 + c]), 2, mode);
            let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
            let mut t = 0u64;
            for &(gap, class, bits) in &arr {
                t += gap;
                let chunk = Chunk { class, bits, entry: t, node_arrival: t };
                a.enqueue(chunk);
                b.enqueue(chunk);
                a.serve_slot(t, &mut out_a);
                b.serve_slot(t, &mut out_b);
                t += 1;
            }
            while a.backlog() > 1e-9 {
                a.serve_slot(t, &mut out_a);
                b.serve_slot(t, &mut out_b);
                t += 1;
            }
            prop_assert_eq!(&out_a, &out_b, "{:?}: departures depend on more than Δ", mode);
        }
    }

    /// Through-flow samples: no delay outlasts the run and the count
    /// never exceeds the number of emission slots.
    #[test]
    fn tandem_sample_counts_are_sane(
        seed in 0u64..1000,
        hops in 1usize..4,
        n_cross in 0usize..40,
    ) {
        let cfg = SimConfig {
            capacity: 15.0,
            hops,
            n_through: 10,
            n_cross,
            warmup: 100,
            ..SimConfig::default()
        };
        let slots = 3_000u64;
        let mut sim = TandemSim::new(cfg, seed);
        let stats = sim.run(slots);
        prop_assert!(stats.len() as u64 <= slots);
        prop_assert!(stats.max().is_none_or(|d| d < slots as f64));
    }

    /// Priority dominance on identical arrivals: giving the through
    /// class strict priority never yields larger mean delay than giving
    /// it the lowest priority, for the same seed.
    #[test]
    fn priority_dominance_per_seed(seed in 0u64..200) {
        let base = SimConfig {
            capacity: 15.0,
            hops: 2,
            n_through: 10,
            n_cross: 30,
            warmup: 500,
            ..SimConfig::default()
        };
        let hi = TandemSim::new(
            SimConfig { scheduler: SchedulerKind::ThroughPriority, ..base }, seed,
        )
        .run(20_000);
        let lo = TandemSim::new(SimConfig { scheduler: SchedulerKind::Bmux, ..base }, seed)
            .run(20_000);
        // Same seed ⇒ identical arrival sample paths ⇒ dominance is
        // sample-path-wise for the mean (up to fp noise).
        prop_assert!(hi.mean().unwrap() <= lo.mean().unwrap() + 1e-9,
            "priority {} vs bmux {}", hi.mean().unwrap(), lo.mean().unwrap());
    }
}
