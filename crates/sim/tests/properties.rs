//! Property-based tests for the simulator: invariants that must hold
//! for every scheduler, load, and service mode.

use nc_sim::{
    Chunk, FaultInjector, FaultModel, FaultPlan, Node, NodePolicy, SchedulerKind, ServiceMode,
    SimConfig, TandemSim,
};
use proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = NodePolicy> {
    prop_oneof![
        Just(NodePolicy::Fifo),
        (0u32..3, 0u32..3).prop_map(|(a, b)| NodePolicy::StaticPriority(vec![a, b])),
        (0.5f64..30.0, 0.5f64..30.0).prop_map(|(a, b)| NodePolicy::Edf(vec![a, b])),
        (0.1f64..5.0, 0.1f64..5.0).prop_map(|(a, b)| NodePolicy::Gps(vec![a, b])),
    ]
}

fn nongps_policy() -> impl Strategy<Value = NodePolicy> {
    prop_oneof![
        Just(NodePolicy::Fifo),
        (0u32..3, 0u32..3).prop_map(|(a, b)| NodePolicy::StaticPriority(vec![a, b])),
        (0.5f64..30.0, 0.5f64..30.0).prop_map(|(a, b)| NodePolicy::Edf(vec![a, b])),
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
        policy in nongps_policy(),
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

/// Arbitrary valid fault model (parameters inside the validated ranges).
fn any_fault_model() -> impl Strategy<Value = FaultModel> {
    prop_oneof![
        // p_repair must be positive: a zero-repair link never recovers.
        (0.0f64..=1.0, 0.001f64..=1.0, 0.0f64..=1.0).prop_map(
            |(p_fail, p_repair, capacity_factor)| FaultModel::GilbertElliott {
                p_fail,
                p_repair,
                capacity_factor,
            }
        ),
        (0.0f64..=1.0, 0.0f64..=1.0)
            .prop_map(|(prob, factor)| FaultModel::Degradation { prob, factor }),
        (0.0f64..=1.0, 1u64..50).prop_map(|(prob, duration)| FaultModel::Stall { prob, duration }),
        (0.0f64..=1.0).prop_map(|prob| FaultModel::Drop { prob }),
    ]
}

fn any_fault_plan() -> impl Strategy<Value = FaultPlan> {
    prop_oneof![
        prop::collection::vec(any_fault_model(), 1..4)
            .prop_map(|m| FaultPlan::uniform(m).expect("valid models")),
        prop::collection::vec(prop::collection::vec(any_fault_model(), 0..3), 1..4)
            .prop_map(|per| FaultPlan::per_node(per).expect("valid models")),
    ]
}

proptest! {
    /// The faulted effective capacity never exceeds the nominal link
    /// capacity, for any stack of fault models, any seed, and any slot.
    #[test]
    fn faulted_capacity_never_exceeds_nominal(
        plan in any_fault_plan(),
        seed in 0u64..u64::MAX,
        nominal in 0.1f64..200.0,
    ) {
        let hops = plan.node_count().unwrap_or(3);
        let mut inj = FaultInjector::new(&plan, hops, seed).expect("plan fits");
        for _slot in 0..500 {
            for node in 0..hops {
                let eff = inj.begin_slot(node, nominal);
                prop_assert!(
                    (0.0..=nominal).contains(&eff),
                    "effective capacity {eff} outside [0, {nominal}]"
                );
            }
        }
    }

    /// Fault streams are a pure function of (plan, seed): two injectors
    /// over the same plan and seed produce bitwise-identical capacity
    /// sequences and drop decisions.
    #[test]
    fn fault_streams_replay_bitwise(
        plan in any_fault_plan(),
        seed in 0u64..u64::MAX,
    ) {
        let hops = plan.node_count().unwrap_or(2);
        let mut a = FaultInjector::new(&plan, hops, seed).expect("plan fits");
        let mut b = FaultInjector::new(&plan, hops, seed).expect("plan fits");
        for _slot in 0..200 {
            for node in 0..hops {
                prop_assert_eq!(
                    a.begin_slot(node, 25.0).to_bits(),
                    b.begin_slot(node, 25.0).to_bits()
                );
                if a.has_drops() {
                    prop_assert_eq!(a.drop_arrival(node), b.drop_arrival(node));
                }
            }
        }
    }
}
