//! Theorem 2 end-to-end: the deterministic schedulability condition
//! (Eq. (24)) is *sufficient* — greedy traffic never violates a feasible
//! bound in the simulator — and *necessary* for concave envelopes — the
//! adversarial construction, replayed through the real scheduler,
//! produces an actual violation of any infeasible bound.
//!
//! Class ordering: the simulator breaks same-slot ties by class index
//! (lower first). The analysis's delay bound must hold under *any* tie
//! resolution, and the adversarial construction is entitled to the
//! worst one — so in both replays the tagged flow is mapped to the
//! *last* class, making same-instant cross bursts precede it, exactly
//! as in the proof of Theorem 2 (the tagged arrival at `t*` queues
//! behind everything that arrived "by" `t*`).

use linksched::core::{adversarial_scenario, delay_feasible, min_feasible_delay, DeltaScheduler};
use linksched::sim::{replay_single_node, NodePolicy};
use linksched::traffic::DetEnvelope;

const C: f64 = 10.0;

/// Envelopes in analysis order: index 0 is the tagged flow.
fn leaky_envs() -> Vec<DetEnvelope> {
    vec![
        DetEnvelope::leaky_bucket(2.0, 4.0), // flow 0 (tagged)
        DetEnvelope::leaky_bucket(3.0, 6.0), // flow 1
        DetEnvelope::leaky_bucket(1.0, 8.0), // flow 2
    ]
}

/// EDF deadlines in analysis order (tagged flow tightest).
const EDF_DEADLINES: [f64; 3] = [4.0, 12.0, 20.0];

/// Analysis schedulers and the simulator's Δ offsets
/// ([`NodePolicy::Delta`]) describing the *same* link discipline, with
/// the simulator classes permuted to `[flow1, flow2, tagged]` (tagged
/// last — worst tie-break).
fn schedulers() -> Vec<(&'static str, DeltaScheduler, Vec<f64>)> {
    vec![
        ("fifo", DeltaScheduler::fifo(3), vec![0.0; 3]),
        // Simulator order [flow1, flow2, tagged]: tagged lowest priority.
        ("sp", DeltaScheduler::bmux(3, 0), vec![0.0, 0.0, f64::INFINITY]),
        (
            "edf",
            DeltaScheduler::edf(&EDF_DEADLINES),
            vec![EDF_DEADLINES[1], EDF_DEADLINES[2], EDF_DEADLINES[0]],
        ),
    ]
}

/// Slots cumulative arrival curves into per-slot amounts, permuted so
/// the tagged flow (analysis index 0) is the simulator's last class.
fn permute_tagged_last(mut traces: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let tagged = traces.remove(0);
    traces.push(tagged);
    traces
}

/// Slot the greedy (envelope-exact) arrivals of every flow.
fn greedy_traces(envs: &[DetEnvelope], horizon: usize) -> Vec<Vec<f64>> {
    envs.iter()
        .map(|e| {
            (0..horizon)
                .map(|i| e.curve().eval((i + 1) as f64) - e.curve().eval(i as f64))
                .collect()
        })
        .collect()
}

#[test]
fn sufficiency_greedy_traffic_respects_feasible_bound() {
    for (kind, sched, offsets) in schedulers() {
        let envs = leaky_envs();
        let d = min_feasible_delay(C, &sched, &envs, 0)
            .unwrap_or_else(|| panic!("{kind}: no feasible delay"));
        assert!(delay_feasible(C, &sched, &envs, 0, d));
        // Replay greedy arrivals with the worst tie-break for the tagged
        // flow; its delay must stay within d plus discretization slack
        // (slotting front-loads each slot's envelope growth).
        let traces = permute_tagged_last(greedy_traces(&envs, 400));
        let stats = &replay_single_node(C, NodePolicy::Delta(offsets.clone()), &traces)[2];
        let worst = stats.max().unwrap();
        assert!(worst <= d.ceil() + 1.0, "{kind}: greedy delay {worst} exceeds feasible bound {d}");
    }
}

#[test]
fn necessity_adversarial_scenario_violates_infeasible_bound() {
    // Sub-slot resolution: the EDF tight bound here is a fraction of a
    // slot, so the replay runs on a refined grid of step `dt` (capacity
    // and deadlines rescaled accordingly; measured delays scaled back).
    let dt = 0.125;
    for (kind, sched, offsets) in schedulers() {
        let envs = leaky_envs();
        let d_tight = min_feasible_delay(C, &sched, &envs, 0).unwrap();
        // Claim a bound 40% below the tight one: Theorem 2 says some
        // arrival pattern violates it. Build and replay it.
        let d_claim = 0.6 * d_tight;
        let scenario = adversarial_scenario(C, &sched, &envs, 0, d_claim)
            .unwrap_or_else(|| panic!("{kind}: expected an adversarial scenario"));
        assert!(scenario.excess > 0.0);
        let horizon = scenario.t_star + d_tight + 50.0;
        let traces = permute_tagged_last(scenario.slotted_arrivals(dt, horizon));
        // Offsets in fine slots (∞/dt stays ∞).
        let fine_policy = NodePolicy::Delta(offsets.iter().map(|o| o / dt).collect());
        let stats = &replay_single_node(C * dt, fine_policy, &traces)[2];
        let worst = stats.max().unwrap() * dt;
        assert!(
            worst > d_claim,
            "{kind}: adversarial replay delay {worst} did not violate claimed bound {d_claim} \
             (tight bound {d_tight})"
        );
    }
}

#[test]
fn feasible_bound_not_violated_even_by_adversarial_ordering() {
    // Claiming a bound *above* the tight one must survive the same
    // greedy replay that breaks infeasible claims.
    for (kind, sched, offsets) in schedulers() {
        let envs = leaky_envs();
        let d_tight = min_feasible_delay(C, &sched, &envs, 0).unwrap();
        let d_claim = 1.2 * d_tight + 2.0; // +2 slots of discretization slack
        let traces = permute_tagged_last(greedy_traces(&envs, 400));
        let stats = &replay_single_node(C, NodePolicy::Delta(offsets.clone()), &traces)[2];
        assert!(
            stats.max().unwrap() <= d_claim,
            "{kind}: feasible bound violated by greedy replay"
        );
    }
}

#[test]
fn tight_bound_is_actually_attained_by_greedy_traffic() {
    // For FIFO with leaky buckets the tight bound ΣB/C is approached by
    // the greedy scenario (up to slot discretization).
    let sched = DeltaScheduler::fifo(3);
    let envs = leaky_envs();
    let d_tight = min_feasible_delay(C, &sched, &envs, 0).unwrap();
    let traces = permute_tagged_last(greedy_traces(&envs, 400));
    let stats = &replay_single_node(C, NodePolicy::Delta(vec![0.0; 3]), &traces)[2];
    let worst = stats.max().unwrap();
    assert!(
        worst >= d_tight - 2.0,
        "greedy delay {worst} far below the tight bound {d_tight} — bound not tight?"
    );
}
