//! A tandem simulation with several lanes draws its arrivals once and
//! serves them to every lane. Each lane must then measure exactly what
//! a one-lane simulation of it measures under the same seed: the same
//! delay samples, threshold counts, lost emissions, fault counters and
//! telemetry, bit for bit.

use linksched::sim::{FaultModel, FaultPlan, Lane, SchedulerKind, SimConfig, TandemSim};
use linksched::traffic::Mmoo;

const SLOTS: u64 = 12_000;
const SEED: u64 = 0x1A_4E5;

fn cfg(packet_size: Option<f64>) -> SimConfig {
    SimConfig {
        capacity: 20.0,
        hops: 3,
        n_through: 40,
        n_cross: 60,
        source: Mmoo::paper_source(),
        scheduler: SchedulerKind::Fifo,
        warmup: 1_000,
        packet_size,
    }
}

fn faults() -> Option<FaultPlan> {
    let plan = FaultPlan::uniform(vec![
        FaultModel::GilbertElliott { p_fail: 0.002, p_repair: 0.05, capacity_factor: 0.0 },
        FaultModel::Degradation { prob: 0.02, factor: 0.5 },
        FaultModel::Stall { prob: 0.001, duration: 10 },
        FaultModel::Drop { prob: 0.002 },
    ]);
    Some(plan.expect("valid fault plan"))
}

/// Lanes covering every scheduler the mode allows (packetized GPS is
/// not modelled), clean and faulted links, uniform and heterogeneous
/// capacities.
fn lanes(packet_size: Option<f64>) -> Vec<Lane> {
    let base = cfg(packet_size);
    let gps = SchedulerKind::Gps { w_through: 1.0, w_cross: 1.0 };
    let lanes = vec![
        (SchedulerKind::Fifo, None, None),
        (SchedulerKind::Bmux, None, faults()),
        (SchedulerKind::ThroughPriority, Some(vec![22.0, 18.0, 24.0]), None),
        (
            SchedulerKind::Edf { d_through: 10.0, d_cross: 40.0 },
            Some(vec![20.0, 17.0, 20.0]),
            faults(),
        ),
        (gps, None, None),
        (
            SchedulerKind::Scfq { w_through: 1.0, w_cross: 1.0 },
            Some(vec![21.0, 19.0, 21.0]),
            faults(),
        ),
    ];
    lanes
        .into_iter()
        .filter(|(scheduler, ..)| packet_size.is_none() || *scheduler != gps)
        .map(|(scheduler, capacities, faults)| {
            Lane::new(SimConfig { scheduler, ..base }).capacities(capacities).faults(faults)
        })
        .collect()
}

/// Everything a lane measured: its exact delay histogram, losses,
/// fault counters and telemetry.
fn fingerprint(sim: &TandemSim, k: usize) -> impl PartialEq + std::fmt::Debug {
    let lane = sim.lane(k);
    let counters = lane
        .fault_counters()
        .map(|fc| (fc.degraded_slots.clone(), fc.outage_slots.clone(), fc.dropped_chunks.clone()));
    (lane.stats().clone(), lane.lost_emissions(), counters, lane.metrics())
}

fn assert_lanes_match_single_runs(packet_size: Option<f64>) {
    let lanes = lanes(packet_size);
    let mut joint = TandemSim::with_lanes(&lanes, SEED).expect("fault plans fit");
    joint.enable_telemetry();
    for _ in 0..SLOTS {
        joint.step();
    }
    assert_eq!(joint.lanes().len(), lanes.len());
    for (k, lane) in lanes.iter().enumerate() {
        let mut alone = TandemSim::with_lanes(std::slice::from_ref(lane), SEED).expect("fits");
        alone.enable_telemetry();
        for _ in 0..SLOTS {
            alone.step();
        }
        assert!(!alone.lane(0).stats().is_empty(), "lane {k} recorded no samples");
        assert_eq!(
            fingerprint(&joint, k),
            fingerprint(&alone, 0),
            "lane {k} ({:?}, packets {packet_size:?}) diverged from its one-lane run",
            lane.cfg.scheduler
        );
    }
    // The faulted lanes really lost traffic, so the comparison covers
    // the fault paths.
    assert!(joint.lanes().iter().any(|l| l.lost_emissions() > 0));
}

#[test]
fn fluid_lanes_reproduce_their_single_lane_runs() {
    assert_lanes_match_single_runs(None);
}

#[test]
fn packet_lanes_reproduce_their_single_lane_runs() {
    assert_lanes_match_single_runs(Some(1.5));
}

/// `run` is the one-lane case: it moves the first lane's statistics
/// out, which equal what the lane held.
#[test]
fn run_moves_the_first_lanes_statistics_out() {
    let lane = Lane::new(cfg(None));
    let mut stepped = TandemSim::with_lanes(std::slice::from_ref(&lane), SEED).unwrap();
    for _ in 0..SLOTS {
        stepped.step();
    }
    let mut run = TandemSim::new(cfg(None), SEED);
    let stats = run.run(SLOTS);
    assert_eq!(&stats, stepped.lane(0).stats());
    assert!(run.lane(0).stats().is_empty(), "the collector starts over");
}
