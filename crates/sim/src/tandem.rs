//! The tandem topology of the paper's Fig. 1.

use crate::error::Error;
use crate::faults::{FaultCounters, FaultInjector, FaultPlan};
use crate::node::{Chunk, Node, NodePolicy};
use crate::scheduler::SchedulerKind;
use crate::source::MmooAggregate;
use crate::stats::DelayStats;
use nc_telemetry::{Histogram, MetricSet};
use nc_traffic::Mmoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Per-run simulator telemetry: queue/backlog histograms per node plus
/// emission and sample counters. Only allocated when
/// [`TandemSim::enable_telemetry`] was called; recording into it is a
/// no-op unless the `telemetry` feature (which forwards to
/// `nc-telemetry/enabled`) is compiled in.
#[derive(Debug, Clone)]
struct SimTelemetry {
    /// Per-node end-of-slot queue length (chunks), sampled every slot.
    queue_depth: Vec<Histogram>,
    /// Per-node unfinished-work backlog (kb), tracked incrementally
    /// (arrivals minus departures at original chunk sizes) so sampling
    /// is O(1) per node per slot.
    backlog: Vec<Histogram>,
    backlog_now: Vec<f64>,
    /// Per-slot through-aggregate emission sizes (kb, nonzero slots).
    through_emission_kb: Histogram,
    /// Per-node per-slot cross-aggregate emission sizes (kb).
    cross_emission_kb: Vec<Histogram>,
    slots: u64,
    samples: u64,
    warmup_discarded: u64,
}

impl SimTelemetry {
    fn new(hops: usize) -> Self {
        SimTelemetry {
            queue_depth: vec![Histogram::new(); hops],
            backlog: vec![Histogram::new(); hops],
            backlog_now: vec![0.0; hops],
            through_emission_kb: Histogram::new(),
            cross_emission_kb: vec![Histogram::new(); hops],
            slots: 0,
            samples: 0,
            warmup_discarded: 0,
        }
    }
}

/// Configuration of a tandem simulation: `n_through` MMOO flows
/// traverse `hops` identical nodes; `n_cross` fresh MMOO flows enter at
/// each node and leave after it (the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Per-slot capacity of every node (`C`, e.g. 100 kb per 1 ms slot).
    pub capacity: f64,
    /// Path length `H`.
    pub hops: usize,
    /// Number of through flows (`N_0`).
    pub n_through: usize,
    /// Number of cross flows per node (`N_c`).
    pub n_cross: usize,
    /// The per-flow MMOO model.
    pub source: Mmoo,
    /// The scheduler at every node.
    pub scheduler: SchedulerKind,
    /// Slots of warm-up; samples whose network-entry slot falls in the
    /// warm-up window are discarded.
    pub warmup: u64,
    /// Packet mode: when `Some(l)`, emissions are quantized into packets
    /// of size `l` (residual fluid accumulates until a full packet is
    /// available) and nodes serve **non-preemptively** — the real-link
    /// behaviour the paper's fluid model abstracts away. `None` is the
    /// fluid model.
    pub packet_size: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            capacity: 100.0,
            hops: 1,
            n_through: 1,
            n_cross: 0,
            source: Mmoo::paper_source(),
            scheduler: SchedulerKind::Fifo,
            warmup: 2_000,
            packet_size: None,
        }
    }
}

/// One through-aggregate emission still inside the network.
#[derive(Debug, Clone, Copy)]
struct OutstandingEmission {
    /// Slot the emission entered the network.
    entry: u64,
    /// Bits not yet accounted for (by exit or by fault drop).
    bits: f64,
    /// Whether any of the emission's bits were dropped by a fault — a
    /// lossy emission yields no delay sample (its "delay" would measure
    /// only the surviving fragments).
    lossy: bool,
}

/// A running tandem simulation.
///
/// Traffic moves in cut-through fashion: data served by node `h` during
/// slot `t` is available to node `h+1` within the same slot, matching
/// the fluid network-calculus model in which an empty path adds no
/// delay. The recorded samples are the virtual delays `W(t)` of the
/// through aggregate: one sample per emission slot, measured until the
/// *last* bit of that slot's emission has left the final node.
#[derive(Debug)]
pub struct TandemSim {
    cfg: SimConfig,
    rng: StdRng,
    through: MmooAggregate,
    cross: Vec<MmooAggregate>,
    nodes: Vec<Node>,
    /// Outstanding through emissions, in entry order.
    outstanding: VecDeque<OutstandingEmission>,
    /// Reusable buffer of chunks moving to the next node within the
    /// current slot (cut-through), kept across slots to avoid per-slot
    /// allocation.
    forwarded: Vec<Chunk>,
    /// Reusable per-node departure buffer passed to [`Node::serve_slot`].
    departures: Vec<Chunk>,
    /// Packet-mode residual fluid per traffic feed (through, then one
    /// per node's cross aggregate).
    residuals: Vec<f64>,
    slot: u64,
    stats: DelayStats,
    /// Opt-in telemetry; `None` keeps the hot loop untouched.
    telemetry: Option<SimTelemetry>,
    /// Fault injection; `None` keeps the hot loop untouched.
    faults: Option<FaultInjector>,
    /// Through emissions that lost bits to fault drops (post-warmup
    /// entries only would undercount; all entries are counted).
    lost_emissions: u64,
}

impl TandemSim {
    /// Creates a simulation from a config and RNG seed: every node has
    /// capacity `cfg.capacity` and no faults.
    ///
    /// # Panics
    ///
    /// As for [`TandemSim::with_capacities_and_faults`].
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        let capacities = vec![cfg.capacity; cfg.hops];
        Self::with_capacities_and_faults(cfg, &capacities, None, seed)
            .expect("no fault plan to mismatch")
    }

    /// The general constructor: *per-node* capacities (a heterogeneous
    /// path; `cfg.capacity` is ignored) plus an optional [`FaultPlan`]
    /// injected at every node. Fault draws come from a separate salted
    /// stream derived from `seed`, so the traffic sample path is
    /// identical to the unfaulted simulation under the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FaultConfig`] when a per-node plan does not
    /// cover exactly `cfg.hops` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != cfg.hops`, `hops` or `n_through`
    /// is zero, the packet size is invalid or combined with GPS, or any
    /// capacity is not positive/finite (via [`Node::new`]).
    pub fn with_capacities_and_faults(
        cfg: SimConfig,
        capacities: &[f64],
        plan: Option<&FaultPlan>,
        seed: u64,
    ) -> Result<Self, Error> {
        assert!(cfg.hops > 0, "TandemSim: need at least one hop");
        assert!(cfg.n_through > 0, "TandemSim: need at least one through flow");
        assert_eq!(capacities.len(), cfg.hops, "TandemSim: one capacity per hop");
        let faults = plan.map(|plan| FaultInjector::new(plan, cfg.hops, seed)).transpose()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let through = MmooAggregate::stationary(cfg.source, cfg.n_through, &mut rng);
        let cross = (0..cfg.hops)
            .map(|_| MmooAggregate::stationary(cfg.source, cfg.n_cross, &mut rng))
            .collect();
        if let Some(l) = cfg.packet_size {
            assert!(l > 0.0 && l.is_finite(), "TandemSim: packet size must be positive");
            assert!(
                !matches!(cfg.scheduler, SchedulerKind::Gps { .. }),
                "TandemSim: packet mode with GPS (packetized WFQ) is not modelled"
            );
        }
        let mode = if cfg.packet_size.is_some() {
            crate::node::ServiceMode::NonPreemptive
        } else {
            crate::node::ServiceMode::Fluid
        };
        let nodes = capacities
            .iter()
            .map(|&c| Node::with_mode(c, cfg.scheduler.node_policy(), 2, mode))
            .collect();
        Ok(TandemSim {
            cfg,
            rng,
            through,
            cross,
            nodes,
            outstanding: VecDeque::new(),
            forwarded: Vec::new(),
            departures: Vec::new(),
            residuals: vec![0.0; cfg.hops + 1],
            slot: 0,
            stats: DelayStats::new(),
            telemetry: None,
            faults,
            lost_emissions: 0,
        })
    }

    /// Turns on per-node telemetry collection (queue-depth and backlog
    /// histograms, emission and sample counters) for this run. The
    /// recorded values never feed back into the simulation, so results
    /// are bitwise-identical with telemetry on or off; without the
    /// `telemetry` cargo feature the collection itself is erased and
    /// [`TandemSim::metrics`] stays empty.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(SimTelemetry::new(self.cfg.hops));
        }
    }

    /// Whether [`TandemSim::enable_telemetry`] was called.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Quantizes an emission into whole packets in packet mode (feed 0
    /// is the through aggregate, feed `h+1` the cross aggregate of node
    /// `h`); identity in fluid mode.
    fn quantize(&mut self, feed: usize, bits: f64) -> (f64, usize) {
        match self.cfg.packet_size {
            None => (bits, 1),
            Some(l) => {
                self.residuals[feed] += bits;
                let packets = (self.residuals[feed] / l).floor() as usize;
                self.residuals[feed] -= packets as f64 * l;
                (packets as f64 * l, packets)
            }
        }
    }

    /// Replaces the delay-statistics collector (e.g. with a streaming
    /// one from [`DelayStats::streaming_with_thresholds`]). Call before
    /// [`TandemSim::run`] — any already-recorded samples are discarded.
    pub fn set_stats_collector(&mut self, collector: DelayStats) {
        self.stats = collector;
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current slot.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Total backlog across all nodes.
    pub fn backlog(&self) -> f64 {
        self.nodes.iter().map(Node::backlog).sum()
    }

    /// Advances one slot.
    pub fn step(&mut self) {
        let t = self.slot;
        let raw_thr = self.through.step(&mut self.rng);
        let (thr_bits, thr_packets) = self.quantize(0, raw_thr);
        // Reuse the per-step buffers (taken out of `self` to satisfy the
        // borrow checker, restored below); both end each step drained,
        // so only their capacity survives.
        let mut forwarded = std::mem::take(&mut self.forwarded);
        let mut departures = std::mem::take(&mut self.departures);
        if thr_bits > 0.0 {
            let per = thr_bits / thr_packets as f64;
            for _ in 0..thr_packets {
                forwarded.push(Chunk { class: 0, bits: per, entry: t, node_arrival: t });
            }
            self.outstanding.push_back(OutstandingEmission {
                entry: t,
                bits: thr_bits,
                lossy: false,
            });
            if let Some(tel) = &mut self.telemetry {
                tel.through_emission_kb.record(thr_bits);
            }
        }
        for h in 0..self.cfg.hops {
            // Fault processes advance once per node per slot, in path
            // order, before any service — a fixed draw order is what
            // keeps faulted runs bitwise deterministic.
            let eff_capacity =
                self.faults.as_mut().map(|inj| inj.begin_slot(h, self.nodes[h].capacity()));
            // Incremental backlog tracking: arrivals at this node this
            // slot, minus departures below (at original chunk sizes).
            let mut arrived_kb = 0.0_f64;
            for c in forwarded.drain(..) {
                let dropped = match &mut self.faults {
                    Some(inj) => inj.drop_arrival(h),
                    None => false,
                };
                if dropped {
                    if c.class == 0 {
                        self.retire_dropped_through(&c);
                    }
                    continue;
                }
                if self.telemetry.is_some() {
                    arrived_kb += c.bits;
                }
                self.nodes[h].enqueue(c);
            }
            let raw_cross = self.cross[h].step(&mut self.rng);
            let (cross_bits, cross_packets) = self.quantize(h + 1, raw_cross);
            let mut cross_arrived_kb = 0.0_f64;
            if cross_bits > 0.0 {
                let per = cross_bits / cross_packets as f64;
                for _ in 0..cross_packets {
                    let dropped = match &mut self.faults {
                        Some(inj) => inj.drop_arrival(h),
                        None => false,
                    };
                    if dropped {
                        continue;
                    }
                    cross_arrived_kb += per;
                    self.nodes[h].enqueue(Chunk { class: 1, bits: per, entry: t, node_arrival: t });
                }
            }
            departures.clear();
            match eff_capacity {
                Some(cap) => self.nodes[h].serve_slot_capped(t, cap, &mut departures),
                None => self.nodes[h].serve_slot(t, &mut departures),
            }
            if let Some(tel) = &mut self.telemetry {
                let departed_kb: f64 = departures.iter().map(|c| c.bits).sum();
                tel.backlog_now[h] =
                    (tel.backlog_now[h] + arrived_kb + cross_arrived_kb - departed_kb).max(0.0);
                tel.backlog[h].record(tel.backlog_now[h]);
                tel.queue_depth[h].record(self.nodes[h].queue_len() as f64);
                if cross_bits > 0.0 {
                    tel.cross_emission_kb[h].record(cross_bits);
                }
            }
            for mut c in departures.drain(..) {
                if c.class != 0 {
                    continue; // cross traffic leaves after one hop
                }
                if h + 1 < self.cfg.hops {
                    c.node_arrival = t;
                    forwarded.push(c);
                } else {
                    self.record_exit(c, t);
                }
            }
        }
        self.forwarded = forwarded;
        self.departures = departures;
        if let Some(tel) = &mut self.telemetry {
            tel.slots += 1;
        }
        self.slot += 1;
    }

    /// A through fragment left the final node: retire it against its
    /// entry slot's outstanding bits and record `W(entry)` when the
    /// emission is fully out. Locally-FIFO scheduling guarantees entries
    /// complete in order (fault drops may leave fully-retired "zombie"
    /// entries ahead of us; those are drained first).
    fn record_exit(&mut self, c: Chunk, now: u64) {
        self.drain_retired_front();
        let front = self.outstanding.front_mut().expect("departure without outstanding data");
        debug_assert_eq!(front.entry, c.entry, "through traffic must exit in entry order");
        front.bits -= c.bits;
        if front.bits <= 1e-9 {
            let e = self.outstanding.pop_front().expect("front exists");
            if e.lossy {
                self.lost_emissions += 1;
            } else if e.entry >= self.cfg.warmup {
                self.stats.record((now - e.entry) as f64);
                if let Some(tel) = &mut self.telemetry {
                    tel.samples += 1;
                }
            } else if let Some(tel) = &mut self.telemetry {
                tel.warmup_discarded += 1;
            }
        }
    }

    /// A through chunk was dropped by a fault: retire its bits against
    /// its emission's outstanding entry and mark the emission lossy (a
    /// partial delivery yields no delay sample).
    fn retire_dropped_through(&mut self, c: &Chunk) {
        if let Some(e) = self.outstanding.iter_mut().find(|e| e.entry == c.entry) {
            e.bits -= c.bits;
            e.lossy = true;
        }
        self.drain_retired_front();
    }

    /// Pops leading outstanding entries whose bits are fully accounted
    /// for by fault drops (exits pop their own entries in
    /// [`TandemSim::record_exit`]).
    fn drain_retired_front(&mut self) {
        while self.outstanding.front().is_some_and(|e| e.bits <= 1e-9) {
            let e = self.outstanding.pop_front().expect("front exists");
            if e.lossy {
                self.lost_emissions += 1;
            }
        }
    }

    /// Runs `slots` slots and returns (a clone of) the accumulated
    /// delay statistics.
    pub fn run(&mut self, slots: u64) -> DelayStats {
        for _ in 0..slots {
            self.step();
        }
        self.stats.clone()
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &DelayStats {
        &self.stats
    }

    /// Node `h` of the path (0-based), for reading its state between
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not below the hop count.
    pub fn node(&self, h: usize) -> &Node {
        &self.nodes[h]
    }

    /// Fault event counters, when the simulation was built with a
    /// fault plan.
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref().map(FaultInjector::counters)
    }

    /// Through emissions that lost bits to fault drops (and therefore
    /// produced no delay sample).
    pub fn lost_emissions(&self) -> u64 {
        self.lost_emissions
    }

    /// Flushes the collected telemetry into a mergeable [`MetricSet`]
    /// (`sim_*` namespace, per-node series labelled `node="h"`). Empty
    /// unless [`TandemSim::enable_telemetry`] was called *and* the
    /// `telemetry` feature is compiled in.
    pub fn metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        let Some(tel) = &self.telemetry else { return m };
        m.counter_add("sim_slots_total", &[], tel.slots);
        m.counter_add("sim_delay_samples_total", &[], tel.samples);
        m.counter_add("sim_warmup_discarded_total", &[], tel.warmup_discarded);
        m.histogram_merge("sim_through_emission_kb", &[], &tel.through_emission_kb);
        for (h, node) in self.nodes.iter().enumerate() {
            let idx = h.to_string();
            let labels: [(&str, &str); 1] = [("node", idx.as_str())];
            let c = node.counters();
            m.counter_add("sim_node_scheduler_decisions_total", &labels, c.decisions);
            m.counter_add("sim_node_chunks_completed_total", &labels, c.completed_chunks);
            m.counter_add("sim_node_chunk_splits_total", &labels, c.chunk_splits);
            m.counter_add("sim_node_edf_deadline_misses_total", &labels, c.deadline_misses);
            m.histogram_merge("sim_node_queue_depth", &labels, &tel.queue_depth[h]);
            m.histogram_merge("sim_node_backlog_kb", &labels, &tel.backlog[h]);
            m.histogram_merge("sim_cross_emission_kb", &labels, &tel.cross_emission_kb[h]);
            if let Some(fc) = self.fault_counters() {
                m.counter_add("sim_fault_degraded_slots_total", &labels, fc.degraded_slots[h]);
                m.counter_add("sim_fault_outage_slots_total", &labels, fc.outage_slots[h]);
                m.counter_add("sim_fault_dropped_chunks_total", &labels, fc.dropped_chunks[h]);
            }
        }
        if self.faults.is_some() {
            m.counter_add("sim_fault_lost_emissions_total", &[], self.lost_emissions);
        }
        m
    }
}

/// Replays fixed per-slot arrival traces (one per class) through a
/// single node and returns the per-class virtual delay samples — used
/// to execute the Theorem-2 adversarial scenarios, where arrivals are
/// the greedy envelope traces rather than random processes.
///
/// The replay runs until all traces are exhausted *and* the node has
/// drained.
///
/// # Panics
///
/// Panics if `traces` is empty or the policy's class count mismatches
/// (via [`Node::new`]).
pub fn replay_single_node(
    capacity: f64,
    policy: NodePolicy,
    traces: &[Vec<f64>],
) -> Vec<DelayStats> {
    assert!(!traces.is_empty(), "replay_single_node: need at least one class");
    let classes = traces.len();
    let mut node = Node::new(capacity, policy, classes);
    let mut outstanding: Vec<VecDeque<(u64, f64)>> = vec![VecDeque::new(); classes];
    let mut stats: Vec<DelayStats> = vec![DelayStats::new(); classes];
    let horizon = traces.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let mut departures: Vec<Chunk> = Vec::new();
    let mut t = 0u64;
    loop {
        if t < horizon {
            for (class, trace) in traces.iter().enumerate() {
                let bits = trace.get(t as usize).copied().unwrap_or(0.0);
                if bits > 0.0 {
                    node.enqueue(Chunk { class, bits, entry: t, node_arrival: t });
                    outstanding[class].push_back((t, bits));
                }
            }
        }
        departures.clear();
        node.serve_slot(t, &mut departures);
        for c in departures.drain(..) {
            let front =
                outstanding[c.class].front_mut().expect("departure without outstanding data");
            front.1 -= c.bits;
            if front.1 <= 1e-9 {
                let (entry, _) = outstanding[c.class].pop_front().expect("front exists");
                stats[c.class].record((t - entry) as f64);
            }
        }
        t += 1;
        if t >= horizon && node.backlog() <= 1e-9 {
            break;
        }
        if t > horizon + 100_000_000 {
            panic!("replay_single_node: node failed to drain (unstable trace)");
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A uniform-capacity tandem with `plan` injected at every node.
    fn faulted(cfg: SimConfig, plan: &FaultPlan, seed: u64) -> Result<TandemSim, Error> {
        TandemSim::with_capacities_and_faults(cfg, &vec![cfg.capacity; cfg.hops], Some(plan), seed)
    }

    fn light_cfg(scheduler: SchedulerKind) -> SimConfig {
        SimConfig {
            capacity: 20.0,
            hops: 3,
            n_through: 10,
            n_cross: 20,
            scheduler,
            warmup: 500,
            ..SimConfig::default()
        }
    }

    #[test]
    fn empty_network_has_near_zero_delay() {
        // One through flow, no cross traffic, huge capacity: every
        // emission leaves in its arrival slot (cut-through).
        let cfg = SimConfig {
            capacity: 1000.0,
            hops: 5,
            n_through: 1,
            n_cross: 0,
            warmup: 0,
            ..SimConfig::default()
        };
        let mut sim = TandemSim::new(cfg, 1);
        let mut stats = sim.run(5_000);
        assert!(!stats.is_empty());
        assert_eq!(stats.max(), Some(0.0));
        assert_eq!(stats.quantile(1.0), Some(0.0));
    }

    #[test]
    fn delays_grow_with_load() {
        let low = TandemSim::new(SimConfig { n_cross: 10, ..light_cfg(SchedulerKind::Fifo) }, 7)
            .run(30_000);
        let high = TandemSim::new(SimConfig { n_cross: 100, ..light_cfg(SchedulerKind::Fifo) }, 7)
            .run(30_000);
        assert!(high.mean().unwrap() > low.mean().unwrap());
    }

    #[test]
    fn scheduler_ordering_on_mean_delays() {
        // Through-priority ≤ FIFO ≤ BMUX for the through traffic, up to
        // simulation noise (use a generous margin on means).
        let run = |k: SchedulerKind| TandemSim::new(light_cfg(k), 99).run(60_000);
        let hp = run(SchedulerKind::ThroughPriority).mean().unwrap();
        let fifo = run(SchedulerKind::Fifo).mean().unwrap();
        let bmux = run(SchedulerKind::Bmux).mean().unwrap();
        assert!(hp <= fifo * 1.05 + 0.2, "priority {hp} vs fifo {fifo}");
        assert!(fifo <= bmux * 1.05 + 0.2, "fifo {fifo} vs bmux {bmux}");
    }

    #[test]
    fn edf_with_tight_through_deadline_beats_fifo() {
        let run = |k: SchedulerKind| TandemSim::new(light_cfg(k), 1234).run(60_000);
        let edf = run(SchedulerKind::Edf { d_through: 1.0, d_cross: 50.0 }).mean().unwrap();
        let fifo = run(SchedulerKind::Fifo).mean().unwrap();
        assert!(edf <= fifo * 1.05 + 0.2, "edf {edf} vs fifo {fifo}");
    }

    #[test]
    fn conservation_no_data_lost() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let mut sim = TandemSim::new(cfg, 5);
        for _ in 0..10_000 {
            sim.step();
        }
        // Outstanding bits + recorded samples account for every through
        // emission: outstanding is bounded by the backlog.
        let outstanding_bits: f64 = sim.outstanding.iter().map(|e| e.bits).sum();
        assert!(outstanding_bits <= sim.backlog() + 1e-6);
    }

    #[test]
    fn empty_fault_plan_is_bitwise_identical_to_no_faults() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let plain = TandemSim::new(cfg, 21).run(20_000);
        let plan = FaultPlan::uniform(vec![]).unwrap();
        let faulted = faulted(cfg, &plan, 21).unwrap().run(20_000);
        assert_eq!(plain.samples(), faulted.samples(), "empty plan must not perturb traffic");
    }

    #[test]
    fn faulted_runs_are_seed_deterministic() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let plan = FaultPlan::uniform(vec![
            crate::FaultModel::GilbertElliott { p_fail: 0.01, p_repair: 0.2, capacity_factor: 0.0 },
            crate::FaultModel::Drop { prob: 0.002 },
        ])
        .unwrap();
        let a = faulted(cfg, &plan, 77).unwrap().run(20_000);
        let b = faulted(cfg, &plan, 77).unwrap().run(20_000);
        assert_eq!(a.samples(), b.samples());
        let c = faulted(cfg, &plan, 78).unwrap().run(20_000);
        assert_ne!(a.samples(), c.samples(), "different seeds must diverge");
    }

    #[test]
    fn outages_inflate_delays() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let clean = TandemSim::new(cfg, 5).run(40_000);
        let plan = FaultPlan::uniform(vec![crate::FaultModel::GilbertElliott {
            p_fail: 0.02,
            p_repair: 0.1,
            capacity_factor: 0.0,
        }])
        .unwrap();
        let mut sim = faulted(cfg, &plan, 5).unwrap();
        let faulted = sim.run(40_000);
        assert!(
            faulted.mean().unwrap() > clean.mean().unwrap(),
            "outages must hurt: clean {:?} vs faulted {:?}",
            clean.mean(),
            faulted.mean()
        );
        let fc = sim.fault_counters().unwrap();
        assert!(fc.outage_slots.iter().sum::<u64>() > 0);
    }

    #[test]
    fn drops_lose_emissions_not_samples_integrity() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let plan = FaultPlan::uniform(vec![crate::FaultModel::Drop { prob: 0.05 }]).unwrap();
        let mut sim = faulted(cfg, &plan, 13).unwrap();
        let stats = sim.run(40_000);
        assert!(sim.lost_emissions() > 0, "5% drops over 40k slots must lose something");
        assert!(!stats.is_empty(), "most emissions still make it through");
        let fc = sim.fault_counters().unwrap();
        assert!(fc.dropped_chunks.iter().sum::<u64>() > 0);
    }

    #[test]
    fn per_node_plan_mismatch_is_an_error() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let plan = FaultPlan::per_node(vec![vec![], vec![]]).unwrap(); // 2 nodes, cfg has 3
        assert!(faulted(cfg, &plan, 1).is_err());
    }

    #[test]
    fn gps_runs_and_interpolates() {
        let run = |k: SchedulerKind| TandemSim::new(light_cfg(k), 31).run(60_000);
        let gps_fair = run(SchedulerKind::Gps { w_through: 1.0, w_cross: 1.0 }).mean().unwrap();
        let hp = run(SchedulerKind::ThroughPriority).mean().unwrap();
        let bmux = run(SchedulerKind::Bmux).mean().unwrap();
        assert!(gps_fair >= hp - 0.2, "gps {gps_fair} vs hp {hp}");
        assert!(gps_fair <= bmux + 2.0, "gps {gps_fair} vs bmux {bmux}");
    }

    #[test]
    fn replay_single_node_constant_overload_then_drain() {
        // 10 units/slot arrive for 10 slots into a 5-capacity node:
        // backlog builds, then drains; last chunk waits ~10 slots.
        let trace = vec![vec![10.0; 10]];
        let stats = &mut replay_single_node(5.0, NodePolicy::Fifo, &trace)[0];
        assert_eq!(stats.len(), 10);
        assert!(stats.max().unwrap() >= 9.0);
        assert!(stats.samples()[0] >= 1.0); // first slot already overloads
    }

    #[test]
    fn replay_two_classes_priority() {
        // Class 1 has priority; class 0's chunk waits for it.
        let traces = vec![vec![5.0], vec![5.0]];
        let stats = replay_single_node(5.0, NodePolicy::StaticPriority(vec![1, 0]), &traces);
        assert_eq!(stats[1].samples(), &[0.0]);
        assert_eq!(stats[0].samples(), &[1.0]);
    }

    #[test]
    fn heterogeneous_bottleneck_raises_delays() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let run = |caps: &[f64]| {
            TandemSim::with_capacities_and_faults(cfg, caps, None, 11).unwrap().run(40_000)
        };
        let uniform = run(&[20.0, 20.0, 20.0]);
        let bottleneck = run(&[20.0, 12.0, 20.0]);
        assert!(bottleneck.mean().unwrap() > uniform.mean().unwrap());
    }

    #[test]
    fn telemetry_does_not_change_delay_samples() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let plain = TandemSim::new(cfg, 77).run(20_000);
        let mut sim = TandemSim::new(cfg, 77);
        sim.enable_telemetry();
        let instrumented = sim.run(20_000);
        assert_eq!(plain.len(), instrumented.len());
        assert_eq!(plain.mean(), instrumented.mean());
        assert_eq!(plain.samples(), instrumented.samples());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_metrics_cover_nodes_and_samples() {
        use nc_telemetry::MetricValue;
        let cfg = light_cfg(SchedulerKind::Fifo);
        let mut sim = TandemSim::new(cfg, 9);
        sim.enable_telemetry();
        let stats = sim.run(20_000);
        let m = sim.metrics();
        assert_eq!(m.counter_value("sim_slots_total", &[]), 20_000);
        assert_eq!(m.counter_value("sim_delay_samples_total", &[]), stats.len() as u64);
        for h in 0..cfg.hops {
            let idx = h.to_string();
            let labels: [(&str, &str); 1] = [("node", idx.as_str())];
            assert!(m.counter_value("sim_node_scheduler_decisions_total", &labels) > 0);
            match m.get("sim_node_queue_depth", &labels) {
                Some(MetricValue::Histogram(qd)) => assert_eq!(qd.count(), 20_000),
                other => panic!("missing queue depth for node {h}: {other:?}"),
            }
            match m.get("sim_node_backlog_kb", &labels) {
                // End-of-slot backlog can legitimately be all-zero at
                // low utilization; one sample per slot must exist.
                Some(MetricValue::Histogram(b)) => assert_eq!(b.count(), 20_000),
                other => panic!("missing backlog for node {h}: {other:?}"),
            }
        }
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn telemetry_metrics_empty_without_the_feature() {
        let mut sim = TandemSim::new(light_cfg(SchedulerKind::Fifo), 9);
        sim.enable_telemetry();
        let _ = sim.run(1_000);
        assert!(sim.metrics().is_empty());
    }

    #[test]
    fn warmup_discards_early_samples() {
        let cfg = SimConfig { warmup: 1_000, ..light_cfg(SchedulerKind::Fifo) };
        let mut sim = TandemSim::new(cfg, 3);
        for _ in 0..1_000 {
            sim.step();
        }
        // All entries so far are within warm-up: nothing recorded.
        assert_eq!(sim.stats().len(), 0);
    }
}
