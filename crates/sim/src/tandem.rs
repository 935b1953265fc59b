//! The tandem topology of the paper's Fig. 1.
//!
//! A [`TandemSim`] is one **arrival stream** driving one or more
//! **lanes**. The stream owns the traffic RNG and the through and cross
//! MMOO aggregates, and draws each slot's `H + 1` emissions once. Every
//! lane ([`LaneSim`]) serves those emissions with its own scheduler,
//! nodes and statistics collector. Lanes never feed back into the
//! stream, so a lane's sample path is bit for bit the one a single-lane
//! simulation of the same [`Lane`] and seed produces: comparing
//! schedulers on several lanes is comparing them on the same traffic, at
//! the cost of one arrival draw per slot.

use crate::node::{Chunk, Node, NodePolicy, ServiceMode};
use crate::scheduler::SchedulerKind;
use crate::source::MmooAggregate;
use crate::stats::DelayStats;
use nc_telemetry::MetricSet;
use nc_traffic::Mmoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

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

impl SimConfig {
    /// Whether two configurations draw the same arrival stream from the
    /// same seed: equal path length, flow counts, source and packet
    /// size. Scheduler, capacity and warm-up are per lane.
    fn same_arrivals(&self, other: &SimConfig) -> bool {
        self.hops == other.hops
            && self.n_through == other.n_through
            && self.n_cross == other.n_cross
            && self.source == other.source
            && self.packet_size == other.packet_size
    }
}

/// What one lane of a [`TandemSim`] runs: the configuration's scheduler
/// and warm-up, and per-node capacities.
///
/// The lanes of one simulation share its arrival stream, so their
/// configurations must agree on hops, flow counts, source and packet
/// size.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The tandem; `capacity` applies to every node unless
    /// [`Lane::capacities`] overrides it.
    pub cfg: SimConfig,
    /// Per-node capacities (a heterogeneous path); `None` gives every
    /// node `cfg.capacity`.
    pub capacities: Option<Vec<f64>>,
}

impl Lane {
    /// A uniform-capacity lane.
    pub fn new(cfg: SimConfig) -> Self {
        Lane { cfg, capacities: None }
    }

    /// Sets (or clears) per-node capacities.
    pub fn capacities(mut self, capacities: Option<Vec<f64>>) -> Self {
        self.capacities = capacities;
        self
    }
}

/// One through-aggregate emission still inside the network.
#[derive(Debug, Clone, Copy)]
struct OutstandingEmission {
    /// Slot the emission entered the network.
    entry: u64,
    /// Bits that have not left the final node yet.
    bits: f64,
}

/// One feed's arrivals in a slot: an emission of `bits`, entering as
/// `count` chunks of `size` bits each (no chunk when nothing was
/// emitted).
#[derive(Debug, Clone, Copy, Default)]
struct Feed {
    bits: f64,
    size: f64,
    count: usize,
}

/// The arrival stream every lane sees: the traffic RNG, the through
/// aggregate, one cross aggregate per node, and (in packet mode) the
/// residual fluid of each feed.
#[derive(Debug)]
struct Arrivals {
    /// The stream's configuration (its scheduler, capacity and warm-up
    /// are the first lane's and unused here).
    cfg: SimConfig,
    rng: StdRng,
    through: MmooAggregate,
    cross: Vec<MmooAggregate>,
    /// Packet-mode residual fluid per feed: the through aggregate, then
    /// one per node's cross aggregate.
    residuals: Vec<f64>,
    /// This slot's arrivals per feed (same order), cut into chunks once
    /// for every lane.
    feeds: Vec<Feed>,
}

impl Arrivals {
    /// # Panics
    ///
    /// Panics if `hops` or `n_through` is zero or the packet size is
    /// not positive and finite.
    fn new(cfg: &SimConfig, seed: u64) -> Self {
        assert!(cfg.hops > 0, "TandemSim: need at least one hop");
        assert!(cfg.n_through > 0, "TandemSim: need at least one through flow");
        if let Some(l) = cfg.packet_size {
            assert!(l > 0.0 && l.is_finite(), "TandemSim: packet size must be positive");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let through = MmooAggregate::stationary(cfg.source, cfg.n_through, &mut rng);
        let cross = (0..cfg.hops)
            .map(|_| MmooAggregate::stationary(cfg.source, cfg.n_cross, &mut rng))
            .collect();
        Arrivals {
            cfg: *cfg,
            rng,
            through,
            cross,
            residuals: vec![0.0; cfg.hops + 1],
            feeds: vec![Feed::default(); cfg.hops + 1],
        }
    }

    /// Draws the slot's emissions: the through aggregate first, then the
    /// cross aggregates in path order.
    fn draw(&mut self) {
        let packet_size = self.cfg.packet_size;
        let raw = self.through.step(&mut self.rng);
        self.feeds[0] = quantize(packet_size, &mut self.residuals[0], raw);
        for (h, cross) in self.cross.iter_mut().enumerate() {
            let raw = cross.step(&mut self.rng);
            self.feeds[h + 1] = quantize(packet_size, &mut self.residuals[h + 1], raw);
        }
    }
}

/// Quantizes an emission into whole packets in packet mode, carrying
/// the remainder in the feed's `residual`; one chunk of the whole
/// emission in fluid mode.
///
/// A packet's size is the quantized emission over the packet count,
/// computed here once for every lane. It is not always `l` itself:
/// `(k·l)/k` and `l` differ in the last bit for e.g. `l = 0.7`,
/// `k = 3`, and the lanes' sample paths depend on that bit.
fn quantize(packet_size: Option<f64>, residual: &mut f64, bits: f64) -> Feed {
    match packet_size {
        None => Feed { bits, size: bits, count: usize::from(bits > 0.0) },
        Some(l) => {
            *residual += bits;
            let packets = (*residual / l).floor() as usize;
            *residual -= packets as f64 * l;
            let bits = packets as f64 * l;
            let size = if packets > 0 { bits / packets as f64 } else { 0.0 };
            Feed { bits, size, count: packets }
        }
    }
}

/// One lane of a running [`TandemSim`]: its nodes, the through
/// emissions still inside them, and what it has measured.
///
/// Traffic moves in cut-through fashion: data served by node `h` during
/// slot `t` is available to node `h+1` within the same slot, matching
/// the fluid network-calculus model in which an empty path adds no
/// delay. The recorded samples are the virtual delays `W(t)` of the
/// through aggregate: one sample per emission slot, measured until the
/// *last* bit of that slot's emission has left the final node.
#[derive(Debug)]
pub struct LaneSim {
    nodes: Vec<Node>,
    exits: Exits,
    /// Slots served.
    slots: u64,
}

/// The through emissions still inside a lane, and the delays of those
/// that have left its last node.
#[derive(Debug)]
struct Exits {
    /// Emissions entering before this slot yield no sample.
    warmup: u64,
    /// Outstanding through emissions, in entry order.
    outstanding: VecDeque<OutstandingEmission>,
    stats: DelayStats,
    /// Complete through emissions that entered during the warm-up and
    /// so yielded no sample.
    warmup_discarded: u64,
}

impl Exits {
    /// A through fragment left the final node: retire it against its
    /// entry slot's outstanding bits and record `W(entry)` when the
    /// emission is fully out. Locally-FIFO scheduling guarantees entries
    /// complete in order.
    fn record(&mut self, c: Chunk, now: u64) {
        let front = self.outstanding.front_mut().expect("departure without outstanding data");
        debug_assert_eq!(front.entry, c.entry, "through traffic must exit in entry order");
        front.bits -= c.bits;
        if front.bits <= 1e-9 {
            let e = self.outstanding.pop_front().expect("front exists");
            if e.entry >= self.warmup {
                self.stats.record((now - e.entry) as f64);
            } else {
                self.warmup_discarded += 1;
            }
        }
    }
}

impl LaneSim {
    /// # Panics
    ///
    /// Panics if the capacities do not cover `cfg.hops` nodes, or (via
    /// [`Node::with_mode`]) if packet mode is combined with GPS or a
    /// capacity is not positive and finite.
    fn new(lane: &Lane) -> Self {
        let cfg = lane.cfg;
        let uniform;
        let capacities = match &lane.capacities {
            Some(caps) => caps.as_slice(),
            None => {
                uniform = vec![cfg.capacity; cfg.hops];
                &uniform
            }
        };
        assert_eq!(capacities.len(), cfg.hops, "TandemSim: one capacity per hop");
        let mode =
            if cfg.packet_size.is_some() { ServiceMode::NonPreemptive } else { ServiceMode::Fluid };
        let nodes = capacities
            .iter()
            .map(|&c| Node::with_mode(c, cfg.scheduler.node_policy(), 2, mode))
            .collect();
        LaneSim {
            nodes,
            exits: Exits {
                warmup: cfg.warmup,
                outstanding: VecDeque::new(),
                stats: DelayStats::new(),
                warmup_discarded: 0,
            },
            slots: 0,
        }
    }

    /// Serves slot `t` given the slot's arrivals (the through feed,
    /// then each node's cross feed).
    ///
    /// Node `h` hands its departures straight on: a through chunk joins
    /// node `h + 1`'s queue within the slot (or, after the last node,
    /// retires), and a cross chunk leaves the network. So node `h + 1`
    /// queues this slot's forwarded through chunks before its own cross
    /// arrivals, in departure order.
    fn step(&mut self, t: u64, feeds: &[Feed]) {
        let through = feeds[0];
        if through.count > 0 {
            for _ in 0..through.count {
                self.nodes[0].enqueue(Chunk {
                    class: 0,
                    bits: through.size,
                    entry: t,
                    node_arrival: t,
                });
            }
            self.exits.outstanding.push_back(OutstandingEmission { entry: t, bits: through.bits });
        }
        let mut rest = self.nodes.as_mut_slice();
        for cross in &feeds[1..] {
            let (node, after) = rest.split_first_mut().expect("one cross feed per node");
            for _ in 0..cross.count {
                node.enqueue(Chunk { class: 1, bits: cross.size, entry: t, node_arrival: t });
            }
            match after.first_mut() {
                Some(next) => node.serve_slot_into(t, |mut c| {
                    if c.class == 0 {
                        c.node_arrival = t;
                        next.push(c);
                    }
                }),
                None => node.serve_slot_into(t, |c| {
                    if c.class == 0 {
                        self.exits.record(c, t);
                    }
                }),
            }
            rest = after;
        }
        self.slots += 1;
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &DelayStats {
        &self.exits.stats
    }

    /// Moves the accumulated statistics out; the lane goes on
    /// collecting from empty.
    pub(crate) fn take_stats(&mut self) -> DelayStats {
        std::mem::take(&mut self.exits.stats)
    }

    /// Total backlog across the lane's nodes.
    pub fn backlog(&self) -> f64 {
        self.nodes.iter().map(Node::backlog).sum()
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

    /// The lane's counters as a mergeable [`MetricSet`] (`sim_*`
    /// namespace, per-node series labelled `node="h"`): slots served,
    /// the samples held now (so none after [`TandemSim::run`] moved
    /// them out), warm-up discards, and the node counters.
    /// Empty without the `telemetry` feature.
    pub fn metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.counter_add("sim_slots_total", &[], self.slots);
        m.counter_add("sim_delay_samples_total", &[], self.exits.stats.len() as u64);
        m.counter_add("sim_warmup_discarded_total", &[], self.exits.warmup_discarded);
        for (h, node) in self.nodes.iter().enumerate() {
            let idx = h.to_string();
            let labels: [(&str, &str); 1] = [("node", idx.as_str())];
            let c = node.counters();
            m.counter_add("sim_node_scheduler_decisions_total", &labels, c.decisions);
            m.counter_add("sim_node_chunks_completed_total", &labels, c.completed_chunks);
            m.counter_add("sim_node_chunk_splits_total", &labels, c.chunk_splits);
            m.counter_add("sim_node_edf_deadline_misses_total", &labels, c.deadline_misses);
        }
        m
    }
}

/// A running tandem simulation: one arrival stream served by one or
/// more lanes (see the module documentation).
#[derive(Debug)]
pub struct TandemSim {
    arrivals: Arrivals,
    lanes: Vec<LaneSim>,
    slot: u64,
    /// The lane being added or stepped, so that a panic inside a lane
    /// can be traced to it (see [`TandemSim::busy_lane`]).
    busy_lane: usize,
}

impl TandemSim {
    /// A one-lane simulation from a config and RNG seed: every node has
    /// capacity `cfg.capacity`.
    ///
    /// # Panics
    ///
    /// As for [`TandemSim::with_lanes`].
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        Self::with_lanes(&[Lane::new(cfg)], seed)
    }

    /// The general constructor: one arrival stream seeded by `seed`,
    /// served by every lane in order.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or the lanes disagree on hops, flow
    /// counts, source or packet size; if `hops` or `n_through` is zero;
    /// if a lane's capacities do not cover its nodes or are not
    /// positive and finite; or if the packet size is invalid or
    /// combined with GPS.
    pub fn with_lanes(lanes: &[Lane], seed: u64) -> Self {
        let first = lanes.first().expect("TandemSim: need at least one lane");
        let mut sim = Self::without_lanes(&first.cfg, seed);
        for lane in lanes {
            sim.add_lane(lane);
        }
        sim
    }

    /// The arrival stream of `cfg` alone; lanes follow via
    /// [`TandemSim::add_lane`].
    pub(crate) fn without_lanes(cfg: &SimConfig, seed: u64) -> Self {
        TandemSim { arrivals: Arrivals::new(cfg, seed), lanes: Vec::new(), slot: 0, busy_lane: 0 }
    }

    /// Adds a lane (before the first step).
    pub(crate) fn add_lane(&mut self, lane: &Lane) {
        debug_assert_eq!(self.slot, 0, "TandemSim: lanes are added before the first step");
        self.busy_lane = self.lanes.len();
        assert!(
            lane.cfg.same_arrivals(&self.arrivals.cfg),
            "TandemSim: lanes must share hops, flow counts, source and packet size"
        );
        self.lanes.push(LaneSim::new(lane));
    }

    /// The lane that was being added or stepped last: after a panic
    /// inside the simulation, the lane it happened in.
    pub(crate) fn busy_lane(&self) -> usize {
        self.busy_lane
    }

    /// Current slot.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Advances one slot: draws the arrivals once, then steps every
    /// lane on them in lane order.
    pub fn step(&mut self) {
        let t = self.slot;
        self.arrivals.draw();
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            self.busy_lane = k;
            lane.step(t, &self.arrivals.feeds);
        }
        self.slot += 1;
    }

    /// Advances `slots` slots.
    pub(crate) fn advance(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Runs `slots` slots and moves the first lane's accumulated
    /// statistics out — the result of a one-lane simulation. The lane
    /// goes on collecting from empty.
    pub fn run(&mut self, slots: u64) -> DelayStats {
        self.advance(slots);
        self.lanes[0].take_stats()
    }

    /// The lanes, in the order they were given.
    pub fn lanes(&self) -> &[LaneSim] {
        &self.lanes
    }

    /// Lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not below the lane count.
    pub fn lane(&self, k: usize) -> &LaneSim {
        &self.lanes[k]
    }

    /// Consumes the simulation, returning its lanes in order.
    pub(crate) fn into_lanes(self) -> Vec<LaneSim> {
        self.lanes
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

/// The buffer-based lane step that [`LaneSim::step`]'s sinks replaced,
/// kept as the reference the `sink_step_matches_the_buffered_reference`
/// proptest compares against bit for bit: node `h` serves into a
/// departure buffer, its through departures move to a forward buffer,
/// and that buffer drains into node `h + 1`. Its arrivals are the raw
/// `(bits, packets)` emissions, divided per lane.
#[cfg(test)]
mod reference {
    use super::*;

    /// The stream's emissions as `(bits, packets)` per feed.
    pub(super) struct RawArrivals {
        packet_size: Option<f64>,
        rng: StdRng,
        through: MmooAggregate,
        cross: Vec<MmooAggregate>,
        residuals: Vec<f64>,
        pub(super) emissions: Vec<(f64, usize)>,
    }

    impl RawArrivals {
        pub(super) fn new(cfg: &SimConfig, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let through = MmooAggregate::stationary(cfg.source, cfg.n_through, &mut rng);
            let cross = (0..cfg.hops)
                .map(|_| MmooAggregate::stationary(cfg.source, cfg.n_cross, &mut rng))
                .collect();
            RawArrivals {
                packet_size: cfg.packet_size,
                rng,
                through,
                cross,
                residuals: vec![0.0; cfg.hops + 1],
                emissions: vec![(0.0, 0); cfg.hops + 1],
            }
        }

        pub(super) fn draw(&mut self) {
            let packet_size = self.packet_size;
            let raw = self.through.step(&mut self.rng);
            self.emissions[0] = quantize(packet_size, &mut self.residuals[0], raw);
            for (h, cross) in self.cross.iter_mut().enumerate() {
                let raw = cross.step(&mut self.rng);
                self.emissions[h + 1] = quantize(packet_size, &mut self.residuals[h + 1], raw);
            }
        }
    }

    fn quantize(packet_size: Option<f64>, residual: &mut f64, bits: f64) -> (f64, usize) {
        match packet_size {
            None => (bits, 1),
            Some(l) => {
                *residual += bits;
                let packets = (*residual / l).floor() as usize;
                *residual -= packets as f64 * l;
                (packets as f64 * l, packets)
            }
        }
    }

    /// A lane stepped through per-slot forward and departure buffers.
    pub(super) struct BufferedLane {
        pub(super) lane: LaneSim,
        forwarded: Vec<Chunk>,
        departures: Vec<Chunk>,
    }

    impl BufferedLane {
        pub(super) fn new(lane: &Lane) -> Self {
            BufferedLane { lane: LaneSim::new(lane), forwarded: Vec::new(), departures: Vec::new() }
        }

        pub(super) fn step(&mut self, t: u64, emissions: &[(f64, usize)]) {
            let lane = &mut self.lane;
            let hops = lane.nodes.len();
            let (thr_bits, thr_packets) = emissions[0];
            let mut forwarded = std::mem::take(&mut self.forwarded);
            let mut departures = std::mem::take(&mut self.departures);
            if thr_bits > 0.0 {
                let per = thr_bits / thr_packets as f64;
                for _ in 0..thr_packets {
                    forwarded.push(Chunk { class: 0, bits: per, entry: t, node_arrival: t });
                }
                lane.exits.outstanding.push_back(OutstandingEmission { entry: t, bits: thr_bits });
            }
            for h in 0..hops {
                for c in forwarded.drain(..) {
                    lane.nodes[h].enqueue(c);
                }
                let (cross_bits, cross_packets) = emissions[h + 1];
                if cross_bits > 0.0 {
                    let per = cross_bits / cross_packets as f64;
                    for _ in 0..cross_packets {
                        lane.nodes[h].enqueue(Chunk {
                            class: 1,
                            bits: per,
                            entry: t,
                            node_arrival: t,
                        });
                    }
                }
                departures.clear();
                lane.nodes[h].serve_slot(t, &mut departures);
                for mut c in departures.drain(..) {
                    if c.class != 0 {
                        continue; // cross traffic leaves after one hop
                    }
                    if h + 1 < hops {
                        c.node_arrival = t;
                        forwarded.push(c);
                    } else {
                        lane.exits.record(c, t);
                    }
                }
            }
            self.forwarded = forwarded;
            self.departures = departures;
            lane.slots += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let stats = sim.run(5_000);
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
        let lane = sim.lane(0);
        let outstanding_bits: f64 = lane.exits.outstanding.iter().map(|e| e.bits).sum();
        assert!(outstanding_bits <= lane.backlog() + 1e-6);
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
        let stats = &replay_single_node(5.0, NodePolicy::Delta(vec![0.0]), &trace)[0];
        assert_eq!(stats.len(), 10);
        assert!(stats.max().unwrap() >= 9.0);
        assert!(stats.quantile(0.0).unwrap() >= 1.0); // first slot already overloads
    }

    #[test]
    fn replay_two_classes_priority() {
        // Class 1 has priority; class 0's chunk waits for it.
        let traces = vec![vec![5.0], vec![5.0]];
        let stats = replay_single_node(5.0, NodePolicy::Delta(vec![f64::INFINITY, 0.0]), &traces);
        assert_eq!((stats[1].len(), stats[1].max()), (1, Some(0.0)));
        assert_eq!((stats[0].len(), stats[0].max()), (1, Some(1.0)));
    }

    #[test]
    fn heterogeneous_bottleneck_raises_delays() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let run = |caps: &[f64]| {
            let lane = Lane::new(cfg).capacities(Some(caps.to_vec()));
            TandemSim::with_lanes(&[lane], 11).run(40_000)
        };
        let uniform = run(&[20.0, 20.0, 20.0]);
        let bottleneck = run(&[20.0, 12.0, 20.0]);
        assert!(bottleneck.mean().unwrap() > uniform.mean().unwrap());
    }

    /// Every through emission yields a sample, falls in the warm-up or
    /// is still in the network, and the lane's counters say which.
    #[cfg(feature = "telemetry")]
    #[test]
    fn metrics_account_for_every_through_emission() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let mut sim = TandemSim::new(cfg, 9);
        let mut emitted = 0;
        for _ in 0..20_000 {
            sim.step();
            emitted += u64::from(sim.arrivals.feeds[0].count > 0);
        }
        let lane = sim.lane(0);
        let m = lane.metrics();
        let count = |name: &str| m.counter_value(name, &[]);
        assert_eq!(count("sim_slots_total"), 20_000);
        assert_eq!(count("sim_delay_samples_total"), lane.stats().len() as u64);
        let discarded = count("sim_warmup_discarded_total");
        assert!(discarded > 0 && discarded <= cfg.warmup, "{discarded} warm-up discards");
        let inside = lane.exits.outstanding.len() as u64;
        assert_eq!(count("sim_delay_samples_total") + discarded + inside, emitted);
        for h in 0..cfg.hops {
            let idx = h.to_string();
            let labels: [(&str, &str); 1] = [("node", idx.as_str())];
            assert!(m.counter_value("sim_node_scheduler_decisions_total", &labels) > 0);
        }
        // `run` moves the samples out; the slots stay counted.
        let samples = sim.run(0).len() as u64;
        assert_eq!(samples, count("sim_delay_samples_total"));
        let after = sim.lane(0).metrics();
        assert_eq!(after.counter_value("sim_delay_samples_total", &[]), 0);
        assert_eq!(after.counter_value("sim_slots_total", &[]), 20_000);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn metrics_empty_without_the_feature() {
        let mut sim = TandemSim::new(light_cfg(SchedulerKind::Fifo), 9);
        let _ = sim.run(1_000);
        assert!(sim.lane(0).metrics().is_empty());
    }

    #[test]
    fn busy_lane_follows_the_lane_in_progress() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let lanes =
            [Lane::new(cfg), Lane::new(SimConfig { scheduler: SchedulerKind::Bmux, ..cfg })];
        let mut sim = TandemSim::without_lanes(&cfg, 3);
        sim.add_lane(&lanes[0]);
        assert_eq!(sim.busy_lane(), 0);
        sim.add_lane(&lanes[1]);
        assert_eq!(sim.busy_lane(), 1);
        sim.step();
        assert_eq!(sim.busy_lane(), 1, "the last lane stepped");
    }

    #[test]
    #[should_panic(expected = "lanes must share")]
    fn lanes_with_different_arrivals_are_rejected() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let lanes = [Lane::new(cfg), Lane::new(SimConfig { n_cross: cfg.n_cross + 1, ..cfg })];
        let _ = TandemSim::with_lanes(&lanes, 1);
    }

    #[test]
    fn warmup_discards_early_samples() {
        let cfg = SimConfig { warmup: 1_000, ..light_cfg(SchedulerKind::Fifo) };
        let mut sim = TandemSim::new(cfg, 3);
        for _ in 0..1_000 {
            sim.step();
        }
        // All entries so far are within warm-up: nothing recorded.
        assert_eq!(sim.lane(0).stats().len(), 0);
    }

    /// A scheduler of the lane proptest: any two-class Δ offset pair
    /// (FIFO, SP, BMUX, EDF, `delta:<v>`, with `+∞` levels), GPS at
    /// 1:3 (shares that are not dyadic) or SCFQ.
    fn any_scheduler() -> impl Strategy<Value = SchedulerKind> {
        let offset = || prop_oneof![Just(0.0), (1u32..30).prop_map(f64::from), Just(f64::INFINITY)];
        prop_oneof![
            (offset(), offset())
                .prop_map(|(d_through, d_cross)| SchedulerKind::Edf { d_through, d_cross }),
            Just(SchedulerKind::Gps { w_through: 1.0, w_cross: 3.0 }),
            Just(SchedulerKind::Scfq { w_through: 1.0, w_cross: 3.0 }),
            Just(SchedulerKind::Scfq { w_through: 2.0, w_cross: 1.0 }),
        ]
    }

    /// A random lane: 1–6 hops, 1–29 through and 0–39 cross flows at a
    /// load of 50–105%, fluid or packets of 0.7 or 1.5, and uniform or
    /// heterogeneous capacities.
    fn any_lane() -> impl Strategy<Value = Lane> {
        let packet = prop_oneof![Just(None), Just(Some(0.7)), Just(Some(1.5))];
        let factors = prop::collection::vec(0.7f64..1.3, 6);
        (
            (1usize..7, 1usize..30, 0usize..40, 0.5f64..1.05),
            (any_scheduler(), packet, 0u64..200),
            (factors, 0u32..2),
        )
            .prop_map(
                |((hops, n_through, n_cross, load), (scheduler, packet, warmup), (f, het))| {
                    let capacity = (n_through + n_cross) as f64 * 0.15 / load;
                    let cfg = SimConfig {
                        capacity,
                        hops,
                        n_through,
                        n_cross,
                        scheduler,
                        warmup,
                        packet_size: packet,
                        ..SimConfig::default()
                    };
                    let caps = (het == 1).then(|| f[..hops].iter().map(|f| f * capacity).collect());
                    Lane::new(cfg).capacities(caps)
                },
            )
    }

    /// Everything a lane has measured or still holds, bit for bit:
    /// statistics, counters, every node's queues, tags and counters,
    /// and the outstanding emissions.
    fn fingerprint(lane: &LaneSim) -> (DelayStats, MetricSet, Vec<u64>, String, String) {
        let backlogs = lane.nodes.iter().map(|n| n.backlog().to_bits()).collect();
        (
            lane.stats().clone(),
            lane.metrics(),
            backlogs,
            format!("{:?}", lane.nodes),
            format!("{:?}", lane.exits.outstanding),
        )
    }

    proptest! {
        /// The sink step (departures straight into the next node,
        /// chunk sizes from the stream) and the buffered reference
        /// leave every lane in the same state, bit for bit.
        #[test]
        fn sink_step_matches_the_buffered_reference(lane in any_lane(), seed in 0u64..1_000_000) {
            prop_assume!(!(lane.cfg.packet_size.is_some()
                && matches!(lane.cfg.scheduler, SchedulerKind::Gps { .. })));
            let mut arrivals = Arrivals::new(&lane.cfg, seed);
            let mut raw = reference::RawArrivals::new(&lane.cfg, seed);
            let mut sink = LaneSim::new(&lane);
            let mut buffered = reference::BufferedLane::new(&lane);
            for t in 0..1_500 {
                arrivals.draw();
                raw.draw();
                sink.step(t, &arrivals.feeds);
                buffered.step(t, &raw.emissions);
                if t % 500 == 499 {
                    prop_assert_eq!(fingerprint(&sink), fingerprint(&buffered.lane), "slot {}", t);
                }
            }
            prop_assert!(sink.stats().len() + sink.exits.outstanding.len() > 0, "no traffic");
        }
    }
}
