//! The tandem topology of the paper's Fig. 1.
//!
//! A [`TandemSim`] is one **arrival stream** driving one or more
//! **lanes**. The stream owns the traffic RNG and the through and cross
//! MMOO aggregates, and draws each slot's `H + 1` emissions once. Every
//! lane ([`LaneSim`]) serves those emissions with its own scheduler,
//! nodes, optional fault injector and statistics collector. Lanes never
//! feed back into the stream, so a lane's sample path is bit for bit the
//! one a single-lane simulation of the same [`Lane`] and seed produces:
//! comparing schedulers on several lanes is comparing them on the same
//! traffic, at the cost of one arrival draw per slot.

use crate::error::Error;
use crate::faults::{FaultCounters, FaultInjector, FaultPlan};
use crate::node::{Chunk, Node, NodePolicy, ServiceMode};
use crate::scheduler::SchedulerKind;
use crate::source::MmooAggregate;
use crate::stats::DelayStats;
use nc_telemetry::{Histogram, MetricSet};
use nc_traffic::Mmoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Per-run simulator telemetry of one lane: queue/backlog histograms
/// per node plus emission and sample counters. Only allocated when
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
/// and warm-up, per-node capacities and an optional fault plan.
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
    /// Faults injected at every node; `None` is clean links.
    pub faults: Option<FaultPlan>,
}

impl Lane {
    /// A clean, uniform-capacity lane.
    pub fn new(cfg: SimConfig) -> Self {
        Lane { cfg, capacities: None, faults: None }
    }

    /// Sets (or clears) per-node capacities.
    pub fn capacities(mut self, capacities: Option<Vec<f64>>) -> Self {
        self.capacities = capacities;
        self
    }

    /// Attaches (or clears) a fault plan.
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
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
    /// This slot's emissions per feed (same order) as `(bits, packets)`.
    emissions: Vec<(f64, usize)>,
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
            emissions: vec![(0.0, 0); cfg.hops + 1],
        }
    }

    /// Draws the slot's emissions: the through aggregate first, then the
    /// cross aggregates in path order.
    fn draw(&mut self) {
        let packet_size = self.cfg.packet_size;
        let raw = self.through.step(&mut self.rng);
        self.emissions[0] = quantize(packet_size, &mut self.residuals[0], raw);
        for (h, cross) in self.cross.iter_mut().enumerate() {
            let raw = cross.step(&mut self.rng);
            self.emissions[h + 1] = quantize(packet_size, &mut self.residuals[h + 1], raw);
        }
    }
}

/// Quantizes an emission into whole packets in packet mode, carrying
/// the remainder in the feed's `residual`; identity in fluid mode.
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
    cfg: SimConfig,
    nodes: Vec<Node>,
    /// Outstanding through emissions, in entry order.
    outstanding: VecDeque<OutstandingEmission>,
    /// Reusable buffer of chunks moving to the next node within the
    /// current slot (cut-through), kept across slots to avoid per-slot
    /// allocation.
    forwarded: Vec<Chunk>,
    /// Reusable per-node departure buffer passed to [`Node::serve_slot`].
    departures: Vec<Chunk>,
    stats: DelayStats,
    /// Opt-in telemetry; `None` keeps the hot loop untouched.
    telemetry: Option<SimTelemetry>,
    /// Fault injection; `None` keeps the hot loop untouched.
    faults: Option<FaultInjector>,
    /// Through emissions that lost bits to fault drops (post-warmup
    /// entries only would undercount; all entries are counted).
    lost_emissions: u64,
}

impl LaneSim {
    /// # Panics
    ///
    /// Panics if the capacities do not cover `cfg.hops` nodes, or (via
    /// [`Node::with_mode`]) if packet mode is combined with GPS or a
    /// capacity is not positive and finite.
    fn new(lane: &Lane, seed: u64) -> Result<Self, Error> {
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
        let faults = lane
            .faults
            .as_ref()
            .map(|plan| FaultInjector::new(plan, cfg.hops, seed))
            .transpose()?;
        let mode =
            if cfg.packet_size.is_some() { ServiceMode::NonPreemptive } else { ServiceMode::Fluid };
        let nodes = capacities
            .iter()
            .map(|&c| Node::with_mode(c, cfg.scheduler.node_policy(), 2, mode))
            .collect();
        Ok(LaneSim {
            cfg,
            nodes,
            outstanding: VecDeque::new(),
            forwarded: Vec::new(),
            departures: Vec::new(),
            stats: DelayStats::new(),
            telemetry: None,
            faults,
            lost_emissions: 0,
        })
    }

    /// Serves slot `t` given the slot's emissions (`(bits, packets)` of
    /// the through aggregate, then of each node's cross aggregate).
    fn step(&mut self, t: u64, emissions: &[(f64, usize)]) {
        let (thr_bits, thr_packets) = emissions[0];
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
            let (cross_bits, cross_packets) = emissions[h + 1];
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
    /// [`LaneSim::record_exit`]).
    fn drain_retired_front(&mut self) {
        while self.outstanding.front().is_some_and(|e| e.bits <= 1e-9) {
            let e = self.outstanding.pop_front().expect("front exists");
            if e.lossy {
                self.lost_emissions += 1;
            }
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &DelayStats {
        &self.stats
    }

    /// Moves the accumulated statistics out; the lane goes on
    /// collecting from empty.
    pub(crate) fn take_stats(&mut self) -> DelayStats {
        std::mem::take(&mut self.stats)
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

    /// Fault event counters, when the lane has a fault plan.
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

/// A running tandem simulation: one arrival stream served by one or
/// more lanes (see the module documentation).
#[derive(Debug)]
pub struct TandemSim {
    arrivals: Arrivals,
    lanes: Vec<LaneSim>,
    seed: u64,
    slot: u64,
    /// The lane being added or stepped, so that a panic inside a lane
    /// can be traced to it (see [`TandemSim::busy_lane`]).
    busy_lane: usize,
}

impl TandemSim {
    /// A one-lane simulation from a config and RNG seed: every node has
    /// capacity `cfg.capacity` and no faults.
    ///
    /// # Panics
    ///
    /// As for [`TandemSim::with_lanes`].
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        Self::with_lanes(&[Lane::new(cfg)], seed).expect("no fault plan to mismatch")
    }

    /// The general constructor: one arrival stream seeded by `seed`,
    /// served by every lane in order. Each lane's fault draws come from
    /// its own salted stream derived from `seed`, so the traffic sample
    /// path is identical to the unfaulted simulation under the same
    /// seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FaultConfig`] when a lane's per-node fault plan
    /// does not cover exactly its `hops` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or the lanes disagree on hops, flow
    /// counts, source or packet size; if `hops` or `n_through` is zero;
    /// if a lane's capacities do not cover its nodes or are not
    /// positive and finite; or if the packet size is invalid or
    /// combined with GPS.
    pub fn with_lanes(lanes: &[Lane], seed: u64) -> Result<Self, Error> {
        let first = lanes.first().expect("TandemSim: need at least one lane");
        let mut sim = Self::without_lanes(&first.cfg, seed);
        for lane in lanes {
            sim.add_lane(lane)?;
        }
        Ok(sim)
    }

    /// The arrival stream of `cfg` alone; lanes follow via
    /// [`TandemSim::add_lane`].
    pub(crate) fn without_lanes(cfg: &SimConfig, seed: u64) -> Self {
        TandemSim {
            arrivals: Arrivals::new(cfg, seed),
            lanes: Vec::new(),
            seed,
            slot: 0,
            busy_lane: 0,
        }
    }

    /// Adds a lane (before the first step).
    pub(crate) fn add_lane(&mut self, lane: &Lane) -> Result<(), Error> {
        debug_assert_eq!(self.slot, 0, "TandemSim: lanes are added before the first step");
        self.busy_lane = self.lanes.len();
        assert!(
            lane.cfg.same_arrivals(&self.arrivals.cfg),
            "TandemSim: lanes must share hops, flow counts, source and packet size"
        );
        self.lanes.push(LaneSim::new(lane, self.seed)?);
        Ok(())
    }

    /// The lane that was being added or stepped last: after a panic
    /// inside the simulation, the lane it happened in.
    pub(crate) fn busy_lane(&self) -> usize {
        self.busy_lane
    }

    /// Turns on per-node telemetry collection (queue-depth and backlog
    /// histograms, emission and sample counters) in every lane. The
    /// recorded values never feed back into the simulation, so results
    /// are bitwise-identical with telemetry on or off; without the
    /// `telemetry` cargo feature the collection itself is erased and
    /// [`LaneSim::metrics`] stays empty.
    pub fn enable_telemetry(&mut self) {
        for lane in &mut self.lanes {
            if lane.telemetry.is_none() {
                lane.telemetry = Some(SimTelemetry::new(lane.cfg.hops));
            }
        }
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
            lane.step(t, &self.arrivals.emissions);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A uniform-capacity tandem with `plan` injected at every node.
    fn faulted(cfg: SimConfig, plan: &FaultPlan, seed: u64) -> Result<TandemSim, Error> {
        TandemSim::with_lanes(&[Lane::new(cfg).faults(Some(plan.clone()))], seed)
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
        let outstanding_bits: f64 = lane.outstanding.iter().map(|e| e.bits).sum();
        assert!(outstanding_bits <= lane.backlog() + 1e-6);
    }

    #[test]
    fn empty_fault_plan_is_bitwise_identical_to_no_faults() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let plain = TandemSim::new(cfg, 21).run(20_000);
        let plan = FaultPlan::uniform(vec![]).unwrap();
        let faulted = faulted(cfg, &plan, 21).unwrap().run(20_000);
        assert_eq!(plain, faulted, "empty plan must not perturb traffic");
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
        assert_eq!(a, b);
        let c = faulted(cfg, &plan, 78).unwrap().run(20_000);
        assert_ne!(a, c, "different seeds must diverge");
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
        let fc = sim.lane(0).fault_counters().unwrap();
        assert!(fc.outage_slots.iter().sum::<u64>() > 0);
    }

    #[test]
    fn drops_lose_emissions_not_samples_integrity() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let plan = FaultPlan::uniform(vec![crate::FaultModel::Drop { prob: 0.05 }]).unwrap();
        let mut sim = faulted(cfg, &plan, 13).unwrap();
        let stats = sim.run(40_000);
        assert!(sim.lane(0).lost_emissions() > 0, "5% drops over 40k slots must lose something");
        assert!(!stats.is_empty(), "most emissions still make it through");
        let fc = sim.lane(0).fault_counters().unwrap();
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
        let stats = &replay_single_node(5.0, NodePolicy::Fifo, &trace)[0];
        assert_eq!(stats.len(), 10);
        assert!(stats.max().unwrap() >= 9.0);
        assert!(stats.quantile(0.0).unwrap() >= 1.0); // first slot already overloads
    }

    #[test]
    fn replay_two_classes_priority() {
        // Class 1 has priority; class 0's chunk waits for it.
        let traces = vec![vec![5.0], vec![5.0]];
        let stats = replay_single_node(5.0, NodePolicy::StaticPriority(vec![1, 0]), &traces);
        assert_eq!((stats[1].len(), stats[1].max()), (1, Some(0.0)));
        assert_eq!((stats[0].len(), stats[0].max()), (1, Some(1.0)));
    }

    #[test]
    fn heterogeneous_bottleneck_raises_delays() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let run = |caps: &[f64]| {
            let lane = Lane::new(cfg).capacities(Some(caps.to_vec()));
            TandemSim::with_lanes(&[lane], 11).unwrap().run(40_000)
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
        assert_eq!(plain, instrumented);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_metrics_cover_nodes_and_samples() {
        use nc_telemetry::MetricValue;
        let cfg = light_cfg(SchedulerKind::Fifo);
        let mut sim = TandemSim::new(cfg, 9);
        sim.enable_telemetry();
        let stats = sim.run(20_000);
        let m = sim.lane(0).metrics();
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
        assert!(sim.lane(0).metrics().is_empty());
    }

    #[test]
    fn busy_lane_follows_the_lane_in_progress() {
        let cfg = light_cfg(SchedulerKind::Fifo);
        let lanes =
            [Lane::new(cfg), Lane::new(SimConfig { scheduler: SchedulerKind::Bmux, ..cfg })];
        let mut sim = TandemSim::without_lanes(&cfg, 3);
        sim.add_lane(&lanes[0]).unwrap();
        assert_eq!(sim.busy_lane(), 0);
        sim.add_lane(&lanes[1]).unwrap();
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
}
