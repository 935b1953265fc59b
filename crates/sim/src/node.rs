//! A single scheduled link (node) in the slotted simulator.
//!
//! Every policy but GPS is a class-selection rule: [`Node`] picks the
//! class whose head chunk comes first and serves that head, whole or as
//! a fragment the size of the slot's remaining budget. FIFO, static
//! priority, BMUX and EDF are Δ-schedulers, one offset rule
//! ([`NodePolicy::Delta`]): the precedence key is the head's arrival
//! plus a per-class offset. SCFQ orders by its virtual-finish tags. One
//! loop serves fluid slots and one serves non-preemptive slots for all
//! of them, each compiled once per rule, so a slot resolves the policy
//! and mode once rather than once per pick; GPS water-fills each slot
//! across the backlogged classes instead. The serve path hands each
//! departure to a sink: in a tandem the next node's queue (or the
//! lane's exit), and through [`Node::serve_slot`] a caller-owned
//! buffer. Either way a steady-state slot performs no allocation.
//!
//! Precedence comparisons use [`f64::total_cmp`], so a NaN key can never
//! silently corrupt queue order; construction rejects NaN and negative
//! offsets and non-positive or non-finite weights outright.

use std::cmp::Ordering;
use std::collections::VecDeque;

/// A unit of fluid traffic moving through the network.
///
/// One chunk is created per (class, slot) with positive emission; the
/// scheduler may split chunks when a slot's capacity runs out mid-chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Traffic class at the node (0 = through traffic by convention).
    pub class: usize,
    /// Remaining data in the chunk.
    pub bits: f64,
    /// Slot at which the chunk entered the *network* (for end-to-end
    /// delay measurement).
    pub entry: u64,
    /// Slot at which the chunk arrived at the *current node*.
    pub node_arrival: u64,
}

/// The scheduling policy of a node over `n` traffic classes.
///
/// Every Δ-scheduler (Definition 1 of the paper) is one
/// [`NodePolicy::Delta`] offset vector; GPS and SCFQ are not
/// Δ-schedulers — their precedence horizon depends on the random
/// backlog — and are included to exercise that boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum NodePolicy {
    /// A Δ-scheduler given by per-class offsets `o` in slots: a chunk's
    /// precedence key is its node arrival plus `o[class]`, smaller
    /// first, with ties broken by arrival and then class index. So
    /// `Δ_{j,k} = o_j − o_k`: FIFO is `[0, 0]`, through priority
    /// `[0, +∞]`, BMUX `[+∞, 0]` and EDF the relative deadlines.
    /// Offsets must be non-negative; `+∞` is allowed.
    Delta(Vec<f64>),
    /// Generalized processor sharing with per-class weights: backlogged
    /// classes share each slot's capacity in proportion to their
    /// weights (fluid water-filling).
    Gps(Vec<f64>),
    /// Self-clocked fair queueing (Golestani): each arriving chunk gets
    /// a virtual finish tag `F = max(v, F_last[class]) + bits/w[class]`
    /// where `v` is the tag of the chunk in service, and chunks are
    /// served in tag order. A practical packet approximation of GPS —
    /// and, like GPS, *not* a Δ-scheduler.
    Scfq(Vec<f64>),
}

/// Whether a chunk in service can be interrupted.
///
/// The paper's analysis assumes fluid (preemptive) transmission;
/// [`ServiceMode::NonPreemptive`] models real packet links, where a
/// lower-precedence packet already on the wire blocks for up to one
/// packet time (`nc-core::packetization_penalty` quantifies the bound
/// correction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Chunks may be split and preempted mid-service at slot budget
    /// boundaries (the paper's fluid model).
    Fluid,
    /// A chunk, once started, is served to completion before the
    /// precedence order is consulted again.
    NonPreemptive,
}

/// Per-node scheduler event counters, maintained only when the
/// `telemetry` feature is compiled in (all-zero otherwise).
///
/// The counters are plain integers updated on the serve path — cheap
/// enough to keep unconditionally in the struct, with the updates
/// themselves erased from uninstrumented builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Scheduling decisions: head-of-line selections by precedence key
    /// or SCFQ tag, and GPS water-filling rounds.
    pub decisions: u64,
    /// Chunks served to completion (last bit departed).
    pub completed_chunks: u64,
    /// Chunk fragmentations at slot-budget or GPS-share boundaries.
    pub chunk_splits: u64,
    /// Δ-policy completions after the chunk's absolute deadline
    /// (`completion slot − node arrival > offset`). A Δ-policy counts
    /// them only if at least one offset is finite and positive; its
    /// finite offsets are then relative deadlines. So EDF and
    /// `delta:<v>` with `v ≠ 0` count, while FIFO, static priority,
    /// BMUX and all-zero offsets (`edf:0,0`, `delta:0`) stay zero, as
    /// do GPS and SCFQ.
    pub deadline_misses: u64,
}

/// A chunk's precedence: smaller serves first. Ties on the primary
/// criterion break by node arrival slot, then class index.
#[derive(Debug, Clone, Copy)]
struct Key {
    primary: f64,
    arrival: u64,
    class: usize,
}

impl Key {
    /// Strict "serves before" — a total order via [`f64::total_cmp`].
    /// Keys are non-negative in this simulator (arrival slots plus
    /// validated offsets, possibly `+∞`, and SCFQ tags), so this
    /// matches the naive `<` on every reachable input while staying
    /// robust to NaN. Two `+∞` keys tie, and arrival then class decide.
    fn precedes(&self, other: &Key) -> bool {
        match self.primary.total_cmp(&other.primary) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => (self.arrival, self.class) < (other.arrival, other.class),
        }
    }
}

/// The class whose queue head has the smallest key, if any queue is
/// non-empty.
#[inline(always)]
fn first_by<T>(queues: &[VecDeque<T>], key: impl Fn(usize, &T) -> Key) -> Option<usize> {
    let mut best: Option<(usize, Key)> = None;
    for (class, q) in queues.iter().enumerate() {
        if let Some(head) = q.front() {
            let k = key(class, head);
            if best.is_none_or(|(_, bk)| k.precedes(&bk)) {
                best = Some((class, k));
            }
        }
    }
    best.map(|(c, _)| c)
}

/// How the fluid and the non-preemptive loop choose what to serve: the
/// node's policy, resolved once per slot. The loops are generic over
/// it, so each rule gets its own monomorphized copy with no policy
/// match inside.
trait Rule {
    /// The backlogged class whose head serves next, if any.
    fn pick(&mut self, queues: &[VecDeque<Chunk>]) -> Option<usize>;

    /// The head chunk of `class` left its queue.
    fn popped(&mut self, _class: usize) {}

    /// Whether `c`, whose last bit departs at `slot`, missed its
    /// deadline (see [`NodeCounters::deadline_misses`]).
    fn late(&self, _c: &Chunk, _slot: u64) -> bool {
        false
    }
}

/// A Δ-policy: a head's key is its node arrival plus its class offset.
struct ByOffset<'a> {
    offsets: &'a [f64],
    /// Whether the offsets are relative deadlines.
    deadlines: bool,
}

impl Rule for ByOffset<'_> {
    fn pick(&mut self, queues: &[VecDeque<Chunk>]) -> Option<usize> {
        first_by(queues, |class, c| Key {
            primary: c.node_arrival as f64 + self.offsets[class],
            arrival: c.node_arrival,
            class,
        })
    }

    fn late(&self, c: &Chunk, slot: u64) -> bool {
        self.deadlines && (slot.saturating_sub(c.node_arrival)) as f64 > self.offsets[c.class]
    }
}

/// SCFQ: the smallest head tag serves next (ties go to the lower
/// class), and picking advances the virtual time to it.
struct ByTag<'a> {
    tags: &'a mut [VecDeque<f64>],
    vtime: &'a mut f64,
}

impl Rule for ByTag<'_> {
    fn pick(&mut self, _queues: &[VecDeque<Chunk>]) -> Option<usize> {
        let class = first_by(self.tags, |class, &tag| Key { primary: tag, arrival: 0, class })?;
        *self.vtime = *self.tags[class].front().expect("tag for head chunk");
        Some(class)
    }

    fn popped(&mut self, class: usize) {
        self.tags[class].pop_front();
    }
}

/// GPS water-fills: it picks no class, keeps no tags and has no
/// deadlines.
struct WaterFill;

impl Rule for WaterFill {
    fn pick(&mut self, _queues: &[VecDeque<Chunk>]) -> Option<usize> {
        unreachable!("GPS water-fills; it never picks a class")
    }
}

/// The per-class queues and the chunk on the wire, with the counters
/// the serve loops keep.
#[derive(Debug, Clone)]
struct Queues {
    classes: Vec<VecDeque<Chunk>>,
    /// The chunk currently on the wire in non-preemptive mode, with its
    /// original size (reported on completion, since the whole chunk
    /// departs at once).
    in_service: Option<(Chunk, f64)>,
    /// Telemetry event counters (all-zero in uninstrumented builds).
    counters: NodeCounters,
}

impl Queues {
    /// Nothing queued and nothing on the wire.
    fn is_idle(&self) -> bool {
        self.in_service.is_none() && self.classes.iter().all(VecDeque::is_empty)
    }

    /// The class `rule` picks, counted as one scheduling decision.
    ///
    /// `pick`, `pop_head`, `serve_head` and `first_by` are forced
    /// inline: with `#[inline]` alone, fluid GPS and SCFQ slots ran
    /// about 20% slower.
    #[inline(always)]
    fn pick(&mut self, rule: &mut impl Rule) -> Option<usize> {
        let class = rule.pick(&self.classes)?;
        self.note_decision();
        Some(class)
    }

    /// Removes the head chunk of `class`.
    #[inline(always)]
    fn pop_head(&mut self, rule: &mut impl Rule, class: usize) -> Chunk {
        rule.popped(class);
        self.classes[class].pop_front().expect("class with a head chunk")
    }

    /// Serves the head chunk of `class` within `budget`: whole if it
    /// fits, else a fragment of exactly `budget` bits. Returns the bits
    /// served.
    #[inline(always)]
    fn serve_head(
        &mut self,
        rule: &mut impl Rule,
        class: usize,
        budget: f64,
        slot: u64,
        sink: &mut impl FnMut(Chunk),
    ) -> f64 {
        let head = self.classes[class].front_mut().expect("class with a head chunk");
        if head.bits <= budget {
            let done = self.pop_head(rule, class);
            self.note_completion(rule, &done, slot);
            sink(done);
            done.bits
        } else {
            let mut served = *head;
            served.bits = budget;
            head.bits -= budget;
            self.note_split();
            sink(served);
            budget
        }
    }

    /// Serves one slot of `capacity` by `rule` in `mode`.
    fn serve(
        &mut self,
        mode: ServiceMode,
        capacity: f64,
        mut rule: impl Rule,
        slot: u64,
        sink: &mut impl FnMut(Chunk),
    ) {
        match mode {
            ServiceMode::Fluid => self.serve_fluid(capacity, &mut rule, slot, sink),
            ServiceMode::NonPreemptive => self.serve_nonpreemptive(capacity, &mut rule, slot, sink),
        }
    }

    /// Fluid service: serve the picked head until the slot budget runs
    /// out, splitting the last chunk at the budget boundary.
    fn serve_fluid(
        &mut self,
        capacity: f64,
        rule: &mut impl Rule,
        slot: u64,
        sink: &mut impl FnMut(Chunk),
    ) {
        let mut budget = capacity;
        while budget > 1e-12 {
            let Some(class) = self.pick(rule) else { break };
            budget -= self.serve_head(rule, class, budget, slot, sink);
        }
    }

    /// Non-preemptive service: finish the chunk on the wire before
    /// picking again; completed chunks depart whole (no fragments).
    fn serve_nonpreemptive(
        &mut self,
        capacity: f64,
        rule: &mut impl Rule,
        slot: u64,
        sink: &mut impl FnMut(Chunk),
    ) {
        let mut budget = capacity;
        while budget > 1e-12 {
            if self.in_service.is_none() {
                let Some(class) = self.pick(rule) else { break };
                let chunk = self.pop_head(rule, class);
                self.in_service = Some((chunk, chunk.bits));
            }
            let (cur, _) = self.in_service.as_mut().expect("chunk selected above");
            let served = cur.bits.min(budget);
            cur.bits -= served;
            budget -= served;
            if cur.bits <= 1e-12 {
                let (mut done, size) = self.in_service.take().expect("current chunk");
                // The whole chunk departs at completion time with its
                // original size (non-preemptive last-bit semantics).
                done.bits = size;
                self.note_completion(rule, &done, slot);
                sink(done);
            }
        }
    }

    /// GPS fluid service: water-filling of the slot capacity across
    /// backlogged classes in proportion to their weights, each class
    /// served FIFO within its share. (Non-preemptive GPS is rejected at
    /// construction.)
    fn serve_gps(
        &mut self,
        capacity: f64,
        weights: &[f64],
        slot: u64,
        sink: &mut impl FnMut(Chunk),
    ) {
        let mut budget = capacity;
        // Served bits this slot, accumulated in departure order — the
        // budget recomputation below must stay bit-identical to summing
        // the slot's departures left-to-right.
        let mut total_served = 0.0_f64;
        // Iterate: distribute the remaining budget among still-backlogged
        // classes; classes that empty return their surplus.
        loop {
            let mut wsum = 0.0_f64;
            let mut any_active = false;
            for (q, &w) in self.classes.iter().zip(weights) {
                if !q.is_empty() {
                    wsum += w;
                    any_active = true;
                }
            }
            if !any_active || budget <= 1e-12 {
                break;
            }
            self.note_decision(); // one water-filling round
            let mut consumed_any = false;
            for (c, &w) in weights.iter().enumerate() {
                if self.classes[c].is_empty() {
                    continue;
                }
                let share = budget * w / wsum;
                let mut left = share;
                while left > 1e-12 && !self.classes[c].is_empty() {
                    let served = self.serve_head(&mut WaterFill, c, left, slot, sink);
                    left -= served;
                    total_served += served;
                }
                if share - left > 1e-15 {
                    consumed_any = true;
                }
            }
            // Recompute the budget from what was actually served.
            budget = capacity - total_served;
            if !consumed_any {
                break;
            }
        }
    }

    /// Telemetry bookkeeping for a chunk whose last bit departed at
    /// `slot`, with the rule's deadline check; erased from
    /// uninstrumented builds.
    #[inline]
    fn note_completion(&mut self, rule: &impl Rule, c: &Chunk, slot: u64) {
        if cfg!(feature = "telemetry") {
            self.counters.completed_chunks += 1;
            if rule.late(c, slot) {
                self.counters.deadline_misses += 1;
            }
        }
    }

    /// Telemetry bookkeeping for one scheduling decision.
    #[inline]
    fn note_decision(&mut self) {
        if cfg!(feature = "telemetry") {
            self.counters.decisions += 1;
        }
    }

    /// Telemetry bookkeeping for a chunk split (fragment departure).
    #[inline]
    fn note_split(&mut self) {
        if cfg!(feature = "telemetry") {
            self.counters.chunk_splits += 1;
        }
    }
}

/// A work-conserving link of fixed per-slot capacity with per-class
/// queues and a [`NodePolicy`].
///
/// # Example
///
/// ```
/// use nc_sim::{Node, Chunk};
/// use nc_sim::NodePolicy;
///
/// let mut node = Node::new(10.0, NodePolicy::Delta(vec![0.0, 0.0]), 2); // FIFO
/// node.enqueue(Chunk { class: 0, bits: 4.0, entry: 0, node_arrival: 0 });
/// node.enqueue(Chunk { class: 1, bits: 8.0, entry: 0, node_arrival: 0 });
/// let mut out = Vec::new();
/// node.serve_slot(0, &mut out);
/// // 10 units of capacity: the through chunk and half the cross chunk.
/// assert_eq!(out.len(), 2);
/// assert!(node.backlog() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Node {
    capacity: f64,
    policy: NodePolicy,
    mode: ServiceMode,
    queues: Queues,
    /// SCFQ virtual-finish tags, aligned with the class queues; empty
    /// for every other policy.
    tags: Vec<VecDeque<f64>>,
    /// SCFQ per-class last assigned finish tag (empty for other policies).
    last_finish: Vec<f64>,
    /// SCFQ virtual time: the tag of the chunk most recently picked.
    vtime: f64,
    /// Whether completions are checked against the Δ offsets as
    /// relative deadlines (see [`NodeCounters::deadline_misses`]).
    deadlines: bool,
}

impl Node {
    /// Creates a fluid-mode node with per-slot `capacity`, a policy,
    /// and `classes` traffic classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive/finite, `classes` is zero,
    /// the policy's per-class parameter length differs from `classes`,
    /// a Δ offset is negative or NaN, or a GPS/SCFQ weight is not
    /// positive and finite (such a parameter would sit inside every
    /// precedence comparison of the serve path).
    pub fn new(capacity: f64, policy: NodePolicy, classes: usize) -> Self {
        Self::with_mode(capacity, policy, classes, ServiceMode::Fluid)
    }

    /// Creates a node with an explicit [`ServiceMode`].
    ///
    /// # Panics
    ///
    /// As for [`Node::new`]; additionally panics for the combination of
    /// GPS with non-preemptive service (packetized fair queueing is
    /// modelled by [`NodePolicy::Scfq`], a virtual-time scheduler).
    pub fn with_mode(capacity: f64, policy: NodePolicy, classes: usize, mode: ServiceMode) -> Self {
        assert!(capacity > 0.0 && capacity.is_finite(), "Node: capacity must be positive");
        assert!(classes > 0, "Node: need at least one class");
        let positive = |w: &[f64]| w.iter().all(|&w| w > 0.0 && w.is_finite());
        let (params, ok, what) = match &policy {
            NodePolicy::Delta(o) => {
                (o, o.iter().all(|&o| o >= 0.0), "Δ offsets must be non-negative (+∞ allowed)")
            }
            NodePolicy::Gps(w) => (w, positive(w), "GPS weights must be positive and finite"),
            NodePolicy::Scfq(w) => (w, positive(w), "SCFQ weights must be positive and finite"),
        };
        assert_eq!(params.len(), classes, "Node: policy parameters must cover every class");
        assert!(ok, "Node: {what}");
        if mode == ServiceMode::NonPreemptive {
            assert!(
                !matches!(policy, NodePolicy::Gps(_)),
                "Node: non-preemptive GPS (packetized WFQ) is not modelled; use Scfq"
            );
        }
        let deadlines = matches!(&policy, NodePolicy::Delta(o)
            if o.iter().any(|&o| o.is_finite() && o > 0.0));
        let scfq_classes = if matches!(policy, NodePolicy::Scfq(_)) { classes } else { 0 };
        Node {
            capacity,
            policy,
            mode,
            queues: Queues {
                classes: vec![VecDeque::new(); classes],
                in_service: None,
                counters: NodeCounters::default(),
            },
            tags: vec![VecDeque::new(); scfq_classes],
            last_finish: vec![0.0; scfq_classes],
            vtime: 0.0,
            deadlines,
        }
    }

    /// Telemetry event counters accumulated so far.
    pub fn counters(&self) -> NodeCounters {
        self.queues.counters
    }

    /// Total backlogged data across classes (including a partially
    /// transmitted chunk in non-preemptive mode).
    pub fn backlog(&self) -> f64 {
        self.queues.classes.iter().flatten().map(|c| c.bits).sum::<f64>()
            + self.queues.in_service.map_or(0.0, |(c, _)| c.bits)
    }

    /// Backlogged data of one class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_backlog(&self, class: usize) -> f64 {
        self.queues.classes[class].iter().map(|c| c.bits).sum::<f64>()
            + self.queues.in_service.filter(|(c, _)| c.class == class).map_or(0.0, |(c, _)| c.bits)
    }

    /// Adds a chunk to its class queue. For SCFQ, the virtual finish
    /// tag `F = max(v, F_last[class]) + bits/w[class]` is stamped here
    /// (arrival-time semantics).
    ///
    /// # Panics
    ///
    /// Panics if the chunk's class is out of range or its size is not
    /// positive/finite.
    pub fn enqueue(&mut self, chunk: Chunk) {
        assert!(chunk.class < self.queues.classes.len(), "enqueue: class out of range");
        assert!(chunk.bits > 0.0 && chunk.bits.is_finite(), "enqueue: bits must be positive");
        self.push(chunk);
    }

    /// [`Node::enqueue`] for a chunk that is valid by construction: a
    /// departure of a node with the same classes, whose size is a
    /// positive share of a checked arrival or of the finite capacity.
    /// The checks run in debug builds only; release lanes forward about
    /// 5% faster without them.
    pub(crate) fn push(&mut self, chunk: Chunk) {
        debug_assert!(chunk.class < self.queues.classes.len(), "push: class out of range");
        debug_assert!(chunk.bits > 0.0 && chunk.bits.is_finite(), "push: bits must be positive");
        if let NodePolicy::Scfq(weights) = &self.policy {
            let start = self.vtime.max(self.last_finish[chunk.class]);
            let finish = start + chunk.bits / weights[chunk.class];
            self.last_finish[chunk.class] = finish;
            self.tags[chunk.class].push_back(finish);
        }
        self.queues.classes[chunk.class].push_back(chunk);
    }

    /// Serves one slot's worth of capacity, appending the chunks (or
    /// chunk fragments) that depart during this slot to `out` in
    /// service order.
    ///
    /// `out` is **not** cleared — the caller owns (and typically
    /// reuses) the buffer, so a steady-state slot allocates nothing.
    pub fn serve_slot(&mut self, slot: u64, out: &mut Vec<Chunk>) {
        self.serve_slot_into(slot, |c| out.push(c));
    }

    /// Serves one slot's worth of capacity, handing each chunk (or
    /// chunk fragment) that departs during this slot to `sink`, in
    /// service order. The policy and service mode are resolved once
    /// here, not once per pick.
    pub(crate) fn serve_slot_into(&mut self, slot: u64, mut sink: impl FnMut(Chunk)) {
        let (capacity, mode) = (self.capacity, self.mode);
        match &self.policy {
            NodePolicy::Delta(offsets) => {
                let rule = ByOffset { offsets, deadlines: self.deadlines };
                self.queues.serve(mode, capacity, rule, slot, &mut sink);
            }
            NodePolicy::Scfq(_) => {
                let rule = ByTag { tags: &mut self.tags, vtime: &mut self.vtime };
                self.queues.serve(mode, capacity, rule, slot, &mut sink);
                // When an SCFQ node drains completely, reset the virtual
                // clock so tags do not grow without bound across busy
                // periods.
                if self.queues.is_idle() {
                    self.vtime = 0.0;
                    self.last_finish.iter_mut().for_each(|f| *f = 0.0);
                }
            }
            NodePolicy::Gps(weights) => self.queues.serve_gps(capacity, weights, slot, &mut sink),
        }
    }

    /// Convenience wrapper around [`Node::serve_slot`] returning a fresh
    /// vector — fine for tests and examples; hot paths should reuse a
    /// buffer via [`Node::serve_slot`].
    pub fn serve_slot_vec(&mut self, slot: u64) -> Vec<Chunk> {
        let mut out = Vec::new();
        self.serve_slot(slot, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    fn chunk(class: usize, bits: f64, arrival: u64) -> Chunk {
        Chunk { class, bits, entry: arrival, node_arrival: arrival }
    }

    /// FIFO over `classes` classes: all offsets zero.
    fn fifo(classes: usize) -> NodePolicy {
        NodePolicy::Delta(vec![0.0; classes])
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut n = Node::new(10.0, fifo(2), 2);
        n.enqueue(chunk(1, 5.0, 0));
        n.enqueue(chunk(0, 5.0, 1));
        n.enqueue(chunk(1, 5.0, 2));
        let out = n.serve_slot_vec(2);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].class, out[0].node_arrival), (1, 0));
        assert_eq!((out[1].class, out[1].node_arrival), (0, 1));
        assert_eq!(n.backlog(), 5.0);
    }

    #[test]
    fn fifo_tie_break_prefers_lower_class() {
        let mut n = Node::new(4.0, fifo(2), 2);
        n.enqueue(chunk(1, 4.0, 0));
        n.enqueue(chunk(0, 4.0, 0));
        let out = n.serve_slot_vec(0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class, 0);
    }

    #[test]
    fn chunk_splitting_preserves_bits() {
        let mut n = Node::new(3.0, fifo(1), 1);
        n.enqueue(chunk(0, 10.0, 0));
        let out1 = n.serve_slot_vec(0);
        assert_eq!(out1.len(), 1);
        assert!((out1[0].bits - 3.0).abs() < 1e-12);
        assert!((n.backlog() - 7.0).abs() < 1e-12);
        let out2 = n.serve_slot_vec(1);
        assert!((out2[0].bits - 3.0).abs() < 1e-12);
    }

    #[test]
    fn serve_slot_appends_without_clearing() {
        let mut n = Node::new(3.0, fifo(1), 1);
        n.enqueue(chunk(0, 6.0, 0));
        let mut out = Vec::new();
        n.serve_slot(0, &mut out);
        n.serve_slot(1, &mut out);
        assert_eq!(out.len(), 2, "departures accumulate in the caller's buffer");
        assert!((out.iter().map(|c| c.bits).sum::<f64>() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn static_priority_preempts_in_key_order() {
        let mut n = Node::new(5.0, NodePolicy::Delta(vec![INF, 0.0]), 2);
        n.enqueue(chunk(0, 5.0, 0)); // low priority, arrived first
        n.enqueue(chunk(1, 5.0, 3)); // high priority, arrived later
        let out = n.serve_slot_vec(3);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].class, 1, "high priority must be served first");
    }

    #[test]
    fn edf_orders_by_absolute_deadline() {
        // Class 0 deadline 10, class 1 deadline 2: a class-1 arrival at
        // t=5 (deadline 7) beats a class-0 arrival at t=0 (deadline 10).
        let mut n = Node::new(5.0, NodePolicy::Delta(vec![10.0, 2.0]), 2);
        n.enqueue(chunk(0, 5.0, 0));
        n.enqueue(chunk(1, 5.0, 5));
        let out = n.serve_slot_vec(5);
        assert_eq!(out[0].class, 1);
        // And the other way: class-1 at t=9 (deadline 11) loses to
        // class-0 at t=0 (deadline 10).
        let mut n = Node::new(5.0, NodePolicy::Delta(vec![10.0, 2.0]), 2);
        n.enqueue(chunk(0, 5.0, 0));
        n.enqueue(chunk(1, 5.0, 9));
        let out = n.serve_slot_vec(9);
        assert_eq!(out[0].class, 0, "deadline 10 beats deadline 9+2=11");
    }

    #[test]
    fn gps_shares_by_weight() {
        let mut n = Node::new(9.0, NodePolicy::Gps(vec![2.0, 1.0]), 2);
        n.enqueue(chunk(0, 100.0, 0));
        n.enqueue(chunk(1, 100.0, 0));
        let _ = n.serve_slot_vec(0);
        // Class 0 gets 6, class 1 gets 3.
        assert!((n.class_backlog(0) - 94.0).abs() < 1e-9);
        assert!((n.class_backlog(1) - 97.0).abs() < 1e-9);
    }

    #[test]
    fn gps_redistributes_surplus() {
        let mut n = Node::new(9.0, NodePolicy::Gps(vec![2.0, 1.0]), 2);
        n.enqueue(chunk(0, 1.0, 0)); // class 0 needs far less than its share
        n.enqueue(chunk(1, 100.0, 0));
        let _ = n.serve_slot_vec(0);
        assert_eq!(n.class_backlog(0), 0.0);
        // Class 1 receives the remaining 8 units.
        assert!((n.class_backlog(1) - 92.0).abs() < 1e-9);
    }

    #[test]
    fn work_conservation() {
        // Any policy serves min(capacity, backlog) per slot.
        for policy in [
            fifo(2),
            NodePolicy::Delta(vec![0.0, INF]),
            NodePolicy::Delta(vec![3.0, 7.0]),
            NodePolicy::Gps(vec![1.0, 2.0]),
        ] {
            let mut n = Node::new(5.0, policy.clone(), 2);
            n.enqueue(chunk(0, 4.0, 0));
            n.enqueue(chunk(1, 3.0, 0));
            let served: f64 = n.serve_slot_vec(0).iter().map(|c| c.bits).sum();
            assert!((served - 5.0).abs() < 1e-9, "{policy:?} not work conserving");
            let served2: f64 = n.serve_slot_vec(1).iter().map(|c| c.bits).sum();
            assert!((served2 - 2.0).abs() < 1e-9, "{policy:?} second slot");
        }
    }

    #[test]
    #[should_panic(expected = "policy parameters must cover every class")]
    fn rejects_mismatched_policy() {
        let _ = Node::new(1.0, NodePolicy::Delta(vec![1.0]), 2);
    }

    #[test]
    #[should_panic(expected = "offsets must be non-negative")]
    fn rejects_nan_offset() {
        let _ = Node::new(1.0, NodePolicy::Delta(vec![f64::NAN, 1.0]), 2);
    }

    #[test]
    #[should_panic(expected = "offsets must be non-negative")]
    fn rejects_negative_offset() {
        let _ = Node::new(1.0, NodePolicy::Delta(vec![-1.0, 1.0]), 2);
    }

    #[test]
    fn infinite_offsets_tie_by_arrival_then_class() {
        // Both classes at +∞ (one static-priority level): FIFO between
        // them, the lower class first on equal arrival.
        let mut n = Node::new(4.0, NodePolicy::Delta(vec![INF, INF]), 2);
        n.enqueue(chunk(0, 4.0, 1));
        n.enqueue(chunk(1, 4.0, 0));
        n.enqueue(chunk(0, 4.0, 2));
        n.enqueue(chunk(1, 4.0, 2));
        let order: Vec<_> = (2..6).flat_map(|t| n.serve_slot_vec(t)).map(|c| c.class).collect();
        assert_eq!(order, [1, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "GPS weights must be positive")]
    fn rejects_nonfinite_gps_weight() {
        let _ = Node::new(1.0, NodePolicy::Gps(vec![f64::NAN, 1.0]), 2);
    }

    #[test]
    #[should_panic(expected = "GPS weights must be positive")]
    fn rejects_infinite_gps_weight() {
        let _ = Node::new(1.0, NodePolicy::Gps(vec![1.0, INF]), 2);
    }

    #[test]
    fn nonpreemptive_blocks_higher_priority_by_one_chunk() {
        // Low-priority packet (class 0, level 1) starts service; a
        // high-priority packet arriving mid-transmission must wait for it.
        let mut n =
            Node::with_mode(4.0, NodePolicy::Delta(vec![INF, 0.0]), 2, ServiceMode::NonPreemptive);
        n.enqueue(chunk(0, 8.0, 0)); // needs 2 slots
        let out0 = n.serve_slot_vec(0);
        assert!(out0.is_empty(), "packet still on the wire");
        n.enqueue(chunk(1, 4.0, 1)); // high priority arrives during service
        let out1 = n.serve_slot_vec(1);
        // Slot 1: finish the low-priority packet (4 bits) — the high-
        // priority one is blocked despite its priority.
        assert_eq!(out1.len(), 1);
        assert_eq!(out1[0].class, 0);
        assert!((out1[0].bits - 8.0).abs() < 1e-12, "departs whole");
        let out2 = n.serve_slot_vec(2);
        assert_eq!(out2[0].class, 1);
    }

    #[test]
    fn nonpreemptive_departures_are_whole_chunks() {
        let mut n = Node::with_mode(3.0, fifo(1), 1, ServiceMode::NonPreemptive);
        n.enqueue(chunk(0, 10.0, 0));
        assert!(n.serve_slot_vec(0).is_empty());
        assert!(n.serve_slot_vec(1).is_empty());
        assert!(n.serve_slot_vec(2).is_empty());
        let out = n.serve_slot_vec(3);
        assert_eq!(out.len(), 1);
        assert!((out[0].bits - 10.0).abs() < 1e-12);
        assert_eq!(n.backlog(), 0.0);
    }

    #[test]
    fn nonpreemptive_work_conservation() {
        let mut n = Node::with_mode(5.0, fifo(2), 2, ServiceMode::NonPreemptive);
        n.enqueue(chunk(0, 3.0, 0));
        n.enqueue(chunk(1, 3.0, 0));
        // Slot 0 serves 5 bits of work (chunk 0 fully, chunk 1 partly).
        let out = n.serve_slot_vec(0);
        assert_eq!(out.len(), 1);
        assert!((n.backlog() - 1.0).abs() < 1e-12);
        let out1 = n.serve_slot_vec(1);
        assert_eq!(out1.len(), 1);
        assert!((out1[0].bits - 3.0).abs() < 1e-12, "whole size reported");
    }

    #[test]
    fn scfq_shares_roughly_by_weight() {
        // Continuous backlog in both classes: SCFQ service shares track
        // the 2:1 weights over a busy period.
        let mut n = Node::new(9.0, NodePolicy::Scfq(vec![2.0, 1.0]), 2);
        // SCFQ fairness granularity is the packet: enqueue many small
        // packets per class rather than one giant chunk.
        for _ in 0..100 {
            n.enqueue(chunk(0, 3.0, 0));
            n.enqueue(chunk(1, 3.0, 0));
        }
        let mut served = [0.0_f64; 2];
        for t in 0..20 {
            for c in n.serve_slot_vec(t) {
                served[c.class] += c.bits;
            }
        }
        let ratio = served[0] / served[1];
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "SCFQ share ratio {ratio} far from the 2:1 weights ({served:?})"
        );
    }

    #[test]
    fn scfq_single_backlogged_class_gets_everything() {
        let mut n = Node::new(5.0, NodePolicy::Scfq(vec![1.0, 3.0]), 2);
        n.enqueue(chunk(0, 12.0, 0));
        let served: f64 = (0..3).flat_map(|t| n.serve_slot_vec(t)).map(|c| c.bits).sum();
        assert!((served - 12.0).abs() < 1e-9);
    }

    #[test]
    fn scfq_tags_give_latecomers_credit() {
        // Class 1 idle while class 0 is served; when class 1 wakes up its
        // tag starts from the current virtual time, not from zero — so it
        // neither sweeps the queue with stale credit nor starves.
        let mut n = Node::new(4.0, NodePolicy::Scfq(vec![1.0, 1.0]), 2);
        for _ in 0..20 {
            n.enqueue(chunk(0, 2.0, 0));
        }
        for t in 0..5 {
            let _ = n.serve_slot_vec(t); // class 0 alone: v advances
        }
        for _ in 0..4 {
            n.enqueue(chunk(1, 2.0, 5));
        }
        let mut served = [0.0_f64; 2];
        for t in 5..9 {
            for c in n.serve_slot_vec(t) {
                served[c.class] += c.bits;
            }
        }
        // After the join, both classes share ≈ equally.
        assert!(served[1] >= 6.0, "latecomer got {served:?}");
        assert!(served[0] >= 6.0, "incumbent got {served:?}");
    }

    #[test]
    fn scfq_nonpreemptive_departs_whole() {
        let mut n =
            Node::with_mode(3.0, NodePolicy::Scfq(vec![1.0, 1.0]), 2, ServiceMode::NonPreemptive);
        n.enqueue(chunk(0, 9.0, 0));
        n.enqueue(chunk(1, 3.0, 0));
        let mut sizes = Vec::new();
        for t in 0..4 {
            sizes.extend(n.serve_slot_vec(t).iter().map(|c| c.bits));
        }
        assert_eq!(sizes.len(), 2);
        for s in sizes {
            assert!((s - 9.0).abs() < 1e-9 || (s - 3.0).abs() < 1e-9);
        }
        assert_eq!(n.backlog(), 0.0);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn scfq_rejects_zero_weight() {
        let _ = Node::new(1.0, NodePolicy::Scfq(vec![0.0, 1.0]), 2);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn counters_track_decisions_completions_and_edf_misses() {
        let mut n = Node::new(2.0, NodePolicy::Delta(vec![1.0, 1.0]), 2);
        n.enqueue(chunk(0, 6.0, 0)); // needs 3 slots against deadline 1
        for t in 0..3 {
            let _ = n.serve_slot_vec(t);
        }
        let c = n.counters();
        assert_eq!(c.completed_chunks, 1);
        assert_eq!(c.deadline_misses, 1, "completion at slot 2 > deadline 1");
        assert_eq!(c.chunk_splits, 2);
        assert_eq!(c.decisions, 3);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn counters_edf_on_time_completion_is_not_a_miss() {
        let mut n = Node::new(10.0, NodePolicy::Delta(vec![5.0, 5.0]), 2);
        n.enqueue(chunk(0, 10.0, 0));
        let _ = n.serve_slot_vec(0);
        let c = n.counters();
        assert_eq!((c.completed_chunks, c.deadline_misses), (1, 0));
    }

    /// One 3-slot chunk per class, both arriving at slot 0, served
    /// under `offsets`: (completions, deadline misses).
    #[cfg(feature = "telemetry")]
    fn late_misses(offsets: [f64; 2]) -> (u64, u64) {
        let mut n = Node::new(1.0, NodePolicy::Delta(offsets.to_vec()), 2);
        n.enqueue(chunk(0, 3.0, 0));
        n.enqueue(chunk(1, 3.0, 0));
        for t in 0..6 {
            let _ = n.serve_slot_vec(t);
        }
        let c = n.counters();
        (c.completed_chunks, c.deadline_misses)
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn finite_offsets_are_deadlines_only_beside_a_positive_one() {
        // A positive finite offset makes every finite offset a relative
        // deadline: EDF, and `delta:30` as [30, 0] (its class 1 has
        // deadline 0 and misses).
        assert_eq!(late_misses([1.0, 1.0]), (2, 2));
        assert_eq!(late_misses([30.0, 0.0]), (2, 1));
        // FIFO and all-zero offsets (`edf:0,0`, `delta:0`), through
        // priority and BMUX count no misses.
        assert_eq!(late_misses([0.0, 0.0]), (2, 0));
        assert_eq!(late_misses([0.0, INF]), (2, 0));
        assert_eq!(late_misses([INF, 0.0]), (2, 0));
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn counters_stay_zero_without_the_feature() {
        let mut n = Node::new(2.0, fifo(1), 1);
        n.enqueue(chunk(0, 6.0, 0));
        for t in 0..3 {
            let _ = n.serve_slot_vec(t);
        }
        assert_eq!(n.counters(), NodeCounters::default());
    }

    #[test]
    #[should_panic(expected = "packetized WFQ")]
    fn nonpreemptive_gps_is_rejected() {
        let _ =
            Node::with_mode(1.0, NodePolicy::Gps(vec![1.0, 1.0]), 2, ServiceMode::NonPreemptive);
    }
}
