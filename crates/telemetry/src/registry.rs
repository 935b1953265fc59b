//! The process-global metric registry and the static handles that
//! record into it.
//!
//! Hot paths record through typed handles declared as statics:
//!
//! ```
//! use nc_telemetry::{Counter, Timing};
//!
//! static SOLVES: Counter = Counter::new("example_solves_total");
//! static FORMS: Counter = Counter::labeled("example_forms_total", &[("form", "bmux")]);
//! static SOLVE_SECONDS: Timing = Timing::new("example_solve_seconds");
//!
//! let _timer = SOLVE_SECONDS.start();
//! SOLVES.add(1);
//! FORMS.add(1);
//! ```
//!
//! The first record through a handle, on any thread, gives it a range
//! of words in a fixed-size per-thread array: one word for a counter,
//! `HIST_WORDS` for a histogram. Every recording thread owns one
//! shard holding that array plus a keyed [`MetricSet`]. A handle records
//! with a relaxed `load` and `store` on the calling thread's own words,
//! which only that thread writes: no lock, no allocation and no
//! read-modify-write. [`global_snapshot`] reads every shard's words
//! under the registry lock and folds them into the same [`MetricSet`]
//! the string-keyed calls produce, so exporters see no difference.
//!
//! The keyed map is the cold path. It serves [`counter`] with a name
//! chosen at run time, [`merge_global`], and any handle registered after
//! the word array is full.

use crate::metrics::{Histogram, MetricSet, HIST_BUCKETS};
use crate::ENABLED;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Words in each thread's slot array (8 KiB). The program registers a
/// few hundred; a handle that no longer fits records on the keyed path.
const SLOT_WORDS: usize = 1024;

/// Words per histogram handle: count, sum, min and max, then buckets.
const HIST_WORDS: usize = 4 + HIST_BUCKETS;
const COUNT: usize = 0;
const SUM: usize = 1;
const MIN: usize = 2;
const MAX: usize = 3;
const BUCKETS: usize = 4;

/// Handle offsets before the first record, and once the array is full.
const UNASSIGNED: usize = usize::MAX;
const OVERFLOW: usize = usize::MAX - 1;

/// Label pairs fixed at compile time.
type ConstLabels = &'static [(&'static str, &'static str)];

#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Histogram,
}

/// One recording thread's metrics: handle words and the keyed map.
struct Shard {
    words: Box<[AtomicU64]>,
    keyed: Mutex<MetricSet>,
}

impl Shard {
    fn fold_into(&self, handles: &[&Handle], set: &mut MetricSet) {
        set.merge(&lock(&self.keyed));
        handles.iter().for_each(|h| h.fold(&self.words, set));
    }
}

/// The process-global registry: the live shards, the merged shards of
/// threads that have exited, the handles that own words, and the first
/// free word.
struct Registry {
    retired: MetricSet,
    live: Vec<Arc<Shard>>,
    handles: Vec<&'static Handle>,
    next_word: usize,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    retired: MetricSet::new(),
    live: Vec::new(),
    handles: Vec::new(),
    next_word: 0,
});

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().expect("metric registry poisoned")
}

fn lock(keyed: &Mutex<MetricSet>) -> MutexGuard<'_, MetricSet> {
    keyed.lock().expect("metric shard poisoned")
}

/// The calling thread's shard; folded into `retired` when it exits.
struct LocalShard(Arc<Shard>);

impl Drop for LocalShard {
    fn drop(&mut self) {
        let mut reg = registry();
        let reg = &mut *reg;
        self.0.fold_into(&reg.handles, &mut reg.retired);
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    static LOCAL: LocalShard = {
        let shard = Arc::new(Shard {
            words: (0..SLOT_WORDS).map(|_| AtomicU64::new(0)).collect(),
            keyed: Mutex::new(MetricSet::new()),
        });
        registry().live.push(Arc::clone(&shard));
        LocalShard(shard)
    };
}

/// Applies `f` to the calling thread's handle words; `false` while the
/// thread is being torn down.
#[inline]
fn with_words(f: impl FnOnce(&[AtomicU64])) -> bool {
    LOCAL.try_with(|l| f(&l.0.words)).is_ok()
}

/// Applies `f` to the calling thread's keyed map (to `retired` while
/// the thread is being torn down).
fn record_keyed(f: impl Fn(&mut MetricSet)) {
    if LOCAL.try_with(|l| f(&mut lock(&l.0.keyed))).is_err() {
        f(&mut registry().retired);
    }
}

/// The state a [`Counter`] and a [`Timing`] share.
struct Handle {
    name: &'static str,
    labels: ConstLabels,
    kind: Kind,
    offset: AtomicUsize,
}

impl Handle {
    const fn new(name: &'static str, labels: ConstLabels, kind: Kind) -> Self {
        Handle { name, labels, kind, offset: AtomicUsize::new(UNASSIGNED) }
    }

    /// The handle's first word in `[0, SLOT_WORDS)`, if it has one.
    #[inline]
    fn offset(&self) -> Option<usize> {
        let o = self.offset.load(Relaxed);
        (o < SLOT_WORDS).then_some(o)
    }

    /// Like [`Handle::offset`], registering the handle on first use.
    #[cold]
    fn register(&'static self) -> Option<usize> {
        if self.offset.load(Relaxed) != UNASSIGNED {
            return self.offset();
        }
        let mut reg = registry();
        if self.offset.load(Relaxed) == UNASSIGNED {
            let width = match self.kind {
                Kind::Counter => 1,
                Kind::Histogram => HIST_WORDS,
            };
            let offset = reg.next_word;
            let assigned = if offset + width <= SLOT_WORDS {
                reg.next_word += width;
                reg.handles.push(self);
                offset
            } else {
                OVERFLOW
            };
            self.offset.store(assigned, Relaxed);
        }
        self.offset()
    }

    /// Records through the handle's words, or on the keyed path when it
    /// has none or the thread is being torn down.
    #[inline]
    fn record(&'static self, words: impl Fn(&[AtomicU64]), keyed: impl Fn(&mut MetricSet)) {
        if let Some(o) = self.offset() {
            if with_words(|w| words(&w[o..])) {
                return;
            }
        }
        self.record_slow(words, keyed);
    }

    #[cold]
    #[inline(never)]
    fn record_slow(&'static self, words: impl Fn(&[AtomicU64]), keyed: impl Fn(&mut MetricSet)) {
        if let Some(o) = self.register() {
            if with_words(|w| words(&w[o..])) {
                return;
            }
        }
        record_keyed(keyed);
    }

    /// Adds this handle's words in a shard's `words` to `set`.
    fn fold(&self, words: &[AtomicU64], set: &mut MetricSet) {
        let Some(o) = self.offset() else { return };
        let w = &words[o..];
        match self.kind {
            // A touched counter word holds its value plus one, so a
            // series recorded with `add(0)` still exists.
            Kind::Counter => match w[0].load(Relaxed) {
                0 => {}
                v => set.counter_add(self.name, self.labels, v - 1),
            },
            Kind::Histogram => {
                let count = w[COUNT].load(Relaxed);
                if count > 0 {
                    let f = |i: usize| f64::from_bits(w[i].load(Relaxed));
                    let buckets = std::array::from_fn(|i| w[BUCKETS + i].load(Relaxed));
                    let h = Histogram::from_parts(count, f(SUM), f(MIN), f(MAX), buckets);
                    set.histogram_merge(self.name, self.labels, &h);
                }
            }
        }
    }
}

/// A statically declared counter series: `static CALLS: Counter =
/// Counter::new("calls_total");`. Recording takes no lock and does not
/// allocate once the thread has recorded anything. The methods take
/// `&'static self`, so each handle is a `static` and keeps one slot for
/// the life of the process.
pub struct Counter(Handle);

impl Counter {
    /// An unlabelled counter series.
    pub const fn new(name: &'static str) -> Self {
        Counter::labeled(name, &[])
    }

    /// A counter series with labels fixed at compile time, e.g.
    /// `Counter::labeled("forms_total", &[("form", "bmux")])`.
    pub const fn labeled(name: &'static str, labels: ConstLabels) -> Self {
        Counter(Handle::new(name, labels, Kind::Counter))
    }

    /// Adds `n` to the series. No-op without the `enabled` feature.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !ENABLED {
            return;
        }
        let h = &self.0;
        h.record(
            |w| w[0].store(w[0].load(Relaxed).max(1) + n, Relaxed),
            |m| m.counter_add(h.name, h.labels, n),
        );
    }
}

/// A statically declared histogram series, for wall-time timings and
/// other samples: `static SECONDS: Timing = Timing::new("op_seconds");`.
/// Records like [`Counter`]: no lock, no allocation.
pub struct Timing(Handle);

impl Timing {
    /// An unlabelled histogram series.
    pub const fn new(name: &'static str) -> Self {
        Timing(Handle::new(name, &[], Kind::Histogram))
    }

    /// Records one sample. No-op without the `enabled` feature.
    #[inline]
    pub fn observe(&'static self, v: f64) {
        if !ENABLED {
            return;
        }
        let h = &self.0;
        h.record(|w| record_sample(w, v), |m| m.observe(h.name, h.labels, v));
    }

    /// Starts a wall-time timer that records its elapsed seconds when
    /// dropped. Without the `enabled` feature it reads no clock.
    #[inline]
    pub fn start(&'static self) -> TimingGuard {
        TimingGuard { timing: self, start: ENABLED.then(Instant::now) }
    }
}

/// Adds `v` to the histogram laid out in `w`, with the semantics of
/// [`Histogram::record`].
fn record_sample(w: &[AtomicU64], v: f64) {
    let get = |i: usize| w[i].load(Relaxed);
    let set = |i: usize, x: u64| w[i].store(x, Relaxed);
    let count = get(COUNT);
    let (lo, hi) = if count == 0 {
        (f64::INFINITY, f64::NEG_INFINITY)
    } else {
        (f64::from_bits(get(MIN)), f64::from_bits(get(MAX)))
    };
    set(COUNT, count + 1);
    set(SUM, (f64::from_bits(get(SUM)) + v).to_bits());
    set(MIN, if v < lo { v } else { lo }.to_bits());
    set(MAX, if v > hi { v } else { hi }.to_bits());
    let b = BUCKETS + Histogram::bucket_index(v);
    set(b, get(b) + 1);
}

/// RAII guard produced by [`Timing::start`].
#[must_use = "a timer measures the scope it is bound to; bind it to a named variable"]
pub struct TimingGuard {
    timing: &'static Timing,
    start: Option<Instant>,
}

impl Drop for TimingGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.timing.observe(start.elapsed().as_secs_f64());
        }
    }
}

/// Adds to an unlabelled counter whose name is only known at run time.
///
/// This is the cold path: it locks the calling thread's shard and looks
/// the name up in a map. Fixed names belong on a static [`Counter`].
pub fn counter(name: &str, n: u64) {
    if !ENABLED {
        return;
    }
    record_keyed(|m| m.counter_add(name, &[], n));
}

/// Merges a metric shard into the process-global registry.
pub fn merge_global(shard: &MetricSet) {
    if !ENABLED || shard.is_empty() {
        return;
    }
    record_keyed(|m| m.merge(shard));
}

/// A snapshot of the process-global registry: every thread's shard
/// merged. Counters are exact for threads that have exited and for the
/// calling thread; another live thread's records show up once they are
/// visible to this one.
pub fn global_snapshot() -> MetricSet {
    let reg = registry();
    let mut set = reg.retired.clone();
    reg.live.iter().for_each(|s| s.fold_into(&reg.handles, &mut set));
    set
}

/// Clears the process-global registry. Handles keep their slots. Call
/// it while no other thread records (tests, the start of a run): a
/// concurrent record may write back a value read before the reset.
pub fn reset_global() {
    let mut reg = registry();
    reg.retired = MetricSet::new();
    for s in &reg.live {
        *lock(&s.keyed) = MetricSet::new();
        s.words.iter().for_each(|w| w.store(0, Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricValue;

    static CALLS: Counter = Counter::new("t_calls_total");
    static KIND_X: Counter = Counter::labeled("t_calls_total", &[("kind", "x")]);
    static ZERO: Counter = Counter::new("t_zero_total");
    static SECONDS: Timing = Timing::new("t_seconds");
    static THREADS: Counter = Counter::new("t_threads_total");
    static SAMPLES: Timing = Timing::new("t_samples");
    /// More histogram words than one slot array holds: the later
    /// handles overflow onto the keyed path.
    static MANY: [Timing; 16] = [const { Timing::new("t_many_seconds") }; 16];

    fn histogram(set: &MetricSet, name: &str) -> Option<Histogram> {
        match set.get(name, &[]) {
            Some(MetricValue::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    // Global-registry tests share one process-wide registry; keep them
    // in a single #[test] to avoid cross-test interference.
    #[test]
    fn global_registry_accumulates_and_resets() {
        reset_global();
        CALLS.add(2);
        KIND_X.add(1);
        ZERO.add(0);
        counter("t_calls_total", 1);
        {
            let _t = SECONDS.start();
        }
        let mut shard = MetricSet::new();
        shard.counter_add("t_calls_total", &[], 3);
        merge_global(&shard);
        let snap = global_snapshot();
        if ENABLED {
            assert_eq!(snap.counter_value("t_calls_total", &[]), 6);
            assert_eq!(snap.counter_value("t_calls_total", &[("kind", "x")]), 1);
            assert_eq!(snap.get("t_zero_total", &[]), Some(&MetricValue::Counter(0)));
            assert_eq!(histogram(&snap, "t_seconds").map(|h| h.count()), Some(1));
        } else {
            assert!(snap.is_empty());
        }
        reset_global();
        assert!(global_snapshot().is_empty());

        // Per-thread shards: four threads that exit plus live recording
        // give exact totals, for counters and histograms alike.
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..1000 {
                        THREADS.add(1);
                        SAMPLES.observe(f64::from(t * 1000 + i));
                    }
                });
            }
        });
        THREADS.add(5);
        SAMPLES.observe(0.5);
        let snap = global_snapshot();
        assert_eq!(snap.counter_value("t_threads_total", &[]), 4005 * u64::from(ENABLED));
        if ENABLED {
            let mut single = Histogram::new();
            (0..4000).for_each(|v| single.record(f64::from(v)));
            single.record(0.5);
            let h = histogram(&snap, "t_samples").expect("histogram recorded");
            assert_eq!((h.count(), h.min(), h.max()), (4001, Some(0.0), Some(3999.0)));
            assert_eq!(h.buckets(), single.buckets());
            assert_eq!(h.sum(), single.sum());
        }
        reset_global();
        assert!(global_snapshot().is_empty());

        // Handles past the end of the slot array stay exact.
        MANY.iter().for_each(|t| t.observe(1.0));
        let many = histogram(&global_snapshot(), "t_many_seconds").map_or(0, |h| h.count());
        assert_eq!(many, 16 * u64::from(ENABLED));
        if ENABLED {
            assert_eq!(MANY[15].0.offset.load(Relaxed), OVERFLOW);
        }
        reset_global();
        assert!(global_snapshot().is_empty());
    }
}
