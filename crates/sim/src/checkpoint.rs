//! Crash-safe checkpoints for Monte Carlo runs.
//!
//! A checkpoint is a JSON snapshot of every *completed* replication:
//! its index, its SplitMix64-derived seed, and the raw-bits image of
//! its [`DelayStats`](crate::DelayStats). Replications that were still
//! in flight when the process died are simply re-run from their
//! derivable seeds, so a resumed run merges to **bitwise-identical**
//! statistics — every `f64` travels as a 16-digit hex bit pattern, not
//! a decimal that could round.
//!
//! The file also carries a fingerprint of the run configuration
//! (master seed, replication count, slots, statistics mode, workload
//! tag). Resume refuses a checkpoint whose fingerprint disagrees with
//! the requested run instead of silently merging incompatible
//! statistics.
//!
//! Writes go through [`nc_telemetry::export::write_file`], which
//! stages into a temporary sibling, fsyncs, and renames — a SIGKILL
//! mid-write leaves either the previous complete checkpoint or the new
//! one, never a truncated file.

use crate::error::Error;
use crate::montecarlo::StatsMode;
use crate::stats::StatsState;
use nc_telemetry::json::{self, Json};

/// Current checkpoint file format version. Version 2 marks the
/// ON-count MMOO sampler: replications saved by the per-flow sampler
/// (version 1) follow other sample paths and must not be merged with
/// new ones.
const VERSION: u64 = 2;

/// Where and how often a Monte Carlo run persists its progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointCfg {
    /// Checkpoint file path.
    pub path: String,
    /// Write a checkpoint after every this many newly completed
    /// replications. `0` disables periodic writes (resume-only: an
    /// existing checkpoint is still loaded, but never updated).
    pub every: usize,
    /// Free-form workload fingerprint (scenario name, experiment
    /// parameters, …). Resume refuses a checkpoint whose workload tag
    /// differs from the current run's.
    pub workload: String,
}

impl CheckpointCfg {
    /// A config writing to `path` after every `every` completed
    /// replications, with an empty workload tag.
    pub fn new(path: impl Into<String>, every: usize) -> Self {
        CheckpointCfg { path: path.into(), every, workload: String::new() }
    }

    /// Sets the workload fingerprint tag.
    pub fn workload(mut self, tag: impl Into<String>) -> Self {
        self.workload = tag.into();
        self
    }
}

/// A persisted snapshot of a partially completed Monte Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) master_seed: u64,
    pub(crate) reps: usize,
    pub(crate) slots: u64,
    pub(crate) mode: StatsMode,
    pub(crate) workload: String,
    /// `(replication index, replication seed, completed statistics)`,
    /// in ascending index order.
    pub(crate) completed: Vec<(usize, u64, StatsState)>,
}

impl Checkpoint {
    /// An empty checkpoint fingerprinting the given run parameters.
    pub(crate) fn empty(
        master_seed: u64,
        reps: usize,
        slots: u64,
        mode: StatsMode,
        workload: &str,
    ) -> Self {
        Checkpoint {
            master_seed,
            reps,
            slots,
            mode,
            workload: workload.to_string(),
            completed: Vec::new(),
        }
    }

    /// `Some(detail)` when this checkpoint's fingerprint disagrees
    /// with the given run parameters, `None` when it matches.
    pub(crate) fn mismatch(
        &self,
        master_seed: u64,
        reps: usize,
        slots: u64,
        mode: &StatsMode,
        workload: &str,
    ) -> Option<String> {
        if self.master_seed != master_seed {
            return Some(format!(
                "master seed {:#018x} != requested {:#018x}",
                self.master_seed, master_seed
            ));
        }
        if self.reps != reps {
            return Some(format!("{} replications != requested {}", self.reps, reps));
        }
        if self.slots != slots {
            return Some(format!("{} slots != requested {}", self.slots, slots));
        }
        if !mode_eq(&self.mode, mode) {
            return Some("statistics mode (exact/streaming, reservoir, thresholds) differs".into());
        }
        if self.workload != workload {
            return Some(format!("workload \"{}\" != requested \"{}\"", self.workload, workload));
        }
        None
    }

    /// Loads and parses a checkpoint file.
    pub(crate) fn load(path: &str) -> Result<Self, Error> {
        let text = std::fs::read_to_string(path)
            .map_err(|source| Error::CheckpointIo { path: path.to_string(), source })?;
        Self::parse(&text, path)
    }

    /// Atomically writes this checkpoint to `path`.
    pub(crate) fn save(&self, path: &str) -> Result<(), Error> {
        nc_telemetry::export::write_file(path, &self.render())
            .map_err(|source| Error::CheckpointIo { path: path.to_string(), source })
    }

    /// Renders the checkpoint as a JSON document.
    pub(crate) fn render(&self) -> String {
        let (mode, reservoir, thresholds) = match &self.mode {
            StatsMode::Exact => ("exact", 0usize, String::new()),
            StatsMode::Streaming { reservoir, thresholds } => (
                "streaming",
                *reservoir,
                thresholds.iter().map(|t| hex(t.to_bits())).collect::<Vec<_>>().join(","),
            ),
        };
        let completed: Vec<String> = self
            .completed
            .iter()
            .map(|(rep, seed, stats)| {
                format!(
                    "{{\"rep\":{rep},\"seed\":{},\"stats\":{}}}",
                    hex(*seed),
                    render_stats(stats)
                )
            })
            .collect();
        format!(
            "{{\"format\":\"linksched-checkpoint\",\"version\":{VERSION},\
             \"fingerprint\":{{\"master_seed\":{},\"reps\":{},\"slots\":{},\
             \"mode\":\"{mode}\",\"reservoir\":{reservoir},\"thresholds\":[{thresholds}],\
             \"workload\":{}}},\
             \"completed\":[\n{}\n]}}\n",
            hex(self.master_seed),
            self.reps,
            self.slots,
            json::string(&self.workload),
            completed.join(",\n"),
        )
    }

    /// Parses a checkpoint document (`path` is for error context only).
    pub(crate) fn parse(text: &str, path: &str) -> Result<Self, Error> {
        let bad =
            |detail: &str| Error::Checkpoint { path: path.to_string(), detail: detail.to_string() };
        let root = json::parse(text)
            .map_err(|e| Error::Checkpoint { path: path.to_string(), detail: e })?;
        if root.get("format").and_then(Json::as_str) != Some("linksched-checkpoint") {
            return Err(bad("not a linksched checkpoint file"));
        }
        match root.get("version").and_then(Json::as_u64) {
            Some(VERSION) => {}
            Some(v) => return Err(bad(&format!("unsupported checkpoint version {v}"))),
            None => return Err(bad("missing version")),
        }
        let fp = root.get("fingerprint").ok_or_else(|| bad("missing fingerprint"))?;
        let master_seed = fp
            .get("master_seed")
            .and_then(hex_u64)
            .ok_or_else(|| bad("bad fingerprint.master_seed"))?;
        let reps =
            fp.get("reps").and_then(Json::as_u64).ok_or_else(|| bad("bad fingerprint.reps"))?
                as usize;
        let slots =
            fp.get("slots").and_then(Json::as_u64).ok_or_else(|| bad("bad fingerprint.slots"))?;
        let mode = match fp.get("mode").and_then(Json::as_str) {
            Some("exact") => StatsMode::Exact,
            Some("streaming") => {
                let reservoir = fp
                    .get("reservoir")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("bad fingerprint.reservoir"))?
                    as usize;
                let thresholds = fp
                    .get("thresholds")
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("bad fingerprint.thresholds"))?
                    .iter()
                    .map(|t| hex_u64(t).map(f64::from_bits))
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| bad("bad fingerprint.thresholds entry"))?;
                StatsMode::Streaming { reservoir, thresholds }
            }
            _ => return Err(bad("bad fingerprint.mode")),
        };
        let workload = fp
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("bad fingerprint.workload"))?
            .to_string();
        let mut completed = Vec::new();
        for entry in root
            .get("completed")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing completed"))?
        {
            let rep = entry
                .get("rep")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("bad completed entry: rep"))? as usize;
            if rep >= reps {
                return Err(bad(&format!(
                    "completed replication index {rep} out of range (reps = {reps})"
                )));
            }
            let seed = entry
                .get("seed")
                .and_then(hex_u64)
                .ok_or_else(|| bad("bad completed entry: seed"))?;
            let stats = entry
                .get("stats")
                .and_then(parse_stats)
                .ok_or_else(|| bad("bad completed entry: stats"))?;
            completed.push((rep, seed, stats));
        }
        completed.sort_by_key(|(rep, _, _)| *rep);
        if completed.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(bad("duplicate completed replication index"));
        }
        Ok(Checkpoint { master_seed, reps, slots, mode, workload, completed })
    }
}

/// Bitwise [`StatsMode`] equality: thresholds compare as bit patterns,
/// so a fingerprint match really guarantees identical collectors.
fn mode_eq(a: &StatsMode, b: &StatsMode) -> bool {
    match (a, b) {
        (StatsMode::Exact, StatsMode::Exact) => true,
        (
            StatsMode::Streaming { reservoir: ra, thresholds: ta },
            StatsMode::Streaming { reservoir: rb, thresholds: tb },
        ) => {
            ra == rb
                && ta.len() == tb.len()
                && ta.iter().zip(tb).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    }
}

/// A `u64` as a quoted 16-digit hex JSON string. Seeds and `f64` bit
/// patterns use the full 64-bit range, which a JSON number (an `f64`
/// in most parsers, including ours) cannot carry exactly.
fn hex(v: u64) -> String {
    format!("\"{v:016x}\"")
}

/// Parses a [`hex`]-encoded `u64`.
fn hex_u64(j: &Json) -> Option<u64> {
    let s = j.as_str()?;
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn render_stats(s: &StatsState) -> String {
    let samples: Vec<String> = s.samples.iter().map(|&b| hex(b)).collect();
    let thresholds: Vec<String> =
        s.thresholds.iter().map(|&(d, over)| format!("[{},{over}]", hex(d))).collect();
    let reservoir = match s.reservoir {
        None => "null".to_string(),
        Some((cap, rng)) => format!("{{\"cap\":{cap},\"rng\":{}}}", hex(rng)),
    };
    format!(
        "{{\"count\":{},\"sum\":{},\"m2\":{},\"max\":{},\"sorted\":{},\
         \"reservoir\":{reservoir},\"samples\":[{}],\"thresholds\":[{}]}}",
        s.count,
        hex(s.sum),
        hex(s.m2),
        hex(s.max),
        s.sorted,
        samples.join(","),
        thresholds.join(","),
    )
}

fn parse_stats(j: &Json) -> Option<StatsState> {
    let reservoir = match j.get("reservoir")? {
        Json::Null => None,
        r => Some((r.get("cap")?.as_u64()? as usize, hex_u64(r.get("rng")?)?)),
    };
    let samples =
        j.get("samples")?.as_array()?.iter().map(hex_u64).collect::<Option<Vec<u64>>>()?;
    let thresholds = j
        .get("thresholds")?
        .as_array()?
        .iter()
        .map(|t| {
            let pair = t.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            Some((hex_u64(&pair[0])?, pair[1].as_u64()?))
        })
        .collect::<Option<Vec<(u64, u64)>>>()?;
    Some(StatsState {
        count: j.get("count")?.as_u64()?,
        sum: hex_u64(j.get("sum")?)?,
        m2: hex_u64(j.get("m2")?)?,
        max: hex_u64(j.get("max")?)?,
        reservoir,
        samples,
        sorted: j.get("sorted")?.as_bool()?,
        thresholds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DelayStats;

    fn sample_checkpoint() -> Checkpoint {
        let mut exact = DelayStats::new();
        for v in [0.5, 3.25, 1.0 / 3.0, 7.125] {
            exact.record(v);
        }
        let mut streaming = DelayStats::streaming_with_thresholds(8, &[2.5]);
        for i in 0..40 {
            streaming.record(i as f64 * 0.37);
        }
        Checkpoint {
            master_seed: 0xDEAD_BEEF_0123_4567,
            reps: 5,
            slots: 10_000,
            mode: StatsMode::Streaming { reservoir: 8, thresholds: vec![2.5] },
            workload: "tandem h=4 \"quoted\"".to_string(),
            // Intentionally out of order: parse must sort by index.
            completed: vec![(3, 99, streaming.state()), (0, 42, exact.state())],
        }
        .normalized()
    }

    impl Checkpoint {
        fn normalized(mut self) -> Self {
            self.completed.sort_by_key(|(rep, _, _)| *rep);
            self
        }
    }

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let cp = sample_checkpoint();
        let text = cp.render();
        json::validate(&text).unwrap();
        let back = Checkpoint::parse(&text, "cp.json").unwrap();
        assert_eq!(back, cp);
        // The restored stats rebuild into collectors with identical bits.
        for (_, _, state) in &back.completed {
            let rebuilt = DelayStats::from_state(state.clone()).unwrap();
            assert_eq!(rebuilt.state(), *state);
        }
    }

    #[test]
    fn save_load_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join(format!("nc_sim_ckpt_{}", std::process::id()));
        let path = dir.join("run.checkpoint.json");
        let cp = sample_checkpoint();
        cp.save(path.to_str().unwrap()).unwrap();
        let back = Checkpoint::load(path.to_str().unwrap()).unwrap();
        assert_eq!(back, cp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_an_io_error() {
        let err = Checkpoint::load("/nonexistent/dir/none.checkpoint.json").unwrap_err();
        assert!(matches!(err, Error::CheckpointIo { .. }), "{err}");
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_format() {
        for text in ["not json", "{}", "{\"format\":\"something-else\",\"version\":1}"] {
            let err = Checkpoint::parse(text, "cp.json").unwrap_err();
            assert!(matches!(err, Error::Checkpoint { .. }), "{text:?}: {err}");
        }
        let current = format!("\"version\":{VERSION}");
        let future = sample_checkpoint().render().replace(&current, "\"version\":999");
        let err = Checkpoint::parse(&future, "cp.json").unwrap_err();
        assert!(err.to_string().contains("version 999"), "{err}");
        // Version 1 checkpoints hold per-flow-sampler replications.
        let old = sample_checkpoint().render().replace(&current, "\"version\":1");
        let err = Checkpoint::parse(&old, "cp.json").unwrap_err();
        assert!(err.to_string().contains("unsupported checkpoint version 1"), "{err}");
    }

    #[test]
    fn parse_rejects_out_of_range_and_duplicate_reps() {
        let cp = sample_checkpoint();
        let oob = cp.render().replace("\"rep\":3", "\"rep\":7");
        assert!(Checkpoint::parse(&oob, "cp.json").is_err());
        let dup = cp.render().replace("\"rep\":3", "\"rep\":0");
        let err = Checkpoint::parse(&dup, "cp.json").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn mismatch_pinpoints_the_disagreeing_field() {
        let cp = sample_checkpoint();
        let mode = cp.mode.clone();
        assert_eq!(cp.mismatch(cp.master_seed, 5, 10_000, &mode, &cp.workload), None);
        assert!(cp.mismatch(1, 5, 10_000, &mode, &cp.workload).unwrap().contains("master seed"));
        assert!(cp
            .mismatch(cp.master_seed, 6, 10_000, &mode, &cp.workload)
            .unwrap()
            .contains("replications"));
        assert!(cp
            .mismatch(cp.master_seed, 5, 9_999, &mode, &cp.workload)
            .unwrap()
            .contains("slots"));
        assert!(cp
            .mismatch(cp.master_seed, 5, 10_000, &StatsMode::Exact, &cp.workload)
            .unwrap()
            .contains("mode"));
        assert!(cp
            .mismatch(cp.master_seed, 5, 10_000, &mode, "other")
            .unwrap()
            .contains("workload"));
    }
}
