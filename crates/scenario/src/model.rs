//! The declarative scenario model: one JSON document describes an
//! experiment (topology, traffic, schedulers, analysis options, and
//! simulation-overlay defaults), and [`crate::Engine`] runs it.
//!
//! The schema is documented in `examples/scenarios/README.md`. Parsing
//! uses the zero-dependency JSON reader in [`nc_telemetry::json`].

use crate::error::Error;
use nc_sim::{FaultModel, FaultPlan, SchedulerKind};
use nc_telemetry::json::{self, Json};

/// The experiment flags of `linksched bound|sweep|simulate` and the
/// scenario `params` key each one sets (see [`Scenario::from_cli`]).
const CLI_PARAMS: [(&str, &str); 8] = [
    ("--hops", "hops"),
    ("--through", "through"),
    ("--cross", "cross"),
    ("--cross-max", "cross_max"),
    ("--capacity", "capacity"),
    ("--eps", "epsilon"),
    ("--sched", "sched"),
    ("--packet", "packet"),
];

/// A parsed scenario file: name, optional table title, the experiment
/// description, simulation defaults, and an optional fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name; used for the run manifest and artifact labels.
    pub name: String,
    /// Optional table title printed as a leading `# <title>` line.
    pub title: Option<String>,
    /// The experiment to run.
    pub experiment: Experiment,
    /// Defaults for the Monte Carlo options (overridable from the
    /// command line).
    pub sim: SimDefaults,
    /// Per-node fault injection applied to every simulation of this
    /// scenario (`faults` block; `None` = clean links).
    pub faults: Option<FaultPlan>,
}

/// Default Monte Carlo options carried by a scenario; command-line
/// flags are applied on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimDefaults {
    /// Default replication count.
    pub reps: usize,
    /// Default slots per replication.
    pub slots: u64,
    /// Default master seed; `None` keeps [`RunOpts::new`](crate::RunOpts::new)'s fixed default.
    pub seed: Option<u64>,
}

impl Default for SimDefaults {
    fn default() -> Self {
        SimDefaults { reps: 1, slots: 20_000, seed: None }
    }
}

/// The experiment described by a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum Experiment {
    /// Delay bounds vs. total utilization (the paper's Fig. 2).
    UtilizationSweep(UtilizationSweep),
    /// Delay bounds vs. traffic mix at constant utilization (Fig. 3).
    MixSweep(MixSweep),
    /// Delay bounds vs. path length (Fig. 4).
    PathSweep(PathSweep),
    /// Bound-vs-simulation validation table.
    Validate(Validate),
    /// Design-choice ablations (optimizer, slack split, γ grid, engine).
    Ablation,
    /// A single delay-bound query (the CLI's `bound` command).
    Bound(Bound),
    /// Bounds vs. cross-flow count (the CLI's `sweep` command).
    CrossSweep(CrossSweep),
    /// A tandem simulation (the CLI's `simulate` command).
    Simulate(Simulate),
    /// Bound-violation rates on clean vs. faulted links, per scheduler.
    Faulted(Faulted),
}

/// Parameters of a utilization sweep (Fig. 2): through utilization held
/// fixed, total utilization swept over a grid, one table per path
/// length.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationSweep {
    /// Path lengths, one table section each.
    pub hops: Vec<usize>,
    /// Fixed through-traffic utilization (`U_0`).
    pub u_through: f64,
    /// First total utilization of the grid.
    pub u_start: f64,
    /// Grid step.
    pub u_step: f64,
    /// Inclusive upper edge of the grid.
    pub u_stop: f64,
    /// EDF cross/through deadline ratio (`d*_c = ratio · d*_0`).
    pub edf_cross_ratio: f64,
    /// Violation probability ε.
    pub epsilon: f64,
}

/// Parameters of a traffic-mix sweep (Fig. 3): total utilization held
/// fixed, the cross share swept in percent steps.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSweep {
    /// Path lengths, one table section each.
    pub hops: Vec<usize>,
    /// Fixed total utilization.
    pub u_total: f64,
    /// First cross share of the grid, in percent.
    pub mix_start: usize,
    /// Inclusive last cross share, in percent.
    pub mix_stop: usize,
    /// Grid step, in percent.
    pub mix_step: usize,
    /// Cross/through deadline ratio of the short-deadline EDF column.
    pub edf_ratio_short: f64,
    /// Cross/through deadline ratio of the long-deadline EDF column.
    pub edf_ratio_long: f64,
    /// Violation probability ε.
    pub epsilon: f64,
}

/// Parameters of a path-length sweep (Fig. 4): `N_0 = N_c`, one table
/// per total utilization, including the additive BMUX baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSweep {
    /// Path lengths (table rows).
    pub hops: Vec<usize>,
    /// Total utilizations, one table section each.
    pub utilizations: Vec<f64>,
    /// EDF cross/through deadline ratio.
    pub edf_cross_ratio: f64,
    /// Violation probability ε.
    pub epsilon: f64,
}

/// One scheduler column of a validation table.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateCase {
    /// Row label, e.g. `"EDF(10,40)"`.
    pub label: String,
    /// Scheduler specification in [`crate::parse_sched`] syntax.
    pub sched: String,
}

/// Parameters of a bound-vs-simulation validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Validate {
    /// Link capacity in kb per slot (scaled down so simulation reaches
    /// the tail).
    pub capacity: f64,
    /// Violation probability ε.
    pub epsilon: f64,
    /// Table sections as `(hops, n_through, n_cross)`.
    pub sections: Vec<(usize, usize, usize)>,
    /// Scheduler rows; fair-queueing entries are validated against the
    /// BMUX envelope.
    pub schedulers: Vec<ValidateCase>,
    /// Path length of the deterministic min-plus cross-check.
    pub minplus_hops: usize,
}

/// Parameters of a single delay-bound query.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Path length `H`.
    pub hops: usize,
    /// Number of through flows.
    pub through: usize,
    /// Number of cross flows per node.
    pub cross: usize,
    /// Link capacity in kb per slot.
    pub capacity: f64,
    /// Violation probability ε.
    pub epsilon: f64,
    /// Scheduler specification.
    pub sched: String,
    /// Non-preemptive packet size in kb, if any.
    pub packet: Option<f64>,
}

/// Parameters of a cross-flow sweep (the CLI's `sweep` command).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossSweep {
    /// Path length `H`.
    pub hops: usize,
    /// Number of through flows.
    pub through: usize,
    /// Largest cross-flow count.
    pub cross_max: usize,
    /// Link capacity in kb per slot.
    pub capacity: f64,
    /// Violation probability ε.
    pub epsilon: f64,
}

/// Parameters of a tandem simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulate {
    /// Path length `H`.
    pub hops: usize,
    /// Number of through flows.
    pub through: usize,
    /// Number of cross flows per node.
    pub cross: usize,
    /// Uniform link capacity in kb per slot.
    pub capacity: f64,
    /// Per-node capacities overriding `capacity` (length must equal
    /// `hops`).
    pub capacities: Option<Vec<f64>>,
    /// Scheduler specification.
    pub sched: String,
    /// Non-preemptive packet size in kb, if any.
    pub packet: Option<f64>,
}

/// Parameters of a faulted-link ablation: for each scheduler, the
/// nominal-link analytical bound is compared against simulated
/// violation rates on clean and faulted links (the scenario's `faults`
/// block supplies the fault plan).
#[derive(Debug, Clone, PartialEq)]
pub struct Faulted {
    /// Link capacity in kb per slot (scaled down so simulation reaches
    /// the tail).
    pub capacity: f64,
    /// Violation probability ε of the analytical bounds.
    pub epsilon: f64,
    /// Path length `H`.
    pub hops: usize,
    /// Number of through flows.
    pub through: usize,
    /// Number of cross flows per node.
    pub cross: usize,
    /// Scheduler rows; fair-queueing entries are compared against the
    /// BMUX envelope.
    pub schedulers: Vec<ValidateCase>,
}

impl Scenario {
    /// Loads and parses a scenario file, with the failure cause typed:
    /// unreadable files are [`Error::Io`] (exit code 3), malformed
    /// documents are [`Error::Scenario`] (exit code 4).
    pub fn load(path: &str) -> Result<Self, Error> {
        let text = std::fs::read_to_string(path)
            .map_err(|source| Error::Io { path: path.to_string(), source })?;
        Self::from_json(&text)
            .map_err(|detail| Error::Scenario { path: Some(path.to_string()), detail })
    }

    /// Parses and validates a scenario document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("scenario is not valid JSON: {e}"))?;
        Self::from_doc(&doc)
    }

    /// The scenario of `linksched bound|sweep|simulate`. Each
    /// experiment flag sets the `params` key of its name (`--eps` sets
    /// `epsilon`, `--cross-max` sets `cross_max`), and the document
    /// goes through the same constructor and checks as a scenario file,
    /// with the `sim` defaults reps 1, slots 1 000 000 and seed 1.
    /// Returns the scenario and the remaining arguments, which are
    /// engine flags for [`crate::RunOpts::parse`].
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] (exit code 2) for an unknown command, a flag
    /// without a value or with a non-numeric one, and for a scenario
    /// that fails validation.
    pub fn from_cli(command: &str, args: &[String]) -> Result<(Self, Vec<String>), Error> {
        let experiment = match command {
            "bound" => "bound",
            "sweep" => "cross_sweep",
            "simulate" => "simulate",
            other => return Err(Error::Usage(format!("unknown command `{other}`"))),
        };
        let mut params: Vec<(String, Json)> = Vec::new();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(&(_, key)) = CLI_PARAMS.iter().find(|(f, _)| f == flag) else {
                rest.push(flag.clone());
                continue;
            };
            let raw =
                it.next().ok_or_else(|| Error::Usage(format!("missing value for `{flag}`")))?;
            let value = if key == "sched" {
                Json::Str(raw.clone())
            } else {
                Json::Num(
                    raw.parse()
                        .map_err(|_| Error::Usage(format!("invalid value `{raw}` for `{flag}`")))?,
                )
            };
            // A repeated flag overrides the earlier one.
            params.retain(|(k, _)| k != key);
            params.push((key.to_string(), value));
        }
        let sim = [("reps", 1.0), ("slots", 1_000_000.0), ("seed", 1.0)];
        let doc = Json::Object(vec![
            ("name".into(), Json::Str(command.into())),
            ("experiment".into(), Json::Str(experiment.into())),
            ("params".into(), Json::Object(params)),
            ("sim".into(), Json::Object(sim.map(|(k, v)| (k.into(), Json::Num(v))).into())),
        ]);
        let scenario = Self::from_doc(&doc).map_err(Error::Usage)?;
        Ok((scenario, rest))
    }

    /// Builds and validates a scenario from a parsed document.
    fn from_doc(doc: &Json) -> Result<Self, String> {
        let name = req_str(doc, "name")?;
        let title = opt_str(doc, "title")?;
        let kind = req_str(doc, "experiment")?;
        let params = doc.get("params").unwrap_or(&Json::Null);
        let experiment = match kind.as_str() {
            "utilization_sweep" => Experiment::UtilizationSweep(UtilizationSweep {
                hops: usize_list(params, "hops")?,
                u_through: f64_field(params, "u_through")?,
                u_start: f64_field(params, "u_start")?,
                u_step: f64_field(params, "u_step")?,
                u_stop: f64_field(params, "u_stop")?,
                edf_cross_ratio: f64_field(params, "edf_cross_ratio")?,
                epsilon: f64_field(params, "epsilon")?,
            }),
            "mix_sweep" => Experiment::MixSweep(MixSweep {
                hops: usize_list(params, "hops")?,
                u_total: f64_field(params, "u_total")?,
                mix_start: usize_field(params, "mix_start")?,
                mix_stop: usize_field(params, "mix_stop")?,
                mix_step: usize_field(params, "mix_step")?,
                edf_ratio_short: f64_field(params, "edf_ratio_short")?,
                edf_ratio_long: f64_field(params, "edf_ratio_long")?,
                epsilon: f64_field(params, "epsilon")?,
            }),
            "path_sweep" => Experiment::PathSweep(PathSweep {
                hops: usize_list(params, "hops")?,
                utilizations: f64_list(params, "utilizations")?,
                edf_cross_ratio: f64_field(params, "edf_cross_ratio")?,
                epsilon: f64_field(params, "epsilon")?,
            }),
            "validate" => Experiment::Validate(parse_validate(params)?),
            "ablation" => Experiment::Ablation,
            "bound" => Experiment::Bound(Bound {
                hops: usize_field(params, "hops")?,
                through: usize_field(params, "through")?,
                cross: usize_field_or(params, "cross", 0)?,
                capacity: f64_field_or(params, "capacity", 100.0)?,
                epsilon: f64_field_or(params, "epsilon", 1e-9)?,
                sched: str_field_or(params, "sched", "fifo")?,
                packet: opt_f64(params, "packet")?,
            }),
            "cross_sweep" => Experiment::CrossSweep(CrossSweep {
                hops: usize_field(params, "hops")?,
                through: usize_field(params, "through")?,
                cross_max: usize_field_or(params, "cross_max", 500)?,
                capacity: f64_field_or(params, "capacity", 100.0)?,
                epsilon: f64_field_or(params, "epsilon", 1e-9)?,
            }),
            "simulate" => Experiment::Simulate(Simulate {
                hops: usize_field(params, "hops")?,
                through: usize_field(params, "through")?,
                cross: usize_field_or(params, "cross", 0)?,
                capacity: f64_field_or(params, "capacity", 100.0)?,
                capacities: opt_f64_list(params, "capacities")?,
                sched: str_field_or(params, "sched", "fifo")?,
                packet: opt_f64(params, "packet")?,
            }),
            "faulted" => Experiment::Faulted(parse_faulted(params)?),
            other => {
                return Err(format!(
                    "unknown experiment `{other}` (expected utilization_sweep, mix_sweep, \
                     path_sweep, validate, ablation, bound, cross_sweep, simulate, or faulted)"
                ))
            }
        };
        let sim = parse_sim(doc)?;
        let faults = parse_faults(doc)?;
        let scenario = Scenario { name, title, experiment, sim, faults };
        scenario.check()?;
        Ok(scenario)
    }

    /// Semantic validation beyond JSON well-formedness.
    fn check(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("`name` must be non-empty".into());
        }
        if self.sim.reps == 0 {
            return Err("`sim.reps` must be positive".into());
        }
        if self.sim.slots == 0 {
            return Err("`sim.slots` must be positive".into());
        }
        let eps_ok = |e: f64| e > 0.0 && e < 1.0;
        let hops_ok = |hs: &[usize]| !hs.is_empty() && hs.iter().all(|&h| h >= 1);
        match &self.experiment {
            Experiment::UtilizationSweep(p) => {
                if !hops_ok(&p.hops) {
                    return Err("`params.hops` must list path lengths >= 1".into());
                }
                if !eps_ok(p.epsilon) {
                    return Err("`params.epsilon` must lie in (0, 1)".into());
                }
                if !(p.u_start > 0.0 && p.u_step > 0.0 && p.u_stop >= p.u_start) {
                    return Err("utilization grid must satisfy 0 < u_start <= u_stop, u_step > 0"
                        .to_string());
                }
                if !(p.u_through > 0.0 && p.u_through < 1.0) {
                    return Err("`params.u_through` must lie in (0, 1)".into());
                }
                if !(p.edf_cross_ratio > 0.0 && p.edf_cross_ratio.is_finite()) {
                    return Err("`params.edf_cross_ratio` must be positive and finite".into());
                }
            }
            Experiment::MixSweep(p) => {
                if !hops_ok(&p.hops) {
                    return Err("`params.hops` must list path lengths >= 1".into());
                }
                if !eps_ok(p.epsilon) {
                    return Err("`params.epsilon` must lie in (0, 1)".into());
                }
                if !(p.u_total > 0.0 && p.u_total < 1.0) {
                    return Err("`params.u_total` must lie in (0, 1)".into());
                }
                if p.mix_step == 0 || p.mix_start == 0 || p.mix_stop >= 100 {
                    return Err("mix grid must satisfy 0 < mix_start <= mix_stop < 100, \
                                mix_step > 0"
                        .into());
                }
                for r in [p.edf_ratio_short, p.edf_ratio_long] {
                    if !(r > 0.0 && r.is_finite()) {
                        return Err("EDF deadline ratios must be positive and finite".into());
                    }
                }
            }
            Experiment::PathSweep(p) => {
                if !hops_ok(&p.hops) {
                    return Err("`params.hops` must list path lengths >= 1".into());
                }
                if !eps_ok(p.epsilon) {
                    return Err("`params.epsilon` must lie in (0, 1)".into());
                }
                if p.utilizations.is_empty()
                    || p.utilizations.iter().any(|&u| !(u > 0.0 && u < 1.0))
                {
                    return Err("`params.utilizations` must list values in (0, 1)".into());
                }
                if !(p.edf_cross_ratio > 0.0 && p.edf_cross_ratio.is_finite()) {
                    return Err("`params.edf_cross_ratio` must be positive and finite".into());
                }
            }
            Experiment::Validate(p) => {
                if !(p.capacity > 0.0 && p.capacity.is_finite()) {
                    return Err("`params.capacity` must be positive".into());
                }
                if !eps_ok(p.epsilon) {
                    return Err("`params.epsilon` must lie in (0, 1)".into());
                }
                if p.sections.is_empty() || p.sections.iter().any(|&(h, n0, _)| h == 0 || n0 == 0) {
                    return Err("`params.sections` entries need hops >= 1 and through >= 1".into());
                }
                if p.schedulers.is_empty() {
                    return Err("`params.schedulers` must list at least one case".into());
                }
                for c in &p.schedulers {
                    crate::parse_sched(&c.sched)
                        .map_err(|e| format!("scheduler `{}`: {e}", c.label))?;
                }
                if p.minplus_hops == 0 {
                    return Err("`params.minplus_hops` must be >= 1".into());
                }
            }
            Experiment::Ablation => {}
            Experiment::Bound(p) => {
                check_point(p.hops, p.through, p.capacity)?;
                if !eps_ok(p.epsilon) {
                    return Err("`params.epsilon` must lie in (0, 1)".into());
                }
                crate::parse_sched(&p.sched)?;
                check_packet(p.packet)?;
            }
            Experiment::CrossSweep(p) => {
                check_point(p.hops, p.through, p.capacity)?;
                if !eps_ok(p.epsilon) {
                    return Err("`params.epsilon` must lie in (0, 1)".into());
                }
            }
            Experiment::Faulted(p) => {
                check_point(p.hops, p.through, p.capacity)?;
                if !eps_ok(p.epsilon) {
                    return Err("`params.epsilon` must lie in (0, 1)".into());
                }
                if p.schedulers.is_empty() {
                    return Err("`params.schedulers` must list at least one case".into());
                }
                for c in &p.schedulers {
                    crate::parse_sched(&c.sched)
                        .map_err(|e| format!("scheduler `{}`: {e}", c.label))?;
                }
                match &self.faults {
                    Some(plan) if !plan.is_empty() => {
                        plan.check_hops(p.hops).map_err(|e| e.to_string())?;
                    }
                    _ => {
                        return Err(
                            "a `faulted` experiment needs a non-empty top-level `faults` block"
                                .into(),
                        )
                    }
                }
            }
            Experiment::Simulate(p) => {
                check_point(p.hops, p.through, p.capacity)?;
                let (_, kind) = crate::parse_sched(&p.sched)?;
                check_packet(p.packet)?;
                if p.packet.is_some() && matches!(kind, SchedulerKind::Gps { .. }) {
                    return Err("`params.packet` cannot be combined with a gps scheduler: \
                                packetized GPS is not modelled (scfq is)"
                        .into());
                }
                if let Some(plan) = &self.faults {
                    plan.check_hops(p.hops).map_err(|e| e.to_string())?;
                }
                if let Some(caps) = &p.capacities {
                    if caps.len() != p.hops {
                        return Err(format!(
                            "`params.capacities` has {} entries but the path has {} hops",
                            caps.len(),
                            p.hops
                        ));
                    }
                    if caps.iter().any(|&c| !(c > 0.0 && c.is_finite())) {
                        return Err("`params.capacities` entries must be positive".into());
                    }
                }
            }
        }
        Ok(())
    }
}

fn check_point(hops: usize, through: usize, capacity: f64) -> Result<(), String> {
    if hops == 0 {
        return Err("`params.hops` must be at least 1".into());
    }
    if through == 0 {
        return Err("`params.through` must be at least 1".into());
    }
    if !(capacity > 0.0 && capacity.is_finite()) {
        return Err(format!("`params.capacity` must be positive, got {capacity}"));
    }
    Ok(())
}

fn check_packet(packet: Option<f64>) -> Result<(), String> {
    if let Some(l) = packet {
        if !(l > 0.0 && l.is_finite()) {
            return Err(format!("`params.packet` must be positive, got {l}"));
        }
    }
    Ok(())
}

fn parse_validate(params: &Json) -> Result<Validate, String> {
    let sections_raw = params
        .get("sections")
        .and_then(Json::as_array)
        .ok_or("`params.sections` must be an array")?;
    let mut sections = Vec::new();
    for (i, s) in sections_raw.iter().enumerate() {
        let hops = usize_field(s, "hops").map_err(|e| format!("sections[{i}]: {e}"))?;
        let through = usize_field(s, "through").map_err(|e| format!("sections[{i}]: {e}"))?;
        let cross = usize_field(s, "cross").map_err(|e| format!("sections[{i}]: {e}"))?;
        sections.push((hops, through, cross));
    }
    let cases_raw = params
        .get("schedulers")
        .and_then(Json::as_array)
        .ok_or("`params.schedulers` must be an array")?;
    let mut schedulers = Vec::new();
    for (i, c) in cases_raw.iter().enumerate() {
        schedulers.push(ValidateCase {
            label: req_str(c, "label").map_err(|e| format!("schedulers[{i}]: {e}"))?,
            sched: req_str(c, "sched").map_err(|e| format!("schedulers[{i}]: {e}"))?,
        });
    }
    Ok(Validate {
        capacity: f64_field(params, "capacity")?,
        epsilon: f64_field(params, "epsilon")?,
        sections,
        schedulers,
        minplus_hops: usize_field_or(params, "minplus_hops", 4)?,
    })
}

fn parse_faulted(params: &Json) -> Result<Faulted, String> {
    let cases_raw = params
        .get("schedulers")
        .and_then(Json::as_array)
        .ok_or("`params.schedulers` must be an array")?;
    let mut schedulers = Vec::new();
    for (i, c) in cases_raw.iter().enumerate() {
        schedulers.push(ValidateCase {
            label: req_str(c, "label").map_err(|e| format!("schedulers[{i}]: {e}"))?,
            sched: req_str(c, "sched").map_err(|e| format!("schedulers[{i}]: {e}"))?,
        });
    }
    Ok(Faulted {
        capacity: f64_field_or(params, "capacity", 20.0)?,
        epsilon: f64_field_or(params, "epsilon", 1e-3)?,
        hops: usize_field(params, "hops")?,
        through: usize_field(params, "through")?,
        cross: usize_field(params, "cross")?,
        schedulers,
    })
}

/// Parses the top-level `faults` block: either an array of fault-model
/// objects applied to every node, or `{"per_node": [[...], ...]}` with
/// one model list per hop. Model objects are keyed by `kind`.
fn parse_faults(doc: &Json) -> Result<Option<FaultPlan>, String> {
    let Some(block) = doc.get("faults") else {
        return Ok(None);
    };
    let plan = match block {
        Json::Null => return Ok(None),
        Json::Array(models) => {
            let models = parse_fault_models(models).map_err(|e| format!("`faults`: {e}"))?;
            FaultPlan::uniform(models)
        }
        other => {
            let per_node_raw = other
                .get("per_node")
                .and_then(Json::as_array)
                .ok_or("`faults` must be an array of models or {\"per_node\": [[...], ...]}")?;
            let mut per_node = Vec::new();
            for (h, node) in per_node_raw.iter().enumerate() {
                let list = node
                    .as_array()
                    .ok_or_else(|| format!("`faults.per_node[{h}]` must be an array"))?;
                per_node.push(
                    parse_fault_models(list).map_err(|e| format!("`faults.per_node[{h}]`: {e}"))?,
                );
            }
            FaultPlan::per_node(per_node)
        }
    };
    plan.map(Some).map_err(|e| e.to_string())
}

fn parse_fault_models(models: &[Json]) -> Result<Vec<FaultModel>, String> {
    models
        .iter()
        .enumerate()
        .map(|(i, m)| parse_fault_model(m).map_err(|e| format!("model [{i}]: {e}")))
        .collect()
}

fn parse_fault_model(m: &Json) -> Result<FaultModel, String> {
    let kind = req_str(m, "kind")?;
    match kind.as_str() {
        "gilbert_elliott" => Ok(FaultModel::GilbertElliott {
            p_fail: f64_field(m, "p_fail")?,
            p_repair: f64_field(m, "p_repair")?,
            capacity_factor: f64_field_or(m, "capacity_factor", 0.0)?,
        }),
        "degradation" => Ok(FaultModel::Degradation {
            prob: f64_field(m, "prob")?,
            factor: f64_field(m, "factor")?,
        }),
        "stall" => Ok(FaultModel::Stall {
            prob: f64_field(m, "prob")?,
            duration: m
                .get("duration")
                .and_then(Json::as_u64)
                .ok_or("missing or non-integer `duration`")?,
        }),
        "drop" => Ok(FaultModel::Drop { prob: f64_field(m, "prob")? }),
        other => Err(format!(
            "unknown fault kind `{other}` (expected gilbert_elliott, degradation, stall, or drop)"
        )),
    }
}

fn parse_sim(doc: &Json) -> Result<SimDefaults, String> {
    let Some(sim) = doc.get("sim") else {
        return Ok(SimDefaults::default());
    };
    let d = SimDefaults::default();
    Ok(SimDefaults {
        reps: usize_field_or(sim, "reps", d.reps)?,
        slots: match sim.get("slots") {
            Some(v) => v.as_u64().ok_or("`sim.slots` must be a non-negative integer")?,
            None => d.slots,
        },
        seed: match sim.get("seed") {
            Some(v) => Some(v.as_u64().ok_or("`sim.seed` must be a non-negative integer")?),
            None => None,
        },
    })
}

fn req_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn opt_str(obj: &Json, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => {
            v.as_str().map(|s| Some(s.to_string())).ok_or(format!("`{key}` must be a string"))
        }
    }
}

fn str_field_or(obj: &Json, key: &str, default: &str) -> Result<String, String> {
    match obj.get(key) {
        None => Ok(default.to_string()),
        Some(v) => v.as_str().map(str::to_string).ok_or(format!("`{key}` must be a string")),
    }
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

fn f64_field_or(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or(format!("`{key}` must be a number")),
    }
}

fn opt_f64(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or(format!("`{key}` must be a number")),
    }
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn usize_field_or(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => {
            v.as_u64().map(|v| v as usize).ok_or(format!("`{key}` must be a non-negative integer"))
        }
    }
}

fn usize_list(obj: &Json, key: &str) -> Result<Vec<usize>, String> {
    let arr = obj
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing or non-array `{key}`"))?;
    arr.iter()
        .map(|v| v.as_u64().map(|v| v as usize))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("`{key}` must contain non-negative integers"))
}

fn f64_list(obj: &Json, key: &str) -> Result<Vec<f64>, String> {
    let arr = obj
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing or non-array `{key}`"))?;
    arr.iter()
        .map(Json::as_f64)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("`{key}` must contain numbers"))
}

fn opt_f64_list(obj: &Json, key: &str) -> Result<Option<Vec<f64>>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => f64_list(obj, key).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_utilization_sweep() {
        let s = Scenario::from_json(
            r#"{
              "name": "fig2",
              "title": "Fig. 2",
              "experiment": "utilization_sweep",
              "params": {
                "hops": [2, 5, 10],
                "u_through": 0.15,
                "u_start": 0.20, "u_step": 0.05, "u_stop": 0.951,
                "edf_cross_ratio": 10.0,
                "epsilon": 1e-9
              },
              "sim": {"reps": 4, "slots": 20000}
            }"#,
        )
        .unwrap();
        assert_eq!(s.name, "fig2");
        assert_eq!(s.sim, SimDefaults { reps: 4, slots: 20_000, seed: None });
        match s.experiment {
            Experiment::UtilizationSweep(p) => {
                assert_eq!(p.hops, vec![2, 5, 10]);
                assert_eq!(p.u_through, 0.15);
                assert_eq!(p.edf_cross_ratio, 10.0);
            }
            other => panic!("wrong experiment {other:?}"),
        }
    }

    #[test]
    fn parses_validate_with_schedulers() {
        let s = Scenario::from_json(
            r#"{
              "name": "validate",
              "experiment": "validate",
              "params": {
                "capacity": 20.0,
                "epsilon": 1e-3,
                "sections": [{"hops": 1, "through": 40, "cross": 60}],
                "schedulers": [
                  {"label": "FIFO", "sched": "fifo"},
                  {"label": "GPS(1:1)", "sched": "gps:1,1"}
                ],
                "minplus_hops": 4
              },
              "sim": {"reps": 8, "slots": 250000}
            }"#,
        )
        .unwrap();
        match s.experiment {
            Experiment::Validate(p) => {
                assert_eq!(p.sections, vec![(1, 40, 60)]);
                assert_eq!(p.schedulers.len(), 2);
                assert_eq!(p.schedulers[1].sched, "gps:1,1");
            }
            other => panic!("wrong experiment {other:?}"),
        }
    }

    #[test]
    fn defaults_apply_for_cli_experiments() {
        let s = Scenario::from_json(
            r#"{"name": "b", "experiment": "bound",
                "params": {"hops": 5, "through": 100, "cross": 200}}"#,
        )
        .unwrap();
        match s.experiment {
            Experiment::Bound(p) => {
                assert_eq!(p.capacity, 100.0);
                assert_eq!(p.epsilon, 1e-9);
                assert_eq!(p.sched, "fifo");
                assert_eq!(p.packet, None);
            }
            other => panic!("wrong experiment {other:?}"),
        }
        assert_eq!(s.sim, SimDefaults::default());
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cli_flags_build_the_scenario_a_file_does() {
        let text = include_str!("../../../examples/scenarios/bound_demo.json");
        let file = Scenario::from_json(text).unwrap();
        let flags = "--hops 5 --through 100 --cross 200 --capacity 100 --eps 1e-9 --sched fifo";
        let (cli, rest) = Scenario::from_cli("bound", &args(flags)).unwrap();
        assert_eq!(cli.experiment, file.experiment);
        assert!(rest.is_empty());
        assert_eq!(cli.sim, SimDefaults { reps: 1, slots: 1_000_000, seed: Some(1) });
    }

    #[test]
    fn cli_passes_engine_flags_through_and_rejects_bad_input() {
        let flags = "--hops 3 --threads 2 --through 50 --cross-max 300";
        let (s, rest) = Scenario::from_cli("sweep", &args(flags)).unwrap();
        assert_eq!(rest, args("--threads 2"));
        assert!(matches!(s.experiment, Experiment::CrossSweep(CrossSweep { cross_max: 300, .. })));
        for bad in [
            "--hops 0 --through 1",
            "--hops x --through 1",
            "--hops 1",
            "--hops 1 --through 1 --eps",
            "--hops 1 --through 1 --sched gps:1,1 --packet 1",
        ] {
            let err = Scenario::from_cli("simulate", &args(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}: {err}");
        }
        assert!(Scenario::from_cli("frobnicate", &[]).is_err());
    }

    #[test]
    fn per_node_capacities_must_match_hops() {
        let err = Scenario::from_json(
            r#"{"name": "s", "experiment": "simulate",
                "params": {"hops": 3, "through": 10, "cross": 5,
                           "capacities": [100.0, 90.0]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("2 entries") && err.contains("3 hops"), "{err}");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Scenario::from_json("{").is_err());
        assert!(Scenario::from_json(r#"{"name": "x"}"#).is_err());
        assert!(Scenario::from_json(r#"{"name": "x", "experiment": "nope"}"#).is_err());
        // Bad scheduler spec inside validate params.
        let err = Scenario::from_json(
            r#"{"name": "v", "experiment": "validate",
                "params": {"capacity": 20.0, "epsilon": 1e-3,
                           "sections": [{"hops": 1, "through": 40, "cross": 60}],
                           "schedulers": [{"label": "X", "sched": "wfq"}]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown scheduler"), "{err}");
        // Zero-rep sims are meaningless.
        assert!(Scenario::from_json(
            r#"{"name": "b", "experiment": "bound",
                "params": {"hops": 1, "through": 1}, "sim": {"reps": 0}}"#
        )
        .is_err());
    }
}
