//! One textual scheduler syntax shared by the CLI and the scenario
//! files: `fifo | bmux | sp | edf:<d0>,<dc> | delta:<v> | gps:<w0>,<wc>
//! | scfq:<w0>,<wc>`.

use nc_core::PathScheduler;
use nc_sim::SchedulerKind;

/// Parses a scheduler specification. A scenario parses each of its
/// specifications once, when it is built.
pub(crate) fn parse_sched(s: &str) -> Result<SchedulerKind, String> {
    if let Some(rest) = s.strip_prefix("edf:") {
        let (d0, dc) =
            rest.split_once(',').ok_or_else(|| format!("edf needs `edf:<d0>,<dc>`, got `{s}`"))?;
        let d0: f64 = parse(d0, "edf d0")?;
        let dc: f64 = parse(dc, "edf dc")?;
        if !(d0.is_finite() && dc.is_finite() && d0 >= 0.0 && dc >= 0.0) {
            return Err(format!("edf deadlines must be finite and non-negative, got `{s}`"));
        }
        return Ok(SchedulerKind::Edf { d_through: d0, d_cross: dc });
    }
    if let Some(rest) = s.strip_prefix("gps:").or_else(|| s.strip_prefix("scfq:")) {
        let (w0, wc) = rest.split_once(',').ok_or_else(|| {
            format!("fair queueing needs `gps:<w0>,<wc>` or `scfq:<w0>,<wc>`, got `{s}`")
        })?;
        let w0: f64 = parse(w0, "through weight")?;
        let wc: f64 = parse(wc, "cross weight")?;
        if !(w0 > 0.0 && wc > 0.0 && w0.is_finite() && wc.is_finite()) {
            return Err("fair-queueing weights must be positive".into());
        }
        return Ok(if s.starts_with("gps:") {
            SchedulerKind::Gps { w_through: w0, w_cross: wc }
        } else {
            SchedulerKind::Scfq { w_through: w0, w_cross: wc }
        });
    }
    if let Some(v) = s.strip_prefix("delta:") {
        let v: f64 = parse(v, "delta")?;
        if !v.is_finite() {
            return Err(format!("delta offset must be finite, got `{s}`"));
        }
        return Ok(SchedulerKind::Delta(v));
    }
    match s {
        "fifo" => Ok(SchedulerKind::Fifo),
        "bmux" => Ok(SchedulerKind::Bmux),
        "sp" => Ok(SchedulerKind::ThroughPriority),
        other => Err(format!("unknown scheduler `{other}`")),
    }
}

/// The analytical scheduler whose bound covers `kind`: a Δ-scheduler
/// is its own. GPS and SCFQ are not Δ-schedulers, and their only valid
/// bound is the blind-multiplexing envelope, which dominates every
/// work-conserving locally-FIFO discipline, so they map to
/// [`PathScheduler::Bmux`].
pub(crate) fn path_scheduler(kind: SchedulerKind) -> PathScheduler {
    match kind {
        SchedulerKind::Fifo => PathScheduler::Fifo,
        SchedulerKind::Bmux | SchedulerKind::Gps { .. } | SchedulerKind::Scfq { .. } => {
            PathScheduler::Bmux
        }
        SchedulerKind::ThroughPriority => PathScheduler::ThroughPriority,
        SchedulerKind::Edf { d_through, d_cross } => PathScheduler::Edf { d_through, d_cross },
        SchedulerKind::Delta(v) => PathScheduler::Delta(v),
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value `{s}` for `{what}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_syntax() {
        let kind = |s| parse_sched(s).unwrap();
        let edf = SchedulerKind::Edf { d_through: 10.0, d_cross: 40.0 };
        assert_eq!(kind("fifo"), SchedulerKind::Fifo);
        assert_eq!(kind("bmux"), SchedulerKind::Bmux);
        assert_eq!(kind("sp"), SchedulerKind::ThroughPriority);
        assert_eq!(kind("edf:10,40"), edf);
        assert_eq!(kind("delta:-5"), SchedulerKind::Delta(-5.0));
        assert_eq!(kind("gps:1,2"), SchedulerKind::Gps { w_through: 1.0, w_cross: 2.0 });
        assert_eq!(kind("scfq:1,2"), SchedulerKind::Scfq { w_through: 1.0, w_cross: 2.0 });
    }

    #[test]
    fn maps_to_the_analytical_scheduler() {
        let path = |s| path_scheduler(parse_sched(s).unwrap());
        assert_eq!(path("fifo"), PathScheduler::Fifo);
        assert_eq!(path("bmux"), PathScheduler::Bmux);
        assert_eq!(path("sp"), PathScheduler::ThroughPriority);
        assert_eq!(path("edf:10,40"), PathScheduler::Edf { d_through: 10.0, d_cross: 40.0 });
        assert_eq!(path("delta:-5"), PathScheduler::Delta(-5.0));
        assert_eq!(path("gps:1,2"), PathScheduler::Bmux);
        assert_eq!(path("scfq:1,2"), PathScheduler::Bmux);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(parse_sched("edf:10").is_err());
        assert!(parse_sched("edf:-1,5").is_err());
        assert!(parse_sched("edf:nan,5").is_err());
        assert!(parse_sched("gps:0,1").is_err());
        assert!(parse_sched("gps:1").is_err());
        assert!(parse_sched("delta:inf").is_err());
        assert!(parse_sched("wfq").is_err());
    }
}
