//! One textual scheduler syntax shared by the CLI and the scenario
//! files: `fifo | bmux | sp | edf:<d0>,<dc> | delta:<v> | gps:<w0>,<wc>
//! | scfq:<w0>,<wc>`.

use nc_core::PathScheduler;
use nc_sim::SchedulerKind;

/// Parses a scheduler specification into its analytical
/// ([`PathScheduler`]) and simulated ([`SchedulerKind`]) forms.
///
/// GPS/SCFQ are not Δ-schedulers: the only valid analytical bound is
/// the blind-multiplexing envelope, which dominates every
/// work-conserving locally-FIFO discipline, so they map to
/// [`PathScheduler::Bmux`] on the analysis side. A `delta:<v>` offset
/// maps onto EDF deadlines with the same gap on the simulation side.
pub fn parse_sched(s: &str) -> Result<(PathScheduler, SchedulerKind), String> {
    if let Some(rest) = s.strip_prefix("edf:") {
        let (d0, dc) =
            rest.split_once(',').ok_or_else(|| format!("edf needs `edf:<d0>,<dc>`, got `{s}`"))?;
        let d0: f64 = parse(d0, "edf d0")?;
        let dc: f64 = parse(dc, "edf dc")?;
        if !(d0.is_finite() && dc.is_finite() && d0 >= 0.0 && dc >= 0.0) {
            return Err(format!("edf deadlines must be finite and non-negative, got `{s}`"));
        }
        return Ok((
            PathScheduler::Edf { d_through: d0, d_cross: dc },
            SchedulerKind::Edf { d_through: d0, d_cross: dc },
        ));
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
        let kind = if s.starts_with("gps:") {
            SchedulerKind::Gps { w_through: w0, w_cross: wc }
        } else {
            SchedulerKind::Scfq { w_through: w0, w_cross: wc }
        };
        return Ok((PathScheduler::Bmux, kind));
    }
    if let Some(v) = s.strip_prefix("delta:") {
        let v: f64 = parse(v, "delta")?;
        if !v.is_finite() {
            return Err(format!("delta offset must be finite, got `{s}`"));
        }
        // The simulator needs a concrete mechanism; a Δ offset maps onto
        // EDF deadlines with the same gap.
        let (d0, dc) = if v >= 0.0 { (v, 0.0) } else { (0.0, -v) };
        return Ok((PathScheduler::Delta(v), SchedulerKind::Edf { d_through: d0, d_cross: dc }));
    }
    match s {
        "fifo" => Ok((PathScheduler::Fifo, SchedulerKind::Fifo)),
        "bmux" => Ok((PathScheduler::Bmux, SchedulerKind::Bmux)),
        "sp" => Ok((PathScheduler::ThroughPriority, SchedulerKind::ThroughPriority)),
        other => Err(format!("unknown scheduler `{other}`")),
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
        assert!(matches!(parse_sched("fifo"), Ok((PathScheduler::Fifo, SchedulerKind::Fifo))));
        assert!(matches!(parse_sched("bmux"), Ok((PathScheduler::Bmux, SchedulerKind::Bmux))));
        assert!(matches!(parse_sched("sp"), Ok((PathScheduler::ThroughPriority, _))));
        let (p, k) = parse_sched("edf:10,40").unwrap();
        assert_eq!(p, PathScheduler::Edf { d_through: 10.0, d_cross: 40.0 });
        assert!(matches!(k, SchedulerKind::Edf { .. }));
        assert!(matches!(parse_sched("gps:1,2"), Ok((PathScheduler::Bmux, _))));
        assert!(matches!(parse_sched("scfq:1,2"), Ok((PathScheduler::Bmux, _))));
        assert_eq!(parse_sched("delta:-5").unwrap().0, PathScheduler::Delta(-5.0));
    }

    #[test]
    fn negative_delta_maps_to_valid_edf_deadlines() {
        // delta:-5 favours the cross class; the simulated EDF deadlines
        // must stay non-negative so the node accepts them.
        let (_, k) = parse_sched("delta:-5").unwrap();
        match k {
            SchedulerKind::Edf { d_through, d_cross } => {
                assert_eq!((d_through, d_cross), (0.0, 5.0));
            }
            other => panic!("unexpected kind {other:?}"),
        }
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
