//! Validates a `linksched bench` report (`BENCH_N.json`) with the
//! crate-internal JSON reader (no external tools): the document must
//! parse, declare the `linksched-bench/1` schema, say what was measured
//! (build profile, telemetry on/off, CPU count), and carry at least one
//! entry of each workload kind with finite, ordered timing statistics.
//!
//! Used by the CI bench job:
//!
//! ```sh
//! cargo run --release --example validate_bench -- bench-smoke.json
//! ```

use nc_telemetry::json::{self, Json};
use std::process::ExitCode;

fn check(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing `schema`")?;
    if schema != "linksched-bench/1" {
        return Err(format!("unexpected schema `{schema}`"));
    }
    check_build(doc)?;
    let entries = doc.get("entries").and_then(Json::as_array).ok_or("missing `entries`")?;
    if entries.is_empty() {
        return Err("`entries` is empty".into());
    }
    let mut kinds = std::collections::BTreeSet::new();
    for (i, e) in entries.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i}: missing `name`"))?;
        let kind = e
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{name}: missing `kind`"))?;
        kinds.insert(kind.to_string());
        let stat = |key: &str| {
            e.get(key).and_then(Json::as_f64).filter(|v| v.is_finite() && *v >= 0.0).ok_or_else(
                || format!("{name}: `{key}` missing or not a finite non-negative number"),
            )
        };
        let (p25, median, p75) = (stat("p25_s")?, stat("median_s")?, stat("p75_s")?);
        let (min, max, iqr) = (stat("min_s")?, stat("max_s")?, stat("iqr_s")?);
        if !(min <= p25 && p25 <= median && median <= p75 && p75 <= max) {
            return Err(format!("{name}: statistics out of order (min {min}, p25 {p25}, median {median}, p75 {p75}, max {max})"));
        }
        if (iqr - (p75 - p25)).abs() > 1e-12 * (1.0 + iqr.abs()) {
            return Err(format!("{name}: iqr {iqr} != p75 - p25"));
        }
        if e.get("reps").and_then(Json::as_u64).unwrap_or(0) == 0 {
            return Err(format!("{name}: missing or zero `reps`"));
        }
        e.get("ops").and_then(Json::as_object).ok_or_else(|| format!("{name}: missing `ops`"))?;
    }
    for want in ["analysis-sweep", "minplus-kernel", "simulator"] {
        // --filter and --perf-guard runs legitimately drop kinds; only
        // a full/smoke suite (entries of >1 kind) must have all three.
        if kinds.len() > 1 && !kinds.contains(want) {
            return Err(format!("no `{want}` entry in a multi-kind report"));
        }
    }
    check_perf_guard(doc.get("perf_guard").ok_or("missing `perf_guard`")?)
}

/// What was measured: `profile` is `release` or `debug`, `telemetry`
/// a boolean, and `cpus` at least 1.
fn check_build(doc: &Json) -> Result<(), String> {
    match doc.get("profile").and_then(Json::as_str) {
        Some("release" | "debug") => {}
        _ => return Err("`profile` missing or not `release`/`debug`".into()),
    }
    doc.get("telemetry").and_then(Json::as_bool).ok_or("`telemetry` missing or not a boolean")?;
    match doc.get("cpus").and_then(Json::as_u64) {
        Some(n) if n >= 1 => Ok(()),
        _ => Err("`cpus` missing or below 1".into()),
    }
}

/// `perf_guard` is `null` (no `--perf-guard`), a verdict
/// `{"margin": m, "ok": bool}`, or a skip `{"ok": null, "skipped": why}`
/// (single-CPU machines, where the guard is not observable).
fn check_perf_guard(guard: &Json) -> Result<(), String> {
    if guard.is_null() {
        return Ok(());
    }
    let ok = guard.get("ok").ok_or("`perf_guard` has no `ok`")?;
    if ok.is_null() {
        return match guard.get("skipped").and_then(Json::as_str) {
            Some(why) if !why.is_empty() => Ok(()),
            _ => Err("`perf_guard.ok` is null without a `skipped` reason".into()),
        };
    }
    ok.as_bool().ok_or("`perf_guard.ok` is not a boolean or null")?;
    match guard.get("margin").and_then(Json::as_f64) {
        Some(m) if m.is_finite() && m >= 1.0 => Ok(()),
        _ => Err("`perf_guard.margin` missing or below 1".into()),
    }
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate_bench <BENCH_N.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("FAIL {path}: not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc) {
        Ok(()) => {
            println!("ok   {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAIL {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard(text: &str) -> Result<(), String> {
        check_perf_guard(&json::parse(text).expect("test JSON parses"))
    }

    fn build(text: &str) -> Result<(), String> {
        check_build(&json::parse(text).expect("test JSON parses"))
    }

    #[test]
    fn build_fields_are_required() {
        assert!(build(r#"{"profile":"release","telemetry":true,"cpus":2}"#).is_ok());
        assert!(build(r#"{"profile":"debug","telemetry":false,"cpus":1}"#).is_ok());
        assert!(build(r#"{"telemetry":true,"cpus":2}"#).is_err());
        assert!(build(r#"{"profile":"fast","telemetry":true,"cpus":2}"#).is_err());
        assert!(build(r#"{"profile":"release","cpus":2}"#).is_err());
        assert!(build(r#"{"profile":"release","telemetry":"on","cpus":2}"#).is_err());
        assert!(build(r#"{"profile":"release","telemetry":true}"#).is_err());
        assert!(build(r#"{"profile":"release","telemetry":true,"cpus":0}"#).is_err());
    }

    #[test]
    fn perf_guard_shapes() {
        assert!(guard("null").is_ok());
        assert!(guard(r#"{"margin":1.15,"ok":true}"#).is_ok());
        assert!(guard(r#"{"margin":1.15,"ok":false}"#).is_ok());
        assert!(guard(r#"{"ok":null,"skipped":"single-cpu"}"#).is_ok());
        assert!(guard(r#"{"ok":null}"#).is_err());
        assert!(guard(r#"{"ok":true}"#).is_err());
        assert!(guard(r#"{"margin":1.15,"ok":"yes"}"#).is_err());
        assert!(guard("{}").is_err());
    }
}
