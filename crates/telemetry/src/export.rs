//! Artifact exporters: Prometheus text exposition and JSONL events.
//!
//! Both exporters are pure functions of a [`MetricSet`] snapshot, so
//! they work identically whether the `enabled` feature was compiled in
//! (an uninstrumented build just exports empty artifacts).

use crate::json;
use crate::metrics::{Histogram, MetricSet, MetricValue};
use std::io::Write;
use std::path::Path;

/// Renders a metric set in the Prometheus text exposition format
/// (one `# TYPE` line per metric name; histograms expand into
/// cumulative `_bucket{le=...}`, `_sum`, and `_count` series).
pub fn prometheus(set: &MetricSet) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for (key, value) in set.iter() {
        if key.name != last_name {
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {} {}\n", key.name, kind));
            last_name = &key.name;
        }
        let labels = render_labels(&key.labels, None);
        match value {
            MetricValue::Counter(n) => out.push_str(&format!("{}{} {}\n", key.name, labels, n)),
            MetricValue::Gauge(v) => out.push_str(&format!("{}{} {}\n", key.name, labels, v)),
            MetricValue::Histogram(h) => {
                let mut cum = 0u64;
                for (i, &b) in h.buckets().iter().enumerate() {
                    cum += b;
                    // Skip interior empty prefixes/suffixes to keep files
                    // small, but always emit the +Inf bucket.
                    let le = Histogram::bucket_le(i);
                    let is_last = le.is_infinite();
                    if b == 0 && !is_last {
                        continue;
                    }
                    let le_txt = if is_last { "+Inf".to_string() } else { format!("{le}") };
                    let labels = render_labels(&key.labels, Some(&le_txt));
                    out.push_str(&format!("{}_bucket{} {}\n", key.name, labels, cum));
                }
                out.push_str(&format!("{}_sum{} {}\n", key.name, labels, h.sum()));
                out.push_str(&format!("{}_count{} {}\n", key.name, labels, h.count()));
            }
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders metrics as one JSON document per line (JSONL): one
/// `counter`, `gauge` or `histogram` record per series.
pub fn events_jsonl(set: &MetricSet) -> String {
    let mut out = String::new();
    for (key, value) in set.iter() {
        let labels = labels_json(&key.labels);
        match value {
            MetricValue::Counter(n) => out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"labels\":{labels},\"value\":{n}}}\n",
                json::string(&key.name)
            )),
            MetricValue::Gauge(v) => out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"labels\":{labels},\"value\":{}}}\n",
                json::string(&key.name),
                json::num(*v)
            )),
            MetricValue::Histogram(h) => {
                let mut buckets = Vec::new();
                for (i, &b) in h.buckets().iter().enumerate() {
                    if b > 0 {
                        let le = Histogram::bucket_le(i);
                        let le_txt = if le.is_infinite() {
                            "\"+Inf\"".to_string()
                        } else {
                            json::string(&format!("{le}"))
                        };
                        buckets.push(format!("[{le_txt},{b}]"));
                    }
                }
                out.push_str(&format!(
                    "{{\"type\":\"histogram\",\"name\":{},\"labels\":{labels},\
                     \"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}\n",
                    json::string(&key.name),
                    h.count(),
                    json::num(h.sum()),
                    h.min().map_or("null".into(), json::num),
                    h.max().map_or("null".into(), json::num),
                    buckets.join(",")
                ));
            }
        }
    }
    out
}

fn labels_json(labels: &[(String, String)]) -> String {
    let parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{}:{}", json::string(k), json::string(v))).collect();
    format!("{{{}}}", parts.join(","))
}

/// Writes `content` to `path` crash-safely, creating parent
/// directories as needed.
///
/// The bytes go to a temporary sibling (same directory, so the final
/// step stays on one filesystem), are fsynced, and the temporary is
/// then atomically renamed over `path`. A crash — including a SIGKILL
/// mid-write — therefore leaves either the previous complete file or
/// the new complete file, never a truncated artifact.
pub fn write_file(path: impl AsRef<Path>, content: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best effort: don't leave the temporary behind on failure.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// A temporary path next to `path` (process-id suffixed, so concurrent
/// processes writing the same artifact never clobber each other's
/// in-progress bytes).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name =
        path.file_name().map_or_else(|| std::ffi::OsString::from("artifact"), |n| n.to_os_string());
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn events_jsonl_lines_each_validate() {
        let mut set = MetricSet::new();
        set.counter_add("a_total", &[("node", "0")], 3);
        set.gauge_set("g", &[], 1.5);
        set.observe("h", &[], 2.0);
        let out = events_jsonl(&set);
        let lines: Vec<&str> = out.lines().collect();
        if crate::ENABLED {
            assert_eq!(lines.len(), 3);
        }
        for line in lines {
            json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn prometheus_format_shape() {
        let mut set = MetricSet::new();
        set.counter_add("x_total", &[("node", "1")], 9);
        set.observe("lat_seconds", &[], 0.5);
        set.observe("lat_seconds", &[], 3.0);
        let out = prometheus(&set);
        assert!(out.contains("# TYPE x_total counter\n"));
        assert!(out.contains("x_total{node=\"1\"} 9\n"));
        assert!(out.contains("# TYPE lat_seconds histogram\n"));
        assert!(out.contains("lat_seconds_bucket{le=\"0.5\"} 1\n"));
        assert!(out.contains("lat_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(out.contains("lat_seconds_sum 3.5\n"));
        assert!(out.contains("lat_seconds_count 2\n"));
    }

    #[test]
    fn write_file_is_atomic_and_leaves_no_temporaries() {
        let dir = std::env::temp_dir().join(format!("nc_tel_atomic_{}", std::process::id()));
        let path = dir.join("nested").join("artifact.json");
        write_file(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        // Overwriting replaces the content wholesale.
        write_file(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temporary files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn prometheus_buckets_are_cumulative() {
        let mut set = MetricSet::new();
        for v in [1.0, 2.0, 4.0, 100.0] {
            set.observe("h", &[], v);
        }
        let out = prometheus(&set);
        // le="4" must include the 1.0, 2.0, and 4.0 samples.
        assert!(out.contains("h_bucket{le=\"4\"} 3\n"), "{out}");
    }
}
