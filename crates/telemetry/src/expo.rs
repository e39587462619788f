//! Prometheus-style text exposition of a [`MetricsSnapshot`].
//!
//! Metric names may carry inline labels in the usual form
//! (`campaign_injections_total{outcome="sdc"}`); the base name before
//! the `{` groups series under one `# HELP`/`# TYPE` header pair.
//! Histograms are exposed natively: cumulative `_bucket{le="..."}`
//! series over the log₂ bucket bounds, plus `_sum` and `_count` — what
//! a Prometheus-compatible collector expects to scrape, including the
//! profiler's injection-latency histograms.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;

fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// The label body of a series name (`k="a"` of `out_total{k="a"}`).
fn labels(name: &str) -> Option<&str> {
    let open = name.find('{')?;
    let close = name.rfind('}')?;
    (close > open).then(|| &name[open + 1..close])
}

/// Escapes one label value for the Prometheus text format: backslash,
/// double quote and line feed must render as `\\`, `\"` and `\n`, or a
/// hostile workload or device name breaks the line-oriented exposition.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Re-renders a series name with every label value escaped. Registry
/// names embed values raw, so delimiters have to be inferred: a value
/// opens at `="` and closes at the first `"` followed by `,` or the end
/// of the label body — any other `"` (or `\` or newline) is content.
fn escape_series(name: &str) -> String {
    let (Some(open), Some(close)) = (name.find('{'), name.rfind('}')) else {
        return name.to_string();
    };
    if close < open {
        return name.to_string();
    }
    let body: Vec<char> = name[open + 1..close].chars().collect();
    let mut out = String::with_capacity(name.len());
    out.push_str(&name[..=open]);
    let mut in_value = false;
    let mut prev = '\0';
    for (i, &c) in body.iter().enumerate() {
        if !in_value {
            out.push(c);
            if c == '"' && prev == '=' {
                in_value = true;
            }
        } else if c == '"' && body.get(i + 1).is_none_or(|&n| n == ',') {
            out.push(c);
            in_value = false;
        } else {
            out.push_str(&escape_label_value(&c.to_string()));
        }
        prev = c;
    }
    out.push_str(&name[close..]);
    out
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One-line documentation for the well-known metric families; suffix
/// conventions cover everything else so every series gets a `# HELP`.
fn help_text(base: &str) -> &'static str {
    match base {
        "campaign_injections_total" => "Fault injections classified, by outcome.",
        "campaign_injections_by_kind_total" => "Fault injections classified, by fault kind.",
        "campaign_rung_hits_total" => "Replays resumed from each checkpoint rung.",
        "campaign_pruned_total" => "Sites the lifetime oracle resolved without a replay.",
        "campaign_batched_total" => "Sites classified by a shared batched replay pass.",
        "campaign_batches_total" => "Shared batched replay passes run.",
        "campaign_batch_forks_total" => "Batched lanes forked into a private replay.",
        "campaign_batch_final_sdc_total" => {
            "Unforked batched lanes classified SDC from final-output divergence."
        }
        "campaign_batch_fallbacks_total" => "Batches that fell back to scalar replay.",
        "campaign_batch_shared_cycles_total" => "Simulated cycles spent in shared batch passes.",
        "campaign_batch_fork_cycles_total" => "Simulated cycles spent in forked lane replays.",
        "campaign_cycles_replayed_total" => "Simulated cycles spent in injection replays.",
        "campaign_cycles_saved_total" => "Simulated cycles avoided by checkpoints and pruning.",
        "campaign_watchdog_cycles_total" => "Simulated cycles burned in watchdog-killed replays.",
        "campaign_hang_total" => "Replays killed by the watchdog and classified Hang.",
        "campaign_injection_seconds" => "Wall-clock seconds per injection replay.",
        "campaign_worker_seconds" => "Wall-clock seconds each replay worker ran.",
        "campaign_golden_seconds" => "Wall-clock seconds of the golden (fault-free) run.",
        "campaign_golden_cycles" => "Simulated cycles of the golden run.",
        "campaign_workers" => "Replay worker threads used by the last campaign.",
        "campaign_worker_injections_total" => "Injections replayed, by worker.",
        "campaign_worker_injections_per_second" => "Replay throughput, by worker.",
        "campaign_worker_busy_us_total" => "Microseconds each worker spent replaying injections.",
        "campaign_worker_us_total" => "Microseconds each worker's replay loop was alive.",
        "campaign_injection_latency_us_total" => {
            "Injection replay latency, log2-microsecond buckets by outcome."
        }
        "campaign_injection_latency_by_kind_us_total" => {
            "Injection replay latency, log2-microsecond buckets by fault kind."
        }
        "ladder_build_seconds" => "Wall-clock seconds building the checkpoint ladder.",
        "ladder_rungs" => "Checkpoints in the ladder.",
        "ladder_bytes" => "Bytes held by the checkpoint ladder.",
        "sim_instructions_total" => "Warp instructions executed by the simulator.",
        "sim_snapshots_total" => "Simulator snapshots taken.",
        "sim_snapshot_bytes_total" => "Bytes serialized into simulator snapshots.",
        "sim_snapshot_seconds" => "Wall-clock seconds taking simulator snapshots.",
        "sim_restores_total" => "Simulator snapshot restores.",
        "study_point_seconds" => "Wall-clock seconds per (workload, device) study point.",
        "observatory_requests_total" => "HTTP requests answered by the observatory, by path.",
        _ => "",
    }
}

fn write_header(out: &mut String, typed: &mut BTreeSet<String>, base: &str, kind: &str) {
    if typed.insert(base.to_string()) {
        let help = help_text(base);
        if help.is_empty() {
            let fallback = match () {
                _ if base.ends_with("_total") => "Monotonic event counter.",
                _ if base.ends_with("_seconds") => "Wall-clock duration histogram (seconds).",
                _ if base.ends_with("_bytes") => "Size in bytes.",
                _ => "Campaign telemetry series.",
            };
            let _ = writeln!(out, "# HELP {base} {fallback}");
        } else {
            let _ = writeln!(out, "# HELP {base} {help}");
        }
        let _ = writeln!(out, "# TYPE {base} {kind}");
    }
}

/// Renders the snapshot in the Prometheus text exposition format.
///
/// ```
/// use grel_telemetry::{to_prometheus, MetricsRegistry};
/// let reg = MetricsRegistry::new();
/// reg.counter(r#"campaign_injections_total{outcome="masked"}"#, 7);
/// let text = to_prometheus(&reg.snapshot());
/// assert!(text.contains("# HELP campaign_injections_total "));
/// assert!(text.contains("# TYPE campaign_injections_total counter"));
/// assert!(text.contains(r#"campaign_injections_total{outcome="masked"} 7"#));
/// ```
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut typed: BTreeSet<String> = BTreeSet::new();

    for (name, value) in snapshot.counters() {
        write_header(&mut out, &mut typed, base_name(name), "counter");
        let _ = writeln!(out, "{} {value}", escape_series(name));
    }
    for (name, value) in snapshot.gauges() {
        write_header(&mut out, &mut typed, base_name(name), "gauge");
        let _ = writeln!(out, "{} {}", escape_series(name), fmt_value(value));
    }
    for (name, hist) in snapshot.histograms() {
        let base = base_name(name);
        write_header(&mut out, &mut typed, base, "histogram");
        // Cumulative `le` buckets over the non-empty log2 bounds, the
        // mandatory +Inf bucket, then sum and count. Series labels (if
        // any) are preserved ahead of the `le` label, values escaped.
        let escaped = escape_series(name);
        let series_labels = labels(&escaped);
        let with_le = |le: &str| match series_labels {
            Some(l) => format!("{base}_bucket{{{l},le=\"{le}\"}}"),
            None => format!("{base}_bucket{{le=\"{le}\"}}"),
        };
        let mut cumulative = 0u64;
        for (upper, n) in hist.buckets() {
            cumulative += n;
            let _ = writeln!(out, "{} {cumulative}", with_le(&fmt_value(upper)));
        }
        let _ = writeln!(out, "{} {}", with_le("+Inf"), hist.count());
        let suffixed = |suffix: &str| match series_labels {
            Some(l) => format!("{base}{suffix}{{{l}}}"),
            None => format!("{base}{suffix}"),
        };
        let _ = writeln!(out, "{} {}", suffixed("_sum"), fmt_value(hist.sum()));
        let _ = writeln!(out, "{} {}", suffixed("_count"), hist.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn renders_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("hits_total", 3);
        reg.gauge("rungs", 16.0);
        reg.observe("lat_seconds", 0.5);
        reg.observe("lat_seconds", 0.5);
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("# HELP hits_total Monotonic event counter."));
        assert!(text.contains("# TYPE hits_total counter"));
        assert!(text.contains("hits_total 3"));
        assert!(text.contains("# TYPE rungs gauge"));
        assert!(text.contains("rungs 16"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_count 2"));
        assert!(text.contains("lat_seconds_sum 1"));
    }

    #[test]
    fn labelled_series_share_one_type_header() {
        let reg = MetricsRegistry::new();
        reg.counter(r#"out_total{k="a"}"#, 1);
        reg.counter(r#"out_total{k="b"}"#, 2);
        let text = to_prometheus(&reg.snapshot());
        assert_eq!(text.matches("# TYPE out_total counter").count(), 1);
        assert_eq!(text.matches("# HELP out_total ").count(), 1);
        assert!(text.contains(r#"out_total{k="a"} 1"#));
        assert!(text.contains(r#"out_total{k="b"} 2"#));
    }

    #[test]
    fn known_families_get_real_help_text() {
        let reg = MetricsRegistry::new();
        reg.counter(r#"campaign_injections_total{outcome="sdc"}"#, 1);
        let text = to_prometheus(&reg.snapshot());
        assert!(
            text.contains("# HELP campaign_injections_total Fault injections classified"),
            "text = {text}"
        );
    }

    #[test]
    fn histograms_expose_cumulative_le_buckets() {
        let reg = MetricsRegistry::new();
        // Three samples in two distinct octaves: 0.5 twice, 8.0 once.
        reg.observe("lat_seconds", 0.5);
        reg.observe("lat_seconds", 0.5);
        reg.observe("lat_seconds", 8.0);
        let text = to_prometheus(&reg.snapshot());
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lat_seconds_bucket{"))
            .collect();
        assert_eq!(bucket_lines.len(), 3, "two octaves + +Inf: {text}");
        // Cumulative counts end at the total, and +Inf equals _count.
        assert!(bucket_lines[0].ends_with(" 2"), "{bucket_lines:?}");
        assert!(bucket_lines[1].ends_with(" 3"), "{bucket_lines:?}");
        assert_eq!(
            bucket_lines[2], r#"lat_seconds_bucket{le="+Inf"} 3"#,
            "{bucket_lines:?}"
        );
        // Bounds ascend.
        let bound = |l: &str| {
            l.split("le=\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .parse::<f64>()
                .ok()
        };
        let b0 = bound(bucket_lines[0]).unwrap();
        let b1 = bound(bucket_lines[1]).unwrap();
        assert!(b0 < b1, "bounds must ascend: {b0} vs {b1}");
    }

    /// Undoes [`escape_label_value`] — the test-side half of the
    /// round trip.
    fn unescape(v: &str) -> String {
        let mut out = String::new();
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                other => {
                    out.push('\\');
                    out.extend(other);
                }
            }
        }
        out
    }

    #[test]
    fn hostile_label_values_escape_and_round_trip() {
        let hostile = "a\\b\"c\nd";
        let reg = MetricsRegistry::new();
        reg.counter(&format!("runs_total{{workload=\"{hostile}\"}}"), 1);
        reg.gauge(&format!("speed{{workload=\"{hostile}\"}}"), 2.0);
        reg.observe(&format!("lat_seconds{{workload=\"{hostile}\"}}"), 0.5);
        let text = to_prometheus(&reg.snapshot());
        // The raw newline, quote and backslash never reach the output:
        // every series stays on one line with the value escaped.
        let escaped = r#"a\\b\"c\nd"#;
        for series in [
            format!("runs_total{{workload=\"{escaped}\"}} 1"),
            format!("speed{{workload=\"{escaped}\"}} 2"),
            format!("lat_seconds_bucket{{workload=\"{escaped}\",le=\"+Inf\"}} 1"),
            format!("lat_seconds_sum{{workload=\"{escaped}\"}} 0.5"),
            format!("lat_seconds_count{{workload=\"{escaped}\"}} 1"),
        ] {
            assert!(
                text.lines().any(|l| l == series),
                "missing line {series:?} in:\n{text}"
            );
        }
        // Unescaping the exposed value restores the original exactly.
        assert_eq!(unescape(escaped), hostile);
        assert_eq!(escape_label_value(hostile), escaped);
    }

    #[test]
    fn escape_series_leaves_sane_names_alone() {
        for name in [
            "plain_total",
            r#"out_total{k="a"}"#,
            r#"out_total{k="a",b="c d"}"#,
        ] {
            assert_eq!(escape_series(name), name);
        }
    }

    #[test]
    fn labelled_histograms_merge_le_with_series_labels() {
        let reg = MetricsRegistry::new();
        reg.observe(r#"lat_seconds{worker="3"}"#, 1.0);
        let text = to_prometheus(&reg.snapshot());
        assert!(
            text.contains(r#"lat_seconds_bucket{worker="3",le="+Inf"} 1"#),
            "text = {text}"
        );
        assert!(text.contains(r#"lat_seconds_sum{worker="3"} 1"#));
        assert!(text.contains(r#"lat_seconds_count{worker="3"} 1"#));
    }
}
