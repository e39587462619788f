//! Markdown run reports from `--metrics` JSONL files.
//!
//! `repro --metrics run.jsonl …` leaves behind one JSON object per line:
//! structured events (`run.meta`, `golden.done`, `ladder.done`,
//! `campaign.done`, `study.point`, `injection.trace`, `log`) emitted
//! while the study runs, followed by the final `counter` / `gauge` /
//! `histogram` values of the metrics registry. [`render_run_report`]
//! digests that file into a human-readable markdown report: run
//! metadata, outcome tallies, the fault-model breakdown (injections per
//! fault kind, watchdog hangs, root-cause attribution), throughput,
//! lifetime-oracle pruning, checkpoint-replay savings,
//! fault-propagation provenance (when the run used `--provenance`) and
//! the top time sinks.

use grel_core::campaign::Outcome;
use grel_core::provenance::{FailureCause, MaskingReason};
use grel_telemetry::Json;
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// Event names the report understands. Lines whose `event` field is not
/// in this set parse fine but carry no reportable signal; a file with
/// *zero* recognized events is rejected so silence never looks like
/// success.
const KNOWN_EVENTS: [&str; 13] = [
    "run.meta",
    "golden.done",
    "ladder.done",
    "campaign.done",
    "campaign.convergence",
    "campaign.round",
    "study.point",
    "injection.trace",
    "watchdog.fired",
    "log",
    "counter",
    "gauge",
    "histogram",
];

/// Reporting order of fault-kind labels: the transient baseline first,
/// then the permanent stuck-at family, then the control-unit targets.
const KIND_ORDER: [&str; 7] = [
    "transient",
    "stuck0",
    "stuck1",
    "ctrl-sched",
    "ctrl-mask",
    "ctrl-sboard",
    "ctrl-barrier",
];

/// Everything the report needs, pulled out of the JSONL lines.
#[derive(Debug, Default)]
struct RunData {
    meta: Option<Json>,
    campaigns: Vec<Json>,
    points: Vec<Json>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Json>,
    /// `campaign.round` events, in emission order.
    rounds: Vec<Json>,
    /// The *last* `campaign.convergence` event carrying a `strata`
    /// array, per campaign key — the final per-stratum state.
    strata_finals: Vec<Json>,
    /// Lines whose event name is in [`KNOWN_EVENTS`].
    recognized: usize,
}

/// All `key="value"` label pairs of a metric name, in written order.
fn label_pairs(name: &str) -> Vec<(&str, &str)> {
    let Some(brace) = name.find('{') else {
        return Vec::new();
    };
    name[brace + 1..name.len().saturating_sub(1)]
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k, v.trim_matches('"')))
        })
        .collect()
}

/// Pivots a two-label latency family (`{key="col",bucket="BB"}`) into
/// ordered columns plus a bucket → per-column microsecond-total matrix.
fn latency_matrix(
    data: &RunData,
    base: &str,
    key: &str,
    col_order: &[&str],
) -> (Vec<String>, BTreeMap<u32, Vec<u64>>) {
    let mut cols: Vec<String> = Vec::new();
    let mut cells: Vec<(String, u32, u64)> = Vec::new();
    for (name, v) in &data.counters {
        if split_label(name).0 != base {
            continue;
        }
        let pairs = label_pairs(name);
        let col = pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.to_string());
        let bucket = pairs
            .iter()
            .find(|(k, _)| *k == "bucket")
            .and_then(|(_, v)| v.parse().ok());
        if let (Some(col), Some(bucket)) = (col, bucket) {
            if !cols.contains(&col) {
                cols.push(col.clone());
            }
            cells.push((col, bucket, *v));
        }
    }
    cols.sort_by_key(|c| col_order.iter().position(|k| k == c).unwrap_or(usize::MAX));
    let mut rows: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (col, bucket, us) in cells {
        let idx = cols
            .iter()
            .position(|c| *c == col)
            .expect("column recorded");
        rows.entry(bucket).or_insert_with(|| vec![0; cols.len()])[idx] += us;
    }
    (cols, rows)
}

/// Human label of a log2 microsecond bucket: bucket `b` covers
/// `[2^b, 2^(b+1))` µs (sub-microsecond replays land in bucket 0).
fn us_bucket_label(b: u32) -> String {
    if b == 0 {
        "<2".into()
    } else {
        format!("{}..{}", 1u128 << b, (1u128 << (b + 1)) - 1)
    }
}

/// Splits `base{key="value"}` into the base name and the label value.
fn split_label(name: &str) -> (&str, Option<&str>) {
    let Some(brace) = name.find('{') else {
        return (name, None);
    };
    let base = &name[..brace];
    let label = name[brace..].split('"').nth(1).filter(|v| !v.is_empty());
    (base, label)
}

fn parse_lines(text: &str) -> Result<RunData, String> {
    let mut data = RunData::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = Json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let Some(event) = obj.get("event").and_then(Json::as_str) else {
            return Err(format!("line {}: object has no \"event\" field", idx + 1));
        };
        if KNOWN_EVENTS.contains(&event) {
            data.recognized += 1;
        }
        match event {
            "run.meta" => data.meta = Some(obj),
            "campaign.done" => data.campaigns.push(obj),
            "campaign.round" => data.rounds.push(obj),
            "campaign.convergence" if obj.get("strata").is_some() => {
                let key = |o: &Json| {
                    ["workload", "device", "structure", "fault_kind"].map(|k| {
                        o.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    })
                };
                let k = key(&obj);
                match data.strata_finals.iter_mut().find(|o| key(o) == k) {
                    Some(slot) => *slot = obj,
                    None => data.strata_finals.push(obj),
                }
            }
            "study.point" => data.points.push(obj),
            "counter" => {
                if let (Some(name), Some(value)) = (
                    obj.get("name").and_then(Json::as_str),
                    obj.get("value").and_then(Json::as_u64),
                ) {
                    data.counters.insert(name.to_string(), value);
                }
            }
            "gauge" => {
                if let (Some(name), Some(value)) = (
                    obj.get("name").and_then(Json::as_str),
                    obj.get("value").and_then(Json::as_f64),
                ) {
                    data.gauges.insert(name.to_string(), value);
                }
            }
            "histogram" => {
                if let Some(name) = obj.get("name").and_then(Json::as_str) {
                    data.histograms.insert(name.to_string(), obj.clone());
                }
            }
            // golden.done / ladder.done / injection.trace / log lines
            // carry detail the report summarises from the aggregate
            // metrics instead.
            _ => {}
        }
    }
    Ok(data)
}

/// Sums all counters whose base name (before any `{label}`) matches.
fn counter_sum(data: &RunData, base: &str) -> u64 {
    data.counters
        .iter()
        .filter(|(k, _)| split_label(k).0 == base)
        .map(|(_, v)| *v)
        .sum()
}

/// The labelled buckets of one counter family, in label order.
fn counter_labels(data: &RunData, base: &str) -> Vec<(String, u64)> {
    data.counters
        .iter()
        .filter_map(|(k, v)| {
            let (b, label) = split_label(k);
            (b == base).then(|| (label.unwrap_or("-").to_string(), *v))
        })
        .collect()
}

/// One labelled counter value, by exact label.
fn counter_at(data: &RunData, base: &str, key: &str, label: &str) -> u64 {
    data.counters
        .get(&format!("{base}{{{key}=\"{label}\"}}"))
        .copied()
        .unwrap_or(0)
}

/// The labelled buckets of one gauge family, in label order.
fn gauge_labels(data: &RunData, base: &str) -> Vec<(String, f64)> {
    data.gauges
        .iter()
        .filter_map(|(k, v)| {
            let (b, label) = split_label(k);
            (b == base).then(|| (label.unwrap_or("-").to_string(), *v))
        })
        .collect()
}

fn hist_field(data: &RunData, name: &str, field: &str) -> Option<f64> {
    data.histograms
        .get(name)
        .and_then(|h| h.get(field))
        .and_then(Json::as_f64)
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} us", s * 1e6)
    }
}

/// Division that can never leak `NaN` or `inf` into the rendered
/// report. Metrics from an empty, truncated or zero-injection campaign
/// produce zero denominators everywhere a share or rate is computed;
/// those render as 0 rather than poisoning the markdown.
fn ratio(num: f64, den: f64) -> f64 {
    let r = num / den;
    if r.is_finite() {
        r
    } else {
        0.0
    }
}

fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Human label of a log2 latency bucket: bucket `b` covers
/// `[2^(b-1), 2^b)` cycles (bucket 0 is exactly 0 cycles).
fn bucket_label(b: u32) -> String {
    match b {
        0 => "0".into(),
        1 => "1".into(),
        _ => format!("{}..{}", 1u128 << (b - 1), (1u128 << b) - 1),
    }
}

/// Renders one log2-bucket histogram as a markdown table with `#` bars.
fn log2_hist_table(w: &mut impl Write, caption: &str, rows: &[(String, u64)]) -> fmt::Result {
    let peak = rows.iter().map(|(_, n)| *n).max().unwrap_or(0).max(1);
    writeln!(w, "| {caption} (cycles) | injections | |")?;
    writeln!(w, "|---|---:|:---|")?;
    for (label, n) in rows {
        let b: u32 = label.parse().unwrap_or(0);
        writeln!(
            w,
            "| {} | {} | `{}` |",
            bucket_label(b),
            n,
            crate::bar(ratio(*n as f64, peak as f64), 20)
        )?;
    }
    writeln!(w)
}

/// Renders one attribution heatmap (RF word regions or LDS banks): SDC
/// rate per cell with a `#` heat bar scaled to the hottest cell.
fn heatmap_table(
    w: &mut impl Write,
    data: &RunData,
    cell: &str,
    inj_base: &str,
    sdc_base: &str,
    key: &str,
) -> fmt::Result {
    let cells = counter_labels(data, inj_base);
    let rates: Vec<(String, u64, u64, f64)> = cells
        .into_iter()
        .map(|(label, inj)| {
            let sdc = counter_at(data, sdc_base, key, &label);
            let rate = ratio(sdc as f64, inj as f64);
            (label, inj, sdc, rate)
        })
        .collect();
    let peak = rates.iter().map(|r| r.3).fold(0.0f64, f64::max).max(1e-12);
    writeln!(w, "| {cell} | injections | SDC | SDC rate | |")?;
    writeln!(w, "|---|---:|---:|---:|:---|")?;
    for (label, inj, sdc, rate) in rates {
        writeln!(
            w,
            "| {} | {} | {} | {:.1}% | `{}` |",
            label.trim_start_matches('0').parse::<u64>().unwrap_or(0),
            inj,
            sdc,
            rate * 100.0,
            crate::bar(ratio(rate, peak), 20)
        )?;
    }
    writeln!(w)
}

/// Renders the markdown run report for a `--metrics` JSONL file.
///
/// Fails with a line-numbered message if any line is not valid JSON or
/// is not an event object, and with a clear error if no line carries a
/// recognized telemetry event — so a truncated, corrupted or wrong file
/// is reported instead of silently summarised as an empty report.
///
/// # Example
/// ```
/// let jsonl = r#"{"event":"run.meta","command":"all","injections":50}
/// {"event":"counter","name":"campaign_injections_total{outcome=\"masked\"}","value":40}"#;
/// let md = grel_bench::report::render_run_report(jsonl).unwrap();
/// assert!(md.starts_with("# Run report"));
/// ```
pub fn render_run_report(text: &str) -> Result<String, String> {
    let data = parse_lines(text)?;
    if data.recognized == 0 {
        return Err(
            "no recognized telemetry events in input (expected run.meta, campaign.done, \
             counter, … — is this a --metrics JSONL file?)"
                .into(),
        );
    }
    let mut out = String::new();
    render_body(&data, &mut out).map_err(|e| format!("formatting report: {e}"))?;
    Ok(out)
}

/// Writes the report body to any [`fmt::Write`] sink, propagating write
/// failures instead of unwrapping (a `String` sink cannot fail, but a
/// bounded or instrumented sink can).
fn render_body(data: &RunData, w: &mut impl Write) -> fmt::Result {
    writeln!(w, "# Run report")?;
    writeln!(w)?;

    if let Some(meta) = &data.meta {
        let get_u = |k: &str| meta.get(k).and_then(Json::as_u64);
        let get_s = |k: &str| meta.get(k).and_then(Json::as_str).unwrap_or("?");
        writeln!(
            w,
            "`repro {}` — {} injections/structure, seed {}, {} threads, \
             {} device(s) x {} workload(s), {} scale",
            get_s("command"),
            get_u("injections").unwrap_or(0),
            get_u("seed").unwrap_or(0),
            get_u("threads").unwrap_or(0),
            get_u("devices").unwrap_or(0),
            get_u("workloads").unwrap_or(0),
            get_s("scale"),
        )?;
        writeln!(w)?;
    }

    // -- Outcome totals ------------------------------------------------
    let mut outcomes = counter_labels(data, "campaign_injections_total");
    // Tally order (masked, sdc, due), not BTreeMap alphabetical order.
    outcomes.sort_by_key(|(label, _)| {
        label
            .parse::<Outcome>()
            .ok()
            .and_then(|o| Outcome::ALL.iter().position(|x| *x == o))
            .unwrap_or(usize::MAX)
    });
    let total_inj = counter_sum(data, "campaign_injections_total");
    if !outcomes.is_empty() {
        writeln!(w, "## Outcomes")?;
        writeln!(w)?;
        writeln!(w, "| outcome | injections | share |")?;
        writeln!(w, "|---|---:|---:|")?;
        for (label, count) in &outcomes {
            writeln!(
                w,
                "| {label} | {count} | {:.1}% |",
                ratio(*count as f64, total_inj as f64) * 100.0
            )?;
        }
        writeln!(w, "| **total** | **{total_inj}** | 100.0% |")?;
        writeln!(w)?;
    }
    if !data.campaigns.is_empty() {
        writeln!(w, "### Per campaign")?;
        writeln!(w)?;
        writeln!(
            w,
            "| workload | device | structure | model | masked | SDC | DUE | hang | AVF | inj/s |"
        )?;
        writeln!(w, "|---|---|---|---|---:|---:|---:|---:|---:|---:|")?;
        for c in &data.campaigns {
            let s = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
            let u = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
            let f = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            writeln!(
                w,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {:.1}% | {:.0} |",
                s("workload"),
                s("device"),
                s("structure"),
                c.get("fault_kind")
                    .and_then(Json::as_str)
                    .unwrap_or("transient"),
                u(Outcome::Masked.as_str()),
                u(Outcome::Sdc.as_str()),
                u(Outcome::Due.as_str()),
                u(Outcome::Hang.as_str()),
                f("avf") * 100.0,
                f("injections_per_second"),
            )?;
        }
        writeln!(w)?;
    }

    // -- Fault model ---------------------------------------------------
    let mut kinds = counter_labels(data, "campaign_injections_by_kind_total");
    let hangs = counter_sum(data, "campaign_hang_total");
    let mut causes = counter_labels(data, "provenance_cause_total");
    if !kinds.is_empty() || hangs > 0 || !causes.is_empty() {
        writeln!(w, "## Fault model")?;
        writeln!(w)?;
        if !kinds.is_empty() {
            kinds.sort_by_key(|(label, _)| {
                KIND_ORDER
                    .iter()
                    .position(|k| k == label)
                    .unwrap_or(usize::MAX)
            });
            let kind_total: u64 = kinds.iter().map(|(_, n)| *n).sum();
            writeln!(w, "| fault kind | injections | share |")?;
            writeln!(w, "|---|---:|---:|")?;
            for (label, n) in &kinds {
                writeln!(
                    w,
                    "| {label} | {n} | {:.1}% |",
                    ratio(*n as f64, kind_total as f64) * 100.0
                )?;
            }
            writeln!(w)?;
        }
        if hangs > 0 {
            writeln!(
                w,
                "- {} run(s) never terminated and were cut off by the \
                 watchdog (classified `hang`, counted as failures \
                 alongside SDC and DUE)",
                fmt_count(hangs)
            )?;
            let wd_cycles = counter_sum(data, "campaign_watchdog_cycles_total");
            if wd_cycles > 0 {
                writeln!(
                    w,
                    "- hung replays burned {} cycles before the watchdog \
                     fired (see `watchdog.fired` events for the per-kill \
                     cycle and budget)",
                    fmt_count(wd_cycles)
                )?;
            }
            writeln!(w)?;
        }
        if !causes.is_empty() {
            causes.sort_by_key(|(label, _)| {
                FailureCause::LABELS
                    .iter()
                    .position(|c| c == label)
                    .unwrap_or(usize::MAX)
            });
            writeln!(w, "| root cause | failures |")?;
            writeln!(w, "|---|---:|")?;
            for (label, n) in &causes {
                writeln!(w, "| {label} | {n} |")?;
            }
            writeln!(w)?;
        }
    }

    // -- Throughput ----------------------------------------------------
    writeln!(w, "## Throughput")?;
    writeln!(w)?;
    let campaign_secs = hist_field(data, "campaign_seconds", "sum").unwrap_or(0.0);
    if campaign_secs > 0.0 {
        writeln!(
            w,
            "- {} injections across {} campaign(s) in {} of campaign time \
             ({:.0} injections/sec overall)",
            fmt_count(total_inj),
            hist_field(data, "campaign_seconds", "count").unwrap_or(0.0) as u64,
            fmt_secs(campaign_secs),
            ratio(total_inj as f64, campaign_secs),
        )?;
    }
    if let Some(golden) = hist_field(data, "campaign_golden_seconds", "sum") {
        writeln!(
            w,
            "- golden runs: {} in {}",
            hist_field(data, "campaign_golden_seconds", "count").unwrap_or(0.0) as u64,
            fmt_secs(golden)
        )?;
    }
    if let Some(ladder) = hist_field(data, "ladder_build_seconds", "sum") {
        writeln!(
            w,
            "- checkpoint ladders: {} built in {}",
            hist_field(data, "ladder_build_seconds", "count").unwrap_or(0.0) as u64,
            fmt_secs(ladder)
        )?;
    }
    let instructions = counter_sum(data, "sim_instructions_total");
    if instructions > 0 {
        writeln!(
            w,
            "- {} warp instructions simulated",
            fmt_count(instructions)
        )?;
    }
    writeln!(w)?;

    // -- Parallel workers ----------------------------------------------
    let worker_inj = counter_labels(data, "campaign_worker_injections_total");
    if !worker_inj.is_empty() {
        writeln!(w, "## Parallel workers")?;
        writeln!(w)?;
        if let Some(jobs) = data.gauges.get("campaign_workers") {
            writeln!(
                w,
                "- {} replay worker(s) per campaign (`--jobs`); outcomes \
                 are bit-identical at any job count",
                *jobs as u64
            )?;
            writeln!(w)?;
        }
        let rates = gauge_labels(data, "campaign_worker_injections_per_second");
        writeln!(w, "| worker | injections | inj/s |")?;
        writeln!(w, "|---|---:|---:|")?;
        let mut sorted = worker_inj;
        sorted.sort_by_key(|(label, _)| label.parse::<u64>().unwrap_or(u64::MAX));
        for (label, count) in sorted {
            let rate = rates
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, r)| format!("{r:.0}"))
                .unwrap_or_else(|| "-".into());
            writeln!(w, "| {label} | {count} | {rate} |")?;
        }
        writeln!(w)?;
    }

    // -- Oracle pruning ------------------------------------------------
    let pruned = counter_sum(data, "campaign_pruned_total");
    if pruned > 0 {
        writeln!(w, "## Oracle pruning")?;
        writeln!(w)?;
        writeln!(
            w,
            "- {} of {} injection(s) ({:.1}%) pre-classified masked by the \
             lifetime oracle — the flipped word was dead at the fault \
             cycle, so no replay ran",
            fmt_count(pruned),
            fmt_count(total_inj),
            ratio(pruned as f64, total_inj as f64) * 100.0
        )?;
        writeln!(w)?;
    }

    // -- Sampling ------------------------------------------------------
    if !data.rounds.is_empty() {
        writeln!(w, "## Sampling")?;
        writeln!(w)?;
        writeln!(
            w,
            "Adaptive stratified campaigns: each row is one campaign's \
             final allocation round (round 0 is the pilot)."
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "| workload | device | structure | rounds | sampled | replayed | margin | target | converged |"
        )?;
        writeln!(w, "|---|---|---|---:|---:|---:|---:|---:|---|")?;
        // The last round per campaign key carries the totals.
        let key = |o: &Json| {
            ["workload", "device", "structure", "fault_kind"].map(|k| {
                o.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            })
        };
        let mut finals: Vec<&Json> = Vec::new();
        for r in &data.rounds {
            let k = key(r);
            match finals.iter_mut().find(|o| key(o) == k) {
                Some(slot) => *slot = r,
                None => finals.push(r),
            }
        }
        for r in finals {
            let s = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
            let u = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
            let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            writeln!(
                w,
                "| {} | {} | {} | {} | {} | {} | {:.2}% | {:.2}% | {} |",
                s("workload"),
                s("device"),
                s("structure"),
                u("round") + 1,
                u("sampled"),
                u("replayed"),
                f("margin") * 100.0,
                f("target_margin") * 100.0,
                if matches!(r.get("converged"), Some(Json::Bool(true))) {
                    "yes"
                } else {
                    "no"
                },
            )?;
        }
        writeln!(w)?;
        for c in &data.strata_finals {
            let s = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
            writeln!(
                w,
                "### Strata: {} / {} / {}",
                s("workload"),
                s("device"),
                s("structure")
            )?;
            writeln!(w)?;
            writeln!(w, "| stratum | seen | planned | progress |")?;
            writeln!(w, "|---|---:|---:|---:|")?;
            for st in c.get("strata").and_then(Json::as_arr).unwrap_or(&[]) {
                let label = st.get("label").and_then(Json::as_str).unwrap_or("?");
                let seen = st.get("seen").and_then(Json::as_u64).unwrap_or(0);
                let planned = st.get("planned").and_then(Json::as_u64).unwrap_or(0);
                writeln!(
                    w,
                    "| {label} | {seen} | {planned} | {:.0}% |",
                    ratio(seen as f64, planned as f64) * 100.0
                )?;
            }
            writeln!(w)?;
        }
    }

    // -- Checkpoint savings --------------------------------------------
    let replayed = counter_sum(data, "campaign_cycles_replayed_total");
    let saved = counter_sum(data, "campaign_cycles_saved_total");
    if replayed + saved > 0 {
        writeln!(w, "## Checkpoint savings")?;
        writeln!(w)?;
        writeln!(
            w,
            "- {} of {} replay cycles skipped ({:.1}%) via checkpoints, \
             oracle pruning and batching",
            fmt_count(saved),
            fmt_count(replayed + saved),
            ratio(saved as f64, (replayed + saved) as f64) * 100.0
        )?;
        let snapshots = counter_sum(data, "sim_snapshots_total");
        let bytes = counter_sum(data, "sim_snapshot_bytes_total");
        if snapshots > 0 {
            writeln!(
                w,
                "- {snapshots} snapshots taken ({:.1} MiB), {} restores",
                bytes as f64 / (1024.0 * 1024.0),
                fmt_count(counter_sum(data, "sim_restores_total")),
            )?;
        }
        let rungs = counter_labels(data, "campaign_rung_hits_total");
        if !rungs.is_empty() {
            writeln!(w)?;
            writeln!(w, "| rung | hits |")?;
            writeln!(w, "|---|---:|")?;
            let mut sorted = rungs;
            sorted.sort_by_key(|(label, _)| label.parse::<u64>().unwrap_or(u64::MAX));
            for (label, hits) in sorted {
                writeln!(w, "| {label} | {hits} |")?;
            }
        }
        writeln!(w)?;
    }

    // -- Propagation (provenance) --------------------------------------
    let mut masking = counter_labels(data, "provenance_masking_total");
    let div_hist = counter_labels(data, "provenance_divergence_cycles_total");
    let read_hist = counter_labels(data, "provenance_first_read_cycles_total");
    if !masking.is_empty() || !div_hist.is_empty() || !read_hist.is_empty() {
        writeln!(w, "## Propagation")?;
        writeln!(w)?;
        let taint = counter_sum(data, "provenance_taint_words_total");
        if taint > 0 && total_inj > 0 {
            writeln!(
                w,
                "- mean taint breadth {:.1} word(s) per injection",
                ratio(taint as f64, total_inj as f64)
            )?;
        }
        let saturated = counter_sum(data, "provenance_taint_saturated_total");
        if saturated > 0 {
            writeln!(w, "- {saturated} injection(s) saturated the taint cap")?;
        }
        if !masking.is_empty() {
            masking.sort_by_key(|(label, _)| {
                MaskingReason::ALL
                    .iter()
                    .position(|m| m.as_str() == label)
                    .unwrap_or(usize::MAX)
            });
            let masked_total: u64 = masking.iter().map(|(_, n)| *n).sum();
            writeln!(w)?;
            writeln!(w, "| masking reason | masked runs | share |")?;
            writeln!(w, "|---|---:|---:|")?;
            for (label, n) in &masking {
                writeln!(
                    w,
                    "| {label} | {n} | {:.1}% |",
                    ratio(*n as f64, masked_total as f64) * 100.0
                )?;
            }
            writeln!(w)?;
        }
        if !read_hist.is_empty() {
            log2_hist_table(w, "first-read latency", &read_hist)?;
        }
        if !div_hist.is_empty() {
            log2_hist_table(w, "cycles to divergence", &div_hist)?;
        }
    }

    // -- Attribution heatmap -------------------------------------------
    let rf_cells = counter_labels(data, "provenance_rf_region_injections_total");
    let lds_cells = counter_labels(data, "provenance_lds_bank_injections_total");
    if !rf_cells.is_empty() || !lds_cells.is_empty() {
        writeln!(w, "## Attribution heatmap")?;
        writeln!(w)?;
        if !rf_cells.is_empty() {
            writeln!(w, "SDC rate per register-file word region:")?;
            writeln!(w)?;
            heatmap_table(
                w,
                data,
                "RF region",
                "provenance_rf_region_injections_total",
                "provenance_rf_region_sdc_total",
                "region",
            )?;
        }
        if !lds_cells.is_empty() {
            writeln!(w, "SDC rate per LDS bank:")?;
            writeln!(w)?;
            heatmap_table(
                w,
                data,
                "LDS bank",
                "provenance_lds_bank_injections_total",
                "provenance_lds_bank_sdc_total",
                "bank",
            )?;
        }
    }

    // -- Top time sinks ------------------------------------------------
    if !data.points.is_empty() {
        writeln!(w, "## Top time sinks")?;
        writeln!(w)?;
        let total: f64 = data
            .points
            .iter()
            .filter_map(|p| p.get("seconds").and_then(Json::as_f64))
            .sum();
        let mut points: Vec<&Json> = data.points.iter().collect();
        points.sort_by(|a, b| {
            let sa = a.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
            let sb = b.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
        });
        writeln!(w, "| workload | device | time | share |")?;
        writeln!(w, "|---|---|---:|---:|")?;
        for p in points.iter().take(10) {
            let secs = p.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
            writeln!(
                w,
                "| {} | {} | {} | {:.1}% |",
                p.get("workload").and_then(Json::as_str).unwrap_or("?"),
                p.get("device").and_then(Json::as_str).unwrap_or("?"),
                fmt_secs(secs),
                ratio(secs, total) * 100.0
            )?;
        }
        if points.len() > 10 {
            writeln!(w, "| … {} more | | | |", points.len() - 10)?;
        }
        writeln!(w)?;
    }

    // -- Injection latency ---------------------------------------------
    if data.histograms.contains_key("campaign_injection_seconds") {
        let f = |field: &str| hist_field(data, "campaign_injection_seconds", field);
        writeln!(w, "## Injection latency")?;
        writeln!(w)?;
        writeln!(w, "| count | mean | p50 | p90 | p99 | max |")?;
        writeln!(w, "|---:|---:|---:|---:|---:|---:|")?;
        writeln!(
            w,
            "| {} | {} | {} | {} | {} | {} |",
            f("count").unwrap_or(0.0) as u64,
            fmt_secs(f("mean").unwrap_or(0.0)),
            fmt_secs(f("p50").unwrap_or(0.0)),
            fmt_secs(f("p90").unwrap_or(0.0)),
            fmt_secs(f("p99").unwrap_or(0.0)),
            fmt_secs(f("max").unwrap_or(0.0)),
        )?;
        writeln!(w)?;
    }

    // -- Profile (span-traced runs only) -------------------------------
    let worker_busy = counter_labels(data, "campaign_worker_busy_us_total");
    let outcome_order: Vec<&str> = Outcome::ALL.iter().map(|o| o.as_str()).collect();
    let (lat_cols, lat_rows) = latency_matrix(
        data,
        "campaign_injection_latency_us_total",
        "outcome",
        &outcome_order,
    );
    let (kind_cols, kind_rows) = latency_matrix(
        data,
        "campaign_injection_latency_by_kind_us_total",
        "kind",
        &KIND_ORDER,
    );
    if !worker_busy.is_empty() || !lat_rows.is_empty() || !kind_rows.is_empty() {
        writeln!(w, "## Profile")?;
        writeln!(w)?;
        // Phase breakdown out of the wall-time histograms: the serial
        // golden and ladder phases versus the replay fan-out, over the
        // summed study-point time.
        let total = hist_field(data, "study_point_seconds", "sum").unwrap_or(0.0);
        let phases = [
            (
                "golden + oracle capture",
                hist_field(data, "campaign_golden_seconds", "sum").unwrap_or(0.0),
            ),
            (
                "checkpoint ladder builds",
                hist_field(data, "ladder_build_seconds", "sum").unwrap_or(0.0),
            ),
            (
                "injection campaigns",
                hist_field(data, "campaign_seconds", "sum").unwrap_or(0.0),
            ),
        ];
        if total > 0.0 {
            let accounted: f64 = phases.iter().map(|(_, s)| s).sum();
            writeln!(w, "| phase | time | share | |")?;
            writeln!(w, "|---|---:|---:|:---|")?;
            for (name, secs) in phases {
                if secs <= 0.0 {
                    continue;
                }
                writeln!(
                    w,
                    "| {name} | {} | {:.1}% | `{}` |",
                    fmt_secs(secs),
                    secs / total * 100.0,
                    crate::bar(secs / total, 20)
                )?;
            }
            let other = (total - accounted).max(0.0);
            writeln!(
                w,
                "| other (ACE analysis, assembly) | {} | {:.1}% | `{}` |",
                fmt_secs(other),
                other / total * 100.0,
                crate::bar(other / total, 20)
            )?;
            writeln!(
                w,
                "| **total study points** | **{}** | 100.0% | |",
                fmt_secs(total)
            )?;
            writeln!(w)?;
        }
        if !worker_busy.is_empty() {
            writeln!(w, "### Worker utilization")?;
            writeln!(w)?;
            writeln!(w, "| worker | busy | alive | utilization | |")?;
            writeln!(w, "|---|---:|---:|---:|:---|")?;
            let mut sorted = worker_busy;
            sorted.sort_by_key(|(label, _)| label.parse::<u64>().unwrap_or(u64::MAX));
            for (label, busy) in sorted {
                let alive = counter_at(data, "campaign_worker_us_total", "worker", &label);
                let util = ratio(busy as f64, alive as f64);
                writeln!(
                    w,
                    "| {label} | {} | {} | {:.1}% | `{}` |",
                    fmt_secs(busy as f64 / 1e6),
                    fmt_secs(alive as f64 / 1e6),
                    util * 100.0,
                    crate::bar(util, 20)
                )?;
            }
            writeln!(w)?;
        }
        for (caption, cols, rows) in [
            ("by outcome", lat_cols, lat_rows),
            ("by fault kind", kind_cols, kind_rows),
        ] {
            if rows.is_empty() {
                continue;
            }
            writeln!(
                w,
                "### Replay wall time {caption} (log2-µs latency buckets)"
            )?;
            writeln!(w)?;
            write!(w, "| latency (us) |")?;
            for c in &cols {
                write!(w, " {c} |")?;
            }
            writeln!(w)?;
            write!(w, "|---|")?;
            for _ in &cols {
                write!(w, "---:|")?;
            }
            writeln!(w)?;
            for (bucket, cells) in &rows {
                write!(w, "| {} |", us_bucket_label(*bucket))?;
                for us in cells {
                    if *us == 0 {
                        write!(w, " - |")?;
                    } else {
                        write!(w, " {} |", fmt_secs(*us as f64 / 1e6))?;
                    }
                }
                writeln!(w)?;
            }
            writeln!(w)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        [
            r#"{"event":"run.meta","t_ms":0,"command":"all","injections":12,"seed":7,"threads":2,"devices":1,"workloads":1,"scale":"smoke"}"#,
            r#"{"event":"campaign.done","t_ms":5,"workload":"vectoradd","device":"GTX 480","structure":"RF","injections":12,"masked":9,"sdc":2,"due":1,"avf":0.25,"golden_cycles":900,"ladder_rungs":3,"seconds":0.5,"injections_per_second":24.0}"#,
            r#"{"event":"study.point","t_ms":6,"workload":"vectoradd","device":"GTX 480","cycles":900,"rf_avf":0.25,"lds_avf":0.0,"epf":1000.0,"seconds":0.6}"#,
            r#"{"event":"counter","name":"campaign_injections_total{outcome=\"masked\"}","value":9}"#,
            r#"{"event":"counter","name":"campaign_injections_total{outcome=\"sdc\"}","value":2}"#,
            r#"{"event":"counter","name":"campaign_injections_total{outcome=\"due\"}","value":1}"#,
            r#"{"event":"counter","name":"campaign_rung_hits_total{rung=\"0\"}","value":8}"#,
            r#"{"event":"counter","name":"campaign_rung_hits_total{rung=\"none\"}","value":4}"#,
            r#"{"event":"counter","name":"campaign_worker_injections_total{worker=\"0\"}","value":7}"#,
            r#"{"event":"counter","name":"campaign_worker_injections_total{worker=\"1\"}","value":5}"#,
            r#"{"event":"gauge","name":"campaign_workers","value":2.0}"#,
            r#"{"event":"gauge","name":"campaign_worker_injections_per_second{worker=\"0\"}","value":14.0}"#,
            r#"{"event":"gauge","name":"campaign_worker_injections_per_second{worker=\"1\"}","value":10.0}"#,
            r#"{"event":"counter","name":"campaign_cycles_replayed_total","value":400}"#,
            r#"{"event":"counter","name":"campaign_cycles_saved_total","value":600}"#,
            r#"{"event":"counter","name":"sim_snapshots_total","value":3}"#,
            r#"{"event":"counter","name":"sim_snapshot_bytes_total","value":1048576}"#,
            r#"{"event":"histogram","name":"campaign_seconds","count":1,"sum":0.5,"mean":0.5,"min":0.5,"max":0.5,"p50":0.5,"p90":0.5,"p99":0.5}"#,
            r#"{"event":"histogram","name":"campaign_injection_seconds","count":12,"sum":0.36,"mean":0.03,"min":0.01,"max":0.09,"p50":0.03,"p90":0.07,"p99":0.09}"#,
        ]
        .join("\n")
    }

    fn provenance_sample() -> String {
        [
            sample().as_str(),
            r#"{"event":"injection.trace","t_ms":4,"workload":"vectoradd","device":"GTX 480","structure":"register file","sm":0,"word":3,"bit":7,"cycle":120,"outcome":"sdc","first_read_latency":9,"cycles_to_divergence":40,"taint_words":3,"taint_saturated":false,"lds_banks":0}"#,
            r#"{"event":"counter","name":"provenance_masking_total{reason=\"never-read\"}","value":6}"#,
            r#"{"event":"counter","name":"provenance_masking_total{reason=\"overwritten\"}","value":3}"#,
            r#"{"event":"counter","name":"provenance_divergence_cycles_total{bucket=\"06\"}","value":2}"#,
            r#"{"event":"counter","name":"provenance_first_read_cycles_total{bucket=\"04\"}","value":3}"#,
            r#"{"event":"counter","name":"provenance_rf_region_injections_total{region=\"00\"}","value":8}"#,
            r#"{"event":"counter","name":"provenance_rf_region_sdc_total{region=\"00\"}","value":2}"#,
            r#"{"event":"counter","name":"provenance_rf_region_injections_total{region=\"15\"}","value":4}"#,
            r#"{"event":"counter","name":"provenance_lds_bank_injections_total{bank=\"05\"}","value":4}"#,
            r#"{"event":"counter","name":"provenance_lds_bank_sdc_total{bank=\"05\"}","value":4}"#,
            r#"{"event":"counter","name":"provenance_taint_words_total","value":36}"#,
        ]
        .join("\n")
    }

    fn sampling_sample() -> String {
        [
            sample().as_str(),
            r#"{"event":"campaign.round","t_ms":5,"workload":"vectoradd","device":"GTX 480","structure":"register file","fault_kind":"transient","round":0,"sampled":64,"replayed":64,"avf":0.05,"margin":0.031,"target_margin":0.0288,"converged":false}"#,
            r#"{"event":"campaign.round","t_ms":6,"workload":"vectoradd","device":"GTX 480","structure":"register file","fault_kind":"transient","round":1,"sampled":92,"replayed":92,"avf":0.048,"margin":0.021,"target_margin":0.0288,"converged":true}"#,
            r#"{"event":"campaign.convergence","t_ms":6,"workload":"vectoradd","device":"GTX 480","structure":"register file","fault_kind":"transient","seen":92,"planned":92,"masked":80,"sdc":8,"due":3,"hang":1,"avf":0.048,"margin99":0.021,"lo":0.027,"hi":0.069,"target_margin":0.0288,"projected_total":92,"projected_remaining":0,"converged":true,"strata":[{"label":"live/c0/b0","seen":12,"planned":12},{"label":"dead","seen":8,"planned":8}]}"#,
        ]
        .join("\n")
    }

    #[test]
    fn renders_sampling_section() {
        let md = render_run_report(&sampling_sample()).unwrap();
        assert!(md.contains("## Sampling"), "{md}");
        // The table row carries the *last* round's totals.
        assert!(
            md.contains(
                "| vectoradd | GTX 480 | register file | 2 | 92 | 92 | 2.10% | 2.88% | yes |"
            ),
            "{md}"
        );
        assert!(
            md.contains("### Strata: vectoradd / GTX 480 / register file"),
            "{md}"
        );
        assert!(md.contains("| live/c0/b0 | 12 | 12 | 100% |"), "{md}");
        assert!(md.contains("| dead | 8 | 8 | 100% |"), "{md}");
    }

    #[test]
    fn sampling_section_absent_without_round_events() {
        let md = render_run_report(&sample()).unwrap();
        assert!(
            !md.contains("## Sampling"),
            "fixed-size campaigns emit no rounds, so no Sampling section:\n{md}"
        );
    }

    #[test]
    fn renders_every_section() {
        let md = render_run_report(&sample()).unwrap();
        assert!(md.starts_with("# Run report"));
        for section in [
            "## Outcomes",
            "### Per campaign",
            "## Throughput",
            "## Parallel workers",
            "## Checkpoint savings",
            "## Top time sinks",
            "## Injection latency",
        ] {
            assert!(md.contains(section), "missing {section} in:\n{md}");
        }
        assert!(md.contains("| masked | 9 | 75.0% |"), "{md}");
        assert!(md.contains("| 0 | 7 | 14 |"), "{md}");
        assert!(md.contains("2 replay worker(s)"), "{md}");
        assert!(md.contains("600 of 1000 replay cycles skipped"), "{md}");
        assert!(md.contains("| vectoradd | GTX 480 |"), "{md}");
        assert!(
            !md.contains("## Propagation"),
            "no provenance metrics, no Propagation section:\n{md}"
        );
        assert!(
            !md.contains("## Oracle pruning"),
            "no pruning counters, no Oracle pruning section:\n{md}"
        );
        assert!(
            !md.contains("## Fault model"),
            "pre-taxonomy files carry no kind counters, so no Fault model section:\n{md}"
        );
    }

    #[test]
    fn renders_fault_model_section() {
        let jsonl = [
            sample().as_str(),
            r#"{"event":"campaign.done","t_ms":9,"workload":"reduction","device":"GTX 480","structure":"RF","fault_kind":"stuck0","injections":8,"masked":4,"sdc":1,"due":1,"hang":2,"avf":0.5,"golden_cycles":900,"ladder_rungs":3,"seconds":0.4,"injections_per_second":20.0}"#,
            r#"{"event":"counter","name":"campaign_injections_by_kind_total{kind=\"stuck0\"}","value":8}"#,
            r#"{"event":"counter","name":"campaign_injections_by_kind_total{kind=\"transient\"}","value":12}"#,
            r#"{"event":"counter","name":"campaign_injections_by_kind_total{kind=\"ctrl-barrier\"}","value":4}"#,
            r#"{"event":"counter","name":"campaign_hang_total","value":2}"#,
            r#"{"event":"counter","name":"provenance_cause_total{cause=\"deadlock\"}","value":2}"#,
            r#"{"event":"counter","name":"provenance_cause_total{cause=\"stuck-reassert\"}","value":1}"#,
        ]
        .join("\n");
        let md = render_run_report(&jsonl).unwrap();
        assert!(md.contains("## Fault model"), "{md}");
        // Kinds keep taxonomy order, not alphabetical order.
        let transient = md.find("| transient | 12 | 50.0% |").unwrap();
        let stuck0 = md.find("| stuck0 | 8 | 33.3% |").unwrap();
        let barrier = md.find("| ctrl-barrier | 4 | 16.7% |").unwrap();
        assert!(transient < stuck0 && stuck0 < barrier, "{md}");
        assert!(md.contains("2 run(s) never terminated"), "{md}");
        // Causes keep FailureCause::LABELS order: stuck-reassert first.
        let reassert = md.find("| stuck-reassert | 1 |").unwrap();
        let deadlock = md.find("| deadlock | 2 |").unwrap();
        assert!(reassert < deadlock, "{md}");
        // The stuck0 campaign row carries its fault kind and hang count.
        assert!(
            md.contains("| reduction | GTX 480 | RF | stuck0 | 4 | 1 | 1 | 2 | 50.0% | 20 |"),
            "{md}"
        );
        // Pre-taxonomy campaign.done lines default to transient, hang 0.
        assert!(
            md.contains("| vectoradd | GTX 480 | RF | transient | 9 | 2 | 1 | 0 | 25.0% | 24 |"),
            "{md}"
        );
    }

    #[test]
    fn renders_oracle_pruning_section() {
        let jsonl = [
            sample().as_str(),
            r#"{"event":"counter","name":"campaign_pruned_total","value":5}"#,
            r#"{"event":"counter","name":"campaign_rung_hits_total{rung=\"pruned\"}","value":5}"#,
        ]
        .join("\n");
        let md = render_run_report(&jsonl).unwrap();
        assert!(md.contains("## Oracle pruning"), "{md}");
        assert!(md.contains("5 of 12 injection(s) (41.7%)"), "{md}");
        // The synthetic "pruned" rung shows up in the rung table.
        assert!(md.contains("| pruned | 5 |"), "{md}");
    }

    #[test]
    fn outcome_rows_follow_tally_order() {
        let md = render_run_report(&sample()).unwrap();
        let masked = md.find("| masked | 9").unwrap();
        let sdc = md.find("| sdc | 2").unwrap();
        let due = md.find("| due | 1").unwrap();
        assert!(masked < sdc && sdc < due, "{md}");
    }

    #[test]
    fn renders_propagation_and_heatmap_sections() {
        let md = render_run_report(&provenance_sample()).unwrap();
        assert!(md.contains("## Propagation"), "{md}");
        assert!(md.contains("## Attribution heatmap"), "{md}");
        assert!(md.contains("| never-read | 6 |"), "{md}");
        // Masking reasons keep their reporting order: overwritten first.
        let over = md.find("| overwritten | 3").unwrap();
        let never = md.find("| never-read | 6").unwrap();
        assert!(over < never, "{md}");
        // Bucket 6 covers 32..63 cycles; bucket 4 covers 8..15.
        assert!(md.contains("| 32..63 | 2 |"), "{md}");
        assert!(md.contains("| 8..15 | 3 |"), "{md}");
        // RF region 0: 2/8 SDC; the LDS bank runs 4/4 and owns the
        // full-scale heat bar.
        assert!(md.contains("| 0 | 8 | 2 | 25.0% |"), "{md}");
        assert!(
            md.contains("| 5 | 4 | 4 | 100.0% | `####################` |"),
            "{md}"
        );
        assert!(md.contains("mean taint breadth 3.0 word(s)"), "{md}");
    }

    #[test]
    fn renders_profile_section_for_span_traced_runs() {
        let jsonl = [
            sample().as_str(),
            r#"{"event":"watchdog.fired","t_ms":7,"workload":"reduction","device":"GTX 480","kind":"ctrl-barrier","cycle":4500,"budget":5000,"golden_cycles":900}"#,
            r#"{"event":"counter","name":"campaign_hang_total","value":1}"#,
            r#"{"event":"counter","name":"campaign_injections_by_kind_total{kind=\"transient\"}","value":12}"#,
            r#"{"event":"counter","name":"campaign_watchdog_cycles_total","value":4500}"#,
            r#"{"event":"counter","name":"campaign_worker_busy_us_total{worker=\"0\"}","value":900000}"#,
            r#"{"event":"counter","name":"campaign_worker_us_total{worker=\"0\"}","value":1000000}"#,
            r#"{"event":"counter","name":"campaign_injection_latency_us_total{outcome=\"sdc\",bucket=\"10\"}","value":2048}"#,
            r#"{"event":"counter","name":"campaign_injection_latency_us_total{outcome=\"masked\",bucket=\"09\"}","value":1024}"#,
            r#"{"event":"counter","name":"campaign_injection_latency_by_kind_us_total{kind=\"transient\",bucket=\"10\"}","value":3072}"#,
            r#"{"event":"histogram","name":"study_point_seconds","count":1,"sum":2.0,"mean":2.0,"min":2.0,"max":2.0,"p50":2.0,"p90":2.0,"p99":2.0}"#,
        ]
        .join("\n");
        let md = render_run_report(&jsonl).unwrap();
        assert!(md.contains("## Profile"), "{md}");
        // Phase shares come from the wall-time histograms over the
        // summed study-point time (campaign_seconds 0.5 s of 2.0 s).
        assert!(
            md.contains("| injection campaigns | 500.00 ms | 25.0% |"),
            "{md}"
        );
        assert!(
            md.contains("| **total study points** | **2.00 s** | 100.0% | |"),
            "{md}"
        );
        // Worker 0: 0.9 s busy of 1.0 s alive.
        assert!(md.contains("### Worker utilization"), "{md}");
        assert!(md.contains("| 0 | 900.00 ms | 1.00 s | 90.0% |"), "{md}");
        // Latency matrices keep tally column order (masked before sdc)
        // and log2 bucket rows; empty cells render as `-`.
        assert!(md.contains("| latency (us) | masked | sdc |"), "{md}");
        assert!(md.contains("| 512..1023 | 1.02 ms | - |"), "{md}");
        assert!(md.contains("| 1024..2047 | - | 2.05 ms |"), "{md}");
        assert!(md.contains("| latency (us) | transient |"), "{md}");
        assert!(md.contains("| 1024..2047 | 3.07 ms |"), "{md}");
        // The watchdog counter surfaces next to the hang bullet.
        assert!(md.contains("hung replays burned 4500 cycles"), "{md}");
    }

    #[test]
    fn plain_runs_render_no_profile_section() {
        let md = render_run_report(&sample()).unwrap();
        assert!(
            !md.contains("## Profile"),
            "no span counters, no Profile section:\n{md}"
        );
    }

    #[test]
    fn label_pairs_parse_multi_label_names() {
        assert_eq!(label_pairs("x_total"), Vec::<(&str, &str)>::new());
        assert_eq!(
            label_pairs("x_total{outcome=\"sdc\",bucket=\"07\"}"),
            vec![("outcome", "sdc"), ("bucket", "07")]
        );
    }

    #[test]
    fn us_bucket_labels_cover_edges() {
        assert_eq!(us_bucket_label(0), "<2");
        assert_eq!(us_bucket_label(1), "2..3");
        assert_eq!(us_bucket_label(10), "1024..2047");
    }

    #[test]
    fn rejects_invalid_json_with_line_number() {
        let bad = format!("{}\nnot json\n", sample().lines().next().unwrap());
        let err = render_run_report(&bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn rejects_non_event_objects() {
        let err = render_run_report(r#"{"foo": 1}"#).unwrap_err();
        assert!(err.contains("no \"event\" field"), "{err}");
    }

    #[test]
    fn rejects_empty_input() {
        assert!(render_run_report("").is_err());
    }

    #[test]
    fn rejects_input_with_zero_recognized_events() {
        // Valid JSONL, but nothing the report knows how to summarise —
        // silence must be an error, not an empty report.
        let err = render_run_report(r#"{"event":"something.else","value":1}"#).unwrap_err();
        assert!(err.contains("no recognized telemetry events"), "{err}");
    }

    #[test]
    fn split_label_handles_plain_and_labelled_names() {
        assert_eq!(split_label("x_total"), ("x_total", None));
        assert_eq!(
            split_label("x_total{outcome=\"sdc\"}"),
            ("x_total", Some("sdc"))
        );
    }

    #[test]
    fn bucket_labels_cover_edges() {
        assert_eq!(bucket_label(0), "0");
        assert_eq!(bucket_label(1), "1");
        assert_eq!(bucket_label(2), "2..3");
        assert_eq!(bucket_label(11), "1024..2047");
    }

    #[test]
    fn ratio_never_leaks_non_finite_values() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, f64::NAN), 0.0);
        assert_eq!(ratio(1.0, f64::INFINITY), 0.0);
    }

    /// A metrics file from a campaign that sampled nothing — an
    /// all-dead population, an interrupted run, a zero-injection smoke
    /// invocation — has zero denominators behind every share and rate.
    /// The report must render them as 0, never as `NaN` or `inf`.
    #[test]
    fn empty_campaign_report_has_no_non_finite_artifacts() {
        let jsonl = [
            r#"{"event":"run.meta","t_ms":0,"command":"all","injections":0,"seed":7,"threads":1,"devices":1,"workloads":1,"scale":"smoke"}"#,
            r#"{"event":"campaign.done","t_ms":1,"workload":"vectoradd","device":"GTX 480","structure":"RF","injections":0,"masked":0,"sdc":0,"due":0,"avf":0.0,"golden_cycles":900,"ladder_rungs":3,"seconds":0.0,"injections_per_second":0.0}"#,
            r#"{"event":"counter","name":"campaign_injections_total{outcome=\"masked\"}","value":0}"#,
            r#"{"event":"counter","name":"campaign_injections_by_kind_total{kind=\"transient\"}","value":0}"#,
            r#"{"event":"counter","name":"campaign_pruned_total","value":0}"#,
            r#"{"event":"counter","name":"campaign_cycles_replayed_total","value":0}"#,
            r#"{"event":"counter","name":"campaign_cycles_saved_total","value":1}"#,
            r#"{"event":"counter","name":"campaign_worker_busy_us_total{worker=\"0\"}","value":5}"#,
            r#"{"event":"counter","name":"campaign_worker_us_total{worker=\"0\"}","value":0}"#,
            r#"{"event":"counter","name":"provenance_masking_total{reason=\"never-read\"}","value":0}"#,
            r#"{"event":"counter","name":"provenance_taint_words_total","value":0}"#,
            r#"{"event":"counter","name":"provenance_rf_region_injections_total{region=\"00\"}","value":0}"#,
            r#"{"event":"counter","name":"provenance_rf_region_sdc_total{region=\"00\"}","value":0}"#,
            r#"{"event":"histogram","name":"campaign_seconds","count":1,"sum":0.5,"mean":0.5,"min":0.5,"max":0.5,"p50":0.5,"p90":0.5,"p99":0.5}"#,
        ]
        .join("\n");
        let md = render_run_report(&jsonl).unwrap();
        assert!(!md.contains("NaN"), "{md}");
        assert!(!md.contains("inf"), "{md}");
        // Zero-injection shares render as an explicit 0.
        assert!(md.contains("| masked | 0 | 0.0% |"), "{md}");
    }
}
