//! The streaming convergence monitor folds the *merged* outcome stream,
//! after the runner's scatter-merge — so the `campaign.convergence`
//! event stream must be a pure function of the campaign definition:
//! byte-identical at any `--jobs`, with pruning or batching on or off,
//! and independent of every other replay fast path. These tests pin
//! that contract the same way `parallel_determinism.rs` pins tallies.

use gpu_archs::{geforce_gtx_480, quadro_fx_5600};
use gpu_workloads::{Histogram, VectorAdd};
use grel_core::campaign::{run_campaign_hooked, CampaignConfig};
use grel_telemetry::{Json, MemorySink, MetricsRegistry, RegistryHook};
use simt_sim::Structure;

/// Runs one RF campaign and returns the serialized
/// `campaign.convergence` stream, one JSON line per event.
fn convergence_stream(cfg: CampaignConfig) -> Vec<String> {
    let arch = geforce_gtx_480();
    let w = VectorAdd::new(1024, 9);
    let registry = MetricsRegistry::new();
    let sink = MemorySink::new();
    let hook = RegistryHook::with_sink(&registry, &sink);
    run_campaign_hooked(&arch, &w, Structure::VectorRegisterFile, cfg, &hook)
        .expect("campaign runs");
    sink.events()
        .iter()
        .filter(|e| e.name() == "campaign.convergence")
        .map(|e| e.to_json().to_string())
        .collect()
}

fn cfg_with(threads: usize, prune: bool, batch: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(9);
    cfg.injections = 60;
    cfg.threads = threads;
    cfg.prune = prune;
    cfg.batch = batch;
    cfg.convergence = 8;
    cfg
}

#[test]
fn convergence_stream_is_job_count_invariant() {
    let reference = convergence_stream(cfg_with(1, true, true));
    assert!(!reference.is_empty(), "cadence 8 over 60 must emit events");
    for jobs in [2usize, 8] {
        let other = convergence_stream(cfg_with(jobs, true, true));
        assert_eq!(
            reference, other,
            "campaign.convergence stream must be byte-identical at {jobs} jobs"
        );
    }
}

#[test]
fn convergence_stream_is_invariant_to_pruning_and_batching() {
    let reference = convergence_stream(cfg_with(2, true, true));
    for (prune, batch) in [(true, false), (false, false), (false, true)] {
        let other = convergence_stream(cfg_with(2, prune, batch));
        assert_eq!(
            reference, other,
            "stream must not depend on prune={prune} batch={batch}"
        );
    }
}

#[test]
fn convergence_stream_narrates_the_whole_campaign() {
    let events = convergence_stream(cfg_with(4, true, true));
    // 60 injections at cadence 8: snapshots at 8, 16, …, 56 plus the
    // final flush at 60.
    assert_eq!(events.len(), 8);
    let parsed: Vec<Json> = events
        .iter()
        .map(|line| Json::parse(line).expect("event line parses"))
        .collect();
    let seen: Vec<u64> = parsed
        .iter()
        .map(|j| j.get("seen").and_then(Json::as_u64).expect("seen field"))
        .collect();
    assert_eq!(seen, vec![8, 16, 24, 32, 40, 48, 56, 60]);
    for j in &parsed {
        assert_eq!(j.get("planned").and_then(Json::as_u64), Some(60));
        assert_eq!(j.get("structure").and_then(Json::as_str), Some("rf"));
        assert_eq!(
            j.get("fault_kind").and_then(Json::as_str),
            Some("transient")
        );
        let counts: u64 = ["masked", "sdc", "due", "hang"]
            .iter()
            .map(|k| j.get(k).and_then(Json::as_u64).expect("outcome count"))
            .sum();
        assert_eq!(counts, j.get("seen").and_then(Json::as_u64).unwrap());
    }
    // The finite-population margin tightens (never widens) as samples
    // accumulate, and the remaining-injections projection counts down.
    let margins: Vec<f64> = parsed
        .iter()
        .map(|j| j.get("margin99").and_then(Json::as_f64).expect("margin99"))
        .collect();
    assert!(
        margins.windows(2).all(|w| w[1] <= w[0]),
        "margin must shrink: {margins:?}"
    );
    let remaining: Vec<u64> = parsed
        .iter()
        .map(|j| {
            j.get("projected_remaining")
                .and_then(Json::as_u64)
                .expect("projection")
        })
        .collect();
    assert!(
        remaining.windows(2).all(|w| w[1] <= w[0]),
        "projection must count down: {remaining:?}"
    );
}

#[test]
fn zero_cadence_disables_the_stream() {
    let mut cfg = cfg_with(2, true, true);
    cfg.convergence = 0;
    assert!(convergence_stream(cfg).is_empty());
}

#[test]
fn lds_campaign_streams_under_its_own_label() {
    let arch = quadro_fx_5600();
    let w = Histogram::new(2048, 16, 5);
    let mut cfg = CampaignConfig::quick(5);
    cfg.injections = 24;
    cfg.threads = 2;
    cfg.convergence = 6;
    let registry = MetricsRegistry::new();
    let sink = MemorySink::new();
    let hook = RegistryHook::with_sink(&registry, &sink);
    run_campaign_hooked(&arch, &w, Structure::LocalMemory, cfg, &hook).expect("campaign runs");
    let events: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.name() == "campaign.convergence")
        .collect();
    assert_eq!(events.len(), 4);
    for e in &events {
        assert_eq!(e.get("structure").and_then(Json::as_str), Some("lds"));
        assert_eq!(e.get("workload").and_then(Json::as_str), Some("histogram"));
    }
}
