//! Deterministic parallel replay runner: the scoped worker pool behind
//! every fault-injection campaign.
//!
//! A campaign's injections are embarrassingly parallel — each one replays
//! the workload from the nearest checkpoint with a single bit flip armed
//! and classifies the outcome independently of every other injection.
//! The runner exploits that while keeping a hard determinism contract:
//!
//! **Campaign results are a pure function of `(arch, workload, sites,
//! cfg)` — never of the worker count or of thread scheduling.**
//!
//! The contract holds by construction:
//!
//! 1. the fault-site list is sampled up front from the seed (the runner
//!    never draws randomness);
//! 2. sites are sorted by `(fault cycle, site index)` — a deterministic
//!    total order — so neighbouring replays resume from the same ladder
//!    rung;
//! 3. the sorted order is dealt round-robin across `jobs` workers
//!    (worker `w` takes positions `w, w + jobs, w + 2·jobs, …`), which
//!    balances the expensive early-cycle replays and the cheap
//!    late-cycle ones evenly without any work-stealing;
//! 4. each worker owns its own device ([`Gpu`]) and drives its own
//!    replay [`Session`](simt_sim::Session) per injection, while the
//!    golden [`CheckpointLadder`] is shared read-only (`&` — it is
//!    immutable and `Sync`);
//! 5. every outcome is scattered back into its site's original index, so
//!    the returned vector is in **site order** regardless of which worker
//!    finished first.
//!
//! Telemetry shards per worker thread inside the
//! [`MetricsRegistry`](grel_telemetry::MetricsRegistry) and merges
//! associatively at harvest, so hooked runs observe the same totals at
//! any job count (per-worker series are labelled `worker="N"` by stripe
//! index, not by OS thread, and are therefore deterministic too).

use crate::ace::LifetimeOracle;
use crate::campaign::{
    campaign_population, classify_batch_on, classify_on, structure_label, CampaignConfig,
    CheckpointLadder, GoldenRun, Outcome, Start,
};
use crate::convergence::ConvergenceMonitor;
use gpu_workloads::Workload;
use grel_telemetry::{SpanRecord, TelemetryHook};
use simt_sim::{
    ArchConfig, Checkpoint, FaultModelKind, FaultSite, GlobalWrite, Gpu, NoopObserver, SimError,
    TraceObserver, TraceRecord, MAX_BATCH_SCENARIOS,
};
use std::ops::Range;
use std::time::Instant;

/// Everything a worker needs, shared read-only across the pool.
struct ReplayShared<'a, H> {
    arch: &'a ArchConfig,
    workload: &'a dyn Workload,
    golden: &'a GoldenRun,
    sites: &'a [FaultSite],
    /// Site indices sorted by `(fault cycle, index)`.
    order: &'a [usize],
    cfg: CampaignConfig,
    ladder: &'a CheckpointLadder,
    /// The golden run's global-store stream when replays record
    /// provenance: each replayed site then also yields its
    /// [`TraceRecord`].
    golden_writes: Option<&'a [GlobalWrite]>,
    /// `point:{workload}@{device}/campaign:{structure}` when span
    /// tracing is on — the parent path every replay span hangs off.
    /// `None` whenever `H::SPANS` is false, so the no-profile path
    /// never formats a string.
    span_prefix: Option<String>,
    hook: &'a H,
}

/// One replayed site: its index, its outcome and, on the provenance
/// path, how its corruption propagated.
type Replayed = (usize, Outcome, Option<TraceRecord>);

/// The profile prefix for a campaign's replay spans, or `None` when the
/// hook records no spans (or there is nothing to replay).
fn replay_span_prefix<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    sites: &[FaultSite],
) -> Option<String> {
    (H::SPANS && !sites.is_empty()).then(|| {
        format!(
            "point:{}@{}/campaign:{}",
            workload.name(),
            arch.name,
            structure_label(sites[0].structure)
        )
    })
}

/// Streams the merged site-order outcome vector through a
/// [`ConvergenceMonitor`], emitting `campaign.convergence` events every
/// `cfg.convergence` outcomes. Runs serially *after* the scatter-merge,
/// so the event stream is a pure function of `(sites, outcomes,
/// cadence)` and inherits the runner's determinism contract verbatim:
/// byte-identical at any job count, with pruning and batching on or
/// off. A zero cadence disables the stream.
fn stream_convergence<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    golden: &GoldenRun,
    sites: &[FaultSite],
    cfg: CampaignConfig,
    outcomes: &[Outcome],
    hook: &H,
) {
    if !H::ENABLED || cfg.convergence == 0 || sites.is_empty() {
        return;
    }
    let structure = sites[0].structure;
    let mut monitor = ConvergenceMonitor::new(
        workload.name(),
        &arch.name,
        structure,
        cfg.fault_model,
        campaign_population(arch, structure, cfg.fault_model, golden.cycles),
        sites.len() as u64,
        cfg.convergence,
    );
    for &o in outcomes {
        monitor.observe(o, hook);
    }
    monitor.finish(hook);
}

/// The `rung` label of a replay resumed from `rung` (`none` when it
/// starts from cycle zero).
fn rung_label(rung: Option<(usize, &Checkpoint)>) -> String {
    rung.map_or_else(|| "none".to_string(), |(idx, _)| idx.to_string())
}

/// Emits one replayed site's latency sample and its outcome, kind and
/// rung counters — the same accounting for scalar and batched sites.
fn record_site<H: TelemetryHook>(
    hook: &H,
    site: FaultSite,
    outcome: Outcome,
    rung: &str,
    seconds: f64,
) {
    hook.observe("campaign_injection_seconds", seconds);
    let outcome_label = outcome.as_str();
    hook.count(
        &format!("campaign_injections_total{{outcome=\"{outcome_label}\"}}"),
        1,
    );
    if outcome == Outcome::Hang {
        hook.count("campaign_hang_total", 1);
    }
    let kind_label = site.kind.as_str();
    hook.count(
        &format!("campaign_injections_by_kind_total{{kind=\"{kind_label}\"}}"),
        1,
    );
    hook.count(&format!("campaign_rung_hits_total{{rung=\"{rung}\"}}"), 1);
}

/// Records one injection's replay span at `path` plus the
/// log2-microsecond latency buckets the profile report renders, charged
/// `us` microseconds. Only called when `H::SPANS`.
///
/// The span is keyed by the **site index**, not the worker, so the
/// structural span tree is identical at any job count; the worker only
/// shows up as the timeline lane (and in the jobs-variant `worker:*`
/// sibling spans, which structural diffs exclude).
#[allow(clippy::too_many_arguments)]
fn record_injection_span<H: TelemetryHook>(
    hook: &H,
    path: String,
    started: Instant,
    us: u64,
    site_index: usize,
    worker: usize,
    outcome: Outcome,
    site: FaultSite,
    rung: &str,
) {
    hook.span(
        &SpanRecord::new(path, worker as u32 + 1, site_index as u64, started)
            .tag("outcome", outcome.as_str())
            .tag("kind", site.kind.as_str())
            .tag("rung", rung),
    );
    // log2 buckets: bucket b holds latencies in [2^b, 2^(b+1)) µs, and
    // the counter accumulates microseconds (not samples) so the report
    // shows where wall time went, not just how many replays landed where.
    let bucket = 63 - us.max(1).leading_zeros();
    let outcome_label = outcome.as_str();
    hook.count(
        &format!(
            "campaign_injection_latency_us_total{{outcome=\"{outcome_label}\",bucket=\"{bucket:02}\"}}"
        ),
        us,
    );
    let kind_label = site.kind.as_str();
    hook.count(
        &format!(
            "campaign_injection_latency_by_kind_us_total{{kind=\"{kind_label}\",bucket=\"{bucket:02}\"}}"
        ),
        us,
    );
}

/// Records a worker's whole-loop timeline span and its utilization
/// counters (busy µs over alive µs). Only called when `H::SPANS`.
fn record_worker_span<H: TelemetryHook>(
    hook: &H,
    prefix: &str,
    started: Instant,
    worker: usize,
    injections: usize,
    busy_us: u64,
) {
    hook.span(
        &SpanRecord::new(
            format!("{prefix}/replay/worker:{worker:02}"),
            worker as u32 + 1,
            worker as u64,
            started,
        )
        .tag("injections", injections)
        .tag("busy_us", busy_us),
    );
    hook.count(
        &format!("campaign_worker_busy_us_total{{worker=\"{worker}\"}}"),
        busy_us,
    );
    hook.count(
        &format!("campaign_worker_us_total{{worker=\"{worker}\"}}"),
        started.elapsed().as_micros() as u64,
    );
}

/// Replays one site scalar on the worker's device through
/// [`classify_on`] — with a [`TraceObserver`] riding along on the
/// provenance path — and emits its per-injection telemetry.
fn replay_scalar_site<H: TelemetryHook>(
    shared: &ReplayShared<'_, H>,
    gpu: &mut Gpu,
    i: usize,
    worker: usize,
    busy_us: &mut u64,
) -> Result<Replayed, SimError> {
    let hook = shared.hook;
    let site = shared.sites[i];
    let rung = shared.ladder.nearest_indexed(site.cycle);
    let start = rung.map_or(Start::Zero, |(_, ck)| Start::Rung(ck));
    let (arch, workload, golden) = (shared.arch, shared.workload, shared.golden);
    let factor = shared.cfg.watchdog_factor;
    let injection_started = H::ENABLED.then(Instant::now);
    let (outcome, record) = match shared.golden_writes {
        Some(writes) => {
            let resume = rung.map_or(0, |(_, ck)| ck.cycle());
            let mut tracer = TraceObserver::new(site, arch.num_sms as usize, writes, resume);
            let outcome = classify_on(
                gpu,
                arch,
                workload,
                golden,
                site,
                factor,
                start,
                &mut tracer,
                hook,
            )?;
            (outcome, Some(tracer.into_record(arch.lds_banks)))
        }
        None => {
            let outcome = classify_on(
                gpu,
                arch,
                workload,
                golden,
                site,
                factor,
                start,
                &mut NoopObserver,
                hook,
            )?;
            (outcome, None)
        }
    };
    if let Some(injection_started) = injection_started {
        let rung = rung_label(rung);
        record_site(
            hook,
            site,
            outcome,
            &rung,
            injection_started.elapsed().as_secs_f64(),
        );
        if H::SPANS {
            if let Some(prefix) = shared.span_prefix.as_deref() {
                let us = injection_started.elapsed().as_micros() as u64;
                *busy_us += us;
                record_injection_span(
                    hook,
                    format!("{prefix}/replay/inj:{i:06}"),
                    injection_started,
                    us,
                    i,
                    worker,
                    outcome,
                    site,
                    &rung,
                );
            }
        }
    }
    Ok((i, outcome, record))
}

/// Replays a multi-site unit in one shared pass through
/// [`classify_batch_on`], emitting the batch counters and span plus the
/// per-site accounting of [`record_site`] (latency is the batch wall
/// time split evenly across its sites).
fn replay_batch<H: TelemetryHook>(
    shared: &ReplayShared<'_, H>,
    gpu: &mut Gpu,
    unit: &[usize],
    worker: usize,
    busy_us: &mut u64,
) -> Result<Vec<Replayed>, SimError> {
    let hook = shared.hook;
    let first = unit[0];
    let rung = shared.ladder.nearest_indexed(shared.sites[first].cycle);
    let batch_sites: Vec<FaultSite> = unit.iter().map(|&i| shared.sites[i]).collect();
    let batch_started = H::ENABLED.then(Instant::now);
    let rep = classify_batch_on(
        gpu,
        shared.arch,
        shared.workload,
        shared.golden,
        &batch_sites,
        shared.cfg.watchdog_factor,
        rung.map(|(_, ck)| ck),
        hook,
    )?;
    if let Some(batch_started) = batch_started {
        let elapsed = batch_started.elapsed();
        hook.count("campaign_batches_total", 1);
        hook.count("campaign_batched_total", unit.len() as u64);
        hook.count("campaign_batch_forks_total", rep.forks as u64);
        if rep.fell_back {
            hook.count("campaign_batch_fallbacks_total", 1);
        }
        let rung = rung_label(rung);
        let per_site = elapsed.as_secs_f64() / unit.len() as f64;
        for (&i, &outcome) in unit.iter().zip(&rep.outcomes) {
            record_site(hook, shared.sites[i], outcome, &rung, per_site);
        }
        if H::SPANS {
            if let Some(prefix) = shared.span_prefix.as_deref() {
                *busy_us += elapsed.as_micros() as u64;
                hook.span(
                    &SpanRecord::new(
                        format!("{prefix}/replay/batch:{first:06}"),
                        worker as u32 + 1,
                        first as u64,
                        batch_started,
                    )
                    .tag("sites", unit.len())
                    .tag("forks", rep.forks)
                    .tag("rung", &rung),
                );
                // One nested span per batched site, keyed by site index
                // like the scalar path, so the structural tree still
                // carries one `inj:` node per replayed injection at any
                // job count. Each spans the whole unit's wall time —
                // when its scenario was in flight — while the latency
                // buckets get the even per-site share.
                let us_share = (elapsed.as_micros() as u64 / unit.len() as u64).max(1);
                for (&i, &outcome) in unit.iter().zip(&rep.outcomes) {
                    record_injection_span(
                        hook,
                        format!("{prefix}/replay/batch:{first:06}/inj:{i:06}"),
                        batch_started,
                        us_share,
                        i,
                        worker,
                        outcome,
                        shared.sites[i],
                        &rung,
                    );
                }
            }
        }
    }
    Ok(unit
        .iter()
        .zip(rep.outcomes)
        .map(|(&i, o)| (i, o, None))
        .collect())
}

/// Groups the sorted site order into execution units, as ranges of
/// `order`: maximal runs of consecutive transient sites, chunked at
/// [`MAX_BATCH_SCENARIOS`]. Non-transient sites become singleton units
/// in place. A unit may span checkpoint rungs — its shared pass resumes
/// from the rung of its *earliest* site and arms each later scenario
/// when the clock reaches its cycle, so one pass over the tail replaces
/// what would otherwise be one pass per rung. A pure function of
/// `(sites, order)` — unit composition never depends on the job count,
/// so dealing units round-robin keeps the determinism contract.
fn batch_units(sites: &[FaultSite], order: &[usize]) -> Vec<Range<usize>> {
    let mut units = Vec::new();
    let mut run = 0;
    for (k, &i) in order.iter().enumerate() {
        if !sites[i].is_transient() {
            if run < k {
                units.push(run..k);
            }
            units.push(k..k + 1);
            run = k + 1;
        } else if k - run == MAX_BATCH_SCENARIOS {
            units.push(run..k);
            run = k;
        }
    }
    if run < order.len() {
        units.push(run..order.len());
    }
    units
}

/// One worker's replay loop: stripe `worker` of `jobs` over the unit
/// list, on a single device reused across all of its replays. Singleton
/// units replay scalar ([`replay_scalar_site`]); multi-site units run
/// one shared pass ([`replay_batch`]).
///
/// Returns the replayed sites; the caller scatters them back into site
/// order.
fn worker_loop_batched<H: TelemetryHook>(
    shared: &ReplayShared<'_, H>,
    units: &[Range<usize>],
    worker: usize,
    jobs: usize,
) -> Result<Vec<Replayed>, SimError> {
    let hook = shared.hook;
    let started = H::ENABLED.then(Instant::now);
    // The worker's private device: checkpoint resumes overwrite it in
    // place, so the allocation is paid once per worker, not per replay.
    let mut gpu = Gpu::new(shared.arch.clone());
    let mut done = Vec::with_capacity(shared.order.len().div_ceil(jobs));
    let mut busy_us: u64 = 0;
    for unit in units.iter().skip(worker).step_by(jobs) {
        let unit = &shared.order[unit.clone()];
        if let [i] = *unit {
            done.push(replay_scalar_site(
                shared,
                &mut gpu,
                i,
                worker,
                &mut busy_us,
            )?);
        } else {
            done.extend(replay_batch(shared, &mut gpu, unit, worker, &mut busy_us)?);
        }
    }
    if H::SPANS {
        if let (Some(started), Some(prefix)) = (started, shared.span_prefix.as_deref()) {
            record_worker_span(hook, prefix, started, worker, done.len(), busy_us);
        }
    }
    if let Some(started) = started {
        let seconds = started.elapsed().as_secs_f64();
        let per_second = if seconds > 0.0 {
            done.len() as f64 / seconds
        } else {
            0.0
        };
        hook.observe("campaign_worker_seconds", seconds);
        hook.count(
            &format!("campaign_worker_injections_total{{worker=\"{worker}\"}}"),
            done.len() as u64,
        );
        hook.gauge(
            &format!("campaign_worker_injections_per_second{{worker=\"{worker}\"}}"),
            per_second,
        );
    }
    Ok(done)
}

/// Runs `work(w)` for every worker `w` in `0..jobs` — inline for a
/// single worker, on scoped threads otherwise — and returns the results
/// in worker order. When several workers fail, the error of the
/// lowest-numbered worker wins, keeping even the failure mode
/// deterministic.
pub(crate) fn fan_out<T: Send>(
    jobs: usize,
    work: impl Fn(usize) -> Result<T, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    if jobs == 1 {
        return Ok(vec![work(0)?]);
    }
    let results: Vec<Result<T, SimError>> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..jobs).map(|w| scope.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Replays every site, fanning the work out over `cfg.threads` scoped
/// workers, and returns the outcomes **in site order** — bit-identical
/// to a sequential run at any job count.
///
/// With an `oracle`, sites whose fault cycle falls outside every live
/// interval of their word are pre-classified as `Masked` *before* the
/// fan-out — serially, so the replayed set is a pure function of the
/// inputs and the determinism contract is untouched. Each pruned site
/// still produces the full per-injection telemetry (a zero-latency
/// sample, an `outcome="masked"` count and a `rung="pruned"` hit), so
/// hooked totals account for every sampled site at any pruning rate.
///
/// # Errors
///
/// Propagates replay failures that are not fault classifications. When
/// several workers fail, the error of the lowest-numbered worker wins,
/// keeping even the failure mode deterministic.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_sites<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    golden: &GoldenRun,
    sites: &[FaultSite],
    cfg: CampaignConfig,
    ladder: &CheckpointLadder,
    oracle: Option<&LifetimeOracle>,
    hook: &H,
) -> Result<Vec<Outcome>, SimError> {
    let (outcomes, _) = replay(
        arch, workload, golden, sites, cfg, ladder, oracle, None, hook,
    )?;
    Ok(outcomes)
}

/// [`replay_sites`] with provenance recording: outcomes *and* per-site
/// [`TraceRecord`]s, both **in site order** and bit-identical at any job
/// count (the same determinism contract — the recorder is a passive
/// observer scattered back by site index exactly like the outcomes).
/// The flight recorder needs every site's full propagation timeline, so
/// traced replays are neither pruned nor batched.
///
/// # Errors
///
/// Same as [`replay_sites`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_sites_traced<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    golden: &GoldenRun,
    golden_writes: &[GlobalWrite],
    sites: &[FaultSite],
    cfg: CampaignConfig,
    ladder: &CheckpointLadder,
    hook: &H,
) -> Result<(Vec<Outcome>, Vec<TraceRecord>), SimError> {
    let cfg = CampaignConfig {
        batch: false,
        ..cfg
    };
    let (outcomes, records) = replay(
        arch,
        workload,
        golden,
        sites,
        cfg,
        ladder,
        None,
        Some(golden_writes),
        hook,
    )?;
    let records = records
        .into_iter()
        .map(|r| r.expect("an unpruned traced replay records every site"))
        .collect();
    Ok((outcomes, records))
}

/// The runner behind [`replay_sites`] and [`replay_sites_traced`]:
/// prune, sort, group into units, fan out, scatter back into site order
/// and stream convergence. Records are `Some` exactly for the sites
/// replayed scalar under `golden_writes`.
#[allow(clippy::too_many_arguments)]
fn replay<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    golden: &GoldenRun,
    sites: &[FaultSite],
    cfg: CampaignConfig,
    ladder: &CheckpointLadder,
    oracle: Option<&LifetimeOracle>,
    golden_writes: Option<&[GlobalWrite]>,
    hook: &H,
) -> Result<(Vec<Outcome>, Vec<Option<TraceRecord>>), SimError> {
    // Serial pre-classification: pruned sites keep their pre-filled
    // `Masked` slot and never reach a worker.
    let span_prefix = replay_span_prefix::<H>(arch, workload, sites);
    let mut outcomes = vec![Outcome::Masked; sites.len()];
    let mut records = vec![None; sites.len()];
    let live: Vec<usize> = match oracle {
        Some(oracle) => {
            let prune_started = H::SPANS.then(Instant::now);
            let live: Vec<usize> = (0..sites.len())
                .filter(|&i| !oracle.is_dead(sites[i]))
                .collect();
            if let (Some(prune_started), Some(prefix)) = (prune_started, span_prefix.as_deref()) {
                hook.span(
                    &SpanRecord::new(format!("{prefix}/prune"), 0, 0, prune_started)
                        .tag("pruned", sites.len() - live.len())
                        .tag("total", sites.len()),
                );
            }
            if H::ENABLED {
                let pruned = (sites.len() - live.len()) as u64;
                if pruned > 0 {
                    hook.count("campaign_pruned_total", pruned);
                    hook.count("campaign_injections_total{outcome=\"masked\"}", pruned);
                    // Only transient sites can be pruned (the oracle is
                    // kind-gated), so the kind label is unconditional.
                    hook.count(
                        "campaign_injections_by_kind_total{kind=\"transient\"}",
                        pruned,
                    );
                    hook.count("campaign_rung_hits_total{rung=\"pruned\"}", pruned);
                    // Saturate: a long golden run times a large pruned
                    // count can clear u64::MAX, and a wrapped counter
                    // would report absurd savings instead of a floor.
                    hook.count(
                        "campaign_cycles_saved_total",
                        pruned.saturating_mul(golden.cycles),
                    );
                    for _ in 0..pruned {
                        hook.observe("campaign_injection_seconds", 0.0);
                    }
                }
            }
            live
        }
        None => (0..sites.len()).collect(),
    };
    let mut order = live;
    order.sort_by_key(|&i| (sites[i].cycle, i));
    // Bit-plane batching groups the sorted order into shared-pass units.
    // Kind-gated like pruning — only the transient model batches (the
    // overlay lane model assumes a one-shot flip). Otherwise every site
    // is a unit of its own.
    let units = if cfg.batch && cfg.fault_model == FaultModelKind::Transient {
        batch_units(sites, &order)
    } else {
        (0..order.len()).map(|k| k..k + 1).collect()
    };
    let jobs = cfg.threads.max(1).min(units.len().max(1));
    if H::ENABLED {
        hook.gauge("campaign_workers", jobs as f64);
    }
    let shared = ReplayShared {
        arch,
        workload,
        golden,
        sites,
        order: &order,
        cfg,
        ladder,
        golden_writes,
        span_prefix,
        hook,
    };
    let replay_started = H::SPANS.then(Instant::now);
    let per_worker = fan_out(jobs, |w| worker_loop_batched(&shared, &units, w, jobs))?;
    if let (Some(replay_started), Some(prefix)) = (replay_started, shared.span_prefix.as_deref()) {
        hook.span(
            &SpanRecord::new(format!("{prefix}/replay"), 0, 1, replay_started)
                .tag("sites", shared.order.len()),
        );
    }
    let merge_started = H::SPANS.then(Instant::now);
    for (i, o, record) in per_worker.into_iter().flatten() {
        outcomes[i] = o;
        records[i] = record;
    }
    if let (Some(merge_started), Some(prefix)) = (merge_started, shared.span_prefix.as_deref()) {
        hook.span(&SpanRecord::new(
            format!("{prefix}/merge"),
            0,
            2,
            merge_started,
        ));
    }
    stream_convergence(arch, workload, golden, sites, cfg, &outcomes, hook);
    Ok((outcomes, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{golden_run, sample_model_sites, sample_sites};
    use crate::provenance::golden_write_log;
    use gpu_archs::quadro_fx_5600;
    use gpu_workloads::{Reduction, VectorAdd};
    use grel_telemetry::{MetricsRegistry, NoopHook, RegistryHook};
    use simt_sim::Structure;

    fn cfg(n: u32, threads: usize) -> CampaignConfig {
        CampaignConfig {
            injections: n,
            threads,
            ..CampaignConfig::quick(11)
        }
    }

    fn outcomes_at(jobs: usize) -> Vec<Outcome> {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 11);
        let golden = golden_run(&arch, &w).unwrap();
        let c = cfg(24, jobs);
        let sites = sample_sites(
            &arch,
            Structure::VectorRegisterFile,
            golden.cycles,
            c.injections,
            c.seed,
        );
        let ladder = CheckpointLadder::build(&arch, &w, &golden, &c).unwrap();
        replay_sites(&arch, &w, &golden, &sites, c, &ladder, None, &NoopHook).unwrap()
    }

    #[test]
    fn outcome_order_is_job_count_invariant() {
        let one = outcomes_at(1);
        for jobs in [2, 3, 5, 8] {
            assert_eq!(one, outcomes_at(jobs), "jobs = {jobs}");
        }
    }

    #[test]
    fn oversubscribed_pool_clamps_to_site_count() {
        // 64 workers over 6 sites must not panic or drop outcomes.
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 11);
        let golden = golden_run(&arch, &w).unwrap();
        let c = cfg(6, 64);
        let sites = sample_sites(
            &arch,
            Structure::VectorRegisterFile,
            golden.cycles,
            c.injections,
            c.seed,
        );
        let ladder = CheckpointLadder::build(&arch, &w, &golden, &c).unwrap();
        let out = replay_sites(&arch, &w, &golden, &sites, c, &ladder, None, &NoopHook).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn per_worker_metrics_cover_every_injection() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 11);
        let golden = golden_run(&arch, &w).unwrap();
        let mut c = cfg(12, 3);
        // Scalar replay only: batching would merge these few transient
        // sites into one unit and clamp the pool to a single worker.
        c.batch = false;
        let sites = sample_sites(
            &arch,
            Structure::VectorRegisterFile,
            golden.cycles,
            c.injections,
            c.seed,
        );
        let ladder = CheckpointLadder::build(&arch, &w, &golden, &c).unwrap();
        let reg = MetricsRegistry::new();
        let hook = RegistryHook::new(&reg);
        replay_sites(&arch, &w, &golden, &sites, c, &ladder, None, &hook).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("campaign_workers"), Some(3.0));
        let per_worker: u64 = snap
            .counters()
            .filter(|(n, _)| n.starts_with("campaign_worker_injections_total"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_worker, 12, "every injection belongs to one worker");
        assert_eq!(
            snap.histogram("campaign_worker_seconds").unwrap().count(),
            3,
            "one wall-time sample per worker"
        );
    }

    /// The deterministic replay counters of a hooked run: outcome, kind,
    /// rung, per-worker and replayed-cycle totals.
    fn replay_counters(reg: &MetricsRegistry) -> Vec<(String, u64)> {
        let snap = reg.snapshot();
        snap.counters()
            .filter(|(n, _)| {
                [
                    "campaign_injections_total{",
                    "campaign_injections_by_kind_total{",
                    "campaign_rung_hits_total{",
                    "campaign_worker_injections_total{",
                    "campaign_cycles_replayed_total",
                ]
                .iter()
                .any(|p| n.starts_with(p))
            })
            .map(|(n, v)| (n.to_string(), v))
            .collect()
    }

    #[test]
    fn batched_unbatched_and_traced_replays_agree() {
        // A small device saturated by a barrier-heavy kernel, so sampled
        // sites land on live state and not every replay is masked.
        let arch = ArchConfig::small_test_gpu();
        let w = Reduction::new(256, 32, 5);
        let golden = golden_run(&arch, &w).unwrap();
        let writes = golden_write_log(&arch, &w).unwrap();
        let c = CampaignConfig {
            seed: 9,
            ..cfg(24, 2)
        };
        let ladder = CheckpointLadder::build(&arch, &w, &golden, &c).unwrap();
        for model in [FaultModelKind::Stuck1, FaultModelKind::Transient] {
            let sites = sample_model_sites(
                &arch,
                Structure::VectorRegisterFile,
                model,
                golden.cycles,
                c.injections,
                c.seed,
            );
            let cfg = CampaignConfig {
                fault_model: model,
                ..c
            };
            let mut runs = Vec::new();
            for batch in [true, false] {
                let reg = MetricsRegistry::new();
                let hook = RegistryHook::new(&reg);
                let cfg = CampaignConfig { batch, ..cfg };
                let out =
                    replay_sites(&arch, &w, &golden, &sites, cfg, &ladder, None, &hook).unwrap();
                runs.push((out, replay_counters(&reg)));
            }
            let reg = MetricsRegistry::new();
            let hook = RegistryHook::new(&reg);
            let (traced, records) =
                replay_sites_traced(&arch, &w, &golden, &writes, &sites, cfg, &ladder, &hook)
                    .unwrap();
            assert_eq!(records.len(), sites.len());
            let traced_counters = replay_counters(&reg);
            let [(batched, batched_counters), (unbatched, unbatched_counters)] =
                <[_; 2]>::try_from(runs).unwrap();
            assert_eq!(batched, unbatched, "{model:?}: batch on vs off");
            assert_eq!(traced, unbatched, "{model:?}: traced vs untraced");
            assert!(
                unbatched.iter().any(|&o| o != Outcome::Masked),
                "{model:?}: every replay masked, the comparison is vacuous"
            );
            assert!(!unbatched_counters.is_empty());
            assert_eq!(traced_counters, unbatched_counters, "{model:?}");
            // Batching is kind-gated, so a stuck-at campaign replays the
            // very same scalar path with batching on; transient lanes
            // batch and account differently (forks, shared passes).
            if model == FaultModelKind::Stuck1 {
                assert_eq!(batched_counters, unbatched_counters, "{model:?}");
            }
        }
    }
}
