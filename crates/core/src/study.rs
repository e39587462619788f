//! The full cross-GPU study: evaluates every (device, workload) pair and
//! assembles the series behind the paper's three figures.

use crate::ace::{AceAnalyzer, AceMode, LifetimeOracle};
use crate::campaign::{
    run_campaign_with_oracle_hooked, CampaignConfig, CheckpointLadder, Tally, PHASE_GOLDEN,
};
use crate::epf::{eit, epf, FitBreakdown};
use crate::runner::fan_out;
use crate::sampling::{run_adaptive_with_context, SamplingPlan};
use crate::stats::pearson;
use gpu_workloads::Workload;
use grel_telemetry::{Event, NoopHook, SpanRecord, TelemetryHook};
use serde::{Deserialize, Serialize};
use simt_sim::{ArchConfig, FaultModelKind, SimError, Structure};
use std::time::Instant;

/// Per-structure measurements of one (device, workload) pair.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StructureEval {
    /// Fault-injection AVF (`(SDC+DUE)/n`).
    pub avf_fi: f64,
    /// SDC-only component of the FI AVF.
    pub avf_sdc: f64,
    /// ACE-analysis AVF.
    pub avf_ace: f64,
    /// Time-weighted occupancy.
    pub occupancy: f64,
    /// 99 % error margin of `avf_fi`.
    pub margin_99: f64,
    /// Raw outcome counters.
    pub tally: Tally,
}

/// One point of the study: one workload on one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Device marketing name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Whether the workload uses local memory (Fig. 2 membership).
    pub uses_local_memory: bool,
    /// Fault-free application cycles.
    pub cycles: u64,
    /// Vector register file measurements.
    pub rf: StructureEval,
    /// Local memory measurements (FI only for Fig. 2 workloads; ACE and
    /// occupancy always).
    pub lds: StructureEval,
    /// Scalar register file ACE AVF (devices with a scalar unit).
    pub srf_avf_ace: Option<f64>,
    /// FIT contributions derived from the measured AVFs.
    pub fit: FitBreakdown,
    /// Executions in 10⁹ hours.
    pub eit: f64,
    /// Executions per failure.
    pub epf: f64,
}

/// Study-wide parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Fault-injection campaign parameters.
    pub campaign: CampaignConfig,
    /// Seed for workload input generation.
    pub workload_seed: u64,
    /// Whether to run FI on local memory for workloads that never touch
    /// it (the paper does not; the result is ~0 by construction).
    pub fi_on_unused_lds: bool,
    /// Whether to run campaigns with the fault-propagation flight
    /// recorder on (per-injection `injection.trace` events and
    /// `provenance_*` attribution metrics). Off by default; tallies and
    /// study results are identical either way.
    #[serde(default)]
    pub provenance: bool,
    /// ACE refinement level (the paper's figures correspond to the
    /// conservative default).
    #[serde(skip)]
    pub ace_mode: AceMode,
    /// Adaptive stratified sampling plan. Disabled by default
    /// (`target_margin == 0`), in which case campaigns run the classic
    /// fixed-`injections` uniform path byte-for-byte. When enabled, each
    /// FI campaign stops at the plan's target margin instead of
    /// `campaign.injections`. Ignored when `provenance` is on (the
    /// flight recorder traces a fixed uniform sample).
    #[serde(skip)]
    pub sampling: SamplingPlan,
}

impl StudyConfig {
    /// Paper-scale configuration (2,000 injections per structure).
    pub fn paper(seed: u64) -> Self {
        StudyConfig {
            campaign: CampaignConfig::paper(seed),
            workload_seed: seed,
            fi_on_unused_lds: false,
            provenance: false,
            ace_mode: AceMode::default(),
            sampling: SamplingPlan::default(),
        }
    }

    /// Quick-look configuration (200 injections per structure).
    pub fn quick(seed: u64) -> Self {
        StudyConfig {
            campaign: CampaignConfig::quick(seed),
            workload_seed: seed,
            fi_on_unused_lds: false,
            provenance: false,
            ace_mode: AceMode::default(),
            sampling: SamplingPlan::default(),
        }
    }
}

/// The FI measurements [`structure_eval`] consumes, shared between the
/// uniform campaign result and the adaptive engine's.
struct FiMeasure {
    avf: f64,
    avf_sdc: f64,
    margin: f64,
    tally: Tally,
}

impl From<&crate::campaign::CampaignResult> for FiMeasure {
    fn from(r: &crate::campaign::CampaignResult) -> Self {
        FiMeasure {
            avf: r.avf(),
            avf_sdc: r.avf_sdc(),
            margin: r.margin_99,
            tally: r.tally,
        }
    }
}

impl From<&crate::sampling::AdaptiveCampaign> for FiMeasure {
    fn from(r: &crate::sampling::AdaptiveCampaign) -> Self {
        FiMeasure {
            avf: r.avf,
            avf_sdc: r.avf_sdc,
            margin: r.margin,
            tally: r.tally,
        }
    }
}

fn structure_eval(fi: Option<&FiMeasure>, ace: &AceAnalyzer, s: Structure) -> StructureEval {
    let rep = ace.report(s);
    match fi {
        Some(r) => StructureEval {
            avf_fi: r.avf,
            avf_sdc: r.avf_sdc,
            avf_ace: rep.avf_ace,
            occupancy: rep.occupancy,
            margin_99: r.margin,
            tally: r.tally,
        },
        None => StructureEval {
            avf_fi: 0.0,
            avf_sdc: 0.0,
            avf_ace: rep.avf_ace,
            occupancy: rep.occupancy,
            margin_99: 0.0,
            tally: Tally::default(),
        },
    }
}

/// Evaluates one workload on one device: golden run with ACE analysis,
/// then fault-injection campaigns on the register file and (when used)
/// the local memory, then the FIT/EIT/EPF roll-up.
///
/// # Errors
///
/// Propagates a fault-free launch failure (device/workload mismatch).
pub fn evaluate_point(
    arch: &ArchConfig,
    workload: &dyn Workload,
    cfg: &StudyConfig,
) -> Result<EvalPoint, SimError> {
    evaluate_point_hooked(arch, workload, cfg, &NoopHook)
}

/// [`evaluate_point`] with full telemetry through `hook`: golden/ACE
/// wall time, per-campaign metrics and a `study.point` event closing the
/// point with its total duration.
///
/// # Errors
///
/// Same as [`evaluate_point`].
pub fn evaluate_point_hooked<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    cfg: &StudyConfig,
    hook: &H,
) -> Result<EvalPoint, SimError> {
    let started = H::ENABLED.then(Instant::now);
    let golden_started = H::ENABLED.then(Instant::now);
    let mut gpu = simt_sim::Gpu::new(arch.clone());
    let mut ace = AceAnalyzer::with_mode(arch, cfg.ace_mode);
    // With pruning on, the lifetime oracle rides along on the same golden
    // run — one instrumented pass serves the ACE report and every
    // structure's campaign pruning for this point. Lifetime pruning is
    // only sound for transient flips (a stuck-at fault survives the
    // overwrite the oracle reasons about), so other models skip the
    // capture entirely.
    // The adaptive engine also wants the oracle with pruning off — its
    // liveness stratum is defined by the oracle regardless of whether
    // dead sites are replayed — so the capture gate widens accordingly.
    let adaptive = cfg.sampling.enabled() && !cfg.provenance;
    let mut oracle = ((cfg.campaign.prune || adaptive)
        && cfg.campaign.fault_model == FaultModelKind::Transient)
        .then(|| LifetimeOracle::new(arch));
    let outputs = match oracle.as_mut() {
        Some(oracle) => workload.run(&mut gpu, &mut (&mut ace, &mut *oracle))?,
        None => workload.run(&mut gpu, &mut ace)?,
    };
    let oracle = oracle;
    let golden = crate::campaign::GoldenRun {
        outputs,
        cycles: gpu.app_cycle(),
    };
    if let Some(golden_started) = golden_started {
        let seconds = golden_started.elapsed().as_secs_f64();
        hook.observe("campaign_golden_seconds", seconds);
        hook.gauge("campaign_golden_cycles", golden.cycles as f64);
        hook.event(
            &Event::new("golden.done")
                .field("workload", workload.name())
                .field("device", arch.name.as_str())
                .field("cycles", golden.cycles)
                .field("seconds", seconds),
        );
        if H::SPANS {
            // The study's golden run carries the ACE analysis (and the
            // lifetime oracle, when pruning) on the same pass, so this
            // one span covers golden + oracle capture.
            hook.span(
                &SpanRecord::new(
                    format!("point:{}@{}/golden", workload.name(), arch.name),
                    0,
                    PHASE_GOLDEN,
                    golden_started,
                )
                .tag("cycles", golden.cycles)
                .tag("ace", true),
            );
        }
    }
    // One ladder serves every structure's campaign over this golden run.
    let ladder = CheckpointLadder::build_hooked(arch, workload, &golden, &cfg.campaign, hook)?;
    // With the flight recorder on, campaigns also need the golden run's
    // global-store stream as the divergence reference (captured once and
    // shared by every structure's campaign). Tallies are identical on
    // both paths — the recorder only observes.
    let golden_writes = cfg
        .provenance
        .then(|| crate::provenance::golden_write_log(arch, workload))
        .transpose()?;
    let run_structure = |structure: Structure| -> Result<FiMeasure, SimError> {
        if let Some(writes) = &golden_writes {
            return crate::provenance::run_campaign_with_provenance_hooked(
                arch,
                workload,
                structure,
                cfg.campaign,
                &golden,
                writes,
                &ladder,
                hook,
            )
            .map(|(result, _, _)| FiMeasure::from(&result));
        }
        if adaptive {
            return run_adaptive_with_context(
                arch,
                workload,
                structure,
                cfg.campaign,
                cfg.sampling,
                &golden,
                &ladder,
                oracle.as_ref(),
                hook,
            )
            .map(|r| FiMeasure::from(&r));
        }
        // With pruning off the captured oracle (if any) serves only the
        // adaptive path; the uniform campaign replays every site.
        let replay_oracle = cfg.campaign.prune.then_some(()).and(oracle.as_ref());
        run_campaign_with_oracle_hooked(
            arch,
            workload,
            structure,
            cfg.campaign,
            &golden,
            &ladder,
            replay_oracle,
            hook,
        )
        .map(|r| FiMeasure::from(&r))
    };
    let rf_fi = run_structure(Structure::VectorRegisterFile)?;
    let lds_fi = (workload.uses_local_memory() || cfg.fi_on_unused_lds)
        .then(|| run_structure(Structure::LocalMemory))
        .transpose()?;
    let rf = structure_eval(Some(&rf_fi), &ace, Structure::VectorRegisterFile);
    let lds = structure_eval(lds_fi.as_ref(), &ace, Structure::LocalMemory);
    let srf_avf_ace =
        (arch.srf_words_per_sm() > 0).then(|| ace.report(Structure::ScalarRegisterFile).avf_ace);
    // FIT: FI AVF for the injected structures, ACE for the scalar file
    // (the paper's Fig. 3 folds the studied structures together).
    let lds_avf_for_fit = lds_fi.as_ref().map(|r| r.avf).unwrap_or(lds.avf_ace);
    let fit = FitBreakdown::from_avf(arch, rf.avf_fi, lds_avf_for_fit, srf_avf_ace.unwrap_or(0.0));
    let e = eit(arch, golden.cycles);
    let point = EvalPoint {
        device: arch.name.clone(),
        workload: workload.name().to_string(),
        uses_local_memory: workload.uses_local_memory(),
        cycles: golden.cycles,
        rf,
        lds,
        srf_avf_ace,
        fit,
        eit: e,
        epf: epf(e, fit.total()),
    };
    if let Some(started) = started {
        let seconds = started.elapsed().as_secs_f64();
        hook.observe("study_point_seconds", seconds);
        if H::SPANS {
            hook.span(
                &SpanRecord::new(
                    format!("point:{}@{}", point.workload, point.device),
                    0,
                    0,
                    started,
                )
                .tag("fault_model", cfg.campaign.fault_model.as_str()),
            );
        }
        hook.event(
            &Event::new("study.point")
                .field("workload", point.workload.as_str())
                .field("device", point.device.as_str())
                .field("fault_model", cfg.campaign.fault_model.as_str())
                .field("cycles", point.cycles)
                .field("rf_avf", point.rf.avf_fi)
                .field("lds_avf", point.lds.avf_fi)
                .field("epf", point.epf)
                .field("seconds", seconds),
        );
    }
    Ok(point)
}

/// The assembled study: every (device, workload) point.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StudyResult {
    /// One entry per (device, workload) pair, workload-major.
    pub points: Vec<EvalPoint>,
}

/// One bar group of Fig. 1 / Fig. 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AvfRow {
    /// Workload name (`average` for the trailing group).
    pub workload: String,
    /// Device name.
    pub device: String,
    /// Fault-injection AVF.
    pub avf_fi: f64,
    /// ACE-analysis AVF.
    pub avf_ace: f64,
    /// Occupancy (the red line).
    pub occupancy: f64,
}

/// One bar of Fig. 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpfRow {
    /// Workload name.
    pub workload: String,
    /// Device name.
    pub device: String,
    /// Executions in 10⁹ hours.
    pub eit: f64,
    /// Total FIT of the studied structures.
    pub fit_gpu: f64,
    /// Executions per failure.
    pub epf: f64,
}

/// The paper's headline observations, quantified over the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Findings {
    /// Mean of `AVF_ACE − AVF_FI` over the register file (expected
    /// strongly positive: F3, ACE overestimates the RF).
    pub rf_ace_gap: f64,
    /// Mean of `AVF_ACE − AVF_FI` over the local memory (expected small:
    /// F3, ACE is accurate for local memory).
    pub lds_ace_gap: f64,
    /// Pearson correlation of RF AVF (FI) with RF occupancy (F2).
    pub rf_avf_occupancy_corr: f64,
    /// Pearson correlation of LDS AVF (FI) with LDS occupancy (F2).
    pub lds_avf_occupancy_corr: f64,
    /// Min and max RF AVF across all points (F1: strong variation).
    pub rf_avf_range: (f64, f64),
    /// Min and max EPF across all points (F4: orders of magnitude).
    pub epf_range: (f64, f64),
}

impl StudyResult {
    /// Fig. 1 series: register-file AVF (FI + ACE) and occupancy per
    /// (workload, device), plus the per-device `average` group.
    pub fn fig1_rows(&self) -> Vec<AvfRow> {
        let mut rows: Vec<AvfRow> = self
            .points
            .iter()
            .map(|p| AvfRow {
                workload: p.workload.clone(),
                device: p.device.clone(),
                avf_fi: p.rf.avf_fi,
                avf_ace: p.rf.avf_ace,
                occupancy: p.rf.occupancy,
            })
            .collect();
        rows.extend(self.average_rows(|p| (p.rf.avf_fi, p.rf.avf_ace, p.rf.occupancy)));
        rows
    }

    /// Fig. 2 series: local-memory AVF and occupancy for the workloads
    /// that use it, plus per-device averages.
    pub fn fig2_rows(&self) -> Vec<AvfRow> {
        let mut rows: Vec<AvfRow> = self
            .points
            .iter()
            .filter(|p| p.uses_local_memory)
            .map(|p| AvfRow {
                workload: p.workload.clone(),
                device: p.device.clone(),
                avf_fi: p.lds.avf_fi,
                avf_ace: p.lds.avf_ace,
                occupancy: p.lds.occupancy,
            })
            .collect();
        let devices = self.device_order();
        for dev in devices {
            let pts: Vec<&EvalPoint> = self
                .points
                .iter()
                .filter(|p| p.device == dev && p.uses_local_memory)
                .collect();
            if pts.is_empty() {
                continue;
            }
            let n = pts.len() as f64;
            rows.push(AvfRow {
                workload: "average".into(),
                device: dev,
                avf_fi: pts.iter().map(|p| p.lds.avf_fi).sum::<f64>() / n,
                avf_ace: pts.iter().map(|p| p.lds.avf_ace).sum::<f64>() / n,
                occupancy: pts.iter().map(|p| p.lds.occupancy).sum::<f64>() / n,
            });
        }
        rows
    }

    /// Fig. 3 series: EPF per (workload, device).
    pub fn fig3_rows(&self) -> Vec<EpfRow> {
        self.points
            .iter()
            .map(|p| EpfRow {
                workload: p.workload.clone(),
                device: p.device.clone(),
                eit: p.eit,
                fit_gpu: p.fit.total(),
                epf: p.epf,
            })
            .collect()
    }

    fn device_order(&self) -> Vec<String> {
        let mut devices = Vec::new();
        for p in &self.points {
            if !devices.contains(&p.device) {
                devices.push(p.device.clone());
            }
        }
        devices
    }

    fn average_rows(&self, f: impl Fn(&EvalPoint) -> (f64, f64, f64)) -> Vec<AvfRow> {
        self.device_order()
            .into_iter()
            .filter_map(|dev| {
                let pts: Vec<&EvalPoint> = self.points.iter().filter(|p| p.device == dev).collect();
                if pts.is_empty() {
                    return None;
                }
                let n = pts.len() as f64;
                let (mut fi, mut ace, mut occ) = (0.0, 0.0, 0.0);
                for p in &pts {
                    let (a, b, c) = f(p);
                    fi += a;
                    ace += b;
                    occ += c;
                }
                Some(AvfRow {
                    workload: "average".into(),
                    device: dev,
                    avf_fi: fi / n,
                    avf_ace: ace / n,
                    occupancy: occ / n,
                })
            })
            .collect()
    }

    /// Quantifies the paper's four findings over the collected points.
    pub fn findings(&self) -> Findings {
        let n = self.points.len().max(1) as f64;
        let rf_ace_gap = self
            .points
            .iter()
            .map(|p| p.rf.avf_ace - p.rf.avf_fi)
            .sum::<f64>()
            / n;
        let lds_pts: Vec<&EvalPoint> = self.points.iter().filter(|p| p.uses_local_memory).collect();
        let lds_n = lds_pts.len().max(1) as f64;
        let lds_ace_gap = lds_pts
            .iter()
            .map(|p| p.lds.avf_ace - p.lds.avf_fi)
            .sum::<f64>()
            / lds_n;
        let rf_avf: Vec<f64> = self.points.iter().map(|p| p.rf.avf_fi).collect();
        let rf_occ: Vec<f64> = self.points.iter().map(|p| p.rf.occupancy).collect();
        let lds_avf: Vec<f64> = lds_pts.iter().map(|p| p.lds.avf_fi).collect();
        let lds_occ: Vec<f64> = lds_pts.iter().map(|p| p.lds.occupancy).collect();
        let epfs: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.epf)
            .filter(|e| e.is_finite())
            .collect();
        Findings {
            rf_ace_gap,
            lds_ace_gap,
            rf_avf_occupancy_corr: pearson(&rf_avf, &rf_occ),
            lds_avf_occupancy_corr: pearson(&lds_avf, &lds_occ),
            rf_avf_range: minmax(&rf_avf),
            epf_range: minmax(&epfs),
        }
    }
}

fn minmax(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if v.is_empty() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Runs the study over the given devices and workloads (workload-major
/// order, matching the paper's figure layout).
///
/// # Errors
///
/// Propagates the first launch failure.
pub fn run_study(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
) -> Result<StudyResult, SimError> {
    run_study_hooked(archs, workloads, cfg, &NoopHook)
}

/// [`run_study`] with full telemetry through `hook` — every golden run,
/// ladder build, campaign and study point reports its metrics and
/// events. With [`NoopHook`] this *is* `run_study`.
///
/// # Errors
///
/// Same as [`run_study`].
pub fn run_study_hooked<H: TelemetryHook>(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
    hook: &H,
) -> Result<StudyResult, SimError> {
    let mut points = Vec::new();
    for w in workloads {
        for arch in archs {
            points.push(evaluate_point_hooked(arch, w.as_ref(), cfg, hook)?);
        }
    }
    Ok(StudyResult { points })
}

/// [`run_study`] with the (device, workload) points sharded across a
/// scoped pool of `jobs` workers instead of parallelising inside each
/// campaign.
///
/// Point-level parallelism beats replay-level parallelism once the study
/// has at least as many points as cores: the golden run, the ACE pass
/// and the ladder build — all serial within one point — then overlap
/// across points too. Each worker evaluates its points with
/// single-threaded campaigns so total parallelism stays at `jobs`, and
/// the assembled result keeps the same workload-major point order as
/// [`run_study`]. Campaign results are thread-count invariant, so the
/// study result is bit-identical to the sequential one.
///
/// # Errors
///
/// Propagates the failure of the lowest-index failing point, matching
/// the error [`run_study`] would report.
pub fn run_study_parallel(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
    jobs: usize,
) -> Result<StudyResult, SimError> {
    run_study_parallel_hooked(archs, workloads, cfg, jobs, &NoopHook)
}

/// [`run_study_parallel`] with full telemetry through `hook`. The hook
/// is shared across point workers; the metrics registry shards per
/// thread and merges associatively, so harvested totals match the
/// sequential run.
///
/// # Errors
///
/// Same as [`run_study_parallel`].
pub fn run_study_parallel_hooked<H: TelemetryHook>(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
    jobs: usize,
    hook: &H,
) -> Result<StudyResult, SimError> {
    let n = workloads.len() * archs.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return run_study_hooked(archs, workloads, cfg, hook);
    }
    // Within a point the campaigns run single-threaded: the pool is
    // already `jobs` wide, and campaign results do not depend on their
    // internal thread count.
    let mut point_cfg = *cfg;
    point_cfg.campaign.threads = 1;
    let point_cfg = &point_cfg;
    // Each worker keeps going past a failed point, so the error reported
    // below is the lowest-index point's, not the lowest worker's.
    let per_worker: Vec<Vec<(usize, Result<EvalPoint, SimError>)>> = fan_out(jobs, |w| {
        Ok((w..n)
            .step_by(jobs)
            .map(|idx| {
                let workload = workloads[idx / archs.len()].as_ref();
                let arch = &archs[idx % archs.len()];
                (idx, evaluate_point_hooked(arch, workload, point_cfg, hook))
            })
            .collect())
    })?;
    let mut slots: Vec<Option<Result<EvalPoint, SimError>>> = (0..n).map(|_| None).collect();
    for (idx, r) in per_worker.into_iter().flatten() {
        slots[idx] = Some(r);
    }
    let mut points = Vec::with_capacity(n);
    for slot in slots {
        points.push(slot.expect("every point index was assigned to a worker")?);
    }
    Ok(StudyResult { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use gpu_archs::{quadro_fx_5600, quadro_fx_5800};
    use gpu_workloads::{Transpose, VectorAdd};

    fn tiny_cfg() -> StudyConfig {
        StudyConfig {
            campaign: CampaignConfig {
                injections: 8,
                threads: 2,
                ..CampaignConfig::quick(5)
            },
            workload_seed: 5,
            fi_on_unused_lds: false,
            provenance: false,
            ace_mode: AceMode::default(),
            sampling: SamplingPlan::default(),
        }
    }

    #[test]
    fn evaluate_point_populates_everything() {
        let arch = quadro_fx_5600();
        let w = Transpose::new(32, 5);
        let p = evaluate_point(&arch, &w, &tiny_cfg()).unwrap();
        assert_eq!(p.device, "Quadro FX 5600");
        assert_eq!(p.workload, "transpose");
        assert!(p.uses_local_memory);
        assert!(p.cycles > 0);
        assert_eq!(p.rf.tally.total(), 8);
        assert_eq!(p.lds.tally.total(), 8, "LDS workload gets LDS injections");
        assert!(p.rf.occupancy > 0.0);
        assert!(p.eit > 0.0);
        assert!(p.epf > 0.0);
        assert!(p.srf_avf_ace.is_none(), "no scalar file on G80");
    }

    #[test]
    fn non_lds_workload_skips_lds_campaign() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 5);
        let p = evaluate_point(&arch, &w, &tiny_cfg()).unwrap();
        assert_eq!(p.lds.tally.total(), 0);
        assert_eq!(p.lds.avf_fi, 0.0);
        assert_eq!(p.lds.occupancy, 0.0, "vectoradd allocates no LDS");
    }

    #[test]
    fn figures_assemble() {
        let archs = vec![quadro_fx_5600(), quadro_fx_5800()];
        let workloads: Vec<Box<dyn gpu_workloads::Workload>> = vec![
            Box::new(VectorAdd::new(256, 5)),
            Box::new(Transpose::new(32, 5)),
        ];
        let study = run_study(&archs, &workloads, &tiny_cfg()).unwrap();
        assert_eq!(study.points.len(), 4);

        let fig1 = study.fig1_rows();
        // 2 workloads × 2 devices + 2 averages.
        assert_eq!(fig1.len(), 6);
        assert_eq!(fig1.iter().filter(|r| r.workload == "average").count(), 2);

        let fig2 = study.fig2_rows();
        // Only transpose uses LDS: 2 rows + 2 averages.
        assert_eq!(fig2.len(), 4);

        let fig3 = study.fig3_rows();
        assert_eq!(fig3.len(), 4);
        assert!(fig3.iter().all(|r| r.epf > 0.0));

        let f = study.findings();
        assert!(f.rf_avf_range.0 <= f.rf_avf_range.1);
        assert!(f.epf_range.0 <= f.epf_range.1);
    }

    #[test]
    fn parallel_study_is_bit_identical_to_sequential() {
        let archs = vec![quadro_fx_5600(), quadro_fx_5800()];
        let workloads: Vec<Box<dyn gpu_workloads::Workload>> = vec![
            Box::new(VectorAdd::new(256, 5)),
            Box::new(Transpose::new(32, 5)),
        ];
        let cfg = tiny_cfg();
        let seq = run_study(&archs, &workloads, &cfg).unwrap();
        for jobs in [1, 2, 8] {
            let par = run_study_parallel(&archs, &workloads, &cfg, jobs).unwrap();
            assert_eq!(par.points.len(), seq.points.len());
            for (a, b) in seq.points.iter().zip(&par.points) {
                assert_eq!(a.device, b.device, "jobs = {jobs}: point order");
                assert_eq!(a.workload, b.workload, "jobs = {jobs}: point order");
                assert_eq!(a.rf.tally, b.rf.tally, "jobs = {jobs}");
                assert_eq!(a.lds.tally, b.lds.tally, "jobs = {jobs}");
                assert_eq!(a.rf.avf_fi.to_bits(), b.rf.avf_fi.to_bits());
                assert_eq!(a.epf.to_bits(), b.epf.to_bits());
            }
        }
    }

    #[test]
    fn minmax_handles_empty() {
        assert_eq!(minmax(&[]), (0.0, 0.0));
        assert_eq!(minmax(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }
}
