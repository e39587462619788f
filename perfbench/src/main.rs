//! Study benchmark for the GPU reliability reproduction.
//!
//! One process runs one benchmark workload: the (device × workload)
//! study under one campaign configuration, on the ten workloads and two
//! of the four devices. The study is a closed loop — each point starts
//! after the previous one ends, on a fresh simulated GPU, so the modelled
//! caches start empty as they do for a user — and whole studies repeat
//! until `--seconds` is used up.
//!
//! * `--trace 0` times `evaluate_point` calls with no instrumentation.
//! * `--trace 1` runs each point twice: once as an untraced
//!   `evaluate_point` call, and once composed from the public calls
//!   `evaluate_point` makes (fault-free ACE + oracle pass,
//!   `CheckpointLadder::build`, one campaign per structure, the FIT/EPF
//!   roll-up), each timed from outside. Spans stay in memory and are
//!   written out at the end.
//!
//! Every run prints a human-readable report and, as its last line, one
//! JSON object of facts (per-point results and metrics) that `run.py`
//! checks against the values recorded in `perfbench/expected/`.

use gpu_archs::all_devices;
use gpu_workloads::{all_workloads, Workload};
use grel_core::{
    campaign::sample_model_sites, eit, epf, evaluate_point, run_adaptive_campaign_hooked,
    run_campaign_with_oracle_hooked, AceAnalyzer, CheckpointLadder, EvalPoint, FitBreakdown,
    GoldenRun, LifetimeOracle, SamplingPlan, StudyConfig, Tally,
};
use grel_telemetry::{Json, MetricsRegistry, RegistryHook};
use simt_sim::{ArchConfig, FaultModelKind, Gpu, NoopObserver, SimError, Structure};
use std::fmt::Write as _;
use std::time::Instant;

/// Campaign worker threads, fixed so every host times the same work.
const JOBS: usize = 2;
/// Fault-site sampling seed, fixed so that `--seed` varies only the
/// workload inputs.
const CAMPAIGN_SEED: u64 = 2017;
/// The paper's ±2.88 % margin at 99 % confidence.
const ADAPTIVE_TARGET: f64 = 0.0288;
/// Pilot draws per stratum on `adaptive-margin`. The default pilot of 8
/// makes one study take minutes; 1 is the smallest, and still runs the
/// engine's strata, rounds and stop rule.
const ADAPTIVE_PILOT: u32 = 1;
/// Injections per structure on `permanent-faults`.
const PERMANENT_INJECTIONS: u32 = 4;
/// The devices of the `adaptive-margin` study, the G80 and Fermi parts;
/// `permanent-faults` runs on the other two, the GT200 and Southern
/// Islands parts, so the two workloads together cover the 40 points. A
/// study on all four devices takes too long to repeat within one run.
const ADAPTIVE_DEVICES: [&str; 2] = ["Quadro FX 5600", "GeForce GTX 480"];

/// The benchmark workloads; see `BENCHMARK.json` for why each exists.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    AdaptiveMargin,
    PermanentFaults,
}

impl Kind {
    const ALL: [Kind; 2] = [Kind::AdaptiveMargin, Kind::PermanentFaults];

    fn name(self) -> &'static str {
        match self {
            Kind::AdaptiveMargin => "adaptive-margin",
            Kind::PermanentFaults => "permanent-faults",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The study configuration of a point whose workload has index `w`
    /// in the paper's figure order.
    fn config(self, w: usize) -> StudyConfig {
        let mut cfg = StudyConfig::paper(CAMPAIGN_SEED);
        cfg.campaign.threads = JOBS;
        match self {
            Kind::AdaptiveMargin => {
                cfg.sampling = SamplingPlan::with_target(ADAPTIVE_TARGET);
                cfg.sampling.pilot = ADAPTIVE_PILOT;
            }
            Kind::PermanentFaults => {
                // Each point runs one evaluate_point, so the two permanent
                // families alternate over the workloads: every device sees
                // both, and no point pays for two fault-free passes.
                cfg.campaign.injections = PERMANENT_INJECTIONS;
                cfg.campaign.fault_model = if w.is_multiple_of(2) {
                    FaultModelKind::Stuck1
                } else {
                    FaultModelKind::Control
                };
            }
        }
        cfg
    }

    /// Whether the workload's study has points on device `name`.
    fn covers(self, name: &str) -> bool {
        ADAPTIVE_DEVICES.contains(&name) == (self == Kind::AdaptiveMargin)
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 2017;
    let mut seconds = 55.0;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        spans,
    })
}

/// The benchmark's inputs: every device and every workload built from
/// the workload seed, and the study's points in workload-major order.
struct Setup {
    devices: Vec<ArchConfig>,
    workloads: Vec<Box<dyn Workload>>,
    points: Vec<(usize, usize)>,
}

/// Builds the set-up and returns it with the seconds it took.
fn timed_setup(kind: Kind, seed: u64) -> (f64, Setup) {
    let t = Instant::now();
    let devices = all_devices();
    let workloads = all_workloads(seed);
    let points = (0..workloads.len())
        .flat_map(|w| (0..devices.len()).map(move |d| (w, d)))
        .filter(|&(_, d)| kind.covers(&devices[d].name))
        .collect();
    let s = std::hint::black_box(Setup {
        devices,
        workloads,
        points,
    });
    (t.elapsed().as_secs_f64(), s)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: with 20 samples, p75 leaves 5 above it.
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set of this process in MiB (Linux `/proc`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// User plus system CPU seconds of this process, all threads (Linux
/// `/proc`).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields after the parenthesised command name start at field 3, so
    // utime and stime (fields 14 and 15, in ticks of 1/100 s) are 11, 12.
    let (_, rest) = stat
        .rsplit_once(") ")
        .expect("command name in /proc/self/stat");
    let ticks: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|x| x.parse().expect("utime and stime are integers"))
        .collect();
    ticks.iter().sum::<u64>() as f64 / 100.0
}

/// A JSON object with fields in the given order.
fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn tally_json(t: &Tally) -> Json {
    Json::Arr([t.masked, t.sdc, t.due, t.hang].map(Json::from).to_vec())
}

/// Adaptive facts of one structure's campaign (traced runs only).
struct AdaptiveFacts {
    structure: &'static str,
    sampled: u64,
    replayed: u64,
    rounds: usize,
}

/// What one point produced, as checked by `run.py`.
struct PointFacts {
    device: String,
    workload: String,
    fault_model: &'static str,
    result: Result<EvalPoint, SimError>,
    /// Whether the fault-free output equals `Workload::reference()`.
    reference_ok: Option<bool>,
    /// Problems found in-process (nondeterminism, traced composition
    /// disagreeing with `evaluate_point`).
    problems: Vec<String>,
    adaptive: Vec<AdaptiveFacts>,
}

impl PointFacts {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("device".to_string(), Json::from(self.device.as_str())),
            ("workload".to_string(), Json::from(self.workload.as_str())),
            ("fault_model".to_string(), Json::from(self.fault_model)),
        ];
        match &self.result {
            Ok(p) => {
                fields.push(("cycles".into(), p.cycles.into()));
                for (name, e) in [("rf", &p.rf), ("lds", &p.lds)] {
                    let structure = obj([
                        ("avf_ace", e.avf_ace.into()),
                        ("occupancy", e.occupancy.into()),
                        ("avf_fi", e.avf_fi.into()),
                        ("tally", tally_json(&e.tally)),
                    ]);
                    fields.push((name.into(), structure));
                }
                fields.push(("error".into(), Json::Null));
            }
            Err(e) => fields.push(("error".into(), e.to_string().into())),
        }
        if let Some(ok) = self.reference_ok {
            fields.push(("reference_ok".into(), ok.into()));
        }
        let problems = self.problems.iter().map(|p| p.as_str().into()).collect();
        fields.push(("problems".into(), Json::Arr(problems)));
        if !self.adaptive.is_empty() {
            let adaptive = self.adaptive.iter().map(|a| {
                obj([
                    ("structure", a.structure.into()),
                    ("sampled", a.sampled.into()),
                    ("replayed", a.replayed.into()),
                    ("rounds", a.rounds.into()),
                ])
            });
            fields.push(("adaptive".into(), Json::Arr(adaptive.collect())));
        }
        Json::Obj(fields)
    }
}

/// Whether two evaluations agree on every recorded field.
fn same_result(a: &Result<EvalPoint, SimError>, b: &Result<EvalPoint, SimError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.cycles == b.cycles
                && [(&a.rf, &b.rf), (&a.lds, &b.lds)].iter().all(|(x, y)| {
                    x.tally == y.tally
                        && x.avf_ace.to_bits() == y.avf_ace.to_bits()
                        && x.occupancy.to_bits() == y.occupancy.to_bits()
                        && x.avf_fi.to_bits() == y.avf_fi.to_bits()
                })
        }
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

/// Times one `evaluate_point` call on point `i` of the study.
fn timed_point(s: &Setup, kind: Kind, i: usize) -> (f64, PointFacts) {
    let (w, d) = s.points[i];
    let cfg = kind.config(w);
    let t = Instant::now();
    let result = evaluate_point(&s.devices[d], s.workloads[w].as_ref(), &cfg);
    let seconds = t.elapsed().as_secs_f64();
    let facts = PointFacts {
        device: s.devices[d].name.clone(),
        workload: s.workloads[w].name().to_string(),
        fault_model: cfg.campaign.fault_model.as_str(),
        result,
        reference_ok: None,
        problems: Vec::new(),
        adaptive: Vec::new(),
    };
    (seconds, facts)
}

/// The reference loop's time on the host the benchmark was written on, a
/// 2.1 GHz Xeon with 2 vCPUs: end-to-end times are reported at the speed
/// that host runs the loop at.
const REFERENCE_LOOP_S: f64 = 0.0094;
/// Steps of one reference loop.
const REFERENCE_STEPS: usize = 1_000_000;

/// The host's speed at the moment, timed with a fixed loop that no change
/// to the program moves.
///
/// Other tenants of a shared host slow this process by up to 1.8×, in
/// phases of seconds to minutes that slow every point alike. The loop is a
/// branchy, data-dependent walk over a table that fits the L1 cache, like
/// the simulator's interpreter loop; of the loops tried, its time tracked
/// those phases best. A time divided by the loop's time right after it,
/// times `REFERENCE_LOOP_S`, is the time the work would have taken at the
/// reference host's speed.
struct HostClock {
    table: Vec<u64>,
}

impl HostClock {
    fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let table = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        HostClock { table }
    }

    /// The factor that takes a time measured just before to the
    /// reference host's speed.
    fn to_reference(&self) -> f64 {
        let table = std::hint::black_box(&self.table);
        let mask = table.len() - 1;
        let t = Instant::now();
        let (mut i, mut acc) = (0, 0u64);
        for _ in 0..REFERENCE_STEPS {
            let v = table[i];
            acc = match v & 7 {
                0 => acc.wrapping_add(v),
                1 => acc ^ (v >> 3),
                2 => acc.rotate_left(5),
                3 => acc.wrapping_mul(v | 1),
                4 => acc.wrapping_sub(v >> 7),
                5 => acc ^ (acc >> 11),
                6 => acc.wrapping_add(v.rotate_right(13)),
                _ => !acc,
            };
            i = (v ^ acc) as usize & mask;
        }
        std::hint::black_box(acc);
        REFERENCE_LOOP_S / t.elapsed().as_secs_f64()
    }
}

/// The untraced studies of one run.
struct Studies {
    /// The time of each study: the sum of its point times.
    totals: Vec<f64>,
    /// Each point's time in every study, indexed by point.
    point_times: Vec<Vec<f64>>,
    /// The same times at the reference host's speed.
    reference_times: Vec<Vec<f64>>,
    /// The first study's results.
    facts: Vec<PointFacts>,
}

impl Studies {
    /// The study time a run reports: the sum over points of each point's
    /// median time over the run's studies, at the reference host's speed.
    fn study_s(&self) -> f64 {
        self.reference_times.iter().map(|t| median(t)).sum()
    }
}

/// Runs every point in a closed loop, once per study, until the next
/// study would end past `seconds` (at least one study). A later study
/// that disagrees with the first is recorded as a problem of the point.
///
/// A set-up is timed after every point, outside the point times, so that
/// `setups` samples the host over the whole run rather than at its start.
/// Both are taken to the reference host's speed with the host clock read
/// between them.
fn untraced_studies(
    s: &Setup,
    kind: Kind,
    seed: u64,
    seconds: f64,
    clock: &HostClock,
    setups: &mut Vec<f64>,
) -> Studies {
    let mut out = Studies {
        totals: Vec::new(),
        point_times: vec![Vec::new(); s.points.len()],
        reference_times: vec![Vec::new(); s.points.len()],
        facts: Vec::new(),
    };
    let started = Instant::now();
    loop {
        let mut study = 0.0;
        for i in 0..s.points.len() {
            let (t, f) = timed_point(s, kind, i);
            let to_reference = clock.to_reference();
            out.point_times[i].push(t);
            out.reference_times[i].push(t * to_reference);
            study += t;
            setups.push(timed_setup(kind, seed).0 * to_reference);
            match out.facts.get_mut(i) {
                None => {
                    println!("  {:<12} {:<16} {:>9.4} s", f.workload, f.device, t);
                    out.facts.push(f);
                }
                Some(first) => {
                    if !same_result(&first.result, &f.result) {
                        first
                            .problems
                            .push(format!("study {} differs from study 0", out.totals.len()));
                    }
                }
            }
        }
        out.totals.push(study);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / out.totals.len() as f64 > seconds {
            return out;
        }
    }
}

/// A bare fault-free run: the simulator layer alone.
struct SimRun {
    seconds: f64,
    cycles: u64,
    warp_insts: u64,
    busy_cycles: u64,
    sm_cycles: u64,
    outputs: Vec<u32>,
}

fn bare_run(arch: &ArchConfig, workload: &dyn Workload) -> Result<SimRun, SimError> {
    let t = Instant::now();
    let mut gpu = Gpu::new(arch.clone());
    let outputs = workload.run(&mut gpu, &mut NoopObserver)?;
    let seconds = t.elapsed().as_secs_f64();
    let totals = gpu.exec_totals();
    Ok(SimRun {
        seconds,
        cycles: gpu.app_cycle(),
        warp_insts: totals.warp_instructions,
        busy_cycles: totals.busy_cycles,
        sm_cycles: gpu.app_cycle() * arch.num_sms as u64,
        outputs,
    })
}

/// One recorded span: a layer call inside one point.
struct Span {
    point: usize,
    name: String,
    parent: Option<String>,
    start: f64,
    end: f64,
}

/// Layer totals of the traced study, summed over points.
#[derive(Default)]
struct Layers {
    sim_s: f64,
    sim_cycles: u64,
    sim_warp_insts: u64,
    sim_busy: u64,
    sim_sm_cycles: u64,
    pass_s: f64,
    ladder_s: f64,
    ladder_rungs: u64,
    ladder_bytes: u64,
    ladder_max_bytes: u64,
    campaign_s: f64,
    campaign_cpu_s: f64,
    sites: u64,
    pruned: u64,
    replayed: u64,
    dues: u64,
    hangs: u64,
    sampling_s: f64,
    repeat_pass_s: f64,
    sampling_sampled: u64,
    sampling_replayed: u64,
    sampling_rounds: u64,
    point_s: f64,
    teardown_s: f64,
    residual_s: f64,
    max_abs_residual_s: f64,
}

/// What the traced composition of one point produced.
struct Composed {
    /// Whether the bare run and the fault-free pass both reproduce
    /// `Workload::reference()`.
    reference_ok: bool,
    cycles: u64,
    /// FI tallies, RF first, then LDS when injected.
    tallies: Vec<Tally>,
    adaptive: Vec<AdaptiveFacts>,
}

/// Composes one point from public calls, timing each from outside.
/// Adds its layer times to `layers`, its spans to `spans` and its row to
/// `table`.
#[allow(clippy::too_many_arguments)]
fn traced_point(
    index: usize,
    arch: &ArchConfig,
    workload: &dyn Workload,
    cfg: &StudyConfig,
    hook: &RegistryHook<'_>,
    epoch: Instant,
    layers: &mut Layers,
    spans: &mut Vec<Span>,
    table: &mut String,
) -> Result<Composed, SimError> {
    let at = |t: Instant| t.duration_since(epoch).as_secs_f64();
    let point_name = format!("point:{}@{}", workload.name(), arch.name);
    let mut span = |name: &str, parent: Option<&str>, start: Instant, end: Instant| {
        spans.push(Span {
            point: index,
            name: name.to_string(),
            parent: parent.map(str::to_string),
            start: at(start),
            end: at(end),
        });
        end.duration_since(start).as_secs_f64()
    };

    // The simulator alone, outside the point: a bare fault-free run.
    let t = Instant::now();
    let sim = bare_run(arch, workload)?;
    span("sim.run", None, t, Instant::now());
    layers.sim_s += sim.seconds;
    layers.sim_cycles += sim.cycles;
    layers.sim_warp_insts += sim.warp_insts;
    layers.sim_busy += sim.busy_cycles;
    layers.sim_sm_cycles += sim.sm_cycles;

    let adaptive = cfg.sampling.enabled() && !cfg.provenance;
    let transient = cfg.campaign.fault_model == FaultModelKind::Transient;
    let structures: Vec<Structure> = std::iter::once(Structure::VectorRegisterFile)
        .chain(
            (workload.uses_local_memory() || cfg.fi_on_unused_lds)
                .then_some(Structure::LocalMemory),
        )
        .collect();

    // `run_adaptive_campaign` repeats the golden run, ladder and oracle
    // capture inside itself; time that pass alone, outside the point, so
    // the adaptive call can be split into repeated pass and sampling.
    let repeat_pass_s = if adaptive {
        let t = Instant::now();
        let golden = grel_core::golden_run(arch, workload)?;
        CheckpointLadder::build(arch, workload, &golden, &cfg.campaign)?;
        if transient {
            LifetimeOracle::capture(arch, workload)?;
        }
        span("repeat_pass", None, t, Instant::now())
    } else {
        0.0
    };

    let point_start = Instant::now();
    let mut children = 0.0;

    // Fault-free pass: golden run with ACE and, when pruning or sampling
    // needs it, the lifetime oracle on the same pass.
    let t = Instant::now();
    let mut gpu = Gpu::new(arch.clone());
    let mut ace = AceAnalyzer::with_mode(arch, cfg.ace_mode);
    let mut oracle =
        ((cfg.campaign.prune || adaptive) && transient).then(|| LifetimeOracle::new(arch));
    let outputs = match oracle.as_mut() {
        Some(oracle) => workload.run(&mut gpu, &mut (&mut ace, &mut *oracle))?,
        None => workload.run(&mut gpu, &mut ace)?,
    };
    let golden = GoldenRun {
        outputs,
        cycles: gpu.app_cycle(),
    };
    let pass_s = span("fault_free_pass", Some(&point_name), t, Instant::now());
    layers.pass_s += pass_s;
    children += pass_s;

    let t = Instant::now();
    let ladder = CheckpointLadder::build(arch, workload, &golden, &cfg.campaign)?;
    let ladder_s = span("ladder", Some(&point_name), t, Instant::now());
    layers.ladder_s += ladder_s;
    layers.ladder_rungs += ladder.len() as u64;
    layers.ladder_bytes += ladder.total_bytes();
    layers.ladder_max_bytes = layers.ladder_max_bytes.max(ladder.total_bytes());
    children += ladder_s;

    let mut tallies = Vec::new();
    let mut adaptive_facts = Vec::new();
    let mut campaign_cols = [0.0f64; 2];
    for (k, &structure) in structures.iter().enumerate() {
        let label = if structure == Structure::VectorRegisterFile {
            "rf"
        } else {
            "lds"
        };
        let cpu = cpu_seconds();
        let t = Instant::now();
        if adaptive {
            let r = run_adaptive_campaign_hooked(
                arch,
                workload,
                structure,
                cfg.campaign,
                cfg.sampling,
                hook,
            )?;
            let call_s = span(
                &format!("adaptive:{label}"),
                Some(&point_name),
                t,
                Instant::now(),
            );
            layers.repeat_pass_s += repeat_pass_s;
            layers.sampling_s += call_s - repeat_pass_s;
            layers.sampling_sampled += r.sampled;
            layers.sampling_replayed += r.replayed;
            layers.sampling_rounds += r.rounds.len() as u64;
            layers.sites += r.sampled;
            layers.pruned += r.sampled - r.replayed;
            layers.replayed += r.replayed;
            children += call_s;
            campaign_cols[k] = call_s;
            tallies.push(r.tally);
            adaptive_facts.push(AdaptiveFacts {
                structure: label,
                sampled: r.sampled,
                replayed: r.replayed,
                rounds: r.rounds.len(),
            });
        } else {
            let replay_oracle = cfg.campaign.prune.then_some(()).and(oracle.as_ref());
            let r = run_campaign_with_oracle_hooked(
                arch,
                workload,
                structure,
                cfg.campaign,
                &golden,
                &ladder,
                replay_oracle,
                hook,
            )?;
            let call_s = span(
                &format!("campaign:{label}"),
                Some(&point_name),
                t,
                Instant::now(),
            );
            layers.campaign_s += call_s;
            layers.campaign_cpu_s += cpu_seconds() - cpu;
            children += call_s;
            campaign_cols[k] = call_s;
            // The pruned count is taken outside the call and the timed
            // span: the same sites, classified by the same oracle.
            let sites = sample_model_sites(
                arch,
                structure,
                cfg.campaign.fault_model,
                golden.cycles,
                cfg.campaign.injections,
                cfg.campaign.seed,
            );
            let pruned =
                replay_oracle.map_or(0, |o| sites.iter().filter(|&&s| o.is_dead(s)).count()) as u64;
            layers.sites += sites.len() as u64;
            layers.pruned += pruned;
            layers.replayed += sites.len() as u64 - pruned;
            tallies.push(r.tally);
        }
        let last = tallies.last().expect("pushed above");
        layers.dues += last.due;
        layers.hangs += last.hang;
    }

    // The roll-up evaluate_point finishes with: structure reports, FIT,
    // EIT and EPF. Not a layer of its own; it lands in the residual.
    let avf = |t: &Tally| {
        if t.total() == 0 {
            0.0
        } else {
            t.failures() as f64 / t.total() as f64
        }
    };
    let lds_avf = tallies
        .get(1)
        .map_or(ace.report(Structure::LocalMemory).avf_ace, avf);
    let srf =
        (arch.srf_words_per_sm() > 0).then(|| ace.report(Structure::ScalarRegisterFile).avf_ace);
    let fit = FitBreakdown::from_avf(arch, avf(&tallies[0]), lds_avf, srf.unwrap_or(0.0));
    std::hint::black_box(epf(eit(arch, golden.cycles), fit.total()));
    // evaluate_point frees its device, analyzer, oracle and ladder when
    // it returns; so does the composed point, inside its span.
    let t = Instant::now();
    drop((gpu, ace, oracle, ladder));
    let teardown_s = span("teardown", Some(&point_name), t, Instant::now());
    layers.teardown_s += teardown_s;
    children += teardown_s;
    let point_s = span(&point_name, None, point_start, Instant::now());
    let residual = point_s - children;
    layers.point_s += point_s;
    layers.residual_s += residual;
    layers.max_abs_residual_s = layers.max_abs_residual_s.max(residual.abs());
    let _ = writeln!(
        table,
        "{:<28} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>9.5} {:>8.4} {:>8.4}",
        point_name,
        pass_s,
        ladder_s,
        campaign_cols[0],
        campaign_cols[1],
        teardown_s,
        residual,
        point_s,
        repeat_pass_s
    );
    let reference = workload.reference();
    Ok(Composed {
        reference_ok: sim.outputs == reference && golden.outputs == reference,
        cycles: golden.cycles,
        tallies,
        adaptive: adaptive_facts,
    })
}

fn metric(out: &mut Vec<(String, Json)>, name: &str, value: f64, unit: &str) {
    out.push((
        name.into(),
        obj([("value", value.into()), ("unit", unit.into())]),
    ));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let clock = HostClock::new();
    let (first_setup, s) = timed_setup(args.kind, args.seed);
    let mut setups = vec![first_setup * clock.to_reference()];
    println!(
        "workload {}, seed {}, {} points, {} campaign threads",
        args.kind.name(),
        args.seed,
        s.points.len(),
        JOBS
    );

    let mut metrics = Vec::new();
    let facts = if !args.trace {
        let mut studies = untraced_studies(&s, args.kind, args.seed, args.seconds, &clock, &mut setups);
        // The output check: every point's fault-free output against the
        // host-computed reference. It runs after the timed studies, so it
        // may use every job thread.
        let per_thread = s.points.len().div_ceil(JOBS);
        std::thread::scope(|scope| {
            for (chunk, points) in studies
                .facts
                .chunks_mut(per_thread)
                .zip(s.points.chunks(per_thread))
            {
                let s = &s;
                scope.spawn(move || {
                    for (f, &(w, d)) in chunk.iter_mut().zip(points) {
                        let workload = s.workloads[w].as_ref();
                        f.reference_ok = Some(
                            bare_run(&s.devices[d], workload)
                                .is_ok_and(|r| r.outputs == workload.reference()),
                        );
                    }
                });
            }
        });
        let all_points: Vec<f64> = studies.point_times.concat();
        println!(
            "{} studies: {:?} s; point p50 {:.4} s, p75 {:.4} s over {} samples; \
             study {:.4} s at the reference host's speed",
            studies.totals.len(),
            studies.totals,
            percentile(&all_points, 0.5),
            percentile(&all_points, 0.75),
            all_points.len(),
            studies.study_s()
        );
        metric(&mut metrics, "setup_s", median(&setups), "s");
        metric(&mut metrics, "study_s", studies.study_s(), "s");
        metric(&mut metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
        studies.facts
    } else {
        let registry = MetricsRegistry::new();
        let hook = RegistryHook::new(&registry);
        let mut layers = Layers::default();
        let mut spans = Vec::new();
        let mut facts = Vec::new();
        let mut point_times = Vec::new();
        let mut table = format!(
            "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8}\n",
            "point",
            "pass_s",
            "ladder_s",
            "rf_s",
            "lds_s",
            "free_s",
            "resid_s",
            "point_s",
            "rpass_s"
        );
        let epoch = Instant::now();
        for (i, &(w, d)) in s.points.iter().enumerate() {
            let cfg = args.kind.config(w);
            let (arch, workload) = (&s.devices[d], s.workloads[w].as_ref());
            // Each point runs untraced and traced; the side that runs
            // first alternates, so neither always meets the allocator
            // state the other left behind.
            let first = i.is_multiple_of(2).then(|| timed_point(&s, args.kind, i));
            let traced = traced_point(
                i,
                arch,
                workload,
                &cfg,
                &hook,
                epoch,
                &mut layers,
                &mut spans,
                &mut table,
            );
            let (t, mut f) = first.unwrap_or_else(|| timed_point(&s, args.kind, i));
            point_times.push(t);
            match traced {
                Ok(c) => {
                    f.reference_ok = Some(c.reference_ok);
                    if let Ok(p) = &f.result {
                        let agree = p.cycles == c.cycles
                            && c.tallies
                                .iter()
                                .zip([p.rf.tally, p.lds.tally])
                                .all(|(a, b)| *a == b);
                        if !agree {
                            f.problems
                                .push("traced composition differs from evaluate_point".into());
                        }
                    }
                    f.adaptive = c.adaptive;
                }
                Err(e) => f.problems.push(format!("traced point failed: {e}")),
            }
            facts.push(f);
        }
        let study_s: f64 = point_times.iter().sum();
        let snap = registry.snapshot();
        let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
        let (forks, batched) = (
            counter("campaign_batch_forks_total"),
            counter("campaign_batched_total"),
        );
        let hang_counter = counter("campaign_hang_total");

        print!("{table}");
        println!(
            "{:<28} {:>8.4} {:>8.4} {:>17.4} {:>8.4} {:>9.5} {:>8.4} {:>8.4}",
            "sum",
            layers.pass_s,
            layers.ladder_s,
            layers.campaign_s + layers.sampling_s + layers.repeat_pass_s,
            layers.teardown_s,
            layers.residual_s,
            layers.point_s,
            layers.repeat_pass_s
        );
        println!(
            "each point = pass + ladder + campaigns + free + residual; residual {:.4} s = {:.3}% of {:.4} s, \
             largest |residual| of one point {:.6} s",
            layers.residual_s,
            100.0 * ratio(layers.residual_s, layers.point_s),
            layers.point_s,
            layers.max_abs_residual_s
        );
        // The repeated passes are work the public adaptive call does, not
        // tracing cost, so they are taken out of the overhead.
        let overhead = layers.point_s - layers.repeat_pass_s - study_s;
        println!(
            "untraced study {study_s:.4} s; traced points {:.4} s, of which repeated passes {:.4} s; \
             tracing overhead {overhead:.4} s",
            layers.point_s, layers.repeat_pass_s
        );
        println!(
            "forks {forks} of {batched} batched lanes; hangs {} (registry {hang_counter})",
            layers.hangs
        );

        let m = &mut metrics;
        metric(m, "sim.run_s", layers.sim_s, "s");
        metric(m, "sim.cycles", layers.sim_cycles as f64, "count");
        metric(m, "sim.warp_insts", layers.sim_warp_insts as f64, "count");
        metric(
            m,
            "sim.cycles_per_s",
            ratio(layers.sim_cycles as f64, layers.sim_s),
            "1/s",
        );
        metric(
            m,
            "sim.idle_sm_frac",
            1.0 - ratio(layers.sim_busy as f64, layers.sim_sm_cycles as f64),
            "ratio",
        );
        metric(m, "ace.pass_s", layers.pass_s, "s");
        metric(m, "ace.overhead_x", ratio(layers.pass_s, layers.sim_s), "x");
        metric(m, "ladder.build_s", layers.ladder_s, "s");
        metric(m, "ladder.rungs", layers.ladder_rungs as f64, "count");
        metric(m, "ladder.bytes", layers.ladder_bytes as f64, "bytes");
        metric(
            m,
            "ladder.max_bytes",
            layers.ladder_max_bytes as f64,
            "bytes",
        );
        metric(m, "campaign.run_s", layers.campaign_s, "s");
        metric(m, "campaign.sites", layers.sites as f64, "count");
        metric(m, "campaign.pruned", layers.pruned as f64, "count");
        metric(m, "campaign.replayed", layers.replayed as f64, "count");
        metric(
            m,
            "campaign.prune_ratio",
            ratio(layers.pruned as f64, layers.sites as f64),
            "ratio",
        );
        metric(
            m,
            "campaign.replays_per_s",
            ratio(
                layers.replayed as f64,
                layers.campaign_s + layers.sampling_s,
            ),
            "1/s",
        );
        metric(
            m,
            "campaign.cpu_util",
            ratio(layers.campaign_cpu_s, layers.campaign_s * JOBS as f64),
            "ratio",
        );
        metric(m, "campaign.batched", batched, "count");
        metric(m, "campaign.forks", forks, "count");
        metric(m, "campaign.fork_ratio", ratio(forks, batched), "ratio");
        metric(m, "campaign.hangs", layers.hangs as f64, "count");
        metric(m, "campaign.dues", layers.dues as f64, "count");
        metric(m, "sampling.run_s", layers.sampling_s, "s");
        metric(m, "sampling.repeat_pass_s", layers.repeat_pass_s, "s");
        metric(
            m,
            "sampling.sampled",
            layers.sampling_sampled as f64,
            "count",
        );
        metric(
            m,
            "sampling.replayed",
            layers.sampling_replayed as f64,
            "count",
        );
        metric(m, "sampling.rounds", layers.sampling_rounds as f64, "count");
        metric(m, "study.point_s", layers.point_s, "s");
        metric(m, "study.teardown_s", layers.teardown_s, "s");
        metric(m, "study.residual_s", layers.residual_s, "s");
        metric(m, "study.untraced_s", study_s, "s");
        metric(m, "study.point_p50_s", percentile(&point_times, 0.5), "s");
        metric(m, "study.point_p75_s", percentile(&point_times, 0.75), "s");
        metric(
            m,
            "study.injections_per_s",
            ratio(layers.sites as f64, study_s),
            "1/s",
        );
        metric(m, "trace.overhead_s", overhead, "s");

        if let Some(path) = &args.spans {
            let mut out = String::new();
            for sp in &spans {
                let span = obj([
                    ("trace", sp.point.into()),
                    ("name", sp.name.as_str().into()),
                    (
                        "parent",
                        sp.parent.as_deref().map_or(Json::Null, Json::from),
                    ),
                    ("start_s", sp.start.into()),
                    ("end_s", sp.end.into()),
                ]);
                let _ = writeln!(out, "{span}");
            }
            std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
        }
        facts
    };

    Ok(obj([
        ("workload", args.kind.name().into()),
        ("seed", args.seed.into()),
        ("traced", args.trace.into()),
        (
            "points",
            Json::Arr(facts.iter().map(PointFacts::to_json).collect()),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string())
}

fn main() {
    match run() {
        Ok(facts) => println!("{facts}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
