//! The three simulation workloads: the Figure 12 sweep, a checkpointed
//! `S(t)` study, and the trip-measures table.
//!
//! Each has a fixed seed (derived from `--seed`) and a fixed
//! replication budget, never the precision rule, so each pass is
//! bitwise-identical work. A pass is timed from outside, around calls
//! into the program's public functions, each scaled by the reference
//! kernel around it (see `calib`); the run reports each call's median
//! scaled time over its passes. A traced pass repeats the same work
//! through the same functions with spans around each layer's calls.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ahs_bench::{fig12, RunConfig};
use ahs_core::{trip_measures, AhsModel, CompiledModel, Params, TripMeasures, UnsafetyEvaluator};
use ahs_des::{split_seed, Backend, RewardSpec, RewardStudy, StudyCheckpoint};
use ahs_obs::{Json, Metrics, MetricsSnapshot, ProgressSink};
use ahs_stats::TimeGrid;

use crate::calib::{self, Meter, Sample};
use crate::checks::{self, Estimate};
use crate::host::{peak_rss_mib, process_cpu_seconds};
use crate::stats::{fastest, median};
use crate::trace::{self, Tracer};
use crate::Outcome;

/// Worker threads of every simulation workload. One: the machine's two
/// cores are shared with other processes, and a study on two threads
/// slows by whatever runs beside it on either core.
const THREADS: usize = 1;

/// Figure 12's capacities and failure rates, and the seed salt its
/// series use (`ahs_bench::fig12` salts point `i` with `0x1200 + i`).
const FIG12_NS: [usize; 5] = [10, 12, 14, 16, 18];
const FIG12_LAMBDAS: [f64; 3] = [1e-6, 1e-5, 1e-4];
const FIG12_SALT: u64 = 0x12_00;
/// Replications per Figure 12 point: within one Study chunk (1000), so
/// the figure's studies run one after another.
const FIG12_REPS: u64 = 64;

/// The nominal study: n = 8, λ = 1e-5, DD, five points to 10 h.
const STUDY_N: usize = 8;
const STUDY_LAMBDA: f64 = 1e-5;
/// Two Study chunks of 1000, so the study merges chunks and writes two
/// checkpoints.
const STUDY_REPS: u64 = 2_000;
/// A checkpoint after every chunk.
const STUDY_CHECKPOINT_EVERY: u64 = 1_000;
const CHECKPOINT_GENERATIONS: u32 = 2;
/// Timed `write_rotated` calls per traced pass.
const CHECKPOINT_WRITES: usize = 8;

/// The trip-measures table: n = 10, four failure rates, a 10-hour trip.
const TRIP_N: usize = 10;
const TRIP_LAMBDAS: [f64; 4] = [1e-5, 1e-4, 1e-3, 1e-2];
const TRIP_HOURS: f64 = 10.0;
const TRIP_REPS: u64 = 25;

/// Exact-reference checks at n = 1 (see `exact.rs`).
const EXACT_TIMES: [f64; 2] = [2.0, 6.0];
const EXACT_STUDY_REPS: u64 = 20_000;
const EXACT_TRIP_REPS: u64 = 4_000;

/// Fewest passes per run: their median is reported, and the
/// estimates of every pass must be bitwise equal.
const MIN_PASSES: usize = 3;
/// Least time spent timing set-up per pass.
const MIN_SETUP_SECONDS: f64 = 0.1;

/// Which simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    /// Figure 12 through `ahs_bench::fig12`.
    Fig12,
    /// One checkpointed `S(t)` study through `UnsafetyEvaluator`.
    StudyN8,
    /// The trip-measures table through `trip_measures`.
    Trip,
}

/// What one pass produced.
struct PassOutput {
    /// Each call into the program, timed, in a fixed order: the figure,
    /// the study, or one trip table per failure rate.
    units: Vec<Sample>,
    /// Every estimate, flattened in a fixed order.
    estimates: Vec<Estimate>,
    /// Replications quarantined.
    quarantined: u64,
    /// Trip-measures rows (trip workload only).
    trip: Vec<TripMeasures>,
}

/// Layer counters of one traced pass.
#[derive(Default)]
struct Layers {
    wall: f64,
    metrics: Option<MetricsSnapshot>,
    progress_events: u64,
    telemetry_dropped: u64,
    checkpoint_writes: u64,
    checkpoint_write_s: f64,
    checkpoint_bytes: u64,
    points: u64,
}

impl Sim {
    fn seed(self, seed: u64) -> u64 {
        // Kept below 2^53 so it survives any JSON round trip exactly.
        split_seed(seed, self as u64) >> 11
    }

    /// Every model configuration the workload evaluates.
    fn configs(self) -> Vec<Params> {
        let p = |n: usize, lambda: f64| {
            Params::builder()
                .n(n)
                .lambda(lambda)
                .build()
                .expect("valid workload parameters")
        };
        match self {
            Sim::Fig12 => FIG12_LAMBDAS
                .iter()
                .flat_map(|&l| FIG12_NS.iter().map(move |&n| p(n, l)))
                .collect(),
            Sim::StudyN8 => vec![p(STUDY_N, STUDY_LAMBDA)],
            Sim::Trip => TRIP_LAMBDAS.iter().map(|&l| p(TRIP_N, l)).collect(),
        }
    }

    /// Kernel runs per reading around a call (see `calib::Meter`): the
    /// figure and the study are one call of seconds per pass, the trip
    /// table's rows four short ones.
    fn kernel_runs(self) -> usize {
        match self {
            Sim::Fig12 | Sim::StudyN8 => 5,
            Sim::Trip => 1,
        }
    }

    fn studies_per_pass(self) -> u64 {
        match self {
            Sim::Fig12 => (FIG12_NS.len() * FIG12_LAMBDAS.len()) as u64,
            Sim::StudyN8 => 1,
            Sim::Trip => 3 * TRIP_LAMBDAS.len() as u64,
        }
    }

    fn fig_config(self, seed: u64) -> RunConfig {
        RunConfig {
            replications: FIG12_REPS,
            seed: self.seed(seed),
            threads: THREADS,
            ..RunConfig::quick()
        }
    }

    fn study_grid() -> TimeGrid {
        TimeGrid::new(vec![2.0, 4.0, 6.0, 8.0, 10.0])
    }

    fn study_evaluator(self, seed: u64, checkpoint: &Path) -> UnsafetyEvaluator {
        UnsafetyEvaluator::new(Sim::StudyN8.configs().remove(0))
            .with_seed(self.seed(seed))
            .with_threads(THREADS)
            .with_replications(STUDY_REPS)
            .with_checkpoint(checkpoint, STUDY_CHECKPOINT_EVERY)
            .with_checkpoint_generations(CHECKPOINT_GENERATIONS)
    }

    /// One untraced pass: the unit of work as a user runs it.
    fn pass(self, seed: u64, dir: &Path, meter: &mut Meter) -> Result<PassOutput, String> {
        match self {
            Sim::Fig12 => {
                let (run, unit) = meter.time(|| fig12(&self.fig_config(seed)));
                let run = run.map_err(|e| e.to_string())?;
                Ok(PassOutput {
                    units: vec![unit],
                    estimates: figure_estimates(&run.figure),
                    quarantined: quarantined(&run.manifest.extra),
                    trip: Vec::new(),
                })
            }
            Sim::StudyN8 => {
                let path = fresh_checkpoint(dir)?;
                let ev = self.study_evaluator(seed, &path);
                let (curve, unit) = meter.time(|| ev.evaluate(&Sim::study_grid()));
                let curve = curve.map_err(|e| e.to_string())?;
                Ok(PassOutput {
                    units: vec![unit],
                    estimates: curve_estimates(&curve),
                    quarantined: curve.quarantined(),
                    trip: Vec::new(),
                })
            }
            Sim::Trip => {
                let mut rows = Vec::new();
                let mut units = Vec::new();
                for params in self.configs() {
                    let (row, unit) = meter
                        .time(|| trip_measures(&params, TRIP_HOURS, TRIP_REPS, self.seed(seed)));
                    rows.push(row.map_err(|e| e.to_string())?);
                    units.push(unit);
                }
                Ok(PassOutput {
                    units,
                    estimates: rows.iter().flat_map(trip_estimates).collect(),
                    quarantined: 0,
                    trip: rows,
                })
            }
        }
    }

    /// One traced pass: the same work with spans around each layer's
    /// calls and the program's counters attached. Returns the pass's
    /// estimates (which must equal the untraced ones bit for bit) and
    /// its layer counters.
    fn traced_pass(
        self,
        seed: u64,
        dir: &Path,
        tracer: &Tracer,
        group: u64,
    ) -> Result<(Vec<Estimate>, Layers), String> {
        let telemetry = dir.join(format!("telemetry-{group}.jsonl"));
        let mut layers = Layers::default();
        let estimates = match self {
            Sim::Fig12 => {
                let cfg = RunConfig {
                    telemetry: Some(telemetry.display().to_string()),
                    ..self.fig_config(seed)
                };
                let start = Instant::now();
                let run = tracer
                    .span("bench.figure", None, group, |_| fig12(&cfg))
                    .map_err(|e| e.to_string())?;
                layers.wall = start.elapsed().as_secs_f64();
                let figure = figure_estimates(&run.figure);
                layers.points = figure.len() as u64;

                // Each point again through the evaluator, with the
                // figure's own parameters and salts.
                let metrics = Arc::new(Metrics::new());
                let mut points = Vec::new();
                tracer
                    .span("bench.sweep", None, group, |sweep| {
                        // `configs` is λ-major, like the figure's series.
                        for (k, params) in self.configs().into_iter().enumerate() {
                            let salt = FIG12_SALT.wrapping_add((k % FIG12_NS.len()) as u64);
                            let ev = UnsafetyEvaluator::new(params.clone())
                                .with_seed(cfg.seed ^ salt)
                                .with_replications(FIG12_REPS)
                                .with_threads(THREADS)
                                .with_metrics(metrics.clone());
                            let compiled = tracer.span("core.build", sweep, group, |_| {
                                CompiledModel::build(&params)
                            })?;
                            let curve = tracer.span("des.study", sweep, group, |_| {
                                ev.evaluate_compiled(&TimeGrid::new(vec![6.0]), &compiled)
                            })?;
                            points.extend(curve_estimates(&curve).into_iter().map(|p| Estimate {
                                x: params.n as f64,
                                ..p
                            }));
                        }
                        Ok::<(), ahs_core::AhsError>(())
                    })
                    .map_err(|e| e.to_string())?;
                checks::bitwise_equal("per-point evaluations vs fig12", &figure, &points)?;
                let figure_metrics = run
                    .manifest
                    .metrics
                    .clone()
                    .unwrap_or_else(MetricsSnapshot::empty);
                let sweep_metrics = metrics.snapshot();
                if figure_metrics.events_total() != sweep_metrics.events_total() {
                    return Err(format!(
                        "fig12 counted {} steps, its points one by one {}",
                        figure_metrics.events_total(),
                        sweep_metrics.events_total()
                    ));
                }
                layers.metrics = Some(sweep_metrics);
                figure
            }
            Sim::StudyN8 => {
                let path = fresh_checkpoint(dir)?;
                let metrics = Arc::new(Metrics::new());
                let progress = Arc::new(ProgressSink::file(&telemetry).map_err(|e| e.to_string())?);
                let ev = self
                    .study_evaluator(seed, &path)
                    .with_metrics(metrics.clone())
                    .with_progress(progress.clone());
                let params = ev.params().clone();
                let start = Instant::now();
                let curve = tracer
                    .span("pass", None, group, |pass| {
                        let compiled = tracer
                            .span("core.build", pass, group, |_| CompiledModel::build(&params))?;
                        tracer.span("des.study", pass, group, |_| {
                            ev.evaluate_compiled(&Sim::study_grid(), &compiled)
                        })
                    })
                    .map_err(|e| e.to_string())?;
                layers.wall = start.elapsed().as_secs_f64();
                layers.metrics = Some(metrics.snapshot());
                layers.telemetry_dropped = progress.dropped();

                let checkpoint = StudyCheckpoint::load(&path).map_err(|e| e.to_string())?;
                layers.checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                let scratch = dir.join(format!("rewrite-{group}.checkpoint.json"));
                let mut writes = Vec::with_capacity(CHECKPOINT_WRITES);
                for _ in 0..CHECKPOINT_WRITES {
                    let t = Instant::now();
                    tracer
                        .span("des.checkpoint.write", None, group, |_| {
                            checkpoint.write_rotated(&scratch, CHECKPOINT_GENERATIONS)
                        })
                        .map_err(|e| e.to_string())?;
                    writes.push(t.elapsed().as_secs_f64());
                }
                layers.checkpoint_write_s = fastest(&writes).map_or(0.0, |i| writes[i]);
                curve_estimates(&curve)
            }
            Sim::Trip => {
                let metrics = Arc::new(Metrics::new());
                let start = Instant::now();
                let rows = tracer
                    .span("pass", None, group, |pass| {
                        self.configs()
                            .iter()
                            .map(|params| {
                                traced_trip_measures(
                                    params,
                                    self.seed(seed),
                                    &metrics,
                                    tracer,
                                    pass,
                                    group,
                                )
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .map_err(|e| e.to_string())?;
                layers.wall = start.elapsed().as_secs_f64();
                layers.metrics = Some(metrics.snapshot());
                rows.iter().flat_map(trip_estimates).collect()
            }
        };
        if let Ok(text) = std::fs::read_to_string(&telemetry) {
            layers.progress_events = text.lines().count() as u64;
            layers.checkpoint_writes = text
                .lines()
                .filter(|l| l.contains("\"event\":\"checkpoint_written\""))
                .count() as u64;
        }
        Ok((estimates, layers))
    }

    /// Checks that need no pass output: the evaluator path against the
    /// exact CTMC solution at n = 1. Each comparison is also recorded in
    /// `report` as `[estimate, half-width, exact]`.
    fn exact_checks(self, seed: u64, report: &mut Vec<(String, Json)>) -> Vec<checks::Check> {
        let mut out = Vec::new();
        let mut compare = |label: String, y: f64, hw: f64, exact: f64| {
            out.push(checks::matches_exact(&label, y, hw, exact));
            report.push((label, Json::Arr(vec![y.into(), hw.into(), exact.into()])));
        };
        match self {
            Sim::Fig12 | Sim::StudyN8 => {
                let exact = match crate::exact::unsafety(&EXACT_TIMES) {
                    Ok(v) => v,
                    Err(e) => return vec![Err(format!("exact S(t): {e}"))],
                };
                let curve = UnsafetyEvaluator::new(crate::exact::reference_params())
                    .with_seed(split_seed(self.seed(seed), 1) >> 11)
                    .with_threads(THREADS)
                    .with_replications(EXACT_STUDY_REPS)
                    .evaluate(&TimeGrid::new(EXACT_TIMES.to_vec()));
                match curve {
                    Ok(curve) => {
                        for (p, exact) in curve.points().iter().zip(exact) {
                            compare(
                                format!("n=1 S({}h) vs uniformization", p.x),
                                p.y,
                                p.half_width,
                                exact,
                            );
                        }
                    }
                    Err(e) => return vec![Err(format!("n=1 study: {e}"))],
                }
            }
            Sim::Trip => {
                let exact = crate::exact::recovery_fraction(TRIP_HOURS);
                let measured = trip_measures(
                    &crate::exact::reference_params(),
                    TRIP_HOURS,
                    EXACT_TRIP_REPS,
                    split_seed(self.seed(seed), 1) >> 11,
                );
                match (measured, exact) {
                    (Ok(m), Ok(exact)) => compare(
                        "n=1 recovery fraction vs integrated transient probability".into(),
                        m.recovery_time_fraction,
                        m.recovery_time_fraction_hw,
                        exact,
                    ),
                    (Err(e), _) | (_, Err(e)) => {
                        return vec![Err(format!("n=1 trip measures: {e}"))]
                    }
                }
            }
        }
        out
    }

    /// Checks on the output of one pass.
    fn output_checks(self, out: &PassOutput) -> Vec<checks::Check> {
        match self {
            Sim::Fig12 => {
                let mut v = vec![checks::unsafety_points("fig12", &out.estimates, FIG12_REPS)];
                // estimates are λ-major: series λ, then n.
                for (i, &n) in FIG12_NS.iter().enumerate() {
                    let by_lambda: Vec<f64> = (0..FIG12_LAMBDAS.len())
                        .map(|l| out.estimates[l * FIG12_NS.len() + i].y)
                        .collect();
                    v.push(checks::increasing(
                        &format!("fig12 S(6h) over λ at n={n}"),
                        &by_lambda,
                    ));
                }
                v
            }
            Sim::StudyN8 => vec![
                checks::unsafety_points("study-n8", &out.estimates, STUDY_REPS),
                checks::non_decreasing("study-n8", &out.estimates),
            ],
            Sim::Trip => out
                .trip
                .iter()
                .zip(TRIP_LAMBDAS)
                .map(|(m, l)| {
                    checks::unit_fraction(
                        &format!("recovery fraction at λ={l:e}"),
                        m.recovery_time_fraction,
                    )
                })
                .collect(),
        }
    }
}

/// Runs a simulation workload for about `seconds` and summarises it.
pub fn run(sim: Sim, seed: u64, seconds: f64, traced: bool, dir: &Path) -> Outcome {
    let tracer = Tracer::new(traced);
    let configs = sim.configs();
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut setup_rounds = 0usize;
    // The fastest set-up round of each iteration, at reference speed.
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    // Each call of a pass, over the passes.
    let mut calls: Vec<Vec<Sample>> = Vec::new();
    let mut references = Vec::new();
    let mut first: Option<PassOutput> = None;
    let mut traced_passes: Vec<Layers> = Vec::new();
    let mut fingerprint = 0u64;
    let mut quarantined = 0u64;

    loop {
        let iteration = Instant::now();
        // Set-up: compile every configuration, repeatedly, keeping the
        // fastest round; the kernel runs before and after.
        let mut meter = Meter::new(sim.kernel_runs());
        let (rounds, sample) = meter.time(|| {
            let mut rounds = Vec::new();
            let setup_start = Instant::now();
            while rounds.is_empty() || setup_start.elapsed().as_secs_f64() < MIN_SETUP_SECONDS {
                let t = Instant::now();
                for params in &configs {
                    match CompiledModel::build(params) {
                        Ok(m) => fingerprint = m.fingerprint(),
                        Err(e) => out.failures.push(format!("building {params:?}: {e}")),
                    }
                }
                rounds.push(t.elapsed().as_secs_f64());
            }
            rounds
        });
        setup_rounds += rounds.len();
        let fastest_round = rounds.iter().copied().fold(f64::INFINITY, f64::min);
        setups.push(calib::at_reference_speed(fastest_round, sample.reference));

        let cpu = process_cpu_seconds();
        let t = Instant::now();
        let pass = sim.pass(seed, dir, &mut meter);
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(process_cpu_seconds() - cpu);
        out.attempted += sim.studies_per_pass();
        match pass {
            Ok(pass) => {
                quarantined += pass.quarantined;
                calls.resize(pass.units.len(), Vec::new());
                for (samples, unit) in calls.iter_mut().zip(&pass.units) {
                    samples.push(*unit);
                    references.push(unit.reference);
                }
                if sim == Sim::StudyN8 {
                    checks::collect(&mut out.failures, [checkpoint_check(dir, fingerprint)]);
                }
                match &first {
                    None => {
                        checks::collect(&mut out.failures, sim.output_checks(&pass));
                        first = Some(pass);
                    }
                    Some(f) => checks::collect(
                        &mut out.failures,
                        [checks::bitwise_equal(
                            &format!("pass {} vs pass 0", walls.len() - 1),
                            &f.estimates,
                            &pass.estimates,
                        )],
                    ),
                }
            }
            Err(e) => {
                out.failed += sim.studies_per_pass();
                out.errors.push(e);
            }
        }

        if traced {
            let group = walls.len() as u64;
            match sim.traced_pass(seed, dir, &tracer, group) {
                Ok((estimates, layers)) => {
                    if let Some(f) = &first {
                        checks::collect(
                            &mut out.failures,
                            [checks::bitwise_equal(
                                "traced pass vs untraced",
                                &f.estimates,
                                &estimates,
                            )],
                        );
                    }
                    traced_passes.push(layers);
                }
                Err(e) => out.failures.push(format!("traced pass: {e}")),
            }
        }

        let now = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_PASSES && now + iteration.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mib(0).unwrap_or(0.0);
    let check_start = Instant::now();
    let mut exact = Vec::new();
    checks::collect(&mut out.failures, sim.exact_checks(seed, &mut exact));
    out.details.push(("exact_checks".into(), Json::Obj(exact)));
    out.details.push((
        "exact_check_s".into(),
        check_start.elapsed().as_secs_f64().into(),
    ));

    // Each call's median time at reference speed over the passes, summed
    // over the calls of a pass (see `calib`).
    let scaled = |f: fn(&Sample) -> f64| -> f64 {
        calls
            .iter()
            .map(|samples| median(&samples.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0))
            .sum()
    };
    let wall = scaled(Sample::wall_at_reference);
    out.metric("setup_s", median(&setups).unwrap_or(0.0));
    out.metric("wall_s", wall);
    out.metric("cpu_s", scaled(Sample::cpu_at_reference));
    out.metric("peak_rss_mib", peak_rss);
    // One request for the figure, study or table is one job; the passes
    // repeat identical work, so the pass stands for its latency.
    out.metric("job_p50_s", wall);
    out.metric("job_p90_s", wall);
    out.metric("jobs_per_s", 1.0 / wall);

    if traced {
        let spans = tracer.spans();
        let t_walls: Vec<f64> = traced_passes.iter().map(|l| l.wall).collect();
        if let Some(i) = fastest(&t_walls) {
            let layers = &traced_passes[i];
            let group = Some(i as u64 + 1);
            layer_metrics(&mut out, sim, layers, &spans, group);
            let untraced = fastest(&walls).map_or(0.0, |i| walls[i]);
            out.metric("trace.overhead_s", layers.wall - untraced);
        }
        out.spans = spans;
    }

    out.details
        .push(("passes".into(), (walls.len() as u64).into()));
    out.details.push((
        "pass_wall_s".into(),
        Json::Arr(walls.iter().map(|&w| w.into()).collect()),
    ));
    out.details.push((
        "reference_s".into(),
        Json::Arr(references.iter().map(|&w| w.into()).collect()),
    ));
    out.details.push((
        "pass_cpu_s".into(),
        Json::Arr(cpus.iter().map(|&w| w.into()).collect()),
    ));
    out.details
        .push(("setup_rounds".into(), (setup_rounds as u64).into()));
    out.details.push(("studies".into(), out.attempted.into()));
    out.details
        .push(("quarantined_replications".into(), quarantined.into()));
    out
}

fn layer_metrics(
    out: &mut Outcome,
    sim: Sim,
    layers: &Layers,
    spans: &[trace::Span],
    group: Option<u64>,
) {
    let builds = spans
        .iter()
        .filter(|s| s.name == "core.build" && group.is_none_or(|g| s.group == g))
        .count();
    out.metric(
        "core.build_s",
        trace::self_time_of(spans, "core.build", group),
    );
    out.metric("core.builds", builds as f64);
    if sim == Sim::Fig12 {
        out.metric(
            "bench.figure_s",
            trace::total_time_of(spans, "bench.figure", group),
        );
        out.metric("bench.points", layers.points as f64);
    }
    if let Some(m) = &layers.metrics {
        let busy: f64 = m.workers.iter().map(|w| w.seconds).sum();
        let steps = m.events_total() as f64;
        out.metric("des.steps", steps);
        out.metric("des.reps", m.replications as f64);
        out.metric("des.cascades", m.cascades as f64);
        out.metric("des.chunk_merges", m.chunk_merges as f64);
        let ess = m.effective_sample_size();
        if ess.is_finite() && m.replications > 0 {
            out.metric("des.ess_per_rep", ess / m.replications as f64);
        }
        if sim == Sim::Trip {
            let reward = trace::total_time_of(spans, "des.reward.study", group);
            out.metric("des.reward.study_s", reward);
            out.metric("des.reward.steps_per_s", steps / reward);
        } else {
            let study = trace::total_time_of(spans, "des.study", group);
            out.metric("des.study_s", study);
            out.metric("des.busy_s", busy);
            out.metric("des.steps_per_busy_s", steps / busy);
            out.metric("des.utilisation", busy / (THREADS as f64 * study));
        }
    }
    if sim == Sim::StudyN8 {
        out.metric("des.checkpoint.writes", layers.checkpoint_writes as f64);
        out.metric("des.checkpoint.write_s", layers.checkpoint_write_s);
        out.metric("des.checkpoint.bytes", layers.checkpoint_bytes as f64);
    }
    out.metric("obs.progress_events", layers.progress_events as f64);
    out.metric("obs.telemetry_dropped", layers.telemetry_dropped as f64);
}

/// `trip_measures` for one configuration, call by call: the same three
/// reward studies over the same seeds, each timed with its model build.
fn traced_trip_measures(
    params: &Params,
    seed: u64,
    metrics: &Arc<Metrics>,
    tracer: &Tracer,
    parent: Option<trace::SpanId>,
    group: u64,
) -> Result<TripMeasures, ahs_core::AhsError> {
    let build = || {
        tracer.span("core.build", parent, group, |_| {
            AhsModel::build(params).map(AhsModel::into_san)
        })
    };
    let study = |san, seed, spec: &RewardSpec| {
        let s = RewardStudy::new(san)
            .with_seed(seed)
            .with_replications(TRIP_REPS)
            .with_metrics(metrics.clone());
        tracer.span("des.reward.study", parent, group, |_| {
            s.estimate(spec, TRIP_HOURS, Backend::Markov)
        })
    };

    let (san, handles) = build()?;
    let maneuvers: std::collections::HashSet<usize> = handles
        .maneuver_activities
        .iter()
        .map(|a| a.index())
        .collect();
    let spec = RewardSpec::impulse(move |a, _| f64::from(u8::from(maneuvers.contains(&a.index()))));
    let maneuvers = study(san, seed, &spec)?;

    let (san, handles) = build()?;
    let (ca, cb, cc) = (handles.class_a, handles.class_b, handles.class_c);
    let spec = RewardSpec::rate(move |m| {
        f64::from(u8::from(m.tokens(ca) + m.tokens(cb) + m.tokens(cc) > 0))
    });
    let recovery = study(san, seed ^ 1, &spec)?;

    let (san, _) = build()?;
    let backs: std::collections::HashSet<usize> = (0..params.total_vehicles())
        .map(|v| {
            san.find_activity(&format!("vehicle[{v}].back_to_ko"))
                .expect("the model defines back_to_ko per vehicle")
                .index()
        })
        .collect();
    let spec = RewardSpec::impulse(move |a, _| f64::from(u8::from(backs.contains(&a.index()))));
    let lost = study(san, seed ^ 2, &spec)?;

    let hw = |s: &ahs_stats::RunningStats| s.confidence_interval(0.95).half_width();
    Ok(TripMeasures {
        horizon_hours: TRIP_HOURS,
        expected_maneuvers: maneuvers.mean(),
        expected_maneuvers_hw: hw(&maneuvers),
        recovery_time_fraction: recovery.mean() / TRIP_HOURS,
        recovery_time_fraction_hw: hw(&recovery) / TRIP_HOURS,
        expected_vehicles_lost: lost.mean(),
        expected_vehicles_lost_hw: hw(&lost),
        replications: TRIP_REPS,
    })
}

fn fresh_checkpoint(dir: &Path) -> Result<PathBuf, String> {
    let cp_dir = dir.join("checkpoints");
    if cp_dir.exists() {
        std::fs::remove_dir_all(&cp_dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&cp_dir).map_err(|e| e.to_string())?;
    Ok(cp_dir.join("study.checkpoint.json"))
}

fn checkpoint_check(dir: &Path, fingerprint: u64) -> checks::Check {
    let path = dir.join("checkpoints").join("study.checkpoint.json");
    let cp =
        StudyCheckpoint::load(&path).map_err(|e| format!("loading the last checkpoint: {e}"))?;
    checks::final_checkpoint(cp.watermark, STUDY_REPS, cp.model_fingerprint, fingerprint)
}

fn quarantined(extra: &[(String, Json)]) -> u64 {
    extra
        .iter()
        .find(|(k, _)| k == "quarantined")
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or(0)
}

fn figure_estimates(fig: &ahs_bench::FigureResult) -> Vec<Estimate> {
    fig.series
        .iter()
        .flat_map(|s| {
            s.points.iter().map(|p| Estimate {
                x: p.x,
                y: p.y,
                half_width: p.half_width,
                samples: p.samples,
            })
        })
        .collect()
}

/// The points of an evaluated `S(t)` curve.
pub fn curve_estimates(curve: &ahs_core::UnsafetyCurve) -> Vec<Estimate> {
    curve
        .points()
        .iter()
        .map(|p| Estimate {
            x: p.x,
            y: p.y,
            half_width: p.half_width,
            samples: p.samples,
        })
        .collect()
}

fn trip_estimates(m: &TripMeasures) -> Vec<Estimate> {
    [
        (m.expected_maneuvers, m.expected_maneuvers_hw),
        (m.recovery_time_fraction, m.recovery_time_fraction_hw),
        (m.expected_vehicles_lost, m.expected_vehicles_lost_hw),
    ]
    .into_iter()
    .map(|(y, half_width)| Estimate {
        x: m.horizon_hours,
        y,
        half_width,
        samples: m.replications,
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure(y: impl Fn(usize, usize) -> f64) -> PassOutput {
        let mut estimates = Vec::new();
        for l in 0..FIG12_LAMBDAS.len() {
            for (i, &n) in FIG12_NS.iter().enumerate() {
                estimates.push(Estimate {
                    x: n as f64,
                    y: y(l, i),
                    half_width: 1e-9,
                    samples: FIG12_REPS,
                });
            }
        }
        PassOutput {
            units: Vec::new(),
            estimates,
            quarantined: 0,
            trip: Vec::new(),
        }
    }

    fn failures(sim: Sim, out: &PassOutput) -> usize {
        sim.output_checks(out).iter().filter(|c| c.is_err()).count()
    }

    #[test]
    fn figure_checks_bite_on_a_perturbed_point() {
        let good = figure(|l, i| 10f64.powi(l as i32 - 9) * (i + 1) as f64);
        assert_eq!(failures(Sim::Fig12, &good), 0);
        // S(6h) at n = 14 no longer rises from λ = 1e-5 to 1e-4.
        let mut bad = good;
        bad.estimates[2 * FIG12_NS.len() + 2].y = bad.estimates[FIG12_NS.len() + 2].y;
        assert_eq!(failures(Sim::Fig12, &bad), 1);
        let zero = figure(|l, i| {
            if l == 0 && i == 4 {
                0.0
            } else {
                1e-6 * (l + 1) as f64
            }
        });
        assert_eq!(failures(Sim::Fig12, &zero), 1, "a zero estimate");
    }

    #[test]
    fn study_and_trip_checks_bite_on_a_perturbed_estimate() {
        let curve = |ys: &[f64]| PassOutput {
            units: Vec::new(),
            estimates: ys
                .iter()
                .enumerate()
                .map(|(i, &y)| Estimate {
                    x: 2.0 * (i + 1) as f64,
                    y,
                    half_width: 1e-8,
                    samples: STUDY_REPS,
                })
                .collect(),
            quarantined: 0,
            trip: Vec::new(),
        };
        assert_eq!(
            failures(Sim::StudyN8, &curve(&[1e-7, 2e-7, 3e-7, 4e-7, 5e-7])),
            0
        );
        assert_eq!(
            failures(Sim::StudyN8, &curve(&[1e-7, 2e-7, 1.9e-7, 4e-7, 5e-7])),
            1
        );

        let row = |fraction: f64| TripMeasures {
            horizon_hours: TRIP_HOURS,
            expected_maneuvers: 1.0,
            expected_maneuvers_hw: 0.1,
            recovery_time_fraction: fraction,
            recovery_time_fraction_hw: 0.01,
            expected_vehicles_lost: 0.0,
            expected_vehicles_lost_hw: 0.0,
            replications: TRIP_REPS,
        };
        let table = |f: f64| PassOutput {
            units: Vec::new(),
            estimates: Vec::new(),
            quarantined: 0,
            trip: vec![row(0.0), row(0.1), row(f), row(1.0)],
        };
        assert_eq!(failures(Sim::Trip, &table(0.5)), 0);
        assert_eq!(failures(Sim::Trip, &table(1.0 + 1e-9)), 1);
    }
}
