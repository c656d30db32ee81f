//! `repobench`: the AHS workspace benchmark.
//!
//! ```text
//! repobench [run] --workload W --seed N --seconds S --trace 0|1
//! repobench steady --workload W --runs N --seconds S [--first-seed K]
//! repobench compare A.out B.out
//! ```
//!
//! `run` measures one workload for about `S` seconds, checks the
//! program's outputs, and prints two JSON lines: a report (machine
//! fingerprint, pass times, failure accounting, failed checks) and, last,
//! the result `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `steady` repeats untraced runs over seeds and prints
//! each end-to-end metric's median, quartiles and interquartile range as
//! a share of the median. `compare` sets two saved outputs side by side and warns when
//! they come from different machines. The `ahs` binary the service
//! workload spawns is named by `REPOBENCH_AHS` (`run.sh` sets it).
//! See `README.md` in this directory.

mod calib;
mod checks;
mod exact;
mod host;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ahs_obs::Json;

use crate::host::Fingerprint;
use crate::sim::Sim;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "fig12-sweep",
    "study-n8",
    "trip-measures",
    "serve-small-jobs",
];

/// End-to-end metrics every untraced run prints: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics every traced run prints: name and unit. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("core.build_s", "s"),
    ("core.builds", "count"),
    ("bench.figure_s", "s"),
    ("bench.points", "count"),
    ("des.steps", "count"),
    ("des.reps", "count"),
    ("des.cascades", "count"),
    ("des.steps_per_busy_s", "1/s"),
    ("des.ess_per_rep", "ratio"),
    ("des.study_s", "s"),
    ("des.busy_s", "s"),
    ("des.chunk_merges", "count"),
    ("des.utilisation", "ratio"),
    ("des.checkpoint.writes", "count"),
    ("des.checkpoint.write_s", "s"),
    ("des.checkpoint.bytes", "B"),
    ("des.reward.study_s", "s"),
    ("des.reward.steps_per_s", "1/s"),
    ("obs.progress_events", "count"),
    ("obs.telemetry_dropped", "count"),
    ("serve.http_rtt_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.eval_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.polls_per_job", "count"),
    ("serve.restarts", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cpu_per_job_s", "s"),
    ("serve.worker_peak_rss_mib", "MiB"),
    ("serve.rss_growth_kib_per_job", "KiB"),
    ("trace.overhead_s", "s"),
];

/// What a workload run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted: studies, or service jobs.
    pub attempted: u64,
    /// Operations that failed: studies that returned an error, or jobs
    /// that did not finish.
    pub failed: u64,
    /// Why operations failed.
    pub errors: Vec<String>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Workload-specific report fields.
    pub details: Vec<(String, Json)>,
    /// Spans of a traced run.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Records a metric (a later value replaces an earlier one).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// `--trace`, when given.
    trace: Option<bool>,
    runs: usize,
    first_seed: u64,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: None,
        runs: 10,
        first_seed: 1,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| format!("{flag} takes an integer"))?
            }
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--runs" => {
                a.runs = value()?
                    .parse()
                    .map_err(|_| format!("{flag} takes an integer"))?
            }
            "--first-seed" => {
                a.first_seed = value()?
                    .parse()
                    .map_err(|_| format!("{flag} takes an integer"))?
            }
            other if !other.starts_with("--") => a.files.push(other.to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "steady" | "compare")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let result = parse_args(rest).and_then(|args| match command {
        "steady" => steady(&args),
        "compare" => compare(&args),
        _ => run(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let traced = args.trace.unwrap_or(false);
    let fingerprint = Fingerprint::current();
    let out_dir = PathBuf::from(".repobench");
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let outcome = match args.workload.as_str() {
        "fig12-sweep" => sim::run(Sim::Fig12, args.seed, args.seconds, traced, &dir),
        "study-n8" => sim::run(Sim::StudyN8, args.seed, args.seconds, traced, &dir),
        "trip-measures" => sim::run(Sim::Trip, args.seed, args.seconds, traced, &dir),
        _ => {
            let ahs = std::env::var_os("REPOBENCH_AHS")
                .map(PathBuf::from)
                .ok_or("REPOBENCH_AHS must name the `ahs` binary (run through run.sh)")?;
            serve::run(&ahs, args.seed, args.seconds, traced, &dir)?
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    if traced {
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let doc = trace::to_json(&outcome.spans).render();
        std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    for e in &outcome.errors {
        eprintln!("repobench: operation failed: {e}");
    }
    for f in &outcome.failures {
        eprintln!("repobench: check failed: {f}");
    }
    let mut report = vec![
        ("report".to_owned(), Json::str("ahs-repobench/v1")),
        ("workload".to_owned(), Json::str(args.workload.clone())),
        ("seed".to_owned(), args.seed.into()),
        ("seconds".to_owned(), args.seconds.into()),
        ("trace".to_owned(), traced.into()),
        ("fingerprint".to_owned(), fingerprint.to_json()),
        ("attempted".to_owned(), outcome.attempted.into()),
        ("failed".to_owned(), outcome.failed.into()),
        (
            "failed_checks".to_owned(),
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::str(f.clone()))
                    .collect(),
            ),
        ),
    ];
    report.extend(outcome.details.iter().cloned());
    println!("{}", Json::Obj(report).render());
    println!("{}", result_line(&outcome, traced).render());
    Ok(())
}

/// The last line: correctness, accounting and every metric of the
/// requested set with its unit.
fn result_line(outcome: &Outcome, traced: bool) -> Json {
    let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            (
                name.to_owned(),
                Json::obj(vec![("value", value.into()), ("unit", unit.into())]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", outcome.failures.is_empty().into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Runs the workload `--runs` times untraced with consecutive seeds and
/// prints each end-to-end metric's median, quartiles and relative
/// interquartile range.
fn steady(args: &Args) -> Result<(), String> {
    if args.trace.is_some() {
        return Err("steady measures untraced runs only; it takes no --trace".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results: Vec<Json> = Vec::new();
    let mut fingerprint = None;
    for k in 0..args.runs {
        let seed = args.first_seed + k as u64;
        let out = std::process::Command::new(&exe)
            .args([
                "run",
                "--workload",
                &args.workload,
                "--seed",
                &seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let (report, result) =
            parse_output(&text).ok_or_else(|| format!("run {k} printed no result"))?;
        fingerprint.get_or_insert(report.get("fingerprint").cloned().unwrap_or(Json::Null));
        eprintln!("repobench: seed {seed}: {}", result.render());
        results.push(result);
    }
    println!(
        "workload {} · {} runs of {} s",
        args.workload, args.runs, args.seconds
    );
    if let Some(fp) = &fingerprint {
        println!("fingerprint {}", fp.render());
    }
    let failed_share: Vec<String> = results
        .iter()
        .map(|r| {
            let a = r.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            let f = r.get("failed").and_then(Json::as_u64).unwrap_or(0);
            format!("{f}/{a}")
        })
        .collect();
    println!("failed/attempted per run: {}", failed_share.join(" "));
    println!(
        "correct in every run: {}",
        results
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
    );
    println!(
        "{:<30} {:>8} {:>13} {:>13} {:>13} {:>9}",
        "metric", "unit", "median", "q1", "q3", "iqr/med"
    );
    for &(name, unit) in &END_TO_END {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        match stats::quartiles(&values) {
            Some([q1, q2, q3]) => println!(
                "{name:<30} {unit:>8} {q2:>13.6e} {q1:>13.6e} {q3:>13.6e} {:>9.4}",
                stats::relative_iqr(&values).unwrap_or(f64::NAN)
            ),
            None => println!("{name:<30} {unit:>8} (fewer than two values)"),
        }
    }
    Ok(())
}

/// Splits a run's standard output into its report and result lines.
fn parse_output(text: &str) -> Option<(Json, Json)> {
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let result = Json::parse(lines.next()?).ok()?;
    let report = lines
        .filter_map(|l| Json::parse(l).ok())
        .find(|j| j.get("report").is_some())
        .unwrap_or(Json::Null);
    Some((report, result))
}

/// Sets two saved run outputs side by side, warning when their machine
/// fingerprints differ.
fn compare(args: &Args) -> Result<(), String> {
    let [a, b] = args.files.as_slice() else {
        return Err("compare takes two saved outputs".into());
    };
    let load = |p: &str| -> Result<(Json, Json), String> {
        let text = std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        parse_output(&text).ok_or_else(|| format!("{p}: no result line"))
    };
    let (ra, xa) = load(a)?;
    let (rb, xb) = load(b)?;
    let fa = ra.get("fingerprint").and_then(Fingerprint::from_json);
    let fb = rb.get("fingerprint").and_then(Fingerprint::from_json);
    match (fa, fb) {
        (Some(fa), Some(fb)) => {
            let diff = fa.differences(&fb);
            if !diff.is_empty() {
                println!(
                    "warning: the outputs come from different machines or builds (differ in: {})",
                    diff.join(", ")
                );
            }
        }
        _ => println!("warning: an output carries no machine fingerprint"),
    }
    println!(
        "{:<30} {:>8} {:>13} {:>13} {:>9}",
        "metric", "unit", "A", "B", "B/A"
    );
    let metrics = xa.get("metrics").and_then(Json::as_object).unwrap_or(&[]);
    for (name, m) in metrics {
        let va = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let vb = xb
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "{name:<30} {unit:>8} {va:>13.6e} {vb:>13.6e} {:>9.4}",
            vb / va
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_prints_every_metric_of_the_set() {
        let mut o = Outcome::default();
        o.metric("wall_s", 1.5);
        o.metric("wall_s", 1.25);
        o.metric("des.steps", f64::NAN);
        let line = result_line(&o, false);
        let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("wall_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        let traced = result_line(&o, true);
        assert_eq!(
            traced
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
        assert_eq!(traced.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn steady_takes_no_trace_flag() {
        let argv: Vec<String> = ["--workload", "study-n8", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = parse_args(&argv).unwrap();
        assert!(steady(&args).unwrap_err().contains("--trace"));
    }

    #[test]
    fn output_parsing_finds_report_and_result() {
        let text = "{\"report\":\"ahs-repobench/v1\",\"seed\":3}\n{\"correct\":true}\n";
        let (report, result) = parse_output(text).unwrap();
        assert_eq!(report.get("seed").and_then(Json::as_u64), Some(3));
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert!(parse_output("").is_none());
    }
}
