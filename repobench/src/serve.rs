//! The service workload: a closed loop of small jobs against a spawned
//! `ahs serve` (default process isolation, two workers), driven from one
//! client process over two connections.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ahs_core::{CompiledModel, UnsafetyEvaluator};
use ahs_des::split_seed;
use ahs_obs::Json;
use ahs_serve::{AdmissionPolicy, JobSpec};

use crate::calib::{self, Meter};
use crate::checks::{self, Estimate};
use crate::host::{peak_rss_mib, rss_mib, tree_cpu_seconds};
use crate::stats::{fastest, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::Outcome;

/// Jobs per batch: enough that ten lie beyond the 90th percentile.
const BATCH_JOBS: u64 = 100;
/// Client connections, each a closed loop: submit, poll until the job
/// ends, submit the next.
const CONNECTIONS: usize = 2;
/// Kernel runs per reading before and after each batch (see `calib::Meter`).
const BATCH_KERNEL_RUNS: usize = 9;
/// Supervised job slots of the server.
const WORKERS: &str = "2";
/// Server start-ups timed per run; the fastest is reported.
const SETUPS: usize = 3;
/// Pause between status polls of one job.
const POLL_GAP: Duration = Duration::from_millis(2);
/// Give up on a job after this long (it counts as failed).
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// `GET /v1/healthz` round trips timed per traced run.
const HEALTH_PROBES: usize = 41;
/// The job shape: small enough that one evaluation stays well under the
/// 200 ms worker heartbeat interval.
const JOB_N: u64 = 4;
const JOB_REPS: u64 = 200;
const JOB_POINTS: u64 = 3;
const STRATEGIES: [&str; 2] = ["DD", "CC"];

/// One HTTP exchange (the server closes every connection after one).
fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("truncated HTTP response"))?;
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad HTTP status line"))?;
    Ok((code, body.to_owned()))
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let (code, body) = http(addr, "GET", path, "").map_err(|e| format!("GET {path}: {e}"))?;
    if code != 200 {
        return Err(format!("GET {path}: HTTP {code}"));
    }
    Json::parse(body.trim()).map_err(|e| format!("GET {path}: {e}"))
}

/// A running `ahs serve` child.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns the server over a fresh state directory and waits until
    /// `/v1/healthz` answers.
    fn start(ahs: &Path, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let out_path = dir.join("server.out");
        let out = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
        let err = std::fs::File::create(dir.join("server.err")).map_err(|e| e.to_string())?;
        let child = Command::new(ahs)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                WORKERS,
                "--state-dir",
            ])
            .arg(dir.join("state"))
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ahs.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.addr.is_empty() {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("ahs-serve listening on http://"))
            {
                server.addr = addr.trim().to_owned();
            } else if Instant::now() > deadline || server.child.try_wait().ok().flatten().is_some()
            {
                server.stop();
                return Err("ahs serve did not come up".into());
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        while get_json(&server.addr, "/v1/healthz").is_err() {
            if Instant::now() > deadline {
                server.stop();
                return Err("ahs serve never answered /v1/healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the server (SIGTERM) and waits for it to exit; kills it if
    /// it does not within ten seconds.
    fn stop(&mut self) {
        if ahs_obs::send_sigterm(self.child.id()).is_ok() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stop();
        }
    }
}

/// What the client saw of one job.
#[derive(Debug, Default)]
struct JobRecord {
    index: u64,
    spec: String,
    id: String,
    /// HTTP status of the submission (202 when accepted).
    submit_code: u16,
    submit_s: f64,
    /// Submit → first poll that saw the job running (or done).
    queue_wait_s: f64,
    /// Submit → first poll that saw the job finished or failed.
    latency_s: f64,
    polls: u64,
    state: String,
    restarts: u64,
    telemetry_dropped: u64,
    estimates: Vec<Estimate>,
    worker_rss_mib: f64,
}

fn job_spec(seed: u64, index: u64) -> String {
    let strategy = STRATEGIES[(index % STRATEGIES.len() as u64) as usize];
    // Kept below 2^53 so it survives any JSON round trip exactly.
    let job_seed = split_seed(seed, 1_000 + index) >> 11;
    format!(
        r#"{{"n":{JOB_N},"strategy":"{strategy}","reps":{JOB_REPS},"points":{JOB_POINTS},"threads":1,"seed":{job_seed}}}"#
    )
}

fn estimates_of(status: &Json) -> Vec<Estimate> {
    status
        .get("estimates")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|p| Estimate {
            x: p.get("x").and_then(Json::as_f64).unwrap_or(f64::NAN),
            y: p.get("y").and_then(Json::as_f64).unwrap_or(f64::NAN),
            half_width: p
                .get("half_width")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            samples: p.get("samples").and_then(Json::as_u64).unwrap_or(0),
        })
        .collect()
}

/// Submits one job and polls it to its end.
fn run_job(
    addr: &str,
    spec: String,
    index: u64,
    tracer: &Tracer,
    sample_workers: bool,
) -> JobRecord {
    let mut rec = JobRecord {
        index,
        spec,
        ..JobRecord::default()
    };
    let root = tracer.open("serve.job", None, index);
    let start = Instant::now();
    let submitted = tracer.span("serve.submit", root, index, |_| {
        http(addr, "POST", "/v1/jobs", &rec.spec)
    });
    rec.submit_s = start.elapsed().as_secs_f64();
    match submitted {
        Ok((code, body)) => {
            rec.submit_code = code;
            if code == 202 {
                rec.id = Json::parse(body.trim())
                    .ok()
                    .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_owned))
                    .unwrap_or_default();
            }
        }
        Err(_) => rec.submit_code = 0,
    }
    if rec.id.is_empty() {
        rec.state = "refused".into();
        tracer.close(root);
        return rec;
    }
    let path = format!("/v1/jobs/{}", rec.id);
    loop {
        let status = tracer.span("serve.poll", root, index, |_| get_json(addr, &path));
        rec.polls += 1;
        let elapsed = start.elapsed();
        if let Ok(status) = status {
            let state = status
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            if state != "queued" && rec.queue_wait_s == 0.0 {
                rec.queue_wait_s = elapsed.as_secs_f64();
            }
            if sample_workers {
                if let Some(pid) = status.get("worker_pid").and_then(Json::as_u64) {
                    let rss = peak_rss_mib(pid as u32).unwrap_or(0.0);
                    rec.worker_rss_mib = rec.worker_rss_mib.max(rss);
                }
            }
            if state == "finished" || state == "failed" {
                rec.latency_s = elapsed.as_secs_f64();
                rec.restarts = status.get("restarts").and_then(Json::as_u64).unwrap_or(0);
                rec.telemetry_dropped = status
                    .get("telemetry_dropped")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                rec.estimates = estimates_of(&status);
                rec.state = state;
                break;
            }
        }
        if elapsed > JOB_TIMEOUT {
            rec.state = "timed-out".into();
            break;
        }
        std::thread::sleep(POLL_GAP);
    }
    tracer.close(root);
    rec
}

/// Runs `count` jobs numbered from `first` over [`CONNECTIONS`] closed
/// loops; returns the records in job order and the batch wall time.
fn batch(
    addr: &str,
    seed: u64,
    first: u64,
    count: u64,
    tracer: &Tracer,
    sample: bool,
) -> (Vec<JobRecord>, f64) {
    let next = AtomicU64::new(first);
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= first + count {
                    break;
                }
                let rec = run_job(addr, job_spec(seed, i), i, tracer, sample);
                records
                    .lock()
                    .expect("record list is never poisoned")
                    .push(rec);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut records = records.into_inner().expect("record list is never poisoned");
    records.sort_by_key(|r| r.index);
    (records, wall)
}

/// Evaluates every finished job's spec in this process (two at a time)
/// and checks the service returned the same bits.
fn verify(records: &[&JobRecord]) -> Vec<checks::Check> {
    let policy = AdmissionPolicy::default();
    let next = AtomicU64::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(rec) = records.get(i) else { break };
                let check = (|| {
                    let doc = Json::parse(&rec.spec).map_err(|e| e.to_string())?;
                    let spec = JobSpec::from_json(&doc, &policy).map_err(|e| e.to_string())?;
                    let curve = UnsafetyEvaluator::new(spec.params.clone())
                        .with_seed(spec.seed)
                        .with_threads(spec.threads)
                        .with_replications(spec.replications)
                        .evaluate(&spec.grid())
                        .map_err(|e| e.to_string())?;
                    let local = crate::sim::curve_estimates(&curve);
                    checks::service_job(&rec.id, &rec.state, rec.restarts, &rec.estimates, &local)
                })();
                results
                    .lock()
                    .expect("result list is never poisoned")
                    .push(check);
            });
        }
    });
    results.into_inner().expect("result list is never poisoned")
}

/// The counters `/v1/healthz` exports.
fn health(addr: &str) -> Json {
    get_json(addr, "/v1/healthz").unwrap_or(Json::Null)
}

fn counter(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Runs the service workload for about `seconds` and summarises it.
pub fn run(
    ahs: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = Instant::now();
    let tracer = Tracer::new(traced);

    // Set-up: start the server and finish one warm-up job per
    // configuration, several times over fresh state; keep the fastest.
    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    let mut warmups = Vec::new();
    for round in 0..SETUPS {
        if let Some(mut s) = server.take() {
            s.stop();
        }
        let t = Instant::now();
        let state = dir.join(format!("serve-{round}"));
        let s = Server::start(ahs, &state)?;
        let (recs, _) = batch(
            &s.addr,
            seed,
            100_000 * (round as u64 + 1),
            STRATEGIES.len() as u64,
            &Tracer::new(false),
            false,
        );
        setups.push(t.elapsed().as_secs_f64());
        warmups.extend(recs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up round");
    let (addr, pid) = (server.addr.clone(), server.pid());

    // Untraced batches while time remains (at least one).
    let mut records: Vec<JobRecord> = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let health_before = health(&addr);
    let rss_before = rss_mib(pid).unwrap_or(0.0);
    // CPU seconds are scaled by the kernel's median time before and after
    // each batch (see `calib`); latencies are not, since they sit on
    // sleeps. A batch is one long call, so the kernel runs several times.
    let mut meter = Meter::new(BATCH_KERNEL_RUNS);
    let mut references = Vec::new();
    let mut raw_cpus = Vec::new();
    loop {
        let cpu = tree_cpu_seconds(pid).unwrap_or(0.0);
        let ((recs, wall), sample) = meter.time(|| {
            batch(
                &addr,
                seed,
                records.len() as u64,
                BATCH_JOBS,
                &Tracer::new(false),
                false,
            )
        });
        let cpu = tree_cpu_seconds(pid).unwrap_or(0.0) - cpu;
        cpus.push(calib::at_reference_speed(cpu, sample.reference));
        raw_cpus.push(cpu);
        references.push(sample.reference);
        walls.push(wall);
        records.extend(recs);
        if start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let health_after = health(&addr);
    let rss_after = rss_mib(pid).unwrap_or(0.0);
    let peak_rss = peak_rss_mib(pid).unwrap_or(0.0);

    // The traced batch, then the probes only a traced run makes.
    let mut traced_records = Vec::new();
    let mut traced_wall = 0.0;
    let mut health_rtts = Vec::new();
    if traced {
        let cpu = tree_cpu_seconds(pid).unwrap_or(0.0);
        let (recs, wall) = batch(&addr, seed, records.len() as u64, BATCH_JOBS, &tracer, true);
        let traced_cpu = tree_cpu_seconds(pid).unwrap_or(0.0) - cpu;
        traced_wall = wall;
        out.metric("serve.cpu_per_job_s", traced_cpu / BATCH_JOBS as f64);
        for _ in 0..HEALTH_PROBES {
            let t = Instant::now();
            if tracer
                .span("serve.healthz", None, u64::MAX, |_| {
                    get_json(&addr, "/v1/healthz")
                })
                .is_ok()
            {
                health_rtts.push(t.elapsed().as_secs_f64());
            }
        }
        traced_records = recs;
    }
    let mut manifests_eval = Vec::new();
    for rec in &traced_records {
        if let Ok(m) = get_json(&addr, &format!("/v1/jobs/{}/manifest", rec.id)) {
            if let Some(w) = m.get("wall_seconds").and_then(Json::as_f64) {
                manifests_eval.push((rec.index, w));
            }
        }
    }
    let state_dir = dir.join(format!("serve-{}", SETUPS - 1)).join("state");
    drop(server);

    // Accounting and correctness over every job the run submitted.
    let all: Vec<&JobRecord> = warmups
        .iter()
        .chain(&records)
        .chain(&traced_records)
        .collect();
    out.attempted = all.len() as u64;
    let mut refused = std::collections::BTreeMap::<u16, u64>::new();
    for rec in &all {
        if rec.submit_code != 202 {
            *refused.entry(rec.submit_code).or_default() += 1;
        }
        if rec.state != "finished" {
            out.failed += 1;
            out.errors
                .push(format!("job {} ({}): {}", rec.index, rec.id, rec.state));
        }
    }
    let finished: Vec<&JobRecord> = all
        .iter()
        .copied()
        .filter(|r| r.state == "finished")
        .collect();
    checks::collect(&mut out.failures, verify(&finished));

    // End-to-end metrics, from the untraced batches.
    let latencies: Vec<f64> = records
        .iter()
        .filter(|r| r.state == "finished")
        .map(|r| r.latency_s)
        .collect();
    let best = fastest(&walls).expect("at least one batch ran");
    let setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let finished_in = |recs: &[JobRecord], from: u64| {
        recs.iter()
            .filter(|r| r.state == "finished" && r.index >= from && r.index < from + BATCH_JOBS)
            .count() as f64
    };
    out.metric("setup_s", setup);
    out.metric("wall_s", walls[best]);
    out.metric("cpu_s", median(&cpus).unwrap_or(0.0));
    out.metric("peak_rss_mib", peak_rss);
    out.metric("job_p50_s", median(&latencies).unwrap_or(0.0));
    if let Some(p) = tail_percentile(latencies.len()) {
        // The batch holds 100 jobs, so the rule's tail is the 90th.
        out.details.push(("job_tail_percentile".into(), p.into()));
    }
    out.metric("job_p90_s", percentile(&latencies, 90.0).unwrap_or(0.0));
    out.metric(
        "jobs_per_s",
        finished_in(&records, best as u64 * BATCH_JOBS) / walls[best],
    );

    if traced {
        let ok: Vec<&JobRecord> = traced_records
            .iter()
            .filter(|r| r.state == "finished")
            .collect();
        let field = |f: fn(&JobRecord) -> f64| ok.iter().map(|r| f(r)).collect::<Vec<f64>>();
        let latency_of = |index: u64| {
            ok.iter()
                .find(|r| r.index == index)
                .map_or(f64::NAN, |r| r.latency_s)
        };
        let evals: Vec<f64> = manifests_eval.iter().map(|&(_, w)| w).collect();
        let overheads: Vec<f64> = manifests_eval
            .iter()
            .map(|&(i, w)| latency_of(i) - w)
            .filter(|v| v.is_finite())
            .collect();
        let hits = counter(&health_after, "cache_hits") - counter(&health_before, "cache_hits");
        let misses =
            counter(&health_after, "cache_misses") - counter(&health_before, "cache_misses");
        out.metric("serve.http_rtt_s", median(&health_rtts).unwrap_or(0.0));
        out.metric(
            "serve.submit_s",
            median(&field(|r| r.submit_s)).unwrap_or(0.0),
        );
        out.metric(
            "serve.queue_wait_s",
            median(&field(|r| r.queue_wait_s)).unwrap_or(0.0),
        );
        out.metric("serve.eval_s", median(&evals).unwrap_or(0.0));
        out.metric("serve.overhead_s", median(&overheads).unwrap_or(0.0));
        out.metric(
            "serve.polls_per_job",
            ok.iter().map(|r| r.polls as f64).sum::<f64>() / ok.len().max(1) as f64,
        );
        out.metric("serve.restarts", counter(&health_after, "worker_restarts"));
        out.metric("serve.cache_hits", hits);
        out.metric("serve.cache_misses", misses);
        out.metric(
            "serve.worker_peak_rss_mib",
            ok.iter().map(|r| r.worker_rss_mib).fold(0.0, f64::max),
        );
        out.metric(
            "serve.rss_growth_kib_per_job",
            (rss_after - rss_before) * 1024.0 / records.len().max(1) as f64,
        );
        out.metric("trace.overhead_s", traced_wall - walls[best]);
        // The supervisor compiles each job's model once per cache miss,
        // and every worker process compiles it again.
        out.metric("core.builds", misses + ok.len() as f64);
        out.metric("core.build_s", fastest_build_s());
        out.metric(
            "obs.progress_events",
            progress_events(&state_dir, &traced_records),
        );
        out.metric(
            "obs.telemetry_dropped",
            ok.iter().map(|r| r.telemetry_dropped as f64).sum(),
        );
        out.spans = tracer.spans();
    }

    out.details
        .push(("batches".into(), (walls.len() as u64).into()));
    out.details.push((
        "batch_wall_s".into(),
        Json::Arr(walls.iter().map(|&w| w.into()).collect()),
    ));
    out.details.push((
        "batch_cpu_s".into(),
        Json::Arr(raw_cpus.iter().map(|&w| w.into()).collect()),
    ));
    out.details.push((
        "reference_s".into(),
        Json::Arr(references.iter().map(|&w| w.into()).collect()),
    ));
    out.details.push((
        "setup_s_rounds".into(),
        Json::Arr(setups.iter().map(|&w| w.into()).collect()),
    ));
    out.details
        .push(("jobs_submitted".into(), out.attempted.into()));
    out.details.push((
        "jobs_finished".into(),
        (all.iter().filter(|r| r.state == "finished").count() as u64).into(),
    ));
    out.details.push((
        "jobs_failed".into(),
        (all.iter().filter(|r| r.state == "failed").count() as u64).into(),
    ));
    out.details.push((
        "requests_refused".into(),
        Json::Obj(
            refused
                .iter()
                .map(|(c, n)| (c.to_string(), Json::from(*n)))
                .collect(),
        ),
    ));
    for key in [
        "rejected_invalid",
        "rejected_policy",
        "rejected_overloaded",
        "connections_shed",
    ] {
        out.details
            .push((format!("healthz_{key}"), counter(&health_after, key).into()));
    }
    Ok(out)
}

/// Fastest in-process compile of one job configuration, averaged over
/// the service's configurations.
fn fastest_build_s() -> f64 {
    let policy = AdmissionPolicy::default();
    let mut total = 0.0;
    for (i, _) in STRATEGIES.iter().enumerate() {
        let spec = Json::parse(&job_spec(0, i as u64)).expect("job spec is valid JSON");
        let params = JobSpec::from_json(&spec, &policy)
            .expect("job spec is admissible")
            .params;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            if CompiledModel::build(&params).is_ok() {
                best = best.min(t.elapsed().as_secs_f64());
            }
        }
        total += best;
    }
    total / STRATEGIES.len() as f64
}

/// Progress events the traced batch's workers wrote.
fn progress_events(state: &Path, records: &[JobRecord]) -> f64 {
    records
        .iter()
        .map(|r| {
            let path: PathBuf = state.join("jobs").join(&r.id).join("telemetry.jsonl");
            std::fs::read_to_string(path).map_or(0, |t| t.lines().count()) as f64
        })
        .sum()
}
