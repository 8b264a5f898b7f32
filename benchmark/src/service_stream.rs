//! `service-stream`: an open loop offering a seeded Poisson stream of small
//! mixed-shape jobs (`ServiceMixJob`: farm, pipeline, farm-of-farms) to a
//! resident `GraspService` with two workers and a bounded backlog.  One
//! thread submits on schedule while a second collects outcomes as they
//! arrive; each job is timed from the moment it was due, so a stall counts
//! against every job queued behind it.

use crate::check;
use crate::stats::{self, median, quantile};
use crate::trace::SpanBuf;
use crate::{derive_seed, JobError, Metrics, RunConfig, RunReport, Tally, WORKERS};
use grasp_core::prelude::{GraspError, OutcomeDetail, Skeleton};
use grasp_service::{AdmissionQueue, GraspService, JobHandle, JobPriority, JobSpec, ServiceConfig};
use grasp_workloads::{ServiceArrival, ServiceMixJob};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rate of the measured phase, jobs per second.
const OFFERED_RATE: f64 = 2000.0;
/// Latency quantiles are taken per window of this many seconds of due
/// time, and the median over windows is reported, so a host stall that
/// hits one window does not decide the run.
const WINDOW_S: f64 = 1.0;
/// Admission backlog bound.
const BACKLOG_CAPACITY: usize = 1024;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 21;
/// Seconds a companion session runs in another workload's traced run.
const COMPANION_SECONDS: f64 = 3.0;

/// The service configuration every run uses.
fn service_config() -> ServiceConfig {
    let mut config = ServiceConfig::with_workers(WORKERS);
    config.backlog_capacity = BACKLOG_CAPACITY;
    config
}

/// The arrivals of `seconds` of load at `rate` for input stream `stream`.
fn arrivals(seed: u64, stream: u64, rate: f64, seconds: f64) -> Vec<ServiceArrival> {
    ServiceMixJob {
        jobs: ((rate * seconds).round() as usize).max(1),
        mean_interarrival_s: 1.0 / rate,
        seed: derive_seed(seed, stream),
        ..ServiceMixJob::default()
    }
    .arrivals()
}

/// Start the service `SETUP_REPS` times; returns the last one and the
/// median seconds `GraspService::start` took.
fn setup() -> (GraspService, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let service = GraspService::start(service_config());
        secs.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(service) {
            previous.shutdown();
        }
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// What one job of a stream produced.
struct Completed {
    /// When the job was due, seconds from the stream's start.
    due_s: f64,
    latency_s: f64,
    units: usize,
    exec_s: f64,
    steals_per_job: f64,
}

/// Everything one stream phase measured.
#[derive(Default)]
struct StreamResult {
    /// Good jobs, in submission order.
    done: Vec<Completed>,
    submit_s: Vec<f64>,
    late_s: Vec<f64>,
    rejected: usize,
    wall_s: f64,
    backlog_max: usize,
    rounds: u64,
    profile_hits: u64,
    profile_misses: u64,
    demotions: u64,
    recalibrations: u64,
    tally: Tally,
}

impl StreamResult {
    fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|c| c.latency_s).collect()
    }

    /// The `q`-quantile of latency in each `window_s`-second window of due
    /// time that holds any job.
    fn windowed(&self, window_s: f64, q: f64) -> Vec<f64> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for c in &self.done {
            let w = (c.due_s / window_s) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(c.latency_s);
        }
        windows.iter().filter_map(|lat| quantile(lat, q)).collect()
    }
}

/// Offer `load` to `service` on schedule from this thread while a collector
/// thread waits for outcomes.  Rejections are counted apart from other
/// failures.
fn stream(service: &GraspService, load: &[ServiceArrival], trace: &mut SpanBuf) -> StreamResult {
    let mut skeletons: Vec<Option<Skeleton>> =
        load.iter().map(|a| Some(a.skeleton.clone())).collect();
    let mut r = StreamResult::default();
    let before = service.stats();
    let epoch = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<(usize, Instant, JobHandle)>();
    let mut collector_trace = trace.child(1, "service collector");
    let traced = trace.enabled();
    let (done, tally, last) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::new();
            let mut tally = Tally::default();
            let mut last = epoch;
            for (i, due, handle) in rx {
                let id = handle.id().0;
                let result = handle.wait();
                let end = Instant::now();
                last = end;
                collector_trace.span("service job", "job", due, end, Some(id));
                let verdict = match result {
                    Ok(outcome) => check::conserved(&outcome, &load[i].skeleton).map(|()| {
                        let steals_per_job = match &outcome.detail {
                            OutcomeDetail::Service {
                                steals_completed,
                                batched_jobs,
                                ..
                            } => *steals_completed as f64 / (*batched_jobs).max(1) as f64,
                            _ => 0.0,
                        };
                        done.push(Completed {
                            due_s: load[i].arrival_s,
                            latency_s: end.duration_since(due).as_secs_f64(),
                            units: load[i].skeleton.work_units(),
                            exec_s: outcome.makespan_s,
                            steals_per_job,
                        });
                    }),
                    Err(e) => Err(JobError::Failed(e.to_string())),
                };
                tally.job(verdict);
            }
            (done, tally, last, collector_trace)
        });
        for (i, a) in load.iter().enumerate() {
            let due = epoch + Duration::from_secs_f64(a.arrival_s);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let t0 = Instant::now();
            let spec = JobSpec::default().with_payload_kind(a.shape);
            let skeleton = skeletons[i].take().expect("each job is submitted once");
            let submitted = service.submit(skeleton, spec);
            let t1 = Instant::now();
            r.late_s
                .push(t0.saturating_duration_since(due).as_secs_f64());
            r.submit_s.push(t1.duration_since(t0).as_secs_f64());
            trace.span("service.submit", "grasp", t0, t1, None);
            match submitted {
                Ok(handle) => {
                    tx.send((i, due, handle))
                        .expect("the collector outlives the generator");
                }
                Err(GraspError::Rejected { .. }) => r.rejected += 1,
                Err(e) => {
                    r.tally.job(Err(JobError::Failed(e.to_string())));
                }
            }
            if traced && i % 16 == 0 {
                r.backlog_max = r.backlog_max.max(service.stats().backlog);
            }
        }
        drop(tx);
        let (done, tally, last, buf) = collector.join().expect("the collector thread panicked");
        trace.merge(buf);
        (done, tally, last)
    });
    let after = service.stats();
    r.done = done;
    r.tally.absorb(tally);
    r.wall_s = last.saturating_duration_since(epoch).as_secs_f64();
    r.rounds = after.rounds - before.rounds;
    r.profile_hits = after.profile.hits - before.profile.hits;
    r.profile_misses = after.profile.misses - before.profile.misses;
    r.demotions = after.demotions - before.demotions;
    r.recalibrations = after.recalibrations - before.recalibrations;
    r
}

/// End-to-end metrics of the offered-rate phase.
fn end_to_end(m: &mut Metrics, r: &StreamResult) {
    let n = r.done.len();
    m.set("job_p50_s", median(&r.windowed(WINDOW_S, 0.5)), n);
    let units: usize = r.done.iter().map(|c| c.units).sum();
    m.set("units_per_s", stats::ratio(units as f64, r.wall_s), n);
    m.set("jobs_per_s", stats::ratio(n as f64, r.wall_s), n);
}

/// Per-layer metrics of a traced offered-rate phase.
fn layer_metrics(r: &StreamResult) -> Metrics {
    let mut m = Metrics::default();
    let n = r.done.len();
    m.set("service.job_p50_s", median(&r.windowed(WINDOW_S, 0.5)), n);
    m.set("service.job_p99_s", median(&r.windowed(WINDOW_S, 0.99)), n);
    let submit_us: Vec<f64> = r.submit_s.iter().map(|s| s * 1e6).collect();
    m.set("service.submit_p50_us", median(&submit_us), submit_us.len());
    m.set(
        "service.submit_p99_us",
        quantile(&submit_us, 0.99).unwrap_or(0.0),
        submit_us.len(),
    );
    let exec: Vec<f64> = r.done.iter().map(|c| c.exec_s).collect();
    let wait: Vec<f64> = r.done.iter().map(|c| c.latency_s - c.exec_s).collect();
    m.set("service.exec_p50_s", median(&exec), n);
    m.set("service.wait_p50_s", median(&wait), n);
    m.set("service.rounds", r.rounds as f64, 1);
    m.set(
        "service.jobs_per_round",
        stats::ratio(n as f64, r.rounds as f64),
        n,
    );
    m.set(
        "service.profile_hit_ratio",
        stats::ratio(
            r.profile_hits as f64,
            (r.profile_hits + r.profile_misses) as f64,
        ),
        n,
    );
    m.set("service.backlog_max", r.backlog_max as f64, 1);
    m.set("service.rejected", r.rejected as f64, 1);
    m.set("service.demotions", r.demotions as f64, 1);
    m.set("service.recalibrations", r.recalibrations as f64, 1);
    m.set(
        "service.steals_completed",
        r.done.iter().map(|c| c.steals_per_job).sum::<f64>().round(),
        1,
    );
    m.set(
        "service.generator_late_p99_s",
        quantile(&r.late_s, 0.99).unwrap_or(0.0),
        r.late_s.len(),
    );
    m.set("service.admission.push_pop_ns", admission_ns(), 1);
    m
}

/// One `AdmissionQueue::push` plus its share of a `pop_batch`, the
/// dispatcher's batching pattern (four jobs per round).
fn admission_ns() -> f64 {
    const ROUNDS: usize = 200_000;
    const BATCH: usize = 4;
    let tenants = ["a", "b", "c"];
    let mut q: AdmissionQueue<u64> = AdmissionQueue::new(BACKLOG_CAPACITY);
    let t0 = Instant::now();
    for r in 0..ROUNDS {
        for j in 0..BATCH {
            let id = (r * BATCH + j) as u64;
            q.push(JobPriority::Normal, tenants[j % tenants.len()], id)
                .expect("the queue drains every round");
        }
        black_box(q.pop_batch(BATCH));
    }
    t0.elapsed().as_secs_f64() * 1e9 / (ROUNDS * BATCH) as f64
}

/// Account a stream's failures and wrong outputs; rejections at the
/// offered rate count as failed jobs.
fn account(tally: &mut Tally, r: &StreamResult) {
    tally.absorb(r.tally.clone());
    tally.attempted += r.rejected as u64;
    tally.failed += r.rejected as u64;
}

/// Run the workload as `cfg` asks.
pub fn run(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let (service, setup_s) = setup();
    let mut report = RunReport::default();
    if !cfg.traced {
        stats::reset_peak_rss();
        let r = stream(
            &service,
            &arrivals(cfg.seed, 1, OFFERED_RATE, cfg.seconds),
            trace,
        );
        account(&mut report.tally, &r);
        end_to_end(&mut report.metrics, &r);
        println!(
            "service-stream: offered {OFFERED_RATE} jobs/s, p99 {:.6} s, generator late p99 {:.6} s, {} rejected",
            median(&r.windowed(WINDOW_S, 0.99)),
            quantile(&r.late_s, 0.99).unwrap_or(0.0),
            r.rejected
        );
        report.metrics.set("setup_s", setup_s, SETUP_REPS);
        service.shutdown();
        return Ok(report);
    }
    let half = cfg.seconds / 2.0;
    let mut silent = SpanBuf::new(Instant::now(), 0, "untraced", false);
    let plain = stream(
        &service,
        &arrivals(cfg.seed, 1, OFFERED_RATE, half),
        &mut silent,
    );
    let traced = stream(&service, &arrivals(cfg.seed, 2, OFFERED_RATE, half), trace);
    account(&mut report.tally, &plain);
    account(&mut report.tally, &traced);
    report.metrics = layer_metrics(&traced);
    report.metrics.set(
        "trace.overhead_frac",
        stats::ratio(median(&traced.latencies()), median(&plain.latencies())) - 1.0,
        traced.done.len(),
    );
    service.shutdown();
    Ok(report)
}

/// A short traced session for another workload's traced run.
pub fn companion(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let (service, _) = setup();
    let mut report = RunReport::default();
    let load = arrivals(cfg.seed, 2, OFFERED_RATE, COMPANION_SECONDS);
    let r = stream(&service, &load, trace);
    account(&mut report.tally, &r);
    report.metrics = layer_metrics(&r);
    service.shutdown();
    Ok(report)
}
