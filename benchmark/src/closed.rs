//! The closed loop shared by `farm-threads`, `farm-proc` and `grid-sim`: one
//! client runs jobs back to back, untraced through `Grasp::run` for the
//! end-to-end metrics, or traced with `compile` and `execute` timed apart
//! for the per-layer metrics.

use crate::stats::{self, median};
use crate::trace::SpanBuf;
use crate::{JobError, Metrics, RunConfig, RunReport, Tally, Window};
use grasp_core::prelude::{Backend, Grasp, GraspConfig, Skeleton, SkeletonOutcome};
use std::time::{Duration, Instant};

/// Failed jobs after which a loop gives up instead of waiting for a good
/// one.
const MAX_FAILURES: u64 = 100;
/// Seconds between set-up batches in an untraced run.  Spreading the
/// batches over the run makes `setup_s` the median over the host's states
/// during the whole run, not those of the instant before it: a set-up of
/// microseconds read up to twice as slow in one 30 ms stretch as in the
/// next on a shared virtual machine.
const SETUP_EVERY_S: f64 = 0.5;

/// What one traced job exposes about the layers it crossed.
pub struct TracedJob {
    /// Wall seconds of the whole job.
    pub latency_s: f64,
    /// Wall seconds of `Backend::compile`.
    pub compile_s: f64,
    /// Wall seconds of `Backend::execute`.
    pub execute_s: f64,
    /// What the job returned.
    pub outcome: SkeletonOutcome,
}

/// `f` of every traced job, in run order.
pub fn column(jobs: &[TracedJob], f: impl Fn(&TracedJob) -> f64) -> Vec<f64> {
    jobs.iter().map(f).collect()
}

/// One job of a closed-loop workload.
pub struct Job<'a, B> {
    /// Prefix of the job's spans: `threads`, `proc` or `sim`.
    pub layer: &'static str,
    /// Whether the backend stamps its adaptation log in wall seconds from
    /// the start of `execute`, so its events belong on the trace timeline.
    pub wall_clock: bool,
    pub backend: &'a B,
    pub config: GraspConfig,
    pub skeleton: &'a Skeleton,
}

impl<B: Backend> Job<'_, B> {
    /// Run the job through `Grasp::run`; its wall seconds if `verify`
    /// accepts the outcome.
    pub fn untraced(
        &self,
        verify: impl FnOnce(&SkeletonOutcome) -> Result<(), JobError>,
    ) -> Result<f64, JobError> {
        let t0 = Instant::now();
        let result = Grasp::new(self.config).run(self.backend, self.skeleton);
        let secs = t0.elapsed().as_secs_f64();
        let report = result.map_err(|e| JobError::Failed(e.to_string()))?;
        verify(&report.outcome).map(|()| secs)
    }

    /// Run the job with `compile` and `execute` timed apart, recording a
    /// span for each inside a span for job `id`.
    pub fn traced(
        &self,
        trace: &mut SpanBuf,
        id: u64,
        verify: impl FnOnce(&SkeletonOutcome) -> Result<(), JobError>,
    ) -> Result<TracedJob, JobError> {
        let start = Instant::now();
        let (compiled, compile_s) = trace.time(format!("{}.compile", self.layer), "grasp", || {
            self.backend.compile(&self.config, self.skeleton)
        });
        let compiled = compiled.map_err(|e| JobError::Failed(e.to_string()))?;
        let exec_start = Instant::now();
        let (outcome, execute_s) = trace.time(format!("{}.execute", self.layer), "grasp", || {
            self.backend.execute(&self.config, &compiled)
        });
        let end = Instant::now();
        trace.span(format!("{} job", self.layer), "job", start, end, Some(id));
        let outcome = outcome.map_err(|e| JobError::Failed(e.to_string()))?;
        if self.wall_clock {
            for ev in outcome.adaptation_log.events() {
                let at = exec_start + Duration::from_secs_f64(ev.time.as_secs().max(0.0));
                trace.instant(ev.action.kind(), "adaptation", at);
            }
        }
        verify(&outcome)?;
        Ok(TracedJob {
            latency_s: end.duration_since(start).as_secs_f64(),
            compile_s,
            execute_s,
            outcome,
        })
    }
}

/// Run `job(id)` back to back until `window` closes and at least
/// `min_jobs` were good; returns the good results in run order.
pub fn repeat<T>(
    window: Window,
    min_jobs: usize,
    tally: &mut Tally,
    mut job: impl FnMut(u64) -> Result<T, JobError>,
) -> Vec<T> {
    let mut good = Vec::new();
    let mut id = 0;
    while good.len() < min_jobs.max(1) || !window.closed() {
        id += 1;
        match job(id) {
            Ok(v) => {
                tally.job(Ok(()));
                good.push(v);
            }
            Err(e) => {
                tally.job(Err(e));
                if tally.failed > MAX_FAILURES {
                    break;
                }
            }
        }
    }
    good
}

/// Jobs per block of a closed loop: rates are taken per block of
/// consecutive jobs and the median over blocks is reported, so a host
/// stall that slows a few seconds of a run does not decide it.
fn block_len(jobs: usize) -> usize {
    (jobs / 16).max(5)
}

/// End-to-end metrics of a closed loop from its per-job wall seconds, in
/// run order, and the work units of one job.
fn end_to_end(m: &mut Metrics, latencies: &[f64], units_per_job: usize) {
    let n = latencies.len();
    let len = block_len(n);
    let rates: Vec<f64> = latencies
        .chunks(len)
        .filter(|b| b.len() * 2 >= len || n < len)
        .map(|b| stats::ratio(b.len() as f64, b.iter().sum()))
        .collect();
    let rate = median(&rates);
    m.set("job_p50_s", median(latencies), n);
    m.set("units_per_s", rate * units_per_job as f64, n);
}

/// Run a closed-loop workload as `cfg` asks.  `setup_batch` times one
/// batch of set-ups and returns the seconds of one (untraced runs call it
/// between jobs, every `SETUP_EVERY_S`, and report the median); `layers`
/// turns the traced jobs into the workload's per-layer metrics.
pub fn run(
    cfg: &RunConfig,
    trace: &mut SpanBuf,
    units_per_job: usize,
    mut setup_batch: impl FnMut() -> f64,
    mut untraced: impl FnMut() -> Result<f64, JobError>,
    mut traced: impl FnMut(&mut SpanBuf, u64) -> Result<TracedJob, JobError>,
    layers: impl FnOnce(&[TracedJob], &mut SpanBuf) -> Result<Metrics, String>,
) -> Result<RunReport, String> {
    let mut report = RunReport::default();
    if !cfg.traced {
        stats::reset_peak_rss();
        let window = Window::new(cfg.seconds);
        let mut setup_s = Vec::new();
        let mut next_setup = Instant::now();
        let latencies = repeat(window, 1, &mut report.tally, |_| {
            if Instant::now() >= next_setup {
                setup_s.push(setup_batch());
                next_setup = Instant::now() + Duration::from_secs_f64(SETUP_EVERY_S);
            }
            untraced()
        });
        end_to_end(&mut report.metrics, &latencies, units_per_job);
        report
            .metrics
            .set("setup_s", median(&setup_s), setup_s.len());
        return Ok(report);
    }
    // Half the run untraced, half traced: their medians give the tracing
    // overhead.
    let half = Window::new(cfg.seconds / 2.0);
    let plain = repeat(half, 1, &mut report.tally, |_| untraced());
    let half = Window::new(cfg.seconds / 2.0);
    let jobs = repeat(half, 1, &mut report.tally, |id| traced(trace, id));
    let traced_s: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
    report.metrics = layers(&jobs, trace)?;
    report.metrics.set(
        "trace.overhead_frac",
        stats::ratio(median(&traced_s), median(&plain)) - 1.0,
        traced_s.len(),
    );
    Ok(report)
}

/// A short traced session for another workload's traced run: jobs until
/// `window` closes and at least `min_jobs` were good.
pub fn companion(
    window: Window,
    min_jobs: usize,
    trace: &mut SpanBuf,
    mut traced: impl FnMut(&mut SpanBuf, u64) -> Result<TracedJob, JobError>,
    layers: impl FnOnce(&[TracedJob], &mut SpanBuf) -> Result<Metrics, String>,
) -> Result<RunReport, String> {
    let mut report = RunReport::default();
    let jobs = repeat(window, min_jobs, &mut report.tally, |id| traced(trace, id));
    report.metrics = layers(&jobs, trace)?;
    Ok(report)
}
