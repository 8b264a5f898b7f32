//! `farm-threads`: a closed loop of one client running a seeded Time-Warp
//! transaction-simulation farm (`TranSimJob`) of a few thousand
//! fine-grained irregular units on `ThreadBackend` with two workers and the
//! work-stealing scheduler.  No wire, no spawn, no simulated grid: the
//! scheduler, the steal deques and the engine's bookkeeping are a visible
//! share of every job.

use crate::check;
use crate::closed::{self, column, Job, TracedJob};
use crate::stats::{self, median};
use crate::trace::SpanBuf;
use crate::{derive_seed, JobError, Metrics, RunConfig, RunReport, Window, WORKERS};
use grasp_core::prelude::{
    BackendConfig, GraspConfig, OutcomeDetail, SchedulePolicy, Skeleton, SkeletonOutcome,
};
use grasp_exec::ThreadBackend;
use grasp_workloads::TranSimJob;

/// Farm units (Time-Warp partitions) per job.
const PARTITIONS: usize = 3000;
/// Committed transactions per partition; rollbacks add re-executions.
const EVENTS_PER_PARTITION: usize = 24;
/// Spin iterations per declared work unit (one processed event): sized so
/// a unit takes tens of microseconds.
const SPIN_PER_WORK_UNIT: u64 = 1600;
/// Set-ups per timed batch behind `setup_s`.
const SETUP_PER_BATCH: usize = 3;
/// Seconds a companion session runs in another workload's traced run.
const COMPANION_SECONDS: f64 = 1.0;

/// Everything a job needs, built by one set-up.
struct Setup {
    backend: ThreadBackend,
    config: GraspConfig,
    skeleton: Skeleton,
}

/// The job's inputs for `seed`.
fn transim(seed: u64) -> TranSimJob {
    TranSimJob {
        partitions: PARTITIONS,
        accounts_per_partition: 16,
        events_per_partition: EVENTS_PER_PARTITION,
        skew: 6.0,
        kernel_iters: 32,
        seed: derive_seed(seed, 1),
    }
}

/// One set-up: the backend and the job's skeleton.
fn build(job: &TranSimJob) -> Setup {
    let backend = ThreadBackend::new(WORKERS)
        .with_policy(SchedulePolicy::WorkStealing { min_chunk: 1 })
        .with_config(BackendConfig::new().spin_per_work_unit(SPIN_PER_WORK_UNIT));
    Setup {
        backend,
        config: GraspConfig::default(),
        skeleton: Skeleton::farm(job.as_tasks(1.0)),
    }
}

impl Setup {
    fn job(&self) -> Job<'_, ThreadBackend> {
        Job {
            layer: "threads",
            wall_clock: true,
            backend: &self.backend,
            config: self.config,
            skeleton: &self.skeleton,
        }
    }

    fn verify(&self, outcome: &SkeletonOutcome) -> Result<(), JobError> {
        check::conserved(outcome, &self.skeleton)
    }
}

/// The job's spin kernel run single-threaded, divided by the worker count:
/// the shortest a perfectly scheduled job could take.
fn kernel_floor(s: &Setup, trace: &mut SpanBuf) -> f64 {
    let (_, secs) = trace.time("threads.kernel_floor", "probe", || {
        if let Skeleton::Farm { tasks } = &s.skeleton {
            for t in tasks {
                grasp_exec::spin((t.work.max(0.0) * SPIN_PER_WORK_UNIT as f64).round() as u64);
            }
        }
    });
    secs / WORKERS as f64
}

/// Per-layer metrics of the traced jobs.
fn layer_metrics(jobs: &[TracedJob], floor_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let n = jobs.len();
    let execute_s = median(&column(jobs, |j| j.execute_s));
    m.set(
        "threads.compile_s",
        median(&column(jobs, |j| j.compile_s)),
        n,
    );
    m.set("threads.execute_s", execute_s, n);
    m.set(
        "threads.calibration_s",
        median(&column(jobs, |j| j.outcome.calibration_s)),
        n,
    );
    m.set("threads.kernel_floor_s", floor_s, 1);
    m.set("threads.overhead_s", execute_s - floor_s, n);
    let steal = |j: &TracedJob| match &j.outcome.detail {
        OutcomeDetail::ThreadFarm {
            steals_attempted,
            steals_completed,
            units_stolen,
            work_per_worker,
            ..
        } => {
            let mean = stats::mean(work_per_worker);
            let max = work_per_worker.iter().cloned().fold(0.0, f64::max);
            (
                *steals_attempted as f64,
                *steals_completed as f64,
                *units_stolen as f64,
                stats::ratio(max, mean),
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    let attempted = column(jobs, |j| steal(j).0);
    let completed = column(jobs, |j| steal(j).1);
    m.set("threads.steals_attempted", median(&attempted), n);
    m.set("threads.steals_completed", median(&completed), n);
    m.set(
        "threads.units_stolen",
        median(&column(jobs, |j| steal(j).2)),
        n,
    );
    m.set(
        "threads.steal_success_ratio",
        stats::ratio(completed.iter().sum(), attempted.iter().sum()),
        n,
    );
    m.set(
        "threads.work_imbalance",
        median(&column(jobs, |j| steal(j).3)),
        n,
    );
    m.set(
        "threads.adaptations",
        stats::mean(&column(jobs, |j| j.outcome.adaptations() as f64)),
        n,
    );
    m
}

/// Run the workload as `cfg` asks.
pub fn run(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let inputs = transim(cfg.seed);
    let s = build(&inputs);
    let job = s.job();
    closed::run(
        cfg,
        trace,
        s.skeleton.work_units(),
        || stats::setup_batch(SETUP_PER_BATCH, || build(&inputs)).1,
        || job.untraced(|o| s.verify(o)),
        |trace, id| job.traced(trace, id, |o| s.verify(o)),
        |jobs, trace| Ok(layer_metrics(jobs, kernel_floor(&s, trace))),
    )
}

/// A short traced session for another workload's traced run.
pub fn companion(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let s = build(&transim(cfg.seed));
    let job = s.job();
    closed::companion(
        Window::new(COMPANION_SECONDS),
        1,
        trace,
        |trace, id| job.traced(trace, id, |o| s.verify(o)),
        |jobs, trace| Ok(layer_metrics(jobs, kernel_floor(&s, trace))),
    )
}
