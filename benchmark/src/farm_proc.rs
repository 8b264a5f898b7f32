//! `farm-proc`: a closed loop of one client running the default blocked
//! matrix multiply (`MatMulJob`, n = 512) on `ProcBackend` with two worker
//! processes over the default pipe transport, shipping the real band
//! payloads.  Every job spawns fresh workers, as a user's job does, so
//! spawn and handshake, the calibration prefix, the wire and the worker
//! kernel are all on the path.  Every unit's result digest is checked
//! against a reference computed locally before timing starts.

use crate::check;
use crate::closed::{self, column, Job, TracedJob};
use crate::stats::{self, median, median_secs};
use crate::trace::SpanBuf;
use crate::{derive_seed, JobError, Metrics, RunConfig, RunReport, Window, WORKERS};
use grasp_core::prelude::{
    BackendConfig, Grasp, GraspConfig, OutcomeDetail, Skeleton, SkeletonOutcome, TaskSpec,
};
use grasp_core::wire::{FrameView, WireMsg};
use grasp_proc::ProcBackend;
use grasp_workloads::MatMulJob;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Declared floating-point operations per work unit.
const FLOPS_PER_WORK_UNIT: f64 = 1e6;
/// Set-ups per timed batch behind `setup_s`: one set-up takes
/// microseconds.
const SETUP_PER_BATCH: usize = 200;
/// Jobs a companion session runs in another workload's traced run.
const COMPANION_JOBS: usize = 2;
/// Zero-work probe jobs whose median is `proc.spawn_s`.
const SPAWN_REPS: usize = 5;

/// Everything a job needs, built by one set-up.
struct Setup {
    job: MatMulJob,
    /// The worker binary.
    bin: PathBuf,
    backend: ProcBackend,
    config: GraspConfig,
    skeleton: Skeleton,
    /// Wire payloads by unit id (for the kernel floor and wire probes).
    payloads: Vec<(usize, u32, Vec<u8>)>,
    /// Reference result digest of every unit.
    reference: Vec<u64>,
}

/// The worker binary built next to this executable.
fn worker_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let bin = exe.with_file_name(format!(
        "{}{}",
        grasp_proc::WORKER_BIN_NAME,
        std::env::consts::EXE_SUFFIX
    ));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("worker binary {} is missing", bin.display()))
    }
}

/// One set-up: the job's wire payloads, the backend that ships them, and
/// the job's skeleton.
fn build(job: &MatMulJob, bin: &Path) -> (ProcBackend, Skeleton) {
    let backend = ProcBackend::new(WORKERS)
        .with_config(BackendConfig::new().worker_bin(bin.to_path_buf()))
        .with_payloads(job.wire_payloads());
    (backend, Skeleton::farm(job.as_tasks(FLOPS_PER_WORK_UNIT)))
}

/// The job for `seed`, one set-up of it, and the reference digest of every
/// unit (the benchmark's own work, which no timing includes).
fn setup(seed: u64) -> Result<Setup, String> {
    let job = MatMulJob {
        seed: derive_seed(seed, 2),
        ..MatMulJob::default()
    };
    let bin = worker_bin()?;
    let reference: Vec<u64> = (0..job.task_count())
        .map(|i| job.band_task(i).digest())
        .collect();
    let (backend, skeleton) = build(&job, &bin);
    Ok(Setup {
        job,
        bin,
        backend,
        config: GraspConfig::default(),
        skeleton,
        payloads: job.wire_payloads(),
        reference,
    })
}

/// Probes of the layers under the process master: spawn, worker kernel,
/// frame encode/decode of this job's payload.
fn probes(s: &Setup, trace: &mut SpanBuf, m: &mut Metrics) -> Result<f64, String> {
    // Spawn + Hello/Init + Shutdown: a job of two zero-work units.
    let probe = Skeleton::farm(TaskSpec::uniform(WORKERS, 0.0, 0, 0));
    let spawn_backend =
        ProcBackend::new(WORKERS).with_config(BackendConfig::new().worker_bin(s.bin.clone()));
    let mut spawn = Vec::with_capacity(SPAWN_REPS);
    for _ in 0..SPAWN_REPS {
        let (r, secs) = trace.time("proc.spawn_probe", "probe", || {
            Grasp::new(s.config).run(&spawn_backend, &probe)
        });
        r.map_err(|e| format!("zero-work spawn probe failed: {e}"))?;
        spawn.push(secs);
    }
    let spawn_s = median(&spawn);
    m.set("proc.spawn_s", spawn_s, SPAWN_REPS);

    // The worker kernel over the whole job, single-threaded, ÷ workers;
    // its digests must match the reference too.
    let (floor, floor_secs) = trace.time("proc.kernel_floor", "probe", || {
        s.payloads
            .iter()
            .map(|(id, kind, bytes)| {
                let work = s.skeleton_work(*id);
                grasp_proc::worker::execute_payload(*kind, bytes, work, 1)
                    .map(|digest| (*id, digest))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let digests = floor.map_err(|e| format!("kernel floor: {e}"))?;
    check::digests_match(&digests, &s.reference)
        .map_err(|e| format!("local kernel digests: {e:?}"))?;
    m.set(
        "proc.kernel_floor_s",
        floor_secs / WORKERS as f64,
        s.payloads.len(),
    );

    // One band's inputs and multiply, as each worker runs them.
    let band = s.job.band_task(0);
    let ((a, b), _) = trace.time("matmul.generate_inputs", "probe", || {
        s.job.generate_inputs()
    });
    let inputs_s = median_secs(3, || {
        black_box(s.job.generate_inputs());
    });
    let multiply_s = median_secs(3, || {
        black_box(s.job.multiply_band(&a, &b, band.row0, band.rows));
    });
    m.set("workloads.matmul.inputs_s", inputs_s, 3);
    m.set("workloads.matmul.multiply_s", multiply_s, 3);

    // One Task frame of this job's payload: encode into a reused buffer,
    // borrowed decode.
    let (_, kind, payload) = &s.payloads[0];
    let msg = WireMsg::Task {
        unit_id: 0,
        work: s.skeleton_work(0),
        kind: *kind,
        payload: payload.clone(),
    };
    const FRAMES: u32 = 200_000;
    let mut frame = Vec::new();
    let (_, enc) = trace.time("wire.encode_into", "probe", || {
        for _ in 0..FRAMES {
            black_box(&msg).encode_into(&mut frame);
            black_box(&frame);
        }
    });
    let (decoded, dec) = trace.time("wire.decode_slice", "probe", || {
        let mut used = 0;
        for _ in 0..FRAMES {
            let (view, n) = FrameView::decode_slice(black_box(&frame))?;
            black_box(&view);
            used += n;
        }
        Ok::<usize, grasp_core::prelude::GraspError>(used)
    });
    decoded.map_err(|e| format!("decoding an encoded Task frame failed: {e}"))?;
    m.set(
        "core.wire.encode_ns",
        enc * 1e9 / FRAMES as f64,
        FRAMES as usize,
    );
    m.set(
        "core.wire.decode_ns",
        dec * 1e9 / FRAMES as f64,
        FRAMES as usize,
    );
    Ok(spawn_s)
}

impl Setup {
    fn job(&self) -> Job<'_, ProcBackend> {
        Job {
            layer: "proc",
            wall_clock: true,
            backend: &self.backend,
            config: self.config,
            skeleton: &self.skeleton,
        }
    }

    /// Every unit completed once, with the reference digest.
    fn verify(&self, outcome: &SkeletonOutcome) -> Result<(), JobError> {
        check::conserved(outcome, &self.skeleton)?;
        check::proc_digests(outcome, &self.reference)
    }

    /// Declared work of unit `id`.
    fn skeleton_work(&self, id: usize) -> f64 {
        match &self.skeleton {
            Skeleton::Farm { tasks } => tasks.get(id).map_or(0.0, |t| t.work),
            _ => 0.0,
        }
    }
}

/// Per-layer metrics of the traced jobs plus the probes.
fn layer_metrics(s: &Setup, jobs: &[TracedJob], trace: &mut SpanBuf) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let spawn_s = probes(s, trace, &mut m)?;
    let n = jobs.len();
    let wire = |j: &TracedJob| match &j.outcome.detail {
        OutcomeDetail::ProcFarm {
            bytes_sent,
            bytes_received,
            wire_write_s,
            wire_encode_s,
            bytes_copied,
            ..
        } => (
            *wire_write_s,
            *wire_encode_s,
            (bytes_sent + bytes_received) as f64,
            *bytes_copied as f64 / j.outcome.completed.max(1) as f64,
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    let execute_s = median(&column(jobs, |j| j.execute_s));
    let write_s = median(&column(jobs, |j| wire(j).0));
    m.set("proc.compile_s", median(&column(jobs, |j| j.compile_s)), n);
    m.set("proc.execute_s", execute_s, n);
    m.set(
        "proc.calibration_s",
        median(&column(jobs, |j| j.outcome.calibration_s)),
        n,
    );
    let floor_s = m.get("proc.kernel_floor_s").unwrap_or(0.0);
    m.set(
        "proc.unattributed_s",
        execute_s - spawn_s - floor_s - write_s,
        n,
    );
    m.set(
        "proc.requeued",
        stats::mean(&column(jobs, |j| {
            j.outcome.resilience.requeued_tasks as f64
        })),
        n,
    );
    m.set(
        "proc.nodes_lost",
        stats::mean(&column(jobs, |j| j.outcome.resilience.nodes_lost as f64)),
        n,
    );
    m.set("proc.wire_write_s", write_s, n);
    m.set(
        "proc.wire_encode_s",
        median(&column(jobs, |j| wire(j).1)),
        n,
    );
    m.set("proc.wire_bytes", median(&column(jobs, |j| wire(j).2)), n);
    m.set(
        "proc.bytes_copied_per_unit",
        median(&column(jobs, |j| wire(j).3)),
        n,
    );
    Ok(m)
}

/// Run the workload as `cfg` asks.
pub fn run(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let s = setup(cfg.seed)?;
    let job = s.job();
    closed::run(
        cfg,
        trace,
        s.skeleton.work_units(),
        || stats::setup_batch(SETUP_PER_BATCH, || build(&s.job, &s.bin)).1,
        || job.untraced(|o| s.verify(o)),
        |trace, id| job.traced(trace, id, |o| s.verify(o)),
        |jobs, trace| layer_metrics(&s, jobs, trace),
    )
}

/// A short traced session for another workload's traced run.
pub fn companion(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let s = setup(cfg.seed)?;
    let job = s.job();
    closed::companion(
        Window::new(0.0),
        COMPANION_JOBS,
        trace,
        |trace, id| job.traced(trace, id, |o| s.verify(o)),
        |jobs, trace| layer_metrics(&s, jobs, trace),
    )
}
