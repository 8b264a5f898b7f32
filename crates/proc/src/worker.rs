//! The worker side of the process-isolated backend.
//!
//! A worker is a freshly exec'd OS process that speaks the
//! [`grasp_core::wire`] protocol over its standard streams: `stdin` carries
//! master → worker frames, `stdout` carries worker → master frames, and
//! `stderr` is left for human-readable diagnostics.  The lifecycle is
//!
//! 1. send [`WireMsg::Hello`];
//! 2. receive [`WireMsg::Init`] (heartbeat cadence, spin scale);
//! 3. loop: execute [`WireMsg::Task`] frames, answering each with
//!    [`WireMsg::Done`] (or [`WireMsg::Failed`] when the payload cannot be
//!    executed — the worker itself survives a bad payload);
//! 4. exit on [`WireMsg::Shutdown`] or a clean `stdin` EOF (the master
//!    closing a demoted worker's channel *is* the shutdown signal).
//!
//! The loop runs every payload through one owned [`Kernels`] state, which
//! keeps the mat-mul inputs of the job being served: a worker process
//! serves one job, so it generates that job's matrices on its first band
//! and reuses them for every later band.  The master never holds this
//! state; it ships descriptors only.
//!
//! A dedicated heartbeat thread keeps writing [`WireMsg::Heartbeat`] frames
//! at the configured cadence even while the main thread is deep in a long
//! computation, so the master's liveness timeout only ever fires for
//! processes that are genuinely gone (hard-killed, wedged, or unreachable).

use grasp_core::error::GraspError;
use grasp_core::shm::ShmRing;
use grasp_core::transport::{stream_connection, FrameSink, FrameSource};
use grasp_core::wire::{FrameView, WireMsg, PAYLOAD_IMAGING, PAYLOAD_MATMUL, PAYLOAD_SPIN};
use grasp_workloads::imaging::ImagingFrameTask;
use grasp_workloads::matmul::{MatMulBandTask, MatMulInputs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The kernel state one worker protocol loop owns: its spin scale, the
/// mat-mul inputs of the job it last served and a reused band buffer.
///
/// [`Kernels::execute`] is the one payload dispatch behind both protocol
/// loops ([`run_transport`] here, `grasp_net::worker::run_connection` on the
/// socket backend):
///
/// * [`PAYLOAD_SPIN`] burns the same calibrated spin kernel the thread
///   backend uses, scaled by the unit's declared work (digest 0);
/// * [`PAYLOAD_MATMUL`] decodes the band and multiplies it over cached
///   inputs.  The cache holds one entry keyed by `(n, seed)` — a band's
///   inputs do not depend on its blocking — so only the first band of a job
///   (or a band of a different `(n, seed)`) generates them, and a miss
///   replaces the entry.  Once warm, a band of the same job allocates
///   nothing;
/// * [`PAYLOAD_IMAGING`] decodes and runs the imaging frame kernel.
///
/// Every result digest is bit-identical to the cold
/// [`MatMulBandTask::digest`] / [`ImagingFrameTask::digest`].  Unknown
/// kinds and malformed payloads are typed errors that leave the cache as it
/// was — the caller reports them as [`WireMsg::Failed`] and keeps serving.
#[derive(Debug)]
pub struct Kernels {
    spin_per_work_unit: u64,
    matmul_inputs: Option<MatMulInputs>,
    band: Vec<f64>,
    /// Input generations so far, for the cache tests below.
    #[cfg(test)]
    input_generations: u64,
}

impl Kernels {
    /// Empty kernel state for a worker whose spin kernel runs
    /// `spin_per_work_unit` iterations per declared work unit.  Allocates
    /// nothing until the first mat-mul band.
    pub fn new(spin_per_work_unit: u64) -> Self {
        Kernels {
            spin_per_work_unit,
            matmul_inputs: None,
            band: Vec::new(),
            #[cfg(test)]
            input_generations: 0,
        }
    }

    /// Execute one task payload of declared `work`, returning the result
    /// digest.
    pub fn execute(&mut self, kind: u32, payload: &[u8], work: f64) -> Result<u64, GraspError> {
        match kind {
            PAYLOAD_SPIN => {
                let iters = (work.max(0.0) * self.spin_per_work_unit as f64).round() as u64;
                grasp_exec::spin(iters);
                Ok(0)
            }
            PAYLOAD_MATMUL => {
                let task = MatMulBandTask::decode(payload)?;
                if self
                    .matmul_inputs
                    .as_ref()
                    .is_some_and(|inputs| !inputs.serves(&task.job))
                {
                    // Drop the stale entry before generating, so a worker
                    // never holds more than one job's inputs.
                    self.matmul_inputs = None;
                }
                let inputs = self.matmul_inputs.get_or_insert_with(|| {
                    #[cfg(test)]
                    {
                        self.input_generations += 1;
                    }
                    MatMulInputs::generate(&task.job)
                });
                Ok(task.digest_with(inputs, &mut self.band))
            }
            PAYLOAD_IMAGING => Ok(ImagingFrameTask::decode(payload)?.digest()),
            other => Err(GraspError::WireProtocol {
                detail: format!("unknown task payload kind {other}"),
            }),
        }
    }
}

/// Execute one task payload on fresh kernel state, returning the result
/// digest: the stateless cold path (a mat-mul band generates its inputs for
/// itself alone).  A worker loop keeps a [`Kernels`] instead.
pub fn execute_payload(
    kind: u32,
    payload: &[u8],
    work: f64,
    spin_per_work_unit: u64,
) -> Result<u64, GraspError> {
    Kernels::new(spin_per_work_unit).execute(kind, payload, work)
}

fn send(out: &Arc<Mutex<Box<dyn FrameSink>>>, msg: &WireMsg) -> Result<(), GraspError> {
    out.lock()
        .unwrap_or_else(|e| e.into_inner())
        .send(msg)
        .map(|_| ())
}

/// Run the worker protocol over this process's standard streams until the
/// master shuts it down; returns the process exit code.
///
/// This is the body of the `grasp-proc-worker` binary (absent `--shm`),
/// kept in the library so any binary can embed a worker mode (the "re-exec
/// the current binary" deployment style) by calling it from `main`.
pub fn run_stdio() -> i32 {
    let (sink, source) =
        stream_connection("stdio".to_string(), std::io::stdout(), std::io::stdin()).split();
    run_transport(sink, source)
}

/// Run the worker protocol over the shared-memory ring at `path` (created
/// by a master using [`crate::Transport::Shm`]); returns the process exit
/// code.
pub fn run_shm(path: &str) -> i32 {
    let (sink, source) = match ShmRing::attach(path) {
        Ok(ring) => ring.into_halves(0),
        Err(e) => {
            eprintln!("grasp-proc-worker: {e}");
            return 2;
        }
    };
    run_transport(Box::new(sink), Box::new(source))
}

/// The transport-generic worker protocol loop.
///
/// Task frames are taken off the wire as borrowed [`FrameView`]s: the
/// payload bytes are executed straight out of the source's reused read
/// buffer, so a worker's steady state does not allocate per task beyond
/// what the kernel itself needs.
pub fn run_transport(sink: Box<dyn FrameSink>, mut source: Box<dyn FrameSource>) -> i32 {
    let sink = Arc::new(Mutex::new(sink));
    if let Err(e) = send(
        &sink,
        &WireMsg::Hello {
            pid: std::process::id() as u64,
        },
    ) {
        eprintln!("grasp-proc-worker: {e}");
        return 2;
    }
    // The master speaks Init first; anything else is a protocol breach.
    let (heartbeat_interval_s, mut kernels) = match source.recv() {
        Ok(Some(WireMsg::Init {
            heartbeat_interval_s,
            spin_per_work_unit,
        })) => (heartbeat_interval_s, Kernels::new(spin_per_work_unit)),
        Ok(Some(other)) => {
            eprintln!("grasp-proc-worker: expected Init, got {other:?}");
            return 2;
        }
        Ok(None) => return 0, // master vanished before configuring us
        Err(e) => {
            eprintln!("grasp-proc-worker: {e}");
            return 2;
        }
    };
    // Liveness: beat independently of the (possibly long) computations on
    // the main thread.  The thread dies with the process; a failed write
    // means the master is gone, so it just stops.
    if heartbeat_interval_s > 0.0 {
        let out = Arc::clone(&sink);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_secs_f64(heartbeat_interval_s));
            if send(&out, &WireMsg::Heartbeat).is_err() {
                break;
            }
        });
    }
    loop {
        let reply = match source.recv_view() {
            Ok(Some(FrameView::Task {
                unit_id,
                work,
                kind,
                payload,
            })) => {
                let t0 = Instant::now();
                match kernels.execute(kind, payload, work) {
                    Ok(digest) => WireMsg::Done {
                        unit_id,
                        elapsed_s: t0.elapsed().as_secs_f64(),
                        digest,
                    },
                    Err(e) => WireMsg::Failed {
                        unit_id,
                        detail: e.to_string(),
                    },
                }
            }
            Ok(Some(FrameView::Shutdown)) | Ok(None) => return 0,
            Ok(Some(other)) => {
                eprintln!("grasp-proc-worker: unexpected frame {other:?}");
                return 2;
            }
            Err(e) => {
                eprintln!("grasp-proc-worker: {e}");
                return 2;
            }
        };
        if send(&sink, &reply).is_err() {
            return 0; // master gone; nothing left to serve
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_core::wire::fnv1a_64;
    use grasp_workloads::imaging::ImagePipeline;
    use grasp_workloads::matmul::MatMulJob;

    #[test]
    fn spin_payloads_execute_with_zero_digest() {
        assert_eq!(execute_payload(PAYLOAD_SPIN, &[], 2.0, 10).unwrap(), 0);
        assert_eq!(execute_payload(PAYLOAD_SPIN, &[], -1.0, 10).unwrap(), 0);
    }

    #[test]
    fn real_payloads_execute_to_the_reference_digest() {
        let job = MatMulJob::small();
        let task = job.band_task(1);
        let digest = execute_payload(PAYLOAD_MATMUL, &task.encode(), 1.0, 1).unwrap();
        assert_eq!(digest, task.digest());

        let p = ImagePipeline::small();
        let task = ImagingFrameTask {
            pipeline: p,
            frame: 0,
        };
        let digest = execute_payload(PAYLOAD_IMAGING, &task.encode(), 1.0, 1).unwrap();
        assert_eq!(digest, task.digest());
        assert_ne!(digest, fnv1a_64(b""), "a real frame hashes non-trivially");
    }

    #[test]
    fn bad_payloads_are_typed_errors_not_panics() {
        assert!(execute_payload(PAYLOAD_MATMUL, &[1, 2, 3], 1.0, 1).is_err());
        assert!(execute_payload(PAYLOAD_IMAGING, &[], 1.0, 1).is_err());
        assert!(execute_payload(999, &[], 1.0, 1).is_err());
    }

    /// Serve `(job, band)` on `kernels` and check the cold reference digest.
    fn serve(kernels: &mut Kernels, job: &MatMulJob, band: usize) {
        let task = job.band_task(band);
        let digest = kernels
            .execute(PAYLOAD_MATMUL, &task.encode(), 1.0)
            .unwrap_or_else(|e| panic!("{job:?} band {band}: {e}"));
        assert_eq!(digest, task.digest(), "{job:?} band {band}");
    }

    #[test]
    fn interleaved_bands_of_different_seeds_and_sizes_digest_exactly() {
        let base = MatMulJob::small();
        let jobs = [
            base,
            MatMulJob { seed: 2, ..base },
            MatMulJob { n: 48, ..base },
        ];
        let mut kernels = Kernels::new(1);
        let mut misses = 0;
        for band in 0..base.task_count() {
            for job in &jobs {
                if band < job.task_count() {
                    serve(&mut kernels, job, band);
                    misses += 1;
                }
            }
        }
        // Every switch of (n, seed) replaces the single entry.
        assert_eq!(kernels.input_generations, misses);
    }

    #[test]
    fn jobs_differing_only_in_blocking_share_one_generation() {
        let job = MatMulJob::small();
        let finest = MatMulJob {
            block_rows: 5,
            ..job
        };
        let coarsest = MatMulJob {
            block_rows: 64,
            ..job
        };
        let mut kernels = Kernels::new(1);
        for band in 0..finest.task_count() {
            for j in [&job, &finest, &coarsest] {
                if band < j.task_count() {
                    serve(&mut kernels, j, band);
                }
            }
        }
        assert_eq!(kernels.input_generations, 1);
    }

    #[test]
    fn failures_between_bands_do_not_poison_the_cache() {
        let job = MatMulJob::small();
        let mut kernels = Kernels::new(10);
        serve(&mut kernels, &job, 0);
        let good = job.band_task(1).encode();
        // A truncated band, an out-of-range band and an unknown kind are
        // typed errors...
        assert!(matches!(
            kernels.execute(PAYLOAD_MATMUL, &good[..good.len() - 1], 1.0),
            Err(GraspError::WireProtocol { .. })
        ));
        let outside = MatMulBandTask {
            row0: job.n,
            ..job.band_task(0)
        };
        assert!(matches!(
            kernels.execute(PAYLOAD_MATMUL, &outside.encode(), 1.0),
            Err(GraspError::WireProtocol { .. })
        ));
        assert!(matches!(
            kernels.execute(999, &good, 1.0),
            Err(GraspError::WireProtocol { .. })
        ));
        // ...spin units are unaffected...
        assert_eq!(kernels.execute(PAYLOAD_SPIN, &[], 2.0).unwrap(), 0);
        // ...and the job's remaining bands still hit the warm entry.
        for band in 1..job.task_count() {
            serve(&mut kernels, &job, band);
        }
        assert_eq!(kernels.input_generations, 1);
    }
}
