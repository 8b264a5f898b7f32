//! Acceptance tests of the process-isolated backend: cross-backend parity,
//! real serialized kernels, hard-kill survival, and typed failure modes.
//!
//! These tests live in the workspace root on purpose: the root package owns
//! the `grasp-proc-worker` binary, so Cargo builds it before these tests run
//! and hands us its exact path through `CARGO_BIN_EXE_grasp-proc-worker`.

use grasp_repro::grasp_core::prelude::*;
use grasp_repro::grasp_exec::ThreadBackend;
use grasp_repro::grasp_proc::{ProcBackend, Transport};
use grasp_repro::grasp_workloads::imaging::{ImagePipeline, ImagingFrameTask};
use grasp_repro::grasp_workloads::matmul::MatMulJob;
use std::collections::BTreeSet;

/// The worker binary Cargo built for this test run.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_grasp-proc-worker")
}

fn proc_backend(workers: usize) -> ProcBackend {
    ProcBackend::new(workers).with_config(BackendConfig::new().worker_bin(worker_bin()))
}

#[test]
fn proc_and_thread_backends_agree_on_a_fixed_seed_matmul_farm() {
    // Backend parity, extended to the third backend: the same fixed-seed
    // matmul job lowered through the same rules must cover the same unit-id
    // set exactly once on real threads and on worker processes, and both
    // outcomes must satisfy the conservation invariant.  This also pins the
    // proc backend's behaviour across the transport-trait refactor: the
    // master now speaks through `grasp_core::transport` sinks/sources (the
    // same surface the socket backend uses), and the unit-set equality here
    // must be unaffected.
    let job = MatMulJob {
        n: 96,
        block_rows: 16,
        seed: 11,
    };
    let skeleton = Skeleton::farm(job.as_tasks(1e6));
    let grasp = Grasp::new(GraspConfig::default());

    let threads = grasp
        .run(
            &ThreadBackend::new(4).with_config(BackendConfig::new().spin_per_work_unit(10)),
            &skeleton,
        )
        .expect("thread backend run failed");
    let procs = grasp
        .run(
            &proc_backend(4).with_config(BackendConfig::new().spin_per_work_unit(10)),
            &skeleton,
        )
        .expect("proc backend run failed");

    assert_eq!(procs.outcome.kind, threads.outcome.kind);
    assert_eq!(procs.outcome.completed, threads.outcome.completed);
    let t_ids: BTreeSet<usize> = threads.outcome.unit_ids.iter().copied().collect();
    let p_ids: BTreeSet<usize> = procs.outcome.unit_ids.iter().copied().collect();
    assert_eq!(t_ids, p_ids, "both backends cover the same unit set");
    assert_eq!(procs.outcome.unit_ids.len(), p_ids.len(), "no unit twice");
    assert!(threads.outcome.conserves_units_of(&skeleton));
    assert!(procs.outcome.conserves_units_of(&skeleton));
    assert!(procs.outcome.resilience.is_clean());
    match &procs.outcome.detail {
        OutcomeDetail::ProcFarm {
            workers,
            tasks_per_worker,
            bytes_sent,
            bytes_received,
            ..
        } => {
            assert_eq!(*workers, 4);
            assert_eq!(tasks_per_worker.iter().sum::<usize>(), job.task_count());
            // The serialization boundary is real: frames actually crossed it
            // in both directions.
            assert!(*bytes_sent > 0 && *bytes_received > 0);
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn proc_workers_compute_real_matmul_bands_with_matching_digests() {
    // Ship the *real* kernel over the wire: each worker process decodes a
    // serialized band task, derives the inputs from the seed (once, on its
    // first band, then reused), multiplies, and reports a digest of the
    // exact result bits.  The master-side digest of the same band must
    // agree — the process boundary and the reuse changed nothing.
    let job = MatMulJob {
        n: 64,
        block_rows: 16,
        seed: 2026,
    };
    let skeleton = Skeleton::farm(job.as_tasks(1e6));
    let backend = proc_backend(3).with_payloads(job.wire_payloads());
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("proc matmul run failed");
    assert!(report.outcome.conserves_units_of(&skeleton));
    match &report.outcome.detail {
        OutcomeDetail::ProcFarm { unit_digests, .. } => {
            assert_eq!(unit_digests.len(), job.task_count());
            for &(unit, digest) in unit_digests {
                assert_eq!(
                    digest,
                    job.band_task(unit).digest(),
                    "band {unit} computed remotely must match the local kernel"
                );
            }
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn proc_workers_compute_real_imaging_frames_with_matching_digests() {
    let pipeline = ImagePipeline {
        width: 48,
        height: 32,
        frames: 9,
        seed: 77,
    };
    let skeleton = Skeleton::farm(pipeline.as_frame_tasks(1000.0));
    let backend = proc_backend(3).with_payloads(pipeline.wire_payloads());
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("proc imaging run failed");
    assert!(report.outcome.conserves_units_of(&skeleton));
    match &report.outcome.detail {
        OutcomeDetail::ProcFarm { unit_digests, .. } => {
            for &(unit, digest) in unit_digests {
                let reference = ImagingFrameTask {
                    pipeline,
                    frame: unit,
                }
                .digest();
                assert_eq!(digest, reference, "frame {unit} digest mismatch");
            }
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn proc_backend_survives_a_hard_killed_worker_and_conserves_units() {
    // The acceptance check of the tentpole: a worker process is SIGKILLed
    // mid-run — no unwinding, no goodbye frame, exactly a revoked grid node.
    // The master must detect the loss, requeue the in-flight units on the
    // survivors, and finish with full unit conservation and the loss visible
    // in the ResilienceReport.  Tasks are slow enough that the victim's
    // outstanding window cannot drain between dispatch and kill.
    let skeleton = Skeleton::farm(TaskSpec::uniform(40, 2.0, 0, 0));
    let backend = proc_backend(3)
        .with_config(BackendConfig::new().spin_per_work_unit(2_000_000))
        .with_fault_injection(FaultInjection::none().kill(1, 2));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a hard-killed worker must not fail the run");
    assert_eq!(report.outcome.completed, 40);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.nodes_lost >= 1,
        "the kill must be accounted as a lost node: {:?}",
        report.outcome.resilience
    );
    assert!(
        report.outcome.resilience.requeued_tasks >= 1,
        "in-flight units of the victim must be requeued: {:?}",
        report.outcome.resilience
    );
    assert!(report.outcome.resilience.retried_tasks >= 1);
    // The loss is also on the backend-neutral audit trail.
    assert!(report
        .outcome
        .adaptation_log
        .events()
        .iter()
        .any(|e| matches!(
            e.action,
            grasp_repro::grasp_core::adaptation::AdaptationAction::NodeLost { .. }
        )));
    match &report.outcome.detail {
        OutcomeDetail::ProcFarm {
            tasks_per_worker, ..
        } => {
            // The two survivors carried the rest of the job.
            assert_eq!(tasks_per_worker.iter().sum::<usize>(), 40);
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn work_stealing_config_survives_a_hard_killed_proc_worker() {
    // The stealing policy's config must flow through the proc master intact:
    // on this backend `WorkStealing` degrades to its demand-driven chunk
    // formula (there are no shared deques across a process boundary), and a
    // SIGKILLed worker with outstanding units must still feed the same
    // requeue path — conservation and the ResilienceReport hold exactly as
    // under the default policy.
    use grasp_repro::grasp_core::SchedulePolicy;
    let skeleton = Skeleton::farm(TaskSpec::uniform(40, 2.0, 0, 0));
    let backend = proc_backend(3)
        .with_config(BackendConfig::new().spin_per_work_unit(2_000_000))
        .with_fault_injection(FaultInjection::none().kill(1, 2));
    let cfg = GraspConfig {
        scheduler: SchedulePolicy::WorkStealing { min_chunk: 1 },
        ..GraspConfig::default()
    };
    let report = Grasp::new(cfg)
        .run(&backend, &skeleton)
        .expect("a hard-killed worker under the stealing policy must not fail the run");
    assert_eq!(report.outcome.completed, 40);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.nodes_lost >= 1,
        "the kill must be accounted as a lost node: {:?}",
        report.outcome.resilience
    );
    assert!(
        report.outcome.resilience.requeued_tasks >= 1,
        "in-flight units of the victim must be requeued: {:?}",
        report.outcome.resilience
    );
}

#[test]
fn shm_transport_computes_real_kernels_with_matching_digests() {
    // The shared-memory ring is a drop-in transport: the same serialized
    // matmul bands cross it, the same digests come back, and the wire
    // accounting still sees every frame byte (the ring counts drained
    // bytes just like a pipe counts read ones).
    let job = MatMulJob {
        n: 64,
        block_rows: 16,
        seed: 2026,
    };
    let skeleton = Skeleton::farm(job.as_tasks(1e6));
    let backend = proc_backend(3)
        .with_transport(Transport::Shm)
        .with_payloads(job.wire_payloads());
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("shm matmul run failed");
    assert!(report.outcome.conserves_units_of(&skeleton));
    match &report.outcome.detail {
        OutcomeDetail::ProcFarm {
            unit_digests,
            bytes_sent,
            bytes_received,
            bytes_copied,
            ..
        } => {
            assert_eq!(unit_digests.len(), job.task_count());
            for &(unit, digest) in unit_digests {
                assert_eq!(digest, job.band_task(unit).digest());
            }
            assert!(*bytes_sent > 0 && *bytes_received > 0);
            // The ring writes straight from the encode buffer: nothing is
            // copied beyond the one encode per frame.
            assert_eq!(*bytes_copied, 0, "shm transport must be zero-copy");
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn shm_transport_survives_a_hard_killed_worker_and_conserves_units() {
    // The SIGKILL acceptance test on the ring transport: with no pipe EOF
    // to lean on, death detection is the closed flag + `/proc/<pid>` check
    // (backed by the heartbeat sweep), and it must feed the same requeue
    // path — conservation and the ResilienceReport hold unchanged.
    let skeleton = Skeleton::farm(TaskSpec::uniform(40, 2.0, 0, 0));
    let backend = proc_backend(3)
        .with_transport(Transport::Shm)
        .with_config(BackendConfig::new().spin_per_work_unit(2_000_000))
        .with_fault_injection(FaultInjection::none().kill(1, 2));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a hard-killed shm worker must not fail the run");
    assert_eq!(report.outcome.completed, 40);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.nodes_lost >= 1,
        "the kill must be accounted as a lost node: {:?}",
        report.outcome.resilience
    );
    assert!(
        report.outcome.resilience.requeued_tasks >= 1,
        "in-flight units of the victim must be requeued: {:?}",
        report.outcome.resilience
    );
    assert!(report.outcome.resilience.retried_tasks >= 1);
}

#[test]
fn nested_skeletons_lower_and_conserve_on_the_proc_backend() {
    let job = ImagePipeline {
        width: 32,
        height: 24,
        frames: 12,
        seed: 5,
    };
    let mut skeleton = job.as_farm_of_pipelines(200.0, 3);
    if let Skeleton::FarmOf { children } = &mut skeleton {
        children.push(Skeleton::farm(TaskSpec::uniform(5, 3.0, 64, 64)));
    }
    let report = Grasp::new(GraspConfig::default())
        .run(
            &proc_backend(3).with_config(BackendConfig::new().spin_per_work_unit(10)),
            &skeleton,
        )
        .expect("nested proc run failed");
    assert_eq!(report.outcome.completed, 17);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert_eq!(report.outcome.children.len(), 4);
    assert_eq!(report.outcome.children[3].completed, 5);
}

#[test]
fn a_missing_worker_binary_is_a_typed_compile_error() {
    let backend = ProcBackend::new(2)
        .with_config(BackendConfig::new().worker_bin("/nonexistent/grasp-proc-worker"));
    let err = Grasp::new(GraspConfig::default())
        .run(&backend, &Skeleton::farm(TaskSpec::uniform(4, 1.0, 0, 0)))
        .expect_err("a missing worker binary must not panic");
    assert!(matches!(err, GraspError::WorkerUnavailable { .. }), "{err}");
}

#[test]
fn wedged_workers_are_detected_by_the_heartbeat_timeout() {
    // A worker that is alive but never speaks the protocol (here: a shell
    // sleeping forever) keeps its pipes open, so EOF detection never fires —
    // only the gridmon heartbeat timeout can unmask it.  With every worker
    // wedged the pool is eventually declared lost and the run fails typed.
    use std::io::Write;
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("grasp-proc-wedge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("wedged-worker.sh");
    {
        let mut f = std::fs::File::create(&script).unwrap();
        // `exec` so the SIGKILL cleanup hits the sleeping process itself,
        // not just the shell wrapping it.
        f.write_all(b"#!/bin/sh\nexec sleep 600\n").unwrap();
    }
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

    let backend = ProcBackend::new(2).with_config(
        BackendConfig::new()
            .worker_bin(&script)
            .heartbeat(0.05, 0.5),
    );
    let start = std::time::Instant::now();
    let err = Grasp::new(GraspConfig::default())
        .run(&backend, &Skeleton::farm(TaskSpec::uniform(8, 1.0, 0, 0)))
        .expect_err("a fully wedged pool must fail, not hang");
    assert!(matches!(err, GraspError::WorkerUnavailable { .. }), "{err}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "the heartbeat timeout must fire promptly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_frames_from_a_worker_are_a_typed_protocol_error() {
    // `/bin/cat` echoes the master's own Init frame straight back — a valid
    // frame, but one only a master may send.  The run must fail with a typed
    // wire-protocol error instead of misbehaving.
    let backend = ProcBackend::new(1).with_config(BackendConfig::new().worker_bin("/bin/cat"));
    let err = Grasp::new(GraspConfig::default())
        .run(&backend, &Skeleton::farm(TaskSpec::uniform(4, 1.0, 0, 0)))
        .expect_err("an echoing peer must be rejected");
    assert!(
        matches!(
            err,
            GraspError::WireProtocol { .. } | GraspError::WorkerUnavailable { .. }
        ),
        "{err}"
    );
}

#[test]
fn calibration_arms_without_noise_on_a_healthy_quick_run() {
    // Short healthy runs: the Algorithm-1 prefix completes (calibration is
    // reported) and the default 5 s monitor interval means no adaptation
    // actions are ever logged — same discipline as the thread backend.
    let skeleton = Skeleton::farm(TaskSpec::uniform(30, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(
            &proc_backend(2).with_config(BackendConfig::new().spin_per_work_unit(10)),
            &skeleton,
        )
        .unwrap();
    assert!(report.outcome.calibration_s >= 0.0);
    assert!(report.outcome.adaptation_log.is_empty());
    assert_eq!(report.outcome.completed, 30);
}
