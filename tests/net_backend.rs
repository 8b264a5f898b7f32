//! Acceptance tests of the socket backend and its dynamic membership: the
//! deterministic loopback fault harness (deaths mid-task and mid-frame,
//! mid-run joins, graceful leaves, handshake rejection) plus a real-TCP
//! hard-kill run and three-way backend parity.
//!
//! These tests live in the workspace root on purpose: the root package owns
//! the `grasp-net-worker` binary, so Cargo builds it before these tests run
//! and hands us its exact path through `CARGO_BIN_EXE_grasp-net-worker`.

use grasp_repro::grasp_core::prelude::*;
use grasp_repro::grasp_core::transport::Acceptor;
use grasp_repro::grasp_exec::ThreadBackend;
use grasp_repro::grasp_net::worker::{run_connection, WorkerOptions};
use grasp_repro::grasp_net::{FaultScript, FrameFault, FrameGate, LoopbackNet, NetBackend};
use grasp_repro::grasp_proc::ProcBackend;
use grasp_repro::grasp_workloads::matmul::MatMulJob;
use std::collections::BTreeSet;
use std::thread::JoinHandle;

/// The worker binary Cargo built for this test run.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_grasp-net-worker")
}

/// A loopback backend with heartbeats off: liveness is then EOF-only and
/// every connection's frame sequence is deterministic, so fault scripts can
/// address exact frames.
fn loopback_backend(acceptor: Box<dyn Acceptor>, wait_for: usize) -> NetBackend {
    NetBackend::over(acceptor, wait_for).with_config(
        BackendConfig::new()
            .heartbeat(0.0, 1.0)
            .spin_per_work_unit(10),
    )
}

/// Spawn a loopback worker thread serving the standard protocol.
fn spawn_worker(net: &LoopbackNet, opts: WorkerOptions) -> JoinHandle<i32> {
    spawn_faulty_worker(net, opts, FaultScript::clean(), FaultScript::clean())
}

/// Spawn a loopback worker whose connection carries scripted faults.
fn spawn_faulty_worker(
    net: &LoopbackNet,
    opts: WorkerOptions,
    to_master: FaultScript,
    to_worker: FaultScript,
) -> JoinHandle<i32> {
    let conn = net
        .connect_faulty(to_master, to_worker)
        .expect("loopback connect");
    std::thread::spawn(move || run_connection(conn, opts))
}

#[test]
fn a_loopback_farm_completes_and_reports_its_membership() {
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let workers: Vec<_> = (0..2)
        .map(|_| spawn_worker(&net, WorkerOptions::default()))
        .collect();
    let skeleton = Skeleton::farm(TaskSpec::uniform(24, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("loopback net run failed");
    assert_eq!(report.outcome.completed, 24);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(report.outcome.resilience.is_clean());
    match &report.outcome.detail {
        OutcomeDetail::NetFarm {
            workers,
            tasks_per_worker,
            rejected_joins,
            bytes_sent,
            bytes_received,
            members,
            ..
        } => {
            assert_eq!(*workers, 2);
            assert_eq!(tasks_per_worker.iter().sum::<usize>(), 24);
            assert_eq!(*rejected_joins, 0);
            assert!(*bytes_sent > 0 && *bytes_received > 0);
            for m in members {
                assert!(!m.joined_mid_run, "founding members join before dispatch");
                assert_eq!(m.calibration_probes, 0);
                assert!(m.left.is_none(), "still a member at job completion");
            }
        }
        other => panic!("unexpected detail {other:?}"),
    }
    for w in workers {
        assert_eq!(w.join().unwrap(), 0, "workers exit cleanly on Shutdown");
    }
}

#[test]
fn a_worker_joining_mid_run_calibrates_before_real_units() {
    // The headline of dynamic membership: a third worker connects while two
    // founders are already executing.  It is parked until the scripted join
    // point, admitted mid-run, ranked by a calibration prefix of probe
    // units, and only then trusted with real units.
    //
    // Gates pin the order.  The joiner connects only once a founder has
    // sent its first Done (dispatch has begun).  Each founder holds its
    // third Done (frame 3) until the joiner has sent its first real Done
    // (frame 4, after Join and three probe Dones).  So the founders deliver
    // exactly the four results the join point waits for, and the job
    // cannot finish without the joiner.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2)
        .with_hold_joins_until(4)
        .with_join_calibration_units(3);
    let dispatching = FrameGate::new();
    let joiner_served = FrameGate::new();
    let founder_script = FaultScript::clean().hold_until(3, &joiner_served);
    let mut workers = vec![
        spawn_faulty_worker(
            &net,
            WorkerOptions::default(),
            founder_script.clone().open_at(1, &dispatching),
            FaultScript::clean(),
        ),
        spawn_faulty_worker(
            &net,
            WorkerOptions::default(),
            founder_script,
            FaultScript::clean(),
        ),
    ];
    let skeleton = Skeleton::farm(TaskSpec::uniform(60, 1.0, 0, 0));
    let report = std::thread::scope(|scope| {
        let run = scope.spawn(|| Grasp::new(GraspConfig::default()).run(&backend, &skeleton));
        assert!(
            dispatching.wait(std::time::Duration::from_secs(30)),
            "the founders never started"
        );
        workers.push(spawn_faulty_worker(
            &net,
            WorkerOptions::default(),
            FaultScript::clean().open_at(4, &joiner_served),
            FaultScript::clean(),
        ));
        run.join().unwrap()
    })
    .expect("mid-run join run failed");
    assert_eq!(report.outcome.completed, 60);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(report.outcome.resilience.is_clean());
    assert_eq!(
        report.outcome.adaptation_log.node_joins(),
        1,
        "the mid-run admission is on the audit trail"
    );
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            assert_eq!(members.len(), 3);
            let founders = members.iter().filter(|m| !m.joined_mid_run).count();
            assert_eq!(founders, 2);
            let joiner = members
                .iter()
                .find(|m| m.joined_mid_run)
                .expect("one member joined mid-run");
            assert_eq!(
                joiner.calibration_probes, 3,
                "the newcomer completed its full calibration prefix"
            );
            assert!(
                joiner.units_completed > 0,
                "after calibrating, the newcomer served real units"
            );
            assert!(joiner.joined_s >= 0.0);
        }
        other => panic!("unexpected detail {other:?}"),
    }
    for w in workers {
        assert_eq!(w.join().unwrap(), 0);
    }
}

#[test]
fn a_worker_dying_between_frames_with_units_in_flight_is_a_requeued_death() {
    // Worker outbound frames with heartbeats off: 0 = Join, then one Done
    // per served task.  Killing the link *before* frame 3 (the third Done)
    // is a crash between writes: the master sees a clean EOF while the
    // worker still owes its outstanding window.
    // The healthy worker holds its first Done until the victim has died,
    // so it cannot finish the job before the victim reaches frame 3.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let victim_died = FrameGate::new();
    let healthy = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean().hold_until(1, &victim_died),
        FaultScript::clean(),
    );
    let victim = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean()
            .with(3, FrameFault::CloseBefore)
            .open_at(3, &victim_died),
        FaultScript::clean(),
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(30, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a mid-run death must not fail the run");
    assert_eq!(report.outcome.completed, 30);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert_eq!(report.outcome.resilience.nodes_lost, 1);
    assert!(
        report.outcome.resilience.requeued_tasks >= 1,
        "the swallowed Done and the rest of the window must be requeued: {:?}",
        report.outcome.resilience
    );
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            let dead: Vec<_> = members
                .iter()
                .filter(|m| m.left == Some(NetDeparture::Death))
                .collect();
            assert_eq!(dead.len(), 1, "exactly one member died");
            assert!(dead[0].units_completed >= 2);
        }
        other => panic!("unexpected detail {other:?}"),
    }
    assert_eq!(healthy.join().unwrap(), 0);
    let _ = victim.join();
}

#[test]
fn a_worker_dying_mid_frame_is_a_typed_truncation_and_a_requeued_death() {
    // Same death point, but the crash lands mid-write: the master's decoder
    // sees a torn frame (a typed wire error, never a panic), the reader
    // reports the link closed, and the death path requeues as usual.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let healthy = spawn_worker(&net, WorkerOptions::default());
    let victim = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean().with(2, FrameFault::TruncateAt(9)),
        FaultScript::clean(),
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(30, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a torn frame must not fail the run");
    assert_eq!(report.outcome.completed, 30);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert_eq!(report.outcome.resilience.nodes_lost, 1);
    assert!(report.outcome.resilience.requeued_tasks >= 1);
    assert_eq!(healthy.join().unwrap(), 0);
    let _ = victim.join();
}

#[test]
fn a_graceful_goodbye_drains_the_window_and_loses_nothing() {
    // A worker announces Goodbye after two tasks.  The master stops handing
    // it new units, lets its outstanding window drain, and releases it with
    // Shutdown: no loss, no requeue, membership recorded as graceful.
    //
    // The stayer holds its first Done until the leaver has sent the first
    // Done after its Goodbye (frame 4; frames 1-2 are Dones, frame 3 the
    // Goodbye).  That unit was a refill, handed out while the stayer was
    // still held, and the master reads the Goodbye before its result, so
    // the job cannot finish before the leave is seen.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let served_after_goodbye = FrameGate::new();
    let stayer = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean().hold_until(1, &served_after_goodbye),
        FaultScript::clean(),
    );
    let leaver = spawn_faulty_worker(
        &net,
        WorkerOptions {
            leave_after: Some(2),
            ..WorkerOptions::default()
        },
        FaultScript::clean().open_at(4, &served_after_goodbye),
        FaultScript::clean(),
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(30, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a graceful leave must not fail the run");
    assert_eq!(report.outcome.completed, 30);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.is_clean(),
        "a graceful leave is not a fault: {:?}",
        report.outcome.resilience
    );
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            let graceful: Vec<_> = members
                .iter()
                .filter(|m| m.left == Some(NetDeparture::Graceful))
                .collect();
            assert_eq!(graceful.len(), 1, "exactly one member left gracefully");
            assert!(
                graceful[0].units_completed >= 2,
                "the leaver finished what was on its wire"
            );
            assert!(
                members.iter().any(|m| m.left.is_none()),
                "the stayer carried the job to completion"
            );
        }
        other => panic!("unexpected detail {other:?}"),
    }
    assert_eq!(stayer.join().unwrap(), 0);
    assert_eq!(leaver.join().unwrap(), 0, "the leaver was released cleanly");
}

#[test]
fn handshake_rejects_wrong_versions_and_missing_capabilities() {
    // The master counts a refusal before it sends the refused worker its
    // Shutdown (frame 0 towards that worker).  The good worker holds its
    // first Done until both Shutdowns are out, so both refusals are counted
    // before the job can finish.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 1);
    let refused_version = FrameGate::new();
    let refused_caps = FrameGate::new();
    let good = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean()
            .hold_until(1, &refused_version)
            .hold_until(1, &refused_caps),
        FaultScript::clean(),
    );
    let wrong_version = spawn_faulty_worker(
        &net,
        WorkerOptions {
            wire_version: 9999,
            ..WorkerOptions::default()
        },
        FaultScript::clean(),
        FaultScript::clean().open_at(0, &refused_version),
    );
    let no_caps = spawn_faulty_worker(
        &net,
        WorkerOptions {
            capabilities: 0,
            ..WorkerOptions::default()
        },
        FaultScript::clean(),
        FaultScript::clean().open_at(0, &refused_caps),
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(12, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("rejections must not fail the run");
    assert_eq!(report.outcome.completed, 12);
    match &report.outcome.detail {
        OutcomeDetail::NetFarm {
            workers,
            rejected_joins,
            ..
        } => {
            assert_eq!(*workers, 1, "only the conforming worker was admitted");
            assert_eq!(*rejected_joins, 2);
        }
        other => panic!("unexpected detail {other:?}"),
    }
    assert_eq!(good.join().unwrap(), 0);
    assert_eq!(
        wrong_version.join().unwrap(),
        0,
        "rejection is not an error"
    );
    assert_eq!(no_caps.join().unwrap(), 0);
}

#[test]
fn duplicated_and_delayed_frames_do_not_double_count_units() {
    // A retransmit gone wrong (the same Done delivered twice) and a
    // congested link (a delayed Done) must both be absorbed: first
    // completion wins, every unit exactly once.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let w1 = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean().with(2, FrameFault::Duplicate),
        FaultScript::clean(),
    );
    let w2 = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean().with(1, FrameFault::Delay(std::time::Duration::from_millis(30))),
        FaultScript::clean(),
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(20, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("benign frame faults must not fail the run");
    assert_eq!(report.outcome.completed, 20);
    assert!(report.outcome.conserves_units_of(&skeleton));
    let ids: BTreeSet<usize> = report.outcome.unit_ids.iter().copied().collect();
    assert_eq!(
        ids.len(),
        20,
        "every unit exactly once despite the duplicate"
    );
    assert_eq!(w1.join().unwrap(), 0);
    assert_eq!(w2.join().unwrap(), 0);
}

#[test]
fn a_sigkilled_tcp_worker_mid_task_conserves_units() {
    // The acceptance check over real sockets: spawn three TCP workers on
    // localhost, SIGKILL one mid-task, and require the run to finish with
    // conservation intact and the loss on the ResilienceReport.
    let skeleton = Skeleton::farm(TaskSpec::uniform(40, 2.0, 0, 0));
    let backend = NetBackend::new(3)
        .with_config(
            BackendConfig::new()
                .worker_bin(worker_bin())
                .spin_per_work_unit(2_000_000),
        )
        .with_fault_injection(FaultInjection::none().kill(1, 2));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a hard-killed TCP worker must not fail the run");
    assert_eq!(report.outcome.completed, 40);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.nodes_lost >= 1,
        "the kill must be accounted: {:?}",
        report.outcome.resilience
    );
    assert!(report.outcome.resilience.requeued_tasks >= 1);
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            assert!(members.iter().any(|m| m.left == Some(NetDeparture::Death)));
            assert_eq!(members.iter().map(|m| m.units_completed).sum::<usize>(), 40);
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn a_spawned_tcp_joiner_is_admitted_mid_run_however_short_the_job() {
    // The units are far shorter than a process spawn, so the founders
    // would finish the job before the joiner's Join arrived.  The master
    // holds the remaining units until the joiner is through its
    // calibration prefix, so the join always lands mid-run.
    let skeleton = Skeleton::farm(TaskSpec::uniform(40, 1.0, 0, 0));
    let backend = NetBackend::new(2)
        .with_config(
            BackendConfig::new()
                .worker_bin(worker_bin())
                .spin_per_work_unit(1_000),
        )
        .with_fault_injection(FaultInjection::none().join_spawn(30, 1));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a worker joining mid-run must not fail the run");
    assert_eq!(report.outcome.completed, 40);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert_eq!(report.outcome.adaptation_log.node_joins(), 1);
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            assert_eq!(members.len(), 3);
            let joiner = members
                .iter()
                .find(|m| m.joined_mid_run)
                .expect("the spawned worker joined mid-run");
            assert!(
                joiner.calibration_probes > 0,
                "a mid-run joiner is ranked by a calibration prefix first"
            );
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn thread_proc_and_net_backends_agree_on_a_fixed_seed_matmul_farm() {
    // Three-way parity: the same fixed-seed job lowered through the same
    // rules must cover the same unit-id set exactly once on threads, on
    // worker processes, and on socket workers.
    let job = MatMulJob {
        n: 96,
        block_rows: 16,
        seed: 11,
    };
    let skeleton = Skeleton::farm(job.as_tasks(1e6));
    let grasp = Grasp::new(GraspConfig::default());

    let threads = grasp
        .run(
            &ThreadBackend::new(3).with_config(BackendConfig::new().spin_per_work_unit(10)),
            &skeleton,
        )
        .expect("thread backend run failed");
    let procs = grasp
        .run(
            &ProcBackend::new(3).with_config(
                BackendConfig::new()
                    .worker_bin(env!("CARGO_BIN_EXE_grasp-proc-worker"))
                    .spin_per_work_unit(10),
            ),
            &skeleton,
        )
        .expect("proc backend run failed");
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 3);
    let workers: Vec<_> = (0..3)
        .map(|_| spawn_worker(&net, WorkerOptions::default()))
        .collect();
    let nets = grasp
        .run(&backend, &skeleton)
        .expect("net backend run failed");
    for w in workers {
        assert_eq!(w.join().unwrap(), 0);
    }

    let t_ids: BTreeSet<usize> = threads.outcome.unit_ids.iter().copied().collect();
    let p_ids: BTreeSet<usize> = procs.outcome.unit_ids.iter().copied().collect();
    let n_ids: BTreeSet<usize> = nets.outcome.unit_ids.iter().copied().collect();
    assert_eq!(t_ids, p_ids, "thread and proc cover the same unit set");
    assert_eq!(p_ids, n_ids, "proc and net cover the same unit set");
    assert_eq!(nets.outcome.unit_ids.len(), n_ids.len(), "no unit twice");
    assert_eq!(nets.outcome.kind, threads.outcome.kind);
    assert!(nets.outcome.conserves_units_of(&skeleton));
}

#[test]
fn a_net_worker_serves_every_band_of_a_matmul_job_with_the_reference_digest() {
    // One loopback worker serves all bands of a multi-band job over one
    // connection, so it generates the inputs once and reuses them: every
    // band's digest must still equal the cold local kernel's.
    let job = MatMulJob {
        n: 64,
        block_rows: 8,
        seed: 23,
    };
    let skeleton = Skeleton::farm(job.as_tasks(1e6));
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 1).with_payloads(job.wire_payloads());
    let worker = spawn_worker(&net, WorkerOptions::default());
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("net mat-mul run failed");
    assert_eq!(worker.join().unwrap(), 0);
    assert!(report.outcome.conserves_units_of(&skeleton));
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { unit_digests, .. } => {
            let units: BTreeSet<usize> = unit_digests.iter().map(|&(unit, _)| unit).collect();
            assert_eq!(units.len(), job.task_count(), "one digest per band");
            assert_eq!(unit_digests.len(), job.task_count());
            for &(unit, digest) in unit_digests {
                assert_eq!(
                    digest,
                    job.band_task(unit).digest(),
                    "band {unit} served from the worker's cached inputs"
                );
            }
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn the_membership_substrate_outlives_a_job() {
    // The acceptor (the Join/Welcome membership endpoint) is recycled at
    // each run's orderly shutdown, so one harness backend serves many
    // consecutive jobs: fresh workers join the same endpoint for job 2.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 1);
    let skeleton = Skeleton::farm(TaskSpec::uniform(6, 1.0, 0, 0));
    let grasp = Grasp::new(GraspConfig::default());
    for job in 0..2 {
        let w = spawn_worker(&net, WorkerOptions::default());
        let report = grasp
            .run(&backend, &skeleton)
            .unwrap_or_else(|e| panic!("loopback run {job} failed: {e}"));
        assert_eq!(w.join().unwrap(), 0);
        assert_eq!(report.outcome.completed, 6, "job {job}");
        assert!(report.outcome.conserves_units_of(&skeleton), "job {job}");
    }
}
