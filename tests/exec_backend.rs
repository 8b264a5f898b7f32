//! Cross-crate integration: the real-thread backend executing the real
//! workload kernels, plus unified-API parity between the simulated and
//! thread backends on nested skeletons.

use grasp_repro::grasp_core::prelude::*;
use grasp_repro::grasp_core::SchedulePolicy;
use grasp_repro::grasp_exec::{ThreadBackend, ThreadFarm, ThreadPipeline};
use grasp_repro::grasp_workloads::imaging::ImagePipeline;
use grasp_repro::grasp_workloads::mandelbrot::MandelbrotJob;
use grasp_repro::grasp_workloads::matmul::MatMulJob;
use grasp_repro::grasp_workloads::seqmatch::SequenceMatchJob;
use grasp_repro::gridsim::{Grid, TopologyBuilder};
use std::collections::BTreeSet;

#[test]
fn thread_farm_renders_mandelbrot_tiles_identically_to_sequential() {
    let job = MandelbrotJob::small();
    let tiles = job.tiles();
    let sequential: Vec<Vec<u32>> = tiles.iter().map(|t| job.render_tile(t)).collect();
    let farm = ThreadFarm::new(4).with_policy(SchedulePolicy::SelfScheduling);
    let (parallel, stats) = farm.run(&tiles, |t| job.render_tile(t));
    assert_eq!(
        parallel, sequential,
        "parallel result must equal sequential"
    );
    assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), tiles.len());
}

#[test]
fn thread_farm_scores_sequences_identically_across_policies() {
    let job = SequenceMatchJob::small();
    let queries = job.generate_queries();
    let subjects = job.generate_subjects();
    let reference: Vec<Vec<i64>> = queries
        .iter()
        .map(|q| job.score_query(q, &subjects))
        .collect();
    for policy in [
        SchedulePolicy::StaticBlock,
        SchedulePolicy::Guided { min_chunk: 1 },
        SchedulePolicy::AdaptiveWeighted { min_chunk: 1 },
    ] {
        let farm = ThreadFarm::new(3).with_policy(policy);
        let (scores, _) = farm.run(&queries, |q| job.score_query(q, &subjects));
        assert_eq!(scores, reference, "{policy:?}");
    }
}

#[test]
fn thread_and_simulation_backends_agree_on_a_fixed_seed_matmul_farm() {
    // Backend parity: the same fixed-seed matmul job is farmed out through
    // both backends.  The thread backend must produce the numerically exact
    // sequential product, and the simulated backend must account for exactly
    // the same task set — same ids, each exactly once — so that experiments
    // can switch backends without changing what "the job" means.
    let job = MatMulJob {
        n: 96,
        block_rows: 16,
        seed: 11,
    };
    let (a, b) = job.generate_inputs();
    let bands: Vec<usize> = (0..job.task_count()).collect();
    let sequential: Vec<Vec<f64>> = bands
        .iter()
        .map(|&i| job.multiply_band(&a, &b, i * job.block_rows, job.block_rows))
        .collect();

    // Real-thread backend: numeric results in task order.
    let farm = ThreadFarm::new(4).with_policy(SchedulePolicy::AdaptiveWeighted { min_chunk: 1 });
    let (threaded, stats) = farm.run(&bands, |&i| {
        job.multiply_band(&a, &b, i * job.block_rows, job.block_rows)
    });
    assert_eq!(threaded, sequential, "thread backend must be bit-identical");
    assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), bands.len());

    // Simulated backend: the same job as abstract tasks on a heterogeneous
    // grid.  Same task-id set, every id exactly once, nothing lost.
    let tasks = job.as_tasks(1e6);
    assert_eq!(tasks.len(), bands.len());
    let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(4, 20.0, 80.0, 11));
    let out = TaskFarm::new(GraspConfig::default())
        .run(&grid, &tasks)
        .unwrap();
    assert_eq!(out.completed_tasks(), bands.len());
    let sim_ids: BTreeSet<usize> = out.task_outcomes.iter().map(|o| o.task).collect();
    let expected_ids: BTreeSet<usize> = bands.iter().copied().collect();
    assert_eq!(
        sim_ids, expected_ids,
        "both backends cover the same task set"
    );
    assert_eq!(
        out.task_outcomes.len(),
        sim_ids.len(),
        "no task may be executed twice"
    );
}

#[test]
fn sim_and_thread_backends_agree_on_a_fixed_seed_farm_of_pipelines() {
    // The acceptance check of the unified API: one nested farm-of-pipelines
    // expression (three imaging lanes plus a farm of independent tasks),
    // fixed seed, run through `Grasp::run` on BOTH backends.  The clocks
    // differ (virtual vs wall), but the structural results must agree: same
    // unit-id set covered exactly once, same per-child unit counts, and the
    // conservation invariant holds against the expression on both sides.
    let job = grasp_repro::grasp_workloads::imaging::ImagePipeline {
        width: 64,
        height: 48,
        frames: 24,
        seed: 2007,
    };
    let mut skeleton = job.as_farm_of_pipelines(200.0, 3);
    if let Skeleton::FarmOf { children } = &mut skeleton {
        children.push(Skeleton::farm(TaskSpec::uniform(10, 5.0, 1024, 1024)));
    }

    let grid = grasp_repro::gridsim::Grid::dedicated(TopologyBuilder::heterogeneous_cluster(
        6, 20.0, 80.0, 2007,
    ));
    let grasp = Grasp::new(GraspConfig::default());
    let sim = grasp
        .run(&SimBackend::new(&grid), &skeleton)
        .expect("sim backend run failed");
    let threads = grasp
        .run(
            &ThreadBackend::new(4).with_config(BackendConfig::new().spin_per_work_unit(10)),
            &skeleton,
        )
        .expect("thread backend run failed");

    assert_eq!(sim.outcome.kind, SkeletonKind::FarmOfPipelines);
    assert_eq!(sim.outcome.kind, threads.outcome.kind);
    assert_eq!(sim.outcome.completed, 34);
    assert_eq!(sim.outcome.completed, threads.outcome.completed);
    let sim_ids: BTreeSet<usize> = sim.outcome.unit_ids.iter().copied().collect();
    let thread_ids: BTreeSet<usize> = threads.outcome.unit_ids.iter().copied().collect();
    assert_eq!(sim_ids, thread_ids, "both backends cover the same unit set");
    assert_eq!(sim.outcome.unit_ids.len(), sim_ids.len(), "no unit twice");
    assert_eq!(sim.outcome.children.len(), threads.outcome.children.len());
    for (s, t) in sim.outcome.children.iter().zip(&threads.outcome.children) {
        assert_eq!(s.completed, t.completed, "per-lane counts agree");
        assert_eq!(s.kind, t.kind);
    }
    assert!(sim.outcome.conserves_units_of(&skeleton));
    assert!(threads.outcome.conserves_units_of(&skeleton));
}

#[test]
fn thread_backend_with_injected_worker_panic_completes_and_reports_retries() {
    // The acceptance check of the fault-hardened execution layer: a
    // ThreadBackend run in which worker panics are injected mid-stream must
    // complete every unit exactly once (no process abort, no missing slot)
    // and surface the recovery work through the backend-neutral
    // `ResilienceReport` on the outcome.
    let skeleton = Skeleton::farm(TaskSpec::uniform(80, 2.0, 0, 0));
    // Attempts exceed the injection budget + 1: on a low-core machine the
    // scheduler can hand every retry of one task to the same point in the
    // injection sequence, so with attempts == injections a single task may
    // absorb all three injected panics and legitimately fail the run.
    let backend = ThreadBackend::new(4).with_config(
        BackendConfig::new()
            .spin_per_work_unit(1)
            .max_task_attempts(5)
            .faults(FaultInjection::none().panics(3)),
    );
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("injected worker panics must be survived");
    assert_eq!(report.outcome.completed, 80);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.retried_tasks > 0,
        "recovery must be visible in the outcome: {:?}",
        report.outcome.resilience
    );
    assert!(report.outcome.resilience.requeued_tasks >= report.outcome.resilience.retried_tasks);

    // The same expression on a fault-free backend reports a clean run.
    let clean = Grasp::new(GraspConfig::default())
        .run(
            &ThreadBackend::new(4).with_config(BackendConfig::new().spin_per_work_unit(1)),
            &skeleton,
        )
        .unwrap();
    assert!(clean.outcome.resilience.is_clean());
}

#[test]
fn work_stealing_farm_with_injected_panics_conserves_and_reports_recovery() {
    // Steal-path fault coverage: with the work-stealing scheduler the farm
    // dispatches through per-worker deques, so a panicking worker dies with
    // a non-empty deque.  The demotion drain plus the retry pass must still
    // complete every unit exactly once, and the recovery must be visible in
    // the ResilienceReport alongside the new steal counters.
    let skeleton = Skeleton::farm(TaskSpec::uniform(80, 2.0, 0, 0));
    let backend = ThreadBackend::new(4).with_config(
        BackendConfig::new()
            .spin_per_work_unit(1)
            .max_task_attempts(5)
            .faults(FaultInjection::none().panics(3)),
    );
    let cfg = GraspConfig {
        scheduler: SchedulePolicy::WorkStealing { min_chunk: 1 },
        ..GraspConfig::default()
    };
    let report = Grasp::new(cfg)
        .run(&backend, &skeleton)
        .expect("injected panics on the stealing farm must be survived");
    assert_eq!(report.outcome.completed, 80);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.retried_tasks > 0,
        "recovery must be visible in the outcome: {:?}",
        report.outcome.resilience
    );
    assert!(report.outcome.resilience.requeued_tasks >= report.outcome.resilience.retried_tasks);
    match &report.outcome.detail {
        OutcomeDetail::ThreadFarm {
            tasks_per_worker,
            steals_attempted,
            steals_completed,
            units_stolen,
            ..
        } => {
            assert_eq!(tasks_per_worker.iter().sum::<usize>(), 80);
            assert!(
                steals_attempted >= steals_completed,
                "completed steals are a subset of attempts: {steals_attempted} < {steals_completed}"
            );
            // Every completed steal moved at least one unit.
            assert!(units_stolen >= steals_completed);
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn injected_slowdown_worker_is_demoted_through_the_shared_engine() {
    // The acceptance check of the backend-neutral adaptation engine: the
    // SAME monitor→threshold→recalibrate loop that steers the simulated
    // grid runs on real threads.  Worker 0 slows down 25x mid-run (after
    // the calibration prefix); its per-work-unit times breach
    // `demote_factor x Z`, the engine emits a demote directive, and the
    // backend applies it through the farm's worker gate — visible as a
    // `NodeDemoted` entry in the backend-neutral adaptation log, after
    // which the demoted worker stops absorbing work.
    //
    // The loop runs on the virtual clock: each unit reports its declared
    // spin cost, so worker 0 reports exactly 25x the healthy time and no
    // healthy worker can breach, however the host schedules the threads.
    // The slowed spin is still real, so worker 0 really is slower.
    // Self-scheduling keeps at most one unit in flight on the slow worker.
    use grasp_repro::grasp_core::adaptation::AdaptationAction;
    use grasp_repro::gridsim::NodeId;

    let skeleton = Skeleton::farm(TaskSpec::uniform(3000, 1.0, 0, 0));
    let backend = ThreadBackend::new(4)
        .with_config(
            BackendConfig::new()
                .spin_per_work_unit(30_000)
                .faults(FaultInjection::none().worker_slowdown(0, 8, 25.0)),
        )
        .with_virtual_clock();
    let mut cfg = GraspConfig {
        scheduler: SchedulePolicy::SelfScheduling,
        ..GraspConfig::default()
    };
    cfg.execution.monitor_interval_s = 3e6; // spin iterations: 100 healthy units
    cfg.execution.min_active_nodes = 1;
    let report = Grasp::new(cfg)
        .run(&backend, &skeleton)
        .expect("a slowed worker must not fail the run");
    assert_eq!(report.outcome.completed, 3000);
    assert!(report.outcome.conserves_units_of(&skeleton));
    let log = &report.outcome.adaptation_log;
    assert!(
        log.demotions() >= 1,
        "the 25x worker must be demoted: {}",
        log.summary()
    );
    assert!(
        log.events().iter().any(|e| matches!(
            e.action,
            AdaptationAction::NodeDemoted { node, .. } if node == NodeId(0)
        )),
        "worker 0 specifically must be among the demoted: {}",
        log.summary()
    );
    // The engine's view and the counters agree.
    assert_eq!(report.outcome.adaptations(), log.len());
    match &report.outcome.detail {
        OutcomeDetail::ThreadFarm {
            load_per_worker,
            tasks_per_worker,
            ..
        } => {
            // The gridmon wall-observation plumbing reports one (clamped)
            // load estimate per worker; its magnitude for a quickly-demoted
            // worker is history-dependent, so the numeric tracking is
            // asserted in gridmon's own unit tests, not here.
            assert_eq!(load_per_worker.len(), 4);
            assert!(load_per_worker.iter().all(|l| (0.0..=1.0).contains(l)));
            // Demotion stops the worker: the healthy workers carried the
            // bulk of the stream.
            let healthy: usize = tasks_per_worker[1..].iter().sum();
            assert!(
                healthy > tasks_per_worker[0],
                "demand must shift away from the slowed worker: {tasks_per_worker:?}"
            );
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn thread_pipeline_matches_sequential_image_processing() {
    let job = ImagePipeline::small();
    let frames: Vec<_> = (0..6).map(|i| job.frame(i)).collect();
    let sequential: Vec<_> = frames.iter().map(|f| job.process_frame(f)).collect();

    let j = job;
    let pipeline = ThreadPipeline::new()
        .stage(move |f: grasp_repro::grasp_workloads::imaging::SyntheticImage| f.blur())
        .stage(|f| f.sharpen())
        .stage(|f| f.edges())
        .stage(|f| f.threshold(96.0));
    let _ = j;
    let (out, stats) = pipeline.run(frames);
    assert_eq!(out.len(), 6);
    for (a, b) in out.iter().zip(&sequential) {
        assert_eq!(a.pixels.len(), b.pixels.len());
        assert_eq!(a.pixels, b.pixels, "pipeline output must match sequential");
    }
    assert_eq!(stats.items_per_stage, vec![6, 6, 6, 6]);
}
