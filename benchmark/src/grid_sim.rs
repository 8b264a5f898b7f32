//! `grid-sim`: a closed loop of one client running an adaptive farm on
//! `SimBackend` over a seeded uniform cluster of 2,048 virtual nodes under
//! light random churn.  It runs gridsim, Algorithm-1 calibration and the
//! simulated farm, and no wall-clock backend code.  The virtual makespan
//! must repeat bit for bit across the jobs of one seed.

use crate::check;
use crate::closed::{self, column, Job, TracedJob};
use crate::stats::{self, median, median_secs};
use crate::trace::SpanBuf;
use crate::{derive_seed, JobError, Metrics, RunConfig, RunReport, Window};
use grasp_core::prelude::{
    Calibrator, GraspConfig, SimBackend, Skeleton, SkeletonOutcome, TaskSpec,
};
use gridmon::registry::MonitorRegistry;
use gridsim::{
    EventQueue, FaultKind, FaultPlan, Grid, GridBuilder, NodeId, SimTime, TopologyBuilder,
};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::hint::black_box;

/// Virtual nodes of the cluster.
const NODES: usize = 2048;
/// Farm units per job.
const UNITS: usize = 30_000;
/// Nominal node speed (work units per virtual second).
const NODE_SPEED: f64 = 40.0;
/// Declared work per unit.
const WORK_PER_UNIT: f64 = 8.0;
/// Probability that a node (other than the master) suffers an outage.
const P_OUTAGE: f64 = 0.05;
/// Grid builds whose median is `gridsim.grid_build_s`.
const GRID_BUILDS: usize = 11;
/// Jobs a companion session runs in another workload's traced run.
const COMPANION_JOBS: usize = 2;

/// Everything a job needs, built by one set-up.
struct Setup {
    /// The seed the grid was built from.
    seed: u64,
    grid: Grid,
    config: GraspConfig,
    skeleton: Skeleton,
    /// The seed's first virtual makespan, which every job must repeat.
    first_makespan: Cell<Option<f64>>,
}

/// The cluster for `seed`: uniform nodes, node 0 (the master) churn-free,
/// brief outages spread over the job's expected virtual duration, and a
/// quarter of the churned nodes never recovering (E15's churn shape).
fn build_grid(seed: u64) -> Grid {
    let topo = TopologyBuilder::uniform_cluster(NODES, NODE_SPEED);
    let targets: Vec<NodeId> = topo
        .node_ids()
        .into_iter()
        .filter(|n| n.index() != 0)
        .collect();
    let horizon_s = 1.5 * UNITS as f64 * WORK_PER_UNIT / (NODE_SPEED * NODES as f64);
    let faults = FaultPlan::random(
        &targets,
        P_OUTAGE,
        horizon_s,
        horizon_s * 0.1,
        derive_seed(seed, 4),
    );
    let churned: BTreeSet<NodeId> = faults.events().iter().map(|e| e.node).collect();
    let permanent: BTreeSet<NodeId> = churned
        .iter()
        .rev()
        .take(churned.len() / 4)
        .copied()
        .collect();
    let events = faults
        .events()
        .iter()
        .filter(|e| !(permanent.contains(&e.node) && e.kind == FaultKind::Recover))
        .copied()
        .collect();
    GridBuilder::new(topo)
        .faults(FaultPlan::from_events(events))
        .quantum(0.25)
        .build()
}

/// One set-up: the grid, the job's skeleton and a backend over the grid.
fn build(seed: u64) -> Setup {
    let grid = build_grid(seed);
    let skeleton = Skeleton::farm(TaskSpec::uniform(
        UNITS,
        WORK_PER_UNIT,
        32 * 1024,
        32 * 1024,
    ));
    black_box(SimBackend::new(&grid));
    Setup {
        seed,
        grid,
        config: GraspConfig::default(),
        skeleton,
        first_makespan: Cell::new(None),
    }
}

impl Setup {
    fn job<'a>(&'a self, backend: &'a SimBackend<'a>) -> Job<'a, SimBackend<'a>> {
        Job {
            layer: "sim",
            wall_clock: false,
            backend,
            config: self.config,
            skeleton: &self.skeleton,
        }
    }

    /// Every unit completed once, in the seed's virtual makespan.
    fn verify(&self, outcome: &SkeletonOutcome) -> Result<(), JobError> {
        check::conserved(outcome, &self.skeleton)?;
        let first = self.first_makespan.get().unwrap_or(outcome.makespan_s);
        self.first_makespan.set(Some(first));
        check::makespan_repeats(first, outcome.makespan_s)
    }
}

/// `schedule_at` + `pop` on an event queue held at the cluster's size.
fn event_queue_ns(trace: &mut SpanBuf) -> f64 {
    const OPS: usize = 1_000_000;
    let (_, secs) = trace.time("gridsim.event_queue", "probe", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..NODES {
            q.schedule_at(SimTime::new(next() * 10.0), i as u32);
        }
        for _ in 0..OPS {
            let ev = q.pop().expect("the queue never drains");
            q.schedule_at(ev.time + SimTime::new(next() * 10.0), ev.payload);
        }
        black_box(q.len());
    });
    secs * 1e9 / OPS as f64
}

fn layer_metrics(s: &Setup, jobs: &[TracedJob], trace: &mut SpanBuf) -> Metrics {
    let mut m = Metrics::default();
    let n = jobs.len();
    m.set("sim.compile_s", median(&column(jobs, |j| j.compile_s)), n);
    m.set("sim.execute_s", median(&column(jobs, |j| j.execute_s)), n);
    let tasks = match &s.skeleton {
        Skeleton::Farm { tasks } => tasks.clone(),
        _ => Vec::new(),
    };
    let candidates = s.grid.node_ids();
    let calibrator = Calibrator::new(s.config.calibration);
    let mut calib = Vec::new();
    for _ in 0..3 {
        let mut registry = MonitorRegistry::new(NodeId(0), 32);
        let (report, secs) = trace.time("sim.calibrate", "probe", || {
            calibrator.calibrate(
                &s.grid,
                &mut registry,
                &candidates,
                &tasks,
                NodeId(0),
                SimTime::ZERO,
            )
        });
        black_box(report.is_ok());
        calib.push(secs);
    }
    m.set("sim.calibrate_s", median(&calib), calib.len());
    m.set("gridsim.event_queue_ns", event_queue_ns(trace), 1);
    let grid_build_s = median_secs(GRID_BUILDS, || {
        black_box(build_grid(s.seed));
    });
    m.set("gridsim.grid_build_s", grid_build_s, GRID_BUILDS);
    m.set(
        "sim.virtual_makespan_s",
        jobs.first().map_or(0.0, |j| j.outcome.makespan_s),
        n,
    );
    m.set(
        "sim.requeued",
        stats::mean(&column(jobs, |j| {
            j.outcome.resilience.requeued_tasks as f64
        })),
        n,
    );
    m.set(
        "sim.nodes_lost",
        stats::mean(&column(jobs, |j| j.outcome.resilience.nodes_lost as f64)),
        n,
    );
    m.set(
        "sim.adaptations",
        stats::mean(&column(jobs, |j| j.outcome.adaptations() as f64)),
        n,
    );
    m
}

/// Run the workload as `cfg` asks.
pub fn run(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let s = build(cfg.seed);
    let backend = SimBackend::new(&s.grid);
    let job = s.job(&backend);
    closed::run(
        cfg,
        trace,
        s.skeleton.work_units(),
        || stats::setup_batch(1, || build(cfg.seed)).1,
        || job.untraced(|o| s.verify(o)),
        |trace, id| job.traced(trace, id, |o| s.verify(o)),
        |jobs, trace| Ok(layer_metrics(&s, jobs, trace)),
    )
}

/// A short traced session for another workload's traced run.
pub fn companion(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let s = build(cfg.seed);
    let backend = SimBackend::new(&s.grid);
    let job = s.job(&backend);
    closed::companion(
        Window::new(0.0),
        COMPANION_JOBS,
        trace,
        |trace, id| job.traced(trace, id, |o| s.verify(o)),
        |jobs, trace| Ok(layer_metrics(&s, jobs, trace)),
    )
}
