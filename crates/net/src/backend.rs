//! The socket [`Backend`]: skeletons on a dynamically-membered worker pool.
//!
//! Where the process backend *spawns* its pool (membership is implied by
//! fork), the network master only ever *accepts* it: workers connect to an
//! endpoint, introduce themselves with a [`WireMsg::Join`] (pid, wire
//! version, capability mask), and are admitted — or refused — by a
//! registration handshake.  That one inversion is what makes membership
//! dynamic:
//!
//! * **join at any time** — a worker admitted after dispatch has begun is
//!   not trusted with real units immediately: the master first sends it a
//!   **calibration prefix** of probe units (spin tasks sized like the job's
//!   real units), feeding the shared [`AdaptationEngine`] and the
//!   [`gridmon::MonitorRegistry`] so the newcomer is ranked — and possibly
//!   demoted — before it can slow the job down;
//! * **leave gracefully** — a worker announces [`WireMsg::Goodbye`], stops
//!   receiving new units, finishes the window it already holds, and is
//!   released with a [`WireMsg::Shutdown`]: nothing is requeued, nothing is
//!   lost;
//! * **leave by dying** — a socket EOF, a truncated frame, or a heartbeat
//!   timeout requeues the worker's in-flight units to the survivors, counts
//!   the loss in the [`ResilienceReport`], and tells the engine — the same
//!   revocation path as every other backend, so unit conservation holds.
//!
//! The master loop itself is the process backend's, re-expressed over
//! [`grasp_core::transport`] traits: demand-driven windows, the
//! Algorithm-2 calibrate → monitor → demote/resample cycle, bounded
//! per-unit attempts, first-completion-wins dedup.  Pointing it at a
//! [`TcpAcceptor`] gives the production deployment; pointing it at the
//! in-memory loopback acceptor gives the deterministic fault-injection
//! tests — same code, byte-identical frames.

use grasp_core::adaptation::AdaptationLog;
use grasp_core::config::{BackendConfig, ExecutionConfig, FaultInjection};
use grasp_core::engine::{AdaptationDirective, AdaptationEngine, WallClock};
use grasp_core::error::GraspError;
use grasp_core::execution::MonitorVerdict;
use grasp_core::skeleton::{
    Backend, NetDeparture, NetMemberReport, OutcomeDetail, ResilienceReport, Skeleton,
    SkeletonOutcome, UnitSpan,
};
use grasp_core::transport::{
    spawn_frame_writer, Acceptor, FrameSink, FrameSource, OutMsg, TcpAcceptor, WireCounters,
};
use grasp_core::wire::{payload_capability, WireMsg, CAP_SPIN, WIRE_VERSION};
use grasp_core::GraspConfig;
use gridmon::{MonitorRegistry, NodeObservation};
use gridsim::NodeId;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Calibration probe units live above this id so they can never collide
/// with (or be mistaken for) a job unit.
const PROBE_UNIT_BASE: u64 = 1 << 63;

/// The socket execution backend with dynamic pool membership.
///
/// Two construction modes share all the machinery:
///
/// * [`NetBackend::new`] — production shape: bind a TCP listener
///   (127.0.0.1 by default), spawn `workers` local `grasp-net-worker`
///   processes pointed at it, and optionally spawn late joiners mid-run
///   ([`NetBackend::with_join_spawn`]);
/// * [`NetBackend::over`] — harness shape: run the same master over an
///   externally supplied [`Acceptor`] (the loopback test network), spawning
///   nothing; the test owns the workers.
pub struct NetBackend {
    /// Registrations required before dispatch begins.
    wait_for: usize,
    /// Local worker processes to spawn at launch (TCP mode only).
    spawn_workers: usize,
    /// Listener bind address (TCP mode; port 0 = OS-assigned).
    bind_addr: String,
    /// Externally supplied acceptor (harness mode); taken by each execute
    /// and put back at orderly shutdown, so consecutive jobs share one
    /// membership endpoint.
    acceptor: Mutex<Option<Box<dyn Acceptor>>>,
    /// Explicit worker binary (otherwise [`crate::find_worker_bin`]).
    worker_bin: Option<PathBuf>,
    /// Spin iterations per declared work unit for [`PAYLOAD_SPIN`] units.
    spin_per_work_unit: u64,
    /// Explicit override of the config's calibration sample count.
    calibration_samples: Option<usize>,
    /// Probe units a mid-run joiner must complete before real units
    /// (`None` → the calibration sample count).
    join_calibration_units: Option<usize>,
    /// How often workers report liveness (0 disables heartbeats: liveness
    /// is then EOF-only, which the deterministic tests rely on).
    heartbeat_interval_s: f64,
    /// Silence longer than this declares a worker dead.
    heartbeat_timeout_s: f64,
    /// Seconds to wait for the first `wait_for` registrations.
    join_timeout_s: f64,
    /// Units a worker may hold dispatched-but-unfinished (≥ 1).
    outstanding_per_worker: usize,
    /// Bounded dispatches per unit before the run fails.
    max_task_attempts: usize,
    /// Fault injection: SIGKILL member `.0`'s process after it has
    /// delivered `.1` results (TCP mode; loopback deaths are scripted).
    kill_injection: Option<(usize, usize)>,
    /// Spawn `.1` extra workers once `.0` units have completed (TCP mode's
    /// dynamic-join driver).
    join_spawn: Option<(usize, usize)>,
    /// Park connections beyond `wait_for` until this many units have
    /// completed — makes "joined mid-run" deterministic in tests.
    hold_joins_until: Option<usize>,
    /// Real-kernel payloads by unit id (absent units run the spin kernel).
    /// `Arc` so dispatch clones a pointer, not the bytes.
    payloads: HashMap<usize, (u32, Arc<[u8]>)>,
}

impl std::fmt::Debug for NetBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetBackend")
            .field("wait_for", &self.wait_for)
            .field("spawn_workers", &self.spawn_workers)
            .field("bind_addr", &self.bind_addr)
            .finish_non_exhaustive()
    }
}

impl NetBackend {
    fn base(wait_for: usize) -> Self {
        NetBackend {
            wait_for: wait_for.max(1),
            spawn_workers: 0,
            bind_addr: "127.0.0.1:0".to_string(),
            acceptor: Mutex::new(None),
            worker_bin: None,
            spin_per_work_unit: 500,
            calibration_samples: None,
            join_calibration_units: None,
            heartbeat_interval_s: 0.25,
            heartbeat_timeout_s: 5.0,
            join_timeout_s: 30.0,
            outstanding_per_worker: 2,
            max_task_attempts: 3,
            kill_injection: None,
            join_spawn: None,
            hold_joins_until: None,
            payloads: HashMap::new(),
        }
    }

    /// TCP mode: bind a listener, spawn `workers` local worker processes
    /// pointed at it, and start dispatching once all of them registered.
    pub fn new(workers: usize) -> Self {
        let mut b = NetBackend::base(workers);
        b.spawn_workers = b.wait_for;
        b
    }

    /// Harness mode: run the master over an external [`Acceptor`] (the
    /// loopback network), dispatching once `wait_for` workers registered.
    /// Spawns nothing; the caller owns the worker ends.  The acceptor is
    /// reused across executes (returned at each run's orderly shutdown), so
    /// the membership substrate outlives any single job.
    pub fn over(acceptor: Box<dyn Acceptor>, wait_for: usize) -> Self {
        let b = NetBackend::base(wait_for);
        *b.acceptor.lock().unwrap_or_else(|e| e.into_inner()) = Some(acceptor);
        b
    }

    /// Bind the listener to an explicit address (TCP mode; default
    /// `127.0.0.1:0`).
    pub fn with_bind_addr(mut self, addr: impl Into<String>) -> Self {
        self.bind_addr = addr.into();
        self
    }

    /// Apply a shared [`BackendConfig`]: the one builder every backend
    /// understands.  Unset fields keep this backend's defaults.  Heartbeat
    /// semantics are this backend's: `interval_s = 0` disables worker
    /// heartbeats *and* the timeout sweep (deaths are then detected by
    /// socket EOF / frame errors only).  The `worker_panic_budget` knob has
    /// no socket analogue — a worker process dies with its panic and the
    /// requeue path takes over — and is ignored.  The plan's
    /// [`FaultInjection`] is applied as by
    /// [`NetBackend::with_fault_injection`].
    pub fn with_config(mut self, cfg: BackendConfig) -> Self {
        if let Some(samples) = cfg.calibration_samples {
            self.calibration_samples = Some(samples);
        }
        if let Some(iters) = cfg.spin_per_work_unit {
            self.spin_per_work_unit = iters.max(1);
        }
        if let Some(attempts) = cfg.max_task_attempts {
            self.max_task_attempts = attempts.max(1);
        }
        if let Some((interval_s, timeout_s)) = cfg.heartbeat {
            if interval_s <= 0.0 {
                self.heartbeat_interval_s = 0.0;
                self.heartbeat_timeout_s = timeout_s.max(1e-3);
            } else {
                self.heartbeat_interval_s = interval_s;
                self.heartbeat_timeout_s = timeout_s.max(10.0 * interval_s);
            }
        }
        if let Some(path) = cfg.worker_bin {
            self.worker_bin = Some(path);
        }
        self.with_fault_injection(cfg.faults)
    }

    /// Apply a typed [`FaultInjection`] plan, replacing any previously
    /// configured injection outright.  Sockets realise `kill` as a mid-run
    /// SIGKILL of the member's process (TCP mode) and `join_spawn` as the
    /// dynamic-membership driver (spawn extra workers once `after_results`
    /// units completed, then withhold real units until they are through
    /// their calibration prefix, so the join always lands mid-run);
    /// `panics` and `slowdown` have no socket-master analogue and are
    /// ignored.
    pub fn with_fault_injection(mut self, faults: FaultInjection) -> Self {
        self.kill_injection = faults.kill.map(|k| (k.worker, k.after_results));
        self.join_spawn = faults.join_spawn.map(|j| (j.after_results, j.extra.max(1)));
        self
    }

    /// Use an explicit worker binary instead of [`crate::find_worker_bin`].
    #[deprecated(note = "use with_config(BackendConfig::new().worker_bin(path))")]
    pub fn with_worker_bin(mut self, path: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(path.into());
        self
    }

    /// Override how many spin iterations one declared work unit costs on a
    /// worker (spin payloads and calibration probes; clamped to ≥ 1).
    #[deprecated(note = "use with_config(BackendConfig::new().spin_per_work_unit(iters))")]
    pub fn with_spin_per_work_unit(mut self, iters: u64) -> Self {
        self.spin_per_work_unit = iters.max(1);
        self
    }

    /// Override how many observations per waited-for worker form the
    /// Algorithm-1 calibration sample (0 disables the adaptation engine;
    /// otherwise `config.calibration.samples_per_node`).
    #[deprecated(note = "use with_config(BackendConfig::new().calibration_samples(n))")]
    pub fn with_calibration_samples(mut self, samples: usize) -> Self {
        self.calibration_samples = Some(samples);
        self
    }

    /// Override how many probe units a mid-run joiner must complete before
    /// it receives real units (default: the calibration sample count).
    pub fn with_join_calibration_units(mut self, units: usize) -> Self {
        self.join_calibration_units = Some(units);
        self
    }

    /// Override the liveness cadence.  `interval_s = 0` disables worker
    /// heartbeats *and* the timeout sweep: deaths are then detected by
    /// socket EOF / frame errors only, which keeps loopback frame indices
    /// deterministic for the fault-injection tests.
    #[deprecated(note = "use with_config(BackendConfig::new().heartbeat(interval_s, timeout_s))")]
    pub fn with_heartbeat(mut self, interval_s: f64, timeout_s: f64) -> Self {
        if interval_s <= 0.0 {
            self.heartbeat_interval_s = 0.0;
            self.heartbeat_timeout_s = timeout_s.max(1e-3);
        } else {
            self.heartbeat_interval_s = interval_s;
            self.heartbeat_timeout_s = timeout_s.max(10.0 * interval_s);
        }
        self
    }

    /// Override how long the master waits for the first `wait_for`
    /// registrations before failing the run, and for `join_spawn` joiners
    /// before it resumes without them.
    pub fn with_join_timeout(mut self, timeout_s: f64) -> Self {
        self.join_timeout_s = timeout_s.max(1e-3);
        self
    }

    /// Override how many times one unit may be dispatched before the run
    /// fails with [`GraspError::WorkerFailed`] (clamped to ≥ 1; default 3).
    #[deprecated(note = "use with_config(BackendConfig::new().max_task_attempts(n))")]
    pub fn with_max_task_attempts(mut self, attempts: usize) -> Self {
        self.max_task_attempts = attempts.max(1);
        self
    }

    /// Inject a **hard kill**: after member `worker` has delivered
    /// `results` completed units, SIGKILL its process mid-run (TCP mode;
    /// members without a spawned process are unaffected).
    #[deprecated(note = "use with_fault_injection(FaultInjection::none().kill(worker, results))")]
    pub fn with_kill_injection(mut self, worker: usize, results: usize) -> Self {
        self.kill_injection = Some((worker, results));
        self
    }

    /// Grow the pool mid-run (TCP mode): once `after_results` units have
    /// completed, spawn `extra` additional worker processes; each joins
    /// through the full handshake + calibration-prefix path, and real units
    /// are withheld until every joiner is through it (or the join timeout
    /// runs out).
    #[deprecated(
        note = "use with_fault_injection(FaultInjection::none().join_spawn(after_results, extra))"
    )]
    pub fn with_join_spawn(mut self, after_results: usize, extra: usize) -> Self {
        self.join_spawn = Some((after_results, extra.max(1)));
        self
    }

    /// Park connections beyond the first `wait_for` until `results` units
    /// have completed, then admit them — pins down "joined mid-run" for
    /// deterministic loopback tests (a parked joiner is admitted early if
    /// the pool would otherwise starve).
    pub fn with_hold_joins_until(mut self, results: usize) -> Self {
        self.hold_joins_until = Some(results);
        self
    }

    /// Attach serialized real-kernel payloads, `(unit id, payload kind,
    /// payload bytes)`; units without a payload run the spin kernel.
    pub fn with_payloads(mut self, payloads: Vec<(usize, u32, Vec<u8>)>) -> Self {
        for (id, kind, bytes) in payloads {
            self.payloads.insert(id, (kind, bytes.into()));
        }
        self
    }

    /// Registrations required before dispatch begins.
    pub fn wait_for(&self) -> usize {
        self.wait_for
    }
}

/// A skeleton bound to the socket backend, ready to execute.
#[derive(Debug, Clone)]
pub struct NetCompiled {
    /// Flat unit list `(global id, declared work)`.
    units: Vec<(usize, f64)>,
    /// Composition spans for rebuilding per-child outcomes.
    spans: Vec<UnitSpan>,
    kind: grasp_core::SkeletonKind,
    /// Resolved worker binary — present only when this run spawns workers.
    worker_bin: Option<PathBuf>,
    /// Capabilities a joiner must advertise to serve this job.
    required_caps: u32,
}

impl Backend for NetBackend {
    type Compiled = NetCompiled;

    fn name(&self) -> &'static str {
        "net"
    }

    fn compile(
        &self,
        config: &GraspConfig,
        skeleton: &Skeleton,
    ) -> Result<Self::Compiled, GraspError> {
        config.validate()?;
        skeleton.validate()?;
        let spawns_workers = self.spawn_workers > 0 || self.join_spawn.is_some();
        let worker_bin = if spawns_workers {
            Some(match &self.worker_bin {
                Some(p) if p.is_file() => p.clone(),
                Some(p) => {
                    return Err(GraspError::WorkerUnavailable {
                        detail: format!("worker binary {} does not exist", p.display()),
                    })
                }
                None => crate::find_worker_bin().ok_or_else(|| GraspError::WorkerUnavailable {
                    detail: format!(
                        "{} binary not found near the current executable; \
                         run `cargo build` first or set {}",
                        crate::WORKER_BIN_NAME,
                        crate::WORKER_BIN_ENV
                    ),
                })?,
            })
        } else {
            None
        };
        // Every job needs the spin capability (calibration probes are spin
        // units) plus whatever kernels its payloads reference.
        let required_caps = self
            .payloads
            .values()
            .fold(CAP_SPIN, |caps, (kind, _)| caps | payload_capability(*kind));
        let (tasks, spans) = skeleton.lower_to_farm();
        Ok(NetCompiled {
            units: tasks.iter().map(|t| (t.id, t.work)).collect(),
            spans,
            kind: skeleton.kind(),
            worker_bin,
            required_caps,
        })
    }

    fn execute(
        &self,
        config: &GraspConfig,
        compiled: &Self::Compiled,
    ) -> Result<SkeletonOutcome, GraspError> {
        let external = self
            .acceptor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let was_external = external.is_some();
        let acceptor: Box<dyn Acceptor> = match external {
            Some(a) => a,
            None if self.spawn_workers > 0 || self.join_spawn.is_some() => {
                Box::new(TcpAcceptor::bind(self.bind_addr.as_str())?)
            }
            None => {
                return Err(GraspError::WorkerUnavailable {
                    detail: "no acceptor available: a previous execute ended without \
                             returning the harness acceptor (failed run), and the \
                             backend spawns no workers of its own"
                        .to_string(),
                })
            }
        };
        // The acceptor comes back through this channel when the run's
        // orderly shutdown stops the acceptor thread, so the membership
        // substrate outlives the job: the next execute listens on the same
        // endpoint and fresh workers can join the next job's pool.
        let (recycle_tx, recycle_rx) = mpsc::channel();
        let outcome = NetMaster::launch(self, config, compiled, acceptor, recycle_tx)?.run();
        if was_external && outcome.is_ok() {
            if let Ok(recycled) = recycle_rx.recv_timeout(Duration::from_secs(5)) {
                *self.acceptor.lock().unwrap_or_else(|e| e.into_inner()) = Some(recycled);
            }
        }
        outcome
    }
}

// ---------------------------------------------------------------------------
// master-side machinery
// ---------------------------------------------------------------------------

/// What the acceptor/greeter/reader threads forward to the master loop.
enum Event {
    /// A connection passed the registration handshake.
    Join {
        peer: String,
        pid: u64,
        sink: Box<dyn FrameSink>,
        source: Box<dyn FrameSource>,
    },
    /// A connection was refused (bad version, missing capabilities, or no
    /// valid Join frame).
    Rejected,
    /// A frame from admitted member `0`.
    Msg(usize, WireMsg),
    /// Member `0`'s connection closed (clean EOF or frame error).
    Closed(usize),
}

/// One admitted pool member, master side.
struct Member {
    peer: String,
    pid: u64,
    /// The spawned process behind this member, when the master spawned it
    /// (matched by pid at admission).  Loopback members have none.
    child: Option<Child>,
    /// `None` once the outbound channel is closed (demotion, departure, or
    /// death).
    tx: Option<mpsc::Sender<OutMsg>>,
    alive: bool,
    demoted: bool,
    /// Goodbye received — drain the window, then release.
    departing: bool,
    joined_s: f64,
    joined_mid_run: bool,
    /// Calibration probes this member must complete before real units.
    probes_target: usize,
    probes_done: usize,
    probe_in_flight: usize,
    /// Indices (into the unit list) currently dispatched to this member.
    in_flight: Vec<usize>,
    /// Real units completed.
    completed: usize,
    left: Option<NetDeparture>,
}

impl Member {
    /// Alive, not demoted, not departing, with an open channel — eligible
    /// for new dispatches.
    fn can_dispatch(&self) -> bool {
        self.alive && !self.demoted && !self.departing && self.tx.is_some()
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        self.tx = None; // close the socket first: a live worker exits cleanly
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Master-side driver of the shared adaptation engine (executor mode);
/// mirrors the process backend's discipline: a calibration prefix of
/// normalized observations arms the engine, later observations feed it.
struct NetAdaptation {
    engine: AdaptationEngine,
    calib: Vec<f64>,
    calib_target: usize,
    armed: bool,
    baseline: f64,
    calibration_done_s: f64,
    min_active: usize,
    last_verdict: Option<MonitorVerdict>,
}

impl NetAdaptation {
    fn new(exec: &ExecutionConfig, calib_target: usize) -> Self {
        NetAdaptation {
            engine: AdaptationEngine::for_executors(exec, &[], gridsim::SimTime::ZERO),
            calib: Vec::with_capacity(calib_target),
            calib_target: calib_target.max(1),
            armed: false,
            baseline: f64::INFINITY,
            calibration_done_s: 0.0,
            min_active: exec.min_active_nodes.max(1),
            last_verdict: None,
        }
    }

    /// Feed one completed unit (real or probe); returns directives to
    /// apply, if an evaluation was due.
    fn on_done(
        &mut self,
        registry: &mut MonitorRegistry,
        worker: usize,
        work: f64,
        elapsed_s: f64,
        now: gridsim::SimTime,
        job_has_work: bool,
    ) -> Vec<AdaptationDirective> {
        if work <= 0.0 && job_has_work {
            return Vec::new();
        }
        let t_norm = if work > 0.0 {
            elapsed_s / work
        } else {
            elapsed_s
        };
        if !self.armed {
            self.calib.push(t_norm);
            if self.calib.len() >= self.calib_target {
                self.engine.calibrate(&self.calib, now);
                self.baseline = self.calib.iter().copied().fold(f64::INFINITY, f64::min);
                self.armed = true;
                self.calibration_done_s = now.as_secs();
            }
            return Vec::new();
        }
        self.engine.observe(NodeId(worker), t_norm);
        registry.record(NodeObservation::from_wall_times(
            NodeId(worker),
            now,
            self.baseline,
            t_norm,
        ));
        match self.engine.poll(now) {
            Some(poll) => {
                self.last_verdict = Some(poll.verdict);
                poll.directives
            }
            None => Vec::new(),
        }
    }
}

/// A connection parked by `hold_joins_until`: peer label, claimed pid, and
/// the two framed directions, held until admission.
type HeldJoin = (String, u64, Box<dyn FrameSink>, Box<dyn FrameSource>);

struct NetMaster<'a> {
    backend: &'a NetBackend,
    units: &'a [(usize, f64)],
    spans: &'a [UnitSpan],
    kind: grasp_core::SkeletonKind,
    job_has_work: bool,
    members: Vec<Member>,
    /// Connections held back by `hold_joins_until`, admitted later.
    held: Vec<HeldJoin>,
    rx: mpsc::Receiver<Event>,
    /// Cloned into each admitted member's reader thread.
    tx: mpsc::Sender<Event>,
    stop_accept: Arc<AtomicBool>,
    clock: WallClock,
    registry: MonitorRegistry,
    adaptation: Option<NetAdaptation>,
    /// Probe units a mid-run joiner owes before real units.
    join_probe_units: usize,
    /// Declared work of one probe unit (the job's mean positive unit work).
    probe_work: f64,
    probe_counter: u64,
    /// `true` once the initial quorum registered and dispatch began.
    started: bool,
    endpoint: String,
    /// unit id → index into `units`.
    id_to_idx: HashMap<usize, usize>,
    pending: VecDeque<usize>,
    attempts: Vec<usize>,
    completions: BTreeMap<usize, f64>,
    digests: BTreeMap<usize, u64>,
    requeued_open: std::collections::BTreeSet<usize>,
    requeued_tasks: usize,
    retried_tasks: usize,
    nodes_lost: usize,
    rejected_joins: usize,
    counters: WireCounters,
    bytes_received: Arc<AtomicU64>,
    kill_injection: Option<(usize, usize)>,
    join_spawn: Option<(usize, usize)>,
    /// Set once `join_spawn` fired: `(joiners owed, deadline_s)`.  Real
    /// units are withheld until that many mid-run joiners have passed
    /// their calibration prefix or the deadline passes, so a scripted
    /// joiner always finds work left whatever the spawn costs.
    join_hold: Option<(usize, f64)>,
    worker_bin: Option<PathBuf>,
    /// Spawned processes that have not yet completed the handshake
    /// (claimed by pid at admission).
    unclaimed_children: Vec<Child>,
}

impl<'a> NetMaster<'a> {
    fn launch(
        backend: &'a NetBackend,
        config: &GraspConfig,
        compiled: &'a NetCompiled,
        acceptor: Box<dyn Acceptor>,
        recycle: mpsc::Sender<Box<dyn Acceptor>>,
    ) -> Result<Self, GraspError> {
        let samples = backend
            .calibration_samples
            .unwrap_or(config.calibration.samples_per_node);
        let adaptation = (config.execution.adaptive && samples > 0)
            .then(|| NetAdaptation::new(&config.execution, backend.wait_for * samples));
        let join_probe_units = backend.join_calibration_units.unwrap_or(samples);
        let endpoint = acceptor.endpoint();
        let (tx, rx) = mpsc::channel();
        let stop_accept = Arc::new(AtomicBool::new(false));
        spawn_acceptor_thread(
            acceptor,
            tx.clone(),
            Arc::clone(&stop_accept),
            compiled.required_caps,
            recycle,
        );
        let positive: Vec<f64> = compiled
            .units
            .iter()
            .map(|&(_, w)| w)
            .filter(|&w| w > 0.0)
            .collect();
        let probe_work = if positive.is_empty() {
            1.0
        } else {
            positive.iter().sum::<f64>() / positive.len() as f64
        };
        let mut master = NetMaster {
            backend,
            units: &compiled.units,
            spans: &compiled.spans,
            kind: compiled.kind,
            job_has_work: compiled.units.iter().any(|&(_, w)| w > 0.0),
            members: Vec::new(),
            held: Vec::new(),
            rx,
            tx,
            stop_accept,
            clock: WallClock::start(),
            registry: MonitorRegistry::new(NodeId(0), 64),
            adaptation,
            join_probe_units,
            probe_work,
            probe_counter: 0,
            started: false,
            endpoint,
            id_to_idx: compiled
                .units
                .iter()
                .enumerate()
                .map(|(i, &(id, _))| (id, i))
                .collect(),
            pending: (0..compiled.units.len()).collect(),
            attempts: vec![0; compiled.units.len()],
            completions: BTreeMap::new(),
            digests: BTreeMap::new(),
            requeued_open: std::collections::BTreeSet::new(),
            requeued_tasks: 0,
            retried_tasks: 0,
            nodes_lost: 0,
            rejected_joins: 0,
            counters: WireCounters::new(),
            bytes_received: Arc::new(AtomicU64::new(0)),
            kill_injection: backend.kill_injection,
            join_spawn: backend.join_spawn,
            join_hold: None,
            worker_bin: compiled.worker_bin.clone(),
            unclaimed_children: Vec::new(),
        };
        for _ in 0..backend.spawn_workers {
            master.spawn_tcp_worker()?;
        }
        Ok(master)
    }

    /// Spawn one local worker process pointed at the master's endpoint; it
    /// becomes a member only once its Join passes the handshake.
    fn spawn_tcp_worker(&mut self) -> Result<(), GraspError> {
        let bin = self
            .worker_bin
            .as_ref()
            .ok_or_else(|| GraspError::WorkerUnavailable {
                detail: "no worker binary resolved (harness-mode backends spawn nothing)"
                    .to_string(),
            })?;
        let child = Command::new(bin)
            .arg(&self.endpoint)
            .stdin(Stdio::null())
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| GraspError::WorkerUnavailable {
                detail: format!("could not spawn {}: {e}", bin.display()),
            })?;
        self.unclaimed_children.push(child);
        Ok(())
    }

    /// Members that can accept new dispatches right now.
    fn dispatchable(&self) -> usize {
        self.members.iter().filter(|m| m.can_dispatch()).count()
    }

    fn total_in_flight(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.in_flight.len() + m.probe_in_flight)
            .sum()
    }

    fn send_to(&mut self, w: usize, msg: OutMsg) -> bool {
        let Some(out) = self.members[w].tx.as_ref() else {
            return false;
        };
        out.send(msg).is_ok()
    }

    /// A handshaken connection arrived: admit it, or park it when the test
    /// harness pinned down the mid-run join point.
    fn on_join(
        &mut self,
        peer: String,
        pid: u64,
        sink: Box<dyn FrameSink>,
        source: Box<dyn FrameSource>,
    ) {
        let hold = match self.backend.hold_joins_until {
            Some(k) => self.members.len() >= self.backend.wait_for && self.completions.len() < k,
            None => false,
        };
        if hold {
            self.held.push((peer, pid, sink, source));
        } else {
            self.admit(peer, pid, sink, source);
        }
    }

    /// Admit a worker into the pool: assign the next slot (never reused),
    /// start its reader and writer threads, send the Welcome, and — when
    /// the run is already underway — schedule its calibration prefix.
    fn admit(
        &mut self,
        peer: String,
        pid: u64,
        sink: Box<dyn FrameSink>,
        mut source: Box<dyn FrameSource>,
    ) {
        let w = self.members.len();
        let now = self.clock.now();
        source.set_byte_counter(Arc::clone(&self.bytes_received));
        let events = self.tx.clone();
        std::thread::spawn(move || loop {
            match source.recv() {
                Ok(Some(msg)) => {
                    if events.send(Event::Msg(w, msg)).is_err() {
                        return; // master gone
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = events.send(Event::Closed(w));
                    return;
                }
            }
        });
        let out = spawn_frame_writer(sink, self.counters.clone());
        let write_ok = out
            .send(
                WireMsg::Welcome {
                    worker_id: w as u64,
                    heartbeat_interval_s: self.backend.heartbeat_interval_s,
                    spin_per_work_unit: self.backend.spin_per_work_unit,
                }
                .into(),
            )
            .is_ok();
        // Liveness starts fresh at admission.  The forget-then-note pair is
        // the re-registration contract: even if some prior record exists
        // for this slot, the new member must not inherit a stale clock.
        self.registry.forget_heartbeat(NodeId(w));
        self.registry.note_heartbeat(NodeId(w), now);
        let mid_run = self.started;
        // A founding member's calibration rides on the job's own leading
        // units; a mid-run joiner owes a probe prefix before real units
        // (pointless when the adaptation engine is off).
        let probes_target = if mid_run && self.adaptation.is_some() {
            self.join_probe_units
        } else {
            0
        };
        if mid_run {
            if let Some(ad) = &mut self.adaptation {
                ad.engine.note_node_joined(now, NodeId(w));
            }
        }
        let child = self.claim_child(pid);
        self.members.push(Member {
            peer,
            pid,
            child,
            tx: write_ok.then_some(out),
            alive: true,
            demoted: false,
            departing: false,
            joined_s: now.as_secs(),
            joined_mid_run: mid_run,
            probes_target,
            probes_done: 0,
            probe_in_flight: 0,
            in_flight: Vec::new(),
            completed: 0,
            left: None,
        });
    }

    /// Match a registering pid against the processes this master spawned,
    /// so the member owns its child (kill injection, cleanup).
    fn claim_child(&mut self, pid: u64) -> Option<Child> {
        let at = self
            .unclaimed_children
            .iter()
            .position(|c| u64::from(c.id()) == pid)?;
        Some(self.unclaimed_children.swap_remove(at))
    }

    /// Admit everything parked in `held` (threshold reached, or the pool
    /// would starve without them).
    fn release_held(&mut self) {
        for (peer, pid, sink, source) in std::mem::take(&mut self.held) {
            self.admit(peer, pid, sink, source);
        }
    }

    /// Fill every eligible member's outstanding window: calibration probes
    /// first (a joiner mid-prefix gets no real units), then pending units.
    fn dispatch_all(&mut self) -> Result<(), GraspError> {
        if !self.started {
            let ready = self
                .members
                .iter()
                .filter(|m| m.alive && m.tx.is_some())
                .count();
            if ready < self.backend.wait_for {
                return Ok(());
            }
            self.started = true;
        }
        for w in 0..self.members.len() {
            // Calibration prefix: probe units sized like the job's own.
            loop {
                let m = &self.members[w];
                if !m.can_dispatch()
                    || m.probes_done + m.probe_in_flight >= m.probes_target
                    || m.probe_in_flight + m.in_flight.len() >= self.backend.outstanding_per_worker
                {
                    break;
                }
                let probe_id = PROBE_UNIT_BASE + self.probe_counter;
                self.probe_counter += 1;
                let msg = OutMsg::spin_task(probe_id, self.probe_work);
                if self.send_to(w, msg) {
                    self.members[w].probe_in_flight += 1;
                } else {
                    self.members[w].tx = None;
                }
            }
            // Real units, once the prefix (if any) is behind it and no
            // scripted joiner is still owed.
            loop {
                let m = &self.members[w];
                if !m.can_dispatch()
                    || m.probes_done < m.probes_target
                    || self.join_hold.is_some()
                    || m.in_flight.len() >= self.backend.outstanding_per_worker
                {
                    break;
                }
                let Some(idx) = self.pending.pop_front() else {
                    break;
                };
                self.attempts[idx] += 1;
                if self.attempts[idx] > self.backend.max_task_attempts {
                    return Err(GraspError::WorkerFailed {
                        task: self.units[idx].0,
                        attempts: self.attempts[idx],
                    });
                }
                let (id, work) = self.units[idx];
                // Real-kernel payloads ride as `Arc<[u8]>`: dispatch clones a
                // pointer, never the payload bytes.
                let msg = match self.backend.payloads.get(&id) {
                    Some((kind, bytes)) => OutMsg::Task {
                        unit_id: id as u64,
                        work,
                        kind: *kind,
                        payload: Arc::clone(bytes),
                    },
                    None => OutMsg::spin_task(id as u64, work),
                };
                if self.send_to(w, msg) {
                    self.members[w].in_flight.push(idx);
                } else {
                    self.pending.push_front(idx);
                    self.attempts[idx] -= 1;
                    self.members[w].tx = None;
                    break;
                }
            }
        }
        Ok(())
    }

    /// A member's link is gone (EOF, frame error, or heartbeat timeout).
    /// Members already released (graceful drain, demotion drain) were
    /// settled when their channel closed; anything else is a death: requeue
    /// the stranded units, count the loss, tell the engine.
    fn on_member_gone(&mut self, w: usize) {
        if !self.members[w].alive {
            return;
        }
        let now = self.clock.now();
        self.members[w].alive = false;
        self.members[w].tx = None;
        if let Some(child) = &mut self.members[w].child {
            let _ = child.kill();
            let _ = child.wait();
        }
        let stranded: Vec<usize> = std::mem::take(&mut self.members[w].in_flight);
        self.members[w].probe_in_flight = 0;
        let was_demoted = self.members[w].demoted;
        self.registry.forget_heartbeat(NodeId(w));
        for idx in stranded.iter().rev() {
            self.pending.push_front(*idx);
            self.requeued_open.insert(*idx);
        }
        self.requeued_tasks += stranded.len();
        if was_demoted {
            // A demoted member draining out is a planned departure.
            self.members[w].left = Some(NetDeparture::Graceful);
        } else {
            self.members[w].left = Some(NetDeparture::Death);
            self.nodes_lost += 1;
            if let Some(ad) = &mut self.adaptation {
                ad.engine.note_node_lost(now, NodeId(w), stranded.len());
            }
        }
    }

    /// A departing member whose window has fully drained is released:
    /// Shutdown frame, channel closed, membership recorded as graceful.
    fn maybe_finish_departing(&mut self, w: usize) {
        let m = &self.members[w];
        if !(m.alive && m.departing && m.in_flight.is_empty() && m.probe_in_flight == 0) {
            return;
        }
        let _ = self.send_to(w, WireMsg::Shutdown.into());
        let m = &mut self.members[w];
        m.tx = None;
        m.alive = false;
        m.left = Some(NetDeparture::Graceful);
        self.registry.forget_heartbeat(NodeId(w));
    }

    /// Apply engine directives under the master's pool-floor gating.
    fn apply_directives(&mut self, directives: Vec<AdaptationDirective>) {
        let now = self.clock.now();
        for directive in directives {
            match directive {
                AdaptationDirective::DemoteExecutor {
                    executor,
                    recent_mean,
                } => {
                    let w = executor.index();
                    let Some(min_active) = self.adaptation.as_ref().map(|a| a.min_active) else {
                        continue;
                    };
                    if w < self.members.len()
                        && self.members[w].alive
                        && !self.members[w].demoted
                        && self.dispatchable() > min_active
                    {
                        // Demotion over a socket: close the member's
                        // channel.  It finishes its window, reads EOF and
                        // exits; remaining results still flow back.
                        self.members[w].demoted = true;
                        self.members[w].tx = None;
                        if let Some(ad) = &mut self.adaptation {
                            if let Some(verdict) = ad.last_verdict.clone() {
                                ad.engine.note_demoted(now, executor, recent_mean, &verdict);
                            }
                        }
                    }
                }
                AdaptationDirective::Recalibrate => {
                    let chosen: Vec<NodeId> = self
                        .members
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.alive && !m.demoted && !m.departing)
                        .map(|(i, _)| NodeId(i))
                        .collect();
                    if let Some(ad) = &mut self.adaptation {
                        if let Some(verdict) = ad.last_verdict.clone() {
                            ad.engine.begin_resample(now, chosen, &verdict);
                        }
                    }
                }
                AdaptationDirective::RemapStage { .. } => {}
                // This backend does not speculate: duplicating a straggler
                // over the wire would spend scarce cross-node bandwidth on
                // work that is already paid for, and the timeout-requeue
                // path covers genuine losses.  The directive is
                // acknowledged and dropped.
                AdaptationDirective::Speculate { .. } => {}
            }
        }
    }

    /// A probe unit came back: advance the member's calibration prefix and
    /// feed the observation to the engine (a slow newcomer can be demoted
    /// before it ever touches a real unit).
    fn on_probe_done(&mut self, w: usize, elapsed_s: f64) {
        let now = self.clock.now();
        let m = &mut self.members[w];
        m.probe_in_flight = m.probe_in_flight.saturating_sub(1);
        m.probes_done += 1;
        let work = self.probe_work;
        let directives = match &mut self.adaptation {
            Some(ad) => ad.on_done(&mut self.registry, w, work, elapsed_s, now, true),
            None => Vec::new(),
        };
        if !directives.is_empty() {
            self.apply_directives(directives);
        }
        self.maybe_finish_departing(w);
    }

    fn on_msg(&mut self, w: usize, msg: WireMsg) -> Result<(), GraspError> {
        // Frames from a member already settled (dead, drained, released)
        // are dropped: acting on them — in particular re-inserting the
        // heartbeat — would make the liveness sweep re-report a stale slot
        // forever (see the registry's re-registration test).
        if !self.members[w].alive {
            return Ok(());
        }
        let now = self.clock.now();
        match msg {
            WireMsg::Heartbeat => {
                self.registry.note_heartbeat(NodeId(w), now);
            }
            WireMsg::Done {
                unit_id,
                elapsed_s,
                digest,
            } => {
                self.registry.note_heartbeat(NodeId(w), now);
                if unit_id >= PROBE_UNIT_BASE {
                    self.on_probe_done(w, elapsed_s);
                    return Ok(());
                }
                let Some(&idx) = self.id_to_idx.get(&(unit_id as usize)) else {
                    return Err(GraspError::WireProtocol {
                        detail: format!("worker {w} reported unknown unit {unit_id}"),
                    });
                };
                self.members[w].in_flight.retain(|&i| i != idx);
                self.members[w].completed += 1;
                let id = self.units[idx].0;
                // First completion wins: a requeued unit finished twice
                // keeps conservation intact.
                if let std::collections::btree_map::Entry::Vacant(slot) = self.completions.entry(id)
                {
                    slot.insert(now.as_secs());
                    self.digests.insert(id, digest);
                    if self.requeued_open.remove(&idx) {
                        self.retried_tasks += 1;
                    }
                }
                let directives = match &mut self.adaptation {
                    Some(ad) => ad.on_done(
                        &mut self.registry,
                        w,
                        self.units[idx].1,
                        elapsed_s,
                        now,
                        self.job_has_work,
                    ),
                    None => Vec::new(),
                };
                if !directives.is_empty() {
                    self.apply_directives(directives);
                }
                self.maybe_finish_departing(w);
                // Hard-kill injection: refill the victim's window so units
                // are genuinely in flight, then SIGKILL it mid-run.
                if let Some((kw, after)) = self.kill_injection {
                    if kw == w && self.members[w].completed >= after {
                        self.kill_injection = None;
                        self.dispatch_all()?;
                        if let Some(child) = &mut self.members[w].child {
                            let _ = child.kill();
                            // Detection is the real path: socket EOF /
                            // heartbeat timeout → the Closed event.
                        }
                    }
                }
            }
            WireMsg::Failed { unit_id, detail } => {
                self.registry.note_heartbeat(NodeId(w), now);
                if unit_id >= PROBE_UNIT_BASE {
                    // A failed probe still advances the prefix; it just
                    // contributes no observation.
                    let m = &mut self.members[w];
                    m.probe_in_flight = m.probe_in_flight.saturating_sub(1);
                    m.probes_done += 1;
                    return Ok(());
                }
                let Some(&idx) = self.id_to_idx.get(&(unit_id as usize)) else {
                    return Err(GraspError::WireProtocol {
                        detail: format!("worker {w} failed unknown unit {unit_id}: {detail}"),
                    });
                };
                self.members[w].in_flight.retain(|&i| i != idx);
                if self.attempts[idx] >= self.backend.max_task_attempts {
                    return Err(GraspError::WorkerFailed {
                        task: unit_id as usize,
                        attempts: self.attempts[idx],
                    });
                }
                self.pending.push_back(idx);
                self.requeued_open.insert(idx);
                self.requeued_tasks += 1;
                self.maybe_finish_departing(w);
            }
            WireMsg::Goodbye { .. } => {
                // The member stops receiving new dispatches; its window
                // drains, then `maybe_finish_departing` releases it.
                self.members[w].departing = true;
                self.maybe_finish_departing(w);
            }
            WireMsg::Join { .. } => {
                return Err(GraspError::WireProtocol {
                    detail: format!(
                        "worker {w} ({}) sent a second Join after admission",
                        self.members[w].peer
                    ),
                });
            }
            WireMsg::Hello { .. }
            | WireMsg::Init { .. }
            | WireMsg::Task { .. }
            | WireMsg::Welcome { .. }
            | WireMsg::Shutdown => {
                return Err(GraspError::WireProtocol {
                    detail: format!(
                        "worker {w} ({}) sent a master-side frame",
                        self.members[w].peer
                    ),
                });
            }
        }
        Ok(())
    }

    /// Fail fast when the run can no longer make progress; a parked joiner
    /// is admitted early rather than letting the pool starve.
    fn check_progress(&mut self, total: usize) -> Result<(), GraspError> {
        if !self.started {
            if self.clock.now().as_secs() > self.backend.join_timeout_s {
                let ready = self.members.iter().filter(|m| m.alive).count();
                return Err(GraspError::WorkerUnavailable {
                    detail: format!(
                        "only {ready} of {} workers registered at {} within {:.1}s",
                        self.backend.wait_for, self.endpoint, self.backend.join_timeout_s
                    ),
                });
            }
            return Ok(());
        }
        if self.completions.len() < total
            && self.dispatchable() == 0
            && (!self.pending.is_empty() || self.total_in_flight() == 0)
        {
            if !self.held.is_empty() {
                self.release_held();
                return Ok(());
            }
            return Err(GraspError::WorkerUnavailable {
                detail: format!(
                    "all {} admitted workers gone with {} of {} units unfinished",
                    self.members.len(),
                    total - self.completions.len(),
                    total
                ),
            });
        }
        Ok(())
    }

    fn run(mut self) -> Result<SkeletonOutcome, GraspError> {
        let total = self.units.len();
        let tick =
            Duration::from_secs_f64((self.backend.heartbeat_timeout_s / 8.0).clamp(0.02, 0.25));
        while self.completions.len() < total {
            match self.rx.recv_timeout(tick) {
                Ok(Event::Join {
                    peer,
                    pid,
                    sink,
                    source,
                }) => self.on_join(peer, pid, sink, source),
                Ok(Event::Rejected) => self.rejected_joins += 1,
                Ok(Event::Msg(w, msg)) => self.on_msg(w, msg)?,
                Ok(Event::Closed(w)) => self.on_member_gone(w),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {}
            }
            // Admit parked joiners once the scripted join point passed.
            if let Some(k) = self.backend.hold_joins_until {
                if !self.held.is_empty() && self.started && self.completions.len() >= k {
                    self.release_held();
                }
            }
            // Grow the pool mid-run when configured.
            if let Some((after, extra)) = self.join_spawn {
                if self.started && self.completions.len() >= after {
                    self.join_spawn = None;
                    for _ in 0..extra {
                        self.spawn_tcp_worker()?;
                    }
                    let deadline = self.clock.now().as_secs() + self.backend.join_timeout_s;
                    self.join_hold = Some((extra, deadline));
                }
            }
            if let Some((owed, deadline)) = self.join_hold {
                let ready = self
                    .members
                    .iter()
                    .filter(|m| m.joined_mid_run && (!m.alive || m.probes_done >= m.probes_target))
                    .count();
                if ready >= owed || self.clock.now().as_secs() > deadline {
                    self.join_hold = None;
                }
            }
            // Liveness sweep — only when heartbeats are on; with them off
            // (deterministic tests) EOF is the sole death signal.
            if self.backend.heartbeat_interval_s > 0.0 {
                let now = self.clock.now();
                for node in self
                    .registry
                    .stale_nodes(now, self.backend.heartbeat_timeout_s)
                {
                    self.on_member_gone(node.index());
                }
            }
            self.dispatch_all()?;
            self.check_progress(total)?;
        }
        // Orderly shutdown: stop accepting, release every live member
        // (Shutdown frame, then EOF), drop parked connections.
        self.stop_accept.store(true, Ordering::SeqCst);
        for w in 0..self.members.len() {
            if self.members[w].alive {
                let _ = self.send_to(w, WireMsg::Shutdown.into());
                self.members[w].tx = None;
            }
        }
        self.held.clear(); // dropped sinks read as EOF on the worker side
        let makespan_s = self.clock.now().as_secs();
        let tasks_per_worker: Vec<usize> = self.members.iter().map(|m| m.completed).collect();
        let member_reports: Vec<NetMemberReport> = self
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| NetMemberReport {
                worker: i,
                pid: m.pid,
                joined_s: m.joined_s,
                joined_mid_run: m.joined_mid_run,
                calibration_probes: m.probes_done,
                units_completed: m.completed,
                left: m.left,
            })
            .collect();
        let workers = self.members.len();
        self.members.clear(); // drop = close, kill (no-op for clean exits), reap
        for mut child in self.unclaimed_children.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
        let bytes_received = self.bytes_received.load(Ordering::Relaxed);
        let (calibration_s, adaptation_log) = match self.adaptation {
            Some(ad) => (ad.calibration_done_s, ad.engine.into_log()),
            None => (0.0, AdaptationLog::new()),
        };
        let unit_ids: Vec<usize> = self.completions.keys().copied().collect();
        Ok(SkeletonOutcome {
            kind: self.kind,
            completed: unit_ids.len(),
            unit_ids,
            makespan_s,
            calibration_s,
            adaptation_log,
            resilience: ResilienceReport {
                requeued_tasks: self.requeued_tasks,
                retried_tasks: self.retried_tasks,
                migrated_stages: 0,
                nodes_lost: self.nodes_lost,
                // This backend never speculates (see `apply_directives`).
                speculated_units: 0,
                speculation_wins: 0,
            },
            children: self
                .spans
                .iter()
                .map(|s| s.outcome_from(&self.completions))
                .collect(),
            detail: OutcomeDetail::NetFarm {
                workers,
                tasks_per_worker,
                rejected_joins: self.rejected_joins,
                bytes_sent: self.counters.bytes.load(Ordering::Relaxed),
                bytes_received,
                wire_write_s: self.counters.write_seconds(),
                wire_encode_s: self.counters.encode_seconds(),
                bytes_copied: self.counters.copied.load(Ordering::Relaxed),
                unit_digests: self.digests.into_iter().collect(),
                members: member_reports,
            },
        })
    }
}

/// Poll the acceptor until the run ends; each fresh connection gets a
/// greeter thread so a peer that stalls mid-handshake cannot block
/// admission of the others.  When the run stops accepting, the acceptor is
/// handed back through `recycle` so the backend can listen on the same
/// endpoint for the next job (members — the membership substrate — outlive
/// any single run).
fn spawn_acceptor_thread(
    mut acceptor: Box<dyn Acceptor>,
    tx: mpsc::Sender<Event>,
    stop: Arc<AtomicBool>,
    required_caps: u32,
    recycle: mpsc::Sender<Box<dyn Acceptor>>,
) {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            match acceptor.poll_accept() {
                Ok(Some(conn)) => {
                    let tx = tx.clone();
                    std::thread::spawn(move || greet(conn, required_caps, tx));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        let _ = recycle.send(acceptor);
    });
}

/// The registration handshake, connection side: the first frame must be a
/// Join with the master's wire version and the job's required capabilities;
/// anything else is answered with Shutdown and refused.
fn greet(
    conn: grasp_core::transport::FramedConnection,
    required_caps: u32,
    tx: mpsc::Sender<Event>,
) {
    let peer = conn.peer().to_string();
    let (mut sink, source) = conn.split();
    let mut source = source;
    let admitted = match source.recv() {
        Ok(Some(WireMsg::Join {
            pid,
            wire_version,
            capabilities,
        })) => {
            if wire_version == WIRE_VERSION as u32 && capabilities & required_caps == required_caps
            {
                Some(pid)
            } else {
                None
            }
        }
        _ => None,
    };
    match admitted {
        Some(pid) => {
            let _ = tx.send(Event::Join {
                peer,
                pid,
                sink,
                source,
            });
        }
        None => {
            // Counted before the worker hears it: once a refused worker
            // has its Shutdown, the master's tally already includes it.
            let _ = tx.send(Event::Rejected);
            let _ = sink.send(&WireMsg::Shutdown);
        }
    }
}
