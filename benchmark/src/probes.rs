//! Layer probes that need no workload job: each times one public function
//! of a layer in a tight loop (or a small-frame echo for the transports)
//! and reports the cost of one call.  They run in every traced run.

use crate::stats::median;
use crate::trace::SpanBuf;
use crate::{Metrics, RunConfig, WORKERS};
use grasp_core::prelude::{AdaptationEngine, ExecutionConfig, SchedulePolicy};
use grasp_core::shm::ShmRing;
use grasp_core::transport::{stream_connection, FrameSink, FrameSource};
use grasp_core::wire::WireMsg;
use grasp_exec::StealDeque;
use gridsim::{NodeId, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Run every probe, recording one span each.
pub fn run(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let (take, _) = trace.time("deque.take_bottom", "probe", take_bottom_ns);
    m.set("exec.deque.take_bottom_ns", take, 1);
    let (steal, _) = trace.time("deque.steal_top_half", "probe", steal_top_half_ns);
    m.set("exec.deque.steal_top_half_ns", steal, 1);
    let (chunk, _) = trace.time("scheduler.next_chunk_with_total", "probe", next_chunk_ns);
    m.set("core.scheduler.next_chunk_ns", chunk, 1);
    let (observe, _) = trace.time("engine.observe", "probe", observe_ns);
    m.set("core.engine.observe_ns", observe, 1);
    let (poll, _) = trace.time("engine.poll", "probe", poll_ns);
    m.set("core.engine.poll_ns", poll.0, poll.1);
    let (pipe, _) = trace.time("transport.pipe_echo", "probe", pipe_rtt_us);
    let pipe = pipe?;
    m.set("core.transport.pipe_rtt_us", pipe.0, pipe.1);
    let ring = cfg
        .out_dir
        .join(format!("probe-ring-{}", std::process::id()));
    let (shm, _) = trace.time("transport.shm_echo", "probe", || shm_rtt_us(&ring));
    ShmRing::cleanup(&ring);
    let shm = shm?;
    m.set("core.transport.shm_rtt_us", shm.0, shm.1);
    Ok(m)
}

/// Owner pops of single tasks from a full deque.
fn take_bottom_ns() -> f64 {
    const TASKS: usize = 1 << 22;
    let deque = StealDeque::new(0, TASKS);
    let t0 = Instant::now();
    while let Some(range) = deque.take_bottom(1) {
        black_box(range);
    }
    t0.elapsed().as_secs_f64() * 1e9 / TASKS as f64
}

/// Thief steals of the top half until each fresh deque is down to its
/// last task.
fn steal_top_half_ns() -> f64 {
    const DEQUES: usize = 100_000;
    let mut steals = 0usize;
    let t0 = Instant::now();
    for _ in 0..DEQUES {
        let deque = StealDeque::new(0, 1 << 16);
        while let Some(range) = black_box(&deque).steal_top_half() {
            black_box(range);
            steals += 1;
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / steals.max(1) as f64
}

/// Work-stealing chunk sizing over a shrinking remainder.
fn next_chunk_ns() -> f64 {
    const TOTAL: usize = 1 << 20;
    const CALLS: usize = 4_000_000;
    let policy = SchedulePolicy::WorkStealing { min_chunk: 1 };
    let t0 = Instant::now();
    let mut remaining = TOTAL;
    for i in 0..CALLS {
        let weight = 0.5 + (i % 7) as f64 * 0.25;
        let chunk =
            policy.next_chunk_with_total(black_box(remaining), TOTAL, WORKERS, black_box(weight));
        remaining = remaining.saturating_sub(chunk);
        if remaining == 0 {
            remaining = TOTAL;
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

/// A calibrated executor-mode engine over the benchmark's two workers.
fn engine() -> (AdaptationEngine, ExecutionConfig) {
    let exec = ExecutionConfig::default();
    let engine = AdaptationEngine::for_executors(&exec, &[1e-5; WORKERS], SimTime::ZERO);
    (engine, exec)
}

/// One worker report into the engine's monitor.
fn observe_ns() -> f64 {
    const CALLS: usize = 1_000_000;
    let (mut engine, _) = engine();
    let t0 = Instant::now();
    for i in 0..CALLS {
        engine.observe(NodeId(i % WORKERS), black_box(1e-5 + (i % 5) as f64 * 1e-7));
    }
    black_box(engine.evaluations());
    t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

/// One monitoring evaluation per elapsed interval, each over a window of
/// fresh observations; returns the median ns of one `poll` and the count.
fn poll_ns() -> (f64, usize) {
    const POLLS: usize = 20_000;
    let (mut engine, exec) = engine();
    let mut samples = Vec::with_capacity(POLLS);
    for p in 1..=POLLS {
        for i in 0..8 {
            engine.observe(NodeId(i % WORKERS), 1e-5 + (i % 3) as f64 * 1e-7);
        }
        let now = SimTime::new(p as f64 * exec.monitor_interval_s);
        let t0 = Instant::now();
        black_box(engine.poll(now));
        samples.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    (median(&samples), POLLS)
}

/// Round trips of a small frame through `sink`/`source` to an echo thread
/// on the other end; returns the median microseconds and the count.
fn echo_rtt_us(
    mut sink: Box<dyn FrameSink>,
    mut source: Box<dyn FrameSource>,
    mut echo_sink: Box<dyn FrameSink>,
    mut echo_source: Box<dyn FrameSource>,
    trips: usize,
) -> Result<(f64, usize), String> {
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            while let Some(view) = echo_source.recv_view().map_err(|e| e.to_string())? {
                black_box(view);
                echo_sink
                    .send(&WireMsg::Heartbeat)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut samples = Vec::with_capacity(trips);
        let mut result = Ok(());
        for _ in 0..trips {
            let t0 = Instant::now();
            if let Err(e) = sink.send(&WireMsg::Heartbeat) {
                result = Err(e.to_string());
                break;
            }
            match source.recv_view() {
                Ok(Some(_)) => samples.push(t0.elapsed().as_secs_f64() * 1e6),
                Ok(None) => {
                    result = Err("echo peer closed early".to_string());
                    break;
                }
                Err(e) => {
                    result = Err(e.to_string());
                    break;
                }
            }
        }
        // Closing our sending side ends the echo loop.
        drop(sink);
        let echoed = echo
            .join()
            .map_err(|_| "echo thread panicked".to_string())?;
        result.and(echoed)?;
        Ok((median(&samples), samples.len()))
    })
}

/// Small-frame echo over two OS pipes, the process backend's default
/// transport.
fn pipe_rtt_us() -> Result<(f64, usize), String> {
    let (to_echo_r, to_echo_w) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let (from_echo_r, from_echo_w) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let (sink, source) = stream_connection("echo", to_echo_w, from_echo_r).split();
    let (echo_sink, echo_source) = stream_connection("probe", from_echo_w, to_echo_r).split();
    echo_rtt_us(sink, source, echo_sink, echo_source, 5_000)
}

/// Small-frame echo over a shared-memory ring pair.  The ring file lives
/// at `path` (inside the benchmark's output directory, not on tmpfs).
fn shm_rtt_us(path: &std::path::Path) -> Result<(f64, usize), String> {
    let pid = std::process::id() as u64;
    let master = ShmRing::create(path, 1 << 16).map_err(|e| e.to_string())?;
    let worker = ShmRing::attach(path).map_err(|e| e.to_string())?;
    let (sink, source) = master.into_halves(pid);
    let (echo_sink, echo_source) = worker.into_halves(pid);
    echo_rtt_us(
        Box::new(sink),
        Box::new(source),
        Box::new(echo_sink),
        Box::new(echo_source),
        2_000,
    )
}
