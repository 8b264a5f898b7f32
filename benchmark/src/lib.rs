//! The GRASP benchmark: four workloads driven through the public API, with
//! end-to-end job metrics from untraced runs and per-layer metrics from a
//! separate traced run.  See `benchmark/README.md` for the metric table.

pub mod check;
pub mod closed;
pub mod farm_proc;
pub mod farm_threads;
pub mod grid_sim;
pub mod probes;
pub mod service_stream;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::SpanBuf;

/// Worker threads / processes every backend and the service run with.
pub const WORKERS: usize = 2;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["farm-threads", "farm-proc", "service-stream", "grid-sim"];

/// End-to-end metrics, `(name, unit)`: reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("job_p50_s", "s"),
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics only `service-stream` adds: its throughput at the
/// offered rate is not fixed by its latency, as a closed loop's is.
pub const STREAM_END_TO_END: &[(&str, &str)] = &[("jobs_per_s", "1/s")];

/// The end-to-end metrics an untraced run of `workload` reports.
pub fn end_to_end_of(workload: &str) -> Vec<(&'static str, &'static str)> {
    let extra = if workload == "service-stream" {
        STREAM_END_TO_END
    } else {
        &[]
    };
    END_TO_END.iter().chain(extra).copied().collect()
}

/// Per-layer metrics, `(name, unit)`: reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Thread farm and scheduler.
    ("threads.compile_s", "s"),
    ("threads.execute_s", "s"),
    ("threads.calibration_s", "s"),
    ("threads.kernel_floor_s", "s"),
    ("threads.overhead_s", "s"),
    ("threads.steals_attempted", "count"),
    ("threads.steals_completed", "count"),
    ("threads.units_stolen", "count"),
    ("threads.steal_success_ratio", "ratio"),
    ("threads.work_imbalance", "ratio"),
    ("exec.deque.take_bottom_ns", "ns"),
    ("exec.deque.steal_top_half_ns", "ns"),
    ("core.scheduler.next_chunk_ns", "ns"),
    // Adaptation engine.
    ("core.engine.observe_ns", "ns"),
    ("core.engine.poll_ns", "ns"),
    ("threads.adaptations", "count"),
    ("sim.adaptations", "count"),
    // Process master and spawn.
    ("proc.compile_s", "s"),
    ("proc.execute_s", "s"),
    ("proc.spawn_s", "s"),
    ("proc.calibration_s", "s"),
    ("proc.unattributed_s", "s"),
    ("proc.requeued", "count"),
    ("proc.nodes_lost", "count"),
    // Worker kernel.
    ("proc.kernel_floor_s", "s"),
    ("workloads.matmul.inputs_s", "s"),
    ("workloads.matmul.multiply_s", "s"),
    // Wire and transport.
    ("proc.wire_write_s", "s"),
    ("proc.wire_encode_s", "s"),
    ("proc.wire_bytes", "B"),
    ("proc.bytes_copied_per_unit", "B"),
    ("core.wire.encode_ns", "ns"),
    ("core.wire.decode_ns", "ns"),
    ("core.transport.pipe_rtt_us", "us"),
    ("core.transport.shm_rtt_us", "us"),
    // Service.
    ("service.job_p50_s", "s"),
    ("service.job_p99_s", "s"),
    ("service.submit_p50_us", "us"),
    ("service.submit_p99_us", "us"),
    ("service.exec_p50_s", "s"),
    ("service.wait_p50_s", "s"),
    ("service.rounds", "count"),
    ("service.jobs_per_round", "ratio"),
    ("service.profile_hit_ratio", "ratio"),
    ("service.backlog_max", "count"),
    ("service.rejected", "count"),
    ("service.demotions", "count"),
    ("service.recalibrations", "count"),
    ("service.steals_completed", "count"),
    ("service.admission.push_pop_ns", "ns"),
    ("service.generator_late_p99_s", "s"),
    // Simulated grid.
    ("sim.compile_s", "s"),
    ("sim.execute_s", "s"),
    ("sim.calibrate_s", "s"),
    ("gridsim.event_queue_ns", "ns"),
    ("gridsim.grid_build_s", "s"),
    ("sim.virtual_makespan_s", "s"),
    ("sim.requeued", "count"),
    ("sim.nodes_lost", "count"),
    // Harness.
    ("trace.overhead_frac", "ratio"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(STREAM_END_TO_END)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Measured metric values with the number of samples behind each.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64, usize)>,
}

impl Metrics {
    /// Record `name` (which must be a metric of [`END_TO_END`] or
    /// [`PER_LAYER`]) measured over `samples` samples; a later value
    /// replaces an earlier one.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, samples));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entry(name).map(|(v, _)| v)
    }

    /// `(value, samples)` of `name`, if recorded.
    pub fn entry(&self, name: &str) -> Option<(f64, usize)> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, s)| (*v, *s))
    }

    /// Take over every value of `other` that this set does not hold yet.
    pub fn fill_from(&mut self, other: Metrics) {
        for (n, v, s) in other.values {
            if self.get(n).is_none() {
                self.values.push((n, v, s));
            }
        }
    }
}

/// Job accounting of one run: what was attempted, what failed, and why.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed, were rejected, or produced a wrong output.
    pub failed: u64,
    /// Wrong outputs (the run is incorrect if any), one line each.
    pub wrong: Vec<String>,
}

impl Tally {
    /// Account one job: `Ok` is a good output, `Err` a failure.
    pub fn job(&mut self, result: Result<(), JobError>) {
        self.attempted += 1;
        match result {
            Ok(()) => {}
            Err(JobError::Failed(_)) => self.failed += 1,
            Err(JobError::Wrong(why)) => {
                self.failed += 1;
                if self.wrong.len() < 8 {
                    self.wrong.push(why);
                }
            }
        }
    }

    /// Add another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
    }

    /// Failed jobs over attempted jobs.
    pub fn error_rate(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Why a job did not count as a good output.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The program returned an error or refused the job.
    Failed(String),
    /// The program returned an output that fails its check.
    Wrong(String),
}

/// What one run asks for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Where the trace file and temporary files go.
    pub out_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Job accounting.
    pub tally: Tally,
    /// Measured metrics.
    pub metrics: Metrics,
}

/// A measurement window: the time left until a fixed instant.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    end: Instant,
}

impl Window {
    /// A window closing `seconds` from now.
    pub fn new(seconds: f64) -> Self {
        Window {
            end: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    /// Whether the window has closed.
    pub fn closed(&self) -> bool {
        Instant::now() >= self.end
    }
}

/// A seed derived from `seed` for stream `stream` (SplitMix64), so each
/// input of a workload draws from its own reproducible sequence.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one workload as `cfg` asks, recording spans into `trace`.
pub fn run(cfg: &RunConfig, trace: &mut SpanBuf) -> Result<RunReport, String> {
    let mut report = match cfg.workload.as_str() {
        "farm-threads" => farm_threads::run(cfg, trace),
        "farm-proc" => farm_proc::run(cfg, trace),
        "service-stream" => service_stream::run(cfg, trace),
        "grid-sim" => grid_sim::run(cfg, trace),
        other => return Err(format!("unknown workload {other:?}")),
    }?;
    if cfg.traced {
        // Every traced run reports every layer: the layers this workload
        // does not drive are measured on one short session of their home
        // workload, then the layer probes run.
        for other in WORKLOADS.iter().filter(|w| **w != cfg.workload) {
            let layers = match *other {
                "farm-threads" => farm_threads::companion(cfg, trace),
                "farm-proc" => farm_proc::companion(cfg, trace),
                "service-stream" => service_stream::companion(cfg, trace),
                _ => grid_sim::companion(cfg, trace),
            }?;
            report.tally.absorb(layers.tally);
            report.metrics.fill_from(layers.metrics);
        }
        report.metrics.fill_from(probes::run(cfg, trace)?);
    } else {
        report.metrics.set("peak_rss_mb", stats::peak_rss_mb(), 1);
    }
    Ok(report)
}
