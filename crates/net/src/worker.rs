//! The worker side of the socket backend.
//!
//! A network worker is symmetric to the process backend's pipe worker — the
//! same [`grasp_proc::worker::Kernels`] dispatch behind the same frame
//! protocol — but its membership is *negotiated* rather than implied by a
//! spawn:
//!
//! 1. connect to the master's endpoint and send [`WireMsg::Join`] (pid,
//!    wire version, capability mask);
//! 2. receive [`WireMsg::Welcome`] (assigned worker id, heartbeat cadence,
//!    spin scale) — or [`WireMsg::Shutdown`] / EOF when the master rejects
//!    the registration;
//! 3. serve [`WireMsg::Task`] frames (the master may lead with calibration
//!    probes before real units when the worker joined mid-run);
//! 4. optionally announce [`WireMsg::Goodbye`] to leave gracefully: the
//!    master stops handing it new units, the worker finishes what is on its
//!    wire, and the master's [`WireMsg::Shutdown`] releases it;
//! 5. exit on [`WireMsg::Shutdown`] or a clean EOF.
//!
//! The kernel state lives as long as the connection: a worker that serves
//! several bands of one mat-mul job generates its inputs once.

use grasp_core::transport::{tcp_connect, FrameSink, FramedConnection};
use grasp_core::wire::{FrameView, WireMsg, CAP_ALL, WIRE_VERSION};
use grasp_proc::worker::Kernels;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a worker presents itself and when (if ever) it leaves voluntarily.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Capability bitmask advertised in the Join frame ([`CAP_ALL`] for the
    /// stock worker; tests narrow it to exercise rejection).
    pub capabilities: u32,
    /// Wire version claimed in the Join frame (the real [`WIRE_VERSION`];
    /// tests bend it to exercise rejection).
    pub wire_version: u32,
    /// Leave gracefully after this many served tasks: the worker sends
    /// [`WireMsg::Goodbye`], keeps serving the tasks already on its wire,
    /// and exits when the master's drain completes.
    pub leave_after: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            capabilities: CAP_ALL,
            wire_version: WIRE_VERSION as u32,
            leave_after: None,
        }
    }
}

type SharedSink = Arc<Mutex<Box<dyn FrameSink>>>;

fn send(sink: &SharedSink, msg: &WireMsg) -> bool {
    let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
    sink.send(msg).is_ok()
}

/// Run the worker protocol over an established connection until the master
/// releases it; returns the process exit code (0 = clean, 2 = protocol
/// breach).  Transport-agnostic: the TCP binary and the loopback tests both
/// land here.
pub fn run_connection(conn: FramedConnection, opts: WorkerOptions) -> i32 {
    let (sink, mut source) = conn.split();
    let sink: SharedSink = Arc::new(Mutex::new(sink));
    let stop = Arc::new(AtomicBool::new(false));
    // Make sure the heartbeat thread winds down on every exit path.
    struct StopOnExit(Arc<AtomicBool>);
    impl Drop for StopOnExit {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let _stop_guard = StopOnExit(Arc::clone(&stop));

    if !send(
        &sink,
        &WireMsg::Join {
            pid: std::process::id() as u64,
            wire_version: opts.wire_version,
            capabilities: opts.capabilities,
        },
    ) {
        eprintln!("grasp-net-worker: could not reach the master");
        return 2;
    }
    let (heartbeat_interval_s, mut kernels) = match source.recv() {
        Ok(Some(WireMsg::Welcome {
            heartbeat_interval_s,
            spin_per_work_unit,
            ..
        })) => (heartbeat_interval_s, Kernels::new(spin_per_work_unit)),
        // A rejection (version/capability mismatch) is answered with
        // Shutdown or a plain close: not this worker's error.
        Ok(Some(WireMsg::Shutdown)) | Ok(None) => return 0,
        Ok(Some(other)) => {
            eprintln!("grasp-net-worker: expected Welcome, got {other:?}");
            return 2;
        }
        Err(e) => {
            eprintln!("grasp-net-worker: {e}");
            return 2;
        }
    };
    if heartbeat_interval_s > 0.0 {
        let out = Arc::clone(&sink);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_secs_f64(heartbeat_interval_s));
                if stop.load(Ordering::Relaxed) || !send(&out, &WireMsg::Heartbeat) {
                    break;
                }
            }
        });
    }
    let mut served = 0usize;
    let mut said_goodbye = false;
    loop {
        // Tasks come off the wire as borrowed views: payload bytes are
        // executed straight out of the source's reused read buffer.
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
                eprintln!("grasp-net-worker: unexpected frame {other:?}");
                return 2;
            }
            Err(e) => {
                eprintln!("grasp-net-worker: {e}");
                return 2;
            }
        };
        {
            if !send(&sink, &reply) {
                return 0; // master gone; nothing left to serve
            }
            served += 1;
            if let Some(after) = opts.leave_after {
                if !said_goodbye && served >= after {
                    said_goodbye = true;
                    // Announce the leave; the master drains this
                    // worker's window and answers with Shutdown.
                    if !send(
                        &sink,
                        &WireMsg::Goodbye {
                            reason: format!("leaving voluntarily after {served} tasks"),
                        },
                    ) {
                        return 0;
                    }
                }
            }
        }
    }
}

/// Connect to a master at `addr` (retrying briefly while it binds) and run
/// the worker protocol; the body of the `grasp-net-worker` binary.
pub fn run_tcp(addr: &str, opts: WorkerOptions) -> i32 {
    let mut last_err = None;
    for _ in 0..50 {
        match tcp_connect(addr) {
            Ok(conn) => return run_connection(conn, opts),
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    eprintln!(
        "grasp-net-worker: master at {addr} unreachable: {}",
        last_err.map(|e| e.to_string()).unwrap_or_default()
    );
    2
}
