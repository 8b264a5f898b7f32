//! In-memory span recorder and Chrome trace-event writer.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! program's public functions; nothing is written until the run ends.  The
//! output is the Chrome trace-event format (`{"traceEvents": [...]}` with
//! `name`, `cat`, `ph`, `ts`, `dur`, `pid`, `tid`), readable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.  Spans that belong to
//! one job carry the same `args.job` identifier; spans nest by time on a
//! thread, so a span's parent is the enclosing span on the same `tid`.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One trace event: a complete span (`ph: "X"`) or an instant (`ph: "i"`).
#[derive(Debug, Clone)]
struct Event {
    name: Cow<'static, str>,
    cat: &'static str,
    instant: bool,
    ts_us: f64,
    dur_us: f64,
    tid: u32,
    job: Option<u64>,
}

/// A per-thread span buffer.  A disabled buffer records nothing, so the
/// untraced runs share the measurement code without paying for spans.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    events: Vec<Event>,
    thread_names: Vec<(u32, String)>,
}

impl SpanBuf {
    /// A buffer for thread `tid`, timestamps relative to `epoch`.
    pub fn new(epoch: Instant, tid: u32, name: &str, enabled: bool) -> Self {
        SpanBuf {
            epoch,
            tid,
            enabled,
            events: Vec::new(),
            thread_names: vec![(tid, name.to_string())],
        }
    }

    /// A sibling buffer for another thread of the same run.
    pub fn child(&self, tid: u32, name: &str) -> SpanBuf {
        SpanBuf::new(self.epoch, tid, name, self.enabled)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span from `start` to `end`.
    pub fn span(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        start: Instant,
        end: Instant,
        job: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let ts_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.events.push(Event {
            name: name.into(),
            cat,
            instant: false,
            ts_us,
            dur_us,
            tid: self.tid,
            job,
        });
    }

    /// Record an instant event at `at`.
    pub fn instant(&mut self, name: impl Into<Cow<'static, str>>, cat: &'static str, at: Instant) {
        if !self.enabled {
            return;
        }
        let ts_us = at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.events.push(Event {
            name: name.into(),
            cat,
            instant: true,
            ts_us,
            dur_us: 0.0,
            tid: self.tid,
            job: None,
        });
    }

    /// Run `f` inside a span and return its result with the wall seconds it
    /// took (timed whether or not the buffer records).
    pub fn time<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, cat, start, end, None);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Take over another thread's events.
    pub fn merge(&mut self, other: SpanBuf) {
        self.events.extend(other.events);
        for named in other.thread_names {
            if !self.thread_names.iter().any(|(t, _)| *t == named.0) {
                self.thread_names.push(named);
            }
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the events as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (tid, name) in &self.thread_names {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            );
        }
        for e in &self.events {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},",
                escape(&e.name),
                e.cat,
                if e.instant { "i" } else { "X" },
                e.ts_us
            );
            if e.instant {
                out.push_str("\"s\":\"t\",");
            } else {
                let _ = write!(out, "\"dur\":{:.3},", e.dur_us);
            }
            let _ = write!(out, "\"pid\":1,\"tid\":{}", e.tid);
            if let Some(job) = e.job {
                let _ = write!(out, ",\"args\":{{\"job\":{job}}}");
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write the events to `path` as Chrome trace-event JSON, creating the
    /// parent directory.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome_json())
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffers_record_nothing_but_still_time() {
        let mut buf = SpanBuf::new(Instant::now(), 0, "main", false);
        let (v, secs) = buf.time("x", "test", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(buf.is_empty());
    }

    #[test]
    fn chrome_json_carries_spans_instants_and_thread_names() {
        let epoch = Instant::now();
        let mut buf = SpanBuf::new(epoch, 0, "main", true);
        buf.span("job", "grasp", epoch, Instant::now(), Some(3));
        let mut other = buf.child(1, "collector");
        other.instant("done", "grasp", Instant::now());
        buf.merge(other);
        let json = buf.to_chrome_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"args\":{\"job\":3}"));
        assert!(json.contains("\"name\":\"collector\""));
        assert_eq!(buf.len(), 2);
    }
}
