//! Order statistics and process measurements shared by every workload.

/// The `q`-quantile (`q` in `[0, 1]`) of `values` by linear interpolation
/// between the two nearest ranks.  `values` need not be sorted; an empty
/// slice has no quantile.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak resident set size (`VmHWM`) from the current resident
/// size, so memory the benchmark used for its own inputs and references
/// before the measured loop does not count.  Where `/proc/self/clear_refs`
/// cannot be written the peak keeps counting from process start.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("grasp-benchmark: peak RSS not reset ({e}); peak_rss_mb includes set-up");
    }
}

/// Seconds of one call of `build`, from `calls` calls timed as a whole so
/// that timer and allocator jitter of a short set-up averages out, and the
/// last build.  Each call's build replaces the one before it, so the
/// previous build's drop is inside the timing and the heap does not grow.
pub fn setup_batch<T>(calls: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let calls = calls.max(1);
    let t0 = std::time::Instant::now();
    let mut last = build();
    for _ in 1..calls {
        last = build();
    }
    (last, t0.elapsed().as_secs_f64() / calls as f64)
}

/// Time `reps` calls of `f` and return the median wall seconds of one call.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }
}
