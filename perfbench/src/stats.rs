//! Order statistics and process accounting.

/// The reported latency tail. A tail is only reported where at least
/// [`MIN_BEYOND`] samples lie beyond it (see [`samples_beyond`]).
pub const TAIL_QUANTILE: f64 = 0.9;

/// Samples a reported tail must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sorted copy of finite samples.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sorted(values)[rank(values.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank quantile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Peak resident set, in MiB, of the largest child process this process
/// has reaped so far (`getrusage(RUSAGE_CHILDREN).ru_maxrss`). In-process
/// work of the benchmark itself is not included.
pub fn peak_child_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of the 64-bit Linux `struct rusage`
    // and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
    }

    #[test]
    fn the_reported_tail_has_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, TAIL_QUANTILE), 10);
        assert!(samples_beyond(99, TAIL_QUANTILE) < MIN_BEYOND);
        // The serving workload's fixed request plan must support its tail.
        let n = crate::workloads::SERVE_FRESH;
        assert!(n >= 100, "serve-small needs at least 100 latency samples");
        assert!(
            samples_beyond(n, TAIL_QUANTILE) >= MIN_BEYOND,
            "serve-small issues too few requests for a p90"
        );
        // Counted on distinct samples in shuffled order.
        let values: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64).collect();
        let tail = quantile(&values, TAIL_QUANTILE);
        let beyond = values.iter().filter(|&&v| v > tail).count();
        assert!(beyond >= MIN_BEYOND, "{beyond} samples beyond p90");
    }

    #[test]
    fn child_rss_is_reported() {
        std::process::Command::new("true").status().unwrap();
        assert!(peak_child_rss_mb() > 0.0);
    }
}
