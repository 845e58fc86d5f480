//! Order statistics over repetitions, and process CPU time.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one rep.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The smallest of `v`, which the caller guarantees is not empty: the
/// repetition the host disturbed least. On one processor everything the
/// host does to a repetition — stolen time, a neighbour's cache traffic —
/// adds to its time and nothing subtracts, so the least of some dozens of
/// repetitions repeats from run to run where their median follows the
/// host (README.md, "Noise").
pub fn least(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(v, n=4)` (exclusive method) so that a spread
/// computed here reads the same as one computed by an outside driver.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0).
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The value at the highest percentile that still has at least ten
/// samples beyond it (percentile `(n - 10) / n`). With too few samples for
/// any percentile above the median to qualify, the median itself.
pub fn tail(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n < 21 {
        return median(v);
    }
    // s[n - 11] has exactly ten samples above it.
    s[n - 11]
}

// std links the C library on every Linux target. `timespec` is two
// 64-bit integers on every 64-bit Linux.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
}
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process (all threads, living and
/// exited) has used so far, to the nanosecond: the 10 ms ticks of
/// `/proc/self/stat` are a quarter of one `compute_bound` repetition.
pub fn process_cpu_s() -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a writable `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "read the process CPU clock");
    ts[0] as f64 + ts[1] as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn least_of_any_order() {
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(least(&v), 1.0);
        assert_eq!(least(&[9.0, 7.0, 8.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(iqr_share(&v), 1.0);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), 10.5);
        // 21 samples: the 11th from the top is the first value with ten
        // samples beyond it.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v), 11.0);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), 990.0);
    }

    #[test]
    fn the_process_cpu_clock_counts_every_thread() {
        let spin = || {
            let t = std::time::Instant::now();
            while t.elapsed().as_millis() < 20 {
                std::hint::spin_loop();
            }
        };
        let before = process_cpu_s();
        std::thread::spawn(spin).join().unwrap();
        spin();
        let used = process_cpu_s() - before;
        // Two threads spun for 20 ms of wall time each; a host that
        // preempts them makes the CPU share of that smaller, not zero.
        assert!(used > 0.004, "{used}");
    }
}
