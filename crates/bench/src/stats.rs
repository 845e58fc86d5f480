//! Summary statistics over repeated measurements.
//!
//! `bench sched` repeats wall-clock measurements and reports a
//! [`Summary`] per cell instead of a single noisy sample. The math is
//! deliberately plain — arithmetic mean and *population* standard
//! deviation — and pinned by unit tests. ROADMAP item 8(ii) keeps one of
//! this and `e2e/src/stats.rs`.

crate::json_record! {
    /// Mean / min / max / standard deviation of a sample set.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct Summary {
        /// Number of samples.
        pub n: usize,
        /// Arithmetic mean.
        pub mean: f64,
        /// Smallest sample.
        pub min: f64,
        /// Largest sample.
        pub max: f64,
        /// Population standard deviation (√(Σ(x-mean)²/n)).
        pub stddev: f64,
    }
}

impl Summary {
    /// Summarizes `samples`. An empty slice yields the all-zero summary.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        Summary {
            n,
            mean,
            min,
            max,
            stddev: var.sqrt(),
        }
    }

    /// Summarizes integer samples (convenience for cycle/page counts).
    pub fn of_u64(samples: &[u64]) -> Summary {
        let f: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Summary::of(&f)
    }

    /// Relative spread `stddev / mean`, or 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_math_is_pinned_against_fixed_inputs() {
        // Hand-computed: mean = 5, min = 2, max = 9,
        // variance = ((2-5)² + (4-5)² + (9-5)²) / 3 = (9+1+16)/3 = 26/3.
        let s = Summary::of(&[2.0, 4.0, 9.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.stddev - (26.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn constant_samples_have_zero_spread() {
        let s = Summary::of(&[7.0; 5]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn empty_input_yields_zero_summary() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn u64_samples_match_f64_path() {
        assert_eq!(Summary::of_u64(&[2, 4, 9]), Summary::of(&[2.0, 4.0, 9.0]));
    }

    #[test]
    fn summary_serializes_as_json_object() {
        use crate::json::ToJson;
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(
            s.to_json(),
            r#"{"n":2,"mean":2,"min":1,"max":3,"stddev":1}"#
        );
    }
}
