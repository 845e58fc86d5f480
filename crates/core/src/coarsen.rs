//! Adaptive coarsening (§3.1).
//!
//! Coarsening merges consecutive global-coordination phases: a thread keeps
//! the global token across synchronization operations and defers its commit,
//! eliminating the per-operation coordination cost at the price of blocking
//! every other thread's synchronization for the duration.
//!
//! Two predictors drive the decision, both exponentially weighted moving
//! averages of past chunk lengths:
//!
//! * a **per-lock** estimate of the critical-section length, consulted when
//!   deciding to coarsen *across* a lock operation;
//! * a **per-thread** estimate of the chunk following an unlock, consulted
//!   when deciding to coarsen across an unlock.
//!
//! The maximum coarsened-chunk length adapts by **multiplicative increase /
//! multiplicative decrease**: when a thread enters global coordination and
//! the *previous* entrant was itself, it doubles its budget (it has the
//! system to itself); when someone else got there in between, it halves it
//! (others are being blocked). All inputs — chunk lengths and token order —
//! are deterministic, so the decisions are too.

/// Initial adaptive maximum coarsened-chunk length, in instructions.
pub const INITIAL_BUDGET: u64 = 32_768;
/// Lower bound for the adaptive maximum chunk length.
pub const MIN_BUDGET: u64 = 16_384;
/// Upper bound for the adaptive maximum chunk length.
pub const BUDGET_CAP: u64 = 4 << 20;

/// EWMA with α = 1/2: `est ← (est + sample) / 2`.
///
/// The halving average needs no floating point, keeping every coarsening
/// decision exactly reproducible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ewma(u64);

impl Ewma {
    /// Current estimate.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Folds in a new sample. `(est & s) + ((est ^ s) >> 1)` is the
    /// overflow-safe form of `(est + s) / 2` (shared bits plus half the
    /// differing bits), exact for all inputs including those whose sum
    /// exceeds `u64::MAX`.
    pub fn update(&mut self, sample: u64) {
        self.0 = (self.0 & sample) + ((self.0 ^ sample) >> 1);
    }
}

/// Per-thread coarsening state.
#[derive(Clone, Debug)]
pub struct CoarsenState {
    /// Adaptive maximum coarsened-chunk length (instructions).
    max_chunk: u64,
    min: u64,
    cap: u64,
    /// Fixed budget override (Figure 14 static sweep).
    fixed: Option<u64>,
    /// EWMA of the chunk length following an unlock.
    pub thread_est: Ewma,
}

impl CoarsenState {
    /// Creates the adaptive state with the configured bounds, or a fixed
    /// budget if `fixed` is set.
    pub fn new(initial: u64, min: u64, cap: u64, fixed: Option<u64>) -> CoarsenState {
        CoarsenState {
            max_chunk: initial.clamp(min, cap),
            min,
            cap,
            fixed,
            thread_est: Ewma::default(),
        }
    }

    /// Current budget in instructions.
    pub fn budget(&self) -> u64 {
        self.fixed.unwrap_or(self.max_chunk)
    }

    /// Multiplicative increase/decrease on entering global coordination:
    /// `same_thread` is whether this thread was also the previous entrant.
    pub fn adapt(&mut self, same_thread: bool) {
        if self.fixed.is_some() {
            return;
        }
        if same_thread {
            // Saturating: with `cap` near `u64::MAX` the doubling must not
            // wrap around to a tiny budget.
            self.max_chunk = self.max_chunk.saturating_mul(2).min(self.cap);
        } else {
            // Widen through u128 so `max_chunk * 3` cannot overflow while
            // keeping the exact `⌊3m/4⌋` the figures were calibrated with.
            self.max_chunk = ((self.max_chunk as u128 * 3 / 4) as u64).max(self.min);
        }
    }

    /// Whether to keep the token across the next chunk: the instructions
    /// consumed since the token was acquired plus the predicted next chunk
    /// must fit in the budget.
    pub fn should_retain(&self, consumed: u64, predicted_next: u64) -> bool {
        consumed.saturating_add(predicted_next) <= self.budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_halfway() {
        let mut e = Ewma::default();
        e.update(100);
        assert_eq!(e.get(), 50);
        e.update(100);
        assert_eq!(e.get(), 75);
        for _ in 0..20 {
            e.update(100);
        }
        assert!(e.get() >= 98);
    }

    #[test]
    fn adapt_doubles_and_halves_within_bounds() {
        let mut c = CoarsenState::new(1_000, 100, 4_000, None);
        c.adapt(true);
        assert_eq!(c.budget(), 2_000);
        c.adapt(true);
        c.adapt(true);
        assert_eq!(c.budget(), 4_000, "capped");
        c.adapt(false);
        assert_eq!(c.budget(), 3_000, "multiplicative decrease is gentler");
        for _ in 0..20 {
            c.adapt(false);
        }
        assert_eq!(c.budget(), 100, "floored");
    }

    #[test]
    fn fixed_budget_never_adapts() {
        let mut c = CoarsenState::new(1_000, 100, 4_000, Some(777));
        c.adapt(true);
        c.adapt(false);
        assert_eq!(c.budget(), 777);
    }

    #[test]
    fn retain_respects_budget() {
        let c = CoarsenState::new(1_000, 100, 4_000, None);
        assert!(c.should_retain(400, 500));
        assert!(c.should_retain(500, 500));
        assert!(!c.should_retain(600, 500));
        assert!(!c.should_retain(u64::MAX, 1), "no overflow");
    }

    #[test]
    fn initial_budget_is_clamped() {
        let c = CoarsenState::new(10, 100, 4_000, None);
        assert_eq!(c.budget(), 100);
        let c = CoarsenState::new(1 << 40, 100, 4_000, None);
        assert_eq!(c.budget(), 4_000);
    }
}
