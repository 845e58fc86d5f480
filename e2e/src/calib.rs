//! How fast the host is right now, measured beside every repetition.
//!
//! The evaluation host is a guest on a shared machine whose speed changes
//! for minutes at a time (stolen time, a neighbour on the sibling
//! hyper-thread): whole 15-second runs of one commit read 1.1–1.4× their
//! neighbours, and no statistic of a run's repetitions removes what all of
//! them share (README.md, "Noise"). So each repetition is preceded by a
//! fixed piece of work that uses nothing of the repository — two threads
//! handing a flag back and forth through `park`/`unpark`, which is a futex
//! wait, a wake-up and a context switch each way, the same primitives every
//! wait in the runtime is made of — and a run's times are divided by how
//! much slower than [`REFERENCE_S`] the fastest of those was.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};
use std::time::Instant;

/// Round trips of one calibration: about 1.6 ms, 0.4–4 % of a repetition.
const ROUND_TRIPS: u32 = 1000;

/// The fastest calibration on the development host when nothing disturbs
/// it (1.553–1.563 ms in forty runs). Only a scale: it makes a normalised
/// time read as seconds on that host; comparisons do not depend on it.
pub const REFERENCE_S: f64 = 1.56e-3;

const IDLE: u32 = 0;
const PING: u32 = 1;
const QUIT: u32 = 2;

/// The partner thread of the calibration, parked between calibrations.
pub struct PingPong {
    flag: Arc<AtomicU32>,
    partner: Thread,
    handle: Option<JoinHandle<()>>,
}

impl PingPong {
    /// Starts the partner. It inherits the caller's processor mask, so
    /// under `pin::confine_to_one_cpu` both ends share the one processor,
    /// as the runtime's threads do.
    pub fn start() -> PingPong {
        let flag = Arc::new(AtomicU32::new(IDLE));
        let (theirs, caller) = (Arc::clone(&flag), thread::current());
        let handle = thread::spawn(move || loop {
            match theirs.load(Ordering::Acquire) {
                PING => {
                    theirs.store(IDLE, Ordering::Release);
                    caller.unpark();
                }
                QUIT => return,
                _ => thread::park(),
            }
        });
        PingPong {
            flag,
            partner: handle.thread().clone(),
            handle: Some(handle),
        }
    }

    /// Seconds [`ROUND_TRIPS`] hand-offs take right now. Call it from the
    /// thread that called [`PingPong::start`].
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..ROUND_TRIPS {
            self.flag.store(PING, Ordering::Release);
            self.partner.unpark();
            while self.flag.load(Ordering::Acquire) != IDLE {
                thread::park();
            }
        }
        t.elapsed().as_secs_f64()
    }
}

impl Drop for PingPong {
    fn drop(&mut self) {
        self.flag.store(QUIT, Ordering::Release);
        self.partner.unpark();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// How many times slower than the reference the host ran while `samples`
/// (one [`PingPong::time`] before each repetition, not empty) were taken.
/// From the fastest sample, for the reason a run's times come from its
/// fastest repetition: the host only ever adds.
pub fn host_factor(samples: &[f64]) -> f64 {
    crate::stats::least(samples) / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_partner_answers_every_ping_and_leaves_when_dropped() {
        let pp = PingPong::start();
        let (a, b) = (pp.time(), pp.time());
        assert!(a > 0.0 && b > 0.0);
        assert_eq!(pp.flag.load(Ordering::Acquire), IDLE);
        drop(pp); // joins the partner: hangs here if it does not quit
    }

    #[test]
    fn the_factor_is_the_fastest_sample_over_the_reference() {
        let f = host_factor(&[3.0 * REFERENCE_S, 1.5 * REFERENCE_S, 2.0 * REFERENCE_S]);
        assert!((f - 1.5).abs() < 1e-12, "{f}");
    }
}
