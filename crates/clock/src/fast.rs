//! The table's answers on the token's fast path, pinned on small tables:
//! the successor a release wakes, the crossing a counter-overflow
//! publication reports, a dead waiter leaving the head, and a history that
//! stays bounded under a publication stream.
//!
//! These tests first held of the lock-free table kind, which was deleted;
//! the one table, with publication under the runtime lock, answers them the
//! same way.

#[cfg(test)]
mod tests {
    use dmt_api::Tid;

    use crate::table::{OrderPolicy, SchedTable, PRUNE_MIN};

    fn ic(capacity: usize) -> SchedTable {
        SchedTable::with_policy(OrderPolicy::InstructionCount, capacity)
    }

    #[test]
    fn fast_table_basic_eligibility_matches_gmic() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(0), 50, 0);
        t.arrive_sync(Tid(1), 40, 0);
        assert!(!t.eligible(Tid(0)));
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.min_waiting_other(Tid(0)), Some((40, 1)));
    }

    #[test]
    fn crossing_is_reported_once_per_head_key_per_publisher() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        // Below the head's key: no crossing yet. (50, 0) still orders before
        // (50, 1).
        assert!(!t.publish(Tid(0), 40, 1));
        assert!(!t.publish(Tid(0), 50, 1));
        // T0 crosses. The report says that and nothing more: T2 (published 0)
        // still blocks the head.
        assert!(t.publish(Tid(0), 60, 1));
        assert!(!t.eligible(Tid(1)));
        // Once per publisher: T0 is past the key for good.
        assert!(!t.publish(Tid(0), 70, 1));
        // T2 crosses last, and now the head is the successor.
        assert!(t.publish(Tid(2), 51, 1));
        assert!(!t.publish(Tid(2), 52, 1));
        assert_eq!(t.successor(), Some(Tid(1)));
        // Per head key: T1 runs and waits again at a later clock, and both
        // publishers cross the new key once more.
        t.resume(Tid(1), 50, 2);
        t.arrive_sync(Tid(1), 100, 3);
        assert!(!t.publish(Tid(0), 99, 4));
        assert!(t.publish(Tid(0), 101, 4));
        assert!(t.publish(Tid(2), 200, 4));
        assert!(!t.publish(Tid(0), 300, 4));
    }

    #[test]
    fn crossing_is_never_reported_for_the_heads_own_publication() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        assert_eq!(t.min_waiting_other(Tid(0)), Some((50, 1)));
        // Only a running thread publishes, so the head runs again first: its
        // own stream past the key it waited at unblocks nobody.
        t.resume(Tid(1), 50, 1);
        assert!(!t.publish(Tid(1), 60, 2));
        // Nor is there anything to cross with nobody waiting.
        assert_eq!(t.min_waiting_other(Tid(0)), None);
        assert!(!t.publish(Tid(0), 70, 3));
    }

    #[test]
    fn successor_is_the_eligible_head_waiter() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 70, 0);
        t.arrive_sync(Tid(2), 30, 0);
        // T0 still running at clock 0: nobody is eligible yet.
        assert_eq!(t.successor(), None);
        t.publish(Tid(0), 100, 1);
        assert_eq!(t.successor(), Some(Tid(2)));
        // T2 resumes at clock 30: still below T1's (70, 1), so it blocks the
        // new head until it runs past it.
        t.resume(Tid(2), 30, 2);
        assert_eq!(t.successor(), None);
        t.publish(Tid(2), 90, 3);
        assert_eq!(t.successor(), Some(Tid(1)));
    }

    #[test]
    fn departed_and_finished_threads_unblock_waiters() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        assert!(!t.eligible(Tid(1)));
        t.depart(Tid(0), 10);
        assert!(!t.eligible(Tid(1)));
        t.finish(Tid(2), 11);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 11);
        // Reactivation at a low clock blocks the waiter again.
        t.reactivate(Tid(0), 10, 12);
        assert!(!t.eligible(Tid(1)));
    }

    #[test]
    fn sched_table_reference_names_the_eligible_head_waiter() {
        let mut t = ic(2);
        t.register(Tid(0), 0, 0);
        t.arrive_sync(Tid(0), 1, 0);
        assert!(t.eligible(Tid(0)));
        assert_eq!(t.successor(), Some(Tid(0)));
    }

    #[test]
    fn fast_round_robin_takes_turns() {
        let mut t = SchedTable::with_policy(OrderPolicy::RoundRobin, 4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 10, 0);
        t.arrive_sync(Tid(0), 99, 0);
        assert!(t.eligible(Tid(0)));
        assert!(!t.eligible(Tid(1)));
        assert_eq!(t.successor(), Some(Tid(0)));
        t.rr_advance(5);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.rr_turn_v(), 5);
    }

    #[test]
    fn dead_waiter_is_removed_from_queue_on_finish() {
        // Regression (waiter-queue leak): a thread that dies while queued
        // AtSync must stop being the head waiter, or the GMIC successor
        // computation would select a dead thread forever.
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        t.arrive_sync(Tid(2), 70, 1);
        // T1 (the head waiter) dies while queued.
        t.finish(Tid(1), 5);
        assert_eq!(
            t.min_waiting_other(Tid(0)),
            Some((70, 2)),
            "head moves to T2"
        );
        t.publish(Tid(0), 100, 6);
        assert_eq!(t.successor(), Some(Tid(2)), "dead thread must be skipped");
        assert!(t.eligible(Tid(2)));
    }

    #[test]
    fn dead_waiter_is_removed_from_queue_on_depart() {
        // Same leak class via the depart path (a queued thread pulled off to
        // block on a lock hand-off, then never re-queued).
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        assert_eq!(t.min_waiting_other(Tid(0)), Some((50, 1)));
        t.depart(Tid(1), 2);
        assert_eq!(t.min_waiting_other(Tid(0)), None);
        assert_eq!(t.successor(), None);
    }

    /// Two publishers interleave their streams while a peer syncs just behind
    /// them: every history stays bounded, and the last crossing is still found.
    #[test]
    fn fast_history_stays_bounded_under_publication() {
        let mut t = ic(3);
        for i in 0..3 {
            t.register(Tid(i), 0, 0);
        }
        for i in 1..=50_000u64 {
            t.publish(Tid(0), i + 1, 2 * i);
            t.publish(Tid(2), i, 2 * i + 1);
            if i % 64 == 0 {
                t.arrive_sync(Tid(1), i - 1, 2 * i + 1);
                assert!(t.eligible(Tid(1)));
                t.resume(Tid(1), i - 1, 2 * i + 1);
            }
            assert!(
                t.max_history_len() < 4 * PRUNE_MIN,
                "history unbounded at {i}"
            );
        }
        t.arrive_sync(Tid(1), 49_999, 100_002);
        assert!(t.eligible(Tid(1)));
        // T0 crossed (49 999, 1) publishing 50 000 at v = 99 998; T2, ordered
        // after T1 at equal clocks, publishing 49 999 at v = 99 999.
        assert_eq!(t.crossing_v(Tid(1), 49_999), 99_999);
    }
}
