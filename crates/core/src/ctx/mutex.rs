//! Deterministic mutexes (§4.1, Figures 7 and 9).

use dmt_api::trace::Event;
use dmt_api::{DmtError, DmtResult, MutexId, PanicSite};

use super::token::ParkOrder;
use super::{tenure, Ctx};
use crate::shared::Inner;

impl Ctx<'_> {
    pub(super) fn resolve_mutex(&self, m: MutexId) -> MutexId {
        if self.sh.opts.single_global_lock {
            MutexId(0)
        } else {
            m
        }
    }

    /// Deterministic blocking mutex acquisition (Fig. 7) — or, with
    /// `Options::polling`, Kendo's §4.1 polling variant: on failure
    /// the thread keeps its place in the clock order by bumping its clock
    /// past the contention point and retrying, never departing.
    ///
    /// Fails deterministically when the mutex is poisoned (a previous
    /// owner panicked): the error is delivered under this thread's own
    /// token grant, so delivery order is the token-grant order.
    pub(super) fn lock_inner(&mut self, m: MutexId) -> DmtResult<()> {
        let m = self.resolve_mutex(m);
        self.maybe_inject_panic(PanicSite::Lock);
        self.sync_prologue();
        loop {
            let fresh = self.acquire_token()?;
            let mst = &mut tenure(&mut self.tenure).objs.mutexes[m.index()];
            if let Some(by) = mst.poisoned {
                // Leave cleanly: publish buffered stores (a coarsened
                // chunk may hold deferred commits) and release.
                self.commit_and_leave(true);
                return Err(DmtError::MutexPoisoned { mutex: m, by });
            }
            if mst.owner.is_none() {
                mst.owner = Some(self.tid);
                mst.cs_start_clock = self.clock;
                mst.tickets += 1;
                let ticket = mst.tickets;
                let predicted = mst.cs_est.get();
                self.led.emit(Event::MutexLock {
                    tid: self.tid,
                    mutex: m,
                    ticket,
                });
                if fresh {
                    // Fig. 7 line 6: a fresh acquisition must pull the
                    // latest committed state before the critical section.
                    // A coarsened (token-retained) one is already current:
                    // nobody else could commit meanwhile.
                    self.commit_and_update();
                }
                self.end_op(predicted);
                return Ok(());
            }
            let sh = self.sh;
            if let Some(increment) = sh.opts.polling {
                // Kendo §4.1: release the token, add the tuned increment
                // to our clock so the next-lowest thread can proceed, and
                // poll again. Progress for others is preserved, but every
                // retry costs a full token round trip — the latency the
                // paper's blocking design eliminates.
                self.leave_locked(&mut sh.lock(), false);
                let bump = increment.max(1);
                self.advance(bump, bump / 4);
                continue;
            }
            // Lock held: commit buffered writes (we may hold data of locks
            // we released inside a coarsened chunk), then queue on the
            // lock and depart (Fig. 7 lines 10-13).
            self.park(ParkOrder::CommitThenDepart, |me, _| {
                tenure(&mut me.tenure).objs.mutexes[m.index()]
                    .waiters
                    .push_back(me.tid);
                me.led.emit(Event::MutexBlock {
                    tid: me.tid,
                    mutex: m,
                });
            })?;
        }
    }

    /// Releases mutex `m`'s state and wakes its earliest waiter, if any.
    /// Caller holds the token, and the runtime lock as `inner` when the
    /// mutex has waiters: popping a queue applies the purges of threads
    /// that left quietly first. Returns whether a waiter was woken.
    pub(super) fn unlock_state(&mut self, inner: Option<&mut Inner>, m: MutexId) -> bool {
        let objs = &mut tenure(&mut self.tenure).objs;
        let mst = &mut objs.mutexes[m.index()];
        assert_eq!(
            mst.owner,
            Some(self.tid),
            "{} unlocking {m} it does not hold",
            self.tid
        );
        mst.owner = None;
        let cs_len = self.clock.saturating_sub(mst.cs_start_clock);
        mst.cs_est.update(cs_len);
        debug_assert!(inner.is_some() || mst.waiters.is_empty(), "popped unlocked");
        let woke = inner.and_then(|inner| {
            inner.purge_quiet_exits(objs);
            Some((objs.mutexes[m.index()].waiters.pop_front()?, inner))
        });
        self.led.emit(Event::MutexUnlock {
            tid: self.tid,
            mutex: m,
            woke: woke.as_ref().map(|(w, _)| *w),
        });
        let Some((w, inner)) = woke else {
            return false;
        };
        self.wake(inner, w, None);
        true
    }

    /// Deterministic mutex release (Fig. 9). Without waiters it touches
    /// only what the token carries, so a coarsened one takes no lock.
    pub(super) fn unlock_inner(&mut self, m: MutexId) {
        let m = self.resolve_mutex(m);
        self.sync_prologue();
        self.acquire_token_or_raise();
        let sh = self.sh;
        let queued = !tenure(&mut self.tenure).objs.mutexes[m.index()]
            .waiters
            .is_empty();
        let mut inner = queued.then(|| sh.lock());
        let woke = self.unlock_state(inner.as_deref_mut(), m);
        drop(inner);
        if woke {
            // A woken waiter must get a fair shot at the lock: retaining
            // the token here would let us re-acquire the lock before the
            // waiter can ever contend (a deterministic livelock).
            self.commit_and_leave(false);
        } else {
            self.end_op(self.coarsen.thread_est.get());
        }
    }
}
