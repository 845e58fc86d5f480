//! Deterministic mutexes (§4.1, Figures 7 and 9).

use dmt_api::trace::Event;
use dmt_api::{DmtError, DmtResult, MutexId, PanicSite};

use super::token::ParkOrder;
use super::Ctx;
use crate::lrc::LrcObject;
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
    /// `Options::polling_locks`, Kendo's §4.1 polling variant: on failure
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
            let sh = self.sh;
            let mut inner = sh.lock();
            if let Some(by) = inner.mutexes[m.index()].poisoned {
                drop(inner);
                // Leave cleanly: publish buffered stores (a coarsened
                // chunk may hold deferred commits) and release.
                self.commit_and_leave(true);
                return Err(DmtError::MutexPoisoned { mutex: m, by });
            }
            let mst = &mut inner.mutexes[m.index()];
            if mst.owner.is_none() {
                mst.owner = Some(self.tid);
                mst.cs_start_clock = self.clock;
                mst.tickets += 1;
                let ticket = mst.tickets;
                let predicted = mst.cs_est.get();
                self.cnt.lock_acquires += 1;
                self.sh.cfg.trace.emit(Event::MutexLock {
                    tid: self.tid,
                    mutex: m,
                    ticket,
                });
                inner.lrc_acquire(self.tid, LrcObject::Mutex(m.0));
                let held = if fresh {
                    // Fig. 7 line 6: a fresh acquisition must pull the
                    // latest committed state before the critical section.
                    drop(inner);
                    self.commit_and_update();
                    None
                } else {
                    // A coarsened (token-retained) acquisition is already
                    // current — nobody else could commit meanwhile — and
                    // ends in this section.
                    Some(inner)
                };
                self.end_op(held, predicted);
                return Ok(());
            }
            if sh.opts.polling_locks {
                // Kendo §4.1: release the token, add the tuned increment
                // to our clock so the next-lowest thread can proceed, and
                // poll again. Progress for others is preserved, but every
                // retry costs a full token round trip — the latency the
                // paper's blocking design eliminates.
                self.leave_locked(&mut inner, false);
                drop(inner);
                let bump = sh.opts.polling_increment.max(1);
                self.advance(bump, bump / 4);
                continue;
            }
            drop(inner);
            // Lock held: commit buffered writes (we may hold data of locks
            // we released inside a coarsened chunk), then queue on the
            // lock and depart (Fig. 7 lines 10-13).
            self.park(ParkOrder::CommitThenDepart, None, |me, inner| {
                inner.mutexes[m.index()].waiters.push_back(me.tid);
                me.sh.cfg.trace.emit(Event::MutexBlock {
                    tid: me.tid,
                    mutex: m,
                });
            })?;
        }
    }

    /// Releases mutex `m`'s state and wakes its earliest waiter, if any.
    /// Caller holds the token and the runtime lock. Returns whether a
    /// waiter was woken.
    pub(super) fn unlock_state(&mut self, inner: &mut Inner, m: MutexId) -> bool {
        let mst = &mut inner.mutexes[m.index()];
        assert_eq!(
            mst.owner,
            Some(self.tid),
            "{} unlocking {m} it does not hold",
            self.tid
        );
        mst.owner = None;
        let cs_len = self.clock.saturating_sub(mst.cs_start_clock);
        mst.cs_est.update(cs_len);
        let woke = mst.waiters.pop_front();
        self.sh.cfg.trace.emit(Event::MutexUnlock {
            tid: self.tid,
            mutex: m,
            woke,
        });
        if let Some(w) = woke {
            self.wake(inner, w, None);
        }
        inner.lrc_release(self.tid, LrcObject::Mutex(m.0));
        woke.is_some()
    }

    /// Deterministic mutex release (Fig. 9).
    pub(super) fn unlock_inner(&mut self, m: MutexId) {
        let m = self.resolve_mutex(m);
        self.sync_prologue();
        self.acquire_token_or_raise();
        let mut inner = self.sh.lock();
        if self.unlock_state(&mut inner, m) {
            // A woken waiter must get a fair shot at the lock: retaining
            // the token here would let us re-acquire the lock before the
            // waiter can ever contend (a deterministic livelock).
            drop(inner);
            self.commit_and_leave(false);
        } else {
            self.end_op(Some(inner), self.coarsen.thread_est.get());
        }
    }
}
