//! Deterministic read-write locks: FIFO queue, direct hand-off.
//!
//! These operations always commit and release — they never coarsen:
//! wakes must stay fair, and reader concurrency is the point.

use dmt_api::trace::Event;
use dmt_api::{DmtError, RwLockId, Tid};

use super::token::ParkOrder;
use super::{or_raise, raise, Ctx};
use crate::shared::{Inner, RwSt};

impl Ctx<'_> {
    /// Gives `tid` a hold on `l`. The grant is a schedule event of the
    /// token holder's turn, whether it grants to itself or hands off.
    fn rw_grant(&self, st: &mut RwSt, l: RwLockId, tid: Tid, writer: bool) {
        if writer {
            st.writer = Some(tid);
        } else {
            st.readers.push(tid);
        }
        self.sh.cfg.trace.emit(Event::RwAcquire {
            tid,
            lock: l,
            writer,
        });
    }

    /// Hands the rwlock to the head of its queue: one writer, or every
    /// leading reader — granting directly (the woken thread owns the lock
    /// when it wakes). Caller holds the token and the runtime lock.
    pub(super) fn rw_wake_head(&mut self, inner: &mut Inner, l: RwLockId) {
        loop {
            let st = &mut inner.rwlocks[l.index()];
            let Some(&(w, is_writer)) = st.waiters.front() else {
                return;
            };
            if st.writer.is_some() || (is_writer && !st.readers.is_empty()) {
                return;
            }
            st.waiters.pop_front();
            // Direct hand-off: the grant happens here, under the waker's
            // token.
            self.rw_grant(st, l, w, is_writer);
            self.wake(inner, w, None);
            if is_writer {
                return;
            }
            // Keep granting consecutive readers.
        }
    }

    /// Deterministic acquisition, shared (`writer = false`) or exclusive:
    /// granted under the token when nothing conflicts and the FIFO queue
    /// is empty; otherwise queue. Queued threads are *granted by the
    /// waker* (direct hand-off) — a retry model could re-queue behind
    /// newly arrived writers and strand the whole queue.
    pub(super) fn rw_lock(&mut self, l: RwLockId, writer: bool) {
        self.sync_prologue();
        self.acquire_token_or_raise();
        let sh = self.sh;
        let mut inner = sh.lock();
        let st = &mut inner.rwlocks[l.index()];
        if let Some(by) = st.poisoned {
            drop(inner);
            self.commit_and_leave(true);
            raise(DmtError::RwLockPoisoned { lock: l, by });
        }
        if st.writer.is_none() && st.waiters.is_empty() && (!writer || st.readers.is_empty()) {
            self.rw_grant(st, l, self.tid, writer);
            drop(inner);
            self.commit_and_leave(true);
            return;
        }
        drop(inner);
        or_raise(self.park(ParkOrder::DepartThenCommit, |me, inner| {
            inner.rwlocks[l.index()].waiters.push_back((me.tid, writer))
        }));
        // The waker granted us the hold; take the token to refresh our
        // view (acquire semantics), then continue.
        self.acquire_token_or_raise();
        self.commit_and_update();
        self.commit_and_leave(true);
    }

    /// Releases a hold and hands off to the queue head: after the
    /// exclusive holder, or after the last reader. Unlike every other
    /// release, this resumes in the clock order *before* it commits.
    pub(super) fn rw_unlock(&mut self, l: RwLockId, writer: bool) {
        self.sync_prologue();
        self.acquire_token_or_raise();
        let sh = self.sh;
        let mut inner = sh.lock();
        let st = &mut inner.rwlocks[l.index()];
        if writer {
            assert_eq!(
                st.writer,
                Some(self.tid),
                "{} write-unlocking {l} it does not hold",
                self.tid
            );
            st.writer = None;
        } else {
            let Some(hold) = st.readers.iter().position(|t| *t == self.tid) else {
                panic!("{} read-unlocking {l} it does not hold", self.tid);
            };
            st.readers.remove(hold);
        }
        self.sh.cfg.trace.emit(Event::RwRelease {
            tid: self.tid,
            lock: l,
            writer,
        });
        if writer || st.readers.is_empty() {
            self.rw_wake_head(&mut inner, l);
        }
        inner.table.resume(self.tid, self.clock, self.v);
        drop(inner);
        self.commit_and_update();
        self.release(&mut sh.lock(), true);
        self.last_sync_end_clock = self.clock;
    }
}
