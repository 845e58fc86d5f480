//! Deterministic condition variables (§4.1).

use dmt_api::trace::Event;
use dmt_api::{CondId, DmtResult, MutexId};

use super::token::ParkOrder;
use super::{tenure, Ctx};

impl Ctx<'_> {
    /// Fallible condition wait. Fails with [`DmtError::CondOwnerDied`]
    /// when the owner of the associated mutex panics while we wait (the
    /// mutex can never legally be reacquired), or with the poison error
    /// from reacquisition itself.
    ///
    /// [`DmtError::CondOwnerDied`]: dmt_api::DmtError::CondOwnerDied
    pub(super) fn cond_wait_inner(&mut self, c: CondId, m: MutexId) -> DmtResult<()> {
        let m = self.resolve_mutex(m);
        self.sync_prologue();
        self.acquire_token()?;
        // Condition operations end any coarsened chunk (§3.1): the park
        // commits before it releases the mutex and queues.
        self.park(ParkOrder::CommitThenDepart, |me, inner| {
            let _ = me.unlock_state(Some(inner), m);
            tenure(&mut me.tenure).objs.conds[c.index()]
                .waiters
                .push_back((me.tid, m));
            me.led.emit(Event::CondWait {
                tid: me.tid,
                cond: c,
                mutex: m,
            });
        })?;
        self.last_sync_end_clock = self.clock;
        // Re-acquire the mutex before returning, as pthreads does.
        self.lock_inner(m)
    }

    /// `cond_signal` (`all = false`: the earliest waiter) and
    /// `cond_broadcast` (`all = true`: every waiter, in queue order).
    pub(super) fn cond_wake(&mut self, c: CondId, all: bool) {
        self.sync_prologue();
        self.acquire_token_or_raise();
        self.commit_and_update();
        let sh = self.sh;
        let mut inner = sh.lock();
        let mut first = None;
        let mut woken = 0u32;
        inner.purge_quiet_exits(&mut tenure(&mut self.tenure).objs);
        while all || woken == 0 {
            let waiters = &mut tenure(&mut self.tenure).objs.conds[c.index()].waiters;
            let Some((w, _)) = waiters.pop_front() else {
                break;
            };
            self.wake(&mut inner, w, None);
            first.get_or_insert(w);
            woken += 1;
        }
        let tid = self.tid;
        self.led.emit(if all {
            Event::CondBroadcast {
                tid,
                cond: c,
                woken,
            }
        } else {
            Event::CondSignal {
                tid,
                cond: c,
                woken: first,
            }
        });
        self.leave_locked(&mut inner, true);
    }
}
