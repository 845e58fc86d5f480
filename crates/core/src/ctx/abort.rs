//! Containment: what a thread does when its job panics (or a protocol
//! error unwinds it) instead of tearing the process down.

use std::panic::{catch_unwind, AssertUnwindSafe};

use det_clock::ThreadState;
use dmt_api::trace::Event;
use dmt_api::{CondId, ContainedError, DmtError, DmtResult, MutexId, RwLockId, Tid};

use super::{tenure, Ctx};
use crate::shared::Msg;

/// What an unwind caught at the thread boundary says, or `None` for a
/// [`DmtError::Shutdown`].
fn contained(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    Some(if let Some(c) = payload.downcast_ref::<ContainedError>() {
        if c.0 == DmtError::Shutdown {
            return None;
        }
        c.0.to_string()
    } else if let Some(ip) = payload.downcast_ref::<dmt_api::InjectedPanic>() {
        ip.to_string()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    })
}

impl Ctx<'_> {
    /// Runs `job` inside the thread's panic boundary, then, inside it too
    /// (a sink can unwind in a release), the protocol that ends the thread:
    /// the exit protocol, or, if the job unwound, containment — the dying
    /// thread departs the clock, releases or reclaims the token, poisons
    /// what it held and wakes joiners, all under the token, instead of
    /// tearing the process down. A [`DmtError::Shutdown`] unwind takes the
    /// quiet path (the watchdog already owns the diagnosis and the schedule
    /// is being abandoned), and so does a protocol that fails (a double
    /// panic, or a shutdown racing in): the thread retires exactly once,
    /// and its joiners read what ended it — the job's panic, the exit
    /// protocol's unwind, or a shutdown.
    pub(crate) fn run_job(mut self, job: impl FnOnce(&mut Ctx)) {
        let cause = match catch_unwind(AssertUnwindSafe(|| job(&mut self))) {
            Ok(()) => match catch_unwind(AssertUnwindSafe(|| self.finish())) {
                Ok(Ok(())) => return,
                Ok(Err(e)) => (e != DmtError::Shutdown).then(|| e.to_string()),
                Err(payload) => contained(&*payload),
            },
            Err(payload) => {
                let Some(msg) = contained(&*payload) else {
                    return self.abort_quiet(None);
                };
                self.suppress_inject = true;
                let protocol = catch_unwind(AssertUnwindSafe(|| self.abort_protocol(&msg)));
                if matches!(protocol, Ok(Ok(()))) {
                    return;
                }
                Some(msg)
            }
        };
        self.abort_quiet(cause.as_deref());
    }

    /// The deterministic containment protocol (clockDepart for a dying
    /// thread). Runs entirely under the token — which a thread that died
    /// mid-section still holds — so every effect — poison delivery order,
    /// joiner wake order, the hashed `ThreadPanic` event — is a function
    /// of the deterministic schedule and reproduces bit-for-bit when the
    /// same panic recurs.
    fn abort_protocol(&mut self, msg: &str) -> DmtResult<()> {
        if self.tenure.is_none() {
            self.sync_prologue();
            self.acquire_token()?;
        }
        // TSO: stores retired before the panic happened; publish them and
        // bring the view current so the workspace can be pooled clean.
        self.commit_and_update();
        let sh = self.sh;
        let mut inner = sh.lock();
        self.led.emit(Event::ThreadPanic {
            tid: self.tid,
            clock: self.clock,
        });
        let by = self.tid;
        inner.purge_quiet_exits(&mut tenure(&mut self.tenure).objs);

        // Poison every mutex we own. Queued waiters are drained FIFO —
        // the order a healthy unlock sequence would have granted in —
        // and condvar waiters that released a now-poisoned mutex can
        // never legally reacquire it, so they get the owner-died error.
        for i in 0..tenure(&mut self.tenure).objs.mutexes.len() {
            let mst = &mut tenure(&mut self.tenure).objs.mutexes[i];
            if mst.owner != Some(by) {
                continue;
            }
            let mutex = MutexId(i as u32);
            mst.owner = None;
            mst.poisoned = Some(by);
            let drained: Vec<Tid> = mst.waiters.drain(..).collect();
            for w in drained {
                self.wake(&mut inner, w, Some(DmtError::MutexPoisoned { mutex, by }));
            }
            for ci in 0..tenure(&mut self.tenure).objs.conds.len() {
                let cond = CondId(ci as u32);
                let waiters = &mut tenure(&mut self.tenure).objs.conds[ci].waiters;
                let (dead, alive) = std::mem::take(waiters)
                    .into_iter()
                    .partition(|(_, wm)| *wm == mutex);
                *waiters = alive;
                for (w, _) in dead {
                    let e = DmtError::CondOwnerDied { cond, mutex, by };
                    self.wake(&mut inner, w, Some(e));
                }
            }
        }

        // Poison rwlocks we hold exclusively. A dying *reader* cannot have
        // torn the data: its holds are dropped without poison, and the
        // last one hands off to the queue head like any read-unlock.
        for i in 0..tenure(&mut self.tenure).objs.rwlocks.len() {
            let lock = RwLockId(i as u32);
            let st = &mut tenure(&mut self.tenure).objs.rwlocks[i];
            if st.writer == Some(by) {
                st.writer = None;
                st.poisoned = Some(by);
                let drained: Vec<Tid> = st.waiters.drain(..).map(|(w, _)| w).collect();
                for w in drained {
                    self.wake(&mut inner, w, Some(DmtError::RwLockPoisoned { lock, by }));
                }
            } else if st.readers.contains(&by) {
                st.readers.retain(|t| *t != by);
                if st.readers.is_empty() {
                    self.rw_wake_head(&mut inner, lock);
                }
            }
        }

        // Un-arrive from any barrier mid-protocol deaths registered with:
        // a dead thread must never be reactivated by a barrier open. (The
        // generation then waits for an arrival that cannot come; either
        // the break below fires or the watchdog diagnoses the stall.)
        for bst in inner.barriers.iter_mut() {
            bst.arrived.retain(|t| *t != by);
        }
        // Break barriers that can never fill once we are gone (fewer
        // surviving threads than parties). Arrived waiters left the clock
        // order (clockDepart); put them back so they can observe the
        // broken flag and run their own containment.
        let survivors = inner.live.saturating_sub(1) as usize;
        for bi in 0..inner.barriers.len() {
            if inner.barriers[bi].broken || inner.barriers[bi].parties <= survivors {
                continue;
            }
            inner.barriers[bi].broken = true;
            let arrived = inner.barriers[bi].arrived.clone();
            for t in arrived {
                if matches!(inner.table.state(t), ThreadState::Departed) {
                    let saved = inner.threads[t.index()].saved_clock;
                    inner.table.reactivate(t, saved, self.led.v());
                }
            }
        }

        // Retire the thread. The view was committed and updated above:
        // a pooled workspace is as clean as one parked by `finish`.
        inner.panics.push((by, msg.to_string()));
        self.exit_under_token(&mut inner, Some(msg));
        Ok(())
    }

    /// Last-resort teardown: no new events, no token protocol. Used on
    /// shutdown (the watchdog owns the diagnosis and the schedule is
    /// abandoned) and when the containment protocol itself fails. Purges
    /// this thread from every wait queue so no successor computation can
    /// ever select a dead thread, and from every rwlock's reader list so
    /// the surviving readers' last unlock still hands off, then retires
    /// it. The purge is immediate when the objects are free (a holder that
    /// leaves quietly puts its own back first) and queued for the holder
    /// that carries them otherwise. It hands nothing off itself (that
    /// needs the token): what the thread held exclusively, or as the last
    /// reader, stays stranded. A worker that leaves this way is not
    /// re-pooled: it ends its loop. Its joiners read `cause`, the message
    /// of what ended it, or "shutdown" for `None`, a shutdown.
    pub(super) fn abort_quiet(&mut self, cause: Option<&str>) {
        if self.torn_down {
            return;
        }
        let sh = self.sh;
        let mut inner = sh.lock();
        let me = self.tid;
        // What the thread held of its tenure reaches the sink before the
        // token can pass on.
        self.led.deliver();
        self.end_tenure(&mut inner);
        match inner.token.as_deref_mut() {
            Some(objs) => objs.purge(me),
            None => inner.quiet_exits.push(me),
        }
        self.mark_exited(&mut inner, Some(cause.unwrap_or("shutdown")));
        if self.ws.take().is_some() {
            sh.seg.detach(me);
        }
        if let Some(tx) = self.pool_tx.take() {
            let _ = tx.send(Msg::Shutdown);
        }
        self.retire(&mut inner);
        inner.wakes.all = true;
    }
}
