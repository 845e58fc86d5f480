//! Containment: what a thread does when its job panics (or a protocol
//! error unwinds it) instead of tearing the process down.

use det_clock::ThreadState;
use dmt_api::trace::Event;
use dmt_api::{CondId, ContainedError, DmtError, DmtResult, MutexId, RwLockId, Tid};

use super::{carried, Ctx};

impl Ctx<'_> {
    /// Runs `job` inside the thread's panic boundary, then the exit
    /// protocol — or, if the job unwound, containment: the dying thread
    /// departs the clock, releases or reclaims the token, poisons what it
    /// held and wakes joiners, all under the token, instead of tearing the
    /// process down.
    pub(crate) fn run_job(mut self, job: impl FnOnce(&mut Ctx)) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&mut self))) {
            Ok(()) => self.finish(),
            Err(payload) => self.dispatch_panic(payload),
        }
    }

    /// Classifies a caught unwind payload from the thread boundary and
    /// contains it. [`DmtError::Shutdown`] unwinds take the quiet path —
    /// the watchdog already owns the diagnosis and the schedule is being
    /// abandoned; everything else runs the deterministic containment
    /// protocol under the token, and if that protocol itself fails (double
    /// panic, or a shutdown racing in), degrades to the quiet teardown so
    /// the thread always retires exactly once.
    fn dispatch_panic(mut self, payload: Box<dyn std::any::Any + Send>) {
        let msg = if let Some(c) = payload.downcast_ref::<ContainedError>() {
            if c.0 == DmtError::Shutdown {
                return self.abort_quiet();
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
        };
        self.suppress_inject = true;
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.abort_protocol(&msg)));
        if !matches!(outcome, Ok(Ok(()))) {
            self.abort_quiet();
        }
    }

    /// The deterministic containment protocol (clockDepart for a dying
    /// thread). Runs entirely under the token — which a thread that died
    /// mid-section still holds — so every effect — poison delivery order,
    /// joiner wake order, the hashed `ThreadPanic` event — is a function
    /// of the deterministic schedule and reproduces bit-for-bit when the
    /// same panic recurs.
    fn abort_protocol(&mut self, msg: &str) -> DmtResult<()> {
        if !self.holding_token {
            self.sync_prologue();
            self.acquire_token()?;
        }
        // TSO: stores retired before the panic happened; publish them and
        // bring the view current so the workspace can be pooled clean.
        self.commit_and_update();
        let sh = self.sh;
        let mut inner = sh.lock();
        self.sh.cfg.trace.emit(Event::ThreadPanic {
            tid: self.tid,
            clock: self.clock,
        });
        let by = self.tid;
        inner.purge_quiet_exits(carried(&mut self.objs));

        // Poison every mutex we own. Queued waiters are drained FIFO —
        // the order a healthy unlock sequence would have granted in —
        // and condvar waiters that released a now-poisoned mutex can
        // never legally reacquire it, so they get the owner-died error.
        for i in 0..carried(&mut self.objs).mutexes.len() {
            let mst = &mut carried(&mut self.objs).mutexes[i];
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
            for ci in 0..carried(&mut self.objs).conds.len() {
                let cond = CondId(ci as u32);
                let waiters = &mut carried(&mut self.objs).conds[ci].waiters;
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
        for i in 0..carried(&mut self.objs).rwlocks.len() {
            let lock = RwLockId(i as u32);
            let st = &mut carried(&mut self.objs).rwlocks[i];
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
                    inner.table.reactivate(t, saved, self.v);
                }
            }
        }

        // Retire the thread. The view was committed and updated above:
        // a pooled workspace is as clean as one parked by `finish`.
        inner.panics.push((by, msg.to_string()));
        self.exit_under_token(&mut inner, Some(msg));
        Ok(())
    }

    /// Last-resort teardown: no hashed events, no token protocol. Used on
    /// shutdown (the watchdog owns the diagnosis and the schedule is
    /// abandoned) and when the containment protocol itself fails. Purges
    /// this thread from every wait queue so no successor computation can
    /// ever select a dead thread, and from every rwlock's reader list so
    /// the surviving readers' last unlock still hands off, then retires
    /// it. The purge is immediate when the objects are free (a holder that
    /// leaves quietly puts its own back first) and queued for the holder
    /// that carries them otherwise. It hands nothing off itself (that
    /// needs the token): what the thread held exclusively, or as the last
    /// reader, stays stranded.
    pub(super) fn abort_quiet(mut self) {
        if self.torn_down {
            return;
        }
        let sh = self.sh;
        let mut inner = sh.lock();
        let me = self.tid;
        if inner.token == Some(me) {
            inner.token = None;
            inner.put_objs(self.objs.take());
        }
        match inner.objs.as_deref_mut() {
            Some(objs) => objs.purge(me),
            None => inner.quiet_exits.push(me),
        }
        self.holding_token = false;
        self.mark_exited(&mut inner, Some("shutdown"));
        if self.ws.take().is_some() {
            sh.seg.detach(me);
        }
        self.retire(&mut inner);
        inner.wakes.all = true;
    }
}
