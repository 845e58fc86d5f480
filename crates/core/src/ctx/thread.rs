//! Thread lifecycle: deterministic creation with pool reuse (§3.3), join,
//! and the exit protocol — plus the retirement bookkeeping the exit shares
//! with the containment paths in [`super::abort`].

use dmt_api::trace::Event;
use dmt_api::{DmtError, DmtResult, Job, Row, Tid};

use super::token::ParkOrder;
use super::Ctx;
use crate::shared::{Held, Inner, Msg, PoolEntry, ThreadSt};

impl Ctx<'_> {
    /// A null synchronization operation performed at thread birth under
    /// round-robin ordering (see `runtime::worker_loop`).
    pub(crate) fn birth_sync(&mut self) {
        self.sync_prologue();
        self.acquire_token_or_raise();
        let sh = self.sh;
        self.leave_locked(&mut sh.lock(), true);
    }

    /// Deterministic thread creation with pool reuse (§3.3).
    pub(super) fn spawn_inner(&mut self, job: Job) -> Tid {
        self.sync_prologue();
        self.acquire_token_or_raise();
        // Creation is a release edge: the child must see our writes.
        self.commit_and_update();
        let sh = self.sh;
        let mut inner = sh.lock();
        assert!(
            (inner.next_tid as usize) < sh.cfg.max_threads,
            "thread limit {} exceeded",
            sh.cfg.max_threads
        );
        let child = Tid(inner.next_tid);
        inner.next_tid += 1;
        inner.threads.push(ThreadSt::default());
        inner.live += 1;
        inner.table.register(child, self.clock, self.led.v());

        let pooled = if sh.opts.thread_pool {
            inner.pool.pop()
        } else {
            None
        };
        self.led.emit(Event::Spawn {
            parent: self.tid,
            child,
            pooled: pooled.is_some(),
        });
        let (tx, ws) = match pooled {
            Some(PoolEntry { tx, mut ws }) => {
                sh.seg.adopt(&mut ws, child);
                // The reused workspace only needs the delta since it was
                // pooled (much cheaper than a fork, as §3.3 observes).
                let ur = sh.seg.update(&mut ws);
                let c = self.cost.pool_reuse + ur.pages_propagated * self.cost.page_update;
                self.led.charge(Row::lib, c);
                // The worker holds its own Sender clone and re-pools
                // itself with it when this job exits.
                (tx, ws)
            }
            None => {
                // Fork: copy every mapped page-table entry into the child.
                let (ws, mapped) = sh.seg.new_workspace(child);
                let c = self.cost.spawn_base + mapped as u64 * self.cost.page_map;
                self.led.charge(Row::lib, c);
                (crate::runtime::spawn_worker(sh, &mut inner), ws)
            }
        };
        let start = Msg::Start {
            tid: child,
            job,
            clock: self.clock,
            v: self.led.v(),
            ws,
        };
        inner.table.resume(self.tid, self.clock, self.led.v());
        // Keep the rotation turn: back-to-back creates form one phase.
        self.release(&mut inner, false);
        drop(inner);
        // The send wakes the worker blocked in `rx.recv()`, so it comes
        // after the unlock, as `Parking`'s first rule has every wake do.
        // INVARIANT: the receiver cannot be gone. A pooled worker is
        // parked in `rx.recv()` while its entry is in the pool (even a
        // panicked job re-pools through `abort`); a fresh worker was
        // spawned just above and blocks on `rx.recv()` before anything
        // can unwind it.
        #[allow(clippy::expect_used)]
        tx.send(start).expect("worker hung up");
        self.last_sync_end_clock = self.clock;
        child
    }

    /// Fallible join. Fails with [`DmtError::ThreadPanicked`] when the
    /// target's job panicked — observed under this thread's own token
    /// grant, after folding the target's exit time, so the error is as
    /// deterministic as a successful join.
    pub(super) fn join_inner(&mut self, t: Tid) -> DmtResult<()> {
        assert_ne!(t, self.tid, "thread joining itself");
        self.sync_prologue();
        loop {
            self.acquire_token()?;
            let sh = self.sh;
            let inner = sh.lock();
            assert!(
                (t.index()) < inner.threads.len(),
                "join on unknown thread {t}"
            );
            let target = &inner.threads[t.index()];
            if target.finished {
                self.led.wait_until(Row::determ_wait, target.exit_v);
                if sh.opts.fast_forward {
                    self.clock = self.clock.max(target.exit_clock);
                }
                let panicked = target.panicked.then(|| target.panic_msg.clone());
                self.led.emit(Event::Join {
                    tid: self.tid,
                    target: t,
                });
                drop(inner);
                // Join is an acquire: pull the exited thread's commits.
                self.commit_and_leave(true);
                return match panicked {
                    Some(msg) => Err(DmtError::ThreadPanicked { tid: t, msg }),
                    None => Ok(()),
                };
            }
            drop(inner);
            // Commit before blocking: a joiner may hold the only copy of
            // data an ad-hoc reader is spinning on.
            self.park(ParkOrder::CommitThenDepart, |me, inner| {
                inner.threads[t.index()].joiners.push(me.tid);
            })?;
        }
    }

    /// Records this thread's exit (for joiners) and takes it out of the
    /// clock table; `panic` carries the message of a contained panic.
    pub(super) fn mark_exited(&mut self, inner: &mut Inner, panic: Option<&str>) {
        let st = &mut inner.threads[self.tid.index()];
        st.finished = true;
        st.exit_clock = self.clock;
        st.exit_v = self.led.v();
        if let Some(msg) = panic {
            st.panicked = true;
            if st.panic_msg.is_empty() {
                st.panic_msg = msg.to_string();
            }
        }
        inner.table.finish(self.tid, self.led.v());
    }

    /// Files this thread's report and counters and retires it from the
    /// live count, exactly once.
    pub(super) fn retire(&mut self, inner: &mut Inner) {
        self.torn_down = true;
        inner.live -= 1;
        inner.closed.file(&self.led);
    }

    /// The tail of an exit under the token, healthy or contained: wake
    /// the joiners in queue order (those of a panicked thread wake
    /// normally and observe `panicked` under their own token turn), leave
    /// the clock table, pool the workspace, release, retire.
    pub(super) fn exit_under_token(&mut self, inner: &mut Held<'_>, panic: Option<&str>) {
        let joiners = std::mem::take(&mut inner.threads[self.tid.index()].joiners);
        for j in joiners {
            self.wake(inner, j, None);
        }
        self.mark_exited(inner, panic);
        // Park the workspace in the thread pool (§3.3) while still holding
        // the token, so pool contents are a deterministic function of the
        // token order; a worker that cannot re-pool detaches instead.
        if let Some(ws) = self.ws.take() {
            match self.pool_tx.take() {
                Some(tx) if self.sh.opts.thread_pool => inner.pool.push(PoolEntry { tx, ws }),
                _ => self.sh.seg.detach(self.tid),
            }
        }
        self.release(inner, true);
        self.retire(inner);
        // For the runtime's teardown loop, and for the waiters of a
        // barrier this exit broke.
        inner.wake_waiters();
    }

    /// Exit protocol: final commit, then [`Ctx::exit_under_token`].
    pub(crate) fn finish(mut self) {
        // Teardown runs protocol steps (commit, token ops) that double as
        // injection sites; firing here would unwind out of a consumed
        // context, so the exit protocol is injection-free.
        self.suppress_inject = true;
        self.sync_prologue();
        if self.acquire_token().is_err() {
            // Watchdog shutdown raced our exit: leave quietly.
            return self.abort_quiet();
        }
        self.commit_and_update();
        let sh = self.sh;
        let mut inner = sh.lock();
        self.led.emit(Event::Exit {
            tid: self.tid,
            clock: self.clock,
        });
        self.exit_under_token(&mut inner, None);
    }
}
