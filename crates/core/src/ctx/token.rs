//! The token section (§4, Figures 7–9), written once.
//!
//! A synchronization operation is `sync_prologue`, `acquire_token`, a
//! mutation of its own sync state, and exactly one consuming end:
//!
//! * [`Ctx::commit_and_leave`] / [`Ctx::leave_locked`] — commit, then
//!   resume in the clock order, then release;
//! * [`Ctx::end_op`] — the same, unless coarsening retains the token;
//! * [`Ctx::park`] — depart from the clock order, release, and sleep
//!   until another token holder [`Ctx::wake`]s this thread.
//!
//! Where the commit sits relative to `depart` / `resume` is part of the
//! contract: `Depart`, `Commit` and `TokenRelease` are schedule events, so
//! their order is in every schedule digest and recorded trace. (Virtual
//! time cannot see it: the token holder's release follows both at a
//! later `v`, and every later grant chains off that release.) The orders
//! in use are stated here and nowhere else: everything commits before it
//! resumes or departs, except the rwlock, whose acquire departs first
//! ([`ParkOrder`]) and whose release resumes first (`rwlock::rw_unlock`).

use det_clock::OrderPolicy;
use dmt_api::trace::Event;
use dmt_api::{Addr, DmtError, DmtResult, PanicSite, PerturbSite, Row, ThreadCtx, Tid};

use super::{or_raise, Ctx};
use crate::shared::{Held, Inner};

/// When a parking thread publishes its buffered stores.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum ParkOrder {
    /// Mutex, condvar, join (Fig. 7 lines 10–13): commit under the token,
    /// then queue and depart — blocking with an unpublished store could
    /// starve ad-hoc readers forever.
    CommitThenDepart,
    /// Rwlock acquires: queue and depart, then commit, then release.
    DepartThenCommit,
}

impl<'a> Ctx<'a> {
    #[inline]
    pub(super) fn sync_prologue(&mut self) {
        self.led.charge(Row::lib, self.cost.sync_op);
    }

    /// As [`Ctx::acquire_token`], for protocol paths with infallible
    /// signatures: a shutdown while waiting unwinds to the thread
    /// boundary instead of propagating an error.
    #[inline]
    pub(super) fn acquire_token_or_raise(&mut self) -> bool {
        or_raise(self.acquire_token())
    }

    /// Arrives at a synchronization operation and acquires the global token.
    /// Returns `true` on a fresh acquisition and `false` when the token was
    /// already held by this thread (a coarsened operation). Fails with
    /// [`DmtError::Shutdown`] when the watchdog has abandoned the run —
    /// the only way a thread blocked on the token can ever observe that.
    pub(super) fn acquire_token(&mut self) -> DmtResult<bool> {
        // Chunk-end counter read: a syscall to the kernel clock module, or
        // a cheap user-space read inside a coarsened chunk (§3.4).
        // Round-robin ordering needs no instruction counters at all.
        if self.sh.opts.order == OrderPolicy::InstructionCount {
            let read = if self.holding_token && self.sh.opts.user_counter_read {
                self.cost.counter_read_user
            } else {
                self.cost.counter_read_kernel
            };
            self.led.charge(Row::lib, read);
            self.led.cnt.publications += 1;
        }
        let chunk_len = self.clock - self.last_sync_end_clock;
        self.coarsen.thread_est.update(chunk_len);
        if self.holding_token {
            return Ok(false);
        }
        // Pre-token-acquire delay: the thread is slow to arrive at the
        // sync point. Arrival timing must not matter — eligibility is a
        // function of published clocks and tids alone.
        self.led.perturb(PerturbSite::TokenAcquire);

        let sh = self.sh;
        let mut inner = sh.lock();
        let arrival_clock = self.clock;
        inner
            .table
            .arrive_sync(self.tid, arrival_clock, self.led.v());
        // Our arrival published a bound; the head waiter may have become
        // eligible.
        inner.wake_successor(self.tid);
        loop {
            if inner.shutdown {
                return Err(DmtError::Shutdown);
            }
            if inner.token.is_none()
                && (inner.table.eligible(self.tid)
                    // Deliberate determinism bug for `stress --inject-bug`
                    // (Options::inject_eligibility_bug): grab a free token
                    // without the eligibility check, letting physical
                    // arrival order leak into the schedule — the bug class
                    // where one clockDepart/publication update is missed.
                    || sh.opts.inject_eligibility_bug)
            {
                break;
            }
            // A wait that never ends is a runtime bug, not a program bug:
            // the watchdog (`runtime::diagnose`) reports it.
            self.doze(&mut inner);
            self.led.cnt.token_wake_loops += 1;
        }
        inner.token = Some(self.tid);
        // The synchronization objects travel with the token.
        debug_assert!(
            inner.quiet_exits.is_empty(),
            "purges queued on free objects"
        );
        self.objs = inner.objs.take();
        // Logical-progress signal for the watchdog: grants are the pulse.
        inner.grant_seq += 1;
        // The tenure's events reach the sink at its release, in one call.
        self.led.hold();
        self.led.emit(Event::TokenAcquire {
            tid: self.tid,
            clock: arrival_clock,
        });
        // Deterministic wake time: the token is exclusive (chain off the
        // previous release), plus the policy-specific release event. Under
        // instruction count that is the final clock crossing of each
        // blocking thread, looked up in its publication history; under
        // round robin it is the event that handed us the turn (clock
        // crossings are meaningless there and would inject noise).
        let handed = match self.sh.opts.order {
            OrderPolicy::InstructionCount => inner.table.crossing_v(self.tid, arrival_clock),
            OrderPolicy::RoundRobin => inner.table.rr_turn_v(),
        };
        self.led
            .wait_until(Row::determ_wait, inner.last_release_v.max(handed));
        self.led.charge(Row::lib, self.cost.token_op);
        // Fast-forward (§3.5): catch up to the last token releaser.
        if self.sh.opts.fast_forward && self.clock < inner.last_release_clock {
            self.led.emit(Event::FastForward {
                tid: self.tid,
                from: self.clock,
                to: inner.last_release_clock,
            });
            self.clock = inner.last_release_clock;
        }
        // Coarsening budget adaptation (§3.1, multiplicative up/down).
        let same = inner.last_entrant.replace(self.tid) == Some(self.tid);
        if self.sh.opts.coarsening {
            self.coarsen.adapt(same);
        }
        drop(inner);
        self.holding_token = true;
        self.current_since_acquire = false;
        self.tenure_resumed = false;
        self.token_start_clock = self.clock;
        self.ovf.chunk_start();
        Ok(true)
    }

    /// Releases the token under the runtime lock, chaining virtual time to
    /// every waiter and — unless `advance_rr` is false — advancing the
    /// round-robin turn if we hold it. Consecutive spawns keep the turn:
    /// they coalesce into one rotation slot, as real DThreads-family
    /// runtimes batch thread creation (otherwise every create would wait
    /// a full rotation behind freshly started workers).
    pub(super) fn release(&mut self, inner: &mut Held<'_>, advance_rr: bool) {
        debug_assert_eq!(inner.token, Some(self.tid), "token not held");
        self.led.emit(Event::TokenRelease {
            tid: self.tid,
            clock: self.clock,
        });
        // Before the next holder can emit: the sink sees tenures in token
        // order.
        self.led.deliver();
        self.led.charge(Row::lib, self.cost.token_op);
        inner.token = None;
        debug_assert!(self.objs.is_some(), "a holder without the objects");
        inner.put_objs(self.objs.take());
        inner.last_release_clock = self.clock;
        inner.last_release_v = self.led.v();
        if advance_rr
            && self.sh.opts.order == OrderPolicy::RoundRobin
            && inner.table.rr_holder() == self.tid.index()
        {
            inner.table.rr_advance(self.led.v());
        }
        self.holding_token = false;
        // The threads we woke under the token can use their wake now.
        inner.wakes.take(&mut self.pending);
        // Hand off to the unique deterministic successor. A publication
        // that makes the head waiter eligible runs the same rule in its own
        // lock section, so whichever of the two comes later sees both the
        // free token and the crossing: no eligible waiter is left asleep.
        inner.wake_successor(self.tid);
    }

    /// Ends a token section whose commit (if any) already happened: resume
    /// in the clock order, then release. `stamp` records the end of this
    /// operation as the start of the next chunk for the coarsening EWMA —
    /// which feeds the schedule, so it is the caller's explicit choice:
    /// forced commits, the unlock that woke a waiter, polling retries and
    /// the broken-barrier exit do not stamp.
    #[inline]
    pub(super) fn leave_locked(&mut self, inner: &mut Held<'_>, stamp: bool) {
        inner.table.resume(self.tid, self.clock, self.led.v());
        self.release(inner, true);
        if stamp {
            self.last_sync_end_clock = self.clock;
        }
    }

    /// The §4 epilogue: commit and update, resume, release.
    #[inline]
    pub(super) fn commit_and_leave(&mut self, stamp: bool) {
        self.commit_and_update();
        let sh = self.sh;
        self.leave_locked(&mut sh.lock(), stamp);
    }

    /// Commits dirty pages and pulls remote versions (Fig. 7 line 6:
    /// `convCommitAndUpdateMem`). Requires the token.
    pub(super) fn commit_and_update(&mut self) {
        debug_assert!(self.holding_token);
        // Seeded panic injection: a thread dying mid-protocol while
        // holding the token is the hardest containment case.
        self.maybe_inject_panic(PanicSite::Commit);
        // Commit stall: the token holder dawdles before publishing its
        // dirty pages. Holding the token excludes every other committer,
        // so the stall stretches real and virtual time only.
        self.led.perturb(PerturbSite::Commit);
        let sh = self.sh;
        let cr = sh.seg.commit(self.ws(), None);
        let c = self.cost.commit_base
            + cr.pages as u64 * self.cost.page_commit
            + cr.merged as u64 * self.cost.page_merge;
        self.led.charge(Row::commit, c);
        self.led.perturb(PerturbSite::Update);
        let ur = sh.seg.update(self.ws());
        let u = self.cost.update_base + ur.pages_propagated * self.cost.page_update;
        self.led.charge(Row::update, u);
        // Both run under the token, so commit order and update extents are
        // part of the deterministic schedule.
        self.led.emit(Event::Commit {
            tid: self.tid,
            version: cr.version,
            pages: cr.pages,
            merged: cr.merged,
            page_set: cr.page_set,
        });
        self.led.emit(Event::Update {
            tid: self.tid,
            version: ur.new_base,
            pages: ur.pages_propagated,
        });
        self.collect();
        self.start_chunk();
        self.current_since_acquire = true;
    }

    /// The collector step of every path that installs versions — this
    /// epilogue and the parallel barrier's installer. Conversion's
    /// single-threaded collector runs on the installing thread's critical
    /// path (§2.5, Fig. 12), so its work is charged like any other commit
    /// bookkeeping. Requires the token, and the runtime lock not held.
    pub(super) fn collect(&mut self) {
        debug_assert!(self.holding_token);
        let gr = self.sh.seg.gc(self.sh.cfg.gc_budget);
        self.led
            .charge(Row::commit, gr.spent() as u64 * self.cost.gc_version);
    }

    /// Ends a coarsenable synchronization operation: either retain the
    /// token across the next chunk (deferring commits — §3.1) or commit
    /// and release. While the token is retained no other thread can
    /// commit, so the holder's isolated view stays current and skipping
    /// the commit/update pair is sound.
    ///
    /// A tenure — one continuous hold of the token — resumes in the clock
    /// table once, at its first retained operation; the later ones take no
    /// lock at all. A resume they made would append `(clock, v)` to this
    /// thread's history with `v` no later than `v_rel`, the virtual time
    /// of the tenure's last transition (the resume or depart of its
    /// release), and while the token is held nobody can act on the bound
    /// it publishes. In [`det_clock::SchedTable::crossing_v`] such an entry
    /// can only make an earlier entry of the tenure the crossing, a value
    /// `≤ v_rel`; every acquisition after the tenure takes
    /// `max(v, last_release_v, crossing_v)`, and `last_release_v ≥ v_rel`,
    /// so no grant's virtual time can tell the two histories apart.
    pub(super) fn end_op(&mut self, predicted_next: u64) {
        if self.sh.opts.coarsening {
            let consumed = self.clock.saturating_sub(self.token_start_clock);
            if self.coarsen.should_retain(consumed, predicted_next) {
                self.last_sync_end_clock = self.clock;
                // A coarsened run must begin from a current view: commit
                // and update once at its first coordination phase, then
                // skip coordination for the merged phases that follow.
                if !self.current_since_acquire {
                    self.commit_and_update();
                }
                self.led.emit(Event::Coarsen {
                    tid: self.tid,
                    clock: self.clock,
                });
                // We still hold the token, so no waiter can proceed:
                // nobody to wake.
                if !self.tenure_resumed {
                    self.tenure_resumed = true;
                    self.sh
                        .lock()
                        .table
                        .resume(self.tid, self.clock, self.led.v());
                }
                return;
            }
        }
        self.commit_and_leave(true);
    }

    /// §2.7: forcibly end the current chunk so spinning threads observe
    /// remote commits.
    pub(super) fn forced_commit(&mut self) {
        self.acquire_token_or_raise();
        self.commit_and_leave(false);
    }

    /// The §2.7 atomic-operation protocol: acquire the token, bring the
    /// view current, apply the read-modify-write, and commit before any
    /// other thread can take the token. Returns the previous value.
    pub(super) fn atomic_rmw(&mut self, addr: Addr, f: impl FnOnce(u64) -> u64) -> u64 {
        self.sync_prologue();
        let fresh = self.acquire_token_or_raise();
        if fresh {
            // A coarsened (retained-token) view is already current.
            self.commit_and_update();
        }
        let old = self.ld_u64(addr);
        self.st_u64(addr, f(old));
        self.commit_and_update();
        self.end_op(self.coarsen.thread_est.get());
        old
    }

    /// Wakes `w` out of a blocked protocol wait — with a grant, or with
    /// `err` when a dying owner drains it from a poisoned queue. Caller
    /// holds the token and the runtime lock, and wakes in queue order (the
    /// real unpark follows at this thread's [`Ctx::release`]):
    /// one wakeup charge per woken thread, so both the waker's and the
    /// woken thread's virtual times are functions of the token order, and
    /// error delivery order is the order a healthy owner would have
    /// granted in.
    #[inline]
    pub(super) fn wake(&mut self, inner: &mut Inner, w: Tid, err: Option<DmtError>) {
        self.led.charge(Row::lib, self.cost.wakeup);
        let st = &mut inner.threads[w.index()];
        st.wake = true;
        st.wake_v = self.led.v();
        st.wake_err = err;
        let saved = st.saved_clock;
        inner.table.reactivate(w, saved, self.led.v());
        self.pending.push(w);
    }

    /// Removes this thread from GMIC consideration (`clockDepart`,
    /// Fig. 7 line 12), remembering the clock it will be reactivated at.
    #[inline]
    pub(super) fn depart(&mut self, inner: &mut Inner) {
        inner.threads[self.tid.index()].saved_clock = self.clock;
        self.led.emit(Event::Depart {
            tid: self.tid,
            clock: self.clock,
        });
        inner.table.depart(self.tid, self.led.v());
    }

    /// Depart-and-block (Fig. 7 lines 10–13): queue with `enqueue`, leave
    /// the clock order, give the token up and sleep until a token holder
    /// [`Ctx::wake`]s this thread. Fails with the error a dying owner
    /// attached, or with [`DmtError::Shutdown`].
    pub(super) fn park(
        &mut self,
        order: ParkOrder,
        enqueue: impl FnOnce(&mut Ctx, &mut Inner),
    ) -> DmtResult<()> {
        if order == ParkOrder::CommitThenDepart {
            self.commit_and_update();
        }
        let sh = self.sh;
        let mut inner = sh.lock();
        enqueue(self, &mut inner);
        self.depart(&mut inner);
        if order == ParkOrder::DepartThenCommit {
            drop(inner);
            self.commit_and_update();
            inner = sh.lock();
        }
        self.release(&mut inner, true);
        self.block_until_woken(&mut inner)
    }

    /// One sleep of a thread waiting for the token or its wake flag.
    #[inline]
    fn doze(&self, inner: &mut Held<'_>) {
        if self.sh.cfg.perturb.spurious_wake(self.tid) {
            // Spurious wake-up injection: every waiter in the runtime —
            // this one included — must tolerate being woken with nothing
            // changed, and act on its predicate, never on the wake itself.
            inner.wakes.all = true;
        }
        inner.sleep(None);
    }

    /// Blocks until this thread's wake flag is raised, folding the waker's
    /// virtual time into ours. Caller has departed and released the token.
    fn block_until_woken(&mut self, inner: &mut Held<'_>) -> DmtResult<()> {
        while !inner.threads[self.tid.index()].wake {
            if inner.shutdown {
                return Err(DmtError::Shutdown);
            }
            self.doze(inner);
        }
        let st = &mut inner.threads[self.tid.index()];
        st.wake = false;
        self.led.wait_until(Row::determ_wait, st.wake_v);
        st.wake_err.take().map_or(Ok(()), Err)
    }
}
