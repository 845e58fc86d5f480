//! The deterministic barrier with two-phase parallel commit (§4.2), and
//! its serial variant (`parallel_barrier = false`, DWC behaviour).

use std::sync::Arc;

use dmt_api::trace::Event;
use dmt_api::{BarrierId, DmtError, PanicSite, PerturbSite, Row, Tid};

use super::{raise, Ctx};
use crate::shared::{BarPhase, BarrierSt, Held, Inner};

/// Why a barrier wait cannot complete: the watchdog abandoned the run, or
/// a participant died such that the barrier can never fill.
fn broken_or_shutdown(inner: &Inner, b: BarrierId) -> Option<DmtError> {
    if inner.shutdown {
        Some(DmtError::Shutdown)
    } else if inner.barriers[b.index()].broken {
        Some(DmtError::BarrierBroken { barrier: b })
    } else {
        None
    }
}

impl<'a> Ctx<'a> {
    /// Sleeps until `ready(barrier)`. A broken
    /// barrier or an abandoned run unwinds to containment instead:
    /// stragglers cascade out rather than wait forever. (The breaking
    /// thread reactivated every departed arriver, clock-table wise,
    /// before setting the flag.) An arriver that still has to register
    /// holds the token and `leave_first`: it leaves the order cleanly
    /// before unwinding.
    fn await_barrier(
        &mut self,
        mut inner: Held<'a>,
        b: BarrierId,
        leave_first: bool,
        ready: impl Fn(&BarrierSt) -> bool,
    ) -> Held<'a> {
        loop {
            if let Some(e) = broken_or_shutdown(&inner, b) {
                if leave_first {
                    self.leave_locked(&mut inner, false);
                }
                drop(inner);
                raise(e);
            }
            if ready(&inner.barriers[b.index()]) {
                return inner;
            }
            inner.wait(self.tid, None);
        }
    }

    /// A departed arriver's wait for generation `gen` to reach `phase`,
    /// folding the virtual time of the event that got it there: the
    /// sealing (phase 2 may begin) or the installation.
    fn follow_barrier(
        &mut self,
        inner: Held<'a>,
        b: BarrierId,
        gen: u64,
        phase: BarPhase,
    ) -> Held<'a> {
        let inner = self.await_barrier(inner, b, false, |bst| bst.gen == gen && bst.phase >= phase);
        let bst = &inner.barriers[b.index()];
        self.led.wait_until(
            Row::barrier_wait,
            if phase == BarPhase::Merging {
                bst.merge_start_v
            } else {
                bst.install_v
            },
        );
        inner
    }

    /// Opens generation `gen`: the last arriver, still holding the token
    /// so no foreign commit can interleave, publishes the installed
    /// version and leaves.
    fn open_barrier(&mut self, inner: &mut Held<'_>, b: BarrierId, gen: u64) {
        let sh = self.sh;
        let bst = &mut inner.barriers[b.index()];
        bst.phase = BarPhase::Installed;
        bst.install_v = self.led.v();
        bst.install_version = sh.seg.latest_id();
        self.led.emit(Event::BarrierOpen {
            tid: self.tid,
            barrier: b,
            gen,
            install_version: bst.install_version,
        });
        for _ in 0..bst.parties {
            sh.seg.pin(bst.install_version);
        }
        // Reactivate every departed participant here, in arrival order,
        // while we hold the token: reactivation mutates the deterministic
        // order (round-robin turn), so it must not happen at each
        // leaver's racy wake-up.
        let others: Vec<Tid> = bst
            .arrived
            .iter()
            .copied()
            .filter(|t| *t != self.tid)
            .collect();
        let ff = bst.max_arrival_clock;
        for t in others {
            inner.table.reactivate(t, ff, self.led.v());
        }
        self.leave_locked(inner, false);
        inner.wake_waiters();
    }

    /// Raises [`DmtError::BarrierBroken`] (contained at the thread
    /// boundary) when a participant panicked such that the barrier can
    /// never fill.
    pub(super) fn barrier_inner(&mut self, b: BarrierId) {
        // Injection fires before arrival registration, so a dying thread
        // is never counted as an arriver (containment needs no barrier
        // unwind protocol).
        self.maybe_inject_panic(PanicSite::Barrier);
        self.sync_prologue();
        // Barrier-phase delay: a straggler arriving arbitrarily late. The
        // arrival set is fixed by the program (parties), so only waiting
        // time can change.
        self.led.perturb(PerturbSite::Barrier);
        let fresh = self.acquire_token_or_raise();
        if !fresh {
            // Arriving out of a coarsened run: data protected by locks we
            // released (with commits deferred) is still buffered, and we
            // are about to give the token up. Registration in the parallel
            // commit is not visible until install, so flush properly now.
            self.commit_and_update();
        }
        let sh = self.sh;

        // Arrival: register under the token. Wait out stragglers of the
        // previous generation first (they do not need the token to leave).
        let (gen, parties, is_last, pc) = {
            let mut inner =
                self.await_barrier(sh.lock(), b, true, |bst| bst.phase == BarPhase::Collecting);
            let bst = &mut inner.barriers[b.index()];
            bst.arrived.push(self.tid);
            bst.max_arrival_clock = bst.max_arrival_clock.max(self.clock);
            let pc = sh.opts.parallel_barrier.then(|| {
                Arc::clone(
                    bst.pc
                        .get_or_insert_with(|| Arc::new(conversion::ParallelCommit::new())),
                )
            });
            self.led.emit(Event::BarrierArrive {
                tid: self.tid,
                barrier: b,
                gen: bst.gen,
            });
            (bst.gen, bst.parties, bst.arrived.len() == bst.parties, pc)
        };

        // Phase 1 (token-serialized): register dirty pages, or commit
        // serially when the parallel barrier is disabled.
        let my_idx = if let Some(pc) = &pc {
            let (idx, registered) = pc.register(self.ws());
            let c = self.cost.commit_base / 2 + registered as u64 * self.cost.page_register;
            self.led.charge(Row::commit, c);
            Some(idx)
        } else {
            self.commit_and_update();
            None
        };

        // Hand off: the last arriver keeps the token through phase 2 and
        // installation; earlier arrivers depart and wait for the phase
        // change.
        let mut inner = sh.lock();
        if !is_last {
            self.depart(&mut inner);
            self.release(&mut inner, true);
            let next = if pc.is_some() {
                BarPhase::Merging
            } else {
                BarPhase::Installed
            };
            inner = self.follow_barrier(inner, b, gen, next);
        } else if let Some(pc) = &pc {
            pc.seal(&sh.seg);
            let bst = &mut inner.barriers[b.index()];
            bst.phase = BarPhase::Merging;
            bst.merge_start_v = self.led.v();
            inner.wake_waiters();
        } else {
            self.open_barrier(&mut inner, b, gen);
        }
        drop(inner);

        // Phase 2 (parallel): merge assigned pages, then the last arriver
        // installs and opens the barrier.
        if let (Some(pc), Some(idx)) = (&pc, my_idx) {
            // Slow merger: phase 2 runs outside the token, so a stalled
            // participant exercises the install-side wait for stragglers.
            self.led.perturb(PerturbSite::Barrier);
            let w = pc.merge_for(idx);
            let c = w.pages as u64 * self.cost.page_commit + w.merged as u64 * self.cost.page_merge;
            self.led.charge(Row::commit, c);
            // Its commit, auxiliary: the pages it merged are those the
            // install credits to it, in a version not yet numbered.
            self.led.emit_as(
                Event::Commit {
                    tid: self.tid,
                    version: 0,
                    pages: w.pages,
                    merged: w.merged,
                    page_set: 0,
                },
                false,
            );
            let mut inner = sh.lock();
            let bst = &mut inner.barriers[b.index()];
            bst.phase2_done += 1;
            bst.phase2_max_v = bst.phase2_max_v.max(self.led.v());
            // Only the last arriver waits on this count, and only for its
            // final value.
            if bst.phase2_done == parties && !is_last {
                let last_arriver = bst.arrived[parties - 1];
                inner.wakes.push(last_arriver);
            }
            if is_last {
                let inner = self.await_barrier(inner, b, false, |bst| bst.phase2_done == parties);
                let phase2_max_v = inner.barriers[b.index()].phase2_max_v;
                drop(inner);
                pc.install(&sh.seg);
                // The install starts when the slowest merger is done.
                self.led.wait_until(Row::barrier_wait, phase2_max_v);
                self.led.charge(Row::commit, self.cost.commit_base);
                // Still under the token, before `open_barrier` pins the
                // installed version: every participant waits for it, so the
                // pass is a function of the schedule, and the leavers fold
                // its charge in through `install_v`.
                self.collect();
                self.open_barrier(&mut sh.lock(), b, gen);
            } else {
                drop(self.follow_barrier(inner, b, gen, BarPhase::Installed));
            }
        }

        // Everyone: pull the installed state (exactly — later commits by
        // non-participants must not change our update work) and leave.
        let upto = sh.lock().barriers[b.index()].install_version;
        let ur = sh.seg.update_to(self.ws(), upto);
        sh.seg.unpin(upto);
        let u = self.cost.update_base + ur.pages_propagated * self.cost.page_update;
        self.led.charge(Row::update, u);
        // Leavers update concurrently, outside the token: auxiliary.
        self.led.emit_as(
            Event::Update {
                tid: self.tid,
                version: ur.new_base,
                pages: ur.pages_propagated,
            },
            false,
        );

        {
            let mut inner = sh.lock();
            let bst = &mut inner.barriers[b.index()];
            // Deterministic fast-forward: all parties leave at the latest
            // arrival clock, so the next chunk starts even.
            self.clock = self.clock.max(bst.max_arrival_clock);
            bst.leaving += 1;
            if bst.leaving == parties {
                bst.reset();
            }
            inner.wake_waiters();
        }
        self.start_chunk();
        self.last_sync_end_clock = self.clock;
        self.ovf.chunk_start();
    }
}
