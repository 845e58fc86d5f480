//! Figure 16's happens-before estimate, folded from a run's events.
//!
//! The paper asks (§5.3): how much less memory would a lazy-release-
//! consistency (LRC) deterministic system propagate than TSO Consequence?
//! It gives threads, synchronization objects and commits vector clocks,
//! and at every acquire counts the pages that would have to flow along
//! happens-before edges. [`LrcFold`] computes that count after the fact,
//! as a [`TraceSink`]: every edge is an event the runtime emits anyway,
//! so the runtime keeps no estimator, and a run with the fold attached is
//! the run without it.
//!
//! A commit by thread `u` carrying `u`'s vector clock `C` must be
//! propagated to thread `t` at the first acquire where `C ≤ V_t`. Because
//! `C` is dominated by its own component (`u`'s commit counter), `C ≤ V_t`
//! exactly when `V_t[u] ≥ C[u]`: an acquire that raises `V_t[u]` from `a`
//! to `b` receives `u`'s commits `a + 1 ..= b`, and no commit is scanned.
//!
//! # Edges
//!
//! | event | edge |
//! |---|---|
//! | `Commit`, `pages > 0` | a commit by `tid` |
//! | `MutexLock` / `MutexUnlock` | acquire / release of the mutex |
//! | `RwAcquire` / `RwRelease` | acquire / release of the lock, one chain for both modes; a hand-off grant is the grantee's acquire |
//! | `Spawn` | the child starts with the parent's clock |
//! | `Exit`, `ThreadPanic` | release of the exiting thread |
//! | `Join` | acquire of the joined thread |
//! | `BarrierArrive` | release of the barrier |
//! | `BarrierOpen` | acquire of the barrier by every arriver of the generation |
//! | `CondSignal` / `CondBroadcast` | release of the cond, then acquire by each woken waiter |
//!
//! A spawn propagates nothing: a forked child starts with a copy of its
//! parent's memory. Each parallel-barrier participant emits the pages it
//! merged, which the install credits to it, as an auxiliary `Commit`
//! before the `BarrierOpen`, so the open's acquires come after those
//! commits. A
//! `.dmtrace` recording keeps schedule events only: folded from one, a
//! parallel-barrier program's estimate lacks those commits.
//!
//! Two edges are taken where the schedule puts them, not where the woken
//! thread resumes:
//!
//! * A cond waiter acquires at the signal that wakes it: the signal's
//!   `woken`, or for a broadcast (which carries only a count) the head of
//!   the FIFO the fold rebuilds from `CondWait`. Acquiring at the waiter's
//!   resume would read the cond's clock at a wall-clock moment, which a
//!   second signal of the same cond can reach first.
//! * A waiter whose mutex's owner panics is woken with `CondOwnerDied` and
//!   acquires nothing: at the owner's `ThreadPanic` the fold drops every
//!   waiter queued to retake a mutex that owner held.
//!
//! The fold reads one token domain: it ignores the domain of an event.

use std::collections::{HashMap, VecDeque};

use dmt_api::sync::Mutex;
use dmt_api::trace::{Event, TraceSink};
use dmt_api::{DomainId, Tid, VectorClock};

/// A synchronization object a happens-before edge runs through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Object {
    Mutex(u32),
    Cond(u32),
    Barrier(u32),
    RwLock(u32),
    Thread(u32),
}

/// The Figure 16 estimator: attach it as a run's trace sink, then read
/// [`LrcFold::pages_propagated`].
pub struct LrcFold {
    st: Mutex<Fold>,
}

struct Fold {
    /// Per-thread vector clock.
    threads: Vec<VectorClock>,
    /// Per-object vector clock, created at the object's first release.
    objects: HashMap<Object, VectorClock>,
    /// `pages[u][k - 1]`: the pages in `u`'s `k`-th commit.
    pages: Vec<Vec<u32>>,
    /// Pages an LRC system would have propagated.
    propagated: u64,
    /// Each held mutex's owner.
    owners: HashMap<u32, Tid>,
    /// Each cond's queued waiters, with the mutex each is to retake.
    conds: HashMap<u32, VecDeque<(Tid, u32)>>,
    /// Each barrier's arrivals in its open generation.
    arrived: HashMap<u32, Vec<Tid>>,
}

impl LrcFold {
    /// A fold for runs of up to `slots` threads (`CommonConfig::max_threads`).
    pub fn new(slots: usize) -> LrcFold {
        LrcFold {
            st: Mutex::new(Fold {
                threads: (0..slots).map(|_| VectorClock::new(slots)).collect(),
                objects: HashMap::new(),
                pages: vec![Vec::new(); slots],
                propagated: 0,
                owners: HashMap::new(),
                conds: HashMap::new(),
                arrived: HashMap::new(),
            }),
        }
    }

    /// Pages an LRC system would have propagated so far.
    pub fn pages_propagated(&self) -> u64 {
        self.st.lock().propagated
    }
}

impl TraceSink for LrcFold {
    fn emit(&self, ev: &Event, _in_schedule: bool, _domain: DomainId) {
        self.st.lock().fold(ev);
    }
}

impl Fold {
    fn fold(&mut self, ev: &Event) {
        match *ev {
            Event::Commit { tid, pages, .. } => self.commit(tid, pages),
            Event::MutexLock { tid, mutex, .. } => {
                self.owners.insert(mutex.0, tid);
                self.acquire(tid, Object::Mutex(mutex.0));
            }
            Event::MutexUnlock { tid, mutex, .. } => {
                self.owners.remove(&mutex.0);
                self.release(tid, Object::Mutex(mutex.0));
            }
            Event::CondWait { tid, cond, mutex } => {
                self.conds
                    .entry(cond.0)
                    .or_default()
                    .push_back((tid, mutex.0));
            }
            Event::CondSignal { tid, cond, woken } => {
                let woke = self.wake(tid, cond.0, usize::from(woken.is_some()));
                debug_assert_eq!(woke.first().copied(), woken, "cond {} FIFO", cond.0);
            }
            Event::CondBroadcast { tid, cond, woken } => {
                self.wake(tid, cond.0, woken as usize);
            }
            Event::RwAcquire { tid, lock, .. } => self.acquire(tid, Object::RwLock(lock.0)),
            Event::RwRelease { tid, lock, .. } => self.release(tid, Object::RwLock(lock.0)),
            Event::Spawn { parent, child, .. } => {
                let pvc = self.threads[parent.index()].clone();
                self.threads[child.index()].join(&pvc);
            }
            Event::Exit { tid, .. } => self.release(tid, Object::Thread(tid.0)),
            Event::ThreadPanic { tid, .. } => {
                self.evict_waiters_of(tid);
                self.release(tid, Object::Thread(tid.0));
            }
            Event::Join { tid, target } => self.acquire(tid, Object::Thread(target.0)),
            Event::BarrierArrive { tid, barrier, .. } => {
                self.release(tid, Object::Barrier(barrier.0));
                self.arrived.entry(barrier.0).or_default().push(tid);
            }
            Event::BarrierOpen { barrier, .. } => {
                for t in self.arrived.remove(&barrier.0).unwrap_or_default() {
                    self.acquire(t, Object::Barrier(barrier.0));
                }
            }
            _ => {}
        }
    }

    /// A commit of `npages` pages by `t`.
    fn commit(&mut self, t: Tid, npages: u32) {
        if npages > 0 {
            self.threads[t.index()].tick(t);
            self.pages[t.index()].push(npages);
        }
    }

    /// Release edge: `t`'s knowledge flows into `obj`.
    fn release(&mut self, t: Tid, obj: Object) {
        let n = self.threads.len();
        self.objects
            .entry(obj)
            .or_insert_with(|| VectorClock::new(n))
            .join(&self.threads[t.index()]);
    }

    /// Acquire edge: `obj`'s knowledge flows into `t`, and every commit
    /// that now happened-before `t` is charged as propagation. A thread's
    /// own commits are local, never propagated.
    fn acquire(&mut self, t: Tid, obj: Object) {
        let Some(vc) = self.objects.get(&obj) else {
            return;
        };
        let clock = &mut self.threads[t.index()];
        for (u, pages) in self.pages.iter().enumerate() {
            let u = Tid(u as u32);
            let (had, knows) = (clock.get(u) as usize, vc.get(u) as usize);
            if u != t && knows > had {
                self.propagated += pages[had..knows].iter().map(|&p| u64::from(p)).sum::<u64>();
            }
        }
        clock.join(vc);
    }

    /// Releases `cond` and wakes the first `n` of its queued waiters, in
    /// queue order; returns them.
    fn wake(&mut self, t: Tid, cond: u32, n: usize) -> Vec<Tid> {
        self.release(t, Object::Cond(cond));
        let queue = self.conds.entry(cond).or_default();
        debug_assert!(n <= queue.len(), "cond {cond} wakes {n} of {}", queue.len());
        let woke: Vec<Tid> = queue.drain(..n.min(queue.len())).map(|(w, _)| w).collect();
        for &w in &woke {
            self.acquire(w, Object::Cond(cond));
        }
        woke
    }

    /// Drops the cond waiters that a panic of `dead` woke with
    /// `CondOwnerDied`: those queued to retake a mutex `dead` held.
    fn evict_waiters_of(&mut self, dead: Tid) {
        let held: Vec<u32> = self
            .owners
            .iter()
            .filter(|(_, owner)| **owner == dead)
            .map(|(m, _)| *m)
            .collect();
        self.owners.retain(|_, owner| *owner != dead);
        for queue in self.conds.values_mut() {
            queue.retain(|(_, m)| !held.contains(m));
        }
    }
}

#[cfg(test)]
mod tests {
    //! [`LrcFold`] over hand-written event sequences.

    use super::*;
    use dmt_api::{BarrierId, CondId, MutexId};

    fn commit(tid: u32, pages: u32) -> Event {
        Event::Commit {
            tid: Tid(tid),
            version: 0,
            pages,
            merged: 0,
            page_set: 0,
        }
    }

    fn lock(tid: u32, m: u32) -> Event {
        Event::MutexLock {
            tid: Tid(tid),
            mutex: MutexId(m),
            ticket: 0,
        }
    }

    fn unlock(tid: u32, m: u32) -> Event {
        Event::MutexUnlock {
            tid: Tid(tid),
            mutex: MutexId(m),
            woke: None,
        }
    }

    fn cond_wait(tid: u32, c: u32, m: u32) -> Event {
        Event::CondWait {
            tid: Tid(tid),
            cond: CondId(c),
            mutex: MutexId(m),
        }
    }

    /// Folds `events` into a fresh fold for `slots` threads.
    fn fold(slots: usize, events: &[Event]) -> u64 {
        let f = LrcFold::new(slots);
        for ev in events {
            f.emit(ev, true, DomainId::ROOT);
        }
        f.pages_propagated()
    }

    #[test]
    fn unrelated_commits_are_not_propagated() {
        assert_eq!(
            fold(4, &[commit(0, 10), lock(1, 0)]),
            0,
            "no happens-before edge from T0's commit to T1's acquire"
        );
    }

    #[test]
    fn release_acquire_chain_propagates_once() {
        let chain = [commit(0, 10), unlock(0, 0), lock(1, 0)];
        assert_eq!(fold(4, &chain), 10);
        // Re-acquiring adds nothing new.
        assert_eq!(
            fold(4, &[&chain[..], &[unlock(1, 0), lock(1, 0)]].concat()),
            10
        );
    }

    #[test]
    fn own_commits_never_count() {
        assert_eq!(fold(2, &[commit(0, 5), unlock(0, 0), lock(0, 0)]), 0);
    }

    #[test]
    fn point_to_point_vs_barrier_broadcast() {
        // Under LRC, a commit released through lock A reaches only the
        // thread that acquires A; a barrier release reaches everyone.
        // T2 never touches lock 0: nothing flows to it.
        assert_eq!(fold(3, &[commit(0, 4), unlock(0, 0), lock(1, 0)]), 4);

        let mut barrier = vec![commit(0, 4)];
        barrier.extend((0..3).map(|t| Event::BarrierArrive {
            tid: Tid(t),
            barrier: BarrierId(0),
            gen: 0,
        }));
        barrier.push(Event::BarrierOpen {
            tid: Tid(2),
            barrier: BarrierId(0),
            gen: 0,
            install_version: 1,
        });
        assert_eq!(
            fold(3, &barrier),
            8,
            "both other threads receive T0's 4 pages"
        );
    }

    #[test]
    fn transitive_happens_before_counts() {
        let events = [
            commit(0, 3),
            unlock(0, 0),
            lock(1, 0), // +3
            commit(1, 2),
            unlock(1, 1),
            // T2 acquires lock 1: receives T1's commit AND, transitively,
            // T0's commit carried by T1's vector clock.
            lock(2, 1), // +2 +3
        ];
        assert_eq!(fold(3, &events), 8);
    }

    #[test]
    fn spawn_edge_is_free_fork_copies_memory() {
        let spawn = [
            commit(0, 6),
            Event::Spawn {
                parent: Tid(0),
                child: Tid(1),
                pooled: false,
            },
        ];
        assert_eq!(
            fold(2, &spawn),
            0,
            "a forked child starts with the parent's memory"
        );
        // But later commits do flow.
        let later = [commit(0, 2), unlock(0, 0), lock(1, 0)];
        assert_eq!(fold(2, &[&spawn[..], &later[..]].concat()), 2);
    }

    #[test]
    fn empty_commits_are_free() {
        assert_eq!(fold(2, &[commit(0, 0), unlock(0, 0), lock(1, 0)]), 0);
    }

    #[test]
    fn a_broadcast_wakes_the_queued_waiters_in_fifo_order() {
        let c = CondId(0);
        let events = [
            cond_wait(1, 0, 0),
            cond_wait(2, 0, 0),
            commit(0, 4),
            // The head, T1, takes T0's 4 pages.
            Event::CondSignal {
                tid: Tid(0),
                cond: c,
                woken: Some(Tid(1)),
            },
            cond_wait(3, 0, 0),
            commit(0, 1),
            // T2 and then T3, both behind T1: 5 pages each.
            Event::CondBroadcast {
                tid: Tid(0),
                cond: c,
                woken: 2,
            },
            cond_wait(2, 0, 0),
            commit(0, 2),
            // The queue now holds T2 alone: T1 must not be woken twice.
            Event::CondBroadcast {
                tid: Tid(0),
                cond: c,
                woken: 1,
            },
        ];
        assert_eq!(fold(4, &events), 4 + 5 + 5 + 2);
    }

    #[test]
    fn a_waiter_evicted_by_a_dead_owner_acquires_nothing() {
        let events = [
            // T2 receives T3's first 5 pages through mutex 2.
            commit(3, 5),
            unlock(3, 2),
            lock(2, 2),
            // T1 waits on cond 0 to retake mutex 0; T0 then takes mutex 0
            // and dies holding it: T1 is woken with `CondOwnerDied`.
            lock(1, 0),
            unlock(1, 0),
            cond_wait(1, 0, 0),
            lock(0, 0),
            Event::ThreadPanic {
                tid: Tid(0),
                clock: 0,
            },
            // T2 waits on the same cond with mutex 1 and is the head now: the
            // signal brings it T3's last page, where T1 would take all 6.
            cond_wait(2, 0, 1),
            commit(3, 1),
            Event::CondSignal {
                tid: Tid(3),
                cond: CondId(0),
                woken: Some(Tid(2)),
            },
        ];
        assert_eq!(fold(4, &events), 5 + 1);
    }
}
