//! The replay comparison sink (recorded schedule vs. live re-execution) and
//! the one verdict every replay returns, [`Replayed`].

use dmt_api::sync::Mutex;
use dmt_api::trace::{Divergence, Event, TraceSink};
use dmt_api::{DomainId, Fnv1a};

use crate::meta::TraceMeta;
use crate::reader::{Checkpoint, Trace};
use crate::salvage::PartialTrace;

/// A failed cumulative-hash checkpoint during replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointFailure {
    /// Event index (count folded) at which the checkpoint was taken.
    pub events: u64,
    /// Hash recorded in the trace.
    pub recorded: u64,
    /// Hash the replay computed.
    pub replayed: u64,
}

/// The result of replaying one container by re-execution, through one
/// recorded cell (`dmt_bench::replay::replay`) or a sharded server
/// (`dmt_shard::record`).
/// [`ReplaySink::finish`] builds it.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// The container replayed (empty until the caller names it).
    pub path: String,
    /// Workload the trace names.
    pub workload: String,
    /// Runtime the trace names.
    pub runtime: String,
    /// Schedule events in the recording.
    pub recorded_events: u64,
    /// Schedule events the re-execution produced.
    pub replayed_events: u64,
    /// Recorded schedule hash.
    pub recorded_hash: u64,
    /// Re-executed schedule hash.
    pub replayed_hash: u64,
    /// Cumulative-hash checkpoints that matched.
    pub checkpoints_passed: u64,
    /// Checkpoints in the recording.
    pub checkpoints_total: u64,
    /// The first checkpoint whose hash the re-execution folded
    /// differently. With per-event comparison active this fires only when
    /// the hash folding itself disagrees across builds — the drift the
    /// checkpoints exist to localize.
    pub checkpoint_failure: Option<CheckpointFailure>,
    /// Output hash in the recording's META (0: a salvaged partial, whose
    /// finish-time digests were never written).
    pub recorded_output_hash: u64,
    /// Output hash of the re-execution.
    pub replayed_output_hash: u64,
    /// Commit-log hash in the recording's META (0 as above).
    pub recorded_commit_log_hash: u64,
    /// Commit-log hash of the re-execution.
    pub replayed_commit_log_hash: u64,
    /// Whether the re-executed output hash matched the recording.
    pub output_match: bool,
    /// Whether the re-executed commit-log hash matched the recording.
    pub commit_log_match: bool,
    /// First-divergent-event diagnosis, `None` when the schedule tracked
    /// the recording exactly.
    pub divergence: Option<String>,
    /// Whether the recording was a salvaged partial trace (a crashed or
    /// torn container recovered by `Trace::salvage`).
    pub partial: bool,
    /// Partial replays: live event index at which the recovered prefix
    /// ran out (`None` when the live run ended at the prefix boundary,
    /// or for full traces).
    pub exhausted_at: Option<u64>,
    /// Live schedule hash at the moment the replay had consumed exactly
    /// the recorded events — for a partial, must equal `recorded_hash`.
    /// `None` when the live run ended inside the recording.
    pub prefix_hash: Option<u64>,
    /// Partial replays: file bytes past the tear the salvage gave up on
    /// (0 for full traces).
    pub bytes_lost: u64,
}

impl Replayed {
    /// Whether the replay reproduced the recording completely. Full
    /// traces: identical schedule (length, every event, every checkpoint,
    /// final hash), identical output, identical commit log. Salvaged
    /// partials: the recovered prefix replayed bit-identically (no
    /// divergence inside it, prefix hash equal, every checkpoint passed,
    /// live run at least as long). A digest the recording lacks is not
    /// compared ([`digests`](Replayed::digests)).
    pub fn ok(&self) -> bool {
        self.schedule_ok() && self.checkpoints_ok() && self.output_match && self.commit_log_match
    }

    fn schedule_ok(&self) -> bool {
        self.divergence.is_none()
            && if self.partial {
                self.replayed_events >= self.recorded_events
                    && self.prefix_hash == Some(self.recorded_hash)
            } else {
                self.recorded_events == self.replayed_events
                    && self.recorded_hash == self.replayed_hash
            }
    }

    fn checkpoints_ok(&self) -> bool {
        self.checkpoints_passed == self.checkpoints_total
    }

    /// Records the re-execution's output and commit-log digests and
    /// whether each reproduced. A digest the recording lacks (stored as 0:
    /// a salvaged prefix never wrote its finish-time digests) is not
    /// compared.
    pub fn digests(&mut self, output: u64, commit_log: u64) {
        let held = |recorded: u64, replayed: u64| recorded == 0 || replayed == recorded;
        self.output_match = held(self.recorded_output_hash, output);
        self.commit_log_match = held(self.recorded_commit_log_hash, commit_log);
        self.replayed_output_hash = output;
        self.replayed_commit_log_hash = commit_log;
    }

    /// What the replay found, in words: `reproduced`, or every component
    /// of [`ok`](Replayed::ok) that failed with the recorded and the
    /// replayed value, then the components that held, then the
    /// first-divergent-event diagnosis if there is one. A replay whose
    /// schedule reproduced but whose commit log (or output, or a
    /// checkpoint's hash) did not has no diagnosis to print; this is what
    /// says so.
    pub fn verdict(&self) -> String {
        let mut failed = Vec::new();
        let mut held = Vec::new();
        if self.schedule_ok() {
            held.push("schedule");
        } else if self.divergence.is_some() {
            failed.push("schedule diverged (diagnosis below)".to_string());
        } else {
            failed.push(format!(
                "schedule differs: recorded {} events hash {:#018x}, replayed {} events hash {:#018x}",
                self.recorded_events,
                self.recorded_hash,
                self.replayed_events,
                self.prefix_hash.unwrap_or(self.replayed_hash),
            ));
        }
        if self.checkpoints_ok() {
            held.push("checkpoints");
        } else {
            let mut f = format!(
                "checkpoints differ: {} of {} reproduced",
                self.checkpoints_passed, self.checkpoints_total
            );
            if let Some(c) = self.checkpoint_failure {
                f.push_str(&format!(
                    ", the first to fail at event #{}: recorded {:#018x}, replayed {:#018x}",
                    c.events, c.recorded, c.replayed
                ));
            }
            failed.push(f);
        }
        for (name, ok, recorded, replayed) in [
            (
                "output",
                self.output_match,
                self.recorded_output_hash,
                self.replayed_output_hash,
            ),
            (
                "commit-log",
                self.commit_log_match,
                self.recorded_commit_log_hash,
                self.replayed_commit_log_hash,
            ),
        ] {
            if ok {
                held.push(name);
            } else {
                failed.push(format!(
                    "{name} digest differs: recorded {recorded:#018x}, replayed {replayed:#018x}"
                ));
            }
        }
        if failed.is_empty() {
            return "reproduced".to_string();
        }
        let mut v = failed.join("; ");
        if let Some((last, rest)) = held.split_last() {
            let list = if rest.is_empty() {
                last.to_string()
            } else {
                format!("{} and {last}", rest.join(", "))
            };
            v.push_str(&format!("; {list} reproduced"));
        }
        if let Some(d) = &self.divergence {
            v.push('\n');
            v.push_str(d);
        }
        v
    }

    /// One-line human rendering: `[OK]` or `[DIVERGED]`, then each
    /// compared value as replayed/recorded.
    pub fn summarize(&self) -> String {
        let verdict = if self.ok() { "OK" } else { "DIVERGED" };
        let salvage = if self.partial {
            format!(
                " [salvaged prefix, {} bytes lost, prefix hash {}]",
                self.bytes_lost,
                self.prefix_hash
                    .map_or_else(|| "unreached".to_string(), |h| format!("{h:#018x}")),
            )
        } else {
            String::new()
        };
        format!(
            "[{verdict}] {} {} {}: events {}/{} hash {:#018x}/{:#018x} checkpoints {}/{} output={} commits={}{salvage}",
            self.workload,
            self.runtime,
            self.path,
            self.replayed_events,
            self.recorded_events,
            self.replayed_hash,
            self.recorded_hash,
            self.checkpoints_passed,
            self.checkpoints_total,
            self.output_match,
            self.commit_log_match,
        )
    }
}

struct ReplayState {
    cursor: usize,
    hash: Fnv1a,
    divergence: Option<Divergence>,
    next_ckpt: usize,
    checkpoints_passed: u64,
    checkpoint_failure: Option<CheckpointFailure>,
    /// Partial mode: live event index at which the recording ran out
    /// (clean exhaustion, not divergence).
    exhausted_at: Option<u64>,
    /// Live schedule hash at the moment the cursor crossed the end of
    /// the recording — the value compared against the (partial) trace's
    /// recorded prefix hash.
    prefix_hash: Option<u64>,
}

/// A [`TraceSink`] that checks a re-execution against a recorded trace
/// event by event.
///
/// Attached as the replaying runtime's trace sink, it folds the live
/// schedule hash exactly like a `HashSink`, compares every schedule
/// event against the recorded stream, verifies each per-page cumulative
/// hash checkpoint as it is crossed, and on the first mismatch builds
/// the same first-divergent-event [`Divergence`] diagnosis the stress
/// harness produces. It only observes: the run it watches schedules
/// itself, so a divergent run completes and the verdict says where it
/// split.
///
/// Call [`finish`](ReplaySink::finish) after the run for the verdict.
pub struct ReplaySink {
    recorded: Vec<(DomainId, Event)>,
    checkpoints: Vec<Checkpoint>,
    meta: TraceMeta,
    /// Partial mode: the recording is a salvaged prefix of a longer run,
    /// so the live run outliving it is *exhaustion*, not divergence.
    partial: bool,
    /// Partial mode: file bytes the salvage gave up on.
    bytes_lost: u64,
    st: Mutex<ReplayState>,
}

impl ReplaySink {
    /// Builds the comparison sink for `trace`.
    pub fn new(trace: &Trace) -> ReplaySink {
        ReplaySink::build(trace, None)
    }

    /// Builds the sink in **partial mode**, for a trace salvaged from a
    /// crashed recording: the live run emitting more events than were
    /// recorded is reported as clean exhaustion
    /// ([`Replayed::exhausted_at`]) rather than divergence, and the live
    /// hash at the crossing point is captured as
    /// [`Replayed::prefix_hash`]. Every event *within* the recorded prefix
    /// is still compared exactly as in full mode.
    pub fn new_partial(partial: &PartialTrace) -> ReplaySink {
        ReplaySink::build(&partial.trace, Some(partial.loss.bytes_lost))
    }

    fn build(trace: &Trace, bytes_lost: Option<u64>) -> ReplaySink {
        let recorded = trace.domain_events();
        // An empty recording is already exhausted: its prefix hash is
        // the empty-stream hash.
        let prefix_hash = recorded.is_empty().then(|| Fnv1a::new().digest());
        ReplaySink {
            recorded,
            checkpoints: trace.checkpoints.clone(),
            meta: trace.meta.clone(),
            partial: bytes_lost.is_some(),
            bytes_lost: bytes_lost.unwrap_or(0),
            st: Mutex::new(ReplayState {
                cursor: 0,
                hash: Fnv1a::new(),
                divergence: None,
                next_ckpt: 0,
                checkpoints_passed: 0,
                checkpoint_failure: None,
                exhausted_at: None,
                prefix_hash,
            }),
        }
    }

    fn context_before(&self, index: usize) -> Vec<(usize, Event)> {
        (index.saturating_sub(5)..index)
            .map(|i| (i, self.recorded[i].1))
            .collect()
    }

    /// The verdict, once the run is over. A replay that emitted fewer
    /// schedule events than were recorded diverged at its end — in partial
    /// mode too: the salvaged prefix itself must replay fully — which
    /// per-event comparison alone cannot see, so that divergence is
    /// recorded first if none was seen earlier. The re-execution's
    /// digests and the container's path are the caller's to fill in
    /// ([`Replayed::digests`]); until then only a digest the recording
    /// lacks holds.
    pub fn finish(&self) -> Replayed {
        let mut st = self.st.lock();
        if st.divergence.is_none() && st.cursor < self.recorded.len() {
            let (domain, ev) = self.recorded[st.cursor];
            st.divergence = Some(Divergence {
                index: st.cursor,
                left: Some(ev),
                right: None,
                context: self.context_before(st.cursor),
                domain,
            });
        }
        let mut r = Replayed {
            path: String::new(),
            workload: self.meta.workload.clone(),
            runtime: self.meta.runtime.clone(),
            recorded_events: self.meta.event_count,
            replayed_events: st.cursor as u64,
            recorded_hash: self.meta.schedule_hash,
            replayed_hash: st.hash.digest(),
            checkpoints_passed: st.checkpoints_passed,
            checkpoints_total: self.checkpoints.len() as u64,
            checkpoint_failure: st.checkpoint_failure,
            recorded_output_hash: self.meta.output_hash,
            replayed_output_hash: 0,
            recorded_commit_log_hash: self.meta.commit_log_hash,
            replayed_commit_log_hash: 0,
            output_match: false,
            commit_log_match: false,
            divergence: st.divergence.as_ref().map(|d| d.to_string()),
            partial: self.partial,
            exhausted_at: st.exhausted_at,
            prefix_hash: st.prefix_hash,
            bytes_lost: self.bytes_lost,
        };
        // No digest replayed yet: only one the recording lacks holds.
        r.digests(0, 0);
        r
    }
}

impl ReplaySink {
    /// Folds one live schedule event and compares it with the recording.
    fn compare(&self, st: &mut ReplayState, ev: &Event, domain: DomainId) {
        ev.fold_domain(domain, &mut st.hash);
        let i = st.cursor;
        st.cursor += 1;
        if st.divergence.is_none() {
            match self.recorded.get(i) {
                Some((rec_d, rec)) if rec == ev && *rec_d == domain => {}
                Some((rec_d, rec)) => {
                    // Name the recorded side's domain unless only the
                    // live side exists there.
                    st.divergence = Some(Divergence {
                        index: i,
                        left: Some(*rec),
                        right: Some(*ev),
                        context: self.context_before(i),
                        domain: *rec_d,
                    });
                }
                None if self.partial => {
                    // A salvaged prefix ran out mid-run: the recording
                    // ends here by construction, not by disagreement.
                    if st.exhausted_at.is_none() {
                        st.exhausted_at = Some(i as u64);
                    }
                }
                None => {
                    // The replay ran past the end of the recording.
                    st.divergence = Some(Divergence {
                        index: i,
                        left: None,
                        right: Some(*ev),
                        context: self.context_before(i),
                        domain,
                    });
                }
            }
        }
        if st.cursor == self.recorded.len() && st.prefix_hash.is_none() {
            st.prefix_hash = Some(st.hash.digest());
        }
        if let Some(ck) = self.checkpoints.get(st.next_ckpt) {
            if st.cursor as u64 == ck.events {
                st.next_ckpt += 1;
                if st.hash.digest() == ck.hash {
                    st.checkpoints_passed += 1;
                } else if st.checkpoint_failure.is_none() {
                    st.checkpoint_failure = Some(CheckpointFailure {
                        events: ck.events,
                        recorded: ck.hash,
                        replayed: st.hash.digest(),
                    });
                }
            }
        }
    }
}

impl TraceSink for ReplaySink {
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId) {
        if in_schedule {
            self.emit_all(&[(*ev, true)], domain);
        }
    }

    fn emit_all(&self, evs: &[(Event, bool)], domain: DomainId) {
        let mut st = self.st.lock();
        for (ev, _) in evs.iter().filter(|(_, s)| *s) {
            self.compare(&mut st, ev, domain);
        }
    }

    fn schedule_hash(&self) -> u64 {
        self.st.lock().hash.digest()
    }
}
