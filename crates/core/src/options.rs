//! Runtime options: the paper's optimizations as independent toggles.
//!
//! Figure 13 evaluates Consequence with each optimization disabled in turn;
//! these options are that ablation surface. The presets at the bottom
//! configure the runtime as Consequence-IC, Consequence-RR and DWC.

use det_clock::{OrderPolicy, SchedKind};

use crate::coarsen;

/// Consequence configuration. Each field's doc ends with *Needed by*: the
/// figure, baseline, drill or test that would lose its subject without it.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Deterministic ordering policy: instruction count (Consequence-IC)
    /// or round robin (Consequence-RR / DWC). *Needed by* Figures 10–11:
    /// the `consequence-ic` column against `consequence-rr` and `dwc`.
    pub order: OrderPolicy,
    /// Adaptive coarsening of chunks (§3.1). *Needed by* Figure 13 (its
    /// first ablation) and the `dwc` baseline, which has none.
    pub coarsening: bool,
    /// Fixed coarsening budget in instructions; `None` means the adaptive
    /// multiplicative-increase / multiplicative-decrease policy. *Needed
    /// by* Figure 14, the static sweep.
    pub static_coarsen: Option<u64>,
    /// Fast-forward lagging logical clocks on token acquisition (§3.5).
    /// *Needed by* Figure 13 and the `dwc` baseline.
    pub fast_forward: bool,
    /// Two-phase parallel barrier commit (§4.2); otherwise barrier commits
    /// are serial, as in DWC. *Needed by* Figure 13 and the `dwc` baseline.
    pub parallel_barrier: bool,
    /// Adaptive counter-overflow notification (§3.2); otherwise a fixed
    /// overflow interval. *Needed by* Figure 13, the `figures extras`
    /// overflow sweep, and `GOLDEN_VTIME` (`tests/golden_hashes.rs`), whose
    /// virtual time reproduces only with it off.
    pub adaptive_overflow: bool,
    /// Read performance counters from user space during coarsened chunks
    /// (§3.4); otherwise every read costs a syscall. *Needed by* Figure 13.
    pub user_counter_read: bool,
    /// Reuse exited threads for new spawns (§3.3). *Needed by* the
    /// `figures extras` pool ablation (`without("thread_pool")`).
    pub thread_pool: bool,
    /// Commit forcibly after this many instructions in one chunk —
    /// the §2.7 ad-hoc synchronization escape hatch. The paper evaluates
    /// with this disabled (`None`). *Needed by* `examples/adhoc_spin.rs`
    /// and `chunk_limit_supports_ad_hoc_synchronization`.
    pub chunk_limit: Option<u64>,
    /// Alias every mutex to one global lock, as DThreads and DWC do.
    /// *Needed by* the `dwc` baseline of Figures 10–11.
    pub single_global_lock: bool,
    /// Kendo-style polling locks (§4.1) with this clock increment: a
    /// failed acquire does not block and depart; instead the thread adds
    /// the increment (Kendo's tuning knob) to its logical clock and
    /// retries. The paper contrasts its blocking queue-based mutex (the
    /// default, `None`) against this design — polling burns token
    /// acquisitions and needs a program-specific increment. *Needed by*
    /// the `figures extras` Kendo contrast and `tests/polling_locks.rs`.
    pub polling: Option<u64>,
    /// Inert; deleted with ROADMAP item 3(a). *Needed by* nothing here:
    /// frozen `e2e/` names it. There is one clock table kind.
    #[doc(hidden)]
    pub sched: SchedKind,
    /// Base overflow interval in instructions (§3.2 uses 5 000). *Needed
    /// by* the `figures extras` overflow sweep.
    pub base_overflow: u64,
    /// **Deliberate determinism bug** for the `dmt-stress` harness: a
    /// thread arriving at a free token takes it
    /// without the deterministic eligibility check, so physical arrival
    /// order leaks into the schedule — the bug class where one
    /// `clockDepart` / publication update is missed. Never enable outside
    /// the stress harness; see `docs/STRESS.md`. *Needed by*
    /// `stress --inject-bug`.
    pub inject_eligibility_bug: bool,
    /// Watchdog stall threshold in milliseconds: when live threads exist
    /// but no token is granted for this long, the supervisor diagnoses a
    /// deadlock and shuts the run down with
    /// [`dmt_api::DmtError::Deadlock`] instead of hanging. It only
    /// diagnoses; nothing it does changes the schedule. `None` disables
    /// supervision. Pure-compute stalls (threads that never synchronize)
    /// are indistinguishable from deadlock to a logical-progress watchdog;
    /// see `docs/ROBUSTNESS.md`. *Needed by*
    /// `watchdog_diagnoses_deadlock_instead_of_hanging`.
    pub watchdog_stall_ms: Option<u64>,
    /// Inert; deleted with ROADMAP item 3(a). *Needed by* nothing here:
    /// frozen `e2e/` names it.
    #[doc(hidden)]
    pub pipeline_commit: bool,
    /// Inert; deleted with ROADMAP item 3(a). *Needed by* nothing here:
    /// frozen `e2e/` names it.
    #[doc(hidden)]
    pub pipeline_workers: usize,
    /// Flush cadence for disk trace recording: hand the container's bytes
    /// to the OS (a `write`; only `finish` syncs) after every this many
    /// sealed event pages, so a SIGKILLed recording loses at most that
    /// much schedule to the trace salvage path. `0` writes only when the
    /// writer's buffer fills, and at finish. Observation-only — flushing
    /// never touches logical time — so deliberately **not** part of the
    /// options fingerprint, like the other schedule-neutral knobs. *Needed
    /// by* nothing that sets it: `dmt_bench::replay::record_to` reads the
    /// preset's 8 for every recording (`stress --trace-chaos`'s included).
    pub trace_flush_pages: u32,
}

/// The preset a recorded runtime label names ([`dmt_api::Runtime::name`]).
pub fn options_for_label(label: &str) -> Option<Options> {
    match label {
        "consequence-ic" => Some(Options::consequence_ic()),
        "consequence-rr" => Some(Options::consequence_rr()),
        "dwc" => Some(Options::dwc()),
        _ => None,
    }
}

impl Options {
    /// Consequence-IC: the paper's headline configuration.
    pub fn consequence_ic() -> Options {
        Options {
            order: OrderPolicy::InstructionCount,
            coarsening: true,
            static_coarsen: None,
            fast_forward: true,
            parallel_barrier: true,
            adaptive_overflow: true,
            user_counter_read: true,
            thread_pool: true,
            chunk_limit: None,
            single_global_lock: false,
            polling: None,
            sched: SchedKind,
            base_overflow: det_clock::overflow::BASE_OVERFLOW,
            inject_eligibility_bug: false,
            watchdog_stall_ms: Some(5_000),
            pipeline_commit: false,
            pipeline_workers: 2,
            trace_flush_pages: 8,
        }
    }

    /// Consequence-RR: identical except for round-robin ordering.
    pub fn consequence_rr() -> Options {
        Options {
            order: OrderPolicy::RoundRobin,
            ..Options::consequence_ic()
        }
    }

    /// DWC (DThreads-with-Conversion): round-robin ordering, asynchronous
    /// commits at sync ops, serial barrier commits, single global lock, no
    /// Consequence optimizations.
    pub fn dwc() -> Options {
        Options {
            order: OrderPolicy::RoundRobin,
            coarsening: false,
            fast_forward: false,
            parallel_barrier: false,
            adaptive_overflow: false,
            user_counter_read: false,
            thread_pool: false,
            single_global_lock: true,
            ..Options::consequence_ic()
        }
    }

    /// FNV-1a fingerprint of every schedule-relevant option.
    ///
    /// A recorded trace is only meaningful for the configuration that
    /// produced it; the fingerprint is stored in the trace META stream
    /// and checked before replay. Deliberately **excluded** because they
    /// cannot change the schedule (and legitimately differ on replay):
    /// `watchdog_stall_ms` (supervision only),
    /// `trace_flush_pages` (durability of the recording medium; never
    /// touches logical time), and the three inert fields left behind by the
    /// removed settle pool and the removed second clock table kind (nothing
    /// reads them, and recordings made while they were live keep their
    /// fingerprints).
    pub fn fingerprint(&self) -> u64 {
        let mut h = dmt_api::Fnv1a::new();
        let mut put = |x: u64| h.update(&x.to_le_bytes());
        put(self.order as u64);
        put(self.coarsening as u64);
        put(self.static_coarsen.unwrap_or(u64::MAX));
        put(self.fast_forward as u64);
        put(self.parallel_barrier as u64);
        put(self.adaptive_overflow as u64);
        put(self.user_counter_read as u64);
        put(self.thread_pool as u64);
        put(self.chunk_limit.unwrap_or(u64::MAX));
        put(self.single_global_lock as u64);
        // Polling folds as the two fields it replaced did, with the old
        // default increment when it is off.
        put(self.polling.is_some() as u64);
        put(self.polling.unwrap_or(1_000));
        put(self.base_overflow);
        // The coarsening bounds are constants; they fold where the fields
        // they replaced did, so every recorded fingerprint stays valid.
        put(coarsen::INITIAL_BUDGET);
        put(coarsen::MIN_BUDGET);
        put(coarsen::BUDGET_CAP);
        put(self.inject_eligibility_bug as u64);
        // The scheduler-corruption drill went with the second clock table
        // kind; it never fired in a recording, so its `None` folds on.
        put(u64::MAX);
        // A sharded run continues this fold with its shard parameters
        // (`dmt_shard::ShardCfg::fingerprint`).
        h.digest()
    }

    /// Refuses a recording whose fingerprint is not `current`, this
    /// build's fingerprint of the run it would replay: the schedule it
    /// holds is not expected to apply.
    pub fn check_fingerprint(recorded: u64, current: u64) -> Result<(), String> {
        (current == recorded).then_some(()).ok_or_else(|| {
            format!(
                "options fingerprint mismatch: recorded {recorded:#018x}, \
                 this build {current:#018x}"
            )
        })
    }

    /// Disables one named optimization, for Figure 13 ablations.
    ///
    /// Recognized names: `"coarsening"`, `"fast_forward"`,
    /// `"parallel_barrier"`, `"adaptive_overflow"`, `"user_counter_read"`,
    /// `"thread_pool"`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name.
    pub fn without(mut self, opt: &str) -> Options {
        match opt {
            "coarsening" => self.coarsening = false,
            "fast_forward" => self.fast_forward = false,
            "parallel_barrier" => self.parallel_barrier = false,
            "adaptive_overflow" => self.adaptive_overflow = false,
            "user_counter_read" => self.user_counter_read = false,
            "thread_pool" => self.thread_pool = false,
            other => panic!("unknown optimization {other:?}"),
        }
        self
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::consequence_ic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_the_paper_says() {
        let ic = Options::consequence_ic();
        let rr = Options::consequence_rr();
        let dwc = Options::dwc();
        assert_eq!(ic.order, OrderPolicy::InstructionCount);
        assert_eq!(rr.order, OrderPolicy::RoundRobin);
        assert!(ic.coarsening && !dwc.coarsening);
        assert!(ic.parallel_barrier && !dwc.parallel_barrier);
        assert!(!ic.single_global_lock && dwc.single_global_lock);
    }

    #[test]
    fn without_disables_each_named_optimization() {
        for name in [
            "coarsening",
            "fast_forward",
            "parallel_barrier",
            "adaptive_overflow",
            "user_counter_read",
            "thread_pool",
        ] {
            let o = Options::consequence_ic().without(name);
            let disabled = match name {
                "coarsening" => !o.coarsening,
                "fast_forward" => !o.fast_forward,
                "parallel_barrier" => !o.parallel_barrier,
                "adaptive_overflow" => !o.adaptive_overflow,
                "user_counter_read" => !o.user_counter_read,
                "thread_pool" => !o.thread_pool,
                _ => unreachable!(),
            };
            assert!(disabled, "{name} not disabled");
        }
    }

    /// Every preset's fingerprint, captured before the scheduler-corruption
    /// drill and the second clock table kind were deleted: recordings made
    /// then replay now.
    #[test]
    fn preset_fingerprints_are_unchanged() {
        let ic = Options::consequence_ic().fingerprint();
        assert_eq!(ic, 0x2b33a81b30e0847d);
        assert_eq!(Options::consequence_rr().fingerprint(), 0x3e512a9a9792395c);
        assert_eq!(Options::dwc().fingerprint(), 0x150f64a59049609d);
    }

    #[test]
    #[should_panic(expected = "unknown optimization")]
    fn without_unknown_panics() {
        let _ = Options::consequence_ic().without("warp_drive");
    }

    /// The `dmt_server` golden cell of `tests/golden_hashes.rs`:
    /// `(schedule_hash, commit_log_hash)` at 4 threads, scale 1, seed 42.
    fn dmt_server_cell(opts: Options) -> (u64, u64) {
        use dmt_api::Runtime;
        let w = dmt_workloads::workload_by_name("dmt_server").unwrap();
        let p = dmt_workloads::Params::new(4, 1, 42);
        let cfg = dmt_api::CommonConfig {
            heap_pages: w.heap_pages(&p),
            trace: dmt_api::TraceHandle::to(std::sync::Arc::new(dmt_api::HashSink::new())),
            ..dmt_api::CommonConfig::default()
        };
        let mut rt = crate::ConsequenceRuntime::new(cfg, opts);
        let prepared = w.prepare(&mut rt, &p);
        let report = rt.run(prepared.job);
        (report.schedule_hash, report.commit_log_hash)
    }

    /// Every field is either fingerprinted — a changed value changes
    /// `fingerprint()`, so a recording is refused by a build that would
    /// schedule it differently — or excluded, and then provably
    /// schedule-neutral: the golden cell does not move. (Flush/watchdog
    /// knobs fold not at all, so traces recorded under other values of
    /// them stay replayable. The two `pipeline_*` cases are the test that
    /// the settle pool's residue is inert; the kind field has one value.)
    #[test]
    fn fingerprint_membership_is_complete() {
        // No `..`: a new field fails to compile here until it is added to
        // one of the two lists below.
        let Options {
            order: _,
            coarsening: _,
            static_coarsen: _,
            fast_forward: _,
            parallel_barrier: _,
            adaptive_overflow: _,
            user_counter_read: _,
            thread_pool: _,
            chunk_limit: _,
            single_global_lock: _,
            polling: _,
            sched: _,
            base_overflow: _,
            inject_eligibility_bug: _,
            watchdog_stall_ms: _,
            pipeline_commit: _,
            pipeline_workers: _,
            trace_flush_pages: _,
        } = Options::consequence_ic();
        let fingerprinted: [fn(&mut Options); 13] = [
            |o| o.order = OrderPolicy::RoundRobin,
            |o| o.coarsening = false,
            |o| o.static_coarsen = Some(1),
            |o| o.fast_forward = false,
            |o| o.parallel_barrier = false,
            |o| o.adaptive_overflow = false,
            |o| o.user_counter_read = false,
            |o| o.thread_pool = false,
            |o| o.chunk_limit = Some(1),
            |o| o.single_global_lock = true,
            |o| o.polling = Some(1_000),
            |o| o.base_overflow += 1,
            |o| o.inject_eligibility_bug = true,
        ];
        let excluded: [fn(&mut Options); 5] = [
            |o| o.watchdog_stall_ms = Some(60_000),
            |o| o.pipeline_commit = true,
            |o| {
                o.pipeline_commit = true;
                o.pipeline_workers = 7;
            },
            |o| o.trace_flush_pages = 0,
            |o| o.trace_flush_pages = 1,
        ];
        let base = Options::consequence_ic();
        for (i, change) in fingerprinted.iter().enumerate() {
            let mut o = base.clone();
            change(&mut o);
            assert_ne!(o.fingerprint(), base.fingerprint(), "fingerprinted #{i}");
        }
        // The increment is fingerprinted too, judged with polling on.
        let polling = |n| Options {
            polling: Some(n),
            ..base.clone()
        };
        assert_ne!(polling(1_001).fingerprint(), polling(1_000).fingerprint());
        let golden = dmt_server_cell(base.clone());
        assert_eq!(golden.0, 0x34300d2f73672d92, "dmt_server golden moved");
        for (i, change) in excluded.iter().enumerate() {
            let mut o = base.clone();
            change(&mut o);
            assert_eq!(o.fingerprint(), base.fingerprint(), "excluded #{i}");
            assert_eq!(dmt_server_cell(o), golden, "excluded #{i} moved the cell");
        }
    }
}
