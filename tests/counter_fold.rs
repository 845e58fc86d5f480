//! The event-backed `Det` rows of `Counters` are one fold of the event
//! stream (`Counters::count`): a sink that folds every event it is sent
//! reads exactly the rows the run reported, and, counting each event's
//! kind, exactly the run's `events`. The runtimes fold and count each event
//! in the emitting thread's ledger as they emit it, sink or no sink, so
//! this holds by construction unless an act is counted without an event
//! or an event is emitted past the fold.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use consequence_repro::consequence::Options;
use consequence_repro::dmt_api::trace::{Event, EventCounts, EventKind, TraceSink};
use consequence_repro::dmt_api::{Class, Counters, DomainId};
use consequence_repro::dmt_baselines::RuntimeKind;
use consequence_repro::dmt_shard::{run_sharded_server_hooked, DomainHooks, ShardCfg};
use consequence_repro::dmt_workloads::{all_workloads, Params};
use dmt_bench::cell::{Cell, Sink};

/// The `Det` rows no event backs: counted where the act happens.
const NO_EVENT: &[&str] = &["faults"];

/// Every event-backed `Det` row of `c`, by name.
fn folded_rows(c: &Counters) -> Vec<(&'static str, u64)> {
    Counters::FIELDS
        .iter()
        .zip(c.values())
        .filter(|((name, class), _)| *class == Class::Det && !NO_EVENT.contains(name))
        .map(|((name, _), v)| (*name, v))
        .collect()
}

/// Folds every event it is sent, schedule and auxiliary alike, into the
/// counters of the event's domain, and tallies its kind there.
#[derive(Default)]
struct CountingSink(Mutex<BTreeMap<DomainId, (Counters, EventCounts)>>);

impl CountingSink {
    fn folded(&self, domain: DomainId) -> (Counters, EventCounts) {
        self.0
            .lock()
            .unwrap()
            .get(&domain)
            .copied()
            .unwrap_or_default()
    }
}

impl TraceSink for CountingSink {
    fn emit(&self, ev: &Event, _in_schedule: bool, domain: DomainId) {
        let mut seen = self.0.lock().unwrap();
        let (counters, kinds) = seen.entry(domain).or_default();
        counters.count(ev);
        kinds.record(ev.kind());
    }
}

/// `(reported, folded)` rows of one registry workload under `system`,
/// each row list ending in the per-kind event counts.
fn run_counted(name: &str, system: impl Into<dmt_bench::cell::System>) -> [Vec<(&str, u64)>; 2] {
    let sink = Arc::new(CountingSink::default());
    let run = Cell {
        sink: Sink::To(sink.clone()),
        ..Cell::new(name, Params::new(4, 1, 42), system)
    }
    .run();
    assert!(run.validation.matches_reference, "{name}");
    let (folded, kinds) = sink.folded(DomainId::ROOT);
    [
        rows_and_kinds(&run.report.counters, &run.report.events),
        rows_and_kinds(&folded, &kinds),
    ]
}

/// [`folded_rows`] of `c`, then every event kind's count in `events`.
fn rows_and_kinds(c: &Counters, events: &EventCounts) -> Vec<(&'static str, u64)> {
    let kinds = EventKind::ALL.iter().map(|k| (k.name(), events.get(*k)));
    folded_rows(c).into_iter().chain(kinds).collect()
}

/// On every registry workload under all five runtimes, each event-backed
/// `Det` row equals the fold of the stream, and each kind's reported count
/// the sink's tally.
#[test]
fn every_event_backed_row_is_the_fold_of_the_stream() {
    let mut bad = Vec::new();
    for w in all_workloads() {
        for kind in RuntimeKind::ALL {
            let [reported, folded] = run_counted(w.name(), kind);
            let moved: Vec<_> = reported
                .iter()
                .zip(&folded)
                .filter(|(a, b)| a != b)
                .collect();
            if !moved.is_empty() {
                bad.push(format!("{} {}: {moved:?}", w.name(), kind.label()));
            }
        }
    }
    assert!(bad.is_empty(), "(reported, folded):\n{}", bad.join("\n"));
}

/// A chunk ends in a commit, under either barrier: the serial barrier
/// (DWC's) once counted a second chunk at each participant's leave.
#[test]
fn commits_and_chunks_agree_under_both_barriers() {
    for name in ["ocean_cp", "radix", "lu_ncb"] {
        for opts in [
            Options::consequence_ic(),
            Options::consequence_ic().without("parallel_barrier"),
        ] {
            let serial = !opts.parallel_barrier;
            let [reported, _] = run_counted(name, opts);
            let row = |n: &str| reported.iter().find(|(r, _)| *r == n).map(|(_, v)| *v);
            assert!(row("barrier_waits") > Some(0), "{name}: no barrier");
            assert_eq!(row("commits"), row("chunks"), "{name}, serial {serial}");
        }
    }
}

/// A sharded run stamps each domain's events with its domain
/// (`TraceHandle::to_domain`): the events stamped with one domain fold to
/// that domain's counters and tally to its event counts.
#[test]
fn each_domain_counts_the_events_stamped_with_it() {
    let sink = Arc::new(CountingSink::default());
    let hooks = DomainHooks {
        sink: Some(sink.clone()),
        ..DomainHooks::default()
    };
    let r = run_sharded_server_hooked(&ShardCfg::new(2, 3, Params::new(3, 1, 42)), &hooks);
    assert_eq!(r.domains.len(), 2);
    for d in &r.domains {
        let (folded, kinds) = sink.folded(d.domain);
        assert!(folded.token_acquisitions > 0, "{}: no grants", d.domain);
        assert_eq!(
            rows_and_kinds(&d.run.counters, &d.run.events),
            rows_and_kinds(&folded, &kinds),
            "{}",
            d.domain
        );
    }
}
