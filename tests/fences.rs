//! The lint fences: each row keeps a design decision from growing back after ROADMAP aim
//! 2's deletions. A needle is a literal; `\b` at either end asks, as `grep -w` does, that
//! the neighbouring character be no letter, digit or `_`, a trailing `[A-Z][a-z]` asks for
//! an upper- then a lower-case letter, and ` *` before a non-space matches any run of
//! spaces. Files are walked as `grep -r` walks them, less `target/`, `.git/` and this file,
//! which holds every needle. A hit is a line.

use std::{collections::BTreeMap, fs, path::Path};

use May::{Any, AtMost, Exactly, Lines};
use Scan::{All, NonTest, NonTestCode};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Which lines of a file a row reads.
enum Scan {
    All,
    /// The lines before the first that starts with `#[cfg(test)]`.
    NonTest,
    /// `NonTest` less the lines whose first non-space is `//`.
    NonTestCode,
}

/// Where a row lets hits stand; a file the row does not list holds none.
#[derive(Debug)]
enum May {
    Any,
    Exactly(usize),
    AtMost(usize),
    /// The file's hits, trimmed, in order.
    Lines(&'static [&'static str]),
}

struct Fence {
    name: &'static str,
    /// The decision the row keeps, and why.
    why: &'static str,
    roots: &'static [&'static str],
    scan: Scan,
    needles: &'static [&'static str],
    allow: &'static [(&'static str, May)],
    /// Lines the row fails on, each in its file: its teeth.
    planted: &'static [(&'static str, &'static str)],
}

const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];
const SOURCES: &[&str] = &["crates/*/src", "src"];

const RESIDUE: &str = "The deleted settle pool and second clock table kind left inert names that only \
    frozen e2e/ reads (ROADMAP item 3(a)). Each stands at its definition and nowhere else: an Options field also in the \
    preset literal, the exhaustive destructure and fingerprint_membership_is_complete's excluded cases; SchedKind also \
    in that field's type and its import; Slots in its constructor and SchedTable::new.";

/// A row that keeps a residue name where it stands.
#[rustfmt::skip]
macro_rules! residue { ($name:expr, $needles:expr, $allow:expr, $planted:expr) => {
    Fence { name: $name, why: RESIDUE, roots: EVERYWHERE, scan: All, needles: $needles, allow: $allow, planted: &[("crates/core/src/runtime.rs", $planted)] }
} }

#[rustfmt::skip]
const FENCES: &[Fence] = &[
    residue!("residue: pipeline_commit", &[r"\bpipeline_commit\b"], &[("crates/core/src/options.rs", Exactly(5))], "if o.pipeline_commit {"),
    residue!("residue: pipeline_workers", &[r"\bpipeline_workers\b"], &[("crates/core/src/options.rs", Exactly(4))], "let n = o.pipeline_workers;"),
    residue!("residue: enable_pipeline", &[r"\benable_pipeline\b"], &[("crates/vmem/src/segment.rs", Exactly(1))], "seg.enable_pipeline(2);"),
    residue!("residue: flush_pipeline", &[r"\bflush_pipeline\b"], &[("crates/vmem/src/segment.rs", Exactly(1))], "seg.flush_pipeline();"),
    residue!("residue: settle_pages_deferred", &[r"\bsettle_pages_deferred\b"], &[("crates/api/src/report.rs", Exactly(1))], "c.settle_pages_deferred += 1;"),
    residue!("residue: pretwin_hits", &[r"\bpretwin_hits\b"], &[("crates/api/src/report.rs", Exactly(1))], "c.pretwin_hits += 1;"),
    residue!("residue: pretwin_misses", &[r"\bpretwin_misses\b"], &[("crates/api/src/report.rs", Exactly(1))], "c.pretwin_misses += 1;"),
    residue!("residue: sched:", &[r"\bsched:\b"], &[("crates/core/src/options.rs", Exactly(3))], "let Options { sched: _, .. } = o;"),
    residue!("residue: SchedKind", &[r"\bSchedKind\b"], &[("crates/clock/src/lib.rs", Exactly(2)), ("crates/core/src/options.rs", Exactly(3))],
            "SchedTable::new(SchedKind, order, slots)"),
    residue!("residue: Slots", &[r"\bSlots\b"], &[("crates/clock/src/lib.rs", Exactly(5))], "let slots = Slots::new(threads);"),
    Fence { name: "Every real wake is issued by the parking implementation or PhaseGate",
        why: "Wake after unlock: call sites only record wakes in the Held guard, which unparks after it unlocked \
              (Parking's two rules, crates/core/src/shared.rs). A wake anywhere else could be issued under a lock again.",
        roots: &["crates/core/src", "crates/shard/src"], scan: All, needles: &["notify_one", "notify_all", ".unpark("],
        allow: &[("crates/core/src/shared.rs", Any), ("crates/shard/src/runtime.rs", Lines(&["self.cv.notify_all();"; 2]))],
        planted: &[("crates/core/src/ctx/token.rs", "t.unpark();")] },
    Fence { name: "A thread sleeps only in Held::sleep",
        why: "Held::sleep unlocks and delivers first and yields before it parks (Parking's three rules, \
              crates/core/src/shared.rs); a sleep anywhere else could hold the runtime lock or skip the yield phase.",
        roots: &["crates/core/src"], scan: NonTestCode, needles: &["thread::park", "park_timeout(", "yield_now("],
        allow: &[("crates/core/src/shared.rs", Lines(&["Some(d) => std::thread::park_timeout(d),",
                                                      "None if yielding => std::thread::yield_now(),",
                                                      "None => std::thread::park(),"]))],
        planted: &[("crates/core/src/ctx/token.rs", "std::thread::yield_now();")] },
    Fence { name: "One clock table kind",
        why: "ROADMAP item 12: a publication takes the runtime lock like every other transition and the table keeps \
              its histories with no lock of its own; a lock-free copy would bring back SeqCst, its failover and its drill.",
        roots: &["crates/clock/src", "crates/core/src"], scan: All,
        needles: &["SeqCst", "failover", "corrupt_stale", "publishes_lock_free", "mirror"], allow: &[],
        planted: &[("crates/clock/src/table.rs", "let head = self.head.load(Ordering::SeqCst);")] },
    Fence { name: "One wake policy: no herd", why: "A hand-off wakes the one successor (Held::wake_successor).",
        roots: &["crates/core/src", "crates/clock/src"], scan: All, needles: &[r"\bbroadcast\b"], allow: &[],
        planted: &[("crates/core/src/ctx/token.rs", "held.broadcast();")] },
    Fence { name: "One wake policy: no herd counter", why: "The herd's counter went with it.",
        roots: EVERYWHERE, scan: All, needles: &[r"\bbroadcast_wakes\b"], allow: &[],
        planted: &[("crates/api/src/report.rs", "Racy broadcast_wakes,")] },
    Fence { name: "One wake policy: unpark everyone",
        why: "Unparking every thread is four requests (the watchdog's shutdown, abort_quiet, doze's spurious-wake \
              injection, Wakes::push's overflow) and Held::unlock's delivery of them.",
        roots: &["crates/core/src"], scan: NonTest, needles: &["wakes.all = true", "self.all = true", ".everyone()"],
        allow: &[("crates/core/src/ctx/abort.rs", Exactly(1)), ("crates/core/src/runtime.rs", Exactly(1)),
                 ("crates/core/src/shared.rs", Exactly(2)), ("crates/core/src/ctx/token.rs", Exactly(1))],
        planted: &[("crates/core/src/ctx/mutex.rs", "inner.wakes.all = true;")] },
    Fence { name: "A protocol step borrows the runtime",
        why: "Ctx borrows the runtime (sh: &'a Arc<Shared>) instead of paying two atomic RMWs for a clone. Shared \
              is cloned by Runtime::run and for the two new OS threads (spawn_worker, the watchdog).",
        roots: &["crates/core/src"], scan: All, allow: &[("crates/core/src/runtime.rs", Exactly(3))],
        needles: &["Arc::clone(self.sh)", "Arc::clone(&self.sh)", "Arc::clone(sh)", "Arc::clone(&sh)", "Arc::clone(me.sh)",
                   "Arc::clone(&me.sh)", "sh.clone()"],
        planted: &[("crates/core/src/ctx/token.rs", "let sh = Arc::clone(&self.sh);")] },
    Fence { name: "No commit scans a page",
        why: "The stores make the dirty map. The full-page scan keeps apply_diff, which no commit calls, and the \
              debug assertions of take_modified and fold_commit_log.",
        roots: &["crates/vmem/src"], scan: NonTest, needles: &["DirtyMap::diff("],
        allow: &[("crates/vmem/src/merge.rs", Lines(&["apply_with_map(&DirtyMap::diff(twin, work), twin, work, out)"])),
                 ("crates/vmem/src/segment.rs", Lines(&["debug_assert!(DirtyMap::diff(replaced, r.bytes()).is_subset(map));"])),
                 ("crates/vmem/src/workspace.rs", Lines(&["debug_assert_eq!(map, DirtyMap::diff(d.twin.bytes(), d.work.bytes()));"]))],
        planted: &[("crates/vmem/src/segment.rs", "let map = DirtyMap::diff(old, new);")] },
    Fence { name: "A page is copied at its fault, or when no writer's copy can carry it",
        why: "segment::build_page builds a committed page on its first writer's working copy whenever that writer's \
              twin is the page's base; the one other copy is its fallback, for a first twin that went stale.",
        roots: &["crates/vmem/src"], scan: NonTestCode, needles: &["PageBuf::duplicate("],
        allow: &[("crates/vmem/src/segment.rs", Lines(&["let mut out = PageBuf::duplicate(base);"])),
                 ("crates/vmem/src/workspace.rs", Lines(&["work: PageBuf::duplicate(snap),"]))],
        planted: &[("crates/vmem/src/parallel.rs", "let mut out = PageBuf::duplicate(&base);")] },
    Fence { name: "The witness costs what was written",
        why: "The commit log folds each published page's write set and the values under it (merge::record_term).",
        roots: EVERYWHERE, scan: All, needles: &["page_digest"], allow: &[], planted: &[("crates/vmem/src/segment.rs", "h = fold(h, page_digest(p));")] },
    Fence { name: "Every installer collects",
        why: "The serial epilogue and the parallel barrier's installer both collect through Ctx::collect.",
        roots: &["crates/core/src"], scan: All, needles: &[".gc("],
        allow: &[("crates/core/src/ctx/token.rs", Lines(&["let gr = self.sh.seg.gc(self.sh.cfg.gc_budget);"]))],
        planted: &[("crates/core/src/ctx/barrier.rs", "self.sh.seg.gc(budget);")] },
    Fence { name: "One replay verdict",
        why: "What \"reproduced\" means is written once, in dmt_trace::Replayed; the per-crate verdicts and the \
              helpers only they used stay gone.",
        roots: EVERYWHERE, scan: All,
        needles: &["struct ReplayOutcome", "struct ShardReplay", "fn diagnose_domains", "fn run_replayed", "fn grants_consumed",
                   "fn verify_server_trace"], allow: &[], planted: &[("crates/shard/src/record.rs", "pub struct ShardReplay {")] },
    Fence { name: "One replay verdict: one struct declares replayed_events",
        why: "dmt_trace::Replayed alone has a replayed_events field.",
        roots: &["crates"], scan: All, needles: &[r"\breplayed_events: *u64"],
        allow: &[("crates/trace/src/replay.rs", Exactly(1))], planted: &[("crates/stress/src/lib.rs", "struct R { replayed_events: u64 }"),
                                                                    ("crates/bench/src/replay.rs", "replayed_events:  u64,")] },
    Fence { name: "Replay re-executes",
        why: "A replay runs the recorded inputs with ordinary eligibility; the grant script, its hooks in the \
              token path and the replay watchdog override stay gone.",
        roots: EVERYWHERE, scan: All,
        needles: &["ReplayCtl", "REPLAY_STALL_MS", "mark_diverged", "fn grants(", "new_with_replay", r"sh.replay\b"], allow: &[],
        planted: &[("crates/core/src/ctx/token.rs", "if let Some(ctl) = &sh.replay {")] },
    Fence { name: "A replay is the recorded cell",
        why: "dmt_bench::replay rebuilds the Cell a recording names; the runtime's replay constructors, their \
              monitor and error type, and the divergence the sink and RunReport carried stay gone.",
        roots: EVERYWHERE, scan: All,
        needles: &["new_replaying", "ReplayMonitor", "ReplayError", "replay_divergence", "fn divergence"], allow: &[],
        planted: &[("crates/core/src/runtime.rs", "pub fn new_replaying(opts: Options) -> Self {")] },
    Fence { name: "The shard layer owns its configuration",
        why: "dmt_shard::ShardCfg holds and folds the shard count and map seed, Options configures one runtime, \
              and tests (tests/shard_server.rs, GOLDEN_SHARDED) hold the sharded contract, not stress.",
        roots: &["crates", "src", "tests", "examples", "docs", "README.md"], scan: All,
        needles: &["shard_domains", "shard_map_seed", "shard_diff", "shard-diff"], allow: &[],
        planted: &[("crates/core/src/options.rs", "pub shard_domains: u32,")] },
    Fence { name: "The LRC estimate is read off the events",
        why: "dmt_bench::lrc::LrcFold folds Figure 16's estimate from the events; the runtimes, their API and the \
              shard layer keep no tracker, option or counter for it.",
        roots: &["crates/core/src", "crates/api/src", "crates/shard", "crates/baselines"], scan: All,
        needles: &["lrc", "Lrc"], allow: &[], planted: &[("crates/core/src/shared.rs", "lrc: Option<LrcTracker>,")] },
    Fence { name: "An event's layout is written once",
        why: "The events! declaration (crates/api/src/trace.rs) lists each kind once, and EventKind::fields is the \
              layout it derives; the hash fold, the .dmtrace codec and Event::tid read it, so dmt-trace's code names no \
              event variant.",
        roots: &["crates/trace/src"], scan: NonTestCode, needles: &[r"\bEvent::[A-Z][a-z]", r"\bEventKind::[A-Z][a-z]"],
        allow: &[], planted: &[("crates/trace/src/writer.rs", "EventKind::Commit => 3,")] },
    Fence { name: "An event's layout is written once: FastForward",
        why: "Event::FastForward, once special-cased by the codec, stands in trace.rs and at its emission site.",
        roots: SOURCES, scan: NonTest, needles: &["Event::FastForward"],
        allow: &[("crates/api/src/trace.rs", AtMost(4)), ("crates/core/src/ctx/token.rs", Any)],
        planted: &[("crates/trace/src/codec.rs", "Event::FastForward { .. } => return,")] },
    Fence { name: "A run reports its own peaks",
        why: "RunReport's peaks are kept where the bound works and read at teardown; the sampled monitor, its \
              handle and the sink's occupancy gauge stay gone.",
        roots: EVERYWHERE, scan: All,
        needles: &["ResourceWitness", "WitnessHandle", "ResourceBounds", "ResourceSample", "WitnessSummary", "witness_sample",
                   "fn occupancy"], allow: &[], planted: &[("crates/api/src/lib.rs", "pub use witness::ResourceWitness;")] },
    Fence { name: "One perturber file",
        why: "A one-shot death is dmt_api::FixedPanic alone; outside test modules every perturber is in perturb.rs.",
        roots: SOURCES, scan: NonTest, needles: &["Perturber for"], allow: &[("crates/api/src/perturb.rs", Any)],
        planted: &[("crates/stress/src/lib.rs", "impl dmt_api::Perturber for X {}")] },
    Fence { name: "A Det counter row is a fold of the events",
        why: "Counters::count (crates/api/src/report.rs) defines each event-backed Det row once. A thread's Ledger folds \
              every emitted event's values and counts its kind once, and sets the rows that count a kind from those counts \
              when it closes; an increment of such a row beside it counts an act twice.",
        roots: &["crates/core/src", "crates/baselines/src"], scan: All,
        needles: &["cnt.commits *+=", "cnt.pages_committed *+=", "cnt.pages_merged *+=", "cnt.pages_propagated *+=",
                   "cnt.token_acquisitions *+=", "cnt.lock_acquires *+=", "cnt.barrier_waits *+=", "cnt.cond_waits *+=",
                   "cnt.spawns *+=", "cnt.pool_hits *+=", "cnt.chunks *+=", "cnt.coarsened_chunks *+="], allow: &[],
        planted: &[("crates/core/src/ctx/barrier.rs", "self.cnt.chunks += 1;"),
                   ("crates/baselines/src/pthreads.rs", "self.cnt.lock_acquires+=1;")] },
    Fence { name: "An enumerated set is declared once",
        why: "dmt_api::named_enum! declares an enum, its ALL, its names and its Display from one list, and the events! \
              declaration (crates/api/src/trace.rs) declares EventKind through it; a hand-written ALL is a second list \
              that can disagree with the first.",
        roots: &["crates/*/src"], scan: NonTest, needles: &["const ALL: ["],
        allow: &[("crates/api/src/lib.rs", Lines(&["pub const ALL: [$name; [$($s),+].len()] = [$($name::$v),+];"]))],
        planted: &[("crates/api/src/perturb.rs", "pub const ALL: [PerturbSite; 9] = ["),
                   ("crates/baselines/src/lib.rs", "pub const ALL: [RuntimeKind; 5] = [")] },
    Fence { name: "A runtime emits through its one helper",
        why: "Each runtime's per-thread context sends an event to the sink through its dmt_api::Ledger, whose emit_as \
              folds its values into the thread's counters and counts its kind first; an event emitted past it would \
              reach the sink uncounted.",
        roots: &["crates/api/src/report.rs", "crates/core/src", "crates/baselines/src"], scan: All, needles: &["trace.emit(", "emit_aux("],
        allow: &[("crates/api/src/report.rs", Lines(&["trace.emit(ev, in_schedule);"]))],
        planted: &[("crates/core/src/ctx/token.rs", "self.sh.cfg.trace.emit(Event::Coarsen { tid, clock }, true);"),
                   ("crates/baselines/src/dthreads.rs", "sh.cfg.trace.emit_aux(Event::Update { tid, version, pages });")] },
    Fence { name: "A sink counts nothing",
        why: "RunReport::events is the filed ledgers' counts, kept by Ledger::emit_as and summed by Closed, sink or no sink; \
              a sink that counted again would read zeros with no sink, totals across domains with a shared one, and take its \
              lock for every auxiliary event.",
        roots: SOURCES, scan: All, needles: &["fn counts(", r"\bTally\b", "counts.record("], allow: &[],
        planted: &[("crates/trace/src/writer.rs", "st.counts.record(ev.kind());"),
                   ("crates/api/src/trace.rs", "fn counts(&self) -> EventCounts {")] },
    Fence { name: "Virtual time moves with its row",
        why: "A thread's virtual time is the sum of its Breakdown rows: dmt_api::Ledger::v adds them to the time the thread \
              started at, so charging a row is the only way to move it, and a hand-kept copy beside the rows drifts.",
        roots: &["crates/api/src", "crates/core/src", "crates/baselines/src"], scan: NonTestCode,
        needles: &[".v +=", ".v = ", r"\bbd."],
        allow: &[("crates/api/src/report.rs", Lines(&["self.start + self.bd.total()", "*self.bd.row_mut(row) += c;"]))],
        planted: &[("crates/core/src/ctx/barrier.rs", "self.bd.barrier_wait += self.v - from;"),
                   ("crates/baselines/src/pthreads.rs", "self.v += self.cost.pthread_lock;"),
                   ("crates/api/src/report.rs", "self.v += c;")] },
    Fence { name: "The fences are this table", why: "A fence is a row of this table, not a step in CI.",
        roots: &[".github/workflows"], scan: All, needles: &["grep -rn"], allow: &[],
        planted: &[(".github/workflows/ci.yml", "got=$(grep -rnE 'SeqCst' crates/clock/src || true)")] },
];

/// Every file under the root, its path `/`-separated.
fn files() -> Vec<String> {
    let (mut out, mut dirs) = (Vec::new(), vec![String::new()]);
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(Path::new(ROOT).join(&dir)).expect("the tree is readable") {
            let entry = entry.expect("the tree is readable");
            let name = entry.file_name();
            let path = format!("{dir}{}", name.to_string_lossy());
            let kind = entry.file_type().expect("the tree is readable");
            if kind.is_dir() && name != "target" && name != ".git" {
                dirs.push(path + "/");
            } else if kind.is_file() && path != "tests/fences.rs" {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn read(path: &str) -> String {
    let bytes = fs::read(Path::new(ROOT).join(path)).expect("the tree is readable");
    String::from_utf8_lossy(&bytes).into_owned()
}

fn matches(needle: &str, line: &str) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let (left, right) = (needle.starts_with(r"\b"), needle.ends_with(r"\b"));
    let camel = needle.ends_with("[A-Z][a-z]");
    let n = needle.trim_start_matches(r"\b").trim_end_matches(r"\b");
    let n = n.trim_end_matches("[A-Z][a-z]");
    let (n, spaced) = n.split_once(" *").map_or((n, None), |(n, t)| (n, Some(t)));
    line.match_indices(n).any(|(i, _)| {
        let rest = &line[i + n.len()..];
        let rest = spaced.map_or(Some(rest), |t| rest.trim_start_matches(' ').strip_prefix(t));
        rest.is_some_and(|rest| {
            let b = rest.as_bytes();
            (!left || !word(line[..i].chars().next_back()))
                && (!right || !word(rest.chars().next()))
                && (!camel || b.len() > 1 && b[0].is_ascii_uppercase() && b[1].is_ascii_lowercase())
        })
    })
}

/// A row's hits: by file, each flagged line with its number.
type Hits<'a> = BTreeMap<&'a str, Vec<(usize, String)>>;

impl Fence {
    /// Whether a root, whose `*` components match any name, is `path` or above it.
    fn scans(&self, path: &str) -> bool {
        self.roots.iter().any(|root| {
            let mut p = path.split('/');
            root.split('/')
                .all(|r| p.next().is_some_and(|c| r == "*" || r == c))
        })
    }

    fn flags(&self, line: &str) -> bool {
        !(matches!(self.scan, NonTestCode) && line.trim_start_matches(' ').starts_with("//"))
            && self.needles.iter().any(|n| matches(n, line))
    }

    fn hits<'a>(&self, files: &'a [String]) -> Hits<'a> {
        let mut hits = Hits::new();
        for path in files.iter().filter(|p| self.scans(p)) {
            let code = |l: &&str| matches!(self.scan, All) || !l.starts_with("#[cfg(test)]");
            for (i, line) in read(path).lines().take_while(code).enumerate() {
                if self.flags(line) {
                    hits.entry(path).or_default().push((i + 1, line.into()));
                }
            }
        }
        hits
    }

    /// Whether every hit stands where the row allows it.
    fn holds(&self, hits: &Hits) -> bool {
        hits.keys().all(|p| self.allow.iter().any(|(a, _)| a == p))
            && self.allow.iter().all(|(path, may)| {
                let lines = hits.get(path).map_or(&[][..], Vec::as_slice);
                let got: Vec<&str> = lines.iter().map(|(_, l)| l.trim()).collect();
                match may {
                    Any => true,
                    Exactly(n) => got.len() == *n,
                    AtMost(n) => got.len() <= *n,
                    Lines(want) => got == *want,
                }
            })
    }
}

#[test]
fn every_fence_holds() {
    let files = files();
    let mut failures = String::new();
    for f in FENCES {
        let hits = f.hits(&files);
        if !f.holds(&hits) {
            failures += &format!("\n{}: {}\nallowed: {:?}\n", f.name, f.why, f.allow);
            for (path, lines) in &hits {
                for (n, line) in lines {
                    failures += &format!("  {path}:{n}: {line}\n");
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures}");
}

#[test]
fn every_fence_fails_on_its_planted_line() {
    let files = files();
    for f in FENCES {
        for &(path, line) in f.planted {
            let mut hits = f.hits(&files);
            hits.entry(path).or_default().push((0, line.to_string()));
            let teeth = f.scans(path) && f.flags(line) && !f.holds(&hits);
            assert!(teeth, "{}: {path}: {line}", f.name);
        }
    }
}

/// Wall clock is measured one way (`e2e/`, BENCHMARK.json): the one artifact `crates/bench`
/// commits is the soak's, which `bench` drives with no artifact trait and no statistics of
/// its own, and no crate has a `[[bench]]` target.
#[test]
fn one_committed_bench_artifact_and_no_bench_target() {
    let mut git = std::process::Command::new("git");
    git.args(["ls-files", "BENCH_*.json"]).current_dir(ROOT);
    let listed = git.output().expect("git lists the committed files").stdout;
    assert_eq!(String::from_utf8_lossy(&listed), "BENCH_soak.json\n");
    for path in files().iter().filter(|p| p.ends_with("Cargo.toml")) {
        let bench = read(path).lines().any(|l| l.starts_with("[[bench]]"));
        assert!(!bench, "[[bench]] in {path}");
    }
    for gone in ["sched.rs", "stats.rs", "artifact.rs"] {
        let back = Path::new(ROOT).join("crates/bench/src").join(gone).exists();
        assert!(!back, "{gone} is back: bench drives the soak directly");
    }
}
