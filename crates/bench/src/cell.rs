//! The cell runner: one workload under one system, once.
//!
//! Every harness in the workspace — the figures, the soak, the stress
//! modes, trace recording and replay — executes the same sequence: size a
//! runtime for a workload, build it, `prepare`, `run`, `validate`.
//! [`Cell`] is that sequence's specification and [`Cell::run`] its only
//! implementation, so the handful of `CommonConfig` numbers that reach
//! virtual time and peak pages (`max_threads`, `gc_budget`) are stated
//! where a caller departs from the defaults and nowhere else.

use std::sync::Arc;

use consequence::Options;
use dmt_api::trace::{Event, TraceSink};
use dmt_api::{
    CommonConfig, CostModel, HashSink, MemorySink, PerturbHandle, RunReport, TraceHandle,
};
use dmt_baselines::{make_consequence, make_runtime, RuntimeKind};
use dmt_workloads::{workload_by_name, Params, Validation, Workload};

/// The system under test: a runtime preset, or Consequence with explicit
/// options (ablations, differential oracles, injected bugs).
#[derive(Clone, Debug)]
pub enum System {
    Kind(RuntimeKind),
    Options(Options),
}

impl From<RuntimeKind> for System {
    fn from(kind: RuntimeKind) -> System {
        System::Kind(kind)
    }
}

impl From<Options> for System {
    fn from(opts: Options) -> System {
        System::Options(opts)
    }
}

/// Where a cell's schedule events go.
pub enum Sink {
    /// Tracing off (the figures: emission sites reduce to one branch).
    Off,
    /// Hash only: `RunReport::schedule_hash` is the result.
    Hash,
    /// A ring of this many events, handed back in [`CellRun::events`].
    Memory(usize),
    /// A sink the caller keeps a handle to (disk recording).
    To(Arc<dyn TraceSink>),
}

/// One cell: what to run, under what, observed how.
pub struct Cell {
    pub workload: Box<dyn Workload>,
    pub params: Params,
    pub system: System,
    pub perturb: PerturbHandle,
    pub sink: Sink,
    /// Clock-table sizing hint (`CommonConfig::max_threads`).
    pub max_threads: usize,
    /// Versions the collector may reclaim per commit.
    pub gc_budget: usize,
}

/// What one execution of a [`Cell`] produced.
#[derive(Clone, Debug)]
pub struct CellRun {
    pub report: RunReport,
    pub validation: Validation,
    /// [`Sink::Memory`] cells: the retained events, oldest first, and how
    /// many older ones the ring dropped.
    pub events: Option<(Vec<Event>, u64)>,
}

impl Cell {
    /// The registry workload `name` under `system` with the harness
    /// defaults: unperturbed, hash-only tracing, 64-thread
    /// tables, GC budget 4. Panics on an unknown name.
    pub fn new(name: &str, params: Params, system: impl Into<System>) -> Cell {
        let w = workload_by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        Cell::of(w, params, system)
    }

    /// [`Cell::new`] for a workload the caller already holds (a checked
    /// lookup, or a program outside the registry).
    pub fn of(workload: Box<dyn Workload>, params: Params, system: impl Into<System>) -> Cell {
        Cell {
            workload,
            params,
            system: system.into(),
            perturb: PerturbHandle::off(),
            sink: Sink::Hash,
            max_threads: 64,
            gc_budget: 4,
        }
    }

    /// Heap pages the runtime is created with.
    pub fn heap_pages(&self) -> usize {
        self.workload.heap_pages(&self.params)
    }

    /// Builds the runtime, stages the workload, runs it and validates the
    /// final state against the sequential reference.
    pub fn run(self) -> CellRun {
        let mut ring = None;
        let trace = match &self.sink {
            Sink::Off => TraceHandle::off(),
            Sink::Hash => TraceHandle::to(Arc::new(HashSink::new())),
            Sink::Memory(cap) => {
                let sink = Arc::new(MemorySink::new(*cap));
                ring = Some(Arc::clone(&sink));
                TraceHandle::to(sink)
            }
            Sink::To(sink) => TraceHandle::to(Arc::clone(sink)),
        };
        let cfg = CommonConfig {
            heap_pages: self.heap_pages(),
            max_threads: self.max_threads,
            cost: CostModel::default(),
            gc_budget: self.gc_budget,
            trace,
            perturb: self.perturb,
        };
        let mut rt = match self.system {
            System::Kind(kind) => make_runtime(kind, cfg),
            System::Options(opts) => make_consequence(cfg, opts),
        };
        let prepared = self.workload.prepare(rt.as_mut(), &self.params);
        let report = rt.run(prepared.job);
        let validation = (prepared.validate)(rt.as_ref());
        CellRun {
            report,
            validation,
            events: ring.map(|ring| ring.take()),
        }
    }
}
