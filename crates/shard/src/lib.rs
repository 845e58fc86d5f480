//! `dmt-shard`: sharded token domains with deterministic cross-shard
//! rendezvous.
//!
//! The Consequence token (§3.2) serializes every synchronization
//! operation of a run through one GMIC queue. That is the determinism
//! anchor — and, as thread counts grow, the scalability ceiling: every
//! waiter contends on one clock table and one grant path. This subsystem
//! partitions a run into independent **token domains**: each domain is a
//! complete Consequence runtime — its own det-clock table, token, heap
//! and thread pool — serving the slice of state a deterministic
//! [`ShardMap`] assigns it. Within a domain the ordinary token machinery
//! produces the ordinary bit-identical schedule; *across* domains the
//! only coupling is an epoch-boundary **rendezvous** ([`StdExchange`])
//! whose message order is a pure function of `(seed, options)`.
//!
//! Determinism therefore composes: the sharded schedule is the list of
//! per-domain schedules plus the (deterministic) rendezvous streams, and
//! the combined [`ShardReport::schedule_hash`] must be bit-identical per
//! configuration. A 1-shard run executes the *identical* job the
//! unsharded `dmt_server` registry workload executes, in
//! [`dmt_api::DomainId::ROOT`], so its hash is bit-identical to the
//! unsharded hash — the `shard_lockstep` oracle. See `docs/SHARDING.md`
//! at the workspace root.
//!
//! * [`map`] — the deterministic key → domain routing function;
//! * [`runtime`] — [`run_sharded_server`]: one runtime per domain,
//!   combined reporting;
//! * [`record`] — sharded trace recording into `.dmtrace` containers and
//!   re-execution verification.

#![deny(missing_docs)]

pub mod map;
pub mod record;
pub mod runtime;

pub use map::ShardMap;
pub use record::record_server_trace;
pub use runtime::{
    reference_store_hash, run_sharded_server, run_sharded_server_hooked, CaptureMode, DomainHooks,
    DomainReport, PhaseGate, ShardCfg, ShardReport, StdExchange,
};
