//! User-space reimplementation of **Conversion**: multi-version concurrency
//! control for main-memory segments (Merrifield & Eriksson, EuroSys 2013).
//!
//! Conversion is the thread-isolation substrate of Consequence. A
//! [`Segment`] is a paged, versioned shared-memory region. Each thread
//! attaches a [`Workspace`] — a snapshot of the segment at some version —
//! and operates on it in complete isolation:
//!
//! * the first write to a page takes a **copy-on-write fault**, saving a
//!   pristine *twin* and giving the thread a private working copy;
//! * [`Segment::commit`] publishes the thread's dirty pages as a new
//!   version, merging onto the latest version at **byte granularity** with
//!   a last-writer-wins policy (so concurrent writers of disjoint bytes of
//!   one page both survive);
//! * [`Segment::update`] brings a workspace forward to the latest version
//!   by replaying the page deltas of the intervening versions.
//!
//! The paper's kernel module tracks page modifications through real page
//! tables; here the same algorithms run on heap-allocated 4 KiB pages. The
//! fault/commit/update costs that a runtime must charge to virtual time are
//! returned from each operation rather than priced here, keeping this crate
//! policy-free.
//!
//! Two extras serve Consequence directly:
//!
//! * [`ParallelCommit`]: the two-phase commit used by the deterministic
//!   barrier (§4.2) — a serialized registration phase that fixes the
//!   per-page merge order, then an embarrassingly parallel merge phase;
//! * a budgeted garbage collector ([`Segment::gc`]) modelling the paper's
//!   single-threaded collector that can fall behind page churn (Fig. 12).
//!
//! There is one commit path: the committer merges, publishes and records
//! in the commit log what its stores marked, under the caller's token (the
//! paper's §2.4–2.5 commit); docs/PERF.md "Commit pipeline" records why there is no second
//! one. The barrier's two-phase commit is that commit with the merge
//! hoisted out of the token, and shares every step of it: one drain of the
//! write set (`Workspace::take_modified`), one word kernel
//! ([`merge::apply_with_map`]), one adopt-or-merge rule
//! (`segment::build_page`) and one version installer (`SegInner::install`).

pub mod merge;
pub mod page;
pub mod parallel;
pub mod registry;
pub mod segment;
pub mod version;
pub mod workspace;

pub use dmt_api::PAGE_SIZE;
pub use merge::DirtyMap;
pub use page::{PageBuf, PageRef, PageTracker};
pub use parallel::ParallelCommit;
pub use registry::Registry;
pub use segment::{CommitResult, GcResult, Segment, UpdateResult};
pub use version::Version;
pub use workspace::Workspace;
