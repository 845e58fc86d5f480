//! Committed versions of a segment.

use dmt_api::Tid;

use crate::page::PageRef;

/// One committed version: the set of pages that changed relative to the
/// previous version.
///
/// Version ids are assigned densely in commit order, which is the total
/// store order every thread agrees on. A workspace at base version `b`
/// reaches version `v` by replaying the page lists of versions `b+1..=v`.
#[derive(Clone, Debug)]
pub struct Version {
    /// Monotonically increasing id (commit order). After collector
    /// squashing a version may cover a *range* of original ids,
    /// `base_id..=id`.
    pub id: u64,
    /// Lowest original id merged into this version (`id` when unsquashed).
    pub base_id: u64,
    /// Thread that committed this version.
    pub committer: Tid,
    /// Changed pages: `(page index, content)`, sorted by page index.
    pub pages: Vec<(u32, PageRef)>,
}
