//! Word-wide page diffing and merging with byte-granularity semantics.
//!
//! Conversion resolves page-level write conflicts by comparing a thread's
//! working copy against the pristine *twin* it saved at fault time: bytes
//! the thread actually changed win over the concurrently committed page
//! (last-writer-wins, in commit order); untouched bytes take the remote
//! value. This is what makes false sharing within a page survive
//! deterministic isolation.
//!
//! The *semantics* are byte-granular, but the *implementation* is not: the
//! hot path compares and merges in `u64` words and records which words
//! differ in a per-page [`DirtyMap`] bitmap (one bit per 8-byte word, 64
//! bytes per page). Byte work happens only inside dirty words, and only
//! when the latest committed word actually changed since fault time —
//! otherwise the whole working word is adopted, which is byte-identical
//! because every byte the committer left untouched still equals the twin
//! (and thus the latest) value.
//!
//! The bitmap is computed once per page and reused between the twin-diff
//! (is-this-page-modified?) and the publish/merge step, so a commit scans
//! each dirty page once instead of twice. The original byte-loop
//! implementations are kept as `*_bytewise` references for differential
//! testing.

use dmt_api::PAGE_SIZE;

/// 8-byte words per page.
pub const PAGE_WORDS: usize = PAGE_SIZE / 8;
/// `u64` limbs in a [`DirtyMap`] (one bit per page word).
pub const MAP_WORDS: usize = PAGE_WORDS / 64;

#[inline(always)]
fn word(p: &[u8; PAGE_SIZE], w: usize) -> u64 {
    u64::from_ne_bytes(p[w * 8..w * 8 + 8].try_into().expect("8-byte chunk"))
}

#[inline(always)]
fn set_word(p: &mut [u8; PAGE_SIZE], w: usize, v: u64) {
    p[w * 8..w * 8 + 8].copy_from_slice(&v.to_ne_bytes());
}

/// Low bit of each byte set where `a` and `b` differ in that byte: OR the
/// byte's bits down into its low bit. Branch-free; called only for dirty
/// words. Multiplying the result by `0xff` widens it into a full byte
/// select mask.
#[inline(always)]
fn byte_diff_lo(a: u64, b: u64) -> u64 {
    let x = a ^ b;
    let lo = (x | (x >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    let lo = (lo | (lo >> 2)) & 0x0303_0303_0303_0303;
    (lo | (lo >> 1)) & 0x0101_0101_0101_0101
}

/// Per-page dirty-word bitmap: bit `w` is set when 8-byte word `w` of the
/// working copy differs from the twin.
///
/// Computed once per page at commit time and reused for both the "did this
/// fault lead to a modification?" test and the actual merge, halving the
/// number of full-page scans on the commit hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirtyMap {
    bits: [u64; MAP_WORDS],
}

impl DirtyMap {
    /// Diffs `work` against `twin`, one bit per differing word. This is the
    /// single full-page scan of the commit path.
    pub fn diff(twin: &[u8; PAGE_SIZE], work: &[u8; PAGE_SIZE]) -> DirtyMap {
        let mut bits = [0u64; MAP_WORDS];
        // chunks_exact lets the compiler drop the per-word bounds checks
        // and vectorize the compare.
        let mut t = twin.chunks_exact(8);
        let mut k = work.chunks_exact(8);
        for bitset in bits.iter_mut() {
            let mut b = 0u64;
            for i in 0..64 {
                let tw = t.next().expect("PAGE_WORDS words");
                let wk = k.next().expect("PAGE_WORDS words");
                b |= ((tw != wk) as u64) << i;
            }
            *bitset = b;
        }
        DirtyMap { bits }
    }

    /// Whether no word differs (the fault was not followed by an actual
    /// modification).
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.bits.iter().all(|b| *b == 0)
    }

    /// Number of dirty words.
    #[inline]
    pub fn dirty_words(&self) -> u32 {
        self.bits.iter().map(|b| b.count_ones()).sum()
    }

    /// Iterates the dirty word indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(limb, &b)| {
            let mut b = b;
            std::iter::from_fn(move || {
                if b == 0 {
                    return None;
                }
                let i = b.trailing_zeros() as usize;
                b &= b - 1;
                Some(limb * 64 + i)
            })
        })
    }
}

/// Merges one committed page using a precomputed [`DirtyMap`].
///
/// `twin` is the page as it looked when the committing thread faulted it,
/// `work` the thread's working copy, and `latest` the currently committed
/// page (which may contain other threads' newer writes). The result takes
/// `work[i]` wherever the thread modified byte `i` and `latest[i]`
/// elsewhere. Returns the number of bytes the committing thread
/// contributed.
///
/// `out` must already hold a copy of `latest` (clean words are not
/// touched); [`merge_into`] handles the general case.
pub fn merge_with_map(
    map: &DirtyMap,
    twin: &[u8; PAGE_SIZE],
    work: &[u8; PAGE_SIZE],
    latest: &[u8; PAGE_SIZE],
    out: &mut [u8; PAGE_SIZE],
) -> usize {
    let mut changed = 0;
    for (limb, &bitset) in map.bits.iter().enumerate() {
        if bitset == 0 {
            continue;
        }
        if bitset.count_ones() >= DENSE_LIMB {
            changed += merge_limb_dense(limb, twin, work, latest, out);
            continue;
        }
        let mut b = bitset;
        while b != 0 {
            let w = limb * 64 + b.trailing_zeros() as usize;
            b &= b - 1;
            let wk = word(work, w);
            // Byte-select, branch-free: bytes the committer changed take
            // the working value, every other byte keeps the latest value.
            // This subsumes the uncontended case (latest == twin), where
            // the unchanged bytes of `wk` already equal `latest`.
            let lo = byte_diff_lo(word(twin, w), wk);
            changed += lo.count_ones() as usize;
            let m = lo * 0xff;
            set_word(out, w, (wk & m) | (word(latest, w) & !m));
        }
    }
    changed
}

/// Dirty words per 64-word limb above which it is cheaper to merge the
/// whole limb unconditionally (a straight-line vectorizable loop) than to
/// walk its set bits. Clean words within the limb rewrite the latest value
/// over itself, which is harmless.
const DENSE_LIMB: u32 = 12;

/// Branch-free byte-LWW merge of one full 512-byte limb stripe.
#[inline]
fn merge_limb_dense(
    limb: usize,
    twin: &[u8; PAGE_SIZE],
    work: &[u8; PAGE_SIZE],
    latest: &[u8; PAGE_SIZE],
    out: &mut [u8; PAGE_SIZE],
) -> usize {
    let base = limb * 512;
    let mut changed = 0;
    let t = twin[base..base + 512].chunks_exact(8);
    let k = work[base..base + 512].chunks_exact(8);
    let l = latest[base..base + 512].chunks_exact(8);
    let o = out[base..base + 512].chunks_exact_mut(8);
    for (((ob, tb), kb), lb) in o.zip(t).zip(k).zip(l) {
        let tw = u64::from_ne_bytes(tb.try_into().expect("8-byte chunk"));
        let wk = u64::from_ne_bytes(kb.try_into().expect("8-byte chunk"));
        let lt = u64::from_ne_bytes(lb.try_into().expect("8-byte chunk"));
        let lo = byte_diff_lo(tw, wk);
        changed += lo.count_ones() as usize;
        let m = lo * 0xff;
        ob.copy_from_slice(&((wk & m) | (lt & !m)).to_ne_bytes());
    }
    changed
}

/// Applies a thread's diff (`work` vs `twin`, precomputed as `map`) in
/// place onto `out`. Equivalent to [`merge_with_map`] with `latest`
/// pre-loaded into `out`; used by the parallel barrier commit, which
/// applies several diffs to one page in commit order.
pub fn apply_with_map(
    map: &DirtyMap,
    twin: &[u8; PAGE_SIZE],
    work: &[u8; PAGE_SIZE],
    out: &mut [u8; PAGE_SIZE],
) -> usize {
    let mut changed = 0;
    for (limb, &bitset) in map.bits.iter().enumerate() {
        if bitset == 0 {
            continue;
        }
        if bitset.count_ones() >= DENSE_LIMB {
            changed += apply_limb_dense(limb, twin, work, out);
            continue;
        }
        let mut b = bitset;
        while b != 0 {
            let w = limb * 64 + b.trailing_zeros() as usize;
            b &= b - 1;
            let wk = word(work, w);
            let lo = byte_diff_lo(word(twin, w), wk);
            changed += lo.count_ones() as usize;
            let m = lo * 0xff;
            set_word(out, w, (wk & m) | (word(out, w) & !m));
        }
    }
    changed
}

/// In-place variant of [`merge_limb_dense`]: `out` doubles as the latest
/// value, as in [`apply_with_map`].
#[inline]
fn apply_limb_dense(
    limb: usize,
    twin: &[u8; PAGE_SIZE],
    work: &[u8; PAGE_SIZE],
    out: &mut [u8; PAGE_SIZE],
) -> usize {
    let base = limb * 512;
    let mut changed = 0;
    let t = twin[base..base + 512].chunks_exact(8);
    let k = work[base..base + 512].chunks_exact(8);
    let o = out[base..base + 512].chunks_exact_mut(8);
    for ((ob, tb), kb) in o.zip(t).zip(k) {
        let tw = u64::from_ne_bytes(tb.try_into().expect("8-byte chunk"));
        let wk = u64::from_ne_bytes(kb.try_into().expect("8-byte chunk"));
        let lt = u64::from_ne_bytes((&*ob).try_into().expect("8-byte chunk"));
        let lo = byte_diff_lo(tw, wk);
        changed += lo.count_ones() as usize;
        let m = lo * 0xff;
        ob.copy_from_slice(&((wk & m) | (lt & !m)).to_ne_bytes());
    }
    changed
}

/// Merges one committed page (see [`merge_with_map`] for the semantics).
///
/// Unlike the commit path — which computes a [`DirtyMap`] first because it
/// needs the is-clean answer before allocating an output page — this entry
/// point produces `out` in a single fused, branch-free pass: every word is
/// a byte-select between `work` (bytes the committer changed) and `latest`
/// (everything else), so no bitmap, no pre-copy of `latest`, and no second
/// scan. Clean words degenerate to copying the `latest` word.
pub fn merge_into(
    twin: &[u8; PAGE_SIZE],
    work: &[u8; PAGE_SIZE],
    latest: &[u8; PAGE_SIZE],
    out: &mut [u8; PAGE_SIZE],
) -> usize {
    let mut changed = 0;
    let t = twin.chunks_exact(8);
    let k = work.chunks_exact(8);
    let l = latest.chunks_exact(8);
    let o = out.chunks_exact_mut(8);
    for (((ob, tb), kb), lb) in o.zip(t).zip(k).zip(l) {
        let tw = u64::from_ne_bytes(tb.try_into().expect("8-byte chunk"));
        let wk = u64::from_ne_bytes(kb.try_into().expect("8-byte chunk"));
        let lt = u64::from_ne_bytes(lb.try_into().expect("8-byte chunk"));
        let lo = byte_diff_lo(tw, wk);
        changed += lo.count_ones() as usize;
        let m = lo * 0xff;
        ob.copy_from_slice(&((wk & m) | (lt & !m)).to_ne_bytes());
    }
    changed
}

/// Applies a thread's diff (`work` vs `twin`) in place onto `out`.
///
/// Equivalent to [`merge_into`] with `latest` pre-loaded into `out`.
pub fn apply_diff(
    twin: &[u8; PAGE_SIZE],
    work: &[u8; PAGE_SIZE],
    out: &mut [u8; PAGE_SIZE],
) -> usize {
    let map = DirtyMap::diff(twin, work);
    apply_with_map(&map, twin, work, out)
}

/// Whether `work` differs from `twin` anywhere (i.e. the fault was followed
/// by an actual modification).
pub fn is_modified(twin: &[u8; PAGE_SIZE], work: &[u8; PAGE_SIZE]) -> bool {
    twin != work
}

/// Reference byte-loop implementations, kept for differential testing.
pub mod bytewise {
    use super::PAGE_SIZE;

    /// Byte-loop [`super::merge_into`]: the pre-optimization hot path.
    pub fn merge_into(
        twin: &[u8; PAGE_SIZE],
        work: &[u8; PAGE_SIZE],
        latest: &[u8; PAGE_SIZE],
        out: &mut [u8; PAGE_SIZE],
    ) -> usize {
        let mut changed = 0;
        for i in 0..PAGE_SIZE {
            if work[i] != twin[i] {
                out[i] = work[i];
                changed += 1;
            } else {
                out[i] = latest[i];
            }
        }
        changed
    }

    /// Byte-loop [`super::apply_diff`].
    pub fn apply_diff(
        twin: &[u8; PAGE_SIZE],
        work: &[u8; PAGE_SIZE],
        out: &mut [u8; PAGE_SIZE],
    ) -> usize {
        let mut changed = 0;
        for i in 0..PAGE_SIZE {
            if work[i] != twin[i] {
                out[i] = work[i];
                changed += 1;
            }
        }
        changed
    }

    /// Byte-loop modification test.
    pub fn is_modified(twin: &[u8; PAGE_SIZE], work: &[u8; PAGE_SIZE]) -> bool {
        (0..PAGE_SIZE).any(|i| twin[i] != work[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(f: impl Fn(usize) -> u8) -> Box<[u8; PAGE_SIZE]> {
        let mut p = Box::new([0u8; PAGE_SIZE]);
        for i in 0..PAGE_SIZE {
            p[i] = f(i);
        }
        p
    }

    #[test]
    fn local_changes_win_remote_fills_rest() {
        let twin = page(|_| 0);
        let mut work = page(|_| 0);
        work[10] = 7;
        let mut latest = page(|_| 0);
        latest[10] = 9; // remote also wrote byte 10
        latest[20] = 5; // remote wrote byte 20, we did not
        let mut out = Box::new([0u8; PAGE_SIZE]);
        let changed = merge_into(&twin, &work, &latest, &mut out);
        assert_eq!(changed, 1);
        assert_eq!(out[10], 7, "committer's byte wins (last writer)");
        assert_eq!(out[20], 5, "remote byte is preserved");
    }

    #[test]
    fn unmodified_page_merges_to_latest() {
        let twin = page(|i| (i % 251) as u8);
        let work = page(|i| (i % 251) as u8);
        let latest = page(|i| (i % 13) as u8);
        let mut out = Box::new([0u8; PAGE_SIZE]);
        assert_eq!(merge_into(&twin, &work, &latest, &mut out), 0);
        assert_eq!(&out[..], &latest[..]);
        assert!(!is_modified(&twin, &work));
        assert!(DirtyMap::diff(&twin, &work).is_clean());
    }

    #[test]
    fn apply_diff_matches_merge_into() {
        let twin = page(|i| (i % 7) as u8);
        let mut work = page(|i| (i % 7) as u8);
        work[0] = 0xff;
        work[4095] = 0xee;
        let latest = page(|i| (i % 11) as u8);
        let mut out_a = Box::new([0u8; PAGE_SIZE]);
        merge_into(&twin, &work, &latest, &mut out_a);
        let mut out_b = Box::new(*latest);
        let changed = apply_diff(&twin, &work, &mut out_b);
        assert_eq!(changed, 2);
        assert_eq!(&out_a[..], &out_b[..]);
    }

    #[test]
    fn disjoint_writers_both_survive() {
        // Two threads write disjoint bytes of the same page; whoever commits
        // second must preserve the first committer's bytes.
        let base = page(|_| 0);
        let mut work_a = page(|_| 0);
        work_a[100] = 1;
        let mut work_b = page(|_| 0);
        work_b[200] = 2;

        // A commits first: latest is base, so result has byte 100 = 1.
        let mut after_a = Box::new([0u8; PAGE_SIZE]);
        merge_into(&base, &work_a, &base, &mut after_a);
        // B commits second against A's result.
        let mut after_b = Box::new([0u8; PAGE_SIZE]);
        merge_into(&base, &work_b, &after_a, &mut after_b);
        assert_eq!(after_b[100], 1);
        assert_eq!(after_b[200], 2);
    }

    #[test]
    fn same_word_disjoint_bytes_both_survive() {
        // False sharing *within* one 8-byte word: the contended-word byte
        // path must preserve the remote writer's bytes.
        let base = page(|_| 0);
        let mut work_a = page(|_| 0);
        work_a[64] = 1; // word 8, byte 0
        let mut work_b = page(|_| 0);
        work_b[65] = 2; // word 8, byte 1

        let mut after_a = Box::new([0u8; PAGE_SIZE]);
        merge_into(&base, &work_a, &base, &mut after_a);
        let mut after_b = Box::new([0u8; PAGE_SIZE]);
        merge_into(&base, &work_b, &after_a, &mut after_b);
        assert_eq!(after_b[64], 1, "first committer's byte survives");
        assert_eq!(after_b[65], 2, "second committer's byte lands");
    }

    #[test]
    fn word_path_matches_bytewise_reference() {
        // Differential check across densities, including word-straddling
        // and word-internal conflicts.
        let mut seed = 0x9e37_79b9_u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        };
        for density in [0usize, 1, 8, 64, 400, PAGE_SIZE] {
            let twin = page(|i| (i % 17) as u8);
            let mut work = Box::new(*twin);
            for _ in 0..density {
                let i = (rnd() as usize) % PAGE_SIZE;
                work[i] = work[i].wrapping_add(1 + (rnd() % 255) as u8);
            }
            let latest = page(|i| {
                if i % 3 == 0 {
                    (i % 101) as u8
                } else {
                    (i % 17) as u8
                }
            });
            let mut fast = Box::new([0u8; PAGE_SIZE]);
            let fast_n = merge_into(&twin, &work, &latest, &mut fast);
            let mut slow = Box::new([0u8; PAGE_SIZE]);
            let slow_n = bytewise::merge_into(&twin, &work, &latest, &mut slow);
            assert_eq!(fast_n, slow_n, "changed-byte count (density {density})");
            assert_eq!(&fast[..], &slow[..], "merge bytes (density {density})");

            let mut fast_in = Box::new(*latest);
            let mut slow_in = Box::new(*latest);
            assert_eq!(
                apply_diff(&twin, &work, &mut fast_in),
                bytewise::apply_diff(&twin, &work, &mut slow_in),
            );
            assert_eq!(&fast_in[..], &slow_in[..]);
            assert_eq!(
                is_modified(&twin, &work),
                bytewise::is_modified(&twin, &work)
            );
        }
    }

    #[test]
    fn dirty_map_iterates_exact_word_set() {
        let twin = page(|_| 0);
        let mut work = page(|_| 0);
        work[0] = 1; // word 0
        work[15] = 1; // word 1
        work[4088] = 1; // word 511
        let map = DirtyMap::diff(&twin, &work);
        assert_eq!(map.iter().collect::<Vec<_>>(), vec![0, 1, 511]);
        assert_eq!(map.dirty_words(), 3);
        assert!(!map.is_clean());
    }
}
