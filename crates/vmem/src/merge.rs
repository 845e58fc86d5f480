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
//! bytes per page). Byte work happens only inside dirty words, as a
//! branch-free select between the working and the latest word.
//!
//! The bitmap is made by the stores, not by a scan: `Workspace::{st_u64,
//! write_bytes}` mark every word they overlap, and at commit
//! `Workspace::take_modified` — where both commits get it, and where it
//! also answers "was this page modified?" — drops the marks of words whose
//! value did not change (`DirtyMap::retain_modified`). It is consumed by
//! [`apply_with_map`], the one word kernel. The kernel picks between
//! walking a limb's set bits and rewriting the whole limb from the limb's
//! own popcount, and the end-to-end benchmark has a workload on each side
//! of that test (docs/PERF.md "Merge kernels"). [`apply_diff`] and
//! [`merge_into`] wrap it for callers that hold no map and scan for one
//! ([`DirtyMap::diff`], which no commit calls); the original byte loops
//! are kept in [`bytewise`] as the reference the tests compare against.
//!
//! The same map is what a commit records: `record_term` digests a
//! published page's write set and the values under it, the per-page term
//! of the commit log (`Segment::log_hash`).

use std::hint::select_unpredictable;

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
/// A faulted page carries one from the fault on, as an upper bound: every
/// word stored to is marked. The commit filters it once
/// (`DirtyMap::retain_modified`) and uses the result for both the "did
/// this fault lead to a modification?" test and the actual merge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirtyMap {
    bits: [u64; MAP_WORDS],
}

impl DirtyMap {
    /// Marks the words an 8-byte store at page offset `off` overlaps: one
    /// when aligned, two otherwise. `off + 8 <= PAGE_SIZE`; the limb index
    /// is reduced rather than checked, the per-store path holds no panic.
    #[inline(always)]
    pub(crate) fn mark_u64(&mut self, off: usize) {
        debug_assert!(off + 8 <= PAGE_SIZE);
        // The words of bytes `off` and `off + 7`.
        let (first, last) = (off / 8, off.div_ceil(8));
        self.bits[first / 64 % MAP_WORDS] |= 1 << (first % 64);
        self.bits[last / 64 % MAP_WORDS] |= 1 << (last % 64);
    }

    /// Marks every word the byte range `off..off + n` of the page overlaps;
    /// none when `n` is zero.
    pub(crate) fn mark_bytes(&mut self, off: usize, n: usize) {
        if n == 0 {
            return;
        }
        let (first, last) = (off / 8, (off + n - 1) / 8);
        for limb in first / 64..=last / 64 {
            let lo = if limb == first / 64 { first % 64 } else { 0 };
            let hi = if limb == last / 64 { last % 64 } else { 63 };
            self.bits[limb] |= (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
        }
    }

    /// Clears the mark of every word whose working value equals the twin's,
    /// reading the marked words only: a store of the value already there
    /// and a write that was later undone leave the word clean. What is left
    /// of a map that marked every word stored to is [`DirtyMap::diff`].
    pub(crate) fn retain_modified(&mut self, twin: &[u8; PAGE_SIZE], work: &[u8; PAGE_SIZE]) {
        for (limb, bits) in self.bits.iter_mut().enumerate() {
            let mut b = *bits;
            while b != 0 {
                let i = b.trailing_zeros();
                b &= b - 1;
                let w = limb * 64 + i as usize;
                if word(twin, w) == word(work, w) {
                    *bits &= !(1 << i);
                }
            }
        }
    }

    /// Diffs `work` against `twin` with a full-page scan, one bit per
    /// differing word: the map for callers that saw no stores
    /// ([`apply_diff`]) and the oracle the commit's map is asserted against.
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

    /// Marks every word `other` marks: a merged page's write set is the
    /// union of its diffs' maps.
    pub(crate) fn union(&mut self, other: &DirtyMap) {
        for (a, b) in self.bits.iter_mut().zip(other.bits) {
            *a |= b;
        }
    }

    /// Whether every word marked here is marked in `other` too.
    pub(crate) fn is_subset(&self, other: &DirtyMap) -> bool {
        self.bits.iter().zip(other.bits).all(|(a, b)| a & !b == 0)
    }
}

/// Dirty words per 64-word limb above which it is cheaper to merge the
/// whole limb unconditionally (a straight-line vectorizable loop) than to
/// walk its set bits. Clean words within the limb rewrite the latest value
/// over itself, which is harmless. [`record_term`] takes the same test.
const DENSE_LIMB: u32 = 12;

/// The word kernel — the only one: applies a thread's diff (`work` against
/// `twin`, precomputed as `map`) in place onto `out`.
///
/// `twin` is the page as it looked when the committing thread faulted it,
/// `work` the thread's working copy, and `out` holds the currently
/// committed page (which may contain other threads' newer writes). `out`
/// takes `work[i]` wherever the thread modified byte `i` and keeps its own
/// byte elsewhere; clean words are not touched. Returns the number of bytes
/// the committing thread contributed.
///
/// The serial commit applies one diff to a copy of the latest page; the
/// parallel barrier commit applies several to one copy, in commit order.
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
            // Byte-select, branch-free: bytes the committer changed take
            // the working value, every other byte keeps the latest value.
            // This subsumes the uncontended case (latest == twin), where
            // the unchanged bytes of `wk` already equal `latest`.
            let lo = byte_diff_lo(word(twin, w), wk);
            changed += lo.count_ones() as usize;
            let m = lo * 0xff;
            set_word(out, w, (wk & m) | (word(out, w) & !m));
        }
    }
    changed
}

/// Branch-free byte-LWW merge of one full 512-byte limb stripe, in place:
/// `out` doubles as the latest value, as in [`apply_with_map`].
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

/// Applies a thread's diff (`work` vs `twin`) in place onto `out`: the
/// map a commit gets from `Workspace::take_modified`, here made by a scan,
/// then the kernel.
pub fn apply_diff(
    twin: &[u8; PAGE_SIZE],
    work: &[u8; PAGE_SIZE],
    out: &mut [u8; PAGE_SIZE],
) -> usize {
    apply_with_map(&DirtyMap::diff(twin, work), twin, work, out)
}

/// Merges one committed page into `out` the way [`crate::Segment::commit`]
/// does: copy `latest`, then [`apply_diff`]. Kept for the differential
/// tests and `e2e/`'s `vmem.merge_ns_per_page` probe; no commit calls it.
pub fn merge_into(
    twin: &[u8; PAGE_SIZE],
    work: &[u8; PAGE_SIZE],
    latest: &[u8; PAGE_SIZE],
    out: &mut [u8; PAGE_SIZE],
) -> usize {
    *out = *latest;
    apply_diff(twin, work, out)
}

/// Independent lanes of [`record_term`]: a dense limb keeps four multiply
/// chains in flight, what one core overlaps.
const LANES: usize = 4;
/// Odd, so multiplying by it is a bijection of `u64`.
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Distinct non-zero lane seeds: lanes are not interchangeable, and an
/// empty record does not hold a lane at zero.
const LANE_SEEDS: [u64; LANES] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];

/// One lane step, `s = (s ^ w) * K; s ^= s >> 32`. For a fixed word it is
/// a bijection of the lane state, and for a fixed state a bijection of the
/// word (xor, odd multiply, xor-shift — each invertible), so two records
/// that differ in one absorbed word leave its lane in different states
/// whatever follows. The xor-shift carries high bits back down, which the
/// multiply alone never does.
#[inline(always)]
fn absorb(lane: u64, w: u64) -> u64 {
    let s = (lane ^ w).wrapping_mul(LANE_MUL);
    s ^ (s >> 32)
}

/// 64-bit digest of one published page's record `(map, values)`: the
/// per-page term of the commit log. `map` is the page's write set and the
/// values are `page`'s words under it.
///
/// The map's eight limbs go first, limb `i` into lane `i % 4`; then every
/// marked word `w`, in word order, as a little-endian `u64` into lane
/// `w % 4`. The four lanes are then absorbed, in lane order, into one
/// more chain started at zero, which is the term: for fixed other lanes it
/// is a bijection of each lane's state, as the lane step is of its word.
/// A limb with fewer than `DENSE_LIMB` marks walks its set bits; a denser
/// one runs a straight, branch-free select over its 64 words, and a limb
/// with every word marked (a whole-page store) needs no select. All absorb
/// the same words into the same lanes, so the term is a function of the
/// record alone. Its cost is one multiply per marked word, plus twelve
/// per page: the eight limbs and the four lanes.
///
/// It is plain integer arithmetic, so terms are stable across platforms,
/// toolchains and processes and can be pinned in tests and trace files.
pub(crate) fn record_term(map: &DirtyMap, page: &[u8; PAGE_SIZE]) -> u64 {
    // Four locals, not an array: LLVM vectorises an array's four multiply
    // chains into SSE2, which has no 64-bit multiply, and a whole page
    // then costs about a third more (docs/PERF.md).
    let [mut a, mut b, mut c, mut d] = LANE_SEEDS;
    for [l0, l1, l2, l3] in map.bits.as_chunks::<LANES>().0 {
        (a, b, c, d) = (
            absorb(a, *l0),
            absorb(b, *l1),
            absorb(c, *l2),
            absorb(d, *l3),
        );
    }
    let (words, _) = page.as_chunks::<8>();
    for (limb, &bits) in map.bits.iter().enumerate() {
        let stripe = &words[limb * 64..limb * 64 + 64];
        let (blocks, _) = stripe.as_chunks::<LANES>();
        if bits == u64::MAX {
            for [w0, w1, w2, w3] in blocks {
                a = absorb(a, u64::from_le_bytes(*w0));
                b = absorb(b, u64::from_le_bytes(*w1));
                c = absorb(c, u64::from_le_bytes(*w2));
                d = absorb(d, u64::from_le_bytes(*w3));
            }
        } else if bits.count_ones() >= DENSE_LIMB {
            for (k, [w0, w1, w2, w3]) in blocks.iter().enumerate() {
                let m = bits >> (LANES * k);
                a = absorb_if(a, w0, m & 1);
                b = absorb_if(b, w1, m >> 1 & 1);
                c = absorb_if(c, w2, m >> 2 & 1);
                d = absorb_if(d, w3, m >> 3 & 1);
            }
        } else {
            let mut rest = bits;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let lane = i % LANES;
                let state = match lane {
                    0 => a,
                    1 => b,
                    2 => c,
                    _ => d,
                };
                let s = absorb(state, u64::from_le_bytes(stripe[i]));
                (a, b, c, d) = (
                    select_unpredictable(lane == 0, s, a),
                    select_unpredictable(lane == 1, s, b),
                    select_unpredictable(lane == 2, s, c),
                    select_unpredictable(lane == 3, s, d),
                );
            }
        }
    }
    [a, b, c, d].into_iter().fold(0, absorb)
}

/// The dense limb's step: `word` absorbed into `lane` if `mark` is 1, the
/// lane unchanged if it is 0, chosen by a select and not by a branch.
#[inline(always)]
fn absorb_if(lane: u64, word: &[u8; 8], mark: u64) -> u64 {
    select_unpredictable(mark != 0, absorb(lane, u64::from_le_bytes(*word)), lane)
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
        assert!(DirtyMap::diff(&twin, &work).is_clean());
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

    /// The marks a store leaves are the words its bytes lie in: checked
    /// against a byte-at-a-time model at the limb boundary (words 63 / 64),
    /// the last word (511), word-crossing pairs and whole-page runs.
    #[test]
    fn stores_mark_exactly_the_words_they_overlap() {
        fn model(off: usize, n: usize) -> [u64; MAP_WORDS] {
            let mut bits = [0u64; MAP_WORDS];
            for byte in off..off + n {
                bits[byte / 8 / 64] |= 1 << (byte / 8 % 64);
            }
            bits
        }
        for off in [
            0,
            1,
            8,
            63 * 8,
            63 * 8 + 1,
            64 * 8 - 1,
            64 * 8,
            511 * 8 - 7,
            511 * 8,
        ] {
            let mut m = DirtyMap::default();
            m.mark_u64(off);
            assert_eq!(m.bits, model(off, 8), "u64 store at {off}");
        }
        let ranges = [
            (0, 0),
            (4095, 0),
            (0, 1),
            (7, 2),
            (63 * 8 + 7, 2),
            (64 * 8, 1),
            (4095, 1),
            (511 * 8 - 1, 9),
            (3, 64 * 8),
            (100, 2000),
            (0, PAGE_SIZE),
        ];
        for (off, n) in ranges {
            let mut m = DirtyMap::default();
            m.mark_bytes(off, n);
            assert_eq!(m.bits, model(off, n), "{n} bytes at {off}");
        }
        // Marks accumulate, and the filter clears exactly the unchanged.
        let twin = page(|i| (i % 17) as u8);
        let mut work = Box::new(*twin);
        let mut m = DirtyMap::default();
        m.mark_u64(63 * 8 + 1);
        m.mark_bytes(511 * 8, 8);
        work[64 * 8] ^= 1;
        m.retain_modified(&twin, &work);
        assert_eq!(m.bits, model(64 * 8, 1));
        assert_eq!(m, DirtyMap::diff(&twin, &work));
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
        let twin = page(|i| (i % 17) as u8);
        let mut cases: Vec<(String, Box<[u8; PAGE_SIZE]>)> = Vec::new();
        for density in [0usize, 1, 8, 64, 400, PAGE_SIZE] {
            let mut work = Box::new(*twin);
            for _ in 0..density {
                let i = (rnd() as usize) % PAGE_SIZE;
                work[i] = work[i].wrapping_add(1 + (rnd() % 255) as u8);
            }
            cases.push((format!("density {density}"), work));
        }
        // Either side of `DENSE_LIMB`: limb 3 holds exactly 11, 12 and 13
        // dirty words (one byte of every fifth word), every other limb is
        // clean. `latest` below differs from the twin at every third byte,
        // so it conflicts inside the dirty words and differs inside clean
        // words of the dense limb, which the stripe rewrites over itself.
        for words in [DENSE_LIMB - 1, DENSE_LIMB, DENSE_LIMB + 1] {
            let mut work = Box::new(*twin);
            for w in 0..words as usize {
                let i = 3 * 512 + w * 40 + w % 8;
                work[i] = work[i].wrapping_add(1);
            }
            let per_limb = DirtyMap::diff(&twin, &work).bits.map(u64::count_ones);
            assert_eq!(per_limb, [0, 0, 0, words, 0, 0, 0, 0]);
            cases.push((format!("{words} words in one limb"), work));
        }
        let latest = page(|i| {
            if i % 3 == 0 {
                (i % 101) as u8
            } else {
                (i % 17) as u8
            }
        });
        for (case, work) in &cases {
            let mut fast = Box::new([0u8; PAGE_SIZE]);
            let fast_n = merge_into(&twin, work, &latest, &mut fast);
            let mut slow = Box::new([0u8; PAGE_SIZE]);
            let slow_n = bytewise::merge_into(&twin, work, &latest, &mut slow);
            assert_eq!(fast_n, slow_n, "changed-byte count ({case})");
            assert_eq!(&fast[..], &slow[..], "merge bytes ({case})");

            let mut fast_in = Box::new(*latest);
            let mut slow_in = Box::new(*latest);
            assert_eq!(
                apply_diff(&twin, work, &mut fast_in),
                bytewise::apply_diff(&twin, work, &mut slow_in),
                "changed-byte count in place ({case})"
            );
            assert_eq!(&fast_in[..], &slow_in[..], "bytes in place ({case})");
            assert_eq!(
                !DirtyMap::diff(&twin, work).is_clean(),
                slow_n != 0,
                "modified ({case})"
            );
        }
    }

    /// A map marking exactly `words`.
    fn map_of(words: impl IntoIterator<Item = usize>) -> DirtyMap {
        let mut m = DirtyMap::default();
        for w in words {
            m.bits[w / 64] |= 1 << (w % 64);
        }
        m
    }

    /// A page whose word `i` is a distinct function of `i`.
    fn patterned() -> Box<[u8; PAGE_SIZE]> {
        let mut p = Box::new([0u8; PAGE_SIZE]);
        for (i, w) in p.chunks_exact_mut(8).enumerate() {
            w.copy_from_slice(
                &(i as u64 + 1)
                    .wrapping_mul(0x0123_4567_89ab_cdef)
                    .to_le_bytes(),
            );
        }
        p
    }

    fn le_word(p: &[u8; PAGE_SIZE], w: usize) -> u64 {
        u64::from_le_bytes(p[8 * w..8 * w + 8].try_into().unwrap())
    }

    fn with_le_word(mut p: Box<[u8; PAGE_SIZE]>, w: usize, v: u64) -> Box<[u8; PAGE_SIZE]> {
        p[8 * w..8 * w + 8].copy_from_slice(&v.to_le_bytes());
        p
    }

    /// [`record_term`] as one loop over every word of the page.
    fn reference_term(map: &DirtyMap, page: &[u8; PAGE_SIZE]) -> u64 {
        let mut lanes = LANE_SEEDS;
        for (i, &limb) in map.bits.iter().enumerate() {
            lanes[i % LANES] = absorb(lanes[i % LANES], limb);
        }
        for w in 0..PAGE_WORDS {
            if map.bits[w / 64] >> (w % 64) & 1 == 1 {
                lanes[w % LANES] = absorb(lanes[w % LANES], le_word(page, w));
            }
        }
        lanes.into_iter().fold(0, absorb)
    }

    /// Marks on both sides of `DENSE_LIMB`: a sparse limb 0 with the first
    /// and last word, a whole limb 1, exactly `DENSE_LIMB` words of limb 3,
    /// and the page's last word.
    fn mixed_map() -> DirtyMap {
        let dense = (0..DENSE_LIMB as usize).map(|k| 3 * 64 + 5 * k);
        map_of(
            [0, 5, 63]
                .into_iter()
                .chain(64..128)
                .chain(dense)
                .chain([511]),
        )
    }

    #[test]
    fn record_term_known_vectors() {
        // Pinned: commit-log digests are stored in trace files and golden
        // tables, so these must not move with the toolchain or the
        // platform.
        let all = map_of(0..PAGE_WORDS);
        let terms = [
            record_term(&DirtyMap::default(), &[0u8; PAGE_SIZE]),
            record_term(&all, &[0xffu8; PAGE_SIZE]),
            record_term(&all, &patterned()),
            record_term(&mixed_map(), &patterned()),
            record_term(&map_of([8, 9]), &patterned()),
        ];
        assert_eq!(
            terms,
            [
                0x2025_978f_bff4_b68b,
                0x06db_b5bc_a383_1d32,
                0x2d10_2716_f7c9_cc88,
                0x66a6_355f_448a_f16f,
                0xe27f_86c7_3346_06dd,
            ]
        );
    }

    #[test]
    fn every_bit_of_a_marked_word_is_covered_and_no_unmarked_word_is() {
        let map = mixed_map();
        for base in [Box::new([0u8; PAGE_SIZE]), patterned()] {
            let want = record_term(&map, &base);
            let mut page = base.clone();
            for w in 0..PAGE_WORDS {
                let marked = map.bits[w / 64] >> (w % 64) & 1 == 1;
                for bit in 8 * w * 8..8 * (w + 1) * 8 {
                    page[bit / 8] ^= 1 << (bit % 8);
                    let got = record_term(&map, &page);
                    assert!(
                        marked != (got == want),
                        "word {w} bit {bit}: marked {marked}"
                    );
                    page[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
    }

    #[test]
    fn moving_a_value_to_another_word_changes_the_term() {
        let base = patterned();
        let map = mixed_map();
        // Words 0 and 5 are one sparse limb apart in lanes 0 and 1; 64 and
        // 68 share lane 0 in the whole limb; 0 and 64 lie in different
        // limbs; 63 and 511 are the last words of their limbs.
        for (i, j) in [(0, 5), (64, 68), (0, 64), (63, 511), (3 * 64, 3 * 64 + 5)] {
            let (a, b) = (le_word(&base, i), le_word(&base, j));
            let swapped = with_le_word(with_le_word(base.clone(), i, b), j, a);
            assert_ne!(
                record_term(&map, &swapped),
                record_term(&map, &base),
                "{i} <-> {j}"
            );
        }
        // One value written to word 8 or to word 9 of the same page.
        let v = 0xdead_beef;
        let at = |w| record_term(&map_of([w]), &with_le_word(base.clone(), w, v));
        assert_ne!(at(8), at(9));
        assert_ne!(at(8), at(8 + 64));
    }

    #[test]
    fn dense_and_sparse_limbs_equal_the_one_loop_reference() {
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let page = patterned();
        for marks in [DENSE_LIMB - 1, DENSE_LIMB, 64] {
            for _ in 0..16 {
                // `marks` distinct words in every limb.
                let mut map = DirtyMap::default();
                for limb in map.bits.iter_mut() {
                    while limb.count_ones() < marks {
                        *limb |= 1 << (rnd() % 64);
                    }
                }
                assert!(map.bits.iter().all(|l| l.count_ones() == marks));
                let got = record_term(&map, &page);
                assert_eq!(got, reference_term(&map, &page), "{marks} marks a limb");
            }
        }
        assert_eq!(
            record_term(&mixed_map(), &page),
            reference_term(&mixed_map(), &page)
        );
    }
}
