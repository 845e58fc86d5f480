//! Small deterministic hashing utilities.
//!
//! Output hashes are the determinism witness used throughout the test suite:
//! two runs of a deterministic runtime must produce bit-identical final heap
//! regions, which we compare by FNV-1a digest rather than by byte copies.

use crate::PAGE_SIZE;

/// Incremental 64-bit FNV-1a hasher.
///
/// FNV-1a is used (rather than `std::hash`) because its output is stable
/// across Rust versions and processes, which matters for recording expected
/// digests in tests and experiment logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs a byte slice.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs a `u64` in little-endian byte order.
    #[inline]
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Returns the current digest.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte slice.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.update(bytes);
        h.digest()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Independent lanes of [`page_digest`]: four multiply chains in flight
/// at once is what one core overlaps; eight measured slower.
const LANES: usize = 4;
/// Odd, so multiplying by it is a bijection of `u64`.
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Distinct non-zero lane seeds: lanes are not interchangeable, and an
/// all-zero page does not hold a lane at zero.
const LANE_SEEDS: [u64; LANES] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];

/// 64-bit digest of one 4 KiB page: the per-page term of the commit log.
///
/// The page is read as 512 little-endian `u64` words; word `i` goes to
/// lane `i % 4`, and a lane absorbs a word `w` as `s = (s ^ w) * K;
/// s ^= s >> 32`. For a fixed word that step is a bijection of the lane
/// state, and for a fixed state a bijection of the word (xor, odd
/// multiply, xor-shift — each invertible), so two pages that differ in
/// exactly one word leave that word's lane in different states whatever
/// follows. The xor-shift carries high bits back down, which the multiply
/// alone never does. The four lanes are then folded, in lane order,
/// through [`Fnv1a`].
///
/// FNV-1a over the same bytes is 4,096 dependent multiplies; this is four
/// chains of 128, and measured 17x faster (PR 15; `docs/PERF.md`).
/// Like `Fnv1a` it is plain integer arithmetic with one code path, so
/// digests are stable across platforms, toolchains and processes and can
/// be pinned in tests and trace files.
pub fn page_digest(page: &[u8; PAGE_SIZE]) -> u64 {
    fn absorb(lane: u64, word: &[u8; 8]) -> u64 {
        let s = (lane ^ u64::from_le_bytes(*word)).wrapping_mul(LANE_MUL);
        s ^ (s >> 32)
    }
    let (words, _) = page.as_chunks::<8>();
    let (blocks, _) = words.as_chunks::<LANES>();
    let [mut a, mut b, mut c, mut d] = LANE_SEEDS;
    // Spelled lane by lane so an unoptimised build keeps the four states
    // in locals too: a debug test run digests every page it commits.
    for [w0, w1, w2, w3] in blocks {
        a = absorb(a, w0);
        b = absorb(b, w1);
        c = absorb(c, w2);
        d = absorb(d, w3);
    }
    let mut h = Fnv1a::new();
    for lane in [a, b, c, d] {
        h.update_u64(lane);
    }
    h.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.digest(), Fnv1a::hash(b"foobar"));
    }

    #[test]
    fn u64_update_is_le() {
        let mut a = Fnv1a::new();
        a.update_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.digest(), b.digest());
    }

    /// A page whose word `i` is a distinct function of `i`.
    fn patterned() -> [u8; PAGE_SIZE] {
        let mut page = [0u8; PAGE_SIZE];
        for (i, word) in page.chunks_exact_mut(8).enumerate() {
            let w = (i as u64 + 1).wrapping_mul(0x0123_4567_89ab_cdef);
            word.copy_from_slice(&w.to_le_bytes());
        }
        page
    }

    fn with_word(mut page: [u8; PAGE_SIZE], i: usize, w: u64) -> [u8; PAGE_SIZE] {
        page[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
        page
    }

    fn word(page: &[u8; PAGE_SIZE], i: usize) -> u64 {
        u64::from_le_bytes(page[8 * i..8 * i + 8].try_into().unwrap())
    }

    #[test]
    fn page_digest_known_vectors() {
        // Pinned like the FNV vectors above: commit-log digests are stored
        // in trace files and golden tables, so these must not move with
        // the toolchain or the platform.
        assert_eq!(page_digest(&[0u8; PAGE_SIZE]), 0x7875_7782_1ee6_20df);
        assert_eq!(page_digest(&[0xffu8; PAGE_SIZE]), 0xe69b_f69e_be26_8b14);
        assert_eq!(page_digest(&patterned()), 0x989a_5c8e_77b0_8663);
    }

    #[test]
    fn every_single_bit_flip_changes_the_page_digest() {
        for base in [[0u8; PAGE_SIZE], patterned()] {
            let want = page_digest(&base);
            let mut page = base;
            for bit in 0..8 * PAGE_SIZE {
                page[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_digest(&page), want, "bit {bit} is not covered");
                page[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn swapping_two_words_changes_the_page_digest() {
        let base = patterned();
        // Words 0 and 4 share lane 0; words 0 and 1 sit in lanes 0 and 1;
        // 1 and 511 are far apart in different lanes.
        for (i, j) in [(0, LANES), (0, 1), (1, 511), (8, 8 + 2 * LANES)] {
            let (a, b) = (word(&base, i), word(&base, j));
            assert_ne!(a, b);
            let swapped = with_word(with_word(base, i, b), j, a);
            assert_ne!(page_digest(&swapped), page_digest(&base), "{i} <-> {j}");
        }
    }

    #[test]
    fn the_last_word_is_covered() {
        let base = patterned();
        let other = with_word(base, 511, word(&base, 511) ^ (1 << 63));
        assert_ne!(page_digest(&other), page_digest(&base));
    }
}
