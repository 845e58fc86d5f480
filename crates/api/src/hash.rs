//! Small deterministic hashing utilities.
//!
//! Output hashes are the determinism witness used throughout the test suite:
//! two runs of a deterministic runtime must produce bit-identical final heap
//! regions, which we compare by FNV-1a digest rather than by byte copies.

/// Incremental 64-bit FNV-1a hasher.
///
/// FNV-1a is used (rather than `std::hash`) because its output is stable
/// across Rust versions and processes, which matters for recording expected
/// digests in tests and experiment logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME` to the power `k`, for `k` in `0..=8`: absorbing `k` zero
/// bytes multiplies the state by it, because `(h ^ 0) · P = h · P`.
const PRIME_POW: [u64; 9] = {
    let mut t = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        t[k] = t[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    t
};

impl Fnv1a {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Continues a hash whose digest is `digest`: FNV-1a's digest is its
    /// whole state, so absorbing more bytes here equals absorbing them
    /// before the digest was taken.
    pub fn resume(digest: u64) -> Self {
        Fnv1a(digest)
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

    /// Absorbs `a` into `self` and `b` into `other` in one loop. The two
    /// chains are independent, so their multiplications overlap: the pass
    /// costs about what the longer input would alone.
    #[inline]
    pub fn update_beside(&mut self, a: &[u8], other: &mut Fnv1a, b: &[u8]) {
        let n = a.len().min(b.len());
        let (mut x, mut y) = (self.0, other.0);
        for (&p, &q) in a[..n].iter().zip(&b[..n]) {
            x = (x ^ p as u64).wrapping_mul(FNV_PRIME);
            y = (y ^ q as u64).wrapping_mul(FNV_PRIME);
        }
        (self.0, other.0) = (x, y);
        self.update(&a[n..]);
        other.update(&b[n..]);
    }

    /// Absorbs a `u64` in little-endian byte order. The bytes above the
    /// highest nonzero one are absorbed at once, as one multiplication by
    /// a power of the prime: most folded values (ids, clocks, counts) fill
    /// two or three of the eight.
    #[inline]
    pub fn update_u64(&mut self, v: u64) {
        let zeros = (v.leading_zeros() / 8) as usize;
        let (mut h, mut v) = (self.0, v);
        for _ in zeros..8 {
            h ^= v & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
            v >>= 8;
        }
        self.0 = h.wrapping_mul(PRIME_POW[zeros]);
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
        let mut r = Fnv1a::resume(Fnv1a::hash(b"foo"));
        r.update(b"bar");
        assert_eq!(r, h);
    }

    /// Skipping the high zero bytes is exact: every byte length, each
    /// edge, and seeded random values of every width.
    #[test]
    fn u64_update_equals_its_bytes() {
        let mut values = vec![0, 1, 0xff, 0x100, 1 << 56, u64::MAX, u64::MAX >> 8];
        let mut x = 0x0123_4567_89ab_cdefu64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            values.push(x >> (x % 64));
        }
        let (mut fast, mut bytes) = (Fnv1a::new(), Fnv1a::new());
        for v in values {
            fast.update_u64(v);
            bytes.update(&v.to_le_bytes());
            assert_eq!(fast, bytes, "{v:#x}");
        }
    }

    #[test]
    fn u64_update_is_le() {
        let mut a = Fnv1a::new();
        a.update_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.digest(), b.digest());
    }
}
