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

    #[test]
    fn u64_update_is_le() {
        let mut a = Fnv1a::new();
        a.update_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.digest(), b.digest());
    }
}
