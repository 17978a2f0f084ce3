//! The toolkit's one checksum/fingerprint definition: FNV-1a over a
//! canonical word stream.
//!
//! Three consumers share it, so behavioural identity means the same
//! thing everywhere:
//!
//! * [`FlatIr::fingerprint`](crate::FlatIr::fingerprint) hashes the
//!   lowered IR through [`Fnv64`]'s word-stream methods;
//! * `stategen_runtime::Engine` folds bound parameter values into that
//!   hash with [`fold_params`] (the same EFSM bound to different
//!   thresholds is a *different* behaviour), and hot-swap compatibility
//!   checks compare the folded values;
//! * the deployable-artifact format ([`crate::artifact`]) uses
//!   [`fnv1a`] for its section and whole-file checksums and stores the
//!   folded content fingerprint in its footer, so an artifact on disk
//!   can be compared against a running engine before a swap is
//!   attempted.
//!
//! # A word at a time
//!
//! The values are FNV-1a's, bit for bit — the published test vectors
//! hold — but [`Fnv64`] absorbs its input eight little-endian bytes at
//! a time. FNV-1a's step is `h = (h ^ byte) * PRIME`, so a zero byte
//! only multiplies by the prime, and multiplication mod 2⁶⁴ is
//! associative: a non-zero byte followed by a run of `k` zero bytes is
//! one xor and one multiply by `PRIME^(1 + k)`, and an all-zero word is
//! one multiply by `PRIME^8`. Both streams this module hashes are
//! mostly zero bytes — artifacts are small little-endian `u32`s, the
//! fingerprint stream small `u64`s — so most of the per-byte multiply
//! chain disappears.

/// FNV-1a over a canonical word stream. Length-prefixed encodings keep
/// the stream prefix-free, so structurally different inputs cannot
/// collide by concatenation.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

/// The FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `POW[k]` is `PRIME^k` (mod 2⁶⁴): absorbing `k` zero bytes.
const POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// Absorbs the low `len` (≤ 8) bytes of `word`, least significant
/// first — exactly FNV-1a's byte loop over them, with each zero-byte
/// run folded into the multiply before it.
#[inline]
fn absorb(mut h: u64, mut word: u64, len: u32) -> u64 {
    if word == 0 {
        return h.wrapping_mul(POW[len as usize]);
    }
    let lead = word.trailing_zeros() / 8;
    h = h.wrapping_mul(POW[lead as usize]);
    word >>= 8 * lead;
    let mut left = len - lead;
    // Invariant: the low byte of `word` is non-zero, `left` bytes remain.
    loop {
        let byte = word & 0xff;
        word >>= 8;
        left -= 1;
        if word == 0 {
            return (h ^ byte).wrapping_mul(POW[1 + left as usize]);
        }
        let zeros = word.trailing_zeros() / 8;
        h = (h ^ byte).wrapping_mul(POW[1 + zeros as usize]);
        word >>= 8 * zeros;
        left -= zeros;
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(OFFSET_BASIS)
    }

    /// Absorbs raw bytes (no length prefix — use the typed methods for
    /// prefix-free streams).
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        let mut h = self.0;
        for word in &mut words {
            let word = word.try_into().expect("chunks_exact(8) yields 8 bytes");
            h = absorb(h, u64::from_le_bytes(word), 8);
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        self.0 = absorb(h, u64::from_le_bytes(last), tail.len() as u32);
    }

    /// Absorbs one word, little-endian.
    pub fn u64(&mut self, word: u64) {
        self.0 = absorb(self.0, word, 8);
    }

    /// Absorbs a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Absorbs a length-prefixed list of length-prefixed strings.
    pub(crate) fn strs(&mut self, strings: &[String]) {
        self.u64(strings.len() as u64);
        for s in strings {
            self.str(s);
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte slice in one call — the artifact format's section
/// and whole-file checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.finish()
}

/// Folds bound parameter values into an IR fingerprint: the same
/// compiled EFSM bound to different thresholds is a *different*
/// behaviour, so snapshots and hot-swaps must not cross bindings.
/// Folding an empty binding is the identity, so unparameterised
/// machines fingerprint the same whether or not a binding step ran.
pub fn fold_params(mut fp: u64, params: &[i64]) -> u64 {
    fp ^= (params.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &p in params {
        fp = (fp ^ (p as u64)).wrapping_mul(PRIME);
        fp = fp.rotate_left(29);
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a as specified: one xor and one multiply per byte. The
    /// reference the word path is checked against.
    fn fnv1a_bytewise(mut h: u64, bytes: &[u8]) -> u64 {
        for &byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// xorshift64*: a tiny deterministic generator for the stream tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Bytes that are zero three times in four, like the streams
        /// the toolkit hashes.
        fn zero_heavy(&mut self, len: usize) -> Vec<u8> {
            (0..len)
                .map(|_| match self.below(4) {
                    0 => self.next() as u8,
                    _ => 0,
                })
                .collect()
        }
    }

    #[test]
    fn stream_is_prefix_free() {
        let mut a = Fnv64::new();
        a.strs(&["ab".into()]);
        let mut b = Fnv64::new();
        b.strs(&["a".into(), "b".into()]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn word_path_matches_the_byte_loop_at_every_length() {
        let mut rng = Rng(0x5eed_f00d);
        for len in 0..=70 {
            for _ in 0..64 {
                let bytes = rng.zero_heavy(len);
                assert_eq!(
                    fnv1a(&bytes),
                    fnv1a_bytewise(OFFSET_BASIS, &bytes),
                    "{bytes:?}"
                );
            }
            // The extremes: all zero, and no zero at all.
            let zeros = vec![0u8; len];
            assert_eq!(fnv1a(&zeros), fnv1a_bytewise(OFFSET_BASIS, &zeros));
            let dense: Vec<u8> = (0..len).map(|i| i as u8 | 1).collect();
            assert_eq!(fnv1a(&dense), fnv1a_bytewise(OFFSET_BASIS, &dense));
        }
    }

    #[test]
    fn split_streams_match_the_byte_loop() {
        // One stream cut into random `bytes` / `u64` / `str` / `strs`
        // calls hashes as the byte loop over its concatenated encoding.
        let mut rng = Rng(0xc0ff_ee11);
        for _ in 0..500 {
            let mut h = Fnv64::new();
            let mut stream = Vec::new();
            for _ in 0..rng.below(12) {
                match rng.below(4) {
                    0 => {
                        let len = rng.below(20);
                        let bytes = rng.zero_heavy(len);
                        h.bytes(&bytes);
                        stream.extend_from_slice(&bytes);
                    }
                    1 => {
                        let word = rng.next() >> (8 * rng.below(8));
                        h.u64(word);
                        stream.extend_from_slice(&word.to_le_bytes());
                    }
                    2 => {
                        let s = "x".repeat(rng.below(11));
                        h.str(&s);
                        stream.extend_from_slice(&(s.len() as u64).to_le_bytes());
                        stream.extend_from_slice(s.as_bytes());
                    }
                    _ => {
                        let strings: Vec<String> =
                            (0..rng.below(4)).map(|i| "ab".repeat(i)).collect();
                        h.strs(&strings);
                        stream.extend_from_slice(&(strings.len() as u64).to_le_bytes());
                        for s in &strings {
                            stream.extend_from_slice(&(s.len() as u64).to_le_bytes());
                            stream.extend_from_slice(s.as_bytes());
                        }
                    }
                }
            }
            assert_eq!(h.finish(), fnv1a_bytewise(OFFSET_BASIS, &stream));
        }
    }

    #[test]
    fn fold_params_distinguishes_bindings_and_fixes_empty() {
        let fp = fnv1a(b"machine");
        assert_eq!(fold_params(fp, &[]), fp);
        assert_ne!(fold_params(fp, &[1]), fp);
        assert_ne!(fold_params(fp, &[1]), fold_params(fp, &[2]));
        assert_ne!(fold_params(fp, &[1, 2]), fold_params(fp, &[2, 1]));
        assert_ne!(fold_params(fp, &[0]), fold_params(fp, &[0, 0]));
    }
}
