//! The benchmark's own seeded input generator.
//!
//! Every input a workload feeds the crates under test — message
//! sequences, per-session divergence prefixes, routed operations, PIDs,
//! network seeds — is derived here from `--seed`, so the same seed gives
//! the same inputs and the crates receive nothing but generated values.
//!
//! Per-session inputs ([`prefix`]) are keyed by `(seed, session, epoch)`
//! instead of drawn from one sequential stream: session `i` then behaves
//! the same whatever the pool size, which is what lets a 65 536-session
//! compiled run be checked against a 4 096-session interpreted replay.

/// SplitMix64: small, fast, and good enough to spread operations
/// uniformly; the same generator `asa-simnet` uses for its schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finish(self.0)
    }

    /// A uniform value in `0..n` (multiply-shift; `n` must be non-zero).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[inline]
fn finish(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A keyed hash of three words: the seed of an independent stream.
#[inline]
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    finish(finish(finish(a ^ 0x5851_F42D_4C95_7F2D).wrapping_add(b)).wrapping_add(c))
}

/// FNV-1a over a byte stream, used for script hashes and checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word into the hash.
    #[inline]
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a byte string into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Stream tags, so the scripts of one seed are independent of each other.
const TAG_BATCH: u64 = 1;
const TAG_PREFIX: u64 = 2;
const TAG_ROUTED: u64 = 3;

/// One message index per `deliver_all` round of a batch repetition:
/// seeded permutations of the whole alphabet back to back, so every
/// seed sends each message equally often and only the order differs.
/// (With independent draws the share of each message, and with it the
/// work in a repetition, varied by a tenth from seed to seed.)
pub fn batch_messages(seed: u64, rounds: usize, alphabet: usize) -> Vec<u16> {
    let mut rng = Rng::new(mix(seed, TAG_BATCH, 0));
    let mut block: Vec<u16> = (0..alphabet as u16).collect();
    let mut out = Vec::with_capacity(rounds + alphabet);
    while out.len() < rounds {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend_from_slice(&block);
    }
    out.truncate(rounds);
    out
}

/// Longest private divergence prefix of a session.
pub const MAX_PREFIX: usize = 7;

/// The private prefix of 0–7 message indices that session `session`
/// receives, one `deliver` each, when it is (re)started in `epoch`
/// (0 = start of the repetition, otherwise the round of the reap pass).
/// Returns the buffer and the prefix length.
#[inline]
pub fn prefix(seed: u64, session: u64, epoch: u64, alphabet: usize) -> ([u16; MAX_PREFIX], usize) {
    let mut rng = Rng::new(mix(seed ^ TAG_PREFIX, session, epoch));
    let len = rng.below(MAX_PREFIX as u64 + 1) as usize;
    let mut out = [0u16; MAX_PREFIX];
    for slot in out.iter_mut().take(len) {
        *slot = rng.below(alphabet as u64) as u16;
    }
    (out, len)
}

/// What a routed operation does besides its delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedKind {
    /// `try_deliver` on the live handle at `index`.
    Plain,
    /// As `Plain`, then `arm_timeout` this many ticks ahead.
    Arm(u8),
    /// As `Plain`, then `cancel_timeout`.
    Cancel,
    /// `try_deliver` on a handle that was released earlier; it must be
    /// refused with `StaleSession`.
    Stale,
}

/// One operation of the `routed_churn` script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedOp {
    /// Index into the caller's table of live handles.
    pub index: u32,
    /// Message index in the engine's alphabet.
    pub message: u16,
    /// Timer or stale-handle behaviour.
    pub kind: RoutedKind,
}

/// The routed-operation stream: uniformly random handle and message,
/// ≈ 1 % stale handles, 1 in 16 operations touching the timer.
#[derive(Debug, Clone)]
pub struct RoutedOps {
    rng: Rng,
    sessions: u64,
    alphabet: u64,
}

impl RoutedOps {
    /// The stream for `seed` over `sessions` handles.
    pub fn new(seed: u64, sessions: usize, alphabet: usize) -> Self {
        RoutedOps {
            rng: Rng::new(mix(seed, TAG_ROUTED, 0)),
            sessions: sessions as u64,
            alphabet: alphabet as u64,
        }
    }

    /// The next operation; one generator draw per operation.
    #[inline]
    pub fn next_op(&mut self) -> RoutedOp {
        let x = self.rng.next_u64();
        // Disjoint bit fields of one draw: 32 bits pick the handle, 12
        // the message, 10 the stale lottery, 4 the timer lottery, 1 arm
        // versus cancel, 5 the delay.
        let index = (((x >> 32) * self.sessions) >> 32) as u32;
        let message = ((((x >> 20) & 0xFFF) * self.alphabet) >> 12) as u16;
        let kind = if (x >> 10) & 0x3FF < 10 {
            RoutedKind::Stale
        } else if (x >> 6) & 0xF == 0 {
            if (x >> 5) & 1 == 0 {
                RoutedKind::Arm((x & 0x1F) as u8 + 1)
            } else {
                RoutedKind::Cancel
            }
        } else {
            RoutedKind::Plain
        };
        RoutedOp {
            index,
            message,
            kind,
        }
    }
}

/// The byte string client `client` submits as its `update`-th version;
/// the storage workloads hash these into PIDs.
pub fn update_name(seed: u64, client: usize, update: usize) -> String {
    format!("bench/seed{seed}/client{client}/update{update}")
}

/// The network seeds of one storage repetition: `seed·100 + 1..=runs`.
pub fn net_seeds(seed: u64, runs: u64) -> impl Iterator<Item = u64> {
    (1..=runs).map(move |k| seed.wrapping_mul(100).wrapping_add(k))
}

/// Hash of the first part of every script a seed generates; two seeds
/// that collide here would feed the workloads the same inputs.
pub fn script_hash(seed: u64) -> u64 {
    let mut h = Fnv::default();
    for m in batch_messages(seed, 512, 5) {
        h.word(u64::from(m));
    }
    for session in 0..256 {
        let (buf, len) = prefix(seed, session, session % 3, 5);
        h.word(len as u64);
        for m in &buf[..len] {
            h.word(u64::from(*m));
        }
    }
    let mut ops = RoutedOps::new(seed, 65_536, 5);
    for _ in 0..4096 {
        let op = ops.next_op();
        h.word(u64::from(op.index));
        h.word(u64::from(op.message));
        h.word(match op.kind {
            RoutedKind::Plain => 0,
            RoutedKind::Arm(d) => 0x100 | u64::from(d),
            RoutedKind::Cancel => 2,
            RoutedKind::Stale => 3,
        });
    }
    h.bytes(update_name(seed, 3, 17).as_bytes());
    for s in net_seeds(seed, 8) {
        h.word(s);
    }
    h.0
}
