//! # stategen-telemetry
//!
//! Observability primitives for the stategen runtime, built around one
//! constraint: **telemetry that is compiled in but disabled must cost
//! nothing**, and telemetry that is enabled must cost no allocation on
//! any steady-state path. (The `runtime_facade` benchmark row gates the
//! first claim at ≤ 1.10× raw stepping; `runtime_observed` gates the
//! second at ≤ 1.25× with 0 allocs/delivery.)
//!
//! Three building blocks, documented in depth in
//! `docs/OBSERVABILITY.md`:
//!
//! * **Counters** — [`ShardCounters`] (one per pool shard, cache-line
//!   padded so shard workers never false-share) and [`RuntimeCounters`]
//!   (one per runtime, for facade-level events: timeouts, swaps,
//!   snapshots). All counters are relaxed [`AtomicU64`]s: single-writer
//!   per shard, merged on read into a plain [`MetricsSnapshot`] that is
//!   `Copy`, comparable, and exportable as JSON.
//! * **Histograms** — [`LogHistogram`], an HDR-style log-bucketed
//!   fixed-size histogram: values below 2⁵ are exact, larger values land
//!   in power-of-two bands of 16 sub-buckets each (relative error
//!   ≤ 6.25%), with no allocation after construction and conservative
//!   (upper-edge) quantile extraction.
//! * **Flight recorder** — [`FlightRecorder`], a fixed-capacity ring of
//!   [`TransitionEvent`]s. The runtime never records inside its batch
//!   loop: before a batch it probes, from the pre-batch state, the
//!   ring-sized tail of transitions the batch will take, runs the
//!   unobserved batch, then writes that tail into the ring — so a
//!   batch's recording cost is bounded by the probed suffix and the
//!   ring's capacity, not by its transition count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-bucket precision of [`LogHistogram`]: values below `2^SUB_BITS`
/// are recorded exactly.
pub const SUB_BITS: u32 = 5;
/// Exact buckets: one per value in `0..2^SUB_BITS`.
const EXACT: usize = 1 << SUB_BITS; // 32
/// Sub-buckets per power-of-two band above the exact range.
const SUBS: usize = 1 << (SUB_BITS - 1); // 16
/// Bands covering `2^SUB_BITS ..= u64::MAX`.
const BANDS: usize = 64 - SUB_BITS as usize; // 59
/// Total bucket count (976 for `SUB_BITS = 5`, ~8 KiB of `u64`s).
const BUCKETS: usize = EXACT + BANDS * SUBS;

/// Per-shard event counters: one instance per pool shard, written only
/// by that shard's worker and merged on read.
///
/// `#[repr(align(64))]` pads each instance to its own cache line so
/// parallel shard workers never false-share counter lines. All fields
/// are relaxed atomics: there is exactly one writer per instance (the
/// shard is `&mut` while delivering), so the atomics buy lock-free
/// merged *reads* ([`ShardCounters::merge_into`] takes `&self`), not
/// cross-writer coordination.
///
/// Counter semantics (see `docs/OBSERVABILITY.md` for the full table):
///
/// * `deliveries` — messages delivered to *live* sessions, single and
///   batch paths alike (a batch counts one delivery per live session).
/// * `transitions` — deliveries that took a transition (self-loops
///   included). `deliveries - transitions` is the **guard fall-through**
///   count: deliveries absorbed with no matching edge, a false guard, or
///   an absorbing finish state.
/// * `spawns` / `resets` — sessions started / returned to start.
/// * `releases_finished` — released slots whose session had reached a
///   finish state (normal end-of-life reclaim).
/// * `releases_aborted` — released slots whose session was still mid
///   execution (user abort / GC).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ShardCounters {
    deliveries: AtomicU64,
    transitions: AtomicU64,
    spawns: AtomicU64,
    releases_finished: AtomicU64,
    releases_aborted: AtomicU64,
    resets: AtomicU64,
}

impl ShardCounters {
    /// A zeroed counter block.
    pub fn new() -> Self {
        ShardCounters::default()
    }

    /// Counts `n` deliveries to live sessions (one batch = one call).
    #[inline]
    pub fn add_deliveries(&self, n: u64) {
        self.deliveries.fetch_add(n, Relaxed);
    }

    /// Counts `n` taken transitions (one batch = one call).
    #[inline]
    pub fn add_transitions(&self, n: u64) {
        self.transitions.fetch_add(n, Relaxed);
    }

    /// Counts one spawned session.
    #[inline]
    pub fn inc_spawns(&self) {
        self.spawns.fetch_add(1, Relaxed);
    }

    /// Counts one released slot whose session had finished.
    #[inline]
    pub fn inc_releases_finished(&self) {
        self.releases_finished.fetch_add(1, Relaxed);
    }

    /// Counts one released slot whose session was still executing.
    #[inline]
    pub fn inc_releases_aborted(&self) {
        self.releases_aborted.fetch_add(1, Relaxed);
    }

    /// Counts `n` sessions returned to the start state.
    #[inline]
    pub fn add_resets(&self, n: u64) {
        self.resets.fetch_add(n, Relaxed);
    }

    /// Accumulates this shard's counters into a snapshot (the
    /// fall-through count is derived here: deliveries − transitions).
    pub fn merge_into(&self, into: &mut MetricsSnapshot) {
        let deliveries = self.deliveries.load(Relaxed);
        let transitions = self.transitions.load(Relaxed);
        into.deliveries += deliveries;
        into.transitions += transitions;
        into.guard_fall_throughs += deliveries - transitions;
        into.spawns += self.spawns.load(Relaxed);
        into.releases_finished += self.releases_finished.load(Relaxed);
        into.releases_aborted += self.releases_aborted.load(Relaxed);
        into.resets += self.resets.load(Relaxed);
    }
}

impl Clone for ShardCounters {
    fn clone(&self) -> Self {
        ShardCounters {
            deliveries: AtomicU64::new(self.deliveries.load(Relaxed)),
            transitions: AtomicU64::new(self.transitions.load(Relaxed)),
            spawns: AtomicU64::new(self.spawns.load(Relaxed)),
            releases_finished: AtomicU64::new(self.releases_finished.load(Relaxed)),
            releases_aborted: AtomicU64::new(self.releases_aborted.load(Relaxed)),
            resets: AtomicU64::new(self.resets.load(Relaxed)),
        }
    }
}

/// Runtime-level (facade) event counters: timeouts, hot-swap phases and
/// snapshot/restore traffic. One instance per runtime, cache-line
/// padded like [`ShardCounters`]; atomics let `&self` accessors (e.g. a
/// snapshot capture) count themselves.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct RuntimeCounters {
    timeouts_fired: AtomicU64,
    timeouts_cancelled: AtomicU64,
    swap_migrated_sessions: AtomicU64,
    swaps_drained: AtomicU64,
    swaps_completed: AtomicU64,
    swaps_aborted: AtomicU64,
    snapshots: AtomicU64,
    restores: AtomicU64,
}

impl RuntimeCounters {
    /// A zeroed counter block.
    pub fn new() -> Self {
        RuntimeCounters::default()
    }

    /// Counts `n` timeouts that expired and were delivered.
    #[inline]
    pub fn add_timeouts_fired(&self, n: u64) {
        self.timeouts_fired.fetch_add(n, Relaxed);
    }

    /// Counts one armed timeout cancelled before firing.
    #[inline]
    pub fn inc_timeouts_cancelled(&self) {
        self.timeouts_cancelled.fetch_add(1, Relaxed);
    }

    /// Counts `n` sessions migrated in place by a fingerprint-matched
    /// hot-swap.
    #[inline]
    pub fn add_swap_migrated(&self, n: u64) {
        self.swap_migrated_sessions.fetch_add(n, Relaxed);
    }

    /// Counts one hot-swap entering the draining phase.
    #[inline]
    pub fn inc_swaps_drained(&self) {
        self.swaps_drained.fetch_add(1, Relaxed);
    }

    /// Counts one hot-swap completing (immediately or after a drain).
    #[inline]
    pub fn inc_swaps_completed(&self) {
        self.swaps_completed.fetch_add(1, Relaxed);
    }

    /// Counts one hot-swap rolled back.
    #[inline]
    pub fn inc_swaps_aborted(&self) {
        self.swaps_aborted.fetch_add(1, Relaxed);
    }

    /// Counts one snapshot capture (whole-pool or single-session).
    #[inline]
    pub fn inc_snapshots(&self) {
        self.snapshots.fetch_add(1, Relaxed);
    }

    /// Counts one restore from a snapshot.
    #[inline]
    pub fn inc_restores(&self) {
        self.restores.fetch_add(1, Relaxed);
    }

    /// Accumulates these counters into a snapshot.
    pub fn merge_into(&self, into: &mut MetricsSnapshot) {
        into.timeouts_fired += self.timeouts_fired.load(Relaxed);
        into.timeouts_cancelled += self.timeouts_cancelled.load(Relaxed);
        into.swap_migrated_sessions += self.swap_migrated_sessions.load(Relaxed);
        into.swaps_drained += self.swaps_drained.load(Relaxed);
        into.swaps_completed += self.swaps_completed.load(Relaxed);
        into.swaps_aborted += self.swaps_aborted.load(Relaxed);
        into.snapshots += self.snapshots.load(Relaxed);
        into.restores += self.restores.load(Relaxed);
    }
}

impl Clone for RuntimeCounters {
    fn clone(&self) -> Self {
        let mut snap = MetricsSnapshot::default();
        self.merge_into(&mut snap);
        let fresh = RuntimeCounters::new();
        fresh.timeouts_fired.store(snap.timeouts_fired, Relaxed);
        fresh
            .timeouts_cancelled
            .store(snap.timeouts_cancelled, Relaxed);
        fresh
            .swap_migrated_sessions
            .store(snap.swap_migrated_sessions, Relaxed);
        fresh.swaps_drained.store(snap.swaps_drained, Relaxed);
        fresh.swaps_completed.store(snap.swaps_completed, Relaxed);
        fresh.swaps_aborted.store(snap.swaps_aborted, Relaxed);
        fresh.snapshots.store(snap.snapshots, Relaxed);
        fresh.restores.store(snap.restores, Relaxed);
        fresh
    }
}

/// A point-in-time, plain-`u64` capture of every counter: what
/// `Runtime::metrics()` returns. Merge snapshots across runtimes with
/// [`MetricsSnapshot::merge`]; export with [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Messages delivered to live sessions (single + batch paths).
    pub deliveries: u64,
    /// Deliveries that took a transition (self-loops included).
    pub transitions: u64,
    /// Deliveries absorbed without a transition: no edge for the
    /// message, every candidate guard false, or an absorbing finish
    /// state. Always `deliveries - transitions`.
    pub guard_fall_throughs: u64,
    /// Sessions spawned.
    pub spawns: u64,
    /// Released slots whose session had reached a finish state.
    pub releases_finished: u64,
    /// Released slots whose session was still mid-execution.
    pub releases_aborted: u64,
    /// Sessions returned to the start state.
    pub resets: u64,
    /// Timeouts that expired and were delivered to a live session.
    pub timeouts_fired: u64,
    /// Armed timeouts cancelled before firing (explicit cancels and the
    /// eager cancel on release).
    pub timeouts_cancelled: u64,
    /// Timer-wheel cascade operations (an armed deadline re-filed into
    /// a finer wheel level while advancing).
    pub timer_cascades: u64,
    /// Sessions migrated in place by fingerprint-matched hot-swaps.
    pub swap_migrated_sessions: u64,
    /// Hot-swaps that entered the draining phase.
    pub swaps_drained: u64,
    /// Hot-swaps completed (immediately, by migration, or after drain).
    pub swaps_completed: u64,
    /// Hot-swaps rolled back via abort.
    pub swaps_aborted: u64,
    /// Snapshot captures (whole-pool and single-session).
    pub snapshots: u64,
    /// Restores from a snapshot.
    pub restores: u64,
}

impl MetricsSnapshot {
    /// Total released slots, finished and aborted alike.
    pub fn releases(&self) -> u64 {
        self.releases_finished + self.releases_aborted
    }

    /// Accumulates `other` into `self`, field by field.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.deliveries += other.deliveries;
        self.transitions += other.transitions;
        self.guard_fall_throughs += other.guard_fall_throughs;
        self.spawns += other.spawns;
        self.releases_finished += other.releases_finished;
        self.releases_aborted += other.releases_aborted;
        self.resets += other.resets;
        self.timeouts_fired += other.timeouts_fired;
        self.timeouts_cancelled += other.timeouts_cancelled;
        self.timer_cascades += other.timer_cascades;
        self.swap_migrated_sessions += other.swap_migrated_sessions;
        self.swaps_drained += other.swaps_drained;
        self.swaps_completed += other.swaps_completed;
        self.swaps_aborted += other.swaps_aborted;
        self.snapshots += other.snapshots;
        self.restores += other.restores;
    }

    /// Renders the snapshot as a single JSON object (stable key order,
    /// no external dependencies).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"deliveries\": {}, \"transitions\": {}, ",
                "\"guard_fall_throughs\": {}, \"spawns\": {}, ",
                "\"releases_finished\": {}, \"releases_aborted\": {}, ",
                "\"resets\": {}, \"timeouts_fired\": {}, ",
                "\"timeouts_cancelled\": {}, \"timer_cascades\": {}, ",
                "\"swap_migrated_sessions\": {}, \"swaps_drained\": {}, ",
                "\"swaps_completed\": {}, \"swaps_aborted\": {}, ",
                "\"snapshots\": {}, \"restores\": {}}}"
            ),
            self.deliveries,
            self.transitions,
            self.guard_fall_throughs,
            self.spawns,
            self.releases_finished,
            self.releases_aborted,
            self.resets,
            self.timeouts_fired,
            self.timeouts_cancelled,
            self.timer_cascades,
            self.swap_migrated_sessions,
            self.swaps_drained,
            self.swaps_completed,
            self.swaps_aborted,
            self.snapshots,
            self.restores,
        )
    }
}

/// An HDR-style log-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, retry counts, …): fixed 976-bucket layout, zero
/// allocation after construction, O(1) record, O(buckets) quantile.
///
/// **Bucket scheme** (`SUB_BITS = 5`): values `0..32` get one exact
/// bucket each; every power-of-two band `[2^m, 2^(m+1))` above that is
/// split into 16 equal sub-buckets of width `2^(m-4)`. A recorded value
/// is therefore never mis-bucketed by more than one sub-bucket width —
/// a relative error of at most `2^(1-SUB_BITS)` = **6.25%**.
///
/// **Quantiles are conservative:** [`LogHistogram::quantile`] returns
/// the *upper edge* of the bucket holding the requested rank (clamped
/// to the true observed maximum), so a reported p99 is never below the
/// real p99.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Box<[u64]>,
    count: u64,
    max: u64,
    sum: u64,
}

impl LogHistogram {
    /// An empty histogram (the only allocation this type ever makes).
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    /// The bucket index of `value`.
    #[inline]
    fn index(value: u64) -> usize {
        if value < EXACT as u64 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros(); // >= SUB_BITS
            let band = (msb - SUB_BITS + 1) as usize; // 1..=BANDS
            let within = ((value - (1u64 << msb)) >> (msb - (SUB_BITS - 1))) as usize;
            EXACT + (band - 1) * SUBS + within
        }
    }

    /// The largest value a bucket can hold (inclusive).
    fn upper_edge(index: usize) -> u64 {
        if index < EXACT {
            index as u64
        } else {
            let rel = index - EXACT;
            let band = rel / SUBS + 1;
            let within = (rel % SUBS) as u64;
            let msb = band as u32 + SUB_BITS - 1;
            let width = 1u64 << (msb - (SUB_BITS - 1));
            (1u64 << msb) + within * width + (width - 1)
        }
    }

    /// Records one sample. O(1), no allocation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[LogHistogram::index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The mean of recorded samples (0 when empty; the running sum
    /// saturates at `u64::MAX`).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper edge of the
    /// bucket containing the `ceil(q · count)`-th smallest sample,
    /// clamped to the observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return LogHistogram::upper_edge(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`LogHistogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Accumulates `other`'s samples into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// One recorded transition: the flight recorder's ring entry.
///
/// `tick` is the recorder's own monotone event sequence number (callers
/// pass 0 — [`FlightRecorder`] derives it from ring position when
/// iterating), so a dump orders events exactly as the shard took them
/// even across batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransitionEvent {
    /// Slot index of the session within its shard.
    pub slot: u32,
    /// The slot's generation (distinguishes recycled executions).
    pub generation: u32,
    /// Dense state id the session left.
    pub from: u32,
    /// Dense state id the session entered.
    pub to: u32,
    /// Dense id of the message that drove the transition.
    pub message: u32,
    /// Actions the transition triggered.
    pub actions: u32,
    /// Monotone per-recorder event sequence number.
    pub tick: u64,
}

/// A ring entry: a [`TransitionEvent`] packed into two words so the
/// hot-loop record is two 8-byte stores instead of four (and spills
/// half as many temporaries). `from`/`to`/`message`/`actions` are
/// truncated to 16 bits — dense state and message ids beyond 65535
/// would wrap in a dump, but the recorder is a diagnostic ring, and no
/// generated machine is within two orders of magnitude of that.
/// `tick` is not stored at all: the ring index *is* the low bits of the
/// sequence number, so iteration reconstructs it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CompactEvent {
    /// `slot | generation << 32`.
    slot_gen: u64,
    /// `from | to << 16 | message << 32 | actions << 48`.
    rest: u64,
}

impl CompactEvent {
    #[inline(always)]
    fn pack(e: &TransitionEvent) -> CompactEvent {
        CompactEvent {
            slot_gen: u64::from(e.slot) | u64::from(e.generation) << 32,
            rest: u64::from(e.from as u16)
                | u64::from(e.to as u16) << 16
                | u64::from(e.message as u16) << 32
                | u64::from(e.actions as u16) << 48,
        }
    }

    fn unpack(self, tick: u64) -> TransitionEvent {
        TransitionEvent {
            slot: self.slot_gen as u32,
            generation: (self.slot_gen >> 32) as u32,
            from: self.rest as u16 as u32,
            to: (self.rest >> 16) as u16 as u32,
            message: (self.rest >> 32) as u16 as u32,
            actions: (self.rest >> 48) as u16 as u32,
            tick,
        }
    }
}

/// A fixed-capacity ring buffer of the most recent [`TransitionEvent`]s
/// — the per-shard flight recorder. Capacity is rounded up to a power
/// of two at construction (the ring's only allocation); recording packs
/// the event into a 16-byte entry and does a masked store plus a
/// sequence bump, O(1) and allocation-free.
///
/// Dump the ring with [`FlightRecorder::iter`] (oldest surviving event
/// first); `recorded()` tells how many events were ever recorded, so a
/// dump can say "… N earlier events overwritten".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    events: Box<[CompactEvent]>,
    /// Total events ever recorded; `head & mask` is the next write slot.
    head: u64,
    mask: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (rounded up to a
    /// power of two, minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        FlightRecorder {
            events: vec![CompactEvent::default(); capacity].into_boxed_slice(),
            head: 0,
            mask: capacity as u64 - 1,
        }
    }

    /// The ring's capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.events.len()
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.head.min(self.events.len() as u64) as usize
    }

    /// `true` while nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.head == 0
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.head
    }

    /// Records an event, overwriting the oldest entry when full. The
    /// event's `tick` is *implied* by its position — stamped with this
    /// recorder's sequence number on iteration, not stored.
    #[inline(always)]
    pub fn record(&mut self, event: TransitionEvent) {
        // `len` is a power of two ≥ 1, so `head & (len - 1) < len`
        // always holds; spelling the mask from `len` (instead of the
        // stored `mask` field) lets the optimizer prove the store in
        // bounds and drop the panic path from the hot loop.
        let len = self.events.len();
        if len == 0 {
            return;
        }
        self.events[(self.head as usize) & (len - 1)] = CompactEvent::pack(&event);
        self.head += 1;
    }

    /// The surviving events, oldest first, `tick` stamped with each
    /// event's global sequence number (`recorded() - len() ..`).
    pub fn iter(&self) -> impl Iterator<Item = TransitionEvent> + '_ {
        let start = self.head - self.len() as u64;
        (start..self.head).map(move |tick| self.events[(tick & self.mask) as usize].unpack(tick))
    }

    /// Advances the sequence counter past `n` events that were recorded
    /// and immediately overwritten without surviving — the batch replay
    /// path accounts a whole batch's overwritten prefix this way, then
    /// records only the surviving tail. Equivalent to `n` calls to
    /// [`FlightRecorder::record`] each followed by an overwrite.
    pub fn skip_overwritten(&mut self, n: u64) {
        self.head += n;
    }

    /// Forgets every recorded event (capacity is kept).
    pub fn clear(&mut self) {
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_exact_below_the_sub_bucket_range() {
        let mut h = LogHistogram::new();
        for v in 0..EXACT as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), EXACT as u64);
        assert_eq!(h.quantile(1.0), EXACT as u64 - 1);
        assert_eq!(h.p50(), EXACT as u64 / 2 - 1);
        assert_eq!(h.max(), EXACT as u64 - 1);
    }

    #[test]
    fn histogram_error_is_bounded_at_six_percent() {
        // Quantile of a single-sample histogram is that bucket's upper
        // edge clamped to max: within 6.25% above the sample.
        for shift in 0..63 {
            for offset in [0u64, 1, 3] {
                let v = (1u64 << shift) + offset;
                let mut h = LogHistogram::new();
                h.record(v);
                let q = h.quantile(0.5);
                assert!(q >= v.min(h.max()), "quantile below sample for {v}");
                assert!(
                    q <= v + v / 16 + 1,
                    "quantile {q} exceeds 6.25% error bound for {v}"
                );
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_conservative_and_ordered() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        let (p50, p99, p999) = (h.p50(), h.p99(), h.p999());
        assert!((5_000..=5_000 + 5_000 / 16 + 1).contains(&p50));
        assert!((9_900..=9_900 + 9_900 / 16 + 1).contains(&p99));
        assert!((9_990..=10_000).contains(&p999));
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.mean(), (1 + 10_000) * 10_000 / 2 / 10_000);
    }

    #[test]
    fn histogram_merge_equals_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 0..1_000u64 {
            let v = i * 37 % 4_096;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn recorder_overwrites_oldest_and_stamps_ticks() {
        let mut r = FlightRecorder::new(4);
        assert_eq!(r.capacity(), 4);
        for i in 0..6u32 {
            r.record(TransitionEvent {
                slot: i,
                ..TransitionEvent::default()
            });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 6);
        let slots: Vec<u32> = r.iter().map(|e| e.slot).collect();
        assert_eq!(slots, [2, 3, 4, 5]);
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [2, 3, 4, 5]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn counters_merge_and_derive_fall_throughs() {
        let c = ShardCounters::new();
        c.add_deliveries(10);
        c.add_transitions(7);
        c.inc_spawns();
        c.inc_releases_finished();
        c.inc_releases_aborted();
        c.add_resets(3);
        let mut snap = MetricsSnapshot::default();
        c.merge_into(&mut snap);
        c.merge_into(&mut snap); // merging twice doubles
        assert_eq!(snap.deliveries, 20);
        assert_eq!(snap.transitions, 14);
        assert_eq!(snap.guard_fall_throughs, 6);
        assert_eq!(snap.spawns, 2);
        assert_eq!(snap.releases(), 4);
        assert_eq!(snap.resets, 6);
        let json = snap.to_json();
        assert!(json.contains("\"guard_fall_throughs\": 6"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
