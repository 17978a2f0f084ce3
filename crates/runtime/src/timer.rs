//! A hashed hierarchical timer wheel: O(1) arm/cancel, amortised-O(1)
//! expiry, no full-scan of armed timers on any path.
//!
//! The runtime needs per-session timeouts (a deadlocked protocol
//! execution must eventually fire a timeout *transition*), and the
//! obvious `BinaryHeap<(deadline, session)>` makes cancel O(n) — yet
//! cancel is the *common* case: most sessions finish before their
//! timeout fires. The classic fix (Varghese & Lauck's hashed wheels, the
//! design inside every serious event loop) is a hierarchy of slot rings:
//!
//! * [`TimerWheel::LEVELS`] levels of 64 slots each; level `l` spans
//!   `64^(l+1)` ticks, so slot granularity grows by 64× per level;
//! * arming places an entry at the level whose granularity matches the
//!   distance to the deadline (highest differing bit of `deadline ^
//!   now`), an O(1) slab insert into an intrusive doubly-linked slot
//!   list;
//! * cancel unlinks the slab entry by key in O(1) (a hash lookup plus
//!   two pointer swings);
//! * [`TimerWheel::advance`] walks occupied slots in time order (found
//!   via a 64-bit occupancy bitmap per level — no empty-slot scans),
//!   *cascading* coarse-level entries down to finer levels until they
//!   expire at exact tick precision on level 0.
//!
//! Deadlines past the wheel's horizon (`64^LEVELS` ticks out) are
//! parked in the top level and re-cascade; correctness never depends on
//! the horizon. Expiry order is deterministic: by deadline, then by arm
//! order within a deadline — the property the simulation harnesses
//! replay from seeds.
//!
//! The wheel is generic over the timer key (the runtime keys by
//! [`SessionId`](crate::SessionId), the storage client endpoint by its
//! packed tag words); re-arming an existing key moves its deadline.

use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel index for "no entry" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// Bits per level: 64 slots.
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Number of hierarchy levels (see [`TimerWheel::LEVELS`]).
const LEVELS: usize = 6;

/// One armed timer in the slab.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: T,
    deadline: u64,
    /// Intrusive slot-list links (slab indices; [`NIL`] = end).
    prev: u32,
    next: u32,
    /// Which `(level, slot)` list holds this entry, packed as
    /// `level * SLOTS + slot`; [`NIL`] while on the free list or the
    /// overdue list.
    home: u32,
}

/// A hashed hierarchical timer wheel over keys of type `T`.
///
/// See the module-level docs in `timer.rs` for the design (the module
/// is private; the wheel re-exports at the crate root). The API is
/// three calls:
/// [`arm`](TimerWheel::arm) (O(1), re-arming moves the deadline),
/// [`cancel`](TimerWheel::cancel) (O(1)), and
/// [`advance`](TimerWheel::advance) (amortised O(1) per elapsed
/// occupied slot plus O(1) per expired timer).
///
/// Time is a plain `u64` tick counter starting at 0 and must advance
/// monotonically. Arming at a deadline `<= now` parks the entry on an
/// *overdue* list delivered by the next `advance`, whatever its `to`.
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    /// Slab of entries; freed indices are recycled through `free`.
    slab: Vec<Entry<T>>,
    free: Vec<u32>,
    /// Key → slab index of the armed entry.
    index: HashMap<T, u32>,
    /// Head of each slot's intrusive list, `levels[level * SLOTS + slot]`.
    slots: Vec<u32>,
    /// Occupancy bitmap, one word per level: bit `s` set iff slot `s`'s
    /// list is non-empty.
    occupied: [u64; LEVELS],
    /// Entries armed with `deadline <= now` (expire on next advance).
    overdue: Vec<u32>,
    now: u64,
    /// Reused expiry output buffer.
    expired: Vec<T>,
    /// Reused buffer for the slot list `advance` is draining.
    chain: Vec<u32>,
    /// Cascade operations performed while advancing: a not-yet-due
    /// entry re-filed from a drained coarse slot into a finer level (or
    /// later slot). A telemetry counter — never consulted by wheel
    /// logic.
    cascades: u64,
}

impl<T> TimerWheel<T> {
    /// Number of hierarchy levels. Six 64-slot levels give an exact-tick
    /// horizon of `64^6 = 2^36` ticks (~68.7 billion); farther deadlines
    /// park in the top level and re-cascade.
    pub const LEVELS: usize = LEVELS;
}

impl<T: Copy + Eq + Hash> TimerWheel<T> {
    /// An empty wheel at time 0.
    pub fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            slots: vec![NIL; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            overdue: Vec::new(),
            now: 0,
            expired: Vec::new(),
            chain: Vec::new(),
            cascades: 0,
        }
    }

    /// Total cascade operations performed by
    /// [`advance`](TimerWheel::advance) over the wheel's lifetime: each
    /// counts one armed entry re-filed from a drained coarse slot into
    /// a finer level. A cheap health signal — a wheel that cascades far
    /// more than it expires is being polled too coarsely.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// The wheel's current time (the `to` of the last
    /// [`advance`](TimerWheel::advance)).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// `true` while `key` is armed.
    pub fn is_armed(&self, key: &T) -> bool {
        self.index.contains_key(key)
    }

    /// The armed deadline of `key`, if any.
    pub fn deadline_of(&self, key: &T) -> Option<u64> {
        self.index
            .get(key)
            .map(|&idx| self.slab[idx as usize].deadline)
    }

    /// Arms (or re-arms, moving the deadline of) `key` to fire at
    /// `deadline`. O(1). A deadline at or before the current time fires
    /// on the next [`advance`](TimerWheel::advance).
    pub fn arm(&mut self, key: T, deadline: u64) {
        if let Some(idx) = self.index.get(&key).copied() {
            self.unlink(idx);
            self.slab[idx as usize].deadline = deadline;
            self.place(idx);
        } else {
            let idx = self.alloc(key, deadline);
            self.index.insert(key, idx);
            self.place(idx);
        }
    }

    /// Cancels `key`'s timer; returns `true` if it was armed. O(1).
    pub fn cancel(&mut self, key: &T) -> bool {
        let Some(idx) = self.index.remove(key) else {
            return false;
        };
        self.unlink(idx);
        self.release(idx);
        true
    }

    /// Advances the wheel to time `to`, returning every timer whose
    /// deadline is `<= to` in deterministic order (by deadline, then arm
    /// order). Expired timers are disarmed. The returned slice is a
    /// buffer reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `to` is before the wheel's current time.
    pub fn advance(&mut self, to: u64) -> &[T] {
        assert!(to >= self.now, "timer wheel time must not run backwards");
        self.expired.clear();
        // Entries armed at-or-before their arm-time `now`.
        let overdue = std::mem::take(&mut self.overdue);
        for &idx in &overdue {
            let key = self.slab[idx as usize].key;
            self.index.remove(&key);
            self.expired.push(key);
            self.release(idx);
        }
        self.overdue = overdue;
        self.overdue.clear();
        // Walk occupied slots in global time order, cascading coarse
        // entries down until everything due is on level 0 (exact tick).
        while let Some((level, slot, start)) = self.next_slot() {
            if start > to {
                break;
            }
            self.now = start;
            let mut idx = std::mem::replace(&mut self.slots[level * SLOTS + slot], NIL);
            self.occupied[level] &= !(1 << slot);
            // Drain preserving arm order (lists are push-front).
            let mut chain = std::mem::take(&mut self.chain);
            chain.clear();
            while idx != NIL {
                chain.push(idx);
                idx = self.slab[idx as usize].next;
            }
            for &idx in chain.iter().rev() {
                let entry = &mut self.slab[idx as usize];
                entry.home = NIL;
                entry.prev = NIL;
                entry.next = NIL;
                if entry.deadline <= self.now {
                    let key = entry.key;
                    self.index.remove(&key);
                    self.expired.push(key);
                    self.release(idx);
                } else {
                    // Not yet due: cascade to a finer level (or later
                    // slot) relative to the new `now`.
                    self.cascades += 1;
                    self.place(idx);
                }
            }
            self.chain = chain;
        }
        self.now = to;
        &self.expired
    }

    /// A lower bound on the next expiry time: the start of the earliest
    /// occupied slot (exact on level 0; a coarse slot may hold entries
    /// due later, so callers waking at this time simply re-`advance` and
    /// may get nothing — bounded by the cascade depth). `Some(now)` when
    /// overdue entries are pending; `None` when the wheel is empty.
    pub fn next_deadline(&self) -> Option<u64> {
        if !self.overdue.is_empty() {
            return Some(self.now);
        }
        self.next_slot().map(|(_, _, start)| start)
    }

    /// The earliest occupied `(level, slot, slot_start_time)`, by slot
    /// start, tie-broken toward the finest level (so exact level-0
    /// deadlines expire before coarse entries cascade at the same
    /// instant).
    fn next_slot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let cur = ((self.now >> shift) & SLOT_MASK) as usize;
            // One full rotation of this level, and `now` with the
            // level's slot field and all finer bits cleared.
            let rotation = 1u64 << (shift + SLOT_BITS);
            let base = self.now & !(rotation - 1);
            for slot in occ_slots(occ) {
                // Same-rotation slots ahead of (or at) `cur` fire this
                // rotation; slots behind `cur` fire next rotation.
                let wraps = slot < cur;
                let start = base
                    .wrapping_add((slot as u64) << shift)
                    .wrapping_add(if wraps { rotation } else { 0 });
                // Entries in `cur`'s own slot at coarse levels are due
                // within the current slot span; their start is `now`.
                let start = start.max(self.now);
                match best {
                    Some((bl, _, bs)) if (bs, bl) <= (start, level) => {}
                    _ => best = Some((level, slot, start)),
                }
            }
        }
        best
    }

    /// Links `idx` into the slot matching its deadline relative to
    /// `now`, or onto the overdue list when already due.
    fn place(&mut self, idx: u32) {
        let deadline = self.slab[idx as usize].deadline;
        if deadline <= self.now {
            self.slab[idx as usize].home = NIL;
            self.overdue.push(idx);
            return;
        }
        // Clamp far deadlines into the top level; they re-cascade.
        let horizon = 1u64 << (SLOT_BITS * LEVELS as u32);
        let effective = if deadline.saturating_sub(self.now) >= horizon {
            // Park exactly 63 top-level slots ahead, aligned to the
            // slot grid. A plain `now + horizon - 1` clamp lets the
            // carry from finer bits wrap the slot offset to 64 ≡ 0 —
            // the *current* top-level slot, whose start is `now` — and
            // `advance` would then cascade the entry in place forever.
            let top_shift = SLOT_BITS * (LEVELS as u32 - 1);
            (self.now & !((1u64 << top_shift) - 1)) + ((SLOTS as u64 - 1) << top_shift)
        } else {
            deadline
        };
        let diff = effective ^ self.now;
        let level = (((63 - diff.leading_zeros()) / SLOT_BITS) as usize).min(LEVELS - 1);
        let shift = SLOT_BITS * level as u32;
        let slot = ((effective >> shift) & SLOT_MASK) as usize;
        let cell = level * SLOTS + slot;
        let head = self.slots[cell];
        let entry = &mut self.slab[idx as usize];
        entry.home = cell as u32;
        entry.prev = NIL;
        entry.next = head;
        if head != NIL {
            self.slab[head as usize].prev = idx;
        }
        self.slots[cell] = idx;
        self.occupied[level] |= 1 << slot;
    }

    /// Unlinks `idx` from its slot list (or the overdue list). O(1) for
    /// slot lists; overdue unlink is a scan of the (tiny, transient)
    /// overdue list, and an order-keeping remove, since that list fires
    /// in arm order.
    fn unlink(&mut self, idx: u32) {
        let entry = &self.slab[idx as usize];
        let (home, prev, next) = (entry.home, entry.prev, entry.next);
        if home == NIL {
            if let Some(pos) = self.overdue.iter().position(|&i| i == idx) {
                self.overdue.remove(pos);
            }
            return;
        }
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.slots[home as usize] = next;
            if next == NIL {
                let level = home as usize / SLOTS;
                let slot = home as usize % SLOTS;
                self.occupied[level] &= !(1 << slot);
            }
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        }
        let entry = &mut self.slab[idx as usize];
        entry.home = NIL;
        entry.prev = NIL;
        entry.next = NIL;
    }

    fn alloc(&mut self, key: T, deadline: u64) -> u32 {
        let entry = Entry {
            key,
            deadline,
            prev: NIL,
            next: NIL,
            home: NIL,
        };
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = entry;
                idx
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }
}

impl<T: Copy + Eq + Hash> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

/// Iterates the set bit positions of an occupancy word, lowest first.
fn occ_slots(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let slot = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(slot)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_advance_expires_in_deadline_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.arm(1, 10);
        w.arm(2, 5);
        w.arm(3, 700); // level-1 territory
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_deadline(), Some(5));
        assert_eq!(w.advance(10), &[2, 1]);
        assert_eq!(w.len(), 1);
        assert!(w.advance(699).is_empty());
        assert_eq!(w.advance(700), &[3]);
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_removes_and_reports() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.arm(7, 100);
        assert!(w.is_armed(&7));
        assert!(w.cancel(&7));
        assert!(!w.cancel(&7));
        assert!(w.advance(1000).is_empty());
    }

    #[test]
    fn rearm_moves_the_deadline() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.arm(7, 100);
        w.arm(7, 5000);
        assert_eq!(w.len(), 1);
        assert_eq!(w.deadline_of(&7), Some(5000));
        assert!(w.advance(4999).is_empty());
        assert_eq!(w.advance(5000), &[7]);
    }

    #[test]
    fn overdue_deadline_fires_on_next_advance() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert!(w.advance(50).is_empty());
        w.arm(1, 50); // == now
        w.arm(2, 10); // < now
        assert_eq!(w.next_deadline(), Some(50));
        assert_eq!(w.advance(50), &[1, 2]);
    }

    #[test]
    fn same_tick_expiry_preserves_arm_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for k in 0..10u32 {
            w.arm(k, 42);
        }
        assert_eq!(w.advance(42), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn far_deadlines_cascade_correctly() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // Past the 2^36 exact horizon: parks in the top level and
        // re-cascades.
        let far = (1u64 << 37) + 12345;
        w.arm(1, far);
        w.arm(2, 64 * 64 + 3); // level 2
        assert_eq!(w.advance(64 * 64 + 3), &[2]);
        assert!(w.advance(far - 1).is_empty());
        assert_eq!(w.advance(far), &[1]);
    }

    #[test]
    fn next_deadline_is_a_usable_wake_hint() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.arm(9, 130_000);
        // Wake at the hint repeatedly; within LEVELS wakes the timer
        // fires exactly at its deadline, never before.
        let mut wakes = 0;
        loop {
            let hint = w.next_deadline().unwrap();
            assert!(hint <= 130_000);
            let fired = w.advance(hint);
            wakes += 1;
            if !fired.is_empty() {
                assert_eq!(fired, &[9]);
                assert_eq!(w.now(), 130_000);
                break;
            }
            assert!(wakes <= TimerWheel::<()>::LEVELS + 1, "cascade runaway");
        }
    }
}
