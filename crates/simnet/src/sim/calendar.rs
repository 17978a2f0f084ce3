//! The simulator's event queue: a calendar queue (Brown, CACM 1988)
//! with one bucket per tick over a window of [`W`] ticks, and a binary
//! heap for the events due further out.
//!
//! An event pushed at time `now` and due at `at` (`at ≥ now`) goes to
//! the *near* ring when `at − now < W`, into bucket `at % W`, and to the
//! *far* heap otherwise. Every near event lies in `[now, now + W)`: it
//! did when it was pushed, `now` only grows, and `now` never passes an
//! event still queued, because the earliest one is always popped next.
//! So a bucket holds the events of one tick, and a `u64` occupancy word
//! rotated by `now % W` finds the earliest occupied tick in one
//! `trailing_zeros`.
//!
//! Events pop in exactly the `(at, seq)` order one heap over all of them
//! would give (the test below checks every pop against the set of
//! pending keys):
//!
//! * within a bucket, events are in push order, and `seq` is push order;
//! * a far event for tick `t` was pushed while `now ≤ t − W`, and a near
//!   one while `now > t − W`. `now` never decreases, so every far event
//!   for `t` was pushed, and numbered, before every near event for `t`:
//!   at tick `t` the far heap drains first, and among far events the
//!   heap orders by `seq`.
//!
//! What this saves is the heap's sift over every queued event on every
//! push and pop. Most queued events are peer GC timers thousands of ticks
//! out; the messages and wake-ups that make up most of the steps are due
//! within a few ticks and never touch the heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use super::{Event, SimTime};

/// Width of the near window in ticks: one bucket per tick, one bit per
/// bucket in the occupancy word.
pub(super) const W: SimTime = 64;

/// The calendar queue (see the module docs).
#[derive(Debug)]
pub(super) struct Calendar<M> {
    /// `near[t % W]` holds the events due at tick `t`, for the ticks in
    /// `[now, now + W)`, in push order.
    near: Box<[VecDeque<Event<M>>]>,
    /// Bit `i` is set when `near[i]` is non-empty.
    occupied: u64,
    /// The events that were `W` or more ticks ahead when pushed.
    far: BinaryHeap<Reverse<Event<M>>>,
}

impl<M> Calendar<M> {
    /// An empty queue.
    pub(super) fn new() -> Self {
        Calendar {
            near: (0..W).map(|_| VecDeque::new()).collect(),
            occupied: 0,
            far: BinaryHeap::new(),
        }
    }

    /// `true` when no event is queued.
    pub(super) fn is_empty(&self) -> bool {
        self.occupied == 0 && self.far.is_empty()
    }

    /// Queues `event`, pushed at time `now` (`event.at ≥ now`, and `now`
    /// at least every earlier push's).
    pub(super) fn push(&mut self, now: SimTime, event: Event<M>) {
        debug_assert!(event.at >= now, "an event may not be due in the past");
        if event.at - now < W {
            let bucket = (event.at % W) as usize;
            self.near[bucket].push_back(event);
            self.occupied |= 1 << bucket;
        } else {
            self.far.push(Reverse(event));
        }
    }

    /// The earliest occupied near tick.
    fn next_near(&self, now: SimTime) -> Option<SimTime> {
        if self.occupied == 0 {
            return None;
        }
        let offset = self
            .occupied
            .rotate_right((now % W) as u32)
            .trailing_zeros();
        Some(now + SimTime::from(offset))
    }

    /// When the next event is due.
    pub(super) fn next_at(&self, now: SimTime) -> Option<SimTime> {
        let far = self.far.peek().map(|Reverse(event)| event.at);
        match (self.next_near(now), far) {
            (Some(near), Some(far)) => Some(near.min(far)),
            (near, far) => near.or(far),
        }
    }

    /// Removes the next event in `(at, seq)` order.
    pub(super) fn pop(&mut self, now: SimTime) -> Option<Event<M>> {
        let far = self.far.peek().map(|Reverse(event)| event.at);
        match (self.next_near(now), far) {
            (Some(near), far) if far.is_none_or(|far| near < far) => {
                let bucket = (near % W) as usize;
                let event = self.near[bucket].pop_front();
                if self.near[bucket].is_empty() {
                    self.occupied &= !(1 << bucket);
                }
                event
            }
            _ => self.far.pop().map(|Reverse(event)| event),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::super::{NodeId, Payload};
    use super::*;
    use crate::SimRng;

    /// Random pushes (due now, either side of the window's edge, up to
    /// four windows out, or at `SimTime::MAX`), pops, and clock jumps
    /// short of the next due event (as `run_until` makes), against the
    /// set of pending `(at, seq)` keys: every pop is the least key,
    /// `next_at` and `is_empty` agree with it, every event pops once.
    #[test]
    fn pops_the_least_pending_key() {
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let mut queue = Calendar::new();
            let mut pending = BTreeSet::new();
            let (mut now, mut pushed, mut popped): (SimTime, u64, u64) = (0, 0, 0);
            for _ in 0..400 {
                match rng.below(4) {
                    0 | 1 => {
                        let delay = match rng.below(6) {
                            0 => 0,
                            1 => W - 1,
                            2 => W,
                            3 => W + 1,
                            4 => SimTime::MAX,
                            _ => rng.below(4 * W + 1),
                        };
                        let at = now.saturating_add(delay);
                        let payload = Payload::<()>::Crash;
                        let (seq, to) = (pushed, NodeId(0));
                        queue.push(
                            now,
                            Event {
                                at,
                                seq,
                                to,
                                payload,
                            },
                        );
                        pending.insert((at, seq));
                        pushed += 1;
                    }
                    2 => {
                        let next = queue.pop(now).map(|event| (event.at, event.seq));
                        assert_eq!(next, pending.pop_first(), "seed {seed}");
                        if let Some((at, _)) = next {
                            (now, popped) = (at, popped + 1);
                        }
                    }
                    _ => {
                        let due = pending.first().map_or(SimTime::MAX, |&(at, _)| at);
                        now = now.saturating_add(rng.below(2 * W)).min(due);
                    }
                }
                let due = pending.first().map(|&(at, _)| at);
                assert_eq!(queue.next_at(now), due, "seed {seed}");
                assert_eq!(queue.is_empty(), pending.is_empty(), "seed {seed}");
            }
            while let Some(event) = queue.pop(now) {
                assert_eq!(Some((event.at, event.seq)), pending.pop_first());
                (now, popped) = (event.at, popped + 1);
            }
            assert!(pending.is_empty() && popped == pushed, "seed {seed}");
        }
    }
}
