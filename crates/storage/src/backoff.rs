//! Endpoint timeout/retry schemes (paper §2.2).
//!
//! "Various schemes such as random or exponential back-off, or fixed or
//! random server ordering, could be used to attempt to reduce the
//! probability of repeated deadlocks."

use asa_simnet::{SimRng, SimTime};

/// How long an endpoint waits before retrying an update that has not
/// committed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryScheme {
    /// Retry after a fixed delay.
    Fixed {
        /// The delay in ticks.
        delay: SimTime,
    },
    /// Retry after a uniformly random delay in `[min, max]`.
    Random {
        /// Minimum delay.
        min: SimTime,
        /// Maximum delay (inclusive).
        max: SimTime,
    },
    /// Exponential back-off: `base * 2^attempt`, capped at `max`, with
    /// ±25% jitter. The jittered delay is always within `[base, max]`,
    /// and the worst-case delay of attempt `n` never exceeds the
    /// best-case delay of attempt `n + 1` while the raw (un-jittered)
    /// delay is still below the cap.
    Exponential {
        /// First retry delay.
        base: SimTime,
        /// Cap on the delay.
        max: SimTime,
    },
}

impl RetryScheme {
    /// Delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimTime {
        match *self {
            RetryScheme::Fixed { delay } => delay,
            RetryScheme::Random { min, max } => rng.range_inclusive(min, max.max(min)),
            RetryScheme::Exponential { base, max } => {
                let base = base.max(1);
                let cap = max.max(base);
                let raw = base
                    .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
                    .min(cap);
                // ±25% jitter around `raw`, clamped into [base, cap]. The
                // window is raw/4 wide on each side, so attempt n's worst
                // case (1.25 * raw) stays below attempt n+1's best case
                // (0.75 * 2 * raw = 1.5 * raw) until the cap flattens the
                // curve.
                let span = raw / 4;
                let jittered = (raw - span).saturating_add(rng.below(2 * span + 1));
                jittered.clamp(base, cap)
            }
        }
    }
}

/// In which order the endpoint contacts the peer set (paper §2.2:
/// "fixed or random server ordering").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerOrdering {
    /// All endpoints use the same (ring) order — requests race less
    /// because every peer tends to see the same update first.
    Fixed,
    /// Each request shuffles the peer set independently.
    Random,
}

impl ServerOrdering {
    /// Produces the contact order over `n` peers.
    pub fn order(&self, n: usize, rng: &mut SimRng) -> Vec<usize> {
        let mut order = Vec::with_capacity(n);
        self.order_into(n, rng, &mut order);
        order
    }

    /// [`ServerOrdering::order`] into `order`'s allocation, with the same
    /// draws from `rng`.
    pub(crate) fn order_into(&self, n: usize, rng: &mut SimRng, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..n);
        if *self == ServerOrdering::Random {
            rng.shuffle(order);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let mut rng = SimRng::new(1);
        let s = RetryScheme::Fixed { delay: 50 };
        assert_eq!(s.delay(0, &mut rng), 50);
        assert_eq!(s.delay(9, &mut rng), 50);
    }

    #[test]
    fn random_within_bounds() {
        let mut rng = SimRng::new(2);
        let s = RetryScheme::Random { min: 10, max: 20 };
        for attempt in 0..50 {
            let d = s.delay(attempt, &mut rng);
            assert!((10..=20).contains(&d), "delay {d}");
        }
    }

    #[test]
    fn exponential_grows_then_caps() {
        let mut rng = SimRng::new(3);
        let s = RetryScheme::Exponential {
            base: 10,
            max: 1000,
        };
        let d0 = s.delay(0, &mut rng);
        assert!((10..=13).contains(&d0), "d0 = {d0}");
        let d6 = s.delay(6, &mut rng);
        assert!((480..=800).contains(&d6), "d6 = {d6}");
        let d20 = s.delay(20, &mut rng);
        assert!((750..=1000).contains(&d20), "capped: {d20}");
    }

    #[test]
    fn exponential_handles_huge_attempts() {
        let mut rng = SimRng::new(4);
        let s = RetryScheme::Exponential { base: 10, max: 500 };
        let d = s.delay(63, &mut rng);
        assert!(d <= 500);
        let d = s.delay(64, &mut rng); // shift overflow guarded
        assert!(d <= 500);
    }

    #[test]
    fn orderings() {
        let mut rng = SimRng::new(5);
        assert_eq!(ServerOrdering::Fixed.order(4, &mut rng), vec![0, 1, 2, 3]);
        let mut saw_shuffled = false;
        for _ in 0..10 {
            let o = ServerOrdering::Random.order(4, &mut rng);
            let mut sorted = o.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            if o != vec![0, 1, 2, 3] {
                saw_shuffled = true;
            }
        }
        assert!(saw_shuffled);
    }
}
