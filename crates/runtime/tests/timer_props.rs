//! Property suite for the hashed hierarchical [`TimerWheel`]: the
//! `next_deadline` wake-up hint is never later than the true next
//! expiry, expiry batches are exact and in the documented order under
//! arbitrary arm/cancel/re-arm churn, the cascade counter feeds runtime
//! metrics, and a timeout is an ordinary transition.
//!
//! The model is a plain map from key to *effective* deadline — the
//! armed deadline clamped up to the wheel's clock at arm time, since an
//! already-due arm fires at the next `advance` regardless of `to` —
//! and the sequence number of the arm. The wheel must agree with the
//! model on membership, raw deadlines, and every expiry batch, ordered
//! by effective deadline, then arm order; its hint must always land in
//! `[now, min effective deadline]`.

use std::collections::HashMap;

use proptest::prelude::*;
use stategen_commit::{CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::generate;
use stategen_runtime::{Engine, Spec, TimerWheel};

/// One scripted wheel operation. Keys collide on purpose (re-arm moves
/// deadlines); offsets span level-0 ticks through past-the-horizon
/// parks.
#[derive(Debug, Clone, Copy)]
enum WheelOp {
    /// Arm `key` at `now + offset` (offset 0 arms an overdue timer).
    Arm(u64, u64),
    /// Arm `key` strictly in the past: `now.saturating_sub(back + 1)`.
    ArmPast(u64, u64),
    Cancel(u64),
    Advance(u64),
}

fn wheel_script() -> impl Strategy<Value = Vec<WheelOp>> {
    let offset = || {
        prop_oneof![
            0u64..64,           // level 0: exact ticks
            0u64..100_000,      // levels 1–3
            0u64..(1u64 << 38), // deep levels and past the 64^6 horizon
        ]
        .boxed()
    };
    let op = prop_oneof![
        (0u64..8, offset()).prop_map(|(k, d)| WheelOp::Arm(k, d)),
        (0u64..8, 0u64..1_000).prop_map(|(k, b)| WheelOp::ArmPast(k, b)),
        (0u64..8).prop_map(WheelOp::Cancel),
        (0u64..8, offset()).prop_map(|(k, d)| WheelOp::Arm(k, d)),
        offset().prop_map(WheelOp::Advance),
    ];
    prop::collection::vec(op, 0..80)
}

/// Model entry: the raw armed deadline, the effective expiry floor and
/// the arm's sequence number (a re-arm takes a new one).
#[derive(Debug, Clone, Copy)]
struct Armed {
    deadline: u64,
    effective: u64,
    seq: u64,
}

/// Checks the hint invariant and bookkeeping against the model.
fn check_wheel(wheel: &TimerWheel<u64>, model: &HashMap<u64, Armed>) {
    assert_eq!(wheel.len(), model.len());
    assert_eq!(wheel.is_empty(), model.is_empty());
    for key in 0..8u64 {
        assert_eq!(wheel.is_armed(&key), model.contains_key(&key));
        assert_eq!(wheel.deadline_of(&key), model.get(&key).map(|a| a.deadline));
    }
    let true_next = model.values().map(|a| a.effective).min();
    match (wheel.next_deadline(), true_next) {
        (None, None) => {}
        (Some(hint), Some(next)) => {
            assert!(
                wheel.now() <= hint && hint <= next,
                "hint {hint} outside [now {}, true next {next}]",
                wheel.now()
            );
        }
        (hint, next) => panic!("hint {hint:?} but true next expiry {next:?}"),
    }
}

/// Applies one advance to wheel and model, asserting the expiry batch
/// is exactly the model's due set, by effective deadline, then arm
/// order.
fn advance_checked(wheel: &mut TimerWheel<u64>, model: &mut HashMap<u64, Armed>, to: u64) {
    let fired: Vec<u64> = wheel.advance(to).to_vec();
    let mut due: Vec<(u64, u64, u64)> = model
        .iter()
        .filter(|(_, a)| a.effective <= to)
        .map(|(&k, a)| (a.effective, a.seq, k))
        .collect();
    due.sort_unstable();
    let due: Vec<u64> = due.into_iter().map(|(_, _, k)| k).collect();
    assert_eq!(fired, due, "expiry batch at {to} differs from the model");
    for key in &fired {
        model.remove(key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary arm/cancel/re-arm/advance churn: membership, raw
    /// deadlines, ordered expiry batches and the hint bound all hold after
    /// every operation, the cascade counter never decreases, and
    /// sleeping on the hint drains the wheel to empty.
    #[test]
    fn hint_is_never_later_than_true_next_deadline(ops in wheel_script()) {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut model: HashMap<u64, Armed> = HashMap::new();
        let mut cascades = 0u64;
        for (seq, op) in (0u64..).zip(ops) {
            match op {
                WheelOp::Arm(key, offset) => {
                    let deadline = wheel.now().saturating_add(offset);
                    wheel.arm(key, deadline);
                    let effective = deadline.max(wheel.now());
                    model.insert(key, Armed { deadline, effective, seq });
                }
                WheelOp::ArmPast(key, back) => {
                    let deadline = wheel.now().saturating_sub(back + 1);
                    wheel.arm(key, deadline);
                    // Already due: fires at the next advance, i.e. at
                    // or before any future wheel time.
                    model.insert(key, Armed { deadline, effective: wheel.now(), seq });
                }
                WheelOp::Cancel(key) => {
                    prop_assert_eq!(wheel.cancel(&key), model.remove(&key).is_some());
                }
                WheelOp::Advance(step) => {
                    let to = wheel.now().saturating_add(step);
                    advance_checked(&mut wheel, &mut model, to);
                }
            }
            prop_assert!(wheel.cascades() >= cascades, "cascade counter went backwards");
            cascades = wheel.cascades();
            check_wheel(&wheel, &model);
        }
        // Waking exactly at the hint must reach every timer: each wake
        // either fires something or cascades coarse entries closer, and
        // the hint never overshoots a deadline (the property above), so
        // the drain terminates with nothing left armed.
        let mut wakes = 0;
        while let Some(hint) = wheel.next_deadline() {
            advance_checked(&mut wheel, &mut model, hint);
            check_wheel(&wheel, &model);
            wakes += 1;
            prop_assert!(wakes < 10_000, "hint-driven drain failed to terminate");
        }
        prop_assert!(model.is_empty(), "wheel empty but the model still holds timers");
    }
}

/// A coarse-slot timer reached by fine-grained polling is cascaded down
/// the hierarchy — visible in the telemetry counter — and still fires
/// at its exact tick, never early.
#[test]
fn polling_a_far_deadline_cascades_and_fires_exactly() {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    wheel.arm(7, 70_000);
    let hint = wheel.next_deadline().expect("armed");
    assert!(hint <= 70_000);
    assert!(wheel.advance(69_999).is_empty(), "fired 1 tick early");
    assert!(
        wheel.cascades() > 0,
        "a level-2 deadline reached at tick precision must cascade"
    );
    assert_eq!(wheel.advance(70_000), &[7]);
    assert_eq!(
        wheel.cascades(),
        {
            let mut replay: TimerWheel<u64> = TimerWheel::new();
            replay.arm(7, 70_000);
            replay.advance(69_999);
            replay.advance(70_000);
            replay.cascades()
        },
        "cascade work is deterministic"
    );
}

/// The wheel's cascade count surfaces through [`Runtime::metrics`]
/// alongside fired/cancelled timeout counts.
#[test]
fn timer_telemetry_reaches_runtime_metrics() {
    let config = CommitConfig::new(4).unwrap();
    let machine = generate(&CommitModel::new(config)).unwrap().machine;
    let mut rt = Engine::compile(Spec::machine(machine)).unwrap().runtime();
    let timeout = rt.message_id(MESSAGE_NAMES[0]).unwrap();

    let fired = rt.spawn();
    let cancelled = rt.spawn();
    rt.arm_timeout(fired, 70_000);
    rt.arm_timeout(cancelled, 90_000);
    // Releasing a session cancels its pending timeout.
    rt.release(cancelled);
    assert_eq!(rt.advance_time(65_000, timeout), 0);
    assert_eq!(rt.advance_time(70_000, timeout), 1);

    let m = rt.metrics();
    assert_eq!(m.timeouts_fired, 1);
    assert_eq!(m.timeouts_cancelled, 1);
    assert!(m.timer_cascades > 0, "fine-grained polling cascaded");
    assert_eq!(m.deliveries, 1, "the fired timeout was delivered");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timeouts are ordinary transitions: `advance_time` delivering the
    /// timeout message to expired sessions leaves the pool in exactly
    /// the state of delivering it by hand in expiry order.
    #[test]
    fn timeouts_are_just_transitions(
        deadlines in prop::collection::vec(1u64..2_000, 1..12),
        advance_to in 1u64..2_500,
    ) {
        let machine = generate(&CommitModel::new(CommitConfig::new(4).unwrap())).unwrap().machine;
        let engine = &Engine::compile(Spec::machine(machine)).unwrap();
        let timeout = engine.message_id(MESSAGE_NAMES[0]).unwrap();

        let mut timed = engine.runtime();
        let mut manual = engine.runtime();
        let mut sessions = Vec::new();
        for &d in &deadlines {
            let s = timed.spawn();
            let m = manual.spawn();
            assert_eq!(s, m);
            timed.arm_timeout(s, d);
            sessions.push((s, d));
        }
        let fired = timed.advance_time(advance_to, timeout);

        // Reference: deliver by hand in (deadline, arm order).
        let mut due: Vec<(u64, usize)> = sessions
            .iter()
            .enumerate()
            .filter(|(_, &(_, d))| d <= advance_to)
            .map(|(i, &(_, d))| (d, i))
            .collect();
        due.sort_unstable();
        for &(_, i) in &due {
            manual.deliver(sessions[i].0, timeout);
        }
        prop_assert_eq!(fired, due.len());
        prop_assert_eq!(timed.snapshot_all(), manual.snapshot_all());
        prop_assert_eq!(timed.pending_timeouts(), deadlines.len() - due.len());
    }
}
