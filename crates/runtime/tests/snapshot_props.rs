//! Property suite for crash safety: snapshot/restore round-trips on
//! every execution tier, the hierarchical timer wheel against a naive
//! reference scheduler, and timeouts-as-transitions equivalence.
//!
//! The acceptance gate: `Runtime::restore(engine, &rt.snapshot_all())`
//! must reproduce the pool *bit-identically* — states, full register
//! files, generations, free list and finished flags — which is checked
//! both directly (re-snapshot equality) and behaviourally (the restored
//! pool replays an arbitrary message suffix identically, through the
//! original generational handles). `Runtime::snapshot_into`, the same
//! capture written over an earlier snapshot, must be `snapshot_all`
//! whatever that earlier snapshot held.

use proptest::prelude::*;

use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::generate;
use stategen_runtime::{Engine, Runtime, SessionId, Spec, TimerWheel};

/// Both engines of both spec shapes, all serving the r = 4 commit
/// protocol: the flat machine interpreted and compiled, then the EFSM
/// compiled and interpreted (the EFSM carries two live counter
/// registers per session, so its snapshots must capture a real register
/// file, not just a state id — on either of its tiers).
fn engines() -> Vec<Engine> {
    let config = CommitConfig::new(4).unwrap();
    let machine = generate(&CommitModel::new(config)).unwrap().machine;
    let efsm = Spec::efsm(commit_efsm(), commit_efsm_params(&config));
    vec![
        Engine::interpret(Spec::machine(machine.clone())).unwrap(),
        Engine::compile(Spec::machine(machine)).unwrap(),
        Engine::compile(efsm.clone()).unwrap(),
        Engine::interpret(efsm).unwrap(),
    ]
}

/// A pool-mutation script: interleaved spawns, deliveries, resets and
/// releases.
#[derive(Debug, Clone)]
enum PoolOp {
    Spawn,
    Deliver { session: usize, message: usize },
    Reset { session: usize },
    Release { session: usize },
}

fn pool_ops() -> impl Strategy<Value = Vec<PoolOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(PoolOp::Spawn),
            (any::<u64>(), any::<u64>()).prop_map(|(s, m)| PoolOp::Deliver {
                session: s as usize,
                message: m as usize % MESSAGE_NAMES.len(),
            }),
            any::<u64>().prop_map(|s| PoolOp::Reset {
                session: s as usize
            }),
            any::<u64>().prop_map(|s| PoolOp::Release {
                session: s as usize
            }),
        ],
        0..60,
    )
}

/// Runs the script, returning the handles that are still live.
fn apply_ops(rt: &mut Runtime, ops: &[PoolOp]) -> Vec<SessionId> {
    let mut live = Vec::new();
    continue_ops(rt, ops, &mut live);
    live
}

/// Runs the script over the sessions `live` holds, keeping it current.
fn continue_ops(rt: &mut Runtime, ops: &[PoolOp], live: &mut Vec<SessionId>) {
    for op in ops {
        match op {
            PoolOp::Spawn => live.push(rt.spawn()),
            PoolOp::Deliver { session, message } => {
                if !live.is_empty() {
                    let s = live[session % live.len()];
                    let id = rt.message_id(MESSAGE_NAMES[*message]).unwrap();
                    rt.deliver(s, id);
                }
            }
            PoolOp::Reset { session } => {
                if !live.is_empty() {
                    rt.reset(live[session % live.len()]);
                }
            }
            PoolOp::Release { session } => {
                if !live.is_empty() {
                    let s = live.remove(session % live.len());
                    rt.release(s);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The acceptance gate, on both runtime-served tiers, each over an
    /// unguarded and a guarded machine.
    #[test]
    fn snapshot_restore_round_trips_bit_identically(
        ops in pool_ops(),
        suffix in prop::collection::vec(any::<u64>(), 0..30),
    ) {
        for engine in engines() {
            let mut rt = engine.runtime();
            let live = apply_ops(&mut rt, &ops);
            let snap = rt.snapshot_all();

            let mut restored = Runtime::restore(&engine, &snap).unwrap();
            // Bit-identical: re-snapshotting the restored pool yields the
            // exact same snapshot (states, vars, generations, free list).
            prop_assert_eq!(&restored.snapshot_all(), &snap);

            // Old handles address the restored sessions with identical
            // observable state.
            for &s in &live {
                prop_assert_eq!(restored.state(s), rt.state(s));
                prop_assert_eq!(restored.is_finished(s), rt.is_finished(s));
                prop_assert_eq!(restored.snapshot(s), rt.snapshot(s));
            }

            // Behavioural equivalence: an arbitrary suffix replays
            // identically on the original and the restored pool.
            for &step in &suffix {
                if live.is_empty() {
                    break;
                }
                let s = live[(step as usize) % live.len()];
                let id = rt
                    .message_id(MESSAGE_NAMES[(step >> 32) as usize % MESSAGE_NAMES.len()])
                    .unwrap();
                let a: Vec<String> =
                    rt.deliver(s, id).iter().map(|x| x.message().to_string()).collect();
                let b: Vec<String> =
                    restored.deliver(s, id).iter().map(|x| x.message().to_string()).collect();
                prop_assert_eq!(a, b);
                prop_assert_eq!(rt.state(s), restored.state(s));
                prop_assert_eq!(rt.is_finished(s), restored.is_finished(s));
            }
            prop_assert_eq!(&restored.snapshot_all(), &rt.snapshot_all());
        }
    }

    /// A snapshot from one engine restores into any engine with the same
    /// behavioural fingerprint — interpreted ↔ compiled of the same
    /// machine, unguarded (dense) and guarded (register), in both
    /// directions, bit-identically and still stepping alike — and is
    /// rejected by a behaviourally different one.
    #[test]
    fn restore_respects_fingerprints(ops in pool_ops()) {
        let all = engines();
        for (from, to, other) in [(0, 1, 2), (1, 0, 3), (2, 3, 0), (3, 2, 1)] {
            let mut rt = all[from].runtime();
            let live = apply_ops(&mut rt, &ops);
            let snap = rt.snapshot_all();
            // Same behaviour, different tier: accepted, bit-identical.
            let mut restored = Runtime::restore(&all[to], &snap).unwrap();
            prop_assert_ne!(restored.engine().tier(), rt.engine().tier());
            prop_assert_eq!(&restored.snapshot_all(), &snap);
            for name in MESSAGE_NAMES {
                let id = rt.message_id(name).unwrap();
                prop_assert_eq!(rt.deliver_all(id), restored.deliver_all(id));
                if let Some(&s) = live.first() {
                    prop_assert_eq!(rt.deliver(s, id), restored.deliver(s, id));
                }
                prop_assert_eq!(&restored.snapshot_all(), &rt.snapshot_all());
                prop_assert_eq!(restored.finished_count(), rt.finished_count());
            }
            // The other artifact is a different machine shape (register
            // file differs): rejected, not silently mis-restored.
            prop_assert!(Runtime::restore(&all[other], &snap).is_err());
        }
    }

    /// `snapshot_into` over a dirty snapshot of another shape — every
    /// other engine's (a different register width: the flat machines
    /// keep none, the commit EFSM two; or the same width and other
    /// values in every slot), another shard count, another script's
    /// slots — is exactly `snapshot_all`, counts as one snapshot and
    /// restores bit-identically; written again over itself after more
    /// churn, releases of the first script's sessions included, it still
    /// is. On the interpreted, dense and unfolded engines (`engines()`:
    /// flat interpreted, flat dense, EFSM unfolded onto the dense table,
    /// EFSM interpreted), flat and sharded.
    #[test]
    fn snapshot_into_a_dirty_snapshot_is_snapshot_all(
        ops in pool_ops(),
        more in pool_ops(),
        dirty_ops in pool_ops(),
        shards in 1usize..4,
        dirty_shards in 1usize..4,
    ) {
        let all = engines();
        for (i, engine) in all.iter().enumerate() {
            for other in all.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, e)| e) {
                let mut dirty = other.runtime().sharded(dirty_shards);
                apply_ops(&mut dirty, &dirty_ops);
                let mut snap = dirty.snapshot_all();
                let mut rt = engine.runtime().sharded(shards);
                let mut live = apply_ops(&mut rt, &ops);
                for round in 0..2 {
                    let before = rt.metrics().snapshots;
                    rt.snapshot_into(&mut snap);
                    prop_assert_eq!(rt.metrics().snapshots, before + 1, "round {}", round);
                    prop_assert_eq!(&snap, &rt.snapshot_all(), "round {}", round);
                    let restored = Runtime::restore(engine, &snap).unwrap();
                    prop_assert_eq!(&restored.snapshot_all(), &snap, "round {}", round);
                    for &s in &live {
                        prop_assert_eq!(restored.snapshot(s), rt.snapshot(s));
                    }
                    continue_ops(&mut rt, &more, &mut live);
                }
            }
        }
    }

    /// The timer wheel against a naive reference scheduler: identical
    /// expiry sets and deterministic (deadline, arm-order) sequencing
    /// under arbitrary arm/re-arm/cancel/advance interleavings.
    #[test]
    fn timer_wheel_matches_reference_scheduler(
        script in prop::collection::vec((any::<u64>(), any::<u64>()), 0..200)
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        // key -> (deadline, arm sequence) for everything still armed.
        let mut reference: std::collections::BTreeMap<u32, (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for (op, payload) in script {
            match op % 4 {
                0 | 1 => {
                    let key = (payload % 16) as u32;
                    let deadline = now + (payload >> 8) % 5_000;
                    wheel.arm(key, deadline);
                    reference.insert(key, (deadline, seq));
                    seq += 1;
                }
                2 => {
                    let key = (payload % 16) as u32;
                    let cancelled = wheel.cancel(&key);
                    prop_assert_eq!(cancelled, reference.remove(&key).is_some());
                }
                _ => {
                    now += payload % 700;
                    let expired: Vec<u32> = wheel.advance(now).to_vec();
                    let mut expected: Vec<(u64, u64, u32)> = reference
                        .iter()
                        .filter(|(_, &(deadline, _))| deadline <= now)
                        .map(|(&k, &(deadline, s))| (deadline, s, k))
                        .collect();
                    expected.sort_unstable();
                    for &(_, _, k) in &expected {
                        reference.remove(&k);
                    }
                    let expected: Vec<u32> = expected.into_iter().map(|(_, _, k)| k).collect();
                    prop_assert_eq!(expired, expected, "at t = {}", now);
                }
            }
        }
        prop_assert_eq!(wheel.len(), reference.len());
    }

    /// Timeouts are ordinary transitions: `advance_time` delivering the
    /// timeout message to expired sessions leaves the pool in exactly
    /// the state of delivering it by hand in expiry order.
    #[test]
    fn timeouts_are_just_transitions(
        deadlines in prop::collection::vec(1u64..2_000, 1..12),
        advance_to in 1u64..2_500,
    ) {
        let engine = &engines()[1];
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
