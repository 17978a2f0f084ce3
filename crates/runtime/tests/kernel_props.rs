//! Facade-level kernel-equivalence properties: `Runtime::deliver_all`
//! (routed through the batch kernels on the compiled tiers) is
//! bit-identical to per-session scalar delivery and to the
//! telemetry-observed path — states, actions, finished flags, metrics
//! and snapshots — under spawn/release/reset churn between batches
//! (released slots exercise the kernels' retired-slot skip), on
//! the compiled, compiled-EFSM and reconstructed build-time-generated
//! tiers, and under the one worker driver at every worker count.

use proptest::prelude::*;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::generate;
use stategen_generated::GeneratedCommitR4;
use stategen_runtime::{Engine, MessageId, Runtime, SessionId, Spec};

/// Keep scripts from growing the pool without bound.
const MAX_LIVE: usize = 24;

/// One scripted runtime operation; free-range selectors are reduced
/// modulo the live set / alphabet at apply time.
#[derive(Debug, Clone, Copy)]
enum Op {
    Spawn,
    DeliverAll(usize),
    Reset(usize),
    Release(usize),
}

fn script(messages: usize) -> impl Strategy<Value = Vec<Op>> {
    let batch = || (0..messages).prop_map(Op::DeliverAll);
    prop::collection::vec(
        prop_oneof![
            Just(Op::Spawn),
            Just(Op::Spawn),
            batch(),
            batch(),
            batch(),
            (0..256usize).prop_map(Op::Reset),
            (0..256usize).prop_map(Op::Release),
        ],
        0..56,
    )
}

/// Runs one script against a set of runtimes of the same engine family:
/// `batched` runtimes use `Runtime::deliver_all` (the kernel path —
/// observed or sharded variants included), while the `scalar` runtime
/// delivers each batch message session-by-session through the
/// single-session path. Asserts transition totals per batch, and
/// per-session state/finished/snapshot equality throughout.
fn drive(
    batched: &mut [Runtime],
    scalar: &mut Runtime,
    ids: &[MessageId],
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut live: Vec<Vec<SessionId>> = batched.iter().map(|_| Vec::new()).collect();
    let mut scalar_live: Vec<SessionId> = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Spawn => {
                if scalar_live.len() >= MAX_LIVE {
                    continue;
                }
                for (rt, handles) in batched.iter_mut().zip(&mut live) {
                    handles.push(rt.spawn());
                }
                scalar_live.push(scalar.spawn());
            }
            Op::DeliverAll(m) => {
                let message = ids[m % ids.len()];
                // The scalar reference: one per-session delivery each;
                // `steps()` is the exact transition tally on both
                // sides (self-loop-proof, unlike state diffing).
                for &s in &scalar_live {
                    scalar.deliver(s, message);
                }
                for rt in batched.iter_mut() {
                    rt.deliver_all(message);
                    prop_assert_eq!(
                        rt.steps(),
                        scalar.steps(),
                        "step {}: transition totals",
                        step
                    );
                }
            }
            Op::Reset(s) => {
                if scalar_live.is_empty() {
                    continue;
                }
                let idx = s % scalar_live.len();
                for (rt, handles) in batched.iter_mut().zip(&live) {
                    rt.reset(handles[idx]);
                }
                scalar.reset(scalar_live[idx]);
            }
            Op::Release(s) => {
                if scalar_live.is_empty() {
                    continue;
                }
                let idx = s % scalar_live.len();
                for (rt, handles) in batched.iter_mut().zip(&mut live) {
                    rt.release(handles.swap_remove(idx));
                }
                scalar.release(scalar_live.swap_remove(idx));
            }
        }
        for (rt, handles) in batched.iter().zip(&live) {
            for (idx, (&h, &sh)) in handles.iter().zip(&scalar_live).enumerate() {
                // Sharded layouts recycle slots per shard, so compare
                // the execution content (state + full register file),
                // not slot generations.
                let (a, b) = (rt.snapshot(h), scalar.snapshot(sh));
                prop_assert_eq!(
                    (a.state, a.vars),
                    (b.state, b.vars),
                    "step {} session {}: kernel-batched snapshot diverged from scalar",
                    step,
                    idx
                );
                prop_assert_eq!(rt.is_finished(h), scalar.is_finished(sh));
            }
        }
    }
    Ok(())
}

fn commit_ids(rt: &Runtime) -> Vec<MessageId> {
    MESSAGE_NAMES
        .iter()
        .map(|m| rt.message_id(m).expect("commit alphabet"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled tier: flat, 4-way sharded, and recorder-observed
    /// runtimes (the latter two also route batches through the kernel /
    /// the replayed-observation path) all stay bit-identical to
    /// per-session scalar delivery through churny scripts.
    #[test]
    fn compiled_batches_match_scalar_delivery(ops in script(5)) {
        let machine = generate(&CommitModel::new(CommitConfig::new(4).unwrap()))
            .unwrap()
            .machine;
        let engine = || Engine::compile(Spec::machine(machine.clone())).unwrap();
        let mut observed = engine().runtime();
        observed.attach_recorder(16);
        let mut batched = [
            engine().runtime(),
            Runtime::new(engine()).sharded(4),
            observed,
        ];
        let mut scalar = engine().runtime();
        let ids = commit_ids(&scalar);
        drive(&mut batched, &mut scalar, &ids, &ops)?;
        prop_assert_eq!(batched[0].snapshot_all(), scalar.snapshot_all());
        prop_assert_eq!(batched[2].snapshot_all(), scalar.snapshot_all());
        // The kernel path counts exactly what the scalar path counts.
        let (k, s) = (batched[0].metrics(), scalar.metrics());
        prop_assert_eq!(k.deliveries, s.deliveries);
        prop_assert_eq!(k.transitions, s.transitions);
        prop_assert_eq!(k.guard_fall_throughs, s.guard_fall_throughs);
    }

    /// Compiled-EFSM tier: the masked-compare column sweep (and its
    /// spill fallback) behind the facade matches scalar delivery on
    /// states *and registers* (snapshots carry the full register file).
    #[test]
    fn efsm_batches_match_scalar_delivery(ops in script(5)) {
        let config = CommitConfig::new(4).unwrap();
        let engine =
            || Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap();
        let mut observed = engine().runtime();
        observed.attach_recorder(16);
        let mut batched = [engine().runtime(), Runtime::new(engine()).sharded(3), observed];
        let mut scalar = engine().runtime();
        let ids = commit_ids(&scalar);
        drive(&mut batched, &mut scalar, &ids, &ops)?;
        prop_assert_eq!(batched[0].snapshot_all(), scalar.snapshot_all());
        prop_assert_eq!(batched[2].snapshot_all(), scalar.snapshot_all());
    }

    /// The reconstructed build-time-generated machine participates in
    /// the same kernel-equivalence guarantee through the facade.
    #[test]
    fn generated_tier_batches_match_scalar_delivery(ops in script(5)) {
        let machine = GeneratedCommitR4::to_machine();
        let engine = || Engine::compile(Spec::machine(machine.clone())).unwrap();
        let mut batched = [engine().runtime()];
        let mut scalar = engine().runtime();
        let ids = commit_ids(&scalar);
        drive(&mut batched, &mut scalar, &ids, &ops)?;
        prop_assert_eq!(batched[0].snapshot_all(), scalar.snapshot_all());
    }

    /// The worker driver behind a sharded runtime is a pure scheduling
    /// change on both compiled engines: for any shard count, any
    /// `workers ∈ 1..=shards + 2` (inline, stealing, parked), uneven
    /// shards (sessions diverged and released before the drive) and any
    /// deliver/reset sequence, per-command transition counts and
    /// finished/step totals equal a flat runtime's, and afterwards
    /// every session's state and registers do.
    #[test]
    fn stealing_workers_match_flat_runtime(
        guarded in any::<bool>(),
        shards in 1usize..9,
        extra in 0usize..11,
        prelude in prop::collection::vec((0usize..256, 0usize..6), 0..40),
        commands in prop::collection::vec(0usize..6, 0..40),
        sessions in 1usize..200,
    ) {
        let workers = 1 + extra % (shards + 2);
        let config = CommitConfig::new(4).unwrap();
        let engine = if guarded {
            Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap()
        } else {
            let machine = generate(&CommitModel::new(config)).unwrap().machine;
            Engine::compile(Spec::machine(machine)).unwrap()
        };
        let mut flat = engine.runtime();
        let mut sharded = engine.runtime().sharded(shards);
        let mut handles: Vec<(SessionId, SessionId)> =
            (0..sessions).map(|_| (flat.spawn(), sharded.spawn())).collect();
        let ids = commit_ids(&flat);
        // Single-session deliveries spread sessions over states; a
        // selector of 5 releases instead, leaving shards uneven and
        // holed.
        for &(pick, m) in &prelude {
            let idx = pick % handles.len();
            if m < ids.len() {
                let (f, s) = handles[idx];
                prop_assert_eq!(flat.deliver(f, ids[m]).to_vec(), sharded.deliver(s, ids[m]));
            } else if handles.len() > 1 {
                let (f, s) = handles.swap_remove(idx);
                flat.release(f);
                sharded.release(s);
            }
        }
        let checks: Result<(), TestCaseError> = sharded.with_workers(workers, |w| {
            prop_assert_eq!(w.worker_count(), workers.min(shards));
            for (step, &m) in commands.iter().enumerate() {
                if m < ids.len() {
                    let t_flat = flat.deliver_all(ids[m]);
                    prop_assert_eq!(w.deliver_all(ids[m]), t_flat, "step {}", step);
                } else {
                    flat.reset_all();
                    w.reset_all();
                }
                prop_assert_eq!(w.finished_count(), flat.finished_count(), "step {}", step);
                prop_assert_eq!(w.steps(), flat.steps(), "step {}", step);
            }
            Ok(())
        });
        checks?;
        // A sharded `deliver_all` is one command on the same driver.
        prop_assert_eq!(sharded.deliver_all(ids[0]), flat.deliver_all(ids[0]));
        prop_assert_eq!(sharded.steps(), flat.steps());
        prop_assert_eq!(sharded.finished_count(), flat.finished_count());
        prop_assert_eq!(sharded.len(), flat.len());
        for (idx, &(f, s)) in handles.iter().enumerate() {
            let (a, b) = (flat.snapshot(f), sharded.snapshot(s));
            prop_assert_eq!((a.state, a.vars), (b.state, b.vars), "session {}", idx);
            prop_assert_eq!(flat.is_finished(f), sharded.is_finished(s), "session {}", idx);
        }
    }
}
