//! Deployment suite: artifact-booted engines and drain-and-switch
//! hot-swap, on pinned scenarios.
//!
//! * **Cold boot** — `Engine::from_artifact(load(save(spec)))` keeps
//!   the fingerprint, binding and tier of `Engine::compile(spec)` on
//!   every front end (dense machine, parameterized EFSM, flattened
//!   guarded statechart), and tolerates duplicated deliveries — the
//!   commit protocol's idempotence obligation — as the compiled spec
//!   does; an artifact-booted runtime runs every random script of the
//!   operation oracle (`oracle/mod.rs`).
//!
//! * **Hot-swap** — [`Runtime::begin_swap`] migrates in place when
//!   fingerprints match (handles stay valid), drains otherwise (new
//!   spawns land on the incoming engine, old sessions finish on the
//!   outgoing one), rejects alphabet mismatches with the runtime
//!   untouched, and [`Runtime::abort_swap`] rolls back to exactly the
//!   pre-swap serving state, also under random load drawn as the
//!   oracle's scripts.

mod oracle;

use std::sync::OnceLock;

use oracle::*;
use proptest::prelude::*;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::efsm::{CmpOp, Guard, LinExpr, Update};
use stategen_core::{generate, FlatIr, HierarchicalMachine, HsmBuilder};
use stategen_runtime::{
    Action, Artifact, Engine, SessionId, Spec, StategenError, SwapError, SwapOutcome,
};

// ---------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------

/// The parameterized commit-protocol engine: one compiled EFSM family,
/// bound at `replication_factor = r`. Same alphabet for every `r`,
/// different fingerprint — the canonical version-rollout pair.
fn commit_engine(r: u32) -> Engine {
    let config = CommitConfig::new(r).unwrap();
    Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap()
}

fn retry_hsm() -> HierarchicalMachine {
    let mut b = HsmBuilder::new("retrying", ["go", "fail", "ok"]);
    let budget = b.add_param("budget");
    let tries = b.add_var("tries");
    let top = b.add_state("Top");
    let idle = b.add_child(top, "Idle");
    let work = b.add_child(top, "Working");
    let dead = b.add_child(top, "Dead");
    b.mark_final(dead);
    b.add_transition(idle, "go", work, vec![Action::send("started")]);
    b.add_guarded_transition(
        work,
        "fail",
        Guard::when(
            LinExpr::var(tries).plus_const(1),
            CmpOp::Lt,
            LinExpr::param(budget),
        ),
        vec![Update::Inc(tries)],
        work,
        vec![Action::send("retry")],
    );
    b.add_guarded_transition(
        work,
        "fail",
        Guard::when(
            LinExpr::var(tries).plus_const(1),
            CmpOp::Ge,
            LinExpr::param(budget),
        ),
        vec![Update::Inc(tries)],
        dead,
        vec![Action::send("give-up")],
    );
    b.add_transition(work, "ok", idle, vec![]);
    b.build(idle)
}

/// `(compiled-from-spec, artifact)` pairs for every front end the
/// pipeline serves.
fn spec_engines_and_artifacts() -> Vec<(Engine, Artifact)> {
    let config = CommitConfig::new(4).unwrap();
    let machine = generate(&CommitModel::new(config)).unwrap().machine;
    let hsm = retry_hsm();
    vec![
        (
            Engine::compile(Spec::machine(machine.clone())).unwrap(),
            Artifact::new(FlatIr::from_machine(&machine), vec![]).unwrap(),
        ),
        (
            Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap(),
            Artifact::from_efsm(&commit_efsm(), commit_efsm_params(&config)).unwrap(),
        ),
        (
            Engine::compile(Spec::hsm_with_params(hsm.clone(), vec![3])).unwrap(),
            Artifact::new(hsm.flatten_ir(), vec![3]).unwrap(),
        ),
    ]
}

/// Ships the artifact through bytes and boots an engine from them alone.
fn boot_from_bytes(artifact: &Artifact) -> Engine {
    let bytes = artifact.save();
    let loaded = Artifact::load(&bytes).expect("valid artifact image");
    Engine::from_artifact(&loaded).expect("artifact boots")
}

// ---------------------------------------------------------------------
// Cold boot: from_artifact ≡ compile, on every front end.
// ---------------------------------------------------------------------

#[test]
fn artifact_boot_preserves_fingerprint_and_binding() {
    for (reference, artifact) in spec_engines_and_artifacts() {
        let booted = boot_from_bytes(&artifact);
        assert_eq!(booted.fingerprint(), reference.fingerprint());
        assert_eq!(booted.fingerprint(), artifact.fingerprint());
        assert_eq!(booted.messages(), reference.messages());
        assert_eq!(booted.state_count(), reference.state_count());
        assert_eq!(booted.params(), artifact.params());
        // One lowering: the same machine reports the same tier whether
        // it arrived as a spec or as artifact bytes.
        assert_eq!(booted.tier(), reference.tier());
    }
}

#[test]
fn duplicate_deliveries_conform_through_artifact_boot() {
    // The commit protocol must tolerate duplicated message deliveries
    // (the paper's motivating robustness property); an artifact-booted
    // engine must tolerate them *identically* to the compiled spec.
    let config = CommitConfig::new(4).unwrap();
    let reference =
        Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap();
    let booted =
        boot_from_bytes(&Artifact::from_efsm(&commit_efsm(), commit_efsm_params(&config)).unwrap());
    let mut rt_a = reference.runtime();
    let mut rt_b = booted.runtime();
    let (sa, sb) = (rt_a.spawn(), rt_b.spawn());
    // update, vote ×2 (dup), vote, commit ×2 (dup), free ×2 (dup).
    for &m in &[0usize, 1, 1, 1, 2, 2, 3, 3] {
        let name = MESSAGE_NAMES[m];
        let ia = rt_a.message_id(name).unwrap();
        let ib = rt_b.message_id(name).unwrap();
        assert_eq!(rt_a.deliver(sa, ia).to_vec(), rt_b.deliver(sb, ib).to_vec());
        assert_eq!(rt_a.state_name(sa), rt_b.state_name(sb));
        assert_eq!(rt_a.is_finished(sa), rt_b.is_finished(sb));
    }
}

// ---------------------------------------------------------------------
// Hot-swap, deterministic paths.
// ---------------------------------------------------------------------

#[test]
fn matching_fingerprint_migrates_in_place() {
    let config = CommitConfig::new(4).unwrap();
    let efsm = Spec::efsm(commit_efsm(), commit_efsm_params(&config));
    let hsm = Spec::hsm_with_params(retry_hsm(), vec![3]);
    // The "same bytes redeployed" scenario: an artifact-booted engine of
    // the same family and binding — identical fingerprint, different
    // provenance — and then the same guarded machine rolled from the
    // compiled tier onto the interpreted one and back: a fingerprint
    // names a machine, not a tier, and the register file fits both.
    let booted =
        boot_from_bytes(&Artifact::from_efsm(&commit_efsm(), commit_efsm_params(&config)).unwrap());
    let rollouts = [
        (
            commit_engine(4),
            vec![
                booted,
                Engine::interpret(efsm.clone()).unwrap(),
                Engine::compile(efsm).unwrap(),
            ],
            [MESSAGE_NAMES[0], MESSAGE_NAMES[1]],
        ),
        (
            Engine::interpret(hsm.clone()).unwrap(),
            vec![
                Engine::compile(hsm.clone()).unwrap(),
                Engine::interpret(hsm).unwrap(),
            ],
            ["go", "fail"],
        ),
    ];
    for (serving, incoming, [first, second]) in rollouts {
        let mut rt = serving.runtime().sharded(3);
        let sessions: Vec<SessionId> = (0..7).map(|_| rt.spawn()).collect();
        let first = rt.message_id(first).unwrap();
        let second = rt.message_id(second).unwrap();
        rt.deliver(sessions[0], first);
        rt.deliver(sessions[0], second);
        rt.deliver(sessions[3], first);
        rt.release(sessions[5]);
        for incoming in incoming {
            assert_eq!(incoming.fingerprint(), rt.engine().fingerprint());
            let before = rt.snapshot_all();
            match rt.begin_swap(incoming.clone()).unwrap() {
                SwapOutcome::Migrated { sessions: n } => assert_eq!(n, 6),
                other => panic!("expected Migrated, got {other:?}"),
            }
            assert!(!rt.swap_in_progress(), "migration completes synchronously");
            assert_eq!(rt.engine().tier(), incoming.tier());
            // States, registers, generations, free list: bit-identical.
            assert_eq!(rt.snapshot_all(), before);
            assert!(!rt.is_live(sessions[5]), "stale handles stay stale");
            // Still being served, registers moving, on the new engine.
            assert!(rt.deliver_all(second) > 0);
            rt.deliver(sessions[0], second);
            rt.deliver(sessions[1], first);
        }
    }
}

#[test]
fn drain_and_switch_routes_spawns_to_incoming_engine() {
    let outgoing = commit_engine(4);
    let incoming = commit_engine(3);
    assert_ne!(outgoing.fingerprint(), incoming.fingerprint());
    assert_eq!(outgoing.messages(), incoming.messages());

    let mut rt = outgoing.runtime();
    let old: Vec<SessionId> = (0..4).map(|_| rt.spawn()).collect();
    let update = rt.message_id(MESSAGE_NAMES[0]).unwrap();
    rt.deliver(old[0], update);

    match rt.begin_swap(incoming.clone()).unwrap() {
        SwapOutcome::Draining { sessions } => assert_eq!(sessions, 4),
        other => panic!("expected Draining, got {other:?}"),
    }
    assert!(rt.swap_in_progress());
    assert_eq!(rt.draining_sessions(), 4);
    assert_eq!(
        rt.incoming_engine().map(Engine::fingerprint),
        Some(incoming.fingerprint()),
    );
    // The serving engine is still the outgoing one until the drain ends.
    assert_eq!(rt.engine().fingerprint(), outgoing.fingerprint());

    // Old sessions keep being served (outgoing semantics) mid-drain.
    rt.deliver(old[1], update);

    // New spawns land on the incoming engine: replay the same trace on
    // a fresh incoming-engine runtime and demand identical observables.
    let young = rt.spawn();
    let mut probe_rt = incoming.runtime();
    let probe = probe_rt.spawn();
    let vote = rt.message_id(MESSAGE_NAMES[1]).unwrap();
    for &m in &[update, vote, vote, vote] {
        assert_eq!(
            rt.deliver(young, m).to_vec(),
            probe_rt.deliver(probe, m).to_vec(),
        );
        assert_eq!(rt.state_name(young), probe_rt.state_name(probe));
    }

    // A second swap cannot start, and the drain gate holds while any
    // outgoing-engine session is live.
    assert!(matches!(
        rt.begin_swap(commit_engine(5)),
        Err(StategenError::Swap(SwapError::AlreadyInProgress)),
    ));
    match rt.finish_swap() {
        Err(StategenError::Swap(SwapError::Draining { remaining })) => assert_eq!(remaining, 4),
        other => panic!("expected Draining gate, got {other:?}"),
    }

    for &s in &old {
        rt.release(s);
    }
    assert_eq!(rt.draining_sessions(), 0);
    rt.finish_swap().unwrap();
    assert!(!rt.swap_in_progress());
    assert_eq!(rt.engine().fingerprint(), incoming.fingerprint());

    // Pre-swap handles are loudly stale; the mid-drain spawn survives.
    for &s in &old {
        assert!(rt.try_deliver(s, update).is_err());
    }
    rt.deliver(young, update);
    assert_eq!(rt.len(), 1);

    // The swap machinery is reusable: the next rollout starts cleanly.
    match rt.begin_swap(commit_engine(6)).unwrap() {
        SwapOutcome::Draining { sessions } => assert_eq!(sessions, 1),
        other => panic!("expected Draining, got {other:?}"),
    }
    rt.abort_swap().unwrap();
}

#[test]
fn swap_on_idle_runtime_completes_immediately() {
    let mut rt = commit_engine(4).runtime().sharded(2);
    let incoming = commit_engine(3);
    match rt.begin_swap(incoming.clone()).unwrap() {
        SwapOutcome::Completed => {}
        other => panic!("expected Completed, got {other:?}"),
    }
    assert!(!rt.swap_in_progress());
    assert_eq!(rt.engine().fingerprint(), incoming.fingerprint());
    let s = rt.spawn();
    rt.deliver(s, rt.message_id(MESSAGE_NAMES[0]).unwrap());
}

#[test]
fn alphabet_mismatch_is_rejected_with_runtime_untouched() {
    let serving = commit_engine(4);
    let mut rt = serving.runtime();
    let s = rt.spawn();
    let update = rt.message_id(MESSAGE_NAMES[0]).unwrap();
    rt.deliver(s, update);
    let state_before = rt.state(s);

    // A behaviourally different engine over a different alphabet.
    let foreign = Engine::compile(Spec::hsm_with_params(retry_hsm(), vec![2])).unwrap();
    match rt.begin_swap(foreign) {
        Err(StategenError::Swap(SwapError::AlphabetMismatch { serving, incoming })) => {
            assert_eq!(serving, MESSAGE_NAMES.len());
            assert_eq!(incoming, 3);
        }
        other => panic!("expected AlphabetMismatch, got {other:?}"),
    }
    assert!(!rt.swap_in_progress(), "rejected before any session moved");
    assert_eq!(rt.engine().fingerprint(), serving.fingerprint());
    assert_eq!(rt.state(s), state_before);
    rt.deliver(s, update);
}

#[test]
fn abort_swap_rolls_back_to_the_outgoing_engine() {
    let outgoing = commit_engine(4);
    let mut rt = outgoing.runtime();
    let old: Vec<SessionId> = (0..3).map(|_| rt.spawn()).collect();
    let update = rt.message_id(MESSAGE_NAMES[0]).unwrap();
    rt.deliver(old[0], update);
    let before: Vec<u32> = old.iter().map(|&s| rt.state(s)).collect();

    assert!(matches!(
        rt.begin_swap(commit_engine(3)).unwrap(),
        SwapOutcome::Draining { sessions: 3 },
    ));
    let young: Vec<SessionId> = (0..2).map(|_| rt.spawn()).collect();
    rt.deliver(young[0], update);
    rt.arm_timeout(young[1], 50);

    let dropped = rt.abort_swap().unwrap();
    assert_eq!(dropped, 2, "incoming-engine sessions are force-released");
    assert!(!rt.swap_in_progress());
    assert_eq!(rt.engine().fingerprint(), outgoing.fingerprint());

    // The outgoing sessions never noticed; the aborted spawns are stale
    // and their timeouts are gone.
    for (&s, &state) in old.iter().zip(&before) {
        assert_eq!(rt.state(s), state);
        rt.deliver(s, update);
    }
    for &s in &young {
        assert!(rt.try_deliver(s, update).is_err());
    }
    assert_eq!(rt.advance_time(1_000, update), 0, "timer was cancelled");
    assert_eq!(rt.len(), 3);

    // No swap is pending any more.
    assert!(matches!(
        rt.finish_swap(),
        Err(StategenError::Swap(SwapError::NotInProgress)),
    ));
    assert!(matches!(
        rt.abort_swap(),
        Err(StategenError::Swap(SwapError::NotInProgress)),
    ));
}

#[test]
#[should_panic(expected = "cannot snapshot during a draining hot-swap")]
fn snapshot_all_refuses_mid_drain() {
    let mut rt = commit_engine(4).runtime();
    rt.spawn();
    rt.begin_swap(commit_engine(3)).unwrap();
    let _ = rt.snapshot_all();
}

// ---------------------------------------------------------------------
// Under random load.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every front end the pipeline serves — the dense machine, the
    /// parameterized EFSM and the flattened guarded statechart — with
    /// a runtime booted from its artifact's bytes among the oracle's.
    #[test]
    fn artifact_booted_engines_replay_identically(shards in shards(), ops in script()) {
        static RETRY: OnceLock<Subject> = OnceLock::new();
        let retry = RETRY.get_or_init(|| Subject::hsm(retry_hsm(), vec![3]));
        for subject in [&commit_subjects()[0], &commit_subjects()[1], retry] {
            check(subject, shards, &ops)?;
        }
    }

    /// The swap state machine under random interleaved load: whatever
    /// the pool looks like, a rollout either completes onto the
    /// incoming engine or aborts back to the outgoing one, with every
    /// surviving handle still addressable and every dropped handle
    /// loudly stale.
    #[test]
    fn swap_under_random_load(
        before in script(),
        during in script(),
        shards in 1usize..4,
        finish in any::<bool>(),
    ) {
        let outgoing = commit_engine(4);
        let incoming = commit_engine(3);
        let mut rt = outgoing.runtime().sharded(shards);
        let mut old = Vec::new();
        load(&mut rt, &mut old, &before);
        let old_states: Vec<u32> = old.iter().map(|&s| rt.state(s)).collect();

        match rt.begin_swap(incoming.clone()).unwrap() {
            SwapOutcome::Migrated { .. } => {
                prop_assert!(false, "fingerprints differ; migration impossible");
            }
            SwapOutcome::Completed => {
                prop_assert!(old.is_empty());
                prop_assert_eq!(rt.engine().fingerprint(), incoming.fingerprint());
            }
            SwapOutcome::Draining { sessions } => {
                prop_assert_eq!(sessions, old.len());

                // Mid-drain load: new spawns land on the incoming
                // engine, old sessions keep draining.
                let mut young = Vec::new();
                load(&mut rt, &mut young, &during);
                prop_assert_eq!(rt.len(), old.len() + young.len());

                let update = rt.message_id(MESSAGE_NAMES[0]).unwrap();
                if finish {
                    for &s in &old {
                        rt.release(s);
                    }
                    rt.finish_swap().unwrap();
                    prop_assert!(!rt.swap_in_progress());
                    prop_assert_eq!(rt.engine().fingerprint(), incoming.fingerprint());
                    for &s in &old {
                        prop_assert!(rt.try_deliver(s, update).is_err());
                    }
                    for &s in &young {
                        rt.deliver(s, update);
                    }
                    prop_assert_eq!(rt.len(), young.len());
                } else {
                    let dropped = rt.abort_swap().unwrap();
                    prop_assert_eq!(dropped, young.len());
                    prop_assert!(!rt.swap_in_progress());
                    prop_assert_eq!(rt.engine().fingerprint(), outgoing.fingerprint());
                    for (&s, &state) in old.iter().zip(&old_states) {
                        prop_assert_eq!(rt.state(s), state);
                    }
                    for &s in &young {
                        prop_assert!(rt.try_deliver(s, update).is_err());
                    }
                    prop_assert_eq!(rt.len(), old.len());
                    // Rolled back cleanly: the pool still serves, and
                    // the next rollout can start.
                    load(&mut rt, &mut old, &during);
                    rt.begin_swap(incoming.clone()).unwrap();
                }
            }
        }
    }
}
