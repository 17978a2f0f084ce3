//! API conformance of the `Spec → Engine → Runtime` pipeline: for all
//! three spec shapes — flat machine, EFSM and (guarded and unguarded)
//! statechart — `Engine::interpret` is a genuinely interpreted engine
//! with `Engine::compile`'s fingerprint, alphabet, states and binding;
//! the flattened statecharts are decided equivalent to the direct
//! statechart interpreter; the build-time generated code is the
//! machine `Spec::generated` serves; plus `Send + 'static` /
//! object-safety compile tests for the owned surface, duplicate
//! deliveries after finish, and the unfolding decision of every
//! deployed machine.
//!
//! That a runtime serves an engine as `IrInstance` steps its IR is the
//! operation oracle's job (`oracle/mod.rs`, run by `kernel_props.rs`
//! and the other property suites on the commit machine and EFSM,
//! random machines, EFSMs and statecharts); that the commit
//! protocol's artefacts are one protocol is `stategen-commit`'s
//! `equivalence.rs`.

mod oracle;

use std::borrow::Cow;

use oracle::flattens_exactly;
use oracle::support::decide;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::{generate, FlatIr, HsmInstance, StateMachine};
use stategen_models::{
    broadcast_efsm, broadcast_efsm_params, session_lifecycle, session_lifecycle_guarded,
    BroadcastModel,
};
use stategen_runtime::{Engine, ProtocolEngine, Runtime, Spec, Tier};

fn commit_machine(r: u32) -> StateMachine {
    generate(&CommitModel::new(CommitConfig::new(r).unwrap()))
        .unwrap()
        .machine
}

/// Both engines of one spec: `interpret` really interprets, `compile`
/// lands on `tier`, and the two are one machine — same fingerprint,
/// alphabet numbering, state count and binding.
fn both_engines(spec: Spec, tier: Tier) -> (Engine, Engine) {
    let interpreted = Engine::interpret(spec.clone()).unwrap();
    let compiled = Engine::compile(spec).unwrap();
    assert_eq!(interpreted.tier(), Tier::Interpreted);
    assert_eq!(compiled.tier(), tier);
    assert_eq!(interpreted.fingerprint(), compiled.fingerprint());
    assert_eq!(interpreted.messages(), compiled.messages());
    assert_eq!(interpreted.state_count(), compiled.state_count());
    assert_eq!(interpreted.params(), compiled.params());
    assert_eq!(interpreted.name(), compiled.name());
    (interpreted, compiled)
}

/// The commit protocol's flat machine and EFSM, at three family
/// members: each spec's two engines are one machine, and the compiled
/// ones land on the dense table.
#[test]
fn commit_tiers_agree_on_trace_corpus() {
    for r in [2u32, 4, 7] {
        let config = CommitConfig::new(r).unwrap();
        both_engines(Spec::machine(commit_machine(r)), Tier::Compiled);
        let efsm = Spec::efsm(commit_efsm(), commit_efsm_params(&config));
        both_engines(efsm, Tier::Compiled);
    }
}

/// The session lifecycle statechart, unguarded on the dense tier and
/// guarded unfolded onto it: both engines of each are one machine, and
/// its flattening is the direct statechart interpreter — the semantic
/// reference — configuration name and registers alike.
#[test]
fn hsm_tiers_agree_on_trace_corpus() {
    let plain = (session_lifecycle(), vec![]);
    let guarded = (session_lifecycle_guarded(), vec![2]);
    for (hsm, params) in [plain, guarded] {
        let spec = Spec::hsm_with_params(hsm.clone(), params.clone());
        both_engines(spec, Tier::Compiled);
        flattens_exactly(&hsm, &params);
    }
}

/// The build-time `generated` tier is the pipeline's machine: the
/// rendered `match` code is decided equivalent to the machine
/// `Spec::generated` builds from the same model, state name for state
/// name, reaching exactly its states (33 at r = 4, 85 at r = 7), which
/// both engines serve.
#[test]
fn generated_tier_agrees_through_the_facade() {
    fn check<G: ProtocolEngine + Clone + Eq + std::hash::Hash + Default>(r: u32, states: usize) {
        let model = CommitModel::new(CommitConfig::new(r).unwrap());
        let (_, compiled) = both_engines(Spec::generated(&model).unwrap(), Tier::Compiled);
        let ir = FlatIr::from_machine(&generate(&model).unwrap().machine);
        let pairs = decide(G::default(), ir.instance(vec![]), &MESSAGE_NAMES);
        for (generated, interpreted) in &pairs {
            assert_eq!(generated.state_name(), interpreted.state_name(), "r={r}");
        }
        assert_eq!((pairs.len(), compiled.state_count()), (states, states));
    }
    use stategen_generated::{GeneratedCommitR4, GeneratedCommitR7};
    check::<GeneratedCommitR4>(4, 33);
    check::<GeneratedCommitR7>(7, 85);
}

/// The `Session` view speaks the same `ProtocolEngine` vocabulary as
/// every core engine, so generic drivers run unchanged on the facade.
#[test]
fn session_view_is_a_protocol_engine() {
    fn drive<E: ProtocolEngine>(engine: &mut E) -> (Vec<String>, bool, String) {
        let mut actions = Vec::new();
        for name in ["update", "vote", "vote", "commit", "commit"] {
            actions.extend(
                engine
                    .deliver(name)
                    .unwrap()
                    .iter()
                    .map(|a| a.message().to_string()),
            );
        }
        (
            actions,
            engine.is_finished(),
            engine.state_name().into_owned(),
        )
    }
    let machine = commit_machine(4);
    let ir = FlatIr::from_machine(&machine);
    let mut reference = ir.instance(vec![]);
    let mut rt = Engine::compile(Spec::machine(machine.clone()))
        .unwrap()
        .runtime();
    let id = rt.spawn();
    assert_eq!(drive(&mut reference), drive(&mut rt.session(id)));
}

/// The owned pipeline really is owned: engines and runtimes are
/// `Send + 'static` (runtimes additionally `Sync`-free by design —
/// sessions are single-writer), so they move into threads, servers and
/// `'static` task queues without lifetime gymnastics.
#[test]
fn engine_and_runtime_are_send_static() {
    fn assert_send_sync_static<T: Send + Sync + 'static>() {}
    fn assert_send_static<T: Send + 'static>() {}
    assert_send_sync_static::<Engine>();
    assert_send_static::<Runtime>();
    assert_send_static::<stategen_runtime::SessionId>();

    // And behaviourally: an engine compiled here serves sessions on
    // another thread with no scoped-borrow scaffolding.
    let engine = Engine::compile(Spec::machine(commit_machine(4))).unwrap();
    let handle = std::thread::spawn(move || {
        let mut rt = engine.runtime_with(1000);
        let update = rt.message_id("update").unwrap();
        let vote = rt.message_id("vote").unwrap();
        rt.deliver_all(update) + rt.deliver_all(vote) + rt.deliver_all(vote)
    });
    assert_eq!(handle.join().unwrap(), 3000);
}

/// `ProtocolEngine` stays object-safe after the `Cow` state-name
/// redesign: heterogeneous engine collections still work.
#[test]
fn protocol_engine_is_object_safe() {
    let machine = commit_machine(2);
    let hsm = session_lifecycle();
    let [mut compiled, mut walked] = [
        Engine::compile(Spec::machine(machine.clone())),
        Engine::interpret(Spec::machine(machine.clone())),
    ]
    .map(|engine| engine.unwrap().runtime());
    let (id, wid) = (compiled.spawn(), walked.spawn());
    let ir = FlatIr::from_machine(&machine);
    let mut engines: Vec<Box<dyn ProtocolEngine + '_>> = vec![
        Box::new(ir.instance(vec![])),
        Box::new(walked.session(wid)),
        Box::new(HsmInstance::new(&hsm)),
        Box::new(compiled.session(id)),
    ];
    for engine in &mut engines {
        let name: Cow<'_, str> = engine.state_name();
        assert!(!name.is_empty());
        let _ = engine.is_finished();
        engine.reset();
    }
}

/// Duplicate-delivery safety (the fault model's at-least-once half):
/// once a session is finished, every further delivery — any message,
/// any number of times — is absorbed: no actions, no state change,
/// still finished. Checked on both runtime-served tiers, each over a
/// flat and over a guarded machine (the
/// build-time generated tier has the matching check in
/// `stategen-generated`'s suite).
#[test]
fn finished_sessions_absorb_duplicate_deliveries_on_all_tiers() {
    // Find a finishing trace by breadth-first search on the interpreted
    // tier, so the test does not hard-code protocol thresholds.
    let config = CommitConfig::new(4).unwrap();
    let interpreted = Engine::interpret(Spec::machine(commit_machine(4))).unwrap();
    let finishing_trace = {
        let mut frontier: Vec<Vec<&str>> = vec![Vec::new()];
        let mut found: Option<Vec<&str>> = None;
        'search: while let Some(trace) = frontier.pop() {
            for name in MESSAGE_NAMES {
                let mut next = trace.clone();
                next.push(name);
                let mut rt = interpreted.runtime();
                let s = rt.spawn();
                for m in &next {
                    let id = rt.message_id(m).unwrap();
                    rt.deliver(s, id);
                }
                if rt.is_finished(s) {
                    found = Some(next);
                    break 'search;
                }
                if next.len() < 6 {
                    frontier.push(next);
                }
            }
        }
        found.expect("commit protocol has a finishing trace within 6 steps")
    };

    let engines = [
        interpreted,
        Engine::compile(Spec::machine(commit_machine(4))).unwrap(),
        Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap(),
        Engine::interpret(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap(),
    ];
    for engine in engines {
        let tier = engine.tier();
        let mut rt = engine.runtime();
        let s = rt.spawn();
        for m in &finishing_trace {
            let id = rt.message_id(m).unwrap();
            rt.deliver(s, id);
        }
        assert!(rt.is_finished(s), "{tier:?}: trace must finish");
        let parked_state = rt.state(s);
        let parked_vars = rt.snapshot(s).vars;
        for _round in 0..2 {
            for name in MESSAGE_NAMES {
                let id = rt.message_id(name).unwrap();
                let actions = rt.deliver(s, id);
                assert!(
                    actions.is_empty(),
                    "{tier:?}: finished session emitted {actions:?} on {name}"
                );
                assert_eq!(rt.state(s), parked_state, "{tier:?}: state moved");
                assert!(rt.is_finished(s), "{tier:?}: un-finished by {name}");
            }
        }
        assert_eq!(
            rt.snapshot(s).vars,
            parked_vars,
            "{tier:?}: registers changed after finish"
        );
    }
}

/// The fallback is for machines nobody deploys: every guarded machine
/// the `build_deploy` corpus ships, the commit EFSM through r = 54 and
/// the broadcast EFSM unfold onto the dense table. The commit EFSM at
/// r = 55 is the first past the budget; it runs on the interpreter,
/// says why, and is `Engine::interpret`'s machine (the oracle serves
/// the fallback, at r = 64, against the reference). (`scripts/verify.sh`
/// re-runs this in release.)
#[test]
fn no_deployed_machine_falls_back() {
    let commit = |r| {
        Spec::efsm(
            commit_efsm(),
            commit_efsm_params(&CommitConfig::new(r).unwrap()),
        )
    };
    let broadcast = |n| broadcast_efsm_params(&BroadcastModel::new(n));
    let mut deployed = vec![Spec::hsm_with_params(session_lifecycle_guarded(), vec![3])];
    deployed.extend([4, 7, 10, 25, 46, 54].map(commit));
    deployed.extend([4, 7, 13].map(|n| Spec::efsm(broadcast_efsm(), broadcast(n))));
    for spec in deployed {
        let engine = Engine::compile(spec).unwrap();
        let lowering = format!("{engine:?}");
        assert!(
            engine.tier() == Tier::Compiled && lowering.contains(" — unfolded: "),
            "{lowering}"
        );
    }

    let fallback = Engine::compile(commit(55)).unwrap();
    assert_eq!(fallback.tier(), Tier::Interpreted);
    let why = " — interpreted: over budget at 4097 configurations #";
    assert!(format!("{fallback:?}").contains(why), "{fallback:?}");
    both_engines(commit(55), Tier::Interpreted);
}
