//! API conformance: every execution tier behind the `Spec → Engine →
//! Runtime` pipeline produces identical action sequences, finished
//! flags, state names and variable registers on a shared trace corpus —
//! for all three spec shapes, flat machine, EFSM and (guarded and
//! unguarded) statechart, `Engine::interpret` is a genuinely
//! interpreted engine with `Engine::compile`'s fingerprint, and the
//! flattened statecharts are held to the direct statechart interpreter
//! — plus `Send + 'static` / object-safety compile tests for the owned
//! surface.
//!
//! The corpus mixes exhaustive short traces with seeded pseudo-random
//! long ones, so both the dense early state space and deep runs are
//! covered deterministically.

use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::Hash;

use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::{generate, FlatIr, HsmInstance, StateMachine};
use stategen_models::{
    broadcast_efsm, broadcast_efsm_params, session_lifecycle, session_lifecycle_guarded,
    BroadcastModel,
};
use stategen_runtime::{Engine, ProtocolEngine, Runtime, Spec, Tier};

/// Deterministic LCG over message indices (no RNG dependency; the
/// corpus must be identical on every run and machine).
fn corpus(seed: u64, len: usize, alphabet: usize) -> Vec<usize> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % alphabet
        })
        .collect()
}

fn commit_machine(r: u32) -> StateMachine {
    generate(&CommitModel::new(CommitConfig::new(r).unwrap()))
        .unwrap()
        .machine
}

/// One observation of one session after one delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observation {
    actions: Vec<String>,
    finished: bool,
    state_name: String,
    vars: Vec<i64>,
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

/// Drives one runtime session through a name trace, recording the
/// observable behaviour after every delivery.
fn observe(rt: &mut Runtime, trace: &[&str]) -> Vec<Observation> {
    let session = rt.spawn();
    trace
        .iter()
        .map(|name| {
            let actions: Vec<String> = rt
                .deliver(session, rt.message_id(name).expect("message in alphabet"))
                .iter()
                .map(|a| a.message().to_string())
                .collect();
            Observation {
                actions,
                finished: rt.is_finished(session),
                state_name: rt.state_name(session).to_string(),
                vars: rt.vars(session).to_vec(),
            }
        })
        .collect()
}

/// The same trace corpus for one machine family member, in name form.
fn commit_traces() -> Vec<Vec<&'static str>> {
    let mut traces: Vec<Vec<&'static str>> = Vec::new();
    // Exhaustive traces up to length 4 (5^4 = 625).
    let mut stack = vec![Vec::new()];
    while let Some(trace) = stack.pop() {
        traces.push(trace.iter().map(|&m| MESSAGE_NAMES[m]).collect());
        if trace.len() < 4 {
            for m in 0..MESSAGE_NAMES.len() {
                let mut next = trace.clone();
                next.push(m);
                stack.push(next);
            }
        }
    }
    // Seeded long traces.
    for seed in 0..32 {
        traces.push(
            corpus(seed, 120, MESSAGE_NAMES.len())
                .into_iter()
                .map(|m| MESSAGE_NAMES[m])
                .collect(),
        );
    }
    traces
}

/// All pipeline tiers agree on the commit protocol: the interpreted
/// and compiled engines of the flat machine, and of the EFSM, match on
/// actions, finished flags, state names *and* registers; the EFSM (a
/// different artifact of the same algorithm) matches the flat machine
/// on actions and finished flags.
#[test]
fn commit_tiers_agree_on_trace_corpus() {
    for r in [2u32, 4, 7] {
        let config = CommitConfig::new(r).unwrap();
        let (interpreted, compiled) =
            both_engines(Spec::machine(commit_machine(r)), Tier::Compiled);
        let efsm = Spec::efsm(commit_efsm(), commit_efsm_params(&config));
        let (efsm_interpreted, efsm) = both_engines(efsm, Tier::Compiled);
        let mut rt_interp = interpreted.runtime();
        let mut rt_compiled = compiled.runtime();
        let mut rt_efsm = efsm.runtime();
        let mut rt_efsm_interp = efsm_interpreted.runtime();
        for trace in commit_traces() {
            let o_interp = observe(&mut rt_interp, &trace);
            let o_compiled = observe(&mut rt_compiled, &trace);
            let o_efsm = observe(&mut rt_efsm, &trace);
            assert_eq!(
                o_interp, o_compiled,
                "r={r} interpreted vs compiled on {trace:?}"
            );
            assert_eq!(
                observe(&mut rt_efsm_interp, &trace),
                o_efsm,
                "r={r} interpreted vs compiled EFSM on {trace:?}"
            );
            for (step, (a, b)) in o_compiled.iter().zip(&o_efsm).enumerate() {
                assert_eq!(
                    a.actions, b.actions,
                    "r={r} step {step}: compiled vs EFSM actions on {trace:?}"
                );
                assert_eq!(
                    a.finished, b.finished,
                    "r={r} step {step}: compiled vs EFSM finished on {trace:?}"
                );
            }
        }
    }
}

/// The flattened statecharts (compiled *and* interpreted flat forms),
/// unguarded on the dense tier and guarded unfolded onto it, match
/// the direct statechart interpreter — the semantic reference — on
/// actions, finished flags, synthesized configuration names and
/// variables.
#[test]
fn hsm_tiers_agree_on_trace_corpus() {
    let plain = (session_lifecycle(), vec![], Tier::Compiled);
    let guarded = (session_lifecycle_guarded(), vec![2], Tier::Compiled);
    for (hsm, params, tier) in [plain, guarded] {
        let alphabet: Vec<String> = hsm.messages().to_vec();
        let spec = Spec::hsm_with_params(hsm.clone(), params.clone());
        let (interpreted, compiled) = both_engines(spec, tier);
        let mut rt_compiled = compiled.runtime();
        let mut rt_interp = interpreted.runtime();
        for seed in 0..64u64 {
            let trace: Vec<&str> = corpus(seed, 80, alphabet.len())
                .into_iter()
                .map(|m| alphabet[m].as_str())
                .collect();
            // The direct interpreter is the reference.
            let mut reference = HsmInstance::with_params(&hsm, params.clone());
            let expected: Vec<Observation> = trace
                .iter()
                .map(|name| {
                    let actions = reference
                        .deliver(name)
                        .unwrap()
                        .into_iter()
                        .map(|a| a.message().to_string())
                        .collect();
                    Observation {
                        actions,
                        finished: reference.is_finished(),
                        state_name: reference.state_name().into_owned(),
                        vars: reference.vars().to_vec(),
                    }
                })
                .collect();
            assert_eq!(
                expected,
                observe(&mut rt_compiled, &trace),
                "flattened+compiled diverged from HsmInstance ({tier}, seed {seed})"
            );
            assert_eq!(
                expected,
                observe(&mut rt_interp, &trace),
                "flattened+interpreted diverged from HsmInstance ({tier}, seed {seed})"
            );
        }
    }
}

/// The build-time `generated` tier agrees with the pipeline: driven
/// directly, the rendered `match` code matches the machine
/// `Spec::generated` builds from the same model, served interpreted and
/// compiled through the facade, on actions, finished flags and state
/// names — and its `receive` reaches exactly the pipeline's states from
/// `START` (33 at r = 4, 85 at r = 7).
#[test]
fn generated_tier_agrees_through_the_facade() {
    type Receive<S> = fn(S, &str) -> Option<(S, &'static [&'static str])>;
    fn check<G: ProtocolEngine + Default, S: Copy + Eq + Hash>(
        r: u32,
        states: usize,
        (start, messages, receive): (S, &[&str], Receive<S>),
    ) {
        let mut reached = HashSet::from([start]);
        let mut queue = vec![start];
        while let Some(state) = queue.pop() {
            for message in messages {
                if let Some((next, _)) = receive(state, message) {
                    if reached.insert(next) {
                        queue.push(next);
                    }
                }
            }
        }
        let spec = Spec::generated(&CommitModel::new(CommitConfig::new(r).unwrap())).unwrap();
        let (interpreted, compiled) = both_engines(spec, Tier::Compiled);
        assert_eq!((reached.len(), compiled.state_count()), (states, states));
        let mut rt_interp = interpreted.runtime();
        let mut rt_compiled = compiled.runtime();
        for trace in commit_traces() {
            let mut generated = G::default();
            let expected: Vec<Observation> = trace
                .iter()
                .map(|name| Observation {
                    actions: generated
                        .deliver(name)
                        .unwrap()
                        .into_iter()
                        .map(|a| a.message().to_string())
                        .collect(),
                    finished: generated.is_finished(),
                    state_name: generated.state_name().into_owned(),
                    vars: Vec::new(),
                })
                .collect();
            assert_eq!(
                expected,
                observe(&mut rt_interp, &trace),
                "r={r} generated vs facade-interpreted on {trace:?}"
            );
            assert_eq!(
                expected,
                observe(&mut rt_compiled, &trace),
                "r={r} generated vs facade-compiled on {trace:?}"
            );
        }
    }
    use stategen_generated::{commit_r4, commit_r7, GeneratedCommitR4, GeneratedCommitR7};
    check::<GeneratedCommitR4, _>(
        4,
        33,
        (commit_r4::START, commit_r4::MESSAGES, commit_r4::receive),
    );
    check::<GeneratedCommitR7, _>(
        7,
        85,
        (commit_r7::START, commit_r7::MESSAGES, commit_r7::receive),
    );
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
/// says why, and agrees with `Engine::interpret` step for step.
/// (`scripts/verify.sh` re-runs this in release.)
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
    let [mut a, mut b] = [fallback, Engine::interpret(commit(55)).unwrap()].map(|e| e.runtime());
    let (sa, sb) = (a.spawn(), b.spawn());
    for (step, mi) in corpus(55, 200, MESSAGE_NAMES.len()).into_iter().enumerate() {
        let m = a.message_id(MESSAGE_NAMES[mi]).unwrap();
        assert_eq!(a.deliver(sa, m), b.deliver(sb, m), "step {step}");
        assert_eq!(a.state_name(sa), b.state_name(sb), "step {step}");
        assert_eq!(a.vars(sa), b.vars(sb), "step {step}");
        assert_eq!(a.is_finished(sa), b.is_finished(sb), "step {step}");
    }
}
