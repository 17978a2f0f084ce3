//! Property suite: the broadcast EFSM compiled through
//! `StepEngine::compile_ir` is observationally equivalent to the
//! interpreted tier — on
//! random message traces, for a range of participant counts, as a single
//! instance, as a batched session pool, and behind the
//! `stategen-runtime` facade (`Spec::efsm → Engine → Runtime`).

use std::sync::OnceLock;

use proptest::prelude::*;

use stategen_core::{Efsm, FlatIr, Instance, ProtocolEngine, SessionStore, StepEngine};
use stategen_models::{
    broadcast_efsm, broadcast_efsm_instance, broadcast_efsm_params, BroadcastModel,
};
use stategen_runtime::{Engine, Spec};

const MESSAGES: [&str; 3] = ["initial", "echo", "ready"];

fn efsm() -> &'static Efsm {
    static EFSM: OnceLock<Efsm> = OnceLock::new();
    EFSM.get_or_init(broadcast_efsm)
}

fn check(n: u32, messages: &[usize]) {
    let model = BroadcastModel::new(n);
    let mut interp = broadcast_efsm_instance(efsm(), &model);
    let params = broadcast_efsm_params(&model);
    let compiled = StepEngine::compile_ir(&FlatIr::from_efsm(efsm()), &params).unwrap();
    let mut single = Instance::new(compiled.clone());
    let mut pool = SessionStore::new(compiled.clone(), 2);
    let engine =
        Engine::compile(Spec::efsm(broadcast_efsm(), broadcast_efsm_params(&model))).unwrap();
    let mut facade = engine.runtime();
    let session = facade.spawn();
    for (step, &mi) in messages.iter().enumerate() {
        let name = MESSAGES[mi % MESSAGES.len()];
        let a_interp = interp.deliver(name).unwrap();
        let a_single = single.deliver(name).unwrap();
        let mid = compiled.message_id(name).unwrap();
        let a_pool = pool.deliver(0, mid);
        assert_eq!(
            a_interp,
            facade.deliver(session, facade.message_id(name).unwrap()),
            "n={n} step {step} ({name}): facade session diverged"
        );
        assert_eq!(
            single.vars(),
            facade.vars(session),
            "n={n} step {step} ({name})"
        );
        assert_eq!(
            single.is_finished(),
            facade.is_finished(session),
            "n={n} step {step}"
        );
        assert_eq!(
            a_interp,
            a_single,
            "n={n} step {step} ({name}): interpreted {a_interp:?} vs compiled {a_single:?} \
             (interp state {}, compiled state {})",
            interp.state_name(),
            single.state_name_str()
        );
        assert_eq!(
            a_interp, a_pool,
            "n={n} step {step} ({name}): pool session diverged"
        );
        pool.deliver(1, mid);
        assert_eq!(interp.vars(), single.vars(), "n={n} step {step} ({name})");
        assert_eq!(single.vars(), pool.vars(0), "n={n} step {step} ({name})");
        assert_eq!(
            interp.state_name(),
            single.state_name(),
            "n={n} step {step} ({name})"
        );
        assert_eq!(
            single.current_state(),
            pool.state(0),
            "n={n} step {step} ({name})"
        );
        assert_eq!(
            interp.is_finished(),
            single.is_finished(),
            "n={n} step {step} ({name})"
        );
        assert_eq!(
            single.is_finished(),
            pool.is_finished(0),
            "n={n} step {step} ({name})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Seeded random traces for a spread of participant counts: one
    /// compiled EFSM serves the whole family.
    #[test]
    fn compiled_matches_interpreter(n in 4u32..=13, messages in prop::collection::vec(0usize..3, 0..120)) {
        check(n, &messages);
    }
}

/// Exhaustive equivalence over every message sequence of length ≤ 6 for
/// n = 4 (3^6 = 729 sequences), mirroring the interpreter-vs-FSM suite
/// in the crate's unit tests.
#[test]
fn exhaustive_short_traces_n4() {
    let mut sequence = Vec::new();
    fn recurse(sequence: &mut Vec<usize>, depth: usize) {
        check(4, sequence);
        if depth == 0 {
            return;
        }
        for m in 0..3 {
            sequence.push(m);
            recurse(sequence, depth - 1);
            sequence.pop();
        }
    }
    recurse(&mut sequence, 6);
}
