//! Property suite: the broadcast EFSM served by `stategen-runtime` —
//! compiled (unfolded onto the dense table) and interpreted — is
//! observationally equivalent to the `IrInstance` reference on random
//! message traces, for a range of participant counts, in a session of
//! its own and in a second session of the same runtime fed the same
//! trace.

use std::sync::OnceLock;

use proptest::prelude::*;

use stategen_core::{FlatIr, ProtocolEngine};
use stategen_models::{broadcast_efsm, broadcast_efsm_params, BroadcastModel};
use stategen_runtime::{Engine, Spec};

const MESSAGES: [&str; 3] = ["initial", "echo", "ready"];

/// The broadcast EFSM's lowered IR, walked by the reference.
fn ir() -> &'static FlatIr {
    static IR: OnceLock<FlatIr> = OnceLock::new();
    IR.get_or_init(|| FlatIr::from_efsm(&broadcast_efsm()))
}

fn check(n: u32, messages: &[usize]) {
    let params = broadcast_efsm_params(&BroadcastModel::new(n));
    let mut interp = ir().instance(params.clone());
    let spec = Spec::efsm(broadcast_efsm(), params);
    let mut runtimes = [Engine::compile(spec.clone()), Engine::interpret(spec)]
        .map(|engine| engine.expect("binds four parameters").runtime());
    let sessions = runtimes.each_mut().map(|rt| [rt.spawn(), rt.spawn()]);
    for (step, &mi) in messages.iter().enumerate() {
        let name = MESSAGES[mi % MESSAGES.len()];
        let want = interp.deliver(name).unwrap();
        for (rt, &[single, other]) in runtimes.iter_mut().zip(&sessions) {
            let tier = rt.engine().tier();
            let mid = rt.message_id(name).unwrap();
            assert_eq!(
                rt.deliver(single, mid),
                &want[..],
                "n={n} step {step} ({name}) on {tier}: interp state {}",
                interp.state_name()
            );
            rt.deliver(other, mid);
            assert_eq!(
                rt.vars(single),
                interp.vars(),
                "n={n} step {step} on {tier}"
            );
            assert_eq!(
                rt.state(single),
                interp.current_state(),
                "n={n} step {step}"
            );
            assert_eq!(
                rt.state_name(single),
                interp.state_name(),
                "n={n} step {step}"
            );
            assert_eq!(
                rt.is_finished(single),
                interp.is_finished(),
                "n={n} step {step}"
            );
            let (a, b) = (rt.snapshot(single), rt.snapshot(other));
            assert_eq!(
                (a.state, a.vars),
                (b.state, b.vars),
                "n={n} step {step} on {tier}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Seeded random traces for a spread of participant counts: one
    /// EFSM serves the whole family.
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
