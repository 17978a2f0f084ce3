//! Property-based tests of the core invariants: state-space encoding,
//! generation pipeline monotonicity, prune/merge idempotence.

use proptest::prelude::*;

use stategen_analysis::{analyze, AnalysisConfig};
use stategen_core::{
    generate, generate_with, merge_equivalent_states, prune_unreachable, AbstractModel, Action,
    CompiledMachine, FlatIr, GenerateOptions, Lint, Outcome, ProtocolEngine, StateComponent,
    StateSpace, StateVector,
};
use stategen_runtime::{Runtime, SessionId, Spec};

// ---------------------------------------------------------------------
// State-space encoding properties.
// ---------------------------------------------------------------------

/// Strategy: a component list of 1..=6 entries, bools or small ints.
fn component_list() -> impl Strategy<Value = Vec<StateComponent>> {
    prop::collection::vec(
        prop_oneof![
            Just(None::<u32>),        // boolean
            (1u32..6).prop_map(Some), // int with max 1..5
        ],
        1..=6,
    )
    .prop_map(|kinds| {
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| match kind {
                None => StateComponent::boolean(format!("b{i}")),
                Some(max) => StateComponent::int(format!("n{i}"), max),
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(components in component_list()) {
        let space = StateSpace::new(components).expect("valid schema");
        // Exhaustive over the whole space (bounded by 6 components of ≤6 values).
        for (i, v) in space.iter().enumerate() {
            prop_assert_eq!(space.encode(&v), i as u64);
            prop_assert_eq!(space.decode(i as u64), v);
        }
    }

    #[test]
    fn name_parse_roundtrip(components in component_list(), code_seed in any::<u64>()) {
        let space = StateSpace::new(components).expect("valid schema");
        let code = code_seed % space.state_count();
        let v = space.decode(code);
        let name = space.name_of(&v);
        prop_assert_eq!(space.parse_name(&name).expect("parses"), v);
    }

    #[test]
    fn state_count_is_product(components in component_list()) {
        let expected: u64 = components.iter().map(|c| c.cardinality()).product();
        let space = StateSpace::new(components).expect("valid schema");
        prop_assert_eq!(space.state_count(), expected);
        prop_assert_eq!(space.iter().count() as u64, expected);
    }
}

// ---------------------------------------------------------------------
// Pipeline properties over a parameterised model family.
// ---------------------------------------------------------------------

/// A randomised threshold model: two counters and a flag; message `a`
/// bumps counter 0, `b` bumps counter 1; crossing `threshold` on the sum
/// fires an action; completion when counter 1 reaches its max.
#[derive(Debug, Clone)]
struct TwoCounter {
    max0: u32,
    max1: u32,
    threshold: u32,
}

impl AbstractModel for TwoCounter {
    fn machine_name(&self) -> String {
        format!("two-counter@{}x{}t{}", self.max0, self.max1, self.threshold)
    }

    fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
        StateSpace::new(vec![
            StateComponent::int("c0", self.max0),
            StateComponent::int("c1", self.max1),
            StateComponent::boolean("fired"),
        ])
    }

    fn messages(&self) -> Vec<String> {
        vec!["a".into(), "b".into()]
    }

    fn start_state(&self) -> StateVector {
        self.state_space().expect("schema").zero_vector()
    }

    fn transition(&self, state: &StateVector, message: &str) -> Outcome {
        let idx = if message == "a" { 0 } else { 1 };
        let max = if idx == 0 { self.max0 } else { self.max1 };
        if state.get(idx) == max {
            return Outcome::Ignored;
        }
        let mut t = state.clone();
        t.set(idx, state.get(idx) + 1);
        let mut actions = Vec::new();
        if t.get(0) + t.get(1) >= self.threshold && !t.flag(2) {
            t.set_flag(2, true);
            actions.push(Action::send("fire"));
        }
        Outcome::to(t, actions)
    }

    fn is_final_state(&self, state: &StateVector) -> bool {
        state.get(1) == self.max1
    }
}

fn two_counter() -> impl Strategy<Value = TwoCounter> {
    (1u32..6, 1u32..6, 1u32..8).prop_map(|(max0, max1, threshold)| TwoCounter {
        max0,
        max1,
        threshold,
    })
}

proptest! {
    #[test]
    fn pipeline_counts_are_monotone(model in two_counter()) {
        let g = generate(&model).expect("generates");
        prop_assert!(g.report.final_states <= g.report.reachable_states);
        prop_assert!(g.report.reachable_states as u64 <= g.report.initial_states);
        prop_assert_eq!(
            g.report.initial_states,
            u64::from(model.max0 + 1) * u64::from(model.max1 + 1) * 2
        );
    }

    #[test]
    fn generated_machines_validate(model in two_counter()) {
        let g = generate(&model).expect("generates");
        let analysis = analyze(&FlatIr::from_machine(&g.machine), &AnalysisConfig::new());
        prop_assert!(analysis.is_clean(), "{:?}", analysis.diagnostics);
        for lint in [
            Lint::FinalWithOutgoing,
            Lint::UnreachableState,
            Lint::DeadEndState,
            Lint::DuplicateStateName,
        ] {
            prop_assert!(!analysis.has(lint), "{:?}", analysis.diagnostics);
        }
    }

    #[test]
    fn prune_and_merge_idempotent(model in two_counter()) {
        let g = generate(&model).expect("generates");
        let pruned_again = prune_unreachable(&g.machine);
        prop_assert_eq!(pruned_again.state_count(), g.machine.state_count());
        let (merged_again, _) = merge_equivalent_states(&g.machine);
        prop_assert_eq!(merged_again.state_count(), g.machine.state_count());
    }

    #[test]
    fn merge_preserves_reachability(model in two_counter()) {
        // Pruning after merging removes nothing: merging never makes a
        // state unreachable.
        let g = generate(&model).expect("generates");
        let pruned = prune_unreachable(&g.machine);
        prop_assert_eq!(pruned.state_count(), g.machine.state_count());
    }

    #[test]
    fn merge_never_crosses_roles(model in two_counter()) {
        let options = GenerateOptions { merge: false, ..Default::default() };
        let unmerged = generate_with(&model, &options).expect("generates");
        let (merged, _) = merge_equivalent_states(&unmerged.machine);
        let finals_before = unmerged.machine.final_state_ids().len();
        let finals_after = merged.final_state_ids().len();
        prop_assert!(finals_after <= finals_before);
        prop_assert!(finals_before == 0 || finals_after >= 1);
    }

    /// Exploring from the start state builds the machine the paper's step
    /// order builds — enumerate and elaborate the whole product, prune,
    /// then merge — down to names, vectors, annotations, actions and ids.
    #[test]
    fn generation_matches_enumerate_prune_merge(model in two_counter()) {
        let everything = GenerateOptions {
            prune: false,
            merge: false,
        };
        let full = generate_with(&model, &everything).expect("generates").machine;
        let (reference, _) = merge_equivalent_states(&prune_unreachable(&full));
        prop_assert_eq!(generate(&model).expect("generates").machine, reference);
    }
}

// ---------------------------------------------------------------------
// Compiled-tier equivalence: flattening a generated machine into dense
// tables must not change its observable behaviour.
// ---------------------------------------------------------------------

/// Every session's `(state, finished)`, in spawn order.
fn per_session(rt: &Runtime, sessions: &[SessionId]) -> Vec<(u32, bool)> {
    sessions
        .iter()
        .map(|&s| (rt.state(s), rt.is_finished(s)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The reference interpreter, the compiled table stepped by hand,
    /// a session served on the interpreted and on the compiled tier,
    /// and a second session of the compiled runtime must emit identical
    /// actions, visit identically named states and agree on completion
    /// for any random message sequence over any family member.
    #[test]
    fn compiled_execution_matches_interpreter(
        model in two_counter(),
        messages in prop::collection::vec(0usize..2, 0..64),
    ) {
        let g = generate(&model).expect("generates");
        let ir = FlatIr::from_machine(&g.machine);
        let compiled = CompiledMachine::compile_ir(&ir).unwrap();
        prop_assert_eq!(compiled.state_count(), g.machine.state_count());
        prop_assert_eq!(compiled.messages(), g.machine.messages());

        let mut fsm = ir.instance(vec![]);
        let mut table = compiled.start();
        let spec = Spec::machine(g.machine.clone());
        let mut walked = spec.clone().interpret().expect("no parameters").runtime();
        let mut served = spec.compile().expect("compiles").runtime();
        let (w, single, other) = (walked.spawn(), served.spawn(), served.spawn());
        for (step, &mi) in messages.iter().enumerate() {
            let name = if mi == 0 { "a" } else { "b" };
            let mid = compiled.message_id(name).expect("declared message");
            prop_assert_eq!(Some(mid), g.machine.message_id(name));

            let a_fsm = fsm.deliver(name).expect("declared message");
            let a_table = match compiled.step(table, mid) {
                Some((to, actions)) => {
                    table = to;
                    actions.to_vec()
                }
                None => Vec::new(),
            };
            let a_walked = walked.session(w).deliver(name).expect("declared message");
            let a_single = served.deliver(single, mid).to_vec();
            served.deliver(other, mid);
            prop_assert_eq!(&a_fsm, &a_table, "step {}", step);
            prop_assert_eq!(&a_fsm, &a_walked, "step {}", step);
            prop_assert_eq!(&a_fsm, &a_single, "step {}", step);
            prop_assert_eq!(fsm.current_state(), table, "step {}", step);
            prop_assert_eq!(fsm.current_state(), walked.state(w), "step {}", step);
            prop_assert_eq!(fsm.state_name_str(), served.state_name(single), "step {}", step);
            prop_assert_eq!(table, served.state(single), "step {}", step);
            prop_assert_eq!(served.state(single), served.state(other), "step {}", step);
            prop_assert_eq!(fsm.is_finished(), compiled.is_finish_state(table), "step {}", step);
            prop_assert_eq!(fsm.is_finished(), served.is_finished(single), "step {}", step);
        }
        prop_assert_eq!(fsm.steps(), walked.steps());
        prop_assert_eq!(2 * fsm.steps(), served.steps());
    }

    /// Unknown messages error identically through both engines' trait
    /// paths; known-but-inapplicable messages are ignored by both.
    #[test]
    fn compiled_error_behaviour_matches(model in two_counter()) {
        let g = generate(&model).expect("generates");
        let ir = FlatIr::from_machine(&g.machine);
        let mut fsm = ir.instance(vec![]);
        let mut rt = Spec::machine(g.machine).compile().expect("compiles").runtime();
        let id = rt.spawn();
        prop_assert_eq!(fsm.deliver("zap").unwrap_err(), rt.session(id).deliver("zap").unwrap_err());
    }

    /// Sharding a runtime is a pure layout decision: for any machine,
    /// session count, shard count (empty shards included) and message
    /// sequence, the forked batches' per-session states, finished flags,
    /// totals and transition counts are identical to one flat runtime
    /// stepping the same sessions — whatever the thread scheduling.
    #[test]
    fn sharded_pool_is_deterministic(
        model in two_counter(),
        sessions in 1usize..150,
        shards in 1usize..6,
        messages in prop::collection::vec(0usize..2, 0..48),
    ) {
        let g = generate(&model).expect("generates");
        let engine = Spec::machine(g.machine).compile().expect("compiles");
        let mut flat = engine.runtime();
        let mut sharded = engine.runtime().sharded(shards);
        let flat_ids: Vec<_> = (0..sessions).map(|_| flat.spawn()).collect();
        let ids: Vec<_> = (0..sessions).map(|_| sharded.spawn()).collect();
        prop_assert_eq!(sharded.len(), sessions);
        prop_assert_eq!(sharded.shard_count(), shards);
        for (step, &mi) in messages.iter().enumerate() {
            let name = if mi == 0 { "a" } else { "b" };
            let mid = engine.message_id(name).expect("declared message");
            let t_flat = flat.deliver_all(mid);
            let t_sharded = sharded.deliver_all(mid);
            prop_assert_eq!(t_flat, t_sharded, "step {}", step);
            prop_assert_eq!(flat.finished_count(), sharded.finished_count(), "step {}", step);
            prop_assert_eq!(flat.steps(), sharded.steps(), "step {}", step);
            prop_assert_eq!(per_session(&flat, &flat_ids), per_session(&sharded, &ids), "step {}", step);
        }
    }
}
