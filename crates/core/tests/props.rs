//! Property-based tests of the core invariants: state-space encoding,
//! generation pipeline monotonicity, prune/merge idempotence.

use proptest::prelude::*;

use stategen_analysis::{analyze, AnalysisConfig};
use stategen_core::{
    generate, generate_with, merge_equivalent_states, prune_unreachable, CompiledMachine, FlatIr,
    GenerateOptions, Lint, ProtocolEngine, StateComponent, StateSpace,
};
use stategen_runtime::{Runtime, SessionId, Spec};

mod support;

use support::{decide, two_counter, Table};

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

    /// A generated machine's dense table is the machine: decided over
    /// every reachable pair, the table in the machine's own state at
    /// each. (Serving the table is the runtime's operation oracle's
    /// job.)
    #[test]
    fn compiled_execution_matches_interpreter(model in two_counter()) {
        let g = generate(&model).expect("generates");
        let ir = FlatIr::from_machine(&g.machine);
        let compiled = CompiledMachine::compile_ir(&ir).unwrap();
        prop_assert_eq!(compiled.state_count(), g.machine.state_count());
        prop_assert_eq!(compiled.messages(), g.machine.messages());
        for (fsm, table) in decide(ir.instance(vec![]), Table::new(&compiled), &["a", "b"]) {
            prop_assert_eq!(fsm.current_state(), table.state);
        }
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
