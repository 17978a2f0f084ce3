//! The refinement [`equivalence_classes`] replaced, kept as the
//! reference the differential tests compare against: it recomputes
//! every state's signature each round and finds its class by scanning
//! the classes seen so far (O(states × classes × signature length) per
//! round), and it derives the live transitions of a state on its own.
//! The interned refinement must return the same classes in the same
//! order, on the corpus and on random machines.

use proptest::prelude::*;

use stategen_commit::{commit_efsm, CommitConfig, CommitModel};
use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::interval::guard_unsat;
use stategen_core::{
    generate, AbstractModel, Action, FlatIr, FlatState, FlatTransition, StateRole,
};
use stategen_models::{
    broadcast_efsm, redundant_ring, session_lifecycle, session_lifecycle_guarded, BroadcastModel,
    RoundsModel, TerminationModel,
};

use crate::minimize::{equivalence_classes, minimize, LiveIr};

fn live_transitions(state: &FlatState) -> Vec<&FlatTransition> {
    if state.role() == StateRole::Finish {
        return Vec::new();
    }
    let mut closed: Vec<usize> = Vec::new();
    let mut live = Vec::new();
    for t in state.transitions() {
        if closed.contains(&t.message_index()) || guard_unsat(t.guard()) {
            continue;
        }
        if t.guard().conditions().is_empty() {
            closed.push(t.message_index());
        }
        live.push(t);
    }
    live
}

/// The transitions the dead-transition lint used to find with its own
/// scan: shadowed by an earlier unconditional transition on the same
/// message, and not already the unsatisfiable-guard lint's.
fn shadowed_transitions(state: &FlatState) -> Vec<&FlatTransition> {
    if state.role() == StateRole::Finish {
        return Vec::new();
    }
    let mut closed: Vec<usize> = Vec::new();
    let mut shadowed = Vec::new();
    for t in state.transitions() {
        if closed.contains(&t.message_index()) && !guard_unsat(t.guard()) {
            shadowed.push(t);
        }
        if t.guard().conditions().is_empty() && !closed.contains(&t.message_index()) {
            closed.push(t.message_index());
        }
    }
    shadowed
}

fn live_reachable(ir: &FlatIr) -> Vec<u32> {
    let n = ir.state_count();
    let mut seen = vec![false; n];
    let mut stack = vec![ir.start()];
    seen[ir.start() as usize] = true;
    while let Some(s) = stack.pop() {
        for t in live_transitions(&ir.states()[s as usize]) {
            if !seen[t.target() as usize] {
                seen[t.target() as usize] = true;
                stack.push(t.target());
            }
        }
    }
    (0..n as u32).filter(|&s| seen[s as usize]).collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum SigPart {
    Finish,
    Guarded(usize, String, String, Vec<String>, usize),
    Cell(Vec<String>, usize),
}

fn signature(
    ir: &FlatIr,
    state_id: u32,
    live: &[&FlatTransition],
    class_of: &[usize],
) -> Vec<SigPart> {
    let state = &ir.states()[state_id as usize];
    if state.role() == StateRole::Finish {
        return vec![SigPart::Finish];
    }
    let actions = |t: &FlatTransition| {
        t.actions()
            .iter()
            .map(|a| a.message().to_string())
            .collect::<Vec<_>>()
    };
    if ir.is_guarded() {
        live.iter()
            .map(|t| {
                SigPart::Guarded(
                    t.message_index(),
                    format!("{:?}", t.guard().conditions()),
                    format!("{:?}", t.updates()),
                    actions(t),
                    class_of[t.target() as usize],
                )
            })
            .collect()
    } else {
        (0..ir.messages().len())
            .map(|m| match live.iter().find(|t| t.message_index() == m) {
                Some(t) => SigPart::Cell(actions(t), class_of[t.target() as usize]),
                None => SigPart::Cell(Vec::new(), class_of[state_id as usize]),
            })
            .collect()
    }
}

fn reference_classes(ir: &FlatIr) -> Vec<Vec<u32>> {
    let nodes = live_reachable(ir);
    let live: Vec<Vec<&FlatTransition>> = nodes
        .iter()
        .map(|&s| live_transitions(&ir.states()[s as usize]))
        .collect();

    let mut class_of = vec![0usize; ir.state_count()];
    let mut count = 0usize;
    let mut role_class: Vec<(StateRole, usize)> = Vec::new();
    for &s in &nodes {
        let role = ir.states()[s as usize].role();
        let class = match role_class.iter().find(|(r, _)| *r == role) {
            Some(&(_, c)) => c,
            None => {
                role_class.push((role, count));
                count += 1;
                count - 1
            }
        };
        class_of[s as usize] = class;
    }

    loop {
        let mut keys: Vec<((usize, Vec<SigPart>), usize)> = Vec::new();
        let mut next = vec![0usize; ir.state_count()];
        let mut next_count = 0usize;
        for (i, &s) in nodes.iter().enumerate() {
            let key = (class_of[s as usize], signature(ir, s, &live[i], &class_of));
            let class = match keys.iter().find(|(k, _)| *k == key) {
                Some(&(_, c)) => c,
                None => {
                    keys.push((key, next_count));
                    next_count += 1;
                    next_count - 1
                }
            };
            next[s as usize] = class;
        }
        let stable = next_count == count;
        class_of = next;
        count = next_count;
        if stable {
            break;
        }
    }

    let mut classes: Vec<Vec<u32>> = vec![Vec::new(); count];
    for &s in &nodes {
        classes[class_of[s as usize]].push(s);
    }
    classes
}

/// Everything the differential tests hold a machine to: the shared
/// projection agrees with the per-state scans it replaced (by identity,
/// not just by value), the classes match the reference in content and
/// order, and a second `minimize` returns the quotient unchanged.
fn assert_matches_reference(ir: &FlatIr) {
    let projection = LiveIr::new(ir);
    for (s, state) in ir.states().iter().enumerate() {
        for (got, want) in [
            (projection.of(s as u32), live_transitions(state)),
            (projection.shadowed(s as u32), shadowed_transitions(state)),
        ] {
            assert_eq!(got.len(), want.len(), "`{}` state {s}", ir.name());
            assert!(
                got.iter().zip(&want).all(|(g, w)| std::ptr::eq(*g, *w)),
                "`{}` state {s}: projection picked other transitions",
                ir.name()
            );
        }
    }
    assert_eq!(
        equivalence_classes(ir),
        reference_classes(ir),
        "`{}`: classes differ from the reference",
        ir.name()
    );
    let (once, _) = minimize(ir);
    let (twice, stats) = minimize(&once);
    assert_eq!(stats.merged(), 0, "`{}` re-merged", ir.name());
    assert_eq!(twice, once, "`{}` not idempotent", ir.name());
}

fn generated(model: &dyn AbstractModel) -> FlatIr {
    FlatIr::from_machine(&generate(model).unwrap().machine)
}

#[test]
fn corpus_classes_match_the_reference() {
    for r in [4, 7, 13, 25] {
        assert_matches_reference(&generated(&CommitModel::new(CommitConfig::new(r).unwrap())));
    }
    for ir in [
        FlatIr::from_efsm(&commit_efsm()),
        FlatIr::from_efsm(&broadcast_efsm()),
        generated(&BroadcastModel::new(7)),
        generated(&RoundsModel::new(5, 3)),
        generated(&TerminationModel::new(3)),
        session_lifecycle().flatten_ir(),
        session_lifecycle_guarded().flatten_ir(),
        redundant_ring(8).flatten_ir(),
    ] {
        assert_matches_reference(&ir);
    }
}

const ALPHABET: [&str; 3] = ["m0", "m1", "m2"];

/// Materialises a random IR from one seed word per state. Each state
/// draws up to four transitions over three messages, so a message is
/// often handled twice (the later one shadowed when the earlier is
/// unconditional); roughly one state in eight is a finish state and
/// keeps its outgoing edges; targets are arbitrary, so some states are
/// unreachable; half the states copy an earlier state's word, so
/// behavioural twins are common. When `guarded`, a transition's guard is one of: always, a
/// threshold, its complement, or a contradiction (`x < 0 ∧ x ≥ 0`).
fn random_ir(seeds: &[u64], start: u64, guarded: bool) -> FlatIr {
    // The operand ids are only minted by a builder.
    let mut mint = EfsmBuilder::new("mint", ALPHABET);
    let budget = mint.add_param("budget");
    let x = mint.add_var("x");
    let threshold = |op| Guard::when(LinExpr::var(x).plus_const(1), op, LinExpr::param(budget));

    let n = seeds.len() as u64;
    let states: Vec<FlatState> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let seed = if seed >> 7 & 1 == 1 {
                seeds[(seed >> 56) as usize % (i + 1)]
            } else {
                seed
            };
            let role = if seed % 8 == 0 && n > 1 {
                StateRole::Finish
            } else {
                StateRole::Normal
            };
            let transitions =
                (0..4)
                    .map(|k| seed >> (8 + 12 * k))
                    .filter(|bits| bits & 3 != 0)
                    .map(|bits| {
                        let (guard, updates) =
                            match (guarded, bits >> 4 & 3) {
                                (false, _) | (true, 0) => (Guard::always(), vec![]),
                                (true, 1) => (threshold(CmpOp::Lt), vec![Update::Inc(x)]),
                                (true, 2) => (
                                    threshold(CmpOp::Ge),
                                    vec![Update::Set(x, LinExpr::constant(0))],
                                ),
                                (true, _) => (
                                    Guard::when(LinExpr::var(x), CmpOp::Lt, LinExpr::constant(0))
                                        .and(LinExpr::var(x), CmpOp::Ge, LinExpr::constant(0)),
                                    vec![],
                                ),
                            };
                        let actions = match bits >> 6 & 3 {
                            0 | 1 => vec![],
                            a => vec![Action::send(format!("a{}", a & 1))],
                        };
                        let target = (bits >> 8) % n;
                        FlatTransition::new(
                            (bits >> 2 & 3) as usize % ALPHABET.len(),
                            guard,
                            updates,
                            actions,
                            target as u32,
                        )
                    })
                    .collect();
            FlatState::new(format!("s{}", i % 3), role, transitions)
        })
        .collect();
    let (params, variables) = if guarded {
        (vec!["budget".to_string()], vec!["x".to_string()])
    } else {
        (vec![], vec![])
    };
    FlatIr::from_parts(
        "random",
        ALPHABET.iter().map(|m| m.to_string()).collect(),
        params,
        variables,
        states,
        (start % n) as u32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_classes_match_the_reference(
        seeds in prop::collection::vec(any::<u64>(), 1..=12),
        start in any::<u64>(),
        guarded in any::<bool>(),
    ) {
        assert_matches_reference(&random_ir(&seeds, start, guarded));
    }
}

#[test]
fn random_machines_cover_the_hard_shapes() {
    // The generator above is only a differential test of the shapes it
    // actually produces; count them over a fixed seed stream.
    let (mut shadowed, mut unsat, mut unreachable, mut finish_out, mut merged) = (0, 0, 0, 0, 0);
    let mut word: u64 = 0x5eed_0013;
    let mut next = || {
        word = word
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        word ^ word >> 29
    };
    for case in 0..64 {
        let seeds: Vec<u64> = (0..1 + case % 12).map(|_| next()).collect();
        let ir = random_ir(&seeds, next(), case % 2 == 0);
        let projection = LiveIr::new(&ir);
        let classes = equivalence_classes(&ir);
        let live_states: usize = classes.iter().map(Vec::len).sum();
        unreachable += ir.state_count() - live_states;
        merged += live_states - classes.len();
        for (s, state) in ir.states().iter().enumerate() {
            shadowed += projection.shadowed(s as u32).len();
            unsat += state
                .transitions()
                .iter()
                .filter(|t| guard_unsat(t.guard()))
                .count();
            if state.role() == StateRole::Finish {
                finish_out += state.transitions().len();
            }
        }
    }
    for (what, count) in [
        ("shadowed transitions", shadowed),
        ("unsatisfiable guards", unsat),
        ("unreachable states", unreachable),
        ("finish states with outgoing edges", finish_out),
        ("merged states", merged),
    ] {
        assert!(count >= 8, "only {count} {what} in 64 random machines");
    }
}
