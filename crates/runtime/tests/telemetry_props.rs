//! Property suite for the telemetry tentpole: the metrics a runtime
//! reports are *exactly* the events it executed, and observation never
//! changes behaviour.
//!
//! Two families of properties:
//!
//! 1. **Counters match ground truth.** Randomized op scripts
//!    (spawn/deliver/deliver-all/reset/release) run against a runtime
//!    while the test maintains its own independent oracle of what each
//!    delivery must do — a table walk of the source [`StateMachine`]
//!    for the flat tiers, a hand-evaluated guard model for the EFSM
//!    tier, and an observability rule for the flattened-HSM tier
//!    (every `session_lifecycle` transition either emits an action or
//!    moves the leaf state, while an absorbed message does neither).
//!    [`Runtime::metrics`] must agree with the oracle to the
//!    exact count on every field, on every tier, including the sharded
//!    pool's merge.
//!
//! 2. **Observation is behaviour-free.** The same script on the same
//!    engine with and without a flight recorder (attached, detached and
//!    re-attached mid-run) yields bit-identical actions, states,
//!    batch-transition counts, snapshots and counters.

use proptest::prelude::*;
use stategen_commit::{CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::efsm::{CmpOp, Efsm, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{generate, StateMachine, StateMachineBuilder, StateRole};
use stategen_models::session_lifecycle;
use stategen_runtime::{Engine, MessageId, MetricsSnapshot, Runtime, SessionId, Spec};

/// Keep scripts from growing the pool without bound.
const MAX_LIVE: usize = 10;

/// One scripted pool operation. Session/message fields are free-range
/// selectors reduced modulo the live set / alphabet at apply time, so
/// every generated script is applicable to every machine.
#[derive(Debug, Clone, Copy)]
enum Op {
    Spawn,
    Deliver(usize, usize),
    DeliverAll(usize),
    Reset(usize),
    Release(usize),
}

fn script(messages: usize, with_batches: bool) -> impl Strategy<Value = Vec<Op>> {
    // Deliver twice for weight; the vendored prop_oneof! is uniform.
    let deliver = || (0..256usize, 0..messages).prop_map(|(s, m)| Op::Deliver(s, m));
    let op = if with_batches {
        prop_oneof![
            Just(Op::Spawn),
            deliver(),
            deliver(),
            (0..messages).prop_map(Op::DeliverAll),
            (0..256usize).prop_map(Op::Reset),
            (0..256usize).prop_map(Op::Release),
        ]
        .boxed()
    } else {
        prop_oneof![
            Just(Op::Spawn),
            deliver(),
            deliver(),
            (0..256usize).prop_map(Op::Reset),
            (0..256usize).prop_map(Op::Release),
        ]
        .boxed()
    };
    prop::collection::vec(op, 0..60)
}

/// The test's own tally of every countable event it caused.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct GroundTruth {
    deliveries: u64,
    transitions: u64,
    spawns: u64,
    releases_finished: u64,
    releases_aborted: u64,
    resets: u64,
}

impl GroundTruth {
    /// Asserts that a runtime's snapshot is exactly this tally (and
    /// that everything the script never touched stayed at zero).
    fn assert_matches(&self, m: &MetricsSnapshot, tier: &str) {
        assert_eq!(m.deliveries, self.deliveries, "{tier}: deliveries");
        assert_eq!(m.transitions, self.transitions, "{tier}: transitions");
        assert_eq!(
            m.guard_fall_throughs,
            self.deliveries - self.transitions,
            "{tier}: fall-throughs are exactly the absorbed deliveries"
        );
        assert_eq!(m.spawns, self.spawns, "{tier}: spawns");
        assert_eq!(
            m.releases_finished, self.releases_finished,
            "{tier}: finished reclaims"
        );
        assert_eq!(
            m.releases_aborted, self.releases_aborted,
            "{tier}: aborted reclaims"
        );
        assert_eq!(m.resets, self.resets, "{tier}: resets");
        for (name, value) in [
            ("timeouts_fired", m.timeouts_fired),
            ("timeouts_cancelled", m.timeouts_cancelled),
            ("timer_cascades", m.timer_cascades),
            ("swap_migrated_sessions", m.swap_migrated_sessions),
            ("swaps_drained", m.swaps_drained),
            ("swaps_completed", m.swaps_completed),
            ("swaps_aborted", m.swaps_aborted),
            ("snapshots", m.snapshots),
            ("restores", m.restores),
        ] {
            assert_eq!(value, 0, "{tier}: untouched counter {name} moved");
        }
    }
}

// ---------------------------------------------------------------------
// Flat tiers: table-walk oracle over the source machine.
// ---------------------------------------------------------------------

/// What the source machine says one delivery must do: `Some(target)`
/// when a transition fires (self-loops included), `None` when the
/// message is absorbed (no edge, or the session sits in a final state).
fn flat_step(machine: &StateMachine, state: u32, message: MessageId) -> Option<u32> {
    let st = &machine.states()[state as usize];
    if st.role() == StateRole::Finish {
        return None;
    }
    st.transition(message).map(|t| t.target().index() as u32)
}

/// Runs one script against any number of runtimes of the same flat
/// machine (different tiers / shard counts), checking observable state
/// names against the oracle as it goes, and returns the tally.
fn drive_flat(machine: &StateMachine, runtimes: &mut [Runtime], ops: &[Op]) -> GroundTruth {
    let ids: Vec<MessageId> = machine
        .messages()
        .iter()
        .map(|m| machine.message_id(m).expect("own alphabet"))
        .collect();
    let mut gt = GroundTruth::default();
    // Per-runtime handles (sharded runtimes mint different SessionIds),
    // one shared oracle state list, index-aligned.
    let mut live: Vec<Vec<SessionId>> = runtimes.iter().map(|_| Vec::new()).collect();
    let mut oracle: Vec<u32> = Vec::new();
    for &op in ops {
        match op {
            Op::Spawn => {
                if oracle.len() >= MAX_LIVE {
                    continue;
                }
                for (rt, handles) in runtimes.iter_mut().zip(&mut live) {
                    handles.push(rt.spawn());
                }
                oracle.push(machine.start().index() as u32);
                gt.spawns += 1;
            }
            Op::Deliver(s, m) => {
                if oracle.is_empty() {
                    continue;
                }
                let idx = s % oracle.len();
                let message = ids[m % ids.len()];
                gt.deliveries += 1;
                if let Some(target) = flat_step(machine, oracle[idx], message) {
                    gt.transitions += 1;
                    oracle[idx] = target;
                }
                let expected = machine.states()[oracle[idx] as usize].name();
                for (rt, handles) in runtimes.iter_mut().zip(&live) {
                    rt.deliver(handles[idx], message);
                    assert_eq!(rt.state_name(handles[idx]), expected);
                }
            }
            Op::DeliverAll(m) => {
                let message = ids[m % ids.len()];
                gt.deliveries += oracle.len() as u64;
                let mut batch_transitions = 0u64;
                for state in &mut oracle {
                    if let Some(target) = flat_step(machine, *state, message) {
                        batch_transitions += 1;
                        *state = target;
                    }
                }
                gt.transitions += batch_transitions;
                for rt in runtimes.iter_mut() {
                    assert_eq!(
                        rt.deliver_all(message),
                        batch_transitions,
                        "deliver_all reports the oracle's transition count"
                    );
                }
            }
            Op::Reset(s) => {
                if oracle.is_empty() {
                    continue;
                }
                let idx = s % oracle.len();
                for (rt, handles) in runtimes.iter_mut().zip(&live) {
                    rt.reset(handles[idx]);
                }
                oracle[idx] = machine.start().index() as u32;
                gt.resets += 1;
            }
            Op::Release(s) => {
                if oracle.is_empty() {
                    continue;
                }
                let idx = s % oracle.len();
                let finished = machine.states()[oracle[idx] as usize].role() == StateRole::Finish;
                if finished {
                    gt.releases_finished += 1;
                } else {
                    gt.releases_aborted += 1;
                }
                for (rt, handles) in runtimes.iter_mut().zip(&mut live) {
                    let handle = handles.swap_remove(idx);
                    assert_eq!(rt.is_finished(handle), finished);
                    rt.release(handle);
                }
                oracle.swap_remove(idx);
            }
        }
    }
    gt
}

/// Strategy: an arbitrary deterministic machine — 2..6 states, 1..4
/// messages, any transition table over them (self-loops allowed; they
/// are exactly the case a naive state-diff oracle would miscount), the
/// last state optionally final (and then edge-free: final states absorb
/// on every tier).
fn machine_strategy() -> impl Strategy<Value = StateMachine> {
    (
        2usize..=6,
        1usize..=4,
        // Raw edge selectors, reduced modulo `states + 1` in the map
        // below (the extra residue means "no edge"); sized for the
        // largest machine, extras ignored.
        prop::collection::vec(0usize..1024, 24),
        any::<bool>(),
        0usize..1024,
    )
        .prop_map(|(states, messages, raw_table, with_final, raw_start)| {
            let start = raw_start % states;
            let table: Vec<Option<usize>> = raw_table
                .into_iter()
                .take(states * messages)
                .map(|e| {
                    let t = e % (states + 1);
                    (t < states).then_some(t)
                })
                .collect();
            let mut b = StateMachineBuilder::new("prop", (0..messages).map(|m| format!("m{m}")));
            let ids: Vec<_> = (0..states)
                .map(|s| {
                    if with_final && s == states - 1 {
                        b.add_state_full(format!("s{s}"), None, StateRole::Finish, Vec::new())
                    } else {
                        b.add_state(format!("s{s}"))
                    }
                })
                .collect();
            for (i, target) in table.iter().enumerate() {
                let (from, msg) = (i / messages, i % messages);
                if with_final && from == states - 1 {
                    continue; // final states have no outgoing edges
                }
                if let Some(to) = target {
                    let actions = if msg % 2 == 0 {
                        vec![stategen_core::Action::send("a")]
                    } else {
                        vec![]
                    };
                    b.add_transition(ids[from], &format!("m{msg}"), ids[*to], actions);
                }
            }
            b.build(ids[start])
        })
}

fn commit_machine() -> StateMachine {
    generate(&CommitModel::new(CommitConfig::new(4).unwrap()))
        .unwrap()
        .machine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interpreted and compiled tiers of arbitrary machines: counters
    /// equal the table-walk oracle exactly.
    #[test]
    fn counters_match_ground_truth_on_random_machines(
        machine in machine_strategy(),
        ops in script(4, true),
    ) {
        let mut runtimes = [
            Engine::interpret(Spec::machine(machine.clone())).unwrap().runtime(),
            Engine::compile(Spec::machine(machine.clone())).unwrap().runtime(),
        ];
        let gt = drive_flat(&machine, &mut runtimes, &ops);
        gt.assert_matches(&runtimes[0].metrics(), "interpreted");
        gt.assert_matches(&runtimes[1].metrics(), "compiled");
    }

    /// The paper's generated commit machine, single-shard and 4-way
    /// sharded: the sharded pool's per-shard counters merge to the same
    /// exact tally.
    #[test]
    fn counters_match_ground_truth_on_commit_machine(ops in script(5, true)) {
        let machine = commit_machine();
        let mut runtimes = [
            Engine::compile(Spec::machine(machine.clone())).unwrap().runtime(),
            Runtime::new(Engine::compile(Spec::machine(machine.clone())).unwrap()).sharded(4),
        ];
        let gt = drive_flat(&machine, &mut runtimes, &ops);
        gt.assert_matches(&runtimes[0].metrics(), "compiled");
        gt.assert_matches(&runtimes[1].metrics(), "sharded-4");
    }
}

// ---------------------------------------------------------------------
// EFSM tier: hand-evaluated guard oracle, exact fall-through counts.
// ---------------------------------------------------------------------

/// A 3-state guarded pump: `step` alternates low/high while a level
/// counter stays under `cap` (guard fall-through once full), `toggle`
/// always alternates, `stop` finishes from `low` only. Small enough to
/// evaluate by hand, guarded enough that `guard_fall_throughs` is a
/// real count, not a constant.
fn pump_efsm() -> Efsm {
    let mut b = EfsmBuilder::new("pump", ["step", "toggle", "stop"]);
    let cap = b.add_param("cap");
    let level = b.add_var("level");
    let low = b.add_state("low");
    let high = b.add_state("high");
    let done = b.add_state("done");
    let below_cap = || {
        Guard::when(
            LinExpr::var(level).plus_const(1),
            CmpOp::Le,
            LinExpr::param(cap),
        )
    };
    b.add_transition(
        low,
        "step",
        below_cap(),
        vec![Update::Inc(level)],
        vec![stategen_core::Action::send("up")],
        high,
    );
    b.add_transition(
        high,
        "step",
        below_cap(),
        vec![Update::Inc(level)],
        vec![],
        low,
    );
    b.add_transition(low, "toggle", Guard::always(), vec![], vec![], high);
    b.add_transition(high, "toggle", Guard::always(), vec![], vec![], low);
    b.add_transition(
        low,
        "stop",
        Guard::always(),
        vec![],
        vec![stategen_core::Action::send("off")],
        done,
    );
    b.build(low, Some(done))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pump EFSM, unfolded onto the dense table, against a
    /// hand-evaluated model: state, variable value, transition count
    /// and guard-fall-through count all exact.
    #[test]
    fn counters_match_ground_truth_on_guarded_efsm(
        cap in 0i64..=5,
        ops in script(3, true),
    ) {
        let engine = Engine::compile(Spec::efsm(pump_efsm(), vec![cap])).unwrap();
        let mut rt = engine.runtime();
        let ids: Vec<MessageId> = ["step", "toggle", "stop"]
            .iter()
            .map(|m| rt.message_id(m).unwrap())
            .collect();
        let names = ["low", "high", "done"];

        let mut gt = GroundTruth::default();
        let mut live: Vec<SessionId> = Vec::new();
        // Oracle: (state index, level) per session.
        let mut oracle: Vec<(usize, i64)> = Vec::new();
        // One delivery in the model: Some(new state) iff a guard-open
        // transition exists, mutating `level` by its update.
        let step = |state: &mut (usize, i64), m: usize, cap: i64| -> bool {
            match (state.0, m) {
                (2, _) => false, // done: absorbing final state
                (s @ (0 | 1), 0) if state.1 < cap => {
                    state.1 += 1;
                    state.0 = 1 - s;
                    true
                }
                (_, 0) => false, // pump full: guard fall-through
                (s @ (0 | 1), 1) => {
                    state.0 = 1 - s;
                    true
                }
                (0, 2) => {
                    state.0 = 2;
                    true
                }
                _ => false, // stop outside `low`
            }
        };

        for op in ops {
            match op {
                Op::Spawn => {
                    if live.len() >= MAX_LIVE {
                        continue;
                    }
                    live.push(rt.spawn());
                    oracle.push((0, 0));
                    gt.spawns += 1;
                }
                Op::Deliver(s, m) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = s % live.len();
                    gt.deliveries += 1;
                    if step(&mut oracle[idx], m, cap) {
                        gt.transitions += 1;
                    }
                    rt.deliver(live[idx], ids[m]);
                    prop_assert_eq!(rt.state_name(live[idx]), names[oracle[idx].0]);
                    prop_assert_eq!(rt.vars(live[idx]), &[oracle[idx].1]);
                }
                Op::DeliverAll(m) => {
                    gt.deliveries += live.len() as u64;
                    let mut batch = 0u64;
                    for state in &mut oracle {
                        batch += u64::from(step(state, m, cap));
                    }
                    gt.transitions += batch;
                    prop_assert_eq!(rt.deliver_all(ids[m]), batch);
                }
                Op::Reset(s) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = s % live.len();
                    rt.reset(live[idx]);
                    oracle[idx] = (0, 0);
                    gt.resets += 1;
                }
                Op::Release(s) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = s % live.len();
                    let finished = oracle[idx].0 == 2;
                    prop_assert_eq!(rt.is_finished(live[idx]), finished);
                    if finished {
                        gt.releases_finished += 1;
                    } else {
                        gt.releases_aborted += 1;
                    }
                    rt.release(live.swap_remove(idx));
                    oracle.swap_remove(idx);
                }
            }
        }
        gt.assert_matches(&rt.metrics(), "unfolded-efsm");
    }

    /// The flattened-HSM tier on the session-lifecycle statechart.
    /// Every transition of that machine either emits actions (entry and
    /// exit handlers, explicit sends — including the `ping` internal
    /// transition a pure state-diff oracle would miss) or moves the
    /// leaf state (the bare `close` edges), and an absorbed message
    /// does neither — so the two observations combined are an exact
    /// transition oracle.
    #[test]
    fn counters_match_ground_truth_on_flattened_hsm(ops in script(11, false)) {
        let hsm = session_lifecycle();
        let alphabet: Vec<String> = hsm.messages().to_vec();
        let mut rt = Engine::compile(Spec::hierarchical(hsm)).unwrap().runtime();
        let ids: Vec<MessageId> = alphabet
            .iter()
            .map(|m| rt.message_id(m).unwrap())
            .collect();

        let mut gt = GroundTruth::default();
        let mut live: Vec<SessionId> = Vec::new();
        for op in ops {
            match op {
                Op::Spawn => {
                    if live.len() >= MAX_LIVE {
                        continue;
                    }
                    live.push(rt.spawn());
                    gt.spawns += 1;
                }
                Op::Deliver(s, m) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = s % live.len();
                    gt.deliveries += 1;
                    let before = rt.state_name(live[idx]).to_string();
                    let emitted = !rt.deliver(live[idx], ids[m]).is_empty();
                    // Every lifecycle transition either emits an action
                    // or moves the leaf state (the bare `close` edges);
                    // an absorbed message does neither.
                    let transitioned = emitted || rt.state_name(live[idx]) != before;
                    gt.transitions += u64::from(transitioned);
                }
                Op::DeliverAll(_) => unreachable!("script(_, false) emits no batches"),
                Op::Reset(s) => {
                    if live.is_empty() {
                        continue;
                    }
                    rt.reset(live[s % live.len()]);
                    gt.resets += 1;
                }
                Op::Release(s) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = s % live.len();
                    if rt.state_name(live[idx]) == "Closed" {
                        gt.releases_finished += 1;
                    } else {
                        gt.releases_aborted += 1;
                    }
                    rt.release(live.swap_remove(idx));
                }
            }
        }
        gt.assert_matches(&rt.metrics(), "flattened-hsm");
    }

    /// Attaching, detaching and re-attaching the flight recorder never
    /// changes anything observable: actions, state names, batch
    /// transition counts, finished flags, counters, and the final
    /// snapshot are bit-identical to the unobserved run.
    #[test]
    fn observation_never_changes_behaviour(
        ops in script(5, true),
        toggle_at in 0usize..60,
    ) {
        let machine = commit_machine();
        let engine = || Engine::compile(Spec::machine(machine.clone())).unwrap();
        let mut observed = engine().runtime();
        let mut plain = engine().runtime();
        observed.attach_recorder(16);

        let ids: Vec<MessageId> = MESSAGE_NAMES
            .iter()
            .map(|m| plain.message_id(m).unwrap())
            .collect();
        let mut live: Vec<SessionId> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if i == toggle_at {
                // Mid-run detach + re-attach: the rings reset, the
                // behaviour must not.
                observed.detach_recorder();
                prop_assert!(!observed.recorder_attached());
                observed.attach_recorder(16);
            }
            match *op {
                Op::Spawn => {
                    if live.len() >= MAX_LIVE {
                        continue;
                    }
                    let a = observed.spawn();
                    let b = plain.spawn();
                    prop_assert_eq!(a, b, "same spawn order mints the same handle");
                    live.push(a);
                }
                Op::Deliver(s, m) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = s % live.len();
                    let acts: Vec<String> = observed
                        .deliver(live[idx], ids[m])
                        .iter()
                        .map(|a| a.message().to_string())
                        .collect();
                    let expected: Vec<String> = plain
                        .deliver(live[idx], ids[m])
                        .iter()
                        .map(|a| a.message().to_string())
                        .collect();
                    prop_assert_eq!(acts, expected);
                    prop_assert_eq!(
                        observed.state(live[idx]),
                        plain.state(live[idx])
                    );
                    prop_assert_eq!(
                        observed.is_finished(live[idx]),
                        plain.is_finished(live[idx])
                    );
                }
                Op::DeliverAll(m) => {
                    prop_assert_eq!(observed.deliver_all(ids[m]), plain.deliver_all(ids[m]));
                }
                Op::Reset(s) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = s % live.len();
                    observed.reset(live[idx]);
                    plain.reset(live[idx]);
                }
                Op::Release(s) => {
                    if live.is_empty() {
                        continue;
                    }
                    let handle = live.swap_remove(s % live.len());
                    observed.release(handle);
                    plain.release(handle);
                }
            }
        }
        prop_assert_eq!(observed.steps(), plain.steps());
        prop_assert_eq!(observed.metrics(), plain.metrics());
        prop_assert_eq!(observed.snapshot_all(), plain.snapshot_all());
    }
}
