//! Facade-level kernel-equivalence properties: `Runtime::deliver_all`
//! (routed through the dense kernel on the compiled tier) is
//! bit-identical to per-session scalar delivery and to the
//! telemetry-observed path — states, actions, finished flags, metrics
//! and snapshots — under spawn/release/reset churn between batches
//! (released slots exercise the kernel's retired-slot skip), on the
//! compiled tier — generated, unfolded and reconstructed
//! build-time-generated machines — and through a sharded runtime's
//! fork-join on every tier. The
//! last property is differential across *lowerings*: random guarded
//! EFSMs, unfolded onto the dense table or left on the interpreter as
//! their bound configuration space decides, against a bare store over
//! the interpreted engine and an interpreted runtime, through scripts
//! that also snapshot, restore and hot-swap between them.

use proptest::prelude::*;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{generate, Action, Efsm, FlatIr, SessionStore, StepEngine};
use stategen_generated::GeneratedCommitR4;
use stategen_runtime::{Engine, MessageId, Runtime, SessionId, Spec, SwapOutcome, Tier};

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

    /// Compiled tier: flat, 4-way sharded, recorder-observed, and
    /// 4-way sharded *and* observed runtimes (the last with its recorders
    /// running on the fork-join's threads; all but the first also route
    /// batches through the kernel / the replayed-observation path) all
    /// stay bit-identical to per-session scalar delivery through churny
    /// scripts.
    #[test]
    fn compiled_batches_match_scalar_delivery(ops in script(5)) {
        let machine = generate(&CommitModel::new(CommitConfig::new(4).unwrap()))
            .unwrap()
            .machine;
        let engine = || Engine::compile(Spec::machine(machine.clone())).unwrap();
        let mut observed = engine().runtime();
        observed.attach_recorder(16);
        let mut sharded_observed = Runtime::new(engine()).sharded(4);
        sharded_observed.attach_recorder(16);
        let mut batched = [
            engine().runtime(),
            Runtime::new(engine()).sharded(4),
            observed,
            sharded_observed,
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

    /// The commit EFSM, unfolded at r = 4: batches behind the facade
    /// match scalar delivery on states *and registers* (snapshots carry
    /// the source machine's full register file).
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

    /// A sharded runtime's fork-join is a pure layout change on every
    /// lowering that serves the commit protocol — dense (the generated
    /// FSM), unfolded (the EFSM bound at r = 4) and interpreted (bound at
    /// r = 64, over the unfolding budget): for any shard count, uneven and empty
    /// shards (sessions diverged and released before the drive) and any
    /// deliver/reset sequence, per-batch transition counts and
    /// finished/step totals equal a flat runtime's, and afterwards every
    /// session's state and registers do.
    #[test]
    fn sharded_runtime_matches_flat(
        tier in 0usize..3,
        shards in 1usize..9,
        prelude in prop::collection::vec((0usize..256, 0usize..6), 0..40),
        commands in prop::collection::vec(0usize..6, 0..40),
        sessions in 1usize..200,
    ) {
        let r = if tier == 2 { 64 } else { 4 };
        let config = CommitConfig::new(r).unwrap();
        let engine = if tier == 0 {
            let machine = generate(&CommitModel::new(config)).unwrap().machine;
            Engine::compile(Spec::machine(machine)).unwrap()
        } else {
            Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap()
        };
        let expected = [Tier::Compiled, Tier::Compiled, Tier::Interpreted][tier];
        prop_assert_eq!(engine.tier(), expected);
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
        for (step, &m) in commands.iter().enumerate() {
            if m < ids.len() {
                let t_flat = flat.deliver_all(ids[m]);
                prop_assert_eq!(sharded.deliver_all(ids[m]), t_flat, "step {}", step);
            } else {
                flat.reset_all();
                sharded.reset_all();
            }
            prop_assert_eq!(sharded.finished_count(), flat.finished_count(), "step {}", step);
            prop_assert_eq!(sharded.steps(), flat.steps(), "step {}", step);
        }
        prop_assert_eq!(sharded.len(), flat.len());
        for (idx, &(f, s)) in handles.iter().enumerate() {
            let (a, b) = (flat.snapshot(f), sharded.snapshot(s));
            prop_assert_eq!((a.state, a.vars), (b.state, b.vars), "session {}", idx);
            prop_assert_eq!(flat.is_finished(f), sharded.is_finished(s), "session {}", idx);
        }
    }
}

// ---------------------------------------------------------------------
// The lowerings of one random guarded machine, indistinguishable.
// ---------------------------------------------------------------------

/// The guard sizes `(first, second candidate)` of one `(state,
/// message)` cell, in conditions, as in `stategen-core`'s kernel suite.
const CELL_SHAPES: [(usize, Option<usize>); 11] = [
    (0, None),
    (1, None),
    (2, None),
    (0, Some(1)),
    (0, Some(2)),
    (1, Some(0)),
    (1, Some(1)),
    (1, Some(2)),
    (2, Some(0)),
    (2, Some(1)),
    (2, Some(2)),
];

/// One `(state, message)` cell of a [`RandomEfsm`].
#[derive(Debug, Clone, Copy)]
enum Cell {
    Empty,
    /// One unguarded transition.
    Plain(usize),
    /// Candidates split on `x + 1 < t`, carrying `CELL_SHAPES[shape]`
    /// conditions: below the threshold `x` is incremented (by a `Set`
    /// if `spill`); at it, `at` picks the update — mostly `x := 0` or
    /// none, which keep the counter bounded, sometimes `Inc x` /
    /// `Inc y`, which let it run away around a cycle.
    Split {
        shape: usize,
        below: usize,
        to: usize,
        spill: bool,
        at: u8,
    },
}

/// A random guarded EFSM over `a`/`b`/`c`, one parameter and two
/// variables. The finish state, if any, keeps its (ignored) outgoing
/// edges and may be the start state. With `runaway` the start state
/// counts `y` up on `c` without bound, so that machine's configuration
/// space is infinite whatever the rest of it does.
#[derive(Debug, Clone)]
struct RandomEfsm {
    states: Vec<[Cell; 3]>,
    start: usize,
    finish: Option<usize>,
    runaway: bool,
}

fn random_efsm() -> impl Strategy<Value = RandomEfsm> {
    let cell = (
        0u8..8,
        0..CELL_SHAPES.len(),
        any::<usize>(),
        any::<usize>(),
        0u8..16,
    );
    let state = (cell.clone(), cell.clone(), cell);
    (
        2usize..7,
        prop::collection::vec(state, 7),
        any::<usize>(),
        0u8..8,
        0u8..4,
    )
        .prop_map(|(n, raw, pick, finish, runaway)| {
            let cell = |(kind, shape, t0, t1, flags): (u8, usize, usize, usize, u8)| match kind {
                0 => Cell::Empty,
                1..=2 => Cell::Plain(t0 % n),
                _ => Cell::Split {
                    shape,
                    below: t0 % n,
                    to: t1 % n,
                    spill: flags & 1 != 0,
                    at: flags >> 1,
                },
            };
            let states = raw.into_iter().take(n);
            let start = pick % n;
            RandomEfsm {
                states: states
                    .map(|(a, b, c)| [cell(a), cell(b), cell(c)])
                    .collect(),
                start,
                finish: match finish {
                    0..=1 => None,
                    2 => Some(start),
                    _ => Some((start + 1 + pick / 7 % (n - 1)) % n),
                },
                runaway: runaway == 0,
            }
        })
}

impl RandomEfsm {
    fn build(&self) -> Efsm {
        let mut b = EfsmBuilder::new("random-efsm", MESSAGES);
        let t = b.add_param("t");
        let (x, y) = (b.add_var("x"), b.add_var("y"));
        let ids: Vec<_> = (0..self.states.len())
            .map(|i| b.add_state(format!("s{i}")))
            .collect();
        let guard = |checks: usize, op: CmpOp| {
            let threshold = Guard::when(LinExpr::var(x).plus_const(1), op, LinExpr::param(t));
            match checks {
                0 => Guard::always(),
                1 => threshold,
                _ => threshold.and(LinExpr::var(x), CmpOp::Ge, LinExpr::constant(0)),
            }
        };
        for (i, cells) in self.states.iter().enumerate() {
            for (m, &cell) in cells.iter().enumerate() {
                let message = MESSAGES[m];
                if self.runaway && i == self.start && m == 2 {
                    let count = vec![Update::Inc(y)];
                    b.add_transition(ids[i], message, Guard::always(), count, vec![], ids[i]);
                    continue;
                }
                match cell {
                    Cell::Empty => {}
                    Cell::Plain(to) => {
                        let says = vec![Action::send(format!("p{to}"))];
                        b.add_transition(ids[i], message, Guard::always(), vec![], says, ids[to]);
                    }
                    Cell::Split {
                        shape,
                        below,
                        to,
                        spill,
                        at,
                    } => {
                        let (first, second) = CELL_SHAPES[shape];
                        let bump = match (first, spill) {
                            // Nothing guards this count: keep half of
                            // them from running away.
                            (0, true) => Update::Set(x, LinExpr::constant(1)),
                            (_, true) => Update::Set(x, LinExpr::var(x).plus_const(1)),
                            (_, false) => Update::Inc(x),
                        };
                        let low = guard(first, CmpOp::Lt);
                        b.add_transition(ids[i], message, low, vec![bump], vec![], ids[below]);
                        let Some(second) = second else { continue };
                        let updates = match at {
                            0..=3 => vec![Update::Set(x, LinExpr::constant(0))],
                            4 => vec![Update::Inc(x)],
                            5 => vec![Update::Inc(y)],
                            _ => vec![],
                        };
                        let (high, says) = (guard(second, CmpOp::Ge), vec![Action::send("adv")]);
                        b.add_transition(ids[i], message, high, updates, says, ids[to]);
                    }
                }
            }
        }
        b.build(ids[self.start], self.finish.map(|f| ids[f]))
    }
}

const MESSAGES: [&str; 3] = ["a", "b", "c"];

/// One operation of the differential script.
#[derive(Debug, Clone, Copy)]
enum TierOp {
    Spawn,
    Deliver(usize, usize),
    DeliverAll(usize),
    Reset(usize),
    /// Release now; a later spawn recycles the slot.
    Release(usize),
    /// Each runtime restores the *other's* snapshot under its own engine.
    Restore,
    /// The two runtimes trade engines by in-place migration.
    Swap,
}

fn tier_script() -> impl Strategy<Value = Vec<TierOp>> {
    prop::collection::vec((0u8..16, any::<usize>(), 0usize..3), 0..64).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, pick, m)| match kind {
                0..=2 => TierOp::Spawn,
                3..=6 => TierOp::Deliver(pick, m),
                7..=10 => TierOp::DeliverAll(m),
                11 => TierOp::Reset(pick),
                12..=13 => TierOp::Release(pick),
                14 => TierOp::Restore,
                _ => TierOp::Swap,
            })
            .collect()
    })
}

/// The flight-recorder rings of a runtime, without the header line
/// that names its engine.
fn rings(rt: &Runtime) -> String {
    let dump = rt.dump_trace();
    dump.split_once('\n')
        .map_or("", |(_, rings)| rings)
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever `Engine::compile` decides for a guarded machine under a
    /// binding — unfold it, or leave it on the interpreter — a runtime
    /// over it, a bare store over the interpreted engine and a runtime
    /// over the interpreter stay indistinguishable
    /// through any script: states, names, registers, finished flags and
    /// counts, transition counts, actions and recorder rings after
    /// every operation, with snapshots and live sessions crossing
    /// between the two runtimes' engines in both directions.
    #[test]
    fn lowerings_are_indistinguishable(
        machine in random_efsm(),
        t in 1i64..5,
        ops in tier_script(),
    ) {
        let efsm = machine.build();
        let spec = Spec::efsm(efsm.clone(), vec![t]);
        let mut engines = [
            Engine::compile(spec.clone()).expect("compiles"),
            Engine::interpret(spec).expect("interprets"),
        ];
        if machine.runaway && machine.finish != Some(machine.start) {
            prop_assert_eq!(engines[0].tier(), Tier::Interpreted, "{:?}", &engines[0]);
        }
        let walk = StepEngine::interpreted(FlatIr::from_efsm(&efsm), &[t]).expect("one parameter");
        let mut runtimes = [engines[0].runtime(), engines[1].runtime()];
        let ids: Vec<MessageId> = MESSAGES.iter().map(|m| engines[0].message_id(m).unwrap()).collect();
        for rt in &mut runtimes {
            rt.attach_recorder(8);
        }
        let mut store = SessionStore::new(walk.clone(), 0);
        // Per live session: its handle in each runtime, its store slot.
        let mut live: Vec<([SessionId; 2], usize)> = Vec::new();
        let mut free_slots: Vec<usize> = Vec::new();
        for (step, &op) in ops.iter().enumerate() {
            match op {
                TierOp::Spawn if live.len() < MAX_LIVE => {
                    let slot = match free_slots.pop() {
                        Some(slot) => {
                            store.reset_session(slot);
                            slot
                        }
                        None => store.spawn(),
                    };
                    live.push((runtimes.each_mut().map(Runtime::spawn), slot));
                }
                TierOp::Deliver(pick, m) if !live.is_empty() => {
                    let (handles, slot) = live[pick % live.len()];
                    let expect = store.deliver(slot, ids[m]).to_vec();
                    for (rt, h) in runtimes.iter_mut().zip(handles) {
                        prop_assert_eq!(rt.deliver(h, ids[m]), &expect[..], "step {}", step);
                    }
                }
                TierOp::DeliverAll(m) => {
                    let expect = store.deliver_all(ids[m]);
                    for rt in &mut runtimes {
                        prop_assert_eq!(rt.deliver_all(ids[m]), expect, "step {}", step);
                    }
                }
                TierOp::Reset(pick) if !live.is_empty() => {
                    let (handles, slot) = live[pick % live.len()];
                    store.reset_session(slot);
                    for (rt, h) in runtimes.iter_mut().zip(handles) {
                        rt.reset(h);
                    }
                }
                TierOp::Release(pick) if !live.is_empty() => {
                    let (handles, slot) = live.swap_remove(pick % live.len());
                    store.retire(slot);
                    free_slots.push(slot);
                    for (rt, h) in runtimes.iter_mut().zip(handles) {
                        rt.release(h);
                    }
                }
                TierOp::Restore => {
                    let snaps = runtimes.each_ref().map(Runtime::snapshot_all);
                    prop_assert_eq!(&snaps[0], &snaps[1], "step {}", step);
                    for (i, rt) in runtimes.iter_mut().enumerate() {
                        *rt = Runtime::restore(&engines[i], &snaps[1 - i]).expect("same machine");
                        rt.attach_recorder(8);
                    }
                    let mut fresh = SessionStore::new(walk.clone(), 0);
                    let (mut states, mut registers) = (Vec::new(), Vec::new());
                    store.states_into(&mut states);
                    store.registers_into(&mut registers);
                    let restored = fresh.restore(&states, &registers, store.steps());
                    prop_assert_eq!(restored, Ok(()));
                    store = fresh;
                }
                TierOp::Swap => {
                    engines.swap(0, 1);
                    for (rt, engine) in runtimes.iter_mut().zip(&engines) {
                        let migrated = SwapOutcome::Migrated { sessions: live.len() };
                        prop_assert_eq!(rt.begin_swap(engine.clone()), Ok(migrated));
                    }
                }
                _ => {}
            }
            for (i, rt) in runtimes.iter().enumerate() {
                prop_assert_eq!(rt.engine().tier(), engines[i].tier());
                prop_assert_eq!(rt.len(), store.live(), "step {}", step);
                prop_assert_eq!(rt.finished_count(), store.finished_count(), "step {}", step);
                prop_assert_eq!(rt.steps(), store.steps(), "step {}", step);
                for &(handles, slot) in &live {
                    let h = handles[i];
                    prop_assert_eq!(rt.state(h), store.state(slot), "step {}", step);
                    prop_assert_eq!(rt.state_name(h), store.state_name(slot), "step {}", step);
                    prop_assert_eq!(rt.vars(h), store.vars(slot), "step {}", step);
                    prop_assert_eq!(rt.is_finished(h), store.is_finished(slot), "step {}", step);
                }
            }
            prop_assert_eq!(rings(&runtimes[0]), rings(&runtimes[1]), "step {}", step);
        }
    }
}
