//! Kernel-equivalence properties, at the `Runtime` API. `deliver_all`
//! (routed through the dense kernel on the compiled tier) is
//! bit-identical to per-session scalar delivery and to the
//! telemetry-observed path — states, registers, actions, finished
//! flags, metrics, snapshots and the transition stream a recorder
//! keeps — under spawn/release/reset churn between batches (released
//! slots exercise the kernel's retired-slot skip), on random generated
//! machines, on guarded machines whose `(state, message)` cells carry
//! candidates of every shape, on the commit protocol (generated and
//! unfolded), and
//! through a sharded runtime's fork-join for any shard plan, empty and
//! uneven shards included. A second body pins the *eager* finished
//! count: on random machines, on every tier, after every runtime
//! operation it equals a recount from the lowered machine's finish
//! states. The last property is differential across *lowerings*: random
//! guarded EFSMs, unfolded onto the dense table or left on the
//! interpreter as their bound configuration space decides, against the
//! `IrInstance` reference and an interpreted runtime, through scripts
//! that also snapshot, restore and hot-swap between them.

use proptest::prelude::*;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{
    generate, AbstractModel, Action, Efsm, FlatIr, HierarchicalMachine, HsmBuilder, Outcome,
    ProtocolEngine, StateComponent, StateRole, StateSpace, StateVector,
};
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
/// per-session state/finished/snapshot equality throughout. Returns the
/// scalar runtime's live handles (every runtime took the same slots).
fn drive(
    batched: &mut [Runtime],
    scalar: &mut Runtime,
    ids: &[MessageId],
    ops: &[Op],
) -> Result<Vec<SessionId>, TestCaseError> {
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
    Ok(scalar_live)
}

/// Every message id of `rt`'s alphabet, in declaration order.
fn alphabet(rt: &Runtime) -> Vec<MessageId> {
    let messages = rt.engine().messages();
    messages.iter().map(|m| rt.message_id(m).unwrap()).collect()
}

/// The flight-recorder rings of a runtime, without the header line
/// that names its engine.
fn rings(rt: &Runtime) -> String {
    let dump = rt.dump_trace();
    dump.split_once('\n')
        .map_or("", |(_, rings)| rings)
        .to_string()
}

/// [`drive`] over `engine` — a flat, a 3-way sharded and an observed
/// runtime against the scalar one — then one more batch of message
/// `last` with fresh recorders on both sides: the ring the batched
/// runtime keeps (tail probe + kernel) must be the one per-session
/// delivery in slot order records, transition for transition.
fn kernel_matches_scalar(engine: &Engine, ops: &[Op], last: usize) -> Result<(), TestCaseError> {
    let mut observed = engine.runtime();
    observed.attach_recorder(16);
    let mut batched = [engine.runtime(), engine.runtime().sharded(3), observed];
    let mut scalar = engine.runtime();
    let ids = alphabet(&scalar);
    let mut live = drive(&mut batched, &mut scalar, &ids, ops)?;
    prop_assert_eq!(batched[0].snapshot_all(), scalar.snapshot_all());
    prop_assert_eq!(batched[2].snapshot_all(), scalar.snapshot_all());
    let message = ids[last % ids.len()];
    let kernel = &mut batched[0];
    kernel.attach_recorder(8);
    scalar.attach_recorder(8);
    let before = scalar.steps();
    let taken = kernel.deliver_all(message);
    live.sort_by_key(|h| h.slot());
    for h in live {
        scalar.deliver(h, message);
    }
    prop_assert_eq!(taken, scalar.steps() - before);
    prop_assert_eq!(kernel.metrics().transitions, scalar.metrics().transitions);
    prop_assert_eq!(rings(kernel), rings(&scalar));
    prop_assert_eq!(kernel.snapshot_all(), scalar.snapshot_all());
    Ok(())
}

// ---------------------------------------------------------------------
// Machine families.
// ---------------------------------------------------------------------

/// A randomised threshold model (same family as the core props): two
/// counters and a flag; `a` bumps counter 0, `b` bumps counter 1;
/// crossing `threshold` on the sum fires an action; completion when
/// counter 1 reaches its max. Generates machines with many states, so
/// a churned pool spreads over many table rows.
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

/// The dense engine of a generated [`TwoCounter`] family member.
fn dense_engine(model: &TwoCounter) -> Engine {
    Spec::generated(model)
        .and_then(Spec::compile)
        .expect("generates and compiles")
}

/// The guard sizes `(first candidate, second candidate)` one `(state,
/// message)` cell can have — `None` for a one-candidate cell — in
/// conditions. `(0, 0)` is missing because two always-true guards are a
/// duplicate transition.
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

/// A two-phase threshold EFSM: `a` counts `x` up to the parameter in
/// `wait` (two candidates on one cell), then `b` counts `y` in `mid`
/// until `done` — so one family covers guarded cells in every shape and
/// no-candidate cells (`b` in `wait`, `a` in `mid`). `shape` picks how
/// many conditions the two `(wait, a)` candidates carry
/// ([`CELL_SHAPES`]): 0 is the always-true guard, 1 the threshold test,
/// 2 the threshold test and a second condition that holds whenever the
/// first is reached.
fn threshold_efsm(shape: usize) -> Efsm {
    let shape = CELL_SHAPES[shape];
    let mut b = EfsmBuilder::new("kernel-prop", ["a", "b"]);
    let t = b.add_param("t");
    let x = b.add_var("x");
    let y = b.add_var("y");
    let wait = b.add_state("wait");
    let mid = b.add_state("mid");
    let done = b.add_state("done");
    let guard = |checks: usize, op: CmpOp| {
        let threshold = Guard::when(LinExpr::var(x).plus_const(1), op, LinExpr::param(t));
        match checks {
            0 => Guard::always(),
            1 => threshold,
            _ => threshold.and(LinExpr::var(x), CmpOp::Ge, LinExpr::constant(0)),
        }
    };
    b.add_transition(
        wait,
        "a",
        guard(shape.0, CmpOp::Lt),
        vec![Update::Inc(x)],
        vec![],
        wait,
    );
    if let Some(checks) = shape.1 {
        b.add_transition(
            wait,
            "a",
            guard(checks, CmpOp::Ge),
            vec![Update::Inc(x)],
            vec![Action::send("adv")],
            mid,
        );
    }
    for (op, actions, to) in [
        (CmpOp::Lt, vec![], mid),
        (CmpOp::Ge, vec![Action::send("done")], done),
    ] {
        let guard = Guard::when(LinExpr::var(y).plus_const(1), op, LinExpr::param(t));
        b.add_transition(mid, "b", guard, vec![Update::Inc(y)], actions, to);
    }
    b.build(wait, Some(done))
}

// ---------------------------------------------------------------------
// Kernel vs scalar: one body, every machine family.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dense column-gather kernel matches the scalar walk on random
    /// generated machines.
    #[test]
    fn dense_kernel_matches_scalar(model in two_counter(), ops in script(2), last in 0usize..2) {
        kernel_matches_scalar(&dense_engine(&model), &ops, last)?;
    }

    /// A guarded machine's batch path — the gather over its unfolded
    /// configurations or, where an always-true `Inc` leaves it
    /// unbounded, the interpreter's walk; guarded cells of every shape —
    /// matches the scalar walk.
    #[test]
    fn efsm_kernel_matches_scalar(
        t in 1i64..6,
        shape in 0..CELL_SHAPES.len(),
        ops in script(2),
        last in 0usize..2,
    ) {
        let engine = Engine::compile(Spec::efsm(threshold_efsm(shape), vec![t])).expect("compiles");
        kernel_matches_scalar(&engine, &ops, last)?;
    }

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
        let ids = alphabet(&scalar);
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
        let ids = alphabet(&scalar);
        drive(&mut batched, &mut scalar, &ids, &ops)?;
        prop_assert_eq!(batched[0].snapshot_all(), scalar.snapshot_all());
        prop_assert_eq!(batched[2].snapshot_all(), scalar.snapshot_all());
    }

}

// ---------------------------------------------------------------------
// The eager finished count: one body, every tier.
// ---------------------------------------------------------------------

/// One `(state, message)` cell of a [`RandomMachine`].
#[derive(Debug, Clone, Copy)]
enum Edge {
    Empty,
    /// One unguarded transition.
    Plain(usize),
    /// Two candidates split on `x + 1 < t`, both incrementing `x` — as a
    /// `Set` if `spill`.
    /// The unguarded lowering keeps only the first target.
    Split(usize, usize, bool),
}

/// A random flat statechart over messages `a`/`b`, built to hit the
/// count's edge cases: any state may be final — the start state
/// included — and final states keep their (ignored) outgoing edges;
/// cells may be empty; the wide draws exceed 256 states.
#[derive(Debug, Clone)]
struct RandomMachine {
    /// Per state: is it final, and its two cells.
    states: Vec<(bool, [Edge; 2])>,
    start: usize,
}

fn random_machine() -> impl Strategy<Value = RandomMachine> {
    let cell = (0u8..8, any::<usize>(), any::<usize>());
    let state = (0u8..4, cell.clone(), cell);
    (
        prop_oneof![1usize..12, 257usize..300],
        any::<usize>(),
        prop::collection::vec(state, 300),
    )
        .prop_map(|(n, start, raw)| {
            let cell = |(kind, t0, t1): (u8, usize, usize)| match kind {
                0..=1 => Edge::Empty,
                2..=4 => Edge::Plain(t0 % n),
                _ => Edge::Split(t0 % n, t1 % n, kind == 7),
            };
            let states = raw.into_iter().take(n);
            RandomMachine {
                states: states
                    .map(|(f, a, b)| (f == 0, [cell(a), cell(b)]))
                    .collect(),
                start: start % n,
            }
        })
}

impl RandomMachine {
    /// The machine as a statechart of top-level leaves: with `guarded`,
    /// over one variable and one parameter; without, `Split` cells
    /// collapse to their first target.
    fn hsm(&self, guarded: bool) -> HierarchicalMachine {
        let mut b = HsmBuilder::new("random", ["a", "b"]);
        let registers = guarded.then(|| (b.add_param("t"), b.add_var("x")));
        let ids: Vec<_> = (0..self.states.len())
            .map(|i| b.add_state(format!("s{i}")))
            .collect();
        for (i, (finish, cells)) in self.states.iter().enumerate() {
            if *finish {
                b.mark_final(ids[i]);
            }
            for (m, &cell) in cells.iter().enumerate() {
                let message = ["a", "b"][m];
                match cell {
                    Edge::Empty => {}
                    Edge::Plain(to) => b.add_transition(ids[i], message, ids[to], vec![]),
                    Edge::Split(to, at, spill) => {
                        let Some((t, x)) = registers else {
                            b.add_transition(ids[i], message, ids[to], vec![]);
                            continue;
                        };
                        let next = || LinExpr::var(x).plus_const(1);
                        for (op, to) in [(CmpOp::Lt, to), (CmpOp::Ge, at)] {
                            let update = match spill {
                                true => Update::Set(x, next()),
                                false => Update::Inc(x),
                            };
                            let guard = Guard::when(next(), op, LinExpr::param(t));
                            b.add_guarded_transition(
                                ids[i],
                                message,
                                guard,
                                vec![update],
                                ids[to],
                                vec![],
                            );
                        }
                    }
                }
            }
        }
        b.build(ids[self.start])
    }
}

/// One runtime operation of the finished-count property.
#[derive(Debug, Clone, Copy)]
enum CountOp {
    Spawn,
    Deliver(usize, usize),
    Reset(usize),
    Release(usize),
    ResetAll,
    DeliverAll(usize),
    /// Attach a recorder to the batched runtime, or detach it.
    ToggleRecorder,
    /// Both runtimes restore from their own `snapshot_all`.
    Restore,
}

fn count_ops() -> impl Strategy<Value = Vec<CountOp>> {
    prop::collection::vec((0u8..16, any::<usize>()), 0..64).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, pick)| match kind {
                0..=1 => CountOp::Spawn,
                2..=4 => CountOp::Deliver(pick / 2, pick % 2),
                5 => CountOp::Reset(pick),
                6..=7 => CountOp::Release(pick),
                8 => CountOp::ResetAll,
                9..=12 => CountOp::DeliverAll(pick % 2),
                13 => CountOp::ToggleRecorder,
                _ => CountOp::Restore,
            })
            .collect()
    })
}

/// `finished_count`, `is_finished` and `all_finished` against a recount
/// from the finish states of `ir`, the machine the runtime lowered.
fn count_is_exact(
    rt: &Runtime,
    live: &[SessionId],
    ir: &FlatIr,
    step: usize,
) -> Result<(), TestCaseError> {
    let finished = |h: SessionId| ir.states()[rt.state(h) as usize].role() == StateRole::Finish;
    let recount = live.iter().filter(|&&h| finished(h)).count();
    prop_assert_eq!(rt.finished_count(), recount, "step {}", step);
    prop_assert_eq!(rt.all_finished(), recount == rt.len(), "step {}", step);
    for &h in live {
        prop_assert_eq!(rt.is_finished(h), finished(h), "step {} {:?}", step, h);
    }
    Ok(())
}

/// Two runtimes over `engine` take the same operations — `kernel` its
/// batches through `deliver_all`, `scalar` one session at a time — and
/// after **every** operation each one's finished count is exact and
/// the two snapshot identically.
fn finished_count_tracks_states(
    engine: &Engine,
    ir: &FlatIr,
    ops: &[CountOp],
) -> Result<(), TestCaseError> {
    let (mut kernel, mut scalar) = (engine.runtime(), engine.runtime());
    let ids = alphabet(&kernel);
    let mut live: Vec<SessionId> = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        let pick = |pick: usize| (!live.is_empty()).then(|| pick % live.len());
        match op {
            CountOp::Spawn if live.len() < MAX_LIVE => {
                let h = kernel.spawn();
                prop_assert_eq!(h, scalar.spawn());
                live.push(h);
            }
            CountOp::Deliver(p, m) => {
                if let Some(i) = pick(p) {
                    let expect = scalar.deliver(live[i], ids[m]).to_vec();
                    prop_assert_eq!(kernel.deliver(live[i], ids[m]), &expect[..]);
                }
            }
            CountOp::Reset(p) => {
                if let Some(i) = pick(p) {
                    kernel.reset(live[i]);
                    scalar.reset(live[i]);
                }
            }
            CountOp::Release(p) => {
                if let Some(i) = pick(p) {
                    let h = live.swap_remove(i);
                    kernel.release(h);
                    scalar.release(h);
                }
            }
            CountOp::ResetAll => {
                kernel.reset_all();
                scalar.reset_all();
            }
            CountOp::DeliverAll(m) => {
                let before = scalar.steps();
                for &h in &live {
                    scalar.deliver(h, ids[m]);
                }
                let taken = kernel.deliver_all(ids[m]);
                prop_assert_eq!(taken, scalar.steps() - before, "step {}", step);
            }
            CountOp::ToggleRecorder => match kernel.recorder_attached() {
                true => kernel.detach_recorder(),
                false => kernel.attach_recorder(4),
            },
            CountOp::Restore => {
                for rt in [&mut kernel, &mut scalar] {
                    *rt = Runtime::restore(engine, &rt.snapshot_all()).expect("own snapshot");
                }
            }
            CountOp::Spawn => {}
        }
        count_is_exact(&kernel, &live, ir, step)?;
        count_is_exact(&scalar, &live, ir, step)?;
        prop_assert_eq!(
            kernel.snapshot_all(),
            scalar.snapshot_all(),
            "step {}",
            step
        );
        prop_assert_eq!(kernel.steps(), scalar.steps(), "step {}", step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The finished count is exact after every operation, on the dense
    /// (flat and unfolded) and the interpreted engines of one random
    /// machine — the interpreted ones walking the lowered machines
    /// themselves, guarded and not.
    #[test]
    fn finished_count_is_eager_on_every_tier(
        machine in random_machine(),
        t in 1i64..5,
        ops in count_ops(),
    ) {
        for (hsm, params) in [(machine.hsm(false), vec![]), (machine.hsm(true), vec![t])] {
            let ir = hsm.flatten_ir();
            let spec = Spec::hsm_with_params(hsm, params);
            let engines = [Engine::compile(spec.clone()), Engine::interpret(spec)];
            for engine in engines {
                finished_count_tracks_states(&engine.expect("lowers"), &ir, &ops)?;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The fork-join: any shard plan, same answers.
// ---------------------------------------------------------------------

/// Forking a batch over shards is a pure layout change: for any shard
/// count, sessions diverged and released first (so shards are uneven,
/// holed, or — with fewer sessions than shards — empty) and any
/// deliver/reset sequence, per-batch transition counts and
/// finished/step totals equal a flat runtime's, and afterwards every
/// session's state and registers do — whichever thread stepped which
/// shard.
fn sharded_matches_flat(
    engine: &Engine,
    shards: usize,
    sessions: usize,
    prelude: &[(usize, usize)],
    commands: &[usize],
) -> Result<(), TestCaseError> {
    let mut flat = engine.runtime();
    let mut sharded = engine.runtime().sharded(shards);
    let mut handles: Vec<(SessionId, SessionId)> = (0..sessions)
        .map(|_| (flat.spawn(), sharded.spawn()))
        .collect();
    let ids = alphabet(&flat);
    // Single-session deliveries spread sessions over states; a selector
    // past the alphabet releases instead.
    for &(pick, m) in prelude {
        if handles.is_empty() {
            break;
        }
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
        prop_assert_eq!(
            sharded.finished_count(),
            flat.finished_count(),
            "step {}",
            step
        );
        prop_assert_eq!(sharded.steps(), flat.steps(), "step {}", step);
    }
    prop_assert_eq!(sharded.len(), flat.len());
    for (idx, &(f, s)) in handles.iter().enumerate() {
        let (a, b) = (flat.snapshot(f), sharded.snapshot(s));
        prop_assert_eq!((a.state, a.vars), (b.state, b.vars), "session {}", idx);
        prop_assert_eq!(
            flat.is_finished(f),
            sharded.is_finished(s),
            "session {}",
            idx
        );
    }
    Ok(())
}

/// Session counts that leave shards empty as often as full.
fn session_count() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..8, 8usize..96]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fork-join over dense shards of random generated machines.
    #[test]
    fn sharded_dense_pool_matches_flat(
        model in two_counter(),
        shards in 1usize..9,
        sessions in session_count(),
        prelude in prop::collection::vec((0usize..256, 0usize..3), 0..24),
        commands in prop::collection::vec(0usize..3, 0..40),
    ) {
        sharded_matches_flat(&dense_engine(&model), shards, sessions, &prelude, &commands)?;
    }

    /// The same for a guarded machine on the interpreter, where shards
    /// also carry registers, and unfolded onto the dense table, where
    /// they carry configuration ids.
    #[test]
    fn sharded_efsm_pool_matches_flat(
        t in 1i64..6,
        shards in 1usize..9,
        sessions in session_count(),
        prelude in prop::collection::vec((0usize..256, 0usize..3), 0..24),
        commands in prop::collection::vec(0usize..3, 0..40),
    ) {
        let spec = Spec::efsm(threshold_efsm(6), vec![t]);
        let unfolded = Engine::compile(spec.clone()).expect("compiles");
        prop_assert_eq!(unfolded.tier(), Tier::Compiled);
        let interpreted = Engine::interpret(spec).expect("one parameter");
        for engine in [interpreted, unfolded] {
            sharded_matches_flat(&engine, shards, sessions, &prelude, &commands)?;
        }
    }

    /// The fork-join on every lowering that serves the commit protocol —
    /// dense (the generated FSM), unfolded (the EFSM bound at r = 4) and
    /// interpreted (bound at r = 64, over the unfolding budget).
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
        sharded_matches_flat(&engine, shards, sessions, &prelude, &commands)?;
    }
}

// ---------------------------------------------------------------------
// The lowerings of one random guarded machine, indistinguishable.
// ---------------------------------------------------------------------

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever `Engine::compile` decides for a guarded machine under a
    /// binding — unfold it, or leave it on the interpreter — a runtime
    /// over it, one `IrInstance` reference per session and a runtime
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
        let ir = FlatIr::from_efsm(&efsm);
        let mut runtimes = [engines[0].runtime(), engines[1].runtime()];
        let ids: Vec<MessageId> = MESSAGES.iter().map(|m| engines[0].message_id(m).unwrap()).collect();
        for rt in &mut runtimes {
            rt.attach_recorder(8);
        }
        // Per live session: its handle in each runtime, its reference;
        // and the transitions every reference took, in total.
        let mut live = Vec::new();
        let mut steps = 0;
        for (step, &op) in ops.iter().enumerate() {
            match op {
                TierOp::Spawn if live.len() < MAX_LIVE => {
                    live.push((runtimes.each_mut().map(Runtime::spawn), ir.instance(vec![t])));
                }
                TierOp::Deliver(pick, m) if !live.is_empty() => {
                    let at = pick % live.len();
                    let (handles, reference) = &mut live[at];
                    let before = reference.steps();
                    let expect = reference.deliver_id(ids[m]).to_vec();
                    steps += reference.steps() - before;
                    for (rt, &h) in runtimes.iter_mut().zip(handles.iter()) {
                        prop_assert_eq!(rt.deliver(h, ids[m]), &expect[..], "step {}", step);
                    }
                }
                TierOp::DeliverAll(m) => {
                    let before = steps;
                    for (_, reference) in &mut live {
                        let taken = reference.steps();
                        reference.deliver_id(ids[m]);
                        steps += reference.steps() - taken;
                    }
                    for rt in &mut runtimes {
                        prop_assert_eq!(rt.deliver_all(ids[m]), steps - before, "step {}", step);
                    }
                }
                TierOp::Reset(pick) if !live.is_empty() => {
                    let at = pick % live.len();
                    let (handles, reference) = &mut live[at];
                    reference.reset();
                    for (rt, &h) in runtimes.iter_mut().zip(handles.iter()) {
                        rt.reset(h);
                    }
                }
                TierOp::Release(pick) if !live.is_empty() => {
                    let (handles, _) = live.swap_remove(pick % live.len());
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
            let finished = live.iter().filter(|(_, r)| r.is_finished()).count();
            for (i, rt) in runtimes.iter().enumerate() {
                prop_assert_eq!(rt.engine().tier(), engines[i].tier());
                prop_assert_eq!(rt.len(), live.len(), "step {}", step);
                prop_assert_eq!(rt.finished_count(), finished, "step {}", step);
                prop_assert_eq!(rt.steps(), steps, "step {}", step);
                for (handles, reference) in &live {
                    let h = handles[i];
                    prop_assert_eq!(rt.state(h), reference.current_state(), "step {}", step);
                    prop_assert_eq!(rt.state_name(h), reference.state_name_str(), "step {}", step);
                    prop_assert_eq!(rt.vars(h), reference.vars(), "step {}", step);
                    prop_assert_eq!(rt.is_finished(h), reference.is_finished(), "step {}", step);
                }
            }
            prop_assert_eq!(rings(&runtimes[0]), rings(&runtimes[1]), "step {}", step);
        }
    }
}
