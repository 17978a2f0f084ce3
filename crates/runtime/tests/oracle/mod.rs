//! The operation oracle: one script type, one naive reference, every
//! way the runtime serves a machine.
//!
//! A script is a plain `Vec<Op>`. The reference is one
//! [`IrInstance`] per live session, stepping the very `FlatIr` the
//! engines lowered (`IrInstance` is `FlatIr::step`, which the core
//! suites check), beside a tally of the counters every operation must
//! move. The same script runs on the interpreted and the compiled
//! runtime, on an observed one, on one booted from `Artifact::save`
//! bytes, on a *scalar* one that performs each `deliver_all` as single
//! `deliver`s in slot order, and on a sharded one (1–8 shards, so
//! shards are empty and uneven). The observed, scalar and sharded ones
//! carry recorders the script toggles.
//! After every operation each runtime must match the reference on
//! every session's state, name, registers, finished flag and delivered
//! actions, on `len`, `finished_count`, `all_finished`, `steps`, the
//! `deliver_all` count and the metric counters; runtimes of one layout
//! must snapshot identically, and the batched and scalar flight
//! recorders must hold the same rings. Restores cross engines (each
//! runtime restores a peer's snapshot, written over another machine's
//! dirty one) and swaps migrate live sessions between the two engines
//! of one machine. Timers and drain-and-switch swaps are not in the
//! script: `timer_props.rs` and `artifact_swap_props.rs` cover them.
//!
//! The machine families live here too, among them the one random
//! hierarchical statechart ([`RandomChart`]), beside the
//! [`support::TwoCounter`] family shared with `stategen-core`'s suites. `kernel_props.rs`,
//! `snapshot_props.rs`, `telemetry_props.rs`, `artifact_swap_props.rs`
//! and `hsm_guarded_props.rs` run some of them through [`check`];
//! `hsm_props.rs`, `hsm_guarded_props.rs` and `minimize_props.rs` decide
//! lowerings of them with [`support::decide`] (`stategen-core`'s
//! `tests/lowering`, compiled here by path). Each suite leaves some of this module unused.

#![allow(dead_code)]

#[path = "../../../core/tests/support/mod.rs"]
pub mod support;

use std::sync::OnceLock;

use proptest::prelude::*;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, ParamId, Update, VarId};
use stategen_core::{
    generate, AbstractModel, Action, Efsm, FlatIr, HierarchicalMachine, HsmBuilder, IrInstance,
    ProtocolEngine,
};
use stategen_runtime::{
    Artifact, Engine, MessageId, MetricsSnapshot, Runtime, RuntimeSnapshot, SessionId, Spec,
    SwapOutcome,
};

/// Keep scripts from growing the pool without bound.
pub const MAX_LIVE: usize = 24;

/// Flight-recorder capacity: smaller than most batches, so rings wrap.
pub const RING: usize = 8;

/// One scripted runtime operation. Picks are reduced modulo the live
/// set and messages modulo the alphabet when the operation is applied,
/// so every script applies to every machine.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Spawn,
    Deliver(usize, usize),
    DeliverAll(usize),
    Reset(usize),
    ResetAll,
    /// Release now; a later spawn recycles the slot.
    Release(usize),
    /// Attach the observed runtimes' recorders, or detach them.
    ToggleRecorder,
    /// Each runtime restores, under its own engine, a peer's snapshot
    /// written over a dirty one.
    Restore,
    /// Each runtime migrates in place onto its machine's other engine.
    Swap,
}

pub fn script() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..18, any::<usize>(), any::<usize>()), 0..64).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, pick, m)| match kind {
                0..=2 => Op::Spawn,
                3..=6 => Op::Deliver(pick, m),
                7..=10 => Op::DeliverAll(m),
                11 => Op::Reset(pick),
                12 => Op::ResetAll,
                13..=14 => Op::Release(pick),
                15 => Op::ToggleRecorder,
                16 => Op::Restore,
                _ => Op::Swap,
            })
            .collect()
    })
}

/// A shard count for the sharded runtime: 1–8, so shards are empty and
/// uneven, with counts below 4 drawn more often, since every shard past
/// the first is a thread per batch.
pub fn shards() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..4, 1usize..9]
}

/// A shard count of 1–3, for a family that a `sharded_*` property
/// also runs over [`many_shards`].
pub fn few_shards() -> impl Strategy<Value = usize> {
    1usize..4
}

/// A shard count of 4–8: most shards of a pool of at most
/// [`MAX_LIVE`] sessions then hold a handful of sessions or none.
pub fn many_shards() -> impl Strategy<Value = usize> {
    4usize..9
}

/// A [`script`] with `op` after every third operation, for the
/// properties about that operation.
pub fn dense(op: Op) -> impl Strategy<Value = Vec<Op>> {
    script().prop_map(move |ops| {
        (ops.chunks(3))
            .flat_map(|ops| ops.iter().copied().chain([op]))
            .collect()
    })
}

/// One machine under test: its three engines — compiled, interpreted,
/// and booted from artifact bytes — and the IR and parameter values
/// the reference steps.
pub struct Subject {
    pub compiled: Engine,
    pub interpreted: Engine,
    pub booted: Engine,
    pub ir: FlatIr,
    pub params: Vec<i64>,
}

impl Subject {
    pub fn new(spec: Spec, ir: FlatIr, params: Vec<i64>) -> Subject {
        let bytes = Artifact::new(ir.clone(), params.clone())
            .expect("binds")
            .save();
        let loaded = Artifact::load(&bytes).expect("valid artifact image");
        Subject {
            compiled: Engine::compile(spec.clone()).expect("compiles"),
            interpreted: Engine::interpret(spec).expect("interprets"),
            booted: Engine::from_artifact(&loaded).expect("boots"),
            ir,
            params,
        }
    }

    pub fn machine(model: &impl AbstractModel) -> Subject {
        let machine = generate(model).expect("generates").machine;
        Subject::new(
            Spec::machine(machine.clone()),
            FlatIr::from_machine(&machine),
            vec![],
        )
    }

    pub fn efsm(efsm: Efsm, params: Vec<i64>) -> Subject {
        let ir = FlatIr::from_efsm(&efsm);
        Subject::new(Spec::efsm(efsm, params.clone()), ir, params)
    }

    pub fn hsm(hsm: HierarchicalMachine, params: Vec<i64>) -> Subject {
        let ir = hsm.flatten_ir();
        Subject::new(Spec::hsm_with_params(hsm, params.clone()), ir, params)
    }
}

/// One way of serving the subject.
pub struct Served {
    rt: Runtime,
    /// The engine it serves on, then the one a swap migrates it to.
    engines: [Engine; 2],
    /// Carries a recorder: attached at first, toggled by
    /// [`Op::ToggleRecorder`].
    observed: bool,
    /// Performs `deliver_all` as single deliveries in slot order.
    scalar: bool,
}

impl Served {
    pub fn new(engines: [&Engine; 2], shards: usize, observed: bool, scalar: bool) -> Served {
        let mut rt = engines[0].runtime().sharded(shards);
        if observed {
            rt.attach_recorder(RING);
        }
        let engines = engines.map(Engine::clone);
        Served {
            rt,
            engines,
            observed,
            scalar,
        }
    }
}

/// The flight-recorder rings of a runtime, without the header line
/// that names its engine.
pub fn rings(rt: &Runtime) -> String {
    let dump = rt.dump_trace();
    dump.split_once('\n')
        .map_or("", |(_, rings)| rings)
        .to_string()
}

/// A snapshot of another machine's pool, for `snapshot_into` to write
/// over: three variables (four registers) in `shards` shards (1–9), its
/// sessions spread over registers and some of them released.
pub fn dirty(shards: usize) -> RuntimeSnapshot {
    static SNAPSHOTS: OnceLock<Vec<RuntimeSnapshot>> = OnceLock::new();
    let snapshots = SNAPSHOTS.get_or_init(|| {
        let mut b = EfsmBuilder::new("dirty", ["n"]);
        let vars = ["x", "y", "z"].map(|v| b.add_var(v));
        let s = b.add_state("s");
        let bump = vars.map(Update::Inc).to_vec();
        b.add_transition(s, "n", Guard::always(), bump, vec![], s);
        let engine = Engine::compile(Spec::efsm(b.build(s, None), vec![])).expect("compiles");
        let n = engine.message_id("n").expect("own alphabet");
        (1..=9)
            .map(|shards| {
                let mut rt = engine.runtime().sharded(shards);
                for i in 0..40 {
                    let session = rt.spawn();
                    for _ in 0..i % 5 {
                        rt.deliver(session, n);
                    }
                    if i % 3 == 0 {
                        rt.release(session);
                    }
                }
                rt.snapshot_all()
            })
            .collect()
    });
    snapshots[shards - 1].clone()
}

/// Asserts that every value equals the first one with the same key.
pub fn agree<T: PartialEq + std::fmt::Debug>(
    values: &[(usize, T)],
    what: &str,
    step: usize,
) -> Result<(), TestCaseError> {
    for (key, value) in values {
        let first = values.iter().find(|(k, _)| k == key).expect("itself");
        prop_assert_eq!(value, &first.1, "step {}: {} of {} shards", step, what, key);
    }
    Ok(())
}

/// Runs `ops` on every way of serving `subject` (the sharded ones with
/// `shards` shards) against the reference, checking after every
/// operation.
pub fn check(subject: &Subject, shards: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let (compiled, interpreted) = (&subject.compiled, &subject.interpreted);
    // Engines, shards, observed, scalar.
    let mut served = [
        Served::new([compiled, interpreted], 1, false, false),
        Served::new([interpreted, compiled], 1, false, false),
        Served::new([compiled, interpreted], 1, true, false),
        Served::new([&subject.booted, interpreted], 1, false, false),
        Served::new([interpreted, compiled], 1, true, true),
        Served::new([compiled, interpreted], shards, true, false),
    ];
    let ids: Vec<MessageId> = (subject.ir.messages().iter())
        .map(|m| compiled.message_id(m).expect("one alphabet"))
        .collect();
    // Per live session: its handle in each runtime, and its reference.
    let mut live: Vec<(Vec<SessionId>, IrInstance)> = Vec::new();
    // Every counter the operations move; `snapshots` is left out, since
    // the checks below take snapshots of their own.
    let mut tally = MetricsSnapshot::default();
    // The transitions every reference took: `Runtime::steps`, which no
    // reset lowers and a restore or swap carries over.
    let mut steps = 0;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Spawn if live.len() < MAX_LIVE => {
                let handles = served.iter_mut().map(|s| s.rt.spawn()).collect();
                live.push((handles, subject.ir.instance(subject.params.clone())));
                tally.spawns += 1;
            }
            Op::Deliver(pick, m) if !live.is_empty() => {
                let at = pick % live.len();
                let (handles, reference) = &mut live[at];
                let message = ids[m % ids.len()];
                let before = reference.steps();
                let expect = reference.deliver_id(message);
                let taken = reference.steps() - before;
                tally.deliveries += 1;
                tally.transitions += taken;
                tally.guard_fall_throughs += 1 - taken;
                steps += taken;
                for (s, &h) in served.iter_mut().zip(handles.iter()) {
                    prop_assert_eq!(s.rt.deliver(h, message), expect, "step {}", step);
                }
            }
            Op::DeliverAll(m) => {
                let message = ids[m % ids.len()];
                let mut taken = 0;
                for (_, reference) in &mut live {
                    let before = reference.steps();
                    reference.deliver_id(message);
                    taken += reference.steps() - before;
                }
                tally.deliveries += live.len() as u64;
                tally.transitions += taken;
                tally.guard_fall_throughs += live.len() as u64 - taken;
                steps += taken;
                for (i, s) in served.iter_mut().enumerate() {
                    let batch = if s.scalar {
                        let mut handles: Vec<SessionId> = live.iter().map(|(h, _)| h[i]).collect();
                        handles.sort_by_key(|h| h.slot());
                        let before = s.rt.steps();
                        for h in handles {
                            s.rt.deliver(h, message);
                        }
                        s.rt.steps() - before
                    } else {
                        s.rt.deliver_all(message)
                    };
                    prop_assert_eq!(batch, taken, "step {}", step);
                }
            }
            Op::Reset(pick) if !live.is_empty() => {
                let at = pick % live.len();
                let (handles, reference) = &mut live[at];
                reference.reset();
                tally.resets += 1;
                for (s, &h) in served.iter_mut().zip(handles.iter()) {
                    s.rt.reset(h);
                }
            }
            Op::ResetAll => {
                for (_, reference) in &mut live {
                    reference.reset();
                }
                tally.resets += live.len() as u64;
                for s in &mut served {
                    s.rt.reset_all();
                }
            }
            Op::Release(pick) if !live.is_empty() => {
                let (handles, reference) = live.swap_remove(pick % live.len());
                match reference.is_finished() {
                    true => tally.releases_finished += 1,
                    false => tally.releases_aborted += 1,
                }
                for (s, h) in served.iter_mut().zip(handles) {
                    s.rt.release(h);
                }
            }
            Op::ToggleRecorder => {
                for s in served.iter_mut().filter(|s| s.observed) {
                    let attached = s.rt.recorder_attached();
                    match attached {
                        true => s.rt.detach_recorder(),
                        false => s.rt.attach_recorder(RING),
                    }
                    prop_assert_eq!(s.rt.recorder_attached(), !attached, "step {}", step);
                }
            }
            Op::Restore => {
                // A runtime's peer is the next one of its layout.
                let n = served.len();
                let mut snaps = Vec::with_capacity(n);
                for i in 0..n {
                    let layout = served[i].rt.shard_count();
                    let peer = (1..=n)
                        .map(|k| &served[(i + k) % n].rt)
                        .find(|rt| rt.shard_count() == layout)
                        .expect("itself");
                    let mut snap = dirty(layout % 8 + 1);
                    let taken = peer.metrics().snapshots;
                    peer.snapshot_into(&mut snap);
                    prop_assert_eq!(peer.metrics().snapshots, taken + 1, "step {}", step);
                    prop_assert_eq!(&snap, &peer.snapshot_all(), "step {}", step);
                    snaps.push(snap);
                }
                for (s, snap) in served.iter_mut().zip(&snaps) {
                    let recording = s.rt.recorder_attached();
                    s.rt = Runtime::restore(&s.engines[0], snap).expect("same machine");
                    prop_assert_eq!(&s.rt.snapshot_all(), snap, "step {}", step);
                    if recording {
                        s.rt.attach_recorder(RING);
                    }
                }
                tally = MetricsSnapshot {
                    restores: 1,
                    ..MetricsSnapshot::default()
                };
            }
            Op::Swap => {
                let migrated = SwapOutcome::Migrated {
                    sessions: live.len(),
                };
                for s in &mut served {
                    s.engines.swap(0, 1);
                    prop_assert_eq!(s.rt.begin_swap(s.engines[0].clone()), Ok(migrated));
                }
                tally.swaps_completed += 1;
                tally.swap_migrated_sessions += live.len() as u64;
            }
            _ => {}
        }
        let finished = live.iter().filter(|(_, r)| r.is_finished()).count();
        let (mut snapshots, mut recorded) = (Vec::new(), Vec::new());
        for (i, s) in served.iter().enumerate() {
            let rt = &s.rt;
            prop_assert_eq!(rt.engine().tier(), s.engines[0].tier());
            prop_assert_eq!(rt.len(), live.len(), "step {}", step);
            prop_assert_eq!(rt.finished_count(), finished, "step {}", step);
            prop_assert_eq!(rt.all_finished(), finished == live.len(), "step {}", step);
            prop_assert_eq!(rt.steps(), steps, "step {}", step);
            let counted = MetricsSnapshot {
                snapshots: 0,
                ..rt.metrics()
            };
            prop_assert_eq!(counted, tally, "step {} runtime {}", step, i);
            for (handles, reference) in &live {
                let h = handles[i];
                prop_assert_eq!(rt.state(h), reference.current_state(), "step {}", step);
                prop_assert_eq!(
                    rt.state_name(h),
                    reference.state_name_str(),
                    "step {}",
                    step
                );
                prop_assert_eq!(rt.vars(h), reference.vars(), "step {}", step);
                prop_assert_eq!(rt.is_finished(h), reference.is_finished(), "step {}", step);
            }
            snapshots.push((rt.shard_count(), rt.snapshot_all()));
            if rt.recorder_attached() {
                recorded.push((rt.shard_count(), rings(rt)));
            }
        }
        agree(&snapshots, "snapshot", step)?;
        agree(&recorded, "recorder rings", step)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Machine families.
// ---------------------------------------------------------------------

/// The guard sizes `(first candidate, second candidate)` one `(state,
/// message)` cell can have — `None` for a one-candidate cell — in
/// conditions. `(0, 0)` is missing because two always-true guards are a
/// duplicate transition.
pub const CELL_SHAPES: [(usize, Option<usize>); 11] = [
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

/// The guard with `checks` conditions on `x + 1 {op} t`: 0 is the
/// always-true guard, 1 the threshold test, 2 the threshold test and a
/// second condition that holds whenever the first is reached.
pub fn threshold(checks: usize, op: CmpOp, x: VarId, t: ParamId) -> Guard {
    let threshold = Guard::when(LinExpr::var(x).plus_const(1), op, LinExpr::param(t));
    match checks {
        0 => Guard::always(),
        1 => threshold,
        _ => threshold.and(LinExpr::var(x), CmpOp::Ge, LinExpr::constant(0)),
    }
}

/// A two-phase threshold EFSM: `a` counts `x` up to the parameter in
/// `wait` (two candidates on one cell), then `b` counts `y` in `mid`
/// until `done` — so one family covers guarded cells in every shape and
/// no-candidate cells (`b` in `wait`, `a` in `mid`). `shape` picks how
/// many conditions the two `(wait, a)` candidates carry
/// ([`CELL_SHAPES`]).
pub fn threshold_efsm(shape: usize) -> Efsm {
    let shape = CELL_SHAPES[shape];
    let mut b = EfsmBuilder::new("threshold", ["a", "b"]);
    let t = b.add_param("t");
    let x = b.add_var("x");
    let y = b.add_var("y");
    let wait = b.add_state("wait");
    let mid = b.add_state("mid");
    let done = b.add_state("done");
    let inc = vec![Update::Inc(x)];
    b.add_transition(
        wait,
        "a",
        threshold(shape.0, CmpOp::Lt, x, t),
        inc,
        vec![],
        wait,
    );
    if let Some(checks) = shape.1 {
        let (guard, says) = (
            threshold(checks, CmpOp::Ge, x, t),
            vec![Action::send("adv")],
        );
        b.add_transition(wait, "a", guard, vec![Update::Inc(x)], says, mid);
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

/// One `(state, message)` cell of a [`RandomMachine`].
#[derive(Debug, Clone, Copy)]
pub enum Edge {
    Empty,
    /// One unguarded transition.
    Plain(usize),
    /// Two candidates split on `x + 1 < t`, both incrementing `x` — as a
    /// `Set` if `spill`. The unguarded lowering keeps only the first
    /// target.
    Split(usize, usize, bool),
}

/// A random flat statechart over messages `a`/`b`, built to hit the
/// finished count's edge cases: any state may be final — the start
/// state included — and final states keep their (ignored) outgoing
/// edges; cells may be empty; the wide draws exceed 256 states.
#[derive(Debug, Clone)]
pub struct RandomMachine {
    /// Per state: is it final, and its two cells.
    states: Vec<(bool, [Edge; 2])>,
    start: usize,
}

pub fn random_machine() -> impl Strategy<Value = RandomMachine> {
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
    pub fn hsm(&self, guarded: bool) -> HierarchicalMachine {
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
                            let (from, to) = (ids[i], ids[to]);
                            b.add_guarded_transition(
                                from,
                                message,
                                guard,
                                vec![update],
                                to,
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

/// One `(state, message)` cell of a [`RandomEfsm`].
#[derive(Debug, Clone, Copy)]
pub enum Cell {
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
pub struct RandomEfsm {
    states: Vec<[Cell; 3]>,
    pub start: usize,
    pub finish: Option<usize>,
    pub runaway: bool,
}

pub fn random_efsm() -> impl Strategy<Value = RandomEfsm> {
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
    pub fn build(&self) -> Efsm {
        const MESSAGES: [&str; 3] = ["a", "b", "c"];
        let mut b = EfsmBuilder::new("random-efsm", MESSAGES);
        let t = b.add_param("t");
        let (x, y) = (b.add_var("x"), b.add_var("y"));
        let ids: Vec<_> = (0..self.states.len())
            .map(|i| b.add_state(format!("s{i}")))
            .collect();
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
                        let low = threshold(first, CmpOp::Lt, x, t);
                        b.add_transition(ids[i], message, low, vec![bump], vec![], ids[below]);
                        let Some(second) = second else { continue };
                        let updates = match at {
                            0..=3 => vec![Update::Set(x, LinExpr::constant(0))],
                            4 => vec![Update::Inc(x)],
                            5 => vec![Update::Inc(y)],
                            _ => vec![],
                        };
                        let high = threshold(second, CmpOp::Ge, x, t);
                        let says = vec![Action::send("adv")];
                        b.add_transition(ids[i], message, high, updates, says, ids[to]);
                    }
                }
            }
        }
        b.build(ids[self.start], self.finish.map(|f| ids[f]))
    }
}

/// Flat seeds from which a random, always valid, hierarchical
/// statechart over `m0`/`m1`/`m2` is derived. State `i`'s seed picks a
/// parent among states `0..i` (or the top level), at most three levels
/// deep, and its history, entry, exit and final bits; each transition
/// seed picks a source, a message, a kind (internal, history, external
/// and, if guarded, a lone guarded transition or a complementary
/// threshold pair) and targets. A guarded chart declares one parameter,
/// bound to `budget`, and two variables that no transition takes past
/// it, so its configuration space is finite.
#[derive(Debug, Clone)]
pub struct RandomChart {
    states: Vec<u64>,
    transitions: Vec<(u64, u64, u64, u64)>,
    start: u64,
    /// The parameter's value, 1–3, if the chart is guarded.
    pub budget: Option<i64>,
}

pub fn random_chart(guarded: bool) -> impl Strategy<Value = RandomChart> {
    let transition = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>());
    (
        prop::collection::vec(any::<u64>(), 1..=10),
        prop::collection::vec(transition, 0..=14),
        any::<u64>(),
        1i64..=3,
    )
        .prop_map(move |(states, transitions, start, budget)| RandomChart {
            states,
            transitions,
            start,
            budget: guarded.then_some(budget),
        })
}

impl RandomChart {
    pub const ALPHABET: [&'static str; 3] = ["m0", "m1", "m2"];

    /// The parameter binding: the budget, if guarded.
    pub fn params(&self) -> Vec<i64> {
        self.budget.into_iter().collect()
    }

    pub fn build(&self) -> HierarchicalMachine {
        let n = self.states.len();
        let mut b = HsmBuilder::new("random-chart", Self::ALPHABET);
        let registers =
            (self.budget).map(|_| (b.add_param("budget"), [b.add_var("x"), b.add_var("y")]));
        let (mut ids, mut depth, mut children) = (Vec::new(), Vec::new(), vec![0usize; n]);
        for (i, &seed) in self.states.iter().enumerate() {
            let parent = (seed % (i as u64 + 1)) as usize;
            if i == 0 || parent == i || depth[parent] >= 3 {
                ids.push(b.add_state(format!("s{i}")));
                depth.push(0);
            } else {
                children[parent] += 1;
                ids.push(b.add_child(ids[parent], format!("s{i}")));
                depth.push(depth[parent] + 1);
            }
        }
        // History needs a composite and final a leaf, so these bits are
        // read once the tree is known.
        let mut history = Vec::new();
        for (i, &seed) in self.states.iter().enumerate() {
            let composite = children[i] > 0;
            if composite && seed & (1 << 8) != 0 {
                b.enable_history(ids[i]);
                history.push(ids[i]);
            }
            if seed & (1 << 9) != 0 {
                b.on_entry(ids[i], vec![Action::send(format!("enter{i}"))]);
            }
            if seed & (1 << 10) != 0 {
                b.on_exit(ids[i], vec![Action::send(format!("exit{i}"))]);
            }
            if !composite && seed & (3 << 11) == 3 << 11 {
                b.mark_final(ids[i]);
            }
        }
        let kinds = if registers.is_some() { 6 } else { 3 };
        for &(s_seed, m_seed, kind_seed, t_seed) in &self.transitions {
            let from = ids[(s_seed % n as u64) as usize];
            let message = Self::ALPHABET[(m_seed % 3) as usize];
            let actions: Vec<Action> = (0..kind_seed >> 4 & 3)
                .map(|k| Action::send(format!("a{k}")))
                .collect();
            let to = ids[(t_seed % n as u64) as usize];
            // A duplicate or shadowed declaration is rejected and skipped,
            // as a generator probing the builder would.
            let _ = match (kind_seed % kinds, registers) {
                (0, _) => b.try_add_internal_transition(from, message, actions),
                (1, _) if !history.is_empty() => {
                    let composite = history[(t_seed % history.len() as u64) as usize];
                    b.try_add_history_transition(from, message, composite, actions)
                }
                (1 | 2, _) | (_, None) => b.try_add_transition(from, message, to, actions),
                (kind, Some((budget, vars))) => {
                    let (v, other) = (
                        vars[(t_seed >> 4 & 1) as usize],
                        vars[1 - (t_seed >> 4 & 1) as usize],
                    );
                    let next = LinExpr::var(v).plus_const(1);
                    let below = Guard::when(next.clone(), CmpOp::Lt, LinExpr::param(budget));
                    let low = vec![Update::Inc(v)];
                    let lone = b.try_add_guarded_transition(
                        from,
                        message,
                        below,
                        low,
                        to,
                        actions.clone(),
                    );
                    if kind == 3 {
                        // Alone: below the budget only, so the message falls
                        // through to inherited handlers once it is reached.
                        lone
                    } else {
                        // A pair: both sides of the threshold, and staged
                        // `Set`s reading the pre-transition registers.
                        let at = Guard::when(next, CmpOp::Ge, LinExpr::param(budget));
                        let high = match t_seed & (1 << 16) != 0 {
                            true => Update::Set(v, LinExpr::constant(0)),
                            false => Update::Set(other, LinExpr::var(v)),
                        };
                        let to_high = ids[((t_seed >> 8) % n as u64) as usize];
                        b.try_add_guarded_transition(
                            from,
                            message,
                            at,
                            vec![high],
                            to_high,
                            actions,
                        )
                    }
                }
            };
        }
        b.try_build(ids[(self.start % n as u64) as usize])
            .expect("recipe-derived machines are valid by construction")
    }
}

/// Decides `hsm`'s flattening equivalent to `hsm` bound to `params`,
/// configuration name and registers alike at every reachable pair, and
/// each message a transition on both sides or on neither.
pub fn flattens_exactly(hsm: &HierarchicalMachine, params: &[i64]) {
    let ir = hsm.flatten_ir();
    let messages: Vec<&str> = hsm.messages().iter().map(String::as_str).collect();
    let chart = hsm.instance_with(params.to_vec());
    for (chart, flat) in support::decide(chart, ir.instance(params.to_vec()), &messages) {
        assert_eq!(chart.state_name(), flat.state_name());
        assert_eq!(chart.vars(), flat.vars());
        for m in &messages {
            let (mut c, mut f) = (chart.clone(), flat.clone());
            let _ = (c.deliver_ref(m), f.deliver_ref(m));
            assert_eq!(c.steps() - chart.steps(), f.steps() - flat.steps(), "{m}");
        }
    }
}

/// The commit protocol on each lowering that serves it: the generated
/// FSM (dense), the EFSM bound at r = 4 (unfolded) and at r = 64 (over
/// the unfolding budget: interpreted). Built once.
pub fn commit_subjects() -> &'static [Subject; 3] {
    static SUBJECTS: OnceLock<[Subject; 3]> = OnceLock::new();
    SUBJECTS.get_or_init(|| {
        let config = |r| CommitConfig::new(r).expect("valid replication factor");
        let bound = |r| Subject::efsm(commit_efsm(), commit_efsm_params(&config(r)));
        [
            Subject::machine(&CommitModel::new(config(4))),
            bound(4),
            bound(64),
        ]
    })
}

/// Applies a script's single-session operations to `rt`, whose live
/// sessions `live` holds. Whole-pool operations would also move the
/// sessions a drain keeps on the outgoing engine, so they are skipped.
pub fn load(rt: &mut Runtime, live: &mut Vec<SessionId>, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Spawn => live.push(rt.spawn()),
            Op::Deliver(pick, m) if !live.is_empty() => {
                let message = rt.message_id(MESSAGE_NAMES[m % MESSAGE_NAMES.len()]);
                rt.deliver(live[pick % live.len()], message.unwrap());
            }
            Op::Reset(pick) if !live.is_empty() => rt.reset(live[pick % live.len()]),
            Op::Release(pick) if !live.is_empty() => rt.release(live.remove(pick % live.len())),
            _ => {}
        }
    }
}
