//! Kernel-equivalence properties: the batch kernels behind
//! `SessionStore::deliver_all` (see `stategen_core::kernel`) are
//! bit-identical to the scalar per-session walk (`deliver_all_scalar`)
//! on the dense engine of a flat machine *and* on whatever a guarded one
//! compiles to, through one test body —
//! states, registers, finished flags, transition totals, and the
//! transition stream a subsequent `deliver_all_with` observes —
//! including under mid-sequence spawn/reset/retire churn. A second
//! body pins the store's *eager* finished count: on random machines,
//! on both tiers, after every store operation it equals a recount
//! from the state array. A sharded pool's fork-join
//! (`ShardedPool::deliver_all`) is likewise pinned to flat-store
//! results for every shard plan.

use proptest::prelude::*;

use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{
    generate, AbstractModel, Action, CompiledMachine, FlatIr, FlatState, FlatTransition, MessageId,
    Outcome, SessionStore, ShardedPool, StateComponent, StateRole, StateSpace, StateVector,
    StepEngine, Tier,
};

/// What a snapshot of `store` reads: its states and register file.
fn image(store: &SessionStore) -> (Vec<u32>, Vec<i64>) {
    let (mut states, mut registers) = (Vec::new(), Vec::new());
    store.states_into(&mut states);
    store.registers_into(&mut registers);
    (states, registers)
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
fn threshold_ir(shape: usize) -> FlatIr {
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
    FlatIr::from_efsm(&b.build(wait, Some(done)))
}

/// One step of store churn, decoded from a proptest-drawn op stream:
/// deliver to everyone (the property under test), reset one session
/// back to start (reviving it if retired), spawn a fresh session
/// (growing the SoA arrays and the kernel scratch mid-sequence), or
/// retire one (punching a hole the kernels must skip).
#[derive(Debug, Clone, Copy)]
enum Op {
    Deliver(usize),
    Reset(usize),
    Spawn,
    Retire(usize),
}

fn op_stream() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..9, any::<usize>()), 0..48).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, pick)| match kind {
                0..=4 => Op::Deliver(pick % 2),
                5..=6 => Op::Reset(pick),
                7 => Op::Spawn,
                _ => Op::Retire(pick),
            })
            .collect()
    })
}

fn dense_engine(model: &TwoCounter) -> StepEngine {
    let g = generate(model).expect("generates");
    StepEngine::dense(CompiledMachine::compile(&g.machine))
}

fn message(engine: &StepEngine, mi: usize) -> MessageId {
    engine
        .message_id(if mi == 0 { "a" } else { "b" })
        .expect("declared message")
}

// ---------------------------------------------------------------------
// Kernel vs scalar: one body, flat and unfolded.
// ---------------------------------------------------------------------

/// The kernel behind `deliver_all` is bit-identical to the scalar walk
/// on `engine`: same states, *registers*, finished flags, transition
/// totals after every op, and the same `deliver_all_with` transition
/// stream afterwards — through reset/spawn/retire churn between
/// batches.
fn kernel_matches_scalar(
    engine: StepEngine,
    sessions: usize,
    ops: &[Op],
    last: usize,
) -> Result<(), TestCaseError> {
    let mut kernel = SessionStore::new(engine.clone(), sessions);
    let mut scalar = SessionStore::new(engine.clone(), sessions);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Deliver(mi) => {
                let mid = message(&engine, mi);
                prop_assert_eq!(
                    kernel.deliver_all(mid),
                    scalar.deliver_all_scalar(mid),
                    "step {}",
                    step
                );
            }
            Op::Reset(pick) if !kernel.is_empty() => {
                kernel.reset_session(pick % kernel.len());
                scalar.reset_session(pick % scalar.len());
            }
            Op::Retire(pick) if !kernel.is_empty() => {
                let s = pick % kernel.len();
                if !kernel.is_retired(s) {
                    kernel.retire(s);
                    scalar.retire(s);
                }
            }
            Op::Spawn => prop_assert_eq!(kernel.spawn(), scalar.spawn(), "step {}", step),
            Op::Reset(_) | Op::Retire(_) => {}
        }
        prop_assert_eq!(image(&kernel), image(&scalar), "step {}", step);
        prop_assert_eq!(kernel.live(), scalar.live(), "step {}", step);
        prop_assert_eq!(
            kernel.finished_count(),
            scalar.finished_count(),
            "step {}",
            step
        );
        prop_assert_eq!(kernel.steps(), scalar.steps(), "step {}", step);
        for s in 0..kernel.len() {
            prop_assert_eq!(
                kernel.is_finished(s),
                scalar.is_finished(s),
                "step {} session {}",
                step,
                s
            );
        }
    }
    // The observing walk sees identical transition streams after any
    // kernel-batched prefix.
    let mid = message(&engine, last);
    let mut seen_kernel: Vec<(usize, u32, u32, Vec<Action>)> = Vec::new();
    let mut seen_scalar = seen_kernel.clone();
    let t_k = kernel.deliver_all_with(mid, |s, t| {
        seen_kernel.push((s, t.from, t.to, t.actions.to_vec()))
    });
    let t_s = scalar.deliver_all_with(mid, |s, t| {
        seen_scalar.push((s, t.from, t.to, t.actions.to_vec()))
    });
    prop_assert_eq!(t_k, t_s);
    prop_assert_eq!(t_k as usize, seen_kernel.len());
    prop_assert_eq!(seen_kernel, seen_scalar);
    prop_assert_eq!(image(&kernel), image(&scalar));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The dense column-gather kernel matches the scalar walk.
    #[test]
    fn dense_kernel_matches_scalar(
        model in two_counter(),
        sessions in 0usize..96,
        ops in op_stream(),
    ) {
        kernel_matches_scalar(dense_engine(&model), sessions, &ops, 0)?;
    }

    /// A guarded machine's batch path — the gather over its unfolded
    /// configurations or, where an always-true `Inc` leaves it
    /// unbounded, the interpreter's walk; guarded cells of every shape —
    /// matches the scalar walk.
    #[test]
    fn efsm_kernel_matches_scalar(
        t in 1i64..6,
        shape in 0..CELL_SHAPES.len(),
        sessions in 0usize..96,
        ops in op_stream(),
    ) {
        let engine = StepEngine::compile_ir(&threshold_ir(shape), &[t]).expect("compiles");
        kernel_matches_scalar(engine, sessions, &ops, 1)?;
    }
}

// ---------------------------------------------------------------------
// The eager finished count: one body, both tiers.
// ---------------------------------------------------------------------

/// One `(state, message)` cell of a [`RandomMachine`].
#[derive(Debug, Clone, Copy)]
enum Cell {
    Empty,
    /// One unguarded transition.
    Plain(usize),
    /// Two candidates split on `x + 1 < t`, both incrementing `x` — as a
    /// `Set` if `spill`.
    /// The unguarded lowering keeps only the first target.
    Split(usize, usize, bool),
}

/// A random machine over messages `a`/`b`, built to hit the count's
/// edge cases: any state may be a finish state — the start state
/// included — and finish states keep their (ignored) outgoing edges;
/// cells may be empty; the wide draws exceed 256 states.
#[derive(Debug, Clone)]
struct RandomMachine {
    /// Per state: is it a finish state, and its two cells.
    states: Vec<(bool, [Cell; 2])>,
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
                0..=1 => Cell::Empty,
                2..=4 => Cell::Plain(t0 % n),
                _ => Cell::Split(t0 % n, t1 % n, kind == 7),
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
    /// The machine as an IR: with `guarded`, over one variable and one
    /// parameter; without, `Split` cells collapse to their first target.
    fn ir(&self, guarded: bool) -> FlatIr {
        // `VarId` / `ParamId` are minted by a builder only.
        let mut ids = EfsmBuilder::new("ids", ["a"]);
        let (t, x) = (ids.add_param("t"), ids.add_var("x"));
        let next = || LinExpr::var(x).plus_const(1);
        let plain = |m, to| FlatTransition::new(m, Guard::always(), vec![], vec![], to as u32);
        let split = |m, op, spill, to| {
            let update = match spill {
                true => Update::Set(x, next()),
                false => Update::Inc(x),
            };
            let guard = Guard::when(next(), op, LinExpr::param(t));
            FlatTransition::new(m, guard, vec![update], vec![], to as u32)
        };
        let states = self.states.iter().enumerate().map(|(i, (finish, cells))| {
            let mut transitions = Vec::new();
            for (m, &cell) in cells.iter().enumerate() {
                match cell {
                    Cell::Empty => {}
                    Cell::Plain(to) => transitions.push(plain(m, to)),
                    Cell::Split(to, _, _) if !guarded => transitions.push(plain(m, to)),
                    Cell::Split(below, at, spill) => {
                        transitions.push(split(m, CmpOp::Lt, spill, below));
                        transitions.push(split(m, CmpOp::Ge, spill, at));
                    }
                }
            }
            let role = match finish {
                true => StateRole::Finish,
                false => StateRole::Normal,
            };
            FlatState::new(format!("s{i}"), role, transitions)
        });
        let (params, vars) = match guarded {
            true => (vec!["t".to_string()], vec!["x".to_string()]),
            false => (vec![], vec![]),
        };
        let messages = vec!["a".to_string(), "b".to_string()];
        FlatIr::from_parts(
            "random",
            messages,
            params,
            vars,
            states.collect(),
            self.start as u32,
        )
    }
}

/// One store operation of the finished-count property.
#[derive(Debug, Clone, Copy)]
enum StoreOp {
    Spawn,
    Step(usize, usize),
    /// `reset_session` — on a retired slot, a revival.
    Reset(usize),
    Retire(usize),
    ResetAll,
    DeliverAll(usize),
    DeliverAllScalar(usize),
    DeliverAllWith(usize),
    /// `restore` from the store's own `states_into` / `registers_into`.
    Restore,
}

fn store_ops() -> impl Strategy<Value = Vec<StoreOp>> {
    prop::collection::vec((0u8..16, any::<usize>()), 0..64).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, pick)| match kind {
                0 => StoreOp::Spawn,
                1..=3 => StoreOp::Step(pick / 2, pick % 2),
                4 => StoreOp::Reset(pick),
                5..=6 => StoreOp::Retire(pick),
                7 => StoreOp::ResetAll,
                8..=11 => StoreOp::DeliverAll(pick % 2),
                12 => StoreOp::DeliverAllScalar(pick % 2),
                13..=14 => StoreOp::DeliverAllWith(pick % 2),
                _ => StoreOp::Restore,
            })
            .collect()
    })
}

/// `finished_count`, `is_finished` and `all_finished` against a recount
/// from the state array.
fn count_is_exact(store: &SessionStore, step: usize) -> Result<(), TestCaseError> {
    let engine = store.engine();
    let finished = |s: usize| !store.is_retired(s) && engine.is_finish_state(store.state(s));
    let recount = (0..store.len()).filter(|&s| finished(s)).count();
    prop_assert_eq!(store.finished_count(), recount, "step {}", step);
    prop_assert_eq!(
        store.all_finished(),
        recount == store.live(),
        "step {}",
        step
    );
    for s in 0..store.len() {
        prop_assert_eq!(
            store.is_finished(s),
            finished(s),
            "step {} slot {}",
            step,
            s
        );
    }
    Ok(())
}

/// Two stores over `engine` take the same operations — `kernel` its
/// batches through `deliver_all`, `scalar` through the scalar walk —
/// and after **every** operation each one's finished count is exact
/// and the two are bit-identical.
fn finished_count_tracks_states(
    engine: StepEngine,
    sessions: usize,
    ops: &[StoreOp],
) -> Result<(), TestCaseError> {
    let mut kernel = SessionStore::new(engine.clone(), sessions);
    let mut scalar = SessionStore::new(engine.clone(), sessions);
    count_is_exact(&kernel, 0)?;
    for (step, &op) in ops.iter().enumerate() {
        let slot = |pick: usize| (!kernel.is_empty()).then(|| pick % kernel.len());
        match op {
            StoreOp::Spawn => prop_assert_eq!(kernel.spawn(), scalar.spawn()),
            StoreOp::Step(pick, mi) => {
                if let Some(s) = slot(pick).filter(|&s| !kernel.is_retired(s)) {
                    let mid = message(&engine, mi);
                    let took = kernel.step(s, mid).map(|t| (t.from, t.to));
                    prop_assert_eq!(took, scalar.step(s, mid).map(|t| (t.from, t.to)));
                }
            }
            StoreOp::Reset(pick) => {
                if let Some(s) = slot(pick) {
                    kernel.reset_session(s);
                    scalar.reset_session(s);
                }
            }
            StoreOp::Retire(pick) => {
                if let Some(s) = slot(pick).filter(|&s| !kernel.is_retired(s)) {
                    kernel.retire(s);
                    scalar.retire(s);
                }
            }
            StoreOp::ResetAll => {
                kernel.reset_all();
                scalar.reset_all();
            }
            StoreOp::DeliverAll(mi) => {
                let mid = message(&engine, mi);
                let taken = kernel.deliver_all(mid);
                prop_assert_eq!(taken, scalar.deliver_all_scalar(mid), "step {}", step);
            }
            StoreOp::DeliverAllScalar(mi) => {
                let mid = message(&engine, mi);
                let taken = kernel.deliver_all_scalar(mid);
                prop_assert_eq!(taken, scalar.deliver_all_scalar(mid), "step {}", step);
            }
            StoreOp::DeliverAllWith(mi) => {
                let mid = message(&engine, mi);
                let mut visited = 0;
                let taken = kernel.deliver_all_with(mid, |_, _| visited += 1);
                prop_assert_eq!(taken, visited);
                prop_assert_eq!(taken, scalar.deliver_all_scalar(mid), "step {}", step);
            }
            StoreOp::Restore => {
                // Into a fresh, differently sized store on one side,
                // over itself on the other.
                let mut fresh = SessionStore::new(engine.clone(), 3);
                let (states, registers) = image(&kernel);
                let restored = fresh.restore(&states, &registers, kernel.steps());
                prop_assert_eq!(restored, Ok(()));
                kernel = fresh;
                let (states, registers) = image(&scalar);
                let restored = scalar.restore(&states, &registers, scalar.steps());
                prop_assert_eq!(restored, Ok(()));
            }
        }
        count_is_exact(&kernel, step)?;
        count_is_exact(&scalar, step)?;
        prop_assert_eq!(image(&kernel), image(&scalar), "step {}", step);
        prop_assert_eq!(kernel.live(), scalar.live(), "step {}", step);
        prop_assert_eq!(kernel.steps(), scalar.steps(), "step {}", step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The finished count is exact after every operation, on the dense
    /// (flat and unfolded) and the interpreted engines of one random machine —
    /// the interpreted ones walking the drawn IRs themselves, guarded
    /// and not.
    #[test]
    fn finished_count_is_eager_on_every_tier(
        machine in random_machine(),
        t in 1i64..5,
        sessions in 0usize..48,
        ops in store_ops(),
    ) {
        let (flat, guarded) = (machine.ir(false), machine.ir(true));
        let engines = [
            StepEngine::compile_ir(&flat, &[]).expect("unguarded IR compiles"),
            StepEngine::compile_ir(&guarded, &[t]).expect("guarded IR compiles"),
            StepEngine::interpreted(flat, &[]).expect("no parameters"),
            StepEngine::interpreted(guarded, &[t]).expect("one parameter"),
        ];
        for engine in engines {
            finished_count_tracks_states(engine, sessions, &ops)?;
        }
    }
}

// ---------------------------------------------------------------------
// The fork-join: any shard plan, same answers.
// ---------------------------------------------------------------------

/// One batch command.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Deliver(usize),
    ResetAll,
}

fn cmd_stream() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(0u8..9, 0..48).prop_map(|raw| {
        raw.into_iter()
            .map(|kind| match kind {
                0..=7 => Cmd::Deliver(usize::from(kind % 2)),
                _ => Cmd::ResetAll,
            })
            .collect()
    })
}

/// Random shard sizes, empty shards included.
fn shard_plan() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..40, 1..8)
}

/// Forking a batch over shards is a pure layout change: for any shard
/// sizes, pre-divergence and command sequence, per-command transition
/// counts and aggregate finished/step totals equal one flat store's,
/// and every shard's states and registers stay the flat store's
/// contiguous block — whichever thread stepped which shard.
fn sharded_pool_matches_flat(
    engine: StepEngine,
    sizes: &[usize],
    diverge: &[(usize, usize)],
    cmds: &[Cmd],
) -> Result<(), TestCaseError> {
    let total: usize = sizes.iter().sum();
    let regs = engine.reg_count();
    let mut flat = SessionStore::new(engine.clone(), total);
    let mut sharded = ShardedPool::new(
        sizes
            .iter()
            .map(|&n| SessionStore::new(engine.clone(), n))
            .collect(),
    );
    // Spread sessions over several states first, so shards hold
    // different work and the kernels leave their lockstep path.
    for &(pick, mi) in diverge.iter().filter(|_| total > 0) {
        let (mid, mut local) = (message(&engine, mi), pick % total);
        flat.deliver(local, mid);
        let shard = sizes
            .iter()
            .position(|&n| {
                let here = local < n;
                if !here {
                    local -= n;
                }
                here
            })
            .expect("in range");
        sharded.shards_mut()[shard].deliver(local, mid);
    }
    for (step, &cmd) in cmds.iter().enumerate() {
        match cmd {
            Cmd::Deliver(mi) => {
                let mid = message(&engine, mi);
                let t_flat = flat.deliver_all(mid);
                prop_assert_eq!(sharded.deliver_all(mid), t_flat, "step {}", step);
            }
            Cmd::ResetAll => {
                flat.reset_all();
                sharded.reset_all();
            }
        }
        prop_assert_eq!(
            sharded.finished_count(),
            flat.finished_count(),
            "step {}",
            step
        );
        prop_assert_eq!(sharded.steps(), flat.steps(), "step {}", step);
    }
    let mut offset = 0;
    let (states, registers) = image(&flat);
    for shard in sharded.shards() {
        let n = shard.len();
        let (shard_states, shard_registers) = image(shard);
        prop_assert_eq!(&shard_states[..], &states[offset..offset + n]);
        prop_assert_eq!(
            &shard_registers[..],
            &registers[offset * regs..(offset + n) * regs]
        );
        for s in 0..n {
            prop_assert_eq!(shard.is_finished(s), flat.is_finished(offset + s));
        }
        offset += n;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fork-join over dense stores.
    #[test]
    fn sharded_dense_pool_matches_flat(
        model in two_counter(),
        sizes in shard_plan(),
        diverge in prop::collection::vec((any::<usize>(), 0usize..2), 0..24),
        cmds in cmd_stream(),
    ) {
        sharded_pool_matches_flat(dense_engine(&model), &sizes, &diverge, &cmds)?;
    }

    /// The same for a guarded machine on the interpreter, where shards
    /// also carry registers, and unfolded onto the dense table, where
    /// they carry configuration ids.
    #[test]
    fn sharded_efsm_pool_matches_flat(
        t in 1i64..6,
        sizes in shard_plan(),
        diverge in prop::collection::vec((any::<usize>(), 0usize..2), 0..24),
        cmds in cmd_stream(),
    ) {
        let ir = threshold_ir(6);
        let unfolded = StepEngine::compile_ir(&ir, &[t]).expect("compiles");
        prop_assert_eq!(unfolded.tier(), Tier::Compiled);
        let interpreted = StepEngine::interpreted(ir, &[t]).expect("one parameter");
        for engine in [interpreted, unfolded] {
            sharded_pool_matches_flat(engine, &sizes, &diverge, &cmds)?;
        }
    }
}
