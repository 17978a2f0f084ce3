//! Kernel-equivalence properties: the bucketed batch kernels behind
//! `SessionStore::deliver_all` (see `stategen_core::kernel`) are
//! bit-identical to the scalar per-session walk (`deliver_all_scalar`)
//! on the dense *and* the register engine, through one test body —
//! states, registers, finished bits, transition totals, and the
//! transition stream a subsequent `deliver_all_with` observes —
//! including under mid-sequence spawn/reset/retire churn. The one
//! worker driver (`ShardedPool::with_workers`) is likewise pinned to
//! flat-store results for every worker count.

use proptest::prelude::*;

use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{
    generate, AbstractModel, Action, CompiledEfsm, CompiledMachine, Efsm, MessageId, Outcome,
    SessionStore, ShardedPool, StateComponent, StateSpace, StateVector, StepEngine,
};

// ---------------------------------------------------------------------
// Machine families.
// ---------------------------------------------------------------------

/// A randomised threshold model (same family as the core props): two
/// counters and a flag; `a` bumps counter 0, `b` bumps counter 1;
/// crossing `threshold` on the sum fires an action; completion when
/// counter 1 reaches its max. Generates machines with many states, so
/// the counting-sort sees populated *and* empty buckets.
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

/// A two-phase threshold EFSM: `a` counts `x` up to the parameter in
/// `wait` (two fused candidates on one cell — the masked-sweep shape),
/// then `b` counts `y` in `mid` until `done`. With `spill` the `mid`
/// transitions carry a `Set` update, which is not inline-fusable and
/// forces the kernel's scalar bytecode fallback for those buckets — so
/// one family covers the per-column masked path, the spill path and
/// no-candidate cells (`b` in `wait`, `a` in `mid`).
fn threshold_efsm(spill: bool) -> Efsm {
    let mut b = EfsmBuilder::new("kernel-prop", ["a", "b"]);
    let t = b.add_param("t");
    let x = b.add_var("x");
    let y = b.add_var("y");
    let wait = b.add_state("wait");
    let mid = b.add_state("mid");
    let done = b.add_state("done");
    b.add_transition(
        wait,
        "a",
        Guard::when(LinExpr::var(x).plus_const(1), CmpOp::Lt, LinExpr::param(t)),
        vec![Update::Inc(x)],
        vec![],
        wait,
    );
    b.add_transition(
        wait,
        "a",
        Guard::when(LinExpr::var(x).plus_const(1), CmpOp::Ge, LinExpr::param(t)),
        vec![Update::Inc(x)],
        vec![Action::send("adv")],
        mid,
    );
    let bump = |spill: bool| {
        if spill {
            vec![Update::Set(y, LinExpr::var(y).plus_const(1))]
        } else {
            vec![Update::Inc(y)]
        }
    };
    b.add_transition(
        mid,
        "b",
        Guard::when(LinExpr::var(y).plus_const(1), CmpOp::Lt, LinExpr::param(t)),
        bump(spill),
        vec![],
        mid,
    );
    b.add_transition(
        mid,
        "b",
        Guard::when(LinExpr::var(y).plus_const(1), CmpOp::Ge, LinExpr::param(t)),
        bump(spill),
        vec![Action::send("done")],
        done,
    );
    b.build(wait, Some(done))
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

fn register_engine(t: i64, spill: bool) -> StepEngine {
    let compiled = CompiledEfsm::compile(&threshold_efsm(spill)).expect("compiles");
    assert_eq!(compiled.bind(&[t]).spill_cell_count() > 0, spill);
    StepEngine::register(compiled, &[t]).expect("one parameter")
}

fn message(engine: &StepEngine, mi: usize) -> MessageId {
    engine
        .message_id(if mi == 0 { "a" } else { "b" })
        .expect("declared message")
}

// ---------------------------------------------------------------------
// Kernel vs scalar: one body, both compiled engines.
// ---------------------------------------------------------------------

/// The kernel behind `deliver_all` is bit-identical to the scalar walk
/// on `engine`: same states, *registers*, finished bits, transition
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
        prop_assert_eq!(kernel.states(), scalar.states(), "step {}", step);
        prop_assert_eq!(kernel.registers(), scalar.registers(), "step {}", step);
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
    prop_assert_eq!(kernel.states(), scalar.states());
    prop_assert_eq!(kernel.registers(), scalar.registers());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The bucketed dense kernel matches the scalar walk.
    #[test]
    fn dense_kernel_matches_scalar(
        model in two_counter(),
        sessions in 0usize..96,
        ops in op_stream(),
    ) {
        kernel_matches_scalar(dense_engine(&model), sessions, &ops, 0)?;
    }

    /// The per-column masked-compare kernel — including its scalar
    /// bytecode fallback for non-fusable cells — matches the scalar
    /// walk.
    #[test]
    fn efsm_kernel_matches_scalar(
        t in 1i64..6,
        spill in any::<bool>(),
        sessions in 0usize..96,
        ops in op_stream(),
    ) {
        kernel_matches_scalar(register_engine(t, spill), sessions, &ops, 1)?;
    }
}

// ---------------------------------------------------------------------
// The worker driver: any worker count, same answers.
// ---------------------------------------------------------------------

/// One command sent through the driver.
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

/// Random shard sizes (empty shards included) and a worker count in
/// `1..=shards + 2`: one worker is the inline case, fewer than shards
/// steal, `≥ shards` park one each.
fn shard_plan() -> impl Strategy<Value = (Vec<usize>, usize)> {
    (prop::collection::vec(0usize..40, 1..8), any::<usize>()).prop_map(|(sizes, pick)| {
        let workers = 1 + pick % (sizes.len() + 2);
        (sizes, workers)
    })
}

/// The driver is a pure scheduling change: for any shard sizes, worker
/// count, pre-divergence and command sequence, per-command transition
/// counts and aggregate finished/step totals equal one flat store's,
/// and afterwards every shard's states and registers are the flat
/// store's contiguous block — whichever worker stepped which shard.
fn workers_match_flat(
    engine: StepEngine,
    sizes: &[usize],
    workers: usize,
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
    let driven: Result<(), TestCaseError> = sharded.with_workers(workers, |w| {
        prop_assert_eq!(w.worker_count(), workers.min(sizes.len()));
        for (step, &cmd) in cmds.iter().enumerate() {
            match cmd {
                Cmd::Deliver(mi) => {
                    let mid = message(&engine, mi);
                    let t_flat = flat.deliver_all(mid);
                    prop_assert_eq!(w.deliver_all(mid), t_flat, "step {}", step);
                }
                Cmd::ResetAll => {
                    flat.reset_all();
                    w.reset_all();
                }
            }
            prop_assert_eq!(w.finished_count(), flat.finished_count(), "step {}", step);
            prop_assert_eq!(w.steps(), flat.steps(), "step {}", step);
        }
        Ok(())
    });
    driven?;
    // A sharded `deliver_all` is one command on the same driver.
    let mid = message(&engine, 0);
    prop_assert_eq!(sharded.deliver_all(mid), flat.deliver_all(mid));
    let mut offset = 0;
    for shard in sharded.shards() {
        let n = shard.len();
        prop_assert_eq!(shard.states(), &flat.states()[offset..offset + n]);
        prop_assert_eq!(
            shard.registers(),
            &flat.registers()[offset * regs..(offset + n) * regs]
        );
        for s in 0..n {
            prop_assert_eq!(shard.is_finished(s), flat.is_finished(offset + s));
        }
        offset += n;
    }
    prop_assert_eq!(flat.steps(), sharded.steps());
    prop_assert_eq!(flat.finished_count(), sharded.finished_count());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The driver over dense stores.
    #[test]
    fn stealing_workers_are_deterministic(
        model in two_counter(),
        (sizes, workers) in shard_plan(),
        diverge in prop::collection::vec((any::<usize>(), 0usize..2), 0..24),
        cmds in cmd_stream(),
    ) {
        workers_match_flat(dense_engine(&model), &sizes, workers, &diverge, &cmds)?;
    }

    /// The same on the register engine, where shards also carry
    /// registers.
    #[test]
    fn stealing_workers_match_flat_efsm_pool(
        t in 1i64..6,
        spill in any::<bool>(),
        (sizes, workers) in shard_plan(),
        diverge in prop::collection::vec((any::<usize>(), 0usize..2), 0..24),
        cmds in cmd_stream(),
    ) {
        workers_match_flat(register_engine(t, spill), &sizes, workers, &diverge, &cmds)?;
    }
}
