//! The branchless batch kernel: a one-pass column gather for the dense
//! tier.
//!
//! The scalar batch walk (the step engine's `walk_batch`) steps each
//! session through the tier's single-session step — a per-session table
//! walk whose applicability test and candidate cascade are
//! data-dependent branches. A batch delivers *one* message, and on the
//! dense tier that message selects one column of the column-major
//! transition table, so the whole batch is a single affine pass over the
//! state array: `next = column[state]`, with out-of-range ids (retired
//! slots) clamped onto the column's trailing skip entry. No sort, no
//! index, no scratch. A vectorized uniformity scan detects the
//! *lockstep* shape (every session in one state, the dominant pattern
//! for a pool spawned together and fed one message feed) and collapses
//! the batch to one cell read plus a constant fill of the state column.
//!
//! The interpreted tier has no kernel: its batches are the walk
//! (`docs/KERNELS.md` records the guarded kernels once measured against
//! it, and why none stayed).
//!
//! Results are bit-identical to the scalar loop: sessions are
//! independent, every session is visited exactly once per batch, and
//! the body computes exactly the scalar step's outcome — the property
//! suites pin states, registers, finished counts, step counts and
//! snapshots across both paths. Every arm also reports how many
//! sessions *entered a finish state* ([`BatchTally::finished`]), summed
//! beside the transition count it already keeps, which is what lets the
//! session store hold an eager finished count.

use stategen_core::compiled::NO_TRANSITION;
use stategen_core::{CompiledMachine, MessageId};

/// What one batch delivery did: the sum over the block's live sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct BatchTally {
    /// Transitions taken.
    pub(crate) transitions: u64,
    /// Of those, transitions into a finish state. Finish states are
    /// absorbing, so each is one session newly finished.
    pub(crate) finished: u64,
}

/// True when every id in `states` equals the first — the *lockstep*
/// batch shape (a pool spawned together and fed the same feed), the
/// dominant serving pattern. Computed as a branch-free OR-fold so the
/// scan vectorizes.
fn uniform(states: &[u32]) -> bool {
    let s0 = states[0];
    states.iter().fold(0, |acc, &s| acc | (s ^ s0)) == 0
}

/// Dense-tier batch kernel: one pass over `states`, each session
/// reading its next state from `message`'s table column. Out-of-range
/// ids (retired slots) clamp onto the column's skip entry and stay
/// untouched.
pub(crate) fn dense_batch(
    machine: &CompiledMachine,
    message: MessageId,
    states: &mut [u32],
) -> BatchTally {
    let (targets, enters_finish) = machine.column(message);
    let skip = machine.state_count();
    let Some(&first) = states.first() else {
        return BatchTally::default();
    };
    // Lockstep fast path: the cell is read once and the whole SoA
    // column becomes a constant fill.
    let (mut transitions, mut finished) = (0u64, 0u64);
    if uniform(states) {
        let state = (first as usize).min(skip);
        if targets[state] != NO_TRANSITION {
            states.fill(targets[state]);
            transitions = states.len() as u64;
            finished = transitions * u64::from(enters_finish[state]);
        }
    } else {
        for st in states.iter_mut() {
            let state = (*st as usize).min(skip);
            let target = targets[state];
            let took = target != NO_TRANSITION;
            *st = if took { target } else { *st };
            transitions += u64::from(took);
            finished += u64::from(enters_finish[state]);
        }
    }
    BatchTally {
        transitions,
        finished,
    }
}

#[cfg(test)]
mod tests {
    use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
    use stategen_core::{FlatIr, StateMachineBuilder, StateRole};

    use super::*;
    use crate::step::StepEngine;

    const RETIRED: u32 = u32::MAX;

    fn tally(transitions: u64, finished: u64) -> BatchTally {
        BatchTally {
            transitions,
            finished,
        }
    }

    /// `s0 -a-> s1 -a-> FIN`, dense.
    fn dense() -> (CompiledMachine, MessageId) {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("FIN", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![]);
        b.add_transition(s1, "a", fin, vec![]);
        let machine = CompiledMachine::compile_ir(&FlatIr::from_machine(&b.build(s0))).unwrap();
        let a = machine.message_id("a").unwrap();
        (machine, a)
    }

    /// The degenerate pools take the lockstep arm — a pool of nothing
    /// but retired slots is "uniform" at the skip entry, a one-session
    /// pool trivially — and a retired slot beside a live one takes the
    /// gather, which must leave it alone; all report exact tallies.
    #[test]
    fn dense_retired_only_and_single_session_pools() {
        let (machine, a) = dense();
        assert_eq!(dense_batch(&machine, a, &mut []), tally(0, 0));
        let mut retired = [RETIRED; 5];
        assert_eq!(dense_batch(&machine, a, &mut retired), tally(0, 0));
        assert_eq!(retired, [RETIRED; 5]);
        let mut one = [0];
        assert_eq!(dense_batch(&machine, a, &mut one), tally(1, 0));
        assert_eq!(dense_batch(&machine, a, &mut one), tally(1, 1));
        assert_eq!(dense_batch(&machine, a, &mut one), tally(0, 0));
        assert_eq!(one, [2]);
        let mut holed = [RETIRED, 1, 0, 2, RETIRED];
        assert_eq!(dense_batch(&machine, a, &mut holed), tally(2, 1));
        assert_eq!(holed, [RETIRED, 2, 1, 2, RETIRED]);
    }

    /// The same shapes on a guarded machine's walk, through the
    /// interpreted engine: `tick` counts `n` up to the limit 2 in
    /// `counting`, then enters the finish state.
    #[test]
    fn efsm_retired_only_and_single_session_pools() {
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let limit = b.add_param("limit");
        let n = b.add_var("n");
        let counting = b.add_state("counting");
        let done = b.add_state("done");
        let next = LinExpr::var(n).plus_const(1);
        for (op, to) in [(CmpOp::Lt, counting), (CmpOp::Ge, done)] {
            let guard = Guard::when(next.clone(), op, LinExpr::param(limit));
            b.add_transition(counting, "tick", guard, vec![Update::Inc(n)], vec![], to);
        }
        let ir = FlatIr::from_efsm(&b.build(counting, Some(done)));
        let engine = StepEngine::interpreted(ir, &[2]).unwrap();
        let tick = engine.message_id("tick").unwrap();
        let regs = engine.reg_count();
        let mut spill = vec![0; engine.scratch_len()];
        let mut run = |states: &mut [u32], vars: &mut [i64]| {
            engine.deliver_batch(tick, states, vars, &mut spill)
        };
        let mut retired = [RETIRED; 3];
        assert_eq!(run(&mut retired, &mut vec![0; 3 * regs]), tally(0, 0));
        assert_eq!(retired, [RETIRED; 3]);
        let (mut one, mut vars) = ([0], vec![0; regs]);
        assert_eq!(run(&mut one, &mut vars), tally(1, 0));
        assert_eq!(run(&mut one, &mut vars), tally(1, 1));
        assert_eq!(run(&mut one, &mut vars), tally(0, 0));
        assert_eq!((one, vars[0]), ([1], 2));
        // A divergent block: a retired slot, a fresh session, one a
        // tick in.
        let mut holed = [RETIRED, 0, 0];
        let mut vars = vec![0; 3 * regs];
        vars[2 * regs] = 1;
        assert_eq!(run(&mut holed, &mut vars), tally(2, 1));
        assert_eq!(holed, [RETIRED, 0, 1]);
    }
}
