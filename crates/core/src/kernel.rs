//! Branchless batch kernels: a one-pass column gather for the dense
//! tier, a masked lockstep sweep for the register tier.
//!
//! The scalar batch walk ([`StepEngine::walk_batch`](crate::StepEngine))
//! steps each session through the tier's single-session step — a
//! per-session table walk whose applicability test and candidate
//! cascade are data-dependent branches. A batch delivers *one* message,
//! so this module hoists everything that message fixes out of the
//! per-session loop and leaves only straight-line loads, compares and
//! stores in the body.
//!
//! * **Dense tier** — the message selects one column of the
//!   column-major transition table, so the whole batch is a single
//!   affine pass over the state array: `next = column[state]`, with
//!   out-of-range ids (retired slots) clamped onto the column's
//!   trailing skip entry. No sort, no index, no scratch.
//! * **Register tier** — only the *lockstep* batch shape (every session
//!   in the same state, the dominant pattern for a pool spawned together
//!   and fed one message feed) has a kernel: the pool shares one bound
//!   dispatch cell, so the canonical fused check `sign·vars[v] + bound ≤
//!   0` (already lowered to the branch-free `(v ^ m) − m + threshold`
//!   form by [`CompiledEfsm::bind`]) is evaluated as a masked compare
//!   swept down the contiguous register file; candidate selection, the
//!   inline increment and the state write are all mask arithmetic. A
//!   divergent pool — or a cell outside the flat two-candidate shape —
//!   is left to the scalar walk: bucketing sessions by state to reuse
//!   the sweep measured level with that walk (`docs/KERNELS.md`).
//!
//! A vectorized uniformity scan detects the lockstep shape; on the dense
//! tier it collapses the batch to one cell read plus a constant fill of
//! the state column.
//!
//! Results are bit-identical to the scalar loop: sessions are
//! independent, every session is visited exactly once per batch, and
//! each body computes exactly the scalar step's outcome — the property
//! suites pin states, registers, finished counts, step counts and
//! snapshots across both paths. Every arm also reports how many
//! sessions *entered a finish state* ([`BatchTally::finished`]), summed
//! beside the transition count it already keeps, which is what lets the
//! [`SessionStore`](crate::SessionStore) hold an eager finished count.

use crate::compiled::{CompiledMachine, NO_TRANSITION};
use crate::efsm_compiled::{BoundCand, BoundCell, CompiledEfsm, EfsmBinding, NO_INC16, SPILL};
use crate::machine::MessageId;

/// What one batch delivery did: the sum over the block's live sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchTally {
    /// Transitions taken.
    pub transitions: u64,
    /// Of those, transitions into a finish state. Finish states are
    /// absorbing, so each is one session newly finished.
    pub finished: u64,
}

impl std::ops::AddAssign for BatchTally {
    fn add_assign(&mut self, other: BatchTally) {
        self.transitions += other.transitions;
        self.finished += other.finished;
    }
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

/// One [`BoundCand`] with its per-batch constants pre-resolved for the
/// masked sweep: absent checks are padded to *always pass* (they read
/// the always-zero dummy register with threshold 0), an absent inline
/// increment becomes a masked `+= 0` to the dummy register.
struct HoistedCand {
    v0: usize,
    m0: i64,
    t0: i64,
    v1: usize,
    m1: i64,
    t1: i64,
    inc: usize,
    inc_amt: i64,
    target: u32,
}

impl HoistedCand {
    fn from_cand(cand: &BoundCand, dummy: usize) -> Self {
        let n = cand.check_count;
        let c0 = cand.checks[0];
        let c1 = cand.checks[1];
        let (v0, m0, t0) = if n >= 1 {
            (c0.var as usize, i64::from(c0.neg), c0.threshold)
        } else {
            (dummy, 0, 0)
        };
        let (v1, m1, t1) = if n >= 2 {
            (c1.var as usize, i64::from(c1.neg), c1.threshold)
        } else {
            (dummy, 0, 0)
        };
        let (inc, inc_amt) = if cand.inc_var == NO_INC16 {
            (dummy, 0)
        } else {
            (cand.inc_var as usize, 1)
        };
        HoistedCand {
            v0,
            m0,
            t0,
            v1,
            m1,
            t1,
            inc,
            inc_amt,
            target: cand.target,
        }
    }

    /// The padding candidate for one-candidate cells: its first check
    /// reads the always-zero dummy register against threshold 1, so
    /// `0 + 1 > 0` fails it for every session and its masks are all
    /// zero.
    fn never(dummy: usize) -> Self {
        HoistedCand {
            v0: dummy,
            m0: 0,
            t0: 1,
            v1: dummy,
            m1: 0,
            t1: 0,
            inc: dummy,
            inc_amt: 0,
            target: 0,
        }
    }
}

/// Const-generic check-count sentinel: a `C1` of `NO_CAND` means the
/// cell has no second candidate at all, so its checks, increment and
/// target drop out of the monomorphized sweep body entirely.
const NO_CAND: usize = 3;

/// Expands the reachable `(check_count₀, check_count₁)` shape space —
/// each candidate carries at most two fused checks, and a cell at most
/// two candidates (anything deeper spills) — into a 12-arm match that
/// invokes `$sweep!(C0, C1)` with the matching const parameters.
macro_rules! dispatch_shape {
    ($c0:expr, $c1:expr, $sweep:ident) => {
        match ($c0, $c1) {
            (0, NO_CAND) => $sweep!(0, NO_CAND),
            (1, NO_CAND) => $sweep!(1, NO_CAND),
            (2, NO_CAND) => $sweep!(2, NO_CAND),
            (0, 0) => $sweep!(0, 0),
            (0, 1) => $sweep!(0, 1),
            (0, 2) => $sweep!(0, 2),
            (1, 0) => $sweep!(1, 0),
            (1, 1) => $sweep!(1, 1),
            (1, 2) => $sweep!(1, 2),
            (2, 0) => $sweep!(2, 0),
            (2, 1) => $sweep!(2, 1),
            (2, 2) => $sweep!(2, 2),
            shape => unreachable!("impossible fused-cell check shape {:?}", shape),
        }
    };
}

/// One masked EFSM step over a borrowed register row, monomorphized per
/// cell shape: `C0`/`C1` are the candidates' fused-check counts (with
/// `C1 == NO_CAND` for one-candidate cells), so absent checks cost
/// nothing instead of a padded dummy-register load. Evaluates the live
/// checks as 0/1 masks, applies the masked inline increments and the
/// masked state select, and returns the `(p0, p1)` take masks. The
/// caller asserts every lane index `< row.len()` once per batch, so
/// the row accesses below fold their bounds checks away.
#[inline(always)]
fn masked_step_row<const C0: usize, const C1: usize>(
    st: &mut u32,
    row: &mut [i64],
    state: u32,
    h0: &HoistedCand,
    h1: &HoistedCand,
) -> (i64, i64) {
    // Fused checks, `(v ^ m) − m + threshold > 0` = *fail*: the loads
    // and compares are independent and branch-free (the `C`-bounds are
    // compile-time constants, not branches).
    let f00 = if C0 >= 1 {
        i64::from((row[h0.v0] ^ h0.m0) - h0.m0 + h0.t0 > 0)
    } else {
        0
    };
    let f01 = if C0 >= 2 {
        i64::from((row[h0.v1] ^ h0.m1) - h0.m1 + h0.t1 > 0)
    } else {
        0
    };
    let p0 = (f00 | f01) ^ 1;
    let p1 = if C1 == NO_CAND {
        0
    } else {
        let f10 = if C1 >= 1 {
            i64::from((row[h1.v0] ^ h1.m0) - h1.m0 + h1.t0 > 0)
        } else {
            0
        };
        let f11 = if C1 >= 2 {
            i64::from((row[h1.v1] ^ h1.m1) - h1.m1 + h1.t1 > 0)
        } else {
            0
        };
        ((f10 | f11) ^ 1) & (p0 ^ 1)
    };
    // Masked inline increments, gated per batch (the `inc_amt` tests
    // are loop-invariant — perfectly predicted, and they drop the
    // read-modify-write for increment-free candidates).
    if h0.inc_amt != 0 {
        row[h0.inc] += p0;
    }
    if C1 != NO_CAND && h1.inc_amt != 0 {
        row[h1.inc] += p1;
    }
    // Masked select over {cand0 target, cand1 target, stay}.
    let (m0, m1) = ((p0 as u32).wrapping_neg(), (p1 as u32).wrapping_neg());
    *st = (h0.target & m0) | (h1.target & m1) | (state & !(m0 | m1));
    (p0, p1)
}

/// Asserts once per batch that every hoisted lane index addresses the
/// per-session register row, letting the row accesses inside the sweep
/// fold their bounds checks into the loop induction.
#[inline(always)]
fn assert_lanes(h0: &HoistedCand, h1: &HoistedCand, n_regs: usize) {
    assert!(
        h0.v0 < n_regs
            && h0.v1 < n_regs
            && h0.inc < n_regs
            && h1.v0 < n_regs
            && h1.v1 < n_regs
            && h1.inc < n_regs,
        "hoisted lane indices must address the register row"
    );
}

/// The masked column sweep over a *contiguous* run of sessions — the
/// lockstep fast path, where the whole store shares one state. Walking
/// `states` zipped with `chunks_exact_mut` rows gives affine addressing
/// with no per-session re-slice. Returns how many sessions took a
/// transition and how many of those the *second* candidate (the first's
/// count is the difference — and with one candidate the second sum is a
/// constant zero that folds away).
fn sweep_range<const C0: usize, const C1: usize>(
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    state: u32,
    h0: &HoistedCand,
    h1: &HoistedCand,
) -> (u64, u64) {
    assert_lanes(h0, h1, n_regs);
    let mut taken = (0u64, 0u64);
    for (st, row) in states.iter_mut().zip(vars.chunks_exact_mut(n_regs)) {
        let (p0, p1) = masked_step_row::<C0, C1>(st, row, state, h0, h1);
        taken = (taken.0 + (p0 | p1) as u64, taken.1 + p1 as u64);
    }
    taken
}

/// Pre-resolves one flat cell's candidates into their hoisted-constant
/// form plus the const-generic check-count shape for [`dispatch_shape!`]
/// (`NO_CAND` when the cell has a single candidate).
fn hoist_cell(cell: &BoundCell, dummy: usize) -> (HoistedCand, usize, HoistedCand, usize) {
    let h0 = HoistedCand::from_cand(&cell.cands[0], dummy);
    let c0 = cell.cands[0].check_count as usize;
    let (h1, c1) = if cell.count >= 2 {
        (
            HoistedCand::from_cand(&cell.cands[1], dummy),
            cell.cands[1].check_count as usize,
        )
    } else {
        (HoistedCand::never(dummy), NO_CAND)
    };
    (h0, c0, h1, c1)
}

/// A sweep's `(taken, of those the second candidate)` counts as a
/// tally: each candidate's takes enter a finish state if its hoisted
/// target is one — two multiplies per batch, nothing per session.
fn tally(taken: (u64, u64), h0: &HoistedCand, h1: &HoistedCand, finish: &[bool]) -> BatchTally {
    let entered = |h: &HoistedCand| u64::from(finish[h.target as usize]);
    BatchTally {
        transitions: taken.0,
        finished: (taken.0 - taken.1) * entered(h0) + taken.1 * entered(h1),
    }
}

/// Dispatches the lockstep contiguous run to the monomorphic
/// [`sweep_range`] matching its cell's candidate/check shape.
fn sweep_cell_range(
    states: &mut [u32],
    vars: &mut [i64],
    state: u32,
    cell: &BoundCell,
    machine: &CompiledEfsm,
) -> BatchTally {
    let n_regs = machine.reg_count();
    let (h0, c0, h1, c1) = hoist_cell(cell, machine.dummy_reg());
    macro_rules! sweep {
        ($a:expr, $b:expr) => {
            sweep_range::<$a, $b>(states, vars, n_regs, state, &h0, &h1)
        };
    }
    tally(
        dispatch_shape!(c0, c1, sweep),
        &h0,
        &h1,
        machine.finish_flags(),
    )
}

/// Register-tier lockstep kernel: if every session of the block shares
/// one state whose `(state, message)` cell has the flat fused shape,
/// sweeps the whole block with masked compares and returns its tally
/// (zero for a pool of nothing but retired slots, or a cell with no
/// candidate). Returns `None` — nothing touched — for a divergent block
/// or a cell that spilled to the general tables: the caller's scalar
/// walk serves those. `vars` holds [`CompiledEfsm::reg_count`]
/// registers per session; `message` must be in the alphabet.
pub(crate) fn efsm_lockstep(
    machine: &CompiledEfsm,
    binding: &EfsmBinding,
    message: MessageId,
    states: &mut [u32],
    vars: &mut [i64],
) -> Option<BatchTally> {
    let Some(&first) = states.first() else {
        return Some(BatchTally::default());
    };
    if !uniform(states) {
        return None;
    }
    let state = first as usize;
    if state >= machine.state_count() {
        return Some(BatchTally::default()); // every slot retired
    }
    debug_assert_eq!(vars.len(), states.len() * machine.reg_count());
    let cell = &binding.cells()[state * machine.msg_stride() + message.index()];
    match cell.count {
        0 => Some(BatchTally::default()),
        SPILL => None,
        _ => Some(sweep_cell_range(states, vars, first, cell, machine)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
    use crate::machine::{StateMachineBuilder, StateRole};
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
        let machine = CompiledMachine::compile(&b.build(s0));
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

    /// The same shapes on the register tier, through the engine (the
    /// lockstep sweep, else the walk): `tick` counts `n` up to the limit
    /// 2 in `counting`, then enters the finish state.
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
        let machine = CompiledEfsm::compile(&b.build(counting, Some(done))).unwrap();
        let engine = StepEngine::register(machine, &[2]).unwrap();
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
        // Divergent arm (the scalar walk): a retired slot, a fresh
        // session, one a tick in.
        let mut holed = [RETIRED, 0, 0];
        let mut vars = vec![0; 3 * regs];
        vars[2 * regs] = 1;
        assert_eq!(run(&mut holed, &mut vars), tally(2, 1));
        assert_eq!(holed, [RETIRED, 0, 1]);
    }
}
