//! Branchless batch kernels: a one-pass column gather for the dense
//! tier, `(state, message)`-bucketed masked sweeps for the
//! compiled-EFSM tier.
//!
//! The scalar batch walk in [`session`](crate::session) steps each
//! session through [`CompiledMachine::step`] /
//! [`CompiledEfsm::step`] — a per-session table walk whose
//! applicability test and candidate cascade are data-dependent
//! branches. A batch delivers *one* message, so this module hoists
//! everything that message fixes out of the per-session loop and leaves
//! only straight-line loads, compares and stores in the body.
//!
//! * **Dense tier** — the message selects one column of the
//!   column-major transition table, so the whole batch is a single
//!   affine pass over the state array: `next = column[state]`, with
//!   out-of-range ids (retired slots) clamped onto the column's
//!   trailing skip entry. No sort, no index, no scratch.
//! * **EFSM tier** — sessions are bucketed by current state with a
//!   counting sort into a reusable scratch index ([`KernelScratch`], no
//!   allocation), and a bucket shares one bound dispatch cell, so the
//!   canonical fused check `sign·vars[v] + bound ≤ 0` (already lowered
//!   to the branch-free `(v ^ m) − m + threshold` form by
//!   [`CompiledEfsm::bind`]) is evaluated as a masked compare swept
//!   down the bucket's register column; candidate selection, the inline
//!   increment and the state write are all mask arithmetic. Only cells
//!   outside the flat two-candidate shape (general bytecode, deep
//!   candidate lists) fall back to the scalar
//!   [`CompiledEfsm::step`] path, per bucket, not per batch.
//!
//! Both kernels short-circuit the *lockstep* batch shape — every
//! session in the same state, the dominant pattern for a pool spawned
//! together and fed one message feed, and the counting sort's worst
//! case (one bucket turns both counting passes into a serial dependency
//! chain on a single counter). A vectorized uniformity scan detects it:
//! the dense tier collapses to one cell read plus a constant fill of
//! the state column, the EFSM tier to one masked sweep with affine
//! addressing and no `order` indirection.
//!
//! Results are bit-identical to the scalar loops: sessions are
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

/// Reusable bucketing scratch for the *register* (compiled-EFSM) tier's
/// batch kernel: a counting-sort index of sessions grouped by current
/// state. The dense and interpreted tiers never touch it.
///
/// Create once per store and reuse across batches — the
/// buffers grow to the store's session count and the machine's state
/// count on first use and never shrink, so steady-state batches do not
/// allocate.
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    /// Per-bucket offsets: during the scatter, `counts[b]` is the next
    /// write position of bucket `b`; after it, the bucket's *end*
    /// offset (bucket `b` spans `counts[b-1]..counts[b]` of `order`).
    counts: Vec<u32>,
    /// Session indices grouped by state bucket, stable within a bucket
    /// (ascending session order).
    order: Vec<u32>,
}

impl KernelScratch {
    /// An empty scratch; buffers are sized lazily by the first batch.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Counting-sorts `states` into `n_states + 1` buckets: one per
    /// dense state id plus a trailing *skip* bucket collecting every
    /// out-of-range id (retired-slot sentinels). Stable: within a
    /// bucket, `order` keeps ascending session order.
    fn bucket(&mut self, states: &[u32], n_states: usize) {
        debug_assert!(u32::try_from(states.len()).is_ok());
        let buckets = n_states + 1;
        if self.counts.len() < buckets {
            self.counts.resize(buckets, 0);
        }
        if self.order.len() < states.len() {
            self.order.resize(states.len(), 0);
        }
        let counts = &mut self.counts[..buckets];
        counts.fill(0);
        for &s in states {
            counts[(s as usize).min(n_states)] += 1;
        }
        // Exclusive prefix sums: counts[b] becomes bucket b's start.
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let n = *c;
            *c = sum;
            sum += n;
        }
        // Stable scatter, bumping each bucket's cursor to its end.
        let order = &mut self.order[..states.len()];
        for (i, &s) in states.iter().enumerate() {
            let b = (s as usize).min(n_states);
            order[counts[b] as usize] = i as u32;
            counts[b] += 1;
        }
    }
}

/// True when every id in `states` equals the first — the *lockstep*
/// batch shape (a pool spawned together and fed the same feed), which
/// is the dominant serving pattern and the counting sort's worst case:
/// with every session landing in one bucket, both counting passes
/// degenerate into a serial dependency chain on a single counter.
/// Computed as a branch-free OR-fold so the scan vectorizes.
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

/// One [`BoundCand`] with its per-bucket constants pre-resolved for the
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
/// invokes `$sweep!(C0, C1)` with the matching const parameters, so
/// the contiguous-range and bucketed sweeps dispatch to the same
/// monomorphizations without duplicating the match.
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
/// caller asserts every lane index `< row.len()` once per bucket, so
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
    // Masked inline increments, gated per bucket (the `inc_amt` tests
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

/// [`masked_step_row`] addressed by session index — the bucketed
/// sweep's form, where sessions arrive as a scattered index list and
/// each row is re-sliced from the session-major register file.
#[inline(always)]
fn masked_step<const C0: usize, const C1: usize>(
    i: usize,
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    state: u32,
    h0: &HoistedCand,
    h1: &HoistedCand,
) -> (i64, i64) {
    masked_step_row::<C0, C1>(
        &mut states[i],
        &mut vars[i * n_regs..][..n_regs],
        state,
        h0,
        h1,
    )
}

/// Asserts once per bucket that every hoisted lane index addresses the
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
/// with no `order` indirection and no per-session re-slice. Returns how
/// many sessions took a transition and how many of those the *second*
/// candidate (the first's count is the difference — and with one
/// candidate the second sum is a constant zero that folds away).
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

/// The masked column sweep over one scattered EFSM bucket: every
/// session listed in `bucket` is in `state`, shares the two hoisted
/// candidates, and is stepped with no data-dependent branch — check
/// outcomes, candidate selection, the inline increment and the state
/// write are all computed as 0/1 masks. Returns the same pair of counts
/// as [`sweep_range`].
fn sweep_bucket<const C0: usize, const C1: usize>(
    bucket: &[u32],
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    state: u32,
    h0: &HoistedCand,
    h1: &HoistedCand,
) -> (u64, u64) {
    assert_lanes(h0, h1, n_regs);
    let mut taken = (0u64, 0u64);
    for &i in bucket {
        let (p0, p1) = masked_step::<C0, C1>(i as usize, states, vars, n_regs, state, h0, h1);
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
/// target is one — two multiplies per bucket, nothing per session.
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

/// Dispatches one scattered bucket to the monomorphic [`sweep_bucket`]
/// matching its cell's candidate/check shape.
fn sweep_cell_bucket(
    bucket: &[u32],
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
            sweep_bucket::<$a, $b>(bucket, states, vars, n_regs, state, &h0, &h1)
        };
    }
    tally(
        dispatch_shape!(c0, c1, sweep),
        &h0,
        &h1,
        machine.finish_flags(),
    )
}

/// The scalar fallback for a spilled `(state, message)` cell (general
/// bytecode, deep candidate lists): every yielded session steps through
/// [`CompiledEfsm::step`]. Shares the index-stream shape with
/// [`sweep_bucket`] so both the bucketed and lockstep paths reuse it.
#[allow(clippy::too_many_arguments)]
fn spill_bucket(
    sessions: impl Iterator<Item = usize>,
    machine: &CompiledEfsm,
    binding: &EfsmBinding,
    message: MessageId,
    state: u32,
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    spill_scratch: &mut [i64],
) -> BatchTally {
    let mut tally = BatchTally::default();
    for i in sessions {
        let regs = &mut vars[i * n_regs..][..n_regs];
        if let Some((target, _actions)) = machine.step(state, message, binding, regs, spill_scratch)
        {
            states[i] = target;
            tally.transitions += 1;
            tally.finished += u64::from(machine.is_finish_state(target));
        }
    }
    tally
}

/// EFSM-tier batch kernel: buckets `states` by current state, sweeps
/// each flat-cell bucket with masked compares over the register
/// columns, and falls back to the scalar [`CompiledEfsm::step`] only
/// for buckets whose cell spilled to the general tables. `vars` holds
/// [`CompiledEfsm::reg_count`] registers per session, `spill_scratch`
/// at least [`CompiledEfsm::scratch_len`] slots; out-of-range ids
/// (retired slots) are skipped with their registers untouched.
pub(crate) fn efsm_batch(
    machine: &CompiledEfsm,
    binding: &EfsmBinding,
    message: MessageId,
    states: &mut [u32],
    vars: &mut [i64],
    spill_scratch: &mut [i64],
    scratch: &mut KernelScratch,
) -> BatchTally {
    let mut tally = BatchTally::default();
    if states.is_empty() {
        return tally;
    }
    let n_states = machine.state_count();
    let n_regs = machine.reg_count();
    debug_assert_eq!(vars.len(), states.len() * n_regs);
    debug_assert!(
        message.index() < machine.messages().len(),
        "message id from a different machine"
    );
    let stride = machine.msg_stride();
    let cells = binding.cells();
    // Lockstep fast path: one shared state means one bucket — skip the
    // sort and sweep the contiguous session range directly.
    if uniform(states) {
        let state = states[0] as usize;
        if state >= n_states {
            return tally; // every slot retired
        }
        let cell = &cells[state * stride + message.index()];
        if cell.count == 0 {
            return tally;
        }
        if cell.count == SPILL {
            return spill_bucket(
                0..states.len(),
                machine,
                binding,
                message,
                state as u32,
                states,
                vars,
                n_regs,
                spill_scratch,
            );
        }
        return sweep_cell_range(states, vars, state as u32, cell, machine);
    }
    scratch.bucket(states, n_states);
    let mut start = 0usize;
    for state in 0..n_states {
        let end = scratch.counts[state] as usize;
        if end == start {
            continue;
        }
        let bucket = &scratch.order[start..end];
        start = end;
        // The whole bucket shares one bound dispatch cell.
        let cell = &cells[state * stride + message.index()];
        if cell.count == 0 {
            continue;
        }
        tally += if cell.count == SPILL {
            // Non-fused updates (general bytecode, deep candidate
            // lists): scalar fallback, hoisted per bucket.
            spill_bucket(
                bucket.iter().map(|&i| i as usize),
                machine,
                binding,
                message,
                state as u32,
                states,
                vars,
                n_regs,
                spill_scratch,
            )
        } else {
            sweep_cell_bucket(bucket, states, vars, state as u32, cell, machine)
        };
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
    use crate::machine::{StateMachineBuilder, StateRole};

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

    /// The same shapes on the register tier: `tick` counts `n` up to the
    /// limit 2 in `counting`, then enters the finish state.
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
        let binding = machine.bind(&[2]);
        let tick = machine.message_id("tick").unwrap();
        let regs = machine.reg_count();
        let mut scratch = KernelScratch::new();
        let mut spill = vec![0; machine.scratch_len()];
        let mut run = |states: &mut [u32], vars: &mut [i64]| {
            efsm_batch(
                &machine,
                &binding,
                tick,
                states,
                vars,
                &mut spill,
                &mut scratch,
            )
        };
        let mut retired = [RETIRED; 3];
        assert_eq!(run(&mut retired, &mut vec![0; 3 * regs]), tally(0, 0));
        assert_eq!(retired, [RETIRED; 3]);
        let (mut one, mut vars) = ([0], vec![0; regs]);
        assert_eq!(run(&mut one, &mut vars), tally(1, 0));
        assert_eq!(run(&mut one, &mut vars), tally(1, 1));
        assert_eq!(run(&mut one, &mut vars), tally(0, 0));
        assert_eq!((one, vars[0]), ([1], 2));
        // Bucketed arm: a retired slot, a fresh session, one a tick in.
        let mut holed = [RETIRED, 0, 0];
        let mut vars = vec![0; 3 * regs];
        vars[2 * regs] = 1;
        assert_eq!(run(&mut holed, &mut vars), tally(2, 1));
        assert_eq!(holed, [RETIRED, 0, 1]);
    }
}
