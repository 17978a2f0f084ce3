//! Branchless batch kernels: `(state, message)`-bucketed dispatch for
//! the dense and compiled-EFSM tiers.
//!
//! The scalar batch walk in [`session`](crate::session) steps each
//! session through [`CompiledMachine::step`] /
//! [`CompiledEfsm::step`] — a per-session table walk whose
//! applicability test and candidate cascade are data-dependent
//! branches. This module restructures the batch into the
//! write-mask idiom: sessions are bucketed by current state with a
//! counting sort into a reusable scratch index (no allocation), and
//! each `(state, message)` bucket is then stepped by a single loop whose
//! table cell — target, fused check constants — is hoisted out of the
//! loop, leaving only straight-line loads, masked compares
//! and stores in the body.
//!
//! * **Dense tier** — every session in a bucket shares one table cell,
//!   so the bucket body degenerates to a constant scatter over the SoA
//!   state array.
//! * **EFSM tier** — a bucket shares one bound dispatch cell, so the
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
//! chain on a single counter). A vectorized uniformity scan detects it
//! and the batch is served as a single pre-bucketed contiguous run: the
//! dense tier collapses to one cell read plus a constant fill of the
//! state column, the EFSM tier to one masked sweep with affine
//! addressing and no `order` indirection.
//!
//! Results are bit-identical to the scalar loops: sessions are
//! independent, every session is visited exactly once per batch, and
//! each bucket body computes exactly the scalar step's outcome — the
//! property suites pin states, registers, finished counts, step counts
//! and snapshots across both paths. The kernels write states and
//! registers only: finish states are absorbing, so finished-ness is
//! derivable from the state array and the
//! [`SessionStore`](crate::SessionStore) rebuilds its bitset lazily.

use crate::compiled::CompiledMachine;
use crate::efsm_compiled::{BoundCand, BoundCell, CompiledEfsm, EfsmBinding, NO_INC16, SPILL};
use crate::machine::MessageId;

/// Reusable bucketing scratch for the batch kernels: a counting-sort
/// index of sessions grouped by current state.
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

/// Dense-tier batch kernel: buckets `states` by current state and steps
/// each bucket with its hoisted table cell; returns the transitions
/// taken. Out-of-range ids (retired slots) are skipped untouched.
pub(crate) fn dense_batch(
    machine: &CompiledMachine,
    message: MessageId,
    states: &mut [u32],
    scratch: &mut KernelScratch,
) -> u64 {
    if states.is_empty() {
        return 0;
    }
    let n_states = machine.state_count();
    let column = machine.column(message);
    let stride = machine.message_column_classes();
    let targets = machine.targets();
    // Lockstep fast path: one shared state means one bucket, and one
    // bucket needs no sort — the cell is read once and the whole SoA
    // column becomes a constant fill.
    if uniform(states) {
        let state = states[0] as usize;
        if state >= n_states {
            return 0; // every slot retired
        }
        let target = targets[state * stride + column];
        if target == crate::compiled::NO_TRANSITION {
            return 0;
        }
        states.fill(target);
        return states.len() as u64;
    }
    scratch.bucket(states, n_states);
    let mut transitions = 0u64;
    let mut start = 0usize;
    for state in 0..n_states {
        let end = scratch.counts[state] as usize;
        if end == start {
            continue;
        }
        let bucket = &scratch.order[start..end];
        start = end;
        // The whole bucket shares one table cell: hoist the load.
        let target = targets[state * stride + column];
        if target == crate::compiled::NO_TRANSITION {
            continue;
        }
        transitions += bucket.len() as u64;
        for &i in bucket {
            states[i as usize] = target;
        }
    }
    transitions
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
/// with no `order` indirection and no per-session re-slice.
fn sweep_range<const C0: usize, const C1: usize>(
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    state: u32,
    h0: &HoistedCand,
    h1: &HoistedCand,
) -> u64 {
    assert_lanes(h0, h1, n_regs);
    let mut transitions = 0u64;
    for (st, row) in states.iter_mut().zip(vars.chunks_exact_mut(n_regs)) {
        let (p0, p1) = masked_step_row::<C0, C1>(st, row, state, h0, h1);
        transitions += (p0 | p1) as u64;
    }
    transitions
}

/// The masked column sweep over one scattered EFSM bucket: every
/// session listed in `bucket` is in `state`, shares the two hoisted
/// candidates, and is stepped with no data-dependent branch — check
/// outcomes, candidate selection, the inline increment and the state
/// write are all computed as 0/1 masks.
fn sweep_bucket<const C0: usize, const C1: usize>(
    bucket: &[u32],
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    state: u32,
    h0: &HoistedCand,
    h1: &HoistedCand,
) -> u64 {
    assert_lanes(h0, h1, n_regs);
    let mut transitions = 0u64;
    for &i in bucket {
        let (p0, p1) = masked_step::<C0, C1>(i as usize, states, vars, n_regs, state, h0, h1);
        transitions += (p0 | p1) as u64;
    }
    transitions
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

/// Dispatches the lockstep contiguous run to the monomorphic
/// [`sweep_range`] matching its cell's candidate/check shape.
fn sweep_cell_range(
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    state: u32,
    cell: &BoundCell,
    dummy: usize,
) -> u64 {
    let (h0, c0, h1, c1) = hoist_cell(cell, dummy);
    macro_rules! sweep {
        ($a:expr, $b:expr) => {
            sweep_range::<$a, $b>(states, vars, n_regs, state, &h0, &h1)
        };
    }
    dispatch_shape!(c0, c1, sweep)
}

/// Dispatches one scattered bucket to the monomorphic [`sweep_bucket`]
/// matching its cell's candidate/check shape.
fn sweep_cell_bucket(
    bucket: &[u32],
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    state: u32,
    cell: &BoundCell,
    dummy: usize,
) -> u64 {
    let (h0, c0, h1, c1) = hoist_cell(cell, dummy);
    macro_rules! sweep {
        ($a:expr, $b:expr) => {
            sweep_bucket::<$a, $b>(bucket, states, vars, n_regs, state, &h0, &h1)
        };
    }
    dispatch_shape!(c0, c1, sweep)
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
) -> u64 {
    let mut transitions = 0u64;
    for i in sessions {
        let regs = &mut vars[i * n_regs..][..n_regs];
        if let Some((target, _actions)) = machine.step(state, message, binding, regs, spill_scratch)
        {
            states[i] = target;
            transitions += 1;
        }
    }
    transitions
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
) -> u64 {
    if states.is_empty() {
        return 0;
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
    let dummy = machine.dummy_reg();
    // Lockstep fast path: one shared state means one bucket — skip the
    // sort and sweep the contiguous session range directly.
    if uniform(states) {
        let state = states[0] as usize;
        if state >= n_states {
            return 0; // every slot retired
        }
        let cell = &cells[state * stride + message.index()];
        if cell.count == 0 {
            return 0;
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
        return sweep_cell_range(states, vars, n_regs, state as u32, cell, dummy);
    }
    scratch.bucket(states, n_states);
    let mut transitions = 0u64;
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
        if cell.count == SPILL {
            // Non-fused updates (general bytecode, deep candidate
            // lists): scalar fallback, hoisted per bucket.
            transitions += spill_bucket(
                bucket.iter().map(|&i| i as usize),
                machine,
                binding,
                message,
                state as u32,
                states,
                vars,
                n_regs,
                spill_scratch,
            );
            continue;
        }
        transitions += sweep_cell_bucket(bucket, states, vars, n_regs, state as u32, cell, dummy);
    }
    transitions
}
