//! Ahead-of-time compiled EFSMs: guard/update bytecode with
//! zero-allocation dispatch.
//!
//! The interpreted tier ([`FlatIr::step`]) walks `Guard`/`Update` enum
//! trees on every delivery: each guard condition chases two [`LinExpr`]
//! heap structures. That is the right tool for freshly built machines,
//! but too slow to deploy. [`CompiledEfsm`] is the EFSM analogue of
//! [`CompiledMachine`](crate::CompiledMachine) — a one-time *flattening*
//! pass (the transformation surveyed by Devroey et al., *State Machine
//! Flattening: Mapping Study and Assessment*) that lowers every guarded
//! transition into a flat register-machine form:
//!
//! * each condition `lhs op rhs` is normalised to `lhs − rhs op 0` and —
//!   when its variable part is a single ±1 term, the threshold shape
//!   every message-counting model produces — rewritten into the
//!   *canonical fused form* `sign·vars[v] + bound ≤ 0`: `<`, `>` and `≥`
//!   fold into `≤` by negating and adjusting the constant, `=` splits
//!   into two `≤` checks. Fused checks live in one contiguous array and
//!   evaluate with a multiply, an add and a compare — no opcode
//!   dispatch, no enum-tree pointer chasing;
//! * the `bound` of a fused check is a *parameter-linear* form folded to
//!   a single constant when an instance binds its parameters
//!   ([`CompiledEfsm::bind`]), so the per-message path never re-evaluates
//!   parameter arithmetic;
//! * the ubiquitous single-`Inc` update is an inline field of the
//!   transition record (`vars[v] += 1`, applied only after every check
//!   passed); everything else — multi-variable conditions, `≠`, `Set`
//!   updates — lowers to a compact register-machine bytecode
//!   (contiguous `Vec<Op>` + deduplicated constant pool) that stages
//!   update values into a fixed scratch buffer before committing,
//!   preserving the interpreter's read-pre-transition-values semantics;
//! * a dense `states × messages` cell table maps each `(state, message)`
//!   pair to its candidate transitions in priority order;
//! * an interned action arena identical to the FSM compiler's, so firing
//!   a transition returns a borrowed `&[Action]`.
//!
//! No delivery path allocates. Compilation also *validates*: two
//! transitions on the same `(state, message)` pair with identical guards
//! can never both be useful (the second silently loses every race in the
//! interpreter and would silently vanish from the dense table), so
//! [`CompiledEfsm::compile`] rejects them with
//! [`CompileError::DuplicateTransition`].
//!
//! Compilation is behaviour-preserving: stepping the lowered form is
//! observationally equivalent to [`IrInstance`](crate::IrInstance) on
//! the machine it was compiled from (asserted by the cross-engine
//! property suites in `stategen-commit` and `stategen-models`).
//!
//! # Examples
//!
//! ```
//! use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
//! use stategen_core::{Action, CompiledEfsm, Instance, ProtocolEngine, StepEngine};
//!
//! let mut b = EfsmBuilder::new("counter", ["tick"]);
//! let limit = b.add_param("limit");
//! let n = b.add_var("n");
//! let counting = b.add_state("counting");
//! let done = b.add_state("done");
//! b.add_transition(
//!     counting, "tick",
//!     Guard::when(LinExpr::var(n).plus_const(1), CmpOp::Lt, LinExpr::param(limit)),
//!     vec![Update::Inc(n)], vec![], counting,
//! );
//! b.add_transition(
//!     counting, "tick",
//!     Guard::when(LinExpr::var(n).plus_const(1), CmpOp::Ge, LinExpr::param(limit)),
//!     vec![Update::Inc(n)], vec![Action::send("done")], done,
//! );
//! let efsm = b.build(counting, Some(done));
//!
//! let compiled = CompiledEfsm::compile(&efsm)?;
//! let mut instance = Instance::new(StepEngine::register(compiled, &[2])?);
//! assert!(instance.deliver_ref("tick")?.is_empty());
//! assert_eq!(instance.deliver_ref("tick")?, [Action::send("done")]);
//! assert!(instance.is_finished());
//! assert_eq!(instance.vars(), &[2]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;

use crate::efsm::{CmpOp, Cond, Efsm, LinExpr, Operand, Update};
use crate::error::CompileError;
use crate::ir::{ActionArena, FlatIr, FlatState, FlatTransition};
use crate::machine::{Action, MessageId, StateRole};

/// Sentinel for "no inline increment" in a [`Candidate`].
const NO_INC: u32 = u32::MAX;

/// A fused guard condition in the canonical form
/// `sign · vars[var] + bounds[bound] ≤ 0`.
///
/// `sign` is −1, 0 or +1 (0 when the condition has no variable part), so
/// evaluation is a branchless multiply-add followed by one compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FusedCheck {
    sign: i32,
    var: u32,
    bound: u32,
}

/// One instruction of the generic fallback bytecode, used for conditions
/// and updates outside the fused shapes. Execution maintains a single
/// `i64` accumulator plus a small staging buffer for pending variable
/// writes; check ops precede update ops in a candidate's code range, so
/// a failed check aborts before any state is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `acc = consts[k]`.
    Const { k: u32 },
    /// `acc += consts[coeff] * vars[var]`.
    MulAddVar { var: u16, coeff: u32 },
    /// `acc += consts[coeff] * params[param]`.
    MulAddParam { param: u16, coeff: u32 },
    /// Condition `acc op 0`; on failure the candidate is abandoned and
    /// the next one tried.
    Check(CmpOp),
    /// `vars[var] += 1` (for multi-`Inc` updates on distinct variables).
    IncDirect { var: u16 },
    /// `scratch[slot] = acc` (a pending `var := expr` value).
    StageAcc { slot: u16 },
    /// `scratch[slot] = vars[var] + 1` (a pending `var := var + 1`).
    StageInc { var: u16, slot: u16 },
    /// `vars[var] = scratch[slot]` — performed after all stages, so every
    /// staged expression read the pre-transition values.
    CommitVar { var: u16, slot: u16 },
}

/// A parameter-linear form `constant + Σ coeff·param`, evaluated once
/// per parameter binding into a bound-constant table slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BoundForm {
    constant: i64,
    terms: Vec<(i64, u16)>,
}

impl BoundForm {
    fn eval(&self, params: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(coeff, p) in &self.terms {
            acc += coeff * params[p as usize];
        }
        acc
    }

    fn negated(&self) -> BoundForm {
        BoundForm {
            constant: -self.constant,
            terms: self.terms.iter().map(|&(c, p)| (-c, p)).collect(),
        }
    }

    fn plus_const(&self, c: i64) -> BoundForm {
        BoundForm {
            constant: self.constant + c,
            terms: self.terms.clone(),
        }
    }
}

/// `(offset, len)` range into the interned action arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ActionRange {
    offset: u32,
    len: u32,
}

/// One lowered guarded transition.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Range of fused checks (evaluated first).
    checks_start: u32,
    checks_end: u32,
    /// Range of fallback bytecode: generic checks, then updates. Empty
    /// for fully fused transitions.
    code_start: u32,
    code_end: u32,
    /// Inline single-`Inc` update (`NO_INC` when absent), applied after
    /// every check has passed.
    inc_var: u32,
    target: u32,
    actions: ActionRange,
}

/// `(first, count)` candidate range for one `(state, message)` cell.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    first: u32,
    count: u16,
}

/// A fused check with its bound constant folded in at binding time:
/// `±vars[var] + threshold ≤ 0`.
///
/// The sign is stored as the all-ones/all-zeros mask `neg` (sign-extended
/// at load), so evaluation is `(v ^ m) − m + threshold` — three
/// one-cycle ALU ops, no multiply. Checks without a variable part point
/// `var` at the machine's always-zero dummy register.
#[derive(Debug, Clone, Copy, Default)]
struct BoundCheck {
    threshold: i64,
    var: u16,
    /// 0 for `+vars[var]`, −1 for `−vars[var]`.
    neg: i16,
}

/// One candidate specialised into an [`EfsmBinding`] cell: at most two
/// folded checks, an optional inline increment, and the action range.
#[derive(Debug, Clone, Copy, Default)]
struct BoundCand {
    checks: [BoundCheck; 2],
    check_count: u16,
    inc_var: u16,
    target: u32,
    act_offset: u32,
    act_len: u32,
}

/// Sentinel for "no inline increment" in a [`BoundCand`].
const NO_INC16: u16 = u16::MAX;

/// Inline candidate capacity of a bound cell.
const BOUND_CANDS: usize = 2;

/// Sentinel `count` marking a cell that exceeds the inline shape and
/// dispatches through the machine's general candidate tables.
const SPILL: u32 = u32::MAX;

/// One `(state, message)` cell of a bound dispatch table.
#[derive(Debug, Clone, Copy)]
struct BoundCell {
    /// Inline candidate count, or [`SPILL`].
    count: u32,
    cands: [BoundCand; BOUND_CANDS],
}

impl Default for BoundCell {
    fn default() -> Self {
        BoundCell {
            count: 0,
            cands: [BoundCand::default(); BOUND_CANDS],
        }
    }
}

/// A [`CompiledEfsm`] specialised to one parameter binding.
///
/// Binding folds every fused check's parameter-linear bound form into a
/// plain constant and lays the (overwhelmingly common) cells with at
/// most two candidates of at most two fused checks each out *flat*: the
/// per-message hot path is one cell load, one variable-register load and
/// a fused multiply-add-compare, with no pointer chasing through shared
/// candidate tables. Cells outside that shape (generic bytecode, deep
/// candidate lists) spill to the machine's general tables, using the
/// pre-evaluated `bounds` constants.
///
/// An [`EfsmBinding`] is created once per
/// [`StepEngine`](crate::StepEngine), shared by every session stepped
/// through it, via [`CompiledEfsm::bind`].
#[derive(Debug, Clone)]
pub struct EfsmBinding {
    params: Vec<i64>,
    /// Evaluated parameter-linear forms, for the spill path.
    bounds: Vec<i64>,
    cells: Box<[BoundCell]>,
}

impl EfsmBinding {
    /// The parameter values this binding was built from.
    pub fn params(&self) -> &[i64] {
        &self.params
    }

    /// Number of (state, message) cells that spill to the general
    /// bytecode path instead of the flat fused layout — useful for
    /// asserting a machine stays on the flat single-step fast path.
    pub fn spill_cell_count(&self) -> usize {
        self.cells.iter().filter(|c| c.count == SPILL).count()
    }
}

/// An [`Efsm`] flattened into fused checks, bytecode and dense dispatch
/// tables.
///
/// Compile once, bind it in a [`StepEngine`](crate::StepEngine), then
/// create any number of cheap execution cursors: an
/// [`Instance`](crate::Instance) for a single protocol execution, or a
/// [`SessionStore`](crate::SessionStore) for thousands of concurrent
/// ones sharing one parameter binding.
#[derive(Debug, Clone)]
pub struct CompiledEfsm {
    name: String,
    messages: Box<[String]>,
    message_lookup: HashMap<String, u16>,
    state_names: Box<[String]>,
    start: u32,
    /// Per-state finish flag: compiled from the IR's state roles, so a
    /// flattened guarded statechart may carry several absorbing states.
    finish: Box<[bool]>,
    stride: usize,
    n_vars: usize,
    n_params: usize,
    /// Update slots a stepper must provide (widest staged update list).
    max_updates: usize,
    cells: Box<[Cell]>,
    candidates: Box<[Candidate]>,
    checks: Box<[FusedCheck]>,
    code: Box<[Op]>,
    consts: Box<[i64]>,
    /// Parameter-linear forms behind the fused checks; evaluated once
    /// per binding by [`CompiledEfsm::bind`].
    bound_forms: Box<[BoundForm]>,
    arena: Box<[Action]>,
}

/// Compile-time helper: deduplicating `i64` constant pool.
#[derive(Default)]
struct ConstPool {
    values: Vec<i64>,
    index: HashMap<i64, u32>,
}

impl ConstPool {
    fn intern(&mut self, value: i64) -> u32 {
        if let Some(&k) = self.index.get(&value) {
            return k;
        }
        let k = self.values.len() as u32;
        self.values.push(value);
        self.index.insert(value, k);
        k
    }
}

/// Compile-time helper: deduplicating pool of parameter-linear forms.
#[derive(Default)]
struct BoundPool {
    forms: Vec<BoundForm>,
    index: HashMap<BoundForm, u32>,
}

impl BoundPool {
    fn intern(&mut self, form: BoundForm) -> u32 {
        if let Some(&k) = self.index.get(&form) {
            return k;
        }
        let k = self.forms.len() as u32;
        self.index.insert(form.clone(), k);
        self.forms.push(form);
        k
    }
}

/// Emits generic accumulator ops evaluating `expr` against the live
/// variable and parameter registers.
fn lower_linexpr(expr: &LinExpr, code: &mut Vec<Op>, consts: &mut ConstPool) {
    code.push(Op::Const {
        k: consts.intern(expr.constant_part()),
    });
    for &(coeff, operand) in expr.terms() {
        let coeff = consts.intern(coeff);
        match operand {
            Operand::Var(v) => code.push(Op::MulAddVar {
                var: v.index() as u16,
                coeff,
            }),
            Operand::Param(p) => code.push(Op::MulAddParam {
                param: p.index() as u16,
                coeff,
            }),
        }
    }
}

/// Lowers one condition: into fused canonical-`≤ 0` checks when its
/// variable part is a single ±1 term (or empty) and the operator is not
/// `≠`; into generic accumulator bytecode otherwise.
fn lower_cond(
    cond: &Cond,
    checks: &mut Vec<FusedCheck>,
    code: &mut Vec<Op>,
    consts: &mut ConstPool,
    bounds: &mut BoundPool,
) {
    // Net coefficient per operand of the normalised form `lhs - rhs`.
    let mut var_terms: Vec<(i64, u16)> = Vec::new();
    let mut param_terms: Vec<(i64, u16)> = Vec::new();
    let mut fold = |coeff: i64, operand: Operand| {
        let (list, idx) = match operand {
            Operand::Var(v) => (&mut var_terms, v.index() as u16),
            Operand::Param(p) => (&mut param_terms, p.index() as u16),
        };
        match list.iter_mut().find(|(_, i)| *i == idx) {
            Some((c, _)) => *c += coeff,
            None => list.push((coeff, idx)),
        }
    };
    for &(coeff, operand) in cond.lhs.terms() {
        fold(coeff, operand);
    }
    for &(coeff, operand) in cond.rhs.terms() {
        fold(-coeff, operand);
    }
    var_terms.retain(|&(c, _)| c != 0);
    param_terms.retain(|&(c, _)| c != 0);
    let constant = cond.lhs.constant_part() - cond.rhs.constant_part();

    let fusable = matches!(var_terms.as_slice(), [] | [(1, _)] | [(-1, _)]) && cond.op != CmpOp::Ne;
    if fusable {
        let (sign, var) = match var_terms.as_slice() {
            [] => (0i32, 0u32),
            [(c, v)] => (*c as i32, u32::from(*v)),
            _ => unreachable!("checked fusable"),
        };
        let form = BoundForm {
            constant,
            terms: param_terms,
        };
        // Canonicalise `sign·v + form  op  0` to one or two `≤ 0` checks.
        let mut push = |sign: i32, form: BoundForm| {
            checks.push(FusedCheck {
                sign,
                var,
                bound: bounds.intern(form),
            });
        };
        match cond.op {
            CmpOp::Le => push(sign, form),
            CmpOp::Lt => push(sign, form.plus_const(1)),
            CmpOp::Ge => push(-sign, form.negated()),
            CmpOp::Gt => push(-sign, form.negated().plus_const(1)),
            CmpOp::Eq => {
                push(sign, form.clone());
                push(-sign, form.negated());
            }
            CmpOp::Ne => unreachable!("checked fusable"),
        }
        return;
    }

    // Generic fallback: evaluate the whole normalised form into the
    // accumulator, then check against zero.
    code.push(Op::Const {
        k: consts.intern(constant),
    });
    for (coeff, v) in var_terms {
        code.push(Op::MulAddVar {
            var: v,
            coeff: consts.intern(coeff),
        });
    }
    for (coeff, p) in param_terms {
        code.push(Op::MulAddParam {
            param: p,
            coeff: consts.intern(coeff),
        });
    }
    code.push(Op::Check(cond.op));
}

#[inline]
fn cmp_zero(op: CmpOp, acc: i64) -> bool {
    match op {
        CmpOp::Lt => acc < 0,
        CmpOp::Le => acc <= 0,
        CmpOp::Eq => acc == 0,
        CmpOp::Ne => acc != 0,
        CmpOp::Ge => acc >= 0,
        CmpOp::Gt => acc > 0,
    }
}

impl CompiledEfsm {
    /// Flattens `efsm` into fused checks, bytecode and dense dispatch
    /// tables, via the unified lowering IR ([`FlatIr`]).
    ///
    /// This is the only expensive step — O(states × messages +
    /// transitions) — and runs once per machine, off the hot path.
    ///
    /// # Errors
    ///
    /// As for [`CompiledEfsm::compile_ir`].
    pub fn compile(efsm: &Efsm) -> Result<Self, CompileError> {
        Self::compile_ir(&FlatIr::from_efsm(efsm))
    }

    /// The one reason a guarded IR is refused, checked on its own so
    /// that every lowering of a guarded machine — this compiler, and the
    /// step engine's unfolding onto the dense table — accepts exactly
    /// the same machines: a live state declaring two transitions on one
    /// message with identical guards
    /// ([`CompileError::DuplicateTransition`]; reported for the first
    /// such state and, within it, message).
    pub(crate) fn reject_duplicates(ir: &FlatIr) -> Result<(), CompileError> {
        let live = |s: &&FlatState| s.role() != StateRole::Finish;
        for state in ir.states().iter().filter(live) {
            let ts = state.transitions();
            for mid in 0..ir.messages().len() {
                let on_mid = |t: &FlatTransition| t.message_index() == mid;
                for (ti, t) in ts.iter().enumerate().filter(|(_, t)| on_mid(t)) {
                    let same = |prev: &FlatTransition| on_mid(prev) && prev.guard() == t.guard();
                    if ts[..ti].iter().any(same) {
                        return Err(CompileError::DuplicateTransition {
                            state: state.name().to_string(),
                            message: ir.messages()[mid].clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Compiles a [`FlatIr`] into fused checks, bytecode and dense
    /// dispatch tables — the shared entry point of the unified lowering
    /// pipeline. EFSMs lift trivially; guarded statecharts arrive via
    /// [`HierarchicalMachine::flatten_ir`](crate::HierarchicalMachine::flatten_ir),
    /// so one compiled machine serves an entire parameterized statechart
    /// family. A fully unguarded IR compiles too (every cell is a single
    /// always-true candidate) — a flat FSM is just the degenerate EFSM.
    ///
    /// # Errors
    ///
    /// [`CompileError::DuplicateTransition`] if a state declares two
    /// transitions on the same message with identical guards: the second
    /// can never fire (declaration order resolves overlaps), so it is a
    /// specification bug rather than a priority choice.
    pub fn compile_ir(ir: &FlatIr) -> Result<Self, CompileError> {
        Self::reject_duplicates(ir)?;
        let stride = ir.messages().len();
        let state_count = ir.state_count();
        let mut cells = vec![Cell::default(); state_count * stride];
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut checks: Vec<FusedCheck> = Vec::new();
        let mut code: Vec<Op> = Vec::new();
        let mut consts = ConstPool::default();
        let mut bounds = BoundPool::default();
        let mut arena = ActionArena::default();
        let mut max_updates = 0usize;
        let finish: Vec<bool> = ir
            .states()
            .iter()
            .map(|s| s.role() == StateRole::Finish)
            .collect();

        for (sid, state) in ir.states().iter().enumerate() {
            if finish[sid] {
                // Finish states absorb every message by construction
                // (the interpreters check for them before matching);
                // leave their whole rows empty even if the source
                // machine carries unreachable transitions out of them.
                continue;
            }
            for mid in 0..stride {
                let cell_first = candidates.len() as u32;
                let mut cell_count = 0u16;
                let in_cell: Vec<_> = state
                    .transitions()
                    .iter()
                    .filter(|t| t.message_index() == mid)
                    .collect();
                for t in &in_cell {
                    let checks_start = checks.len() as u32;
                    let code_start = code.len() as u32;
                    for cond in t.guard().conditions() {
                        lower_cond(cond, &mut checks, &mut code, &mut consts, &mut bounds);
                    }
                    // Updates. The ubiquitous single-`Inc` becomes an
                    // inline candidate field; `Inc`s on pairwise-distinct
                    // variables need no staging (each reads only its own
                    // pre-transition value); anything else is staged.
                    let distinct_incs = t.updates().iter().enumerate().all(|(i, u)| {
                        matches!(u, Update::Inc(v)
                            if !t.updates()[..i].iter().any(
                                |p| matches!(p, Update::Inc(w) if w == v)))
                    });
                    let mut inc_var = NO_INC;
                    if let (true, [Update::Inc(v)]) = (distinct_incs, t.updates()) {
                        inc_var = v.index() as u32;
                    } else if distinct_incs {
                        for u in t.updates() {
                            let Update::Inc(v) = u else { unreachable!() };
                            code.push(Op::IncDirect {
                                var: v.index() as u16,
                            });
                        }
                    } else {
                        max_updates = max_updates.max(t.updates().len());
                        let mut commits: Vec<(u16, u16)> = Vec::new();
                        for (slot, update) in t.updates().iter().enumerate() {
                            let slot = slot as u16;
                            match update {
                                Update::Set(v, expr) => {
                                    lower_linexpr(expr, &mut code, &mut consts);
                                    code.push(Op::StageAcc { slot });
                                    commits.push((v.index() as u16, slot));
                                }
                                Update::Inc(v) => {
                                    code.push(Op::StageInc {
                                        var: v.index() as u16,
                                        slot,
                                    });
                                    commits.push((v.index() as u16, slot));
                                }
                            }
                        }
                        for (var, slot) in commits {
                            code.push(Op::CommitVar { var, slot });
                        }
                    }
                    let (offset, len) = arena.intern(t.actions());
                    candidates.push(Candidate {
                        checks_start,
                        checks_end: checks.len() as u32,
                        code_start,
                        code_end: code.len() as u32,
                        inc_var,
                        target: t.target(),
                        actions: ActionRange { offset, len },
                    });
                    cell_count += 1;
                }
                cells[sid * stride + mid] = Cell {
                    first: cell_first,
                    count: cell_count,
                };
            }
        }

        Ok(CompiledEfsm {
            name: ir.name().to_string(),
            messages: ir.messages().to_vec().into_boxed_slice(),
            message_lookup: ir
                .messages()
                .iter()
                .enumerate()
                .map(|(i, m)| (m.clone(), i as u16))
                .collect(),
            state_names: ir.states().iter().map(|s| s.name().to_string()).collect(),
            start: ir.start(),
            finish: finish.into_boxed_slice(),
            stride,
            n_vars: ir.variables().len(),
            n_params: ir.params().len(),
            max_updates,
            cells: cells.into_boxed_slice(),
            candidates: candidates.into_boxed_slice(),
            checks: checks.into_boxed_slice(),
            code: code.into_boxed_slice(),
            consts: consts.values.into_boxed_slice(),
            bound_forms: bounds.forms.into_boxed_slice(),
            arena: arena.into_arena(),
        })
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message alphabet, in declaration order.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// Number of variables (per-session registers).
    pub fn var_count(&self) -> usize {
        self.n_vars
    }

    /// Register slots a stepper's `vars` buffer must provide: one per
    /// variable plus an always-zero dummy register that variable-free
    /// fused checks (harmlessly) read.
    pub fn reg_count(&self) -> usize {
        self.n_vars + 1
    }

    /// Number of instantiation parameters.
    pub fn param_count(&self) -> usize {
        self.n_params
    }

    /// Scratch slots a stepper must provide (widest staged update list;
    /// zero when every update compiles to a direct form).
    pub fn scratch_len(&self) -> usize {
        self.max_updates
    }

    /// Per-state finish flags, indexed by dense state id.
    #[inline]
    pub(crate) fn finish_flags(&self) -> &[bool] {
        &self.finish
    }

    /// Total fused guard checks across all transitions.
    pub fn fused_check_count(&self) -> usize {
        self.checks.len()
    }

    /// Total fallback bytecode ops across all transitions.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Size of the deduplicated constant pool (fallback path).
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Number of distinct parameter-linear bound forms (fused path).
    pub fn bound_form_count(&self) -> usize {
        self.bound_forms.len()
    }

    /// Specialises the machine to a concrete parameter binding: every
    /// fused check's parameter-linear form folds to a constant and the
    /// common cells are laid out flat (see [`EfsmBinding`]). The result
    /// feeds [`CompiledEfsm::step`]; a [`StepEngine`](crate::StepEngine)
    /// computes it once at creation.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters differs from the EFSM's
    /// declaration.
    pub fn bind(&self, params: &[i64]) -> EfsmBinding {
        assert_eq!(params.len(), self.n_params, "wrong parameter count");
        let bounds: Vec<i64> = self.bound_forms.iter().map(|f| f.eval(params)).collect();
        let mut cells = vec![BoundCell::default(); self.cells.len()];
        for (out, cell) in cells.iter_mut().zip(self.cells.iter()) {
            let first = cell.first as usize;
            let cands = &self.candidates[first..first + cell.count as usize];
            let inlinable = cands.len() <= BOUND_CANDS
                && cands.iter().all(|c| {
                    c.code_start == c.code_end && (c.checks_end - c.checks_start) as usize <= 2
                });
            if !inlinable {
                out.count = SPILL;
                continue;
            }
            out.count = cands.len() as u32;
            for (slot, cand) in out.cands.iter_mut().zip(cands) {
                let checks = &self.checks[cand.checks_start as usize..cand.checks_end as usize];
                slot.check_count = checks.len() as u16;
                for (folded, check) in slot.checks.iter_mut().zip(checks) {
                    *folded = BoundCheck {
                        threshold: bounds[check.bound as usize],
                        // Variable-free checks read the dummy register.
                        var: if check.sign == 0 {
                            self.n_vars as u16
                        } else {
                            check.var as u16
                        },
                        neg: if check.sign < 0 { -1 } else { 0 },
                    };
                }
                slot.inc_var = if cand.inc_var == NO_INC {
                    NO_INC16
                } else {
                    cand.inc_var as u16
                };
                slot.target = cand.target;
                slot.act_offset = cand.actions.offset;
                slot.act_len = cand.actions.len;
            }
        }
        EfsmBinding {
            params: params.to_vec(),
            bounds,
            cells: cells.into_boxed_slice(),
        }
    }

    /// The start state's dense id.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// The unique finish state's dense id, if the machine has exactly
    /// one (a flattened guarded statechart may carry several absorbing
    /// states — query those with [`CompiledEfsm::is_finish_state`]).
    pub fn finish(&self) -> Option<u32> {
        let mut found = None;
        for (i, &f) in self.finish.iter().enumerate() {
            if f {
                if found.is_some() {
                    return None;
                }
                found = Some(i as u32);
            }
        }
        found
    }

    /// `true` if `state` is an absorbing finish state.
    pub fn is_finish_state(&self, state: u32) -> bool {
        self.finish[state as usize]
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.message_lookup.get(name).copied().map(MessageId)
    }

    /// Display name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn state_name(&self, state: u32) -> &str {
        &self.state_names[state as usize]
    }

    /// Executes one transition: from `state` on `message` under the
    /// given binding, returns the target state and the borrowed action
    /// list, or `None` if no candidate's guard holds (including any
    /// message in the finish state). Variable updates are applied to
    /// `vars` in place.
    ///
    /// `binding` must come from [`CompiledEfsm::bind`] on this machine;
    /// `vars` must hold at least [`CompiledEfsm::reg_count`] registers
    /// and `scratch` at least [`CompiledEfsm::scratch_len`] (its
    /// contents are meaningless between calls). This is the
    /// allocation-free hot path behind
    /// [`StepEngine::step`](crate::StepEngine::step).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range, or a register slice is shorter
    /// than the machine's declarations.
    #[inline(always)]
    pub fn step(
        &self,
        state: u32,
        message: MessageId,
        binding: &EfsmBinding,
        vars: &mut [i64],
        scratch: &mut [i64],
    ) -> Option<(u32, &[Action])> {
        debug_assert!(
            message.index() < self.stride,
            "message id from a different machine"
        );
        let idx = state as usize * self.stride + message.index();
        let cell = &binding.cells[idx];
        if cell.count == SPILL {
            return self.step_spill(idx, binding, vars, scratch);
        }
        // Flat fast path: candidates and folded checks live inline in
        // the cell — one load level between the dispatch table and the
        // variable registers. `BOUND_CANDS` is 2, so the candidate scan
        // unrolls to straight-line code.
        for slot in 0..BOUND_CANDS {
            if slot >= cell.count as usize {
                break;
            }
            let cand = &cell.cands[slot];
            let n = cand.check_count;
            let c = cand.checks[0];
            let m = i64::from(c.neg);
            if n >= 1 && (vars[c.var as usize] ^ m) - m + c.threshold > 0 {
                continue;
            }
            let c = cand.checks[1];
            let m = i64::from(c.neg);
            if n == 2 && (vars[c.var as usize] ^ m) - m + c.threshold > 0 {
                continue;
            }
            if cand.inc_var != NO_INC16 {
                vars[cand.inc_var as usize] += 1;
            }
            let actions =
                &self.arena[cand.act_offset as usize..(cand.act_offset + cand.act_len) as usize];
            return Some((cand.target, actions));
        }
        None
    }

    /// The general dispatch path for cells outside the flat bound shape:
    /// walks the shared candidate tables, evaluating fused checks
    /// against the pre-computed bound constants and running the fallback
    /// bytecode for generic conditions and staged updates.
    fn step_spill(
        &self,
        idx: usize,
        binding: &EfsmBinding,
        vars: &mut [i64],
        scratch: &mut [i64],
    ) -> Option<(u32, &[Action])> {
        let bounds = &binding.bounds[..];
        let params = &binding.params[..];
        let cell = self.cells[idx];
        let first = cell.first as usize;
        'candidate: for cand in &self.candidates[first..first + cell.count as usize] {
            // Fused guard checks: one multiply-add and compare each.
            for check in &self.checks[cand.checks_start as usize..cand.checks_end as usize] {
                if i64::from(check.sign) * vars[check.var as usize] + bounds[check.bound as usize]
                    > 0
                {
                    continue 'candidate;
                }
            }
            // Fallback bytecode: generic checks, then staged updates.
            if cand.code_start != cand.code_end {
                let mut acc: i64 = 0;
                for op in &self.code[cand.code_start as usize..cand.code_end as usize] {
                    match *op {
                        Op::Const { k } => acc = self.consts[k as usize],
                        Op::MulAddVar { var, coeff } => {
                            acc += self.consts[coeff as usize] * vars[var as usize];
                        }
                        Op::MulAddParam { param, coeff } => {
                            acc += self.consts[coeff as usize] * params[param as usize];
                        }
                        Op::Check(op) => {
                            if !cmp_zero(op, acc) {
                                continue 'candidate;
                            }
                        }
                        Op::IncDirect { var } => vars[var as usize] += 1,
                        Op::StageAcc { slot } => scratch[slot as usize] = acc,
                        Op::StageInc { var, slot } => {
                            scratch[slot as usize] = vars[var as usize] + 1;
                        }
                        Op::CommitVar { var, slot } => {
                            vars[var as usize] = scratch[slot as usize];
                        }
                    }
                }
            }
            if cand.inc_var != NO_INC {
                vars[cand.inc_var as usize] += 1;
            }
            let actions = &self.arena
                [cand.actions.offset as usize..(cand.actions.offset + cand.actions.len) as usize];
            return Some((cand.target, actions));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efsm::{EfsmBuilder, Guard, Update, VarId};
    use crate::error::InterpError;
    use crate::interp::{Instance, ProtocolEngine};
    use crate::ir::IrInstance;
    use crate::machine::MessageId;
    use crate::step::StepEngine;

    fn instance(compiled: &CompiledEfsm, params: &[i64]) -> Instance {
        Instance::new(StepEngine::register(compiled.clone(), params).unwrap())
    }

    fn counter() -> Efsm {
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let limit = b.add_param("limit");
        let n = b.add_var("n");
        let counting = b.add_state("counting");
        let done = b.add_state("done");
        b.add_transition(
            counting,
            "tick",
            Guard::when(
                LinExpr::var(n).plus_const(1),
                CmpOp::Lt,
                LinExpr::param(limit),
            ),
            vec![Update::Inc(n)],
            vec![],
            counting,
        );
        b.add_transition(
            counting,
            "tick",
            Guard::when(
                LinExpr::var(n).plus_const(1),
                CmpOp::Ge,
                LinExpr::param(limit),
            ),
            vec![Update::Inc(n)],
            vec![Action::send("done")],
            done,
        );
        b.build(counting, Some(done))
    }

    #[test]
    fn matches_interpreter_on_counter() {
        let efsm = counter();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        for limit in 1..6 {
            let mut interp = IrInstance::new(&ir, vec![limit]);
            let mut comp = instance(&compiled, &[limit]);
            for _ in 0..limit + 2 {
                let a = interp.deliver("tick").unwrap();
                let b = comp.deliver("tick").unwrap();
                assert_eq!(a, b, "limit {limit}");
                assert_eq!(interp.vars(), comp.vars(), "limit {limit}");
                assert_eq!(interp.is_finished(), comp.is_finished(), "limit {limit}");
                assert_eq!(interp.state_name(), comp.state_name(), "limit {limit}");
            }
        }
    }

    #[test]
    fn counter_compiles_fully_fused() {
        // Both guards have a single +1 var term, both updates are lone
        // `Inc`s: everything fuses — no bytecode, no staging, no generic
        // constants.
        let efsm = counter();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        assert_eq!(compiled.fused_check_count(), 2);
        assert_eq!(compiled.code_len(), 0);
        assert_eq!(compiled.scratch_len(), 0);
        assert_eq!(compiled.const_count(), 0);
        // `n+1 < limit` → n + (2 − limit) ≤ 0; `n+1 ≥ limit` →
        // −n + (limit − 1) ≤ 0: two distinct bound forms.
        assert_eq!(compiled.bound_form_count(), 2);
        let binding = compiled.bind(&[4]);
        assert_eq!(binding.params(), &[4]);
        assert_eq!(binding.bounds, vec![-2, 3]);
        // Every cell of the counter fits the flat bound shape.
        assert!(binding.cells.iter().all(|c| c.count != SPILL));
    }

    #[test]
    fn finish_state_absorbs() {
        let efsm = counter();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let mut i = instance(&compiled, &[1]);
        assert_eq!(i.deliver_ref("tick").unwrap(), [Action::send("done")]);
        assert!(i.is_finished());
        assert!(i.deliver_ref("tick").unwrap().is_empty());
        assert_eq!(i.vars(), &[1]);
        assert_eq!(i.steps(), 1);
    }

    #[test]
    fn unknown_message_is_error() {
        let efsm = counter();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let mut i = instance(&compiled, &[1]);
        assert!(matches!(
            i.deliver_ref("zap"),
            Err(InterpError::UnknownMessage(_))
        ));
    }

    #[test]
    fn reset_restores_start() {
        let efsm = counter();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let mut i = instance(&compiled, &[3]);
        i.deliver_ref("tick").unwrap();
        i.reset();
        assert_eq!(i.vars(), &[0]);
        assert_eq!(i.state_name_str(), "counting");
        assert_eq!(i.steps(), 0);
    }

    #[test]
    fn updates_read_pre_transition_values() {
        // swap-like transition: a := b, b := a + 10 — only staged updates
        // give the interpreter's snapshot semantics.
        let mut b = EfsmBuilder::new("swap", ["go"]);
        let a = b.add_var("a");
        let bb = b.add_var("b");
        let s = b.add_state("s");
        b.add_transition(
            s,
            "go",
            Guard::always(),
            vec![
                Update::Set(a, LinExpr::var(bb)),
                Update::Set(bb, LinExpr::var(a).plus_const(10)),
            ],
            vec![],
            s,
        );
        let efsm = b.build(s, None);
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        assert_eq!(compiled.scratch_len(), 2);
        let mut interp = IrInstance::new(&ir, vec![]);
        let mut comp = instance(&compiled, &[]);
        for _ in 0..4 {
            interp.deliver("go").unwrap();
            comp.deliver_ref("go").unwrap();
            assert_eq!(interp.vars(), comp.vars());
        }
        // After one step from (0,0): a = 0, b = 10; the staged semantics
        // must not let the new `a` leak into `b`'s expression.
        let mut probe = instance(&compiled, &[]);
        probe.deliver_ref("go").unwrap();
        assert_eq!(probe.vars(), &[0, 10]);
    }

    #[test]
    fn repeated_inc_of_same_var_stays_staged() {
        // [Inc(v), Inc(v)] reads the pre-transition value twice: the
        // result is v+1, not v+2 — the direct-increment shortcut must not
        // apply.
        let mut b = EfsmBuilder::new("dup-inc", ["go"]);
        let v = b.add_var("v");
        let s = b.add_state("s");
        b.add_transition(
            s,
            "go",
            Guard::always(),
            vec![Update::Inc(v), Update::Inc(v)],
            vec![],
            s,
        );
        let efsm = b.build(s, None);
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        assert_eq!(compiled.scratch_len(), 2);
        let mut interp = IrInstance::new(&ir, vec![]);
        let mut comp = instance(&compiled, &[]);
        interp.deliver("go").unwrap();
        comp.deliver_ref("go").unwrap();
        assert_eq!(interp.vars(), &[1]);
        assert_eq!(comp.vars(), &[1]);
    }

    #[test]
    fn multi_inc_on_distinct_vars_is_direct() {
        let mut b = EfsmBuilder::new("multi-inc", ["go"]);
        let x = b.add_var("x");
        let y = b.add_var("y");
        let s = b.add_state("s");
        b.add_transition(
            s,
            "go",
            Guard::always(),
            vec![Update::Inc(x), Update::Inc(y)],
            vec![],
            s,
        );
        let efsm = b.build(s, None);
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        assert_eq!(compiled.scratch_len(), 0);
        assert_eq!(compiled.code_len(), 2); // two IncDirect ops
        let mut comp = instance(&compiled, &[]);
        comp.deliver_ref("go").unwrap();
        comp.deliver_ref("go").unwrap();
        assert_eq!(comp.vars(), &[2, 2]);
    }

    #[test]
    fn all_comparison_shapes_fuse_or_fall_back() {
        // `5 < v` has a −1 var term; `p > 3` has none; `v == 2` splits
        // into two ≤ checks; `v != p` must use the generic path.
        let mut b = EfsmBuilder::new("shapes", ["lt", "gt", "eq", "ne"]);
        let p = b.add_param("p");
        let v = b.add_var("v");
        let s = b.add_state("s");
        let t = b.add_state("t");
        b.add_transition(
            s,
            "lt",
            Guard::when(LinExpr::constant(5), CmpOp::Lt, LinExpr::var(v)),
            vec![],
            vec![Action::send("lt")],
            t,
        );
        b.add_transition(
            s,
            "gt",
            Guard::when(LinExpr::param(p), CmpOp::Gt, LinExpr::constant(3)),
            vec![Update::Inc(v)],
            vec![],
            s,
        );
        b.add_transition(
            s,
            "eq",
            Guard::when(LinExpr::var(v), CmpOp::Eq, LinExpr::constant(2)),
            vec![],
            vec![Action::send("eq")],
            t,
        );
        b.add_transition(
            s,
            "ne",
            Guard::when(LinExpr::var(v), CmpOp::Ne, LinExpr::param(p)),
            vec![],
            vec![Action::send("ne")],
            t,
        );
        let efsm = b.build(s, None);
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        assert!(compiled.code_len() > 0, "Ne falls back to bytecode");
        for p_val in [4i64, 7] {
            let mut interp = IrInstance::new(&ir, vec![p_val]);
            let mut comp = instance(&compiled, &[p_val]);
            for m in [
                "gt", "eq", "ne", "gt", "eq", "gt", "gt", "gt", "gt", "lt", "ne",
            ] {
                let a = interp.deliver(m).unwrap();
                let b = comp.deliver_ref(m).unwrap();
                assert_eq!(a, b, "p={p_val} message {m}");
                assert_eq!(interp.vars(), comp.vars(), "p={p_val} message {m}");
                assert_eq!(
                    interp.state_name(),
                    comp.state_name(),
                    "p={p_val} message {m}"
                );
            }
        }
    }

    #[test]
    fn generic_fallback_handles_scaled_terms() {
        // `2·v < p` has a coefficient outside ±1: the generic accumulator
        // path must agree with the interpreter.
        let mut b = EfsmBuilder::new("scaled", ["go"]);
        let p = b.add_param("p");
        let v = b.add_var("v");
        let s = b.add_state("s");
        let t = b.add_state("t");
        b.add_transition(
            s,
            "go",
            Guard::when(LinExpr::var(v).times(2), CmpOp::Lt, LinExpr::param(p)),
            vec![Update::Inc(v)],
            vec![],
            s,
        );
        b.add_transition(
            s,
            "go",
            Guard::when(LinExpr::var(v).times(2), CmpOp::Ge, LinExpr::param(p)),
            vec![],
            vec![Action::send("stop")],
            t,
        );
        let efsm = b.build(s, None);
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        assert!(
            compiled.const_count() > 0,
            "generic path uses the constant pool"
        );
        let mut interp = IrInstance::new(&ir, vec![7]);
        let mut comp = instance(&compiled, &[7]);
        for step in 0..8 {
            let a = interp.deliver("go").unwrap();
            let b = comp.deliver_ref("go").unwrap();
            assert_eq!(a, b, "step {step}");
            assert_eq!(interp.vars(), comp.vars(), "step {step}");
            assert_eq!(interp.state_name(), comp.state_name(), "step {step}");
        }
    }

    #[test]
    fn variable_free_machine_executes() {
        // No variables at all: fused checks with sign 0 read the dummy
        // register; reg_count still provides one slot.
        let mut b = EfsmBuilder::new("paramonly", ["go"]);
        let p = b.add_param("p");
        let s = b.add_state("s");
        let t = b.add_state("t");
        b.add_transition(
            s,
            "go",
            Guard::when(LinExpr::param(p), CmpOp::Ge, LinExpr::constant(3)),
            vec![],
            vec![Action::send("big")],
            t,
        );
        let efsm = b.build(s, None);
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        assert_eq!(compiled.var_count(), 0);
        assert_eq!(compiled.reg_count(), compiled.var_count() + 1);
        let mut yes = instance(&compiled, &[5]);
        assert_eq!(yes.deliver_ref("go").unwrap(), [Action::send("big")]);
        let mut no = instance(&compiled, &[2]);
        assert!(no.deliver_ref("go").unwrap().is_empty());
    }

    #[test]
    fn duplicate_guard_rejected() {
        let mut b = EfsmBuilder::new("bad", ["m"]);
        let s = b.add_state("s");
        b.add_transition(s, "m", Guard::always(), vec![], vec![], s);
        b.add_transition(s, "m", Guard::always(), vec![], vec![], s);
        let efsm = b.build(s, None);
        let err = CompiledEfsm::compile(&efsm).unwrap_err();
        assert!(matches!(err, CompileError::DuplicateTransition { .. }));
        assert!(err.to_string().contains("duplicate transition"));
    }

    #[test]
    fn distinct_guards_on_same_cell_accepted() {
        // Different guards on one (state, message) pair are the whole
        // point of EFSMs — only *identical* guards are duplicates.
        let efsm = counter();
        assert!(CompiledEfsm::compile(&efsm).is_ok());
    }

    #[test]
    fn metadata_matches_source() {
        let efsm = counter();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        assert_eq!(compiled.name(), "counter");
        assert_eq!(compiled.state_count(), 2);
        assert_eq!(compiled.var_count(), 1);
        assert_eq!(compiled.reg_count(), compiled.var_count() + 1);
        assert_eq!(compiled.param_count(), 1);
        assert_eq!(compiled.messages(), ["tick"]);
        assert_eq!(compiled.start(), 0);
        assert_eq!(compiled.finish(), Some(1));
        assert!(compiled.is_finish_state(1));
        assert!(!compiled.is_finish_state(0));
        assert_eq!(compiled.state_name(0), "counting");
        assert_eq!(
            compiled.message_id("tick"),
            efsm.message_id("tick").map(MessageId)
        );
    }

    #[test]
    fn var_id_index_is_stable() {
        // VarId/ParamId indices drive the fused-check register numbering.
        let mut b = EfsmBuilder::new("e", ["m"]);
        let v0 = b.add_var("x");
        let v1 = b.add_var("y");
        let _ = b.add_state("s");
        assert_eq!((VarId::index(v0), VarId::index(v1)), (0, 1));
    }
}
