//! The unfolding lowering: a guarded [`FlatIr`] plus a parameter binding
//! in, a dense table over its reachable `(state, registers)`
//! configurations out — the paper's "bind the replication factor, then
//! generate the FSM" (§4.2), applied to the EFSM front-end.
//!
//! [`unfold`] explores the bound machine breadth-first from `(start,
//! 0…0)` with the crate's one explorer, every edge found by calling
//! [`FlatIr::step`] itself — so guard priority, staged updates and
//! absorbing finish states are the interpreter's by construction. Within
//! budget — 4 096 configurations — it returns the [`CompiledMachine`] whose
//! state ids are configuration ids, beside the [`Unfolded`] side table
//! that maps every configuration back to the source machine's state and
//! register row; past it, the [`Fallback`] reason the machine stays on
//! the interpreter. Choosing between the two, and executing either, is
//! `stategen-runtime`'s business.

use std::fmt;
use std::sync::Arc;

use crate::compiled::{CompiledMachine, DenseRows};
use crate::efsm::{LinExpr, Operand, Update};
use crate::explore::{explore, ReachedSet};
use crate::ir::FlatIr;
use crate::machine::{MessageId, StateRole};

/// Most configurations an unfolding may reach before the machine falls
/// back to the interpreter: the dense gather reads a 901-row column at
/// the speed of a 33-row one (`core.kernel.wide_r25_ns_per_session` in
/// `docs/KERNELS.md`), and 4 096 rows × a handful of message classes
/// still sit in L2.
const MAX_CONFIGS: usize = 4096;

/// Largest register magnitude an explored configuration may hold.
/// [`arithmetic_fits`] proves that under it no guard or update can
/// overflow, so exploring with [`FlatIr::step`]'s bare operators never
/// panics in a debug build where a release build would wrap.
const MAX_MAGNITUDE: i64 = 1 << 31;

/// Why [`unfold`] left a guarded machine to the interpreter. Its
/// `Display` form is the reason an engine's lowering line reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Exploration reached a configuration past the budget of 4 096.
    OverBudget,
    /// Variable `var` left ±2³¹.
    Unbounded {
        /// Index of the variable, in declaration order.
        var: usize,
    },
    /// The binding's arithmetic could overflow `i64`.
    MayOverflow,
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fallback::OverBudget => write!(f, "over budget at {} configurations", MAX_CONFIGS + 1),
            Fallback::Unbounded { var } => write!(
                f,
                "variable {var} unbounded (left ±2^31 within {MAX_CONFIGS} configurations)"
            ),
            Fallback::MayOverflow => {
                write!(
                    f,
                    "guard or update arithmetic may overflow under this binding"
                )
            }
        }
    }
}

/// What an unfolded table keeps beside it so that every observable
/// answer stays the source machine's: the configurations — the
/// unfolding's reached set: source states and register rows, the start
/// state's number 0 — and the source's state names. Its `Display` form
/// is the lowering's one-line account: `unfolded: 2 states × 1 vars → 4
/// configurations, 65 table bytes`.
#[derive(Debug)]
pub struct Unfolded {
    configs: ReachedSet,
    state_names: Box<[Arc<str>]>,
    /// [`CompiledMachine::table_bytes`] of the unfolded table.
    table_bytes: usize,
}

impl fmt::Display for Unfolded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unfolded: {} states × {} vars → {} configurations, {} table bytes",
            self.state_names.len(),
            self.configs.width() - 1, // the variables, then the zero register
            self.configs.len(),
            self.table_bytes,
        )
    }
}

impl Unfolded {
    /// The source machine's state names, indexed by state id.
    #[inline]
    pub fn state_names(&self) -> &[Arc<str>] {
        &self.state_names
    }

    /// The source state of `config`. Ids out of range — a store's
    /// retired-slot sentinel — pass through unchanged.
    #[inline]
    pub fn state_of(&self, config: u32) -> u32 {
        *self.configs.heads().get(config as usize).unwrap_or(&config)
    }

    /// The register row `config` stands for: declared variables, then
    /// the zero register.
    ///
    /// # Panics
    ///
    /// Panics if `config` is out of range.
    #[inline]
    pub fn row(&self, config: u32) -> &[i64] {
        self.configs.row(config)
    }

    /// The configuration of a session in `state` with register row
    /// `regs` — `None` if the machine cannot reach that exact pair.
    #[inline]
    pub fn find(&self, state: u32, regs: &[i64]) -> Option<u32> {
        self.configs.find(state, regs)
    }

    /// Writes the register rows of `configs` over `out`, session-major,
    /// one row each (zeros for an out-of-range id).
    pub fn rows_into(&self, configs: &[u32], out: &mut Vec<i64>) {
        let table = &self.configs;
        let len = configs.len() * table.width();
        // Every word is written below. A buffer too small is replaced
        // by a zeroed allocation — fresh pages, not a memset — and one
        // that fits is only cut or padded to length.
        if out.capacity() < len {
            *out = vec![0; len];
        } else {
            out.resize(len, 0);
        }
        // Rows are a few words: with the width a constant each is one
        // array move, where a `copy_from_slice` of unknown length is a
        // call per slot (a peer snapshots its store at every commit).
        match table.width() {
            1 => gather_rows::<1>(table.rows(), configs, out),
            2 => gather_rows::<2>(table.rows(), configs, out),
            3 => gather_rows::<3>(table.rows(), configs, out),
            4 => gather_rows::<4>(table.rows(), configs, out),
            width => {
                for (row, &config) in out.chunks_exact_mut(width).zip(configs) {
                    if (config as usize) < table.len() {
                        row.copy_from_slice(table.row(config));
                    } else {
                        row.fill(0);
                    }
                }
            }
        }
    }
}

/// Copies row `configs[s]` of the `W`-wide `rows` into row `s` of
/// `file`, zeros for an out-of-range id.
fn gather_rows<const W: usize>(rows: &[i64], configs: &[u32], file: &mut [i64]) {
    let (rows, file) = (rows.as_chunks::<W>().0, file.as_chunks_mut::<W>().0);
    for (to, &config) in file.iter_mut().zip(configs) {
        *to = rows.get(config as usize).copied().unwrap_or([0; W]);
    }
}

/// `true` if no guard or update of `ir` can overflow `i64` under
/// `params` while every variable stays within ±[`MAX_MAGNITUDE`]: each
/// expression's worst case, `|constant| + Σ |coeff| · |operand|`, is
/// summed exactly and bounds every partial sum [`LinExpr::eval`] forms.
fn arithmetic_fits(ir: &FlatIr, params: &[i64]) -> bool {
    let fits = |expr: &LinExpr| {
        let mut worst = i128::from(expr.constant_part()).abs();
        for &(coeff, operand) in expr.terms() {
            let operand = match operand {
                Operand::Var(_) => MAX_MAGNITUDE,
                Operand::Param(p) => params[p.index()],
            };
            let term = i128::from(coeff) * i128::from(operand);
            worst = worst.saturating_add(term.abs());
        }
        worst <= i128::from(i64::MAX)
    };
    ir.states().iter().all(|state| {
        state.transitions().iter().all(|t| {
            let conds = t.guard().conditions();
            conds.iter().all(|c| fits(&c.lhs) && fits(&c.rhs))
                && t.updates().iter().all(|update| match update {
                    Update::Set(_, expr) => fits(expr),
                    Update::Inc(_) => true, // MAX_MAGNITUDE + 1
                })
        })
    })
}

/// Unfolds a guarded `ir` under `params` (one value per declared
/// parameter) into a dense table over its reachable configurations,
/// explored breadth-first from `(start, 0…0)` within 4 096 of them;
/// the table's start state is configuration 0. `Err` carries why the
/// machine stays on the interpreter instead.
///
/// # Panics
///
/// Panics if `params` binds fewer parameters than the IR declares.
pub fn unfold(ir: &FlatIr, params: &[i64]) -> Result<(CompiledMachine, Unfolded), Fallback> {
    if !arithmetic_fits(ir, params) {
        return Err(Fallback::MayOverflow);
    }
    let state_names: Box<[Arc<str>]> = ir.states().iter().map(|s| s.name().into()).collect();
    let finish: Box<[bool]> = ir
        .states()
        .iter()
        .map(|s| s.role() == StateRole::Finish)
        .collect();
    let mut rows = DenseRows::new(ir.messages().len(), ir.state_count());
    // One row reused for every step: the variables, then the zero
    // register, which `FlatIr::step` leaves alone.
    let mut row = vec![0; ir.reg_count()];
    let mut scratch = vec![0; ir.variables().len()];
    let push_state = |rows: &mut DenseRows, state: u32| {
        let state = state as usize;
        rows.push_state(Arc::clone(&state_names[state]), finish[state]);
    };
    push_state(&mut rows, ir.start());
    let root = (ir.start(), row.clone());
    let configs = explore(row.len(), [root], MAX_CONFIGS, |configs, from| {
        let state = configs.heads()[from as usize];
        for message in 0..ir.messages().len() {
            row.copy_from_slice(configs.row(from));
            let id = MessageId(message as u16);
            let Some((target, actions)) = ir.step(state, id, params, &mut row, &mut scratch) else {
                continue;
            };
            if let Some(var) = row
                .iter()
                .position(|v| v.unsigned_abs() > MAX_MAGNITUDE as u64)
            {
                return Err(Fallback::Unbounded { var });
            }
            let (to, new) = configs.visit(target, &row).ok_or(Fallback::OverBudget)?;
            if new {
                push_state(&mut rows, target);
            }
            rows.set(from as usize, message, to, actions);
        }
        Ok(())
    })?;
    let machine = rows.finish(ir.name(), ir.messages(), 0);
    let unfolded = Unfolded {
        configs,
        state_names,
        table_bytes: machine.table_bytes(),
    };
    Ok((machine, unfolded))
}
