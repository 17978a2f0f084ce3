//! The step engine: one machine resolved onto one execution tier.
//!
//! Every front-end lowers onto [`FlatIr`], and the IR is executed one of
//! two ways — the paper's two deployment policies (§4.2): walked as
//! lowered by [`FlatIr::step`], the definition the dense table is
//! compiled from and tested against ([`Tier::Interpreted`], "interpret
//! the model"), or through the dense `states × messages` table
//! ([`Tier::Compiled`], "generate the FSM for one binding"). A guarded
//! machine reaches the dense table when binding its parameters leaves
//! it at most 4 096 reachable `(state, variables)`
//! configurations ([`StepEngine::compile_ir`] *unfolds* it: "bind the
//! replication factor, then generate the FSM", applied to the EFSM
//! front-end); past that budget it runs on the interpreter.
//! [`StepEngine`] owns whichever of the two a machine resolved onto
//! behind `Arc`s (a clone is pointer
//! bumps; engines are `Send + Sync + 'static`) and answers every
//! question a session store asks of a machine — where sessions start,
//! which states finish, what one message does to one session
//! ([`StepEngine::step`]), what it does to a whole batch (the
//! crate-private `deliver_batch`) — so **this module is the only place
//! that branches on the tier**. The representation is private: code
//! outside cannot match on it, only ask.
//!
//! A flat FSM is the degenerate EFSM, and the register file says so:
//! [`StepEngine::reg_count`] is [`FlatIr::reg_count`] of the lowered
//! machine on every tier — zero exactly when it is unguarded — so
//! callers size their per-session registers from it, never ask which
//! tier they are on, and a register file written under one engine fits
//! every engine of the same machine.
//!
//! Everything public here speaks the *source* machine's state ids,
//! names and registers, unfolded or not. What an unfolded engine's
//! sessions really hold — a configuration id into the unfolded table —
//! is visible only to this crate's session store (and its one-session
//! twin, `Instance`), through the `pub(crate)` half of [`StepEngine`].

use std::fmt;
use std::sync::Arc;

use crate::compiled::{CompiledMachine, DenseRows};
use crate::efsm::{LinExpr, Operand, Update};
use crate::error::StategenError;
use crate::explore::{explore, ReachedSet};
use crate::ir::{FlatIr, FlatState};
use crate::kernel::{dense_batch, BatchTally};
use crate::machine::{Action, MessageId, StateRole};

/// Which execution tier a [`StepEngine`] runs on — what the dense
/// compiler (and its absence) distinguishes, nothing more. The
/// front-end a machine came from (flat machine, EFSM, statechart,
/// artifact) is not a tier: a statechart lowered through the IR runs
/// on, and reports, the tier its lowered form compiled onto.
///
/// All tiers are behaviourally equivalent; they differ only in dispatch
/// cost and preparation work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Walking the lowered IR's transition lists directly, evaluating
    /// guard and update trees — no preparation pass, slowest dispatch.
    /// Open to every machine, guarded or not, and where a guarded one
    /// runs when its configuration space is unbounded or over budget.
    Interpreted,
    /// Dense `states × messages` transition tables with an interned
    /// action arena — dispatch in ~1 ns, zero allocation per delivery.
    /// Where every unguarded machine compiles to, flat or flattened —
    /// and every guarded one whose bound parameters leave it a finite
    /// configuration space within budget, unfolded.
    Compiled,
}

impl Tier {
    /// Stable lowercase label (for reports and benchmark rows).
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Interpreted => "interpreted",
            Tier::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The tier-resolved machine. Private so that no code outside this
/// module can branch on it.
#[derive(Debug, Clone)]
enum Repr {
    /// The lowered machine itself, with its parameter binding.
    Interpreted { ir: Arc<FlatIr>, params: Arc<[i64]> },
    /// Dense tables: over state ids (flat machines, unguarded flattened
    /// statecharts) or, with an [`Unfolded`] side table beside it, over
    /// the configuration ids of a guarded machine.
    Dense(Arc<CompiledMachine>),
}

/// Most configurations an unfolding may reach before the machine falls
/// back to the interpreter: the dense gather reads a 901-row column at the
/// speed of a 33-row one (`core.kernel.wide_r25_ns_per_session` in
/// `docs/KERNELS.md`), and 4 096 rows × a handful of message classes
/// still sit in L2.
const MAX_CONFIGS: usize = 4096;

/// Largest register magnitude an explored configuration may hold.
/// [`arithmetic_fits`] proves that under it no guard or update can
/// overflow, so exploring with [`FlatIr::step`]'s bare operators never
/// panics in a debug build where a release build would wrap.
const MAX_MAGNITUDE: i64 = 1 << 31;

/// Why [`StepEngine::compile_ir`] left a guarded machine on the
/// interpreter — part of what the engine's `Display` form reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fallback {
    /// Exploration reached a configuration past [`MAX_CONFIGS`].
    OverBudget,
    /// Variable `var` left ±[`MAX_MAGNITUDE`].
    Unbounded { var: usize },
    /// [`arithmetic_fits`] could not rule out overflow.
    MayOverflow,
}

/// What an unfolded engine keeps beside its dense table so that every
/// observable answer stays the source machine's: the configurations —
/// the unfolding's reached set: source states and register rows, the
/// start state's number 0 — and the source's names, finish flags and binding.
#[derive(Debug)]
struct Unfolded {
    configs: ReachedSet,
    state_names: Box<[Arc<str>]>,
    finish: Box<[bool]>,
    params: Box<[i64]>,
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

/// Unfolds a guarded `ir` under `params` into a dense table over its
/// reachable configurations, explored breadth-first from `(start, 0…0)`
/// within [`MAX_CONFIGS`], every edge found by calling [`FlatIr::step`]
/// itself — so guard priority, staged updates and absorbing finish
/// states are the interpreter's by construction. `Err` carries why the
/// machine stays on the interpreter instead.
fn unfold(ir: &FlatIr, params: &[i64]) -> Result<(CompiledMachine, Unfolded), Fallback> {
    if !arithmetic_fits(ir, params) {
        return Err(Fallback::MayOverflow);
    }
    let state_names: Box<[Arc<str>]> = ir.states().iter().map(|s| s.name().into()).collect();
    let finish: Box<[bool]> = ir.states().iter().map(finishes).collect();
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
    let unfolded = Unfolded {
        configs,
        state_names,
        finish,
        params: params.into(),
    };
    Ok((rows.finish(ir.name(), ir.messages(), 0), unfolded))
}

/// One machine resolved onto one execution tier, owned behind `Arc`s.
///
/// Build one with [`StepEngine::interpreted`], [`StepEngine::dense`],
/// or — from a lowered IR, letting the IR and its binding pick the
/// tier — [`StepEngine::compile_ir`]; hand clones to any number
/// of [`SessionStore`](crate::SessionStore)s.
///
/// # Examples
///
/// ```
/// use stategen_core::{Action, FlatIr, StateMachineBuilder, StateRole, StepEngine, Tier};
///
/// let mut b = StateMachineBuilder::new("ping", ["ping"]);
/// let idle = b.add_state("idle");
/// let done = b.add_state_full("done", None, StateRole::Finish, vec![]);
/// b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
/// let ir = FlatIr::from_machine(&b.build(idle));
///
/// let engine = StepEngine::compile_ir(&ir, &[])?;
/// assert_eq!(engine.tier(), Tier::Compiled);
/// assert_eq!(engine.reg_count(), 0); // unguarded: no registers
/// let ping = engine.message_id("ping").unwrap();
/// let (target, actions) = engine.step(engine.start(), ping, &mut [], &mut []).unwrap();
/// assert!(engine.is_finish_state(target));
/// assert_eq!(actions, [Action::send("pong")]);
/// // The interpreted walk of the same machine answers identically.
/// let interp = StepEngine::interpreted(ir, &[])?;
/// assert_eq!(interp.step(interp.start(), ping, &mut [], &mut []).unwrap().0, target);
/// # Ok::<(), stategen_core::StategenError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StepEngine {
    repr: Repr,
    /// Finish flags per *configuration id* — what a session store holds
    /// per slot: the state id itself, except on an unfolded engine —
    /// whatever the tier, so the question the stores ask per slot never
    /// branches on the representation.
    finish: Arc<[bool]>,
    /// The session shape, resolved once: start configuration, declared
    /// variables, registers per session in a snapshot and scratch slots
    /// per stepper.
    start: u32,
    var_count: usize,
    reg_count: usize,
    scratch_len: usize,
    /// Present exactly when `repr` is a dense table over the
    /// configurations of a guarded machine.
    unfolded: Option<Arc<Unfolded>>,
    /// Why `compile_ir` fell back to the interpreter, if it had to.
    fallback: Option<Fallback>,
}

impl StepEngine {
    fn new(repr: Repr) -> Self {
        let (finish, start, var_count, reg_count, scratch_len) = match &repr {
            Repr::Interpreted { ir, .. } => {
                let finish = ir.states().iter().map(finishes).collect();
                // The interpreter's scratch is the pre-transition copy.
                let vars = ir.variables().len();
                (finish, ir.start(), vars, ir.reg_count(), vars)
            }
            Repr::Dense(m) => (m.finish_flags().into(), m.start(), 0, 0, 0),
        };
        StepEngine {
            repr,
            finish,
            start,
            var_count,
            reg_count,
            scratch_len,
            unfolded: None,
            fallback: None,
        }
    }

    /// The no-preparation tier: `ir` — any lowered machine, guarded or
    /// not — is walked as it stands by [`FlatIr::step`], under `params`.
    ///
    /// # Errors
    ///
    /// [`StategenError::ParamCountMismatch`] if `params` has the wrong
    /// arity for the IR.
    pub fn interpreted(ir: impl Into<Arc<FlatIr>>, params: &[i64]) -> Result<Self, StategenError> {
        let ir = ir.into();
        check_arity(ir.params().len(), params)?;
        let params = params.into();
        Ok(StepEngine::new(Repr::Interpreted { ir, params }))
    }

    /// The dense-table tier over an already compiled machine.
    pub fn dense(machine: impl Into<Arc<CompiledMachine>>) -> Self {
        StepEngine::new(Repr::Dense(machine.into()))
    }

    /// The one `FlatIr` + parameters → engine lowering. An unguarded IR
    /// compiles onto the dense table. A guarded one
    /// ([`FlatIr::is_guarded`]) is bound to `params` and *unfolded*: its
    /// reachable `(state, variables)` configurations are enumerated
    /// from the start state with [`FlatIr::step`] itself and, when
    /// there are at most 4 096 of them, become the rows of a dense
    /// table too — [`StepEngine::tier`] reports [`Tier::Compiled`],
    /// sessions store one configuration id and no registers, and every
    /// answer this type gives (state ids and names, registers,
    /// snapshots) stays the source machine's. A guarded IR whose
    /// configuration space is larger than that, or unbounded, falls
    /// back to the interpreter with `params` bound, exactly as
    /// [`StepEngine::interpreted`] would build it. Which of the two
    /// happened, and why, is the engine's `Display` form. Every spec shape and every
    /// deployable artifact boots through here, so the same machine
    /// under the same binding resolves identically whichever way it
    /// arrived.
    ///
    /// # Errors
    ///
    /// [`StategenError::Compile`] if the IR cannot be lowered (e.g.
    /// duplicate `(state, message)` transitions with identical guards —
    /// checked before unfolding, so acceptance depends neither on the
    /// binding nor on the tier that results);
    /// [`StategenError::ParamCountMismatch`] if `params` has the wrong
    /// arity (an unguarded IR takes none).
    ///
    /// # Examples
    ///
    /// A counter bound to `limit = 3` has four configurations:
    ///
    /// ```
    /// use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
    /// use stategen_core::{FlatIr, StepEngine, Tier};
    ///
    /// let mut b = EfsmBuilder::new("counter", ["tick"]);
    /// let limit = b.add_param("limit");
    /// let n = b.add_var("n");
    /// let counting = b.add_state("counting");
    /// let done = b.add_state("done");
    /// let next = LinExpr::var(n).plus_const(1);
    /// for (op, to) in [(CmpOp::Lt, counting), (CmpOp::Ge, done)] {
    ///     let guard = Guard::when(next.clone(), op, LinExpr::param(limit));
    ///     b.add_transition(counting, "tick", guard, vec![Update::Inc(n)], vec![], to);
    /// }
    /// let ir = FlatIr::from_efsm(&b.build(counting, Some(done)));
    ///
    /// let engine = StepEngine::compile_ir(&ir, &[3])?;
    /// assert_eq!(engine.tier(), Tier::Compiled);
    /// assert_eq!(
    ///     engine.to_string(),
    ///     "unfolded: 2 states × 1 vars → 4 configurations, 65 table bytes",
    /// );
    /// // Still the source machine to every caller: two states, two
    /// // registers per session (`n`, and the zero register).
    /// assert_eq!((engine.state_count(), engine.reg_count()), (2, 2));
    /// let tick = engine.message_id("tick").unwrap();
    /// let mut regs = [2, 0];
    /// let (to, _) = engine.step(engine.start(), tick, &mut regs, &mut []).unwrap();
    /// assert_eq!((engine.state_name(to), regs), ("done", [3, 0]));
    /// # Ok::<(), stategen_core::StategenError>(())
    /// ```
    pub fn compile_ir(ir: &FlatIr, params: &[i64]) -> Result<Self, StategenError> {
        if !ir.is_guarded() {
            check_arity(0, params)?;
            return Ok(StepEngine::dense(CompiledMachine::compile_ir(ir)?));
        }
        ir.reject_duplicates()?;
        check_arity(ir.params().len(), params)?;
        Ok(match unfold(ir, params) {
            Ok((machine, unfolded)) => StepEngine {
                var_count: ir.variables().len(),
                reg_count: ir.reg_count(),
                unfolded: Some(Arc::new(unfolded)),
                ..StepEngine::dense(machine)
            },
            Err(fallback) => StepEngine {
                fallback: Some(fallback),
                ..StepEngine::interpreted(ir.clone(), params)?
            },
        })
    }

    /// The tier this engine executes on.
    pub fn tier(&self) -> Tier {
        match &self.repr {
            Repr::Interpreted { .. } => Tier::Interpreted,
            Repr::Dense(_) => Tier::Compiled,
        }
    }

    /// Dense id of the start state.
    #[inline]
    pub fn start(&self) -> u32 {
        self.state_of(self.start)
    }

    /// `true` if `state` is a finish state (absorbing: it takes no
    /// transition on any message).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn is_finish_state(&self, state: u32) -> bool {
        match &self.unfolded {
            None => self.finish[state as usize],
            Some(u) => u.finish[state as usize],
        }
    }

    /// Display name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn state_name(&self, state: u32) -> &str {
        if let Some(u) = &self.unfolded {
            return &u.state_names[state as usize];
        }
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.states()[state as usize].name(),
            Repr::Dense(m) => m.state_name(state),
        }
    }

    /// Number of (flat) states; every valid state id is below it.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.unfolded
            .as_ref()
            .map_or(self.finish.len(), |u| u.finish.len())
    }

    /// The message alphabet, in declaration order.
    #[inline]
    pub fn messages(&self) -> &[String] {
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.messages(),
            Repr::Dense(m) => m.messages(),
        }
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.message_id(name),
            Repr::Dense(m) => m.message_id(name),
        }
    }

    /// The bound parameter values (empty for an unguarded machine).
    #[inline]
    pub fn params(&self) -> &[i64] {
        match &self.repr {
            Repr::Interpreted { params, .. } => params,
            Repr::Dense(_) => self.unfolded.as_ref().map_or(&[], |u| &u.params),
        }
    }

    /// Declared variables per session: the prefix of a session's
    /// register row that is the machine's own state (the rest is the
    /// always-zero register). Zero for an unguarded machine.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// Registers one session occupies in a snapshot, and that a caller
    /// of [`StepEngine::step`] must provide: [`FlatIr::reg_count`] of
    /// the lowered machine, whatever the tier. Zero exactly when the
    /// machine is unguarded — the degenerate case needs no branch in
    /// the caller, only an empty row.
    #[inline]
    pub fn reg_count(&self) -> usize {
        self.reg_count
    }

    /// Scratch slots a stepper must provide (shared by all sessions;
    /// contents are meaningless between calls, and the length is the
    /// tier's own business — it is not part of any snapshot): the
    /// interpreter's pre-transition copy of the declared variables.
    /// Zero when unguarded or unfolded.
    #[inline]
    pub fn scratch_len(&self) -> usize {
        self.scratch_len
    }

    /// Executes one transition: from `state` on `message`, returns the
    /// target state and the borrowed action list, or `None` if the
    /// message is not applicable there (including any message in a
    /// finish state, and no candidate's guard holding). Variable
    /// updates are applied to `regs` in place.
    ///
    /// `regs` must hold [`StepEngine::reg_count`] registers and
    /// `scratch` [`StepEngine::scratch_len`] slots (both empty for an
    /// unguarded machine); `message` must come from this engine's
    /// alphabet. Allocation-free on every tier. On an unfolded engine
    /// this form pays a hash lookup to find the configuration `(state,
    /// regs)` names; a [`SessionStore`](crate::SessionStore) or an
    /// [`Instance`](crate::Instance) holds the configuration instead.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range, a slice is too short, or —
    /// on an unfolded engine — `(state, regs)` is a pair the machine
    /// cannot reach from its start state.
    #[inline]
    pub fn step(
        &self,
        state: u32,
        message: MessageId,
        regs: &mut [i64],
        scratch: &mut [i64],
    ) -> Option<(u32, &[Action])> {
        let Some(unfolded) = &self.unfolded else {
            return self.step_config(state, message, regs, scratch);
        };
        let regs = &mut regs[..self.reg_count];
        let from = unfolded
            .configs
            .find(state, regs)
            .expect("(state, regs) is not a reachable configuration of this machine");
        let (to, actions) = self.step_config(from, message, &mut [], scratch)?;
        regs.copy_from_slice(unfolded.configs.row(to));
        Some((unfolded.configs.heads()[to as usize], actions))
    }

    /// The configuration a fresh session holds.
    #[inline]
    pub(crate) fn start_config(&self) -> u32 {
        self.start
    }

    /// Number of configuration ids; every valid one is below it.
    #[inline]
    pub(crate) fn config_count(&self) -> usize {
        self.finish.len()
    }

    /// `true` if a session holding `config` has finished.
    ///
    /// # Panics
    ///
    /// Panics if `config` is out of range.
    #[inline]
    pub(crate) fn config_finishes(&self, config: u32) -> bool {
        self.finish[config as usize]
    }

    /// Registers a store keeps per session beside the configuration id:
    /// [`StepEngine::reg_count`], except that an unfolded engine's
    /// configuration already says what the registers hold.
    #[inline]
    pub(crate) fn stored_regs(&self) -> usize {
        match self.unfolded {
            Some(_) => 0,
            None => self.reg_count,
        }
    }

    /// The source state of `config`. Ids out of range — a store's
    /// retired-slot sentinel — pass through unchanged.
    #[inline]
    pub(crate) fn state_of(&self, config: u32) -> u32 {
        match &self.unfolded {
            None => config,
            Some(u) => *u.configs.heads().get(config as usize).unwrap_or(&config),
        }
    }

    /// Writes the source state of every configuration in `configs`, as
    /// [`StepEngine::state_of`] gives it, over `out` — `false`, with
    /// `out` untouched, unless the engine is unfolded: `configs` then
    /// already is that list. One tight pass into the caller's buffer: a
    /// snapshot exports every slot.
    pub(crate) fn states_into(&self, configs: &[u32], out: &mut Vec<u32>) -> bool {
        let Some(unfolded) = &self.unfolded else {
            return false;
        };
        let table = unfolded.configs.heads();
        out.clear();
        out.extend(
            configs
                .iter()
                .map(|&c| *table.get(c as usize).unwrap_or(&c)),
        );
        true
    }

    /// Writes the register rows of `configs` over `out`, session-major
    /// and [`StepEngine::reg_count`] wide each (zeros for an
    /// out-of-range id) — `false`, with `out` untouched, unless the
    /// engine is unfolded: the rows are then the store's to keep.
    pub(crate) fn rows_into(&self, configs: &[u32], out: &mut Vec<i64>) -> bool {
        let Some(unfolded) = &self.unfolded else {
            return false;
        };
        let table = &unfolded.configs;
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
        true
    }

    /// The register row `config` stands for, [`StepEngine::reg_count`]
    /// wide — `None` unless the engine is unfolded, when the row is the
    /// store's to keep.
    ///
    /// # Panics
    ///
    /// Panics if the engine is unfolded and `config` is out of range.
    #[inline]
    pub(crate) fn config_row(&self, config: u32) -> Option<&[i64]> {
        self.unfolded.as_ref().map(|u| u.configs.row(config))
    }

    /// The configuration id of a session in `state` with register row
    /// `regs`: `state` itself, or on an unfolded engine the id of that
    /// exact pair — `None` if the machine cannot reach it.
    #[inline]
    pub(crate) fn config_of(&self, state: u32, regs: &[i64]) -> Option<u32> {
        match &self.unfolded {
            None => Some(state),
            Some(u) => u.configs.find(state, regs),
        }
    }

    /// [`StepEngine::step`] over configuration ids: `regs` holds
    /// [`StepEngine::stored_regs`] registers. The one place a single
    /// step branches on the tier.
    #[inline]
    pub(crate) fn step_config(
        &self,
        config: u32,
        message: MessageId,
        regs: &mut [i64],
        scratch: &mut [i64],
    ) -> Option<(u32, &[Action])> {
        match &self.repr {
            Repr::Interpreted { ir, params } => ir.step(config, message, params, regs, scratch),
            Repr::Dense(m) => m.step(config, message),
        }
    }

    /// The scalar batch walk: steps every live slot of a
    /// struct-of-arrays block (laid out as for
    /// [`StepEngine::deliver_batch`]) through the tier's single-session
    /// step, in ascending slot order, calling `visit(slot, from, to,
    /// actions)` — `from` and `to` configuration ids — for each
    /// transition before the next slot is stepped. The tier is resolved
    /// once, outside the loop.
    pub(crate) fn walk_batch<F>(
        &self,
        message: MessageId,
        states: &mut [u32],
        vars: &mut [i64],
        scratch: &mut [i64],
        visit: F,
    ) -> BatchTally
    where
        F: FnMut(usize, u32, u32, &[Action]),
    {
        // The step closures own plain references (`move`), so the loop
        // reads the machine directly, not through the engine's `Arc`s.
        let (n_regs, finish) = (self.stored_regs(), &*self.finish);
        match &self.repr {
            Repr::Interpreted { ir, params } => {
                let (ir, params): (&FlatIr, &[i64]) = (ir, params);
                let step =
                    move |state, regs: &mut [i64]| ir.step(state, message, params, regs, scratch);
                walk(states, vars, n_regs, finish, step, visit)
            }
            Repr::Dense(m) => {
                let m: &CompiledMachine = m;
                let step = move |state, _: &mut [i64]| m.step(state, message);
                walk(states, vars, n_regs, finish, step, visit)
            }
        }
    }

    /// The once-per-batch alphabet check every batch path makes before
    /// touching a session, so a foreign id fails the same way on every
    /// tier, flat or sharded.
    ///
    /// # Panics
    ///
    /// Panics if `message` is outside this engine's alphabet.
    pub(crate) fn assert_in_alphabet(&self, message: MessageId) {
        assert!(
            message.index() < self.messages().len(),
            "message id {} is outside this engine's alphabet of {} messages",
            message.index(),
            self.messages().len(),
        );
    }

    /// Delivers `message` to every session of a struct-of-arrays block
    /// — configuration id `states[s]` with session-major registers
    /// `vars[s * stored_regs ..]` — and returns how many transitions
    /// were taken and how many of them entered a finish state; actions
    /// are not materialised.
    /// The dense tier gathers through the message's table column in one
    /// pass (see the [`kernel`](crate::kernel) module); the interpreted
    /// tier walks the block, one single-session step per slot.
    ///
    /// Slots holding an out-of-range id (a retired-slot sentinel such as
    /// `u32::MAX`) are skipped with their registers untouched, so
    /// callers with recycled slot arrays need no separate live mask.
    /// Results are bit-identical to stepping each live slot through
    /// [`StepEngine::step_config`] in any order. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics — on every tier, before any session is touched — if
    /// `message` is outside this engine's alphabet (an id minted by a
    /// machine with more messages). May panic if `vars` does not hold
    /// [`StepEngine::stored_regs`] registers per session or `scratch`
    /// is shorter than [`StepEngine::scratch_len`].
    pub(crate) fn deliver_batch(
        &self,
        message: MessageId,
        states: &mut [u32],
        vars: &mut [i64],
        scratch: &mut [i64],
    ) -> BatchTally {
        self.assert_in_alphabet(message);
        match &self.repr {
            Repr::Dense(m) => dense_batch(m, message, states),
            _ => self.walk_batch(message, states, vars, scratch, |_, _, _, _| {}),
        }
    }
}

/// Which lowering [`StepEngine::compile_ir`] chose and why, in one line
/// — `unfolded: 9 states × 2 vars → 91 configurations, 5980 table
/// bytes`, `interpreted: over budget at 4097 configurations`, … — or,
/// for an engine whose constructor named its tier, that tier.
impl fmt::Display for StepEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let states = self.state_count();
        match (&self.repr, self.fallback) {
            (Repr::Interpreted { .. }, None) => {
                write!(f, "interpreted: the lowered IR, walked as it stands")
            }
            (Repr::Interpreted { .. }, Some(Fallback::OverBudget)) => {
                write!(f, "interpreted: over budget at {} configurations", MAX_CONFIGS + 1)
            }
            (Repr::Interpreted { .. }, Some(Fallback::Unbounded { var })) => write!(
                f,
                "interpreted: variable {var} unbounded (left ±2^31 within {MAX_CONFIGS} configurations)"
            ),
            (Repr::Interpreted { .. }, Some(Fallback::MayOverflow)) => write!(
                f,
                "interpreted: guard or update arithmetic may overflow under this binding"
            ),
            (Repr::Dense(_), _) if self.unfolded.is_none() => {
                write!(f, "dense: {states} states, unguarded")
            }
            (Repr::Dense(machine), _) => write!(
                f,
                "unfolded: {states} states × {} vars → {} configurations, {} table bytes",
                self.var_count,
                self.config_count(),
                machine.table_bytes(),
            ),
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

/// `true` for a finish state of the lowered machine.
fn finishes(state: &FlatState) -> bool {
    state.role() == StateRole::Finish
}

/// `Ok` if `params` binds exactly `expected` parameters.
fn check_arity(expected: usize, params: &[i64]) -> Result<(), StategenError> {
    if params.len() == expected {
        Ok(())
    } else {
        Err(StategenError::ParamCountMismatch {
            expected,
            found: params.len(),
        })
    }
}

/// The loop of [`StepEngine::walk_batch`], written once and
/// instantiated per tier with that tier's single-session `step`. Kept
/// out of line so each instance gets its own register allocation:
/// inlined side by side, the two loops spill each other's counters.
#[inline(never)]
fn walk<'e>(
    states: &mut [u32],
    vars: &mut [i64],
    n_regs: usize,
    finish: &[bool],
    mut step: impl FnMut(u32, &mut [i64]) -> Option<(u32, &'e [Action])>,
    mut visit: impl FnMut(usize, u32, u32, &[Action]),
) -> BatchTally {
    // Rows ride along zipped, not indexed: with no registers the file
    // is empty and every slot gets the empty row.
    let mut rows = vars.chunks_exact_mut(n_regs.max(1));
    let mut tally = BatchTally::default();
    for (slot, cur) in states.iter_mut().enumerate() {
        let regs = rows.next().unwrap_or_default();
        let from = *cur;
        if from as usize >= finish.len() {
            continue; // retired
        }
        if let Some((to, actions)) = step(from, regs) {
            *cur = to;
            tally.transitions += 1;
            tally.finished += u64::from(finish[to as usize]);
            visit(slot, from, to, actions);
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efsm::{CmpOp, EfsmBuilder, Guard};
    use crate::interp::{Instance, ProtocolEngine};

    /// `tick` in `counting`: below the guard (`n + 1 < limit + slack`)
    /// apply `update` and stay, otherwise finish.
    fn counter(update: impl Fn(crate::efsm::VarId) -> Update, slack: i64) -> FlatIr {
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let limit = b.add_param("limit");
        let n = b.add_var("n");
        let counting = b.add_state("counting");
        let done = b.add_state("done");
        let next = LinExpr::var(n).plus_const(1);
        let bound = LinExpr::param(limit).plus_const(slack);
        for (op, to) in [(CmpOp::Lt, counting), (CmpOp::Ge, done)] {
            let guard = Guard::when(next.clone(), op, bound.clone());
            b.add_transition(counting, "tick", guard, vec![update(n)], vec![], to);
        }
        FlatIr::from_efsm(&b.build(counting, Some(done)))
    }

    /// The decision is a function of machine *and* binding, and every
    /// way out of the budget lands on the interpreter — silently, in a
    /// debug build too — saying why.
    #[test]
    fn lowering_is_decided_by_the_bound_configuration_space() {
        let inc = counter(Update::Inc, 0);
        let double = counter(
            |n| Update::Set(n, LinExpr::var(n).times(2).plus_const(1)),
            0,
        );
        let cases: [(&FlatIr, i64, Tier, &str); 6] = [
            (
                &inc,
                3,
                Tier::Compiled,
                "unfolded: 2 states × 1 vars → 4 configurations, 65 table bytes",
            ),
            (
                &inc,
                4095,
                Tier::Compiled,
                "unfolded: 2 states × 1 vars → 4096 configurations",
            ),
            (
                &inc,
                4096,
                Tier::Interpreted,
                "interpreted: over budget at 4097 configurations",
            ),
            (
                &inc,
                i64::MAX,
                Tier::Interpreted,
                "interpreted: over budget at 4097 configurations",
            ),
            (
                &double,
                i64::MAX,
                Tier::Interpreted,
                "interpreted: variable 0 unbounded",
            ),
            (
                &counter(Update::Inc, 1),
                i64::MAX,
                Tier::Interpreted,
                "interpreted: guard or update arithmetic may overflow",
            ),
        ];
        for (ir, limit, tier, why) in cases {
            let engine = StepEngine::compile_ir(ir, &[limit]).unwrap();
            assert_eq!(engine.tier(), tier, "limit {limit}");
            assert!(engine.to_string().starts_with(why), "{engine}");
            // Same machine to every caller, whichever way it went.
            assert_eq!((engine.state_count(), engine.reg_count()), (2, 2));
            assert_eq!((engine.start(), engine.params()), (0, &[limit][..]));
            if limit > 4097 && tier == Tier::Interpreted && !why.contains("overflow") {
                let mut fast = Instance::new(engine);
                let mut reference = ir.instance(vec![limit]);
                for _ in 0..40 {
                    assert_eq!(fast.deliver("tick"), reference.deliver("tick"));
                    assert_eq!(fast.vars(), reference.vars());
                    assert_eq!(fast.is_finished(), reference.is_finished());
                }
            }
        }
        let asked = StepEngine::interpreted(inc, &[3]).unwrap();
        assert_eq!(
            asked.to_string(),
            "interpreted: the lowered IR, walked as it stands"
        );
    }

    /// Two transitions with one guard on one `(state, message)` pair are
    /// refused before unfolding, so the interpreter fallback accepts
    /// nothing the unfolder refuses.
    #[test]
    fn duplicate_guards_are_refused_whichever_tier_would_result() {
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let limit = b.add_param("limit");
        let n = b.add_var("n");
        let counting = b.add_state("counting");
        let done = b.add_state("done");
        for to in [counting, done] {
            let guard = Guard::when(LinExpr::var(n), CmpOp::Lt, LinExpr::param(limit));
            b.add_transition(counting, "tick", guard, vec![Update::Inc(n)], vec![], to);
        }
        let ir = FlatIr::from_efsm(&b.build(counting, Some(done)));
        // 3 unfolds; 5 000 goes over budget.
        for limit in [3, 5000] {
            let refused = crate::error::CompileError::DuplicateTransition {
                state: "counting".into(),
                message: "tick".into(),
            };
            assert_eq!(
                StepEngine::compile_ir(&ir, &[limit]).err(),
                Some(StategenError::Compile(refused))
            );
        }
    }

    /// The public step of an unfolded engine takes and gives source
    /// state ids and registers; a pair the machine cannot be in is a
    /// caller bug, reported as one.
    #[test]
    fn unfolded_step_speaks_source_states_and_registers() {
        let engine = StepEngine::compile_ir(&counter(Update::Inc, 0), &[3]).unwrap();
        let tick = engine.message_id("tick").unwrap();
        let mut regs = [0, 0];
        for (n, to) in [(1, 0), (2, 0), (3, 1)] {
            let from = if n == 1 { engine.start() } else { 0 };
            let (target, _) = engine.step(from, tick, &mut regs, &mut []).unwrap();
            assert_eq!((target, regs), (to, [n, 0]));
        }
        assert!(engine.is_finish_state(1) && !engine.is_finish_state(0));
        assert!(engine.step(1, tick, &mut regs, &mut []).is_none());
        let unreachable = std::panic::AssertUnwindSafe(|| {
            engine.step(0, tick, &mut [9, 0], &mut []).map(|t| t.0)
        });
        assert!(std::panic::catch_unwind(unreachable).is_err());
    }
}
