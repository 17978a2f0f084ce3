//! The step engine: one machine resolved onto one execution tier.
//!
//! Every front-end lowers onto [`FlatIr`], and the IR is executed one of
//! three ways — walked as lowered by [`FlatIr::step`], the definition
//! the other two are compiled from and tested against
//! ([`Tier::Interpreted`]), through the dense `states × messages` table
//! ([`Tier::Compiled`]), or through the fused-check / register-machine
//! bytecode with a parameter binding folded in
//! ([`Tier::CompiledEfsm`]). [`StepEngine`] owns whichever of
//! the three a machine resolved onto behind `Arc`s (a clone is pointer
//! bumps; engines are `Send + Sync + 'static`) and answers every
//! question a session store asks of a machine — where sessions start,
//! which states finish, what one message does to one session
//! ([`StepEngine::step`]), what it does to a whole batch
//! ([`StepEngine::deliver_batch`]) — so **this module is the only place
//! that branches on the tier**. The representation is private: code
//! outside cannot match on it, only ask.
//!
//! A flat FSM is the degenerate EFSM, and the register file says so:
//! [`StepEngine::reg_count`] is [`FlatIr::reg_count`] of the lowered
//! machine on every tier — zero exactly when it is unguarded — so
//! callers size their per-session registers from it, never ask which
//! tier they are on, and a register file written under one engine fits
//! every engine of the same machine.

use std::sync::Arc;

use crate::compiled::CompiledMachine;
use crate::efsm_compiled::{CompiledEfsm, EfsmBinding};
use crate::error::StategenError;
use crate::ir::{FlatIr, FlatState};
use crate::kernel::{dense_batch, efsm_lockstep, BatchTally};
use crate::machine::{Action, MessageId, StateRole};

/// Which execution tier a [`StepEngine`] runs on — what the two
/// compilers (and their absence) distinguish, nothing more. The
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
    /// Open to every machine, guarded or not.
    Interpreted,
    /// Dense `states × messages` transition tables with an interned
    /// action arena — dispatch in ~1 ns, zero allocation per delivery.
    /// Where every unguarded machine compiles to, flat or flattened.
    Compiled,
    /// Guards and updates lowered to fused threshold checks plus
    /// register-machine bytecode, parameters folded into a flat
    /// dispatch table — one engine serves the whole protocol family.
    /// Where every guarded machine compiles to, EFSM or statechart.
    CompiledEfsm,
}

impl Tier {
    /// Stable lowercase label (for reports and benchmark rows).
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Interpreted => "interpreted",
            Tier::Compiled => "compiled",
            Tier::CompiledEfsm => "compiled_efsm",
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
    /// Dense tables (flat machines and unguarded flattened statecharts).
    Dense(Arc<CompiledMachine>),
    /// The lowered guarded machine with its parameter binding folded
    /// into the dispatch table every session shares.
    Register {
        machine: Arc<CompiledEfsm>,
        binding: Arc<EfsmBinding>,
    },
}

/// One machine resolved onto one execution tier, owned behind `Arc`s.
///
/// Build one with [`StepEngine::interpreted`], [`StepEngine::dense`],
/// [`StepEngine::register`], or — from a lowered IR, letting the IR pick
/// the compiler — [`StepEngine::compile_ir`]; hand clones to any number
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
    /// Per-state finish flags, whatever the tier — so the question the
    /// stores ask per slot never branches on the representation.
    finish: Arc<[bool]>,
    /// The session shape, resolved once: start state, declared
    /// variables, registers and scratch slots per stepper.
    start: u32,
    var_count: usize,
    reg_count: usize,
    scratch_len: usize,
}

impl StepEngine {
    fn new(repr: Repr) -> Self {
        let (finish, start, var_count, reg_count, scratch_len) = match &repr {
            Repr::Interpreted { ir, .. } => {
                let finishes = |s: &FlatState| s.role() == StateRole::Finish;
                let finish = ir.states().iter().map(finishes).collect();
                // The interpreter's scratch is the pre-transition copy.
                let vars = ir.variables().len();
                (finish, ir.start(), vars, ir.reg_count(), vars)
            }
            Repr::Dense(m) => (m.finish_flags().into(), m.start(), 0, 0, 0),
            Repr::Register { machine: m, .. } => (
                m.finish_flags().into(),
                m.start(),
                m.var_count(),
                m.reg_count(),
                m.scratch_len(),
            ),
        };
        StepEngine {
            repr,
            finish,
            start,
            var_count,
            reg_count,
            scratch_len,
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

    /// The register-machine tier: `machine` bound to `params`, the
    /// binding shared by every session stepped through this engine.
    ///
    /// # Errors
    ///
    /// [`StategenError::ParamCountMismatch`] if `params` has the wrong
    /// arity for the machine.
    pub fn register(
        machine: impl Into<Arc<CompiledEfsm>>,
        params: &[i64],
    ) -> Result<Self, StategenError> {
        let machine = machine.into();
        check_arity(machine.param_count(), params)?;
        let binding = Arc::new(machine.bind(params));
        Ok(StepEngine::new(Repr::Register { machine, binding }))
    }

    /// The one `FlatIr` + parameters → engine lowering: a guarded IR
    /// ([`FlatIr::is_guarded`]) compiles onto the register-machine tier
    /// with `params` bound, an unguarded one onto the dense table.
    /// Every spec shape and every deployable artifact boots through
    /// here, so the same machine resolves identically whichever way it
    /// arrived.
    ///
    /// # Errors
    ///
    /// [`StategenError::Compile`] if the IR cannot be lowered (e.g.
    /// duplicate `(state, message)` transitions with identical guards);
    /// [`StategenError::ParamCountMismatch`] if `params` has the wrong
    /// arity (an unguarded IR takes none).
    pub fn compile_ir(ir: &FlatIr, params: &[i64]) -> Result<Self, StategenError> {
        if ir.is_guarded() {
            StepEngine::register(CompiledEfsm::compile_ir(ir)?, params)
        } else {
            check_arity(0, params)?;
            Ok(StepEngine::dense(CompiledMachine::compile_ir(ir)?))
        }
    }

    /// The tier this engine executes on.
    pub fn tier(&self) -> Tier {
        match &self.repr {
            Repr::Interpreted { .. } => Tier::Interpreted,
            Repr::Dense(_) => Tier::Compiled,
            Repr::Register { .. } => Tier::CompiledEfsm,
        }
    }

    /// Dense id of the start state.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// `true` if `state` is a finish state (absorbing: it takes no
    /// transition on any message).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn is_finish_state(&self, state: u32) -> bool {
        self.finish[state as usize]
    }

    /// Display name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn state_name(&self, state: u32) -> &str {
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.states()[state as usize].name(),
            Repr::Dense(m) => m.state_name(state),
            Repr::Register { machine, .. } => machine.state_name(state),
        }
    }

    /// Number of (flat) states; every valid state id is below it.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.finish.len()
    }

    /// The message alphabet, in declaration order.
    #[inline]
    pub fn messages(&self) -> &[String] {
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.messages(),
            Repr::Dense(m) => m.messages(),
            Repr::Register { machine, .. } => machine.messages(),
        }
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.message_id(name),
            Repr::Dense(m) => m.message_id(name),
            Repr::Register { machine, .. } => machine.message_id(name),
        }
    }

    /// The bound parameter values (empty for an unguarded machine).
    #[inline]
    pub fn params(&self) -> &[i64] {
        match &self.repr {
            Repr::Interpreted { params, .. } => params,
            Repr::Dense(_) => &[],
            Repr::Register { binding, .. } => binding.params(),
        }
    }

    /// Declared variables per session: the prefix of a session's
    /// register row that is the machine's own state (the rest is
    /// compiler temporaries). Zero for an unguarded machine.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// Registers a stepper must provide per session:
    /// [`FlatIr::reg_count`] of the lowered machine, whatever the tier.
    /// Zero exactly when the machine is unguarded — the degenerate case
    /// needs no branch in the caller, only an empty row.
    #[inline]
    pub fn reg_count(&self) -> usize {
        self.reg_count
    }

    /// Scratch slots a stepper must provide (shared by all sessions;
    /// contents are meaningless between calls, and the length is the
    /// tier's own business — it is not part of any snapshot). Zero when
    /// unguarded.
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
    /// alphabet. Allocation-free on every tier.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or a slice is too short.
    #[inline]
    pub fn step(
        &self,
        state: u32,
        message: MessageId,
        regs: &mut [i64],
        scratch: &mut [i64],
    ) -> Option<(u32, &[Action])> {
        match &self.repr {
            Repr::Interpreted { ir, params } => ir.step(state, message, params, regs, scratch),
            Repr::Dense(m) => m.step(state, message),
            Repr::Register { machine, binding } => {
                machine.step(state, message, binding, regs, scratch)
            }
        }
    }

    /// The scalar batch walk: steps every live slot of a
    /// struct-of-arrays block (laid out as for
    /// [`StepEngine::deliver_batch`]) through the tier's single-session
    /// step, in ascending slot order, calling `visit(slot, from, to,
    /// actions)` for each transition before the next slot is stepped.
    /// The tier is resolved once, outside the loop.
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
        let (n_regs, finish) = (self.reg_count(), &*self.finish);
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
            Repr::Register { machine, binding } => {
                let (machine, binding): (&CompiledEfsm, &EfsmBinding) = (machine, binding);
                let step = move |state, regs: &mut [i64]| {
                    machine.step(state, message, binding, regs, scratch)
                };
                walk(states, vars, n_regs, finish, step, visit)
            }
        }
    }

    /// Delivers `message` to every session of a struct-of-arrays block
    /// — `states[s]` with session-major registers `vars[s * reg_count
    /// ..]` — and returns how many transitions were taken and how many
    /// of them entered a finish state; actions are not materialised.
    /// The dense tier gathers through the message's table column in one
    /// pass; the register tier sweeps a lockstep block with masked
    /// compares (see the [`kernel`](crate::kernel) module) and, like
    /// the interpreted tier, walks a divergent one.
    ///
    /// Slots holding an out-of-range state id (a retired-slot sentinel
    /// such as `u32::MAX`) are skipped with their registers untouched,
    /// so callers with recycled slot arrays need no separate live mask.
    /// Results are bit-identical to stepping each live slot through
    /// [`StepEngine::step`] in any order. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics — on every tier, before any session is touched — if
    /// `message` is outside this engine's alphabet (an id minted by a
    /// machine with more messages). May panic if `vars` does not hold
    /// [`StepEngine::reg_count`] registers per session or `scratch` is
    /// shorter than [`StepEngine::scratch_len`].
    pub fn deliver_batch(
        &self,
        message: MessageId,
        states: &mut [u32],
        vars: &mut [i64],
        scratch: &mut [i64],
    ) -> BatchTally {
        // Once per batch, not per session: the register tier would
        // otherwise read another state's cell for a foreign id.
        assert!(
            message.index() < self.messages().len(),
            "message id {} is outside this engine's alphabet of {} messages",
            message.index(),
            self.messages().len(),
        );
        let kernel = match &self.repr {
            Repr::Interpreted { .. } => None,
            Repr::Dense(m) => Some(dense_batch(m, message, states)),
            Repr::Register { machine, binding } => {
                efsm_lockstep(machine, binding, message, states, vars)
            }
        };
        kernel.unwrap_or_else(|| self.walk_batch(message, states, vars, scratch, |_, _, _, _| {}))
    }
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
/// inlined side by side, the three loops spill each other's counters.
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
