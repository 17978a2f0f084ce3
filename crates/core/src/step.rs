//! The step engine: one machine resolved onto one execution tier.
//!
//! Every front-end lowers onto [`FlatIr`], and the IR is executed one of
//! three ways — walked as generated ([`Tier::Interpreted`]), through the
//! dense `states × messages` table ([`Tier::Compiled`]), or through the
//! fused-check / register-machine bytecode with a parameter binding
//! folded in ([`Tier::CompiledEfsm`]). [`StepEngine`] owns whichever of
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
//! [`StepEngine::reg_count`] is zero exactly when the machine is
//! unguarded, so callers size their per-session registers from it and
//! never ask which tier they are on.

use std::sync::Arc;

use crate::compiled::CompiledMachine;
use crate::efsm_compiled::{CompiledEfsm, EfsmBinding};
use crate::error::StategenError;
use crate::ir::FlatIr;
use crate::kernel::{dense_batch, efsm_batch, BatchTally, KernelScratch};
use crate::machine::{Action, MessageId, State, StateMachine, StateRole};

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
    /// Walking the generated machine's transition maps directly — no
    /// preparation pass, slowest dispatch.
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
    /// The generated machine itself.
    Interpreted(Arc<StateMachine>),
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
/// use stategen_core::{Action, CompiledMachine, StateMachineBuilder, StateRole, StepEngine, Tier};
///
/// let mut b = StateMachineBuilder::new("ping", ["ping"]);
/// let idle = b.add_state("idle");
/// let done = b.add_state_full("done", None, StateRole::Finish, vec![]);
/// b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
/// let machine = b.build(idle);
///
/// let engine = StepEngine::dense(CompiledMachine::compile(&machine));
/// assert_eq!(engine.tier(), Tier::Compiled);
/// assert_eq!(engine.reg_count(), 0); // unguarded: no registers
/// let ping = engine.message_id("ping").unwrap();
/// let (target, actions) = engine.step(engine.start(), ping, &mut [], &mut []).unwrap();
/// assert!(engine.is_finish_state(target));
/// assert_eq!(actions, [Action::send("pong")]);
/// // The interpreted walk of the same machine answers identically.
/// let interp = StepEngine::interpreted(machine);
/// assert_eq!(interp.step(interp.start(), ping, &mut [], &mut []).unwrap().0, target);
/// ```
#[derive(Debug, Clone)]
pub struct StepEngine {
    repr: Repr,
    /// Per-state finish flags, whatever the tier — so the question the
    /// stores ask per slot never branches on the representation.
    finish: Arc<[bool]>,
}

impl StepEngine {
    fn new(repr: Repr) -> Self {
        let finish = match &repr {
            Repr::Interpreted(m) => {
                let finishes = |s: &State| s.role() == StateRole::Finish;
                m.states().iter().map(finishes).collect()
            }
            Repr::Dense(m) => m.finish_flags().into(),
            Repr::Register { machine, .. } => machine.finish_flags().into(),
        };
        StepEngine { repr, finish }
    }

    /// The no-preparation tier: `machine` is walked as generated.
    pub fn interpreted(machine: impl Into<Arc<StateMachine>>) -> Self {
        StepEngine::new(Repr::Interpreted(machine.into()))
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
        if params.len() != machine.param_count() {
            return Err(StategenError::ParamCountMismatch {
                expected: machine.param_count(),
                found: params.len(),
            });
        }
        let binding = Arc::new(machine.bind(params));
        Ok(StepEngine::new(Repr::Register { machine, binding }))
    }

    /// The one `FlatIr` + parameters → engine lowering: a guarded IR
    /// ([`FlatIr::is_guarded`]) compiles onto the register-machine tier
    /// with `params` bound, an unguarded one onto the dense table.
    /// Statechart specs and deployable artifacts both boot through
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
        } else if !params.is_empty() {
            Err(StategenError::ParamCountMismatch {
                expected: 0,
                found: params.len(),
            })
        } else {
            Ok(StepEngine::dense(CompiledMachine::compile_ir(ir)?))
        }
    }

    /// The tier this engine executes on.
    pub fn tier(&self) -> Tier {
        match &self.repr {
            Repr::Interpreted(_) => Tier::Interpreted,
            Repr::Dense(_) => Tier::Compiled,
            Repr::Register { .. } => Tier::CompiledEfsm,
        }
    }

    /// Dense id of the start state.
    #[inline]
    pub fn start(&self) -> u32 {
        match &self.repr {
            Repr::Interpreted(m) => m.start().index() as u32,
            Repr::Dense(m) => m.start(),
            Repr::Register { machine, .. } => machine.start(),
        }
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
            Repr::Interpreted(m) => m.states()[state as usize].name(),
            Repr::Dense(m) => m.state_name(state),
            Repr::Register { machine, .. } => machine.state_name(state),
        }
    }

    /// Number of (flat) states; every valid state id is below it.
    #[inline]
    pub fn state_count(&self) -> usize {
        match &self.repr {
            Repr::Interpreted(m) => m.state_count(),
            Repr::Dense(m) => m.state_count(),
            Repr::Register { machine, .. } => machine.state_count(),
        }
    }

    /// The message alphabet, in declaration order.
    #[inline]
    pub fn messages(&self) -> &[String] {
        match &self.repr {
            Repr::Interpreted(m) => m.messages(),
            Repr::Dense(m) => m.messages(),
            Repr::Register { machine, .. } => machine.messages(),
        }
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        match &self.repr {
            Repr::Interpreted(m) => m.message_id(name),
            Repr::Dense(m) => m.message_id(name),
            Repr::Register { machine, .. } => machine.message_id(name),
        }
    }

    /// The bound parameter values (empty for an unguarded machine).
    #[inline]
    pub fn params(&self) -> &[i64] {
        match &self.repr {
            Repr::Register { binding, .. } => binding.params(),
            _ => &[],
        }
    }

    /// Declared variables per session: the prefix of a session's
    /// register row that is the machine's own state (the rest is
    /// compiler temporaries). Zero for an unguarded machine.
    #[inline]
    pub fn var_count(&self) -> usize {
        match &self.repr {
            Repr::Register { machine, .. } => machine.var_count(),
            _ => 0,
        }
    }

    /// Registers a stepper must provide per session. Zero exactly when
    /// the machine is unguarded — the degenerate case needs no branch
    /// in the caller, only an empty row.
    #[inline]
    pub fn reg_count(&self) -> usize {
        match &self.repr {
            Repr::Register { machine, .. } => machine.reg_count(),
            _ => 0,
        }
    }

    /// Scratch slots a stepper must provide (shared by all sessions;
    /// contents are meaningless between calls). Zero when unguarded.
    #[inline]
    pub fn scratch_len(&self) -> usize {
        match &self.repr {
            Repr::Register { machine, .. } => machine.scratch_len(),
            _ => 0,
        }
    }

    /// Executes one transition: from `state` on `message`, returns the
    /// target state and the borrowed action list, or `None` if the
    /// message is not applicable there (including any message in a
    /// finish state, and — on the register tier — no candidate's guard
    /// holding). Variable updates are applied to `regs` in place.
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
            Repr::Interpreted(m) => walk_step(m, state, message),
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
            Repr::Interpreted(m) => {
                let m: &StateMachine = m;
                let step = move |state, _: &mut [i64]| walk_step(m, state, message);
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
    /// pass, the register tier runs the `(state, message)`-bucketed
    /// masked sweeps (see the [`kernel`](crate::kernel) module) — the
    /// only tier that uses `kernel` — and the interpreted tier walks.
    ///
    /// Slots holding an out-of-range state id (a retired-slot sentinel
    /// such as `u32::MAX`) are skipped with their registers untouched,
    /// so callers with recycled slot arrays need no separate live mask.
    /// Results are bit-identical to stepping each live slot through
    /// [`StepEngine::step`] in any order. Allocation-free once `kernel`
    /// has grown to the block's size.
    ///
    /// # Panics
    ///
    /// May panic if `vars` does not hold [`StepEngine::reg_count`]
    /// registers per session or `scratch` is shorter than
    /// [`StepEngine::scratch_len`].
    pub fn deliver_batch(
        &self,
        message: MessageId,
        states: &mut [u32],
        vars: &mut [i64],
        scratch: &mut [i64],
        kernel: &mut KernelScratch,
    ) -> BatchTally {
        match &self.repr {
            Repr::Interpreted(_) => {
                self.walk_batch(message, states, vars, scratch, |_, _, _, _| {})
            }
            Repr::Dense(m) => dense_batch(m, message, states),
            Repr::Register { machine, binding } => {
                efsm_batch(machine, binding, message, states, vars, scratch, kernel)
            }
        }
    }
}

/// The interpreted tier's single-session step: a walk of the generated
/// machine's transition map (finish states take no transition).
#[inline]
fn walk_step(machine: &StateMachine, state: u32, message: MessageId) -> Option<(u32, &[Action])> {
    let from = &machine.states()[state as usize];
    if from.role() == StateRole::Finish {
        return None;
    }
    from.transition(message)
        .map(|t| (t.target().index() as u32, t.actions()))
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
