//! The step engine: one machine resolved onto one execution tier.
//!
//! The lowered IR runs one of two ways — the paper's two deployment
//! policies (§4.2): walked by [`FlatIr::step`] ([`Tier::Interpreted`],
//! "interpret the model"), or through the dense `states × messages`
//! table ([`Tier::Compiled`], "generate the FSM for one binding"), which
//! a guarded machine reaches through core's [`unfold`] lowering when its
//! bound configuration space fits the budget. [`StepEngine`] owns
//! whichever of the two a machine resolved onto behind `Arc`s and
//! answers every question a session store asks of it — where sessions
//! start, which states finish, what one message does to one session
//! ([`StepEngine::step_config`]), what it does to a whole batch
//! ([`StepEngine::deliver_batch`]) — so **this module is the only place
//! that branches on the tier**. The representation is private.
//!
//! A flat FSM is the degenerate EFSM: [`StepEngine::reg_count`] is
//! [`FlatIr::reg_count`] of the lowered machine on every tier — zero
//! exactly when it is unguarded — so a register file written under one
//! engine fits every engine of the same machine.
//!
//! The engine speaks the *source* machine's state ids, names and
//! registers, unfolded or not, except where a method says it takes a
//! *configuration* id: what an unfolded engine's sessions really hold,
//! an id into the unfolded table, which only the session store sees.

use std::fmt;
use std::sync::Arc;

use stategen_core::{
    unfold, Action, CompiledMachine, Fallback, FlatIr, MessageId, StateRole, StategenError,
    Unfolded,
};

use crate::kernel::{dense_batch, BatchTally};

/// Which execution tier an [`Engine`](crate::Engine) runs on — what the
/// dense compiler (and its absence) distinguishes, nothing more. The
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

/// The stable lowercase label reports and benchmark rows print.
impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Interpreted => "interpreted",
            Tier::Compiled => "compiled",
        })
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

/// One machine resolved onto one execution tier, owned behind `Arc`s.
///
/// Build one with [`StepEngine::interpreted`] or — from a lowered IR,
/// letting the IR and its binding pick the tier —
/// [`StepEngine::compile_ir`]; hand clones to any number of session
/// stores.
#[derive(Debug, Clone)]
pub(crate) struct StepEngine {
    repr: Repr,
    /// Finish flags per *configuration id* — what a session store holds
    /// per slot: the state id itself, except on an unfolded engine —
    /// whatever the tier, so the question the stores ask per slot never
    /// branches on the representation.
    finish: Arc<[bool]>,
    /// The parameter binding (`None` when unguarded), then the session
    /// shape, resolved once: start configuration, declared variables,
    /// registers per session in a snapshot and scratch slots per
    /// stepper.
    params: Option<Arc<[i64]>>,
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
        let (finish, params, start, var_count, reg_count, scratch_len) = match &repr {
            Repr::Interpreted { ir, params } => {
                let finish = ir.states().iter().map(|s| s.role() == StateRole::Finish);
                // The interpreter's scratch is the pre-transition copy.
                let vars = ir.variables().len();
                let params = Some(Arc::clone(params));
                (
                    finish.collect(),
                    params,
                    ir.start(),
                    vars,
                    ir.reg_count(),
                    vars,
                )
            }
            Repr::Dense(m) => {
                let finish = (0..m.state_count() as u32).map(|s| m.is_finish_state(s));
                (finish.collect(), None, m.start(), 0, 0, 0)
            }
        };
        StepEngine {
            repr,
            finish,
            params,
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
    pub(crate) fn interpreted(
        ir: impl Into<Arc<FlatIr>>,
        params: &[i64],
    ) -> Result<Self, StategenError> {
        let ir = ir.into();
        check_arity(ir.params().len(), params)?;
        let params = params.into();
        Ok(StepEngine::new(Repr::Interpreted { ir, params }))
    }

    /// The one `FlatIr` + parameters → engine lowering, behind
    /// [`Engine::compile`](crate::Engine::compile) and every artifact
    /// boot: an unguarded IR compiles onto the dense table; a guarded
    /// one is bound and handed to [`unfold`], and runs on the
    /// interpreter, as [`StepEngine::interpreted`] builds it, when that
    /// falls back. The `Display` form says which, and why.
    ///
    /// # Errors
    ///
    /// [`StategenError::Compile`] if the IR cannot be lowered — checked
    /// before unfolding, so acceptance depends neither on the binding
    /// nor on the tier that results; [`StategenError::ParamCountMismatch`]
    /// if `params` has the wrong arity (an unguarded IR takes none).
    pub(crate) fn compile_ir(ir: &FlatIr, params: &[i64]) -> Result<Self, StategenError> {
        if !ir.is_guarded() {
            check_arity(0, params)?;
            let machine = CompiledMachine::compile_ir(ir)?;
            return Ok(StepEngine::new(Repr::Dense(Arc::new(machine))));
        }
        ir.reject_duplicates()?;
        check_arity(ir.params().len(), params)?;
        Ok(match unfold(ir, params) {
            Ok((machine, unfolded)) => StepEngine {
                params: Some(params.into()),
                var_count: ir.variables().len(),
                reg_count: ir.reg_count(),
                unfolded: Some(Arc::new(unfolded)),
                ..StepEngine::new(Repr::Dense(Arc::new(machine)))
            },
            Err(fallback) => StepEngine {
                fallback: Some(fallback),
                ..StepEngine::interpreted(ir.clone(), params)?
            },
        })
    }

    /// The tier this engine executes on.
    pub(crate) fn tier(&self) -> Tier {
        match &self.repr {
            Repr::Interpreted { .. } => Tier::Interpreted,
            Repr::Dense(_) => Tier::Compiled,
        }
    }

    /// Dense id of the start state.
    #[inline]
    pub(crate) fn start(&self) -> u32 {
        self.state_of(self.start)
    }

    /// Display name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub(crate) fn state_name(&self, state: u32) -> &str {
        if let Some(u) = &self.unfolded {
            return &u.state_names()[state as usize];
        }
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.states()[state as usize].name(),
            Repr::Dense(m) => m.state_name(state),
        }
    }

    /// Number of (flat) states; every valid state id is below it.
    #[inline]
    pub(crate) fn state_count(&self) -> usize {
        self.unfolded
            .as_ref()
            .map_or(self.finish.len(), |u| u.state_names().len())
    }

    /// The message alphabet, in declaration order.
    #[inline]
    pub(crate) fn messages(&self) -> &[String] {
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.messages(),
            Repr::Dense(m) => m.messages(),
        }
    }

    /// Looks up a message id by name in O(1).
    pub(crate) fn message_id(&self, name: &str) -> Option<MessageId> {
        match &self.repr {
            Repr::Interpreted { ir, .. } => ir.message_id(name),
            Repr::Dense(m) => m.message_id(name),
        }
    }

    /// The bound parameter values (empty for an unguarded machine).
    #[inline]
    pub(crate) fn params(&self) -> &[i64] {
        self.params.as_deref().unwrap_or_default()
    }

    /// Declared variables per session: the prefix of a session's
    /// register row that is the machine's own state (the rest is the
    /// always-zero register). Zero for an unguarded machine.
    #[inline]
    pub(crate) fn var_count(&self) -> usize {
        self.var_count
    }

    /// Registers one session occupies in a snapshot:
    /// [`FlatIr::reg_count`] of the lowered machine, whatever the tier.
    /// Zero exactly when the machine is unguarded — the degenerate case
    /// needs no branch in the caller, only an empty row.
    #[inline]
    pub(crate) fn reg_count(&self) -> usize {
        self.reg_count
    }

    /// Scratch slots a stepper must provide (shared by all sessions;
    /// contents are meaningless between calls, and the length is the
    /// tier's own business — it is not part of any snapshot): the
    /// interpreter's pre-transition copy of the declared variables.
    /// Zero when unguarded or unfolded.
    #[inline]
    pub(crate) fn scratch_len(&self) -> usize {
        self.scratch_len
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
            Some(u) => u.state_of(config),
        }
    }

    /// Writes the source state of every configuration in `configs` over
    /// `out` — `false`, with `out` untouched, unless the engine is
    /// unfolded: `configs` then already is that list.
    pub(crate) fn states_into(&self, configs: &[u32], out: &mut Vec<u32>) -> bool {
        let Some(unfolded) = &self.unfolded else {
            return false;
        };
        out.clear();
        out.extend(configs.iter().map(|&c| unfolded.state_of(c)));
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
        unfolded.rows_into(configs, out);
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
        self.unfolded.as_ref().map(|u| u.row(config))
    }

    /// The configuration id of a session in `state` with register row
    /// `regs`: `state` itself, or on an unfolded engine the id of that
    /// exact pair — `None` if the machine cannot reach it.
    #[inline]
    pub(crate) fn config_of(&self, state: u32, regs: &[i64]) -> Option<u32> {
        match &self.unfolded {
            None => Some(state),
            Some(u) => u.find(state, regs),
        }
    }

    /// Executes one transition from configuration `config` on
    /// `message`: returns the target configuration and the borrowed
    /// action list, or `None` if the message is not applicable there
    /// (including any message in a finish state, and no candidate's
    /// guard holding). `regs` holds [`StepEngine::stored_regs`]
    /// registers, updated in place, and `scratch`
    /// [`StepEngine::scratch_len`] slots. Allocation-free on every tier;
    /// the one place a single step branches on the tier.
    ///
    /// # Panics
    ///
    /// Panics if `config` is out of range or a slice is too short.
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
        match (&self.repr, &self.unfolded, self.fallback) {
            (Repr::Interpreted { .. }, _, None) => {
                write!(f, "interpreted: the lowered IR, walked as it stands")
            }
            (Repr::Interpreted { .. }, _, Some(fallback)) => write!(f, "interpreted: {fallback}"),
            (Repr::Dense(m), None, _) => write!(f, "dense: {} states, unguarded", m.state_count()),
            (Repr::Dense(_), Some(unfolded), _) => write!(f, "{unfolded}"),
        }
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
    use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update, VarId};
    use stategen_core::{CompileError, ProtocolEngine};

    use super::*;
    use crate::session::SessionStore;

    /// `tick` in `counting`: below the guard (`n + 1 < limit + slack`)
    /// apply `update` and stay, otherwise finish.
    fn counter(update: impl Fn(VarId) -> Update, slack: i64) -> FlatIr {
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
                let tick = engine.message_id("tick").unwrap();
                let mut fast = SessionStore::new(engine, 1);
                let mut reference = ir.instance(vec![limit]);
                for _ in 0..40 {
                    assert_eq!(fast.deliver(0, tick), reference.deliver_id(tick));
                    assert_eq!(fast.vars(0), reference.vars());
                    assert_eq!(fast.is_finished(0), reference.is_finished());
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
            let refused = CompileError::DuplicateTransition {
                state: "counting".into(),
                message: "tick".into(),
            };
            assert_eq!(
                StepEngine::compile_ir(&ir, &[limit]).err(),
                Some(StategenError::Compile(refused))
            );
        }
    }

    /// An unfolded engine steps configuration ids, and every one of them
    /// reads back as a source state and register row; a pair the
    /// machine cannot be in has no configuration.
    #[test]
    fn unfolded_step_speaks_source_states_and_registers() {
        let engine = StepEngine::compile_ir(&counter(Update::Inc, 0), &[3]).unwrap();
        let tick = engine.message_id("tick").unwrap();
        assert_eq!((engine.stored_regs(), engine.scratch_len()), (0, 0));
        let mut config = engine.start_config();
        for (n, to) in [(1, 0), (2, 0), (3, 1)] {
            (config, _) = engine.step_config(config, tick, &mut [], &mut []).unwrap();
            assert_eq!(engine.state_of(config), to);
            assert_eq!(engine.config_row(config), Some(&[n, 0][..]));
            assert_eq!(engine.config_of(to, &[n, 0]), Some(config));
        }
        assert!(engine.config_finishes(config));
        assert!(engine.step_config(config, tick, &mut [], &mut []).is_none());
        assert_eq!(engine.config_of(0, &[9, 0]), None);
    }
}
