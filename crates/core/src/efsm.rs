//! Extended finite state machines (EFSMs).
//!
//! Paper §3.2/§5.3: an algorithm can be mapped to a *spectrum* of state
//! machines. At one end sits the original algorithm (one state, many
//! variables); at the other the FSM family (many states, no variables).
//! EFSMs are the intermediate points: transitions carry *guards* over
//! internal variables and *updates* to them, so counter-like variables
//! (e.g. `votes_received`) need not be encoded into the state space. The
//! commit protocol's EFSM has 9 states regardless of the replication
//! factor, because its states encode only whether thresholds have been
//! reached — not the counts themselves.

use std::fmt;

use crate::machine::{check_alphabet, Action, AlphabetError};

/// Identifier of an EFSM variable (index into [`Efsm::variables`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index into the EFSM's variable table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an EFSM parameter (index into [`Efsm::params`]).
///
/// Parameters are bound when the EFSM is instantiated or compiled — this
/// is what makes a single EFSM generic over, say, the replication factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index into the EFSM's parameter table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an EFSM state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EfsmStateId(pub(crate) u32);

impl EfsmStateId {
    /// Index into the EFSM's state table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term of a linear expression: a variable or a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An EFSM variable.
    Var(VarId),
    /// An instance parameter.
    Param(ParamId),
}

/// A linear integer expression over variables and parameters:
/// `constant + Σ coeff·operand`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    constant: i64,
    terms: Vec<(i64, Operand)>,
}

impl LinExpr {
    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinExpr {
            constant: c,
            terms: Vec::new(),
        }
    }

    /// The value of a variable.
    pub fn var(v: VarId) -> Self {
        LinExpr {
            constant: 0,
            terms: vec![(1, Operand::Var(v))],
        }
    }

    /// The value of a parameter.
    pub fn param(p: ParamId) -> Self {
        LinExpr {
            constant: 0,
            terms: vec![(1, Operand::Param(p))],
        }
    }

    /// Adds another expression.
    #[must_use]
    pub fn plus(mut self, other: LinExpr) -> Self {
        self.constant += other.constant;
        self.terms.extend(other.terms);
        self
    }

    /// Adds a constant.
    #[must_use]
    pub fn plus_const(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Scales the whole expression by `k`.
    #[must_use]
    pub fn times(mut self, k: i64) -> Self {
        self.constant *= k;
        for (coeff, _) in &mut self.terms {
            *coeff *= k;
        }
        self
    }

    /// The constant part of the expression.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The `(coefficient, operand)` terms of the expression.
    pub fn terms(&self) -> &[(i64, Operand)] {
        &self.terms
    }

    /// Evaluates against concrete variable and parameter values.
    pub fn eval(&self, vars: &[i64], params: &[i64]) -> i64 {
        let mut acc = self.constant;
        for (coeff, op) in &self.terms {
            let v = match op {
                Operand::Var(v) => vars[v.0],
                Operand::Param(p) => params[p.0],
            };
            acc += coeff * v;
        }
        acc
    }
}

/// Comparison operator in a guard condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        f.write_str(s)
    }
}

/// One atomic condition `lhs op rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cond {
    /// Left-hand side.
    pub lhs: LinExpr,
    /// Operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: LinExpr,
}

impl Cond {
    /// Evaluates the condition.
    pub fn eval(&self, vars: &[i64], params: &[i64]) -> bool {
        let l = self.lhs.eval(vars, params);
        let r = self.rhs.eval(vars, params);
        match self.op {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Ge => l >= r,
            CmpOp::Gt => l > r,
        }
    }
}

/// A conjunction of conditions; the empty guard is always true.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Guard {
    conds: Vec<Cond>,
}

impl Guard {
    /// The always-true guard.
    pub fn always() -> Self {
        Guard::default()
    }

    /// A guard with a single condition.
    pub fn when(lhs: LinExpr, op: CmpOp, rhs: LinExpr) -> Self {
        Guard {
            conds: vec![Cond { lhs, op, rhs }],
        }
    }

    /// Conjoins another condition.
    #[must_use]
    pub fn and(mut self, lhs: LinExpr, op: CmpOp, rhs: LinExpr) -> Self {
        self.conds.push(Cond { lhs, op, rhs });
        self
    }

    /// The conditions of this guard.
    pub fn conditions(&self) -> &[Cond] {
        &self.conds
    }

    /// Evaluates the conjunction.
    pub fn eval(&self, vars: &[i64], params: &[i64]) -> bool {
        self.conds.iter().all(|c| c.eval(vars, params))
    }
}

/// An update to a variable performed when a transition fires.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Update {
    /// `var := expr` (evaluated against the pre-transition values).
    Set(VarId, LinExpr),
    /// `var := var + 1`.
    Inc(VarId),
}

/// Applies a transition's updates with the staged
/// read-pre-transition-values semantics shared by every interpreter
/// (EFSM, flat IR, guarded statechart) and mirrored by the compiled
/// lowering: `vars` is snapshotted into the caller-provided `old_vars`
/// buffer (reused across deliveries, so the hot path never allocates)
/// and every update expression reads the snapshot. An empty update list
/// touches neither buffer.
///
/// # Panics
///
/// Panics if `old_vars` is shorter than `vars`, or an update references
/// a register outside `vars`.
pub(crate) fn apply_staged_updates(
    updates: &[Update],
    vars: &mut [i64],
    old_vars: &mut [i64],
    params: &[i64],
) {
    if updates.is_empty() {
        return;
    }
    old_vars.copy_from_slice(vars);
    for update in updates {
        match update {
            Update::Set(v, expr) => vars[v.index()] = expr.eval(old_vars, params),
            Update::Inc(v) => vars[v.index()] = old_vars[v.index()] + 1,
        }
    }
}

/// Checks that every operand a transition's guard and updates read or
/// write is declared, against `variables` variables and `params`
/// parameters, and returns the first one that is not. The one check
/// behind [`EfsmBuilder`], the statechart builder and
/// [`FlatIr::from_parts`](crate::FlatIr::from_parts): a `VarId` or
/// `ParamId` minted by another builder type-checks, so only its index
/// can tell.
pub(crate) fn check_operands(
    guard: &Guard,
    updates: &[Update],
    variables: usize,
    params: usize,
) -> Result<(), Operand> {
    let check = |expr: &LinExpr| {
        for &(_, operand) in expr.terms() {
            let declared = match operand {
                Operand::Var(v) => v.index() < variables,
                Operand::Param(p) => p.index() < params,
            };
            if !declared {
                return Err(operand);
            }
        }
        Ok(())
    };
    for cond in guard.conditions() {
        check(&cond.lhs)?;
        check(&cond.rhs)?;
    }
    for update in updates {
        match update {
            Update::Set(v, expr) => {
                check(&LinExpr::var(*v))?;
                check(expr)?;
            }
            Update::Inc(v) => check(&LinExpr::var(*v))?,
        }
    }
    Ok(())
}

/// A guarded transition of an EFSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EfsmTransition {
    message: u16,
    guard: Guard,
    updates: Vec<Update>,
    actions: Vec<Action>,
    target: EfsmStateId,
    annotations: Vec<String>,
}

impl EfsmTransition {
    /// Index of the message that triggers this transition (into
    /// [`Efsm::messages`]).
    pub fn message_index(&self) -> usize {
        usize::from(self.message)
    }

    /// The guard that must hold for this transition to fire.
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// Variable updates applied when firing.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Actions (messages sent) when firing.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Destination state.
    pub fn target(&self) -> EfsmStateId {
        self.target
    }

    /// Documentation annotations.
    pub fn annotations(&self) -> &[String] {
        &self.annotations
    }
}

/// One state of an EFSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EfsmState {
    name: String,
    transitions: Vec<EfsmTransition>,
    annotations: Vec<String>,
}

impl EfsmState {
    /// The state's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All guarded transitions out of this state, in declaration order
    /// (earlier transitions take priority when guards overlap).
    pub fn transitions(&self) -> &[EfsmTransition] {
        &self.transitions
    }

    /// Documentation annotations.
    pub fn annotations(&self) -> &[String] {
        &self.annotations
    }
}

/// An extended finite state machine: states plus integer variables,
/// guarded transitions and parameters bound at instantiation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Efsm {
    name: String,
    messages: Vec<String>,
    params: Vec<String>,
    variables: Vec<String>,
    states: Vec<EfsmState>,
    start: EfsmStateId,
    finish: Option<EfsmStateId>,
}

impl Efsm {
    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message alphabet.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Parameter names (bound per instance).
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Variable names (all initialised to zero).
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// All states.
    pub fn states(&self) -> &[EfsmState] {
        &self.states
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The start state.
    pub fn start(&self) -> EfsmStateId {
        self.start
    }

    /// The finish state, if any.
    pub fn finish(&self) -> Option<EfsmStateId> {
        self.finish
    }

    /// Looks up a message id by name.
    pub fn message_id(&self, name: &str) -> Option<u16> {
        self.messages
            .iter()
            .position(|m| m == name)
            .map(|i| i as u16)
    }
}

/// Builder for [`Efsm`]s.
///
/// # Examples
///
/// ```
/// use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
/// use stategen_core::Action;
///
/// let mut b = EfsmBuilder::new("counter", ["tick"]);
/// let limit = b.add_param("limit");
/// let n = b.add_var("n");
/// let counting = b.add_state("counting");
/// let done = b.add_state("done");
/// b.add_transition(
///     counting, "tick",
///     Guard::when(LinExpr::var(n).plus_const(1), CmpOp::Lt, LinExpr::param(limit)),
///     vec![Update::Inc(n)], vec![], counting,
/// );
/// b.add_transition(
///     counting, "tick",
///     Guard::when(LinExpr::var(n).plus_const(1), CmpOp::Ge, LinExpr::param(limit)),
///     vec![Update::Inc(n)], vec![Action::send("done")], done,
/// );
/// let efsm = b.build(counting, Some(done));
/// assert_eq!(efsm.state_count(), 2);
/// ```
#[derive(Debug)]
pub struct EfsmBuilder {
    name: String,
    messages: Vec<String>,
    params: Vec<String>,
    variables: Vec<String>,
    states: Vec<EfsmState>,
}

impl EfsmBuilder {
    /// Starts a builder with the given message alphabet.
    ///
    /// # Panics
    ///
    /// Panics if `messages` is empty, has more than 65 536 entries or
    /// contains duplicates.
    pub fn new<I, S>(name: impl Into<String>, messages: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let messages: Vec<String> = messages.into_iter().map(Into::into).collect();
        match check_alphabet(&messages) {
            Err(AlphabetError::Empty) => panic!("EFSM must declare at least one message"),
            Err(AlphabetError::Duplicate(m)) => panic!("duplicate message `{m}`"),
            Ok(()) => {}
        }
        EfsmBuilder {
            name: name.into(),
            messages,
            params: Vec::new(),
            variables: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Declares an instance parameter; returns its id.
    pub fn add_param(&mut self, name: impl Into<String>) -> ParamId {
        self.params.push(name.into());
        ParamId(self.params.len() - 1)
    }

    /// Declares a variable (initial value zero); returns its id.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.variables.push(name.into());
        VarId(self.variables.len() - 1)
    }

    /// Adds a state; returns its id.
    pub fn add_state(&mut self, name: impl Into<String>) -> EfsmStateId {
        self.add_state_annotated(name, Vec::new())
    }

    /// Adds a state with annotations; returns its id.
    pub fn add_state_annotated(
        &mut self,
        name: impl Into<String>,
        annotations: Vec<String>,
    ) -> EfsmStateId {
        let id = EfsmStateId(self.states.len() as u32);
        self.states.push(EfsmState {
            name: name.into(),
            transitions: Vec::new(),
            annotations,
        });
        id
    }

    /// Adds a guarded transition.
    ///
    /// # Panics
    ///
    /// Panics if the message is unknown, a state id is out of range, or
    /// the guard or an update names a variable or parameter this builder
    /// did not declare.
    pub fn add_transition(
        &mut self,
        from: EfsmStateId,
        message: &str,
        guard: Guard,
        updates: Vec<Update>,
        actions: Vec<Action>,
        target: EfsmStateId,
    ) {
        self.add_transition_annotated(from, message, guard, updates, actions, target, Vec::new());
    }

    /// Adds a guarded transition with annotations.
    ///
    /// # Panics
    ///
    /// Panics as [`EfsmBuilder::add_transition`] does.
    #[allow(clippy::too_many_arguments)]
    pub fn add_transition_annotated(
        &mut self,
        from: EfsmStateId,
        message: &str,
        guard: Guard,
        updates: Vec<Update>,
        actions: Vec<Action>,
        target: EfsmStateId,
        annotations: Vec<String>,
    ) {
        let mid = self
            .messages
            .iter()
            .position(|m| m == message)
            .unwrap_or_else(|| panic!("unknown message `{message}`"));
        assert!(
            target.index() < self.states.len(),
            "target state out of range"
        );
        if let Err(operand) =
            check_operands(&guard, &updates, self.variables.len(), self.params.len())
        {
            panic!("transition on `{message}` reads or writes undeclared {operand:?}");
        }
        self.states[from.index()].transitions.push(EfsmTransition {
            message: mid as u16,
            guard,
            updates,
            actions,
            target,
            annotations,
        });
    }

    /// Finalises the EFSM.
    ///
    /// # Panics
    ///
    /// Panics if `start` (or `finish`) is out of range.
    pub fn build(self, start: EfsmStateId, finish: Option<EfsmStateId>) -> Efsm {
        assert!(
            start.index() < self.states.len(),
            "start state out of range"
        );
        if let Some(f) = finish {
            assert!(f.index() < self.states.len(), "finish state out of range");
        }
        Efsm {
            name: self.name,
            messages: self.messages,
            params: self.params,
            variables: self.variables,
            states: self.states,
            start,
            finish,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::InterpError;
    use crate::ir::{FlatIr, IrInstance};
    use crate::machine::ProtocolEngine;

    /// Counter EFSM: counts to a parameter-determined limit, then fires.
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
    fn counter_counts_to_param() {
        let ir = FlatIr::from_efsm(&counter());
        let mut i = IrInstance::new(&ir, vec![3]);
        assert!(i.deliver("tick").unwrap().is_empty());
        assert!(i.deliver("tick").unwrap().is_empty());
        assert_eq!(i.deliver("tick").unwrap(), vec![Action::send("done")]);
        assert!(i.is_finished());
        assert_eq!(i.vars(), &[3]);
    }

    #[test]
    fn same_efsm_different_params() {
        // The point of EFSMs (paper §5.3): one machine serves the family.
        let ir = FlatIr::from_efsm(&counter());
        for limit in 1..6 {
            let mut i = IrInstance::new(&ir, vec![limit]);
            let mut fired = 0;
            for _ in 0..limit {
                fired += i.deliver("tick").unwrap().len();
            }
            assert_eq!(fired, 1, "fires exactly once at limit {limit}");
            assert!(i.is_finished());
        }
    }

    #[test]
    fn guards_respect_priority_and_finish_absorbs() {
        let ir = FlatIr::from_efsm(&counter());
        let mut i = IrInstance::new(&ir, vec![1]);
        assert_eq!(i.deliver("tick").unwrap().len(), 1);
        assert!(i.is_finished());
        assert!(i.deliver("tick").unwrap().is_empty());
        assert_eq!(i.vars(), &[1]);
    }

    #[test]
    fn unknown_message_is_error() {
        let ir = FlatIr::from_efsm(&counter());
        let mut i = IrInstance::new(&ir, vec![1]);
        assert!(matches!(
            i.deliver("zap"),
            Err(InterpError::UnknownMessage(_))
        ));
    }

    #[test]
    fn reset_restores_start() {
        let ir = FlatIr::from_efsm(&counter());
        let mut i = IrInstance::new(&ir, vec![2]);
        i.deliver("tick").unwrap();
        i.reset();
        assert_eq!(i.vars(), &[0]);
        assert_eq!(i.state_name(), "counting");
    }

    #[test]
    fn linexpr_arithmetic() {
        let mut b = EfsmBuilder::new("e", ["m"]);
        let p = b.add_param("p");
        let v = b.add_var("v");
        let _s = b.add_state("s");
        let expr = LinExpr::var(v)
            .times(2)
            .plus(LinExpr::param(p))
            .plus_const(5);
        assert_eq!(expr.eval(&[3], &[10]), 21);
        let neg = LinExpr::constant(7).times(-1);
        assert_eq!(neg.eval(&[0], &[0]), -7);
    }

    #[test]
    fn cmp_op_display() {
        assert_eq!(CmpOp::Ge.to_string(), ">=");
        assert_eq!(CmpOp::Ne.to_string(), "!=");
    }

    /// A `VarId` from another builder type-checks; the builder rejects
    /// it by index. Unchecked, it makes `Engine::compile` panic inside
    /// the unfolder and `Artifact::new` save an image its own loader
    /// refuses.
    #[test]
    #[should_panic(expected = "undeclared Var(VarId(1))")]
    fn foreign_variable_is_rejected() {
        let mut other = EfsmBuilder::new("other", ["m"]);
        other.add_var("a");
        let foreign = other.add_var("b");
        let mut b = EfsmBuilder::new("e", ["m"]);
        let s = b.add_state("s");
        let guard = Guard::when(LinExpr::var(foreign), CmpOp::Ge, LinExpr::constant(0));
        b.add_transition(s, "m", guard, vec![], vec![], s);
    }
}
