//! The analysis passes: interval fixpoint, reachability and dead-code
//! lints, guard lints, overflow detection and equivalence reporting.

use std::collections::{HashSet, VecDeque};

use stategen_core::efsm::{CmpOp, Guard, Operand, Update};
use stategen_core::interval::{
    eval_lin, guard_status, guard_unsat, guards_disjoint, CondStatus, Interval,
};
use stategen_core::{Diagnostic, FlatIr, FlatTransition, Level, Lint, StateRole, StategenError};

use crate::lint::{AnalysisConfig, MAX_WITNESS_ENUM};
use crate::minimize::LiveIr;

/// The result of one analyzer run: every finding plus the facts the
/// passes established (reachability, per-state variable ranges).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Name of the analyzed machine.
    pub machine: String,
    /// Every finding, in pass order. Findings whose configured level is
    /// [`Level::Allow`] are recorded here too — they just never gate.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-state liveness: `true` when the state is reachable from the
    /// start along transitions that can fire.
    pub reachable: Vec<bool>,
    /// Per-state variable ranges proved by the interval fixpoint
    /// (`None` for unreachable states), in variable declaration order.
    pub var_ranges: Vec<Option<Vec<Interval>>>,
}

impl Analysis {
    /// The findings at [`Level::Deny`].
    pub fn deny(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Deny)
            .collect()
    }

    /// The findings at [`Level::Warn`].
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Warn)
            .collect()
    }

    /// `true` when no finding is at [`Level::Deny`].
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.level == Level::Deny)
    }

    /// The highest level among the findings (`None` when there are no
    /// findings at all).
    pub fn worst(&self) -> Option<Level> {
        self.diagnostics.iter().map(|d| d.level).max()
    }

    /// `true` when any finding fired for `lint`, at any level.
    pub fn has(&self, lint: Lint) -> bool {
        self.diagnostics.iter().any(|d| d.lint == lint)
    }

    /// Number of findings for `lint`.
    pub fn count(&self, lint: Lint) -> usize {
        self.diagnostics.iter().filter(|d| d.lint == lint).count()
    }

    /// `Ok(())` when the machine is clean, otherwise
    /// [`StategenError::Analysis`] carrying the deny-level findings —
    /// the gate behind `Spec::analyzed` in `stategen-runtime`.
    pub fn check(&self) -> Result<(), StategenError> {
        if self.is_clean() {
            Ok(())
        } else {
            Err(StategenError::Analysis {
                diagnostics: self.deny().into_iter().cloned().collect(),
            })
        }
    }
}

/// Analyzes a machine with its parameters unbound: every parameter
/// ranges over all of `i64`, so every fact reported holds for **every**
/// binding. Binding-dependent passes (overlap witness search, overflow)
/// only run in [`analyze_bound`].
pub fn analyze(ir: &FlatIr, config: &AnalysisConfig) -> Analysis {
    run(ir, &vec![Interval::TOP; ir.params().len()], false, config)
}

/// Analyzes a machine under a concrete parameter binding — the form the
/// EFSM tier executes — enabling the binding-dependent passes:
/// overflow detection and the overlap witness search.
///
/// # Panics
///
/// Panics if `params` does not match the machine's parameter count.
pub fn analyze_bound(ir: &FlatIr, params: &[i64], config: &AnalysisConfig) -> Analysis {
    assert_eq!(
        params.len(),
        ir.params().len(),
        "wrong parameter count for `{}`",
        ir.name()
    );
    let intervals: Vec<Interval> = params.iter().map(|&p| Interval::point(p)).collect();
    run(ir, &intervals, true, config)
}

fn run(ir: &FlatIr, params: &[Interval], bound: bool, config: &AnalysisConfig) -> Analysis {
    let live = LiveIr::new(ir);
    let env = fixpoint(ir, &live, params, config.widen_after);
    let reachable: Vec<bool> = env.iter().map(|e| e.is_some()).collect();
    let mut diagnostics = Vec::new();
    let mut emit = |lint: Lint, message: String, state: Option<u32>, cap: Option<Level>| {
        let mut level = config.level(lint);
        if let Some(cap) = cap {
            level = level.min(cap);
        }
        let mut d = Diagnostic::new(lint, message).with_level(level);
        if let Some(s) = state {
            d = d.at_state(s);
        }
        diagnostics.push(d);
    };

    structural_pass(ir, &live, &reachable, &mut emit);
    guard_pass(ir, &live, &env, params, bound, config, &mut emit);
    if bound || ir.params().is_empty() {
        overflow_pass(ir, &env, &mut emit);
    }
    equivalence_pass(ir, &live, &mut emit);

    Analysis {
        machine: ir.name().to_string(),
        diagnostics,
        reachable,
        var_ranges: env,
    }
}

/// The interval fixpoint: per-state variable ranges, `None` for states
/// not reachable along transitions that can fire. Guards narrow the
/// ranges on entry ([`narrow`]), updates transform them with the same
/// staged read-pre-transition semantics as the interpreters, joins
/// switch to widening after `widen_after` growths per state so loops
/// terminate.
fn fixpoint(
    ir: &FlatIr,
    live: &LiveIr,
    params: &[Interval],
    widen_after: usize,
) -> Vec<Option<Vec<Interval>>> {
    let n = ir.state_count();
    let nv = ir.variables().len();
    let mut env: Vec<Option<Vec<Interval>>> = vec![None; n];
    let mut joins = vec![0usize; n];
    let start = ir.start() as usize;
    env[start] = Some(vec![Interval::point(0); nv]);
    let mut queued = vec![false; n];
    queued[start] = true;
    let mut work = VecDeque::from([start]);
    while let Some(s) = work.pop_front() {
        queued[s] = false;
        let cur = match &env[s] {
            Some(e) => e.clone(),
            None => continue,
        };
        for t in live.of(s as u32) {
            let vars = match edge_post(&cur, params, t) {
                Some(v) => v,
                // The guard cannot hold under the ranges reachable
                // here; the edge contributes nothing.
                None => continue,
            };
            let tgt = t.target() as usize;
            let merged = match &env[tgt] {
                None => vars,
                Some(prev) => {
                    let joined: Vec<Interval> =
                        prev.iter().zip(&vars).map(|(p, v)| p.join(*v)).collect();
                    if joined == *prev {
                        continue;
                    }
                    joins[tgt] += 1;
                    if joins[tgt] > widen_after {
                        prev.iter().zip(&joined).map(|(p, j)| p.widen(*j)).collect()
                    } else {
                        joined
                    }
                }
            };
            env[tgt] = Some(merged);
            if !queued[tgt] {
                queued[tgt] = true;
                work.push_back(tgt);
            }
        }
    }
    // Decreasing (narrowing) rounds. Widening overshoots bounds to ±∞
    // to force termination; re-running exact propagation steps from the
    // post-fixpoint recovers any bound the guards actually enforce
    // (e.g. a retry counter capped by `v + 1 < b` would otherwise stay
    // at [0, +∞) forever). At a post-fixpoint one application of the
    // transfer function can only shrink the ranges, and the fixed round
    // count bounds the work; intersecting with the previous ranges
    // keeps every round a sound over-approximation regardless.
    for _ in 0..2 {
        let mut next: Vec<Option<Vec<Interval>>> = vec![None; n];
        next[start] = Some(vec![Interval::point(0); nv]);
        for (s, cur) in env.iter().enumerate() {
            let cur = match cur {
                Some(e) => e.clone(),
                None => continue,
            };
            for t in live.of(s as u32) {
                let vars = match edge_post(&cur, params, t) {
                    Some(v) => v,
                    None => continue,
                };
                let tgt = t.target() as usize;
                next[tgt] = Some(match next[tgt].take() {
                    None => vars,
                    Some(prev) => prev.iter().zip(&vars).map(|(p, v)| p.join(*v)).collect(),
                });
            }
        }
        for s in 0..n {
            env[s] = match (env[s].take(), next[s].take()) {
                (Some(old), Some(new)) => Some(
                    old.iter()
                        .zip(&new)
                        .map(|(o, v)| o.intersect(*v).unwrap_or(*o))
                        .collect(),
                ),
                // A state the exact step no longer reaches keeps its
                // widened ranges — conservative but sound, and the
                // structural passes own reachability anyway.
                (old, _) => old,
            };
        }
    }
    env
}

/// The abstract transfer function of one edge: narrows the source
/// ranges through the guard, then applies the staged updates. `None`
/// means the guard cannot hold anywhere in `cur` — the edge is not
/// takeable from this state's reachable region.
fn edge_post(cur: &[Interval], params: &[Interval], t: &FlatTransition) -> Option<Vec<Interval>> {
    let mut vars = narrow(cur, params, t.guard())?;
    if guard_status(t.guard(), &vars, params) == CondStatus::False {
        return None;
    }
    let old = vars.clone();
    for u in t.updates() {
        match u {
            Update::Set(v, e) => vars[v.index()] = eval_lin(e, &old, params),
            Update::Inc(v) => vars[v.index()] = old[v.index()] + Interval::point(1),
        }
    }
    Some(vars)
}

/// Clamps an `i128` bound back into the `i64` domain, mapping overflow
/// to the infinity sentinels (which only ever weakens a constraint —
/// the sound direction).
fn clamp(v: i128) -> i64 {
    if v <= i128::from(i64::MIN) {
        i64::MIN
    } else if v >= i128::from(i64::MAX) {
        i64::MAX
    } else {
        v as i64
    }
}

/// Refines variable ranges through a guard: for every condition whose
/// difference `lhs − rhs` contains exactly one occurrence of a variable
/// with coefficient ±1, the remaining terms bound that variable.
/// Returns `None` when a refined range becomes empty (the guard cannot
/// hold here). Purely a precision improvement — skipping a condition is
/// always sound.
fn narrow(vars: &[Interval], params: &[Interval], guard: &Guard) -> Option<Vec<Interval>> {
    let mut out = vars.to_vec();
    // Two passes let chained conditions propagate (`v < w`, `w < 5`).
    for _ in 0..2 {
        for cond in guard.conditions() {
            // Combined terms of lhs − rhs, keyed like the canonical
            // difference form.
            let mut terms: Vec<(i64, Operand)> = Vec::new();
            let constant =
                i128::from(cond.lhs.constant_part()) - i128::from(cond.rhs.constant_part());
            for (expr, sign) in [(&cond.lhs, 1i64), (&cond.rhs, -1i64)] {
                for &(coeff, op) in expr.terms() {
                    match terms.iter_mut().find(|(_, o)| *o == op) {
                        Some((c, _)) => *c = c.saturating_add(coeff.saturating_mul(sign)),
                        None => terms.push((coeff.saturating_mul(sign), op)),
                    }
                }
            }
            terms.retain(|&(c, _)| c != 0);
            for i in 0..terms.len() {
                let (coeff, operand) = terms[i];
                let var = match operand {
                    Operand::Var(v) if coeff == 1 || coeff == -1 => v,
                    _ => continue,
                };
                // rest = constant + Σ other terms, so the condition is
                // `coeff·var + rest op 0`.
                let mut rest = Interval::point(clamp(constant));
                for (j, &(c, op)) in terms.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let iv = match op {
                        Operand::Var(v) => out.get(v.index()).copied().unwrap_or(Interval::TOP),
                        Operand::Param(p) => {
                            params.get(p.index()).copied().unwrap_or(Interval::TOP)
                        }
                    };
                    rest = rest + iv.scale(c);
                }
                let (mut lo, mut hi) = (i64::MIN, i64::MAX);
                if coeff == 1 {
                    // var op −rest (existentially over rest's range).
                    let neg_lo = if rest.hi == i64::MAX {
                        i64::MIN
                    } else {
                        clamp(-i128::from(rest.hi))
                    };
                    let neg_hi = if rest.lo == i64::MIN {
                        i64::MAX
                    } else {
                        clamp(-i128::from(rest.lo))
                    };
                    match cond.op {
                        CmpOp::Lt => hi = sub1(neg_hi),
                        CmpOp::Le => hi = neg_hi,
                        CmpOp::Ge => lo = neg_lo,
                        CmpOp::Gt => lo = add1(neg_lo),
                        CmpOp::Eq => {
                            lo = neg_lo;
                            hi = neg_hi;
                        }
                        CmpOp::Ne => {}
                    }
                } else {
                    // −var + rest op 0, i.e. var (flipped op) rest.
                    match cond.op {
                        CmpOp::Lt => lo = add1(rest.lo),
                        CmpOp::Le => lo = rest.lo,
                        CmpOp::Ge => hi = rest.hi,
                        CmpOp::Gt => hi = sub1(rest.hi),
                        CmpOp::Eq => {
                            lo = rest.lo;
                            hi = rest.hi;
                        }
                        CmpOp::Ne => {}
                    }
                }
                if lo > hi {
                    return None;
                }
                let idx = var.index();
                if idx < out.len() {
                    match out[idx].intersect(Interval::range(lo, hi)) {
                        Some(refined) => out[idx] = refined,
                        None => return None,
                    }
                }
            }
        }
    }
    Some(out)
}

/// `b − 1` with the −∞ sentinel left absorbing.
fn sub1(b: i64) -> i64 {
    if b == i64::MIN {
        i64::MIN
    } else {
        b - 1
    }
}

/// `b + 1` with the +∞ sentinel left absorbing.
fn add1(b: i64) -> i64 {
    if b == i64::MAX {
        i64::MAX
    } else {
        b + 1
    }
}

/// Reachability and dead-code lints: unreachable states, dead ends,
/// duplicate names, finish states with outgoing transitions, dead
/// transitions, unhandled messages, absorbing sinks.
fn structural_pass(
    ir: &FlatIr,
    live: &LiveIr,
    reachable: &[bool],
    emit: &mut impl FnMut(Lint, String, Option<u32>, Option<Level>),
) {
    let mut seen_names: HashSet<&str> = HashSet::new();
    for (sid, state) in ir.states().iter().enumerate() {
        if !seen_names.insert(state.name()) {
            emit(
                Lint::DuplicateStateName,
                format!("state name `{}` is used more than once", state.name()),
                Some(sid as u32),
                None,
            );
        }
    }

    let mut handled = vec![false; ir.messages().len()];
    for (sid, state) in ir.states().iter().enumerate() {
        let sid32 = sid as u32;
        if state.role() == StateRole::Finish && !state.transitions().is_empty() {
            emit(
                Lint::FinalWithOutgoing,
                format!(
                    "final state `{}` has {} outgoing transition(s) that can never fire",
                    state.name(),
                    state.transitions().len()
                ),
                Some(sid32),
                None,
            );
            for t in state.transitions() {
                emit(
                    Lint::DeadTransition,
                    format!(
                        "transition on `{}` leaves final state `{}` and can never fire",
                        ir.messages()[t.message_index()],
                        state.name()
                    ),
                    Some(sid32),
                    None,
                );
            }
        }
        if !reachable[sid] {
            emit(
                Lint::UnreachableState,
                format!(
                    "state `{}` is unreachable from the start state",
                    state.name()
                ),
                Some(sid32),
                None,
            );
            for t in state.transitions() {
                emit(
                    Lint::DeadTransition,
                    format!(
                        "transition on `{}` out of unreachable state `{}` can never fire",
                        ir.messages()[t.message_index()],
                        state.name()
                    ),
                    Some(sid32),
                    None,
                );
            }
            continue;
        }
        if state.role() == StateRole::Finish {
            continue;
        }
        if state.transitions().is_empty() {
            emit(
                Lint::DeadEndState,
                format!(
                    "reachable state `{}` has no outgoing transitions but is not final",
                    state.name()
                ),
                Some(sid32),
                None,
            );
            continue;
        }
        let live_here = live.of(sid32);
        for t in live_here {
            handled[t.message_index()] = true;
        }
        for t in live.shadowed(sid32) {
            emit(
                Lint::DeadTransition,
                format!(
                    "transition on `{}` in state `{}` is shadowed by an earlier \
                     unconditional transition on the same message",
                    ir.messages()[t.message_index()],
                    state.name()
                ),
                Some(sid32),
                None,
            );
        }
        if !live_here.is_empty() && live_here.iter().all(|t| t.target() == sid32) {
            emit(
                Lint::AbsorbingSink,
                format!(
                    "reachable state `{}` only loops back to itself but is not final",
                    state.name()
                ),
                Some(sid32),
                None,
            );
        }
    }
    for (m, name) in ir.messages().iter().enumerate() {
        if !handled[m] {
            emit(
                Lint::UnhandledMessage,
                format!("message `{name}` is in the alphabet but handled in no reachable state"),
                None,
                None,
            );
        }
    }
}

/// Guard lints over reachable states: unsatisfiable guards (intrinsic
/// or under the proved ranges), vacuous guards, overlapping sibling
/// guards.
fn guard_pass(
    ir: &FlatIr,
    live: &LiveIr,
    env: &[Option<Vec<Interval>>],
    params: &[Interval],
    bound: bool,
    config: &AnalysisConfig,
    emit: &mut impl FnMut(Lint, String, Option<u32>, Option<Level>),
) {
    for (sid, state) in ir.states().iter().enumerate() {
        let vars = match &env[sid] {
            Some(v) => v,
            None => continue,
        };
        if state.role() == StateRole::Finish {
            continue;
        }
        for t in state.transitions() {
            let message = &ir.messages()[t.message_index()];
            if guard_unsat(t.guard()) {
                emit(
                    Lint::UnsatisfiableGuard,
                    format!(
                        "guard on `{message}` in state `{}` is unsatisfiable for every binding",
                        state.name()
                    ),
                    Some(sid as u32),
                    None,
                );
                continue;
            }
            match guard_status(t.guard(), vars, params) {
                CondStatus::False => emit(
                    Lint::UnsatisfiableGuard,
                    format!(
                        "guard on `{message}` in state `{}` can never hold under the \
                         value ranges reachable there",
                        state.name()
                    ),
                    Some(sid as u32),
                    None,
                ),
                CondStatus::True if !t.guard().conditions().is_empty() => emit(
                    Lint::VacuousGuard,
                    format!(
                        "guard on `{message}` in state `{}` is always true under the \
                         value ranges reachable there",
                        state.name()
                    ),
                    Some(sid as u32),
                    None,
                ),
                _ => {}
            }
        }

        // Sibling overlap: pairs on the same message that the sound
        // disjointness check cannot separate.
        let live = live.of(sid as u32);
        for i in 0..live.len() {
            for j in i + 1..live.len() {
                let (a, b) = (live[i], live[j]);
                if a.message_index() != b.message_index() || guards_disjoint(a.guard(), b.guard()) {
                    continue;
                }
                let message = &ir.messages()[a.message_index()];
                if bound {
                    if let Some(witness) = overlap_witness(ir, a, b, params, config) {
                        emit(
                            Lint::OverlappingGuards,
                            format!(
                                "guards on `{message}` in state `{}` overlap: both hold at \
                                 {witness}",
                                state.name()
                            ),
                            Some(sid as u32),
                            None,
                        );
                        continue;
                    }
                }
                // Not proved disjoint, no concrete witness either: a
                // "may overlap" is capped at Warn — unproved suspicions
                // must not reject a machine.
                emit(
                    Lint::OverlappingGuards,
                    format!(
                        "guards on `{message}` in state `{}` were not proved disjoint \
                         (no overlap witness found within the search bound)",
                        state.name()
                    ),
                    Some(sid as u32),
                    Some(Level::Warn),
                );
            }
        }
    }
}

/// Searches for a concrete variable assignment under which both guards
/// hold, enumerating each variable over `0..=var_bound` (mixed radix,
/// capped at [`MAX_WITNESS_ENUM`] assignments). Parameters must be
/// bound (point intervals).
fn overlap_witness(
    ir: &FlatIr,
    a: &FlatTransition,
    b: &FlatTransition,
    params: &[Interval],
    config: &AnalysisConfig,
) -> Option<String> {
    let concrete: Vec<i64> = params.iter().map(|p| p.lo).collect();
    let nv = ir.variables().len();
    let radix = (config.var_bound.max(0) as u64) + 1;
    let total = radix.checked_pow(nv as u32).unwrap_or(u64::MAX);
    let mut assignment = vec![0i64; nv];
    for n in 0..total.min(MAX_WITNESS_ENUM) {
        let mut rest = n;
        for slot in assignment.iter_mut() {
            *slot = (rest % radix) as i64;
            rest /= radix;
        }
        if a.guard().eval(&assignment, &concrete) && b.guard().eval(&assignment, &concrete) {
            let pairs: Vec<String> = ir
                .variables()
                .iter()
                .zip(&assignment)
                .map(|(name, v)| format!("{name}={v}"))
                .collect();
            return Some(if pairs.is_empty() {
                "every assignment".to_string()
            } else {
                pairs.join(", ")
            });
        }
    }
    None
}

/// Overflow lint: a variable whose proved range is unbounded on either
/// side at some reachable state can overflow its `i64` register on a
/// long enough execution.
fn overflow_pass(
    ir: &FlatIr,
    env: &[Option<Vec<Interval>>],
    emit: &mut impl FnMut(Lint, String, Option<u32>, Option<Level>),
) {
    for (v, name) in ir.variables().iter().enumerate() {
        let unbounded = env.iter().enumerate().find_map(|(sid, e)| {
            e.as_ref()
                .and_then(|vars| (vars[v].lo == i64::MIN || vars[v].hi == i64::MAX).then_some(sid))
        });
        if let Some(sid) = unbounded {
            emit(
                Lint::PossibleOverflow,
                format!(
                    "variable `{name}` grows without bound (unbounded at state `{}`); \
                     a long enough execution overflows its i64 register",
                    ir.states()[sid].name()
                ),
                Some(sid as u32),
                None,
            );
        }
    }
}

/// Equivalence lint: report every behavioural class with more than one
/// member (the classes `minimize` would merge).
fn equivalence_pass(
    ir: &FlatIr,
    live: &LiveIr,
    emit: &mut impl FnMut(Lint, String, Option<u32>, Option<Level>),
) {
    for class in live.classes() {
        if class.len() < 2 {
            continue;
        }
        let names: Vec<&str> = class
            .iter()
            .map(|&s| ir.states()[s as usize].name())
            .collect();
        emit(
            Lint::EquivalentStates,
            format!(
                "states {} are behaviourally equivalent and can be merged",
                names
                    .iter()
                    .map(|n| format!("`{n}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Some(class[0]),
            None,
        );
    }
}
