//! Interval abstract interpretation over the EFSM guard language.
//!
//! The semantic analyzer (the `stategen-analysis` crate) and the
//! flattener's guard-aware reachability pruning
//! ([`HierarchicalMachine::flatten_ir`](crate::HierarchicalMachine::flatten_ir))
//! both reason about the same question: *which values can a
//! [`LinExpr`] take, and can a [`Guard`] hold?* This module answers it
//! with the classic interval domain:
//!
//! * an [`Interval`] is a non-empty range `[lo, hi]` of `i64` values,
//!   with `i64::MIN`/`i64::MAX` doubling as −∞/+∞ sentinels;
//! * [`eval_lin`] evaluates a linear expression over interval-valued
//!   variables and parameters (arithmetic saturates *toward the
//!   sentinels*, so losing precision always widens — the over-approximation
//!   direction that keeps the analysis sound);
//! * [`cond_status`] / [`guard_status`] decide a condition or guard
//!   three-valued: definitely [`CondStatus::True`], definitely
//!   [`CondStatus::False`], or [`CondStatus::Unknown`];
//! * [`guard_unsat`] proves a guard unsatisfiable *for every* variable
//!   and parameter assignment, by normalizing each condition to a
//!   canonical difference expression (`lhs − rhs`, terms combined and
//!   sorted) and intersecting the admissible ranges of conditions that
//!   constrain the same difference — this is what catches the
//!   complementary pair `v + 1 < b` ∧ `v + 1 ≥ b` without knowing
//!   anything about `v` or `b`;
//! * [`guards_disjoint`] proves two guards can never hold at once, by
//!   the same canonical-difference reasoning — the sound fast path the
//!   analyzer's `overlapping-guards` lint takes before it searches for a
//!   concrete witness.
//!
//! Everything here over-approximates: `True`/`False`/unsat/disjoint
//! answers are proofs (over mathematical integers — see the soundness
//! note in `docs/ANALYSIS.md` for how `i64` overflow is handled by the
//! `possible-overflow` lint), while `Unknown` merely means "not proved
//! either way".

use crate::efsm::{CmpOp, Cond, Guard, LinExpr, Operand};

/// A non-empty range of `i64` values. `lo == i64::MIN` means unbounded
/// below, `hi == i64::MAX` unbounded above; [`Interval::TOP`] is both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound (`i64::MIN` = −∞).
    pub lo: i64,
    /// Inclusive upper bound (`i64::MAX` = +∞).
    pub hi: i64,
}

/// Adds two lower bounds, saturating toward −∞ (a −∞ operand is
/// absorbing; finite overflow saturates, which only ever widens).
fn add_lo(a: i64, b: i64) -> i64 {
    if a == i64::MIN || b == i64::MIN {
        i64::MIN
    } else {
        a.saturating_add(b)
    }
}

/// Adds two upper bounds, saturating toward +∞.
fn add_hi(a: i64, b: i64) -> i64 {
    if a == i64::MAX || b == i64::MAX {
        i64::MAX
    } else {
        a.saturating_add(b)
    }
}

/// Multiplies a bound by a non-zero finite coefficient, mapping the
/// infinity sentinels through the sign of the coefficient.
fn mul_bound(b: i64, k: i64) -> i64 {
    if b == i64::MIN {
        return if k > 0 { i64::MIN } else { i64::MAX };
    }
    if b == i64::MAX {
        return if k > 0 { i64::MAX } else { i64::MIN };
    }
    b.saturating_mul(k)
}

impl Interval {
    /// The full range: every `i64` value (and, abstractly, "unbounded").
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The single value `v`.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (the domain has no empty interval; emptiness
    /// is `Option::None` at the use sites).
    pub fn range(lo: i64, hi: i64) -> Interval {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// `true` if `v` lies in the range.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `true` if the range is the full domain.
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// Least upper bound: the smallest interval containing both.
    #[must_use]
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Standard interval widening: any bound that moved since `self`
    /// jumps straight to its infinity, guaranteeing fixpoint
    /// termination on loops that grow a variable every iteration.
    #[must_use]
    pub fn widen(self, newer: Interval) -> Interval {
        Interval {
            lo: if newer.lo < self.lo {
                i64::MIN
            } else {
                self.lo
            },
            hi: if newer.hi > self.hi {
                i64::MAX
            } else {
                self.hi
            },
        }
    }

    /// Intersection; `None` when the ranges do not overlap.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Multiplication by a constant coefficient (negative coefficients
    /// swap the bounds).
    #[must_use]
    pub fn scale(self, k: i64) -> Interval {
        if k == 0 {
            return Interval::point(0);
        }
        if k > 0 {
            Interval {
                lo: mul_bound(self.lo, k),
                hi: mul_bound(self.hi, k),
            }
        } else {
            Interval {
                lo: mul_bound(self.hi, k),
                hi: mul_bound(self.lo, k),
            }
        }
    }
}

/// Interval addition (sound under the saturating-toward-infinity
/// convention).
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: add_lo(self.lo, other.lo),
            hi: add_hi(self.hi, other.hi),
        }
    }
}

/// Evaluates a linear expression over interval-valued variables and
/// parameters. Operands outside the supplied slices evaluate to
/// [`Interval::TOP`] (unknown), which keeps the evaluation sound on
/// partially-described environments.
pub fn eval_lin(expr: &LinExpr, vars: &[Interval], params: &[Interval]) -> Interval {
    let mut acc = Interval::point(expr.constant_part());
    for &(coeff, operand) in expr.terms() {
        let v = match operand {
            Operand::Var(v) => vars.get(v.index()).copied().unwrap_or(Interval::TOP),
            Operand::Param(p) => params.get(p.index()).copied().unwrap_or(Interval::TOP),
        };
        acc = acc + v.scale(coeff);
    }
    acc
}

/// Three-valued truth of a condition or guard under an abstract
/// environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondStatus {
    /// Holds for every concrete assignment in the environment.
    True,
    /// Holds for no concrete assignment in the environment.
    False,
    /// Not proved either way.
    Unknown,
}

/// Decides `lhs op rhs` three-valued by evaluating the difference
/// `lhs − rhs` over the environment.
pub fn cond_status(cond: &Cond, vars: &[Interval], params: &[Interval]) -> CondStatus {
    let l = eval_lin(&cond.lhs, vars, params);
    let r = eval_lin(&cond.rhs, vars, params);
    let d = l + r.scale(-1);
    match cond.op {
        CmpOp::Lt => decide(d.hi < 0, d.lo >= 0),
        CmpOp::Le => decide(d.hi <= 0, d.lo > 0),
        CmpOp::Eq => decide(d.lo == 0 && d.hi == 0, !d.contains(0)),
        CmpOp::Ne => decide(!d.contains(0), d.lo == 0 && d.hi == 0),
        CmpOp::Ge => decide(d.lo >= 0, d.hi < 0),
        CmpOp::Gt => decide(d.lo > 0, d.hi <= 0),
    }
}

fn decide(proved: bool, refuted: bool) -> CondStatus {
    if proved {
        CondStatus::True
    } else if refuted {
        CondStatus::False
    } else {
        CondStatus::Unknown
    }
}

/// Decides a whole guard (a conjunction): `False` as soon as any
/// condition is refuted, `True` when every condition is proved,
/// `Unknown` otherwise. The empty guard is `True`.
pub fn guard_status(guard: &Guard, vars: &[Interval], params: &[Interval]) -> CondStatus {
    let mut all_true = true;
    for cond in guard.conditions() {
        match cond_status(cond, vars, params) {
            CondStatus::False => return CondStatus::False,
            CondStatus::Unknown => all_true = false,
            CondStatus::True => {}
        }
    }
    if all_true {
        CondStatus::True
    } else {
        CondStatus::Unknown
    }
}

/// A canonical operand key: `(kind, index)` with variables before
/// parameters, so term lists sort deterministically.
type OpKey = (u8, usize);

fn op_key(op: Operand) -> OpKey {
    match op {
        Operand::Var(v) => (0, v.index()),
        Operand::Param(p) => (1, p.index()),
    }
}

/// The canonical non-constant part of `lhs − rhs`: combined, sorted,
/// zero-coefficient-free `(coefficient, operand)` terms. Two conditions
/// with equal [`TermKey`]s constrain the *same* mathematical quantity.
type TermKey = Vec<(i64, OpKey)>;

/// The admissible range (over mathematical integers, hence `i128`
/// bounds with `i128::MIN`/`MAX` as the infinities) for a canonical
/// term sum, plus the points an `!=` condition excludes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TermRange {
    /// Inclusive lower bound (`i128::MIN` = −∞).
    lo: i128,
    /// Inclusive upper bound (`i128::MAX` = +∞).
    hi: i128,
    /// Values excluded by `!=` conditions on the same term sum.
    excluded: Vec<i128>,
}

impl TermRange {
    fn top() -> TermRange {
        TermRange {
            lo: i128::MIN,
            hi: i128::MAX,
            excluded: Vec::new(),
        }
    }

    /// `true` when no integer satisfies the range (empty interval, or a
    /// single admissible point that an exclusion removes).
    fn is_empty(&self) -> bool {
        if self.lo > self.hi {
            return true;
        }
        // A fully-excluded finite range only matters in practice for
        // the single-point case (`==` meeting `!=`); wider ranges with
        // scattered exclusions stay satisfiable.
        self.lo == self.hi && self.excluded.contains(&self.lo)
    }

    fn constrain(&mut self, op: CmpOp, bound: i128) {
        match op {
            CmpOp::Lt => self.hi = self.hi.min(bound - 1),
            CmpOp::Le => self.hi = self.hi.min(bound),
            CmpOp::Eq => {
                self.lo = self.lo.max(bound);
                self.hi = self.hi.min(bound);
            }
            CmpOp::Ne => self.excluded.push(bound),
            CmpOp::Ge => self.lo = self.lo.max(bound),
            CmpOp::Gt => self.lo = self.lo.max(bound + 1),
        }
    }

    /// Intersection of two admissible ranges.
    #[must_use]
    fn meet(&self, other: &TermRange) -> TermRange {
        let mut excluded = self.excluded.clone();
        excluded.extend_from_slice(&other.excluded);
        TermRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
            excluded,
        }
    }
}

/// Normalizes `lhs op rhs` to `terms op −constant`: the canonical term
/// key of `lhs − rhs` and the `i128` bound its constant part moves to
/// the other side.
fn canon_cond(cond: &Cond) -> (TermKey, CmpOp, i128) {
    let mut terms: Vec<(i64, OpKey)> = Vec::new();
    let constant = i128::from(cond.lhs.constant_part()) - i128::from(cond.rhs.constant_part());
    let mut absorb = |expr: &LinExpr, sign: i64| {
        for &(coeff, op) in expr.terms() {
            let key = op_key(op);
            match terms.iter_mut().find(|(_, k)| *k == key) {
                Some((c, _)) => *c = c.saturating_add(coeff.saturating_mul(sign)),
                None => terms.push((coeff.saturating_mul(sign), key)),
            }
        }
    };
    absorb(&cond.lhs, 1);
    absorb(&cond.rhs, -1);
    terms.retain(|&(c, _)| c != 0);
    terms.sort_unstable_by_key(|&(_, k)| k);
    // Constant-only conditions fold the constant into the bound too; for
    // term-carrying conditions the admissible range is for the term sum,
    // i.e. `terms op −constant`.
    (terms, cond.op, -constant)
}

/// The canonical per-term-key admissible ranges of a guard's
/// conditions. `None` when a constant condition is already false (the
/// guard is unsatisfiable outright).
fn guard_ranges(guard: &Guard) -> Option<Vec<(TermKey, TermRange)>> {
    let mut ranges: Vec<(TermKey, TermRange)> = Vec::new();
    for cond in guard.conditions() {
        let (key, op, bound) = canon_cond(cond);
        if key.is_empty() {
            // `0 op bound`: a constant truth value.
            let holds = match op {
                CmpOp::Lt => 0 < bound,
                CmpOp::Le => 0 <= bound,
                CmpOp::Eq => 0 == bound,
                CmpOp::Ne => 0 != bound,
                CmpOp::Ge => 0 >= bound,
                CmpOp::Gt => 0 > bound,
            };
            if !holds {
                return None;
            }
            continue;
        }
        let idx = match ranges.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                ranges.push((key, TermRange::top()));
                ranges.len() - 1
            }
        };
        ranges[idx].1.constrain(op, bound);
    }
    Some(ranges)
}

/// Proves a guard unsatisfiable for *every* variable and parameter
/// assignment: a constant condition is false, or two conditions
/// constrain the same canonical difference to disjoint ranges (e.g.
/// `v + 1 < b` ∧ `v + 1 ≥ b`). A `false` answer proves nothing.
pub fn guard_unsat(guard: &Guard) -> bool {
    match guard_ranges(guard) {
        None => true,
        Some(ranges) => ranges.iter().any(|(_, r)| r.is_empty()),
    }
}

/// Proves two guards disjoint — never both satisfied by one assignment:
/// either guard is unsatisfiable on its own, or they constrain some
/// shared canonical difference to ranges with empty intersection. A
/// `false` answer proves nothing (fall back to enumeration or report
/// "may overlap").
pub fn guards_disjoint(a: &Guard, b: &Guard) -> bool {
    let (ra, rb) = match (guard_ranges(a), guard_ranges(b)) {
        (None, _) | (_, None) => return true,
        (Some(ra), Some(rb)) => (ra, rb),
    };
    if ra.iter().any(|(_, r)| r.is_empty()) || rb.iter().any(|(_, r)| r.is_empty()) {
        return true;
    }
    for (key, range_a) in &ra {
        if let Some((_, range_b)) = rb.iter().find(|(k, _)| k == key) {
            if range_a.meet(range_b).is_empty() {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efsm::{EfsmBuilder, VarId};

    fn var(i: usize) -> LinExpr {
        // VarId's constructor is crate-private; build through the
        // EfsmBuilder-independent path used by the tests.
        LinExpr::var(VarId(i))
    }

    #[test]
    fn interval_arithmetic_saturates_toward_infinity() {
        let top = Interval::TOP;
        assert!(top.is_top());
        assert_eq!(top + Interval::point(5), top);
        assert_eq!(top.scale(-3), top);
        let p = Interval::range(-2, 7);
        assert_eq!(p.scale(-1), Interval::range(-7, 2));
        assert_eq!(p + Interval::point(1), Interval::range(-1, 8));
        assert_eq!(Interval::point(4).scale(0), Interval::point(0));
        let low = Interval {
            lo: i64::MIN,
            hi: 3,
        };
        assert_eq!((low + Interval::point(10)).lo, i64::MIN);
        assert_eq!(low.scale(-2).hi, i64::MAX);
    }

    #[test]
    fn join_widen_intersect() {
        let a = Interval::range(0, 3);
        let b = Interval::range(2, 9);
        assert_eq!(a.join(b), Interval::range(0, 9));
        assert_eq!(a.intersect(b), Some(Interval::range(2, 3)));
        assert_eq!(a.intersect(Interval::range(5, 6)), None);
        assert_eq!(a.widen(Interval::range(0, 4)).hi, i64::MAX);
        assert_eq!(a.widen(Interval::range(-1, 3)).lo, i64::MIN);
        assert_eq!(a.widen(a), a);
        assert!(a.contains(3) && !a.contains(4));
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn empty_range_panics() {
        let _ = Interval::range(3, 2);
    }

    #[test]
    fn cond_status_three_valued() {
        let v = vec![Interval::range(0, 4)];
        let c = |op| Cond {
            lhs: var(0),
            op,
            rhs: LinExpr::constant(5),
        };
        assert_eq!(cond_status(&c(CmpOp::Lt), &v, &[]), CondStatus::True);
        assert_eq!(cond_status(&c(CmpOp::Ge), &v, &[]), CondStatus::False);
        assert_eq!(cond_status(&c(CmpOp::Ne), &v, &[]), CondStatus::True);
        let c4 = Cond {
            lhs: var(0),
            op: CmpOp::Le,
            rhs: LinExpr::constant(3),
        };
        assert_eq!(cond_status(&c4, &v, &[]), CondStatus::Unknown);
        let point = vec![Interval::point(2)];
        let eq = Cond {
            lhs: var(0),
            op: CmpOp::Eq,
            rhs: LinExpr::constant(2),
        };
        assert_eq!(cond_status(&eq, &point, &[]), CondStatus::True);
        assert_eq!(
            cond_status(
                &Cond {
                    lhs: var(0),
                    op: CmpOp::Ne,
                    rhs: LinExpr::constant(2),
                },
                &point,
                &[]
            ),
            CondStatus::False
        );
        assert_eq!(
            cond_status(
                &Cond {
                    lhs: var(0),
                    op: CmpOp::Gt,
                    rhs: LinExpr::constant(1),
                },
                &point,
                &[]
            ),
            CondStatus::True
        );
    }

    #[test]
    fn guard_status_conjunction() {
        let v = vec![Interval::range(0, 4)];
        let g = Guard::when(var(0), CmpOp::Ge, LinExpr::constant(0)).and(
            var(0),
            CmpOp::Lt,
            LinExpr::constant(10),
        );
        assert_eq!(guard_status(&g, &v, &[]), CondStatus::True);
        assert_eq!(guard_status(&Guard::always(), &[], &[]), CondStatus::True);
        let g2 = Guard::when(var(0), CmpOp::Gt, LinExpr::constant(100));
        assert_eq!(guard_status(&g2, &v, &[]), CondStatus::False);
        let g3 = Guard::when(var(0), CmpOp::Gt, LinExpr::constant(2));
        assert_eq!(guard_status(&g3, &v, &[]), CondStatus::Unknown);
    }

    #[test]
    fn unsat_detects_contradictions_without_bindings() {
        // v + 1 < b  ∧  v + 1 >= b  — the complementary retry guards.
        let mut b = EfsmBuilder::new("g", ["m"]);
        let p = b.add_param("b");
        let n = b.add_var("v");
        let lt = Guard::when(LinExpr::var(n).plus_const(1), CmpOp::Lt, LinExpr::param(p));
        let ge = Guard::when(LinExpr::var(n).plus_const(1), CmpOp::Ge, LinExpr::param(p));
        let both = lt
            .clone()
            .and(LinExpr::var(n).plus_const(1), CmpOp::Ge, LinExpr::param(p));
        assert!(guard_unsat(&both));
        assert!(!guard_unsat(&lt));
        assert!(!guard_unsat(&ge));
        assert!(guards_disjoint(&lt, &ge));
        assert!(!guards_disjoint(&lt, &lt));

        // Constant contradiction.
        let konst = Guard::when(LinExpr::constant(1), CmpOp::Lt, LinExpr::constant(0));
        assert!(guard_unsat(&konst));
        assert!(guards_disjoint(&konst, &Guard::always()));
        // Constant truth is satisfiable.
        assert!(!guard_unsat(&Guard::when(
            LinExpr::constant(0),
            CmpOp::Le,
            LinExpr::constant(0)
        )));

        // == meets != on the same difference.
        let eq = Guard::when(LinExpr::var(n), CmpOp::Eq, LinExpr::constant(3));
        let ne = Guard::when(LinExpr::var(n), CmpOp::Ne, LinExpr::constant(3));
        assert!(guard_unsat(&eq.clone().and(
            LinExpr::var(n),
            CmpOp::Ne,
            LinExpr::constant(3)
        )));
        assert!(guards_disjoint(&eq, &ne));
        assert!(!guards_disjoint(&eq, &Guard::always()));
    }

    #[test]
    fn canonicalization_combines_and_sorts_terms() {
        // 2v + 3 - v < v + 4  ⇒  0·v < 1 ⇒ constant-true.
        let mut b = EfsmBuilder::new("g", ["m"]);
        let n = b.add_var("v");
        let lhs = LinExpr::var(n)
            .times(2)
            .plus_const(3)
            .plus(LinExpr::var(n).times(-1));
        let rhs = LinExpr::var(n).plus_const(4);
        let g = Guard::when(lhs.clone(), CmpOp::Lt, rhs.clone());
        assert!(!guard_unsat(&g));
        // Flip to >= and it is a constant contradiction: v + 3 >= v + 4.
        let g2 = Guard::when(lhs, CmpOp::Ge, rhs);
        assert!(guard_unsat(&g2));
    }

    #[test]
    fn eval_lin_handles_out_of_range_operands() {
        let e = var(7);
        assert!(eval_lin(&e, &[], &[]).is_top());
    }
}
