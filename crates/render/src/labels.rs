//! Transition labels shared by the flat and the hierarchy-aware
//! renderers: guards, updates and sent messages in a compact
//! mathematical syntax (paper §5.3), e.g.
//!
//! ```text
//! VOTE [votes_received+1 >= vote_threshold] / votes_received+=1
//! ```

use std::fmt::Write as _;

use stategen_core::efsm::{Guard, LinExpr, Operand, Update};
use stategen_core::Action;

use crate::dot::escape;
use crate::mermaid;

/// A machine's variable and parameter names, which guards and updates
/// print in place of register and parameter indices (every machine
/// shape that carries guards — the flat IR and statecharts — has both
/// tables).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Names<'a> {
    variables: &'a [String],
    params: &'a [String],
}

impl<'a> Names<'a> {
    pub(crate) fn new(variables: &'a [String], params: &'a [String]) -> Self {
        Names { variables, params }
    }

    /// Formats a linear expression: `2*n+limit-1`.
    fn format_expr(self, expr: &LinExpr) -> String {
        let mut out = String::new();
        for &(coeff, operand) in expr.terms() {
            let name = match operand {
                Operand::Var(v) => &self.variables[v.index()],
                Operand::Param(p) => &self.params[p.index()],
            };
            let sign = if coeff < 0 {
                "-"
            } else if out.is_empty() {
                ""
            } else {
                "+"
            };
            let _ = match coeff.unsigned_abs() {
                1 => write!(out, "{sign}{name}"),
                c => write!(out, "{sign}{c}*{name}"),
            };
        }
        let c = expr.constant_part();
        if c < 0 {
            let _ = write!(out, "{c}");
        } else if c > 0 || out.is_empty() {
            let _ = write!(out, "{}{c}", if out.is_empty() { "" } else { "+" });
        }
        out
    }

    /// Formats a guard as a bracketed conjunction, or the empty string
    /// for the always-true guard.
    pub(crate) fn format_guard(self, guard: &Guard) -> String {
        if guard.conditions().is_empty() {
            return String::new();
        }
        let conds: Vec<String> = guard
            .conditions()
            .iter()
            .map(|c| {
                format!(
                    "{} {} {}",
                    self.format_expr(&c.lhs),
                    c.op,
                    self.format_expr(&c.rhs)
                )
            })
            .collect();
        format!("[{}]", conds.join(" && "))
    }

    /// Formats a transition's variable updates: `n+=1, m:=0`.
    pub(crate) fn format_updates(self, updates: &[Update]) -> String {
        let update = |u: &Update| match u {
            Update::Inc(v) => format!("{}+=1", self.variables[v.index()]),
            Update::Set(v, e) => format!("{}:={}", self.variables[v.index()], self.format_expr(e)),
        };
        updates.iter().map(update).collect::<Vec<_>>().join(", ")
    }

    /// The label of a DOT edge: the upper-cased message, then the guard,
    /// the updates and each sent message on a line of its own. Every
    /// fragment is escaped on its own, so the `\n` separators stay DOT
    /// line breaks whatever bytes the names contain.
    pub(crate) fn dot_label(
        self,
        message: &str,
        guard: &Guard,
        updates: &[Update],
        actions: &[Action],
    ) -> String {
        let mut label = escape(&message.to_uppercase());
        let guard = self.format_guard(guard);
        if !guard.is_empty() {
            let _ = write!(label, "\\n{}", escape(&guard));
        }
        let updates = self.format_updates(updates);
        if !updates.is_empty() {
            let _ = write!(label, "\\n/ {}", escape(&updates));
        }
        for a in actions {
            let _ = write!(label, "\\n->{}", escape(a.message()));
        }
        label
    }

    /// The label of a Mermaid transition: `MESSAGE [guard] / updates,
    /// sent, messages`, each part present only when it is non-empty,
    /// escaped as a whole (the separators need no escape).
    pub(crate) fn mermaid_label(
        self,
        message: &str,
        guard: &Guard,
        updates: &[Update],
        actions: &[Action],
    ) -> String {
        let mut label = message.to_uppercase();
        let guard = self.format_guard(guard);
        if !guard.is_empty() {
            let _ = write!(label, " {guard}");
        }
        let updates = self.format_updates(updates);
        let effects: Vec<&str> = (!updates.is_empty())
            .then_some(updates.as_str())
            .into_iter()
            .chain(actions.iter().map(Action::message))
            .collect();
        if !effects.is_empty() {
            let _ = write!(label, " / {}", effects.join(", "));
        }
        mermaid::escape(&label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_core::efsm::CmpOp;
    use stategen_core::HsmBuilder;

    #[test]
    fn expr_formatting() {
        let mut b = HsmBuilder::new("m", ["tick"]);
        let limit = LinExpr::param(b.add_param("limit"));
        let n = LinExpr::var(b.add_var("n"));
        let (variables, params) = (["n".to_string()], ["limit".to_string()]);
        let names = Names::new(&variables, &params);
        assert_eq!(names.format_expr(&n.clone().plus_const(1)), "n+1");
        assert_eq!(names.format_expr(&limit), "limit");
        let guard = Guard::when(n.times(-2), CmpOp::Lt, limit.plus_const(-3));
        assert_eq!(names.format_guard(&guard), "[-2*n < limit-3]");
        assert_eq!(names.format_guard(&Guard::always()), "");
    }
}
