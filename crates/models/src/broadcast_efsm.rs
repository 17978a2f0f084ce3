//! The reliable-broadcast EFSM (paper §5.3 applied beyond the commit
//! protocol): counters become variables, thresholds become guards over
//! parameters, and the state space collapses to the five reachable flag
//! combinations — independent of `n`.
//!
//! State inventory (flags `initial_received / echo_sent / ready_sent`):
//!
//! | state        | I | E | R |
//! |--------------|---|---|---|
//! | `idle`       | F | F | F |
//! | `echoed`     | T | T | F |
//! | `ready-blind`| F | F | T | (amplified without seeing the initial)
//! | `ready`      | T | T | T |
//! | `delivered`  | — | — | — |

use stategen_core::efsm::{CmpOp, Efsm, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::Action;

use crate::broadcast::BroadcastModel;

/// Builds the 5-state broadcast EFSM, parameterised by `n`, the echo
/// threshold, the ready-amplification threshold and the delivery
/// threshold.
pub fn broadcast_efsm() -> Efsm {
    let mut b = EfsmBuilder::new("broadcast-efsm", ["initial", "echo", "ready"]);
    let n = b.add_param("n");
    let te = b.add_param("echo_threshold");
    let ta = b.add_param("amplify_threshold");
    let td = b.add_param("delivery_threshold");
    let e = b.add_var("echoes_received");
    let d = b.add_var("readies_received");

    let idle = b.add_state("idle");
    let echoed = b.add_state("echoed");
    let ready_blind = b.add_state("ready-blind");
    let ready = b.add_state("ready");
    let delivered = b.add_state("delivered");

    let inc_e = vec![Update::Inc(e)];
    let inc_d = vec![Update::Inc(d)];
    // Only echoes need an explicit receipt bound: readies always cross
    // the delivery threshold (2f+1 <= n-1) before exhausting the n-1
    // possible senders, so their below-threshold guards already bound d.
    let e_in_bounds = Guard::when(
        LinExpr::var(e).plus_const(1),
        CmpOp::Le,
        LinExpr::param(n).plus_const(-1),
    );

    // idle (F,F,F): counters below every threshold by construction.
    b.add_transition(
        idle,
        "initial",
        Guard::when(LinExpr::var(e).plus_const(1), CmpOp::Lt, LinExpr::param(te)),
        vec![],
        vec![Action::send("echo")],
        echoed,
    );
    b.add_transition(
        idle,
        "initial",
        Guard::when(LinExpr::var(e).plus_const(1), CmpOp::Ge, LinExpr::param(te)),
        vec![],
        vec![Action::send("echo"), Action::send("ready")],
        ready,
    );
    b.add_transition(
        idle,
        "echo",
        Guard::when(LinExpr::var(e).plus_const(1), CmpOp::Lt, LinExpr::param(te)).and(
            LinExpr::var(e).plus_const(1),
            CmpOp::Le,
            LinExpr::param(n).plus_const(-1),
        ),
        inc_e.clone(),
        vec![],
        idle,
    );
    b.add_transition(
        idle,
        "echo",
        Guard::when(LinExpr::var(e).plus_const(1), CmpOp::Ge, LinExpr::param(te)).and(
            LinExpr::var(e).plus_const(1),
            CmpOp::Le,
            LinExpr::param(n).plus_const(-1),
        ),
        inc_e.clone(),
        vec![Action::send("ready")],
        ready_blind,
    );
    b.add_transition(
        idle,
        "ready",
        Guard::when(LinExpr::var(d).plus_const(1), CmpOp::Lt, LinExpr::param(ta)),
        inc_d.clone(),
        vec![],
        idle,
    );
    b.add_transition(
        idle,
        "ready",
        Guard::when(LinExpr::var(d).plus_const(1), CmpOp::Ge, LinExpr::param(ta)),
        inc_d.clone(),
        vec![Action::send("ready")],
        ready_blind,
    );

    // echoed (T,T,F): own echo counts towards the threshold.
    b.add_transition(
        echoed,
        "echo",
        Guard::when(LinExpr::var(e).plus_const(2), CmpOp::Lt, LinExpr::param(te)).and(
            LinExpr::var(e).plus_const(1),
            CmpOp::Le,
            LinExpr::param(n).plus_const(-1),
        ),
        inc_e.clone(),
        vec![],
        echoed,
    );
    b.add_transition(
        echoed,
        "echo",
        Guard::when(LinExpr::var(e).plus_const(2), CmpOp::Ge, LinExpr::param(te)).and(
            LinExpr::var(e).plus_const(1),
            CmpOp::Le,
            LinExpr::param(n).plus_const(-1),
        ),
        inc_e.clone(),
        vec![Action::send("ready")],
        ready,
    );
    b.add_transition(
        echoed,
        "ready",
        Guard::when(LinExpr::var(d).plus_const(1), CmpOp::Lt, LinExpr::param(ta)),
        inc_d.clone(),
        vec![],
        echoed,
    );
    b.add_transition(
        echoed,
        "ready",
        Guard::when(LinExpr::var(d).plus_const(1), CmpOp::Ge, LinExpr::param(ta)),
        inc_d.clone(),
        vec![Action::send("ready")],
        ready,
    );

    // ready-blind (F,F,T): the initial still triggers our echo.
    b.add_transition(
        ready_blind,
        "initial",
        Guard::always(),
        vec![],
        vec![Action::send("echo")],
        ready,
    );
    b.add_transition(
        ready_blind,
        "echo",
        e_in_bounds.clone(),
        inc_e.clone(),
        vec![],
        ready_blind,
    );
    b.add_transition(
        ready_blind,
        "ready",
        Guard::when(LinExpr::var(d).plus_const(1), CmpOp::Lt, LinExpr::param(td)),
        inc_d.clone(),
        vec![],
        ready_blind,
    );
    b.add_transition(
        ready_blind,
        "ready",
        Guard::when(LinExpr::var(d).plus_const(1), CmpOp::Ge, LinExpr::param(td)),
        inc_d.clone(),
        vec![],
        delivered,
    );

    // ready (T,T,T): only counting remains.
    b.add_transition(ready, "echo", e_in_bounds, inc_e, vec![], ready);
    b.add_transition(
        ready,
        "ready",
        Guard::when(LinExpr::var(d).plus_const(1), CmpOp::Lt, LinExpr::param(td)),
        inc_d.clone(),
        vec![],
        ready,
    );
    b.add_transition(
        ready,
        "ready",
        Guard::when(LinExpr::var(d).plus_const(1), CmpOp::Ge, LinExpr::param(td)),
        inc_d,
        vec![],
        delivered,
    );

    b.build(idle, Some(delivered))
}

/// The parameter vector binding [`broadcast_efsm`] to a concrete
/// participant count, in the EFSM's declaration order (`n`,
/// `echo_threshold`, `amplify_threshold`, `delivery_threshold`).
///
/// Use this everywhere an instance or pool is created — the order is
/// load-bearing, so it must be built in exactly one place.
pub fn broadcast_efsm_params(model: &BroadcastModel) -> Vec<i64> {
    vec![
        i64::from(model.participants()),
        i64::from(model.echo_threshold()),
        i64::from(model.ready_amplify_threshold()),
        i64::from(model.delivery_threshold()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_analysis::{analyze_bound, AnalysisConfig};
    use stategen_core::{generate, FlatIr, Lint, ProtocolEngine};

    #[test]
    fn five_states_generic_in_n() {
        let efsm = broadcast_efsm();
        assert_eq!(efsm.state_count(), 5);
        let ir = FlatIr::from_efsm(&efsm);
        for n in [4u32, 7, 10, 13] {
            let params = broadcast_efsm_params(&BroadcastModel::new(n));
            let mut config = AnalysisConfig::new();
            config.var_bound = i64::from(n);
            let analysis = analyze_bound(&ir, &params, &config);
            assert!(
                !analysis.has(Lint::OverlappingGuards),
                "n={n}: {:?}",
                analysis.diagnostics
            );
        }
    }

    #[test]
    fn happy_path_matches_fsm() {
        let efsm = broadcast_efsm();
        for n in [4u32, 7] {
            let model = BroadcastModel::new(n);
            let machine = FlatIr::from_machine(&generate(&model).unwrap().machine);
            let mut fsm = machine.instance(vec![]);
            let ir = FlatIr::from_efsm(&efsm);
            let mut e = ir.instance(broadcast_efsm_params(&model));
            let mut trace = vec!["initial"];
            trace.extend(std::iter::repeat_n("echo", n as usize - 1));
            trace.extend(std::iter::repeat_n("ready", n as usize - 1));
            for m in trace {
                let a = fsm.deliver(m).unwrap();
                let b = e.deliver(m).unwrap();
                assert_eq!(a, b, "n={n} message {m}");
                assert_eq!(fsm.is_finished(), e.is_finished(), "n={n} message {m}");
            }
            assert!(e.is_finished());
        }
    }

    #[test]
    fn exhaustive_equivalence_n4() {
        // Every message sequence up to length 6 (3^6 = 729).
        let model = BroadcastModel::new(4);
        let machine = FlatIr::from_machine(&generate(&model).unwrap().machine);
        let efsm = broadcast_efsm();
        let messages = ["initial", "echo", "ready"];
        let mut stack = vec![Vec::<usize>::new()];
        while let Some(seq) = stack.pop() {
            let mut fsm = machine.instance(vec![]);
            let ir = FlatIr::from_efsm(&efsm);
            let mut e = ir.instance(broadcast_efsm_params(&model));
            for &mi in &seq {
                let a = fsm.deliver(messages[mi]).unwrap();
                let b = e.deliver(messages[mi]).unwrap();
                assert_eq!(a, b, "sequence {seq:?}");
                assert_eq!(fsm.is_finished(), e.is_finished(), "sequence {seq:?}");
            }
            if seq.len() < 6 {
                for mi in 0..messages.len() {
                    let mut next = seq.clone();
                    next.push(mi);
                    stack.push(next);
                }
            }
        }
    }
}
