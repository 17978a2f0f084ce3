//! A hierarchical session-lifecycle statechart wrapping the commit
//! protocol with suspend/resume and failure superstates.
//!
//! The paper's flat commit machine captures one protocol *attempt*; a
//! deployed peer wraps attempts in a connection lifecycle — sessions
//! come up, suspend, fail and recover without losing their place in the
//! protocol. That overlay is naturally hierarchical: `suspend`/`fail`
//! apply from *anywhere* inside the established session (inherited
//! transitions), and `resume`/`recover` return to wherever the session
//! was (shallow history). Authored as a
//! [`HierarchicalMachine`] and
//! flattened, it runs on every existing execution tier unchanged.
//!
//! ```text
//! Connecting ──connect──▶ Established ⟨history⟩
//!                          ├── Idle (initial)
//!                          └── Commit ── Voting (initial) ── Deciding
//!   Established ──suspend──▶ Suspended ──resume──▶ H(Established)
//!   Established ──fail──▶ Failed{Probing} ──recover──▶ H(Established)
//!   … ──close──▶ Closed (final)
//! ```
//!
//! Shallow history restores the *direct* child of `Established`: a
//! session suspended while deep in `Commit.Deciding` resumes in
//! `Commit` and re-enters through its initial child `Voting` — the
//! attempt restarts from the vote request, which is exactly the commit
//! protocol's retry semantics (an interrupted attempt is re-proposed,
//! not resumed mid-quorum).

use stategen_core::efsm::{CmpOp, Guard, LinExpr, Update};
use stategen_core::{Action, HierarchicalMachine, HsmBuilder};

/// Builds the hierarchical session-lifecycle machine.
///
/// Alphabet: `connect`, `update`, `vote`, `commit`, `abort`, `ping`,
/// `suspend`, `resume`, `fail`, `recover`, `close`.
///
/// # Examples
///
/// ```
/// use stategen_core::ProtocolEngine;
/// use stategen_models::session_lifecycle;
/// use stategen_runtime::{Spec, Tier};
///
/// let hsm = session_lifecycle();
/// let mut session = hsm.instance();
/// session.deliver_ref("connect").unwrap();
/// session.deliver_ref("update").unwrap();
/// session.deliver_ref("suspend").unwrap();
/// session.deliver_ref("resume").unwrap(); // history: back into Commit
/// assert_eq!(session.state_name(), "Established.Commit.Voting~Established=Commit");
///
/// // The same statechart, flattened and compiled, serves traffic.
/// let engine = Spec::hierarchical(hsm.clone()).compile().unwrap();
/// assert_eq!(engine.tier(), Tier::Compiled);
/// let mut rt = engine.runtime();
/// let id = rt.spawn();
/// let mut fast = rt.session(id);
/// for m in ["connect", "update", "suspend", "resume"] {
///     fast.deliver_ref(m).unwrap();
/// }
/// assert_eq!(fast.state_name(), session.state_name());
/// ```
pub fn session_lifecycle() -> HierarchicalMachine {
    let mut b = HsmBuilder::new(
        "session-lifecycle",
        [
            "connect", "update", "vote", "commit", "abort", "ping", "suspend", "resume", "fail",
            "recover", "close",
        ],
    );
    let connecting = b.add_state("Connecting");

    let established = b.add_state("Established");
    let idle = b.add_child(established, "Idle");
    let commit = b.add_child(established, "Commit");
    let voting = b.add_child(commit, "Voting");
    let deciding = b.add_child(commit, "Deciding");
    b.enable_history(established);
    b.on_entry(established, vec![Action::send("online")]);
    b.on_exit(established, vec![Action::send("offline")]);
    b.on_entry(commit, vec![Action::send("attempt_begin")]);
    b.on_exit(commit, vec![Action::send("attempt_end")]);
    b.on_entry(voting, vec![Action::send("vote_req")]);
    b.on_entry(deciding, vec![Action::send("commit_req")]);

    let suspended = b.add_state("Suspended");
    let failed = b.add_state("Failed");
    let probing = b.add_child(failed, "Probing");
    b.on_entry(failed, vec![Action::send("alarm")]);
    b.on_entry(probing, vec![Action::send("probe")]);

    let closed = b.add_state("Closed");
    b.mark_final(closed);

    // Connection bring-up.
    b.add_transition(
        connecting,
        "connect",
        established,
        vec![Action::send("ack")],
    );

    // The wrapped commit attempt: Idle -> Commit{Voting -> Deciding} -> Idle.
    b.add_transition(idle, "update", commit, vec![]);
    b.add_transition(voting, "vote", deciding, vec![]);
    b.add_transition(deciding, "commit", idle, vec![Action::send("committed")]);
    // Declared on Commit: aborting applies in Voting and Deciding alike.
    b.add_transition(commit, "abort", idle, vec![Action::send("aborted")]);

    // Liveness check: answered from anywhere in the session without
    // disturbing the configuration (internal transition).
    b.add_internal_transition(established, "ping", vec![Action::send("pong")]);

    // Suspend/resume overlay: inherited from any depth, resumed via
    // shallow history.
    b.add_transition(established, "suspend", suspended, vec![]);
    b.add_history_transition(suspended, "resume", established, vec![]);

    // Failure/recovery overlay.
    b.add_transition(established, "fail", failed, vec![]);
    b.add_history_transition(
        probing,
        "recover",
        established,
        vec![Action::send("recovered")],
    );

    // Teardown, from every lifecycle phase.
    b.add_transition(connecting, "close", closed, vec![]);
    b.add_transition(established, "close", closed, vec![Action::send("bye")]);
    b.add_transition(suspended, "close", closed, vec![]);
    b.add_transition(failed, "close", closed, vec![]);

    b.build(connecting)
}

/// The guarded session lifecycle: [`session_lifecycle`] plus a *retry
/// budget* — the worked model proving the guarded statechart pipeline
/// end-to-end (`HsmBuilder` → `flatten_ir` → bound and unfolded onto
/// the dense tier).
///
/// The statechart declares one parameter, `max_retries`, and one
/// variable, `retries`:
///
/// * aborting a commit attempt *below* the budget returns to `Idle` and
///   increments `retries` — the ordinary retry loop;
/// * aborting once the budget is spent (`retries + 1 >= max_retries`)
///   suspends the session into the `Failed` superstate instead (the
///   failure overlay's entry actions — `alarm`, `probe` — fire via the
///   synthesized exit/entry sequences), still incrementing `retries`;
/// * a successful commit resets the budget (`retries := 0`), exercising
///   the staged `Set` update path through every tier;
/// * recovery (`recover`, via shallow history) also restores a fresh
///   budget — the reset keeps `retries` provably bounded, which the
///   semantic analyzer (`stategen-analysis`) verifies: without it the
///   abort→fail→recover cycle grows the register without limit and the
///   `possible-overflow` lint fires.
///
/// Because the machine carries guards, it has no flat-FSM projection
/// until the budget is bound:
/// `Spec::hsm_with_params(session_lifecycle_guarded(), vec![max])`
/// binds it, and the bounded `retries` then lets `Engine::compile`
/// unfold the machine onto the dense table (39 configurations at
/// `max = 3`).
///
/// # Examples
///
/// ```
/// use stategen_core::ProtocolEngine;
/// use stategen_models::session_lifecycle_guarded;
///
/// let hsm = session_lifecycle_guarded();
/// let mut session = hsm.instance_with(vec![2]); // budget: 2 attempts
/// for m in ["connect", "update", "abort", "update"] {
///     session.deliver_ref(m).unwrap();
/// }
/// assert_eq!(session.vars(), &[1]); // one retry consumed
/// session.deliver_ref("abort").unwrap(); // budget spent: escalate
/// assert_eq!(session.state_name(), "Failed.Probing~Established=Commit");
/// ```
pub fn session_lifecycle_guarded() -> HierarchicalMachine {
    let mut b = HsmBuilder::new(
        "session-lifecycle-guarded",
        [
            "connect", "update", "vote", "commit", "abort", "ping", "suspend", "resume", "fail",
            "recover", "close",
        ],
    );
    let max_retries = b.add_param("max_retries");
    let retries = b.add_var("retries");

    let connecting = b.add_state("Connecting");

    let established = b.add_state("Established");
    let idle = b.add_child(established, "Idle");
    let commit = b.add_child(established, "Commit");
    let voting = b.add_child(commit, "Voting");
    let deciding = b.add_child(commit, "Deciding");
    b.enable_history(established);
    b.on_entry(established, vec![Action::send("online")]);
    b.on_exit(established, vec![Action::send("offline")]);
    b.on_entry(commit, vec![Action::send("attempt_begin")]);
    b.on_exit(commit, vec![Action::send("attempt_end")]);
    b.on_entry(voting, vec![Action::send("vote_req")]);
    b.on_entry(deciding, vec![Action::send("commit_req")]);

    let suspended = b.add_state("Suspended");
    let failed = b.add_state("Failed");
    let probing = b.add_child(failed, "Probing");
    b.on_entry(failed, vec![Action::send("alarm")]);
    b.on_entry(probing, vec![Action::send("probe")]);

    let closed = b.add_state("Closed");
    b.mark_final(closed);

    b.add_transition(
        connecting,
        "connect",
        established,
        vec![Action::send("ack")],
    );

    // The wrapped commit attempt; success refunds the retry budget.
    b.add_transition(idle, "update", commit, vec![]);
    b.add_transition(voting, "vote", deciding, vec![]);
    b.add_guarded_transition(
        deciding,
        "commit",
        Guard::always(),
        vec![Update::Set(retries, LinExpr::constant(0))],
        idle,
        vec![Action::send("committed")],
    );
    // Declared on Commit, inherited by Voting and Deciding: abort
    // retries while the budget lasts, and suspends into the failure
    // superstate once `retries >= max_retries` would be exceeded.
    b.add_guarded_transition(
        commit,
        "abort",
        Guard::when(
            LinExpr::var(retries).plus_const(1),
            CmpOp::Lt,
            LinExpr::param(max_retries),
        ),
        vec![Update::Inc(retries)],
        idle,
        vec![Action::send("aborted")],
    );
    b.add_guarded_transition(
        commit,
        "abort",
        Guard::when(
            LinExpr::var(retries).plus_const(1),
            CmpOp::Ge,
            LinExpr::param(max_retries),
        ),
        vec![Update::Inc(retries)],
        failed,
        vec![Action::send("aborted")],
    );

    b.add_internal_transition(established, "ping", vec![Action::send("pong")]);

    b.add_transition(established, "suspend", suspended, vec![]);
    b.add_history_transition(suspended, "resume", established, vec![]);

    b.add_transition(established, "fail", failed, vec![]);
    // Recovery restores a *fresh* budget (`retries := 0`): without the
    // reset, abort→fail→recover cycles would grow `retries` without
    // bound — exactly what the analyzer's `possible-overflow` lint
    // flagged on the original formulation of this model.
    b.add_guarded_history_transition(
        probing,
        "recover",
        Guard::always(),
        vec![Update::Set(retries, LinExpr::constant(0))],
        established,
        vec![Action::send("recovered")],
    );

    b.add_transition(connecting, "close", closed, vec![]);
    b.add_transition(established, "close", closed, vec![Action::send("bye")]);
    b.add_transition(suspended, "close", closed, vec![]);
    b.add_transition(failed, "close", closed, vec![]);

    b.build(connecting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_analysis::{analyze, AnalysisConfig};
    use stategen_core::{Lint, ProtocolEngine};
    use stategen_runtime::Spec;

    #[test]
    fn structure() {
        let hsm = session_lifecycle();
        assert_eq!(hsm.state_count(), 10);
        assert_eq!(hsm.composite_count(), 3); // Established, Commit, Failed
        assert_eq!(hsm.history_count(), 1);
        assert_eq!(hsm.messages().len(), 11);
    }

    #[test]
    fn happy_path_commit() {
        let hsm = session_lifecycle();
        let mut s = hsm.instance();
        assert_eq!(
            s.deliver_ref("connect").unwrap(),
            [Action::send("ack"), Action::send("online")]
        );
        assert_eq!(s.state_name(), "Established.Idle");
        assert_eq!(
            s.deliver_ref("update").unwrap(),
            [Action::send("attempt_begin"), Action::send("vote_req")]
        );
        assert_eq!(s.deliver_ref("vote").unwrap(), [Action::send("commit_req")]);
        assert_eq!(
            s.deliver_ref("commit").unwrap(),
            [Action::send("attempt_end"), Action::send("committed")]
        );
        // Established was never exited, so its shallow history still
        // remembers its initial child: no `~` decoration.
        assert_eq!(s.state_name(), "Established.Idle");
    }

    #[test]
    fn suspend_resume_restores_commit_attempt() {
        let hsm = session_lifecycle();
        let mut s = hsm.instance();
        for m in ["connect", "update", "vote"] {
            s.deliver_ref(m).unwrap();
        }
        assert_eq!(s.state_name(), "Established.Commit.Deciding");
        s.deliver_ref("suspend").unwrap();
        assert_eq!(s.state_name(), "Suspended~Established=Commit");
        // Shallow history restores Commit, which re-enters through its
        // initial child: the interrupted attempt restarts at Voting.
        assert_eq!(
            s.deliver_ref("resume").unwrap(),
            [
                Action::send("online"),
                Action::send("attempt_begin"),
                Action::send("vote_req"),
            ]
        );
        assert_eq!(
            s.state_name(),
            "Established.Commit.Voting~Established=Commit"
        );
    }

    #[test]
    fn fail_recover_and_ping() {
        let hsm = session_lifecycle();
        let mut s = hsm.instance();
        s.deliver_ref("connect").unwrap();
        assert_eq!(s.deliver_ref("ping").unwrap(), [Action::send("pong")]);
        assert_eq!(s.state_name(), "Established.Idle"); // internal: no move
        assert_eq!(
            s.deliver_ref("fail").unwrap(),
            [
                Action::send("offline"),
                Action::send("alarm"),
                Action::send("probe")
            ]
        );
        assert_eq!(s.state_name(), "Failed.Probing");
        assert_eq!(
            s.deliver_ref("recover").unwrap(),
            [Action::send("recovered"), Action::send("online")]
        );
        assert_eq!(s.state_name(), "Established.Idle");
        s.deliver_ref("close").unwrap();
        assert!(s.is_finished());
    }

    #[test]
    fn flattened_machine_validates_and_matches_reference() {
        let hsm = session_lifecycle();
        let ir = hsm.flatten_ir();
        let analysis = analyze(&ir, &AnalysisConfig::new());
        assert!(analysis.is_clean(), "{:?}", analysis.diagnostics);
        for lint in [
            Lint::FinalWithOutgoing,
            Lint::UnreachableState,
            Lint::DeadEndState,
            Lint::DuplicateStateName,
        ] {
            assert!(!analysis.has(lint), "{:?}", analysis.diagnostics);
        }
        let mut reference = hsm.instance();
        let mut interp = ir.instance(vec![]);
        let trace = [
            "connect", "update", "ping", "vote", "suspend", "resume", "vote", "fail", "recover",
            "commit", "abort", "update", "commit", "close", "connect",
        ];
        for m in trace {
            let want = reference.deliver_ref(m).unwrap().to_vec();
            assert_eq!(interp.deliver_ref(m).unwrap(), want.as_slice(), "at {m}");
            assert_eq!(reference.state_name(), interp.state_name(), "at {m}");
        }
        assert!(interp.is_finished());
    }

    #[test]
    fn guarded_lifecycle_retries_then_escalates() {
        let hsm = session_lifecycle_guarded();
        assert!(hsm.is_guarded());
        assert_eq!(hsm.params(), ["max_retries"]);
        assert_eq!(hsm.variables(), ["retries"]);
        let mut s = hsm.instance_with(vec![2]);
        for m in ["connect", "update"] {
            s.deliver_ref(m).unwrap();
        }
        // First abort: below budget, back to Idle.
        assert_eq!(
            s.deliver_ref("abort").unwrap(),
            [Action::send("attempt_end"), Action::send("aborted")]
        );
        // Established itself was never exited, so its shallow history
        // still remembers the initial child: no `~` decoration yet.
        assert_eq!(s.state_name(), "Established.Idle");
        assert_eq!(s.vars(), &[1]);
        // Second attempt's abort: budget spent — exit through Commit and
        // Established into the failure superstate, whose entry actions
        // (alarm, probe) fire via the synthesized sequences.
        s.deliver_ref("update").unwrap();
        assert_eq!(
            s.deliver_ref("abort").unwrap(),
            [
                Action::send("attempt_end"),
                Action::send("offline"),
                Action::send("aborted"),
                Action::send("alarm"),
                Action::send("probe"),
            ]
        );
        assert_eq!(s.state_name(), "Failed.Probing~Established=Commit");
        assert_eq!(s.vars(), &[2]);
        // Recovery restores the remembered Commit child via history.
        assert_eq!(
            s.deliver_ref("recover").unwrap(),
            [
                Action::send("recovered"),
                Action::send("online"),
                Action::send("attempt_begin"),
                Action::send("vote_req"),
            ]
        );
    }

    #[test]
    fn guarded_lifecycle_commit_refunds_the_budget() {
        let hsm = session_lifecycle_guarded();
        let mut s = hsm.instance_with(vec![3]);
        for m in ["connect", "update", "abort", "update", "vote", "commit"] {
            s.deliver_ref(m).unwrap();
        }
        // The successful commit reset the spent retry (Set update).
        assert_eq!(s.vars(), &[0]);
        assert_eq!(s.state_name(), "Established.Idle");
    }

    #[test]
    fn guarded_lifecycle_is_parameter_generic() {
        // One statechart, every budget: the point of the guarded tier.
        let hsm = session_lifecycle_guarded();
        for max in 1..5 {
            let mut s = hsm.instance_with(vec![max]);
            s.deliver_ref("connect").unwrap();
            let mut aborts = 0;
            loop {
                s.deliver_ref("update").unwrap();
                s.deliver_ref("abort").unwrap();
                aborts += 1;
                if s.state_name().starts_with("Failed") {
                    break;
                }
            }
            assert_eq!(aborts, max, "escalates exactly at the budget");
        }
    }

    #[test]
    fn flattened_machine_serves_a_session_pool() {
        let engine = Spec::hierarchical(session_lifecycle()).compile().unwrap();
        let mut pool = engine.runtime_with(1000);
        for m in ["connect", "update", "vote", "commit", "close"] {
            let mid = engine.message_id(m).unwrap();
            assert_eq!(pool.deliver_all(mid), 1000, "at {m}");
        }
        assert!(pool.all_finished());
    }
}
