//! The commit protocol as an extended finite state machine (paper §5.3).
//!
//! Mapping the message-counting variables (`votes_received`,
//! `commits_received`) to EFSM variables coalesces all FSM states that
//! differ only in counts below their thresholds: every state *change* of
//! the EFSM corresponds to a phase transition of the FSM, while simple
//! count increments become guarded self-loops. The result has **9 states**
//! — one per reachable combination of the boolean flags, plus the finished
//! state — and, unlike the FSM family, is *generic in the replication
//! factor*: thresholds appear only in guards, as parameters bound at
//! instantiation time.
//!
//! State inventory (flags `update_received / vote_sent / commit_sent /
//! could_choose / has_chosen`):
//!
//! | state            | U | S | K | F | H |
//! |------------------|---|---|---|---|---|
//! | `idle-free`      | F | F | F | T | F |
//! | `idle-blocked`   | F | F | F | F | F |
//! | `update-blocked` | T | F | F | F | F |
//! | `voted-chosen`   | T | T | F | T | T |
//! | `committed-chosen`| T | T | T | T | T |
//! | `forced-voted`   | F | T | T | F | F |
//! | `forced-chosen`  | F | T | T | T | T |
//! | `committed-blocked`| T | T | T | F | F |
//! | `finished`       | — | — | — | — | — |

use stategen_core::efsm::{CmpOp, Efsm, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::Action;

use crate::config::CommitConfig;
use crate::messages::{COMMIT, FREE, MESSAGE_NAMES, NOT_FREE, UPDATE, VOTE};

/// Builds the 9-state commit EFSM.
///
/// The machine is parameterised by `r` (replication factor), `tv` (vote
/// threshold) and `tc` (external commit threshold); bind them for a
/// concrete configuration with [`commit_efsm_params`].
pub fn commit_efsm() -> Efsm {
    let mut b = EfsmBuilder::new("commit-efsm", MESSAGE_NAMES);
    let r = b.add_param("r");
    let tv = b.add_param("vote_threshold");
    let tc = b.add_param("commit_threshold");
    let v = b.add_var("votes_received");
    let c = b.add_var("commits_received");

    let idle_free = b.add_state_annotated(
        "idle-free",
        vec!["No update or vote yet; the node is free to choose.".into()],
    );
    let idle_blocked = b.add_state_annotated(
        "idle-blocked",
        vec!["No update yet; another update is in progress on this node.".into()],
    );
    let update_blocked = b.add_state_annotated(
        "update-blocked",
        vec!["Update received, but another update is in progress on this node.".into()],
    );
    let voted_chosen = b.add_state_annotated(
        "voted-chosen",
        vec!["Voted for this update by choice; vote threshold not yet reached.".into()],
    );
    let committed_chosen = b.add_state_annotated(
        "committed-chosen",
        vec!["Voted by choice and sent commit; awaiting external commits.".into()],
    );
    let forced_voted = b.add_state_annotated(
        "forced-voted",
        vec![
            "Forced to vote by the threshold without seeing the update request or being free."
                .into(),
        ],
    );
    let forced_chosen = b.add_state_annotated(
        "forced-chosen",
        vec!["Forced to vote by the threshold while free, thereby choosing this update.".into()],
    );
    let committed_blocked = b.add_state_annotated(
        "committed-blocked",
        vec!["Update received and commit sent, but chosen by other peers, not this node.".into()],
    );
    let finished = b.add_state_annotated(
        "finished",
        vec!["External commit threshold reached; the update is globally agreed.".into()],
    );

    // Guard fragments. `total votes after receipt` is v+1 when this node
    // has not voted (its own vote is not counted) and v+2 when it has.
    let below_tv_recv_unvoted =
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Lt, LinExpr::param(tv));
    let at_tv_recv_unvoted =
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Ge, LinExpr::param(tv)).and(
            LinExpr::var(v).plus_const(1),
            CmpOp::Le,
            LinExpr::param(r).plus_const(-1),
        );
    let below_tv_recv_voted =
        Guard::when(LinExpr::var(v).plus_const(2), CmpOp::Lt, LinExpr::param(tv));
    let at_tv_recv_voted =
        Guard::when(LinExpr::var(v).plus_const(2), CmpOp::Ge, LinExpr::param(tv)).and(
            LinExpr::var(v).plus_const(1),
            CmpOp::Le,
            LinExpr::param(r).plus_const(-1),
        );
    let vote_in_bounds = Guard::when(
        LinExpr::var(v).plus_const(1),
        CmpOp::Le,
        LinExpr::param(r).plus_const(-1),
    );
    let below_tc = Guard::when(LinExpr::var(c).plus_const(1), CmpOp::Lt, LinExpr::param(tc));
    let at_tc = Guard::when(LinExpr::var(c).plus_const(1), CmpOp::Ge, LinExpr::param(tc));
    // `update` handler: vote threshold check with this node's vote counted
    // (it votes as part of the handler, so total = v + 1).
    let below_tv_after_voting =
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Lt, LinExpr::param(tv));
    let at_tv_after_voting =
        Guard::when(LinExpr::var(v).plus_const(1), CmpOp::Ge, LinExpr::param(tv));

    let inc_v = vec![Update::Inc(v)];
    let inc_c = vec![Update::Inc(c)];

    // ---- idle-free (F,F,F,T,F) ------------------------------------------
    b.add_transition(
        idle_free,
        UPDATE,
        below_tv_after_voting.clone(),
        vec![],
        vec![Action::send(VOTE), Action::send(NOT_FREE)],
        voted_chosen,
    );
    b.add_transition(
        idle_free,
        UPDATE,
        at_tv_after_voting.clone(),
        vec![],
        vec![
            Action::send(VOTE),
            Action::send(COMMIT),
            Action::send(NOT_FREE),
        ],
        committed_chosen,
    );
    b.add_transition(
        idle_free,
        VOTE,
        below_tv_recv_unvoted.clone(),
        inc_v.clone(),
        vec![],
        idle_free,
    );
    b.add_transition(
        idle_free,
        VOTE,
        at_tv_recv_unvoted.clone(),
        inc_v.clone(),
        vec![
            Action::send(NOT_FREE),
            Action::send(VOTE),
            Action::send(COMMIT),
        ],
        forced_chosen,
    );
    b.add_transition(
        idle_free,
        COMMIT,
        below_tc.clone(),
        inc_c.clone(),
        vec![],
        idle_free,
    );
    b.add_transition(
        idle_free,
        COMMIT,
        at_tc.clone(),
        inc_c.clone(),
        vec![Action::send(VOTE), Action::send(COMMIT)],
        finished,
    );
    b.add_transition(
        idle_free,
        NOT_FREE,
        Guard::always(),
        vec![],
        vec![],
        idle_blocked,
    );

    // ---- idle-blocked (F,F,F,F,F) ----------------------------------------
    b.add_transition(
        idle_blocked,
        UPDATE,
        Guard::always(),
        vec![],
        vec![],
        update_blocked,
    );
    b.add_transition(
        idle_blocked,
        VOTE,
        below_tv_recv_unvoted.clone(),
        inc_v.clone(),
        vec![],
        idle_blocked,
    );
    b.add_transition(
        idle_blocked,
        VOTE,
        at_tv_recv_unvoted.clone(),
        inc_v.clone(),
        vec![Action::send(VOTE), Action::send(COMMIT)],
        forced_voted,
    );
    b.add_transition(
        idle_blocked,
        COMMIT,
        below_tc.clone(),
        inc_c.clone(),
        vec![],
        idle_blocked,
    );
    b.add_transition(
        idle_blocked,
        COMMIT,
        at_tc.clone(),
        inc_c.clone(),
        vec![Action::send(VOTE), Action::send(COMMIT)],
        finished,
    );
    b.add_transition(
        idle_blocked,
        FREE,
        Guard::always(),
        vec![],
        vec![],
        idle_free,
    );

    // ---- update-blocked (T,F,F,F,F) ---------------------------------------
    b.add_transition(
        update_blocked,
        VOTE,
        below_tv_recv_unvoted.clone(),
        inc_v.clone(),
        vec![],
        update_blocked,
    );
    b.add_transition(
        update_blocked,
        VOTE,
        at_tv_recv_unvoted,
        inc_v.clone(),
        vec![Action::send(VOTE), Action::send(COMMIT)],
        committed_blocked,
    );
    b.add_transition(
        update_blocked,
        COMMIT,
        below_tc.clone(),
        inc_c.clone(),
        vec![],
        update_blocked,
    );
    b.add_transition(
        update_blocked,
        COMMIT,
        at_tc.clone(),
        inc_c.clone(),
        vec![Action::send(VOTE), Action::send(COMMIT)],
        finished,
    );
    // Paper Fig 14's FREE transition: set could_choose, then vote for the
    // pending update (possibly crossing the commit threshold too).
    b.add_transition(
        update_blocked,
        FREE,
        below_tv_after_voting,
        vec![],
        vec![Action::send(VOTE), Action::send(NOT_FREE)],
        voted_chosen,
    );
    b.add_transition(
        update_blocked,
        FREE,
        at_tv_after_voting,
        vec![],
        vec![
            Action::send(VOTE),
            Action::send(COMMIT),
            Action::send(NOT_FREE),
        ],
        committed_chosen,
    );

    // ---- voted-chosen (T,T,F,T,T) ------------------------------------------
    b.add_transition(
        voted_chosen,
        VOTE,
        below_tv_recv_voted,
        inc_v.clone(),
        vec![],
        voted_chosen,
    );
    b.add_transition(
        voted_chosen,
        VOTE,
        at_tv_recv_voted,
        inc_v.clone(),
        vec![Action::send(COMMIT)],
        committed_chosen,
    );
    b.add_transition(
        voted_chosen,
        COMMIT,
        below_tc.clone(),
        inc_c.clone(),
        vec![],
        voted_chosen,
    );
    b.add_transition(
        voted_chosen,
        COMMIT,
        at_tc.clone(),
        inc_c.clone(),
        vec![Action::send(COMMIT), Action::send(FREE)],
        finished,
    );

    // ---- committed-chosen (T,T,T,T,T) ---------------------------------------
    b.add_transition(
        committed_chosen,
        VOTE,
        vote_in_bounds.clone(),
        inc_v.clone(),
        vec![],
        committed_chosen,
    );
    b.add_transition(
        committed_chosen,
        COMMIT,
        below_tc.clone(),
        inc_c.clone(),
        vec![],
        committed_chosen,
    );
    b.add_transition(
        committed_chosen,
        COMMIT,
        at_tc.clone(),
        inc_c.clone(),
        vec![Action::send(FREE)],
        finished,
    );

    // ---- forced-voted (F,T,T,F,F) --------------------------------------------
    b.add_transition(
        forced_voted,
        UPDATE,
        Guard::always(),
        vec![],
        vec![],
        committed_blocked,
    );
    b.add_transition(
        forced_voted,
        VOTE,
        vote_in_bounds.clone(),
        inc_v.clone(),
        vec![],
        forced_voted,
    );
    b.add_transition(
        forced_voted,
        COMMIT,
        below_tc.clone(),
        inc_c.clone(),
        vec![],
        forced_voted,
    );
    b.add_transition(
        forced_voted,
        COMMIT,
        at_tc.clone(),
        inc_c.clone(),
        vec![],
        finished,
    );

    // ---- forced-chosen (F,T,T,T,T) ---------------------------------------------
    b.add_transition(
        forced_chosen,
        UPDATE,
        Guard::always(),
        vec![],
        vec![],
        committed_chosen,
    );
    b.add_transition(
        forced_chosen,
        VOTE,
        vote_in_bounds.clone(),
        inc_v.clone(),
        vec![],
        forced_chosen,
    );
    b.add_transition(
        forced_chosen,
        COMMIT,
        below_tc.clone(),
        inc_c.clone(),
        vec![],
        forced_chosen,
    );
    b.add_transition(
        forced_chosen,
        COMMIT,
        at_tc.clone(),
        inc_c.clone(),
        vec![Action::send(FREE)],
        finished,
    );

    // ---- committed-blocked (T,T,T,F,F) -------------------------------------------
    b.add_transition(
        committed_blocked,
        VOTE,
        vote_in_bounds,
        inc_v,
        vec![],
        committed_blocked,
    );
    b.add_transition(
        committed_blocked,
        COMMIT,
        below_tc,
        inc_c.clone(),
        vec![],
        committed_blocked,
    );
    b.add_transition(committed_blocked, COMMIT, at_tc, inc_c, vec![], finished);

    b.build(idle_free, Some(finished))
}

/// The parameter vector binding [`commit_efsm`] to a concrete
/// configuration, in the EFSM's declaration order (`r`,
/// `vote_threshold`, `commit_threshold`).
///
/// Use this everywhere an instance or pool is created — the order is
/// load-bearing, so it must be built in exactly one place.
pub fn commit_efsm_params(config: &CommitConfig) -> Vec<i64> {
    vec![
        i64::from(config.replication_factor()),
        i64::from(config.vote_threshold()),
        i64::from(config.commit_threshold()),
    ]
}

/// The `(has_chosen, commit_sent)` protocol flags of a [`commit_efsm`]
/// state, resolved by name — the EFSM-tier analogue of inspecting a
/// generated FSM state's `StateVector` (see the state-inventory table in
/// the module docs: `has_chosen` is column `H`, `commit_sent` column
/// `K`). Deployment code (e.g. `asa-storage`'s peers) indexes these into
/// per-state bitmaps once at compile time, so the per-delivery path
/// never inspects names.
///
/// # Panics
///
/// Panics if `name` is not a [`commit_efsm`] state.
pub fn commit_efsm_state_flags(name: &str) -> (bool, bool) {
    match name {
        "idle-free" | "idle-blocked" | "update-blocked" => (false, false),
        "voted-chosen" => (true, false),
        "committed-chosen" | "forced-chosen" => (true, true),
        "forced-voted" | "committed-blocked" => (false, true),
        // The finished state absorbs everything; no unfinished-attempt
        // logic ever reads its flags.
        "finished" => (false, false),
        other => panic!("`{other}` is not a commit EFSM state"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_analysis::{analyze_bound, AnalysisConfig};
    use stategen_core::{FlatIr, Lint, ProtocolEngine};

    #[test]
    fn has_nine_states() {
        // Paper §5.3: "The resulting EFSM contains 9 states."
        assert_eq!(commit_efsm().state_count(), 9);
    }

    #[test]
    fn state_flags_cover_every_state() {
        // `commit_efsm_state_flags` is a name-keyed mirror of the
        // state-inventory table; adding or renaming a state must update
        // it, and this test turns a desync into an immediate failure
        // instead of a deployment-time panic. Spot-check the H/K
        // columns against the table in the module docs.
        for state in commit_efsm().states() {
            let _ = commit_efsm_state_flags(state.name()); // must not panic
        }
        assert_eq!(commit_efsm_state_flags("idle-free"), (false, false));
        assert_eq!(commit_efsm_state_flags("voted-chosen"), (true, false));
        assert_eq!(commit_efsm_state_flags("committed-chosen"), (true, true));
        assert_eq!(commit_efsm_state_flags("forced-voted"), (false, true));
        assert_eq!(commit_efsm_state_flags("forced-chosen"), (true, true));
        assert_eq!(commit_efsm_state_flags("committed-blocked"), (false, true));
    }

    #[test]
    fn generic_in_replication_factor() {
        // One EFSM serves every family member (paper §5.3): its state
        // count does not depend on r.
        let efsm = commit_efsm();
        for r in [4u32, 7, 13, 25, 46] {
            let config = CommitConfig::new(r).unwrap();
            let ir = FlatIr::from_efsm(&efsm);
            let mut i = ir.instance(commit_efsm_params(&config));
            i.deliver("update").unwrap();
            assert_eq!(i.state_name(), "voted-chosen");
        }
    }

    /// Table 1's determinism claim: at every family member, no two
    /// guards on one `(state, message)` can hold at once.
    #[test]
    fn deterministic_guards() {
        let ir = FlatIr::from_efsm(&commit_efsm());
        for r in [4u32, 7, 13, 25, 46] {
            let params = commit_efsm_params(&CommitConfig::new(r).unwrap());
            let mut config = AnalysisConfig::new();
            config.var_bound = i64::from(r);
            let analysis = analyze_bound(&ir, &params, &config);
            assert!(
                !analysis.has(Lint::OverlappingGuards),
                "r={r}: {:?}",
                analysis.diagnostics
            );
        }
    }

    #[test]
    fn fig14_free_transition_shape() {
        let efsm = commit_efsm();
        let config = CommitConfig::new(4).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        let mut i = ir.instance(commit_efsm_params(&config));
        i.deliver("not_free").unwrap();
        i.deliver("update").unwrap();
        i.deliver("vote").unwrap();
        i.deliver("vote").unwrap();
        assert_eq!(i.state_name(), "update-blocked");
        assert_eq!(i.vars(), &[2, 0]);
        let actions = i.deliver("free").unwrap();
        assert_eq!(
            actions,
            vec![
                Action::send("vote"),
                Action::send("commit"),
                Action::send("not_free")
            ]
        );
        assert_eq!(i.state_name(), "committed-chosen");
    }

    #[test]
    fn commit_quorum_finishes_with_free() {
        let efsm = commit_efsm();
        let config = CommitConfig::new(4).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        let mut i = ir.instance(commit_efsm_params(&config));
        i.deliver("update").unwrap();
        i.deliver("commit").unwrap();
        let actions = i.deliver("commit").unwrap();
        // Voted by choice but below the vote threshold; the external
        // commits still finish the instance: commit pile-on + free.
        assert_eq!(actions, vec![Action::send("commit"), Action::send("free")]);
        assert!(i.is_finished());
    }

    #[test]
    fn forced_vote_without_choice() {
        let efsm = commit_efsm();
        let config = CommitConfig::new(4).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        let mut i = ir.instance(commit_efsm_params(&config));
        i.deliver("not_free").unwrap();
        i.deliver("vote").unwrap();
        i.deliver("vote").unwrap();
        let actions = i.deliver("vote").unwrap();
        assert_eq!(actions, vec![Action::send("vote"), Action::send("commit")]);
        assert_eq!(i.state_name(), "forced-voted");
    }

    #[test]
    fn vote_bound_enforced() {
        let efsm = commit_efsm();
        let config = CommitConfig::new(4).unwrap();
        let ir = FlatIr::from_efsm(&efsm);
        let mut i = ir.instance(commit_efsm_params(&config));
        i.deliver("update").unwrap(); // S=T; votes counted to r-1=3
        for _ in 0..3 {
            i.deliver("vote").unwrap();
        }
        assert_eq!(i.vars()[0], 3);
        // Fourth received vote exceeds r-1: ignored.
        assert!(i.deliver("vote").unwrap().is_empty());
        assert_eq!(i.vars()[0], 3);
    }
}
