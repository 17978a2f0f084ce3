//! The abstract model of the BFT commit protocol (paper §3.4, Figs 9/10).
//!
//! This is the generation-time encoding of the protocol's core logic: for
//! each state and message, [`CommitModel::transition`] elaborates the full
//! consequences of receiving that message — count increments, threshold
//! checks (*phase transitions*) and the outgoing messages they trigger —
//! exactly as the paper's `generateTransitionOnVote()` does, with the
//! control decisions of the generic algorithm taken at generation time.
//!
//! ## Reconstruction notes
//!
//! The paper's Fig 9 pseudo-code contains three apparent typos that its
//! own Java excerpt (Fig 10) and generated artefact (Fig 14) contradict;
//! we follow the latter (see `docs/STORAGE.md`): the `update` handler's guard
//! requires `!vote_sent`; commits are sent only when `!commit_sent`; and
//! `could_choose` is modified **only** by `free`/`not_free` messages —
//! Fig 14's `FREE` transition `T/2/F/0/F/F/F → T/2/T/0/T/T/T` shows
//! `could_choose` still true after the node votes for its own update.

use stategen_core::{AbstractModel, Action, Outcome, StateSpace, StateVector, TransitionSpec};

use crate::config::CommitConfig;
use crate::messages::{self, CommitMessage};
use crate::vars::{
    commit_state_space, CommitStateExt, COMMITS_RECEIVED, COMMIT_SENT, COULD_CHOOSE, HAS_CHOSEN,
    UPDATE_RECEIVED, VOTES_RECEIVED, VOTE_SENT,
};

/// Abstract model of the ASA commit protocol, parameterised by the
/// replication factor. Executing it with
/// [`generate`](stategen_core::generate) yields the family member for that
/// factor.
///
/// # Examples
///
/// ```
/// use stategen_commit::{CommitConfig, CommitModel};
/// use stategen_core::generate;
///
/// let model = CommitModel::new(CommitConfig::new(4)?);
/// let generated = generate(&model)?;
/// // Paper §3.4: 512 possible states, 33 after pruning and merging.
/// assert_eq!(generated.report.initial_states, 512);
/// assert_eq!(generated.report.final_states, 33);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CommitModel {
    config: CommitConfig,
}

impl CommitModel {
    /// Creates the model for the given configuration.
    pub fn new(config: CommitConfig) -> Self {
        CommitModel { config }
    }

    /// The model's configuration.
    pub fn config(&self) -> &CommitConfig {
        &self.config
    }

    fn on_update(&self, state: &StateVector) -> Outcome {
        if state.update_received() {
            // A second update request for the same instance is not
            // applicable (the paper's InvalidStateException path).
            return Outcome::Ignored;
        }
        let mut e = Elaboration::new(self.config, state.clone());
        e.set_update_received();
        if e.state.could_choose() && !e.state.has_chosen() && !e.state.vote_sent() {
            e.send_vote();
            if e.vote_threshold_reached() && !e.state.commit_sent() {
                e.send_commit();
            }
            e.set_has_chosen();
            e.send_not_free();
        }
        e.into_transition()
    }

    fn on_vote(&self, state: &StateVector) -> Outcome {
        if state.votes_received() == self.config.replication_factor() - 1 {
            // Each of the r-1 peers votes at most once.
            return Outcome::Ignored;
        }
        let mut e = Elaboration::new(self.config, state.clone());
        e.receive_vote();
        if e.vote_threshold_reached() {
            // Phase transition: vote threshold reached (paper Fig 10).
            if !e.state.vote_sent() {
                if e.state.could_choose() {
                    e.set_has_chosen();
                    e.send_not_free();
                }
                e.send_vote();
            }
            if !e.state.commit_sent() {
                e.send_commit();
            }
        }
        e.into_transition()
    }

    fn on_commit(&self, state: &StateVector) -> Outcome {
        if state.commits_received() == self.config.replication_factor() - 1 {
            return Outcome::Ignored;
        }
        let mut e = Elaboration::new(self.config, state.clone());
        e.receive_commit();
        if e.state.commits_received() >= self.config.commit_threshold() {
            // Phase transition: enough commits received that at least one
            // non-faulty peer has committed; the update is globally agreed.
            // The target state satisfies `is_final_state`, so the instance
            // processes no further messages (paper: "finished").
            if !e.state.vote_sent() {
                e.send_vote();
            }
            if !e.state.commit_sent() {
                e.send_commit();
            }
            if e.state.has_chosen() {
                e.send_free();
            }
            e.note_finished();
        }
        e.into_transition()
    }

    fn on_free(&self, state: &StateVector) -> Outcome {
        if state.vote_sent() || state.has_chosen() {
            // Freedom to choose is only relevant before this instance has
            // voted or chosen.
            return Outcome::Ignored;
        }
        let mut e = Elaboration::new(self.config, state.clone());
        e.set_could_choose();
        if e.state.update_received() {
            e.send_vote();
            if e.vote_threshold_reached() && !e.state.commit_sent() {
                e.send_commit();
            }
            e.set_has_chosen();
            e.send_not_free();
        }
        e.into_transition()
    }

    fn on_not_free(&self, state: &StateVector) -> Outcome {
        if state.vote_sent() || state.has_chosen() {
            return Outcome::Ignored;
        }
        let mut e = Elaboration::new(self.config, state.clone());
        e.unset_could_choose();
        e.into_transition()
    }
}

impl AbstractModel for CommitModel {
    fn machine_name(&self) -> String {
        format!("commit@r={}", self.config.replication_factor())
    }

    fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
        commit_state_space(&self.config)
    }

    fn messages(&self) -> Vec<String> {
        messages::MESSAGE_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn start_state(&self) -> StateVector {
        // A fresh instance: nothing received or sent; the node is free to
        // choose until told otherwise by a `not_free` from a sibling
        // instance.
        let space = self.state_space().expect("commit schema is valid");
        let mut v = space.zero_vector();
        v.set_flag(COULD_CHOOSE, true);
        v
    }

    fn transition(&self, state: &StateVector, message: &str) -> Outcome {
        match message.parse::<CommitMessage>() {
            Ok(CommitMessage::Update) => self.on_update(state),
            Ok(CommitMessage::Vote) => self.on_vote(state),
            Ok(CommitMessage::Commit) => self.on_commit(state),
            Ok(CommitMessage::Free) => self.on_free(state),
            Ok(CommitMessage::NotFree) => self.on_not_free(state),
            Err(_) => Outcome::Ignored,
        }
    }

    fn is_final_state(&self, state: &StateVector) -> bool {
        // Paper §3.4: "the commit algorithm completes as soon as f+1 commit
        // messages have been received".
        state.commits_received() >= self.config.commit_threshold()
    }

    fn describe_state(&self, state: &StateVector) -> Vec<String> {
        describe(self.config, state)
    }
}

/// Accumulates the consequences of receiving one message: successive state
/// changes, the actions they trigger, and a documentation note per change
/// (the paper's footnote 3: "each successive assignment to the state
/// variable s1 is accompanied by ... a textual annotation").
struct Elaboration {
    config: CommitConfig,
    state: StateVector,
    actions: Vec<Action>,
    notes: Vec<String>,
}

impl Elaboration {
    fn new(config: CommitConfig, state: StateVector) -> Self {
        Elaboration {
            config,
            state,
            actions: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn vote_threshold_reached(&self) -> bool {
        self.state.total_votes() >= self.config.vote_threshold()
    }

    fn set_update_received(&mut self) {
        self.state.set_flag(UPDATE_RECEIVED, true);
        self.notes
            .push("Record receipt of the initial update request from the client.".into());
    }

    fn receive_vote(&mut self) {
        self.state
            .set(VOTES_RECEIVED, self.state.votes_received() + 1);
        self.notes
            .push("Record receipt of a vote from another peer.".into());
    }

    fn receive_commit(&mut self) {
        self.state
            .set(COMMITS_RECEIVED, self.state.commits_received() + 1);
        self.notes
            .push("Record receipt of a commit from another peer.".into());
    }

    fn send_vote(&mut self) {
        self.state.set_flag(VOTE_SENT, true);
        self.actions.push(Action::send(messages::VOTE));
        self.notes
            .push("Send a vote for this update to all other peers.".into());
    }

    fn send_commit(&mut self) {
        self.state.set_flag(COMMIT_SENT, true);
        self.actions.push(Action::send(messages::COMMIT));
        self.notes.push(format!(
            "Send a commit to all other peers: the vote threshold ({}) or the external commit threshold ({}) has been reached.",
            self.config.vote_threshold(),
            self.config.commit_threshold()
        ));
    }

    fn set_has_chosen(&mut self) {
        self.state.set_flag(HAS_CHOSEN, true);
        self.notes
            .push("Choose this update as the node's current candidate.".into());
    }

    fn set_could_choose(&mut self) {
        self.state.set_flag(COULD_CHOOSE, true);
        self.notes
            .push("The node's previously chosen update completed; free to choose again.".into());
    }

    fn unset_could_choose(&mut self) {
        self.state.set_flag(COULD_CHOOSE, false);
        self.notes
            .push("Another update is in progress on this node; may not choose.".into());
    }

    fn send_not_free(&mut self) {
        self.actions.push(Action::send(messages::NOT_FREE));
        self.notes
            .push("Inform sibling instances on this node that it is no longer free.".into());
    }

    fn send_free(&mut self) {
        self.actions.push(Action::send(messages::FREE));
        self.notes
            .push("Inform sibling instances on this node that it is free again.".into());
    }

    fn note_finished(&mut self) {
        self.notes.push(format!(
            "External commit threshold ({}) reached: the update is globally agreed; finish.",
            self.config.commit_threshold()
        ));
    }

    fn into_transition(self) -> Outcome {
        Outcome::Transition(TransitionSpec {
            target: self.state,
            actions: self.actions,
            annotations: self.notes,
        })
    }
}

/// Counts a noun: `no votes`, `1 vote`, `2 votes`.
fn count_phrase(n: u32, noun: &str) -> String {
    match n {
        0 => format!("no {noun}s"),
        1 => format!("1 {noun}"),
        n => format!("{n} {noun}s"),
    }
}

/// Generates the per-state commentary of paper Fig 14.
fn describe(config: CommitConfig, state: &StateVector) -> Vec<String> {
    let tv = config.vote_threshold();
    let tc = config.commit_threshold();
    let mut lines = Vec::new();

    if state.commits_received() >= tc {
        lines.push(format!(
            "This update has been committed (external commit threshold ({tc}) reached); the instance has completed."
        ));
    }

    lines.push(if state.update_received() {
        "Have received initial update from client.".to_string()
    } else {
        "Have not yet received an update request from a client.".to_string()
    });

    if state.vote_sent() {
        lines.push("Have voted for this update.".to_string());
    } else if !state.could_choose() {
        lines.push("Have not voted since another update has already been voted for.".to_string());
    } else {
        lines.push("Have not voted since no update request has been received.".to_string());
    }

    lines.push(format!(
        "Have received {} and {}.",
        count_phrase(state.votes_received(), "vote"),
        count_phrase(state.commits_received(), "commit")
    ));

    if state.commit_sent() {
        if state.total_votes() >= tv {
            lines.push(format!(
                "Have sent a commit since the vote threshold ({tv}) has been reached."
            ));
        } else {
            lines.push(format!(
                "Have sent a commit since the external commit threshold ({tc}) has been reached."
            ));
        }
    } else {
        lines.push(format!(
            "Have not sent a commit since neither the vote threshold ({tv}) nor the external commit threshold ({tc}) has been reached."
        ));
    }

    if state.could_choose() {
        lines.push("May choose since no other ongoing update has been voted for.".to_string());
    } else {
        lines.push("May not choose since another ongoing update has been voted for.".to_string());
    }

    if state.has_chosen() {
        lines.push("Have chosen this update.".to_string());
    } else if !state.could_choose() {
        lines.push(
            "Have not chosen this update since another ongoing update has been chosen.".to_string(),
        );
    } else {
        lines.push(
            "Have not chosen this update since no update request has been received.".to_string(),
        );
    }

    if !state.commit_sent() {
        let votes_needed = tv.saturating_sub(state.total_votes());
        lines.push(format!(
            "Waiting for {} further vote{} (including local vote if any) before sending commit.",
            votes_needed,
            if votes_needed == 1 { "" } else { "s" }
        ));
    }
    if state.commits_received() < tc {
        let commits_needed = tc - state.commits_received();
        lines.push(format!(
            "Waiting for {} further external commit{} to finish.",
            commits_needed,
            if commits_needed == 1 { "" } else { "s" }
        ));
    }

    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_core::Outcome;

    fn model_r4() -> CommitModel {
        CommitModel::new(CommitConfig::new(4).expect("valid config"))
    }

    fn state(model: &CommitModel, name: &str) -> StateVector {
        model.state_space().unwrap().parse_name(name).unwrap()
    }

    fn name(model: &CommitModel, v: &StateVector) -> String {
        model.state_space().unwrap().name_of(v)
    }

    /// Paper Fig 14: state T/2/F/0/F/F/F, message VOTE →
    /// actions [->vote, ->commit], target T/3/T/0/T/F/F.
    #[test]
    fn fig14_vote_transition() {
        let m = model_r4();
        let s = state(&m, "T/2/F/0/F/F/F");
        match m.transition(&s, "vote") {
            Outcome::Transition(spec) => {
                assert_eq!(
                    spec.actions,
                    vec![Action::send("vote"), Action::send("commit")]
                );
                assert_eq!(name(&m, &spec.target), "T/3/T/0/T/F/F");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// Paper Fig 14: state T/2/F/0/F/F/F, message COMMIT →
    /// no actions, target T/2/F/1/F/F/F.
    #[test]
    fn fig14_commit_transition() {
        let m = model_r4();
        let s = state(&m, "T/2/F/0/F/F/F");
        match m.transition(&s, "commit") {
            Outcome::Transition(spec) => {
                assert!(spec.actions.is_empty());
                assert_eq!(name(&m, &spec.target), "T/2/F/1/F/F/F");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// Paper Fig 14: state T/2/F/0/F/F/F, message FREE →
    /// actions [->vote, ->commit, ->not free], target T/2/T/0/T/T/T.
    /// This transition is the evidence that voting for one's own update
    /// does *not* clear could_choose (see module docs).
    #[test]
    fn fig14_free_transition() {
        let m = model_r4();
        let s = state(&m, "T/2/F/0/F/F/F");
        match m.transition(&s, "free") {
            Outcome::Transition(spec) => {
                assert_eq!(
                    spec.actions,
                    vec![
                        Action::send("vote"),
                        Action::send("commit"),
                        Action::send("not_free")
                    ]
                );
                assert_eq!(name(&m, &spec.target), "T/2/T/0/T/T/T");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// Fig 14 lists no UPDATE transition for T/2/F/0/F/F/F: the update was
    /// already received, so the message is not applicable.
    #[test]
    fn fig14_update_not_applicable() {
        let m = model_r4();
        let s = state(&m, "T/2/F/0/F/F/F");
        assert_eq!(m.transition(&s, "update"), Outcome::Ignored);
    }

    /// Fig 14 lists no NOT_FREE transition: could_choose is already false,
    /// so the message changes nothing (the engine drops the self-loop).
    #[test]
    fn fig14_not_free_is_noop() {
        let m = model_r4();
        let s = state(&m, "T/2/F/0/F/F/F");
        match m.transition(&s, "not_free") {
            Outcome::Transition(spec) => {
                assert_eq!(spec.target, s);
                assert!(spec.actions.is_empty());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// Paper Fig 16: `case (T-1-T-1-F-T-T): sendCommit(); setState(T-2-T-1-T-T-T)`.
    #[test]
    fn fig16_vote_branch() {
        let m = model_r4();
        let s = state(&m, "T/1/T/1/F/T/T");
        match m.transition(&s, "vote") {
            Outcome::Transition(spec) => {
                assert_eq!(spec.actions, vec![Action::send("commit")]);
                assert_eq!(name(&m, &spec.target), "T/2/T/1/T/T/T");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// Fig 16 first branch: F-0-F-0-F-F-F on vote → F-1-F-0-F-F-F.
    #[test]
    fn fig16_simple_vote_increment() {
        let m = model_r4();
        let s = state(&m, "F/0/F/0/F/F/F");
        match m.transition(&s, "vote") {
            Outcome::Transition(spec) => {
                assert!(spec.actions.is_empty());
                assert_eq!(name(&m, &spec.target), "F/1/F/0/F/F/F");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn update_when_free_votes_and_chooses() {
        let m = model_r4();
        let s = state(&m, "F/0/F/0/F/T/F");
        match m.transition(&s, "update") {
            Outcome::Transition(spec) => {
                assert_eq!(
                    spec.actions,
                    vec![Action::send("vote"), Action::send("not_free")]
                );
                assert_eq!(name(&m, &spec.target), "T/0/T/0/F/T/T");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn commit_threshold_finishes_with_free_when_chosen() {
        let m = model_r4();
        // Voted, chosen, one commit received; the second commit completes
        // the instance and releases the node's choice lock.
        let s = state(&m, "T/2/T/1/T/T/T");
        match m.transition(&s, "commit") {
            Outcome::Transition(spec) => {
                assert_eq!(spec.actions, vec![Action::send("free")]);
                assert_eq!(name(&m, &spec.target), "T/2/T/2/T/T/T");
                assert!(m.is_final_state(&spec.target));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn commit_threshold_finish_piles_on_when_silent() {
        let m = model_r4();
        // Never voted nor committed; the commit threshold forces both.
        let s = state(&m, "F/0/F/1/F/F/F");
        match m.transition(&s, "commit") {
            Outcome::Transition(spec) => {
                assert_eq!(
                    spec.actions,
                    vec![Action::send("vote"), Action::send("commit")]
                );
                assert_eq!(name(&m, &spec.target), "F/0/T/2/T/F/F");
                assert!(m.is_final_state(&spec.target));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn final_states_are_commit_threshold_states() {
        let m = model_r4();
        assert!(!m.is_final_state(&state(&m, "T/2/T/1/T/T/T")));
        assert!(m.is_final_state(&state(&m, "T/2/T/2/T/T/T")));
        assert!(m.is_final_state(&state(&m, "F/0/F/3/F/F/F")));
    }

    #[test]
    fn vote_at_max_ignored() {
        let m = model_r4();
        let s = state(&m, "F/3/F/0/F/F/F");
        assert_eq!(m.transition(&s, "vote"), Outcome::Ignored);
    }

    #[test]
    fn commit_at_max_ignored() {
        let m = model_r4();
        let s = state(&m, "F/0/F/3/F/F/F");
        assert_eq!(m.transition(&s, "commit"), Outcome::Ignored);
    }

    #[test]
    fn free_ignored_after_voting() {
        let m = model_r4();
        let s = state(&m, "T/0/T/0/F/T/T");
        assert_eq!(m.transition(&s, "free"), Outcome::Ignored);
        assert_eq!(m.transition(&s, "not_free"), Outcome::Ignored);
    }

    #[test]
    fn start_state_is_free_and_empty() {
        let m = model_r4();
        assert_eq!(name(&m, &m.start_state()), "F/0/F/0/F/T/F");
    }

    /// Fig 14's commentary for T/2/F/0/F/F/F, reproduced line by line.
    #[test]
    fn fig14_state_description() {
        let m = model_r4();
        let s = state(&m, "T/2/F/0/F/F/F");
        let lines = m.describe_state(&s);
        assert_eq!(
            lines,
            vec![
                "Have received initial update from client.",
                "Have not voted since another update has already been voted for.",
                "Have received 2 votes and no commits.",
                "Have not sent a commit since neither the vote threshold (3) nor the external commit threshold (2) has been reached.",
                "May not choose since another ongoing update has been voted for.",
                "Have not chosen this update since another ongoing update has been chosen.",
                "Waiting for 1 further vote (including local vote if any) before sending commit.",
                "Waiting for 2 further external commits to finish.",
            ]
        );
    }

    #[test]
    fn transitions_carry_annotations() {
        let m = model_r4();
        let s = state(&m, "T/2/F/0/F/F/F");
        match m.transition(&s, "vote") {
            Outcome::Transition(spec) => {
                assert!(!spec.annotations.is_empty());
                assert!(spec.annotations.iter().any(|n| n.contains("vote")));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
