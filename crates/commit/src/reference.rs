//! The hand-written generic commit algorithm.
//!
//! Paper §3.2 describes a spectrum of state machines: at one extreme the
//! *original algorithm*, with (effectively) a single state and many
//! variables, whose control decisions are taken dynamically; at the other
//! the generated FSM, with many states and no variables. This module is
//! the former: a direct runtime implementation of the Fig 9 pseudo-code,
//! used as the behavioural baseline for the generated machines (every
//! implementation must produce identical action traces) and for the §4.4
//! execution-cost comparison.

use stategen_core::{Action, InterpError, ProtocolEngine};

use crate::config::CommitConfig;
use crate::messages::{self, CommitMessage};

/// Runtime state of the hand-written algorithm: the seven variables of
/// paper §3.1, held as ordinary fields.
#[derive(Debug, Clone)]
pub struct ReferenceCommit {
    config: CommitConfig,
    update_received: bool,
    votes_received: u32,
    vote_sent: bool,
    commits_received: u32,
    commit_sent: bool,
    could_choose: bool,
    has_chosen: bool,
    /// Action buffer reused across deliveries so the
    /// [`ProtocolEngine::deliver_ref`] path does not allocate a fresh
    /// vector per message.
    scratch: Vec<Action>,
}

impl ReferenceCommit {
    /// Creates a fresh instance (nothing received or sent, free to choose).
    pub fn new(config: CommitConfig) -> Self {
        ReferenceCommit {
            config,
            update_received: false,
            votes_received: 0,
            vote_sent: false,
            commits_received: 0,
            commit_sent: false,
            could_choose: true,
            has_chosen: false,
            scratch: Vec::new(),
        }
    }

    /// The configuration this instance runs under.
    pub fn config(&self) -> &CommitConfig {
        &self.config
    }

    /// Votes received so far.
    pub fn votes_received(&self) -> u32 {
        self.votes_received
    }

    /// Commits received so far.
    pub fn commits_received(&self) -> u32 {
        self.commits_received
    }

    /// Whether this instance has voted.
    pub fn vote_sent(&self) -> bool {
        self.vote_sent
    }

    /// Whether this instance chose its update.
    pub fn has_chosen(&self) -> bool {
        self.has_chosen
    }

    fn total_votes(&self) -> u32 {
        self.votes_received + u32::from(self.vote_sent)
    }

    fn vote_threshold_reached(&self) -> bool {
        self.total_votes() >= self.config.vote_threshold()
    }

    /// Casts this node's vote, and the commit the threshold may imply.
    /// Shared tail of the `update` and `free` handlers (paper Fig 9).
    fn choose_and_vote(&mut self, actions: &mut Vec<Action>) {
        self.vote_sent = true;
        actions.push(Action::send(messages::VOTE));
        if self.vote_threshold_reached() && !self.commit_sent {
            self.commit_sent = true;
            actions.push(Action::send(messages::COMMIT));
        }
        self.has_chosen = true;
        actions.push(Action::send(messages::NOT_FREE));
    }

    fn on_update(&mut self, actions: &mut Vec<Action>) {
        if self.update_received {
            return;
        }
        self.update_received = true;
        if self.could_choose && !self.has_chosen && !self.vote_sent {
            self.choose_and_vote(actions);
        }
    }

    fn on_vote(&mut self, actions: &mut Vec<Action>) {
        if self.votes_received == self.config.replication_factor() - 1 {
            return;
        }
        self.votes_received += 1;
        if self.vote_threshold_reached() {
            if !self.vote_sent {
                if self.could_choose {
                    self.has_chosen = true;
                    actions.push(Action::send(messages::NOT_FREE));
                }
                self.vote_sent = true;
                actions.push(Action::send(messages::VOTE));
            }
            if !self.commit_sent {
                self.commit_sent = true;
                actions.push(Action::send(messages::COMMIT));
            }
        }
    }

    fn on_commit(&mut self, actions: &mut Vec<Action>) {
        if self.commits_received == self.config.replication_factor() - 1 {
            return;
        }
        self.commits_received += 1;
        if self.commits_received >= self.config.commit_threshold() {
            if !self.vote_sent {
                self.vote_sent = true;
                actions.push(Action::send(messages::VOTE));
            }
            if !self.commit_sent {
                self.commit_sent = true;
                actions.push(Action::send(messages::COMMIT));
            }
            if self.has_chosen {
                actions.push(Action::send(messages::FREE));
            }
        }
    }

    fn on_free(&mut self, actions: &mut Vec<Action>) {
        if self.vote_sent || self.has_chosen {
            return;
        }
        self.could_choose = true;
        if self.update_received {
            self.choose_and_vote(actions);
        }
    }

    fn on_not_free(&mut self) {
        if !self.vote_sent && !self.has_chosen {
            self.could_choose = false;
        }
    }
}

impl ReferenceCommit {
    /// The seven protocol variables: the instance's configuration.
    fn protocol_fields(&self) -> (bool, u32, bool, u32, bool, bool, bool) {
        (
            self.update_received,
            self.votes_received,
            self.vote_sent,
            self.commits_received,
            self.commit_sent,
            self.could_choose,
            self.has_chosen,
        )
    }
}

/// Two instances are equal when their seven protocol variables are:
/// the `CommitConfig` and the action buffer are not part of it.
impl PartialEq for ReferenceCommit {
    fn eq(&self, other: &Self) -> bool {
        self.protocol_fields() == other.protocol_fields()
    }
}

impl Eq for ReferenceCommit {}

impl std::hash::Hash for ReferenceCommit {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.protocol_fields().hash(state);
    }
}

impl ProtocolEngine for ReferenceCommit {
    fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError> {
        let message: CommitMessage = message
            .parse()
            .map_err(|_| InterpError::UnknownMessage(message.to_string()))?;
        // Move the scratch buffer out while the handlers run, so they can
        // borrow `self` mutably alongside it.
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        if !self.is_finished() {
            match message {
                CommitMessage::Update => self.on_update(&mut actions),
                CommitMessage::Vote => self.on_vote(&mut actions),
                CommitMessage::Commit => self.on_commit(&mut actions),
                CommitMessage::Free => self.on_free(&mut actions),
                CommitMessage::NotFree => self.on_not_free(),
            }
        }
        self.scratch = actions;
        Ok(&self.scratch)
    }

    fn is_finished(&self) -> bool {
        self.commits_received >= self.config.commit_threshold()
    }

    fn state_name(&self) -> std::borrow::Cow<'_, str> {
        fn tf(b: bool) -> char {
            if b {
                'T'
            } else {
                'F'
            }
        }
        std::borrow::Cow::Owned(format!(
            "{}/{}/{}/{}/{}/{}/{}",
            tf(self.update_received),
            self.votes_received,
            tf(self.vote_sent),
            self.commits_received,
            tf(self.commit_sent),
            tf(self.could_choose),
            tf(self.has_chosen),
        ))
    }

    fn reset(&mut self) {
        // Keep the scratch buffer's capacity across resets.
        let scratch = std::mem::take(&mut self.scratch);
        *self = ReferenceCommit::new(self.config);
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ReferenceCommit {
        ReferenceCommit::new(CommitConfig::new(4).expect("valid"))
    }

    #[test]
    fn update_triggers_vote_and_choice() {
        let mut e = engine();
        let actions = e.deliver("update").unwrap();
        assert_eq!(
            actions,
            vec![Action::send("vote"), Action::send("not_free")]
        );
        assert_eq!(e.state_name(), "T/0/T/0/F/T/T");
    }

    #[test]
    fn commit_quorum_finishes() {
        let mut e = engine();
        e.deliver("update").unwrap();
        e.deliver("vote").unwrap();
        let a = e.deliver("vote").unwrap(); // total votes = 3 → commit
        assert_eq!(a, vec![Action::send("commit")]);
        e.deliver("commit").unwrap();
        assert!(!e.is_finished());
        let a = e.deliver("commit").unwrap(); // second external commit
        assert_eq!(a, vec![Action::send("free")]);
        assert!(e.is_finished());
    }

    #[test]
    fn blocked_node_votes_only_when_forced() {
        let mut e = engine();
        e.deliver("not_free").unwrap();
        assert!(e.deliver("update").unwrap().is_empty());
        assert!(e.deliver("vote").unwrap().is_empty());
        assert!(e.deliver("vote").unwrap().is_empty());
        // Third vote forces participation: vote + commit, but no choice.
        let a = e.deliver("vote").unwrap();
        assert_eq!(a, vec![Action::send("vote"), Action::send("commit")]);
        assert!(!e.has_chosen());
        assert_eq!(e.state_name(), "T/3/T/0/T/F/F");
    }

    #[test]
    fn free_releases_blocked_update() {
        let mut e = engine();
        e.deliver("not_free").unwrap();
        e.deliver("update").unwrap();
        e.deliver("vote").unwrap();
        e.deliver("vote").unwrap();
        // Paper Fig 14 FREE transition from T/2/F/0/F/F/F.
        assert_eq!(e.state_name(), "T/2/F/0/F/F/F");
        let a = e.deliver("free").unwrap();
        assert_eq!(
            a,
            vec![
                Action::send("vote"),
                Action::send("commit"),
                Action::send("not_free")
            ]
        );
        assert_eq!(e.state_name(), "T/2/T/0/T/T/T");
    }

    #[test]
    fn messages_after_finish_ignored() {
        let mut e = engine();
        e.deliver("commit").unwrap();
        e.deliver("commit").unwrap();
        assert!(e.is_finished());
        assert!(e.deliver("vote").unwrap().is_empty());
        assert!(e.deliver("update").unwrap().is_empty());
    }

    #[test]
    fn vote_bound_respected() {
        let mut e = engine();
        e.deliver("not_free").unwrap();
        for _ in 0..3 {
            e.deliver("vote").unwrap();
        }
        assert_eq!(e.votes_received(), 3);
        assert!(e.deliver("vote").unwrap().is_empty());
        assert_eq!(e.votes_received(), 3);
    }

    #[test]
    fn unknown_message_is_error() {
        let mut e = engine();
        assert!(matches!(
            e.deliver("zap"),
            Err(InterpError::UnknownMessage(_))
        ));
    }

    #[test]
    fn reset_restores_start() {
        let mut e = engine();
        e.deliver("update").unwrap();
        e.reset();
        assert_eq!(e.state_name(), "F/0/F/0/F/T/F");
    }
}
