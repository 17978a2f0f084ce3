//! What a peer knows about update attempts, beside the sessions executing
//! them: the [`Ledger`]. An attempt the peer has heard of is in exactly
//! one of three places — in flight, dropped or finished — and every
//! change of place goes through a method here, so the peer never sees
//! the collections (`docs/STORAGE.md` has what each costs and how it
//! grows).

use std::collections::{BTreeMap, BTreeSet};

use asa_simnet::NodeId;
use stategen_commit::CommitMessage;
use stategen_runtime::SessionId;

use super::AttemptId;

/// Which senders' `update`, `vote` and `commit` an attempt has counted:
/// each counts once, whatever the network duplicates or a Byzantine
/// sender replays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Seen {
    /// One mask per message kind over senders `0..64` — every node of a
    /// peer set this repo simulates.
    low: [u64; 3],
    /// `(sender, kinds)` for senders the masks cannot name.
    high: Vec<(usize, u8)>,
}

impl Seen {
    /// Counts `from`'s `message` (one of the three that travel between
    /// nodes); `false` if it had been counted before.
    fn insert(&mut self, from: NodeId, message: CommitMessage) -> bool {
        debug_assert!(message.is_peer_message());
        let kind = message as usize;
        if from.0 < 64 {
            let bit = 1 << from.0;
            let fresh = self.low[kind] & bit == 0;
            self.low[kind] |= bit;
            return fresh;
        }
        let at = match self.high.iter().position(|&(sender, _)| sender == from.0) {
            Some(at) => at,
            None => {
                self.high.push((from.0, 0));
                self.high.len() - 1
            }
        };
        let fresh = self.high[at].1 & (1 << kind) == 0;
        self.high[at].1 |= 1 << kind;
        fresh
    }
}

/// What is remembered of an unfinished attempt, executing or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Heard {
    /// The client to report the commit to, once its update has come.
    client: Option<NodeId>,
    seen: Seen,
}

/// A peer's attempt bookkeeping — with its history, everything it
/// checkpoints beside its runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct Ledger {
    /// The attempts in flight, each with the session executing it: what
    /// every message is looked up in, and as small as the clients'
    /// outstanding work.
    table: BTreeMap<AttemptId, (SessionId, Heard)>,
    /// Attempts abandoned unfinished (abort, GC): a late vote starts
    /// such an attempt again, and must then find who had been counted.
    /// An equivocator executes nothing, so all it hears of stays here.
    dropped: BTreeMap<AttemptId, Heard>,
    /// The finished attempts. A finished execution absorbs every message
    /// and emits nothing, which membership here stands for — no session
    /// is kept to do it.
    committed: BTreeSet<AttemptId>,
}

impl Ledger {
    /// The finished attempts.
    pub(super) fn committed(&self) -> &BTreeSet<AttemptId> {
        &self.committed
    }

    /// Attempts remembered at all: in flight, dropped or finished.
    pub(super) fn len(&self) -> usize {
        self.table.len() + self.dropped.len() + self.committed.len()
    }

    /// The attempts in flight with their sessions, in `AttemptId` order:
    /// the order of sibling `free`/`not_free` fan-out decides the
    /// simulator's message schedule.
    pub(super) fn in_flight(&self) -> impl ExactSizeIterator<Item = (AttemptId, SessionId)> + '_ {
        self.table
            .iter()
            .map(|(&attempt, &(session, _))| (attempt, session))
    }

    /// The session executing `attempt`, if it is in flight.
    pub(super) fn session(&self, attempt: AttemptId) -> Option<SessionId> {
        self.table.get(&attempt).map(|&(session, _)| session)
    }

    /// Counts `from`'s `message` for `attempt`; `false` if it is to be
    /// ignored — counted before, or the attempt finished here. One
    /// lookup in the in-flight table for a message of a running attempt;
    /// the finished set is consulted only past that. An admitted
    /// `update` names the client to report to.
    pub(super) fn admit(
        &mut self,
        attempt: AttemptId,
        from: NodeId,
        message: CommitMessage,
    ) -> bool {
        let heard = match self.table.get_mut(&attempt) {
            Some((_, heard)) => heard,
            None if self.committed.contains(&attempt) => return false,
            None => self.dropped.entry(attempt).or_default(),
        };
        let fresh = heard.seen.insert(from, message);
        if fresh && message == CommitMessage::Update {
            heard.client = Some(from);
        }
        fresh
    }

    /// `attempt` — new to this peer, or dropped earlier — starts
    /// executing in `session`, with whatever had been heard of it.
    pub(super) fn start(&mut self, attempt: AttemptId, session: SessionId) {
        debug_assert!(!self.committed.contains(&attempt));
        let heard = self.dropped.remove(&attempt).unwrap_or_default();
        self.table.insert(attempt, (session, heard));
    }

    /// `attempt`'s execution was abandoned; what it had heard is kept.
    pub(super) fn drop_in_flight(&mut self, attempt: AttemptId) {
        if let Some((_, heard)) = self.table.remove(&attempt) {
            self.dropped.insert(attempt, heard);
        }
    }

    /// `attempt`'s execution finished: it joins the finished set, and
    /// the client that asked for it, if any has, is to be told.
    pub(super) fn finish(&mut self, attempt: AttemptId) -> Option<NodeId> {
        let in_flight = self.table.remove(&attempt);
        self.committed.insert(attempt);
        in_flight.and_then(|(_, heard)| heard.client)
    }

    /// Brings a checkpointed copy up to date with `live`, given every
    /// attempt that changed since the copy was one (repeats are fine).
    /// The finished set only grows, so membership says what is new.
    pub(super) fn catch_up(&mut self, live: &Ledger, touched: &[AttemptId]) {
        fn mirror<V: Clone>(
            copy: &mut BTreeMap<AttemptId, V>,
            live: &BTreeMap<AttemptId, V>,
            attempt: AttemptId,
        ) {
            match live.get(&attempt) {
                Some(value) => copy.insert(attempt, value.clone()),
                None => copy.remove(&attempt),
            };
        }
        for &attempt in touched {
            mirror(&mut self.table, &live.table, attempt);
            mirror(&mut self.dropped, &live.dropped, attempt);
            if live.committed.contains(&attempt) {
                self.committed.insert(attempt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ledger {
        /// `true` when no attempt is in two places at once.
        pub(in super::super) fn is_exact(&self) -> bool {
            let mut unfinished = self.table.keys().chain(self.dropped.keys());
            unfinished.all(|a| !self.committed.contains(a))
                && self.table.keys().all(|a| !self.dropped.contains_key(a))
        }
    }

    /// A sender the masks cannot name is counted once per kind all the
    /// same.
    #[test]
    fn seen_counts_every_sender_once_per_kind() {
        let mut seen = Seen::default();
        for sender in [0, 3, 63, 64, 1_000, usize::MAX] {
            for message in [
                CommitMessage::Update,
                CommitMessage::Vote,
                CommitMessage::Commit,
            ] {
                assert!(seen.insert(NodeId(sender), message), "{sender} {message}");
                assert!(!seen.insert(NodeId(sender), message), "{sender} {message}");
            }
        }
        assert_eq!(seen.low, [1 | 1 << 3 | 1 << 63; 3]);
        assert_eq!(seen.high, [(64, 7), (1_000, 7), (usize::MAX, 7)]);
    }
}
