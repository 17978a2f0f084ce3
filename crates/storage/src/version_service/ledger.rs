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
    /// The attempts in flight, each with the session executing it,
    /// sorted by `AttemptId`: what every message is looked up in, and as
    /// small as the clients' outstanding work (at most 3 × clients), so
    /// a lookup is a scan of a few contiguous entries.
    table: Vec<(AttemptId, SessionId, Heard)>,
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
    /// Where `attempt` is in `table`, if it is in flight.
    fn position(&self, attempt: AttemptId) -> Option<usize> {
        self.table.iter().position(|(a, _, _)| *a == attempt)
    }

    /// Puts an attempt that is not in flight into `table`, in order.
    fn insert(&mut self, entry: (AttemptId, SessionId, Heard)) {
        let at = self.table.partition_point(|(a, _, _)| *a < entry.0);
        self.table.insert(at, entry);
    }

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
            .map(|&(attempt, session, _)| (attempt, session))
    }

    /// The session executing `attempt`, if it is in flight.
    pub(super) fn session(&self, attempt: AttemptId) -> Option<SessionId> {
        self.position(attempt).map(|at| self.table[at].1)
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
        let heard = match self.position(attempt) {
            Some(at) => &mut self.table[at].2,
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
        debug_assert!(self.position(attempt).is_none());
        let heard = self.dropped.remove(&attempt).unwrap_or_default();
        self.insert((attempt, session, heard));
    }

    /// `attempt`'s execution was abandoned; what it had heard is kept.
    pub(super) fn drop_in_flight(&mut self, attempt: AttemptId) {
        if let Some(at) = self.position(attempt) {
            let (_, _, heard) = self.table.remove(at);
            self.dropped.insert(attempt, heard);
        }
    }

    /// `attempt`'s execution finished: it joins the finished set, and
    /// the client that asked for it, if any has, is to be told.
    pub(super) fn finish(&mut self, attempt: AttemptId) -> Option<NodeId> {
        let in_flight = self.position(attempt).map(|at| self.table.remove(at));
        self.committed.insert(attempt);
        in_flight.and_then(|(_, _, heard)| heard.client)
    }

    /// Brings a checkpointed copy up to date with `live`, given every
    /// attempt that changed since the copy was one (repeats are fine).
    /// The finished set only grows, so membership says what is new.
    pub(super) fn catch_up(&mut self, live: &Ledger, touched: &[AttemptId]) {
        for &attempt in touched {
            match (self.position(attempt), live.position(attempt)) {
                (Some(at), Some(theirs)) => self.table[at].clone_from(&live.table[theirs]),
                (None, Some(theirs)) => self.insert(live.table[theirs].clone()),
                (Some(at), None) => {
                    self.table.remove(at);
                }
                (None, None) => {}
            }
            match live.dropped.get(&attempt) {
                Some(heard) => self.dropped.insert(attempt, heard.clone()),
                None => self.dropped.remove(&attempt),
            };
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
        /// `true` when no attempt is in two places at once and the
        /// table is in `AttemptId` order.
        pub(in super::super) fn is_exact(&self) -> bool {
            let in_flight = || self.table.iter().map(|(a, _, _)| a);
            let mut unfinished = in_flight().chain(self.dropped.keys());
            unfinished.all(|a| !self.committed.contains(a))
                && in_flight().all(|a| !self.dropped.contains_key(a))
                && self.table.windows(2).all(|w| w[0].0 < w[1].0)
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

    /// Eight attempts over three PIDs, two clients and two retries, so
    /// `AttemptId` order is decided by every field.
    fn attempts() -> Vec<AttemptId> {
        let mut attempts = Vec::new();
        for pid in [b"p", b"q", b"r"] {
            for (client, attempt) in [(1, 0), (0, 1), (0, 0)] {
                let pid = crate::entities::Pid::of(pid);
                attempts.push(AttemptId {
                    pid,
                    client,
                    attempt,
                });
            }
        }
        attempts.truncate(8);
        attempts
    }

    /// `in_flight()` is in `AttemptId` order whatever order attempts
    /// started, finished, were dropped and were started again in — the
    /// sibling fan-out, and with it the message schedule, depends on it —
    /// and a checkpointed copy brought up to date by `catch_up` equals a
    /// fresh clone of the live ledger, at every write.
    #[test]
    fn in_flight_order_and_catch_up_survive_interleaved_moves() {
        let engine = super::super::PeerEngine::new(
            &stategen_commit::CommitConfig::new(4).expect("valid factor"),
        );
        let mut runtime = engine.engine().runtime();
        let attempts = attempts();
        let mut rng = asa_simnet::SimRng::new(23);
        let (mut restarted, mut writes) = (0, 0);
        let mut dropped = BTreeSet::new();
        for _ in 0..20 {
            let mut live = Ledger::default();
            let mut model: BTreeMap<AttemptId, SessionId> = BTreeMap::new();
            let mut copy = live.clone();
            let mut touched = Vec::new();
            for _ in 0..60 {
                let attempt = *rng.pick(&attempts);
                let from = NodeId(rng.below(6) as usize);
                let message = *rng.pick(&[CommitMessage::Update, CommitMessage::Vote]);
                live.admit(attempt, from, message);
                if live.committed().contains(&attempt) {
                    continue;
                }
                match model.get(&attempt) {
                    None => {
                        restarted += u32::from(dropped.remove(&attempt));
                        let session = runtime.spawn();
                        live.start(attempt, session);
                        model.insert(attempt, session);
                    }
                    Some(_) if rng.chance(0.5) => {
                        live.drop_in_flight(attempt);
                        model.remove(&attempt);
                        dropped.insert(attempt);
                    }
                    Some(_) => {
                        live.finish(attempt);
                        model.remove(&attempt);
                    }
                }
                touched.push(attempt);
                let expected: Vec<_> = model.iter().map(|(&a, &s)| (a, s)).collect();
                assert_eq!(live.in_flight().collect::<Vec<_>>(), expected);
                assert!(live.is_exact());
                if rng.chance(0.2) {
                    copy.catch_up(&live, &touched);
                    touched.clear();
                    assert_eq!(copy, live.clone());
                    writes += 1;
                }
            }
        }
        assert!(
            restarted >= 50 && writes >= 100,
            "{restarted} restarts, {writes} writes"
        );
    }

    /// An attempt dropped and started again keeps what it had heard: who
    /// was counted, and which client to report to.
    #[test]
    fn a_restarted_attempt_keeps_what_it_heard() {
        let engine = super::super::PeerEngine::new(
            &stategen_commit::CommitConfig::new(4).expect("valid factor"),
        );
        let mut runtime = engine.engine().runtime();
        let attempt = attempts()[0];
        let client = NodeId(9);
        let mut ledger = Ledger::default();
        assert!(ledger.admit(attempt, client, CommitMessage::Update));
        ledger.start(attempt, runtime.spawn());
        assert!(ledger.admit(attempt, NodeId(1), CommitMessage::Vote));
        ledger.drop_in_flight(attempt);
        assert_eq!(ledger.session(attempt), None);
        assert!(!ledger.admit(attempt, NodeId(1), CommitMessage::Vote));
        let session = runtime.spawn();
        ledger.start(attempt, session);
        assert_eq!(ledger.session(attempt), Some(session));
        assert!(!ledger.admit(attempt, client, CommitMessage::Update));
        assert_eq!(ledger.finish(attempt), Some(client));
        assert!(!ledger.admit(attempt, NodeId(2), CommitMessage::Vote));
        assert!(ledger.is_exact() && ledger.len() == 1);
    }
}
