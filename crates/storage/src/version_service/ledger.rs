//! What a peer knows about update attempts, beside the sessions executing
//! them: the [`Ledger`]. An attempt the peer has heard of is in exactly
//! one of three places — in flight, dropped or finished — and every
//! change of place goes through a method here, so the peer never sees
//! the collections (`docs/STORAGE.md` has what each costs and how it
//! grows). The first two are [`Unfinished`], the part a checkpoint
//! copies; the finished attempts are the [`FinishedLog`], which is also
//! the peer's history.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use asa_simnet::NodeId;
use stategen_commit::CommitMessage;
use stategen_runtime::SessionId;

use super::AttemptId;
use crate::entities::Pid;

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
pub(super) struct Heard {
    /// The client to report the commit to, once its update has come.
    client: Option<NodeId>,
    seen: Seen,
}

impl Heard {
    /// Counts `from`'s `message`; `false` if it had been counted before.
    /// A counted `update` names the client to report to.
    fn count(&mut self, from: NodeId, message: CommitMessage) -> bool {
        let fresh = self.seen.insert(from, message);
        if fresh && message == CommitMessage::Update {
            self.client = Some(from);
        }
        fresh
    }
}

/// The unfinished attempts: what a peer's checkpoint copies beside its
/// runtime snapshot. The finished log is not in it — it is written
/// through (`docs/STORAGE.md`, "Durability").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct Unfinished {
    /// The attempts in flight, each with the session executing it,
    /// sorted by `AttemptId`: what every message is looked up in, and as
    /// small as the clients' outstanding work (at most 3 × clients), so
    /// a lookup is a scan of a few contiguous entries.
    table: Vec<(AttemptId, SessionId, Heard)>,
    /// Attempts abandoned unfinished (abort, GC): a late vote starts
    /// such an attempt again, and must then find who had been counted.
    /// An equivocator executes nothing, so all it hears of stays here.
    dropped: BTreeMap<AttemptId, Heard>,
}

impl Unfinished {
    /// Where `attempt` is in `table`, if it is in flight.
    fn position(&self, attempt: AttemptId) -> Option<usize> {
        self.table.iter().position(|(a, _, _)| *a == attempt)
    }

    /// Brings a checkpointed copy up to date with `live`, given every
    /// attempt whose `dropped` entry changed since the copy was one
    /// (repeats are fine): the in-flight table is copied whole — a few
    /// entries, into the copy's own allocation — and only a changed
    /// `dropped` entry costs a search.
    pub(super) fn catch_up(&mut self, live: &Unfinished, touched: &[AttemptId]) {
        self.table.clone_from(&live.table);
        for attempt in touched {
            match live.dropped.get(attempt) {
                Some(heard) => self.dropped.insert(*attempt, heard.clone()),
                None => self.dropped.remove(attempt),
            };
        }
    }
}

/// The finished attempts, which are also the peer's history: each PID
/// recorded here once, in commit order, with the first of its attempts
/// to finish. An append-only log the commit write makes durable.
///
/// A PID is a SHA-1 digest, uniform already, so its first eight bytes
/// are its hash: `slots` is an open-addressed index into `pids`, probed
/// linearly from that home slot, at most half full. The index trusts
/// PIDs to be digests — contents ground to share home-slot bits lengthen
/// the probe chains, at the price of a full commit for each such PID
/// (`docs/STORAGE.md`, "Cost of each path").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FinishedLog {
    /// The recorded PIDs in commit order: the history.
    pids: Vec<Pid>,
    /// `(client, attempt)` of the first attempt of each PID in `pids` to
    /// finish, at the same position.
    attempts: Vec<(u32, u32)>,
    /// Position in `pids` plus one, 0 for an empty slot; the length is a
    /// power of two at least twice `pids`'s, or 0 before the first
    /// commit.
    slots: Vec<u32>,
    /// Later attempts of a recorded PID that finished as well: searched
    /// only when a recorded PID's first attempt is not the one asked
    /// about.
    more: BTreeSet<AttemptId>,
}

/// Where `pid`'s probe starts, before masking: its digest's first eight
/// bytes.
fn home(pid: &Pid) -> usize {
    let head: [u8; 8] = pid.0 .0[..8].try_into().expect("a digest has 20 bytes");
    u64::from_le_bytes(head) as usize
}

impl FinishedLog {
    /// `Ok` with `pid`'s position in `pids` if it is recorded, else
    /// `Err` with the empty slot its probe ended at (0 while there are
    /// no slots).
    fn probe(&self, pid: &Pid) -> Result<usize, usize> {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return Err(0);
        };
        let mut slot = home(pid) & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                at if self.pids[at as usize - 1] == *pid => return Ok(at as usize - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Whether `attempt` finished here.
    fn contains(&self, attempt: &AttemptId) -> bool {
        match self.probe(&attempt.pid) {
            Ok(at) => {
                self.attempts[at] == (attempt.client, attempt.attempt)
                    || self.more.contains(attempt)
            }
            Err(_) => false,
        }
    }

    /// Records that `attempt` finished: its PID is appended to the
    /// history if it is new, and `attempt` kept in `more` otherwise.
    fn insert(&mut self, attempt: AttemptId) {
        let slot = match self.probe(&attempt.pid) {
            Ok(at) => {
                if self.attempts[at] != (attempt.client, attempt.attempt) {
                    self.more.insert(attempt);
                }
                return;
            }
            Err(_) if 2 * (self.pids.len() + 1) > self.slots.len() => {
                self.grow();
                self.probe(&attempt.pid).expect_err("a new PID")
            }
            Err(slot) => slot,
        };
        self.slots[slot] = u32::try_from(self.pids.len() + 1).expect("a history of < 2^32 PIDs");
        self.pids.push(attempt.pid);
        self.attempts.push((attempt.client, attempt.attempt));
    }

    /// Doubles the index (16 slots at first) and places every position
    /// again.
    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        for at in 0..self.pids.len() {
            let slot = self.probe(&self.pids[at]).expect_err("each PID once");
            self.slots[slot] = at as u32 + 1;
        }
    }
}

/// What [`Ledger::admit`] made of a message.
#[derive(Debug)]
pub(super) enum Admission {
    /// Counted before, or the attempt finished here: ignore it.
    Ignored,
    /// Counted for an attempt in flight.
    Running,
    /// Counted for a dropped attempt, now taken out of `dropped` with
    /// what it had heard: to be [`Ledger::start`]ed again.
    Revived(Heard),
    /// The first message of an attempt new to this peer, counted in a
    /// record that is in no place yet: to be [`Ledger::start`]ed.
    New(Heard),
}

/// A peer's attempt bookkeeping: the unfinished attempts, which its
/// checkpoint copies, and the finished log — the history — which the
/// commit write makes durable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct Ledger {
    unfinished: Unfinished,
    /// The finished attempts. A finished execution absorbs every message
    /// and emits nothing, which membership here stands for — no session
    /// is kept to do it.
    finished: FinishedLog,
}

impl Ledger {
    /// The finished attempts, in `AttemptId` order (built on demand).
    pub(super) fn committed(&self) -> BTreeSet<AttemptId> {
        let FinishedLog {
            pids,
            attempts,
            more,
            ..
        } = &self.finished;
        let first = pids
            .iter()
            .zip(attempts)
            .map(|(&pid, &(client, attempt))| AttemptId {
                pid,
                client,
                attempt,
            });
        first.chain(more.iter().copied()).collect()
    }

    /// The recorded PIDs in commit order.
    pub(super) fn history(&self) -> &[Pid] {
        &self.finished.pids
    }

    /// Whether some attempt of `pid` finished here.
    pub(super) fn is_recorded(&self, pid: &Pid) -> bool {
        self.finished.probe(pid).is_ok()
    }

    /// The unfinished attempts: what a checkpoint holds of the ledger.
    pub(super) fn unfinished(&self) -> &Unfinished {
        &self.unfinished
    }

    /// Takes the unfinished attempts back from a checkpoint's `image`
    /// after a crash; the finished log is kept.
    pub(super) fn restore(&mut self, image: &Unfinished) {
        self.unfinished.clone_from(image);
    }

    /// Attempts remembered at all: in flight, dropped or finished.
    pub(super) fn len(&self) -> usize {
        let Unfinished { table, dropped } = &self.unfinished;
        table.len() + dropped.len() + self.finished.pids.len() + self.finished.more.len()
    }

    /// The attempts in flight with their sessions, in `AttemptId` order:
    /// the order of sibling `free`/`not_free` fan-out decides the
    /// simulator's message schedule.
    pub(super) fn in_flight(&self) -> impl ExactSizeIterator<Item = (AttemptId, SessionId)> + '_ {
        self.unfinished
            .table
            .iter()
            .map(|&(attempt, session, _)| (attempt, session))
    }

    /// The session executing `attempt`, if it is in flight.
    pub(super) fn session(&self, attempt: AttemptId) -> Option<SessionId> {
        let at = self.unfinished.position(attempt)?;
        Some(self.unfinished.table[at].1)
    }

    /// Counts `from`'s `message` for `attempt`. One lookup in the
    /// in-flight table for a message of a running attempt; the finished
    /// log and `dropped` are searched only past that. An attempt not in
    /// flight leaves the ledger with the message counted, for the caller
    /// to start — a new one never enters `dropped` on the way.
    pub(super) fn admit(
        &mut self,
        attempt: AttemptId,
        from: NodeId,
        message: CommitMessage,
    ) -> Admission {
        if let Some(at) = self.unfinished.position(attempt) {
            let fresh = self.unfinished.table[at].2.count(from, message);
            return if fresh {
                Admission::Running
            } else {
                Admission::Ignored
            };
        }
        if self.finished.contains(&attempt) {
            return Admission::Ignored;
        }
        match self.unfinished.dropped.entry(attempt) {
            Entry::Occupied(mut heard) => {
                if heard.get_mut().count(from, message) {
                    Admission::Revived(heard.remove())
                } else {
                    Admission::Ignored
                }
            }
            Entry::Vacant(_) => {
                let mut heard = Heard::default();
                heard.count(from, message);
                Admission::New(heard)
            }
        }
    }

    /// Counts `from`'s `message` for an attempt this peer will not
    /// execute — an equivocator's memory of what it heard — keeping it
    /// in `dropped`; `false` if it had been counted before.
    pub(super) fn hear(
        &mut self,
        attempt: AttemptId,
        from: NodeId,
        message: CommitMessage,
    ) -> bool {
        debug_assert!(self.unfinished.position(attempt).is_none());
        let heard = self.unfinished.dropped.entry(attempt).or_default();
        heard.count(from, message)
    }

    /// `attempt`, admitted with `heard`, starts executing in `session`.
    pub(super) fn start(&mut self, attempt: AttemptId, session: SessionId, heard: Heard) {
        debug_assert!(!self.finished.contains(&attempt));
        debug_assert!(!self.unfinished.dropped.contains_key(&attempt));
        debug_assert!(self.unfinished.position(attempt).is_none());
        let table = &mut self.unfinished.table;
        let at = table.partition_point(|(a, _, _)| *a < attempt);
        table.insert(at, (attempt, session, heard));
    }

    /// `attempt`'s execution was abandoned; what it had heard is kept in
    /// `dropped`.
    pub(super) fn drop_in_flight(&mut self, attempt: AttemptId) {
        if let Some(at) = self.unfinished.position(attempt) {
            let (_, _, heard) = self.unfinished.table.remove(at);
            self.unfinished.dropped.insert(attempt, heard);
        }
    }

    /// `attempt`'s execution finished: it joins the finished log — its
    /// PID the history, if new — and the client that asked for it, if
    /// any has, is to be told.
    pub(super) fn finish(&mut self, attempt: AttemptId) -> Option<NodeId> {
        let at = self.unfinished.position(attempt);
        let in_flight = at.map(|at| self.unfinished.table.remove(at));
        self.finished.insert(attempt);
        in_flight.and_then(|(_, _, heard)| heard.client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ledger {
        /// `true` when no attempt is in two places at once, the table is
        /// in `AttemptId` order and the finished log is exact.
        pub(in super::super) fn is_exact(&self) -> bool {
            let Unfinished { table, dropped } = &self.unfinished;
            let in_flight = || table.iter().map(|(a, _, _)| a);
            let mut unfinished = in_flight().chain(dropped.keys());
            unfinished.all(|a| !self.finished.contains(a))
                && in_flight().all(|a| !dropped.contains_key(a))
                && table.windows(2).all(|w| w[0].0 < w[1].0)
                && self.finished.is_exact()
        }
    }

    impl FinishedLog {
        /// `true` when every history PID is found at its own position,
        /// no PID is in the history twice, the index holds exactly the
        /// history at most half full, and every `more` entry is a later
        /// attempt of a recorded PID.
        fn is_exact(&self) -> bool {
            let distinct: BTreeSet<&Pid> = self.pids.iter().collect();
            let filled = self.slots.iter().filter(|&&slot| slot != 0).count();
            self.pids.len() == self.attempts.len()
                && (0..self.pids.len()).all(|at| self.probe(&self.pids[at]) == Ok(at))
                && distinct.len() == self.pids.len()
                && filled == self.pids.len()
                && 2 * filled <= self.slots.len()
                && self.more.iter().all(|a| {
                    self.probe(&a.pid)
                        .is_ok_and(|at| self.attempts[at] != (a.client, a.attempt))
                })
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

    /// The finished log against a `BTreeSet` model, insert by insert,
    /// through five growths of the index. Beside real digests the PIDs
    /// include a group sharing all eight home bytes (one probe chain at
    /// every size), a group homed on the last slot (its chain wraps to
    /// slot 0) and a group apart only in high home bits (one chain until
    /// a growth splits it). Retries and other clients of a recorded PID
    /// finish as well, so `more` fills.
    #[test]
    fn finished_log_matches_a_model() {
        let digest = |head: u64, tail: u64| {
            let mut bytes = [0; 20];
            bytes[..8].copy_from_slice(&head.to_le_bytes());
            bytes[8..16].copy_from_slice(&tail.to_le_bytes());
            Pid(asa_sha1::Digest(bytes))
        };
        let mut pids: Vec<Pid> = (0..120)
            .map(|i| Pid::of(format!("model{i}").as_bytes()))
            .collect();
        for i in 0..16 {
            pids.push(digest(0x5a5a_5a5a_5a5a_5a5a, i));
            pids.push(digest(u64::MAX, i));
            pids.push(digest(i << 40 | 3, 0));
        }
        let mut rng = asa_simnet::SimRng::new(41);
        let (mut wrapped, mut more) = (0, 0);
        for _ in 0..3 {
            let mut ledger = Ledger::default();
            let mut model = BTreeSet::new();
            let (mut history, mut recorded) = (Vec::new(), BTreeSet::new());
            for _ in 0..400 {
                let attempt = AttemptId {
                    pid: *rng.pick(&pids),
                    client: rng.below(2) as u32,
                    attempt: rng.below(3) as u32,
                };
                assert_eq!(ledger.finish(attempt), None, "not in flight");
                if recorded.insert(attempt.pid) {
                    history.push(attempt.pid);
                }
                model.insert(attempt);
                assert!(ledger.is_exact());
                assert_eq!(ledger.history(), history);
                assert_eq!(ledger.committed(), model);
                assert_eq!(ledger.len(), model.len());
                for &pid in &pids {
                    assert_eq!(ledger.is_recorded(&pid), recorded.contains(&pid));
                    for (client, attempt) in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)] {
                        let a = AttemptId {
                            pid,
                            client,
                            attempt,
                        };
                        assert_eq!(ledger.finished.contains(&a), model.contains(&a), "{a:?}");
                    }
                }
            }
            let FinishedLog { slots, pids, .. } = &ledger.finished;
            assert!(slots.len() >= 16 << 5, "{} slots", slots.len());
            let mask = slots.len() - 1;
            wrapped += slots
                .iter()
                .enumerate()
                .filter(|&(slot, &at)| at != 0 && home(&pids[at as usize - 1]) & mask > slot)
                .count();
            more += ledger.finished.more.len();
        }
        assert!(
            wrapped >= 20 && more >= 300,
            "{wrapped} wrapped, {more} later attempts"
        );
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
    /// started, finished, were dropped and were revived in — the sibling
    /// fan-out, and with it the message schedule, depends on it. A new
    /// attempt never passes through `dropped`, and a checkpointed copy of
    /// the unfinished attempts, brought up to date by `catch_up` from the
    /// names of the attempts whose `dropped` entry changed (a drop, a
    /// revival) and nothing else, equals the live ones at every write.
    #[test]
    fn in_flight_order_and_catch_up_survive_interleaved_moves() {
        let engine = super::super::PeerEngine::new(
            &stategen_commit::CommitConfig::new(4).expect("valid factor"),
        );
        let mut runtime = engine.engine().runtime();
        let attempts = attempts();
        let mut rng = asa_simnet::SimRng::new(23);
        let (mut revived, mut writes) = (0, 0);
        for _ in 0..20 {
            let mut live = Ledger::default();
            let mut model: BTreeMap<AttemptId, SessionId> = BTreeMap::new();
            let mut copy = live.unfinished().clone();
            let mut touched = Vec::new();
            for _ in 0..60 {
                let attempt = *rng.pick(&attempts);
                let from = NodeId(rng.below(6) as usize);
                let message = *rng.pick(&[CommitMessage::Update, CommitMessage::Vote]);
                let dropped = live.unfinished.dropped.clone();
                let admission = live.admit(attempt, from, message);
                if let Admission::Revived(_) = admission {
                    touched.push(attempt);
                    revived += 1;
                } else {
                    assert_eq!(
                        live.unfinished.dropped, dropped,
                        "only a revival changes it"
                    );
                }
                if let Admission::New(heard) | Admission::Revived(heard) = admission {
                    let session = runtime.spawn();
                    live.start(attempt, session, heard);
                    model.insert(attempt, session);
                }
                if model.contains_key(&attempt) && rng.chance(0.4) {
                    if rng.chance(0.5) {
                        live.drop_in_flight(attempt);
                        touched.push(attempt);
                    } else {
                        live.finish(attempt);
                    }
                    model.remove(&attempt);
                }
                let expected: Vec<_> = model.iter().map(|(&a, &s)| (a, s)).collect();
                assert_eq!(live.in_flight().collect::<Vec<_>>(), expected);
                assert!(live.is_exact());
                if rng.chance(0.2) {
                    copy.catch_up(live.unfinished(), &touched);
                    touched.clear();
                    assert_eq!(copy, *live.unfinished());
                    writes += 1;
                }
            }
        }
        assert!(
            revived >= 50 && writes >= 100,
            "{revived} revivals, {writes} writes"
        );
    }

    /// An attempt dropped and started again keeps what it had heard: who
    /// was counted, and which client to report to. A new attempt is in
    /// no place until it starts, and an equivocator's attempts, heard and
    /// never executed, stay in `dropped`.
    #[test]
    fn a_restarted_attempt_keeps_what_it_heard() {
        let engine = super::super::PeerEngine::new(
            &stategen_commit::CommitConfig::new(4).expect("valid factor"),
        );
        let mut runtime = engine.engine().runtime();
        let [attempt, other] = [attempts()[0], attempts()[1]];
        let client = NodeId(9);
        let vote = CommitMessage::Vote;
        let mut ledger = Ledger::default();
        let Admission::New(heard) = ledger.admit(attempt, client, CommitMessage::Update) else {
            panic!("a new attempt");
        };
        assert_eq!(ledger.len(), 0, "admitted, in no place yet");
        ledger.start(attempt, runtime.spawn(), heard);
        assert!(matches!(
            ledger.admit(attempt, NodeId(1), vote),
            Admission::Running
        ));
        ledger.drop_in_flight(attempt);
        assert_eq!(ledger.session(attempt), None);
        assert!(matches!(
            ledger.admit(attempt, NodeId(1), vote),
            Admission::Ignored
        ));
        let Admission::Revived(heard) = ledger.admit(attempt, NodeId(2), vote) else {
            panic!("a dropped attempt");
        };
        let session = runtime.spawn();
        ledger.start(attempt, session, heard);
        assert_eq!(ledger.session(attempt), Some(session));
        assert!(matches!(
            ledger.admit(attempt, client, CommitMessage::Update),
            Admission::Ignored
        ));
        assert_eq!(ledger.finish(attempt), Some(client));
        assert!(matches!(
            ledger.admit(attempt, NodeId(3), vote),
            Admission::Ignored
        ));
        assert!(ledger.is_exact() && ledger.len() == 1);
        assert!(ledger.hear(other, NodeId(0), vote));
        assert!(!ledger.hear(other, NodeId(0), vote));
        assert_eq!(ledger.unfinished().dropped.len(), 1);
        assert!(ledger.is_exact() && ledger.len() == 2 && ledger.session(other).is_none());
    }
}
