//! The peer's bookkeeping as it was before the in-flight table (PR 23),
//! kept as the reference the differential test in `tests.rs` runs the
//! table peer against: five attempt-keyed collections — `slots` (every
//! attempt ever tracked, finished ones included, as replay protection),
//! its unfinished subset `active`, the `seen` dedup keys, `clients` and
//! `committed` — a finished session kept forever and a five-variant
//! journal. Same messages in, same messages out, in the same order; only
//! what is remembered, and for how long, differs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use asa_simnet::{Context, NodeId, SimNode, SimTime};
use stategen_commit::CommitMessage;
use stategen_runtime::{Runtime, RuntimeSnapshot, SessionId};
use stategen_telemetry::MetricsSnapshot;

use super::{AttemptId, PeerAction, PeerBehaviour, PeerEngine, VhMsg, TAG_PEER_CHECKPOINT};
use crate::entities::Pid;

/// [`super::CommitPeer`] as it was: same constructor, same handlers.
#[derive(Debug)]
pub struct ReferencePeer<'m> {
    engine: &'m PeerEngine,
    behaviour: PeerBehaviour,
    peer_count: usize,
    /// The attempt-execution runtime: per-attempt state is one dense
    /// `u32` plus a generation counter.
    runtime: Runtime,
    /// Which session serves each tracked attempt: the unfinished ones
    /// and, as replay protection, every finished one.
    slots: BTreeMap<AttemptId, SessionId>,
    /// The unfinished subset of `slots`. Iterated in `AttemptId` order:
    /// the order of sibling `free`/`not_free` fan-out decides the
    /// simulator's message schedule.
    active: BTreeMap<AttemptId, SessionId>,
    /// Action-kind buffer reused across deliveries (see
    /// [`ReferencePeer::feed`]).
    action_scratch: Vec<PeerAction>,
    /// Work queue of [`ReferencePeer::feed`], empty between calls; kept
    /// for its allocation.
    feed_scratch: VecDeque<(AttemptId, CommitMessage)>,
    /// Sender-level deduplication: each peer's vote/commit for an attempt
    /// is counted once, whatever a Byzantine sender replays.
    seen: BTreeSet<(AttemptId, NodeId, u8)>,
    /// The client that requested each attempt (for completion reports).
    clients: BTreeMap<AttemptId, NodeId>,
    committed: BTreeSet<AttemptId>,
    /// The recorded versions in commit order (the public view).
    history: Vec<Pid>,
    /// The versions in `history`, for membership tests.
    recorded: BTreeSet<Pid>,
    /// Abandon unfinished executions after this many ticks (paper §2.2:
    /// the tolerance bound "applies to the duration of a particular
    /// execution of the commit protocol" — executions have bounded
    /// lifetime). Also the livelock breaker: a stuck instance holding the
    /// node's choice lock is eventually released.
    gc_after: SimTime,
    gc_tags: BTreeMap<u64, AttemptId>,
    next_gc_tag: u64,
    /// Checkpoint cadence in ticks (0 disables checkpointing: a
    /// restarted peer then recovers with nothing).
    checkpoint_every: SimTime,
    /// Whether a periodic checkpoint timer is currently armed. The
    /// cadence pauses while the peer has no in-flight attempts (commits
    /// are checkpointed synchronously, so a quiescent peer is already
    /// durable) and resumes when an attempt spawns.
    checkpoint_armed: bool,
    /// The peer's simulated durable store: the last checkpoint written.
    /// `on_restart` recovers from *only* this — everything else above is
    /// treated as lost with the crash.
    checkpoint: Option<ReferenceCheckpoint>,
    /// What changed in the checkpointed bookkeeping since `checkpoint`
    /// was written. Volatile, recorded only while a checkpoint exists
    /// (the first write is a full copy) and drained by every write, so
    /// it never holds more than one checkpoint interval of changes.
    journal: Vec<JournalEntry>,
}

/// What the reference peer persists.
#[derive(Debug, Clone)]
struct ReferenceCheckpoint {
    runtime: RuntimeSnapshot,
    slots: BTreeMap<AttemptId, SessionId>,
    seen: BTreeSet<(AttemptId, NodeId, u8)>,
    clients: BTreeMap<AttemptId, NodeId>,
    committed: BTreeSet<AttemptId>,
    history: Vec<Pid>,
}

/// One change to the bookkeeping a [`ReferenceCheckpoint`] carries. The
/// history needs no entry: it only grows, so the checkpoint's length
/// says which suffix is new.
#[derive(Debug, Clone, Copy)]
enum JournalEntry {
    /// `slots` gained an attempt.
    Spawned(AttemptId, SessionId),
    /// `slots` lost an unfinished attempt (abort or GC).
    Dropped(AttemptId),
    /// `clients` learned who asked for an attempt.
    Client(AttemptId, NodeId),
    /// `seen` gained a dedup key.
    Seen((AttemptId, NodeId, u8)),
    /// `committed` gained an attempt.
    Committed(AttemptId),
}

impl ReferenceCheckpoint {
    /// Brings the bookkeeping up to date: replays `journal` in order
    /// (an attempt can be spawned, dropped and spawned again between
    /// two writes) and appends the part of `history` not yet held.
    fn apply(&mut self, journal: &[JournalEntry], history: &[Pid]) {
        for &entry in journal {
            match entry {
                JournalEntry::Spawned(attempt, session) => {
                    self.slots.insert(attempt, session);
                }
                JournalEntry::Dropped(attempt) => {
                    self.slots.remove(&attempt);
                }
                JournalEntry::Client(attempt, client) => {
                    self.clients.insert(attempt, client);
                }
                JournalEntry::Seen(key) => {
                    self.seen.insert(key);
                }
                JournalEntry::Committed(attempt) => {
                    self.committed.insert(attempt);
                }
            }
        }
        self.history
            .extend_from_slice(&history[self.history.len()..]);
    }
}
impl<'m> ReferencePeer<'m> {
    /// Creates a peer serving `engine`'s compiled machine; the first
    /// `peer_count` nodes of the simulation are the peer set.
    pub fn new(
        engine: &'m PeerEngine,
        peer_count: usize,
        behaviour: PeerBehaviour,
        gc_after: SimTime,
        checkpoint_every: SimTime,
    ) -> Self {
        ReferencePeer {
            engine,
            behaviour,
            peer_count,
            runtime: engine.engine().runtime(),
            slots: BTreeMap::new(),
            active: BTreeMap::new(),
            action_scratch: Vec::new(),
            feed_scratch: VecDeque::new(),
            seen: BTreeSet::new(),
            clients: BTreeMap::new(),
            committed: BTreeSet::new(),
            history: Vec::new(),
            recorded: BTreeSet::new(),
            gc_after,
            gc_tags: BTreeMap::new(),
            next_gc_tag: 0,
            checkpoint_every,
            checkpoint_armed: false,
            checkpoint: None,
            journal: Vec::new(),
        }
    }

    /// A point-in-time snapshot of this peer runtime's telemetry
    /// counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.runtime.metrics()
    }

    /// The sequence of versions this peer has recorded.
    pub fn history(&self) -> &[Pid] {
        &self.history
    }

    /// Attempts this peer has committed.
    pub fn committed(&self) -> &BTreeSet<AttemptId> {
        &self.committed
    }

    /// Notes a change to the checkpointed bookkeeping. Without a
    /// checkpoint there is nothing to bring up to date — the next write
    /// is a full copy — so nothing is recorded (in particular never
    /// when checkpointing is disabled).
    fn record(&mut self, entry: JournalEntry) {
        if self.checkpoint.is_some() {
            self.journal.push(entry);
        }
    }

    fn broadcast_peers(&self, ctx: &mut Context<'_, VhMsg>, message: VhMsg) {
        for i in 0..self.peer_count {
            if i != ctx.self_id().index() {
                ctx.send(NodeId(i), message.clone());
            }
        }
    }

    /// Delivers a protocol message to the attempt's runtime session and
    /// propagates all resulting actions, including the node-local
    /// `free`/`not free` signals between sibling attempts.
    fn feed(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId, message: CommitMessage) {
        // The queue is reused across calls like `action_scratch`. `feed`
        // never runs inside itself (`drop_instance` calls it once per
        // sibling, each call draining its queue), so the scratch is
        // always here to take.
        let mut queue = std::mem::take(&mut self.feed_scratch);
        queue.push_back((attempt, message));
        while let Some((a, m)) = queue.pop_front() {
            // A fresh attempt for a PID this peer already recorded is not
            // re-executed (retries of a committed update are idempotent).
            if m == CommitMessage::Update && self.recorded.contains(&a.pid) {
                continue;
            }
            let message_id = self.engine.message_id(m);
            let session = match self.slots.get(&a) {
                Some(&session) => session,
                None => {
                    // Spawn a fresh execution (recycling a released slot
                    // under a new generation, or growing the runtime —
                    // the only allocating path, amortised O(1)).
                    let session = self.runtime.spawn();
                    // A new attempt must reflect the node's current
                    // choice state: if a sibling attempt has already
                    // chosen an update, this node is not free (the
                    // `not_free` signal predates the session's creation).
                    if self.node_has_chosen() {
                        self.runtime
                            .deliver(session, self.engine.message_id(CommitMessage::NotFree));
                    }
                    self.slots.insert(a, session);
                    self.active.insert(a, session);
                    self.record(JournalEntry::Spawned(a, session));
                    self.arm_gc(ctx, a);
                    self.arm_checkpoint(ctx);
                    session
                }
            };
            // Resolve the actions to kinds in order before re-borrowing
            // `self` for the broadcasts (the action slice's borrow is
            // tied to the runtime's `&mut`). The scratch buffer is
            // reused across deliveries — no steady-state allocation —
            // and order is preserved, keeping the simulator's message
            // schedule identical to direct arena iteration.
            let mut kinds = std::mem::take(&mut self.action_scratch);
            kinds.clear();
            kinds.extend(
                self.runtime
                    .deliver(session, message_id)
                    .iter()
                    .map(|action| match action.message() {
                        "vote" => PeerAction::Vote,
                        "commit" => PeerAction::Commit,
                        "not_free" => PeerAction::NotFree,
                        "free" => PeerAction::Free,
                        other => unreachable!("unexpected action {other}"),
                    }),
            );
            let finished = self.runtime.is_finished(session);
            if finished {
                self.active.remove(&a);
            }
            for kind in &kinds {
                match kind {
                    PeerAction::Vote => self.broadcast_peers(ctx, VhMsg::Vote(a)),
                    PeerAction::Commit => self.broadcast_peers(ctx, VhMsg::Commit(a)),
                    PeerAction::NotFree => {
                        queue.extend(self.local_siblings(a).map(|s| (s, CommitMessage::NotFree)))
                    }
                    PeerAction::Free => {
                        queue.extend(self.local_siblings(a).map(|s| (s, CommitMessage::Free)))
                    }
                }
            }
            self.action_scratch = kinds;
            if finished && self.committed.insert(a) {
                self.record(JournalEntry::Committed(a));
                if self.recorded.insert(a.pid) {
                    self.history.push(a.pid);
                }
                if let Some(&client) = self.clients.get(&a) {
                    ctx.send(client, VhMsg::Committed(a));
                }
                // A commit is durable the moment it is externally
                // visible: checkpoint synchronously on history append,
                // not just at the periodic cadence.
                if self.checkpoint_every > 0 {
                    self.write_checkpoint();
                }
            }
        }
        self.feed_scratch = queue;
    }

    /// `true` while some unfinished attempt on this node has chosen its
    /// update (the node's choice lock is held). A per-state bitmap
    /// lookup, not a `StateVector` walk.
    fn node_has_chosen(&self) -> bool {
        self.active
            .values()
            .any(|&session| self.engine.has_chosen[self.runtime.state(session) as usize])
    }

    /// The other unfinished attempts on this node, in `AttemptId` order.
    fn local_siblings(&self, attempt: AttemptId) -> impl Iterator<Item = AttemptId> + '_ {
        self.active.keys().copied().filter(move |a| *a != attempt)
    }

    /// Abandons an attempt on client request, unless this peer already
    /// sent a commit for it (the update may be about to agree; the
    /// session garbage collector reclaims it later if not).
    fn abort(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId) {
        let Some(&session) = self.slots.get(&attempt) else {
            return;
        };
        if self.runtime.is_finished(session) {
            return;
        }
        if self.engine.commit_sent[self.runtime.state(session) as usize] {
            return;
        }
        self.drop_instance(ctx, attempt);
    }

    fn dedup(&mut self, attempt: AttemptId, from: NodeId, kind: u8) -> bool {
        let key = (attempt, from, kind);
        let fresh = self.seen.insert(key);
        if fresh {
            self.record(JournalEntry::Seen(key));
        }
        fresh
    }

    /// Drops an unfinished attempt — releasing its runtime session, so
    /// the slot is recycled under a fresh generation and any handle to
    /// the dropped attempt is dead — and, if it held the node's choice
    /// lock, releases the lock by signalling `free` to the sibling
    /// attempts.
    fn drop_instance(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId) {
        let Some(&session) = self.slots.get(&attempt) else {
            return;
        };
        if self.runtime.is_finished(session) {
            return;
        }
        let had_chosen = self.engine.has_chosen[self.runtime.state(session) as usize];
        self.slots.remove(&attempt);
        self.active.remove(&attempt);
        self.record(JournalEntry::Dropped(attempt));
        self.runtime.release(session);
        if had_chosen {
            // Each sibling's `free` runs to completion before the next
            // one's, so the siblings are fixed up front.
            let siblings: Vec<AttemptId> = self.local_siblings(attempt).collect();
            for sibling in siblings {
                self.feed(ctx, sibling, CommitMessage::Free);
            }
        }
    }

    /// Arms a fresh GC deadline for `attempt`.
    fn arm_gc(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId) {
        let tag = self.next_gc_tag;
        self.next_gc_tag += 1;
        self.gc_tags.insert(tag, attempt);
        ctx.set_timer(self.gc_after, tag);
    }

    /// Starts the periodic checkpoint cadence if it is enabled and not
    /// already ticking.
    fn arm_checkpoint(&mut self, ctx: &mut Context<'_, VhMsg>) {
        if self.checkpoint_every > 0 && !self.checkpoint_armed {
            self.checkpoint_armed = true;
            ctx.set_timer(self.checkpoint_every, TAG_PEER_CHECKPOINT);
        }
    }

    /// Writes the durable checkpoint: runtime snapshot + bookkeeping.
    /// The first write copies the bookkeeping; later ones bring the
    /// previous checkpoint up to date from the journal, so a write costs
    /// the snapshot's memcpy plus O(changes · log history), not a
    /// re-clone of every collection.
    fn write_checkpoint(&mut self) {
        let runtime = self.runtime.snapshot_all();
        match &mut self.checkpoint {
            Some(checkpoint) => {
                checkpoint.runtime = runtime;
                checkpoint.apply(&self.journal, &self.history);
                self.journal.clear();
            }
            None => {
                self.checkpoint = Some(ReferenceCheckpoint {
                    runtime,
                    slots: self.slots.clone(),
                    seen: self.seen.clone(),
                    clients: self.clients.clone(),
                    committed: self.committed.clone(),
                    history: self.history.clone(),
                });
            }
        }
        debug_assert!(
            self.checkpoint.as_ref().is_some_and(|c| self.holds(c)),
            "journaled checkpoint differs from a copy of the bookkeeping"
        );
    }

    /// `true` when `checkpoint`'s bookkeeping equals the live one.
    fn holds(&self, checkpoint: &ReferenceCheckpoint) -> bool {
        checkpoint.slots == self.slots
            && checkpoint.seen == self.seen
            && checkpoint.clients == self.clients
            && checkpoint.committed == self.committed
            && checkpoint.history == self.history
    }

    /// The tracked attempts still executing, derived the long way: what
    /// `active` must hold.
    fn unfinished_slots(&self) -> impl Iterator<Item = (&AttemptId, &SessionId)> {
        self.slots
            .iter()
            .filter(|(_, &session)| !self.runtime.is_finished(session))
    }
}

impl SimNode<VhMsg> for ReferencePeer<'_> {
    fn on_start(&mut self, ctx: &mut Context<'_, VhMsg>) {
        self.arm_checkpoint(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VhMsg>, tag: u64) {
        if tag == TAG_PEER_CHECKPOINT {
            self.write_checkpoint();
            // Keep ticking only while an attempt is in flight; a
            // quiescent peer's last commit was checkpointed
            // synchronously, so re-arming would just keep the
            // simulation alive for nothing. `feed` resumes the cadence
            // on the next spawn.
            if !self.active.is_empty() {
                ctx.set_timer(self.checkpoint_every, TAG_PEER_CHECKPOINT);
            } else {
                self.checkpoint_armed = false;
            }
            return;
        }
        if let Some(attempt) = self.gc_tags.remove(&tag) {
            self.drop_instance(ctx, attempt);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, VhMsg>) {
        // Everything volatile died with the crash; recover from the
        // durable checkpoint alone. `Runtime::restore` revalidates the
        // snapshot against the engine fingerprint and brings every
        // session back bit-identically — including generations, so the
        // checkpointed `slots` handles keep addressing their attempts.
        match self.checkpoint.clone() {
            Some(cp) => {
                self.runtime = Runtime::restore(self.engine.engine(), &cp.runtime)
                    .expect("checkpoint was written by this peer's own engine");
                self.slots = cp.slots;
                self.seen = cp.seen;
                self.clients = cp.clients;
                self.committed = cp.committed;
                self.history = cp.history;
            }
            None => {
                self.runtime = self.engine.engine().runtime();
                self.slots.clear();
                self.seen.clear();
                self.clients.clear();
                self.committed.clear();
                self.history.clear();
            }
        }
        // The live bookkeeping now equals the checkpoint, so the journal
        // starts over; the two indexes are derived, not checkpointed.
        self.journal.clear();
        self.recorded = self.history.iter().copied().collect();
        self.active = self
            .unfinished_slots()
            .map(|(&attempt, &session)| (attempt, session))
            .collect();
        // Timers died with the crash (the simulator discards stale-epoch
        // expiries): resume the checkpoint cadence and re-arm a fresh GC
        // budget for every restored unfinished attempt so stalled
        // executions are still reclaimed.
        self.gc_tags.clear();
        let unfinished: Vec<AttemptId> = self.active.keys().copied().collect();
        for attempt in unfinished {
            self.arm_gc(ctx, attempt);
        }
        // The crash killed the old checkpoint timer with the epoch; the
        // armed flag is volatile-but-surviving state, so reset it before
        // restarting the cadence.
        self.checkpoint_armed = false;
        self.arm_checkpoint(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, message: VhMsg) {
        match self.behaviour {
            PeerBehaviour::Silent => {}
            PeerBehaviour::Equivocator => {
                // Vote and commit for every attempt it hears about,
                // trying to drive conflicting updates to commit. One
                // blast per attempt: replays would be deduplicated by
                // correct peers anyway, so this loses no adversarial
                // power while keeping equivocator pairs from flooding
                // each other forever.
                let attempt = match message {
                    VhMsg::ClientUpdate(a)
                    | VhMsg::Vote(a)
                    | VhMsg::Commit(a)
                    | VhMsg::Abort(a) => a,
                    VhMsg::Committed(_) => return,
                };
                if self.dedup(attempt, NodeId(usize::MAX), u8::MAX) {
                    self.broadcast_peers(ctx, VhMsg::Vote(attempt));
                    self.broadcast_peers(ctx, VhMsg::Commit(attempt));
                }
            }
            PeerBehaviour::Correct => match message {
                VhMsg::ClientUpdate(a) => {
                    if self.recorded.contains(&a.pid) {
                        // Already recorded (an earlier attempt won):
                        // confirm without re-executing the protocol.
                        ctx.send(from, VhMsg::Committed(a));
                    } else if self.dedup(a, from, 0) {
                        self.clients.insert(a, from);
                        self.record(JournalEntry::Client(a, from));
                        self.feed(ctx, a, CommitMessage::Update);
                    }
                }
                VhMsg::Vote(a) => {
                    if self.dedup(a, from, 1) {
                        self.feed(ctx, a, CommitMessage::Vote);
                    }
                }
                VhMsg::Commit(a) => {
                    if self.dedup(a, from, 2) {
                        self.feed(ctx, a, CommitMessage::Commit);
                    }
                }
                VhMsg::Abort(a) => self.abort(ctx, a),
                VhMsg::Committed(_) => {}
            },
        }
    }
}
