//! The version-history service (paper §2.2): recording new GUID→PID
//! mappings through the Byzantine-fault-tolerant commit protocol.
//!
//! One harness instance models the peer set of a single GUID: `r` peers
//! plus one or more client endpoints, all exchanging messages over the
//! deterministic network simulator. Each peer serves its update
//! attempts from a per-peer [`Runtime`] over the shared compiled commit
//! engine — the *EFSM tier*: the 9-state parameter-generic commit EFSM
//! compiled once and bound to the replication factor's thresholds, so
//! one artifact covers every `r` without regenerating an FSM family
//! member — `Engine` unfolds the bound machine onto the dense table on
//! boot, the paper's bind-then-generate done at load time — (one dense
//! `u32` per attempt, naming its state and both counters, addressed by
//! a typed
//! generational [`SessionId`]; slots of aborted or garbage-collected
//! unfinished attempts are recycled through the runtime's free list —
//! stale handles to them fail loudly instead of silently serving a
//! recycled attempt — while finished attempts keep theirs as replay
//! protection) instead of allocating a full interpreter instance per
//! attempt — the deployment shape the paper's ASA peers need at scale.
//! Peers vote for updates in arrival
//! order, exchange `vote`/`commit` messages, and append an update to
//! their local history once the external commit threshold is reached;
//! endpoints detect completion when `f + 1` distinct peers report the
//! commit (the only answer a Byzantine minority cannot forge) and operate
//! the paper's timeout/retry scheme with configurable back-off.
//!
//! ## Reconstruction note (documented in `docs/STORAGE.md`)
//!
//! The paper names the endpoint timeout/retry scheme but does not specify
//! how a deadlocked attempt is abandoned at the peers. We model a retry
//! as a *fresh attempt* (same PID, new attempt number) preceded by an
//! `abort` of the old one; a peer abandons an attempt only while it has
//! not yet sent a `commit` for it, releasing its choice lock (`free`) so
//! the new attempt can be voted for. Committed attempts for an
//! already-recorded PID are deduplicated when appending to the history.
//!
//! `docs/STORAGE.md` also describes the peer's bookkeeping — what each
//! collection is for and what every path costs as the history grows —
//! and the durability model (checkpoint, volatile journal, what a
//! restarted peer may have lost).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use asa_simnet::{Context, NodeId, SimConfig, SimNode, SimStats, SimTime, Simulation};
use stategen_commit::{
    commit_efsm, commit_efsm_params, commit_efsm_state_flags, CommitConfig, CommitMessage,
};
use stategen_core::MessageId;
use stategen_runtime::{Artifact, Engine, Runtime, RuntimeSnapshot, SessionId, TimerWheel};
use stategen_telemetry::{LogHistogram, MetricsSnapshot};

use crate::backoff::{RetryScheme, ServerOrdering};
use crate::entities::Pid;

/// Identifier of one protocol execution: an update (PID) plus the
/// endpoint's attempt number (retries are fresh executions, paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttemptId {
    /// The version being recorded.
    pub pid: Pid,
    /// Which client submitted it (disambiguates concurrent clients).
    pub client: u32,
    /// Retry number, starting at 0.
    pub attempt: u32,
}

/// Messages of the version-history service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VhMsg {
    /// Client → peers: request to record this update.
    ClientUpdate(AttemptId),
    /// Peer → peers: vote for an update.
    Vote(AttemptId),
    /// Peer → peers: commit an update.
    Commit(AttemptId),
    /// Client → peers: abandon a (presumed deadlocked) attempt.
    Abort(AttemptId),
    /// Peer → client: this peer has committed the update.
    Committed(AttemptId),
}

/// How a peer behaves (paper §2: operation on non-trusted platforms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerBehaviour {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Fail-stop: never reacts (crashed from the start).
    Silent,
    /// Byzantine: votes and commits for every attempt it hears about,
    /// trying to commit conflicting updates.
    Equivocator,
}

/// The compiled commit engine shared by a harness's whole peer set,
/// plus the per-state protocol facts the peer logic needs resolved to
/// dense state ids: whether a state holds the node's choice lock
/// (`has_chosen`) and whether it has already sent its commit
/// (`commit_sent`). Compiling once and indexing per-state bitmaps
/// replaces the old per-delivery `StateVector` inspection.
///
/// The peers serve the *EFSM tier*: the 9-state parameter-generic
/// commit EFSM is compiled once and bound to the harness's replication
/// factor via `Spec::efsm` — one compiled machine covers every
/// replication factor without regenerating an FSM family member, and
/// each attempt session's two vote/commit counters live inside the
/// peer's [`Runtime`] (bound, the machine unfolds onto the dense tier:
/// state and counters are one configuration id, read back as the
/// 9-state machine's ids and registers).
///
/// The engine is the owned [`Engine`] of the `stategen-runtime`
/// pipeline — cheap to clone (shared `Arc` tables), so every peer's
/// [`Runtime`] serves the same compiled artifact.
#[derive(Debug)]
pub struct PeerEngine {
    engine: Engine,
    has_chosen: Box<[bool]>,
    commit_sent: Box<[bool]>,
    message_ids: [MessageId; 5],
}

impl PeerEngine {
    /// Boots the commit engine *through its deployable artifact*: the
    /// EFSM bound to `config`'s thresholds is encoded to the versioned
    /// binary image ([`PeerEngine::artifact_image`]) and the engine is
    /// built from the loaded bytes alone, exactly as a serving host in
    /// the fleet would — so every harness, property and chaos run in
    /// this crate exercises the artifact loader end to end. Per-state
    /// flags are resolved by EFSM state name; dense state ids are
    /// assigned in machine order, so the flags index by the compiled
    /// state id.
    pub fn new(config: &CommitConfig) -> Self {
        let efsm = commit_efsm();
        let (has_chosen, commit_sent): (Vec<bool>, Vec<bool>) = efsm
            .states()
            .iter()
            .map(|s| commit_efsm_state_flags(s.name()))
            .unzip();
        let image = PeerEngine::artifact_image(config);
        let artifact = Artifact::load(&image).expect("freshly saved image is canonical");
        let engine = Engine::from_artifact(&artifact).expect("commit artifact boots");
        // Indexed by enum discriminant (not `ALL` order), matching the
        // `message_id` lookup below.
        let resolve = |m: CommitMessage| {
            engine
                .message_id(m.as_str())
                .expect("commit alphabet is fixed")
        };
        let mut message_ids = [resolve(CommitMessage::Update); 5];
        for m in CommitMessage::ALL {
            message_ids[m as usize] = resolve(m);
        }
        PeerEngine {
            engine,
            has_chosen: has_chosen.into_boxed_slice(),
            commit_sent: commit_sent.into_boxed_slice(),
            message_ids,
        }
    }

    /// The owned compiled engine (e.g. for building further runtimes).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The deployable artifact image of the commit protocol bound to
    /// `config`'s thresholds: the exact bytes a rollout coordinator
    /// ships to the fleet. [`PeerEngine::new`] boots from these bytes;
    /// the chaos campaigns corrupt and version-skew them to pin down
    /// the loader's rejection behaviour.
    pub fn artifact_image(config: &CommitConfig) -> Vec<u8> {
        Artifact::from_efsm(&commit_efsm(), commit_efsm_params(config))
            .expect("commit binding arity matches the EFSM's parameters")
            .save()
    }

    /// The dense message id of a commit-protocol message (O(1), no
    /// string lookup on the hot path).
    fn message_id(&self, message: CommitMessage) -> MessageId {
        self.message_ids[message as usize]
    }
}

/// A commit-protocol action resolved to its kind (the scratch form
/// [`CommitPeer::feed`] replays after the delivery borrow ends).
#[derive(Debug, Clone, Copy)]
enum PeerAction {
    Vote,
    Commit,
    Free,
    NotFree,
}

/// One peer-set member serving the commit protocol from a per-peer
/// [`Runtime`]: one session per update attempt (one dense `u32` of
/// state each, addressed by a typed [`SessionId`]) instead of one
/// interpreter instance per attempt. Sessions of *unfinished* attempts
/// that are aborted or garbage-collected are [`Runtime::release`]d —
/// recycled through the runtime's generational free list, so a stale
/// handle can never silently address the recycled slot's next attempt.
/// Finished attempts deliberately keep their session and `slots` entry
/// forever, as replay protection — a replayed vote for a committed
/// attempt must hit the absorbing finished session, not spawn a fresh
/// execution.
///
/// A peer keeps serving as its history grows, so no path walks the
/// history or the finished attempts: membership tests go through the
/// ordered `slots`/`seen`/`recorded` collections (O(log history)),
/// sibling signalling and the choice lock walk only `active` (the
/// unfinished attempts), and a checkpoint write applies the journal of
/// changes since the last write instead of re-cloning the bookkeeping
/// (`docs/STORAGE.md` has the per-path cost table).
#[derive(Debug)]
pub struct CommitPeer<'m> {
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
    /// [`CommitPeer::feed`]).
    action_scratch: Vec<PeerAction>,
    /// Work queue of [`CommitPeer::feed`], empty between calls; kept
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
    checkpoint: Option<PeerCheckpoint>,
    /// What changed in the checkpointed bookkeeping since `checkpoint`
    /// was written. Volatile, recorded only while a checkpoint exists
    /// (the first write is a full copy) and drained by every write, so
    /// it never holds more than one checkpoint interval of changes.
    journal: Vec<JournalEntry>,
    /// Flight-recorder ring capacity (0 = unobserved). Remembered so
    /// the recorder is re-attached after a crash recovery rebuilds the
    /// runtime — telemetry is volatile, not checkpointed.
    recorder_capacity: usize,
}

/// Session-reclaim statistics for one peer's runtime (see
/// [`CommitPeer::gc_stats`]), split by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerGcStats {
    /// Sessions reclaimed after their execution reached a finish state.
    /// In this protocol finished attempts deliberately keep their
    /// session as replay protection, so this stays 0 for correct peers —
    /// a nonzero value flags a replay-protection regression.
    pub finished: u64,
    /// Sessions reclaimed *before* finishing: GC abandonment of stalled
    /// executions and client-requested aborts.
    pub aborted: u64,
}

/// What a peer persists: its [`Runtime`] snapshot plus the protocol
/// bookkeeping that gives the restored sessions meaning. Written
/// atomically (it is one in-memory value), so a recovered peer is
/// always internally consistent — it may merely be *stale* by up to one
/// checkpoint interval.
#[derive(Debug, Clone)]
struct PeerCheckpoint {
    runtime: RuntimeSnapshot,
    slots: BTreeMap<AttemptId, SessionId>,
    seen: BTreeSet<(AttemptId, NodeId, u8)>,
    clients: BTreeMap<AttemptId, NodeId>,
    committed: BTreeSet<AttemptId>,
    history: Vec<Pid>,
}

/// One change to the bookkeeping a [`PeerCheckpoint`] carries. The
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

impl PeerCheckpoint {
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

/// Peer timer tag for the periodic checkpoint (GC tags count up from 0
/// and can never reach it).
const TAG_PEER_CHECKPOINT: u64 = u64::MAX;

impl<'m> CommitPeer<'m> {
    /// Creates a peer serving `engine`'s compiled machine; the first
    /// `peer_count` nodes of the simulation are the peer set.
    pub fn new(
        engine: &'m PeerEngine,
        peer_count: usize,
        behaviour: PeerBehaviour,
        gc_after: SimTime,
        checkpoint_every: SimTime,
    ) -> Self {
        CommitPeer {
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
            recorder_capacity: 0,
        }
    }

    /// Attaches a flight recorder (per-shard ring of `capacity`
    /// transitions) to this peer's runtime, surviving crash recoveries:
    /// `on_restart` re-attaches it to the restored runtime (the ring
    /// contents die with the crash — telemetry is volatile by design).
    pub fn attach_recorder(&mut self, capacity: usize) {
        self.recorder_capacity = capacity;
        if capacity > 0 {
            self.runtime.attach_recorder(capacity);
        }
    }

    /// A point-in-time snapshot of this peer runtime's telemetry
    /// counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.runtime.metrics()
    }

    /// Session-reclaim counters split by cause (see [`PeerGcStats`]).
    pub fn gc_stats(&self) -> PeerGcStats {
        let m = self.runtime.metrics();
        PeerGcStats {
            finished: m.releases_finished,
            aborted: m.releases_aborted,
        }
    }

    /// Renders this peer's flight-recorder rings as a human-readable
    /// trace (see [`Runtime::dump_trace`]).
    pub fn dump_trace(&self) -> String {
        self.runtime.dump_trace()
    }

    /// The sequence of versions this peer has recorded.
    pub fn history(&self) -> &[Pid] {
        &self.history
    }

    /// Attempts this peer has committed.
    pub fn committed(&self) -> &BTreeSet<AttemptId> {
        &self.committed
    }

    /// This peer's behaviour.
    pub fn behaviour(&self) -> PeerBehaviour {
        self.behaviour
    }

    /// The runtime serving this peer's attempts (live sessions; slots of
    /// released attempts stay recycled inside it).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Attempts currently tracked (in-flight or finished-and-recorded).
    pub fn tracked_attempts(&self) -> usize {
        self.slots.len()
    }

    /// Tracked attempts still executing. Bounded by what the clients
    /// have outstanding, not by the history length: 0 at quiescence.
    pub fn in_flight_attempts(&self) -> usize {
        self.active.len()
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
                self.checkpoint = Some(PeerCheckpoint {
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
        debug_assert!(self.indexes_are_exact());
    }

    /// `true` when `checkpoint`'s bookkeeping equals the live one.
    fn holds(&self, checkpoint: &PeerCheckpoint) -> bool {
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

    /// `true` when `active` and `recorded` equal their derivations from
    /// `slots` + [`Runtime::is_finished`] and from `history`.
    fn indexes_are_exact(&self) -> bool {
        self.active.iter().eq(self.unfinished_slots())
            && self.recorded.len() == self.history.len()
            && self.history.iter().all(|pid| self.recorded.contains(pid))
    }
}

impl SimNode<VhMsg> for CommitPeer<'_> {
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
        // Telemetry is volatile: the rebuilt runtime starts unobserved,
        // so re-attach the recorder the operator configured.
        if self.recorder_capacity > 0 {
            self.runtime.attach_recorder(self.recorder_capacity);
        }
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

/// Outcome of one client update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The version recorded.
    pub pid: Pid,
    /// Attempts needed (1 = no retry).
    pub attempts: u32,
    /// Virtual time from first submission to confirmed commit (or to
    /// giving up).
    pub latency: SimTime,
    /// `false` if the endpoint exhausted its attempt budget and gave up
    /// on this update without confirmation.
    pub committed: bool,
}

/// A client endpoint: submits its updates sequentially, confirms each
/// commit via `f + 1` peer reports, retries deadlocked attempts with the
/// configured back-off (paper §2.2), and gives up after a bounded number
/// of attempts instead of spinning forever.
///
/// All endpoint deadlines — per-peer contact staggers, the attempt
/// timeout, the retry back-off — are logical timers in a hierarchical
/// [`TimerWheel`]; the simulator only sees coalesced `TAG_WHEEL`
/// wake-ups at the wheel's next-deadline hint. Confirmed commits
/// *cancel* their timeout in O(1) rather than letting it fire and be
/// filtered.
#[derive(Debug)]
pub struct ClientEndpoint {
    id: u32,
    peer_count: usize,
    needed_reports: u32,
    updates: VecDeque<Pid>,
    retry: RetryScheme,
    ordering: ServerOrdering,
    timeout: SimTime,
    contact_stagger: SimTime,
    /// Give up on an update after this many attempts (≥ 1).
    max_attempts: u32,
    pending: Option<Pending>,
    outcomes: Vec<UpdateOutcome>,
    /// Logical timers, keyed by the endpoint tag encoding.
    wheel: TimerWheel<u64>,
    /// Earliest simulator wake-up currently scheduled for the wheel.
    wheel_wake: Option<SimTime>,
    /// Expired-tag buffer reused across wake-ups.
    fire_scratch: Vec<u64>,
    /// Virtual-time-to-commit of each *confirmed* update (first
    /// submission → `f + 1` reports), log-bucketed for p50/p99
    /// extraction without retaining per-update samples.
    latency_hist: Box<LogHistogram>,
    /// Attempts needed per resolved update (committed or given up);
    /// bucket 1 = no retry.
    retry_hist: Box<LogHistogram>,
}

#[derive(Debug)]
struct Pending {
    attempt: AttemptId,
    reporters: BTreeSet<NodeId>,
    submitted_at: SimTime,
    first_submitted_at: SimTime,
}

/// Endpoint timer tags. `TAG_TIMEOUT`/`TAG_CONTACT` key logical timers
/// inside the endpoint's wheel; `TAG_WHEEL` is the only tag the
/// simulator ever carries for a client (the coalesced wake-up).
const TAG_TIMEOUT: u64 = 1 << 62;
const TAG_CONTACT: u64 = 1 << 61;
const TAG_WHEEL: u64 = 1 << 60;

impl ClientEndpoint {
    /// Creates an endpoint submitting `updates` (in order) to the peer
    /// set formed by the first `peer_count` simulation nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        peer_count: usize,
        max_faulty: u32,
        updates: Vec<Pid>,
        retry: RetryScheme,
        ordering: ServerOrdering,
        timeout: SimTime,
        contact_stagger: SimTime,
        max_attempts: u32,
    ) -> Self {
        ClientEndpoint {
            id,
            peer_count,
            needed_reports: max_faulty + 1,
            updates: updates.into(),
            retry,
            ordering,
            timeout,
            contact_stagger,
            max_attempts: max_attempts.max(1),
            pending: None,
            outcomes: Vec::new(),
            wheel: TimerWheel::new(),
            wheel_wake: None,
            fire_scratch: Vec::new(),
            latency_hist: Box::new(LogHistogram::new()),
            retry_hist: Box::new(LogHistogram::new()),
        }
    }

    /// Completed updates, in submission order.
    pub fn outcomes(&self) -> &[UpdateOutcome] {
        &self.outcomes
    }

    /// Commit-latency histogram over this endpoint's confirmed updates.
    pub fn commit_latency(&self) -> &LogHistogram {
        &self.latency_hist
    }

    /// Attempts-per-update histogram over this endpoint's resolved
    /// updates (committed or given up).
    pub fn retry_attempts(&self) -> &LogHistogram {
        &self.retry_hist
    }

    /// `true` once every queued update has been resolved — committed or
    /// given up on (check [`UpdateOutcome::committed`] to distinguish).
    pub fn is_done(&self) -> bool {
        self.pending.is_none() && self.updates.is_empty()
    }

    /// Arms a logical timer `delay` ticks from now in the endpoint's
    /// wheel (re-arming if the tag is already pending) and makes sure a
    /// simulator wake-up covers it.
    fn arm(&mut self, ctx: &mut Context<'_, VhMsg>, delay: SimTime, tag: u64) {
        self.wheel.arm(tag, ctx.now() + delay.max(1));
        self.schedule_wake(ctx);
    }

    /// Schedules a `TAG_WHEEL` wake-up at the wheel's next-deadline
    /// hint unless an earlier one is already outstanding. The hint is a
    /// coarse lower bound, so a wake-up may find nothing expired and
    /// simply re-schedule — bounded by the wheel's level count.
    fn schedule_wake(&mut self, ctx: &mut Context<'_, VhMsg>) {
        let Some(hint) = self.wheel.next_deadline() else {
            return;
        };
        let now = ctx.now();
        let at = hint.max(now + 1);
        let earlier = match self.wheel_wake {
            Some(scheduled) => at < scheduled,
            None => true,
        };
        if earlier {
            ctx.set_timer(at - now, TAG_WHEEL);
            self.wheel_wake = Some(at);
        }
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, VhMsg>) {
        let Some(pid) = self.updates.pop_front() else {
            return;
        };
        let attempt = AttemptId {
            pid,
            client: self.id,
            attempt: 0,
        };
        let now = ctx.now();
        self.pending = Some(Pending {
            attempt,
            reporters: BTreeSet::new(),
            submitted_at: now,
            first_submitted_at: now,
        });
        self.contact_peers(ctx, attempt);
    }

    fn contact_peers(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId) {
        // Paper §2.2: fixed or random server ordering. Contacts are
        // staggered so the order is visible through network latency.
        let order = self.ordering.order(self.peer_count, ctx.rng());
        for (slot, peer) in order.into_iter().enumerate() {
            let delay = self.contact_stagger * slot as u64;
            if delay == 0 {
                ctx.send(NodeId(peer), VhMsg::ClientUpdate(attempt));
            } else {
                self.arm(
                    ctx,
                    delay,
                    TAG_CONTACT | (attempt.attempt as u64) << 16 | peer as u64,
                );
            }
        }
        self.arm(ctx, self.timeout, TAG_TIMEOUT | u64::from(attempt.attempt));
    }

    fn on_committed(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, attempt: AttemptId) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        if attempt.pid != pending.attempt.pid || attempt.client != self.id {
            return;
        }
        pending.reporters.insert(from);
        if pending.reporters.len() as u32 >= self.needed_reports {
            let outcome = UpdateOutcome {
                pid: attempt.pid,
                attempts: pending.attempt.attempt + 1,
                latency: ctx.now() - pending.first_submitted_at,
                committed: true,
            };
            let attempt_no = pending.attempt.attempt;
            self.latency_hist.record(outcome.latency);
            self.retry_hist.record(u64::from(outcome.attempts));
            self.outcomes.push(outcome);
            self.pending = None;
            // The attempt is confirmed: cancel its timeout (and any
            // still-staggered contacts) instead of letting them fire.
            self.wheel.cancel(&(TAG_TIMEOUT | u64::from(attempt_no)));
            for peer in 0..self.peer_count as u64 {
                self.wheel
                    .cancel(&(TAG_CONTACT | (attempt_no as u64) << 16 | peer));
            }
            self.submit_next(ctx);
        }
    }

    fn on_timeout(&mut self, ctx: &mut Context<'_, VhMsg>, stale_attempt: u32) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        if pending.attempt.attempt != stale_attempt {
            return; // a newer attempt is already in flight
        }
        // Abort the stalled attempt everywhere.
        let old = pending.attempt;
        for i in 0..self.peer_count {
            ctx.send(NodeId(i), VhMsg::Abort(old));
        }
        if old.attempt + 1 >= self.max_attempts {
            // Attempt budget exhausted: degrade gracefully. Surface the
            // failure as an uncommitted outcome and move on to the next
            // update instead of retrying forever.
            let first_submitted_at = pending.first_submitted_at;
            self.pending = None;
            // Given-up updates count toward the retry histogram but not
            // the commit-latency one (nothing committed).
            self.retry_hist.record(u64::from(old.attempt + 1));
            self.outcomes.push(UpdateOutcome {
                pid: old.pid,
                attempts: old.attempt + 1,
                latency: ctx.now() - first_submitted_at,
                committed: false,
            });
            self.submit_next(ctx);
            return;
        }
        // Back off, then retry as a fresh execution.
        let next = AttemptId {
            pid: old.pid,
            client: self.id,
            attempt: old.attempt + 1,
        };
        pending.attempt = next;
        pending.reporters.clear();
        pending.submitted_at = ctx.now();
        let backoff = self.retry.delay(old.attempt, ctx.rng());
        self.arm(
            ctx,
            backoff,
            TAG_CONTACT | (next.attempt as u64) << 16 | 0xFFFF,
        );
    }

    /// Dispatches one expired logical timer from the wheel.
    fn fire(&mut self, ctx: &mut Context<'_, VhMsg>, tag: u64) {
        if tag & TAG_TIMEOUT != 0 {
            self.on_timeout(ctx, (tag & 0xFFFF) as u32);
        } else if tag & TAG_CONTACT != 0 {
            let peer = (tag & 0xFFFF) as usize;
            let attempt_no = ((tag >> 16) & 0xFFFF) as u32;
            let Some(pending) = self.pending.as_ref() else {
                return;
            };
            if pending.attempt.attempt != attempt_no {
                return;
            }
            let attempt = pending.attempt;
            if peer == 0xFFFF {
                // Back-off elapsed: contact the peer set for the retry.
                self.contact_peers(ctx, attempt);
            } else {
                ctx.send(NodeId(peer), VhMsg::ClientUpdate(attempt));
            }
        }
    }
}

impl SimNode<VhMsg> for ClientEndpoint {
    fn on_start(&mut self, ctx: &mut Context<'_, VhMsg>) {
        self.submit_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, message: VhMsg) {
        if let VhMsg::Committed(attempt) = message {
            self.on_committed(ctx, from, attempt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VhMsg>, tag: u64) {
        if tag != TAG_WHEEL {
            return;
        }
        // A coalesced wake-up: advance the wheel to virtual now and
        // dispatch every expired logical timer. The expired slice
        // borrows the wheel, so buffer the tags before dispatching
        // (dispatch may arm new timers in the same wheel).
        self.wheel_wake = None;
        let mut fired = std::mem::take(&mut self.fire_scratch);
        fired.clear();
        fired.extend_from_slice(self.wheel.advance(ctx.now()));
        for &tag in &fired {
            self.fire(ctx, tag);
        }
        self.fire_scratch = fired;
        self.schedule_wake(ctx);
    }
}

/// Heterogeneous node wrapper for the harness. Both variants are boxed:
/// they are dispatch targets, not data the simulator moves around, and
/// boxing keeps the enum (and the harness's node vector) slot-sized.
#[derive(Debug)]
pub enum VhNode<'m> {
    /// A peer-set member.
    Peer(Box<CommitPeer<'m>>),
    /// A client endpoint.
    Client(Box<ClientEndpoint>),
}

impl SimNode<VhMsg> for VhNode<'_> {
    fn on_start(&mut self, ctx: &mut Context<'_, VhMsg>) {
        match self {
            VhNode::Peer(p) => p.on_start(ctx),
            VhNode::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, message: VhMsg) {
        match self {
            VhNode::Peer(p) => p.on_message(ctx, from, message),
            VhNode::Client(c) => c.on_message(ctx, from, message),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VhMsg>, tag: u64) {
        match self {
            VhNode::Peer(p) => p.on_timer(ctx, tag),
            VhNode::Client(c) => c.on_timer(ctx, tag),
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, VhMsg>) {
        match self {
            VhNode::Peer(p) => p.on_restart(ctx),
            VhNode::Client(c) => c.on_restart(ctx),
        }
    }
}

/// Parameters of a version-history simulation.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Replication factor (peer-set size).
    pub replication_factor: u32,
    /// Behaviour of each peer (padded with `Correct`).
    pub behaviours: Vec<PeerBehaviour>,
    /// Updates submitted by each client (one endpoint per entry).
    pub client_updates: Vec<Vec<Pid>>,
    /// Endpoint retry scheme.
    pub retry: RetryScheme,
    /// Endpoint server-contact ordering.
    pub ordering: ServerOrdering,
    /// Endpoint timeout before declaring an attempt deadlocked.
    pub timeout: SimTime,
    /// Stagger between contacting consecutive peers.
    pub contact_stagger: SimTime,
    /// Peers abandon unfinished protocol executions after this long.
    pub peer_gc: SimTime,
    /// Endpoints give up on an update after this many attempts,
    /// surfacing an uncommitted [`UpdateOutcome`] instead of retrying
    /// forever.
    pub max_attempts: u32,
    /// Peer checkpoint cadence in ticks; 0 disables checkpointing, so a
    /// restarted peer recovers with empty state.
    pub checkpoint_every: SimTime,
    /// Fault schedule: `(peer, crash_at, restart_at)` triples applied as
    /// simulator control events. A `restart_at <= crash_at` means the
    /// peer never comes back.
    pub crashes: Vec<(u32, SimTime, SimTime)>,
    /// Network parameters.
    pub net: SimConfig,
    /// Abandon the run at this virtual time.
    pub deadline: SimTime,
    /// Flight-recorder ring capacity per peer shard (0 = unobserved).
    /// Recorders survive crash recoveries (re-attached on restart) and
    /// their dumps are collected into [`HarnessReport::flight_dumps`].
    pub flight_recorder: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            replication_factor: 4,
            behaviours: Vec::new(),
            client_updates: vec![vec![Pid::of(b"default update")]],
            retry: RetryScheme::Exponential {
                base: 200,
                max: 5_000,
            },
            ordering: ServerOrdering::Fixed,
            timeout: 1_000,
            contact_stagger: 2,
            peer_gc: 4_000,
            max_attempts: 1_000,
            checkpoint_every: 0,
            crashes: Vec::new(),
            net: SimConfig::default(),
            deadline: 2_000_000,
            flight_recorder: 0,
        }
    }
}

/// Results of a harness run.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// Per-peer recorded history (index = peer node id).
    pub histories: Vec<Vec<Pid>>,
    /// Behaviour of each peer (same indexing).
    pub behaviours: Vec<PeerBehaviour>,
    /// Per-client outcomes.
    pub outcomes: Vec<Vec<UpdateOutcome>>,
    /// Which peers were crash-scheduled at any point (same indexing as
    /// `histories`).
    pub crashed: Vec<bool>,
    /// `true` if every client confirmed every update (a given-up update
    /// counts as not committed).
    pub all_committed: bool,
    /// Network statistics.
    pub stats: SimStats,
    /// Virtual time when the run ended.
    pub end_time: SimTime,
    /// Commit-latency histogram (virtual time from first submission to
    /// `f + 1` confirmations), merged across every client.
    pub commit_latency: LogHistogram,
    /// Attempts-per-resolved-update histogram, merged across every
    /// client (bucket 1 = committed without retry).
    pub retry_attempts: LogHistogram,
    /// Telemetry counters merged across every peer's runtime.
    pub peer_metrics: MetricsSnapshot,
    /// Per-peer flight-recorder dumps (index = peer node id); empty
    /// unless [`HarnessConfig::flight_recorder`] was nonzero.
    pub flight_dumps: Vec<String>,
}

impl HarnessReport {
    /// Histories of the correct peers only.
    pub fn correct_histories(&self) -> Vec<&Vec<Pid>> {
        self.histories
            .iter()
            .zip(&self.behaviours)
            .filter(|(_, b)| **b == PeerBehaviour::Correct)
            .map(|(h, _)| h)
            .collect()
    }

    /// `true` when all correct peers recorded exactly the same sequence
    /// (the paper's serialisation requirement: "a globally consistent
    /// view ... the same orderings in the version history").
    pub fn orders_agree(&self) -> bool {
        let correct = self.correct_histories();
        correct.windows(2).all(|w| w[0] == w[1])
    }

    /// `true` when all correct peers recorded the same *set* of versions.
    pub fn sets_agree(&self) -> bool {
        let correct = self.correct_histories();
        correct.windows(2).all(|w| {
            let a: BTreeSet<&Pid> = w[0].iter().collect();
            let b: BTreeSet<&Pid> = w[1].iter().collect();
            a == b
        })
    }

    /// Histories of the correct peers that were never crash-scheduled.
    /// The protocol has no anti-entropy/catch-up phase, so a restarted
    /// peer may legitimately lag behind its checkpoint; agreement claims
    /// under a crash schedule are made over the stable peers.
    pub fn stable_histories(&self) -> Vec<&Vec<Pid>> {
        self.histories
            .iter()
            .zip(&self.behaviours)
            .zip(&self.crashed)
            .filter(|((_, b), c)| **b == PeerBehaviour::Correct && !**c)
            .map(|((h, _), _)| h)
            .collect()
    }

    /// [`HarnessReport::orders_agree`] restricted to stable (correct,
    /// never-crashed) peers.
    pub fn orders_agree_stable(&self) -> bool {
        let stable = self.stable_histories();
        stable.windows(2).all(|w| w[0] == w[1])
    }

    /// [`HarnessReport::sets_agree`] restricted to stable peers.
    pub fn sets_agree_stable(&self) -> bool {
        let stable = self.stable_histories();
        stable.windows(2).all(|w| {
            let a: BTreeSet<&Pid> = w[0].iter().collect();
            let b: BTreeSet<&Pid> = w[1].iter().collect();
            a == b
        })
    }

    /// The history returned consistently by at least `max_faulty + 1`
    /// peers — the only answer a Byzantine minority cannot forge (paper
    /// §2.2: "select the (only possible) one that is returned
    /// consistently by at least f+1 nodes").
    pub fn read_consistent(&self, max_faulty: u32) -> Option<Vec<Pid>> {
        let needed = (max_faulty + 1) as usize;
        for candidate in &self.histories {
            let agreeing = self.histories.iter().filter(|h| *h == candidate).count();
            if agreeing >= needed {
                return Some(candidate.clone());
            }
        }
        None
    }

    /// Total retries across all clients.
    pub fn total_retries(&self) -> u32 {
        self.outcomes
            .iter()
            .flatten()
            .map(|o| o.attempts.saturating_sub(1))
            .sum()
    }
}

/// Wires `config`'s peer set (nodes `0..r`), client endpoints and
/// fault schedule into a simulation that has not started yet.
fn harness_simulation<'m>(
    config: &HarnessConfig,
    commit_config: &CommitConfig,
    engine: &'m PeerEngine,
) -> Simulation<VhMsg, VhNode<'m>> {
    let r = config.replication_factor as usize;
    let mut nodes: Vec<VhNode<'_>> = Vec::new();
    for i in 0..r {
        let behaviour = config.behaviours.get(i).copied().unwrap_or_default();
        let mut peer = CommitPeer::new(
            engine,
            r,
            behaviour,
            config.peer_gc,
            config.checkpoint_every,
        );
        peer.attach_recorder(config.flight_recorder);
        nodes.push(VhNode::Peer(Box::new(peer)));
    }
    for (ci, updates) in config.client_updates.iter().enumerate() {
        nodes.push(VhNode::Client(Box::new(ClientEndpoint::new(
            ci as u32,
            r,
            commit_config.max_faulty(),
            updates.clone(),
            config.retry,
            config.ordering,
            config.timeout,
            config.contact_stagger,
            config.max_attempts,
        ))));
    }
    let mut sim = Simulation::new(config.net.clone(), nodes);
    for &(peer, crash_at, restart_at) in &config.crashes {
        let node = NodeId(peer as usize);
        assert!((peer as usize) < r, "crash schedule names a non-peer node");
        sim.schedule_crash(node, crash_at);
        if restart_at > crash_at {
            sim.schedule_restart(node, restart_at);
        }
    }
    sim
}

/// Runs a version-history simulation with the commit protocol served
/// from the EFSM tier: one compiled 9-state machine, bound to the
/// configured replication factor's thresholds at ingest.
pub fn run_harness(config: &HarnessConfig) -> HarnessReport {
    let commit_config =
        CommitConfig::new(config.replication_factor).expect("valid replication factor");
    // Compile once per harness; every peer's session pool shares it.
    let engine = PeerEngine::new(&commit_config);
    let r = config.replication_factor as usize;
    let mut sim = harness_simulation(config, &commit_config, &engine);
    let mut crashed = vec![false; r];
    for &(peer, _, _) in &config.crashes {
        crashed[peer as usize] = true;
    }
    sim.run_until(config.deadline);
    let mut histories = Vec::with_capacity(r);
    let mut behaviours = Vec::with_capacity(r);
    let mut peer_metrics = MetricsSnapshot::default();
    let mut flight_dumps = Vec::new();
    for i in 0..r {
        match sim.node(NodeId(i)) {
            VhNode::Peer(p) => {
                histories.push(p.history().to_vec());
                behaviours.push(p.behaviour());
                peer_metrics.merge(&p.metrics());
                if config.flight_recorder > 0 {
                    flight_dumps.push(p.dump_trace());
                }
            }
            VhNode::Client(_) => unreachable!("peers precede clients"),
        }
    }
    let mut outcomes = Vec::new();
    let mut all_committed = true;
    let mut commit_latency = LogHistogram::new();
    let mut retry_attempts = LogHistogram::new();
    for i in r..sim.node_count() {
        match sim.node(NodeId(i)) {
            VhNode::Client(c) => {
                all_committed &= c.is_done() && c.outcomes().iter().all(|o| o.committed);
                outcomes.push(c.outcomes().to_vec());
                commit_latency.merge(c.commit_latency());
                retry_attempts.merge(c.retry_attempts());
            }
            VhNode::Peer(_) => unreachable!("clients follow peers"),
        }
    }
    let end_time = sim.now();
    HarnessReport {
        histories,
        behaviours,
        outcomes,
        crashed,
        all_committed,
        stats: sim.stats(),
        end_time,
        commit_latency,
        retry_attempts,
        peer_metrics,
        flight_dumps,
    }
}

#[cfg(test)]
mod tests;
