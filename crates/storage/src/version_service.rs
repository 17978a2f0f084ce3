//! The version-history service (paper §2.2): recording new GUID→PID
//! mappings through the Byzantine-fault-tolerant commit protocol.
//!
//! One harness instance models the peer set of a single GUID: `r` peers
//! plus one or more client endpoints, all exchanging messages over the
//! deterministic network simulator. Each peer serves its update
//! attempts from a per-peer [`Runtime`] over the shared compiled commit
//! engine: the 9-state parameter-generic commit EFSM, compiled once and
//! bound to the replication factor's thresholds — one artifact covers
//! every `r`, and `Engine` unfolds the bound machine onto the dense
//! table on boot, the paper's bind-then-generate done at load time. An
//! attempt *in flight* is one dense `u32` (its state and both counters)
//! behind a typed generational
//! [`SessionId`](stategen_runtime::SessionId), not an interpreter
//! instance; the session is released when the attempt finishes, is
//! aborted or is garbage-collected, and its slot recycled — a stale
//! handle fails loudly instead of serving the slot's next attempt. What
//! a peer holds follows what the clients have outstanding, not what it
//! has recorded: the paper's §2.2 picture of one machine per execution
//! in progress, and the deployment shape ASA peers need at scale.
//! Peers vote for updates in arrival order, exchange `vote`/`commit`
//! messages, and append an update to their local history once the
//! external commit threshold is reached; endpoints detect completion
//! when `f + 1` distinct peers report the commit (the only answer a
//! Byzantine minority cannot forge) and operate the paper's
//! timeout/retry scheme with configurable back-off, their deadlines in
//! a timer wheel the simulator wakes through one live chain of events.
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
//! the durability model (checkpoint, volatile journal, what a restarted
//! peer may have lost) and how an endpoint's wheel is driven.

use std::collections::{BTreeSet, VecDeque};

use asa_simnet::{Context, NodeId, SimConfig, SimNode, SimStats, SimTime, Simulation};
use stategen_commit::{
    commit_efsm, commit_efsm_params, commit_efsm_state_flags, CommitConfig, CommitMessage,
};
use stategen_core::MessageId;
use stategen_runtime::{Artifact, Engine, Runtime, RuntimeSnapshot, TimerWheel};
use stategen_telemetry::{LogHistogram, MetricsSnapshot};

use self::ledger::{Admission, Heard, Ledger, Unfinished};
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
/// [`Runtime`]: one session per attempt *in flight* (one dense `u32` of
/// state each, addressed by a typed
/// [`SessionId`](stategen_runtime::SessionId)) instead of one
/// interpreter instance per attempt. A session is
/// [`Runtime::release`]d when its attempt finishes, is aborted or is
/// garbage-collected — recycled through the runtime's generational free
/// list, so a stale handle can never silently address the slot's next
/// attempt — and replay protection is the ledger's: a replayed vote
/// for a committed attempt finds it in the finished log and is absorbed,
/// it does not spawn a fresh execution.
///
/// A peer keeps serving as its history grows, so a message costs one
/// lookup in the in-flight table, sibling signalling and the choice lock
/// walk that table only, and a checkpoint write copies what a crash can
/// lose — the sessions and the table of the attempts in flight, and the
/// dropped attempts changed since the last write — into the buffers of
/// the one before, not the bookkeeping (`docs/STORAGE.md` has the
/// per-path cost table).
#[derive(Debug)]
pub struct CommitPeer<'m> {
    engine: &'m PeerEngine,
    behaviour: PeerBehaviour,
    peer_count: usize,
    /// The attempt-execution runtime: per-attempt state is one dense
    /// `u32` plus a generation counter; it holds exactly the sessions of
    /// the attempts in flight.
    runtime: Runtime,
    /// What this peer knows of each attempt: in flight (with its
    /// session in `runtime`), dropped, or finished. The finished log is
    /// also the history, written through by the commit's synchronous
    /// checkpoint write: a crash keeps it.
    ledger: Ledger,
    /// Action-kind buffer reused across deliveries (see
    /// [`CommitPeer::feed`]).
    action_scratch: Vec<PeerAction>,
    /// Work queue of [`CommitPeer::feed`], empty between calls; kept
    /// for its allocation.
    feed_scratch: VecDeque<(AttemptId, CommitMessage)>,
    /// Sibling buffer of [`CommitPeer::drop_instance`], empty between
    /// calls; kept for its allocation.
    sibling_scratch: Vec<AttemptId>,
    /// Abandon unfinished executions after this many ticks (paper §2.2:
    /// the tolerance bound "applies to the duration of a particular
    /// execution of the commit protocol" — executions have bounded
    /// lifetime). Also the livelock breaker: a stuck instance holding the
    /// node's choice lock is eventually released.
    gc_after: SimTime,
    /// The attempt each GC timer not yet fired was armed for.
    gc_tags: GcTags,
    /// Checkpoint cadence in ticks (0 disables checkpointing: a
    /// restarted peer then recovers with nothing).
    checkpoint_every: SimTime,
    /// Whether a periodic checkpoint timer is currently armed. The
    /// cadence pauses while the peer has no in-flight attempts (commits
    /// are checkpointed synchronously, so a quiescent peer is already
    /// durable) and resumes when an attempt spawns.
    checkpoint_armed: bool,
    /// The peer's simulated durable store beside the written-through
    /// finished log: the last checkpoint written. `on_restart` recovers
    /// from *only* the two — everything else above is treated as lost
    /// with the crash.
    checkpoint: Option<PeerCheckpoint>,
    /// The attempts whose `dropped` entry changed since `checkpoint` was
    /// written (the in-flight table is copied whole). Volatile, recorded
    /// only while a checkpoint exists (the first write is a full copy)
    /// and drained by every write, so it never holds more than one
    /// checkpoint interval of changes.
    journal: Vec<AttemptId>,
    /// Flight-recorder ring capacity (0 = unobserved). Remembered so
    /// the recorder is re-attached after a crash recovery rebuilds the
    /// runtime — telemetry is volatile, not checkpointed.
    recorder_capacity: usize,
}

/// Session-reclaim statistics for one peer's runtime (see
/// [`CommitPeer::gc_stats`]), split by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerGcStats {
    /// Sessions reclaimed because their execution reached a finish
    /// state: the normal end of an attempt. Equals the attempts this
    /// peer's runtime has seen commit (the runtime, and with it the
    /// count, starts over on a restart).
    pub finished: u64,
    /// Sessions reclaimed *before* finishing: GC abandonment of stalled
    /// executions and client-requested aborts.
    pub aborted: u64,
}

/// What a peer persists beside its written-through finished log: its
/// [`Runtime`] snapshot — the sessions in flight, no more — plus the
/// unfinished attempts that give them meaning. Written atomically (it
/// is one in-memory value), so a recovered peer is always internally
/// consistent — it may merely be *stale* by up to one checkpoint
/// interval. The finished log — the history — is not here: every
/// finish is followed, in the same handler, by a synchronous write, so
/// wherever a crash can fall a copy of it would equal the live one.
#[derive(Debug, Clone)]
struct PeerCheckpoint {
    runtime: RuntimeSnapshot,
    unfinished: Unfinished,
}

/// Peer timer tag for the periodic checkpoint (GC tags count up from 0
/// and can never reach it).
const TAG_PEER_CHECKPOINT: u64 = u64::MAX;

/// GC timer tag → attempt, for the timers not yet fired. Tags are issued
/// in increasing order, and every GC timer runs for the same `gc_after`,
/// so they fire in the order issued: a ring indexed by `tag − base`,
/// popped at the front as timers fire, holds just the live ones — no
/// search and no allocation per spawn once it has grown.
#[derive(Debug, Default)]
struct GcTags {
    /// The tag of `ring[0]`; every tag below it has fired or was
    /// forgotten.
    base: u64,
    /// The attempt of each tag from `base` on; `None` once its timer
    /// fired out of order.
    ring: VecDeque<Option<AttemptId>>,
}

impl GcTags {
    /// Records a GC timer for `attempt` and returns its tag.
    fn arm(&mut self, attempt: AttemptId) -> u64 {
        self.ring.push_back(Some(attempt));
        self.base + self.ring.len() as u64 - 1
    }

    /// The attempt `tag`'s timer was armed for, unless it fired before,
    /// was forgotten or was never armed.
    fn fire(&mut self, tag: u64) -> Option<AttemptId> {
        let index = usize::try_from(tag.checked_sub(self.base)?).ok()?;
        let attempt = self.ring.get_mut(index)?.take();
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base += 1;
        }
        attempt
    }

    /// Forgets every timer (they died with a crash); tags keep counting,
    /// so none is issued twice.
    fn clear(&mut self) {
        self.base += self.ring.len() as u64;
        self.ring.clear();
    }
}

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
            ledger: Ledger::default(),
            action_scratch: Vec::new(),
            feed_scratch: VecDeque::new(),
            sibling_scratch: Vec::new(),
            gc_after,
            gc_tags: GcTags::default(),
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
        self.ledger.history()
    }

    /// Attempts this peer has committed, built from its finished log
    /// (for tests and diagnostics: O(h log h)).
    pub fn committed(&self) -> BTreeSet<AttemptId> {
        self.ledger.committed()
    }

    /// This peer's behaviour.
    pub fn behaviour(&self) -> PeerBehaviour {
        self.behaviour
    }

    /// The runtime serving this peer's attempts: one live session per
    /// attempt in flight, the slots of all others recycled inside it.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Attempts this peer remembers: in flight, dropped or finished.
    pub fn tracked_attempts(&self) -> usize {
        self.ledger.len()
    }

    /// Attempts executing on this peer. Bounded by what the clients
    /// have outstanding, not by the history length: 0 at quiescence.
    pub fn in_flight_attempts(&self) -> usize {
        self.ledger.in_flight().len()
    }

    /// Notes that `attempt`'s `dropped` entry changed. Without a
    /// checkpoint there is nothing to bring up to date — the next write
    /// is a full copy — so nothing is recorded (in particular never when
    /// checkpointing is disabled).
    fn touch(&mut self, attempt: AttemptId) {
        if self.checkpoint.is_some() && self.journal.last() != Some(&attempt) {
            self.journal.push(attempt);
        }
    }

    fn broadcast_peers(&self, ctx: &mut Context<'_, VhMsg>, message: VhMsg) {
        for i in 0..self.peer_count {
            if i != ctx.self_id().index() {
                ctx.send(NodeId(i), message.clone());
            }
        }
    }

    /// Counts `from`'s `message` for `attempt` ([`Ledger::admit`]) and
    /// starts the attempt if it is not in flight; `false` if the message
    /// is to be ignored. Only a revived attempt changes `dropped`, so
    /// only it is noted for the next checkpoint.
    fn admit(
        &mut self,
        ctx: &mut Context<'_, VhMsg>,
        attempt: AttemptId,
        from: NodeId,
        message: CommitMessage,
    ) -> bool {
        let heard = match self.ledger.admit(attempt, from, message) {
            Admission::Ignored => return false,
            Admission::Running => return true,
            Admission::Revived(heard) => {
                self.touch(attempt);
                heard
            }
            Admission::New(heard) => heard,
        };
        self.spawn(ctx, attempt, heard);
        true
    }

    /// Starts executing an attempt that has no session here — new to
    /// this peer or dropped earlier — with what it has `heard`,
    /// recycling a released slot under a new generation or growing the
    /// runtime (the only allocating path, amortised O(1)).
    fn spawn(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId, heard: Heard) {
        let session = self.runtime.spawn();
        // A new attempt must reflect the node's current choice state: if
        // a sibling attempt has already chosen an update, this node is
        // not free (the `not_free` signal predates the session).
        if self.node_has_chosen() {
            self.runtime
                .deliver(session, self.engine.message_id(CommitMessage::NotFree));
        }
        self.ledger.start(attempt, session, heard);
        self.arm_gc(ctx, attempt);
        self.arm_checkpoint(ctx);
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
            // `admit` started the attempt; the sibling signals queued
            // below go to attempts in flight, and neither signal
            // finishes one.
            let session = self.ledger.session(a).expect("fed attempts are in flight");
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
                    .deliver(session, self.engine.message_id(m))
                    .iter()
                    .map(|action| match action.message() {
                        "vote" => PeerAction::Vote,
                        "commit" => PeerAction::Commit,
                        "not_free" => PeerAction::NotFree,
                        "free" => PeerAction::Free,
                        other => unreachable!("unexpected action {other}"),
                    }),
            );
            // A finished execution would only absorb from here on: the
            // finished log does that without a session, and appends the
            // PID to the history if it is new.
            let finished = self.runtime.is_finished(session);
            let client = if finished {
                self.runtime.release(session);
                self.ledger.finish(a)
            } else {
                None
            };
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
            if finished {
                if let Some(client) = client {
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

    /// `true` while some attempt in flight on this node has chosen its
    /// update (the node's choice lock is held). A per-state bitmap
    /// lookup, not a `StateVector` walk.
    fn node_has_chosen(&self) -> bool {
        self.ledger
            .in_flight()
            .any(|(_, session)| self.engine.has_chosen[self.runtime.state(session) as usize])
    }

    /// The other attempts in flight on this node, in `AttemptId` order.
    fn local_siblings(&self, attempt: AttemptId) -> impl Iterator<Item = AttemptId> + '_ {
        let in_flight = self.ledger.in_flight().map(|(sibling, _)| sibling);
        in_flight.filter(move |sibling| *sibling != attempt)
    }

    /// Abandons an attempt on client request, unless this peer already
    /// sent a commit for it (the update may be about to agree; the
    /// session garbage collector reclaims it later if not).
    fn abort(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId) {
        let Some(session) = self.ledger.session(attempt) else {
            return;
        };
        if !self.engine.commit_sent[self.runtime.state(session) as usize] {
            self.drop_instance(ctx, attempt);
        }
    }

    /// Drops an attempt in flight — releasing its runtime session, so
    /// the slot is recycled under a fresh generation and any handle to
    /// the dropped attempt is dead, and keeping what it had heard — and,
    /// if it held the node's choice lock, releases the lock by
    /// signalling `free` to the sibling attempts.
    fn drop_instance(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId) {
        let Some(session) = self.ledger.session(attempt) else {
            return;
        };
        let had_chosen = self.engine.has_chosen[self.runtime.state(session) as usize];
        self.ledger.drop_in_flight(attempt);
        self.touch(attempt);
        self.runtime.release(session);
        if had_chosen {
            // Each sibling's `free` runs to completion before the next
            // one's, so the siblings are fixed up front — in the
            // scratch buffer, which `feed` never touches.
            let mut siblings = std::mem::take(&mut self.sibling_scratch);
            siblings.clear();
            siblings.extend(self.local_siblings(attempt));
            for &sibling in &siblings {
                self.feed(ctx, sibling, CommitMessage::Free);
            }
            self.sibling_scratch = siblings;
        }
    }

    /// Arms a fresh GC deadline for `attempt`.
    fn arm_gc(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId) {
        let tag = self.gc_tags.arm(attempt);
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

    /// Writes the durable checkpoint: runtime snapshot + unfinished
    /// attempts. The first write copies them; later ones write over the
    /// previous checkpoint in place — the runtime snapshot into its
    /// buffers, the in-flight table whole, and the `dropped` entries the
    /// journal names — so a write costs a copy of O(in-flight) words
    /// and a search per dropped entry changed, and allocates nothing
    /// once the buffers have grown. The finished log needs nothing: it
    /// is the durable log this write makes a commit part of.
    fn write_checkpoint(&mut self) {
        match &mut self.checkpoint {
            Some(checkpoint) => {
                self.runtime.snapshot_into(&mut checkpoint.runtime);
                checkpoint
                    .unfinished
                    .catch_up(self.ledger.unfinished(), &self.journal);
                self.journal.clear();
            }
            None => {
                self.checkpoint = Some(PeerCheckpoint {
                    runtime: self.runtime.snapshot_all(),
                    unfinished: self.ledger.unfinished().clone(),
                });
            }
        }
        debug_assert!(
            self.checkpoint.as_ref().is_some_and(|c| self.holds(c)),
            "journaled checkpoint differs from a copy of the bookkeeping"
        );
        debug_assert_eq!(self.in_flight_attempts(), self.runtime.len());
    }

    /// `true` when `checkpoint`'s unfinished attempts equal the live ones.
    fn holds(&self, checkpoint: &PeerCheckpoint) -> bool {
        checkpoint.unfinished == *self.ledger.unfinished()
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
            // simulation alive for nothing. `spawn` resumes the cadence.
            if !self.runtime.is_empty() {
                ctx.set_timer(self.checkpoint_every, TAG_PEER_CHECKPOINT);
            } else {
                self.checkpoint_armed = false;
            }
            return;
        }
        if let Some(attempt) = self.gc_tags.fire(tag) {
            self.drop_instance(ctx, attempt);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, VhMsg>) {
        // Everything volatile died with the crash; recover from the
        // durable checkpoint and the written-through log alone.
        // `Runtime::restore` revalidates the snapshot against the engine
        // fingerprint and brings every session back bit-identically —
        // including generations, so the checkpointed table's handles
        // keep addressing their attempts. The finished log — the
        // history — stays as it is: the last finish was followed by a
        // write, so it is what is durable.
        match &self.checkpoint {
            Some(checkpoint) => {
                self.runtime = Runtime::restore(self.engine.engine(), &checkpoint.runtime)
                    .expect("checkpoint was written by this peer's own engine");
                self.ledger.restore(&checkpoint.unfinished);
            }
            // Never written: checkpointing is disabled, and a peer with
            // no durable store restarts empty (with it enabled, nothing
            // has finished before the first write).
            None => {
                self.runtime = self.engine.engine().runtime();
                self.ledger = Ledger::default();
            }
        }
        // The live bookkeeping now equals the checkpoint, so the journal
        // starts over.
        self.journal.clear();
        // Telemetry is volatile: the rebuilt runtime starts unobserved,
        // so re-attach the recorder the operator configured.
        if self.recorder_capacity > 0 {
            self.runtime.attach_recorder(self.recorder_capacity);
        }
        // Timers died with the crash (the simulator discards stale-epoch
        // expiries): resume the checkpoint cadence and re-arm a fresh GC
        // budget for every restored attempt so stalled executions are
        // still reclaimed.
        self.gc_tags.clear();
        let in_flight: Vec<AttemptId> = self.ledger.in_flight().map(|(a, _)| a).collect();
        for attempt in in_flight {
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
                // blast per attempt (remembered as a vote of its own):
                // replays would be deduplicated by correct peers anyway,
                // so this loses no adversarial power while keeping
                // equivocator pairs from flooding each other forever.
                let attempt = match message {
                    VhMsg::ClientUpdate(a)
                    | VhMsg::Vote(a)
                    | VhMsg::Commit(a)
                    | VhMsg::Abort(a) => a,
                    VhMsg::Committed(_) => return,
                };
                if self
                    .ledger
                    .hear(attempt, ctx.self_id(), CommitMessage::Vote)
                {
                    self.touch(attempt);
                    self.broadcast_peers(ctx, VhMsg::Vote(attempt));
                    self.broadcast_peers(ctx, VhMsg::Commit(attempt));
                }
            }
            PeerBehaviour::Correct => {
                let (attempt, message) = match message {
                    // Already recorded (an earlier attempt won): confirm
                    // without re-executing the protocol.
                    VhMsg::ClientUpdate(a) if self.ledger.is_recorded(&a.pid) => {
                        return ctx.send(from, VhMsg::Committed(a));
                    }
                    VhMsg::ClientUpdate(a) => (a, CommitMessage::Update),
                    VhMsg::Vote(a) => (a, CommitMessage::Vote),
                    VhMsg::Commit(a) => (a, CommitMessage::Commit),
                    VhMsg::Abort(a) => return self.abort(ctx, a),
                    VhMsg::Committed(_) => return,
                };
                if self.admit(ctx, attempt, from, message) {
                    self.feed(ctx, attempt, message);
                }
            }
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
/// [`TimerWheel`]; the simulator only sees `TAG_WHEEL` wake-ups at the
/// wheel's next-deadline hint, one live chain of them per endpoint
/// (`docs/STORAGE.md`, "Driving a wheel from the simulator").
/// Confirmed commits *cancel* their timeout in O(1) rather than letting
/// it fire and be filtered.
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
    /// The distinct peers that reported the pending attempt's PID
    /// committed (at most the peer set; kept for its allocation).
    reporters: Vec<NodeId>,
    /// Contact-order buffer reused across attempts.
    order_scratch: Vec<usize>,
    outcomes: Vec<UpdateOutcome>,
    /// Logical timers, keyed by the endpoint tag encoding.
    wheel: TimerWheel<u64>,
    /// When the one *live* simulator wake-up is due: the only
    /// `TAG_WHEEL` event that schedules a successor. An earlier deadline
    /// supersedes it; the superseded event stays queued and, when it
    /// fires, only advances the wheel.
    wheel_wake: Option<SimTime>,
    wakes: WakeStats,
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

/// What an endpoint's `TAG_WHEEL` wake-ups did (see
/// [`ClientEndpoint::wake_stats`]). A cancelled timeout leaves its
/// wake-up behind and a coarse wheel slot can need a second look, so a
/// few `expired_nothing` per attempt are expected; a count that grows
/// faster than the attempts is a wake-up chain that does not die.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// Wake-ups delivered to the endpoint.
    pub fired: u64,
    /// Wake-ups at which no logical timer was due.
    pub expired_nothing: u64,
    /// Wake-ups that were no longer the live one when they fired (an
    /// earlier deadline had been armed after they were scheduled).
    pub superseded: u64,
}

impl WakeStats {
    fn merge(&mut self, other: WakeStats) {
        self.fired += other.fired;
        self.expired_nothing += other.expired_nothing;
        self.superseded += other.superseded;
    }
}

#[derive(Debug)]
struct Pending {
    attempt: AttemptId,
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
            reporters: Vec::new(),
            order_scratch: Vec::new(),
            outcomes: Vec::new(),
            wheel: TimerWheel::new(),
            wheel_wake: None,
            wakes: WakeStats::default(),
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

    /// What this endpoint's simulator wake-ups did so far.
    pub fn wake_stats(&self) -> WakeStats {
        self.wakes
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
    /// hint and makes it the live one, unless the live one is already
    /// due no later. The hint is a lower bound — the start of a coarse
    /// slot, or the deadline of a timer cancelled since — so a wake-up
    /// may find nothing expired and simply schedule its successor.
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
        self.reporters.clear();
        self.pending = Some(Pending {
            attempt,
            submitted_at: now,
            first_submitted_at: now,
        });
        self.contact_peers(ctx, attempt);
    }

    fn contact_peers(&mut self, ctx: &mut Context<'_, VhMsg>, attempt: AttemptId) {
        // Paper §2.2: fixed or random server ordering. Contacts are
        // staggered so the order is visible through network latency.
        let mut order = std::mem::take(&mut self.order_scratch);
        self.ordering
            .order_into(self.peer_count, ctx.rng(), &mut order);
        for (slot, &peer) in order.iter().enumerate() {
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
        self.order_scratch = order;
        self.arm(ctx, self.timeout, TAG_TIMEOUT | u64::from(attempt.attempt));
    }

    fn on_committed(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, attempt: AttemptId) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        if attempt.pid != pending.attempt.pid || attempt.client != self.id {
            return;
        }
        if !self.reporters.contains(&from) {
            self.reporters.push(from);
        }
        if self.reporters.len() as u32 >= self.needed_reports {
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
        self.reporters.clear();
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
        // Only the live wake-up hands over to a successor. A superseded
        // one still advances the wheel below (the first wake-up of a
        // tick does the tick's work, whichever it is), but were it to
        // forget the live one as well, both would schedule successors:
        // a chain per superseded wake-up, none of which ever dies.
        self.wakes.fired += 1;
        if self.wheel_wake == Some(ctx.now()) {
            self.wheel_wake = None;
        } else {
            self.wakes.superseded += 1;
        }
        // The expired slice borrows the wheel, so buffer the tags before
        // dispatching (dispatch may arm new timers in the same wheel).
        let mut fired = std::mem::take(&mut self.fire_scratch);
        fired.clear();
        fired.extend_from_slice(self.wheel.advance(ctx.now()));
        if fired.is_empty() {
            self.wakes.expired_nothing += 1;
        }
        for &tag in &fired {
            self.fire(ctx, tag);
        }
        self.fire_scratch = fired;
        self.schedule_wake(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, VhMsg>) {
        // The endpoint's memory is modelled as surviving, its timers are
        // not: the live wake-up died with the epoch, so the wheel has to
        // be given a new one or nothing pending would ever fire again.
        self.wheel_wake = None;
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
    /// Fault schedule: `(node, crash_at, restart_at)` triples applied as
    /// simulator control events; nodes `0..r` are the peers, the clients
    /// follow. A `restart_at <= crash_at` means the node never comes
    /// back.
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
    /// What the endpoints' simulator wake-ups did, summed over every
    /// client: how many of [`SimStats::timers`] were theirs, and how
    /// many of those found nothing to do.
    pub client_wakes: WakeStats,
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
    for &(node, crash_at, restart_at) in &config.crashes {
        let node = NodeId(node as usize);
        assert!(
            node.0 < sim.node_count(),
            "crash schedule names a node that does not exist"
        );
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
    for &(node, _, _) in &config.crashes {
        if let Some(peer) = crashed.get_mut(node as usize) {
            *peer = true;
        }
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
    let mut client_wakes = WakeStats::default();
    for i in r..sim.node_count() {
        match sim.node(NodeId(i)) {
            VhNode::Client(c) => {
                all_committed &= c.is_done() && c.outcomes().iter().all(|o| o.committed);
                outcomes.push(c.outcomes().to_vec());
                commit_latency.merge(c.commit_latency());
                retry_attempts.merge(c.retry_attempts());
                client_wakes.merge(c.wake_stats());
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
        client_wakes,
        flight_dumps,
    }
}

mod ledger;
#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
