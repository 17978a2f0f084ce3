//! The serving facade: typed session handles over an owned engine.

use std::fmt::Write as _;
use std::time::Instant;

use stategen_core::{Action, MessageId, StategenError, SwapError};
use stategen_telemetry::{
    FlightRecorder, LogHistogram, MetricsSnapshot, RuntimeCounters, ShardCounters, TransitionEvent,
};

use crate::engine::Engine;
use crate::interp::Session;
use crate::session::{fork_join, SessionStore, Taken};
use crate::step::StepEngine;
use crate::timer::TimerWheel;

/// Typed handle to one session in a [`Runtime`].
///
/// A `SessionId` names a *particular protocol execution*, not a storage
/// slot: when a session is [`release`](Runtime::release)d its slot goes
/// onto the runtime's free list and the slot's generation counter is
/// bumped, so every outstanding handle to the old execution becomes
/// *stale* — using it panics loudly instead of silently addressing
/// whatever execution was respawned into the slot. This closes the
/// use-after-recycle bug class that raw `usize` indexing permits.
///
/// The `Debug` form is free-list-aware: `s0:17` is the first execution
/// in shard 0, slot 17; `s0:17#3` is the fourth execution recycled into
/// the same slot (generation 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId {
    shard: u32,
    slot: u32,
    generation: u32,
}

impl SessionId {
    /// Which shard owns the session.
    pub fn shard(self) -> usize {
        self.shard as usize
    }

    /// The slot within the owning shard.
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// How many earlier executions were recycled out of this slot
    /// before this one (0 = the slot's first execution).
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl std::fmt::Debug for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}:{}", self.shard, self.slot)?;
        if self.generation > 0 {
            write!(f, "#{}", self.generation)?;
        }
        Ok(())
    }
}

/// The flight-recorder event for one transition taken by `slot` (the
/// recorder stamps `tick` itself).
fn event(slot: usize, generation: u32, message: MessageId, taken: Taken<'_>) -> TransitionEvent {
    TransitionEvent {
        slot: slot as u32,
        generation,
        from: taken.from,
        to: taken.to,
        message: message.index() as u32,
        actions: taken.actions.len() as u32,
        tick: 0,
    }
}

/// One shard of a [`Runtime`]: a [`SessionStore`] — the slot arrays,
/// registers, kernels and finished count every tier shares — plus only
/// what is the runtime's own: per-slot generations and the free list
/// behind [`SessionId`], telemetry counters, the flight recorder, and
/// the lockstep hint that keeps its tail probe O(ring capacity).
///
/// The runtime steps its shards' batches with [`fork_join`]; shards
/// are created and owned by [`Runtime`], never constructed directly.
#[derive(Debug, Clone)]
struct Shard {
    store: SessionStore,
    /// Per-slot generation, bumped when the slot is released.
    generations: Vec<u32>,
    /// Released slots awaiting respawn. A slot released at generation
    /// `u32::MAX` is *not* listed: it has no fresh generation left to
    /// hand out, so it stays retired for good.
    free: Vec<u32>,
    /// Per-shard telemetry counters (single-writer, merged on read; see
    /// [`stategen_telemetry::ShardCounters`]). Not part of snapshots —
    /// counters describe this process's activity, not durable state.
    counters: ShardCounters,
    /// The shard's flight recorder, when one is attached (see
    /// [`Runtime::attach_recorder`]). Taken out and re-seated around
    /// batch delivery so the recorder and the store borrow disjointly.
    recorder: Option<FlightRecorder>,
    /// The *lockstep hint*: `Some(s)` guarantees every slot holds state
    /// `s` (in particular, none are retired) — the dominant shape for a
    /// pool spawned together and fed one message stream. Kept truthful
    /// by every slot mutation and dropped to `None` whenever uniformity
    /// can't be proven cheaply; consumers may only rely on `Some`. Lets
    /// [`Shard::capture_batch_tail`] skip its pass over the slot arrays.
    /// Never snapshotted (restore starts `None`).
    lockstep: Option<u32>,
    /// Reverse-order staging for the probed tail (≤ ring capacity).
    replay_tail: Vec<TransitionEvent>,
}

impl Shard {
    fn new(engine: StepEngine) -> Self {
        Shard {
            store: SessionStore::new(engine, 0),
            generations: Vec::new(),
            free: Vec::new(),
            counters: ShardCounters::new(),
            recorder: None,
            lockstep: None,
            replay_tail: Vec::new(),
        }
    }

    /// Sessions currently live (spawned and not released).
    fn live(&self) -> usize {
        self.store.live()
    }

    /// The hint after `slot` alone moved to `state`: still lockstep if
    /// the pool already was there, or the slot is the pool.
    fn lockstep_after(&self, state: u32) -> Option<u32> {
        (self.store.len() == 1 || self.lockstep == Some(state)).then_some(state)
    }

    /// Claims a slot (recycling the free list or growing the arrays)
    /// and starts a fresh execution in it.
    fn spawn_slot(&mut self) -> (u32, u32) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.store.reset_session(slot as usize);
                slot
            }
            None => {
                self.generations.push(0);
                self.store.spawn() as u32
            }
        };
        self.lockstep = self.lockstep_after(self.store.state(slot as usize));
        self.counters.inc_spawns();
        (slot, self.generations[slot as usize])
    }

    /// `true` while `id` addresses a live execution here: the slot
    /// exists, carries the handle's generation and is not retired.
    #[inline]
    fn is_live_slot(&self, id: SessionId) -> bool {
        let slot = id.slot as usize;
        slot < self.store.len()
            && self.generations[slot] == id.generation
            && !self.store.is_retired(slot)
    }

    /// Validates a handle; panics on a stale or released one (the
    /// use-after-recycle guard).
    #[inline]
    fn check(&self, id: SessionId) {
        assert!(
            self.is_live_slot(id),
            "stale session handle {id:?}: the slot was released and possibly recycled"
        );
    }

    /// Delivers one message to one validated slot.
    #[inline]
    fn deliver_slot(&mut self, id: SessionId, message: MessageId) -> &[Action] {
        self.check(id);
        self.counters.add_deliveries(1);
        let Some(taken) = self.store.step(id.slot as usize, message) else {
            return &[];
        };
        if let Some(rec) = &mut self.recorder {
            rec.record(event(id.slot as usize, id.generation, message, taken));
        }
        // A single-slot transition splits a lockstep pool unless it
        // was a self-loop.
        if self.lockstep != Some(taken.to) {
            self.lockstep = None;
        }
        self.counters.add_transitions(1);
        taken.actions
    }

    /// Returns a validated slot to the start state (same execution slot,
    /// handle stays valid).
    fn reset_slot(&mut self, id: SessionId) {
        self.check(id);
        self.counters.add_resets(1);
        self.store.reset_session(id.slot as usize);
        self.lockstep = self.lockstep_after(self.store.state(id.slot as usize));
    }

    /// Retires a validated slot and bumps its generation, invalidating
    /// every outstanding handle to it, then lists it for reuse — unless
    /// the counter is exhausted: recycling a slot released at `u32::MAX`
    /// would let a stale handle address a stranger's session, so it
    /// stays retired for good.
    fn release_slot(&mut self, id: SessionId) {
        self.check(id);
        let slot = id.slot as usize;
        if self.store.is_finished(slot) {
            self.counters.inc_releases_finished();
        } else {
            self.counters.inc_releases_aborted();
        }
        self.store.retire(slot);
        // A retired slot is never uniform with live ones.
        self.lockstep = None;
        if let Some(next) = self.generations[slot].checked_add(1) {
            self.generations[slot] = next;
            self.free.push(id.slot);
        }
    }

    /// Captures the shard's complete durable state over `snap`, reusing
    /// its buffers (finished-ness is the finish flag of each slot's
    /// state; restore recounts it).
    fn snapshot_into(&self, snap: &mut ShardSnapshot) {
        self.store.states_into(&mut snap.current);
        snap.generations.clone_from(&self.generations);
        self.store.registers_into(&mut snap.vars);
        snap.free.clone_from(&self.free);
        snap.steps = self.store.steps();
    }

    /// Rebuilds a shard from a snapshot taken under a behaviourally
    /// identical engine (the caller has already matched fingerprints).
    /// Panics if the snapshot is structurally corrupt: mismatched array
    /// lengths, a state id outside the engine's state space, or a
    /// free-list entry that does not point at a retired slot; errs as
    /// [`SessionStore::restore`] does.
    fn restore(engine: StepEngine, snap: &ShardSnapshot) -> Result<Shard, StategenError> {
        let mut shard = Shard::new(engine);
        let slots = snap.current.len();
        assert_eq!(
            snap.generations.len(),
            slots,
            "corrupt shard snapshot: {} generation counters for {slots} slots",
            snap.generations.len(),
        );
        for &free in &snap.free {
            assert!(
                snap.current.get(free as usize) == Some(&SessionStore::RETIRED),
                "corrupt shard snapshot: free-list entry {free} is not a retired slot",
            );
        }
        shard.store.restore(&snap.current, &snap.vars, snap.steps)?;
        shard.generations = snap.generations.clone();
        shard.free = snap.free.clone();
        Ok(shard)
    }

    /// Runs one batch through the store's kernels and keeps the shard's
    /// lockstep hint and counters up to date. Records nothing: with a
    /// recorder attached, [`Shard::deliver_all`] probes the ring's tail
    /// around this call, and a unit test pins that tail to recording
    /// every transition of the scalar walk.
    fn deliver_batch(&mut self, message: MessageId) -> u64 {
        let live = self.live() as u64;
        let transitions = self.store.deliver_all(message);
        // Keep the lockstep hint truthful across the batch: an
        // unguarded machine steps deterministically by state, so a
        // uniform pool either took the same transition everywhere
        // (uniform at the shared target) or nowhere; guards read
        // per-slot registers and can split a uniform pool, so any
        // transition drops the hint there.
        if transitions > 0 {
            self.lockstep = match self.store.engine().reg_count() {
                0 => self.lockstep.map(|_| self.store.state(0)),
                _ => None,
            };
        }
        self.counters.add_deliveries(live);
        self.counters.add_transitions(transitions);
        transitions
    }

    /// Probes the flight-recorder tail of a batch *before* running it
    /// (see [`Shard::deliver_all`]).
    ///
    /// A ring of capacity `c` only ever keeps a batch's *last* `c`
    /// transitions, and every engine tier is deterministic, so those
    /// events are computable from the pre-batch state alone
    /// ([`SessionStore::probe_tail`]: a backward walk stepping copies of
    /// the register rows, stopping once `c` transitions are found).
    /// Running the probe ahead of the batch means no copy of the slot
    /// arrays is ever taken, so the recording cost is O(probed suffix +
    /// c) per batch (O(c) when transitions are dense at the tail)
    /// instead of an O(sessions) memcpy plus the same scan.
    fn capture_batch_tail(&mut self, message: MessageId, capacity: usize) {
        let Shard {
            store,
            generations,
            replay_tail,
            ..
        } = self;
        replay_tail.clear();
        // Lockstep fast path: when the hint proves every slot of an
        // unguarded machine shares one state, the last slot's outcome
        // is every slot's (a one-slot probe window) — the tail is the
        // last `capacity` slots taking that one transition (or empty). Guards read per-slot
        // registers, which a shared *state* says nothing about, so a
        // guarded machine always takes the scan.
        if self.lockstep.is_some() && store.engine().reg_count() == 0 {
            let mut shared = None;
            store.probe_tail(message, 1, 1, |slot, taken| {
                shared = Some(event(slot, 0, message, taken));
            });
            if let Some(shared) = shared {
                let slots = store.len();
                for slot in (slots.saturating_sub(capacity)..slots).rev() {
                    replay_tail.push(TransitionEvent {
                        slot: slot as u32,
                        generation: generations[slot],
                        ..shared
                    });
                }
            }
        } else {
            store.probe_tail(message, usize::MAX, capacity, |slot, taken| {
                replay_tail.push(event(slot, generations[slot], message, taken));
            });
        }
    }

    /// Records the tail probed by [`Shard::capture_batch_tail`] once
    /// the batch has reported its transition count: the overwritten
    /// prefix is accounted with [`FlightRecorder::skip_overwritten`],
    /// then the tail lands in forward order — a ring (contents, order,
    /// and derived ticks) bit-identical to per-transition recording.
    fn commit_batch_tail(&mut self, rec: &mut FlightRecorder, transitions: u64) {
        debug_assert_eq!(
            self.replay_tail.len() as u64,
            transitions.min(rec.capacity() as u64),
            "the pre-batch probe and the batch disagree on the tail length"
        );
        rec.skip_overwritten(transitions - self.replay_tail.len() as u64);
        for event in self.replay_tail.drain(..).rev() {
            rec.record(event);
        }
    }

    /// The batch hot loop: the store's kernels, with no allocation (the
    /// `runtime_facade` benchmark row gates it at ≤ 1.10× raw
    /// stepping). With a recorder attached the ring's surviving tail is
    /// probed first ([`Shard::capture_batch_tail`]), the same unobserved
    /// batch runs at full speed, and the probed tail is committed — no
    /// event build inside the hot loop (`runtime_observed` benches this
    /// at ≤ 1.25× the unobserved facade).
    ///
    /// The recorder is taken out only once the batch has run, so a batch
    /// that panics (a foreign message id) leaves it attached.
    fn deliver_all(&mut self, message: MessageId) -> u64 {
        let Some(capacity) = self.recorder.as_ref().map(FlightRecorder::capacity) else {
            return self.deliver_batch(message);
        };
        self.capture_batch_tail(message, capacity);
        let transitions = self.deliver_batch(message);
        let mut rec = self.recorder.take().expect("checked above");
        self.commit_batch_tail(&mut rec, transitions);
        self.recorder = Some(rec);
        transitions
    }

    /// Returns every *live* slot to the start state; retired slots stay
    /// retired.
    fn reset_all(&mut self) {
        self.counters.add_resets(self.live() as u64);
        self.store.reset_all();
        self.lockstep = (self.live() == self.store.len()).then(|| self.store.engine().start());
    }
}

/// A point-in-time capture of one session (see [`Runtime::snapshot`]):
/// everything needed to recognise the same execution later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// The dense state id the session was in.
    pub state: u32,
    /// The session's complete register file — declared EFSM variables
    /// first, then the always-zero register; empty for an unguarded
    /// machine. Capturing the *full* file (not just the declared
    /// variables) is what makes restoration bit-identical.
    pub vars: Vec<i64>,
    /// The slot generation the snapshot was taken at; a handle with
    /// this generation addresses the captured execution.
    pub generation: u32,
}

/// One shard's durable state inside a [`RuntimeSnapshot`]. Nothing
/// about finished sessions is stored: finish states are absorbing, so a
/// slot is finished exactly when its state is a finish state, and the
/// store recounts while it validates the restored state array.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ShardSnapshot {
    current: Vec<u32>,
    generations: Vec<u32>,
    vars: Vec<i64>,
    free: Vec<u32>,
    steps: u64,
}

/// A whole-pool capture of a [`Runtime`] (see [`Runtime::snapshot_all`])
/// restorable with [`Runtime::restore`]: every shard's state array,
/// register file, generation counters, free list and step counter, plus
/// the engine's behavioural fingerprint.
///
/// The fingerprint is the validity criterion: a snapshot restores only
/// into an engine whose [`Engine::fingerprint`] matches — i.e. a
/// behaviourally identical machine, whatever tier it resolved onto.
/// Restoration preserves slot generations, so [`SessionId`]s minted
/// before the snapshot keep addressing their sessions in the restored
/// runtime — recovered peers keep talking to their old sessions.
///
/// Armed timeouts are *not* part of a snapshot: the timer wheel is
/// volatile coordination state, and a restored runtime starts with an
/// empty wheel. Callers re-arm whatever deadlines still matter (a
/// recovering node typically re-arms retry/GC timers from its own
/// durable bookkeeping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    fingerprint: u64,
    shards: Vec<ShardSnapshot>,
}

impl RuntimeSnapshot {
    /// The behavioural fingerprint of the engine the snapshot was taken
    /// under (see [`Engine::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Sessions that were live (spawned and not released) at capture.
    pub fn live_sessions(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| &s.current)
            .filter(|&&state| state != SessionStore::RETIRED)
            .count()
    }
}

/// The result of [`Runtime::begin_swap`]: how the runtime moved (or is
/// moving) to the incoming engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The incoming engine is behaviourally identical to the serving
    /// one ([`Engine::fingerprint`] matched), so every live session was
    /// migrated in place via snapshot/restore. The swap is complete;
    /// every outstanding [`SessionId`] remains valid.
    Migrated {
        /// Sessions migrated onto the incoming engine.
        sessions: usize,
    },
    /// No session was live, so every shard was re-targeted at the
    /// incoming engine immediately. The swap is complete.
    Completed,
    /// The runtime is draining: new spawns land on the incoming engine,
    /// sessions on the outgoing engine keep being served until they are
    /// released, and [`Runtime::finish_swap`] completes the switch once
    /// [`Runtime::draining_sessions`] reaches zero.
    Draining {
        /// Sessions still live on the outgoing engine.
        sessions: usize,
    },
}

/// An in-progress drain-and-switch (see [`Runtime::begin_swap`]).
#[derive(Debug)]
struct PendingSwap {
    /// The engine being swapped in.
    engine: Engine,
    /// Shard indices still serving the outgoing engine until their
    /// sessions are released.
    draining: Vec<usize>,
    /// Shard indices serving the incoming engine (the only spawn
    /// targets while the swap is in progress).
    incoming: Vec<usize>,
}

/// The serving facade: a pool of concurrent protocol sessions over one
/// owned [`Engine`], with one vocabulary across every execution tier.
///
/// * [`spawn`](Runtime::spawn) / [`spawn_many`](Runtime::spawn_many)
///   start executions and hand out typed [`SessionId`]s;
/// * [`deliver`](Runtime::deliver) steps one session (returning the
///   triggered actions, borrowed — no allocation on any compiled-tier
///   delivery path); [`deliver_all`](Runtime::deliver_all) steps every
///   session, one scoped thread per extra shard when sharded;
/// * [`reset`](Runtime::reset) restarts an execution in place,
///   [`release`](Runtime::release) recycles its slot (bumping the
///   generation, so stale handles fail loudly);
/// * introspection — [`state_name`](Runtime::state_name),
///   [`is_finished`](Runtime::is_finished), [`vars`](Runtime::vars),
///   [`finished_count`](Runtime::finished_count), … — is uniform and
///   allocation-free;
/// * [`begin_swap`](Runtime::begin_swap) /
///   [`finish_swap`](Runtime::finish_swap) /
///   [`abort_swap`](Runtime::abort_swap) roll a *live* runtime onto a
///   new engine — typically loaded from a deployable
///   [`Artifact`](stategen_core::Artifact) — migrating sessions in
///   place when the behavioural fingerprint matches and
///   drain-and-switching otherwise, with incompatible engines rejected
///   before any session moves.
///
/// Sharding is configuration: [`sharded(k)`](Runtime::sharded)
/// partitions future sessions across `k` shards, and each
/// [`deliver_all`](Runtime::deliver_all) is one fork-join over them —
/// shard 0 on the calling thread, one scoped thread per other shard,
/// joined before the call returns. It buys capacity and isolation, not
/// speed, on a small machine (`docs/KERNELS.md`). Results are
/// bit-identical to a single shard whatever the scheduling, because
/// sessions never share state.
///
/// # Examples
///
/// ```
/// use stategen_core::{Action, StateMachineBuilder, StateRole};
/// use stategen_runtime::{Engine, Spec};
///
/// let mut b = StateMachineBuilder::new("ping", ["ping"]);
/// let idle = b.add_state("idle");
/// let done = b.add_state_full("done", None, StateRole::Finish, vec![]);
/// b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
/// let engine = Engine::compile(Spec::machine(b.build(idle)))?;
///
/// let mut rt = engine.runtime();
/// let first = rt.spawn();
/// rt.spawn_many(2);
/// let ping = rt.message_id("ping").unwrap();
/// assert_eq!(rt.deliver(first, ping), [Action::send("pong")]);
/// assert_eq!(rt.finished_count(), 1);
/// assert_eq!(rt.deliver_all(ping), 2); // steps the remaining live sessions
/// assert!(rt.all_finished());
/// # Ok::<(), stategen_runtime::StategenError>(())
/// ```
#[derive(Debug)]
pub struct Runtime {
    engine: Engine,
    /// At least one; sessions are addressed by `(shard, slot)`.
    shards: Vec<Shard>,
    /// Session deadlines (see [`Runtime::arm_timeout`]); volatile —
    /// deliberately excluded from [`RuntimeSnapshot`]s.
    timers: TimerWheel<SessionId>,
    /// Reused buffer for expired timers in [`Runtime::advance_time`].
    expired_scratch: Vec<SessionId>,
    /// An in-progress drain-and-switch (see [`Runtime::begin_swap`]).
    pending: Option<PendingSwap>,
    /// Runtime-level telemetry (timeouts, swaps, snapshots) — the
    /// per-session counters live on each [`Shard`]. Merged on demand by
    /// [`Runtime::metrics`]; never part of a [`RuntimeSnapshot`].
    counters: RuntimeCounters,
    /// Wall-clock nanoseconds per [`Runtime::deliver_all`] batch, armed
    /// by [`Runtime::attach_recorder`] (boxed: ~8 KiB of buckets).
    batch_latency: Option<Box<LogHistogram>>,
    /// Ring capacity requested by [`Runtime::attach_recorder`], so
    /// shards appended mid-swap get recorders too.
    recorder_capacity: Option<usize>,
    /// The flight-recorder dump captured by the last
    /// [`Runtime::abort_swap`] (see [`Runtime::abort_dump`]).
    abort_dump: Option<String>,
}

impl Runtime {
    /// A runtime over `engine` with one shard and no sessions.
    pub fn new(engine: Engine) -> Self {
        let shards = vec![Shard::new(engine.step.clone())];
        Runtime::over(engine, shards)
    }

    /// A runtime serving `shards` under `engine`, everything else fresh.
    fn over(engine: Engine, shards: Vec<Shard>) -> Self {
        Runtime {
            engine,
            shards,
            timers: TimerWheel::new(),
            expired_scratch: Vec::new(),
            pending: None,
            counters: RuntimeCounters::new(),
            batch_latency: None,
            recorder_capacity: None,
            abort_dump: None,
        }
    }

    /// Reconfigures the runtime to `shards` shards. Sharding is pure
    /// configuration — call it once after construction, before spawning.
    ///
    /// # Examples
    ///
    /// ```
    /// use stategen_core::{Action, StateMachineBuilder, StateRole};
    /// use stategen_runtime::{Engine, Spec};
    ///
    /// let mut b = StateMachineBuilder::new("ping", ["ping"]);
    /// let idle = b.add_state("idle");
    /// let done = b.add_state_full("done", None, StateRole::Finish, vec![]);
    /// b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
    /// let engine = Engine::compile(Spec::machine(b.build(idle)))?;
    ///
    /// let mut rt = engine.runtime().sharded(4);
    /// rt.spawn_many(1000);
    /// assert_eq!(rt.shard_count(), 4);
    /// let ping = rt.message_id("ping").unwrap();
    /// assert_eq!(rt.deliver_all(ping), 1000); // one fork-join over 4 shards
    /// assert!(rt.all_finished());
    /// # Ok::<(), stategen_runtime::StategenError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or sessions have already been spawned
    /// (redistribution would invalidate outstanding [`SessionId`]s).
    pub fn sharded(mut self, shards: usize) -> Self {
        assert!(shards > 0, "runtime needs at least one shard");
        assert!(
            self.shards.iter().all(|s| s.store.len() == 0),
            "sharded() must be called before spawning sessions"
        );
        let fresh = (0..shards).map(|_| self.fresh_shard(&self.engine));
        self.shards = fresh.collect();
        self.timers = TimerWheel::new();
        self
    }

    /// An empty shard over `engine`, with a recorder ring if this
    /// runtime has one attached.
    fn fresh_shard(&self, engine: &Engine) -> Shard {
        let mut shard = Shard::new(engine.step.clone());
        shard.recorder = self.recorder_capacity.map(FlightRecorder::new);
        shard
    }

    /// The engine this runtime serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of shards (threads a [`Runtime::deliver_all`] runs on:
    /// the caller's, plus one scoped thread per shard after the first).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Looks up a message id by name in O(1) (delegates to
    /// [`Engine::message_id`]).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.engine.message_id(name)
    }

    /// Starts a fresh execution (recycling a released slot if one is
    /// free, else growing the least-loaded shard) and returns its
    /// handle. Amortised O(1); the only runtime operation that may
    /// allocate, and never per-event.
    ///
    /// While a hot-swap is draining (see [`Runtime::begin_swap`]), new
    /// sessions land only on shards serving the *incoming* engine.
    pub fn spawn(&mut self) -> SessionId {
        let shards = &mut self.shards;
        let shard = match &self.pending {
            Some(p) => p
                .incoming
                .iter()
                .copied()
                .min_by_key(|&i| shards[i].live())
                .expect("a draining swap has at least one incoming shard"),
            None => (0..shards.len())
                .min_by_key(|&i| shards[i].live())
                .expect("runtime has at least one shard"),
        };
        let (slot, generation) = shards[shard].spawn_slot();
        SessionId {
            shard: shard as u32,
            slot,
            generation,
        }
    }

    /// Starts `count` fresh executions, balanced across shards (only
    /// the incoming engine's shards while a hot-swap is draining).
    pub fn spawn_many(&mut self, count: usize) {
        if self.pending.is_some() {
            // Mid-swap spawns are rare and restricted to the incoming
            // shards; route each through the swap-aware single path.
            for _ in 0..count {
                self.spawn();
            }
            return;
        }
        // Spawn shard-by-shard to keep balancing O(shards), not
        // O(count × shards).
        let shards = &mut self.shards;
        let k = shards.len();
        let target = {
            let live: usize = shards.iter().map(Shard::live).sum();
            (live + count).div_ceil(k)
        };
        let mut remaining = count;
        for shard in shards.iter_mut() {
            while remaining > 0 && shard.live() < target {
                shard.spawn_slot();
                remaining -= 1;
            }
        }
        // Remainder (every shard at target): round-robin.
        while remaining > 0 {
            self.spawn();
            remaining -= 1;
        }
    }

    /// Sessions currently live (spawned and not released).
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::live).sum()
    }

    /// `true` if no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delivers a message to one session; returns the triggered
    /// actions, borrowed from the engine (no allocation on any
    /// compiled-tier path). Finished sessions absorb every message.
    ///
    /// `message` must come from this runtime's engine (via
    /// [`Runtime::message_id`] / [`Engine::message_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale — its slot was
    /// [`release`](Runtime::release)d (and possibly recycled into a new
    /// execution). This is the typed-handle guarantee: a handle to a
    /// dead execution can never silently address a live one.
    #[inline]
    pub fn deliver(&mut self, session: SessionId, message: MessageId) -> &[Action] {
        self.shards[session.shard as usize].deliver_slot(session, message)
    }

    /// Non-panicking form of [`Runtime::deliver`], for inputs from
    /// untrusted sources (deserialized, long-stored, or cross-component
    /// handles that may outlive their execution): a stale or recycled
    /// generational handle returns [`StategenError::StaleSession`]
    /// instead of panicking, and a message id out of range for this
    /// engine's alphabet returns [`StategenError::MessageOutOfRange`]
    /// instead of silently dispatching from the wrong table cell. Valid
    /// inputs behave exactly like [`Runtime::deliver`]: the triggered
    /// actions are returned, borrowed, with no allocation on any
    /// compiled-tier path.
    ///
    /// The staleness check is scoped to handles *this runtime minted*:
    /// a [`SessionId`] carries no runtime identity, so a handle from a
    /// *different* runtime is rejected only when its coordinates do not
    /// resolve here (shard out of range, unused slot, generation
    /// mismatch) — one whose coordinates happen to collide with a live
    /// session is indistinguishable from that session's own handle. Do
    /// not mix handles across runtimes.
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` does not address a
    /// live execution in this runtime;
    /// [`StategenError::MessageOutOfRange`] if `message` was minted by
    /// a machine with a larger alphabet.
    pub fn try_deliver(
        &mut self,
        session: SessionId,
        message: MessageId,
    ) -> Result<&[Action], StategenError> {
        let alphabet = self.engine.messages().len();
        if message.index() >= alphabet {
            return Err(StategenError::MessageOutOfRange {
                index: message.index(),
                messages: alphabet,
            });
        }
        Ok(self.live_shard_mut(session)?.deliver_slot(session, message))
    }

    /// Delivers a message to every live session — when sharded, in one
    /// fork-join over the shards: shard 0 on the calling thread, a
    /// scoped thread for each other shard, all joined before the call
    /// returns — and returns the number of transitions taken.
    ///
    /// While a recorder is attached (see [`Runtime::attach_recorder`])
    /// the batch's wall-clock latency is also recorded into
    /// [`Runtime::batch_latency`]; unobserved runtimes skip the clock
    /// reads entirely.
    ///
    /// # Panics
    ///
    /// Panics — on every tier alike, before any session is stepped — if
    /// `message` is outside this engine's alphabet (an id minted by a
    /// machine with more messages); the check is per batch, not per
    /// session. Ids from [`Runtime::message_id`] are always in range;
    /// for one-session delivery of untrusted ids use
    /// [`Runtime::try_deliver`], which returns
    /// [`StategenError::MessageOutOfRange`] instead. Sharding does not
    /// change the message: every shard refuses the id, and the calling
    /// thread's own shard raises first.
    ///
    /// Whatever a shard panics with, a sharded call re-raises that
    /// shard's own payload once every shard's thread has finished —
    /// it never hangs — and the runtime stays usable afterwards.
    pub fn deliver_all(&mut self, message: MessageId) -> u64 {
        match &mut self.batch_latency {
            Some(hist) => {
                let start = Instant::now();
                let transitions = fork_join(&mut self.shards, |s| s.deliver_all(message));
                hist.record(start.elapsed().as_nanos() as u64);
                transitions
            }
            None => fork_join(&mut self.shards, |s| s.deliver_all(message)),
        }
    }

    /// Returns one session to the start state (same slot, handle stays
    /// valid) for a fresh execution.
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale (see [`Runtime::deliver`]).
    pub fn reset(&mut self, session: SessionId) {
        self.shards[session.shard as usize].reset_slot(session);
    }

    /// Returns every live session to the start state.
    pub fn reset_all(&mut self) {
        self.shards.iter_mut().for_each(Shard::reset_all);
    }

    /// Ends an execution and recycles its slot through the free list.
    /// The slot's generation is bumped: every outstanding handle to the
    /// released execution becomes stale and will panic if used.
    ///
    /// # Panics
    ///
    /// Panics if `session` is already stale (double release).
    pub fn release(&mut self, session: SessionId) {
        self.shards[session.shard as usize].release_slot(session);
        self.cancel_timeout(session);
    }

    /// `true` while `session` addresses a live execution (its slot has
    /// not been released/recycled). The non-panicking validity probe.
    pub fn is_live(&self, session: SessionId) -> bool {
        self.live_shard(session).is_ok()
    }

    /// The dense state id of a session.
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn state(&self, session: SessionId) -> u32 {
        let (store, slot) = self.slot_of(session);
        store.state(slot)
    }

    /// The store and slot a live handle addresses; panics on a stale
    /// one.
    fn slot_of(&self, session: SessionId) -> (&SessionStore, usize) {
        let shard = &self.shards[session.shard as usize];
        shard.check(session);
        (&shard.store, session.slot as usize)
    }

    /// Display name of a session's state, borrowed from the engine.
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn state_name(&self, session: SessionId) -> &str {
        let (store, slot) = self.slot_of(session);
        store.state_name(slot)
    }

    /// A session's EFSM variable registers, in declaration order (empty
    /// on non-EFSM tiers).
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn vars(&self, session: SessionId) -> &[i64] {
        let (store, slot) = self.slot_of(session);
        store.vars(slot)
    }

    /// `true` once a session has reached a finish state.
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn is_finished(&self, session: SessionId) -> bool {
        let (store, slot) = self.slot_of(session);
        store.is_finished(slot)
    }

    /// Number of live finished sessions. O(shards) at any time: each
    /// shard's store keeps the count current through single deliveries,
    /// resets, releases and [`Runtime::deliver_all`] batches alike (the
    /// batch kernels report how many sessions entered a finish state
    /// beside their transition count).
    pub fn finished_count(&self) -> usize {
        self.shards.iter().map(|s| s.store.finished_count()).sum()
    }

    /// `true` once every live session has finished.
    pub fn all_finished(&self) -> bool {
        self.finished_count() == self.len()
    }

    /// Total transitions this runtime's sessions took: neither
    /// [`Runtime::reset`] nor [`Runtime::reset_all`] lowers it, and
    /// [`Runtime::restore`] and an in-place [`Runtime::begin_swap`]
    /// carry it over.
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.store.steps()).sum()
    }

    /// A [`ProtocolEngine`](stategen_core::ProtocolEngine) view of one
    /// session, for code written
    /// against the trait vocabulary (equivalence suites, generic
    /// drivers).
    pub fn session(&mut self, id: SessionId) -> Session<'_> {
        Session { runtime: self, id }
    }

    /// The `StaleSession` error for a handle that failed validation.
    fn stale(session: SessionId) -> StategenError {
        StategenError::StaleSession {
            shard: session.shard(),
            slot: session.slot(),
            generation: session.generation(),
        }
    }

    /// Validates a handle fallibly, returning its shard.
    fn live_shard(&self, session: SessionId) -> Result<&Shard, StategenError> {
        let shard = self
            .shards
            .get(session.shard as usize)
            .ok_or_else(|| Runtime::stale(session))?;
        if !shard.is_live_slot(session) {
            return Err(Runtime::stale(session));
        }
        Ok(shard)
    }

    /// Validates a handle fallibly, returning its shard mutably.
    fn live_shard_mut(&mut self, session: SessionId) -> Result<&mut Shard, StategenError> {
        let shard = self
            .shards
            .get_mut(session.shard as usize)
            .ok_or_else(|| Runtime::stale(session))?;
        if !shard.is_live_slot(session) {
            return Err(Runtime::stale(session));
        }
        Ok(shard)
    }

    /// Non-panicking form of [`Runtime::reset`]: returns the session to
    /// the start state, or [`StategenError::StaleSession`] if the
    /// handle no longer addresses a live execution.
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` is stale.
    pub fn try_reset(&mut self, session: SessionId) -> Result<(), StategenError> {
        self.live_shard_mut(session)?.reset_slot(session);
        Ok(())
    }

    /// Non-panicking form of [`Runtime::release`]: recycles the slot
    /// (bumping its generation and cancelling any armed timeout), or
    /// returns [`StategenError::StaleSession`] — so a double release is
    /// an error, not a panic.
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` is stale.
    pub fn try_release(&mut self, session: SessionId) -> Result<(), StategenError> {
        self.live_shard_mut(session)?.release_slot(session);
        self.cancel_timeout(session);
        Ok(())
    }

    /// Non-panicking form of [`Runtime::state`].
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` is stale.
    pub fn try_state(&self, session: SessionId) -> Result<u32, StategenError> {
        Ok(self.live_shard(session)?.store.state(session.slot as usize))
    }

    /// Non-panicking form of [`Runtime::vars`].
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` is stale.
    pub fn try_vars(&self, session: SessionId) -> Result<&[i64], StategenError> {
        Ok(self.live_shard(session)?.store.vars(session.slot as usize))
    }

    /// Captures one live session: state id, full register file and the
    /// handle generation (see [`SessionSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn snapshot(&self, session: SessionId) -> SessionSnapshot {
        let (store, slot) = self.slot_of(session);
        self.counters.inc_snapshots();
        SessionSnapshot {
            state: store.state(slot),
            vars: store.registers_of(slot).to_vec(),
            generation: session.generation,
        }
    }

    /// Captures the whole pool — every shard's sessions, registers,
    /// generations, free lists and step counters — tagged with the
    /// engine's fingerprint. Restore with [`Runtime::restore`].
    ///
    /// Armed timeouts are not captured (see [`RuntimeSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics while a hot-swap is draining: a mixed-engine pool has no
    /// single fingerprint to restore under. Finish or abort the swap
    /// first (crash recovery composes with hot-swap by restoring the
    /// last pre-swap checkpoint and re-attempting the rollout).
    pub fn snapshot_all(&self) -> RuntimeSnapshot {
        let mut snapshot = RuntimeSnapshot {
            fingerprint: 0,
            shards: Vec::new(),
        };
        self.snapshot_into(&mut snapshot);
        snapshot
    }

    /// [`Runtime::snapshot_all`] written over an earlier `snapshot`,
    /// whatever runtime took it and whatever its shape: the result is
    /// what `snapshot_all` would return, and the buffers `snapshot`
    /// already holds are reused, so a runtime checkpointed at a steady
    /// size allocates nothing to do it again.
    ///
    /// # Panics
    ///
    /// As for [`Runtime::snapshot_all`].
    pub fn snapshot_into(&self, snapshot: &mut RuntimeSnapshot) {
        assert!(
            self.pending.is_none(),
            "cannot snapshot during a draining hot-swap; finish or abort it first"
        );
        self.counters.inc_snapshots();
        snapshot.fingerprint = self.engine.fingerprint();
        snapshot
            .shards
            .resize_with(self.shards.len(), ShardSnapshot::default);
        for (shard, snap) in self.shards.iter().zip(&mut snapshot.shards) {
            shard.snapshot_into(snap);
        }
    }

    /// Rebuilds a runtime from a [`RuntimeSnapshot`], validated against
    /// `engine`'s behavioural fingerprint: a snapshot restores only
    /// into a behaviourally identical machine (any tier). The restored
    /// pool is bit-identical to the captured one — states, registers,
    /// free lists, step counters *and slot generations*, so
    /// [`SessionId`]s minted before the crash keep addressing their
    /// sessions.
    ///
    /// The timer wheel starts empty; re-arm deadlines that still matter.
    /// The metric counters ([`Runtime::metrics`]) start at zero too, but
    /// for `restores` = 1: a snapshot carries sessions and step counts,
    /// not counters. (An in-place [`Runtime::begin_swap`] keeps them.)
    ///
    /// # Errors
    ///
    /// [`StategenError::SnapshotMismatch`] if the snapshot was taken
    /// under an engine with a different fingerprint;
    /// [`StategenError::UnreachableConfiguration`] if a session's
    /// `(state, registers)` pair is one `engine`'s machine cannot reach
    /// (impossible for a snapshot produced by
    /// [`Runtime::snapshot_all`]; only an engine that unfolded its
    /// machine checks).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is structurally corrupt (impossible for a
    /// snapshot produced by [`Runtime::snapshot_all`]).
    pub fn restore(engine: &Engine, snapshot: &RuntimeSnapshot) -> Result<Runtime, StategenError> {
        if engine.fingerprint() != snapshot.fingerprint {
            return Err(StategenError::SnapshotMismatch {
                expected: engine.fingerprint(),
                found: snapshot.fingerprint,
            });
        }
        assert!(
            !snapshot.shards.is_empty(),
            "corrupt runtime snapshot: zero shards"
        );
        let shards = snapshot
            .shards
            .iter()
            .map(|s| Shard::restore(engine.step.clone(), s))
            .collect::<Result<_, _>>()?;
        let runtime = Runtime::over(engine.clone(), shards);
        runtime.counters.inc_restores();
        Ok(runtime)
    }

    /// Begins a drain-and-switch hot-swap to `incoming` — the live
    /// half of a fleet protocol-version rollout: load the new version's
    /// [`Artifact`](stategen_core::Artifact) into an
    /// [`Engine`](Engine::from_artifact), then swap it in without
    /// dropping in-flight sessions.
    ///
    /// Three outcomes, decided *before any session moves*:
    ///
    /// * **Migrated** — `incoming` has the same behavioural fingerprint
    ///   as the serving engine (same machine, any tier/provenance):
    ///   every live session is migrated in place via snapshot/restore,
    ///   all handles stay valid, and the swap completes immediately.
    /// * **Completed** — different behaviour but no live sessions:
    ///   every shard is re-targeted immediately.
    /// * **Draining** — different behaviour with live sessions: those
    ///   sessions keep being served by the outgoing engine until
    ///   [`release`](Runtime::release)d, new spawns land on the
    ///   incoming engine, and [`Runtime::finish_swap`] completes the
    ///   switch once [`Runtime::draining_sessions`] reaches zero.
    ///   [`Runtime::abort_swap`] rolls back instead.
    ///
    /// An incompatible engine is rejected with the runtime untouched:
    /// behaviourally different engines may only swap when their message
    /// alphabets are identical, because both serve the same
    /// [`MessageId`]s during the drain.
    ///
    /// # Errors
    ///
    /// [`SwapError::AlreadyInProgress`] if a swap is draining;
    /// [`SwapError::AlphabetMismatch`] if the alphabets differ (both
    /// via [`StategenError::Swap`]);
    /// [`StategenError::UnreachableConfiguration`] if an in-place
    /// migration would put a session where `incoming`'s machine cannot
    /// be (as for [`Runtime::restore`]).
    pub fn begin_swap(&mut self, incoming: Engine) -> Result<SwapOutcome, StategenError> {
        if self.pending.is_some() {
            return Err(SwapError::AlreadyInProgress.into());
        }
        if incoming.fingerprint() == self.engine.fingerprint() {
            // Behaviourally identical: migrate every session in place.
            // State ids and registers are meaningful under the incoming
            // engine by the fingerprint's definition, and the store's
            // restore re-validates them structurally. Generations, free
            // list and telemetry are the shard's own and stay put.
            let sessions = self.len();
            // Every shard's store is rebuilt before any is replaced, so
            // a refused restore leaves the runtime untouched.
            let (mut states, mut registers) = (Vec::new(), Vec::new());
            let rebuild = |shard: &Shard| {
                let mut store = SessionStore::new(incoming.step.clone(), 0);
                let old = &shard.store;
                old.states_into(&mut states);
                old.registers_into(&mut registers);
                store.restore(&states, &registers, old.steps())?;
                Ok(store)
            };
            let stores: Result<Vec<_>, StategenError> = self.shards.iter().map(rebuild).collect();
            for (shard, store) in self.shards.iter_mut().zip(stores?) {
                shard.store = store;
                shard.lockstep = None;
            }
            self.engine = incoming;
            self.counters.add_swap_migrated(sessions as u64);
            self.counters.inc_swaps_completed();
            return Ok(SwapOutcome::Migrated { sessions });
        }
        if incoming.messages() != self.engine.messages() {
            return Err(SwapError::AlphabetMismatch {
                serving: self.engine.messages().len(),
                incoming: incoming.messages().len(),
            }
            .into());
        }
        let mut draining = Vec::new();
        let mut fresh = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if shard.live() == 0 {
                shard.store.retarget(incoming.step.clone());
                fresh.push(i);
            } else {
                draining.push(i);
            }
        }
        if draining.is_empty() {
            self.engine = incoming;
            self.counters.inc_swaps_completed();
            return Ok(SwapOutcome::Completed);
        }
        if fresh.is_empty() {
            // Every shard is draining: append fresh shards for the
            // incoming engine (matching the outgoing parallelism) so
            // new spawns have somewhere to land. Appending never
            // disturbs existing shard indices or handles.
            for _ in 0..draining.len() {
                fresh.push(self.shards.len());
                self.shards.push(self.fresh_shard(&incoming));
            }
        }
        let sessions = draining.iter().map(|&i| self.shards[i].live()).sum();
        self.pending = Some(PendingSwap {
            engine: incoming,
            draining,
            incoming: fresh,
        });
        self.counters.inc_swaps_drained();
        Ok(SwapOutcome::Draining { sessions })
    }

    /// Completes a draining hot-swap: once every session on the
    /// outgoing engine has been released, the drained shards are
    /// re-targeted at the incoming engine (generation history intact,
    /// so pre-swap handles stay loudly stale) and it becomes the
    /// serving [`Runtime::engine`].
    ///
    /// # Errors
    ///
    /// [`SwapError::NotInProgress`] if no swap is draining;
    /// [`SwapError::Draining`] (with the live count) if sessions still
    /// hold the outgoing engine — note a *finished* session still
    /// counts until it is [`release`](Runtime::release)d (both via
    /// [`StategenError::Swap`]).
    pub fn finish_swap(&mut self) -> Result<(), StategenError> {
        let Some(pending) = &self.pending else {
            return Err(SwapError::NotInProgress.into());
        };
        let remaining: usize = pending
            .draining
            .iter()
            .map(|&i| self.shards[i].live())
            .sum();
        if remaining > 0 {
            return Err(SwapError::Draining { remaining }.into());
        }
        let pending = self.pending.take().expect("checked above");
        for &i in &pending.draining {
            self.shards[i].store.retarget(pending.engine.step.clone());
        }
        self.engine = pending.engine;
        self.counters.inc_swaps_completed();
        Ok(())
    }

    /// Rolls back a draining hot-swap: sessions spawned on the incoming
    /// engine since [`Runtime::begin_swap`] are force-released (their
    /// handles become stale and their timeouts are cancelled — the cost
    /// of aborting a rollout), the incoming shards are re-targeted back
    /// at the outgoing engine, and the runtime serves exactly the
    /// engine it served before the swap began. Returns how many
    /// incoming-engine sessions were dropped.
    ///
    /// Shards appended for the swap are kept (re-targeted, empty) —
    /// never removed, so slot generations can never restart and collide
    /// with handles minted during the aborted swap.
    ///
    /// # Errors
    ///
    /// [`SwapError::NotInProgress`] (via [`StategenError::Swap`]) if no
    /// swap is draining.
    pub fn abort_swap(&mut self) -> Result<usize, StategenError> {
        let Some(pending) = self.pending.take() else {
            return Err(SwapError::NotInProgress.into());
        };
        self.counters.inc_swaps_aborted();
        // Capture the trace *before* the force-release below retires
        // the incoming sessions and re-targets their shards (which
        // would invalidate the dump's state labels).
        if self.recorder_capacity.is_some() {
            self.abort_dump = Some(self.dump_trace());
        }
        let mut dropped = 0;
        for &i in &pending.incoming {
            let shard = &mut self.shards[i];
            for slot in 0..shard.store.len() {
                if shard.store.is_retired(slot) {
                    continue;
                }
                let id = SessionId {
                    shard: i as u32,
                    slot: slot as u32,
                    generation: shard.generations[slot],
                };
                shard.release_slot(id);
                self.timers.cancel(&id);
                dropped += 1;
            }
            self.shards[i].store.retarget(self.engine.step.clone());
        }
        Ok(dropped)
    }

    /// `true` while a hot-swap is draining (between a
    /// [`SwapOutcome::Draining`] and the matching
    /// [`finish_swap`](Runtime::finish_swap) /
    /// [`abort_swap`](Runtime::abort_swap)).
    pub fn swap_in_progress(&self) -> bool {
        self.pending.is_some()
    }

    /// Sessions still live on the outgoing engine of a draining
    /// hot-swap (0 when no swap is in progress). The swap can
    /// [`finish`](Runtime::finish_swap) once this reaches zero.
    pub fn draining_sessions(&self) -> usize {
        self.pending.as_ref().map_or(0, |p| {
            p.draining.iter().map(|&i| self.shards[i].live()).sum()
        })
    }

    /// The engine a draining hot-swap is switching to, if one is in
    /// progress.
    pub fn incoming_engine(&self) -> Option<&Engine> {
        self.pending.as_ref().map(|p| &p.engine)
    }

    /// Arms (or moves) a timeout for one live session. When
    /// [`Runtime::advance_time`] passes `deadline`, the session is
    /// delivered the caller's timeout message through the normal
    /// delivery path — timeouts are just transitions. One deadline per
    /// session: re-arming moves it. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn arm_timeout(&mut self, session: SessionId, deadline: u64) {
        self.shards[session.shard as usize].check(session);
        self.timers.arm(session, deadline);
    }

    /// Cancels a session's armed timeout; returns `true` if one was
    /// armed. O(1); never panics (a stale handle simply has no timer —
    /// [`Runtime::release`] cancels eagerly).
    pub fn cancel_timeout(&mut self, session: SessionId) -> bool {
        let cancelled = self.timers.cancel(&session);
        if cancelled {
            self.counters.inc_timeouts_cancelled();
        }
        cancelled
    }

    /// Advances the timer clock to `now` and delivers `timeout` to
    /// every session whose deadline passed, in deadline order (ties in
    /// arm order), through the normal delivery path. Sessions released
    /// after arming are skipped (their generational key no longer
    /// addresses a live execution); finished sessions absorb the
    /// message like any other. Returns how many sessions were delivered
    /// the timeout.
    ///
    /// No full-session scan happens here — cost is O(expired) plus the
    /// wheel's slot bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than a previous `advance_time` call
    /// (the timer clock is monotone).
    pub fn advance_time(&mut self, now: u64, timeout: MessageId) -> usize {
        let mut expired = std::mem::take(&mut self.expired_scratch);
        expired.clear();
        expired.extend_from_slice(self.timers.advance(now));
        let mut delivered = 0;
        for &session in &expired {
            let Some(shard) = self.shards.get_mut(session.shard as usize) else {
                continue;
            };
            if !shard.is_live_slot(session) {
                continue;
            }
            shard.deliver_slot(session, timeout);
            delivered += 1;
        }
        self.expired_scratch = expired;
        self.counters.add_timeouts_fired(delivered as u64);
        delivered
    }

    /// A lower bound on the earliest armed deadline, if any timer is
    /// armed — a wake-up hint for callers that sleep between
    /// [`Runtime::advance_time`] calls (see
    /// [`TimerWheel::next_deadline`]).
    pub fn next_timeout(&self) -> Option<u64> {
        self.timers.next_deadline()
    }

    /// Number of currently armed timeouts.
    pub fn pending_timeouts(&self) -> usize {
        self.timers.len()
    }

    /// A point-in-time [`MetricsSnapshot`] of every telemetry counter:
    /// per-shard session counters (deliveries, transitions, guard
    /// fall-throughs, spawns, releases, resets) merged with the
    /// runtime-level ones (timeouts, timer cascades, swaps, snapshots,
    /// restores). O(shards); never blocks delivery — the counters are
    /// relaxed atomics written by at most one thread each.
    ///
    /// Counters are always on: they cost one cache-local add per event
    /// and need no [`Runtime::attach_recorder`] call. They count from
    /// the runtime's creation: a [`Runtime::restore`]d runtime starts
    /// them at zero (`restores` at 1), while an in-place
    /// [`Runtime::begin_swap`] keeps them.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            shard.counters.merge_into(&mut snap);
        }
        self.counters.merge_into(&mut snap);
        snap.timer_cascades = self.timers.cascades();
        snap
    }

    /// Attaches a flight recorder: every shard gets a fixed-capacity
    /// ring (rounded up to a power of two) retaining its last
    /// `capacity` transitions, and [`Runtime::deliver_all`] starts
    /// recording per-batch wall-clock latency into
    /// [`Runtime::batch_latency`]. Idempotent re-attach clears the
    /// rings. Allocation happens *here*, once — the per-transition
    /// record path never allocates.
    ///
    /// Observation never changes behaviour: delivered actions, states,
    /// snapshots and swap outcomes are bit-identical with or without a
    /// recorder attached (the operation oracle in `tests/oracle/mod.rs`
    /// toggles one mid-script).
    /// The unobserved path costs one check of the shard's `recorder`
    /// per batch and per single-session transition, not a branch per
    /// event.
    pub fn attach_recorder(&mut self, capacity: usize) {
        self.recorder_capacity = Some(capacity);
        for shard in &mut self.shards {
            shard.recorder = Some(FlightRecorder::new(capacity));
        }
        self.batch_latency = Some(Box::new(LogHistogram::new()));
    }

    /// Detaches the flight recorder (and the batch-latency histogram),
    /// returning the runtime to the provably-free unobserved path.
    /// Counters stay on; a pending [`Runtime::abort_dump`] is kept.
    pub fn detach_recorder(&mut self) {
        self.recorder_capacity = None;
        for shard in &mut self.shards {
            shard.recorder = None;
        }
        self.batch_latency = None;
    }

    /// `true` while a flight recorder is attached.
    pub fn recorder_attached(&self) -> bool {
        self.recorder_capacity.is_some()
    }

    /// Wall-clock nanoseconds per [`Runtime::deliver_all`] batch,
    /// recorded while a recorder is attached (`None` otherwise).
    pub fn batch_latency(&self) -> Option<&LogHistogram> {
        self.batch_latency.as_deref()
    }

    /// Renders every shard's flight-recorder ring as a human-readable
    /// trace, oldest event first — the post-mortem artifact printed on
    /// invariant failures and captured by [`Runtime::abort_swap`] —
    /// under one header line naming the serving engine, its tier and
    /// the lowering [`Engine::compile`] chose for it.
    /// State ids recorded under a since-swapped-out engine that no
    /// longer resolve are rendered as `state#N`.
    pub fn dump_trace(&self) -> String {
        if self.recorder_capacity.is_none() {
            return "flight recorder not attached\n".to_string();
        }
        let mut out = format!("{}\n", self.engine.describe());
        let messages = self.engine.messages();
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(rec) = &shard.recorder else { continue };
            let _ = writeln!(
                out,
                "shard {i}: retaining {} of {} recorded transitions",
                rec.len(),
                rec.recorded(),
            );
            let engine = shard.store.engine();
            let label = |state: u32| -> String {
                if (state as usize) < engine.state_count() {
                    engine.state_name(state).to_string()
                } else {
                    format!("state#{state}")
                }
            };
            for event in rec.iter() {
                let message = messages
                    .get(event.message as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                let _ = writeln!(
                    out,
                    "  [{:>6}] s{}g{}: {} --{}--> {} ({} actions)",
                    event.tick,
                    event.slot,
                    event.generation,
                    label(event.from),
                    message,
                    label(event.to),
                    event.actions,
                );
            }
        }
        out
    }

    /// The flight-recorder dump captured by the last
    /// [`Runtime::abort_swap`] while a recorder was attached (`None`
    /// otherwise): what every session was doing when the rollout was
    /// rolled back.
    pub fn abort_dump(&self) -> Option<&str> {
        self.abort_dump.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use stategen_core::{ProtocolEngine, StateMachine, StateMachineBuilder, StateRole};

    use super::*;
    use crate::engine::{Engine, Tier};
    use crate::spec::Spec;

    fn finishing_machine() -> StateMachine {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("FINISHED", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "a", fin, vec![]);
        b.build(s0)
    }

    fn compiled_runtime() -> Runtime {
        Engine::compile(Spec::machine(finishing_machine()))
            .unwrap()
            .runtime()
    }

    #[test]
    fn spawn_deliver_walks_to_finish() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        assert_eq!(rt.deliver(s, a), [Action::send("x")]);
        assert_eq!(rt.state_name(s), "s1");
        assert!(rt.deliver(s, a).is_empty());
        assert!(rt.is_finished(s));
        assert_eq!(rt.steps(), 2);
        // Finished sessions absorb.
        assert!(rt.deliver(s, a).is_empty());
        assert_eq!(rt.steps(), 2);
    }

    #[test]
    fn release_recycles_slot_with_fresh_generation() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let first = rt.spawn();
        rt.deliver(first, a);
        rt.release(first);
        assert!(!rt.is_live(first));
        assert_eq!(rt.len(), 0);
        let second = rt.spawn();
        // Same slot, next generation: the handle is distinguishable.
        assert_eq!(second.slot(), first.slot());
        assert_eq!(second.generation(), first.generation() + 1);
        assert_eq!(format!("{first:?}"), "s0:0");
        assert_eq!(format!("{second:?}"), "s0:0#1");
        // The recycled slot starts a fresh execution.
        assert_eq!(rt.state_name(second), "s0");
    }

    #[test]
    fn try_deliver_accepts_live_and_rejects_stale_handles() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        // Live handle: identical behaviour to `deliver`.
        assert_eq!(rt.try_deliver(s, a).unwrap(), [Action::send("x")]);
        assert_eq!(rt.state_name(s), "s1");
        // Released handle: an error, not a panic.
        rt.release(s);
        assert_eq!(
            rt.try_deliver(s, a),
            Err(StategenError::StaleSession {
                shard: 0,
                slot: 0,
                generation: 0
            })
        );
        // Recycled slot: the stale generation still fails loudly while
        // the fresh handle keeps working.
        let fresh = rt.spawn();
        assert!(matches!(
            rt.try_deliver(s, a),
            Err(StategenError::StaleSession { generation: 0, .. })
        ));
        assert!(rt.try_deliver(fresh, a).is_ok());
        let err = rt.try_deliver(s, a).unwrap_err();
        assert!(err.to_string().contains("stale session handle s0:0#0"));
    }

    #[test]
    fn try_deliver_rejects_foreign_message_ids() {
        // A message id minted by a machine with a larger alphabet must
        // not index the wrong table cell: error, not misdelivery.
        let mut wide = StateMachineBuilder::new("wide", ["a", "b", "c", "d"]);
        let s0 = wide.add_state("s0");
        wide.add_transition(s0, "d", s0, vec![]);
        let wide_engine = Engine::compile(Spec::machine(wide.build(s0))).unwrap();
        let foreign_mid = wide_engine.message_id("d").unwrap();

        let mut rt = compiled_runtime(); // two-message alphabet
        let s = rt.spawn();
        assert_eq!(
            rt.try_deliver(s, foreign_mid),
            Err(StategenError::MessageOutOfRange {
                index: 3,
                messages: 2
            })
        );
        // The session is untouched and still deliverable.
        let a = rt.message_id("a").unwrap();
        assert_eq!(rt.try_deliver(s, a).unwrap(), [Action::send("x")]);
    }

    /// A foreign message id in a *batch* panics with one message on both
    /// tiers and every lowering — it used to be ignored by the
    /// interpreter and index out of bounds on the dense table — flat or
    /// sharded, observed or
    /// not: a sharded runtime used to report its worker's death instead,
    /// and an observed one the recorder's tail probe's own complaint,
    /// losing the recorder. `verify.sh` re-runs this in release.
    #[test]
    fn deliver_all_rejects_foreign_message_ids_on_every_tier() {
        use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig};

        // An id minted by a seven-message machine: outside both alphabets.
        let mut wide = StateMachineBuilder::new("wide", ["0", "1", "2", "3", "4", "5", "6"]);
        let s0 = wide.add_state("s0");
        let wide = Engine::compile(Spec::machine(wide.build(s0))).unwrap();
        let foreign = wide.message_id("6").unwrap();
        let efsm = Spec::efsm(
            commit_efsm(),
            commit_efsm_params(&CommitConfig::new(4).unwrap()),
        );
        // r = 64 is past the unfolding budget: the interpreter.
        let wide_efsm = Spec::efsm(
            commit_efsm(),
            commit_efsm_params(&CommitConfig::new(64).unwrap()),
        );
        let engines = [
            Engine::interpret(Spec::machine(finishing_machine())).unwrap(),
            Engine::compile(Spec::machine(finishing_machine())).unwrap(),
            Engine::compile(efsm.clone()).unwrap(),
            Engine::compile(wide_efsm.clone()).unwrap(),
            Engine::interpret(efsm).unwrap(),
        ];
        assert_eq!(engines[3].tier(), Tier::Interpreted);
        let why = "interpreted: over budget at 4097 configurations";
        assert!(format!("{:?}", engines[3]).contains(why));
        // Its sessions still move: a snapshot restores under the
        // explicitly interpreted engine, and a drain-and-switch swap
        // lands them on the unfolded r = 4 engine of the same machine.
        let mut rt = engines[3].runtime();
        let live: Vec<_> = (0..3).map(|_| rt.spawn()).collect();
        rt.deliver(live[0], rt.message_id("update").unwrap());
        let snap = rt.snapshot_all();
        let walked = Engine::interpret(wide_efsm).unwrap();
        assert_eq!(
            Runtime::restore(&walked, &snap).unwrap().snapshot_all(),
            snap
        );
        let draining = SwapOutcome::Draining { sessions: 3 };
        assert_eq!(rt.begin_swap(engines[2].clone()), Ok(draining));
        live.into_iter().for_each(|s| rt.release(s));
        assert_eq!(rt.finish_swap(), Ok(()));
        assert_eq!(rt.engine().tier(), Tier::Compiled);
        for engine in engines {
            let alphabet = engine.messages().len();
            // A lockstep pool, then a divergent one; flat, then forked
            // over two and three shards; without a recorder, then with.
            for diverge in [false, true] {
                for shards in 1..=3 {
                    for observed in [false, true] {
                        let mut rt = engine.runtime().sharded(shards);
                        rt.spawn_many(6);
                        if observed {
                            rt.attach_recorder(4);
                        }
                        let first = rt.message_id(&engine.messages()[0]).unwrap();
                        let one = rt.spawn();
                        if diverge {
                            rt.deliver(one, first);
                        }
                        let before = rt.snapshot_all();
                        let batch = std::panic::AssertUnwindSafe(|| rt.deliver_all(foreign));
                        let panic = std::panic::catch_unwind(batch).expect_err("not delivered");
                        assert_eq!(
                            panic.downcast_ref::<String>().map(String::as_str),
                            Some(&*format!(
                                "message id 6 is outside this engine's alphabet of {alphabet} messages"
                            )),
                            "{} tier, {shards} shards, observed: {observed}",
                            engine.tier()
                        );
                        assert_eq!(rt.snapshot_all(), before, "no session was touched");
                        let rings = rt.dump_trace().matches("\nshard ").count();
                        assert_eq!(rings, if observed { shards } else { 0 }, "recorders kept");
                    }
                }
            }
        }
    }

    #[test]
    fn try_deliver_rejects_foreign_shard_handles() {
        // A handle minted by a 4-shard runtime does not address anything
        // in a single-shard one: error, not a panic or misdelivery.
        let engine = Engine::compile(Spec::machine(finishing_machine())).unwrap();
        let mut wide = engine.runtime().sharded(4);
        wide.spawn_many(4);
        let foreign = (0..4)
            .map(|_| wide.spawn())
            .find(|s| s.shard() == 3)
            .expect("a session on shard 3");
        let mut narrow = engine.runtime();
        let a = narrow.message_id("a").unwrap();
        assert!(matches!(
            narrow.try_deliver(foreign, a),
            Err(StategenError::StaleSession { shard: 3, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "stale session handle s0:0")]
    fn stale_handle_panics_after_recycle() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let first = rt.spawn();
        rt.release(first);
        let _second = rt.spawn(); // recycles the slot
        rt.deliver(first, a); // use-after-recycle must fail loudly
    }

    #[test]
    #[should_panic(expected = "stale session handle")]
    fn double_release_panics() {
        let mut rt = compiled_runtime();
        let s = rt.spawn();
        rt.release(s);
        rt.release(s);
    }

    #[test]
    fn deliver_all_skips_released_slots() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let keep: Vec<SessionId> = (0..10).map(|_| rt.spawn()).collect();
        let drop = rt.spawn();
        rt.release(drop);
        assert_eq!(rt.len(), 10);
        assert_eq!(rt.deliver_all(a), 10);
        assert_eq!(rt.deliver_all(a), 10);
        assert!(rt.all_finished());
        for s in keep {
            assert!(rt.is_finished(s));
        }
    }

    #[test]
    fn sharded_matches_flat_runtime() {
        let machine = finishing_machine();
        let engine = Engine::compile(Spec::machine(machine)).unwrap();
        let mut flat = engine.runtime();
        flat.spawn_many(103);
        let mut sharded = engine.runtime().sharded(4);
        sharded.spawn_many(103);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.len(), 103);
        let a = engine.message_id("a").unwrap();
        let b = engine.message_id("b").unwrap();
        for &mid in &[a, b, a, a, b] {
            assert_eq!(flat.deliver_all(mid), sharded.deliver_all(mid));
            assert_eq!(flat.finished_count(), sharded.finished_count());
            assert_eq!(flat.steps(), sharded.steps());
        }
        assert!(sharded.all_finished());
        sharded.reset_all();
        assert_eq!(sharded.finished_count(), 0);
        assert_eq!(sharded.steps(), flat.steps());
    }

    /// The finished count is eager on every shard: after any mix of
    /// single deliveries, resets, releases and forked batches, the
    /// sharded total equals the flat runtime's and a per-handle recount.
    #[test]
    fn sharded_finished_totals_match_flat_after_mixed_deliveries() {
        let engine = Engine::compile(Spec::machine(finishing_machine())).unwrap();
        let (a, b) = (
            engine.message_id("a").unwrap(),
            engine.message_id("b").unwrap(),
        );
        let mut flat = engine.runtime();
        let mut sharded = engine.runtime().sharded(4);
        let flat_ids: Vec<_> = (0..103).map(|_| flat.spawn()).collect();
        let ids: Vec<_> = (0..103).map(|_| sharded.spawn()).collect();
        let agree = |flat: &Runtime, sharded: &Runtime| {
            let recount = |rt: &Runtime, ids: &[SessionId]| {
                let live = ids.iter().filter(|&&id| rt.is_live(id));
                live.filter(|&&id| rt.is_finished(id)).count()
            };
            assert_eq!(flat.finished_count(), recount(flat, &flat_ids));
            assert_eq!(sharded.finished_count(), recount(sharded, &ids));
            assert_eq!(flat.finished_count(), sharded.finished_count());
            assert_eq!(flat.all_finished(), sharded.all_finished());
        };
        // Single deliveries diverge the pool: every third session one
        // hop ahead, every seventh finished; one finished session is
        // reset, one released.
        for i in (0..103).step_by(3) {
            for rt_ids in [(&mut flat, &flat_ids), (&mut sharded, &ids)] {
                rt_ids.0.deliver(rt_ids.1[i], a);
                if i % 7 == 0 {
                    rt_ids.0.deliver(rt_ids.1[i], a);
                }
            }
        }
        agree(&flat, &sharded);
        for (rt, ids) in [(&mut flat, &flat_ids), (&mut sharded, &ids)] {
            assert!(rt.is_finished(ids[0]) && rt.is_finished(ids[21]));
            rt.reset(ids[0]);
            rt.release(ids[21]);
        }
        agree(&flat, &sharded);
        // Forked batches between single deliveries.
        assert_eq!(flat.deliver_all(b), sharded.deliver_all(b));
        assert_eq!(flat.deliver_all(a), sharded.deliver_all(a));
        agree(&flat, &sharded);
        flat.deliver(flat_ids[1], a);
        sharded.deliver(ids[1], a);
        assert_eq!(flat.deliver_all(a), sharded.deliver_all(a));
        agree(&flat, &sharded);
        assert!(sharded.all_finished());
    }

    #[test]
    #[should_panic(expected = "before spawning")]
    fn sharded_after_spawn_panics() {
        let mut rt = compiled_runtime();
        rt.spawn();
        let _ = rt.sharded(2);
    }

    #[test]
    fn session_view_speaks_protocol_engine() {
        let mut rt = compiled_runtime();
        let id = rt.spawn();
        let mut session = rt.session(id);
        assert_eq!(session.id(), id);
        assert_eq!(session.deliver_ref("a").unwrap(), [Action::send("x")]);
        assert_eq!(session.state_name(), "s1");
        assert!(session.deliver_ref("zap").is_err());
        session.reset();
        assert_eq!(session.state_name(), "s0");
        assert!(!session.is_finished());
    }

    #[test]
    fn try_surface_rejects_stale_handles_without_panicking() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        rt.deliver(s, a);
        assert_eq!(rt.try_state(s).unwrap(), rt.state(s));
        assert_eq!(rt.try_vars(s).unwrap(), rt.vars(s));
        rt.try_reset(s).unwrap();
        assert_eq!(rt.state_name(s), "s0");
        rt.try_release(s).unwrap();
        // Every fallible call reports the same stale handle; double
        // release is an error, not a panic.
        let expect_stale = StategenError::StaleSession {
            shard: 0,
            slot: 0,
            generation: 0,
        };
        assert_eq!(rt.try_release(s), Err(expect_stale.clone()));
        assert_eq!(rt.try_reset(s), Err(expect_stale.clone()));
        assert_eq!(rt.try_state(s), Err(expect_stale.clone()));
        assert_eq!(rt.try_vars(s), Err(expect_stale));
    }

    #[test]
    fn snapshot_restore_round_trips_and_preserves_handles() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s1 = rt.spawn();
        let s2 = rt.spawn();
        let gone = rt.spawn();
        rt.deliver(s1, a);
        rt.release(gone); // free list + bumped generation must survive
        let snap = rt.snapshot_all();
        assert_eq!(snap.fingerprint(), rt.engine().fingerprint());
        assert_eq!(snap.live_sessions(), 2);

        let mut restored = Runtime::restore(rt.engine(), &snap).unwrap();
        // Bit-identical: a re-snapshot equals the original.
        assert_eq!(restored.snapshot_all(), snap);
        // Old handles keep addressing their sessions...
        assert_eq!(restored.state_name(s1), "s1");
        assert_eq!(restored.state_name(s2), "s0");
        assert_eq!(restored.steps(), rt.steps());
        // ...stale ones stay stale...
        assert!(!restored.is_live(gone));
        // ...and the free list recycles with the bumped generation.
        let fresh = restored.spawn();
        assert_eq!(fresh.slot(), gone.slot());
        assert_eq!(fresh.generation(), gone.generation() + 1);
        // The restored pool keeps executing.
        restored.deliver(s1, a);
        assert!(restored.is_finished(s1));
    }

    /// A restored runtime counts from zero but for its one restore; an
    /// in-place swap keeps every counter.
    #[test]
    fn restore_restarts_the_counters_and_a_swap_keeps_them() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        rt.deliver(s, a);
        let before = rt.metrics();
        assert_eq!((before.spawns, before.deliveries), (1, 1));
        let walked = Engine::interpret(Spec::machine(finishing_machine())).unwrap();
        let migrated = SwapOutcome::Migrated { sessions: 1 };
        assert_eq!(rt.begin_swap(walked), Ok(migrated));
        let swapped = MetricsSnapshot {
            swaps_completed: 1,
            swap_migrated_sessions: 1,
            ..before
        };
        assert_eq!(rt.metrics(), swapped);
        let restored = Runtime::restore(rt.engine(), &rt.snapshot_all()).unwrap();
        let restarted = MetricsSnapshot {
            restores: 1,
            ..MetricsSnapshot::default()
        };
        assert_eq!(restored.metrics(), restarted);
        assert_eq!(restored.steps(), rt.steps());
    }

    #[test]
    fn restore_rejects_fingerprint_mismatch() {
        let rt = compiled_runtime();
        let snap = rt.snapshot_all();
        let mut other = StateMachineBuilder::new("other", ["a"]);
        let s0 = other.add_state("s0");
        other.add_transition(s0, "a", s0, vec![]);
        let other = Engine::compile(Spec::machine(other.build(s0))).unwrap();
        assert!(matches!(
            Runtime::restore(&other, &snap),
            Err(StategenError::SnapshotMismatch { .. })
        ));
        // Same behaviour on a different tier restores fine.
        let interp = Engine::interpret(Spec::machine(finishing_machine())).unwrap();
        assert_eq!(interp.fingerprint(), rt.engine().fingerprint());
        let restored = Runtime::restore(&interp, &snap).unwrap();
        assert_eq!(restored.snapshot_all(), snap);
    }

    /// An unfolded engine knows which `(state, registers)` pairs its
    /// machine can reach, so a snapshot naming any other is refused —
    /// typed error, nothing changed — by `restore` and by an in-place
    /// swap migration alike; the tiers that keep registers cannot tell
    /// and accept it. (`scripts/verify.sh` re-runs this in release.)
    #[test]
    fn restore_refuses_unreachable_configurations() {
        use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig};

        let spec = Spec::efsm(
            commit_efsm(),
            commit_efsm_params(&CommitConfig::new(4).unwrap()),
        );
        let unfolded = Engine::compile(spec.clone()).unwrap();
        let interpreted = Engine::interpret(spec).unwrap();
        assert_eq!(unfolded.tier(), Tier::Compiled);
        let mut rt = unfolded.runtime_with(3);
        let update = rt.message_id("update").unwrap();
        rt.deliver_all(update);
        let mut snap = rt.snapshot_all();
        assert!(Runtime::restore(&unfolded, &snap).is_ok());
        // Slot 1 claims 40 votes of a 4-replica protocol.
        let regs = snap.shards[0].vars.len() / 3;
        snap.shards[0].vars[regs] = 40;
        let refused = StategenError::UnreachableConfiguration {
            slot: 1,
            state: snap.shards[0].current[1],
        };
        assert_eq!(
            Runtime::restore(&unfolded, &snap).err(),
            Some(refused.clone())
        );
        // The interpreter takes the registers as they come …
        let mut lenient = Runtime::restore(&interpreted, &snap).unwrap();
        let before = lenient.snapshot_all();
        // … and migrating its sessions onto the unfolded engine is
        // refused with the runtime exactly as it was.
        assert_eq!(lenient.begin_swap(unfolded.clone()).err(), Some(refused));
        assert_eq!(lenient.engine().tier(), Tier::Interpreted);
        assert!(!lenient.swap_in_progress());
        assert_eq!(lenient.snapshot_all(), before);
        // A retired slot's registers are nobody's configuration.
        let gone = SessionId {
            shard: 0,
            slot: 1,
            generation: 0,
        };
        lenient.release(gone);
        assert_eq!(
            lenient.begin_swap(unfolded),
            Ok(SwapOutcome::Migrated { sessions: 2 })
        );
        assert_eq!(lenient.engine().tier(), Tier::Compiled);
    }

    #[test]
    fn session_snapshot_captures_state_and_generation() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        rt.deliver(s, a);
        let snap = rt.snapshot(s);
        assert_eq!(snap.state, rt.state(s));
        assert_eq!(snap.generation, s.generation());
        assert!(snap.vars.is_empty()); // non-EFSM tier
    }

    #[test]
    fn timeouts_fire_through_the_delivery_path() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let slow = rt.spawn();
        let done = rt.spawn();
        let released = rt.spawn();
        rt.arm_timeout(slow, 100);
        rt.arm_timeout(done, 100);
        rt.arm_timeout(released, 100);
        assert_eq!(rt.pending_timeouts(), 3);
        // One finishes early, one is released: neither may time out.
        rt.deliver(done, a);
        rt.cancel_timeout(done);
        rt.release(released); // cancels eagerly
        assert_eq!(rt.pending_timeouts(), 1);
        // The wake hint is a coarse lower bound, never later than the
        // real deadline.
        assert!(rt.next_timeout().is_some_and(|hint| hint <= 100));
        assert_eq!(rt.advance_time(99, a), 0);
        assert_eq!(rt.state_name(slow), "s0");
        // The timeout is an ordinary message: here it drives "a".
        assert_eq!(rt.advance_time(100, a), 1);
        assert_eq!(rt.state_name(slow), "s1");
        assert_eq!(rt.pending_timeouts(), 0);
        // Re-arming moves the deadline; a session released after arming
        // is skipped even without an explicit cancel.
        rt.arm_timeout(slow, 150);
        rt.arm_timeout(slow, 200);
        let stale_target = rt.spawn();
        rt.arm_timeout(stale_target, 200);
        rt.shards[stale_target.shard as usize].release_slot(stale_target);
        assert_eq!(rt.advance_time(200, a), 1);
        assert!(rt.is_finished(slow));
    }

    #[test]
    fn interpreted_tier_matches_compiled() {
        let machine = finishing_machine();
        let compiled = Engine::compile(Spec::machine(machine.clone())).unwrap();
        let interp = Engine::interpret(Spec::machine(machine)).unwrap();
        assert_eq!(compiled.tier(), Tier::Compiled);
        assert_eq!(interp.tier(), Tier::Interpreted);
        let mut rc = compiled.runtime_with(5);
        let mut ri = interp.runtime_with(5);
        for name in ["b", "a", "b", "a", "a"] {
            let mid_c = rc.message_id(name).unwrap();
            let mid_i = ri.message_id(name).unwrap();
            assert_eq!(rc.deliver_all(mid_c), ri.deliver_all(mid_i));
            assert_eq!(rc.finished_count(), ri.finished_count());
        }
        let (sc, si) = (rc.spawn(), ri.spawn());
        assert_eq!(rc.state_name(sc), ri.state_name(si));
    }

    /// ROADMAP 1(c): a slot's generation counter must never wrap. After
    /// `u32::MAX` recycles the slot is retired for good, so no stale
    /// handle can ever alias a later execution — on every tier, with
    /// batches, counts and snapshots unaffected by the dead slot.
    #[test]
    fn exhausted_generation_retires_the_slot_for_good() {
        let engine = Engine::compile(Spec::machine(finishing_machine())).unwrap();
        let mut rt = engine.runtime();
        let a = rt.message_id("a").unwrap();
        let bystander = rt.spawn();
        let old = rt.spawn();
        // Age the slot to one recycle short of exhaustion.
        rt.shards[0].generations[old.slot()] = u32::MAX - 1;
        let h0 = SessionId {
            generation: u32::MAX - 1,
            ..old
        };
        assert!(!rt.is_live(old), "the aged slot's first handle is stale");
        rt.release(h0); // generation -> u32::MAX, slot listed for reuse
        let h1 = rt.spawn();
        assert_eq!((h1.slot(), h1.generation()), (old.slot(), u32::MAX));
        rt.release(h1); // no generation left: retired for good
        let fresh = rt.spawn();
        assert_ne!(
            fresh.slot(),
            old.slot(),
            "an exhausted slot is never reused"
        );
        for stale in [old, h0, h1] {
            assert!(!rt.is_live(stale));
            assert!(matches!(
                rt.try_deliver(stale, a),
                Err(StategenError::StaleSession { .. })
            ));
            assert!(rt.try_release(stale).is_err());
        }
        // The dead slot is skipped by counts and batches...
        assert_eq!(rt.len(), 2);
        assert_eq!(rt.deliver_all(a), 2);
        assert_eq!(rt.deliver_all(a), 2);
        assert!(rt.all_finished());
        // ...and survives a snapshot round trip as dead as it was.
        let snap = rt.snapshot_all();
        assert_eq!(snap.live_sessions(), 2);
        let mut restored = Runtime::restore(&engine, &snap).unwrap();
        assert_eq!(restored.snapshot_all(), snap);
        assert_eq!(restored.len(), 2);
        assert!(restored.is_finished(bystander) && restored.is_finished(fresh));
        assert!(!restored.is_live(h1));
        let next = restored.spawn();
        assert!(next.slot() != old.slot() && next.slot() != fresh.slot());
        restored.reset_all();
        assert_eq!(restored.deliver_all(a), 3);
    }

    /// The production observed path (tail probe + unobserved pass, see
    /// [`Shard::capture_batch_tail`]) must leave the ring bit-identical
    /// — events, order, and sequence accounting — to recording every
    /// transition inline from the scalar walk
    /// ([`SessionStore::deliver_all_with`], slot order), across both
    /// engine tiers and every lowering, dense and holed slot arrays, guard
    /// fall-throughs, and batches larger than the ring.
    #[test]
    fn replayed_ring_matches_per_transition_recording() {
        use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, MESSAGE_NAMES};

        let config = CommitConfig::new(3).unwrap();
        // r = 64 is past the unfolding budget: the interpreter.
        let wide = CommitConfig::new(64).unwrap();
        let tiers: [(Engine, &[&str]); 4] = [
            (
                Engine::compile(Spec::machine(finishing_machine())).unwrap(),
                &["a", "b", "a", "a"],
            ),
            (
                Engine::interpret(Spec::machine(finishing_machine())).unwrap(),
                &["a", "b", "a", "a"],
            ),
            (
                Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap(),
                &MESSAGE_NAMES,
            ),
            (
                Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&wide))).unwrap(),
                &MESSAGE_NAMES,
            ),
        ];
        assert_eq!(tiers[3].0.tier(), Tier::Interpreted);
        for (engine, script) in tiers {
            let mut replayed = engine.runtime();
            let mut inline = engine.runtime();
            let handles: Vec<_> = (0..8).map(|_| replayed.spawn()).collect();
            for _ in 0..8 {
                inline.spawn();
            }
            // Ring smaller than the live set: the first batch overruns
            // it, exercising the overwritten-prefix accounting.
            replayed.attach_recorder(4);
            let mut rec = FlightRecorder::new(4);
            for (i, name) in script.iter().enumerate() {
                if i == 2 {
                    // Punch holes mid-script so later batches walk a
                    // retired-slot (sparse) loop.
                    for &h in &[handles[2], handles[5]] {
                        replayed.release(h);
                        inline.release(h);
                    }
                }
                let mid = replayed.message_id(name).unwrap();
                replayed.deliver_all(mid);
                let Shard {
                    store, generations, ..
                } = &mut inline.shards[0];
                store.deliver_all_with(mid, |slot, taken| {
                    rec.record(event(slot, generations[slot], mid, taken));
                });

                let ring = replayed.shards[0].recorder.as_ref().unwrap();
                assert_eq!(
                    ring.recorded(),
                    rec.recorded(),
                    "sequence accounting diverged"
                );
                let got: Vec<TransitionEvent> = ring.iter().collect();
                let expect: Vec<TransitionEvent> = rec.iter().collect();
                assert_eq!(
                    got, expect,
                    "ring contents diverged after batch {i} ({name})"
                );
            }
        }
    }
}
