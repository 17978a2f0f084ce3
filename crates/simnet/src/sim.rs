//! The discrete-event simulation core.
//!
//! The paper's system runs on "non-trusted platforms" over a P2P overlay
//! (§2); reproducing its behaviour requires a network in which messages
//! are delayed, lost, duplicated and reordered, and nodes fail — all
//! *deterministically*, so that every BFT safety test is replayable from
//! a seed. Nodes implement [`SimNode`]; the simulator delivers messages
//! and timer events in virtual-time order with a deterministic
//! tie-breaker: by due tick, then by the order they were queued in.
//!
//! The queue is a calendar (`sim/calendar.rs`, and the crate docs'
//! *Scheduler* section), in every build, tests included. Due times
//! saturate at [`SimTime::MAX`]:
//! a timer armed with `SimTime::MAX` as "never" stays queued through
//! every finite [`Simulation::run_until`] deadline, and the clock never
//! runs backwards.

use crate::rng::SimRng;
use crate::trace::{Trace, TraceKind};

use self::calendar::Calendar;

/// Identifier of a node within a simulation (index into the node vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The node's index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Virtual time, in abstract ticks. Due times saturate at
/// `SimTime::MAX`, which no finite [`Simulation::run_until`] deadline
/// reaches.
pub type SimTime = u64;

/// Behaviour of one simulated node.
///
/// Handlers receive a [`Context`] through which they read the clock, send
/// messages, set timers and draw deterministic randomness.
pub trait SimNode<M> {
    /// Invoked once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Invoked when a message is delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, message: M);

    /// Invoked when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Invoked when this node restarts after a crash (see
    /// [`Simulation::schedule_restart`]), *before* any post-restart
    /// message is delivered to it.
    ///
    /// The default is a no-op, which models a node whose in-memory
    /// state survived intact — fine for hand-written test nodes.
    /// Realistic recovery overrides this to discard volatile state and
    /// reload the last durable checkpoint (crashing loses everything
    /// that was not checkpointed), then re-arm whatever timers still
    /// matter: timers set before the crash die with it, while in-flight
    /// *messages* addressed to the node survive and are delivered once
    /// it is back up.
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }
}

/// Network and schedule parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all randomness (delays, drops, node RNGs).
    pub seed: u64,
    /// Minimum message latency in ticks.
    pub min_delay: SimTime,
    /// Maximum message latency in ticks (inclusive).
    pub max_delay: SimTime,
    /// Probability that a message is silently dropped.
    pub drop_probability: f64,
    /// Probability that a delivered message is delivered twice.
    pub duplicate_probability: f64,
    /// Probability that a message is *reordered*: held back by an extra
    /// delay beyond its drawn latency, letting later sends overtake it.
    pub reorder_probability: f64,
    /// Upper bound (inclusive, in ticks) on the extra hold-back applied
    /// to a reordered message — reordering is bounded, not arbitrary.
    /// Treated as at least 1.
    pub reorder_bound: SimTime,
    /// Upper bound on processed events (guards against runaway loops).
    /// A run it cuts short reports [`SimStats::budget_exhausted`].
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            min_delay: 1,
            max_delay: 10,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_bound: 100,
            max_steps: 10_000_000,
        }
    }
}

/// Side-effect interface handed to node handlers.
#[derive(Debug)]
pub struct Context<'a, M> {
    now: SimTime,
    self_id: NodeId,
    node_count: usize,
    rng: &'a mut SimRng,
    effects: &'a mut Vec<Effect<M>>,
}

impl<M> Context<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Deterministic per-node randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends `message` to `to` (latency, loss and duplication are applied
    /// by the simulator).
    pub fn send(&mut self, to: NodeId, message: M) {
        self.effects.push(Effect::Send { to, message });
    }

    /// Sends `message` to every node except this one.
    pub fn broadcast(&mut self, message: M)
    where
        M: Clone,
    {
        for i in 0..self.node_count {
            if i != self.self_id.0 {
                self.send(NodeId(i), message.clone());
            }
        }
    }

    /// Schedules [`SimNode::on_timer`] with `tag` after `delay` ticks,
    /// saturating at [`SimTime::MAX`]: a `delay` of `SimTime::MAX` means
    /// "never" for any finite [`Simulation::run_until`] deadline.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.effects.push(Effect::Timer { delay, tag });
    }
}

#[derive(Debug)]
enum Effect<M> {
    Send { to: NodeId, message: M },
    Timer { delay: SimTime, tag: u64 },
}

#[derive(Debug)]
enum Payload<M> {
    Message {
        from: NodeId,
        message: M,
    },
    /// A timer armed during incarnation `epoch` of the target node;
    /// stale epochs are discarded (timers die with a crash, messages
    /// survive it).
    Timer {
        tag: u64,
        epoch: u32,
    },
    /// Fault-schedule control: fail-stop the target node.
    Crash,
    /// Fault-schedule control: bring the target node back up (invoking
    /// [`SimNode::on_restart`]).
    Restart,
}

#[derive(Debug)]
struct Event<M> {
    at: SimTime,
    seq: u64,
    to: NodeId,
    payload: Payload<M>,
}

// Ordering for the far heap (via Reverse): by time, then insertion
// sequence — fully deterministic.
impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Counters describing one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to handlers.
    pub delivered: u64,
    /// Messages dropped by the network.
    pub dropped: u64,
    /// Extra deliveries caused by duplication.
    pub duplicated: u64,
    /// Messages discarded because the destination had crashed.
    pub to_crashed: u64,
    /// Messages held back past later sends (reordering injections).
    pub reordered: u64,
    /// Node crash events (immediate or scheduled).
    pub crashes: u64,
    /// Node restart events.
    pub restarts: u64,
    /// Timer events fired.
    pub timers: u64,
    /// Timers armed (via [`Context::set_timer`] or
    /// [`Simulation::post_timer`]), whether or not they later fired.
    pub timers_set: u64,
    /// Timers discarded because their arming incarnation had crashed
    /// before they came due (stale-epoch filter).
    pub timers_stale: u64,
    /// Total events processed.
    pub steps: u64,
    /// `true` once [`SimConfig::max_steps`] stopped the run with events
    /// still queued: every count above then describes a truncated run.
    pub budget_exhausted: bool,
}

/// A deterministic discrete-event simulation over a vector of nodes.
///
/// # Examples
///
/// ```
/// use asa_simnet::{Context, NodeId, SimConfig, SimNode, Simulation};
///
/// struct Echo { got: u32 }
/// impl SimNode<u32> for Echo {
///     fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, m: u32) {
///         self.got += m;
///     }
/// }
///
/// let mut sim = Simulation::new(SimConfig::default(), vec![Echo { got: 0 }, Echo { got: 0 }]);
/// sim.post(NodeId(0), NodeId(1), 5);
/// sim.run();
/// assert_eq!(sim.node(NodeId(1)).got, 5);
/// ```
#[derive(Debug)]
pub struct Simulation<M, N> {
    config: SimConfig,
    nodes: Vec<N>,
    crashed: Vec<bool>,
    /// Per-node incarnation counter, bumped on every crash; timers
    /// carry the epoch they were armed in and are discarded when it is
    /// stale.
    epochs: Vec<u32>,
    queue: Calendar<M>,
    node_rngs: Vec<SimRng>,
    net_rng: SimRng,
    now: SimTime,
    seq: u64,
    stats: SimStats,
    started: bool,
    trace: Option<Trace>,
    /// Effect buffer reused across events: handlers push into it through
    /// their [`Context`], the simulator drains it, and the (empty)
    /// allocation is kept for the next event instead of allocating a
    /// fresh `Vec` per delivery.
    scratch: Vec<Effect<M>>,
}

impl<M: Clone, N: SimNode<M>> Simulation<M, N> {
    /// Creates a simulation over `nodes`.
    pub fn new(config: SimConfig, nodes: Vec<N>) -> Self {
        let mut root = SimRng::new(config.seed);
        let node_rngs = (0..nodes.len()).map(|_| root.fork()).collect();
        let net_rng = root.fork();
        let crashed = vec![false; nodes.len()];
        let epochs = vec![0; nodes.len()];
        Simulation {
            config,
            nodes,
            crashed,
            epochs,
            queue: Calendar::new(),
            node_rngs,
            net_rng,
            now: 0,
            seq: 0,
            stats: SimStats::default(),
            started: false,
            trace: None,
            scratch: Vec::new(),
        }
    }

    /// Enables event tracing, keeping at most `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn record(&mut self, kind: TraceKind) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record(self.now, kind);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0]
    }

    /// Mutable access to a node (e.g. to inspect or adjust between runs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.0]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Marks a node fail-stopped *now*: its queued and future events
    /// are discarded and its armed timers die (paper §2.2: fail-stop
    /// faults detected by timeouts). A crashed node can come back via
    /// [`Simulation::schedule_restart`]. Idempotent while down.
    pub fn crash(&mut self, id: NodeId) {
        if !self.crashed[id.0] {
            self.crashed[id.0] = true;
            self.epochs[id.0] += 1;
            self.stats.crashes += 1;
            self.record(TraceKind::Crashed { node: id });
        }
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed[id.0]
    }

    /// Schedules a fail-stop of `node` at absolute time `at` (clamped
    /// to now). Part of a seed-replayable fault schedule: the crash is
    /// an ordinary event in the deterministic queue.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        self.push_event(at.max(self.now), node, Payload::Crash);
    }

    /// Schedules `node` to come back up at absolute time `at` (clamped
    /// to now). On restart the node's [`SimNode::on_restart`] hook runs
    /// before any further delivery: timers from before the crash are
    /// gone (re-arm in the hook), while messages sent to the node while
    /// it was down were discarded and messages still in flight at
    /// restart are delivered normally. A restart for a node that is up
    /// is a no-op.
    pub fn schedule_restart(&mut self, node: NodeId, at: SimTime) {
        self.push_event(at.max(self.now), node, Payload::Restart);
    }

    /// Injects a message from an external source (e.g. a client outside
    /// the node vector) or on behalf of `from`, subject to network
    /// effects.
    pub fn post(&mut self, from: NodeId, to: NodeId, message: M) {
        self.enqueue_send(from, to, message);
    }

    /// Schedules a timer for `node` at `now + delay` (external injection),
    /// saturating at [`SimTime::MAX`].
    pub fn post_timer(&mut self, node: NodeId, delay: SimTime, tag: u64) {
        let at = self.now.saturating_add(delay);
        let epoch = self.epochs[node.0];
        self.stats.timers_set += 1;
        self.push_event(at, node, Payload::Timer { tag, epoch });
    }

    /// Runs `on_start` on every node (idempotent; called automatically by
    /// [`Simulation::run`]).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            let mut effects = std::mem::take(&mut self.scratch);
            let mut ctx = Context {
                now: self.now,
                self_id: NodeId(i),
                node_count: self.nodes.len(),
                rng: &mut self.node_rngs[i],
                effects: &mut effects,
            };
            self.nodes[i].on_start(&mut ctx);
            self.apply_effects(NodeId(i), &mut effects);
            self.scratch = effects;
        }
    }

    /// Processes a single event; returns `false` when the queue is empty
    /// or the step budget is exhausted — [`SimStats::budget_exhausted`]
    /// says which.
    pub fn step(&mut self) -> bool {
        self.start();
        if self.stats.steps >= self.config.max_steps {
            self.stats.budget_exhausted = !self.queue.is_empty();
            return false;
        }
        let Some(event) = self.queue.pop(self.now) else {
            return false;
        };
        debug_assert!(event.at >= self.now, "time must not run backwards");
        self.now = event.at;
        self.stats.steps += 1;
        let to = event.to;
        // Fault-schedule control events apply to crashed nodes too, so
        // they are handled before the crashed early-return.
        match &event.payload {
            Payload::Crash => {
                self.crash(to);
                return true;
            }
            Payload::Restart => {
                if self.crashed[to.0] {
                    self.crashed[to.0] = false;
                    self.stats.restarts += 1;
                    self.record(TraceKind::Restarted { node: to });
                    let mut effects = std::mem::take(&mut self.scratch);
                    let mut ctx = Context {
                        now: self.now,
                        self_id: to,
                        node_count: self.nodes.len(),
                        rng: &mut self.node_rngs[to.0],
                        effects: &mut effects,
                    };
                    self.nodes[to.0].on_restart(&mut ctx);
                    self.apply_effects(to, &mut effects);
                    self.scratch = effects;
                }
                return true;
            }
            _ => {}
        }
        if self.crashed[to.0] {
            self.stats.to_crashed += 1;
            if let Payload::Message { from, .. } = event.payload {
                self.record(TraceKind::ToCrashed { from, to });
            }
            return true;
        }
        // A timer armed before the node's last crash belongs to a dead
        // incarnation: discard it (messages survive crashes, timers
        // do not).
        if let Payload::Timer { epoch, .. } = &event.payload {
            if *epoch != self.epochs[to.0] {
                self.stats.timers_stale += 1;
                return true;
            }
        }
        let mut effects = std::mem::take(&mut self.scratch);
        let mut ctx = Context {
            now: self.now,
            self_id: to,
            node_count: self.nodes.len(),
            rng: &mut self.node_rngs[to.0],
            effects: &mut effects,
        };
        match event.payload {
            Payload::Message { from, message } => {
                self.stats.delivered += 1;
                self.nodes[to.0].on_message(&mut ctx, from, message);
                self.record(TraceKind::Delivered { from, to });
            }
            Payload::Timer { tag, .. } => {
                self.stats.timers += 1;
                self.nodes[to.0].on_timer(&mut ctx, tag);
                self.record(TraceKind::Timer { node: to, tag });
            }
            Payload::Crash | Payload::Restart => unreachable!("handled above"),
        }
        self.apply_effects(to, &mut effects);
        self.scratch = effects;
        true
    }

    /// Runs until the event queue drains (or the step budget is hit);
    /// returns the final statistics.
    pub fn run(&mut self) -> SimStats {
        while self.step() {}
        self.stats
    }

    /// Runs until the next event would exceed `deadline`, or the queue
    /// drains. The clock stays at the last processed event.
    pub fn run_until(&mut self, deadline: SimTime) -> SimStats {
        self.start();
        loop {
            match self.queue.next_at(self.now) {
                Some(at) if at <= deadline => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.stats
    }

    fn apply_effects(&mut self, origin: NodeId, effects: &mut Vec<Effect<M>>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, message } => self.enqueue_send(origin, to, message),
                Effect::Timer { delay, tag } => {
                    let at = self.now.saturating_add(delay);
                    let epoch = self.epochs[origin.0];
                    self.stats.timers_set += 1;
                    self.push_event(at, origin, Payload::Timer { tag, epoch });
                }
            }
        }
    }

    fn enqueue_send(&mut self, from: NodeId, to: NodeId, message: M) {
        if self.net_rng.chance(self.config.drop_probability) {
            self.stats.dropped += 1;
            self.record(TraceKind::Dropped { from, to });
            return;
        }
        let mut delay = self
            .net_rng
            .range_inclusive(self.config.min_delay, self.config.max_delay);
        if self.net_rng.chance(self.config.reorder_probability) {
            // Hold this copy back by a bounded extra delay so later
            // sends can overtake it.
            delay = delay.saturating_add(
                self.net_rng
                    .range_inclusive(1, self.config.reorder_bound.max(1)),
            );
            self.stats.reordered += 1;
            self.record(TraceKind::Reordered { from, to });
        }
        if self.net_rng.chance(self.config.duplicate_probability) {
            self.stats.duplicated += 1;
            self.record(TraceKind::Duplicated { from, to });
            let extra = self
                .net_rng
                .range_inclusive(self.config.min_delay, self.config.max_delay);
            let at = self.now.saturating_add(extra);
            self.push_event(
                at,
                to,
                Payload::Message {
                    from,
                    message: message.clone(),
                },
            );
        }
        let at = self.now.saturating_add(delay);
        self.push_event(at, to, Payload::Message { from, message });
    }

    fn push_event(&mut self, at: SimTime, to: NodeId, payload: Payload<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(
            self.now,
            Event {
                at,
                seq,
                to,
                payload,
            },
        );
    }
}

mod calendar;
