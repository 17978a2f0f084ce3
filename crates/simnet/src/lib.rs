//! # asa-simnet
//!
//! A deterministic discrete-event network simulator: the substrate on
//! which the reproduced ASA storage system (paper §2) runs. The paper's
//! deployment was a live P2P network of untrusted hosts; here the same
//! protocol code executes over simulated links with configurable latency,
//! loss and duplication, fail-stop crashes, and seed-replayable schedules
//! — which is what makes the Byzantine-fault-tolerance tests
//! deterministic and debuggable.
//!
//! * [`Simulation`] — the event loop (virtual time, deterministic
//!   tie-breaking);
//! * [`SimNode`] — node behaviour trait (`on_start` / `on_message` /
//!   `on_timer`);
//! * [`Context`] — side-effect interface handed to handlers (send,
//!   broadcast, timers, per-node RNG);
//! * [`SimRng`] — SplitMix64 deterministic randomness;
//! * [`SimConfig`] / [`SimStats`] — network parameters and run counters.
//!
//! Byzantine behaviour is modelled at the node level (a faulty node is
//! just a different [`SimNode`] implementation); the network itself
//! provides the asynchrony and unreliability.
//!
//! ## Scheduler
//!
//! Events run in `(due tick, queue order)` order, which is what makes a
//! seed replay exactly. They are held in a calendar queue: a ring of 64
//! per-tick FIFO buckets with one `u64` occupancy word, covering the
//! next 64 ticks, beside a binary heap for events due later. A message
//! (1–10 ticks on the storage workloads) or a client wake-up lands in a
//! bucket and costs a `VecDeque` push and pop; only the long timers —
//! peer GC at 4 000 ticks, checkpoint cadences, back-offs — sift through
//! the heap. On `storage_commit` the queue holds about 1 030 events at a
//! step, 1 008 of them in the heap, yet 87 % of the steps never touch
//! it. The ring and the heap pop in exactly the order one heap over every
//! event would (the argument is in `sim/calendar.rs`, and a property
//! there checks every pop against the set of pending `(at, seq)` keys).
//! Due times saturate at [`SimTime::MAX`], so a "never" timer stays
//! queued past every finite deadline instead of wrapping into the past.
//!
//! ## Fault model
//!
//! Every injection is drawn from the seeded network RNG (or scheduled
//! as an ordinary queue event), so any failing run replays exactly from
//! its `(seed, workload)` pair, and each has a counter in [`SimStats`]:
//!
//! * **Loss** — [`SimConfig::drop_probability`]: the message silently
//!   never arrives.
//! * **Duplication** — [`SimConfig::duplicate_probability`]: a second
//!   copy is delivered with an independently drawn latency.
//! * **Reordering** — [`SimConfig::reorder_probability`] /
//!   [`SimConfig::reorder_bound`]: a message is held back by a bounded
//!   extra delay, letting later sends overtake it. (Independent latency
//!   draws already reorder mildly; this injects it deliberately and
//!   measurably.)
//! * **Crash** — [`Simulation::crash`] (immediate) or
//!   [`Simulation::schedule_crash`] (part of the deterministic
//!   schedule): fail-stop, per the paper's §2.2 fault model. Messages
//!   addressed to a down node are discarded; its armed timers die.
//! * **Restart** — [`Simulation::schedule_restart`]: the node comes
//!   back up and its [`SimNode::on_restart`] hook runs before any new
//!   delivery. The hook is where recovery semantics live: discard
//!   volatile state, reload the last durable checkpoint (e.g. a
//!   `stategen-runtime` `RuntimeSnapshot`), and re-arm timers — timers
//!   set before the crash do **not** survive it (per-node incarnation
//!   epochs filter them), while messages still in flight at restart
//!   time are delivered normally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod sim;
pub mod trace;

pub use rng::SimRng;
pub use sim::{Context, NodeId, SimConfig, SimNode, SimStats, SimTime, Simulation};
pub use trace::{Trace, TraceEvent, TraceKind};

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that counts pings and replies with pongs to the sender.
    struct PingPong {
        pings: u32,
        pongs: u32,
        replies: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl SimNode<Msg> for PingPong {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, message: Msg) {
            match message {
                Msg::Ping => {
                    self.pings += 1;
                    if self.replies {
                        ctx.send(from, Msg::Pong);
                    }
                }
                Msg::Pong => self.pongs += 1,
            }
        }
    }

    fn two_nodes(replies: bool) -> Vec<PingPong> {
        (0..2)
            .map(|_| PingPong {
                pings: 0,
                pongs: 0,
                replies,
            })
            .collect()
    }

    #[test]
    fn message_roundtrip() {
        let mut sim = Simulation::new(SimConfig::default(), two_nodes(true));
        sim.post(NodeId(0), NodeId(1), Msg::Ping);
        let stats = sim.run();
        assert_eq!(sim.node(NodeId(1)).pings, 1);
        assert_eq!(sim.node(NodeId(0)).pongs, 1);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn drops_are_counted_and_silent() {
        let config = SimConfig {
            drop_probability: 1.0,
            ..Default::default()
        };
        let mut sim = Simulation::new(config, two_nodes(true));
        sim.post(NodeId(0), NodeId(1), Msg::Ping);
        let stats = sim.run();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(sim.node(NodeId(1)).pings, 0);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let config = SimConfig {
            duplicate_probability: 1.0,
            ..Default::default()
        };
        let mut sim = Simulation::new(config, two_nodes(false));
        sim.post(NodeId(0), NodeId(1), Msg::Ping);
        let stats = sim.run();
        assert_eq!(stats.duplicated, 1);
        assert_eq!(sim.node(NodeId(1)).pings, 2);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut sim = Simulation::new(SimConfig::default(), two_nodes(true));
        sim.crash(NodeId(1));
        sim.post(NodeId(0), NodeId(1), Msg::Ping);
        let stats = sim.run();
        assert_eq!(stats.to_crashed, 1);
        assert_eq!(sim.node(NodeId(1)).pings, 0);
        assert!(sim.is_crashed(NodeId(1)));
    }

    #[test]
    fn reordering_lets_later_sends_overtake() {
        struct Order {
            got: Vec<u32>,
        }
        impl SimNode<u32> for Order {
            fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, m: u32) {
                self.got.push(m);
            }
        }
        // Fixed latency + certain reordering of every message would
        // keep relative order; use per-message reordering on a seed
        // that demonstrably flips a pair, and assert the injection is
        // counted and seed-stable.
        let run = |seed: u64| {
            let config = SimConfig {
                seed,
                min_delay: 5,
                max_delay: 5,
                reorder_probability: 0.5,
                reorder_bound: 50,
                ..Default::default()
            };
            let mut sim =
                Simulation::new(config, vec![Order { got: vec![] }, Order { got: vec![] }]);
            for m in 0..20u32 {
                sim.post(NodeId(0), NodeId(1), m);
            }
            let stats = sim.run();
            (sim.node(NodeId(1)).got.clone(), stats)
        };
        let (got, stats) = run(12);
        assert!(stats.reordered > 0);
        assert_eq!(stats.delivered, 20, "reordering never loses messages");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
        assert_ne!(got, sorted, "some pair was overtaken");
        assert_eq!(run(12), run(12), "seed-replayable");
    }

    #[test]
    fn crash_and_restart_with_epoch_filtered_timers() {
        struct Node {
            pings: u32,
            timers: Vec<u64>,
            restarts: u32,
        }
        impl SimNode<Msg> for Node {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                // Armed pre-crash, due *after* the restart: its epoch
                // is stale by then, so it must not fire.
                ctx.set_timer(300, 7);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, m: Msg) {
                if m == Msg::Ping {
                    self.pings += 1;
                }
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, tag: u64) {
                self.timers.push(tag);
            }
            fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
                self.restarts += 1;
                // Recovery re-arms its own timer in the new epoch.
                ctx.set_timer(10, 99);
            }
        }
        let nodes = vec![
            Node {
                pings: 0,
                timers: vec![],
                restarts: 0,
            },
            Node {
                pings: 0,
                timers: vec![],
                restarts: 0,
            },
        ];
        let mut sim = Simulation::new(SimConfig::default(), nodes);
        sim.schedule_crash(NodeId(1), 50);
        sim.schedule_restart(NodeId(1), 200);
        let stats = sim.run_until(60);
        assert!(sim.is_crashed(NodeId(1)));
        assert_eq!(stats.crashes, 1);
        // Delivered while the node is down: discarded.
        sim.post(NodeId(0), NodeId(1), Msg::Ping);
        let stats = sim.run_until(80);
        assert_eq!(stats.to_crashed, 1);
        let stats = sim.run();
        assert!(!sim.is_crashed(NodeId(1)));
        assert_eq!(stats.restarts, 1);
        {
            let n1 = sim.node(NodeId(1));
            assert_eq!(n1.restarts, 1);
            // The pre-crash timer (tag 7, due at t=300 — after the
            // restart, but armed in a dead incarnation) never fired;
            // the post-restart one did.
            assert_eq!(n1.timers, vec![99]);
            assert_eq!(n1.pings, 0);
        }
        // The recovered node receives normally again.
        sim.post(NodeId(0), NodeId(1), Msg::Ping);
        sim.run();
        assert_eq!(sim.node(NodeId(1)).pings, 1);
        // Restarting an up node is a no-op.
        sim.schedule_restart(NodeId(1), 400);
        let stats = sim.run();
        assert_eq!(stats.restarts, 1);
    }

    #[test]
    fn identical_seeds_identical_schedules() {
        let run = |seed: u64| {
            let config = SimConfig {
                seed,
                min_delay: 1,
                max_delay: 50,
                duplicate_probability: 0.3,
                drop_probability: 0.1,
                ..Default::default()
            };
            let mut sim = Simulation::new(config, two_nodes(true));
            for _ in 0..20 {
                sim.post(NodeId(0), NodeId(1), Msg::Ping);
            }
            let stats = sim.run();
            (
                stats,
                sim.node(NodeId(1)).pings,
                sim.node(NodeId(0)).pongs,
                sim.now(),
            )
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn traces_record_and_replay_identically() {
        let run = |seed: u64| {
            let config = SimConfig {
                seed,
                min_delay: 1,
                max_delay: 20,
                drop_probability: 0.2,
                duplicate_probability: 0.2,
                ..Default::default()
            };
            let mut sim = Simulation::new(config, two_nodes(true));
            sim.enable_trace(10_000);
            for _ in 0..10 {
                sim.post(NodeId(0), NodeId(1), Msg::Ping);
            }
            sim.run();
            sim.trace().expect("tracing enabled").events().to_vec()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b, "same seed, same trace");
        assert!(!a.is_empty());
        assert_ne!(a, run(6), "different seed, different trace");
    }

    #[test]
    fn trace_disabled_by_default() {
        let sim = Simulation::<Msg, PingPong>::new(SimConfig::default(), two_nodes(false));
        assert!(sim.trace().is_none());
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl SimNode<()> for TimerNode {
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulation::new(SimConfig::default(), vec![TimerNode { fired: vec![] }]);
        sim.post_timer(NodeId(0), 30, 3);
        sim.post_timer(NodeId(0), 10, 1);
        sim.post_timer(NodeId(0), 20, 2);
        sim.run();
        assert_eq!(sim.node(NodeId(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn on_start_runs_once_and_can_send() {
        struct Starter;
        impl SimNode<Msg> for Starter {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.broadcast(Msg::Ping);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _m: Msg) {}
        }
        struct Sink {
            pings: u32,
        }
        impl SimNode<Msg> for Sink {
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, m: Msg) {
                if m == Msg::Ping {
                    self.pings += 1;
                }
            }
        }
        // Heterogeneous behaviour via an enum wrapper.
        enum Node {
            Starter(Starter),
            Sink(Sink),
        }
        impl SimNode<Msg> for Node {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if let Node::Starter(s) = self {
                    s.on_start(ctx);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, m: Msg) {
                match self {
                    Node::Starter(s) => s.on_message(ctx, from, m),
                    Node::Sink(s) => s.on_message(ctx, from, m),
                }
            }
        }
        let nodes = vec![
            Node::Starter(Starter),
            Node::Sink(Sink { pings: 0 }),
            Node::Sink(Sink { pings: 0 }),
        ];
        let mut sim = Simulation::new(SimConfig::default(), nodes);
        sim.run();
        for i in 1..3 {
            match sim.node(NodeId(i)) {
                Node::Sink(s) => assert_eq!(s.pings, 1),
                Node::Starter(_) => panic!("unexpected starter"),
            }
        }
    }

    #[test]
    fn run_until_respects_deadline() {
        struct Rearm;
        impl SimNode<()> for Rearm {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(10, 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _tag: u64) {
                ctx.set_timer(10, 0); // re-arm forever
            }
        }
        let mut sim = Simulation::new(SimConfig::default(), vec![Rearm]);
        let stats = sim.run_until(100);
        assert_eq!(stats.timers, 10);
        assert_eq!(sim.now(), 100); // last processed event lands at t=100
    }

    #[test]
    fn step_budget_stops_runaway() {
        struct Rearm;
        impl SimNode<()> for Rearm {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(1, 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _tag: u64) {
                ctx.set_timer(1, 0);
            }
        }
        let config = SimConfig {
            max_steps: 500,
            ..Default::default()
        };
        let mut sim = Simulation::new(config, vec![Rearm]);
        let stats = sim.run();
        assert_eq!(stats.steps, 500);
        assert!(stats.budget_exhausted, "a timer was still queued");
        assert!(!sim.step() && sim.stats() == stats, "and stays queued");
    }

    /// A timer `SimTime::MAX` ticks out is "never": it saturates instead
    /// of wrapping to a tick in the past (in release; debug panicked on
    /// the overflow), stays queued through every finite deadline, and
    /// when a drain does reach it the clock stops at `SimTime::MAX` —
    /// where further delays saturate again, and time never runs back.
    #[test]
    fn never_timers_saturate_instead_of_wrapping() {
        struct Never {
            fired: Vec<(SimTime, u64)>,
        }
        impl SimNode<()> for Never {
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {
                if ctx.now() < SimTime::MAX {
                    ctx.set_timer(SimTime::MAX, 1);
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, tag: u64) {
                self.fired.push((ctx.now(), tag));
                if tag == 1 {
                    ctx.set_timer(10, 2);
                    ctx.send(ctx.self_id(), ());
                }
            }
        }
        let config = SimConfig {
            min_delay: 5,
            max_delay: 5,
            ..Default::default()
        };
        let mut sim = Simulation::new(config, vec![Never { fired: vec![] }]);
        sim.post(NodeId(0), NodeId(0), ());
        sim.post_timer(NodeId(0), SimTime::MAX, 0);
        let stats = sim.run_until(1 << 40);
        assert_eq!((stats.delivered, stats.timers, sim.now()), (1, 0, 5));
        let stats = sim.run_until(SimTime::MAX - 1);
        assert_eq!(
            (stats.timers, sim.now()),
            (0, 5),
            "never is past every finite deadline"
        );
        let stats = sim.run();
        assert_eq!(sim.now(), SimTime::MAX);
        assert_eq!(
            sim.node(NodeId(0)).fired,
            [(SimTime::MAX, 0), (SimTime::MAX, 1), (SimTime::MAX, 2)]
        );
        // The node's send at `SimTime::MAX` landed there as well.
        assert_eq!((stats.delivered, stats.timers), (2, 3));
    }

    /// `step` returns `false` for a drained queue and for a spent budget
    /// alike; only the second is a truncated run — also when the queue
    /// drains on the budget's very last step.
    #[test]
    fn a_drained_queue_is_not_an_exhausted_budget() {
        for (max_steps, exhausted) in [(1, true), (2, false), (3, false)] {
            let config = SimConfig {
                max_steps,
                ..Default::default()
            };
            let mut sim = Simulation::new(config, two_nodes(true));
            sim.post(NodeId(0), NodeId(1), Msg::Ping);
            let stats = sim.run_until(1_000);
            assert_eq!(stats.steps, max_steps.min(2), "ping, then pong");
            assert_eq!(stats.budget_exhausted, exhausted, "budget {max_steps}");
            assert_eq!(sim.run(), stats, "nothing more to do either way");
        }
    }
}
