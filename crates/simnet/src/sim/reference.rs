//! The scheduler as it was before the calendar queue: one binary heap
//! over every queued event, ordered by `(at, seq)`. Compiled for tests
//! only, as the reference the calendar is run against: the differential
//! test below runs random node scripts on both and compares the trace,
//! the counters and the clock event for event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::calendar::Calendar;
use super::{Event, SimNode, SimTime, Simulation};

/// The queue of a test build's [`Simulation`]: the calendar, unless a
/// test put the simulation on the heap.
#[derive(Debug)]
pub(super) enum Queue<M> {
    Calendar(Calendar<M>),
    Heap(BinaryHeap<Reverse<Event<M>>>),
}

impl<M> Queue<M> {
    pub(super) fn new() -> Self {
        Queue::Calendar(Calendar::new())
    }

    pub(super) fn is_empty(&self) -> bool {
        match self {
            Queue::Calendar(calendar) => calendar.is_empty(),
            Queue::Heap(heap) => heap.is_empty(),
        }
    }

    pub(super) fn push(&mut self, now: SimTime, event: Event<M>) {
        match self {
            Queue::Calendar(calendar) => calendar.push(now, event),
            Queue::Heap(heap) => heap.push(Reverse(event)),
        }
    }

    pub(super) fn next_at(&self, now: SimTime) -> Option<SimTime> {
        match self {
            Queue::Calendar(calendar) => calendar.next_at(now),
            Queue::Heap(heap) => heap.peek().map(|Reverse(event)| event.at),
        }
    }

    pub(super) fn pop(&mut self, now: SimTime) -> Option<Event<M>> {
        match self {
            Queue::Calendar(calendar) => calendar.pop(now),
            Queue::Heap(heap) => heap.pop().map(|Reverse(event)| event),
        }
    }
}

impl<M: Clone, N: SimNode<M>> Simulation<M, N> {
    /// Serves this simulation's events from the heap instead of the
    /// calendar; nothing may be queued yet.
    fn on_the_heap(mut self) -> Self {
        assert!(self.queue.is_empty(), "switch schedulers before queueing");
        self.queue = Queue::Heap(BinaryHeap::new());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::calendar::W;
    use super::*;
    use crate::{Context, NodeId, SimConfig, SimRng, SimStats, TraceEvent};

    /// A delay from both sides of the window's edge, zero, or anything
    /// up to four windows.
    fn delay(rng: &mut SimRng) -> SimTime {
        match rng.below(6) {
            0 => 0,
            1 => W - 1,
            2 => W,
            3 => W + 1,
            _ => rng.below(4 * W + 1),
        }
    }

    /// What a node was handed, and when.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Handed {
        Start,
        Message(NodeId, u64),
        Timer(u64),
        Restart,
    }

    /// A node on a random script: each handler logs what it was handed
    /// and, while the node's budget lasts, draws up to three sends,
    /// broadcasts or timers from the node's own RNG.
    struct Scripted {
        budget: u32,
        next_id: u64,
        log: Vec<(SimTime, Handed)>,
    }

    impl Scripted {
        fn act(&mut self, ctx: &mut Context<'_, u64>, handed: Handed) {
            self.log.push((ctx.now(), handed));
            for _ in 0..ctx.rng().below(4) {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                let id = (ctx.self_id().index() as u64) << 32 | self.next_id;
                self.next_id += 1;
                match ctx.rng().below(3) {
                    0 => {
                        let n = ctx.node_count() as u64;
                        let to = NodeId(ctx.rng().below(n) as usize);
                        ctx.send(to, id);
                    }
                    1 => ctx.broadcast(id),
                    _ => {
                        let after = delay(ctx.rng());
                        ctx.set_timer(after, id);
                    }
                }
            }
        }
    }

    impl SimNode<u64> for Scripted {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            self.act(ctx, Handed::Start);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, message: u64) {
            self.act(ctx, Handed::Message(from, message));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, tag: u64) {
            self.act(ctx, Handed::Timer(tag));
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, u64>) {
            self.act(ctx, Handed::Restart);
        }
    }

    /// Everything observable of one run.
    #[derive(Debug, PartialEq, Eq)]
    struct Observed {
        trace: Vec<TraceEvent>,
        stats: SimStats,
        now: SimTime,
        logs: Vec<Vec<(SimTime, Handed)>>,
    }

    /// Scenario `seed` on the calendar, or on the heap. The scenario's
    /// own draws come from a generator of their own, so both runs make
    /// the same ones as long as the schedulers agree.
    fn run(seed: u64, heap: bool) -> Observed {
        let mut rng = SimRng::new(seed);
        let (min_delay, max_delay) =
            *rng.pick(&[(0, 0), (0, 4 * W), (W - 1, W + 1), (W, W), (1, 10)]);
        let config = SimConfig {
            seed,
            min_delay,
            max_delay,
            drop_probability: rng.below(3) as f64 / 10.0,
            duplicate_probability: rng.below(3) as f64 / 10.0,
            reorder_probability: rng.below(3) as f64 / 10.0,
            reorder_bound: rng.range_inclusive(1, 2 * W),
            max_steps: *rng.pick(&[50, 400, 10_000_000]),
        };
        let n = rng.range_inclusive(1, 4);
        let nodes = (0..n)
            .map(|_| Scripted {
                budget: 60,
                next_id: 0,
                log: Vec::new(),
            })
            .collect();
        let mut sim = Simulation::new(config, nodes);
        if heap {
            sim = sim.on_the_heap();
        }
        sim.enable_trace(1 << 16);
        // Crashes and restarts on the ticks where messages are due.
        for _ in 0..rng.below(4) {
            let node = NodeId(rng.below(n) as usize);
            let at = rng.below(3 * W);
            sim.schedule_crash(node, at);
            sim.schedule_restart(node, at + rng.below(W + 2));
        }
        // Deadlines inside the window and past it, with injections in
        // between: a message, a timer, or a crash and a restart.
        for k in 0..rng.below(6) {
            let deadline = sim.now() + delay(&mut rng);
            sim.run_until(deadline);
            let node = NodeId(rng.below(n) as usize);
            match rng.below(3) {
                0 => sim.post(NodeId(rng.below(n) as usize), node, u64::MAX - k),
                1 => sim.post_timer(node, delay(&mut rng), u64::MAX - k),
                _ => {
                    sim.crash(node);
                    sim.schedule_restart(node, sim.now() + delay(&mut rng));
                }
            }
        }
        sim.run();
        let trace = sim.trace().expect("enabled above");
        assert!(!trace.is_truncated());
        Observed {
            trace: trace.events().to_vec(),
            stats: sim.stats(),
            now: sim.now(),
            logs: sim.nodes().iter().map(|node| node.log.clone()).collect(),
        }
    }

    /// The calendar is the heap scheduler, event for event: on random
    /// scripts whose sends and timers are due on the tick they are made,
    /// just inside the window, on its edge and up to four windows out,
    /// with crashes and restarts due on the same ticks, `run_until`
    /// deadlines inside and beyond the window, and budgets that cut the
    /// run short.
    #[test]
    fn calendar_matches_the_heap_scheduler_on_random_scripts() {
        let (mut cut, mut restarts, mut stale, mut far) = (0, 0, 0, 0);
        for seed in 0..400 {
            let calendar = run(seed, false);
            let heap = run(seed, true);
            assert!(calendar == heap, "seed {seed}");
            cut += u32::from(calendar.stats.budget_exhausted);
            restarts += calendar.stats.restarts;
            stale += calendar.stats.timers_stale;
            far += calendar.trace.iter().filter(|e| e.at >= 2 * W).count();
        }
        assert!(
            cut >= 20 && restarts >= 100 && stale >= 20 && far >= 1_000,
            "{cut} runs cut short, {restarts} restarts, {stale} stale timers, \
             {far} events two windows in"
        );
    }
}
