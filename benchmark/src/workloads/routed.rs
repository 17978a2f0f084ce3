//! `routed_churn`: a synthetic stress of the runtime's addressed-session
//! and timer API at the batch rows' pool size — one checked delivery at
//! a time to a random one of 65 536 live sessions, finished sessions
//! released and their slot respawned, timeouts armed, cancelled and
//! fired, and the occasional stale handle refused. The batch kernels do
//! nothing here; handle checks, free lists, finished-bit upkeep and the
//! timer wheel do everything.
//!
//! No service in the repository produces this traffic. The one in-repo
//! caller of a `Runtime`, the storage peer, calls `spawn`, `deliver`,
//! `is_finished` and `state`, releases only aborted attempts, keeps its
//! timers in the simulator, and holds as many sessions as it has seen
//! attempts (the traced storage runs print its mix as
//! `storage.peer_*_per_commit` and `storage.peer_live_sessions_end`).
//! `try_deliver`, `arm_timeout`, `cancel_timeout` and `advance_time` are
//! called by `examples/` only. The shares below — one operation in 16
//! touching a timer, about 1 % stale handles, uniform handle choice —
//! are chosen so that every path gets thousands of calls a repetition,
//! not measured anywhere; the workload exists so that a change to the
//! session store or the timer wheel has a mechanism workload at all.

use std::time::Instant;

use stategen_commit::{CommitConfig, CommitModel};
use stategen_runtime::{Engine, MessageId, Runtime, SessionId, Spec, StategenError};

use super::{measure, repeated_setup, Outcome, RunArgs, BASELINE_REPS, MIN_REPS};
use crate::alloc::{count_allocs, peak_rss_mib};
use crate::gen::{Fnv, RoutedKind, RoutedOps};
use crate::stats::{median, summarize, tail_name};
use crate::trace::{CallAgg, Tracer};

/// Live sessions.
pub const SESSIONS: usize = 65_536;

/// Operations per timed block; the clock advances one tick per block.
pub const BLOCK: usize = 1_024;

/// Blocks per repetition (10 240 000 operations, ≈ 0.6 s): enough block
/// means for a p99.9, short enough for over ten repetitions a run.
pub const BLOCKS: usize = 10_000;

/// Blocks a fresh pool runs before it is measured: they grow the free
/// list, the timer wheel and the stale ring.
const WARMUP_BLOCKS: usize = 256;

/// Sessions and blocks of the reference replay.
const REF_SESSIONS: usize = 4_096;
const REF_BLOCKS: usize = 2_000;

/// Released handles kept for the stale-handle operations.
const STALE_RING: usize = 1_024;

fn spec() -> Spec {
    let config = CommitConfig::new(7).expect("valid replication factor");
    Spec::generated(&CommitModel::new(config)).expect("commit model generates")
}

/// Counters of one repetition; equal repetitions must produce equal ones.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    actions: u64,
    churned: u64,
    stale_rejected: u64,
    fired: u64,
    cascades: u64,
    failed: u64,
}

/// Per-call timings of the traced run, indexed by the constants below.
type Calls = [CallAgg; 7];

const CALL_NAMES: [&str; 7] = [
    "try_deliver",
    "is_finished",
    "release",
    "spawn",
    "arm_timeout",
    "cancel_timeout",
    "advance_time",
];
const TRY_DELIVER: usize = 0;
const IS_FINISHED: usize = 1;
const RELEASE: usize = 2;
const SPAWN: usize = 3;
const ARM: usize = 4;
const CANCEL: usize = 5;
const ADVANCE: usize = 6;

/// Times `f` into `agg` when `TRACED`, otherwise just runs it.
#[inline(always)]
fn timed<const TRACED: bool, R>(agg: &mut CallAgg, f: impl FnOnce() -> R) -> R {
    if TRACED {
        let a = Instant::now();
        let r = f();
        agg.busy_ns += a.elapsed().as_nanos() as u64;
        agg.count += 1;
        r
    } else {
        f()
    }
}

/// A runtime under routed load.
struct Churn {
    rt: Runtime,
    handles: Vec<SessionId>,
    stale: Vec<SessionId>,
    alphabet: Vec<MessageId>,
    timeout: MessageId,
    now: u64,
}

impl Churn {
    fn new(engine: &Engine, sessions: usize) -> Churn {
        let mut rt = engine.runtime();
        let handles = (0..sessions).map(|_| rt.spawn()).collect();
        let alphabet: Vec<MessageId> = engine
            .messages()
            .iter()
            .map(|m| engine.message_id(m).expect("alphabet message resolves"))
            .collect();
        Churn {
            rt,
            handles,
            stale: Vec::with_capacity(STALE_RING),
            // A timeout is an ordinary message; the commit alphabet has
            // no dedicated one, so the last message stands in.
            timeout: *alphabet.last().expect("non-empty alphabet"),
            alphabet,
            now: 0,
        }
    }

    /// The pool a repetition starts from: built afresh and warmed up, so
    /// every repetition meets the same clock, the same timer-wheel
    /// position and the same handle-to-slot layout.
    fn warmed(engine: &Engine, seed: u64) -> Churn {
        let mut churn = Churn::new(engine, SESSIONS);
        churn.script::<false>(
            seed,
            WARMUP_BLOCKS,
            None,
            &mut Tracer::new(false),
            &mut Calls::default(),
        );
        churn
    }

    /// One block of operations followed by one clock tick.
    #[inline]
    fn block<const TRACED: bool>(
        &mut self,
        ops: &mut RoutedOps,
        counts: &mut Counts,
        calls: &mut Calls,
    ) {
        for _ in 0..BLOCK {
            let op = ops.next_op();
            let message = self.alphabet[op.message as usize];
            if op.kind == RoutedKind::Stale && !self.stale.is_empty() {
                let handle = self.stale[op.index as usize % self.stale.len()];
                match timed::<TRACED, _>(&mut calls[TRY_DELIVER], || {
                    self.rt.try_deliver(handle, message).map(<[_]>::len)
                }) {
                    Err(StategenError::StaleSession { .. }) => counts.stale_rejected += 1,
                    _ => counts.failed += 1,
                }
                continue;
            }
            let slot = op.index as usize;
            let handle = self.handles[slot];
            match timed::<TRACED, _>(&mut calls[TRY_DELIVER], || {
                self.rt.try_deliver(handle, message).map(<[_]>::len)
            }) {
                Ok(actions) => counts.actions += actions as u64,
                Err(_) => counts.failed += 1,
            }
            if timed::<TRACED, _>(&mut calls[IS_FINISHED], || self.rt.is_finished(handle)) {
                timed::<TRACED, _>(&mut calls[RELEASE], || self.rt.release(handle));
                if self.stale.len() < STALE_RING {
                    self.stale.push(handle);
                } else {
                    self.stale[counts.churned as usize % STALE_RING] = handle;
                }
                self.handles[slot] = timed::<TRACED, _>(&mut calls[SPAWN], || self.rt.spawn());
                counts.churned += 1;
            } else {
                match op.kind {
                    RoutedKind::Arm(delay) => {
                        let deadline = self.now + u64::from(delay);
                        timed::<TRACED, _>(&mut calls[ARM], || {
                            self.rt.arm_timeout(handle, deadline)
                        });
                    }
                    RoutedKind::Cancel => {
                        timed::<TRACED, _>(&mut calls[CANCEL], || self.rt.cancel_timeout(handle));
                    }
                    RoutedKind::Plain | RoutedKind::Stale => {}
                }
            }
        }
        self.now += 1;
        let (now, timeout) = (self.now, self.timeout);
        counts.fired +=
            timed::<TRACED, _>(&mut calls[ADVANCE], || self.rt.advance_time(now, timeout)) as u64;
    }

    /// Runs `blocks` blocks of the seed's script; block means (ns per
    /// operation) go to `samples` when given.
    fn script<const TRACED: bool>(
        &mut self,
        seed: u64,
        blocks: usize,
        mut samples: Option<&mut Vec<u64>>,
        tracer: &mut Tracer,
        totals: &mut Calls,
    ) -> Counts {
        let mut ops = RoutedOps::new(seed, self.handles.len(), self.alphabet.len());
        let mut counts = Counts::default();
        let cascades_before = self.rt.metrics().timer_cascades;
        for b in 0..blocks {
            let mut calls = Calls::default();
            if TRACED {
                tracer.open("block", "benchmark", b as u64);
            }
            let a = Instant::now();
            self.block::<TRACED>(&mut ops, &mut counts, &mut calls);
            let ns = a.elapsed().as_nanos() as u64;
            if let Some(samples) = samples.as_deref_mut() {
                samples.push(ns * 1_000 / BLOCK as u64);
            }
            if TRACED {
                for ((name, agg), total) in CALL_NAMES.into_iter().zip(calls).zip(totals.iter_mut())
                {
                    tracer.calls(name, agg);
                    total.count += agg.count;
                    total.busy_ns += agg.busy_ns;
                }
                tracer.close();
            }
        }
        counts.cascades = self.rt.metrics().timer_cascades - cascades_before;
        counts
    }

    /// Hash of every live session's state, in table order.
    fn state_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for &id in &self.handles {
            h.word(u64::from(self.rt.state(id)));
        }
        h.0
    }
}

/// Output check: the script at 4 096 sessions on the compiled engine
/// against the same script on `Engine::interpret`.
fn verify(engine: &Engine, seed: u64, out: &mut Outcome) {
    let interp = Engine::interpret(spec()).expect("reference engine");
    out.check(interp.messages() == engine.messages(), || {
        "interpreted and compiled engines number the alphabet differently".into()
    });
    let mut off = Tracer::new(false);
    let mut none = Calls::default();
    let run = |engine: &Engine, off: &mut Tracer, none: &mut Calls| {
        let mut churn = Churn::new(engine, REF_SESSIONS);
        let before = churn.rt.metrics().transitions;
        let counts = churn.script::<false>(seed, REF_BLOCKS, None, off, none);
        let transitions = churn.rt.metrics().transitions - before;
        (churn, counts, transitions)
    };
    let (compiled, c_counts, c_transitions) = run(engine, &mut off, &mut none);
    let (reference, r_counts, r_transitions) = run(&interp, &mut off, &mut none);
    out.check(c_counts == r_counts && c_transitions == r_transitions, || {
        format!("routed replay: compiled {c_counts:?}/{c_transitions} vs reference {r_counts:?}/{r_transitions}")
    });
    for i in 0..REF_SESSIONS {
        let (a, b) = (compiled.handles[i], reference.handles[i]);
        out.check(
            compiled.rt.state_name(a) == reference.rt.state_name(b)
                && compiled.rt.vars(a) == reference.rt.vars(b)
                && compiled.rt.is_finished(a) == reference.rt.is_finished(b),
            || {
                format!(
                    "routed replay: session {i} ended in {} (compiled) vs {} (reference)",
                    compiled.rt.state_name(a),
                    reference.rt.state_name(b)
                )
            },
        );
    }
}

fn setup(seed: u64) -> (Engine, Churn) {
    let engine = Engine::compile(spec()).expect("commit machine compiles");
    let churn = Churn::warmed(&engine, seed);
    (engine, churn)
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let ((engine, mut churn), setup_s) = repeated_setup(|| setup(args.seed));
    out.set("setup_s", setup_s);
    let ops = (BLOCK * BLOCKS) as u64;
    let mut samples: Vec<u64> = Vec::with_capacity(BLOCKS);
    let mut off = Tracer::new(false);
    let mut totals = Calls::default();

    // One full unmeasured repetition on the set-up's pool; every measured
    // one must reproduce its counts and final states.
    let first = churn.script::<false>(args.seed, BLOCKS, None, &mut off, &mut totals);
    let first_hash = churn.state_hash();
    drop(churn);

    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    let mut allocs = 0u64;
    let baseline = if args.trace {
        BASELINE_REPS
    } else {
        usize::MAX
    };
    let reps = measure(args.seconds, MIN_REPS, |k| {
        let mut churn = Churn::warmed(&engine, args.seed);
        samples.clear();
        let traced = k >= baseline;
        let start = Instant::now();
        let counts = if traced {
            churn.script::<true>(args.seed, BLOCKS, Some(&mut samples), tracer, &mut totals)
        } else {
            let (counts, counted) = count_allocs(args.trace, || {
                churn.script::<false>(args.seed, BLOCKS, Some(&mut samples), &mut off, &mut totals)
            });
            allocs += counted;
            counts
        };
        let wall = start.elapsed().as_secs_f64();
        out.check(counts == first && churn.state_hash() == first_hash, || {
            format!("routed_churn: repetition {k} diverged: {counts:?} vs {first:?}")
        });
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            // Samples are picoseconds per operation (block means).
            let sum = summarize(&mut samples);
            p50s.push(sum.p50 as f64 / 1e6);
            if let Some((_, tail)) = sum.tail {
                tails.push(tail as f64 / 1e3);
            }
        }
        wall
    });
    // Before the output check builds its reference pools.
    let peak_rss_mb = peak_rss_mib();
    out.ops(ops * reps as u64);
    out.failed += first.failed * reps as u64;
    let mut h = Fnv::default();
    for w in [
        first.actions,
        first.churned,
        first.stale_rejected,
        first.fired,
        first.cascades,
        first_hash,
    ] {
        h.word(w);
    }
    out.checksum = h.0;

    if !args.trace {
        let rates: Vec<f64> = walls.iter().map(|w| ops as f64 / w).collect();
        out.set_over_reps("ops_per_s", "routed ops/s", &rates);
        out.set_over_reps(
            "call_us_p50",
            "us per routed op (1024-op block means)",
            &p50s,
        );
        out.set("peak_rss_mb", peak_rss_mb);
    }
    out.notes.push(format!(
        "per-op latency from {BLOCKS} block means per repetition: p50 {:.2} ns, {} {:.2} ns (medians over repetitions)",
        median(&p50s) * 1e3,
        tail_name(BLOCKS),
        median(&tails),
    ));
    out.notes.push(format!(
        "per repetition: {ops} ops, {} churned, {} stale handles refused, {} timeouts fired",
        first.churned, first.stale_rejected, first.fired
    ));
    verify(&engine, args.seed, &mut out);

    if args.trace {
        let traced_reps = traced_walls.len().max(1) as u64;
        let per = |a: CallAgg| a.busy_ns as f64 / a.count.max(1) as f64;
        out.set("runtime.try_deliver_ns", per(totals[TRY_DELIVER]));
        out.set("runtime.is_finished_ns", per(totals[IS_FINISHED]));
        out.set("runtime.release_ns", per(totals[RELEASE]));
        out.set("runtime.spawn_ns", per(totals[SPAWN]));
        out.set("runtime.timer.arm_ns", per(totals[ARM]));
        out.set("runtime.timer.cancel_ns", per(totals[CANCEL]));
        out.set(
            "runtime.timer.advance_ns_per_fired",
            totals[ADVANCE].busy_ns as f64 / (first.fired * traced_reps).max(1) as f64,
        );
        out.set("runtime.churn_share", first.churned as f64 / ops as f64);
        out.set("runtime.stale_rejected", first.stale_rejected as f64);
        out.set("runtime.timer.fired", first.fired as f64);
        out.set("runtime.timer.cascades", first.cascades as f64);
        out.set("runtime.op_ns_tail", median(&tails));
        out.set(
            "alloc.allocs_per_kop",
            allocs as f64 * 1e3 / (ops * walls.len() as u64) as f64,
        );
        out.set(
            "trace.overhead_ratio",
            median(&traced_walls) / median(&walls),
        );
    }
    out
}
