//! `batch_lockstep`, `batch_divergent`, `batch_guarded`: one message per
//! round to every one of 65 536 sessions through `Runtime::deliver_all`.
//!
//! The three share one script and differ in exactly one property each.
//! Lockstep sessions are never pre-diverged, so every batch is the
//! kernels' uniform-state fast path. Divergent sessions each get a
//! private prefix of 0–7 single deliveries, and a reap pass every eight
//! rounds restarts finished sessions with a fresh prefix, which keeps
//! tens of states occupied: the `(state, message)` bucketing's real
//! case. Guarded runs the divergent script on the commit EFSM, where the
//! divergence is in registers and the dense table does nothing.

use std::time::Instant;

use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen_runtime::{Engine, MessageId, Runtime, SessionId, Spec, SwapOutcome};

use super::{measure, repeated_setup, Outcome, RunArgs, BASELINE_REPS, MIN_REPS};
use crate::alloc::{count_allocs, peak_rss_mib};
use crate::gen::{batch_messages, prefix, Fnv};
use crate::stats::{median, summarize, tail_name};
use crate::trace::{CallAgg, Tracer};

/// Sessions in the measured pool.
pub const SESSIONS: usize = 65_536;

/// A reap pass (or, in lockstep, an all-finished check) every this many
/// rounds.
pub const REAP_EVERY: usize = 8;

/// Replication factor of the commit machine all batch rows run (85
/// states as a generated FSM), so the shapes differ by workload only.
const R: u32 = 7;

/// One batch workload.
#[derive(Debug)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// `deliver_all` rounds per repetition.
    pub rounds: usize,
    /// Pre-diverge sessions and reap finished ones.
    pub diverge: bool,
    /// Run the commit EFSM (register tier) instead of the generated FSM.
    pub guarded: bool,
    /// Sessions replayed on the reference interpreter. Lockstep sessions
    /// are all alike, so fewer suffice for its 30× longer script.
    pub ref_sessions: usize,
}

/// The historical headline shape.
pub const LOCKSTEP: Shape = Shape {
    name: "batch_lockstep",
    rounds: 40_000,
    diverge: false,
    guarded: false,
    ref_sessions: 128,
};

/// The counting sort's real case.
pub const DIVERGENT: Shape = Shape {
    name: "batch_divergent",
    rounds: 1_200,
    diverge: true,
    guarded: false,
    ref_sessions: 4_096,
};

/// The divergent script on the register tier.
pub const GUARDED: Shape = Shape {
    name: "batch_guarded",
    rounds: 1_200,
    diverge: true,
    guarded: true,
    ref_sessions: 4_096,
};

fn spec(guarded: bool, r: u32) -> Spec {
    let config = CommitConfig::new(r).expect("valid replication factor");
    if guarded {
        Spec::efsm(commit_efsm(), commit_efsm_params(&config))
    } else {
        Spec::generated(&CommitModel::new(config)).expect("commit model generates")
    }
}

/// A runtime with its session handles and its alphabet as message ids.
struct Pool {
    rt: Runtime,
    ids: Vec<SessionId>,
    alphabet: Vec<MessageId>,
    finished: Vec<u32>,
}

/// What the traced reap pass times per call.
#[derive(Debug, Default)]
struct ReapTimes {
    scan_ns: u64,
    scanned: u64,
    reset: CallAgg,
    rediverge: CallAgg,
}

impl Pool {
    fn new(rt: Runtime, sessions: usize) -> Pool {
        let mut rt = rt;
        let ids = (0..sessions).map(|_| rt.spawn()).collect();
        let alphabet = rt
            .engine()
            .messages()
            .iter()
            .map(|m| rt.message_id(m).expect("alphabet message resolves"))
            .collect();
        Pool {
            rt,
            ids,
            alphabet,
            finished: Vec::with_capacity(sessions),
        }
    }

    /// Delivers session `i` its private prefix for `epoch`; returns the
    /// number of deliveries.
    #[inline]
    fn diverge(&mut self, seed: u64, i: usize, epoch: u64) -> u64 {
        let (buf, len) = prefix(seed, i as u64, epoch, self.alphabet.len());
        for &m in &buf[..len] {
            self.rt.deliver(self.ids[i], self.alphabet[m as usize]);
        }
        len as u64
    }

    /// Start-of-repetition state: every session at the start state, then
    /// (if diverging) given its epoch-0 prefix.
    fn prepare(&mut self, seed: u64, diverge: bool) {
        self.rt.reset_all();
        if diverge {
            for i in 0..self.ids.len() {
                self.diverge(seed, i, 0);
            }
        }
    }

    /// Restarts every finished session with a fresh prefix; returns how
    /// many. Scan first, restart second: restarting one session does not
    /// affect another, and the split lets the traced run time the scan
    /// on its own.
    fn reap<const TRACED: bool>(&mut self, seed: u64, epoch: u64, times: &mut ReapTimes) -> u64 {
        let mut finished = std::mem::take(&mut self.finished);
        finished.clear();
        let scan = TRACED.then(Instant::now);
        for (i, &id) in self.ids.iter().enumerate() {
            if self.rt.is_finished(id) {
                finished.push(i as u32);
            }
        }
        if let Some(scan) = scan {
            times.scan_ns += scan.elapsed().as_nanos() as u64;
            times.scanned += self.ids.len() as u64;
        }
        for &i in &finished {
            let i = i as usize;
            if TRACED {
                let a = Instant::now();
                self.rt.reset(self.ids[i]);
                let b = Instant::now();
                let ops = self.diverge(seed, i, epoch);
                let c = Instant::now();
                times.reset.count += 1;
                times.reset.busy_ns += (b - a).as_nanos() as u64;
                times.rediverge.count += ops;
                times.rediverge.busy_ns += (c - b).as_nanos() as u64;
            } else {
                self.rt.reset(self.ids[i]);
                self.diverge(seed, i, epoch);
            }
        }
        let reaped = finished.len() as u64;
        self.finished = finished;
        reaped
    }

    /// Hash of every session's state id, in handle order.
    fn state_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for &id in &self.ids {
            h.word(u64::from(self.rt.state(id)));
        }
        h.0
    }

    /// Distinct occupied states and the largest state's share of the
    /// pool: the workload descriptors.
    fn occupancy(&self, counts: &mut Vec<u32>) -> (f64, f64) {
        counts.clear();
        counts.resize(self.rt.engine().state_count(), 0);
        for &id in &self.ids {
            counts[self.rt.state(id) as usize] += 1;
        }
        let occupied = counts.iter().filter(|c| **c > 0).count();
        let largest = counts.iter().copied().max().unwrap_or(0);
        (occupied as f64, f64::from(largest) / self.ids.len() as f64)
    }
}

/// Outputs of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RepOut {
    wall_ns: u64,
    /// Time spent in the traced run's occupancy sampling (inside the
    /// repetition, outside every timed call).
    excluded_ns: u64,
    transitions: u64,
    reaped: u64,
    resets: u64,
}

/// Per-layer accumulators of the traced repetitions.
#[derive(Debug, Default)]
struct Layers {
    reap: ReapTimes,
    occupied: Vec<f64>,
    largest_share: Vec<f64>,
    counts: Vec<u32>,
}

/// One repetition: `script.len()` rounds of `deliver_all`, each timed,
/// with the shape's every-eighth-round upkeep. `samples` gets the
/// duration in nanoseconds of every call in which a session took a
/// transition: a message no session reacts to costs a lockstep pool half
/// as much as one they all react to, so the median over every call would
/// sit between two modes and jump from one to the other.
fn rep<const TRACED: bool>(
    pool: &mut Pool,
    shape: &Shape,
    seed: u64,
    script: &[MessageId],
    samples: &mut Vec<u64>,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> RepOut {
    samples.clear();
    samples.reserve(script.len());
    let mut out = RepOut {
        wall_ns: 0,
        excluded_ns: 0,
        transitions: 0,
        reaped: 0,
        resets: 0,
    };
    let start = Instant::now();
    for (round, &message) in script.iter().enumerate() {
        if TRACED {
            tracer.open("round", "benchmark", round as u64);
        }
        let a = Instant::now();
        let transitions = pool.rt.deliver_all(message);
        let b = Instant::now();
        out.transitions += transitions;
        if transitions > 0 {
            samples.push((b - a).as_nanos() as u64);
        }
        if TRACED {
            tracer.leaf("deliver_all", "runtime", round as u64, a, b);
        }
        if (round + 1) % REAP_EVERY == 0 {
            if shape.diverge {
                if TRACED {
                    tracer.open("reap", "runtime", round as u64);
                }
                out.reaped += pool.reap::<TRACED>(seed, round as u64 + 1, &mut layers.reap);
                if TRACED {
                    tracer.close();
                }
            } else {
                let a = TRACED.then(Instant::now);
                let finished = pool.rt.all_finished();
                let b = TRACED.then(Instant::now);
                if finished {
                    pool.rt.reset_all();
                    out.resets += 1;
                }
                if let (Some(a), Some(b)) = (a, b) {
                    tracer.leaf("all_finished", "runtime", round as u64, a, b);
                    if finished {
                        tracer.leaf("reset_all", "runtime", round as u64, b, Instant::now());
                    }
                }
            }
        }
        if TRACED {
            tracer.close();
            if round % 100 == 0 {
                let t = Instant::now();
                let (occupied, share) = pool.occupancy(&mut layers.counts);
                layers.occupied.push(occupied);
                layers.largest_share.push(share);
                out.excluded_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64 - out.excluded_ns;
    out
}

/// The reference: the same script at `shape.ref_sessions` sessions on
/// `Engine::interpret`, delivered one session at a time through
/// `Runtime::deliver` (never through the batch kernels). For the EFSM,
/// which has no separate interpreted engine, the scalar per-session path
/// is what makes the replay independent of the kernels.
fn reference_replay(shape: &Shape, seed: u64, script: &[MessageId]) -> (Pool, u64) {
    let engine = Engine::interpret(spec(shape.guarded, R)).expect("reference engine");
    let mut pool = Pool::new(engine.runtime(), shape.ref_sessions);
    pool.prepare(seed, shape.diverge);
    let before = pool.rt.metrics().transitions;
    let mut times = ReapTimes::default();
    for (round, &message) in script.iter().enumerate() {
        // Scripts carry the compiled engine's ids; the interpreted
        // engine of the same spec numbers its alphabet identically
        // (checked by the caller).
        for i in 0..pool.ids.len() {
            pool.rt.deliver(pool.ids[i], message);
        }
        if (round + 1) % REAP_EVERY == 0 {
            if shape.diverge {
                pool.reap::<false>(seed, round as u64 + 1, &mut times);
            } else if pool.rt.all_finished() {
                pool.rt.reset_all();
            }
        }
    }
    let transitions = pool.rt.metrics().transitions - before;
    (pool, transitions)
}

/// Runs the repetition script on a fresh compiled pool of
/// `sessions` sessions and returns it with its transition count.
fn small_compiled_run(
    engine: &Engine,
    shape: &Shape,
    seed: u64,
    script: &[MessageId],
    sessions: usize,
) -> (Pool, u64) {
    let mut pool = Pool::new(engine.runtime(), sessions);
    pool.prepare(seed, shape.diverge);
    let before = pool.rt.metrics().transitions;
    let mut samples = Vec::new();
    rep::<false>(
        &mut pool,
        shape,
        seed,
        script,
        &mut samples,
        &mut Tracer::new(false),
        &mut Layers::default(),
    );
    let transitions = pool.rt.metrics().transitions - before;
    (pool, transitions)
}

/// Output checks: compiled pool against the interpreted replay.
fn verify(
    engine: &Engine,
    big: &Pool,
    shape: &Shape,
    seed: u64,
    script: &[MessageId],
    out: &mut Outcome,
) {
    let n = shape.ref_sessions;
    let (reference, ref_transitions) = reference_replay(shape, seed, script);
    out.check(
        reference.rt.engine().messages() == engine.messages(),
        || "interpreted and compiled engines number the alphabet differently".into(),
    );
    // Session i behaves the same whatever the pool size, so the first n
    // sessions of the measured pool must match the replay one by one.
    for i in 0..n {
        let (a, b) = (big.ids[i], reference.ids[i]);
        out.check(
            big.rt.state_name(a) == reference.rt.state_name(b)
                && big.rt.vars(a) == reference.rt.vars(b)
                && big.rt.is_finished(a) == reference.rt.is_finished(b),
            || {
                format!(
                    "{}: session {i} ended in {}{:?} (compiled) vs {}{:?} (reference)",
                    shape.name,
                    big.rt.state_name(a),
                    big.rt.vars(a),
                    reference.rt.state_name(b),
                    reference.rt.vars(b)
                )
            },
        );
    }
    let (_, compiled_transitions) = small_compiled_run(engine, shape, seed, script, n);
    out.check(compiled_transitions == ref_transitions, || {
        format!(
            "{}: {compiled_transitions} transitions through the kernels, {ref_transitions} on the reference",
            shape.name
        )
    });
}

/// State of one set-up.
struct Setup {
    engine: Engine,
    pool: Pool,
    script: Vec<MessageId>,
}

fn setup(shape: &Shape, seed: u64) -> Setup {
    let engine = Engine::compile(spec(shape.guarded, R)).expect("commit machine compiles");
    let mut pool = Pool::new(engine.runtime(), SESSIONS);
    let script: Vec<MessageId> = batch_messages(seed, shape.rounds, pool.alphabet.len())
        .into_iter()
        .map(|m| pool.alphabet[m as usize])
        .collect();
    // Warm-up: size the kernels' scratch buffers and fault the pool in.
    pool.prepare(seed, shape.diverge);
    let mut times = ReapTimes::default();
    for (round, &message) in script.iter().take(64).enumerate() {
        pool.rt.deliver_all(message);
        if shape.diverge && (round + 1) % REAP_EVERY == 0 {
            pool.reap::<false>(seed, round as u64 + 1, &mut times);
        }
    }
    Setup {
        engine,
        pool,
        script,
    }
}

/// Runs one batch workload.
pub fn run(shape: &Shape, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) = repeated_setup(|| setup(shape, args.seed));
    out.set("setup_s", setup_s);
    if !shape.guarded {
        out.check(s.engine.state_count() == 85, || {
            format!(
                "commit r=7 generated {} states, paper says 85",
                s.engine.state_count()
            )
        });
    }
    let deliveries = (SESSIONS * shape.rounds) as u64;
    let mut samples = Vec::new();
    let mut layers = Layers::default();
    let mut off = Tracer::new(false);

    // One full unmeasured repetition, so the first measured one does not
    // pay for anything the short set-up warm-up did not reach.
    s.pool.prepare(args.seed, shape.diverge);
    let counters_before = s.pool.rt.metrics();
    let first = rep::<false>(
        &mut s.pool,
        shape,
        args.seed,
        &s.script,
        &mut samples,
        &mut off,
        &mut layers,
    );
    let counters_after = s.pool.rt.metrics();
    let first_hash = s.pool.state_hash();

    let mut walls = Vec::new();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut allocs = 0u64;
    let mut traced_walls = Vec::new();
    let baseline = if args.trace {
        BASELINE_REPS
    } else {
        usize::MAX
    };
    let reps = measure(args.seconds, MIN_REPS, |k| {
        s.pool.prepare(args.seed, shape.diverge);
        let traced = k >= baseline;
        let r = if traced {
            rep::<true>(
                &mut s.pool,
                shape,
                args.seed,
                &s.script,
                &mut samples,
                tracer,
                &mut layers,
            )
        } else {
            let (r, counted) = count_allocs(args.trace, || {
                rep::<false>(
                    &mut s.pool,
                    shape,
                    args.seed,
                    &s.script,
                    &mut samples,
                    &mut off,
                    &mut layers,
                )
            });
            allocs += counted;
            r
        };
        // Identical repetitions must produce identical outputs.
        let same = (r.transitions, r.reaped, r.resets)
            == (first.transitions, first.reaped, first.resets)
            && s.pool.state_hash() == first_hash;
        out.check(same, || {
            format!(
                "{}: repetition {k} diverged: {} transitions/{} reaped/{} resets vs {}/{}/{}",
                shape.name,
                r.transitions,
                r.reaped,
                r.resets,
                first.transitions,
                first.reaped,
                first.resets
            )
        });
        let wall = r.wall_ns as f64 / 1e9;
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            let sum = summarize(&mut samples);
            p50s.push(sum.p50 as f64 / 1e3);
            if let Some((_, tail)) = sum.tail {
                tails.push(tail as f64 / 1e3);
            }
        }
        (r.wall_ns + r.excluded_ns) as f64 / 1e9
    });
    // Before the output checks build their reference pools.
    let peak_rss_mb = peak_rss_mib();
    out.ops(deliveries * reps as u64);
    let mut h = Fnv::default();
    for w in [first.transitions, first.reaped, first.resets, first_hash] {
        h.word(w);
    }
    out.checksum = h.0;

    let untraced_reps = walls.len() as u64;
    let rates: Vec<f64> = walls.iter().map(|w| deliveries as f64 / w).collect();
    if !args.trace {
        out.set_over_reps("ops_per_s", "deliveries/s", &rates);
        out.set_over_reps("call_us_p50", "us per deliver_all with a transition", &p50s);
        out.set("peak_rss_mb", peak_rss_mb);
    }
    out.notes.push(format!(
        "deliver_all over {SESSIONS} sessions, {} calls with a transition per repetition: p50 {:.3} us, {} {:.3} us (medians over repetitions)",
        samples.len(),
        median(&p50s),
        tail_name(samples.len()),
        median(&tails),
    ));
    out.notes.push(format!(
        "per repetition: {} rounds, {} transitions, {} reaped, {} lockstep resets",
        shape.rounds, first.transitions, first.reaped, first.resets
    ));

    verify(&s.engine, &s.pool, shape, args.seed, &s.script, &mut out);
    if args.trace {
        let flat_ns_per_session = layer_metrics(&layers, tracer, &mut out);
        // Useful ÷ attempted from the runtime's own counters, over
        // exactly one repetition so the ratios repeat exactly.
        let delivered = (counters_after.deliveries - counters_before.deliveries).max(1) as f64;
        out.set(
            "core.kernel.transitions_per_delivery",
            (counters_after.transitions - counters_before.transitions) as f64 / delivered,
        );
        out.set(
            "core.kernel.guard_fall_throughs_per_delivery",
            (counters_after.guard_fall_throughs - counters_before.guard_fall_throughs) as f64
                / delivered,
        );
        out.set(
            "alloc.allocs_per_kop",
            allocs as f64 * 1e3 / (deliveries * untraced_reps) as f64,
        );
        out.set(
            "trace.overhead_ratio",
            median(&traced_walls) / median(&walls),
        );
        // Tail of one deliver_all call over the untraced baseline
        // repetitions, at the percentile `tail_name` gives.
        out.set("runtime.batch_us_tail", median(&tails));
        side_experiments(shape, args, &mut s, flat_ns_per_session, tracer, &mut out);
    }
    out
}

/// Per-layer metrics read off the traced repetitions. Returns the
/// traced `deliver_all` cost per session.
fn layer_metrics(layers: &Layers, tracer: &Tracer, out: &mut Outcome) -> f64 {
    let agg = tracer.aggregate();
    let deliver = agg.get("deliver_all").copied().unwrap_or_default();
    let ns_per_session = deliver.total_ns as f64 / (deliver.count.max(1) * SESSIONS as u64) as f64;
    out.set("runtime.deliver_all_ns_per_session", ns_per_session);
    for (metric, span) in [
        ("runtime.all_finished_us", "all_finished"),
        ("runtime.reset_all_us", "reset_all"),
    ] {
        if let Some(a) = agg.get(span) {
            out.set(metric, a.total_ns as f64 / 1e3 / a.count.max(1) as f64);
        }
    }
    let reap = &layers.reap;
    if reap.scanned > 0 {
        out.set(
            "runtime.reap_ns_per_session",
            reap.scan_ns as f64 / reap.scanned as f64,
        );
        out.set(
            "runtime.reset_ns",
            reap.reset.busy_ns as f64 / reap.reset.count.max(1) as f64,
        );
        out.set(
            "runtime.rediverge_ns_per_op",
            reap.rediverge.busy_ns as f64 / reap.rediverge.count.max(1) as f64,
        );
    }
    out.set("core.kernel.occupied_states_p50", median(&layers.occupied));
    out.set(
        "core.kernel.largest_bucket_share_p50",
        median(&layers.largest_share),
    );
    ns_per_session
}

/// `deliver_all` cost per session of `script` on `pool`, each call under
/// a span of the given `(name, layer)`. Also returns the call durations
/// and the transitions taken.
fn timed_rounds(
    pool: &mut Pool,
    shape: &Shape,
    seed: u64,
    script: &[MessageId],
    (name, layer): (&'static str, &'static str),
    tracer: &mut Tracer,
) -> (f64, Vec<u64>, u64) {
    pool.prepare(seed, shape.diverge);
    let mut times = ReapTimes::default();
    let mut ns = Vec::with_capacity(script.len());
    let mut transitions = 0;
    for (round, &message) in script.iter().enumerate() {
        let a = Instant::now();
        transitions += pool.rt.deliver_all(message);
        let b = Instant::now();
        tracer.leaf(name, layer, round as u64, a, b);
        ns.push((b - a).as_nanos() as u64);
        if (round + 1) % REAP_EVERY == 0 {
            if shape.diverge {
                pool.reap::<false>(seed, round as u64 + 1, &mut times);
            } else if pool.rt.all_finished() {
                pool.rt.reset_all();
            }
        }
    }
    let total: u64 = ns.iter().sum();
    (
        total as f64 / (script.len() * pool.ids.len()) as f64,
        ns,
        transitions,
    )
}

/// The traced run's side experiments: each times one public call the
/// main script does not isolate.
fn side_experiments(
    shape: &Shape,
    args: &RunArgs,
    s: &mut Setup,
    flat_ns_per_session: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let seed = args.seed;
    let side_rounds = 200.min(shape.rounds);
    let side_script = &s.script[..side_rounds];

    // Interpreted engine under the same script, 4 096 sessions.
    tracer.open("side.interp", "benchmark", 0);
    let interp = Engine::interpret(spec(shape.guarded, R)).expect("reference engine");
    let mut pool = Pool::new(interp.runtime(), 4_096);
    let (ns, _, _) = timed_rounds(
        &mut pool,
        shape,
        seed,
        side_script,
        ("interp.deliver_all", "core.interp"),
        tracer,
    );
    out.set("core.interp.deliver_all_ns_per_session", ns);
    tracer.close();

    // Flight recorder attached ÷ detached, alternating blocks so drift
    // on a shared box hits both sides.
    tracer.open("side.telemetry", "benchmark", 0);
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        s.pool.rt.detach_recorder();
        plain.push(
            timed_rounds(
                &mut s.pool,
                shape,
                seed,
                side_script,
                ("plain.deliver_all", "runtime"),
                tracer,
            )
            .0,
        );
        s.pool.rt.attach_recorder(256);
        observed.push(
            timed_rounds(
                &mut s.pool,
                shape,
                seed,
                side_script,
                ("observed.deliver_all", "telemetry"),
                tracer,
            )
            .0,
        );
    }
    out.set(
        "telemetry.observed_ratio",
        median(&observed) / median(&plain),
    );
    let reads = 10_000u32;
    let a = Instant::now();
    for _ in 0..reads {
        std::hint::black_box(s.pool.rt.metrics());
    }
    let b = Instant::now();
    tracer.leaf("metrics", "telemetry", u64::from(reads), a, b);
    out.set(
        "telemetry.metrics_read_ns",
        (b - a).as_nanos() as f64 / f64::from(reads),
    );
    let dumps: Vec<f64> = (0..9)
        .map(|i| {
            let a = Instant::now();
            std::hint::black_box(s.pool.rt.dump_trace());
            let b = Instant::now();
            tracer.leaf("dump_trace", "telemetry", i, a, b);
            (b - a).as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("telemetry.dump_trace_us", median(&dumps));
    s.pool.rt.detach_recorder();
    tracer.close();

    // Walk floor: deliver_all over a pool in which every session has
    // finished (lockstep reaches that state by itself).
    if !shape.diverge {
        tracer.open("side.finished_skip", "benchmark", 0);
        s.pool.prepare(seed, false);
        let mut k = 0;
        while !s.pool.rt.all_finished() && k < 100_000 {
            s.pool.rt.deliver_all(s.script[k % s.script.len()]);
            k += 1;
        }
        out.check(s.pool.rt.all_finished(), || {
            "lockstep pool never finished".into()
        });
        let calls = 2_000;
        let a = Instant::now();
        for i in 0..calls {
            std::hint::black_box(s.pool.rt.deliver_all(s.script[i % s.script.len()]));
        }
        let b = Instant::now();
        tracer.leaf("finished.deliver_all", "runtime", calls as u64, a, b);
        out.set(
            "runtime.finished_skip_ns_per_session",
            (b - a).as_nanos() as f64 / (calls * SESSIONS) as f64,
        );
        tracer.close();
        return;
    }

    // Crash-safety and rollout calls at 65 536 live sessions.
    tracer.open("side.snapshot", "benchmark", 0);
    s.pool.prepare(seed, true);
    let (mut snap_ms, mut restore_ms, mut swap_ms) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..5 {
        let a = Instant::now();
        let snapshot = s.pool.rt.snapshot_all();
        let b = Instant::now();
        let restored =
            Runtime::restore(&s.engine, &snapshot).expect("snapshot restores into its own engine");
        let c = Instant::now();
        let swapped = s
            .pool
            .rt
            .begin_swap(s.engine.clone())
            .expect("identical engine swaps");
        let d = Instant::now();
        tracer.leaf("snapshot_all", "runtime", i, a, b);
        tracer.leaf("restore", "runtime", i, b, c);
        tracer.leaf("begin_swap", "runtime", i, c, d);
        out.check(
            restored.len() == SESSIONS && swapped == SwapOutcome::Migrated { sessions: SESSIONS },
            || {
                format!(
                    "restore kept {} sessions, swap reported {swapped:?}",
                    restored.len()
                )
            },
        );
        snap_ms.push((b - a).as_nanos() as f64 / 1e6);
        restore_ms.push((c - b).as_nanos() as f64 / 1e6);
        swap_ms.push((d - c).as_nanos() as f64 / 1e6);
    }
    out.set("runtime.snapshot_all_ms", median(&snap_ms));
    out.set("runtime.restore_ms", median(&restore_ms));
    out.set("runtime.swap_migrate_ms", median(&swap_ms));
    tracer.close();

    if shape.guarded {
        return;
    }

    // The same script never pre-diverged: the base of the
    // divergent ÷ lockstep finding.
    tracer.open("side.lockstep", "benchmark", 0);
    let (lockstep_ns, _, _) = timed_rounds(
        &mut s.pool,
        &LOCKSTEP,
        seed,
        &s.script,
        ("lockstep.deliver_all", "core.kernel"),
        tracer,
    );
    out.set(
        "core.kernel.divergent_vs_lockstep",
        flat_ns_per_session / lockstep_ns,
    );
    out.notes.push(format!(
        "divergent {flat_ns_per_session:.4} ns/session vs lockstep {lockstep_ns:.4} ns/session on the same machine and pool"
    ));
    tracer.close();

    // Two shards, one scoped worker thread each.
    tracer.open("side.sharded2", "benchmark", 0);
    let (_, flat_ns, flat_transitions) = timed_rounds(
        &mut s.pool,
        shape,
        seed,
        side_script,
        ("flat.deliver_all", "runtime"),
        tracer,
    );
    let mut sharded = Pool::new(s.engine.runtime().sharded(2), SESSIONS);
    let (_, mut sharded_ns, sharded_transitions) = timed_rounds(
        &mut sharded,
        shape,
        seed,
        side_script,
        ("sharded2.deliver_all", "runtime"),
        tracer,
    );
    out.check(flat_transitions == sharded_transitions, || {
        format!("sharded(2) took {sharded_transitions} transitions, flat {flat_transitions}")
    });
    out.set(
        "runtime.sharded2_batch_us_p50",
        summarize(&mut sharded_ns).p50 as f64 / 1e3,
    );
    let mut flat_ns = flat_ns;
    out.notes.push(format!(
        "sharded(2) p50 {:.1} us vs flat p50 {:.1} us on {} hardware threads",
        summarize(&mut sharded_ns).p50 as f64 / 1e3,
        summarize(&mut flat_ns).p50 as f64 / 1e3,
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    drop(sharded);
    tracer.close();

    // Commit r = 25: 901 states, a dense table past L1.
    tracer.open("side.wide_r25", "benchmark", 0);
    let wide = Engine::compile(spec(false, 25)).expect("commit r=25 compiles");
    let mut pool = Pool::new(wide.runtime(), SESSIONS);
    let script: Vec<MessageId> = batch_messages(seed, side_rounds, pool.alphabet.len())
        .into_iter()
        .map(|m| pool.alphabet[m as usize])
        .collect();
    let (ns, _, _) = timed_rounds(
        &mut pool,
        shape,
        seed,
        &script,
        ("wide_r25.deliver_all", "core.kernel"),
        tracer,
    );
    out.set("core.kernel.wide_r25_ns_per_session", ns);
    tracer.close();
}
