//! The in-process gates on the paper's two deployment policies (§4.2):
//! interpret the model, or deploy compiled or generated code.
//!
//! Two tables say everything this binary checks, and one loop runs
//! each. The row table (`rows` in `main`) names each measured tier, the
//! deliveries one pass makes, whether its steady state must be
//! allocation-free, and the pass. The gate table ([`GATES`]) pairs two
//! rows under a bound, or reports their ratio.
//!
//! Rows joined by a gate run their passes alternately, so a gate's
//! pairs are its rows' own passes and scheduler drift on a shared box
//! hits both sides alike. Every row first runs one untimed warm-up
//! pass; it then reports the median and interquartile range of its
//! timed passes, and its allocation check reads the worst pass. A
//! gate reads the median of its per-pair ratios: many short pairs, read
//! by their median, are what keep a gate within a few percent of its
//! bound from flaking. Every pass of a row must do the same work, and
//! both rows of a like-for-like gate the same work per delivery.
//!
//! Prints the gate table and writes `BENCH_engine_tiers.json` at the
//! workspace root (also printed). Sharded runtimes have no row: a sharded batch is one
//! fork-join per call, which `benchmark/`'s
//! `runtime.sharded2_batch_us_p50` measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use asa_simnet::SimRng;
use stategen_analysis::minimize;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen_core::{generate, CompiledMachine, FlatIr};
use stategen_generated::GeneratedCommitR4;
use stategen_models::{redundant_ring, session_lifecycle, session_lifecycle_guarded};
use stategen_runtime::bench::Pool;
use stategen_runtime::{
    Artifact, Engine, MessageId, ProtocolEngine, Runtime, Session, SessionId, Spec,
};

/// System allocator wrapped with an allocation counter, so the harness
/// can assert which tiers allocate on the delivery path.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed
// atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The canonical commit trace driven by every commit-machine tier.
const TRACE: [&str; 9] = [
    "update", "vote", "vote", "commit", "not_free", "vote", "free", "commit", "vote",
];
/// The session-lifecycle statechart's trace (composites, entry/exit
/// actions, shallow history).
const HSM_TRACE: [&str; 9] = [
    "connect", "update", "vote", "commit", "ping", "update", "abort", "suspend", "resume",
];
/// The retry-budget lifecycle's trace.
const HSM_GUARDED_TRACE: [&str; 9] = [
    "connect", "update", "abort", "update", "vote", "commit", "update", "abort", "suspend",
];
/// The redundant ring's trace: every `step` walks an equivalent leaf.
const RING_TRACE: [&str; 9] = [
    "go", "step", "step", "step", "step", "step", "step", "step", "stop",
];

/// Timed passes of a row no gate joins, and pairs of a gate whose
/// readings sit far from its bound.
const PASSES: usize = 11;
/// Pairs of a gate that reads within 25 % of its bound (and of the
/// facade gate, which shares its facade passes with one). On a shared
/// 2-thread box, best-of-11 long passes read the minimization gate
/// 0.93–1.07 against its 1.05 bound; the median of 110 one-tenth-length
/// pairs read 0.99–1.00.
const CLOSE_PAIRS: usize = 110;

/// Trace rounds per pass of a single-session row.
const SINGLE_ROUNDS: u64 = 33_333;
/// Trace rounds per pass of the minimization gate's rows.
const RING_ROUNDS: u64 = 10_000;
/// Sessions in the lockstep pool rows.
const POOL_SESSIONS: usize = 4096;
/// Trace rounds per pass of the lockstep pool rows.
const POOL_ROUNDS: u64 = 48;
/// Trace rounds per pass of the interpreted r = 64 pool.
const OVER_BUDGET_ROUNDS: u64 = 16;
/// Sessions in the serving-scale rows (the acceptance bar is ≥ 64k
/// concurrent sessions).
const SERVING_SESSIONS: usize = 65_536;
/// Trace rounds per pass of the runtime facade and observed rows.
const SERVING_ROUNDS: u64 = 20;
/// `deliver_all` calls per divergent pass: short enough that the
/// pre-diverged pool is still spread over many states at the end.
const DIVERGENT_SCRIPT: usize = 16;

/// One measured tier, and what its passes measured.
struct Row<'a> {
    name: String,
    /// Deliveries one pass makes.
    deliveries: u64,
    /// Whether the steady state must be allocation-free.
    alloc_free: bool,
    /// One pass: its work (actions or transitions), and the ns it timed.
    pass: Box<dyn FnMut() -> (u64, f64) + 'a>,
    /// The warm-up pass's work, which every timed pass must repeat.
    work: u64,
    /// ns of each timed pass, in order.
    ns: Vec<f64>,
    worst_allocs: u64,
}

impl Row<'_> {
    fn ns_per_delivery(&self) -> f64 {
        quantile(&self.ns, 0.5) / self.deliveries as f64
    }

    fn iqr_per_delivery(&self) -> f64 {
        (quantile(&self.ns, 0.75) - quantile(&self.ns, 0.25)) / self.deliveries as f64
    }

    fn allocs_per_delivery(&self) -> f64 {
        self.worst_allocs as f64 / self.deliveries as f64
    }
}

/// A row whose pass times itself, leaving untimed set-up out.
fn row_with<'a>(
    name: String,
    deliveries: u64,
    alloc_free: bool,
    pass: impl FnMut() -> (u64, f64) + 'a,
) -> Row<'a> {
    Row {
        name,
        deliveries,
        alloc_free,
        pass: Box::new(pass),
        work: 0,
        ns: Vec::new(),
        worst_allocs: 0,
    }
}

/// A row whose pass times the whole of `work`.
fn row<'a>(
    name: &str,
    deliveries: u64,
    alloc_free: bool,
    mut work: impl FnMut() -> u64 + 'a,
) -> Row<'a> {
    row_with(name.to_string(), deliveries, alloc_free, move || {
        let start = Instant::now();
        let work = std::hint::black_box(work());
        (work, start.elapsed().as_nanos() as f64)
    })
}

/// The `q` quantile of `samples`, interpolated between order statistics.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// What a gate asserts of its per-pair ratio.
#[derive(Clone, Copy)]
enum Bound {
    AtMost(f64),
    AtLeast(f64),
    /// Warns, never fails: the two rows run different machines, so
    /// neither their timings nor their work are like for like.
    WarnAbove(f64),
    /// Reported only.
    Reported,
}

/// Two rows compared pair by pair: `ratio` = ns/delivery of `rows[0]` /
/// ns/delivery of `rows[1]`. Both rows must do the same work per
/// delivery, unless the bound only warns.
struct Gate {
    /// The key the ratio is written under in `BENCH_engine_tiers.json`.
    id: &'static str,
    /// The ROADMAP item that owns the gate.
    item: u32,
    rows: [&'static str; 2],
    bound: Bound,
    pairs: usize,
    why: &'static str,
}

/// The gate table.
const GATES: [Gate; 8] = [
    Gate {
        id: "hsm_minimized_vs_unminimized",
        item: 4,
        rows: ["hsm_minimized", "hsm_unminimized"],
        bound: Bound::AtMost(1.05),
        pairs: CLOSE_PAIRS,
        why: "a provably equivalent quotient walks smaller tables with the same loop; beyond a few percent is a real cost",
    },
    Gate {
        id: "batched_kernel_vs_scalar",
        item: 18,
        rows: ["batched_pool", "batched_kernel"],
        bound: Bound::AtLeast(1.25),
        pairs: PASSES,
        why: "the dense kernel exists only for this single-core win over the scalar walk, on a lockstep pool",
    },
    Gate {
        id: "batched_kernel_divergent_vs_scalar",
        item: 18,
        rows: ["batched_pool_divergent", "batched_kernel_divergent"],
        bound: Bound::AtLeast(1.5),
        pairs: PASSES,
        why: "the one-pass column gather must beat the scalar walk where sessions are spread over tens of states",
    },
    Gate {
        id: "batched_kernel_divergent_4k_vs_scalar",
        item: 18,
        rows: ["batched_pool_divergent_4k", "batched_kernel_divergent_4k"],
        bound: Bound::Reported,
        pairs: PASSES,
        why: "the gated shape at 4 096 sessions, reported",
    },
    Gate {
        id: "batched_kernel_divergent_r25_vs_scalar",
        item: 18,
        rows: ["batched_pool_divergent_r25", "batched_kernel_divergent_r25"],
        bound: Bound::Reported,
        pairs: PASSES,
        why: "the gated shape on the wide r = 25 machine, reported",
    },
    Gate {
        id: "runtime_facade_vs_raw_compiled",
        item: 5,
        rows: ["runtime_facade", "compiled_raw_64k"],
        bound: Bound::AtMost(1.10),
        pairs: CLOSE_PAIRS,
        why: "the facade with telemetry compiled in but off may cost no more than raw table stepping",
    },
    Gate {
        id: "runtime_observed_vs_facade",
        item: 5,
        rows: ["runtime_observed", "runtime_facade"],
        bound: Bound::AtMost(1.25),
        pairs: CLOSE_PAIRS,
        why: "a live flight recorder and batch histogram stay within a quarter of the unobserved facade",
    },
    Gate {
        id: "hsm_flattened_vs_compiled",
        item: 18,
        rows: ["hsm_flattened", "compiled"],
        bound: Bound::WarnAbove(2.0),
        pairs: PASSES,
        why: "a flattened statechart runs the plain compiled tier's dense table, on another machine",
    },
];

/// `rounds` rounds of `messages` through `deliver` on `target`, with
/// `reset` after each; returns what `deliver` counted (actions or
/// transitions).
fn repeat<T: ?Sized, M: Copy>(
    target: &mut T,
    messages: &[M],
    rounds: u64,
    deliver: impl Fn(&mut T, M) -> u64,
    reset: impl Fn(&mut T),
) -> u64 {
    let mut work = 0;
    for _ in 0..rounds {
        for &message in messages {
            work += deliver(target, message);
        }
        reset(target);
    }
    work
}

/// [`repeat`] on one served session.
fn trace_pass(single: &mut (Runtime, SessionId), ids: &[MessageId], rounds: u64) -> u64 {
    let deliver = |(rt, s): &mut (Runtime, SessionId), id| rt.deliver(*s, id).len() as u64;
    repeat(single, ids, rounds, deliver, |(rt, s)| rt.reset(*s))
}

/// [`repeat`] on the one session of a bare store. Never inlined, so the
/// minimization gate's two sides run one copy of the loop.
#[inline(never)]
fn session_pass(pool: &mut Pool, ids: &[MessageId], rounds: u64) -> u64 {
    let deliver = |pool: &mut Pool, id| pool.deliver(0, id).len() as u64;
    repeat(pool, ids, rounds, deliver, Pool::reset_all)
}

/// [`repeat`] over every session of a bare store, through the kernels
/// or the scalar walk.
fn pool_pass(pool: &mut Pool, kernel: bool, ids: &[MessageId], rounds: u64) -> u64 {
    let deliver = if kernel {
        Pool::deliver_all
    } else {
        Pool::deliver_all_scalar
    };
    repeat(pool, ids, rounds, deliver, Pool::reset_all)
}

/// The canonical trace by message name, through the borrowing
/// `deliver_ref` of the single-session view.
fn name_pass((rt, session): &mut (Runtime, SessionId), rounds: u64) -> u64 {
    let deliver = |view: &mut Session, m| view.deliver_ref(m).expect("valid message").len() as u64;
    let view = &mut rt.session(*session);
    repeat(view, &TRACE, rounds, deliver, Session::reset)
}

/// `rounds` rounds of `ids` over `states`, stepped straight through
/// [`CompiledMachine::step`] — the loop a deployment would hand-roll
/// without the runtime; returns the transitions taken.
fn raw_pass(machine: &CompiledMachine, states: &mut [u32], ids: &[MessageId], rounds: u64) -> u64 {
    let step_all = |states: &mut [u32], id| {
        let mut taken = 0;
        for state in states.iter_mut() {
            if let Some((target, _)) = machine.step(*state, id) {
                (*state, taken) = (target, taken + 1);
            }
        }
        taken
    };
    repeat(states, ids, rounds, step_all, |states| {
        states.fill(machine.start())
    })
}

/// The ids of `names` in `engine`'s alphabet.
fn ids(engine: &Engine, names: &[&str]) -> Vec<MessageId> {
    let id = |m: &&str| engine.message_id(m).expect("valid message");
    names.iter().map(id).collect()
}

/// One session of `engine`, served alone.
fn served(engine: &Engine) -> (Runtime, SessionId) {
    let mut rt = engine.runtime();
    let session = rt.spawn();
    (rt, session)
}

/// The divergent configurations: `(r, sessions, row suffix)`. Commit
/// r = 7 (the `benchmark/` batch workloads' machine) at 64k sessions is
/// the gated shape.
const DIVERGENT: [(u32, usize, &str); 3] = [
    (7, SERVING_SESSIONS, ""),
    (7, POOL_SESSIONS, "_4k"),
    (25, SERVING_SESSIONS, "_r25"),
];

/// The two divergent-pool rows over `pools` of `sessions` sessions
/// (scalar walk, then kernels). Each pass resets the pool and
/// pre-diverges every session by a private prefix of 0–7 single
/// deliveries (as `benchmark/src/workloads/batch.rs` does), untimed,
/// then times a fixed [`DIVERGENT_SCRIPT`]-message script of batches —
/// repeated so that a pass makes as many deliveries as one at 64k
/// sessions.
fn divergent_rows<'a>(
    suffix: &str,
    engine: &Engine,
    sessions: usize,
    pools: &'a mut [Pool; 2],
) -> [Row<'a>; 2] {
    let alphabet: Vec<_> = engine
        .messages()
        .iter()
        .map(|m| engine.message_id(m).expect("alphabet message"))
        .collect();
    let pick = move |rng: &mut SimRng| alphabet[rng.below(alphabet.len() as u64) as usize];
    let mut rng = SimRng::new(u64::MAX); // no session's seed
    let script: Vec<_> = (0..DIVERGENT_SCRIPT).map(|_| pick(&mut rng)).collect();
    let reps = SERVING_SESSIONS / sessions;
    let [scalar, kernel] = pools;
    [(scalar, false), (kernel, true)].map(|(store, through_kernel)| {
        let deliver = match through_kernel {
            true => Pool::deliver_all,
            false => Pool::deliver_all_scalar,
        };
        let (pick, script) = (pick.clone(), script.clone());
        let pass = move || {
            let (mut ns, mut transitions) = (0u128, 0u64);
            for _ in 0..reps {
                store.reset_all();
                for session in 0..sessions {
                    let mut rng = SimRng::new(session as u64);
                    for _ in 0..rng.below(8) {
                        store.deliver(session, pick(&mut rng));
                    }
                }
                let start = Instant::now();
                for &message in &script {
                    transitions += deliver(store, message);
                }
                ns += start.elapsed().as_nanos();
            }
            (transitions, ns as f64)
        };
        let kind = if through_kernel { "kernel" } else { "pool" };
        let (name, per_message) = (format!("batched_{kind}_divergent{suffix}"), reps * sessions);
        row_with(name, (per_message * DIVERGENT_SCRIPT) as u64, true, pass)
    })
}

/// Runs the row table: rows that share a gate, directly or through
/// another row, form one group and take turns pass by pass; a group
/// runs as many rounds as its widest gate has pairs ([`PASSES`] if no
/// gate joins it), after one untimed warm-up pass of each member.
fn run(rows: &mut [Row<'_>]) {
    let index = |name: &str| rows.iter().position(|r| r.name == name).expect("a row");
    let mut group: Vec<usize> = (0..rows.len()).collect();
    let mut passes = vec![PASSES; rows.len()];
    for gate in &GATES {
        let [a, b] = gate.rows.map(index);
        let (keep, merge) = (group[a], group[b]);
        group
            .iter_mut()
            .filter(|g| **g == merge)
            .for_each(|g| *g = keep);
        passes[keep] = passes[keep].max(passes[merge]).max(gate.pairs);
    }
    for (leader, &rounds) in passes.iter().enumerate() {
        let members: Vec<usize> = (0..rows.len()).filter(|&i| group[i] == leader).collect();
        for &i in &members {
            rows[i].work = (rows[i].pass)().0;
        }
        for _ in 0..rounds {
            for &i in &members {
                let row = &mut rows[i];
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let (work, ns) = (row.pass)();
                let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
                assert_eq!(
                    work, row.work,
                    "{}: every pass does the same work",
                    row.name
                );
                row.ns.push(ns);
                row.worst_allocs = row.worst_allocs.max(allocs);
            }
        }
    }
}

/// The median per-pair ratio of `gate` over `rows`.
fn read(gate: &Gate, rows: &[Row<'_>]) -> f64 {
    let [a, b] = gate
        .rows
        .map(|name| rows.iter().find(|r| r.name == name).expect("a row"));
    if !matches!(gate.bound, Bound::WarnAbove(_)) {
        assert_eq!(
            u128::from(a.work) * u128::from(b.deliveries),
            u128::from(b.work) * u128::from(a.deliveries),
            "{}: both sides must do the same work per delivery",
            gate.id
        );
    }
    let per_delivery = |r: &Row<'_>, i: usize| r.ns[i] / r.deliveries as f64;
    let ratios: Vec<f64> = (0..a.ns.len())
        .map(|i| per_delivery(a, i) / per_delivery(b, i))
        .collect();
    quantile(&ratios, 0.5)
}

fn main() {
    let config = CommitConfig::new(4).expect("valid replication factor");
    let machine = generate(&CommitModel::new(config))
        .expect("generates")
        .machine;
    let compiled = CompiledMachine::compile_ir(&FlatIr::from_machine(&machine))
        .expect("a generated machine is unguarded");
    let (efsm, efsm_params) = (commit_efsm(), commit_efsm_params(&config));
    let facade_engine =
        Engine::compile(Spec::machine(machine.clone())).expect("commit machine compiles");
    let interpreted =
        Engine::interpret(Spec::machine(machine.clone())).expect("a flat machine binds nothing");
    let lifecycle = Engine::compile(Spec::hierarchical(session_lifecycle()))
        .expect("flattened lifecycle compiles");
    // Bound to its budget the guarded lifecycle has 39 reachable
    // configurations, so `Engine::compile` unfolds it onto the dense table.
    let guarded = Engine::compile(Spec::hsm_with_params(session_lifecycle_guarded(), vec![3]))
        .expect("guarded lifecycle compiles");
    // The redundant ring flattens to 10 states whose work leaves are all
    // equivalent; `minimize` collapses them.
    let ring_ir = redundant_ring(8).flatten_ir();
    let (ring_min_ir, ring_stats) = minimize(&ring_ir);
    let (before, after) = (ring_stats.states_before, ring_stats.states_after);
    assert!(
        after < before,
        "minimization must shrink the ring: {before} -> {after}"
    );
    let [ring_full, ring_small] = [ring_ir, ring_min_ir].map(|ir| {
        let artifact = Artifact::new(ir, vec![]).expect("an unguarded IR binds nothing");
        Engine::from_artifact(&artifact).expect("unguarded IR compiles")
    });
    let efsm_engine = Engine::interpret(Spec::efsm(efsm.clone(), efsm_params.clone()))
        .expect("commit_efsm_params binds the EFSM's three parameters");
    // Past the unfolding budget (r = 64) a bound commit EFSM runs on the
    // interpreter.
    let wide = commit_efsm_params(&CommitConfig::new(64).expect("valid replication factor"));
    let over_budget = Engine::compile(Spec::efsm(efsm.clone(), wide)).expect("compiles");
    let lowering = format!("{over_budget:?}");
    assert!(
        lowering.contains("interpreted: over budget"),
        "the r = 64 commit EFSM must fall back to the interpreter: {lowering}"
    );
    let artifact = Artifact::from_efsm(&efsm, efsm_params).expect("binding arity");
    let booted = Engine::from_artifact(&Artifact::load(&artifact.save()).expect("canonical image"))
        .expect("artifact boots");
    let divergent_engines = DIVERGENT.map(|(r, _, _)| {
        let config = CommitConfig::new(r).expect("valid replication factor");
        let wide = generate(&CommitModel::new(config)).expect("generates");
        Engine::compile(Spec::machine(wide.machine)).expect("compiles")
    });

    // What the passes drive, owned here so that the divergent pools can
    // be compared once the rows are done.
    let [commit_ids, lifecycle_ids, guarded_ids, full_ids, small_ids, wide_ids, booted_ids] = [
        (&facade_engine, &TRACE),
        (&lifecycle, &HSM_TRACE),
        (&guarded, &HSM_GUARDED_TRACE),
        (&ring_full, &RING_TRACE),
        (&ring_small, &RING_TRACE),
        (&over_budget, &TRACE),
        (&booted, &TRACE),
    ]
    .map(|(engine, trace)| ids(engine, trace));
    let (mut walked, mut walked_by_id) = (served(&interpreted), served(&interpreted));
    let (mut compiled_single, mut lifecycle_single) = (served(&facade_engine), served(&lifecycle));
    let mut efsm_single = served(&efsm_engine);
    let mut guarded_rt = guarded.runtime_with(SERVING_SESSIONS);
    let [mut ring_full_pool, mut ring_small_pool] =
        [&ring_full, &ring_small].map(|e| Pool::new(e, 1));
    let [mut scalar_pool, mut kernel_pool] =
        [(); 2].map(|_| Pool::new(&facade_engine, POOL_SESSIONS));
    let mut wide_pool = Pool::new(&over_budget, POOL_SESSIONS);
    let mut divergent_pools: Vec<[Pool; 2]> = DIVERGENT
        .iter()
        .zip(&divergent_engines)
        .map(|(&(_, sessions, _), engine)| [(); 2].map(|_| Pool::new(engine, sessions)))
        .collect();
    let mut booted_rt = booted.runtime_with(POOL_SESSIONS);
    let mut raw_states = vec![compiled.start(); SERVING_SESSIONS];
    let mut facade = facade_engine.runtime_with(SERVING_SESSIONS);
    let mut observed = facade_engine.runtime_with(SERVING_SESSIONS);
    // 256 events is the deployment-shaped ring: 8 KiB rides in L1 next
    // to the streaming state array.
    observed.attach_recorder(256);

    // Deliveries per trace round: of one session, of a lockstep pool, of
    // a serving-scale runtime.
    let single = TRACE.len() as u64;
    let pool = (POOL_SESSIONS * TRACE.len()) as u64;
    let serving = (SERVING_SESSIONS * TRACE.len()) as u64;
    let cold_boots = 128;
    let batch = |rt: &mut Runtime, ids: &[MessageId], rounds| {
        repeat(rt, ids, rounds, Runtime::deliver_all, Runtime::reset_all)
    };
    let mut rows = vec![
        // Names resolve through the IR's interned map and the action
        // slice is borrowed: even the string path allocates nothing.
        row("interpreted_name", SINGLE_ROUNDS * single, true, || {
            name_pass(&mut walked, SINGLE_ROUNDS)
        }),
        row("interpreted_id", SINGLE_ROUNDS * single, true, || {
            trace_pass(&mut walked_by_id, &commit_ids, SINGLE_ROUNDS)
        }),
        row("compiled", SINGLE_ROUNDS * single, true, || {
            trace_pass(&mut compiled_single, &commit_ids, SINGLE_ROUNDS)
        }),
        row("hsm_flattened", SINGLE_ROUNDS * single, true, || {
            trace_pass(&mut lifecycle_single, &lifecycle_ids, SINGLE_ROUNDS)
        }),
        row("hsm_guarded_flattened", serving, true, || {
            batch(&mut guarded_rt, &guarded_ids, 1)
        }),
        // One bare store session each: the runtime's handle checks and
        // counters would only add the same cost to both sides.
        row("hsm_unminimized", RING_ROUNDS * single, true, || {
            session_pass(&mut ring_full_pool, &full_ids, RING_ROUNDS)
        }),
        row("hsm_minimized", RING_ROUNDS * single, true, || {
            session_pass(&mut ring_small_pool, &small_ids, RING_ROUNDS)
        }),
        // Lockstep: every session in one state, the kernel's `fill`.
        row("batched_pool", POOL_ROUNDS * pool, true, || {
            pool_pass(&mut scalar_pool, false, &commit_ids, POOL_ROUNDS)
        }),
        row("batched_kernel", POOL_ROUNDS * pool, true, || {
            pool_pass(&mut kernel_pool, true, &commit_ids, POOL_ROUNDS)
        }),
        // The EFSM walks guard and update trees per message.
        row("efsm_interpreted", SINGLE_ROUNDS * single, true, || {
            name_pass(&mut efsm_single, SINGLE_ROUNDS)
        }),
        row(
            "efsm_kernel_over_budget",
            OVER_BUDGET_ROUNDS * pool,
            true,
            || pool_pass(&mut wide_pool, true, &wide_ids, OVER_BUDGET_ROUNDS),
        ),
    ];
    for ((_, sessions, suffix), (engine, pools)) in DIVERGENT
        .iter()
        .zip(divergent_engines.iter().zip(&mut divergent_pools))
    {
        rows.extend(divergent_rows(suffix, engine, *sessions, pools));
    }
    rows.extend([
        // Ship and boot: save, the paranoid load, engine build and first
        // delivery, per cold boot; allocation is its nature.
        row("artifact_cold_load", cold_boots, false, || {
            let mut actions = 0;
            for _ in 0..cold_boots {
                let loaded = Artifact::load(&artifact.save()).expect("canonical image");
                let engine = Engine::from_artifact(&loaded).expect("artifact boots");
                let (mut rt, session) = served(&engine);
                let first = engine.message_id(TRACE[0]).expect("valid message");
                actions += rt.deliver(session, first).len() as u64;
            }
            actions
        }),
        row("artifact_booted_pool", POOL_ROUNDS * pool, true, || {
            batch(&mut booted_rt, &booted_ids, POOL_ROUNDS)
        }),
        row("compiled_raw_64k", 2 * serving, true, || {
            raw_pass(&compiled, &mut raw_states, &commit_ids, 2)
        }),
        row("runtime_facade", SERVING_ROUNDS * serving, true, || {
            batch(&mut facade, &commit_ids, SERVING_ROUNDS)
        }),
        row("runtime_observed", SERVING_ROUNDS * serving, true, || {
            batch(&mut observed, &commit_ids, SERVING_ROUNDS)
        }),
        // Build-time generated source: a `match` over enum states, static
        // send lists.
        row("generated", SINGLE_ROUNDS * single, false, || {
            let deliver =
                |e: &mut GeneratedCommitR4, m| e.deliver_raw(m).map_or(0, <[_]>::len) as u64;
            let mut engine = GeneratedCommitR4::new();
            repeat(&mut engine, &TRACE, SINGLE_ROUNDS, deliver, |e| e.reset())
        }),
    ]);
    run(&mut rows);

    let baseline = rows[0].ns_per_delivery();
    for r in rows.iter().filter(|r| r.alloc_free) {
        assert!(r.worst_allocs == 0, "{} allocates per delivery", r.name);
    }
    let ratios = GATES.map(|gate| read(&gate, &rows));
    let mut failed = Vec::new();
    println!("\n{:<40}  median  bound    item  pairs", "gate");
    for (gate, &ratio) in GATES.iter().zip(&ratios) {
        let (bound, holds) = match gate.bound {
            Bound::AtMost(b) => (format!("<= {b}"), ratio <= b),
            Bound::AtLeast(b) => (format!(">= {b}"), ratio >= b),
            Bound::WarnAbove(b) => (format!("~<= {b}"), true),
            Bound::Reported => (String::new(), true),
        };
        let (id, item, pairs) = (gate.id, gate.item, gate.pairs);
        println!("{id:<40} {ratio:>7.3}  {bound:<8} {item:>4}  {pairs}");
        let warns = matches!(gate.bound, Bound::WarnAbove(b) if ratio > b);
        if warns || !holds {
            let line = format!("{id} reads {ratio:.3} ({bound}): {}", gate.why);
            match holds {
                true => eprintln!("warning: {line}"),
                false => failed.push(line),
            }
        }
    }
    assert!(failed.is_empty(), "gates failed:\n{}", failed.join("\n"));

    let mut json = String::from("{\n");
    let mut key = |k: &str, v: &dyn std::fmt::Display| {
        let _ = writeln!(json, "  \"{k}\": {v},");
    };
    key("machine", &format!("\"{}\"", machine.name()));
    key("states", &machine.state_count());
    key("efsm_states", &efsm.state_count());
    key("trace_len", &TRACE.len());
    key("pool_sessions", &POOL_SESSIONS);
    key("serving_sessions", &SERVING_SESSIONS);
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    key("hardware_threads", &threads);
    for (gate, ratio) in GATES.iter().zip(ratios) {
        key(gate.id, &format!("{ratio:.3}"));
    }
    key("hsm_flat_states", &lifecycle.state_count());
    key("hsm_guarded_flat_states", &guarded.state_count());
    key("hsm_minimized_states_before", &before);
    key("hsm_minimized_states_after", &after);
    let tiers: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"ns_per_delivery\": {:.3}, \"iqr_ns_per_delivery\": {:.3}, \"passes\": {}, \"speedup_vs_interpreted_name\": {:.3}, \"allocs_per_delivery\": {:.6}}}",
                r.name,
                r.ns_per_delivery(),
                r.iqr_per_delivery(),
                r.ns.len(),
                baseline / r.ns_per_delivery(),
                r.allocs_per_delivery(),
            )
        })
        .collect();
    let _ = write!(json, "  \"tiers\": [\n{}\n  ]\n}}\n", tiers.join(",\n"));

    print!("{json}");
    drop(rows); // the rows borrow the divergent pools
    for [scalar, kernel] in &divergent_pools {
        assert_eq!(kernel.image(), scalar.image(), "divergent: same end states");
        assert_eq!(kernel.finished_count(), scalar.finished_count());
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine_tiers.json");
    std::fs::write(&path, &json).expect("write BENCH_engine_tiers.json");
    println!("wrote {}", path.display());
}
