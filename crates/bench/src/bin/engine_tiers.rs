//! Engine-tier comparison: ns/delivery and allocation counts for the
//! interpreted, compiled, batched, kernel-batched, EFSM and
//! build-time-generated execution tiers, all running the same canonical
//! commit trace at r = 4.
//!
//! The batch-kernel gate: `batched_pool` measures the
//! *scalar* per-session batch walk (`deliver_all_scalar` on one bare
//! session store, reached through `stategen_runtime::bench::Pool` — the
//! reference semantics), while `batched_kernel` measures the dense
//! tier's branchless kernel behind `deliver_all` on the same store.
//! The paired alternating measurement at the bottom hard-fails unless
//! the kernel wins by ≥ 1.25× on a single core — branch elimination
//! alone, no multi-threading involved — at zero allocations per
//! delivery. Those rows run the canonical trace in *lockstep* (every
//! session in one state: the kernel's `fill` fast path); the
//! `*_divergent` rows run pre-diverged pools at r = 7 and r = 25, where
//! the dense tier's one-pass column gather is gated at ≥ 1.5× the
//! scalar walk. `efsm_kernel_over_budget` reports what a guarded
//! machine past the unfolding budget costs: `deliver_all` on the commit
//! EFSM at r = 64, which `Engine::compile` leaves on the interpreter,
//! as the median of ten passes at zero allocations per delivery.
//!
//! The single-session and facade tiers are measured **through the
//! `stategen-runtime` facade** (`Spec → Engine → Runtime`, one served
//! session for the single-session rows) — the owned pipeline every
//! deployment site now consumes — and the dedicated `runtime_facade` row
//! hard-gates the facade's overhead: 64k-session batch dispatch must
//! stay within 1.10× of raw dense-table stepping (a paired alternating
//! measurement against the bare `CompiledMachine::step` loop;
//! `compiled_raw_64k` is the same baseline as a reported row) at zero
//! allocations per delivery, both hard assertions — the facade is only
//! allowed to exist if it is free. Sharded runtimes have no row: a
//! sharded batch is one fork-join per call, which measures thread
//! spawn/join, not the engine; `benchmark/`'s
//! `runtime.sharded2_batch_us_p50` is the instrument for that
//! (`docs/KERNELS.md`).
//!
//! Emits a machine-readable `BENCH_engine_tiers.json` at the workspace
//! root (ns/delivery per tier, speedup ratios vs the interpreted
//! baseline, allocations per delivery) so future PRs can track the
//! performance trajectory, plus a human-readable table on stdout.
//!
//! A counting global allocator verifies the headline claims directly:
//! every steady-state *compiled* hot path — and the interpreted paths,
//! including the FSM name path and the interpreted EFSM, which both
//! borrow the action slice through `deliver_ref` instead of copying it
//! — performs **zero** heap allocations per delivered message; that
//! includes `hsm_flattened`, a flattened hierarchical statechart
//! dispatching through the same dense tables, `hsm_guarded_flattened`,
//! a *guarded* statechart (retry-budget session lifecycle) flattened
//! through the unified IR, bound, unfolded onto the dense tier and
//! batch-served at 64k sessions. Exempt from the assertion: only the
//! cold-load and build-time-generated rows, which allocate by nature.
//!
//! The deployment path gets its own rows: `artifact_cold_load` times
//! the full ship-and-boot cycle (encode to the versioned artifact
//! image, load through the paranoid loader, build the engine, first
//! delivery — ns per cold boot, allocations included by nature), and
//! `artifact_booted_pool` hard-asserts that an artifact-booted engine's
//! steady state is allocation-free like every other compiled row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use asa_simnet::SimRng;
use stategen_analysis::minimize;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen_core::{generate, CompiledMachine, FlatIr, ProtocolEngine};
use stategen_generated::GeneratedCommitR4;
use stategen_models::{redundant_ring, session_lifecycle, session_lifecycle_guarded};
use stategen_runtime::bench::Pool;
use stategen_runtime::{Artifact, Engine, MessageId, Runtime, SessionId, Spec};

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

/// The canonical commit trace driven by every tier.
const TRACE: [&str; 9] = [
    "update", "vote", "vote", "commit", "not_free", "vote", "free", "commit", "vote",
];

/// Deliveries per measurement run for the single-instance tiers.
const SINGLE_DELIVERIES: u64 = 1_800_000;

/// Sessions in the batched tier (deliveries = sessions × trace rounds).
const POOL_SESSIONS: usize = 4096;

/// Sessions in the serving-scale rows (the acceptance bar is ≥ 64k
/// concurrent sessions).
const SERVING_SESSIONS: usize = 65_536;

struct TierResult {
    name: String,
    ns_per_delivery: f64,
    allocs_per_delivery: f64,
    /// Whether the steady-state path must be allocation-free.
    assert_zero_alloc: bool,
}

/// Runs `work` (which performs `deliveries` message deliveries) once as
/// a warm-up pass and then three measured passes, returning best-of ns
/// (this box is shared and single-pass timings jitter) and worst-of
/// allocations per delivery.
fn measure(
    name: impl Into<String>,
    deliveries: u64,
    assert_zero_alloc: bool,
    mut work: impl FnMut() -> u64,
) -> TierResult {
    let mut checksum = work(); // warm-up: page in tables, size scratch buffers
    let mut best_ns = f64::INFINITY;
    let mut worst_allocs = 0u64;
    for _ in 0..3 {
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        checksum ^= work();
        let elapsed = start.elapsed();
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        best_ns = best_ns.min(elapsed.as_nanos() as f64);
        worst_allocs = worst_allocs.max(allocs);
    }
    std::hint::black_box(checksum);
    TierResult {
        name: name.into(),
        ns_per_delivery: best_ns / deliveries as f64,
        allocs_per_delivery: worst_allocs as f64 / deliveries as f64,
        assert_zero_alloc,
    }
}

/// One session of `engine`, served alone: the single-session view every
/// single-session row drives.
fn served(engine: &Engine) -> (Runtime, SessionId) {
    let mut rt = engine.runtime();
    let session = rt.spawn();
    (rt, session)
}

/// `rounds` passes of `ids` through one served session, reset after
/// each pass; returns the actions delivered.
fn trace_pass((rt, session): &mut (Runtime, SessionId), ids: &[MessageId], rounds: u64) -> u64 {
    let mut actions = 0;
    for _ in 0..rounds {
        for &id in ids {
            actions += rt.deliver(*session, id).len() as u64;
        }
        rt.reset(*session);
    }
    actions
}

/// [`trace_pass`] on the one session of a bare store. Never inlined, so
/// the minimization gate's two sides run one copy of the loop.
#[inline(never)]
fn session_pass(pool: &mut Pool, ids: &[MessageId], rounds: u64) -> u64 {
    let mut actions = 0;
    for _ in 0..rounds {
        for &id in ids {
            actions += pool.deliver(0, id).len() as u64;
        }
        pool.reset_all();
    }
    actions
}

/// `rounds` batches of `ids` over every session of `rt`, reset after
/// each round; returns the transitions taken.
fn batch_pass(rt: &mut Runtime, ids: &[MessageId], rounds: u64) -> u64 {
    let mut transitions = 0;
    for _ in 0..rounds {
        for &id in ids {
            transitions += rt.deliver_all(id);
        }
        rt.reset_all();
    }
    transitions
}

/// `rounds` batches of `ids` over `pool` through `deliver` — the
/// kernels or the scalar walk — reset after each round; returns the
/// transitions taken.
fn pool_pass(
    pool: &mut Pool,
    deliver: impl Fn(&mut Pool, MessageId) -> u64,
    ids: &[MessageId],
    rounds: u64,
) -> u64 {
    let mut transitions = 0;
    for _ in 0..rounds {
        for &id in ids {
            transitions += deliver(pool, id);
        }
        pool.reset_all();
    }
    transitions
}

/// `rounds` passes of `ids` over `states`, stepped straight through
/// [`CompiledMachine::step`] — the loop a deployment would hand-roll
/// without the runtime — and back at the start state after each round;
/// returns the transitions taken.
fn raw_pass(machine: &CompiledMachine, states: &mut [u32], ids: &[MessageId], rounds: u64) -> u64 {
    let mut transitions = 0;
    for _ in 0..rounds {
        for &id in ids {
            for state in states.iter_mut() {
                if let Some((target, _)) = machine.step(*state, id) {
                    *state = target;
                    transitions += 1;
                }
            }
        }
        states.fill(machine.start());
    }
    transitions
}

/// Timed pairs per ratio gate: on a shared box one side of a five-pair
/// gate was now and then slow in all five passes (the minimization
/// gate, which reads 1.00, read 1.17 in one run of ten).
const PAIRS: usize = 11;

/// The paired measurement every ratio gate uses: one untimed pass of
/// each side, then [`PAIRS`] alternating timed passes of `a` and `b`.
/// Returns what the untimed passes returned and each side's best pass
/// in ns: scheduler drift on a shared box hits both sides equally, so
/// the best-of ratio isolates the real difference.
fn paired(mut a: impl FnMut() -> u64, mut b: impl FnMut() -> u64) -> ([u64; 2], [f64; 2]) {
    let work = [std::hint::black_box(a()), std::hint::black_box(b())];
    let mut best = [f64::INFINITY; 2];
    for _ in 0..PAIRS {
        let start = Instant::now();
        std::hint::black_box(a());
        best[0] = best[0].min(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        std::hint::black_box(b());
        best[1] = best[1].min(start.elapsed().as_nanos() as f64);
    }
    (work, best)
}

/// The median of `samples` (sorted in place).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    match samples.len() % 2 {
        0 => (samples[mid - 1] + samples[mid]) / 2.0,
        _ => samples[mid],
    }
}

/// `deliver_all` rounds per divergent repetition: short enough that the
/// pre-diverged pool is still spread over many states at the end.
const DIVERGENT_ROUNDS: usize = 16;

/// The divergent-pool rows: `sessions` sessions of `engine`, each
/// pre-diverged by a private prefix of 0–7 single deliveries (as
/// `benchmark/src/workloads/batch.rs` does), then fed a fixed
/// [`DIVERGENT_ROUNDS`]-message script through `deliver_all_scalar`
/// and through `deliver_all` in alternating passes — best of 5 each.
/// Only the batch calls are timed; re-diverging between repetitions is
/// not. Returns the `batched_kernel_divergent<suffix>` and
/// `batched_pool_divergent<suffix>` rows and the scalar / kernel ratio,
/// having asserted that both walks agree on every transition total and
/// end in the same states, registers and finished count.
fn divergent_rows(suffix: &str, engine: &Engine, sessions: usize) -> (Vec<TierResult>, f64) {
    let alphabet: Vec<_> = engine
        .messages()
        .iter()
        .map(|m| engine.message_id(m).expect("alphabet message"))
        .collect();
    let pick = |rng: &mut SimRng| alphabet[rng.below(alphabet.len() as u64) as usize];
    let mut rng = SimRng::new(u64::MAX); // no session's seed
    let script: Vec<_> = (0..DIVERGENT_ROUNDS).map(|_| pick(&mut rng)).collect();
    let reps = (SINGLE_DELIVERIES as usize / (sessions * DIVERGENT_ROUNDS)).max(1);
    let deliveries = (reps * sessions * DIVERGENT_ROUNDS) as u64;
    // One pass: `reps` × (re-diverge untimed, script timed); returns
    // (timed ns, transitions, allocations).
    let pass = |store: &mut Pool, kernel: bool| {
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
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
                transitions += if kernel {
                    store.deliver_all(message)
                } else {
                    store.deliver_all_scalar(message)
                };
            }
            ns += start.elapsed().as_nanos();
        }
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        (ns as f64, transitions, allocs)
    };
    // `(store, through the kernel?, row kind)`, the scalar oracle first.
    let mut sides = [false, true].map(|kernel| {
        let kind = if kernel { "kernel" } else { "pool" };
        (Pool::new(engine, sessions), kernel, kind)
    });
    let expected = pass(&mut sides[0].0, false).1; // warm-up, and the oracle
    for (store, kernel, _) in &mut sides[1..] {
        assert_eq!(pass(store, *kernel).1, expected);
    }
    let mut best = vec![f64::INFINITY; sides.len()];
    let mut worst_allocs = vec![0u64; sides.len()];
    for _ in 0..5 {
        for (side, (store, kernel, _)) in sides.iter_mut().enumerate().rev() {
            let (ns, transitions, allocs) = pass(store, *kernel);
            assert_eq!(
                transitions, expected,
                "divergent: kernel and scalar walks must take the same transitions"
            );
            best[side] = best[side].min(ns);
            worst_allocs[side] = worst_allocs[side].max(allocs);
        }
    }
    let oracle = &sides[0].0;
    for (store, _, _) in &sides[1..] {
        assert_eq!(store.image(), oracle.image());
        assert_eq!(store.finished_count(), oracle.finished_count());
    }
    let rows = sides
        .iter()
        .enumerate()
        .rev()
        .map(|(side, (_, _, kind))| TierResult {
            name: format!("batched_{kind}_divergent{suffix}"),
            ns_per_delivery: best[side] / deliveries as f64,
            allocs_per_delivery: worst_allocs[side] as f64 / deliveries as f64,
            assert_zero_alloc: true,
        });
    (rows.collect(), best[0] / best[1])
}

fn main() {
    let config = CommitConfig::new(4).expect("valid replication factor");
    let machine = generate(&CommitModel::new(config))
        .expect("generates")
        .machine;
    let compiled = CompiledMachine::compile_ir(&FlatIr::from_machine(&machine))
        .expect("a generated machine is unguarded");
    let efsm = commit_efsm();
    let efsm_params = commit_efsm_params(&config);
    // The owned pipeline engine every facade row serves from.
    let facade_engine =
        Engine::compile(Spec::machine(machine.clone())).expect("commit machine compiles");
    let ids: Vec<_> = TRACE
        .iter()
        .map(|m| machine.message_id(m).expect("valid message"))
        .collect();
    // The single-session rows all drive one served session of the
    // engine of the tier they name.
    let interpreted =
        Engine::interpret(Spec::machine(machine.clone())).expect("a flat machine binds nothing");

    let rounds = SINGLE_DELIVERIES / TRACE.len() as u64;
    let mut results = Vec::new();
    let mut walked = served(&interpreted);

    // Tier 1: interpreted, name-based borrowing path. Message names are
    // resolved through the IR's interned name→id map (built once at
    // lowering time) and the action slice is borrowed, so even the
    // string-keyed path is allocation-free.
    results.push(measure(
        "interpreted_name",
        rounds * TRACE.len() as u64,
        true,
        || {
            let (rt, session) = &mut walked;
            let mut engine = rt.session(*session);
            let mut actions = 0;
            for _ in 0..rounds {
                for m in TRACE {
                    actions += engine.deliver_ref(m).expect("valid message").len() as u64;
                }
                engine.reset();
            }
            actions
        },
    ));

    // Tier 2: interpreted, id-based borrowing path (transition-list
    // scan, no name resolution).
    results.push(measure(
        "interpreted_id",
        rounds * TRACE.len() as u64,
        true,
        || trace_pass(&mut walked, &ids, rounds),
    ));

    // Tier 3: compiled dense-table dispatch.
    let mut single = served(&facade_engine);
    results.push(measure(
        "compiled",
        rounds * TRACE.len() as u64,
        true,
        || trace_pass(&mut single, &ids, rounds),
    ));

    // Tier 3b: a flattened hierarchical statechart on the same compiled
    // dispatch. The session-lifecycle machine (composites, entry/exit
    // actions, shallow history) lowers to an ordinary dense table, so
    // flattened dispatch must stay within ~2x of the plain compiled
    // tier and keep the zero-allocation guarantee.
    let lifecycle_engine = Engine::compile(Spec::hierarchical(session_lifecycle()))
        .expect("flattened lifecycle compiles");
    const HSM_TRACE: [&str; 9] = [
        "connect", "update", "vote", "commit", "ping", "update", "abort", "suspend", "resume",
    ];
    let hsm_ids: Vec<_> = HSM_TRACE
        .iter()
        .map(|m| lifecycle_engine.message_id(m).expect("valid message"))
        .collect();
    let mut lifecycle_session = served(&lifecycle_engine);
    results.push(measure(
        "hsm_flattened",
        rounds * HSM_TRACE.len() as u64,
        true,
        || trace_pass(&mut lifecycle_session, &hsm_ids, rounds),
    ));

    // Tier 3c: a *guarded* statechart — the retry-budget session
    // lifecycle — flattened through the unified IR and served through
    // the runtime facade at the 64k-session acceptance scale. Bound to
    // its budget the flat machine has 39 reachable configurations, so
    // `Engine::compile` unfolds it onto the dense table: the row must
    // keep the zero-allocation guarantee — hard-asserted like every
    // compiled row.
    let guarded_engine =
        Engine::compile(Spec::hsm_with_params(session_lifecycle_guarded(), vec![3]))
            .expect("guarded lifecycle compiles");
    const HSM_GUARDED_TRACE: [&str; 9] = [
        "connect", "update", "abort", "update", "vote", "commit", "update", "abort", "suspend",
    ];
    let guarded_ids: Vec<_> = HSM_GUARDED_TRACE
        .iter()
        .map(|m| guarded_engine.message_id(m).expect("valid message"))
        .collect();
    let guarded_rounds = 4u64;
    let guarded_deliveries =
        guarded_rounds * SERVING_SESSIONS as u64 * HSM_GUARDED_TRACE.len() as u64;
    let guarded_flat_states = guarded_engine.state_count();
    {
        let mut rt = guarded_engine.runtime_with(SERVING_SESSIONS);
        results.push(measure(
            "hsm_guarded_flattened",
            guarded_deliveries,
            true,
            || batch_pass(&mut rt, &guarded_ids, guarded_rounds),
        ));
    }

    // Tier 3d: provably-safe state minimization. The redundant-ring
    // statechart flattens to RING_K + 2 states whose work leaves are
    // all behaviourally equivalent; `stategen_analysis::minimize`
    // collapses them by partition refinement, and both the original
    // and the quotient compile onto the dense tier and drive the same
    // trace. The hard gates: the quotient must actually be smaller,
    // must stay allocation-free, and (measured as paired alternating
    // passes below, so drift on this shared box hits both sides
    // equally) must serve deliveries no slower than the redundant
    // original.
    const RING_K: usize = 8;
    let ring_ir = redundant_ring(RING_K).flatten_ir();
    let (ring_min_ir, ring_stats) = minimize(&ring_ir);
    assert!(
        ring_stats.states_after < ring_stats.states_before,
        "minimization must shrink the ring: {} -> {}",
        ring_stats.states_before,
        ring_stats.states_after
    );
    let [ring_full, ring_small] = [ring_ir, ring_min_ir].map(|ir| {
        let artifact = Artifact::new(ir, vec![]).expect("an unguarded IR binds nothing");
        Engine::from_artifact(&artifact).expect("unguarded IR compiles")
    });
    const RING_TRACE: [&str; 9] = [
        "go", "step", "step", "step", "step", "step", "step", "step", "stop",
    ];
    let ring_rounds = SINGLE_DELIVERIES / RING_TRACE.len() as u64;
    let ring_deliveries = ring_rounds * RING_TRACE.len() as u64;
    let full_ids: Vec<_> = RING_TRACE
        .iter()
        .map(|m| ring_full.message_id(m).expect("valid message"))
        .collect();
    let small_ids: Vec<_> = RING_TRACE
        .iter()
        .map(|m| ring_small.message_id(m).expect("valid message"))
        .collect();
    // One bare store session each (the runtime's handle checks and
    // counters would only add the same cost to both sides).
    let (mut full, mut small) = (Pool::new(&ring_full, 1), Pool::new(&ring_small, 1));
    results.push(measure("hsm_unminimized", ring_deliveries, true, || {
        session_pass(&mut full, &full_ids, ring_rounds)
    }));
    results.push(measure("hsm_minimized", ring_deliveries, true, || {
        session_pass(&mut small, &small_ids, ring_rounds)
    }));
    // The minimization gate, as paired alternating passes (the reported
    // rows above are measured minutes apart in a long process; the gate
    // re-runs both loops back to back so scheduler drift cancels).
    let minimized_ratio = {
        let (actions, [full_best, small_best]) = paired(
            || session_pass(&mut full, &full_ids, ring_rounds),
            || session_pass(&mut small, &small_ids, ring_rounds),
        );
        // The quotient is observation-equivalent, so the two loops do
        // identical visible work — checked here so the timing is
        // guaranteed to compare like with like.
        assert_eq!(
            actions[0], actions[1],
            "the ring quotient must emit the same actions as the original"
        );
        small_best / full_best
    };

    // Tier 4: batched sessions over one bare struct-of-arrays store —
    // two rows for the same work. `batched_pool` is the *scalar*
    // reference walk (`deliver_all_scalar`: per-session stepping in
    // slot order, kept as the semantic oracle and the observer
    // visit-order path); `batched_kernel` is `deliver_all`, which reads
    // every session's next state from the message's table column —
    // here, in lockstep, one cell read and a constant fill. The paired
    // alternating gate below hard-asserts the kernel's ≥ 1.25× win at
    // 0 allocs/delivery.
    let pool_rounds = (SINGLE_DELIVERIES / (POOL_SESSIONS as u64 * TRACE.len() as u64)).max(1);
    let pool_deliveries = pool_rounds * POOL_SESSIONS as u64 * TRACE.len() as u64;
    let mut pool = Pool::new(&facade_engine, POOL_SESSIONS);
    results.push(measure("batched_pool", pool_deliveries, true, || {
        pool_pass(&mut pool, Pool::deliver_all_scalar, &ids, pool_rounds)
    }));
    results.push(measure("batched_kernel", pool_deliveries, true, || {
        pool_pass(&mut pool, Pool::deliver_all, &ids, pool_rounds)
    }));
    // The dense-kernel gate, as paired alternating passes (same
    // discipline as the minimization gate above: scheduler drift on
    // this shared box hits both sides equally, so the best-of ratio
    // isolates the real effect of the kernel).
    let batched_kernel_ratio = {
        let mut scalar = Pool::new(&facade_engine, POOL_SESSIONS);
        let (transitions, [scalar_best, kernel_best]) = paired(
            || pool_pass(&mut scalar, Pool::deliver_all_scalar, &ids, pool_rounds),
            || pool_pass(&mut pool, Pool::deliver_all, &ids, pool_rounds),
        );
        assert_eq!(
            transitions[0], transitions[1],
            "the dense kernel must transition exactly like the scalar walk"
        );
        scalar_best / kernel_best
    };

    // Tier 5: the interpreted tier on the EFSM — the machine generic
    // over r, walking `Guard`/`Update` enum trees per message, driven
    // through the borrow-returning `deliver_ref` path (the transition's
    // action slice is lent out, never copied), so even the slow
    // interpreted baseline is allocation-free and joins the hard
    // zero-alloc gate.
    let efsm_rounds = rounds / 4; // the enum-tree walk is slow; keep runs short
    let efsm_engine = Engine::interpret(Spec::efsm(efsm.clone(), efsm_params.clone()))
        .expect("commit_efsm_params binds the EFSM's three parameters");
    let (mut efsm_rt, efsm_session) = served(&efsm_engine);
    results.push(measure(
        "efsm_interpreted",
        efsm_rounds * TRACE.len() as u64,
        true,
        || {
            let mut efsm_interp = efsm_rt.session(efsm_session);
            let mut actions = 0;
            for _ in 0..efsm_rounds {
                for m in TRACE {
                    actions += efsm_interp.deliver_ref(m).expect("valid message").len() as u64;
                }
                efsm_interp.reset();
            }
            actions
        },
    ));

    // Tier 7 over budget: a bound commit EFSM unfolds onto the dense
    // table for every r ≤ 54; past the budget it runs on the
    // interpreter. This row reports what that costs: the commit EFSM at
    // r = 64, which `Engine::compile` reports as over budget, on a
    // 4 096-session lockstep pool, `deliver_all` as the median of ten
    // passes — not best-of — at zero allocations per delivery.
    let over_budget_row = {
        let params = commit_efsm_params(&CommitConfig::new(64).expect("valid replication factor"));
        let engine = Engine::compile(Spec::efsm(efsm.clone(), params)).expect("compiles");
        let lowering = format!("{engine:?}");
        assert!(
            lowering.contains("interpreted: over budget"),
            "the r = 64 commit EFSM must fall back to the interpreter: {lowering}"
        );
        let trace: Vec<_> = TRACE
            .iter()
            .map(|m| engine.message_id(m).expect("valid message"))
            .collect();
        let mut pool = Pool::new(&engine, POOL_SESSIONS);
        let mut pass = || {
            let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
            let start = Instant::now();
            let transitions = pool_pass(&mut pool, Pool::deliver_all, &trace, pool_rounds);
            let ns = start.elapsed().as_nanos() as f64;
            (
                ns,
                transitions,
                ALLOCATIONS.load(Ordering::Relaxed) - allocs_before,
            )
        };
        let (_, expected, _) = pass();
        let (mut ns, mut allocs) = (Vec::new(), 0);
        for _ in 0..10 {
            let (pass_ns, transitions, pass_allocs) = pass();
            assert_eq!(
                transitions, expected,
                "every pass takes the same transitions"
            );
            ns.push(pass_ns);
            allocs = allocs.max(pass_allocs);
        }
        TierResult {
            name: "efsm_kernel_over_budget".to_string(),
            ns_per_delivery: median(&mut ns) / pool_deliveries as f64,
            allocs_per_delivery: allocs as f64 / pool_deliveries as f64,
            assert_zero_alloc: true,
        }
    };
    results.push(over_budget_row);

    // Tier 7a: *divergent* pools — sessions spread over tens of states,
    // the serving shape the lockstep rows above never leave their
    // `fill` fast path to reach. Commit r = 7 (the
    // `benchmark/` batch workloads' machine) at 65 536 sessions is the
    // gated shape; 4 096 sessions and the wide r = 25 machine ride along
    // as reported rows. The one-pass column gather must beat the scalar
    // walk by ≥ 1.5×.
    let mut divergent_ratios: Vec<(String, f64)> = Vec::new();
    for (r, sessions, suffix) in [
        (7, SERVING_SESSIONS, ""),
        (7, POOL_SESSIONS, "_4k"),
        (25, SERVING_SESSIONS, "_r25"),
    ] {
        let config = CommitConfig::new(r).expect("valid replication factor");
        let wide = generate(&CommitModel::new(config)).expect("generates");
        let dense = Engine::compile(Spec::machine(wide.machine)).expect("compiles");
        let (rows, ratio) = divergent_rows(suffix, &dense, sessions);
        divergent_ratios.push((format!("{}_vs_scalar", rows[0].name), ratio));
        results.extend(rows);
    }
    // Tier 7b: the deployment path. `artifact_cold_load` measures the
    // full ship-and-boot cycle — encode the bound commit EFSM to its
    // versioned artifact image (`save`), run the image back through the
    // paranoid loader (section checksums, structural validation,
    // content fingerprint, canonical re-encoding), build the engine
    // from the loaded bytes alone, and deliver a first message — the
    // work between an image arriving on a serving host and its first
    // served event, reported as ns per cold boot. `artifact_booted_pool`
    // then serves the canonical trace from an artifact-booted engine
    // and hard-asserts the deployment guarantee: once loaded, the
    // steady state is exactly the compiled tier — zero allocations per
    // delivery.
    let artifact = Artifact::from_efsm(&efsm, efsm_params.clone()).expect("binding arity");
    let cold_boots = 512u64;
    results.push(measure("artifact_cold_load", cold_boots, false, || {
        let mut actions = 0;
        for _ in 0..cold_boots {
            let image = artifact.save();
            let loaded = Artifact::load(&image).expect("canonical image");
            let engine = Engine::from_artifact(&loaded).expect("artifact boots");
            let mut rt = engine.runtime();
            let session = rt.spawn();
            let first = engine.message_id(TRACE[0]).expect("valid message");
            actions += rt.deliver(session, first).len() as u64;
        }
        actions
    }));
    {
        let image = artifact.save();
        let booted = Engine::from_artifact(&Artifact::load(&image).expect("canonical image"))
            .expect("artifact boots");
        let efsm_ids: Vec<_> = TRACE
            .iter()
            .map(|m| booted.message_id(m).expect("valid message"))
            .collect();
        let mut booted_pool = booted.runtime_with(POOL_SESSIONS);
        results.push(measure(
            "artifact_booted_pool",
            pool_deliveries,
            true,
            || batch_pass(&mut booted_pool, &efsm_ids, pool_rounds),
        ));
    }

    // The serving-scale rows below all run 64k sessions through the
    // canonical trace, four rounds a pass.
    let serving_rounds = 4u64;
    let serving_deliveries = serving_rounds * SERVING_SESSIONS as u64 * TRACE.len() as u64;

    // Tier 8: the facade-overhead gate. `compiled_raw_64k` is plain compiled
    // dispatch at the serving scale — 64k dense `u32` states stepped
    // straight through `CompiledMachine::step`, the loop any deployment
    // would hand-roll without the runtime. `runtime_facade` is the same
    // work through `Runtime::deliver_all` (slot skip-check, finished
    // count and step accounting included). The facade must cost ≤ 10%
    // over raw stepping at 0 allocs/delivery — hard-asserted below.
    let mut raw_states = vec![compiled.start(); SERVING_SESSIONS];
    results.push(measure(
        "compiled_raw_64k",
        serving_deliveries,
        true,
        || raw_pass(&compiled, &mut raw_states, &ids, serving_rounds),
    ));
    {
        let mut facade = facade_engine.runtime_with(SERVING_SESSIONS);
        results.push(measure("runtime_facade", serving_deliveries, true, || {
            batch_pass(&mut facade, &ids, serving_rounds)
        }));
    }

    // Tier 9: the observability row. The same 64k-session batch work
    // with the full telemetry stack live: per-shard counters (always
    // compiled in), the batch-latency histogram, and a 256-event
    // flight-recorder ring receiving every transition. 256 events is
    // the deployment-shaped size: an 8 KiB ring rides in L1 next to
    // the streaming state array, where a 1024-event (32 KiB) ring
    // would evict it and bill pure cache misses to the recorder. The
    // ring and histogram are sized once at attach, so steady state
    // must stay allocation-free — hard-asserted like every
    // compiled row; the paired gate below bounds the
    // recording overhead.
    {
        let mut observed = facade_engine.runtime_with(SERVING_SESSIONS);
        observed.attach_recorder(256);
        results.push(measure(
            "runtime_observed",
            serving_deliveries,
            true,
            || batch_pass(&mut observed, &ids, serving_rounds),
        ));
    }

    // Tier 10: build-time generated source (match over enum states,
    // static send lists).
    results.push(measure(
        "generated",
        rounds * TRACE.len() as u64,
        false,
        || {
            let mut engine = GeneratedCommitR4::new();
            let mut actions = 0;
            for _ in 0..rounds {
                for m in TRACE {
                    if let Some(sends) = engine.deliver_raw(m) {
                        actions += sends.len() as u64;
                    }
                }
                engine.reset();
            }
            actions
        },
    ));

    let baseline = results[0].ns_per_delivery;
    println!(
        "engine tiers — {} ({} states) / {} ({} states), canonical trace",
        machine.name(),
        machine.state_count(),
        efsm.name(),
        efsm.state_count()
    );
    println!(
        "{:<30} {:>14} {:>10} {:>18}",
        "tier", "ns/delivery", "speedup", "allocs/delivery"
    );
    for r in &results {
        println!(
            "{:<30} {:>14.2} {:>9.1}x {:>18.4}",
            r.name,
            r.ns_per_delivery,
            baseline / r.ns_per_delivery,
            r.allocs_per_delivery
        );
    }

    for r in &results {
        if r.assert_zero_alloc {
            assert_eq!(
                r.allocs_per_delivery, 0.0,
                "{} tier must not allocate per delivery",
                r.name
            );
        }
    }
    let by_name = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .expect("measured")
            .ns_per_delivery
    };
    println!(
        "\ncompiled vs interpreted (name path): {:.1}x",
        baseline / by_name("compiled")
    );
    // Flattened-statechart dispatch runs the identical dense-table hot
    // path, so it must stay in the same ballpark as the plain compiled
    // machine. This compares two wall-clock measurements, so it warns
    // rather than hard-failing the gate (a loaded shared container can
    // deschedule one row arbitrarily).
    let hsm_ratio = by_name("hsm_flattened") / by_name("compiled");
    println!("hsm_flattened vs compiled:           {hsm_ratio:.2}x");
    if hsm_ratio > 2.0 {
        eprintln!(
            "warning: flattened-statechart dispatch is {hsm_ratio:.2}x the plain compiled \
             tier (target: within ~2x) — rerun on an idle machine before treating this as \
             a regression"
        );
    }
    // The state-minimization gate: a provably-equivalent quotient must
    // never make dispatch slower — both machines walk the same dense
    // tables, the quotient's are just smaller. Hard-failed on the
    // paired best-of ratio with a small noise allowance (the loops are
    // identical code on tables that both fit in L1, so anything beyond
    // a few percent is a real regression, not drift).
    println!(
        "hsm_minimized vs unminimized:        {minimized_ratio:.3}x ({} -> {} states)",
        ring_stats.states_before, ring_stats.states_after
    );
    assert!(
        minimized_ratio <= 1.05,
        "minimized ring dispatch is {minimized_ratio:.3}x the unminimized original \
         (gate: <= 1.05x, paired passes; the quotient must not cost anything)"
    );
    // The lockstep batch-kernel gate: branchless stepping must beat the
    // scalar per-session walk on a single core by ≥ 1.25× on the dense
    // tier. Hard-failed on the paired best-of ratio computed above: the
    // kernel's only reason to exist is this win, and the paired
    // alternating passes make the measurement drift-proof enough to
    // gate on.
    println!("batched_kernel vs scalar (paired):   {batched_kernel_ratio:.3}x");
    assert!(
        batched_kernel_ratio >= 1.25,
        "dense batch kernel is only {batched_kernel_ratio:.3}x the scalar walk \
         (gate: >= 1.25x, paired passes at {POOL_SESSIONS} sessions)"
    );
    // The divergent gate (r = 7, 65 536 sessions): the dense column
    // gather against the scalar walk.
    for (name, ratio) in &divergent_ratios {
        println!("{name}: {ratio:.3}x");
    }
    let gated = |(name, _): &&(String, f64)| name == "batched_kernel_divergent_vs_scalar";
    let dense_divergent = divergent_ratios.iter().find(gated).expect("measured").1;
    assert!(
        dense_divergent >= 1.5,
        "dense batch kernel is only {dense_divergent:.3}x the scalar walk on a divergent pool \
         (gate: >= 1.5x, paired passes at {SERVING_SESSIONS} sessions)"
    );
    // The facade-overhead gate: serving 64k sessions through the
    // `Spec → Engine → Runtime` facade must stay within 10% of raw
    // dense-table stepping. Wall-clock ratios between rows measured
    // minutes apart flake on this shared box (row timings drift by tens
    // of percent between runs), so the gate re-measures the two loops
    // as *paired alternating passes* — drift hits both sides equally —
    // and hard-fails on the best-of ratio: if the facade ever grows a
    // hidden per-delivery cost, this is where it surfaces.
    let facade_overhead = {
        let mut raw_states = vec![compiled.start(); SERVING_SESSIONS];
        let mut facade = facade_engine.runtime_with(SERVING_SESSIONS);
        let (_, [raw_best, facade_best]) = paired(
            || raw_pass(&compiled, &mut raw_states, &ids, serving_rounds),
            || batch_pass(&mut facade, &ids, serving_rounds),
        );
        facade_best / raw_best
    };
    println!("runtime_facade vs raw (paired):      {facade_overhead:.3}x");
    assert!(
        facade_overhead <= 1.10,
        "runtime facade dispatch is {facade_overhead:.3}x raw compiled dispatch \
         (gate: <= 1.10x, paired passes at 64k sessions)"
    );
    // The observability gate: with a flight recorder attached — every
    // transition written into the per-shard ring, every batch timed
    // into the latency histogram — the same 64k-session work must stay
    // within 25% of the unobserved facade, at zero steady-state
    // allocations (asserted on the `runtime_observed` row above). Same
    // paired-alternating-pass discipline as the facade gate: drift on
    // this shared box hits both sides equally, and the best-of ratio
    // isolates the real per-transition recording cost.
    let observed_overhead = {
        let mut plain = facade_engine.runtime_with(SERVING_SESSIONS);
        let mut observed = facade_engine.runtime_with(SERVING_SESSIONS);
        observed.attach_recorder(256);
        let (_, [plain_best, observed_best]) = paired(
            || batch_pass(&mut plain, &ids, serving_rounds),
            || batch_pass(&mut observed, &ids, serving_rounds),
        );
        observed_best / plain_best
    };
    println!("runtime_observed vs facade (paired): {observed_overhead:.3}x");
    assert!(
        observed_overhead <= 1.25,
        "observed runtime dispatch is {observed_overhead:.3}x the unobserved facade \
         (gate: <= 1.25x, paired passes at 64k sessions with a live flight recorder)"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"machine\": \"{}\",", machine.name());
    let _ = writeln!(json, "  \"states\": {},", machine.state_count());
    let _ = writeln!(json, "  \"efsm_states\": {},", efsm.state_count());
    let _ = writeln!(json, "  \"trace_len\": {},", TRACE.len());
    let _ = writeln!(json, "  \"pool_sessions\": {POOL_SESSIONS},");
    let _ = writeln!(json, "  \"serving_sessions\": {SERVING_SESSIONS},");
    let _ = writeln!(
        json,
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let _ = writeln!(json, "  \"hsm_flattened_vs_compiled\": {hsm_ratio:.3},");
    let _ = writeln!(
        json,
        "  \"batched_kernel_vs_scalar\": {batched_kernel_ratio:.3},"
    );
    for (name, ratio) in &divergent_ratios {
        let _ = writeln!(json, "  \"{name}\": {ratio:.3},");
    }
    let _ = writeln!(
        json,
        "  \"hsm_guarded_flat_states\": {guarded_flat_states},"
    );
    let _ = writeln!(
        json,
        "  \"runtime_facade_vs_raw_compiled\": {facade_overhead:.3},"
    );
    let _ = writeln!(
        json,
        "  \"runtime_observed_vs_facade\": {observed_overhead:.3},"
    );
    let _ = writeln!(
        json,
        "  \"hsm_flat_states\": {},",
        lifecycle_engine.state_count()
    );
    let _ = writeln!(
        json,
        "  \"hsm_minimized_states_before\": {},",
        ring_stats.states_before
    );
    let _ = writeln!(
        json,
        "  \"hsm_minimized_states_after\": {},",
        ring_stats.states_after
    );
    let _ = writeln!(
        json,
        "  \"hsm_minimized_vs_unminimized\": {minimized_ratio:.3},"
    );
    json.push_str("  \"tiers\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_delivery\": {:.3}, \"speedup_vs_interpreted_name\": {:.3}, \"allocs_per_delivery\": {:.6}}}{}",
            r.name,
            r.ns_per_delivery,
            baseline / r.ns_per_delivery,
            r.allocs_per_delivery,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine_tiers.json");
    std::fs::write(&path, &json).expect("write BENCH_engine_tiers.json");
    println!("wrote {}", path.display());
}
