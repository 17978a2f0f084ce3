//! `build_deploy`: the generative half of the paper. Every machine of
//! the model corpus goes model → serving engine: `generate` →
//! `Spec::analyzed` → `minimize` → `Engine::compile` → `Artifact::save`
//! → `Artifact::load` → `Engine::from_artifact` → spawn and first
//! delivery. Generator, analysis and compilers do all the work and the
//! serving runtime almost none, so a pass that shrinks the IR shows here
//! and nowhere else.
//!
//! The corpus is fixed and the seed draws the order it is built in; the
//! commit rows are the paper's Table 1 and their final state counts are
//! checked against it.

use std::time::Instant;

use stategen_analysis::{analyze_bound, minimize, AnalysisConfig};
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen_core::{generate, AbstractModel, Efsm, FlatIr, HierarchicalMachine};
use stategen_models::{
    redundant_ring, session_lifecycle, session_lifecycle_guarded, BroadcastModel, RoundsModel,
    TerminationModel,
};
use stategen_runtime::{Artifact, Engine, Spec};

use super::{measure, repeated_setup, Outcome, RunArgs, BASELINE_REPS, MIN_REPS};
use crate::alloc::{count_allocs, peak_rss_mib};
use crate::gen::{Fnv, Rng};
use crate::stats::median;
use crate::trace::Tracer;

/// Where a corpus machine comes from.
enum Source {
    /// An abstract model run through the generator; `table1` is the
    /// final state count the paper's Table 1 gives for it.
    Model {
        model: Box<dyn AbstractModel>,
        table1: Option<usize>,
    },
    /// A parameter-generic EFSM with its binding.
    Efsm(Efsm, Vec<i64>),
    /// A statechart with its binding (empty when unguarded).
    Chart(HierarchicalMachine, Vec<i64>),
}

/// The corpus in the order `seed` draws: the machines are fixed, but the
/// order they are built in decides what the allocator and the caches
/// hold when each one starts.
fn corpus(seed: u64) -> Vec<Source> {
    let commit = |r: u32, states: usize| Source::Model {
        model: Box::new(CommitModel::new(
            CommitConfig::new(r).expect("valid replication factor"),
        )),
        table1: Some(states),
    };
    let model = |m: Box<dyn AbstractModel>| Source::Model {
        model: m,
        table1: None,
    };
    let mut corpus = vec![
        commit(4, 33),
        commit(7, 85),
        commit(13, 261),
        commit(25, 901),
        Source::Efsm(
            commit_efsm(),
            commit_efsm_params(&CommitConfig::new(7).expect("valid replication factor")),
        ),
        model(Box::new(BroadcastModel::new(7))),
        model(Box::new(RoundsModel::new(5, 3))),
        model(Box::new(TerminationModel::new(3))),
        Source::Chart(session_lifecycle(), Vec::new()),
        Source::Chart(session_lifecycle_guarded(), vec![3]),
        Source::Chart(redundant_ring(8), Vec::new()),
    ];
    let mut rng = Rng::new(seed);
    for i in (1..corpus.len()).rev() {
        corpus.swap(i, rng.below(i as u64 + 1) as usize);
    }
    corpus
}

/// Exact outputs of building one machine; equal on every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Built {
    states: usize,
    minimized_states: usize,
    bytes: usize,
    fingerprint: u64,
    first_actions: usize,
}

/// Builds one machine end to end. Returns its exact outputs and the
/// cold-load time (bytes → first delivery) in nanoseconds.
fn build_one(
    index: usize,
    source: &Source,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Built, u64) {
    let op = index as u64;
    tracer.open("machine", "benchmark", op);
    let (spec, ir, params) = match source {
        Source::Model { model, table1 } => {
            let generated = tracer
                .span("generate", "core.generator", op, || {
                    generate(model.as_ref())
                })
                .expect("corpus model generates");
            if let Some(expected) = table1 {
                let got = generated.report.final_states;
                out.check(got == *expected, || {
                    format!(
                        "{}: {got} final states, Table 1 says {expected}",
                        generated.report.machine_name
                    )
                });
            }
            let ir = FlatIr::from_machine(&generated.machine);
            (Spec::machine(generated.machine), ir, Vec::new())
        }
        Source::Efsm(efsm, params) => (
            Spec::efsm(efsm.clone(), params.clone()),
            FlatIr::from_efsm(efsm),
            params.clone(),
        ),
        Source::Chart(chart, params) => (
            Spec::hsm_with_params(chart.clone(), params.clone()),
            chart.flatten_ir(),
            params.clone(),
        ),
    };
    let spec = tracer
        .span("analyzed", "analysis", op, || spec.analyzed())
        .expect("corpus machine passes the deploy gate");
    let (minimized, _) = tracer.span("minimize", "analysis", op, || minimize(&ir));
    let engine = tracer
        .span("compile", "runtime.engine", op, || Engine::compile(spec))
        .expect("corpus machine compiles");
    let states = ir.state_count();
    let bytes = tracer.span("artifact.save", "core.artifact", op, || {
        Artifact::new(ir, params)
            .expect("binding matches the IR")
            .save()
    });

    // The serving host's side: bytes alone → an engine → a first reply.
    let t0 = Instant::now();
    let loaded = Artifact::load(&bytes).expect("freshly saved artifact loads");
    let t1 = Instant::now();
    let booted = Engine::from_artifact(&loaded).expect("artifact boots");
    let t2 = Instant::now();
    let mut runtime = booted.runtime();
    let session = runtime.spawn();
    let message = runtime
        .message_id(&booted.messages()[0])
        .expect("first alphabet message resolves");
    let first_actions = runtime.deliver(session, message).len();
    let t3 = Instant::now();
    tracer.leaf("artifact.load", "core.artifact", op, t0, t1);
    tracer.leaf("from_artifact", "runtime.engine", op, t1, t2);
    tracer.leaf("first_delivery", "runtime", op, t2, t3);
    tracer.close();

    out.check(
        engine.fingerprint() == booted.fingerprint()
            && loaded.fingerprint() == booted.fingerprint(),
        || {
            format!(
                "{}: compiled and artifact-booted engines differ in fingerprint",
                engine.name()
            )
        },
    );
    out.check(loaded.save() == bytes, || {
        format!("{}: save(load(bytes)) != bytes", engine.name())
    });
    let built = Built {
        states,
        minimized_states: minimized.state_count(),
        bytes: bytes.len(),
        fingerprint: engine.fingerprint(),
        first_actions,
    };
    (built, (t3 - t0).as_nanos() as u64)
}

/// One pass over the corpus; cold-load times are appended to `loads`.
fn pass(
    corpus: &[Source],
    tracer: &mut Tracer,
    out: &mut Outcome,
    loads: &mut Vec<u64>,
) -> Vec<Built> {
    corpus
        .iter()
        .enumerate()
        .map(|(i, source)| {
            let (built, load_ns) = build_one(i, source, tracer, out);
            loads.push(load_ns);
            built
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let mut loads = Vec::new();
    // Set-up builds the model objects and takes one pass, which faults
    // in every code path the measured passes use.
    let ((corpus, first), setup_s) = repeated_setup(|| {
        let corpus = corpus(args.seed);
        let first = pass(&corpus, &mut off, &mut out, &mut loads);
        (corpus, first)
    });
    out.set("setup_s", setup_s);
    let machines = corpus.len() as u64;

    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut load_sums = Vec::new();
    let mut allocs = 0u64;
    let baseline = if args.trace {
        BASELINE_REPS
    } else {
        usize::MAX
    };
    let reps = measure(args.seconds, MIN_REPS, |k| {
        loads.clear();
        let traced = k >= baseline;
        let start = Instant::now();
        let t = if traced { &mut *tracer } else { &mut off };
        let (built, counted) = count_allocs(args.trace && !traced, || {
            t.open("pass", "benchmark", k as u64);
            let built = pass(&corpus, t, &mut out, &mut loads);
            t.close();
            built
        });
        let wall = start.elapsed().as_secs_f64();
        allocs += counted;
        out.check(built == first, || {
            format!("build_deploy: pass {k} built different machines")
        });
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            // The whole corpus, so the large machines' loads count in
            // proportion: the median machine is a mid-sized one and
            // would hide a regression loading commit r = 25.
            load_sums.push(loads.iter().sum::<u64>() as f64 / 1e3);
        }
        wall
    });
    let peak_rss_mb = peak_rss_mib();
    out.ops(machines * reps as u64);
    let mut h = Fnv::default();
    for b in &first {
        for w in [b.states, b.minimized_states, b.bytes, b.first_actions] {
            h.word(w as u64);
        }
        h.word(b.fingerprint);
    }
    out.checksum = h.0;

    if !args.trace {
        let rates: Vec<f64> = walls.iter().map(|w| machines as f64 / w).collect();
        out.set_over_reps("ops_per_s", "machines built and deployed/s", &rates);
        out.set_over_reps(
            "call_us_p50",
            "us per cold load of the corpus (bytes -> first delivery, summed over its machines)",
            &load_sums,
        );
        out.set("peak_rss_mb", peak_rss_mb);
    }
    let pass_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.notes.push(format!(
        "corpus pass ({} machines, model -> serving engine): median {:.3} ms, of which cold loads {:.1} us (medians over passes)",
        corpus.len(),
        median(&pass_ms),
        median(&load_sums),
    ));

    if args.trace {
        layer_metrics(&corpus, &first, tracer, traced_walls.len(), &mut out);
        out.set(
            "alloc.allocs_per_kop",
            allocs as f64 * 1e3 / (machines * walls.len() as u64) as f64,
        );
        out.set(
            "trace.overhead_ratio",
            median(&traced_walls) / median(&walls),
        );
    }
    out
}

/// Per-layer metrics: stage times from the traced passes' spans (totals
/// per corpus pass in ms, per machine in µs), sizes and counts from one
/// extra, untimed look at each machine.
fn layer_metrics(
    corpus: &[Source],
    first: &[Built],
    tracer: &Tracer,
    traced_reps: usize,
    out: &mut Outcome,
) {
    let agg = tracer.aggregate();
    let passes = traced_reps.max(1) as f64;
    let per_pass_ms = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / 1e6 / passes)
    };
    let per_machine_us = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / 1e3 / a.count.max(1) as f64)
    };
    out.set("core.generator.generate_ms", per_pass_ms("generate"));
    out.set("analysis.analyze_ms", per_pass_ms("analyzed"));
    out.set("analysis.minimize_ms", per_pass_ms("minimize"));
    out.set("runtime.engine.compile_ms", per_pass_ms("compile"));
    out.set("core.artifact.save_us", per_machine_us("artifact.save"));
    out.set("core.artifact.load_us", per_machine_us("artifact.load"));
    out.set(
        "runtime.engine.from_artifact_us",
        per_machine_us("from_artifact"),
    );
    out.set(
        "runtime.first_delivery_us",
        per_machine_us("first_delivery"),
    );

    let mut generated_states = 0;
    let mut diagnostics = 0;
    let mut load_allocs = 0;
    for source in corpus {
        let (ir, params) = match source {
            Source::Model { model, .. } => {
                let g = generate(model.as_ref()).expect("corpus model generates");
                generated_states += g.report.final_states;
                (FlatIr::from_machine(&g.machine), Vec::new())
            }
            Source::Efsm(efsm, params) => (FlatIr::from_efsm(efsm), params.clone()),
            Source::Chart(chart, params) => (chart.flatten_ir(), params.clone()),
        };
        diagnostics += analyze_bound(&ir, &params, &AnalysisConfig::new())
            .diagnostics
            .len();
        let bytes = Artifact::new(ir, params)
            .expect("binding matches the IR")
            .save();
        load_allocs += count_allocs(true, || Artifact::load(&bytes).is_ok()).1;
    }
    out.set("core.generator.states_out", generated_states as f64);
    out.set("analysis.diagnostics", diagnostics as f64);
    out.set(
        "analysis.minimize_states_removed",
        first
            .iter()
            .map(|b| (b.states - b.minimized_states) as f64)
            .sum(),
    );
    out.set(
        "core.artifact.bytes",
        first.iter().map(|b| b.bytes as f64).sum(),
    );
    out.set("core.artifact.load_allocs", load_allocs as f64);
}
