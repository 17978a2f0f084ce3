//! Guarded statecharts end-to-end: author a hierarchical machine with
//! variables, guards and updates (a retry-budget session lifecycle),
//! debug it on the direct interpreter, then hand it to the runtime
//! pipeline — `Spec::hsm_with_params` flattens it through the unified
//! lowering IR and binds the budget, which leaves the guarded flat
//! machine a finite configuration space: `Engine::compile` unfolds it
//! onto the dense table, so a statechart with variables serves with the
//! same `Runtime` vocabulary (and zero allocation per delivery) as any
//! flat machine, its registers still visible through `vars`.
//!
//! ```text
//! cargo run --release --example hsm_guarded
//! ```

use stategen::fsm::ProtocolEngine;
use stategen::models::session_lifecycle_guarded;
use stategen::render::render_hsm_dot;
use stategen::runtime::{Engine, Spec, Tier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The statechart: the session lifecycle plus a retry budget — one
    // parameter (`max_retries`), one variable (`retries`), guarded
    // transitions declared on the `Commit` composite and inherited by
    // its children.
    let hsm = session_lifecycle_guarded();
    println!(
        "statechart {}: {} states, {} transitions, params {:?}, vars {:?}, guarded: {}",
        hsm.name(),
        hsm.state_count(),
        hsm.transition_count(),
        hsm.params(),
        hsm.variables(),
        hsm.is_guarded(),
    );

    // Tier 0: the direct interpreter is the semantic reference — guards
    // evaluate against live registers, updates stage against
    // pre-transition values, and inheritance falls through when an
    // inner state's guards are all closed.
    let mut session = hsm.instance_with(vec![2]); // budget: 2 attempts
    for message in ["connect", "update", "abort", "update", "abort"] {
        let actions = session.deliver_ref(message)?.to_vec();
        println!(
            "  {message:<8} -> {:<40} retries={:?} sends {:?}",
            session.state_name(),
            session.vars(),
            actions
        );
    }
    assert!(session.state_name().starts_with("Failed"));

    // The unified lowering IR: reachable configurations became flat
    // states, and each flat cell lists its guarded candidates in firing
    // priority order. A guarded IR has no flat-FSM projection until
    // its parameters are bound.
    let ir = hsm.flatten_ir();
    let guarded_cells: usize = ir
        .states()
        .iter()
        .flat_map(|s| s.transitions())
        .filter(|t| !t.guard().conditions().is_empty())
        .count();
    println!(
        "\nflattened IR: {} configurations, {} guarded candidate transitions",
        ir.state_count(),
        guarded_cells,
    );

    // The pipeline binds the budget at ingest — exactly like
    // `Spec::efsm` — and with it bound the retry counter is finite: the
    // 13 flat states unfold into 39 `(state, retries)` configurations.
    let engine = Engine::compile(Spec::hsm_with_params(hsm.clone(), vec![3]))?;
    assert_eq!(engine.tier(), Tier::Compiled);
    println!("{engine:?}");
    println!(
        "engine: tier `{}`, {} flat states, params {:?}",
        engine.tier(),
        engine.state_count(),
        engine.params(),
    );

    // Serve 40k concurrent guarded sessions, sharded, batch-stepped —
    // the same facade vocabulary as every other tier; each session's
    // registers are read back from its configuration.
    let mut rt = engine.runtime().sharded(4);
    rt.spawn_many(40_000);
    let probe = rt.spawn();
    let trace: Vec<_> = ["connect", "update", "abort", "update", "vote", "commit"]
        .iter()
        .map(|m| engine.message_id(m).expect("lifecycle alphabet"))
        .collect();
    let mut transitions = 0;
    for &mid in &trace {
        transitions += rt.deliver_all(mid);
    }
    println!(
        "\nsharded runtime: {} sessions, {} transitions, probe session at `{}` retries={:?}",
        rt.len(),
        transitions,
        rt.state_name(probe),
        rt.vars(probe),
    );

    // Handles from untrusted sources go through the non-panicking path:
    // a released (recycled) handle is an error, not a crash.
    rt.release(probe);
    let err = rt
        .try_deliver(probe, trace[0])
        .expect_err("stale handles fail loudly");
    println!("stale handle rejected: {err}");

    // Guard and update annotations stay inspectable in the diagrams.
    // Guard brackets are rendered on their own label line (`\n[...]`),
    // so count that marker, not DOT's attribute brackets.
    let dot = render_hsm_dot(&hsm);
    let guarded_labels = dot.matches("\\n[").count();
    println!("\nDOT diagram carries {guarded_labels} guard-annotated edge labels");
    let line = dot
        .lines()
        .find(|l| l.contains("retries+1 <"))
        .expect("guarded edge label");
    println!("e.g. {}", line.trim());
    Ok(())
}
