//! Hierarchical statecharts on the flat execution tiers: author a
//! session-lifecycle statechart (composite states, entry/exit actions,
//! shallow history), debug it on the direct interpreter, then hand it
//! to the runtime pipeline — `Spec::hierarchical` flattens it on
//! ingest, and the same `Runtime` facade serves it interpreted or
//! compiled, flat or sharded, with no engine changes anywhere.
//!
//! ```text
//! cargo run --release --example hsm_flattening
//! ```

use stategen::fsm::ProtocolEngine;
use stategen::models::session_lifecycle;
use stategen::render::{render_hsm_dot, render_hsm_mermaid};
use stategen::runtime::{Engine, Spec, Tier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The statechart: a commit attempt wrapped in a connection
    // lifecycle with suspend/resume and failure superstates.
    let hsm = session_lifecycle();
    println!(
        "statechart {}: {} states ({} composites, {} with shallow history), {} transitions",
        hsm.name(),
        hsm.state_count(),
        hsm.composite_count(),
        hsm.history_count(),
        hsm.transition_count(),
    );

    // Tier 0: the direct interpreter — the semantic reference. Inherited
    // transitions and history work straight off the tree.
    let mut session = hsm.instance();
    for message in ["connect", "update", "vote", "suspend", "resume", "ping"] {
        let actions = session.deliver_ref(message)?.to_vec();
        println!(
            "  {message:<8} -> {:<44} sends {:?}",
            session.state_name(),
            actions
        );
    }

    // The runtime pipeline flattens on ingest: reachable configurations
    // become flat states, inherited transitions and synthesized
    // entry/exit action sequences become ordinary transitions. The
    // interpreted engine walks the flat machine directly...
    let interp_engine = Engine::interpret(Spec::hierarchical(hsm.clone()))?;
    let mut interp_rt = interp_engine.runtime();
    let interp_session = interp_rt.spawn();
    for message in ["connect", "update", "vote", "suspend", "resume", "ping"] {
        let mid = interp_rt.message_id(message).expect("lifecycle alphabet");
        interp_rt.deliver(interp_session, mid);
    }
    assert_eq!(interp_rt.state_name(interp_session), session.state_name());
    println!(
        "\ninterpreted flat machine agrees: {}",
        interp_rt.state_name(interp_session)
    );

    // ...and the compiled engine serves the same statechart from dense
    // tables (the `compiled` tier — the front-end is not a tier), here
    // batch-stepping a 40k-session runtime split over four shards — each
    // `deliver_all` one fork-join over them — with the same
    // zero-allocation dispatch as any other compiled machine.
    let engine = Engine::compile(Spec::hierarchical(hsm.clone()))?;
    assert_eq!(engine.tier(), Tier::Compiled);
    println!(
        "flattened: {} configurations (from {} hierarchical states), tier `{}`",
        engine.state_count(),
        hsm.state_count(),
        engine.tier(),
    );
    let mut pool = engine.runtime().sharded(4);
    pool.spawn_many(40_000);
    let trace: Vec<_> = ["connect", "update", "vote", "commit", "close"]
        .iter()
        .map(|m| engine.message_id(m).expect("lifecycle alphabet"))
        .collect();
    let mut transitions = 0;
    for &mid in &trace {
        transitions += pool.deliver_all(mid);
    }
    println!(
        "sharded runtime: {} sessions x {} messages = {} transitions, {} finished",
        pool.len(),
        trace.len(),
        transitions,
        pool.finished_count(),
    );
    assert!(pool.all_finished());

    // Hierarchy-aware diagrams: clustered DOT and composite Mermaid.
    let dot = render_hsm_dot(&hsm);
    let mermaid = render_hsm_mermaid(&hsm);
    println!(
        "\nrenderers: DOT with {} clusters, Mermaid with {} composite blocks",
        dot.matches("subgraph cluster_").count(),
        mermaid.matches("state \"").count(),
    );
    println!("\n--- mermaid (paste into any markdown renderer) ---\n{mermaid}");
    Ok(())
}
