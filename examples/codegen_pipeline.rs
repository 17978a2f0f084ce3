//! The artefact-generation pipeline (paper §3.5, Figs 14–19): one
//! generated machine rendered as text, DOT, XML, Mermaid, Java and Rust —
//! plus the raw-vs-abstracted generative-code comparison of Figs 17/19.
//!
//! Run with: `cargo run --example codegen_pipeline`

use stategen::commit::{CommitConfig, CommitModel};
use stategen::fsm::{generate, FlatIr, Notes};
use stategen::render::{
    java_src, render_dot, render_mermaid, render_rust_module, render_text, render_xml, JavaRenderer,
};
use stategen::runtime::{Engine, Spec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generated = generate(&CommitModel::new(CommitConfig::new(4)?))?;
    let machine = &generated.machine;
    // Lowered once: every renderer reads the IR, and the commentary rides
    // beside it.
    let ir = FlatIr::from_machine(machine);
    let notes = Notes::from_machine(machine);

    let text = render_text(&ir, Some(&notes));
    let dot = render_dot(&ir);
    let xml = render_xml(&ir, Some(&notes));
    let mermaid = render_mermaid(&ir);
    let rust = render_rust_module(&ir, Some(&notes))?;
    let java = JavaRenderer::new("CommitFsm", "CommitActions").render(&ir)?;

    println!(
        "machine `{}`: {} states, {} transitions",
        machine.name(),
        machine.state_count(),
        machine.transition_count()
    );
    for (name, artefact) in [
        ("text (Fig 14)", &text),
        ("DOT (Fig 15)", &dot),
        ("XML (Fig 15)", &xml),
        ("Mermaid", &mermaid),
        ("Rust module (Fig 16)", &rust),
        ("Java class (Fig 16)", &java),
    ] {
        println!("  {name:<22} {} lines", artefact.lines().count());
    }

    // Paper Figs 17/19: the raw string-buffer generator and the
    // CodeBuffer-based one emit byte-identical code.
    let raw = java_src::render_handlers_raw(&ir)?;
    let abstracted = java_src::render_handlers(&ir)?;
    assert_eq!(raw, abstracted);
    println!(
        "\nraw and abstracted generators emit identical code ({} bytes)",
        raw.len()
    );

    println!("\nFirst lines of the generated Rust module:\n");
    for line in rust.lines().take(14) {
        println!("{line}");
    }

    // The same machine the renderers drew is directly servable: one
    // `Spec → Engine → Runtime` call chain runs the canonical trace.
    let mut rt = Engine::compile(Spec::machine(generated.machine.clone()))?.runtime();
    let session = rt.spawn();
    for message in ["update", "vote", "vote", "commit", "commit"] {
        let mid = rt.message_id(message).expect("commit alphabet");
        rt.deliver(session, mid);
    }
    assert!(rt.is_finished(session));
    println!("\nrendered machine also served a full commit via stategen-runtime");
    Ok(())
}
