//! Regenerates paper Fig 16: the generated source-code artefact. Prints
//! the `receiveVote()` handler in the paper's Java presentation and
//! writes the full Java class and the compilable Rust module.

use repro_bench::artifacts_dir;
use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::{generate, FlatIr, Notes};
use stategen_render::{java_src, render_rust_module, JavaRenderer};

fn main() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).expect("valid")))
        .expect("generation succeeds");
    let ir = FlatIr::from_machine(&g.machine);
    let notes = Notes::from_machine(&g.machine);
    let handlers = java_src::render_handlers(&ir).expect("a generated machine is unguarded");
    // Fig 16 shows the vote handler; print it.
    let vote_handler: String = handlers
        .split("void receive")
        .filter(|s| s.starts_with("Vote"))
        .map(|s| format!("void receive{s}"))
        .collect();
    println!("// Paper Fig 16: generated vote handler (Java presentation)\n");
    for line in vote_handler.lines().take(24) {
        println!("{line}");
    }
    println!("    ...\n");

    let dir = artifacts_dir();
    let java = JavaRenderer::new("CommitFsm", "CommitActions")
        .render(&ir)
        .expect("a generated machine is unguarded");
    let rust = render_rust_module(&ir, Some(&notes)).expect("a generated machine is unguarded");
    std::fs::write(dir.join("CommitFsm.java"), &java).expect("write java");
    std::fs::write(dir.join("commit_r4_generated.rs"), &rust).expect("write rust");
    println!(
        "wrote {} ({} lines)",
        dir.join("CommitFsm.java").display(),
        java.lines().count()
    );
    println!(
        "wrote {} ({} lines; the same module is compiled into stategen-generated)",
        dir.join("commit_r4_generated.rs").display(),
        rust.lines().count()
    );
}
