//! Regenerates paper Fig 15: diagram renderings of the generated FSM.
//! The paper exported XML for the Together diagramming tool; this writes
//! a self-contained XML document plus Graphviz DOT and Mermaid sources.

use repro_bench::artifacts_dir;
use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::{generate, FlatIr, Notes};
use stategen_render::{render_dot, render_mermaid, render_xml};

fn main() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).expect("valid")))
        .expect("generation succeeds");
    let dir = artifacts_dir();
    let ir = FlatIr::from_machine(&g.machine);
    let notes = Notes::from_machine(&g.machine);
    let dot = render_dot(&ir);
    let xml = render_xml(&ir, Some(&notes));
    let mermaid = render_mermaid(&ir);
    std::fs::write(dir.join("commit_r4.dot"), &dot).expect("write dot");
    std::fs::write(dir.join("commit_r4.xml"), &xml).expect("write xml");
    std::fs::write(dir.join("commit_r4.mmd"), &mermaid).expect("write mermaid");
    println!(
        "machine: {} ({} states, {} transitions)",
        g.machine.name(),
        g.machine.state_count(),
        g.machine.transition_count()
    );
    println!("wrote {}", dir.join("commit_r4.dot").display());
    println!("wrote {}", dir.join("commit_r4.xml").display());
    println!("wrote {}", dir.join("commit_r4.mmd").display());
    println!("\nDOT excerpt:\n");
    for line in dot.lines().take(12) {
        println!("{line}");
    }
}
