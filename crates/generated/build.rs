//! Build-time state-machine generation (paper §4.2/§4.3).
//!
//! The paper's deployed policy is "executed the abstract model with the
//! default replication factor, generated source code from the resulting
//! FSM, and copied that into the code-base". A Cargo build script is the
//! modern equivalent of that one-off generation step: the abstract model
//! runs here, the renderer emits Rust modules into `OUT_DIR`, and the
//! crate compiles them like any other source.

use std::env;
use std::fs;
use std::path::PathBuf;

use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::{generate, FlatIr, Notes};
use stategen_render::render_rust_module;

fn main() {
    println!("cargo::rerun-if-changed=build.rs");
    let out_dir = PathBuf::from(env::var("OUT_DIR").expect("OUT_DIR is set by cargo"));
    for r in [4u32, 7] {
        let config = CommitConfig::new(r).expect("valid replication factor");
        let generated = generate(&CommitModel::new(config)).expect("generation succeeds");
        let machine = &generated.machine;
        let notes = Notes::from_machine(machine);
        let module = render_rust_module(&FlatIr::from_machine(machine), Some(&notes))
            .expect("a generated machine is unguarded");
        let path = out_dir.join(format!("commit_r{r}.rs"));
        fs::write(&path, module).expect("write generated module");
    }
}
